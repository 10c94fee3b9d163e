//! Regression corpus: minimized counterexample schedules, replayed.
//!
//! Each schedule here was found by `twostep-fuzz` against a deliberately
//! ablated protocol and minimized by its ddmin shrinker; the test pins
//! it as a permanent regression check. Every entry is asserted twice:
//! the ablated protocol must still violate the stated property, and the
//! *correct* protocol must survive the identical schedule — so each test
//! localizes the blame to the ablated rule, not to the schedule.
//!
//! To reproduce or extend an entry, paste the printed replay line, e.g.:
//!
//! ```text
//! cargo run -p twostep-fuzz -- --protocol task --e 2 --f 2 --n 6 \
//!     --ablate no_max_tiebreak --replay '<schedule>' --values 1,0,0,2,0,0 --leader 2
//! ```

use twostep_byz::{ByzBehavior, ByzPlan};
use twostep_core::Ablations;
use twostep_fuzz::{
    check_safety, fuzz, fuzz_cases, gen_sharded, run_case, FuzzCase, FuzzConfig, FuzzOutcome,
    FuzzProtocol, Schedule,
};
use twostep_types::{ByzVariant, ProcessId, SystemConfig};

/// Builds a corpus case from its replay-line ingredients.
fn corpus_case(
    protocol: FuzzProtocol,
    (n, e, f): (usize, usize, usize),
    values: &[u64],
    leader: u32,
    ablations: Ablations,
    schedule: &str,
) -> FuzzCase {
    let schedule: Schedule = schedule.parse().expect("corpus schedule must parse");
    FuzzCase {
        protocol,
        cfg: SystemConfig::new(n, e, f).expect("corpus configuration must be valid"),
        values: values.to_vec(),
        leader: ProcessId::new(leader),
        ablations,
        schedule,
        groups: 1,
        victims: ByzPlan::honest(0),
    }
}

/// The sharded campaign `--shards <groups> --seed <seed> --iters <iters>`.
fn sharded_campaign(groups: usize, seed: u64, iters: u64) -> FuzzOutcome {
    let cfg = SystemConfig::minimal_object(1, 1).expect("minimal object configuration");
    let fc = FuzzConfig::new(FuzzProtocol::Object, cfg, seed, iters);
    fuzz_cases(
        &fc,
        |stream| gen_sharded(groups, cfg, Ablations::NONE, stream),
        |_| {},
    )
}

/// The Byzantine campaign `--byzantine --variant <variant> --n <n> --f <f>
/// --seed <seed> --iters <iters>`.
fn byzantine_campaign(
    variant: ByzVariant,
    (n, f): (usize, usize),
    seed: u64,
    iters: u64,
) -> FuzzOutcome {
    let cfg = SystemConfig::new(n, f, f).expect("Byzantine configuration");
    fuzz(&FuzzConfig::new(
        FuzzProtocol::FastBft(variant),
        cfg,
        seed,
        iters,
    ))
}

/// Asserts the ablated replay violates `property` and the unablated
/// replay of the same schedule is clean.
fn assert_blames_ablation(case: FuzzCase, property: &str) {
    let verdict = check_safety(case.protocol, &run_case(&case))
        .unwrap_or_else(|| panic!("corpus schedule no longer reproduces a violation"));
    assert_eq!(
        verdict.property(),
        property,
        "corpus schedule now violates {} ({}), expected {property}",
        verdict.property(),
        verdict.detail()
    );

    let mut correct = case;
    correct.ablations = Ablations::NONE;
    let verdict = check_safety(correct.protocol, &run_case(&correct));
    assert_eq!(
        verdict, None,
        "the correct protocol must survive the corpus schedule"
    );
}

/// §4's recovery rule breaks when its max-value tie-break is flipped to
/// min. Minimal configuration n = 2e + f at (e, f) = (2, 2): the winner
/// p3 fast-decides 2 with voters {p3, p0, p1, p4}, its Decide broadcasts
/// are dropped, and leader p2's recovery quorum {p1, p2, p4, p5} tallies
/// {2: 2, 1: 2} at the exact n-f-e = 2 threshold — min picks 1.
/// Found at seed 1, iteration 12; shrunk 59 → 21 actions. Notably the
/// minimal schedule needs no crashes at all: message drops alone
/// desynchronize the winner from the recovery quorum.
#[test]
fn tiebreak_flip_splits_recovery_quorum() {
    let case = corpus_case(
        FuzzProtocol::Task,
        (6, 2, 2),
        &[1, 0, 0, 2, 0, 0],
        2,
        Ablations {
            no_max_tiebreak: true,
            ..Ablations::NONE
        },
        "d:3>1 d:3>4 d:3>0 D:3 x:3>1 x:3>2 x:3>2 x:3>4 x:3>5 x:3>5 \
         T:2 D:4 D:1 D:2 D:5 D:2 D:2 D:1 D:4 D:5 D:2",
    );
    assert_blames_ablation(case, "agreement");
}

/// The object variant's extra vote guard (only the designated opener's
/// proposal may be fast-voted) is load-bearing at n = 2e + f - 1.
/// Without it two concurrent openers both assemble fast quorums.
/// Found at seed 1, iteration 1; shrunk 57 → 19 actions.
#[test]
fn object_guard_removal_allows_double_fast_decide() {
    let case = corpus_case(
        FuzzProtocol::Object,
        (5, 2, 2),
        &[0, 1, 0, 0, 2],
        0,
        Ablations {
            no_object_guard: true,
            ..Ablations::NONE
        },
        "p:4=2 p:1=1 d:4>3 d:4>1 D:4 x:4>0 x:4>0 x:4>2 x:4>2 x:4>3 \
         T:0 D:2 D:3 D:0 D:0 D:2 D:0 D:3 D:0",
    );
    assert_blames_ablation(case, "agreement");
}

/// The same guard, removed inside one shard of a two-shard deployment
/// (`--shards 2 --e 2 --f 2 --ablate no_object_guard --seed 5`,
/// iteration 2791; shrunk 98 → 24 actions). Shard 1's proposers p0
/// (105) and p4 (209) race while shard 0 carries its own proposal from
/// p3; message and timer operands index across both shards' soups, so
/// the schedule only means this run under the sharded decode. Shard 1's
/// leader p1 recovers 105 and p4 still fast-decides 209. The verdict
/// names the shard, and shard 0 — on the same nodes, through the same
/// interleaving — decides 170 everywhere.
#[test]
fn object_guard_removal_splits_one_shard_of_two() {
    let case = FuzzCase {
        groups: 2,
        ..corpus_case(
            FuzzProtocol::Object,
            (5, 2, 2),
            &[0, 0, 0, 0, 0],
            0,
            Ablations {
                no_object_guard: true,
                ..Ablations::NONE
            },
            "p:3=170 p:0=105 p:4=209 D:2 D:0 i:45403 D:4 x:0>3 D:1 i:39408 i:11097 i:31364 \
             i:2037 T:1 i:16359 i:58197 D:3 D:1 D:1 D:0 D:3 D:2 D:1 D:4",
        )
    };
    let verdict = check_safety(case.protocol, &run_case(&case)).expect("shard 1 must split");
    assert!(
        verdict.detail().starts_with("shard 1: "),
        "{}",
        verdict.detail()
    );
    assert_blames_ablation(case, "agreement");
}

/// A coalition outside the model FastBft's quorums are sized for: the
/// *coordinator* equivocates. Without signatures nothing distinguishes
/// its forged ballot-0 proposal from a real one (the unsigned-BFT
/// caveat in `twostep-baselines::fab`), so an honest process decides a
/// value nobody proposed — the honest-only oracle's Validity, red on a
/// real run. Campaigns never draw process 0; this plan was put there by
/// hand (`crates/fuzz/tests/smoke.rs` finds it at seed 42, iteration 4;
/// shrunk 494 → 13 actions). With the coordinator honest the same
/// schedule is clean.
///
/// ```text
/// cargo run -p twostep-fuzz -- --byzantine --variant fab --e 1 --f 1 --n 6 \
///     --replay 'T:0 D:5 D:1 D:3 D:0 D:4 D:0 D:2 D:3 D:5 D:0 D:4 D:1' \
///     --values 353,16,714,717,30,181 --leader 0 \
///     --victims 0:equivocate --seed 0x6545d3b48b05c974
/// ```
#[test]
fn byzantine_coordinator_forges_an_honest_decision() {
    let mut case = corpus_case(
        FuzzProtocol::FastBft(ByzVariant::Fab),
        (6, 1, 1),
        &[353, 16, 714, 717, 30, 181],
        0,
        Ablations::NONE,
        "T:0 D:5 D:1 D:3 D:0 D:4 D:0 D:2 D:3 D:5 D:0 D:4 D:1",
    );
    case.victims =
        ByzPlan::honest(0x6545_d3b4_8b05_c974).with(ProcessId::new(0), ByzBehavior::Equivocate);
    let verdict = check_safety(case.protocol, &run_case(&case))
        .expect("the forged proposal must reach an honest decision");
    assert_eq!(verdict.property(), "validity", "{}", verdict.detail());

    case.victims = ByzPlan::honest(0);
    let report = run_case(&case);
    assert_eq!(check_safety(case.protocol, &report), None);
    assert!(report.decide_log.iter().all(|&(_, v)| v == 353));
}

/// Clean-pass witness for the sharded campaign: 60 seeded iterations of
/// 4 object-consensus groups on 3 shared nodes, each iteration crashing
/// and restarting a shard-leader node mid-load, found no violation —
/// per-shard Agreement/Validity/Integrity hold and no value ever leaked
/// across shards. The decide-event count is pinned exactly: the
/// campaign is deterministic, so any drift in the generator, the
/// executor or the protocols shows up here as a count change before it
/// can silently shrink the corpus's coverage.
///
/// Reproduce with:
///
/// ```text
/// cargo run -p twostep-fuzz -- --shards 4 --seed 42 --iters 60
/// ```
#[test]
fn sharded_leader_crash_restart_campaign_is_clean() {
    let out = sharded_campaign(4, 42, 60);
    assert!(
        out.is_clean(),
        "sharded campaign found a violation: {:?}",
        out.failure
    );
    assert_eq!(out.iterations_run, 60);
    assert_eq!(
        out.decisions, 720,
        "campaign coverage drifted: expected the pinned decide-event count"
    );
}

/// The two-shard edge of the same campaign — the smallest deployment
/// where leaders actually spread: the leader of one group is a follower
/// of the other, so every crash exercises both roles at once.
#[test]
fn two_shard_leader_crash_restart_campaign_is_clean() {
    let out = sharded_campaign(2, 7, 60);
    assert!(
        out.is_clean(),
        "two-shard campaign found a violation: {:?}",
        out.failure
    );
    assert_eq!(out.decisions, 360, "campaign coverage drifted");
}

/// Clean-pass witness for the Byzantine campaign: 60 seeded iterations
/// of FastBft at FaB's minimal fast-live size (n = 5f+1 = 6), each with
/// a victim drawn from all four malicious behaviors — equivocate,
/// forge, lie-ballot, silence — (never the coordinator — the
/// unsigned-BFT caveat), found no Agreement/Validity/Integrity
/// violation among the honest processes. The honest decide-event count
/// is pinned exactly: the campaign is deterministic, so drift in the
/// injector, the executor, or FastBft shows up here before it can
/// silently shrink coverage.
///
/// Reproduce with:
///
/// ```text
/// cargo run -p twostep-fuzz -- --byzantine --f 1 --seed 42 --iters 60
/// ```
#[test]
fn byzantine_malicious_coalition_campaign_is_clean() {
    let out = byzantine_campaign(ByzVariant::Fab, (6, 1), 42, 60);
    assert!(
        out.is_clean(),
        "byzantine campaign found a violation: {:?}",
        out.failure
    );
    assert_eq!(out.iterations_run, 60);
    assert_eq!(
        out.decisions, 300,
        "campaign coverage drifted: expected the pinned honest decide-event count"
    );
}

/// The Tight (5f−1) edge of the same campaign at f = 2: coalitions of
/// up to two victims attack the narrower fast quorum, whose recovery
/// certification deliberately trades the maxcount obligation (B6) for
/// honest-proposer conditioning.
///
/// Reproduce with:
///
/// ```text
/// cargo run -p twostep-fuzz -- --byzantine --variant tight --f 2 --seed 7 --iters 25
/// ```
#[test]
fn byzantine_tight_variant_campaign_is_clean() {
    let out = byzantine_campaign(ByzVariant::Tight, (9, 2), 7, 25);
    assert!(
        out.is_clean(),
        "tight byzantine campaign found a violation: {:?}",
        out.failure
    );
    assert_eq!(out.decisions, 189, "campaign coverage drifted");
}

/// The `n = 3f+1` floor of the Byzantine campaign, both variants — the
/// REVIEW.md corner where an accepting quorum and a later promise
/// quorum intersect in just `n−2f = 2` processes, only `n−3f = 1` of
/// them guaranteed honest. A clean pass pins the two repairs: slow
/// `Promise` reports are certificate-backed (a Forge victim in the
/// intersection cannot strand a slow-decided value), and Tight
/// recovery waits for the coordinator's report instead of counting
/// witnesses it may not have.
///
/// Reproduce with:
///
/// ```text
/// cargo run -p twostep-fuzz -- --byzantine --n 4 --f 1 --seed 21 --iters 30
/// cargo run -p twostep-fuzz -- --byzantine --variant tight --n 4 --f 1 --seed 21 --iters 30
/// ```
#[test]
fn byzantine_floor_campaigns_are_clean_for_both_variants() {
    for variant in [ByzVariant::Fab, ByzVariant::Tight] {
        let out = byzantine_campaign(variant, (4, 1), 21, 30);
        assert!(
            out.is_clean(),
            "{variant:?} floor campaign found a violation: {:?}",
            out.failure
        );
        assert_eq!(
            out.decisions, 90,
            "{variant:?} floor campaign coverage drifted"
        );
    }
}

/// The paper's §B.1 adversary, re-encoded as a schedule: a fast decision
/// forms, the winner and one voter crash, and the recovery leader must
/// reconstruct the decided value from a quorum that saw only a partial
/// vote. The correct recovery rule decides the fast value; the test pins
/// that end-to-end agreement across fast path and recovery.
#[test]
fn fast_decide_then_crash_recovers_the_decided_value() {
    let case = corpus_case(
        FuzzProtocol::Task,
        (6, 2, 2),
        &[1, 0, 0, 2, 0, 0],
        2,
        Ablations::NONE,
        // p3's Propose reaches everyone; p0's votes make the fast quorum.
        "d:3>0 d:3>1 d:3>2 d:3>4 d:3>5 D:3 \
         c:3 c:0 T:2 D:1 D:2 D:4 D:5 D:2 D:2 D:1 D:4 D:5 D:1 D:4 D:5 D:2",
    );
    let report = run_case(&case);
    assert_eq!(check_safety(case.protocol, &report), None);
    // The winner fast-decided before crashing, so the surviving quorum's
    // recovery must converge on the same value.
    assert!(
        report
            .decide_log
            .iter()
            .any(|&(p, _)| p == ProcessId::new(3)),
        "p3 should have fast-decided before its crash: {:?}",
        report.decide_log
    );
    let values: Vec<u64> = report.decide_log.iter().map(|&(_, v)| v).collect();
    assert!(
        values.iter().all(|&v| v == values[0]),
        "all decisions must match the fast-decided value: {:?}",
        report.decide_log
    );
}
