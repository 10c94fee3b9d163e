//! Bounded deterministic fuzz runs, wired into `cargo test`.
//!
//! Every test derives its root seed from [`seed`], which honours the
//! `TWOSTEP_SEED` environment variable and embeds the seed in every
//! assertion message, so a failure is reproducible by exporting the
//! printed seed.

use twostep_byz::{ByzBehavior, ByzPlan};
use twostep_core::Ablations;
use twostep_fuzz::{
    fuzz, fuzz_cases, gen_case, gen_sharded, run_case, Failure, FuzzConfig, FuzzProtocol,
};
use twostep_types::{ByzVariant, ProcessId, SystemConfig};

/// The test's root seed: `TWOSTEP_SEED` if set, else `default`.
fn seed(default: u64) -> u64 {
    match std::env::var("TWOSTEP_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("TWOSTEP_SEED must be a u64, got {s:?}")),
        Err(_) => default,
    }
}

#[test]
fn every_protocol_survives_a_bounded_campaign_at_its_minimum() {
    let seed = seed(42);
    for protocol in FuzzProtocol::ALL {
        let cfg = SystemConfig::new(protocol.min_processes(1, 1), 1, 1).unwrap();
        let out = fuzz(&FuzzConfig::new(protocol, cfg, seed, 500));
        assert!(
            out.is_clean(),
            "[seed={seed}] {} violated safety: {:?}",
            protocol.name(),
            out.failure
        );
    }
}

#[test]
fn two_step_variants_survive_the_tiebreak_prone_configuration() {
    // (e, f) = (2, 2) is the first configuration where the recovery
    // rule's exact-threshold tie-break can fire at all; the correct
    // protocol must still survive the adversarially biased generator.
    let seed = seed(7);
    for (protocol, n) in [(FuzzProtocol::Task, 6), (FuzzProtocol::Object, 5)] {
        let cfg = SystemConfig::new(n, 2, 2).unwrap();
        let out = fuzz(&FuzzConfig::new(protocol, cfg, seed, 2000));
        assert!(
            out.is_clean(),
            "[seed={seed}] {} violated safety: {:?}",
            protocol.name(),
            out.failure
        );
    }
}

#[test]
fn ablated_recovery_tiebreak_is_caught_and_shrunk() {
    // The deliberately injected bug: `no_max_tiebreak` replaces the
    // recovery rule's max-value tie-break with min. It is only reachable
    // with two proposers outside the 1B quorum splitting a recovery
    // quorum at exactly the n-f-e threshold, i.e. n = 2e+f with e,f ≥ 2;
    // (2, 2) at n = 6 is minimal. Across 10 sampled seeds the generator
    // hit it within 536 iterations, so 5000 leaves a wide margin for
    // TWOSTEP_SEED overrides.
    let seed = seed(1);
    let cfg = SystemConfig::new(6, 2, 2).unwrap();
    let mut fc = FuzzConfig::new(FuzzProtocol::Task, cfg, seed, 5000);
    fc.ablations = Ablations {
        no_max_tiebreak: true,
        ..Ablations::NONE
    };
    let out = fuzz(&fc);
    let fail = out
        .failure
        .unwrap_or_else(|| panic!("[seed={seed}] ablated tie-break not caught in 5000 iters"));
    assert_eq!(
        fail.verdict.property(),
        "agreement",
        "[seed={seed}] expected an agreement violation, got {:?}",
        fail.verdict
    );

    // The counterexample was shrunk and the minimized schedule still
    // reproduces a violation when replayed from scratch.
    let shrunk = fail
        .shrunk
        .as_ref()
        .unwrap_or_else(|| panic!("[seed={seed}] no shrunk schedule"));
    assert!(
        shrunk.len() <= fail.case.schedule.len(),
        "[seed={seed}] shrinking must not grow the schedule"
    );
    let replay = fail.case.with_schedule(shrunk.actions.clone());
    let verdict = twostep_fuzz::check_safety(replay.protocol, &run_case(&replay));
    assert!(
        verdict.is_some(),
        "[seed={seed}] shrunk schedule {shrunk} does not replay to a violation"
    );

    // Shrinking is also effective: a phase-structured schedule carries
    // dozens of actions, the minimal witness needs well under half.
    assert!(
        shrunk.len() * 2 < fail.case.schedule.len(),
        "[seed={seed}] shrunk {} of {} actions — shrinker did nothing useful",
        shrunk.len(),
        fail.case.schedule.len()
    );
}

#[test]
fn ablated_proposer_exclusion_is_caught() {
    // The companion ablation: counting recovery votes over the whole 1B
    // quorum instead of R = {q ∈ Q | proposer_q ∉ Q}. Empirically caught
    // within ~2200 iterations at seed 1; bound it generously. Skip the
    // shrink-quality assertions here — one thorough shrink check above
    // keeps the suite fast.
    let seed = seed(1);
    let cfg = SystemConfig::new(6, 2, 2).unwrap();
    let mut fc = FuzzConfig::new(FuzzProtocol::Task, cfg, seed, 20000);
    fc.ablations = Ablations {
        no_proposer_exclusion: true,
        ..Ablations::NONE
    };
    fc.shrink = false;
    let out = fuzz(&fc);
    assert!(
        out.failure.is_some(),
        "[seed={seed}] ablated proposer exclusion not caught in 20000 iters"
    );
}

#[test]
fn ablated_object_guard_is_caught() {
    let seed = seed(1);
    let cfg = SystemConfig::new(5, 2, 2).unwrap();
    let mut fc = FuzzConfig::new(FuzzProtocol::Object, cfg, seed, 20000);
    fc.ablations = Ablations {
        no_object_guard: true,
        ..Ablations::NONE
    };
    fc.shrink = false;
    let out = fuzz(&fc);
    assert!(
        out.failure.is_some(),
        "[seed={seed}] ablated object guard not caught in 20000 iters"
    );
}

/// The shrunk schedule of `fail` still violates the property the
/// campaign reported when its case is replayed from scratch.
fn assert_shrunk_replays(fail: &Failure, seed: u64) {
    let shrunk = fail
        .shrunk
        .as_ref()
        .unwrap_or_else(|| panic!("[seed={seed}] no shrunk schedule"));
    assert!(
        shrunk.len() * 2 < fail.case.schedule.len(),
        "[seed={seed}] shrunk {} of {} actions",
        shrunk.len(),
        fail.case.schedule.len()
    );
    let replay = fail.case.with_schedule(shrunk.actions.clone());
    let verdict = twostep_fuzz::check_safety(replay.protocol, &run_case(&replay))
        .unwrap_or_else(|| panic!("[seed={seed}] shrunk schedule {shrunk} replays clean"));
    assert_eq!(
        verdict.property(),
        fail.verdict.property(),
        "[seed={seed}] {shrunk} replays to another property"
    );
}

#[test]
fn ablated_object_guard_is_caught_inside_a_shard_and_shrunk() {
    // The sharded campaign honours ablations: two shards on n = 2e+f-1
    // nodes with the red-line guard removed split one of them. Across 8
    // sampled seeds the generator needed at most 9618 iterations.
    let seed = seed(5);
    let cfg = SystemConfig::new(5, 2, 2).unwrap();
    let ablations = Ablations {
        no_object_guard: true,
        ..Ablations::NONE
    };
    let fc = FuzzConfig::new(FuzzProtocol::Object, cfg, seed, 30000);
    let out = fuzz_cases(&fc, |s| gen_sharded(2, cfg, ablations, s), |_| {});
    let fail = out
        .failure
        .unwrap_or_else(|| panic!("[seed={seed}] ablated guard not caught in 30000 iters"));
    assert_eq!(fail.case.groups, 2);
    assert_eq!(fail.verdict.property(), "agreement", "[seed={seed}]");
    assert!(
        fail.verdict.detail().starts_with("shard "),
        "[seed={seed}] the verdict must name its shard: {}",
        fail.verdict.detail()
    );
    assert_shrunk_replays(&fail, seed);
}

#[test]
fn a_byzantine_coordinator_is_caught_and_shrunk() {
    // Outside the model the quorums are sized for: the generator's own
    // coalition is replaced by an equivocating process 0, whose forged
    // ballot-0 proposal nothing can tell from a real one without
    // signatures. An honest process deciding it is a Validity
    // violation — found within 5 iterations at each of seeds 1..=8.
    let seed = seed(42);
    let fab = FuzzProtocol::FastBft(ByzVariant::Fab);
    let cfg = SystemConfig::new(6, 1, 1).unwrap();
    let fc = FuzzConfig::new(fab, cfg, seed, 5000);
    let coordinator_lies = |s| {
        let mut case = gen_case(fab, cfg, Ablations::NONE, s);
        assert!(case.victims.behavior_of(ProcessId::new(0)).is_honest());
        case.victims = ByzPlan::honest(s).with(ProcessId::new(0), ByzBehavior::Equivocate);
        case
    };
    let out = fuzz_cases(&fc, coordinator_lies, |_| {});
    let fail = out
        .failure
        .unwrap_or_else(|| panic!("[seed={seed}] lying coordinator not caught in 5000 iters"));
    assert_eq!(fail.verdict.property(), "validity", "[seed={seed}]");
    assert_shrunk_replays(&fail, seed);
}

#[test]
fn the_replicated_log_survives_bounded_campaigns() {
    let cfg = SystemConfig::new(FuzzProtocol::Smr.min_processes(1, 1), 1, 1).unwrap();
    for default in [42, 7] {
        let seed = seed(default);
        let out = fuzz(&FuzzConfig::new(FuzzProtocol::Smr, cfg, seed, 500));
        assert!(
            out.is_clean(),
            "[seed={seed}] the log violated safety: {:?}",
            out.failure
        );
        assert!(out.decisions > 0, "[seed={seed}] nothing was ever applied");
    }
}
