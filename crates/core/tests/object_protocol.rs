//! Integration tests: the object variant satisfies Definition A.1 at the
//! Theorem 6 bound `n = max{2e+f-1, 2f+1}` — one process fewer than the
//! task bound — plus safety under contention.

use twostep_core::ObjectConsensus;
use twostep_sim::{definition_a1, DeliveryOrder, SimulationBuilder, SyncRunner};
use twostep_types::{judge, Duration, ProcessId, SystemConfig, Time};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

const GRID: [(usize, usize); 5] = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)];

#[test]
fn object_bound_is_strictly_below_task_bound_where_claimed() {
    // Sanity on the configurations exercised here: for 2e+f-1 >= 2f+1 the
    // object protocol runs with exactly one process fewer.
    let cfg_obj = SystemConfig::minimal_object(2, 2).unwrap();
    let cfg_task = SystemConfig::minimal_task(2, 2).unwrap();
    assert_eq!(cfg_obj.n() + 1, cfg_task.n());
}

#[test]
fn definition_a1_holds_on_every_failure_set() {
    // A.1(1), a lone proposer decides by 2Δ, and A.1(2), unanimous
    // proposals are two-step for every correct witness, on every E.
    for (e, f) in GRID {
        let cfg = SystemConfig::minimal_object(e, f).unwrap();
        let report = definition_a1(cfg, |q| ObjectConsensus::<u64>::new(cfg, q));
        assert!(report.passed(), "cfg={cfg}: {:?}", report.first_failure);
    }
}

#[test]
fn conflicting_proposals_stay_safe_and_terminate() {
    // Two distinct proposals at the object bound: the red line blocks
    // cross-votes; decisions come via the slow path but must agree.
    for (e, f) in GRID {
        let cfg = SystemConfig::minimal_object(e, f).unwrap();
        let a = p(0);
        let b = p((cfg.n() - 1) as u32);
        let outcome = SyncRunner::new(cfg)
            .horizon(Duration::deltas(80))
            .run_object(
                |q| ObjectConsensus::<u64>::new(cfg, q),
                vec![(a, 10, Time::ZERO), (b, 20, Time::ZERO)],
            );
        assert!(outcome.agreement(), "cfg={cfg}");
        assert!(
            outcome.all_correct_decided(),
            "cfg={cfg}: stalled under conflict"
        );
        let verdict = judge::validity(&outcome.trace.decide_log(), &[10, 20]);
        assert_eq!(verdict, Ok(()), "cfg={cfg}");
    }
}

#[test]
fn late_proposal_after_slow_ballots_still_terminates() {
    // The liveness extension: a proposal arriving after slow ballots have
    // started would be rejected by every `bal = 0` precondition; the
    // retransmission + observed-proposal fallback must still decide it.
    let cfg = SystemConfig::minimal_object(2, 2).unwrap();
    let proposer = p(3);
    let outcome = SyncRunner::new(cfg)
        .horizon(Duration::deltas(120))
        .run_object(
            |q| ObjectConsensus::<u64>::new(cfg, q),
            // Propose only at 9Δ, well after the first new-ballot timeout
            // (2Δ) has pushed everyone into slow ballots.
            vec![(proposer, 5, Time::ZERO + Duration::deltas(9))],
        );
    assert!(
        outcome.decision_of(proposer).is_some(),
        "late proposer starved: wait-freedom violated"
    );
    assert_eq!(outcome.decision_of(proposer), Some(&5));
    assert!(outcome.agreement());
}

#[test]
fn nobody_proposes_nobody_decides() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let outcome = SyncRunner::new(cfg)
        .horizon(Duration::deltas(30))
        .run_object(|q| ObjectConsensus::<u64>::new(cfg, q), vec![]);
    assert!(outcome.decisions.iter().all(|d| d.is_none()));
    // Validity in the degenerate sense: no value invented.
    assert!(outcome.trace.decisions().is_empty());
}

#[test]
fn proposer_crashing_mid_broadcast_is_safe() {
    // The proposer crashes right after its proposal is in flight; the
    // rest must either decide its value or nothing conflicting.
    // A failing seed is replayable alone via TWOSTEP_SEED=<seed>.
    for seed in twostep_sim::test_seeds(0..10) {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let proposer = p(0);
        let mut sim = SimulationBuilder::new(cfg)
            .delivery_order(DeliveryOrder::randomized(seed))
            .crash_at(proposer, Time::from_units(1))
            .build(|q| ObjectConsensus::<u64>::new(cfg, q));
        sim.schedule_propose(proposer, 11, Time::ZERO);
        let outcome = sim.run_until_all_decided(Time::ZERO + Duration::deltas(100));
        let verdict = judge::validity(&outcome.trace.decide_log(), &[11]);
        assert_eq!(verdict, Ok(()), "seed {seed}: only 11 was ever proposed");
        // Liveness: survivors decide (the proposal reached them before
        // the crash since effects are applied atomically at t=0).
        assert!(outcome.all_correct_decided(), "seed {seed}");
    }
}

#[test]
fn contending_proposals_under_random_schedules_agree() {
    for seed in twostep_sim::test_seeds(0..15) {
        let cfg = SystemConfig::minimal_object(2, 3).unwrap();
        let n = cfg.n();
        let mut sim = SimulationBuilder::new(cfg)
            .delay_model(twostep_sim::RandomDelay::sub_delta(seed))
            .delivery_order(DeliveryOrder::randomized(seed))
            .build(|q| ObjectConsensus::<u64>::new(cfg, q));
        // Half the processes propose, at staggered times.
        for (k, i) in (0..n as u32).step_by(2).enumerate() {
            sim.schedule_propose(p(i), 50 + u64::from(i), Time::from_units(k as u64 * 300));
        }
        let outcome = sim.run_until_all_decided(Time::ZERO + Duration::deltas(150));
        assert_eq!(
            judge::agreement(&outcome.trace.decide_log()),
            Ok(()),
            "seed {seed}"
        );
        assert!(outcome.all_correct_decided(), "seed {seed}");
    }
}
