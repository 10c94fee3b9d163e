//! Cross-crate verification: the real protocol under the model checker,
//! and consensus-object linearizability over whole simulated runs.

use twostep_core::{Ablations, ObjectConsensus, OmegaMode, TwoStepBuilder};
use twostep_sim::{DeliveryOrder, ManualExecutor, SimulationBuilder, TraceEvent};
use twostep_types::protocol::TimerId;
use twostep_types::{Duration, ProcessId, SystemConfig, Time};
use twostep_verify::{CheckOutcome, History, ModelChecker};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Model-check the task protocol's fast path at the Theorem 5 bound for
/// e = f = 1 (n = 3): every interleaving of message deliveries must
/// preserve Agreement and Validity.
#[test]
fn model_check_task_fast_path_all_schedules() {
    let cfg = SystemConfig::minimal_task(1, 1).unwrap();
    let outcome = ModelChecker::new().run(cfg, &[10u64, 20, 30], |cfg| {
        let mut ex = ManualExecutor::new(cfg, |q| {
            TwoStepBuilder::new(cfg)
                .omega(OmegaMode::Static(p(0)))
                .task(q, 10 * (u64::from(q.as_u32()) + 1))
        });
        ex.start_all();
        ex
    });
    match outcome {
        CheckOutcome::Clean {
            states, truncated, ..
        } => {
            assert!(!truncated, "exploration must finish within the bound");
            assert!(
                states > 50,
                "expected substantive exploration, got {states}"
            );
        }
        CheckOutcome::Violation { report, script, .. } => {
            panic!("task protocol violated safety: {report}\nscript: {script:#?}")
        }
    }
}

/// Same, with one recovery ballot allowed (each process may fire its
/// new-ballot timer once) and one crash: fast path and slow path
/// interleave arbitrarily.
#[test]
fn model_check_task_with_recovery_and_crash() {
    let cfg = SystemConfig::minimal_task(1, 1).unwrap();
    let outcome = ModelChecker::new()
        .max_crashes(1)
        .timer_budget(1, vec![TimerId::NEW_BALLOT])
        .max_states(400_000)
        .run(cfg, &[10u64, 20, 30], |cfg| {
            let mut ex = ManualExecutor::new(cfg, |q| {
                TwoStepBuilder::new(cfg)
                    .omega(OmegaMode::Static(p(0)))
                    .task(q, 10 * (u64::from(q.as_u32()) + 1))
            });
            ex.start_all();
            ex
        });
    if let CheckOutcome::Violation { report, script, .. } = outcome {
        panic!("task protocol violated safety: {report}\nscript: {script:#?}")
    }
}

/// Model-check the object protocol at the Theorem 6 bound for e = f = 1
/// (n = 3) with two contending proposals.
#[test]
fn model_check_object_contention() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let outcome = ModelChecker::new()
        .timer_budget(1, vec![TimerId::NEW_BALLOT])
        .max_states(400_000)
        .run(cfg, &[5u64, 9], |cfg| {
            let mut ex = ManualExecutor::new(cfg, |q| {
                TwoStepBuilder::new(cfg)
                    .omega(OmegaMode::Static(p(0)))
                    .object::<u64>(q)
            });
            ex.start_all();
            ex.propose(p(0), 5);
            ex.propose(p(2), 9);
            ex
        });
    if let CheckOutcome::Violation { report, script, .. } = outcome {
        panic!("object protocol violated safety: {report}\nscript: {script:#?}")
    }
}

/// Builds a propose-history from a simulated object run and checks
/// linearizability.
fn history_from_run(outcome: &twostep_sim::RunOutcome<u64, ObjectConsensus<u64>>) -> History<u64> {
    let mut h = History::new();
    for ev in outcome.trace.events() {
        if let TraceEvent::Proposed {
            time,
            process,
            value,
        } = ev
        {
            h.invoke(*process, *value, *time);
        }
    }
    // A proposer's operation responds when that process knows the
    // decision — which may predate the invocation (the process learned
    // the outcome via gossip before its client called propose); the
    // operation then returns immediately at invocation time.
    for ev in outcome.trace.events() {
        if let TraceEvent::Decided {
            time,
            process,
            value,
        } = ev
        {
            let invoked = h
                .ops()
                .iter()
                .find(|o| o.process == *process && o.response.is_none())
                .map(|o| o.invoked);
            if let Some(invoked) = invoked {
                h.respond(*process, *value, (*time).max(invoked));
            }
        }
    }
    h
}

#[test]
fn object_runs_are_linearizable_across_seeds() {
    // A failing seed is replayable alone via TWOSTEP_SEED=<seed>.
    for seed in twostep_sim::test_seeds(0..25) {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let n = cfg.n();
        let mut sim = SimulationBuilder::new(cfg)
            .delay_model(twostep_sim::RandomDelay::sub_delta(seed))
            .delivery_order(DeliveryOrder::randomized(seed))
            .build(|q| ObjectConsensus::<u64>::new(cfg, q));
        // A pseudo-random subset proposes at staggered times.
        for i in 0..n as u32 {
            if (seed + u64::from(i)) % 3 != 0 {
                sim.schedule_propose(
                    p(i),
                    100 + u64::from(i),
                    Time::from_units((seed * 131 + u64::from(i) * 517) % 3000),
                );
            }
        }
        let outcome = sim.run_until_all_decided(Time::ZERO + Duration::deltas(150));
        let h = history_from_run(&outcome);
        if let Err(e) = h.check() {
            panic!("seed {seed}: {e}\nhistory: {:#?}", h.ops());
        }
    }
}

#[test]
fn object_runs_with_crashes_are_linearizable() {
    for seed in twostep_sim::test_seeds(0..15) {
        let cfg = SystemConfig::minimal_object(2, 3).unwrap();
        let n = cfg.n();
        let f = cfg.f();
        let mut builder = SimulationBuilder::new(cfg)
            .delay_model(twostep_sim::RandomDelay::sub_delta(seed))
            .delivery_order(DeliveryOrder::randomized(seed));
        for k in 0..(seed as usize % (f + 1)) {
            let victim = p(((seed as usize + 2 * k + 1) % n) as u32);
            builder = builder.crash_at(
                victim,
                Time::from_units((seed * 701 + k as u64 * 997) % 4000),
            );
        }
        let mut sim = builder.build(|q| ObjectConsensus::<u64>::new(cfg, q));
        for i in (0..n as u32).step_by(2) {
            sim.schedule_propose(
                p(i),
                100 + u64::from(i),
                Time::from_units(u64::from(i) * 200),
            );
        }
        let outcome = sim.run_until_all_decided(Time::ZERO + Duration::deltas(150));
        let h = history_from_run(&outcome);
        if let Err(e) = h.check() {
            panic!("seed {seed}: {e}\nhistory: {:#?}", h.ops());
        }
    }
}

/// The model checker finds the safety bug introduced by the red-line
/// ablation by exploring *all* continuations of a contended fast round —
/// complementing the single directed script in `twostep_verify::adversary`.
///
/// Exploring every interleaving from time zero is intractable (the
/// violation sits ~25 steps deep); instead the setup replays the
/// fast-path phase deterministically (everyone proposes, `w = p4` wins
/// the fast quorum thanks to the dropped guard, `{p2, p4}` crash) and
/// the checker exhaustively explores every continuation — deliveries of
/// the in-flight messages interleaved with new-ballot timers. Some
/// continuation must recover value 0 against `p4`'s fast-decided 1.
#[test]
fn model_check_finds_object_guard_ablation_bug() {
    use twostep_core::Msg;

    let cfg = SystemConfig::minimal_object(2, 2).unwrap(); // n = 5
    let outcome = ModelChecker::new()
        .timer_budget(1, vec![TimerId::NEW_BALLOT])
        .max_states(500_000)
        .run(cfg, &[0, 1], |cfg| {
            let mut ex = ManualExecutor::new(cfg, |q| {
                TwoStepBuilder::new(cfg)
                    .omega(OmegaMode::Static(p(0)))
                    .ablations(Ablations {
                        no_object_guard: true,
                        ..Ablations::NONE
                    })
                    .object::<u64>(q)
            });
            ex.start_all();
            // E0 = {p0, p1} and F0 = {p2} propose 0; E1 = {p3, p4}
            // propose 1.
            for i in 0..cfg.n() as u32 {
                let v = if i >= (cfg.n() - cfg.e()) as u32 {
                    1
                } else {
                    0
                };
                ex.propose(p(i), v);
            }
            // w = p4 wins the fast path: p2 (guard ablated!) and p3 vote 1.
            for voter in [p(2), p(3)] {
                for id in ex.pending_matching(|m| {
                    m.from == p(4) && m.to == voter && matches!(m.msg, Msg::Propose(_))
                }) {
                    ex.deliver(id);
                }
                for id in ex.pending_matching(|m| {
                    m.from == voter && m.to == p(4) && matches!(m.msg, Msg::TwoB(..))
                }) {
                    ex.deliver(id);
                }
            }
            assert_eq!(
                ex.decision_of(p(4)),
                Some(&1),
                "fast path must complete in setup"
            );
            // p0, p1 vote for p2's 0.
            for target in [p(0), p(1)] {
                for id in ex.pending_matching(|m| {
                    m.from == p(2) && m.to == target && matches!(m.msg, Msg::Propose(_))
                }) {
                    ex.deliver(id);
                }
            }
            ex.crash(p(2));
            ex.crash(p(4));
            ex
        });
    match outcome {
        CheckOutcome::Violation { report, script, .. } => {
            assert!(
                report.contains("agreement"),
                "unexpected violation: {report}"
            );
            assert!(!script.is_empty());
        }
        CheckOutcome::Clean {
            states, truncated, ..
        } => {
            panic!("model checker missed the ablation bug ({states} states, truncated={truncated})")
        }
    }
}
