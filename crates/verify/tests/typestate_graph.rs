//! The typestate transition graph, checked against the model checker.
//!
//! The core crate's phase types promise that only these transitions
//! exist (everything else does not typecheck):
//!
//! * voter side: `FastVoting → SlowBallot`, `FastVoting → Decided`,
//!   `SlowBallot → Decided`;
//! * leader side: `Idle → Collecting`, `Collecting → Proposing`,
//!   `Proposing → Collecting` (a fresh ballot abandons a stuck
//!   proposal).
//!
//! A transparent [`PhaseProbe`] wrapper records every
//! ([`PhaseKind`], [`LeaderPhase`]) change an event causes while the
//! PR 9 model checker exhaustively enumerates schedules on `n = 3`
//! configurations, from both constructors (task and object). The
//! observed edge set must stay inside the legal graph, the probe must
//! not perturb the exploration (identical decision-vector sets with
//! and without it), and `PhaseKind::Decided` must coincide exactly
//! with `decision().is_some()` in every visited state.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use twostep_core::{
    Formulation, LeaderPhase, Msg, Object, OmegaMode, PhaseKind, Task, TwoStep, TwoStepBuilder,
};
use twostep_sim::ManualExecutor;
use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::relabel::Relabeling;
use twostep_types::{ProcessId, SystemConfig};
use twostep_verify::{CheckOutcome, ModelChecker};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn legal_voter_edges() -> BTreeSet<(PhaseKind, PhaseKind)> {
    [
        (PhaseKind::FastVoting, PhaseKind::SlowBallot),
        (PhaseKind::FastVoting, PhaseKind::Decided),
        (PhaseKind::SlowBallot, PhaseKind::Decided),
    ]
    .into_iter()
    .collect()
}

fn legal_leader_edges() -> BTreeSet<(LeaderPhase, LeaderPhase)> {
    [
        (LeaderPhase::Idle, LeaderPhase::Collecting),
        (LeaderPhase::Collecting, LeaderPhase::Proposing),
        (LeaderPhase::Proposing, LeaderPhase::Collecting),
    ]
    .into_iter()
    .collect()
}

/// Accumulated phase-transition edges, shared across every process and
/// every cloned branch of the exploration.
#[derive(Debug, Clone, Default)]
struct EdgeLog {
    voter: Arc<Mutex<BTreeSet<(PhaseKind, PhaseKind)>>>,
    leader: Arc<Mutex<BTreeSet<(LeaderPhase, LeaderPhase)>>>,
}

impl EdgeLog {
    fn voter_edges(&self) -> BTreeSet<(PhaseKind, PhaseKind)> {
        self.voter.lock().expect("probe mutex poisoned").clone()
    }

    fn leader_edges(&self) -> BTreeSet<(LeaderPhase, LeaderPhase)> {
        self.leader.lock().expect("probe mutex poisoned").clone()
    }
}

/// A transparent protocol wrapper: forwards every event to the inner
/// machine and records the phase edges it traverses. Fingerprints and
/// no-op classification delegate unchanged, so the model checker
/// explores exactly the same state space as without the probe.
#[derive(Debug, Clone)]
struct PhaseProbe<F> {
    inner: TwoStep<u64, F>,
    log: EdgeLog,
}

impl<F: Formulation> PhaseProbe<F> {
    fn new(inner: TwoStep<u64, F>, log: EdgeLog) -> Self {
        PhaseProbe { inner, log }
    }

    fn phases(&self) -> (PhaseKind, LeaderPhase) {
        (self.inner.phase(), self.inner.leader_phase())
    }

    fn record<R>(&mut self, f: impl FnOnce(&mut TwoStep<u64, F>) -> R) -> R {
        let before = self.phases();
        let r = f(&mut self.inner);
        let after = self.phases();
        if before.0 != after.0 {
            self.log
                .voter
                .lock()
                .expect("probe mutex poisoned")
                .insert((before.0, after.0));
        }
        if before.1 != after.1 {
            self.log
                .leader
                .lock()
                .expect("probe mutex poisoned")
                .insert((before.1, after.1));
        }
        // The typestate invariant the `Decided` phase type encodes:
        // being in the decided phase and holding a decision are the
        // same thing, in every reachable state.
        assert_eq!(
            after.0 == PhaseKind::Decided,
            self.inner.decision().is_some(),
            "PhaseKind::Decided must coincide with decision().is_some()"
        );
        r
    }
}

impl<F: Formulation> Protocol<u64> for PhaseProbe<F> {
    type Message = Msg<u64>;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, effects: &mut Effects<u64, Self::Message>) {
        self.record(|m| m.on_start(effects));
    }

    fn on_propose(&mut self, value: u64, effects: &mut Effects<u64, Self::Message>) {
        self.record(|m| m.on_propose(value, effects));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Message,
        effects: &mut Effects<u64, Self::Message>,
    ) {
        self.record(|m| m.on_message(from, msg, effects));
    }

    fn on_timer(&mut self, timer: TimerId, effects: &mut Effects<u64, Self::Message>) {
        self.record(|m| m.on_timer(timer, effects));
    }

    fn decision(&self) -> Option<u64> {
        self.inner.decision()
    }

    fn state_fingerprint_relabeled(&self, rl: &Relabeling) -> Option<u64> {
        self.inner.state_fingerprint_relabeled(rl)
    }

    fn message_is_noop(&self, from: ProcessId, msg: &Self::Message) -> bool {
        self.inner.message_is_noop(from, msg)
    }
}

fn checker(timer_budget: usize) -> ModelChecker {
    // Only the pinned leader p0 may fire its new-ballot timer — the
    // same restriction the PR 9 gate uses to keep the budget-1 recovery
    // space exhaustively explorable.
    ModelChecker::new()
        .max_states(500_000)
        .timer_budget(timer_budget, vec![TimerId::NEW_BALLOT])
        .timer_processes([p(0)].into_iter().collect())
}

fn task_setup(log: EdgeLog) -> impl Fn(SystemConfig) -> ManualExecutor<u64, PhaseProbe<Task>> {
    move |cfg| {
        let log = log.clone();
        let mut ex = ManualExecutor::new(cfg, |q| {
            PhaseProbe::new(
                TwoStepBuilder::new(cfg)
                    .omega(OmegaMode::Static(p(0)))
                    .task(q, 10 * (u64::from(q.as_u32()) + 1)),
                log.clone(),
            )
        });
        ex.start_all();
        ex
    }
}

fn object_setup(log: EdgeLog) -> impl Fn(SystemConfig) -> ManualExecutor<u64, PhaseProbe<Object>> {
    move |cfg| {
        let log = log.clone();
        let mut ex = ManualExecutor::new(cfg, |q| {
            PhaseProbe::new(
                TwoStepBuilder::new(cfg)
                    .omega(OmegaMode::Static(p(0)))
                    .object::<u64>(q),
                log.clone(),
            )
        });
        ex.start_all();
        ex.propose(p(0), 5);
        ex.propose(p(2), 9);
        ex
    }
}

/// Task constructor, exhaustive exploration with one recovery ballot:
/// the reachable edge set is exactly the legal graph minus
/// `Proposing → Collecting` (which needs a *second* new-ballot firing
/// at one process; covered by the directed test below).
#[test]
fn task_graph_matches_model_checker_enumeration() {
    let cfg = SystemConfig::minimal_task(1, 1).unwrap();
    let log = EdgeLog::default();
    let (outcome, probed_vectors) =
        checker(1).run_collecting(cfg, &[10, 20, 30], task_setup(log.clone()));
    match outcome {
        CheckOutcome::Clean { truncated, .. } => assert!(!truncated, "exploration must finish"),
        CheckOutcome::Violation { report, .. } => panic!("unexpected violation: {report}"),
    }

    let mut expected_leader = legal_leader_edges();
    expected_leader.remove(&(LeaderPhase::Proposing, LeaderPhase::Collecting));
    assert_eq!(
        log.voter_edges(),
        legal_voter_edges(),
        "voter transition graph"
    );
    assert_eq!(
        log.leader_edges(),
        expected_leader,
        "leader transition graph"
    );

    // The probe is transparent: the same exploration without it reaches
    // exactly the same decision vectors.
    let (plain_outcome, plain_vectors) = checker(1).run_collecting(cfg, &[10, 20, 30], |cfg| {
        let mut ex = ManualExecutor::new(cfg, |q| {
            TwoStepBuilder::new(cfg)
                .omega(OmegaMode::Static(p(0)))
                .task(q, 10 * (u64::from(q.as_u32()) + 1))
        });
        ex.start_all();
        ex
    });
    assert!(matches!(plain_outcome, CheckOutcome::Clean { .. }));
    assert_eq!(probed_vectors, plain_vectors, "probe perturbed the run");
}

/// Object constructor, same enumeration: identical reachable graph.
#[test]
fn object_graph_matches_model_checker_enumeration() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let log = EdgeLog::default();
    let (outcome, _) = checker(1).run_collecting(cfg, &[5, 9], object_setup(log.clone()));
    match outcome {
        CheckOutcome::Clean { truncated, .. } => assert!(!truncated, "exploration must finish"),
        CheckOutcome::Violation { report, .. } => panic!("unexpected violation: {report}"),
    }
    let mut expected_leader = legal_leader_edges();
    expected_leader.remove(&(LeaderPhase::Proposing, LeaderPhase::Collecting));
    assert_eq!(log.voter_edges(), legal_voter_edges(), "voter graph");
    assert_eq!(log.leader_edges(), expected_leader, "leader graph");
}

/// The one edge the bounded enumeration cannot reach with a single
/// timer firing per process: a proposing leader that fires a fresh
/// new-ballot timer drops back to collecting.
#[test]
fn proposing_leader_returns_to_collecting_on_new_ballot() {
    let cfg = SystemConfig::minimal_task(1, 1).unwrap();
    let log = EdgeLog::default();
    let mut ex = task_setup(log.clone())(cfg);
    // p0 owns ballot 0: fire its new-ballot timer and deliver the 1As
    // and 1Bs to freeze a quorum, putting the leader in Proposing.
    ex.fire_timer(p(0), TimerId::NEW_BALLOT);
    for q in [0, 1, 2, 0].map(p) {
        ex.deliver_where(|m| m.to == q);
    }
    assert_eq!(
        ex.process(p(0)).inner.leader_phase(),
        LeaderPhase::Proposing,
        "setup must reach Proposing"
    );
    ex.fire_timer(p(0), TimerId::NEW_BALLOT);
    assert_eq!(
        ex.process(p(0)).inner.leader_phase(),
        LeaderPhase::Collecting
    );
    assert!(log
        .leader_edges()
        .contains(&(LeaderPhase::Proposing, LeaderPhase::Collecting)));
    // With this directed completion, the union of observed edges is the
    // full legal graph — no more, no less.
    assert!(log.leader_edges().is_subset(&legal_leader_edges()));
    assert!(log.voter_edges().is_subset(&legal_voter_edges()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random `n = 3` runs at the Theorem 5/6 bounds (both variants,
    /// varying proposal values and crash budget): every phase edge the
    /// exhaustive exploration traverses stays inside the legal graph,
    /// and the probe never observes a decided phase without a decision
    /// (asserted inside the probe on every event).
    #[test]
    fn reachable_edges_stay_inside_legal_graph(
        v0 in prop_oneof![Just(10u64), Just(20u64)],
        v1 in prop_oneof![Just(10u64), Just(20u64)],
        v2 in prop_oneof![Just(10u64), Just(20u64)],
        object in any::<bool>(),
        crashes in 0usize..=1,
    ) {
        let log = EdgeLog::default();
        let edges = log.clone();
        let outcome = if object {
            let cfg = SystemConfig::minimal_object(1, 1).unwrap();
            ModelChecker::new()
                .max_states(500_000)
                .max_crashes(crashes)
                .run(cfg, &[v0, v2], move |cfg| {
                    let log = log.clone();
                    let mut ex = ManualExecutor::new(cfg, |q| {
                        PhaseProbe::new(
                            TwoStepBuilder::new(cfg)
                                .omega(OmegaMode::Static(p(0)))
                                .object::<u64>(q),
                            log.clone(),
                        )
                    });
                    ex.start_all();
                    ex.propose(p(0), v0);
                    ex.propose(p(2), v2);
                    ex
                })
        } else {
            let cfg = SystemConfig::minimal_task(1, 1).unwrap();
            let values = [v0, v1, v2];
            ModelChecker::new()
                .max_states(500_000)
                .max_crashes(crashes)
                .run(cfg, &values, move |cfg| {
                    let log = log.clone();
                    let mut ex = ManualExecutor::new(cfg, |q| {
                        PhaseProbe::new(
                            TwoStepBuilder::new(cfg)
                                .omega(OmegaMode::Static(p(0)))
                                .task(q, values[q.index()]),
                            log.clone(),
                        )
                    });
                    ex.start_all();
                    ex
                })
        };
        prop_assert!(
            matches!(outcome, CheckOutcome::Clean { .. }),
            "unexpected violation: {outcome:?}"
        );
        prop_assert!(edges.voter_edges().is_subset(&legal_voter_edges()));
        prop_assert!(edges.leader_edges().is_subset(&legal_leader_edges()));
    }
}
