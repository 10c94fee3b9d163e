//! The [`Protocol`] implementation over the typestate phases (Figure 1).
//!
//! The protocol itself lives in [`crate::phase`] as one type per phase
//! — [`FastVoting`](crate::phase::FastVoting) and
//! [`SlowBallot`](crate::phase::SlowBallot) on the voter side, with a
//! [`Decided`](crate::phase::Decided) certificate held beside them;
//! [`Collecting`](crate::phase::Collecting) /
//! [`Proposing`](crate::phase::Proposing) on the leader side — with
//! transitions that consume the source phase and force their sends.
//! [`TwoStep`] keeps the engines (sim, fuzz, SMR, model checker) working
//! at the [`Protocol`] seam: it owns the phase-independent [`Common`]
//! state, routes each handler call to the current phase, and stores
//! whichever phase the transition returned.

use std::fmt::Debug;
use std::marker::PhantomData;

use twostep_telemetry::{ObserverHandle, Path, RecoveryCase};
use twostep_types::protocol::{Effects, Protocol, TimerId, BALLOT_RETRY, INITIAL_BALLOT_DELAY};
use twostep_types::{Ballot, Omega, OmegaMode, ProcessId, ProcessSet, SystemConfig, Value};

use crate::msg::Msg;
use crate::phase::{Collecting, Leader, LeaderPhase, Phase, PhaseKind, Voter};
use crate::recovery::Report;
use crate::Ablations;

pub(crate) mod sealed {
    /// Keeps [`Formulation`](super::Formulation) closed: the paper has
    /// two formulations, and [`crate::Task`] / [`crate::Object`] are them.
    pub trait Sealed {}
}

/// Which consensus formulation a [`TwoStep`] instance implements: the
/// type parameter that separates Theorem 5's machine from Theorem 6's.
/// Sealed; its two (uninhabited) implementors are [`crate::Task`] and
/// [`crate::Object`].
pub trait Formulation: sealed::Sealed + Debug + Clone + Send + Sync + 'static {
    /// Whether values arrive through `propose(v)` invocations under the
    /// paper's red-line preconditions (the object), rather than being
    /// fixed at construction (the task).
    const OBJECT: bool;
}

/// How a process reached its decision (for experiment metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionPath {
    /// Collected a fast quorum of `2B(0, v)` votes for its own proposal.
    Fast,
    /// Decided as the leader of a slow ballot.
    Slow,
    /// Learned the decision from a `Decide` message.
    Learned,
}

/// The phase-independent per-process state, shared by every phase type:
/// configuration, Ω, the own proposal, the fast-vote tally, and the
/// telemetry hooks. Transitions borrow it alongside the phase they
/// consume.
#[derive(Debug, Clone)]
pub(crate) struct Common<V> {
    pub(crate) cfg: SystemConfig,
    pub(crate) me: ProcessId,
    pub(crate) ablations: Ablations,
    pub(crate) omega: Omega,
    /// Own proposal (`initial_val`), `⊥` until proposed.
    pub(crate) initial_val: Option<V>,
    /// A proposal observed in a `Propose` message this process could not
    /// vote for; feeds only the recovery rule's final fallback branch.
    pub(crate) observed: Option<V>,
    /// Fast-path `2B(0, ·)` votes collected for our own proposal.
    pub(crate) fast_votes: ProcessSet,
    /// Value pending proposal at startup (task variant).
    pub(crate) startup_value: Option<V>,
    /// Which recovery-rule case selected the value for the ballot this
    /// process currently leads, if any (telemetry bookkeeping).
    pub(crate) recovery_case: Option<RecoveryCase>,
    /// Telemetry hooks; detached by default.
    pub(crate) obs: ObserverHandle,
}

impl<V: Value> Common<V> {
    /// Refines [`DecisionPath::Slow`] by the recovery case that chose
    /// the ballot's value.
    pub(crate) fn refined_path(&self, path: DecisionPath) -> Path {
        match path {
            DecisionPath::Fast => Path::Fast,
            DecisionPath::Learned => Path::Learned,
            DecisionPath::Slow => self
                .recovery_case
                .map(RecoveryCase::as_path)
                .unwrap_or(Path::Slow),
        }
    }
}

/// The two-step consensus state machine of Figure 1, in formulation `F`:
/// [`crate::TaskConsensus`] is `TwoStep<V, Task>`, and
/// [`crate::ObjectConsensus`] is `TwoStep<V, Object>`.
///
/// Instances are built through [`crate::TwoStepBuilder`] (or the two
/// aliases' `new`), which is what fixes the formulation; the object's
/// red line is checked on every `Propose` exactly when `F::OBJECT`.
#[derive(Debug, Clone)]
pub struct TwoStep<V, F> {
    common: Common<V>,
    phase: Phase<V>,
    leader: Leader<V>,
    formulation: PhantomData<F>,
}

impl<V: Value, F: Formulation> TwoStep<V, F> {
    /// Crate-internal constructor behind [`crate::TwoStepBuilder`].
    ///
    /// Panics if `me` is out of range for `cfg`. A task without an
    /// initial value is unrepresentable: the builder's `task` terminal
    /// takes the value by parameter.
    pub(crate) fn new_machine(
        cfg: SystemConfig,
        me: ProcessId,
        startup_value: Option<V>,
        omega_mode: OmegaMode,
        ablations: Ablations,
        obs: ObserverHandle,
    ) -> Self {
        assert!(me.index() < cfg.n(), "process {me} out of range for {cfg}");
        TwoStep {
            common: Common {
                cfg,
                me,
                ablations,
                omega: Omega::new(me, cfg.n(), omega_mode),
                initial_val: None,
                observed: None,
                fast_votes: ProcessSet::new(),
                startup_value,
                recovery_case: None,
                obs,
            },
            phase: Phase::new(),
            leader: Leader::Idle,
            formulation: PhantomData,
        }
    }

    /// Attaches telemetry hooks (builder style).
    pub fn observed(mut self, obs: ObserverHandle) -> Self {
        self.common.obs = obs;
        self
    }

    /// The system configuration.
    pub fn config(&self) -> SystemConfig {
        self.common.cfg
    }

    /// Which voter-side phase this process is in.
    pub fn phase(&self) -> PhaseKind {
        self.phase.kind()
    }

    /// Which leader-side phase this process is in.
    pub fn leader_phase(&self) -> LeaderPhase {
        self.leader.kind()
    }

    /// Current ballot.
    pub fn ballot(&self) -> Ballot {
        self.phase.voter.bal()
    }

    /// Last ballot voted in.
    pub fn voted_ballot(&self) -> Ballot {
        self.phase.voter.vbal()
    }

    /// Current vote.
    pub fn vote(&self) -> Option<&V> {
        self.phase.voter.val()
    }

    /// Own proposal, if any.
    pub fn initial_value(&self) -> Option<&V> {
        self.common.initial_val.as_ref()
    }

    /// The decision, if reached.
    pub fn decided_value(&self) -> Option<&V> {
        self.phase.decided()
    }

    /// How the decision was reached, if decided.
    pub fn decision_path(&self) -> Option<DecisionPath> {
        self.phase.decision_path()
    }

    /// Which recovery-rule case selected the value of the slow ballot
    /// this process most recently led, if any.
    pub fn recovery_case(&self) -> Option<RecoveryCase> {
        self.common.recovery_case
    }

    /// The telemetry decision path of this process, refining
    /// [`DecisionPath::Slow`] by the recovery case that chose the
    /// ballot's value ([`Path::RecoveryGt`] / [`Path::RecoveryEq`]).
    pub fn telemetry_path(&self) -> Option<Path> {
        self.decision_path().map(|p| self.common.refined_path(p))
    }

    /// The Ω leader-election state.
    pub fn omega(&self) -> &Omega {
        &self.common.omega
    }

    /// Updates the leader hint of a statically-configured Ω (see
    /// [`Omega::set_static_leader`]); no-op in heartbeat mode.
    pub fn set_leader_hint(&mut self, leader: ProcessId) {
        self.common.omega.set_static_leader(leader);
    }

    // ---- internal helpers ----

    /// Lines 2–5: `if val = ⊥ then initial_val ← v; send Propose(v)`.
    fn do_propose(&mut self, v: V, eff: &mut Effects<V, Msg<V>>) {
        if self.phase.voter.val().is_none() && self.common.initial_val.is_none() {
            self.common.initial_val = Some(v.clone());
            eff.broadcast_others(Msg::Propose(v), self.common.cfg.n(), self.common.me);
        }
    }
}

impl<V: Value, F: Formulation> Protocol<V> for TwoStep<V, F> {
    type Message = Msg<V>;

    fn id(&self) -> ProcessId {
        self.common.me
    }

    fn on_start(&mut self, eff: &mut Effects<V, Msg<V>>) {
        eff.set_timer(TimerId::NEW_BALLOT, INITIAL_BALLOT_DELAY);
        self.common.omega.start(Msg::Heartbeat, eff);
        if let Some(v) = self.common.startup_value.take() {
            self.do_propose(v, eff);
        }
    }

    fn on_propose(&mut self, value: V, eff: &mut Effects<V, Msg<V>>) {
        // The task's proposal is fixed at construction.
        if F::OBJECT {
            self.do_propose(value, eff);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, eff: &mut Effects<V, Msg<V>>) {
        self.common.omega.observe(from);
        match msg {
            Msg::Heartbeat => {}

            // Lines 9–13: only a ballot-0 position can vote (a decided
            // one never does: deciding set its `val`); the observed
            // fallback is phase-independent.
            Msg::Propose(v) => {
                if self.common.observed.is_none() {
                    self.common.observed = Some(v.clone());
                }
                if let Voter::Fast(f) = &mut self.phase.voter {
                    f.consider(F::OBJECT, &self.common, from, &v, eff);
                }
            }

            // Line 16: the two disjuncts of the 2B handler.
            Msg::TwoB(b, v) => {
                if b == Ballot::FAST {
                    // Votes for our own fast-path proposal. The tally
                    // accrues in every phase; only an undecided fast
                    // voter can still turn it into a decision.
                    if self.common.initial_val.as_ref() == Some(&v) {
                        self.common.fast_votes.insert(from);
                        self.phase.try_fast_decide(&mut self.common, eff);
                    }
                } else if self.phase.decided().is_none()
                    && self.phase.voter.bal() == b
                    && self.leader.ballot() == Some(b)
                    && self.leader.slow_value() == Some(&v)
                {
                    let quorum_in = if let Leader::Proposing(p) = &mut self.leader {
                        p.record_vote(from, self.common.cfg.slow_quorum())
                    } else {
                        false
                    };
                    if quorum_in {
                        self.phase
                            .decide(v.clone(), DecisionPath::Slow, &mut self.common, eff);
                        eff.broadcast_others(Msg::Decide(v), self.common.cfg.n(), self.common.me);
                    }
                }
            }

            // Lines 22–25.
            Msg::Decide(v) => {
                self.phase
                    .decide(v, DecisionPath::Learned, &mut self.common, eff);
            }

            // Lines 27–31: a decided process's report carries its
            // certificate.
            Msg::OneA(b) => {
                let decided = self.phase.decided().cloned();
                self.phase
                    .voter
                    .on_one_a(&mut self.common, from, b, decided, eff);
            }

            // Lines 42–63 (collection side).
            Msg::OneB {
                bal,
                vbal,
                val,
                proposer,
                decided,
            } => {
                if self.leader.ballot() == Some(bal) {
                    self.leader = match Leader::take(&mut self.leader) {
                        Leader::Collecting(c) => c.on_report(
                            &mut self.common,
                            from,
                            Report {
                                vbal,
                                val,
                                proposer,
                                decided,
                            },
                            eff,
                        ),
                        // Phase one already complete: the quorum froze.
                        Leader::Proposing(p) => Leader::Proposing(p),
                        Leader::Idle => Leader::Idle,
                    };
                }
            }

            // Lines 65–69: a decided process still votes (the ballot may
            // outrun the certificate's propagation).
            Msg::TwoA(b, v) => {
                self.phase.voter.on_two_a(&mut self.common, from, b, v, eff);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, eff: &mut Effects<V, Msg<V>>) {
        match timer {
            TimerId::HEARTBEAT | TimerId::SUSPECT => {
                if let Some(leader) = self.common.omega.on_timer(timer, Msg::Heartbeat, eff) {
                    self.common.obs.leader_changed(self.common.me, leader);
                }
            }
            TimerId::NEW_BALLOT => {
                eff.set_timer(TimerId::NEW_BALLOT, BALLOT_RETRY);
                if let Some(v) = self.phase.decided().cloned() {
                    // Decision gossip (liveness extension).
                    eff.broadcast_others(Msg::Decide(v), self.common.cfg.n(), self.common.me);
                    return;
                }
                if let Some(iv) = self.common.initial_val.clone() {
                    // Proposal retransmission (liveness extension).
                    eff.broadcast_others(Msg::Propose(iv), self.common.cfg.n(), self.common.me);
                }
                if self.common.omega.is_leader() {
                    // §C.1: Collecting::open is the only way to start a
                    // ballot, and it broadcasts the 1A as it constructs.
                    self.leader = Leader::Collecting(Collecting::open(
                        self.phase.voter.bal(),
                        &mut self.common,
                        eff,
                    ));
                }
            }
            _ => {}
        }
    }

    fn decision(&self) -> Option<V> {
        self.phase.decided().cloned()
    }

    fn state_fingerprint_relabeled(&self, rl: &twostep_types::relabel::Relabeling) -> Option<u64> {
        // Structured hashing of the protocol-relevant state: orders of
        // magnitude cheaper than the Debug-string default, which matters
        // because the model checker fingerprints millions of states.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Decline permutations the behavior distinguishes: heartbeat-mode
        // Ω's evidence is hashed whole, unrelabeled, so only the identity
        // is safe; a pinned static leader must be a fixed point of `π`.
        let symmetric = match self.common.omega.mode() {
            OmegaMode::Heartbeats => rl.is_identity(),
            OmegaMode::Static(leader) => rl.fixes(leader),
        };
        if !symmetric {
            return None;
        }
        let mut h = DefaultHasher::new();
        rl.pid(self.common.me).hash(&mut h);
        rl.ballot(self.phase.voter.bal())?.hash(&mut h);
        rl.ballot(self.phase.voter.vbal())?.hash(&mut h);
        self.phase.voter.val().hash(&mut h);
        self.phase.voter.proposer().map(|p| rl.pid(p)).hash(&mut h);
        self.common.initial_val.hash(&mut h);
        self.phase.decided().hash(&mut h);
        rl.pset(self.common.fast_votes).hash(&mut h);
        match self.leader.ballot() {
            None => None::<Ballot>.hash(&mut h),
            Some(b) => Some(rl.ballot(b)?).hash(&mut h),
        }
        matches!(self.leader, Leader::Proposing(_)).hash(&mut h);
        self.leader.slow_value().hash(&mut h);
        rl.pset(self.leader.slow_votes()).hash(&mut h);
        self.common.observed.hash(&mut h);
        self.common.startup_value.hash(&mut h);
        match self.common.omega.mode() {
            // What the next sweep reads (`heard`) decides the next leader.
            OmegaMode::Heartbeats => self.common.omega.hash(&mut h),
            OmegaMode::Static(_) => {
                rl.pid(self.common.omega.leader()).hash(&mut h);
                rl.pset(self.common.omega.suspected()).hash(&mut h);
            }
        }
        // The 1B quorum, re-sorted by relabeled reporter so the hash is
        // independent of collection order under `π`.
        if let Some(onebs) = self.leader.reports() {
            let mut entries: Vec<(ProcessId, u64)> = Vec::with_capacity(onebs.len());
            for (q, r) in onebs.iter() {
                let mut eh = DefaultHasher::new();
                rl.ballot(r.vbal)?.hash(&mut eh);
                r.val.hash(&mut eh);
                r.proposer.map(|p| rl.pid(p)).hash(&mut eh);
                r.decided.hash(&mut eh);
                entries.push((rl.pid(q), eh.finish()));
            }
            entries.sort_unstable();
            entries.hash(&mut h);
        } else {
            // Hash the empty quorum the same way an empty collector did.
            let entries: Vec<(ProcessId, u64)> = Vec::new();
            entries.hash(&mut h);
        }
        Some(h.finish())
    }

    /// Permanent no-op classification for the model checker's inert-mail
    /// scrub. Every `true` below rests on a monotonicity argument:
    /// `bal` never decreases, `val`/`initial_val`/`decided`/`observed`
    /// are never cleared once set, and future led ballots come from
    /// [`Ballot::next_owned_by`], which is strictly greater than the
    /// then-current `bal`.
    fn message_is_noop(&self, _from: ProcessId, msg: &Msg<V>) -> bool {
        // In heartbeat mode every delivery feeds `omega.observe`, whose
        // `heard` set steers future sweeps: nothing is ever inert.
        if self.common.omega.uses_heartbeats() {
            return false;
        }
        let bal = self.phase.voter.bal();
        match msg {
            Msg::Heartbeat => true,
            Msg::Propose(v) => {
                // Effect requires `observed = ⊥` (set once) or the vote
                // precondition; the vote precondition is permanently dead
                // once the ballot left FAST, a vote was cast, or our own
                // (immutable once set) proposal rejects `v`.
                self.common.observed.is_some()
                    && (bal != Ballot::FAST
                        || self.phase.voter.val().is_some()
                        || self.common.initial_val.as_ref().is_some_and(|iv| {
                            *v < *iv
                                || (F::OBJECT
                                    && !self.common.ablations.no_object_guard
                                    && *v != *iv)
                        }))
            }
            Msg::TwoB(b, v) if *b == Ballot::FAST => {
                // A fast vote only counts toward our own proposal.
                self.common.initial_val.as_ref().is_some_and(|iv| iv != v)
            }
            Msg::TwoB(b, _) => {
                self.phase.decided().is_some()
                    || *b < bal
                    || (*b == bal && self.leader.ballot() != Some(*b))
            }
            // Redelivering a known decision still rewrites `val` (which a
            // later `2A` may have overwritten), and a *conflicting*
            // decision is the violation witness itself: never inert.
            Msg::Decide(_) => false,
            Msg::OneA(b) => *b <= bal,
            Msg::OneB { bal: b, .. } => *b <= bal && self.leader.ballot() != Some(*b),
            Msg::TwoA(b, _) => *b < bal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectConsensus, TaskConsensus, TwoStepBuilder};
    use twostep_sim::ManualExecutor;

    fn cfg() -> SystemConfig {
        // Task-minimal for e = f = 1: n = max{3, 3} = 3.
        SystemConfig::minimal_task(1, 1).unwrap()
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Task setup without heartbeat noise and a pinned leader.
    fn task_exec(leader: u32) -> ManualExecutor<u64, TaskConsensus<u64>> {
        let cfg = cfg();
        ManualExecutor::new(cfg, move |pid| {
            TwoStepBuilder::new(cfg)
                .omega(OmegaMode::Static(p(leader)))
                .task(pid, 10 * (u64::from(pid.as_u32()) + 1))
        })
    }

    /// Object setup without heartbeat noise and a pinned leader.
    fn object_exec(ablations: Ablations) -> ManualExecutor<u64, ObjectConsensus<u64>> {
        let cfg = cfg();
        ManualExecutor::new(cfg, move |pid| {
            TwoStepBuilder::new(cfg)
                .omega(OmegaMode::Static(p(0)))
                .ablations(ablations)
                .object(pid)
        })
    }

    #[test]
    fn startup_broadcasts_proposal() {
        let mut ex = task_exec(0);
        ex.start(p(0));
        let proposes = ex.pending_matching(|m| matches!(m.msg, Msg::Propose(_)));
        assert_eq!(proposes.len(), 2, "Propose goes to Π \\ {{p0}}");
        assert_eq!(ex.process(p(0)).initial_value(), Some(&10));
        assert_eq!(ex.process(p(0)).phase(), PhaseKind::FastVoting);
        assert_eq!(ex.process(p(0)).leader_phase(), LeaderPhase::Idle);
    }

    #[test]
    fn first_proposal_wins_the_vote() {
        let mut ex = task_exec(0);
        ex.start_all();
        // Deliver p2's Propose(30) to p1 first: p1 votes for it.
        let ids = ex.pending_matching(|m| m.from == p(2) && m.to == p(1));
        ex.deliver(ids[0]);
        assert_eq!(ex.process(p(1)).vote(), Some(&30));
        // p0's Propose(10) now fails the `val = ⊥` precondition.
        let ids = ex.pending_matching(|m| m.from == p(0) && m.to == p(1));
        ex.deliver(ids[0]);
        assert_eq!(ex.process(p(1)).vote(), Some(&30));
        // Exactly one fast 2B left p1, addressed to p2.
        let twobs =
            ex.pending_matching(|m| m.from == p(1) && matches!(m.msg, Msg::TwoB(Ballot::FAST, _)));
        assert_eq!(twobs.len(), 1);
    }

    #[test]
    fn lower_proposal_rejected_by_higher_initial() {
        let mut ex = task_exec(0);
        ex.start_all();
        // p0's Propose(10) reaches p2 (initial 30): 10 < 30 fails the
        // `v ≥ initial_val` precondition.
        let ids = ex.pending_matching(|m| m.from == p(0) && m.to == p(2));
        ex.deliver(ids[0]);
        assert_eq!(ex.process(p(2)).vote(), None);
        assert!(ex
            .pending_matching(|m| m.from == p(2) && matches!(m.msg, Msg::TwoB(..)))
            .is_empty());
    }

    #[test]
    fn fast_path_decides_with_fast_quorum() {
        // n = 3, e = 1: fast quorum = 2 = proposer + 1 vote.
        let mut ex = task_exec(0);
        ex.start_all();
        // p2's proposal (30, the max) reaches p0 and p1; they vote.
        for target in [p(0), p(1)] {
            let ids = ex.pending_matching(|m| m.from == p(2) && m.to == target);
            ex.deliver(ids[0]);
        }
        // Deliver one 2B back to p2: together with itself that is n-e=2.
        let ids = ex.pending_matching(|m| m.to == p(2) && matches!(m.msg, Msg::TwoB(..)));
        ex.deliver(ids[0]);
        assert_eq!(ex.decision_of(p(2)), Some(&30));
        assert_eq!(ex.process(p(2)).decision_path(), Some(DecisionPath::Fast));
        assert_eq!(ex.process(p(2)).phase(), PhaseKind::Decided);
        // Decide broadcast went out.
        let decides = ex.pending_matching(|m| matches!(m.msg, Msg::Decide(_)));
        assert_eq!(decides.len(), 2);
    }

    #[test]
    fn decide_message_propagates_decision() {
        let mut ex = task_exec(0);
        ex.start_all();
        for target in [p(0), p(1)] {
            let ids = ex.pending_matching(|m| m.from == p(2) && m.to == target);
            ex.deliver(ids[0]);
        }
        let ids = ex.pending_matching(|m| m.to == p(2) && matches!(m.msg, Msg::TwoB(..)));
        ex.deliver(ids[0]);
        let ids = ex.pending_matching(|m| matches!(m.msg, Msg::Decide(_)) && m.to == p(0));
        ex.deliver(ids[0]);
        assert_eq!(ex.decision_of(p(0)), Some(&30));
        assert_eq!(
            ex.process(p(0)).decision_path(),
            Some(DecisionPath::Learned)
        );
        assert!(ex.agreement());
    }

    #[test]
    fn own_vote_for_other_value_blocks_fast_decision() {
        let mut ex = task_exec(0);
        ex.start_all();
        // p2 votes for... no wait: p2 has the max value; use p1 (20).
        // p1 first votes for p2's 30.
        let ids = ex.pending_matching(|m| m.from == p(2) && m.to == p(1));
        ex.deliver(ids[0]);
        // Now p0 votes for p1's 20? No — p0 has initial 10, 20 ≥ 10: ok.
        let ids = ex.pending_matching(|m| m.from == p(1) && m.to == p(0));
        ex.deliver(ids[0]);
        // p0's 2B(0, 20) arrives at p1. p1's val = 30 ≠ 20: the
        // `val ∈ {⊥, v}` precondition must block p1's fast decision.
        let ids = ex
            .pending_matching(|m| m.from == p(0) && m.to == p(1) && matches!(m.msg, Msg::TwoB(..)));
        ex.deliver(ids[0]);
        assert_eq!(ex.decision_of(p(1)), None);
    }

    #[test]
    fn one_a_advances_ballot_and_replies_state() {
        let mut ex = task_exec(1);
        ex.start_all();
        // p1 (leader) times out and starts ballot 1 (1 ≡ 1 mod 3).
        ex.fire_timer(p(1), TimerId::NEW_BALLOT);
        assert_eq!(ex.process(p(1)).leader_phase(), LeaderPhase::Collecting);
        let oneas = ex.pending_matching(|m| matches!(m.msg, Msg::OneA(_)));
        assert_eq!(oneas.len(), 3, "1A goes to all of Π including self");
        // Deliver 1A to p0.
        let ids = ex.pending_matching(|m| m.to == p(0) && matches!(m.msg, Msg::OneA(_)));
        ex.deliver(ids[0]);
        assert_eq!(ex.process(p(0)).ballot(), Ballot::new(1));
        assert_eq!(ex.process(p(0)).phase(), PhaseKind::SlowBallot);
        let onebs = ex.pending_matching(|m| m.from == p(0) && matches!(m.msg, Msg::OneB { .. }));
        assert_eq!(onebs.len(), 1);
    }

    #[test]
    fn stale_one_a_ignored() {
        let mut ex = task_exec(1);
        ex.start_all();
        ex.fire_timer(p(1), TimerId::NEW_BALLOT);
        let ids = ex.pending_matching(|m| m.to == p(0) && matches!(m.msg, Msg::OneA(_)));
        ex.deliver(ids[0]);
        // A later 1A with the same ballot (replayed) is rejected.
        // Simulate by making p1 lead again without progress: next ballot
        // is 4 (> 1, ≡ 1 mod 3); deliver it, then replay nothing lower.
        assert_eq!(ex.process(p(0)).ballot(), Ballot::new(1));
    }

    #[test]
    fn slow_path_decides_after_fast_path_stalls() {
        // Crash the two non-leader processes' proposals from reaching
        // anyone: simply drop everything from round 1, then run a slow
        // ballot at the leader.
        let mut ex = task_exec(1);
        ex.start_all();
        // Drop all fast-path traffic.
        for id in ex.pending_matching(|_| true) {
            ex.drop_message(id);
        }
        // Leader p1 starts ballot 1.
        ex.fire_timer(p(1), TimerId::NEW_BALLOT);
        // Deliver 1A to everyone (incl. self), then 1Bs back.
        for target in [p(0), p(1), p(2)] {
            let ids = ex.pending_matching(move |m| m.to == target && matches!(m.msg, Msg::OneA(_)));
            ex.deliver(ids[0]);
        }
        let onebs = ex.pending_matching(|m| matches!(m.msg, Msg::OneB { .. }));
        assert_eq!(onebs.len(), 3);
        // Slow quorum is n-f = 2: deliver two 1Bs.
        for id in onebs.into_iter().take(2) {
            ex.deliver(id);
        }
        // Phase one froze the quorum: the leader is now proposing.
        assert_eq!(ex.process(p(1)).leader_phase(), LeaderPhase::Proposing);
        // Leader selected its own initial value (20) and sent 2A to all.
        let twoas = ex.pending_matching(|m| matches!(m.msg, Msg::TwoA(..)));
        assert_eq!(twoas.len(), 3);
        for id in twoas {
            ex.deliver(id);
        }
        // 2Bs flow back to the leader; n-f = 2 suffice.
        let twobs = ex.pending_matching(|m| m.to == p(1) && matches!(m.msg, Msg::TwoB(..)));
        assert!(twobs.len() >= 2);
        for id in twobs.into_iter().take(2) {
            ex.deliver(id);
        }
        assert_eq!(ex.decision_of(p(1)), Some(&20));
        assert_eq!(ex.process(p(1)).decision_path(), Some(DecisionPath::Slow));
        assert!(ex.agreement());
    }

    #[test]
    fn recovery_preserves_fast_decision() {
        // p2 fast-decides 30, then a slow ballot led by p1 must select 30
        // (Lemma 7 at the protocol level).
        let mut ex = task_exec(1);
        ex.start_all();
        for target in [p(0), p(1)] {
            let ids = ex.pending_matching(|m| m.from == p(2) && m.to == target);
            ex.deliver(ids[0]);
        }
        let ids = ex.pending_matching(|m| m.to == p(2) && matches!(m.msg, Msg::TwoB(..)));
        ex.deliver(ids[0]);
        assert_eq!(ex.decision_of(p(2)), Some(&30));
        // Drop the Decide broadcasts: the others must recover via a slow
        // ballot instead.
        for id in ex.pending_matching(|m| matches!(m.msg, Msg::Decide(_))) {
            ex.drop_message(id);
        }
        // p2 crashes. n-f = 2 correct remain: p0, p1.
        ex.crash(p(2));
        ex.fire_timer(p(1), TimerId::NEW_BALLOT);
        for target in [p(0), p(1)] {
            let ids = ex.pending_matching(move |m| m.to == target && matches!(m.msg, Msg::OneA(_)));
            ex.deliver(ids[0]);
        }
        for id in ex.pending_matching(|m| matches!(m.msg, Msg::OneB { .. })) {
            ex.deliver(id);
        }
        for id in ex.pending_matching(|m| matches!(m.msg, Msg::TwoA(..))) {
            ex.deliver(id);
        }
        for id in ex.pending_matching(|m| m.to == p(1) && matches!(m.msg, Msg::TwoB(..))) {
            ex.deliver(id);
        }
        assert_eq!(
            ex.decision_of(p(1)),
            Some(&30),
            "recovery must stick with the fast value"
        );
        assert!(ex.agreement());
    }

    #[test]
    fn object_variant_red_line_blocks_conflicting_propose() {
        let mut ex = object_exec(Ablations::NONE);
        ex.start_all();
        assert!(
            ex.pending().is_empty(),
            "object variant proposes nothing at startup"
        );
        ex.propose(p(0), 10);
        ex.propose(p(1), 99);
        // p1 has proposed 99; p0's Propose(10) violates the red-line
        // precondition (initial_val ≠ ⊥ ⟹ v = initial_val) even though
        // 10 < 99 would anyway fail v ≥ initial_val; test the other
        // direction: p1's Propose(99) at p0 passes v ≥ 10 but p0 has
        // proposed 10 ≠ 99 → blocked.
        let ids = ex.pending_matching(|m| {
            m.from == p(1) && m.to == p(0) && matches!(m.msg, Msg::Propose(_))
        });
        ex.deliver(ids[0]);
        assert_eq!(
            ex.process(p(0)).vote(),
            None,
            "red line must block the vote"
        );

        // Same value is fine: p2 proposes 99 as well... p2 hasn't
        // proposed; it simply votes.
        let ids = ex.pending_matching(|m| {
            m.from == p(1) && m.to == p(2) && matches!(m.msg, Msg::Propose(_))
        });
        ex.deliver(ids[0]);
        assert_eq!(ex.process(p(2)).vote(), Some(&99));
    }

    #[test]
    fn object_guard_ablation_allows_conflicting_vote() {
        let mut ex = object_exec(Ablations {
            no_object_guard: true,
            ..Ablations::NONE
        });
        ex.start_all();
        ex.propose(p(0), 10);
        ex.propose(p(1), 99);
        let ids = ex.pending_matching(|m| {
            m.from == p(1) && m.to == p(0) && matches!(m.msg, Msg::Propose(_))
        });
        ex.deliver(ids[0]);
        assert_eq!(
            ex.process(p(0)).vote(),
            Some(&99),
            "ablation drops the red line"
        );
    }

    #[test]
    fn task_variant_ignores_client_proposals() {
        let mut ex = task_exec(0);
        ex.start_all();
        let before = ex.pending().len();
        ex.propose(p(0), 12345);
        assert_eq!(ex.pending().len(), before);
        assert_eq!(ex.process(p(0)).initial_value(), Some(&10));
    }

    #[test]
    fn object_repeat_propose_is_idempotent() {
        let mut ex = object_exec(Ablations::NONE);
        ex.start_all();
        ex.propose(p(0), 10);
        let first = ex.pending().len();
        ex.propose(p(0), 77);
        assert_eq!(ex.pending().len(), first, "second propose ignored");
        assert_eq!(ex.process(p(0)).initial_value(), Some(&10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_process_panics() {
        let _ = TwoStepBuilder::new(cfg()).task(p(9), 1u64);
    }

    #[test]
    fn two_a_vote_updates_ballot_state() {
        let mut ex = task_exec(1);
        ex.start_all();
        for id in ex.pending_matching(|_| true) {
            ex.drop_message(id);
        }
        ex.fire_timer(p(1), TimerId::NEW_BALLOT);
        for target in [p(0), p(1), p(2)] {
            let ids = ex.pending_matching(move |m| m.to == target && matches!(m.msg, Msg::OneA(_)));
            ex.deliver(ids[0]);
        }
        for id in ex.pending_matching(|m| matches!(m.msg, Msg::OneB { .. })) {
            ex.deliver(id);
        }
        let ids = ex.pending_matching(|m| m.to == p(0) && matches!(m.msg, Msg::TwoA(..)));
        ex.deliver(ids[0]);
        let st = ex.process(p(0));
        assert_eq!(st.ballot(), Ballot::new(1));
        assert_eq!(st.voted_ballot(), Ballot::new(1));
        assert_eq!(st.vote(), Some(&20));
    }

    #[test]
    fn observer_reports_fast_decision() {
        use twostep_telemetry::Metrics;
        let (metrics, obs) = Metrics::shared();
        let cfg = cfg();
        let mut ex = ManualExecutor::new(cfg, move |pid| {
            TwoStepBuilder::new(cfg)
                .omega(OmegaMode::Static(p(0)))
                .observed(obs.clone())
                .task(pid, 10 * (u64::from(pid.as_u32()) + 1))
        });
        ex.start_all();
        for target in [p(0), p(1)] {
            let ids = ex.pending_matching(|m| m.from == p(2) && m.to == target);
            ex.deliver(ids[0]);
        }
        let ids = ex.pending_matching(|m| m.to == p(2) && matches!(m.msg, Msg::TwoB(..)));
        ex.deliver(ids[0]);
        assert_eq!(ex.decision_of(p(2)), Some(&30));
        let snap = metrics.snapshot();
        assert_eq!(snap.decided(twostep_telemetry::Path::Fast), 1);
        assert_eq!(snap.slow_entries, 0);
        assert_eq!(ex.process(p(2)).telemetry_path(), Some(Path::Fast));
    }

    #[test]
    fn observer_reports_slow_path_entry_recovery_case_and_ballot_advances() {
        use twostep_telemetry::Metrics;
        let (metrics, obs) = Metrics::shared();
        let cfg = cfg();
        let mut ex = ManualExecutor::new(cfg, move |pid| {
            TwoStepBuilder::new(cfg)
                .omega(OmegaMode::Static(p(1)))
                .observed(obs.clone())
                .task(pid, 10 * (u64::from(pid.as_u32()) + 1))
        });
        ex.start_all();
        for id in ex.pending_matching(|_| true) {
            ex.drop_message(id);
        }
        ex.fire_timer(p(1), TimerId::NEW_BALLOT);
        for target in [p(0), p(1), p(2)] {
            let ids = ex.pending_matching(move |m| m.to == target && matches!(m.msg, Msg::OneA(_)));
            ex.deliver(ids[0]);
        }
        for id in ex.pending_matching(|m| matches!(m.msg, Msg::OneB { .. })) {
            ex.deliver(id);
        }
        for id in ex.pending_matching(|m| matches!(m.msg, Msg::TwoA(..))) {
            ex.deliver(id);
        }
        for id in ex.pending_matching(|m| m.to == p(1) && matches!(m.msg, Msg::TwoB(..))) {
            ex.deliver(id);
        }
        assert_eq!(ex.decision_of(p(1)), Some(&20));
        let snap = metrics.snapshot();
        assert_eq!(snap.slow_entries, 1, "one ballot opened");
        assert_eq!(
            snap.recovery(RecoveryCase::Fallback),
            1,
            "all reports were empty: the coordinator fell back to its own value"
        );
        assert_eq!(snap.decided(Path::Slow), 1);
        // Every process adopted ballot 1 exactly once.
        assert_eq!(snap.ballot_advances, 3);
        assert_eq!(
            ex.process(p(1)).recovery_case(),
            Some(RecoveryCase::Fallback)
        );
    }

    #[test]
    fn a_conflicting_re_decision_is_surfaced_and_a_repeated_one_is_not() {
        use twostep_types::judge::{self, Violation};
        // Lines 22–25 after deciding: the conflicting `Decide` is the
        // evidence uniform Agreement is judged on, so it must reach the
        // engine as a second decide event.
        let mut t = TwoStepBuilder::new(cfg())
            .omega(OmegaMode::Static(p(0)))
            .task(p(0), 10u64);
        let mut log = Vec::new();
        let mut deliver = |v: u64| {
            let mut eff = Effects::new();
            t.on_message(p(1), Msg::Decide(v), &mut eff);
            log.extend(eff.decisions.iter().map(|&d| (p(0), d)));
            (eff.decisions, t.decided_value().copied(), t.vote().copied())
        };
        assert_eq!(deliver(20), (vec![20], Some(20), Some(20)));
        assert_eq!(
            deliver(20),
            (vec![], Some(20), Some(20)),
            "a repeat is silent"
        );
        // The certificate keeps the first value; line 23 rewrites `val`.
        assert_eq!(deliver(30), (vec![30], Some(20), Some(30)));
        assert_eq!(
            judge::agreement(&log),
            Err(Violation::Agreement {
                first: (p(0), 20),
                conflicting: (p(0), 30),
            })
        );
    }

    #[test]
    fn fast_votes_ignored_after_joining_slow_ballot() {
        // The "they will not take it in the future either" remark: a
        // process that moved to a slow ballot must not fast-decide.
        let mut ex = task_exec(1);
        ex.start_all();
        // p2's Propose reaches p0 and p1; they vote and reply.
        for target in [p(0), p(1)] {
            let ids = ex.pending_matching(|m| m.from == p(2) && m.to == target);
            ex.deliver(ids[0]);
        }
        // Before the 2Bs reach p2, p2 joins ballot 1.
        ex.fire_timer(p(1), TimerId::NEW_BALLOT);
        let ids = ex.pending_matching(|m| m.to == p(2) && matches!(m.msg, Msg::OneA(_)));
        ex.deliver(ids[0]);
        assert_eq!(ex.process(p(2)).ballot(), Ballot::new(1));
        assert_eq!(ex.process(p(2)).phase(), PhaseKind::SlowBallot);
        // Now the fast 2Bs arrive: the slow phase has no fast-decide
        // transition — the tally still accrues, but nothing can fire.
        for id in
            ex.pending_matching(|m| m.to == p(2) && matches!(m.msg, Msg::TwoB(Ballot::FAST, _)))
        {
            ex.deliver(id);
        }
        assert_eq!(ex.decision_of(p(2)), None);
    }
}
