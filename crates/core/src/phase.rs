//! Protocol phases as types: the typestate core behind [`TwoStep`].
//!
//! Each phase of Figure 1 is a distinct type, and every transition is a
//! method that *consumes* the source phase, returns the target phase,
//! and takes the [`Effects`] sink — so a transition cannot occur without
//! the sends the paper attaches to it (the 1B reply of lines 29–31, the
//! 2B vote of line 69, the 2A broadcast of line 62, the `Decide`
//! broadcast of line 17). Illegal transitions are not runtime bugs a
//! lint or the model checker must catch; they simply do not exist as
//! methods.
//!
//! The voter-side phases (per-process state of Figure 1):
//!
//! * [`FastVoting`] — ballot 0, lines 9–16: the process may vote for a
//!   `Propose` and may fast-decide its own proposal. The object
//!   variant's red-line precondition is an argument of the vote
//!   transition, which [`TwoStep`] fixes to its formulation's
//!   [`OBJECT`](crate::Formulation::OBJECT) constant.
//! * [`SlowBallot`] — lines 27–31 and 65–69: the process has joined a
//!   slow ballot; it answers `1A` with its report and votes on `2A`.
//!   Entered from the crate-internal `FastVoting::join` /
//!   `FastVoting::adopt` transitions and never left.
//! * [`Decided`] — lines 16–25: a decision certificate, held beside the
//!   ballot position rather than replacing it, because a decided
//!   process keeps serving `1B` reports from that position (carrying
//!   `decided`, which recovery's reported-decision branch resurrects)
//!   and `2B` votes.
//!
//! The leader-side phases (lines 42–63, one ballot at a time):
//!
//! * [`LeaderPhase::Idle`] — not coordinating.
//! * [`Collecting`] — a `1A` broadcast is out (the crate-internal
//!   `Collecting::open` is the only way in, and it broadcasts as it
//!   constructs) and `1B` reports are accumulating.
//! * [`Proposing`] — the `1B` quorum is frozen and the recovery rule
//!   has chosen the ballot's value (`Collecting::propose`, which
//!   consumes the collector and forces the `2A` broadcast).
//!
//! The recovery rule's two vote-count cases are themselves types —
//! [`crate::recovery::RecoveryGt`] and [`crate::recovery::RecoveryEq`]
//! — so the paper's max-value tie-break (line 58) only exists where the
//! paper applies it: on the exact-threshold case.
//!
//! # Phases are born only in this crate
//!
//! The phase structs are `pub` (read-only views name them), but their
//! fields are private and their constructors `pub(crate)`, so the
//! compiler — not a text-matching lint — keeps every other crate from
//! minting a phase value and bypassing the transitions above. A struct
//! literal from outside the crate is rejected:
//!
//! ```compile_fail
//! use twostep_core::phase::FastVoting;
//! let _ = FastVoting::<u64> { val: None, proposer: None };
//! ```
//!
//! and so is a constructor call:
//!
//! ```compile_fail
//! use twostep_core::phase::FastVoting;
//! let _ = FastVoting::<u64>::new();
//! ```
//!
//! [`TwoStep`]: crate::TwoStep
//! [`Effects`]: twostep_types::protocol::Effects

use twostep_types::protocol::Effects;
use twostep_types::quorum::Collector;
use twostep_types::{Ballot, ProcessId, ProcessSet, Quorum, Value};

use crate::consensus::{Common, DecisionPath};
use crate::msg::Msg;
use crate::recovery::{classify, Recovery, Report};

/// Which voter-side phase a process is in (observable shadow of the
/// phase types, for tests and telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseKind {
    /// Ballot 0: may still vote fast and fast-decide.
    FastVoting,
    /// Joined a slow ballot; fast path permanently closed.
    SlowBallot,
    /// Holds a decision certificate.
    Decided,
}

/// Which leader-side phase a process is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LeaderPhase {
    /// Not coordinating a ballot.
    Idle,
    /// Collecting `1B` reports for an open ballot.
    Collecting,
    /// Phase one complete: the ballot's value is fixed (or the ballot
    /// yields nothing) and `2B` votes are being counted.
    Proposing,
}

// ---------------------------------------------------------------------
// Voter-side phases
// ---------------------------------------------------------------------

/// The fast-voting phase: `bal = 0`, lines 9–16 of Figure 1.
#[derive(Debug, Clone)]
pub struct FastVoting<V> {
    /// Current vote (`val`), `⊥` if none.
    val: Option<V>,
    /// Proposer of `val`.
    proposer: Option<ProcessId>,
}

impl<V: Value> FastVoting<V> {
    /// The birth state, with no vote; also the placeholder left while a
    /// transition is in flight.
    pub(crate) fn new() -> Self {
        FastVoting {
            val: None,
            proposer: None,
        }
    }

    /// Current vote.
    pub fn val(&self) -> Option<&V> {
        self.val.as_ref()
    }

    /// Proposer of the current vote.
    pub fn proposer(&self) -> Option<ProcessId> {
        self.proposer
    }

    /// Lines 9–13: vote for a `Propose(v)` from `from` if the
    /// preconditions hold (`val = ⊥`, `v ≥ initial_val`, and — only
    /// when `red_line` is set, as it is for the object — the red line
    /// `initial_val ≠ ⊥ ⟹ v = initial_val`). Voting sends the fast `2B`
    /// to the proposer.
    pub(crate) fn consider(
        &mut self,
        red_line: bool,
        common: &Common<V>,
        from: ProcessId,
        v: &V,
        eff: &mut Effects<V, Msg<V>>,
    ) {
        let geq_initial = common.initial_val.as_ref().is_none_or(|iv| *v >= *iv);
        let red_line_ok = !red_line
            || common.ablations.no_object_guard
            || common.initial_val.as_ref().is_none_or(|iv| *v == *iv);
        if self.val.is_none() && geq_initial && red_line_ok {
            self.val = Some(v.clone());
            self.proposer = Some(from);
            eff.send(from, Msg::TwoB(Ballot::FAST, v.clone()));
        }
    }

    /// Line 16, first disjunct: the fast-path decision check. Returns
    /// our own proposal once a fast quorum supports it and our vote does
    /// not block it; [`Phase::try_fast_decide`] records it.
    fn fast_decision(&self, common: &Common<V>) -> Option<V> {
        let v = common.initial_val.as_ref()?;
        // `val ∈ {⊥, v}`: a vote for someone else's value blocks us.
        if self.val.as_ref().is_some_and(|cur| cur != v) {
            return None;
        }
        let mut supporters = common.fast_votes;
        supporters.insert(common.me); // `|P ∪ {p_i}| ≥ n - e`
        (supporters.len() >= common.cfg.fast_quorum()).then(|| v.clone())
    }

    /// Lines 27–31: join slow ballot `b > 0`, leaving the fast phase
    /// forever. The transition replies the `1B` report to `from`
    /// (`decided` is the certificate of an already-decided voter, `⊥`
    /// here on the undecided path).
    pub(crate) fn join(
        self,
        common: &mut Common<V>,
        from: ProcessId,
        b: Ballot,
        decided: Option<V>,
        eff: &mut Effects<V, Msg<V>>,
    ) -> SlowBallot<V> {
        common.obs.ballot_advanced(common.me);
        eff.send(
            from,
            Msg::OneB {
                bal: b,
                vbal: Ballot::FAST,
                val: self.val.clone(),
                proposer: self.proposer,
                decided,
            },
        );
        SlowBallot {
            bal: b,
            vbal: Ballot::FAST,
            val: self.val,
            proposer: self.proposer,
        }
    }

    /// Lines 65–69 with `b > 0`: adopt a `2A` value, voting `2B` and
    /// leaving the fast phase.
    pub(crate) fn adopt(
        self,
        common: &mut Common<V>,
        from: ProcessId,
        b: Ballot,
        v: V,
        eff: &mut Effects<V, Msg<V>>,
    ) -> SlowBallot<V> {
        common.obs.ballot_advanced(common.me);
        eff.send(from, Msg::TwoB(b, v.clone()));
        SlowBallot {
            bal: b,
            vbal: b,
            val: Some(v),
            proposer: self.proposer,
        }
    }

    /// Lines 65–69 with `b = 0` (a fast `2A`, unreachable from correct
    /// peers but handled for uniformity): revote without leaving the
    /// phase.
    pub(crate) fn revote(&mut self, from: ProcessId, v: V, eff: &mut Effects<V, Msg<V>>) {
        self.val = Some(v.clone());
        eff.send(from, Msg::TwoB(Ballot::FAST, v));
    }
}

/// The slow-ballot phase: `bal > 0`, lines 27–31 and 65–69.
#[derive(Debug, Clone)]
pub struct SlowBallot<V> {
    /// Current ballot (`bal`).
    bal: Ballot,
    /// Last ballot voted in (`vbal`).
    vbal: Ballot,
    /// Current vote (`val`).
    val: Option<V>,
    /// Proposer of `val`.
    proposer: Option<ProcessId>,
}

impl<V: Value> SlowBallot<V> {
    /// Current ballot.
    pub fn bal(&self) -> Ballot {
        self.bal
    }

    /// Last voted ballot.
    pub fn vbal(&self) -> Ballot {
        self.vbal
    }

    /// Current vote.
    pub fn val(&self) -> Option<&V> {
        self.val.as_ref()
    }

    /// Proposer of the current vote.
    pub fn proposer(&self) -> Option<ProcessId> {
        self.proposer
    }

    /// Lines 27–31: advance to a higher ballot `b`, replying the `1B`
    /// report. A stale `b ≤ bal` leaves the phase untouched.
    pub(crate) fn on_one_a(
        mut self,
        common: &mut Common<V>,
        from: ProcessId,
        b: Ballot,
        decided: Option<V>,
        eff: &mut Effects<V, Msg<V>>,
    ) -> Self {
        if b > self.bal {
            self.bal = b;
            common.obs.ballot_advanced(common.me);
            eff.send(
                from,
                Msg::OneB {
                    bal: b,
                    vbal: self.vbal,
                    val: self.val.clone(),
                    proposer: self.proposer,
                    decided,
                },
            );
        }
        self
    }

    /// Lines 65–69: vote for a `2A` value at `b ≥ bal`.
    pub(crate) fn on_two_a(
        mut self,
        common: &mut Common<V>,
        from: ProcessId,
        b: Ballot,
        v: V,
        eff: &mut Effects<V, Msg<V>>,
    ) -> Self {
        if self.bal <= b {
            self.val = Some(v.clone());
            if b > self.bal {
                common.obs.ballot_advanced(common.me);
            }
            self.bal = b;
            self.vbal = b;
            eff.send(from, Msg::TwoB(b, v));
        }
        self
    }
}

/// The ballot position: fast or slow. A decided process keeps it beside
/// its [`Decided`] certificate, because it keeps serving reports and
/// votes.
#[derive(Debug, Clone)]
pub(crate) enum Voter<V> {
    /// Still at ballot 0.
    Fast(FastVoting<V>),
    /// In a slow ballot.
    Slow(SlowBallot<V>),
}

impl<V: Value> Voter<V> {
    pub(crate) fn bal(&self) -> Ballot {
        match self {
            Voter::Fast(_) => Ballot::FAST,
            Voter::Slow(s) => s.bal,
        }
    }

    pub(crate) fn vbal(&self) -> Ballot {
        match self {
            Voter::Fast(_) => Ballot::FAST,
            Voter::Slow(s) => s.vbal,
        }
    }

    pub(crate) fn val(&self) -> Option<&V> {
        match self {
            Voter::Fast(f) => f.val.as_ref(),
            Voter::Slow(s) => s.val.as_ref(),
        }
    }

    pub(crate) fn proposer(&self) -> Option<ProcessId> {
        match self {
            Voter::Fast(f) => f.proposer,
            Voter::Slow(s) => s.proposer,
        }
    }

    /// Overwrites the vote (line 23: a decision rewrites `val`).
    fn set_val(&mut self, v: V) {
        match self {
            Voter::Fast(f) => f.val = Some(v),
            Voter::Slow(s) => s.val = Some(v),
        }
    }

    /// Moves the position out for a consuming transition, leaving a
    /// vacant placeholder that the caller immediately overwrites.
    fn take(&mut self) -> Voter<V> {
        std::mem::replace(self, Voter::Fast(FastVoting::new()))
    }

    /// Lines 27–31; `decided` is the certificate the `1B` report
    /// carries, `⊥` while undecided.
    pub(crate) fn on_one_a(
        &mut self,
        common: &mut Common<V>,
        from: ProcessId,
        b: Ballot,
        decided: Option<V>,
        eff: &mut Effects<V, Msg<V>>,
    ) {
        *self = match self.take() {
            Voter::Fast(f) if b > Ballot::FAST => {
                Voter::Slow(f.join(common, from, b, decided, eff))
            }
            Voter::Fast(f) => Voter::Fast(f),
            Voter::Slow(s) => Voter::Slow(s.on_one_a(common, from, b, decided, eff)),
        };
    }

    /// Lines 65–69.
    pub(crate) fn on_two_a(
        &mut self,
        common: &mut Common<V>,
        from: ProcessId,
        b: Ballot,
        v: V,
        eff: &mut Effects<V, Msg<V>>,
    ) {
        *self = match self.take() {
            Voter::Fast(mut f) if b == Ballot::FAST => {
                f.revote(from, v, eff);
                Voter::Fast(f)
            }
            Voter::Fast(f) => Voter::Slow(f.adopt(common, from, b, v, eff)),
            Voter::Slow(s) => Voter::Slow(s.on_two_a(common, from, b, v, eff)),
        };
    }
}

/// A decision certificate (lines 16–25): the decided value and how it
/// was reached.
#[derive(Debug, Clone)]
pub struct Decided<V> {
    /// The decision (`decided`).
    value: V,
    /// How it was reached.
    path: DecisionPath,
}

impl<V: Value> Decided<V> {
    /// Lines 17/21/24: records a decision, rewriting the position's `val`
    /// and emitting the decision effect — the only constructor, so a
    /// certificate cannot exist without its decision having been
    /// surfaced to the engine.
    fn record(
        voter: &mut Voter<V>,
        v: V,
        path: DecisionPath,
        common: &mut Common<V>,
        eff: &mut Effects<V, Msg<V>>,
    ) -> Self {
        voter.set_val(v.clone());
        // Report the path before the engine drains the decision effect,
        // so the engine's latency report joins onto it.
        common.obs.decided(common.me, common.refined_path(path));
        eff.decide(v.clone());
        Decided { value: v, path }
    }

    /// The decided value.
    pub fn value(&self) -> &V {
        &self.value
    }

    /// How the decision was reached.
    pub fn path(&self) -> DecisionPath {
        self.path
    }
}

/// The voter side of one process: its ballot position and, once it has
/// decided, the certificate held beside it.
#[derive(Debug, Clone)]
pub(crate) struct Phase<V> {
    /// The ballot position; deciding does not leave it.
    pub(crate) voter: Voter<V>,
    /// Set only by [`Decided::record`].
    decided: Option<Decided<V>>,
}

impl<V: Value> Phase<V> {
    /// The birth position: undecided, at ballot 0.
    pub(crate) fn new() -> Self {
        Phase {
            voter: Voter::Fast(FastVoting::new()),
            decided: None,
        }
    }

    /// The observable phase kind.
    pub(crate) fn kind(&self) -> PhaseKind {
        match (&self.decided, &self.voter) {
            (Some(_), _) => PhaseKind::Decided,
            (None, Voter::Fast(_)) => PhaseKind::FastVoting,
            (None, Voter::Slow(_)) => PhaseKind::SlowBallot,
        }
    }

    pub(crate) fn decided(&self) -> Option<&V> {
        self.decided.as_ref().map(Decided::value)
    }

    pub(crate) fn decision_path(&self) -> Option<DecisionPath> {
        self.decided.as_ref().map(Decided::path)
    }

    /// Lines 17/21/24: records the decision through [`Decided::record`].
    /// Re-deciding rewrites `val` (line 23); a *conflicting* re-decision
    /// surfaces a second decision effect so `twostep_types::judge` can
    /// flag the agreement violation (reachable only under ablations or
    /// below-bound configurations).
    pub(crate) fn decide(
        &mut self,
        v: V,
        path: DecisionPath,
        common: &mut Common<V>,
        eff: &mut Effects<V, Msg<V>>,
    ) {
        match &self.decided {
            None => self.decided = Some(Decided::record(&mut self.voter, v, path, common, eff)),
            Some(d) => {
                if d.value != v {
                    eff.decide(v.clone());
                }
                self.voter.set_val(v);
            }
        }
    }

    /// Line 16, first disjunct: only an undecided ballot-0 position can
    /// fast-decide; on success the `Decide` broadcast is forced here.
    pub(crate) fn try_fast_decide(&mut self, common: &mut Common<V>, eff: &mut Effects<V, Msg<V>>) {
        let (Voter::Fast(f), None) = (&self.voter, &self.decided) else {
            return;
        };
        if let Some(v) = f.fast_decision(common) {
            self.decide(v.clone(), DecisionPath::Fast, common, eff);
            eff.broadcast_others(Msg::Decide(v), common.cfg.n(), common.me);
        }
    }
}

// ---------------------------------------------------------------------
// Leader-side phases
// ---------------------------------------------------------------------

/// The leader-side state of one process: which coordination phase (if
/// any) it is in for the ballot it owns.
#[derive(Debug, Clone)]
pub(crate) enum Leader<V> {
    /// Not coordinating.
    Idle,
    /// Phase one in flight.
    Collecting(Collecting<V>),
    /// Phase one complete.
    Proposing(Proposing<V>),
}

impl<V: Value> Leader<V> {
    /// Takes the leader state out of `slot` for a consuming transition.
    pub(crate) fn take(slot: &mut Leader<V>) -> Leader<V> {
        std::mem::replace(slot, Leader::Idle)
    }

    /// The observable leader phase kind.
    pub(crate) fn kind(&self) -> LeaderPhase {
        match self {
            Leader::Idle => LeaderPhase::Idle,
            Leader::Collecting(_) => LeaderPhase::Collecting,
            Leader::Proposing(_) => LeaderPhase::Proposing,
        }
    }

    /// The ballot this process is coordinating, if any (`my_ballot`).
    pub(crate) fn ballot(&self) -> Option<Ballot> {
        match self {
            Leader::Idle => None,
            Leader::Collecting(c) => Some(c.bal),
            Leader::Proposing(p) => Some(p.bal),
        }
    }

    /// The frozen or accumulating `1B` quorum, if any.
    pub(crate) fn reports(&self) -> Option<&Collector<Report<V>>> {
        match self {
            Leader::Idle => None,
            Leader::Collecting(c) => Some(&c.onebs),
            Leader::Proposing(p) => Some(&p.onebs),
        }
    }

    /// The ballot's chosen value, once phase one completed.
    pub(crate) fn slow_value(&self) -> Option<&V> {
        match self {
            Leader::Proposing(p) => p.value.as_ref(),
            Leader::Idle | Leader::Collecting(_) => None,
        }
    }

    /// The `2B` votes counted so far for the chosen value.
    pub(crate) fn slow_votes(&self) -> ProcessSet {
        match self {
            Leader::Proposing(p) => p.votes,
            Leader::Idle | Leader::Collecting(_) => ProcessSet::new(),
        }
    }
}

/// Phase one of a slow ballot, collection side (lines 42–45).
#[derive(Debug, Clone)]
pub struct Collecting<V> {
    /// The ballot being coordinated.
    bal: Ballot,
    /// `1B` reports received so far.
    onebs: Collector<Report<V>>,
}

impl<V: Value> Collecting<V> {
    /// §C.1: opens the next ballot owned by this process, broadcasting
    /// the `1A` — the only constructor, so an open ballot always has
    /// its `1A` on the wire.
    pub(crate) fn open(
        current: Ballot,
        common: &mut Common<V>,
        eff: &mut Effects<V, Msg<V>>,
    ) -> Self {
        let b = current.next_owned_by(common.me, common.cfg.n());
        common.recovery_case = None;
        common.obs.slow_path_entered(common.me);
        eff.broadcast_all(Msg::OneA(b), common.cfg.n());
        Collecting {
            bal: b,
            onebs: Collector::new(),
        }
    }

    /// Lines 42–45: folds in one `1B` report; once a slow quorum is in,
    /// completes phase one via [`Collecting::propose`].
    pub(crate) fn on_report(
        mut self,
        common: &mut Common<V>,
        from: ProcessId,
        report: Report<V>,
        eff: &mut Effects<V, Msg<V>>,
    ) -> Leader<V> {
        self.onebs.insert(from, report);
        if self.onebs.len() >= common.cfg.slow_quorum() {
            Leader::Proposing(self.propose(common, eff))
        } else {
            Leader::Collecting(self)
        }
    }

    /// Lines 46–63: consumes the collector, runs the recovery rule over
    /// the frozen quorum, and — if a value was selected — forces the
    /// `2A` broadcast. The `> n-f-e` and `= n-f-e` cases arrive as the
    /// distinct types [`crate::recovery::RecoveryGt`] /
    /// [`crate::recovery::RecoveryEq`]: only the latter offers the
    /// max-value tie-break.
    fn propose(self, common: &mut Common<V>, eff: &mut Effects<V, Msg<V>>) -> Proposing<V> {
        let (selected, case) = match classify(&common.cfg, &self.onebs, common.ablations) {
            Recovery::ReportedDecision(v) => {
                (Some(v), twostep_telemetry::RecoveryCase::ReportedDecision)
            }
            Recovery::SlowBallot(v) => (v, twostep_telemetry::RecoveryCase::SlowBallot),
            Recovery::Gt(gt) => (Some(gt.into_value()), twostep_telemetry::RecoveryCase::Gt),
            Recovery::Eq(eq) => {
                let v = if common.ablations.no_max_tiebreak {
                    eq.least_ablated()
                } else {
                    eq.greatest()
                };
                (Some(v), twostep_telemetry::RecoveryCase::Eq)
            }
            Recovery::Fallback => (
                common
                    .initial_val
                    .clone()
                    .or_else(|| common.observed.clone()),
                twostep_telemetry::RecoveryCase::Fallback,
            ),
        };
        common.recovery_case = Some(case);
        common.obs.recovery_case(common.me, case);
        if let Some(v) = &selected {
            eff.broadcast_all(Msg::TwoA(self.bal, v.clone()), common.cfg.n());
        }
        Proposing {
            bal: self.bal,
            onebs: self.onebs,
            value: selected,
            votes: ProcessSet::new(),
        }
    }
}

/// Phase two of a slow ballot, leader side (lines 16 second disjunct,
/// 18–21): the value is fixed and `2B` votes are being counted.
#[derive(Debug, Clone)]
pub struct Proposing<V> {
    /// The ballot being coordinated.
    bal: Ballot,
    /// The frozen `1B` quorum phase one selected from.
    onebs: Collector<Report<V>>,
    /// The ballot's value (`⊥` when the recovery rule yielded nothing —
    /// the ballot then simply never gathers votes, line 63's guard).
    value: Option<V>,
    /// `2B` votes received for `value`.
    votes: ProcessSet,
}

impl<V: Value> Proposing<V> {
    /// Counts one `2B` vote; returns whether a slow quorum is now in
    /// (the caller then records the decision, which forces the `Decide`
    /// broadcast).
    pub(crate) fn record_vote(&mut self, from: ProcessId, slow_quorum: Quorum) -> bool {
        self.votes.insert(from);
        self.votes.len() >= slow_quorum
    }
}
