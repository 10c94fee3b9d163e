//! Lamport's Fast Paxos (2006).

use serde::{Deserialize, Serialize};

use twostep_telemetry::{ObserverHandle, Path};
use twostep_types::protocol::{Effects, Protocol, TimerId, BALLOT_RETRY, INITIAL_BALLOT_DELAY};
use twostep_types::quorum::{Collector, VoteTally};
use twostep_types::relabel::RelabelHash;
use twostep_types::{Ballot, Omega, OmegaMode, ProcessId, SystemConfig, Value};

use crate::record_decision;

/// Fast Paxos wire messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FastPaxosMsg<V> {
    /// A proposer's value entering the fast round (sent to every
    /// acceptor, including the proposer itself, through the network).
    Propose(V),
    /// Recovery phase-1 prepare.
    OneA(Ballot),
    /// Recovery phase-1 report.
    OneB {
        /// Ballot being joined.
        bal: Ballot,
        /// Last voted ballot.
        vbal: Ballot,
        /// Last voted value.
        val: Option<V>,
    },
    /// Recovery phase-2 proposal.
    TwoA(Ballot, V),
    /// A vote, broadcast to every learner (this is Fast Paxos's `n²`
    /// message pattern, unlike the paper's protocol where fast votes go
    /// only to the proposer).
    TwoB(Ballot, V),
    /// Decision gossip.
    Decide(V),
    /// Ω liveness beacon.
    Heartbeat,
}

// The model checker's symmetry reduction asks message payloads for a
// relabeled content hash; declining every permutation but the identity
// (the [`RelabelHash`] default) soundly degrades symmetry to the
// identity for this baseline.
impl<V: std::fmt::Debug> RelabelHash for FastPaxosMsg<V> {}

/// Fast Paxos over `n ≥ max{2e+f+1, 2f+1}` processes.
///
/// Every process plays proposer, acceptor and learner:
///
/// * **fast round (ballot 0)** — proposers broadcast their value to all
///   acceptors; an acceptor votes for the first value it receives and
///   broadcasts its vote to every learner; a learner decides `v` upon
///   observing a *fast quorum* of `n-e` votes for `v`.
/// * **recovery (slow ballots)** — the Ω leader collects `n-f` `1B`
///   reports and applies Lamport's O4 rule: adopt the highest slow-ballot
///   vote if any; otherwise adopt the value with at least `n-f-e` fast
///   votes in the quorum (unambiguous exactly because `n ≥ 2e+f+1`);
///   otherwise propose its own value. A slow quorum of `n-f` votes
///   decides.
///
/// Contrast with the paper's protocol (`twostep-core`): no `v ≥ initial_val`
/// precondition on fast votes, no proposer-exclusion set, no max-value
/// tie-break — and one more process required.
///
/// # Example
///
/// ```rust
/// use twostep_baselines::FastPaxos;
/// use twostep_sim::SyncRunner;
/// use twostep_types::{ProcessId, SystemConfig};
///
/// let cfg = SystemConfig::minimal_fast_paxos(1, 1)?; // n = 4
/// let outcome = SyncRunner::new(cfg)
///     .favoring(ProcessId::new(2))
///     .run(|p| FastPaxos::new(cfg, p, u64::from(p.as_u32())));
/// let (fast, v) = outcome.fast_deciders();
/// assert!(fast.len() >= 1);
/// assert_eq!(v, Some(2));
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FastPaxos<V> {
    cfg: SystemConfig,
    me: ProcessId,
    initial: Option<V>,
    // Acceptor state.
    bal: Ballot,
    vbal: Ballot,
    val: Option<V>,
    // Learner state.
    fast_tally: VoteTally<V>,
    slow_ballot_seen: Ballot,
    slow_tally: VoteTally<V>,
    decided: Option<V>,
    // Coordinator (recovery leader) state.
    my_ballot: Option<Ballot>,
    onebs: Collector<(Ballot, Option<V>)>,
    phase_one_done: bool,
    omega: Omega,
    /// Telemetry hooks; detached by default (see [`FastPaxos::observed`]).
    obs: ObserverHandle,
}

impl<V: Value> FastPaxos<V> {
    /// Creates a Fast Paxos instance for `me` proposing `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `cfg`. (The configuration is
    /// *not* required to satisfy `n ≥ 2e+f+1`: experiment E4 runs Fast
    /// Paxos below its bound on purpose, to show O4 turning ambiguous.)
    pub fn new(cfg: SystemConfig, me: ProcessId, initial: V) -> Self {
        let mut fp = Self::passive(cfg, me);
        fp.initial = Some(initial);
        fp
    }

    /// Creates a *passive* instance: it acts as acceptor, learner and
    /// potential recovery coordinator, but proposes nothing until
    /// `propose(v)` is invoked — used to stage lone-proposer scenarios
    /// (Definition A.1-style runs) against Fast Paxos.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `cfg`.
    pub fn passive(cfg: SystemConfig, me: ProcessId) -> Self {
        assert!(me.index() < cfg.n(), "process {me} out of range for {cfg}");
        FastPaxos {
            cfg,
            me,
            initial: None,
            bal: Ballot::FAST,
            vbal: Ballot::FAST,
            val: None,
            fast_tally: VoteTally::new(),
            slow_ballot_seen: Ballot::FAST,
            slow_tally: VoteTally::new(),
            decided: None,
            my_ballot: None,
            onebs: Collector::new(),
            phase_one_done: false,
            omega: Omega::new(me, cfg.n(), OmegaMode::Heartbeats),
            obs: ObserverHandle::none(),
        }
    }

    /// Attaches telemetry hooks (builder style). Decisions via a fast
    /// quorum report [`Path::Fast`], slow-quorum decisions report
    /// [`Path::Slow`], and decisions learned from `Decide` gossip report
    /// [`Path::Learned`].
    #[must_use]
    pub fn observed(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// The decision, if reached.
    pub fn decided_value(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// Current acceptor ballot.
    pub fn ballot(&self) -> Ballot {
        self.bal
    }

    /// Learner rule: a fast quorum at ballot 0 or a slow quorum at the
    /// current slow ballot decides.
    fn check_learned(&mut self, eff: &mut Effects<V, FastPaxosMsg<V>>) {
        if self.decided.is_some() {
            return;
        }
        if let Some(v) = self
            .fast_tally
            .max_value_with_count_at_least(self.cfg.fast_quorum())
            .cloned()
        {
            record_decision(&mut self.decided, self.me, &self.obs, v, Path::Fast, eff);
            return;
        }
        if let Some(v) = self
            .slow_tally
            .max_value_with_count_at_least(self.cfg.slow_quorum())
            .cloned()
        {
            record_decision(&mut self.decided, self.me, &self.obs, v, Path::Slow, eff);
        }
    }

    /// Lamport's O4 value-selection rule. Returns `None` when the
    /// coordinator has nothing safe to propose (no votes observed and no
    /// own proposal).
    fn o4_select(&self) -> Option<V> {
        // Highest slow-ballot vote wins.
        let bmax = self
            .onebs
            .iter()
            .map(|(_, (vb, _))| *vb)
            .max()
            .unwrap_or(Ballot::FAST);
        if bmax.is_slow() {
            // A slow bmax was read off some report, so a vote at bmax
            // exists; `None` here would mean a malformed report, which
            // degrades to "nothing proposable" rather than panicking.
            return self
                .onebs
                .iter()
                .find(|(_, (vb, _))| *vb == bmax)
                .and_then(|(_, (_, v))| v.clone());
        }
        // Fast votes: any value with ≥ n-f-e votes in Q may have been
        // chosen. With n ≥ 2e+f+1 at most one value qualifies; below the
        // bound this `max` is an arbitrary pick among possibly several —
        // exactly the ambiguity experiment E4 exhibits.
        let mut tally: VoteTally<V> = VoteTally::new();
        for (q, (_, v)) in self.onebs.iter() {
            if let Some(v) = v {
                tally.record(q, v.clone());
            }
        }
        tally
            .max_value_with_count_at_least(self.cfg.recovery_threshold())
            .cloned()
            .or_else(|| self.initial.clone())
    }

    fn start_ballot(&mut self, eff: &mut Effects<V, FastPaxosMsg<V>>) {
        let b = self.bal.next_owned_by(self.me, self.cfg.n());
        self.obs.slow_path_entered(self.me);
        self.my_ballot = Some(b);
        self.onebs.clear();
        self.phase_one_done = false;
        eff.broadcast_all(FastPaxosMsg::OneA(b), self.cfg.n());
    }
}

impl<V: Value> Protocol<V> for FastPaxos<V> {
    type Message = FastPaxosMsg<V>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_start(&mut self, eff: &mut Effects<V, FastPaxosMsg<V>>) {
        self.omega.start(FastPaxosMsg::Heartbeat, eff);
        eff.set_timer(TimerId::NEW_BALLOT, INITIAL_BALLOT_DELAY);
        // The proposal enters the network addressed to *every* acceptor,
        // self included: whether we vote for our own value depends on
        // arrival order, as in Lamport's model.
        if let Some(v) = self.initial.clone() {
            eff.broadcast_all(FastPaxosMsg::Propose(v), self.cfg.n());
        }
    }

    fn on_propose(&mut self, value: V, eff: &mut Effects<V, FastPaxosMsg<V>>) {
        // Only meaningful for passive instances; task-style instances
        // fixed their proposal at construction.
        if self.initial.is_none() {
            self.initial = Some(value.clone());
            eff.broadcast_all(FastPaxosMsg::Propose(value), self.cfg.n());
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: FastPaxosMsg<V>,
        eff: &mut Effects<V, FastPaxosMsg<V>>,
    ) {
        self.omega.observe(from);
        match msg {
            FastPaxosMsg::Heartbeat => {}

            FastPaxosMsg::Propose(v) => {
                // Acceptor: vote for the first value received in the
                // fast round (no value precondition — the difference
                // from the paper's protocol).
                if self.bal == Ballot::FAST && self.val.is_none() {
                    self.val = Some(v.clone());
                    eff.broadcast_all(FastPaxosMsg::TwoB(Ballot::FAST, v), self.cfg.n());
                }
            }

            FastPaxosMsg::OneA(b) => {
                if b > self.bal {
                    self.obs.ballot_advanced(self.me);
                    self.bal = b;
                    eff.send(
                        from,
                        FastPaxosMsg::OneB {
                            bal: b,
                            vbal: self.vbal,
                            val: self.val.clone(),
                        },
                    );
                }
            }

            FastPaxosMsg::OneB { bal, vbal, val } => {
                if self.my_ballot == Some(bal) && !self.phase_one_done {
                    self.onebs.insert(from, (vbal, val));
                    if self.onebs.len() >= self.cfg.slow_quorum() {
                        self.phase_one_done = true;
                        if let Some(v) = self.o4_select() {
                            eff.broadcast_all(FastPaxosMsg::TwoA(bal, v), self.cfg.n());
                        }
                    }
                }
            }

            FastPaxosMsg::TwoA(b, v) => {
                if self.bal <= b {
                    if b > self.bal {
                        self.obs.ballot_advanced(self.me);
                    }
                    self.bal = b;
                    self.vbal = b;
                    self.val = Some(v.clone());
                    eff.broadcast_all(FastPaxosMsg::TwoB(b, v), self.cfg.n());
                }
            }

            FastPaxosMsg::TwoB(b, v) => {
                if b == Ballot::FAST {
                    self.fast_tally.record(from, v);
                } else {
                    // Votes of an older slow ballot are obsolete.
                    if b > self.slow_ballot_seen {
                        self.slow_ballot_seen = b;
                        self.slow_tally.clear();
                    }
                    if b == self.slow_ballot_seen {
                        self.slow_tally.record(from, v);
                    }
                }
                self.check_learned(eff);
            }

            FastPaxosMsg::Decide(v) => {
                record_decision(&mut self.decided, self.me, &self.obs, v, Path::Learned, eff);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, eff: &mut Effects<V, FastPaxosMsg<V>>) {
        match timer {
            TimerId::HEARTBEAT | TimerId::SUSPECT => {
                if let Some(leader) = self.omega.on_timer(timer, FastPaxosMsg::Heartbeat, eff) {
                    self.obs.leader_changed(self.me, leader);
                }
            }
            TimerId::NEW_BALLOT => {
                eff.set_timer(TimerId::NEW_BALLOT, BALLOT_RETRY);
                if let Some(v) = self.decided.clone() {
                    eff.broadcast_others(FastPaxosMsg::Decide(v), self.cfg.n(), self.me);
                } else if self.omega.is_leader() {
                    self.start_ballot(eff);
                }
            }
            _ => {}
        }
    }

    fn decision(&self) -> Option<V> {
        self.decided.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_sim::{SimulationBuilder, SyncRunner};
    use twostep_types::{Duration, ProcessSet, Time};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn unanimous_fast_round_decides_everyone_at_two_delta() {
        // All propose the same value: every correct process decides at 2Δ
        // (Fast Paxos is fast at *all* processes, Lamport-style).
        let cfg = SystemConfig::minimal_fast_paxos(1, 1).unwrap(); // n=4
        let outcome = SyncRunner::new(cfg).run(|q| FastPaxos::new(cfg, q, 7u64));
        for i in 0..4 {
            assert_eq!(
                outcome.decision_time_of(p(i)),
                Some(Time::ZERO + Duration::deltas(2)),
                "p{i}"
            );
        }
        assert!(outcome.agreement());
    }

    #[test]
    fn favored_proposer_wins_contended_fast_round() {
        let cfg = SystemConfig::minimal_fast_paxos(1, 1).unwrap();
        let outcome = SyncRunner::new(cfg)
            .favoring(p(3))
            .run(|q| FastPaxos::new(cfg, q, u64::from(q.as_u32())));
        assert!(outcome.agreement());
        assert_eq!(*outcome.decided_values()[0], 3);
        let (fast, _) = outcome.fast_deciders();
        assert_eq!(fast.len(), 4, "all learners see the fast quorum by 2Δ");
    }

    #[test]
    fn fast_round_with_e_crashes_still_two_step() {
        let cfg = SystemConfig::minimal_fast_paxos(2, 2).unwrap(); // n=7
        let crashed: ProcessSet = [p(0), p(1)].into_iter().collect();
        let outcome = SyncRunner::new(cfg)
            .crashed(crashed)
            .favoring(p(6))
            .run(|q| FastPaxos::new(cfg, q, u64::from(q.as_u32())));
        let (fast, v) = outcome.fast_deciders();
        assert_eq!(v, Some(6));
        assert_eq!(fast.len(), 5, "all five correct processes decide at 2Δ");
    }

    #[test]
    fn contended_split_recovers_via_o4() {
        // Send-order delivery with distinct values splits the acceptors;
        // no fast quorum forms, and the Ω leader's recovery must decide.
        let cfg = SystemConfig::minimal_fast_paxos(1, 1).unwrap();
        let outcome = SyncRunner::new(cfg)
            .horizon(Duration::deltas(60))
            .run(|q| FastPaxos::new(cfg, q, u64::from(q.as_u32())));
        assert!(outcome.all_correct_decided());
        assert!(outcome.agreement());
        let v = *outcome.decided_values()[0];
        assert!(v < 4, "decision {v} must be one of the proposals");
    }

    #[test]
    fn o4_preserves_fast_decision_under_recovery() {
        // A value fast-decides at 2Δ; a slow ballot started afterwards
        // must adopt it.
        let cfg = SystemConfig::minimal_fast_paxos(1, 2).unwrap(); // n=max{4+1... 2e+f+1=5, 5}=5
        let outcome = SyncRunner::new(cfg)
            .favoring(p(4))
            .horizon(Duration::deltas(60))
            .run(|q| FastPaxos::new(cfg, q, u64::from(q.as_u32())));
        // Everything — fast deciders and any recovery stragglers — agrees.
        assert!(outcome.agreement());
        assert_eq!(*outcome.decided_values()[0], 4);
        assert!(outcome.all_correct_decided());
    }

    #[test]
    fn message_complexity_is_quadratic() {
        // Fast Paxos acceptors broadcast votes to all learners: with n
        // processes and no conflicts, expect ~n Propose broadcasts and
        // ~n² TwoB messages by 2Δ; the paper's protocol sends only ~n.
        let cfg = SystemConfig::minimal_fast_paxos(1, 1).unwrap(); // n=4
        let outcome = SyncRunner::new(cfg)
            .favoring(p(0))
            .horizon(Duration::deltas(2))
            .run(|q| FastPaxos::new(cfg, q, 7u64));
        let twobs = outcome.trace.messages_sent_of_kind("TwoB");
        assert!(
            twobs >= cfg.n() * cfg.n(),
            "expected ≥ n² fast votes, got {twobs}"
        );
    }

    #[test]
    fn randomized_schedules_agree_at_the_bound() {
        for seed in 0u64..10 {
            let cfg = SystemConfig::minimal_fast_paxos(2, 2).unwrap();
            let outcome = SimulationBuilder::new(cfg)
                .delay_model(twostep_sim::RandomDelay::sub_delta(seed))
                .delivery_order(twostep_sim::DeliveryOrder::randomized(seed))
                .build(|q| FastPaxos::new(cfg, q, u64::from(q.as_u32())))
                .run_until_all_decided(Time::ZERO + Duration::deltas(120));
            assert!(outcome.agreement(), "seed {seed}");
            assert!(outcome.all_correct_decided(), "seed {seed}");
        }
    }
}
