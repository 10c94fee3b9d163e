//! Classic single-decree Paxos.

use serde::{Deserialize, Serialize};

use twostep_telemetry::{ObserverHandle, Path};
use twostep_types::protocol::{Effects, Protocol, TimerId, BALLOT_RETRY, INITIAL_BALLOT_DELAY};
use twostep_types::quorum::Collector;
use twostep_types::relabel::RelabelHash;
use twostep_types::{Ballot, Omega, OmegaMode, ProcessId, ProcessSet, SystemConfig, Value};

use crate::record_decision;

/// Paxos wire messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PaxosMsg<V> {
    /// Phase-1 prepare.
    OneA(Ballot),
    /// Phase-1 promise with the last vote.
    OneB {
        /// Ballot being promised.
        bal: Ballot,
        /// Last voted ballot.
        vbal: Ballot,
        /// Last voted value.
        val: Option<V>,
    },
    /// Phase-2 proposal.
    TwoA(Ballot, V),
    /// Phase-2 vote.
    TwoB(Ballot, V),
    /// Decision dissemination.
    Decide(V),
    /// Ω liveness beacon.
    Heartbeat,
}

// The model checker's symmetry reduction asks message payloads for a
// relabeled content hash; declining every permutation but the identity
// (the [`RelabelHash`] default) soundly degrades symmetry to the
// identity for this baseline.
impl<V: std::fmt::Debug> RelabelHash for PaxosMsg<V> {}

/// Leader-driven single-decree Paxos over `n ≥ 2f+1` processes.
///
/// The initial leader is `p0`, whose first ballot is *pre-established*:
/// `p0` skips phase 1 for its lowest ballot (safe: no smaller ballot
/// exists) and proposes directly, reaching a decision at the leader in
/// two message delays — the steady-state latency the paper's
/// introduction attributes to leader-driven protocols. If the leader
/// crashes, followers detect it via heartbeats (Ω) and the next leader
/// runs a full ballot (phase 1 + phase 2).
///
/// Paxos is `f`-resilient but **not** e-two-step for any `e > 0`: with
/// the initial leader in `E`, no process can decide by `2Δ`.
///
/// # Example
///
/// ```rust
/// use twostep_baselines::Paxos;
/// use twostep_sim::SyncRunner;
/// use twostep_types::{ProcessId, SystemConfig, Time, Duration};
///
/// let cfg = SystemConfig::new(3, 1, 1)?;
/// let outcome = SyncRunner::new(cfg)
///     .run(|p| Paxos::new(cfg, p, u64::from(p.as_u32())));
/// // The pre-established leader p0 decides its own value at 2Δ.
/// assert_eq!(outcome.decision_of(ProcessId::new(0)), Some(&0));
/// assert_eq!(
///     outcome.decision_time_of(ProcessId::new(0)),
///     Some(Time::ZERO + Duration::deltas(2))
/// );
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Paxos<V> {
    cfg: SystemConfig,
    me: ProcessId,
    /// Own proposal (every process has one; a follower's value is used
    /// only if it ever becomes leader).
    initial: V,
    bal: Ballot,
    vbal: Ballot,
    val: Option<V>,
    decided: Option<V>,
    // Leader state.
    my_ballot: Option<Ballot>,
    onebs: Collector<(Ballot, Option<V>)>,
    phase_one_done: bool,
    proposal: Option<V>,
    twobs: ProcessSet,
    omega: Omega,
    // Telemetry hooks (detached by default).
    obs: ObserverHandle,
}

impl<V: Value> Paxos<V> {
    /// Creates a Paxos instance for `me` with proposal `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `cfg`.
    pub fn new(cfg: SystemConfig, me: ProcessId, initial: V) -> Self {
        assert!(me.index() < cfg.n(), "process {me} out of range for {cfg}");
        Paxos {
            cfg,
            me,
            initial,
            bal: Ballot::FAST, // "no promise yet"
            vbal: Ballot::FAST,
            val: None,
            decided: None,
            my_ballot: None,
            onebs: Collector::new(),
            phase_one_done: false,
            proposal: None,
            twobs: ProcessSet::new(),
            omega: Omega::new(me, cfg.n(), OmegaMode::Heartbeats),
            obs: ObserverHandle::none(),
        }
    }

    /// Attaches telemetry hooks (builder style). Paxos has no fast
    /// path: leader decisions report [`Path::Slow`], follower decisions
    /// report [`Path::Learned`].
    pub fn observed(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Current ballot.
    pub fn ballot(&self) -> Ballot {
        self.bal
    }

    /// The decision, if reached.
    pub fn decided_value(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// Starts phase 2 for ballot `b` with value `v`.
    fn phase_two(&mut self, b: Ballot, v: V, eff: &mut Effects<V, PaxosMsg<V>>) {
        self.proposal = Some(v.clone());
        self.twobs = ProcessSet::new();
        eff.broadcast_all(PaxosMsg::TwoA(b, v), self.cfg.n());
    }

    fn start_ballot(&mut self, eff: &mut Effects<V, PaxosMsg<V>>) {
        let b = self.bal.next_owned_by(self.me, self.cfg.n());
        self.my_ballot = Some(b);
        self.onebs.clear();
        self.phase_one_done = false;
        self.proposal = None;
        self.twobs = ProcessSet::new();
        self.obs.slow_path_entered(self.me);
        eff.broadcast_all(PaxosMsg::OneA(b), self.cfg.n());
    }
}

impl<V: Value> Protocol<V> for Paxos<V> {
    type Message = PaxosMsg<V>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_start(&mut self, eff: &mut Effects<V, PaxosMsg<V>>) {
        self.omega.start(PaxosMsg::Heartbeat, eff);
        eff.set_timer(TimerId::NEW_BALLOT, INITIAL_BALLOT_DELAY);
        if self.me == ProcessId::new(0) {
            // Pre-established leadership: p0 owns the smallest positive
            // ballot ≡ 0 (mod n), i.e. ballot n; no lower ballot exists,
            // so skipping phase 1 is safe.
            let b = Ballot::FAST.next_owned_by(self.me, self.cfg.n());
            self.my_ballot = Some(b);
            self.phase_one_done = true;
            self.phase_two(b, self.initial.clone(), eff);
        }
    }

    fn on_propose(&mut self, _value: V, _eff: &mut Effects<V, PaxosMsg<V>>) {
        // Proposals are fixed at construction, as in the task setting.
    }

    fn on_message(&mut self, from: ProcessId, msg: PaxosMsg<V>, eff: &mut Effects<V, PaxosMsg<V>>) {
        self.omega.observe(from);
        match msg {
            PaxosMsg::Heartbeat => {}

            PaxosMsg::OneA(b) => {
                if b > self.bal {
                    self.bal = b;
                    self.obs.ballot_advanced(self.me);
                    eff.send(
                        from,
                        PaxosMsg::OneB {
                            bal: b,
                            vbal: self.vbal,
                            val: self.val.clone(),
                        },
                    );
                }
            }

            PaxosMsg::OneB { bal, vbal, val } => {
                if self.my_ballot == Some(bal) && !self.phase_one_done {
                    self.onebs.insert(from, (vbal, val));
                    if self.onebs.len() >= self.cfg.slow_quorum() {
                        self.phase_one_done = true;
                        // Adopt the vote of the highest ballot, else our own.
                        let adopted = self
                            .onebs
                            .iter()
                            .filter(|(_, (_, v))| v.is_some())
                            .max_by_key(|(_, (vb, _))| *vb)
                            .and_then(|(_, (_, v))| v.clone())
                            .unwrap_or_else(|| self.initial.clone());
                        self.phase_two(bal, adopted, eff);
                    }
                }
            }

            PaxosMsg::TwoA(b, v) => {
                if self.bal <= b {
                    if b > self.bal {
                        self.obs.ballot_advanced(self.me);
                    }
                    self.bal = b;
                    self.vbal = b;
                    self.val = Some(v.clone());
                    eff.send(from, PaxosMsg::TwoB(b, v));
                }
            }

            PaxosMsg::TwoB(b, v) => {
                if self.my_ballot == Some(b)
                    && self.proposal.as_ref() == Some(&v)
                    && self.decided.is_none()
                {
                    self.twobs.insert(from);
                    if self.twobs.len() >= self.cfg.slow_quorum() {
                        record_decision(
                            &mut self.decided,
                            self.me,
                            &self.obs,
                            v.clone(),
                            Path::Slow,
                            eff,
                        );
                        eff.broadcast_others(PaxosMsg::Decide(v), self.cfg.n(), self.me);
                    }
                }
            }

            PaxosMsg::Decide(v) => {
                record_decision(&mut self.decided, self.me, &self.obs, v, Path::Learned, eff);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, eff: &mut Effects<V, PaxosMsg<V>>) {
        match timer {
            TimerId::HEARTBEAT | TimerId::SUSPECT => {
                if let Some(leader) = self.omega.on_timer(timer, PaxosMsg::Heartbeat, eff) {
                    self.obs.leader_changed(self.me, leader);
                }
            }
            TimerId::NEW_BALLOT => {
                eff.set_timer(TimerId::NEW_BALLOT, BALLOT_RETRY);
                if let Some(v) = self.decided.clone() {
                    eff.broadcast_others(PaxosMsg::Decide(v), self.cfg.n(), self.me);
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

    fn cfg5() -> SystemConfig {
        SystemConfig::new(5, 1, 2).unwrap()
    }

    #[test]
    fn stable_leader_decides_in_two_delays() {
        let cfg = cfg5();
        let outcome = SyncRunner::new(cfg).run(|q| Paxos::new(cfg, q, u64::from(q.as_u32())));
        assert_eq!(outcome.decision_of(p(0)), Some(&0));
        assert_eq!(
            outcome.decision_time_of(p(0)),
            Some(Time::ZERO + Duration::deltas(2))
        );
        // Followers learn one delay later.
        for i in 1..5 {
            assert_eq!(outcome.decision_of(p(i)), Some(&0));
            assert_eq!(
                outcome.decision_time_of(p(i)),
                Some(Time::ZERO + Duration::deltas(3))
            );
        }
        assert!(outcome.agreement());
    }

    #[test]
    fn leader_crash_delays_decision_beyond_two_delta() {
        let cfg = cfg5();
        let crashed: ProcessSet = [p(0)].into_iter().collect();
        let outcome = SyncRunner::new(cfg)
            .crashed(crashed)
            .horizon(Duration::deltas(60))
            .run(|q| Paxos::new(cfg, q, u64::from(q.as_u32())));
        assert!(outcome.all_correct_decided(), "new leader must take over");
        assert!(outcome.agreement());
        let (fast, _) = outcome.fast_deciders();
        assert!(
            fast.is_empty(),
            "Paxos cannot be two-step without its leader"
        );
        // The decision is the new leader's value (p1), proposed fresh.
        assert_eq!(*outcome.decided_values()[0], 1);
    }

    #[test]
    fn non_leader_crashes_tolerated_up_to_f() {
        let cfg = cfg5();
        let crashed: ProcessSet = [p(3), p(4)].into_iter().collect();
        let outcome = SyncRunner::new(cfg)
            .crashed(crashed)
            .horizon(Duration::deltas(30))
            .run(|q| Paxos::new(cfg, q, u64::from(q.as_u32())));
        assert!(outcome.all_correct_decided());
        assert_eq!(*outcome.decided_values()[0], 0, "leader's value wins");
    }

    #[test]
    fn value_adoption_across_ballots() {
        // Leader p0 decides 0; p0's Decide is only partially delivered
        // (we crash p0 right after phase 2 completes at the leader);
        // the next leader must adopt 0, not its own value.
        let cfg = cfg5();
        let outcome = SimulationBuilder::new(cfg)
            .crash_at(p(0), Time::ZERO + Duration::deltas(2))
            .build(|q| Paxos::new(cfg, q, u64::from(q.as_u32())))
            .run_until_all_decided(Time::ZERO + Duration::deltas(60));
        // p0 decided at exactly 2Δ (deliveries beat the crash? crash is
        // class 0 — it precedes deliveries at 2Δ, so p0 never decides).
        // Either way: acceptors voted 0 in ballot 5, so any later ballot
        // must re-propose 0.
        let decisions = outcome.trace.decisions();
        assert!(!decisions.is_empty());
        for (_, v, _) in &decisions {
            assert_eq!(*v, 0, "phase-1 adoption must preserve the voted value");
        }
        assert!(outcome.all_correct_decided());
    }

    #[test]
    fn randomized_schedules_agree() {
        for seed in 0u64..10 {
            let cfg = cfg5();
            let outcome = SimulationBuilder::new(cfg)
                .delay_model(twostep_sim::RandomDelay::sub_delta(seed))
                .delivery_order(twostep_sim::DeliveryOrder::randomized(seed))
                .build(|q| Paxos::new(cfg, q, u64::from(q.as_u32())))
                .run_until_all_decided(Time::ZERO + Duration::deltas(100));
            assert!(outcome.agreement(), "seed {seed}");
            assert!(outcome.all_correct_decided(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_process_panics() {
        let _ = Paxos::new(cfg5(), p(7), 0u64);
    }
}
