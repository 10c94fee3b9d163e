//! EPaxos-lite: a single-shot reduction of Egalitarian Paxos's
//! per-command commit protocol (Moraru, Andersen, Kaminsky; SOSP 2013).
//!
//! The paper's motivating observation is that EPaxos commits commands in
//! two message delays under `e = ⌈(f+1)/2⌉` failures with only
//! `n = 2f+1 = 2e+f-1` processes, seemingly contradicting Lamport's
//! `2e+f+1` bound. This module reproduces exactly that datapoint: the
//! commit path of one command.
//!
//! Flow (for one command proposed at its *command leader* `L`):
//!
//! 1. `L` broadcasts `PreAccept(cmd, deps)` with its local dependency
//!    set (the commands it has seen).
//! 2. Each replica merges the command into its interference record and
//!    replies with its own view of the dependencies.
//! 3. If a **fast quorum** of `f + ⌊(f+1)/2⌋` replies (counting `L`)
//!    all match `L`'s dependencies, the command **commits fast** — two
//!    message delays.
//! 4. Otherwise `L` runs an **Accept** round on the union of the
//!    reported dependencies with a majority quorum, then commits — four
//!    message delays.
//!
//! Scope (documented substitution, see `DESIGN.md`): recovery of a
//! *crashed command leader* — EPaxos §4.7 — is not implemented; the
//! experiments never crash a command leader mid-commit. Note also that
//! `decision()` here means "own command committed (with its deps)":
//! EPaxos is a replication protocol, not single-decree consensus, so
//! different processes legitimately "decide" different commands; the
//! consensus-style agreement checkers do not apply. What must agree is
//! the *committed dependency set per command*, which
//! [`EPaxosLite::committed_deps`] exposes for the tests.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use twostep_telemetry::{ObserverHandle, Path};
use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::relabel::RelabelHash;
use twostep_types::{ProcessId, ProcessSet, SystemConfig, Value};

/// EPaxos-lite wire messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(bound(deserialize = "V: serde::de::DeserializeOwned + Ord"))]
pub enum EPaxosMsg<V: Ord> {
    /// Leader → replicas: command plus the leader's dependency view.
    PreAccept(V, BTreeSet<V>),
    /// Replica → leader: the replica's dependency view of the command.
    PreAcceptOk(V, BTreeSet<V>),
    /// Leader → replicas: slow-path dependency fixpoint.
    Accept(V, BTreeSet<V>),
    /// Replica → leader: slow-path acknowledgement.
    AcceptOk(V),
    /// Leader → replicas: the command is committed with these deps.
    Commit(V, BTreeSet<V>),
}

// The model checker's symmetry reduction asks message payloads for a
// relabeled content hash; declining every permutation but the identity
// (the [`RelabelHash`] default) soundly degrades symmetry to the
// identity for this baseline.
impl<V: Ord + std::fmt::Debug> RelabelHash for EPaxosMsg<V> {}

/// How a command committed (latency class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPath {
    /// Fast path: one round trip (two message delays).
    Fast,
    /// Slow path: PreAccept + Accept (four message delays).
    Slow,
}

/// A single-shot EPaxos commit instance at one replica.
///
/// Construct with [`EPaxosLite::new`]; the process proposes its command
/// when `propose(v)` is invoked (or never).
///
/// # Example
///
/// ```rust
/// use twostep_baselines::EPaxosLite;
/// use twostep_sim::SyncRunner;
/// use twostep_types::{ProcessId, SystemConfig, Time, Duration};
///
/// // n = 2f+1 = 5, e = ceil((f+1)/2) = 2: the paper's EPaxos datapoint.
/// let cfg = SystemConfig::new(5, 2, 2)?;
/// let leader = ProcessId::new(0);
/// let outcome = SyncRunner::new(cfg).run_object(
///     |p| EPaxosLite::<u64>::new(cfg, p),
///     vec![(leader, 9, Time::ZERO)],
/// );
/// // Conflict-free: commits fast, at 2Δ.
/// assert_eq!(
///     outcome.decision_time_of(leader),
///     Some(Time::ZERO + Duration::deltas(2))
/// );
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EPaxosLite<V: Ord> {
    cfg: SystemConfig,
    me: ProcessId,
    /// Commands this replica has seen (interference record).
    seen: BTreeSet<V>,
    /// Own command, once proposed.
    cmd: Option<V>,
    /// Leader state: dependency view sent with our PreAccept.
    my_deps: BTreeSet<V>,
    /// Leader state: replies (deps per replica), self included.
    preaccept_deps: BTreeMap<ProcessId, BTreeSet<V>>,
    accept_acks: ProcessSet,
    accept_deps: BTreeSet<V>,
    phase: Phase,
    commit_path: Option<CommitPath>,
    /// Committed commands (own and others') with their final deps.
    committed: BTreeMap<V, BTreeSet<V>>,
    /// Telemetry hooks; detached by default (see [`EPaxosLite::observed`]).
    obs: ObserverHandle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    PreAccepting,
    Accepting,
    Committed,
}

impl<V: Value> EPaxosLite<V> {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range, or if `cfg` is not a bare-majority
    /// configuration (`n = 2f+1`, the regime EPaxos runs in).
    pub fn new(cfg: SystemConfig, me: ProcessId) -> Self {
        assert!(me.index() < cfg.n(), "process {me} out of range for {cfg}");
        // Bare majority by construction; `2f+1` cannot overflow for any
        // n that fits in a ProcessSet (n <= 64).
        assert_eq!(cfg.n(), 2 * cfg.f() + 1, "EPaxos runs with n = 2f+1");
        EPaxosLite {
            cfg,
            me,
            seen: BTreeSet::new(),
            cmd: None,
            my_deps: BTreeSet::new(),
            preaccept_deps: BTreeMap::new(),
            accept_acks: ProcessSet::new(),
            accept_deps: BTreeSet::new(),
            phase: Phase::Idle,
            commit_path: None,
            committed: BTreeMap::new(),
            obs: ObserverHandle::none(),
        }
    }

    /// Attaches telemetry hooks (builder style). A fast commit reports
    /// [`Path::Fast`]; a slow (PreAccept + Accept) commit reports
    /// [`Path::Slow`]. Entering the Accept round also reports
    /// `slow_path_entered`.
    #[must_use]
    pub fn observed(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// EPaxos's fast-quorum size: `f + ⌊(f+1)/2⌋` (including the
    /// command leader).
    pub fn fast_quorum(cfg: &SystemConfig) -> usize {
        // Both terms are <= f <= 31 and the sum is <= n: no overflow or
        // underflow.
        cfg.f() + cfg.f().div_ceil(2)
    }

    /// The number of crashes under which the fast path still works:
    /// `n - fast_quorum = ⌈(f+1)/2⌉`.
    pub fn fast_tolerance(cfg: &SystemConfig) -> usize {
        // fast_quorum <= 2f < 2f+1 = n (asserted in `new`): no underflow.
        cfg.n() - Self::fast_quorum(cfg)
    }

    /// How our command committed, if it has.
    pub fn commit_path(&self) -> Option<CommitPath> {
        self.commit_path
    }

    /// The committed dependency set of `cmd`, if this replica knows it.
    pub fn committed_deps(&self, cmd: &V) -> Option<&BTreeSet<V>> {
        self.committed.get(cmd)
    }

    /// All commands this replica has seen.
    pub fn seen(&self) -> &BTreeSet<V> {
        &self.seen
    }

    fn commit(
        &mut self,
        cmd: V,
        deps: BTreeSet<V>,
        path: CommitPath,
        eff: &mut Effects<V, EPaxosMsg<V>>,
    ) {
        self.committed.insert(cmd.clone(), deps.clone());
        self.phase = Phase::Committed;
        self.commit_path = Some(path);
        self.obs.decided(
            self.me,
            match path {
                CommitPath::Fast => Path::Fast,
                CommitPath::Slow => Path::Slow,
            },
        );
        eff.decide(cmd.clone());
        eff.broadcast_others(EPaxosMsg::Commit(cmd, deps), self.cfg.n(), self.me);
    }
}

impl<V: Value> Protocol<V> for EPaxosLite<V> {
    type Message = EPaxosMsg<V>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_start(&mut self, _eff: &mut Effects<V, EPaxosMsg<V>>) {}

    fn on_propose(&mut self, value: V, eff: &mut Effects<V, EPaxosMsg<V>>) {
        if self.cmd.is_some() {
            return; // one command per instance
        }
        self.cmd = Some(value.clone());
        self.my_deps = self.seen.clone();
        self.seen.insert(value.clone());
        self.phase = Phase::PreAccepting;
        // The leader counts as one fast-quorum member with deps =
        // my_deps.
        self.preaccept_deps.insert(self.me, self.my_deps.clone());
        eff.broadcast_others(
            EPaxosMsg::PreAccept(value, self.my_deps.clone()),
            self.cfg.n(),
            self.me,
        );
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: EPaxosMsg<V>,
        eff: &mut Effects<V, EPaxosMsg<V>>,
    ) {
        match msg {
            EPaxosMsg::PreAccept(cmd, leader_deps) => {
                // Merge: deps = leader's deps ∪ everything we've seen
                // that isn't the command itself.
                let mut deps = leader_deps;
                for c in &self.seen {
                    if *c != cmd {
                        deps.insert(c.clone());
                    }
                }
                self.seen.insert(cmd.clone());
                eff.send(from, EPaxosMsg::PreAcceptOk(cmd, deps));
            }

            EPaxosMsg::PreAcceptOk(cmd, deps) => {
                if self.phase != Phase::PreAccepting || self.cmd.as_ref() != Some(&cmd) {
                    return;
                }
                self.preaccept_deps.insert(from, deps);
                let fq = Self::fast_quorum(&self.cfg);
                if self.preaccept_deps.len() >= fq {
                    // Fast path: the first fq replies must unanimously
                    // match the leader's deps.
                    let unanimous = self.preaccept_deps.values().all(|d| *d == self.my_deps);
                    if unanimous {
                        self.commit(cmd, self.my_deps.clone(), CommitPath::Fast, eff);
                    } else {
                        // Slow path: fix the union and run Accept.
                        let union: BTreeSet<V> = self
                            .preaccept_deps
                            .values()
                            .flat_map(|d| d.iter().cloned())
                            .collect();
                        self.obs.slow_path_entered(self.me);
                        self.phase = Phase::Accepting;
                        self.accept_deps = union.clone();
                        self.accept_acks = ProcessSet::new();
                        self.accept_acks.insert(self.me);
                        eff.broadcast_others(EPaxosMsg::Accept(cmd, union), self.cfg.n(), self.me);
                    }
                }
            }

            EPaxosMsg::Accept(cmd, deps) => {
                self.seen.insert(cmd.clone());
                for c in &deps {
                    self.seen.insert(c.clone());
                }
                eff.send(from, EPaxosMsg::AcceptOk(cmd));
            }

            EPaxosMsg::AcceptOk(cmd) => {
                if self.phase != Phase::Accepting || self.cmd.as_ref() != Some(&cmd) {
                    return;
                }
                self.accept_acks.insert(from);
                if self.accept_acks.len() > self.cfg.f() {
                    let deps = self.accept_deps.clone();
                    self.commit(cmd, deps, CommitPath::Slow, eff);
                }
            }

            EPaxosMsg::Commit(cmd, deps) => {
                self.seen.insert(cmd.clone());
                self.committed.insert(cmd, deps);
            }
        }
    }

    fn on_timer(&mut self, _timer: TimerId, _eff: &mut Effects<V, EPaxosMsg<V>>) {}

    fn decision(&self) -> Option<V> {
        // "Decision" = own command committed (latency probe; see module
        // docs — this is not single-decree consensus agreement).
        match self.phase {
            Phase::Committed => self.cmd.clone(),
            Phase::Idle | Phase::PreAccepting | Phase::Accepting => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_sim::SyncRunner;
    use twostep_types::{Duration, Time};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn cfg5() -> SystemConfig {
        // f = 2, e = ceil((f+1)/2) = 2, n = 2f+1 = 5.
        SystemConfig::new(5, 2, 2).unwrap()
    }

    #[test]
    fn quorum_arithmetic_matches_the_paper() {
        let cfg = cfg5();
        assert_eq!(EPaxosLite::<u64>::fast_quorum(&cfg), 3); // f + floor((f+1)/2) = 2+1
        assert_eq!(EPaxosLite::<u64>::fast_tolerance(&cfg), 2); // = e
                                                                // And the headline identity: n = 2e+f-1.
        assert_eq!(cfg.n(), 2 * 2 + 2 - 1);
    }

    #[test]
    fn conflict_free_commit_is_fast_at_two_delta() {
        let cfg = cfg5();
        let outcome = SyncRunner::new(cfg).run_object(
            |q| EPaxosLite::<u64>::new(cfg, q),
            vec![(p(0), 9, Time::ZERO)],
        );
        assert_eq!(
            outcome.decision_time_of(p(0)),
            Some(Time::ZERO + Duration::deltas(2))
        );
        assert_eq!(outcome.procs[0].commit_path(), Some(CommitPath::Fast));
        assert_eq!(outcome.procs[0].committed_deps(&9), Some(&BTreeSet::new()));
    }

    #[test]
    fn fast_commit_survives_e_crashes() {
        // e = 2 crashes: fast quorum of 3 (leader + 2) still reachable.
        let cfg = cfg5();
        let crashed: ProcessSet = [p(3), p(4)].into_iter().collect();
        let outcome = SyncRunner::new(cfg).crashed(crashed).run_object(
            |q| EPaxosLite::<u64>::new(cfg, q),
            vec![(p(0), 9, Time::ZERO)],
        );
        assert_eq!(
            outcome.decision_time_of(p(0)),
            Some(Time::ZERO + Duration::deltas(2))
        );
        assert_eq!(outcome.procs[0].commit_path(), Some(CommitPath::Fast));
    }

    #[test]
    fn beyond_e_crashes_no_fast_commit() {
        let cfg = cfg5();
        let crashed: ProcessSet = [p(2), p(3), p(4)].into_iter().collect();
        let outcome = SyncRunner::new(cfg)
            .crashed(crashed)
            .horizon(Duration::deltas(10))
            .run_object(
                |q| EPaxosLite::<u64>::new(cfg, q),
                vec![(p(0), 9, Time::ZERO)],
            );
        assert_eq!(
            outcome.decision_of(p(0)),
            None,
            "3 > e crashes leave the fast quorum unreachable (and f is exceeded)"
        );
    }

    #[test]
    fn concurrent_conflicting_commands_take_the_slow_path() {
        let cfg = cfg5();
        let outcome = SyncRunner::new(cfg)
            .horizon(Duration::deltas(10))
            .run_object(
                |q| EPaxosLite::<u64>::new(cfg, q),
                vec![(p(0), 9, Time::ZERO), (p(4), 5, Time::ZERO)],
            );
        // Both commit, but at least one saw interference: the replicas
        // reached by both PreAccepts report the other command in deps.
        assert!(outcome.decision_of(p(0)).is_some());
        assert!(outcome.decision_of(p(4)).is_some());
        let paths = [
            outcome.procs[0].commit_path(),
            outcome.procs[4].commit_path(),
        ];
        assert!(
            paths.contains(&Some(CommitPath::Slow)),
            "interference must push someone onto the slow path, got {paths:?}"
        );
        // Dependency agreement: every replica that knows a command's
        // committed deps knows the same set.
        for cmd in [9u64, 5] {
            let views: Vec<_> = outcome
                .procs
                .iter()
                .filter_map(|r| r.committed_deps(&cmd))
                .collect();
            assert!(!views.is_empty());
            assert!(
                views.windows(2).all(|w| w[0] == w[1]),
                "deps of {cmd} diverged"
            );
        }
        // And the dependency graph is not empty: at least one of the two
        // commands depends on the other (possibly both — that is the
        // cycle EPaxos breaks at execution time by sequence numbers).
        let dep_edges = [9u64, 5]
            .iter()
            .filter_map(|c| {
                outcome.procs[0]
                    .committed_deps(c)
                    .or(outcome.procs[4].committed_deps(c))
            })
            .map(|d| d.len())
            .sum::<usize>();
        assert!(dep_edges >= 1);
    }

    #[test]
    fn sequential_commands_stay_fast() {
        // A command proposed after the first one committed everywhere
        // sees consistent deps {first} and takes the fast path.
        let cfg = cfg5();
        let outcome = SyncRunner::new(cfg)
            .horizon(Duration::deltas(20))
            .run_object(
                |q| EPaxosLite::<u64>::new(cfg, q),
                vec![
                    (p(0), 9, Time::ZERO),
                    (p(4), 5, Time::ZERO + Duration::deltas(4)),
                ],
            );
        assert_eq!(outcome.procs[0].commit_path(), Some(CommitPath::Fast));
        assert_eq!(outcome.procs[4].commit_path(), Some(CommitPath::Fast));
        let deps = outcome.procs[4].committed_deps(&5).unwrap();
        assert!(deps.contains(&9), "second command must depend on the first");
    }

    #[test]
    fn repeat_propose_is_ignored() {
        let cfg = cfg5();
        let mut r = EPaxosLite::<u64>::new(cfg, p(0));
        let mut eff = Effects::new();
        r.on_propose(1, &mut eff);
        let sends = eff.sends.len();
        let mut eff2 = Effects::new();
        r.on_propose(2, &mut eff2);
        assert!(eff2.sends.is_empty());
        assert_eq!(sends, 4);
    }

    #[test]
    #[should_panic(expected = "n = 2f+1")]
    fn non_bare_majority_config_rejected() {
        let cfg = SystemConfig::new(7, 2, 2).unwrap();
        let _ = EPaxosLite::<u64>::new(cfg, p(0));
    }
}
