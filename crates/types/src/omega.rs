//! The Ω leader-election service (§C.1), one for every protocol.
//!
//! Under partial synchrony Ω is implementable with heartbeats (Chandra &
//! Toueg): every process periodically broadcasts a beacon; a process
//! suspects the peers it has not heard from recently and trusts the
//! lowest-id unsuspected process. After GST all correct processes hear
//! each other within `Δ`, so they converge on the same correct leader —
//! which is all the protocol needs for Termination.
//!
//! Five protocols run this one Ω, each with its own beacon message:
//! the paper's `TwoStep` (task and object) in `twostep-core`, `Paxos`,
//! `FastPaxos` and `FastBft` in `twostep-baselines`, and the SMR
//! replica, which runs one Ω for all its slot instances and hands them
//! its leader as the hint of a [`OmegaMode::Static`] Ω. [`Omega::start`]
//! and [`Omega::on_timer`] own the beacon and sweep timers
//! ([`TimerId::HEARTBEAT`], [`TimerId::SUSPECT`]) and their periods.
//!
//! [`OmegaMode::Static`] pins the leader and suppresses heartbeat
//! traffic, for deterministic tests and the model checker.
//! [`Omega::with_rotation`] shifts the preference order, so sharded
//! deployments spread their group leaders over the nodes.

use crate::protocol::{Effects, TimerId};
use crate::{Duration, ProcessId, ProcessSet, DELTA};

/// Beacon period.
const HEARTBEAT_PERIOD: Duration = DELTA;
/// Suspicion-sweep period (must exceed the heartbeat period plus `Δ`).
const SUSPECT_PERIOD: Duration = Duration::deltas(3);

/// How the Ω service obtains its leader estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OmegaMode {
    /// Heartbeat-based failure detection (the real mechanism).
    Heartbeats,
    /// A fixed leader; no heartbeats are exchanged. Only for tests and
    /// experiments that control crashes explicitly.
    Static(ProcessId),
}

/// Per-process Ω state.
///
/// # Example
///
/// ```rust
/// use twostep_types::{Omega, OmegaMode, ProcessId};
///
/// let mut omega = Omega::new(ProcessId::new(2), 4, OmegaMode::Heartbeats);
/// assert_eq!(omega.leader(), ProcessId::new(0)); // everyone trusted at start
///
/// // One sweep with only p2 (self) and p3 heard: p0, p1 become suspects.
/// omega.observe(ProcessId::new(3));
/// omega.sweep();
/// assert_eq!(omega.leader(), ProcessId::new(2));
/// ```
#[derive(Debug, Clone, Hash)]
pub struct Omega {
    me: ProcessId,
    n: usize,
    mode: OmegaMode,
    rotation: u32,
    heard: ProcessSet,
    suspected: ProcessSet,
}

impl Omega {
    /// Creates the Ω state for process `me` in a system of `n`.
    pub fn new(me: ProcessId, n: usize, mode: OmegaMode) -> Self {
        Self::with_rotation(me, n, mode, 0)
    }

    /// Creates the Ω state with a rotated preference order: in heartbeat
    /// mode the leader is the first *unsuspected* process scanning ids
    /// cyclically from `rotation % n` (so with nothing suspected the
    /// leader is `rotation % n` itself). Sharded deployments use this to
    /// spread the per-group leaders round-robin across the nodes while
    /// keeping the failure-detection behaviour identical: every correct
    /// process still converges on the same leader after GST, because
    /// they scan the same cyclic order over the same suspicion sets.
    /// `rotation = 0` reproduces [`Omega::new`] exactly (lowest-id
    /// unsuspected).
    pub fn with_rotation(me: ProcessId, n: usize, mode: OmegaMode, rotation: u32) -> Self {
        Omega {
            me,
            n,
            mode,
            rotation: rotation % n as u32,
            heard: ProcessSet::new(),
            suspected: ProcessSet::new(),
        }
    }

    /// The mode this instance runs in.
    pub fn mode(&self) -> OmegaMode {
        self.mode
    }

    /// Whether heartbeat traffic should be generated.
    pub fn uses_heartbeats(&self) -> bool {
        matches!(self.mode, OmegaMode::Heartbeats)
    }

    /// Starts the failure detector at process startup: in heartbeat
    /// mode, sends `beacon` to every peer and arms the beacon timer at
    /// `Δ` and the sweep timer at `3Δ`. A static Ω does nothing.
    pub fn start<V, M: Clone>(&self, beacon: M, eff: &mut Effects<V, M>) {
        if self.uses_heartbeats() {
            eff.broadcast_others(beacon, self.n, self.me);
            eff.set_timer(TimerId::HEARTBEAT, HEARTBEAT_PERIOD);
            eff.set_timer(TimerId::SUSPECT, SUSPECT_PERIOD);
        }
    }

    /// Runs a fired Ω timer: [`TimerId::HEARTBEAT`] sends `beacon` to
    /// every peer, [`TimerId::SUSPECT`] sweeps, and either re-arms
    /// itself. Returns the new leader when the sweep changed it, for the
    /// caller to report to its observer. Any other timer is ignored.
    pub fn on_timer<V, M: Clone>(
        &mut self,
        timer: TimerId,
        beacon: M,
        eff: &mut Effects<V, M>,
    ) -> Option<ProcessId> {
        match timer {
            TimerId::HEARTBEAT => {
                eff.broadcast_others(beacon, self.n, self.me);
                eff.set_timer(TimerId::HEARTBEAT, HEARTBEAT_PERIOD);
                None
            }
            TimerId::SUSPECT => {
                let before = self.leader();
                self.sweep();
                eff.set_timer(TimerId::SUSPECT, SUSPECT_PERIOD);
                let after = self.leader();
                (after != before).then_some(after)
            }
            _ => None,
        }
    }

    /// Records evidence that `q` is alive (any message counts, not just
    /// heartbeats). A static Ω keeps no evidence.
    pub fn observe(&mut self, q: ProcessId) {
        if self.uses_heartbeats() {
            self.heard.insert(q);
        }
    }

    /// Periodic suspicion sweep: peers not heard from since the previous
    /// sweep become suspects; the evidence window resets. No-op for a
    /// static Ω.
    pub fn sweep(&mut self) {
        if let OmegaMode::Static(_) = self.mode {
            return;
        }
        let mut trusted = self.heard;
        trusted.insert(self.me);
        self.suspected = trusted.complement(self.n);
        self.heard = ProcessSet::new();
    }

    /// The current leader estimate: the first unsuspected process in
    /// cyclic id order starting from the rotation offset (the lowest-id
    /// unsuspected process when the rotation is 0, the default).
    pub fn leader(&self) -> ProcessId {
        match self.mode {
            OmegaMode::Static(p) => p,
            OmegaMode::Heartbeats => {
                let trusted = self.suspected.complement(self.n);
                (0..self.n as u32)
                    .map(|k| ProcessId::new((self.rotation + k) % self.n as u32))
                    .find(|&p| trusted.contains(p))
                    .unwrap_or(self.me)
            }
        }
    }

    /// The rotation offset this instance scans from.
    pub fn rotation(&self) -> u32 {
        self.rotation
    }

    /// Whether this process currently believes itself to be the leader.
    pub fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    /// The currently suspected processes.
    pub fn suspected(&self) -> ProcessSet {
        self.suspected
    }

    /// Overrides the pinned leader of a [`OmegaMode::Static`] instance.
    ///
    /// Used by layers that run their own failure detection (e.g. the SMR
    /// replica, which maintains one Ω for all its consensus instances)
    /// and feed the elected leader down to statically-configured
    /// instances. No-op in heartbeat mode.
    pub fn set_static_leader(&mut self, leader: ProcessId) {
        if let OmegaMode::Static(p) = &mut self.mode {
            *p = leader;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn initial_leader_is_p0() {
        let omega = Omega::new(p(3), 5, OmegaMode::Heartbeats);
        assert_eq!(omega.leader(), p(0));
        assert!(!omega.is_leader());
        assert!(omega.suspected().is_empty());
    }

    #[test]
    fn static_mode_ignores_observe_and_sweep() {
        let mut omega = Omega::new(p(0), 5, OmegaMode::Static(p(4)));
        let pristine = format!("{omega:?}");
        assert_eq!(omega.leader(), p(4));
        assert!(!omega.uses_heartbeats());
        for q in 0..5 {
            omega.observe(p(q));
        }
        omega.sweep();
        omega.sweep();
        assert_eq!(omega.leader(), p(4));
        assert!(omega.suspected().is_empty());
        assert_eq!(format!("{omega:?}"), pristine, "no evidence was kept");
    }

    #[test]
    fn static_mode_starts_silent() {
        let omega = Omega::new(p(1), 3, OmegaMode::Static(p(0)));
        let mut eff: Effects<u64, &str> = Effects::new();
        omega.start("beacon", &mut eff);
        assert!(eff.is_empty());
    }

    #[test]
    fn start_beacons_the_peers_and_arms_both_timers() {
        let omega = Omega::new(p(1), 3, OmegaMode::Heartbeats);
        let mut eff: Effects<u64, &str> = Effects::new();
        omega.start("beacon", &mut eff);
        assert_eq!(eff.sends, vec![(p(0), "beacon"), (p(2), "beacon")]);
        assert_eq!(
            eff.timer_sets,
            vec![
                (TimerId::HEARTBEAT, Duration::deltas(1)),
                (TimerId::SUSPECT, Duration::deltas(3)),
            ]
        );
    }

    #[test]
    fn timers_rebeacon_sweep_and_rearm() {
        let mut omega = Omega::new(p(1), 3, OmegaMode::Heartbeats);
        let mut eff: Effects<u64, &str> = Effects::new();
        assert_eq!(omega.on_timer(TimerId::HEARTBEAT, "beacon", &mut eff), None);
        assert_eq!(eff.sends, vec![(p(0), "beacon"), (p(2), "beacon")]);
        assert_eq!(
            eff.timer_sets,
            vec![(TimerId::HEARTBEAT, Duration::deltas(1))]
        );

        // Nothing heard from p0: the sweep elects p1 and says so, once.
        let mut eff: Effects<u64, &str> = Effects::new();
        omega.observe(p(2));
        assert_eq!(
            omega.on_timer(TimerId::SUSPECT, "beacon", &mut eff),
            Some(p(1))
        );
        assert!(eff.sends.is_empty(), "a sweep sends nothing");
        assert_eq!(
            eff.timer_sets,
            vec![(TimerId::SUSPECT, Duration::deltas(3))]
        );
        assert_eq!(omega.on_timer(TimerId::SUSPECT, "beacon", &mut eff), None);

        let mut eff: Effects<u64, &str> = Effects::new();
        assert_eq!(
            omega.on_timer(TimerId::NEW_BALLOT, "beacon", &mut eff),
            None
        );
        assert!(eff.is_empty(), "not an Ω timer");
    }

    #[test]
    fn sweep_suspects_silent_peers() {
        let mut omega = Omega::new(p(2), 4, OmegaMode::Heartbeats);
        omega.observe(p(0));
        omega.observe(p(3));
        omega.sweep();
        // p1 silent → suspected; leader is lowest unsuspected = p0.
        assert!(omega.suspected().contains(p(1)));
        assert_eq!(omega.leader(), p(0));

        // Next window: p0 goes silent too.
        omega.observe(p(3));
        omega.sweep();
        assert!(omega.suspected().contains(p(0)));
        assert_eq!(omega.leader(), p(2), "self is never suspected");
        assert!(omega.is_leader());
    }

    #[test]
    fn recovery_after_silence() {
        let mut omega = Omega::new(p(1), 3, OmegaMode::Heartbeats);
        omega.sweep(); // nobody heard: suspect all others
        assert_eq!(omega.leader(), p(1));
        omega.observe(p(0));
        omega.sweep();
        assert_eq!(omega.leader(), p(0), "p0 trusted again after beacon");
    }

    #[test]
    fn rotation_shifts_the_initial_leader() {
        for r in 0..5u32 {
            let omega = Omega::with_rotation(p(0), 5, OmegaMode::Heartbeats, r);
            assert_eq!(omega.leader(), p(r), "nothing suspected: leader = rotation");
        }
        // Rotation is reduced mod n.
        let omega = Omega::with_rotation(p(0), 5, OmegaMode::Heartbeats, 7);
        assert_eq!(omega.leader(), p(2));
        assert_eq!(omega.rotation(), 2);
    }

    #[test]
    fn rotated_leader_skips_suspects_cyclically() {
        let mut omega = Omega::with_rotation(p(0), 4, OmegaMode::Heartbeats, 3);
        assert_eq!(omega.leader(), p(3));
        // p3 goes silent: the scan wraps to p0.
        omega.observe(p(1));
        omega.observe(p(2));
        omega.sweep();
        assert!(omega.suspected().contains(p(3)));
        assert_eq!(omega.leader(), p(0), "cyclic scan wraps past the suspect");

        // Everyone but self silent: self wins regardless of rotation.
        omega.sweep();
        assert_eq!(omega.leader(), p(0));
    }

    #[test]
    fn zero_rotation_matches_lowest_id_rule() {
        let mut rotated = Omega::with_rotation(p(2), 4, OmegaMode::Heartbeats, 0);
        let mut plain = Omega::new(p(2), 4, OmegaMode::Heartbeats);
        for round in 0..3 {
            if round != 1 {
                rotated.observe(p(0));
                plain.observe(p(0));
            }
            rotated.observe(p(3));
            plain.observe(p(3));
            rotated.sweep();
            plain.sweep();
            assert_eq!(rotated.leader(), plain.leader());
        }
    }

    #[test]
    fn evidence_window_resets_each_sweep() {
        let mut omega = Omega::new(p(0), 3, OmegaMode::Heartbeats);
        omega.observe(p(1));
        omega.sweep();
        assert!(!omega.suspected().contains(p(1)));
        // No new evidence in this window.
        omega.sweep();
        assert!(omega.suspected().contains(p(1)));
    }
}
