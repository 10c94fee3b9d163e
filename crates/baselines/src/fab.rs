//! A FaB-Paxos-style fast Byzantine consensus baseline.
//!
//! Martin & Alvisi's *Fast Byzantine Consensus* (FaB Paxos, DSN'05 /
//! TDSC'06) decides in two message delays — proposer broadcast, then
//! one round of acceptor echoes — without signatures in the common
//! case, at the price of larger quorums: fast quorums of
//! `⌈(n+3f+1)/2⌉`, available under `f` Byzantine faults iff
//! `n ≥ 5f+1`. Kuznetsov, Tonkikh & Zhang (arXiv:2102.12825) shave two
//! processes by conditioning the fast path on an honest proposer
//! (`⌈(n+3f−1)/2⌉` quorums, `n ≥ 5f−1` — optimal). [`FastBft`]
//! implements both rules, selected by the
//! [`ByzVariant`] inside its [`ByzConfig`].
//!
//! This is the Byzantine sibling of the crash-model baselines: where
//! the paper's protocol two-steps with `max{2e+f, 2f+1}` crash-prone
//! processes, the same latency under Byzantine faults costs `5f+1`
//! (resp. `5f−1`) — the gap experiment E14 measures.
//!
//! **Scope (unsigned common case, certified recovery).** Like FaB's
//! common case, fast-round messages carry no signatures, so safety
//! against *arbitrary* Byzantine behavior holds for acceptors and
//! learners (equivocation, forged echoes, forged fast-round recovery
//! reports, silence — see obligations B1–B5 in `twostep-analysis`).
//! Recovery, as in FaB proper, leans on *signed progress certificates*:
//! a ballot's [`FabMsg::Slow`] proposal, and any later [`FabMsg::Promise`]
//! report quoting it, are certificate-backed and cannot be fabricated —
//! see the [`Corruptible`] impl for the exact modeled surface. What the
//! certificates cannot stop is a Byzantine *recovery leader* proposing a
//! fabricated value to a ballot it owns, so the fuzz campaigns keep `p0`
//! (the ballot-0 proposer and first Ω leader) honest and attack the
//! other roles, matching the honest-proposer conditioning of the `5f−1`
//! variant.

use serde::{Deserialize, Serialize};

use twostep_telemetry::{ObserverHandle, Path};
use twostep_types::protocol::{Effects, Protocol, TimerId, BALLOT_RETRY, INITIAL_BALLOT_DELAY};
use twostep_types::quorum::{Collector, VoteTally};
use twostep_types::relabel::{RelabelHash, Relabeling};
use twostep_types::{
    Ballot, ByzConfig, ByzVariant, Corruptible, Omega, OmegaMode, ProcessId, Value,
};

use crate::record_decision;

/// FaB wire messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FabMsg<V> {
    /// A non-coordinator's proposal, forwarded to the ballot-0
    /// coordinator `p0`.
    Forward(V),
    /// The coordinator's fast-round proposal, broadcast to all
    /// acceptors.
    Fast(V),
    /// An acceptor's echo, broadcast to all learners. `Accepted(0, v)`
    /// votes count toward fast quorums; slow-ballot echoes toward
    /// `n−f` slow quorums.
    Accepted(Ballot, V),
    /// Recovery phase-1: a new leader opens ballot `b`.
    NewBallot(Ballot),
    /// Recovery phase-1 report.
    Promise {
        /// Ballot being joined.
        bal: Ballot,
        /// Last accepted ballot.
        vbal: Ballot,
        /// Last accepted value.
        vval: Option<V>,
        /// The reporter's own proposal. The *coordinator's* copy is
        /// what the [`ByzVariant::Tight`] certification rule reads —
        /// the honest-proposer conditioning of arXiv:2102.12825.
        proposed: Option<V>,
    },
    /// Recovery phase-2: the leader's certified proposal for ballot
    /// `b`.
    Slow(Ballot, V),
    /// Decision gossip.
    Decide(V),
    /// Ω liveness beacon.
    Heartbeat,
}

impl<V: std::hash::Hash + std::fmt::Debug> RelabelHash for FabMsg<V> {
    /// Content hash with every embedded ballot mapped through `rl`.
    /// FaB payloads carry no bare `ProcessId`s; ballots encode their
    /// owner, so a ballot whose owner `rl` moves declines the
    /// permutation (see [`Relabeling::ballot`]). Values are id-free
    /// and hash directly.
    fn relabel_hash(&self, rl: &Relabeling) -> Option<u64> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        match self {
            FabMsg::Forward(v) => {
                0u8.hash(&mut h);
                v.hash(&mut h);
            }
            FabMsg::Fast(v) => {
                1u8.hash(&mut h);
                v.hash(&mut h);
            }
            FabMsg::Accepted(b, v) => {
                2u8.hash(&mut h);
                rl.ballot(*b)?.hash(&mut h);
                v.hash(&mut h);
            }
            FabMsg::NewBallot(b) => {
                3u8.hash(&mut h);
                rl.ballot(*b)?.hash(&mut h);
            }
            FabMsg::Promise {
                bal,
                vbal,
                vval,
                proposed,
            } => {
                4u8.hash(&mut h);
                rl.ballot(*bal)?.hash(&mut h);
                rl.ballot(*vbal)?.hash(&mut h);
                vval.hash(&mut h);
                proposed.hash(&mut h);
            }
            FabMsg::Slow(b, v) => {
                5u8.hash(&mut h);
                rl.ballot(*b)?.hash(&mut h);
                v.hash(&mut h);
            }
            FabMsg::Decide(v) => {
                6u8.hash(&mut h);
                v.hash(&mut h);
            }
            FabMsg::Heartbeat => 7u8.hash(&mut h),
        }
        Some(h.finish())
    }
}

/// [`Corruptible`] plumbing so the `twostep-byz` injector can attack
/// FaB traffic.
///
/// The corruptible surface is exactly the *first-party lies*: a
/// process's own proposals, echoes, fast-round reports, and decide
/// claims — the traffic the `f+1` / quorum thresholds are sized to
/// absorb, since even signatures cannot stop a traitor from signing a
/// lie about its own state. Everything quoting a *ballot leader's*
/// artifact is exempt, because in FaB recovery is backed by *progress
/// certificates* of signed messages a traitor cannot fabricate, and
/// honest processes reject any tampered copy — the injector models
/// that rejection by leaving the fields intact:
///
/// * [`FabMsg::Slow`] entirely: a recovery proposal carries the
///   leader's certificate binding both ballot and value. (Without this
///   a Byzantine recovery leader dictates arbitrary values: Agreement
///   survives but no quorum arithmetic can restore Validity — the
///   Byzantine fuzz campaign demonstrated exactly that before `Slow`
///   was exempted.)
/// * A [`FabMsg::Promise`]'s slow-ballot `(vbal, vval)` pair: the
///   report quotes the certified `Slow(vbal, vval)` it accepted, so a
///   traitor can neither forge the value nor move the ballot. Only its
///   *fast-round* claim (`vbal = 0`, an unsigned echo) and its own
///   `proposed` remain corruptible. This is load-bearing below
///   `n = 4f+1`: the intersection of an accepting quorum with a later
///   promise quorum holds only `n−2f` processes, of which merely
///   `n−3f` are honest — fewer than the `f+1` certification threshold
///   at `n ≤ 4f` — so without the certificate a single forged report
///   could strand an already-decided slow value (the
///   `forged_slow_reports_cannot_break_floor_recovery` test pins the
///   corner).
///
/// Heartbeats carry nothing to corrupt.
impl<V: Corruptible> Corruptible for FabMsg<V> {
    fn forge_value(&mut self, salt: u64) -> bool {
        match self {
            FabMsg::Forward(v) | FabMsg::Fast(v) | FabMsg::Accepted(_, v) | FabMsg::Decide(v) => {
                v.forge_value(salt)
            }
            FabMsg::Promise {
                vbal,
                vval,
                proposed,
                ..
            } => {
                let forged_vval = match vval {
                    // First-party fast-round claim; a slow pair is
                    // pinned to the ballot leader's certificate.
                    Some(v) if vbal.is_fast() => v.forge_value(salt),
                    _ => false,
                };
                let forged_proposed = match proposed {
                    Some(v) => v.forge_value(salt),
                    None => false,
                };
                forged_vval || forged_proposed
            }
            FabMsg::Slow(..) | FabMsg::NewBallot(_) | FabMsg::Heartbeat => false,
        }
    }

    fn lie_ballot(&mut self, salt: u64) -> bool {
        let bump = |b: &mut Ballot| {
            *b = Ballot::new(b.number().wrapping_add(salt % 5 + 1));
        };
        match self {
            FabMsg::Accepted(b, _) | FabMsg::NewBallot(b) => {
                bump(b);
                true
            }
            // Promise: the certificate binds `vbal` to `vval` (see
            // `forge_value`); Slow's certificate binds the ballot as
            // well as the value.
            FabMsg::Promise { .. }
            | FabMsg::Slow(..)
            | FabMsg::Forward(_)
            | FabMsg::Fast(_)
            | FabMsg::Decide(_)
            | FabMsg::Heartbeat => false,
        }
    }
}

/// FaB-style fast Byzantine consensus over `n ≥ 3f+1` processes.
///
/// Every process plays acceptor and learner; `p0` is the ballot-0
/// proposer (FaB's distinguished coordinator) and the first Ω leader:
///
/// * **fast round (ballot 0)** — the coordinator broadcasts its value;
///   an acceptor echoes the first coordinator value it receives to
///   every learner; a learner decides `v` upon a *fast quorum*
///   ([`ByzConfig::fast_quorum`]) of ballot-0 echoes for `v`. With a
///   correct coordinator and ≤ `f` faults this takes two message
///   delays whenever [`ByzConfig::fast_path_live`] holds.
/// * **recovery (slow ballots)** — the Ω leader collects `n−f`
///   [`FabMsg::Promise`] reports (under [`ByzVariant::Tight`], waiting
///   until the coordinator's report is among them) and *certifies* a
///   value: the highest slow ballot with at least `f+1` matching
///   certificate-backed reports wins; otherwise the fast-round value —
///   for [`ByzVariant::Fab`] the one with the most reporters (at least
///   `f+1`), for [`ByzVariant::Tight`] the coordinator's own reported
///   value; otherwise the leader's own proposal. A slow quorum of
///   `n−f` ballot-`b` echoes decides. The `f+1` floor means no
///   collection of first-party lies can certify a value, and the FaB
///   fast-quorum size guarantees a fast-decided value out-counts any
///   forgery.
/// * **decide gossip** — deciders periodically rebroadcast
///   [`FabMsg::Decide`]; a learner adopts a gossiped value only after
///   `f+1` distinct senders report it, so forged decide claims from up
///   to `f` traitors are inert.
///
/// # Example
///
/// ```rust
/// use twostep_baselines::FastBft;
/// use twostep_sim::SyncRunner;
/// use twostep_types::{ByzConfig, ByzVariant, SystemConfig};
///
/// let byz = ByzConfig::minimal_fast(ByzVariant::Fab, 1)?; // n = 6
/// let sim = SystemConfig::new(6, 1, 1)?;
/// let outcome = SyncRunner::new(sim).run(|p| FastBft::new(byz, p, 7u64));
/// let (fast, v) = outcome.fast_deciders();
/// assert_eq!(v, Some(7));
/// assert_eq!(fast.len(), 6, "all learners decide in two steps");
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FastBft<V> {
    cfg: ByzConfig,
    me: ProcessId,
    initial: Option<V>,
    fast_sent: bool,
    // Acceptor state.
    bal: Ballot,
    vbal: Ballot,
    val: Option<V>,
    // Learner state.
    fast_tally: VoteTally<V>,
    slow_ballot_seen: Ballot,
    slow_tally: VoteTally<V>,
    decide_tally: VoteTally<V>,
    decided: Option<V>,
    // Recovery-leader state.
    my_ballot: Option<Ballot>,
    promises: Collector<(Ballot, Option<V>, Option<V>)>,
    phase_one_done: bool,
    /// Heartbeats by default; [`OmegaMode::Static`] once
    /// [`FastBft::pinned_leader`] pins it. With heartbeats every
    /// delivery feeds Ω's evidence, which makes otherwise-identical
    /// states distinct and defeats both the inert-mail scrub and the
    /// symmetry reduction.
    omega: Omega,
    obs: ObserverHandle,
}

/// The ballot-0 coordinator.
const COORDINATOR: ProcessId = ProcessId::new(0);

impl<V: Value> FastBft<V> {
    /// Creates a FaB instance for `me` proposing `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `cfg`. (The configuration is
    /// *not* required to satisfy the `5f+1` / `5f−1` fast-path bound:
    /// experiment E14 and the analysis tightness witnesses run `n = 5f`
    /// on purpose, to watch the fast path die.)
    pub fn new(cfg: ByzConfig, me: ProcessId, initial: V) -> Self {
        let mut fb = Self::passive(cfg, me);
        fb.initial = Some(initial);
        fb
    }

    /// Creates a *passive* instance: acceptor, learner, and potential
    /// recovery leader, but proposes nothing until `propose(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `cfg`.
    pub fn passive(cfg: ByzConfig, me: ProcessId) -> Self {
        assert!(
            me.index() < cfg.n(),
            "process {me} out of range for {cfg:?}"
        );
        FastBft {
            cfg,
            me,
            initial: None,
            fast_sent: false,
            bal: Ballot::FAST,
            vbal: Ballot::FAST,
            val: None,
            fast_tally: VoteTally::new(),
            slow_ballot_seen: Ballot::FAST,
            slow_tally: VoteTally::new(),
            decide_tally: VoteTally::new(),
            decided: None,
            my_ballot: None,
            promises: Collector::new(),
            phase_one_done: false,
            omega: Omega::new(me, cfg.n(), OmegaMode::Heartbeats),
            obs: ObserverHandle::none(),
        }
    }

    /// Pins Ω to `leader` and disables the heartbeat substrate
    /// (builder style): no heartbeat broadcasts, no `HEARTBEAT` /
    /// `SUSPECT` timers, and deliveries no longer feed Ω's evidence.
    /// Used by the model checker, where the failure-detector
    /// machinery is replaced by explicit timer-budget exploration.
    #[must_use]
    pub fn pinned_leader(mut self, leader: ProcessId) -> Self {
        self.omega = Omega::new(self.me, self.cfg.n(), OmegaMode::Static(leader));
        self
    }

    /// Attaches telemetry hooks (builder style). Fast-quorum decisions
    /// report [`Path::Fast`], slow-quorum decisions [`Path::Slow`],
    /// gossip-learned decisions [`Path::Learned`].
    #[must_use]
    pub fn observed(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// The Byzantine configuration in force.
    pub fn config(&self) -> ByzConfig {
        self.cfg
    }

    /// The decision, if reached.
    pub fn decided_value(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    fn check_learned(&mut self, eff: &mut Effects<V, FabMsg<V>>) {
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

    /// Slow certification: the highest slow ballot at which at least
    /// `f+1` reporters agree on a value. A slow-decided value's
    /// accepting quorum meets every later promise quorum in
    /// `2·(n−f)−n = n−2f ≥ f+1` reporters (obligation B5), and each of
    /// those reports is pinned to the ballot leader's certificate (see
    /// the [`Corruptible`] impl) — a Byzantine intersection member can
    /// stay silent, which shrinks the quorum rather than the
    /// intersection, but cannot misreport the pair. Conversely `f`
    /// first-party liars alone can never reach the threshold.
    fn certify_slow(&self) -> Option<V> {
        let mut ballots: Vec<Ballot> = self
            .promises
            .iter()
            .map(|(_, (vbal, _, _))| *vbal)
            .filter(|b| b.is_slow())
            .collect();
        ballots.sort_unstable();
        ballots.dedup();
        for b in ballots.into_iter().rev() {
            let mut tally: VoteTally<V> = VoteTally::new();
            for (q, (vbal, vval, _)) in self.promises.iter() {
                if *vbal == b {
                    if let Some(v) = vval {
                        tally.record(q, v.clone());
                    }
                }
            }
            if let Some(v) = tally.max_value_with_count_at_least(self.cfg.cert_threshold()) {
                return Some(v.clone());
            }
        }
        None
    }

    /// Fast certification, per variant.
    ///
    /// * [`ByzVariant::Fab`] — the fast-round value with the most
    ///   distinct reporters, requiring at least `f+1`. The classic
    ///   quorum keeps `fq+sq−n−f ≥ f+1` honest reporters of a
    ///   fast-decided value in every promise quorum (obligation B2),
    ///   and `2·fq > n+3f` (B6) stops any rival from out-counting
    ///   them.
    /// * [`ByzVariant::Tight`] — the coordinator's own report, which
    ///   phase one waited for. Under the honest-proposer conditioning
    ///   of arXiv:2102.12825 the only value the fast round can decide
    ///   is the coordinator's, so that report *is* the certification:
    ///   its fast-round echo if it has one, else its own proposal.
    ///   This is where the two saved processes go — no witness
    ///   counting (and no B6) is needed, at the price of trusting the
    ///   coordinator.
    fn certify_fast(&self) -> Option<V> {
        match self.cfg.variant() {
            ByzVariant::Fab => {
                let mut tally: VoteTally<V> = VoteTally::new();
                for (q, (vbal, vval, _)) in self.promises.iter() {
                    if *vbal == Ballot::FAST {
                        if let Some(v) = vval {
                            tally.record(q, v.clone());
                        }
                    }
                }
                let (count, v) = tally
                    .iter()
                    .map(|(v, set)| (set.len(), v))
                    .max_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)))?;
                (count >= self.cfg.cert_threshold()).then(|| v.clone())
            }
            ByzVariant::Tight => {
                let (vbal, vval, proposed) = self.promises.get(COORDINATOR)?;
                if vbal.is_fast() {
                    vval.clone().or_else(|| proposed.clone())
                } else {
                    proposed.clone()
                }
            }
        }
    }

    fn start_ballot(&mut self, eff: &mut Effects<V, FabMsg<V>>) {
        let b = self.bal.next_owned_by(self.me, self.cfg.n());
        self.obs.slow_path_entered(self.me);
        self.my_ballot = Some(b);
        self.promises.clear();
        self.phase_one_done = false;
        eff.broadcast_all(FabMsg::NewBallot(b), self.cfg.n());
    }
}

impl<V: Value> Protocol<V> for FastBft<V> {
    type Message = FabMsg<V>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_start(&mut self, eff: &mut Effects<V, FabMsg<V>>) {
        self.omega.start(FabMsg::Heartbeat, eff);
        eff.set_timer(TimerId::NEW_BALLOT, INITIAL_BALLOT_DELAY);
        if let Some(v) = self.initial.clone() {
            if self.me == COORDINATOR {
                self.fast_sent = true;
                eff.broadcast_all(FabMsg::Fast(v), self.cfg.n());
            } else {
                eff.send(COORDINATOR, FabMsg::Forward(v));
            }
        }
    }

    fn on_propose(&mut self, value: V, eff: &mut Effects<V, FabMsg<V>>) {
        if self.initial.is_none() {
            self.initial = Some(value.clone());
            if self.me == COORDINATOR && !self.fast_sent {
                self.fast_sent = true;
                eff.broadcast_all(FabMsg::Fast(value), self.cfg.n());
            } else if self.me != COORDINATOR {
                eff.send(COORDINATOR, FabMsg::Forward(value));
            }
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: FabMsg<V>, eff: &mut Effects<V, FabMsg<V>>) {
        self.omega.observe(from);
        match msg {
            FabMsg::Heartbeat => {}

            FabMsg::Forward(v) => {
                // Only the coordinator adopts forwarded proposals, and
                // only if its own fast round has not started.
                if self.me == COORDINATOR && !self.fast_sent {
                    self.fast_sent = true;
                    self.initial.get_or_insert(v.clone());
                    eff.broadcast_all(FabMsg::Fast(v), self.cfg.n());
                }
            }

            FabMsg::Fast(v) => {
                // Acceptor: echo the first *coordinator* value of the
                // fast round. The sender check stops non-coordinators
                // from hijacking ballot 0 — a Byzantine coordinator can
                // still equivocate, which is exactly what fast-quorum
                // intersection (B1) must survive.
                if from == COORDINATOR && self.bal == Ballot::FAST && self.val.is_none() {
                    self.vbal = Ballot::FAST;
                    self.val = Some(v.clone());
                    eff.broadcast_all(FabMsg::Accepted(Ballot::FAST, v), self.cfg.n());
                }
            }

            FabMsg::Accepted(b, v) => {
                if b == Ballot::FAST {
                    self.fast_tally.record(from, v);
                } else {
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

            FabMsg::NewBallot(b) => {
                if from == b.owner(self.cfg.n()) && b > self.bal {
                    self.obs.ballot_advanced(self.me);
                    self.bal = b;
                    eff.send(
                        from,
                        FabMsg::Promise {
                            bal: b,
                            vbal: self.vbal,
                            vval: self.val.clone(),
                            proposed: self.initial.clone(),
                        },
                    );
                }
            }

            FabMsg::Promise {
                bal,
                vbal,
                vval,
                proposed,
            } => {
                if self.my_ballot == Some(bal) && !self.phase_one_done {
                    self.promises.insert(from, (vbal, vval, proposed));
                    // Tight certification reads the coordinator's
                    // report, so its phase one additionally waits for
                    // it — the coordinator is correct under the
                    // honest-proposer conditioning, so the report
                    // always arrives.
                    let ready = self.promises.len() >= self.cfg.slow_quorum()
                        && (self.cfg.variant() == ByzVariant::Fab
                            || self.promises.contains(COORDINATOR));
                    if ready {
                        self.phase_one_done = true;
                        let chosen = self
                            .certify_slow()
                            .or_else(|| self.certify_fast())
                            .or_else(|| self.initial.clone());
                        if let Some(v) = chosen {
                            eff.broadcast_all(FabMsg::Slow(bal, v), self.cfg.n());
                        }
                    }
                }
            }

            FabMsg::Slow(b, v) => {
                if from == b.owner(self.cfg.n()) && b >= self.bal && b.is_slow() {
                    if b > self.bal {
                        self.obs.ballot_advanced(self.me);
                    }
                    self.bal = b;
                    self.vbal = b;
                    self.val = Some(v.clone());
                    eff.broadcast_all(FabMsg::Accepted(b, v), self.cfg.n());
                }
            }

            FabMsg::Decide(v) => {
                // Gossip is only adopted once `f+1` distinct senders
                // report the same value: at least one of them is honest
                // and really decided it, so a lone forged `Decide` (or
                // any coalition of `f` liars) can never corrupt a
                // learner. The Byzantine fuzz campaign found exactly
                // that corruption before this threshold existed.
                self.decide_tally.record(from, v);
                if self.decided.is_none() {
                    if let Some(v) = self
                        .decide_tally
                        .max_value_with_count_at_least(self.cfg.cert_threshold())
                        .cloned()
                    {
                        record_decision(
                            &mut self.decided,
                            self.me,
                            &self.obs,
                            v,
                            Path::Learned,
                            eff,
                        );
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, eff: &mut Effects<V, FabMsg<V>>) {
        match timer {
            TimerId::HEARTBEAT | TimerId::SUSPECT => {
                if let Some(leader) = self.omega.on_timer(timer, FabMsg::Heartbeat, eff) {
                    self.obs.leader_changed(self.me, leader);
                }
            }
            TimerId::NEW_BALLOT => {
                eff.set_timer(TimerId::NEW_BALLOT, BALLOT_RETRY);
                if let Some(v) = self.decided.clone() {
                    eff.broadcast_others(FabMsg::Decide(v), self.cfg.n(), self.me);
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

    fn state_fingerprint_relabeled(&self, rl: &twostep_types::relabel::Relabeling) -> Option<u64> {
        // Structured hashing of the protocol-relevant state (the
        // Debug-string default is orders of magnitude more expensive,
        // and the model checker fingerprints millions of states).
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Only the pinned-Ω mode is symmetric: with heartbeats live,
        // Ω's evidence is steered by delivery order in ways the
        // fingerprint cannot relabel soundly mid-sweep, so it is hashed
        // whole under the identity alone. The pinned leader and the
        // ballot-0 coordinator are structurally distinguished, so any
        // permutation moving them is declined. A pinned Ω holds nothing
        // else: it neither observes nor sweeps.
        let symmetric = match self.omega.mode() {
            OmegaMode::Heartbeats => rl.is_identity(),
            OmegaMode::Static(leader) => rl.fixes(leader) && rl.fixes(COORDINATOR),
        };
        if !symmetric {
            return None;
        }
        let mut h = DefaultHasher::new();
        rl.pid(self.me).hash(&mut h);
        self.initial.hash(&mut h);
        self.fast_sent.hash(&mut h);
        rl.ballot(self.bal)?.hash(&mut h);
        rl.ballot(self.vbal)?.hash(&mut h);
        self.val.hash(&mut h);
        rl.ballot(self.slow_ballot_seen)?.hash(&mut h);
        self.decided.hash(&mut h);
        match self.my_ballot {
            None => None::<Ballot>.hash(&mut h),
            Some(b) => Some(rl.ballot(b)?).hash(&mut h),
        }
        self.phase_one_done.hash(&mut h);
        match self.omega.mode() {
            OmegaMode::Heartbeats => self.omega.hash(&mut h),
            OmegaMode::Static(leader) => leader.hash(&mut h),
        }
        for tally in [&self.fast_tally, &self.slow_tally, &self.decide_tally] {
            // Keys iterate in value order, which `rl` does not disturb;
            // only the voter sets need mapping.
            for (v, set) in tally.iter() {
                v.hash(&mut h);
                rl.pset(set).hash(&mut h);
            }
            u8::MAX.hash(&mut h); // tally separator
        }
        // Promise quorum re-sorted by relabeled reporter so the hash is
        // independent of collection order under `π`.
        let mut entries: Vec<(ProcessId, u64)> = Vec::with_capacity(self.promises.len());
        for (q, (vbal, vval, proposed)) in self.promises.iter() {
            let mut eh = DefaultHasher::new();
            rl.ballot(*vbal)?.hash(&mut eh);
            vval.hash(&mut eh);
            proposed.hash(&mut eh);
            entries.push((rl.pid(q), eh.finish()));
        }
        entries.sort_unstable();
        entries.hash(&mut h);
        Some(h.finish())
    }

    /// Permanent no-op classification for the model checker's
    /// inert-mail scrub. Only meaningful in the pinned-Ω mode: with
    /// heartbeats live every delivery feeds Ω's evidence, which steers
    /// future `SUSPECT` sweeps, so nothing is inert. Each `true` below
    /// rests on monotonicity: `bal` / `slow_ballot_seen` never
    /// decrease, `fast_sent` / `phase_one_done` (per ballot) /
    /// `decided` / `val.is_some()` are never unset, tallies only grow,
    /// and future `my_ballot` assignments come from
    /// [`Ballot::next_owned_by`], which is strictly greater than the
    /// then-current `bal`.
    fn message_is_noop(&self, from: ProcessId, msg: &FabMsg<V>) -> bool {
        if self.omega.uses_heartbeats() {
            return false;
        }
        let n = self.cfg.n();
        match msg {
            FabMsg::Heartbeat => true,
            FabMsg::Forward(_) => self.me != COORDINATOR || self.fast_sent,
            FabMsg::Fast(_) => {
                from != COORDINATOR || self.bal != Ballot::FAST || self.val.is_some()
            }
            FabMsg::Accepted(b, v) => {
                if *b == Ballot::FAST {
                    // Idempotent redelivery: the tally entry exists, so
                    // neither the tally nor `check_learned`'s verdict
                    // can change.
                    self.fast_tally.voters(v).contains(from)
                } else {
                    *b < self.slow_ballot_seen
                        || (*b == self.slow_ballot_seen && self.slow_tally.voters(v).contains(from))
                }
            }
            FabMsg::NewBallot(b) => from != b.owner(n) || *b <= self.bal,
            FabMsg::Promise { bal, .. } => {
                if bal.owner(n) != self.me {
                    return true;
                }
                match self.my_ballot {
                    Some(mb) if *bal < mb => true,
                    // Re-opening the same ballot is only possible while
                    // `bal` trails it (`next_owned_by` skips past
                    // otherwise), so a completed phase one at a
                    // caught-up ballot is final.
                    Some(mb) if *bal == mb => self.phase_one_done && self.bal >= mb,
                    _ => *bal <= self.bal,
                }
            }
            FabMsg::Slow(b, _) => from != b.owner(n) || !b.is_slow() || *b < self.bal,
            FabMsg::Decide(v) => self.decide_tally.voters(v).contains(from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_byz::{ByzBehavior, ByzPlan};
    use twostep_sim::{SimulationBuilder, SyncRunner};
    use twostep_types::{Duration, ProcessSet, SystemConfig, Time};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// A crash-model `SystemConfig` with the same `n`, to drive the
    /// simulator (which only reads `n` and the crash sets from it).
    fn sim_cfg(byz: ByzConfig) -> SystemConfig {
        SystemConfig::new(byz.n(), byz.f(), byz.f()).unwrap()
    }

    #[test]
    fn coordinator_value_decides_everywhere_at_two_delta() {
        let byz = ByzConfig::minimal_fast(ByzVariant::Fab, 1).unwrap(); // n=6
        let outcome = SyncRunner::new(sim_cfg(byz)).run(|q| FastBft::new(byz, q, 7u64));
        for i in 0..6 {
            assert_eq!(
                outcome.decision_time_of(p(i)),
                Some(Time::ZERO + Duration::deltas(2)),
                "p{i}"
            );
        }
        assert!(outcome.agreement());
    }

    #[test]
    fn contending_proposals_yield_the_coordinator_value() {
        let byz = ByzConfig::minimal_fast(ByzVariant::Fab, 1).unwrap();
        let outcome =
            SyncRunner::new(sim_cfg(byz)).run(|q| FastBft::new(byz, q, u64::from(q.as_u32())));
        assert!(outcome.agreement());
        assert_eq!(*outcome.decided_values()[0], 0, "p0 is the fast proposer");
        let (fast, _) = outcome.fast_deciders();
        assert_eq!(fast.len(), 6);
    }

    #[test]
    fn fast_path_survives_f_silent_processes_at_the_bound() {
        // n = 5f+1 = 11, f = 2: crashing f acceptors leaves exactly a
        // fast quorum of 4f+1 = 9 echoes.
        let byz = ByzConfig::minimal_fast(ByzVariant::Fab, 2).unwrap();
        let crashed: ProcessSet = [p(9), p(10)].into_iter().collect();
        let outcome = SyncRunner::new(sim_cfg(byz))
            .crashed(crashed)
            .run(|q| FastBft::new(byz, q, 5u64));
        let (fast, v) = outcome.fast_deciders();
        assert_eq!(v, Some(5));
        assert_eq!(fast.len(), 9, "all nine correct processes two-step");
        assert_eq!(
            outcome.decision_time_of(p(0)),
            Some(Time::ZERO + Duration::deltas(2))
        );
    }

    #[test]
    fn below_the_bound_one_silence_kills_the_fast_path_but_not_agreement() {
        // n = 5f = 5: the fast quorum (5) exceeds the honest capacity
        // (4), so with one crash nobody two-steps — recovery certifies
        // the fast-round value and finishes on the slow path.
        let byz = ByzConfig::new(5, 1, ByzVariant::Fab).unwrap();
        assert!(!byz.fast_path_live());
        let crashed: ProcessSet = [p(4)].into_iter().collect();
        let outcome = SyncRunner::new(sim_cfg(byz))
            .crashed(crashed)
            .horizon(Duration::deltas(60))
            .run(|q| FastBft::new(byz, q, u64::from(q.as_u32())));
        let (fast, _) = outcome.fast_deciders();
        assert!(fast.is_empty(), "no fast quorum can form at n = 5f");
        assert!(outcome.all_correct_decided());
        assert!(outcome.agreement());
        assert_eq!(
            *outcome.decided_values()[0],
            0,
            "recovery must certify the fast-round value, not invent one"
        );
    }

    #[test]
    fn tight_variant_two_steps_with_two_fewer_processes() {
        // n = 5f−1 = 9 at f = 2: the Tight fast quorum (7) still fits
        // the honest capacity after f crashes.
        let byz = ByzConfig::minimal_fast(ByzVariant::Tight, 2).unwrap();
        assert_eq!(byz.n(), 9);
        let crashed: ProcessSet = [p(7), p(8)].into_iter().collect();
        let outcome = SyncRunner::new(sim_cfg(byz))
            .crashed(crashed)
            .run(|q| FastBft::new(byz, q, 3u64));
        let (fast, v) = outcome.fast_deciders();
        assert_eq!(v, Some(3));
        assert_eq!(fast.len(), 7);
    }

    #[test]
    fn equivocating_acceptor_cannot_break_honest_agreement() {
        // One acceptor equivocates its echoes; the five honest
        // acceptors still form a fast quorum for the true value, and
        // every honest process decides it.
        let byz = ByzConfig::minimal_fast(ByzVariant::Fab, 1).unwrap(); // n=6
        let plan = ByzPlan::honest(42).with(p(3), ByzBehavior::Equivocate);
        let outcome = SyncRunner::new(sim_cfg(byz))
            .horizon(Duration::deltas(60))
            .run(|q| plan.wrap(FastBft::new(byz, q, 9u64)));
        assert!(outcome.all_correct_decided());
        assert!(outcome.agreement());
        assert_eq!(*outcome.decided_values()[0], 9);
    }

    #[test]
    fn forged_promises_cannot_divert_recovery() {
        // n = 5f with one *forging* process: the fast path is dead
        // (quorum 5 > 4 truthful echoes), so recovery runs with a
        // Byzantine reporter in every promise quorum — certification
        // must still pick the real fast-round value.
        let byz = ByzConfig::new(5, 1, ByzVariant::Fab).unwrap();
        let plan = ByzPlan::honest(7).with(p(4), ByzBehavior::Forge);
        let outcome = SyncRunner::new(sim_cfg(byz))
            .horizon(Duration::deltas(60))
            .run(|q| plan.wrap(FastBft::new(byz, q, u64::from(q.as_u32()))));
        let honest: Vec<u32> = (0..4)
            .filter_map(|i| outcome.decision_time_of(p(i)).map(|_| i))
            .collect();
        assert!(!honest.is_empty(), "honest processes must decide");
        let decided: Vec<&u64> = outcome.decided_values();
        assert!(
            decided.iter().all(|v| **v < 5),
            "decision {decided:?} must be a real proposal, not a forgery"
        );
    }

    #[test]
    fn lone_forged_decide_gossip_is_inert() {
        // A single (possibly forged) `Decide` claim must not be
        // adopted; `f+1` matching reports — at least one honest — must.
        let byz = ByzConfig::minimal_fast(ByzVariant::Fab, 1).unwrap(); // f=1
        let mut learner: FastBft<u64> = FastBft::passive(byz, p(5));
        let mut eff = Effects::new();
        learner.on_message(p(1), FabMsg::Decide(0x8000_0000_0000_0001), &mut eff);
        assert_eq!(learner.decided_value(), None, "one report is no proof");
        learner.on_message(p(2), FabMsg::Decide(7), &mut eff);
        learner.on_message(p(3), FabMsg::Decide(7), &mut eff);
        assert_eq!(learner.decided_value(), Some(&7));
    }

    #[test]
    fn randomized_schedules_agree() {
        for seed in 0u64..10 {
            let byz = ByzConfig::minimal_fast(ByzVariant::Fab, 1).unwrap();
            let outcome = SimulationBuilder::new(sim_cfg(byz))
                .delay_model(twostep_sim::RandomDelay::sub_delta(seed))
                .delivery_order(twostep_sim::DeliveryOrder::randomized(seed))
                .build(|q| FastBft::new(byz, q, u64::from(q.as_u32())))
                .run_until_all_decided(Time::ZERO + Duration::deltas(120));
            assert!(outcome.agreement(), "seed {seed}");
            assert!(outcome.all_correct_decided(), "seed {seed}");
        }
    }

    #[test]
    fn corruptible_plumbing_reaches_every_payload() {
        let mut m: FabMsg<u64> = FabMsg::Fast(7);
        assert!(m.forge_value(1));
        assert!(matches!(m, FabMsg::Fast(v) if v != 7));
        assert!(!FabMsg::<u64>::Heartbeat.forge_value(1));
        assert!(!FabMsg::<u64>::Heartbeat.lie_ballot(1));
        let mut nb: FabMsg<u64> = FabMsg::NewBallot(Ballot::new(3));
        assert!(!nb.forge_value(1), "NewBallot carries no value");
        assert!(nb.lie_ballot(1));
        assert!(matches!(nb, FabMsg::NewBallot(b) if b != Ballot::new(3)));
        let mut pr: FabMsg<u64> = FabMsg::Promise {
            bal: Ballot::new(2),
            vbal: Ballot::FAST,
            vval: Some(5),
            proposed: None,
        };
        assert!(pr.forge_value(9), "a fast-round claim is a first-party lie");
        assert!(matches!(&pr, FabMsg::Promise { vval: Some(v), .. } if *v != 5));
        assert!(!pr.lie_ballot(9), "promises are certificate-pinned");
        let mut slow_pr: FabMsg<u64> = FabMsg::Promise {
            bal: Ballot::new(2),
            vbal: Ballot::new(1),
            vval: Some(5),
            proposed: None,
        };
        assert!(
            !slow_pr.forge_value(9),
            "a slow (vbal, vval) pair quotes the leader's certificate"
        );
        let mut mixed_pr: FabMsg<u64> = FabMsg::Promise {
            bal: Ballot::new(2),
            vbal: Ballot::new(1),
            vval: Some(5),
            proposed: Some(3),
        };
        assert!(mixed_pr.forge_value(9), "own proposal is still forgeable");
        assert!(
            matches!(&mixed_pr, FabMsg::Promise { vval: Some(5), proposed: Some(p), .. } if *p != 3),
            "the certified pair survives while `proposed` is corrupted"
        );
    }

    /// Drives `me` through Ω suspicion of everyone else and a
    /// `NEW_BALLOT` firing, so it opens the first slow ballot it owns.
    /// Returns the opened ballot.
    fn become_recovery_leader(fb: &mut FastBft<u64>, n: usize) -> Ballot {
        let mut eff = Effects::new();
        fb.on_timer(TimerId::SUSPECT, &mut eff);
        fb.on_timer(TimerId::NEW_BALLOT, &mut eff);
        let b = Ballot::FAST.next_owned_by(fb.id(), n);
        assert!(
            eff.sends
                .iter()
                .any(|(_, m)| matches!(m, FabMsg::NewBallot(nb) if *nb == b)),
            "leader must open ballot {b}"
        );
        b
    }

    #[test]
    fn forged_slow_reports_cannot_break_floor_recovery() {
        // The REVIEW.md high-severity corner: n = 3f+1 = 4, where the
        // intersection of a slow-decided value's accepting quorum with
        // a later promise quorum holds only n−2f = 2 reporters, of
        // which just n−3f = 1 is guaranteed honest — below the f+1 = 2
        // certification threshold if the Byzantine member could forge
        // its report. The certificate pin on a Promise's slow
        // (vbal, vval) pair is what closes the gap: the forger's
        // attempt leaves the quoted pair intact, so the leader still
        // sees two matching reports and re-proposes the decided value.
        let byz = ByzConfig::new(4, 1, ByzVariant::Fab).unwrap();
        let mut leader: FastBft<u64> = FastBft::passive(byz, p(2));
        let b2 = become_recovery_leader(&mut leader, 4);

        // Value 7 was slow-decided at ballot 1 by quorum {p0, p1, p3};
        // the promise quorum is {p0, p2, p3}, so the intersection with
        // the accepting quorum is {p0, p3} — and p3 is the traitor.
        let mut byz_report: FabMsg<u64> = FabMsg::Promise {
            bal: b2,
            vbal: Ballot::new(1),
            vval: Some(7),
            proposed: Some(3),
        };
        assert!(byz_report.forge_value(0xDEAD), "forger attacks its report");

        let mut eff = Effects::new();
        leader.on_message(
            p(2),
            FabMsg::Promise {
                bal: b2,
                vbal: Ballot::FAST,
                vval: None,
                proposed: None,
            },
            &mut eff,
        );
        leader.on_message(
            p(0),
            FabMsg::Promise {
                bal: b2,
                vbal: Ballot::new(1),
                vval: Some(7),
                proposed: Some(0),
            },
            &mut eff,
        );
        leader.on_message(p(3), byz_report, &mut eff);

        let slow: Vec<_> = eff
            .sends
            .iter()
            .filter_map(|(_, m)| match m {
                FabMsg::Slow(b, v) => Some((*b, *v)),
                _ => None,
            })
            .collect();
        assert_eq!(slow.len(), 4, "phase two must broadcast to all");
        assert!(
            slow.iter().all(|(b, v)| *b == b2 && *v == 7),
            "recovery must re-propose the slow-decided value, got {slow:?}"
        );
    }

    #[test]
    fn tight_recovery_waits_for_the_coordinator_report() {
        // Tight certification reads the coordinator's report, so a
        // promise quorum that excludes `p0` must not complete phase
        // one — otherwise a fast decision only the coordinator can
        // vouch for could be contradicted (the REVIEW.md medium
        // finding, live at n = 4, f = 1 where honest fast witnesses
        // inside a promise quorum can number just one).
        let byz = ByzConfig::new(4, 1, ByzVariant::Tight).unwrap();
        let mut leader: FastBft<u64> = FastBft::passive(byz, p(1));
        let b1 = become_recovery_leader(&mut leader, 4);

        let mut eff = Effects::new();
        for i in [1u32, 2, 3] {
            leader.on_message(
                p(i),
                FabMsg::Promise {
                    bal: b1,
                    vbal: Ballot::FAST,
                    vval: None,
                    proposed: Some(u64::from(i)),
                },
                &mut eff,
            );
        }
        assert!(
            !eff.sends.iter().any(|(_, m)| matches!(m, FabMsg::Slow(..))),
            "a full quorum without p0 must not certify under Tight"
        );

        leader.on_message(
            p(0),
            FabMsg::Promise {
                bal: b1,
                vbal: Ballot::FAST,
                vval: None,
                proposed: Some(5),
            },
            &mut eff,
        );
        let slow: Vec<_> = eff
            .sends
            .iter()
            .filter_map(|(_, m)| match m {
                FabMsg::Slow(b, v) => Some((*b, *v)),
                _ => None,
            })
            .collect();
        assert_eq!(slow.len(), 4);
        assert!(
            slow.iter().all(|(b, v)| *b == b1 && *v == 5),
            "certification must be the coordinator's reported value, got {slow:?}"
        );
    }
}
