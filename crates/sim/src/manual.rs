//! Step-level manual execution.
//!
//! [`ManualExecutor`] gives the caller explicit control over every source
//! of nondeterminism: which pending message is delivered next, who
//! crashes when, which timers fire. A scripted run is a list of
//! content-keyed [`Step`]s: the bounded model checker in
//! `twostep-verify` explores and returns them, the gate's staged
//! prefixes and the mechanized lower-bound adversary (the adversarial
//! interleavings `σ0`/`σ1` of the paper's §B.1 and §B.2) record them
//! with [`ManualExecutor::deliver_where`], and [`ManualExecutor::step`]
//! takes one and prints it as the [`crate::schedule`] token that
//! `twostep-fuzz --replay` reads.
//!
//! Unlike [`crate::Simulation`], there is no clock: steps are untimed,
//! which matches the proofs' round-step granularity.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::relabel::{RelabelHash, Relabeling};
use twostep_types::{judge, ProcessId, ProcessSet, SystemConfig, Value};

use crate::schedule::Action;

/// Identifier of an in-flight message within a [`ManualExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub usize);

/// A message sitting in the network soup.
#[derive(Debug, Clone)]
pub struct InFlight<M> {
    /// Stable identifier.
    pub id: MsgId,
    /// Sender.
    pub from: ProcessId,
    /// Receiver.
    pub to: ProcessId,
    /// Payload.
    pub msg: M,
    /// Content-only payload hash, precomputed at send time so that
    /// global-state fingerprints (used heavily by the model checker) do
    /// not re-format the message on every visit.
    content_hash: u64,
}

impl<M> InFlight<M> {
    /// A stable content key for this message: a hash of the payload
    /// alone (not the endpoints, not the send position). Two in-flight
    /// messages with equal `(from, to, content_key)` are
    /// interchangeable, which is what makes model-checker
    /// counterexample scripts survive state-space reduction.
    pub fn content_key(&self) -> u64 {
        self.content_hash
    }
}

/// One scripted step of a [`ManualExecutor`] run.
///
/// Deliveries are identified by *stable message content*
/// (`(from, to, content_key)`, see [`InFlight::content_key`]), not by
/// pending-list position: positions shift under reduction and across
/// replay environments, content does not. Two pending messages with the
/// same triple are interchangeable by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Deliver the pending message with this sender, receiver and
    /// payload content key.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Stable payload hash ([`InFlight::content_key`]).
        key: u64,
    },
    /// Crash a process.
    Crash(ProcessId),
    /// Fire an armed timer.
    Fire(ProcessId, TimerId),
}

/// An executor in which every delivery, crash and timer firing is an
/// explicit call.
#[derive(Debug, Clone)]
pub struct ManualExecutor<V: Value, P: Protocol<V>> {
    cfg: SystemConfig,
    procs: Vec<P>,
    alive: ProcessSet,
    started: Vec<bool>,
    /// Pending messages in increasing-id (send) order. Delivered and
    /// dropped messages are removed outright rather than tombstoned, so
    /// cloning an executor (which the model checker does per explored
    /// transition) costs the *current* soup, not the whole history.
    inflight: Vec<InFlight<P::Message>>,
    next_id: usize,
    armed: Vec<BTreeSet<TimerId>>,
    decisions: Vec<Option<V>>,
    decide_log: Vec<(ProcessId, V)>,
}

impl<V: Value, P: Protocol<V>> ManualExecutor<V, P> {
    /// Creates an executor; no process has started yet.
    pub fn new<F>(cfg: SystemConfig, mut make: F) -> Self
    where
        F: FnMut(ProcessId) -> P,
    {
        let n = cfg.n();
        ManualExecutor {
            cfg,
            procs: (0..n as u32).map(|i| make(ProcessId::new(i))).collect(),
            alive: ProcessSet::full(n),
            started: vec![false; n],
            inflight: Vec::new(),
            next_id: 0,
            armed: vec![BTreeSet::new(); n],
            decisions: vec![None; n],
            decide_log: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// Processes still alive.
    pub fn alive(&self) -> ProcessSet {
        self.alive
    }

    /// Read access to a protocol instance.
    pub fn process(&self, p: ProcessId) -> &P {
        &self.procs[p.index()]
    }

    /// First decision of each process.
    pub fn decisions(&self) -> &[Option<V>] {
        &self.decisions
    }

    /// The decision of `p`, if any.
    pub fn decision_of(&self, p: ProcessId) -> Option<&V> {
        self.decisions[p.index()].as_ref()
    }

    /// Every `decide` event observed, in execution order (used to check
    /// Agreement over *all* decisions, not just first ones).
    pub fn decide_log(&self) -> &[(ProcessId, V)] {
        &self.decide_log
    }

    /// Whether all decide events so far agree on one value.
    pub fn agreement(&self) -> bool {
        judge::agreement(&self.decide_log).is_ok()
    }

    /// Starts `p` (runs its `on_start`), if alive and not started.
    /// Returns whether the handler ran.
    pub fn start(&mut self, p: ProcessId) -> bool {
        if !self.alive.contains(p) || self.started[p.index()] {
            return false;
        }
        self.started[p.index()] = true;
        let mut eff = Effects::new();
        self.procs[p.index()].on_start(&mut eff);
        self.apply(p, eff);
        true
    }

    /// Starts every alive process in id order.
    pub fn start_all(&mut self) {
        for i in 0..self.cfg.n() as u32 {
            self.start(ProcessId::new(i));
        }
    }

    /// Submits a client proposal at `p`. Returns whether the handler ran.
    pub fn propose(&mut self, p: ProcessId, value: V) -> bool {
        if !self.alive.contains(p) {
            return false;
        }
        let mut eff = Effects::new();
        self.procs[p.index()].on_propose(value, &mut eff);
        self.apply(p, eff);
        true
    }

    /// Crashes `p`: it takes no further steps. Messages already in flight
    /// from `p` remain deliverable (they were sent before the crash).
    pub fn crash(&mut self, p: ProcessId) {
        self.alive.remove(p);
    }

    /// Restarts a crashed `p` with its pre-crash protocol state intact:
    /// it can again receive deliveries, fire still-armed timers and take
    /// proposals. Returns `false` (and does nothing) if `p` was alive.
    pub fn restart(&mut self, p: ProcessId) -> bool {
        self.alive.insert(p)
    }

    /// The messages currently in flight.
    pub fn pending(&self) -> Vec<&InFlight<P::Message>> {
        self.inflight.iter().collect()
    }

    /// The ids of pending messages matching `pred`.
    pub fn pending_matching<F>(&self, mut pred: F) -> Vec<MsgId>
    where
        F: FnMut(&InFlight<P::Message>) -> bool,
    {
        self.inflight
            .iter()
            .filter(|m| pred(m))
            .map(|m| m.id)
            .collect()
    }

    /// The position of the pending message with id `id`, if present.
    /// Ids are assigned in increasing order and the soup stays sorted,
    /// so this is a binary search.
    fn position(&self, id: MsgId) -> Option<usize> {
        self.inflight.binary_search_by_key(&id, |m| m.id).ok()
    }

    /// Delivers the message with id `id`. Returns `false` if the message
    /// no longer exists or its receiver is crashed (the message is
    /// consumed either way, matching a crash swallowing a delivery).
    pub fn deliver(&mut self, id: MsgId) -> bool {
        self.position(id).is_some_and(|i| self.deliver_at(i))
    }

    /// Delivers the pending message at position `i` of the soup; see
    /// [`ManualExecutor::deliver`].
    fn deliver_at(&mut self, i: usize) -> bool {
        let m = self.inflight.remove(i);
        if !self.alive.contains(m.to) {
            return false;
        }
        let mut eff = Effects::new();
        self.procs[m.to.index()].on_message(m.from, m.msg, &mut eff);
        self.apply(m.to, eff);
        true
    }

    /// Delivers, in send order, every message pending at the call that
    /// `pred` matches, and returns the steps it took. Mail those
    /// deliveries send is left pending, even where `pred` matches it.
    pub fn deliver_where<F>(&mut self, mut pred: F) -> Vec<Step>
    where
        F: FnMut(&InFlight<P::Message>) -> bool,
    {
        let matched: Vec<(MsgId, Step)> = self
            .inflight
            .iter()
            .filter(|m| pred(m))
            .map(|m| {
                let (from, to, key) = (m.from, m.to, m.content_hash);
                (m.id, Step::Deliver { from, to, key })
            })
            .collect();
        for &(id, _) in &matched {
            self.deliver(id);
        }
        matched.into_iter().map(|(_, step)| step).collect()
    }

    /// Takes one scripted step and returns the `twostep-fuzz --replay`
    /// token that names it in the state it was taken in: `i:K` for the
    /// first pending message (in send order) with the step's triple,
    /// which sits at `pending()[K]`; `c:A` for a crash; `t:A.K` for the
    /// timer at `armed_timers(A)[K]`.
    ///
    /// Returns `None`, and changes nothing, when no pending message
    /// matches, when the timer is not armed or its process is crashed,
    /// or when a position or process does not fit the token's integer.
    pub fn step(&mut self, step: Step) -> Option<Action> {
        match step {
            Step::Deliver { from, to, key } => {
                let i = self
                    .inflight
                    .iter()
                    .position(|m| m.from == from && m.to == to && m.content_hash == key)?;
                let token = Action::DeliverIdx(u16::try_from(i).ok()?);
                self.deliver_at(i);
                Some(token)
            }
            Step::Crash(p) => {
                let token = Action::Crash(u8::try_from(p.as_u32()).ok()?);
                self.crash(p);
                Some(token)
            }
            Step::Fire(p, timer) => {
                let k = self.armed[p.index()].iter().position(|&t| t == timer)?;
                let token =
                    Action::FireTimer(u8::try_from(p.as_u32()).ok()?, u16::try_from(k).ok()?);
                self.fire_timer(p, timer).then_some(token)
            }
        }
    }

    /// Removes a pending message without delivering it.
    pub fn drop_message(&mut self, id: MsgId) -> bool {
        let Some(i) = self.position(id) else {
            return false;
        };
        self.inflight.remove(i);
        true
    }

    /// Removes every pending message that can never again have an
    /// effect: mail addressed to crashed processes, and mail whose
    /// receiver declares it a *permanent* no-op via
    /// [`Protocol::message_is_noop`]. Returns how many were removed.
    ///
    /// This is the model checker's partial-order reduction: delivering
    /// (or not delivering) inert mail produces indistinguishable
    /// futures, so scrubbing it quotients away up to `2^k` interleaved
    /// subsets per `k` inert messages. It is **only sound for callers
    /// that never [`ManualExecutor::restart`]** — a restarted process
    /// would have been able to receive the scrubbed mail.
    pub fn scrub_inert_mail(&mut self) -> usize {
        let before = self.inflight.len();
        // `retain` needs `&self.procs` while `self.inflight` is
        // mutably borrowed, so temporarily move the soup out.
        let mut soup = std::mem::take(&mut self.inflight);
        soup.retain(|m| {
            self.alive.contains(m.to) && !self.procs[m.to.index()].message_is_noop(m.from, &m.msg)
        });
        self.inflight = soup;
        before - self.inflight.len()
    }

    /// The timers currently armed at `p`.
    pub fn armed_timers(&self, p: ProcessId) -> Vec<TimerId> {
        self.armed[p.index()].iter().copied().collect()
    }

    /// Fires an armed timer at `p`. Returns whether the handler ran.
    pub fn fire_timer(&mut self, p: ProcessId, timer: TimerId) -> bool {
        if !self.alive.contains(p) || !self.armed[p.index()].remove(&timer) {
            return false;
        }
        let mut eff = Effects::new();
        self.procs[p.index()].on_timer(timer, &mut eff);
        self.apply(p, eff);
        true
    }

    fn apply(&mut self, p: ProcessId, eff: Effects<V, P::Message>) {
        for v in eff.decisions {
            self.decide_log.push((p, v.clone()));
            if self.decisions[p.index()].is_none() {
                self.decisions[p.index()] = Some(v);
            }
        }
        for (to, msg) in eff.sends {
            let id = MsgId(self.next_id);
            self.next_id += 1;
            let mut h = DefaultHasher::new();
            format!("{msg:?}").hash(&mut h);
            let content_hash = h.finish();
            self.inflight.push(InFlight {
                id,
                from: p,
                to,
                msg,
                content_hash,
            });
        }
        for (timer, _delay) in eff.timer_sets {
            self.armed[p.index()].insert(timer);
        }
        for timer in eff.timer_cancels {
            self.armed[p.index()].remove(&timer);
        }
    }
}

impl<V: Value, P: Protocol<V>> ManualExecutor<V, P>
where
    P::Message: RelabelHash,
{
    /// A fingerprint of the *global* state (process states, liveness,
    /// pending messages, armed timers and decisions) *as seen through the
    /// relabeling* `rl`: every process id (slot order, liveness, timers,
    /// decisions, message endpoints, ids embedded in protocol state and
    /// payloads) is mapped through `π`. Two states whose fingerprints
    /// match under some `π` are behaviorally isomorphic, which is what
    /// the model checker's visited set and symmetry reduction key on.
    ///
    /// Returns `None` if any process state or pending payload declines
    /// the permutation (see [`Protocol::state_fingerprint_relabeled`] and
    /// [`RelabelHash`]). Neither ever declines the identity, so neither
    /// does this.
    pub fn fingerprint_relabeled(&self, rl: &Relabeling) -> Option<u64> {
        let n = self.cfg.n();
        debug_assert_eq!(rl.n(), n);
        let mut h = DefaultHasher::new();
        rl.pset(self.alive).bits().hash(&mut h);
        for j in 0..n as u32 {
            // Slot j of the relabeled state holds original process
            // π⁻¹(j)'s data.
            let orig = rl.preimage(ProcessId::new(j));
            self.started[orig.index()].hash(&mut h);
        }
        for j in 0..n as u32 {
            let orig = rl.preimage(ProcessId::new(j));
            self.procs[orig.index()]
                .state_fingerprint_relabeled(rl)?
                .hash(&mut h);
        }
        // Pending messages as a multiset, order-independent: combine
        // per-message (endpoints + content) hashes commutatively.
        let mut msg_acc: u64 = 0;
        for m in &self.inflight {
            let mut mh = DefaultHasher::new();
            rl.pid(m.from).hash(&mut mh);
            rl.pid(m.to).hash(&mut mh);
            m.msg.relabel_hash(rl)?.hash(&mut mh);
            msg_acc = msg_acc.wrapping_add(mh.finish());
        }
        msg_acc.hash(&mut h);
        for j in 0..n as u32 {
            let orig = rl.preimage(ProcessId::new(j));
            self.armed[orig.index()].hash(&mut h);
        }
        for j in 0..n as u32 {
            let orig = rl.preimage(ProcessId::new(j));
            format!("{:?}", self.decisions[orig.index()]).hash(&mut h);
        }
        Some(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    /// Ping protocol: p0 sends Ping to everyone at start; every other
    /// process decides 1 on its first Ping and echoes it back; p0 arms
    /// two timers at start and decides 2 when one fires.
    #[derive(Debug, Clone)]
    struct Ping {
        me: ProcessId,
        n: usize,
        decided: Option<u64>,
    }

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct P;

    impl RelabelHash for P {}

    impl Protocol<u64> for Ping {
        type Message = P;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_start(&mut self, eff: &mut Effects<u64, P>) {
            if self.me == ProcessId::new(0) {
                eff.broadcast_others(P, self.n, self.me);
                eff.set_timer(TimerId(5), twostep_types::Duration::deltas(1));
                eff.set_timer(TimerId(9), twostep_types::Duration::deltas(1));
            }
        }
        fn on_propose(&mut self, v: u64, eff: &mut Effects<u64, P>) {
            self.decided = Some(v);
            eff.decide(v);
        }
        fn on_message(&mut self, from: ProcessId, _: P, eff: &mut Effects<u64, P>) {
            if self.decided.is_none() && self.me != ProcessId::new(0) {
                self.decided = Some(1);
                eff.decide(1);
                eff.send(from, P);
            }
        }
        fn on_timer(&mut self, _: TimerId, eff: &mut Effects<u64, P>) {
            if self.decided.is_none() {
                self.decided = Some(2);
                eff.decide(2);
            }
        }
        fn decision(&self) -> Option<u64> {
            self.decided
        }
    }

    fn exec() -> ManualExecutor<u64, Ping> {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        ManualExecutor::new(cfg, |p| Ping {
            me: p,
            n: 3,
            decided: None,
        })
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn start_produces_messages_and_timer() {
        let mut ex = exec();
        assert!(ex.start(p(0)));
        assert!(!ex.start(p(0)), "second start is a no-op");
        assert_eq!(ex.pending().len(), 2);
        assert_eq!(ex.armed_timers(p(0)), vec![TimerId(5), TimerId(9)]);
        assert_eq!(ex.pending_matching(|m| m.to == p(1)).len(), 1);
    }

    #[test]
    fn deliver_runs_handler_once() {
        let mut ex = exec();
        ex.start_all();
        let ids = ex.pending_matching(|m| m.to == p(1));
        assert!(ex.deliver(ids[0]));
        assert!(
            !ex.deliver(ids[0]),
            "consumed message cannot be redelivered"
        );
        assert_eq!(ex.decision_of(p(1)), Some(&1));
        assert_eq!(ex.decide_log().len(), 1);
        assert!(ex.agreement());
    }

    #[test]
    fn crash_blocks_delivery_and_consumes() {
        let mut ex = exec();
        ex.start_all();
        let ids = ex.pending_matching(|m| m.to == p(2));
        ex.crash(p(2));
        assert!(!ex.deliver(ids[0]));
        assert_eq!(ex.decision_of(p(2)), None);
        assert!(
            ex.pending_matching(|m| m.to == p(2)).is_empty(),
            "delivery attempt consumed it"
        );
    }

    #[test]
    fn restart_rejoins_with_state_and_armed_timers() {
        let mut ex = exec();
        ex.start_all();
        ex.crash(p(0));
        assert!(
            !ex.fire_timer(p(0), TimerId(5)),
            "dead process fires nothing"
        );
        assert!(!ex.restart(p(1)), "restarting an alive process is a no-op");
        assert!(ex.restart(p(0)));
        assert!(ex.alive().contains(p(0)));
        // The timer armed before the crash survives the restart.
        assert!(ex.fire_timer(p(0), TimerId(5)));
        assert_eq!(ex.decision_of(p(0)), Some(&2));
    }

    #[test]
    fn drop_message_removes_silently() {
        let mut ex = exec();
        ex.start_all();
        let ids = ex.pending_matching(|m| m.to == p(1));
        assert!(ex.drop_message(ids[0]));
        assert!(!ex.drop_message(ids[0]));
        assert_eq!(ex.decision_of(p(1)), None);
    }

    #[test]
    fn timers_fire_once() {
        let mut ex = exec();
        ex.start_all();
        assert!(ex.fire_timer(p(0), TimerId(5)));
        assert_eq!(ex.decision_of(p(0)), Some(&2));
        assert!(
            !ex.fire_timer(p(0), TimerId(5)),
            "timer disarmed after firing"
        );
        assert!(!ex.fire_timer(p(1), TimerId(5)), "p1 never armed it");
    }

    #[test]
    fn propose_routed() {
        let mut ex = exec();
        ex.start_all();
        assert!(ex.propose(p(1), 42));
        assert_eq!(ex.decision_of(p(1)), Some(&42));
        ex.crash(p(2));
        assert!(!ex.propose(p(2), 43), "crashed process ignores proposals");
    }

    #[test]
    fn agreement_detects_divergence() {
        let mut ex = exec();
        ex.start_all();
        ex.propose(p(1), 7); // decides 7
        let ids = ex.pending_matching(|m| m.to == p(2));
        ex.deliver(ids[0]); // decides 1
        assert!(!ex.agreement());
    }

    #[test]
    fn clone_branches_independently() {
        let mut ex = exec();
        ex.start_all();
        let fork = ex.clone();
        let ids = ex.pending_matching(|m| m.to == p(1));
        ex.deliver(ids[0]);
        assert_eq!(ex.decision_of(p(1)), Some(&1));
        assert_eq!(fork.decision_of(p(1)), None, "fork unaffected");
    }

    #[test]
    fn fingerprint_distinguishes_states_and_matches_self() {
        let id = Relabeling::identity(3);
        let fp = |ex: &ManualExecutor<u64, Ping>| {
            ex.fingerprint_relabeled(&id)
                .expect("the identity never declines")
        };
        let mut a = exec();
        let mut b = exec();
        assert_eq!(fp(&a), fp(&b));
        a.start_all();
        b.start_all();
        assert_eq!(fp(&a), fp(&b));
        let ids = a.pending_matching(|m| m.to == p(1));
        a.deliver(ids[0]);
        assert_ne!(fp(&a), fp(&b));
        // Deliver the same message in b: states converge again.
        let ids_b = b.pending_matching(|m| m.to == p(1));
        b.deliver(ids_b[0]);
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn pending_matching_filters() {
        let mut ex = exec();
        ex.start_all();
        let to_p1 = ex.pending_matching(|m| m.to == p(1));
        assert_eq!(to_p1.len(), 1);
        let from_p0 = ex.pending_matching(|m| m.from == p(0));
        assert_eq!(from_p0.len(), 2);
    }

    /// The pending soup as `(from, to, key)` triples, in send order.
    fn soup(ex: &ManualExecutor<u64, Ping>) -> Vec<(ProcessId, ProcessId, u64)> {
        ex.pending()
            .iter()
            .map(|m| (m.from, m.to, m.content_key()))
            .collect()
    }

    #[test]
    fn step_returns_the_token_that_names_it() {
        let mut ex = exec();
        ex.start_all();
        ex.deliver_where(|m| m.to == p(1)); // p1 echoes: the soup is 0→2, 1→0
        let before = soup(&ex);
        let (from, to, key) = before[1];
        assert_eq!(
            ex.step(Step::Deliver { from, to, key }),
            Some(Action::DeliverIdx(1))
        );
        assert_eq!(soup(&ex), [before[0]], "exactly pending()[1] went");
        assert_eq!(ex.decision_of(p(0)), None, "p0 got its echo, not a Ping");

        assert_eq!(ex.armed_timers(p(0)), [TimerId(5), TimerId(9)]);
        assert_eq!(
            ex.step(Step::Fire(p(0), TimerId(9))),
            Some(Action::FireTimer(0, 1))
        );
        assert_eq!(ex.armed_timers(p(0)), [TimerId(5)]);
        assert_eq!(ex.decision_of(p(0)), Some(&2));

        assert_eq!(ex.step(Step::Crash(p(2))), Some(Action::Crash(2)));
        assert!(!ex.alive().contains(p(2)));
        assert_eq!(
            format!("{} {}", Action::DeliverIdx(1), Action::FireTimer(0, 1)),
            "i:1 t:0.1"
        );
    }

    #[test]
    fn a_step_that_matches_nothing_changes_nothing() {
        let mut ex = exec();
        ex.start_all();
        let (from, to, key) = soup(&ex)[0];
        ex.crash(p(0));
        let (before, log) = (soup(&ex), ex.decide_log().to_vec());
        for step in [
            Step::Deliver {
                from,
                to,
                key: key ^ 1,
            },
            Step::Deliver {
                from: to,
                to: from,
                key,
            },
            Step::Fire(p(1), TimerId(5)),
            Step::Fire(p(0), TimerId(5)), // armed, but p0 is crashed
        ] {
            assert_eq!(ex.step(step), None, "{step:?}");
            assert_eq!(soup(&ex), before, "{step:?}");
            assert_eq!(ex.decide_log(), &log[..], "{step:?}");
        }
        assert_eq!(ex.armed_timers(p(0)), [TimerId(5), TimerId(9)]);
    }

    #[test]
    fn deliver_where_leaves_what_its_own_deliveries_send() {
        let mut ex = exec();
        ex.start_all();
        let sent = soup(&ex);
        let steps = ex.deliver_where(|_| true);
        let taken: Vec<_> = steps
            .iter()
            .map(|s| match *s {
                Step::Deliver { from, to, key } => (from, to, key),
                Step::Crash(_) | Step::Fire(..) => panic!("only deliveries: {s:?}"),
            })
            .collect();
        assert_eq!(
            taken, sent,
            "every message pending at the call, in send order"
        );
        let echoes: Vec<_> = soup(&ex).iter().map(|&(from, to, _)| (from, to)).collect();
        assert_eq!(
            echoes,
            [(p(1), p(0)), (p(2), p(0))],
            "the echoes stay pending"
        );

        // The recorded steps replay, by content, on a fresh executor.
        let mut fresh = exec();
        fresh.start_all();
        let tokens: Vec<_> = steps.iter().map(|&s| fresh.step(s)).collect();
        assert_eq!(
            tokens,
            [Some(Action::DeliverIdx(0)), Some(Action::DeliverIdx(0))]
        );
        assert_eq!(soup(&fresh), soup(&ex));
    }
}
