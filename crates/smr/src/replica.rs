//! The SMR replica: a log of consensus instances plus a state machine.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use twostep_core::{Msg, ObjectConsensus, TwoStepBuilder};
use twostep_telemetry::ObserverHandle;
use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::{
    Ballot, Duration, Omega, OmegaMode, ProcessId, ProcessSet, SystemConfig, Value, DELTA,
};

use crate::batch::Batch;
use crate::command::StateMachine;

/// Wire messages of the SMR layer: per-slot consensus traffic, the
/// replica-level Ω beacon, and three forms that name a batch by its slot
/// where the receiver already holds it. Each slot decides a whole
/// [`Batch`] of client commands.
///
/// On the fast path a batch crosses the wire only in its `Propose`. A
/// fast vote goes back to the proposer as [`SmrMsg::Vote`], and a
/// proxy's held `Decide` of its own batch goes as [`SmrMsg::Decided`].
/// Each is turned back into the exact [`Msg`] its instance would have
/// received. The reference is exact because a proxy proposes at most one
/// batch per slot, and it resolves only against a batch received from
/// that proxy: in its own `Propose`, or, at the proxy, in its own
/// in-flight table. Everything else carries its batch in full.
///
/// The three forms come after `Beacon`, so the encodings of `Slot` and
/// `Beacon` are those of the two-variant enum this once was.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SmrMsg<C> {
    /// Consensus message of the instance deciding slot `.0`.
    Slot(u64, Msg<Batch<C>>),
    /// Replica-level liveness beacon (one Ω for all instances).
    Beacon,
    /// A fast vote (`TwoB` at ballot 0) for the batch the *receiver*
    /// proposed in this slot. Sent only when the vote is for the batch
    /// the sender received in the receiver's `Propose`; the receiver
    /// resolves it against its in-flight batch for the slot.
    Vote(u64),
    /// The *sender's* own proposal for this slot committed: a `Decide`
    /// of the batch it proposed there. The receiver resolves it against
    /// the batch it received in that sender's `Propose`, and asks with
    /// [`SmrMsg::Want`] when it has none.
    Decided(u64),
    /// Asks for the full `Decide` of this slot, because a `Decided` for
    /// it could not be resolved. Answered by any replica that has the
    /// slot committed.
    Want(u64),
}

/// Replica-level timers: Ω's `TimerId::HEARTBEAT` (1) and
/// `TimerId::SUSPECT` (2), and the pump. Instance timers are namespaced
/// above these.
const SMR_PUMP: TimerId = TimerId(3);
/// First timer id available to instance namespacing.
const INNER_BASE: u64 = 4;
/// Ids per instance (the inner protocol uses timers 0..3).
const INNER_STRIDE: u64 = 4;

/// Maps an inner-instance timer into the replica's `u64` timer space.
///
/// The computation is done in `u64` end to end: an earlier revision cast
/// `slot as u32`, which silently wrapped once slots passed 2³⁰ and
/// routed one instance's ticks to another. The release asserts make any
/// future aliasing loud instead of silent.
fn inner_timer(slot: u64, t: TimerId) -> TimerId {
    // Release-mode checks: an out-of-stride inner timer (or a slot so
    // large the stride arithmetic would wrap) would alias a different
    // instance's timer namespace and misroute ticks.
    assert!(t.0 < INNER_STRIDE);
    assert!(
        slot <= (u64::MAX - INNER_BASE - t.0) / INNER_STRIDE,
        "slot {slot} overflows the timer-id namespace"
    );
    TimerId(INNER_BASE + slot * INNER_STRIDE + t.0)
}

fn split_timer(t: TimerId) -> Option<(u64, TimerId)> {
    if t.0 >= INNER_BASE {
        let rel = t.0 - INNER_BASE;
        Some((rel / INNER_STRIDE, TimerId(rel % INNER_STRIDE)))
    } else {
        None
    }
}

/// A state-machine-replication replica built on the paper's consensus
/// *object* (one [`ObjectConsensus`] instance per log slot).
///
/// Roles, following the paper's introduction: clients submit commands to
/// any replica (their *proxy*); the proxy accumulates commands into a
/// [`Batch`] of at most the batch-size knob, assigns the batch a free
/// slot and proposes it there; batches commit in slot order and their
/// commands are applied, in batch order, to the deterministic state
/// machine `S`. A batch that loses its slot to a contending proxy is
/// transparently re-proposed in a fresh slot.
///
/// How long a command waits for co-travellers is learned from the
/// proxy's own traffic: a queue is proposed as soon as it holds as many
/// commands as the largest batch of the previous pump interval (capped
/// by the knob, starting at 1), and the pump tick proposes whatever is
/// still queued. A lone command on an idle proxy therefore leaves in
/// the step that submitted it — the paper's two message delays at the
/// proxy — while a proxy whose load fills batches keeps sending full
/// ones, and a waiting command is held for at most one pump interval
/// (2Δ).
///
/// One replica-level Ω (heartbeats) serves all instances: instances run
/// with a static leader hint that the replica refreshes on every
/// suspicion sweep.
///
/// `decide` events are emitted per *applied* command, in log order, so
/// the decision stream of any engine is exactly the committed command
/// prefix regardless of how commands were grouped into batches.
///
/// A proxy answers its clients from its own decision and lets the
/// `Decide` it owes each peer ride the next message to that peer — the
/// next `Propose` under load, a `Beacon` within Δ otherwise, or at once
/// when it has nothing in flight and nothing queued — so a follower is
/// woken once per batch and may learn a decision one frame late. Votes,
/// not `Decide`, carry safety; the follower only applies later. A slot
/// this replica did not propose is announced at once when it decides it,
/// and a peer still working on a settled slot is answered with the
/// outcome (a vote is not such a request and is not answered).
///
/// Where the receiver provably holds the batch, it is named by slot (see
/// [`SmrMsg`]): a follower's fast vote goes back as `Vote`, and a held
/// `Decide` of the proxy's own batch goes as `Decided`. A proxy that lost
/// its slot to a rival sends the rival's batch in full. A follower that
/// missed the `Propose` behind a `Decided` asks the proxy with `Want`,
/// and asks every peer again on each heartbeat until the slot commits,
/// since the proxy may have crashed right after deciding.
///
/// Construct via [`SmrReplicaBuilder`](crate::SmrReplicaBuilder).
#[derive(Debug)]
pub struct SmrReplica<C: Ord, S> {
    cfg: SystemConfig,
    me: ProcessId,
    instances: BTreeMap<u64, ObjectConsensus<Batch<C>>>,
    committed: BTreeMap<u64, Batch<C>>,
    /// Length of the contiguously applied slot prefix.
    applied_slots: u64,
    /// Number of commands applied to the state machine.
    applied_cmds: u64,
    sm: S,
    pending: VecDeque<C>,
    inflight: BTreeMap<u64, Batch<C>>,
    max_inflight: usize,
    max_batch: usize,
    /// Queue length at which the event-driven path proposes: the largest
    /// batch of the previous pump interval, always in `1..=max_batch`.
    target: usize,
    /// Largest batch proposed so far in the current pump interval.
    interval_max: usize,
    next_slot: u64,
    /// `Decide`s owed to peers for own proposals that committed, as
    /// `(peer, message)` in commit order; see [`SmrReplica::release`].
    held: Vec<(ProcessId, SmrMsg<C>)>,
    /// Batches received in peers' `Propose`s, by `(slot, proposer)`,
    /// until the slot commits: what a fast vote is checked against
    /// before it goes as `Vote`, and what a `Decided` resolves to.
    received: BTreeMap<(u64, ProcessId), Batch<C>>,
    /// Slots named by a `Decided` this replica could not resolve; asked
    /// for with `Want` until they commit.
    wanted: BTreeSet<u64>,
    omega: Omega,
    /// Telemetry hooks; detached by default.
    obs: ObserverHandle,
}

impl<C, S> SmrReplica<C, S>
where
    C: Value,
    S: StateMachine<C>,
{
    /// Constructor used by
    /// [`SmrReplicaBuilder`](crate::SmrReplicaBuilder).
    ///
    /// `rotation` offsets the replica-Ω leader preference order: with
    /// nothing suspected the group's leader is process `rotation % n`.
    /// Sharded deployments pass the shard index here so the per-group
    /// leaders spread round-robin across the nodes.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `cfg`, or either knob is 0.
    pub(crate) fn from_parts(
        cfg: SystemConfig,
        me: ProcessId,
        max_inflight: usize,
        max_batch: usize,
        rotation: u32,
        obs: ObserverHandle,
    ) -> Self {
        assert!(me.index() < cfg.n(), "process {me} out of range for {cfg}");
        assert!(max_inflight >= 1, "pipeline depth must be at least 1");
        assert!(max_batch >= 1, "batch size must be at least 1");
        SmrReplica {
            cfg,
            me,
            instances: BTreeMap::new(),
            committed: BTreeMap::new(),
            applied_slots: 0,
            applied_cmds: 0,
            sm: S::default(),
            pending: VecDeque::new(),
            inflight: BTreeMap::new(),
            max_inflight,
            max_batch,
            target: 1,
            interval_max: 0,
            next_slot: 0,
            held: Vec::new(),
            received: BTreeMap::new(),
            wanted: BTreeSet::new(),
            omega: Omega::with_rotation(me, cfg.n(), OmegaMode::Heartbeats, rotation),
            obs,
        }
    }

    /// The committed log: slot → batch of commands.
    pub fn log(&self) -> &BTreeMap<u64, Batch<C>> {
        &self.committed
    }

    /// The number of *commands* applied to the state machine (the
    /// length of the contiguously applied command stream).
    pub fn applied(&self) -> u64 {
        self.applied_cmds
    }

    /// The number of contiguously applied *slots*. With batching one
    /// slot carries many commands, so this lags [`SmrReplica::applied`].
    pub fn applied_slots(&self) -> u64 {
        self.applied_slots
    }

    /// The replicated state machine.
    pub fn state(&self) -> &S {
        &self.sm
    }

    /// Commands accepted from clients but not yet committed (queued or
    /// currently in flight in a slot).
    pub fn pending(&self) -> usize {
        self.pending.len() + self.inflight.values().map(Batch::len).sum::<usize>()
    }

    /// The configured pipeline depth (concurrent in-flight batches).
    pub fn pipeline_depth(&self) -> usize {
        self.max_inflight
    }

    /// The replica-Ω's current leader estimate for this group.
    pub fn leader(&self) -> ProcessId {
        self.omega.leader()
    }

    /// The configured maximum batch size (commands per slot).
    pub fn batch_size(&self) -> usize {
        self.max_batch
    }

    fn instance(
        &mut self,
        slot: u64,
        eff: &mut Effects<C, SmrMsg<C>>,
    ) -> &mut ObjectConsensus<Batch<C>> {
        if !self.instances.contains_key(&slot) {
            let mut inst = TwoStepBuilder::new(self.cfg)
                .omega(OmegaMode::Static(self.omega.leader()))
                .observed(self.obs.clone())
                .object(self.me);
            let mut inner = Effects::new();
            inst.on_start(&mut inner);
            self.instances.insert(slot, inst);
            self.route_inner(slot, inner, eff);
        }
        let Some(inst) = self.instances.get_mut(&slot) else {
            unreachable!("instance for slot {slot} inserted above");
        };
        inst
    }

    /// Translates one instance's effects into SMR-level effects and
    /// handles its decisions.
    ///
    /// When what decides is this replica's own in-flight proposal, the
    /// `Decide`s the instance broadcasts are not sent but noted in
    /// `held`: the clients are answered from the decision itself, and
    /// the peers' copy can wait for [`SmrReplica::release`] to put it
    /// behind a message that is going to them anyway. It is held as
    /// `Decided` when the batch that committed is this replica's own,
    /// and in full when a rival's batch took the slot.
    ///
    /// A fast vote for the batch received in `to`'s `Propose` goes back
    /// to `to` as `Vote`; a fast `2B` only ever answers the sender of
    /// the `Propose` (or fast `2A`) it votes for.
    fn route_inner(
        &mut self,
        slot: u64,
        inner: Effects<Batch<C>, Msg<Batch<C>>>,
        eff: &mut Effects<C, SmrMsg<C>>,
    ) {
        let own = !inner.decisions.is_empty() && self.inflight.contains_key(&slot);
        for (to, m) in inner.sends {
            let hold = own && matches!(m, Msg::Decide(_));
            let m = match m {
                Msg::Decide(b) if self.inflight.get(&slot) == Some(&b) => SmrMsg::Decided(slot),
                Msg::TwoB(Ballot::FAST, b) if self.received.get(&(slot, to)) == Some(&b) => {
                    SmrMsg::Vote(slot)
                }
                m @ (Msg::Propose(_)
                | Msg::OneA(_)
                | Msg::OneB { .. }
                | Msg::TwoA(..)
                | Msg::TwoB(..)
                | Msg::Decide(_)
                | Msg::Heartbeat) => SmrMsg::Slot(slot, m),
            };
            if hold {
                self.held.push((to, m));
            } else {
                eff.send(to, m);
            }
        }
        for (t, d) in inner.timer_sets {
            eff.set_timer(inner_timer(slot, t), d);
        }
        for t in inner.timer_cancels {
            eff.cancel_timer(inner_timer(slot, t));
        }
        for b in inner.decisions {
            self.on_commit(slot, b, eff);
        }
    }

    fn on_commit(&mut self, slot: u64, batch: Batch<C>, eff: &mut Effects<C, SmrMsg<C>>) {
        self.next_slot = self.next_slot.max(slot + 1);
        if self.committed.contains_key(&slot) {
            return; // re-decision of the same slot (gossip); ignore
        }
        self.committed.insert(slot, batch);

        // Retire the instance: drop it and cancel its timers so settled
        // slots cost nothing — otherwise every decided instance keeps
        // its ballot-retry tick re-arming forever and per-tick work
        // grows with the log (fatal under sustained load). Late
        // retransmissions for this slot are answered from `committed`
        // in `on_message`, which keeps the stuck-peer recovery path:
        // a peer missing the slot retransmits its `Propose`, `1A`, `2A`
        // or `1B` and gets `Decide` back.
        self.instances.remove(&slot);
        for t in 0..INNER_STRIDE {
            eff.cancel_timer(inner_timer(slot, TimerId(t)));
        }
        // Nothing resolves against this slot's proposals any more.
        for p in self.cfg.process_ids() {
            self.received.remove(&(slot, p));
        }
        self.wanted.remove(&slot);

        // Did one of our in-flight proposals just resolve?
        if let Some(mine) = self.inflight.remove(&slot) {
            if self.committed.get(&slot) != Some(&mine) {
                // Lost the slot to a contending proxy: re-queue at the
                // front, preserving submission order; the next flush
                // (this step's, if the queue reaches the threshold, or
                // else the pump's) re-proposes them in a fresh slot.
                for c in mine.into_iter().rev() {
                    self.pending.push_front(c);
                }
            }
        }

        // Apply the contiguous slot prefix, emitting one decide per
        // command (the decision stream is batch-transparent).
        while let Some(b) = self.committed.get(&self.applied_slots) {
            self.obs.batch_committed(self.me, b.len());
            for c in b {
                self.sm.apply(c);
                self.applied_cmds += 1;
                eff.decide(c.clone());
            }
            self.applied_slots += 1;
        }
        self.obs.queue_depth(self.me, self.pending());
    }

    /// Proposes queued commands, up to `max_batch` per slot, while
    /// pipeline capacity remains and at least `threshold` (≥ 1) are
    /// queued.
    ///
    /// The event-driven callers pass `self.target`, so a proxy whose
    /// recent batches were large is not scattered one command per slot
    /// and an idle one does not wait at all. The pump tick passes 1 —
    /// whatever is queued goes — which bounds the wait for co-travellers
    /// to one pump interval (2Δ).
    fn flush(&mut self, threshold: usize, eff: &mut Effects<C, SmrMsg<C>>) {
        while self.inflight.len() < self.max_inflight && self.pending.len() >= threshold {
            let take = self.pending.len().min(self.max_batch);
            let batch = Batch::new(self.pending.drain(..take).collect());
            self.interval_max = self.interval_max.max(take);
            // Every event that grows the queue or frees the pipeline
            // flushes at `target`, so a batch below it waited for the pump.
            self.obs.batch_proposed(self.me, take, take < self.target);
            let slot = self.next_slot;
            self.next_slot += 1;
            self.inflight.insert(slot, batch.clone());
            let inst = self.instance(slot, eff);
            let mut inner = Effects::new();
            inst.on_propose(batch, &mut inner);
            self.route_inner(slot, inner, eff);
        }
        self.obs.queue_depth(self.me, self.pending());
    }

    /// Ends every handler: sends the held `Decide`s whose time has come.
    ///
    /// A held `Decide` leaves in the same step as, and after, the next
    /// message to its peer — the next `Propose`, a `Beacon`, any reply —
    /// so the runtime packs it into a frame it was sending anyway and
    /// the follower is woken once per batch, not twice. With nothing in
    /// flight and nothing queued no such message is in sight, and
    /// everything held goes at once. No timer is involved in either
    /// rule; the heartbeat merely bounds the wait at Δ when the proxy
    /// stops proposing with a queue still below its threshold. Holding
    /// is safe because votes, not `Decide`, carry safety: a follower
    /// that learns late applies late and nothing else.
    fn release(&mut self, eff: &mut Effects<C, SmrMsg<C>>) {
        if self.held.is_empty() {
            return;
        }
        let idle = self.inflight.is_empty() && self.pending.is_empty();
        // Whether an entry is due depends only on its peer, so every
        // held entry of a peer that is sent something goes.
        let sent_to: ProcessSet = eff.sends.iter().map(|(to, _)| *to).collect();
        for (to, m) in self
            .held
            .extract_if(.., |(to, _)| idle || sent_to.contains(*to))
        {
            eff.send(to, m);
        }
    }

    /// Turns a message that names a batch by slot back into the consensus
    /// message its instance would have received in full, or `None` when
    /// there is nothing for an instance to do.
    fn resolve(
        &mut self,
        from: ProcessId,
        msg: SmrMsg<C>,
        eff: &mut Effects<C, SmrMsg<C>>,
    ) -> Option<(u64, Msg<Batch<C>>)> {
        match msg {
            SmrMsg::Slot(slot, m) => Some((slot, m)),
            SmrMsg::Beacon => None,
            // Not in flight: the slot committed here, and a vote for a
            // settled slot is not answered.
            SmrMsg::Vote(slot) => {
                let b = self.inflight.get(&slot)?;
                Some((slot, Msg::TwoB(Ballot::FAST, b.clone())))
            }
            SmrMsg::Decided(slot) => {
                if self.committed.contains_key(&slot) {
                    return None; // gossip
                }
                if let Some(b) = self.received.get(&(slot, from)) {
                    return Some((slot, Msg::Decide(b.clone())));
                }
                // Its `Propose` was lost: ask the proxy now, and every
                // peer on each heartbeat until the slot commits.
                self.wanted.insert(slot);
                eff.send(from, SmrMsg::Want(slot));
                None
            }
            SmrMsg::Want(slot) => {
                if let Some(b) = self.committed.get(&slot) {
                    eff.send(from, SmrMsg::Slot(slot, Msg::Decide(b.clone())));
                }
                None
            }
        }
    }
}

impl<C, S> Protocol<C> for SmrReplica<C, S>
where
    C: Value,
    S: StateMachine<C>,
{
    type Message = SmrMsg<C>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_start(&mut self, eff: &mut Effects<C, SmrMsg<C>>) {
        self.omega.start(SmrMsg::Beacon, eff);
        eff.set_timer(SMR_PUMP, Duration::from_units(2 * DELTA.units()));
    }

    fn on_propose(&mut self, cmd: C, eff: &mut Effects<C, SmrMsg<C>>) {
        self.pending.push_back(cmd);
        self.flush(self.target, eff);
        self.release(eff);
    }

    fn on_message(&mut self, from: ProcessId, msg: SmrMsg<C>, eff: &mut Effects<C, SmrMsg<C>>) {
        self.omega.observe(from);
        if let Some((slot, m)) = self.resolve(from, msg, eff) {
            self.next_slot = self.next_slot.max(slot + 1);
            if let Some(b) = self.committed.get(&slot) {
                // The slot is settled here and its instance retired;
                // answer a peer still working on it with the outcome so
                // that it converges. Gossip needs no answer, and neither
                // does a vote: a vote is not a request, its sender is
                // sent the `Decide` like everyone else, and one that
                // lost it asks with `1A`.
                if !matches!(m, Msg::Decide(_) | Msg::TwoB(..)) {
                    eff.send(from, SmrMsg::Slot(slot, Msg::Decide(b.clone())));
                }
            } else {
                if let Msg::Propose(b) = &m {
                    self.received.insert((slot, from), b.clone());
                }
                let inst = self.instance(slot, eff);
                let mut inner = Effects::new();
                inst.on_message(from, m, &mut inner);
                self.route_inner(slot, inner, eff);
                // A commit above may have freed pipeline capacity; put
                // a queue that has reached the threshold in flight right
                // away.
                self.flush(self.target, eff);
            }
        }
        self.release(eff);
    }

    fn on_timer(&mut self, timer: TimerId, eff: &mut Effects<C, SmrMsg<C>>) {
        match timer {
            TimerId::HEARTBEAT | TimerId::SUSPECT => {
                if let Some(leader) = self.omega.on_timer(timer, SmrMsg::Beacon, eff) {
                    self.obs.leader_changed(self.me, leader);
                }
                if timer == TimerId::HEARTBEAT {
                    for &slot in &self.wanted {
                        eff.broadcast_others(SmrMsg::Want(slot), self.cfg.n(), self.me);
                    }
                }
                if timer == TimerId::SUSPECT {
                    let leader = self.omega.leader();
                    for inst in self.instances.values_mut() {
                        inst.set_leader_hint(leader);
                    }
                }
            }
            SMR_PUMP => {
                self.flush(1, eff);
                // The interval that just ended sets the next one's
                // threshold. Event-released batches are never smaller
                // than the threshold, so it shrinks only when all this
                // interval saw were the pump's own partial batches.
                self.target = self.interval_max.max(1);
                self.interval_max = 0;
                eff.set_timer(SMR_PUMP, Duration::from_units(2 * DELTA.units()));
            }
            t => {
                if let Some((slot, inner_t)) = split_timer(t) {
                    if let Some(inst) = self.instances.get_mut(&slot) {
                        let mut inner = Effects::new();
                        inst.on_timer(inner_t, &mut inner);
                        self.route_inner(slot, inner, eff);
                        self.flush(self.target, eff);
                    }
                }
            }
        }
        self.release(eff);
    }

    fn decision(&self) -> Option<C> {
        // The first committed command, if slot 0 is decided (decide
        // *events* carry the full applied stream; see type docs).
        self.committed.get(&0).and_then(|b| b.first()).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SmrReplicaBuilder;
    use crate::command::{KvCommand, KvStore};

    fn replica(cfg: SystemConfig, me: u32) -> SmrReplica<KvCommand, KvStore> {
        SmrReplicaBuilder::new(cfg, ProcessId::new(me)).build()
    }

    #[test]
    fn timer_namespacing_roundtrips() {
        for slot in [0u64, 1, 7, 1000] {
            for t in [TimerId(0), TimerId(1), TimerId(2)] {
                let mapped = inner_timer(slot, t);
                assert_eq!(split_timer(mapped), Some((slot, t)));
            }
        }
        assert_eq!(split_timer(TimerId::HEARTBEAT), None);
        assert_eq!(split_timer(TimerId::SUSPECT), None);
        assert_eq!(split_timer(SMR_PUMP), None);
    }

    /// Regression test for the `slot as u32` truncation: slots at and
    /// beyond 2³⁰ used to wrap the timer-id arithmetic and alias other
    /// instances' namespaces. The mapping must stay injective in `u64`.
    #[test]
    fn timer_namespacing_survives_huge_slots() {
        let huge = [1u64 << 30, (1 << 30) + 1, 1 << 32, 1 << 40, u64::MAX >> 3];
        for &slot in &huge {
            for t in [TimerId(0), TimerId(3)] {
                assert_eq!(split_timer(inner_timer(slot, t)), Some((slot, t)));
            }
        }
        // The pre-fix failure mode: slot 2³⁰ aliased slot 0 under the
        // u32 cast (2³⁰ · 4 wrapped to 0). Now the ids are distinct.
        assert_ne!(inner_timer(1 << 30, TimerId(0)), inner_timer(0, TimerId(0)));
    }

    #[test]
    #[should_panic(expected = "overflows the timer-id namespace")]
    fn timer_namespacing_rejects_wrapping_slot() {
        let _ = inner_timer(u64::MAX / 2, TimerId(0));
    }

    #[test]
    fn propose_creates_instance_and_traffic() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let mut r = replica(cfg, 0);
        let mut eff = Effects::new();
        r.on_start(&mut eff);
        let mut eff = Effects::new();
        r.on_propose(KvCommand::put("k", "v"), &mut eff);
        assert!(eff
            .sends
            .iter()
            .any(|(_, m)| matches!(m, SmrMsg::Slot(0, Msg::Propose(_)))));
        assert_eq!(r.pending(), 1);
    }

    /// A three-replica group at `minimal_object(1, 1)` stepped by hand:
    /// replica 0 is the proxy under test and every message is delivered
    /// at once, so a proposed batch commits before `submit` returns.
    /// Only `on_propose`/`on_message`/`on_timer` touch the replicas.
    struct Group {
        replicas: Vec<SmrReplica<KvCommand, KvStore>>,
        seq: u32,
    }

    impl Group {
        fn new(batch: usize) -> Self {
            let cfg = SystemConfig::minimal_object(1, 1).unwrap();
            let mut replicas: Vec<SmrReplica<KvCommand, KvStore>> = (0..cfg.n() as u32)
                .map(|i| {
                    SmrReplicaBuilder::new(cfg, ProcessId::new(i))
                        .pipeline(2)
                        .batch(batch)
                        .build()
                })
                .collect();
            for r in &mut replicas {
                r.on_start(&mut Effects::new());
            }
            Group { replicas, seq: 0 }
        }

        fn proxy(&self) -> &SmrReplica<KvCommand, KvStore> {
            &self.replicas[0]
        }

        /// Submits `k` commands to the proxy without delivering anything
        /// in between; returns the sizes of the batches it proposed.
        fn submit(&mut self, k: usize) -> Vec<usize> {
            let mut eff = Effects::new();
            for _ in 0..k {
                self.seq += 1;
                self.replicas[0]
                    .on_propose(KvCommand::put(format!("k{}", self.seq), "v"), &mut eff);
            }
            self.settle(eff)
        }

        /// Fires the proxy's pump; returns the sizes it proposed.
        fn pump(&mut self) -> Vec<usize> {
            let mut eff = Effects::new();
            self.replicas[0].on_timer(SMR_PUMP, &mut eff);
            self.settle(eff)
        }

        /// Delivers the proxy's effects and everything they cause until
        /// the group is quiet; returns the sizes of every batch the proxy
        /// proposed, in slot order.
        fn settle(&mut self, eff: Effects<KvCommand, SmrMsg<KvCommand>>) -> Vec<usize> {
            let me = ProcessId::new(0);
            let mut proposed = BTreeMap::new();
            let mut queue: VecDeque<_> = eff.sends.into_iter().map(|(to, m)| (me, to, m)).collect();
            while let Some((from, to, m)) = queue.pop_front() {
                if let (true, SmrMsg::Slot(slot, Msg::Propose(b))) = (from == me, &m) {
                    proposed.insert(*slot, b.len());
                }
                let mut out = Effects::new();
                self.replicas[to.index()].on_message(from, m, &mut out);
                queue.extend(out.sends.into_iter().map(|(next, m)| (to, next, m)));
            }
            let target = self.proxy().target;
            assert!(
                (1..=self.proxy().max_batch).contains(&target),
                "target {target}"
            );
            proposed.into_values().collect()
        }
    }

    #[test]
    fn lone_command_on_a_fresh_replica_is_proposed_in_the_same_step() {
        let mut g = Group::new(4);
        assert_eq!(g.submit(1), vec![1]);
        assert_eq!(g.proxy().applied(), 1);
        // Nothing is left for the pump, and an idle interval keeps the
        // threshold at its floor.
        assert_eq!(g.pump(), Vec::<usize>::new());
        assert_eq!(g.proxy().target, 1);
    }

    #[test]
    fn after_full_batches_a_partial_queue_waits_for_the_pump() {
        let mut g = Group::new(4);
        // A burst that outruns the pipeline queues up behind it and
        // leaves as full batches once slots free up.
        assert_eq!(g.submit(10), vec![1, 1, 4, 4]);
        g.pump();
        assert_eq!(g.proxy().target, 4);

        // An interval of full batches: the fourth command releases each.
        assert_eq!(g.submit(3), Vec::<usize>::new());
        assert_eq!(g.submit(1), vec![4]);
        assert_eq!(g.submit(4), vec![4]);
        g.pump();
        assert_eq!(g.proxy().target, 4);

        // Three commands now wait, and the pump sends them as one slot.
        assert_eq!(g.submit(3), Vec::<usize>::new());
        assert_eq!(g.proxy().pending(), 3);
        assert_eq!(g.pump(), vec![3]);
        assert_eq!(g.proxy().applied(), 21);
    }

    #[test]
    fn load_drop_adapts_down_within_two_pump_ticks() {
        let mut g = Group::new(4);
        g.submit(8);
        g.pump();
        assert_eq!(g.submit(8), vec![4, 4]);
        assert_eq!(g.proxy().target, 4);

        // One client left. Its command waits for the first tick, which
        // still closes an interval that saw full batches ...
        assert_eq!(g.submit(1), Vec::<usize>::new());
        assert_eq!(g.pump(), vec![1]);
        assert_eq!(g.proxy().target, 4);
        // ... and for the second, which closes one that saw only it.
        assert_eq!(g.submit(1), Vec::<usize>::new());
        assert_eq!(g.pump(), vec![1]);
        assert_eq!(g.proxy().target, 1);
        // From then on nothing waits.
        assert_eq!(g.submit(1), vec![1]);
    }

    #[test]
    fn load_rise_reaches_full_batches_within_one_interval() {
        let mut g = Group::new(4);
        for _ in 0..3 {
            assert_eq!(g.submit(1), vec![1]);
            g.pump();
        }
        assert_eq!(g.proxy().target, 1);

        // Eight commands arrive before anything commits: two fill the
        // pipeline, the rest leave as full-as-possible batches behind
        // them, and the tick that ends the interval adopts that size.
        assert_eq!(g.submit(8), vec![1, 1, 4, 2]);
        g.pump();
        assert_eq!(g.proxy().target, 4);
        assert_eq!(g.submit(8), vec![4, 4]);
    }

    #[test]
    fn target_stays_within_one_and_max_batch() {
        // `settle` asserts the range after every step; drive a seeded mix
        // of bursts and ticks through batch sizes 1, 3 and 4.
        for batch in [1, 3, 4] {
            let mut g = Group::new(batch);
            let mut rng = twostep_types::SplitMix64::new(batch as u64);
            for _ in 0..200 {
                if rng.below(4) == 0 {
                    g.pump();
                } else {
                    g.submit(rng.below(12) as usize);
                }
            }
            g.pump();
            assert_eq!(g.proxy().pending(), 0);
            assert_eq!(g.proxy().applied(), u64::from(g.seq));
        }
    }

    type Eff = Effects<KvCommand, SmrMsg<KvCommand>>;

    /// A message's kind and slot. The kinds of `SmrMsg::Slot` are those
    /// of the consensus message inside, which carries the batch in full.
    fn kind(m: &SmrMsg<KvCommand>) -> (&'static str, u64) {
        match m {
            SmrMsg::Beacon => ("Beacon", 0),
            SmrMsg::Vote(s) => ("Vote", *s),
            SmrMsg::Decided(s) => ("Decided", *s),
            SmrMsg::Want(s) => ("Want", *s),
            SmrMsg::Slot(s, Msg::Propose(_)) => ("Propose", *s),
            SmrMsg::Slot(s, Msg::TwoB(..)) => ("TwoB", *s),
            SmrMsg::Slot(s, Msg::Decide(_)) => ("Decide", *s),
            SmrMsg::Slot(s, _) => ("other", *s),
        }
    }

    /// What a step sent, as `(destination, kind, slot)` in order.
    fn sent(eff: &Eff) -> Vec<(u32, &'static str, u64)> {
        let row = |(to, m): &(ProcessId, SmrMsg<KvCommand>)| {
            let (kind, slot) = kind(m);
            (to.as_u32(), kind, slot)
        };
        eff.sends.iter().map(row).collect()
    }

    /// Hand-stepping, one handler call at a time, for the tests that
    /// look at what a single step of the proxy sends.
    impl Group {
        /// One command submitted at the proxy; its effects, undelivered.
        fn propose(&mut self) -> Eff {
            let mut eff = Effects::new();
            self.seq += 1;
            self.replicas[0].on_propose(KvCommand::put(format!("k{}", self.seq), "v"), &mut eff);
            eff
        }

        /// Fires `timer` at the proxy; its effects, undelivered.
        fn fire(&mut self, timer: TimerId) -> Eff {
            self.fire_at(0, timer)
        }

        /// Fires `timer` at replica `at`; its effects, undelivered.
        fn fire_at(&mut self, at: u32, timer: TimerId) -> Eff {
            let mut eff = Effects::new();
            self.replicas[at as usize].on_timer(timer, &mut eff);
            eff
        }

        /// Delivers `m` from `from` to `to`; the receiver's effects.
        fn deliver(&mut self, from: u32, to: u32, m: SmrMsg<KvCommand>) -> Eff {
            let mut eff = Effects::new();
            self.replicas[to as usize].on_message(ProcessId::new(from), m, &mut eff);
            eff
        }

        /// Replica 1 receives the proxy's `Propose` for `slot` out of
        /// `proposal` and its fast vote reaches the proxy, which is a
        /// fast quorum at n = 3: the proxy's effects in the step that
        /// commits `slot`.
        fn commit_at_proxy(&mut self, proposal: &Eff, slot: u64) -> Eff {
            let is_it = |(to, m): &&(ProcessId, SmrMsg<KvCommand>)| {
                to.as_u32() == 1 && matches!(m, SmrMsg::Slot(s, Msg::Propose(_)) if *s == slot)
            };
            let (_, propose) = proposal.sends.iter().find(is_it).expect("a Propose to p1");
            let vote = self.deliver(0, 1, propose.clone());
            assert_eq!(sent(&vote), vec![(0, "Vote", slot)]);
            let before = self.proxy().applied_slots();
            let (_, vote) = vote.sends.into_iter().next().unwrap();
            let eff = self.deliver(1, 0, vote);
            assert_eq!(self.proxy().applied_slots(), before + 1);
            eff
        }
    }

    #[test]
    fn a_commit_with_another_batch_in_flight_holds_its_decide_for_the_next_propose() {
        let mut g = Group::new(4);
        let first = g.propose();
        let _second = g.propose();
        assert_eq!(g.proxy().inflight.len(), 2);

        // Slot 0 commits with slot 1 in flight and nothing queued: the
        // step sends nothing at all.
        let eff = g.commit_at_proxy(&first, 0);
        assert_eq!(eff.decisions.len(), 1, "the client is answered at once");
        assert_eq!(sent(&eff), vec![]);
        assert_eq!(
            g.proxy().held,
            vec![
                (ProcessId::new(1), SmrMsg::Decided(0)),
                (ProcessId::new(2), SmrMsg::Decided(0))
            ]
        );

        // The step that proposes the next batch sends each peer its
        // `Propose` and, behind it, the `Decide` it was owed, by slot.
        let eff = g.propose();
        assert_eq!(
            sent(&eff),
            vec![
                (1, "Propose", 2),
                (2, "Propose", 2),
                (1, "Decided", 0),
                (2, "Decided", 0)
            ]
        );
        assert!(g.proxy().held.is_empty());
    }

    #[test]
    fn a_commit_that_frees_the_pipeline_for_a_queued_batch_sends_both_in_one_step() {
        let mut g = Group::new(4);
        let first = g.propose();
        g.propose();
        assert_eq!(sent(&g.propose()), vec![], "the pipeline is full");
        let eff = g.commit_at_proxy(&first, 0);
        assert_eq!(
            sent(&eff),
            vec![
                (1, "Propose", 2),
                (2, "Propose", 2),
                (1, "Decided", 0),
                (2, "Decided", 0)
            ]
        );
    }

    #[test]
    fn the_commit_that_empties_the_pipeline_releases_everything_held() {
        let mut g = Group::new(4);
        let first = g.propose();
        let second = g.propose();
        assert_eq!(sent(&g.commit_at_proxy(&first, 0)), vec![]);
        // Nothing in flight and nothing queued after this one: no later
        // message is in sight, so both slots' `Decide`s go now.
        let eff = g.commit_at_proxy(&second, 1);
        assert_eq!(
            sent(&eff),
            vec![
                (1, "Decided", 0),
                (2, "Decided", 0),
                (1, "Decided", 1),
                (2, "Decided", 1)
            ]
        );
        assert!(g.proxy().held.is_empty());
        // Delivered, they bring the followers level with no timer fired.
        g.settle(eff);
        for r in &g.replicas {
            assert_eq!(r.applied(), 2);
        }
    }

    #[test]
    fn a_beacon_step_carries_what_is_held() {
        let mut g = Group::new(4);
        let first = g.propose();
        g.propose();
        g.commit_at_proxy(&first, 0);
        let eff = g.fire(TimerId::HEARTBEAT);
        assert_eq!(
            sent(&eff),
            vec![
                (1, "Beacon", 0),
                (2, "Beacon", 0),
                (1, "Decided", 0),
                (2, "Decided", 0)
            ]
        );
        assert!(g.proxy().held.is_empty());
    }

    #[test]
    fn a_reply_to_one_peer_carries_only_that_peers_decide() {
        let mut g = Group::new(4);
        let first = g.propose();
        g.propose();
        g.commit_at_proxy(&first, 0);
        // p2 retransmits something for the settled slot: its answer, in
        // full, and the `Decide` held for it leave together, p1's stays.
        let stale = SmrMsg::Slot(0, Msg::OneA(Ballot::new(5)));
        let eff = g.deliver(2, 0, stale);
        assert_eq!(sent(&eff), vec![(2, "Decide", 0), (2, "Decided", 0)]);
        assert_eq!(
            g.proxy().held,
            vec![(ProcessId::new(1), SmrMsg::Decided(0))]
        );
    }

    /// Runs replica 0 as the slow-path leader of slot 0, proposed by
    /// replica 1, with every fast vote for slot 0 lost; returns each of
    /// replica 0's steps' sends. With `rival`, replica 0 has first
    /// proposed a batch of its own in slot 0, its `Propose`s are lost,
    /// and so is replica 1's `1B`: recovery then reads replica 2's vote
    /// for replica 1's batch and picks it.
    fn slow_path_at_the_leader(g: &mut Group, rival: bool) -> Vec<Vec<(u32, &'static str, u64)>> {
        if rival {
            g.propose();
        }
        let lost = |from: u32, to: ProcessId, m: &SmrMsg<KvCommand>| {
            let fast_vote = matches!(
                m,
                SmrMsg::Vote(0) | SmrMsg::Slot(0, Msg::TwoB(Ballot::FAST, _))
            );
            let one_b = matches!(m, SmrMsg::Slot(0, Msg::OneB { .. }));
            fast_vote || (rival && one_b && from == 1 && to.as_u32() == 0)
        };
        let mut eff = Effects::new();
        g.replicas[1].on_propose(KvCommand::put("k", "v"), &mut eff);
        let mut steps = Vec::new();
        let mut queue: VecDeque<_> = eff.sends.into_iter().map(|(to, m)| (1, to, m)).collect();
        let mut fired = false;
        loop {
            while let Some((from, to, m)) = queue.pop_front() {
                if lost(from, to, &m) {
                    continue;
                }
                let out = g.deliver(from, to.as_u32(), m);
                if to.as_u32() == 0 {
                    steps.push(sent(&out));
                }
                queue.extend(
                    out.sends
                        .into_iter()
                        .map(|(next, m)| (to.as_u32(), next, m)),
                );
            }
            if fired {
                return steps;
            }
            // Quiet and undecided: the leader's ballot timer fires.
            fired = true;
            let out = g.fire(inner_timer(0, TimerId::NEW_BALLOT));
            steps.push(sent(&out));
            queue.extend(out.sends.into_iter().map(|(next, m)| (0, next, m)));
        }
    }

    #[test]
    fn a_slow_path_decide_of_someone_elses_slot_is_not_held() {
        let mut g = Group::new(4);
        let steps = slow_path_at_the_leader(&mut g, false);
        // The step in which the leader decides broadcasts the `Decide`.
        let deciding: Vec<_> = steps
            .iter()
            .filter(|step| step.iter().any(|(_, kind, _)| *kind == "Decide"))
            .collect();
        assert_eq!(deciding, vec![&vec![(1, "Decide", 0), (2, "Decide", 0)]]);
        assert!(g.proxy().held.is_empty());
        for r in &g.replicas {
            assert_eq!(r.applied(), 1);
        }
        assert_eq!(g.replicas[1].pending(), 0);
    }

    #[test]
    fn a_proxy_that_lost_its_slot_sends_the_rivals_batch_in_full() {
        let mut g = Group::new(4);
        let steps = slow_path_at_the_leader(&mut g, true);
        // The leader decides p1's batch in the slot it had proposed in
        // itself. Its `Decide`s are held as before, and leave behind the
        // re-proposal of its own batch in slot 1, in full: no peer holds
        // a batch of the leader's for slot 0 to resolve `Decided` against.
        let deciding: Vec<_> = steps
            .iter()
            .filter(|step| step.iter().any(|(_, _, slot)| *slot == 0))
            .filter(|step| step.iter().any(|(_, kind, _)| kind.starts_with("Decide")))
            .collect();
        assert_eq!(
            deciding,
            vec![&vec![
                (1, "Propose", 1),
                (2, "Propose", 1),
                (1, "Decide", 0),
                (2, "Decide", 0)
            ]]
        );
        // The re-proposal commits on the fast path and goes by slot.
        assert!(steps.contains(&vec![(1, "Decided", 1), (2, "Decided", 1)]));
        for r in &g.replicas {
            assert_eq!(r.applied(), 2);
            assert_eq!(r.log(), g.proxy().log());
        }
    }

    #[test]
    fn held_never_exceeds_peers_times_depth() {
        // Messages in transit are delivered in seeded order, mixed with
        // submissions, pump ticks and heartbeats at the proxy, and the
        // bound is checked after every step. The last thousand rounds
        // only deliver and tick, so that every run ends level. A
        // `Decided` may overtake its `Propose`, so `Want` is exercised too.
        let mut asked = false;
        for seed in 0..8u64 {
            let mut g = Group::new(3);
            let bound = (g.replicas.len() - 1) * g.proxy().max_inflight;
            let mut rng = twostep_types::SplitMix64::new(seed);
            let mut transit: Vec<(u32, u32, SmrMsg<KvCommand>)> = Vec::new();
            let mut peak = 0;
            for round in 0..3_000 {
                let (at, eff) = match rng.below(if round < 2_000 { 8 } else { 5 }) {
                    0..=3 if !transit.is_empty() => {
                        let i = rng.below(transit.len() as u64) as usize;
                        let (from, to, m) = transit.swap_remove(i);
                        (to, g.deliver(from, to, m))
                    }
                    0..=4 => (0, g.fire(SMR_PUMP)),
                    5 => (0, g.fire(TimerId::HEARTBEAT)),
                    _ => (0, g.propose()),
                };
                transit.extend(eff.sends.into_iter().map(|(to, m)| (at, to.as_u32(), m)));
                let held = g.proxy().held.len();
                assert!(held <= bound, "seed {seed}: {held} held, bound {bound}");
                peak = peak.max(held);
                asked |= g.replicas.iter().any(|r| !r.wanted.is_empty());
            }
            assert!(peak > 0, "seed {seed}: nothing was ever held");
            assert!(
                transit.is_empty() && g.proxy().held.is_empty(),
                "seed {seed}"
            );
            for r in &g.replicas {
                assert_eq!(r.applied(), u64::from(g.seq), "seed {seed}");
                assert!(r.wanted.is_empty(), "seed {seed}: {:?}", r.wanted);
                assert!(r.received.is_empty(), "seed {seed}: not pruned");
            }
        }
        assert!(asked, "no `Decided` ever overtook its `Propose`");
    }

    #[test]
    fn a_queue_waiting_below_the_threshold_holds_up_to_the_bound() {
        let mut g = Group::new(4);
        g.submit(8);
        g.pump();
        assert_eq!(g.proxy().target, 4);
        // Two full batches in flight and a ninth command queued behind
        // them, below the threshold: neither commit proposes anything,
        // and the second leaves the proxy busy, so both are held.
        let mut proposals: Vec<Eff> = (0..9).map(|_| g.propose()).collect();
        let (second, first) = (proposals.swap_remove(7), proposals.swap_remove(3));
        assert_eq!(sent(&g.commit_at_proxy(&first, 4)), vec![]);
        assert_eq!(sent(&g.commit_at_proxy(&second, 5)), vec![]);
        assert_eq!(g.proxy().held.len(), 2 * g.proxy().max_inflight);
        // The next heartbeat is the latest they leave.
        let eff = g.fire(TimerId::HEARTBEAT);
        assert_eq!(sent(&eff).len(), 2 + 4);
        assert!(g.proxy().held.is_empty());
    }

    /// The seventh message: a fast vote that arrives after its slot
    /// settled was answered with the whole batch in a `Decide` its sender
    /// is being sent anyway.
    #[test]
    fn a_vote_for_a_settled_slot_is_not_answered() {
        let mut g = Group::new(4);
        let proposal = g.propose();
        let eff = g.commit_at_proxy(&proposal, 0);
        assert_eq!(sent(&eff), vec![(1, "Decided", 0), (2, "Decided", 0)]);
        // p2's vote for the same batch arrives late, in any form.
        let SmrMsg::Slot(0, Msg::Propose(b)) = proposal.sends[1].1.clone() else {
            panic!("a Propose for slot 0");
        };
        let late = g.deliver(2, 0, SmrMsg::Vote(0));
        assert_eq!(sent(&late), vec![]);
        let late = g.deliver(2, 0, SmrMsg::Slot(0, Msg::TwoB(Ballot::FAST, b.clone())));
        assert_eq!(sent(&late), vec![]);
        let late = g.deliver(2, 0, SmrMsg::Slot(0, Msg::TwoB(Ballot::new(4), b)));
        assert_eq!(sent(&late), vec![]);
    }

    /// The stuck-peer path the comment at `on_commit` promises: whatever
    /// a peer still working on a settled slot sends, bar votes and
    /// gossip, is answered with the outcome.
    #[test]
    fn requests_for_a_settled_slot_are_answered_with_decide() {
        let mut g = Group::new(4);
        let proposal = g.propose();
        g.commit_at_proxy(&proposal, 0);
        let b = g.proxy().log()[&0].clone();
        let other = Batch::single(KvCommand::put("other", "v"));
        let stuck = [
            Msg::Propose(other.clone()),
            Msg::OneA(Ballot::new(4)),
            Msg::TwoA(Ballot::new(4), other.clone()),
            Msg::OneB {
                bal: Ballot::new(3),
                vbal: Ballot::FAST,
                val: Some(other),
                proposer: Some(ProcessId::new(2)),
                decided: None,
            },
        ];
        for m in stuck {
            let eff = g.deliver(2, 0, SmrMsg::Slot(0, m.clone()));
            assert_eq!(
                eff.sends,
                vec![(ProcessId::new(2), SmrMsg::Slot(0, Msg::Decide(b.clone())))],
                "{m:?}"
            );
        }
        let eff = g.deliver(2, 0, SmrMsg::Slot(0, Msg::Decide(b)));
        assert_eq!(sent(&eff), vec![], "gossip is not answered");
        let eff = g.deliver(2, 0, SmrMsg::Decided(0));
        assert_eq!(sent(&eff), vec![], "nor is a settled slot's `Decided`");
    }

    /// On the fast path a batch crosses the wire in its two `Propose`s
    /// and nowhere else: the votes and the held `Decide`s name it by slot.
    #[test]
    fn on_the_fast_path_only_the_proposes_carry_the_batch() {
        let mut g = Group::new(4);
        let first = g.propose();
        let second = g.propose();
        let sends = first.sends.into_iter().chain(second.sends);
        let mut queue: VecDeque<_> = sends.map(|(to, m)| (0, to.as_u32(), m)).collect();
        let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
        while let Some((from, to, m)) = queue.pop_front() {
            *kinds.entry(kind(&m).0).or_default() += 1;
            let out = g.deliver(from, to, m);
            queue.extend(
                out.sends
                    .into_iter()
                    .map(|(next, m)| (to, next.as_u32(), m)),
            );
        }
        // Six messages a slot, two slots.
        let want: BTreeMap<&str, usize> = [("Propose", 4), ("Vote", 4), ("Decided", 4)].into();
        assert_eq!(kinds, want);
        for r in &g.replicas {
            assert_eq!(r.applied(), 2);
            assert!(r.received.is_empty() && r.wanted.is_empty());
        }
    }

    /// Replica 0 proposes one command and commits it with replica 1's
    /// vote while its `Propose` to replica 2 is lost; returns the
    /// `Decided` it sent replica 2 (at once: nothing else is in flight).
    fn commit_without_p2(g: &mut Group) -> SmrMsg<KvCommand> {
        let proposal = g.propose();
        let eff = g.commit_at_proxy(&proposal, 0);
        assert_eq!(sent(&eff), vec![(1, "Decided", 0), (2, "Decided", 0)]);
        g.deliver(0, 1, eff.sends[0].1.clone());
        assert_eq!(g.replicas[1].applied(), 1, "p1 resolves it");
        eff.sends[1].1.clone()
    }

    #[test]
    fn a_follower_that_lost_the_propose_asks_for_the_decide() {
        let mut g = Group::new(4);
        let decided = commit_without_p2(&mut g);
        let ask = g.deliver(0, 2, decided);
        assert_eq!(sent(&ask), vec![(0, "Want", 0)]);
        assert_eq!(g.replicas[2].wanted, BTreeSet::from([0]));
        // The proxy answers from its log, in full.
        let answer = g.deliver(2, 0, ask.sends[0].1.clone());
        let b = g.proxy().log()[&0].clone();
        assert_eq!(
            answer.sends,
            vec![(ProcessId::new(2), SmrMsg::Slot(0, Msg::Decide(b)))]
        );
        g.deliver(0, 2, answer.sends[0].1.clone());
        assert_eq!(g.replicas[2].applied(), 1);
        assert_eq!(g.replicas[2].log(), g.proxy().log());
        assert!(g.replicas[2].wanted.is_empty());
    }

    #[test]
    fn a_lost_want_is_asked_again_of_every_peer_on_the_next_heartbeat() {
        let mut g = Group::new(4);
        let decided = commit_without_p2(&mut g);
        // p2's `Want` is lost, and the proxy crashes: it is never stepped
        // again.
        assert_eq!(sent(&g.deliver(0, 2, decided)), vec![(0, "Want", 0)]);
        let beat = g.fire_at(2, TimerId::HEARTBEAT);
        assert_eq!(
            sent(&beat),
            vec![
                (0, "Beacon", 0),
                (1, "Beacon", 0),
                (0, "Want", 0),
                (1, "Want", 0)
            ]
        );
        // The other follower has the slot and answers.
        let answer = g.deliver(2, 1, beat.sends[3].1.clone());
        assert_eq!(sent(&answer), vec![(2, "Decide", 0)]);
        g.deliver(1, 2, answer.sends[0].1.clone());
        assert_eq!(g.replicas[2].applied(), 1);
        assert_eq!(g.replicas[2].log(), g.replicas[1].log());
        // Committed, the slot is asked for no more.
        let beat = g.fire_at(2, TimerId::HEARTBEAT);
        assert_eq!(sent(&beat), vec![(0, "Beacon", 0), (1, "Beacon", 0)]);
    }

    /// A fast vote goes by slot only when it is for the batch received
    /// in its receiver's `Propose`; a revote after a fast `2A` is not.
    #[test]
    fn a_revote_after_a_fast_two_a_goes_in_full() {
        let mut g = Group::new(4);
        let proposal = g.propose();
        let (_, propose) = proposal.sends[1].clone();
        let SmrMsg::Slot(0, Msg::Propose(b)) = propose.clone() else {
            panic!("a Propose for slot 0 to p2");
        };
        assert_eq!(sent(&g.deliver(0, 2, propose)), vec![(0, "Vote", 0)]);
        let other = Batch::single(KvCommand::put("other", "v"));
        let two_a = SmrMsg::Slot(0, Msg::TwoA(Ballot::FAST, other.clone()));
        assert_eq!(
            g.deliver(0, 2, two_a).sends,
            vec![(
                ProcessId::new(0),
                SmrMsg::Slot(0, Msg::TwoB(Ballot::FAST, other))
            )]
        );
        // Nor to a replica whose `Propose` p2 never received, even for
        // the batch p2 holds.
        let two_a = SmrMsg::Slot(0, Msg::TwoA(Ballot::FAST, b.clone()));
        assert_eq!(
            g.deliver(1, 2, two_a).sends,
            vec![(
                ProcessId::new(1),
                SmrMsg::Slot(0, Msg::TwoB(Ballot::FAST, b))
            )]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_replica_panics() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let _ = replica(cfg, 5);
    }
}
