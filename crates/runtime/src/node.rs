//! One protocol instance, stepped by one thread at a time: its own, a
//! TCP reader, an in-memory sender or the delay line.
//!
//! A node's protocol instances and the engine state their steps change
//! sit behind one mutex, which means *who steps this node now*. The node
//! thread takes it once per event — a timer pass, a client submission,
//! an inbox frame — and keeps the timers and the control channel. In a
//! cluster, every thread that delivers a frame to the node — a blocking
//! TCP reader that has read it, an in-memory sender that has produced
//! it, the delay line releasing it — `try_lock`s the mutex and, when the
//! node is free, runs the same step on its own thread (see
//! [`crate::TcpTransport`] and [`crate::InMemoryTransport`]); it never
//! waits for the lock.
//!
//! **Nothing waits on a node but its own thread.** The one blocking
//! acquisition of a node's mutex is the node thread's, at the top of
//! each event, holding no other node. Steps therefore nest without
//! deadlock: in p1's step, p1's thread may step p0, whose vote back to
//! p1 finds p1 held — by this very thread — and goes to p1's inbox, as
//! `try_lock` neither blocks nor re-enters. That holds for
//! `std::sync::Mutex` (POSIX `trylock` and the futex fast path both
//! refuse a mutex the caller holds) and for `parking_lot`, whose `Mutex`
//! is not reentrant and whose `try_lock` is one compare-and-swap. A
//! thread holds each node's mutex at most once, so nesting is at most
//! `n` deep.
//!
//! A step that panics stops its node and only it: the node is marked
//! stopped, its thread told to shut down, and the thread that ran the
//! step — perhaps a peer's node thread or the delay line — carries on.

use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration as WallDuration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::{Mutex, MutexGuard};

use twostep_telemetry::{msg_kind, ObserverHandle};
use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::{ProcessId, Value, DELTA};

use crate::codec;
use crate::transport::{Readers, StepInline, Transport};

/// How long the node thread waits for an event when no timer is set.
const IDLE_WAIT: WallDuration = WallDuration::from_millis(50);

/// Control events a node accepts besides network traffic.
#[derive(Debug)]
pub enum Control<V> {
    /// A client proposal submitted at this node (the *proxy* role from
    /// the paper's introduction), addressed to one of the consensus
    /// groups it hosts; shard 0 is the only one on an unsharded node.
    ProposeAt(u32, V),
    /// Stop the node immediately — models a crash (no clean handover).
    /// Also what a step that panicked, on any thread, tells the node.
    Shutdown,
    /// A step run on another thread set a timer due before the node
    /// thread's wait ends: wake up and wait for the new deadline. Sent
    /// by the threads that deliver to the node, never by clients.
    Rearm,
}

/// Handle to a spawned node.
#[derive(Debug)]
pub struct NodeHandle<V> {
    id: ProcessId,
    control: Sender<Control<V>>,
    join: Option<JoinHandle<()>>,
}

impl<V> NodeHandle<V> {
    /// The node's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Submits a client proposal to shard 0 (the only shard of an
    /// unsharded node); silently dropped if the node crashed.
    pub fn propose(&self, value: V) {
        self.propose_at(0, value);
    }

    /// Submits a client proposal to a specific shard of a sharded node;
    /// silently dropped if the node crashed or the shard is not hosted.
    pub fn propose_at(&self, shard: u32, value: V) {
        let _ = self.control.send(Control::ProposeAt(shard, value));
    }

    /// A clone of the control channel, for client handles that outlive
    /// borrows of the node (see `ProxyClient`).
    pub(crate) fn control(&self) -> Sender<Control<V>> {
        self.control.clone()
    }

    /// Crashes the node: it stops processing immediately.
    pub fn crash(&mut self) {
        let _ = self.control.send(Control::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl<V> Drop for NodeHandle<V> {
    fn drop(&mut self) {
        self.crash();
    }
}

/// Engine-level options for [`spawn_node`] and the cluster builder.
///
/// * `wall_delta` — the wall-clock duration of one `Δ`; protocol timer
///   delays (expressed in virtual units where `Δ` = [`DELTA`]) are
///   scaled by `wall_delta / Δ`. Defaults to 10ms.
/// * `decisions` — every `decide(v)` event is reported as
///   `(id, shard, v, wall time)`, from the thread that stepped the node
///   (its own, or in a cluster whichever delivered the frame);
///   unsharded nodes always report shard 0.
/// * `observer` — engine telemetry: per-kind encoded sizes
///   (`bytes_sent`) and this process's first decision latency in
///   wall-clock **microseconds** since node start (`decision_latency`).
///   Protocol-level events are reported by the protocol instance itself
///   — pass the same handle to its builder's `observed`.
/// * `shard_observers` — optional per-shard engine telemetry; shard `s`
///   reports to `shard_observers[s]` when present, falling back to the
///   shared `observer` otherwise.
#[derive(Clone)]
pub struct NodeOptions<V> {
    /// Wall-clock length of one `Δ`.
    pub wall_delta: WallDuration,
    /// Sink for `decide(v)` events, tagged with the deciding shard.
    pub(crate) decisions: DecisionSink<V>,
    /// Engine telemetry hooks (detached by default).
    pub observer: ObserverHandle,
    /// Per-shard engine telemetry hooks (empty by default).
    pub shard_observers: Vec<ObserverHandle>,
}

/// What a node calls, on the thread stepping it, with each decide event:
/// `(id, shard, v, wall time)`.
pub(crate) type DecisionSink<V> = Arc<dyn Fn(ProcessId, u32, V, Instant) + Send + Sync>;

impl<V> fmt::Debug for NodeOptions<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeOptions")
            .field("wall_delta", &self.wall_delta)
            .field("observer", &self.observer)
            .field("shard_observers", &self.shard_observers)
            .finish_non_exhaustive()
    }
}

impl<V> NodeOptions<V> {
    /// Options with the default Δ (10ms) and no observer, sending every
    /// decide event down `decisions`.
    pub fn new(decisions: Sender<(ProcessId, u32, V, Instant)>) -> Self
    where
        V: Send + 'static,
    {
        Self::reporting_to(Arc::new(move |p, shard, v, at| {
            let _ = decisions.send((p, shard, v, at));
        }))
    }

    /// The same, handing every decide event to `decisions` instead.
    pub(crate) fn reporting_to(decisions: DecisionSink<V>) -> Self {
        NodeOptions {
            wall_delta: WallDuration::from_millis(10),
            decisions,
            observer: ObserverHandle::none(),
            shard_observers: Vec::new(),
        }
    }

    /// Sets the wall-clock length of one `Δ`.
    #[must_use]
    pub fn wall_delta(mut self, wall_delta: WallDuration) -> Self {
        self.wall_delta = wall_delta;
        self
    }

    /// Attaches engine telemetry hooks.
    #[must_use]
    pub fn observed(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    /// Attaches per-shard engine telemetry hooks (shard `s` uses entry
    /// `s`; missing entries fall back to the shared observer).
    #[must_use]
    pub fn shard_observed(mut self, shard_observers: Vec<ObserverHandle>) -> Self {
        self.shard_observers = shard_observers;
        self
    }

    /// The handle shard `shard` reports to: its `shard_observers` entry
    /// when present, the shared `observer` otherwise. The one statement
    /// of that fallback — the node loop and the cluster builder (which
    /// hands the same handle to the shard's replica) both ask here.
    pub(crate) fn observer_of(&self, shard: usize) -> ObserverHandle {
        self.shard_observers
            .get(shard)
            .unwrap_or(&self.observer)
            .clone()
    }
}

/// Spawns `protocol` on its own thread: one protocol instance, stepped
/// by one thread at a time — this node thread, which also keeps the
/// timers and the control channel.
///
/// * `inbox` — encoded messages from the transport's receive side;
///   coalesced frames ([`codec::pack_frame`]) are split and dispatched
///   message by message.
/// * `transport` — used for this node's sends (self-sends included).
///   One protocol step's sends are grouped per destination and handed
///   to [`Transport::send_many`] as a burst, so coalescing transports
///   move them in one operation.
///
/// Every step runs on the node thread here. In a cluster
/// ([`crate::ClusterBuilder`]) the node is stepped by one thread at a
/// time: its own, a TCP reader, an in-memory sender or the delay line —
/// whichever delivers a frame while the node is free.
pub fn spawn_node<V, P, T>(
    protocol: P,
    inbox: Receiver<(ProcessId, Bytes)>,
    transport: T,
    opts: NodeOptions<V>,
) -> NodeHandle<V>
where
    V: Value,
    P: Protocol<V> + 'static,
    T: Transport,
{
    spawn_stepped(vec![protocol], inbox, transport, opts, None)
}

/// Spawns one OS thread hosting `shards.len()` independent protocol
/// instances multiplexed over one transport endpoint — every physical
/// node runs one replica of *every* consensus group.
///
/// All instances must report the same [`Protocol::id`] (they are the
/// same physical node). Shard `s`'s outgoing messages are wrapped in a
/// [`codec::tag_shard`] envelope when the node hosts more than one
/// shard; a single-shard node stays on the untagged wire format, which
/// [`codec::split_shard_ref`] reads back as shard 0. Incoming payloads
/// are first split out of coalesced frames, then routed to their
/// shard's instance; input that is malformed or for a shard this node
/// does not host is dropped and reported to the observer.
///
/// With `readers`, the threads that deliver to a cluster endpoint (TCP
/// readers, in-memory senders, the delay line) may step the node: the
/// node installs itself there once its instances have started, and
/// lowers a source's inbox count after each frame from it that it
/// steps.
///
/// # Panics
///
/// Panics if `shards` is empty or the instances disagree on their
/// process id.
pub(crate) fn spawn_stepped<V, P, T>(
    shards: Vec<P>,
    inbox: Receiver<(ProcessId, Bytes)>,
    transport: T,
    opts: NodeOptions<V>,
    readers: Option<Arc<Readers>>,
) -> NodeHandle<V>
where
    V: Value,
    P: Protocol<V> + 'static,
    T: Transport,
{
    assert!(!shards.is_empty(), "a node hosts at least one shard");
    let id = shards[0].id();
    assert!(
        shards.iter().all(|s| s.id() == id),
        "all shard instances on one node share its process id"
    );
    let nshards = shards.len();
    let (control_tx, control_rx) = crossbeam::channel::unbounded::<Control<V>>();
    let wake = control_tx.clone();
    let join = thread::Builder::new()
        .name(format!("twostep-node-{id}"))
        .spawn(move || {
            let obs: Vec<ObserverHandle> = (0..nshards).map(|s| opts.observer_of(s)).collect();
            let node = Arc::new(Node {
                steps: Mutex::new(NodeCtx {
                    id,
                    shards,
                    transport,
                    wall_delta: opts.wall_delta,
                    // Messages are shard-tagged only when there is traffic
                    // from more than one group to tell apart.
                    tagged: nshards > 1,
                    timers: HashMap::new(),
                    parked_until: None,
                    stopped: false,
                    decisions: opts.decisions,
                    obs,
                    started: Instant::now(),
                    decided: vec![false; nshards],
                }),
                wake,
            });
            node.run(NodeCtx::start);
            if let Some(readers) = &readers {
                let weak = Arc::downgrade(&node);
                readers.install(weak);
            }

            // Until the node stops: `Shutdown`, or a step that panicked.
            while let Some(wait) = node.run(NodeCtx::fire_due_timers) {
                // Submissions before frames (`select!` tries its arms in
                // order). The votes a proxy's step draws from peers it
                // steps itself are in its inbox when the step ends; taken
                // first, they would commit each command before the next
                // was admitted, and batching would never see a queue.
                crossbeam::channel::select! {
                    recv(control_rx) -> ctl => match ctl {
                        Ok(Control::ProposeAt(s, v)) => {
                            node.run(|ctx| ctx.propose(s, v));
                        }
                        // The next timer pass reads the new deadline.
                        Ok(Control::Rearm) => {}
                        Ok(Control::Shutdown) | Err(_) => break,
                    },
                    recv(inbox) -> msg => match msg {
                        Ok((from, frame)) => {
                            node.run(|ctx| {
                                ctx.step_frame(from, &frame);
                                if let Some(readers) = &readers {
                                    readers.stepped(from);
                                }
                            });
                        }
                        Err(_) => break, // transport torn down
                    },
                    default(wait) => {}
                }
            }
            // Under the lock, so that no step runs on any thread once
            // `crash` has joined this one.
            node.enter().stopped = true;
        })
        .expect("spawn node thread");

    NodeHandle {
        id,
        control: control_tx,
        join: Some(join),
    }
}

/// A running node: its step state behind the lock that says who steps it
/// now, and the way to wake its thread.
struct Node<V, P, T> {
    steps: Mutex<NodeCtx<V, P, T>>,
    /// The node's own control channel, for [`Control::Rearm`] and a
    /// panicked step's [`Control::Shutdown`].
    wake: Sender<Control<V>>,
}

impl<V: Value, P: Protocol<V>, T: Transport> Node<V, P, T> {
    /// The node thread's way in, and the only blocking acquisition of
    /// the lock: it waits for it holding no other node, and while it
    /// holds it the thread is waiting on no deadline.
    fn enter(&self) -> MutexGuard<'_, NodeCtx<V, P, T>> {
        let mut ctx = self.steps.lock();
        ctx.parked_until = None;
        ctx
    }

    /// One event of the node thread: `step` under the lock, or `None`
    /// once the node has stopped, this step's panic included.
    fn run<R>(&self, step: impl FnOnce(&mut NodeCtx<V, P, T>) -> R) -> Option<R> {
        let mut ctx = self.enter();
        if ctx.stopped {
            return None;
        }
        self.guarded(&mut ctx, step)
    }

    /// Runs `step` on whichever thread holds `ctx`. A step that panics
    /// stops this node and only it: the node is marked stopped under its
    /// lock, so that no thread steps it again, its thread is told to shut
    /// down, and the calling thread gets `None` and carries on.
    fn guarded<R>(
        &self,
        ctx: &mut NodeCtx<V, P, T>,
        step: impl FnOnce(&mut NodeCtx<V, P, T>) -> R,
    ) -> Option<R> {
        let stepped = panic::catch_unwind(AssertUnwindSafe(|| step(ctx)));
        if stepped.is_err() {
            ctx.stopped = true;
            let _ = self.wake.send(Control::Shutdown);
        }
        stepped.ok()
    }
}

impl<V: Value, P: Protocol<V> + 'static, T: Transport> StepInline for Node<V, P, T> {
    fn try_step(&self, from: ProcessId, frame: &[u8], in_inbox: &AtomicUsize) -> bool {
        let Some(mut ctx) = self.steps.try_lock() else {
            return false;
        };
        if ctx.stopped || in_inbox.load(Ordering::SeqCst) != 0 {
            return false;
        }
        let parked_until = ctx.parked_until;
        self.guarded(&mut ctx, |ctx| ctx.step_frame(from, frame));
        // `apply` moves the deadline up when the step set an earlier
        // timer; the parked node thread has to be told.
        let rearm = ctx.parked_until != parked_until;
        drop(ctx);
        if rearm {
            let _ = self.wake.send(Control::Rearm);
        }
        true
    }
}

/// The engine state shared by every effect application: what the node's
/// lock guards.
struct NodeCtx<V, P, T> {
    id: ProcessId,
    shards: Vec<P>,
    transport: T,
    wall_delta: WallDuration,
    tagged: bool,
    timers: HashMap<(u32, TimerId), Instant>,
    /// The deadline the node thread is waiting on, while it waits.
    parked_until: Option<Instant>,
    /// Set by the node thread as it exits, or by a step that panicked:
    /// nothing steps the node after.
    stopped: bool,
    decisions: DecisionSink<V>,
    obs: Vec<ObserverHandle>,
    started: Instant,
    decided: Vec<bool>,
}

impl<V: Value, P: Protocol<V>, T: Transport> NodeCtx<V, P, T> {
    fn start(&mut self) {
        for s in 0..self.shards.len() {
            let mut eff = Effects::new();
            self.shards[s].on_start(&mut eff);
            self.apply(s as u32, eff.drain());
        }
    }

    /// One pass over the timers: fire what is due, earliest first, until
    /// the earliest one left names the wait, which it returns. Every turn
    /// of the node loop is one such pass, so this is the only clock read
    /// and the only scan a turn costs.
    fn fire_due_timers(&mut self) -> WallDuration {
        loop {
            let now = Instant::now();
            let earliest = self.timers.iter().min_by_key(|(_, due)| **due);
            let due = match earliest.map(|(&key, &due)| (key, due)) {
                Some(((s, t), due)) if due <= now => {
                    self.timers.remove(&(s, t));
                    let mut eff = Effects::new();
                    self.shards[s as usize].on_timer(t, &mut eff);
                    self.apply(s, eff);
                    continue;
                }
                Some((_, due)) => due,
                None => now + IDLE_WAIT,
            };
            self.parked_until = Some(due);
            return due - now;
        }
    }

    fn propose(&mut self, shard: u32, v: V) {
        if let Some(instance) = self.shards.get_mut(shard as usize) {
            let mut eff = Effects::new();
            instance.on_propose(v, &mut eff);
            self.apply(shard, eff);
        }
    }

    /// Steps one transport frame — the one routine for the node thread
    /// and a deliverer alike. A payload may be a coalesced frame carrying
    /// many messages; a malformed envelope drops the whole frame, a
    /// malformed sub-payload only itself, each reported as one dropped
    /// message from `from`. The messages are iterated in place — no
    /// per-message allocation on the hot path.
    fn step_frame(&mut self, from: ProcessId, frame: &[u8]) {
        match codec::frame_messages(frame) {
            Ok(msgs) => msgs.for_each(|m| self.dispatch(from, m)),
            Err(_) => self.obs[0].message_dropped(from, self.id),
        }
    }

    /// Routes one decoded-off-the-wire payload to its shard's instance.
    ///
    /// The payload is a borrowed slice into the transport frame: shard
    /// untagging ([`codec::split_shard_ref`]) and message decoding both
    /// read it in place, so dispatch allocates nothing beyond what the
    /// decoded message itself owns.
    ///
    /// A truncated shard envelope, a shard this node does not host (a
    /// peer with a different shard map) and an undecodable message are
    /// each dropped and reported, on shard 0's observer when the shard is
    /// unknown: observable, not fatal.
    fn dispatch(&mut self, from: ProcessId, payload: &[u8]) {
        let Ok((shard, inner)) = codec::split_shard_ref(payload) else {
            self.obs[0].message_dropped(from, self.id);
            return;
        };
        let Some(instance) = self.shards.get_mut(shard as usize) else {
            self.obs[0].message_dropped(from, self.id);
            return;
        };
        let Ok(decoded) = codec::from_bytes::<P::Message>(inner) else {
            self.obs[shard as usize].message_dropped(from, self.id);
            return;
        };
        let mut eff = Effects::new();
        instance.on_message(from, decoded, &mut eff);
        self.apply(shard, eff);
    }

    fn apply<M: std::fmt::Debug + serde::Serialize>(&mut self, shard: u32, eff: Effects<V, M>) {
        let s = shard as usize;
        for v in eff.decisions {
            let at = Instant::now();
            if !self.decided[s] {
                self.decided[s] = true;
                // Wall-clock latency since node start, in microseconds.
                let us = at.duration_since(self.started).as_micros();
                self.obs[s].decision_latency(self.id, u64::try_from(us).unwrap_or(u64::MAX));
            }
            (self.decisions)(self.id, shard, v, at);
        }
        // Group the step's sends per destination (preserving each
        // destination's order) so a coalescing transport can flush one
        // burst per peer instead of one frame per message.
        let mut by_dest: Vec<(ProcessId, Vec<Bytes>)> = Vec::new();
        for (to, msg) in eff.sends {
            match codec::to_bytes(&msg) {
                Ok(bytes) => {
                    if self.obs[s].is_attached() {
                        self.obs[s].bytes_sent(self.id, &msg_kind(&msg), bytes.len());
                    }
                    let encoded = Bytes::from(bytes);
                    let payload = if self.tagged {
                        codec::tag_shard(shard, &encoded)
                    } else {
                        encoded
                    };
                    match by_dest.iter_mut().find(|(d, _)| *d == to) {
                        Some((_, burst)) => burst.push(payload),
                        None => by_dest.push((to, vec![payload])),
                    }
                }
                Err(_) => {
                    // Unencodable messages indicate a bug in the value
                    // type; drop rather than poison the node.
                    debug_assert!(false, "failed to encode outgoing message");
                }
            }
        }
        for (to, burst) in by_dest {
            self.transport.send_many(self.id, to, burst);
        }
        for (timer, delay) in eff.timer_sets {
            let wall = self
                .wall_delta
                .mul_f64(delay.units() as f64 / DELTA.units() as f64);
            let due = Instant::now() + wall;
            self.timers.insert((shard, timer), due);
            // Set off the node thread, before the deadline it waits on.
            if self.parked_until.is_some_and(|until| due < until) {
                self.parked_until = Some(due);
            }
        }
        for timer in eff.timer_cancels {
            self.timers.remove(&(shard, timer));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InMemoryTransport;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Echo(u64);

    /// Decides any proposed value; echoes messages back to the sender;
    /// decides 999 when its timer fires.
    #[derive(Debug)]
    struct Toy {
        me: ProcessId,
        decided: Option<u64>,
    }

    impl Protocol<u64> for Toy {
        type Message = Echo;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_start(&mut self, eff: &mut Effects<u64, Echo>) {
            eff.set_timer(TimerId(9), twostep_types::Duration::deltas(4));
        }
        fn on_propose(&mut self, v: u64, eff: &mut Effects<u64, Echo>) {
            self.decided = Some(v);
            eff.decide(v);
        }
        fn on_message(&mut self, from: ProcessId, m: Echo, eff: &mut Effects<u64, Echo>) {
            if m.0 < 10 {
                eff.send(from, Echo(m.0 + 100));
            } else {
                self.decided = Some(m.0);
                eff.decide(m.0);
            }
        }
        fn on_timer(&mut self, _: TimerId, eff: &mut Effects<u64, Echo>) {
            if self.decided.is_none() {
                self.decided = Some(999);
                eff.decide(999);
            }
        }
        fn decision(&self) -> Option<u64> {
            self.decided
        }
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn spawn_toy(
        me: ProcessId,
        inbox: Receiver<(ProcessId, Bytes)>,
        transport: InMemoryTransport,
        wall_delta: WallDuration,
        dtx: Sender<(ProcessId, u32, u64, Instant)>,
    ) -> NodeHandle<u64> {
        spawn_node(
            Toy { me, decided: None },
            inbox,
            transport,
            NodeOptions::new(dtx).wall_delta(wall_delta),
        )
    }

    /// A node hosting `shards` independent `Toy` instances.
    fn spawn_sharded_toy(
        me: ProcessId,
        shards: usize,
        inbox: Receiver<(ProcessId, Bytes)>,
        transport: InMemoryTransport,
        dtx: Sender<(ProcessId, u32, u64, Instant)>,
    ) -> NodeHandle<u64> {
        let instances = (0..shards).map(|_| Toy { me, decided: None }).collect();
        let opts = NodeOptions::new(dtx).wall_delta(WallDuration::from_millis(10));
        spawn_stepped(instances, inbox, transport, opts, None)
    }

    #[test]
    fn propose_reaches_protocol_and_decision_reported() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (dtx, drx) = crossbeam::channel::unbounded();
        let node = spawn_toy(
            p(0),
            inboxes.remove(0),
            transport,
            WallDuration::from_millis(10),
            dtx,
        );
        node.propose(42);
        let (who, shard, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((who, shard, v), (p(0), 0, 42));
    }

    #[test]
    fn messages_roundtrip_through_codec_and_transport() {
        let (transport, mut inboxes) = InMemoryTransport::new(2);
        let (dtx, drx) = crossbeam::channel::unbounded();
        let rx1 = inboxes.pop().unwrap();
        let rx0 = inboxes.pop().unwrap();
        let _n0 = spawn_toy(
            p(0),
            rx0,
            transport.clone(),
            WallDuration::from_millis(10),
            dtx.clone(),
        );
        let _n1 = spawn_toy(
            p(1),
            rx1,
            transport.clone(),
            WallDuration::from_millis(10),
            dtx,
        );
        // Inject Echo(5) to node 1 as if from node 0: node 1 replies
        // Echo(105) to node 0, which decides 105.
        let bytes = codec::to_bytes(&Echo(5)).unwrap();
        transport.send(p(0), p(1), Bytes::from(bytes));
        let (who, _, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((who, v), (p(0), 105));
    }

    #[test]
    fn coalesced_inbox_frames_are_dispatched_per_message() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (dtx, drx) = crossbeam::channel::unbounded();
        let _node = spawn_toy(
            p(0),
            inboxes.remove(0),
            transport.clone(),
            WallDuration::from_millis(10),
            dtx,
        );
        // Two deciding messages coalesced into one transport payload:
        // both must reach the protocol, in order.
        transport.send_many(
            p(0),
            p(0),
            vec![
                Bytes::from(codec::to_bytes(&Echo(11)).unwrap()),
                Bytes::from(codec::to_bytes(&Echo(12)).unwrap()),
            ],
        );
        let (_, _, v1, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        let (_, _, v2, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((v1, v2), (11, 12));
    }

    #[test]
    fn sharded_node_routes_proposals_and_tags_decisions() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (dtx, drx) = crossbeam::channel::unbounded();
        let node = spawn_sharded_toy(p(0), 3, inboxes.remove(0), transport, dtx);
        node.propose_at(2, 7);
        let (who, shard, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((who, shard, v), (p(0), 2, 7));
        // Plain propose lands on shard 0.
        node.propose(8);
        let (_, shard, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((shard, v), (0, 8));
        // Proposals to unhosted shards are dropped, not crashed.
        node.propose_at(9, 1);
        node.propose_at(1, 3);
        let (_, shard, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((shard, v), (1, 3));
    }

    #[test]
    fn sharded_nodes_tag_wire_traffic_per_shard() {
        let (transport, mut inboxes) = InMemoryTransport::new(2);
        let (dtx, drx) = crossbeam::channel::unbounded();
        let rx1 = inboxes.pop().unwrap();
        let rx0 = inboxes.pop().unwrap();
        let _n0 = spawn_sharded_toy(p(0), 2, rx0, transport.clone(), dtx.clone());
        let _n1 = spawn_sharded_toy(p(1), 2, rx1, transport.clone(), dtx);
        // Inject Echo(5) tagged for shard 1 of node 1, as if from node 0:
        // node 1's shard 1 replies Echo(105) — tagged, because the node
        // hosts two shards — and node 0's shard 1 decides 105.
        let inner = Bytes::from(codec::to_bytes(&Echo(5)).unwrap());
        transport.send(p(0), p(1), codec::tag_shard(1, &inner));
        let (who, shard, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((who, shard, v), (p(0), 1, 105));
    }

    #[test]
    fn untagged_traffic_reaches_shard_zero_of_sharded_node() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (dtx, drx) = crossbeam::channel::unbounded();
        let _node = spawn_sharded_toy(p(0), 2, inboxes.remove(0), transport.clone(), dtx);
        // A legacy untagged deciding message is shard 0 traffic.
        transport.send(p(0), p(0), Bytes::from(codec::to_bytes(&Echo(11)).unwrap()));
        let (_, shard, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((shard, v), (0, 11));
        // Traffic for an unhosted shard is dropped; the node survives.
        let inner = Bytes::from(codec::to_bytes(&Echo(12)).unwrap());
        transport.send(p(0), p(0), codec::tag_shard(7, &inner));
        transport.send(p(0), p(0), codec::tag_shard(1, &inner));
        let (_, shard, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((shard, v), (1, 12));
    }

    #[test]
    fn timer_fires_at_wall_deadline() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (dtx, drx) = crossbeam::channel::unbounded();
        let started = Instant::now();
        let _node = spawn_toy(
            p(0),
            inboxes.remove(0),
            transport,
            WallDuration::from_millis(5), // Δ = 5ms → timer at 20ms
            dtx,
        );
        let (_, _, v, at) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!(v, 999);
        let elapsed = at.duration_since(started);
        assert!(
            elapsed >= WallDuration::from_millis(15),
            "fired too early: {elapsed:?}"
        );
    }

    #[test]
    fn crash_stops_processing() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (dtx, drx) = crossbeam::channel::unbounded();
        let mut node = spawn_toy(
            p(0),
            inboxes.remove(0),
            transport,
            WallDuration::from_millis(10),
            dtx,
        );
        node.crash();
        node.propose(42);
        assert!(drx.recv_timeout(WallDuration::from_millis(300)).is_err());
    }

    /// Records every `message_dropped(from, to)` report, in order.
    #[derive(Debug, Default)]
    struct Drops(Mutex<Vec<(ProcessId, ProcessId)>>);

    impl twostep_telemetry::ProtocolObserver for Drops {
        fn message_dropped(&self, from: ProcessId, to: ProcessId) {
            self.0.lock().push((from, to));
        }
    }

    /// Hostile input of every kind is dropped and reported once, as a
    /// message from its sender to this node; the node survives it.
    #[test]
    fn malformed_frames_are_dropped() {
        let (transport, mut inboxes) = InMemoryTransport::new(2);
        let (dtx, drx) = crossbeam::channel::unbounded();
        let drops = Arc::new(Drops::default());
        let obs = ObserverHandle::from(drops.clone());
        let node = spawn_node(
            Toy {
                me: p(0),
                decided: None,
            },
            inboxes.remove(0),
            transport.clone(),
            NodeOptions::new(dtx).observed(obs),
        );
        let echo = Bytes::from(frame(12));
        // A truncated coalesced frame (valid magic, missing body).
        let packed = codec::pack_frame(&[Bytes::from_static(b"\x00\x00\x00\x00")]);
        transport.send(p(1), p(0), Bytes::from(packed[..6].to_vec()));
        // A shard envelope cut off inside its shard id.
        transport.send(
            p(1),
            p(0),
            Bytes::from(codec::tag_shard(0, &echo)[..6].to_vec()),
        );
        // A message for a shard this node does not host.
        transport.send(p(1), p(0), codec::tag_shard(7, &echo));
        // A payload that does not decode as a message.
        transport.send(p(1), p(0), Bytes::from_static(b"\xFF\xFF"));
        // The inbox is in order: once 11 is decided, all four are stepped.
        transport.send(p(1), p(0), Bytes::from(frame(11)));
        let (_, _, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!(v, 11);
        assert_eq!(*drops.0.lock(), vec![(p(1), p(0)); 4]);
        // The node still handles proposals.
        node.propose(7);
        let (_, _, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!(v, 7);
    }

    /// A node whose reader is the test thread: [`Readers::deliver`] is
    /// what a blocking-TCP reader calls with each frame it has read. Its
    /// sends go nowhere.
    fn spawn_read_by_test<P: Protocol<u64> + 'static>(
        protocol: P,
        wall_delta: WallDuration,
        dtx: Sender<(ProcessId, u32, u64, Instant)>,
    ) -> (NodeHandle<u64>, Arc<Readers>, Sender<(ProcessId, Bytes)>) {
        let (transport, _) = InMemoryTransport::new(2);
        let (inbox_tx, inbox) = crossbeam::channel::unbounded();
        let readers = Arc::new(Readers::new(2));
        let opts = NodeOptions::new(dtx).wall_delta(wall_delta);
        let node = spawn_stepped(
            vec![protocol],
            inbox,
            transport,
            opts,
            Some(Arc::clone(&readers)),
        );
        (node, readers, inbox_tx)
    }

    fn frame(k: u64) -> Vec<u8> {
        codec::to_bytes(&Echo(k)).unwrap()
    }

    /// Busy inside `on_propose` — the node's lock held — until let go;
    /// reports each message it steps and whether the test thread (its
    /// reader) stepped it.
    #[derive(Debug)]
    struct Gated {
        entered: Sender<()>,
        gate: Receiver<()>,
        reader: thread::ThreadId,
        steps: Sender<(u64, bool)>,
    }

    impl Protocol<u64> for Gated {
        type Message = Echo;
        fn id(&self) -> ProcessId {
            p(0)
        }
        fn on_start(&mut self, _: &mut Effects<u64, Echo>) {}
        fn on_propose(&mut self, _: u64, _: &mut Effects<u64, Echo>) {
            let _ = self.entered.send(());
            let _ = self.gate.recv_timeout(WallDuration::from_secs(5));
        }
        fn on_message(&mut self, _: ProcessId, m: Echo, _: &mut Effects<u64, Echo>) {
            let by_reader = thread::current().id() == self.reader;
            let _ = self.steps.send((m.0, by_reader));
        }
        fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, Echo>) {}
        fn decision(&self) -> Option<u64> {
            None
        }
    }

    /// The counter rule: a frame that found the node busy goes to the
    /// inbox, and the same peer's next frame — delivered a little later
    /// each round after the node thread is let go, so that it races the
    /// node thread from its unlock to its step of the queued frame — is
    /// stepped after it, whichever thread steps it.
    #[test]
    fn a_frame_queued_while_the_node_is_busy_goes_before_its_peers_next() {
        let (entered_tx, entered) = crossbeam::channel::unbounded();
        let (gate_tx, gate) = crossbeam::channel::unbounded();
        let (steps_tx, steps) = crossbeam::channel::unbounded();
        let (dtx, _drx) = crossbeam::channel::unbounded();
        let gated = Gated {
            entered: entered_tx,
            gate,
            reader: thread::current().id(),
            steps: steps_tx,
        };
        let (node, readers, inbox) = spawn_read_by_test(gated, WallDuration::from_millis(10), dtx);
        let deliver = |k| assert!(readers.deliver(p(1), frame(k).as_slice(), &inbox));
        let next_step = || steps.recv_timeout(WallDuration::from_secs(5)).unwrap();
        let mut inline = 0;
        for i in 0..2000 {
            node.propose(0);
            entered.recv_timeout(WallDuration::from_secs(5)).unwrap();
            deliver(2 * i);
            gate_tx.send(()).unwrap();
            for _ in 0..(i % 100) * 40 {
                std::hint::spin_loop();
            }
            deliver(2 * i + 1);
            assert_eq!(
                next_step(),
                (2 * i, false),
                "the node thread steps the queued frame"
            );
            let (k, by_reader) = next_step();
            assert_eq!(k, 2 * i + 1, "overtaken by {k}");
            inline += usize::from(by_reader);
        }
        // An idle node is stepped by whoever delivers to it.
        for k in 4000..5000 {
            if inline > 0 {
                return;
            }
            deliver(k);
            let (got, by_reader) = next_step();
            assert_eq!(got, k);
            inline += usize::from(by_reader);
        }
        panic!("no frame was stepped by its reader");
    }

    /// Arms a one-Δ timer per message; decides what is proposed, and
    /// `1000 + k` when message `k`'s timer fires.
    #[derive(Debug)]
    struct Alarm {
        reader: thread::ThreadId,
        steps: Sender<bool>,
    }

    impl Protocol<u64> for Alarm {
        type Message = Echo;
        fn id(&self) -> ProcessId {
            p(0)
        }
        fn on_start(&mut self, _: &mut Effects<u64, Echo>) {}
        fn on_propose(&mut self, v: u64, eff: &mut Effects<u64, Echo>) {
            eff.decide(v);
        }
        fn on_message(&mut self, _: ProcessId, m: Echo, eff: &mut Effects<u64, Echo>) {
            let _ = self.steps.send(thread::current().id() == self.reader);
            eff.set_timer(TimerId(m.0), twostep_types::Duration::deltas(1));
        }
        fn on_timer(&mut self, t: TimerId, eff: &mut Effects<u64, Echo>) {
            eff.decide(1000 + t.0);
        }
        fn decision(&self) -> Option<u64> {
            None
        }
    }

    /// A step on a reader thread that sets a 2 ms timer while the node
    /// thread waits out its 50 ms idle wait wakes that thread, and the
    /// timer fires on time.
    #[test]
    fn a_timer_set_on_a_reader_thread_fires_on_time() {
        let (dtx, drx) = crossbeam::channel::unbounded();
        let (steps_tx, steps) = crossbeam::channel::unbounded();
        let alarm = Alarm {
            reader: thread::current().id(),
            steps: steps_tx,
        };
        let (node, readers, inbox) = spawn_read_by_test(alarm, WallDuration::from_millis(2), dtx);
        let decided = |want| {
            let (_, _, v, at) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
            assert_eq!(v, want);
            at
        };
        let mut on_time = 0;
        for k in 0..200 {
            // Decided on the node thread, which then has no timer left
            // and waits 50 ms.
            node.propose(k);
            decided(k);
            let sent = Instant::now();
            assert!(readers.deliver(p(1), frame(k).as_slice(), &inbox));
            let by_reader = steps.recv_timeout(WallDuration::from_secs(5)).unwrap();
            let fired = decided(1000 + k).duration_since(sent);
            if by_reader {
                assert!(
                    fired < WallDuration::from_millis(20),
                    "the timer waited for the idle wake-up: {fired:?}"
                );
                on_time += 1;
                if on_time == 3 {
                    return;
                }
            }
        }
        panic!("no frame was stepped by its reader");
    }

    /// A message of [`Flood`], numbered on its link.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Numbered {
        seq: u64,
        hop: Flooded,
    }

    #[derive(Debug, Clone, Serialize, Deserialize)]
    enum Flooded {
        /// `origin`'s proposal `v`, to be forwarded `ttl` more times.
        Fwd { origin: u32, v: u64, ttl: u32 },
        /// A copy of `v` that has used up its hops.
        Ack(u64),
    }

    /// How many hops a [`Flood`] proposal is forwarded.
    const FLOOD_HOPS: u32 = 1;

    thread_local! {
        /// The sends in progress on this thread. A send that steps its
        /// destination lasts that step, so a step runs this many steps
        /// deep, plus one.
        static SENDS_ON_STACK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A node's transport, counting its sends on [`SENDS_ON_STACK`].
    struct Gauged(Box<dyn Transport>);

    impl Transport for Gauged {
        fn send(&self, from: ProcessId, to: ProcessId, payload: Bytes) {
            self.send_many(from, to, vec![payload]);
        }

        fn send_many(&self, from: ProcessId, to: ProcessId, payloads: Vec<Bytes>) {
            SENDS_ON_STACK.with(|d| d.set(d.get() + 1));
            self.0.send_many(from, to, payloads);
            SENDS_ON_STACK.with(|d| d.set(d.get() - 1));
        }
    }

    /// Sends each proposal to every peer, each of which forwards it to
    /// every peer of its own until [`FLOOD_HOPS`] are used up; each last
    /// copy is acked to the proposer, which decides once all are. Counts
    /// the messages that arrive out of their link's order, and records
    /// the deepest nesting of steps it has run in.
    #[derive(Debug)]
    struct Flood {
        me: ProcessId,
        n: u32,
        /// Next number, by destination.
        sent: Vec<u64>,
        /// Next number expected, by source.
        received: Vec<u64>,
        acks: HashMap<u64, u64>,
        disorder: Arc<std::sync::atomic::AtomicU64>,
        deepest: Arc<AtomicUsize>,
    }

    impl Flood {
        fn send(&mut self, to: u32, hop: Flooded, eff: &mut Effects<u64, Numbered>) {
            let seq = self.sent[to as usize];
            self.sent[to as usize] += 1;
            eff.send(p(to), Numbered { seq, hop });
        }

        fn send_to_peers(&mut self, hop: &Flooded, eff: &mut Effects<u64, Numbered>) {
            let me = self.me.as_u32();
            for q in (0..self.n).filter(|&q| q != me) {
                self.send(q, hop.clone(), eff);
            }
        }
    }

    impl Protocol<u64> for Flood {
        type Message = Numbered;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_start(&mut self, _: &mut Effects<u64, Numbered>) {}
        fn on_propose(&mut self, v: u64, eff: &mut Effects<u64, Numbered>) {
            let origin = self.me.as_u32();
            self.send_to_peers(
                &Flooded::Fwd {
                    origin,
                    v,
                    ttl: FLOOD_HOPS,
                },
                eff,
            );
        }
        fn on_message(&mut self, from: ProcessId, m: Numbered, eff: &mut Effects<u64, Numbered>) {
            let depth = SENDS_ON_STACK.with(std::cell::Cell::get) + 1;
            self.deepest.fetch_max(depth, Ordering::SeqCst);
            if m.seq != self.received[from.index()] {
                self.disorder.fetch_add(1, Ordering::SeqCst);
            }
            self.received[from.index()] = m.seq + 1;
            match m.hop {
                Flooded::Fwd { origin, v, ttl: 0 } => self.send(origin, Flooded::Ack(v), eff),
                Flooded::Fwd { origin, v, ttl } => {
                    self.send_to_peers(
                        &Flooded::Fwd {
                            origin,
                            v,
                            ttl: ttl - 1,
                        },
                        eff,
                    );
                }
                Flooded::Ack(v) => {
                    let acks = self.acks.entry(v).or_default();
                    *acks += 1;
                    if *acks == u64::from(self.n - 1).pow(FLOOD_HOPS + 1) {
                        eff.decide(v);
                    }
                }
            }
        }
        fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, Numbered>) {}
        fn decision(&self) -> Option<u64> {
            None
        }
    }

    /// Steps nest without deadlock and without reordering a link. Seven
    /// nodes in memory flood each proposal two hops deep, so a step run by
    /// a sender sends on, steps a third node in turn, and sends back to
    /// nodes its own thread holds further up; four threads propose at
    /// four proxies at once. Every proposal must commit, every link's
    /// numbers arrive in order, and steps must have nested — at most as
    /// deep as there are nodes.
    #[test]
    fn nested_steps_neither_deadlock_nor_reorder() {
        const N: u32 = 7;
        const PROXIES: u64 = 4;
        const PER_PROXY: u64 = 300;
        let disorder = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let deepest = Arc::new(AtomicUsize::new(0));
        let (dtx, decided) = crossbeam::channel::unbounded();
        let endpoints = crate::transport::TransportKind::InMemory
            .endpoints(N as usize, WallDuration::ZERO, &ObserverHandle::none())
            .unwrap();
        let nodes: Vec<NodeHandle<u64>> = (0..N)
            .zip(endpoints)
            .map(|(i, endpoint)| {
                let flood = Flood {
                    me: p(i),
                    n: N,
                    sent: vec![0; N as usize],
                    received: vec![0; N as usize],
                    acks: HashMap::new(),
                    disorder: Arc::clone(&disorder),
                    deepest: Arc::clone(&deepest),
                };
                let (inbox, transport) = (endpoint.inbox, Gauged(endpoint.transport));
                let opts = NodeOptions::new(dtx.clone());
                spawn_stepped(vec![flood], inbox, transport, opts, endpoint.readers)
            })
            .collect();
        thread::scope(|s| {
            for (proxy, node) in (0..PROXIES).zip(&nodes) {
                let control = node.control();
                s.spawn(move || {
                    for k in 0..PER_PROXY {
                        let _ = control.send(Control::ProposeAt(0, proxy * 1000 + k));
                    }
                });
            }
        });
        let deadline = Instant::now() + WallDuration::from_secs(20);
        let mut committed = std::collections::HashSet::new();
        while committed.len() < (PROXIES * PER_PROXY) as usize {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok((at, _, v, _)) = decided.recv_timeout(left) else {
                panic!("{} proposals committed in 20 s", committed.len());
            };
            assert_eq!(at.index() as u64, v / 1000, "{v} decided at {at}");
            assert!(committed.insert(v), "{v} decided twice");
        }
        assert_eq!(disorder.load(Ordering::SeqCst), 0, "a link was reordered");
        let deepest = deepest.load(Ordering::SeqCst);
        assert!(
            (2..=N as usize).contains(&deepest),
            "steps were nested {deepest} deep"
        );
    }
}
