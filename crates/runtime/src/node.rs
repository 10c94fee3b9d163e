//! One protocol instance on one OS thread.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration as WallDuration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};

use twostep_telemetry::{msg_kind, ObserverHandle};
use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::{ProcessId, Value, DELTA};

use crate::codec;
use crate::transport::Transport;

/// Control events a node accepts besides network traffic.
#[derive(Debug)]
pub enum Control<V> {
    /// A client proposal submitted at this node (the *proxy* role from
    /// the paper's introduction), addressed to one of the consensus
    /// groups it hosts; shard 0 is the only one on an unsharded node.
    ProposeAt(u32, V),
    /// Stop the node immediately — models a crash (no clean handover).
    Shutdown,
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

    /// Whether the node thread has been shut down via this handle.
    pub fn is_crashed(&self) -> bool {
        self.join.is_none()
    }
}

impl<V> Drop for NodeHandle<V> {
    fn drop(&mut self) {
        self.crash();
    }
}

/// Engine-level options for [`spawn_node`] / [`spawn_sharded_node`].
///
/// * `wall_delta` — the wall-clock duration of one `Δ`; protocol timer
///   delays (expressed in virtual units where `Δ` = [`DELTA`]) are
///   scaled by `wall_delta / Δ`. Defaults to 10ms.
/// * `decisions` — every `decide(v)` event is reported as
///   `(id, shard, v, wall time)`, from the node's own thread; unsharded
///   nodes always report shard 0.
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

/// What a node calls, on its own thread, with each decide event:
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

/// Spawns `protocol` on its own thread.
///
/// * `inbox` — encoded messages from the transport's receive side;
///   coalesced frames ([`codec::pack_frame`]) are split and dispatched
///   message by message.
/// * `transport` — used for this node's sends (self-sends included).
///   One protocol step's sends are grouped per destination and handed
///   to [`Transport::send_many`] as a burst, so coalescing transports
///   move them in one operation.
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
    spawn_sharded_node(vec![protocol], inbox, transport, opts)
}

/// Spawns one OS thread hosting `shards.len()` independent protocol
/// instances multiplexed over one transport endpoint — the sharded
/// deployment shape: every physical node runs one replica of *every*
/// consensus group.
///
/// All instances must report the same [`Protocol::id`] (they are the
/// same physical node). Shard `s`'s outgoing messages are wrapped in a
/// [`codec::tag_shard`] envelope when the node hosts more than one
/// shard; a single-shard node stays on the untagged legacy wire format,
/// which [`codec::split_shard_ref`] reads back as shard 0. Incoming
/// payloads are first split out of coalesced frames, then routed to
/// their shard's instance; traffic for shards this node does not host
/// is dropped and reported to the observer.
///
/// # Panics
///
/// Panics if `shards` is empty or the instances disagree on their
/// process id.
pub fn spawn_sharded_node<V, P, T>(
    mut shards: Vec<P>,
    inbox: Receiver<(ProcessId, Bytes)>,
    transport: T,
    opts: NodeOptions<V>,
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
    let join = thread::Builder::new()
        .name(format!("twostep-node-{id}"))
        .spawn(move || {
            let started = Instant::now();
            let obs: Vec<ObserverHandle> = (0..nshards).map(|s| opts.observer_of(s)).collect();
            let mut node = NodeCtx {
                id,
                transport,
                wall_delta: opts.wall_delta,
                // Messages are shard-tagged only when there is traffic
                // from more than one group to tell apart.
                tagged: nshards > 1,
                timers: HashMap::new(),
                decisions: opts.decisions,
                obs,
                started,
                decided: vec![false; nshards],
            };
            for (s, shard) in shards.iter_mut().enumerate() {
                let mut eff = Effects::new();
                shard.on_start(&mut eff);
                node.apply(s as u32, eff.drain());
            }

            loop {
                // One pass over the timers per turn: fire what is due,
                // earliest first, until the earliest one left names the
                // wait. Every turn past the wait is one event, so this
                // is the only clock read and the only scan it costs.
                let wait = loop {
                    let now = Instant::now();
                    let earliest = node.timers.iter().min_by_key(|(_, due)| **due);
                    match earliest.map(|(&key, &due)| (key, due)) {
                        Some(((s, t), due)) if due <= now => {
                            node.timers.remove(&(s, t));
                            let mut eff = Effects::new();
                            shards[s as usize].on_timer(t, &mut eff);
                            node.apply(s, eff);
                        }
                        Some((_, due)) => break due - now,
                        None => break WallDuration::from_millis(50),
                    }
                };

                crossbeam::channel::select! {
                    recv(inbox) -> msg => match msg {
                        Ok((from, payload)) => {
                            // A transport payload may be a coalesced
                            // frame carrying many messages; a malformed
                            // envelope drops the whole frame, a
                            // malformed sub-payload only itself. The
                            // messages are iterated in place — no
                            // per-message allocation on the hot path.
                            if let Ok(msgs) = codec::frame_messages(&payload) {
                                for m in msgs {
                                    node.dispatch(&mut shards, from, m);
                                }
                            }
                        }
                        Err(_) => break, // transport torn down
                    },
                    recv(control_rx) -> ctl => match ctl {
                        Ok(Control::ProposeAt(s, v)) => {
                            if let Some(shard) = shards.get_mut(s as usize) {
                                let mut eff = Effects::new();
                                shard.on_propose(v, &mut eff);
                                node.apply(s, eff);
                            }
                        }
                        Ok(Control::Shutdown) | Err(_) => break,
                    },
                    default(wait) => {}
                }
            }
        })
        .expect("spawn node thread");

    NodeHandle {
        id,
        control: control_tx,
        join: Some(join),
    }
}

/// The per-thread engine state shared by every effect application.
struct NodeCtx<V, T> {
    id: ProcessId,
    transport: T,
    wall_delta: WallDuration,
    tagged: bool,
    timers: HashMap<(u32, TimerId), Instant>,
    decisions: DecisionSink<V>,
    obs: Vec<ObserverHandle>,
    started: Instant,
    decided: Vec<bool>,
}

impl<V: Value, T: Transport> NodeCtx<V, T> {
    /// Routes one decoded-off-the-wire payload to its shard's instance.
    ///
    /// The payload is a borrowed slice into the transport frame: shard
    /// untagging ([`codec::split_shard_ref`]) and message decoding both
    /// read it in place, so dispatch allocates nothing beyond what the
    /// decoded message itself owns.
    fn dispatch<P: Protocol<V>>(&mut self, shards: &mut [P], from: ProcessId, payload: &[u8]) {
        let Ok((shard, inner)) = codec::split_shard_ref(payload) else {
            return; // truncated shard envelope: drop the message
        };
        let Some(instance) = shards.get_mut(shard as usize) else {
            // Traffic for a group this node does not host — a peer with
            // a different shard map. Observable, not fatal.
            self.obs[0].message_dropped(self.id, from);
            return;
        };
        if let Ok(decoded) = codec::from_bytes::<P::Message>(inner) {
            let mut eff = Effects::new();
            instance.on_message(from, decoded, &mut eff);
            self.apply(shard, eff);
        }
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
            self.timers.insert((shard, timer), Instant::now() + wall);
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
        spawn_sharded_node(
            instances,
            inbox,
            transport,
            NodeOptions::new(dtx).wall_delta(WallDuration::from_millis(10)),
        )
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
        assert!(node.is_crashed());
        node.propose(42);
        assert!(drx.recv_timeout(WallDuration::from_millis(300)).is_err());
    }

    #[test]
    fn malformed_frames_are_dropped() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (dtx, drx) = crossbeam::channel::unbounded();
        let _node = spawn_toy(
            p(0),
            inboxes.remove(0),
            transport.clone(),
            WallDuration::from_millis(10),
            dtx,
        );
        transport.send(p(0), p(0), Bytes::from_static(b"\xFF\xFF"));
        // A truncated coalesced frame (valid magic, missing body) must
        // also be survivable.
        let packed = codec::pack_frame(&[Bytes::from_static(b"\x00\x00\x00\x00")]);
        transport.send(p(0), p(0), Bytes::from(packed[..6].to_vec()));
        // Node survives garbage and still handles proposals.
        _node.propose(7);
        let (_, _, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!(v, 7);
    }
}
