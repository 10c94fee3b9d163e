//! Fluent construction of whole clusters.

use std::sync::Arc;
use std::time::Duration as WallDuration;

use twostep_smr::{Routable, SmrReplicaBuilder, StateMachine};
use twostep_telemetry::ObserverHandle;
use twostep_types::protocol::Protocol;
use twostep_types::{ProcessId, SystemConfig, Value};

use crate::cluster::ClusterShared;
use crate::node::{spawn_stepped, NodeOptions};
use crate::proxy::RouteFn;
use crate::shard::{ShardRouter, ShardedCluster};
use crate::transport::TransportKind;
use crate::RuntimeError;

/// Builder for [`ShardedCluster`] — the one construction path for
/// every deployment shape.
///
/// One fluent chain: config up front, then transport choice, observer
/// and batching/pipeline knobs, then [`ClusterBuilder::build`] with a
/// protocol factory for one consensus group, or
/// [`ClusterBuilder::build_sharded_smr`] for the batteries-included SMR
/// deployment of [`ClusterBuilder::shards`] groups (one by default).
/// Both run the same assembly routine — endpoints from the transport
/// choice, one link-delay line when [`ClusterBuilder::link_delay`] is
/// set, one node thread per process hosting every group. Client handles
/// come from [`ShardedCluster::proxy_client`] /
/// [`ShardedCluster::client`].
///
/// ```rust
/// use std::time::Duration;
/// use twostep_runtime::ClusterBuilder;
/// use twostep_smr::{KvCommand, KvStore};
/// use twostep_types::{ProcessId, SystemConfig};
///
/// let cfg = SystemConfig::minimal_object(1, 1)?;
/// let cluster = ClusterBuilder::new(cfg)
///     .wall_delta(Duration::from_millis(5))
///     .batch(16)
///     .pipeline(8)
///     .build_sharded_smr::<KvCommand, KvStore>()
///     .expect("in-memory build cannot fail");
/// let client = cluster.proxy_client(ProcessId::new(0));
/// client.propose(KvCommand::put("k", "v"));
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    cfg: SystemConfig,
    wall_delta: WallDuration,
    link_delay: WallDuration,
    transport: TransportKind,
    obs: ObserverHandle,
    shard_obs: Vec<ObserverHandle>,
    batch: usize,
    pipeline: usize,
    shards: usize,
}

impl ClusterBuilder {
    /// Starts a builder for `cfg`: in-memory transport, `Δ` = 10ms, no
    /// observer, batch size 1 and pipeline depth 1 (the unbatched seed
    /// semantics).
    pub fn new(cfg: SystemConfig) -> Self {
        ClusterBuilder {
            cfg,
            wall_delta: WallDuration::from_millis(10),
            link_delay: WallDuration::ZERO,
            transport: TransportKind::InMemory,
            obs: ObserverHandle::none(),
            shard_obs: Vec::new(),
            batch: 1,
            pipeline: 1,
            shards: 1,
        }
    }

    /// Sets the wall-clock duration of one `Δ`; it bounds the
    /// protocol's timeouts (fast-path window `2Δ`, ballot retry `5Δ`)
    /// and the SMR pump tick (`2Δ`): the longest a queued command waits
    /// for co-travellers, and the interval over which a replica
    /// relearns its batch threshold. An idle proxy's commit does not
    /// wait on it.
    #[must_use]
    pub fn wall_delta(mut self, wall_delta: WallDuration) -> Self {
        self.wall_delta = wall_delta;
        self
    }

    /// Emulates a one-way link latency: every send is held for `delay`
    /// before it goes out, on every transport — one send-time-stamped
    /// delay-line thread per cluster sits in front of the endpoints.
    /// The socket backends add their real (tiny) localhost latency on
    /// top, so a given `link_delay` is comparable across all three
    /// backends. Zero (the default) adds nothing. In memory the line
    /// delivers each burst by stepping the destination node itself when
    /// the node is free, so a burst can be released late by the length
    /// of the steps released before it.
    ///
    /// Use this to measure pipelining/sharding effects: with instant
    /// links a single consensus group is CPU-bound and extra in-flight
    /// capacity buys nothing, while under a wall-clock link latency the
    /// deployment behaves like a LAN/WAN one, where capacity hides
    /// latency.
    #[must_use]
    pub fn link_delay(mut self, delay: WallDuration) -> Self {
        self.link_delay = delay;
        self
    }

    /// Deploys over localhost TCP with the blocking writer-thread
    /// transport (real sockets, framing and the binary codec on every
    /// hop; one writer thread per destination, one read thread per
    /// accepted connection).
    #[must_use]
    pub fn tcp(mut self) -> Self {
        self.transport = TransportKind::Tcp;
        self
    }

    /// Deploys over localhost TCP with the reactor transport
    /// ([`crate::ReactorTransport`]): the same wire format as
    /// [`ClusterBuilder::tcp`], moved by **one** non-blocking event-loop
    /// thread per node instead of a thread per connection — vectored
    /// writes, reusable read buffers, timer-heap reconnect backoff.
    #[must_use]
    pub fn reactor(mut self) -> Self {
        self.transport = TransportKind::Reactor;
        self
    }

    /// Deploys over the in-memory transport (the default).
    #[must_use]
    pub fn in_memory(mut self) -> Self {
        self.transport = TransportKind::InMemory;
        self
    }

    /// Attaches telemetry hooks: nodes report per-kind wire bytes and
    /// decision latency, TCP transports report drops/reconnects, and
    /// [`ClusterBuilder::build_sharded_smr`] passes the handle through to
    /// every replica (batch sizes, queue depths, protocol paths).
    #[must_use]
    pub fn observed(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Groups up to `size` commands per consensus slot (SMR builds
    /// only; see [`SmrReplicaBuilder::batch`]).
    #[must_use]
    pub fn batch(mut self, size: usize) -> Self {
        self.batch = size;
        self
    }

    /// Keeps up to `depth` batches in flight concurrently (SMR builds
    /// only; see [`SmrReplicaBuilder::pipeline`]).
    #[must_use]
    pub fn pipeline(mut self, depth: usize) -> Self {
        self.pipeline = depth;
        self
    }

    /// Hash-partitions the key space across `k` independent consensus
    /// groups (sharded builds only; see
    /// [`ClusterBuilder::build_sharded_smr`]). Every node hosts one
    /// replica of every group on its existing thread and transport
    /// endpoint; group `s`'s leader preference is rotated to node
    /// `s mod n`, spreading leader load round-robin.
    #[must_use]
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k;
        self
    }

    /// Attaches per-shard engine telemetry: shard `s` reports its
    /// decision latencies, wire bytes and protocol paths to
    /// `handles[s]` (missing entries fall back to the
    /// [`ClusterBuilder::observed`] handle). Pair with
    /// `twostep_telemetry`'s `ShardedMetrics::handles`.
    #[must_use]
    pub fn shard_observers(mut self, handles: Vec<ObserverHandle>) -> Self {
        self.shard_obs = handles;
        self
    }

    /// Builds a cluster running `make(p)` at each process, as shard 0 of
    /// a one-shard [`ShardedCluster`].
    ///
    /// The batching/pipeline knobs do not apply here — they configure
    /// replicas built by [`ClusterBuilder::build_sharded_smr`]; a custom
    /// protocol factory wires its own knobs — and neither does
    /// [`ClusterBuilder::shards`]: this is one consensus group. The
    /// observer *is* applied at the node and transport layers; pass the
    /// same handle into `make` for protocol-level events.
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures on the TCP transport; the
    /// in-memory build is infallible.
    pub fn build<V, P, F>(self, mut make: F) -> Result<ShardedCluster<V>, RuntimeError>
    where
        V: Value,
        P: Protocol<V> + 'static,
        F: FnMut(ProcessId) -> P,
    {
        let one_group = ClusterBuilder { shards: 1, ..self };
        one_group.assemble(Arc::new(|_| 0), true, |p, _, _| make(p))
    }

    /// Builds a cluster of SMR replicas replicating state machine `S`
    /// over command type `C`: [`ClusterBuilder::shards`] independent
    /// groups (one by default), each replicating its own instance of `S`
    /// over the partition of the command space that hashes to it, with
    /// this builder's batching/pipeline knobs and observer applied to
    /// every replica. The knobs apply per group, so total in-flight
    /// capacity scales with the shard count.
    ///
    /// The cluster's value type is the *command*: proposals are single
    /// commands, decide events are single applied commands, and the
    /// replicas batch internally. Commands pick their group via
    /// [`Routable::route_key`] hashed by the cluster's [`ShardRouter`];
    /// group `s` rotates its leader preference to node `s mod n` and
    /// reports to shard `s`'s observer.
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures on the TCP transport; the
    /// in-memory build is infallible.
    pub fn build_sharded_smr<C, S>(self) -> Result<ShardedCluster<C>, RuntimeError>
    where
        C: Value + Ord + Routable,
        S: StateMachine<C> + 'static,
    {
        let router = ShardRouter::new(self.shards);
        let route: RouteFn<C> = Arc::new(move |c: &C| router.route(c.route_key().as_ref()));
        let (cfg, batch, pipeline) = (self.cfg, self.batch, self.pipeline);
        self.assemble(route, false, move |p, s, obs| {
            SmrReplicaBuilder::new(cfg, p)
                .pipeline(pipeline)
                .batch(batch)
                .leader_rotation(s)
                .observed(obs)
                .build::<C, S>()
        })
    }

    /// The one assembly routine behind every `build*`: makes the `n`
    /// endpoints the transport choice calls for (behind the link-delay
    /// line, if any), then spawns one node per endpoint hosting
    /// `make(p, s, shard s's observer)` for every shard `s`, each
    /// publishing its decisions straight into the cluster's shared
    /// state — groups that decide once, or apply a log, as `decide_once`
    /// says.
    fn assemble<V, P, F>(
        self,
        route: RouteFn<V>,
        decide_once: bool,
        mut make: F,
    ) -> Result<ShardedCluster<V>, RuntimeError>
    where
        V: Value,
        P: Protocol<V> + 'static,
        F: FnMut(ProcessId, u32, ObserverHandle) -> P,
    {
        let router = ShardRouter::new(self.shards);
        let endpoints = self
            .transport
            .endpoints(self.cfg.n(), self.link_delay, &self.obs)?;
        let shared = ClusterShared::new(router.shards(), self.cfg.n(), decide_once);
        let sink = Arc::clone(&shared);
        let opts =
            NodeOptions::reporting_to(Arc::new(move |p, s, v, at| sink.publish(p, s, v, at)))
                .wall_delta(self.wall_delta)
                .observed(self.obs.clone())
                .shard_observed(self.shard_obs);
        let mut nodes = Vec::with_capacity(endpoints.len());
        for (i, endpoint) in endpoints.into_iter().enumerate() {
            let p = ProcessId::new(i as u32);
            let instances = (0..router.shards())
                .map(|s| make(p, s as u32, opts.observer_of(s)))
                .collect();
            // In memory and over blocking TCP the endpoint's hook comes
            // along: whichever thread delivers a frame steps the node on
            // its own when the node is free.
            nodes.push(spawn_stepped(
                instances,
                endpoint.inbox,
                endpoint.transport,
                opts.clone(),
                endpoint.readers,
            ));
        }
        Ok(ShardedCluster::new(
            self.cfg, router, nodes, shared, route, self.obs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;
    use twostep_smr::{KvCommand, KvStore};
    use twostep_types::protocol::{Effects, TimerId};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn smr_cluster_commits_through_proxy_client() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .wall_delta(Duration::from_millis(5))
            .batch(4)
            .pipeline(2)
            .build_sharded_smr::<KvCommand, KvStore>()
            .unwrap();
        let client = cluster.proxy_client(p(0));
        let latency =
            client.submit_and_wait(KvCommand::put("answer", "42"), Duration::from_secs(10));
        assert!(latency.is_some(), "command never committed");
    }

    #[test]
    fn sharded_smr_cluster_commits_across_shards() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .shards(4)
            .wall_delta(Duration::from_millis(5))
            .batch(4)
            .pipeline(2)
            .build_sharded_smr::<KvCommand, KvStore>()
            .unwrap();
        assert_eq!(cluster.shards(), 4);
        let client = cluster.client();
        let router = cluster.router();
        let mut shards_hit = std::collections::BTreeSet::new();
        for i in 0..12 {
            let cmd = KvCommand::put(format!("key-{i}"), format!("v{i}"));
            let shard = client.shard_of(&cmd);
            assert_eq!(shard, router.route(format!("key-{i}").as_bytes()));
            shards_hit.insert(shard);
            assert!(
                client
                    .submit_and_wait(cmd, Duration::from_secs(10))
                    .is_some(),
                "command {i} never committed in shard {shard}"
            );
        }
        assert!(shards_hit.len() > 1, "12 keys should span multiple shards");
        assert!(cluster.agreement(), "per-shard agreement must hold");
    }

    #[test]
    fn sharded_cluster_routes_same_key_to_same_shard() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .shards(8)
            .wall_delta(Duration::from_millis(5))
            .build_sharded_smr::<KvCommand, KvStore>()
            .unwrap();
        let client = cluster.client();
        let put = KvCommand::put("stable-key", "1");
        let del = KvCommand::delete("stable-key");
        assert_eq!(
            client.shard_of(&put),
            client.shard_of(&del),
            "all operations on one key share one log"
        );
    }

    #[test]
    fn builder_over_reactor_reaches_agreement() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .reactor()
            .wall_delta(Duration::from_millis(10))
            .build_sharded_smr::<KvCommand, KvStore>()
            .unwrap();
        let client = cluster.proxy_client(p(0));
        assert!(client
            .submit_and_wait(KvCommand::put("k", "v"), Duration::from_secs(10))
            .is_some());
    }

    #[test]
    fn sharded_builder_over_reactor_commits_across_shards() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .reactor()
            .shards(4)
            .wall_delta(Duration::from_millis(5))
            .batch(4)
            .pipeline(2)
            .build_sharded_smr::<KvCommand, KvStore>()
            .unwrap();
        let client = cluster.client();
        for i in 0..8 {
            assert!(
                client
                    .submit_and_wait(
                        KvCommand::put(format!("rk-{i}"), format!("v{i}")),
                        Duration::from_secs(10)
                    )
                    .is_some(),
                "command {i} never committed over the reactor backend"
            );
        }
        assert!(cluster.agreement());
    }

    #[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
    enum Hop {
        Fwd(u64),
        Ack(u64),
    }

    /// Two link delays per command, and nothing unless in order: the
    /// `v`-th proposal at a node is forwarded as `v` to the sequencer
    /// `p0`, which acks only the number it expects next; the proposer
    /// decides `v` only on the ack it expects next. One reordered hop in
    /// either direction and every later number stays undecided.
    #[derive(Debug)]
    struct InOrder {
        me: ProcessId,
        proposed: u64,
        next_fwd: u64,
        next_ack: u64,
    }

    impl InOrder {
        fn new(me: ProcessId) -> Self {
            InOrder {
                me,
                proposed: 0,
                next_fwd: 0,
                next_ack: 0,
            }
        }
    }

    impl Protocol<u64> for InOrder {
        type Message = Hop;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_start(&mut self, _: &mut Effects<u64, Hop>) {}
        fn on_propose(&mut self, _: u64, eff: &mut Effects<u64, Hop>) {
            eff.send(p(0), Hop::Fwd(self.proposed));
            self.proposed += 1;
        }
        fn on_message(&mut self, from: ProcessId, m: Hop, eff: &mut Effects<u64, Hop>) {
            match m {
                Hop::Fwd(v) if v == self.next_fwd => {
                    self.next_fwd += 1;
                    eff.send(from, Hop::Ack(v));
                }
                Hop::Ack(v) if v == self.next_ack => {
                    self.next_ack += 1;
                    eff.decide(v);
                }
                _ => {}
            }
        }
        fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, Hop>) {}
        fn decision(&self) -> Option<u64> {
            self.next_ack.checked_sub(1)
        }
    }

    type Backend = fn(ClusterBuilder) -> ClusterBuilder;

    const BACKENDS: [(&str, Backend); 3] = [
        ("in_memory", ClusterBuilder::in_memory),
        ("tcp", ClusterBuilder::tcp),
        ("reactor", ClusterBuilder::reactor),
    ];

    #[test]
    fn link_delay_costs_two_hops_and_keeps_link_order_on_every_backend() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let delay = Duration::from_millis(20);
        for (name, backend) in BACKENDS {
            let cluster = backend(ClusterBuilder::new(cfg).link_delay(delay))
                .build(InOrder::new)
                .unwrap();
            // A non-leader proxy: its commands cross the p1 -> p0 link
            // and their acks the p0 -> p1 link.
            let client = cluster.proxy_client(p(1));
            // A burst of single sends in flight at once on both links:
            // the last commits only if none overtook another.
            for v in 0..31 {
                client.propose(v);
            }
            let latency = client
                .submit_and_wait(31, Duration::from_secs(10))
                .unwrap_or_else(|| panic!("{name}: a hop was reordered or lost"));
            assert!(
                latency >= 2 * delay,
                "{name}: committed in {latency:?}, under two {delay:?} link delays"
            );
        }
    }

    /// The stress twin: instant links, and four clients proposing at p1
    /// at once, so that p1's node thread is busy with submissions while
    /// over TCP its readers try to step the acks themselves, and p0's
    /// readers the forwards. The 8,001st number commits only if none of
    /// the 16,000 hops before it was reordered.
    #[test]
    fn link_order_holds_at_the_node_under_contention_on_every_backend() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        for (name, backend) in BACKENDS {
            let cluster = backend(ClusterBuilder::new(cfg))
                .build(InOrder::new)
                .unwrap();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let client = cluster.proxy_client(p(1));
                    s.spawn(move || (0..2000).for_each(|v| client.propose(v)));
                }
            });
            cluster
                .proxy_client(p(1))
                .submit_and_wait(8000, Duration::from_secs(20))
                .unwrap_or_else(|| panic!("{name}: a hop was reordered or lost"));
        }
    }

    /// Batching learns from the proxy's queue even where the proxy's
    /// peers answer inside its own step, as in memory: bursts of eight
    /// commands at batch 4 × depth 2 share slots. A node loop that
    /// stepped its inbox before admitting submissions had an in-memory
    /// proxy commit each command before it looked at the next, one
    /// command a slot for good.
    #[test]
    fn bursts_share_slots_on_every_backend() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        for (name, backend) in BACKENDS {
            let (metrics, obs) = twostep_telemetry::Metrics::shared();
            let cluster = backend(ClusterBuilder::new(cfg))
                .observed(obs)
                .batch(4)
                .pipeline(2)
                .build_sharded_smr::<KvCommand, KvStore>()
                .unwrap();
            let client = cluster.proxy_client(p(1));
            for burst in 0..50 {
                let put = |i| KvCommand::put(format!("{burst}-{i}"), "v");
                (0..7).for_each(|i| client.propose(put(i)));
                client
                    .submit_and_wait(put(7), Duration::from_secs(5))
                    .unwrap_or_else(|| panic!("{name}: burst {burst} never committed"));
            }
            let batches = metrics.snapshot().batch_size;
            assert!(batches.mean > 1.5, "{name}: commands per slot {batches:?}");
        }
    }

    /// Sends a ping to every peer each Δ, and counts the messages it
    /// steps; panics on the `panic_at`-th, if it has one.
    #[derive(Debug)]
    struct Chatter {
        me: ProcessId,
        n: u32,
        stepped: Arc<AtomicU64>,
        panic_at: Option<u64>,
    }

    impl Protocol<u64> for Chatter {
        type Message = Hop;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_start(&mut self, eff: &mut Effects<u64, Hop>) {
            eff.set_timer(TimerId(0), twostep_types::Duration::deltas(1));
        }
        fn on_propose(&mut self, _: u64, _: &mut Effects<u64, Hop>) {}
        fn on_message(&mut self, _: ProcessId, _: Hop, _: &mut Effects<u64, Hop>) {
            let k = self.stepped.fetch_add(1, Ordering::SeqCst) + 1;
            assert_ne!(self.panic_at, Some(k), "{} panics on message {k}", self.me);
        }
        fn on_timer(&mut self, t: TimerId, eff: &mut Effects<u64, Hop>) {
            for q in (0..self.n).map(p).filter(|&q| q != self.me) {
                eff.send(q, Hop::Fwd(0));
            }
            eff.set_timer(t, twostep_types::Duration::deltas(1));
        }
        fn decision(&self) -> Option<u64> {
            None
        }
    }

    /// Instant links, and 2 ms ones, where the delay line delivers.
    const DELAYS: [Duration; 2] = [Duration::ZERO, Duration::from_millis(2)];

    /// A three-node [`Chatter`] cluster (Δ = 1 ms), and a reader of each
    /// node's step count. With `panics` = `(q, k)`, node `q` panics on
    /// its `k`-th message.
    fn chatter(
        backend: Backend,
        delay: Duration,
        panics: Option<(u32, u64)>,
    ) -> (ShardedCluster<u64>, impl Fn(u32) -> u64) {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let counters: Vec<Arc<AtomicU64>> = (0..cfg.n()).map(|_| Arc::default()).collect();
        let cluster = backend(ClusterBuilder::new(cfg))
            .wall_delta(Duration::from_millis(1))
            .link_delay(delay)
            .build(|me| Chatter {
                me,
                n: cfg.n() as u32,
                stepped: Arc::clone(&counters[me.index()]),
                panic_at: panics.filter(|&(q, _)| p(q) == me).map(|(_, k)| k),
            })
            .unwrap();
        (cluster, move |q| {
            counters[q as usize].load(Ordering::SeqCst)
        })
    }

    /// Waits until node `q` has stepped `k` messages.
    fn await_steps(stepped: &impl Fn(u32) -> u64, q: u32, k: u64, name: &str) {
        let started = std::time::Instant::now();
        while stepped(q) < k {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "{name}: p{q} never stepped {k} messages"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Once `victim` has stopped, no thread steps it for 200 ms, while
    /// the other two go on stepping each other — through the delay line,
    /// where there is one.
    fn assert_only_it_stopped(stepped: &impl Fn(u32) -> u64, victim: u32, name: &str) {
        let at_stop: Vec<u64> = (0..3).map(stepped).collect();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(
            stepped(victim),
            at_stop[victim as usize],
            "{name}: p{victim} was stepped after it stopped"
        );
        for q in (0..3).filter(|&q| q != victim) {
            assert!(
                stepped(q) > at_stop[q as usize] + 20,
                "{name}: p{q} stopped stepping with p{victim}"
            );
        }
    }

    /// Crash stays strict whoever steps: once `crash(p1)` returns,
    /// nothing steps p1 on any thread — its own, a reader, a peer's
    /// sending thread or the delay line — while its peers go on sending
    /// to it (and stepping each other).
    #[test]
    fn a_crashed_node_is_stepped_by_no_thread_on_every_backend() {
        for (name, backend) in BACKENDS {
            for delay in DELAYS {
                let name = format!("{name}, {delay:?} links");
                let (mut cluster, stepped) = chatter(backend, delay, None);
                await_steps(&stepped, 1, 20, &name);
                cluster.crash(p(1));
                assert_only_it_stopped(&stepped, 1, &name);
            }
        }
    }

    /// A step that panics stops its node and only it, whichever thread
    /// ran it: p0's twentieth message is stepped by its own thread, a
    /// TCP reader, a peer's node thread or the delay line, and that
    /// thread carries on delivering to the others.
    #[test]
    fn a_panicking_step_stops_only_its_node_on_every_backend() {
        for (name, backend) in BACKENDS {
            for delay in DELAYS {
                let name = format!("{name}, {delay:?} links");
                let (_cluster, stepped) = chatter(backend, delay, Some((0, 20)));
                await_steps(&stepped, 0, 20, &name);
                assert_only_it_stopped(&stepped, 0, &name);
            }
        }
    }

    #[test]
    fn builder_over_tcp_reaches_agreement() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .tcp()
            .wall_delta(Duration::from_millis(10))
            .build_sharded_smr::<KvCommand, KvStore>()
            .unwrap();
        let client = cluster.proxy_client(p(0));
        assert!(client
            .submit_and_wait(KvCommand::put("k", "v"), Duration::from_secs(10))
            .is_some());
    }
}
