//! Sharded deployments: many independent consensus groups, one cluster.
//!
//! A [`ShardedCluster`] hash-partitions the key space across `k`
//! independent replica groups — `k = 1` is a one-group deployment,
//! addressed as shard 0. Every physical node hosts one replica of
//! *every* group, multiplexed on one OS thread and one transport
//! endpoint; wire traffic is demultiplexed by the
//! [`codec::tag_shard`](crate::codec::tag_shard) envelope.
//! Each group's Ω scans a rotated preference order so the group leaders
//! — and with them the fast-path proposal load — spread round-robin
//! across the nodes: shard `s` is led by node `s mod n`.
//!
//! Per-key operations stay totally ordered (same key → same group, one
//! log), while distinct keys in distinct groups commit concurrently —
//! the standard partitioning argument, which preserves each group's
//! `2e+f` fast-path quorum economics unchanged.

use std::sync::Arc;
use std::time::{Duration as WallDuration, Instant};

use twostep_telemetry::ObserverHandle;
use twostep_types::judge::Violation;
use twostep_types::{ProcessId, SystemConfig, Value};

use crate::cluster::ClusterShared;
use crate::node::NodeHandle;
use crate::proxy::{ProxyClient, RouteFn};

/// 64-bit FNV-1a over `bytes` — the router's key hash.
///
/// Chosen for being dependency-free, fast on short keys, and stable: a
/// key's shard must never change across builds or platforms, because a
/// resharded key would split its history across two logs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The key→shard map: `shard(key) = fnv1a64(key) mod shards`.
///
/// Total (every byte string maps somewhere), stable (pure function of
/// the bytes) and balanced (FNV-1a spreads short keys well; the router
/// proptests pin a chi-squared bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u32,
}

impl ShardRouter {
    /// A router over `shards` groups.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0 or exceeds `u32::MAX`.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a cluster has at least one shard");
        let shards = u32::try_from(shards).expect("shard count fits u32");
        ShardRouter { shards }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard `key` routes to.
    pub fn route(&self, key: &[u8]) -> u32 {
        (fnv1a64(key) % u64::from(self.shards)) as u32
    }
}

/// A running deployment: `n` nodes × `k` consensus groups. The one type
/// that owns a cluster's nodes, decision state and route function, and
/// what every [`ClusterBuilder`](crate::ClusterBuilder) build returns;
/// a one-group deployment is the `k = 1` case, addressed as shard 0.
/// Clients submit through the [`ProxyClient`]s it hands out.
///
/// Construct with [`ClusterBuilder::build`](crate::ClusterBuilder::build)
/// (one group of any protocol), or
/// [`ClusterBuilder::shards`](crate::ClusterBuilder::shards) followed by
/// [`build_sharded_smr`](crate::ClusterBuilder::build_sharded_smr).
///
/// ```rust
/// use std::time::Duration;
/// use twostep_runtime::ClusterBuilder;
/// use twostep_smr::{KvCommand, KvStore};
/// use twostep_types::SystemConfig;
///
/// let cfg = SystemConfig::minimal_object(1, 1)?;
/// let cluster = ClusterBuilder::new(cfg)
///     .shards(4)
///     .wall_delta(Duration::from_millis(5))
///     .build_sharded_smr::<KvCommand, KvStore>()
///     .expect("in-memory build cannot fail");
/// let client = cluster.client();
/// client.submit_and_wait(KvCommand::put("k", "v"), Duration::from_secs(10));
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
pub struct ShardedCluster<V: Value> {
    cfg: SystemConfig,
    router: ShardRouter,
    nodes: Vec<NodeHandle<V>>,
    shared: Arc<ClusterShared<V>>,
    route: RouteFn<V>,
    obs: ObserverHandle,
    started: Instant,
}

impl<V: Value> ShardedCluster<V> {
    /// Wraps freshly spawned `nodes` (one per process of `cfg`, each
    /// hosting `router.shards()` groups and publishing its decide events
    /// into `shared`). Called from the one assembly routine,
    /// `ClusterBuilder::assemble`.
    pub(crate) fn new(
        cfg: SystemConfig,
        router: ShardRouter,
        nodes: Vec<NodeHandle<V>>,
        shared: Arc<ClusterShared<V>>,
        route: RouteFn<V>,
        obs: ObserverHandle,
    ) -> Self {
        ShardedCluster {
            cfg,
            router,
            nodes,
            shared,
            route,
            obs,
            started: Instant::now(),
        }
    }

    /// The deployed configuration (per group — all groups share it).
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// Number of consensus groups.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// The key→shard router.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The node that leads shard `s` when nothing is suspected: the
    /// round-robin assignment `s mod n`.
    pub fn leader_of(&self, shard: u32) -> ProcessId {
        ProcessId::new(shard % self.cfg.n() as u32)
    }

    /// A leader-routed client: each command is submitted at (and
    /// awaited on) the node leading its shard, so every proposal starts
    /// on the fast path of its group.
    pub fn client(&self) -> ProxyClient<V> {
        self.client_via(|s| self.leader_of(s))
    }

    /// A client pinned to proxy `p` for every shard: commands are
    /// routed to their shard's replica *on node `p`* regardless of who
    /// leads the group. Non-leader proposals reach the group leader by
    /// forwarding, trading a hop for locality.
    pub fn proxy_client(&self, p: ProcessId) -> ProxyClient<V> {
        self.client_via(|_| p)
    }

    /// A client submitting shard `s`'s commands at node `proxy_of(s)`.
    fn client_via(&self, proxy_of: impl Fn(u32) -> ProcessId) -> ProxyClient<V> {
        let targets = (0..self.shards() as u32)
            .map(|s| {
                let p = proxy_of(s);
                (p, self.nodes[p.index()].control())
            })
            .collect();
        ProxyClient::new(
            Arc::new(targets),
            Arc::clone(&self.route),
            Arc::clone(&self.shared),
            self.obs.clone(),
        )
    }

    /// Crashes node `p`: every group loses its replica at `p` at once —
    /// the physical-node failure model.
    pub fn crash(&mut self, p: ProcessId) {
        self.nodes[p.index()].crash();
    }

    /// The first decision of `(shard, p)` observed so far.
    pub fn decision_of(&self, shard: u32, p: ProcessId) -> Option<V> {
        self.shared.first_decision(shard, p).map(|(v, _)| v)
    }

    /// The decision latency of `(shard, p)` relative to cluster start,
    /// if decided.
    pub fn decision_latency(&self, shard: u32, p: ProcessId) -> Option<WallDuration> {
        self.shared
            .first_decision(shard, p)
            .map(|(_, at)| at.duration_since(self.started))
    }

    /// Uniform Agreement in `shard`, with its evidence: over every decide
    /// event in a group that decides once, and over each replica's first
    /// applied command in a replicated log.
    pub fn shard_agreement(&self, shard: u32) -> Result<(), Violation<V>> {
        self.shared.shard_agreement(shard)
    }

    /// Whether [`ShardedCluster::shard_agreement`] holds in every shard —
    /// Agreement holds per group; values across groups legitimately
    /// differ.
    pub fn agreement(&self) -> bool {
        (0..self.shards() as u32).all(|s| self.shard_agreement(s).is_ok())
    }

    /// Waits until `(shard, p)` decides or `timeout` elapses.
    pub fn await_decision(&self, shard: u32, p: ProcessId, timeout: WallDuration) -> Option<V> {
        // Register before checking the cache so an event landing in
        // between is seen either way (no lost wakeup).
        let (token, rx) = self.shared.register_waiter(shard, None, p);
        if self.decision_of(shard, p).is_none() {
            let _ = rx.recv_timeout(timeout);
        }
        self.shared.deregister_waiter(shard, p, token);
        self.decision_of(shard, p)
    }

    /// Waits until every process in `who` has decided in `shard`;
    /// returns whether that happened before `timeout`, which is one
    /// deadline for all of `who`.
    pub fn await_decisions(
        &self,
        shard: u32,
        who: impl IntoIterator<Item = ProcessId>,
        timeout: WallDuration,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        who.into_iter().all(|p| {
            let left = deadline.saturating_duration_since(Instant::now());
            self.await_decision(shard, p, left).is_some()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn router_is_total_and_in_range() {
        let router = ShardRouter::new(8);
        for key in [&b""[..], b"a", b"capital/mx", &[0xFF; 64]] {
            assert!(router.route(key) < 8);
        }
        assert_eq!(ShardRouter::new(1).route(b"anything"), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRouter::new(0);
    }
}
