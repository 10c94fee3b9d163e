//! The decision state every deployment shares with its clients, and the
//! unsharded view of a deployment.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as WallDuration, Instant};

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use twostep_types::{ProcessId, SystemConfig, Value};

use crate::proxy::ProxyClient;
use crate::shard::ShardedCluster;

/// One registered value-waiter (see [`ClusterShared::register_waiter`]).
struct Waiter {
    proxy: ProcessId,
    token: u64,
    tx: Sender<Instant>,
}

/// One decide event as routed through the cluster:
/// `(deciding process, shard, value, wall-clock instant)`.
pub(crate) type DecideEvent<V> = (ProcessId, u32, V, Instant);

/// First decision per shard per process, indexed `[shard][process]`.
type FirstDecisions<V> = Vec<Vec<Option<(V, Instant)>>>;

/// Decision state shared between the cluster handle, its router thread
/// and any [`ProxyClient`]s. Every index is `(shard, process)`; an
/// unsharded cluster is the one-shard special case, with all traffic on
/// shard 0.
pub(crate) struct ClusterShared<V> {
    /// First decision per shard per process (the per-shard
    /// agreement-checking cache).
    observed: Mutex<FirstDecisions<V>>,
    /// Live subscribers receiving **every** decide event.
    taps: Mutex<Vec<Sender<DecideEvent<V>>>>,
    /// Clients blocked on one specific value committing at one specific
    /// proxy, keyed by `(shard, value)`. One hash lookup per decide
    /// event, however many clients wait — fanning every event to every
    /// client caps the whole cluster's commit rate once closed-loop
    /// clients multiply. The shard in the key keeps groups isolated: a
    /// value committing in shard `j` can never wake a waiter registered
    /// under shard `i ≠ j`, even when the values collide.
    waiters: Mutex<HashMap<(u32, V), Vec<Waiter>>>,
    next_token: AtomicU64,
}

impl<V: Value> ClusterShared<V> {
    /// Fresh shared state for `shards` consensus groups over `n` nodes.
    pub(crate) fn new(shards: usize, n: usize) -> Arc<Self> {
        Arc::new(ClusterShared {
            observed: Mutex::new(vec![vec![None; n]; shards]),
            taps: Mutex::new(Vec::new()),
            waiters: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
        })
    }

    /// Spawns the router thread draining `rx` into this shared state.
    pub(crate) fn spawn_router(self: &Arc<Self>, rx: Receiver<DecideEvent<V>>) {
        let router = Arc::clone(self);
        std::thread::Builder::new()
            .name("twostep-cluster-router".into())
            .spawn(move || router.route(rx))
            .expect("spawn router thread");
    }

    /// Routes decide events until every node's sender is gone: caches
    /// each `(shard, process)`'s first decision, wakes the matching
    /// `(shard, value)` waiters, then fans the event out to all live
    /// taps (dead taps are pruned as they are discovered).
    fn route(self: Arc<Self>, rx: Receiver<DecideEvent<V>>) {
        while let Ok((p, shard, v, at)) = rx.recv() {
            {
                let mut observed = self.observed.lock();
                if let Some(row) = observed.get_mut(shard as usize) {
                    let slot = &mut row[p.index()];
                    if slot.is_none() {
                        *slot = Some((v.clone(), at));
                    }
                }
            }
            {
                let mut waiters = self.waiters.lock();
                let key = (shard, v.clone());
                if let Some(list) = waiters.get_mut(&key) {
                    list.retain(|w| {
                        if w.proxy == p {
                            let _ = w.tx.send(at);
                            false
                        } else {
                            true
                        }
                    });
                    if list.is_empty() {
                        waiters.remove(&key);
                    }
                }
            }
            let mut taps = self.taps.lock();
            taps.retain(|tap| tap.send((p, shard, v.clone(), at)).is_ok());
        }
    }

    /// Registers interest in `value` committing in `shard` at `proxy`;
    /// the returned receiver yields the commit's wall-clock instant. The
    /// token identifies this registration for
    /// [`ClusterShared::deregister_waiter`].
    pub(crate) fn register_waiter(
        &self,
        shard: u32,
        value: V,
        proxy: ProcessId,
    ) -> (u64, Receiver<Instant>) {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = crossbeam::channel::unbounded();
        self.waiters
            .lock()
            .entry((shard, value))
            .or_default()
            .push(Waiter { proxy, token, tx });
        (token, rx)
    }

    /// Drops a registration that timed out without being woken.
    pub(crate) fn deregister_waiter(&self, shard: u32, value: &V, token: u64) {
        let mut waiters = self.waiters.lock();
        // The key is rebuilt by clone because HashMap's borrowed-key
        // lookup cannot borrow through a tuple of owned parts.
        let key = (shard, value.clone());
        if let Some(list) = waiters.get_mut(&key) {
            list.retain(|w| w.token != token);
            if list.is_empty() {
                waiters.remove(&key);
            }
        }
    }

    /// The first decision of `(shard, p)` observed so far.
    pub(crate) fn first_decision(&self, shard: u32, p: ProcessId) -> Option<(V, Instant)> {
        self.observed
            .lock()
            .get(shard as usize)
            .and_then(|row| row[p.index()].clone())
    }

    /// All first decisions of one shard, by process.
    pub(crate) fn shard_decisions(&self, shard: u32) -> Vec<Option<V>> {
        self.observed
            .lock()
            .get(shard as usize)
            .map(|row| {
                row.iter()
                    .map(|slot| slot.as_ref().map(|(v, _)| v.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Subscribes a tap receiving every decide event from now on.
    pub(crate) fn subscribe(&self) -> Receiver<(ProcessId, u32, V, Instant)> {
        let (tx, rx) = crossbeam::channel::unbounded();
        self.taps.lock().push(tx);
        rx
    }
}

/// A running cluster of protocol instances: the client's view of one
/// consensus group — `propose` at a proxy, await decisions, observe
/// latency, crash nodes.
///
/// This is the shard-0 view of a one-shard [`ShardedCluster`] and holds
/// nothing else: every unsharded method delegates to its sharded
/// counterpart. Construct with
/// [`ClusterBuilder::build`](crate::ClusterBuilder::build) or
/// [`ClusterBuilder::build_smr`](crate::ClusterBuilder::build_smr).
///
/// # Example
///
/// ```rust,no_run
/// use std::time::Duration;
/// use twostep_core::ObjectConsensus;
/// use twostep_runtime::ClusterBuilder;
/// use twostep_types::{ProcessId, SystemConfig};
///
/// let cfg = SystemConfig::minimal_object(1, 1)?;
/// let cluster = ClusterBuilder::new(cfg)
///     .wall_delta(Duration::from_millis(20))
///     .build(|p| ObjectConsensus::<u64>::new(cfg, p))
///     .expect("in-memory build cannot fail");
/// cluster.propose(ProcessId::new(0), 7);
/// let decided = cluster.await_decision(ProcessId::new(0), Duration::from_secs(5));
/// assert_eq!(decided, Some(7));
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
pub struct Cluster<V: Value>(pub(crate) ShardedCluster<V>);

impl<V: Value> Cluster<V> {
    /// The deployed configuration.
    pub fn config(&self) -> SystemConfig {
        self.0.config()
    }

    /// When the cluster was spawned.
    pub fn started_at(&self) -> Instant {
        self.0.started_at()
    }

    /// Submits a client proposal at node `p` (the proxy).
    pub fn propose(&self, p: ProcessId, value: V) {
        self.0.propose_via(p, value);
    }

    /// A client handle bound to the proxy at `p`: it can submit
    /// commands and wait for their commit, measuring per-command
    /// latency (see [`ProxyClient::submit_and_wait`]). Any number of
    /// clients may share one proxy.
    pub fn proxy_client(&self, p: ProcessId) -> ProxyClient<V> {
        self.0.proxy_client(p)
    }

    /// Crashes node `p`: it stops participating immediately.
    pub fn crash(&mut self, p: ProcessId) {
        self.0.crash(p);
    }

    /// The first decision of `p` observed so far, without blocking.
    pub fn decision_of(&self, p: ProcessId) -> Option<V> {
        self.0.decision_of(0, p)
    }

    /// Waits until `p` decides or `timeout` elapses; returns the value.
    pub fn await_decision(&self, p: ProcessId, timeout: WallDuration) -> Option<V> {
        self.0.await_decision(0, p, timeout)
    }

    /// Waits until every process in `who` has decided; returns whether
    /// that happened before the timeout.
    pub fn await_decisions(
        &self,
        who: impl IntoIterator<Item = ProcessId>,
        timeout: WallDuration,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        who.into_iter().all(|p| {
            let now = Instant::now();
            if now >= deadline {
                return self.decision_of(p).is_some();
            }
            self.await_decision(p, deadline - now).is_some()
        })
    }

    /// The decision latency of `p` relative to cluster start, if decided.
    pub fn decision_latency(&self, p: ProcessId) -> Option<WallDuration> {
        self.0.decision_latency(0, p)
    }

    /// All first decisions observed so far, by process.
    pub fn decisions(&self) -> Vec<Option<V>> {
        self.0.shard_decisions(0)
    }

    /// Whether all observed decisions agree on a single value.
    pub fn agreement(&self) -> bool {
        self.0.agreement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterBuilder;
    use serde::{Deserialize, Serialize};
    use twostep_types::protocol::{Effects, Protocol, TimerId};
    use twostep_types::ProtocolKind;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Gossip(u64);

    /// Decides the first value it hears (own proposal or gossip).
    #[derive(Debug)]
    struct Relay {
        me: ProcessId,
        n: usize,
        decided: Option<u64>,
    }

    impl Protocol<u64> for Relay {
        type Message = Gossip;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_start(&mut self, _: &mut Effects<u64, Gossip>) {}
        fn on_propose(&mut self, v: u64, eff: &mut Effects<u64, Gossip>) {
            if self.decided.is_none() {
                self.decided = Some(v);
                eff.decide(v);
                eff.broadcast_others(Gossip(v), self.n, self.me);
            }
        }
        fn on_message(&mut self, _: ProcessId, m: Gossip, eff: &mut Effects<u64, Gossip>) {
            if self.decided.is_none() {
                self.decided = Some(m.0);
                eff.decide(m.0);
            }
        }
        fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, Gossip>) {}
        fn decision(&self) -> Option<u64> {
            self.decided
        }
    }

    /// A three-`Relay` cluster over `builder`'s transport (Δ stays at
    /// the builder's 10ms default).
    fn relays(builder: ClusterBuilder) -> Cluster<u64> {
        builder
            .build(|q| Relay {
                me: q,
                n: 3,
                decided: None,
            })
            .expect("cluster build")
    }

    #[test]
    fn in_memory_cluster_propagates_decision() {
        let cfg = SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 3, 1, 1).unwrap();
        let cluster = relays(ClusterBuilder::new(cfg));
        cluster.propose(p(1), 55);
        assert!(cluster.await_decisions(cfg.process_ids(), WallDuration::from_secs(5)));
        assert_eq!(cluster.decisions(), vec![Some(55), Some(55), Some(55)]);
        assert!(cluster.agreement());
        assert!(cluster.decision_latency(p(1)).is_some());
    }

    #[test]
    fn crash_is_silent() {
        let cfg = SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 3, 1, 1).unwrap();
        let mut cluster = relays(ClusterBuilder::new(cfg));
        cluster.crash(p(0));
        cluster.propose(p(0), 1); // swallowed
        assert_eq!(
            cluster.await_decision(p(1), WallDuration::from_millis(300)),
            None
        );
        cluster.propose(p(1), 2);
        assert_eq!(
            cluster.await_decision(p(2), WallDuration::from_secs(5)),
            Some(2)
        );
        assert_eq!(cluster.decision_of(p(0)), None);
    }

    #[test]
    fn proxy_client_sees_own_proxy_decisions() {
        let cfg = SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 3, 1, 1).unwrap();
        let cluster = relays(ClusterBuilder::new(cfg));
        let client = cluster.proxy_client(p(1));
        let latency = client.submit_and_wait(61, WallDuration::from_secs(5));
        assert!(latency.is_some(), "client never saw its command commit");
        assert_eq!(cluster.decision_of(p(1)), Some(61));
    }

    // The (shard, value) waiter key is what keeps groups isolated at the
    // client layer: colliding values in different shards must never wake
    // each other's waiters. Driven as a property over shard pairs,
    // values and proxies because the bug class (keying by value alone)
    // only shows when values collide across shards.
    mod waiter_isolation {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn decides_never_wake_waiters_of_other_shards(
                deciding in 0u32..4,
                bystander in 0u32..4,
                value in any::<u64>(),
                proxy in 0u32..3,
            ) {
                prop_assume!(deciding != bystander);
                let shared: Arc<ClusterShared<u64>> = ClusterShared::new(4, 3);
                let (dtx, drx) = crossbeam::channel::unbounded();
                shared.spawn_router(drx);
                let at = p(proxy);
                let (_tok_b, rx_bystander) = shared.register_waiter(bystander, value, at);
                let (_tok_d, rx_deciding) = shared.register_waiter(deciding, value, at);
                dtx.send((at, deciding, value, Instant::now())).unwrap();
                // The matching waiter wakes...
                prop_assert!(
                    rx_deciding.recv_timeout(WallDuration::from_secs(5)).is_ok(),
                    "waiter on the deciding shard was never woken"
                );
                // ...and because the router handles events in order, the
                // same-valued waiter under the other shard has already
                // been passed over, not merely not-yet-woken.
                prop_assert!(
                    rx_bystander.try_recv().is_err(),
                    "a decide in shard {deciding} woke a waiter registered under shard {bystander}"
                );
                // The bystander's registration is still live: a decide
                // in *its* shard reaches it.
                dtx.send((at, bystander, value, Instant::now())).unwrap();
                prop_assert!(
                    rx_bystander.recv_timeout(WallDuration::from_secs(5)).is_ok(),
                    "bystander's registration was lost"
                );
            }

            #[test]
            fn decides_only_wake_the_matching_proxy(
                shard in 0u32..4,
                value in any::<u64>(),
                deciding_proxy in 0u32..3,
                other_proxy in 0u32..3,
            ) {
                prop_assume!(deciding_proxy != other_proxy);
                let shared: Arc<ClusterShared<u64>> = ClusterShared::new(4, 3);
                let (dtx, drx) = crossbeam::channel::unbounded();
                shared.spawn_router(drx);
                let (_tok_o, rx_other) =
                    shared.register_waiter(shard, value, p(other_proxy));
                let (_tok_d, rx_deciding) =
                    shared.register_waiter(shard, value, p(deciding_proxy));
                dtx.send((p(deciding_proxy), shard, value, Instant::now())).unwrap();
                prop_assert!(rx_deciding.recv_timeout(WallDuration::from_secs(5)).is_ok());
                prop_assert!(
                    rx_other.try_recv().is_err(),
                    "a decide at proxy {deciding_proxy} woke a waiter bound to proxy {other_proxy}"
                );
            }
        }
    }

    #[test]
    fn tcp_cluster_end_to_end() {
        let cfg = SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 3, 1, 1).unwrap();
        let cluster = relays(ClusterBuilder::new(cfg).tcp());
        cluster.propose(p(2), 77);
        assert!(cluster.await_decisions(cfg.process_ids(), WallDuration::from_secs(10)));
        assert!(cluster.agreement());
        assert_eq!(cluster.decision_of(p(0)), Some(77));
    }
}
