//! Client handles bound to one proxy replica (or, sharded, one proxy
//! per consensus group).

use std::sync::Arc;
use std::time::{Duration as WallDuration, Instant};

use crossbeam::channel::Sender;

use twostep_telemetry::ObserverHandle;
use twostep_types::{ProcessId, Value};

use crate::cluster::ClusterShared;
use crate::node::Control;

/// Picks the shard a value is routed to.
pub(crate) type RouteFn<V> = Arc<dyn Fn(&V) -> u32 + Send + Sync>;

/// A closed-loop client of one proxy node *per shard* — the one way a
/// command enters a cluster.
///
/// Obtained from
/// [`ShardedCluster::proxy_client`](crate::ShardedCluster::proxy_client)
/// (one proxy for every shard) or
/// [`ShardedCluster::client`](crate::ShardedCluster::client) (each
/// shard's leader). Each
/// in-flight [`ProxyClient::submit_and_wait`] registers a waiter keyed
/// by `(proxy, shard, value)` in the cluster's decision state, so
/// concurrent clients (even on the same proxy) wait for their own
/// commands independently — the closed-loop pattern the throughput
/// harness drives — and a decide event costs the deciding node one
/// lookup, however many clients wait. The shard in the key isolates
/// groups: an identical value committing in a different shard never
/// wakes this client.
///
/// Clients identify their commands **by value**: submit values that are
/// unique per client (e.g. a key embedding the client id and a sequence
/// number) or [`ProxyClient::submit_and_wait`] may match another
/// client's identical command committing first. For measuring commit
/// latency that early match is harmless — some copy of the value
/// committed — but sequencing guarantees only hold for unique values.
pub struct ProxyClient<V> {
    /// Per-shard submission target: `(proxy node, its control channel)`,
    /// indexed by shard. A one-shard cluster's clients have one entry.
    targets: Arc<Vec<(ProcessId, Sender<Control<V>>)>>,
    route: RouteFn<V>,
    shared: Arc<ClusterShared<V>>,
    obs: ObserverHandle,
}

impl<V: Value> ProxyClient<V> {
    /// A client whose command `v` goes to shard `route(v)`, proposed at
    /// (and awaited on) node `targets[route(v)].0`. The clients of a
    /// [`ClusterBuilder::build`](crate::ClusterBuilder::build) cluster
    /// are the one-target case with route `|_| 0`.
    pub(crate) fn new(
        targets: Arc<Vec<(ProcessId, Sender<Control<V>>)>>,
        route: RouteFn<V>,
        shared: Arc<ClusterShared<V>>,
        obs: ObserverHandle,
    ) -> Self {
        assert!(!targets.is_empty(), "a client needs at least one target");
        ProxyClient {
            targets,
            route,
            shared,
            obs,
        }
    }

    /// The proxy this client submits shard-0 traffic to (its only proxy
    /// in a one-shard cluster).
    pub fn proxy(&self) -> ProcessId {
        self.targets[0].0
    }

    /// The shard `value` would be routed to.
    pub fn shard_of(&self, value: &V) -> u32 {
        (self.route)(value)
    }

    /// Fire-and-forget submission; silently dropped if the target proxy
    /// crashed.
    pub fn propose(&self, value: V) {
        let shard = (self.route)(&value);
        let (_, control) = &self.targets[shard as usize];
        let _ = control.send(Control::ProposeAt(shard, value));
    }

    /// Submits `value` and blocks until its shard's proxy reports it
    /// decided (in whatever slot/batch it ended up in), or `timeout`
    /// elapses.
    ///
    /// Returns the wall-clock submit→commit latency. With batching this
    /// is the per-command *amortized* latency — each command in a batch
    /// observes its own wait — and it is reported to the attached
    /// observer's `amortized_latency` hook in microseconds.
    pub fn submit_and_wait(&self, value: V, timeout: WallDuration) -> Option<WallDuration> {
        let start = Instant::now();
        let shard = (self.route)(&value);
        let (proxy, control) = &self.targets[shard as usize];
        // Register before proposing so the commit event cannot race past
        // an unregistered waiter (no lost wakeup).
        let (token, rx) = self
            .shared
            .register_waiter(shard, Some(value.clone()), *proxy);
        let _ = control.send(Control::ProposeAt(shard, value));
        match rx.recv_timeout(timeout) {
            Ok(()) => {
                let latency = start.elapsed();
                let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
                self.obs.amortized_latency(*proxy, us);
                Some(latency)
            }
            Err(_) => {
                self.shared.deregister_waiter(shard, *proxy, token);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterBuilder, ShardedCluster};
    use serde::{Deserialize, Serialize};
    use std::thread;
    use twostep_types::protocol::{Effects, Protocol, TimerId};
    use twostep_types::SystemConfig;

    const PROMPT: WallDuration = WallDuration::from_secs(10);

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Never;

    /// Decides whatever is proposed, at once and locally: every commit
    /// is the runtime's completion path and nothing else.
    #[derive(Debug)]
    struct DecideOnPropose(ProcessId);

    impl Protocol<u64> for DecideOnPropose {
        type Message = Never;
        fn id(&self) -> ProcessId {
            self.0
        }
        fn on_start(&mut self, _: &mut Effects<u64, Never>) {}
        fn on_propose(&mut self, v: u64, eff: &mut Effects<u64, Never>) {
            eff.decide(v);
        }
        fn on_message(&mut self, _: ProcessId, _: Never, _: &mut Effects<u64, Never>) {}
        fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, Never>) {}
        fn decision(&self) -> Option<u64> {
            None
        }
    }

    fn cluster() -> ShardedCluster<u64> {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        ClusterBuilder::new(cfg).build(DecideOnPropose).unwrap()
    }

    #[test]
    fn a_crashed_proxy_times_out_and_leaves_no_registration() {
        let mut cluster = cluster();
        let client = cluster.proxy_client(p(1));
        cluster.crash(p(1));
        let timeout = WallDuration::from_millis(50);
        let start = Instant::now();
        assert_eq!(client.submit_and_wait(7, timeout), None);
        assert!(start.elapsed() >= timeout, "gave up before the timeout");
        assert_eq!(client.shared.waiting(), 0);
    }

    #[test]
    fn concurrent_clients_of_one_proxy_all_complete() {
        let cluster = cluster();
        thread::scope(|s| {
            for t in 0..8u64 {
                let client = cluster.proxy_client(p(0));
                s.spawn(move || {
                    for i in 0..200 {
                        let committed = client.submit_and_wait(t * 1000 + i, PROMPT);
                        assert!(
                            committed.is_some(),
                            "client {t}: command {i} never committed"
                        );
                    }
                });
            }
        });
        assert_eq!(cluster.proxy_client(p(0)).shared.waiting(), 0);
    }

    #[test]
    fn await_decision_sees_a_decision_made_before_or_during_the_call() {
        let cluster = cluster();
        let client = cluster.proxy_client(p(0));
        // Before: the commit has been published when the client returns,
        // and a zero timeout leaves only the cache to answer from.
        client.submit_and_wait(5, PROMPT).expect("p0 commits");
        assert_eq!(cluster.await_decision(0, p(0), WallDuration::ZERO), Some(5));
        // During: propose only once the call has registered its waiter.
        thread::scope(|s| {
            let waiting = s.spawn(|| cluster.await_decision(0, p(1), PROMPT));
            let start = Instant::now();
            while client.shared.waiting() == 0 {
                assert!(start.elapsed() < PROMPT, "await_decision never registered");
                thread::yield_now();
            }
            cluster.proxy_client(p(1)).propose(6);
            assert_eq!(waiting.join().unwrap(), Some(6));
        });
        assert_eq!(client.shared.waiting(), 0);
    }
}
