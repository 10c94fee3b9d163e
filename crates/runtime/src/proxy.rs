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

/// A closed-loop client of one proxy node — or, in a sharded cluster,
/// of one proxy node *per shard*.
///
/// Obtained from [`Cluster::proxy_client`](crate::Cluster::proxy_client)
/// or [`ShardedCluster::client`](crate::ShardedCluster::client). Each
/// in-flight [`ProxyClient::submit_and_wait`] registers a
/// `(shard, value)`-keyed waiter with the cluster router, so concurrent
/// clients (even on the same proxy) wait for their own commands
/// independently — the closed-loop pattern the throughput harness
/// drives — and the router's per-event cost stays O(1) in the number of
/// clients. The shard in the waiter key isolates groups: an identical
/// value committing in a different shard never wakes this client.
///
/// Clients identify their commands **by value**: submit values that are
/// unique per client (e.g. a key embedding the client id and a sequence
/// number) or [`ProxyClient::submit_and_wait`] may match another
/// client's identical command committing first. For measuring commit
/// latency that early match is harmless — some copy of the value
/// committed — but sequencing guarantees only hold for unique values.
pub struct ProxyClient<V> {
    /// Per-shard submission target: `(proxy node, its control channel)`,
    /// indexed by shard. Unsharded clients have exactly one entry.
    targets: Arc<Vec<(ProcessId, Sender<Control<V>>)>>,
    route: RouteFn<V>,
    shared: Arc<ClusterShared<V>>,
    obs: ObserverHandle,
}

impl<V: Value> ProxyClient<V> {
    /// A client whose command `v` goes to shard `route(v)`, proposed at
    /// (and awaited on) node `targets[route(v)].0`. An unsharded
    /// cluster's clients are the one-target case with route `|_| 0`.
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
    /// when the cluster is unsharded).
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
        let (token, rx) = self.shared.register_waiter(shard, value.clone(), *proxy);
        let _ = control.send(Control::ProposeAt(shard, value.clone()));
        match rx.recv_timeout(timeout) {
            Ok(_at) => {
                let latency = start.elapsed();
                let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
                self.obs.amortized_latency(*proxy, us);
                Some(latency)
            }
            Err(_) => {
                self.shared.deregister_waiter(shard, &value, token);
                None
            }
        }
    }
}
