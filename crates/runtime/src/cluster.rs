//! The decision state a deployment shares with its nodes and clients:
//! what each process has decided in each shard, and who waits on it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use twostep_types::judge::{self, Violation};
use twostep_types::{ProcessId, Value};

/// One blocked client; `token` names the registration for
/// [`ClusterShared::deregister_waiter`].
struct Waiter {
    token: u64,
    tx: Sender<()>,
}

/// Wakes every client of `list`, if there is one.
fn wake(list: Option<Vec<Waiter>>) {
    for w in list.into_iter().flatten() {
        let _ = w.tx.send(());
    }
}

/// What one process has decided in one shard, and who is waiting on it.
struct Slot<V> {
    /// The first decision: what waiters on it and latencies read.
    first: Option<(V, Instant)>,
    /// In a group that decides once, the first later decision unlike
    /// `first`: with the first decisions, all uniform Agreement needs.
    conflict: Option<V>,
    /// Clients blocked on one value committing here; `None` keys those
    /// waiting for whatever is decided first. One hash lookup per decide
    /// event, however many clients wait. A slot per shard keeps groups
    /// isolated: a value committing in shard `j` can never wake a waiter
    /// of shard `i ≠ j`, even when the values collide.
    waiters: HashMap<Option<V>, Vec<Waiter>>,
}

/// One process's slots, indexed by shard.
struct Row<V> {
    next_token: u64,
    slots: Vec<Slot<V>>,
}

/// Decision state shared between the cluster handle, its nodes and any
/// [`ProxyClient`](crate::ProxyClient)s: one lock per process, so node
/// `p`'s thread publishing a decide event meets only the clients of
/// proxy `p` on it. A one-group deployment is the one-shard case, with
/// all traffic on shard 0.
pub(crate) struct ClusterShared<V> {
    rows: Vec<Mutex<Row<V>>>,
    /// Whether the groups decide once, rather than apply a log whose
    /// Agreement is over each replica's first applied command.
    decide_once: bool,
}

impl<V: Value> ClusterShared<V> {
    /// Fresh shared state for `shards` consensus groups over `n` nodes.
    pub(crate) fn new(shards: usize, n: usize, decide_once: bool) -> Arc<Self> {
        let slot = |_| Slot {
            first: None,
            conflict: None,
            waiters: HashMap::new(),
        };
        let row = |_| {
            Mutex::new(Row {
                next_token: 0,
                slots: (0..shards).map(slot).collect(),
            })
        };
        Arc::new(ClusterShared {
            rows: (0..n).map(row).collect(),
            decide_once,
        })
    }

    /// Records that `p` decided `v` in `shard` at `at`, on the thread
    /// that stepped the deciding node: caches the first decision of
    /// `(shard, p)` and any first conflict with it, and wakes the clients
    /// waiting on it and on `v`.
    ///
    /// The waiters are taken out of the row under its lock and woken
    /// after it is released: a woken client's next move is
    /// [`ClusterShared::register_waiter`] on this same row, and a wake
    /// issued with the lock held sends it straight into the lock. No
    /// registration is lost by it — one made before the lock was taken
    /// is in the lists taken out, one made after is in the map for the
    /// next `publish`, and a timed-out owner that no longer finds its
    /// token has a wake-up on its way.
    pub(crate) fn publish(&self, p: ProcessId, shard: u32, v: V, at: Instant) {
        let (on_first, on_value) = {
            let mut row = self.rows[p.index()].lock();
            let Some(slot) = row.slots.get_mut(shard as usize) else {
                return; // a group this cluster does not deploy
            };
            let conflicts = |(first, _): &(V, Instant)| *first != v;
            if self.decide_once
                && slot.conflict.is_none()
                && slot.first.as_ref().is_some_and(conflicts)
            {
                slot.conflict = Some(v.clone());
            }
            let on_first = if slot.first.is_none() {
                slot.first = Some((v.clone(), at));
                slot.waiters.remove(&None)
            } else {
                None
            };
            // Nobody waits at a follower, and it publishes every command
            // it applies: do not hash the value to find that out.
            let on_value = if slot.waiters.is_empty() {
                None
            } else {
                slot.waiters.remove(&Some(v))
            };
            (on_first, on_value)
        };
        wake(on_first);
        wake(on_value);
    }

    /// Registers interest in `value` committing in `shard` at `proxy`
    /// (`None`: in `proxy`'s first decision there); the returned
    /// receiver yields when a later [`ClusterShared::publish`] brings
    /// it, and is closed from the start for a shard this cluster does
    /// not deploy. The token identifies this registration for
    /// [`ClusterShared::deregister_waiter`].
    pub(crate) fn register_waiter(
        &self,
        shard: u32,
        value: Option<V>,
        proxy: ProcessId,
    ) -> (u64, Receiver<()>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let mut row = self.rows[proxy.index()].lock();
        let token = row.next_token;
        row.next_token += 1;
        if let Some(slot) = row.slots.get_mut(shard as usize) {
            let list = slot.waiters.entry(value).or_default();
            list.push(Waiter { token, tx });
        }
        (token, rx)
    }

    /// Drops a registration that was not woken (a no-op if it was). The
    /// token alone names it: finding it is a scan of the slot's lists,
    /// paid on the timeout path only, so that the caller need not keep a
    /// copy of its value for the sake of this call.
    pub(crate) fn deregister_waiter(&self, shard: u32, proxy: ProcessId, token: u64) {
        let mut row = self.rows[proxy.index()].lock();
        let Some(slot) = row.slots.get_mut(shard as usize) else {
            return;
        };
        slot.waiters.retain(|_, list| {
            list.retain(|w| w.token != token);
            !list.is_empty()
        });
    }

    /// The first decision of `(shard, p)` observed so far.
    pub(crate) fn first_decision(&self, shard: u32, p: ProcessId) -> Option<(V, Instant)> {
        let row = self.rows[p.index()].lock();
        row.slots.get(shard as usize)?.first.clone()
    }

    /// Uniform Agreement in `shard`, judged over the first decisions and
    /// then the conflicts kept: exactly Agreement over every decide event
    /// in a group that decides once.
    pub(crate) fn shard_agreement(&self, shard: u32) -> Result<(), Violation<V>> {
        let (mut log, mut conflicts) = (Vec::new(), Vec::new());
        for (i, row) in self.rows.iter().enumerate() {
            let p = ProcessId::new(i as u32);
            let row = row.lock();
            let Some(slot) = row.slots.get(shard as usize) else {
                return Ok(()); // a group this cluster does not deploy
            };
            log.extend(slot.first.as_ref().map(|(v, _)| (p, v.clone())));
            conflicts.extend(slot.conflict.clone().map(|v| (p, v)));
        }
        log.append(&mut conflicts);
        judge::agreement(&log)
    }

    /// Registrations neither woken nor dropped, over all processes.
    #[cfg(test)]
    pub(crate) fn waiting(&self) -> usize {
        let of_row = |row: &Mutex<Row<V>>| -> usize {
            let slots = &row.lock().slots;
            let lists = slots.iter().flat_map(|slot| slot.waiters.values());
            lists.map(Vec::len).sum()
        };
        self.rows.iter().map(of_row).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterBuilder, ShardedCluster};
    use serde::{Deserialize, Serialize};
    use std::time::Duration as WallDuration;
    use twostep_types::protocol::{Effects, Protocol, TimerId};
    use twostep_types::{ProtocolKind, SystemConfig};

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

    /// Decides every proposal it is sent, however many: the re-decision
    /// a broken protocol would make.
    #[derive(Debug)]
    struct Echo(ProcessId);

    impl Protocol<u64> for Echo {
        type Message = Gossip;
        fn id(&self) -> ProcessId {
            self.0
        }
        fn on_start(&mut self, _: &mut Effects<u64, Gossip>) {}
        fn on_propose(&mut self, v: u64, eff: &mut Effects<u64, Gossip>) {
            eff.decide(v);
        }
        fn on_message(&mut self, _: ProcessId, _: Gossip, _: &mut Effects<u64, Gossip>) {}
        fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, Gossip>) {}
        fn decision(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn agreement_sees_a_conflicting_re_decision() {
        let cfg = SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 3, 1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg).build(Echo).expect("cluster build");
        let client = cluster.proxy_client(p(0));
        let timeout = WallDuration::from_secs(5);
        for v in [1, 2] {
            assert!(client.submit_and_wait(v, timeout).is_some());
        }
        assert_eq!(cluster.decision_of(0, p(0)), Some(1));
        assert!(!cluster.agreement());
        assert_eq!(
            cluster.shard_agreement(0),
            Err(Violation::Agreement {
                first: (p(0), 1),
                conflicting: (p(0), 2)
            })
        );
    }

    /// A three-`Relay` cluster over `builder`'s transport (Δ stays at
    /// the builder's 10ms default).
    fn relays(builder: ClusterBuilder) -> ShardedCluster<u64> {
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
        assert_eq!(cluster.shards(), 1);
        cluster.proxy_client(p(1)).propose(55);
        assert!(cluster.await_decisions(0, cfg.process_ids(), WallDuration::from_secs(5)));
        for i in 0..3 {
            assert_eq!(cluster.decision_of(0, p(i)), Some(55));
        }
        assert!(cluster.agreement());
        assert!(cluster.decision_latency(0, p(1)).is_some());
    }

    #[test]
    fn crash_is_silent() {
        let cfg = SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 3, 1, 1).unwrap();
        let mut cluster = relays(ClusterBuilder::new(cfg));
        cluster.crash(p(0));
        cluster.proxy_client(p(0)).propose(1); // swallowed
        assert_eq!(
            cluster.await_decision(0, p(1), WallDuration::from_millis(300)),
            None
        );
        cluster.proxy_client(p(1)).propose(2);
        assert_eq!(
            cluster.await_decision(0, p(2), WallDuration::from_secs(5)),
            Some(2)
        );
        assert_eq!(cluster.decision_of(0, p(0)), None);
    }

    /// `await_decisions` gives all of `who` one deadline: members that
    /// decide late leave a crashed one only what is left of it, so the
    /// call returns `false` after about `timeout`, not after the late
    /// members' wait plus a whole `timeout` of its own.
    #[test]
    fn await_decisions_shares_one_deadline() {
        let cfg = SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 3, 1, 1).unwrap();
        let mut cluster = relays(ClusterBuilder::new(cfg));
        cluster.crash(p(0));
        let timeout = WallDuration::from_millis(400);
        let client = cluster.proxy_client(p(1));
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(timeout * 3 / 4);
                client.propose(3);
            });
            let start = Instant::now();
            assert!(!cluster.await_decisions(0, [p(1), p(2), p(0)], timeout));
            let waited = start.elapsed();
            assert!(waited >= timeout, "gave up after {waited:?}");
            assert!(
                waited < timeout * 7 / 5,
                "waited {waited:?}: the crashed member got a deadline of its own"
            );
        });
        assert!(cluster.await_decisions(0, [p(1), p(2)], WallDuration::from_secs(5)));
        assert_eq!(cluster.decision_of(0, p(0)), None);
    }

    #[test]
    fn proxy_client_sees_own_proxy_decisions() {
        let cfg = SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 3, 1, 1).unwrap();
        let cluster = relays(ClusterBuilder::new(cfg));
        let client = cluster.proxy_client(p(1));
        let latency = client.submit_and_wait(61, WallDuration::from_secs(5));
        assert!(latency.is_some(), "client never saw its command commit");
        assert_eq!(cluster.decision_of(0, p(1)), Some(61));
    }

    // A slot per shard is what keeps groups isolated at the client
    // layer: colliding values in different shards must never wake each
    // other's waiters. Driven as a property over shard pairs, values and
    // proxies because the bug class (keying by value alone) only shows
    // when values collide across shards. `publish` wakes on the calling
    // thread, so every assertion reads a settled state.
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
                let shared: Arc<ClusterShared<u64>> = ClusterShared::new(4, 3, true);
                let at = p(proxy);
                let (_, rx_bystander) = shared.register_waiter(bystander, Some(value), at);
                let (_, rx_deciding) = shared.register_waiter(deciding, Some(value), at);
                shared.publish(at, deciding, value, Instant::now());
                prop_assert!(
                    rx_deciding.try_recv().is_ok(),
                    "waiter on the deciding shard was not woken"
                );
                prop_assert!(
                    rx_bystander.try_recv().is_err(),
                    "a decide in shard {deciding} woke a waiter registered under shard {bystander}"
                );
                // The bystander's registration is still live: a decide
                // in *its* shard reaches it.
                prop_assert_eq!(shared.waiting(), 1);
                shared.publish(at, bystander, value, Instant::now());
                prop_assert!(
                    rx_bystander.try_recv().is_ok(),
                    "bystander's registration was lost"
                );
                prop_assert_eq!(shared.waiting(), 0);
            }

            #[test]
            fn decides_only_wake_the_matching_proxy(
                shard in 0u32..4,
                value in any::<u64>(),
                deciding_proxy in 0u32..3,
                other_proxy in 0u32..3,
            ) {
                prop_assume!(deciding_proxy != other_proxy);
                let shared: Arc<ClusterShared<u64>> = ClusterShared::new(4, 3, true);
                let (_, rx_other) = shared.register_waiter(shard, Some(value), p(other_proxy));
                let (_, rx_deciding) =
                    shared.register_waiter(shard, Some(value), p(deciding_proxy));
                shared.publish(p(deciding_proxy), shard, value, Instant::now());
                prop_assert!(rx_deciding.try_recv().is_ok());
                prop_assert!(
                    rx_other.try_recv().is_err(),
                    "a decide at proxy {deciding_proxy} woke a waiter bound to proxy {other_proxy}"
                );
                prop_assert_eq!(shared.waiting(), 1);
            }
        }
    }

    // A slot keeps each process's first decision and, in a group that
    // decides once, its first conflicting one — not every decide event.
    // Driven as a property over small streams (three processes, three
    // values, so conflicts and re-decisions are common) because the
    // summary must judge exactly as the whole stream would.
    mod agreement_summary {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// The verdict on shard 0 after `stream` is published into it.
        fn judged(stream: &[(u32, u64)], decide_once: bool) -> Result<(), Violation<u64>> {
            let shared: Arc<ClusterShared<u64>> = ClusterShared::new(1, 3, decide_once);
            for &(q, v) in stream {
                shared.publish(p(q), 0, v, Instant::now());
            }
            shared.shard_agreement(0)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn a_decide_once_group_is_judged_on_every_decide_event(
                stream in vec((0u32..3, 0u64..3), 0..10),
            ) {
                let log: Vec<_> = stream.iter().map(|&(q, v)| (p(q), v)).collect();
                prop_assert_eq!(judged(&stream, true).is_ok(), judge::agreement(&log).is_ok());
            }

            #[test]
            fn a_log_is_judged_on_first_applied_commands(
                stream in vec((0u32..3, 0u64..3), 0..10),
            ) {
                let firsts: Vec<_> = (0..3)
                    .filter_map(|q| stream.iter().find(|(r, _)| *r == q))
                    .map(|&(q, v)| (p(q), v))
                    .collect();
                prop_assert_eq!(judged(&stream, false), judge::agreement(&firsts));
            }
        }
    }

    #[test]
    fn tcp_cluster_end_to_end() {
        let cfg = SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 3, 1, 1).unwrap();
        let cluster = relays(ClusterBuilder::new(cfg).tcp());
        cluster.proxy_client(p(2)).propose(77);
        assert!(cluster.await_decisions(0, cfg.process_ids(), WallDuration::from_secs(10)));
        assert!(cluster.agreement());
        assert_eq!(cluster.decision_of(0, p(0)), Some(77));
    }
}
