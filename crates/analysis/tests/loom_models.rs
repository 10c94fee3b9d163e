//! Exhaustive-interleaving models of the workspace's lock-free-ish hot
//! spots, checked with the vendored `loom` scheduler
//! (`cargo test -p twostep-analysis --features loom`).
//!
//! These are *extracted models*: the decision structure of the real
//! code re-expressed over `loom` primitives, because the originals are
//! welded to `parking_lot` / `std::thread::park` / a thread that owns
//! its state outright, which the model scheduler cannot drive or has
//! nothing to interleave. Each model documents, line by line, which
//! real code path it mirrors; if the real code changes shape, change
//! the model.
#![cfg(feature = "loom")]

use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;

/// Model of `twostep_telemetry::ObserverHandle` attach/detach racing
/// with recording (`crates/telemetry/src/observer.rs`).
///
/// The handle is `Clone` around an `Arc<dyn ProtocolObserver>`; node
/// threads record through their own clones while the owner may drop or
/// detach its handle at any time. The property: a record made through
/// any clone is never lost and never touches a freed observer —
/// ownership, not the detach, controls the observer's lifetime.
#[test]
fn observer_clone_outlives_detach() {
    loom::model(|| {
        // The observer: just a counter of hook invocations.
        let observer = Arc::new(AtomicUsize::new(0));

        // ObserverHandle::new + .clone() handed to a node thread.
        let handle: Option<Arc<AtomicUsize>> = Some(Arc::clone(&observer));
        let node_handle = handle.clone();

        let node = thread::spawn(move || {
            // ObserverHandle::decided + ::recovery_case on the node
            // thread: `if let Some(o) = &self.0 { o.hook(...) }`.
            if let Some(o) = &node_handle {
                o.fetch_add(1, Ordering::SeqCst);
            }
            if let Some(o) = &node_handle {
                o.fetch_add(1, Ordering::SeqCst);
            }
        });

        // Owner detaches (drops its handle) concurrently with the
        // node's recording.
        drop(handle);

        node.join().unwrap();
        // Both records landed: the node's clone kept the observer
        // alive, and no interleaving of the drop can lose an update.
        assert_eq!(observer.load(Ordering::SeqCst), 2);
    });
}

/// Model of a shared observer *registry* being swapped to detached
/// while recorders hold the lock — the pattern used when an engine
/// re-wires telemetry mid-run. Recorders clone the `Arc` out of the
/// registry under the lock and record outside it; the detacher `take`s
/// the slot. The property: every record made through a clone acquired
/// before the detach is counted, and no recorder ever observes a
/// half-detached state.
#[test]
fn observer_registry_swap_is_atomic() {
    loom::model(|| {
        let observer = Arc::new(AtomicUsize::new(0));
        let registry = Arc::new(Mutex::new(Some(Arc::clone(&observer))));

        let recorders: Vec<_> = (0..2)
            .map(|_| {
                let registry = Arc::clone(&registry);
                thread::spawn(move || {
                    // Clone out under the lock, record outside it.
                    let snapshot = registry.lock().unwrap().clone();
                    match snapshot {
                        Some(o) => {
                            o.fetch_add(1, Ordering::SeqCst);
                            1usize
                        }
                        None => 0,
                    }
                })
            })
            .collect();

        let detacher = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let taken = registry.lock().unwrap().take();
                taken.is_some()
            })
        };

        let recorded: usize = recorders.into_iter().map(|r| r.join().unwrap()).sum();
        let detached = detacher.join().unwrap();

        // The detacher saw the attached observer exactly once.
        assert!(detached, "registry was attached at the start");
        // Count integrity: records through pre-detach clones all
        // landed; recorders that lost the race saw a clean `None`.
        assert_eq!(observer.load(Ordering::SeqCst), recorded);
        assert!(recorded <= 2);
        // Afterwards the registry is stably detached.
        assert!(registry.lock().unwrap().is_none());
    });
}

/// Model of the socket backends' retry-once rule: `Outgoing::flush` in
/// `crates/runtime/src/wire.rs`, the one copy that `TcpTransport`'s
/// writer threads and the `ReactorTransport` event loop both run.
///
/// Real shape: each destination has one `Outgoing` — send queue, frame
/// in flight, cached connection — *exclusively owned* by one thread (the
/// blocking backend's writer thread for that destination, or the
/// reactor thread); `send` only enqueues, so no two threads ever race
/// on a connection. `flush` lazily dials, writes a coalesced frame, and
/// on a failure drops the dead connection, returns `Flushed::Backoff`,
/// and on the next call redials once before declaring the frame
/// dropped. Who waits between the two calls (`thread::sleep`, or a
/// timer on the reactor's heap) is the only part the backends own.
///
/// The model: connection ids from a generation counter; generation 0
/// is the pre-established stale connection whose writes always fail,
/// every redial yields a working one. Two threads flush concurrently
/// through one shared slot — deliberately *more* concurrent than the
/// production single-owner discipline, so the bookkeeping is shown
/// sound even without the exclusive-ownership guarantee (and stays
/// sound if a future change reintroduces sharing, the shape this code
/// originally had).
///
/// Checked properties, over every interleaving:
/// * no message is dropped — the single redial always suffices because
///   a fresh dial is never stale;
/// * an unconditional slot-clear on failure is harmless: it costs an
///   extra dial, never a delivery;
/// * the slot ends attached to a *working* connection (the stale
///   generation cannot survive a failed flush).
#[test]
fn transport_retry_never_drops_and_heals_the_slot() {
    struct Net {
        /// `Outgoing::conn`: cached connection generation.
        slot: Mutex<Option<u32>>,
        /// Dial generation counter; `fetch_add` in `connection_to`.
        next_conn: AtomicU32,
        reconnects: AtomicUsize,
        drops: AtomicUsize,
        delivered: AtomicUsize,
    }

    impl Net {
        /// `flush`'s lazy dial (`if self.conn.is_none() { self.conn =
        /// dial().ok() }`): reuse the cached connection or dial into
        /// the empty slot.
        fn connection_to(&self) -> u32 {
            let mut slot = self.slot.lock().unwrap();
            if slot.is_none() {
                *slot = Some(self.next_conn.fetch_add(1, Ordering::SeqCst));
            }
            slot.unwrap()
        }

        /// One pass of `flush`'s loop, the frame write: generation 0
        /// (the stale pre-established stream) fails, and failure clears
        /// the slot unconditionally (`self.conn = None`).
        fn try_send_frame(&self) -> bool {
            let conn = self.connection_to();
            let write_ok = conn != 0;
            if !write_ok {
                *self.slot.lock().unwrap() = None;
            }
            write_ok
        }

        /// One frame's life across `flush` calls: a failed attempt, the
        /// wait `Flushed::Backoff` asks for, one redial-and-retry, then
        /// `reconnected` or `message_dropped`.
        fn send(&self) {
            if self.try_send_frame() {
                self.delivered.fetch_add(1, Ordering::SeqCst);
                return;
            }
            // (The caller waits out RECONNECT_BACKOFF here; a model
            // yield stands in for the scheduling opportunity.)
            thread::yield_now();
            if self.try_send_frame() {
                self.reconnects.fetch_add(1, Ordering::SeqCst);
                self.delivered.fetch_add(1, Ordering::SeqCst);
            } else {
                self.drops.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    loom::model(|| {
        let net = Arc::new(Net {
            // The peer restarted: the cached generation-0 connection is
            // stale and every write on it will fail.
            slot: Mutex::new(Some(0)),
            next_conn: AtomicU32::new(1),
            reconnects: AtomicUsize::new(0),
            drops: AtomicUsize::new(0),
            delivered: AtomicUsize::new(0),
        });

        let senders: Vec<_> = (0..2)
            .map(|_| {
                let net = Arc::clone(&net);
                thread::spawn(move || net.send())
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }

        let delivered = net.delivered.load(Ordering::SeqCst);
        let drops = net.drops.load(Ordering::SeqCst);
        let reconnects = net.reconnects.load(Ordering::SeqCst);

        // Crash-stop bookkeeping: both messages make it, the bounded
        // retry is actually sufficient.
        assert_eq!(delivered, 2, "a send was lost");
        assert_eq!(drops, 0, "the single retry must absorb a stale connection");
        // At least one sender hit the stale connection and reconnected;
        // both may have, depending on who cloned generation 0.
        assert!((1..=2).contains(&reconnects), "reconnects = {reconnects}");
        // The slot healed: whatever got clobbered along the way, the
        // final cached connection is a working one.
        let final_slot = *net.slot.lock().unwrap();
        assert!(
            matches!(final_slot, Some(c) if c > 0),
            "slot must end on a live connection, got {final_slot:?}"
        );
    });
}

/// Model of the reactor transport's `Doorbell` park/wake handoff
/// (`crates/runtime/src/reactor.rs`).
///
/// Real shape: the reactor thread publishes `sleeping = true`
/// (`Doorbell::sleeping`), *then* rechecks the command channel, and
/// only calls `park_timeout` if it is empty; a sender enqueues a
/// command, *then* `swap`s `sleeping` to false and unparks the reactor
/// thread on observing `true` (`Doorbell::ring`). The claimed
/// invariant, quoted from the doorbell's doc comment: *either the
/// sender observes `sleeping` (and unparks) or the reactor's recheck
/// observes the enqueued command — a command can never be stranded
/// behind a full park.*
///
/// The model collapses one reactor park decision plus two concurrent
/// ringers onto loom primitives. Parking itself is not simulated
/// (vendored loom has no park/unpark); instead the model checks the
/// invariant that makes the real park safe, over every interleaving:
///
/// * if the reactor commits to parking, every command was enqueued
///   after its recheck, so the first ring to run finds `sleeping ==
///   true`, clears it, and unparks — the flag cannot still be set once
///   the senders are done (`sleeping` high after a park with pending
///   work ⇒ the reactor would sleep its full timeout ⇒ lost wakeup);
/// * if the reactor skips the park, its pre-park drain saw the
///   commands, and nothing relies on the ring at all.
///
/// Flipping the publish/recheck order in the model (recheck first,
/// `sleeping.store(true)` second) makes loom find the classic lost
/// wakeup: both senders push and swap a still-false flag, then the
/// reactor publishes, rechecks nothing — schedule `recheck → push →
/// ring → publish → park` strands both commands behind the park.
#[test]
fn reactor_doorbell_never_loses_a_wakeup() {
    struct Doorbell {
        /// `Doorbell::sleeping`.
        sleeping: AtomicBool,
        /// The command channel (`Reactor::cmds`), as a mutexed queue.
        queue: Mutex<Vec<u32>>,
    }

    loom::model(|| {
        let bell = Arc::new(Doorbell {
            sleeping: AtomicBool::new(false),
            queue: Mutex::new(Vec::new()),
        });

        // The reactor's `park()`: publish the sleeping flag, recheck
        // the channel, park only if it is empty. A skipped park lowers
        // the flag and drains (the next loop iteration's `drain_cmds`,
        // folded into the recheck's critical section to keep the
        // schedule tree small); a taken park leaves the flag for
        // `ring` to clear — in the real code the thread is inside
        // `park_timeout` at that point and only an unpark ends the
        // wait promptly. Returns `(parked, drained)`.
        let reactor = {
            let bell = Arc::clone(&bell);
            thread::spawn(move || {
                bell.sleeping.store(true, Ordering::Release);
                let drained = {
                    let mut q = bell.queue.lock().unwrap();
                    if q.is_empty() {
                        return (true, 0); // parked
                    }
                    q.drain(..).count()
                };
                bell.sleeping.store(false, Ordering::Release);
                (false, drained)
            })
        };

        // Two transport handles racing `send` + `ring`; each returns
        // whether its swap observed the sleeping flag (= unpark sent).
        let senders: Vec<_> = (0..2u32)
            .map(|i| {
                let bell = Arc::clone(&bell);
                thread::spawn(move || {
                    bell.queue.lock().unwrap().push(i);
                    bell.sleeping.swap(false, Ordering::AcqRel)
                })
            })
            .collect();

        let (parked, drained) = reactor.join().unwrap();
        let woke = senders
            .into_iter()
            .map(|s| s.join().unwrap())
            .filter(|&w| w)
            .count();

        let pending = bell.queue.lock().unwrap().len();
        // No command evaporates: it is either drained pre-park or still
        // queued for the woken reactor's next iteration.
        assert_eq!(drained + pending, 2, "a command was lost outright");
        if parked {
            // The reactor parked, so both commands arrived after its
            // recheck — the ring protocol must have fired: the flag is
            // down and at least one unpark was delivered. A high flag
            // here is the lost wakeup (nobody will unpark; the queue
            // sits until the poll timeout).
            assert!(
                !bell.sleeping.load(Ordering::Acquire),
                "parked with the sleeping flag still set and {pending} commands pending"
            );
            assert!(woke >= 1, "parked, yet no ring observed the sleeping flag");
        } else {
            // Park skipped: the recheck (or the publish racing ahead of
            // a ring) saw the traffic; the pre-park drain got
            // everything that was in by then.
            assert!(drained >= 1, "skipped the park without seeing a command");
        }
    });
}

/// Model of the vendored channel's register-then-park handoff
/// (`vendor/crossbeam/src/lib.rs`), the one wait under `select!`,
/// `recv` and `recv_timeout` — and so under the node loop, the cluster
/// router, `submit_and_wait` and the delay line.
///
/// Real shape: a receiver locks the channel state, pops; finding the
/// queue empty it pushes its `Thread` onto `waiters` *before releasing
/// the lock* (`Shared::poll`), and only then parks (`__wait`). A sender
/// locks, pushes its message, drains `waiters`, unlocks, and unparks
/// every thread it drained (`Shared::wake`). The claimed invariant,
/// from the stub's header: *a sender either pushed before the receiver
/// looked, and the receiver sees the message, or locks after it, and
/// finds the registration.*
///
/// The model is one receiver's park decision against two concurrent
/// senders. As in the doorbell model parking itself is not simulated;
/// what is checked, over every interleaving, is what makes the park
/// safe:
///
/// * if the receiver commits to parking, its queue was empty and its
///   registration in place within one critical section, so the first
///   sender to lock after it drains that registration and owes it an
///   unpark (`unpark` before `park` is not lost either: the token
///   makes the park return at once) — a parked receiver with a message
///   queued and nobody holding its registration is the lost wake-up;
/// * if it does not park, it popped a message, and registered nowhere.
///
/// Flipping the order in the model (unlock after the empty check,
/// lock again to register) makes loom find it: schedule `check empty →
/// push, drain nothing → push, drain nothing → register → park` leaves
/// both messages behind a registration no sender will ever see.
#[test]
fn channel_handoff_never_loses_a_wakeup() {
    /// `State` in the stub: the queue and the registered waiters (one
    /// receiver here, so a registration is its id, `0`).
    #[derive(Default)]
    struct State {
        queue: Vec<u32>,
        waiters: Vec<u32>,
    }

    loom::model(|| {
        let state = Arc::new(Mutex::new(State::default()));

        // `Shared::poll(Some(me))`, then `__wait`'s decision: a message
        // ends the wait; `Empty` leaves the registration behind and
        // parks. Returns `(parked, popped)`.
        let receiver = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                let mut s = state.lock().unwrap();
                if s.queue.is_empty() {
                    s.waiters.push(0);
                    (true, 0) // parked
                } else {
                    s.queue.remove(0);
                    (false, 1)
                }
            })
        };

        // Two `Sender::send`s: push and drain the registrations in one
        // critical section; each returns how many unparks it owes.
        let senders: Vec<_> = (0..2u32)
            .map(|i| {
                let state = Arc::clone(&state);
                thread::spawn(move || {
                    let mut s = state.lock().unwrap();
                    s.queue.push(i);
                    s.waiters.drain(..).count()
                })
            })
            .collect();

        let (parked, popped) = receiver.join().unwrap();
        let unparks: usize = senders.into_iter().map(|s| s.join().unwrap()).sum();

        let s = state.lock().unwrap();
        // No message evaporates: popped, or queued for the next poll.
        assert_eq!(popped + s.queue.len(), 2, "a message was lost outright");
        if parked {
            // Both senders locked after the receiver: the first drained
            // its registration, exactly once, and nothing stale is left
            // for a later send to wake a thread that has moved on.
            assert_eq!(
                unparks, 1,
                "parked with 2 messages queued and {unparks} unparks"
            );
            assert!(s.waiters.is_empty(), "a drained registration came back");
        } else {
            // It saw a message, so it never registered: no sender owes
            // it anything.
            assert_eq!(unparks, 0, "an unpark for a receiver that never waited");
            assert!(s.waiters.is_empty());
        }
    });
}

/// Model of the decision registry's wake-up
/// (`ClusterShared::{register_waiter, publish, deregister_waiter}` in
/// `crates/runtime/src/cluster.rs`) under `ProxyClient::submit_and_wait`.
///
/// Real shape: a client locks its proxy's row, pushes a `Waiter` onto
/// the list keyed by its value, unlocks, and only then sends the
/// command to the node (register-then-propose). The node's thread, on
/// deciding that value, locks the row, *removes the whole list from the
/// map*, unlocks, and then wakes every waiter in the list it now owns.
/// A client whose wait times out locks the row, removes its own token
/// if it is still there, and unlocks. Waking outside the lock is what
/// lets a woken client's next `register_waiter` proceed instead of
/// running into the lock its waker still holds; the claimed invariant
/// is that nothing is lost by it: *under the lock a registration is in
/// exactly one place — the map, where its owner and the next publish
/// can find it, or a list a publisher has taken and will wake.*
///
/// The model is one row and one key. Client A registers token 0,
/// proposes — which is what causes the publish, so the node's thread
/// is spawned by it — and then times out at once, so its deregister
/// races the publish. Client B registers token 1 for the same value
/// (clients are told apart by value; two may submit the same one) at
/// any point, and waits. Over every interleaving:
///
/// * A's registration is woken exactly once or removed by A, never
///   both and never neither: the two outcomes `submit_and_wait` can
///   report, each once;
/// * B's registration is woken exactly once or still in the map for
///   the publish of its own command to find — never dropped unwoken,
///   the lost waiter.
///
/// Flipping the order in the model — wake the list while it is still
/// reachable from the map, remove it in a second critical section,
/// which is what waking outside the lock *without* taking the list out
/// would amount to — makes loom find both failures: `lock, wake 0,
/// unlock → A deregisters token 0 → remove` reports A as timed out and
/// woken, and `lock, wake 0, unlock → B registers → remove` drops
/// token 1 from the map with no wake-up.
#[test]
fn publish_wakes_after_unlocking_and_loses_no_waiter() {
    /// `Slot::waiters` for one value: `None` is "no entry in the map".
    type Entry = Mutex<Option<Vec<usize>>>;

    /// `register_waiter`: one critical section.
    fn register(entry: &Entry, token: usize) {
        let mut e = entry.lock().unwrap();
        e.get_or_insert_with(Vec::new).push(token);
    }

    loom::model(|| {
        let entry: Arc<Entry> = Arc::new(Mutex::new(None));
        let woken = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);

        let client_a = {
            let (entry, woken) = (Arc::clone(&entry), Arc::clone(&woken));
            thread::spawn(move || {
                register(&entry, 0);
                // `control.send(ProposeAt(..))`: the node decides and
                // calls `publish` on its own thread.
                let node = {
                    let entry = Arc::clone(&entry);
                    thread::spawn(move || {
                        // Take the list out under the lock ...
                        let taken = entry.lock().unwrap().take();
                        // ... and wake it after releasing it.
                        for token in taken.into_iter().flatten() {
                            woken[token].fetch_add(1, Ordering::SeqCst);
                        }
                    })
                };
                // `recv_timeout` gave up: `deregister_waiter`.
                let removed = {
                    let mut e = entry.lock().unwrap();
                    let list = e.take().unwrap_or_default();
                    let kept: Vec<usize> = list.iter().copied().filter(|&t| t != 0).collect();
                    let removed = list.len() - kept.len();
                    *e = Some(kept).filter(|kept| !kept.is_empty());
                    removed
                };
                node.join().unwrap();
                removed
            })
        };

        let client_b = {
            let entry = Arc::clone(&entry);
            thread::spawn(move || register(&entry, 1))
        };

        let removed_by_a = client_a.join().unwrap();
        client_b.join().unwrap();

        let left = entry.lock().unwrap().clone().unwrap_or_default();
        let woke = |t: usize| woken[t].load(Ordering::SeqCst);
        assert_eq!(
            woke(0) + removed_by_a,
            1,
            "token 0 was woken {} times and removed {removed_by_a} times",
            woke(0)
        );
        assert!(!left.contains(&0), "token 0 outlived its owner's call");
        let waiting = left.iter().filter(|&&t| t == 1).count();
        assert_eq!(
            woke(1) + waiting,
            1,
            "token 1 was woken {} times and is in the map {waiting} times",
            woke(1)
        );
    });
}

/// How the writer thread of [`inline_send_handover`] accounts for a
/// burst it was sent.
#[derive(Clone, Copy, PartialEq)]
enum Lowers {
    /// `queued` falls once the burst is in the send state, under the
    /// connection lock: the real order.
    OncePushed,
    /// `queued` falls when the burst comes off the channel — what
    /// gating the inline path on "the channel is empty" amounts to.
    WhenTaken,
}

/// The blocking TCP backend's hand-over between a sender that writes
/// from its own thread and the destination's writer thread
/// (`TcpTransport::send_many`, `writer_loop` and `LinkState` in
/// `crates/runtime/src/transport.rs`), as one function so that the real
/// order and the broken one below run the same code.
///
/// Real shape: `LinkState::out` is the send state (`Outgoing`: queue,
/// frame in flight, connection) behind a mutex that means *who owns the
/// connection*. A sender `try_lock`s it; holding it, with the send state
/// idle and `LinkState::queued == 0`, it pushes its burst and flushes on
/// its own thread. If the socket takes only part (`Flushed::Full`) the
/// rest stays in the send state, the sender unlocks and sends the writer
/// `Job::Resume`. A sender that lost the `try_lock`, or found anything
/// ahead of it, raises `queued` and sends `Job::Burst`. The writer
/// blocks in `recv` on its job channel; woken, it locks (blocking),
/// pushes the burst and lowers `queued`, drains `try_recv`, flushes with
/// a blocking socket until nothing is left, unlocks, and goes back to
/// `recv`.
///
/// The model: the send state is `kept` (pushed, not yet written) and
/// `wire` (written, in order). The job channel is a mutexed queue plus
/// the receiver's registration, `parked` — register-then-park, the
/// handoff `channel_handoff_never_loses_a_wakeup` checks; a `send` that
/// finds the registration takes it and owes the unpark. As in the models
/// above parking itself is not simulated: a writer that parks ends its
/// thread, and once the sender is done the model runs an owed unpark to
/// the end on its own. To keep the schedule tree small the `try_recv`
/// drain is one critical section (a job pushed between two pops is a
/// job pushed before the first), and `queued` is the difference of two
/// counters, `raised` by senders and `lowered` by the writer: the real
/// writer lowers only while it holds `out` and senders read only while
/// they hold it, so `lowered` needs no scheduling point of its own.
///
/// One sender sends payloads `0..sends.len()` in order, `sends[i]`
/// saying what the socket does if payload `i` is written from the
/// sender's thread (`true`: full, the hand-over). It races a writer
/// that has just been woken and is about to lock: by a `Job::Resume`
/// that will find nothing to do, or — `behind_a_burst` — by the burst
/// of a second sender that lost its `try_lock` and enqueued payload
/// `OTHER`, received and not yet pushed. So the sender meets a writer
/// that holds the connection, one that is parked, and one with a burst
/// in its hands. Over every interleaving:
///
/// * a parked writer with a job on its channel or anything kept in the
///   send state is owed an unpark — it is never left asleep with work
///   queued;
/// * every payload is on the wire exactly once, the sender's in the
///   order it sent them, with `queued` back at 0.
fn inline_send_handover(lowers: Lowers, behind_a_burst: bool, sends: &'static [bool]) {
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicUsize as Unscheduled;

    const OTHER: usize = 99;

    enum Job {
        Burst(usize),
        Resume,
    }

    /// `Outgoing`, reduced to what is pushed and what is written.
    #[derive(Default)]
    struct Out {
        kept: Vec<usize>,
        wire: Vec<usize>,
    }

    #[derive(Default)]
    struct Chan {
        jobs: VecDeque<Job>,
        parked: bool,
        unparks_owed: usize,
    }

    struct Link {
        out: Mutex<Out>,
        raised: AtomicUsize,
        lowered: Unscheduled,
        chan: Mutex<Chan>,
        lowers: Lowers,
    }

    impl Link {
        fn queued(&self) -> usize {
            self.raised.load(Ordering::SeqCst) - self.lowered.load(Ordering::SeqCst)
        }

        /// `Sender::send` on the job channel: push, and take the
        /// writer's registration if it left one.
        fn enqueue(&self, job: Job) {
            let mut chan = self.chan.lock().unwrap();
            chan.jobs.push_back(job);
            chan.unparks_owed += usize::from(std::mem::take(&mut chan.parked));
        }

        /// Lowers `queued` by the bursts among `jobs`, if this is when.
        fn lower(&self, when: Lowers, jobs: &[Job]) {
            let bursts = jobs.iter().filter(|j| matches!(j, Job::Burst(_))).count();
            if self.lowers == when {
                self.lowered.fetch_add(bursts, Ordering::SeqCst);
            }
        }

        /// `rx.recv()`, which registers and parks on empty (`None`), or
        /// the `rx.try_recv()` drain.
        fn next_jobs(&self, recv: bool) -> Option<Vec<Job>> {
            let mut chan = self.chan.lock().unwrap();
            let jobs: Vec<Job> = if recv {
                chan.jobs.pop_front().into_iter().collect()
            } else {
                chan.jobs.drain(..).collect()
            };
            chan.parked = recv && jobs.is_empty();
            self.lower(Lowers::WhenTaken, &jobs);
            (!chan.parked).then_some(jobs)
        }

        /// `writer_loop`, entered with `received` just off the channel,
        /// until it parks.
        fn writer(&self, mut received: Vec<Job>) {
            loop {
                let mut out = self.out.lock().unwrap();
                // `take`, then the drain: bursts join the send state
                // and stop counting as on their way there.
                received.extend(self.next_jobs(false).expect("try_recv never parks"));
                self.lower(Lowers::OncePushed, &received);
                for job in received {
                    if let Job::Burst(payload) = job {
                        out.kept.push(payload);
                    }
                }
                // A blocking socket takes everything: `Flushed::Drained`.
                let Out { kept, wire } = &mut *out;
                wire.append(kept);
                drop(out);
                match self.next_jobs(true) {
                    Some(jobs) => received = jobs,
                    None => return,
                }
            }
        }

        /// `TcpTransport::send_many` for one payload.
        fn send(&self, payload: usize, full: bool) {
            if let Ok(mut out) = self.out.try_lock() {
                if out.kept.is_empty() && self.queued() == 0 {
                    if !full {
                        out.wire.push(payload);
                        return;
                    }
                    // `Flushed::Full`: the rest is kept, the lock let
                    // go, the writer told.
                    out.kept.push(payload);
                    drop(out);
                    return self.enqueue(Job::Resume);
                }
            }
            self.raised.fetch_add(1, Ordering::SeqCst);
            self.enqueue(Job::Burst(payload));
        }
    }

    loom::model(move || {
        let link = Arc::new(Link {
            out: Mutex::new(Out::default()),
            raised: AtomicUsize::new(usize::from(behind_a_burst)),
            // The burst in the writer's hands is off the channel.
            lowered: Unscheduled::new(usize::from(behind_a_burst && lowers == Lowers::WhenTaken)),
            chan: Mutex::new(Chan::default()),
            lowers,
        });

        let writer = {
            let link = Arc::clone(&link);
            let woken_by = if behind_a_burst {
                Job::Burst(OTHER)
            } else {
                Job::Resume
            };
            thread::spawn(move || link.writer(vec![woken_by]))
        };
        for (payload, &full) in sends.iter().enumerate() {
            link.send(payload, full);
        }
        writer.join().unwrap();

        // The writer has parked. Whatever is left is its to do, and it
        // has to have been woken for it.
        let (left, owed) = {
            let chan = link.chan.lock().unwrap();
            (chan.jobs.len(), chan.unparks_owed)
        };
        let kept = link.out.lock().unwrap().kept.len();
        assert!(
            owed > 0 || (left == 0 && kept == 0),
            "asleep with {left} jobs queued and {kept} payloads kept"
        );
        if owed > 0 {
            let woken_by = link.next_jobs(true).expect("an unpark is owed for a job");
            link.writer(woken_by);
        }

        let wire = link.out.lock().unwrap().wire.clone();
        let sent = sends.len() + usize::from(behind_a_burst);
        assert_eq!(wire.len(), sent, "stranded or written twice: {wire:?}");
        assert_eq!(wire.contains(&OTHER), behind_a_burst, "{wire:?}");
        assert!(
            wire.iter()
                .filter(|&&w| w != OTHER)
                .copied()
                .eq(0..sends.len()),
            "the sender's payloads are out of order: {wire:?}"
        );
        assert_eq!(link.queued(), 0);
    });
}

/// The hand-over as `crates/runtime/src/transport.rs` makes it (see
/// [`inline_send_handover`]): a sender whose first inline write finds
/// the socket full and whose second must not pass it, against a writer
/// woken for nothing and against one woken by a second sender's burst;
/// and a hand-over with no later send to come to its rescue.
#[test]
fn inline_send_handover_never_strands_a_payload() {
    inline_send_handover(Lowers::OncePushed, false, &[true, false]);
    inline_send_handover(Lowers::OncePushed, true, &[true, false]);
    inline_send_handover(Lowers::OncePushed, true, &[true]);
}

/// The broken order, kept running so that the model is known to be able
/// to fail: lower `queued` when the burst is *taken off the channel*
/// rather than once it is in the send state. Between the writer's `recv`
/// and its `lock` the burst is nowhere a sender can see, so the schedule
/// `payload 0 loses try_lock to the writer and is enqueued → the writer
/// unlocks, receives it, queued = 0 → payload 1: try_lock, idle,
/// queued == 0, written → the writer locks and writes payload 0` puts
/// the sender's second payload ahead of its first.
#[test]
#[should_panic(expected = "out of order")]
fn inline_send_handover_counts_a_burst_until_it_is_pushed() {
    inline_send_handover(Lowers::WhenTaken, false, &[true, false]);
}

/// Where [`reader_step`] raises and lowers a link's inbox count.
#[derive(Clone, Copy, PartialEq)]
enum Counts {
    /// Raised before the frame is enqueued, and lowered under the node's
    /// lock once the node thread has stepped it: the real order.
    Real,
    /// Lowered as the node thread pops the frame, before it locks.
    LowerAtPop,
    /// Raised after the frame is enqueued.
    RaiseAfterEnqueue,
}

/// A blocking-TCP reader that steps its node on its own thread when the
/// node is free, against the node thread stepping the frames that found
/// it busy (`Readers::deliver` in `crates/runtime/src/transport.rs`,
/// `Node::try_step` and the node loop in `crates/runtime/src/node.rs`),
/// as one function so that the real order and the broken ones below run
/// the same code.
///
/// Real shape: the node's step state is behind a mutex that means *who
/// steps this node now*. The reader of one link, with a whole frame,
/// `try_lock`s it; holding it, with the node not stopped and the link's
/// count `Readers::in_inbox` at 0, it steps the frame. Otherwise it
/// raises the count and enqueues the frame. The node thread pops a frame
/// from the inbox, locks (blocking), steps it, lowers the count, and
/// unlocks.
///
/// The model: the steps taken are the mutex's contents, the inbox a
/// mutexed queue. The reader delivers frames `0..FRAMES` in order; it
/// starts as the node thread is busy — holding the lock, as for a client
/// submission — so that its first frame goes to the inbox. The node
/// thread lets go, then takes `FRAMES` turns, each a pop that may find
/// nothing; once the reader is done, the node thread's later wake-ups
/// step whatever is left (the inbox's wake-up is the channel's own,
/// `channel_handoff_never_loses_a_wakeup`). Over every interleaving:
///
/// * the count never goes below zero — every frame the node thread
///   steps was counted before it could be popped;
/// * every frame is stepped exactly once and in order, with the count
///   back at 0.
fn reader_step(counts: Counts) {
    use std::collections::VecDeque;

    const FRAMES: usize = 3;

    struct Node {
        steps: Mutex<Vec<usize>>,
        in_inbox: AtomicUsize,
        inbox: Mutex<VecDeque<usize>>,
        counts: Counts,
    }

    impl Node {
        fn lower(&self) {
            let before = self.in_inbox.fetch_sub(1, Ordering::SeqCst);
            assert!(before > 0, "a frame was stepped before it was counted");
        }

        fn raise(&self) {
            self.in_inbox.fetch_add(1, Ordering::SeqCst);
        }

        fn enqueue(&self, frame: usize) {
            self.inbox.lock().unwrap().push_back(frame);
        }

        /// `Readers::deliver` for one frame.
        fn deliver(&self, frame: usize) {
            if let Ok(mut steps) = self.steps.try_lock() {
                if self.in_inbox.load(Ordering::SeqCst) == 0 {
                    steps.push(frame);
                    return;
                }
            }
            if self.counts == Counts::RaiseAfterEnqueue {
                self.enqueue(frame);
                self.raise();
            } else {
                self.raise();
                self.enqueue(frame);
            }
        }

        /// One turn of the node loop: pop, and if there was a frame,
        /// lock, step it and lower the count.
        fn turn(&self) {
            let Some(frame) = self.inbox.lock().unwrap().pop_front() else {
                return;
            };
            if self.counts == Counts::LowerAtPop {
                self.lower();
            }
            let mut steps = self.steps.lock().unwrap();
            steps.push(frame);
            if self.counts != Counts::LowerAtPop {
                self.lower();
            }
        }
    }

    loom::model(move || {
        let node = Arc::new(Node {
            steps: Mutex::new(Vec::new()),
            in_inbox: AtomicUsize::new(0),
            inbox: Mutex::new(VecDeque::new()),
            counts,
        });

        let busy = node.steps.lock().unwrap();
        let reader = {
            let node = Arc::clone(&node);
            thread::spawn(move || (0..FRAMES).for_each(|frame| node.deliver(frame)))
        };
        drop(busy);
        for _ in 0..FRAMES {
            node.turn();
        }
        reader.join().unwrap();
        while !node.inbox.lock().unwrap().is_empty() {
            node.turn();
        }

        let steps = node.steps.lock().unwrap().clone();
        assert_eq!(steps.len(), FRAMES, "stranded or stepped twice: {steps:?}");
        assert!(
            steps.iter().copied().eq(0..FRAMES),
            "the link's frames were stepped out of order: {steps:?}"
        );
        assert_eq!(node.in_inbox.load(Ordering::SeqCst), 0);
    });
}

/// The reader-step hand-over as `crates/runtime/src/{transport,node}.rs`
/// make it (see [`reader_step`]).
#[test]
fn reader_step_keeps_link_order() {
    reader_step(Counts::Real);
}

/// The first broken order, kept running so that the model is known to be
/// able to fail: lower the count when the node thread *pops* the frame
/// rather than once it has stepped it. Between the pop and the lock the
/// frame is nowhere the reader can see, so the schedule `frame 0 finds
/// the node busy and is counted and enqueued → the node thread lets go,
/// pops it and lowers the count to 0 → frame 1: try_lock, count 0,
/// stepped → the node thread locks and steps frame 0` steps the link's
/// frames out of order.
#[test]
#[should_panic(expected = "out of order")]
fn reader_step_lowers_the_count_only_once_the_frame_is_stepped() {
    reader_step(Counts::LowerAtPop);
}

/// The second broken order: raise the count *after* the enqueue. The
/// schedule `frame 0 finds the node busy and is enqueued → the node
/// thread lets go, pops it, steps it and lowers the count` lowers a
/// count nobody has raised. With one reader per link the late raise puts
/// the count back before that reader's next check, so it is the count
/// that breaks, not yet the order — an `AtomicUsize` wraps to
/// `usize::MAX` meanwhile, which the runtime's `debug_assert` in
/// `Readers::stepped` reports — but a count that is not a count of what
/// is in the inbox is what the order rests on.
#[test]
#[should_panic(expected = "stepped before it was counted")]
fn reader_step_counts_a_frame_before_it_is_queued() {
    reader_step(Counts::RaiseAfterEnqueue);
}

/// How a thread delivering a frame in [`senders_step`] takes the
/// destination node's lock.
#[derive(Clone, Copy, PartialEq)]
enum Takes {
    /// `try_lock`, which neither blocks nor re-enters: the real rule.
    TryLock,
    /// A blocking `lock`.
    Lock,
}

/// In-memory senders that step their destinations, on their own threads,
/// inside steps of their own (`InMemoryTransport::send` →
/// `Readers::deliver` → `Node::try_step` in
/// `crates/runtime/src/{transport,node}.rs`), as one function so that
/// the real rule and the broken one below run the same code.
///
/// Real shape: a node's step state is behind a mutex that means *who
/// steps this node now*. A step's sends are deliveries: the delivering
/// thread — the sender's node thread, whatever thread is stepping the
/// sender, or an outside deliverer such as the delay line — `try_lock`s
/// the destination and, holding it, with the destination not stopped and
/// the link's count `Readers::in_inbox` at 0, runs the destination's step
/// right there, nested inside its own; otherwise it raises the count and
/// enqueues the frame. A node thread pops a frame from its inbox, locks
/// its node (blocking: the one place anything waits for a node, and it
/// holds no other), steps the frame — delivering by the same rule — then
/// lowers the count and unlocks. A link's frames are sent one at a time,
/// under the sending node's lock, whichever thread holds it.
///
/// The model: two nodes, each a mutex over what it has stepped and the
/// numbers of its links, an inbox and a count per source, and a thread
/// that takes one turn of its node loop. A frame carries hops: stepping
/// one with hops left sends one with a hop less to the other node. It
/// starts in the racy state: p1's frame 0 to p0 found p0 busy and is
/// queued and counted. Then the main thread, as the outside deliverer,
/// hands p1 a frame that goes p1 → p0 → p1 — so p1's step sends p0 frame
/// 1, which must wait for frame 0, and when it is stepped nested inside
/// p1's step, p0's reply finds p1 held by that same thread. Once the node
/// threads are done, their later wake-ups step what is left. Over every
/// interleaving:
///
/// * nobody deadlocks (the vendored scheduler reports a state where no
///   thread can run);
/// * every frame is stepped exactly once, each link's in order, with the
///   counts back at 0.
fn senders_step(takes: Takes) {
    use std::collections::VecDeque;

    /// The outside deliverer, as a source.
    const OUTSIDE: usize = 2;

    /// `(from, seq, hops left)`.
    #[derive(Clone, Copy)]
    struct Frame(usize, usize, usize);

    #[derive(Default)]
    struct State {
        /// `(from, seq)` of every frame stepped, in step order.
        stepped: Vec<(usize, usize)>,
        /// Next number, by destination.
        sent: [usize; 2],
    }

    struct Node {
        state: Mutex<State>,
        /// By source: the two nodes and the outside deliverer.
        in_inbox: Vec<AtomicUsize>,
        inbox: Mutex<VecDeque<Frame>>,
    }

    struct Pair {
        nodes: [Node; 2],
        takes: Takes,
    }

    impl Pair {
        /// `NodeCtx::step_frame` at node `me`, under its lock.
        fn step(&self, me: usize, state: &mut State, frame: Frame) {
            let Frame(from, seq, hops) = frame;
            state.stepped.push((from, seq));
            if hops > 0 {
                let to = 1 - me;
                let seq = state.sent[to];
                state.sent[to] += 1;
                self.deliver(to, Frame(me, seq, hops - 1));
            }
        }

        /// `Readers::deliver` of `frame` to node `to`.
        fn deliver(&self, to: usize, frame: Frame) {
            let node = &self.nodes[to];
            let held = match self.takes {
                Takes::TryLock => node.state.try_lock().ok(),
                Takes::Lock => node.state.lock().ok(),
            };
            if let Some(mut state) = held {
                if node.in_inbox[frame.0].load(Ordering::SeqCst) == 0 {
                    return self.step(to, &mut state, frame);
                }
            }
            node.in_inbox[frame.0].fetch_add(1, Ordering::SeqCst);
            node.inbox.lock().unwrap().push_back(frame);
        }

        /// One turn of node `me`'s loop.
        fn turn(&self, me: usize) {
            let node = &self.nodes[me];
            let Some(frame) = node.inbox.lock().unwrap().pop_front() else {
                return;
            };
            let mut state = node.state.lock().unwrap();
            self.step(me, &mut state, frame);
            let before = node.in_inbox[frame.0].fetch_sub(1, Ordering::SeqCst);
            assert!(before > 0, "a frame was stepped before it was counted");
        }
    }

    /// A node with `queued` in its inbox, counted, and `sent` frames
    /// numbered to each node.
    fn node(queued: &[Frame], sent: [usize; 2]) -> Node {
        let mut in_inbox = [0; 3];
        queued.iter().for_each(|f| in_inbox[f.0] += 1);
        Node {
            state: Mutex::new(State {
                stepped: Vec::new(),
                sent,
            }),
            in_inbox: in_inbox.map(AtomicUsize::new).into(),
            inbox: Mutex::new(queued.iter().copied().collect()),
        }
    }

    loom::model(move || {
        // p1's frame 0 to p0 found p0 busy.
        let pair = Arc::new(Pair {
            nodes: [node(&[Frame(1, 0, 0)], [0, 0]), node(&[], [1, 0])],
            takes,
        });
        let node_threads: Vec<_> = (0..2)
            .map(|me| {
                let pair = Arc::clone(&pair);
                thread::spawn(move || pair.turn(me))
            })
            .collect();
        pair.deliver(1, Frame(OUTSIDE, 0, 2));
        for t in node_threads {
            t.join().unwrap();
        }
        while pair
            .nodes
            .iter()
            .any(|n| !n.inbox.lock().unwrap().is_empty())
        {
            (0..2).for_each(|me| pair.turn(me));
        }

        let wanted = [vec![(1, 0), (1, 1)], vec![(0, 0), (OUTSIDE, 0)]];
        for (node, want) in pair.nodes.iter().zip(wanted) {
            let stepped = node.state.lock().unwrap().stepped.clone();
            let mut once = stepped.clone();
            once.sort_unstable();
            assert_eq!(once, want, "stranded or stepped twice: {stepped:?}");
            assert!(
                stepped
                    .windows(2)
                    .all(|w| w[0].0 != w[1].0 || w[0].1 < w[1].1),
                "a link's frames were stepped out of order: {stepped:?}"
            );
            for count in &node.in_inbox {
                assert_eq!(count.load(Ordering::SeqCst), 0);
            }
        }
    });
}

/// Senders stepping each other as `crates/runtime/src/{transport,node}.rs`
/// make them do (see [`senders_step`]).
#[test]
fn senders_step_each_other_and_never_deadlock() {
    senders_step(Takes::TryLock);
}

/// The broken rule, kept running so that the model is known to be able
/// to fail: a delivering thread that *waits* for its destination. The
/// schedule `p0's thread steps frame 0 and lowers the count → the outside
/// deliverer locks p1 and steps it → p1's step locks p0 and steps frame 1
/// → p0's reply locks p1`, which this same thread holds, waits forever.
#[test]
#[should_panic(expected = "deadlock")]
fn senders_step_each_other_only_when_free() {
    senders_step(Takes::Lock);
}
