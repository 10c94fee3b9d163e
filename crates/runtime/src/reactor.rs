//! Single-threaded non-blocking reactor transport.
//!
//! [`ReactorTransport`] is the third runtime backend (alongside
//! [`crate::InMemoryTransport`] and the blocking [`crate::TcpTransport`]):
//! **one** event-loop thread owns every socket the process touches —
//! the listener, all inbound connections, and all outbound connections —
//! instead of the blocking transport's thread-per-connection layout.
//! The loop multiplexes three event sources:
//!
//! * **Commands** from [`Transport::send`]/[`Transport::send_many`]
//!   handles, delivered over a channel and woken by a [`Doorbell`]
//!   (an atomic sleeping flag + `unpark`, modeled under loom in
//!   `twostep-analysis`).
//! * **Retry deadlines** — a failed frame's one retry is due at an
//!   instant its send state names; the park timeout is clipped to the
//!   earliest.
//! * **Socket readiness** — every stream is `set_nonblocking(true)` and
//!   polled: each pass pumps every inbound connection and flushes every
//!   outbound one until it would block.
//!
//! What is read and written is not decided here. The handshake, the
//! frame layout, the coalescing bounds, what a receiver refuses and the
//! retry-once rule are the `wire` module's, shared with
//! [`crate::TcpTransport`], so the wire format is byte-identical and the
//! two socket backends interoperate in both directions. This file is
//! only the scheduler: it polls `wire` where the blocking backend parks
//! a thread in it, and clips its park to a retry deadline where that
//! one sleeps until it.
//! [`ReactorTransport::inject_write_failure`] poisons the next write to
//! one peer so tests can walk the retry rule deterministically.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender, TryRecvError};

use twostep_telemetry::ObserverHandle;
use twostep_types::ProcessId;

use crate::transport::Transport;
use crate::wire::{Flushed, Host, Incoming, Outgoing, Pumped};
use crate::RuntimeError;

/// Park bound while any connection is open: readiness is discovered by
/// polling (`std::net` has no selector), so this is the worst-case
/// added latency for socket traffic while the loop is otherwise idle.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// Park bound while no connection exists yet: only the listener needs
/// polling, so the loop sleeps longer. Commands still wake it
/// immediately via the doorbell.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Commands from transport handles to the reactor thread.
enum Cmd {
    /// Queue one payload toward `to`.
    Send { to: ProcessId, payload: Bytes },
    /// Queue a burst toward `to`; flushed as one coalesced frame (up to
    /// [`crate::MAX_COALESCE`] per frame).
    Burst { to: ProcessId, payloads: Vec<Bytes> },
    /// Test hook: poison the next write toward `to` (see
    /// [`ReactorTransport::inject_write_failure`]).
    FailNextWrite { to: ProcessId },
}

/// Wakes the reactor thread when a command is enqueued while it parks.
///
/// The handoff is the classic sleeping-consumer protocol: the reactor
/// publishes `sleeping = true`, *then* rechecks the command channel,
/// and only parks if it is empty; a sender enqueues, *then* swaps
/// `sleeping` to false and unparks on observing `true`. Either the
/// sender observes `sleeping` (and unparks) or the reactor's recheck
/// observes the enqueued command — a command can never be stranded
/// behind a full park. `twostep-analysis`'s loom suite model-checks
/// exactly this interleaving (`reactor_doorbell_never_loses_a_wakeup`).
struct Doorbell {
    sleeping: AtomicBool,
    /// The reactor thread to unpark; set once at spawn, before any
    /// handle exists.
    thread: StdMutex<Option<Thread>>,
}

impl Doorbell {
    fn new() -> Self {
        Doorbell {
            sleeping: AtomicBool::new(false),
            thread: StdMutex::new(None),
        }
    }

    /// Sender side: called after enqueuing a command.
    fn ring(&self) {
        if self.sleeping.swap(false, Ordering::AcqRel) {
            if let Some(t) = self.thread.lock().expect("doorbell lock").as_ref() {
                t.unpark();
            }
        }
    }
}

/// Handle to a reactor event loop; the runtime's third transport
/// backend (`ClusterBuilder::reactor()`).
///
/// Cloning is cheap (a channel sender and an `Arc`). Sends enqueue a
/// command and return immediately; the reactor thread owns all sockets
/// and performs every read, write, dial and redial itself.
///
/// # Example
///
/// ```rust
/// use twostep_runtime::{ReactorTransport, Transport};
/// use twostep_telemetry::ObserverHandle;
/// use twostep_types::ProcessId;
/// use bytes::Bytes;
/// use crossbeam::channel::unbounded;
///
/// let (l0, a0) = ReactorTransport::bind_ephemeral().unwrap();
/// let (l1, a1) = ReactorTransport::bind_ephemeral().unwrap();
/// let (tx0, _rx0) = unbounded();
/// let (tx1, rx1) = unbounded();
/// let peers = vec![a0, a1];
/// let t0 = ReactorTransport::spawn(ProcessId::new(0), peers.clone(), l0, tx0,
///     ObserverHandle::none()).unwrap();
/// let _t1 = ReactorTransport::spawn(ProcessId::new(1), peers, l1, tx1,
///     ObserverHandle::none()).unwrap();
/// t0.send(ProcessId::new(0), ProcessId::new(1), Bytes::from_static(b"hi"));
/// let (from, payload) = rx1.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
/// assert_eq!((from, &payload[..]), (ProcessId::new(0), &b"hi"[..]));
/// ```
#[derive(Clone)]
pub struct ReactorTransport {
    cmds: Sender<Cmd>,
    doorbell: Arc<Doorbell>,
}

impl ReactorTransport {
    /// Binds a listener on an OS-assigned localhost port and returns its
    /// address, for assembling the peer list before
    /// [`ReactorTransport::spawn`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_ephemeral() -> Result<(TcpListener, SocketAddr), RuntimeError> {
        crate::TcpTransport::bind_ephemeral()
    }

    /// Creates the transport for process `me` given everyone's listening
    /// addresses, and spawns the reactor thread feeding `inbox`. Pass
    /// [`ObserverHandle::none`] to run unobserved; with an observer
    /// attached, the reactor reports wire-level flush sizes
    /// (`bytes_sent` under kind `"wire"`), dropped flushes
    /// (`message_dropped`, once per message) and successful redials
    /// (`reconnected`).
    ///
    /// The reactor thread exits once every handle clone is dropped *and*
    /// its send queues have drained (pending frames are still flushed,
    /// with their one reconnect attempt, before exit).
    ///
    /// # Errors
    ///
    /// Propagates the failure to switch `listener` into non-blocking
    /// mode.
    pub fn spawn(
        me: ProcessId,
        peers: Vec<SocketAddr>,
        listener: TcpListener,
        inbox: Sender<(ProcessId, Bytes)>,
        obs: ObserverHandle,
    ) -> Result<Self, RuntimeError> {
        listener.set_nonblocking(true).map_err(RuntimeError::Io)?;
        let (cmd_tx, cmd_rx) = crossbeam::channel::unbounded();
        let doorbell = Arc::new(Doorbell::new());
        let reactor = Reactor {
            outbound: peers.iter().map(|_| Outgoing::new()).collect(),
            host: Host { me, peers, obs },
            listener,
            inbox,
            cmds: cmd_rx,
            doorbell: Arc::clone(&doorbell),
            inbound: Vec::new(),
            disconnected: false,
        };
        let join = thread::Builder::new()
            .name(format!("twostep-reactor-{}", me.as_u32()))
            .spawn(move || reactor.run())
            .expect("spawn reactor thread");
        // Registered before any handle exists, so `ring` can never race
        // with an unset thread slot.
        *doorbell.thread.lock().expect("doorbell lock") = Some(join.thread().clone());
        Ok(ReactorTransport {
            cmds: cmd_tx,
            doorbell,
        })
    }

    /// Test hook: makes the next write toward `to` fail as if the
    /// connection broke, killing the cached connection in the process.
    ///
    /// This drives the reconnect path deterministically — real kernel
    /// socket teardown surfaces write errors at unpredictable points,
    /// so the seeded reconnect regression test injects the failure here
    /// instead. The poisoned write follows the production failure path
    /// exactly: whole-frame retention, backoff timer, single redial.
    pub fn inject_write_failure(&self, to: ProcessId) {
        let _ = self.cmds.send(Cmd::FailNextWrite { to });
        self.doorbell.ring();
    }
}

impl Transport for ReactorTransport {
    fn send(&self, _from: ProcessId, to: ProcessId, payload: Bytes) {
        let _ = self.cmds.send(Cmd::Send { to, payload });
        self.doorbell.ring();
    }

    fn send_many(&self, _from: ProcessId, to: ProcessId, payloads: Vec<Bytes>) {
        match payloads.len() {
            0 => return,
            1 => {
                let payload = payloads.into_iter().next().expect("len checked");
                let _ = self.cmds.send(Cmd::Send { to, payload });
            }
            _ => {
                let _ = self.cmds.send(Cmd::Burst { to, payloads });
            }
        }
        self.doorbell.ring();
    }
}

/// The event-loop state, owned by the reactor thread.
struct Reactor {
    host: Host,
    listener: TcpListener,
    inbox: Sender<(ProcessId, Bytes)>,
    cmds: Receiver<Cmd>,
    doorbell: Arc<Doorbell>,
    inbound: Vec<(TcpStream, Incoming)>,
    /// Send state toward each peer, by process index.
    outbound: Vec<Outgoing<TcpStream>>,
    /// All handles dropped; exit once the outbound queues drain.
    disconnected: bool,
}

impl Reactor {
    fn run(mut self) {
        loop {
            self.drain_cmds();
            if self.disconnected && self.outbound.iter().all(Outgoing::is_idle) {
                return;
            }
            self.accept_new();
            if !self.read_all() {
                return; // node inbox gone: nothing left to deliver to
            }
            let retry_at = (0..self.outbound.len())
                .filter_map(|peer| self.flush_peer(peer))
                .min();
            self.park(retry_at);
        }
    }

    fn drain_cmds(&mut self) {
        loop {
            match self.cmds.try_recv() {
                Ok(Cmd::Send { to, payload }) => self.toward(to, |out| out.push(payload)),
                Ok(Cmd::Burst { to, payloads }) => {
                    self.toward(to, |out| payloads.into_iter().for_each(|p| out.push(p)));
                }
                Ok(Cmd::FailNextWrite { to }) => self.toward(to, Outgoing::poison),
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    return;
                }
            }
        }
    }

    /// Applies `f` to the send state toward `to`; a destination outside
    /// the peer list is ignored.
    fn toward(&mut self, to: ProcessId, f: impl FnOnce(&mut Outgoing<TcpStream>)) {
        if let Some(out) = self.outbound.get_mut(to.index()) {
            f(out);
        }
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // unusable socket: drop it
                    }
                    self.inbound.push((stream, Incoming::new()));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock, or an error to retry next pass
            }
        }
    }

    /// Drains every readable inbound connection; `false` means the node
    /// inbox is gone and the reactor should exit.
    fn read_all(&mut self) -> bool {
        let (host, inbox) = (&self.host, &self.inbox);
        let mut deliver = |from, frame: &[u8]| {
            // The inbox needs owned bytes: one copy per wire frame.
            inbox.send((from, Bytes::from(frame.to_vec()))).is_ok()
        };
        let mut i = 0;
        while i < self.inbound.len() {
            let (stream, conn) = &mut self.inbound[i];
            match conn.pump(host, stream, &mut deliver) {
                Pumped::Open => i += 1,
                Pumped::Closed => {
                    self.inbound.swap_remove(i);
                }
                Pumped::InboxGone => return false,
            }
        }
        true
    }

    /// Flushes frames toward one peer until the kernel, the queue or
    /// the retry rule says to wait — the last until the instant returned.
    fn flush_peer(&mut self, peer: usize) -> Option<Instant> {
        let (host, to) = (&self.host, ProcessId::new(peer as u32));
        let dial = || {
            let stream = host.dial(to)?;
            stream.set_nonblocking(true)?;
            Ok(stream)
        };
        loop {
            match self.outbound[peer].flush(host, to, Instant::now(), dial) {
                Flushed::Sent(_) => {}
                Flushed::Drained | Flushed::Full => return None,
                Flushed::Backoff(until) => return Some(until),
            }
        }
    }

    /// Parks until the next event could possibly arrive: a command
    /// (doorbell wakes immediately), the earliest retry (`retry_at`), or
    /// — since readiness is polled — the poll interval when any socket
    /// is open.
    fn park(&mut self, retry_at: Option<Instant>) {
        let has_sockets = !self.inbound.is_empty()
            || self
                .outbound
                .iter()
                .any(|out| !out.is_idle() || out.conn().is_some());
        let mut timeout = if has_sockets {
            POLL_INTERVAL
        } else {
            IDLE_PARK
        };
        if let Some(due) = retry_at {
            timeout = timeout.min(due.saturating_duration_since(Instant::now()));
        }
        if timeout.is_zero() {
            return;
        }
        // Sleeping-consumer handoff; see [`Doorbell`].
        self.doorbell.sleeping.store(true, Ordering::Release);
        if self.cmds.is_empty() {
            thread::park_timeout(timeout);
        }
        self.doorbell.sleeping.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crossbeam::channel::unbounded;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    type Inbox = Receiver<(ProcessId, Bytes)>;

    fn pair() -> (ReactorTransport, ReactorTransport, Inbox, Inbox) {
        let (l0, a0) = ReactorTransport::bind_ephemeral().unwrap();
        let (l1, a1) = ReactorTransport::bind_ephemeral().unwrap();
        let peers = vec![a0, a1];
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t0 =
            ReactorTransport::spawn(p(0), peers.clone(), l0, tx0, ObserverHandle::none()).unwrap();
        let t1 = ReactorTransport::spawn(p(1), peers, l1, tx1, ObserverHandle::none()).unwrap();
        (t0, t1, rx0, rx1)
    }

    #[test]
    fn reactor_end_to_end_both_directions() {
        let (t0, t1, rx0, rx1) = pair();
        t0.send(p(0), p(1), Bytes::from_static(b"hello"));
        assert_eq!(
            rx1.recv_timeout(Duration::from_secs(5)).unwrap(),
            (p(0), Bytes::from_static(b"hello"))
        );
        t1.send(p(1), p(0), Bytes::from_static(b"world"));
        assert_eq!(
            rx0.recv_timeout(Duration::from_secs(5)).unwrap(),
            (p(1), Bytes::from_static(b"world"))
        );
    }

    #[test]
    fn reactor_burst_is_one_coalesced_frame() {
        let (t0, _t1, _rx0, rx1) = pair();
        let burst: Vec<Bytes> = (0..10u8).map(|i| Bytes::from(vec![i; 3])).collect();
        t0.send_many(p(0), p(1), burst.clone());
        let (from, frame) = rx1.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, p(0));
        let msgs: Vec<&[u8]> = codec::frame_messages(&frame).unwrap().collect();
        assert_eq!(msgs, burst.iter().map(|m| &m[..]).collect::<Vec<_>>());
    }

    #[test]
    fn reactor_send_to_dead_peer_records_drop_after_one_retry() {
        let (metrics, obs) = twostep_telemetry::Metrics::shared();
        let (l0, a0) = ReactorTransport::bind_ephemeral().unwrap();
        let (l1, a1) = ReactorTransport::bind_ephemeral().unwrap();
        drop(l1);
        let (tx0, _rx0) = unbounded();
        let t0 = ReactorTransport::spawn(p(0), vec![a0, a1], l0, tx0, obs).unwrap();
        t0.send(p(0), p(1), Bytes::from_static(b"x"));
        for _ in 0..200 {
            let snap = metrics.snapshot();
            if snap.dropped > 0 {
                assert_eq!(snap.dropped, 1, "both attempts failed: one drop");
                assert_eq!(snap.reconnects, 0);
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
        panic!("no drop recorded after a send to a dead peer");
    }

    #[test]
    fn reactor_interoperates_with_blocking_tcp() {
        // Reactor on one side, the blocking writer-thread transport on
        // the other: the wire format must be byte-identical.
        let (l0, a0) = ReactorTransport::bind_ephemeral().unwrap();
        let (l1, a1) = ReactorTransport::bind_ephemeral().unwrap();
        let peers = vec![a0, a1];
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let reactor =
            ReactorTransport::spawn(p(0), peers.clone(), l0, tx0, ObserverHandle::none()).unwrap();
        let blocking = crate::TcpTransport::spawn(p(1), peers, l1, tx1, ObserverHandle::none());

        reactor.send_many(
            p(0),
            p(1),
            vec![Bytes::from_static(b"a"), Bytes::from_static(b"bb")],
        );
        // The blocking read side pre-splits coalesced frames.
        let mut got = Vec::new();
        while got.len() < 2 {
            let (from, payload) = rx1.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(from, p(0));
            for m in codec::frame_messages(&payload).unwrap() {
                got.push(m.to_vec());
            }
        }
        assert_eq!(got, vec![b"a".to_vec(), b"bb".to_vec()]);

        blocking.send(p(1), p(0), Bytes::from_static(b"back"));
        assert_eq!(
            rx0.recv_timeout(Duration::from_secs(5)).unwrap(),
            (p(1), Bytes::from_static(b"back"))
        );
    }

    #[test]
    fn reactor_queued_frames_survive_handle_drop() {
        // Handles dropped immediately after a burst: the reactor must
        // drain its queues before exiting, not abandon them.
        let (l0, a0) = ReactorTransport::bind_ephemeral().unwrap();
        let (l1, a1) = ReactorTransport::bind_ephemeral().unwrap();
        let peers = vec![a0, a1];
        let (tx0, _rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t0 =
            ReactorTransport::spawn(p(0), peers.clone(), l0, tx0, ObserverHandle::none()).unwrap();
        let _t1 = ReactorTransport::spawn(p(1), peers, l1, tx1, ObserverHandle::none()).unwrap();
        for i in 0..50u8 {
            t0.send(p(0), p(1), Bytes::from(vec![i]));
        }
        drop(t0);
        let mut got = 0;
        while got < 50 {
            let (_, payload) = rx1.recv_timeout(Duration::from_secs(5)).unwrap();
            got += codec::frame_messages(&payload).unwrap().count();
        }
        assert_eq!(got, 50);
    }
}
