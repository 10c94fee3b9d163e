//! Single-threaded non-blocking reactor transport.
//!
//! [`ReactorTransport`] is the third runtime backend (alongside
//! [`crate::InMemoryTransport`] and the blocking [`crate::TcpTransport`]):
//! **one** event-loop thread owns every socket the process touches —
//! the listener, all inbound connections, and all outbound connections —
//! instead of the blocking transport's thread-per-connection layout.
//! The loop multiplexes three event sources, in the `BinaryHeap`-driven
//! shape of an event-heap simulator main loop:
//!
//! * **Commands** from [`Transport::send`]/[`Transport::send_many`]
//!   handles, delivered over a channel and woken by a [`Doorbell`]
//!   (an atomic sleeping flag + `unpark`, modeled under loom in
//!   `twostep-analysis`).
//! * **Timers** — a `BinaryHeap<Reverse<(Instant, peer)>>` of reconnect
//!   backoff deadlines; the park timeout is clipped to the next due
//!   timer.
//! * **Socket readiness** — every stream is `set_nonblocking(true)`;
//!   reads drain until `WouldBlock` into a per-connection reusable
//!   [`codec::FrameAssembler`] buffer, and writes go out as **vectored**
//!   writes ([`std::io::IoSlice`]) of the `[len][FRAME_MAGIC frame]`
//!   wire layout, so coalesced payloads are never copied into a
//!   contiguous staging buffer.
//!
//! The wire format is byte-identical to [`crate::TcpTransport`]: a
//! 4-byte little-endian sender-id handshake, then `[len: u32 LE]
//! [payload]` frames where a payload is either one legacy message or a
//! [`codec::pack_frame`]-style coalesced frame (built here as IoSlice
//! segments rather than via `pack_frame`). The two socket backends
//! interoperate in both directions.
//!
//! ## Allocation discipline
//!
//! Steady-state costs are **per flush / per wire frame**, never per
//! message: a flush allocates its payload list and header block once
//! for up to [`MAX_COALESCE`] messages, the read side reassembles into
//! a reused buffer that grows to the high-water frame size and stops,
//! and one `Bytes` is allocated per *wire frame* handed to the inbox
//! (the node iterates its messages in place via
//! [`codec::frame_messages`]).
//!
//! ## Failure semantics
//!
//! Identical to the blocking backend, checked by the shared conformance
//! suite: a failed write keeps the whole in-flight frame, waits
//! [`RECONNECT_BACKOFF`] (as a timer, not a sleeping thread), redials
//! once and resends the frame from the start — a partial write poisons
//! the old connection's framing, so it is abandoned wholesale. A second
//! failure drops the frame and reports `message_dropped` per message;
//! a successful redial reports `reconnected`. [`ReactorTransport::
//! inject_write_failure`] poisons the next write to one peer so tests
//! can exercise this path deterministically.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender, TryRecvError};

use twostep_telemetry::ObserverHandle;
use twostep_types::ProcessId;

use crate::codec::{self, FrameAssembler};
use crate::transport::{dial, Transport, MAX_COALESCE, RECONNECT_BACKOFF};
use crate::RuntimeError;

/// Park bound while any connection is open: readiness is discovered by
/// polling (`std::net` has no selector), so this is the worst-case
/// added latency for socket traffic while the loop is otherwise idle.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// Park bound while no connection exists yet: only the listener needs
/// polling, so the loop sleeps longer. Commands still wake it
/// immediately via the doorbell.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Read size requested per `read` call; the assembler grows past it on
/// demand for larger frames.
const READ_CHUNK: usize = 16 * 1024;

/// Commands from transport handles to the reactor thread.
enum Cmd {
    /// Queue one payload toward `to`.
    Send { to: ProcessId, payload: Bytes },
    /// Queue a burst toward `to`; flushed as one coalesced frame (up to
    /// [`MAX_COALESCE`] per frame).
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
            me,
            peers: peers.clone(),
            listener,
            inbox,
            obs,
            cmds: cmd_rx,
            doorbell: Arc::clone(&doorbell),
            inbound: Vec::new(),
            outbound: (0..peers.len()).map(|_| Outbound::new()).collect(),
            timers: BinaryHeap::new(),
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

/// An accepted connection: stream, peeled handshake, and the reusable
/// frame-reassembly buffer.
struct Inbound {
    stream: TcpStream,
    /// `None` until the 4-byte sender-id handshake completes (it can
    /// itself arrive split across reads).
    from: Option<ProcessId>,
    asm: FrameAssembler,
}

/// Per-peer outbound state.
struct Outbound {
    conn: Option<TcpStream>,
    /// Payloads queued behind the in-flight flush.
    queue: VecDeque<Bytes>,
    /// The wire frame currently being written, if any; survives
    /// `WouldBlock` (partial write) and the single reconnect.
    flush: Option<Flush>,
    /// Set while waiting out [`RECONNECT_BACKOFF`]; cleared by the
    /// timer.
    retry_at: Option<Instant>,
    /// Whether the current flush has used its one redial.
    retried: bool,
    /// Test hook: fail the next write attempt (see
    /// [`ReactorTransport::inject_write_failure`]).
    fail_next: bool,
}

impl Outbound {
    fn new() -> Self {
        Outbound {
            conn: None,
            queue: VecDeque::new(),
            flush: None,
            retry_at: None,
            retried: false,
            fail_next: false,
        }
    }

    /// No queued work, no in-flight frame, no pending retry.
    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.flush.is_none() && self.retry_at.is_none()
    }
}

/// One wire frame mid-write: up to [`MAX_COALESCE`] payloads plus the
/// header block (`[outer len][FRAME_MAGIC][count][per-message len]…`)
/// they share. Payload bytes are written straight from the `Bytes`
/// handles via `IoSlice` — never copied into a staging buffer.
struct Flush {
    msgs: Vec<Bytes>,
    heads: Vec<u8>,
    /// Bytes of the logical frame already accepted by the kernel;
    /// resumption after `WouldBlock` skips this prefix.
    written: usize,
    total: usize,
}

impl Flush {
    /// Drains payloads from the non-empty `queue` into a frame: up to
    /// [`MAX_COALESCE`] of them, as far as [`codec::MAX_FRAME_LEN`]
    /// allows (each one alone is within it, see [`Reactor::enqueue`]).
    /// A single payload goes out in the legacy (unframed) layout, many
    /// in the [`codec::FRAME_MAGIC`] coalesced layout — matching
    /// [`codec::pack_frame`] byte for byte.
    fn build(queue: &mut VecDeque<Bytes>) -> Flush {
        let (mut k, mut body) = (1, 4 + queue[0].len());
        while k < queue.len().min(MAX_COALESCE) && codec::frame_has_room(body, queue[k].len()) {
            body += 4 + queue[k].len();
            k += 1;
        }
        let msgs: Vec<Bytes> = queue.drain(..k).collect();
        let body_len = if k == 1 { msgs[0].len() } else { 8 + body };
        let mut heads = Vec::with_capacity(12 + 4 * msgs.len());
        heads.extend_from_slice(&(body_len as u32).to_le_bytes());
        if msgs.len() > 1 {
            heads.extend_from_slice(&codec::FRAME_MAGIC.to_le_bytes());
            heads.extend_from_slice(&(msgs.len() as u32).to_le_bytes());
            for m in &msgs {
                heads.extend_from_slice(&(m.len() as u32).to_le_bytes());
            }
        }
        Flush {
            written: 0,
            total: 4 + body_len,
            msgs,
            heads,
        }
    }

    /// The frame's wire layout as borrowed segments, in order: header
    /// block first, then (in the coalesced layout) each message's
    /// length prefix interleaved with its payload.
    fn segments(&self) -> Vec<&[u8]> {
        let mut segs = Vec::with_capacity(1 + 2 * self.msgs.len());
        if self.msgs.len() == 1 {
            segs.push(&self.heads[0..4]);
            segs.push(&self.msgs[0][..]);
        } else {
            segs.push(&self.heads[0..12]);
            for (i, m) in self.msgs.iter().enumerate() {
                segs.push(&self.heads[12 + 4 * i..16 + 4 * i]);
                segs.push(&m[..]);
            }
        }
        segs
    }

    /// Pushes frame bytes at the kernel until done or `WouldBlock`.
    ///
    /// Returns `Ok(true)` when the whole frame is out, `Ok(false)` on
    /// `WouldBlock` (state kept for resumption), and `Err` on a real
    /// write failure.
    fn write_some(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        while self.written < self.total {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(1 + 2 * self.msgs.len());
            let mut skip = self.written;
            for seg in self.segments() {
                if skip >= seg.len() {
                    skip -= seg.len();
                    continue;
                }
                if !seg[skip..].is_empty() {
                    slices.push(IoSlice::new(&seg[skip..]));
                }
                skip = 0;
            }
            match stream.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// What reading one inbound connection concluded.
enum ReadOutcome {
    Open,
    Closed,
    InboxGone,
}

/// The event-loop state, owned by the reactor thread.
struct Reactor {
    me: ProcessId,
    peers: Vec<SocketAddr>,
    listener: TcpListener,
    inbox: Sender<(ProcessId, Bytes)>,
    obs: ObserverHandle,
    cmds: Receiver<Cmd>,
    doorbell: Arc<Doorbell>,
    inbound: Vec<Inbound>,
    outbound: Vec<Outbound>,
    /// Reconnect deadlines: min-heap of `(due, peer index)`.
    timers: BinaryHeap<Reverse<(Instant, usize)>>,
    /// All handles dropped; exit once the outbound queues drain.
    disconnected: bool,
}

impl Reactor {
    fn run(mut self) {
        loop {
            self.drain_cmds();
            if self.disconnected && self.outbound.iter().all(Outbound::is_idle) {
                return;
            }
            self.fire_timers();
            self.accept_new();
            if !self.read_all() {
                return; // node inbox gone: nothing left to deliver to
            }
            for peer in 0..self.outbound.len() {
                self.flush_peer(peer);
            }
            self.park();
        }
    }

    fn drain_cmds(&mut self) {
        loop {
            match self.cmds.try_recv() {
                Ok(Cmd::Send { to, payload }) => self.enqueue(to, [payload]),
                Ok(Cmd::Burst { to, payloads }) => self.enqueue(to, payloads),
                Ok(Cmd::FailNextWrite { to }) => {
                    if let Some(o) = self.outbound.get_mut(to.index()) {
                        o.fail_next = true;
                    }
                }
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    return;
                }
            }
        }
    }

    /// Queues `payloads` toward `to`, except those over
    /// [`codec::MAX_FRAME_LEN`]: the receiver would hang up on such a
    /// frame's length prefix, so they are dropped here, reported, and
    /// the connection is kept.
    fn enqueue(&mut self, to: ProcessId, payloads: impl IntoIterator<Item = Bytes>) {
        let Some(o) = self.outbound.get_mut(to.index()) else {
            return;
        };
        for payload in payloads {
            if payload.len() > codec::MAX_FRAME_LEN {
                self.obs.message_dropped(self.me, to);
            } else {
                o.queue.push_back(payload);
            }
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while let Some(&Reverse((due, peer))) = self.timers.peek() {
            if due > now {
                return;
            }
            self.timers.pop();
            let o = &mut self.outbound[peer];
            if o.retry_at.is_some_and(|at| at <= now) {
                // Backoff served; flush_peer redials on this pass.
                o.retry_at = None;
            }
        }
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // unusable socket: drop it
                    }
                    let _ = stream.set_nodelay(true);
                    self.inbound.push(Inbound {
                        stream,
                        from: None,
                        asm: FrameAssembler::with_capacity(READ_CHUNK),
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock, or listener torn down
            }
        }
    }

    /// Drains every readable inbound connection; `false` means the node
    /// inbox is gone and the reactor should exit.
    fn read_all(&mut self) -> bool {
        let mut i = 0;
        while i < self.inbound.len() {
            match self.read_conn(i) {
                ReadOutcome::Open => i += 1,
                ReadOutcome::Closed => {
                    self.inbound.swap_remove(i);
                }
                ReadOutcome::InboxGone => return false,
            }
        }
        true
    }

    fn read_conn(&mut self, i: usize) -> ReadOutcome {
        let conn = &mut self.inbound[i];
        loop {
            // Deliver whatever completed on the previous read first.
            if conn.from.is_none() {
                if let Some(head) = conn.asm.next_bytes(4) {
                    let id = u32::from_le_bytes(head.try_into().expect("exact length"));
                    conn.from = Some(ProcessId::new(id));
                }
            }
            if let Some(from) = conn.from {
                loop {
                    match conn.asm.next_frame() {
                        Ok(Some(frame)) => {
                            // One allocation per *wire frame* (it may
                            // carry up to MAX_COALESCE messages): the
                            // inbox needs owned bytes, and the node
                            // iterates messages in place.
                            let payload = Bytes::from(frame.to_vec());
                            if self.inbox.send((from, payload)).is_err() {
                                return ReadOutcome::InboxGone;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Oversize length prefix: a bad peer costs
                            // its connection, never the node.
                            self.obs.message_dropped(from, self.me);
                            return ReadOutcome::Closed;
                        }
                    }
                }
            }
            let slot = conn.asm.read_slot(READ_CHUNK);
            match conn.stream.read(slot) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => conn.asm.commit(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }

    /// Advances one peer's outbound state machine as far as the kernel
    /// allows: builds flushes from the queue, dials on demand, writes
    /// until `WouldBlock`, and walks the retry-once path on failure.
    fn flush_peer(&mut self, peer: usize) {
        loop {
            let o = &mut self.outbound[peer];
            if o.retry_at.is_some() {
                return; // waiting out the backoff timer
            }
            if o.flush.is_none() {
                if o.queue.is_empty() {
                    return;
                }
                o.flush = Some(Flush::build(&mut o.queue));
            }
            if o.conn.is_none() {
                let dialed = dial(self.me, self.peers.get(peer)).and_then(|stream| {
                    stream.set_nonblocking(true)?;
                    let _ = stream.set_nodelay(true);
                    Ok(stream)
                });
                match dialed {
                    Ok(stream) => o.conn = Some(stream),
                    Err(_) => {
                        self.note_write_failure(peer);
                        continue;
                    }
                }
            }
            if o.fail_next {
                // Injected failure: kill the connection and take the
                // production failure path.
                o.fail_next = false;
                o.conn = None;
                self.note_write_failure(peer);
                continue;
            }
            let flush = o.flush.as_mut().expect("flush ensured above");
            let stream = o.conn.as_mut().expect("connection ensured above");
            match flush.write_some(stream) {
                Ok(true) => {
                    let total = flush.total;
                    if o.retried {
                        o.retried = false;
                        self.obs.reconnected(self.me);
                    }
                    self.outbound[peer].flush = None;
                    if self.obs.is_attached() {
                        self.obs.bytes_sent(self.me, "wire", total);
                    }
                }
                Ok(false) => return, // kernel buffer full: resume later
                Err(_) => {
                    self.outbound[peer].conn = None;
                    self.note_write_failure(peer);
                }
            }
        }
    }

    /// The retry-once state machine, shared by dial and write failures:
    /// first failure keeps the whole frame and arms the backoff timer;
    /// second failure drops the frame and reports each message.
    fn note_write_failure(&mut self, peer: usize) {
        let me = self.me;
        let o = &mut self.outbound[peer];
        let Some(flush) = o.flush.as_mut() else {
            return;
        };
        flush.written = 0; // the frame restarts from byte 0 on redial
        if !o.retried {
            o.retried = true;
            let due = Instant::now() + RECONNECT_BACKOFF;
            o.retry_at = Some(due);
            self.timers.push(Reverse((due, peer)));
        } else {
            let dropped = flush.msgs.len();
            o.flush = None;
            o.retried = false;
            for _ in 0..dropped {
                self.obs.message_dropped(me, ProcessId::new(peer as u32));
            }
        }
    }

    /// Parks until the next event could possibly arrive: a command
    /// (doorbell wakes immediately), a due timer, or — since readiness
    /// is polled — the poll interval when any socket is open.
    fn park(&mut self) {
        let has_sockets = !self.inbound.is_empty()
            || self
                .outbound
                .iter()
                .any(|o| !o.is_idle() || o.conn.is_some());
        let mut timeout = if has_sockets {
            POLL_INTERVAL
        } else {
            IDLE_PARK
        };
        if let Some(&Reverse((due, _))) = self.timers.peek() {
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
        let msgs: Vec<Bytes> = codec::unpack_frame(&frame).unwrap();
        assert_eq!(msgs, burst);
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
