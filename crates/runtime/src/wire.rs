//! The socket wire protocol, stated once for both socket backends.
//!
//! A connection opens with the dialler's process id (`u32` LE) and then
//! carries `[len: u32 LE][payload]` frames, where a payload is one
//! encoded message or several in [`codec::pack_frame`]'s layout. Every
//! decision about those bytes is made here: how a connection is opened
//! ([`Host::dial`]), what goes into a frame and how it is laid out
//! ([`Frame`]), what a receiver accepts from a peer ([`Incoming`]), and
//! what becomes of a frame whose write fails ([`Outgoing::flush`]).
//!
//! All of it runs over `impl Read` / `impl Write`, is told the time, and
//! never waits: a call returns what its caller has to wait *for*
//! ([`Flushed`], [`Pumped`]). [`crate::TcpTransport`] gives each
//! connection a thread that blocks in these calls, lets a sender make
//! the same [`Outgoing::flush`] call on its own thread when the
//! connection can take the frame at once, and lets a reader step its
//! node with the frame [`Incoming::pump`] lends it when the node is free;
//! [`crate::ReactorTransport`] polls them all from one thread. The
//! backends differ in who waits and in nothing that reaches the wire,
//! and the tests below drive the protocol through short reads, short
//! writes and failed writes with no socket and no sleep.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;

use twostep_telemetry::ObserverHandle;
use twostep_types::ProcessId;

use crate::codec::{self, FrameAssembler};

/// How long a failed frame waits before its single reconnect attempt.
pub const RECONNECT_BACKOFF: Duration = Duration::from_millis(10);

/// Upper bound on messages coalesced into one wire frame.
pub const MAX_COALESCE: usize = 128;

/// Read size requested per `read` call; the assembler grows past it on
/// demand for larger frames.
const READ_CHUNK: usize = 16 * 1024;

/// One process's end of the socket fabric: who it is, where its peers
/// listen, and the observer its connections report to.
pub(crate) struct Host {
    pub(crate) me: ProcessId,
    pub(crate) peers: Vec<SocketAddr>,
    pub(crate) obs: ObserverHandle,
}

impl Host {
    /// Dials `to` and sends the sender-id handshake. `TCP_NODELAY` is
    /// set because a frame is already a coalesced batch: holding it back
    /// for Nagle's algorithm only adds delay. The dial is blocking: on
    /// the localhost deployments these transports target it either
    /// completes or refuses immediately.
    pub(crate) fn dial(&self, to: ProcessId) -> io::Result<TcpStream> {
        let addr = self
            .peers
            .get(to.index())
            .ok_or_else(|| io::Error::from(io::ErrorKind::AddrNotAvailable))?;
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&self.me.as_u32().to_le_bytes())?;
        Ok(stream)
    }
}

/// One wire frame mid-write: up to [`MAX_COALESCE`] payloads plus the
/// header block (`[outer len][FRAME_MAGIC][count][per-message len]…`)
/// they share. Payload bytes are written straight from the `Bytes`
/// handles via `IoSlice` — never copied into a staging buffer.
struct Frame {
    msgs: Vec<Bytes>,
    heads: Vec<u8>,
    /// Bytes of the frame the connection has accepted so far; a resumed
    /// write skips this prefix.
    written: usize,
    total: usize,
}

impl Frame {
    /// Takes the next frame's payloads off the front of `queue`: up to
    /// [`MAX_COALESCE`] of them, as far as [`codec::MAX_FRAME_LEN`]
    /// allows. A payload that is over that length alone is dropped and
    /// `oversize` called for it, since the receiver would hang up on its
    /// length prefix. One payload goes out in the legacy (unframed)
    /// layout, several in [`codec::pack_frame`]'s, byte for byte.
    fn build(queue: &mut VecDeque<Bytes>, mut oversize: impl FnMut()) -> Option<Frame> {
        while queue.front()?.len() > codec::MAX_FRAME_LEN {
            queue.pop_front();
            oversize();
        }
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
        Some(Frame {
            written: 0,
            total: 4 + body_len,
            msgs,
            heads,
        })
    }

    /// The frame's wire layout as borrowed segments, in order: header
    /// block first, then each message behind its length prefix (which a
    /// lone message, in the legacy layout, does not have).
    fn segments(&self) -> impl Iterator<Item = &[u8]> {
        let (head, lens) = self.heads.split_at(self.heads.len().min(12));
        let msgs = self.msgs.iter().enumerate();
        std::iter::once(head).chain(
            msgs.flat_map(move |(i, m)| [lens.get(4 * i..4 * i + 4).unwrap_or_default(), &m[..]]),
        )
    }

    /// Pushes frame bytes at `conn` until done or `WouldBlock`, one
    /// vectored write per call it makes.
    ///
    /// Returns `Ok(true)` when the whole frame is out, `Ok(false)` on
    /// `WouldBlock` (state kept for resumption), and `Err` on a real
    /// write failure.
    fn write_some(&mut self, conn: &mut impl Write) -> io::Result<bool> {
        while self.written < self.total {
            let mut skip = self.written;
            let mut slices = Vec::with_capacity(1 + 2 * self.msgs.len());
            for seg in self.segments() {
                if let Some(rest) = seg.get(skip..).filter(|rest| !rest.is_empty()) {
                    slices.push(IoSlice::new(rest));
                }
                skip = skip.saturating_sub(seg.len());
            }
            match conn.write_vectored(&slices) {
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

/// What [`Outgoing::flush`] needs its caller to do before the next call.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Flushed {
    /// One whole frame of this many bytes went out; call again.
    Sent(usize),
    /// Nothing is queued: wait for a payload to [`Outgoing::push`].
    Drained,
    /// The connection took part of the frame (`WouldBlock`): wait until
    /// it is writable.
    Full,
    /// The frame's first attempt failed, and its one retry is due at
    /// this instant ([`RECONNECT_BACKOFF`] after the failure): wait
    /// until then.
    Backoff(Instant),
}

/// Everything one process holds toward one destination: the payloads
/// queued, the frame in flight, the connection, and that frame's place
/// in the retry rule. Generic over the connection so the rule is
/// testable without a socket.
pub(crate) struct Outgoing<C> {
    conn: Option<C>,
    queue: VecDeque<Bytes>,
    /// Survives a partial write and the single reconnect.
    frame: Option<Frame>,
    /// When the frame in flight may be retried, once it has failed.
    retry_at: Option<Instant>,
    /// Fault injection: fail the next write attempt (see
    /// [`Outgoing::poison`]).
    poisoned: bool,
}

impl<C: Write> Outgoing<C> {
    pub(crate) fn new() -> Self {
        Outgoing {
            conn: None,
            queue: VecDeque::new(),
            frame: None,
            retry_at: None,
            poisoned: false,
        }
    }

    /// Queues `payload` behind the frame in flight.
    pub(crate) fn push(&mut self, payload: Bytes) {
        self.queue.push_back(payload);
    }

    /// No queued work and no frame in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.frame.is_none()
    }

    /// The cached connection, if there is one (a socket to poll, or to
    /// switch between blocking and non-blocking).
    pub(crate) fn conn(&self) -> Option<&C> {
        self.conn.as_ref()
    }

    /// Makes the next write attempt fail as a broken connection would,
    /// so a test can walk the retry rule at a chosen point — real socket
    /// teardown surfaces write errors at unpredictable ones.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Sends at most one frame toward `to`, and says what to wait for.
    ///
    /// The retry rule lives here and nowhere else. A dial or write that
    /// fails costs the connection — a partly written frame has poisoned
    /// its framing — and keeps the whole frame: nothing happens until
    /// `now` is [`RECONNECT_BACKOFF`] later, then the next call redials
    /// and resends it from byte 0, reporting `reconnected` if that
    /// works. If it fails too the peer is treated as crashed: the frame
    /// is dropped and each of its messages reported (`message_dropped`).
    /// A frame that goes out whole is reported with its wire size
    /// (`bytes_sent`, kind `"wire"`), here for both backends.
    pub(crate) fn flush(
        &mut self,
        host: &Host,
        to: ProcessId,
        now: Instant,
        mut dial: impl FnMut() -> io::Result<C>,
    ) -> Flushed {
        loop {
            if let Some(due) = self.retry_at.filter(|&due| now < due) {
                return Flushed::Backoff(due);
            }
            if self.frame.is_none() {
                let oversize = || host.obs.message_dropped(host.me, to);
                self.frame = Frame::build(&mut self.queue, oversize);
            }
            let Some(frame) = self.frame.as_mut() else {
                return Flushed::Drained;
            };
            if self.conn.is_none() {
                self.conn = dial().ok();
            }
            let wrote = match self.conn.as_mut() {
                None => Err(io::ErrorKind::NotConnected.into()),
                Some(_) if std::mem::take(&mut self.poisoned) => {
                    Err(io::ErrorKind::BrokenPipe.into())
                }
                Some(conn) => frame.write_some(conn),
            };
            match wrote {
                Ok(true) => {
                    if self.retry_at.take().is_some() {
                        host.obs.reconnected(host.me);
                    }
                    let sent = frame.total;
                    self.frame = None;
                    host.obs.bytes_sent(host.me, "wire", sent);
                    return Flushed::Sent(sent);
                }
                Ok(false) => return Flushed::Full,
                Err(_) => {
                    self.conn = None;
                    frame.written = 0;
                    if self.retry_at.take().is_none() {
                        self.retry_at = Some(now + RECONNECT_BACKOFF);
                        continue;
                    }
                    for _ in &frame.msgs {
                        host.obs.message_dropped(host.me, to);
                    }
                    self.frame = None;
                }
            }
        }
    }
}

/// What [`Incoming::pump`] concluded about its connection.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Pumped {
    /// Nothing more to read for now (`WouldBlock`): wait until the
    /// connection is readable.
    Open,
    /// The peer closed, failed, or was hung up on: drop the connection.
    Closed,
    /// `deliver` refused a frame: the node's inbox is gone.
    InboxGone,
}

/// The receiving end of one accepted connection: the handshake, once it
/// has arrived, and the reusable frame-reassembly buffer.
pub(crate) struct Incoming {
    /// `None` until the 4-byte sender-id handshake completes (it can
    /// itself arrive split across reads).
    from: Option<ProcessId>,
    asm: FrameAssembler,
}

impl Incoming {
    pub(crate) fn new() -> Self {
        Incoming {
            from: None,
            asm: FrameAssembler::with_capacity(READ_CHUNK),
        }
    }

    /// Reads `stream` until it would block or ends, handing each whole
    /// wire frame to `deliver` with the sender the handshake named. The
    /// frame is lent from the reassembly buffer: a `deliver` that steps
    /// it in place copies nothing, one that queues it makes the one copy.
    ///
    /// The bytes come from outside the program, and a bad peer costs its
    /// connection, never the node: a handshake id that is not one of
    /// `host.peers`, or a length prefix over [`codec::MAX_FRAME_LEN`],
    /// is reported as one `message_dropped` and the connection closed
    /// with nothing delivered. (A malformed *coalesced* frame inside an
    /// intact length prefix is the consumer's to drop; the connection's
    /// framing is still good.)
    pub(crate) fn pump(
        &mut self,
        host: &Host,
        stream: &mut impl Read,
        mut deliver: impl FnMut(ProcessId, &[u8]) -> bool,
    ) -> Pumped {
        loop {
            // Deliver whatever completed on the previous read first.
            if self.from.is_none() {
                if let Some(head) = self.asm.next_bytes(4) {
                    let id = u32::from_le_bytes(head.try_into().expect("exact length"));
                    if id as usize >= host.peers.len() {
                        // Every later message would be dispatched as
                        // coming from `id`, and the protocols index vote
                        // sets by it (`1u64 << id`): an id outside the
                        // deployment must not reach them.
                        host.obs.message_dropped(ProcessId::new(id), host.me);
                        return Pumped::Closed;
                    }
                    self.from = Some(ProcessId::new(id));
                }
            }
            if let Some(from) = self.from {
                loop {
                    match self.asm.next_frame() {
                        Ok(Some(frame)) => {
                            if !deliver(from, frame) {
                                return Pumped::InboxGone;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            host.obs.message_dropped(from, host.me);
                            return Pumped::Closed;
                        }
                    }
                }
            }
            let slot = self.asm.read_slot(READ_CHUNK);
            match stream.read(slot) {
                Ok(0) => return Pumped::Closed,
                Ok(n) => self.asm.commit(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Pumped::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Pumped::Closed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use twostep_telemetry::Metrics;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// A two-process host; nothing here dials its addresses.
    fn host(obs: ObserverHandle) -> Host {
        let nowhere = "127.0.0.1:1".parse().unwrap();
        Host {
            me: p(1),
            peers: vec![nowhere; 2],
            obs,
        }
    }

    /// A connection that takes `sizes[i % len]` bytes on its i-th write
    /// (0: `WouldBlock`), across slice boundaries as a socket does, and
    /// breaks for good once `breaks_at` bytes are in. What it took is
    /// kept in `taken`, which outlives it.
    struct Throttled {
        taken: Rc<RefCell<Vec<u8>>>,
        sizes: Vec<usize>,
        calls: usize,
        breaks_at: Option<usize>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut taken = self.taken.borrow_mut();
            let mut room = self.sizes[self.calls % self.sizes.len()];
            self.calls += 1;
            if let Some(limit) = self.breaks_at {
                if taken.len() >= limit {
                    return Err(io::ErrorKind::BrokenPipe.into());
                }
                room = room.min(limit - taken.len());
            }
            if room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let before = taken.len();
            for buf in bufs {
                let n = buf.len().min(room - (taken.len() - before));
                taken.extend_from_slice(&buf[..n]);
            }
            Ok(taken.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The reading end: yields `sizes[i % len]` bytes of `wire` on its
    /// i-th read (0: `WouldBlock`), then end of stream.
    struct Trickled<'a> {
        wire: &'a [u8],
        sizes: Vec<usize>,
        calls: usize,
    }

    impl Read for Trickled<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.sizes[self.calls % self.sizes.len()];
            self.calls += 1;
            if n == 0 && !self.wire.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = n.min(buf.len()).min(self.wire.len());
            buf[..n].copy_from_slice(&self.wire[..n]);
            self.wire = &self.wire[n..];
            Ok(n)
        }
    }

    /// The frames `msgs` travel in when all of them are queued before the
    /// first flush: `codec::pack_frame(chunk)` per [`MAX_COALESCE`]
    /// messages, a lone message as itself.
    fn reference_frames(msgs: &[Bytes]) -> Vec<Bytes> {
        let frame = |chunk: &[Bytes]| match chunk {
            [lone] => lone.clone(),
            many => codec::pack_frame(many),
        };
        msgs.chunks(MAX_COALESCE).map(frame).collect()
    }

    /// What `msgs` must look like on a connection from `p0` when all of
    /// them are queued before the first flush: the handshake, then the
    /// reference layout — `[len] ++ codec::pack_frame(chunk)` per
    /// [`MAX_COALESCE`] messages, `[len] ++ msg` for a lone one.
    fn reference_wire(msgs: &[Bytes]) -> Vec<u8> {
        let mut wire = 0u32.to_le_bytes().to_vec();
        for payload in reference_frames(msgs) {
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(&payload);
        }
        wire
    }

    /// The sending side under test, as `p0`: an [`Outgoing`] whose every
    /// dial yields a [`Throttled`] connection that has taken the
    /// handshake and breaks where `breaks` says (one entry per dial,
    /// `None` past its end).
    struct Sender {
        out: Outgoing<Throttled>,
        sizes: Vec<usize>,
        breaks: Vec<Option<usize>>,
        /// What each connection dialled so far has taken.
        wires: Vec<Rc<RefCell<Vec<u8>>>>,
        /// Dials asked of a thread that may not wait.
        refused: usize,
    }

    impl Sender {
        fn new(msgs: &[Bytes], sizes: &[usize], breaks: &[Option<usize>]) -> Sender {
            let mut sender = Sender {
                out: Outgoing::new(),
                sizes: sizes.to_vec(),
                breaks: breaks.to_vec(),
                wires: Vec::new(),
                refused: 0,
            };
            sender.push(msgs);
            sender
        }

        fn push(&mut self, msgs: &[Bytes]) {
            msgs.iter().cloned().for_each(|m| self.out.push(m));
        }

        /// One `flush`, as the thread that may wait makes it (`may_dial`)
        /// or as one that may not, whose dial refuses.
        fn flush_once(&mut self, host: &Host, now: Instant, may_dial: bool) -> Flushed {
            let dial = || {
                if !may_dial {
                    self.refused += 1;
                    return Err(io::ErrorKind::NotConnected.into());
                }
                let taken = Rc::new(RefCell::new(0u32.to_le_bytes().to_vec()));
                let breaks_at = self.breaks.get(self.wires.len()).copied().flatten();
                self.wires.push(Rc::clone(&taken));
                Ok(Throttled {
                    taken,
                    sizes: self.sizes.clone(),
                    calls: 0,
                    breaks_at,
                })
            };
            self.out.flush(host, p(1), now, dial)
        }

        /// Flushes until there is something to wait for besides the
        /// connection.
        fn flush(&mut self, host: &Host, now: Instant) -> Flushed {
            loop {
                match self.flush_once(host, now, true) {
                    Flushed::Full => {}
                    other => return other,
                }
            }
        }

        fn wire(&self, dial: usize) -> Vec<u8> {
            self.wires[dial].borrow().clone()
        }
    }

    /// Reads `wire` at `p1` through `read_sizes`, to the end of the
    /// stream or the first delivery refused — `deliver` takes `accepted`
    /// frames and refuses the next, as a gone inbox does: every frame
    /// taken, with its sender, and how the connection ended.
    fn receive_frames(
        host: &Host,
        wire: &[u8],
        read_sizes: &[usize],
        accepted: usize,
    ) -> (Vec<(ProcessId, Vec<u8>)>, Pumped) {
        let mut stream = Trickled {
            wire,
            sizes: read_sizes.to_vec(),
            calls: 0,
        };
        let (mut conn, mut got) = (Incoming::new(), Vec::new());
        loop {
            let ended = conn.pump(host, &mut stream, |from, frame| {
                let take = got.len() < accepted;
                if take {
                    got.push((from, frame.to_vec()));
                }
                take
            });
            if ended != Pumped::Open {
                return (got, ended);
            }
        }
    }

    /// [`receive_frames`], taking every frame, split into its messages.
    fn receive(
        host: &Host,
        wire: &[u8],
        read_sizes: &[usize],
    ) -> (Vec<(ProcessId, Vec<u8>)>, Pumped) {
        let (frames, ended) = receive_frames(host, wire, read_sizes, usize::MAX);
        let messages = frames.iter().flat_map(|(from, frame)| {
            let msgs = codec::frame_messages(frame).expect("well-formed frame");
            msgs.map(move |m| (*from, m.to_vec()))
        });
        (messages.collect(), ended)
    }

    /// The round trip under test: `msgs` queued at `p0`, flushed through
    /// a connection that takes `write_sizes` bytes per call, read at
    /// `p1` in `read_sizes` bytes per call.
    fn cross(
        msgs: &[Vec<u8>],
        write_sizes: &[usize],
        read_sizes: &[usize],
    ) -> Result<(), TestCaseError> {
        let host = host(ObserverHandle::none());
        let msgs: Vec<Bytes> = msgs.iter().cloned().map(Bytes::from).collect();
        let mut sender = Sender::new(&msgs, write_sizes, &[]);
        let mut frames = 0;
        loop {
            match sender.flush(&host, Instant::now()) {
                Flushed::Sent(_) => frames += 1,
                Flushed::Drained => break,
                other => prop_assert!(false, "nothing failed, yet {other:?}"),
            }
        }
        prop_assert!(sender.out.is_idle());
        prop_assert_eq!(frames, msgs.len().div_ceil(MAX_COALESCE));
        if msgs.is_empty() {
            prop_assert!(sender.wires.is_empty(), "dialled with nothing to send");
            return Ok(());
        }

        // On the wire: the reference bytes, on one connection, in frames
        // within both bounds.
        prop_assert_eq!(sender.wires.len(), 1);
        let wire = sender.wire(0);
        prop_assert_eq!(&wire, &reference_wire(&msgs));
        let mut rest = &wire[4..];
        while !rest.is_empty() {
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            prop_assert!(len <= codec::MAX_FRAME_LEN);
            let held = codec::frame_messages(&rest[4..4 + len]).unwrap().count();
            prop_assert!(held <= MAX_COALESCE, "{held} messages in one frame");
            rest = &rest[4 + len..];
        }

        // Off the wire: the same payloads, in order, from p0.
        let (got, ended) = receive(&host, &wire, read_sizes);
        prop_assert_eq!(ended, Pumped::Closed);
        let want: Vec<_> = msgs.iter().map(|m| (p(0), m.to_vec())).collect();
        prop_assert_eq!(got, want);

        // What `deliver` is lent: the reference frames, whole and in
        // order — the bytes the inbox was handed when each was copied
        // before the call. A refused delivery ends the pump there.
        let frames: Vec<_> = reference_frames(&msgs)
            .iter()
            .map(|f| (p(0), f.to_vec()))
            .collect();
        for accepted in 0..=frames.len() {
            let (taken, ended) = receive_frames(&host, &wire, read_sizes, accepted);
            let refused = accepted < frames.len();
            prop_assert_eq!(&taken[..], &frames[..accepted]);
            let want = if refused {
                Pumped::InboxGone
            } else {
                Pumped::Closed
            };
            prop_assert_eq!(ended, want);
        }
        Ok(())
    }

    /// Payloads as the protocols produce them: never opening with
    /// [`codec::FRAME_MAGIC`], which a lone message would be re-parsed
    /// under.
    fn message() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..80).prop_map(|mut m| {
            if m.len() >= 4 && m[..4] == codec::FRAME_MAGIC.to_le_bytes() {
                m[0] ^= 1;
            }
            m
        })
    }

    /// Bytes moved per call, from 1 up, with stalls (0) in between; the
    /// first call always moves something, so a cycle makes progress.
    fn call_sizes() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0usize..48, 1..12).prop_map(|mut sizes| {
            sizes[0] = sizes[0].max(1);
            sizes
        })
    }

    /// One step in the life of a send state two threads take turns at.
    #[derive(Debug, Clone)]
    enum Step {
        /// A burst is queued.
        Push(Vec<Vec<u8>>),
        /// One `flush`: by a sender on its own thread if `inline` (and
        /// the connection is up — the one thing the blocking backend
        /// checks that matters here), else by the writer thread.
        Flush { inline: bool },
        /// This many milliseconds pass.
        Wait(u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            proptest::collection::vec(message(), 1..5).prop_map(Step::Push),
            any::<bool>().prop_map(|inline| Step::Flush { inline }),
            any::<bool>().prop_map(|inline| Step::Flush { inline }),
            (0u64..15).prop_map(Step::Wait),
        ]
    }

    /// Runs `steps` over one send state whose connections take
    /// `write_sizes` bytes per call and break where `breaks` says, the
    /// `inline` flushes made with a dial that refuses if `inline_sends`
    /// and by the writer otherwise; then lets the writer finish. Returns
    /// what every connection took, the dropped and reconnected counts,
    /// and how often the refusing dial was asked.
    fn take_turns(
        steps: &[Step],
        write_sizes: &[usize],
        breaks: &[Option<usize>],
        inline_sends: bool,
    ) -> (Vec<Vec<u8>>, u64, u64, usize) {
        let (metrics, obs) = Metrics::shared();
        let host = host(obs);
        let mut sender = Sender::new(&[], write_sizes, breaks);
        // Only differences of instants reach the send state.
        let mut now = Instant::now();
        for step in steps {
            match step {
                Step::Push(msgs) => msgs
                    .iter()
                    .for_each(|m| sender.out.push(Bytes::from(m.clone()))),
                Step::Wait(ms) => now += Duration::from_millis(*ms),
                Step::Flush { inline } => {
                    let by_sender = inline_sends && *inline && sender.out.conn().is_some();
                    sender.flush_once(&host, now, !by_sender);
                }
            }
        }
        loop {
            match sender.flush(&host, now) {
                Flushed::Backoff(due) => now = due,
                Flushed::Drained => break,
                Flushed::Sent(_) | Flushed::Full => {}
            }
        }
        let wires = (0..sender.wires.len()).map(|i| sender.wire(i)).collect();
        let snap = metrics.snapshot();
        (wires, snap.dropped, snap.reconnects, sender.refused)
    }

    proptest! {
        /// Who makes a `flush` call does not matter, as long as a thread
        /// that may not dial only flushes a connection that is up: every
        /// interleaving of the two yields, connection by connection, the
        /// bytes the writer thread alone yields for the same pushes, and
        /// the same drops and reconnects — through short writes,
        /// `WouldBlock` and connections that break at any byte. That is
        /// what lets the blocking backend write from the sender's thread
        /// and keep one retry rule.
        #[test]
        fn a_flush_from_the_senders_thread_is_the_writers_flush(
            steps in proptest::collection::vec(step(), 1..40),
            write_sizes in call_sizes(),
            breaks in proptest::collection::vec(proptest::option::of(4usize..600), 0..5),
        ) {
            let alone = take_turns(&steps, &write_sizes, &breaks, false);
            let mixed = take_turns(&steps, &write_sizes, &breaks, true);
            prop_assert_eq!(&mixed, &alone);
            let (wires, dropped, reconnects, refused) = mixed;
            prop_assert_eq!(refused, 0, "a sender's flush asked for a dial");
            // One dial to begin with, one redial per failed frame, and
            // one for the frame behind each frame dropped.
            let dials = wires.len() as u64;
            prop_assert!(dials <= 1 + reconnects + 2 * dropped, "{} dials", dials);
        }

        /// Whatever the connection takes per write and yields per read,
        /// the wire carries the reference bytes and the receiver gets
        /// the payloads back in order.
        #[test]
        fn payloads_cross_short_writes_and_short_reads_intact(
            msgs in proptest::collection::vec(message(), 0..300),
            write_sizes in call_sizes(),
            read_sizes in call_sizes(),
        ) {
            cross(&msgs, &write_sizes, &read_sizes)?;
        }

        /// A connection that breaks anywhere in a frame costs a back-off
        /// and a redial, and the frame is resent whole on the new
        /// connection; one that breaks on the redial as well costs the
        /// frame, one drop per message, and nothing queued behind it.
        #[test]
        fn a_broken_write_resends_the_frame_from_byte_zero(
            first in proptest::collection::vec(message(), 1..6),
            second in proptest::collection::vec(message(), 1..6),
            write_sizes in call_sizes(),
            broken in 0usize..400,
            redial_breaks in any::<bool>(),
        ) {
            let (metrics, obs) = Metrics::shared();
            let host = host(obs);
            let [first, second] = [first, second].map(|msgs| -> Vec<Bytes> {
                msgs.into_iter().map(Bytes::from).collect()
            });
            let (first_wire, second_wire) = (reference_wire(&first), reference_wire(&second));
            // Somewhere from "the handshake only" to "all but a byte".
            let broken = 4 + broken % (first_wire.len() - 4);
            let breaks = [Some(broken), redial_breaks.then_some(broken)];
            let mut sender = Sender::new(&first, &write_sizes, &breaks);

            let failed_at = Instant::now();
            let due = failed_at + RECONNECT_BACKOFF;
            prop_assert_eq!(sender.flush(&host, failed_at), Flushed::Backoff(due));
            prop_assert_eq!(sender.wire(0), &first_wire[..broken]);
            // Queued during the back-off: waits behind the kept frame,
            // and must not join it.
            sender.push(&second);
            let early = due - Duration::from_nanos(1);
            prop_assert_eq!(sender.flush(&host, early), Flushed::Backoff(due));
            prop_assert_eq!(sender.wires.len(), 1, "redialled before the back-off was over");
            if redial_breaks {
                // The caller is not told of the drop: the next frame
                // goes out on a third connection in the same call.
                prop_assert_eq!(sender.flush(&host, due), Flushed::Sent(second_wire.len() - 4));
                prop_assert_eq!(sender.wire(1), &first_wire[..broken], "retried from byte 0");
                prop_assert_eq!(sender.wire(2), second_wire);
            } else {
                prop_assert_eq!(sender.flush(&host, due), Flushed::Sent(first_wire.len() - 4));
                prop_assert_eq!(sender.flush(&host, due), Flushed::Sent(second_wire.len() - 4));
                let after_handshake = &second_wire[4..];
                prop_assert_eq!(sender.wire(1), [&first_wire[..], after_handshake].concat());
            }
            prop_assert_eq!(sender.flush(&host, due), Flushed::Drained);
            prop_assert_eq!(sender.wires.len(), if redial_breaks { 3 } else { 2 });
            let (dropped, reconnects) = if redial_breaks { (first.len(), 0) } else { (0, 1) };
            let snap = metrics.snapshot();
            prop_assert_eq!((snap.dropped, snap.reconnects), (dropped as u64, reconnects));
        }
    }

    /// The two splits the blocking backend's socket tests used to push
    /// through a real connection with a sleep per chunk: a byte at a
    /// time, and cuts inside the handshake, a length prefix and a
    /// payload.
    #[test]
    fn recorded_splits_cross_intact() {
        let msgs = [b"alpha".to_vec(), b"".to_vec(), b"omega!".to_vec()];
        cross(&msgs, &[1], &[1]).unwrap();
        let msgs = [b"first-frame".to_vec(), b"second".to_vec()];
        cross(&msgs, &[2, 4, 7, 40], &[2, 4, 7, 40]).unwrap();
    }

    /// A handshake naming a process outside the deployment — the first
    /// id past the peer list, or one past the 64 a `ProcessSet` holds —
    /// ends the connection before the well-formed frame behind it is
    /// looked at.
    #[test]
    fn a_handshake_outside_the_peer_list_delivers_nothing() {
        for id in [2u32, 65, u32::MAX] {
            let (metrics, obs) = Metrics::shared();
            let mut wire = id.to_le_bytes().to_vec();
            wire.extend_from_slice(&5u32.to_le_bytes());
            wire.extend_from_slice(b"hello");
            for read_sizes in [vec![1], vec![64]] {
                let (got, ended) = receive(&host(obs.clone()), &wire, &read_sizes);
                assert_eq!((got, ended), (vec![], Pumped::Closed), "id {id}");
            }
            assert_eq!(metrics.snapshot().dropped, 2, "one report per connection");
        }
    }
}
