//! Byte transports between runtime nodes.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use twostep_telemetry::ObserverHandle;
use twostep_types::ProcessId;

use crate::wire::{Flushed, Host, Incoming, Outgoing, Pumped};
use crate::{codec, RuntimeError};

/// A way to move encoded messages between processes.
///
/// Implementations must be cheap to clone (handles to shared state) and
/// tolerate sends to crashed/closed destinations by dropping the message
/// (the failure model is crash-stop; a crashed process simply stops
/// receiving).
///
/// `send` and `send_many` never wait on the network or on another
/// thread: the node loop calls them between two protocol steps, and a
/// peer that is slow, gone or not reading must not stall it. They may
/// do work that cannot block (enqueue, or write to a socket that takes
/// the bytes at once); whatever would have to wait — a dial, a full
/// buffer, a back-off — is left to a thread of the transport's own.
pub trait Transport: Send + Sync + 'static {
    /// Delivers `payload` from `from` to `to`'s inbox, best-effort.
    fn send(&self, from: ProcessId, to: ProcessId, payload: Bytes);

    /// Delivers a burst of payloads from `from` to `to`, best-effort and
    /// in order.
    ///
    /// This is the coalescing hook: implementations that can move many
    /// messages in one underlying operation (one syscall, one channel
    /// send) should override it — see [`codec::pack_frame`]. The default
    /// simply loops over [`Transport::send`].
    fn send_many(&self, from: ProcessId, to: ProcessId, payloads: Vec<Bytes>) {
        for p in payloads {
            self.send(from, to, p);
        }
    }
}

impl Transport for Box<dyn Transport> {
    fn send(&self, from: ProcessId, to: ProcessId, payload: Bytes) {
        (**self).send(from, to, payload);
    }

    fn send_many(&self, from: ProcessId, to: ProcessId, payloads: Vec<Bytes>) {
        (**self).send_many(from, to, payloads);
    }
}

/// One node's attachment to the message fabric: the inbox its node loop
/// drains, the transport its sends go out on and, in memory and over
/// blocking TCP, the hook through which the threads that deliver to the
/// node may step it themselves.
pub(crate) struct Endpoint {
    pub(crate) inbox: Receiver<(ProcessId, Bytes)>,
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) readers: Option<Arc<Readers>>,
}

/// A node as the threads that deliver to it see it.
pub(crate) trait StepInline: Send + Sync {
    /// Steps `frame`, from `from`, on the calling thread if the node is
    /// free right now: nobody holds its lock, it has not stopped, and
    /// `in_inbox` — `from`'s frames that are in its inbox and not yet
    /// stepped — reads 0 under the lock. Never waits; returns whether
    /// the frame was taken (stepped, or stopped the node by panicking).
    fn try_step(&self, from: ProcessId, frame: &[u8], in_inbox: &AtomicUsize) -> bool;
}

/// A frame in the hands of the thread delivering it: lent, from a TCP
/// reader's reassembly buffer, or owned, as an in-memory sender's
/// payload is. Only a frame bound for the inbox is made owned, so a
/// lent frame is copied then and an owned one never.
pub(crate) trait HeldFrame: AsRef<[u8]> {
    /// The frame as the inbox takes it.
    fn into_owned(self) -> Bytes;
}

impl HeldFrame for &[u8] {
    fn into_owned(self) -> Bytes {
        Bytes::from(self.to_vec())
    }
}

impl HeldFrame for Bytes {
    fn into_owned(self) -> Bytes {
        self
    }
}

/// What the threads that deliver frames to one node share with it: a
/// way to step it, once the node has installed one, and the count of
/// each source's frames that went to the inbox instead. Three kinds of
/// thread call [`Readers::deliver`], by one rule: a [`TcpTransport`]'s
/// reader with a frame it has read, an in-memory sender with a frame it
/// has produced (a peer's node thread, or a thread stepping that peer),
/// and the delay line releasing a burst onto the in-memory transport.
///
/// The counts are the transport's, not the node's, so that a frame that
/// arrives before the node exists is counted like any other. A count is
/// raised before *every* inbox send and lowered by the node thread,
/// under the node's lock, only once the frame has been stepped: a
/// deliverer that holds the lock and reads 0 knows that no earlier frame
/// of its link is still waiting, whether in the inbox or popped and not
/// yet stepped, which is what lets it step ahead of nobody. Lowering at
/// the pop would let the next frame pass one the node thread holds,
/// which the loom model `reader_step_keeps_link_order` keeps as a test
/// that must fail. The frames of one link are delivered one at a time:
/// over TCP by the link's one reader, in memory under the sending node's
/// lock (whichever thread holds it), behind the delay line by its one
/// thread.
pub(crate) struct Readers {
    /// By source.
    in_inbox: Vec<AtomicUsize>,
    /// Weak: the node owns the transport that owns this, and a strong
    /// reference would keep all three alive for good.
    node: OnceLock<Weak<dyn StepInline>>,
}

impl Readers {
    /// For a deployment of `n` processes.
    pub(crate) fn new(n: usize) -> Self {
        Readers {
            in_inbox: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            node: OnceLock::new(),
        }
    }

    /// Lets the deliverers step `node` from now on.
    pub(crate) fn install(&self, node: Weak<dyn StepInline>) {
        let _ = self.node.set(node);
    }

    /// The node thread has stepped a frame from `from` that came through
    /// the inbox. Called under the node's lock, after the step.
    pub(crate) fn stepped(&self, from: ProcessId) {
        let before = self.in_inbox[from.index()].fetch_sub(1, Ordering::SeqCst);
        debug_assert!(before > 0, "a frame from {from} was stepped uncounted");
    }

    /// The delivery of one whole frame: stepped on this thread if the
    /// node is free, else counted and put in the inbox. False if the
    /// inbox is gone. `from` is one of the peers (over TCP the handshake
    /// check saw to that; in memory it is the sending node).
    pub(crate) fn deliver(
        &self,
        from: ProcessId,
        frame: impl HeldFrame,
        inbox: &Sender<(ProcessId, Bytes)>,
    ) -> bool {
        let in_inbox = &self.in_inbox[from.index()];
        if let Some(node) = self.node.get().and_then(Weak::upgrade) {
            if node.try_step(from, frame.as_ref(), in_inbox) {
                return true;
            }
        }
        in_inbox.fetch_add(1, Ordering::SeqCst);
        inbox.send((from, frame.into_owned())).is_ok()
    }
}

/// Which transport a cluster deploys over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TransportKind {
    /// [`InMemoryTransport`]: crossbeam channels, no sockets; a sender
    /// steps the destination node itself when the node is free.
    InMemory,
    /// [`TcpTransport`]: senders write inline when that cannot wait, a
    /// writer thread per destination does the waiting, and a read thread
    /// per accepted connection steps its node when the node is free.
    Tcp,
    /// [`crate::ReactorTransport`]: one non-blocking event-loop thread
    /// owning every socket.
    Reactor,
}

impl TransportKind {
    /// Makes the `n` endpoints of a deployment — the one place where a
    /// cluster's inboxes and transports come into being, erased behind
    /// the [`Transport`] trait object so cluster assembly is
    /// backend-generic. A non-zero `link_delay` routes every endpoint's
    /// sends through one delay line (see [`delay_links`]).
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures (binding the listeners; the
    /// reactor switching its listener into non-blocking mode).
    pub(crate) fn endpoints(
        self,
        n: usize,
        link_delay: Duration,
        obs: &ObserverHandle,
    ) -> Result<Vec<Endpoint>, RuntimeError> {
        let endpoints: Vec<Endpoint> = match self {
            TransportKind::InMemory => {
                let readers: Vec<_> = (0..n).map(|_| Arc::new(Readers::new(n))).collect();
                let (transport, inboxes) = InMemoryTransport::stepping(readers.clone());
                inboxes
                    .into_iter()
                    .zip(readers)
                    .map(|(inbox, readers)| Endpoint {
                        inbox,
                        transport: Box::new(transport.clone()),
                        readers: Some(readers),
                    })
                    .collect()
            }
            TransportKind::Tcp | TransportKind::Reactor => {
                let mut listeners = Vec::with_capacity(n);
                let mut addrs = Vec::with_capacity(n);
                for _ in 0..n {
                    let (listener, addr) = TcpTransport::bind_ephemeral()?;
                    listeners.push(listener);
                    addrs.push(addr);
                }
                let mut endpoints = Vec::with_capacity(n);
                for (i, listener) in listeners.into_iter().enumerate() {
                    let me = ProcessId::new(i as u32);
                    let (tx, inbox) = crossbeam::channel::unbounded();
                    let (peers, obs) = (addrs.clone(), obs.clone());
                    let (transport, readers): (Box<dyn Transport>, _) = if self
                        == TransportKind::Tcp
                    {
                        let tcp = TcpTransport::spawn(me, peers, listener, tx, obs);
                        let readers = Some(Arc::clone(&tcp.readers));
                        (Box::new(tcp), readers)
                    } else {
                        let reactor = crate::ReactorTransport::spawn(me, peers, listener, tx, obs)?;
                        (Box::new(reactor), None)
                    };
                    endpoints.push(Endpoint {
                        inbox,
                        transport,
                        readers,
                    });
                }
                endpoints
            }
        };
        Ok(if link_delay.is_zero() {
            endpoints
        } else {
            delay_links(endpoints, link_delay)
        })
    }
}

/// A burst held on the delay line:
/// `(maturity instant, from, to, payloads)`.
type Delayed = (Instant, ProcessId, ProcessId, Vec<Bytes>);

/// The send side of the emulated link latency: stamps each burst with
/// its maturity instant and hands it to the delay-line thread.
#[derive(Clone)]
struct DelayedTransport {
    delay: Duration,
    line: Sender<Delayed>,
}

impl Transport for DelayedTransport {
    fn send(&self, from: ProcessId, to: ProcessId, payload: Bytes) {
        self.send_many(from, to, vec![payload]);
    }

    fn send_many(&self, from: ProcessId, to: ProcessId, payloads: Vec<Bytes>) {
        // Stamped at send time, so delays never compound while the line
        // sleeps. A send failure only means global teardown — drop it,
        // matching the crash-stop convention.
        let _ = self
            .line
            .send((Instant::now() + self.delay, from, to, payloads));
    }
}

/// Puts an emulated one-way link latency in front of `endpoints`, on
/// every backend alike: each send is held on **one** delay-line thread
/// until `delay` after it was issued, then goes out on the sender's
/// real transport. Uniform delay + FIFO line means send order is
/// release order, so per-link ordering is exactly the underlying
/// transport's. The socket backends add their real (tiny) localhost
/// latency on top, which keeps a given `delay` comparable across all
/// three backends.
///
/// This turns a cluster into a deployment where commit latency is
/// wall-clock-bound rather than CPU-bound — the regime real WAN
/// deployments live in, and the one where pipelining and sharding
/// visibly buy throughput. The thread owns the real transports and
/// exits, dropping them, once every node has dropped its endpoint.
///
/// In memory, releasing a burst *is* the in-memory send: the line steps
/// the destination node itself when the node is free, so a burst can go
/// out late by the length of the steps released before it.
fn delay_links(endpoints: Vec<Endpoint>, delay: Duration) -> Vec<Endpoint> {
    let (line, held) = crossbeam::channel::unbounded::<Delayed>();
    let (transports, receiving): (Vec<_>, Vec<_>) = endpoints
        .into_iter()
        .map(|e| (e.transport, (e.inbox, e.readers)))
        .unzip();
    thread::Builder::new()
        .name("twostep-delay-line".into())
        .spawn(move || {
            while let Ok((deliver_at, from, to, payloads)) = held.recv() {
                thread::sleep(deliver_at.saturating_duration_since(Instant::now()));
                if let Some(transport) = transports.get(from.index()) {
                    transport.send_many(from, to, payloads);
                }
            }
        })
        .expect("spawn delay-line thread");
    let delayed = DelayedTransport { delay, line };
    receiving
        .into_iter()
        .map(|(inbox, readers)| Endpoint {
            inbox,
            transport: Box::new(delayed.clone()),
            readers,
        })
        .collect()
}

/// In-memory transport: each node's inbox is a crossbeam channel.
///
/// A multi-payload [`Transport::send_many`] is coalesced into one
/// packed frame; receivers iterate it in place with
/// [`codec::frame_messages`] (the runtime node does this for every
/// inbox payload).
///
/// **Who steps a frame.** A transport made with
/// [`InMemoryTransport::new`] only moves frames: each send is one
/// channel send into the destination's inbox, and the node thread
/// steps it. The transport a cluster built by
/// [`crate::ClusterBuilder`] runs on also steps them: a send `try_lock`s
/// the destination node and, if it gets it, the node has not stopped
/// and no earlier frame from the same sender is still in the inbox,
/// runs the node's step on the sending thread — so a message delay
/// costs no thread hand-off while the peer is free. Otherwise the
/// payload the sender already owns goes into the inbox, uncopied. The
/// rule is the one a [`TcpTransport`] reader follows, through the same
/// routine; a sender never waits for a node.
///
/// # Example
///
/// ```rust
/// use twostep_runtime::{InMemoryTransport, Transport};
/// use twostep_types::ProcessId;
/// use bytes::Bytes;
///
/// let (transport, inboxes) = InMemoryTransport::new(3);
/// transport.send(ProcessId::new(0), ProcessId::new(2), Bytes::from_static(b"hi"));
/// let (from, payload) = inboxes[2].recv().unwrap();
/// assert_eq!(from, ProcessId::new(0));
/// assert_eq!(&payload[..], b"hi");
/// ```
#[derive(Clone)]
pub struct InMemoryTransport {
    inboxes: Arc<Vec<Sender<(ProcessId, Bytes)>>>,
    /// By destination; empty for a transport that only moves frames.
    readers: Arc<[Arc<Readers>]>,
}

impl InMemoryTransport {
    /// Creates a transport for `n` processes, returning the receiving
    /// ends of the inboxes in process order. Every frame it carries goes
    /// to the inbox.
    pub fn new(n: usize) -> (Self, Vec<crossbeam::channel::Receiver<(ProcessId, Bytes)>>) {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = crossbeam::channel::unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        (
            InMemoryTransport {
                inboxes: Arc::new(senders),
                readers: Arc::new([]),
            },
            receivers,
        )
    }

    /// The same for `readers.len()` processes, delivering to process
    /// `p` through `readers[p]`: once node `p` has installed itself
    /// there, a send steps it on the sending thread whenever it is free.
    pub(crate) fn stepping(
        readers: Vec<Arc<Readers>>,
    ) -> (Self, Vec<crossbeam::channel::Receiver<(ProcessId, Bytes)>>) {
        let (transport, inboxes) = Self::new(readers.len());
        let readers = readers.into();
        (
            InMemoryTransport {
                readers,
                ..transport
            },
            inboxes,
        )
    }
}

impl Transport for InMemoryTransport {
    fn send(&self, from: ProcessId, to: ProcessId, payload: Bytes) {
        let Some(tx) = self.inboxes.get(to.index()) else {
            return;
        };
        // A closed inbox means the destination crashed: drop.
        match self.readers.get(to.index()) {
            Some(readers) => {
                readers.deliver(from, payload, tx);
            }
            None => {
                let _ = tx.send((from, payload));
            }
        }
    }

    fn send_many(&self, from: ProcessId, to: ProcessId, payloads: Vec<Bytes>) {
        match payloads.len() {
            0 => {}
            1 => self.send(from, to, payloads.into_iter().next().expect("len checked")),
            _ => self.send(from, to, codec::pack_frame(&payloads)),
        }
    }
}

/// TCP transport over localhost (or any reachable addresses): one
/// listener per process, and one connection + writer thread per
/// destination.
///
/// Wire format per connection: a 4-byte little-endian sender id
/// handshake, then frames of `[len: u32 LE][payload]`. A payload is
/// either a single encoded message or a coalesced multi-message frame
/// (tagged [`codec::FRAME_MAGIC`]); the receive path forwards each
/// payload to the inbox whole, and consumers iterate coalesced frames in
/// place with [`codec::frame_messages`] — the same contract as the
/// in-memory and reactor backends. A receiver hangs up on a peer whose
/// handshake id is not in the peer list or whose length prefix is over
/// [`codec::MAX_FRAME_LEN`]. All of this is the `wire` module's, shared
/// with [`crate::ReactorTransport`]; this backend only decides who
/// waits.
///
/// **Who may wait.** The caller of [`Transport::send`] /
/// [`Transport::send_many`]: never. When the connection to the
/// destination is up, nothing is queued ahead of the burst and no frame
/// is half out, the burst is written from the calling thread — one frame
/// (up to [`crate::MAX_COALESCE`] messages and [`codec::MAX_FRAME_LEN`]
/// bytes) in one vectored `write` syscall on a non-blocking
/// `TCP_NODELAY` connection — and a message delay costs one thread
/// hand-off less. Everything that could wait is the destination's writer
/// thread's: the first dial, a socket buffer that is full (the part of
/// the frame it did not take is kept and handed over), the
/// [`crate::RECONNECT_BACKOFF`] before a failed frame's one redial, and
/// any burst that arrives while one of those is going on, which queues
/// behind it so per-destination order holds. The reader thread of each
/// accepted connection waits in `read`, the accept thread in `accept`.
///
/// **What a reader does with a frame.** In a cluster built by
/// [`crate::ClusterBuilder::tcp`] the reader steps its node when the node
/// is free, and never waits for it: it `try_lock`s the node and, if it
/// gets it, the node has not stopped and no earlier frame from the same
/// peer is still in the inbox, it runs the step the node thread would
/// have run, on its own thread — so a message delay costs one hand-off
/// (node → kernel → reader, which steps); an in-memory send follows the
/// same rule from the sending thread and costs none. Otherwise, and
/// always for a transport made with [`TcpTransport::spawn`] alone, it
/// copies the frame into the inbox and the node thread steps it.
///
/// A single payload over [`codec::MAX_FRAME_LEN`] is dropped, as no
/// receiver accepts its frame. A frame whose write fails is resent whole
/// after one redial and dropped if that fails too; drops, successful
/// reconnects and each frame's wire size (`bytes_sent`, kind `"wire"`)
/// are reported to the attached observer.
///
/// Dropping the transport ends its threads: the writers when their
/// queues close, the accept thread — and with it the listening port —
/// on the wake-up connection `Drop` dials to it, the readers (which
/// from then on discard what they read) when their peers hang up.
pub struct TcpTransport {
    host: Arc<Host>,
    /// By destination; a link and its writer thread come into being on
    /// the first send to it.
    links: Vec<OnceLock<Link>>,
    /// Tells the accept thread that the connection it just accepted is
    /// `Drop`'s wake-up call.
    closing: Arc<AtomicBool>,
    /// Shared with every reader thread.
    readers: Arc<Readers>,
}

/// The sending side of one destination.
struct Link {
    state: Arc<LinkState>,
    /// Deliberately outside `state`, which the writer thread shares:
    /// the writer exits when this sender drops, so the transport handle
    /// going away tears the writers down rather than leaking them.
    to_writer: Sender<Job>,
}

/// What a destination's senders and its writer thread share.
struct LinkState {
    /// The lock means *who owns the connection right now*. A sender
    /// only ever `try_lock`s it; the writer thread holds it for as long
    /// as it has something to wait for, with the stream switched to
    /// blocking, and hands it back non-blocking.
    out: Mutex<Outgoing<TcpStream>>,
    /// Bursts sent to the writer thread that are not in `out` yet.
    /// Raised before the burst is enqueued and lowered, under the lock,
    /// once it has been pushed: a sender that holds the lock and reads 0
    /// knows nothing of its own is still on the way to `out`, which is
    /// what lets it write ahead of nobody.
    queued: AtomicUsize,
}

/// What a sender hands the writer thread.
enum Job {
    /// Payloads to queue behind whatever `out` holds.
    Burst(Vec<Bytes>),
    /// `out` holds a frame the sender could not finish (socket buffer
    /// full, or a failed write waiting out its back-off): take over.
    Resume,
}

/// How long the accept thread waits after a failed `accept` before
/// trying again.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

impl TcpTransport {
    /// Binds a listener on an OS-assigned localhost port and returns its
    /// address, for assembling the peer list before
    /// [`TcpTransport::spawn`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_ephemeral() -> Result<(TcpListener, SocketAddr), RuntimeError> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(RuntimeError::Io)?;
        let addr = listener.local_addr().map_err(RuntimeError::Io)?;
        Ok((listener, addr))
    }

    /// Creates the transport for process `me` given everyone's listening
    /// addresses (`peers[me]` being `listener`'s own), and spawns the
    /// accept loop feeding `inbox`. Pass [`ObserverHandle::none`] to run
    /// unobserved; with an observer attached, dropped frames
    /// (`message_dropped`, once per message), successful redials
    /// (`reconnected`) and wire-level frame sizes (`bytes_sent` under
    /// kind `"wire"`) are reported.
    ///
    /// Every thread the transport starts ends once the handle is
    /// dropped, and the listening port closes with the accept thread.
    pub fn spawn(
        me: ProcessId,
        peers: Vec<SocketAddr>,
        listener: TcpListener,
        inbox: Sender<(ProcessId, Bytes)>,
        obs: ObserverHandle,
    ) -> Arc<Self> {
        let transport = Arc::new(TcpTransport {
            links: (0..peers.len()).map(|_| OnceLock::new()).collect(),
            readers: Arc::new(Readers::new(peers.len())),
            host: Arc::new(Host { me, peers, obs }),
            closing: Arc::new(AtomicBool::new(false)),
        });
        let (host, closing) = (Arc::clone(&transport.host), Arc::clone(&transport.closing));
        let readers = Arc::clone(&transport.readers);
        // Set by the first reader whose delivery the inbox refuses.
        let inbox_gone = Arc::new(AtomicBool::new(false));
        thread::spawn(move || loop {
            match listener.accept() {
                // `Drop`'s wake-up call: leave, closing the listener.
                Ok(_) if closing.load(Ordering::Acquire) => return,
                Ok((stream, _)) => {
                    let (host, inbox, readers) = (host.clone(), inbox.clone(), readers.clone());
                    let (gone, closing) = (inbox_gone.clone(), closing.clone());
                    thread::spawn(move || {
                        read_loop(&host, stream, &inbox, &readers, &gone, &closing);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // An `accept` error is about one connection or one
                // moment (`ECONNABORTED`, `EMFILE`), not the listener:
                // ending the thread on it would leave the node deaf to
                // every later redial while its writers kept working.
                // Pause so a persistent error cannot spin, and go on
                // for as long as there is a node to deliver to.
                Err(_) if inbox_gone.load(Ordering::Acquire) => return,
                Err(_) => thread::sleep(ACCEPT_RETRY_PAUSE),
            }
        });
        transport
    }

    /// The link to `to`, spawning its writer thread on first use.
    fn link_to(&self, to: ProcessId) -> Option<&Link> {
        Some(self.links.get(to.index())?.get_or_init(|| {
            let (to_writer, jobs) = crossbeam::channel::unbounded();
            let state = Arc::new(LinkState {
                out: Mutex::new(Outgoing::new()),
                queued: AtomicUsize::new(0),
            });
            let (host, shared) = (Arc::clone(&self.host), Arc::clone(&state));
            thread::spawn(move || writer_loop(&host, to, &shared, &jobs));
            Link { state, to_writer }
        }))
    }
}

impl Drop for TcpTransport {
    /// The accept thread is blocked in `accept` and nothing else would
    /// end that: mark the transport closing and dial the listener, so
    /// the call returns and the thread leaves, closing the port. A dial
    /// that fails means the listener is already gone.
    fn drop(&mut self) {
        self.closing.store(true, Ordering::Release);
        if let Some(addr) = self.host.peers.get(self.host.me.index()) {
            let _ = TcpStream::connect(addr);
        }
    }
}

impl Transport for Arc<TcpTransport> {
    fn send(&self, from: ProcessId, to: ProcessId, payload: Bytes) {
        self.send_many(from, to, vec![payload]);
    }

    fn send_many(&self, _from: ProcessId, to: ProcessId, payloads: Vec<Bytes>) {
        if payloads.is_empty() {
            return;
        }
        let Some(link) = self.link_to(to) else {
            return;
        };
        // Inline, when the connection is this thread's for the taking
        // and writing now is writing in order. A dial is a wait, so the
        // caller's never succeeds (and, the connection being up, is
        // never asked for).
        if let Some(mut out) = link.state.out.try_lock() {
            let in_order = out.is_idle() && link.state.queued.load(Ordering::SeqCst) == 0;
            if in_order && out.conn().is_some() {
                payloads.into_iter().for_each(|p| out.push(p));
                let no_dial = || Err(io::ErrorKind::NotConnected.into());
                loop {
                    match out.flush(&self.host, to, Instant::now(), no_dial) {
                        Flushed::Sent(_) => {}
                        Flushed::Drained => return,
                        // The rest is a wait, and so the writer's.
                        Flushed::Full | Flushed::Backoff(_) => break,
                    }
                }
                // Let go first, so the writer does not wake into the lock.
                drop(out);
                let _ = link.to_writer.send(Job::Resume);
                return;
            }
        }
        link.state.queued.fetch_add(1, Ordering::SeqCst);
        let _ = link.to_writer.send(Job::Burst(payloads));
    }
}

/// Switches the connection `out` holds, if any, between the writer
/// thread's blocking mode and the senders' non-blocking one. A socket
/// that refuses is of no use in the mode it is stuck in: the next write
/// treats it as broken, and the retry rule replaces it.
fn set_blocking(out: &mut Outgoing<TcpStream>, blocking: bool) {
    if out
        .conn()
        .is_some_and(|conn| conn.set_nonblocking(!blocking).is_err())
    {
        out.poison();
    }
}

/// The writer thread toward `to`: the one place that waits on the
/// connection. Woken by a job, it takes the connection over, blocks
/// wherever [`Outgoing::flush`] says to wait until queue and frame are
/// drained — everything queued when a frame is built rides in it — and
/// lets go.
fn writer_loop(host: &Host, to: ProcessId, link: &LinkState, jobs: &Receiver<Job>) {
    let take = |out: &mut Outgoing<TcpStream>, job| {
        if let Job::Burst(payloads) = job {
            payloads.into_iter().for_each(|p| out.push(p));
            link.queued.fetch_sub(1, Ordering::SeqCst);
        }
    };
    // The job senders dropping is the shutdown signal.
    while let Ok(job) = jobs.recv() {
        let mut out = link.out.lock();
        set_blocking(&mut out, true);
        take(&mut out, job);
        loop {
            while let Ok(job) = jobs.try_recv() {
                take(&mut out, job);
            }
            match out.flush(host, to, Instant::now(), || host.dial(to)) {
                // A blocking socket is never `Full`.
                Flushed::Sent(_) | Flushed::Full => {}
                Flushed::Backoff(until) => {
                    thread::sleep(until.saturating_duration_since(Instant::now()));
                }
                Flushed::Drained => break,
            }
        }
        set_blocking(&mut out, false);
    }
}

/// The reader thread of one accepted connection: blocks in
/// [`Incoming::pump`] until the connection ends, and hands each frame to
/// [`Readers::deliver`] — which steps the node on this thread when it is
/// free, and never waits for it.
///
/// Once the transport is `closing` what arrives is read and discarded
/// until the peer hangs up: a process that has stopped stops receiving,
/// it does not reset connections. Hanging up on a live peer makes it
/// redial, and with the listener gone that reads to it as a peer that
/// crashed (`message_dropped`) — which a cluster stopping node by node
/// would report about every node but the last.
fn read_loop(
    host: &Host,
    mut stream: TcpStream,
    inbox: &Sender<(ProcessId, Bytes)>,
    readers: &Readers,
    inbox_gone: &AtomicBool,
    closing: &AtomicBool,
) {
    let mut conn = Incoming::new();
    let mut deliver =
        |from, frame: &[u8]| readers.deliver(from, frame, inbox) || closing.load(Ordering::Acquire);
    loop {
        match conn.pump(host, &mut stream, &mut deliver) {
            Pumped::Open => {} // not on a blocking socket
            Pumped::Closed => return,
            Pumped::InboxGone => return inbox_gone.store(true, Ordering::Release),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use std::time::Duration;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn tcp(
        me: ProcessId,
        peers: Vec<SocketAddr>,
        listener: TcpListener,
        inbox: Sender<(ProcessId, Bytes)>,
    ) -> Arc<TcpTransport> {
        TcpTransport::spawn(me, peers, listener, inbox, ObserverHandle::none())
    }

    /// Receives until `n` individual messages have arrived, iterating
    /// coalesced frames in place — the consumer-side contract shared by
    /// every backend.
    fn recv_messages(
        rx: &crossbeam::channel::Receiver<(ProcessId, Bytes)>,
        n: usize,
    ) -> Vec<(ProcessId, Vec<u8>)> {
        let mut out = Vec::new();
        while out.len() < n {
            let (from, payload) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            for m in codec::frame_messages(&payload).unwrap() {
                out.push((from, m.to_vec()));
            }
        }
        out
    }

    #[test]
    fn memory_transport_routes_by_destination() {
        let (t, inboxes) = InMemoryTransport::new(3);
        t.send(p(0), p(1), Bytes::from_static(b"a"));
        t.send(p(2), p(1), Bytes::from_static(b"b"));
        t.send(p(1), p(0), Bytes::from_static(b"c"));
        let got1: Vec<_> = (0..2).map(|_| inboxes[1].recv().unwrap()).collect();
        assert_eq!(got1[0], (p(0), Bytes::from_static(b"a")));
        assert_eq!(got1[1], (p(2), Bytes::from_static(b"b")));
        assert_eq!(inboxes[0].recv().unwrap().0, p(1));
        assert!(inboxes[2].is_empty());
    }

    #[test]
    fn memory_transport_tolerates_closed_inbox() {
        let (t, inboxes) = InMemoryTransport::new(2);
        drop(inboxes);
        // Must not panic.
        t.send(p(0), p(1), Bytes::from_static(b"x"));
    }

    #[test]
    fn memory_transport_out_of_range_destination_is_dropped() {
        let (t, _inboxes) = InMemoryTransport::new(2);
        t.send(p(0), p(9), Bytes::from_static(b"x"));
    }

    #[test]
    fn memory_transport_coalesces_bursts_into_one_channel_send() {
        let (t, inboxes) = InMemoryTransport::new(2);
        let burst = vec![
            Bytes::from_static(b"one"),
            Bytes::from_static(b"two"),
            Bytes::from_static(b"three"),
        ];
        t.send_many(p(0), p(1), burst.clone());
        // Exactly one channel item: the packed frame.
        let (from, packed) = inboxes[1].recv().unwrap();
        assert_eq!(from, p(0));
        assert!(inboxes[1].is_empty());
        let msgs: Vec<&[u8]> = codec::frame_messages(&packed).unwrap().collect();
        assert_eq!(msgs, burst.iter().map(|m| &m[..]).collect::<Vec<_>>());
        // A one-element burst stays a legacy payload.
        t.send_many(p(0), p(1), vec![Bytes::from_static(b"solo")]);
        assert_eq!(&inboxes[1].recv().unwrap().1[..], b"solo");
    }

    #[test]
    fn tcp_transport_end_to_end() {
        // Two processes, full handshake + framing.
        let (l0, a0) = TcpTransport::bind_ephemeral().unwrap();
        let (l1, a1) = TcpTransport::bind_ephemeral().unwrap();
        let peers = vec![a0, a1];
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t0 = tcp(p(0), peers.clone(), l0, tx0);
        let t1 = tcp(p(1), peers, l1, tx1);

        t0.send(p(0), p(1), Bytes::from_static(b"hello"));
        let (from, payload) = rx1.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, p(0));
        assert_eq!(&payload[..], b"hello");

        // Reply on the reverse direction (separate connection).
        t1.send(p(1), p(0), Bytes::from_static(b"world"));
        let (from, payload) = rx0.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, p(1));
        assert_eq!(&payload[..], b"world");

        // Multiple sends keep their boundaries and order — whether or
        // not the writer coalesced them into one wire frame, the
        // consumer-side frame iteration sees individual messages.
        t0.send(p(0), p(1), Bytes::from_static(b"one"));
        t0.send(p(0), p(1), Bytes::from_static(b"two"));
        let msgs = recv_messages(&rx1, 2);
        assert_eq!(msgs[0], (p(0), b"one".to_vec()));
        assert_eq!(msgs[1], (p(0), b"two".to_vec()));
    }

    #[test]
    fn tcp_burst_arrives_as_individual_messages_in_order() {
        let (l0, a0) = TcpTransport::bind_ephemeral().unwrap();
        let (l1, a1) = TcpTransport::bind_ephemeral().unwrap();
        let (tx0, _rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t0 = tcp(p(0), vec![a0, a1], l0, tx0);
        let _t1 = tcp(p(1), vec![a0, a1], l1, tx1);

        let burst: Vec<Bytes> = (0..10u8)
            .map(|i| Bytes::from(vec![i; (i as usize % 4) + 1]))
            .collect();
        t0.send_many(p(0), p(1), burst.clone());
        let got = recv_messages(&rx1, burst.len());
        for (want, (from, msg)) in burst.iter().zip(&got) {
            assert_eq!(*from, p(0));
            assert_eq!(msg, &want.to_vec());
        }
    }

    #[test]
    fn tcp_send_to_dead_peer_does_not_panic() {
        let (l0, a0) = TcpTransport::bind_ephemeral().unwrap();
        // Reserve then drop a second address so nothing listens there.
        let (l1, a1) = TcpTransport::bind_ephemeral().unwrap();
        drop(l1);
        let (tx0, _rx0) = unbounded();
        let t0 = tcp(p(0), vec![a0, a1], l0, tx0);
        t0.send(p(0), p(1), Bytes::from_static(b"into the void"));
    }

    #[test]
    fn tcp_send_to_dead_peer_records_drop_after_one_retry() {
        let (metrics, obs) = twostep_telemetry::Metrics::shared();
        let (l0, a0) = TcpTransport::bind_ephemeral().unwrap();
        let (l1, a1) = TcpTransport::bind_ephemeral().unwrap();
        drop(l1);
        let (tx0, _rx0) = unbounded();
        let t0 = TcpTransport::spawn(p(0), vec![a0, a1], l0, tx0, obs);
        t0.send(p(0), p(1), Bytes::from_static(b"x"));
        // The writer thread retries once then records the drop; poll for
        // it (sends are asynchronous now).
        for _ in 0..200 {
            let snap = metrics.snapshot();
            if snap.dropped > 0 {
                assert_eq!(snap.dropped, 1, "both attempts failed: one drop");
                assert_eq!(snap.reconnects, 0);
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("no drop recorded after a send to a dead peer");
    }

    /// Every frame that goes out whole is reported under the kind
    /// `"wire"` with the bytes the connection took for it: the payload
    /// plus its framing, whichever thread wrote it.
    #[test]
    fn tcp_reports_each_frame_with_its_wire_size() {
        let (metrics, obs) = twostep_telemetry::Metrics::shared();
        let (l0, a0) = TcpTransport::bind_ephemeral().unwrap();
        let (l1, a1) = TcpTransport::bind_ephemeral().unwrap();
        let (tx0, _rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t0 = TcpTransport::spawn(p(0), vec![a0, a1], l0, tx0, obs);
        let _t1 = tcp(p(1), vec![a0, a1], l1, tx1);

        // Through the writer thread, which dials: `[len] hello`. The
        // handshake is the connection's, not a frame's. Waiting for each
        // frame to arrive keeps the next from riding in it.
        t0.send(p(0), p(1), Bytes::from_static(b"hello"));
        recv_messages(&rx1, 1);
        // From this thread or that one, one burst is one frame:
        // `[len][magic][count] [1]a [2]bb`.
        let burst = vec![Bytes::from_static(b"a"), Bytes::from_static(b"bb")];
        let packed = codec::pack_frame(&burst).len() as u64;
        assert_eq!(packed, 8 + (4 + 1) + (4 + 2));
        t0.send_many(p(0), p(1), burst);
        recv_messages(&rx1, 2);
        // A frame is written and reported under the connection's lock,
        // so once a third has arrived the first two are on record; its
        // own report may still be on the way.
        t0.send(p(0), p(1), Bytes::from_static(b"tail"));
        recv_messages(&rx1, 1);

        let wire = metrics.snapshot().bytes_by_kind["wire"];
        let tail = wire.messages - 2;
        assert!(tail <= 1, "{wire:?}");
        assert_eq!(wire.bytes, (4 + 5) + (4 + packed) + tail * (4 + 4));
    }

    #[test]
    fn tcp_send_reconnects_after_remote_close() {
        // Peer 1 accepts connections but its inbox receiver is gone, so
        // every accepted connection is torn down immediately. Writes on
        // the stale connection eventually fail; the writer must redial
        // (listener still alive) and count a reconnect rather than
        // dropping silently forever.
        let (metrics, obs) = twostep_telemetry::Metrics::shared();
        let (l0, a0) = TcpTransport::bind_ephemeral().unwrap();
        let (l1, a1) = TcpTransport::bind_ephemeral().unwrap();
        let (tx0, _rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t0 = TcpTransport::spawn(p(0), vec![a0, a1], l0, tx0, obs);
        let _t1 = tcp(p(1), vec![a0, a1], l1, tx1);
        drop(rx1); // remote tears down every accepted connection
        for _ in 0..100 {
            t0.send(p(0), p(1), Bytes::from_static(b"probe"));
            if metrics.snapshot().reconnects > 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("no reconnect recorded after 100 sends to a closing peer");
    }
}
