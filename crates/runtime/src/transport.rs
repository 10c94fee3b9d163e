//! Byte transports between runtime nodes.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
/// drains and the transport its sends go out on.
pub(crate) type Endpoint = (Receiver<(ProcessId, Bytes)>, Box<dyn Transport>);

/// Which transport a cluster deploys over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TransportKind {
    /// [`InMemoryTransport`]: crossbeam channels, no sockets.
    InMemory,
    /// [`TcpTransport`]: blocking writer thread per destination, read
    /// thread per accepted connection.
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
                let (transport, inboxes) = InMemoryTransport::new(n);
                inboxes
                    .into_iter()
                    .map(|inbox| (inbox, Box::new(transport.clone()) as Box<dyn Transport>))
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
                    let transport: Box<dyn Transport> = if self == TransportKind::Tcp {
                        Box::new(TcpTransport::spawn(me, peers, listener, tx, obs))
                    } else {
                        Box::new(crate::ReactorTransport::spawn(
                            me, peers, listener, tx, obs,
                        )?)
                    };
                    endpoints.push((inbox, transport));
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
fn delay_links(endpoints: Vec<Endpoint>, delay: Duration) -> Vec<Endpoint> {
    let (line, held) = crossbeam::channel::unbounded::<Delayed>();
    let (inboxes, transports): (Vec<_>, Vec<_>) = endpoints.into_iter().unzip();
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
    inboxes
        .into_iter()
        .map(|inbox| (inbox, Box::new(delayed.clone()) as Box<dyn Transport>))
        .collect()
}

/// In-memory transport: each node's inbox is a crossbeam channel.
///
/// A multi-payload [`Transport::send_many`] is coalesced into one
/// channel send carrying a packed frame; receivers iterate it in place
/// with [`codec::frame_messages`] (the runtime node does this for every
/// inbox payload).
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
}

impl InMemoryTransport {
    /// Creates a transport for `n` processes, returning the receiving
    /// ends of the inboxes in process order.
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
            },
            receivers,
        )
    }
}

impl Transport for InMemoryTransport {
    fn send(&self, from: ProcessId, to: ProcessId, payload: Bytes) {
        if let Some(tx) = self.inboxes.get(to.index()) {
            // A closed inbox means the destination crashed: drop.
            let _ = tx.send((from, payload));
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
/// listener per process, and one send queue + writer thread per
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
/// waits: a thread per connection, blocking.
///
/// Sends are asynchronous: [`Transport::send`] enqueues and returns.
/// The destination's writer thread drains its queue — everything queued
/// at flush time (up to [`crate::MAX_COALESCE`] messages and
/// [`codec::MAX_FRAME_LEN`] bytes) goes out as **one** frame in one
/// vectored `write` syscall on a `TCP_NODELAY` connection, which is
/// where batched SMR traffic stops paying a syscall per message. A
/// single payload over that length is dropped, as no receiver accepts
/// its frame. On a write failure the writer redials once (after
/// [`crate::RECONNECT_BACKOFF`]) before dropping the frame; drops and
/// successful reconnects are reported to the attached observer.
pub struct TcpTransport {
    host: Arc<Host>,
    /// Deliberately outside `host`, which the writer threads share:
    /// writers exit when the queue senders drop, so the transport handle
    /// going away tears the writers down rather than leaking them.
    queues: Mutex<Vec<Option<Sender<Bytes>>>>,
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
    /// addresses, and spawns the accept loop feeding `inbox`. Pass
    /// [`ObserverHandle::none`] to run unobserved; with an observer
    /// attached, dropped frames (`message_dropped`, once per message)
    /// and successful redials (`reconnected`) are reported.
    ///
    /// The accept thread runs for as long as the node has an inbox;
    /// writer threads exit when the transport handle is dropped.
    pub fn spawn(
        me: ProcessId,
        peers: Vec<SocketAddr>,
        listener: TcpListener,
        inbox: Sender<(ProcessId, Bytes)>,
        obs: ObserverHandle,
    ) -> Arc<Self> {
        let transport = Arc::new(TcpTransport {
            queues: Mutex::new((0..peers.len()).map(|_| None).collect()),
            host: Arc::new(Host { me, peers, obs }),
        });
        let host = Arc::clone(&transport.host);
        // Set by the first reader whose delivery the inbox refuses.
        let inbox_gone = Arc::new(AtomicBool::new(false));
        thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let (host, inbox, gone) = (host.clone(), inbox.clone(), inbox_gone.clone());
                    thread::spawn(move || read_loop(&host, stream, &inbox, &gone));
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

    /// The send queue to `to`, lazily spawning its writer thread.
    fn queue_to(&self, to: ProcessId) -> Option<Sender<Bytes>> {
        let mut queues = self.queues.lock();
        let slot = queues.get_mut(to.index())?;
        if slot.is_none() {
            let (tx, rx) = crossbeam::channel::unbounded();
            let host = Arc::clone(&self.host);
            thread::spawn(move || writer_loop(&host, to, &rx));
            *slot = Some(tx);
        }
        slot.clone()
    }
}

impl Transport for Arc<TcpTransport> {
    fn send(&self, _from: ProcessId, to: ProcessId, payload: Bytes) {
        if let Some(q) = self.queue_to(to) {
            let _ = q.send(payload);
        }
    }

    fn send_many(&self, _from: ProcessId, to: ProcessId, payloads: Vec<Bytes>) {
        if let Some(q) = self.queue_to(to) {
            for p in payloads {
                let _ = q.send(p);
            }
        }
    }
}

/// The writer thread toward `to`: blocks wherever [`Outgoing::flush`]
/// says to wait. Everything queued when a frame is built rides in it.
fn writer_loop(host: &Host, to: ProcessId, rx: &Receiver<Bytes>) {
    let mut out = Outgoing::new();
    loop {
        while let Ok(payload) = rx.try_recv() {
            out.push(payload);
        }
        match out.flush(host, to, Instant::now(), || host.dial(to)) {
            // A blocking socket is never `Full`.
            Flushed::Sent(_) | Flushed::Full => {}
            Flushed::Backoff(until) => {
                thread::sleep(until.saturating_duration_since(Instant::now()));
            }
            // The queue senders dropping is the shutdown signal.
            Flushed::Drained => match rx.recv() {
                Ok(payload) => out.push(payload),
                Err(_) => return,
            },
        }
    }
}

/// The reader thread of one accepted connection: blocks in
/// [`Incoming::pump`] until the connection ends.
fn read_loop(
    host: &Host,
    mut stream: TcpStream,
    inbox: &Sender<(ProcessId, Bytes)>,
    inbox_gone: &AtomicBool,
) {
    let mut conn = Incoming::new();
    let mut deliver = |from, frame| inbox.send((from, frame)).is_ok();
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
        assert_eq!(codec::unpack_frame(&packed).unwrap(), burst);
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
