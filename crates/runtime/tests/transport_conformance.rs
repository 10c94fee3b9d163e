//! Backend-agnostic transport conformance suite.
//!
//! One parameterized harness runs every scenario against all three
//! transport backends — in-memory channels, blocking TCP, and the
//! non-blocking reactor — pinning the contract the runtime node relies
//! on regardless of which backend a cluster deploys:
//!
//! * **Delivery**: every ordered `(sender, receiver)` pair works,
//!   self-sends included, with the correct sender identity attached.
//! * **FIFO per peer**: one sender's messages toward one receiver
//!   arrive in send order, whether sent singly or in bursts, and
//!   interleaved senders never corrupt each other's order.
//! * **Coalescing**: a [`Transport::send_many`] burst keeps message
//!   boundaries and order; consumers see individual messages by
//!   iterating frames in place ([`codec::frame_messages`] — the same
//!   normalization the runtime node performs on every inbox payload).
//! * **Shard-tag routing**: [`codec::tag_shard`] envelopes cross the
//!   wire byte-identically, nested inside coalesced frames, surviving
//!   the socket backends' partial reads.
//! * **Degenerate payloads**: empty and multi-hundred-KiB messages
//!   survive (the latter exercises the reactor's partial-write
//!   resumption and read-buffer growth).
//! * **Frame-length ceiling** (socket backends): a peer announcing a
//!   frame above [`codec::MAX_FRAME_LEN`] costs its own connection,
//!   which the receiver closes, and nothing else — the node keeps
//!   serving every other connection.
//! * **Frame-length ceiling, sending side** (socket backends): a burst
//!   over it goes out as several frames, a single payload over it is
//!   dropped where it is sent, and neither costs the connection.
//! * **Handshake id** (socket backends): a peer whose handshake names a
//!   process outside the deployment is hung up on with nothing
//!   delivered, and the node keeps serving honest peers.
//! * **Senders never wait**: a peer that has stopped reading fills its
//!   connection, and every `send_many` toward it still returns at once;
//!   what the connection did not take is held, in order, until it does.
//! * **Retry-once semantics** (socket backends): a send to a dead peer
//!   records exactly one drop per message after the single reconnect
//!   attempt; a live peer that tears down established connections is
//!   healed by redialing under load, observably (`reconnected`).
//!
//! The reconnect regression for the reactor's seeded single-drop case
//! lives here too: with a fault injected at a seed-chosen point in a
//! message stream, nothing is lost and order is preserved.

use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver};

use twostep_runtime::codec;
use twostep_runtime::{InMemoryTransport, ReactorTransport, TcpTransport, Transport};
use twostep_telemetry::{Metrics, ObserverHandle};
use twostep_types::ProcessId;

const RECV_TIMEOUT: Duration = Duration::from_secs(5);

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Memory,
    BlockingTcp,
    Reactor,
}

const ALL_BACKENDS: [Backend; 3] = [Backend::Memory, Backend::BlockingTcp, Backend::Reactor];
const SOCKET_BACKENDS: [Backend; 2] = [Backend::BlockingTcp, Backend::Reactor];

/// A deployed transport fabric: one handle and one inbox per process.
struct Deployment {
    transports: Vec<Box<dyn Transport>>,
    inboxes: Vec<Receiver<(ProcessId, Bytes)>>,
    /// Concrete reactor handles, for fault injection; empty slots on
    /// other backends.
    reactors: Vec<Option<ReactorTransport>>,
    /// Listening addresses, for raw peers; empty on the memory backend.
    addrs: Vec<std::net::SocketAddr>,
}

impl Deployment {
    fn send(&self, from: usize, to: usize, payload: &[u8]) {
        self.transports[from].send(p(from as u32), p(to as u32), Bytes::from(payload.to_vec()));
    }

    fn send_many(&self, from: usize, to: usize, payloads: Vec<Bytes>) {
        self.transports[from].send_many(p(from as u32), p(to as u32), payloads);
    }

    /// Receives at `node` until `n` individual messages have arrived,
    /// iterating coalesced frames in place — the consumer-side contract
    /// shared by every backend (and exactly what the runtime node does).
    fn recv_messages(&self, node: usize, n: usize) -> Vec<(ProcessId, Vec<u8>)> {
        let mut out = Vec::new();
        let deadline = Instant::now() + RECV_TIMEOUT;
        while out.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            let (from, payload) = self.inboxes[node]
                .recv_timeout(left)
                .unwrap_or_else(|_| panic!("timed out with {}/{n} messages", out.len()));
            for m in codec::frame_messages(&payload).expect("malformed frame on the wire") {
                out.push((from, m.to_vec()));
            }
        }
        assert_eq!(out.len(), n, "trailing messages beyond the expected {n}");
        out
    }
}

/// Deploys `n` processes over `backend`, all reporting to `obs`.
fn deploy_observed(backend: Backend, n: usize, obs: &ObserverHandle) -> Deployment {
    match backend {
        Backend::Memory => {
            let (transport, inboxes) = InMemoryTransport::new(n);
            Deployment {
                transports: (0..n)
                    .map(|_| Box::new(transport.clone()) as Box<dyn Transport>)
                    .collect(),
                inboxes,
                reactors: (0..n).map(|_| None).collect(),
                addrs: Vec::new(),
            }
        }
        Backend::BlockingTcp | Backend::Reactor => {
            let mut listeners = Vec::with_capacity(n);
            let mut addrs = Vec::with_capacity(n);
            for _ in 0..n {
                let (l, a) = TcpTransport::bind_ephemeral().expect("bind");
                listeners.push(l);
                addrs.push(a);
            }
            let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(n);
            let mut inboxes = Vec::with_capacity(n);
            let mut reactors = Vec::with_capacity(n);
            for (i, listener) in listeners.into_iter().enumerate() {
                let (tx, rx) = unbounded();
                match backend {
                    Backend::BlockingTcp => {
                        transports.push(Box::new(TcpTransport::spawn(
                            p(i as u32),
                            addrs.clone(),
                            listener,
                            tx,
                            obs.clone(),
                        )));
                        reactors.push(None);
                    }
                    Backend::Reactor => {
                        let t = ReactorTransport::spawn(
                            p(i as u32),
                            addrs.clone(),
                            listener,
                            tx,
                            obs.clone(),
                        )
                        .expect("spawn reactor");
                        transports.push(Box::new(t.clone()));
                        reactors.push(Some(t));
                    }
                    Backend::Memory => unreachable!(),
                }
                inboxes.push(rx);
            }
            Deployment {
                transports,
                inboxes,
                reactors,
                addrs,
            }
        }
    }
}

fn deploy(backend: Backend, n: usize) -> Deployment {
    deploy_observed(backend, n, &ObserverHandle::none())
}

#[test]
fn conformance_delivery_every_ordered_pair() {
    for backend in ALL_BACKENDS {
        let n = 3;
        let d = deploy(backend, n);
        for from in 0..n {
            for to in 0..n {
                d.send(from, to, format!("{from}->{to}").as_bytes());
            }
        }
        for to in 0..n {
            let mut got = d.recv_messages(to, n);
            got.sort();
            let want: Vec<(ProcessId, Vec<u8>)> = (0..n)
                .map(|from| (p(from as u32), format!("{from}->{to}").into_bytes()))
                .collect();
            assert_eq!(got, want, "{backend:?}: delivery to node {to}");
        }
    }
}

#[test]
fn conformance_fifo_per_peer_across_send_shapes() {
    for backend in ALL_BACKENDS {
        let d = deploy(backend, 2);
        // Mix single sends and bursts; sequence numbers must come out
        // strictly in order regardless of how flushes coalesce them.
        let mut seq = 0u32;
        while seq < 200 {
            if seq.is_multiple_of(3) {
                let burst: Vec<Bytes> = (0..5.min(200 - seq))
                    .map(|k| Bytes::from((seq + k).to_le_bytes().to_vec()))
                    .collect();
                seq += burst.len() as u32;
                d.send_many(0, 1, burst);
            } else {
                d.send(0, 1, &seq.to_le_bytes());
                seq += 1;
            }
        }
        let got = d.recv_messages(1, 200);
        for (i, (from, msg)) in got.iter().enumerate() {
            assert_eq!(*from, p(0));
            let got_seq = u32::from_le_bytes(msg[..4].try_into().unwrap());
            assert_eq!(
                got_seq, i as u32,
                "{backend:?}: message {i} arrived out of order"
            );
        }
    }
}

#[test]
fn conformance_interleaved_senders_keep_their_own_order() {
    for backend in ALL_BACKENDS {
        let n = 3;
        let d = deploy(backend, n);
        for seq in 0..100u32 {
            d.send(0, 1, &seq.to_le_bytes());
            d.send(2, 1, &seq.to_le_bytes());
        }
        let got = d.recv_messages(1, 200);
        let mut next = [0u32; 3];
        for (from, msg) in got {
            let seq = u32::from_le_bytes(msg[..4].try_into().unwrap());
            let f = from.index();
            assert_eq!(
                seq, next[f],
                "{backend:?}: sender {f} delivered out of order"
            );
            next[f] += 1;
        }
        assert_eq!(next, [100, 0, 100]);
    }
}

#[test]
fn conformance_burst_keeps_boundaries_and_order() {
    for backend in ALL_BACKENDS {
        let d = deploy(backend, 2);
        // Variable-size messages, including empty, in one burst.
        let burst: Vec<Bytes> = (0..17u8)
            .map(|i| Bytes::from(vec![i; i as usize]))
            .collect();
        d.send_many(0, 1, burst.clone());
        let got = d.recv_messages(1, burst.len());
        for (want, (from, msg)) in burst.iter().zip(&got) {
            assert_eq!(*from, p(0), "{backend:?}");
            assert_eq!(msg, &want.to_vec(), "{backend:?}: boundary corrupted");
        }
    }
}

#[test]
fn conformance_empty_and_large_payloads_survive() {
    for backend in ALL_BACKENDS {
        let d = deploy(backend, 2);
        d.send(0, 1, b"");
        // Large enough to force several partial writes and read-buffer
        // growth on the socket backends.
        let big: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        d.send(0, 1, &big);
        let got = d.recv_messages(1, 2);
        assert_eq!(got[0], (p(0), Vec::new()), "{backend:?}: empty payload");
        assert_eq!(got[1].1.len(), big.len(), "{backend:?}: large payload size");
        assert_eq!(got[1].1, big, "{backend:?}: large payload bytes");
    }
}

#[test]
fn conformance_shard_tags_survive_transit_byte_identically() {
    for backend in ALL_BACKENDS {
        let d = deploy(backend, 2);
        let shards = [0u32, 1, 7, 4096, u32::MAX];
        let burst: Vec<Bytes> = shards
            .iter()
            .map(|&s| {
                let inner = Bytes::from(format!("shard-{s}-payload").into_bytes());
                codec::tag_shard(s, &inner)
            })
            .collect();
        d.send_many(0, 1, burst.clone());
        let got = d.recv_messages(1, shards.len());
        for (i, (&want_shard, (_, msg))) in shards.iter().zip(&got).enumerate() {
            assert_eq!(
                msg,
                &burst[i].to_vec(),
                "{backend:?}: envelope bytes changed"
            );
            let (shard, inner) = codec::split_shard_ref(msg).expect("tagged envelope");
            assert_eq!(shard, want_shard, "{backend:?}: shard id corrupted");
            assert_eq!(
                inner,
                format!("shard-{want_shard}-payload").as_bytes(),
                "{backend:?}: inner payload corrupted"
            );
        }
    }
}

#[test]
fn conformance_untagged_payloads_route_to_shard_zero() {
    for backend in ALL_BACKENDS {
        let d = deploy(backend, 2);
        d.send(0, 1, b"legacy untagged");
        let got = d.recv_messages(1, 1);
        let (shard, inner) = codec::split_shard_ref(&got[0].1).unwrap();
        assert_eq!(
            (shard, inner),
            (0, &b"legacy untagged"[..]),
            "{backend:?}: legacy payload must read back as shard 0"
        );
    }
}

/// Blocks until the receiver closes `raw` — which it must, within the
/// timeout, without having written anything to it.
fn assert_hung_up_on(raw: &mut std::net::TcpStream, backend: Backend, offence: &str) {
    use std::io::Read;

    raw.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
    let mut byte = [0u8; 1];
    match raw.read(&mut byte) {
        Ok(0) => {} // orderly close
        Ok(_) => panic!("{backend:?}: receiver wrote to an inbound connection"),
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{backend:?}: {offence} never cost the connection ({e})"
        ), // reset: also closed
    }
}

#[test]
fn conformance_oversize_frame_costs_only_its_connection() {
    use std::io::Write;
    use std::net::TcpStream;

    for backend in SOCKET_BACKENDS {
        let (metrics, obs) = Metrics::shared();
        let d = deploy_observed(backend, 3, &obs);
        let addr = d.addrs[0];

        // A raw peer: valid handshake, then a length prefix one past
        // the ceiling. The receiver must hang up rather than wait for
        // (or allocate) the announced payload.
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&1u32.to_le_bytes()).unwrap();
        bad.write_all(&(codec::MAX_FRAME_LEN as u32 + 1).to_le_bytes())
            .unwrap();
        assert_hung_up_on(&mut bad, backend, "an oversize prefix");
        assert_eq!(
            metrics.snapshot().dropped,
            1,
            "{backend:?}: the refused frame is reported as one drop"
        );

        // The node survived: a following well-formed connection delivers.
        let mut good = TcpStream::connect(addr).unwrap();
        good.write_all(&2u32.to_le_bytes()).unwrap();
        good.write_all(&5u32.to_le_bytes()).unwrap();
        good.write_all(b"still").unwrap();
        assert_eq!(
            d.inboxes[0].recv_timeout(RECV_TIMEOUT).unwrap(),
            (p(2), Bytes::from_static(b"still")),
            "{backend:?}: node stopped serving after a bad peer"
        );
        assert!(
            d.inboxes[0].try_recv().is_err(),
            "{backend:?}: the bad frame leaked"
        );
    }
}

#[test]
fn conformance_dead_peer_costs_one_drop_per_message_after_one_retry() {
    for backend in SOCKET_BACKENDS {
        let (metrics, obs) = Metrics::shared();
        // Deploy 2 processes but kill peer 1's listener before anyone
        // dials it: both socket backends must record exactly one drop
        // per message after the single reconnect attempt.
        let (l0, a0) = TcpTransport::bind_ephemeral().unwrap();
        let (l1, a1) = TcpTransport::bind_ephemeral().unwrap();
        drop(l1);
        let (tx0, _rx0) = unbounded();
        let transport: Box<dyn Transport> = match backend {
            Backend::BlockingTcp => Box::new(TcpTransport::spawn(
                p(0),
                vec![a0, a1],
                l0,
                tx0,
                obs.clone(),
            )),
            Backend::Reactor => {
                Box::new(ReactorTransport::spawn(p(0), vec![a0, a1], l0, tx0, obs.clone()).unwrap())
            }
            Backend::Memory => unreachable!(),
        };
        transport.send_many(
            p(0),
            p(1),
            vec![Bytes::from_static(b"x"), Bytes::from_static(b"y")],
        );
        let deadline = Instant::now() + RECV_TIMEOUT;
        loop {
            let snap = metrics.snapshot();
            if snap.dropped >= 2 {
                assert_eq!(snap.dropped, 2, "{backend:?}: one drop per message");
                assert_eq!(snap.reconnects, 0, "{backend:?}: nothing to reconnect to");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{backend:?}: drops never recorded (got {})",
                snap.dropped
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[test]
fn conformance_reconnect_heals_under_load() {
    for backend in SOCKET_BACKENDS {
        let (metrics, obs) = Metrics::shared();
        let d = deploy_observed(backend, 2, &obs);
        match backend {
            Backend::BlockingTcp => {
                // Established connections to peer 1 are torn down as
                // soon as its (dropped) inbox rejects a delivery; the
                // sender's writer must redial and record the heal.
                drop(d.inboxes.into_iter().nth(1));
                let deadline = Instant::now() + RECV_TIMEOUT;
                loop {
                    d.transports[0].send(p(0), p(1), Bytes::from_static(b"probe"));
                    if metrics.snapshot().reconnects > 0 {
                        break;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "blocking tcp: no reconnect recorded under load"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            Backend::Reactor => {
                // Inject connection failures mid-stream; every message
                // must still arrive, in order, with heals recorded.
                let reactor = d.reactors[0].as_ref().unwrap();
                let deadline = Instant::now() + RECV_TIMEOUT;
                let mut faults = 0;
                for seq in 0..100u32 {
                    let inject = seq % 25 == 10;
                    if inject {
                        reactor.inject_write_failure(p(1));
                    }
                    d.send(0, 1, &seq.to_le_bytes());
                    // Let each fault heal before injecting the next: a
                    // second fault on a frame already on its one retry
                    // is the drop case, not the heal under test.
                    if inject {
                        faults += 1;
                        while metrics.snapshot().reconnects < faults {
                            assert!(
                                Instant::now() < deadline,
                                "reactor: fault {faults} never healed"
                            );
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
                let got = d.recv_messages(1, 100);
                for (i, (_, msg)) in got.iter().enumerate() {
                    let seq = u32::from_le_bytes(msg[..4].try_into().unwrap());
                    assert_eq!(seq, i as u32, "reactor: lost or reordered under faults");
                }
                let snap = metrics.snapshot();
                assert!(
                    snap.reconnects > 0,
                    "reactor: injected failures never healed"
                );
                assert_eq!(snap.dropped, 0, "reactor: single faults must not drop");
            }
            Backend::Memory => unreachable!(),
        }
    }
}

/// Seeded reconnect regression: one injected connection drop at a
/// seed-chosen point in a 200-message stream loses nothing and keeps
/// order. Pins the retry-once backoff fix on the reactor path — before
/// it, the in-flight frame died with the connection.
#[test]
fn reactor_seeded_single_drop_loses_no_messages() {
    // Deterministic LCG over the documented seed; change the seed and
    // the injection point moves, the property must hold regardless.
    const SEED: u64 = 0xD1CE_2025;
    let inject_at = {
        let next = SEED
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (next >> 33) % 200
    };
    let (metrics, obs) = Metrics::shared();
    let d = deploy_observed(Backend::Reactor, 2, &obs);
    let reactor = d.reactors[0].as_ref().unwrap();
    for seq in 0..200u64 {
        if seq == inject_at {
            reactor.inject_write_failure(p(1));
        }
        d.send(0, 1, &seq.to_le_bytes());
    }
    let got = d.recv_messages(1, 200);
    for (i, (from, msg)) in got.iter().enumerate() {
        assert_eq!(*from, p(0));
        let seq = u64::from_le_bytes(msg[..8].try_into().unwrap());
        assert_eq!(
            seq, i as u64,
            "message lost or reordered around the injected drop at {inject_at}"
        );
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.dropped, 0, "a single drop must never lose messages");
    assert!(snap.reconnects > 0, "the injected drop was never exercised");
}

/// The senders keep to the ceiling the receivers enforce: a burst that
/// is over it as one frame goes out as several, and a payload that is
/// over it alone is dropped where it is sent — before this, either one
/// made the receiver hang up, and the redial resent the same frame.
#[test]
fn conformance_senders_bound_a_frame_by_the_receivers_ceiling() {
    for backend in SOCKET_BACKENDS {
        let (metrics, obs) = Metrics::shared();
        let d = deploy_observed(backend, 2, &obs);

        // 5 × 4 MiB: over the 16 MiB ceiling as one frame.
        let burst: Vec<Bytes> = (0..5u8).map(|i| Bytes::from(vec![i; 4 << 20])).collect();
        d.send_many(0, 1, burst.clone());
        let (mut frames, mut got) = (0, Vec::new());
        while got.len() < burst.len() {
            let (from, frame) = d.inboxes[1]
                .recv_timeout(RECV_TIMEOUT)
                .unwrap_or_else(|_| panic!("{backend:?}: {}/5 of the burst arrived", got.len()));
            assert_eq!(from, p(0), "{backend:?}");
            assert!(frame.len() <= codec::MAX_FRAME_LEN, "{backend:?}");
            frames += 1;
            got.extend(
                codec::frame_messages(&frame)
                    .unwrap()
                    .map(|m| Bytes::from(m.to_vec())),
            );
        }
        assert_eq!(got, burst, "{backend:?}: burst incomplete or reordered");
        assert!(frames >= 2, "{backend:?}: 20 MiB arrived in {frames} frame");

        // One payload over the ceiling: its loss is reported, and the
        // next message still arrives, on the connection the burst used.
        d.send(0, 1, &vec![0xEE; 17 << 20]);
        d.send(0, 1, b"after");
        assert_eq!(d.recv_messages(1, 1), vec![(p(0), b"after".to_vec())]);
        let snap = metrics.snapshot();
        assert_eq!(snap.dropped, 1, "{backend:?}: one drop for the one payload");
        assert_eq!(snap.reconnects, 0, "{backend:?}: the connection was lost");
    }
}

/// A connection is only as good as its handshake: every frame on it is
/// dispatched as coming from the id it opened with, and the protocols
/// index vote sets by that id. A peer that names a process outside the
/// deployment — the first id past the peer list, or one past the 64 a
/// `ProcessSet` can hold — is hung up on before its (well-formed) frame
/// is looked at, and costs nobody else anything.
#[test]
fn conformance_handshake_outside_the_peer_list_is_refused() {
    use std::io::Write;
    use std::net::TcpStream;

    for backend in SOCKET_BACKENDS {
        let n = 3;
        let (metrics, obs) = Metrics::shared();
        let d = deploy_observed(backend, n, &obs);

        for (refused, id) in [n as u32, 65].into_iter().enumerate() {
            let mut raw = TcpStream::connect(d.addrs[0]).unwrap();
            raw.write_all(&id.to_le_bytes()).unwrap();
            raw.write_all(&6u32.to_le_bytes()).unwrap();
            raw.write_all(b"forged").unwrap_or(()); // may already be reset
            assert_hung_up_on(&mut raw, backend, &format!("handshaking as p{id}"));
            assert_eq!(
                metrics.snapshot().dropped,
                refused as u64 + 1,
                "{backend:?}: refusing p{id} is reported as one drop"
            );
        }

        // The node survived, and delivered nothing the forgers sent.
        d.send(1, 0, b"honest");
        assert_eq!(
            d.recv_messages(0, 1),
            vec![(p(1), b"honest".to_vec())],
            "{backend:?}"
        );
        assert!(
            d.inboxes[0].try_recv().is_err(),
            "{backend:?}: a forgery leaked"
        );
    }
}

/// A `send_many` returns without waiting on the network or on another
/// thread, whatever the receiver is doing: the node loop calls it
/// between two protocol steps, and the blocking backend writes from the
/// caller's thread whenever it can. A peer that accepts, handshakes,
/// reads one frame and then stops reading fills the connection; every
/// call must still return at once, and when the peer reads again
/// everything sent arrives, in order and byte for byte. (The memory
/// backend's peer is an inbox nobody drains, which an unbounded channel
/// does not notice.)
#[test]
fn conformance_a_peer_that_stops_reading_never_blocks_its_sender() {
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    const PAYLOAD: usize = 64 << 10;
    const BURST: usize = 4;
    // 32 MiB: several times what a localhost connection buffers.
    const PAYLOADS: usize = 512;
    let payload = |seq: usize| {
        let mut bytes = vec![(seq % 251) as u8; PAYLOAD];
        bytes[..8].copy_from_slice(&(seq as u64).to_le_bytes());
        Bytes::from(bytes)
    };

    for backend in ALL_BACKENDS {
        let (metrics, obs) = Metrics::shared();
        // The peer is p1: on the socket backends a bare listener, so
        // that nothing reads its connection unless the test does.
        let (sender, inbox, listener): (Box<dyn Transport>, _, _) = match backend {
            Backend::Memory => {
                let mut d = deploy(backend, 2);
                (d.transports.remove(0), Some(d.inboxes.remove(1)), None)
            }
            Backend::BlockingTcp | Backend::Reactor => {
                let (l0, a0) = TcpTransport::bind_ephemeral().unwrap();
                let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
                let peers = vec![a0, listener.local_addr().unwrap()];
                let (tx0, _rx0) = unbounded();
                let sender: Box<dyn Transport> = if backend == Backend::BlockingTcp {
                    Box::new(TcpTransport::spawn(p(0), peers, l0, tx0, obs.clone()))
                } else {
                    Box::new(ReactorTransport::spawn(p(0), peers, l0, tx0, obs.clone()).unwrap())
                };
                (sender, None, Some(listener))
            }
        };
        // The next frame p0 sent, read off the inbox or the connection
        // (accepted, and its handshake checked, on the first call).
        let mut conn: Option<TcpStream> = None;
        let mut next_frame = || -> Vec<u8> {
            let Some(listener) = &listener else {
                let inbox = inbox.as_ref().expect("one or the other");
                return inbox.recv_timeout(RECV_TIMEOUT).unwrap().1.to_vec();
            };
            let mut word = [0u8; 4];
            let conn = conn.get_or_insert_with(|| {
                let (mut conn, _) = listener.accept().unwrap();
                conn.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
                conn.read_exact(&mut word).unwrap();
                assert_eq!(u32::from_le_bytes(word), 0, "{backend:?}: handshake");
                conn
            });
            conn.read_exact(&mut word).unwrap();
            let mut frame = vec![0; u32::from_le_bytes(word) as usize];
            conn.read_exact(&mut frame).unwrap();
            frame
        };

        // The connection comes up and goes idle, and the peer stalls.
        sender.send(p(0), p(1), payload(0));
        assert!(
            next_frame()[..] == payload(0)[..],
            "{backend:?}: first frame"
        );

        let mut slowest = Duration::ZERO;
        for burst in (1..PAYLOADS).step_by(BURST) {
            let payloads = (burst..PAYLOADS.min(burst + BURST)).map(payload).collect();
            let called = Instant::now();
            sender.send_many(p(0), p(1), payloads);
            slowest = slowest.max(called.elapsed());
        }
        assert!(
            slowest < Duration::from_millis(50),
            "{backend:?}: a send_many took {slowest:?} with the peer not reading"
        );

        let mut got = 1;
        while got < PAYLOADS {
            let frame = next_frame();
            for m in codec::frame_messages(&frame).expect("malformed frame on the wire") {
                assert!(m == &payload(got)[..], "{backend:?}: payload {got} differs");
                got += 1;
            }
        }
        assert_eq!(got, PAYLOADS, "{backend:?}");
        let snap = metrics.snapshot();
        assert_eq!(snap.dropped, 0, "{backend:?}");
        assert_eq!(snap.reconnects, 0, "{backend:?}");
    }
}
