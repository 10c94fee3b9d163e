//! A dropped [`TcpTransport`] leaves nothing behind: no thread and no
//! listening port.
//!
//! The accept thread blocks in `accept`, which nothing but a connection
//! ends, so before `Drop` dialled the listener every torn-down
//! deployment kept one thread and one bound port per process for the
//! life of the program.
//!
//! This is the only test in the binary, so every thread beyond the
//! harness's own is the deployment's.
#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::unbounded;

use twostep_runtime::{TcpTransport, Transport};
use twostep_telemetry::ObserverHandle;
use twostep_types::ProcessId;

const PROMPT: Duration = Duration::from_secs(1);

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_dropped_deployment_frees_its_threads_and_its_ports() {
    let before = threads();

    let (l0, a0) = TcpTransport::bind_ephemeral().unwrap();
    let (l1, a1) = TcpTransport::bind_ephemeral().unwrap();
    let (tx0, rx0) = unbounded();
    let (tx1, rx1) = unbounded();
    let p = ProcessId::new;
    let t0 = TcpTransport::spawn(p(0), vec![a0, a1], l0, tx0, ObserverHandle::none());
    let t1 = TcpTransport::spawn(p(1), vec![a0, a1], l1, tx1, ObserverHandle::none());
    // Traffic both ways, so writer and reader threads exist too.
    t0.send(p(0), p(1), Bytes::from_static(b"ping"));
    t1.send(p(1), p(0), Bytes::from_static(b"pong"));
    assert_eq!(&rx1.recv_timeout(PROMPT).unwrap().1[..], b"ping");
    assert_eq!(&rx0.recv_timeout(PROMPT).unwrap().1[..], b"pong");
    assert!(threads() >= before + 6, "accept, writer, reader × 2");

    drop((t0, t1, rx0, rx1));

    let dropped = Instant::now();
    for addr in [a0, a1] {
        // The wake-up connection may still be in the backlog: a dial
        // succeeds until the accept thread has taken it and left.
        while TcpStream::connect(addr).is_ok() {
            assert!(dropped.elapsed() < PROMPT, "{addr} still listening");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    while threads() > before {
        assert!(
            dropped.elapsed() < PROMPT,
            "{} threads outlived the deployment",
            threads() - before
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
