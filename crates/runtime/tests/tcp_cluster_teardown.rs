//! A dropped TCP cluster leaves nothing behind: no thread and no
//! listening port.
//!
//! `tcp_teardown.rs` checks a bare `TcpTransport`. This checks the
//! deployment `ClusterBuilder::tcp` assembles, where each node owns its
//! transport and the transport's readers may step the node: a strong
//! reference from the readers back to the node would close the cycle
//! node → transport → readers → node, and every thread and port of the
//! cluster would outlive it — which the bare-transport test cannot see.
//!
//! This is the only test in the binary, so every thread beyond the
//! harness's own is the deployment's.
#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use twostep_runtime::ClusterBuilder;
use twostep_smr::{KvCommand, KvStore};
use twostep_types::{ProcessId, SystemConfig};

const PROMPT: Duration = Duration::from_secs(1);

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The localhost ports this process listens on: the listening sockets
/// of `/proc/self/net/tcp` whose inode is one of this process's fds.
fn listening_ports() -> BTreeSet<u16> {
    let inodes: BTreeSet<String> = std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter_map(|link| {
            let link = link.to_string_lossy().into_owned();
            Some(link.strip_prefix("socket:[")?.strip_suffix(']')?.to_owned())
        })
        .collect();
    let table = std::fs::read_to_string("/proc/self/net/tcp").expect("procfs");
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let (local, state, inode) = (cols.get(1)?, cols.get(3)?, cols.get(9)?);
            let listening = *state == "0A" && inodes.contains(*inode);
            let port = local.rsplit(':').next()?;
            listening.then(|| u16::from_str_radix(port, 16).ok())?
        })
        .collect()
}

#[test]
fn a_dropped_tcp_cluster_frees_its_threads_and_its_ports() {
    let (threads_before, ports_before) = (threads(), listening_ports());

    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let cluster = ClusterBuilder::new(cfg)
        .tcp()
        .build_sharded_smr::<KvCommand, KvStore>()
        .unwrap();
    let client = cluster.proxy_client(ProcessId::new(0));
    let committed = client.submit_and_wait(KvCommand::put("k", "v"), Duration::from_secs(10));
    assert!(committed.is_some(), "the command never committed");
    let ports: Vec<u16> = listening_ports()
        .difference(&ports_before)
        .copied()
        .collect();
    assert_eq!(ports.len(), cfg.n(), "one listener per node: {ports:?}");

    drop((client, cluster));

    let dropped = Instant::now();
    for port in ports {
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        // The wake-up connection may still be in the backlog: a dial
        // succeeds until the accept thread has taken it and left.
        while TcpStream::connect(addr).is_ok() {
            assert!(dropped.elapsed() < PROMPT, "{addr} still listening");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    while threads() > threads_before {
        assert!(
            dropped.elapsed() < PROMPT,
            "{} threads outlived the cluster",
            threads() - threads_before
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
