//! Quickstart: one consensus instance, three ways.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! 1. A two-step decision in the deterministic simulator (the paper's
//!    E-faulty synchronous runs, Definition 2).
//! 2. The same protocol over real threads and an in-memory transport.
//! 3. The same protocol over localhost TCP.

use std::time::Duration as WallDuration;

use twostep::core::{ObjectConsensus, TaskConsensus};
use twostep::sim::SyncRunner;
use twostep::types::{ProcessId, ProcessSet, SystemConfig};
use twostep::ClusterBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------------------------------------------------------------
    // 1. Simulator: Theorem 5's bound in action. e = f = 2 needs only
    //    n = max{2e+f, 2f+1} = 6 processes (Fast Paxos would need 7).
    // ---------------------------------------------------------------
    let cfg = SystemConfig::minimal_task(2, 2)?;
    println!(
        "task configuration: {cfg} (fast quorum {}, slow quorum {})",
        cfg.fast_quorum(),
        cfg.slow_quorum()
    );

    // Crash E = {p0, p1} at the beginning of round 1; the highest
    // correct proposer p5 must still decide by 2Δ.
    let crashed: ProcessSet = [0u32, 1].into_iter().map(ProcessId::new).collect();
    let outcome = SyncRunner::new(cfg)
        .crashed(crashed)
        .favoring(ProcessId::new(5))
        .run(|p| TaskConsensus::new(cfg, p, 100 + u64::from(p.as_u32())));

    let (fast, value) = outcome.fast_deciders();
    println!(
        "simulator: two-step deciders {fast} decided {:?} (agreement: {})",
        value,
        outcome.agreement()
    );
    assert!(fast.contains(ProcessId::new(5)));

    // ---------------------------------------------------------------
    // 2. Threads + in-memory transport: the consensus *object* at the
    //    Theorem 6 bound (n = 2e+f-1 = 5 for e = f = 2).
    // ---------------------------------------------------------------
    let cfg = SystemConfig::minimal_object(2, 2)?;
    //    One consensus group is shard 0 of the cluster; commands enter
    //    through a client of the proxy they are submitted at.
    let cluster = ClusterBuilder::new(cfg)
        .wall_delta(WallDuration::from_millis(10))
        .build(|p| ObjectConsensus::new(cfg, p))
        .expect("in-memory build cannot fail");
    let proxy = ProcessId::new(4);
    cluster.proxy_client(proxy).propose(42);
    let decided = cluster
        .await_decision(0, proxy, WallDuration::from_secs(5))
        .expect("proxy decides");
    println!(
        "threads:   proxy {proxy} decided {decided} in {:?}",
        cluster
            .decision_latency(0, proxy)
            .expect("latency recorded")
    );
    assert_eq!(decided, 42);

    // ---------------------------------------------------------------
    // 3. Localhost TCP: identical protocol code, real sockets and the
    //    binary wire codec.
    // ---------------------------------------------------------------
    let cluster = ClusterBuilder::new(cfg)
        .tcp()
        .wall_delta(WallDuration::from_millis(10))
        .build(|p| ObjectConsensus::new(cfg, p))?;
    cluster.proxy_client(ProcessId::new(0)).propose(7);
    let decided = cluster
        .await_decision(0, ProcessId::new(0), WallDuration::from_secs(10))
        .expect("proxy decides over tcp");
    println!("tcp:       p0 decided {decided}");
    assert_eq!(decided, 7);

    println!("quickstart complete");
    Ok(())
}
