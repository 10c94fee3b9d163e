//! E10 (Figure 6): practicality of the motivating use case — a
//! replicated key-value store on the threaded runtime, backed by the
//! object protocol, plus per-command message complexity from the
//! deterministic simulator.
//!
//! Every part attaches the telemetry subsystem: parts A and B report
//! per-path decision counts and wall-clock p50/p99 latency per path
//! (first decision per node, microseconds since node start); part C
//! reports per-path counts from the virtual-time simulator.

use std::time::{Duration as WallDuration, Instant};

use twostep_bench::{fmt_path_counts, fmt_path_latencies, fmt_pump_share, Table};
use twostep_runtime::{ClusterBuilder, ShardedCluster};
use twostep_sim::SimulationBuilder;
use twostep_smr::{KvCommand, KvStore, SmrReplicaBuilder};
use twostep_telemetry::Metrics;
use twostep_types::{Duration, ProcessId, SystemConfig, Time};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Submits one command at p0 and returns (elapsed until every replica
/// has applied it, whether they all did within 30 s).
fn first_commit(cluster: &ShardedCluster<KvCommand>) -> (WallDuration, bool) {
    let cfg = cluster.config();
    let start = Instant::now();
    cluster
        .proxy_client(p(0))
        .propose(KvCommand::put("key0", "val0"));
    let ok = cluster.await_decisions(0, cfg.process_ids(), WallDuration::from_secs(30));
    (start.elapsed(), ok)
}

/// Commands per part-B run: enough that the timed window is well over
/// 100 ms at every n on a 2-vCPU machine, so it times the protocol and
/// not the clock.
const SEQUENTIAL_COMMANDS: usize = 20_000;

fn main() {
    let wall_delta = WallDuration::from_millis(5);

    // Part A: end-to-end wall-clock commit latency, in-memory vs TCP.
    let mut part_a = Table::new(&[
        "transport",
        "n",
        "first-commit latency",
        "agreement",
        "paths f/s/gt/eq/l",
        "p50/p99 by path",
        "waited for pump",
    ]);
    for (label, tcp) in [("in-memory", false), ("tcp/localhost", true)] {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let (metrics, obs) = Metrics::shared();
        let builder = ClusterBuilder::new(cfg)
            .wall_delta(wall_delta)
            .observed(obs.clone());
        let builder = if tcp { builder.tcp() } else { builder };
        let cluster = builder
            .build_sharded_smr::<KvCommand, KvStore>()
            .expect("cluster build");
        let (elapsed, ok) = first_commit(&cluster);
        let snap = metrics.snapshot();
        part_a.row(&[
            label.to_string(),
            cfg.n().to_string(),
            format!("{:.1?}", elapsed),
            if ok && cluster.agreement() {
                "yes".into()
            } else {
                "NO".to_string()
            },
            fmt_path_counts(&snap),
            fmt_path_latencies(&snap, 1000.0, "ms"),
            fmt_pump_share(&snap),
        ]);
    }
    part_a.print("E10a: KV-SMR first-commit latency on the threaded runtime (Δ = 5ms)");

    // Part B: sequential command throughput (batch 1 × depth 1: one
    // command per slot and one slot in flight, the rest queued at the
    // proxy — this measures the consensus critical path, not batching
    // tricks).
    let mut part_b = Table::new(&[
        "n",
        "commands",
        "elapsed",
        "commands/sec",
        "paths f/s/gt/eq/l",
        "p50/p99 by path",
        "waited for pump",
    ]);
    for (e, f) in [(1usize, 1usize), (2, 2)] {
        let cfg = SystemConfig::minimal_object(e, f).unwrap();
        let (metrics, obs) = Metrics::shared();
        let cluster = ClusterBuilder::new(cfg)
            .wall_delta(wall_delta)
            .observed(obs.clone())
            .build_sharded_smr::<KvCommand, KvStore>()
            .expect("in-memory build cannot fail");
        // One proxy applies its commands in log order, so the last one
        // committing at p0 means all k have: the window ends there.
        let k = SEQUENTIAL_COMMANDS;
        let client = cluster.proxy_client(p(0));
        let put = |i: usize| KvCommand::put(format!("key{i}"), "v");
        let start = Instant::now();
        (0..k - 1).for_each(|i| client.propose(put(i)));
        let committed = client.submit_and_wait(put(k - 1), WallDuration::from_secs(60));
        let elapsed = start.elapsed();
        let snap = metrics.snapshot();
        part_b.row(&[
            cfg.n().to_string(),
            k.to_string(),
            format!("{:.1?}", elapsed),
            if committed.is_some() {
                format!("{:.0}", k as f64 / elapsed.as_secs_f64())
            } else {
                "stalled".into()
            },
            fmt_path_counts(&snap),
            fmt_path_latencies(&snap, 1000.0, "ms"),
            fmt_pump_share(&snap),
        ]);
    }
    part_b.print("E10b: sequential KV-SMR throughput (unpipelined, Δ = 5ms)");

    // Part C: message complexity per committed command (deterministic
    // simulator, synchronous rounds).
    let mut part_c = Table::new(&[
        "n",
        "commands",
        "messages sent",
        "messages/command",
        "paths f/s/gt/eq/l",
    ]);
    for (e, f) in [(1usize, 1usize), (2, 2)] {
        let cfg = SystemConfig::minimal_object(e, f).unwrap();
        let k = 5u64;
        let (metrics, obs) = Metrics::shared();
        let mut sim = SimulationBuilder::new(cfg)
            .observed(obs.clone())
            .build(|q| {
                SmrReplicaBuilder::new(cfg, q)
                    .observed(obs.clone())
                    .build::<KvCommand, KvStore>()
            });
        for i in 0..k {
            sim.schedule_propose(
                p(0),
                KvCommand::put(format!("key{i}"), "v"),
                Time::from_units(i * 100),
            );
        }
        let outcome = sim.run_until(Time::ZERO + Duration::deltas(200), |s| {
            (0..cfg.n()).all(|i| s.process(p(i as u32)).applied() >= k)
        });
        let sent = outcome.trace.messages_sent();
        let snap = metrics.snapshot();
        part_c.row(&[
            cfg.n().to_string(),
            k.to_string(),
            sent.to_string(),
            format!("{:.0}", sent as f64 / k as f64),
            fmt_path_counts(&snap),
        ]);
    }
    part_c.print("E10c: message complexity per committed command (includes Ω heartbeats)");
    println!(
        "\npaths column: slot decisions per path (fast/slow/recovery-gt/recovery-eq/learned);\n\
         p50/p99 per path cover each node's first decision, wall-clock since node start;\n\
         waited for pump: share of proposed commands released by the proxy's 2Δ pump tick\n\
         rather than by the submission or commit that queued them."
    );
}
