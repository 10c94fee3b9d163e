//! E12: closed-loop batched-SMR throughput on the threaded runtime.
//!
//! N closed-loop clients hammer one proxy of a KV-SMR cluster (on any
//! of the three transport backends, default in-memory) while the sweep
//! varies the replica's batch size and pipeline depth. Batching amortizes the per-slot consensus cost (each slot
//! still pays the paper's per-instance step bounds; more commands share
//! each payment), so commands/sec should grow with batch × depth while
//! per-command (amortized) latency stays within a small multiple of the
//! unbatched commit latency.
//!
//! A second table, the load curve, holds batch 4 × depth 2 fixed and
//! varies the number of clients from 1 to 16: it shows what the
//! replica's load-adaptive batch threshold costs and buys between an
//! idle proxy and a saturated one, and which share of commands waited
//! for a pump tick. Its runs carry a `Metrics` observer (that is where
//! the share comes from); the sweep's do not.
//!
//! Outputs:
//! * stdout — both tables,
//! * `results/e12_batching_throughput.txt` — the same tables,
//! * `BENCH_e12.json` — machine-readable report for CI schema checks.
//!
//! Flags: `--smoke` (sub-second windows, CI-sized), `--secs <f64>`
//! (measurement window per configuration), `--backend
//! {memory|tcp|reactor}` (transport the cluster deploys on).

use std::time::{Duration as WallDuration, Instant};

use twostep_bench::{fmt_pump_share, percentile, Backend, Table};
use twostep_runtime::{ClusterBuilder, ShardedCluster};
use twostep_smr::{KvCommand, KvStore};
use twostep_telemetry::{Metrics, ObserverHandle};
use twostep_types::{ProcessId, SystemConfig};

/// The sweep: replica batch size × pipeline depth.
const SWEEP: [(usize, usize); 4] = [(1, 1), (4, 2), (8, 4), (16, 8)];

/// The load curve: client counts at [`CURVE_CONFIG`].
const CURVE_CLIENTS: [usize; 7] = [1, 2, 3, 4, 6, 8, 16];
/// Batch size × pipeline depth held fixed along the load curve.
const CURVE_CONFIG: (usize, usize) = (4, 2);

/// What one closed-loop run measured.
struct Run {
    commands: u64,
    commands_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Run {
    /// The run's fields as JSON object members (no braces).
    fn json_members(&self) -> String {
        format!(
            "\"commands\": {}, \"commands_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}",
            self.commands, self.commands_per_sec, self.p50_us, self.p99_us
        )
    }

    /// The run's fields as table cells.
    fn cells(&self) -> [String; 4] {
        [
            self.commands.to_string(),
            format!("{:.0}", self.commands_per_sec),
            format!("{:.1} ms", self.p50_us / 1000.0),
            format!("{:.1} ms", self.p99_us / 1000.0),
        ]
    }
}

/// One sweep point: replica batch size × pipeline depth.
struct Point {
    batch: usize,
    depth: usize,
    run: Run,
    speedup: f64,
}

/// One load-curve point: `clients` closed-loop clients at
/// [`CURVE_CONFIG`].
struct CurvePoint {
    clients: usize,
    run: Run,
    pump_released_share: f64,
}

/// What every run of the experiment shares.
struct Setup {
    cfg: SystemConfig,
    wall_delta: WallDuration,
    secs: f64,
    backend: Backend,
}

impl Setup {
    /// Runs `clients` closed-loop clients against one proxy of a
    /// batch × depth cluster for `secs`.
    fn run(&self, batch: usize, depth: usize, clients: usize, obs: ObserverHandle) -> Run {
        let builder = ClusterBuilder::new(self.cfg)
            .wall_delta(self.wall_delta)
            .batch(batch)
            .pipeline(depth)
            .observed(obs);
        let cluster = self
            .backend
            .apply(builder)
            .build_sharded_smr::<KvCommand, KvStore>()
            .expect("cluster build failed");
        run_clients(&cluster, clients, WallDuration::from_secs_f64(self.secs))
    }
}

/// Drives `clients` closed-loop clients through proxy 0 for `window`.
fn run_clients(cluster: &ShardedCluster<KvCommand>, clients: usize, window: WallDuration) -> Run {
    let proxy = ProcessId::new(0);

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|cid| {
            let client = cluster.proxy_client(proxy);
            std::thread::spawn(move || {
                let deadline = Instant::now() + window;
                let mut latencies = Vec::new();
                let mut seq = 0u64;
                while Instant::now() < deadline {
                    // Unique per client+sequence so submit_and_wait
                    // matches exactly this command's commit.
                    let cmd = KvCommand::put(format!("c{cid}-{seq}"), "v");
                    seq += 1;
                    match client.submit_and_wait(cmd, WallDuration::from_secs(10)) {
                        Some(latency) => latencies.push(latency.as_micros() as f64),
                        None => break,
                    }
                }
                latencies
            })
        })
        .collect();
    let mut latencies = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread panicked"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let commands = latencies.len() as u64;
    Run {
        commands,
        commands_per_sec: if elapsed > 0.0 {
            commands as f64 / elapsed
        } else {
            0.0
        },
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

fn json_report(clients: usize, setup: &Setup, points: &[Point], curve: &[CurvePoint]) -> String {
    let sweep: Vec<String> = points
        .iter()
        .map(|pt| {
            format!(
                "\n    {{\"batch\": {}, \"depth\": {}, {}, \"speedup\": {:.2}}}",
                pt.batch,
                pt.depth,
                pt.run.json_members(),
                pt.speedup
            )
        })
        .collect();
    let load_curve: Vec<String> = curve
        .iter()
        .map(|pt| {
            format!(
                "\n    {{\"clients\": {}, \"batch\": {}, \"depth\": {}, {}, \
                 \"pump_released_share\": {:.3}}}",
                pt.clients,
                CURVE_CONFIG.0,
                CURVE_CONFIG.1,
                pt.run.json_members(),
                pt.pump_released_share
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"e12_batching_throughput\",\n  \
         \"config\": {{\"n\": 3, \"backend\": \"{}\", \"clients\": {}, \"secs_per_point\": {}, \
         \"wall_delta_ms\": {}}},\n  \"sweep\": [{}\n  ],\n  \"load_curve\": [{}\n  ]\n}}\n",
        setup.backend.label(),
        clients,
        setup.secs,
        setup.wall_delta.as_millis(),
        sweep.join(","),
        load_curve.join(",")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let secs = args
        .iter()
        .position(|a| a == "--secs")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(if smoke { 0.4 } else { 3.0 });
    let backend = Backend::from_args(&args);
    // Closed-loop clients bound the commands that can be outstanding, so
    // they must outnumber the largest batch in the sweep or big batches
    // never fill and the replica's batch threshold settles below them.
    let clients = if smoke { 16 } else { 32 };
    let setup = Setup {
        cfg: SystemConfig::minimal_object(1, 1).unwrap(),
        wall_delta: WallDuration::from_millis(2),
        secs,
        backend,
    };

    let mut table = Table::new(&[
        "batch",
        "depth",
        "commands",
        "commands/sec",
        "p50 amortized",
        "p99 amortized",
        "speedup vs 1x1",
    ]);
    let mut points: Vec<Point> = Vec::new();
    for (batch, depth) in SWEEP {
        let run = setup.run(batch, depth, clients, ObserverHandle::none());
        let baseline = points
            .first()
            .map_or(run.commands_per_sec, |p| p.run.commands_per_sec);
        let speedup = if baseline > 0.0 {
            run.commands_per_sec / baseline
        } else {
            0.0
        };
        let [commands, rate, p50, p99] = run.cells();
        table.row(&[
            batch.to_string(),
            depth.to_string(),
            commands,
            rate,
            p50,
            p99,
            format!("{speedup:.2}x"),
        ]);
        points.push(Point {
            batch,
            depth,
            run,
            speedup,
        });
    }

    let (batch, depth) = CURVE_CONFIG;
    let mut curve_table = Table::new(&[
        "clients",
        "commands",
        "commands/sec",
        "p50",
        "p99",
        "waited for pump",
    ]);
    let mut curve: Vec<CurvePoint> = Vec::new();
    for clients in CURVE_CLIENTS {
        let (metrics, obs) = Metrics::shared();
        let run = setup.run(batch, depth, clients, obs);
        let snap = metrics.snapshot();
        let [commands, rate, p50, p99] = run.cells();
        curve_table.row(&[
            clients.to_string(),
            commands,
            rate,
            p50,
            p99,
            fmt_pump_share(&snap),
        ]);
        curve.push(CurvePoint {
            clients,
            run,
            pump_released_share: snap.pump_released_share(),
        });
    }

    let title = format!(
        "E12: closed-loop batched-SMR throughput \
         ({clients} clients, one proxy, {} transport, Δ = {:?}, {secs}s per point)",
        backend.label(),
        setup.wall_delta
    );
    table.print(&title);
    let curve_title = format!(
        "E12 load curve: batch {batch} x depth {depth}, 1..16 clients \
         (waited for pump = share of proposed commands a pump tick released)"
    );
    curve_table.print(&curve_title);
    println!(
        "\nbatching amortizes per-slot consensus cost; the per-instance step\n\
         bounds (Theorems 5-6) are untouched — each slot is still one\n\
         two-step instance, it just carries more commands."
    );

    let _ = std::fs::create_dir_all("results");
    let txt = format!(
        "{title}\n\n{}\n{curve_title}\n\n{}",
        table.render(),
        curve_table.render()
    );
    if let Err(e) = std::fs::write("results/e12_batching_throughput.txt", txt) {
        eprintln!("warning: could not write results/e12_batching_throughput.txt: {e}");
    }
    let json = json_report(clients, &setup, &points, &curve);
    if let Err(e) = std::fs::write("BENCH_e12.json", json) {
        eprintln!("warning: could not write BENCH_e12.json: {e}");
    }
}
