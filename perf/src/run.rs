//! Running a workload against a live cluster: build, closed-loop
//! clients, warm-up, measured window, and the client-side statistics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use twostep_runtime::{ClusterBuilder, ProxyClient, RuntimeError, ShardedCluster};
use twostep_smr::{KvCommand, KvStore};
use twostep_telemetry::ObserverHandle;
use twostep_types::{ProcessId, SystemConfig};

use crate::gen::CommandStream;
use crate::procfs::ProcSample;
use crate::spec::{Backend, Placement, Workload, COMMIT_TIMEOUT, SLICES, WALL_DELTA};
use crate::stats;

pub type KvCluster = ShardedCluster<KvCommand>;

/// `n = 3, e = f = 1`: the tight object configuration every workload
/// deploys.
pub fn system_config() -> SystemConfig {
    SystemConfig::minimal_object(1, 1).expect("n = 3, e = f = 1 is a valid object configuration")
}

/// Builds the workload's cluster. Every shape goes through
/// `build_sharded_smr`: a one-shard build runs the same node loop, wire
/// format and waiter registry as `build_smr`, and one cluster type keeps
/// the runner free of a shape switch.
pub fn build(w: &Workload, obs: ObserverHandle) -> Result<KvCluster, RuntimeError> {
    let builder = ClusterBuilder::new(system_config())
        .wall_delta(WALL_DELTA)
        .link_delay(w.link_delay)
        .batch(w.batch)
        .pipeline(w.depth)
        .shards(w.shards)
        .observed(obs);
    match w.backend {
        Backend::Memory => builder.in_memory(),
        Backend::Tcp => builder.tcp(),
        Backend::Reactor => builder.reactor(),
    }
    .build_sharded_smr::<KvCommand, KvStore>()
}

/// The handle client `i` of `w` submits through.
pub fn client_of(cluster: &KvCluster, w: &Workload, i: usize) -> ProxyClient<KvCommand> {
    match w.placement {
        Placement::Proxy(p) => cluster.proxy_client(ProcessId::new(p)),
        Placement::Split(a, b) => {
            let p = if i < w.clients / 2 { a } else { b };
            cluster.proxy_client(ProcessId::new(p))
        }
        Placement::ShardLeaders => cluster.client(),
    }
}

/// Client id of the stream set-up commands are drawn from, clear of the
/// measuring clients' ids so the commands stay unique.
const SETUP_CLIENT: usize = 99;

/// Builds the cluster and commits one command through it, as a first
/// user would: thread spawns, connects, Ω settling and the first
/// batching wait are all in the returned time.
pub fn set_up(
    w: &Workload,
    obs: ObserverHandle,
    first: KvCommand,
) -> Result<(KvCluster, Duration), String> {
    let start = Instant::now();
    let cluster = build(w, obs).map_err(|e| format!("cluster build failed: {e}"))?;
    // Generous next to COMMIT_TIMEOUT: a slow first connect is a slow
    // set-up to report, not a failure.
    client_of(&cluster, w, 0)
        .submit_and_wait(first, 10 * COMMIT_TIMEOUT)
        .ok_or("the first command never committed")?;
    Ok((cluster, start.elapsed()))
}

/// The stream set-up commands come from.
pub fn setup_stream(keys: &[String], seed: u64) -> CommandStream<'_> {
    CommandStream::new(keys, seed, SETUP_CLIENT)
}

const TIMED_OUT: u32 = u32::MAX;

/// One `submit_and_wait`: when it was submitted (since the drive's
/// epoch) and how long it took, or that it timed out.
#[derive(Debug, Clone, Copy)]
struct Sample {
    submit_ns: u64,
    latency_ns: u32,
}

#[derive(Debug)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Time inside `submit_and_wait`, and the loop's whole duration: the
    /// difference is what the generator itself cost.
    waited: Duration,
    total: Duration,
}

fn client_loop(
    client: ProxyClient<KvCommand>,
    mut stream: CommandStream<'_>,
    epoch: Instant,
    stop: &AtomicBool,
) -> ClientLog {
    let mut samples = Vec::with_capacity(1 << 16);
    let mut waited = Duration::ZERO;
    let started = Instant::now();
    // `stop` is a plain flag; no other data is published through it.
    while !stop.load(Ordering::Relaxed) {
        let cmd = stream.next().expect("the stream is endless");
        let submit = epoch.elapsed();
        let committed = client.submit_and_wait(cmd, COMMIT_TIMEOUT).is_some();
        let latency = epoch.elapsed() - submit;
        waited += latency;
        samples.push(Sample {
            submit_ns: submit.as_nanos() as u64,
            latency_ns: if committed {
                // Below COMMIT_TIMEOUT (1 s), so it fits 32 bits.
                (latency.as_nanos() as u64).min(u64::from(TIMED_OUT - 1)) as u32
            } else {
                TIMED_OUT
            },
        });
    }
    ClientLog {
        samples,
        waited,
        total: started.elapsed(),
    }
}

/// What one warm-up + window on one cluster recorded.
#[derive(Debug)]
pub struct DriveLog {
    clients: Vec<ClientLog>,
    /// Window bounds since the epoch. The window opens at the instant
    /// the crash (if any) is injected.
    window_start_ns: u64,
    window_end_ns: u64,
    pub proc_start: Option<ProcSample>,
    pub proc_end: Option<ProcSample>,
}

/// Drives `w.clients` closed-loop clients for `warmup` + `window`. In
/// between, on the driving thread, `w.crash` is injected and then
/// `at_window_start` runs (the traced run snapshots its counters there).
pub fn drive(
    cluster: &mut KvCluster,
    w: &Workload,
    keys: &[String],
    seed: u64,
    warmup: Duration,
    window: Duration,
    at_window_start: impl FnOnce(),
) -> DriveLog {
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    let handles: Vec<_> = (0..w.clients).map(|i| client_of(cluster, w, i)).collect();
    std::thread::scope(|scope| {
        let threads: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                let stream = CommandStream::new(keys, seed, i);
                let stop = &stop;
                scope.spawn(move || client_loop(client, stream, epoch, stop))
            })
            .collect();
        std::thread::sleep(warmup);
        let window_start_ns = epoch.elapsed().as_nanos() as u64;
        if let Some(victim) = w.crash {
            cluster.crash(ProcessId::new(victim));
        }
        at_window_start();
        let proc_start = ProcSample::read();
        std::thread::sleep(window);
        let window_end_ns = epoch.elapsed().as_nanos() as u64;
        let proc_end = ProcSample::read();
        stop.store(true, Ordering::Relaxed);
        let clients = threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect();
        DriveLog {
            clients,
            window_start_ns,
            window_end_ns,
            proc_start,
            proc_end,
        }
    })
}

/// Client-side statistics of one measured window. A command belongs to
/// the window if it was *submitted* inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    pub window_s: f64,
    pub attempted: u64,
    pub committed: u64,
    pub timeouts: u64,
    pub warmup_timeouts: u64,
    /// Commits acknowledged over the whole drive, warm-up included.
    pub acked_total: u64,
    /// Commands submitted over the whole drive.
    pub submitted_total: u64,
    pub starved_clients: u64,
    /// `None` when no command committed in the window.
    pub p50_ms: Option<f64>,
    pub p95_ms: Option<f64>,
    pub p99_ms: Option<f64>,
    pub max_ms: Option<f64>,
    /// Commit rate of each of the window's slices, in time order.
    pub slice_rates: Vec<f64>,
    /// Median of `slice_rates`.
    pub throughput_cmds_s: f64,
    /// Share of the client threads' time spent outside
    /// `submit_and_wait` (generating commands, recording samples).
    pub outside_wait_share: f64,
    /// Window start → first commit completing after it.
    pub first_commit_after_start_ms: Option<f64>,
}

impl DriveLog {
    pub fn stats(&self) -> WindowStats {
        let (w0, w1) = (self.window_start_ns, self.window_end_ns);
        let slice_ns = ((w1 - w0) / SLICES as u64).max(1);
        let mut per_slice = [0u64; SLICES];
        let mut latencies_ms = Vec::new();
        let mut s = WindowStats {
            window_s: (w1 - w0) as f64 / 1e9,
            attempted: 0,
            committed: 0,
            timeouts: 0,
            warmup_timeouts: 0,
            acked_total: 0,
            submitted_total: 0,
            starved_clients: 0,
            p50_ms: None,
            p95_ms: None,
            p99_ms: None,
            max_ms: None,
            slice_rates: Vec::new(),
            throughput_cmds_s: 0.0,
            outside_wait_share: 0.0,
            first_commit_after_start_ms: None,
        };
        let mut first_done_ns: Option<u64> = None;
        let (mut waited, mut total) = (Duration::ZERO, Duration::ZERO);
        for client in &self.clients {
            waited += client.waited;
            total += client.total;
            let mut committed_here = 0;
            for sample in &client.samples {
                let timed_out = sample.latency_ns == TIMED_OUT;
                s.submitted_total += 1;
                s.acked_total += u64::from(!timed_out);
                if !timed_out {
                    let done = sample.submit_ns + u64::from(sample.latency_ns);
                    if done >= w0 && first_done_ns.is_none_or(|f| done < f) {
                        first_done_ns = Some(done);
                    }
                }
                if sample.submit_ns < w0 {
                    s.warmup_timeouts += u64::from(timed_out);
                } else if sample.submit_ns < w1 {
                    s.attempted += 1;
                    if timed_out {
                        s.timeouts += 1;
                    } else {
                        committed_here += 1;
                        latencies_ms.push(f64::from(sample.latency_ns) / 1e6);
                        let slice = ((sample.submit_ns - w0) / slice_ns) as usize;
                        per_slice[slice.min(SLICES - 1)] += 1;
                    }
                }
            }
            s.committed += committed_here;
            s.starved_clients += u64::from(committed_here == 0);
        }
        stats::sort(&mut latencies_ms);
        if !latencies_ms.is_empty() {
            let q = |q| Some(stats::quantile_sorted(&latencies_ms, q));
            (s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms) = (q(0.50), q(0.95), q(0.99), q(1.0));
        }
        s.slice_rates = per_slice
            .iter()
            .map(|&n| n as f64 / (slice_ns as f64 / 1e9))
            .collect();
        s.throughput_cmds_s = stats::median(&s.slice_rates).expect("SLICES > 0");
        if !total.is_zero() {
            s.outside_wait_share = 1.0 - waited.as_secs_f64() / total.as_secs_f64();
        }
        s.first_commit_after_start_ms = first_done_ns.map(|f| (f - w0) as f64 / 1e6);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn log(clients: Vec<Vec<(u64, Option<u64>)>>) -> DriveLog {
        DriveLog {
            clients: clients
                .into_iter()
                .map(|samples| ClientLog {
                    samples: samples
                        .into_iter()
                        .map(|(submit_ms, latency_ms)| Sample {
                            submit_ns: submit_ms * MS,
                            latency_ns: latency_ms.map_or(TIMED_OUT, |l| (l * MS) as u32),
                        })
                        .collect(),
                    waited: Duration::from_millis(900),
                    total: Duration::from_millis(1000),
                })
                .collect(),
            window_start_ns: 1000 * MS,
            window_end_ns: 9000 * MS,
            proc_start: None,
            proc_end: None,
        }
    }

    #[test]
    fn window_membership_is_by_submit_time() {
        let s = log(vec![
            // warm-up commit, warm-up timeout, three window commits (the
            // last completing after the window), one submitted too late.
            vec![
                (100, Some(5)),
                (200, None),
                (1000, Some(10)),
                (5000, Some(20)),
                (8999, Some(30)),
                (9000, Some(1)),
            ],
            // a client that only ever times out: starved.
            vec![(1500, None), (2500, None)],
        ])
        .stats();
        assert_eq!((s.attempted, s.committed, s.timeouts), (5, 3, 2));
        assert_eq!(s.warmup_timeouts, 1);
        assert_eq!((s.submitted_total, s.acked_total), (8, 5));
        assert_eq!(s.starved_clients, 1);
        assert_eq!(s.p50_ms, Some(20.0));
        assert_eq!(s.max_ms, Some(30.0));
        assert_eq!(s.window_s, 8.0);
        assert!((s.outside_wait_share - 0.1).abs() < 1e-9);
        // The warm-up commit finished at 105 ms, before the window; the
        // first to finish inside it is the one submitted at 1000 ms.
        assert_eq!(s.first_commit_after_start_ms, Some(10.0));
    }

    #[test]
    fn throughput_is_the_median_slice_rate() {
        // 8 one-second slices: seven carry 2 commits, one (a stall) none.
        let mut samples = Vec::new();
        for slice in 0..8u64 {
            if slice != 3 {
                samples.push((1000 + slice * 1000 + 100, Some(1)));
                samples.push((1000 + slice * 1000 + 600, Some(1)));
            }
        }
        let s = log(vec![samples]).stats();
        assert_eq!(
            s.throughput_cmds_s, 2.0,
            "the stalled slice does not move the median"
        );
        assert_eq!(s.committed, 14);
    }

    #[test]
    fn an_empty_window_has_no_percentiles() {
        let s = log(vec![vec![(100, Some(1))]]).stats();
        assert_eq!((s.attempted, s.p50_ms, s.throughput_cmds_s), (0, None, 0.0));
        assert_eq!(s.starved_clients, 1);
    }
}
