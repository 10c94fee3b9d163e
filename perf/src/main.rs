//! `perf`: the repository's benchmark — client-observed commit latency
//! and throughput on seven workloads, per-layer probes, a traced run
//! and a correctness gate, in one command. See `README.md` beside the
//! manifest for the workloads, the metric glossary and how to read the
//! output.

mod alloc;
mod gen;
mod json;
mod observe;
mod probe;
mod procfs;
mod report;
mod run;
mod selfcheck;
mod span;
mod spec;
mod stats;

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use twostep_telemetry::{MetricsSnapshot, ObserverHandle, Path, RecoveryCase};

use crate::json::Json;
use crate::report::Report;
use crate::run::WindowStats;
use crate::spec::{
    MetricDef, Workload, END_TO_END, PER_LAYER, PROBE_COMMANDS, SETUPS, TRACED_WARMUP, WALL_DELTA,
    WARMUP, WORKLOADS,
};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "\
usage: perf --workload <name>|all [--seed <u64>] [--seconds <1..60>] [--trace [0|1]]
            [--out <file>] [--spans <file>]
       perf --selfcheck [--seed <u64>] [--seconds <1..60>]

  --workload  one of: idle_lan busy_mem busy_tcp busy_reactor sharded_lan
              contended_lan crashed_lan; `all` runs each in its own process
  --seed      seeds the command generator (default 1)
  --seconds   measured window (default 8); warm-up is fixed
  --trace     1: traced run (observers attached, probe pass, spans; per-layer
              metrics). 0 (default): untraced run (end-to-end metrics)
  --out       also write the detailed report(s) to this file as JSON
  --spans     where a traced run writes its spans (JSON lines); default
              perf_spans_<workload>.jsonl beside the executable
  --selfcheck run every workload twice with one seed and once with another and
              fail if an end-to-end metric moves by more than its bound

The last line of standard output is the result: a JSON object with the keys
correct, attempted, failed and metrics. Exit code 0 means the run was correct.";

#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    workload: Option<String>,
    selfcheck: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            selfcheck: false,
            seed: 1,
            seconds: 8,
            trace: false,
            out: None,
            spans: None,
        };
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--workload" => cli.workload = Some(value(&mut i, "--workload")?),
                "--seed" => {
                    let v = value(&mut i, "--seed")?;
                    cli.seed = v
                        .parse()
                        .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
                }
                "--seconds" => {
                    let v = value(&mut i, "--seconds")?;
                    cli.seconds = match v.parse() {
                        Ok(s @ 1..=60) => s,
                        _ => {
                            return Err(format!("--seconds: `{v}` is not a whole number in 1..=60"))
                        }
                    };
                }
                "--trace" => match args.get(i + 1).map(String::as_str) {
                    Some(v @ ("0" | "1")) => {
                        cli.trace = v == "1";
                        i += 1;
                    }
                    // A bare `--trace` means on; anything else after it
                    // is the next flag.
                    Some(v) if !v.starts_with("--") => {
                        return Err(format!("--trace: `{v}` is neither 0 nor 1"))
                    }
                    _ => cli.trace = true,
                },
                "--out" => cli.out = Some(value(&mut i, "--out")?),
                "--spans" => cli.spans = Some(value(&mut i, "--spans")?),
                "--selfcheck" => cli.selfcheck = true,
                "-h" | "--help" => return Err(String::new()),
                other => return Err(format!("unknown argument `{other}`")),
            }
            i += 1;
        }
        match (&cli.workload, cli.selfcheck) {
            (None, false) => Err("one of --workload and --selfcheck is required".into()),
            (Some(_), true) => Err("--workload and --selfcheck exclude each other".into()),
            (Some(name), false) if name != "all" && spec::workload(name).is_none() => {
                Err(format!("unknown workload `{name}`"))
            }
            _ => Ok(cli),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(problem) => {
            if !problem.is_empty() {
                eprintln!("perf: {problem}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if cli.selfcheck {
        selfcheck::run(&cli)
    } else if cli.workload.as_deref() == Some("all") {
        run_all(&cli)
    } else {
        let name = cli.workload.as_deref().expect("checked by Cli::parse");
        run_one(spec::workload(name).expect("checked by Cli::parse"), &cli)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(problem) => {
            eprintln!("perf: {problem}");
            ExitCode::from(2)
        }
    }
}

/// Runs each workload in a process of its own (a cluster's threads,
/// sockets and heap must not leak into the next workload's numbers),
/// relaying each child's report and result line.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut all_correct = true;
    let mut reports = Vec::new();
    for w in &WORKLOADS {
        let child = selfcheck::run_child(w.name, cli.seed, cli.seconds, cli.trace)?;
        println!("{}", child.detailed.render());
        println!("{}", child.result.render());
        all_correct &= child.correct();
        reports.push(child.detailed);
    }
    if let Some(path) = &cli.out {
        write_file(path, &Json::Arr(reports).render())?;
    }
    Ok(all_correct)
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs one workload in this process and prints its detailed report and
/// then, last, its result line.
fn run_one(w: &'static Workload, cli: &Cli) -> Result<bool, String> {
    let (report, defs): (Report, &[MetricDef]) = if cli.trace {
        (traced(w, cli)?, &PER_LAYER)
    } else {
        (untraced(w, cli)?, &END_TO_END)
    };
    report.validate(defs)?;
    for violation in &report.violations {
        eprintln!("perf: {}: VIOLATION: {violation}", w.name);
    }
    let detailed = report.detailed(defs).render();
    if let Some(path) = &cli.out {
        write_file(path, &detailed)?;
    }
    println!("{detailed}");
    println!("{}", report.result_line(defs).render());
    Ok(report.correct())
}

/// Client-side gate shared by both kinds of run: every acknowledgement
/// is one latency sample of a submitted command.
fn check_clients(report: &mut Report, s: &WindowStats) {
    if s.committed + s.timeouts != s.attempted {
        report.violation(format!(
            "{} commits + {} timeouts != {} attempted",
            s.committed, s.timeouts, s.attempted
        ));
    }
    if s.acked_total > s.submitted_total {
        report.violation("more acknowledgements than submissions");
    }
}

fn latency(s: &WindowStats, value: Option<f64>) -> Result<f64, String> {
    value.ok_or(format!(
        "no command committed in the window ({} attempted, {} timed out)",
        s.attempted, s.timeouts
    ))
}

fn failed_share(s: &WindowStats) -> f64 {
    s.timeouts as f64 / s.attempted.max(1) as f64
}

/// The untraced run: `SETUPS` timed set-ups (the last cluster is kept),
/// warm-up, the measured window, the client-side gate. The only source
/// of end-to-end metrics.
fn untraced(w: &'static Workload, cli: &Cli) -> Result<Report, String> {
    let mut report = Report::new(w, cli.seed, false, cli.seconds as f64);
    let keys = gen::keyspace(cli.seed);
    let mut setup_cmds = run::setup_stream(&keys, cli.seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cluster = None;
    for _ in 0..SETUPS {
        // The previous cluster is torn down outside the timed region.
        drop(cluster.take());
        let first = setup_cmds.next().expect("the stream is endless");
        let (built, took) = run::set_up(w, ObserverHandle::none(), first)?;
        setups.push(took.as_secs_f64());
        cluster = Some(built);
    }
    let mut cluster = cluster.expect("SETUPS > 0");
    let window = Duration::from_secs(cli.seconds);
    let s = run::drive(&mut cluster, w, &keys, cli.seed, WARMUP, window, || {}).stats();
    check_clients(&mut report, &s);
    if !cluster.agreement() {
        report.violation("replicas' first decisions disagree within a shard");
    }
    report.attempted = s.attempted;
    report.failed = s.timeouts;
    report.set_sampled("commit_p50_ms", latency(&s, s.p50_ms)?, s.committed);
    report.set_sampled("commit_p95_ms", latency(&s, s.p95_ms)?, s.committed);
    report.set_sampled("throughput_cmds_s", s.throughput_cmds_s, s.committed);
    let setup_s = stats::median(&setups).expect("SETUPS > 0");
    report.set_sampled("setup_s", setup_s, SETUPS as u64);
    report.detail.push(("client", client_detail(&s)));
    let setups = setups.into_iter().map(Json::Num).collect();
    report.detail.push(("setups_s", Json::Arr(setups)));
    Ok(report)
}

/// Client-side context printed with every report: what the percentiles
/// rest on and how healthy the load generator was.
fn client_detail(s: &WindowStats) -> Json {
    let n = s.committed as usize;
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    let slice_rates = s.slice_rates.iter().copied().map(Json::Num).collect();
    let highest = stats::highest_supported_percentile(n);
    Json::obj([
        ("samples", Json::Num(s.committed as f64)),
        ("attempted", Json::Num(s.attempted as f64)),
        ("timeouts", Json::Num(s.timeouts as f64)),
        ("failed_share", Json::Num(failed_share(s))),
        ("starved_clients", Json::Num(s.starved_clients as f64)),
        ("warmup_timeouts", Json::Num(s.warmup_timeouts as f64)),
        ("outside_wait_share", Json::Num(s.outside_wait_share)),
        ("window_s", Json::Num(s.window_s)),
        ("commit_p99_ms", opt(s.p99_ms)),
        ("commit_max_ms", opt(s.max_ms)),
        ("slice_rates_cmds_s", Json::Arr(slice_rates)),
        (
            "p95_has_ten_samples_beyond",
            Json::Bool(stats::supported(n, 950)),
        ),
        (
            "highest_supported_percentile",
            opt(highest.map(|pm| pm as f64 / 10.0)),
        ),
    ])
}

/// Counter differences between two snapshots of the traced cluster's
/// metrics (its histograms cannot be differenced and cover warm-up too).
struct Counted {
    fast: u64,
    slow_paths: u64,
    slow_entries: u64,
    recovery_gt: u64,
    recovery_eq: u64,
    ballot_advances: u64,
    leader_changes: u64,
    dropped: u64,
    reconnects: u64,
    msgs: u64,
    bytes: u64,
}

impl Counted {
    fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Counted {
        let decided = |p: Path| after.decided(p) - before.decided(p);
        let recovered = |c: RecoveryCase| after.recovery(c) - before.recovery(c);
        // The reactor also reports whole flushes under the kind "wire";
        // counting them would double the bytes on that backend only.
        let wire = |snap: &MetricsSnapshot| {
            snap.bytes_by_kind
                .iter()
                .filter(|(kind, _)| kind.as_str() != "wire")
                .fold((0, 0), |(m, b), (_, s)| (m + s.messages, b + s.bytes))
        };
        let ((msgs0, bytes0), (msgs1, bytes1)) = (wire(before), wire(after));
        Counted {
            fast: decided(Path::Fast),
            slow_paths: decided(Path::Slow) + decided(Path::RecoveryGt) + decided(Path::RecoveryEq),
            slow_entries: after.slow_entries - before.slow_entries,
            recovery_gt: recovered(RecoveryCase::Gt),
            recovery_eq: recovered(RecoveryCase::Eq),
            ballot_advances: after.ballot_advances - before.ballot_advances,
            leader_changes: after.leader_changes - before.leader_changes,
            dropped: after.dropped - before.dropped,
            reconnects: after.reconnects - before.reconnects,
            msgs: msgs1 - msgs0,
            bytes: bytes1 - bytes0,
        }
    }
}

/// Waits for the live replicas' applied-command totals to stop moving
/// and returns them; commands in flight when the clients stopped still
/// commit everywhere.
fn settled_totals(tally: &observe::Tally, live: &[usize]) -> Vec<u64> {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let mut last = tally.applied();
    loop {
        std::thread::sleep(5 * WALL_DELTA);
        let now = tally.applied();
        let equal = live.windows(2).all(|pair| now[pair[0]] == now[pair[1]]);
        if (now == last && equal) || std::time::Instant::now() >= deadline {
            return now;
        }
        last = now;
    }
}

/// The `client.*`, `fault.*` and `proc.*` metrics: the observers-off
/// half of a traced run, seen from the clients and from `/proc/self`.
fn record_plain_half(
    report: &mut Report,
    s: &WindowStats,
    log: &run::DriveLog,
) -> Result<(), String> {
    report.attempted = s.attempted;
    report.failed = s.timeouts;
    report.set_sampled("client.commit_p99_ms", latency(s, s.p99_ms)?, s.committed);
    report.set_sampled("client.commit_max_ms", latency(s, s.max_ms)?, s.committed);
    report.set("client.samples", s.committed as f64);
    report.set("client.attempted", s.attempted as f64);
    report.set("client.timeouts", s.timeouts as f64);
    report.set("client.failed_share", failed_share(s));
    report.set("client.starved_clients", s.starved_clients as f64);
    report.set("client.warmup_timeouts", s.warmup_timeouts as f64);
    report.set("client.outside_wait_share", s.outside_wait_share);
    let unavailable = match report.workload.crash {
        Some(_) => latency(s, s.first_commit_after_start_ms)?,
        None => 0.0,
    };
    report.set("fault.unavailable_ms", unavailable);

    let (Some(a), Some(b)) = (log.proc_start, log.proc_end) else {
        return Err("/proc/self is unreadable, so the proc.* metrics cannot be taken".into());
    };
    let commits = s.committed.max(1) as f64;
    let per_cmd = |end: u64, start: u64| end.saturating_sub(start) as f64 / commits;
    report.set(
        "proc.cpu_us_per_cmd",
        (b.cpu_seconds - a.cpu_seconds) * 1e6 / commits,
    );
    report.set("proc.threads", b.threads as f64);
    report.set(
        "proc.ctx_switches_per_cmd",
        per_cmd(b.ctx_switches, a.ctx_switches),
    );
    report.set("proc.rss_bytes_per_cmd", per_cmd(b.rss_bytes, a.rss_bytes));
    report.set(
        "proc.peak_rss_mb",
        b.peak_rss_bytes as f64 / (1 << 20) as f64,
    );
    Ok(())
}

/// The traced gate and the observer-fed (**T**) metrics: what the
/// observers-on half counted from inside, `counted` over its window and
/// `after` at its end.
fn record_observed_half(
    report: &mut Report,
    s: &WindowStats,
    totals: &[u64],
    live: &[usize],
    counted: &Counted,
    after: &MetricsSnapshot,
) {
    let applied = totals[live[0]];
    if live.iter().any(|&i| totals[i] != applied) {
        report.violation(format!(
            "live replicas applied different totals: {totals:?}"
        ));
    }
    // +1: the set-up command. Every acknowledged command was applied,
    // and nothing was applied that was not submitted.
    if applied < s.acked_total + 1 || applied > s.submitted_total + 1 {
        report.violation(format!(
            "replicas applied {applied} commands; clients saw {} acknowledged of {} submitted",
            s.acked_total, s.submitted_total
        ));
    }
    let commits = s.committed.max(1) as f64;
    let paths = (counted.fast + counted.slow_paths).max(1) as f64;
    report.set("core.fast_path_share", counted.fast as f64 / paths);
    report.set(
        "core.slow_entries_per_kcmd",
        counted.slow_entries as f64 * 1e3 / commits,
    );
    report.set("core.recovery_gt", counted.recovery_gt as f64);
    report.set("core.recovery_eq", counted.recovery_eq as f64);
    report.set("core.ballot_advances", counted.ballot_advances as f64);
    report.set("core.leader_changes", counted.leader_changes as f64);
    let (batch, depth) = (after.batch_size, after.queue_depth);
    report.set_sampled("smr.cmds_per_batch_p50", batch.p50 as f64, batch.count);
    report.set_sampled("smr.queue_depth_p50", depth.p50 as f64, depth.count);
    report.set_sampled("smr.queue_depth_p99", depth.p99 as f64, depth.count);
    report.set("transport.msgs_per_cmd", counted.msgs as f64 / commits);
    report.set("transport.bytes_per_cmd", counted.bytes as f64 / commits);
    report.set("transport.dropped", counted.dropped as f64);
    report.set("transport.reconnects", counted.reconnects as f64);
}

/// The traced run: the workload once with observers off and once with
/// them on (half the window each), then the probe pass. Reports the
/// per-layer metrics only.
fn traced(w: &'static Workload, cli: &Cli) -> Result<Report, String> {
    let mut report = Report::new(w, cli.seed, true, cli.seconds as f64);
    let keys = gen::keyspace(cli.seed);
    let mut setup_cmds = run::setup_stream(&keys, cli.seed);
    let window = Duration::from_secs(cli.seconds) / 2;

    // Observers off: client-side and OS figures.
    let first = setup_cmds.next().expect("the stream is endless");
    let (mut cluster, _) = run::set_up(w, ObserverHandle::none(), first)?;
    let log = run::drive(
        &mut cluster,
        w,
        &keys,
        cli.seed,
        TRACED_WARMUP,
        window,
        || {},
    );
    let plain = log.stats();
    check_clients(&mut report, &plain);
    if !cluster.agreement() {
        report.violation("untraced half: replicas' first decisions disagree within a shard");
    }
    drop(cluster);
    record_plain_half(&mut report, &plain, &log)?;

    // Observers on: the same workload, counted from inside.
    let live: Vec<usize> = (0..3).filter(|&i| w.crash != Some(i as u32)).collect();
    let (tally, obs) = observe::Tally::shared(3);
    let first = setup_cmds.next().expect("the stream is endless");
    let (mut cluster, _) = run::set_up(w, obs, first)?;
    let mut before = None;
    let snapshot = || before = Some(tally.metrics.snapshot());
    let observed = run::drive(
        &mut cluster,
        w,
        &keys,
        cli.seed,
        TRACED_WARMUP,
        window,
        snapshot,
    )
    .stats();
    check_clients(&mut report, &observed);
    let totals = settled_totals(&tally, &live);
    if !cluster.agreement() {
        report.violation("traced half: replicas' first decisions disagree within a shard");
    }
    drop(cluster);
    let after = tally.metrics.snapshot();
    let counted = Counted::between(&before.expect("drive ran the hook"), &after);
    record_observed_half(&mut report, &observed, &totals, &live, &counted, &after);
    let lost = 1.0 - observed.throughput_cmds_s / plain.throughput_cmds_s.max(f64::MIN_POSITIVE);
    report.set("telemetry.overhead_pct", lost * 100.0);

    // The probe pass, on the first commands client 0 was given.
    let cmds: Vec<_> = gen::CommandStream::new(&keys, cli.seed, 0)
        .take(PROBE_COMMANDS)
        .collect();
    let probe::ProbeOutcome {
        values,
        violations,
        tracer,
    } = probe::run(w, &cmds);
    for (name, value) in &values {
        report.set(name, *value);
    }
    report.violations.extend(violations);
    let spans = tracer.spans();
    let traced_cmds = (PROBE_COMMANDS as u64).min(probe::TRACED_SUBJECTS) as f64;
    report.set("trace.spans", spans.len() as f64);
    let self_per_cmd = |layer| span::layer_self_ns(spans, layer) as f64 / traced_cmds;
    report.set("trace.smr_self_ns_per_cmd", self_per_cmd("smr"));
    report.set("trace.codec_self_ns_per_cmd", self_per_cmd("codec"));
    report.set("trace.scheduler_self_ns_per_cmd", self_per_cmd("commit"));

    // Budget: where one commit's time goes. `layers` sums the probe
    // figures along the blocking steps of a fast-path commit: the
    // runtime's hand-offs, two hops on this backend, one slot's handler
    // work, and the codec for the two messages on the critical path.
    let probe = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let slot_cmds = (after.batch_size.p50 as f64).clamp(1.0, w.batch as f64);
    let p50_ms = latency(&plain, plain.p50_ms)?;
    let link_ms = 2.0 * w.link_delay.as_secs_f64() * 1e3;
    let layers_ms = probe("proxy.turnaround_us") / 1e3
        + 2.0 * probe::one_way_us(&values, w) / 1e3
        + probe("smr.ns_per_cmd") * slot_cmds / 1e6
        + 2.0 * (probe("codec.encode_ns_per_msg") + probe("codec.decode_ns_per_msg")) / 1e6;
    report.set_sampled("budget.commit_p50_ms", p50_ms, plain.committed);
    report.set("budget.link_ms", link_ms);
    report.set("budget.layers_ms", layers_ms);
    report.set("budget.residual_ms", p50_ms - link_ms - layers_ms);

    let path = cli.spans.clone().unwrap_or_else(|| default_spans_path(w));
    std::fs::File::create(&path)
        .map(std::io::BufWriter::new)
        .and_then(|mut file| tracer.write_jsonl(&mut file).and_then(|()| file.flush()))
        .map_err(|e| format!("cannot write spans to {path}: {e}"))?;
    report.detail.push(("spans_file", Json::str(path)));
    report.detail.push(("client", client_detail(&plain)));
    report
        .detail
        .push(("traced_client", client_detail(&observed)));
    Ok(report)
}

/// Beside the executable: inside the build directory, so inside the
/// checkout and ignored by git.
fn default_spans_path(w: &Workload) -> String {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    dir.join(format!("perf_spans_{}.jsonl", w.name))
        .to_string_lossy()
        .into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let cli = parse(&[
            "--workload",
            "busy_tcp",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("busy_tcp"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (42, 10, true));
        assert!(
            !parse(&["--workload", "idle_lan", "--trace", "0"])
                .unwrap()
                .trace
        );
        let bare = parse(&["--workload", "all", "--trace", "--out", "r.json"]).unwrap();
        assert!(bare.trace);
        assert_eq!(bare.out.as_deref(), Some("r.json"));
    }

    #[test]
    fn unknown_names_and_bad_values_are_errors() {
        for bad in [
            &["--workload", "busy"][..],
            &["--workload"],
            &["--workload", "idle_lan", "--seconds", "0"],
            &["--workload", "idle_lan", "--seconds", "61"],
            &["--workload", "idle_lan", "--seed", "-1"],
            &["--workload", "idle_lan", "--trace", "2"],
            &["--workload", "idle_lan", "--selfcheck"],
            &["--bogus"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
