//! What the benchmark runs and what it reports: the workload table and
//! the metric tables. `BENCHMARK.json` at the repository root repeats
//! the names, units and bounds; a unit test keeps the two in step.

use std::time::Duration;

/// Wall-clock length of one protocol Δ in every workload (the
/// `ClusterBuilder` default, stated here because the batching pump and
/// the slow-path timers are multiples of it).
pub const WALL_DELTA: Duration = Duration::from_millis(10);

/// The only public completion API is `submit_and_wait`; a command that
/// has not committed after this long counts as failed.
pub const COMMIT_TIMEOUT: Duration = Duration::from_secs(1);

/// Untraced runs warm up for this long before the measured window.
pub const WARMUP: Duration = Duration::from_secs(2);

/// A traced run measures two clusters (observers off, then on) in the
/// time an untraced run measures one, so each warms up for half as long.
pub const TRACED_WARMUP: Duration = Duration::from_secs(1);

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The measured window is cut into this many equal slices and
/// throughput is the median slice's rate, so one scheduling hiccup on a
/// shared host moves one slice, not the result.
pub const SLICES: usize = 8;

/// Distinct keys the generator draws from.
pub const KEYSPACE: usize = 4096;

/// Commands the probe pass schedules through each layer.
pub const PROBE_COMMANDS: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Memory,
    Tcp,
    Reactor,
}

impl Backend {
    pub fn label(self) -> &'static str {
        match self {
            Backend::Memory => "memory",
            Backend::Tcp => "tcp",
            Backend::Reactor => "reactor",
        }
    }
}

/// Where a workload's clients submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every client at this proxy.
    Proxy(u32),
    /// First half of the clients at the first proxy, the rest at the
    /// second: two proposers racing for the same slots.
    Split(u32, u32),
    /// Leader-routed sharded clients (`ShardedCluster::client`).
    ShardLeaders,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub clients: usize,
    pub placement: Placement,
    pub backend: Backend,
    pub link_delay: Duration,
    pub batch: usize,
    pub depth: usize,
    pub shards: usize,
    /// Process crashed at the end of warm-up, if any.
    pub crash: Option<u32>,
    /// Whether `BENCHMARK.json` lists it, i.e. whether the driver gates
    /// changes on it. Two workloads are measured but not gated; each
    /// says why below.
    pub gated: bool,
}

const LAN: Duration = Duration::from_millis(2);

const fn busy(name: &'static str, why: &'static str, backend: Backend, gated: bool) -> Workload {
    Workload {
        name,
        why,
        clients: 8,
        placement: Placement::Proxy(1),
        backend,
        link_delay: Duration::ZERO,
        batch: 4,
        depth: 2,
        shards: 1,
        crash: None,
        gated,
    }
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "idle_lan",
        why: "one client, 2 ms links, batch 4: a lone command's latency budget (link delay, batching wait, hand-offs) with the CPU idle",
        clients: 1,
        placement: Placement::Proxy(1),
        backend: Backend::Memory,
        link_delay: LAN,
        batch: 4,
        depth: 2,
        shards: 1,
        crash: None,
        gated: true,
    },
    busy(
        "busy_mem",
        "8 clients, in-memory, instant links: CPU-bound, so core, smr, codec, node loop and router wake-ups are the critical path",
        Backend::Memory,
        true,
    ),
    busy(
        "busy_tcp",
        "busy_mem over blocking TCP: adds framing, syscalls and the writer/reader threads",
        Backend::Tcp,
        true,
    ),
    busy(
        "busy_reactor",
        "busy_mem over the reactor: same wire format, one polling event loop instead of a thread per connection",
        Backend::Reactor,
        // Not gated: bimodal on the builder's host. A cluster instance
        // settles at either ≈ 9.7k or ≈ 7.8k cmds/s (the node loops and
        // the reactors all poll on ≈ 285 µs sleeps and lock phase), and
        // no bound up to the contract's 25 % tolerates a 20 % mode flip.
        false,
    ),
    Workload {
        name: "sharded_lan",
        why: "4 shards, 8 leader-routed clients, 2 ms links, batch 1: shard tag/demux and k groups multiplexed on one node thread, smr without batching",
        clients: 8,
        placement: Placement::ShardLeaders,
        backend: Backend::Memory,
        link_delay: LAN,
        batch: 1,
        depth: 2,
        shards: 4,
        crash: None,
        gated: true,
    },
    Workload {
        name: "contended_lan",
        why: "4 clients at p1 and 4 at p2 race for slots over 2 ms links: collisions, slow path, recovery rule and re-proposal do the work",
        clients: 8,
        placement: Placement::Split(1, 2),
        backend: Backend::Memory,
        link_delay: LAN,
        batch: 1,
        depth: 1,
        shards: 1,
        crash: None,
        // Not gated: one proxy's clients starve today (every command
        // of theirs times out), and the driver's contract admits only
        // workloads on which no operation fails.
        gated: false,
    },
    Workload {
        name: "crashed_lan",
        why: "4 clients at p1, 2 ms links, batch 1; the leader p0 is crashed at the end of warm-up, so the window runs with e = 1 process down",
        clients: 4,
        placement: Placement::Proxy(1),
        backend: Backend::Memory,
        link_delay: LAN,
        batch: 1,
        depth: 2,
        shards: 1,
        crash: Some(0),
        gated: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: f64,
    /// `--selfcheck` also accepts a difference below this absolute
    /// amount: a relative bound on a 30 ms set-up would gate scheduler
    /// noise.
    pub abs_floor: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        abs_floor: 0.0,
    }
}

/// Reported by every untraced run. Every bound is the contract's
/// maximum, 25 %: between two sets of ten runs taken ten minutes apart
/// on the builder's host the `busy_tcp` medians moved by 12 % (p50,
/// throughput) and 11 % (p95) with no change to the code, and seed-to-
/// seed spreads reached 3.9 % (p50), 9.4 % (p95) and 5.3 % (throughput)
/// on `busy_mem` / `busy_tcp` while the host was noisy. The `_lan`
/// workloads stay within 1 %, but a bound is per metric, not per
/// workload.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("commit_p50_ms", "ms", Better::Lower, 0.25),
    e2e("commit_p95_ms", "ms", Better::Lower, 0.25),
    e2e("throughput_cmds_s", "1/s", Better::Higher, 0.25),
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.25,
    },
];

/// `--selfcheck` compares failed shares absolutely: most runs have
/// none, so a relative bound has no base.
pub const FAILED_SHARE_BOUND: f64 = 0.005;

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        abs_floor: 0.0,
    }
}

use Better::{Higher, Lower};

/// Reported by every traced run. Source of each: **C** client side,
/// **T** observers of the traced cluster, **P** probe pass, **O** OS
/// counters around the untraced window.
pub const PER_LAYER: [MetricDef; 67] = [
    // client (C)
    layer("client.commit_p99_ms", "ms", Lower),
    layer("client.commit_max_ms", "ms", Lower),
    layer("client.samples", "count", Higher),
    layer("client.attempted", "count", Higher),
    layer("client.timeouts", "count", Lower),
    layer("client.failed_share", "share", Lower),
    layer("client.starved_clients", "count", Lower),
    layer("client.warmup_timeouts", "count", Lower),
    layer("client.outside_wait_share", "share", Lower),
    layer("fault.unavailable_ms", "ms", Lower),
    // core (T)
    layer("core.fast_path_share", "share", Higher),
    layer("core.slow_entries_per_kcmd", "count", Lower),
    layer("core.recovery_gt", "count", Lower),
    layer("core.recovery_eq", "count", Lower),
    layer("core.ballot_advances", "count", Lower),
    layer("core.leader_changes", "count", Lower),
    // core (P)
    layer("core.on_propose_ns", "ns", Lower),
    layer("core.on_message_ns", "ns", Lower),
    layer("core.msgs_per_decision", "count", Lower),
    layer("core.handler_calls_per_decision", "count", Lower),
    layer("core.fast_ns_per_decision", "ns", Lower),
    layer("core.slow_ns_per_decision", "ns", Lower),
    layer("baselines.twostep_ns_per_decision", "ns", Lower),
    layer("baselines.paxos_ns_per_decision", "ns", Lower),
    layer("baselines.fastpaxos_ns_per_decision", "ns", Lower),
    layer("baselines.epaxos_ns_per_decision", "ns", Lower),
    // smr (T)
    layer("smr.cmds_per_batch_p50", "count", Higher),
    layer("smr.queue_depth_p50", "count", Lower),
    layer("smr.queue_depth_p99", "count", Lower),
    // smr (P)
    layer("smr.ns_per_cmd", "ns", Lower),
    layer("smr.msgs_per_cmd", "count", Lower),
    layer("smr.wire_bytes_per_cmd", "bytes", Lower),
    layer("smr.allocs_per_cmd", "count", Lower),
    layer("smr.apply_ns_per_cmd", "ns", Lower),
    // codec (P)
    layer("codec.encode_ns_per_msg", "ns", Lower),
    layer("codec.decode_ns_per_msg", "ns", Lower),
    layer("codec.frame_ns_per_msg", "ns", Lower),
    layer("codec.shard_tag_ns_per_msg", "ns", Lower),
    layer("codec.bytes_per_propose", "bytes", Lower),
    layer("codec.allocs_per_msg", "count", Lower),
    // transport (P)
    layer("transport.memory_oneway_us", "us", Lower),
    layer("transport.tcp_oneway_us", "us", Lower),
    layer("transport.reactor_oneway_us", "us", Lower),
    layer("transport.memory_ns_per_msg", "ns", Lower),
    layer("transport.tcp_ns_per_msg", "ns", Lower),
    layer("transport.reactor_ns_per_msg", "ns", Lower),
    // transport (T)
    layer("transport.msgs_per_cmd", "count", Lower),
    layer("transport.bytes_per_cmd", "bytes", Lower),
    layer("transport.dropped", "count", Lower),
    layer("transport.reconnects", "count", Lower),
    // node / proxy / shard (P)
    layer("node.turnaround_us", "us", Lower),
    layer("proxy.turnaround_us", "us", Lower),
    layer("shard.route_ns", "ns", Lower),
    // proc (O)
    layer("proc.cpu_us_per_cmd", "us", Lower),
    layer("proc.threads", "count", Lower),
    layer("proc.ctx_switches_per_cmd", "count", Lower),
    layer("proc.rss_bytes_per_cmd", "bytes", Lower),
    layer("proc.peak_rss_mb", "MB", Lower),
    // telemetry: untraced vs traced half of the same run
    layer("telemetry.overhead_pct", "%", Lower),
    // budget (derived): link + layers + residual == commit_p50
    layer("budget.commit_p50_ms", "ms", Lower),
    layer("budget.link_ms", "ms", Lower),
    layer("budget.layers_ms", "ms", Lower),
    layer("budget.residual_ms", "ms", Lower),
    // trace: spans recorded around the probe pass's calls
    layer("trace.spans", "count", Higher),
    layer("trace.smr_self_ns_per_cmd", "ns", Lower),
    layer("trace.codec_self_ns_per_cmd", "ns", Lower),
    layer("trace.scheduler_self_ns_per_cmd", "ns", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.clients <= 8, "{}: at most 8 client threads", w.name);
        }
    }

    fn names_of(doc: &Json, key: &str) -> Vec<String> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|i| i.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect(),
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the binary reports. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let gated: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .collect();
        assert_eq!(names_of(&doc, "workloads"), gated);
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names_of(&doc, "per_layer"), per_layer);
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            panic!("end_to_end missing")
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(item.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(item.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                item.get("better").and_then(Json::as_str),
                Some(def.better.label())
            );
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
    }
}
