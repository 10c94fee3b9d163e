//! The standard metrics aggregator and its snapshot exporter.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, RwLock};

use twostep_types::ProcessId;

use crate::{
    Counter, Histogram, HistogramSnapshot, ObserverHandle, Path, ProtocolObserver, RecoveryCase,
};

/// Message and byte totals for one wire message kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteStats {
    /// Messages sent.
    pub messages: u64,
    /// Total encoded payload bytes.
    pub bytes: u64,
}

/// The counters behind one kind's [`ByteStats`].
#[derive(Debug, Default)]
struct KindBytes {
    messages: Counter,
    bytes: Counter,
}

impl KindBytes {
    fn record(&self, bytes: usize) {
        self.messages.inc();
        self.bytes.add(bytes as u64);
    }

    fn stats(&self) -> ByteStats {
        ByteStats {
            messages: self.messages.get(),
            bytes: self.bytes.get(),
        }
    }
}

/// The standard [`ProtocolObserver`]: counts decisions per path, files
/// engine-reported latencies into per-path histograms, tallies
/// slow-path entries, recovery cases, leader changes, ballot advances,
/// transport drops/reconnects, queue depths and per-kind wire bytes.
///
/// Latency attribution: a protocol reports `decided(p, path)`
/// synchronously when it records its decision; the engine then reports
/// `decision_latency(p, l)` when it drains the decision effect. The
/// metrics join the two on the process id, filing the latency under
/// the most recently reported path of that process.
#[derive(Debug, Default)]
pub struct Metrics {
    decisions: [Counter; Path::COUNT],
    latency: [Histogram; Path::COUNT],
    last_path: Mutex<HashMap<ProcessId, Path>>,
    slow_entries: Counter,
    recovery: [Counter; RecoveryCase::COUNT],
    leader_changes: Counter,
    ballot_advances: Counter,
    queue_depth: Histogram,
    /// Commands proposed, indexed by `by_pump as usize`.
    proposed: [Counter; 2],
    batch_size: Histogram,
    amortized_latency: Histogram,
    dropped: Counter,
    reconnects: Counter,
    /// Read-mostly: a message bumps its kind's counters under the shared
    /// lock, and only a kind's first message takes the exclusive one.
    bytes: RwLock<BTreeMap<String, KindBytes>>,
    injections: Mutex<BTreeMap<String, u64>>,
}

impl Metrics {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Creates an empty aggregator already wrapped for sharing, plus
    /// the handle protocols and engines take.
    pub fn shared() -> (Arc<Metrics>, ObserverHandle) {
        let metrics = Arc::new(Metrics::new());
        let handle = ObserverHandle::from(metrics.clone());
        (metrics, handle)
    }

    /// A point-in-time copy of every aggregate.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            decisions: std::array::from_fn(|i| self.decisions[i].get()),
            latency: std::array::from_fn(|i| self.latency[i].snapshot()),
            slow_entries: self.slow_entries.get(),
            recovery_cases: std::array::from_fn(|i| self.recovery[i].get()),
            leader_changes: self.leader_changes.get(),
            ballot_advances: self.ballot_advances.get(),
            queue_depth: self.queue_depth.snapshot(),
            event_released: self.proposed[0].get(),
            pump_released: self.proposed[1].get(),
            batch_size: self.batch_size.snapshot(),
            amortized_latency: self.amortized_latency.snapshot(),
            dropped: self.dropped.get(),
            reconnects: self.reconnects.get(),
            bytes_by_kind: self
                .bytes
                .read()
                .expect("byte map poisoned")
                .iter()
                .map(|(kind, c)| (kind.clone(), c.stats()))
                .collect(),
            injections_by_behavior: self
                .injections
                .lock()
                .expect("injection map poisoned")
                .clone(),
        }
    }

    /// Shorthand for `self.snapshot().render_text()`.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

impl ProtocolObserver for Metrics {
    fn decided(&self, process: ProcessId, path: Path) {
        self.decisions[path.index()].inc();
        self.last_path
            .lock()
            .expect("path map poisoned")
            .insert(process, path);
    }

    fn decision_latency(&self, process: ProcessId, latency: u64) {
        let path = self
            .last_path
            .lock()
            .expect("path map poisoned")
            .get(&process)
            .copied();
        // A latency with no prior path report (a protocol that bypassed
        // `decided`) is filed as Learned: it reached the engine's
        // decision stream without a path of its own.
        let path = path.unwrap_or(Path::Learned);
        self.latency[path.index()].record(latency);
    }

    fn slow_path_entered(&self, _process: ProcessId) {
        self.slow_entries.inc();
    }

    fn recovery_case(&self, _process: ProcessId, case: RecoveryCase) {
        self.recovery[case.index()].inc();
    }

    fn leader_changed(&self, _process: ProcessId, _leader: ProcessId) {
        self.leader_changes.inc();
    }

    fn ballot_advanced(&self, _process: ProcessId) {
        self.ballot_advances.inc();
    }

    fn queue_depth(&self, _process: ProcessId, depth: usize) {
        self.queue_depth.record(depth as u64);
    }

    fn batch_proposed(&self, _process: ProcessId, size: usize, by_pump: bool) {
        self.proposed[usize::from(by_pump)].add(size as u64);
    }

    fn batch_committed(&self, _process: ProcessId, size: usize) {
        self.batch_size.record(size as u64);
    }

    fn amortized_latency(&self, _process: ProcessId, latency: u64) {
        self.amortized_latency.record(latency);
    }

    fn bytes_sent(&self, _process: ProcessId, kind: &str, bytes: usize) {
        // Looked up by `&str`: this runs once per message sent, and only
        // a kind's first appearance needs an owned key and the write lock.
        if let Some(c) = self.bytes.read().expect("byte map poisoned").get(kind) {
            c.record(bytes);
            return;
        }
        let mut map = self.bytes.write().expect("byte map poisoned");
        map.entry(kind.to_string()).or_default().record(bytes);
    }

    fn message_dropped(&self, _from: ProcessId, _to: ProcessId) {
        self.dropped.inc();
    }

    fn reconnected(&self, _process: ProcessId) {
        self.reconnects.inc();
    }

    fn fault_injected(&self, _process: ProcessId, behavior: &str) {
        let mut map = self.injections.lock().expect("injection map poisoned");
        *map.entry(behavior.to_string()).or_default() += 1;
    }
}

/// A point-in-time copy of a [`Metrics`] aggregator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Decisions per path, indexed by [`Path::index`].
    pub decisions: [u64; Path::COUNT],
    /// Latency summary per path, indexed by [`Path::index`].
    pub latency: [HistogramSnapshot; Path::COUNT],
    /// Slow-path ballots opened.
    pub slow_entries: u64,
    /// Recovery-rule completions per case, indexed by
    /// [`RecoveryCase::index`].
    pub recovery_cases: [u64; RecoveryCase::COUNT],
    /// Ω leader switches observed.
    pub leader_changes: u64,
    /// Ballot adoptions observed.
    pub ballot_advances: u64,
    /// Replica pending-command depth distribution.
    pub queue_depth: HistogramSnapshot,
    /// Commands proposed in the step of the event that queued them or
    /// freed the pipeline.
    pub event_released: u64,
    /// Commands that waited in a proxy's queue until its pump tick.
    pub pump_released: u64,
    /// Commands per applied batch (one sample per committed slot).
    pub batch_size: HistogramSnapshot,
    /// Client-observed per-command latency through a proxy (engine
    /// units) — amortized across batching.
    pub amortized_latency: HistogramSnapshot,
    /// Messages the transport gave up on.
    pub dropped: u64,
    /// Broken connections re-established by the transport.
    pub reconnects: u64,
    /// Wire traffic per message kind.
    pub bytes_by_kind: BTreeMap<String, ByteStats>,
    /// Byzantine fault injections per behavior (`equivocate`, `forge`,
    /// `lie-ballot`, `silence`) — one count per actually-perturbed
    /// message.
    pub injections_by_behavior: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Decisions taken via `path`.
    pub fn decided(&self, path: Path) -> u64 {
        self.decisions[path.index()]
    }

    /// Latency summary for `path`.
    pub fn latency_of(&self, path: Path) -> HistogramSnapshot {
        self.latency[path.index()]
    }

    /// Recovery-rule completions via `case`.
    pub fn recovery(&self, case: RecoveryCase) -> u64 {
        self.recovery_cases[case.index()]
    }

    /// Total decisions across all paths.
    pub fn total_decisions(&self) -> u64 {
        self.decisions.iter().sum()
    }

    /// Fault injections recorded under `behavior`.
    pub fn injections(&self, behavior: &str) -> u64 {
        self.injections_by_behavior
            .get(behavior)
            .copied()
            .unwrap_or(0)
    }

    /// Total fault injections across all behaviors.
    pub fn total_injections(&self) -> u64 {
        self.injections_by_behavior.values().sum()
    }

    /// The share of proposed commands that waited for a pump tick
    /// (0 when nothing was proposed).
    pub fn pump_released_share(&self) -> f64 {
        let total = self.event_released + self.pump_released;
        if total == 0 {
            0.0
        } else {
            self.pump_released as f64 / total as f64
        }
    }

    /// Renders the snapshot in a text/Prometheus-style exposition
    /// format: one `name{labels} value` line per sample, `#`-prefixed
    /// comment lines for grouping. Quantile samples follow the
    /// Prometheus summary convention (`quantile` label, plus `_max`
    /// and `_count` companions).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# decisions by path\n");
        for p in Path::ALL {
            let _ = writeln!(
                out,
                "twostep_decisions_total{{path=\"{}\"}} {}",
                p.label(),
                self.decided(p)
            );
        }
        out.push_str("# decision latency by path (engine units)\n");
        for p in Path::ALL {
            let l = self.latency_of(p);
            if l.count == 0 {
                continue;
            }
            let label = p.label();
            let _ = writeln!(
                out,
                "twostep_decision_latency{{path=\"{label}\",quantile=\"0.5\"}} {}",
                l.p50
            );
            let _ = writeln!(
                out,
                "twostep_decision_latency{{path=\"{label}\",quantile=\"0.99\"}} {}",
                l.p99
            );
            let _ = writeln!(
                out,
                "twostep_decision_latency_max{{path=\"{label}\"}} {}",
                l.max
            );
            let _ = writeln!(
                out,
                "twostep_decision_latency_count{{path=\"{label}\"}} {}",
                l.count
            );
        }
        out.push_str("# protocol transitions\n");
        let _ = writeln!(out, "twostep_slow_path_entries_total {}", self.slow_entries);
        for c in RecoveryCase::ALL {
            let _ = writeln!(
                out,
                "twostep_recovery_cases_total{{case=\"{}\"}} {}",
                c.label(),
                self.recovery(c)
            );
        }
        let _ = writeln!(out, "twostep_leader_changes_total {}", self.leader_changes);
        let _ = writeln!(
            out,
            "twostep_ballot_advances_total {}",
            self.ballot_advances
        );
        out.push_str("# transport\n");
        let _ = writeln!(out, "twostep_messages_dropped_total {}", self.dropped);
        let _ = writeln!(out, "twostep_reconnects_total {}", self.reconnects);
        for (kind, stats) in &self.bytes_by_kind {
            let _ = writeln!(
                out,
                "twostep_messages_sent_total{{kind=\"{kind}\"}} {}",
                stats.messages
            );
            let _ = writeln!(
                out,
                "twostep_bytes_sent_total{{kind=\"{kind}\"}} {}",
                stats.bytes
            );
        }
        if !self.injections_by_behavior.is_empty() {
            out.push_str("# byzantine fault injections\n");
            for (behavior, count) in &self.injections_by_behavior {
                let _ = writeln!(
                    out,
                    "twostep_fault_injections_total{{behavior=\"{behavior}\"}} {count}"
                );
            }
        }
        if self.queue_depth.count > 0 {
            out.push_str("# replica queue depth\n");
            let q = self.queue_depth;
            let _ = writeln!(out, "twostep_queue_depth{{quantile=\"0.5\"}} {}", q.p50);
            let _ = writeln!(out, "twostep_queue_depth{{quantile=\"0.99\"}} {}", q.p99);
            let _ = writeln!(out, "twostep_queue_depth_max {}", q.max);
        }
        if self.event_released + self.pump_released > 0 {
            out.push_str("# commands proposed, by what released their batch\n");
            for (release, cmds) in [("event", self.event_released), ("pump", self.pump_released)] {
                let _ = writeln!(
                    out,
                    "twostep_commands_proposed_total{{release=\"{release}\"}} {cmds}"
                );
            }
        }
        if self.batch_size.count > 0 {
            out.push_str("# commands per applied batch\n");
            let b = self.batch_size;
            let _ = writeln!(out, "twostep_batch_size{{quantile=\"0.5\"}} {}", b.p50);
            let _ = writeln!(out, "twostep_batch_size{{quantile=\"0.99\"}} {}", b.p99);
            let _ = writeln!(out, "twostep_batch_size_max {}", b.max);
            let _ = writeln!(out, "twostep_batch_size_count {}", b.count);
        }
        if self.amortized_latency.count > 0 {
            out.push_str("# per-command amortized latency (engine units)\n");
            let a = self.amortized_latency;
            let _ = writeln!(
                out,
                "twostep_amortized_latency{{quantile=\"0.5\"}} {}",
                a.p50
            );
            let _ = writeln!(
                out,
                "twostep_amortized_latency{{quantile=\"0.99\"}} {}",
                a.p99
            );
            let _ = writeln!(out, "twostep_amortized_latency_max {}", a.max);
            let _ = writeln!(out, "twostep_amortized_latency_count {}", a.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn latencies_join_on_the_last_reported_path() {
        let m = Metrics::new();
        m.decided(p(0), Path::Fast);
        m.decision_latency(p(0), 2_000);
        m.decided(p(1), Path::RecoveryEq);
        m.decision_latency(p(1), 8_000);
        let s = m.snapshot();
        assert_eq!(s.decided(Path::Fast), 1);
        assert_eq!(s.decided(Path::RecoveryEq), 1);
        assert_eq!(s.latency_of(Path::Fast).count, 1);
        assert_eq!(s.latency_of(Path::Fast).max, 2_000);
        assert_eq!(s.latency_of(Path::RecoveryEq).max, 8_000);
        assert_eq!(s.total_decisions(), 2);
    }

    #[test]
    fn unattributed_latency_files_as_learned() {
        let m = Metrics::new();
        m.decision_latency(p(3), 500);
        assert_eq!(m.snapshot().latency_of(Path::Learned).count, 1);
    }

    #[test]
    fn transitions_are_counted() {
        let m = Metrics::new();
        m.slow_path_entered(p(2));
        m.recovery_case(p(2), RecoveryCase::Gt);
        m.leader_changed(p(1), p(2));
        m.ballot_advanced(p(0));
        m.message_dropped(p(0), p(3));
        m.reconnected(p(0));
        let s = m.snapshot();
        assert_eq!(s.slow_entries, 1);
        assert_eq!(s.recovery(RecoveryCase::Gt), 1);
        assert_eq!(s.leader_changes, 1);
        assert_eq!(s.ballot_advances, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.reconnects, 1);
    }

    #[test]
    fn byte_stats_accumulate_per_kind() {
        let m = Metrics::new();
        m.bytes_sent(p(0), "TwoB", 10);
        m.bytes_sent(p(1), "TwoB", 14);
        m.bytes_sent(p(0), "OneA", 6);
        let s = m.snapshot();
        assert_eq!(
            s.bytes_by_kind.get("TwoB"),
            Some(&ByteStats {
                messages: 2,
                bytes: 24
            })
        );
        assert_eq!(
            s.bytes_by_kind.get("OneA"),
            Some(&ByteStats {
                messages: 1,
                bytes: 6
            })
        );
    }

    #[test]
    fn byte_stats_from_many_threads_add_up() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..1_000 {
                        m.bytes_sent(p(t), if i % 2 == 0 { "Propose" } else { "Vote" }, 3);
                    }
                });
            }
        });
        let s = m.snapshot();
        for kind in ["Propose", "Vote"] {
            let want = ByteStats {
                messages: 2_000,
                bytes: 6_000,
            };
            assert_eq!(s.bytes_by_kind.get(kind), Some(&want), "{kind}");
        }
    }

    #[test]
    fn exporter_format_is_pinned() {
        let m = Metrics::new();
        m.decided(p(0), Path::Fast);
        m.decision_latency(p(0), 2_000);
        m.bytes_sent(p(0), "TwoB", 24);
        m.queue_depth(p(0), 3);
        let text = m.render_text();
        assert!(text.contains("twostep_decisions_total{path=\"fast\"} 1"));
        assert!(text.contains("twostep_decisions_total{path=\"recovery-gt\"} 0"));
        assert!(text.contains("twostep_decision_latency{path=\"fast\",quantile=\"0.5\"} 2000"));
        assert!(text.contains("twostep_decision_latency_count{path=\"fast\"} 1"));
        assert!(text.contains("twostep_recovery_cases_total{case=\"eq\"} 0"));
        assert!(text.contains("twostep_bytes_sent_total{kind=\"TwoB\"} 24"));
        assert!(text.contains("twostep_queue_depth_max 3"));
        // Latency sections for paths with no samples are omitted.
        assert!(!text.contains("twostep_decision_latency{path=\"slow\""));
    }

    #[test]
    fn batch_and_amortized_histograms_accumulate() {
        let m = Metrics::new();
        m.batch_committed(p(0), 1);
        m.batch_committed(p(0), 16);
        m.amortized_latency(p(0), 500);
        m.amortized_latency(p(1), 2_000);
        let s = m.snapshot();
        assert_eq!(s.batch_size.count, 2);
        assert_eq!(s.batch_size.max, 16);
        assert_eq!(s.amortized_latency.count, 2);
        assert_eq!(s.amortized_latency.max, 2_000);
        let text = s.render_text();
        assert!(text.contains("twostep_batch_size_max 16"));
        assert!(!text.contains("twostep_commands_proposed_total"));
        assert!(text.contains("twostep_amortized_latency_count 2"));
    }

    #[test]
    fn proposed_commands_split_by_release() {
        let m = Metrics::new();
        m.batch_proposed(p(0), 4, false);
        m.batch_proposed(p(1), 4, false);
        m.batch_proposed(p(0), 2, true);
        let s = m.snapshot();
        assert_eq!((s.event_released, s.pump_released), (8, 2));
        assert_eq!(s.pump_released_share(), 0.2);
        assert_eq!(MetricsSnapshot::default().pump_released_share(), 0.0);
        let text = s.render_text();
        assert!(text.contains("twostep_commands_proposed_total{release=\"event\"} 8"));
        assert!(text.contains("twostep_commands_proposed_total{release=\"pump\"} 2"));
    }

    #[test]
    fn injection_counters_accumulate_per_behavior() {
        let m = Metrics::new();
        m.fault_injected(p(2), "equivocate");
        m.fault_injected(p(2), "equivocate");
        m.fault_injected(p(3), "forge");
        let s = m.snapshot();
        assert_eq!(s.injections("equivocate"), 2);
        assert_eq!(s.injections("forge"), 1);
        assert_eq!(s.injections("silence"), 0);
        assert_eq!(s.total_injections(), 3);
        let text = s.render_text();
        assert!(text.contains("twostep_fault_injections_total{behavior=\"equivocate\"} 2"));
        assert!(text.contains("twostep_fault_injections_total{behavior=\"forge\"} 1"));
        // The section is omitted entirely when no injections occurred.
        assert!(!Metrics::new()
            .render_text()
            .contains("twostep_fault_injections_total"));
    }

    #[test]
    fn shared_returns_an_attached_handle() {
        let (metrics, handle) = Metrics::shared();
        assert!(handle.is_attached());
        handle.decided(p(0), Path::Slow);
        assert_eq!(metrics.snapshot().decided(Path::Slow), 1);
    }
}
