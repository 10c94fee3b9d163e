//! The traced run's observer: the standard `Metrics` aggregator plus a
//! per-process tally of applied commands, which `Metrics` folds across
//! processes and the correctness gate needs apart.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use twostep_telemetry::{Metrics, ObserverHandle, Path, ProtocolObserver, RecoveryCase};
use twostep_types::ProcessId;

#[derive(Debug)]
pub struct Tally {
    pub metrics: Metrics,
    /// Commands applied per process (summed over shards), from
    /// `batch_committed`, which a replica reports once per applied slot.
    applied: Vec<AtomicU64>,
}

impl Tally {
    pub fn shared(n: usize) -> (Arc<Tally>, ObserverHandle) {
        let tally = Arc::new(Tally {
            metrics: Metrics::new(),
            applied: (0..n).map(|_| AtomicU64::new(0)).collect(),
        });
        let handle = ObserverHandle::from(tally.clone());
        (tally, handle)
    }

    pub fn applied(&self) -> Vec<u64> {
        // Statistic read after the writers have quiesced.
        self.applied
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }
}

impl ProtocolObserver for Tally {
    fn decided(&self, process: ProcessId, path: Path) {
        self.metrics.decided(process, path);
    }
    fn decision_latency(&self, process: ProcessId, latency: u64) {
        self.metrics.decision_latency(process, latency);
    }
    fn slow_path_entered(&self, process: ProcessId) {
        self.metrics.slow_path_entered(process);
    }
    fn recovery_case(&self, process: ProcessId, case: RecoveryCase) {
        self.metrics.recovery_case(process, case);
    }
    fn leader_changed(&self, process: ProcessId, leader: ProcessId) {
        self.metrics.leader_changed(process, leader);
    }
    fn ballot_advanced(&self, process: ProcessId) {
        self.metrics.ballot_advanced(process);
    }
    fn queue_depth(&self, process: ProcessId, depth: usize) {
        self.metrics.queue_depth(process, depth);
    }
    fn batch_committed(&self, process: ProcessId, size: usize) {
        self.applied[process.index()].fetch_add(size as u64, Ordering::Relaxed);
        self.metrics.batch_committed(process, size);
    }
    fn amortized_latency(&self, process: ProcessId, latency: u64) {
        self.metrics.amortized_latency(process, latency);
    }
    fn bytes_sent(&self, process: ProcessId, kind: &str, bytes: usize) {
        self.metrics.bytes_sent(process, kind, bytes);
    }
    fn message_dropped(&self, from: ProcessId, to: ProcessId) {
        self.metrics.message_dropped(from, to);
    }
    fn reconnected(&self, process: ProcessId) {
        self.metrics.reconnected(process);
    }
    fn fault_injected(&self, process: ProcessId, behavior: &str) {
        self.metrics.fault_injected(process, behavior);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_to_metrics_and_tallies_applied_commands_per_process() {
        let (tally, obs) = Tally::shared(3);
        let p = ProcessId::new;
        obs.batch_committed(p(0), 4);
        obs.batch_committed(p(0), 1);
        obs.batch_committed(p(2), 5);
        obs.decided(p(1), Path::Fast);
        obs.slow_path_entered(p(1));
        obs.bytes_sent(p(1), "Slot", 90);
        assert_eq!(tally.applied(), vec![5, 0, 5]);
        let snap = tally.metrics.snapshot();
        assert_eq!(snap.batch_size.count, 3);
        assert_eq!(snap.decided(Path::Fast), 1);
        assert_eq!(snap.slow_entries, 1);
        assert_eq!(snap.bytes_by_kind["Slot"].bytes, 90);
    }
}
