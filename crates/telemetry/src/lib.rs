//! Protocol-aware metrics for the twostep workspace.
//!
//! The paper's value proposition is *which path a decision takes* — the
//! proxy's two-step fast path, the ballot-based slow path, or one of the
//! two vote-count cases of the recovery rule (`> n-f-e` vs `= n-f-e`).
//! This crate provides the vocabulary and the plumbing to count and
//! time those paths without the protocols knowing anything about metric
//! backends:
//!
//! * [`ProtocolObserver`] — the hook trait protocols and engines call
//!   at interesting transitions (decisions, slow-path entries, recovery
//!   cases, Ω leader changes, ballot advances, latencies, queue depths,
//!   bytes on the wire, message drops);
//! * [`ObserverHandle`] — a cheap clonable handle that forwards to an
//!   attached observer or compiles down to a branch-on-`None` no-op, so
//!   the fuzzer and the proofs-adjacent tests pay nothing;
//! * [`Metrics`] — the standard observer: atomic [`Counter`]s and
//!   log2-bucketed [`Histogram`]s with p50/p99/max;
//! * [`MetricsSnapshot`] — a point-in-time copy with a
//!   text/Prometheus-style exporter ([`MetricsSnapshot::render_text`]).
//!
//! The crate deliberately depends only on `twostep-types` and the
//! standard library: every other crate in the workspace (core,
//! baselines, sim, runtime, SMR, bench, fuzz) layers on top of it.
//!
//! # Example
//!
//! ```rust
//! use std::sync::Arc;
//! use twostep_telemetry::{Metrics, ObserverHandle, Path};
//! use twostep_types::ProcessId;
//!
//! let metrics = Arc::new(Metrics::new());
//! let obs = ObserverHandle::from(metrics.clone());
//! obs.decided(ProcessId::new(0), Path::Fast);
//! obs.decision_latency(ProcessId::new(0), 2_000);
//! let snap = metrics.snapshot();
//! assert_eq!(snap.decisions[Path::Fast.index()], 1);
//! assert!(snap.render_text().contains("twostep_decisions_total{path=\"fast\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod histogram;
mod metrics;
mod observer;
mod shard;

pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{ByteStats, Metrics, MetricsSnapshot};
pub use observer::{msg_kind, ObserverHandle, ProtocolObserver};
pub use shard::ShardedMetrics;

/// The path by which a process reached its decision.
///
/// The first four labels are the ones the paper's experiments compare;
/// [`Path::Learned`] covers decisions adopted from another process's
/// `Decide`/`Commit` broadcast (gossip), which have no path of their
/// own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Path {
    /// Two-step fast path: a fast quorum of `n-e` matching votes.
    Fast,
    /// Ballot-based slow path (phase one found no recovery-rule work:
    /// an explicit prior vote or the coordinator's own value won).
    Slow,
    /// Slow path whose value was chosen by the recovery rule's
    /// `> n-f-e` vote-count case.
    RecoveryGt,
    /// Slow path whose value was chosen by the recovery rule's
    /// `= n-f-e` vote-count case (max tie-break).
    RecoveryEq,
    /// Decision learned from another process's decide broadcast.
    Learned,
}

impl Path {
    /// Every path, in display order.
    pub const ALL: [Path; 5] = [
        Path::Fast,
        Path::Slow,
        Path::RecoveryGt,
        Path::RecoveryEq,
        Path::Learned,
    ];

    /// Number of distinct paths.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index, for per-path arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable label used by the exporter and the bench tables.
    pub const fn label(self) -> &'static str {
        match self {
            Path::Fast => "fast",
            Path::Slow => "slow",
            Path::RecoveryGt => "recovery-gt",
            Path::RecoveryEq => "recovery-eq",
            Path::Learned => "learned",
        }
    }
}

/// Which branch of the recovery rule (`select_value`, Figure 1 / §C.1)
/// chose the new ballot's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryCase {
    /// Some report carried an already-taken decision.
    ReportedDecision,
    /// The highest slow-ballot vote won (classic Paxos rule).
    SlowBallot,
    /// A value held **more than** `n-f-e` fast votes in the
    /// proposer-excluded tally (the rule's first vote-count case).
    Gt,
    /// A value held **exactly** `n-f-e` fast votes; the max such value
    /// was taken (the rule's second vote-count case).
    Eq,
    /// No constraint survived: the coordinator fell back to its own
    /// initial (or an observed) value.
    Fallback,
}

impl RecoveryCase {
    /// Every case, in rule order.
    pub const ALL: [RecoveryCase; 5] = [
        RecoveryCase::ReportedDecision,
        RecoveryCase::SlowBallot,
        RecoveryCase::Gt,
        RecoveryCase::Eq,
        RecoveryCase::Fallback,
    ];

    /// Number of distinct cases.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index, for per-case arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable label used by the exporter and the fuzzer's summaries.
    pub const fn label(self) -> &'static str {
        match self {
            RecoveryCase::ReportedDecision => "decided",
            RecoveryCase::SlowBallot => "slow-ballot",
            RecoveryCase::Gt => "gt",
            RecoveryCase::Eq => "eq",
            RecoveryCase::Fallback => "fallback",
        }
    }

    /// The decision path a slow-path decision should be attributed to
    /// when its ballot's value was selected by this case.
    pub const fn as_path(self) -> Path {
        match self {
            RecoveryCase::Gt => Path::RecoveryGt,
            RecoveryCase::Eq => Path::RecoveryEq,
            _ => Path::Slow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_indices_are_dense_and_labels_stable() {
        for (i, p) in Path::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let labels: Vec<&str> = Path::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec!["fast", "slow", "recovery-gt", "recovery-eq", "learned"]
        );
    }

    #[test]
    fn recovery_case_indices_are_dense_and_labels_stable() {
        for (i, c) in RecoveryCase::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let labels: Vec<&str> = RecoveryCase::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec!["decided", "slow-ballot", "gt", "eq", "fallback"]
        );
    }

    #[test]
    fn recovery_cases_map_to_paths() {
        assert_eq!(RecoveryCase::Gt.as_path(), Path::RecoveryGt);
        assert_eq!(RecoveryCase::Eq.as_path(), Path::RecoveryEq);
        assert_eq!(RecoveryCase::ReportedDecision.as_path(), Path::Slow);
        assert_eq!(RecoveryCase::SlowBallot.as_path(), Path::Slow);
        assert_eq!(RecoveryCase::Fallback.as_path(), Path::Slow);
    }
}
