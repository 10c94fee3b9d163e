//! The fuzzing loop.
//!
//! Each iteration derives an independent stream seed from the root seed
//! (see [`SplitMix64::stream`]), generates a case, executes it and asks
//! the oracles for a verdict. The first violation stops the loop; safety
//! violations are then minimized by [`shrink`]. Everything is replayable
//! from `(root seed, iteration)` — or, after shrinking, from the printed
//! schedule alone.

use twostep_core::Ablations;
use twostep_telemetry::ObserverHandle;
use twostep_types::{SplitMix64, SystemConfig};

use crate::case::{run_case_observed, FuzzCase, FuzzProtocol};
use crate::gen::gen_case;
use crate::oracle::{check_liveness, check_safety, Verdict};
use crate::schedule::Schedule;
use crate::shrink::shrink;

/// Parameters of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Protocol under test.
    pub protocol: FuzzProtocol,
    /// System configuration.
    pub cfg: SystemConfig,
    /// Root seed; iteration `i` uses stream seed `stream(seed, i)`.
    pub seed: u64,
    /// Number of schedules to try.
    pub iters: u64,
    /// Ablations to inject (for bug-finding demonstrations).
    pub ablations: Ablations,
    /// Whether to minimize counterexamples.
    pub shrink: bool,
    /// Execution budget for the shrinker.
    pub shrink_budget: usize,
    /// Also flag runs where a live process failed to decide after the
    /// schedule's drain phase. Off by default: a generated schedule does
    /// not *guarantee* a full drain, so this is a heuristic lens, and
    /// termination verdicts are never shrunk (the empty schedule
    /// trivially "fails" termination).
    pub liveness: bool,
    /// Telemetry hooks attached to every protocol instance the campaign
    /// spawns (detached by default). Aggregates decision paths, recovery
    /// cases and ballot churn across all executed schedules — shrinker
    /// replays are *not* observed, so the numbers describe the campaign
    /// itself.
    pub observer: ObserverHandle,
}

impl FuzzConfig {
    /// A campaign with the default knobs: shrinking on (budget 2000
    /// executions), liveness off.
    pub fn new(protocol: FuzzProtocol, cfg: SystemConfig, seed: u64, iters: u64) -> Self {
        FuzzConfig {
            protocol,
            cfg,
            seed,
            iters,
            ablations: Ablations::NONE,
            shrink: true,
            shrink_budget: 2000,
            liveness: false,
            observer: ObserverHandle::none(),
        }
    }
}

/// A violation found by a campaign.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The iteration (0-based) that failed.
    pub iteration: u64,
    /// The stream seed of that iteration.
    pub stream_seed: u64,
    /// The complete failing case.
    pub case: FuzzCase,
    /// What the oracle flagged.
    pub verdict: Verdict,
    /// The minimized schedule, if shrinking ran.
    pub shrunk: Option<Schedule>,
    /// Executions the shrinker used.
    pub shrink_executions: usize,
}

/// The result of a campaign.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Iterations actually executed (equals `iters` on a clean run).
    pub iterations_run: u64,
    /// The first violation, if any.
    pub failure: Option<Failure>,
}

impl FuzzOutcome {
    /// True if no violation was found.
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs a fuzzing campaign, stopping at the first violation.
pub fn fuzz(fc: &FuzzConfig) -> FuzzOutcome {
    fuzz_with_progress(fc, |_| {})
}

/// Like [`fuzz`], invoking `progress(iterations_done)` periodically.
pub fn fuzz_with_progress(fc: &FuzzConfig, mut progress: impl FnMut(u64)) -> FuzzOutcome {
    for i in 0..fc.iters {
        if i > 0 && i % 1000 == 0 {
            progress(i);
        }
        let stream_seed = SplitMix64::stream(fc.seed, i);
        let case = gen_case(fc.protocol, fc.cfg, fc.ablations, stream_seed);
        let report = run_case_observed(&case, fc.observer.clone());
        let verdict = check_safety(fc.protocol, &report).or_else(|| {
            if fc.liveness {
                check_liveness(&report, report.alive)
            } else {
                None
            }
        });
        if let Some(verdict) = verdict {
            let (shrunk, shrink_executions) = if fc.shrink && verdict.is_safety() {
                let out = shrink(&case, fc.shrink_budget);
                (Some(out.schedule), out.executions)
            } else {
                (None, 0)
            };
            return FuzzOutcome {
                iterations_run: i + 1,
                failure: Some(Failure {
                    iteration: i,
                    stream_seed,
                    case,
                    verdict,
                    shrunk,
                    shrink_executions,
                }),
            };
        }
    }
    FuzzOutcome {
        iterations_run: fc.iters,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_task_protocol_survives_a_small_campaign() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let fc = FuzzConfig::new(FuzzProtocol::Task, cfg, 7, 50);
        let out = fuzz(&fc);
        assert!(out.is_clean(), "unexpected violation: {:?}", out.failure);
        assert_eq!(out.iterations_run, 50);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = SystemConfig::new(6, 2, 2).unwrap();
        let mut fc = FuzzConfig::new(FuzzProtocol::Task, cfg, 42, 20);
        fc.ablations = Ablations {
            no_max_tiebreak: true,
            ..Ablations::NONE
        };
        let a = fuzz(&fc);
        let b = fuzz(&fc);
        assert_eq!(a.iterations_run, b.iterations_run);
        assert_eq!(
            a.failure
                .as_ref()
                .map(|x| (x.iteration, x.case.schedule.clone())),
            b.failure
                .as_ref()
                .map(|x| (x.iteration, x.case.schedule.clone())),
        );
    }
}
