//! The fuzzing loop.
//!
//! Each iteration derives an independent stream seed from the root seed
//! (see [`SplitMix64::stream`]), generates a case — flat, sharded or
//! Byzantine, the loop does not care — executes it and asks the oracles
//! for a verdict. The first violation stops the loop; safety
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
    /// Decide events the oracles judged (honest processes', all groups')
    /// across all iterations — a clean pass with zero of them would be
    /// vacuous, so callers should insist this is positive.
    pub decisions: u64,
    /// The first violation, if any.
    pub failure: Option<Failure>,
}

impl FuzzOutcome {
    /// True if no violation was found.
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs a fuzzing campaign over [`gen_case`]'s cases for the configured
/// protocol, stopping at the first violation.
pub fn fuzz(fc: &FuzzConfig) -> FuzzOutcome {
    let gen = |seed| gen_case(fc.protocol, fc.cfg, fc.ablations, seed);
    fuzz_cases(fc, gen, |_| {})
}

/// The campaign loop, for any case generator: iteration `i` runs
/// `gen(stream(seed, i))` — `fc`'s protocol, configuration and
/// ablations matter only to the generator that reads them — invoking
/// `progress(iterations_done)` periodically.
pub fn fuzz_cases(
    fc: &FuzzConfig,
    gen: impl Fn(u64) -> FuzzCase,
    mut progress: impl FnMut(u64),
) -> FuzzOutcome {
    let mut decisions = 0;
    for i in 0..fc.iters {
        if i > 0 && i % 1000 == 0 {
            progress(i);
        }
        let stream_seed = SplitMix64::stream(fc.seed, i);
        let case = gen(stream_seed);
        let report = run_case_observed(&case, fc.observer.clone());
        let judged = |(p, _): &&(_, u64)| report.honest.contains(*p);
        decisions += report.decide_log.iter().filter(judged).count() as u64;
        let verdict = check_safety(case.protocol, &report).or_else(|| {
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
                decisions,
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
        decisions,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_types::ByzVariant;

    use crate::case::run_case;
    use crate::gen::gen_sharded;

    #[test]
    fn correct_task_protocol_survives_a_small_campaign() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let fc = FuzzConfig::new(FuzzProtocol::Task, cfg, 7, 50);
        let out = fuzz(&fc);
        assert!(out.is_clean(), "unexpected violation: {:?}", out.failure);
        assert_eq!(out.iterations_run, 50);
        assert!(out.decisions > 0, "campaign never decided anything");
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

    #[test]
    fn sharded_and_byzantine_iterations_are_deterministic() {
        let sharded = gen_sharded(4, SystemConfig::new(3, 1, 1).unwrap(), Ablations::NONE, 11);
        let fab = FuzzProtocol::FastBft(ByzVariant::Fab);
        let byzantine = gen_case(
            fab,
            SystemConfig::new(6, 1, 1).unwrap(),
            Ablations::NONE,
            11,
        );
        for case in [sharded, byzantine] {
            let (a, b) = (run_case(&case), run_case(&case));
            assert_eq!(a.decide_log, b.decide_log);
            assert_eq!(a.group_decides, b.group_decides);
            assert_eq!(a.proposed, b.proposed);
            assert_eq!(a.alive, b.alive);
        }
    }

    #[test]
    fn small_sharded_campaign_is_clean_and_decides() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let fc = FuzzConfig::new(FuzzProtocol::Object, cfg, 5, 25);
        let out = fuzz_cases(&fc, |s| gen_sharded(3, cfg, Ablations::NONE, s), |_| {});
        assert!(out.is_clean(), "unexpected violation: {:?}", out.failure);
        assert_eq!(out.iterations_run, 25);
        assert!(out.decisions > 0, "campaign never committed anything");
    }

    #[test]
    fn small_byzantine_campaigns_are_clean_and_decide() {
        // Fab at its fast-live minimum, Tight at f = 2, and both at the
        // n = 3f+1 = 4 floor: the corner where a promise quorum's
        // intersection with an accepting quorum holds a single
        // guaranteed-honest reporter (Fab), and where the Tight quorum
        // can exclude the coordinator. All stay clean now that slow
        // reports are certificate-pinned and Tight recovery waits for
        // the coordinator.
        for (variant, n, f, seed, iters) in [
            (ByzVariant::Fab, 6, 1, 9, 15),
            (ByzVariant::Tight, 9, 2, 13, 8),
            (ByzVariant::Fab, 4, 1, 21, 15),
            (ByzVariant::Tight, 4, 1, 21, 15),
        ] {
            let cfg = SystemConfig::new(n, f, f).unwrap();
            let out = fuzz(&FuzzConfig::new(
                FuzzProtocol::FastBft(variant),
                cfg,
                seed,
                iters,
            ));
            assert!(
                out.is_clean(),
                "{variant:?} n={n} violation: {:?}",
                out.failure
            );
            assert!(out.decisions > 0, "{variant:?} n={n} campaign was vacuous");
        }
    }
}
