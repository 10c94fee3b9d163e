//! System configurations `(n, e, f)` and the paper's bounds.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ConfigError, ProcessId, ProcessSet, Quorum};

/// Which consensus protocol family a bound refers to.
///
/// Encodes the minimal-process formulas compared throughout the paper:
///
/// | kind | minimal `n` | source |
/// |---|---|---|
/// | [`Paxos`](ProtocolKind::Paxos) | `2f+1` (not e-two-step for `e > 0`) | DLS 1988 |
/// | [`FastPaxos`](ProtocolKind::FastPaxos) | `max{2e+f+1, 2f+1}` | Lamport 2006 |
/// | [`TaskTwoStep`](ProtocolKind::TaskTwoStep) | `max{2e+f, 2f+1}` | Theorem 5 |
/// | [`ObjectTwoStep`](ProtocolKind::ObjectTwoStep) | `max{2e+f-1, 2f+1}` | Theorem 6 |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Classic leader-driven Paxos.
    Paxos,
    /// Lamport's Fast Paxos.
    FastPaxos,
    /// The paper's e-two-step consensus *task* protocol (Figure 1 without
    /// the red lines).
    TaskTwoStep,
    /// The paper's e-two-step consensus *object* protocol (Figure 1 with
    /// the red lines).
    ObjectTwoStep,
}

impl ProtocolKind {
    /// The minimal number of processes for an `f`-resilient `e`-two-step
    /// protocol of this kind.
    ///
    /// For [`ProtocolKind::Paxos`] the formula ignores `e` (Paxos is not
    /// e-two-step for any `e > 0`; the bound is pure resilience `2f+1`).
    pub fn min_processes(self, e: usize, f: usize) -> usize {
        let resilience = 2 * f + 1;
        match self {
            ProtocolKind::Paxos => resilience,
            ProtocolKind::FastPaxos => resilience.max(2 * e + f + 1),
            ProtocolKind::TaskTwoStep => resilience.max(2 * e + f),
            ProtocolKind::ObjectTwoStep => resilience.max((2 * e + f).saturating_sub(1)),
        }
    }

    /// Human-readable protocol name, as used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Paxos => "Paxos",
            ProtocolKind::FastPaxos => "FastPaxos",
            ProtocolKind::TaskTwoStep => "TwoStep(task)",
            ProtocolKind::ObjectTwoStep => "TwoStep(object)",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A validated system configuration: `n` processes, of which up to `f`
/// may crash while preserving liveness, and up to `e ≤ f` may crash while
/// preserving two-step decisions in synchronous runs.
///
/// Every quorum size the protocols use comes from here, as a
/// [`Quorum`], so that the relationships proven in the paper (Lemma 7
/// and the §C.3 variant) are checked in one place:
///
/// * *fast quorum*: `n - e` votes decide on the fast path (Figure 1,
///   line 16, first disjunct);
/// * *slow quorum*: `n - f` replies drive slow ballots (lines 16, 43);
/// * *recovery threshold*: `n - f - e`, the vote count that forces the
///   recovery rule to stick with a possibly-fast-decided value
///   (lines 54, 57).
///
/// # Example
///
/// ```rust
/// use twostep_types::SystemConfig;
///
/// let cfg = SystemConfig::new(5, 2, 2)?;     // n = 2e+f-1 = 5: object bound
/// assert_eq!(cfg.fast_quorum(), 3);
/// assert_eq!(cfg.slow_quorum(), 3);
/// assert_eq!(cfg.recovery_threshold(), 1);
/// assert!(cfg.satisfies_object_bound());
/// assert!(!cfg.satisfies_task_bound());      // task needs 2e+f = 6
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemConfig {
    n: usize,
    e: usize,
    f: usize,
}

impl SystemConfig {
    /// Creates a configuration, validating the paper's standing
    /// assumptions: `n ≥ 3`, `n ≤ 64`, `1 ≤ f`, `e ≤ f`, `n ≥ 2f+1`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the violated assumption.
    pub fn new(n: usize, e: usize, f: usize) -> Result<Self, ConfigError> {
        if n < 3 {
            return Err(ConfigError::TooFewProcesses { n });
        }
        if n > ProcessSet::MAX_PROCESSES as usize {
            return Err(ConfigError::TooManyProcesses { n });
        }
        if f == 0 {
            return Err(ConfigError::ZeroResilience);
        }
        if e > f {
            return Err(ConfigError::FastThresholdExceedsResilience { e, f });
        }
        if n < 2 * f + 1 {
            return Err(ConfigError::BelowResilienceBound { n, f });
        }
        Ok(SystemConfig { n, e, f })
    }

    /// Creates a configuration validated against a specific protocol
    /// family's minimal-process bound, in addition to the standing
    /// assumptions checked by [`SystemConfig::new`]:
    ///
    /// * [`ProtocolKind::TaskTwoStep`]: `n ≥ max{2e+f, 2f+1}` (Thm 5);
    /// * [`ProtocolKind::ObjectTwoStep`]: `n ≥ max{2e+f-1, 2f+1}` (Thm 6);
    /// * [`ProtocolKind::FastPaxos`]: `n ≥ max{2e+f+1, 2f+1}`;
    /// * [`ProtocolKind::Paxos`]: `n ≥ 2f+1`.
    ///
    /// Use this (or the `TryFrom<(ProtocolKind, usize, usize, usize)>`
    /// impl) whenever a configuration is built *for* a protocol, so that
    /// below-bound deployments are rejected at construction time rather
    /// than failing agreement at runtime. Deliberately below-bound runs
    /// (the lower-bound experiments, the fuzzer's `--allow-below-bound`)
    /// must opt out by calling [`SystemConfig::new`] directly.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BelowProtocolBound`] when `n` is under the
    /// family's bound, or any [`SystemConfig::new`] error.
    ///
    /// # Example
    ///
    /// ```rust
    /// use twostep_types::{ConfigError, ProtocolKind, SystemConfig};
    ///
    /// // n = 5 supports the object protocol at e = f = 2 …
    /// assert!(SystemConfig::for_protocol(ProtocolKind::ObjectTwoStep, 5, 2, 2).is_ok());
    /// // … but not the task protocol, which needs 2e+f = 6.
    /// assert_eq!(
    ///     SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 5, 2, 2),
    ///     Err(ConfigError::BelowProtocolBound {
    ///         protocol: "TwoStep(task)",
    ///         n: 5,
    ///         required: 6,
    ///     })
    /// );
    /// ```
    pub fn for_protocol(
        kind: ProtocolKind,
        n: usize,
        e: usize,
        f: usize,
    ) -> Result<Self, ConfigError> {
        let cfg = Self::new(n, e, f)?;
        let required = kind.min_processes(e, f);
        if n < required {
            return Err(ConfigError::BelowProtocolBound {
                protocol: kind.name(),
                n,
                required,
            });
        }
        Ok(cfg)
    }

    /// The minimal configuration for the consensus *task* protocol:
    /// `n = max{2e+f, 2f+1}` (Theorem 5).
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] for invalid `e`, `f` (e.g. `e > f`).
    pub fn minimal_task(e: usize, f: usize) -> Result<Self, ConfigError> {
        Self::new(ProtocolKind::TaskTwoStep.min_processes(e, f), e, f)
    }

    /// The minimal configuration for the consensus *object* protocol:
    /// `n = max{2e+f-1, 2f+1}` (Theorem 6).
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] for invalid `e`, `f`.
    pub fn minimal_object(e: usize, f: usize) -> Result<Self, ConfigError> {
        Self::new(ProtocolKind::ObjectTwoStep.min_processes(e, f), e, f)
    }

    /// The minimal configuration for Fast Paxos: `n = max{2e+f+1, 2f+1}`.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] for invalid `e`, `f`.
    pub fn minimal_fast_paxos(e: usize, f: usize) -> Result<Self, ConfigError> {
        Self::new(ProtocolKind::FastPaxos.min_processes(e, f), e, f)
    }

    /// Number of processes `n`.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Fast-decision failure threshold `e`.
    pub const fn e(&self) -> usize {
        self.e
    }

    /// Resilience threshold `f`.
    pub const fn f(&self) -> usize {
        self.f
    }

    /// Fast-path quorum size `n - e` (Figure 1 line 16, first disjunct:
    /// `|P ∪ {p_i}| ≥ n - e`).
    pub const fn fast_quorum(&self) -> Quorum {
        Quorum::new(self.n - self.e)
    }

    /// Slow-path quorum size `n - f` (lines 16 second disjunct and 43).
    pub const fn slow_quorum(&self) -> Quorum {
        Quorum::new(self.n - self.f)
    }

    /// Recovery vote threshold `n - f - e` (lines 54 and 57).
    pub const fn recovery_threshold(&self) -> Quorum {
        Quorum::new(self.n - self.f - self.e)
    }

    /// Whether `n ≥ 2e+f`, the premise of Lemma 7 (task recovery).
    pub const fn satisfies_task_bound(&self) -> bool {
        self.n >= 2 * self.e + self.f
    }

    /// Whether `n ≥ 2e+f-1`, the premise of the §C.3 recovery lemma
    /// (object recovery).
    pub const fn satisfies_object_bound(&self) -> bool {
        self.n + 1 >= 2 * self.e + self.f
    }

    /// Whether `n ≥ 2e+f+1`, Lamport's bound required by Fast Paxos.
    pub const fn satisfies_fast_paxos_bound(&self) -> bool {
        self.n > 2 * self.e + self.f
    }

    /// The full process set `Π`.
    pub fn all_processes(&self) -> ProcessSet {
        ProcessSet::full(self.n)
    }

    /// Iterates over all process ids `p_0, …, p_{n-1}`.
    pub fn process_ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.n as u32).map(ProcessId::new)
    }

    /// Enumerates every failure set `E ⊆ Π` with `|E| = e`.
    pub fn failure_sets(&self) -> crate::process::Combinations {
        crate::combinations(self.n, self.e)
    }
}

/// `(kind, n, e, f)` — the TryFrom spelling of
/// [`SystemConfig::for_protocol`].
impl TryFrom<(ProtocolKind, usize, usize, usize)> for SystemConfig {
    type Error = ConfigError;

    fn try_from((kind, n, e, f): (ProtocolKind, usize, usize, usize)) -> Result<Self, ConfigError> {
        SystemConfig::for_protocol(kind, n, e, f)
    }
}

impl fmt::Debug for SystemConfig {
    fn fmt(&self, fmtr: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            fmtr,
            "SystemConfig(n={}, e={}, f={})",
            self.n, self.e, self.f
        )
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, fmtr: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(fmtr, "n={},e={},f={}", self.n, self.e, self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_configs() {
        assert_eq!(
            SystemConfig::new(2, 1, 1),
            Err(ConfigError::TooFewProcesses { n: 2 })
        );
        assert_eq!(
            SystemConfig::new(65, 1, 1),
            Err(ConfigError::TooManyProcesses { n: 65 })
        );
        assert_eq!(SystemConfig::new(5, 0, 0), Err(ConfigError::ZeroResilience));
        assert_eq!(
            SystemConfig::new(5, 2, 1),
            Err(ConfigError::FastThresholdExceedsResilience { e: 2, f: 1 })
        );
        assert_eq!(
            SystemConfig::new(4, 1, 2),
            Err(ConfigError::BelowResilienceBound { n: 4, f: 2 })
        );
    }

    #[test]
    fn quorum_arithmetic() {
        let cfg = SystemConfig::new(7, 2, 3).unwrap();
        assert_eq!(cfg.fast_quorum(), 5);
        assert_eq!(cfg.slow_quorum(), 4);
        assert_eq!(cfg.recovery_threshold(), 2);
    }

    #[test]
    fn paper_headline_numbers() {
        // Intro: for e = ceil((f+1)/2) the object protocol runs with the
        // bare-resilience process count 2f+1 for every f. The paper's
        // "2f+3 = 2e+f+1" Fast Paxos comparison instantiates 2e = f+2,
        // i.e. even f.
        for f in 1..=6usize {
            let e = (f + 1).div_ceil(2);
            assert_eq!(ProtocolKind::ObjectTwoStep.min_processes(e, f), 2 * f + 1);
            assert_eq!(ProtocolKind::Paxos.min_processes(e, f), 2 * f + 1);
            if f % 2 == 0 {
                assert_eq!(2 * e, f + 2);
                assert_eq!(ProtocolKind::FastPaxos.min_processes(e, f), 2 * f + 3);
                assert_eq!(ProtocolKind::TaskTwoStep.min_processes(e, f), 2 * f + 2);
            }
        }
    }

    #[test]
    fn min_processes_monotone_in_e() {
        for f in 1..=5usize {
            for kind in [
                ProtocolKind::FastPaxos,
                ProtocolKind::TaskTwoStep,
                ProtocolKind::ObjectTwoStep,
            ] {
                for e in 1..f {
                    assert!(kind.min_processes(e, f) <= kind.min_processes(e + 1, f));
                }
            }
        }
    }

    #[test]
    fn minimal_constructors_match_kind_formulas() {
        for f in 1..=5usize {
            for e in 1..=f {
                let t = SystemConfig::minimal_task(e, f).unwrap();
                assert_eq!(t.n(), ProtocolKind::TaskTwoStep.min_processes(e, f));
                assert!(t.satisfies_task_bound());

                let o = SystemConfig::minimal_object(e, f).unwrap();
                assert_eq!(o.n(), ProtocolKind::ObjectTwoStep.min_processes(e, f));
                assert!(o.satisfies_object_bound());

                let fp = SystemConfig::minimal_fast_paxos(e, f).unwrap();
                assert_eq!(fp.n(), ProtocolKind::FastPaxos.min_processes(e, f));
                assert!(fp.satisfies_fast_paxos_bound());
            }
        }
    }

    #[test]
    fn bound_hierarchy() {
        // object bound <= task bound <= fast paxos bound, each differing
        // by exactly one process when 2e+f-1 >= 2f+1.
        for f in 1..=5usize {
            for e in 1..=f {
                let o = ProtocolKind::ObjectTwoStep.min_processes(e, f);
                let t = ProtocolKind::TaskTwoStep.min_processes(e, f);
                let fp = ProtocolKind::FastPaxos.min_processes(e, f);
                assert!(o <= t && t <= fp);
                if 2 * e + f > 2 * f + 1 {
                    assert_eq!(t, o + 1);
                    assert_eq!(fp, t + 1);
                }
            }
        }
    }

    #[test]
    fn for_protocol_enforces_each_family_bound() {
        for f in 1..=5usize {
            for e in 1..=f {
                for kind in [
                    ProtocolKind::Paxos,
                    ProtocolKind::FastPaxos,
                    ProtocolKind::TaskTwoStep,
                    ProtocolKind::ObjectTwoStep,
                ] {
                    let bound = kind.min_processes(e, f);
                    let at = SystemConfig::for_protocol(kind, bound, e, f).unwrap();
                    assert_eq!(at.n(), bound);
                    // One process below the bound must be rejected —
                    // either by the family bound or, when bound = 2f+1,
                    // by the resilience bound.
                    let below = SystemConfig::for_protocol(kind, bound - 1, e, f);
                    match below {
                        Err(ConfigError::BelowProtocolBound { n, required, .. }) => {
                            assert_eq!((n, required), (bound - 1, bound));
                        }
                        Err(
                            ConfigError::BelowResilienceBound { .. }
                            | ConfigError::TooFewProcesses { .. },
                        ) => {}
                        other => panic!("n={} must be rejected, got {other:?}", bound - 1),
                    }
                }
            }
        }
    }

    #[test]
    fn try_from_tuple_matches_for_protocol() {
        let ok = SystemConfig::try_from((ProtocolKind::TaskTwoStep, 6, 2, 2)).unwrap();
        assert_eq!((ok.n(), ok.e(), ok.f()), (6, 2, 2));
        assert_eq!(
            SystemConfig::try_from((ProtocolKind::TaskTwoStep, 5, 2, 2)),
            SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 5, 2, 2)
        );
    }

    #[test]
    fn failure_set_enumeration() {
        let cfg = SystemConfig::new(5, 2, 2).unwrap();
        let sets: Vec<_> = cfg.failure_sets().collect();
        assert_eq!(sets.len(), 10); // C(5,2)
        assert!(sets.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn display_and_debug() {
        let cfg = SystemConfig::new(5, 2, 2).unwrap();
        assert_eq!(cfg.to_string(), "n=5,e=2,f=2");
        assert_eq!(format!("{cfg:?}"), "SystemConfig(n=5, e=2, f=2)");
        assert_eq!(ProtocolKind::TaskTwoStep.to_string(), "TwoStep(task)");
    }
}
