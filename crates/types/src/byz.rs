//! Byzantine fault-model configurations and quorum arithmetic.
//!
//! The source paper asks how cheap two-step consensus can be under
//! *crash* faults; this module carries the same question into the
//! Byzantine model, following the fast-BFT lineage the reproduction
//! compares against:
//!
//! * **FaB Paxos** (Martin & Alvisi 2006): fast quorums of
//!   `⌈(n+3f+1)/2⌉` acceptors, two-step in the common case whenever
//!   `n ≥ 5f+1`.
//! * **The `5f−1` refinement** (Kuznetsov, Tonkikh, Zhang;
//!   arXiv:2102.12825): conditioning the fast path on an *honest
//!   proposer* shaves two processes, giving fast quorums of
//!   `⌈(n+3f−1)/2⌉` and the optimal `n ≥ 5f−1`.
//!
//! [`ByzConfig`] is the Byzantine sibling of [`crate::SystemConfig`]:
//! every quorum size for the fast-BFT baseline and the analysis
//! obligations (B1–B7 in `twostep-analysis`) comes from here, as a
//! [`Quorum`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ConfigError, ProcessId, ProcessSet, Quorum};

/// Which fast-quorum rule a Byzantine configuration uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ByzVariant {
    /// FaB Paxos's classic rule: fast quorum `⌈(n+3f+1)/2⌉`, fast path
    /// available under `f` Byzantine silences iff `n ≥ 5f+1`.
    Fab,
    /// The proposer-conditioned rule of arXiv:2102.12825: fast quorum
    /// `⌈(n+3f−1)/2⌉`, fast path available iff `n ≥ 5f−1` — optimal,
    /// but its recovery certifies fast-round state from the *honest
    /// proposer's own report*, which recovery waits for, instead of
    /// counting witnesses.
    Tight,
}

impl ByzVariant {
    /// Human-readable variant name, as used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ByzVariant::Fab => "FaB(5f+1)",
            ByzVariant::Tight => "FaB(5f-1)",
        }
    }

    /// The minimal `n` at which the variant's fast path stays available
    /// under `f` Byzantine silences: `5f+1` for [`ByzVariant::Fab`],
    /// `5f−1` for [`ByzVariant::Tight`] (never below the `3f+1`
    /// Byzantine resilience floor).
    pub fn min_fast_live(self, f: usize) -> usize {
        let floor = 3 * f + 1;
        match self {
            ByzVariant::Fab => floor.max(5 * f + 1),
            ByzVariant::Tight => floor.max((5 * f).saturating_sub(1)),
        }
    }
}

impl fmt::Display for ByzVariant {
    fn fmt(&self, fmtr: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmtr.write_str(self.name())
    }
}

/// A validated Byzantine system configuration: `n` processes of which
/// up to `f` may be *Byzantine* — equivocate, forge values, lie about
/// ballots, or fall selectively silent — while the honest remainder
/// must still agree.
///
/// Contrast with [`crate::SystemConfig`], where all `f` faults are
/// crashes: the resilience floor rises from `2f+1` to `3f+1`, and the
/// fast path needs `5f+1` (FaB) or `5f−1` (the arXiv:2102.12825
/// optimum) instead of the paper's crash-model `2e+f`.
///
/// # Example
///
/// ```rust
/// use twostep_types::{ByzConfig, ByzVariant};
///
/// let cfg = ByzConfig::minimal_fast(ByzVariant::Fab, 1)?; // n = 5f+1 = 6
/// assert_eq!(cfg.fast_quorum(), 5);   // ⌈(6+3+1)/2⌉
/// assert_eq!(cfg.slow_quorum(), 5);   // n-f
/// assert!(cfg.fast_path_live());
///
/// // One process fewer and f silent Byzantine processes stall the
/// // fast path forever: the quorum no longer fits in the honest set.
/// let below = ByzConfig::new(5, 1, ByzVariant::Fab)?;
/// assert!(!below.fast_path_live());
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ByzConfig {
    n: usize,
    f: usize,
    variant: ByzVariant,
}

impl ByzConfig {
    /// Creates a Byzantine configuration, validating `n ≥ 4`, `n ≤ 64`,
    /// `1 ≤ f` and the Byzantine resilience floor `n ≥ 3f+1`.
    ///
    /// The fast-path bound (`5f+1` / `5f−1`) is *not* required:
    /// experiment E14 and the analysis tightness witnesses deliberately
    /// run configurations where [`ByzConfig::fast_path_live`] is false.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the violated assumption.
    pub fn new(n: usize, f: usize, variant: ByzVariant) -> Result<Self, ConfigError> {
        if n < 4 {
            return Err(ConfigError::TooFewProcesses { n });
        }
        if n > ProcessSet::MAX_PROCESSES as usize {
            return Err(ConfigError::TooManyProcesses { n });
        }
        if f == 0 {
            return Err(ConfigError::ZeroResilience);
        }
        if n < 3 * f + 1 {
            return Err(ConfigError::BelowByzantineResilience { n, f });
        }
        Ok(ByzConfig { n, f, variant })
    }

    /// The minimal configuration whose fast path stays available under
    /// `f` Byzantine faults: `n = 5f+1` (FaB) or `n = 5f−1` (Tight).
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] for invalid `f`.
    pub fn minimal_fast(variant: ByzVariant, f: usize) -> Result<Self, ConfigError> {
        Self::new(variant.min_fast_live(f), f, variant)
    }

    /// Number of processes `n`.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Byzantine resilience threshold `f`.
    pub const fn f(&self) -> usize {
        self.f
    }

    /// The fast-quorum rule in force.
    pub const fn variant(&self) -> ByzVariant {
        self.variant
    }

    /// Fast-quorum size: `⌈(n+3f+1)/2⌉` ([`ByzVariant::Fab`]) or
    /// `⌈(n+3f−1)/2⌉` ([`ByzVariant::Tight`]).
    ///
    /// The classic size is exactly what makes count-based recovery
    /// safe: any fast-decided value retains a strict majority among the
    /// fast-vote reports visible in every recovery quorum, even after
    /// `f` forged reports (obligations B2 and B6 in
    /// `twostep-analysis`).
    pub const fn fast_quorum(&self) -> Quorum {
        let numerator = match self.variant {
            ByzVariant::Fab => self.n + 3 * self.f + 1,
            ByzVariant::Tight => self.n + 3 * self.f - 1,
        };
        Quorum::new(numerator.div_ceil(2))
    }

    /// Slow-path (recovery) quorum size `n - f`.
    pub const fn slow_quorum(&self) -> Quorum {
        Quorum::new(self.n - self.f)
    }

    /// Certification threshold for recovery: a value may be adopted by
    /// a new ballot only if at least `f+1` distinct processes vouch for
    /// it, so the `f` Byzantine processes can never certify a forgery
    /// by themselves. (The [`ByzVariant::Tight`] protocol applies this
    /// to slow-ballot reports only; its *fast-round* certification
    /// instead reads the honest proposer's own report — the
    /// honest-proposer conditioning of arXiv:2102.12825.)
    pub const fn cert_threshold(&self) -> Quorum {
        Quorum::new(self.f + 1)
    }

    /// The number of *honest* members any two fast quorums share:
    /// `2·fq − n − f`. Positive for every valid configuration (and
    /// `≥ 2f+1` under the classic rule) — which is why two conflicting
    /// fast decisions are impossible even when Byzantine members vote
    /// in both (B1).
    pub const fn honest_fast_overlap(&self) -> usize {
        let fq = self.fast_quorum().size();
        (2 * fq).saturating_sub(self.n + self.f)
    }

    /// The number of honest fast-voters guaranteed visible in any
    /// recovery quorum after discounting `f` possible forgeries:
    /// `fq − 2f` (the left-hand side of the FaB form of obligation B2
    /// in `twostep-analysis`; the Tight variant certifies from the
    /// coordinator's report instead of counting witnesses).
    pub const fn honest_fast_witnesses(&self) -> usize {
        self.fast_quorum().size().saturating_sub(2 * self.f)
    }

    /// Whether the fast path is *available* under `f` Byzantine
    /// silences: `fast_quorum ≤ n − f`. Equivalent to
    /// `n ≥ 5f+1` (Fab) / `n ≥ 5f−1` (Tight) — the bound whose
    /// tightness the analysis witnesses execute at `n = 5f`.
    pub const fn fast_path_live(&self) -> bool {
        self.fast_quorum().size() <= self.n - self.f
    }

    /// The full process set `Π`.
    pub fn all_processes(&self) -> ProcessSet {
        ProcessSet::full(self.n)
    }

    /// Iterates over all process ids `p_0, …, p_{n-1}`.
    pub fn process_ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.n as u32).map(ProcessId::new)
    }
}

impl fmt::Debug for ByzConfig {
    fn fmt(&self, fmtr: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            fmtr,
            "ByzConfig(n={}, f={}, {})",
            self.n,
            self.f,
            self.variant.name()
        )
    }
}

impl fmt::Display for ByzConfig {
    fn fmt(&self, fmtr: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(fmtr, "n={},f={},{}", self.n, self.f, self.variant.name())
    }
}

/// Messages (and values) that the Byzantine fault-injection layer in
/// `twostep-byz` knows how to corrupt.
///
/// Implementations must be *deterministic in `salt`*: the same salt
/// applied to the same message yields the same corruption, which keeps
/// Byzantine schedules replayable from a seed. Each method returns
/// whether the message was actually altered, so the injector can count
/// real injections and leave uncorruptible messages (e.g. heartbeats)
/// untouched.
pub trait Corruptible {
    /// Deterministically mutates any embedded proposal/decision value.
    /// Returns `false` if the message carries no value to forge.
    fn forge_value(&mut self, salt: u64) -> bool;

    /// Deterministically mutates any embedded ballot number. Returns
    /// `false` if the message carries no ballot to lie about.
    fn lie_ballot(&mut self, salt: u64) -> bool;
}

/// Forged `u64` values flip the top bit and mix in the salt, so a
/// forgery is never equal to the original (the XOR with a nonzero mask
/// guarantees it) and is recognizably outside the small value pools the
/// fuzzer and experiments propose from.
impl Corruptible for u64 {
    fn forge_value(&mut self, salt: u64) -> bool {
        *self ^= 0x8000_0000_0000_0000 | (salt << 1) | 1;
        true
    }

    fn lie_ballot(&mut self, _salt: u64) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_configs() {
        assert_eq!(
            ByzConfig::new(3, 1, ByzVariant::Fab),
            Err(ConfigError::TooFewProcesses { n: 3 })
        );
        assert_eq!(
            ByzConfig::new(65, 1, ByzVariant::Fab),
            Err(ConfigError::TooManyProcesses { n: 65 })
        );
        assert_eq!(
            ByzConfig::new(6, 0, ByzVariant::Fab),
            Err(ConfigError::ZeroResilience)
        );
        assert_eq!(
            ByzConfig::new(6, 2, ByzVariant::Fab),
            Err(ConfigError::BelowByzantineResilience { n: 6, f: 2 })
        );
    }

    #[test]
    fn fab_headline_numbers() {
        // n = 5f+1: fast quorum 4f+1 = n-f, so the fast path survives f
        // silences with zero slack — FaB's common case is exactly tight.
        for f in 1..=4 {
            let cfg = ByzConfig::minimal_fast(ByzVariant::Fab, f).unwrap();
            assert_eq!(cfg.n(), 5 * f + 1);
            assert_eq!(cfg.fast_quorum(), 4 * f + 1);
            assert_eq!(cfg.fast_quorum(), cfg.slow_quorum());
            assert!(cfg.fast_path_live());

            // One process fewer and the fast quorum exceeds the honest
            // capacity: the bound is tight.
            let below = ByzConfig::new(5 * f, f, ByzVariant::Fab).unwrap();
            assert!(!below.fast_path_live());
        }
    }

    #[test]
    fn tight_variant_shaves_two_processes() {
        for f in 2..=4 {
            let fab = ByzVariant::Fab.min_fast_live(f);
            let tight = ByzVariant::Tight.min_fast_live(f);
            assert_eq!(fab - tight, 2);
            let cfg = ByzConfig::minimal_fast(ByzVariant::Tight, f).unwrap();
            assert_eq!(cfg.n(), 5 * f - 1);
            assert!(cfg.fast_path_live());
            assert!(!ByzConfig::new(5 * f - 2, f, ByzVariant::Tight)
                .unwrap()
                .fast_path_live());
        }
        // f = 1 bottoms out at the 3f+1 = 4 resilience floor (5f-1 = 4).
        assert_eq!(ByzVariant::Tight.min_fast_live(1), 4);
    }

    #[test]
    fn quorum_intersections_cover_the_obligations() {
        for f in 1..=4 {
            for n in (3 * f + 1)..=25 {
                for variant in [ByzVariant::Fab, ByzVariant::Tight] {
                    let cfg = ByzConfig::new(n, f, variant).unwrap();
                    // B1: two fast quorums share more than f processes,
                    // so equivocating double-voters cannot bridge two
                    // conflicting fast decisions.
                    assert!(
                        2 * cfg.fast_quorum().size() > cfg.n() + cfg.f(),
                        "{cfg}: fast quorums intersect only through byzantines"
                    );
                    // B3: slow quorums intersect in >= f+1 honest.
                    assert!(2 * cfg.slow_quorum().size() > cfg.n() + cfg.f());
                    // Fast-path liveness iff the variant's bound holds.
                    assert_eq!(cfg.fast_path_live(), n >= variant.min_fast_live(f));
                }
            }
        }
    }

    #[test]
    fn honest_witness_counts() {
        let cfg = ByzConfig::minimal_fast(ByzVariant::Fab, 1).unwrap(); // n=6
        assert_eq!(cfg.honest_fast_overlap(), 3); // 2*5 - 6 - 1
        assert_eq!(cfg.honest_fast_witnesses(), 3); // 5 - 2
        assert!(cfg.honest_fast_witnesses() >= cfg.cert_threshold());
    }

    #[test]
    fn forging_a_value_always_changes_it() {
        for salt in 0..50u64 {
            for v in [0u64, 1, 7, u64::MAX, 1 << 62] {
                let mut forged = v;
                assert!(forged.forge_value(salt));
                assert_ne!(forged, v, "salt {salt}");
                // Deterministic in (value, salt).
                let mut again = v;
                again.forge_value(salt);
                assert_eq!(forged, again);
            }
        }
    }

    #[test]
    fn display_and_debug() {
        let cfg = ByzConfig::new(6, 1, ByzVariant::Fab).unwrap();
        assert_eq!(cfg.to_string(), "n=6,f=1,FaB(5f+1)");
        assert_eq!(format!("{cfg:?}"), "ByzConfig(n=6, f=1, FaB(5f+1))");
    }
}
