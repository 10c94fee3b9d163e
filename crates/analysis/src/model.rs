//! The quorum-arithmetic surface under analysis.
//!
//! The bound checker does not hard-code `n - e` / `n - f` / `n - f - e`:
//! it checks whatever a [`QuorumModel`] reports, so that
//!
//! * the real [`SystemConfig`] arithmetic is what CI certifies, and
//! * deliberately broken fixtures ([`Fixture`]) prove the checker can
//!   actually fail — a gate that cannot go red is not a gate.

use twostep_types::SystemConfig;

/// Quorum arithmetic as seen by the bound checker.
///
/// Implementations answer for one concrete `(n, e, f)`; the checker
/// derives every obligation from these five numbers.
pub trait QuorumModel {
    /// Which arithmetic this is ("real", or a fixture name).
    fn name(&self) -> &'static str;
    /// The underlying parameters `(n, e, f)`.
    fn params(&self) -> (usize, usize, usize);
    /// Fast-path quorum size (the real model returns `n - e`).
    fn fast_quorum(&self) -> usize;
    /// Slow-path quorum size (the real model returns `n - f`).
    fn slow_quorum(&self) -> usize;
    /// Recovery vote threshold (the real model returns `n - f - e`).
    fn recovery_threshold(&self) -> usize;
}

/// The production arithmetic: delegates every query to [`SystemConfig`].
#[derive(Debug, Clone, Copy)]
pub struct RealModel(pub SystemConfig);

impl QuorumModel for RealModel {
    fn name(&self) -> &'static str {
        "real"
    }

    fn params(&self) -> (usize, usize, usize) {
        (self.0.n(), self.0.e(), self.0.f())
    }

    fn fast_quorum(&self) -> usize {
        self.0.fast_quorum().size()
    }

    fn slow_quorum(&self) -> usize {
        self.0.slow_quorum().size()
    }

    fn recovery_threshold(&self) -> usize {
        self.0.recovery_threshold().size()
    }
}

/// Seeded-violation fixtures: known-broken arithmetic the checker must
/// reject. CI runs the checker against one of these and asserts a
/// nonzero exit, guarding the gate itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    /// Fast quorums of `n - e - 1`: one process too small, so a fast
    /// quorum and a slow quorum may share fewer than `n - f - e`
    /// members and a fast decision can vanish from recovery's view.
    BrokenFastQuorum,
    /// Recovery threshold of `n - f - e + 1`: one vote too demanding,
    /// so a fast-decided value guaranteed only `n - f - e` surviving
    /// votes falls through to the arbitrary fallback branch.
    BrokenRecoveryThreshold,
}

impl Fixture {
    /// All fixtures, for CLI listing and tests.
    pub const ALL: [Fixture; 2] = [Fixture::BrokenFastQuorum, Fixture::BrokenRecoveryThreshold];

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Fixture> {
        match s {
            "broken-fast-quorum" => Some(Fixture::BrokenFastQuorum),
            "broken-recovery-threshold" => Some(Fixture::BrokenRecoveryThreshold),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Fixture::BrokenFastQuorum => "broken-fast-quorum",
            Fixture::BrokenRecoveryThreshold => "broken-recovery-threshold",
        }
    }

    /// Wraps `cfg` in this fixture's broken arithmetic.
    pub fn model(self, cfg: SystemConfig) -> FixtureModel {
        FixtureModel { cfg, fixture: self }
    }
}

/// A [`QuorumModel`] with one quantity deliberately off by one.
#[derive(Debug, Clone, Copy)]
pub struct FixtureModel {
    cfg: SystemConfig,
    fixture: Fixture,
}

impl QuorumModel for FixtureModel {
    fn name(&self) -> &'static str {
        self.fixture.name()
    }

    fn params(&self) -> (usize, usize, usize) {
        (self.cfg.n(), self.cfg.e(), self.cfg.f())
    }

    fn fast_quorum(&self) -> usize {
        match self.fixture {
            Fixture::BrokenFastQuorum => self.cfg.fast_quorum().size().saturating_sub(1),
            Fixture::BrokenRecoveryThreshold => self.cfg.fast_quorum().size(),
        }
    }

    fn slow_quorum(&self) -> usize {
        self.cfg.slow_quorum().size()
    }

    fn recovery_threshold(&self) -> usize {
        match self.fixture {
            Fixture::BrokenFastQuorum => self.cfg.recovery_threshold().size(),
            Fixture::BrokenRecoveryThreshold => self.cfg.recovery_threshold().size() + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_model_mirrors_config() {
        let cfg = SystemConfig::new(7, 2, 3).unwrap();
        let m = RealModel(cfg);
        assert_eq!(m.params(), (7, 2, 3));
        assert_eq!(m.fast_quorum(), 5);
        assert_eq!(m.slow_quorum(), 4);
        assert_eq!(m.recovery_threshold(), 2);
        assert_eq!(m.name(), "real");
    }

    #[test]
    fn fixtures_break_exactly_one_quantity() {
        let cfg = SystemConfig::new(7, 2, 3).unwrap();
        let bfq = Fixture::BrokenFastQuorum.model(cfg);
        assert_eq!(bfq.fast_quorum(), cfg.fast_quorum().size() - 1);
        assert_eq!(bfq.slow_quorum(), cfg.slow_quorum());
        assert_eq!(bfq.recovery_threshold(), cfg.recovery_threshold());

        let brt = Fixture::BrokenRecoveryThreshold.model(cfg);
        assert_eq!(brt.fast_quorum(), cfg.fast_quorum());
        assert_eq!(
            brt.recovery_threshold(),
            cfg.recovery_threshold().size() + 1
        );
    }

    #[test]
    fn fixture_cli_names_round_trip() {
        for fx in Fixture::ALL {
            assert_eq!(Fixture::parse(fx.name()), Some(fx));
        }
        assert_eq!(Fixture::parse("no-such-fixture"), None);
    }
}
