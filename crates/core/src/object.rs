//! The consensus object: [`TwoStep`] in the [`Object`] formulation.

use twostep_types::{ProcessId, SystemConfig, Value};

use crate::builder::TwoStepBuilder;
use crate::consensus::{sealed, Formulation, TwoStep};

/// The paper's protocol as a consensus **object** (Figure 1 *with* the
/// red lines): processes propose values by explicitly invoking
/// `propose(v)` — possibly never — and the two extra preconditions
/// constrain the fast path:
///
/// * `propose(v)` only takes effect if the process has not yet voted
///   (`val = ⊥`);
/// * a `Propose(v)` from another process is accepted only if this
///   process has not proposed, or proposed the same `v`
///   (`initial_val ≠ ⊥ ⟹ v = initial_val`).
///
/// These restrictions are what allow the object formulation to shave one
/// more process off the bound: implementable iff
/// `n ≥ max{2e+f-1, 2f+1}` (Theorem 6); use
/// [`SystemConfig::minimal_object`] for the tight configuration.
///
/// # Example
///
/// ```rust
/// use twostep_core::ObjectConsensus;
/// use twostep_sim::SyncRunner;
/// use twostep_types::{ProcessId, SystemConfig, Time};
///
/// // Definition A.1(1): a lone proposer decides its own value by 2Δ.
/// let cfg = SystemConfig::minimal_object(2, 2)?; // n = 5
/// let proposer = ProcessId::new(4);
/// let outcome = SyncRunner::new(cfg).run_object(
///     |p| ObjectConsensus::<u64>::new(cfg, p),
///     vec![(proposer, 7, Time::ZERO)],
/// );
/// let (fast, v) = outcome.fast_deciders();
/// assert!(fast.contains(proposer));
/// assert_eq!(v, Some(7));
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
pub type ObjectConsensus<V> = TwoStep<V, Object>;

/// The object formulation (no values: it only names the type parameter
/// of [`ObjectConsensus`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Object {}

impl sealed::Sealed for Object {}

impl Formulation for Object {
    const OBJECT: bool = true;
}

impl<V: Value> ObjectConsensus<V> {
    /// Creates an object instance for `me` (no proposal yet) with
    /// default options — sugar for
    /// [`TwoStepBuilder::object`](crate::TwoStepBuilder::object). Use
    /// the builder to select an Ω mode, ablations, or telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `cfg`.
    pub fn new(cfg: SystemConfig, me: ProcessId) -> Self {
        TwoStepBuilder::new(cfg).object(me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Msg;
    use twostep_types::protocol::{Effects, Protocol};

    #[test]
    fn object_starts_without_proposal() {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let mut o = ObjectConsensus::<u64>::new(cfg, ProcessId::new(0));
        let mut eff = Effects::new();
        o.on_start(&mut eff);
        assert!(
            !eff.sends.iter().any(|(_, m)| matches!(m, Msg::Propose(_))),
            "no Propose before propose() is invoked"
        );
        assert_eq!(o.initial_value(), None);

        let mut eff = Effects::new();
        o.on_propose(9, &mut eff);
        assert!(eff.sends.iter().any(|(_, m)| matches!(m, Msg::Propose(9))));
        assert_eq!(o.initial_value(), Some(&9));
    }
}
