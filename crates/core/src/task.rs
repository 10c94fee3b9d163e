//! The consensus task: [`TwoStep`] in the [`Task`] formulation.

use twostep_types::{ProcessId, SystemConfig, Value};

use crate::builder::TwoStepBuilder;
use crate::consensus::{sealed, Formulation, TwoStep};

/// The paper's protocol as a consensus **task** (Figure 1 without the
/// red lines): every process is born with an initial value which it
/// proposes at startup.
///
/// Implementable iff `n ≥ max{2e+f, 2f+1}` (Theorem 5); use
/// [`SystemConfig::minimal_task`] for the tight configuration.
///
/// # Example
///
/// ```rust
/// use twostep_core::TaskConsensus;
/// use twostep_sim::SyncRunner;
/// use twostep_types::{ProcessId, SystemConfig};
///
/// let cfg = SystemConfig::minimal_task(1, 1)?; // n = 3
/// let outcome = SyncRunner::new(cfg)
///     .favoring(ProcessId::new(2))
///     .run(|p| TaskConsensus::new(cfg, p, u64::from(p.as_u32())));
/// assert!(outcome.agreement());
/// let (fast, v) = outcome.fast_deciders();
/// assert!(fast.contains(ProcessId::new(2)));
/// assert_eq!(v, Some(2));
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
pub type TaskConsensus<V> = TwoStep<V, Task>;

/// The task formulation (no values: it only names the type parameter
/// of [`TaskConsensus`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {}

impl sealed::Sealed for Task {}

impl Formulation for Task {
    const OBJECT: bool = false;
}

impl<V: Value> TaskConsensus<V> {
    /// Creates a task instance for `me` proposing `initial`, with
    /// default options — sugar for
    /// [`TwoStepBuilder::task`](crate::TwoStepBuilder::task). Use the
    /// builder to select an Ω mode, ablations, or telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `cfg`.
    pub fn new(cfg: SystemConfig, me: ProcessId, initial: V) -> Self {
        TwoStepBuilder::new(cfg).task(me, initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_types::protocol::{Effects, Protocol};

    #[test]
    fn task_proposes_at_startup() {
        let cfg = SystemConfig::minimal_task(1, 1).unwrap();
        let mut t = TaskConsensus::new(cfg, ProcessId::new(0), 5u64);
        assert_eq!(t.id(), ProcessId::new(0));
        assert_eq!(t.decision(), None);
        let mut eff = Effects::new();
        t.on_start(&mut eff);
        assert!(!eff.sends.is_empty(), "startup proposes");
        assert_eq!(t.initial_value(), Some(&5));
        assert_eq!(t.decision_path(), None);
    }
}
