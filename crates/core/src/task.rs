//! The consensus-task wrapper.

use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::{ProcessId, SystemConfig, Value};

use crate::builder::TwoStepBuilder;
use crate::consensus::{DecisionPath, TwoStep};
use crate::msg::Msg;

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
#[derive(Debug, Clone)]
pub struct TaskConsensus<V>(TwoStep<V>);

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

    /// Wraps a machine built by [`TwoStepBuilder`].
    pub(crate) fn from_machine(inner: TwoStep<V>) -> Self {
        TaskConsensus(inner)
    }

    /// Attaches telemetry hooks (builder style).
    pub fn observed(self, obs: twostep_telemetry::ObserverHandle) -> Self {
        TaskConsensus(self.0.observed(obs))
    }

    /// The underlying state machine, for white-box inspection.
    pub fn inner(&self) -> &TwoStep<V> {
        &self.0
    }

    /// How the decision was reached, if decided.
    pub fn decision_path(&self) -> Option<DecisionPath> {
        self.0.decision_path()
    }
}

impl<V: Value> Protocol<V> for TaskConsensus<V> {
    type Message = Msg<V>;

    fn id(&self) -> ProcessId {
        self.0.id()
    }

    fn on_start(&mut self, eff: &mut Effects<V, Msg<V>>) {
        self.0.on_start(eff);
    }

    fn on_propose(&mut self, value: V, eff: &mut Effects<V, Msg<V>>) {
        self.0.on_propose(value, eff);
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, eff: &mut Effects<V, Msg<V>>) {
        self.0.on_message(from, msg, eff);
    }

    fn on_timer(&mut self, timer: TimerId, eff: &mut Effects<V, Msg<V>>) {
        self.0.on_timer(timer, eff);
    }

    fn decision(&self) -> Option<V> {
        self.0.decision()
    }

    fn state_fingerprint_relabeled(&self, rl: &twostep_types::relabel::Relabeling) -> Option<u64> {
        self.0.state_fingerprint_relabeled(rl)
    }

    fn message_is_noop(&self, from: ProcessId, msg: &Msg<V>) -> bool {
        self.0.message_is_noop(from, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_delegates() {
        let cfg = SystemConfig::minimal_task(1, 1).unwrap();
        let mut t = TaskConsensus::new(cfg, ProcessId::new(0), 5u64);
        assert_eq!(t.id(), ProcessId::new(0));
        assert_eq!(t.decision(), None);
        let mut eff = Effects::new();
        t.on_start(&mut eff);
        assert!(!eff.sends.is_empty(), "startup proposes");
        assert_eq!(t.inner().initial_value(), Some(&5));
        assert_eq!(t.decision_path(), None);
    }
}
