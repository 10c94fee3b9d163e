//! The consensus-object wrapper.

use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::{ProcessId, SystemConfig, Value};

use crate::builder::TwoStepBuilder;
use crate::consensus::{DecisionPath, TwoStep};
use crate::msg::Msg;

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
#[derive(Debug, Clone)]
pub struct ObjectConsensus<V>(TwoStep<V>);

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

    /// Wraps a machine built by [`TwoStepBuilder`].
    pub(crate) fn from_machine(inner: TwoStep<V>) -> Self {
        ObjectConsensus(inner)
    }

    /// Attaches telemetry hooks (builder style).
    pub fn observed(self, obs: twostep_telemetry::ObserverHandle) -> Self {
        ObjectConsensus(self.0.observed(obs))
    }

    /// The underlying state machine, for white-box inspection.
    pub fn inner(&self) -> &TwoStep<V> {
        &self.0
    }

    /// How the decision was reached, if decided.
    pub fn decision_path(&self) -> Option<DecisionPath> {
        self.0.decision_path()
    }

    /// Updates the leader hint of a statically-configured Ω.
    pub fn set_leader_hint(&mut self, leader: ProcessId) {
        self.0.set_leader_hint(leader);
    }
}

impl<V: Value> Protocol<V> for ObjectConsensus<V> {
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
    fn object_starts_without_proposal() {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let mut o = ObjectConsensus::<u64>::new(cfg, ProcessId::new(0));
        let mut eff = Effects::new();
        o.on_start(&mut eff);
        assert!(
            !eff.sends.iter().any(|(_, m)| matches!(m, Msg::Propose(_))),
            "no Propose before propose() is invoked"
        );
        assert_eq!(o.inner().initial_value(), None);

        let mut eff = Effects::new();
        o.on_propose(9, &mut eff);
        assert!(eff.sends.iter().any(|(_, m)| matches!(m, Msg::Propose(9))));
        assert_eq!(o.inner().initial_value(), Some(&9));
    }
}
