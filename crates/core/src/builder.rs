//! The single entry point for constructing protocol instances.
//!
//! The typestate redesign removed the fully-parameterised constructors
//! (`with_options`-style entry points): options accumulate on a
//! [`TwoStepBuilder`], and the *formulation* is fixed by the terminal
//! method — [`task`](TwoStepBuilder::task) hands the initial value
//! straight to the birth phase, [`object`](TwoStepBuilder::object)
//! builds the formulation whose votes check the red-line precondition.
//! A task without an initial value or an object with a startup value is
//! therefore unrepresentable, not a runtime panic.

use twostep_telemetry::ObserverHandle;
use twostep_types::{OmegaMode, ProcessId, SystemConfig, Value};

use crate::consensus::TwoStep;
use crate::{Ablations, ObjectConsensus, TaskConsensus};

/// Builder for [`TaskConsensus`] / [`ObjectConsensus`] instances.
///
/// Defaults: heartbeat-driven Ω, no ablations, detached telemetry.
/// The terminal methods take `&self`, so one builder can mint a whole
/// cluster:
///
/// ```rust
/// use twostep_core::{OmegaMode, TwoStepBuilder};
/// use twostep_types::{ProcessId, SystemConfig};
///
/// let cfg = SystemConfig::minimal_task(1, 1)?; // n = 3
/// let builder = TwoStepBuilder::new(cfg).omega(OmegaMode::Static(ProcessId::new(0)));
/// let cluster: Vec<_> = (0..cfg.n() as u32)
///     .map(|i| builder.task(ProcessId::new(i), u64::from(i)))
///     .collect();
/// assert_eq!(cluster.len(), 3);
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TwoStepBuilder {
    cfg: SystemConfig,
    omega: OmegaMode,
    ablations: Ablations,
    obs: ObserverHandle,
}

impl TwoStepBuilder {
    /// Starts a builder for configuration `cfg` with default options.
    pub fn new(cfg: SystemConfig) -> Self {
        TwoStepBuilder {
            cfg,
            omega: OmegaMode::Heartbeats,
            ablations: Ablations::NONE,
            obs: ObserverHandle::none(),
        }
    }

    /// Selects the Ω failure-detector mode.
    pub fn omega(mut self, omega: OmegaMode) -> Self {
        self.omega = omega;
        self
    }

    /// Applies ablation switches (experiment harness only).
    pub fn ablations(mut self, ablations: Ablations) -> Self {
        self.ablations = ablations;
        self
    }

    /// Attaches telemetry hooks.
    pub fn observed(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Births a consensus-**task** instance for `me`: the initial value
    /// is part of construction and is proposed at startup.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for the configuration.
    pub fn task<V: Value>(&self, me: ProcessId, initial: V) -> TaskConsensus<V> {
        TwoStep::new_machine(
            self.cfg,
            me,
            Some(initial),
            self.omega,
            self.ablations,
            self.obs.clone(),
        )
    }

    /// Births a consensus-**object** instance for `me`: no value until
    /// `propose(v)` is invoked, and the red-line preconditions apply.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for the configuration.
    pub fn object<V: Value>(&self, me: ProcessId) -> ObjectConsensus<V> {
        TwoStep::new_machine(
            self.cfg,
            me,
            None,
            self.omega,
            self.ablations,
            self.obs.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_types::protocol::{Effects, Protocol};

    #[test]
    fn builder_defaults_and_reuse() {
        let cfg = SystemConfig::minimal_task(1, 1).unwrap();
        let b = TwoStepBuilder::new(cfg).omega(OmegaMode::Static(ProcessId::new(1)));
        let t = b.task(ProcessId::new(0), 7u64);
        assert_eq!(t.config(), cfg);
        assert_eq!(t.omega().leader(), ProcessId::new(1));
        // The same builder mints a second, independent instance.
        let o: ObjectConsensus<u64> = b.object(ProcessId::new(2));
        assert_eq!(o.initial_value(), None);
    }

    #[test]
    fn task_initial_value_proposed_at_startup() {
        let cfg = SystemConfig::minimal_task(1, 1).unwrap();
        let mut t = TwoStepBuilder::new(cfg)
            .omega(OmegaMode::Static(ProcessId::new(0)))
            .task(ProcessId::new(0), 42u64);
        let mut eff = Effects::new();
        t.on_start(&mut eff);
        assert_eq!(t.initial_value(), Some(&42));
    }
}
