//! Fluent construction of SMR replicas.

use twostep_telemetry::ObserverHandle;
use twostep_types::{ProcessId, SystemConfig, Value};

use crate::command::StateMachine;
use crate::replica::SmrReplica;

/// Builder for [`SmrReplica`] — the one construction path for every
/// replica configuration.
///
/// The former `SmrReplica::new` / `SmrReplica::with_pipeline` /
/// `SmrReplica::observed` trio is gone: config and identity go up
/// front, knobs are chained setters, and the command/state-machine
/// types are fixed at [`SmrReplicaBuilder::build`] (usually inferred
/// from the binding).
///
/// ```rust
/// use twostep_smr::{KvCommand, KvStore, SmrReplica, SmrReplicaBuilder};
/// use twostep_types::{ProcessId, SystemConfig};
///
/// let cfg = SystemConfig::minimal_object(1, 1).unwrap();
/// let replica: SmrReplica<KvCommand, KvStore> =
///     SmrReplicaBuilder::new(cfg, ProcessId::new(0))
///         .pipeline(8)
///         .batch(16)
///         .build();
/// assert_eq!(replica.pipeline_depth(), 8);
/// assert_eq!(replica.batch_size(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct SmrReplicaBuilder {
    cfg: SystemConfig,
    me: ProcessId,
    pipeline: usize,
    batch: usize,
    rotation: u32,
    obs: ObserverHandle,
}

impl SmrReplicaBuilder {
    /// Starts a builder for the replica at `me` in system `cfg`, with
    /// pipeline depth 1, batch size 1 and no observer — the unbatched,
    /// unpipelined baseline.
    pub fn new(cfg: SystemConfig, me: ProcessId) -> Self {
        SmrReplicaBuilder {
            cfg,
            me,
            pipeline: 1,
            batch: 1,
            rotation: 0,
            obs: ObserverHandle::none(),
        }
    }

    /// Keeps up to `depth` batches in flight concurrently (each in its
    /// own slot). Deeper pipelines trade strict per-proxy submission
    /// order for throughput: a batch that loses its slot is re-proposed
    /// in a fresh slot and may commit after batches submitted later.
    #[must_use]
    pub fn pipeline(mut self, depth: usize) -> Self {
        self.pipeline = depth;
        self
    }

    /// Groups up to `size` queued commands into one slot proposal. The
    /// replica proposes a queue once it is as long as the largest batch
    /// of its previous pump interval (at most `size`, 1 on a fresh or
    /// idle replica, so a lone command does not wait); a shorter queue
    /// goes out on the next pump tick, at most 2Δ later.
    #[must_use]
    pub fn batch(mut self, size: usize) -> Self {
        self.batch = size;
        self
    }

    /// Rotates the replica-Ω leader preference order: with nothing
    /// suspected the group elects process `rotation % n` instead of
    /// process 0. A sharded cluster builds group `s` with
    /// `leader_rotation(s)` so the per-group leaders — and with them
    /// the fast-path proposal load — spread round-robin across the
    /// nodes. Failure handling is unchanged: if the preferred leader is
    /// suspected, the scan continues cyclically to the next trusted id.
    #[must_use]
    pub fn leader_rotation(mut self, rotation: u32) -> Self {
        self.rotation = rotation;
        self
    }

    /// Attaches telemetry hooks. The replica reports its client-queue
    /// depth, committed batch sizes and replica-Ω leader changes, and
    /// passes the handle to every per-slot consensus instance so
    /// protocol paths and recovery cases are counted too.
    #[must_use]
    pub fn observed(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Builds the replica. The command type `C` and state machine `S`
    /// are usually inferred from the binding.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `cfg`, or a knob is 0.
    pub fn build<C, S>(self) -> SmrReplica<C, S>
    where
        C: Value,
        S: StateMachine<C>,
    {
        SmrReplica::from_parts(
            self.cfg,
            self.me,
            self.pipeline,
            self.batch,
            self.rotation,
            self.obs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{KvCommand, KvStore};

    #[test]
    fn builder_defaults_match_seed_semantics() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let r: SmrReplica<KvCommand, KvStore> =
            SmrReplicaBuilder::new(cfg, ProcessId::new(0)).build();
        assert_eq!(r.pipeline_depth(), 1);
        assert_eq!(r.batch_size(), 1);
        assert_eq!(r.applied(), 0);
    }

    #[test]
    fn builder_knobs_are_applied() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let r: SmrReplica<KvCommand, KvStore> = SmrReplicaBuilder::new(cfg, ProcessId::new(0))
            .pipeline(8)
            .batch(16)
            .build();
        assert_eq!(r.pipeline_depth(), 8);
        assert_eq!(r.batch_size(), 16);
    }

    #[test]
    fn leader_rotation_shifts_group_leader() {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        for s in 0..cfg.n() as u32 {
            let r: SmrReplica<KvCommand, KvStore> = SmrReplicaBuilder::new(cfg, ProcessId::new(0))
                .leader_rotation(s)
                .build();
            assert_eq!(r.leader(), ProcessId::new(s % cfg.n() as u32));
        }
        // Rotation beyond n wraps.
        let r: SmrReplica<KvCommand, KvStore> = SmrReplicaBuilder::new(cfg, ProcessId::new(0))
            .leader_rotation(cfg.n() as u32 + 1)
            .build();
        assert_eq!(r.leader(), ProcessId::new(1));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let _: SmrReplica<KvCommand, KvStore> = SmrReplicaBuilder::new(cfg, ProcessId::new(0))
            .batch(0)
            .build();
    }
}
