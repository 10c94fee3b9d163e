//! Umbrella crate for the `twostep` workspace: a production-quality Rust
//! reproduction of *"Revisiting Lower Bounds for Two-Step Consensus"*
//! (Ryabinin, Gotsman, Sutra; PODC 2025).
//!
//! This crate re-exports the workspace members so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`types`] — process ids, ballots, system configurations, bounds,
//!   and the consensus specification every run is judged by
//!   ([`types::judge`]).
//! * [`sim`] — deterministic discrete-event simulator (Δ-rounds, GST,
//!   crash injection, E-faulty synchronous runs).
//! * [`core`] — the paper's protocol: task and object variants.
//! * [`baselines`] — Paxos, Fast Paxos, EPaxos-lite and FaB-style
//!   fast-BFT comparators.
//! * [`byz`] — Byzantine fault injection: seeded, replayable
//!   equivocation, forgery, ballot lying and selective silence.
//! * [`runtime`] — thread-per-process deployment over in-memory or TCP
//!   transports.
//! * [`verify`] — bounded model checker, linearizability checker,
//!   mechanized lower-bound adversary.
//! * [`smr`] — state-machine replication built on the consensus core.
//! * [`telemetry`] — protocol-aware metrics and event tracing: decision
//!   paths, recovery cases, latency histograms, text/Prometheus export.
//!
//! The most common entry points are re-exported at the top level:
//! [`ClusterBuilder`] (one fluent construction path for every
//! deployment shape), [`ProxyClient`] (closed-loop clients),
//! [`SmrReplicaBuilder`] and [`Batch`] (batched state-machine
//! replication).
//!
//! # Quickstart
//!
//! ```rust
//! use twostep::core::TaskConsensus;
//! use twostep::sim::SyncRunner;
//! use twostep::types::{ProcessId, ProcessSet, SystemConfig};
//!
//! // n = max{2e+f, 2f+1} = 3 processes for e = f = 1 (Theorem 5).
//! let cfg = SystemConfig::minimal_task(1, 1)?;
//! let proposals: Vec<u64> = vec![10, 20, 30];
//!
//! // Crash p0 at the start of round 1; p2 (highest proposal) wins the
//! // fast path and decides by 2Δ.
//! let crashed: ProcessSet = [ProcessId::new(0)].into_iter().collect();
//! let outcome = SyncRunner::new(cfg)
//!     .crashed(crashed)
//!     .favoring(ProcessId::new(2))
//!     .run(|p| TaskConsensus::new(cfg, p, proposals[p.index()]));
//!
//! let (deciders, value) = outcome.fast_deciders();
//! assert!(deciders.contains(ProcessId::new(2)));
//! assert_eq!(value, Some(30));
//! assert!(outcome.agreement());
//! # Ok::<(), twostep::types::ConfigError>(())
//! ```
#![forbid(unsafe_code)]

pub use twostep_baselines as baselines;
pub use twostep_byz as byz;
pub use twostep_core as core;
pub use twostep_runtime as runtime;
pub use twostep_sim as sim;
pub use twostep_smr as smr;
pub use twostep_telemetry as telemetry;
pub use twostep_types as types;
pub use twostep_verify as verify;

pub use twostep_runtime::{ClusterBuilder, ProxyClient};
pub use twostep_smr::{Batch, SmrReplicaBuilder};
