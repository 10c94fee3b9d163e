//! Common vocabulary for the `twostep` workspace.
//!
//! This crate defines the data types shared by every other crate in the
//! reproduction of *"Revisiting Lower Bounds for Two-Step Consensus"*
//! (Ryabinin, Gotsman, Sutra; PODC 2025):
//!
//! * [`ProcessId`] and [`ProcessSet`] — identities of the `n` crash-prone
//!   processes `Π = {p_0, …, p_{n-1}}` and subsets thereof (failure sets
//!   `E`, quorums `Q`, …).
//! * [`Ballot`] — Paxos-style ballot numbers; ballot `0` is the paper's
//!   *fast* ballot, all others are *slow*.
//! * [`SystemConfig`] — a validated `(n, e, f)` triple together with all
//!   the quorum sizes the paper's protocols need, and the
//!   lower-bound formulas of Theorems 5 and 6.
//! * [`Quorum`] — a quorum size: compared with counts, never added to
//!   or subtracted from.
//! * [`ByzConfig`] — the Byzantine sibling of [`SystemConfig`]: a
//!   validated `(n, f)` pair with FaB-style fast-quorum arithmetic and
//!   the `5f+1` / `5f−1` fast-path bounds.
//! * [`Time`] / [`Duration`] — virtual time for the discrete-event
//!   simulator, with the message-delay bound `Δ` ([`DELTA`]) used to
//!   define rounds and "two-step" decisions (decided by time `2Δ`).
//! * [`Omega`] — the Ω leader-election service (heartbeats and
//!   suspicion sweeps, or a static leader) that every protocol runs.
//! * [`SplitMix64`] — the one seeded PRNG behind every replayable
//!   schedule (fuzz campaigns, Byzantine injection plans).
//! * [`judge`] — the consensus specification (§2), written once:
//!   Agreement, Validity, Integrity and Termination over a decide log,
//!   and the same safety properties for a replicated log. Every
//!   executor judges its runs there.
//! * [`protocol`] — the event-driven state-machine abstraction
//!   ([`protocol::Protocol`]) that both the simulator and the threaded
//!   runtime drive, so a single protocol implementation runs unmodified
//!   in deterministic simulation, model checking, and real deployments.
//!
//! # Example
//!
//! ```rust
//! use twostep_types::{SystemConfig, ProtocolKind};
//!
//! // The paper's headline numbers: for e = ceil((f+1)/2) the consensus
//! // *object* needs only 2f+1 processes where Fast Paxos needs 2f+3.
//! let f: usize = 2;
//! let e = (f + 1).div_ceil(2);
//! assert_eq!(ProtocolKind::ObjectTwoStep.min_processes(e, f), 2 * f + 1);
//! assert_eq!(ProtocolKind::FastPaxos.min_processes(e, f), 2 * f + 3);
//!
//! let cfg = SystemConfig::minimal_object(e, f).unwrap();
//! assert_eq!(cfg.n(), 5);
//! assert_eq!(cfg.fast_quorum(), cfg.n() - e);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ballot;
mod byz;
mod config;
mod error;
pub mod judge;
mod omega;
mod process;
pub mod protocol;
pub mod quorum;
pub mod relabel;
mod rng;
mod time;
mod value;

pub use ballot::Ballot;
pub use byz::{ByzConfig, ByzVariant, Corruptible};
pub use config::{ProtocolKind, SystemConfig};
pub use error::ConfigError;
pub use omega::{Omega, OmegaMode};
pub use process::{combinations, ProcessId, ProcessSet};
pub use quorum::Quorum;
pub use rng::SplitMix64;
pub use time::{Duration, Time, DELTA};
pub use value::Value;
