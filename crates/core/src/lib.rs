//! The paper's two-step consensus protocol (Figure 1).
//!
//! This crate implements the protocol of *"Revisiting Lower Bounds for
//! Two-Step Consensus"* (Ryabinin, Gotsman, Sutra; PODC 2025), in both
//! formulations studied by the paper:
//!
//! * [`TaskConsensus`] — the consensus *task*: every process is born
//!   with an initial value; tight bound `n ≥ max{2e+f, 2f+1}`
//!   (Theorem 5).
//! * [`ObjectConsensus`] — the consensus *object*: processes explicitly
//!   invoke `propose(v)` (possibly never); tight bound
//!   `n ≥ max{2e+f-1, 2f+1}` (Theorem 6). This variant adds the paper's
//!   red-line preconditions.
//!
//! Both are one state machine, [`TwoStep`], whose formulation is a type
//! parameter ([`Task`] or [`Object`]); they are built through
//! [`TwoStepBuilder`] and run over the typestate phases of [`phase`]:
//! each protocol phase is a distinct type whose transitions
//! consume `self` and issue their sends through the `Effects` sink, so
//! an illegal transition (fast-deciding from a slow ballot, proposing
//! without a frozen `1B` quorum, …) does not typecheck. The key novelty
//! is the value-selection rule run by a new leader
//! ([`recovery::classify`]): votes whose proposer is inside the `1B`
//! quorum are *excluded* (such proposers can no longer take the fast
//! path), and a surviving vote count of exactly `n-f-e` is resolved by a
//! max-value tie-break — a tie-break that only exists on the
//! [`recovery::RecoveryEq`] case type.
//!
//! # Liveness notes (documented deviations)
//!
//! The brief announcement elides two standard mechanisms that this
//! implementation adds for end-to-end liveness; both only ever *add*
//! messages and never alter the vote/selection logic, so the paper's
//! safety argument is untouched:
//!
//! 1. **Proposal retransmission / forwarding.** An object-variant
//!    proposer whose `Propose` reaches processes already in a slow
//!    ballot would otherwise starve (its value is in nobody's
//!    `initial_val` and in no vote). Proposers rebroadcast their
//!    proposal on the new-ballot timer, and every process remembers the
//!    last proposal it has *seen* (even if it could not vote for it);
//!    the recovery rule falls back to such an observed proposal only in
//!    its final branch, where any valid value is safe to choose.
//! 2. **Decision gossip.** A decided process rebroadcasts `Decide` on
//!    its periodic timer so a decision reaches processes that missed the
//!    original broadcast.
//!
//! # Example
//!
//! ```rust
//! use twostep_core::TaskConsensus;
//! use twostep_sim::SyncRunner;
//! use twostep_types::{ProcessId, ProcessSet, SystemConfig};
//!
//! // Theorem 5 bound: e = f = 1 needs n = max{3, 3} = 3... with e=f=2,
//! // n = max{6, 5} = 6.
//! let cfg = SystemConfig::minimal_task(2, 2)?;
//! let proposals: Vec<u64> = (0..cfg.n() as u64).map(|i| 100 + i).collect();
//!
//! // Crash E = {p0, p1} at the start of round 1; favor the highest
//! // correct proposer p5: it must decide by 2Δ.
//! let e: ProcessSet = [0u32, 1].into_iter().map(ProcessId::new).collect();
//! let outcome = SyncRunner::new(cfg)
//!     .crashed(e)
//!     .favoring(ProcessId::new(5))
//!     .run(|p| TaskConsensus::new(cfg, p, proposals[p.index()]));
//!
//! let (fast, value) = outcome.fast_deciders();
//! assert!(fast.contains(ProcessId::new(5)));
//! assert_eq!(value, Some(105));
//! assert!(outcome.agreement());
//! # Ok::<(), twostep_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Handler conventions held by clippy, tests exempt: bad input degrades and
// never panics a replica, a match names every variant so a new one is a
// compile error, and no invariant is debug-only (this crate's clippy.toml).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants,
        clippy::disallowed_macros
    )
)]

mod ablation;
mod builder;
mod consensus;
mod msg;
mod object;
pub mod phase;
pub mod recovery;
mod task;

pub use ablation::Ablations;
pub use builder::TwoStepBuilder;
pub use consensus::{DecisionPath, Formulation, TwoStep};
pub use msg::Msg;
pub use object::{Object, ObjectConsensus};
pub use phase::{LeaderPhase, PhaseKind};
pub use task::{Task, TaskConsensus};
// Defined in `twostep-types`, where the baselines and the SMR replica
// reach it too; `TwoStepBuilder::omega` takes it, so it is named here.
pub use twostep_types::{Omega, OmegaMode};
