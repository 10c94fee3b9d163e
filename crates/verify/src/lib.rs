//! Verification toolkit for the two-step consensus reproduction.
//!
//! Three instruments, each mechanizing a different part of the paper.
//! The consensus specification (§2) they judge runs by is
//! [`twostep_types::judge`]; two-step-ness (Definition 3) and its sweeps
//! (Definitions 4 and A.1) live beside the runs they judge, in
//! `twostep_sim` ([`twostep_sim::definition_4`]).
//!
//! * [`linearizability`] — a history checker for the consensus *object*
//!   specification (linearizable wait-free `propose`), with a
//!   brute-force reference implementation used to validate the fast
//!   checker.
//! * [`model_check`] — a bounded-exhaustive explorer over
//!   [`twostep_sim::ManualExecutor`] schedules: every interleaving of
//!   message deliveries, bounded crashes and bounded timer firings, with
//!   process-symmetry canonicalization, inert-mail partial-order
//!   reduction, and a parallel work-stealing frontier. Checks safety in
//!   *all* schedules, not just sampled ones, and emits counterexamples
//!   replayable through `twostep-fuzz --replay`.
//! * [`adversary`] — the paper's lower-bound proofs (§B.1, §B.2) turned
//!   into executable schedules: below the tight bounds the constructed
//!   interleavings drive the real protocol into an agreement violation;
//!   at the bounds the same strategies are exhibited failing (the
//!   recovery rule's tie-break and proposer exclusion save the run).
//!   This is the empirical content of Theorems 5 and 6 "only if". Each
//!   strategy is a [`Splice`], a list of moves one interpreter runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod linearizability;
pub mod model_check;

pub use adversary::{
    fast_paxos_at_bound, fast_paxos_below_bound, guard_ablation_prefix, object_adversary_grid,
    object_at_bound, object_below_bound, object_exclusion_demo, object_guard_demo,
    staged_object_prefix, staged_task_prefix, task_adversary_grid, task_at_bound,
    task_at_bound_with, task_below_bound, AdversaryReport, Move, Splice, TwoStepSetup,
};
pub use linearizability::{History, LinearizabilityError, Op};
pub use model_check::{CheckOutcome, ExploreStats, ModelChecker};
