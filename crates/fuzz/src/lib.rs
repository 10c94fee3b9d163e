//! Deterministic schedule fuzzer for the workspace's consensus
//! protocols.
//!
//! The model checker in `twostep-verify` explores *every* interleaving
//! of small systems; this crate explores *random* interleavings of
//! larger ones — with fault injection (message drops, crashes,
//! crash-restarts, timer fires) — and shrinks any safety violation to a
//! minimal, replayable schedule. The two share their oracles: a run is
//! judged by `twostep-verify`'s Agreement/Validity/Integrity checkers,
//! so the fuzzer cannot drift from the project's definition of
//! correctness.
//!
//! Everything is deterministic. An iteration is fully described by
//! `(root seed, iteration index)`; a counterexample is fully described
//! by its [`FuzzCase`] (configuration, values, leader, ablations,
//! schedule), which the `twostep-fuzz` binary prints in a one-line
//! `--replay` format.
//!
//! The pipeline, module by module:
//!
//! 1. [`twostep_types::SplitMix64`] — the workspace's seeded PRNG, with
//!    per-iteration streams.
//! 2. [`gen`] — phase-structured schedule generation, biased towards
//!    the fast-decide / vote-split / crash / recover shape of the
//!    paper's §B.1 adversary.
//! 3. [`case`] — the total-action interpreter over
//!    [`twostep_sim::ManualExecutor`], dispatching across the two-step
//!    protocol (task and object variants) and the Paxos / Fast Paxos /
//!    EPaxos-lite baselines.
//! 4. [`oracle`] — safety (and optional termination) verdicts.
//! 5. [`mod@shrink`] — ddmin minimization to a 1-minimal schedule.
//! 6. [`runner`] — the campaign loop tying it all together.
//! 7. [`witness`] — the timed two-step-ness check run before each
//!    campaign (the untimed executor cannot measure `2Δ`).
//! 8. [`mod@shard`] — sharded campaigns: `k` groups on shared nodes,
//!    a shard-leader node crash/restart mid-load, and a per-shard
//!    oracle with a cross-shard leakage check.
//! 9. [`byzcamp`] — Byzantine campaigns: seeded equivocation/forgery
//!    coalitions injected into the FaB-style fast-BFT baseline via
//!    `twostep-byz`, judged by honest-only oracles.

pub mod byzcamp;
pub mod case;
pub mod gen;
pub mod oracle;
pub mod runner;
pub mod schedule;
pub mod shard;
pub mod shrink;
pub mod witness;

pub use byzcamp::{
    check_byzantine, fuzz_byzantine, run_byzantine_iteration, ByzFailure, ByzFuzzConfig,
    ByzFuzzOutcome, ByzRun,
};
pub use case::{run_case, run_case_observed, FuzzCase, FuzzProtocol, RunReport};
pub use gen::gen_case;
pub use oracle::{check_liveness, check_safety, Verdict};
pub use runner::{fuzz, fuzz_with_progress, Failure, FuzzConfig, FuzzOutcome};
pub use schedule::{Action, ParseError, Schedule};
pub use shard::{
    check_sharded, fuzz_sharded, run_sharded_iteration, shard_of_value, shard_value, ShardFailure,
    ShardFuzzConfig, ShardFuzzOutcome, SHARD_STRIDE,
};
pub use shrink::{shrink, ShrinkOutcome};
pub use witness::{paxos_is_not_two_step, two_step_witness};
