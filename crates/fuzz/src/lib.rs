//! Deterministic schedule fuzzer for the workspace's consensus
//! protocols.
//!
//! The model checker in `twostep-verify` explores *every* interleaving
//! of small systems; this crate explores *random* interleavings of
//! larger ones — with fault injection (message drops, crashes,
//! crash-restarts, timer fires) — and shrinks any safety violation to a
//! minimal, replayable schedule. The two share their oracle: a run is
//! judged by [`twostep_types::judge`]'s Agreement, Validity and
//! Integrity, so the fuzzer cannot drift from the project's definition
//! of correctness.
//!
//! Everything is deterministic. An iteration is fully described by
//! `(root seed, iteration index)`; a counterexample is fully described
//! by its [`FuzzCase`] (configuration, values, leader, ablations, group
//! count, victim plan, schedule), which the `twostep-fuzz` binary prints
//! in a one-line `--replay` format. A sharded deployment and a
//! Byzantine coalition are fields of the case, so one pipeline finds,
//! shrinks and replays all of them.
//!
//! The pipeline, module by module:
//!
//! 1. [`twostep_types::SplitMix64`] — the workspace's seeded PRNG, with
//!    per-iteration streams.
//! 2. [`gen`] — schedule generation, three shapes: the fast-decide /
//!    vote-split / crash / recover phases of the paper's §B.1
//!    adversary; `k` groups on shared nodes with a shard-leader node
//!    crashing and restarting mid-load; a seeded coalition of
//!    equivocating / forging / ballot-lying / silent victims
//!    (`twostep-byz`) against the FaB-style fast-BFT baseline.
//! 3. [`case`] — the interpreter of [`schedule`]'s total actions over
//!    [`twostep_sim::ManualExecutor`]s, one per group, dispatching
//!    across the two-step protocol (task and object variants), the
//!    Paxos / Fast Paxos / EPaxos-lite / FastBft baselines and the
//!    replicated log (`twostep-smr`). The grammar lives in
//!    `twostep-sim`, beside the executor whose
//!    [`twostep_sim::ManualExecutor::step`] prints the model checker's
//!    counterexamples in it; this crate re-exports it.
//! 4. [`oracle`] — safety (and optional termination) verdicts over
//!    honest processes, per group, plus cross-shard leakage; a log
//!    oracle for the replicated log.
//! 5. [`mod@shrink`] — ddmin minimization to a 1-minimal schedule.
//! 6. [`runner`] — the campaign loop tying it all together.
//! 7. [`witness`] — the timed two-step-ness check run before each
//!    campaign (the untimed executor cannot measure `2Δ`).

pub mod case;
pub mod gen;
pub mod oracle;
pub mod runner;
pub mod shrink;
pub mod witness;

pub use twostep_sim::schedule;

pub use case::{
    run_case, run_case_observed, shard_of_value, shard_value, FuzzCase, FuzzProtocol, RunReport,
    SHARD_STRIDE,
};
pub use gen::{gen_case, gen_sharded};
pub use oracle::{check_liveness, check_safety, Verdict};
pub use runner::{fuzz, fuzz_cases, Failure, FuzzConfig, FuzzOutcome};
pub use schedule::{Action, ParseError, Schedule};
pub use shrink::{shrink, ShrinkOutcome};
pub use witness::two_step_witness;
