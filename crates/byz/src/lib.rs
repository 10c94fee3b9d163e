//! Byzantine fault injection for the `twostep` workspace.
//!
//! The source paper's lower bounds assume *crash* faults. This crate
//! lets the workspace ask what changes when up to `b` processes are
//! actively malicious, the question of the fast-BFT lineage (FaB Paxos,
//! the `5f−1` bound of Kuznetsov et al.). This crate supplies the adversary: [`ByzProtocol`] wraps
//! any [`Protocol`](twostep_types::protocol::Protocol) implementation
//! and perturbs its *outgoing* effects according to a [`ByzBehavior`] —
//!
//! * **equivocation** — a broadcast is split into disjoint recipient
//!   sets that receive conflicting values;
//! * **value forgery** — embedded proposal/decision values are mutated;
//! * **ballot lying** — embedded ballot numbers are mutated;
//! * **selective silence** — individual sends are dropped.
//!
//! All perturbation is driven by a seeded
//! [`SplitMix64`](twostep_types::SplitMix64) stream, so a
//! Byzantine schedule is exactly as replayable as a crash schedule: the
//! pair `(seed, process)` fully determines every corruption. A
//! [`ByzPlan`] assigns behaviors across a cluster and derives the
//! per-process seeds, so the sim engine, `ManualExecutor`, and the
//! fuzzer wrap victims with one call.
//!
//! The wrapper works at the [`Effects`](twostep_types::protocol::Effects)
//! boundary — *between* the protocol and the engine — which is what
//! keeps it engine-agnostic: the same wrapped protocol runs under the
//! deterministic simulator, the model checker, and the threaded
//! runtime, and honest processes run completely unwrapped code paths
//! ([`ByzBehavior::Honest`] is a verified no-op).

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

mod behavior;
mod wrapper;

pub use behavior::{ByzBehavior, ByzPlan};
pub use wrapper::ByzProtocol;
