//! Baseline consensus protocols the paper compares against.
//!
//! * [`Paxos`] — classic single-decree, leader-driven Paxos
//!   (`n ≥ 2f+1`). Decides in two message delays only when the
//!   (pre-established) leader is correct; a leader crash costs a
//!   failure-detection timeout plus a full ballot. Not e-two-step for
//!   any `e > 0`.
//! * [`FastPaxos`] — Lamport's Fast Paxos (`n ≥ max{2e+f+1, 2f+1}`):
//!   uncoordinated fast rounds with fast quorums of `n-e`, recovery via
//!   the O4 observation rule. The extra process (compared to the paper's
//!   protocol) is what makes O4 unambiguous without proposer exclusion
//!   or tie-breaks.
//! * [`EPaxosLite`] — a single-shot reduction of Egalitarian Paxos's
//!   per-command commit: PreAccept to a fast quorum of
//!   `f + ⌊(f+1)/2⌋` out of `n = 2f+1`, falling back to an Accept round
//!   under interference. This reproduces the process-count/latency
//!   datapoint that motivated the paper (two-step decisions with
//!   `2f+1 = 2e+f-1` processes for `e = ⌈(f+1)/2⌉`). Command-leader
//!   crash recovery is out of scope (see `DESIGN.md`).
//! * [`FastBft`] — a FaB-Paxos-style fast *Byzantine* baseline
//!   (`n ≥ 3f+1`, two-step iff `n ≥ 5f+1`, or `n ≥ 5f−1` under the
//!   arXiv:2102.12825 honest-proposer rule): the comparison point for
//!   the crash-vs-Byzantine bound gap of experiment E14.
//!
//! All four implement the same event-driven
//! [`Protocol`](twostep_types::protocol::Protocol) abstraction as the
//! core protocol, so every experiment drives them through identical
//! engines. Paxos, Fast Paxos and FastBft elect their recovery leader
//! with the one [`Omega`](twostep_types::Omega) the core protocol runs.

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

pub mod epaxos;
pub mod fab;
pub mod fastpaxos;
pub mod paxos;

pub use epaxos::EPaxosLite;
pub use fab::{FabMsg, FastBft};
pub use fastpaxos::FastPaxos;
pub use paxos::Paxos;

use twostep_telemetry::{ObserverHandle, Path};
use twostep_types::protocol::Effects;
use twostep_types::{ProcessId, Value};

/// Records `v`, decided at `me` via `path`, in `decided`: the first
/// decision is kept, reported and emitted; a later one for another value
/// is emitted too, so the checkers see the disagreement.
fn record_decision<V: Value, M>(
    decided: &mut Option<V>,
    me: ProcessId,
    obs: &ObserverHandle,
    v: V,
    path: Path,
    eff: &mut Effects<V, M>,
) {
    if decided.is_none() {
        *decided = Some(v.clone());
        obs.decided(me, path);
        eff.decide(v);
    } else if decided.as_ref() != Some(&v) {
        eff.decide(v); // surfaced for the checkers
    }
}
