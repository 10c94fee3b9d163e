//! Static-analysis gates for the two-step consensus workspace.
//!
//! The analyses below run from the `twostep-analysis` binary and are
//! wired into CI:
//!
//! * [`bounds`] — one exhaustive small-model checker for both families
//!   of quorum bounds, sharing one sweep harness, one set of result
//!   types, one JSON report and one set of seeded-broken fixtures:
//!   * [`bounds::crash`] — obligations O1–O7 on the arithmetic in
//!     `twostep_types::SystemConfig`. For every `(n, e, f)` with `n` up
//!     to a cap it discharges the intersection obligations behind
//!     Lemma 7 and the recovery rule, and for every `n` *below* the
//!     paper's bounds it constructs a concrete violating quorum pair (a
//!     tightness witness, executed against the real
//!     `twostep_core::recovery::select_value` where possible).
//!     Theorems 5–6 of the paper, as an executable artifact.
//!   * [`bounds::byzantine`] — obligations B1–B7 for the FaB-style
//!     fast quorums (`5f+1`, and the arXiv:2102.12825 `5f−1` variant),
//!     with tightness witnesses *executed* against the real `FastBft`
//!     baseline — every `n` below a variant's fast-liveness bound
//!     carries a run with zero fast deciders.
//! * [`api`] — the public-API snapshot of `twostep-core` and
//!   `twostep-types`, diffed against `docs/public-api.txt`.
//! * [`model_check_gate`] — the exhaustive model checker
//!   (`twostep_verify::ModelChecker`) swept over the paper's boundary
//!   `(n, e, f)` configurations, with a seeded-broken fixture CI runs
//!   inverted and a symmetry+POR reduction-ratio floor.
//! * loom models (`tests/loom_models.rs`, behind `--features loom`) —
//!   exhaustive interleaving checks for the telemetry observer handle
//!   and the transport reconnect bookkeeping.
//!
//! The conventions the safety argument rests on are held by the
//! compiler, not by text matching: a quorum size is a
//! `twostep_types::Quorum`, which has no arithmetic operators; wildcard
//! arms on enums, `unwrap`/`expect` and `debug_assert!` are clippy
//! lints denied at the protocol crates' roots (`fixtures/clippy_red`
//! proves that gate red). The one text audit left,
//! `tests/source_audit.rs`, confines `Relaxed` atomics to the
//! telemetry statistics.

pub mod api;
pub mod bounds;
pub mod lexer;
pub mod model_check_gate;
