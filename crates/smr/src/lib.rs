//! State-machine replication on top of two-step consensus — the paper's
//! motivating application (§1: "widely used in practice for
//! state-machine replication").
//!
//! * [`StateMachine`] — deterministic command application.
//! * [`KvCommand`] / [`KvStore`] — a replicated key-value store.
//! * [`SmrReplica`] — a multi-slot log where every slot is decided by
//!   one [`twostep_core::ObjectConsensus`] instance; clients submit
//!   commands at any replica (their *proxy*), which is exactly the
//!   deployment pattern that motivates the paper's pragmatic e-two-step
//!   definition: the proxy wants its decision fast, other replicas can
//!   learn a step later.
//!
//! The replica implements the same event-driven
//! [`Protocol`](twostep_types::protocol::Protocol) abstraction as the
//! single-decree protocols, so it runs unmodified in the deterministic
//! simulator, the model checker, and the thread/TCP runtime.

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

mod batch;
mod builder;
mod command;
mod replica;

pub use batch::Batch;
pub use builder::SmrReplicaBuilder;
pub use command::{Counter, KvCommand, KvOutput, KvStore, Routable, StateMachine};
pub use replica::{SmrMsg, SmrReplica};
