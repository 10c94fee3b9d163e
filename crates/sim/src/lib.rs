//! Deterministic discrete-event simulator for partially synchronous
//! message-passing protocols.
//!
//! The paper's model (§2) is: `n ≥ 3` crash-prone processes over
//! reliable links; after an unknown global stabilization time (GST)
//! messages take at most `Δ`; events in `[kΔ, (k+1)Δ)` form round `k+1`.
//! Its latency claims are stated in *message delays* — a run is
//! *two-step* for `p` if `p` decides by time `2Δ`. This crate makes that
//! model executable and exactly measurable:
//!
//! * [`Simulation`] — the general engine: virtual clock, deterministic
//!   event queue, pluggable [`DelayModel`]s (synchronous rounds, uniform,
//!   random with seeds, WAN matrices, GST composition), crash injection
//!   at arbitrary times, client proposals, and a structured [`Trace`].
//! * [`SyncRunner`] — builds exactly the paper's *E-faulty synchronous
//!   runs* (Definition 2): processes in `E` crash at the beginning of
//!   the first round, every message sent in round `k` is delivered
//!   precisely at the beginning of round `k+1`, and local computation is
//!   instantaneous. [`RunOutcome::fast_deciders`] is Definition 3 on such
//!   a run, and [`definition_4`] / [`definition_a1`] sweep it over every
//!   failure set: the one executable form of Definitions 4 and A.1, which
//!   E1, E2, the core tests and the paper-claims tests all call.
//! * [`ManualExecutor`] — a message-soup executor with explicit,
//!   step-level control over which message is delivered when; this is
//!   what the model checker and the mechanized lower-bound adversary in
//!   `twostep-verify` are built on. A scripted run is a list of
//!   content-keyed [`Step`]s, and [`ManualExecutor::step`] prints each
//!   as a token of [`schedule`], the grammar `twostep-fuzz --replay`
//!   reads.
//!
//! Determinism: given the same protocol code, configuration, seed and
//! schedule hooks, a simulation replays identically. All randomness is
//! drawn from a caller-seeded [`rand::rngs::StdRng`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod engine;
mod event;
mod manual;
pub mod schedule;
mod seeds;
mod sync;
mod trace;
pub mod wan;

pub use delay::{
    DelayModel, LinkBehavior, Lossy, PartialSynchrony, Partition, RandomDelay, SynchronousRounds,
    UniformDelay, WanMatrix,
};
pub use engine::{DeliveryOrder, RunOutcome, Simulation, SimulationBuilder};
pub use event::EventClass;
pub use manual::{InFlight, ManualExecutor, MsgId, Step};
pub use seeds::test_seeds;
pub use sync::{definition_4, definition_a1, SyncOutcome, SyncRunner, TwoStepReport};
pub use trace::{Trace, TraceEvent};
pub use twostep_telemetry::msg_kind;
