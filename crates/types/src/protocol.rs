//! The event-driven protocol abstraction.
//!
//! Consensus protocols in this workspace are *pure state machines*: they
//! react to events (startup, proposals, messages, timers) by mutating
//! local state and emitting [`Effects`] — messages to send, timers to
//! (re)arm, and decisions. The surrounding engine (the deterministic
//! simulator in `twostep-sim`, the model checker and adversary in
//! `twostep-verify`, or the thread-per-process runtime in
//! `twostep-runtime`) is responsible for executing those effects.
//!
//! This inversion is what makes the reproduction trustworthy: the *same*
//! protocol code is driven through the paper's E-faulty synchronous runs,
//! through exhaustive schedule exploration, and over real TCP sockets.

use std::fmt::Debug;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::relabel::{identity_debug_hash, Relabeling};
use crate::{Duration, ProcessId, Value};

/// Identifies a logical timer within a protocol instance.
///
/// Setting a timer that is already armed *resets* it (the paper's
/// `start_timer(new_ballot_timer, 5Δ)` semantics). Protocols declare
/// their timers as constants, e.g. `TimerId::NEW_BALLOT`.
///
/// The id space is `u64` so that layered protocols can namespace inner
/// instances without aliasing: the SMR replica maps `(slot, inner
/// timer)` pairs into disjoint strides, and a `u32` id would wrap once
/// slots pass 2³⁰ — silently routing one instance's ticks to another.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct TimerId(pub u64);

impl TimerId {
    /// The `new_ballot_timer` of Figure 1 / §C.1: fires
    /// [`INITIAL_BALLOT_DELAY`] (2Δ) after startup, then every
    /// [`BALLOT_RETRY`] (5Δ), prompting the Ω-elected leader to open a
    /// new slow ballot.
    pub const NEW_BALLOT: TimerId = TimerId(0);
    /// Heartbeat broadcast timer of the Ω service ([`crate::Omega`]).
    pub const HEARTBEAT: TimerId = TimerId(1);
    /// Failure-suspicion sweep timer of the Ω service.
    pub const SUSPECT: TimerId = TimerId(2);
}

/// The first [`TimerId::NEW_BALLOT`] delay: "2Δ, giving just enough time
/// for the processes to reach agreement on the fast path" (§C.1).
pub const INITIAL_BALLOT_DELAY: Duration = Duration::deltas(2);
/// Every later [`TimerId::NEW_BALLOT`] delay: "the timer is reset with a
/// delay of 5Δ" (§C.1).
pub const BALLOT_RETRY: Duration = Duration::deltas(5);

/// The effects emitted by one protocol step.
///
/// Effects are a passive buffer: handlers push into it and the engine
/// drains it. Ordering within one step is preserved.
///
/// # Example
///
/// ```rust
/// use twostep_types::protocol::{Effects, TimerId};
/// use twostep_types::{Duration, ProcessId};
///
/// let mut eff: Effects<u64, &'static str> = Effects::new();
/// eff.send(ProcessId::new(1), "hello");
/// eff.broadcast_others("all", 3, ProcessId::new(0));
/// eff.set_timer(TimerId::NEW_BALLOT, Duration::deltas(2));
/// eff.decide(42);
/// assert_eq!(eff.sends.len(), 3);
/// assert_eq!(eff.decisions, vec![42]);
/// ```
#[derive(Debug, Clone)]
pub struct Effects<V, M> {
    /// Point-to-point messages to deliver: `(destination, message)`.
    pub sends: Vec<(ProcessId, M)>,
    /// Timers to (re)arm: `(timer, delay-from-now)`.
    pub timer_sets: Vec<(TimerId, Duration)>,
    /// Timers to cancel.
    pub timer_cancels: Vec<TimerId>,
    /// `decide(v)` events, in order. A correct protocol never emits two
    /// different values here across its lifetime; the verification crate
    /// checks exactly that.
    pub decisions: Vec<V>,
}

impl<V, M> Default for Effects<V, M> {
    fn default() -> Self {
        Effects::new()
    }
}

impl<V, M> Effects<V, M> {
    /// Creates an empty effect buffer.
    pub fn new() -> Self {
        Effects {
            sends: Vec::new(),
            timer_sets: Vec::new(),
            timer_cancels: Vec::new(),
            decisions: Vec::new(),
        }
    }

    /// Queues a point-to-point message.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Queues `msg` to every process except `me` (the paper's
    /// "send … to Π \ {p_i}").
    pub fn broadcast_others(&mut self, msg: M, n: usize, me: ProcessId)
    where
        M: Clone,
    {
        for i in 0..n as u32 {
            let p = ProcessId::new(i);
            if p != me {
                self.sends.push((p, msg.clone()));
            }
        }
    }

    /// Queues `msg` to every process including the sender (the paper's
    /// "send … to Π"; self-delivery is handled by the engine).
    pub fn broadcast_all(&mut self, msg: M, n: usize)
    where
        M: Clone,
    {
        for i in 0..n as u32 {
            self.sends.push((ProcessId::new(i), msg.clone()));
        }
    }

    /// Arms (or re-arms) `timer` to fire after `delay`.
    pub fn set_timer(&mut self, timer: TimerId, delay: Duration) {
        self.timer_sets.push((timer, delay));
    }

    /// Cancels `timer` if armed.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.timer_cancels.push(timer);
    }

    /// Records a `decide(v)` event.
    pub fn decide(&mut self, value: V) {
        self.decisions.push(value);
    }

    /// Whether the step produced no effects at all.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.timer_sets.is_empty()
            && self.timer_cancels.is_empty()
            && self.decisions.is_empty()
    }

    /// Moves all effects out of `self`, leaving it empty.
    pub fn drain(&mut self) -> Effects<V, M> {
        std::mem::take(self)
    }
}

impl<V, M> Effects<V, M>
where
    V: Clone,
    M: Clone,
{
    /// Appends all effects of `other` after the effects of `self`.
    pub fn extend(&mut self, other: Effects<V, M>) {
        self.sends.extend(other.sends);
        self.timer_sets.extend(other.timer_sets);
        self.timer_cancels.extend(other.timer_cancels);
        self.decisions.extend(other.decisions);
    }
}

/// Marker bound for protocol messages.
pub trait Message: Clone + Debug + Send + Serialize + DeserializeOwned + 'static {}
impl<T> Message for T where T: Clone + Debug + Send + Serialize + DeserializeOwned + 'static {}

/// A single-decree consensus protocol instance running at one process.
///
/// Implementations must be deterministic: the next state and effects are
/// a pure function of the current state and the event. All
/// nondeterminism (message interleaving, crashes, timing) lives in the
/// engine, which is what allows exhaustive exploration.
///
/// The two consensus formulations studied by the paper map onto this
/// trait as follows:
///
/// * **task** — the initial value is fixed at construction time and
///   [`Protocol::on_start`] immediately begins the fast path;
/// * **object** — construction takes no value, and an explicit
///   `propose(v)` invocation arrives later (or never) via
///   [`Protocol::on_propose`].
pub trait Protocol<V: Value>: Debug + Send {
    /// The protocol's wire message type.
    type Message: Message;

    /// This process's identity.
    fn id(&self) -> ProcessId;

    /// Invoked once at time 0, before any message delivery.
    fn on_start(&mut self, effects: &mut Effects<V, Self::Message>);

    /// Invoked when a client submits proposal `value` at this process.
    ///
    /// For task-style protocols whose proposal was fixed at construction,
    /// implementations may ignore this event.
    fn on_propose(&mut self, value: V, effects: &mut Effects<V, Self::Message>);

    /// Invoked when `msg` from `from` is delivered.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Message,
        effects: &mut Effects<V, Self::Message>,
    );

    /// Invoked when an armed timer fires.
    fn on_timer(&mut self, timer: TimerId, effects: &mut Effects<V, Self::Message>);

    /// The value this process has decided, if any.
    fn decision(&self) -> Option<V>;

    /// A fingerprint of the local state with every embedded process id
    /// mapped through the relabeling `rl`. The model checker keys a
    /// process by it, and prunes a global state whose key it has seen:
    /// under the identity, equal fingerprints must mean equal behavior.
    ///
    /// **A fingerprint never declines the identity**: under
    /// [`Relabeling::identity`] it is `Some`. Under any other `rl` it may
    /// be `None`, declining that permutation of the checker's
    /// process-symmetry reduction, and it must decline any `rl` that moves
    /// a process its behavior distinguishes (a pinned leader, a ballot
    /// owner, …). The default hashes the `Debug` rendering under the
    /// identity and declines every other `rl`, which is adequate because
    /// all protocol state here is plain data with derived `Debug`.
    fn state_fingerprint_relabeled(&self, rl: &Relabeling) -> Option<u64> {
        identity_debug_hash(self, rl)
    }

    /// Whether delivering `msg` from `from` would be a *permanent*
    /// no-op at this process, used by the model checker's
    /// partial-order reduction to scrub inert mail from the network.
    ///
    /// # Contract
    ///
    /// Returning `true` asserts that [`Protocol::on_message`] for this
    /// `(from, msg)` pair would produce no effects and no
    /// fingerprint-visible state change **now and in every future
    /// state of this process** — not just in the current state.
    /// Protocols establish the "every future state" half through
    /// monotonicity: a ballot too stale to join now can never become
    /// joinable because ballots only grow, a duplicate fast vote stays
    /// a duplicate because vote sets only grow, and so on. A message
    /// that is merely ignored *today* (e.g. a proposal arriving before
    /// Ω stabilizes, when a later state would act on it) must return
    /// `false`.
    ///
    /// The checker prunes the message outright when this returns
    /// `true`, so a wrong `true` silently removes schedules from the
    /// explored space — when in doubt, keep the default.
    fn message_is_noop(&self, from: ProcessId, msg: &Self::Message) -> bool {
        let _ = (from, msg);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_buffering() {
        let mut eff: Effects<u64, u8> = Effects::new();
        assert!(eff.is_empty());
        eff.send(ProcessId::new(1), 7);
        eff.set_timer(TimerId::NEW_BALLOT, Duration::deltas(2));
        eff.cancel_timer(TimerId::HEARTBEAT);
        eff.decide(5);
        assert!(!eff.is_empty());
        assert_eq!(eff.sends, vec![(ProcessId::new(1), 7)]);
        assert_eq!(
            eff.timer_sets,
            vec![(TimerId::NEW_BALLOT, Duration::deltas(2))]
        );
        assert_eq!(eff.timer_cancels, vec![TimerId::HEARTBEAT]);
        assert_eq!(eff.decisions, vec![5]);

        let drained = eff.drain();
        assert!(eff.is_empty());
        assert_eq!(drained.sends.len(), 1);
    }

    #[test]
    fn broadcast_others_excludes_self() {
        let mut eff: Effects<u64, &str> = Effects::new();
        eff.broadcast_others("m", 4, ProcessId::new(2));
        let dests: Vec<u32> = eff.sends.iter().map(|(p, _)| p.as_u32()).collect();
        assert_eq!(dests, vec![0, 1, 3]);
    }

    #[test]
    fn broadcast_all_includes_self() {
        let mut eff: Effects<u64, &str> = Effects::new();
        eff.broadcast_all("m", 3);
        assert_eq!(eff.sends.len(), 3);
    }

    #[test]
    fn extend_preserves_order() {
        let mut a: Effects<u64, u8> = Effects::new();
        a.send(ProcessId::new(0), 1);
        let mut b: Effects<u64, u8> = Effects::new();
        b.send(ProcessId::new(1), 2);
        b.decide(9);
        a.extend(b);
        assert_eq!(
            a.sends,
            vec![(ProcessId::new(0), 1), (ProcessId::new(1), 2)]
        );
        assert_eq!(a.decisions, vec![9]);
    }

    #[test]
    fn timer_ids_are_distinct() {
        assert_ne!(TimerId::NEW_BALLOT, TimerId::HEARTBEAT);
        assert_ne!(TimerId::HEARTBEAT, TimerId::SUSPECT);
    }
}
