//! The fault-injection protocol wrapper.

use std::marker::PhantomData;

use twostep_telemetry::ObserverHandle;
use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::{Corruptible, ProcessId, SplitMix64, Value};

use crate::behavior::ByzBehavior;

/// A [`Protocol`] adaptor that makes one process Byzantine.
///
/// `ByzProtocol` delegates every event to the wrapped protocol, then
/// perturbs *only the sends that event produced* according to its
/// [`ByzBehavior`]. Timers, decisions, and local state pass through
/// untouched — a Byzantine process here lies on the wire, it does not
/// corrupt the engine.
///
/// Injection sits at the [`Effects`] boundary, so the wrapper runs
/// unmodified under every engine that drives the [`Protocol`] trait:
/// the deterministic simulator, the `ManualExecutor`, the model
/// checker, and the threaded runtime.
///
/// Determinism: the corruption stream is a seeded [`SplitMix64`], and
/// every behavior consumes randomness in a fixed pattern over the
/// (deterministic) send sequence, so `(seed, behavior)` replays the
/// exact same perturbations on every run. Each *actually* mutated or
/// dropped message is reported once via
/// [`fault_injected`](twostep_telemetry::ProtocolObserver::fault_injected)
/// and counted in [`ByzProtocol::injections`].
#[derive(Debug)]
pub struct ByzProtocol<V, P> {
    inner: P,
    behavior: ByzBehavior,
    rng: SplitMix64,
    obs: ObserverHandle,
    injected: u64,
    _value: PhantomData<fn() -> V>,
}

impl<V, P> ByzProtocol<V, P>
where
    V: Value,
    P: Protocol<V>,
    P::Message: Corruptible + PartialEq,
{
    /// Wraps `inner` with `behavior`, corrupting along the `seed`
    /// stream.
    pub fn new(inner: P, behavior: ByzBehavior, seed: u64) -> Self {
        Self::observed(inner, behavior, seed, ObserverHandle::none())
    }

    /// [`ByzProtocol::new`] with telemetry: every real injection is
    /// reported through `observer`.
    pub fn observed(inner: P, behavior: ByzBehavior, seed: u64, observer: ObserverHandle) -> Self {
        ByzProtocol {
            inner,
            behavior,
            rng: SplitMix64::new(seed),
            obs: observer,
            injected: 0,
            _value: PhantomData,
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// This process's behavior.
    pub fn behavior(&self) -> ByzBehavior {
        self.behavior
    }

    /// Messages actually mutated or dropped so far.
    pub fn injections(&self) -> u64 {
        self.injected
    }

    fn record(&mut self, me: ProcessId, behavior: &'static str) {
        self.injected += 1;
        self.obs.fault_injected(me, behavior);
    }

    /// Perturbs the sends appended after `start` by the step that just
    /// ran.
    fn perturb(&mut self, effects: &mut Effects<V, P::Message>, start: usize) {
        let me = self.inner.id();
        match self.behavior {
            ByzBehavior::Honest => {}
            ByzBehavior::Silence => {
                let tail = effects.sends.split_off(start);
                for (to, msg) in tail {
                    if self.rng.chance(1, 2) {
                        self.record(me, "silence");
                    } else {
                        effects.sends.push((to, msg));
                    }
                }
            }
            ByzBehavior::Forge => {
                for i in start..effects.sends.len() {
                    let salt = self.rng.next_u64();
                    if self.rng.chance(1, 2) && effects.sends[i].1.forge_value(salt) {
                        self.record(me, "forge");
                    }
                }
            }
            ByzBehavior::LieBallot => {
                for i in start..effects.sends.len() {
                    let salt = self.rng.next_u64();
                    if self.rng.chance(1, 2) && effects.sends[i].1.lie_ballot(salt) {
                        self.record(me, "lie-ballot");
                    }
                }
            }
            ByzBehavior::Equivocate => {
                // Group the step's sends by message equality, in
                // first-appearance order so grouping is deterministic.
                let mut groups: Vec<Vec<usize>> = Vec::new();
                for i in start..effects.sends.len() {
                    let m = &effects.sends[i].1;
                    match groups.iter_mut().find(|g| effects.sends[g[0]].1 == *m) {
                        Some(idxs) => idxs.push(i),
                        None => groups.push(vec![i]),
                    }
                }
                // Each multi-recipient group is a (logical) broadcast:
                // keep the original for the first half of the
                // recipients and send one consistently forged value to
                // the rest — conflicting votes to disjoint sets.
                for idxs in groups {
                    if idxs.len() < 2 {
                        continue;
                    }
                    let salt = self.rng.next_u64();
                    for &i in &idxs[idxs.len() / 2..] {
                        if effects.sends[i].1.forge_value(salt) {
                            self.record(me, "equivocate");
                        }
                    }
                }
            }
        }
    }
}

impl<V, P> Protocol<V> for ByzProtocol<V, P>
where
    V: Value,
    P: Protocol<V>,
    P::Message: Corruptible + PartialEq,
{
    type Message = P::Message;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, effects: &mut Effects<V, Self::Message>) {
        let start = effects.sends.len();
        self.inner.on_start(effects);
        self.perturb(effects, start);
    }

    fn on_propose(&mut self, value: V, effects: &mut Effects<V, Self::Message>) {
        let start = effects.sends.len();
        self.inner.on_propose(value, effects);
        self.perturb(effects, start);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Message,
        effects: &mut Effects<V, Self::Message>,
    ) {
        let start = effects.sends.len();
        self.inner.on_message(from, msg, effects);
        self.perturb(effects, start);
    }

    fn on_timer(&mut self, timer: TimerId, effects: &mut Effects<V, Self::Message>) {
        let start = effects.sends.len();
        self.inner.on_timer(timer, effects);
        self.perturb(effects, start);
    }

    fn decision(&self) -> Option<V> {
        self.inner.decision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use twostep_telemetry::Metrics;

    /// A minimal broadcaster: proposes by broadcasting its value,
    /// decides on the first message it hears.
    #[derive(Debug)]
    struct Voter {
        me: ProcessId,
        n: usize,
        decided: Option<u64>,
    }

    impl Voter {
        fn new(me: u32, n: usize) -> Self {
            Voter {
                me: ProcessId::new(me),
                n,
                decided: None,
            }
        }
    }

    impl Protocol<u64> for Voter {
        type Message = u64;

        fn id(&self) -> ProcessId {
            self.me
        }

        fn on_start(&mut self, _effects: &mut Effects<u64, u64>) {}

        fn on_propose(&mut self, value: u64, effects: &mut Effects<u64, u64>) {
            effects.broadcast_others(value, self.n, self.me);
        }

        fn on_message(&mut self, _from: ProcessId, msg: u64, effects: &mut Effects<u64, u64>) {
            if self.decided.is_none() {
                self.decided = Some(msg);
                effects.decide(msg);
            }
        }

        fn on_timer(&mut self, _timer: TimerId, _effects: &mut Effects<u64, u64>) {}

        fn decision(&self) -> Option<u64> {
            self.decided
        }
    }

    fn sends_of(p: &mut dyn Protocol<u64, Message = u64>, value: u64) -> Vec<(ProcessId, u64)> {
        let mut eff = Effects::new();
        p.on_propose(value, &mut eff);
        eff.sends
    }

    #[test]
    fn honest_wrapper_is_a_perfect_passthrough() {
        let mut raw = Voter::new(0, 6);
        let mut wrapped = ByzProtocol::new(Voter::new(0, 6), ByzBehavior::Honest, 42);
        assert_eq!(sends_of(&mut raw, 7), sends_of(&mut wrapped, 7));
        assert_eq!(wrapped.injections(), 0);
        // Decisions pass through too.
        let mut eff = Effects::new();
        wrapped.on_message(ProcessId::new(1), 9, &mut eff);
        assert_eq!(eff.decisions, vec![9]);
        assert_eq!(wrapped.decision(), Some(9));
    }

    #[test]
    fn equivocation_splits_a_broadcast_into_conflicting_halves() {
        let mut wrapped = ByzProtocol::new(Voter::new(0, 7), ByzBehavior::Equivocate, 42);
        let sends = sends_of(&mut wrapped, 5);
        assert_eq!(sends.len(), 6, "equivocation never drops messages");
        let originals: Vec<_> = sends.iter().filter(|(_, m)| *m == 5).collect();
        let forged: Vec<_> = sends.iter().filter(|(_, m)| *m != 5).collect();
        assert_eq!(originals.len(), 3);
        assert_eq!(forged.len(), 3);
        // All forged copies carry the SAME conflicting value (it is an
        // equivocation, not random noise), to disjoint recipients.
        assert!(forged.windows(2).all(|w| w[0].1 == w[1].1));
        let mut recipients: Vec<u32> = sends.iter().map(|(p, _)| p.as_u32()).collect();
        recipients.sort_unstable();
        recipients.dedup();
        assert_eq!(recipients.len(), 6, "recipient sets are disjoint");
        assert_eq!(wrapped.injections(), 3);
    }

    #[test]
    fn silence_drops_only_some_messages() {
        let mut wrapped = ByzProtocol::new(Voter::new(0, 12), ByzBehavior::Silence, 42);
        let sends = sends_of(&mut wrapped, 5);
        assert!(sends.len() < 11, "some messages must be dropped");
        assert!(!sends.is_empty(), "silence is selective, not a crash");
        assert!(sends.iter().all(|(_, m)| *m == 5), "silence never forges");
        assert_eq!(wrapped.injections() as usize, 11 - sends.len());
    }

    #[test]
    fn forgery_mutates_some_messages_and_counts_them() {
        let mut wrapped = ByzProtocol::new(Voter::new(0, 12), ByzBehavior::Forge, 42);
        let sends = sends_of(&mut wrapped, 5);
        assert_eq!(sends.len(), 11, "forgery never drops messages");
        let forged = sends.iter().filter(|(_, m)| *m != 5).count();
        assert!(forged > 0);
        assert!(forged < 11, "forgery is probabilistic, not total");
        assert_eq!(wrapped.injections() as usize, forged);
    }

    #[test]
    fn lie_ballot_is_inert_on_ballotless_messages() {
        // u64 messages carry no ballot, so the injector must leave them
        // untouched and count nothing.
        let mut wrapped = ByzProtocol::new(Voter::new(0, 8), ByzBehavior::LieBallot, 42);
        let sends = sends_of(&mut wrapped, 5);
        assert!(sends.iter().all(|(_, m)| *m == 5));
        assert_eq!(wrapped.injections(), 0);
    }

    #[test]
    fn same_seed_replays_the_same_perturbations() {
        for behavior in ByzBehavior::ALL {
            let mut a = ByzProtocol::new(Voter::new(0, 9), behavior, 1234);
            let mut b = ByzProtocol::new(Voter::new(0, 9), behavior, 1234);
            for round in 0..8u64 {
                assert_eq!(
                    sends_of(&mut a, round),
                    sends_of(&mut b, round),
                    "{behavior}: streams diverged"
                );
            }
            assert_eq!(a.injections(), b.injections());
        }
    }

    #[test]
    fn perturbation_touches_only_the_current_step() {
        // Pre-existing sends in the effects buffer (from an earlier
        // protocol layered on the same buffer) must not be perturbed.
        let mut wrapped = ByzProtocol::new(Voter::new(0, 6), ByzBehavior::Forge, 3);
        let mut eff = Effects::new();
        eff.send(ProcessId::new(9), 777);
        wrapped.on_propose(5, &mut eff);
        assert_eq!(eff.sends[0], (ProcessId::new(9), 777));
    }

    #[test]
    fn injections_flow_into_telemetry_counters() {
        let (metrics, handle) = Metrics::shared();
        let mut wrapped =
            ByzProtocol::observed(Voter::new(2, 10), ByzBehavior::Equivocate, 42, handle);
        let _ = sends_of(&mut wrapped, 5);
        let snap = metrics.snapshot();
        assert_eq!(snap.injections("equivocate"), wrapped.injections());
        assert!(snap.total_injections() > 0);
        let arc: Arc<Metrics> = metrics;
        assert!(arc
            .render_text()
            .contains("twostep_fault_injections_total{behavior=\"equivocate\"}"));
    }
}
