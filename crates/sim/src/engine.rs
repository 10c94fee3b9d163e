//! The discrete-event simulation engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use twostep_telemetry::{msg_kind, ObserverHandle};
use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::{judge, Duration, ProcessId, ProcessSet, SystemConfig, Time, Value};

use crate::delay::{DelayModel, LinkBehavior};
use crate::event::{EventKind, QueuedEvent};
use crate::trace::{Trace, TraceEvent};

/// Policy deciding the relative order of messages delivered at the same
/// virtual time.
///
/// The paper's definitions quantify existentially over runs ("there
/// exists an E-faulty synchronous run …"); delivery order is the main
/// remaining degree of freedom in a synchronous run, so experiments pick
/// the order that witnesses the claim, and stress tests randomize it.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // StdRng is big; DeliveryOrder is held once per simulation
pub enum DeliveryOrder {
    /// First-sent, first-delivered (deterministic default).
    SendOrder,
    /// Messages from the given process are delivered before any other
    /// message arriving at the same time.
    Favor(ProcessId),
    /// Uniformly random order, deterministic for the seed.
    Randomized(StdRng),
}

impl DeliveryOrder {
    /// Randomized ordering with the given seed.
    pub fn randomized(seed: u64) -> Self {
        DeliveryOrder::Randomized(StdRng::seed_from_u64(seed))
    }

    fn key(&mut self, from: ProcessId) -> u64 {
        match self {
            DeliveryOrder::SendOrder => 0,
            DeliveryOrder::Favor(p) => {
                if from == *p {
                    0
                } else {
                    1 + u64::from(from.as_u32())
                }
            }
            DeliveryOrder::Randomized(rng) => rng.gen(),
        }
    }
}

/// Builder for a [`Simulation`].
///
/// # Example
///
/// ```rust
/// use twostep_sim::{SimulationBuilder, SynchronousRounds};
/// use twostep_types::{SystemConfig, Time, Duration, ProcessId};
/// # use twostep_types::protocol::{Effects, Protocol, TimerId};
/// # #[derive(Debug, Clone)] struct Noop(ProcessId);
/// # impl Protocol<u64> for Noop {
/// #     type Message = u8;
/// #     fn id(&self) -> ProcessId { self.0 }
/// #     fn on_start(&mut self, _: &mut Effects<u64, u8>) {}
/// #     fn on_propose(&mut self, _: u64, _: &mut Effects<u64, u8>) {}
/// #     fn on_message(&mut self, _: ProcessId, _: u8, _: &mut Effects<u64, u8>) {}
/// #     fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, u8>) {}
/// #     fn decision(&self) -> Option<u64> { None }
/// # }
///
/// let cfg = SystemConfig::for_protocol(twostep_types::ProtocolKind::TaskTwoStep, 3, 1, 1)?;
/// let outcome = SimulationBuilder::new(cfg)
///     .delay_model(SynchronousRounds)
///     .crash_at(ProcessId::new(2), Time::ZERO)
///     .build(|p| Noop(p))
///     .run(Time::ZERO + Duration::deltas(10));
/// assert!(outcome.crashed.contains(ProcessId::new(2)));
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
pub struct SimulationBuilder {
    cfg: SystemConfig,
    delay_model: Box<dyn DelayModel>,
    order: DeliveryOrder,
    crashes: Vec<(ProcessId, Time)>,
    restarts: Vec<(ProcessId, Time)>,
    obs: ObserverHandle,
}

impl SimulationBuilder {
    /// Starts building a simulation over `cfg`, defaulting to
    /// [`crate::SynchronousRounds`] delays and send-order delivery.
    pub fn new(cfg: SystemConfig) -> Self {
        SimulationBuilder {
            cfg,
            delay_model: Box::new(crate::SynchronousRounds),
            order: DeliveryOrder::SendOrder,
            crashes: Vec::new(),
            restarts: Vec::new(),
            obs: ObserverHandle::none(),
        }
    }

    /// Attaches telemetry hooks to the *engine*: decision latencies (in
    /// virtual time units, so `2Δ = 2000`) and partition/link message
    /// drops are reported to `obs`. Protocol-level events (paths,
    /// recovery cases, …) are reported by the protocol instances
    /// themselves — pass the same handle to their `observed` builders.
    pub fn observed(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the network delay model.
    pub fn delay_model(mut self, model: impl DelayModel + 'static) -> Self {
        self.delay_model = Box::new(model);
        self
    }

    /// Sets the same-time delivery ordering policy.
    pub fn delivery_order(mut self, order: DeliveryOrder) -> Self {
        self.order = order;
        self
    }

    /// Schedules `p` to crash at `time` (before taking any step at that
    /// time).
    pub fn crash_at(mut self, p: ProcessId, time: Time) -> Self {
        self.crashes.push((p, time));
        self
    }

    /// Schedules `p` to restart at `time` with its pre-crash protocol
    /// state intact. A restart of a process that is not crashed at
    /// `time` is a no-op.
    pub fn restart_at(mut self, p: ProcessId, time: Time) -> Self {
        self.restarts.push((p, time));
        self
    }

    /// Finishes the builder, constructing each process with `make`.
    pub fn build<V, P, F>(self, make: F) -> Simulation<V, P>
    where
        V: Value,
        P: Protocol<V>,
        F: FnMut(ProcessId) -> P,
    {
        let mut sim = Simulation::new(self.cfg, make, self.delay_model, self.order);
        sim.observe(self.obs);
        for (p, t) in self.crashes {
            sim.schedule_crash(p, t);
        }
        for (p, t) in self.restarts {
            sim.schedule_restart(p, t);
        }
        sim
    }
}

/// A deterministic discrete-event simulation of `n` protocol instances.
pub struct Simulation<V: Value, P: Protocol<V>> {
    cfg: SystemConfig,
    procs: Vec<P>,
    alive: ProcessSet,
    now: Time,
    queue: BinaryHeap<Reverse<QueuedEvent<V, P::Message>>>,
    seq: u64,
    // Per process: armed timers, each with the generation that guards
    // against stale queued expirations and the delay it was set with
    // (needed to re-arm after a crash-restart).
    timers: Vec<HashMap<TimerId, (u64, Duration)>>,
    timer_generation: u64,
    delay_model: Box<dyn DelayModel>,
    order: DeliveryOrder,
    trace: Trace<V>,
    decisions: Vec<Option<(V, Time)>>,
    events_executed: u64,
    obs: ObserverHandle,
}

impl<V: Value, P: Protocol<V>> Simulation<V, P> {
    /// Creates a simulation; every process's `on_start` is scheduled at
    /// time 0.
    pub fn new<F>(
        cfg: SystemConfig,
        mut make: F,
        delay_model: Box<dyn DelayModel>,
        order: DeliveryOrder,
    ) -> Self
    where
        F: FnMut(ProcessId) -> P,
    {
        let n = cfg.n();
        let procs: Vec<P> = (0..n as u32).map(|i| make(ProcessId::new(i))).collect();
        let mut sim = Simulation {
            cfg,
            procs,
            alive: ProcessSet::full(n),
            now: Time::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            timers: vec![HashMap::new(); n],
            timer_generation: 0,
            delay_model,
            order,
            trace: Trace::new(),
            decisions: vec![None; n],
            events_executed: 0,
            obs: ObserverHandle::none(),
        };
        for i in 0..n as u32 {
            let p = ProcessId::new(i);
            sim.enqueue(Time::ZERO, 0, EventKind::Start(p));
        }
        sim
    }

    /// The system configuration.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// Attaches telemetry hooks; see [`SimulationBuilder::observed`].
    pub fn observe(&mut self, obs: ObserverHandle) {
        self.obs = obs;
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Processes still alive.
    pub fn alive(&self) -> ProcessSet {
        self.alive
    }

    /// Read access to a protocol instance (e.g. for assertions).
    pub fn process(&self, p: ProcessId) -> &P {
        &self.procs[p.index()]
    }

    /// The decisions made so far: `decision[i]` is `Some((v, t))` once
    /// `p_i` first decided `v` at time `t`.
    pub fn decisions(&self) -> &[Option<(V, Time)>] {
        &self.decisions
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace<V> {
        &self.trace
    }

    /// Schedules `p` to crash at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn schedule_crash(&mut self, p: ProcessId, time: Time) {
        assert!(time >= self.now, "cannot schedule a crash in the past");
        self.enqueue(time, 0, EventKind::Crash(p));
    }

    /// Schedules `p` to restart at `time`. The process rejoins with the
    /// protocol state it had when it crashed; timers that were armed at
    /// the crash are re-armed with their full original delay measured
    /// from the restart. Restarting a process that is alive at `time`
    /// is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn schedule_restart(&mut self, p: ProcessId, time: Time) {
        assert!(time >= self.now, "cannot schedule a restart in the past");
        self.enqueue(time, 0, EventKind::Restart(p));
    }

    /// Schedules a client proposal of `value` at process `p` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn schedule_propose(&mut self, p: ProcessId, value: V, time: Time) {
        assert!(time >= self.now, "cannot schedule a proposal in the past");
        self.enqueue(time, 0, EventKind::Propose(p, value));
    }

    fn enqueue(&mut self, time: Time, order_key: u64, kind: EventKind<V, P::Message>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent {
            time,
            order_key,
            seq,
            kind,
        }));
    }

    /// Executes the next event, if any; returns whether one was executed.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "event queue went backwards");
        self.now = event.time;
        self.events_executed += 1;
        match event.kind {
            EventKind::Crash(p) => {
                if self.alive.remove(p) {
                    self.trace.push(TraceEvent::Crashed {
                        time: self.now,
                        process: p,
                    });
                }
            }
            EventKind::Restart(p) => {
                if self.alive.insert(p) {
                    self.trace.push(TraceEvent::Restarted {
                        time: self.now,
                        process: p,
                    });
                    // Timers armed at crash time re-arm with their full
                    // original delay from now. Expirations consumed while
                    // the process was down kept their map entry, so
                    // re-enqueueing under the same generation either
                    // fires exactly once or is superseded by the
                    // original event if that has not popped yet.
                    let rearm: Vec<(TimerId, u64, Duration)> = self.timers[p.index()]
                        .iter()
                        .map(|(&timer, &(generation, delay))| (timer, generation, delay))
                        .collect();
                    for (timer, generation, delay) in rearm {
                        self.enqueue(
                            self.now + delay,
                            0,
                            EventKind::Timer {
                                at: p,
                                timer,
                                generation,
                            },
                        );
                    }
                }
            }
            EventKind::Start(p) => {
                if self.alive.contains(p) {
                    let mut eff = Effects::new();
                    self.procs[p.index()].on_start(&mut eff);
                    self.apply_effects(p, eff);
                }
            }
            EventKind::Propose(p, v) => {
                if self.alive.contains(p) {
                    self.trace.push(TraceEvent::Proposed {
                        time: self.now,
                        process: p,
                        value: v.clone(),
                    });
                    let mut eff = Effects::new();
                    self.procs[p.index()].on_propose(v, &mut eff);
                    self.apply_effects(p, eff);
                }
            }
            EventKind::Deliver { from, to, msg } => {
                if self.alive.contains(to) {
                    self.trace.push(TraceEvent::MessageDelivered {
                        time: self.now,
                        from,
                        to,
                        kind: msg_kind(&msg),
                    });
                    let mut eff = Effects::new();
                    self.procs[to.index()].on_message(from, msg, &mut eff);
                    self.apply_effects(to, eff);
                }
            }
            EventKind::Timer {
                at,
                timer,
                generation,
            } => {
                let armed =
                    self.timers[at.index()].get(&timer).map(|&(g, _)| g) == Some(generation);
                if armed && self.alive.contains(at) {
                    self.timers[at.index()].remove(&timer);
                    self.trace.push(TraceEvent::TimerFired {
                        time: self.now,
                        process: at,
                        timer,
                    });
                    let mut eff = Effects::new();
                    self.procs[at.index()].on_timer(timer, &mut eff);
                    self.apply_effects(at, eff);
                }
            }
        }
        true
    }

    fn apply_effects(&mut self, p: ProcessId, eff: Effects<V, P::Message>) {
        for v in eff.decisions {
            self.trace.push(TraceEvent::Decided {
                time: self.now,
                process: p,
                value: v.clone(),
            });
            if self.decisions[p.index()].is_none() {
                // Latency in virtual time units since time 0 (2Δ = 2000).
                self.obs.decision_latency(p, self.now.units());
                self.decisions[p.index()] = Some((v, self.now));
            }
        }
        for (to, msg) in eff.sends {
            self.trace.push(TraceEvent::MessageSent {
                time: self.now,
                from: p,
                to,
                kind: msg_kind(&msg),
            });
            // Self-addressed messages go through the delay model like any
            // other message: in the paper's round model a process's
            // message to itself arrives next round, and the existential
            // two-step runs of e.g. Fast Paxos rely on self-deliveries
            // being ordered alongside peers' messages.
            match self.delay_model.delay(p, to, self.now) {
                LinkBehavior::Drop => {
                    self.obs.message_dropped(p, to);
                    self.trace.push(TraceEvent::MessageDropped {
                        time: self.now,
                        from: p,
                        to,
                        kind: msg_kind(&msg),
                    });
                }
                LinkBehavior::Deliver(d) => {
                    let key = self.order.key(p);
                    self.enqueue(self.now + d, key, EventKind::Deliver { from: p, to, msg });
                }
            }
        }
        for (timer, delay) in eff.timer_sets {
            self.timer_generation += 1;
            let generation = self.timer_generation;
            self.timers[p.index()].insert(timer, (generation, delay));
            self.enqueue(
                self.now + delay,
                0,
                EventKind::Timer {
                    at: p,
                    timer,
                    generation,
                },
            );
        }
        for timer in eff.timer_cancels {
            self.timers[p.index()].remove(&timer);
        }
    }

    /// Runs until the queue is exhausted or virtual time would exceed
    /// `limit`, then returns the outcome.
    pub fn run(self, limit: Time) -> RunOutcome<V, P> {
        self.run_until(limit, |_| false)
    }

    /// Runs until the queue is exhausted, virtual time would exceed
    /// `limit`, or `stop` returns true (checked after each event).
    pub fn run_until<F>(mut self, limit: Time, mut stop: F) -> RunOutcome<V, P>
    where
        F: FnMut(&Self) -> bool,
    {
        loop {
            match self.queue.peek() {
                None => break,
                Some(Reverse(e)) if e.time > limit => break,
                Some(_) => {}
            }
            self.step();
            if stop(&self) {
                break;
            }
        }
        self.finish()
    }

    /// Runs until every live process has decided (or `limit`/quiescence).
    pub fn run_until_all_decided(self, limit: Time) -> RunOutcome<V, P> {
        self.run_until(limit, |sim| {
            sim.alive.iter().all(|p| sim.decisions[p.index()].is_some())
        })
    }

    fn finish(self) -> RunOutcome<V, P> {
        RunOutcome {
            cfg: self.cfg,
            decisions: self.decisions,
            crashed: self.alive.complement(self.cfg.n()),
            trace: self.trace,
            end_time: self.now,
            events_executed: self.events_executed,
            procs: self.procs,
        }
    }
}

/// The result of a completed simulation run.
#[derive(Debug)]
pub struct RunOutcome<V: Value, P> {
    /// The configuration that was simulated.
    pub cfg: SystemConfig,
    /// `decisions[i]` is `Some((v, t))` if `p_i` first decided `v` at `t`.
    pub decisions: Vec<Option<(V, Time)>>,
    /// Processes that crashed during the run.
    pub crashed: ProcessSet,
    /// Full event trace.
    pub trace: Trace<V>,
    /// Virtual time when the run stopped.
    pub end_time: Time,
    /// Number of events executed.
    pub events_executed: u64,
    /// The final protocol states (for white-box assertions).
    pub procs: Vec<P>,
}

impl<V: Value, P> RunOutcome<V, P> {
    /// The decision of `p`, if it decided.
    pub fn decision_of(&self, p: ProcessId) -> Option<&V> {
        self.decisions[p.index()].as_ref().map(|(v, _)| v)
    }

    /// The time at which `p` first decided.
    pub fn decision_time_of(&self, p: ProcessId) -> Option<Time> {
        self.decisions[p.index()].as_ref().map(|(_, t)| *t)
    }

    /// The distinct values among the processes' first decisions.
    pub fn decided_values(&self) -> Vec<&V> {
        let mut vals: Vec<&V> = self.decisions.iter().flatten().map(|(v, _)| v).collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// Whether Agreement holds over *every* decide event in the trace,
    /// re-decisions included: the paper's Agreement is uniform, and a
    /// conflicting re-decision is recorded only there.
    pub fn agreement(&self) -> bool {
        judge::agreement(&self.trace.decide_log()).is_ok()
    }

    /// Whether every process outside `crashed` decided.
    pub fn all_correct_decided(&self) -> bool {
        self.crashed
            .complement(self.cfg.n())
            .iter()
            .all(|p| self.decisions[p.index()].is_some())
    }

    /// Processes whose run was *two-step* (Definition 3: decided by `2Δ`),
    /// with the single decided value among them if any.
    pub fn fast_deciders(&self) -> (ProcessSet, Option<V>)
    where
        V: Clone,
    {
        let deadline = Time::ZERO + Duration::deltas(2);
        let mut set = ProcessSet::new();
        let mut value = None;
        for (i, d) in self.decisions.iter().enumerate() {
            if let Some((v, t)) = d {
                if *t <= deadline {
                    set.insert(ProcessId::new(i as u32));
                    value.get_or_insert_with(|| v.clone());
                }
            }
        }
        (set, value)
    }

    /// Latency (time from 0) of `p`'s decision, in `Δ` units.
    pub fn latency_in_deltas(&self, p: ProcessId) -> Option<f64> {
        self.decision_time_of(p).map(|t| t.as_deltas())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    use crate::{Partition, SynchronousRounds};

    /// A trivial flooding protocol used to exercise the engine: every
    /// process broadcasts its value at start and decides the max of all
    /// values seen once it has heard from everyone alive... simplified:
    /// decides its own value on a timer.
    #[derive(Debug, Clone)]
    struct Flood {
        me: ProcessId,
        n: usize,
        value: u64,
        best: u64,
        heard: ProcessSet,
        decided: Option<u64>,
    }

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Share(u64);

    const DECIDE_TIMER: TimerId = TimerId(10);

    impl Protocol<u64> for Flood {
        type Message = Share;

        fn id(&self) -> ProcessId {
            self.me
        }

        fn on_start(&mut self, eff: &mut Effects<u64, Share>) {
            self.best = self.value;
            self.heard.insert(self.me);
            eff.broadcast_others(Share(self.value), self.n, self.me);
            eff.set_timer(DECIDE_TIMER, Duration::deltas(2));
        }

        fn on_propose(&mut self, _value: u64, _eff: &mut Effects<u64, Share>) {}

        fn on_message(&mut self, from: ProcessId, msg: Share, eff: &mut Effects<u64, Share>) {
            self.heard.insert(from);
            self.best = self.best.max(msg.0);
            if self.heard.len() == self.n && self.decided.is_none() {
                self.decided = Some(self.best);
                eff.decide(self.best);
            }
        }

        fn on_timer(&mut self, timer: TimerId, eff: &mut Effects<u64, Share>) {
            if timer == DECIDE_TIMER && self.decided.is_none() {
                self.decided = Some(self.best);
                eff.decide(self.best);
            }
        }

        fn decision(&self) -> Option<u64> {
            self.decided
        }
    }

    fn flood(cfg: SystemConfig) -> impl FnMut(ProcessId) -> Flood {
        move |p| Flood {
            me: p,
            n: cfg.n(),
            value: 10 * (u64::from(p.as_u32()) + 1),
            best: 0,
            heard: ProcessSet::new(),
            decided: None,
        }
    }

    fn cfg3() -> SystemConfig {
        SystemConfig::new(3, 1, 1).unwrap()
    }

    #[test]
    fn all_correct_flood_decides_max_in_one_round() {
        let cfg = cfg3();
        let outcome = SimulationBuilder::new(cfg)
            .build(flood(cfg))
            .run(Time::ZERO + Duration::deltas(5));
        assert!(outcome.all_correct_decided());
        assert!(outcome.agreement());
        assert_eq!(outcome.decision_of(ProcessId::new(0)), Some(&30));
        // Shares sent at t=0 arrive at Δ; everyone decides at Δ.
        assert_eq!(
            outcome.decision_time_of(ProcessId::new(1)),
            Some(Time::ZERO + Duration::deltas(1))
        );
        let (fast, v) = outcome.fast_deciders();
        assert_eq!(fast.len(), 3);
        assert_eq!(v, Some(30));
    }

    #[test]
    fn crashed_process_takes_no_steps() {
        let cfg = cfg3();
        let p2 = ProcessId::new(2);
        let outcome = SimulationBuilder::new(cfg)
            .crash_at(p2, Time::ZERO)
            .build(flood(cfg))
            .run(Time::ZERO + Duration::deltas(5));
        // p2 crashed before start: its Share was never sent; the others
        // fall back to the 2Δ timer and decide max(10, 20) = 20.
        assert_eq!(outcome.decision_of(p2), None);
        assert_eq!(outcome.decision_of(ProcessId::new(0)), Some(&20));
        assert_eq!(outcome.decision_of(ProcessId::new(1)), Some(&20));
        assert!(outcome.crashed.contains(p2));
        assert_eq!(outcome.trace.crashes().len(), 1);
        // p2 sent nothing.
        assert_eq!(outcome.trace.messages_sent(), 4); // 2 procs × 2 peers
    }

    #[test]
    fn late_crash_after_send_still_delivers() {
        let cfg = cfg3();
        let p2 = ProcessId::new(2);
        let mid_round = Time::from_units(1);
        let outcome = SimulationBuilder::new(cfg)
            .crash_at(p2, mid_round)
            .build(flood(cfg))
            .run(Time::ZERO + Duration::deltas(5));
        // p2 started (t=0) and sent Share(30) before crashing at t=1:
        // messages already in flight are delivered.
        assert_eq!(outcome.decision_of(ProcessId::new(0)), Some(&30));
        assert_eq!(outcome.decision_of(p2), None);
    }

    #[test]
    fn partition_drops_cross_group_sends() {
        let cfg = cfg3();
        let majority: ProcessSet = [ProcessId::new(0), ProcessId::new(1)].into_iter().collect();
        let minority: ProcessSet = [ProcessId::new(2)].into_iter().collect();
        let outcome = SimulationBuilder::new(cfg)
            .delay_model(Partition::new(SynchronousRounds, vec![majority, minority]))
            .build(flood(cfg))
            .run(Time::ZERO + Duration::deltas(5));
        // The four cross-cut shares (p0↔p2, p1↔p2) are dropped; everyone
        // falls back to the 2Δ timer and decides the best value heard on
        // their own side of the cut.
        assert_eq!(outcome.trace.messages_dropped(), 4);
        assert_eq!(outcome.decision_of(ProcessId::new(0)), Some(&20));
        assert_eq!(outcome.decision_of(ProcessId::new(1)), Some(&20));
        assert_eq!(outcome.decision_of(ProcessId::new(2)), Some(&30));
        assert!(!outcome.agreement(), "a split brain diverges under Flood");
    }

    #[test]
    fn heal_restores_connectivity_for_later_sends() {
        // p0 sends to p2 at start (cut) and retries on a 3Δ timer
        // (after the heal at 2Δ): the retry must get through.
        #[derive(Debug)]
        struct Retry {
            me: ProcessId,
            decided: Option<u64>,
        }
        impl Protocol<u64> for Retry {
            type Message = Share;
            fn id(&self) -> ProcessId {
                self.me
            }
            fn on_start(&mut self, eff: &mut Effects<u64, Share>) {
                if self.me == ProcessId::new(0) {
                    eff.send(ProcessId::new(2), Share(7));
                    eff.set_timer(TimerId(0), Duration::deltas(3));
                }
            }
            fn on_propose(&mut self, _: u64, _: &mut Effects<u64, Share>) {}
            fn on_message(&mut self, _: ProcessId, m: Share, eff: &mut Effects<u64, Share>) {
                if self.decided.is_none() {
                    self.decided = Some(m.0);
                    eff.decide(m.0);
                }
            }
            fn on_timer(&mut self, _: TimerId, eff: &mut Effects<u64, Share>) {
                eff.send(ProcessId::new(2), Share(7));
            }
            fn decision(&self) -> Option<u64> {
                self.decided
            }
        }

        let cfg = cfg3();
        let majority: ProcessSet = [ProcessId::new(0), ProcessId::new(1)].into_iter().collect();
        let minority: ProcessSet = [ProcessId::new(2)].into_iter().collect();
        let outcome = SimulationBuilder::new(cfg)
            .delay_model(
                Partition::new(SynchronousRounds, vec![majority, minority])
                    .heal_after(Time::ZERO + Duration::deltas(2)),
            )
            .build(|p| Retry {
                me: p,
                decided: None,
            })
            .run(Time::ZERO + Duration::deltas(8));
        assert_eq!(
            outcome.trace.messages_dropped(),
            1,
            "only the pre-heal send is cut"
        );
        // Retry sent at 3Δ lands on the next round boundary, 4Δ.
        assert_eq!(outcome.decision_of(ProcessId::new(2)), Some(&7));
        assert_eq!(
            outcome.decision_time_of(ProcessId::new(2)),
            Some(Time::ZERO + Duration::deltas(4))
        );
    }

    #[test]
    fn restart_rejoins_and_rearms_timers() {
        let cfg = cfg3();
        let p2 = ProcessId::new(2);
        let outcome = SimulationBuilder::new(cfg)
            .crash_at(p2, Time::from_units(1))
            .restart_at(p2, Time::ZERO + Duration::deltas(3))
            .build(flood(cfg))
            .run(Time::ZERO + Duration::deltas(8));
        // p2 started and broadcast Share(30) before crashing at t=1, so
        // p0/p1 decide 30 when all shares arrive at Δ.
        assert_eq!(outcome.decision_of(ProcessId::new(0)), Some(&30));
        // The shares addressed to p2 arrived at Δ while it was down and
        // were lost; its 2Δ decide timer expired unnoticed at 2Δ. After
        // the restart at 3Δ the timer re-arms with its full 2Δ delay and
        // fires at 5Δ, deciding p2's own best value.
        assert_eq!(outcome.decision_of(p2), Some(&30));
        assert_eq!(
            outcome.decision_time_of(p2),
            Some(Time::ZERO + Duration::deltas(5))
        );
        assert!(outcome.agreement());
        // A restarted process is not counted as crashed at the end.
        assert!(outcome.crashed.is_empty());
        assert!(outcome
            .trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Restarted { process, .. } if *process == p2)));
    }

    #[test]
    fn restart_of_alive_process_is_noop() {
        let cfg = cfg3();
        let outcome = SimulationBuilder::new(cfg)
            .restart_at(ProcessId::new(1), Time::from_units(1))
            .build(flood(cfg))
            .run(Time::ZERO + Duration::deltas(5));
        assert!(outcome
            .trace
            .events()
            .iter()
            .all(|e| !matches!(e, TraceEvent::Restarted { .. })));
        assert!(outcome.agreement());
    }

    #[test]
    fn timer_reset_supersedes_old_deadline() {
        // A protocol that re-arms its timer at startup; the timer must
        // fire only at the final deadline.
        #[derive(Debug)]
        struct Resetter2 {
            me: ProcessId,
            decided: Option<u64>,
        }
        impl Protocol<u64> for Resetter2 {
            type Message = Share;
            fn id(&self) -> ProcessId {
                self.me
            }
            fn on_start(&mut self, eff: &mut Effects<u64, Share>) {
                eff.set_timer(TimerId(0), Duration::deltas(1));
                eff.set_timer(TimerId(0), Duration::deltas(3));
            }
            fn on_propose(&mut self, _: u64, _: &mut Effects<u64, Share>) {}
            fn on_message(&mut self, _: ProcessId, _: Share, _: &mut Effects<u64, Share>) {}
            fn on_timer(&mut self, _: TimerId, eff: &mut Effects<u64, Share>) {
                self.decided = Some(1);
                eff.decide(1);
            }
            fn decision(&self) -> Option<u64> {
                self.decided
            }
        }

        let cfg = cfg3();
        let outcome = SimulationBuilder::new(cfg)
            .build(|p| Resetter2 {
                me: p,
                decided: None,
            })
            .run(Time::ZERO + Duration::deltas(10));
        // One firing per process, at 3Δ (the reset deadline), not 1Δ.
        for i in 0..3 {
            assert_eq!(
                outcome.decision_time_of(ProcessId::new(i)),
                Some(Time::ZERO + Duration::deltas(3))
            );
        }
        let firings = outcome
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::TimerFired { .. }))
            .count();
        assert_eq!(firings, 3);
    }

    #[test]
    fn favored_delivery_order_comes_first() {
        // Two processes send to p2 at the same time; Favor(p1) must make
        // p1's message arrive first even though p0 sent first.
        #[derive(Debug)]
        struct FirstWins {
            me: ProcessId,
            n: usize,
            first: Option<u64>,
        }
        impl Protocol<u64> for FirstWins {
            type Message = Share;
            fn id(&self) -> ProcessId {
                self.me
            }
            fn on_start(&mut self, eff: &mut Effects<u64, Share>) {
                if self.me != ProcessId::new(2) {
                    eff.broadcast_others(Share(u64::from(self.me.as_u32())), self.n, self.me);
                }
            }
            fn on_propose(&mut self, _: u64, _: &mut Effects<u64, Share>) {}
            fn on_message(&mut self, _: ProcessId, m: Share, eff: &mut Effects<u64, Share>) {
                if self.me == ProcessId::new(2) && self.first.is_none() {
                    self.first = Some(m.0);
                    eff.decide(m.0);
                }
            }
            fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, Share>) {}
            fn decision(&self) -> Option<u64> {
                self.first
            }
        }
        let cfg = cfg3();
        let outcome = SimulationBuilder::new(cfg)
            .delivery_order(DeliveryOrder::Favor(ProcessId::new(1)))
            .build(|p| FirstWins {
                me: p,
                n: 3,
                first: None,
            })
            .run(Time::ZERO + Duration::deltas(3));
        assert_eq!(outcome.decision_of(ProcessId::new(2)), Some(&1));

        let outcome = SimulationBuilder::new(cfg)
            .delivery_order(DeliveryOrder::SendOrder)
            .build(|p| FirstWins {
                me: p,
                n: 3,
                first: None,
            })
            .run(Time::ZERO + Duration::deltas(3));
        assert_eq!(outcome.decision_of(ProcessId::new(2)), Some(&0));
    }

    #[test]
    fn randomized_order_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let cfg = cfg3();
            let outcome = SimulationBuilder::new(cfg)
                .delivery_order(DeliveryOrder::randomized(seed))
                .build(flood(cfg))
                .run(Time::ZERO + Duration::deltas(5));
            outcome.events_executed
        };
        assert_eq!(run(42), run(42));
    }

    /// Decides every value proposed to it, re-decisions included.
    #[derive(Debug)]
    struct Echo {
        me: ProcessId,
        got: Option<u64>,
    }
    impl Protocol<u64> for Echo {
        type Message = Share;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_start(&mut self, _: &mut Effects<u64, Share>) {}
        fn on_propose(&mut self, v: u64, eff: &mut Effects<u64, Share>) {
            self.got = Some(v);
            eff.decide(v);
        }
        fn on_message(&mut self, _: ProcessId, _: Share, _: &mut Effects<u64, Share>) {}
        fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, Share>) {}
        fn decision(&self) -> Option<u64> {
            self.got
        }
    }

    #[test]
    fn scheduled_proposal_reaches_protocol() {
        let cfg = cfg3();
        let mut sim = SimulationBuilder::new(cfg).build(|p| Echo { me: p, got: None });
        sim.schedule_propose(ProcessId::new(1), 77, Time::ZERO + Duration::deltas(1));
        let outcome = sim.run(Time::ZERO + Duration::deltas(2));
        assert_eq!(outcome.decision_of(ProcessId::new(1)), Some(&77));
        assert_eq!(outcome.trace.proposals(), vec![(ProcessId::new(1), 77)]);
    }

    #[test]
    fn agreement_sees_a_conflicting_re_decision() {
        // p1 decides 1, then 2: its first decision agrees with everyone's,
        // its second does not, and Agreement is uniform.
        let mut sim = SimulationBuilder::new(cfg3()).build(|p| Echo { me: p, got: None });
        sim.schedule_propose(ProcessId::new(1), 1, Time::ZERO);
        sim.schedule_propose(ProcessId::new(1), 2, Time::ZERO + Duration::deltas(1));
        let outcome = sim.run(Time::ZERO + Duration::deltas(2));
        assert_eq!(outcome.decided_values(), vec![&1]);
        assert!(!outcome.agreement());
    }

    #[test]
    fn run_until_stops_early() {
        let cfg = cfg3();
        let outcome = SimulationBuilder::new(cfg)
            .build(flood(cfg))
            .run_until(Time::ZERO + Duration::deltas(50), |sim| {
                sim.decisions().iter().any(|d| d.is_some())
            });
        // Stopped as soon as the first decision landed.
        assert!(outcome.decisions.iter().any(|d| d.is_some()));
        assert!(outcome.end_time <= Time::ZERO + Duration::deltas(1));
    }

    #[test]
    fn time_limit_respected() {
        let cfg = cfg3();
        let outcome = SimulationBuilder::new(cfg)
            .build(flood(cfg))
            .run(Time::from_units(1)); // before the Δ deliveries
        assert!(outcome.decisions.iter().all(|d| d.is_none()));
        assert!(outcome.end_time <= Time::from_units(1));
    }
}
