//! Exhaustive state-space exploration over the two-step protocols.
//!
//! The simulator samples schedules; the model checker enumerates them.
//! Starting from `start_all()` (plus optional client proposals), it
//! explores every interleaving of:
//!
//! * delivering any pending message,
//! * crashing a process (up to a bound),
//! * firing an armed timer (up to a per-process budget — timers like
//!   the new-ballot timer re-arm forever, so unbounded firing would
//!   never terminate),
//!
//! pruning states already visited. At every state it checks Agreement
//! over the full decide log, Validity against the proposed values and
//! Integrity, by [`twostep_types::judge::decision`]. A
//! violation yields a script of content-keyed [`Step`]s; taking them
//! with [`ManualExecutor::step`] on a fresh, unscrubbed executor replays
//! the run and prints it in the `twostep-fuzz --replay` token format.
//!
//! # Reductions
//!
//! Three reductions keep the boundary configurations (`n = 2e+f−2 …
//! 2e+f`, crash budgets up to `f`) tractable; all are sound in the sense
//! that they can hide no Agreement, Validity or Integrity violation:
//!
//! * **Process-symmetry canonicalization** (`symmetry(true)`, the
//!   default). A state is keyed by the *minimum* relabeled fingerprint
//!   over a group of replica-id permutations (see
//!   [`twostep_types::relabel`]). The group fixes every process whose
//!   timers may fire (`timer_processes`, when declared) and is
//!   restricted to the stabilizer of the *root* state, so asymmetric
//!   initial proposals shrink the group instead of breaking soundness.
//!   States (or in-flight payloads) that cannot be relabeled under a
//!   permutation decline it (`None`), and the minimum runs over the
//!   permutations that accept the state. The identity always does, so
//!   with symmetry off a state is keyed by its identity fingerprint
//!   alone: there is one key scheme. Since Agreement, Validity and
//!   Integrity are invariant under replica-id permutations, a pruned
//!   state violates iff its explored representative's orbit does.
//! * **Partial-order reduction by inert-mail scrubbing** (`por(true)`,
//!   the default). After every transition the engine drops from the
//!   network soup all mail addressed to crashed processes (sound
//!   because the checker has no restart action) and all mail the
//!   receiver's protocol declares a *permanent* no-op
//!   ([`Protocol::message_is_noop`]). Delivering such a message
//!   commutes with every other action and has no visible effect, so
//!   each inert message would otherwise double the residual state
//!   space (delivered-or-not, interleaved everywhere) without changing
//!   any verdict. This is an ample-set-style reduction where the inert
//!   deliveries form singleton ample sets of globally independent,
//!   invisible actions — executed eagerly as "drops".
//! * **Duplicate-delivery merging.** Two pending messages with equal
//!   `(from, to, content)` produce identical successors; only one is
//!   expanded.
//!
//! Violations are checked at successor *creation*, before dedup — the
//! decide log is deliberately not part of the fingerprint (its length
//! grows without bound under re-delivery), so a violating state may
//! share a fingerprint with an already-visited clean one and must not
//! be merged away.
//!
//! # Parallelism
//!
//! `workers(k)` explores the frontier with `k` worker threads over a
//! sharded visited-set: each worker expands frames from a local stack
//! and offloads half of it to a shared injector when the injector runs
//! dry. `workers(1)` (the default) is fully deterministic.

use twostep_sim::{ManualExecutor, Step};
use twostep_types::protocol::{Protocol, TimerId};
use twostep_types::relabel::{RelabelHash, Relabeling};
use twostep_types::{judge, ProcessId, ProcessSet, SystemConfig, Value};

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Counters describing one exploration run.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Distinct states visited (after reduction).
    pub states: usize,
    /// Transitions executed (successor states generated, pre-dedup).
    pub transitions: usize,
    /// Successors merged into an already-visited state.
    pub deduped: usize,
    /// Inert messages scrubbed by the partial-order reduction.
    pub scrubbed: usize,
    /// Wall-clock exploration time.
    pub elapsed: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl ExploreStats {
    /// Visited states per second of wall-clock exploration.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.states as f64 / secs
        } else {
            self.states as f64
        }
    }
}

/// Result of a bounded exploration.
#[derive(Debug)]
pub enum CheckOutcome {
    /// No violation in any explored schedule.
    Clean {
        /// Distinct states visited.
        states: usize,
        /// Whether exploration hit the state bound (so the result is a
        /// bounded guarantee, not a proof).
        truncated: bool,
        /// Exploration counters.
        stats: ExploreStats,
    },
    /// A schedule violating safety, with the script that reaches it.
    Violation {
        /// What went wrong, human-readable.
        report: String,
        /// The schedule (from the initial state) that triggers it.
        script: Vec<Step>,
        /// Distinct states visited before finding it.
        states: usize,
        /// Exploration counters.
        stats: ExploreStats,
    },
}

impl CheckOutcome {
    /// Whether the exploration found no violation.
    pub fn is_clean(&self) -> bool {
        matches!(self, CheckOutcome::Clean { .. })
    }

    /// The exploration counters, whichever way it ended.
    pub fn stats(&self) -> &ExploreStats {
        match self {
            CheckOutcome::Clean { stats, .. } => stats,
            CheckOutcome::Violation { stats, .. } => stats,
        }
    }
}

/// A bounded-exhaustive model checker over one protocol family.
pub struct ModelChecker {
    max_states: usize,
    max_crashes: usize,
    timer_budget: usize,
    timers: Vec<TimerId>,
    timer_processes: Option<ProcessSet>,
    symmetry: bool,
    por: bool,
    workers: usize,
}

impl ModelChecker {
    /// Creates a checker with defaults: 200 000 states, no crashes, no
    /// timer firings, symmetry + partial-order reduction on, one
    /// worker.
    pub fn new() -> Self {
        ModelChecker {
            max_states: 200_000,
            max_crashes: 0,
            timer_budget: 0,
            timers: vec![TimerId::NEW_BALLOT],
            timer_processes: None,
            symmetry: true,
            por: true,
            workers: 1,
        }
    }

    /// Caps the number of distinct states explored.
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Allows up to `n` crash actions per schedule.
    pub fn max_crashes(mut self, n: usize) -> Self {
        self.max_crashes = n;
        self
    }

    /// Allows each process up to `n` timer firings per schedule, for the
    /// given timers (default: only `NEW_BALLOT` — heartbeat timers only
    /// add noise under manual scheduling).
    pub fn timer_budget(mut self, n: usize, timers: Vec<TimerId>) -> Self {
        self.timer_budget = n;
        self.timers = timers;
        self
    }

    /// Restricts timer firings to the given processes (e.g. only the
    /// pinned leader's new-ballot timer matters in a static-Ω sweep).
    /// These processes are implicitly distinguished for the symmetry
    /// reduction.
    pub fn timer_processes(mut self, procs: ProcessSet) -> Self {
        self.timer_processes = Some(procs);
        self
    }

    /// Enables or disables the process-symmetry canonicalization.
    pub fn symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    /// Enables or disables the inert-mail partial-order reduction.
    pub fn por(mut self, on: bool) -> Self {
        self.por = on;
        self
    }

    /// Number of exploration worker threads (default 1, deterministic).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Explores all schedules of the system built by `setup`, judging
    /// every state's decide log against `proposed`, the values that can
    /// enter the system (for Validity).
    ///
    /// `setup` receives the config and must return a started executor
    /// (typically: build, `start_all()`, issue proposals).
    pub fn run<V, P, F>(&self, cfg: SystemConfig, proposed: &[V], setup: F) -> CheckOutcome
    where
        V: Value,
        P: Protocol<V> + Clone,
        P::Message: RelabelHash,
        F: Fn(SystemConfig) -> ManualExecutor<V, P>,
    {
        self.explore(cfg, proposed, setup, None)
    }

    /// Like [`ModelChecker::run`], additionally collecting the set of
    /// decision vectors (`decisions()` snapshots) over all visited
    /// states — the observable the reduction-equivalence tests compare
    /// against unreduced exploration. The set is only complete when the
    /// outcome is `Clean` and untruncated (a violation stops the
    /// search).
    pub fn run_collecting<V, P, F>(
        &self,
        cfg: SystemConfig,
        proposed: &[V],
        setup: F,
    ) -> (CheckOutcome, BTreeSet<Vec<Option<V>>>)
    where
        V: Value,
        P: Protocol<V> + Clone,
        P::Message: RelabelHash,
        F: Fn(SystemConfig) -> ManualExecutor<V, P>,
    {
        let collector = Mutex::new(BTreeSet::new());
        let outcome = self.explore(cfg, proposed, setup, Some(&collector));
        (outcome, collector.into_inner().unwrap())
    }

    fn explore<V, P, F>(
        &self,
        cfg: SystemConfig,
        proposed: &[V],
        setup: F,
        collect: Option<&Mutex<BTreeSet<Vec<Option<V>>>>>,
    ) -> CheckOutcome
    where
        V: Value,
        P: Protocol<V> + Clone,
        P::Message: RelabelHash,
        F: Fn(SystemConfig) -> ManualExecutor<V, P>,
    {
        let start = Instant::now();
        let n = cfg.n();
        let mut root = setup(cfg);
        let mut scrubbed_at_root = 0;
        if self.por {
            scrubbed_at_root = root.scrub_inert_mail();
        }

        // The symmetry group: permutations fixing every timer process,
        // restricted to the stabilizer of the root state (a permutation
        // that changes the root would equate runs of *different*
        // systems, e.g. swapping processes with different initial
        // proposals).
        let distinguished = self.timer_processes.unwrap_or_default();
        let identity = Relabeling::identity(n);
        let group: Vec<Relabeling> = if self.symmetry {
            let root_fp = root
                .fingerprint_relabeled(&identity)
                .expect("a fingerprint never declines the identity");
            Relabeling::permutations_fixing(n, distinguished)
                .into_iter()
                .filter(|rl| root.fingerprint_relabeled(rl) == Some(root_fp))
                .collect()
        } else {
            vec![identity]
        };

        let shared = Shared {
            visited: (0..VISITED_SHARDS)
                .map(|_| Mutex::new(HashSet::new()))
                .collect(),
            queue: Mutex::new(Vec::new()),
            idle: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
            violation: Mutex::new(None),
            arena: Mutex::new(Vec::new()),
            states: AtomicUsize::new(0),
            transitions: AtomicUsize::new(0),
            deduped: AtomicUsize::new(0),
            scrubbed: AtomicUsize::new(scrubbed_at_root),
        };
        let engine = Engine {
            checker: self,
            proposed,
            group: &group,
            shared: &shared,
            collect,
        };

        // Seed with the root.
        let root_fires = vec![0usize; n];
        engine.insert_visited(engine.canonical_key(&root, &root_fires));
        shared.states.store(1, Ordering::SeqCst);
        if let Some(c) = collect {
            c.lock().unwrap().insert(root.decisions().to_vec());
        }
        if let Some(report) = engine.violated(&root) {
            return CheckOutcome::Violation {
                report,
                script: Vec::new(),
                states: 1,
                stats: engine.stats_snapshot(start),
            };
        }
        shared.in_flight.store(1, Ordering::SeqCst);
        shared.queue.lock().unwrap().push(Frame {
            ex: root,
            node: ROOT_NODE,
            crashes: 0,
            fires: root_fires,
        });

        if self.workers == 1 {
            engine.worker();
        } else {
            std::thread::scope(|s| {
                for _ in 0..self.workers {
                    s.spawn(|| engine.worker());
                }
            });
        }

        let stats = engine.stats_snapshot(start);
        let states = stats.states;
        let violation = shared.violation.lock().unwrap().take();
        match violation {
            Some((report, node)) => {
                let arena = shared.arena.lock().unwrap();
                let mut script = Vec::new();
                let mut cur = node;
                while cur != ROOT_NODE {
                    script.push(arena[cur].step);
                    cur = arena[cur].parent;
                }
                script.reverse();
                CheckOutcome::Violation {
                    report,
                    script,
                    states,
                    stats,
                }
            }
            None => CheckOutcome::Clean {
                states,
                truncated: shared.truncated.load(Ordering::SeqCst),
                stats,
            },
        }
    }
}

impl Default for ModelChecker {
    fn default() -> Self {
        Self::new()
    }
}

/// Visited-set shards; keys are distributed by `key % VISITED_SHARDS`.
const VISITED_SHARDS: usize = 64;
/// Arena sentinel for "no parent" (the root state).
const ROOT_NODE: usize = usize::MAX;

/// Parent-pointer trace node: scripts are reconstructed by walking the
/// arena backwards from the violating state, so frames carry one
/// `usize` instead of a cloned `Vec<Step>` each.
struct ArenaNode {
    parent: usize,
    step: Step,
}

struct Frame<V: Value, P: Protocol<V>> {
    ex: ManualExecutor<V, P>,
    node: usize,
    crashes: usize,
    fires: Vec<usize>,
}

struct Shared<V: Value, P: Protocol<V>> {
    visited: Vec<Mutex<HashSet<u64>>>,
    queue: Mutex<Vec<Frame<V, P>>>,
    idle: Condvar,
    /// Frames created but not yet fully expanded; 0 means exploration
    /// is complete.
    in_flight: AtomicUsize,
    stop: AtomicBool,
    truncated: AtomicBool,
    violation: Mutex<Option<(String, usize)>>,
    arena: Mutex<Vec<ArenaNode>>,
    states: AtomicUsize,
    transitions: AtomicUsize,
    deduped: AtomicUsize,
    scrubbed: AtomicUsize,
}

struct Engine<'a, V: Value, P: Protocol<V>> {
    checker: &'a ModelChecker,
    proposed: &'a [V],
    group: &'a [Relabeling],
    shared: &'a Shared<V, P>,
    collect: Option<&'a Mutex<BTreeSet<Vec<Option<V>>>>>,
}

impl<'a, V: Value, P: Protocol<V> + Clone> Engine<'a, V, P>
where
    P::Message: RelabelHash,
{
    /// Canonical visited-set key of a state: the minimum relabeled
    /// fingerprint over the symmetry group, with the per-process timer
    /// budget residuals permuted alongside. A permutation that declines
    /// the state is skipped; the group holds the identity, which never
    /// declines.
    fn canonical_key(&self, ex: &ManualExecutor<V, P>, fires: &[usize]) -> u64 {
        self.group
            .iter()
            .filter_map(|rl| {
                let fp = ex.fingerprint_relabeled(rl)?;
                let mut h = DefaultHasher::new();
                fp.hash(&mut h);
                for j in 0..fires.len() {
                    fires[rl.preimage(ProcessId::new(j as u32)).index()].hash(&mut h);
                }
                Some(h.finish())
            })
            .min()
            .expect("a fingerprint never declines the identity")
    }

    /// The decide log's violation, if any.
    fn violated(&self, ex: &ManualExecutor<V, P>) -> Option<String> {
        judge::decision(ex.decide_log(), self.proposed)
            .err()
            .map(|v| v.to_string())
    }

    fn insert_visited(&self, key: u64) -> bool {
        let shard = (key % VISITED_SHARDS as u64) as usize;
        self.shared.visited[shard].lock().unwrap().insert(key)
    }

    fn stats_snapshot(&self, start: Instant) -> ExploreStats {
        let s = self.shared;
        ExploreStats {
            states: s.states.load(Ordering::SeqCst),
            transitions: s.transitions.load(Ordering::SeqCst),
            deduped: s.deduped.load(Ordering::SeqCst),
            scrubbed: s.scrubbed.load(Ordering::SeqCst),
            elapsed: start.elapsed(),
            workers: self.checker.workers,
        }
    }

    fn halt(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _guard = self.shared.queue.lock().unwrap();
        self.shared.idle.notify_all();
    }

    /// Worker loop: expand frames from a local stack, refill from (and
    /// offload to) the shared injector.
    fn worker(&self) {
        let mut local: Vec<Frame<V, P>> = Vec::new();
        loop {
            let frame = match local.pop() {
                Some(f) => f,
                None => {
                    let mut queue = self.shared.queue.lock().unwrap();
                    loop {
                        if self.shared.stop.load(Ordering::SeqCst)
                            || self.shared.in_flight.load(Ordering::SeqCst) == 0
                        {
                            return;
                        }
                        if let Some(f) = queue.pop() {
                            break f;
                        }
                        queue = self.shared.idle.wait(queue).unwrap();
                    }
                }
            };
            self.expand(frame, &mut local);
            if self.shared.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last frame done: wake idle workers so they observe
                // in_flight == 0 and exit.
                let _guard = self.shared.queue.lock().unwrap();
                self.shared.idle.notify_all();
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            // Work stealing, donor side: when the injector is dry and
            // we hold more than one frame, donate the older half.
            if local.len() > 1 {
                if let Ok(mut queue) = self.shared.queue.try_lock() {
                    if queue.is_empty() {
                        let donate = local.len() / 2;
                        queue.extend(local.drain(..donate));
                        self.shared.idle.notify_all();
                    }
                }
            }
        }
    }

    /// Applies every enabled action to `frame`, pushing new states onto
    /// `local`.
    fn expand(&self, frame: Frame<V, P>, local: &mut Vec<Frame<V, P>>) {
        let ck = self.checker;
        let ex = &frame.ex;

        // 1. Deliveries, one per distinct (from, to, content) triple —
        //    duplicate messages yield identical successors.
        let mut seen: HashSet<(ProcessId, ProcessId, u64)> = HashSet::new();
        let deliveries: Vec<Step> = ex
            .pending()
            .iter()
            .filter(|m| seen.insert((m.from, m.to, m.content_key())))
            .map(|m| Step::Deliver {
                from: m.from,
                to: m.to,
                key: m.content_key(),
            })
            .collect();
        for step in deliveries {
            self.push_successor(&frame, step, local);
        }
        // 2. Crashes.
        if frame.crashes < ck.max_crashes {
            for p in ex.alive().iter() {
                self.push_successor(&frame, Step::Crash(p), local);
            }
        }
        // 3. Timer firings.
        for p in ex.alive().iter() {
            if frame.fires[p.index()] >= ck.timer_budget {
                continue;
            }
            if let Some(allowed) = ck.timer_processes {
                if !allowed.contains(p) {
                    continue;
                }
            }
            for timer in ex.armed_timers(p) {
                if !ck.timers.contains(&timer) {
                    continue;
                }
                self.push_successor(&frame, Step::Fire(p, timer), local);
            }
        }
    }

    fn push_successor(&self, frame: &Frame<V, P>, step: Step, local: &mut Vec<Frame<V, P>>) {
        if self.shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let ck = self.checker;
        let mut next = frame.ex.clone();
        let mut crashes = frame.crashes;
        let mut fires = frame.fires.clone();
        next.step(step).expect("an enumerated step applies");
        match step {
            Step::Deliver { .. } => {}
            Step::Crash(_) => crashes += 1,
            Step::Fire(p, _) => fires[p.index()] += 1,
        }
        self.shared.transitions.fetch_add(1, Ordering::SeqCst);
        if ck.por {
            let dropped = next.scrub_inert_mail();
            if dropped > 0 {
                self.shared.scrubbed.fetch_add(dropped, Ordering::SeqCst);
            }
        }

        // Violation check *before* dedup: the decide log is not part of
        // the fingerprint, so a violating state may collide with a
        // clean visited one and must not be merged away.
        if let Some(report) = self.violated(&next) {
            let node = {
                let mut arena = self.shared.arena.lock().unwrap();
                arena.push(ArenaNode {
                    parent: frame.node,
                    step,
                });
                arena.len() - 1
            };
            let mut slot = self.shared.violation.lock().unwrap();
            if slot.is_none() {
                *slot = Some((report, node));
            }
            drop(slot);
            self.halt();
            return;
        }

        if !self.insert_visited(self.canonical_key(&next, &fires)) {
            self.shared.deduped.fetch_add(1, Ordering::SeqCst);
            return;
        }
        let states = self.shared.states.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(c) = self.collect {
            c.lock().unwrap().insert(next.decisions().to_vec());
        }
        if states >= ck.max_states {
            self.shared.truncated.store(true, Ordering::SeqCst);
            self.halt();
            return;
        }
        let node = {
            let mut arena = self.shared.arena.lock().unwrap();
            arena.push(ArenaNode {
                parent: frame.node,
                step,
            });
            arena.len() - 1
        };
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        local.push(Frame {
            ex: next,
            node,
            crashes,
            fires,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use twostep_sim::schedule::Action;
    use twostep_types::protocol::Effects;

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct M(u64);

    impl RelabelHash for M {}

    /// Deliberately broken "consensus": decide the first value received.
    #[derive(Debug, Clone)]
    struct FirstWins {
        me: ProcessId,
        n: usize,
        value: u64,
        decided: Option<u64>,
    }

    impl Protocol<u64> for FirstWins {
        type Message = M;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_start(&mut self, eff: &mut Effects<u64, M>) {
            eff.broadcast_others(M(self.value), self.n, self.me);
        }
        fn on_propose(&mut self, _: u64, _: &mut Effects<u64, M>) {}
        fn on_message(&mut self, _: ProcessId, m: M, eff: &mut Effects<u64, M>) {
            if self.decided.is_none() {
                self.decided = Some(m.0);
                eff.decide(m.0);
            }
        }
        fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, M>) {}
        fn decision(&self) -> Option<u64> {
            self.decided
        }
        fn message_is_noop(&self, _: ProcessId, _: &M) -> bool {
            // Once decided, further messages change nothing — and
            // `decided` is never cleared.
            self.decided.is_some()
        }
    }

    /// Trivially safe: never decides.
    #[derive(Debug, Clone)]
    struct Mute(ProcessId);

    impl Protocol<u64> for Mute {
        type Message = M;
        fn id(&self) -> ProcessId {
            self.0
        }
        fn on_start(&mut self, eff: &mut Effects<u64, M>) {
            eff.send(ProcessId::new(0), M(1));
        }
        fn on_propose(&mut self, _: u64, _: &mut Effects<u64, M>) {}
        fn on_message(&mut self, _: ProcessId, _: M, _: &mut Effects<u64, M>) {}
        fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, M>) {}
        fn decision(&self) -> Option<u64> {
            None
        }
        fn message_is_noop(&self, _: ProcessId, _: &M) -> bool {
            true
        }
    }

    fn first_wins(cfg: SystemConfig) -> ManualExecutor<u64, FirstWins> {
        let mut ex = ManualExecutor::new(cfg, |q| FirstWins {
            me: q,
            n: cfg.n(),
            value: u64::from(q.as_u32()),
            decided: None,
        });
        ex.start_all();
        ex
    }

    #[test]
    fn finds_agreement_violation_in_broken_protocol() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let outcome = ModelChecker::new().run(cfg, &[0, 1, 2], first_wins);
        let CheckOutcome::Violation { report, script, .. } = outcome else {
            panic!("first-wins must violate agreement under some schedule");
        };
        assert!(report.contains("agreement violated"));
        assert!(!script.is_empty());
    }

    #[test]
    fn counterexample_script_replays_to_the_violation() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let CheckOutcome::Violation { script, .. } =
            ModelChecker::new().run(cfg, &[0, 1, 2], first_wins)
        else {
            panic!("expected a violation");
        };
        let mut ex = first_wins(cfg);
        assert!(
            script.iter().all(|&step| ex.step(step).is_some()),
            "script must apply"
        );
        assert!(
            !ex.agreement(),
            "replayed script must reproduce the violation"
        );
    }

    #[test]
    fn violation_script_survives_reduction_toggles() {
        // Content-keyed actions replay identically whether or not the
        // finding run reduced its state space.
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        for (symmetry, por) in [(false, false), (true, false), (false, true), (true, true)] {
            let outcome =
                ModelChecker::new()
                    .symmetry(symmetry)
                    .por(por)
                    .run(cfg, &[0, 1, 2], first_wins);
            let CheckOutcome::Violation { script, .. } = outcome else {
                panic!("expected a violation at symmetry={symmetry} por={por}");
            };
            let mut ex = first_wins(cfg);
            assert!(script.iter().all(|&step| ex.step(step).is_some()));
            assert!(!ex.agreement(), "symmetry={symmetry} por={por}");
        }
    }

    #[test]
    fn fuzz_tokens_positionally_encode_the_script() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let CheckOutcome::Violation { script, .. } =
            ModelChecker::new().run(cfg, &[0, 1, 2], first_wins)
        else {
            panic!("expected a violation");
        };
        // Each token names the scripted message by its position in the
        // soup the step is taken in: `pending()[k]` carries the triple.
        let mut ex = first_wins(cfg);
        let mut tokens = Vec::new();
        for &step in &script {
            let Step::Deliver { from, to, key } = step else {
                panic!("first-wins needs no crash or timer: {step:?}");
            };
            let before: Vec<_> = ex
                .pending()
                .iter()
                .map(|m| (m.from, m.to, m.content_key()))
                .collect();
            let token = ex.step(step).expect("script must tokenize");
            let Action::DeliverIdx(k) = token else {
                panic!("a delivery prints as `i:K`, not {token}");
            };
            assert_eq!(
                before.get(usize::from(k)),
                Some(&(from, to, key)),
                "{token}"
            );
            tokens.push(k);
        }
        // Decode the positional tokens the way the fuzzer does and
        // check the violation still reproduces.
        let mut ex = first_wins(cfg);
        for k in tokens {
            let ids: Vec<_> = ex.pending().iter().map(|m| m.id).collect();
            ex.deliver(ids[usize::from(k) % ids.len()]);
        }
        assert!(!ex.agreement());
    }

    #[test]
    fn clean_protocol_reports_clean() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let outcome = ModelChecker::new().por(false).run(cfg, &[], |cfg| {
            let mut ex = ManualExecutor::new(cfg, Mute);
            ex.start_all();
            ex
        });
        match outcome {
            CheckOutcome::Clean {
                states, truncated, ..
            } => {
                assert!(!truncated);
                assert!(states >= 2, "at least root + one delivery");
            }
            CheckOutcome::Violation { report, .. } => panic!("mute protocol violated: {report}"),
        }
    }

    #[test]
    fn por_scrubs_inert_mail() {
        // Mute declares every message a permanent no-op: with POR on,
        // the whole soup is scrubbed at the root and exploration
        // collapses to the single root state.
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let outcome = ModelChecker::new().run(cfg, &[], |cfg| {
            let mut ex = ManualExecutor::new(cfg, Mute);
            ex.start_all();
            ex
        });
        let CheckOutcome::Clean {
            states,
            truncated,
            stats,
        } = outcome
        else {
            panic!("mute protocol must be clean");
        };
        assert!(!truncated);
        assert_eq!(states, 1, "all mail was inert");
        assert_eq!(stats.scrubbed, 3, "every Mute send scrubbed at root");
    }

    #[test]
    fn state_bound_truncates() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let outcome = ModelChecker::new().max_states(2).run(cfg, &[7], |cfg| {
            let mut ex = ManualExecutor::new(cfg, |q| FirstWins {
                me: q,
                n: cfg.n(),
                value: 7, // all same value: no violation possible
                decided: None,
            });
            ex.start_all();
            ex
        });
        match outcome {
            CheckOutcome::Clean { truncated, .. } => assert!(truncated),
            CheckOutcome::Violation { report, .. } => panic!("unexpected: {report}"),
        }
    }

    #[test]
    fn validity_checked_against_proposed_set() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let outcome = ModelChecker::new().run(cfg, &[100], |cfg| {
            let mut ex = ManualExecutor::new(cfg, |q| FirstWins {
                me: q,
                n: cfg.n(),
                value: 7, // not in the declared proposed set
                decided: None,
            });
            ex.start_all();
            ex
        });
        let CheckOutcome::Violation { report, .. } = outcome else {
            panic!("expected validity violation");
        };
        assert!(report.contains("validity"));
    }

    #[test]
    fn crash_actions_respect_bound() {
        // With crashes enabled, Mute stays clean and exploration
        // terminates (crashes only shrink behavior).
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let outcome = ModelChecker::new()
            .max_crashes(1)
            .por(false)
            .run(cfg, &[], |cfg| {
                let mut ex = ManualExecutor::new(cfg, Mute);
                ex.start_all();
                ex
            });
        assert!(outcome.is_clean());
    }

    #[test]
    fn parallel_exploration_matches_single_worker() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let build = |cfg: SystemConfig| {
            let mut ex = ManualExecutor::new(cfg, |q| FirstWins {
                me: q,
                n: cfg.n(),
                value: 7,
                decided: None,
            });
            ex.start_all();
            ex
        };
        let single = ModelChecker::new().run(cfg, &[7], build);
        let multi = ModelChecker::new().workers(4).run(cfg, &[7], build);
        let (CheckOutcome::Clean { states: s1, .. }, CheckOutcome::Clean { states: s2, .. }) =
            (&single, &multi)
        else {
            panic!("same-value first-wins cannot violate");
        };
        assert_eq!(s1, s2, "visited-state count is schedule-independent");
        assert_eq!(multi.stats().workers, 4);
    }

    #[test]
    fn stats_report_rates_and_counters() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let outcome = ModelChecker::new().run(cfg, &[0, 1, 2], first_wins);
        let stats = outcome.stats();
        assert!(stats.transitions >= stats.states - 1);
        assert!(stats.states_per_sec() > 0.0);
    }
}
