//! Fuzz cases and their deterministic execution.
//!
//! A [`FuzzCase`] pins down *everything* a run depends on — protocol,
//! configuration, initial values, Ω leader, ablations, how many
//! consensus groups share the nodes, who is Byzantine and the schedule —
//! so a counterexample is replayable from the case alone (and the case
//! itself is derivable from `(root seed, iteration)` via
//! [`crate::gen::gen_case`]). A sharded deployment and a Byzantine
//! coalition are *data* here, not code paths: one interpreter runs all
//! of them.

use twostep_baselines::{EPaxosLite, FastBft, FastPaxos, Paxos};
use twostep_byz::ByzPlan;
use twostep_core::{Ablations, OmegaMode, TwoStepBuilder};
use twostep_sim::{InFlight, ManualExecutor, MsgId};
use twostep_smr::{Counter, SmrReplicaBuilder};
use twostep_telemetry::ObserverHandle;
use twostep_types::protocol::Protocol;
use twostep_types::{ByzConfig, ByzVariant, ProcessId, ProcessSet, ProtocolKind, SystemConfig};

use crate::schedule::{Action, Schedule};

/// The protocols the fuzzer can drive differentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzProtocol {
    /// The paper's two-step consensus, task variant.
    Task,
    /// The paper's two-step consensus, object variant.
    Object,
    /// Classic single-decree Paxos (baseline).
    Paxos,
    /// Fast Paxos (baseline).
    FastPaxos,
    /// The EPaxos-style fast/slow baseline.
    EPaxos,
    /// The FaB-style fast-BFT baseline under the given quorum sizing —
    /// the one target whose messages a victim plan can corrupt. Its
    /// [`SystemConfig`] reads `(n, f, f)`: `f` is the Byzantine bound.
    FastBft(ByzVariant),
    /// The replicated log: `SmrReplica<u64, Counter>` at batch 2 ×
    /// pipeline depth 2, one object-consensus instance per slot. Its
    /// decide events are applied commands, judged by the log oracle.
    /// One group only: command ordinals sit above the shard encoding.
    Smr,
}

impl FuzzProtocol {
    /// The crash-model single-decree protocols, for `--protocol all`.
    pub const ALL: [FuzzProtocol; 5] = [
        FuzzProtocol::Task,
        FuzzProtocol::Object,
        FuzzProtocol::Paxos,
        FuzzProtocol::FastPaxos,
        FuzzProtocol::EPaxos,
    ];

    /// Whether initial values are fixed at construction (task-style) as
    /// opposed to arriving via explicit `propose` calls (object-style).
    pub fn task_style(self) -> bool {
        matches!(
            self,
            FuzzProtocol::Task
                | FuzzProtocol::Paxos
                | FuzzProtocol::FastPaxos
                | FuzzProtocol::FastBft(_)
        )
    }

    /// The crash-model family whose minimal-process bound this target is
    /// validated against. EPaxosLite only runs in the bare-majority
    /// regime, so it shares the Paxos bound; so does FastBft, whose own
    /// `3f+1` floor is [`ByzConfig::new`]'s to check.
    pub fn kind(self) -> ProtocolKind {
        match self {
            FuzzProtocol::Task => ProtocolKind::TaskTwoStep,
            FuzzProtocol::Object | FuzzProtocol::Smr => ProtocolKind::ObjectTwoStep,
            FuzzProtocol::Paxos | FuzzProtocol::EPaxos | FuzzProtocol::FastBft(_) => {
                ProtocolKind::Paxos
            }
            FuzzProtocol::FastPaxos => ProtocolKind::FastPaxos,
        }
    }

    /// The minimal `n` at which this target keeps its fast path for
    /// `(e, f)`: the protocol family's bound, or the variant's
    /// fast-live size under `f` Byzantine faults.
    pub fn min_processes(self, e: usize, f: usize) -> usize {
        match self {
            FuzzProtocol::FastBft(variant) => variant.min_fast_live(f),
            _ => self.kind().min_processes(e, f),
        }
    }

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FuzzProtocol::Task => "task",
            FuzzProtocol::Object => "object",
            FuzzProtocol::Paxos => "paxos",
            FuzzProtocol::FastPaxos => "fastpaxos",
            FuzzProtocol::EPaxos => "epaxos",
            FuzzProtocol::FastBft(_) => "fastbft",
            FuzzProtocol::Smr => "smr",
        }
    }

    /// Parses a `--protocol` name (FastBft is spelled `--byzantine`).
    pub fn parse(s: &str) -> Option<FuzzProtocol> {
        Self::ALL
            .into_iter()
            .chain([FuzzProtocol::Smr])
            .find(|p| p.name() == s)
    }
}

/// Shard `s` proposes values in `[s * STRIDE, (s+1) * STRIDE)`, so a
/// decided value names its owning shard — the leakage oracle's handle.
pub const SHARD_STRIDE: u64 = 1_000_000;

/// Encodes `payload` as a value owned by `shard`.
pub fn shard_value(shard: usize, payload: u64) -> u64 {
    debug_assert!(payload < SHARD_STRIDE);
    shard as u64 * SHARD_STRIDE + payload
}

/// The shard a decided value belongs to, per the encoding.
pub fn shard_of_value(value: u64) -> usize {
    (value / SHARD_STRIDE) as usize
}

/// One fully determined fuzz execution.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Which protocol to run.
    pub protocol: FuzzProtocol,
    /// The system configuration.
    pub cfg: SystemConfig,
    /// Initial values by process id (task-style protocols; also the
    /// value pool used by `Propose` actions for object-style ones).
    pub values: Vec<u64>,
    /// The static Ω leader of group 0; group `s` trusts `leader + s`
    /// (mod `n`), the sharded runtime's rotation. Ignored by baselines.
    pub leader: ProcessId,
    /// Protocol ablations (used to inject known bugs on purpose).
    pub ablations: Ablations,
    /// The interleaving to execute.
    pub schedule: Schedule,
    /// How many independent consensus groups share the `n` nodes (1 = a
    /// flat run). A crash or restart hits the node in every group at
    /// once — the sharded runtime's correlated fault — and
    /// `Propose(a, v)` goes to group `v mod groups`.
    pub groups: usize,
    /// The Byzantine coalition and the seed of its corruption streams
    /// (an all-honest plan = the crash model). Victims count against the
    /// crash budget `f`. Only [`FuzzProtocol::FastBft`] can carry one.
    pub victims: ByzPlan,
}

impl FuzzCase {
    /// The same case with a different schedule (used by the shrinker).
    pub fn with_schedule(&self, actions: Vec<Action>) -> FuzzCase {
        FuzzCase {
            schedule: Schedule::from(actions),
            ..self.clone()
        }
    }
}

/// What a run produced, as consumed by the oracles.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Every decide event: group 0's log, then group 1's, …, each in
    /// execution order.
    pub decide_log: Vec<(ProcessId, u64)>,
    /// How many of `decide_log`'s events each group contributed, in
    /// group order (one entry for a flat run).
    pub group_decides: Vec<usize>,
    /// The values that entered the system (initial values for task-style
    /// protocols; accepted `propose` arguments for object-style).
    pub proposed: Vec<u64>,
    /// Processes alive at the end of the run.
    pub alive: ProcessSet,
    /// Processes the victim plan left honest: the oracles judge their
    /// decide events only — what a traitor claims to decide is not a
    /// property of the protocol.
    pub honest: ProcessSet,
}

impl RunReport {
    /// Each group's judged decide log: the honest processes' events.
    pub fn judged(&self) -> impl Iterator<Item = Vec<(ProcessId, u64)>> + '_ {
        let mut rest = self.decide_log.as_slice();
        self.group_decides.iter().map(move |&len| {
            let (log, tail) = rest.split_at(len);
            rest = tail;
            log.iter()
                .copied()
                .filter(|(p, _)| self.honest.contains(*p))
                .collect()
        })
    }
}

/// Executes a case and reports what happened. Deterministic: the same
/// case always yields the same report.
pub fn run_case(case: &FuzzCase) -> RunReport {
    run_case_observed(case, ObserverHandle::none())
}

/// Like [`run_case`], with telemetry hooks attached to every protocol
/// instance — campaign summaries aggregate decision paths, recovery
/// cases, ballot churn and fault injections across all executed
/// schedules.
///
/// # Panics
///
/// Panics if the case names victims for a protocol other than FastBft
/// (no other message type is corruptible), or a FastBft configuration
/// under the `3f+1` floor.
pub fn run_case_observed(case: &FuzzCase, obs: ObserverHandle) -> RunReport {
    let cfg = case.cfg;
    let values = &case.values;
    // Group `s` is led by node `leader + s` (mod `n`).
    let leader = |s: usize| case.leader.as_u32() + s as u32;
    let two_step = |s: usize| {
        TwoStepBuilder::new(cfg)
            .omega(OmegaMode::Static(ProcessId::new(
                leader(s) % cfg.n() as u32,
            )))
            .ablations(case.ablations)
            .observed(obs.clone())
    };
    assert!(
        case.victims.byzantine_count() == 0 || matches!(case.protocol, FuzzProtocol::FastBft(_)),
        "only FastBft's messages are corruptible: {:?} cannot carry victims",
        case.protocol
    );
    match case.protocol {
        FuzzProtocol::Task => run_schedule(case, |s, p| two_step(s).task(p, values[p.index()])),
        FuzzProtocol::Object => run_schedule(case, |s, p| two_step(s).object(p)),
        FuzzProtocol::Paxos => run_schedule(case, |_, p| {
            Paxos::new(cfg, p, values[p.index()]).observed(obs.clone())
        }),
        FuzzProtocol::FastPaxos => run_schedule(case, |_, p| {
            FastPaxos::new(cfg, p, values[p.index()]).observed(obs.clone())
        }),
        FuzzProtocol::EPaxos => {
            run_schedule(case, |_, p| EPaxosLite::new(cfg, p).observed(obs.clone()))
        }
        FuzzProtocol::FastBft(variant) => {
            let byz = ByzConfig::new(cfg.n(), cfg.f(), variant)
                .expect("a FastBft case needs n >= max(4, 3f+1)");
            // Every process runs under the injection wrapper (a no-op
            // for the honest ones), so the executor sees one type.
            run_schedule(case, |_, p| {
                let inner = FastBft::new(byz, p, values[p.index()]).observed(obs.clone());
                case.victims.wrap_observed(inner, obs.clone())
            })
        }
        FuzzProtocol::Smr => run_schedule(case, |s, p| {
            SmrReplicaBuilder::new(cfg, p)
                .pipeline(2)
                .batch(2)
                .leader_rotation(leader(s))
                .observed(obs.clone())
                .build::<u64, Counter>()
        }),
    }
}

/// The ids of pending messages matching `pred`, over every group's
/// soup concatenated in group order — what a message operand decodes
/// against.
fn pending<P: Protocol<u64>>(
    groups: &[ManualExecutor<u64, P>],
    mut pred: impl FnMut(&InFlight<P::Message>) -> bool,
) -> Vec<(usize, MsgId)> {
    let mut ids = Vec::new();
    for (s, g) in groups.iter().enumerate() {
        ids.extend(g.pending_matching(&mut pred).into_iter().map(|id| (s, id)));
    }
    ids
}

/// The schedule interpreter: applies each action to `case.groups` fresh
/// [`ManualExecutor`]s (built by `make(group, process)`), with every
/// operand decoded modulo what they currently offer (see
/// [`crate::schedule`]). For one group the decode is exactly the flat
/// fuzzer's, so a schedule means the same run it always did.
fn run_schedule<P, F>(case: &FuzzCase, mut make: F) -> RunReport
where
    P: Protocol<u64>,
    F: FnMut(usize, ProcessId) -> P,
{
    let n = case.cfg.n();
    let pid = |raw: u8| ProcessId::new(u32::from(raw) % n as u32);
    let victims: ProcessSet = case.victims.byzantine().map(|(p, _)| p).collect();

    let mut groups: Vec<ManualExecutor<u64, P>> = (0..case.groups)
        .map(|s| {
            let mut ex = ManualExecutor::new(case.cfg, |p| make(s, p));
            ex.start_all();
            ex
        })
        .collect();

    let mut proposed: Vec<u64> = if case.protocol.task_style() {
        case.values.clone()
    } else {
        Vec::new()
    };

    for &action in &case.schedule.actions {
        // A message operand names one pending message (or none).
        let message = match action {
            Action::DeliverFromTo(a, b) | Action::DropFromTo(a, b) => {
                let (from, to) = (pid(a), pid(b));
                pending(&groups, |m| m.from == from && m.to == to)
                    .first()
                    .copied()
            }
            Action::DeliverIdx(k) | Action::DropIdx(k) => {
                let ids = pending(&groups, |_| true);
                (!ids.is_empty()).then(|| ids[k as usize % ids.len()])
            }
            _ => None,
        };
        match action {
            Action::DeliverFromTo(..) | Action::DeliverIdx(_) => {
                if let Some((s, id)) = message {
                    groups[s].deliver(id);
                }
            }
            Action::DropFromTo(..) | Action::DropIdx(_) => {
                if let Some((s, id)) = message {
                    groups[s].drop_message(id);
                }
            }
            Action::DeliverAllTo(a) => {
                let p = pid(a);
                for g in &mut groups {
                    g.deliver_where(|m| m.to == p);
                }
            }
            Action::Crash(a) => {
                // Groups share nodes, so they share one alive set; the
                // budget counts everyone faulty, crashed or Byzantine.
                let p = pid(a);
                let alive = groups[0].alive();
                let mut faulty = alive.complement(n).union(victims);
                faulty.insert(p);
                if alive.contains(p) && faulty.len() <= case.cfg.f() {
                    for g in &mut groups {
                        g.crash(p);
                    }
                }
            }
            Action::Restart(a) => {
                for g in &mut groups {
                    g.restart(pid(a));
                }
            }
            Action::FireTimer(a, k) => {
                let p = pid(a);
                let timers: Vec<_> = groups
                    .iter()
                    .enumerate()
                    .flat_map(|(s, g)| g.armed_timers(p).into_iter().map(move |t| (s, t)))
                    .collect();
                if !timers.is_empty() {
                    let (s, t) = timers[k as usize % timers.len()];
                    groups[s].fire_timer(p, t);
                }
            }
            Action::FireAllTimers(a) => {
                let p = pid(a);
                for g in &mut groups {
                    for t in g.armed_timers(p) {
                        g.fire_timer(p, t);
                    }
                }
            }
            Action::Propose(a, v) => {
                if !case.protocol.task_style() {
                    let shard = usize::from(v) % case.groups;
                    let mut value = shard_value(shard, u64::from(v));
                    if case.protocol == FuzzProtocol::Smr {
                        // A log must not see one command twice: the
                        // proposal's ordinal, above the value, makes
                        // each submission a command of its own.
                        value |= (proposed.len() as u64) << 32;
                    }
                    if groups[shard].propose(pid(a), value) {
                        proposed.push(value);
                    }
                }
            }
        }
    }

    RunReport {
        decide_log: groups
            .iter()
            .flat_map(|g| g.decide_log().iter().copied())
            .collect(),
        group_decides: groups.iter().map(|g| g.decide_log().len()).collect(),
        proposed,
        alive: groups[0].alive(),
        honest: victims.complement(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(protocol: FuzzProtocol, actions: Vec<Action>) -> FuzzCase {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        FuzzCase {
            protocol,
            cfg,
            values: vec![1, 2, 3],
            leader: ProcessId::new(0),
            ablations: Ablations::NONE,
            schedule: Schedule::from(actions),
            groups: 1,
            victims: ByzPlan::honest(0),
        }
    }

    #[test]
    fn empty_schedule_runs_clean() {
        for p in FuzzProtocol::ALL {
            let report = run_case(&case(p, vec![]));
            assert_eq!(report.alive.len(), 3);
            assert!(
                report.decide_log.is_empty(),
                "{p:?} decided with no deliveries"
            );
        }
    }

    #[test]
    fn crash_budget_is_enforced() {
        let report = run_case(&case(
            FuzzProtocol::Task,
            vec![Action::Crash(0), Action::Crash(1), Action::Crash(2)],
        ));
        // f = 1: only the first crash takes effect.
        assert_eq!(report.alive.len(), 2);
    }

    #[test]
    fn restart_frees_the_crash_budget() {
        let report = run_case(&case(
            FuzzProtocol::Task,
            vec![Action::Crash(0), Action::Restart(0), Action::Crash(1)],
        ));
        assert_eq!(report.alive.len(), 2);
        assert!(report.alive.contains(ProcessId::new(0)));
        assert!(!report.alive.contains(ProcessId::new(1)));
    }

    #[test]
    fn full_drain_decides_task_consensus() {
        // Deliver everything repeatedly: all three processes decide and
        // agree.
        let mut actions = Vec::new();
        for _ in 0..6 {
            for p in 0..3 {
                actions.push(Action::DeliverAllTo(p));
            }
        }
        let report = run_case(&case(FuzzProtocol::Task, actions));
        let decided: ProcessSet = report.decide_log.iter().map(|&(p, _)| p).collect();
        assert_eq!(decided.len(), 3);
        assert_eq!(twostep_types::judge::agreement(&report.decide_log), Ok(()));
    }

    #[test]
    fn value_encoding_roundtrips() {
        for shard in 0..8 {
            assert_eq!(shard_of_value(shard_value(shard, 42)), shard);
        }
    }

    fn sharded(actions: Vec<Action>) -> FuzzCase {
        FuzzCase {
            groups: 2,
            ..case(FuzzProtocol::Object, actions)
        }
    }

    #[test]
    fn a_proposal_goes_to_the_shard_its_value_names() {
        let mut actions = vec![Action::Propose(0, 4), Action::Propose(1, 7)];
        for _ in 0..4 {
            actions.extend((0..3).map(Action::DeliverAllTo));
        }
        let report = run_case(&sharded(actions));
        assert_eq!(report.proposed, [shard_value(0, 4), shard_value(1, 7)]);
        assert_eq!(report.group_decides, [3, 3]);
        let (even, odd) = report.decide_log.split_at(3);
        assert!(even.iter().all(|&(_, v)| v == shard_value(0, 4)));
        assert!(odd.iter().all(|&(_, v)| v == shard_value(1, 7)));
    }

    #[test]
    fn a_crash_takes_the_node_out_of_every_group() {
        // p1 proposes in both shards, then p0 — shard 0's leader and a
        // follower of shard 1 — is down for every delivery.
        let mut actions = vec![
            Action::Propose(1, 2),
            Action::Propose(1, 3),
            Action::Crash(0),
        ];
        for _ in 0..4 {
            actions.extend((0..3).map(Action::DeliverAllTo));
        }
        let report = run_case(&sharded(actions));
        assert_eq!(report.alive.len(), 2);
        assert!(!report.decide_log.is_empty());
        assert!(report
            .decide_log
            .iter()
            .all(|&(p, _)| p != ProcessId::new(0)));
    }

    #[test]
    fn message_operands_decode_across_groups_in_group_order() {
        // One proposal per shard puts two messages in each soup; index 2
        // is therefore shard 1's first, and dropping both of shard 1's
        // leaves shard 0 alone to decide.
        let mut actions = vec![
            Action::Propose(0, 0),
            Action::Propose(0, 1),
            Action::DropIdx(2),
            Action::DropIdx(2),
        ];
        for _ in 0..4 {
            actions.extend((0..3).map(Action::DeliverAllTo));
        }
        let report = run_case(&sharded(actions));
        assert_eq!(report.group_decides, [3, 0]);
    }

    #[test]
    fn victims_share_the_crash_budget() {
        let cfg = SystemConfig::new(4, 1, 1).unwrap();
        let mut c = case(
            FuzzProtocol::FastBft(ByzVariant::Fab),
            vec![Action::Crash(1)],
        );
        c.cfg = cfg;
        c.values = vec![1, 2, 3, 4];
        assert_eq!(run_case(&c).alive.len(), 3);
        // With p2 Byzantine the one tolerated fault is spent …
        c.victims = ByzPlan::honest(0).with(ProcessId::new(2), twostep_byz::ByzBehavior::Silence);
        let report = run_case(&c);
        assert_eq!(report.alive.len(), 4);
        assert_eq!(report.honest.len(), 3);
        // … except on the victim itself.
        c.schedule = vec![Action::Crash(2)].into();
        assert_eq!(run_case(&c).alive.len(), 3);
    }

    #[test]
    fn smr_commands_are_unique_per_submission() {
        let report = run_case(&case(
            FuzzProtocol::Smr,
            vec![Action::Propose(0, 5), Action::Propose(1, 5)],
        ));
        assert_eq!(report.proposed, [5, (1 << 32) | 5]);
    }

    #[test]
    fn deterministic_replay() {
        let actions = vec![
            Action::DeliverIdx(5),
            Action::Crash(2),
            Action::DeliverAllTo(0),
            Action::FireAllTimers(0),
            Action::DeliverAllTo(1),
        ];
        let a = run_case(&case(FuzzProtocol::Task, actions.clone()));
        let b = run_case(&case(FuzzProtocol::Task, actions));
        assert_eq!(a.decide_log, b.decide_log);
        assert_eq!(a.alive, b.alive);
    }
}
