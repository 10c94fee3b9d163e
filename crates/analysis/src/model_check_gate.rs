//! The `model-check` CI gate: exhaustive state-space exploration of the
//! two-step protocols at the paper's boundary configurations.
//!
//! For each `(e, f)` the gate sweeps `n = 2e+f−2 … 2e+f` — the window
//! bracketing both the task bound `n ≥ max{2e+f, 2f+1}` (Theorem 5) and
//! the object bound `n ≥ max{2e+f−1, 2f+1}` (Theorem 6):
//!
//! * at/above the bound the exploration must come back **clean and
//!   un-truncated** (a bounded-exhaustive safety proof for that
//!   configuration);
//! * strictly below the bound (where `SystemConfig` still accepts the
//!   triple) the checker must **find** an agreement violation — the
//!   executable "only if" direction, discovered by search rather than by
//!   the hand-built `twostep_verify::adversary` schedules — and emit it
//!   as a `twostep-fuzz --replay` command;
//! * unconstructible triples (`n < 2f+1`) are reported as skipped, never
//!   silently dropped.
//!
//! # Coverage caps (none silent)
//!
//! The `(e, f) = (1, 1)` family is explored fully: crash budgets up to
//! `f` plus one leader recovery ballot, from the unconstrained initial
//! state. The `(2, 2)` family is **staged**: sizing runs showed the
//! unconstrained `n = 5` space exceeds 10⁶ canonical states *without*
//! surfacing the deep below-bound violation (it needs two coordinated
//! crashes after a completed fast round), so those rows replay a
//! deterministic recorded adversary prefix — a contended fast round
//! driven to a fast decision, then `f = 2` crashes — and exhaustively
//! search every continuation (crash budget spent, one recovery ballot).
//! The prefix is recorded as content-keyed [`Step`]s, like the searched
//! suffix, so a violation found in the suffix still replays end-to-end
//! through `twostep-fuzz`: [`ManualExecutor::step`] takes both on a
//! fresh executor and prints each as its replay token. The caps are
//! printed in the report; a truncated suffix still fails the row.
//!
//! The sweep ends with the `FastBft` baseline at its `n = 3f+1`
//! Byzantine floor — pinned-leader mode, crash-only schedules (the
//! checker injects no equivocation; Byzantine behavior is covered by the
//! fuzzer's Byzantine campaign) and timer budget 0, i.e. the fast path
//! plus crash tolerance but not leader-change recovery, which is
//! state-space infeasible and documented as excluded — and a
//! reduction-ratio reference: the object `n = 4` configuration explored
//! with and without symmetry + partial-order reduction. The reduced leg
//! must complete un-truncated; the unreduced leg is capped (it would
//! take tens of millions of states), so when it truncates the measured
//! ratio is a **lower bound** on the true one, and the gate floor
//! [`MIN_REDUCTION_RATIO`] must still clear.
//!
//! [`run_seeded_broken`] is the inverted fixture: the object protocol
//! with the red-line guard ablated (`no_object_guard`), staged into a
//! contended fast round exactly as in the repo's directed tests. The
//! gate must go red on it, and prints the counterexample as a
//! `twostep-fuzz --replay` command so the violation is replayable
//! outside the checker.

use std::fmt::Write as _;
use std::time::Duration;

use twostep_baselines::FastBft;
use twostep_core::{Ablations, Msg, ObjectConsensus, OmegaMode, TaskConsensus, TwoStepBuilder};
use twostep_sim::schedule::{Action, Schedule};
use twostep_sim::{ManualExecutor, Step};
use twostep_types::protocol::{Protocol, TimerId};
use twostep_types::{ByzConfig, ByzVariant, ProcessId, ProcessSet, SystemConfig};
use twostep_verify::adversary::fast_round;
use twostep_verify::{CheckOutcome, ModelChecker};

/// The combined symmetry + POR reduction must shrink the visited-state
/// count by at least this factor on the reference configuration.
pub const MIN_REDUCTION_RATIO: f64 = 5.0;

/// State cap for the unreduced reference leg. The unreduced object
/// `n = 4` space does not finish in CI time (a probe run passed 16×10⁶
/// states without exhausting it), so the leg is capped here and the
/// reported ratio is a lower bound whenever the cap is hit.
pub const UNREDUCED_REFERENCE_CAP: usize = 6_000_000;

/// What a sweep row was expected to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// At/above the bound: exploration must be clean and un-truncated.
    Clean,
    /// Below the bound: the checker must find an agreement violation.
    Violation,
    /// `SystemConfig` rejects the triple (`n < 2f+1`): nothing to run.
    Unconstructible,
}

impl Expectation {
    fn label(self) -> &'static str {
        match self {
            Expectation::Clean => "clean",
            Expectation::Violation => "violation",
            Expectation::Unconstructible => "skip",
        }
    }
}

/// One boundary configuration's result.
#[derive(Debug, Clone)]
pub struct ConfigRow {
    /// Human-readable config label.
    pub label: String,
    /// What the bound arithmetic predicts.
    pub expect: Expectation,
    /// Whether the run matched the expectation.
    pub ok: bool,
    /// Distinct states visited (0 for skipped rows).
    pub states: usize,
    /// Whether the exploration hit its state cap.
    pub truncated: bool,
    /// Transitions, dedup hits, scrubbed messages.
    pub transitions: usize,
    /// Successors merged into visited states.
    pub deduped: usize,
    /// Inert messages dropped by POR.
    pub scrubbed: usize,
    /// Visited states per second.
    pub states_per_sec: f64,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// One-line outcome description.
    pub detail: String,
}

/// The reduction-ratio reference measurement.
#[derive(Debug, Clone)]
pub struct ReductionRow {
    /// Visited states without any reduction (capped at
    /// [`UNREDUCED_REFERENCE_CAP`]).
    pub unreduced_states: usize,
    /// Whether the unreduced leg hit its cap (the ratio is then a lower
    /// bound on the true reduction).
    pub unreduced_truncated: bool,
    /// Visited states with symmetry + POR.
    pub reduced_states: usize,
    /// `unreduced / reduced`.
    pub ratio: f64,
    /// Whether the ratio clears [`MIN_REDUCTION_RATIO`] with the
    /// reduced leg exhaustively clean.
    pub ok: bool,
}

/// Everything the gate produced.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// One row per boundary configuration.
    pub rows: Vec<ConfigRow>,
    /// The reduction reference run.
    pub reduction: ReductionRow,
}

impl GateOutcome {
    /// Whether every row matched its expectation and the reduction
    /// ratio cleared the floor.
    pub fn is_clean(&self) -> bool {
        self.rows.iter().all(|r| r.ok) && self.reduction.ok
    }

    /// Renders the report persisted under `results/` and uploaded by
    /// CI.
    pub fn render(&self, workers: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# e15: model-check gate — boundary sweep ({} worker{})",
            workers,
            if workers == 1 { "" } else { "s" }
        );
        let _ = writeln!(
            out,
            "# expectation per Theorems 5/6: task clean iff n >= max(2e+f, 2f+1), \
             object clean iff n >= max(2e+f-1, 2f+1)"
        );
        let _ = writeln!(
            out,
            "# coverage: (1,1) rows unconstrained (crash<=f, one recovery ballot); \
             (2,2) rows staged (recorded fast-round + f crashes prefix, exhaustive suffix); \
             fastbft pinned leader, timer budget 0 (recovery excluded)"
        );
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>9} {:>11} {:>9} {:>9} {:>10} {:>8}  result",
            "config", "expect", "states", "transitions", "deduped", "scrubbed", "states/s", "ms"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>9} {:>11} {:>9} {:>9} {:>10.0} {:>8}  {}",
                r.label,
                r.expect.label(),
                r.states,
                r.transitions,
                r.deduped,
                r.scrubbed,
                r.states_per_sec,
                r.elapsed.as_millis(),
                if r.ok {
                    format!("ok ({})", r.detail)
                } else {
                    format!("FAIL ({})", r.detail)
                }
            );
        }
        let red = &self.reduction;
        let _ = writeln!(
            out,
            "\n# reduction reference: object n=4 e=1 f=1, crash budget 1, leader timer budget 1"
        );
        if red.unreduced_truncated {
            let _ = writeln!(
                out,
                "unreduced states: {} (cap {UNREDUCED_REFERENCE_CAP} hit — ratio is a lower bound)",
                red.unreduced_states
            );
        } else {
            let _ = writeln!(out, "unreduced states: {}", red.unreduced_states);
        }
        let _ = writeln!(
            out,
            "reduced states:   {} (symmetry + POR)",
            red.reduced_states
        );
        let _ = writeln!(
            out,
            "reduction ratio:  {}{:.1}x (gate floor {MIN_REDUCTION_RATIO}x) — {}",
            if red.unreduced_truncated { ">=" } else { "" },
            red.ratio,
            if red.ok { "ok" } else { "FAIL" }
        );
        let _ = writeln!(
            out,
            "\ngate: {}",
            if self.is_clean() { "CLEAN" } else { "RED" }
        );
        out
    }
}

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn leader_only() -> ProcessSet {
    [p(0)].into_iter().collect()
}

/// Task-variant values for the unconstrained `(1, 1)` rows: the leader
/// proposes 10, everyone else 20 — two contending values with a maximal
/// symmetry orbit among the followers.
fn task_values(n: usize) -> Vec<u64> {
    (0..n).map(|i| if i == 0 { 10 } else { 20 }).collect()
}

fn task_executor(
    cfg: SystemConfig,
    values: Vec<u64>,
    leader: ProcessId,
) -> ManualExecutor<u64, TaskConsensus<u64>> {
    let mut ex = ManualExecutor::new(cfg, |q| {
        TwoStepBuilder::new(cfg)
            .omega(OmegaMode::Static(leader))
            .task(q, values[q.index()])
    });
    ex.start_all();
    ex
}

fn task_checker(f: usize, max_states: usize, workers: usize) -> ModelChecker {
    ModelChecker::new()
        .max_states(max_states)
        .max_crashes(f)
        .timer_budget(1, vec![TimerId::NEW_BALLOT])
        .timer_processes(leader_only())
        .workers(workers)
}

fn run_task(cfg: SystemConfig, max_states: usize, workers: usize) -> CheckOutcome {
    task_checker(cfg.f(), max_states, workers).run(cfg, &[10, 20], |cfg| {
        task_executor(cfg, task_values(cfg.n()), p(0))
    })
}

/// Object-variant executor: the leader proposes 10 and the last process
/// proposes 20 (two contenders, the rest stay passive).
fn object_executor(cfg: SystemConfig) -> ManualExecutor<u64, ObjectConsensus<u64>> {
    let last = p(cfg.n() as u32 - 1);
    let mut ex = ManualExecutor::new(cfg, |q| {
        TwoStepBuilder::new(cfg)
            .omega(OmegaMode::Static(p(0)))
            .object::<u64>(q)
    });
    ex.start_all();
    ex.propose(p(0), 10);
    ex.propose(last, 20);
    ex
}

fn run_object(cfg: SystemConfig, max_states: usize, workers: usize) -> CheckOutcome {
    task_checker(cfg.f(), max_states, workers).run(cfg, &[10, 20], object_executor)
}

/// `steps` as `twostep-fuzz --replay` tokens, taken on `ex`: a fresh
/// executor, never scrubbed, because the fuzzer addresses messages and
/// timers by their position in the whole soup. `None` if a step does not
/// apply.
fn replay_tokens<P: Protocol<u64>>(
    mut ex: ManualExecutor<u64, P>,
    steps: &[Step],
) -> Option<Vec<Action>> {
    steps.iter().map(|&step| ex.step(step)).collect()
}

/// Values for the staged `(2, 2)` task rows: `p1` contends with 20
/// against everyone else's 10.
fn staged_task_values(n: usize) -> Vec<u64> {
    (0..n).map(|i| if i == 1 { 20 } else { 10 }).collect()
}

/// Stages the `(2, 2)` task adversary (recording each step): `p0`'s
/// `Propose(10)` reaches `{p2, p3}` (they vote 10), `p1`'s
/// `Propose(20)` reaches `p0` and `p4..` (they vote 20 — the task
/// variant has no object guard, so 20 ≥ their initial suffices), the
/// returning votes give `p1` a fast quorum `n−e` and it fast-decides
/// 20, then both proposers `{p0, p1}` crash. The recovery leader is
/// `p2`, so at `n = 5` the slow quorum sees both crashed proposers
/// outside `Q`, includes all votes, and the `count > threshold` branch
/// resurrects 10 — the Theorem 5 violation. At `n = 6` the same prefix
/// is safe (the tally ties and the max-value tiebreak re-selects 20).
fn stage_task(cfg: SystemConfig) -> (ManualExecutor<u64, TaskConsensus<u64>>, Vec<Step>) {
    let n = cfg.n() as u32;
    let mut ex = task_executor(cfg, staged_task_values(cfg.n()), p(2));
    let mut rec = ex.deliver_where(|m| {
        m.from == p(0) && [p(2), p(3)].contains(&m.to) && matches!(m.msg, Msg::Propose(_))
    });
    let twenty_voters: Vec<ProcessId> = std::iter::once(p(0)).chain((4..n).map(p)).collect();
    rec.extend(fast_round(&mut ex, p(1), &twenty_voters));
    assert_eq!(
        ex.decision_of(p(1)),
        Some(&20),
        "staging must complete the fast path"
    );
    for victim in [p(0), p(1)] {
        ex.crash(victim);
        rec.push(Step::Crash(victim));
    }
    (ex, rec)
}

/// Stages the `(2, 2)` object adversary: `p1`'s `Propose(20)` reaches
/// the `n−e−1` passive processes `p3..`, their votes complete `p1`'s
/// fast quorum (20 decided), `p0`'s `Propose(10)` reaches `p2`, then
/// `p1` and the last voter crash. At the object bound (`n ≥ 2e+f−1`)
/// every continuation must re-select 20: the surviving voters' reports
/// name the crashed proposer `p1`, which recovery cannot place inside
/// its quorum, so the decided value stays visible.
fn stage_object(cfg: SystemConfig) -> ManualExecutor<u64, ObjectConsensus<u64>> {
    let n = cfg.n() as u32;
    let mut ex = ManualExecutor::new(cfg, |q| {
        TwoStepBuilder::new(cfg)
            .omega(OmegaMode::Static(p(0)))
            .object::<u64>(q)
    });
    ex.start_all();
    ex.propose(p(0), 10);
    ex.propose(p(1), 20);
    fast_round(&mut ex, p(1), &(3..n).map(p).collect::<Vec<_>>());
    assert_eq!(
        ex.decision_of(p(1)),
        Some(&20),
        "staging must complete the fast path"
    );
    ex.deliver_where(|m| m.from == p(0) && m.to == p(2) && matches!(m.msg, Msg::Propose(_)));
    for victim in [p(1), p(n - 1)] {
        ex.crash(victim);
    }
    ex
}

/// Suffix checker for the staged rows: the crash budget is spent by the
/// prefix, one recovery ballot at `recovery_leader`.
fn staged_checker(recovery_leader: ProcessId, max_states: usize, workers: usize) -> ModelChecker {
    ModelChecker::new()
        .max_states(max_states)
        .max_crashes(0)
        .timer_budget(1, vec![TimerId::NEW_BALLOT])
        .timer_processes([recovery_leader].into_iter().collect())
        .workers(workers)
}

/// Runs a staged task row. On violation, returns the full end-to-end
/// `twostep-fuzz` replay command (recorded prefix + searched suffix).
fn run_staged_task(
    cfg: SystemConfig,
    max_states: usize,
    workers: usize,
) -> (CheckOutcome, Option<String>) {
    let outcome =
        staged_checker(p(2), max_states, workers).run(cfg, &[10, 20], |cfg| stage_task(cfg).0);
    let replay = if let CheckOutcome::Violation { script, .. } = &outcome {
        let (_, prefix) = stage_task(cfg);
        let full: Vec<Step> = prefix.iter().chain(script.iter()).copied().collect();
        let values = staged_task_values(cfg.n());
        let csv = values
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        replay_tokens(task_executor(cfg, values, p(2)), &full).map(|tokens| {
            format!(
                "twostep-fuzz --protocol task --e {} --f {} --n {} --allow-below-bound \
                 --leader 2 --values {csv} --replay '{}'",
                cfg.e(),
                cfg.f(),
                cfg.n(),
                Schedule::from(tokens)
            )
        })
    } else {
        None
    };
    (outcome, replay)
}

fn run_staged_object(cfg: SystemConfig, max_states: usize, workers: usize) -> CheckOutcome {
    staged_checker(p(0), max_states, workers).run(cfg, &[10, 20], stage_object)
}

/// The `FastBft` baseline at the `n = 3f+1` Byzantine floor, in
/// pinned-leader mode (the heartbeat substrate off, as with the
/// two-step protocols' `OmegaMode::Static`), crash-only schedules, and
/// timer budget 0: the fast path plus crash tolerance. The leader-change
/// recovery dimension is excluded here (state-space infeasible) and
/// exercised by the fuzzer's Byzantine campaign instead.
fn run_fastbft(workers: usize) -> Result<CheckOutcome, String> {
    let byz = ByzConfig::new(4, 1, ByzVariant::Fab).map_err(|e| e.to_string())?;
    let sim = SystemConfig::new(byz.n(), byz.f(), byz.f()).map_err(|e| e.to_string())?;
    let outcome = ModelChecker::new()
        .max_states(1_000_000)
        .max_crashes(byz.f())
        .timer_budget(0, vec![TimerId::NEW_BALLOT])
        .timer_processes(leader_only())
        .workers(workers)
        .run(sim, &[10, 20], move |cfg| {
            let mut ex = ManualExecutor::new(cfg, |q| {
                FastBft::new(byz, q, if q.index() == 0 { 10u64 } else { 20 }).pinned_leader(p(0))
            });
            ex.start_all();
            ex
        });
    Ok(outcome)
}

fn row_from_outcome(
    label: String,
    expect: Expectation,
    outcome: &CheckOutcome,
    replay: Option<&str>,
) -> ConfigRow {
    let stats = outcome.stats();
    let (ok, truncated, detail) = match (expect, outcome) {
        (Expectation::Clean, CheckOutcome::Clean { truncated, .. }) => (
            !truncated,
            *truncated,
            if *truncated {
                "clean but TRUNCATED — not exhaustive".to_string()
            } else {
                "exhaustively clean".to_string()
            },
        ),
        (Expectation::Clean, CheckOutcome::Violation { report, .. }) => {
            (false, false, format!("unexpected violation: {report}"))
        }
        (Expectation::Violation, CheckOutcome::Violation { report, script, .. }) => {
            let mut detail = format!("found in {} steps: {report}", script.len());
            match replay {
                Some(cmd) => {
                    let _ = write!(detail, "; replay: {cmd}");
                }
                None => detail.push_str("; replay: TOKENIZATION FAILED"),
            }
            (replay.is_some(), false, detail)
        }
        (Expectation::Violation, CheckOutcome::Clean { truncated, .. }) => (
            false,
            *truncated,
            "below-bound violation NOT found".to_string(),
        ),
        (Expectation::Unconstructible, _) => unreachable!("skipped rows never run"),
    };
    ConfigRow {
        label,
        expect,
        ok,
        states: stats.states,
        truncated,
        transitions: stats.transitions,
        deduped: stats.deduped,
        scrubbed: stats.scrubbed,
        states_per_sec: stats.states_per_sec(),
        elapsed: stats.elapsed,
        detail,
    }
}

fn skipped_row(label: String) -> ConfigRow {
    ConfigRow {
        label,
        expect: Expectation::Unconstructible,
        ok: true,
        states: 0,
        truncated: false,
        transitions: 0,
        deduped: 0,
        scrubbed: 0,
        states_per_sec: 0.0,
        elapsed: Duration::ZERO,
        detail: "n < 2f+1, SystemConfig rejects".to_string(),
    }
}

/// Per-row state caps: generous for the unconstrained `(1, 1)` rows,
/// tight for the staged suffixes (measured in the low thousands).
const FULL_ROW_CAP: usize = 4_000_000;
const STAGED_ROW_CAP: usize = 2_000_000;

/// Runs the full boundary sweep plus the reduction reference.
pub fn run_gate(workers: usize) -> GateOutcome {
    let mut rows = Vec::new();
    for (e, f) in [(1usize, 1usize), (2, 2)] {
        let staged = f == 2;
        for n in (2 * e + f - 2)..=(2 * e + f) {
            let mode = if staged { "staged+search" } else { "crash<=1" };
            // Task variant.
            let task_label = format!("task   n={n} e={e} f={f} {mode}");
            match SystemConfig::new(n, e, f) {
                Err(_) => rows.push(skipped_row(task_label)),
                Ok(cfg) => {
                    let expect = if n >= (2 * e + f).max(2 * f + 1) {
                        Expectation::Clean
                    } else {
                        Expectation::Violation
                    };
                    let (outcome, replay) = if staged {
                        run_staged_task(cfg, STAGED_ROW_CAP, workers)
                    } else {
                        (run_task(cfg, FULL_ROW_CAP, workers), None)
                    };
                    rows.push(row_from_outcome(
                        task_label,
                        expect,
                        &outcome,
                        replay.as_deref(),
                    ));
                }
            }
            // Object variant.
            let obj_label = format!("object n={n} e={e} f={f} {mode}");
            match SystemConfig::new(n, e, f) {
                Err(_) => rows.push(skipped_row(obj_label)),
                Ok(cfg) => {
                    let expect = if n >= (2 * e + f - 1).max(2 * f + 1) {
                        Expectation::Clean
                    } else {
                        Expectation::Violation
                    };
                    let outcome = if staged {
                        run_staged_object(cfg, STAGED_ROW_CAP, workers)
                    } else {
                        run_object(cfg, FULL_ROW_CAP, workers)
                    };
                    rows.push(row_from_outcome(obj_label, expect, &outcome, None));
                }
            }
        }
    }
    // FastBft at the 3f+1 floor.
    let fb_label = "fastbft n=4 f=1 pinned, timer 0".to_string();
    match run_fastbft(workers) {
        Ok(outcome) => rows.push(row_from_outcome(
            fb_label,
            Expectation::Clean,
            &outcome,
            None,
        )),
        Err(e) => {
            let mut row = skipped_row(fb_label);
            row.ok = false;
            row.detail = format!("config error: {e}");
            rows.push(row);
        }
    }

    // Reduction reference: the object n = 4 configuration, explored
    // reduced (must complete) vs unreduced (capped — ratio is a lower
    // bound when the cap is hit).
    let cfg = SystemConfig::new(4, 1, 1).expect("n=4 e=1 f=1 is valid");
    let reduced = run_object(cfg, FULL_ROW_CAP, workers);
    let unreduced = task_checker(1, UNREDUCED_REFERENCE_CAP, workers)
        .symmetry(false)
        .por(false)
        .run(cfg, &[10, 20], object_executor);
    let (rs, us) = (reduced.stats().states, unreduced.stats().states);
    let ratio = if rs > 0 { us as f64 / rs as f64 } else { 0.0 };
    let reduced_exhaustive = matches!(
        reduced,
        CheckOutcome::Clean {
            truncated: false,
            ..
        }
    );
    let unreduced_clean = matches!(unreduced, CheckOutcome::Clean { .. });
    let unreduced_truncated = matches!(
        unreduced,
        CheckOutcome::Clean {
            truncated: true,
            ..
        }
    );
    let reduction = ReductionRow {
        unreduced_states: us,
        unreduced_truncated,
        reduced_states: rs,
        ratio,
        ok: reduced_exhaustive && unreduced_clean && ratio >= MIN_REDUCTION_RATIO,
    };
    GateOutcome { rows, reduction }
}

/// The seeded-broken fixture: `no_object_guard` at the object bound
/// (n = 5, e = f = 2), staged into a contended fast round with the
/// ablated guard letting `{p2, p3}` vote for `p4`'s value. The checker
/// must find the agreement violation in the continuations; CI runs this
/// with an inverted assertion.
///
/// Returns `(violation_found, report_text)`; the report includes the
/// full `twostep-fuzz --replay` command reproducing the violation
/// (staging prefix + searched suffix).
pub fn run_seeded_broken(workers: usize) -> (bool, String) {
    let cfg = SystemConfig::minimal_object(2, 2).expect("e=f=2 object config");

    let outcome = ModelChecker::new()
        .max_states(2_000_000)
        .timer_budget(1, vec![TimerId::NEW_BALLOT])
        .timer_processes(leader_only())
        .workers(workers)
        .run(cfg, &[0, 1], |cfg| stage_broken(cfg).0);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# seeded-broken fixture: object n={} e={} f={}, ablation no_object_guard",
        cfg.n(),
        cfg.e(),
        cfg.f()
    );
    match &outcome {
        CheckOutcome::Violation {
            report,
            script,
            states,
            stats,
        } => {
            let _ = writeln!(
                out,
                "violation found after {states} states ({:.0} states/s): {report}",
                stats.states_per_sec()
            );
            let _ = writeln!(out, "searched suffix: {} steps", script.len());
            // Full schedule = the deterministic staging prefix + the
            // searched suffix, tokenized against an *unstaged* executor
            // (start_all + the five proposals — exactly what the fuzzer
            // reconstructs from `p:` tokens).
            let (_, prefix) = stage_broken(cfg);
            let full: Vec<Step> = prefix.iter().chain(script.iter()).copied().collect();
            let (base, proposes) = base_broken(cfg);
            match replay_tokens(base, &full) {
                Some(tokens) => {
                    let _ = writeln!(
                        out,
                        "replay: twostep-fuzz --protocol object --e {} --f {} --n {} \
                         --ablate no_object_guard --leader 0 --replay '{}'",
                        cfg.e(),
                        cfg.f(),
                        cfg.n(),
                        Schedule::from([proposes, tokens].concat())
                    );
                }
                None => {
                    let _ = writeln!(out, "replay: TOKENIZATION FAILED (schedule/setup mismatch)");
                }
            }
        }
        CheckOutcome::Clean {
            states, truncated, ..
        } => {
            let _ = writeln!(
                out,
                "NO violation found ({states} states, truncated={truncated}) — \
                 the gate cannot detect seeded bugs"
            );
        }
    }
    (matches!(outcome, CheckOutcome::Violation { .. }), out)
}

/// The fixture's unstaged base system: object consensus with the guard
/// ablated, started, with the five proposals issued. Returns the
/// executor and the matching `p:A=V` fuzz actions.
fn base_broken(cfg: SystemConfig) -> (ManualExecutor<u64, ObjectConsensus<u64>>, Vec<Action>) {
    let mut ex = ManualExecutor::new(cfg, |q| {
        TwoStepBuilder::new(cfg)
            .omega(OmegaMode::Static(p(0)))
            .ablations(Ablations {
                no_object_guard: true,
                ..Ablations::NONE
            })
            .object::<u64>(q)
    });
    ex.start_all();
    let mut proposes = Vec::new();
    // E0 = {p0, p1} and F0 = {p2} propose 0; E1 = {p3, p4} propose 1.
    for i in 0..cfg.n() as u8 {
        let v = u8::from(usize::from(i) >= cfg.n() - cfg.e());
        ex.propose(p(u32::from(i)), u64::from(v));
        proposes.push(Action::Propose(i, v));
    }
    (ex, proposes)
}

/// Stages the contended fast round (recording each step): `p4` wins
/// the fast quorum through the ablated guard, `p0`/`p1` vote for `p2`'s
/// value, then `{p2, p4}` crash. The checker explores every
/// continuation.
fn stage_broken(cfg: SystemConfig) -> (ManualExecutor<u64, ObjectConsensus<u64>>, Vec<Step>) {
    let (mut ex, _) = base_broken(cfg);
    let mut rec = fast_round(&mut ex, p(4), &[p(2), p(3)]);
    assert_eq!(
        ex.decision_of(p(4)),
        Some(&1),
        "staging must complete the fast path"
    );
    rec.extend(ex.deliver_where(|m| {
        m.from == p(2) && [p(0), p(1)].contains(&m.to) && matches!(m.msg, Msg::Propose(_))
    }));
    for victim in [p(2), p(4)] {
        ex.crash(victim);
        rec.push(Step::Crash(victim));
    }
    (ex, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_broken_fixture_goes_red_with_replayable_counterexample() {
        let (found, report) = run_seeded_broken(1);
        assert!(found, "the gate must detect the seeded bug:\n{report}");
        assert!(
            report.contains("replay: twostep-fuzz --protocol object"),
            "counterexample must be emitted as a fuzz replay command:\n{report}"
        );
    }

    #[test]
    fn staged_task_below_bound_finds_real_violation() {
        let cfg = SystemConfig::new(5, 2, 2).unwrap();
        let (outcome, replay) = run_staged_task(cfg, STAGED_ROW_CAP, 1);
        match outcome {
            CheckOutcome::Violation { report, .. } => {
                assert!(
                    report.contains("agreement"),
                    "expected an agreement violation, got: {report}"
                );
            }
            CheckOutcome::Clean {
                states, truncated, ..
            } => panic!(
                "task n=5 e=2 f=2 staged adversary must violate Theorem 5 \
                 ({states} states, truncated={truncated})"
            ),
        }
        let replay = replay.expect("violation must tokenize into a fuzz replay command");
        assert!(
            replay.starts_with("twostep-fuzz --protocol task"),
            "bad replay command: {replay}"
        );
    }
}
