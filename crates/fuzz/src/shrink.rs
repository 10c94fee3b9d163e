//! Counterexample shrinking by delta debugging.
//!
//! Because every [`Action`] is total, any
//! subsequence of a failing schedule is itself a valid schedule, so
//! shrinking is plain ddmin (Zeller & Hildebrandt, *Simplifying and
//! Isolating Failure-Inducing Input*, TSE'02): repeatedly try to delete
//! chunks, halving the chunk size on a full unsuccessful sweep, and
//! finish with single-action sweeps until a fixpoint — the result is
//! 1-minimal (no single action can be removed without losing the
//! violation). Every candidate is re-executed from scratch, which the
//! deterministic [`run_case`] makes sound.

use crate::case::{run_case, FuzzCase};
use crate::oracle::check_safety;
use crate::schedule::{Action, Schedule};

/// The result of shrinking a failing case.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized schedule (still reproduces a safety violation).
    pub schedule: Schedule,
    /// How many schedule executions the search used.
    pub executions: usize,
    /// True if the execution budget ran out before reaching 1-minimality.
    pub gave_up: bool,
}

struct Shrinker<'a> {
    case: &'a FuzzCase,
    executions: usize,
    budget: usize,
}

impl Shrinker<'_> {
    fn reproduces(&mut self, actions: &[Action]) -> bool {
        self.executions += 1;
        let case = self.case.with_schedule(actions.to_vec());
        check_safety(case.protocol, &run_case(&case)).is_some()
    }

    fn exhausted(&self) -> bool {
        self.executions >= self.budget
    }
}

/// Minimizes `case.schedule` while preserving *some* safety violation
/// (not necessarily the original property: a schedule that shrinks from
/// an agreement violation into an integrity violation is still a bug
/// witness). The caller must pass a case whose full schedule fails;
/// `budget` caps the number of re-executions.
pub fn shrink(case: &FuzzCase, budget: usize) -> ShrinkOutcome {
    let mut s = Shrinker {
        case,
        executions: 0,
        budget,
    };
    let mut cur: Vec<Action> = case.schedule.actions.clone();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        if s.exhausted() {
            return ShrinkOutcome {
                schedule: cur.into(),
                executions: s.executions,
                gave_up: true,
            };
        }
        let mut reduced = false;
        let mut i = 0;
        while i < cur.len() && !s.exhausted() {
            let end = (i + chunk).min(cur.len());
            let candidate: Vec<Action> = cur[..i].iter().chain(&cur[end..]).copied().collect();
            if s.reproduces(&candidate) {
                // The deletion stuck; the next chunk slid into place at
                // the same index.
                cur = candidate;
                reduced = true;
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            if !reduced {
                break; // 1-minimal.
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    ShrinkOutcome {
        schedule: cur.into(),
        executions: s.executions,
        gave_up: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_byz::ByzPlan;
    use twostep_core::Ablations;
    use twostep_types::{ProcessId, SystemConfig};

    use crate::case::FuzzProtocol;

    // Shrinking of a *real* violation (the ablated recovery tie-break)
    // is exercised end-to-end in `tests/smoke.rs`; the unit tests here
    // cover only the search mechanics.

    #[test]
    fn shrink_of_non_failing_case_returns_quickly() {
        // A clean case never reproduces, so ddmin deletes everything it
        // can (every candidate fails to reproduce) and returns the
        // original schedule untouched.
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let case = FuzzCase {
            protocol: FuzzProtocol::Task,
            cfg,
            values: vec![1, 2, 3],
            leader: ProcessId::new(0),
            ablations: Ablations::NONE,
            schedule: vec![Action::DeliverAllTo(0), Action::DeliverAllTo(1)].into(),
            groups: 1,
            victims: ByzPlan::honest(0),
        };
        let out = shrink(&case, 100);
        assert!(!out.gave_up);
        assert_eq!(out.schedule.actions, case.schedule.actions);
    }

    #[test]
    fn budget_zero_gives_up_immediately() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        let case = FuzzCase {
            protocol: FuzzProtocol::Task,
            cfg,
            values: vec![1, 2, 3],
            leader: ProcessId::new(0),
            ablations: Ablations::NONE,
            schedule: vec![Action::DeliverAllTo(0)].into(),
            groups: 1,
            victims: ByzPlan::honest(0),
        };
        let out = shrink(&case, 0);
        assert!(out.gave_up);
        assert_eq!(out.executions, 0);
        assert_eq!(out.schedule.actions, case.schedule.actions);
    }
}
