//! Safety oracles: the fuzzer's pass/fail judgement.
//!
//! Each group's honest decide log in a [`RunReport`] is converted to a
//! synthetic [`Trace`] of `Decided` events (the untimed
//! [`twostep_sim::ManualExecutor`] has no clock, so all events are
//! stamped `Time::ZERO`) and handed to the verification crate's
//! property checkers. Reusing `twostep-verify` as the oracle
//! means the fuzzer and the exhaustive model checker disagree about
//! correctness only if one of them mis-translates a run — never about
//! what "correct" means.

use std::collections::BTreeMap;

use twostep_sim::{Trace, TraceEvent};
use twostep_types::{ProcessId, ProcessSet, Time};
use twostep_verify::{check_agreement, check_integrity, check_termination, check_validity};

use crate::case::{shard_of_value, FuzzProtocol, RunReport};

/// A safety (or, when requested, liveness) violation found by the
/// oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Two processes decided different values.
    Agreement(String),
    /// A decided value was never proposed.
    Validity(String),
    /// A process decided more than once.
    Integrity(String),
    /// A live process failed to decide (only checked with `--liveness`).
    Termination(String),
}

impl Verdict {
    /// The violated property's name.
    pub fn property(&self) -> &'static str {
        match self {
            Verdict::Agreement(_) => "agreement",
            Verdict::Validity(_) => "validity",
            Verdict::Integrity(_) => "integrity",
            Verdict::Termination(_) => "termination",
        }
    }

    /// The oracle's explanation of the violation.
    pub fn detail(&self) -> &str {
        match self {
            Verdict::Agreement(d)
            | Verdict::Validity(d)
            | Verdict::Integrity(d)
            | Verdict::Termination(d) => d,
        }
    }

    /// Whether this is a safety violation (vs. a liveness one).
    pub fn is_safety(&self) -> bool {
        !matches!(self, Verdict::Termination(_))
    }

    /// The same verdict, its detail naming the shard it was found in
    /// when `report` has several.
    fn in_shard(mut self, shard: usize, report: &RunReport) -> Verdict {
        match &mut self {
            Verdict::Agreement(d)
            | Verdict::Validity(d)
            | Verdict::Integrity(d)
            | Verdict::Termination(d) => {
                if report.group_decides.len() > 1 {
                    *d = format!("shard {shard}: {d}");
                }
            }
        }
        self
    }
}

fn synthetic_trace(log: &[(ProcessId, u64)]) -> Trace<u64> {
    let mut trace = Trace::new();
    for &(process, value) in log {
        trace.push(TraceEvent::Decided {
            time: Time::ZERO,
            process,
            value,
        });
    }
    trace
}

/// Checks the protocol's safety properties on a run, most severe first
/// — the one oracle entry point, for every kind of case. Each group is
/// judged on its own, over its honest processes' decide events only.
/// With several groups a value decided outside its owning shard is
/// flagged first, and a verdict names its shard.
///
/// Agreement is only meaningful for single-decree protocols; EPaxosLite
/// commits one command *per proposer* (its `decide` event means "own
/// command committed"), so for it only Validity and Integrity apply,
/// and `Smr`'s decide events are the commands a replica applied: its
/// three properties are those of a log — one sequence that every
/// replica's is a prefix of, nothing unsubmitted, nothing twice.
pub fn check_safety(protocol: FuzzProtocol, report: &RunReport) -> Option<Verdict> {
    let sharded = report.group_decides.len() > 1;
    for (s, log) in report.judged().enumerate() {
        if sharded {
            if let Some(&(p, v)) = log.iter().find(|(_, v)| shard_of_value(*v) != s) {
                return Some(Verdict::Agreement(format!(
                    "{p} in shard {s} decided {v}, which belongs to shard {} — \
                     cross-shard leakage",
                    shard_of_value(v)
                )));
            }
        }
        // Leakage is ruled out, so a value in the pool with shard `s`'s
        // encoding was proposed to shard `s`: one pool serves all.
        let verdict = if protocol == FuzzProtocol::Smr {
            check_log(&log, &report.proposed)
        } else {
            check_decision(protocol, &log, &report.proposed)
        };
        if let Some(v) = verdict {
            return Some(v.in_shard(s, report));
        }
    }
    None
}

/// Agreement, Validity and Integrity of one group's single decision,
/// by `twostep-verify`'s checkers.
fn check_decision(
    protocol: FuzzProtocol,
    log: &[(ProcessId, u64)],
    proposed: &[u64],
) -> Option<Verdict> {
    let trace = synthetic_trace(log);
    if protocol != FuzzProtocol::EPaxos {
        if let Err(v) = check_agreement(&trace) {
            return Some(Verdict::Agreement(v.to_string()));
        }
    }
    if let Err(v) = check_validity(&trace, proposed) {
        return Some(Verdict::Validity(v.to_string()));
    }
    if let Err(v) = check_integrity(&trace) {
        return Some(Verdict::Integrity(v.to_string()));
    }
    None
}

/// The same three properties restated for a replicated log, whose
/// decide events are the commands each replica applied, in order:
/// every replica's sequence is a prefix of one sequence (Agreement),
/// every applied command was submitted (Validity), and no replica
/// applies a command twice (Integrity).
fn check_log(log: &[(ProcessId, u64)], proposed: &[u64]) -> Option<Verdict> {
    let mut applied: BTreeMap<ProcessId, Vec<u64>> = BTreeMap::new();
    for &(p, cmd) in log {
        applied.entry(p).or_default().push(cmd);
    }
    let (leader, longest) = applied.iter().max_by_key(|(_, seq)| seq.len())?;
    for (p, seq) in &applied {
        if !longest.starts_with(seq) {
            return Some(Verdict::Agreement(format!(
                "{p} applied {seq:?}, not a prefix of {leader}'s {longest:?}"
            )));
        }
    }
    if let Err(v) = check_validity(&synthetic_trace(log), proposed) {
        return Some(Verdict::Validity(v.to_string()));
    }
    // Prefixes of one sequence: a repeat anywhere is a repeat in it.
    let repeat = (1..longest.len()).find(|&i| longest[..i].contains(&longest[i]))?;
    Some(Verdict::Integrity(format!(
        "{leader} applied {:#x} twice",
        longest[repeat]
    )))
}

/// Checks that every honest process in `correct` decided, in every
/// group. Only meaningful after a schedule that drains all messages and
/// fires all timers; the runner gates this behind `--liveness` for that
/// reason.
pub fn check_liveness(report: &RunReport, correct: ProcessSet) -> Option<Verdict> {
    let correct = correct.intersection(report.honest);
    report.judged().enumerate().find_map(|(s, log)| {
        let v = check_termination(&synthetic_trace(&log), correct).err()?;
        Some(Verdict::Termination(v.to_string()).in_shard(s, report))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_core::Ablations;
    use twostep_types::{ByzVariant, SystemConfig};

    use crate::case::{run_case, shard_value};
    use crate::gen::gen_case;

    /// A report of `groups` given as `(process, value)` logs, over three
    /// honest, alive processes.
    fn report(groups: &[&[(u32, u64)]], proposed: Vec<u64>) -> RunReport {
        let all: ProcessSet = (0..3).map(ProcessId::new).collect();
        RunReport {
            decide_log: groups
                .iter()
                .flat_map(|g| g.iter().map(|&(p, v)| (ProcessId::new(p), v)))
                .collect(),
            group_decides: groups.iter().map(|g| g.len()).collect(),
            proposed,
            alive: all,
            honest: all,
        }
    }

    fn property(protocol: FuzzProtocol, r: &RunReport) -> Option<&'static str> {
        check_safety(protocol, r).map(|v| v.property())
    }

    #[test]
    fn clean_run_passes() {
        let r = report(&[&[(0, 7), (1, 7), (2, 7)]], vec![7, 8]);
        assert_eq!(check_safety(FuzzProtocol::Task, &r), None);
    }

    #[test]
    fn split_decision_is_agreement_violation() {
        let r = report(&[&[(0, 7), (1, 8)]], vec![7, 8]);
        let v = check_safety(FuzzProtocol::Task, &r).expect("should flag");
        assert_eq!(v.property(), "agreement");
        assert!(v.is_safety());
    }

    #[test]
    fn unproposed_value_is_validity_violation() {
        let r = report(&[&[(0, 9), (1, 9)]], vec![7, 8]);
        assert_eq!(property(FuzzProtocol::Task, &r), Some("validity"));
    }

    #[test]
    fn forged_decision_is_a_validity_violation() {
        // The only honest decide is a value nobody proposed (the forgery
        // bit pattern): Agreement holds vacuously, so it must be Validity.
        let r = report(&[&[(0, 0x8000_0000_0000_0001)]], vec![1, 2, 3]);
        let fab = FuzzProtocol::FastBft(ByzVariant::Fab);
        assert_eq!(property(fab, &r), Some("validity"));
    }

    #[test]
    fn double_decide_is_integrity_violation() {
        let r = report(&[&[(0, 7), (0, 7)]], vec![7]);
        assert_eq!(property(FuzzProtocol::Task, &r), Some("integrity"));
    }

    #[test]
    fn epaxos_tolerates_per_proposer_decisions() {
        // Each replica committing its own command is EPaxos's normal
        // outcome, not an agreement violation.
        let r = report(&[&[(0, 7), (1, 8)]], vec![7, 8]);
        assert_eq!(check_safety(FuzzProtocol::EPaxos, &r), None);
        // But double commits and unproposed commands still count.
        let r = report(&[&[(0, 7), (0, 7)]], vec![7]);
        assert_eq!(property(FuzzProtocol::EPaxos, &r), Some("integrity"));
    }

    #[test]
    fn groups_are_judged_apart() {
        // Two shards deciding different values is what sharding is for …
        let (a, b) = (shard_value(0, 4), shard_value(1, 7));
        let r = report(&[&[(0, a), (1, a)], &[(0, b), (2, b)]], vec![a, b]);
        assert_eq!(check_safety(FuzzProtocol::Object, &r), None);
        // … and a split inside one of them names it.
        let c = shard_value(1, 9);
        let r = report(&[&[(0, a)], &[(0, b), (2, c)]], vec![a, b, c]);
        let v = check_safety(FuzzProtocol::Object, &r).expect("shard 1 split");
        assert_eq!(v.property(), "agreement");
        assert!(v.detail().starts_with("shard 1: "), "{}", v.detail());
    }

    #[test]
    fn leaked_value_is_flagged() {
        // A shard-1 value decided inside shard 0, agreement intact.
        let (a, b) = (shard_value(0, 4), shard_value(1, 5));
        let r = report(&[&[(0, b), (1, b)], &[(2, b)]], vec![a, b]);
        let v = check_safety(FuzzProtocol::Object, &r).expect("leak must be flagged");
        assert!(v.detail().contains("cross-shard leakage"), "{}", v.detail());
        assert!(v.detail().contains("in shard 0"), "{}", v.detail());
    }

    #[test]
    fn byzantine_decisions_are_not_judged() {
        let cfg = SystemConfig::new(6, 1, 1).unwrap();
        let fab = FuzzProtocol::FastBft(ByzVariant::Fab);
        let case = gen_case(fab, cfg, Ablations::NONE, 5);
        let (victim, _) = case.victims.byzantine().next().expect("one victim");
        let mut r = run_case(&case);
        assert!(!r.honest.contains(victim));
        let before = check_safety(fab, &r);
        r.decide_log.push((victim, u64::MAX));
        r.group_decides[0] += 1;
        assert_eq!(check_safety(fab, &r), before, "traitor claims are ignored");
        // The same claim from an honest process is a violation.
        r.honest.insert(victim);
        assert!(check_safety(fab, &r).is_some());
    }

    #[test]
    fn a_log_is_judged_as_a_log() {
        // Replicas at different lengths of one sequence: clean — where a
        // single-decree oracle would call the second command a split.
        let r = report(&[&[(0, 1), (1, 1), (0, 2), (2, 1), (1, 2)]], vec![1, 2]);
        assert_eq!(check_safety(FuzzProtocol::Smr, &r), None);
        assert_eq!(property(FuzzProtocol::Object, &r), Some("agreement"));
        // Two replicas applying the same commands in different orders.
        let r = report(&[&[(0, 1), (0, 2), (1, 2), (1, 1)]], vec![1, 2]);
        assert_eq!(property(FuzzProtocol::Smr, &r), Some("agreement"));
        let r = report(&[&[(0, 1), (0, 3)]], vec![1, 2]);
        assert_eq!(property(FuzzProtocol::Smr, &r), Some("validity"));
        let r = report(&[&[(0, 1), (0, 2), (0, 1)]], vec![1, 2]);
        assert_eq!(property(FuzzProtocol::Smr, &r), Some("integrity"));
    }

    #[test]
    fn liveness_flags_silent_live_process() {
        let r = report(&[&[(0, 7), (1, 7)]], vec![7]);
        let v = check_liveness(&r, r.alive).expect("p2 never decided");
        assert_eq!(v.property(), "termination");
        assert!(!v.is_safety());
        // A silent traitor is nobody's liveness problem.
        let mut r = r;
        r.honest.remove(ProcessId::new(2));
        assert_eq!(check_liveness(&r, r.alive), None);
    }
}
