//! Safety oracles: the fuzzer's pass/fail judgement.
//!
//! Each group's honest decide log in a [`RunReport`] is handed to
//! [`twostep_types::judge`], the specification the model checker, the
//! simulator and the runtime judge by too: the fuzzer and the exhaustive
//! model checker disagree about correctness only if one of them
//! mis-translates a run — never about what "correct" means.

use twostep_types::judge::{self, Violation};
use twostep_types::ProcessSet;

use crate::case::{shard_of_value, FuzzProtocol, RunReport};

/// A safety (or, when requested, liveness) violation found by the
/// oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    property: &'static str,
    detail: String,
}

impl Verdict {
    /// The verdict on `v`, found in group `shard` of `report`: its
    /// detail names the shard when `report` has several.
    fn of(v: Violation<u64>, shard: usize, report: &RunReport) -> Verdict {
        let mut detail = v.to_string();
        if report.group_decides.len() > 1 {
            detail = format!("shard {shard}: {detail}");
        }
        Verdict {
            property: v.property(),
            detail,
        }
    }

    /// The violated property's name: `agreement`, `validity`,
    /// `integrity` or `termination`.
    pub fn property(&self) -> &'static str {
        self.property
    }

    /// The oracle's explanation of the violation.
    pub fn detail(&self) -> &str {
        &self.detail
    }

    /// Whether this is a safety violation (vs. a liveness one).
    pub fn is_safety(&self) -> bool {
        self.property != "termination"
    }
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
/// and `Smr`'s decide events are the commands a replica applied, judged
/// as a log by [`judge::log`].
pub fn check_safety(protocol: FuzzProtocol, report: &RunReport) -> Option<Verdict> {
    let sharded = report.group_decides.len() > 1;
    for (s, log) in report.judged().enumerate() {
        if sharded {
            if let Some(&(p, v)) = log.iter().find(|(_, v)| shard_of_value(*v) != s) {
                return Some(Verdict {
                    property: "agreement",
                    detail: format!(
                        "{p} in shard {s} decided {v}, which belongs to shard {} — \
                         cross-shard leakage",
                        shard_of_value(v)
                    ),
                });
            }
        }
        // Leakage is ruled out, so a value in the pool with shard `s`'s
        // encoding was proposed to shard `s`: one pool serves all.
        let proposed = &report.proposed;
        let verdict = if protocol == FuzzProtocol::Smr {
            judge::log(&log, proposed)
        } else if protocol == FuzzProtocol::EPaxos {
            judge::validity(&log, proposed).and_then(|()| judge::integrity(&log))
        } else {
            judge::decision(&log, proposed)
        };
        if let Err(v) = verdict {
            return Some(Verdict::of(v, s, report));
        }
    }
    None
}

/// Checks that every honest process in `correct` decided, in every
/// group. Only meaningful after a schedule that drains all messages and
/// fires all timers; the runner gates this behind `--liveness` for that
/// reason.
pub fn check_liveness(report: &RunReport, correct: ProcessSet) -> Option<Verdict> {
    let correct = correct.intersection(report.honest);
    report.judged().enumerate().find_map(|(s, log)| {
        let v = judge::termination(&log, correct).err()?;
        Some(Verdict::of(v, s, report))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_core::Ablations;
    use twostep_types::{ByzVariant, ProcessId, SystemConfig};

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
