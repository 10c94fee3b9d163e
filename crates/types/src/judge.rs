//! The consensus specification (§2), written once: every executor — the
//! simulator, the model checker, the fuzzer and the threaded runtime —
//! judges its runs here, by their *decide log*: every `decide` event, as
//! `(process, value)`, in the order it happened, re-decisions and
//! decisions of processes that later crashed included.
//!
//! ```rust
//! use twostep_types::judge::{self, Violation};
//! use twostep_types::ProcessId;
//!
//! let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
//! assert_eq!(judge::decision(&[(p0, 5), (p1, 5)], &[5, 9]), Ok(()));
//! let split = judge::agreement(&[(p0, 5), (p1, 6)]).unwrap_err();
//! assert_eq!(split, Violation::Agreement { first: (p0, 5), conflicting: (p1, 6) });
//! assert_eq!(split.to_string(), "agreement violated: p0 decided 5, p1 decided 6");
//! ```

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::Hash;

use crate::{ProcessId, ProcessSet};

/// A violated consensus property, with the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation<V> {
    /// Two different values were decided.
    Agreement {
        /// The first decision of the log.
        first: (ProcessId, V),
        /// The first decision that differs from it.
        conflicting: (ProcessId, V),
    },
    /// A decided value was never proposed.
    Validity {
        /// The offending decider.
        process: ProcessId,
        /// The unproposed value it decided.
        value: V,
    },
    /// A process decided more than once.
    Integrity {
        /// The offending process.
        process: ProcessId,
        /// How many decide events it produced.
        times: usize,
    },
    /// A correct process never decided.
    Termination {
        /// The processes that should have decided but did not.
        undecided: ProcessSet,
    },
}

impl<V> Violation<V> {
    /// The violated property's name: `agreement`, `validity`,
    /// `integrity` or `termination`.
    pub fn property(&self) -> &'static str {
        match self {
            Violation::Agreement { .. } => "agreement",
            Violation::Validity { .. } => "validity",
            Violation::Integrity { .. } => "integrity",
            Violation::Termination { .. } => "termination",
        }
    }
}

impl<V: fmt::Debug> fmt::Display for Violation<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Agreement { first, conflicting } => write!(
                f,
                "agreement violated: {} decided {:?}, {} decided {:?}",
                first.0, first.1, conflicting.0, conflicting.1
            ),
            Violation::Validity { process, value } => write!(
                f,
                "validity violated: {process} decided unproposed value {value:?}"
            ),
            Violation::Integrity { process, times } => {
                write!(f, "integrity violated: {process} decided {times} times")
            }
            Violation::Termination { undecided } => {
                write!(f, "termination violated: {undecided} never decided")
            }
        }
    }
}

/// Agreement, which is uniform: every decide event of `log` carries the
/// first one's value.
pub fn agreement<V: Clone + PartialEq>(log: &[(ProcessId, V)]) -> Result<(), Violation<V>> {
    let Some((p, v)) = log.first() else {
        return Ok(());
    };
    match log.iter().find(|(_, w)| w != v) {
        Some((q, w)) => Err(Violation::Agreement {
            first: (*p, v.clone()),
            conflicting: (*q, w.clone()),
        }),
        None => Ok(()),
    }
}

/// Validity: every decided value is among `proposed`, the values that
/// entered the system (a task's initial values of processes that took a
/// step; an object's `propose` arguments; a log's submitted commands).
pub fn validity<V: Clone + PartialEq>(
    log: &[(ProcessId, V)],
    proposed: &[V],
) -> Result<(), Violation<V>> {
    match log.iter().find(|(_, v)| !proposed.contains(v)) {
        Some((process, value)) => Err(Violation::Validity {
            process: *process,
            value: value.clone(),
        }),
        None => Ok(()),
    }
}

/// Integrity: each process decides at most once. The evidence names the
/// lowest such process.
pub fn integrity<V>(log: &[(ProcessId, V)]) -> Result<(), Violation<V>> {
    let times = |p| log.iter().filter(|(q, _)| *q == p).count();
    let deciders: ProcessSet = log.iter().map(|(p, _)| *p).collect();
    match deciders.into_iter().find(|&p| times(p) > 1) {
        Some(process) => Err(Violation::Integrity {
            process,
            times: times(process),
        }),
        None => Ok(()),
    }
}

/// Termination: every process in `correct` decided.
pub fn termination<V>(log: &[(ProcessId, V)], correct: ProcessSet) -> Result<(), Violation<V>> {
    let undecided = correct.difference(log.iter().map(|(p, _)| *p).collect());
    if undecided.is_empty() {
        return Ok(());
    }
    Err(Violation::Termination { undecided })
}

/// The safety of one decision: [`agreement`], then [`validity`], then
/// [`integrity`].
pub fn decision<V: Clone + PartialEq>(
    log: &[(ProcessId, V)],
    proposed: &[V],
) -> Result<(), Violation<V>> {
    agreement(log)?;
    validity(log, proposed)?;
    integrity(log)
}

/// The same three properties for a replicated log, whose decide events
/// are the commands each replica applied, in order: every replica's
/// sequence is a prefix of one sequence (Agreement, its evidence the
/// first position where a replica departs from the longest sequence),
/// every applied command was `submitted` (Validity), and no replica
/// applies a command twice (Integrity).
pub fn log<V: Clone + Eq + Hash>(
    applied: &[(ProcessId, V)],
    submitted: &[V],
) -> Result<(), Violation<V>> {
    let mut replicas: BTreeMap<ProcessId, Vec<&V>> = BTreeMap::new();
    for (p, cmd) in applied {
        replicas.entry(*p).or_default().push(cmd);
    }
    let Some((leader, longest)) = replicas.iter().max_by_key(|(_, seq)| seq.len()) else {
        return Ok(());
    };
    for (p, seq) in &replicas {
        if let Some((mine, theirs)) = seq.iter().zip(longest).find(|(a, b)| a != b) {
            return Err(Violation::Agreement {
                first: (*leader, (*theirs).clone()),
                conflicting: (*p, (*mine).clone()),
            });
        }
    }
    validity(applied, submitted)?;
    for (p, seq) in &replicas {
        let mut seen = HashSet::new();
        if let Some(cmd) = seq.iter().find(|cmd| !seen.insert(**cmd)) {
            return Err(Violation::Integrity {
                process: *p,
                times: seq.iter().filter(|c| *c == cmd).count(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn clean_and_empty_logs_pass() {
        let both: ProcessSet = [p(0), p(1)].into_iter().collect();
        assert_eq!(decision(&[(p(0), 5), (p(1), 5)], &[5, 9]), Ok(()));
        assert_eq!(termination(&[(p(0), 5), (p(1), 5)], both), Ok(()));
        assert_eq!(decision::<u64>(&[], &[]), Ok(()));
        assert_eq!(log::<u64>(&[], &[]), Ok(()));
        assert_eq!(termination::<u64>(&[], ProcessSet::new()), Ok(()));
    }

    #[test]
    fn agreement_is_uniform_over_re_decisions() {
        // No two processes' first decisions differ, yet p0's re-decision
        // violates Agreement.
        let log = [(p(0), 1), (p(1), 1), (p(0), 2)];
        let conflict = Violation::Agreement {
            first: (p(0), 1),
            conflicting: (p(0), 2),
        };
        assert_eq!(agreement(&log), Err(conflict));
    }

    #[test]
    fn decision_reports_agreement_then_validity_then_integrity() {
        let log = [(p(0), 9), (p(0), 9), (p(1), 8)];
        assert_eq!(decision(&log, &[8]).unwrap_err().property(), "agreement");
        let log = [(p(2), 9), (p(1), 9), (p(2), 9), (p(1), 9), (p(1), 9)];
        let invented = Violation::Validity {
            process: p(2),
            value: 9,
        };
        assert_eq!(decision(&log, &[8]), Err(invented));
        let repeat = Violation::Integrity {
            process: p(1),
            times: 3,
        };
        assert_eq!(decision(&log, &[9]), Err(repeat));
    }

    #[test]
    fn termination_lists_stragglers() {
        let all: ProcessSet = [p(0), p(1), p(2)].into_iter().collect();
        let undecided = [p(1), p(2)].into_iter().collect();
        let err = termination(&[(p(0), 5)], all).unwrap_err();
        assert_eq!(err, Violation::Termination { undecided });
        assert_eq!(
            err.to_string(),
            "termination violated: {p1,p2} never decided"
        );
    }

    #[test]
    fn a_log_is_judged_as_a_log() {
        // Replicas at different lengths of one sequence: clean, where
        // single-decision Agreement calls the second command a split.
        let log = [(p(0), 1), (p(1), 1), (p(0), 2), (p(2), 1), (p(1), 2)];
        assert_eq!(self::log(&log, &[1, 2]), Ok(()));
        assert!(agreement(&log).is_err());
        // Two replicas applying the same commands in different orders:
        // the evidence is the first position where they part.
        let log = [(p(0), 1), (p(0), 2), (p(1), 2), (p(1), 1)];
        let parted = Violation::Agreement {
            first: (p(1), 2),
            conflicting: (p(0), 1),
        };
        assert_eq!(self::log(&log, &[1, 2]), Err(parted));
        let log = [(p(0), 1), (p(0), 2), (p(0), 1)];
        assert_eq!(
            self::log(&log, &[1, 2]).unwrap_err().property(),
            "integrity"
        );
    }
}
