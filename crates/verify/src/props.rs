//! Trace checkers for the consensus task specification (§2).

use std::fmt;

use twostep_sim::Trace;
use twostep_types::{ProcessId, ProcessSet, Value};

/// A violated consensus property, with the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation<V> {
    /// Two different values were decided.
    Agreement {
        /// First decision observed.
        first: (ProcessId, V),
        /// The conflicting decision.
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

impl<V: fmt::Debug> fmt::Display for Violation<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Agreement { first, conflicting } => write!(
                f,
                "agreement violated: {} decided {:?} but {} decided {:?}",
                first.0, first.1, conflicting.0, conflicting.1
            ),
            Violation::Validity { process, value } => {
                write!(
                    f,
                    "validity violated: {process} decided unproposed value {value:?}"
                )
            }
            Violation::Integrity { process, times } => {
                write!(f, "integrity violated: {process} decided {times} times")
            }
            Violation::Termination { undecided } => {
                write!(f, "termination violated: {undecided} never decided")
            }
        }
    }
}

/// Checks Agreement over **every** decide event in the trace (including
/// re-decisions and decisions by processes that later crashed — the
/// paper's Agreement is uniform).
pub fn check_agreement<V: Value>(trace: &Trace<V>) -> Result<(), Violation<V>> {
    let decisions = trace.decisions();
    let Some((p0, v0, _)) = decisions.first() else {
        return Ok(());
    };
    for (p, v, _) in &decisions[1..] {
        if v != v0 {
            return Err(Violation::Agreement {
                first: (*p0, v0.clone()),
                conflicting: (*p, v.clone()),
            });
        }
    }
    Ok(())
}

/// Checks Validity: every decided value is among `proposed`.
///
/// `proposed` should contain the values that actually *entered the
/// system* — for task protocols, the initial values of processes that
/// took at least one step; for object protocols, the arguments of
/// `propose` invocations.
pub fn check_validity<V: Value>(trace: &Trace<V>, proposed: &[V]) -> Result<(), Violation<V>> {
    for (p, v, _) in trace.decisions() {
        if !proposed.contains(&v) {
            return Err(Violation::Validity {
                process: p,
                value: v,
            });
        }
    }
    Ok(())
}

/// Checks Integrity: each process decides at most once.
pub fn check_integrity<V: Value>(trace: &Trace<V>) -> Result<(), Violation<V>> {
    let decisions = trace.decisions();
    for p in decisions.iter().map(|(p, _, _)| *p).collect::<ProcessSet>() {
        let times = decisions.iter().filter(|(q, _, _)| *q == p).count();
        if times > 1 {
            return Err(Violation::Integrity { process: p, times });
        }
    }
    Ok(())
}

/// Checks Termination: every process in `correct` decided.
pub fn check_termination<V: Value>(
    trace: &Trace<V>,
    correct: ProcessSet,
) -> Result<(), Violation<V>> {
    let deciders: ProcessSet = trace.decisions().iter().map(|(p, _, _)| *p).collect();
    let undecided = correct.difference(deciders);
    if undecided.is_empty() {
        Ok(())
    } else {
        Err(Violation::Termination { undecided })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_sim::TraceEvent;
    use twostep_types::Time;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn decided(tr: &mut Trace<u64>, i: u32, v: u64, t: u64) {
        tr.push(TraceEvent::Decided {
            time: Time::from_units(t),
            process: p(i),
            value: v,
        });
    }

    #[test]
    fn clean_trace_passes_everything() {
        let mut tr: Trace<u64> = Trace::new();
        decided(&mut tr, 0, 5, 1000);
        decided(&mut tr, 1, 5, 2000);
        let correct: ProcessSet = [p(0), p(1)].into_iter().collect();
        assert!(check_agreement(&tr).is_ok());
        assert!(check_validity(&tr, &[5, 9]).is_ok());
        assert!(check_integrity(&tr).is_ok());
        assert!(check_termination(&tr, correct).is_ok());
    }

    #[test]
    fn agreement_violation_reported_with_evidence() {
        let mut tr: Trace<u64> = Trace::new();
        decided(&mut tr, 0, 5, 1000);
        decided(&mut tr, 1, 6, 2000);
        let err = check_agreement(&tr).unwrap_err();
        assert_eq!(
            err,
            Violation::Agreement {
                first: (p(0), 5),
                conflicting: (p(1), 6)
            }
        );
        assert!(err.to_string().contains("agreement violated"));
    }

    #[test]
    fn validity_catches_invented_values() {
        let mut tr: Trace<u64> = Trace::new();
        decided(&mut tr, 0, 42, 1000);
        assert!(check_validity(&tr, &[42]).is_ok());
        let err = check_validity(&tr, &[1, 2]).unwrap_err();
        assert_eq!(
            err,
            Violation::Validity {
                process: p(0),
                value: 42
            }
        );
    }

    #[test]
    fn integrity_catches_double_decision() {
        let mut tr: Trace<u64> = Trace::new();
        decided(&mut tr, 0, 5, 1000);
        decided(&mut tr, 0, 5, 2000);
        let err = check_integrity(&tr).unwrap_err();
        assert_eq!(
            err,
            Violation::Integrity {
                process: p(0),
                times: 2
            }
        );
    }

    #[test]
    fn termination_lists_stragglers() {
        let mut tr: Trace<u64> = Trace::new();
        decided(&mut tr, 0, 5, 1000);
        let correct: ProcessSet = [p(0), p(1), p(2)].into_iter().collect();
        let err = check_termination(&tr, correct).unwrap_err();
        let Violation::Termination { undecided } = err else {
            panic!("wrong violation kind")
        };
        assert_eq!(undecided.len(), 2);
        assert!(undecided.contains(p(1)) && undecided.contains(p(2)));
    }

    #[test]
    fn empty_trace_is_vacuously_safe() {
        let tr: Trace<u64> = Trace::new();
        assert!(check_agreement(&tr).is_ok());
        assert!(check_validity(&tr, &[]).is_ok());
        assert!(check_integrity(&tr).is_ok());
        assert!(check_termination(&tr, ProcessSet::new()).is_ok());
    }
}
