//! Structured execution traces.

use twostep_types::protocol::TimerId;
use twostep_types::{ProcessId, Time, Value};

/// One observable event in a simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent<V> {
    /// A message left a process.
    MessageSent {
        /// Virtual time of the send.
        time: Time,
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Message kind label (enum variant name).
        kind: String,
    },
    /// A message was handed to its receiver.
    MessageDelivered {
        /// Virtual time of the delivery.
        time: Time,
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Message kind label.
        kind: String,
    },
    /// The network dropped a message (pre-GST only).
    MessageDropped {
        /// Virtual time of the send.
        time: Time,
        /// Sender.
        from: ProcessId,
        /// Intended receiver.
        to: ProcessId,
        /// Message kind label.
        kind: String,
    },
    /// A process crashed.
    Crashed {
        /// Virtual time of the crash.
        time: Time,
        /// The crashed process.
        process: ProcessId,
    },
    /// A crashed process rejoined with its pre-crash protocol state.
    Restarted {
        /// Virtual time of the restart.
        time: Time,
        /// The restarted process.
        process: ProcessId,
    },
    /// A timer fired at a process.
    TimerFired {
        /// Virtual time of expiry.
        time: Time,
        /// The process whose timer fired.
        process: ProcessId,
        /// Which timer.
        timer: TimerId,
    },
    /// A client proposal arrived at a process.
    Proposed {
        /// Virtual time of the proposal.
        time: Time,
        /// The proposing process.
        process: ProcessId,
        /// The proposed value.
        value: V,
    },
    /// A process decided.
    Decided {
        /// Virtual time of the decision.
        time: Time,
        /// The deciding process.
        process: ProcessId,
        /// The decided value.
        value: V,
    },
}

impl<V> TraceEvent<V> {
    /// The virtual time at which the event occurred.
    pub fn time(&self) -> Time {
        match self {
            TraceEvent::MessageSent { time, .. }
            | TraceEvent::MessageDelivered { time, .. }
            | TraceEvent::MessageDropped { time, .. }
            | TraceEvent::Crashed { time, .. }
            | TraceEvent::Restarted { time, .. }
            | TraceEvent::TimerFired { time, .. }
            | TraceEvent::Proposed { time, .. }
            | TraceEvent::Decided { time, .. } => *time,
        }
    }
}

/// A chronological record of everything that happened in a run.
///
/// Its [`Trace::decide_log`] is what [`twostep_types::judge`] checks
/// Agreement, Validity and Integrity over; the benchmark crate consumes
/// traces for message counts and latency distributions.
#[derive(Debug, Clone, Default)]
pub struct Trace<V> {
    events: Vec<TraceEvent<V>>,
}

impl<V: Value> Trace<V> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Appends an event. Events must be pushed in nondecreasing time
    /// order; this is checked in debug builds.
    pub fn push(&mut self, event: TraceEvent<V>) {
        debug_assert!(
            self.events
                .last()
                .is_none_or(|last| last.time() <= event.time()),
            "trace events must be chronological"
        );
        self.events.push(event);
    }

    /// All events, chronologically.
    pub fn events(&self) -> &[TraceEvent<V>] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All `(process, value, time)` decision events, in order.
    pub fn decisions(&self) -> Vec<(ProcessId, V, Time)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Decided {
                    time,
                    process,
                    value,
                } => Some((*process, value.clone(), *time)),
                _ => None,
            })
            .collect()
    }

    /// All `(process, value)` decision events, in order: the decide log
    /// that [`twostep_types::judge`] judges.
    pub fn decide_log(&self) -> Vec<(ProcessId, V)> {
        let log = self.decisions().into_iter();
        log.map(|(process, value, _)| (process, value)).collect()
    }

    /// All `(process, value)` proposal events, in order.
    pub fn proposals(&self) -> Vec<(ProcessId, V)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Proposed { process, value, .. } => Some((*process, value.clone())),
                _ => None,
            })
            .collect()
    }

    /// The first decision of `p`, if any.
    pub fn first_decision(&self, p: ProcessId) -> Option<(V, Time)> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::Decided {
                time,
                process,
                value,
            } if *process == p => Some((value.clone(), *time)),
            _ => None,
        })
    }

    /// Total number of messages sent.
    pub fn messages_sent(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::MessageSent { .. }))
            .count()
    }

    /// Number of messages sent whose kind label equals `kind`.
    pub fn messages_sent_of_kind(&self, kind: &str) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::MessageSent { kind: k, .. } if k == kind))
            .count()
    }

    /// Total number of messages dropped.
    pub fn messages_dropped(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::MessageDropped { .. }))
            .count()
    }

    /// The crash events `(process, time)`, in order.
    pub fn crashes(&self) -> Vec<(ProcessId, Time)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Crashed { time, process } => Some((*process, *time)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_types::Duration;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn trace_queries() {
        let mut t: Trace<u64> = Trace::new();
        t.push(TraceEvent::Proposed {
            time: Time::ZERO,
            process: p(0),
            value: 5,
        });
        t.push(TraceEvent::MessageSent {
            time: Time::ZERO,
            from: p(0),
            to: p(1),
            kind: "Propose".into(),
        });
        t.push(TraceEvent::Crashed {
            time: Time::ZERO,
            process: p(2),
        });
        t.push(TraceEvent::MessageDelivered {
            time: Time::ZERO + Duration::deltas(1),
            from: p(0),
            to: p(1),
            kind: "Propose".into(),
        });
        t.push(TraceEvent::Decided {
            time: Time::ZERO + Duration::deltas(2),
            process: p(0),
            value: 5,
        });

        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(
            t.decisions(),
            vec![(p(0), 5, Time::ZERO + Duration::deltas(2))]
        );
        assert_eq!(t.proposals(), vec![(p(0), 5)]);
        assert_eq!(
            t.first_decision(p(0)),
            Some((5, Time::ZERO + Duration::deltas(2)))
        );
        assert_eq!(t.first_decision(p(1)), None);
        assert_eq!(t.messages_sent(), 1);
        assert_eq!(t.messages_sent_of_kind("Propose"), 1);
        assert_eq!(t.messages_sent_of_kind("TwoB"), 0);
        assert_eq!(t.messages_dropped(), 0);
        assert_eq!(t.crashes(), vec![(p(2), Time::ZERO)]);
    }

    // The guard is a debug_assert, so the panic only exists in debug
    // builds; in release this test would fail for the wrong reason.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "chronological")]
    fn trace_rejects_time_travel_in_debug() {
        let mut t: Trace<u64> = Trace::new();
        t.push(TraceEvent::Crashed {
            time: Time::from_units(10),
            process: p(0),
        });
        t.push(TraceEvent::Crashed {
            time: Time::from_units(5),
            process: p(1),
        });
    }
}
