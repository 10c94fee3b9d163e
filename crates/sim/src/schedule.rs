//! The schedule language of `twostep-fuzz --replay`.
//!
//! A [`Schedule`] is a flat list of [`Action`]s interpreted against a
//! [`crate::ManualExecutor`] by the fuzzer, which re-exports this module
//! as `twostep_fuzz::schedule`. [`crate::ManualExecutor::step`] prints a
//! content-keyed [`crate::Step`] as the token that names it here.
//!
//! Every action is *total*: it decodes against whatever the executor
//! currently offers (pending messages, armed timers, alive processes)
//! and becomes a no-op when nothing matches. Totality is what makes
//! delta-debugging trivial — deleting any subsequence of a schedule
//! yields another valid schedule — and is the standard trick for
//! shrinkable schedule fuzzing.
//!
//! Process operands are raw `u8` indices reduced modulo `n` at decode
//! time; message/timer operands are reduced modulo the number of
//! currently matching candidates.

use std::fmt;
use std::str::FromStr;

/// One step of a fuzzed interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Deliver the oldest pending message `from → to`.
    DeliverFromTo(u8, u8),
    /// Deliver every pending message addressed to the process, in send
    /// order.
    DeliverAllTo(u8),
    /// Deliver the pending message at this index (mod the pending count).
    DeliverIdx(u16),
    /// Drop (lose) the oldest pending message `from → to`.
    DropFromTo(u8, u8),
    /// Drop the pending message at this index (mod the pending count).
    DropIdx(u16),
    /// Crash the process. Respects the crash budget: decodes to a no-op
    /// once `f` processes are simultaneously down.
    Crash(u8),
    /// Restart a crashed process with its pre-crash state.
    Restart(u8),
    /// Fire the armed timer at this index (mod the armed count) at the
    /// process.
    FireTimer(u8, u16),
    /// Fire every timer currently armed at the process.
    FireAllTimers(u8),
    /// Submit a client proposal of the value at the process
    /// (object-style protocols only; no-op for task-style).
    Propose(u8, u8),
}

/// An ordered sequence of actions — one fuzzed execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// The actions, executed front to back.
    pub actions: Vec<Action>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule {
            actions: Vec::new(),
        }
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the schedule has no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

impl From<Vec<Action>> for Schedule {
    fn from(actions: Vec<Action>) -> Self {
        Schedule { actions }
    }
}

// The compact wire format, used to print counterexamples and replay
// them via `--replay`:
//   d:A>B   DeliverFromTo     D:A     DeliverAllTo    i:K  DeliverIdx
//   x:A>B   DropFromTo        X:K     DropIdx
//   c:A     Crash             r:A     Restart
//   t:A.K   FireTimer         T:A     FireAllTimers
//   p:A=V   Propose
// Actions are space-separated.

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::DeliverFromTo(a, b) => write!(f, "d:{a}>{b}"),
            Action::DeliverAllTo(a) => write!(f, "D:{a}"),
            Action::DeliverIdx(k) => write!(f, "i:{k}"),
            Action::DropFromTo(a, b) => write!(f, "x:{a}>{b}"),
            Action::DropIdx(k) => write!(f, "X:{k}"),
            Action::Crash(a) => write!(f, "c:{a}"),
            Action::Restart(a) => write!(f, "r:{a}"),
            Action::FireTimer(a, k) => write!(f, "t:{a}.{k}"),
            Action::FireAllTimers(a) => write!(f, "T:{a}"),
            Action::Propose(a, v) => write!(f, "p:{a}={v}"),
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// Error parsing the compact schedule format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad schedule token: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl FromStr for Action {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseError(s.to_string());
        let (tag, rest) = s.split_once(':').ok_or_else(bad)?;
        let two = |sep: char| -> Result<(u8, u8), ParseError> {
            let (a, b) = rest.split_once(sep).ok_or_else(bad)?;
            Ok((a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?))
        };
        match tag {
            "d" => two('>').map(|(a, b)| Action::DeliverFromTo(a, b)),
            "D" => Ok(Action::DeliverAllTo(rest.parse().map_err(|_| bad())?)),
            "i" => Ok(Action::DeliverIdx(rest.parse().map_err(|_| bad())?)),
            "x" => two('>').map(|(a, b)| Action::DropFromTo(a, b)),
            "X" => Ok(Action::DropIdx(rest.parse().map_err(|_| bad())?)),
            "c" => Ok(Action::Crash(rest.parse().map_err(|_| bad())?)),
            "r" => Ok(Action::Restart(rest.parse().map_err(|_| bad())?)),
            "t" => {
                let (a, k) = rest.split_once('.').ok_or_else(bad)?;
                Ok(Action::FireTimer(
                    a.parse().map_err(|_| bad())?,
                    k.parse().map_err(|_| bad())?,
                ))
            }
            "T" => Ok(Action::FireAllTimers(rest.parse().map_err(|_| bad())?)),
            "p" => two('=').map(|(a, v)| Action::Propose(a, v)),
            _ => Err(bad()),
        }
    }
}

impl FromStr for Schedule {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let actions = s
            .split_whitespace()
            .map(Action::from_str)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Schedule { actions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_compact_format() {
        let sched = Schedule::from(vec![
            Action::DeliverFromTo(5, 3),
            Action::DeliverAllTo(0),
            Action::DeliverIdx(17),
            Action::DropFromTo(1, 2),
            Action::DropIdx(4),
            Action::Crash(5),
            Action::Restart(5),
            Action::FireTimer(0, 2),
            Action::FireAllTimers(3),
            Action::Propose(1, 7),
        ]);
        let text = sched.to_string();
        assert_eq!(text, "d:5>3 D:0 i:17 x:1>2 X:4 c:5 r:5 t:0.2 T:3 p:1=7");
        assert_eq!(text.parse::<Schedule>().unwrap(), sched);
    }

    #[test]
    fn rejects_garbage() {
        assert!("q:1".parse::<Action>().is_err());
        assert!("d:1".parse::<Action>().is_err());
        assert!("d:a>b".parse::<Action>().is_err());
        assert!("".parse::<Schedule>().unwrap().is_empty());
    }
}
