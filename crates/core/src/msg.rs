//! Wire messages of the two-step protocol (Figure 1).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use twostep_types::relabel::{RelabelHash, Relabeling};
use twostep_types::{Ballot, ProcessId};

/// Messages exchanged by [`crate::TwoStep`].
///
/// The names follow the paper (which follows Paxos): `1A`/`1B` prepare a
/// slow ballot, `2A`/`2B` vote in it; `Propose` and the fast-ballot `2B`
/// form the fast path; `Decide` disseminates decisions; `Heartbeat`
/// implements the Ω failure-detector substrate (§C.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Msg<V> {
    /// Fast-path proposal broadcast by a proposer (Figure 1 line 5).
    Propose(V),
    /// Ballot-joining request from a would-be leader (line 39).
    OneA(Ballot),
    /// State report answering a `1A` (line 31).
    OneB {
        /// The ballot being joined.
        bal: Ballot,
        /// Last ballot in which the sender voted.
        vbal: Ballot,
        /// The sender's current vote (`⊥` if none).
        val: Option<V>,
        /// Proposer of `val` (`⊥` if none) — drives the recovery rule's
        /// proposer-exclusion set `R`.
        proposer: Option<ProcessId>,
        /// The sender's decision (`⊥` if undecided).
        decided: Option<V>,
    },
    /// The leader's proposal for a slow ballot (line 63).
    TwoA(Ballot, V),
    /// A vote: in ballot 0 it answers a `Propose` (line 13); in slow
    /// ballots it answers a `2A` (line 69).
    TwoB(Ballot, V),
    /// Decision dissemination (line 20).
    Decide(V),
    /// Ω liveness beacon (§C.1 substrate).
    Heartbeat,
}

impl<V> Msg<V> {
    /// Whether this message belongs to the fast path.
    pub fn is_fast_path(&self) -> bool {
        matches!(self, Msg::Propose(_) | Msg::TwoB(Ballot::FAST, _))
    }

    /// The ballot carried by the message, if any.
    pub fn ballot(&self) -> Option<Ballot> {
        match self {
            Msg::OneA(b) | Msg::TwoA(b, _) | Msg::TwoB(b, _) => Some(*b),
            Msg::OneB { bal, .. } => Some(*bal),
            Msg::Propose(_) | Msg::Decide(_) | Msg::Heartbeat => None,
        }
    }
}

impl<V: Hash + std::fmt::Debug> RelabelHash for Msg<V> {
    /// Content hash with the embedded process ids (the `OneB` proposer
    /// and every ballot owner) mapped through `rl`. Ballots whose
    /// owner `rl` moves decline the permutation (see
    /// [`Relabeling::ballot`]); values are id-free and hash directly.
    fn relabel_hash(&self, rl: &Relabeling) -> Option<u64> {
        let mut h = DefaultHasher::new();
        match self {
            Msg::Propose(v) => {
                0u8.hash(&mut h);
                v.hash(&mut h);
            }
            Msg::OneA(b) => {
                1u8.hash(&mut h);
                rl.ballot(*b)?.hash(&mut h);
            }
            Msg::OneB {
                bal,
                vbal,
                val,
                proposer,
                decided,
            } => {
                2u8.hash(&mut h);
                rl.ballot(*bal)?.hash(&mut h);
                rl.ballot(*vbal)?.hash(&mut h);
                val.hash(&mut h);
                proposer.map(|p| rl.pid(p)).hash(&mut h);
                decided.hash(&mut h);
            }
            Msg::TwoA(b, v) => {
                3u8.hash(&mut h);
                rl.ballot(*b)?.hash(&mut h);
                v.hash(&mut h);
            }
            Msg::TwoB(b, v) => {
                4u8.hash(&mut h);
                rl.ballot(*b)?.hash(&mut h);
                v.hash(&mut h);
            }
            Msg::Decide(v) => {
                5u8.hash(&mut h);
                v.hash(&mut h);
            }
            Msg::Heartbeat => 6u8.hash(&mut h),
        }
        Some(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_classification() {
        assert!(Msg::Propose(1u64).is_fast_path());
        assert!(Msg::<u64>::TwoB(Ballot::FAST, 1).is_fast_path());
        assert!(!Msg::<u64>::TwoB(Ballot::new(3), 1).is_fast_path());
        assert!(!Msg::<u64>::OneA(Ballot::new(1)).is_fast_path());
        assert!(!Msg::<u64>::Heartbeat.is_fast_path());
    }

    #[test]
    fn ballot_extraction() {
        assert_eq!(
            Msg::<u64>::OneA(Ballot::new(4)).ballot(),
            Some(Ballot::new(4))
        );
        assert_eq!(
            Msg::<u64>::TwoA(Ballot::new(2), 9).ballot(),
            Some(Ballot::new(2))
        );
        assert_eq!(Msg::Propose(9u64).ballot(), None);
        assert_eq!(Msg::<u64>::Heartbeat.ballot(), None);
        let oneb = Msg::<u64>::OneB {
            bal: Ballot::new(7),
            vbal: Ballot::FAST,
            val: None,
            proposer: None,
            decided: None,
        };
        assert_eq!(oneb.ballot(), Some(Ballot::new(7)));
    }
}
