//! Quorum sizes and the vote-tallying helpers that compare against them.
//!
//! Both the paper's protocol and the baselines repeatedly perform the
//! same two aggregation steps:
//!
//! * count, per value, which processes voted for it in a ballot
//!   ([`VoteTally`]) — used by fast-path deciders and by the recovery
//!   rule's `|S| > n-f-e` / `|S| = n-f-e` cases;
//! * collect one reply per process ([`Collector`]) — used to assemble a
//!   `1B` quorum of size `n-f`.
//!
//! Both compare a count against a [`Quorum`].

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use crate::{ProcessId, ProcessSet, Value};

/// A quorum size: how many distinct processes a protocol step must
/// hear from.
///
/// Only [`crate::SystemConfig`] and [`crate::ByzConfig`] make one, so
/// every size in the protocols is one of the paper's formulas (`n-e`,
/// `n-f`, `n-f-e`, FaB's `⌈(n+3f±1)/2⌉`, `f+1`). A `Quorum` compares
/// with a count from either side, and that is all it does: it
/// implements no arithmetic operator, so an off-by-one on a bound —
/// how a below-bound deployment loses agreement — does not compile,
/// whether or not the size went through a `let` first:
///
/// ```compile_fail,E0369
/// let cfg = twostep_types::SystemConfig::new(5, 2, 2).unwrap();
/// let _ = cfg.fast_quorum() - 1;
/// ```
///
/// ```compile_fail,E0369
/// let cfg = twostep_types::SystemConfig::new(5, 2, 2).unwrap();
/// let threshold = cfg.recovery_threshold();
/// let _ = threshold + 1;
/// ```
///
/// Comparisons read as they would on a plain count:
///
/// ```rust
/// let cfg = twostep_types::SystemConfig::new(5, 2, 2)?;
/// let votes = 3usize;
/// assert!(votes >= cfg.fast_quorum());
/// assert!(votes > cfg.recovery_threshold());
/// assert_eq!(cfg.slow_quorum(), 3);
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
///
/// Code whose job *is* quorum arithmetic (the bound checkers, the
/// experiment tables) reads the count through [`Quorum::size`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quorum(usize);

impl Quorum {
    pub(crate) const fn new(size: usize) -> Self {
        Quorum(size)
    }

    /// The size as a plain count.
    pub const fn size(self) -> usize {
        self.0
    }
}

impl PartialEq<usize> for Quorum {
    fn eq(&self, count: &usize) -> bool {
        self.0 == *count
    }
}

impl PartialEq<Quorum> for usize {
    fn eq(&self, quorum: &Quorum) -> bool {
        *self == quorum.0
    }
}

impl PartialOrd<usize> for Quorum {
    fn partial_cmp(&self, count: &usize) -> Option<Ordering> {
        self.0.partial_cmp(count)
    }
}

impl PartialOrd<Quorum> for usize {
    fn partial_cmp(&self, quorum: &Quorum) -> Option<Ordering> {
        self.partial_cmp(&quorum.0)
    }
}

impl fmt::Display for Quorum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Tallies votes of the form "process `p` voted for value `v`".
///
/// Each process's vote is counted at most once per value; re-recording
/// the same `(p, v)` pair is idempotent.
///
/// # Example
///
/// ```rust
/// use twostep_types::quorum::VoteTally;
/// use twostep_types::{ProcessId, SystemConfig};
///
/// let cfg = SystemConfig::new(3, 1, 1)?; // slow quorum n-f = 2
/// let mut tally: VoteTally<u64> = VoteTally::new();
/// tally.record(ProcessId::new(0), 7);
/// tally.record(ProcessId::new(1), 7);
/// tally.record(ProcessId::new(2), 3);
/// assert_eq!(tally.count(&7), 2);
/// assert_eq!(tally.max_value_with_count_at_least(cfg.slow_quorum()), Some(&7));
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct VoteTally<V> {
    votes: BTreeMap<V, ProcessSet>,
}

impl<V: Value> VoteTally<V> {
    /// Creates an empty tally.
    pub fn new() -> Self {
        VoteTally {
            votes: BTreeMap::new(),
        }
    }

    /// Records that `p` voted for `v`; returns whether this vote was new.
    pub fn record(&mut self, p: ProcessId, v: V) -> bool {
        self.votes.entry(v).or_default().insert(p)
    }

    /// Number of distinct processes that voted for `v`.
    pub fn count(&self, v: &V) -> usize {
        self.votes.get(v).map_or(0, |s| s.len())
    }

    /// The set of processes that voted for `v`.
    pub fn voters(&self, v: &V) -> ProcessSet {
        self.votes.get(v).copied().unwrap_or_default()
    }

    /// Whether no votes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.votes.is_empty()
    }

    /// Iterates over `(value, voters)` in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (&V, ProcessSet)> {
        self.votes.iter().map(|(v, s)| (v, *s))
    }

    /// The values with more than `k` votes, in increasing order (the
    /// recovery rule's `|S| > n-f-e` case, Figure 1 line 54).
    pub fn values_with_count_above(&self, k: Quorum) -> impl Iterator<Item = &V> {
        self.votes
            .iter()
            .filter(move |(_, s)| s.len() > k)
            .map(|(v, _)| v)
    }

    /// The values whose vote count is exactly `k`, in increasing order.
    pub fn values_with_count_exactly(&self, k: Quorum) -> impl Iterator<Item = &V> {
        self.votes
            .iter()
            .filter(move |(_, s)| s.len() == k)
            .map(|(v, _)| v)
    }

    /// The greatest value with at least `k` votes (the recovery rule's
    /// tie-break at Figure 1 line 58 uses the *maximal* such value).
    pub fn max_value_with_count_at_least(&self, k: Quorum) -> Option<&V> {
        self.votes
            .iter()
            .rev()
            .find(|(_, s)| s.len() >= k)
            .map(|(v, _)| v)
    }

    /// The greatest value with exactly `k` votes.
    pub fn max_value_with_count_exactly(&self, k: Quorum) -> Option<&V> {
        self.votes
            .iter()
            .rev()
            .find(|(_, s)| s.len() == k)
            .map(|(v, _)| v)
    }

    /// Removes all votes.
    pub fn clear(&mut self) {
        self.votes.clear();
    }
}

/// Collects at most one reply per process, in process-id order.
///
/// Insertion is first-write-wins: a process cannot overwrite its reply,
/// matching the "received ... from all q ∈ Q" guards in Figure 1 where
/// each process contributes one message per ballot.
///
/// # Example
///
/// ```rust
/// use twostep_types::quorum::Collector;
/// use twostep_types::ProcessId;
///
/// let mut c: Collector<&'static str> = Collector::new();
/// assert!(c.insert(ProcessId::new(1), "a"));
/// assert!(!c.insert(ProcessId::new(1), "b")); // first write wins
/// assert_eq!(c.len(), 1);
/// assert_eq!(c.get(ProcessId::new(1)), Some(&"a"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Collector<T> {
    replies: BTreeMap<ProcessId, T>,
}

impl<T> Collector<T> {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Collector {
            replies: BTreeMap::new(),
        }
    }

    /// Records the reply of `p`; returns `false` (and keeps the original)
    /// if `p` already replied.
    pub fn insert(&mut self, p: ProcessId, reply: T) -> bool {
        use std::collections::btree_map::Entry;
        match self.replies.entry(p) {
            Entry::Vacant(e) => {
                e.insert(reply);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Number of distinct processes that replied.
    pub fn len(&self) -> usize {
        self.replies.len()
    }

    /// Whether no process replied yet.
    pub fn is_empty(&self) -> bool {
        self.replies.is_empty()
    }

    /// Whether `p` already replied.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.replies.contains_key(&p)
    }

    /// The reply of `p`, if recorded.
    pub fn get(&self, p: ProcessId) -> Option<&T> {
        self.replies.get(&p)
    }

    /// The set of processes that replied.
    pub fn senders(&self) -> ProcessSet {
        self.replies.keys().copied().collect()
    }

    /// Iterates over `(process, reply)` in process-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &T)> {
        self.replies.iter().map(|(p, r)| (*p, r))
    }

    /// Removes all replies.
    pub fn clear(&mut self) {
        self.replies.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn tally_counts_distinct_voters() {
        let mut t: VoteTally<u64> = VoteTally::new();
        assert!(t.is_empty());
        assert!(t.record(p(0), 5));
        assert!(!t.record(p(0), 5)); // idempotent
        assert!(t.record(p(1), 5));
        assert!(t.record(p(2), 9));
        assert_eq!(t.count(&5), 2);
        assert_eq!(t.count(&9), 1);
        assert_eq!(t.count(&1), 0);
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.voters(&5).len(), 2);
    }

    #[test]
    fn tally_threshold_queries() {
        let mut t: VoteTally<u64> = VoteTally::new();
        for i in 0..3 {
            t.record(p(i), 10);
        }
        for i in 3..5 {
            t.record(p(i), 20);
        }
        t.record(p(5), 30);

        let q = Quorum::new;
        let above_1: Vec<&u64> = t.values_with_count_above(q(1)).collect();
        assert_eq!(above_1, vec![&10, &20]);
        let above_2: Vec<&u64> = t.values_with_count_above(q(2)).collect();
        assert_eq!(above_2, vec![&10]);
        assert_eq!(t.values_with_count_above(q(3)).next(), None);
        let exactly_2: Vec<&u64> = t.values_with_count_exactly(q(2)).collect();
        assert_eq!(exactly_2, vec![&20]);
        assert_eq!(t.max_value_with_count_at_least(q(2)), Some(&20));
        assert_eq!(t.max_value_with_count_exactly(q(1)), Some(&30));
        assert_eq!(t.max_value_with_count_exactly(q(4)), None);
    }

    #[test]
    fn quorum_compares_with_counts_from_either_side() {
        let q = Quorum::new(3);
        assert!(2 < q);
        assert!(q > 2);
        assert!(4 >= q);
        assert_eq!(3, q);
        assert_eq!(q, 3);
        assert_eq!((q.size(), q.to_string()), (3, "3".to_string()));
    }

    #[test]
    fn tally_clear() {
        let mut t: VoteTally<u64> = VoteTally::new();
        t.record(p(0), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.count(&1), 0);
    }

    #[test]
    fn collector_first_write_wins() {
        let mut c: Collector<u64> = Collector::new();
        assert!(c.is_empty());
        assert!(c.insert(p(2), 22));
        assert!(!c.insert(p(2), 99));
        assert_eq!(c.get(p(2)), Some(&22));
        assert_eq!(c.len(), 1);
        assert!(c.contains(p(2)));
        assert!(!c.contains(p(0)));
    }

    #[test]
    fn collector_senders_and_order() {
        let mut c: Collector<u64> = Collector::new();
        c.insert(p(3), 3);
        c.insert(p(0), 0);
        c.insert(p(1), 1);
        let order: Vec<u32> = c.iter().map(|(q, _)| q.as_u32()).collect();
        assert_eq!(order, vec![0, 1, 3]);
        assert_eq!(c.senders().len(), 3);
        c.clear();
        assert!(c.is_empty());
    }
}
