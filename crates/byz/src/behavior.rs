//! Behavior taxonomy and cluster-wide fault plans.

use std::collections::BTreeMap;
use std::fmt;

use twostep_telemetry::ObserverHandle;
use twostep_types::protocol::Protocol;
use twostep_types::{Corruptible, ProcessId, SplitMix64, Value};

use crate::wrapper::ByzProtocol;

/// What a wrapped process does to its outgoing traffic.
///
/// Every variant except [`ByzBehavior::Honest`] models one classic
/// Byzantine capability. A single process carries a single behavior for
/// its lifetime — campaigns wanting mixed adversaries assign different
/// behaviors to different victims via [`ByzPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ByzBehavior {
    /// Pass effects through untouched (the wrapper is a verified no-op).
    Honest,
    /// Split each broadcast into disjoint recipient sets receiving
    /// conflicting values: the first half keeps the original message,
    /// the second half gets one consistently forged copy.
    Equivocate,
    /// Mutate embedded proposal/decision values on roughly half the
    /// outgoing messages.
    Forge,
    /// Mutate embedded ballot numbers on roughly half the outgoing
    /// messages.
    LieBallot,
    /// Drop roughly half the outgoing messages (selective silence —
    /// strictly stronger than a crash, which drops *all* of them).
    Silence,
}

impl ByzBehavior {
    /// Every behavior, honest first.
    pub const ALL: [ByzBehavior; 5] = [
        ByzBehavior::Honest,
        ByzBehavior::Equivocate,
        ByzBehavior::Forge,
        ByzBehavior::LieBallot,
        ByzBehavior::Silence,
    ];

    /// The actively malicious behaviors (everything but honest).
    pub const MALICIOUS: [ByzBehavior; 4] = [
        ByzBehavior::Equivocate,
        ByzBehavior::Forge,
        ByzBehavior::LieBallot,
        ByzBehavior::Silence,
    ];

    /// The stable label used by telemetry counters, replay lines, and
    /// experiment output.
    pub fn label(self) -> &'static str {
        match self {
            ByzBehavior::Honest => "honest",
            ByzBehavior::Equivocate => "equivocate",
            ByzBehavior::Forge => "forge",
            ByzBehavior::LieBallot => "lie-ballot",
            ByzBehavior::Silence => "silence",
        }
    }

    /// Parses a [`ByzBehavior::label`] rendering (CLI flags, replay
    /// lines).
    pub fn parse(s: &str) -> Option<ByzBehavior> {
        ByzBehavior::ALL.into_iter().find(|b| b.label() == s)
    }

    /// Whether this is the pass-through behavior.
    pub fn is_honest(self) -> bool {
        self == ByzBehavior::Honest
    }
}

impl fmt::Display for ByzBehavior {
    fn fmt(&self, fmtr: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmtr.write_str(self.label())
    }
}

/// A cluster-wide fault assignment: which processes are Byzantine, what
/// each of them does, and the root seed their corruption streams derive
/// from.
///
/// Processes without an explicit assignment are honest, so a plan can
/// wrap *every* process uniformly — the engine sees one protocol type —
/// while only the named victims misbehave.
///
/// # Example
///
/// ```rust
/// use twostep_byz::{ByzBehavior, ByzPlan};
/// use twostep_types::ProcessId;
///
/// let plan = ByzPlan::honest(42)
///     .with(ProcessId::new(2), ByzBehavior::Equivocate)
///     .with(ProcessId::new(4), ByzBehavior::Silence);
/// assert_eq!(plan.byzantine_count(), 2);
/// assert!(plan.behavior_of(ProcessId::new(0)).is_honest());
/// ```
#[derive(Clone, Debug)]
pub struct ByzPlan {
    seed: u64,
    assignments: BTreeMap<ProcessId, ByzBehavior>,
}

impl ByzPlan {
    /// An all-honest plan rooted at `seed`.
    pub fn honest(seed: u64) -> Self {
        ByzPlan {
            seed,
            assignments: BTreeMap::new(),
        }
    }

    /// Assigns `behavior` to `process` (builder style). Assigning
    /// [`ByzBehavior::Honest`] removes a previous assignment.
    pub fn with(mut self, process: ProcessId, behavior: ByzBehavior) -> Self {
        if behavior.is_honest() {
            self.assignments.remove(&process);
        } else {
            self.assignments.insert(process, behavior);
        }
        self
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The behavior assigned to `process` (honest by default).
    pub fn behavior_of(&self, process: ProcessId) -> ByzBehavior {
        self.assignments
            .get(&process)
            .copied()
            .unwrap_or(ByzBehavior::Honest)
    }

    /// The Byzantine processes, in id order.
    pub fn byzantine(&self) -> impl Iterator<Item = (ProcessId, ByzBehavior)> + '_ {
        self.assignments.iter().map(|(p, b)| (*p, *b))
    }

    /// How many processes misbehave under this plan.
    pub fn byzantine_count(&self) -> usize {
        self.assignments.len()
    }

    /// Wraps `inner` with its assigned behavior and a per-process seed
    /// derived from the plan root, reporting injections to `observer`.
    ///
    /// The per-process stream is `SplitMix64::stream(seed, id)`, so
    /// adding or removing one victim never perturbs another victim's
    /// corruption stream.
    pub fn wrap_observed<V, P>(&self, inner: P, observer: ObserverHandle) -> ByzProtocol<V, P>
    where
        V: Value,
        P: Protocol<V>,
        P::Message: Corruptible + PartialEq,
    {
        let id = inner.id();
        let stream = SplitMix64::stream(self.seed, u64::from(id.as_u32()));
        ByzProtocol::observed(inner, self.behavior_of(id), stream, observer)
    }

    /// [`ByzPlan::wrap_observed`] without telemetry.
    pub fn wrap<V, P>(&self, inner: P) -> ByzProtocol<V, P>
    where
        V: Value,
        P: Protocol<V>,
        P::Message: Corruptible + PartialEq,
    {
        self.wrap_observed(inner, ObserverHandle::none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for b in ByzBehavior::ALL {
            assert_eq!(ByzBehavior::parse(b.label()), Some(b));
            assert_eq!(b.to_string(), b.label());
        }
        assert_eq!(ByzBehavior::parse("gossip"), None);
    }

    #[test]
    fn malicious_excludes_honest() {
        assert!(ByzBehavior::MALICIOUS.iter().all(|b| !b.is_honest()));
        assert_eq!(ByzBehavior::ALL.len(), ByzBehavior::MALICIOUS.len() + 1);
    }

    #[test]
    fn plans_default_to_honest_and_unassign_on_honest() {
        let p2 = ProcessId::new(2);
        let plan = ByzPlan::honest(7).with(p2, ByzBehavior::Forge);
        assert_eq!(plan.behavior_of(p2), ByzBehavior::Forge);
        assert_eq!(plan.byzantine_count(), 1);
        let plan = plan.with(p2, ByzBehavior::Honest);
        assert_eq!(plan.byzantine_count(), 0);
        assert!(plan.behavior_of(p2).is_honest());
    }

    #[test]
    fn byzantine_iterates_in_id_order() {
        let plan = ByzPlan::honest(1)
            .with(ProcessId::new(5), ByzBehavior::Silence)
            .with(ProcessId::new(1), ByzBehavior::Equivocate);
        let got: Vec<u32> = plan.byzantine().map(|(p, _)| p.as_u32()).collect();
        assert_eq!(got, vec![1, 5]);
    }
}
