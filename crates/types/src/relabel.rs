//! Replica-id relabeling, the substrate of the model checker's
//! process-symmetry reduction.
//!
//! Two global states that differ only by a permutation of
//! *interchangeable* replica ids generate isomorphic futures: the
//! protocols treat ids opaquely except where a process is structurally
//! distinguished (the pinned Ω leader, a Byzantine coordinator) or where
//! an id leaks into ballot arithmetic (`Ballot::owner`). A
//! [`Relabeling`] is one such permutation `π`, and canonicalizing a
//! state fingerprint as the minimum over a permutation group collapses
//! each symmetry orbit to a single visited state.
//!
//! # Soundness notes
//!
//! * **Distinguished processes are fixed pointwise.** Permuting the
//!   static Ω leader (or FastBft's coordinator `p0`) would equate states
//!   whose futures differ, because `is_leader()` breaks the symmetry.
//!   [`Relabeling::permutations_fixing`] only generates permutations
//!   that fix the distinguished set, and the protocol-side hooks
//!   additionally *decline* (`None`) any permutation that moves a
//!   process their state distinguishes.
//! * **Ballots are never renumbered.** A slow ballot `b` encodes its
//!   owner as `b mod n`, so one might try to relabel `b` by remapping
//!   the owner while keeping the round `b div n`. That is unsound: two
//!   same-round ballots with different owners compare by owner id, and
//!   remapping owners can flip `b1 < b2` — equating states whose next
//!   `OneA` is rejected in one and accepted in the other. Instead,
//!   [`Relabeling::ballot`] accepts a ballot only if its owner is a
//!   fixed point of `π` (always true for the fast ballot `0`). Since
//!   every slow ballot in a static-leader run is owned by the (fixed)
//!   leader, this costs no reduction in the configurations the checker
//!   sweeps, and degrades conservatively everywhere else.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use crate::{Ballot, ProcessId, ProcessSet};

/// A permutation `π` of the process ids `0..n`, with its inverse.
///
/// # Example
///
/// ```rust
/// use twostep_types::relabel::Relabeling;
/// use twostep_types::{ProcessId, ProcessSet};
///
/// // Swap p1 and p2 in a 3-process system.
/// let rl = Relabeling::new(vec![0, 2, 1]).unwrap();
/// assert_eq!(rl.pid(ProcessId::new(1)), ProcessId::new(2));
/// assert!(rl.fixes(ProcessId::new(0)));
/// let mut s = ProcessSet::new();
/// s.insert(ProcessId::new(1));
/// assert!(rl.pset(s).contains(ProcessId::new(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relabeling {
    fwd: Vec<u32>,
    inv: Vec<u32>,
}

impl Relabeling {
    /// The identity relabeling on `n` processes.
    pub fn identity(n: usize) -> Self {
        let fwd: Vec<u32> = (0..n as u32).collect();
        Relabeling {
            inv: fwd.clone(),
            fwd,
        }
    }

    /// Builds a relabeling from `π` given as `fwd[i] = π(i)`. Returns
    /// `None` if `fwd` is not a permutation of `0..fwd.len()`.
    pub fn new(fwd: Vec<u32>) -> Option<Self> {
        let n = fwd.len();
        let mut inv = vec![u32::MAX; n];
        for (i, &j) in fwd.iter().enumerate() {
            if (j as usize) >= n || inv[j as usize] != u32::MAX {
                return None;
            }
            inv[j as usize] = i as u32;
        }
        Some(Relabeling { fwd, inv })
    }

    /// Number of processes `n`.
    pub fn n(&self) -> usize {
        self.fwd.len()
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.fwd.iter().enumerate().all(|(i, &j)| i as u32 == j)
    }

    /// `π(p)`.
    pub fn pid(&self, p: ProcessId) -> ProcessId {
        ProcessId::new(self.fwd[p.index()])
    }

    /// `π⁻¹(p)` — which original process lands on slot `p`.
    pub fn preimage(&self, p: ProcessId) -> ProcessId {
        ProcessId::new(self.inv[p.index()])
    }

    /// Whether `π(p) = p`.
    pub fn fixes(&self, p: ProcessId) -> bool {
        self.fwd[p.index()] == p.as_u32()
    }

    /// The image of a process set under `π`.
    pub fn pset(&self, s: ProcessSet) -> ProcessSet {
        s.iter().map(|p| self.pid(p)).collect()
    }

    /// The image of a ballot under `π`: `Some(b)` if the ballot is
    /// preserved (the fast ballot, or a slow ballot whose owner is a
    /// fixed point of `π`), `None` otherwise — see the module docs for
    /// why moved-owner ballots are declined rather than renumbered.
    pub fn ballot(&self, b: Ballot) -> Option<Ballot> {
        if b.is_fast() || self.fixes(b.owner(self.n())) {
            Some(b)
        } else {
            None
        }
    }

    /// All permutations of `0..n` that fix every member of
    /// `distinguished` pointwise. The identity comes first. The group
    /// has `(n - |distinguished|)!` elements, so keep `n` small (the
    /// model checker's regime is `n ≤ 5`).
    pub fn permutations_fixing(n: usize, distinguished: ProcessSet) -> Vec<Relabeling> {
        let movable: Vec<u32> = (0..n as u32)
            .filter(|&i| !distinguished.contains(ProcessId::new(i)))
            .collect();
        let mut image = movable.clone();
        let mut out = Vec::new();
        // Lexicographic permutation enumeration over the movable ids;
        // the first (sorted) arrangement is the identity.
        loop {
            let mut fwd: Vec<u32> = (0..n as u32).collect();
            for (slot, &target) in movable.iter().zip(image.iter()) {
                fwd[*slot as usize] = target;
            }
            out.push(Relabeling::new(fwd).expect("arrangement is a permutation"));
            // Next lexicographic permutation of `image`.
            let Some(i) = (0..image.len().saturating_sub(1))
                .rev()
                .find(|&i| image[i] < image[i + 1])
            else {
                break;
            };
            let j = (i + 1..image.len())
                .rev()
                .find(|&j| image[j] > image[i])
                .expect("successor exists when image[i] < image[i+1]");
            image.swap(i, j);
            image[i + 1..].reverse();
        }
        out
    }
}

/// Hashing a message's content *as seen through a relabeling*.
///
/// The model checker's symmetry reduction needs to compare in-flight
/// message payloads up to the permutation `π`: a `TwoB(b, v)` from a
/// relabeled sender is the same message, but a payload embedding a
/// `ProcessId` (e.g. the `proposer` field of `OneB`) must be hashed with
/// that id mapped through `π`.
///
/// **A hash never declines the identity**: under
/// [`Relabeling::identity`] it is `Some`. The default hashes the `Debug`
/// rendering under the identity and declines every other permutation
/// (returns `None`), so a global state holding such a message is keyed
/// by the identity alone: symmetry degrades to no reduction instead of
/// becoming unsound. Message types whose payloads are relabel-aware
/// (like the two-step `Msg`) override this.
pub trait RelabelHash: Debug {
    /// Content hash of `self` with every embedded process id mapped
    /// through `rl`, or `None` if this message cannot be relabeled
    /// under `rl` (e.g. it carries a ballot whose owner `rl` moves).
    fn relabel_hash(&self, rl: &Relabeling) -> Option<u64> {
        identity_debug_hash(self, rl)
    }
}

/// The hash of `x`'s `Debug` rendering under the identity, `None` under
/// any other relabeling: the default of both
/// [`Protocol::state_fingerprint_relabeled`](crate::protocol::Protocol::state_fingerprint_relabeled)
/// and [`RelabelHash::relabel_hash`].
pub(crate) fn identity_debug_hash<T: Debug + ?Sized>(x: &T, rl: &Relabeling) -> Option<u64> {
    rl.is_identity().then(|| {
        let mut h = DefaultHasher::new();
        format!("{x:?}").hash(&mut h);
        h.finish()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pset(ids: &[u32]) -> ProcessSet {
        ids.iter().map(|&i| ProcessId::new(i)).collect()
    }

    #[test]
    fn identity_roundtrip() {
        let rl = Relabeling::identity(4);
        assert!(rl.is_identity());
        for i in 0..4 {
            assert!(rl.fixes(ProcessId::new(i)));
            assert_eq!(rl.preimage(ProcessId::new(i)), ProcessId::new(i));
        }
    }

    #[test]
    fn new_rejects_non_permutations() {
        assert!(Relabeling::new(vec![0, 0, 1]).is_none());
        assert!(Relabeling::new(vec![0, 3, 1]).is_none());
        assert!(Relabeling::new(vec![2, 0, 1]).is_some());
    }

    #[test]
    fn inverse_is_consistent() {
        let rl = Relabeling::new(vec![2, 0, 1]).unwrap();
        for i in 0..3u32 {
            let p = ProcessId::new(i);
            assert_eq!(rl.preimage(rl.pid(p)), p);
        }
    }

    #[test]
    fn pset_maps_members() {
        let rl = Relabeling::new(vec![0, 2, 1]).unwrap();
        assert_eq!(rl.pset(pset(&[0, 1])), pset(&[0, 2]));
        assert_eq!(rl.pset(ProcessSet::full(3)), ProcessSet::full(3));
    }

    #[test]
    fn ballot_accepts_fast_and_fixed_owners() {
        let rl = Relabeling::new(vec![0, 2, 1]).unwrap();
        assert_eq!(rl.ballot(Ballot::FAST), Some(Ballot::FAST));
        // Ballot 3 is owned by p0 (3 mod 3), which π fixes.
        assert_eq!(rl.ballot(Ballot::new(3)), Some(Ballot::new(3)));
        // Ballot 1 is owned by p1, which π moves: declined.
        assert_eq!(rl.ballot(Ballot::new(1)), None);
    }

    #[test]
    fn permutations_fixing_counts_and_fixes() {
        let group = Relabeling::permutations_fixing(4, pset(&[0]));
        assert_eq!(group.len(), 6, "3! arrangements of p1..p3");
        assert!(group[0].is_identity(), "identity comes first");
        for rl in &group {
            assert!(rl.fixes(ProcessId::new(0)));
        }
        // All distinct.
        for (i, a) in group.iter().enumerate() {
            for b in group.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(Relabeling::permutations_fixing(3, pset(&[])).len(), 6);
        assert_eq!(
            Relabeling::permutations_fixing(3, ProcessSet::full(3)).len(),
            1
        );
    }

    #[test]
    fn default_relabel_hash_keeps_the_identity_and_declines_the_rest() {
        #[derive(Debug)]
        struct Opaque(#[allow(dead_code)] u8); // read through `Debug`
        impl RelabelHash for Opaque {}
        let id = Relabeling::identity(2);
        assert!(Opaque(1).relabel_hash(&id).is_some());
        assert_eq!(Opaque(1).relabel_hash(&id), Opaque(1).relabel_hash(&id));
        assert_ne!(Opaque(1).relabel_hash(&id), Opaque(2).relabel_hash(&id));
        let swap = Relabeling::new(vec![1, 0]).unwrap();
        assert_eq!(Opaque(1).relabel_hash(&swap), None);
    }
}
