//! Property tests for the foundational types: ballot arithmetic,
//! quorum-size identities across the (e, f) grid, and ProcessSet set
//! algebra. These pin the invariants every protocol crate silently
//! relies on — e.g. that any fast quorum and any slow quorum share at
//! least `n - f - e` processes, which is exactly the recovery rule's
//! vote threshold.

use proptest::prelude::*;

use twostep_types::{combinations, Ballot, ProcessId, ProcessSet, SystemConfig};

/// The (e, f) grid the paper's tables range over.
const GRID: [(usize, usize); 4] = [(1, 1), (1, 2), (2, 2), (2, 3)];

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// A ProcessSet drawn from the first `n` processes.
fn subset_of(n: usize, bits: u64) -> ProcessSet {
    ProcessSet::from_bits(bits & ProcessSet::full(n).bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ballot ordering is exactly the ordering of the raw numbers, and
    /// `new`/`number` round-trip.
    #[test]
    fn ballot_ordering_matches_numbers(a in 0u64..1 << 40, b in 0u64..1 << 40) {
        prop_assert_eq!(Ballot::new(a).number(), a);
        prop_assert_eq!(Ballot::new(a).cmp(&Ballot::new(b)), a.cmp(&b));
        prop_assert_eq!(Ballot::new(a) == Ballot::new(b), a == b);
    }

    /// `next_owned_by` yields the smallest ballot above `self` owned by
    /// the requested process: strictly greater, correctly owned, slow,
    /// and within `n` of the starting ballot.
    #[test]
    fn next_owned_by_round_trips_through_owner(
        start in 0u64..1 << 40,
        owner in 0u32..16,
        n in 3usize..17,
    ) {
        prop_assume!((owner as usize) < n);
        let b = Ballot::new(start).next_owned_by(p(owner), n);
        prop_assert!(b > Ballot::new(start));
        prop_assert!(b.is_slow());
        prop_assert_eq!(b.owner(n), p(owner));
        prop_assert!(b.number() - start <= n as u64, "skipped a whole rotation");
    }

    /// Successive slow ballots rotate ownership round-robin over Π.
    #[test]
    fn slow_ballot_ownership_rotates(b in 1u64..1 << 40, n in 3usize..17) {
        let owner = Ballot::new(b).owner(n);
        let next = Ballot::new(b + 1).owner(n);
        prop_assert_eq!(
            (owner.as_u32() + 1) % n as u32,
            next.as_u32(),
            "ballot {} -> {}", b, b + 1
        );
    }

    /// The quorum-size identities behind the paper's counting arguments,
    /// for every valid n at every grid point: sizes add back up to n,
    /// and the *worst-case overlap* of a fast and a slow quorum is the
    /// recovery threshold `n - f - e` — non-negative exactly when the
    /// task bound `n ≥ 2e + f` holds with `n ≥ 2f + 1`.
    #[test]
    fn quorum_arithmetic_across_the_grid(grid in 0usize..4, extra in 0usize..6) {
        let (e, f) = GRID[grid];
        let n = SystemConfig::minimal_task(e, f).unwrap().n() + extra;
        let cfg = SystemConfig::new(n, e, f).unwrap();
        prop_assert_eq!(cfg.fast_quorum().size() + cfg.e(), cfg.n());
        prop_assert_eq!(cfg.slow_quorum().size() + cfg.f(), cfg.n());
        prop_assert_eq!(cfg.recovery_threshold(), cfg.n() - cfg.f() - cfg.e());
        // Two slow quorums overlap in ≥ n - 2f ≥ 1 processes (Paxos'
        // classic intersection), a fast and a slow quorum in ≥ n - f - e.
        prop_assert!(2 * cfg.slow_quorum().size() > cfg.n());
        prop_assert_eq!(
            cfg.fast_quorum().size() + cfg.slow_quorum().size() - cfg.n(),
            cfg.recovery_threshold()
        );
        prop_assert!(cfg.satisfies_task_bound());
    }

    /// The arithmetic worst case is achieved by actual sets: over every
    /// pair of (fast, slow) quorums of a small system, the minimum
    /// intersection size equals `n - f - e` exactly.
    #[test]
    fn quorum_intersection_minimum_is_tight(grid in 0usize..4) {
        let (e, f) = GRID[grid];
        let cfg = SystemConfig::minimal_task(e, f).unwrap();
        let n = cfg.n();
        let mut min_overlap = usize::MAX;
        for fast in combinations(n, cfg.fast_quorum().size()) {
            for slow in combinations(n, cfg.slow_quorum().size()) {
                min_overlap = min_overlap.min(fast.intersection(slow).len());
            }
        }
        prop_assert_eq!(min_overlap, cfg.recovery_threshold());
    }

    /// The `minimal_*` constructors are genuinely minimal: each
    /// satisfies its own bound, and one process fewer violates either
    /// that bound or the standing `n ≥ 2f + 1` assumption.
    #[test]
    fn minimal_configs_are_minimal(grid in 0usize..4) {
        let (e, f) = GRID[grid];
        let task = SystemConfig::minimal_task(e, f).unwrap();
        prop_assert!(task.satisfies_task_bound());
        let object = SystemConfig::minimal_object(e, f).unwrap();
        prop_assert!(object.satisfies_object_bound());
        let fp = SystemConfig::minimal_fast_paxos(e, f).unwrap();
        prop_assert!(fp.satisfies_fast_paxos_bound());
        prop_assert!(object.n() <= task.n() && task.n() <= fp.n());
        for (cfg, ok) in [
            (task, &SystemConfig::satisfies_task_bound as &dyn Fn(&SystemConfig) -> bool),
            (object, &SystemConfig::satisfies_object_bound),
            (fp, &SystemConfig::satisfies_fast_paxos_bound),
        ] {
            // An Err means n-1 already breaks n ≥ 2f+1 (or n ≥ 3).
            if let Ok(smaller) = SystemConfig::new(cfg.n() - 1, e, f) {
                prop_assert!(!ok(&smaller), "{cfg:?} is not minimal");
            }
        }
    }

    /// ProcessSet is a boolean algebra over the first n ids: De Morgan,
    /// absorption, difference-as-intersection-with-complement, and
    /// len/iter agreement.
    #[test]
    fn process_set_algebra(
        n in 3usize..33,
        a_bits in 0u64..u64::MAX,
        b_bits in 0u64..u64::MAX,
    ) {
        let a = subset_of(n, a_bits);
        let b = subset_of(n, b_bits);
        prop_assert_eq!(
            a.union(b).complement(n),
            a.complement(n).intersection(b.complement(n))
        );
        prop_assert_eq!(
            a.intersection(b).complement(n),
            a.complement(n).union(b.complement(n))
        );
        prop_assert_eq!(a.difference(b), a.intersection(b.complement(n)));
        prop_assert_eq!(a.union(a.intersection(b)), a);
        prop_assert_eq!(a.intersection(a.union(b)), a);
        prop_assert!(a.intersection(b).is_subset(a));
        prop_assert!(a.is_subset(a.union(b)));
        prop_assert_eq!(a.len() + b.len(), a.union(b).len() + a.intersection(b).len());
        prop_assert_eq!(a.iter().count(), a.len());
        prop_assert_eq!(a.min(), a.iter().next());
        // Round-trip through FromIterator.
        let rebuilt: ProcessSet = a.iter().collect();
        prop_assert_eq!(rebuilt, a);
    }

    /// Insert and remove report whether they changed the set and keep
    /// membership consistent.
    #[test]
    fn process_set_insert_remove(n in 3usize..33, bits in 0u64..u64::MAX, i in 0u32..33) {
        prop_assume!((i as usize) < n);
        let mut s = subset_of(n, bits);
        let was_in = s.contains(p(i));
        prop_assert_eq!(s.insert(p(i)), !was_in);
        prop_assert!(s.contains(p(i)));
        prop_assert_eq!(s.remove(p(i)), true);
        prop_assert!(!s.contains(p(i)));
        prop_assert_eq!(s.remove(p(i)), false);
    }
}
