//! Property test: symmetry + partial-order reduction preserve the
//! exploration's observable results.
//!
//! For random `n = 3` configurations (task and object variants, both
//! `(e, f)` at and below the bounds, crash budgets 0–1) the reduced
//! exploration must produce:
//!
//! * the same verdict (clean vs violation-found) as the unreduced one;
//! * with POR alone, the **identical** set of reachable decision
//!   vectors (scrubbed messages are inert: dropping them merges states
//!   with equal per-process decisions);
//! * with symmetry added, the identical set of decision vectors **up
//!   to process identity** (each canonical representative stands in
//!   for its whole orbit, so concrete vectors are only recovered
//!   modulo the permutation — the sorted vector is the orbit
//!   invariant).
//!
//! Timer budgets are held at 0 here: the unreduced recovery space at
//! `n = 3` exceeds 4×10⁶ states (measured), which is proptest-hostile;
//! the recovery dimension's reduced-vs-unreduced agreement is covered
//! by the gate's reduction reference instead.

use std::collections::BTreeSet;

use proptest::prelude::*;
use twostep_core::{OmegaMode, TwoStepBuilder};
use twostep_sim::ManualExecutor;
use twostep_types::protocol::{Protocol, TimerId};
use twostep_types::relabel::RelabelHash;
use twostep_types::{ProcessId, SystemConfig};
use twostep_verify::{CheckOutcome, ModelChecker};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn checker(crashes: usize, symmetry: bool, por: bool) -> ModelChecker {
    ModelChecker::new()
        .max_states(2_000_000)
        .max_crashes(crashes)
        .timer_budget(0, vec![TimerId::NEW_BALLOT])
        .workers(1)
        .symmetry(symmetry)
        .por(por)
}

/// Sorts each decision vector: the process-anonymous orbit invariant.
fn anonymized(set: &BTreeSet<Vec<Option<u64>>>) -> BTreeSet<Vec<Option<u64>>> {
    set.iter()
        .map(|v| {
            let mut s = v.clone();
            s.sort_unstable();
            s
        })
        .collect()
}

fn check_equivalence<P, F>(cfg: SystemConfig, crashes: usize, setup: F)
where
    P: Protocol<u64> + Clone,
    P::Message: RelabelHash,
    F: Fn(SystemConfig) -> ManualExecutor<u64, P>,
{
    let (base_out, base_set) =
        checker(crashes, false, false).run_collecting(cfg, &[10, 20], &setup);
    let (por_out, por_set) = checker(crashes, false, true).run_collecting(cfg, &[10, 20], &setup);
    let (sym_out, sym_set) = checker(crashes, true, true).run_collecting(cfg, &[10, 20], &setup);

    match (&base_out, &por_out, &sym_out) {
        (
            CheckOutcome::Clean { truncated: bt, .. },
            CheckOutcome::Clean { truncated: pt, .. },
            CheckOutcome::Clean { truncated: st, .. },
        ) => {
            assert!(
                !bt && !pt && !st,
                "truncated exploration cannot witness equivalence"
            );
            assert_eq!(
                base_set, por_set,
                "POR changed the reachable decision vectors"
            );
            assert_eq!(
                anonymized(&base_set),
                anonymized(&sym_set),
                "symmetry changed the reachable decision vectors up to relabeling"
            );
        }
        (
            CheckOutcome::Violation { .. },
            CheckOutcome::Violation { .. },
            CheckOutcome::Violation { .. },
        ) => {
            // All three detect a violation; decision-vector sets are not
            // comparable because exploration aborts at the first one.
        }
        _ => {
            panic!("verdict divergence: unreduced={base_out:?} por={por_out:?} sym+por={sym_out:?}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Task variant: every process proposes its initial value.
    #[test]
    fn task_reduced_matches_unreduced(
        v0 in prop_oneof![Just(10u64), Just(20u64)],
        v1 in prop_oneof![Just(10u64), Just(20u64)],
        v2 in prop_oneof![Just(10u64), Just(20u64)],
        e in 1usize..=2,
        crashes in 0usize..=1,
    ) {
        let cfg = SystemConfig::new(3, e, 1);
        prop_assume!(cfg.is_ok());
        let cfg = cfg.unwrap();
        let values = [v0, v1, v2];
        check_equivalence(cfg, crashes, move |cfg| {
            let mut ex = ManualExecutor::new(cfg, |q| {
                TwoStepBuilder::new(cfg)
                    .omega(OmegaMode::Static(p(0)))
                    .task(q, values[q.index()])
            });
            ex.start_all();
            ex
        });
    }

    /// Object variant: `p0` and `p2` contend, `p1` stays passive.
    #[test]
    fn object_reduced_matches_unreduced(
        v0 in prop_oneof![Just(10u64), Just(20u64)],
        v2 in prop_oneof![Just(10u64), Just(20u64)],
        e in 1usize..=2,
        crashes in 0usize..=1,
    ) {
        let cfg = SystemConfig::new(3, e, 1);
        prop_assume!(cfg.is_ok());
        let cfg = cfg.unwrap();
        check_equivalence(cfg, crashes, move |cfg| {
            let mut ex = ManualExecutor::new(cfg, |q| {
                TwoStepBuilder::new(cfg)
                    .omega(OmegaMode::Static(p(0)))
                    .object::<u64>(q)
            });
            ex.start_all();
            ex.propose(p(0), v0);
            ex.propose(p(2), v2);
            ex
        });
    }
}
