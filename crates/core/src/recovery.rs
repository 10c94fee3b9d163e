//! The leader's value-selection rule (Figure 1, lines 43–63).
//!
//! This is the paper's central algorithmic contribution: a recovery rule
//! that correctly resurrects fast-path decisions with only
//! `n ≥ 2e+f` (task) or `n ≥ 2e+f-1` (object) processes, where Fast
//! Paxos's rule needs `n ≥ 2e+f+1`.
//!
//! Given `1B` reports from a quorum `Q` of `n-f` processes, the rule is:
//!
//! 1. if some report carries a decision, select it;
//! 2. else if a vote was cast in a slow ballot, select the vote of the
//!    highest such ballot (classic Paxos);
//! 3. else restrict attention to `R = {q ∈ Q | proposer_q ∉ Q}` — votes
//!    whose proposer sits inside `Q` are *excluded*, because that
//!    proposer demonstrably did not decide on the fast path and, having
//!    joined this slow ballot, never will;
//! 4. if some value has **more than** `n-f-e` votes in `R`, select it
//!    (Lemma 7 shows it is unique);
//! 5. else if values have **exactly** `n-f-e` votes in `R`, select the
//!    **greatest** such value;
//! 6. else fall back to the leader's own proposal, if any (extended — see
//!    the crate docs — by any proposal the leader has merely observed,
//!    which is equally safe in this branch).
//!
//! The rule is exposed in two forms:
//!
//! * [`classify`] — the typed API used by the protocol core: it returns
//!   a [`Recovery`] verdict whose `> n-f-e` and `= n-f-e` cases are the
//!   *distinct types* [`RecoveryGt`] and [`RecoveryEq`], so the
//!   max-value tie-break of line 58 only exists where the paper applies
//!   it (the exact-threshold case — [`RecoveryEq::greatest`]); the
//!   above-threshold case, unique by Lemma 7, offers no choice at all.
//! * [`select_value`] / [`select_value_explained`] — pure-function
//!   wrappers over [`classify`] kept for property tests (see the
//!   Lemma 7 generators in this module's tests) and the lower-bound
//!   witness replays in `crates/analysis`.

use twostep_telemetry::RecoveryCase;
use twostep_types::quorum::{Collector, VoteTally};
use twostep_types::{Ballot, ProcessId, SystemConfig, Value};

use crate::Ablations;

/// One `1B` report as consumed by the recovery rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report<V> {
    /// Last ballot in which the reporter voted.
    pub vbal: Ballot,
    /// The reporter's vote (`⊥` if none).
    pub val: Option<V>,
    /// Proposer of `val`.
    pub proposer: Option<ProcessId>,
    /// The reporter's decision (`⊥` if undecided).
    pub decided: Option<V>,
}

impl<V> Report<V> {
    /// A report from a process that has done nothing yet.
    pub fn empty() -> Self {
        Report {
            vbal: Ballot::FAST,
            val: None,
            proposer: None,
            decided: None,
        }
    }

    /// A report of a fast-ballot vote for `val` proposed by `proposer`.
    pub fn fast_vote(val: V, proposer: ProcessId) -> Self {
        Report {
            vbal: Ballot::FAST,
            val: Some(val),
            proposer: Some(proposer),
            decided: None,
        }
    }
}

/// The `> n-f-e` vote-count case of the recovery rule (line 54).
///
/// Lemma 7 proves the value reaching this count is unique, so the type
/// carries exactly one value and offers no tie-break: the max-value
/// choice of line 58 does not exist here, by construction.
///
/// Only [`classify`] (inside `crates/core`) creates instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryGt<V> {
    value: V,
}

impl<V: Value> RecoveryGt<V> {
    /// The unique value with more than `n-f-e` surviving votes.
    pub fn value(&self) -> &V {
        &self.value
    }

    /// Consumes the verdict, yielding the mandated value.
    pub fn into_value(self) -> V {
        self.value
    }
}

/// The `= n-f-e` vote-count case of the recovery rule (line 57).
///
/// Several values can tie at exactly `n-f-e` surviving votes; the
/// paper's line 58 breaks the tie by taking the **greatest**. That
/// tie-break exists only on this type — resolving it is the one
/// decision the recovery rule leaves open, and [`RecoveryEq::greatest`]
/// is the only safe resolution (E2's ablation study decides via
/// [`RecoveryEq::least_ablated`] instead and demonstrably loses
/// agreement).
///
/// Only [`classify`] (inside `crates/core`) creates instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEq<V> {
    greatest: V,
    least: V,
}

impl<V: Value> RecoveryEq<V> {
    /// Line 58: the greatest value with exactly `n-f-e` surviving
    /// votes — the paper's tie-break.
    pub fn greatest(self) -> V {
        self.greatest
    }

    /// The least tied value: the deliberately wrong tie-break used by
    /// the `no_max_tiebreak` ablation (experiment E2).
    pub fn least_ablated(self) -> V {
        self.least
    }
}

/// The recovery rule's verdict over a frozen `1B` quorum: which branch
/// of lines 48–63 fired, with the two vote-count cases as distinct
/// types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery<V> {
    /// Line 48: some report carried a decision; it must be selected.
    ReportedDecision(V),
    /// Line 52: a slow-ballot vote exists; the vote of the highest such
    /// ballot is adopted (classic Paxos; `None` only if that report's
    /// vote was empty, which consistent reports never produce).
    SlowBallot(Option<V>),
    /// Line 54: a value holds **more than** `n-f-e` surviving votes.
    Gt(RecoveryGt<V>),
    /// Line 57: values hold **exactly** `n-f-e` surviving votes.
    Eq(RecoveryEq<V>),
    /// Line 60: nothing to resurrect; the leader falls back to its own
    /// (or an observed) proposal.
    Fallback,
}

/// Applies the selection rule to the `1B` quorum `reports`, returning
/// the typed [`Recovery`] verdict.
///
/// # Panics
///
/// Panics if `reports` is smaller than a slow quorum of `n-f` — in
/// release builds too: an undersized `1B` quorum silently selecting a
/// value is exactly the failure mode Lemma 7 rules out, so it must
/// never survive into production.
pub fn classify<V: Value>(
    cfg: &SystemConfig,
    reports: &Collector<Report<V>>,
    ablations: Ablations,
) -> Recovery<V> {
    // Release-mode check: selecting from fewer than n-f reports voids
    // every quorum-intersection argument the rule rests on.
    assert!(
        reports.len() >= cfg.slow_quorum(),
        "recovery needs a quorum of n-f reports, got {}",
        reports.len()
    );

    // Line 48: a reported decision wins outright.
    if let Some(v) = reports.iter().find_map(|(_, r)| r.decided.clone()) {
        return Recovery::ReportedDecision(v);
    }

    // Line 46: the highest ballot in which anyone voted.
    let bmax = reports
        .iter()
        .map(|(_, r)| r.vbal)
        .max()
        .unwrap_or(Ballot::FAST);

    if bmax.is_slow() {
        // Line 52: classic Paxos — adopt the vote of the highest ballot.
        // All such votes carry the same value (Lemma C.2); pick the
        // lowest reporter deterministically.
        return Recovery::SlowBallot(
            reports
                .iter()
                .find(|(_, r)| r.vbal == bmax)
                .and_then(|(_, r)| r.val.clone()),
        );
    }

    // bmax = 0: only fast-ballot votes exist. Line 47: restrict to
    // R = {q ∈ Q | proposer_q ∉ Q}.
    let quorum = reports.senders();
    let mut tally: VoteTally<V> = VoteTally::new();
    for (q, r) in reports.iter() {
        let Some(v) = &r.val else { continue };
        let in_r = match r.proposer {
            Some(p) => !quorum.contains(p),
            // A vote always has a proposer; tolerate reports without one
            // by treating them as excluded-proposer votes.
            None => true,
        };
        if in_r || ablations.no_proposer_exclusion {
            tally.record(q, v.clone());
        }
    }

    let threshold = cfg.recovery_threshold();

    // Line 54: a value with more than n-f-e votes. Lemma 7 proves at
    // most one value can reach this; the count argument
    // (2(n-f-e)+2 ≤ n-f ⟺ n ≤ 2e+f-2) guarantees uniqueness for any
    // vote multiset whenever n ≥ 2e+f-1, so assert it there — the
    // lower-bound adversary (experiment E3) deliberately runs below the
    // bound, where two values can exceed the threshold and this
    // arbitrary pick is exactly what breaks agreement.
    if let Some(v) = tally.values_with_count_above(threshold).next() {
        assert!(
            !cfg.satisfies_object_bound() || tally.values_with_count_above(threshold).count() == 1,
            "Lemma 7: the > n-f-e value must be unique at n >= 2e+f-1"
        );
        return Recovery::Gt(RecoveryGt { value: v.clone() });
    }

    // Line 57: values with exactly n-f-e votes. Both ends of the tie
    // are fixed here so the only open decision — which end to take —
    // lives on the RecoveryEq type itself.
    let greatest = tally.max_value_with_count_exactly(threshold).cloned();
    let least = tally.values_with_count_exactly(threshold).next().cloned();
    if let (Some(greatest), Some(least)) = (greatest, least) {
        return Recovery::Eq(RecoveryEq { greatest, least });
    }

    // Line 60: nothing to resurrect.
    Recovery::Fallback
}

/// Applies the selection rule to the `1B` quorum `reports`.
///
/// `my_initial` is the leader's own proposal (line 60's
/// `initial_val`); `observed` is a proposal the leader has seen but not
/// voted for (the liveness extension documented in the crate docs);
/// both feed only the final fallback branch.
///
/// Returns `None` when no value may be proposed (the ballot then simply
/// yields nothing, line 63's guard).
///
/// # Panics
///
/// Panics if `reports` is smaller than a slow quorum of `n-f` — in
/// release builds too: an undersized `1B` quorum silently selecting a
/// value is exactly the failure mode Lemma 7 rules out, so it must
/// never survive into production.
pub fn select_value<V: Value>(
    cfg: &SystemConfig,
    reports: &Collector<Report<V>>,
    my_initial: Option<&V>,
    observed: Option<&V>,
    ablations: Ablations,
) -> Option<V> {
    select_value_explained(cfg, reports, my_initial, observed, ablations).0
}

/// Like [`select_value`], additionally reporting *which* branch of the
/// rule fired as a telemetry [`RecoveryCase`] — notably whether the
/// `> n-f-e` ([`RecoveryCase::Gt`]) or the `= n-f-e`
/// ([`RecoveryCase::Eq`]) vote-count case resurrected a possible fast
/// decision.
///
/// The case is reported even when the selected value is `None` (which
/// can only happen in the [`RecoveryCase::Fallback`] branch).
pub fn select_value_explained<V: Value>(
    cfg: &SystemConfig,
    reports: &Collector<Report<V>>,
    my_initial: Option<&V>,
    observed: Option<&V>,
    ablations: Ablations,
) -> (Option<V>, RecoveryCase) {
    match classify(cfg, reports, ablations) {
        Recovery::ReportedDecision(v) => (Some(v), RecoveryCase::ReportedDecision),
        Recovery::SlowBallot(v) => (v, RecoveryCase::SlowBallot),
        Recovery::Gt(gt) => (Some(gt.into_value()), RecoveryCase::Gt),
        Recovery::Eq(eq) => {
            // Line 58's tie-break, or the least value under the ablation.
            let v = if ablations.no_max_tiebreak {
                eq.least_ablated()
            } else {
                eq.greatest()
            };
            (Some(v), RecoveryCase::Eq)
        }
        // Line 60: the leader's own proposal; liveness extension: any
        // observed proposal is equally valid here.
        Recovery::Fallback => (my_initial.or(observed).cloned(), RecoveryCase::Fallback),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use twostep_types::combinations;
    use twostep_types::ProcessSet;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn collect<V: Value>(reports: Vec<(u32, Report<V>)>) -> Collector<Report<V>> {
        let mut c = Collector::new();
        for (i, r) in reports {
            c.insert(pid(i), r);
        }
        c
    }

    /// Task-minimal config for e = f = 2: n = max{6, 5} = 6,
    /// slow quorum 4, threshold n-f-e = 2.
    fn cfg_task() -> SystemConfig {
        SystemConfig::minimal_task(2, 2).unwrap()
    }

    #[test]
    fn reported_decision_wins() {
        let cfg = cfg_task();
        let reports = collect(vec![
            (0, Report::empty()),
            (
                1,
                Report {
                    decided: Some(9u64),
                    ..Report::empty()
                },
            ),
            (2, Report::fast_vote(5, pid(5))),
            (3, Report::empty()),
        ]);
        assert_eq!(
            select_value(&cfg, &reports, Some(&1), None, Ablations::NONE),
            Some(9)
        );
    }

    #[test]
    fn highest_slow_ballot_wins() {
        let cfg = cfg_task();
        let mk = |vbal: u64, v: u64| Report {
            vbal: Ballot::new(vbal),
            val: Some(v),
            proposer: Some(pid(0)),
            decided: None,
        };
        let reports = collect(vec![
            (0, mk(1, 10)),
            (1, mk(3, 30)),
            (2, mk(2, 20)),
            (3, Report::empty()),
        ]);
        assert_eq!(
            select_value(&cfg, &reports, Some(&1), None, Ablations::NONE),
            Some(30)
        );
    }

    #[test]
    fn above_threshold_fast_votes_win() {
        let cfg = cfg_task(); // threshold 2
                              // p5 (outside Q = {0,1,2,3}) proposed 7; three voters > 2.
        let reports = collect(vec![
            (0, Report::fast_vote(7u64, pid(5))),
            (1, Report::fast_vote(7, pid(5))),
            (2, Report::fast_vote(7, pid(5))),
            (3, Report::empty()),
        ]);
        assert_eq!(
            select_value(&cfg, &reports, Some(&1), None, Ablations::NONE),
            Some(7)
        );
    }

    #[test]
    fn proposer_inside_quorum_is_excluded() {
        let cfg = cfg_task();
        // p0 ∈ Q proposed 7 and three others voted for it — but p0 is in
        // Q, so those votes are excluded; fallback to leader's initial.
        let reports = collect(vec![
            (0, Report::empty()), // the proposer itself, no vote
            (1, Report::fast_vote(7u64, pid(0))),
            (2, Report::fast_vote(7, pid(0))),
            (3, Report::fast_vote(7, pid(0))),
        ]);
        assert_eq!(
            select_value(&cfg, &reports, Some(&1), None, Ablations::NONE),
            Some(1)
        );
        // Ablated: the excluded votes count again and 7 wins.
        let ablated = Ablations {
            no_proposer_exclusion: true,
            ..Ablations::NONE
        };
        assert_eq!(
            select_value(&cfg, &reports, Some(&1), None, ablated),
            Some(7)
        );
    }

    #[test]
    fn exact_threshold_takes_max_value() {
        let cfg = cfg_task(); // threshold 2
                              // Two values with exactly 2 votes each, proposers outside Q.
        let reports = collect(vec![
            (0, Report::fast_vote(7u64, pid(5))),
            (1, Report::fast_vote(7, pid(5))),
            (2, Report::fast_vote(9, pid(4))),
            (3, Report::fast_vote(9, pid(4))),
        ]);
        assert_eq!(
            select_value(&cfg, &reports, Some(&1), None, Ablations::NONE),
            Some(9)
        );
        let ablated = Ablations {
            no_max_tiebreak: true,
            ..Ablations::NONE
        };
        assert_eq!(
            select_value(&cfg, &reports, Some(&1), None, ablated),
            Some(7)
        );
    }

    #[test]
    fn fallback_to_initial_then_observed() {
        let cfg = cfg_task();
        let empty = collect(vec![
            (0, Report::empty()),
            (1, Report::empty()),
            (2, Report::empty()),
            (3, Report::empty()),
        ]);
        assert_eq!(
            select_value(&cfg, &empty, Some(&42u64), Some(&13), Ablations::NONE),
            Some(42),
            "leader's own proposal beats observed"
        );
        assert_eq!(
            select_value(&cfg, &empty, None, Some(&13u64), Ablations::NONE),
            Some(13),
            "observed proposal used when leader has none"
        );
        assert_eq!(
            select_value::<u64>(&cfg, &empty, None, None, Ablations::NONE),
            None,
            "nothing to propose"
        );
    }

    #[test]
    fn below_threshold_votes_are_ignored() {
        let cfg = cfg_task(); // threshold 2
        let reports = collect(vec![
            (0, Report::fast_vote(7u64, pid(5))),
            (1, Report::empty()),
            (2, Report::empty()),
            (3, Report::empty()),
        ]);
        // One vote < threshold: fall through to initial.
        assert_eq!(
            select_value(&cfg, &reports, Some(&1), None, Ablations::NONE),
            Some(1)
        );
    }

    #[test]
    fn explained_variant_labels_every_branch() {
        let cfg = cfg_task(); // threshold 2
        let case_of = |reports: &Collector<Report<u64>>, initial: Option<&u64>| {
            select_value_explained(&cfg, reports, initial, None, Ablations::NONE).1
        };

        let decided = collect(vec![
            (
                0,
                Report {
                    decided: Some(9u64),
                    ..Report::empty()
                },
            ),
            (1, Report::empty()),
            (2, Report::empty()),
            (3, Report::empty()),
        ]);
        assert_eq!(case_of(&decided, None), RecoveryCase::ReportedDecision);

        let slow = collect(vec![
            (
                0,
                Report {
                    vbal: Ballot::new(2),
                    val: Some(5u64),
                    proposer: Some(pid(0)),
                    decided: None,
                },
            ),
            (1, Report::empty()),
            (2, Report::empty()),
            (3, Report::empty()),
        ]);
        assert_eq!(case_of(&slow, None), RecoveryCase::SlowBallot);

        let gt = collect(vec![
            (0, Report::fast_vote(7u64, pid(5))),
            (1, Report::fast_vote(7, pid(5))),
            (2, Report::fast_vote(7, pid(5))),
            (3, Report::empty()),
        ]);
        assert_eq!(case_of(&gt, None), RecoveryCase::Gt);

        let eq = collect(vec![
            (0, Report::fast_vote(7u64, pid(5))),
            (1, Report::fast_vote(7, pid(5))),
            (2, Report::empty()),
            (3, Report::empty()),
        ]);
        assert_eq!(case_of(&eq, None), RecoveryCase::Eq);

        let empty = collect(vec![
            (0, Report::<u64>::empty()),
            (1, Report::empty()),
            (2, Report::empty()),
            (3, Report::empty()),
        ]);
        assert_eq!(case_of(&empty, Some(&1)), RecoveryCase::Fallback);
        // The case is reported even when nothing can be selected.
        let (sel, case) = select_value_explained::<u64>(&cfg, &empty, None, None, Ablations::NONE);
        assert_eq!(sel, None);
        assert_eq!(case, RecoveryCase::Fallback);
    }

    /// Lemma 7, executable: for every task-bound config, every fast
    /// decision for `v`, every quorum Q, and every consistent adversarial
    /// completion of the reports, the rule selects `v`.
    ///
    /// Construction: at least n-e processes voted for v at ballot 0
    /// (proposer pv among them implicitly). Q is any n-f subset. The
    /// remaining Q members either voted for other values (with proposers
    /// arbitrary but consistent: a process that voted for v' has
    /// proposer(v') as its proposer field) or not at all. No slow votes,
    /// no decisions reported (those branches are trivially fine and
    /// covered above).
    #[test]
    fn lemma7_exhaustive_small_configs() {
        for (e, f) in [(1usize, 1), (1, 2), (2, 2), (2, 3)] {
            let cfg = SystemConfig::minimal_task(e, f).unwrap();
            let n = cfg.n();
            let v_win = 100u64;
            // Proposer of the winning value: try every choice.
            for pv in 0..n as u32 {
                // Fast voter sets: exactly n-e voters for v including... the
                // proposer "implicitly includes itself"; model: pv plus
                // n-e-1 others vote v. Enumerate which processes voted v:
                // all supersets of {pv} of size n-e. To keep the test fast,
                // use the lexicographically first few.
                let mut count = 0;
                for voters in combinations(n, n - e) {
                    if !voters.contains(pid(pv)) {
                        continue;
                    }
                    count += 1;
                    if count > 6 {
                        break;
                    }
                    // Everyone not voting for v votes for a rival value 50
                    // proposed by the lowest non-v-voter (worst case:
                    // concentrated rival support).
                    let rival_proposer = voters.complement(n).min();
                    // Q: first n-f processes — plus a rotation to vary
                    // overlap with the voter set.
                    for rot in 0..n {
                        let q: ProcessSet = (0..n)
                            .map(|i| pid(((i + rot) % n) as u32))
                            .take(n - f)
                            .collect();
                        let mut reports = Collector::new();
                        for qi in q.iter() {
                            let r = if voters.contains(qi) && qi != pid(pv) {
                                Report::fast_vote(v_win, pid(pv))
                            } else if qi == pid(pv) {
                                // The proposer itself: it decided v on the
                                // fast path (it gathered n-e support).
                                Report {
                                    vbal: Ballot::FAST,
                                    val: Some(v_win),
                                    proposer: Some(pid(pv)),
                                    decided: Some(v_win),
                                }
                            } else if let Some(rp) = rival_proposer {
                                Report::fast_vote(50, rp)
                            } else {
                                Report::empty()
                            };
                            reports.insert(qi, r);
                        }
                        let got = select_value(&cfg, &reports, Some(&1), None, Ablations::NONE);
                        assert_eq!(
                            got,
                            Some(v_win),
                            "cfg={cfg}, pv=p{pv}, voters={voters:?}, rot={rot}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        /// Randomized Lemma 7: same invariant as above but with random
        /// voter sets, random rival values (possibly greater than the
        /// winner — the tie-break must not overturn a fast decision),
        /// and random quorums.
        #[test]
        fn lemma7_randomized(
            seed_cfg in 0usize..4,
            pv_raw in 0u32..16,
            rival in 0u64..200,
            quorum_seed in 0u64..1000,
            extra_voters in 0usize..3,
        ) {
            let (e, f) = [(1usize, 1), (1, 2), (2, 2), (2, 3)][seed_cfg];
            let cfg = SystemConfig::minimal_task(e, f).unwrap();
            let n = cfg.n();
            let pv = pid(pv_raw % n as u32);
            let v_win = 100u64;
            prop_assume!(rival != v_win);

            // Voters for v: pv plus the next n-e-1+extra ids (wrapping).
            let n_voters = (n - e + extra_voters).min(n);
            let voters: ProcessSet = (0..n_voters)
                .map(|k| pid(((pv.as_u32() as usize + k) % n) as u32))
                .collect();

            // Quorum: n-f ids starting at quorum_seed.
            let q: ProcessSet = (0..n - f)
                .map(|k| pid(((quorum_seed as usize + k) % n) as u32))
                .collect();

            let rival_proposer = voters.complement(n).min();
            let mut reports = Collector::new();
            for qi in q.iter() {
                let r = if qi == pv {
                    Report {
                        vbal: Ballot::FAST,
                        val: Some(v_win),
                        proposer: Some(pv),
                        decided: Some(v_win),
                    }
                } else if voters.contains(qi) {
                    Report::fast_vote(v_win, pv)
                } else if let Some(rp) = rival_proposer {
                    Report::fast_vote(rival, rp)
                } else {
                    Report::empty()
                };
                reports.insert(qi, r);
            }
            let got = select_value(&cfg, &reports, Some(&1), None, Ablations::NONE);
            prop_assert_eq!(got, Some(v_win));
        }

        /// Validity of the rule: whatever it selects was either voted
        /// for, decided, the leader's initial or the observed proposal.
        #[test]
        fn selection_is_valid(
            votes in proptest::collection::vec((0u32..6, proptest::option::of(0u64..5)), 4),
            initial in proptest::option::of(100u64..105),
            observed in proptest::option::of(200u64..205),
        ) {
            let cfg = SystemConfig::minimal_task(2, 2).unwrap();
            let mut reports = Collector::new();
            let mut mentioned: Vec<u64> = vec![];
            for (i, (prop_raw, val)) in votes.iter().enumerate() {
                let r = match val {
                    Some(v) => {
                        mentioned.push(*v);
                        Report::fast_vote(*v, pid(prop_raw % 6))
                    }
                    None => Report::empty(),
                };
                reports.insert(pid(i as u32), r);
            }
            mentioned.extend(initial);
            mentioned.extend(observed);
            if let Some(sel) =
                select_value(&cfg, &reports, initial.as_ref(), observed.as_ref(), Ablations::NONE)
            {
                prop_assert!(mentioned.contains(&sel), "selected {sel} out of thin air");
            }
        }
    }
}
