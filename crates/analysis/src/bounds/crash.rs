//! The crash family: the paper's Theorems 5–6 as obligations O1–O7.
//!
//! For every configuration `(n, e, f)` the sweep checks that the quorum
//! arithmetic of a [`CrashModel`] satisfies the obligations the safety
//! proofs rest on:
//!
//! * **O1 sanity** — no quantity underflows or exceeds `n`, and the
//!   recovery threshold fits inside both quorums.
//! * **O2 slow intersection** — two slow quorums always share a process
//!   (`2·sq ≥ n+1`), the classic Paxos requirement.
//! * **O3 fast/slow visibility** — a fast quorum and a slow quorum share
//!   at least `recovery_threshold` processes (`fq + sq ≥ n + thr`): the
//!   survivors Lemma 7 counts when a fast decision must stay visible to
//!   recovery. With the real arithmetic this holds with equality.
//! * **O4 `>`-case uniqueness** — when the object bound `n ≥ 2e+f-1`
//!   holds, two values cannot both exceed the threshold inside one slow
//!   quorum (`2·(thr+1) > sq`); this is the §C.3 variant of Lemma 7.
//! * **O5 rival cap** — when the task bound `n ≥ 2e+f` holds, the
//!   processes outside a fast quorum cannot out-vote the threshold
//!   (`n - fq ≤ thr`), which is what lets the recovery rule's `=`-case
//!   tie-break never overturn a fast decision (Lemma 7 proper).
//! * **O6 case partition** — for every achievable per-value vote count
//!   `k ≤ sq`, exactly one recovery branch (`> thr`, `= thr`, `< thr`)
//!   applies: the rule's two counting cases are mutually exclusive and
//!   exhaustive.
//! * **O7 set-level cross-check** — for `n ≤ 10`, brute-force bitmask
//!   enumeration of actual quorum subsets re-derives O3 and O4 and must
//!   agree with the closed-form arithmetic.
//!
//! Below each protocol's bound the checker emits a **tightness
//! witness**: a concrete quorum pair (and, where the configuration is
//! still constructible, a full `1B` report set that is *executed
//! against the real recovery rule*, [`select_value`]) demonstrating the
//! failure the bound rules out. Theorems 5 and 6 become executable:
//! every `n` below `max{2e+f, 2f+1}` (task) or `max{2e+f-1, 2f+1}`
//! (object) carries a machine-checkable counterexample.

use twostep_core::recovery::{select_value, Report};
use twostep_core::Ablations;
use twostep_types::quorum::Collector;
use twostep_types::{ProcessId, ProtocolKind, SystemConfig};

use super::{
    ids, min_intersection_by_enumeration, ExecutionRecord, Fixture, Point, Sets, Sought,
    TightnessWitness, Violation, WitnessKind, SET_CHECK_MAX_N,
};

/// The crash quorum arithmetic at one `(n, e, f)`: the numbers O1–O7
/// are checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashModel {
    /// `"real"`, or the fixture whose broken number this carries.
    pub name: &'static str,
    /// Processes.
    pub n: usize,
    /// Fast-decision failure threshold.
    pub e: usize,
    /// Resilience threshold.
    pub f: usize,
    /// Fast-path quorum size (the real model's is `n - e`).
    pub fast_quorum: usize,
    /// Slow-path quorum size (the real model's is `n - f`).
    pub slow_quorum: usize,
    /// Recovery vote threshold (the real model's is `n - f - e`).
    pub recovery_threshold: usize,
}

impl CrashModel {
    /// The production arithmetic of `cfg`, with one number broken if
    /// `fixture` is a crash fixture.
    pub fn new(cfg: SystemConfig, fixture: Option<Fixture>) -> CrashModel {
        let real = CrashModel {
            name: "real",
            n: cfg.n(),
            e: cfg.e(),
            f: cfg.f(),
            fast_quorum: cfg.fast_quorum().size(),
            slow_quorum: cfg.slow_quorum().size(),
            recovery_threshold: cfg.recovery_threshold().size(),
        };
        match fixture {
            Some(fx @ Fixture::BrokenFastQuorum) => CrashModel {
                name: fx.name(),
                fast_quorum: real.fast_quorum.saturating_sub(1),
                ..real
            },
            Some(fx @ Fixture::BrokenRecoveryThreshold) => CrashModel {
                name: fx.name(),
                recovery_threshold: real.recovery_threshold + 1,
                ..real
            },
            Some(Fixture::ByzCrashSizedFastQuorum) | None => real,
        }
    }
}

/// The model of every constructible `(n, e, f)` with `n ≤ max_n`.
pub(super) fn models(max_n: usize, fixture: Option<Fixture>) -> impl Iterator<Item = CrashModel> {
    (3..=max_n)
        .flat_map(|n| (1..=(n - 1) / 2).flat_map(move |f| (1..=f).map(move |e| (n, e, f))))
        .filter_map(|(n, e, f)| SystemConfig::new(n, e, f).ok())
        .map(move |cfg| CrashModel::new(cfg, fixture))
}

/// Checks obligations O1–O7 for one model.
pub fn check(model: CrashModel) -> Vec<Violation> {
    let (name, n, e, f) = (model.name, model.n, model.e, model.f);
    let (fq, sq) = (model.fast_quorum, model.slow_quorum);
    let thr = model.recovery_threshold;
    let point = Point::Crash { n, e, f };
    let mut out = Vec::new();
    let mut violate = |obligation: &'static str, detail: String, witness_sets: Sets| {
        out.push(Violation {
            model: name,
            point,
            obligation,
            detail,
            witness_sets,
        });
    };

    // O1: basic sanity of the three quantities.
    let mut sanity = Vec::new();
    if fq == 0 || fq > n {
        sanity.push(format!("fast quorum {fq} outside 1..={n}"));
    }
    if sq == 0 || sq > n {
        sanity.push(format!("slow quorum {sq} outside 1..={n}"));
    }
    if thr == 0 {
        sanity.push("recovery threshold is 0: any single vote clears the > case".into());
    }
    if thr > sq {
        sanity.push(format!(
            "recovery threshold {thr} exceeds slow quorum {sq}: the = case is unreachable"
        ));
    }
    if thr > fq {
        sanity.push(format!("recovery threshold {thr} exceeds fast quorum {fq}"));
    }
    if f + e > n {
        sanity.push(format!("f+e = {} exceeds n = {n}", f + e));
    }
    if !sanity.is_empty() {
        violate("O1-sanity", sanity.join("; "), vec![]);
    }

    // O2: two slow quorums must intersect.
    if 2 * sq < n + 1 {
        violate(
            "O2-slow-intersection",
            format!("2·{sq} < {n}+1: disjoint slow quorums exist"),
            vec![
                ("slow_quorum_1", ids(0..sq)),
                ("slow_quorum_2", ids(n - sq..n)),
            ],
        );
    }

    // O3: a fast quorum and a slow quorum share >= thr processes.
    if fq + sq < n + thr {
        let overlap = (fq + sq).saturating_sub(n);
        violate(
            "O3-fast-slow-visibility",
            format!(
                "fq+sq = {} < n+thr = {}: a fast decision can retain only \
                 {overlap} < {thr} votes in some 1B quorum",
                fq + sq,
                n + thr
            ),
            vec![
                ("fast_quorum", ids(0..fq)),
                ("slow_quorum", ids(n - sq..n)),
                ("intersection", ids(n - sq..fq.max(n - sq))),
            ],
        );
    }

    // O4: at the object bound, at most one value can exceed thr votes
    // inside a slow quorum.
    let object_bound = n + 1 >= 2 * e + f;
    if object_bound && 2 * (thr + 1) <= sq {
        violate(
            "O4-gt-uniqueness",
            format!(
                "2·(thr+1) = {} ≤ sq = {sq}: two values can both exceed the \
                 threshold although n ≥ 2e+f-1",
                2 * (thr + 1)
            ),
            vec![
                ("slow_quorum", ids(0..sq)),
                ("value_a_voters", ids(0..thr + 1)),
                ("value_b_voters", ids(thr + 1..2 * (thr + 1))),
            ],
        );
    }

    // O5: at the task bound, the processes outside a fast quorum cannot
    // out-vote the threshold.
    let task_bound = n >= 2 * e + f;
    if task_bound && n - fq > thr {
        violate(
            "O5-task-rival-cap",
            format!(
                "n-fq = {} > thr = {thr}: a rival value can overtake the \
                 recovery threshold although n ≥ 2e+f",
                n - fq
            ),
            vec![("rival_voters", ids(fq..n))],
        );
    }

    // O6: the recovery branches partition every achievable vote count.
    for k in 0..=sq {
        let cases = [k > thr, k == thr, k < thr];
        let applicable = cases.iter().filter(|c| **c).count();
        if applicable != 1 {
            violate(
                "O6-case-partition",
                format!("vote count {k}: {applicable} recovery cases apply (thr = {thr})"),
                vec![],
            );
            break;
        }
    }

    // O7: brute-force subset enumeration must agree with the closed
    // forms behind O3 and O4.
    if n <= SET_CHECK_MAX_N && fq <= n && sq <= n && fq > 0 && sq > 0 {
        let min_overlap = min_intersection_by_enumeration(n, fq, sq);
        let arithmetic = (fq + sq).saturating_sub(n);
        if min_overlap != arithmetic {
            violate(
                "O7-set-cross-check",
                format!(
                    "min |FQ ∩ Q| over all subsets is {min_overlap}, closed form says {arithmetic}"
                ),
                vec![],
            );
        }
        let two_blocks_fit = 2 * (thr + 1) <= sq;
        let two_blocks_by_sets = sq >= 2 && exists_two_disjoint_blocks(sq, thr + 1);
        if two_blocks_fit != two_blocks_by_sets {
            violate(
                "O7-set-cross-check",
                format!(
                    "disjoint (thr+1)-blocks: arithmetic says {two_blocks_fit}, \
                     enumeration says {two_blocks_by_sets}"
                ),
                vec![],
            );
        }
    }

    out
}

/// Whether a set of `sq` elements contains two disjoint subsets of
/// `block` elements each, by bitmask enumeration — the set-wise
/// re-derivation of `2·block ≤ sq` used by the O7 cross-check.
fn exists_two_disjoint_blocks(sq: usize, block: usize) -> bool {
    for a in 0u32..1 << sq {
        if a.count_ones() as usize != block {
            continue;
        }
        for b in 0u32..1 << sq {
            if b.count_ones() as usize == block && a & b == 0 {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Tightness witnesses
// ---------------------------------------------------------------------

/// What a witness construction shows: its shape, its named process
/// sets and, when it ran [`select_value`], what that produced.
type Counterexample = (WitnessKind, Sets, Option<ExecutionRecord>);

/// `n ≤ 2f`: two slow quorums of `n-f` members that do not intersect.
fn disjoint_slow_quorums(n: usize, f: usize) -> Result<Counterexample, String> {
    if n <= f {
        return Err(format!("n={n} ≤ f={f}: no slow quorum exists at all"));
    }
    let sq = n - f;
    if 2 * sq > n {
        return Err(format!("n={n} > 2f={}: slow quorums intersect", 2 * f));
    }
    let q1 = ids(0..sq);
    let q2 = ids(n - sq..n);
    if q1.iter().any(|p| q2.contains(p)) {
        return Err("constructed quorums are not disjoint".into());
    }
    let sets = vec![("slow_quorum_1", q1), ("slow_quorum_2", q2)];
    Ok((WitnessKind::DisjointSlowQuorums, sets, None))
}

/// `2f+1 ≤ n ≤ 2e+f`: two fast quorums whose common part misses an
/// entire slow quorum — Fast Paxos's recovery rule cannot arbitrate.
fn fast_quorum_ambiguity(n: usize, e: usize, f: usize) -> Result<Counterexample, String> {
    if n < 2 * f + 1 || n > 2 * e + f {
        return Err(format!("n={n} outside [2f+1, 2e+f] for (e={e}, f={f})"));
    }
    let sq = n - f;
    // Miss the slow quorum Q = {0..sq} from both sides: FQ1 omits Q's
    // first e members, FQ2 omits Q's last e members.
    let e1: Vec<u32> = ids(0..e);
    let e2: Vec<u32> = ids(sq - e..sq);
    let fq1: Vec<u32> = ids(0..n).into_iter().filter(|p| !e1.contains(p)).collect();
    let fq2: Vec<u32> = ids(0..n).into_iter().filter(|p| !e2.contains(p)).collect();
    let q = ids(0..sq);
    let common: Vec<u32> = q
        .iter()
        .copied()
        .filter(|p| fq1.contains(p) && fq2.contains(p))
        .collect();
    if !common.is_empty() {
        return Err(format!(
            "FQ1 ∩ FQ2 ∩ Q = {common:?} is nonempty: witness construction is wrong"
        ));
    }
    let sets = vec![
        ("slow_quorum", q),
        ("fast_quorum_1", fq1),
        ("fast_quorum_2", fq2),
    ];
    Ok((WitnessKind::FastQuorumAmbiguity, sets, None))
}

/// `2f+1 ≤ n ≤ 2e+f-1` (task): executes the real [`select_value`] on a
/// run where 100 is fast-decided and the rule picks 200.
///
/// Construction: processes `0..n-e` vote for 100 (proposed by process
/// 0, which gathers a full fast quorum and decides). Process 1 — which
/// already voted for 100 — then proposes 200, and the `e` processes
/// outside the fast-voter set vote for it. The `f` processes `0..f`
/// (all fast voters, including both proposers) miss the `1B` quorum
/// `Q = {f..n}`. Inside `Q`, 100 keeps exactly `n-f-e` votes while 200
/// keeps `e ≥ n-f-e+1`, so the `>` case selects 200.
fn task_rival_overtake(n: usize, e: usize, f: usize) -> Result<Counterexample, String> {
    if n < 2 * f + 1 || n + 1 > 2 * e + f {
        return Err(format!("n={n} outside [2f+1, 2e+f-1] for (e={e}, f={f})"));
    }
    let cfg = SystemConfig::new(n, e, f).map_err(|err| err.to_string())?;
    let decided = 100u64;
    let rival = 200u64;
    let pv = ProcessId::new(0);
    let pw = ProcessId::new(1);
    // The region forces 2e ≥ f+2, hence f ≥ 2 (since e ≤ f) and the
    // excluded set {0..f} stays inside the fast-voter set {0..n-e}.
    let mut reports = Collector::new();
    for q in f..n {
        let r = if q < n - e {
            Report::fast_vote(decided, pv)
        } else {
            Report::fast_vote(rival, pw)
        };
        reports.insert(ProcessId::new(q as u32), r);
    }
    let selected = select_value(&cfg, &reports, None, None, Ablations::NONE)
        .ok_or("recovery selected nothing")?;
    if selected == decided {
        return Err("recovery agreed with the fast decision: not a witness".into());
    }
    let sets = vec![
        ("fast_voters_100", ids(0..n - e)),
        ("rival_voters_200", ids(n - e..n)),
        ("missing_from_1b", ids(0..f)),
        ("report_quorum", ids(f..n)),
    ];
    let executed = ExecutionRecord::Recovery {
        fast_decided: decided,
        recovery_selected: selected,
    };
    Ok((WitnessKind::TaskRivalOvertake, sets, Some(executed)))
}

/// `2f+1 ≤ n ≤ 2e+f-2` (object): executes the real [`select_value`] on
/// a run where 100 is fast-decided but both 100 and the rival 50 exceed
/// the `n-f-e` threshold, and the rule resolves the tie to 50.
///
/// Construction: processes `0..n-e` vote for 100 (proposed by process
/// 0); processes `n-e..n` vote for 50, proposed by process `n-e`. The
/// `f` non-reporters are `{0, 1, …, f-2}` (fast voters, including the
/// proposer of 100) plus `n-e` (the rival's proposer). Inside the `1B`
/// quorum, 100 keeps `n-f-e+1` votes and 50 keeps `e-1 ≥ n-f-e+1`:
/// Lemma 7's uniqueness premise fails exactly because `n ≤ 2e+f-2`.
fn object_gt_ambiguity(n: usize, e: usize, f: usize) -> Result<Counterexample, String> {
    if n < 2 * f + 1 || n + 2 > 2 * e + f {
        return Err(format!("n={n} outside [2f+1, 2e+f-2] for (e={e}, f={f})"));
    }
    let cfg = SystemConfig::new(n, e, f).map_err(|err| err.to_string())?;
    let decided = 100u64;
    let rival = 50u64;
    let pv = ProcessId::new(0);
    let pw = ProcessId::new((n - e) as u32);
    let missing: Vec<usize> = (0..f - 1).chain([n - e]).collect();
    let mut reports = Collector::new();
    for q in 0..n {
        if missing.contains(&q) {
            continue;
        }
        let r = if q < n - e {
            Report::fast_vote(decided, pv)
        } else {
            Report::fast_vote(rival, pw)
        };
        reports.insert(ProcessId::new(q as u32), r);
    }
    let selected = select_value(&cfg, &reports, None, None, Ablations::NONE)
        .ok_or("recovery selected nothing")?;
    if selected == decided {
        return Err("recovery agreed with the fast decision: not a witness".into());
    }
    let sets = vec![
        ("fast_voters_100", ids(0..n - e)),
        ("rival_voters_50", ids(n - e..n)),
        (
            "missing_from_1b",
            missing.iter().map(|i| *i as u32).collect(),
        ),
        (
            "report_quorum",
            ids(0..n)
                .into_iter()
                .filter(|p| !missing.contains(&(*p as usize)))
                .collect(),
        ),
    ];
    let executed = ExecutionRecord::Recovery {
        fast_decided: decided,
        recovery_selected: selected,
    };
    Ok((WitnessKind::ObjectGtAmbiguity, sets, Some(executed)))
}

/// Builds the tightness witness for `(protocol, n, e, f)` with `n`
/// below the protocol's bound, choosing the strongest constructible
/// shape for the region `n` falls in.
pub fn tightness_witness(
    protocol: ProtocolKind,
    n: usize,
    e: usize,
    f: usize,
) -> Result<TightnessWitness, String> {
    let bound = protocol.min_processes(e, f);
    if n >= bound {
        return Err(format!("n={n} is not below the {protocol} bound {bound}"));
    }
    let (kind, sets, executed) = if n < 2 * f + 1 {
        disjoint_slow_quorums(n, f)?
    } else {
        match protocol {
            ProtocolKind::Paxos => {
                return Err(format!(
                    "Paxos at n={n} ≥ 2f+1: not below its bound (internal error)"
                ))
            }
            ProtocolKind::FastPaxos => fast_quorum_ambiguity(n, e, f)?,
            ProtocolKind::TaskTwoStep => task_rival_overtake(n, e, f)?,
            ProtocolKind::ObjectTwoStep => object_gt_ambiguity(n, e, f)?,
        }
    };
    Ok(TightnessWitness {
        protocol: Some(protocol),
        point: Point::Crash { n, e, f },
        bound,
        kind,
        sets,
        executed,
    })
}

/// The witness sought at every `n ≤ max_n` below each protocol's bound,
/// with where it was sought; a failed construction names its protocol.
pub(super) fn witnesses(max_n: usize) -> Sought {
    let mut out = Vec::new();
    for f in 1..max_n {
        for e in 1..=f {
            for protocol in [
                ProtocolKind::Paxos,
                ProtocolKind::FastPaxos,
                ProtocolKind::TaskTwoStep,
                ProtocolKind::ObjectTwoStep,
            ] {
                let bound = protocol.min_processes(e, f);
                for n in f + 1..bound.min(max_n + 1) {
                    let witness = tightness_witness(protocol, n, e, f)
                        .map_err(|err| format!("{protocol}: {err}"));
                    out.push((Point::Crash { n, e, f }, witness));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{sweep, Family};
    use super::*;

    fn executed(w: &TightnessWitness) -> (u64, u64) {
        match w.executed {
            Some(ExecutionRecord::Recovery {
                fast_decided,
                recovery_selected,
            }) => (fast_decided, recovery_selected),
            other => panic!("not a select_value run: {other:?}"),
        }
    }

    #[test]
    fn real_model_mirrors_config() {
        let m = CrashModel::new(SystemConfig::new(7, 2, 3).unwrap(), None);
        assert_eq!((m.n, m.e, m.f), (7, 2, 3));
        assert_eq!(
            (m.fast_quorum, m.slow_quorum, m.recovery_threshold),
            (5, 4, 2)
        );
        assert_eq!(m.name, "real");
    }

    #[test]
    fn fixtures_break_exactly_one_quantity() {
        let cfg = SystemConfig::new(7, 2, 3).unwrap();
        let real = CrashModel::new(cfg, None);
        let bfq = CrashModel::new(cfg, Some(Fixture::BrokenFastQuorum));
        assert_eq!(
            bfq,
            CrashModel {
                name: "broken-fast-quorum",
                fast_quorum: real.fast_quorum - 1,
                ..real
            }
        );
        let brt = CrashModel::new(cfg, Some(Fixture::BrokenRecoveryThreshold));
        assert_eq!(
            brt,
            CrashModel {
                name: "broken-recovery-threshold",
                recovery_threshold: real.recovery_threshold + 1,
                ..real
            }
        );
        // A Byzantine fixture leaves the crash arithmetic alone.
        assert_eq!(
            CrashModel::new(cfg, Some(Fixture::ByzCrashSizedFastQuorum)),
            real
        );
    }

    #[test]
    fn real_arithmetic_is_clean_for_small_sweep() {
        let outcome = sweep(Family::Crash, 12, None);
        assert!(outcome.configs_checked > 0);
        assert_eq!(outcome.violations, vec![], "real arithmetic must verify");
    }

    #[test]
    fn task_witness_overturns_a_fast_decision() {
        // (e=2, f=2): task bound 6, so n=5 is one below.
        let w = tightness_witness(ProtocolKind::TaskTwoStep, 5, 2, 2).unwrap();
        assert_eq!(w.kind, WitnessKind::TaskRivalOvertake);
        assert_eq!(executed(&w), (100, 200));
    }

    #[test]
    fn object_witness_splits_the_gt_case() {
        // (e=3, f=3): object bound 8, so n=7 is one below and sits in
        // the Gt-ambiguity region n ≤ 2e+f-2.
        let w = tightness_witness(ProtocolKind::ObjectTwoStep, 7, 3, 3).unwrap();
        assert_eq!(w.kind, WitnessKind::ObjectGtAmbiguity);
        assert_eq!(executed(&w), (100, 50));
    }

    #[test]
    fn resilience_witness_is_a_disjoint_quorum_pair() {
        // n=4 < 2f+1 = 5 for f=2.
        let w = tightness_witness(ProtocolKind::Paxos, 4, 1, 2).unwrap();
        assert_eq!(w.kind, WitnessKind::DisjointSlowQuorums);
        let q1 = &w.sets[0].1;
        let q2 = &w.sets[1].1;
        assert!(q1.iter().all(|p| !q2.contains(p)));
    }

    #[test]
    fn fastpaxos_witness_blinds_a_slow_quorum() {
        // (e=2, f=2): Fast Paxos bound 7, n=6 one below.
        let w = tightness_witness(ProtocolKind::FastPaxos, 6, 2, 2).unwrap();
        assert_eq!(w.kind, WitnessKind::FastQuorumAmbiguity);
    }

    #[test]
    fn at_bound_witness_construction_is_refused() {
        assert!(tightness_witness(ProtocolKind::TaskTwoStep, 6, 2, 2).is_err());
    }
}
