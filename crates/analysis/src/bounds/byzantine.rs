//! The Byzantine family: the fast-path bounds `5f+1` / `5f−1` as
//! obligations B1–B7.
//!
//! The crash family ([`super::crash`]) certifies the paper's
//! `2e+f`-family arithmetic; this module does the same for the
//! Byzantine comparison point of experiment E14: FaB-Paxos-style fast
//! quorums (`⌈(n+3f+1)/2⌉`, two-step iff `n ≥ 5f+1`) and the
//! arXiv:2102.12825 "Tight" variant (`⌈(n+3f−1)/2⌉`, two-step iff
//! `n ≥ 5f−1` under honest-proposer conditioning). For every
//! `(n, f, variant)` it checks a [`ByzModel`] against:
//!
//! * **B1 fast honest intersection** — two fast quorums share an
//!   *honest* process (`2·fq ≥ n+f+1`), so an equivocating coalition of
//!   `f` processes cannot drive two conflicting fast decisions: the
//!   honest process in the overlap echoes only one value.
//! * **B2 recovery certification** — a fast decision survives a view
//!   change. For FaB, a fast-decided value keeps `fq + sq − n − f`
//!   honest witnesses inside every slow quorum, which must reach the
//!   certification threshold `f+1` (so forged `Promise`s are outvoted).
//!   Tight recovery certifies from the *coordinator's own report*,
//!   which phase one waits for, so its obligation is quorum
//!   feasibility: `sq ≤ n − f`, a promise quorum containing the
//!   (honest, by conditioning) coordinator can always form — no
//!   witness counting, which is exactly what the two fewer processes
//!   buy.
//! * **B3 slow honest intersection** — two slow quorums share an honest
//!   process (`2·sq ≥ n+f+1`): ballots cannot fork.
//! * **B4 fast availability, both directions** — the fast path is live
//!   under `f` silent processes (`fq ≤ n−f`) *iff* `n` reaches the
//!   variant's bound (`5f+1` / `5f−1`, floored at `3f+1`). The
//!   below-bound direction is the tightness half: arithmetic that is
//!   live below the bound is broken arithmetic.
//! * **B5 certification threshold placement** — the matching-report
//!   threshold sits strictly above the forging coalition (`cert > f`,
//!   so `f` fabricated `Promise`s can never certify a value by
//!   themselves) yet within the intersection of an accepting quorum
//!   and the next view's promise quorum (`cert ≤ 2·sq − n`), the only
//!   processes that can ever produce matching reports for a
//!   slow-decided value. The full intersection counts because a
//!   `Promise`'s slow `(vbal, vval)` pair quotes the ballot leader's
//!   signed progress certificate: a Byzantine intersection member can
//!   withhold its report (shrinking the quorum, not the intersection)
//!   but cannot misreport the pair — load-bearing below `n = 4f+1`,
//!   where only `n − 3f` of the `n − 2f` intersection members are
//!   honest (see the `Corruptible` impl on `FabMsg`).
//! * **B6 max-count recovery (FaB only)** — the fast quorum is large
//!   enough that the most-reported value in a promise quorum is the
//!   fast-decided one (`2·fq > n+3f`). The Tight variant *deliberately*
//!   gives this up (that is where its two processes go) and leans on
//!   B2's honest-proposer conditioning instead, so B6 is not an
//!   obligation there.
//! * **B7 set-level cross-check** — for `n ≤ 10`, brute-force subset
//!   enumeration re-derives the worst-case honest overlap of two fast
//!   quorums (`max(0, 2fq − n − f)`, with the `f` Byzantine processes
//!   packed adversarially into the intersection) and must agree with
//!   the closed form behind B1.
//!
//! Below each variant's liveness bound the sweep emits a **tightness
//! witness**: the `f` silent processes plus the largest live set,
//! showing `n − f < fq`. Every witness whose configuration is
//! constructible is additionally *executed*: the real [`FastBft`]
//! baseline runs under the deterministic synchronous runner with the
//! `f` processes crashed, and the run must show zero fast deciders
//! while the slow path still reaches agreement — the Byzantine
//! analogue of the crash family's `select_value` executions.

use twostep_baselines::FastBft;
use twostep_sim::SyncRunner;
use twostep_types::{ByzConfig, ByzVariant, Duration, ProcessId, ProcessSet, SystemConfig};

use super::{
    ids, min_intersection_by_enumeration, ExecutionRecord, Fixture, Point, Sets, Sought,
    TightnessWitness, Violation, WitnessKind, SET_CHECK_MAX_N,
};

/// Simulation horizon for executed witnesses: enough for suspicion,
/// a new ballot, and the slow round at every constructible size.
const WITNESS_HORIZON_DELTAS: u64 = 80;

/// The Byzantine quorum arithmetic at one `(n, f, variant)`: the
/// numbers B1–B7 are checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzModel {
    /// `"real"`, or the fixture whose broken number this carries.
    pub name: &'static str,
    /// Quorum-rule variant.
    pub variant: ByzVariant,
    /// Processes.
    pub n: usize,
    /// Byzantine resilience threshold.
    pub f: usize,
    /// Fast-path quorum size.
    pub fast_quorum: usize,
    /// Slow-path (view-change) quorum size.
    pub slow_quorum: usize,
    /// Matching-report threshold for value certification.
    pub cert_threshold: usize,
}

impl ByzModel {
    /// The production arithmetic of `cfg`, with one number broken if
    /// `fixture` is a Byzantine fixture.
    pub fn new(cfg: ByzConfig, fixture: Option<Fixture>) -> ByzModel {
        let real = ByzModel {
            name: "real",
            variant: cfg.variant(),
            n: cfg.n(),
            f: cfg.f(),
            fast_quorum: cfg.fast_quorum().size(),
            slow_quorum: cfg.slow_quorum().size(),
            cert_threshold: cfg.cert_threshold().size(),
        };
        match fixture {
            // Crash-style majority-of-(n+f): ignores that the f
            // overlap members may be equivocators.
            Some(fx @ Fixture::ByzCrashSizedFastQuorum) => ByzModel {
                name: fx.name(),
                fast_quorum: (real.n + real.f + 1).div_ceil(2),
                ..real
            },
            Some(Fixture::BrokenFastQuorum | Fixture::BrokenRecoveryThreshold) | None => real,
        }
    }
}

/// The model of every constructible `(n, f, variant)` with `n ≤ max_n`.
pub(super) fn models(max_n: usize, fixture: Option<Fixture>) -> impl Iterator<Item = ByzModel> {
    (4..=max_n)
        .flat_map(|n| {
            (1..=(n - 1) / 3)
                .flat_map(move |f| [ByzVariant::Fab, ByzVariant::Tight].map(|v| (n, f, v)))
        })
        .filter_map(|(n, f, variant)| ByzConfig::new(n, f, variant).ok())
        .map(move |cfg| ByzModel::new(cfg, fixture))
}

/// Checks obligations B1–B7 for one model.
pub fn check(model: ByzModel) -> Vec<Violation> {
    let (name, variant, n, f) = (model.name, model.variant, model.n, model.f);
    let (fq, sq, cert) = (model.fast_quorum, model.slow_quorum, model.cert_threshold);
    let point = Point::Byzantine { variant, n, f };
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

    // B1: two fast quorums must share an honest process even after the
    // adversary packs all f Byzantine members into the intersection.
    if 2 * fq < n + f + 1 {
        let overlap = (2 * fq).saturating_sub(n);
        violate(
            "B1-fast-honest-intersection",
            format!(
                "2·fq = {} < n+f+1 = {}: two fast quorums can overlap in only \
                 {overlap} ≤ f = {f} processes, all possibly equivocators",
                2 * fq,
                n + f + 1
            ),
            vec![
                ("fast_quorum_1", ids(0..fq)),
                ("fast_quorum_2", ids(n - fq..n)),
                ("byzantine_overlap", ids(n - fq..fq.max(n - fq))),
            ],
        );
    }

    // B2: a fast decision must survive recovery, per variant.
    //
    // FaB counts matching fast-round (vbal, vval) reports and needs
    // cert = f+1 of them honest in every promise quorum:
    // fq+sq−n−f ≥ cert. Tight instead certifies from the *coordinator's
    // own report*, which phase one waits for — so its obligation is not
    // a witness count but quorum feasibility: a promise quorum that
    // includes the (honest, by conditioning) coordinator must be able
    // to form from the n−f honest processes, i.e. sq ≤ n−f. This
    // matches what `FastBft::certify_fast` actually reads; the earlier
    // "one honest witness" form encoded an assumption the
    // implementation never used (REVIEW.md, medium).
    match variant {
        ByzVariant::Fab => {
            let honest_witnesses = (fq + sq).saturating_sub(n + f);
            if honest_witnesses < cert {
                violate(
                    "B2-recovery-certification",
                    format!(
                        "fq+sq−n−f = {honest_witnesses} < cert = {cert}: a fast-decided \
                         value cannot gather f+1 matching honest reports across a \
                         view change"
                    ),
                    vec![("fast_quorum", ids(0..fq)), ("slow_quorum", ids(n - sq..n))],
                );
            }
        }
        ByzVariant::Tight => {
            if sq > n.saturating_sub(f) {
                violate(
                    "B2-recovery-certification",
                    format!(
                        "sq = {sq} > n−f = {}: recovery waits for a promise quorum \
                         containing the coordinator, which the {f} faulty processes \
                         can starve forever",
                        n.saturating_sub(f)
                    ),
                    vec![("honest_set", ids(0..n - f))],
                );
            }
        }
    }

    // B3: two slow quorums share an honest process.
    if 2 * sq < n + f + 1 {
        violate(
            "B3-slow-honest-intersection",
            format!(
                "2·sq = {} < n+f+1 = {}: ballots can fork through a fully \
                 Byzantine overlap",
                2 * sq,
                n + f + 1
            ),
            vec![
                ("slow_quorum_1", ids(0..sq)),
                ("slow_quorum_2", ids(n - sq..n)),
            ],
        );
    }

    // B4: fast availability under f silence, both directions. The
    // below-bound direction is the tightness half of the 5f+1 / 5f−1
    // bounds: arithmetic that stays live below them is broken.
    let live = fq <= n.saturating_sub(f);
    let bound = variant.min_fast_live(f);
    if n >= bound && !live {
        violate(
            "B4-fast-availability",
            format!(
                "fq = {fq} > n−f = {}: the fast path is dead although n = {n} ≥ {bound}",
                n - f
            ),
            vec![("largest_live_set", ids(0..n - f))],
        );
    }
    if n < bound && live {
        violate(
            "B4-fast-availability",
            format!(
                "fq = {fq} ≤ n−f = {}: the fast path is live although n = {n} < {bound} \
                 — the bound's tightness is refuted",
                n - f
            ),
            vec![
                ("silent_byzantine", ids(n - f..n)),
                ("claimed_fast_quorum", ids(0..fq)),
            ],
        );
    }

    // B5: the certification threshold must be unreachable for the f
    // forgers alone, yet achievable by the accepting/promise quorum
    // intersection — the only processes that can report a slow value.
    // The *full* 2·sq−n intersection counts (not just its honest
    // part): slow reports are certificate-pinned, so a Byzantine
    // member can only withhold, which shrinks the quorum rather than
    // the intersection.
    if cert <= f {
        violate(
            "B5-cert-threshold-placement",
            format!(
                "cert = {cert} ≤ f = {f}: a coalition of forged reports can \
                 certify a value nobody accepted"
            ),
            vec![("forging_coalition", ids(n - f..n))],
        );
    }
    if cert > (2 * sq).saturating_sub(n) {
        violate(
            "B5-cert-threshold-placement",
            format!(
                "cert = {cert} > 2·sq−n = {}: even the full intersection of an \
                 accepting quorum and the next promise quorum cannot certify \
                 a slow-decided value",
                (2 * sq).saturating_sub(n)
            ),
            vec![
                ("accepting_quorum", ids(0..sq)),
                ("next_view_quorum", ids(n - sq..n)),
            ],
        );
    }

    // B6 (FaB only): max-count recovery — the fast quorum must be
    // large enough that the plurality report value in any promise
    // quorum is the fast-decided one: 2·fq > n+3f. The Tight variant
    // trades exactly this away for two fewer processes.
    if variant == ByzVariant::Fab && 2 * fq <= n + 3 * f {
        violate(
            "B6-maxcount-recovery",
            format!(
                "2·fq = {} ≤ n+3f = {}: a rival value backed by f forgers plus \
                 the processes outside the fast quorum can tie or beat the \
                 fast-decided value's report count",
                2 * fq,
                n + 3 * f
            ),
            vec![
                ("fast_quorum", ids(0..fq)),
                ("outside_fast_quorum", ids(fq..n)),
            ],
        );
    }

    // B7: brute-force subset enumeration must agree with the closed
    // form behind B1's honest-overlap count.
    if n <= SET_CHECK_MAX_N && fq > 0 && fq <= n {
        let min_overlap = min_intersection_by_enumeration(n, fq, fq);
        let closed_form = (2 * fq).saturating_sub(n);
        if min_overlap != closed_form {
            violate(
                "B7-set-cross-check",
                format!(
                    "min |FQ1 ∩ FQ2| over all subsets is {min_overlap}, closed form \
                     says {closed_form}"
                ),
                vec![],
            );
        } else {
            let worst_honest = min_overlap.saturating_sub(f);
            let arithmetic = (2 * fq).saturating_sub(n + f);
            if worst_honest != arithmetic {
                violate(
                    "B7-set-cross-check",
                    format!(
                        "worst-case honest overlap by enumeration is {worst_honest}, \
                         closed form says {arithmetic}"
                    ),
                    vec![],
                );
            }
        }
    }

    out
}

/// Builds the tightness witness for `(variant, n, f)` with `3f+1 ≤ n`
/// below the variant's fast-liveness bound, executing the real
/// [`FastBft`] baseline to demonstrate the dead fast path.
pub fn tightness_witness(
    variant: ByzVariant,
    n: usize,
    f: usize,
) -> Result<TightnessWitness, String> {
    let bound = variant.min_fast_live(f);
    if n >= bound {
        return Err(format!(
            "n={n} is not below the {} fast-liveness bound {bound}",
            variant.name()
        ));
    }
    let byz = ByzConfig::new(n, f, variant).map_err(|e| e.to_string())?;
    if byz.fast_path_live() {
        return Err(format!(
            "fast path reported live at n={n} < {bound}: arithmetic is broken"
        ));
    }
    let sets = vec![
        ("silent_byzantine", ids(n - f..n)),
        ("largest_live_set", ids(0..n - f)),
    ];

    // Execute: crash the f silent processes and drive the real FastBft
    // through the synchronous runner. No fast quorum can form, so zero
    // fast deciders — and the slow path must still reach agreement on
    // the coordinator's fast-round value.
    let sim = SystemConfig::new(byz.n(), byz.f(), byz.f()).map_err(|e| e.to_string())?;
    let crashed: ProcessSet = (n - f..n).map(|i| ProcessId::new(i as u32)).collect();
    let outcome = SyncRunner::new(sim)
        .crashed(crashed)
        .horizon(Duration::deltas(WITNESS_HORIZON_DELTAS))
        .run(|q| FastBft::new(byz, q, u64::from(q.as_u32())));
    let (fast, _) = outcome.fast_deciders();
    if !fast.is_empty() {
        return Err(format!(
            "{} processes two-stepped at n={n} < {bound}: not a witness",
            fast.len()
        ));
    }
    if !outcome.all_correct_decided() || !outcome.agreement() {
        return Err(format!(
            "slow path failed to reach agreement at n={n}, f={f} ({})",
            variant.name()
        ));
    }
    let decided = *outcome.decided_values()[0];

    Ok(TightnessWitness {
        protocol: None,
        point: Point::Byzantine { variant, n, f },
        bound,
        kind: WitnessKind::FastPathVacant,
        sets,
        executed: Some(ExecutionRecord::FastBft {
            crashed: f,
            fast_deciders: 0,
            correct_deciders: n - f,
            decided_value: decided,
        }),
    })
}

/// The witness sought at every `3f+1 ≤ n ≤ max_n` below each variant's
/// fast-liveness bound, with where it was sought.
pub(super) fn witnesses(max_n: usize) -> Sought {
    let mut out = Vec::new();
    for variant in [ByzVariant::Fab, ByzVariant::Tight] {
        for f in (1..).take_while(|f| 3 * f < max_n) {
            for n in 3 * f + 1..variant.min_fast_live(f).min(max_n + 1) {
                let point = Point::Byzantine { variant, n, f };
                out.push((point, tightness_witness(variant, n, f)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{sweep, Family};
    use super::*;

    /// `(fast deciders, correct deciders, decided value)` of a
    /// FastBft-executed witness.
    fn executed(w: &TightnessWitness) -> (usize, usize, u64) {
        match w.executed {
            Some(ExecutionRecord::FastBft {
                fast_deciders,
                correct_deciders,
                decided_value,
                ..
            }) => (fast_deciders, correct_deciders, decided_value),
            other => panic!("all byz witnesses execute FastBft: {other:?}"),
        }
    }

    #[test]
    fn real_byz_arithmetic_is_clean_for_small_sweep() {
        let outcome = sweep(Family::Byzantine, 16, None);
        assert!(outcome.configs_checked > 0);
        assert_eq!(outcome.violations, vec![], "real arithmetic must verify");
    }

    #[test]
    fn every_witness_is_executed_and_fast_path_vacant() {
        let outcome = sweep(Family::Byzantine, 16, None);
        assert!(!outcome.witnesses.is_empty());
        for w in &outcome.witnesses {
            let (n, f) = (w.point.n(), w.point.f());
            let (fast, correct, _) = executed(w);
            assert_eq!(fast, 0, "n={n} f={f}");
            assert_eq!(correct, n - f);
        }
    }

    #[test]
    fn executed_witness_exists_at_n_equals_5f() {
        // The acceptance criterion: n = 5f breaks the FaB fast path,
        // demonstrated by a real execution, for every f in range.
        let outcome = sweep(Family::Byzantine, 16, None);
        let at_5f: Vec<_> = outcome
            .witnesses
            .iter()
            .filter(|w| {
                matches!(w.point, Point::Byzantine { variant: ByzVariant::Fab, n, f } if n == 5 * f)
            })
            .collect();
        assert!(at_5f.len() >= 2, "f = 1, 2, 3 all fit under n = 16");
        for w in at_5f {
            assert_eq!(w.bound, 5 * w.point.f() + 1);
            assert!(w.executed.is_some());
        }
    }

    #[test]
    fn direct_witness_at_the_classic_corner() {
        let w = tightness_witness(ByzVariant::Fab, 5, 1).unwrap();
        assert_eq!(w.bound, 6);
        let (fast, correct, decided) = executed(&w);
        assert_eq!((fast, correct), (0, 4));
        assert_eq!(decided, 0, "slow path certifies p0's fast value");
    }

    #[test]
    fn tight_variant_witness_region_is_two_narrower() {
        // f = 2: Tight bound 9, floor 7 — witnesses at n = 7, 8 only.
        let outcome = sweep(Family::Byzantine, 10, None);
        let tight = |f| -> Vec<usize> {
            outcome
                .witnesses
                .iter()
                .filter_map(|w| match w.point {
                    Point::Byzantine {
                        variant: ByzVariant::Tight,
                        n,
                        f: wf,
                    } if wf == f => Some(n),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(tight(2), vec![7, 8]);
        // f = 1: Tight bound 4 equals the 3f+1 floor — no witness region.
        assert_eq!(tight(1), Vec::<usize>::new());
    }

    #[test]
    fn at_bound_witness_construction_is_refused() {
        assert!(tightness_witness(ByzVariant::Fab, 6, 1).is_err());
        assert!(tightness_witness(ByzVariant::Tight, 4, 1).is_err());
    }
}
