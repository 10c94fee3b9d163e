//! Exhaustive small-model checking of the Byzantine fast-path bounds.
//!
//! The crash checker ([`crate::bounds`]) certifies the paper's
//! `2e+f`-family arithmetic; this module does the same for the
//! Byzantine comparison point of experiment E14: FaB-Paxos-style fast
//! quorums (`⌈(n+3f+1)/2⌉`, two-step iff `n ≥ 5f+1`) and the
//! arXiv:2102.12825 "Tight" variant (`⌈(n+3f−1)/2⌉`, two-step iff
//! `n ≥ 5f−1` under honest-proposer conditioning). For every
//! `(n, f, variant)` with `n` up to a caller-chosen ceiling it
//! discharges:
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
//! analogue of the crash checker's `select_value` executions.

use twostep_baselines::FastBft;
use twostep_sim::SyncRunner;
use twostep_types::{ByzConfig, ByzVariant, Duration, ProcessId, ProcessSet, SystemConfig};

use crate::bounds::{
    ids, json_escape, json_sets, min_intersection_by_enumeration, SET_CHECK_MAX_N,
};

/// Simulation horizon for executed witnesses: enough for suspicion,
/// a new ballot, and the slow round at every constructible size.
const WITNESS_HORIZON_DELTAS: u64 = 80;

/// Byzantine quorum arithmetic as seen by the bound checker.
///
/// Mirrors [`crate::model::QuorumModel`]: implementations answer for
/// one concrete `(n, f, variant)`, and the checker derives every
/// obligation from these numbers — so seeded-broken fixtures can prove
/// the gate is able to go red.
pub trait ByzQuorumModel {
    /// Which arithmetic this is ("real", or a fixture name).
    fn name(&self) -> &'static str;
    /// The underlying parameters `(n, f, variant)`.
    fn params(&self) -> (usize, usize, ByzVariant);
    /// Fast-path quorum size.
    fn fast_quorum(&self) -> usize;
    /// Slow-path (view-change) quorum size.
    fn slow_quorum(&self) -> usize;
    /// Matching-report threshold for value certification.
    fn cert_threshold(&self) -> usize;
}

/// The production arithmetic: delegates every query to [`ByzConfig`].
#[derive(Debug, Clone, Copy)]
pub struct RealByzModel(pub ByzConfig);

impl ByzQuorumModel for RealByzModel {
    fn name(&self) -> &'static str {
        "real"
    }

    fn params(&self) -> (usize, usize, ByzVariant) {
        (self.0.n(), self.0.f(), self.0.variant())
    }

    fn fast_quorum(&self) -> usize {
        self.0.fast_quorum().size()
    }

    fn slow_quorum(&self) -> usize {
        self.0.slow_quorum().size()
    }

    fn cert_threshold(&self) -> usize {
        self.0.cert_threshold().size()
    }
}

/// Seeded-broken Byzantine arithmetic the checker must reject. CI runs
/// the checker against this and asserts a nonzero exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzFixture {
    /// Fast quorums of `⌈(n+f+1)/2⌉` — the *crash-tolerant* size,
    /// blind to equivocation. Too small for max-count recovery (B6
    /// fails for every FaB configuration), short of certification
    /// below `n = 5f` (B2), and live below the variant bounds (the
    /// tightness half of B4).
    CrashSizedFastQuorum,
}

impl ByzFixture {
    /// All fixtures, for CLI listing and tests.
    pub const ALL: [ByzFixture; 1] = [ByzFixture::CrashSizedFastQuorum];

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<ByzFixture> {
        match s {
            "byz-crash-sized-fast-quorum" => Some(ByzFixture::CrashSizedFastQuorum),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            ByzFixture::CrashSizedFastQuorum => "byz-crash-sized-fast-quorum",
        }
    }

    /// Wraps `cfg` in this fixture's broken arithmetic.
    pub fn model(self, cfg: ByzConfig) -> ByzFixtureModel {
        ByzFixtureModel { cfg, fixture: self }
    }
}

/// A [`ByzQuorumModel`] with the fast quorum deliberately mis-sized.
#[derive(Debug, Clone, Copy)]
pub struct ByzFixtureModel {
    cfg: ByzConfig,
    fixture: ByzFixture,
}

impl ByzQuorumModel for ByzFixtureModel {
    fn name(&self) -> &'static str {
        self.fixture.name()
    }

    fn params(&self) -> (usize, usize, ByzVariant) {
        (self.cfg.n(), self.cfg.f(), self.cfg.variant())
    }

    fn fast_quorum(&self) -> usize {
        match self.fixture {
            // Crash-style majority-of-(n+f): ignores that the f
            // overlap members may be equivocators.
            ByzFixture::CrashSizedFastQuorum => {
                let (n, f, _) = self.params();
                (n.saturating_add(f).saturating_add(1)).div_ceil(2)
            }
        }
    }

    fn slow_quorum(&self) -> usize {
        self.cfg.slow_quorum().size()
    }

    fn cert_threshold(&self) -> usize {
        self.cfg.cert_threshold().size()
    }
}

/// A Byzantine quorum obligation that fails for a model claiming it
/// should hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzViolation {
    /// Model the violation was found in (`"real"` or a fixture name).
    pub model: &'static str,
    /// Quorum-rule variant ("FaB(5f+1)" / "FaB(5f-1)").
    pub variant: &'static str,
    /// Processes.
    pub n: usize,
    /// Byzantine resilience threshold.
    pub f: usize,
    /// Obligation identifier (`"B1-fast-honest-intersection"`, …).
    pub obligation: &'static str,
    /// Human-readable account of the failing inequality.
    pub detail: String,
    /// Concrete sets exhibiting the failure, when constructible.
    pub witness_sets: Vec<(&'static str, Vec<u32>)>,
}

/// Result of executing a tightness witness against the real
/// [`FastBft`] baseline under the synchronous runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzExecutionRecord {
    /// Processes crashed in the run (always `f`, the top ids).
    pub crashed: usize,
    /// Correct processes that decided on the fast path — zero, by
    /// construction, since `fq > n − f`.
    pub fast_deciders: usize,
    /// Correct processes that decided at all (via recovery).
    pub correct_deciders: usize,
    /// The agreed value the slow path certified.
    pub decided_value: u64,
}

/// A concrete counterexample showing a fast-liveness bound is tight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzTightnessWitness {
    /// Quorum-rule variant the bound belongs to.
    pub variant: ByzVariant,
    /// Processes (below the fast-liveness bound, at or above `3f+1`).
    pub n: usize,
    /// Byzantine resilience threshold.
    pub f: usize,
    /// The fast-liveness bound `n` falls short of.
    pub bound: usize,
    /// Named process sets: the silent coalition and the largest live
    /// set, whose size `n − f` is below the fast quorum.
    pub sets: Vec<(&'static str, Vec<u32>)>,
    /// Present when the witness was executed against [`FastBft`].
    pub executed: Option<ByzExecutionRecord>,
}

/// Outcome of a full Byzantine sweep.
#[derive(Debug, Clone)]
pub struct ByzSweepOutcome {
    /// The sweep ceiling.
    pub max_n: usize,
    /// Arithmetic under test (`"real"` or a fixture name).
    pub model: &'static str,
    /// Number of `(n, f, variant)` configurations checked.
    pub configs_checked: usize,
    /// Obligation violations (empty for the real arithmetic).
    pub violations: Vec<ByzViolation>,
    /// Tightness witnesses for every `n` below each variant's
    /// fast-liveness bound (real model only).
    pub witnesses: Vec<ByzTightnessWitness>,
}

impl ByzSweepOutcome {
    /// Whether the sweep certifies the model.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks obligations B1–B7 for one model instance.
pub fn check_byz_model(model: &dyn ByzQuorumModel) -> Vec<ByzViolation> {
    let (n, f, variant) = model.params();
    let fq = model.fast_quorum();
    let sq = model.slow_quorum();
    let cert = model.cert_threshold();
    let mut out = Vec::new();
    let mut violate =
        |obligation: &'static str, detail: String, witness_sets: Vec<(&'static str, Vec<u32>)>| {
            out.push(ByzViolation {
                model: model.name(),
                variant: variant.name(),
                n,
                f,
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
pub fn byz_tightness_witness(
    variant: ByzVariant,
    n: usize,
    f: usize,
) -> Result<ByzTightnessWitness, String> {
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

    Ok(ByzTightnessWitness {
        variant,
        n,
        f,
        bound,
        sets,
        executed: Some(ByzExecutionRecord {
            crashed: f,
            fast_deciders: 0,
            correct_deciders: n - f,
            decided_value: decided,
        }),
    })
}

/// Runs the full Byzantine sweep: obligations for every constructible
/// `(n, f, variant)` with `n ≤ max_n`, plus (for the real arithmetic)
/// executed tightness witnesses for every `n` below each variant's
/// fast-liveness bound.
///
/// Witness-construction failures are reported as
/// `"witness-construction"` violations, exactly as in the crash sweep:
/// a bound the checker cannot exhibit a counterexample for is treated
/// as unverified.
pub fn sweep(max_n: usize, fixture: Option<ByzFixture>) -> ByzSweepOutcome {
    let model_name = fixture.map_or("real", ByzFixture::name);
    let mut outcome = ByzSweepOutcome {
        max_n,
        model: model_name,
        configs_checked: 0,
        violations: Vec::new(),
        witnesses: Vec::new(),
    };

    for n in 4..=max_n {
        for f in 1..=n.saturating_sub(1) / 3 {
            for variant in [ByzVariant::Fab, ByzVariant::Tight] {
                let Ok(cfg) = ByzConfig::new(n, f, variant) else {
                    continue;
                };
                outcome.configs_checked += 1;
                let violations = match fixture {
                    Some(fx) => check_byz_model(&fx.model(cfg)),
                    None => check_byz_model(&RealByzModel(cfg)),
                };
                outcome.violations.extend(violations);
            }
        }
    }

    // Tightness witnesses demonstrate the real bounds; fixtures skip
    // them (their purpose is to trip the obligations above).
    if fixture.is_none() {
        for variant in [ByzVariant::Fab, ByzVariant::Tight] {
            for f in 1.. {
                let floor = 3 * f + 1;
                if floor > max_n {
                    break;
                }
                let bound = variant.min_fast_live(f);
                for n in floor..bound.min(max_n + 1) {
                    match byz_tightness_witness(variant, n, f) {
                        Ok(w) => outcome.witnesses.push(w),
                        Err(err) => outcome.violations.push(ByzViolation {
                            model: model_name,
                            variant: variant.name(),
                            n,
                            f,
                            obligation: "witness-construction",
                            detail: err,
                            witness_sets: vec![],
                        }),
                    }
                }
            }
        }
    }

    outcome
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

impl ByzViolation {
    /// Machine-readable rendering (one JSON object).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"model\":\"{}\",\"variant\":\"{}\",\"n\":{},\"f\":{},\
             \"obligation\":\"{}\",\"detail\":\"{}\",\"sets\":{}}}",
            self.model,
            json_escape(self.variant),
            self.n,
            self.f,
            self.obligation,
            json_escape(&self.detail),
            json_sets(&self.witness_sets),
        )
    }
}

impl ByzTightnessWitness {
    /// Machine-readable rendering (one JSON object).
    pub fn to_json(&self) -> String {
        let executed = match &self.executed {
            Some(x) => format!(
                "{{\"crashed\":{},\"fast_deciders\":{},\"correct_deciders\":{},\
                 \"decided_value\":{}}}",
                x.crashed, x.fast_deciders, x.correct_deciders, x.decided_value
            ),
            None => "null".into(),
        };
        format!(
            "{{\"variant\":\"{}\",\"n\":{},\"f\":{},\"bound\":{},\
             \"kind\":\"fast-path-vacant\",\"sets\":{},\"executed\":{}}}",
            json_escape(self.variant.name()),
            self.n,
            self.f,
            self.bound,
            json_sets(&self.sets),
            executed,
        )
    }
}

impl ByzSweepOutcome {
    /// Machine-readable rendering of the whole sweep.
    pub fn to_json(&self) -> String {
        let violations: Vec<String> = self.violations.iter().map(ByzViolation::to_json).collect();
        let witnesses: Vec<String> = self
            .witnesses
            .iter()
            .map(ByzTightnessWitness::to_json)
            .collect();
        format!(
            "{{\"max_n\":{},\"model\":\"{}\",\"configs_checked\":{},\
             \"violations\":[{}],\"tightness_witnesses\":[{}]}}",
            self.max_n,
            self.model,
            self.configs_checked,
            violations.join(","),
            witnesses.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_byz_arithmetic_is_clean_for_small_sweep() {
        let outcome = sweep(16, None);
        assert!(outcome.configs_checked > 0);
        assert_eq!(outcome.violations, vec![], "real arithmetic must verify");
    }

    #[test]
    fn every_witness_is_executed_and_fast_path_vacant() {
        let outcome = sweep(16, None);
        assert!(!outcome.witnesses.is_empty());
        for w in &outcome.witnesses {
            let x = w.executed.expect("all byz witnesses execute FastBft");
            assert_eq!(x.fast_deciders, 0, "n={} f={}", w.n, w.f);
            assert_eq!(x.correct_deciders, w.n - w.f);
        }
    }

    #[test]
    fn executed_witness_exists_at_n_equals_5f() {
        // The acceptance criterion: n = 5f breaks the FaB fast path,
        // demonstrated by a real execution, for every f in range.
        let outcome = sweep(16, None);
        let at_5f: Vec<_> = outcome
            .witnesses
            .iter()
            .filter(|w| w.variant == ByzVariant::Fab && w.n == 5 * w.f)
            .collect();
        assert!(at_5f.len() >= 2, "f = 1, 2, 3 all fit under n = 16");
        for w in at_5f {
            assert_eq!(w.bound, 5 * w.f + 1);
            assert!(w.executed.is_some());
        }
    }

    #[test]
    fn direct_witness_at_the_classic_corner() {
        let w = byz_tightness_witness(ByzVariant::Fab, 5, 1).unwrap();
        assert_eq!(w.bound, 6);
        let x = w.executed.unwrap();
        assert_eq!(x.fast_deciders, 0);
        assert_eq!(x.correct_deciders, 4);
        assert_eq!(x.decided_value, 0, "slow path certifies p0's fast value");
    }

    #[test]
    fn tight_variant_witness_region_is_two_narrower() {
        // f = 2: Tight bound 9, floor 7 — witnesses at n = 7, 8 only.
        let outcome = sweep(10, None);
        let tight: Vec<_> = outcome
            .witnesses
            .iter()
            .filter(|w| w.variant == ByzVariant::Tight && w.f == 2)
            .map(|w| w.n)
            .collect();
        assert_eq!(tight, vec![7, 8]);
        // f = 1: Tight bound 4 equals the 3f+1 floor — no witness region.
        assert!(!outcome
            .witnesses
            .iter()
            .any(|w| w.variant == ByzVariant::Tight && w.f == 1));
    }

    #[test]
    fn at_bound_witness_construction_is_refused() {
        assert!(byz_tightness_witness(ByzVariant::Fab, 6, 1).is_err());
        assert!(byz_tightness_witness(ByzVariant::Tight, 4, 1).is_err());
    }

    #[test]
    fn fixture_trips_the_checker() {
        let outcome = sweep(16, Some(ByzFixture::CrashSizedFastQuorum));
        assert!(!outcome.is_clean());
        // Crash-sized quorums lose max-count recovery for every FaB
        // configuration and report live fast paths below the bound.
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.obligation == "B6-maxcount-recovery"));
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.obligation == "B4-fast-availability"));
        // Fixtures skip witness construction.
        assert!(outcome.witnesses.is_empty());
    }

    #[test]
    fn fixture_cli_names_round_trip() {
        for fx in ByzFixture::ALL {
            assert_eq!(ByzFixture::parse(fx.name()), Some(fx));
        }
        assert_eq!(ByzFixture::parse("no-such-fixture"), None);
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_counts() {
        let outcome = sweep(10, None);
        let json = outcome.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches("\"kind\"").count(),
            outcome.witnesses.len(),
            "one kind field per witness"
        );
    }
}
