//! The lower-bound proofs of Appendix B, mechanized.
//!
//! Theorems 5 and 6 ("only if") prove that **no** protocol can be
//! f-resilient and e-two-step below `max{2e+f, 2f+1}` (task) or
//! `max{2e+f-1, 2f+1}` (object). The proofs are constructive: they
//! splice two-step runs into a single run in which two different values
//! get decided. This module executes those splices against the paper's
//! own protocol deliberately deployed below its bound, producing a
//! *concrete agreement violation* — and shows the same adversarial
//! strategy failing at the bound, where the recovery rule's proposer
//! exclusion and max-value tie-break neutralize it.
//!
//! ## Task splice (§B.1 instantiated)
//!
//! At `n = 2e+f-1`, partition `Π = E0 ∪ F0 ∪ X ∪ E1` with `|E0| = e`,
//! `|F0| = f-1`, `|E1| = e` (`X` empty below the bound). `E0 ∪ F0`
//! propose value 0, `E1` propose value 1. The adversary:
//!
//! 1. lets `w = max(E1)` win the fast path with votes from
//!    `E1\{w} ∪ F0` — exactly `n-e` supporters including `w`, so `w`
//!    **decides 1**;
//! 2. lets `E0` vote for value 0 proposed by `c ∈ F0`;
//! 3. crashes `F0 ∪ {w}` (that's `f` crashes) and withholds all other
//!    messages;
//! 4. runs a recovery ballot among the survivors `E0 ∪ E1\{w}`
//!    (`= n-f`). In the `1B` quorum, value 0 has `e` votes and value 1
//!    has `e-1`; the threshold is `n-f-e = e-1`, so 0 sits *above* the
//!    threshold and the rule must select 0 — **deciding 0** and
//!    violating agreement. At `n = 2e+f` the same strategy leaves the
//!    fast-decided 1 tied at the threshold and the max-value tie-break
//!    rescues it (Lemma 7 working as proved).
//!
//! ## Object splice (§B.2 instantiated)
//!
//! At `n = 2e+f-2`, take quorums `E0 ∋ p`, `E1 ∋ q` of size `n-e` with
//! `F = E0 ∩ E1` (`|F| = f-2`). Only `p` proposes 0 and `q` proposes 1.
//! The adversary delivers `Propose(0)` to `E0* = E0\(F ∪ {p})`,
//! `Propose(1)` to `E1* ∪ F`, completes `q`'s fast quorum
//! (`F ∪ E1* ∪ {q}`, size `n-e`) so `q` **decides 1**, crashes
//! `F ∪ {q}` (`f-1` crashes), and runs recovery among `E0* ∪ E1*`
//! (`= n-f`, excluding the silent `p`). Both values then have `e-1`
//! votes — *both above* the threshold `n-f-e = e-2` — and the rule's
//! forced pick decides 0. At `n = 2e+f-1` the uniqueness count
//! `2(n-f-e)+2 > n-f` holds again and the strategy fails.
//!
//! ## Building blocks
//!
//! Every splice is made of two moves, shared with the model-check
//! gate's staged prefixes and E8: [`fast_round`] (a proposal out, the
//! fast votes back) and [`recovery_ballot`] (one slow ballot over a
//! chosen quorum).

use twostep_core::{Ablations, OmegaMode, TwoStepBuilder};
use twostep_sim::{msg_kind, ManualExecutor, Step};
use twostep_types::protocol::{Protocol, TimerId};
use twostep_types::{ProcessId, SystemConfig, Value};

/// The outcome of one adversarial construction.
#[derive(Debug)]
pub struct AdversaryReport {
    /// The configuration attacked.
    pub cfg: SystemConfig,
    /// Every decision the run produced, in order.
    pub decisions: Vec<(ProcessId, u64)>,
    /// Whether agreement was violated.
    pub agreement_violated: bool,
    /// Human-readable account of the schedule.
    pub narrative: String,
}

impl AdversaryReport {
    fn from_log(cfg: SystemConfig, log: &[(ProcessId, u64)], narrative: String) -> Self {
        AdversaryReport {
            cfg,
            decisions: log.to_vec(),
            agreement_violated: twostep_types::judge::agreement(log).is_err(),
            narrative,
        }
    }
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

/// Delivers every pending `from → to` message whose variant is `kind`
/// (by [`msg_kind`], so any protocol's messages match by name).
fn deliver_kind<V: Value, P: Protocol<V>>(
    ex: &mut ManualExecutor<V, P>,
    kind: &str,
    from: ProcessId,
    to: ProcessId,
) -> Vec<Step> {
    ex.deliver_where(|m| m.from == from && m.to == to && msg_kind(&m.msg) == kind)
}

/// A fast round: voter by voter, delivers `proposer`'s `Propose` to the
/// voter and the voter's `TwoB` back to `proposer`. Returns the steps
/// taken.
pub fn fast_round<V: Value, P: Protocol<V>>(
    ex: &mut ManualExecutor<V, P>,
    proposer: ProcessId,
    voters: &[ProcessId],
) -> Vec<Step> {
    let mut steps = Vec::new();
    for &voter in voters {
        steps.extend(deliver_kind(ex, "Propose", proposer, voter));
        steps.extend(deliver_kind(ex, "TwoB", voter, proposer));
    }
    steps
}

/// One slow ballot at `leader` with exactly `quorum` as its `1B`/`2B`
/// quorum: fires the leader's new-ballot timer, then delivers `1A` out,
/// `1B` back, `2A` out and `2B` back, each phase voter by voter.
pub fn recovery_ballot<V: Value, P: Protocol<V>>(
    ex: &mut ManualExecutor<V, P>,
    leader: ProcessId,
    quorum: &[ProcessId],
) {
    ex.fire_timer(leader, TimerId::NEW_BALLOT);
    for (kind, outbound) in [
        ("OneA", true),
        ("OneB", false),
        ("TwoA", true),
        ("TwoB", false),
    ] {
        for &r in quorum {
            let (from, to) = if outbound { (leader, r) } else { (r, leader) };
            deliver_kind(ex, kind, from, to);
        }
    }
}

/// Runs the §B.1 splice against the task protocol at `n = 2e+f-1` (one
/// below the Theorem 5 bound). Requires `f ≥ 2` and `2e ≥ f+2` so that
/// the two-step constraint (not bare resilience) is binding.
///
/// # Panics
///
/// Panics if `(e, f)` does not satisfy the preconditions above.
pub fn task_below_bound(e: usize, f: usize) -> AdversaryReport {
    assert!(f >= 2, "the splice needs |F0| = f-1 >= 1");
    assert!(
        2 * e >= f + 2,
        "need 2e+f-1 >= 2f+1 so the two-step bound binds"
    );
    let n = 2 * e + f - 1;
    run_task_splice(e, f, n)
}

/// Runs the *same* adversarial strategy at the Theorem 5 bound
/// `n = 2e+f`; the report must show agreement intact (the max-value
/// tie-break selects the fast-decided value).
///
/// # Panics
///
/// Panics if `(e, f)` does not satisfy the same preconditions as
/// [`task_below_bound`].
pub fn task_at_bound(e: usize, f: usize) -> AdversaryReport {
    assert!(f >= 2 && 2 * e >= f + 2);
    let n = 2 * e + f;
    run_task_splice(e, f, n)
}

/// The parameterized §B.1 splice. Partition (by id):
/// `E0 = {0..e}`, `F0 = {e..e+f-1}`, `X = {e+f-1..n-e}` (extras, empty
/// below the bound), `E1 = {n-e..n}`, `w = n-1`, `c = e` (first of F0).
fn run_task_splice_with(e: usize, f: usize, n: usize, ablations: Ablations) -> AdversaryReport {
    let cfg = SystemConfig::new(n, e, f).expect("valid adversary configuration");
    let leader = p(0);
    let mut ex = ManualExecutor::new(cfg, |q| {
        // Values: E1 members propose 1, everyone else proposes 0.
        let value = if q.index() >= n - e { 1u64 } else { 0u64 };
        TwoStepBuilder::new(cfg)
            .omega(OmegaMode::Static(leader))
            .ablations(ablations)
            .task(q, value)
    });
    let w = p(n - 1);
    let c = p(e);
    let e0: Vec<ProcessId> = (0..e).map(p).collect();
    let f0: Vec<ProcessId> = (e..e + f - 1).map(p).collect();
    let extras: Vec<ProcessId> = (e + f - 1..n - e).map(p).collect();
    let e1_rest: Vec<ProcessId> = (n - e..n - 1).map(p).collect();

    let mut narrative = format!(
        "task splice at {cfg}: E0={e0:?} F0={f0:?} X={extras:?} E1\\{{w}}={e1_rest:?} w={w} c={c}\n"
    );

    ex.start_all();

    // Step 1: w's Propose(1) reaches E1\{w}, F0 and the extras; all vote 1.
    // Their fast votes flow back to w: with w itself that is n-e — w
    // decides 1 on the fast path.
    let voters_for_w: Vec<ProcessId> = e1_rest.iter().chain(&f0).chain(&extras).copied().collect();
    fast_round(&mut ex, w, &voters_for_w);
    narrative += &format!("w={w} fast-decided {:?}\n", ex.decision_of(w));

    // Step 2: c's Propose(0) reaches E0; they vote 0.
    for &q in &e0 {
        deliver_kind(&mut ex, "Propose", c, q);
    }

    // Step 3: crash F0 ∪ {w} — exactly f processes.
    for &q in f0.iter().chain(std::iter::once(&w)) {
        ex.crash(q);
    }
    narrative += &format!("crashed F0 ∪ {{w}} = {:?} ∪ {{{w}}}\n", f0);

    // Step 4: recovery ballot led by p0 among the n-f survivors.
    let survivors: Vec<ProcessId> = e0.iter().chain(&extras).chain(&e1_rest).copied().collect();
    run_recovery(&mut ex, leader, &survivors, &mut narrative);

    AdversaryReport::from_log(cfg, ex.decide_log(), narrative)
}

/// Runs the §B.2 splice against the object protocol at `n = 2e+f-2`
/// (one below the Theorem 6 bound). Requires `f ≥ 3` and `2e ≥ f+3`
/// (with `e ≤ f`) so the configuration is valid and the two-step bound
/// binds.
///
/// # Panics
///
/// Panics if `(e, f)` does not satisfy the preconditions above.
pub fn object_below_bound(e: usize, f: usize) -> AdversaryReport {
    assert!(f >= 3, "the splice needs |F| = f-2 >= 1");
    assert!(
        2 * e >= f + 3,
        "need 2e+f-2 >= 2f+1 so the two-step bound binds"
    );
    assert!(e <= f, "the paper assumes e <= f");
    let n = 2 * e + f - 2;
    run_object_splice(e, f, n)
}

/// Runs the *same* strategy at the Theorem 6 bound `n = 2e+f-1`; the
/// report must show agreement intact.
///
/// # Panics
///
/// Panics if `(e, f)` does not satisfy the same preconditions as
/// [`object_below_bound`].
pub fn object_at_bound(e: usize, f: usize) -> AdversaryReport {
    assert!(f >= 3 && 2 * e >= f + 3 && e <= f);
    let n = 2 * e + f - 1;
    run_object_splice(e, f, n)
}

/// The parameterized §B.2 splice. Partition (by id):
/// `F = {0..f-2}`, `E0* = {f-2..f-2+(e-1)}`, `E1* = next e-1`,
/// `X = extras` (empty below the bound), `p = n-2`, `q = n-1`.
fn run_object_splice(e: usize, f: usize, n: usize) -> AdversaryReport {
    let cfg = SystemConfig::new(n, e, f).expect("valid adversary configuration");
    let f_set: Vec<ProcessId> = (0..f - 2).map(p).collect();
    let e0_star: Vec<ProcessId> = (f - 2..f - 2 + (e - 1)).map(p).collect();
    let e1_star: Vec<ProcessId> = (f - 2 + (e - 1)..f - 2 + 2 * (e - 1)).map(p).collect();
    let extras: Vec<ProcessId> = (f - 2 + 2 * (e - 1)..n - 2).map(p).collect();
    let proposer_p = p(n - 2);
    let proposer_q = p(n - 1);
    let leader = e0_star[0];

    let mut ex = ManualExecutor::new(cfg, |q| {
        TwoStepBuilder::new(cfg)
            .omega(OmegaMode::Static(leader))
            .object::<u64>(q)
    });

    let mut narrative = format!(
        "object splice at {cfg}: F={f_set:?} E0*={e0_star:?} E1*={e1_star:?} X={extras:?} \
         p={proposer_p} q={proposer_q}\n"
    );

    ex.start_all();
    ex.propose(proposer_p, 0);
    ex.propose(proposer_q, 1);

    // Propose(0) → E0*: they vote 0.
    for &r in &e0_star {
        deliver_kind(&mut ex, "Propose", proposer_p, r);
    }
    // Propose(1) → F, E1* and the extras: they vote 1. Their votes reach
    // q: F ∪ E1* ∪ X ∪ {q} = n-e — q decides 1 fast.
    let q_voters: Vec<ProcessId> = f_set
        .iter()
        .chain(&e1_star)
        .chain(&extras)
        .copied()
        .collect();
    fast_round(&mut ex, proposer_q, &q_voters);
    narrative += &format!(
        "q={proposer_q} fast-decided {:?}\n",
        ex.decision_of(proposer_q)
    );

    // Crash F ∪ {q}: f-1 processes.
    for &r in f_set.iter().chain(std::iter::once(&proposer_q)) {
        ex.crash(r);
    }
    narrative += &format!("crashed F ∪ {{q}} = {f_set:?} ∪ {{{proposer_q}}}\n");

    // Recovery among E0* ∪ E1* ∪ X — exactly n-f processes; proposer p
    // stays silent (alive, but its messages delayed past the ballot).
    let survivors: Vec<ProcessId> = e0_star
        .iter()
        .chain(&e1_star)
        .chain(&extras)
        .copied()
        .collect();
    run_recovery(&mut ex, leader, &survivors, &mut narrative);

    AdversaryReport::from_log(cfg, ex.decide_log(), narrative)
}

/// Runs [`recovery_ballot`] at `leader` over exactly `participants` and
/// narrates what the leader decided.
fn run_recovery<P: Protocol<u64>>(
    ex: &mut ManualExecutor<u64, P>,
    leader: ProcessId,
    participants: &[ProcessId],
    narrative: &mut String,
) {
    recovery_ballot(ex, leader, participants);
    narrative.push_str(&format!(
        "recovery at {leader} over {participants:?} decided {:?}\n",
        ex.decision_of(leader)
    ));
}

/// Ablation demo: replays the at-bound task splice with custom
/// [`Ablations`]. With `no_max_tiebreak`, the exact-threshold tie
/// `{0: e, 1: e}` resolves to the *minimum*, overturning the
/// fast-decided 1 — demonstrating the tie-break (Figure 1 line 58) is
/// necessary at `n = 2e+f`.
///
/// # Panics
///
/// Same preconditions as [`task_at_bound`].
pub fn task_at_bound_with(e: usize, f: usize, ablations: Ablations) -> AdversaryReport {
    assert!(f >= 2 && 2 * e >= f + 2);
    let n = 2 * e + f;
    run_task_splice_with(e, f, n, ablations)
}

fn run_task_splice(e: usize, f: usize, n: usize) -> AdversaryReport {
    run_task_splice_with(e, f, n, Ablations::NONE)
}

/// Ablation demo for the proposer-exclusion set `R` (Figure 1 line 47),
/// at the object bound `n = 2e+f-1`.
///
/// Schedule: `q` proposes 1 and fast-decides with voters
/// `F ∪ E1* ∪ X ∪ {q}` (`n-e`); meanwhile `z` proposes 2 and gathers
/// `e-1` votes from `C`. After crashing `F ∪ {q}`, recovery runs over
/// `Q = E1* ∪ {z} ∪ C` (`n-f`), with `X` silent. Value 1 has exactly
/// `n-f-e = e-1` votes in `R`; value 2 also has `e-1` votes **but its
/// proposer `z` sits inside `Q`**, so the exclusion rule discards them
/// and 1 survives. With `no_proposer_exclusion`, the 2-votes count,
/// 2 > 1 wins the tie-break, and agreement breaks.
///
/// Requires `e ≥ 2`, `f ≥ 2`, `2e ≥ f+2`.
///
/// # Panics
///
/// Panics if the preconditions are not met.
pub fn object_exclusion_demo(e: usize, f: usize, ablations: Ablations) -> AdversaryReport {
    assert!(e >= 2, "the demo needs |E1*| = |C| = e-1 >= 1");
    assert!(f >= 2 && 2 * e >= f + 2, "need 2e+f-1 >= 2f+1");
    let n = 2 * e + f - 1;
    let cfg = SystemConfig::new(n, e, f).expect("valid configuration");

    // Layout by id: F = {0..f-2}, E1* = next e-1, C = next e-1,
    // z, x, q = last three.
    let f_set: Vec<ProcessId> = (0..f.saturating_sub(2)).map(p).collect();
    let e1_star: Vec<ProcessId> = (f - 2..f - 2 + (e - 1)).map(p).collect();
    let c_set: Vec<ProcessId> = (f - 2 + (e - 1)..f - 2 + 2 * (e - 1)).map(p).collect();
    let z = p(n - 3);
    let x = p(n - 2);
    let q = p(n - 1);
    let leader = e1_star[0];

    let mut ex = ManualExecutor::new(cfg, |r| {
        TwoStepBuilder::new(cfg)
            .omega(OmegaMode::Static(leader))
            .ablations(ablations)
            .object::<u64>(r)
    });
    let mut narrative = format!(
        "exclusion demo at {cfg}: F={f_set:?} E1*={e1_star:?} C={c_set:?} z={z} x={x} q={q}\n"
    );

    ex.start_all();
    ex.propose(q, 1);
    ex.propose(z, 2);

    // q's fast quorum: F, E1* and x vote 1.
    let q_voters: Vec<ProcessId> = f_set
        .iter()
        .chain(&e1_star)
        .chain(std::iter::once(&x))
        .copied()
        .collect();
    fast_round(&mut ex, q, &q_voters);
    narrative += &format!("q={q} fast-decided {:?}\n", ex.decision_of(q));

    // z's rival support: C votes 2.
    for &r in &c_set {
        deliver_kind(&mut ex, "Propose", z, r);
    }

    // Crash F ∪ {q} (f-1 processes); x stays alive but silent.
    for &r in f_set.iter().chain(std::iter::once(&q)) {
        ex.crash(r);
    }

    // Recovery over Q = E1* ∪ {z} ∪ C (n-f processes).
    let survivors: Vec<ProcessId> = e1_star
        .iter()
        .chain(std::iter::once(&z))
        .chain(&c_set)
        .copied()
        .collect();
    run_recovery(&mut ex, leader, &survivors, &mut narrative);

    AdversaryReport::from_log(cfg, ex.decide_log(), narrative)
}

/// Ablation demo for the object red-line precondition (Figure 1
/// line 10), at the object bound `n = 2e+f-1`.
///
/// Every process proposes at startup (`E0 ∪ F0` propose 0, `E1`
/// propose 1) and the §B.1 task splice is replayed. With the red line,
/// `F0` (who proposed 0) refuse to vote for `w`'s 1, the fast path
/// never completes, and the run stays safe. With `no_object_guard`,
/// `F0` vote 1, `w` fast-decides, and recovery — facing `e` votes for 0
/// above the threshold — decides 0: agreement breaks, exactly the task
/// lower bound reasserting itself once the red line is gone.
///
/// # Panics
///
/// Same preconditions as [`task_below_bound`].
pub fn object_guard_demo(e: usize, f: usize, ablations: Ablations) -> AdversaryReport {
    assert!(f >= 2 && 2 * e >= f + 2);
    let n = 2 * e + f - 1; // the object bound
    let cfg = SystemConfig::new(n, e, f).expect("valid configuration");
    let leader = p(0);
    let mut ex = ManualExecutor::new(cfg, |r| {
        TwoStepBuilder::new(cfg)
            .omega(OmegaMode::Static(leader))
            .ablations(ablations)
            .object::<u64>(r)
    });
    let w = p(n - 1);
    let c = p(e);
    let e0: Vec<ProcessId> = (0..e).map(p).collect();
    let f0: Vec<ProcessId> = (e..e + f - 1).map(p).collect();
    let e1_rest: Vec<ProcessId> = (n - e..n - 1).map(p).collect();

    let mut narrative =
        format!("guard demo at {cfg}: E0={e0:?} F0={f0:?} E1\\{{w}}={e1_rest:?} w={w} c={c}\n");

    ex.start_all();
    // Everyone proposes: E1 members 1, everyone else 0.
    for i in 0..n {
        let value = if i >= n - e { 1u64 } else { 0u64 };
        ex.propose(p(i), value);
    }

    // w's Propose(1) reaches E1\{w} and F0; whoever votes, votes back.
    let targets: Vec<ProcessId> = e1_rest.iter().chain(&f0).copied().collect();
    fast_round(&mut ex, w, &targets);
    narrative += &format!("w={w} fast decision: {:?}\n", ex.decision_of(w));

    // E0 vote for c's 0 (same value as their own proposal: red line ok).
    for &r in &e0 {
        deliver_kind(&mut ex, "Propose", c, r);
    }

    // Crash F0 ∪ {w}; recover among the rest.
    for &r in f0.iter().chain(std::iter::once(&w)) {
        ex.crash(r);
    }
    let survivors: Vec<ProcessId> = e0.iter().chain(&e1_rest).copied().collect();
    run_recovery(&mut ex, leader, &survivors, &mut narrative);

    AdversaryReport::from_log(cfg, ex.decide_log(), narrative)
}

/// Runs an O4-ambiguity splice against **Fast Paxos** at `n = 2e+f`
/// (one below Lamport's bound) — the same tightness statement for the
/// baseline: Lamport's `2e+f+1` is exactly what the O4 recovery rule
/// needs.
///
/// Schedule (no crashes required): proposer `w` gets a full fast quorum
/// of `n-e` votes for value 1 and a learner `L` decides 1; proposer `z`
/// gathers the remaining `e` votes for value 2. The coordinator's `1B`
/// quorum is packed with all `e` 2-voters plus `e` 1-voters: at
/// `n = 2e+f` the O4 threshold `n-f-e = e` is met by *both* values, the
/// rule picks one arbitrarily (here: the max, 2), and agreement breaks.
/// At `n = 2e+f+1` the threshold rises to `e+1`, only the fast-decided
/// value qualifies, and the run stays safe.
///
/// # Panics
///
/// Panics unless `2e ≥ f+1` (so `2e+f ≥ 2f+1` keeps the configuration
/// valid below Lamport's bound).
pub fn fast_paxos_below_bound(e: usize, f: usize) -> AdversaryReport {
    assert!(2 * e > f, "need 2e+f >= 2f+1 so the configuration is valid");
    run_fast_paxos_splice(e, f, 2 * e + f)
}

/// The same strategy at Lamport's bound `n = 2e+f+1`; the report must
/// show agreement intact.
///
/// # Panics
///
/// Same preconditions as [`fast_paxos_below_bound`].
pub fn fast_paxos_at_bound(e: usize, f: usize) -> AdversaryReport {
    assert!(2 * e > f);
    run_fast_paxos_splice(e, f, 2 * e + f + 1)
}

/// Layout by id: `z = p0` (proposes 2, also the Ω coordinator),
/// `C2 = p1..p_{e-1}` (further 2-voters), 1-voters next, learner
/// `L = p_{n-2}`, `w = p_{n-1}` (proposes 1).
fn run_fast_paxos_splice(e: usize, f: usize, n: usize) -> AdversaryReport {
    use twostep_baselines::FastPaxos;

    let cfg = SystemConfig::new(n, e, f).expect("valid adversary configuration");
    let z = p(0);
    let w = p(n - 1);
    let learner = p(n - 2);
    let two_voters: Vec<ProcessId> = (0..e).map(p).collect(); // z included
    let one_voters: Vec<ProcessId> = (e..n).map(p).collect(); // w, L included

    let mut ex = ManualExecutor::new(cfg, |q| {
        // Only z and w carry real values; everyone else proposes nothing.
        if q == z {
            FastPaxos::new(cfg, q, 2u64)
        } else if q == w {
            FastPaxos::new(cfg, q, 1u64)
        } else {
            FastPaxos::passive(cfg, q)
        }
    });
    let mut narrative = format!(
        "fast paxos splice at {cfg}: z={z} (value 2) voters {two_voters:?}, \
         w={w} (value 1) voters {one_voters:?}, learner L={learner}\n"
    );
    ex.start_all();

    // The e 2-voters receive Propose(2) first and vote 2.
    for &r in &two_voters {
        deliver_kind(&mut ex, "Propose", z, r);
    }
    // The n-e 1-voters receive Propose(1) first and vote 1.
    for &r in &one_voters {
        deliver_kind(&mut ex, "Propose", w, r);
    }
    // All n-e fast votes for 1 reach the learner: it decides 1 (value 1
    // IS chosen under Fast Paxos semantics — a full fast quorum voted it).
    for &r in &one_voters {
        deliver_kind(&mut ex, "TwoB", r, learner);
    }
    narrative += &format!("learner {learner} decided {:?}\n", ex.decision_of(learner));

    // Coordinator recovery at z: the 1B quorum is all e 2-voters plus
    // the first n-f-e 1-voters (excluding the learner and w when
    // possible, irrelevant to the counts).
    let quorum: Vec<ProcessId> = two_voters
        .iter()
        .chain(one_voters.iter().take(n - f - e))
        .copied()
        .collect();
    debug_assert_eq!(quorum.len(), cfg.slow_quorum());
    // The quorum's fast votes reach z too, in the 2B phase: e for 2 and
    // n-f-e for 1, short of the n-e a fast decision needs, so z decides
    // on the quorum's slow votes.
    recovery_ballot(&mut ex, z, &quorum);
    narrative += &format!("coordinator {z} recovery decided {:?}\n", ex.decision_of(z));

    AdversaryReport::from_log(cfg, ex.decide_log(), narrative)
}

/// All `(e, f)` pairs with `f ≤ max_f` on which [`task_below_bound`] is
/// applicable.
pub fn task_adversary_grid(max_f: usize) -> Vec<(usize, usize)> {
    let mut grid = Vec::new();
    for f in 2..=max_f {
        for e in 1..=f {
            if 2 * e >= f + 2 {
                grid.push((e, f));
            }
        }
    }
    grid
}

/// All `(e, f)` pairs with `f ≤ max_f` on which [`object_below_bound`]
/// is applicable.
pub fn object_adversary_grid(max_f: usize) -> Vec<(usize, usize)> {
    let mut grid = Vec::new();
    for f in 3..=max_f {
        for e in 1..=f {
            if 2 * e >= f + 3 {
                grid.push((e, f));
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_splice_violates_agreement_below_the_bound() {
        for (e, f) in task_adversary_grid(4) {
            let report = task_below_bound(e, f);
            assert!(
                report.agreement_violated,
                "e={e} f={f}: expected a violation at n=2e+f-1\n{}",
                report.narrative
            );
            // Both values decided: 1 fast at w, 0 by recovery.
            let values: std::collections::BTreeSet<u64> =
                report.decisions.iter().map(|(_, v)| *v).collect();
            assert_eq!(values.len(), 2, "{}", report.narrative);
        }
    }

    #[test]
    fn task_splice_fails_at_the_bound() {
        for (e, f) in task_adversary_grid(4) {
            let report = task_at_bound(e, f);
            assert!(
                !report.agreement_violated,
                "e={e} f={f}: the tie-break must rescue n=2e+f\n{}",
                report.narrative
            );
            // The fast decision (1) survives recovery.
            assert!(
                report.decisions.iter().all(|(_, v)| *v == 1),
                "{}",
                report.narrative
            );
        }
    }

    #[test]
    fn object_splice_violates_agreement_below_the_bound() {
        for (e, f) in object_adversary_grid(5) {
            let report = object_below_bound(e, f);
            assert!(
                report.agreement_violated,
                "e={e} f={f}: expected a violation at n=2e+f-2\n{}",
                report.narrative
            );
        }
    }

    #[test]
    fn object_splice_fails_at_the_bound() {
        for (e, f) in object_adversary_grid(5) {
            let report = object_at_bound(e, f);
            assert!(
                !report.agreement_violated,
                "e={e} f={f}: uniqueness must rescue n=2e+f-1\n{}",
                report.narrative
            );
            assert!(
                report.decisions.iter().all(|(_, v)| *v == 1),
                "{}",
                report.narrative
            );
        }
    }

    #[test]
    fn grids_are_nonempty_and_valid() {
        let tg = task_adversary_grid(4);
        assert!(tg.contains(&(2, 2)));
        for (e, f) in &tg {
            assert!(e <= f && 2 * e >= f + 2);
        }
        let og = object_adversary_grid(5);
        assert!(og.contains(&(3, 3)));
        for (e, f) in &og {
            assert!(e <= f && 2 * e >= f + 3);
        }
    }

    #[test]
    #[should_panic(expected = "2e+f-1 >= 2f+1")]
    fn task_adversary_rejects_nonbinding_configs() {
        let _ = task_below_bound(1, 2);
    }

    #[test]
    fn tiebreak_ablation_breaks_the_task_bound() {
        for (e, f) in task_adversary_grid(4) {
            let correct = task_at_bound_with(e, f, Ablations::NONE);
            assert!(!correct.agreement_violated, "{}", correct.narrative);
            let ablated = task_at_bound_with(
                e,
                f,
                Ablations {
                    no_max_tiebreak: true,
                    ..Ablations::NONE
                },
            );
            assert!(
                ablated.agreement_violated,
                "e={e} f={f}: dropping the tie-break must break n=2e+f\n{}",
                ablated.narrative
            );
        }
    }

    #[test]
    fn exclusion_ablation_breaks_the_object_bound() {
        for (e, f) in [(2usize, 2usize), (3, 3), (3, 4)] {
            let correct = object_exclusion_demo(e, f, Ablations::NONE);
            assert!(
                !correct.agreement_violated,
                "e={e} f={f}: exclusion must rescue the run\n{}",
                correct.narrative
            );
            assert!(
                correct.decisions.iter().all(|(_, v)| *v == 1),
                "{}",
                correct.narrative
            );
            let ablated = object_exclusion_demo(
                e,
                f,
                Ablations {
                    no_proposer_exclusion: true,
                    ..Ablations::NONE
                },
            );
            assert!(
                ablated.agreement_violated,
                "e={e} f={f}: counting in-quorum proposers must break n=2e+f-1\n{}",
                ablated.narrative
            );
        }
    }

    #[test]
    fn red_line_ablation_breaks_the_object_bound() {
        for (e, f) in task_adversary_grid(4) {
            let correct = object_guard_demo(e, f, Ablations::NONE);
            assert!(
                !correct.agreement_violated,
                "e={e} f={f}: the red line must keep n=2e+f-1 safe\n{}",
                correct.narrative
            );
            let ablated = object_guard_demo(
                e,
                f,
                Ablations {
                    no_object_guard: true,
                    ..Ablations::NONE
                },
            );
            assert!(
                ablated.agreement_violated,
                "e={e} f={f}: dropping the red line must re-admit the task splice\n{}",
                ablated.narrative
            );
        }
    }
}

#[cfg(test)]
mod fast_paxos_tests {
    use super::*;

    #[test]
    fn fast_paxos_splice_violates_below_lamports_bound() {
        for (e, f) in [(1usize, 1usize), (2, 2), (2, 3), (3, 3)] {
            let report = fast_paxos_below_bound(e, f);
            assert!(
                report.agreement_violated,
                "e={e} f={f}: O4 must turn ambiguous at n=2e+f\n{}",
                report.narrative
            );
            let values: std::collections::BTreeSet<u64> =
                report.decisions.iter().map(|(_, v)| *v).collect();
            assert_eq!(
                values,
                [1u64, 2].into_iter().collect(),
                "{}",
                report.narrative
            );
        }
    }

    #[test]
    fn fast_paxos_splice_fails_at_lamports_bound() {
        for (e, f) in [(1usize, 1usize), (2, 2), (2, 3), (3, 3)] {
            let report = fast_paxos_at_bound(e, f);
            assert!(
                !report.agreement_violated,
                "e={e} f={f}: O4 must be unambiguous at n=2e+f+1\n{}",
                report.narrative
            );
            assert!(
                report.decisions.iter().all(|(_, v)| *v == 1),
                "the fast-decided value must survive: {}",
                report.narrative
            );
        }
    }
}
