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
//! ## Splices are data
//!
//! Every construction here is a [`Splice`]: the proposals an object run
//! starts with, then an ordered list of [`Move`]s — a fast round, a
//! rival proposal, crashes and one recovery ballot. [`Splice::run`] is
//! the one interpreter, so a construction only computes its partition.
//! The model-check gate's staged prefixes ([`staged_task_prefix`],
//! [`staged_object_prefix`], [`guard_ablation_prefix`]) and E8's
//! randomized recoveries are splices too, and [`Splice::tokens`] prints
//! any of them as a `twostep-fuzz --replay` schedule.

use std::ops::Range;

use twostep_core::{Ablations, ObjectConsensus, OmegaMode, TaskConsensus, TwoStepBuilder};
use twostep_sim::schedule::Action;
use twostep_sim::{msg_kind, ManualExecutor, Step};
use twostep_types::protocol::{Protocol, TimerId};
use twostep_types::{ProcessId, SystemConfig};

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
    /// The two-step protocol the splice ran against; `None` for the
    /// Fast Paxos splice.
    pub setup: Option<TwoStepSetup>,
    /// The splice that ran.
    pub splice: Splice,
}

/// A two-step protocol for a splice to run against: its configuration,
/// the Ω leader every process trusts, the ablated recovery-rule
/// ingredients and, for the task protocol, each process's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoStepSetup {
    /// The configuration.
    pub cfg: SystemConfig,
    /// The static Ω leader.
    pub leader: ProcessId,
    /// The ablated ingredients.
    pub ablations: Ablations,
    /// Initial values by process id, for the task protocol; empty for
    /// an object run, whose values are its splice's proposals.
    pub values: Vec<u64>,
}

impl TwoStepSetup {
    /// A setup of `cfg` trusting `leader`, with `ablations` and the task
    /// protocol's `values` (empty for an object run).
    pub fn new(
        cfg: SystemConfig,
        leader: ProcessId,
        ablations: Ablations,
        values: Vec<u64>,
    ) -> Self {
        TwoStepSetup {
            cfg,
            leader,
            ablations,
            values,
        }
    }

    fn builder(&self) -> TwoStepBuilder {
        TwoStepBuilder::new(self.cfg)
            .omega(OmegaMode::Static(self.leader))
            .ablations(self.ablations)
    }

    /// A fresh executor of the task protocol, each process holding its
    /// value.
    pub fn task(&self) -> ManualExecutor<u64, TaskConsensus<u64>> {
        let builder = self.builder();
        ManualExecutor::new(self.cfg, |q| builder.task(q, self.values[q.index()]))
    }

    /// A fresh executor of the object protocol.
    pub fn object(&self) -> ManualExecutor<u64, ObjectConsensus<u64>> {
        let builder = self.builder();
        ManualExecutor::new(self.cfg, |q| builder.object(q))
    }
}

/// One move of a [`Splice`]. A move delivers only the messages it
/// names, voter by voter; everything else stays in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Move {
    /// A fast round: voter by voter, `proposer`'s `Propose` to the voter
    /// and the voter's `TwoB` to `learner` — the proposer itself
    /// ([`Splice::fast`]) but in the Fast Paxos splice.
    Fast {
        /// Whose proposal the voters receive.
        proposer: ProcessId,
        /// The voters, in delivery order.
        voters: Vec<ProcessId>,
        /// Who receives the votes.
        learner: ProcessId,
    },
    /// A rival proposal: `proposer`'s `Propose` to each voter; their
    /// votes stay in flight.
    Reach {
        /// Whose proposal the voters receive.
        proposer: ProcessId,
        /// The voters, in delivery order.
        voters: Vec<ProcessId>,
    },
    /// Crashes each process, in order.
    Crash(Vec<ProcessId>),
    /// One slow ballot at `leader` with exactly `quorum` as its `1B`/`2B`
    /// quorum: the leader's new-ballot timer fires, then `1A` goes out,
    /// `1B` comes back, `2A` goes out and `2B` comes back, each phase
    /// voter by voter.
    Recover {
        /// The ballot's leader.
        leader: ProcessId,
        /// The quorum, in delivery order.
        quorum: Vec<ProcessId>,
    },
}

impl Move {
    /// Plays the move on `ex`; returns the steps it took.
    fn play<P: Protocol<u64>>(&self, ex: &mut ManualExecutor<u64, P>) -> Vec<Step> {
        let mut steps = Vec::new();
        match self {
            Move::Fast {
                proposer,
                voters,
                learner,
            } => {
                for &r in voters {
                    steps.extend(deliver(ex, "Propose", *proposer, r));
                    steps.extend(deliver(ex, "TwoB", r, *learner));
                }
            }
            Move::Reach { proposer, voters } => {
                for &r in voters {
                    steps.extend(deliver(ex, "Propose", *proposer, r));
                }
            }
            Move::Crash(set) => {
                for &r in set {
                    steps.extend(take(ex, Step::Crash(r)));
                }
            }
            Move::Recover { leader, quorum } => {
                steps.extend(take(ex, Step::Fire(*leader, TimerId::NEW_BALLOT)));
                for (kind, outbound) in [
                    ("OneA", true),
                    ("OneB", false),
                    ("TwoA", true),
                    ("TwoB", false),
                ] {
                    for &r in quorum {
                        let (from, to) = if outbound { (*leader, r) } else { (r, *leader) };
                        steps.extend(deliver(ex, kind, from, to));
                    }
                }
            }
        }
        steps
    }
}

/// Delivers every pending `from → to` message whose variant is `kind`
/// (by [`msg_kind`], so any protocol's messages match by name).
fn deliver<P: Protocol<u64>>(
    ex: &mut ManualExecutor<u64, P>,
    kind: &str,
    from: ProcessId,
    to: ProcessId,
) -> Vec<Step> {
    ex.deliver_where(|m| m.from == from && m.to == to && msg_kind(&m.msg) == kind)
}

/// Takes `step` on `ex`; returns it if it applied.
fn take<P: Protocol<u64>>(ex: &mut ManualExecutor<u64, P>, step: Step) -> Option<Step> {
    ex.step(step).map(|_| step)
}

/// A splice: the proposals an object run starts with, then its moves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Splice {
    /// Client proposals `(process, value)`, issued in order once every
    /// process has started. Empty for a task run, whose values are
    /// fixed when it is built.
    pub proposals: Vec<(ProcessId, u64)>,
    /// The moves, in order.
    pub moves: Vec<Move>,
}

impl Splice {
    /// An object run's splice that starts with `proposals` and no moves.
    pub fn new(proposals: Vec<(ProcessId, u64)>) -> Self {
        Splice {
            proposals,
            moves: Vec::new(),
        }
    }

    /// Appends a fast round whose votes go back to `proposer`.
    pub fn fast(self, proposer: ProcessId, voters: Vec<ProcessId>) -> Self {
        self.fast_to(proposer, voters, proposer)
    }

    /// Appends a fast round whose votes go to `learner`.
    pub fn fast_to(self, proposer: ProcessId, voters: Vec<ProcessId>, learner: ProcessId) -> Self {
        self.then(Move::Fast {
            proposer,
            voters,
            learner,
        })
    }

    /// Appends a rival proposal.
    pub fn reach(self, proposer: ProcessId, voters: Vec<ProcessId>) -> Self {
        self.then(Move::Reach { proposer, voters })
    }

    /// Appends crashes.
    pub fn crash(self, set: Vec<ProcessId>) -> Self {
        self.then(Move::Crash(set))
    }

    /// Appends a recovery ballot.
    pub fn recover(self, leader: ProcessId, quorum: Vec<ProcessId>) -> Self {
        self.then(Move::Recover { leader, quorum })
    }

    fn then(mut self, m: Move) -> Self {
        self.moves.push(m);
        self
    }

    /// Runs the splice on `ex`, a fresh executor: starts every process,
    /// issues the proposals and plays the moves. Returns the steps the
    /// moves took.
    pub fn run<P: Protocol<u64>>(&self, ex: &mut ManualExecutor<u64, P>) -> Vec<Step> {
        self.start(ex);
        self.moves.iter().flat_map(|m| m.play(ex)).collect()
    }

    fn start<P: Protocol<u64>>(&self, ex: &mut ManualExecutor<u64, P>) {
        ex.start_all();
        for &(q, v) in &self.proposals {
            ex.propose(q, v);
        }
    }

    /// This splice followed by `script`, as `twostep-fuzz --replay`
    /// tokens: the proposals as `p:A=V`, then every step the moves take
    /// and every step of `script` as [`ManualExecutor::step`] names it.
    /// `fresh` builds the executor the splice runs on; the steps are
    /// taken on a fresh one, never scrubbed, because the fuzzer
    /// addresses messages and timers by their position in the whole
    /// soup. `None` if a step does not apply or an operand does not fit
    /// its token.
    pub fn tokens<P: Protocol<u64>>(
        &self,
        fresh: impl Fn() -> ManualExecutor<u64, P>,
        script: &[Step],
    ) -> Option<Vec<Action>> {
        let steps = self.run(&mut fresh());
        let mut ex = fresh();
        self.start(&mut ex);
        let proposals = self.proposals.iter().map(|&(q, v)| {
            Some(Action::Propose(
                q.as_u32().try_into().ok()?,
                v.try_into().ok()?,
            ))
        });
        let steps = steps.iter().chain(script).map(|&step| ex.step(step));
        proposals.chain(steps).collect()
    }
}

/// Runs `splice` on `ex`, a fresh executor, and reports the run.
/// `narrate` reads each process's first decision after the run.
fn report<P: Protocol<u64>>(
    mut ex: ManualExecutor<u64, P>,
    setup: Option<TwoStepSetup>,
    splice: Splice,
    narrate: impl FnOnce(&[Option<u64>]) -> String,
) -> AdversaryReport {
    splice.run(&mut ex);
    let log = ex.decide_log();
    AdversaryReport {
        cfg: ex.config(),
        decisions: log.to_vec(),
        agreement_violated: twostep_types::judge::agreement(log).is_err(),
        narrative: narrate(ex.decisions()),
        setup,
        splice,
    }
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

fn ids(range: Range<usize>) -> Vec<ProcessId> {
    range.map(p).collect()
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
    task_splice(e, f, 2 * e + f - 1, Ablations::NONE, false)
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
    task_at_bound_with(e, f, Ablations::NONE)
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
    task_splice(e, f, 2 * e + f, ablations, false)
}

/// Ablation demo for the object red-line precondition (Figure 1
/// line 10), at the object bound `n = 2e+f-1`: the §B.1 task splice,
/// run against the object protocol with every process proposing its
/// task value at startup (`E0 ∪ F0` propose 0, `E1` propose 1). With
/// the red line, `F0` (who proposed 0) refuse to vote for `w`'s 1, the
/// fast path never completes, and the run stays safe. With
/// `no_object_guard`, `F0` vote 1, `w` fast-decides, and recovery —
/// facing `e` votes for 0 above the threshold — decides 0: agreement
/// breaks, exactly the task lower bound reasserting itself once the red
/// line is gone.
///
/// # Panics
///
/// Same preconditions as [`task_below_bound`].
pub fn object_guard_demo(e: usize, f: usize, ablations: Ablations) -> AdversaryReport {
    assert!(f >= 2 && 2 * e >= f + 2);
    task_splice(e, f, 2 * e + f - 1, ablations, true)
}

/// The parameterized §B.1 splice, against the task protocol or, with
/// `object`, against the object protocol with every process proposing
/// its task value. Partition (by id): `E0 = {0..e}`,
/// `F0 = {e..e+f-1}`, `X = {e+f-1..n-e}` (extras, empty below the
/// bound), `E1 = {n-e..n}`, `w = n-1`, `c = e` (first of F0). `E1`
/// holds 1, everyone else 0.
fn task_splice(
    e: usize,
    f: usize,
    n: usize,
    ablations: Ablations,
    object: bool,
) -> AdversaryReport {
    let cfg = SystemConfig::new(n, e, f).expect("valid adversary configuration");
    let (leader, w, c) = (p(0), p(n - 1), p(e));
    let e0 = ids(0..e);
    let f0 = ids(e..e + f - 1);
    let extras = ids(e + f - 1..n - e);
    let e1_rest = ids(n - e..n - 1);
    let survivors = [&e0[..], &extras, &e1_rest].concat();
    let values: Vec<u64> = (0..n).map(|i| u64::from(i >= n - e)).collect();
    let mut setup = TwoStepSetup::new(cfg, leader, ablations, Vec::new());
    let proposals = if object {
        (0..n).map(p).zip(values).collect()
    } else {
        setup.values = values;
        Vec::new()
    };
    let splice = Splice::new(proposals)
        // w's Propose(1) reaches E1\{w}, F0 and the extras; all vote 1.
        // Their fast votes flow back to w: with w itself that is n-e — w
        // decides 1 on the fast path.
        .fast(w, [&e1_rest[..], &f0, &extras].concat())
        // c's Propose(0) reaches E0; they vote 0.
        .reach(c, e0.clone())
        // Crash F0 ∪ {w} — exactly f processes.
        .crash([&f0[..], &[w]].concat())
        // A recovery ballot led by p0 among the n-f survivors.
        .recover(leader, survivors.clone());
    let narrate = |d: &[Option<u64>]| {
        format!(
            "task splice at {cfg}: E0={e0:?} F0={f0:?} X={extras:?} E1\\{{w}}={e1_rest:?} w={w} c={c}\n\
             w={w} fast-decided {:?}\n\
             crashed F0 ∪ {{w}} = {f0:?} ∪ {{{w}}}\n\
             recovery at {leader} over {survivors:?} decided {:?}\n",
            d[w.index()],
            d[leader.index()]
        )
    };
    if object {
        report(setup.object(), Some(setup), splice, narrate)
    } else {
        report(setup.task(), Some(setup), splice, narrate)
    }
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
    object_splice(e, f, 2 * e + f - 2)
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
    object_splice(e, f, 2 * e + f - 1)
}

/// The parameterized §B.2 splice. Partition (by id):
/// `F = {0..f-2}`, `E0* = {f-2..f-2+(e-1)}`, `E1* = next e-1`,
/// `X = extras` (empty below the bound), `p = n-2`, `q = n-1`.
fn object_splice(e: usize, f: usize, n: usize) -> AdversaryReport {
    let cfg = SystemConfig::new(n, e, f).expect("valid adversary configuration");
    let f_set = ids(0..f - 2);
    let e0_star = ids(f - 2..f - 2 + (e - 1));
    let e1_star = ids(f - 2 + (e - 1)..f - 2 + 2 * (e - 1));
    let extras = ids(f - 2 + 2 * (e - 1)..n - 2);
    let (proposer_p, proposer_q) = (p(n - 2), p(n - 1));
    let leader = e0_star[0];
    // Recovery among E0* ∪ E1* ∪ X — exactly n-f processes; proposer p
    // stays silent (alive, but its messages delayed past the ballot).
    let survivors = [&e0_star[..], &e1_star, &extras].concat();
    let splice = Splice::new(vec![(proposer_p, 0), (proposer_q, 1)])
        // Propose(0) → E0*: they vote 0.
        .reach(proposer_p, e0_star.clone())
        // Propose(1) → F, E1* and the extras: they vote 1. Their votes
        // reach q: F ∪ E1* ∪ X ∪ {q} = n-e — q decides 1 fast.
        .fast(proposer_q, [&f_set[..], &e1_star, &extras].concat())
        // Crash F ∪ {q}: f-1 processes.
        .crash([&f_set[..], &[proposer_q]].concat())
        .recover(leader, survivors.clone());
    let setup = TwoStepSetup::new(cfg, leader, Ablations::NONE, Vec::new());
    report(setup.object(), Some(setup), splice, |d| {
        format!(
            "object splice at {cfg}: F={f_set:?} E0*={e0_star:?} E1*={e1_star:?} X={extras:?} \
             p={proposer_p} q={proposer_q}\n\
             q={proposer_q} fast-decided {:?}\n\
             crashed F ∪ {{q}} = {f_set:?} ∪ {{{proposer_q}}}\n\
             recovery at {leader} over {survivors:?} decided {:?}\n",
            d[proposer_q.index()],
            d[leader.index()]
        )
    })
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
    let f_set = ids(0..f - 2);
    let e1_star = ids(f - 2..f - 2 + (e - 1));
    let c_set = ids(f - 2 + (e - 1)..f - 2 + 2 * (e - 1));
    let (z, x, q) = (p(n - 3), p(n - 2), p(n - 1));
    let leader = e1_star[0];
    let quorum = [&e1_star[..], &[z], &c_set].concat();
    let splice = Splice::new(vec![(q, 1), (z, 2)])
        // q's fast quorum: F, E1* and x vote 1.
        .fast(q, [&f_set[..], &e1_star, &[x]].concat())
        // z's rival support: C votes 2.
        .reach(z, c_set.clone())
        // Crash F ∪ {q} (f-1 processes); x stays alive but silent.
        .crash([&f_set[..], &[q]].concat())
        // Recovery over Q = E1* ∪ {z} ∪ C (n-f processes).
        .recover(leader, quorum.clone());
    let setup = TwoStepSetup::new(cfg, leader, ablations, Vec::new());
    report(setup.object(), Some(setup), splice, |d| {
        format!(
            "exclusion demo at {cfg}: F={f_set:?} E1*={e1_star:?} C={c_set:?} z={z} x={x} q={q}\n\
             q={q} fast-decided {:?}\n\
             recovery at {leader} over {quorum:?} decided {:?}\n",
            d[q.index()],
            d[leader.index()]
        )
    })
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
    fast_paxos_splice(e, f, 2 * e + f)
}

/// The same strategy at Lamport's bound `n = 2e+f+1`; the report must
/// show agreement intact.
///
/// # Panics
///
/// Same preconditions as [`fast_paxos_below_bound`].
pub fn fast_paxos_at_bound(e: usize, f: usize) -> AdversaryReport {
    assert!(2 * e > f);
    fast_paxos_splice(e, f, 2 * e + f + 1)
}

/// Layout by id: `z = p0` (proposes 2, also the Ω coordinator),
/// `C2 = p1..p_{e-1}` (further 2-voters), 1-voters next, learner
/// `L = p_{n-2}`, `w = p_{n-1}` (proposes 1).
fn fast_paxos_splice(e: usize, f: usize, n: usize) -> AdversaryReport {
    use twostep_baselines::FastPaxos;

    let cfg = SystemConfig::new(n, e, f).expect("valid adversary configuration");
    let (z, learner, w) = (p(0), p(n - 2), p(n - 1));
    let two_voters = ids(0..e); // z included
    let one_voters = ids(e..n); // w, L included

    // Coordinator recovery at z: the 1B quorum is all e 2-voters plus
    // the first n-f-e 1-voters (excluding the learner and w when
    // possible, irrelevant to the counts).
    let quorum = [&two_voters[..], &one_voters[..n - f - e]].concat();
    debug_assert_eq!(quorum.len(), cfg.slow_quorum());
    let splice = Splice::default()
        // The e 2-voters receive Propose(2) first and vote 2.
        .reach(z, two_voters.clone())
        // The n-e 1-voters receive Propose(1) first and vote 1, and their
        // fast votes reach the learner: it decides 1 (value 1 IS chosen
        // under Fast Paxos semantics — a full fast quorum voted it).
        .fast_to(w, one_voters.clone(), learner)
        // The quorum's fast votes reach z too, in the 2B phase: e for 2
        // and n-f-e for 1, short of the n-e a fast decision needs, so z
        // decides on the quorum's slow votes.
        .recover(z, quorum);
    // Only z and w carry real values; everyone else proposes nothing.
    let ex = ManualExecutor::new(cfg, |q| {
        if q == z {
            FastPaxos::new(cfg, q, 2u64)
        } else if q == w {
            FastPaxos::new(cfg, q, 1u64)
        } else {
            FastPaxos::passive(cfg, q)
        }
    });
    report(ex, None, splice, |d| {
        format!(
            "fast paxos splice at {cfg}: z={z} (value 2) voters {two_voters:?}, \
             w={w} (value 1) voters {one_voters:?}, learner L={learner}\n\
             learner {learner} decided {:?}\n\
             coordinator {z} recovery decided {:?}\n",
            d[learner.index()],
            d[z.index()]
        )
    })
}

/// The model-check gate's staged task prefix at `cfg` (`e = f = 2`):
/// `p1` contends with 20 against everyone else's 10, and `p2` is the Ω
/// leader. `p0`'s `Propose(10)` reaches `{p2, p3}` (they vote 10),
/// `p1`'s `Propose(20)` reaches `p0` and `p4..` (they vote 20 — the
/// task variant has no object guard, so 20 ≥ their initial suffices),
/// the returning votes give `p1` a fast quorum `n−e` and it
/// fast-decides 20, then both proposers `{p0, p1}` crash. At `n = 5`
/// the recovery quorum sees both crashed proposers outside it, includes
/// all votes, and the `count > threshold` branch resurrects 10 — the
/// Theorem 5 violation. At `n = 6` the same prefix is safe (the tally
/// ties and the max-value tie-break re-selects 20).
pub fn staged_task_prefix(cfg: SystemConfig) -> (TwoStepSetup, Splice) {
    let n = cfg.n();
    let values = (0..n).map(|i| if i == 1 { 20 } else { 10 }).collect();
    let splice = Splice::default()
        .reach(p(0), vec![p(2), p(3)])
        .fast(p(1), [&[p(0)][..], &ids(4..n)].concat())
        .crash(vec![p(0), p(1)]);
    (
        TwoStepSetup::new(cfg, p(2), Ablations::NONE, values),
        splice,
    )
}

/// The model-check gate's staged object prefix at `cfg` (`e = f = 2`,
/// Ω leader `p0`): `p0` proposes 10 and `p1` proposes 20, `p1`'s
/// `Propose(20)` reaches the `n−e−1` passive processes `p3..`, their
/// votes complete `p1`'s fast quorum (20 decided), `p0`'s `Propose(10)`
/// reaches `p2`, then `p1` and the last voter crash. At the object
/// bound (`n ≥ 2e+f−1`) every continuation must re-select 20: the
/// surviving voters' reports name the crashed proposer `p1`, which
/// recovery cannot place inside its quorum, so the decided value stays
/// visible.
pub fn staged_object_prefix(cfg: SystemConfig) -> (TwoStepSetup, Splice) {
    let n = cfg.n();
    let splice = Splice::new(vec![(p(0), 10), (p(1), 20)])
        .fast(p(1), ids(3..n))
        .reach(p(0), vec![p(2)])
        .crash(vec![p(1), p(n - 1)]);
    (
        TwoStepSetup::new(cfg, p(0), Ablations::NONE, Vec::new()),
        splice,
    )
}

/// The model-check gate's seeded-broken fixture: the object protocol at
/// its bound (`n = 5`, `e = f = 2`, Ω leader `p0`) with the red-line
/// guard ablated (`no_object_guard`). `E0 = {p0, p1}` and `F0 = {p2}`
/// propose 0, `E1 = {p3, p4}` propose 1; `p4` wins the fast quorum
/// through the ablated guard, `p0`/`p1` vote for `p2`'s value, then
/// `{p2, p4}` crash.
pub fn guard_ablation_prefix() -> (TwoStepSetup, Splice) {
    let cfg = SystemConfig::minimal_object(2, 2).expect("e=f=2 object config");
    let ablations = Ablations {
        no_object_guard: true,
        ..Ablations::NONE
    };
    let splice = Splice::new((0..5).map(|i| (p(i), u64::from(i >= 3))).collect())
        .fast(p(4), vec![p(2), p(3)])
        .reach(p(2), vec![p(0), p(1)])
        .crash(vec![p(2), p(4)]);
    (TwoStepSetup::new(cfg, p(0), ablations, Vec::new()), splice)
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
    fn staged_prefixes_complete_their_fast_path() {
        for n in [5, 6] {
            let cfg = SystemConfig::new(n, 2, 2).unwrap();
            let (setup, prefix) = staged_task_prefix(cfg);
            let mut ex = setup.task();
            prefix.run(&mut ex);
            assert_eq!(ex.decision_of(p(1)), Some(&20), "task n={n}");
            let (setup, prefix) = staged_object_prefix(cfg);
            let mut ex = setup.object();
            prefix.run(&mut ex);
            assert_eq!(ex.decision_of(p(1)), Some(&20), "object n={n}");
        }
        let (setup, prefix) = guard_ablation_prefix();
        let mut ex = setup.object();
        prefix.run(&mut ex);
        assert_eq!(ex.decision_of(p(4)), Some(&1));
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
