//! Exhaustive small-model checking of the quorum bounds.
//!
//! Two families of bounds are checked, each over every configuration
//! with `n` up to a caller-chosen ceiling (CI uses 25):
//!
//! * [`crash`] — the paper's Theorems 5–6: obligations O1–O7 on the
//!   `SystemConfig` arithmetic (`n-e`, `n-f`, `n-f-e`) at every
//!   `(n, e, f)`, with tightness witnesses executed against the real
//!   recovery rule `select_value`.
//! * [`byzantine`] — the Byzantine fast-path bounds `5f+1` / `5f−1`:
//!   obligations B1–B7 on the `ByzConfig` arithmetic at every
//!   `(n, f, variant)`, with tightness witnesses executed against the
//!   real `FastBft` baseline.
//!
//! Both run through one harness, [`sweep`]. A model is the family's
//! three quorum sizes at one configuration, taken from the real config
//! or from a seeded-broken [`Fixture`] that breaks one of them — a gate
//! that cannot go red is not a gate. The sweep checks every
//! configuration's model against the family's obligations and, for the
//! real arithmetic, builds a tightness witness for every `n` below each
//! bound. Both families report through the same [`Violation`],
//! [`TightnessWitness`] and [`SweepOutcome`]; where they differ — the
//! header fields and what a witness run records — is data ([`Point`],
//! [`ExecutionRecord`]).

pub mod byzantine;
pub mod crash;

use std::fmt;

use twostep_types::{ByzVariant, ProtocolKind};

/// Ceiling for the exhaustive sweep used by CI.
pub const DEFAULT_MAX_N: usize = 25;

/// Ceiling for the brute-force subset enumeration (O7 and B7).
const SET_CHECK_MAX_N: usize = 10;

/// Named process sets making up a counterexample.
pub type Sets = Vec<(&'static str, Vec<u32>)>;

/// The tightness witnesses a family seeks, each with where it was
/// sought; a construction that failed says why.
type Sought = Vec<(Point, Result<TightnessWitness, String>)>;

/// A family of bounds: its own arithmetic, obligations and witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Theorems 5–6, obligations O1–O7 ([`crash`]).
    Crash,
    /// The Byzantine fast-path bounds, obligations B1–B7 ([`byzantine`]).
    Byzantine,
}

impl Family {
    /// Both families, in report order.
    pub const ALL: [Family; 2] = [Family::Crash, Family::Byzantine];
}

/// Seeded-violation fixtures: known-broken arithmetic the checker must
/// reject. CI runs the checker against each and asserts exit 1,
/// guarding the gate itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    /// Crash fast quorums of `n - e - 1`: one process too small, so a
    /// fast quorum and a slow quorum may share fewer than `n - f - e`
    /// members and a fast decision can vanish from recovery's view.
    BrokenFastQuorum,
    /// Crash recovery threshold of `n - f - e + 1`: one vote too
    /// demanding, so a fast-decided value guaranteed only `n - f - e`
    /// surviving votes falls through to the arbitrary fallback branch.
    BrokenRecoveryThreshold,
    /// Byzantine fast quorums of `⌈(n+f+1)/2⌉` — the *crash-tolerant*
    /// size, blind to equivocation. Too small for max-count recovery
    /// (B6 fails for every FaB configuration), short of certification
    /// below `n = 5f` (B2), and live below the variant bounds (the
    /// tightness half of B4).
    ByzCrashSizedFastQuorum,
}

impl Fixture {
    /// All fixtures, for CLI listing and tests.
    pub const ALL: [Fixture; 3] = [
        Fixture::BrokenFastQuorum,
        Fixture::BrokenRecoveryThreshold,
        Fixture::ByzCrashSizedFastQuorum,
    ];

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Fixture> {
        Fixture::ALL.into_iter().find(|fx| fx.name() == s)
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Fixture::BrokenFastQuorum => "broken-fast-quorum",
            Fixture::BrokenRecoveryThreshold => "broken-recovery-threshold",
            Fixture::ByzCrashSizedFastQuorum => "byz-crash-sized-fast-quorum",
        }
    }

    /// The family whose arithmetic this fixture breaks; the other
    /// family's sweep checks the real arithmetic.
    pub fn family(self) -> Family {
        match self {
            Fixture::BrokenFastQuorum | Fixture::BrokenRecoveryThreshold => Family::Crash,
            Fixture::ByzCrashSizedFastQuorum => Family::Byzantine,
        }
    }
}

/// Where a result sits in its family's swept space: the header fields
/// of its JSON object and text line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// A crash configuration: `n` processes, up to `f` crashes, fast
    /// decisions despite up to `e` of them.
    Crash { n: usize, e: usize, f: usize },
    /// A Byzantine configuration: `n` processes, up to `f` Byzantine,
    /// under a quorum-rule variant.
    Byzantine {
        variant: ByzVariant,
        n: usize,
        f: usize,
    },
}

impl Point {
    /// Processes.
    pub fn n(self) -> usize {
        match self {
            Point::Crash { n, .. } | Point::Byzantine { n, .. } => n,
        }
    }

    /// Resilience threshold.
    pub fn f(self) -> usize {
        match self {
            Point::Crash { f, .. } | Point::Byzantine { f, .. } => f,
        }
    }

    /// The header fields of a JSON object, without braces.
    fn json_fields(self) -> String {
        match self {
            Point::Crash { n, e, f } => format!("\"n\":{n},\"e\":{e},\"f\":{f}"),
            Point::Byzantine { variant, n, f } => format!(
                "\"variant\":\"{}\",\"n\":{n},\"f\":{f}",
                json_escape(variant.name())
            ),
        }
    }
}

/// The header of a text-report line.
impl fmt::Display for Point {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Point::Crash { n, e, f } => write!(out, "n={n} e={e} f={f}"),
            Point::Byzantine { variant, n, f } => write!(out, "n={n} f={f} {}", variant.name()),
        }
    }
}

/// A quorum obligation that fails for a model claiming it should hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Model the violation was found in (`"real"` or a fixture name).
    pub model: &'static str,
    /// The configuration it was found at.
    pub point: Point,
    /// Obligation identifier (`"O3-fast-slow-visibility"`,
    /// `"B1-fast-honest-intersection"`, …).
    pub obligation: &'static str,
    /// Human-readable account of the failing inequality.
    pub detail: String,
    /// Concrete sets exhibiting the failure, when constructible.
    pub witness_sets: Sets,
}

/// How a tightness witness demonstrates the bound's necessity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessKind {
    /// `n ≤ 2f`: two slow quorums of `n-f` that do not intersect, so
    /// two ballots can decide independently.
    DisjointSlowQuorums,
    /// `n ≤ 2e+f` (Fast Paxos): two fast quorums whose intersection
    /// misses an entire slow quorum, so Fast Paxos's recovery cannot
    /// tell which of two values was fast-chosen.
    FastQuorumAmbiguity,
    /// `2f+1 ≤ n ≤ 2e+f-1` (task): a run where value 100 is
    /// fast-decided yet `select_value` picks the rival 200 — a rival
    /// proposed by a process that had already voted for 100 gathers
    /// `e > n-f-e` surviving votes.
    TaskRivalOvertake,
    /// `2f+1 ≤ n ≤ 2e+f-2` (object): a run where value 100 is
    /// fast-decided yet both 100 and the rival 50 exceed the `n-f-e`
    /// threshold in the same report quorum, and `select_value`
    /// resolves the ambiguity the wrong way.
    ObjectGtAmbiguity,
    /// `3f+1 ≤ n` below a Byzantine variant's fast-liveness bound: the
    /// `n − f` processes left live when `f` fall silent are fewer than
    /// a fast quorum, and a `FastBft` run shows no fast decider.
    FastPathVacant,
}

impl WitnessKind {
    /// Stable identifier used in reports and JSON.
    pub fn id(self) -> &'static str {
        match self {
            WitnessKind::DisjointSlowQuorums => "disjoint-slow-quorums",
            WitnessKind::FastQuorumAmbiguity => "fast-quorum-ambiguity",
            WitnessKind::TaskRivalOvertake => "task-rival-overtake",
            WitnessKind::ObjectGtAmbiguity => "object-gt-ambiguity",
            WitnessKind::FastPathVacant => "fast-path-vacant",
        }
    }
}

/// What running a witness on the real code produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionRecord {
    /// A crash witness's `1B` reports run through the real recovery
    /// rule, `select_value`.
    Recovery {
        /// The value fast-decided in the witness run.
        fast_decided: u64,
        /// What `select_value` picked from the `1B` reports — differing
        /// from `fast_decided`, i.e. an agreement violation.
        recovery_selected: u64,
    },
    /// A Byzantine witness run on the real `FastBft` baseline under the
    /// synchronous runner.
    FastBft {
        /// Processes crashed in the run (always `f`, the top ids).
        crashed: usize,
        /// Correct processes that decided on the fast path — zero, by
        /// construction, since `fq > n − f`.
        fast_deciders: usize,
        /// Correct processes that decided at all (via recovery).
        correct_deciders: usize,
        /// The agreed value the slow path certified.
        decided_value: u64,
    },
}

/// A concrete counterexample showing a bound is tight at its `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TightnessWitness {
    /// The crash protocol whose bound `n` falls short of; a Byzantine
    /// witness's bound is its point's variant's.
    pub protocol: Option<ProtocolKind>,
    /// The configuration below the bound.
    pub point: Point,
    /// The bound `n` falls short of.
    pub bound: usize,
    /// The shape of the counterexample.
    pub kind: WitnessKind,
    /// Named process sets making up the counterexample.
    pub sets: Sets,
    /// Present when the witness was executed against the real code.
    pub executed: Option<ExecutionRecord>,
}

/// Outcome of a full sweep of one family.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The family swept.
    pub family: Family,
    /// The sweep ceiling.
    pub max_n: usize,
    /// Arithmetic under test (`"real"` or a fixture name).
    pub model: &'static str,
    /// Number of configurations whose obligations were checked.
    pub configs_checked: usize,
    /// Obligation violations (empty for the real arithmetic).
    pub violations: Vec<Violation>,
    /// Tightness witnesses for every below-bound `n` (real model only).
    pub witnesses: Vec<TightnessWitness>,
}

impl SweepOutcome {
    /// Whether the sweep certifies the model.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `family`'s full sweep: obligations for every constructible
/// configuration with `n ≤ max_n`, plus (for the real arithmetic)
/// tightness witnesses for every `n` below each bound. A fixture of
/// the other family leaves this one's arithmetic real.
///
/// Witness-construction failures are reported as
/// `"witness-construction"` violations: a bound the checker cannot
/// exhibit a counterexample for is treated as unverified.
pub fn sweep(family: Family, max_n: usize, fixture: Option<Fixture>) -> SweepOutcome {
    let fixture = fixture.filter(|fx| fx.family() == family);
    let model = fixture.map_or("real", Fixture::name);
    // One entry per configuration: what its model's check found.
    let checked: Vec<Vec<Violation>> = match family {
        Family::Crash => crash::models(max_n, fixture).map(crash::check).collect(),
        Family::Byzantine => byzantine::models(max_n, fixture)
            .map(byzantine::check)
            .collect(),
    };
    let mut outcome = SweepOutcome {
        family,
        max_n,
        model,
        configs_checked: checked.len(),
        violations: checked.concat(),
        witnesses: Vec::new(),
    };
    // Tightness witnesses demonstrate the real bounds; fixtures skip
    // them (their purpose is to trip the obligations above).
    if fixture.is_none() {
        let sought = match family {
            Family::Crash => crash::witnesses(max_n),
            Family::Byzantine => byzantine::witnesses(max_n),
        };
        for (point, witness) in sought {
            match witness {
                Ok(w) => outcome.witnesses.push(w),
                Err(detail) => outcome.violations.push(Violation {
                    model,
                    point,
                    obligation: "witness-construction",
                    detail,
                    witness_sets: vec![],
                }),
            }
        }
    }
    outcome
}

fn ids(range: impl Iterator<Item = usize>) -> Vec<u32> {
    range.map(|i| i as u32).collect()
}

/// Minimum `|FQ ∩ Q|` over all size-`fq` and size-`sq` subsets of `n`,
/// by bitmask enumeration (`n ≤ 10`): the set-level re-derivation
/// behind O7 and B7.
fn min_intersection_by_enumeration(n: usize, fq: usize, sq: usize) -> usize {
    let mut min = n;
    for a in 0u32..1 << n {
        if a.count_ones() as usize != fq {
            continue;
        }
        for b in 0u32..1 << n {
            if b.count_ones() as usize != sq {
                continue;
            }
            min = min.min((a & b).count_ones() as usize);
        }
    }
    min
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn json_sets(sets: &[(&'static str, Vec<u32>)]) -> String {
    let fields: Vec<String> = sets
        .iter()
        .map(|(name, members)| {
            let members: Vec<String> = members.iter().map(u32::to_string).collect();
            format!("\"{name}\":[{}]", members.join(","))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

impl Violation {
    /// Machine-readable rendering (one JSON object).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"model\":\"{}\",{},\"obligation\":\"{}\",\"detail\":\"{}\",\"sets\":{}}}",
            self.model,
            self.point.json_fields(),
            self.obligation,
            json_escape(&self.detail),
            json_sets(&self.witness_sets),
        )
    }
}

impl ExecutionRecord {
    /// Machine-readable rendering (one JSON object).
    pub fn to_json(&self) -> String {
        match *self {
            ExecutionRecord::Recovery {
                fast_decided,
                recovery_selected,
            } => format!(
                "{{\"fast_decided\":{fast_decided},\"recovery_selected\":{recovery_selected}}}"
            ),
            ExecutionRecord::FastBft {
                crashed,
                fast_deciders,
                correct_deciders,
                decided_value,
            } => format!(
                "{{\"crashed\":{crashed},\"fast_deciders\":{fast_deciders},\
                 \"correct_deciders\":{correct_deciders},\"decided_value\":{decided_value}}}"
            ),
        }
    }
}

impl TightnessWitness {
    /// Machine-readable rendering (one JSON object).
    pub fn to_json(&self) -> String {
        let protocol = self.protocol.map_or(String::new(), |p| {
            format!("\"protocol\":\"{}\",", json_escape(p.name()))
        });
        format!(
            "{{{protocol}{},\"bound\":{},\"kind\":\"{}\",\"sets\":{},\"executed\":{}}}",
            self.point.json_fields(),
            self.bound,
            self.kind.id(),
            json_sets(&self.sets),
            self.executed
                .as_ref()
                .map_or("null".into(), ExecutionRecord::to_json),
        )
    }
}

impl SweepOutcome {
    /// Machine-readable rendering of the whole sweep.
    pub fn to_json(&self) -> String {
        let violations: Vec<String> = self.violations.iter().map(Violation::to_json).collect();
        let witnesses: Vec<String> = self
            .witnesses
            .iter()
            .map(TightnessWitness::to_json)
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
    fn fixture_cli_names_round_trip() {
        for fx in Fixture::ALL {
            assert_eq!(Fixture::parse(fx.name()), Some(fx));
        }
        assert_eq!(Fixture::parse("no-such-fixture"), None);
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_counts() {
        for family in Family::ALL {
            let outcome = sweep(family, 10, None);
            let json = outcome.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'));
            assert_eq!(
                json.matches("\"kind\"").count(),
                outcome.witnesses.len(),
                "one kind field per witness"
            );
        }
    }
}
