//! E3 (Table 3): Theorems 5/6 "only if" — the mechanized lower-bound
//! adversary (§B.1, §B.2 splices) drives the protocol into a concrete
//! agreement violation one process below each bound, and fails at the
//! bound.

use twostep_bench::{verdict, Table};
use twostep_verify::{
    fast_paxos_at_bound, fast_paxos_below_bound, object_adversary_grid, object_at_bound,
    object_below_bound, task_adversary_grid, task_at_bound, task_below_bound, AdversaryReport,
};

/// A variant's rows: its label, its `(e, f)` grid and its splice below
/// and at the bound.
type Rows = (
    &'static str,
    Vec<(usize, usize)>,
    [(&'static str, fn(usize, usize) -> AdversaryReport); 2],
);

fn main() {
    let mut table = Table::new(&[
        "variant",
        "e",
        "f",
        "n",
        "vs bound",
        "fast decision",
        "recovery decision",
        "agreement",
    ]);

    let rows: [Rows; 3] = [
        (
            "task",
            task_adversary_grid(4),
            [
                ("n=2e+f-1 (below)", task_below_bound),
                ("n=2e+f   (at)", task_at_bound),
            ],
        ),
        (
            "object",
            object_adversary_grid(5),
            [
                ("n=2e+f-2 (below)", object_below_bound),
                ("n=2e+f-1 (at)", object_at_bound),
            ],
        ),
        // Bonus: the same tightness statement for the baseline —
        // Lamport's 2e+f+1 is exactly what Fast Paxos's O4 rule needs.
        (
            "fastpaxos",
            vec![(1, 1), (2, 2), (2, 3), (3, 3)],
            [
                ("n=2e+f   (below)", fast_paxos_below_bound),
                ("n=2e+f+1 (at)", fast_paxos_at_bound),
            ],
        ),
    ];
    let decided = |d: Option<&(_, u64)>| d.map_or_else(|| "-".into(), |(p, v)| format!("{p}:{v}"));
    for (variant, grid, splices) in rows {
        for (e, f) in grid {
            for (label, splice) in splices {
                let report = splice(e, f);
                table.row(&[
                    variant.to_string(),
                    e.to_string(),
                    f.to_string(),
                    report.cfg.n().to_string(),
                    label.to_string(),
                    decided(report.decisions.first()),
                    decided(report.decisions.last()),
                    verdict(report.agreement_violated),
                ]);
            }
        }
    }

    table.print("E3: lower-bound splices (§B.1/§B.2) against the real protocol");
    println!(
        "\nExpected shape: every 'below' row VIOLATED (two different values decided),\n\
         every 'at' row intact — the proposer-exclusion/tie-break recovery rule is\n\
         exactly strong enough at the bound and no stronger."
    );

    // Print one full narrative as a worked example.
    let sample = task_below_bound(2, 2);
    println!(
        "\n-- worked example ({} ) --\n{}",
        sample.cfg, sample.narrative
    );
}
