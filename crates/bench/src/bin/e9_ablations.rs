//! E9 (Table 4): ablations — each ingredient of the recovery rule is
//! necessary at the paper's minimal process counts.
//!
//! | ingredient | where | broken by |
//! |---|---|---|
//! | max-value tie-break | Figure 1 line 58 | picking the min instead |
//! | proposer-exclusion set R | line 47 | counting all votes in Q |
//! | object red line | line 10 | accepting conflicting proposals |
//!
//! For each ablation the same adversarial schedule is run against the
//! correct protocol (expected: agreement intact) and the ablated one
//! (expected: agreement VIOLATED).

use twostep_bench::{verdict, Table};
use twostep_core::Ablations;
use twostep_verify::{
    object_exclusion_demo, object_guard_demo, task_at_bound_with, AdversaryReport,
};

/// An ablation's rows: its label, the bound under test, the splice and
/// the ablated protocol.
type Rows = (
    &'static str,
    &'static str,
    fn(usize, usize, Ablations) -> AdversaryReport,
    Ablations,
);

fn main() {
    let mut table = Table::new(&[
        "ablation",
        "bound under test",
        "e",
        "f",
        "n",
        "correct protocol",
        "ablated protocol",
    ]);

    let rows: [Rows; 3] = [
        (
            "no max tie-break (line 58)",
            "task n=2e+f",
            task_at_bound_with,
            Ablations {
                no_max_tiebreak: true,
                ..Ablations::NONE
            },
        ),
        (
            "no proposer exclusion (line 47)",
            "object n=2e+f-1",
            object_exclusion_demo,
            Ablations {
                no_proposer_exclusion: true,
                ..Ablations::NONE
            },
        ),
        (
            "no red-line guard (line 10)",
            "object n=2e+f-1",
            object_guard_demo,
            Ablations {
                no_object_guard: true,
                ..Ablations::NONE
            },
        ),
    ];
    for (ablation, bound, splice, ablated) in rows {
        for (e, f) in [(2usize, 2usize), (3, 3), (3, 4)] {
            let correct = splice(e, f, Ablations::NONE);
            table.row(&[
                ablation.to_string(),
                bound.to_string(),
                e.to_string(),
                f.to_string(),
                correct.cfg.n().to_string(),
                verdict(correct.agreement_violated),
                verdict(splice(e, f, ablated).agreement_violated),
            ]);
        }
    }

    table.print("E9: each recovery-rule ingredient is necessary at the bound");
    println!(
        "\nExpected shape: every 'correct protocol' cell intact, every 'ablated protocol'\n\
         cell VIOLATED — removing any single ingredient re-opens the safety hole that the\n\
         respective lower bound says must exist with fewer processes."
    );
}
