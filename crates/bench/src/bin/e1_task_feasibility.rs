//! E1 (Table 1): Theorem 5 "if" — the task protocol is f-resilient and
//! e-two-step at exactly `n = max{2e+f, 2f+1}`.
//!
//! For every `(e, f)` in the grid and *every* failure set `E` of size
//! `e`, the binary verifies both clauses of Definition 4 in E-faulty
//! synchronous runs, plus Agreement and Termination over the full runs
//! (`twostep_sim::definition_4`). Validity follows: with Agreement,
//! every decision of a clause-1 run equals the witness's own proposal,
//! and every decision of a clause-2 run the unanimous 7.

use twostep_bench::Table;
use twostep_core::TaskConsensus;
use twostep_sim::definition_4;
use twostep_types::SystemConfig;

fn main() {
    let grid = [
        (1usize, 1usize),
        (1, 2),
        (2, 2),
        (1, 3),
        (2, 3),
        (3, 3),
        (2, 4),
    ];
    let mut table = Table::new(&[
        "e",
        "f",
        "n=max{2e+f,2f+1}",
        "|E| sets",
        "Def4(1) two-step",
        "Def4(2) two-step",
        "agreement",
        "termination",
    ]);

    for (e, f) in grid {
        let cfg = SystemConfig::minimal_task(e, f).expect("valid grid point");
        let report = definition_4(cfg, |q, v| TaskConsensus::new(cfg, q, v));
        table.row(&[
            e.to_string(),
            f.to_string(),
            cfg.n().to_string(),
            report.failure_sets.to_string(),
            pass(report.clause_one),
            pass(report.clause_two),
            pass(report.agreement),
            pass(report.termination),
        ]);
    }

    table.print("E1: task protocol at the Theorem 5 bound (Definition 4, all failure sets)");
}

fn pass(ok: bool) -> String {
    if ok {
        "yes".into()
    } else {
        "VIOLATED".into()
    }
}
