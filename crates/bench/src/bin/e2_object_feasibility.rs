//! E2 (Table 2): Theorem 6 "if" — the object protocol is f-resilient
//! and e-two-step at exactly `n = max{2e+f-1, 2f+1}` (one process fewer
//! than the task bound), per Definition A.1, over every failure set
//! (`twostep_sim::definition_a1`).

use twostep_bench::Table;
use twostep_core::ObjectConsensus;
use twostep_sim::definition_a1;
use twostep_types::SystemConfig;

fn main() {
    let grid = [(1usize, 1usize), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)];
    let mut table = Table::new(&[
        "e",
        "f",
        "n=max{2e+f-1,2f+1}",
        "task needs",
        "FastPaxos needs",
        "|E| sets",
        "A.1(1) lone proposer",
        "A.1(2) unanimous",
        "agreement",
    ]);

    for (e, f) in grid {
        let cfg = SystemConfig::minimal_object(e, f).expect("valid grid point");
        let report = definition_a1(cfg, |q| ObjectConsensus::<u64>::new(cfg, q));
        table.row(&[
            e.to_string(),
            f.to_string(),
            cfg.n().to_string(),
            SystemConfig::minimal_task(e, f).unwrap().n().to_string(),
            SystemConfig::minimal_fast_paxos(e, f)
                .unwrap()
                .n()
                .to_string(),
            report.failure_sets.to_string(),
            pass(report.clause_one),
            pass(report.clause_two),
            pass(report.agreement),
        ]);
    }

    table.print("E2: object protocol at the Theorem 6 bound (Definition A.1, all failure sets)");
}

fn pass(ok: bool) -> String {
    if ok {
        "yes".into()
    } else {
        "VIOLATED".into()
    }
}
