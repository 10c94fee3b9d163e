//! The lower bounds, live: run the paper's impossibility proofs as
//! schedules against the real protocol, then let the model checker
//! rediscover an ablation bug by exhaustive search.
//!
//! ```text
//! cargo run --example lower_bounds
//! ```

use twostep::core::{Ablations, Msg, OmegaMode, TwoStepBuilder};
use twostep::sim::ManualExecutor;
use twostep::types::protocol::TimerId;
use twostep::types::{ProcessId, SystemConfig};
use twostep::verify::adversary::fast_round;
use twostep::verify::{
    object_at_bound, object_below_bound, task_at_bound, task_below_bound, CheckOutcome,
    ModelChecker,
};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn main() {
    // ---------------------------------------------------------------
    // 1. Theorem 5 "only if": the §B.1 splice at n = 2e+f-1.
    // ---------------------------------------------------------------
    println!("== Theorem 5 lower bound (task), e = f = 2 ==\n");
    let below = task_below_bound(2, 2);
    println!("{}", below.narrative);
    println!(
        "decisions: {:?}  → agreement {}",
        below.decisions,
        if below.agreement_violated {
            "VIOLATED (as the theorem demands)"
        } else {
            "intact"
        }
    );
    assert!(below.agreement_violated);

    let at = task_at_bound(2, 2);
    println!("\nsame strategy at n = 2e+f = {}:", at.cfg.n());
    println!(
        "decisions: {:?}  → agreement {}",
        at.decisions,
        if at.agreement_violated {
            "VIOLATED"
        } else {
            "intact (the tie-break rescued it)"
        }
    );
    assert!(!at.agreement_violated);

    // ---------------------------------------------------------------
    // 2. Theorem 6 "only if": the §B.2 splice at n = 2e+f-2.
    // ---------------------------------------------------------------
    println!("\n== Theorem 6 lower bound (object), e = f = 3 ==\n");
    let below = object_below_bound(3, 3);
    println!("{}", below.narrative);
    assert!(below.agreement_violated);
    let at = object_at_bound(3, 3);
    println!(
        "same strategy at n = 2e+f-1 = {}: agreement {}",
        at.cfg.n(),
        if at.agreement_violated {
            "VIOLATED"
        } else {
            "intact"
        }
    );
    assert!(!at.agreement_violated);

    // ---------------------------------------------------------------
    // 3. Exhaustive search: the model checker explores *every*
    //    continuation of a contended fast round under the red-line
    //    ablation and finds the agreement violation on its own.
    // ---------------------------------------------------------------
    println!("\n== Model checker vs the red-line ablation (n = 5, e = f = 2) ==\n");
    let cfg = SystemConfig::minimal_object(2, 2).unwrap();
    let outcome = ModelChecker::new()
        .timer_budget(1, vec![TimerId::NEW_BALLOT])
        .max_states(500_000)
        .run(cfg, &[0, 1], |cfg| {
            let mut ex = ManualExecutor::new(cfg, |q| {
                TwoStepBuilder::new(cfg)
                    .omega(OmegaMode::Static(p(0)))
                    .ablations(Ablations {
                        no_object_guard: true,
                        ..Ablations::NONE
                    })
                    .object::<u64>(q)
            });
            ex.start_all();
            for i in 0..cfg.n() as u32 {
                let v = if i >= (cfg.n() - cfg.e()) as u32 {
                    1
                } else {
                    0
                };
                ex.propose(p(i), v);
            }
            // Stage the contended fast round; the checker owns the rest.
            fast_round(&mut ex, p(4), &[p(2), p(3)]);
            ex.deliver_where(|m| {
                m.from == p(2) && [p(0), p(1)].contains(&m.to) && matches!(m.msg, Msg::Propose(_))
            });
            ex.crash(p(2));
            ex.crash(p(4));
            ex
        });

    match outcome {
        CheckOutcome::Violation {
            report,
            script,
            states,
            ..
        } => {
            println!("found after {states} states: {report}");
            println!("counterexample schedule ({} steps):", script.len());
            for (i, action) in script.iter().enumerate() {
                println!("  {i:>2}. {action:?}");
            }
        }
        CheckOutcome::Clean {
            states, truncated, ..
        } => {
            panic!("missed the bug ({states} states, truncated={truncated})")
        }
    }

    println!("\nlower bounds demonstrated");
}
