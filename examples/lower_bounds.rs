//! The lower bounds, live: run the paper's impossibility proofs as
//! schedules against the real protocol, then let the model checker
//! rediscover an ablation bug by exhaustive search.
//!
//! ```text
//! cargo run --example lower_bounds
//! ```

use twostep::types::protocol::TimerId;
use twostep::verify::{
    guard_ablation_prefix, object_at_bound, object_below_bound, task_at_bound, task_below_bound,
    CheckOutcome, ModelChecker,
};

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
    // The staged contended fast round (the gate's seeded-broken
    // fixture); the checker owns the rest.
    let (setup, prefix) = guard_ablation_prefix();
    let outcome = ModelChecker::new()
        .timer_budget(1, vec![TimerId::NEW_BALLOT])
        .max_states(500_000)
        .run(setup.cfg, &[0, 1], |_| {
            let mut ex = setup.object();
            prefix.run(&mut ex);
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
