//! Integration tests: the task variant satisfies Definition 4 at the
//! Theorem 5 bound `n = max{2e+f, 2f+1}`, plus consensus safety and
//! liveness under adverse schedules.

use twostep_core::TaskConsensus;
use twostep_sim::{
    definition_4, DeliveryOrder, Lossy, PartialSynchrony, SimulationBuilder, SyncRunner,
    SynchronousRounds,
};
use twostep_types::{judge, Duration, ProcessId, ProcessSet, SystemConfig, Time};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// The small (e, f) grid used across these tests.
const GRID: [(usize, usize); 5] = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)];

/// Distinct ascending proposals: p_i proposes 100 + i.
fn proposals(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 100 + i).collect()
}

#[test]
fn definition_4_holds_on_every_failure_set() {
    // Both clauses, on every E with |E| = e, at the Theorem 5 bound and
    // over-provisioned (n = 9 > 6 for e = f = 2).
    let at_bound = GRID.map(|(e, f)| SystemConfig::minimal_task(e, f).unwrap());
    for cfg in at_bound
        .into_iter()
        .chain([SystemConfig::new(9, 2, 2).unwrap()])
    {
        let report = definition_4(cfg, |q, v| TaskConsensus::new(cfg, q, v));
        assert!(report.passed(), "cfg={cfg}: {:?}", report.first_failure);
    }
}

#[test]
fn all_correct_eventually_decide_in_synchronous_runs() {
    for (e, f) in GRID {
        let cfg = SystemConfig::minimal_task(e, f).unwrap();
        let props = proposals(cfg.n());
        for crashed in cfg.failure_sets().take(4) {
            let outcome = SyncRunner::new(cfg)
                .crashed(crashed)
                .horizon(Duration::deltas(60))
                .run(|q| TaskConsensus::new(cfg, q, props[q.index()]));
            assert!(
                outcome.all_correct_decided(),
                "cfg={cfg} E={crashed:?}: termination violated"
            );
            assert!(outcome.agreement());
            // Validity: the decision is a correct process's proposal
            // (crashed ones never sent theirs).
            let correct = crashed.complement(cfg.n()).iter().map(|q| props[q.index()]);
            let verdict =
                judge::validity(&outcome.trace.decide_log(), &correct.collect::<Vec<_>>());
            assert_eq!(verdict, Ok(()), "cfg={cfg} E={crashed:?}");
        }
    }
}

#[test]
fn beyond_e_crashes_slow_path_still_terminates() {
    // Crash f > e processes: two-step is no longer guaranteed, but
    // f-resilience still demands termination and agreement.
    for (e, f) in [(1usize, 2usize), (1, 3), (2, 3)] {
        let cfg = SystemConfig::minimal_task(e, f).unwrap();
        let props = proposals(cfg.n());
        let crashed: ProcessSet = (0..f as u32).map(p).collect();
        let outcome = SyncRunner::new(cfg)
            .crashed(crashed)
            .horizon(Duration::deltas(80))
            .run(|q| TaskConsensus::new(cfg, q, props[q.index()]));
        assert!(
            outcome.all_correct_decided(),
            "cfg={cfg}: stalled with f crashes"
        );
        assert!(outcome.agreement());
    }
}

#[test]
fn initial_leader_crash_recovers_via_omega() {
    // n = 5, e = 1, f = 2; ascending proposals ensure no fast decision
    // (each proposal gathers at most one supporter besides its proposer,
    // below the fast quorum of 4). p0 — the initial Ω leader — crashes.
    let cfg = SystemConfig::new(5, 1, 2).unwrap();
    let props: Vec<u64> = (0..5).collect();
    let crashed: ProcessSet = [p(0)].into_iter().collect();
    let outcome = SyncRunner::new(cfg)
        .crashed(crashed)
        .horizon(Duration::deltas(60))
        .run(|q| TaskConsensus::new(cfg, q, props[q.index()]));
    assert!(
        outcome.all_correct_decided(),
        "Ω failed to replace the crashed leader"
    );
    assert!(outcome.agreement());
    let (fast, _) = outcome.fast_deciders();
    assert!(fast.is_empty(), "ascending order must starve the fast path");
    // Validity among correct proposals.
    assert_eq!(
        judge::validity(&outcome.trace.decide_log(), &props[1..]),
        Ok(())
    );
}

#[test]
fn partial_synchrony_chaos_then_gst_terminates() {
    // Pre-GST: 30% drops and delays up to 4Δ. Post-GST: synchronous.
    // All processes correct; they must decide despite the chaotic start.
    // A failing seed is replayable alone via TWOSTEP_SEED=<seed>.
    for seed in twostep_sim::test_seeds([1, 7, 42]) {
        let cfg = SystemConfig::minimal_task(2, 2).unwrap();
        let props = proposals(cfg.n());
        let gst = Time::ZERO + Duration::deltas(10);
        let outcome = SimulationBuilder::new(cfg)
            .delay_model(PartialSynchrony::new(
                gst,
                Lossy::new(0.3, Duration::deltas(4), seed),
                SynchronousRounds,
            ))
            .build(|q| TaskConsensus::new(cfg, q, props[q.index()]))
            .run_until_all_decided(Time::ZERO + Duration::deltas(120));
        assert!(
            outcome.all_correct_decided(),
            "seed {seed}: no decision despite GST"
        );
        assert!(outcome.agreement(), "seed {seed}");
    }
}

#[test]
fn randomized_schedules_preserve_agreement_and_validity() {
    // Randomized delivery order + random sub-Δ delays + crashes at
    // random times: Agreement and Validity must hold in every run.
    for seed in twostep_sim::test_seeds(0..20) {
        let cfg = SystemConfig::minimal_task(2, 2).unwrap();
        let n = cfg.n();
        let props = proposals(n);
        let mut builder = SimulationBuilder::new(cfg)
            .delay_model(twostep_sim::RandomDelay::sub_delta(seed))
            .delivery_order(DeliveryOrder::randomized(seed));
        // Crash up to f processes at pseudo-random times.
        let f = cfg.f();
        for k in 0..(seed as usize % (f + 1)) {
            let victim = p(((seed as usize + 3 * k) % n) as u32);
            let when = Time::from_units((seed * 997 + k as u64 * 1313) % 5000);
            builder = builder.crash_at(victim, when);
        }
        let outcome = builder
            .build(|q| TaskConsensus::new(cfg, q, props[q.index()]))
            .run_until_all_decided(Time::ZERO + Duration::deltas(150));

        // Agreement over every decide event in the trace, Validity and
        // Integrity.
        let verdict = judge::decision(&outcome.trace.decide_log(), &props);
        assert_eq!(verdict, Ok(()), "seed {seed}");
        assert!(
            outcome.all_correct_decided(),
            "seed {seed}: correct processes stalled"
        );
    }
}

#[test]
fn no_crash_fast_path_message_complexity() {
    // With no failures, the fast path uses Propose (n-1 per process) and
    // one 2B per acceptance — no slow-ballot traffic before 2Δ.
    let cfg = SystemConfig::minimal_task(1, 1).unwrap();
    let props = proposals(cfg.n());
    let witness = p(2);
    let outcome = SyncRunner::new(cfg)
        .favoring(witness)
        .horizon(Duration::deltas(2))
        .run(|q| TaskConsensus::new(cfg, q, props[q.index()]));
    assert!(outcome.trace.messages_sent_of_kind("Propose") >= cfg.n() * (cfg.n() - 1) / 2);
    // No slow-ballot traffic strictly before 2Δ (at exactly 2Δ the
    // new-ballot timer of still-undecided processes legitimately fires).
    let early_oneas = outcome
        .trace
        .events()
        .iter()
        .filter(|ev| {
            ev.time() < Time::ZERO + Duration::deltas(2)
                && matches!(ev, twostep_sim::TraceEvent::MessageSent { kind, .. } if kind == "OneA")
        })
        .count();
    assert_eq!(early_oneas, 0, "no slow ballot before 2Δ");
}
