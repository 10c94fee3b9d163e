//! Workspace-level property tests spanning several crates: randomized
//! whole-system scenarios checked against `twostep::types::judge`.

use proptest::prelude::*;

use twostep::core::{ObjectConsensus, TaskConsensus};
use twostep::sim::{DeliveryOrder, RandomDelay, SimulationBuilder};
use twostep::smr::{KvCommand, KvStore, SmrReplicaBuilder};
use twostep::types::{judge, Duration, ProcessId, SystemConfig, Time};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Task consensus: random configs, delays, orders and crash
    /// schedules never violate Agreement/Validity/Integrity, and always
    /// terminate when crashes stay within f.
    #[test]
    fn task_consensus_safety_under_chaos(
        grid in 0usize..4,
        seed in 0u64..10_000,
        crashes in proptest::collection::vec((0u32..16, 0u64..4000), 0..3),
    ) {
        let (e, f) = [(1usize, 1), (1, 2), (2, 2), (2, 3)][grid];
        let cfg = SystemConfig::minimal_task(e, f).unwrap();
        let n = cfg.n();
        let props: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();

        let mut builder = SimulationBuilder::new(cfg)
            .delay_model(RandomDelay::sub_delta(seed))
            .delivery_order(DeliveryOrder::randomized(seed));
        let mut victims = std::collections::BTreeSet::new();
        for (raw, when) in crashes.iter().take(f) {
            let victim = (raw % n as u32, *when);
            if victims.insert(victim.0) {
                builder = builder.crash_at(p(victim.0), Time::from_units(victim.1));
            }
        }
        let outcome = builder
            .build(|q| TaskConsensus::new(cfg, q, props[q.index()]))
            .run_until_all_decided(Time::ZERO + Duration::deltas(150));

        prop_assert_eq!(judge::decision(&outcome.trace.decide_log(), &props), Ok(()));
        prop_assert!(outcome.all_correct_decided(), "stalled: {:?}", outcome.decisions);
    }

    /// Object consensus: random proposer subsets under chaos stay safe
    /// and wait-free for correct proposers.
    #[test]
    fn object_consensus_safety_under_chaos(
        seed in 0u64..10_000,
        proposer_mask in 1u32..32,
    ) {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let n = cfg.n();
        let mut sim = SimulationBuilder::new(cfg)
            .delay_model(RandomDelay::sub_delta(seed))
            .delivery_order(DeliveryOrder::randomized(seed))
            .build(|q| ObjectConsensus::<u64>::new(cfg, q));
        let mut proposed = vec![];
        for i in 0..n as u32 {
            if proposer_mask & (1 << i) != 0 {
                let v = 100 + u64::from(i);
                proposed.push(v);
                sim.schedule_propose(p(i), v, Time::from_units(u64::from(i) * 137));
            }
        }
        let outcome = sim.run_until_all_decided(Time::ZERO + Duration::deltas(150));
        prop_assert_eq!(judge::decision(&outcome.trace.decide_log(), &proposed), Ok(()));
        prop_assert!(outcome.all_correct_decided());
    }

    /// SMR: replicas' committed logs are always prefix-compatible and
    /// every submitted command commits exactly once (no loss, no
    /// duplication), under random proxies and schedules.
    #[test]
    fn smr_log_consistency(
        seed in 0u64..10_000,
        cmds in proptest::collection::vec((0u32..3, 0u64..50), 1..5),
    ) {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let mut sim = SimulationBuilder::new(cfg)
            .delivery_order(DeliveryOrder::randomized(seed))
            .build(|q| SmrReplicaBuilder::new(cfg, q).build::<KvCommand, KvStore>());
        let total = cmds.len() as u64;
        let mut submitted = Vec::new();
        for (k, (proxy, key)) in cmds.iter().enumerate() {
            let c = KvCommand::put(format!("k{key}-{k}"), format!("v{k}"));
            sim.schedule_propose(p(proxy % 3), c.clone(), Time::from_units(k as u64 * 211));
            submitted.push(c);
        }
        let outcome = sim.run_until(Time::ZERO + Duration::deltas(250), |s| {
            (0..3).all(|i| s.process(p(i)).applied() >= total)
        });

        let longest = outcome.procs.iter().max_by_key(|r| r.applied()).unwrap();
        prop_assert!(
            longest.applied() >= total,
            "only {}/{} commands applied",
            longest.applied(),
            total
        );
        // Prefix compatibility + exactly-once.
        prop_assert_eq!(judge::log(&outcome.trace.decide_log(), &submitted), Ok(()));
    }
}
