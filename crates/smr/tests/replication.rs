//! End-to-end state-machine replication over the deterministic
//! simulator and the threaded runtime.

use std::time::Duration as WallDuration;

use twostep_core::Msg;
use twostep_sim::{DeliveryOrder, SimulationBuilder, TraceEvent};
use twostep_smr::{KvCommand, KvStore, SmrMsg, SmrReplica, SmrReplicaBuilder};
use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::{judge, Duration, ProcessId, SystemConfig, Time};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

type Replica = SmrReplica<KvCommand, KvStore>;

fn replica(cfg: SystemConfig, q: ProcessId) -> Replica {
    SmrReplicaBuilder::new(cfg, q).build()
}

#[test]
fn single_proxy_commands_commit_in_order() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let mut sim = SimulationBuilder::new(cfg).build(|q| replica(cfg, q));
    let cmds = [
        KvCommand::put("a", "1"),
        KvCommand::put("b", "2"),
        KvCommand::put("a", "3"),
    ];
    for (k, c) in cmds.iter().enumerate() {
        sim.schedule_propose(p(0), c.clone(), Time::from_units(k as u64 * 100));
    }
    let outcome = sim.run_until(Time::ZERO + Duration::deltas(120), |s| {
        (0..3).all(|i| s.process(p(i)).applied() >= 3)
    });
    for i in 0..3u32 {
        let r = &outcome.procs[i as usize];
        assert_eq!(r.applied(), 3, "p{i} applied prefix");
        assert_eq!(r.state().get("a"), Some("3"), "p{i}");
        assert_eq!(r.state().get("b"), Some("2"), "p{i}");
    }
    // Decide events carry the applied stream: with three commands each,
    // prefixes of one sequence are that sequence.
    assert_eq!(judge::log(&outcome.trace.decide_log(), &cmds), Ok(()));
}

#[test]
fn contending_proxies_converge_to_one_log() {
    // A failing seed is replayable alone via TWOSTEP_SEED=<seed>.
    for seed in twostep_sim::test_seeds(0..8) {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let n = cfg.n();
        let mut sim = SimulationBuilder::new(cfg)
            .delivery_order(DeliveryOrder::randomized(seed))
            .build(|q| replica(cfg, q));
        // Every replica proposes one command at roughly the same time.
        let cmds: Vec<KvCommand> = (0..n)
            .map(|i| KvCommand::put(format!("k{i}"), format!("v{i}")))
            .collect();
        for (i, c) in cmds.iter().enumerate() {
            sim.schedule_propose(p(i as u32), c.clone(), Time::from_units(i as u64 * 7));
        }
        let outcome = sim.run_until(Time::ZERO + Duration::deltas(300), |s| {
            (0..n).all(|i| s.process(p(i as u32)).applied() >= n as u64)
        });
        // All n commands committed; logs agree on the common prefix.
        let longest = outcome.procs.iter().max_by_key(|r| r.applied()).unwrap();
        assert!(
            longest.applied() >= n as u64,
            "seed {seed}: only {} commands applied",
            longest.applied()
        );
        let verdict = judge::log(&outcome.trace.decide_log(), &cmds);
        assert_eq!(verdict, Ok(()), "seed {seed}");
        // Every key present in the final state of the longest replica.
        for i in 0..n {
            assert_eq!(
                longest.state().get(&format!("k{i}")),
                Some(format!("v{i}").as_str()),
                "seed {seed}: lost command k{i}"
            );
        }
    }
}

#[test]
fn replica_crash_does_not_stop_the_log() {
    let cfg = SystemConfig::minimal_object(2, 2).unwrap(); // n = 5, f = 2
    let mut sim = SimulationBuilder::new(cfg)
        .crash_at(p(4), Time::from_units(1))
        .build(|q| replica(cfg, q));
    sim.schedule_propose(p(0), KvCommand::put("x", "1"), Time::ZERO);
    sim.schedule_propose(
        p(1),
        KvCommand::put("y", "2"),
        Time::ZERO + Duration::deltas(1),
    );
    let outcome = sim.run_until(Time::ZERO + Duration::deltas(200), |s| {
        (0..4).all(|i| s.process(p(i)).applied() >= 2)
    });
    for i in 0..4u32 {
        let r = &outcome.procs[i as usize];
        assert!(r.applied() >= 2, "p{i} applied {}", r.applied());
        assert_eq!(r.state().get("x"), Some("1"));
        assert_eq!(r.state().get("y"), Some("2"));
    }
}

#[test]
fn lost_slot_is_retried_in_fresh_slot() {
    // Two proxies race: one of them must lose a slot and re-propose; in
    // the end both commands are in the log exactly once.
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let mut sim = SimulationBuilder::new(cfg).build(|q| replica(cfg, q));
    let cmds = [KvCommand::put("a", "0"), KvCommand::put("b", "2")];
    sim.schedule_propose(p(0), cmds[0].clone(), Time::ZERO);
    sim.schedule_propose(p(2), cmds[1].clone(), Time::ZERO);
    let outcome = sim.run_until(Time::ZERO + Duration::deltas(200), |s| {
        (0..3).all(|i| s.process(p(i)).applied() >= 2)
    });
    let log = outcome.procs[0].log();
    assert!(log.len() >= 2, "both commands committed, log = {log:?}");
    // Two applied, each submitted and none twice: each exactly once.
    assert_eq!(outcome.procs[0].applied(), 2, "{log:?}");
    assert_eq!(judge::log(&outcome.trace.decide_log(), &cmds), Ok(()));
}

#[test]
fn kv_over_threaded_runtime() {
    use twostep_runtime::ClusterBuilder;

    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let cluster = ClusterBuilder::new(cfg)
        .build(|q| replica(cfg, q))
        .expect("in-memory cluster");
    cluster
        .proxy_client(p(0))
        .propose(KvCommand::put("city", "huatulco"));
    // The decide stream reports applied commands.
    let decided = cluster.await_decision(0, p(0), WallDuration::from_secs(10));
    assert_eq!(decided, Some(KvCommand::put("city", "huatulco")));
    assert!(cluster.await_decisions(0, cfg.process_ids(), WallDuration::from_secs(10)));
    assert!(cluster.agreement());
}

#[test]
fn pipelined_proxy_commits_faster_than_serial() {
    // Depth-4 pipeline: four commands proposed in one burst all sit in
    // distinct slots immediately, so all four commit within the latency
    // of roughly one consensus round instead of four.
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let run = |depth: usize| {
        let mut sim = SimulationBuilder::new(cfg).build(|q| {
            SmrReplicaBuilder::new(cfg, q)
                .pipeline(depth)
                .build::<KvCommand, KvStore>()
        });
        for i in 0..4u64 {
            sim.schedule_propose(p(0), KvCommand::put(format!("k{i}"), "v"), Time::ZERO);
        }
        let outcome = sim.run_until(Time::ZERO + Duration::deltas(200), |s| {
            s.process(p(0)).applied() >= 4
        });
        (outcome.procs[0].applied(), outcome.end_time)
    };
    let (applied_serial, t_serial) = run(1);
    let (applied_piped, t_piped) = run(4);
    assert_eq!(applied_serial, 4);
    assert_eq!(applied_piped, 4);
    assert!(
        t_piped < t_serial,
        "pipelining must shorten the burst: piped {t_piped:?} vs serial {t_serial:?}"
    );
    // The pipelined burst completes in ~one fast round (≤ 4Δ margin).
    assert!(
        t_piped <= Time::ZERO + Duration::deltas(4),
        "piped burst took {t_piped:?}"
    );
}

#[test]
fn pipelined_logs_remain_consistent_under_contention() {
    for seed in twostep_sim::test_seeds(0..6) {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let n = cfg.n();
        let mut sim = SimulationBuilder::new(cfg)
            .delivery_order(DeliveryOrder::randomized(seed))
            .build(|q| {
                SmrReplicaBuilder::new(cfg, q)
                    .pipeline(3)
                    .build::<KvCommand, KvStore>()
            });
        let mut cmds = Vec::new();
        for i in 0..n as u32 {
            for k in 0..2u64 {
                let c = KvCommand::put(format!("k{i}-{k}"), "v");
                sim.schedule_propose(p(i), c.clone(), Time::from_units(k * 50));
                cmds.push(c);
            }
        }
        let total = cmds.len() as u64;
        let outcome = sim.run_until(Time::ZERO + Duration::deltas(400), |s| {
            (0..n).all(|i| s.process(p(i as u32)).applied() >= total)
        });
        let longest = outcome.procs.iter().max_by_key(|r| r.applied()).unwrap();
        assert!(
            longest.applied() >= total,
            "seed {seed}: {}/{} applied",
            longest.applied(),
            total
        );
        // One order, and exactly once across batch boundaries.
        let verdict = judge::log(&outcome.trace.decide_log(), &cmds);
        assert_eq!(verdict, Ok(()), "seed {seed}");
    }
}

#[test]
fn pipeline_depth_accessor_and_validation() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let r: Replica = SmrReplicaBuilder::new(cfg, p(0)).pipeline(8).build();
    assert_eq!(r.pipeline_depth(), 8);
    let r = replica(cfg, p(0));
    assert_eq!(r.pipeline_depth(), 1);
}

#[test]
#[should_panic(expected = "pipeline depth")]
fn zero_pipeline_depth_rejected() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let _: Replica = SmrReplicaBuilder::new(cfg, p(0)).pipeline(0).build();
}

#[test]
fn batched_proxy_commits_all_commands() {
    // Batch 4 over a 6-command burst: commands grouped into batches and
    // applied in submission order.
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let mut sim = SimulationBuilder::new(cfg).build(|q| {
        SmrReplicaBuilder::new(cfg, q)
            .batch(4)
            .build::<KvCommand, KvStore>()
    });
    for i in 0..6u64 {
        sim.schedule_propose(
            p(0),
            KvCommand::put(format!("k{i}"), format!("{i}")),
            Time::ZERO,
        );
    }
    let outcome = sim.run_until(Time::ZERO + Duration::deltas(200), |s| {
        (0..3).all(|i| s.process(p(i)).applied() >= 6)
    });
    for i in 0..3u32 {
        let r = &outcome.procs[i as usize];
        assert_eq!(r.applied(), 6, "p{i} applied all commands");
        for k in 0..6u64 {
            assert_eq!(
                r.state().get(&format!("k{k}")),
                Some(format!("{k}").as_str())
            );
        }
    }
    // Fewer slots than commands: batching actually grouped something.
    assert!(
        outcome.procs[0].applied_slots() < 6,
        "6 commands should need fewer than 6 slots at batch size 4, used {}",
        outcome.procs[0].applied_slots()
    );
}

#[test]
fn interleaved_batched_proxies_never_reorder_own_commands() {
    // Several proxies stream keyed commands concurrently with batching
    // on; in the committed log, each client's own commands appear in
    // exactly their submission order (batching may interleave clients
    // but never reorders within one client). Pipeline depth stays 1:
    // with deeper pipelines a lost slot's re-proposal can land behind a
    // later in-flight slot, which is a pipelining property, not a
    // batching one.
    for seed in twostep_sim::test_seeds(0..6) {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let n = cfg.n();
        let per_client = 5u64;
        let mut sim = SimulationBuilder::new(cfg)
            .delivery_order(DeliveryOrder::randomized(seed))
            .build(|q| {
                SmrReplicaBuilder::new(cfg, q)
                    .batch(3)
                    .build::<KvCommand, KvStore>()
            });
        let total = per_client * n as u64;
        for i in 0..n as u32 {
            for s in 0..per_client {
                sim.schedule_propose(
                    p(i),
                    KvCommand::put(format!("c{i}-{s}"), "v"),
                    Time::from_units(s * 13 + u64::from(i)),
                );
            }
        }
        let outcome = sim.run_until(Time::ZERO + Duration::deltas(500), |s| {
            (0..n).all(|i| s.process(p(i as u32)).applied() >= total)
        });
        let longest = outcome.procs.iter().max_by_key(|r| r.applied()).unwrap();
        assert!(
            longest.applied() >= total,
            "seed {seed}: {}/{total} applied",
            longest.applied()
        );
        // Per-client order: flatten the log and check each client's
        // sequence numbers are strictly increasing.
        for r in &outcome.procs {
            let mut next: Vec<u64> = vec![0; n];
            for cmd in r.log().values().flat_map(|b| b.iter()) {
                let KvCommand::Put { key, .. } = cmd else {
                    continue;
                };
                let (c, s) = key[1..].split_once('-').expect("key shape c{i}-{s}");
                let (c, s): (usize, u64) = (c.parse().unwrap(), s.parse().unwrap());
                assert_eq!(
                    s, next[c],
                    "seed {seed}: client {c} saw {s} before {}",
                    next[c]
                );
                next[c] += 1;
            }
        }
    }
}

/// A proxy holds the `Decide` of its own commit for the next message to
/// each peer, so a follower learns a decision one frame late. In virtual
/// time: how late that is under load, and when it ends.
#[test]
fn followers_trail_a_steady_proxy_by_at_most_the_pipeline_and_catch_up_within_delta() {
    use twostep_sim::UniformDelay;
    use twostep_types::DELTA;

    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let (depth, batch) = (2, 4);
    let d = Duration::from_units(200); // Δ = 1000: beacons at 1000, 2000, …
    let mut sim = SimulationBuilder::new(cfg)
        .delay_model(UniformDelay(d))
        .build(|q| {
            SmrReplicaBuilder::new(cfg, q)
                .pipeline(depth)
                .batch(batch)
                .build::<KvCommand, KvStore>()
        });
    // Six Δ of steady load at five sixths of what the pipeline carries
    // (depth × batch commands per round trip of 2d), ...
    let mut total = 0u64;
    for t in (100..6_000).step_by(60) {
        let cmd = KvCommand::put(format!("k{total}"), "v");
        sim.schedule_propose(p(0), cmd, Time::from_units(t));
        total += 1;
    }
    // ... then a burst of one batch and one command more, which is left
    // below the threshold for the pump while the batch commits.
    for _ in 0..=batch {
        let cmd = KvCommand::put(format!("k{total}"), "v");
        sim.schedule_propose(p(0), cmd, Time::from_units(6_450));
        total += 1;
    }

    // When each replica applied each slot.
    let mut applied_at: Vec<Vec<Time>> = vec![Vec::new(); 3];
    while sim.now() < Time::from_units(12_000) && sim.step() {
        for (i, at) in applied_at.iter_mut().enumerate() {
            let slots = sim.process(p(i as u32)).applied_slots() as usize;
            at.resize(slots, sim.now());
        }
        for follower in 1..3 {
            let behind = applied_at[0].len() - applied_at[follower].len();
            assert!(
                behind <= depth,
                "p{follower} is {behind} batches behind at {:?}",
                sim.now()
            );
        }
    }

    let slots = applied_at[0].len();
    assert_eq!(sim.process(p(0)).applied(), total);
    assert!(slots as u64 * 2 < total, "the load must fill batches");
    let bound = DELTA + d; // the next beacon, and its way there
    for follower in 1..3 {
        assert_eq!(applied_at[follower].len(), slots, "p{follower} caught up");
        for (slot, (&here, &there)) in applied_at[follower].iter().zip(&applied_at[0]).enumerate() {
            assert!(
                here >= there + d,
                "slot {slot}: a follower cannot know sooner"
            );
            assert!(
                here <= there + bound,
                "slot {slot} reached p{follower} at {here:?}, the proxy at {there:?}"
            );
        }
        // The burst's batch commits with the pipeline empty and a command
        // queued: its `Decide` leaves with the next beacon, on the Δ grid.
        let (burst, last) = (slots - 2, slots - 1);
        let beacon = applied_at[0][burst].units().div_ceil(DELTA.units()) * DELTA.units();
        assert_eq!(applied_at[follower][burst], Time::from_units(beacon) + d);
        // Quiet at last, the proxy sends what it holds at once.
        assert_eq!(applied_at[follower][last], applied_at[0][last] + d);
    }
}

/// A replica that loses every `Propose` from `proxy` for the slots in
/// `lost`, and is otherwise the replica inside.
#[derive(Debug)]
struct LosesProposes {
    inner: Replica,
    proxy: ProcessId,
    lost: std::ops::Range<u64>,
}

impl Protocol<KvCommand> for LosesProposes {
    type Message = SmrMsg<KvCommand>;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, eff: &mut Effects<KvCommand, Self::Message>) {
        self.inner.on_start(eff);
    }

    fn on_propose(&mut self, cmd: KvCommand, eff: &mut Effects<KvCommand, Self::Message>) {
        self.inner.on_propose(cmd, eff);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Message,
        eff: &mut Effects<KvCommand, Self::Message>,
    ) {
        if let SmrMsg::Slot(slot, Msg::Propose(_)) = &msg {
            if from == self.proxy && self.lost.contains(slot) {
                return;
            }
        }
        self.inner.on_message(from, msg, eff);
    }

    fn on_timer(&mut self, timer: TimerId, eff: &mut Effects<KvCommand, Self::Message>) {
        self.inner.on_timer(timer, eff);
    }

    fn decision(&self) -> Option<KvCommand> {
        self.inner.decision()
    }
}

/// A follower that missed a stretch of the proxy's `Propose`s learns
/// each of those slots from a `Decided` it cannot resolve, asks with
/// `Want`, and is sent the full `Decide`. In virtual time: it ends with
/// the proxy's log, and trails the proxy by at most the held-`Decide`
/// bound (the next beacon and its way there) plus that round trip.
#[test]
fn a_follower_that_lost_a_stretch_of_proposes_catches_up_by_asking() {
    use twostep_sim::UniformDelay;
    use twostep_types::DELTA;

    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let (proxy, deaf) = (p(1), p(2));
    let lost = 4..16;
    let d = Duration::from_units(200);
    let mut sim = SimulationBuilder::new(cfg)
        .delay_model(UniformDelay(d))
        .build(|q| LosesProposes {
            inner: SmrReplicaBuilder::new(cfg, q).pipeline(2).batch(4).build(),
            proxy,
            lost: if q == deaf { lost.clone() } else { 0..0 },
        });
    let mut total = 0u64;
    for t in (100..6_000).step_by(60) {
        let cmd = KvCommand::put(format!("k{total}"), "v");
        sim.schedule_propose(proxy, cmd, Time::from_units(t));
        total += 1;
    }

    // When the proxy and the deaf follower applied each slot.
    let mut applied_at: [Vec<Time>; 2] = [Vec::new(), Vec::new()];
    while sim.now() < Time::from_units(12_000) && sim.step() {
        for (at, q) in applied_at.iter_mut().zip([proxy, deaf]) {
            let slots = sim.process(q).inner.applied_slots() as usize;
            at.resize(slots, sim.now());
        }
    }

    let slots = applied_at[0].len() as u64;
    assert!(slots > lost.end, "the stretch lies inside the run");
    for q in cfg.process_ids() {
        let r = &sim.process(q).inner;
        assert_eq!(r.applied(), total, "p{} applied", q.index());
        assert_eq!(r.log(), sim.process(proxy).inner.log());
    }
    let bound = DELTA + d + d + d; // the held bound, then `Want` and its answer
    for (slot, (&here, &there)) in applied_at[1].iter().zip(&applied_at[0]).enumerate() {
        assert!(
            here <= there + bound,
            "slot {slot} reached p2 at {here:?}, the proxy at {there:?}"
        );
    }
    // Each lost slot was asked for, and only by the follower that lost it.
    let wants: Vec<(ProcessId, ProcessId)> = sim
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::MessageSent { from, to, kind, .. } if kind == "Want" => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert!(wants.len() >= lost.clone().count(), "{} wants", wants.len());
    assert!(wants.iter().all(|&(from, _)| from == deaf));
    assert_eq!(wants[0], (deaf, proxy), "the proxy is asked first, at once");
}
