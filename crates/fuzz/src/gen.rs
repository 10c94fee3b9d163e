//! Schedule generation.
//!
//! Uniformly random action sequences essentially never reach the
//! interesting corners of a consensus protocol: an agreement violation
//! of the (deliberately ablated) recovery tie-break needs a proposer to
//! fast-decide on one side of a vote split, both proposers to crash, and
//! a leader to recover over exactly the surviving split — a coincidence
//! with probability ~2⁻⁴⁰ under uniform sampling. The generator is
//! therefore *phase-structured*, in the spirit of the paper's §B.1
//! adversary: it picks biased roles (a fast *winner* `w`, a rival
//! *contender* `c`, a recovery leader), scatters the two rival proposals
//! across the remaining processes, returns votes to the winner, crashes
//! up to `f` processes (biased towards `w` and `c`), silences the dead
//! proposers' in-flight messages, triggers recovery at the leader and
//! drains the system — with low-probability noise (extra drops, random
//! deliveries, restarts) sprinkled throughout so the exploration is not
//! confined to the template.
//!
//! The output is still a flat, total [`Schedule`](crate::schedule::Schedule):
//! the structure only
//! biases *generation*; shrinking and replay treat the schedule as an
//! arbitrary action list.
//!
//! The sharded ([`gen_sharded`]) and Byzantine (FastBft's [`gen_case`])
//! shapes are generators of such schedules too, and nothing else: the
//! one interpreter in [`crate::case`] runs them.

use twostep_byz::{ByzBehavior, ByzPlan};
use twostep_core::Ablations;
use twostep_types::{ProcessId, SplitMix64, SystemConfig};

use crate::case::{FuzzCase, FuzzProtocol};
use crate::schedule::Action;

/// Derives the fully determined case for one fuzzing iteration from its
/// stream seed (see [`SplitMix64::stream`]): one group, and a victim
/// coalition exactly when the protocol is FastBft.
pub fn gen_case(
    protocol: FuzzProtocol,
    cfg: SystemConfig,
    ablations: Ablations,
    seed: u64,
) -> FuzzCase {
    if matches!(protocol, FuzzProtocol::FastBft(_)) {
        return gen_byzantine(protocol, cfg, seed);
    }
    let mut rng = SplitMix64::new(seed);
    let n = cfg.n() as u8;
    let f = cfg.f();

    // Roles: the fast winner, a rival contender, and a recovery leader
    // that usually survives the crash burst.
    let w = rng.below(n as u64) as u8;
    let c = loop {
        let c = rng.below(n as u64) as u8;
        if c != w {
            break c;
        }
    };
    let bystanders: Vec<u8> = (0..n).filter(|p| *p != w && *p != c).collect();
    let leader = if rng.chance(7, 8) {
        *rng.pick(&bystanders).unwrap_or(&w)
    } else {
        rng.below(n as u64) as u8
    };

    // Values: mostly the adversarial shape (winner strictly above the
    // contender, everyone else below both, so the `v ≥ initial_val` vote
    // precondition never blocks either rival), sometimes uniform.
    let values: Vec<u64> = if rng.chance(3, 4) {
        (0..n)
            .map(|p| {
                if p == w {
                    2
                } else if p == c {
                    1
                } else {
                    0
                }
            })
            .collect()
    } else {
        (0..n).map(|_| rng.below(4)).collect()
    };

    let mut acts: Vec<Action> = Vec::new();

    // Phase 0 (object-style protocols): submit the rival proposals, plus
    // occasional extra ones. No-ops for task-style protocols, where the
    // initial values are proposed at startup.
    if !protocol.task_style() {
        acts.push(Action::Propose(w, values[w as usize] as u8));
        acts.push(Action::Propose(c, values[c as usize] as u8));
        for &p in &bystanders {
            if rng.chance(1, 4) {
                acts.push(Action::Propose(p, values[p as usize] as u8));
            }
        }
    }

    // Phase 1 — scatter: each bystander receives one rival's proposal
    // first (winner-biased), splitting the fast-round vote.
    let mut order = bystanders.clone();
    rng.shuffle(&mut order);
    for &r in &order {
        let src = if rng.chance(1, 2) {
            w
        } else if rng.chance(3, 5) {
            c
        } else {
            rng.below(n as u64) as u8
        };
        acts.push(Action::DeliverFromTo(src, r));
        if rng.chance(1, 8) {
            acts.push(Action::DeliverIdx(rng.next_u64() as u16));
        }
    }
    // The contender usually votes for the winner too — the §B.1 splice's
    // double-duty move that lets the winner reach its fast quorum while
    // the contender's proposal still owns part of the split.
    if rng.chance(3, 4) {
        acts.push(Action::DeliverFromTo(w, c));
    }
    if rng.chance(1, 4) {
        acts.push(Action::DeliverFromTo(c, w));
    }

    // Phase 2 — returns: the votes travel back; the winner may now
    // fast-decide.
    acts.push(Action::DeliverAllTo(w));
    if rng.chance(1, 2) {
        acts.push(Action::DeliverAllTo(c));
    }

    // Phase 3 — crash burst: up to f processes die, biased towards the
    // two rivals; occasionally one of them comes back.
    let burst = if rng.chance(3, 4) {
        f
    } else {
        rng.below(f as u64 + 1) as usize
    };
    let mut crashed: Vec<u8> = Vec::new();
    for i in 0..burst {
        let t = match i {
            0 if rng.chance(3, 4) => w,
            1 if rng.chance(3, 4) => c,
            _ => rng.below(n as u64) as u8,
        };
        crashed.push(t);
        acts.push(Action::Crash(t));
    }
    if !crashed.is_empty() && rng.chance(1, 16) {
        acts.push(Action::Restart(*rng.pick(&crashed).unwrap()));
    }

    // Phase 4 — silence: drop the dead winner's in-flight messages
    // (its `Propose` retransmissions and, crucially, its `Decide`
    // broadcast), so the survivors must recover from votes alone.
    if rng.chance(3, 4) {
        for r in 0..n {
            if r != w {
                acts.push(Action::DropFromTo(w, r));
                acts.push(Action::DropFromTo(w, r));
            }
            if r != c && rng.chance(1, 4) {
                acts.push(Action::DropFromTo(c, r));
            }
        }
    }

    // Phase 5 — recovery: the leader's new-ballot timer fires.
    acts.push(Action::FireAllTimers(leader));

    // Phase 6 — drain: rounds of full deliveries let the slow ballot
    // (and any remaining fast-path traffic) run to completion. The
    // leader often goes last in a round so same-round replies reach it.
    let rounds = 4 + rng.below(3);
    for round in 0..rounds {
        let mut order: Vec<u8> = (0..n).collect();
        rng.shuffle(&mut order);
        if rng.chance(1, 2) {
            if let Some(pos) = order.iter().position(|p| *p == leader) {
                order.remove(pos);
                order.push(leader);
            }
        }
        for p in order {
            acts.push(Action::DeliverAllTo(p));
            if rng.chance(1, 16) {
                acts.push(Action::DropIdx(rng.next_u64() as u16));
            }
        }
        if round + 1 < rounds && rng.chance(1, 4) {
            acts.push(Action::FireAllTimers(rng.below(n as u64) as u8));
        }
    }

    FuzzCase {
        protocol,
        cfg,
        values,
        leader: ProcessId::new(u32::from(leader)),
        ablations,
        schedule: acts.into(),
        groups: 1,
        victims: ByzPlan::honest(0),
    }
}

/// Appends `rounds` rounds of "deliver everything to everyone", each in
/// a seeded process order.
fn drain(rng: &mut SplitMix64, acts: &mut Vec<Action>, n: u8, rounds: usize) {
    for _ in 0..rounds {
        let mut order: Vec<u8> = (0..n).collect();
        rng.shuffle(&mut order);
        acts.extend(order.into_iter().map(Action::DeliverAllTo));
    }
}

/// The sharded campaign's case: `groups` object-consensus groups on the
/// same `n` nodes, group `s` led by node `s mod n` as the runtime's
/// rotation assigns it. The failure model is *correlated* — a node
/// crash removes one replica from every group at once, and the crashed
/// node leads at least one of them — which no one-group case can
/// express. Load goes in first (1–3 proposals per shard, concurrent
/// proposers being the interesting case), seeded deliveries put commits
/// in flight, the leader node of a seeded shard crashes — three times in
/// four taking its undelivered mail with it, the `Decide` a recovery
/// then has to do without — deliveries and timer fires (retry and
/// recovery paths) continue while it is down, it restarts with its
/// state intact and the system drains: everything delivered, every
/// timer fired once (only a retry replaces lost mail), everything
/// delivered again.
///
/// # Panics
///
/// Panics unless `1 <= groups <= 256` (a proposal names its shard in
/// one byte).
pub fn gen_sharded(groups: usize, cfg: SystemConfig, ablations: Ablations, seed: u64) -> FuzzCase {
    assert!((1..=256).contains(&groups), "1..=256 shards, got {groups}");
    let mut rng = SplitMix64::new(seed);
    let (n, k) = (cfg.n() as u64, groups as u64);
    let mut acts: Vec<Action> = Vec::new();

    for s in 0..k {
        for _ in 0..1 + rng.below(3) {
            let proposer = rng.below(n) as u8;
            // A payload the interpreter routes to shard `s`: v ≡ s (mod k).
            let v = s + k * rng.below((255 - s) / k + 1);
            acts.push(Action::Propose(proposer, v as u8));
        }
    }
    let deliver = |rng: &mut SplitMix64, acts: &mut Vec<Action>| {
        acts.push(if rng.chance(1, 2) {
            Action::DeliverAllTo(rng.below(n) as u8)
        } else {
            Action::DeliverIdx(rng.next_u64() as u16)
        });
    };
    for _ in 0..4 + rng.below(10) {
        deliver(&mut rng, &mut acts);
    }
    let down = (rng.below(k) % n) as u8;
    acts.push(Action::Crash(down));
    if rng.chance(3, 4) {
        // Oldest first, group by group: `k + 1` drops per recipient
        // cover a `Propose` in every group and one message more.
        for r in (0..n as u8).filter(|r| *r != down) {
            acts.extend((0..=k).map(|_| Action::DropFromTo(down, r)));
        }
    }
    for _ in 0..4 + rng.below(10) {
        deliver(&mut rng, &mut acts);
        if rng.chance(1, 3) {
            acts.push(Action::FireAllTimers(rng.below(n) as u8));
        }
    }
    acts.push(Action::Restart(down));
    drain(&mut rng, &mut acts, n as u8, 4);
    acts.extend((0..n as u8).map(Action::FireAllTimers));
    drain(&mut rng, &mut acts, n as u8, 6);

    FuzzCase {
        protocol: FuzzProtocol::Object,
        cfg,
        values: vec![0; cfg.n()],
        leader: ProcessId::new(0),
        ablations,
        schedule: acts.into(),
        groups,
        victims: ByzPlan::honest(0),
    }
}

/// The Byzantine campaign's case. A seeded coalition of 1..=f distinct
/// victims each draws one of the four [`ByzBehavior::MALICIOUS`]
/// behaviors; process 0 — the ballot-0 coordinator and first Ω leader —
/// is never among them: without signatures a Byzantine *coordinator*
/// can fabricate the fast proposal itself, which no quorum arithmetic
/// detects (the unsigned-BFT caveat in `twostep-baselines::fab`), so
/// victims come from the acceptor/recovery roles whose misbehavior the
/// quorums are sized to absorb. Pending messages are then delivered in
/// seeded order with seeded timer fires (heartbeats, suspicion, ballot
/// retries) interleaved, so view changes run with the coalition's
/// corruption in flight and forged `Promise`s reach real recovery
/// quorums. Retries regenerate messages forever, so the drain cannot
/// wait for quiescence: each process in turn fires all its timers
/// twice — suspecting everyone, it leads a ballot of its own — and the
/// system delivers everything, which carries every honest process to a
/// decision.
fn gen_byzantine(protocol: FuzzProtocol, cfg: SystemConfig, seed: u64) -> FuzzCase {
    let mut rng = SplitMix64::new(seed);
    let n = cfg.n();

    let count = 1 + rng.below(cfg.f() as u64) as usize;
    let mut coalition: Vec<ProcessId> = Vec::new();
    while coalition.len() < count {
        let v = ProcessId::new(1 + rng.below(n as u64 - 1) as u32);
        if !coalition.contains(&v) {
            coalition.push(v);
        }
    }
    let mut victims = ByzPlan::honest(seed);
    for v in coalition {
        let malicious = ByzBehavior::MALICIOUS;
        victims = victims.with(v, malicious[rng.below(malicious.len() as u64) as usize]);
    }
    // Initial values stay far below the forgery bit pattern, so a
    // decided forgery is both outside the pool and visibly corrupt.
    let values: Vec<u64> = (0..n).map(|_| 1 + rng.below(999)).collect();

    let mut acts: Vec<Action> = Vec::new();
    for _ in 0..4 * n * n {
        acts.push(Action::DeliverIdx(rng.next_u64() as u16));
        if rng.chance(1, 10) {
            acts.push(Action::FireTimer(
                rng.below(n as u64) as u8,
                rng.next_u64() as u16,
            ));
        }
    }
    drain(&mut rng, &mut acts, n as u8, 3);
    for p in (0..n as u8).chain(0..n as u8) {
        acts.extend([Action::FireAllTimers(p), Action::FireAllTimers(p)]);
        drain(&mut rng, &mut acts, n as u8, 4);
    }

    FuzzCase {
        protocol,
        cfg,
        values,
        leader: ProcessId::new(0),
        ablations: Ablations::NONE,
        schedule: acts.into(),
        groups: 1,
        victims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_types::ByzVariant;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SystemConfig::new(6, 2, 2).unwrap();
        let a = gen_case(FuzzProtocol::Task, cfg, Ablations::NONE, 123);
        let b = gen_case(FuzzProtocol::Task, cfg, Ablations::NONE, 123);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.values, b.values);
        assert_eq!(a.leader, b.leader);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let cfg = SystemConfig::new(6, 2, 2).unwrap();
        let a = gen_case(FuzzProtocol::Task, cfg, Ablations::NONE, 1);
        let b = gen_case(FuzzProtocol::Task, cfg, Ablations::NONE, 2);
        assert_ne!((a.schedule, a.values), (b.schedule, b.values));
    }

    #[test]
    fn object_cases_contain_proposals() {
        let cfg = SystemConfig::new(5, 2, 2).unwrap();
        let case = gen_case(FuzzProtocol::Object, cfg, Ablations::NONE, 9);
        assert!(case
            .schedule
            .actions
            .iter()
            .any(|a| matches!(a, Action::Propose(..))));
    }

    #[test]
    fn the_sharded_and_byzantine_shapes_are_deterministic() {
        let sharded = |seed| {
            let cfg = SystemConfig::new(3, 1, 1).unwrap();
            gen_sharded(4, cfg, Ablations::NONE, seed)
        };
        let byzantine = |seed| {
            let cfg = SystemConfig::new(6, 1, 1).unwrap();
            gen_case(
                FuzzProtocol::FastBft(ByzVariant::Fab),
                cfg,
                Ablations::NONE,
                seed,
            )
        };
        let gens: [&dyn Fn(u64) -> FuzzCase; 2] = [&sharded, &byzantine];
        for gen in gens {
            let (a, b) = (gen(11), gen(11));
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.values, b.values);
            let victims = |c: &FuzzCase| c.victims.byzantine().collect::<Vec<_>>();
            assert_eq!(victims(&a), victims(&b));
            assert_ne!(a.schedule, gen(12).schedule);
        }
    }

    #[test]
    fn sharded_load_reaches_every_shard() {
        let cfg = SystemConfig::new(3, 1, 1).unwrap();
        for (groups, seed) in [(2, 1), (4, 2), (7, 3), (256, 4)] {
            let case = gen_sharded(groups, cfg, Ablations::NONE, seed);
            let mut hit = vec![false; groups];
            for a in &case.schedule.actions {
                if let Action::Propose(_, v) = a {
                    hit[usize::from(*v) % groups] = true;
                }
            }
            assert!(hit.iter().all(|h| *h), "{groups} shards, seed {seed}");
        }
    }

    #[test]
    fn process_zero_is_never_a_victim() {
        let cfg = SystemConfig::new(9, 2, 2).unwrap();
        let tight = FuzzProtocol::FastBft(ByzVariant::Tight);
        for seed in 0..200 {
            let victims = gen_case(tight, cfg, Ablations::NONE, seed).victims;
            assert!((1..=2).contains(&victims.byzantine_count()), "seed {seed}");
            assert!(
                victims.behavior_of(ProcessId::new(0)).is_honest(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn task_cases_contain_no_proposals() {
        let cfg = SystemConfig::new(6, 2, 2).unwrap();
        for seed in 0..20 {
            let case = gen_case(FuzzProtocol::Task, cfg, Ablations::NONE, seed);
            assert!(!case
                .schedule
                .actions
                .iter()
                .any(|a| matches!(a, Action::Propose(..))));
        }
    }
}
