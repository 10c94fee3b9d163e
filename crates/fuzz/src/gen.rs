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

use twostep_core::Ablations;
use twostep_types::{ProcessId, SplitMix64, SystemConfig};

use crate::case::{FuzzCase, FuzzProtocol};
use crate::schedule::Action;

/// Derives the fully determined case for one fuzzing iteration from its
/// stream seed (see [`SplitMix64::stream`]).
pub fn gen_case(
    protocol: FuzzProtocol,
    cfg: SystemConfig,
    ablations: Ablations,
    seed: u64,
) -> FuzzCase {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
