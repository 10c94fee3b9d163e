//! Microbench: the recovery value-selection rule (Figure 1 lines
//! 43–63) — the paper's central algorithmic contribution — across
//! quorum sizes and report shapes.

use criterion::{criterion_group, criterion_main, Criterion};

use twostep_core::recovery::{select_value, Report};
use twostep_core::Ablations;
use twostep_types::quorum::Collector;
use twostep_types::{Ballot, ProcessId, SystemConfig};

/// Builds an n-f-report quorum where `v_votes` processes voted for 100
/// (proposed by the last process) and the rest split on rivals.
fn reports(cfg: &SystemConfig, v_votes: usize) -> Collector<Report<u64>> {
    let mut c = Collector::new();
    let proposer = ProcessId::new((cfg.n() - 1) as u32);
    for i in 0..cfg.slow_quorum().size() as u32 {
        let r = if (i as usize) < v_votes {
            Report::fast_vote(100u64, proposer)
        } else if i % 2 == 0 {
            Report::fast_vote(50, ProcessId::new((cfg.n() - 2) as u32))
        } else {
            Report::empty()
        };
        c.insert(ProcessId::new(i), r);
    }
    c
}

fn bench_recovery(c: &mut Criterion) {
    for (e, f) in [(1usize, 1usize), (2, 2), (3, 3), (5, 5)] {
        let cfg = SystemConfig::minimal_task(e, f).unwrap();
        let quorum = reports(&cfg, cfg.recovery_threshold().size() + 1);
        c.bench_function(&format!("recovery/select_e{e}_f{f}_n{}", cfg.n()), |b| {
            b.iter(|| {
                std::hint::black_box(select_value(
                    &cfg,
                    &quorum,
                    Some(&1u64),
                    None,
                    Ablations::NONE,
                ))
            })
        });
    }

    // Shape variants at one config.
    let cfg = SystemConfig::minimal_task(3, 3).unwrap();
    let decided_case = {
        let mut c2 = reports(&cfg, 2);
        // Overwrite one report with a decided value... Collector is
        // first-write-wins, so build fresh.
        let mut fresh = Collector::new();
        for (i, (q, r)) in c2.iter().enumerate() {
            let r = if i == 0 {
                Report {
                    decided: Some(7u64),
                    ..r.clone()
                }
            } else {
                r.clone()
            };
            fresh.insert(q, r);
        }
        c2 = fresh;
        c2
    };
    c.bench_function("recovery/short_circuit_on_decided", |b| {
        b.iter(|| {
            std::hint::black_box(select_value(
                &cfg,
                &decided_case,
                None,
                None,
                Ablations::NONE,
            ))
        })
    });

    let slow_vote_case = {
        let mut fresh = Collector::new();
        for i in 0..cfg.slow_quorum().size() as u32 {
            fresh.insert(
                ProcessId::new(i),
                Report {
                    vbal: Ballot::new(u64::from(i) + 1),
                    val: Some(u64::from(i)),
                    proposer: Some(ProcessId::new(0)),
                    decided: None,
                },
            );
        }
        fresh
    };
    c.bench_function("recovery/highest_slow_ballot", |b| {
        b.iter(|| {
            std::hint::black_box(select_value(
                &cfg,
                &slow_vote_case,
                None,
                None,
                Ablations::NONE,
            ))
        })
    });
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
