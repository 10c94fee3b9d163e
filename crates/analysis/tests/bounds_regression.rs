//! Pinned regressions for the bound sweeps: the real arithmetic is
//! certified clean over the whole small-model space, the bounds are
//! tight (a concrete counterexample exists one process below each
//! bound), the seeded-broken fixtures reliably turn the gate red, and
//! every report keeps its bytes.

use twostep_analysis::bounds::crash::tightness_witness;
use twostep_analysis::bounds::{
    sweep, ExecutionRecord, Family, Fixture, Point, WitnessKind, DEFAULT_MAX_N,
};
use twostep_types::ProtocolKind;

/// Theorems 5–6 as a regression: every `(n, e, f)` with `n ≤ 25`
/// satisfies every obligation under the real quorum arithmetic, and
/// every below-bound `n` yields a constructible witness (witness
/// construction failures surface as violations).
#[test]
fn full_default_sweep_is_clean_and_fully_witnessed() {
    let outcome = sweep(Family::Crash, DEFAULT_MAX_N, None);
    assert_eq!(outcome.model, "real");
    // 650 = #{(n, e, f) : 3 ≤ n ≤ 25, 1 ≤ f ≤ (n-1)/2, 1 ≤ e ≤ f,
    // n ≥ 2f+1} — pinned so a silent shrink of the swept space fails.
    assert_eq!(outcome.configs_checked, 650);
    assert!(
        outcome.violations.is_empty(),
        "real arithmetic violated an obligation: {:?}",
        outcome.violations.first()
    );
    assert!(!outcome.witnesses.is_empty());
    for w in &outcome.witnesses {
        assert!(
            w.point.n() < w.bound,
            "witness at {:?} not below the {:?} bound {}",
            w.point,
            w.protocol,
            w.bound
        );
        assert!(!w.sets.is_empty(), "witness without concrete sets: {w:?}");
    }
}

/// Tightness: for every protocol family and every `(e, f)` whose bound
/// fits in the sweep, a witness exists at exactly `bound - 1`.
#[test]
fn every_bound_has_a_witness_one_process_below() {
    for protocol in [
        ProtocolKind::Paxos,
        ProtocolKind::FastPaxos,
        ProtocolKind::TaskTwoStep,
        ProtocolKind::ObjectTwoStep,
    ] {
        for f in 1..=8usize {
            for e in 1..=f {
                let bound = protocol.min_processes(e, f);
                let n = bound - 1;
                if bound > DEFAULT_MAX_N || n < f + 1 {
                    continue;
                }
                let w = tightness_witness(protocol, n, e, f).unwrap_or_else(|err| {
                    panic!("no witness at {protocol} n={n} e={e} f={f}: {err}")
                });
                let point = Point::Crash { n, e, f };
                assert_eq!(
                    (w.protocol, w.point, w.bound),
                    (Some(protocol), point, bound)
                );
            }
        }
    }
}

/// The executable witness kinds really do drive the production
/// recovery rule into disagreeing with a fast decision.
#[test]
fn executable_witnesses_overturn_fast_decisions() {
    let outcome = sweep(Family::Crash, DEFAULT_MAX_N, None);
    let mut task_executed = 0;
    let mut object_executed = 0;
    for w in &outcome.witnesses {
        let overturned = matches!(
            w.executed,
            Some(ExecutionRecord::Recovery { fast_decided, recovery_selected })
                if fast_decided != recovery_selected
        );
        match w.kind {
            WitnessKind::TaskRivalOvertake => {
                assert!(overturned, "witness failed to overturn at {w:?}");
                task_executed += 1;
            }
            WitnessKind::ObjectGtAmbiguity => {
                assert!(overturned, "witness failed to overturn at {w:?}");
                object_executed += 1;
            }
            WitnessKind::DisjointSlowQuorums | WitnessKind::FastQuorumAmbiguity => {
                assert!(w.executed.is_none(), "structural witness claims execution");
            }
            WitnessKind::FastPathVacant => panic!("Byzantine witness in the crash sweep: {w:?}"),
        }
    }
    assert!(task_executed > 0, "no task-region witnesses in the sweep");
    assert!(
        object_executed > 0,
        "no object-region witnesses in the sweep"
    );
}

/// Guarding the gate itself: every seeded-broken fixture must be
/// caught by an obligation that names the break, and must leave the
/// other family's arithmetic real.
#[test]
fn seeded_fixtures_always_turn_the_sweep_red() {
    for fx in Fixture::ALL {
        let outcome = sweep(fx.family(), 12, Some(fx));
        assert_eq!(outcome.model, fx.name());
        assert!(
            !outcome.is_clean(),
            "fixture {} slipped past the checker",
            fx.name()
        );
        // The break is visibility-shaped in both crash fixtures (O3).
        // Crash-sized Byzantine fast quorums lose max-count recovery
        // (B6) at every FaB configuration and report live fast paths
        // below the bound (B4).
        let names_the_break: &[&str] = match fx.family() {
            Family::Crash => &["O3-fast-slow-visibility"],
            Family::Byzantine => &["B6-maxcount-recovery", "B4-fast-availability"],
        };
        let fired: std::collections::BTreeSet<_> =
            outcome.violations.iter().map(|v| v.obligation).collect();
        for obligation in names_the_break {
            assert!(
                fired.contains(obligation),
                "fixture {} tripped only {fired:?}",
                fx.name()
            );
        }
        assert!(outcome.witnesses.is_empty(), "fixtures skip witnesses");
        for other in Family::ALL.into_iter().filter(|f| *f != fx.family()) {
            let outcome = sweep(other, 12, Some(fx));
            assert_eq!(outcome.model, "real");
            assert!(outcome.is_clean(), "{} leaked into {other:?}", fx.name());
        }
    }
}

/// FNV-1a, spelled out so the pinned constants do not depend on the
/// standard library's hasher.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Both sweeps' full reports, real and seeded-broken, as digests: a
/// refactor of the checker that leaves these constants alone has kept
/// every obligation, witness, message and JSON field byte for byte.
#[test]
fn sweep_reports_keep_their_digests() {
    let crash = sweep(Family::Crash, DEFAULT_MAX_N, None);
    let byz = sweep(Family::Byzantine, DEFAULT_MAX_N, None);
    // (configs checked, tightness witnesses, witnesses executed)
    let crash_executed = crash.witnesses.iter().filter(|w| w.executed.is_some());
    let crash_counts = (
        crash.configs_checked,
        crash.witnesses.len(),
        crash_executed.count(),
    );
    assert_eq!(crash_counts, (650, 8128, 192));
    let byz_executed = byz.witnesses.iter().filter(|w| w.executed.is_some());
    let byz_counts = (
        byz.configs_checked,
        byz.witnesses.len(),
        byz_executed.count(),
    );
    assert_eq!(byz_counts, (184, 74, 74));
    let real = [fnv1a(&crash.to_json()), fnv1a(&byz.to_json())];
    assert_eq!(
        real,
        [0x8cb4_185f_2129_4d56, 0xef35_ab67_bd67_49c0],
        "a real sweep report changed: {real:#x?}"
    );
    let broken =
        Fixture::ALL.map(|fx| fnv1a(&sweep(fx.family(), DEFAULT_MAX_N, Some(fx)).to_json()));
    assert_eq!(
        broken,
        [
            0xf072_2338_771e_7740,
            0xa58b_99f3_bc7f_068b,
            0xc9ba_4cf4_865e_5d51,
        ],
        "a seeded-broken sweep report changed: {broken:#x?}"
    );
}

/// The machine-readable output holds the whole outcome: counts in the
/// JSON match the in-memory sweep.
#[test]
fn json_report_carries_violations_and_witnesses() {
    let clean = sweep(Family::Crash, 9, None);
    let json = clean.to_json();
    assert!(json.contains("\"model\":\"real\""));
    assert!(json.contains("\"violations\":[]"));
    assert_eq!(
        json.matches("\"kind\":").count(),
        clean.witnesses.len(),
        "every witness serialized"
    );

    let broken = sweep(Family::Crash, 9, Some(Fixture::BrokenFastQuorum));
    let json = broken.to_json();
    assert_eq!(
        json.matches("\"obligation\":").count(),
        broken.violations.len(),
        "every violation serialized"
    );
}
