//! Leader-election pins: every protocol that runs the heartbeat Ω.
//!
//! Each test runs one seeded heartbeat-mode simulation at the
//! protocol's minimal `n` for `e = f = 1`, in which `p0` — everyone's
//! first leader — crashes at 4Δ and restarts at 20Δ, and records every
//! `leader_changed(process, leader)` observer event with the virtual
//! time it happened at. A sweep on another cadence or with another
//! rule, a beacon that stops reaching a peer, or a change reported by
//! the wrong process or in another order moves these sequences. A
//! refactor of the failure detector that leaves the constants alone has
//! kept every election where it was.

use std::sync::{Arc, Mutex};

use twostep::baselines::{FastBft, FastPaxos, Paxos};
use twostep::core::TwoStepBuilder;
use twostep::sim::{DeliveryOrder, RandomDelay, Simulation, SimulationBuilder};
use twostep::smr::{Counter, SmrReplica, SmrReplicaBuilder};
use twostep::telemetry::{ObserverHandle, ProtocolObserver};
use twostep::types::protocol::Protocol;
use twostep::types::{ByzConfig, ByzVariant, Duration, ProcessId, SystemConfig, Time, Value};

const SEED: u64 = 7;

/// `(virtual time in units, process, new leader)`; Δ is 1000 units.
type Election = (u64, u32, u32);

#[derive(Debug, Default)]
struct Elections(Mutex<Vec<(u32, u32)>>);

impl ProtocolObserver for Elections {
    fn leader_changed(&self, process: ProcessId, leader: ProcessId) {
        self.0
            .lock()
            .unwrap()
            .push((process.as_u32(), leader.as_u32()));
    }
}

fn at(deltas: u64) -> Time {
    Time::ZERO + Duration::deltas(deltas)
}

/// Builds the cluster with `make`, lets `setup` schedule proposals, and
/// runs it to 40Δ with `p0` down over `[4Δ, 20Δ)`.
fn elections<V, P>(
    cfg: SystemConfig,
    mut make: impl FnMut(ProcessId, ObserverHandle) -> P,
    setup: impl FnOnce(&mut Simulation<V, P>),
) -> Vec<Election>
where
    V: Value,
    P: Protocol<V>,
{
    let log = Arc::new(Elections::default());
    let obs = ObserverHandle::from(Arc::clone(&log));
    let mut sim = SimulationBuilder::new(cfg)
        .delay_model(RandomDelay::sub_delta(SEED))
        .delivery_order(DeliveryOrder::randomized(SEED))
        .crash_at(ProcessId::new(0), at(4))
        .restart_at(ProcessId::new(0), at(20))
        .build(|q| make(q, obs.clone()));
    setup(&mut sim);
    let mut timed = Vec::new();
    sim.run_until(at(40), |sim| {
        let log = log.0.lock().unwrap();
        for &(p, l) in &log[timed.len()..] {
            timed.push((sim.now().units(), p, l));
        }
        false
    });
    timed
}

#[test]
fn two_step_task_elections_are_pinned() {
    let cfg = SystemConfig::minimal_task(1, 1).unwrap();
    let got = elections(
        cfg,
        |q, obs| {
            TwoStepBuilder::new(cfg)
                .observed(obs)
                .task(q, u64::from(q.as_u32()))
        },
        |_| {},
    );
    assert_eq!(got, TWO_STEP, "{got:?}");
}

#[test]
fn paxos_elections_are_pinned() {
    let cfg = SystemConfig::new(3, 1, 1).unwrap();
    let got = elections(
        cfg,
        |q, obs| Paxos::new(cfg, q, u64::from(q.as_u32())).observed(obs),
        |_| {},
    );
    assert_eq!(got, PAXOS, "{got:?}");
}

#[test]
fn fast_paxos_elections_are_pinned() {
    let cfg = SystemConfig::minimal_fast_paxos(1, 1).unwrap();
    let got = elections(
        cfg,
        |q, obs| FastPaxos::new(cfg, q, u64::from(q.as_u32())).observed(obs),
        |_| {},
    );
    assert_eq!(got, FAST_PAXOS, "{got:?}");
}

#[test]
fn fast_bft_heartbeat_elections_are_pinned() {
    let byz = ByzConfig::minimal_fast(ByzVariant::Fab, 1).unwrap();
    let cfg = SystemConfig::new(byz.n(), 1, 1).unwrap();
    let got = elections(
        cfg,
        |q, obs| FastBft::new(byz, q, u64::from(q.as_u32())).observed(obs),
        |_| {},
    );
    assert_eq!(got, FAST_BFT, "{got:?}");
}

#[test]
fn smr_replica_elections_are_pinned() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let got = elections(
        cfg,
        |q, obs| -> SmrReplica<u64, Counter> {
            SmrReplicaBuilder::new(cfg, q).observed(obs).build()
        },
        |sim| {
            // One command before the crash, one while p0 is down and one
            // after it is back, so live instances take the leader hint.
            sim.schedule_propose(ProcessId::new(1), 1, at(2));
            sim.schedule_propose(ProcessId::new(2), 2, at(12));
            sim.schedule_propose(ProcessId::new(0), 3, at(30));
        },
    );
    assert_eq!(got, SMR, "{got:?}");
}

// The survivors suspect p0 at the first sweep that saw nothing from it
// (9Δ) and take it back at the first sweep after its beacons resume
// (24Δ). p0 itself never changes its mind: it sweeps nothing while
// down, and its first sweep after the restart hears everyone.
const TWO_STEP: [Election; 4] = [(9000, 1, 1), (9000, 2, 1), (24000, 1, 0), (24000, 2, 0)];
const PAXOS: [Election; 4] = [(9000, 1, 1), (9000, 2, 1), (24000, 1, 0), (24000, 2, 0)];
const FAST_PAXOS: [Election; 6] = [
    (9000, 1, 1),
    (9000, 2, 1),
    (9000, 3, 1),
    (24000, 1, 0),
    (24000, 2, 0),
    (24000, 3, 0),
];
const FAST_BFT: [Election; 10] = [
    (9000, 1, 1),
    (9000, 2, 1),
    (9000, 3, 1),
    (9000, 4, 1),
    (9000, 5, 1),
    (24000, 1, 0),
    (24000, 2, 0),
    (24000, 3, 0),
    (24000, 4, 0),
    (24000, 5, 0),
];
const SMR: [Election; 4] = [(9000, 1, 1), (9000, 2, 1), (24000, 1, 0), (24000, 2, 0)];
