//! The fingerprint rule, for every `Protocol` in the workspace.
//!
//! The model checker keys a process by
//! `Protocol::state_fingerprint_relabeled`, and the rule it relies on is
//! that a fingerprint never declines the identity. So for each protocol,
//! in each Ω mode it runs in: the identity fingerprint is `Some`, equals
//! that of a clone (or of a twin built the same way, where the type is
//! not `Clone`), and moves after a step that changes the state.

use twostep::baselines::fastpaxos::FastPaxosMsg;
use twostep::baselines::{EPaxosLite, FastBft, FastPaxos, Paxos};
use twostep::byz::{ByzBehavior, ByzProtocol};
use twostep::core::{Msg, OmegaMode, TwoStepBuilder};
use twostep::smr::{Counter, SmrReplica, SmrReplicaBuilder};
use twostep::types::protocol::{Effects, Protocol, TimerId};
use twostep::types::relabel::Relabeling;
use twostep::types::{ByzConfig, ByzVariant, ProcessId, SystemConfig, Value};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn fingerprint<V: Value, P: Protocol<V>>(what: &str, n: usize, proc: &P) -> u64 {
    proc.state_fingerprint_relabeled(&Relabeling::identity(n))
        .unwrap_or_else(|| panic!("{what}: the identity fingerprint was declined"))
}

/// Checks the rule on `proc` and its `twin`, with `step` a step that
/// changes `proc`'s state.
fn holds<V: Value, P: Protocol<V>>(
    what: &str,
    n: usize,
    mut proc: P,
    twin: P,
    step: impl FnOnce(&mut P, &mut Effects<V, P::Message>),
) {
    let before = fingerprint(what, n, &proc);
    assert_eq!(before, fingerprint(what, n, &twin), "{what}: twin differs");
    step(&mut proc, &mut Effects::new());
    assert_ne!(
        before,
        fingerprint(what, n, &proc),
        "{what}: a state-changing step kept the fingerprint"
    );
}

#[test]
fn two_step_task_and_object_in_both_omega_modes() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    for mode in [OmegaMode::Static(p(0)), OmegaMode::Heartbeats] {
        let builder = TwoStepBuilder::new(cfg).omega(mode);
        let task = builder.task(p(0), 7u64);
        holds(
            &format!("task {mode:?}"),
            cfg.n(),
            task.clone(),
            task,
            |t, eff| t.on_start(eff),
        );
        let object = builder.object::<u64>(p(1));
        holds(
            &format!("object {mode:?}"),
            cfg.n(),
            object.clone(),
            object,
            |o, eff| o.on_propose(7, eff),
        );
    }
}

#[test]
fn fast_bft_pinned_and_heartbeat() {
    let byz = ByzConfig::minimal_fast(ByzVariant::Fab, 1).unwrap();
    let pinned = FastBft::new(byz, p(0), 7u64).pinned_leader(p(0));
    holds(
        "FastBft pinned",
        byz.n(),
        pinned.clone(),
        pinned,
        |b, eff| b.on_start(eff),
    );
    let heartbeat = FastBft::new(byz, p(0), 7u64);
    holds(
        "FastBft heartbeat",
        byz.n(),
        heartbeat.clone(),
        heartbeat,
        |b, eff| b.on_start(eff),
    );
}

#[test]
fn the_crash_baselines() {
    let cfg = SystemConfig::new(3, 1, 1).unwrap();
    let paxos = Paxos::new(cfg, p(0), 7u64);
    holds("Paxos", cfg.n(), paxos.clone(), paxos, |x, eff| {
        x.on_start(eff)
    });

    let cfg = SystemConfig::minimal_fast_paxos(1, 1).unwrap();
    let fast_paxos = FastPaxos::new(cfg, p(1), 7u64);
    holds(
        "FastPaxos",
        cfg.n(),
        fast_paxos.clone(),
        fast_paxos,
        |x, eff| x.on_message(p(0), FastPaxosMsg::Propose(9), eff),
    );

    let cfg = SystemConfig::new(3, 1, 1).unwrap();
    let epaxos = EPaxosLite::<u64>::new(cfg, p(0));
    holds("EPaxosLite", cfg.n(), epaxos.clone(), epaxos, |x, eff| {
        x.on_propose(7, eff)
    });
}

#[test]
fn the_smr_replica_and_the_byzantine_wrapper() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let replica = || -> SmrReplica<u64, Counter> { SmrReplicaBuilder::new(cfg, p(1)).build() };
    holds("SmrReplica", cfg.n(), replica(), replica(), |r, eff| {
        r.on_propose(7, eff)
    });

    let byz = ByzConfig::minimal_fast(ByzVariant::Fab, 1).unwrap();
    let wrapped = || {
        ByzProtocol::new(
            FastBft::new(byz, p(0), 7u64).pinned_leader(p(0)),
            ByzBehavior::Equivocate,
            42,
        )
    };
    holds("ByzProtocol", byz.n(), wrapped(), wrapped(), |w, eff| {
        w.on_start(eff)
    });
}

/// In heartbeat mode, who a process has heard from since the last sweep
/// decides whom the next sweep suspects. Two states that differ only
/// there elect different leaders, so their fingerprints must differ, or
/// a check that fires `SUSPECT` merges them.
#[test]
fn heartbeat_two_step_fingerprints_what_the_next_sweep_reads() {
    let cfg = SystemConfig::minimal_task(1, 1).unwrap();
    let mut silent = TwoStepBuilder::new(cfg).task(p(2), 7u64);
    let mut heard = silent.clone();
    heard.on_message(p(0), Msg::Heartbeat, &mut Effects::new());
    assert_ne!(
        fingerprint("silent", cfg.n(), &silent),
        fingerprint("heard", cfg.n(), &heard),
        "a heartbeat from p0 left the fingerprint unchanged"
    );

    for proc in [&mut silent, &mut heard] {
        proc.on_timer(TimerId::SUSPECT, &mut Effects::new());
    }
    assert_eq!(silent.omega().leader(), p(2), "nobody heard: p2 leads");
    assert_eq!(heard.omega().leader(), p(0), "p0 heard: p0 leads");
}
