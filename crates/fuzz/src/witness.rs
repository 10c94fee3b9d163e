//! Two-step-ness witness checks.
//!
//! The untimed [`twostep_sim::ManualExecutor`] that the fuzzer drives
//! has no clock, so "decided within 2Δ" cannot be read off a fuzzed
//! run. Two-step-ness is an *existential* property anyway (Definition 4
//! quantifies over E-faulty synchronous runs), so the fuzzer checks it
//! the way the paper defines it: a timed, `e`-crash synchronous-round
//! simulation in which the favored proposer must appear in
//! [`twostep_sim::RunOutcome::fast_deciders`] (Definition 3) — i.e.
//! decide by `2Δ`. It is one witness run, not the sweep over every
//! failure set (`twostep_sim::definition_4` / `definition_a1`), so it
//! is cheap enough to run before every campaign: a refactor that
//! silently destroys the fast path fails loudly even though it cannot
//! violate safety.

use twostep_baselines::{EPaxosLite, FastPaxos};
use twostep_core::{OmegaMode, TwoStepBuilder};
use twostep_sim::{SyncOutcome, SyncRunner};
use twostep_types::protocol::Protocol;
use twostep_types::{ProcessId, ProcessSet, SystemConfig, Time};

use crate::case::FuzzProtocol;

/// The witness run: processes `p_0 … p_{e-1}` form the failure set `E`
/// and crash at the first round's start (Definition 2); the favored
/// proposer is `p_{n-1}`.
fn witness_run<P: Protocol<u64>>(
    cfg: SystemConfig,
    make: impl FnMut(ProcessId) -> P,
    proposal: Option<u64>,
) -> SyncOutcome<u64, P> {
    let favored = ProcessId::new(cfg.n() as u32 - 1);
    let faulty: ProcessSet = (0..cfg.e() as u32).map(ProcessId::new).collect();
    let runner = SyncRunner::new(cfg).crashed(faulty).favoring(favored);
    match proposal {
        None => runner.run(make),
        Some(v) => runner.run_object(make, vec![(favored, v, Time::ZERO)]),
    }
}

/// Checks that `protocol` is two-step at `cfg`: in an `e`-crash
/// synchronous run favoring one proposer, that proposer decides by
/// `2Δ`. Paxos is exempt — it is not an e-two-step protocol for any
/// `e > 0`. Fault-free, its fixed ballot-0 coordinator `p0` *does*
/// decide in two message delays (it skips phase 1), but with `E = {p0}`
/// no other process can decide by `2Δ`, because taking over requires
/// phase 1; `twostep_sim::definition_4` reports that as clause 1 failing.
pub fn two_step_witness(protocol: FuzzProtocol, cfg: SystemConfig) -> Result<(), String> {
    let favored = ProcessId::new(cfg.n() as u32 - 1);
    // A statically configured Ω keeps heartbeat traffic out of the
    // witness run; the leader never acts before 2Δ anyway.
    let omega = OmegaMode::Static(favored);
    let deciders = match protocol {
        // FastBft's fast path is e14's to measure and the replicated log's
        // commit latency the runtime's; neither is an e-two-step claim here.
        FuzzProtocol::Paxos | FuzzProtocol::FastBft(_) | FuzzProtocol::Smr => return Ok(()),
        FuzzProtocol::Task => {
            // The favored proposer carries the maximum value, so the
            // `v ≥ initial_val` vote precondition never blocks it.
            let outcome = witness_run(
                cfg,
                |p| {
                    TwoStepBuilder::new(cfg)
                        .omega(omega)
                        .task(p, u64::from(p.as_u32()))
                },
                None,
            );
            outcome.fast_deciders().0
        }
        FuzzProtocol::Object => {
            let outcome = witness_run(
                cfg,
                |p| TwoStepBuilder::new(cfg).omega(omega).object(p),
                Some(7),
            );
            outcome.fast_deciders().0
        }
        FuzzProtocol::FastPaxos => {
            // A conflict-free fast round: everyone proposes the same
            // value, so the favored learner assembles a fast quorum of
            // the n-e surviving votes by 2Δ.
            let outcome = witness_run(cfg, |p| FastPaxos::new(cfg, p, 7u64), None);
            outcome.fast_deciders().0
        }
        FuzzProtocol::EPaxos => {
            let outcome = witness_run(cfg, |p| EPaxosLite::<u64>::new(cfg, p), Some(7));
            outcome.fast_deciders().0
        }
    };
    if deciders.contains(favored) {
        Ok(())
    } else {
        Err(format!(
            "{} is not two-step at {cfg}: favored proposer {favored} did not decide by 2Δ \
             (two-step deciders: {deciders})",
            protocol.name(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_protocol_passes_its_witness_at_its_minimum() {
        for protocol in FuzzProtocol::ALL {
            for (e, f) in [(1, 1), (1, 2), (2, 2)] {
                let n = protocol.min_processes(e, f);
                let cfg = SystemConfig::new(n, e, f).unwrap();
                two_step_witness(protocol, cfg).unwrap_or_else(|err| {
                    panic!(
                        "witness failed for {} at (e={e}, f={f}): {err}",
                        protocol.name()
                    )
                });
            }
        }
    }
}
