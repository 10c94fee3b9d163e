//! Digest pin for the flat (one group, crash-model) campaigns.
//!
//! The schedule interpreter decodes every operand against what the
//! executor currently offers, so a change to the decode — or to the
//! generator's draw order — silently changes which run a printed
//! `--replay` line, a corpus schedule or a `(seed, iteration)` pair
//! names. This test hashes, for seven campaigns, every iteration's
//! generated schedule and what running it produced; a refactor of the
//! interpreter that leaves the constants alone has kept every existing
//! schedule meaning the same run.

use twostep_core::Ablations;
use twostep_fuzz::{gen_case, run_case, FuzzProtocol};
use twostep_types::{SplitMix64, SystemConfig};

/// FNV-1a, spelled out so the pinned constants do not depend on the
/// standard library's hasher.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes `(schedule, decide_log, alive)` of iterations `0..300` of the
/// seed-42 campaign.
fn campaign_digest(protocol: FuzzProtocol, cfg: SystemConfig) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for i in 0..300 {
        let case = gen_case(protocol, cfg, Ablations::NONE, SplitMix64::stream(42, i));
        let report = run_case(&case);
        h.eat(case.schedule.to_string().as_bytes());
        for &(p, v) in &report.decide_log {
            h.eat(&p.as_u32().to_le_bytes());
            h.eat(&v.to_le_bytes());
        }
        h.eat(&report.alive.bits().to_le_bytes());
    }
    h.0
}

#[test]
fn flat_campaigns_keep_their_digests() {
    let at = |protocol: FuzzProtocol, e, f| {
        SystemConfig::new(protocol.min_processes(e, f), e, f).expect("minimal configuration")
    };
    let minimum: Vec<u64> = FuzzProtocol::ALL
        .into_iter()
        .map(|p| campaign_digest(p, at(p, 1, 1)))
        .collect();
    let tiebreak_prone =
        [FuzzProtocol::Task, FuzzProtocol::Object].map(|p| campaign_digest(p, at(p, 2, 2)));
    assert_eq!(
        minimum,
        [
            0xd1f5_0a25_0a0e_fb48,
            0x34ae_bcaf_1f20_68a5,
            0x1a65_4829_5b2e_7432,
            0x2383_53b7_9b9f_ae11,
            0x3347_f10b_5e6d_06eb,
        ],
        "a flat (1,1) campaign changed: {minimum:#x?}"
    );
    assert_eq!(
        tiebreak_prone,
        [0xaf57_84a1_87db_2cfd, 0x76f4_7589_4d21_c615],
        "a flat (2,2) campaign changed: {tiebreak_prone:#x?}"
    );
}
