//! Red fixture: one violation of each handler convention the protocol
//! crates deny through clippy. The attribute below and `../clippy.toml`
//! are the lint set of `twostep-core`, `-baselines`, `-smr` and `-byz`,
//! verbatim (`tests/source_audit.rs` compares them); CI's `lint` job
//! runs clippy on this package and fails unless all five lints fire.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants,
        clippy::disallowed_macros
    )
)]

pub enum DemoMsg {
    Ping,
    Pong,
    Pang,
}

/// `clippy::wildcard_enum_match_arm`: the catch-all hides two variants.
pub fn handle(m: DemoMsg) -> u32 {
    match m {
        DemoMsg::Ping => 1,
        _ => 0,
    }
}

/// `clippy::match_wildcard_for_single_variants`: it hides one.
pub fn handle_most(m: DemoMsg) -> u32 {
    match m {
        DemoMsg::Ping => 1,
        DemoMsg::Pong => 2,
        _ => 0,
    }
}

pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

pub fn last(xs: &[u32]) -> u32 {
    *xs.last().expect("nonempty")
}

pub fn check(q: usize, n: usize) {
    debug_assert!(q <= n, "quorum within bounds");
}
