//! Source audits of the workspace: the conventions the safety argument
//! rests on that neither rustc nor clippy can hold by themselves.

use std::path::{Path, PathBuf};

use twostep_analysis::api::{cfg_test_ranges, collect_sources};
use twostep_analysis::lexer::{blank_comments_and_strings, word_positions};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

// ---------------------------------------------------------------------
// Relaxed atomics
// ---------------------------------------------------------------------

/// The files whose `Relaxed` atomics are audited. Telemetry counters
/// and histogram cells are statistics: each cell is independently
/// meaningful, readers tolerate torn snapshots across cells, and
/// nothing synchronizes on their values or publishes other memory
/// through them.
const RELAXED_AUDITED: [&str; 2] = ["telemetry/src/counter.rs", "telemetry/src/histogram.rs"];

/// A `Relaxed` operation gives no happens-before edge, so one that
/// *publishes* state to another thread (a doorbell flag, a wake-up, a
/// queue head) is a silent race. In the non-test code of the protocol,
/// runtime and telemetry crates the word may appear only in the audited
/// statistics. Matching the word rather than `Ordering::Relaxed` also
/// catches a glob-imported bare `Relaxed`.
#[test]
fn relaxed_atomics_appear_only_in_the_audited_statistics() {
    let root = workspace_root();
    let dirs: Vec<PathBuf> = ["core", "baselines", "smr", "byz", "runtime", "telemetry"]
        .iter()
        .map(|krate| root.join("crates").join(krate).join("src"))
        .collect();
    let mut audited = 0;
    let mut unaudited = Vec::new();
    for file in collect_sources(&dirs).unwrap() {
        let blanked = blank_comments_and_strings(&file.source);
        let tests = cfg_test_ranges(&blanked);
        let rel = file.path.strip_prefix(&root).unwrap_or(&file.path);
        let path = rel.to_string_lossy().replace('\\', "/");
        for idx in word_positions(&blanked, "Relaxed") {
            if tests.iter().any(|(a, b)| (*a..*b).contains(&idx)) {
                continue;
            }
            if RELAXED_AUDITED.iter().any(|f| path.ends_with(f)) {
                audited += 1;
            } else {
                let line = blanked[..idx].matches('\n').count() + 1;
                unaudited.push(format!("  {path}:{line}"));
            }
        }
    }
    assert!(
        unaudited.is_empty(),
        "`Relaxed` outside the audited telemetry statistics:\n{}",
        unaudited.join("\n")
    );
    assert!(audited > 0, "the scan must see the audited statistics");
}

// ---------------------------------------------------------------------
// The conventions clippy holds
// ---------------------------------------------------------------------

/// The `#![cfg_attr(not(test), deny(..))]` block of a crate root.
fn clippy_lint_set(lib_rs: &Path) -> String {
    let source = std::fs::read_to_string(lib_rs).unwrap();
    let start = source
        .find("#![cfg_attr(\n    not(test),\n    deny(")
        .unwrap_or_else(|| panic!("{}: no clippy lint set", lib_rs.display()));
    let end = start + source[start..].find("\n)]\n").expect("closing `)]`") + 3;
    source[start..end].to_string()
}

/// `fixtures/clippy_red` is what CI proves red under clippy; this pins
/// that what it proves red is the lint set the four protocol crates
/// actually carry — same attribute, same clippy.toml — so neither side
/// can drift into a decorative gate.
#[test]
fn protocol_crates_carry_the_red_fixtures_clippy_lint_set() {
    let red = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/clippy_red");
    let lints = clippy_lint_set(&red.join("src/lib.rs"));
    for lint in [
        "unwrap_used",
        "expect_used",
        "wildcard_enum_match_arm",
        "match_wildcard_for_single_variants",
        "disallowed_macros",
    ] {
        assert!(lints.contains(&format!("clippy::{lint}")), "{lint}");
    }
    let config = std::fs::read_to_string(red.join("clippy.toml")).unwrap();
    assert!(config.contains("std::debug_assert\""), "{config}");
    for krate in ["core", "baselines", "smr", "byz"] {
        let dir = workspace_root().join("crates").join(krate);
        assert_eq!(clippy_lint_set(&dir.join("src/lib.rs")), lints, "{krate}");
        assert_eq!(
            std::fs::read_to_string(dir.join("clippy.toml")).unwrap(),
            config,
            "{krate}/clippy.toml"
        );
    }
}
