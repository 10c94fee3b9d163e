//! Per-rule fixture tests for the protocol lint, plus the pinned
//! regression that the real workspace is clean under the checked-in
//! allowlist — and *only* under it.

use std::path::{Path, PathBuf};

use twostep_analysis::lint::{
    collect_sources, lint_file, lint_file_rules, Allowlist, Finding, SourceFile,
};

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    SourceFile {
        source: std::fs::read_to_string(&path).unwrap(),
        path,
    }
}

fn lint_fixture(name: &str) -> Vec<Finding> {
    lint_file(&fixture(name))
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unchecked_arith_fixture_trips_exactly_its_rule() {
    let findings = lint_fixture("unchecked_arith.rs");
    assert_eq!(
        rules(&findings),
        ["unchecked-quorum-arith", "unchecked-quorum-arith"],
        "{findings:?}"
    );
    assert!(findings.iter().any(|f| f.excerpt.contains("fast_quorum()")));
}

#[test]
fn clean_fixture_produces_no_findings() {
    let findings = lint_fixture("clean.rs");
    assert_eq!(findings, [], "clean fixture must lint clean");
}

// ---------------------------------------------------------------------
// The real workspace
// ---------------------------------------------------------------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Mirrors the binary's scan set (`run_lint` in `src/main.rs`): the
/// protocol crates get every rule, the runtime/telemetry crates only
/// the relaxed-atomic audit.
fn workspace_findings() -> (Vec<Finding>, Allowlist) {
    let root = workspace_root();
    let lint_dirs: Vec<PathBuf> = [
        "crates/core/src",
        "crates/baselines/src",
        "crates/smr/src",
        "crates/byz/src",
    ]
    .iter()
    .map(|d| root.join(d))
    .collect();
    let files = collect_sources(&lint_dirs).unwrap();
    assert!(
        !files.is_empty(),
        "protocol crates not found under {root:?}"
    );
    let relaxed_files = collect_sources(&[
        root.join("crates/runtime/src"),
        root.join("crates/telemetry/src"),
    ])
    .unwrap();
    let allow = Allowlist::load(&root.join("crates/analysis/lint-allow.txt")).unwrap();
    let findings = files
        .iter()
        .flat_map(lint_file)
        .chain(
            relaxed_files
                .iter()
                .flat_map(|f| lint_file_rules(f, &["relaxed-atomic"])),
        )
        .collect::<Vec<_>>();
    (findings, allow)
}

/// Pinned regression: the protocol crates lint clean under the
/// checked-in allowlist. A new unchecked quorum subtraction in
/// crates/{core,baselines,smr,byz}, or a relaxed atomic there or in the
/// runtime, fails this test (and the CI gate) until either fixed or
/// audited into the allowlist.
#[test]
fn protocol_crates_are_clean_under_the_allowlist() {
    let (findings, allow) = workspace_findings();
    let surviving: Vec<&Finding> = findings.iter().filter(|f| !allow.allows(f)).collect();
    assert!(
        surviving.is_empty(),
        "unaudited lint findings in protocol crates:\n{}",
        surviving
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The allowlist is load-bearing: every entry waives at least one real
/// finding (no stale entries), and without the allowlist the audited
/// findings do surface (the lint is not trivially clean).
#[test]
fn allowlist_entries_are_all_load_bearing() {
    let (findings, allow) = workspace_findings();
    assert!(
        !findings.is_empty(),
        "expected the audited findings to surface without the allowlist"
    );
    let waived = findings.iter().filter(|f| allow.allows(f)).count();
    assert_eq!(
        waived,
        findings.len(),
        "every raw finding should be an audited one"
    );
    assert!(
        waived >= allow.len(),
        "{} allowlist entries but only {waived} waived findings — stale entry?",
        allow.len()
    );
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
