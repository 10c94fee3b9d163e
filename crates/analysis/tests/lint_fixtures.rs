//! Per-rule fixture tests for the protocol lint, plus the pinned
//! regression that the real workspace is clean under the checked-in
//! allowlist — and *only* under it.

use std::path::{Path, PathBuf};

use twostep_analysis::lint::{
    collect_enums, collect_sources, lint_file, lint_file_rules, Allowlist, Finding, SourceFile,
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

/// Lints one fixture file against its own enum declarations.
fn lint_fixture(name: &str) -> Vec<Finding> {
    let file = fixture(name);
    let enums = collect_enums(std::slice::from_ref(&file));
    lint_file(&file, &enums)
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn wildcard_arm_fixture_trips_exactly_its_rule() {
    let findings = lint_fixture("wildcard_arm.rs");
    assert_eq!(rules(&findings), ["wildcard-arm"], "{findings:?}");
    assert_eq!(findings[0].line, 12);
    assert_eq!(findings[0].excerpt, "_ => 0,");
}

#[test]
fn unwrap_expect_fixture_trips_exactly_its_rule() {
    let findings = lint_fixture("unwrap_expect.rs");
    assert_eq!(
        rules(&findings),
        ["unwrap-expect", "unwrap-expect"],
        "{findings:?}"
    );
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
fn debug_assert_fixture_trips_exactly_its_rule() {
    let findings = lint_fixture("debug_assert.rs");
    assert_eq!(rules(&findings), ["debug-assert"], "{findings:?}");
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
    let enum_files = {
        let mut dirs = lint_dirs;
        dirs.push(root.join("crates/types/src"));
        collect_sources(&dirs).unwrap()
    };
    let enums = collect_enums(&enum_files);
    assert!(
        enums.len() >= 8,
        "expected the protocol enum universe, got {enums:?}"
    );
    let allow = Allowlist::load(&root.join("crates/analysis/lint-allow.txt")).unwrap();
    let findings = files
        .iter()
        .flat_map(|f| lint_file(f, &enums))
        .chain(
            relaxed_files
                .iter()
                .flat_map(|f| lint_file_rules(f, &enums, &["relaxed-atomic"])),
        )
        .collect::<Vec<_>>();
    (findings, allow)
}

/// Pinned regression: the protocol crates lint clean under the
/// checked-in allowlist. A new wildcard arm, unwrap, debug_assert or
/// unchecked quorum subtraction in crates/{core,baselines,smr} fails
/// this test (and the CI gate) until either fixed or audited into the
/// allowlist.
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
