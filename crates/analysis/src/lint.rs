//! Source-level lint for the protocol crates.
//!
//! Five rules, each encoding a convention the safety argument depends
//! on:
//!
//! * **`wildcard-arm`** — a `_ =>` arm in a `match` whose patterns
//!   mention a protocol message/state enum. Protocol handlers must be
//!   exhaustive: a silent catch-all swallows the next message variant
//!   someone adds and turns a missing-case bug into a liveness bug.
//!   Matches that never mention a protocol enum (e.g. on `TimerId`
//!   constants, which are struct consts with a mandatory catch-all) are
//!   out of scope.
//! * **`unwrap-expect`** — `.unwrap()` / `.expect(…)` in non-test
//!   protocol code. A malformed message or state must degrade, not
//!   crash a replica.
//! * **`unchecked-quorum-arith`** — bare `+`/`-` on the same line as
//!   quorum arithmetic (`fast_quorum()`, `slow_quorum()`,
//!   `recovery_threshold()`, `.n()`, `.e()`, `.f()`), unless the line
//!   uses `saturating_*`/`checked_*`/`wrapping_*`. Quorum underflow is
//!   exactly how a below-bound configuration turns into silent
//!   agreement loss.
//! * **`debug-assert`** — `debug_assert!` family in protocol code:
//!   safety invariants must hold in release builds too.
//! * **`relaxed-atomic`** — `Ordering::Relaxed` in non-test code.
//!   Relaxed operations provide no happens-before edge, so any use that
//!   *publishes* state to another thread (a doorbell flag, a
//!   reactor-wakeup, a queue head) is a silent race; the reactor's
//!   doorbell correctly uses `Release`/`AcqRel` for exactly this
//!   reason. The only legitimate uses are values that never guard other
//!   memory — statistical counters and unique-token generators — and
//!   each one must be audited into the allowlist.
//!
//! `#[cfg(test)]` modules are skipped entirely. Findings can be waived
//! through an allowlist file ([`Allowlist`]) whose entries document an
//! audit, one per line: `path-suffix:rule:line-substring`.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{blank_comments_and_strings, line_of, word_positions};

/// Rule identifiers, as used in findings and allowlist entries.
pub const RULES: [&str; 5] = [
    "wildcard-arm",
    "unwrap-expect",
    "unchecked-quorum-arith",
    "debug-assert",
    "relaxed-atomic",
];

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.excerpt
        )
    }
}

/// Parsed allowlist: `path-suffix:rule:line-substring` entries.
///
/// A finding is waived when its file path ends with `path-suffix`, its
/// rule matches `rule` exactly, and the original source line contains
/// `line-substring`. Substring matching (rather than line numbers)
/// keeps entries stable across unrelated edits; each entry should cite
/// the audit reasoning in a `#` comment above it.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<(String, String, String)>,
}

impl Allowlist {
    /// Parses allowlist text. `#` comments and blank lines are ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed line.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ':');
            let (Some(suffix), Some(rule), Some(substr)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "allowlist line {}: expected path-suffix:rule:line-substring, got {line:?}",
                    i + 1
                ));
            };
            if !RULES.contains(&rule) {
                return Err(format!(
                    "allowlist line {}: unknown rule {rule:?} (expected one of {RULES:?})",
                    i + 1
                ));
            }
            entries.push((suffix.to_string(), rule.to_string(), substr.to_string()));
        }
        Ok(Allowlist { entries })
    }

    /// Loads and parses an allowlist file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as strings, plus [`Allowlist::parse`]
    /// errors.
    pub fn load(path: &Path) -> Result<Allowlist, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read allowlist {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    fn entry_matches(entry: &(String, String, String), finding: &Finding) -> bool {
        let (suffix, rule, substr) = entry;
        finding.file.to_string_lossy().ends_with(suffix.as_str())
            && finding.rule == rule
            && finding.excerpt.contains(substr.as_str())
    }

    /// Whether `finding` is waived.
    pub fn allows(&self, finding: &Finding) -> bool {
        self.entries.iter().any(|e| Self::entry_matches(e, finding))
    }

    /// Entries that waive none of `findings` (the *pre*-allowlist
    /// finding set): each one is a stale audit whose subject has been
    /// fixed or rewritten, and keeping it would silently waive the next
    /// unrelated finding that happens to match. The CI gate treats a
    /// nonempty result as a failure, so the allowlist prunes itself.
    pub fn stale_entries(&self, findings: &[Finding]) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| !findings.iter().any(|f| Self::entry_matches(e, f)))
            .map(|(suffix, rule, substr)| format!("{suffix}:{rule}:{substr}"))
            .collect()
    }

    /// Number of entries (for reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A source file prepared for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path (used in findings and allowlist matching).
    pub path: PathBuf,
    /// Raw source text.
    pub source: String,
}

/// Recursively collects `.rs` files under each of `dirs`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn collect_sources(dirs: &[PathBuf]) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for dir in dirs {
        walk(dir, &mut out)?;
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(SourceFile {
                source: fs::read_to_string(&path)?,
                path,
            });
        }
    }
    Ok(())
}

/// Collects every `enum` name declared in `files` (on blanked text, so
/// commented-out declarations do not count).
pub fn collect_enums(files: &[SourceFile]) -> BTreeSet<String> {
    let mut enums = BTreeSet::new();
    for file in files {
        let blanked = blank_comments_and_strings(&file.source);
        for idx in word_positions(&blanked, "enum") {
            let rest = &blanked[idx + "enum".len()..];
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() && name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                enums.insert(name);
            }
        }
    }
    enums
}

/// Lints `file` against all rules, given the set of protocol enum
/// names. Findings inside `#[cfg(test)]` blocks are suppressed.
pub fn lint_file(file: &SourceFile, enums: &BTreeSet<String>) -> Vec<Finding> {
    let blanked = blank_comments_and_strings(&file.source);
    let test_ranges = cfg_test_ranges(&blanked);
    let in_tests = |idx: usize| test_ranges.iter().any(|(a, b)| (*a..*b).contains(&idx));
    let mut findings = Vec::new();
    let mut push = |idx: usize, rule: &'static str| {
        if in_tests(idx) {
            return;
        }
        let line = line_of(&blanked, idx);
        let excerpt = file
            .source
            .lines()
            .nth(line - 1)
            .unwrap_or_default()
            .trim()
            .to_string();
        findings.push(Finding {
            file: file.path.clone(),
            line,
            rule,
            excerpt,
        });
    };

    // wildcard-arm.
    for m in word_positions(&blanked, "match") {
        let Some((body_start, body_end)) = match_body(&blanked, m + "match".len()) else {
            continue;
        };
        let body = &blanked[body_start..body_end];
        let patterns = arm_patterns(body);
        let mentions_protocol_enum = patterns
            .iter()
            .any(|(_, p)| enums.iter().any(|e| p.contains(&format!("{e}::"))));
        if !mentions_protocol_enum {
            continue;
        }
        for (off, pattern) in &patterns {
            if pattern == "_" {
                push(body_start + off, "wildcard-arm");
            }
        }
    }

    // unwrap-expect.
    for word in ["unwrap", "expect"] {
        for idx in word_positions(&blanked, word) {
            let before_dot = blanked[..idx].trim_end().ends_with('.');
            let after = blanked[idx + word.len()..].trim_start();
            if before_dot && after.starts_with('(') {
                push(idx, "unwrap-expect");
            }
        }
    }

    // unchecked-quorum-arith.
    let mut offset = 0;
    for line in blanked.lines() {
        let quorumy = ["fast_quorum(", "slow_quorum(", "recovery_threshold("]
            .iter()
            .any(|t| line.contains(t))
            || [".n()", ".e()", ".f()"].iter().any(|t| line.contains(t));
        let guarded = ["saturating_", "checked_", "wrapping_"]
            .iter()
            .any(|t| line.contains(t));
        if quorumy && !guarded && has_bare_plus_minus(line) {
            push(offset, "unchecked-quorum-arith");
        }
        offset += line.len() + 1;
    }

    // debug-assert.
    let mut start = 0;
    while let Some(off) = blanked[start..].find("debug_assert") {
        let idx = start + off;
        let boundary = idx == 0
            || !blanked.as_bytes()[idx - 1].is_ascii_alphanumeric()
                && blanked.as_bytes()[idx - 1] != b'_';
        if boundary {
            push(idx, "debug-assert");
        }
        start = idx + "debug_assert".len();
    }

    // relaxed-atomic.
    let mut start = 0;
    while let Some(off) = blanked[start..].find("Ordering::Relaxed") {
        let idx = start + off;
        push(idx, "relaxed-atomic");
        start = idx + "Ordering::Relaxed".len();
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Like [`lint_file`], restricted to a subset of [`RULES`] — used for
/// directories where only some conventions apply (e.g. the runtime and
/// telemetry crates are not protocol handlers, but their atomics still
/// deserve the `relaxed-atomic` audit).
pub fn lint_file_rules(
    file: &SourceFile,
    enums: &BTreeSet<String>,
    rules: &[&str],
) -> Vec<Finding> {
    lint_file(file, enums)
        .into_iter()
        .filter(|f| rules.contains(&f.rule))
        .collect()
}

/// Whether `line` (blanked) contains a `+` or `-` used as an operator
/// (not `->`, and not unary minus in `e-` exponents, which cannot occur
/// after blanking).
fn has_bare_plus_minus(line: &str) -> bool {
    let bytes = line.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        match b {
            b'+' => return true,
            b'-' if bytes.get(i + 1) != Some(&b'>') => return true,
            _ => {}
        }
    }
    false
}

/// Byte ranges of `#[cfg(test)]`-gated items (attribute through the
/// matching close brace of the following item).
pub(crate) fn cfg_test_ranges(blanked: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut start = 0;
    while let Some(off) = blanked[start..].find("#[cfg(test)]") {
        let attr = start + off;
        // The gated item runs to the matching brace of the first block
        // after the attribute.
        let Some(open) = blanked[attr..].find('{').map(|o| attr + o) else {
            break;
        };
        let end = matching_brace(blanked, open).unwrap_or(blanked.len());
        ranges.push((attr, end));
        start = end;
    }
    ranges
}

/// Offset one past the `}` matching the `{` at `open`.
fn matching_brace(text: &str, open: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Finds the `{ … }` body of a `match` whose keyword ends at `after_kw`:
/// the first `{` at zero paren/bracket depth. Returns `(body_start,
/// body_end)` excluding the braces.
fn match_body(blanked: &str, after_kw: usize) -> Option<(usize, usize)> {
    let bytes = blanked.as_bytes();
    let mut depth = 0i32;
    let mut i = after_kw;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth == 0 => {
                let end = matching_brace(blanked, i)?;
                return Some((i + 1, end - 1));
            }
            // A `;` or unbalanced close before any `{`: not a match
            // expression after all (e.g. `match` used as an ident in a
            // macro) — bail out.
            b';' => return None,
            b'}' if depth == 0 => return None,
            b'{' => depth += 1,
            b'}' => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Splits a match body into `(offset, pattern)` pairs, one per arm.
fn arm_patterns(body: &str) -> Vec<(usize, String)> {
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut seg_start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'=' if depth == 0 && bytes.get(i + 1) == Some(&b'>') => {
                let pattern = body[seg_start..i].trim();
                out.push((
                    seg_start + leading_ws(&body[seg_start..i]),
                    pattern.to_string(),
                ));
                i += 2;
                i = skip_arm_body(body, i);
                seg_start = i;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

fn leading_ws(s: &str) -> usize {
    s.len() - s.trim_start().len()
}

/// Advances past one arm body starting at `i` (after `=>`): a block
/// plus optional comma, or an expression up to the next top-level
/// comma.
fn skip_arm_body(body: &str, mut i: usize) -> usize {
    let bytes = body.as_bytes();
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'{' {
        i = matching_brace(body, i).unwrap_or(body.len());
    } else {
        let mut depth = 0i32;
        while i < bytes.len() {
            match bytes[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    if depth == 0 {
                        return i;
                    }
                    depth -= 1;
                }
                b',' if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
    }
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b',' {
        i += 1;
    }
    i
}

/// Lints all `files`, applying `allow`. Returns surviving findings.
pub fn lint_sources(files: &[SourceFile], allow: &Allowlist) -> Vec<Finding> {
    let enums = collect_enums(files);
    let mut findings = Vec::new();
    for file in files {
        findings.extend(
            lint_file(file, &enums)
                .into_iter()
                .filter(|f| !allow.allows(f)),
        );
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile {
            path: PathBuf::from("mem/test.rs"),
            source: src.to_string(),
        }
    }

    fn lint(src: &str) -> Vec<Finding> {
        let f = file(src);
        let enums = collect_enums(std::slice::from_ref(&f));
        lint_file(&f, &enums)
    }

    #[test]
    fn wildcard_on_protocol_enum_is_flagged() {
        let src = "enum Msg { A, B }\n\
                   fn f(m: Msg) { match m { Msg::A => {}\n_ => {} } }";
        let hits = lint(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "wildcard-arm");
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn wildcard_on_non_enum_match_is_not_flagged() {
        // TimerId-style: struct consts, no enum declared.
        let src = "fn f(t: u32) { match t { 1 => {}, _ => {} } }";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn named_catchall_and_guarded_wildcard_are_not_flagged() {
        let src = "enum Msg { A, B }\n\
                   fn f(m: Msg, c: bool) {\n\
                     match m { Msg::A => {}, other => drop(other) }\n\
                     match m { Msg::A if c => {}, Msg::A => {}, Msg::B => {} }\n\
                   }";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn unwrap_and_expect_are_flagged_outside_tests() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"y\") }\n\
                   #[cfg(test)]\nmod tests { fn g(x: Option<u32>) { x.unwrap(); } }";
        let hits = lint(src);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == "unwrap-expect"));
        assert!(hits.iter().all(|h| h.line == 1));
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn unchecked_quorum_arith_is_flagged() {
        let src = "fn f(cfg: &C) -> usize { cfg.fast_quorum() - 1 }";
        let hits = lint(src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "unchecked-quorum-arith");
    }

    #[test]
    fn saturating_quorum_arith_is_not_flagged() {
        let src = "fn f(cfg: &C) -> usize { cfg.fast_quorum().saturating_sub(1) }";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn arrow_is_not_arithmetic() {
        let src = "fn f(cfg: &C) -> usize { cfg.fast_quorum() }";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn debug_assert_is_flagged() {
        let src = "fn f(q: usize, n: usize) { debug_assert!(q <= n); }";
        let hits = lint(src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "debug-assert");
    }

    #[test]
    fn relaxed_atomic_is_flagged_outside_tests() {
        let src = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n\
                   c.fetch_add(1, Ordering::Relaxed)\n\
                   }\n\
                   #[cfg(test)]\nmod tests { fn g(c: &A) { c.load(Ordering::Relaxed); } }";
        let hits = lint(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "relaxed-atomic");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn acquire_release_orderings_are_not_flagged() {
        let src = "fn f(c: &A) { c.store(1, Ordering::Release); c.load(Ordering::Acquire); }";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn rule_filtering_drops_out_of_scope_findings() {
        let src = "fn f(x: Option<u32>, c: &A) -> u32 {\n\
                   c.fetch_add(1, Ordering::Relaxed);\n\
                   x.unwrap()\n\
                   }";
        let f = file(src);
        let enums = collect_enums(std::slice::from_ref(&f));
        let all = lint_file(&f, &enums);
        assert_eq!(all.len(), 2, "{all:?}");
        let only_relaxed = lint_file_rules(&f, &enums, &["relaxed-atomic"]);
        assert_eq!(only_relaxed.len(), 1, "{only_relaxed:?}");
        assert_eq!(only_relaxed[0].rule, "relaxed-atomic");
    }

    #[test]
    fn comments_and_strings_cannot_trip_rules() {
        let src = "// match m { _ => x.unwrap() } debug_assert!\n\
                   fn f() -> &'static str { \"_ => .unwrap() debug_assert!(cfg.n() - 1)\" }";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn allowlist_waives_by_suffix_rule_and_substring() {
        let allow = Allowlist::parse(
            "# audited: slot inserted two lines above\n\
             mem/test.rs:unwrap-expect:just inserted\n",
        )
        .unwrap();
        assert_eq!(allow.len(), 1);
        let f = Finding {
            file: PathBuf::from("x/mem/test.rs"),
            line: 3,
            rule: "unwrap-expect",
            excerpt: ".expect(\"just inserted\")".into(),
        };
        assert!(allow.allows(&f));
        let other = Finding {
            rule: "debug-assert",
            ..f.clone()
        };
        assert!(!allow.allows(&other));
    }

    #[test]
    fn stale_allowlist_entries_are_reported() {
        let allow = Allowlist::parse(
            "mem/test.rs:unwrap-expect:just inserted\n\
             gone/file.rs:debug-assert:old invariant\n",
        )
        .unwrap();
        let live = Finding {
            file: PathBuf::from("x/mem/test.rs"),
            line: 3,
            rule: "unwrap-expect",
            excerpt: ".expect(\"just inserted\")".into(),
        };
        let stale = allow.stale_entries(std::slice::from_ref(&live));
        assert_eq!(stale, vec!["gone/file.rs:debug-assert:old invariant"]);
        assert!(
            allow.stale_entries(&[]).len() == 2,
            "no findings: all stale"
        );
    }

    #[test]
    fn allowlist_rejects_unknown_rules_and_malformed_lines() {
        assert!(Allowlist::parse("a.rs:no-such-rule:x").is_err());
        assert!(Allowlist::parse("just-one-field").is_err());
    }

    #[test]
    fn enum_collection_ignores_comments_and_lowercase() {
        let f = file("// enum Ghost { }\npub enum Msg { A }\nstruct enum_like;");
        let enums = collect_enums(std::slice::from_ref(&f));
        assert!(enums.contains("Msg"));
        assert!(!enums.contains("Ghost"));
        assert_eq!(enums.len(), 1);
    }
}
