//! Source-level lint for the protocol crates.
//!
//! Two rules, each encoding a convention the safety argument depends on
//! and that nothing in rustc or clippy can hold:
//!
//! * **`unchecked-quorum-arith`** — bare `+`/`-` on the same line as
//!   quorum arithmetic (`fast_quorum()`, `slow_quorum()`,
//!   `recovery_threshold()`, `.n()`, `.e()`, `.f()`), unless the line
//!   uses `saturating_*`/`checked_*`/`wrapping_*`. Quorum underflow is
//!   exactly how a below-bound configuration turns into silent
//!   agreement loss. (`clippy::arithmetic_side_effects` flags every
//!   `+` in the crate, not the quorum ones.)
//! * **`relaxed-atomic`** — `Ordering::Relaxed` in non-test code.
//!   Relaxed operations provide no happens-before edge, so any use that
//!   *publishes* state to another thread (a doorbell flag, a
//!   reactor-wakeup, a queue head) is a silent race; the reactor's
//!   doorbell correctly uses `Release`/`AcqRel` for exactly this
//!   reason. The only legitimate uses are values that never guard other
//!   memory — statistical counters and unique-token generators — and
//!   each one must be audited into the allowlist.
//!
//! The other three handler conventions — no wildcard arm on an enum, no
//! `unwrap`/`expect`, no `debug_assert!` — are clippy lints denied at
//! the root of each protocol crate (`fixtures/clippy_red` is their red
//! fixture).
//!
//! `#[cfg(test)]` modules are skipped entirely. Findings can be waived
//! through an allowlist file ([`Allowlist`]) whose entries document an
//! audit, one per line: `path-suffix:rule:line-substring`.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{blank_comments_and_strings, line_of};

/// Rule identifiers, as used in findings and allowlist entries.
pub const RULES: [&str; 2] = ["unchecked-quorum-arith", "relaxed-atomic"];

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

/// Lints `file` against all rules. Findings inside `#[cfg(test)]`
/// blocks are suppressed.
pub fn lint_file(file: &SourceFile) -> Vec<Finding> {
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
pub fn lint_file_rules(file: &SourceFile, rules: &[&str]) -> Vec<Finding> {
    lint_file(file)
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

/// Byte ranges of `#[cfg(test)]`-gated items (attribute through the end
/// of the following item).
pub(crate) fn cfg_test_ranges(blanked: &str) -> Vec<(usize, usize)> {
    const ATTR: &str = "#[cfg(test)]";
    let mut ranges = Vec::new();
    let mut start = 0;
    while let Some(off) = blanked[start..].find(ATTR) {
        let attr = start + off;
        let Some(end) = gated_item_end(blanked, attr + ATTR.len()) else {
            break;
        };
        ranges.push((attr, end));
        start = end;
    }
    ranges
}

/// Offset one past the end of the item starting at `from`: its `;` when
/// one comes at bracket depth 0 before any `{` (`use …;`, `const …;`,
/// `mod tests;`), else the `}` matching its first `{`.
fn gated_item_end(text: &str, from: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in text.bytes().enumerate().skip(from) {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b';' if depth == 0 => return Some(i + 1),
            b'{' => return Some(matching_brace(text, i).unwrap_or(text.len())),
            _ => {}
        }
    }
    None
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

/// Lints all `files`, applying `allow`. Returns surviving findings.
pub fn lint_sources(files: &[SourceFile], allow: &Allowlist) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        findings.extend(lint_file(file).into_iter().filter(|f| !allow.allows(f)));
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
        lint_file(&file(src))
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
    fn a_gated_item_ending_in_a_semicolon_hides_only_itself() {
        // The `;` inside `[u8; 2]` is not the end of the `const`.
        let src = "#[cfg(test)]\nconst N: [u8; 2] = [0, 1];\n\
                   #[cfg(test)]\nmod helpers;\n\
                   fn f(c: &A) -> u64 {\n\
                   c.fetch_add(1, Ordering::Relaxed)\n\
                   }";
        let hits = lint(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 6);
    }

    #[test]
    fn acquire_release_orderings_are_not_flagged() {
        let src = "fn f(c: &A) { c.store(1, Ordering::Release); c.load(Ordering::Acquire); }";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn rule_filtering_drops_out_of_scope_findings() {
        let src = "fn f(cfg: &C, c: &A) -> usize {\n\
                   c.fetch_add(1, Ordering::Relaxed);\n\
                   cfg.fast_quorum() - 1\n\
                   }";
        let f = file(src);
        let all = lint_file(&f);
        assert_eq!(all.len(), 2, "{all:?}");
        let only_relaxed = lint_file_rules(&f, &["relaxed-atomic"]);
        assert_eq!(only_relaxed.len(), 1, "{only_relaxed:?}");
        assert_eq!(only_relaxed[0].rule, "relaxed-atomic");
    }

    #[test]
    fn comments_and_strings_cannot_trip_rules() {
        let src = "// cfg.n() - 1 with Ordering::Relaxed\n\
                   fn f() -> &'static str { \"Ordering::Relaxed (cfg.n() - 1)\" }";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn allowlist_waives_by_suffix_rule_and_substring() {
        let allow = Allowlist::parse(
            "# audited: a statistic, publishes nothing\n\
             mem/test.rs:relaxed-atomic:hits.fetch_add\n",
        )
        .unwrap();
        assert_eq!(allow.len(), 1);
        let f = Finding {
            file: PathBuf::from("x/mem/test.rs"),
            line: 3,
            rule: "relaxed-atomic",
            excerpt: "self.hits.fetch_add(1, Ordering::Relaxed);".into(),
        };
        assert!(allow.allows(&f));
        let other = Finding {
            rule: "unchecked-quorum-arith",
            ..f.clone()
        };
        assert!(!allow.allows(&other));
    }

    #[test]
    fn stale_allowlist_entries_are_reported() {
        let allow = Allowlist::parse(
            "mem/test.rs:relaxed-atomic:hits.fetch_add\n\
             gone/file.rs:unchecked-quorum-arith:old margin\n",
        )
        .unwrap();
        let live = Finding {
            file: PathBuf::from("x/mem/test.rs"),
            line: 3,
            rule: "relaxed-atomic",
            excerpt: "self.hits.fetch_add(1, Ordering::Relaxed);".into(),
        };
        let stale = allow.stale_entries(std::slice::from_ref(&live));
        assert_eq!(
            stale,
            vec!["gone/file.rs:unchecked-quorum-arith:old margin"]
        );
        assert!(
            allow.stale_entries(&[]).len() == 2,
            "no findings: all stale"
        );
    }

    #[test]
    fn allowlist_rejects_unknown_rules_and_malformed_lines() {
        assert!(Allowlist::parse("a.rs:no-such-rule:x").is_err());
        assert!(Allowlist::parse("a.rs:unwrap-expect:retired with the rule").is_err());
        assert!(Allowlist::parse("just-one-field").is_err());
    }
}
