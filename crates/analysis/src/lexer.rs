//! A minimal Rust source scanner for the API extractor and the source
//! audits in `tests/`.
//!
//! Neither needs a full parse — they need source text with comments
//! and literals *blanked out* (so a `pub fn` or an ordering named in a
//! doc comment or a string cannot count) while preserving
//! byte-for-byte line structure (so brace matching still works on the
//! result).
//!
//! Handles: line comments, nested block comments, string literals,
//! raw strings with arbitrary `#` fences, byte strings, char literals
//! (including lifetimes, which are *not* char literals), and escapes.

/// Returns `source` with comments and literal bodies replaced by
/// spaces. Newlines are preserved exactly; delimiters of strings are
/// kept as `"` so token boundaries survive.
pub fn blank_comments_and_strings(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                // Line comment: blank to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                // Block comment, possibly nested.
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                i = blank_raw_string(bytes, i, &mut out);
            }
            b'b' if i + 1 < bytes.len() && bytes[i + 1] == b'"' => {
                out.push(b' ');
                i += 1;
                i = blank_quoted(bytes, i, b'"', &mut out);
            }
            b'"' => {
                i = blank_quoted(bytes, i, b'"', &mut out);
            }
            b'\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'x'`,
                // `'\n'`): a lifetime is `'` + ident not followed by a
                // closing `'`.
                if is_lifetime(bytes, i) {
                    out.push(c);
                    i += 1;
                } else {
                    i = blank_quoted(bytes, i, b'\'', &mut out);
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }

    String::from_utf8(out).expect("blanking is ASCII-preserving")
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // r"..."  r#"..."#  br"..."  rb is not a thing; b must precede r.
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if j >= bytes.len() || bytes[j] != b'r' {
            return false;
        }
    }
    if bytes[j] != b'r' {
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

fn blank_raw_string(bytes: &[u8], mut i: usize, out: &mut Vec<u8>) -> usize {
    // Prefix: optional `b`, then `r`, then the `#` fence.
    if bytes[i] == b'b' {
        out.push(b' ');
        i += 1;
    }
    out.push(b' '); // the `r`
    i += 1;
    let mut fences = 0usize;
    while bytes[i] == b'#' {
        fences += 1;
        out.push(b' ');
        i += 1;
    }
    out.push(b'"');
    i += 1;
    // Scan for `"` followed by at least `fences` hashes.
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let hashes = bytes[i + 1..].iter().take_while(|b| **b == b'#').count();
            if hashes >= fences {
                out.push(b'"');
                i += 1;
                for _ in 0..fences {
                    out.push(b' ');
                    i += 1;
                }
                break;
            }
        }
        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
        i += 1;
    }
    i
}

fn blank_quoted(bytes: &[u8], mut i: usize, quote: u8, out: &mut Vec<u8>) -> usize {
    out.push(quote);
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                out.extend_from_slice(b"  ");
                i += 2;
            }
            b'\n' => {
                out.push(b'\n');
                i += 1;
            }
            b if b == quote => {
                out.push(quote);
                i += 1;
                break;
            }
            _ => {
                out.push(b' ');
                i += 1;
            }
        }
    }
    i
}

fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    // `'` + (alpha or _) and the char after the ident is not `'`.
    let Some(&first) = bytes.get(i + 1) else {
        return false;
    };
    if !(first.is_ascii_alphabetic() || first == b'_') {
        return false;
    }
    let mut j = i + 2;
    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    bytes.get(j) != Some(&b'\'')
}

/// Whether `text[idx..]` starts a standalone word `word` (not a
/// fragment of a longer identifier).
fn is_word_at(text: &str, idx: usize, word: &str) -> bool {
    let bytes = text.as_bytes();
    if !text[idx..].starts_with(word) {
        return false;
    }
    let before_ok = idx == 0 || !is_ident_byte(bytes[idx - 1]);
    let after = idx + word.len();
    let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
    before_ok && after_ok
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds every standalone occurrence of `word` in `text`.
pub fn word_positions(text: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(off) = text[start..].find(word) {
        let idx = start + off;
        if is_word_at(text, idx, word) {
            out.push(idx);
        }
        start = idx + word.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_line_and_block_comments() {
        let src = "let x = 1; // _ => unwrap()\n/* expect( */ let y = 2;";
        let out = blank_comments_and_strings(src);
        assert!(!out.contains("unwrap"));
        assert!(!out.contains("expect"));
        assert!(out.contains("let x = 1;"));
        assert!(out.contains("let y = 2;"));
        assert_eq!(out.lines().count(), src.lines().count());
    }

    #[test]
    fn blanks_nested_block_comments() {
        let src = "a /* outer /* inner unwrap() */ still */ b";
        let out = blank_comments_and_strings(src);
        assert!(!out.contains("unwrap"));
        assert!(!out.contains("still"));
        assert!(out.starts_with('a') && out.trim_end().ends_with('b'));
    }

    #[test]
    fn blanks_strings_but_keeps_delimiters() {
        let src = r#"call(".unwrap() inside string"); x"#;
        let out = blank_comments_and_strings(src);
        assert!(!out.contains("unwrap"));
        assert!(out.contains("call(\""));
        assert_eq!(out.len(), src.len());
    }

    #[test]
    fn blanks_raw_strings_with_fences() {
        let src = r##"let s = r#"unwrap() "quoted" body"#; done"##;
        let out = blank_comments_and_strings(src);
        assert!(!out.contains("unwrap"));
        assert!(out.contains("done"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '\\''; let d = '}'; }";
        let out = blank_comments_and_strings(src);
        assert!(out.contains("<'a>"));
        assert!(out.contains("&'a str"));
        // The `'}'` char literal is blanked; only the fn's own closing
        // brace survives.
        assert_eq!(
            out.matches('}').count(),
            1,
            "char literal brace must be blanked: {out}"
        );
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let src = r#"let s = "a\"b.unwrap()"; tail"#;
        let out = blank_comments_and_strings(src);
        assert!(!out.contains("unwrap"));
        assert!(out.contains("tail"));
    }

    #[test]
    fn word_matching_respects_boundaries() {
        let text = "match rematch match_ matches match";
        let hits = word_positions(text, "match");
        assert_eq!(hits.len(), 2);
        assert!(is_word_at(text, 0, "match"));
        // "match" embedded in "rematch" is not a word hit.
        assert!(!is_word_at(text, 8, "match"));
    }
}
