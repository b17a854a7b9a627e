//! The token rules of `evorec-audit`: pattern matchers over
//! [`crate::tokenizer`] output, run on every workspace `.rs` file,
//! including the `tests`, `benches`, `examples` and `shims` trees the
//! parser passes skip. Every finding is `deny`.
//!
//! | rule id           | invariant |
//! |-------------------|-----------|
//! | `nan-sort`        | no `partial_cmp` inside a sort/min/max comparator (NaN makes the comparator non-total → `unwrap` panics or ordering corrupts); use `total_cmp` or `Ord::cmp` |
//! | `hot-path-panic`  | no `.unwrap()` / `.expect(...)` / `panic!` in non-test code of the [`HOT_PATH_CRATES`] (core, stream, windows, adapt, kb, obs, telemetry, serve); `assert!` remains the sanctioned precondition idiom |
//! | `relaxed-publish` | no `Ordering::Relaxed` in a statement that publishes a pointer (`AtomicPtr`/`into_raw`/`from_raw`) or touches a field annotated `// lint: publishes` |
//! | `unbounded-queue` | no unbounded queue construction (`mpsc::channel`, `unbounded(..)`, `unbounded_channel`, each also with a turbofish) — backpressure is load-bearing, use `BoundedLog` |
//!
//! # Annotation grammar
//!
//! `// lint: publishes`, a line comment placed directly above a field
//! declaration, marks that field as participating in pointer/epoch
//! publication, so `Relaxed` ordering on it becomes a finding. The
//! other annotation, `// lint: lock-order A < B`, is read by the lock
//! pass ([`crate::locks`]).

use crate::tokenizer::{Token, TokenKind};

/// The crates whose `src/` trees are the hot path: `hot-path-panic`
/// applies there.
pub const HOT_PATH_CRATES: [&str; 8] = [
    "core",
    "stream",
    "windows",
    "adapt",
    "kb",
    "obs",
    "telemetry",
    "serve",
];

/// One diagnostic: a rule violated at a source line.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable rule identifier (used in allowlist entries).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation with the remediation.
    pub message: String,
}

/// How a file is classified for the token rules; [`FileClass::of`]
/// derives it from the file's path, and tests may state it directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileClass {
    /// In the `src/` tree of one of the [`HOT_PATH_CRATES`]: the
    /// `hot-path-panic` rule applies outside test regions.
    pub hot_path: bool,
}

impl FileClass {
    /// Classify a repo-relative path with forward slashes.
    pub fn of(label: &str) -> FileClass {
        let hot_path = label
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once("/src/"))
            .is_some_and(|(krate, _)| HOT_PATH_CRATES.contains(&krate));
        FileClass { hot_path }
    }
}

/// Run the token rules over one file's tokens. Pure function of the
/// tokens and the file's class; findings come sorted by line.
pub fn lint_source(tokens: &[Token], class: FileClass) -> Vec<Finding> {
    // Code-token view: rule patterns never span comments.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut findings = Vec::new();
    check_nan_sort(tokens, &code, &mut findings);
    if class.hot_path {
        let test_regions = find_test_regions(tokens, &code);
        check_hot_path_panic(tokens, &code, &test_regions, &mut findings);
    }
    check_relaxed_publish(tokens, &code, &publish_fields(tokens), &mut findings);
    check_unbounded_queue(tokens, &code, &mut findings);
    findings.sort_by_key(|f| f.line);
    findings
}

// ---- test-region detection ----------------------------------------------

/// Token-index ranges (inclusive) covered by `#[cfg(test)]` / `#[test]`
/// items.
fn find_test_regions(tokens: &[Token], code: &[usize]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut k = 0usize;
    while k + 1 < code.len() {
        if !(tokens[code[k]].is_punct('#') && tokens[code[k + 1]].is_punct('[')) {
            k += 1;
            continue;
        }
        // Collect the attribute tokens up to the matching `]`.
        let attr_start = code[k];
        let mut depth = 0usize;
        let mut j = k + 1;
        let mut attr_idents: Vec<&str> = Vec::new();
        while j < code.len() {
            let t = &tokens[code[j]];
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokenKind::Ident {
                attr_idents.push(&t.text);
            }
            j += 1;
        }
        let is_test_attr = attr_idents.first() == Some(&"test")
            || (attr_idents.first() == Some(&"cfg")
                && attr_idents.contains(&"test")
                && !attr_idents.contains(&"not"));
        if !is_test_attr {
            k = j;
            continue;
        }
        // The attribute's item extends to its matching closing brace —
        // or to a `;` for brace-less items (`#[cfg(test)] use ...;`).
        let mut brace_depth = 0usize;
        let mut end = code[j];
        let mut m = j + 1;
        while m < code.len() {
            let t = &tokens[code[m]];
            if brace_depth == 0 && t.is_punct(';') {
                end = code[m];
                break;
            }
            if t.is_punct('{') {
                brace_depth += 1;
            } else if t.is_punct('}') {
                brace_depth -= 1;
                if brace_depth == 0 {
                    end = code[m];
                    break;
                }
            }
            m += 1;
        }
        if m >= code.len() {
            end = tokens.len() - 1;
        }
        regions.push((attr_start, end));
        k = m + 1;
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(s, e)| s <= idx && idx <= e)
}

// ---- annotations --------------------------------------------------------

/// Field names annotated `// lint: publishes`.
fn publish_fields(tokens: &[Token]) -> Vec<String> {
    let mut fields = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = tok.text.trim_start_matches('/').trim();
        if body.strip_prefix("lint:").map(str::trim) != Some("publishes") {
            continue;
        }
        // The annotated field is the next code identifier, skipping
        // visibility qualifiers (`pub`, `pub(crate)`, ...).
        if let Some(name) = tokens[i + 1..]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .find(|t| !matches!(t.text.as_str(), "pub" | "crate" | "super" | "in" | "self"))
        {
            fields.push(name.text.clone());
        }
    }
    fields
}

// ---- rules --------------------------------------------------------------

const SORT_METHODS: [&str; 7] = [
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
    "select_nth_unstable_by",
    "partition_by",
];

fn check_nan_sort(tokens: &[Token], code: &[usize], findings: &mut Vec<Finding>) {
    for (k, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || !SORT_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(&open) = code.get(k + 1) else {
            continue;
        };
        if !tokens[open].is_punct('(') {
            continue;
        }
        // Scan the comparator argument (paren-matched) for partial_cmp.
        let mut depth = 0usize;
        for &j in &code[k + 1..] {
            let t = &tokens[j];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("partial_cmp") {
                findings.push(Finding {
                    rule: "nan-sort",
                    line: t.line,
                    message: "partial_cmp in a sort comparator is NaN-unsafe (non-total \
                              order panics or corrupts the sort); use f64::total_cmp or Ord::cmp"
                        .to_string(),
                });
            }
        }
    }
}

fn check_hot_path_panic(
    tokens: &[Token],
    code: &[usize],
    test_regions: &[(usize, usize)],
    findings: &mut Vec<Finding>,
) {
    for (k, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || in_regions(test_regions, i) {
            continue;
        }
        let next_is = |ch| {
            code.get(k + 1)
                .is_some_and(|&n| tokens[n].is_punct(ch))
        };
        let prev_is_dot = k > 0 && tokens[code[k - 1]].is_punct('.');
        let (hit, advice) = match t.text.as_str() {
            "unwrap" | "expect" if prev_is_dot && next_is('(') => (
                true,
                "return a Result, use let-else/unwrap_or, or assert! the precondition",
            ),
            "panic" if next_is('!') => (
                true,
                "return an error or make the precondition an assert! with context",
            ),
            _ => (false, ""),
        };
        if hit {
            findings.push(Finding {
                rule: "hot-path-panic",
                line: t.line,
                message: format!(
                    "`{}` in non-test hot-path code can abort serving; {advice}",
                    t.text
                ),
            });
        }
    }
}

/// Statement span around code-position `k`: back to the previous
/// `;`/`{`/`}` and forward to the next `;` (brace-aware only forward).
fn statement_span(tokens: &[Token], code: &[usize], k: usize) -> (usize, usize) {
    let mut start = k;
    while start > 0 {
        let t = &tokens[code[start - 1]];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start -= 1;
    }
    let mut end = k;
    while end + 1 < code.len() {
        let t = &tokens[code[end]];
        if t.is_punct(';') {
            break;
        }
        end += 1;
    }
    (start, end)
}

fn check_relaxed_publish(
    tokens: &[Token],
    code: &[usize],
    publish_fields: &[String],
    findings: &mut Vec<Finding>,
) {
    for (k, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        if !t.is_ident("Relaxed") {
            continue;
        }
        let (start, end) = statement_span(tokens, code, k);
        let stmt_idents: Vec<&str> = code[start..=end]
            .iter()
            .filter(|&&j| tokens[j].kind == TokenKind::Ident)
            .map(|&j| tokens[j].text.as_str())
            .collect();
        let pointerish = stmt_idents
            .iter()
            .any(|s| matches!(*s, "AtomicPtr" | "into_raw" | "from_raw"));
        let published_field = publish_fields
            .iter()
            .find(|f| stmt_idents.contains(&f.as_str()));
        if pointerish || published_field.is_some() {
            let what = published_field.map_or_else(
                || "a raw-pointer publication".to_string(),
                |f| format!("field `{f}` (annotated `lint: publishes`)"),
            );
            findings.push(Finding {
                rule: "relaxed-publish",
                line: t.line,
                message: format!(
                    "Ordering::Relaxed on {what} gives readers no visibility guarantee \
                     for the data behind the publication; use Acquire/Release (or SeqCst)"
                ),
            });
        }
    }
}

/// `true` when the identifier at `code[k]` is called: `(` follows it,
/// directly or after a turbofish (`name::<T>(`, generics nested).
fn is_called(tokens: &[Token], code: &[usize], k: usize) -> bool {
    let punct = |j: usize, ch| code.get(j).is_some_and(|&n| tokens[n].is_punct(ch));
    let mut j = k + 1;
    if punct(j, ':') && punct(j + 1, ':') && punct(j + 2, '<') {
        j += 2;
        let mut depth = 0usize;
        loop {
            if j >= code.len() {
                return false;
            }
            if punct(j, '<') {
                depth += 1;
            } else if punct(j, '>') && !punct(j - 1, '-') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        j += 1;
    }
    punct(j, '(')
}

fn check_unbounded_queue(tokens: &[Token], code: &[usize], findings: &mut Vec<Finding>) {
    for (k, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev2_ident = |name: &str| {
            k >= 2
                && tokens[code[k - 1]].is_punct(':')
                && tokens[code[k - 2]].is_punct(':')
                && k >= 3
                && tokens[code[k - 3]].is_ident(name)
        };
        let hit = match t.text.as_str() {
            "channel" if is_called(tokens, code, k) && prev2_ident("mpsc") => true,
            "unbounded" | "unbounded_channel" if is_called(tokens, code, k) => true,
            _ => false,
        };
        if hit {
            findings.push(Finding {
                rule: "unbounded-queue",
                line: t.line,
                message: format!(
                    "`{}` constructs an unbounded queue — a slow consumer then buffers \
                     without limit; use BoundedLog (or another bounded primitive) so \
                     backpressure reaches producers",
                    t.text
                ),
            });
        }
    }
}
