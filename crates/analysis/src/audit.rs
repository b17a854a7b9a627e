//! The `evorec-audit` pipeline: walk the workspace, tokenize each file
//! once, run the token [`rules`](crate::rules) on every file, then
//! parse → symbol table → call-graph facts → the three analysis passes
//! (determinism taint, panic reachability, lock-order inference),
//! merged into one deterministic finding list.
//!
//! The token rules are file-local: they see one file at a time, and
//! they read every `.rs` file, tests and vendored shims included. The
//! parser passes are workspace-global: taint flows and panic chains
//! cross crate boundaries through the call graph, so they read the
//! workspace's own library and binary code only ([`is_parsed`]).
//!
//! Severity model: `deny` findings fail the build, `warn` findings are
//! reported for review (`panic-reachable-indexing` and
//! `lock-annotation-unused` — both dominated by sanctioned idioms a
//! static view cannot fully discharge). Every token-rule finding is
//! `deny`. Findings are acknowledged in one [`Allowlist`], whose
//! policy list names the rules that can never be acknowledged.

use crate::allowlist::{Allowlist, Entry};
use crate::callgraph::collect_facts;
use crate::parser::parse_file;
use crate::rules::{lint_source, FileClass};
use crate::symbols::Symbols;
use crate::tokenizer::tokenize;
use crate::{locks, panics, taint};
use std::fs;
use std::path::Path;

/// Whether a finding fails the build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Fails the audit (exit 1) unless allowlisted.
    Deny,
    /// Reported for review; never fails the audit.
    Warn,
}

impl Severity {
    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One audit finding, with the evidence chain that produced it.
#[derive(Clone, Debug)]
pub struct AuditFinding {
    /// Rule id (`taint-into-*`, `panic-reachable*`, `lock-order-*`).
    pub rule: &'static str,
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// 1-based line of the sink / panic site / acquisition.
    pub line: u32,
    /// One-line description.
    pub message: String,
    /// Source → call-chain → sink evidence, one hop per element.
    pub chain: Vec<String>,
    /// Whether this finding fails the build.
    pub severity: Severity,
}

/// One workspace source file, ready to audit.
pub struct SourceFile {
    /// Repo-relative label (forward slashes).
    pub label: String,
    /// Owning crate name (directory under `crates/`).
    pub crate_name: String,
    /// File contents.
    pub source: String,
}

/// Directories whose files only the token rules read. `shims` is
/// vendored third-party API surface, not workspace logic; `tests`/
/// `benches`/`examples` are all-test code where panics and ad-hoc
/// iteration are sanctioned.
const TOKEN_ONLY_DIRS: [&str; 4] = ["shims", "tests", "benches", "examples"];

/// Whether the parser passes read the file at `label`: no directory on
/// its path is one of the token-only trees.
pub fn is_parsed(label: &str) -> bool {
    let dirs = label.rsplit_once('/').map_or("", |(dirs, _)| dirs);
    !dirs.split('/').any(|d| TOKEN_ONLY_DIRS.contains(&d))
}

/// Collect every `.rs` file under `root`, sorted by label, skipping
/// build output (`target`) and dot-directories (`.git`, `.github`, ...).
pub fn collect_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.label.cmp(&b.label));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut entries: Vec<_> = entries
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reading {}: {e}", dir.display()))?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let label = relative_label(root, &path);
            let source =
                fs::read_to_string(&path).map_err(|e| format!("reading {label}: {e}"))?;
            out.push(SourceFile {
                crate_name: crate_of(&label),
                label,
                source,
            });
        }
    }
    Ok(())
}

/// Repo-relative path with forward slashes.
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The crate a repo-relative label belongs to (`crates/<name>/...`).
fn crate_of(label: &str) -> String {
    let mut parts = label.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "workspace".to_string(),
    }
}

/// Run the full audit pipeline over in-memory sources: the token rules
/// on every file, the parser passes on the [`is_parsed`] ones.
pub fn audit_sources(files: &[SourceFile]) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    let mut parsed_files = Vec::new();
    let mut parsed_tokens = Vec::new();
    for file in files {
        let tokens = tokenize(&file.source);
        findings.extend(
            lint_source(&tokens, FileClass::of(&file.label))
                .into_iter()
                .map(|f| AuditFinding {
                    rule: f.rule,
                    path: file.label.clone(),
                    line: f.line,
                    message: f.message,
                    chain: Vec::new(),
                    severity: Severity::Deny,
                }),
        );
        if is_parsed(&file.label) {
            parsed_files.push(parse_file(&file.label, &file.crate_name, &tokens));
            parsed_tokens.push(tokens);
        }
    }
    let sym = Symbols::build(&parsed_files);
    let facts = collect_facts(&sym);
    findings.extend(taint::run(&sym));
    findings.extend(panics::run(&sym, &facts));
    findings.extend(locks::run(&sym, &facts, &parsed_tokens));
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    findings
}

/// The audit result after allowlist application.
pub struct AuditOutcome {
    /// Findings not covered by the allowlist.
    pub findings: Vec<AuditFinding>,
    /// `(finding, reason)` pairs the allowlist acknowledged.
    pub allowlisted: Vec<(AuditFinding, String)>,
    /// Allowlist entries that matched nothing (these fail the audit:
    /// either the finding moved or the entry is dead weight).
    pub stale: Vec<Entry>,
}

impl AuditOutcome {
    /// `true` when the audit should fail the build.
    pub fn failed(&self) -> bool {
        !self.stale.is_empty()
            || self
                .findings
                .iter()
                .any(|f| f.severity == Severity::Deny)
    }
}

/// Split findings into reported / acknowledged, and detect stale
/// allowlist entries.
pub fn apply_allowlist(findings: Vec<AuditFinding>, allow: &Allowlist) -> AuditOutcome {
    let mut used = vec![false; allow.entries.len()];
    let mut out = AuditOutcome {
        findings: Vec::new(),
        allowlisted: Vec::new(),
        stale: Vec::new(),
    };
    for f in findings {
        match allow.lookup(f.rule, &f.path, f.line) {
            Some(ix) => {
                used[ix] = true;
                let reason = allow.entries[ix].reason.clone();
                out.allowlisted.push((f, reason));
            }
            None => out.findings.push(f),
        }
    }
    for (ix, entry) in allow.entries.iter().enumerate() {
        if !used[ix] {
            out.stale.push(entry.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(label: &str, source: &str) -> SourceFile {
        SourceFile {
            label: label.to_string(),
            crate_name: crate_of(label),
            source: source.to_string(),
        }
    }

    #[test]
    fn pipeline_finds_cross_file_taint() {
        // The unordered iteration lives in one file, the fingerprint
        // sink in another: only a workspace-global view connects them.
        let files = [
            src(
                "crates/core/src/a.rs",
                "pub struct Weights { pub map: FxHashMap<u32, f64> }\n\
                 impl Weights {\n\
                     pub fn mass(&self) -> f64 {\n\
                         let mut total = 0.0;\n\
                         for (_k, v) in self.map.iter() { total += v; }\n\
                         total\n\
                     }\n\
                 }",
            ),
            src(
                "crates/core/src/b.rs",
                "pub fn fingerprint(w: &Weights, h: &mut Hasher) {\n\
                     digest_step(h, w.mass());\n\
                 }",
            ),
        ];
        let findings = audit_sources(&files);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "taint-into-fingerprint" && f.path == "crates/core/src/b.rs"),
            "{findings:?}"
        );
    }

    #[test]
    fn parser_passes_skip_the_token_only_trees() {
        for label in [
            "src/lib.rs",
            "crates/core/src/lib.rs",
            "crates/core/src/tests.rs",
        ] {
            assert!(is_parsed(label), "{label}");
        }
        for label in [
            "tests/streaming.rs",
            "crates/stream/tests/sched_log.rs",
            "crates/bench/benches/windows.rs",
            "examples/quickstart.rs",
            "crates/shims/sched/src/lib.rs",
        ] {
            assert!(!is_parsed(label), "{label}");
        }
    }

    #[test]
    fn allowlist_acknowledges_and_detects_stale() {
        let f = AuditFinding {
            rule: "panic-reachable",
            path: "crates/x/src/a.rs".to_string(),
            line: 7,
            message: "m".to_string(),
            chain: Vec::new(),
            severity: Severity::Deny,
        };
        let allow = Allowlist::parse(
            "panic-reachable crates/x/src/a.rs 7 guarded by construction\n\
             panic-reachable crates/x/src/a.rs 99 stale entry",
        )
        .expect("valid allowlist");
        let outcome = apply_allowlist(vec![f], &allow);
        assert!(outcome.findings.is_empty());
        assert_eq!(outcome.allowlisted.len(), 1);
        assert_eq!(outcome.stale.len(), 1);
        assert!(outcome.failed(), "stale entries fail the audit");
    }

    #[test]
    fn fingerprint_taint_is_never_allowlistable() {
        let err =
            Allowlist::parse("taint-into-fingerprint crates/x/src/a.rs 3 we promise it is fine")
                .expect_err("must be rejected");
        assert!(err.contains("never be allowlisted"), "{err}");
    }

    #[test]
    fn warn_findings_do_not_fail() {
        let f = AuditFinding {
            rule: "panic-reachable-indexing",
            path: "crates/x/src/a.rs".to_string(),
            line: 3,
            message: "m".to_string(),
            chain: Vec::new(),
            severity: Severity::Warn,
        };
        let outcome = apply_allowlist(vec![f], &Allowlist::default());
        assert!(!outcome.failed());
        assert_eq!(outcome.findings.len(), 1);
    }
}
