//! Panic reachability from the public serve entry points.
//!
//! The serving surface must not panic: a panic inside `recommend`,
//! `serve`, or a `LiveContext`/`ProfileStore` read poisons locks and
//! kills worker threads, breaking the replay story far more bluntly
//! than any nondeterminism. This pass walks the cross-crate call graph
//! from every public serve entry point and reports each transitively
//! reachable panic site with the shortest call chain that reaches it.
//!
//! Complements the token rule `hot-path-panic` ([`crate::rules`]);
//! neither supersedes the other. This pass sees `unwrap` three crates
//! away from the serve surface through the call graph, in any crate;
//! the token rule sees `unwrap` anywhere in a hot-path crate's `src/`,
//! including code no serve entry point reaches, such as the ingest
//! path's `Ingestor::commit_epoch`.
//!
//! `assert!`/`assert_eq!` are deliberately not panic sites — they are
//! the workspace's sanctioned precondition idiom. Computed indexing is
//! reported at `warn` severity (`panic-reachable-indexing`): it is the
//! dominant bounds-guarded idiom and a token-level view cannot see the
//! guards, so it is surfaced for review without failing the build.

use crate::audit::{AuditFinding, Severity};
use crate::callgraph::{render_chain, shortest_chains, FnFacts, PanicKind};
use crate::symbols::Symbols;

/// The public serve surface: `(impl type, method prefix)` pairs.
/// An empty prefix selects every method of the type.
const ENTRY_POINTS: [(&str, &str); 12] = [
    ("Recommender", "recommend"),
    ("WindowedRecommender", "recommend"),
    ("WindowedRecommender", "trend_diff"),
    ("WindowedRecommender", "context"),
    ("AdaptiveRecommender", "serve"),
    ("LiveContext", "current"),
    ("LiveContext", "epoch"),
    ("ProfileStore", "get"),
    ("ProfileStore", "users"),
    ("ProfileStore", "stats"),
    ("HttpServer", ""),
    ("AdmissionController", "admit"),
];

/// Fn indices of the serve entry points present in this workspace.
pub fn entry_points(sym: &Symbols) -> Vec<usize> {
    let mut roots = Vec::new();
    for (ix, info) in sym.fns.iter().enumerate() {
        if info.is_test || info.def.body.is_none() {
            continue;
        }
        let Some(owner) = info.owner else {
            continue;
        };
        for (ty, prefix) in ENTRY_POINTS {
            if owner == ty && info.def.name.starts_with(prefix) {
                roots.push(ix);
                break;
            }
        }
    }
    roots
}

/// Run the pass: BFS from the entry points, one finding per reachable
/// panic site (shortest chain wins).
pub fn run(sym: &Symbols, facts: &[FnFacts]) -> Vec<AuditFinding> {
    let roots = entry_points(sym);
    let reached = shortest_chains(sym, facts, &roots);
    let mut findings = Vec::new();
    for (&fn_ix, _) in reached.iter() {
        let info = &sym.fns[fn_ix];
        if info.is_test {
            continue;
        }
        for site in &facts[fn_ix].panics {
            let (rule, severity) = match site.kind {
                PanicKind::Indexing => ("panic-reachable-indexing", Severity::Warn),
                _ => ("panic-reachable", Severity::Deny),
            };
            let mut chain = render_chain(sym, &reached, fn_ix);
            chain.push(format!(
                "{} can panic via `{}` at {}:{}",
                info.qual_name(),
                site.what,
                sym.files[info.file].path,
                site.line
            ));
            let entry_desc = if chain.len() == 1 {
                format!("serve entry point {}", info.qual_name())
            } else {
                chain
                    .first()
                    .cloned()
                    .unwrap_or_default()
                    .split(" calls ")
                    .next()
                    .map(|s| format!("serve entry point {s}"))
                    .unwrap_or_default()
            };
            findings.push(AuditFinding {
                rule,
                path: sym.files[info.file].path.clone(),
                line: site.line,
                message: format!(
                    "`{}` in {} is reachable from {} ({} hop(s))",
                    site.what,
                    info.qual_name(),
                    entry_desc,
                    chain.len() - 1
                ),
                chain,
                severity,
            });
        }
    }
    // Deterministic output order; two panic sites on one source line
    // (e.g. chained `expect`s) collapse into a single finding.
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule))
    });
    findings.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
    findings
}
