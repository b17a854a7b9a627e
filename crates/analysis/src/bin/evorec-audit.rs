//! `evorec-audit`: the workspace's static-analysis gate.
//!
//! ```text
//! cargo run -p evorec-analysis --bin evorec-audit [-- --root <dir>] [--allowlist <file>] [--json]
//! ```
//!
//! Runs the token rules (NaN-safe sort comparators, panic-free hot
//! paths, publication-ordering atomics, bounded queues) on every
//! workspace `.rs` file, then parses the workspace's own crates, builds
//! a cross-crate call graph, and runs three global passes: determinism
//! taint (unordered iteration / clocks / RNG flowing into
//! fingerprints, publishes, codecs, reports), panic reachability from
//! the public serve surface, and lock-order inference against the
//! `// lint: lock-order` annotations. Findings of the global passes
//! carry the full source → call-chain → sink evidence path.
//!
//! Exit codes: `0` clean (warn-level findings do not fail), `1` deny
//! findings or stale/invalid allowlist entries, `2` usage or I/O
//! error. Default allowlist is `<root>/audit-allow.txt`; the rules in
//! `evorec_analysis::allowlist::NEVER_ALLOWLIST` can never be
//! allowlisted.

use evorec_analysis::audit::{self, AuditFinding};
use evorec_analysis::json::{self, Obj};
use evorec_analysis::Allowlist;
use std::path::PathBuf;

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut root = PathBuf::from(".");
    let mut allowlist_path: Option<PathBuf> = None;
    let mut as_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--allowlist" => match args.next() {
                Some(f) => allowlist_path = Some(PathBuf::from(f)),
                None => return usage("--allowlist needs a file"),
            },
            "--json" => as_json = true,
            "--help" | "-h" => {
                eprintln!(
                    "evorec-audit [--root <dir>] [--allowlist <file>] [--json]\n\
                     Token rules on every workspace source, then the \
                     determinism/panic/lock-order audit; \
                     default allowlist is <root>/audit-allow.txt."
                );
                return 0;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let allowlist_path = allowlist_path.unwrap_or_else(|| root.join("audit-allow.txt"));
    let allowlist = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => match Allowlist::parse(&text) {
            Ok(list) => list,
            Err(msg) => {
                eprintln!("error: {}: {msg}", allowlist_path.display());
                return 1;
            }
        },
        Err(_) => Allowlist::default(),
    };

    let files = match audit::collect_workspace(&root) {
        Ok(files) => files,
        Err(msg) => {
            eprintln!("error: {msg}");
            return 2;
        }
    };
    let file_count = files.len();
    let parsed_count = files.iter().filter(|f| audit::is_parsed(&f.label)).count();
    let findings = audit::audit_sources(&files);
    let outcome = audit::apply_allowlist(findings, &allowlist);

    if as_json {
        println!("{}", render_json(&outcome));
    } else {
        for f in &outcome.findings {
            println!(
                "{}:{}: [{}] {}: {}",
                f.path,
                f.line,
                f.rule,
                f.severity.label(),
                f.message
            );
            for hop in &f.chain {
                println!("    - {hop}");
            }
        }
        for e in &outcome.stale {
            println!(
                "{}: stale allowlist entry: [{}] {}:{} no longer fires — remove it",
                allowlist_path.display(),
                e.rule,
                e.path,
                e.line
            );
        }
    }

    let deny = outcome
        .findings
        .iter()
        .filter(|f| f.severity == audit::Severity::Deny)
        .count();
    let warn = outcome.findings.len() - deny;
    if outcome.failed() {
        eprintln!(
            "evorec-audit: {deny} deny, {warn} warn finding(s), {} stale allowlist entr(y/ies) \
             across {file_count} files ({parsed_count} parsed)",
            outcome.stale.len()
        );
        1
    } else {
        eprintln!(
            "evorec-audit: clean ({file_count} files, {parsed_count} parsed, \
             {warn} warn finding(s), {} acknowledged)",
            outcome.allowlisted.len()
        );
        0
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("error: {msg} (try --help)");
    2
}

fn finding_json(f: &AuditFinding) -> String {
    Obj::new()
        .str("rule", f.rule)
        .str("path", &f.path)
        .num("line", u64::from(f.line))
        .str("severity", f.severity.label())
        .str("message", &f.message)
        .str_array("chain", &f.chain)
        .finish()
}

fn render_json(outcome: &audit::AuditOutcome) -> String {
    let findings: Vec<String> = outcome.findings.iter().map(finding_json).collect();
    let allowlisted: Vec<String> = outcome
        .allowlisted
        .iter()
        .map(|(f, reason)| {
            Obj::new()
                .raw("finding", &finding_json(f))
                .str("reason", reason)
                .finish()
        })
        .collect();
    let stale: Vec<String> = outcome
        .stale
        .iter()
        .map(|e| {
            Obj::new()
                .str("rule", &e.rule)
                .str("path", &e.path)
                .num("line", u64::from(e.line))
                .finish()
        })
        .collect();
    Obj::new()
        .str("tool", "evorec-audit")
        .raw("findings", &json::array(&findings))
        .raw("allowlisted", &json::array(&allowlisted))
        .raw("stale", &json::array(&stale))
        .finish()
}
