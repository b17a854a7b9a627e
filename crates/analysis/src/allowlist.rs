//! The audit allowlist (`audit-allow.txt`): explicitly acknowledged
//! findings.
//!
//! Format (one entry per line, `#` comments and blank lines ignored):
//!
//! ```text
//! <rule-id> <path> <line> <reason...>
//! ```
//!
//! e.g. `unbounded-queue crates/foo/src/bar.rs 42 diagnostics-only channel, drained per tick`.
//!
//! Entries are matched exactly on rule, repo-relative path (forward
//! slashes), and line number — so an allowlisted finding that moves
//! must be re-acknowledged, and entries that no longer match anything
//! are reported as stale. Policy: the allowlist is a last resort, kept
//! empty; the rules in [`NEVER_ALLOWLIST`] must never be allowlisted
//! (fix the code instead), and entries for them are rejected outright.

/// Rules for which allowlisting is forbidden by policy: NaN-unsafe
/// sorts, panics on the hot path and relaxed publication corrupt or
/// abort serving, and a nondeterministic fingerprint invalidates
/// bit-identical replay at the root.
pub const NEVER_ALLOWLIST: [&str; 4] = [
    "nan-sort",
    "hot-path-panic",
    "relaxed-publish",
    "taint-into-fingerprint",
];

/// One parsed allowlist entry.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Rule id the entry acknowledges.
    pub rule: String,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line of the acknowledged finding.
    pub line: u32,
    /// Why this violation is acceptable.
    pub reason: String,
}

/// A parsed allowlist file.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<Entry>,
}

impl Allowlist {
    /// Parse allowlist text. Fails (with a line-numbered message) on
    /// malformed entries, missing reasons, or entries for rules in
    /// [`NEVER_ALLOWLIST`].
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, char::is_whitespace);
            let (Some(rule), Some(path), Some(lineno)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "allowlist line {}: expected `<rule> <path> <line> <reason>`, got `{raw}`",
                    n + 1
                ));
            };
            let reason = parts.next().map(str::trim).unwrap_or_default();
            if reason.is_empty() {
                return Err(format!(
                    "allowlist line {}: entry needs a reason (why is this violation acceptable?)",
                    n + 1
                ));
            }
            if NEVER_ALLOWLIST.contains(&rule) {
                return Err(format!(
                    "allowlist line {}: rule `{rule}` must never be allowlisted — fix the code",
                    n + 1
                ));
            }
            let Ok(lineno) = lineno.parse::<u32>() else {
                return Err(format!(
                    "allowlist line {}: `{lineno}` is not a line number",
                    n + 1
                ));
            };
            entries.push(Entry {
                rule: rule.to_string(),
                path: path.to_string(),
                line: lineno,
                reason: reason.to_string(),
            });
        }
        Ok(Allowlist { entries })
    }

    /// Index of the entry covering `(rule, path, line)`, if any.
    pub fn lookup(&self, rule: &str, path: &str, line: u32) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.rule == rule && e.path == path && e.line == line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_comments() {
        let text = "# header\n\nunbounded-queue crates/x/src/a.rs 7 drained per tick\n";
        let list = Allowlist::parse(text).expect("valid allowlist");
        assert_eq!(list.entries.len(), 1);
        assert_eq!(list.lookup("unbounded-queue", "crates/x/src/a.rs", 7), Some(0));
        assert_eq!(list.lookup("unbounded-queue", "crates/x/src/a.rs", 8), None);
        assert_eq!(list.lookup("panic-reachable", "crates/x/src/a.rs", 7), None);
    }

    #[test]
    fn rejects_missing_reason() {
        assert!(Allowlist::parse("unbounded-queue tests/a.rs 3").is_err());
        assert!(Allowlist::parse("unbounded-queue tests/a.rs 3   ").is_err());
    }

    #[test]
    fn rejects_never_allowlist_rules() {
        for rule in NEVER_ALLOWLIST {
            let line = format!("{rule} crates/core/src/x.rs 1 because reasons");
            assert!(Allowlist::parse(&line).is_err(), "{rule} must be rejected");
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Allowlist::parse("just-a-rule").is_err());
        assert!(Allowlist::parse("rule path NaN reason").is_err());
    }
}
