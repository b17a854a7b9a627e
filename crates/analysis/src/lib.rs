//! Static analysis for the evorec workspace: the `evorec-audit` gate.
//!
//! One tool on a dependency-free tokenizer (the workspace builds fully
//! offline), in two layers ([`audit`] wires them together):
//!
//! * **Token rules** — file-local pattern checks over every workspace
//!   `.rs` file. See [`rules`] for the invariants enforced.
//! * **Global passes** — a tolerant [`parser`] over the same tokens, a
//!   workspace [`symbols`] table, a cross-crate [`callgraph`], and
//!   three passes on top: determinism [`taint`] (unordered iteration /
//!   clocks / RNG flowing into fingerprints, publishes, codecs and
//!   reports), [`panics`] reachability from the public serve surface,
//!   and [`locks`] order inference cross-checked against the
//!   `// lint: lock-order` annotations.
//!
//! Findings are acknowledged through one [`allowlist`] (mandatory
//! reasons, stale entries fail, a never-allowlist policy) and emitted
//! as text or, under `--json`, via [`json`].

pub mod allowlist;
pub mod audit;
pub mod callgraph;
pub mod json;
pub mod locks;
pub mod panics;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod taint;
pub mod tokenizer;
pub mod ty;

pub use allowlist::Allowlist;
pub use audit::{AuditFinding, Severity};
pub use rules::{lint_source, Finding};
