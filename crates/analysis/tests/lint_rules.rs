//! Fixture tests: each token rule must fire on a minimal positive
//! example and stay silent on the sanctioned alternative.

use evorec_analysis::rules::{lint_source, FileClass};
use evorec_analysis::tokenizer::tokenize;

const HOT: FileClass = FileClass { hot_path: true };
const PLAIN: FileClass = FileClass { hot_path: false };

fn rules_hit(source: &str, class: FileClass) -> Vec<&'static str> {
    lint_source(&tokenize(source), class)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

// ---- nan-sort -----------------------------------------------------------

#[test]
fn nan_sort_fires_on_partial_cmp_comparator() {
    let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
    assert_eq!(rules_hit(src, PLAIN), vec!["nan-sort"]);
}

#[test]
fn nan_sort_fires_in_max_by_and_binary_search_by() {
    let src = "fn f(v: &[f64], x: f64) {\n\
               let _ = v.iter().max_by(|a, b| a.partial_cmp(b).unwrap());\n\
               let _ = v.binary_search_by(|p| p.partial_cmp(&x).unwrap());\n}";
    assert_eq!(rules_hit(src, PLAIN), vec!["nan-sort", "nan-sort"]);
}

#[test]
fn nan_sort_quiet_on_total_cmp_and_non_sort_partial_cmp() {
    let src = "fn f(v: &mut Vec<f64>, a: f64, b: f64) -> Option<std::cmp::Ordering> {\n\
               v.sort_by(|x, y| x.total_cmp(y));\n\
               a.partial_cmp(&b)\n}";
    assert!(rules_hit(src, PLAIN).is_empty());
}

#[test]
fn nan_sort_quiet_when_pattern_only_in_string() {
    let src = r#"fn f() { let _ = "sort_by(|a,b| a.partial_cmp(b))"; }"#;
    assert!(rules_hit(src, PLAIN).is_empty());
}

// ---- hot-path-panic -----------------------------------------------------

#[test]
fn hot_path_panic_fires_on_unwrap_expect_panic() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               let a = x.unwrap();\n\
               let b = x.expect(\"present\");\n\
               if a + b == 0 { panic!(\"impossible\"); }\n\
               a\n}";
    assert_eq!(
        rules_hit(src, HOT),
        vec!["hot-path-panic", "hot-path-panic", "hot-path-panic"]
    );
}

#[test]
fn hot_path_panic_only_applies_to_hot_path_crates() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    assert!(rules_hit(src, PLAIN).is_empty());
    assert_eq!(rules_hit(src, HOT), vec!["hot-path-panic"]);
}

#[test]
fn file_class_names_the_src_trees_of_the_hot_path_crates() {
    for label in [
        "crates/core/src/recommender.rs",
        "crates/stream/src/ingest.rs",
        "crates/windows/src/manager.rs",
        "crates/adapt/src/store.rs",
        "crates/kb/src/store.rs",
        "crates/obs/src/trace.rs",
        "crates/telemetry/src/collector.rs",
        "crates/serve/src/server.rs",
    ] {
        assert!(FileClass::of(label).hot_path, "{label}");
    }
    for label in [
        "crates/measures/src/report.rs",
        "crates/stream/tests/sched_log.rs",
        "crates/shims/sched/src/lib.rs",
        "src/lib.rs",
        "tests/streaming.rs",
    ] {
        assert!(!FileClass::of(label).hot_path, "{label}");
    }
}

#[test]
fn hot_path_panic_exempts_cfg_test_modules_and_test_fns() {
    let src = "fn prod(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn t() { prod(None).checked_add(1).unwrap(); panic!(\"boom\"); }\n\
               }";
    assert!(rules_hit(src, HOT).is_empty());
}

#[test]
fn hot_path_panic_does_not_exempt_cfg_not_test() {
    let src = "#[cfg(not(test))]\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
    assert_eq!(rules_hit(src, HOT), vec!["hot-path-panic"]);
}

#[test]
fn hot_path_panic_quiet_on_assert_and_unwrap_or_family() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               assert!(x.is_some(), \"precondition\");\n\
               x.unwrap_or_else(|| 0).max(x.unwrap_or_default())\n}";
    assert!(rules_hit(src, HOT).is_empty());
}

// ---- relaxed-publish ----------------------------------------------------

#[test]
fn relaxed_publish_fires_on_pointer_statements() {
    let src = "fn f(slot: &std::sync::atomic::AtomicPtr<u32>, p: Box<u32>) {\n\
               slot.store(Box::into_raw(p), Ordering::Relaxed);\n}";
    assert_eq!(rules_hit(src, PLAIN), vec!["relaxed-publish"]);
}

#[test]
fn relaxed_publish_fires_on_annotated_field() {
    let src = "struct S {\n\
               // lint: publishes\n\
               pub epoch: AtomicU64,\n\
               }\n\
               impl S { fn bump(&self) { self.epoch.fetch_add(1, Ordering::Relaxed); } }";
    assert_eq!(rules_hit(src, PLAIN), vec!["relaxed-publish"]);
}

#[test]
fn relaxed_publish_quiet_on_plain_counters_and_acqrel_publishes() {
    let src = "struct S {\n\
               // lint: publishes\n\
               epoch: AtomicU64,\n\
               hits: AtomicU64,\n\
               }\n\
               impl S { fn f(&self) {\n\
               self.hits.fetch_add(1, Ordering::Relaxed);\n\
               self.epoch.fetch_add(1, Ordering::AcqRel);\n\
               } }";
    assert!(rules_hit(src, PLAIN).is_empty());
}

// ---- unbounded-queue ----------------------------------------------------

#[test]
fn unbounded_queue_fires_on_the_usual_constructors() {
    // A turbofish may sit between the name and the paren.
    let src = "fn f() {\n\
               let (_tx, _rx) = std::sync::mpsc::channel::<u32>();\n\
               }";
    let src2 = "fn f() { let (_tx, _rx) = mpsc::channel(); let _q = unbounded(); }";
    let src3 = "fn f() { let (_tx, _rx) = unbounded_channel(); }";
    let src4 = "fn f() { let _q = unbounded::<Vec<fn() -> u8>>(); }";
    assert_eq!(rules_hit(src, PLAIN), vec!["unbounded-queue"]);
    assert_eq!(rules_hit(src2, PLAIN), vec!["unbounded-queue", "unbounded-queue"]);
    assert_eq!(rules_hit(src3, PLAIN), vec!["unbounded-queue"]);
    assert_eq!(rules_hit(src4, PLAIN), vec!["unbounded-queue"]);
}

#[test]
fn unbounded_queue_quiet_on_bounded_constructions() {
    let src = "fn f() { let log = BoundedLog::bounded(64); let (tx, rx) = sync_channel(8); let _ = (log, tx, rx); }";
    assert!(rules_hit(src, PLAIN).is_empty());
}

// ---- diagnostics --------------------------------------------------------

#[test]
fn findings_carry_positions_and_sorted_order() {
    let src = "fn f(x: Option<u32>) {\n    x.unwrap();\n    x.unwrap();\n}";
    let findings = lint_source(&tokenize(src), HOT);
    assert_eq!(findings.len(), 2);
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[1].line, 3);
    assert!(findings[0].message.contains("unwrap"));
}
