//! Paired tainted/clean fixture programs pinning the audit pipeline's
//! behaviour: every taint source, sink and cleanser has a twin pair
//! (the tainted member must fire, the clean member must not), panic
//! reachability is pinned through a multi-hop chain, the lock pass is
//! pinned on inferred-vs-annotated mismatches and on the non-nested
//! acquisitions it leaves alone, and the token rules are pinned where
//! only they reach: test trees the parser passes skip, and hot-path code
//! no serve entry point calls. The final test runs the full pipeline
//! over the real workspace and requires zero deny findings with an
//! empty allowlist — the audit gate itself.

use evorec_analysis::audit::{audit_sources, collect_workspace, SourceFile};
use evorec_analysis::{AuditFinding, Severity};
use std::path::Path;

fn src(label: &str, source: &str) -> SourceFile {
    let crate_name = label
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("workspace")
        .to_string();
    SourceFile {
        label: label.to_string(),
        crate_name,
        source: source.to_string(),
    }
}

/// Deny-severity rule ids produced by auditing `files`.
fn deny_rules(files: &[SourceFile]) -> Vec<&'static str> {
    audit_sources(files)
        .into_iter()
        .filter(|f| f.severity == Severity::Deny)
        .map(|f| f.rule)
        .collect()
}

fn assert_pair(tainted: &[SourceFile], clean: &[SourceFile], rule: &'static str) {
    let hot = deny_rules(tainted);
    assert!(hot.contains(&rule), "tainted twin must fire {rule}: {hot:?}");
    let cold = deny_rules(clean);
    assert!(!cold.contains(&rule), "clean twin must not fire {rule}: {cold:?}");
}

// ---- taint sources ------------------------------------------------------

#[test]
fn source_hash_iteration_vs_keyed_container() {
    let tainted = [src(
        "crates/core/src/w.rs",
        "pub struct Weights { pub map: FxHashMap<u32, f64> }\n\
         impl Weights {\n\
             pub fn mass(&self) -> f64 {\n\
                 let mut total = 0.0;\n\
                 for (_k, v) in self.map.iter() { total += v; }\n\
                 total\n\
             }\n\
         }\n\
         pub fn fingerprint(w: &Weights, h: &mut Hasher) {\n\
             digest_step(h, w.mass());\n\
         }",
    )];
    let clean = [src(
        "crates/core/src/w.rs",
        "pub struct Weights { pub map: BTreeMap<u32, f64> }\n\
         impl Weights {\n\
             pub fn mass(&self) -> f64 {\n\
                 let mut total = 0.0;\n\
                 for (_k, v) in self.map.iter() { total += v; }\n\
                 total\n\
             }\n\
         }\n\
         pub fn fingerprint(w: &Weights, h: &mut Hasher) {\n\
             digest_step(h, w.mass());\n\
         }",
    )];
    assert_pair(&tainted, &clean, "taint-into-fingerprint");
}

#[test]
fn source_clock_read() {
    let tainted = [src(
        "crates/stream/src/t.rs",
        "pub fn stamp(h: &mut Hasher) {\n\
             let t = SystemTime::now();\n\
             digest_step(h, t);\n\
         }",
    )];
    let clean = [src(
        "crates/stream/src/t.rs",
        "pub fn stamp(h: &mut Hasher) {\n\
             let t = 0u64;\n\
             digest_step(h, t);\n\
         }",
    )];
    assert_pair(&tainted, &clean, "taint-into-fingerprint");
}

#[test]
fn source_unseeded_rng_into_publish() {
    let tainted = [src(
        "crates/stream/src/r.rs",
        "pub fn reseed(live: &LiveContext) {\n\
             let noise = thread_rng();\n\
             live.publish(noise);\n\
         }",
    )];
    let clean = [src(
        "crates/stream/src/r.rs",
        "pub fn reseed(live: &LiveContext) {\n\
             let noise = 42u64;\n\
             live.publish(noise);\n\
         }",
    )];
    assert_pair(&tainted, &clean, "taint-into-publish");
}

#[test]
fn source_clock_read_into_claim_move() {
    let tainted = [src(
        "crates/stream/src/m.rs",
        "pub fn swap(cache: &ReportCache, old: u64) {\n\
             let fresh = SystemTime::now();\n\
             cache.move_claim(old, fresh);\n\
         }",
    )];
    let clean = [src(
        "crates/stream/src/m.rs",
        "pub fn swap(cache: &ReportCache, old: u64) {\n\
             let fresh = old + 1;\n\
             cache.move_claim(old, fresh);\n\
         }",
    )];
    assert_pair(&tainted, &clean, "taint-into-publish");
}

#[test]
fn source_thread_identity_into_codec() {
    let tainted = [src(
        "crates/kb/src/c.rs",
        "pub fn record(enc: &mut DeltaCodec) {\n\
             let id = std::thread::current();\n\
             enc.encode_delta(id);\n\
         }",
    )];
    let clean = [src(
        "crates/kb/src/c.rs",
        "pub fn record(enc: &mut DeltaCodec) {\n\
             let id = 7u64;\n\
             enc.encode_delta(id);\n\
         }",
    )];
    assert_pair(&tainted, &clean, "taint-into-codec");
}

// ---- cleansers ----------------------------------------------------------

#[test]
fn cleanser_total_order_sort() {
    let tainted = [src(
        "crates/core/src/s.rs",
        "pub struct Names { pub set: FxHashSet<u32> }\n\
         pub fn digest(n: &Names, h: &mut Hasher) {\n\
             let keys: Vec<u32> = n.set.iter().collect();\n\
             digest_step(h, keys);\n\
         }",
    )];
    let clean = [src(
        "crates/core/src/s.rs",
        "pub struct Names { pub set: FxHashSet<u32> }\n\
         pub fn digest(n: &Names, h: &mut Hasher) {\n\
             let mut keys: Vec<u32> = n.set.iter().collect();\n\
             keys.sort_unstable();\n\
             digest_step(h, keys);\n\
         }",
    )];
    assert_pair(&tainted, &clean, "taint-into-fingerprint");
}

#[test]
fn cleanser_collect_into_keyed_container() {
    let tainted = [src(
        "crates/core/src/k.rs",
        "pub struct Weights { pub map: FxHashMap<u32, f64> }\n\
         pub fn digest(w: &Weights, h: &mut Hasher) {\n\
             let pairs: Vec<(u32, f64)> = w.map.iter().collect();\n\
             digest_step(h, pairs);\n\
         }",
    )];
    let clean = [src(
        "crates/core/src/k.rs",
        "pub struct Weights { pub map: FxHashMap<u32, f64> }\n\
         pub fn digest(w: &Weights, h: &mut Hasher) {\n\
             let pairs: BTreeMap<u32, f64> = w.map.iter().collect();\n\
             digest_step(h, pairs);\n\
         }",
    )];
    assert_pair(&tainted, &clean, "taint-into-fingerprint");
}

#[test]
fn cleanser_commutative_fold_vs_float_accumulation() {
    let tainted = [src(
        "crates/core/src/f.rs",
        "pub struct Weights { pub map: FxHashMap<u32, f64> }\n\
         pub fn digest(w: &Weights, h: &mut Hasher) {\n\
             let total: f64 = w.map.values().fold(0.0, |a, b| a + b);\n\
             digest_step(h, total);\n\
         }",
    )];
    let clean = [src(
        "crates/core/src/f.rs",
        "pub struct Tags { pub map: FxHashMap<u32, u64> }\n\
         pub fn digest(t: &Tags, h: &mut Hasher) {\n\
             let total: u64 = t.map.values().fold(0u64, |a, b| a ^ b);\n\
             digest_step(h, total);\n\
         }",
    )];
    assert_pair(&tainted, &clean, "taint-into-fingerprint");
}

#[test]
fn cleanser_obs_recording_surface() {
    // Same shape on both sides: a clock read inside a `start` method
    // whose result flows into a publish. The only difference is the
    // receiver type — `Stamper` is ordinary workspace code (the clock
    // taint must fire), `Tracer`/`SpanGuard` are the obs recording
    // surface, registered as a cleanser: its timings terminate in the
    // metrics plane and its handles are sequence ids, not clock values.
    let tainted = [src(
        "crates/stream/src/o.rs",
        "pub struct Stamper { pub seq: u64 }\n\
         impl Stamper {\n\
             pub fn start(&self, parent: u64) -> u64 {\n\
                 let t = Instant::now();\n\
                 t\n\
             }\n\
         }\n\
         pub fn commit(s: &Stamper, live: &LiveContext) {\n\
             let handle = s.start(0);\n\
             live.publish(handle);\n\
         }",
    )];
    let clean = [src(
        "crates/stream/src/o.rs",
        "pub struct SpanGuard { pub id: u64, pub start: u64 }\n\
         pub struct Tracer { pub seq: u64 }\n\
         impl Tracer {\n\
             pub fn start(&self, parent: u64) -> SpanGuard {\n\
                 let t = Instant::now();\n\
                 SpanGuard { id: parent, start: t }\n\
             }\n\
         }\n\
         pub fn commit(tracer: &Tracer, live: &LiveContext) {\n\
             let guard = tracer.start(0);\n\
             let handle = guard.handle();\n\
             live.publish(handle);\n\
         }",
    )];
    assert_pair(&tainted, &clean, "taint-into-publish");
}

#[test]
fn cleanser_telemetry_metrics_plane() {
    // The metrics-retention plane one layer up from obs: a scrape
    // watermark derived from a clock read flows into a publish. With
    // an ordinary receiver (`ScrapeLoop`) the clock taint must fire;
    // `TelemetryCollector`/`FlightRecorder` are registered terminal
    // cleansers — their clock reads land in the ring TSDB and flight
    // ring, which are only ever rendered, never replayed.
    let tainted = [src(
        "crates/stream/src/t.rs",
        "pub struct ScrapeLoop { pub scrapes: u64 }\n\
         impl ScrapeLoop {\n\
             pub fn scrape(&self, epoch: u64) -> u64 {\n\
                 let now = Instant::now();\n\
                 now\n\
             }\n\
         }\n\
         pub fn watermark(s: &ScrapeLoop, live: &LiveContext) {\n\
             let mark = s.scrape(4);\n\
             live.publish(mark);\n\
         }",
    )];
    let clean = [src(
        "crates/stream/src/t.rs",
        "pub struct FlightRecorder { pub events: u64 }\n\
         pub struct TelemetryCollector { pub scrapes: u64 }\n\
         impl TelemetryCollector {\n\
             pub fn scrape(&self, epoch: u64) -> u64 {\n\
                 let now = Instant::now();\n\
                 now\n\
             }\n\
         }\n\
         pub fn watermark(c: &TelemetryCollector, rec: &FlightRecorder, live: &LiveContext) {\n\
             let mark = c.scrape(4);\n\
             rec.note(mark);\n\
             live.publish(4);\n\
         }",
    )];
    assert_pair(&tainted, &clean, "taint-into-publish");
}

#[test]
fn cleanser_serve_edge_plane() {
    // The HTTP edge above the engine: a request-latency clock read
    // flowing into a publish. With an ordinary receiver (`Gateway`)
    // the clock taint must fire; `AdmissionController`/`ServerStats`
    // are registered terminal cleansers — edge timings land in
    // latency histograms and token buckets, which are rendered or
    // consumed as control flow, never replayed.
    let tainted = [src(
        "crates/serve/src/t.rs",
        "pub struct Gateway { pub served: u64 }\n\
         impl Gateway {\n\
             pub fn admit(&self, tenant: u64) -> u64 {\n\
                 let now = Instant::now();\n\
                 now\n\
             }\n\
         }\n\
         pub fn edge(g: &Gateway, live: &LiveContext) {\n\
             let stamp = g.admit(4);\n\
             live.publish(stamp);\n\
         }",
    )];
    let clean = [src(
        "crates/serve/src/t.rs",
        "pub struct ServerStats { pub served: u64 }\n\
         pub struct AdmissionController { pub slots: u64 }\n\
         impl AdmissionController {\n\
             pub fn admit(&self, tenant: u64) -> u64 {\n\
                 let now = Instant::now();\n\
                 now\n\
             }\n\
         }\n\
         pub fn edge(c: &AdmissionController, stats: &ServerStats, live: &LiveContext) {\n\
             let stamp = c.admit(4);\n\
             stats.record(stamp);\n\
             live.publish(4);\n\
         }",
    )];
    assert_pair(&tainted, &clean, "taint-into-publish");
}

// ---- multi-hop evidence -------------------------------------------------

#[test]
fn multi_hop_taint_path_spans_three_files() {
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
            "pub fn weigh(w: &Weights) -> f64 { w.mass() * 2.0 }",
        ),
        src(
            "crates/core/src/c.rs",
            "pub fn fingerprint(w: &Weights, h: &mut Hasher) {\n\
                 digest_step(h, weigh(w));\n\
             }",
        ),
    ];
    let findings = audit_sources(&files);
    let hit = findings
        .iter()
        .find(|f| f.rule == "taint-into-fingerprint" && f.path == "crates/core/src/c.rs")
        .unwrap_or_else(|| panic!("multi-hop taint not found: {findings:?}"));
    assert!(
        hit.chain.len() >= 3,
        "expected a source→helper→sink chain with >=3 hops: {:?}",
        hit.chain
    );
}

#[test]
fn multi_hop_panic_chain_from_serve_entry() {
    let tainted = [src(
        "crates/core/src/p.rs",
        "pub struct Recommender { pub k: usize }\n\
         impl Recommender {\n\
             pub fn recommend(&self) -> f64 { helper_mid(self.k) }\n\
         }\n\
         fn helper_mid(k: usize) -> f64 { helper_leaf(k) }\n\
         fn helper_leaf(k: usize) -> f64 { lookup(k).unwrap() }",
    )];
    let clean = [src(
        "crates/core/src/p.rs",
        "pub struct Recommender { pub k: usize }\n\
         impl Recommender {\n\
             pub fn recommend(&self) -> f64 { helper_mid(self.k) }\n\
         }\n\
         fn helper_mid(k: usize) -> f64 { helper_leaf(k) }\n\
         fn helper_leaf(k: usize) -> f64 { lookup(k).unwrap_or(0.0) }",
    )];
    let findings = audit_sources(&tainted);
    let hit = findings
        .iter()
        .find(|f| f.rule == "panic-reachable")
        .unwrap_or_else(|| panic!("panic chain not found: {findings:?}"));
    assert!(
        hit.chain.len() >= 3,
        "expected entry→mid→leaf chain with >=3 hops: {:?}",
        hit.chain
    );
    assert!(!deny_rules(&clean).contains(&"panic-reachable"));
}

// ---- lock order ---------------------------------------------------------

#[test]
fn lock_acquisition_contradicting_annotation_is_denied() {
    let tainted = [src(
        "crates/adapt/src/l.rs",
        "pub struct Stores { index: Mutex<u32>, store: Mutex<u32> }\n\
         impl Stores {\n\
             // lint: lock-order index < store\n\
             pub fn rebuild(&self) {\n\
                 let s = self.store.lock();\n\
                 let i = self.index.lock();\n\
                 let _ = (s, i);\n\
             }\n\
         }",
    )];
    let clean = [src(
        "crates/adapt/src/l.rs",
        "pub struct Stores { index: Mutex<u32>, store: Mutex<u32> }\n\
         impl Stores {\n\
             // lint: lock-order index < store\n\
             pub fn rebuild(&self) {\n\
                 let i = self.index.lock();\n\
                 let s = self.store.lock();\n\
                 let _ = (i, s);\n\
             }\n\
         }",
    )];
    assert_pair(&tainted, &clean, "lock-order-undeclared");
}

#[test]
fn lock_acquisition_inverting_a_field_annotation_is_denied() {
    let shard = |body: &str| {
        [src(
            "crates/core/src/shard.rs",
            &format!(
                "pub struct Shard {{\n\
                     // lint: lock-order writer < map\n\
                     writer: Mutex<()>,\n\
                     map: RwLock<Map>,\n\
                 }}\n\
                 impl Shard {{\n{body}\n}}"
            ),
        )]
    };
    let tainted = shard(
        "fn bad(&self) { let m = self.map.write(); let w = self.writer.lock(); drop((m, w)); }",
    );
    let clean = shard(
        "fn good(&self) { let w = self.writer.lock(); let m = self.map.write(); drop((w, m)); }",
    );
    assert_pair(&tainted, &clean, "lock-order-undeclared");
}

#[test]
fn lock_order_quiet_on_declared_order_or_single_lock() {
    let files = [src(
        "crates/core/src/shard.rs",
        "pub struct Shard {\n\
             // lint: lock-order writer < map\n\
             writer: Mutex<()>,\n\
             map: RwLock<Map>,\n\
         }\n\
         impl Shard {\n\
             fn good(&self) { let w = self.writer.lock(); let m = self.map.write(); drop((w, m)); }\n\
             fn read_only(&self) { let m = self.map.read(); drop(m); }\n\
             fn write_only(&self) { let w = self.writer.lock(); drop(w); }\n\
         }",
    )];
    let findings = audit_sources(&files);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_order_is_per_nesting_not_per_file() {
    // One function takes only `map`, another (later in the file) takes
    // only `writer`: no acquisition is nested, so nothing can deadlock
    // and nothing is denied. The unused declaration is only a warning.
    let files = [src(
        "crates/core/src/shard.rs",
        "pub struct Shard {\n\
             // lint: lock-order writer < map\n\
             writer: Mutex<()>,\n\
             map: RwLock<Map>,\n\
         }\n\
         impl Shard {\n\
             fn only_map(&self) { let m = self.map.write(); drop(m); }\n\
             fn only_writer(&self) { let w = self.writer.lock(); drop(w); }\n\
         }",
    )];
    assert!(deny_rules(&files).is_empty(), "{:?}", audit_sources(&files));
}

// ---- token rules ----------------------------------------------------------

#[test]
fn token_rules_read_the_test_trees_the_parser_passes_skip() {
    let tainted = [src(
        "tests/ranking.rs",
        "fn rank(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
    )];
    let clean = [src(
        "tests/ranking.rs",
        "fn rank(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }",
    )];
    assert_pair(&tainted, &clean, "nan-sort");
}

#[test]
fn hot_path_panic_holds_where_no_serve_entry_point_reaches() {
    // The ingest path is not reachable from the serve surface, so the
    // panic-reachability pass stays silent on it: the token rule alone
    // keeps `Ingestor::commit_epoch` panic-free.
    let ingestor = |take: &str| {
        [src(
            "crates/stream/src/ingest.rs",
            &format!(
                "pub struct Ingestor {{ pending: Option<u64> }}\n\
                 impl Ingestor {{\n\
                     pub fn commit_epoch(&mut self) -> u64 {{ self.pending.take().{take} }}\n\
                 }}"
            ),
        )]
    };
    let tainted = ingestor("unwrap()");
    assert_pair(&tainted, &ingestor("unwrap_or(0)"), "hot-path-panic");
    let hit = audit_sources(&tainted);
    assert!(
        hit.iter().all(|f| f.rule == "hot-path-panic"),
        "only the token rule fires: {hit:?}"
    );
}

// ---- the gate itself ----------------------------------------------------

#[test]
fn workspace_audit_is_clean_with_empty_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let files = collect_workspace(&root).expect("walk workspace sources");
    assert!(files.len() > 50, "workspace walk looks truncated: {}", files.len());
    assert!(
        files.iter().any(|f| f.label.starts_with("tests/")),
        "the token rules read the test trees too"
    );
    let denies: Vec<AuditFinding> = audit_sources(&files)
        .into_iter()
        .filter(|f| f.severity == Severity::Deny)
        .collect();
    assert!(denies.is_empty(), "deny findings without allowlist cover: {denies:#?}");
    // The shipped allowlist must stay empty: real findings get fixed at
    // source, not acknowledged away.
    let allow = std::fs::read_to_string(root.join("audit-allow.txt")).unwrap_or_default();
    assert!(
        allow
            .lines()
            .all(|l| l.trim().is_empty() || l.trim().starts_with('#')),
        "audit-allow.txt must contain no entries at merge"
    );
}
