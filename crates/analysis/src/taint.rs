//! Interprocedural determinism-taint analysis.
//!
//! **Sources** introduce nondeterminism: iteration over hash-ordered
//! containers (`FxHashMap`/`FxHashSet`/`HashMap`/`HashSet`), wall-clock
//! reads (`SystemTime::now`, `Instant::now`, `.elapsed()`), unseeded
//! RNG construction (`thread_rng`, `from_entropy`, `rand::random`),
//! and thread identity (`thread::current`).
//!
//! Taint has two levels. **Order** taint means a *sequence* depends on
//! hash order; it is cleansed by order-erasing operations — total-order
//! sorts, collection into keyed containers (`BTreeMap`/`BTreeSet`/
//! `TripleStore` erase order deterministically, hash maps defer it to
//! the next iteration), commutative integer folds (`+`, `^`, `|`,
//! `&`), and order-free reductions (`len`, `count`, `any`, `contains`).
//! **Value** taint means the *bits of a value* depend on
//! nondeterminism: clock/RNG/thread reads are born at Value, and
//! floating-point accumulation over an Order-tainted sequence is
//! *promoted* to Value (float addition is not associative, so the sum's
//! bits depend on iteration order). Value taint survives sorting — no
//! reordering can undo it. The `evorec-obs` recording surface
//! (`Tracer`, `SpanGuard`, `Histogram` and friends) is a registered
//! *cleanser*: the tracer clock's reads terminate in the metrics plane
//! (histograms, the trace ring) and the handles it returns are
//! sequence ids, so obs-typed calls carry no taint out — see
//! `is_obs_plane` below.
//!
//! **Sinks** are the replay surface: fingerprint construction
//! (Order-sensitive), `LiveContext`/lineage publishes (Order), codec
//! encodes (Order), and report/ranking emission. `from_scores` sorts
//! its input with a total comparator, so it only fires on Value taint;
//! raw report struct literals fire on either level.
//!
//! Propagation is interprocedural: each function gets a summary —
//! which params flow to the return (and whether their taint is
//! promoted on the way), and which params reach sinks inside — and
//! summaries are iterated to a fixpoint across the whole workspace.
//! Violations carry the full source → call-chain → sink trace.

use crate::audit::{AuditFinding, Severity};
use crate::callgraph::{bind_closure_params, infer_expr, TypeEnv};
use crate::parser::{Block, Expr, Stmt};
use crate::symbols::Symbols;
use crate::ty::Ty;
use std::collections::HashMap;

/// Taint level: `Order` (a sequence depends on hash order) or `Value`
/// (a value's bits depend on nondeterminism). `Value` is stronger.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Sequence order is nondeterministic; values are not.
    Order,
    /// Value bits are nondeterministic. Never cleansed by reordering.
    Value,
}

/// Token identity: a concrete source site, or a caller argument.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tok {
    /// A real source, keyed by `kind@file:line`.
    Src(String),
    /// Taint of parameter `i` at the given *origin* level.
    Param(usize, Level),
}

/// One taint token with its current level and source→here trace.
#[derive(Clone, Debug)]
pub struct TokEntry {
    /// Identity (dedup key together with `level`).
    pub tok: Tok,
    /// Current level (≥ the origin level for params).
    pub level: Level,
    /// Human-readable steps from the source to this point.
    pub trace: Vec<String>,
}

/// A join-semilattice taint set.
#[derive(Clone, Debug, Default)]
pub struct Taint {
    /// Entries, deduped by `(tok, level)` keeping the shortest trace.
    pub toks: Vec<TokEntry>,
}

/// Trace steps are capped so pathological chains stay readable.
const MAX_TRACE: usize = 12;

impl Taint {
    fn src(kind: &str, site: &str, level: Level) -> Taint {
        Taint {
            toks: vec![TokEntry {
                tok: Tok::Src(format!("{kind}@{site}")),
                level,
                trace: vec![format!("{kind} at {site}")],
            }],
        }
    }

    fn param(ix: usize) -> Taint {
        Taint {
            toks: vec![
                TokEntry {
                    tok: Tok::Param(ix, Level::Order),
                    level: Level::Order,
                    trace: Vec::new(),
                },
                TokEntry {
                    tok: Tok::Param(ix, Level::Value),
                    level: Level::Value,
                    trace: Vec::new(),
                },
            ],
        }
    }

    fn join(&mut self, other: &Taint) {
        for e in &other.toks {
            self.insert(e.clone());
        }
    }

    fn insert(&mut self, entry: TokEntry) {
        for existing in &mut self.toks {
            if existing.tok == entry.tok && existing.level == entry.level {
                if entry.trace.len() < existing.trace.len() {
                    existing.trace = entry.trace;
                }
                return;
            }
        }
        self.toks.push(entry);
    }

    /// All entries promoted to Value (float accumulation), with a
    /// trace note at the promotion site.
    fn promoted(&self, note: &str) -> Taint {
        let mut out = Taint::default();
        for e in &self.toks {
            let mut t = e.clone();
            if t.level == Level::Order {
                t.level = Level::Value;
                push_step(&mut t.trace, note);
            }
            out.insert(t);
        }
        out
    }

    /// Order entries removed (sorts, keyed collection); Value persists.
    fn cleansed_order(&self) -> Taint {
        Taint {
            toks: self
                .toks
                .iter()
                .filter(|e| e.level == Level::Value)
                .cloned()
                .collect(),
        }
    }

    /// Entries at exactly `level`.
    fn at_level(&self, level: Level) -> Vec<&TokEntry> {
        self.toks.iter().filter(|e| e.level == level).collect()
    }

    /// Entries satisfying a sink's minimum level.
    fn firing(&self, min: Level) -> Vec<&TokEntry> {
        self.toks.iter().filter(|e| e.level >= min).collect()
    }
}

fn push_step(trace: &mut Vec<String>, step: &str) {
    if trace.len() < MAX_TRACE {
        trace.push(step.to_string());
    }
}

// ---- summaries -----------------------------------------------------------

/// A sink reachable from a parameter inside some function.
#[derive(Clone, Debug)]
pub struct ParamSink {
    /// Parameter index whose taint reaches the sink.
    pub param: usize,
    /// Level the argument must carry for the sink to fire.
    pub origin: Level,
    /// Violated rule id.
    pub rule: &'static str,
    /// Sink file (repo-relative).
    pub path: String,
    /// Sink line.
    pub line: u32,
    /// Trace steps from the parameter to the sink.
    pub suffix: Vec<String>,
}

/// Per-function dataflow summary.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Tokens flowing to the return value.
    pub ret: Vec<TokEntry>,
    /// Sinks reachable from parameters.
    pub sinks: Vec<ParamSink>,
}

impl Summary {
    /// Trace-insensitive signature for fixpoint comparison.
    fn signature(&self) -> Vec<(String, u8)> {
        let mut sig: Vec<(String, u8)> = self
            .ret
            .iter()
            .map(|e| (format!("r{:?}", e.tok), e.level as u8))
            .chain(self.sinks.iter().map(|s| {
                (
                    format!("s{}:{:?}:{}:{}:{}", s.param, s.origin, s.rule, s.path, s.line),
                    0,
                )
            }))
            .collect();
        sig.sort();
        sig.dedup();
        sig
    }
}

// ---- sink table ----------------------------------------------------------

struct SinkHit {
    rule: &'static str,
    min: Level,
    desc: String,
}

/// Sink for a call/method by name, if any.
fn call_sink(name: &str) -> Option<(&'static str, Level)> {
    match name {
        "digest_step" => Some(("taint-into-fingerprint", Level::Order)),
        "encode_delta" => Some(("taint-into-codec", Level::Order)),
        "publish" | "publish_lineage" => Some(("taint-into-publish", Level::Order)),
        // `from_scores` sorts with a total comparator: sequence order
        // is erased, only value-level taint survives into the report.
        "from_scores" => Some(("taint-into-report", Level::Value)),
        _ => None,
    }
}

/// Sink struct literals: raw report/fingerprint construction.
fn struct_sink(name: &str) -> Option<(&'static str, Level)> {
    match name {
        "ContextFingerprint" => Some(("taint-into-fingerprint", Level::Order)),
        "Recommendation" | "GroupRecommendation" | "MeasureReport" | "TrendDiff"
        | "MeasureTrend" => Some(("taint-into-report", Level::Order)),
        _ => None,
    }
}

/// Methods that begin iteration over their receiver.
fn is_iter_starter(name: &str) -> bool {
    matches!(
        name,
        "iter"
            | "iter_mut"
            | "into_iter"
            | "keys"
            | "values"
            | "values_mut"
            | "into_keys"
            | "into_values"
            | "drain"
    )
}

/// Order-free reductions: the result depends only on the *set* of
/// elements, never on iteration order or float rounding.
fn is_full_cleanse(name: &str) -> bool {
    matches!(
        name,
        "len" | "count" | "is_empty" | "contains" | "contains_key" | "any" | "all" | "capacity"
    )
}

/// In-place sorts (the project's `nan-sort` lint already guarantees
/// total comparators, so every sort is order-erasing).
fn is_sort(name: &str) -> bool {
    name == "sort" || name.starts_with("sort_by") || name.starts_with("sort_unstable")
}

/// The observability plane (`evorec-obs`) and the metrics-retention
/// plane above it (`evorec-telemetry`) are *terminal* for
/// nondeterministic values — registered cleansers, not sources.
/// Span timings read from the tracer clock land in latency
/// histograms and the bounded trace ring; scrape timestamps, derived
/// rates, rollups, health reports and flight events land in the
/// telemetry rings — and all of them are only ever rendered; they
/// never feed back into fingerprints, publishes, codecs or rankings.
/// The `SpanHandle`s that do come back out of the recording surface
/// are atomic-counter sequence ids, not clock values. Cleansing at
/// the type boundary (instead of letting `Tracer::start`'s internal
/// `Instant::now` read taint every caller through its summary) keeps
/// the audit precise: a real wall-clock leak into a sink still fires,
/// because the cleanse is scoped to the obs/telemetry types.
fn is_obs_plane(head: Option<&str>) -> bool {
    matches!(
        head,
        Some("Tracer")
            | Some("SpanGuard")
            | Some("SpanHandle")
            | Some("Histogram")
            | Some("HistogramSnapshot")
            | Some("MetricsRegistry")
            | Some("MetricsSnapshot")
            | Some("MonotonicClock")
            | Some("LogicalClock")
            | Some("TelemetryCollector")
            | Some("TelemetryDriver")
            | Some("SeriesStore")
            | Some("SeriesBuf")
            | Some("HealthEngine")
            | Some("FlightRecorder")
    )
}

/// The HTTP serving edge (`evorec-serve`) is likewise terminal for
/// nondeterministic values: request timings (clock reads) land in the
/// edge's latency histograms and `X-Evorec-Timing` headers, token
/// buckets consume clock deltas, and permits/decisions are control
/// flow — none of it feeds fingerprints, publishes, codecs or
/// rankings. The engine calls the edge makes (`serve`,
/// `recommend_observed`) take request *data*, which the source rules
/// track independently of these types.
fn is_serve_plane(head: Option<&str>) -> bool {
    matches!(
        head,
        Some("AdmissionController")
            | Some("InFlightPermit")
            | Some("ServerStats")
            | Some("HttpServer")
            | Some("ConnReader")
    )
}

/// Keyed containers erase insertion order (deterministically for the
/// ordered ones; hash maps defer it to the next iteration, which
/// re-sources).
fn is_keyed_container(ty: &Ty) -> bool {
    matches!(
        ty.peeled().head(),
        Some("BTreeMap") | Some("BTreeSet") | Some("TripleStore") | Some("FxHashMap")
            | Some("FxHashSet") | Some("HashMap") | Some("HashSet")
    )
}

// ---- the analysis --------------------------------------------------------

/// Run the taint pass over the whole workspace.
pub fn run(sym: &Symbols) -> Vec<AuditFinding> {
    let mut sums: Vec<Summary> = (0..sym.fns.len()).map(|_| Summary::default()).collect();
    // Fixpoint over summaries (test fns excluded: not serve code).
    for _pass in 0..12 {
        let mut changed = false;
        for ix in 0..sym.fns.len() {
            if sym.fns[ix].is_test || sym.fns[ix].def.body.is_none() {
                continue;
            }
            let next = analyze_fn(sym, &sums, ix, None);
            if next.signature() != sums[ix].signature() {
                sums[ix] = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Reporting pass with converged summaries.
    let mut findings = Vec::new();
    for ix in 0..sym.fns.len() {
        if sym.fns[ix].is_test || sym.fns[ix].def.body.is_none() {
            continue;
        }
        analyze_fn(sym, &sums, ix, Some(&mut findings));
    }
    dedup_findings(findings)
}

fn dedup_findings(findings: Vec<AuditFinding>) -> Vec<AuditFinding> {
    let mut seen: HashMap<(String, String, u32), usize> = HashMap::new();
    let mut out: Vec<AuditFinding> = Vec::new();
    for f in findings {
        let key = (f.rule.to_string(), f.path.clone(), f.line);
        match seen.get(&key) {
            Some(&ix) => {
                if f.chain.len() < out[ix].chain.len() {
                    out[ix] = f;
                }
            }
            None => {
                seen.insert(key, out.len());
                out.push(f);
            }
        }
    }
    out
}

/// Analyze one function body; returns its summary, appending findings
/// for real-source sink hits when `findings` is provided.
fn analyze_fn(
    sym: &Symbols,
    sums: &[Summary],
    ix: usize,
    findings: Option<&mut Vec<AuditFinding>>,
) -> Summary {
    let info = &sym.fns[ix];
    let mut fx = Fx {
        sym,
        sums,
        tenv: TypeEnv::new(),
        taints: vec![HashMap::new()],
        loop_ctx: Vec::new(),
        sort_backing: vec![HashMap::new()],
        ret: Taint::default(),
        summary: Summary::default(),
        findings,
        path: sym.files[info.file].path.clone(),
    };
    for (pix, (p, ty)) in info.def.params.iter().zip(&info.param_tys).enumerate() {
        fx.tenv.bind(&p.name, ty.clone());
        fx.taints[0].insert(p.name.clone(), Taint::param(pix));
    }
    let body = info.def.body.as_ref().expect("checked by caller");
    let tail = fx.eval_block(body);
    if info.def.ret_ty.is_some() {
        let mut ret = fx.ret.clone();
        ret.join(&tail);
        fx.ret = ret;
    }
    let mut summary = fx.summary;
    summary.ret = fx.ret.toks;
    // Dedup param→sink entries (loop bodies are analyzed twice).
    let mut seen: HashMap<(usize, Level, &str, String, u32), usize> = HashMap::new();
    let mut sinks: Vec<ParamSink> = Vec::new();
    for s in summary.sinks {
        let key = (s.param, s.origin, s.rule, s.path.clone(), s.line);
        match seen.get(&key) {
            Some(&i) => {
                if s.suffix.len() < sinks[i].suffix.len() {
                    sinks[i] = s;
                }
            }
            None => {
                seen.insert(key, sinks.len());
                sinks.push(s);
            }
        }
    }
    summary.sinks = sinks;
    summary
}

struct Fx<'a, 'b> {
    sym: &'b Symbols<'a>,
    sums: &'b [Summary],
    tenv: TypeEnv,
    taints: Vec<HashMap<String, Taint>>,
    /// Order-level taints of enclosing loops' iteration sequences.
    loop_ctx: Vec<Taint>,
    /// Loop variable → root of the container it iterates (scoped like
    /// `taints`): sorting the loop variable in place sorts an element
    /// of that container, which is the build-then-sort idiom.
    sort_backing: Vec<HashMap<String, String>>,
    ret: Taint,
    summary: Summary,
    findings: Option<&'b mut Vec<AuditFinding>>,
    path: String,
}

impl Fx<'_, '_> {
    fn site(&self, line: u32) -> String {
        format!("{}:{line}", self.path)
    }

    fn lookup(&self, name: &str) -> Taint {
        for scope in self.taints.iter().rev() {
            if let Some(t) = scope.get(name) {
                return t.clone();
            }
        }
        Taint::default()
    }

    fn bind(&mut self, name: &str, taint: Taint) {
        if let Some(top) = self.taints.last_mut() {
            top.insert(name.to_string(), taint);
        }
    }

    /// Join `taint` into the scope where `name` is defined (falling
    /// back to the innermost scope).
    fn join_var(&mut self, name: &str, taint: &Taint) {
        for scope in self.taints.iter_mut().rev() {
            if let Some(t) = scope.get_mut(name) {
                t.join(taint);
                return;
            }
        }
        if let Some(top) = self.taints.last_mut() {
            top.entry(name.to_string())
                .or_default()
                .join(taint);
        }
    }

    fn push_scope(&mut self) {
        self.tenv.push();
        self.taints.push(HashMap::new());
        self.sort_backing.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.tenv.pop();
        self.taints.pop();
        self.sort_backing.pop();
    }

    /// The container root a loop variable was iterated out of, if any.
    fn sort_backing_of(&self, name: &str) -> Option<String> {
        for scope in self.sort_backing.iter().rev() {
            if let Some(root) = scope.get(name) {
                return Some(root.clone());
            }
        }
        None
    }

    /// The environment key an lvalue expression mutates, if traceable:
    /// `x` → `x`, `self.f` → `self.f`, any deeper projection → the
    /// root binding.
    fn root_key(expr: &Expr) -> Option<String> {
        match expr {
            Expr::Path { segs, .. } if segs.len() == 1 => Some(segs[0].clone()),
            Expr::Field { base, name, .. } => {
                if let Expr::Path { segs, .. } = base.as_ref() {
                    if segs.len() == 1 && segs[0] == "self" {
                        return Some(format!("self.{name}"));
                    }
                }
                Self::root_key(base)
            }
            Expr::Index { base, .. }
            | Expr::Unary { expr: base, .. }
            | Expr::MethodCall { recv: base, .. } => Self::root_key(base),
            _ => None,
        }
    }

    fn joined_loop_ctx(&self) -> Taint {
        let mut t = Taint::default();
        for ctx in &self.loop_ctx {
            t.join(ctx);
        }
        t
    }

    /// Check a sink fed by `taint`: real sources become findings,
    /// param tokens become summary entries for callers.
    fn hit_sink(&mut self, hit: &SinkHit, line: u32, taint: &Taint) {
        let site = self.site(line);
        let sink_step = format!("{} at {site}", hit.desc);
        for entry in taint.firing(hit.min) {
            match &entry.tok {
                Tok::Src(_) => {
                    if let Some(findings) = self.findings.as_deref_mut() {
                        let mut chain = entry.trace.clone();
                        push_step(&mut chain, &sink_step);
                        findings.push(AuditFinding {
                            rule: hit.rule,
                            path: self.path.clone(),
                            line,
                            message: format!(
                                "nondeterminism reaches {}: {}",
                                hit.desc,
                                entry.trace.first().map(String::as_str).unwrap_or("tainted data")
                            ),
                            chain,
                            severity: Severity::Deny,
                        });
                    }
                }
                Tok::Param(pix, origin) => {
                    let mut suffix = entry.trace.clone();
                    push_step(&mut suffix, &sink_step);
                    self.summary.sinks.push(ParamSink {
                        param: *pix,
                        origin: *origin,
                        rule: hit.rule,
                        path: self.path.clone(),
                        line,
                        suffix,
                    });
                }
            }
        }
    }

    /// Apply a callee summary at a call site.
    fn apply_summary(
        &mut self,
        callee: usize,
        line: u32,
        arg_taints: &[Taint],
    ) -> Taint {
        let sums = self.sums;
        let callee_name = self.sym.fns[callee].qual_name();
        let call_site = self.site(line);
        let call_step = format!("into {callee_name} (called at {call_site})");
        let pass_step = format!("passed to {callee_name} (called at {call_site})");
        let ret_step = format!("returned by {callee_name} (called at {call_site})");
        let mut result = Taint::default();
        let sum = &sums[callee];
        for entry in &sum.ret {
            match &entry.tok {
                Tok::Src(_) => {
                    let mut e = entry.clone();
                    push_step(&mut e.trace, &ret_step);
                    result.insert(e);
                }
                Tok::Param(pix, origin) => {
                    let Some(arg) = arg_taints.get(*pix) else {
                        continue;
                    };
                    for a in arg.at_level(*origin) {
                        let mut e = a.clone();
                        e.level = entry.level; // callee may promote
                        push_step(&mut e.trace, &call_step);
                        if entry.level > *origin {
                            push_step(&mut e.trace, &format!(
                                "promoted to value-level inside {callee_name}"
                            ));
                        }
                        result.insert(e);
                    }
                }
            }
        }
        // Wire param→sink flows through this call.
        for ps in &sum.sinks {
            let Some(arg) = arg_taints.get(ps.param) else {
                continue;
            };
            for a in arg.at_level(ps.origin) {
                match &a.tok {
                    Tok::Src(_) => {
                        if let Some(findings) = self.findings.as_deref_mut() {
                            let mut chain = a.trace.clone();
                            push_step(&mut chain, &pass_step);
                            for s in &ps.suffix {
                                push_step(&mut chain, s);
                            }
                            findings.push(AuditFinding {
                                rule: ps.rule,
                                path: ps.path.clone(),
                                line: ps.line,
                                message: format!(
                                    "nondeterminism flows through {} into a {} sink: {}",
                                    callee_name,
                                    ps.rule,
                                    a.trace.first().map(String::as_str).unwrap_or("tainted data")
                                ),
                                chain,
                                severity: Severity::Deny,
                            });
                        }
                    }
                    Tok::Param(outer, origin2) => {
                        let mut suffix = a.trace.clone();
                        push_step(&mut suffix, &pass_step);
                        for s in &ps.suffix {
                            push_step(&mut suffix, s);
                        }
                        self.summary.sinks.push(ParamSink {
                            param: *outer,
                            origin: *origin2,
                            rule: ps.rule,
                            path: ps.path.clone(),
                            line: ps.line,
                            suffix,
                        });
                    }
                }
            }
        }
        result
    }

    // ---- evaluation ------------------------------------------------------

    fn eval_block(&mut self, block: &Block) -> Taint {
        self.push_scope();
        let mut last = Taint::default();
        for stmt in &block.stmts {
            last = Taint::default();
            match stmt {
                Stmt::Let {
                    names, ty, init, ..
                } => {
                    let annotated = ty.as_deref().map(Ty::parse);
                    if let Some(init) = init {
                        let t = self.eval_expr(init, annotated.as_ref());
                        let inferred = infer_expr(self.sym, &self.tenv, init, annotated.as_ref());
                        let bound_ty = annotated.unwrap_or(inferred);
                        for name in names {
                            self.bind(name, t.clone());
                        }
                        bind_types(&mut self.tenv, names, &bound_ty);
                    } else {
                        for name in names {
                            self.bind(name, Taint::default());
                        }
                        if let Some(ty) = annotated {
                            bind_types(&mut self.tenv, names, &ty);
                        }
                    }
                }
                Stmt::Expr(e) => {
                    last = self.eval_expr(e, None);
                }
                Stmt::Return(Some(e), _) => {
                    let t = self.eval_expr(e, None);
                    self.ret.join(&t);
                }
                Stmt::Return(None, _) | Stmt::Item(_) => {}
            }
        }
        self.pop_scope();
        last
    }

    fn eval_expr(&mut self, expr: &Expr, expected: Option<&Ty>) -> Taint {
        match expr {
            Expr::Path { segs, .. } => {
                if segs.len() == 1 {
                    self.lookup(&segs[0])
                } else {
                    Taint::default()
                }
            }
            Expr::Lit { .. } | Expr::Unknown(_) => Taint::default(),
            Expr::Field { base, name, .. } => {
                if let Expr::Path { segs, .. } = base.as_ref() {
                    if segs.len() == 1 && segs[0] == "self" {
                        let mut t = self.lookup(&format!("self.{name}"));
                        t.join(&self.lookup("self"));
                        return t;
                    }
                }
                self.eval_expr(base, None)
            }
            Expr::Unary { expr, .. } => self.eval_expr(expr, expected),
            Expr::Try { expr, .. } | Expr::Cast { expr, .. } => self.eval_expr(expr, None),
            Expr::Tuple { items, .. } | Expr::ArrayLit { items, .. } => {
                let mut t = Taint::default();
                for e in items {
                    t.join(&self.eval_expr(e, None));
                }
                t
            }
            Expr::Binary { parts, .. } => {
                let mut t = Taint::default();
                for p in parts {
                    t.join(&self.eval_expr(p, None));
                }
                t
            }
            Expr::Index { base, index, .. } => {
                let mut t = self.eval_expr(base, None);
                t.join(&self.eval_expr(index, None));
                t
            }
            Expr::Block(block, _) => self.eval_block(block),
            Expr::If {
                cond,
                binds,
                then_branch,
                else_branch,
                ..
            } => {
                let ct = self.eval_expr(cond, None);
                self.push_scope();
                if !binds.is_empty() {
                    let ty = infer_expr(self.sym, &self.tenv, cond, None);
                    bind_types(&mut self.tenv, binds, &ty);
                    for b in binds {
                        self.bind(b, ct.clone());
                    }
                }
                let mut t = self.eval_block(then_branch);
                self.pop_scope();
                if let Some(e) = else_branch {
                    t.join(&self.eval_expr(e, expected));
                }
                t
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                let st = self.eval_expr(scrutinee, None);
                let ty = infer_expr(self.sym, &self.tenv, scrutinee, None);
                let mut t = Taint::default();
                for (binds, body) in arms {
                    self.push_scope();
                    bind_types(&mut self.tenv, binds, &ty);
                    for b in binds {
                        self.bind(b, st.clone());
                    }
                    t.join(&self.eval_expr(body, expected));
                    self.pop_scope();
                }
                t
            }
            Expr::For {
                names, iter, body, line,
            } => {
                let mut it = self.eval_expr(iter, None);
                let ity = infer_expr(self.sym, &self.tenv, iter, None);
                if ity.is_unordered_container() {
                    it.join(&Taint::src(
                        &format!(
                            "hash-order iteration of {}",
                            ity.peeled().head().unwrap_or("hash container")
                        ),
                        &self.site(*line),
                        Level::Order,
                    ));
                }
                let elem_ty = ity.element();
                // Loop context: the order-level taints of the sequence.
                let ctx = Taint {
                    toks: it.at_level(Level::Order).into_iter().cloned().collect(),
                };
                self.loop_ctx.push(ctx);
                // Two passes to observe loop-carried taint.
                for _ in 0..2 {
                    self.push_scope();
                    bind_types(&mut self.tenv, names, &elem_ty);
                    for n in names {
                        self.bind(n, it.clone());
                    }
                    if names.len() == 1 {
                        if let Some(backing) = Self::root_key(iter) {
                            if let Some(scope) = self.sort_backing.last_mut() {
                                scope.insert(names[0].clone(), backing);
                            }
                        }
                    }
                    self.eval_block(body);
                    self.pop_scope();
                }
                self.loop_ctx.pop();
                Taint::default()
            }
            Expr::While {
                cond, binds, body, ..
            } => {
                let ct = self.eval_expr(cond, None);
                for _ in 0..2 {
                    self.push_scope();
                    if !binds.is_empty() {
                        let ty = infer_expr(self.sym, &self.tenv, cond, None);
                        bind_types(&mut self.tenv, binds, &ty);
                        for b in binds {
                            self.bind(b, ct.clone());
                        }
                    }
                    self.eval_block(body);
                    self.pop_scope();
                }
                Taint::default()
            }
            Expr::Loop { body, .. } => {
                for _ in 0..2 {
                    self.eval_block(body);
                }
                Taint::default()
            }
            Expr::Closure { params, body, .. } => {
                self.push_scope();
                for p in params {
                    self.bind(p, Taint::default());
                }
                let t = self.eval_expr(body, None);
                self.pop_scope();
                t
            }
            Expr::Macro { name, args, .. } => {
                let mut t = Taint::default();
                for a in args {
                    t.join(&self.eval_expr(a, None));
                }
                if name == "return" {
                    self.ret.join(&t);
                    return Taint::default();
                }
                t
            }
            Expr::StructLit { path, fields, line } => self.eval_struct_lit(path, fields, *line),
            Expr::Assign {
                target, op, value, line,
            } => self.eval_assign(target, op.as_deref(), value, *line),
            Expr::Call { callee, args, line } => self.eval_call(callee, args, *line),
            Expr::MethodCall {
                recv,
                method,
                turbofish,
                args,
                line,
            } => self.eval_method(recv, method, turbofish.as_deref(), args, *line, expected),
        }
    }

    fn eval_struct_lit(
        &mut self,
        path: &[String],
        fields: &[(String, Expr)],
        line: u32,
    ) -> Taint {
        let type_name = path.last().map(String::as_str).unwrap_or("");
        let sink = struct_sink(type_name);
        let mut t = Taint::default();
        for (fname, value) in fields {
            let expected = if fname == ".." {
                Ty::Unknown
            } else {
                self.sym.field_ty(type_name, fname)
            };
            let ft = self.eval_expr(value, Some(&expected));
            if let Some((rule, min)) = sink {
                self.hit_sink(
                    &SinkHit {
                        rule,
                        min,
                        desc: format!("`{type_name}` construction (field `{fname}`)"),
                    },
                    line,
                    &ft,
                );
            }
            t.join(&ft);
        }
        t
    }

    fn eval_assign(
        &mut self,
        target: &Expr,
        op: Option<&str>,
        value: &Expr,
        _line: u32,
    ) -> Taint {
        // Evaluate the target for side-effect sinks (e.g. indexing a
        // sink receiver) without treating it as a read.
        let target_ty = infer_expr(self.sym, &self.tenv, target, None);
        let vt = self.eval_expr(value, Some(&target_ty));
        let Some(root) = Self::root_key(target) else {
            return Taint::default();
        };
        let value_ty = infer_expr(self.sym, &self.tenv, value, None);
        let float = target_ty.is_float() || value_ty.is_float() || has_float_lit(value);
        match op {
            None => {
                // Plain assignment. Inside a hash-ordered loop, which
                // iteration wins a conditional write is itself
                // order-dependent (argmax/selection patterns).
                let mut t = vt;
                let ctx = self.joined_loop_ctx();
                t.join(&ctx);
                if matches!(target, Expr::Path { .. }) && self.loop_ctx.is_empty() {
                    self.bind(&root, t);
                } else {
                    self.join_var(&root, &t);
                }
            }
            Some(op) if float && matches!(op, "+" | "-" | "*" | "/") => {
                // Float accumulation: order-dependent rounding promotes
                // order taint (operand *and* enclosing loop) to Value.
                let mut acc = vt;
                acc.join(&self.joined_loop_ctx());
                let promoted =
                    acc.promoted("float accumulation promotes order-taint to value-taint");
                self.join_var(&root, &promoted);
            }
            Some("+" | "-" | "*" | "^" | "&" | "|") => {
                // Commutative integer accumulation is order-free: the
                // sequence taint is erased, value taint persists.
                self.join_var(&root, &vt.cleansed_order());
            }
            Some(_) => {
                let mut t = vt;
                t.join(&self.joined_loop_ctx());
                self.join_var(&root, &t);
            }
        }
        Taint::default()
    }

    fn eval_call(&mut self, callee: &[String], args: &[Expr], line: u32) -> Taint {
        let arg_taints: Vec<Taint> = args.iter().map(|a| self.eval_expr(a, None)).collect();
        let name = callee.last().map(String::as_str).unwrap_or("");
        // Sources.
        if name == "now"
            && callee
                .iter()
                .any(|s| s == "SystemTime" || s == "Instant")
        {
            return Taint::src("wall-clock read", &self.site(line), Level::Value);
        }
        if name == "thread_rng" || name == "from_entropy" {
            return Taint::src("unseeded RNG", &self.site(line), Level::Value);
        }
        if name == "random" && callee.len() >= 2 && callee.contains(&"rand".to_string()) {
            return Taint::src("unseeded RNG", &self.site(line), Level::Value);
        }
        if name == "current" && callee.contains(&"thread".to_string()) {
            return Taint::src("thread identity", &self.site(line), Level::Value);
        }
        // Cleanser: the free `span(tracer, name, parent)` helper and
        // obs-type associated constructors (`Tracer::monotonic`,
        // `SpanGuard::disabled`, …) are the terminal metrics plane —
        // see `is_obs_plane`.
        if name == "span" && !args.is_empty()
            || callee.len() >= 2
                && (is_obs_plane(callee.get(callee.len() - 2).map(String::as_str))
                    || is_serve_plane(callee.get(callee.len() - 2).map(String::as_str)))
        {
            return Taint::default();
        }
        // Sinks by name.
        if let Some((rule, min)) = call_sink(name) {
            let mut joined = Taint::default();
            for t in &arg_taints {
                joined.join(t);
            }
            self.hit_sink(
                &SinkHit {
                    rule,
                    min,
                    desc: format!("`{name}` call"),
                },
                line,
                &joined,
            );
        }
        if let Some(ix) = self.sym.resolve_call(callee) {
            return self.apply_summary(ix, line, &arg_taints);
        }
        let mut t = Taint::default();
        for a in &arg_taints {
            t.join(a);
        }
        t
    }

    #[allow(clippy::too_many_lines)]
    fn eval_method(
        &mut self,
        recv: &Expr,
        method: &str,
        turbofish: Option<&str>,
        args: &[Expr],
        line: u32,
        expected: Option<&Ty>,
    ) -> Taint {
        let mut rt = self.eval_expr(recv, None);
        let recv_ty = infer_expr(self.sym, &self.tenv, recv, None);
        let elem_ty = recv_ty.element();

        // Source: starting an iteration over a hash-ordered container.
        if is_iter_starter(method) && recv_ty.is_unordered_container() {
            rt.join(&Taint::src(
                &format!(
                    "hash-order iteration of {}",
                    recv_ty.peeled().head().unwrap_or("hash container")
                ),
                &self.site(line),
                Level::Order,
            ));
        }
        // Source: clock reads off time values.
        if matches!(method, "elapsed" | "duration_since")
            && matches!(recv_ty.peeled().head(), Some("Instant") | Some("SystemTime"))
        {
            return Taint::src("wall-clock read", &self.site(line), Level::Value);
        }

        // Evaluate arguments; closures see the receiver's element.
        let mut arg_taints: Vec<Taint> = Vec::with_capacity(args.len());
        for a in args {
            if let Expr::Closure { params, body, .. } = a {
                self.push_scope();
                bind_closure_params(&mut self.tenv, params, &elem_ty);
                for p in params {
                    self.bind(p, rt.clone());
                }
                let t = self.eval_expr(body, None);
                self.pop_scope();
                arg_taints.push(t);
            } else {
                arg_taints.push(self.eval_expr(a, None));
            }
        }

        // Cleanser: any method on an obs-plane receiver (`Tracer`,
        // `SpanGuard`, `Histogram`, …) returns untainted data — span
        // timings stay in the metrics plane and handles are sequence
        // ids, so the clock read inside `Tracer::start` never leaks
        // Value taint into callers through its summary.
        if is_obs_plane(recv_ty.peeled().head()) || is_serve_plane(recv_ty.peeled().head()) {
            return Taint::default();
        }

        // Sinks: named calls and hasher writes.
        let sink = call_sink(method).or_else(|| {
            if method.starts_with("write")
                && recv_ty
                    .peeled()
                    .head()
                    .is_some_and(|h| h.contains("Hasher"))
            {
                Some(("taint-into-fingerprint", Level::Order))
            } else {
                None
            }
        });
        if let Some((rule, min)) = sink {
            let mut joined = Taint::default();
            for t in &arg_taints {
                joined.join(t);
            }
            self.hit_sink(
                &SinkHit {
                    rule,
                    min,
                    desc: format!("`{method}` call"),
                },
                line,
                &joined,
            );
        }

        // Workspace method: apply its summary (receiver is param 0).
        if let Some(ixc) = self.sym.resolve_method(&recv_ty, method) {
            let mut all = Vec::with_capacity(arg_taints.len() + 1);
            all.push(rt.clone());
            all.extend(arg_taints.iter().cloned());
            return self.apply_summary(ixc, line, &all);
        }

        // Structural std-method transfer rules.
        let joined_args = {
            let mut t = Taint::default();
            for a in &arg_taints {
                t.join(a);
            }
            t
        };
        if is_sort(method) {
            if let Some(root) = Self::root_key(recv) {
                let cleansed = self.lookup(&root).cleansed_order();
                self.join_sorted(&root, cleansed);
                // `for list in &mut c { list.sort(); }` — the
                // build-then-sort idiom erases the order taint of the
                // backing container, not just the loop variable. (The
                // workspace sorts the outer container too whenever its
                // own order matters, so cleansing the root here is the
                // intended reading, not an over-approximation.)
                if let Some(backing) = self.sort_backing_of(&root) {
                    let cleansed = self.lookup(&backing).cleansed_order();
                    self.join_sorted(&backing, cleansed);
                }
            }
            return Taint::default();
        }
        if is_full_cleanse(method) {
            return Taint::default();
        }
        match method {
            // Mutating inserts: sequence position matters for Vec-like
            // receivers (including the enclosing loop's order), not for
            // keyed containers.
            "push" | "push_back" | "push_front" | "insert" | "extend" | "append"
            | "push_str" | "insert_str" => {
                if let Some(root) = Self::root_key(recv) {
                    let mut add = joined_args;
                    if is_keyed_container(&recv_ty) {
                        add = add.cleansed_order();
                    } else {
                        add.join(&self.joined_loop_ctx());
                    }
                    self.join_var(&root, &add);
                }
                Taint::default()
            }
            "collect" => {
                let target = match turbofish {
                    Some(t) => Ty::parse(t),
                    None => expected.cloned().unwrap_or(Ty::Unknown),
                };
                if is_keyed_container(&target) {
                    rt.cleansed_order()
                } else {
                    rt
                }
            }
            "sum" | "product" => {
                let sum_ty = turbofish.map(Ty::parse).unwrap_or(elem_ty.clone());
                if sum_ty.is_float() {
                    rt.promoted("float reduction promotes order-taint to value-taint")
                } else if sum_ty == Ty::Unknown {
                    rt
                } else {
                    rt.cleansed_order()
                }
            }
            "fold" => {
                let mut init = arg_taints.first().cloned().unwrap_or_default();
                match fold_kind(args.get(1), &elem_ty) {
                    FoldKind::Commutative => {
                        init.join(&rt.cleansed_order());
                        init
                    }
                    FoldKind::FloatAccum => {
                        init.join(
                            &rt.promoted("float fold promotes order-taint to value-taint"),
                        );
                        init
                    }
                    FoldKind::OrderSensitive => {
                        init.join(&rt);
                        init.join(&joined_args);
                        init
                    }
                }
            }
            "max" | "min" | "max_by" | "min_by" | "max_by_key" | "min_by_key" => {
                // Selection by a total order: result is the same
                // extremum whatever the iteration order.
                rt.cleansed_order()
            }
            _ => {
                let mut t = rt;
                t.join(&joined_args);
                t
            }
        }
    }

    /// Rebind `root` entirely (sorts replace the order component).
    fn join_sorted(&mut self, root: &str, cleansed: Taint) {
        for scope in self.taints.iter_mut().rev() {
            if scope.contains_key(root) {
                scope.insert(root.to_string(), cleansed);
                return;
            }
        }
        self.bind(root, cleansed);
    }
}

/// Bind destructured names' types (mirrors taint binding).
fn bind_types(tenv: &mut TypeEnv, names: &[String], ty: &Ty) {
    let ty = if ty.peeled().head() == Some("Option") {
        ty.arg0()
    } else {
        ty.clone()
    };
    if names.len() == 1 {
        tenv.bind(&names[0], ty);
        return;
    }
    for (ix, n) in names.iter().enumerate() {
        tenv.bind(n, ty.tuple_field(ix));
    }
}

enum FoldKind {
    Commutative,
    FloatAccum,
    OrderSensitive,
}

/// Classify a fold closure: commutative integer/bitwise folds and
/// float `max`/`min` erase order; float `+`/`*` promote; anything else
/// is conservatively order-sensitive.
fn fold_kind(closure: Option<&Expr>, elem_ty: &Ty) -> FoldKind {
    let Some(Expr::Closure { body, .. }) = closure else {
        // `fold(init, f64::max)`-style path argument.
        if let Some(Expr::Path { segs, .. }) = closure {
            if matches!(segs.last().map(String::as_str), Some("max") | Some("min")) {
                return FoldKind::Commutative;
            }
        }
        return FoldKind::OrderSensitive;
    };
    match body.as_ref() {
        Expr::Binary { ops, .. } => {
            if ops.iter().all(|op| matches!(op.as_str(), "^" | "|" | "&")) {
                return FoldKind::Commutative;
            }
            if ops.iter().all(|op| matches!(op.as_str(), "+" | "*")) {
                if elem_ty.is_float() || has_float_lit(body) {
                    return FoldKind::FloatAccum;
                }
                return FoldKind::Commutative;
            }
            FoldKind::OrderSensitive
        }
        Expr::MethodCall { method, .. } => match method.as_str() {
            "max" | "min" => FoldKind::Commutative,
            "wrapping_add" | "wrapping_mul" => FoldKind::Commutative,
            _ => FoldKind::OrderSensitive,
        },
        _ => FoldKind::OrderSensitive,
    }
}

/// Any floating-point literal in the expression tree?
fn has_float_lit(expr: &Expr) -> bool {
    match expr {
        Expr::Lit { text, .. } => {
            text.starts_with(|c: char| c.is_ascii_digit())
                && (text.contains('.') || text.ends_with("f64") || text.ends_with("f32"))
        }
        Expr::Binary { parts, .. } => parts.iter().any(has_float_lit),
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => has_float_lit(expr),
        Expr::MethodCall { recv, args, .. } => {
            has_float_lit(recv) || args.iter().any(has_float_lit)
        }
        Expr::Call { args, .. } => args.iter().any(has_float_lit),
        _ => false,
    }
}
