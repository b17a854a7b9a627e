//! Lock-order inference: derive the lock-acquisition graph from the
//! AST and cross-check it against the workspace's `// lint: lock-order`
//! annotations — the workspace's only lock-order check.
//!
//! The pass finds every nested acquisition — including ones nobody
//! annotated — and requires a declared order to exist and agree.
//! Acquisitions that are not nested (one function taking `b`, another
//! later taking `a`) cannot deadlock and are not findings. Cycles in
//! the acquisition graph (the actual deadlock condition) are detected
//! globally, across functions, using a may-acquire fixpoint over the
//! call graph.
//!
//! An acquisition is a `.lock()` / `.read()` / `.write()` call whose
//! receiver's inferred type is `Mutex` or `RwLock`. Guard lifetimes
//! follow the workspace idiom: a `let`-bound guard lives to the end of
//! its block (or an explicit `drop(guard)`), anything else is a
//! temporary that dies at the end of its statement. Locks the type
//! inference cannot see acquire nothing — a parser or typing gap makes
//! this pass miss, never misfire.
//!
//! Rules:
//!
//! | rule                    | severity | meaning |
//! |-------------------------|----------|---------|
//! | `lock-order-undeclared` | deny     | a nested acquisition with no matching `// lint: lock-order A < B` annotation in the file (or contradicting one) |
//! | `lock-order-cycle`      | deny     | the global acquisition graph has a cycle |
//! | `lock-annotation-unused`| warn     | a declared order matches no observed nested acquisition |

use crate::audit::{AuditFinding, Severity};
use crate::callgraph::{bind_closure_params, infer_expr, FnFacts, TypeEnv};
use crate::parser::{Block, Expr, Stmt};
use crate::symbols::Symbols;
use crate::tokenizer::Token;
use crate::ty::Ty;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Methods that acquire a guard on `Mutex` / `RwLock`.
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// One `// lint: lock-order A < B` annotation.
struct Annotation {
    first: String,
    second: String,
    line: u32,
}

/// Scan a file's comment tokens for lock-order annotations.
fn parse_annotations(tokens: &[Token]) -> Vec<Annotation> {
    let mut out = Vec::new();
    for tok in tokens {
        if !tok.is_comment() {
            continue;
        }
        // Doc comments quote the annotation grammar when documenting
        // it; only plain comments declare an order.
        let text = tok.text.as_str();
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = text.find("lint: lock-order") else {
            continue;
        };
        let rest = &text[pos + "lint: lock-order".len()..];
        let Some((a, b)) = rest.split_once('<') else {
            continue;
        };
        let (a, b) = (a.trim(), b.trim().trim_end_matches("*/").trim_end());
        let is_ident =
            |s: &str| !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_');
        if !is_ident(a) || !is_ident(b) {
            continue;
        }
        out.push(Annotation {
            first: a.to_string(),
            second: b.to_string(),
            line: tok.line,
        });
    }
    out
}

/// A currently-held guard during the body walk.
struct Held {
    /// Bare lock name (field or binding) — what annotations use.
    bare: String,
    /// Owner-qualified name (`Type.field`) — the cycle-graph node.
    qual: String,
    /// Binding name for `let`-bound guards, `None` for temporaries.
    guard: Option<String>,
    /// Still held? (released entries stay in place so scope lengths
    /// remain valid indices).
    alive: bool,
}

/// One observed nested acquisition: `from` was held when `to` was
/// acquired.
struct LockEdge {
    from_bare: String,
    from_qual: String,
    to_bare: String,
    to_qual: String,
    /// File index of the acquisition site.
    file: usize,
    /// 1-based line of the inner acquisition (or the call, for
    /// call-graph edges).
    line: u32,
    /// Callee name for edges inferred through a call, `None` for
    /// direct nested acquisitions.
    via: Option<String>,
}

/// A workspace call made while holding a lock.
struct HeldCall {
    held_bare: String,
    held_qual: String,
    callee: usize,
    file: usize,
    line: u32,
}

/// Walker state for one function body.
struct Lx<'a, 'b> {
    sym: &'b Symbols<'a>,
    env: TypeEnv,
    file: usize,
    held: Vec<Held>,
    /// Owner-qualified locks acquired anywhere in this body.
    direct: BTreeSet<String>,
    edges: &'b mut Vec<LockEdge>,
    held_calls: &'b mut Vec<HeldCall>,
}

impl Lx<'_, '_> {
    /// Derive `(bare, qual)` labels for a lock receiver expression.
    fn lock_label(&self, recv: &Expr) -> Option<(String, String)> {
        match recv {
            Expr::Field { base, name, .. } => {
                let qual = match infer_expr(self.sym, &self.env, base, None).peeled().head() {
                    Some(owner) => format!("{owner}.{name}"),
                    None => name.clone(),
                };
                Some((name.clone(), qual))
            }
            Expr::Path { segs, .. } => {
                let name = segs.last()?.clone();
                Some((name.clone(), name))
            }
            _ => None,
        }
    }

    /// Record an acquisition: edges from every held lock, then push
    /// the new guard. Returns its index in `held`.
    fn acquire(&mut self, bare: String, qual: String, line: u32) -> usize {
        for h in self.held.iter().filter(|h| h.alive) {
            self.edges.push(LockEdge {
                from_bare: h.bare.clone(),
                from_qual: h.qual.clone(),
                to_bare: bare.clone(),
                to_qual: qual.clone(),
                file: self.file,
                line,
                via: None,
            });
        }
        self.direct.insert(qual.clone());
        self.held.push(Held {
            bare,
            qual,
            guard: None,
            alive: true,
        });
        self.held.len() - 1
    }

    /// Release every guard at index `from` or later (end of statement
    /// or block).
    fn release_from(&mut self, from: usize) {
        for h in &mut self.held[from..] {
            h.alive = false;
        }
    }

    fn walk_block(&mut self, block: &Block) {
        let scope = self.held.len();
        self.env.push();
        for stmt in &block.stmts {
            self.walk_stmt(stmt);
        }
        self.env.pop();
        self.release_from(scope);
    }

    fn walk_stmt(&mut self, stmt: &Stmt) {
        let start = self.held.len();
        match stmt {
            Stmt::Let {
                names, ty, init, ..
            } => {
                let annotated = ty.as_deref().map(Ty::parse);
                if let Some(init) = init {
                    self.walk_expr(init);
                    let inferred = infer_expr(self.sym, &self.env, init, annotated.as_ref());
                    bind_names(&mut self.env, names, &annotated.unwrap_or(inferred));
                    // Temporaries die with the statement; a guard bound
                    // directly by this `let` survives to end of block.
                    self.release_from(start);
                    if names.len() == 1 {
                        if let Some((bare, qual, _)) = self.direct_acquisition(init) {
                            self.held.push(Held {
                                bare,
                                qual,
                                guard: Some(names[0].clone()),
                                alive: true,
                            });
                        }
                    }
                } else if let Some(ty) = annotated {
                    bind_names(&mut self.env, names, &ty);
                }
            }
            Stmt::Expr(e) => {
                // `drop(guard)` releases a named guard early.
                if let Expr::Call { callee, args, .. } = e {
                    if callee.len() == 1 && callee[0] == "drop" && args.len() == 1 {
                        if let Expr::Path { segs, .. } = &args[0] {
                            if let Some(name) = segs.last() {
                                for h in &mut self.held {
                                    if h.guard.as_deref() == Some(name) {
                                        h.alive = false;
                                    }
                                }
                            }
                        }
                    }
                }
                self.walk_expr(e);
                self.release_from(start);
            }
            Stmt::Return(Some(e), _) => {
                self.walk_expr(e);
                self.release_from(start);
            }
            Stmt::Return(None, _) | Stmt::Item(_) => {}
        }
    }

    /// If `e` is itself a lock acquisition, return its labels and line
    /// — *without* recording it (the walk already did). Deliberately
    /// does not look through unary wrappers: `let v = *self.m.read();`
    /// copies a value out of a *temporary* guard, it does not bind one.
    fn direct_acquisition(&self, e: &Expr) -> Option<(String, String, u32)> {
        match e {
            Expr::MethodCall {
                recv, method, line, ..
            } if LOCK_METHODS.contains(&method.as_str()) => {
                let recv_ty = infer_expr(self.sym, &self.env, recv, None);
                if !recv_ty.peeled().is_lock() {
                    return None;
                }
                let (bare, qual) = self.lock_label(recv)?;
                Some((bare, qual, *line))
            }
            _ => None,
        }
    }

    fn walk_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Call { callee, args, line } => {
                for a in args {
                    self.walk_expr(a);
                }
                if let Some(ix) = self.sym.resolve_call(callee) {
                    self.record_held_call(ix, *line);
                }
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
                ..
            } => {
                self.walk_expr(recv);
                let recv_ty = infer_expr(self.sym, &self.env, recv, None);
                if LOCK_METHODS.contains(&method.as_str()) && recv_ty.peeled().is_lock() {
                    if let Some((bare, qual)) = self.lock_label(recv) {
                        self.acquire(bare, qual, *line);
                    }
                } else if let Some(ix) = self.sym.resolve_method(&recv_ty, method) {
                    self.record_held_call(ix, *line);
                }
                let elem = recv_ty.element();
                for a in args {
                    if let Expr::Closure { params, body, .. } = a {
                        self.env.push();
                        bind_closure_params(&mut self.env, params, &elem);
                        self.walk_expr(body);
                        self.env.pop();
                    } else {
                        self.walk_expr(a);
                    }
                }
            }
            Expr::Field { base, .. }
            | Expr::Cast { expr: base, .. }
            | Expr::Unary { expr: base, .. }
            | Expr::Try { expr: base, .. } => self.walk_expr(base),
            Expr::Index { base, index, .. } => {
                self.walk_expr(base);
                self.walk_expr(index);
            }
            Expr::StructLit { fields, .. } => {
                for (_, v) in fields {
                    self.walk_expr(v);
                }
            }
            Expr::Closure { params, body, .. } => {
                self.env.push();
                for p in params {
                    self.env.bind(p, Ty::Unknown);
                }
                self.walk_expr(body);
                self.env.pop();
            }
            Expr::For {
                names, iter, body, ..
            } => {
                self.walk_expr(iter);
                let elem = infer_expr(self.sym, &self.env, iter, None).element();
                self.env.push();
                bind_names(&mut self.env, names, &elem);
                self.walk_block(body);
                self.env.pop();
            }
            Expr::While {
                cond, binds, body, ..
            } => {
                self.walk_expr(cond);
                self.env.push();
                if !binds.is_empty() {
                    let ty = infer_expr(self.sym, &self.env, cond, None);
                    bind_names(&mut self.env, binds, &ty);
                }
                self.walk_block(body);
                self.env.pop();
            }
            Expr::Loop { body, .. } => self.walk_block(body),
            Expr::If {
                cond,
                binds,
                then_branch,
                else_branch,
                ..
            } => {
                self.walk_expr(cond);
                self.env.push();
                if !binds.is_empty() {
                    let ty = infer_expr(self.sym, &self.env, cond, None);
                    bind_names(&mut self.env, binds, &ty);
                }
                self.walk_block(then_branch);
                self.env.pop();
                if let Some(e) = else_branch {
                    self.walk_expr(e);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.walk_expr(scrutinee);
                let ty = infer_expr(self.sym, &self.env, scrutinee, None);
                for (binds, body) in arms {
                    self.env.push();
                    bind_names(&mut self.env, binds, &ty);
                    self.walk_expr(body);
                    self.env.pop();
                }
            }
            Expr::Assign { target, value, .. } => {
                self.walk_expr(target);
                self.walk_expr(value);
            }
            Expr::Binary { parts, .. } => {
                for p in parts {
                    self.walk_expr(p);
                }
            }
            Expr::Macro { args, .. } | Expr::Tuple { items: args, .. }
            | Expr::ArrayLit { items: args, .. } => {
                for a in args {
                    self.walk_expr(a);
                }
            }
            Expr::Block(b, _) => self.walk_block(b),
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Unknown(_) => {}
        }
    }

    /// Record a workspace call made while at least one lock is held.
    fn record_held_call(&mut self, callee: usize, line: u32) {
        for h in self.held.iter().filter(|h| h.alive) {
            self.held_calls.push(HeldCall {
                held_bare: h.bare.clone(),
                held_qual: h.qual.clone(),
                callee,
                file: self.file,
                line,
            });
        }
    }
}

/// Bind pattern names against a type (single name gets the whole type,
/// `Some(x)` patterns see the `Option` payload, tuples bind
/// positionally).
fn bind_names(env: &mut TypeEnv, names: &[String], ty: &Ty) {
    let ty = if ty.peeled().head() == Some("Option") {
        ty.arg0()
    } else {
        ty.clone()
    };
    if names.len() == 1 {
        env.bind(&names[0], ty);
        return;
    }
    for (ix, name) in names.iter().enumerate() {
        env.bind(name, ty.tuple_field(ix));
    }
}

/// Run the pass over every non-test function.
pub fn run(sym: &Symbols, facts: &[FnFacts], file_tokens: &[Vec<Token>]) -> Vec<AuditFinding> {
    let mut edges = Vec::new();
    let mut held_calls = Vec::new();
    let mut direct: Vec<BTreeSet<String>> = Vec::with_capacity(sym.fns.len());
    for info in &sym.fns {
        let mut lx = Lx {
            sym,
            env: TypeEnv::new(),
            file: info.file,
            held: Vec::new(),
            direct: BTreeSet::new(),
            edges: &mut edges,
            held_calls: &mut held_calls,
        };
        if let Some(body) = &info.def.body {
            if !info.is_test {
                for (p, ty) in info.def.params.iter().zip(&info.param_tys) {
                    lx.env.bind(&p.name, ty.clone());
                }
                lx.walk_block(body);
            }
        }
        direct.push(lx.direct);
    }

    // May-acquire fixpoint over the call graph: a function may acquire
    // everything it acquires directly plus everything its callees may.
    let mut may = direct;
    for _ in 0..32 {
        let mut changed = false;
        for ix in 0..may.len() {
            let mut add: Vec<String> = Vec::new();
            for call in &facts[ix].calls {
                for q in &may[call.callee] {
                    if !may[ix].contains(q) {
                        add.push(q.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                may[ix].extend(add);
            }
        }
        if !changed {
            break;
        }
    }

    // Calls while holding turn into call-graph edges against everything
    // the callee may acquire (self edges through calls are fixpoint
    // noise — re-entering `Shard.map` on a *different* shard is fine —
    // so only direct self edges count).
    let mut callee_may: Vec<LockEdge> = Vec::new();
    for hc in &held_calls {
        for q in &may[hc.callee] {
            if *q == hc.held_qual {
                continue;
            }
            callee_may.push(LockEdge {
                from_bare: hc.held_bare.clone(),
                from_qual: hc.held_qual.clone(),
                to_bare: q.rsplit('.').next().unwrap_or(q).to_string(),
                to_qual: q.clone(),
                file: hc.file,
                line: hc.line,
                via: Some(sym.fns[hc.callee].qual_name()),
            });
        }
    }
    edges.extend(callee_may);

    // Annotations per file.
    let annotations: Vec<Vec<Annotation>> =
        file_tokens.iter().map(|t| parse_annotations(t)).collect();
    let mut used: Vec<Vec<bool>> = annotations.iter().map(|a| vec![false; a.len()]).collect();

    let mut findings = Vec::new();
    let mut reported: BTreeSet<(String, String, u32)> = BTreeSet::new();
    for e in &edges {
        if e.via.is_some() {
            continue; // call-graph edges feed the cycle check only
        }
        let file_ann = &annotations[e.file];
        let declared = file_ann
            .iter()
            .position(|a| a.first == e.from_bare && a.second == e.to_bare);
        if let Some(ix) = declared {
            used[e.file][ix] = true;
            continue;
        }
        let key = (e.from_qual.clone(), e.to_qual.clone(), e.line);
        if !reported.insert(key) {
            continue;
        }
        let contradicted = file_ann
            .iter()
            .any(|a| a.first == e.to_bare && a.second == e.from_bare);
        let message = if contradicted {
            format!(
                "`{}` acquired while `{}` is held, contradicting the declared order `// lint: lock-order {} < {}`",
                e.to_qual, e.from_qual, e.to_bare, e.from_bare
            )
        } else {
            format!(
                "`{}` acquired while `{}` is held with no declared order; add `// lint: lock-order {} < {}` (or restructure)",
                e.to_qual, e.from_qual, e.from_bare, e.to_bare
            )
        };
        findings.push(AuditFinding {
            rule: "lock-order-undeclared",
            path: sym.files[e.file].path.clone(),
            line: e.line,
            message,
            chain: vec![format!(
                "`{}` held at {}:{} when `{}` is acquired",
                e.from_qual, sym.files[e.file].path, e.line, e.to_qual
            )],
            severity: Severity::Deny,
        });
    }

    findings.extend(find_cycles(sym, &edges));

    for (fi, anns) in annotations.iter().enumerate() {
        for (ai, ann) in anns.iter().enumerate() {
            if used[fi][ai] {
                continue;
            }
            findings.push(AuditFinding {
                rule: "lock-annotation-unused",
                path: sym.files[fi].path.clone(),
                line: ann.line,
                message: format!(
                    "declared lock order `{} < {}` matches no observed nested acquisition",
                    ann.first, ann.second
                ),
                chain: Vec::new(),
                severity: Severity::Warn,
            });
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Detect cycles in the qualified acquisition graph (DFS, reporting
/// each distinct cycle node-set once).
fn find_cycles(sym: &Symbols, edges: &[LockEdge]) -> Vec<AuditFinding> {
    let mut graph: BTreeMap<&str, BTreeMap<&str, &LockEdge>> = BTreeMap::new();
    for e in edges {
        graph
            .entry(e.from_qual.as_str())
            .or_default()
            .entry(e.to_qual.as_str())
            .or_insert(e);
    }
    let nodes: Vec<&str> = graph.keys().copied().collect();
    let mut state: HashMap<&str, u8> = HashMap::new(); // 0 unvisited, 1 on stack, 2 done
    let mut stack: Vec<&str> = Vec::new();
    let mut findings = Vec::new();
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();

    fn dfs<'g>(
        node: &'g str,
        graph: &BTreeMap<&'g str, BTreeMap<&'g str, &'g LockEdge>>,
        state: &mut HashMap<&'g str, u8>,
        stack: &mut Vec<&'g str>,
        sym: &Symbols,
        seen: &mut BTreeSet<Vec<String>>,
        findings: &mut Vec<AuditFinding>,
    ) {
        state.insert(node, 1);
        stack.push(node);
        if let Some(succs) = graph.get(node) {
            for (&succ, &edge) in succs {
                match state.get(succ).copied().unwrap_or(0) {
                    0 => dfs(succ, graph, state, stack, sym, seen, findings),
                    1 => {
                        // Back edge: the cycle is the stack suffix from
                        // `succ` plus this edge.
                        let start = stack.iter().position(|&n| n == succ).unwrap_or(0);
                        let cycle: Vec<String> =
                            stack[start..].iter().map(|s| s.to_string()).collect();
                        let mut key = cycle.clone();
                        key.sort();
                        if !seen.insert(key) {
                            continue;
                        }
                        let mut chain: Vec<String> = cycle
                            .windows(2)
                            .map(|w| format!("`{}` acquired before `{}`", w[0], w[1]))
                            .collect();
                        chain.push(match &edge.via {
                            Some(callee) => format!(
                                "`{}` acquired before `{}` (through call to {} at {}:{})",
                                node, succ, callee, sym.files[edge.file].path, edge.line
                            ),
                            None => format!(
                                "`{}` acquired before `{}` at {}:{}",
                                node, succ, sym.files[edge.file].path, edge.line
                            ),
                        });
                        findings.push(AuditFinding {
                            rule: "lock-order-cycle",
                            path: sym.files[edge.file].path.clone(),
                            line: edge.line,
                            message: format!(
                                "lock acquisition cycle: {} -> `{}`",
                                cycle
                                    .iter()
                                    .map(|n| format!("`{n}`"))
                                    .collect::<Vec<_>>()
                                    .join(" -> "),
                                succ
                            ),
                            chain,
                            severity: Severity::Deny,
                        });
                    }
                    _ => {}
                }
            }
        }
        stack.pop();
        state.insert(node, 2);
    }

    for node in nodes {
        if state.get(node).copied().unwrap_or(0) == 0 {
            dfs(
                node,
                &graph,
                &mut state,
                &mut stack,
                sym,
                &mut seen_cycles,
                &mut findings,
            );
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::collect_facts;
    use crate::parser::{parse_file, ParsedFile};
    use crate::tokenizer::tokenize;

    fn audit(src: &str) -> Vec<AuditFinding> {
        let tokens = tokenize(src);
        let files: Vec<ParsedFile> = vec![parse_file("a.rs", "test", &tokens)];
        let sym = Symbols::build(&files);
        let facts = collect_facts(&sym);
        run(&sym, &facts, &[tokens])
    }

    #[test]
    fn declared_nesting_is_clean() {
        let findings = audit(
            "// lint: lock-order writer < map\n\
             pub struct S { writer: Mutex<()>, map: RwLock<u32> }\n\
             impl S {\n\
                 pub fn go(&self) {\n\
                     let _w = self.writer.lock();\n\
                     let mut g = self.map.write();\n\
                     *g += 1;\n\
                 }\n\
             }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn undeclared_nesting_is_denied() {
        let findings = audit(
            "pub struct S { a: Mutex<()>, b: Mutex<()> }\n\
             impl S {\n\
                 pub fn go(&self) {\n\
                     let _a = self.a.lock();\n\
                     let _b = self.b.lock();\n\
                 }\n\
             }",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "lock-order-undeclared");
        assert_eq!(findings[0].severity, Severity::Deny);
    }

    #[test]
    fn temporary_guard_releases_at_statement_end() {
        // The `read()` temporary dies with its statement, so the later
        // `write()` is not a nested acquisition.
        let findings = audit(
            "pub struct S { map: RwLock<u32> }\n\
             impl S {\n\
                 pub fn go(&self) -> u32 {\n\
                     let v = *self.map.read();\n\
                     *self.map.write() = v + 1;\n\
                     v\n\
                 }\n\
             }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn dropped_guard_is_released() {
        let findings = audit(
            "pub struct S { a: Mutex<()>, b: Mutex<()> }\n\
             impl S {\n\
                 pub fn go(&self) {\n\
                     let g = self.a.lock();\n\
                     drop(g);\n\
                     let _b = self.b.lock();\n\
                 }\n\
             }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn contradicting_order_names_the_annotation() {
        let findings = audit(
            "// lint: lock-order a < b\n\
             pub struct S { a: Mutex<()>, b: Mutex<()> }\n\
             impl S {\n\
                 pub fn go(&self) {\n\
                     let _b = self.b.lock();\n\
                     let _a = self.a.lock();\n\
                 }\n\
             }",
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "lock-order-undeclared" && f.message.contains("contradicting")),
            "{findings:?}"
        );
    }

    #[test]
    fn cross_function_cycle_is_detected() {
        // `first` nests a<b directly; `second` holds b and calls a
        // helper that may acquire a: b -> a through the call graph.
        let findings = audit(
            "// lint: lock-order a < b\n\
             pub struct S { a: Mutex<()>, b: Mutex<()> }\n\
             impl S {\n\
                 pub fn first(&self) {\n\
                     let _a = self.a.lock();\n\
                     let _b = self.b.lock();\n\
                 }\n\
                 pub fn touch_a(&self) { let _a = self.a.lock(); }\n\
                 pub fn second(&self) {\n\
                     let _b = self.b.lock();\n\
                     self.touch_a();\n\
                 }\n\
             }",
        );
        assert!(
            findings.iter().any(|f| f.rule == "lock-order-cycle"),
            "{findings:?}"
        );
    }

    #[test]
    fn unused_annotation_warns() {
        let findings = audit(
            "// lint: lock-order x < y\n\
             pub struct S { x: Mutex<()>, y: Mutex<()> }\n\
             impl S { pub fn only_x(&self) { let _x = self.x.lock(); } }",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "lock-annotation-unused");
        assert_eq!(findings[0].severity, Severity::Warn);
    }
}
