//! # locks — static lock-order analysis (DESIGN.md §13)
//!
//! Consumes the per-file ASTs ([`crate::ast`]) and the approximate call
//! graph ([`crate::callgraph`]) to build a whole-workspace **static
//! lock-order graph**: an edge `A → B` means some code path acquires `B`
//! while holding `A`. Cycles are reported as `lock-order-cycle` findings
//! (potential deadlocks even if no run has interleaved them yet), and a
//! guard held across a blocking call (fsync, WAL append, `recv`, `join`,
//! condvar wait, bounded-channel send) is a `guard-across-blocking`
//! finding — the general form of the old `guard-across-wal` rule.
//!
//! ## Lock identity
//!
//! Locks are keyed by resolved name, best-effort, in this order:
//! `Type.field` (struct lock fields reached through typed receivers),
//! `static.NAME`, `local:<file>:<fn>:<var>` for function-local locks,
//! and `?.field` when only the field name is known. The same resolution
//! runs for static edges **and** for mapping runtime sites in the
//! subset check, so imprecision is consistent on both sides: a key the
//! static analysis fragments is fragmented identically when a runtime
//! site is looked up.
//!
//! ## Cross-validation contract
//!
//! The runtime sanitizer observes real acquisitions; its edges are
//! ground truth. [`runtime_subset`] checks every observed edge against
//! this graph — an observed edge with no static counterpart is a
//! *soundness bug in the lint* and fails CI. Static-only edges are
//! expected (that is the point of a static over-approximation) and only
//! surface through the cycle/blocking findings, which fail like any
//! other finding unless an inline `// lint: allow` exempts the site.

use crate::ast::{self, AliasSrc, Ev, FileAst, HeadHint, LockKind};
use crate::callgraph::{transitive, CallGraph, Effect, Site};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// Model: lock identity tables
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Model {
    /// (struct, field) → lock kind, for lock-typed fields.
    field_locks: HashMap<(String, String), LockKind>,
    /// field name → all (struct, kind) lock fields with that name.
    lock_fields_by_name: HashMap<String, Vec<(String, LockKind)>>,
    /// (struct, field) → base type, for receiver-chain typing.
    field_base: HashMap<(String, String), String>,
    /// field name → distinct base types across all structs (for typing a
    /// field whose struct is unknown).
    base_by_field: HashMap<String, BTreeSet<String>>,
    /// Lock-typed statics.
    statics: HashMap<String, LockKind>,
    /// fn name → distinct return base types.
    ret_base: HashMap<String, BTreeSet<String>>,
    /// Files that create bounded channels (`bounded(..)`): `.send(` in
    /// these files is treated as blocking.
    bounded_files: BTreeSet<String>,
}

impl Model {
    fn build(files: &[(String, FileAst)]) -> Model {
        let mut m = Model::default();
        for (path, ast) in files {
            for f in &ast.fields {
                if let Some(kind) = f.lock {
                    m.field_locks
                        .insert((f.strukt.clone(), f.field.clone()), kind);
                    m.lock_fields_by_name
                        .entry(f.field.clone())
                        .or_default()
                        .push((f.strukt.clone(), kind));
                }
                if !f.base_ty.is_empty() {
                    m.field_base
                        .insert((f.strukt.clone(), f.field.clone()), f.base_ty.clone());
                    m.base_by_field
                        .entry(f.field.clone())
                        .or_default()
                        .insert(f.base_ty.clone());
                }
            }
            for s in &ast.statics {
                m.statics.insert(s.name.clone(), s.kind);
            }
            for d in &ast.fns {
                if !d.ret_base.is_empty() {
                    m.ret_base
                        .entry(d.name.clone())
                        .or_default()
                        .insert(d.ret_base.clone());
                }
                if d.body.iter().any(
                    |e| matches!(e, Ev::Call { name, .. } if name == "bounded"),
                ) {
                    m.bounded_files.insert(path.clone());
                }
            }
        }
        for v in m.lock_fields_by_name.values_mut() {
            v.sort();
            v.dedup();
        }
        m
    }

    /// Unique lock field named `f` with kind `need`, if exactly one
    /// struct declares it.
    fn unique_lock_field(&self, f: &str, need: LockKind) -> Option<String> {
        let cands: Vec<&(String, LockKind)> = self
            .lock_fields_by_name
            .get(f)?
            .iter()
            .filter(|(_, k)| *k == need)
            .collect();
        match cands.as_slice() {
            [(s, _)] => Some(format!("{s}.{f}")),
            [] => None,
            _ => Some(format!("?.{f}")),
        }
    }

    /// Base type of field `f` when its declaring struct is unknown but
    /// all declarations agree.
    fn unique_field_base(&self, f: &str) -> Option<String> {
        let tys = self.base_by_field.get(f)?;
        if tys.len() == 1 {
            tys.iter().next().cloned()
        } else {
            None
        }
    }

    /// Return base type of fn `name` when every workspace fn with that
    /// name agrees on one (types `x.svc().client()`-style receivers).
    fn unique_ret_base(&self, name: &str) -> Option<String> {
        let tys = self.ret_base.get(name)?;
        if tys.len() == 1 {
            tys.iter().next().cloned()
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Per-function simulation
// ---------------------------------------------------------------------------

/// Direct blocking calls: method name + whether empty parens are
/// required (`.join()` is a thread join; `path.join("wal")` is not).
const BLOCKING: &[(&str, bool)] = &[
    ("sync_data", false),
    ("sync_all", false),
    ("save_doem", false),
    ("start_checkpoint", false),
    ("append_batch", false),
    ("write_all", false),
    ("recv", true),
    ("recv_timeout", false),
    ("join", true),
];

#[derive(Clone)]
enum VarTy {
    Type(String),
    /// The variable *is* a lock (local `Mutex::new` or a `&Mutex` param);
    /// the kind is implied by the acquisition method, so it isn't stored.
    LocalLock,
}

#[derive(Clone, Copy, PartialEq)]
enum Die {
    /// Dies when the scope at this depth closes.
    Scope(u32),
    /// Dies at the next statement end.
    Stmt,
    /// `if let` / `while let` / `for` / `match` header: becomes
    /// `Scope(d)` of the block about to open.
    Pending,
}

#[derive(Clone)]
struct Guard {
    key: String,
    site: Site,
    name: Option<String>,
    die: Die,
}

/// Held-lock snapshot at an event: (lock key, acquisition site) pairs,
/// outermost first.
type Held = Vec<(String, Site)>;

/// Everything one function body contributes to the analysis.
#[derive(Default)]
struct Sim {
    /// (acquired key, site, held-before snapshot).
    acqs: Vec<(String, Site, Held)>,
    /// (condvar key, paired mutex key, site, held minus paired).
    waits: Vec<(String, Option<String>, Site, Held)>,
    /// (condvar key, site, held).
    notifies: Vec<(String, Site, Held)>,
    /// (blocking reason, site, held) — held may be empty (still a
    /// `may_block` effect for callers).
    blocks: Vec<(String, Site, Held)>,
    /// (callee bare name, site, held, resolution hint) — every call, for
    /// the call graph.
    calls: Vec<(String, Site, Held, CallHint)>,
    /// Acquisition-site → key contributions for the subset check.
    sites: Vec<(Site, String)>,
}

/// How a call site constrains callee resolution: `x.foo()` only reaches
/// methods (and, when `x`'s type is known, preferably that type's);
/// `Type::foo()` prefers `Type`'s impl; a plain `foo()` only reaches
/// non-methods. Typing is best-effort — unknown types fall back to the
/// wider candidate set, never to an empty one, so the over-approximation
/// stays sound.
#[derive(Clone, Debug)]
struct CallHint {
    method: bool,
    ty: Option<String>,
}

struct FnCtx<'m> {
    model: &'m Model,
    file: String,
    fn_name: String,
    impl_type: Option<String>,
}

impl FnCtx<'_> {
    fn local_key(&self, var: &str) -> String {
        format!("local:{}:{}:{}", self.file, self.fn_name, var)
    }

    /// Resolve an acquisition receiver to a lock key. `None` means
    /// "not a lock at all" (e.g. `stdin.lock()` — an io handle).
    fn resolve(
        &self,
        recv: &[String],
        head_unknown: bool,
        need: LockKind,
        env: &HashMap<String, VarTy>,
    ) -> Option<String> {
        if recv.is_empty() {
            return Some(format!("?.{}", kind_slug(need)));
        }
        if recv.len() == 1 {
            let v = recv[0].as_str();
            if v == "stdin" || v == "stdout" || v == "stderr" {
                return None;
            }
            if let Some(VarTy::LocalLock) = env.get(v) {
                return Some(self.local_key(v));
            }
            if self.model.statics.contains_key(v) {
                return Some(format!("static.{v}"));
            }
            return Some(
                self.model
                    .unique_lock_field(v, need)
                    .unwrap_or_else(|| self.local_key(v)),
            );
        }
        // Multi-segment path: type the head, walk the middles.
        let (mut ty, mid_start) = if head_unknown {
            // `expr().shard.state.read()` — the first segment is a field
            // of an unknown type; type it by unique field name.
            (self.model.unique_field_base(&recv[0]), 1)
        } else {
            let head = recv[0].as_str();
            let t = if head == "self" || head == "Self" {
                self.impl_type.clone()
            } else {
                match env.get(head) {
                    Some(VarTy::Type(b)) => Some(b.clone()),
                    _ => None,
                }
            };
            (t, 1)
        };
        for mid in &recv[mid_start..recv.len() - 1] {
            ty = match ty {
                Some(t) => self
                    .model
                    .field_base
                    .get(&(t, mid.clone()))
                    .cloned()
                    .or_else(|| self.model.unique_field_base(mid)),
                None => self.model.unique_field_base(mid),
            };
        }
        let f = recv[recv.len() - 1].as_str();
        if let Some(t) = &ty {
            if self.model.field_locks.contains_key(&(t.clone(), f.to_string())) {
                return Some(format!("{t}.{f}"));
            }
        }
        Some(
            self.model
                .unique_lock_field(f, need)
                .unwrap_or_else(|| format!("?.{f}")),
        )
    }

    /// Best-effort base type of a full value path (`self.inner` →
    /// `CommitPipeline`): head via `self`/env, then every remaining
    /// segment as a field. `None` when the head is opaque.
    fn path_base(&self, recv: &[String], env: &HashMap<String, VarTy>) -> Option<String> {
        let head = recv.first()?;
        let mut ty = if head == "self" || head == "Self" {
            self.impl_type.clone()
        } else {
            match env.get(head.as_str()) {
                Some(VarTy::Type(b)) => Some(b.clone()),
                _ => None,
            }
        };
        for f in &recv[1..] {
            ty = match ty {
                Some(t) => self
                    .model
                    .field_base
                    .get(&(t, f.clone()))
                    .cloned()
                    .or_else(|| self.model.unique_field_base(f)),
                None => self.model.unique_field_base(f),
            };
        }
        ty
    }

    /// Build the resolution hint for one call event.
    fn call_hint(
        &self,
        method: bool,
        recv: &[String],
        head_hint: Option<&HeadHint>,
        env: &HashMap<String, VarTy>,
    ) -> CallHint {
        let ty = if method {
            self.path_base(recv, env).or_else(|| match head_hint {
                // `Lexer { .. }.run()` — the literal names the type.
                Some(HeadHint::Ty(t)) => Some(t.clone()),
                // `shard.svc().client()` — type via `svc`'s return type,
                // when every workspace `svc` agrees on one.
                Some(HeadHint::CallRet(c)) => self.model.unique_ret_base(c),
                None => None,
            })
        } else {
            // `Type::assoc()` / `a::b::Type::assoc()`: the last uppercase
            // qualifier segment names the impl; `Self` maps to it too.
            match recv.last().map(String::as_str) {
                Some("Self") => self.impl_type.clone(),
                Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                    Some(q.to_string())
                }
                _ => None,
            }
        };
        CallHint { method, ty }
    }
}

fn kind_slug(k: LockKind) -> &'static str {
    match k {
        LockKind::Mutex => "mutex",
        LockKind::RwLock => "rwlock",
        LockKind::Condvar => "condvar",
    }
}

fn snapshot(guards: &[Guard], except: Option<&str>) -> Vec<(String, Site)> {
    let mut out = Vec::new();
    for g in guards {
        if Some(g.key.as_str()) == except {
            continue;
        }
        if out.iter().any(|(k, _)| k == &g.key) {
            continue;
        }
        out.push((g.key.clone(), g.site.clone()));
    }
    out
}

fn simulate(ctx: &FnCtx<'_>, def: &ast::FnDef) -> Sim {
    let mut sim = Sim::default();
    let mut env: HashMap<String, VarTy> = HashMap::new();
    for (name, base) in &def.params {
        let ty = match base.as_str() {
            "Mutex" | "RwLock" | "Condvar" => VarTy::LocalLock,
            "" => continue,
            b => VarTy::Type(b.to_string()),
        };
        env.insert(name.clone(), ty);
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: u32 = 0;
    let site = |line: u32| Site {
        file: ctx.file.clone(),
        line,
    };
    for ev in &def.body {
        match ev {
            Ev::Open => {
                depth += 1;
                for g in &mut guards {
                    if g.die == Die::Pending {
                        g.die = Die::Scope(depth);
                    }
                }
            }
            Ev::Close => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| match g.die {
                    Die::Scope(d) => d <= depth,
                    Die::Stmt | Die::Pending => false,
                });
            }
            Ev::StmtEnd => {
                guards.retain(|g| g.die != Die::Stmt);
            }
            Ev::LocalLock { name, .. } => {
                env.insert(name.clone(), VarTy::LocalLock);
            }
            Ev::Alias { name, src } => {
                let ty = match src {
                    AliasSrc::Type(b) => Some(VarTy::Type(b.clone())),
                    AliasSrc::Field(f) => match env.get(f) {
                        // `let a = b;` — a bare-variable alias.
                        Some(v) => Some(v.clone()),
                        None => ctx
                            .model
                            .unique_field_base(f)
                            .map(VarTy::Type),
                    },
                    AliasSrc::Call(c) => {
                        let tys = ctx.model.ret_base.get(c);
                        match tys {
                            Some(t) if t.len() == 1 => {
                                t.iter().next().cloned().map(VarTy::Type)
                            }
                            _ => None,
                        }
                    }
                };
                if let Some(ty) = ty {
                    env.insert(name.clone(), ty);
                }
            }
            Ev::Acquire {
                recv,
                head_unknown,
                kind,
                binding,
                til_block,
                line,
            } => {
                let Some(key) =
                    ctx.resolve(recv, *head_unknown, kind.lock_kind(), &env)
                else {
                    continue;
                };
                let s = site(*line);
                sim.sites.push((s.clone(), key.clone()));
                sim.acqs
                    .push((key.clone(), s.clone(), snapshot(&guards, Some(&key))));
                let die = if *til_block {
                    Die::Pending
                } else if binding.is_some() {
                    Die::Scope(depth)
                } else {
                    Die::Stmt
                };
                guards.push(Guard {
                    key,
                    site: s,
                    name: binding.clone(),
                    die,
                });
            }
            Ev::DropVars { names } => {
                guards.retain(|g| match &g.name {
                    Some(n) => !names.contains(n),
                    None => true,
                });
            }
            Ev::CvWait {
                recv,
                head_unknown,
                paired,
                line,
            } => {
                let Some(cv) =
                    ctx.resolve(recv, *head_unknown, LockKind::Condvar, &env)
                else {
                    continue;
                };
                let s = site(*line);
                let paired_key = guards
                    .iter()
                    .rev()
                    .find(|g| g.name.as_deref() == Some(paired.as_str()))
                    .map(|g| g.key.clone());
                let held = snapshot(&guards, paired_key.as_deref());
                sim.sites.push((s.clone(), cv.clone()));
                if let Some(pk) = &paired_key {
                    // The paired mutex is re-registered at the wait line
                    // after waking (sanitizer `after_lock`), so this line
                    // maps to *both* identities.
                    sim.sites.push((s.clone(), pk.clone()));
                }
                sim.blocks
                    .push(("condvar wait".to_string(), s.clone(), held.clone()));
                sim.waits.push((cv, paired_key, s, held));
            }
            Ev::CvNotify {
                recv,
                head_unknown,
                line,
            } => {
                let Some(cv) =
                    ctx.resolve(recv, *head_unknown, LockKind::Condvar, &env)
                else {
                    continue;
                };
                let s = site(*line);
                sim.sites.push((s.clone(), cv.clone()));
                sim.notifies.push((cv, s, snapshot(&guards, None)));
            }
            Ev::Call {
                name,
                method,
                recv,
                head_hint,
                empty,
                line,
            } => {
                let s = site(*line);
                let held = snapshot(&guards, None);
                let blocking = BLOCKING
                    .iter()
                    .any(|(n, need_empty)| n == name && (!need_empty || *empty))
                    || (name == "send" && ctx.model.bounded_files.contains(&ctx.file));
                if blocking {
                    sim.blocks.push((name.clone(), s.clone(), held.clone()));
                }
                let hint = ctx.call_hint(*method, recv, head_hint.as_ref(), &env);
                sim.calls.push((name.clone(), s, held, hint));
            }
        }
    }
    sim
}

// ---------------------------------------------------------------------------
// Whole-workspace analysis
// ---------------------------------------------------------------------------

/// One edge of the static lock-order graph: some path acquires `to`
/// while holding `from`.
#[derive(Clone, Debug)]
pub struct StaticEdge {
    /// Site where `from` is (last) acquired on the witness path.
    pub from_site: Site,
    /// Site where `to` is acquired.
    pub to_site: Site,
    /// Call/acquisition chain witnessing the edge, outermost first.
    pub chain: Vec<Site>,
    /// True when the witness runs through non-test source code.
    pub src: bool,
}

/// The full static analysis result.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// `lock-order-cycle` and `guard-across-blocking` findings.
    pub findings: Vec<Finding>,
    /// The lock-order graph, keyed (from, to), with one best witness.
    pub edges: BTreeMap<(String, String), StaticEdge>,
    /// Acquisition site → the lock keys that site can register
    /// (condvar-wait lines map to two). Drives [`runtime_subset`].
    pub site_keys: BTreeMap<(String, u32), BTreeSet<String>>,
}

fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("benches/")
}

/// Crate a repo-relative path belongs to (`crates/serve/src/..` →
/// `serve`); empty for root-level tests/benches.
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

/// Does `stripped` (comment/string-stripped source) reference the crate
/// `name` as a path qualifier (`name::`)? Checks the preceding byte so
/// `lore::` does not match inside `lorel::`.
fn mentions_crate(stripped: &str, name: &str) -> bool {
    let pat = format!("{name}::");
    let bytes = stripped.as_bytes();
    let mut start = 0;
    while let Some(pos) = stripped.get(start..).and_then(|s| s.find(&pat)) {
        let abs = start + pos;
        let boundary = abs == 0
            || !bytes
                .get(abs - 1)
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
        if boundary {
            return true;
        }
        start = abs + 1;
    }
    false
}

/// Effect payloads for the transitive pass.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Fact {
    Acq(String),
    Notify(String),
    Block(String),
}

/// Run the static lock-order analysis over `(repo-relative path,
/// source)` pairs. The caller chooses the file set (the CLI excludes
/// `crates/compat` and `crates/sanitizer`, whose std-lock internals are
/// the instrumentation layer itself).
pub fn analyze(files: &[(String, String)]) -> Analysis {
    let parsed: Vec<(String, FileAst)> = files
        .iter()
        .map(|(p, s)| (p.clone(), ast::parse_file(s)))
        .collect();
    let model = Model::build(&parsed);
    let cg = CallGraph::build(&parsed);
    let n = cg.fns.len();

    let mut sims: Vec<Sim> = Vec::with_capacity(n);
    let mut is_src: Vec<bool> = Vec::with_capacity(n);
    for f in &cg.fns {
        let ctx = FnCtx {
            model: &model,
            file: f.file.clone(),
            fn_name: f.def.name.clone(),
            impl_type: f.def.impl_type.clone(),
        };
        sims.push(simulate(&ctx, &f.def));
        is_src.push(!f.def.in_test && !is_test_path(&f.file));
    }

    // Types the workspace defines methods on. A call typed to anything
    // *outside* this set (`Arc::new`, `String.push_str`) is a call into
    // std/deps and resolves to no workspace fn at all — resolving it by
    // bare name instead is the single biggest source of false chains.
    let impl_types: BTreeSet<&str> = cg
        .fns
        .iter()
        .filter_map(|f| f.def.impl_type.as_deref())
        .collect();

    // Crate-level reachability, inferred from `name::` references in
    // the stripped sources. Cargo keeps the dependency graph acyclic,
    // so a bare-name resolution that hops *against* it (`lorel` calling
    // up into `serve`, say) is impossible and is dropped. Root-level
    // tests/benches (empty crate) can reach everything.
    let crate_names: BTreeSet<String> = files
        .iter()
        .map(|(p, _)| crate_of(p).to_string())
        .filter(|c| !c.is_empty())
        .collect();
    let mut deps: HashMap<String, BTreeSet<String>> = HashMap::new();
    for (p, s) in files {
        let from = crate_of(p);
        if from.is_empty() {
            continue;
        }
        let stripped = crate::strip_source(s);
        for c in &crate_names {
            if c != from && mentions_crate(&stripped, c) {
                deps.entry(from.to_string()).or_default().insert(c.clone());
            }
        }
    }
    loop {
        let mut changed = false;
        let froms: Vec<String> = deps.keys().cloned().collect();
        for f in froms {
            let ds: Vec<String> = deps[&f].iter().cloned().collect();
            for d in &ds {
                for e in deps.get(d).cloned().unwrap_or_default() {
                    if e != f && deps.entry(f.clone()).or_default().insert(e) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let reachable = |caller_file: &str, callee_file: &str| -> bool {
        let from = crate_of(caller_file);
        if from.is_empty() {
            return true;
        }
        let to = crate_of(callee_file);
        !to.is_empty()
            && (from == to || deps.get(from).is_some_and(|s| s.contains(to)))
    };

    // Candidate callees for one call site, honoring its hint. An
    // *unknown* type falls back to the wider set (never empty), so
    // narrowing is precision, not unsoundness; only a *known-external*
    // type resolves to nothing.
    let resolve_call = |caller_file: &str, name: &str, hint: &CallHint| -> Vec<usize> {
        let all: Vec<usize> = cg
            .resolve(name)
            .iter()
            .copied()
            .filter(|&j| reachable(caller_file, &cg.fns[j].file))
            .collect();
        if let Some(t) = &hint.ty {
            if !impl_types.contains(t.as_str()) {
                return Vec::new();
            }
        }
        if hint.method {
            if let Some(t) = &hint.ty {
                let typed: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&j| {
                        cg.fns[j].def.has_self && cg.fns[j].def.impl_type.as_deref() == Some(t)
                    })
                    .collect();
                if !typed.is_empty() {
                    return typed;
                }
            }
            all.iter().copied().filter(|&j| cg.fns[j].def.has_self).collect()
        } else if let Some(t) = &hint.ty {
            let typed: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&j| cg.fns[j].def.impl_type.as_deref() == Some(t))
                .collect();
            if !typed.is_empty() {
                typed
            } else {
                // A workspace type, but this name isn't among its parsed
                // impls (macro-generated, trait default): anything goes.
                all.to_vec()
            }
        } else {
            // A plain `foo()` can only reach free fns / assoc fns.
            all.iter().copied().filter(|&j| !cg.fns[j].def.has_self).collect()
        }
    };

    // Direct effects + call lists for the fixpoint.
    let mut direct: Vec<Vec<Effect<Fact>>> = vec![Vec::new(); n];
    let mut calls: Vec<Vec<(usize, Site)>> = vec![Vec::new(); n];
    let mut call_targets: Vec<Vec<(Vec<usize>, Site, Held)>> = vec![Vec::new(); n];
    for (i, sim) in sims.iter().enumerate() {
        for (k, s, _) in &sim.acqs {
            direct[i].push(Effect {
                what: Fact::Acq(k.clone()),
                chain: vec![s.clone()],
            });
        }
        for (cv, paired, s, _) in &sim.waits {
            direct[i].push(Effect {
                what: Fact::Acq(cv.clone()),
                chain: vec![s.clone()],
            });
            if let Some(p) = paired {
                direct[i].push(Effect {
                    what: Fact::Acq(p.clone()),
                    chain: vec![s.clone()],
                });
            }
        }
        for (cv, s, _) in &sim.notifies {
            direct[i].push(Effect {
                what: Fact::Notify(cv.clone()),
                chain: vec![s.clone()],
            });
        }
        for (reason, s, _) in &sim.blocks {
            direct[i].push(Effect {
                what: Fact::Block(reason.clone()),
                chain: vec![s.clone()],
            });
        }
        for (name, s, held, hint) in &sim.calls {
            let targets = resolve_call(&cg.fns[i].file, name, hint);
            for &j in &targets {
                calls[i].push((j, s.clone()));
            }
            call_targets[i].push((targets, s.clone(), held.clone()));
        }
    }
    let trans = transitive(&cg, &direct, &calls);

    let mut an = Analysis::default();
    for sim in &sims {
        for (s, k) in &sim.sites {
            an.site_keys
                .entry((s.file.clone(), s.line))
                .or_default()
                .insert(k.clone());
        }
    }

    let add_edge = |from: &str,
                        to: &str,
                        from_site: &Site,
                        to_site: &Site,
                        chain: Vec<Site>,
                        src: bool,
                        edges: &mut BTreeMap<(String, String), StaticEdge>| {
        if from == to {
            return;
        }
        let key = (from.to_string(), to.to_string());
        let cand = StaticEdge {
            from_site: from_site.clone(),
            to_site: to_site.clone(),
            chain,
            src,
        };
        match edges.get(&key) {
            Some(old)
                if (!old.src, old.chain.len(), &old.chain)
                    <= (!cand.src, cand.chain.len(), &cand.chain) => {}
            _ => {
                edges.insert(key, cand);
            }
        }
    };

    // `guard-across-blocking` raw hits: (held key, held site, reason,
    // chain) — deduped per (file, held key, reason).
    let mut block_hits: BTreeMap<(String, String, String), (Site, Vec<Site>)> = BTreeMap::new();

    let mut edges = BTreeMap::new();
    for (i, sim) in sims.iter().enumerate() {
        let src = is_src[i];
        for (k, s, held) in &sim.acqs {
            for (h, hs) in held {
                add_edge(h, k, hs, s, vec![s.clone()], src, &mut edges);
            }
        }
        for (cv, paired, s, held) in &sim.waits {
            for (h, hs) in held {
                add_edge(h, cv, hs, s, vec![s.clone()], src, &mut edges);
                if let Some(p) = paired {
                    // Re-acquisition of the paired mutex after waking.
                    add_edge(h, p, hs, s, vec![s.clone()], src, &mut edges);
                }
            }
        }
        for (cv, s, held) in &sim.notifies {
            for (h, hs) in held {
                add_edge(cv, h, s, hs, vec![s.clone()], src, &mut edges);
            }
        }
        // Direct blocking with guards held.
        if src {
            for (reason, s, held) in &sim.blocks {
                for (h, hs) in held {
                    let key = (hs.file.clone(), h.clone(), reason.clone());
                    block_hits
                        .entry(key)
                        .or_insert_with(|| (hs.clone(), vec![s.clone()]));
                }
            }
        }
        // Call-mediated effects.
        for (targets, cs, held) in &call_targets[i] {
            if held.is_empty() {
                continue;
            }
            for &callee in targets {
                for (fact, chain) in &trans[callee] {
                    let mut full = Vec::with_capacity(chain.len() + 1);
                    full.push(cs.clone());
                    full.extend(chain.iter().cloned());
                    let fact_site = chain.last().cloned().unwrap_or_else(|| cs.clone());
                    match fact {
                        Fact::Acq(k) => {
                            for (h, hs) in held {
                                add_edge(h, k, hs, &fact_site, full.clone(), src, &mut edges);
                            }
                        }
                        Fact::Notify(cv) => {
                            for (h, hs) in held {
                                add_edge(cv, h, &fact_site, hs, full.clone(), src, &mut edges);
                            }
                        }
                        Fact::Block(reason) => {
                            if src {
                                for (h, hs) in held {
                                    let key = (hs.file.clone(), h.clone(), reason.clone());
                                    let ent = (hs.clone(), full.clone());
                                    block_hits.entry(key).or_insert(ent);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    an.edges = edges;

    // Findings: guard-across-blocking.
    for ((file, hkey, reason), (hsite, chain)) in &block_hits {
        let chain_str: Vec<String> = chain.iter().map(|s| s.to_string()).collect();
        an.findings.push(Finding {
            rule: "guard-across-blocking",
            file: file.clone(),
            line: hsite.line as usize,
            message: format!(
                "guard on `{hkey}` (acquired at {hsite}) is held across blocking call \
                 `{reason}` ({}) — a disk/park wait under a hot lock",
                chain_str.join(" -> ")
            ),
        });
    }

    // Findings: lock-order cycles over the src-witnessed subgraph.
    let src_edges: Vec<(&(String, String), &StaticEdge)> =
        an.edges.iter().filter(|(_, e)| e.src).collect();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for ((f, t), _) in &src_edges {
        nodes.insert(f);
        nodes.insert(t);
    }
    let idx: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let names: Vec<&str> = nodes.iter().copied().collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    for ((f, t), _) in &src_edges {
        adj[idx[f.as_str()]].push(idx[t.as_str()]);
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    for scc in sccs(&adj) {
        if scc.len() < 2 {
            continue;
        }
        let in_scc: BTreeSet<usize> = scc.iter().copied().collect();
        let start = *scc.iter().min().unwrap_or(&0);
        let Some(cycle) = cycle_through(&adj, &in_scc, start) else {
            continue;
        };
        let mut parts = Vec::new();
        let mut first_site: Option<Site> = None;
        for w in cycle.windows(2) {
            let (f, t) = (names[w[0]], names[w[1]]);
            if let Some(e) = an.edges.get(&(f.to_string(), t.to_string())) {
                if first_site.is_none() {
                    first_site = Some(e.to_site.clone());
                }
                let chain: Vec<String> = e.chain.iter().map(|s| s.to_string()).collect();
                parts.push(format!(
                    "{f} (held at {}) -> {t} (acquired at {}, via {})",
                    e.from_site,
                    e.to_site,
                    chain.join(" -> ")
                ));
            }
        }
        let Some(fs) = first_site else { continue };
        let ring: Vec<&str> = cycle.iter().map(|&i| names[i]).collect();
        an.findings.push(Finding {
            rule: "lock-order-cycle",
            file: fs.file.clone(),
            line: fs.line as usize,
            message: format!(
                "potential deadlock: lock-order cycle {}; {}",
                ring.join(" -> "),
                parts.join("; ")
            ),
        });
    }
    an.findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.message).cmp(&(b.rule, &b.file, b.line, &b.message))
    });
    an
}

/// Tarjan's SCC (iterative), deterministic for sorted adjacency.
fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, neighbor cursor).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*cursor) {
                *cursor += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out.sort();
    out
}

/// A deterministic cycle through `start` inside one SCC: DFS over sorted
/// neighbors restricted to the SCC, returned as `[start, …, start]`.
fn cycle_through(
    adj: &[Vec<usize>],
    in_scc: &BTreeSet<usize>,
    start: usize,
) -> Option<Vec<usize>> {
    let mut path = vec![start];
    let mut seen = BTreeSet::new();
    seen.insert(start);
    fn dfs(
        adj: &[Vec<usize>],
        in_scc: &BTreeSet<usize>,
        start: usize,
        at: usize,
        path: &mut Vec<usize>,
        seen: &mut BTreeSet<usize>,
    ) -> bool {
        for &w in &adj[at] {
            if !in_scc.contains(&w) {
                continue;
            }
            if w == start {
                path.push(start);
                return true;
            }
            if seen.insert(w) {
                path.push(w);
                if dfs(adj, in_scc, start, w, path, seen) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }
    if dfs(adj, in_scc, start, start, &mut path, &mut seen) {
        Some(path)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// DOT + runtime subset check
// ---------------------------------------------------------------------------

/// Render the static graph as Graphviz DOT. Src-witnessed edges are
/// solid, test-only edges dashed.
pub fn dot(an: &Analysis) -> String {
    let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n");
    for ((f, t), e) in &an.edges {
        out.push_str(&format!(
            "  \"{f}\" -> \"{t}\" [label=\"{}\"{}];\n",
            e.to_site,
            if e.src { "" } else { ", style=dashed" }
        ));
    }
    out.push_str("}\n");
    out
}

/// Parse `path:line` (the runtime dump format).
fn parse_site(s: &str) -> Option<(String, u32)> {
    let (path, line) = s.trim().rsplit_once(':')?;
    Some((path.replace('\\', "/"), line.parse().ok()?))
}

/// Look up a runtime site's possible keys; tolerates small line drift
/// (multi-line call chains put `#[track_caller]` a few lines off the
/// method token).
fn site_lookup<'a>(
    an: &'a Analysis,
    file: &str,
    line: u32,
) -> Option<&'a BTreeSet<String>> {
    if let Some(ks) = an.site_keys.get(&(file.to_string(), line)) {
        return Some(ks);
    }
    for d in 1..=4u32 {
        for cand in [line.saturating_sub(d), line + d] {
            if let Some(ks) = an.site_keys.get(&(file.to_string(), cand)) {
                return Some(ks);
            }
        }
    }
    None
}

/// Check that every runtime-observed edge `(from_site, to_site)` has a
/// static counterpart: some key of `from_site` must have a static edge
/// to some key of `to_site`. Returns human-readable violations (empty =
/// the contract holds). A runtime site the static analysis never keyed
/// is itself a violation — it means the lint missed an acquisition.
pub fn runtime_subset(an: &Analysis, runtime_edges: &[(String, String)]) -> Vec<String> {
    let mut violations = Vec::new();
    for (from_s, to_s) in runtime_edges {
        let (Some((ff, fl)), Some((tf, tl))) = (parse_site(from_s), parse_site(to_s)) else {
            violations.push(format!("unparseable runtime edge: {from_s} -> {to_s}"));
            continue;
        };
        let Some(fkeys) = site_lookup(an, &ff, fl) else {
            violations.push(format!(
                "runtime acquisition at {ff}:{fl} has no statically-known lock key \
                 (edge {from_s} -> {to_s}): the static analysis missed this site"
            ));
            continue;
        };
        let Some(tkeys) = site_lookup(an, &tf, tl) else {
            violations.push(format!(
                "runtime acquisition at {tf}:{tl} has no statically-known lock key \
                 (edge {from_s} -> {to_s}): the static analysis missed this site"
            ));
            continue;
        };
        let covered = fkeys.iter().any(|fk| {
            tkeys.iter().any(|tk| {
                fk == tk || an.edges.contains_key(&(fk.clone(), tk.clone()))
            })
        });
        if !covered {
            violations.push(format!(
                "runtime edge {from_s} -> {to_s} (keys {:?} -> {:?}) has no static \
                 counterpart: the static lock-order graph is missing an edge",
                fkeys.iter().collect::<Vec<_>>(),
                tkeys.iter().collect::<Vec<_>>()
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn an(files: &[(&str, &str)]) -> Analysis {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        analyze(&owned)
    }

    #[test]
    fn intra_fn_inversion_is_a_cycle() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }
    fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); }
}
";
        let a = an(&[("crates/x/src/lib.rs", src)]);
        assert!(a.edges.contains_key(&("S.a".into(), "S.b".into())));
        assert!(a.edges.contains_key(&("S.b".into(), "S.a".into())));
        assert_eq!(
            a.findings
                .iter()
                .filter(|f| f.rule == "lock-order-cycle")
                .count(),
            1,
            "findings: {:#?}",
            a.findings
        );
    }

    #[test]
    fn guard_scope_ends_at_drop() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn ok(&self) { let g = self.a.lock(); drop(g); let h = self.b.lock(); }
}
";
        let a = an(&[("crates/x/src/lib.rs", src)]);
        assert!(!a.edges.contains_key(&("S.a".into(), "S.b".into())));
    }

    #[test]
    fn runtime_subset_accepts_static_edges_and_flags_missing() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }
}
";
        let a = an(&[("crates/x/src/lib.rs", src)]);
        let edge = (
            "crates/x/src/lib.rs:3".to_string(),
            "crates/x/src/lib.rs:3".to_string(),
        );
        assert!(runtime_subset(&a, &[edge]).is_empty());
        let bogus = (
            "crates/x/src/lib.rs:3".to_string(),
            "crates/y/src/lib.rs:99".to_string(),
        );
        assert_eq!(runtime_subset(&a, &[bogus]).len(), 1);
    }
}
