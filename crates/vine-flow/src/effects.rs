//! Interprocedural purity/effect inference over the call graph.
//!
//! Every function gets an [`EffectSummary`]: the global names it may read
//! or write (transitively, through every function it can call), whether it
//! performs I/O, whether it executes dynamic code, and whether it makes
//! calls the analysis cannot resolve. Summaries are computed by a fixpoint
//! over the call graph so mutual recursion converges to the union of both
//! bodies' effects.
//!
//! Resolution rules, most precise first:
//!
//! * **Builtins** use the curated table [`vine_lang::builtins::builtin_effect`]
//!   — pure ones (`len`, `range`, math/string ops) contribute nothing,
//!   `push`/`pop` write their first argument's root binding, `print` is
//!   I/O, and `eval`/`exec` are ⊤ (dynamic: anything can happen).
//! * **Native module functions** (`mod.f(...)`) receive plain values and
//!   have no handle on the interpreter's namespace; by construction they
//!   cannot write global bindings, and registry modules return fresh
//!   values rather than mutating arguments, so they count as pure.
//! * **Module `def`s and lambdas bound once** resolve to their summaries.
//! * Anything else — calling through a parameter, a rebound name, an
//!   element load — sets `calls_unknown`, the "I give up" bit that keeps
//!   every downstream consumer conservative.
//!
//! Aliasing is handled the blunt way: a local assigned from an expression
//! mentioning global `g` is assumed to alias `g`, so writing *through* the
//! local (index-assign, `push`) counts as writing `g`. Over-approximate
//! for scalars, exact enough for the container patterns that matter.

use crate::analyses::{CVal, ConstEnv};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use vine_lang::ast::{expr_reads, walk_exprs_in, Expr, FuncDef, Program, Stmt, StmtKind, Target};
use vine_lang::builtins::{builtin_effect, BuiltinEffect};

/// What running a piece of code may do, beyond computing a value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EffectSummary {
    /// Global names possibly read.
    pub reads: BTreeSet<String>,
    /// Global names possibly written (rebinding or container mutation).
    pub writes: BTreeSet<String>,
    /// May produce observable output (`print`).
    pub io: bool,
    /// May execute dynamic code (`eval`/`exec`) — the ⊤ element.
    pub dynamic: bool,
    /// Makes at least one call the analysis cannot resolve.
    pub calls_unknown: bool,
}

impl EffectSummary {
    /// No effects at all and every call resolved.
    pub fn is_pure(&self) -> bool {
        self.writes.is_empty() && !self.io && !self.dynamic && !self.calls_unknown
    }

    /// Union `other` into `self`; true iff `self` changed.
    pub fn absorb(&mut self, other: &EffectSummary) -> bool {
        let before = (
            self.reads.len(),
            self.writes.len(),
            self.io,
            self.dynamic,
            self.calls_unknown,
        );
        self.reads.extend(other.reads.iter().cloned());
        self.writes.extend(other.writes.iter().cloned());
        self.io |= other.io;
        self.dynamic |= other.dynamic;
        self.calls_unknown |= other.calls_unknown;
        before
            != (
                self.reads.len(),
                self.writes.len(),
                self.io,
                self.dynamic,
                self.calls_unknown,
            )
    }

    /// One-line rendering for reports: `pure` or `reads{a b} writes{c} io`.
    pub fn describe(&self) -> String {
        if self.is_pure() && self.reads.is_empty() {
            return "pure".into();
        }
        let mut parts = Vec::new();
        if !self.reads.is_empty() {
            parts.push(format!(
                "reads{{{}}}",
                self.reads.iter().cloned().collect::<Vec<_>>().join(" ")
            ));
        }
        if !self.writes.is_empty() {
            parts.push(format!(
                "writes{{{}}}",
                self.writes.iter().cloned().collect::<Vec<_>>().join(" ")
            ));
        }
        if self.io {
            parts.push("io".into());
        }
        if self.dynamic {
            parts.push("dynamic".into());
        }
        if self.calls_unknown {
            parts.push("calls-unknown".into());
        }
        parts.join(" ")
    }
}

/// Effect summaries for every resolvable function in a module, plus the
/// namespace facts resolution needs.
#[derive(Clone, Debug, Default)]
pub struct EffectEnv {
    /// Summary per callable name: top-level `def`s and module-level names
    /// bound exactly once to a lambda.
    pub functions: BTreeMap<String, EffectSummary>,
    /// Direct (unabsorbed) callee names per function, for call-graph walks.
    pub calls: BTreeMap<String, BTreeSet<String>>,
    /// Every name bound at module level (imports, defs, assignments,
    /// including inside module-level blocks).
    pub module_defs: BTreeSet<String>,
}

impl EffectEnv {
    /// Compute summaries for `prog` by interprocedural fixpoint.
    pub fn compute(prog: &Program) -> EffectEnv {
        let module_defs = module_level_names(prog);

        // resolvable callables: top-level defs + once-bound lambdas
        let mut defs: BTreeMap<String, Rc<FuncDef>> = BTreeMap::new();
        let mut bind_counts: BTreeMap<String, usize> = BTreeMap::new();
        for s in prog {
            match &s.kind {
                StmtKind::FuncDef(f) => {
                    *bind_counts.entry(f.name.clone()).or_default() += 1;
                    defs.insert(f.name.clone(), Rc::clone(f));
                }
                StmtKind::Assign(Target::Var(n), e) => {
                    *bind_counts.entry(n.clone()).or_default() += 1;
                    if let Expr::Lambda(f) = e {
                        defs.insert(n.clone(), Rc::clone(f));
                    }
                }
                _ => {}
            }
        }
        defs.retain(|n, _| bind_counts.get(n) == Some(&1));
        let fn_names: BTreeSet<String> = defs.keys().cloned().collect();

        // intraprocedural pass
        let mut functions: BTreeMap<String, EffectSummary> = BTreeMap::new();
        let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (name, def) in &defs {
            let (summary, called) = summarize_function(def, &fn_names, &module_defs);
            functions.insert(name.clone(), summary);
            calls.insert(name.clone(), called);
        }

        // interprocedural fixpoint: absorb callee summaries until stable
        loop {
            let mut changed = false;
            let names: Vec<String> = functions.keys().cloned().collect();
            for f in &names {
                for g in calls[f].clone() {
                    if let Some(gs) = functions.get(&g).cloned() {
                        changed |= functions.get_mut(f).unwrap().absorb(&gs);
                    }
                }
            }
            if !changed {
                break;
            }
        }

        EffectEnv {
            functions,
            calls,
            module_defs,
        }
    }

    /// The effect of executing one *module-level* statement (where every
    /// assignment writes a global), callee summaries absorbed.
    pub fn stmt_effect(&self, stmt: &Stmt) -> EffectSummary {
        let (mut summary, called) = summarize_block(
            std::slice::from_ref(stmt),
            &Scope::module(),
            &self.functions.keys().cloned().collect(),
            &self.module_defs,
        );
        for g in called {
            if let Some(gs) = self.functions.get(&g) {
                summary.absorb(gs);
            }
        }
        summary
    }
}

/// Every name bound at module level: imports, function names, assignment
/// targets and `for` variables — including those inside module-level
/// `if`/`while`/`for` bodies (but not inside function bodies).
pub fn module_level_names(prog: &Program) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for_own_stmts(prog, &mut |s| match &s.kind {
        StmtKind::Import(m) => {
            out.insert(m.clone());
        }
        StmtKind::FuncDef(f) => {
            out.insert(f.name.clone());
        }
        StmtKind::Assign(Target::Var(n), _) => {
            out.insert(n.clone());
        }
        StmtKind::For(v, _, _) => {
            out.insert(v.clone());
        }
        _ => {}
    });
    out
}

/// Visit every statement in `stmts` and nested *blocks*, but not nested
/// function or lambda bodies — the "own" statements of one scope.
pub fn for_own_stmts<'a>(stmts: &'a [Stmt], visit: &mut dyn FnMut(&'a Stmt)) {
    for s in stmts {
        visit(s);
        match &s.kind {
            StmtKind::If(arms, els) => {
                for (_, body) in arms {
                    for_own_stmts(body, visit);
                }
                if let Some(e) = els {
                    for_own_stmts(e, visit);
                }
            }
            StmtKind::While(_, body) | StmtKind::For(_, _, body) => for_own_stmts(body, visit),
            _ => {}
        }
    }
}

/// Visit every expression of one scope's own statements (lambda *nodes*
/// are visited; their bodies are not).
fn for_own_exprs<'a>(stmts: &'a [Stmt], visit: &mut dyn FnMut(&'a Expr)) {
    for_own_stmts(stmts, &mut |s| match &s.kind {
        StmtKind::Assign(target, e) => {
            if let Target::Index(obj, idx) = target {
                walk_exprs_in(obj, visit);
                walk_exprs_in(idx, visit);
            }
            walk_exprs_in(e, visit);
        }
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => walk_exprs_in(e, visit),
        StmtKind::If(arms, _) => {
            for (c, _) in arms {
                walk_exprs_in(c, visit);
            }
        }
        StmtKind::While(c, _) => walk_exprs_in(c, visit),
        StmtKind::For(_, iter, _) => walk_exprs_in(iter, visit),
        _ => {}
    });
}

/// The root binding of an lvalue/argument chain: `a[i].b` → `a`.
fn root_name(e: &Expr) -> Option<&str> {
    match e {
        Expr::Var(n) => Some(n),
        Expr::Index(obj, _) | Expr::Attr(obj, _) => root_name(obj),
        _ => None,
    }
}

/// Name-resolution context for one scope.
struct Scope {
    /// Names that resolve to the local frame (params, plain assignments).
    locals: BTreeSet<String>,
    /// Locals declared `global`: writes go to the module namespace.
    declared_global: BTreeSet<String>,
    /// Locals bound (only) to function definitions whose effects are
    /// already merged — calling them is resolved, not unknown.
    local_fns: BTreeSet<String>,
    /// alias map: local name -> global roots it may alias.
    aliases: BTreeMap<String, BTreeSet<String>>,
}

impl Scope {
    /// Module scope: no locals, every name is a global.
    fn module() -> Scope {
        Scope {
            locals: BTreeSet::new(),
            declared_global: BTreeSet::new(),
            local_fns: BTreeSet::new(),
            aliases: BTreeMap::new(),
        }
    }

    fn function(def: &FuncDef) -> Scope {
        let mut declared_global = BTreeSet::new();
        for_own_stmts(&def.body, &mut |s| {
            if let StmtKind::Global(names) = &s.kind {
                declared_global.extend(names.iter().cloned());
            }
        });
        let mut locals: BTreeSet<String> = def.params.iter().cloned().collect();
        let mut local_fns = BTreeSet::new();
        let mut lambda_binds: BTreeMap<String, (usize, usize)> = BTreeMap::new(); // (total, lambda)
        for_own_stmts(&def.body, &mut |s| match &s.kind {
            StmtKind::Assign(Target::Var(n), e) => {
                if !declared_global.contains(n) {
                    locals.insert(n.clone());
                }
                let entry = lambda_binds.entry(n.clone()).or_default();
                entry.0 += 1;
                if matches!(e, Expr::Lambda(_)) {
                    entry.1 += 1;
                }
            }
            StmtKind::For(v, _, _) if !declared_global.contains(v) => {
                locals.insert(v.clone());
            }
            StmtKind::FuncDef(f) => {
                locals.insert(f.name.clone());
                local_fns.insert(f.name.clone());
            }
            _ => {}
        });
        for (n, (total, lambdas)) in &lambda_binds {
            if *total == *lambdas && !declared_global.contains(n) {
                local_fns.insert(n.clone());
            }
        }

        // alias fixpoint: local assigned from an expression mentioning
        // global g (or a local aliasing g) may alias g
        let mut aliases: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        loop {
            let mut changed = false;
            for_own_stmts(&def.body, &mut |s| {
                let StmtKind::Assign(Target::Var(n), e) = &s.kind else {
                    return;
                };
                if declared_global.contains(n) {
                    return;
                }
                let mut mentioned = BTreeSet::new();
                expr_reads(e, &mut mentioned);
                let mut roots = BTreeSet::new();
                for m in &mentioned {
                    if locals.contains(m) {
                        if let Some(r) = aliases.get(m) {
                            roots.extend(r.iter().cloned());
                        }
                    } else {
                        roots.insert(m.clone());
                    }
                }
                let entry = aliases.entry(n.clone()).or_default();
                let before = entry.len();
                entry.extend(roots);
                if entry.len() != before {
                    changed = true;
                }
            });
            if !changed {
                break;
            }
        }

        Scope {
            locals,
            declared_global,
            local_fns,
            aliases,
        }
    }

    /// Does `name` resolve to the module namespace in this scope?
    fn is_global(&self, name: &str) -> bool {
        self.declared_global.contains(name) || !self.locals.contains(name)
    }

    /// Global roots writing *through* `name` can reach.
    fn write_roots(&self, name: &str) -> BTreeSet<String> {
        if self.is_global(name) {
            [name.to_string()].into()
        } else {
            self.aliases.get(name).cloned().unwrap_or_default()
        }
    }
}

/// Summarize one function: its own body plus nested function/lambda bodies
/// (merged — a nested definition only matters if called, and assuming it
/// is called over-approximates safely).
fn summarize_function(
    def: &FuncDef,
    fn_names: &BTreeSet<String>,
    module_defs: &BTreeSet<String>,
) -> (EffectSummary, BTreeSet<String>) {
    let scope = Scope::function(def);
    summarize_block(&def.body, &scope, fn_names, module_defs)
}

/// Summarize a statement list under `scope`. Returns the summary plus the
/// names of module-level functions it calls directly (for the
/// interprocedural fixpoint to absorb).
fn summarize_block(
    stmts: &[Stmt],
    scope: &Scope,
    fn_names: &BTreeSet<String>,
    module_defs: &BTreeSet<String>,
) -> (EffectSummary, BTreeSet<String>) {
    let mut sum = EffectSummary::default();
    let mut called = BTreeSet::new();

    // reads: free names that resolve to the module namespace
    let mut read_names = BTreeSet::new();
    for_own_exprs(stmts, &mut |e| {
        if let Expr::Var(n) = e {
            read_names.insert(n.clone());
        }
    });
    for n in &read_names {
        if scope.is_global(n) && (module_defs.contains(n) || builtin_effect(n).is_none()) {
            sum.reads.insert(n.clone());
        }
    }

    // writes
    for_own_stmts(stmts, &mut |s| match &s.kind {
        StmtKind::Assign(Target::Var(n), _) if scope.is_global(n) => {
            sum.writes.insert(n.clone());
        }
        StmtKind::Assign(Target::Index(obj, _), _) => {
            if let Some(r) = root_name(obj) {
                sum.writes.extend(scope.write_roots(r));
            }
        }
        StmtKind::For(v, _, _) if scope.is_global(v) => {
            sum.writes.insert(v.clone());
        }
        StmtKind::Import(m) if scope.is_global(m) => {
            sum.writes.insert(m.clone());
        }
        StmtKind::FuncDef(f) if scope.is_global(&f.name) => {
            sum.writes.insert(f.name.clone());
        }
        _ => {}
    });

    // calls
    for_own_exprs(stmts, &mut |e| {
        let Expr::Call(callee, args) = e else { return };
        match callee.as_ref() {
            Expr::Var(n) => {
                if scope.local_fns.contains(n) {
                    // nested definition: body effects merged below
                } else if scope.locals.contains(n) && !scope.declared_global.contains(n) {
                    sum.calls_unknown = true;
                } else if fn_names.contains(n) {
                    called.insert(n.clone());
                } else if !module_defs.contains(n) {
                    match builtin_effect(n) {
                        Some(BuiltinEffect::Pure) => {}
                        Some(BuiltinEffect::MutatesArg) => {
                            if let Some(arg) = args.first() {
                                if let Some(r) = root_name(arg) {
                                    sum.writes.extend(scope.write_roots(r));
                                }
                            }
                        }
                        Some(BuiltinEffect::Io) => sum.io = true,
                        Some(BuiltinEffect::Dynamic) => sum.dynamic = true,
                        None => sum.calls_unknown = true,
                    }
                } else {
                    // module-level binding that is not a resolvable
                    // function (rebound, or not function-valued)
                    sum.calls_unknown = true;
                }
            }
            // native module functions take plain values; they cannot
            // reach the interpreter namespace
            Expr::Attr(_, _) => {}
            // immediately-invoked lambda: body merged below
            Expr::Lambda(_) => {}
            _ => sum.calls_unknown = true,
        }
    });

    // nested function and lambda bodies: assume they run
    let mut nested: Vec<Rc<FuncDef>> = Vec::new();
    for_own_stmts(stmts, &mut |s| {
        if let StmtKind::FuncDef(f) = &s.kind {
            nested.push(Rc::clone(f));
        }
    });
    for_own_exprs(stmts, &mut |e| {
        if let Expr::Lambda(f) = e {
            nested.push(Rc::clone(f));
        }
    });
    for f in nested {
        let (ns, ncalled) = summarize_function(&f, fn_names, module_defs);
        sum.absorb(&ns);
        called.extend(ncalled);
    }

    (sum, called)
}

/// Havoc `env` for every call in `stmt`: known callees clobber exactly the
/// globals they write; unknown callees clobber every non-local name.
/// `locals` are the current scope's frame-resolved names — no call can
/// write another frame's locals.
pub fn havoc_for_calls(
    stmt: &Stmt,
    env: &mut ConstEnv,
    effects: &EffectEnv,
    locals: &BTreeSet<String>,
) {
    let mut havoc_all = false;
    let mut havoc_names: BTreeSet<String> = BTreeSet::new();
    for_own_exprs(std::slice::from_ref(stmt), &mut |e| {
        let Expr::Call(callee, args) = e else { return };
        match callee.as_ref() {
            Expr::Var(n) if locals.contains(n) => havoc_all = true,
            Expr::Var(n) => {
                if let Some(s) = effects.functions.get(n) {
                    if s.dynamic || s.calls_unknown {
                        havoc_all = true;
                    } else {
                        havoc_names.extend(s.writes.iter().cloned());
                    }
                } else {
                    match builtin_effect(n) {
                        Some(BuiltinEffect::Pure) | Some(BuiltinEffect::Io) => {}
                        Some(BuiltinEffect::MutatesArg) => {
                            if let Some(r) = args.first().and_then(root_name) {
                                havoc_names.insert(r.to_string());
                            }
                        }
                        Some(BuiltinEffect::Dynamic) | None => havoc_all = true,
                    }
                }
            }
            Expr::Attr(_, _) => {}
            _ => havoc_all = true,
        }
    });
    if havoc_all {
        for (k, v) in env.iter_mut() {
            if !locals.contains(k) {
                *v = CVal::Nac;
            }
        }
        // MutatesArg on a local container is still a local effect
    }
    for n in havoc_names {
        env.insert(n, CVal::Nac);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of(src: &str) -> EffectEnv {
        EffectEnv::compute(&vine_lang::parse(src).unwrap())
    }

    #[test]
    fn pure_builtins_do_not_taint() {
        let env = env_of("def f(xs) { return len(xs) + max(1, 2) }");
        assert!(env.functions["f"].is_pure());
    }

    #[test]
    fn transitive_write_through_helper() {
        let env = env_of(
            "def bump() { global n\nn = n + 1 }\n\
             def work(x) { bump()\nreturn x }",
        );
        assert!(env.functions["work"].writes.contains("n"));
        assert!(!env.functions["work"].is_pure());
    }

    #[test]
    fn alias_write_counts_as_global_write() {
        let env = env_of(
            "cache = {}\n\
             def poke(k) { c = cache\nc[k] = 1 }",
        );
        assert!(
            env.functions["poke"].writes.contains("cache"),
            "{:?}",
            env.functions["poke"]
        );
    }

    #[test]
    fn push_into_global_is_a_write() {
        let env = env_of("xs = []\ndef add(v) { push(xs, v) }");
        assert!(env.functions["add"].writes.contains("xs"));
    }

    #[test]
    fn eval_is_top() {
        let env = env_of("def sneak() { eval(\"x = 1\") }");
        assert!(env.functions["sneak"].dynamic);
        assert!(!env.functions["sneak"].is_pure());
    }

    #[test]
    fn unresolvable_callee_sets_unknown() {
        let env = env_of("def apply(f, x) { return f(x) }");
        assert!(env.functions["apply"].calls_unknown);
    }

    #[test]
    fn native_module_calls_are_pure() {
        let env = env_of("import nn\ndef infer(x) { return nn.forward(x) }");
        assert!(env.functions["infer"].is_pure());
        assert!(env.functions["infer"].reads.contains("nn"));
    }

    #[test]
    fn mutual_recursion_converges() {
        let env = env_of(
            "def even(n) { if n == 0 { return true }\nreturn odd(n - 1) }\n\
             def odd(n) { if n == 0 { return false }\nprint(n)\nreturn even(n - 1) }",
        );
        assert!(env.functions["even"].io, "absorbs odd's io");
        assert!(env.functions["odd"].io);
    }

    #[test]
    fn once_bound_lambda_resolves() {
        let env = env_of("double = fn (x) { return x * 2 }\ndef use(v) { return double(v) }");
        assert!(env.functions.contains_key("double"));
        assert!(env.functions["use"].is_pure());
    }

    #[test]
    fn local_writes_are_not_global_writes() {
        let env = env_of("def f() { x = 1\nx = x + 1\nreturn x }");
        assert!(env.functions["f"].is_pure());
        assert!(env.functions["f"].writes.is_empty());
    }
}
