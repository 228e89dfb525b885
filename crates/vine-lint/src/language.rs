//! Language-layer lints over a parsed vinescript [`Program`].
//!
//! These are the checks the paper's discover mechanism (§3.2) implies but
//! never enforces: a work function that reads a name nothing defines will
//! only fail on a worker, after the context shipped; a module-level
//! statement that calls `eval` silently disables context-discovery
//! hoisting; a function that mutates a module-level global quietly demotes
//! that binding to per-instance residue. Each of those becomes a
//! diagnostic here, before anything is packaged.
//!
//! Scope model: vinescript resolves free names in a function against the
//! module's global namespace at *call* time, so a name is "defined" if it
//! is a builtin, a parameter or local of the enclosing scope, a
//! module-level binding, or — crucially for the paper's Fig 4 pattern — a
//! name *published* by any function through a `global` declaration
//! (`context_setup` publishing `model` is how LNNI's `infer` finds it).

use crate::diag::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use vine_lang::ast::{
    walk_exprs_in, walk_stmts, Expr, FuncDef, Program, Span, Stmt, StmtKind, Target,
};
use vine_lang::builtins::is_builtin;

/// What the module-level pass learned about a program; shared by several
/// lints and by the environment layer.
pub(crate) struct ModuleModel {
    /// Names bound at module level (defs, imports, plain assignments).
    pub module_defs: BTreeMap<String, Span>,
    /// Names any function declares `global` — published into the namespace
    /// for later invocations (or read from it).
    pub published: BTreeSet<String>,
    /// `eval`/`exec` appears somewhere: name resolution is undecidable, so
    /// undefined-name findings downgrade to warnings.
    pub uses_dynamic: bool,
    /// Named top-level functions, in order.
    pub functions: Vec<Rc<FuncDef>>,
}

pub(crate) fn build_model(prog: &Program) -> ModuleModel {
    let mut module_defs = BTreeMap::new();
    let mut published = BTreeSet::new();
    let mut functions = Vec::new();
    for s in prog {
        match &s.kind {
            StmtKind::Import(n) => {
                module_defs.entry(n.clone()).or_insert(s.span);
            }
            StmtKind::FuncDef(f) => {
                module_defs.entry(f.name.clone()).or_insert(f.span);
                functions.push(Rc::clone(f));
            }
            StmtKind::Assign(Target::Var(n), _) => {
                module_defs.entry(n.clone()).or_insert(s.span);
            }
            StmtKind::For(v, _, _) => {
                module_defs.entry(v.clone()).or_insert(s.span);
            }
            _ => {}
        }
    }
    let mut uses_dynamic = false;
    walk_stmts(prog, &mut |s| {
        each_own_expr(s, &mut |e| {
            walk_exprs_in(e, &mut |x| {
                if let Expr::Call(f, _) = x {
                    if matches!(&**f, Expr::Var(n) if n == "eval" || n == "exec") {
                        uses_dynamic = true;
                    }
                }
            });
        });
        if let StmtKind::Global(names) = &s.kind {
            published.extend(names.iter().cloned());
        }
    });
    ModuleModel {
        module_defs,
        published,
        uses_dynamic,
        functions,
    }
}

/// Visit the expressions that belong to this statement itself (conditions,
/// right-hand sides, index targets) — not those of nested statements.
fn each_own_expr<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    match &s.kind {
        StmtKind::Assign(t, e) => {
            if let Target::Index(obj, idx) = t {
                f(obj);
                f(idx);
            }
            f(e);
        }
        StmtKind::If(arms, _) => {
            for (c, _) in arms {
                f(c);
            }
        }
        StmtKind::While(c, _) => f(c),
        StmtKind::For(_, iter, _) => f(iter),
        StmtKind::Return(Some(e)) | StmtKind::Expr(e) => f(e),
        _ => {}
    }
}

/// Names this statement binds in its enclosing scope (descending nested
/// blocks, not nested function bodies).
fn stmt_scope_binds(s: &Stmt, out: &mut BTreeSet<String>) {
    match &s.kind {
        StmtKind::Assign(Target::Var(n), _) => {
            out.insert(n.clone());
        }
        StmtKind::Global(names) => out.extend(names.iter().cloned()),
        StmtKind::Import(n) => {
            out.insert(n.clone());
        }
        StmtKind::FuncDef(f) if !f.is_lambda() => {
            out.insert(f.name.clone());
        }
        StmtKind::For(v, _, body) => {
            out.insert(v.clone());
            for s in body {
                stmt_scope_binds(s, out);
            }
        }
        StmtKind::If(arms, els) => {
            for (_, body) in arms {
                for s in body {
                    stmt_scope_binds(s, out);
                }
            }
            if let Some(body) = els {
                for s in body {
                    stmt_scope_binds(s, out);
                }
            }
        }
        StmtKind::While(_, body) => {
            for s in body {
                stmt_scope_binds(s, out);
            }
        }
        _ => {}
    }
}

/// Report every variable read in this statement and its nested blocks (not
/// nested function bodies), attributed to the innermost statement's span.
fn stmt_reads_spanned(s: &Stmt, f: &mut dyn FnMut(&str, Span)) {
    let span = s.span;
    each_own_expr(s, &mut |e| {
        walk_exprs_in(e, &mut |x| {
            if let Expr::Var(n) = x {
                f(n, span);
            }
        });
    });
    match &s.kind {
        StmtKind::If(arms, els) => {
            for (_, body) in arms {
                for s in body {
                    stmt_reads_spanned(s, f);
                }
            }
            if let Some(body) = els {
                for s in body {
                    stmt_reads_spanned(s, f);
                }
            }
        }
        StmtKind::While(_, body) | StmtKind::For(_, _, body) => {
            for s in body {
                stmt_reads_spanned(s, f);
            }
        }
        _ => {}
    }
}

/// Functions defined directly within this body: nested `def` statements and
/// lambdas in expression position (each is its own scope to check).
fn directly_nested_functions(body: &[Stmt], out: &mut Vec<Rc<FuncDef>>) {
    for s in body {
        match &s.kind {
            StmtKind::FuncDef(fd) => out.push(Rc::clone(fd)),
            StmtKind::If(arms, els) => {
                for (_, b) in arms {
                    directly_nested_functions(b, out);
                }
                if let Some(b) = els {
                    directly_nested_functions(b, out);
                }
            }
            StmtKind::While(_, b) | StmtKind::For(_, _, b) => directly_nested_functions(b, out),
            _ => {}
        }
        each_own_expr(s, &mut |e| {
            walk_exprs_in(e, &mut |x| {
                if let Expr::Lambda(fd) = x {
                    out.push(Rc::clone(fd));
                }
            });
        });
    }
}

/// Every name read anywhere under `body`, including nested function and
/// lambda bodies (used for the unused-binding lint: a nested function may
/// observe an outer binding through the global namespace at run time).
fn deep_reads(body: &[Stmt]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    walk_stmts(body, &mut |s| {
        each_own_expr(s, &mut |e| {
            walk_exprs_in(e, &mut |x| {
                if let Expr::Var(n) = x {
                    out.insert(n.clone());
                }
            });
        });
    });
    out
}

/// `global`-declared names that `def` actually writes (by assignment or by
/// index-assignment into the named container).
fn global_writes(def: &FuncDef) -> BTreeSet<String> {
    let mut declared = BTreeSet::new();
    walk_stmts(&def.body, &mut |s| {
        if let StmtKind::Global(names) = &s.kind {
            declared.extend(names.iter().cloned());
        }
    });
    let mut written = BTreeSet::new();
    walk_stmts(&def.body, &mut |s| match &s.kind {
        StmtKind::Assign(Target::Var(n), _) if declared.contains(n) => {
            written.insert(n.clone());
        }
        StmtKind::Assign(Target::Index(Expr::Var(n), _), _) if declared.contains(n) => {
            written.insert(n.clone());
        }
        _ => {}
    });
    written
}

/// All language-layer lints for one parsed program.
pub fn lint_language(prog: &Program) -> Vec<Diagnostic> {
    let model = build_model(prog);
    let mut diags = Vec::new();
    undefined_names(prog, &model, &mut diags); // V010
    unused_bindings(&model, &mut diags); // V011
    shadowed_globals(&model, &mut diags); // V012
    dynamic_module_scope(prog, &mut diags); // V013
    hoist_defeated(prog, &model, &mut diags); // V014
    duplicate_definitions(prog, &mut diags); // V016
    diags
}

// --- V010: undefined-name ---

fn undefined_names(prog: &Program, model: &ModuleModel, diags: &mut Vec<Diagnostic>) {
    // module scope first: every top-level binding is visible regardless of
    // order (functions run after the whole module loads)
    let empty = BTreeSet::new();
    check_scope(prog, &[], &empty, model, diags);
}

fn check_scope(
    body: &[Stmt],
    params: &[String],
    enclosing: &BTreeSet<String>,
    model: &ModuleModel,
    diags: &mut Vec<Diagnostic>,
) {
    let mut bound: BTreeSet<String> = enclosing.clone();
    bound.extend(params.iter().cloned());
    for s in body {
        stmt_scope_binds(s, &mut bound);
    }
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for s in body {
        stmt_reads_spanned(s, &mut |n, span| {
            if bound.contains(n)
                || is_builtin(n)
                || model.module_defs.contains_key(n)
                || model.published.contains(n)
                || !reported.insert(n.to_string())
            {
                return;
            }
            let d = if model.uses_dynamic {
                Diagnostic::warning(
                    "V010",
                    "undefined-name",
                    format!("name `{n}` is not defined"),
                )
                .with_help(
                    "this program uses eval/exec, which may define names dynamically; \
                     downgraded from an error",
                )
            } else {
                Diagnostic::error(
                    "V010",
                    "undefined-name",
                    format!("name `{n}` is not defined"),
                )
                .with_help(
                    "define it, pass it as a parameter, or publish it from a \
                     context setup function via `global`",
                )
            };
            diags.push(d.with_span(span));
        });
    }
    let mut nested = Vec::new();
    directly_nested_functions(body, &mut nested);
    for fd in nested {
        check_scope(&fd.body, &fd.params, &bound, model, diags);
    }
}

// --- V011: unused-binding ---

fn unused_bindings(model: &ModuleModel, diags: &mut Vec<Diagnostic>) {
    for f in &model.functions {
        let mut declared_global = BTreeSet::new();
        walk_stmts(&f.body, &mut |s| {
            if let StmtKind::Global(names) = &s.kind {
                declared_global.extend(names.iter().cloned());
            }
        });
        let mut first_assign: BTreeMap<String, Span> = BTreeMap::new();
        collect_assigns(&f.body, &mut first_assign);
        let read = deep_reads(&f.body);
        for (n, span) in &first_assign {
            if read.contains(n) || declared_global.contains(n) || n.starts_with('_') {
                continue;
            }
            diags.push(
                Diagnostic::warning(
                    "V011",
                    "unused-binding",
                    format!(
                        "local `{n}` in function `{}` is assigned but never read",
                        f.name
                    ),
                )
                .with_span(*span)
                .with_help("remove the assignment, or prefix the name with `_` if intentional"),
            );
        }
    }
}

/// First assignment span per plain variable target, nested blocks included,
/// nested function bodies excluded (they are their own scopes).
fn collect_assigns(body: &[Stmt], out: &mut BTreeMap<String, Span>) {
    for s in body {
        match &s.kind {
            StmtKind::Assign(Target::Var(n), _) => {
                out.entry(n.clone()).or_insert(s.span);
            }
            StmtKind::If(arms, els) => {
                for (_, b) in arms {
                    collect_assigns(b, out);
                }
                if let Some(b) = els {
                    collect_assigns(b, out);
                }
            }
            StmtKind::While(_, b) | StmtKind::For(_, _, b) => collect_assigns(b, out),
            _ => {}
        }
    }
}

// --- V012: shadowed-global ---

fn shadowed_globals(model: &ModuleModel, diags: &mut Vec<Diagnostic>) {
    for f in &model.functions {
        let globally_visible = |n: &String| {
            (model.module_defs.contains_key(n) && *n != f.name) || model.published.contains(n)
        };
        for p in f.params.iter().filter(|p| globally_visible(p)) {
            diags.push(
                Diagnostic::warning(
                    "V012",
                    "shadowed-global",
                    format!(
                        "parameter `{p}` of function `{}` shadows a module-level binding",
                        f.name
                    ),
                )
                .with_span(f.span)
                .with_help("rename the parameter; inside this function the global is unreachable"),
            );
        }
        let mut declared_global = BTreeSet::new();
        walk_stmts(&f.body, &mut |s| {
            if let StmtKind::Global(names) = &s.kind {
                declared_global.extend(names.iter().cloned());
            }
        });
        let mut assigns = BTreeMap::new();
        collect_assigns(&f.body, &mut assigns);
        for (n, span) in &assigns {
            if globally_visible(n) && !declared_global.contains(n) && !f.params.contains(n) {
                diags.push(
                    Diagnostic::warning(
                        "V012",
                        "shadowed-global",
                        format!(
                            "assignment to `{n}` in function `{}` creates a local that \
                             shadows the module-level binding",
                            f.name
                        ),
                    )
                    .with_span(*span)
                    .with_help("declare `global` first if you meant to write the module binding"),
                );
            }
        }
    }
}

// --- V013: dynamic code at module scope ---

fn dynamic_module_scope(prog: &Program, diags: &mut Vec<Diagnostic>) {
    for s in prog {
        if matches!(&s.kind, StmtKind::FuncDef(_)) {
            continue;
        }
        let mut hit = false;
        each_own_expr(s, &mut |e| {
            walk_exprs_in(e, &mut |x| {
                if let Expr::Call(f, _) = x {
                    if matches!(&**f, Expr::Var(n) if n == "eval" || n == "exec") {
                        hit = true;
                    }
                }
            });
        });
        if hit {
            diags.push(
                Diagnostic::warning(
                    "V013",
                    "dynamic-module-scope",
                    "eval/exec at module scope cannot be statically analyzed",
                )
                .with_span(s.span)
                .with_help(
                    "context discovery cannot classify this statement as hoistable context; \
                     functions it defines must ship serialized, not as source",
                ),
            );
        }
    }
}

// --- V014: hoist-defeated ---

fn hoist_defeated(prog: &Program, model: &ModuleModel, diags: &mut Vec<Diagnostic>) {
    let mut writers: BTreeMap<String, String> = BTreeMap::new();
    for f in &model.functions {
        for n in global_writes(f) {
            writers.entry(n).or_insert_with(|| f.name.clone());
        }
    }
    for s in prog {
        if let StmtKind::Assign(Target::Var(n), _) = &s.kind {
            if let Some(writer) = writers.get(n) {
                diags.push(
                    Diagnostic::warning(
                        "V014",
                        "hoist-defeated",
                        format!(
                            "module-level binding `{n}` is mutated by function `{writer}` \
                             via `global`; its definition cannot be hoisted into reusable \
                             context"
                        ),
                    )
                    .with_span(s.span)
                    .with_help(
                        "this statement re-runs per library instance as residue; keep \
                         mutable per-invocation state out of context setup",
                    ),
                );
            }
        }
    }
}

// --- V015: fork-mode unserializable capture (invoked per-spec) ---

/// Lints that only apply when the hosting library executes invocations in
/// fork mode: whatever context setup publishes must be serializable into
/// the forked snapshot, and module handles are not.
pub fn lint_fork_mode(prog: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let model = build_model(prog);
    for f in &model.functions {
        let mut declared_global = BTreeSet::new();
        let mut imported: BTreeMap<String, Span> = BTreeMap::new();
        walk_stmts(&f.body, &mut |s| match &s.kind {
            StmtKind::Global(names) => declared_global.extend(names.iter().cloned()),
            StmtKind::Import(n) => {
                imported.entry(n.clone()).or_insert(s.span);
            }
            _ => {}
        });
        for (n, span) in &imported {
            if declared_global.contains(n) {
                diags.push(
                    Diagnostic::warning(
                        "V015",
                        "fork-unserializable-capture",
                        format!(
                            "function `{}` publishes imported module `{n}` via `global` \
                             under fork execution",
                            f.name
                        ),
                    )
                    .with_span(*span)
                    .with_help(
                        "module handles cannot be serialized into forked invocation \
                         snapshots; import at module scope instead so each interpreter \
                         re-imports",
                    ),
                );
            }
        }
    }
    diags
}

// --- V016: duplicate-definition ---

fn duplicate_definitions(prog: &Program, diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new(); // name -> kind
    for s in prog {
        let (name, kind, span) = match &s.kind {
            StmtKind::FuncDef(f) => (f.name.as_str(), "function", f.span),
            StmtKind::Import(n) => (n.as_str(), "import", s.span),
            _ => continue,
        };
        if let Some(prev) = seen.insert(name, kind) {
            diags.push(
                Diagnostic::warning(
                    "V016",
                    "duplicate-definition",
                    format!(
                        "`{name}` is defined more than once at module level \
                         (earlier {prev} is silently replaced)"
                    ),
                )
                .with_span(span)
                .with_help("rename one of the definitions; only the last one survives"),
            );
        }
    }
}
