//! Flow-layer lints: findings only a control-flow graph can justify.
//!
//! The language layer (V010–V016) reasons about names and scopes; these
//! lints reason about *paths*. They sit on `vine-flow`'s CFG, liveness,
//! and constant propagation:
//!
//! * **V017 dead-store** — a local is assigned, the name is read elsewhere
//!   in the function, but no path from *this* assignment reaches a read.
//!   (Never-read names are V011's business; this catches the overwritten
//!   half of the story.)
//! * **V018 unreachable-code** — a statement lexically follows a
//!   `return`/`break`/`continue` on every path.
//! * **V019 constant-condition** — an `if`/`while` condition that is not a
//!   literal still folds to a known truth value on every reachable path;
//!   one arm is dead weight shipped to every worker.
//! * **V025 effectful-fork-setup** — a fork-mode library's context setup
//!   performs I/O or dynamic code; whatever handles or state it opens live
//!   in the template interpreter and every forked invocation snapshot
//!   inherits them blind.

use crate::diag::Diagnostic;
use std::collections::BTreeSet;
use vine_flow::analyses::{const_transfer_stmt, eval_const, leaf_def, leaf_uses, CVal};
use vine_flow::{constprop, liveness, Cfg, EffectEnv, Terminator};
use vine_lang::ast::{
    expr_reads, stmt_reads, walk_stmts, Expr, FuncDef, Program, Span, Stmt, StmtKind, Target,
};

/// All flow-layer lints over one parsed program: V017, V018, V019.
pub fn lint_flow(prog: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let effects = EffectEnv::compute(prog);

    // module top level: unreachable + constant conditions (module code has
    // no locals, so every store is a visible global — no dead-store lint)
    let module_cfg = Cfg::lower(prog);
    unreachable_code(&module_cfg, "module top level", &mut diags);
    constant_conditions(&module_cfg, &effects, &[], &BTreeSet::new(), &mut diags);

    for f in top_functions(prog) {
        let cfg = Cfg::lower(&f.body);
        unreachable_code(&cfg, &format!("function `{}`", f.name), &mut diags);
        let locals = function_locals(f);
        constant_conditions(&cfg, &effects, &f.params, &locals, &mut diags);
        dead_stores(&cfg, f, &locals, &mut diags);
    }
    diags
}

fn top_functions(prog: &Program) -> impl Iterator<Item = &FuncDef> {
    prog.iter().filter_map(|s| match &s.kind {
        StmtKind::FuncDef(f) => Some(&**f),
        _ => None,
    })
}

/// Frame-resolved names of a function: parameters plus every assigned name
/// not declared `global` (the interpreter's binding rule).
fn function_locals(f: &FuncDef) -> BTreeSet<String> {
    let mut declared_global = BTreeSet::new();
    walk_stmts(&f.body, &mut |s| {
        if let StmtKind::Global(names) = &s.kind {
            declared_global.extend(names.iter().cloned());
        }
    });
    let mut locals: BTreeSet<String> = f.params.iter().cloned().collect();
    walk_stmts(&f.body, &mut |s| match &s.kind {
        StmtKind::Assign(Target::Var(n), _) if !declared_global.contains(n) => {
            locals.insert(n.clone());
        }
        StmtKind::For(v, _, _) => {
            locals.insert(v.clone());
        }
        _ => {}
    });
    locals
}

// --- V018: unreachable-code ---

fn unreachable_code(cfg: &Cfg, where_: &str, diags: &mut Vec<Diagnostic>) {
    for span in &cfg.unreachable {
        diags.push(
            Diagnostic::warning(
                "V018",
                "unreachable-code",
                format!("statement in {where_} can never execute"),
            )
            .with_span(*span)
            .with_help("it follows a return/break/continue on every path; delete it"),
        );
    }
}

// --- V019: constant-condition ---

/// Is this expression a literal the author plainly wrote on purpose
/// (`while true { ... }`)? Literal conditions are idiom, not findings.
fn is_literal(e: &Expr) -> bool {
    matches!(
        e,
        Expr::None | Expr::Bool(_) | Expr::Int(_) | Expr::Float(_) | Expr::Str(_)
    )
}

fn constant_conditions(
    cfg: &Cfg,
    effects: &EffectEnv,
    params: &[String],
    locals: &BTreeSet<String>,
    diags: &mut Vec<Diagnostic>,
) {
    let sol = constprop(cfg, effects, params.to_vec(), locals.clone());
    let mut reported: BTreeSet<(u32, u32)> = BTreeSet::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        let Terminator::Branch { cond, span, .. } = &block.term else {
            continue;
        };
        if is_literal(cond) {
            continue;
        }
        // replay the block's statements over the entry environment to get
        // the environment the condition actually evaluates under
        let Some(mut env) = sol.input[b].0.clone() else {
            continue; // block unreachable: nothing to report
        };
        for s in &block.stmts {
            const_transfer_stmt(s, &mut env, effects, locals);
        }
        if let CVal::Const(v) = eval_const(cond, &env) {
            if reported.insert((span.start, span.end)) {
                diags.push(
                    Diagnostic::warning(
                        "V019",
                        "constant-condition",
                        format!(
                            "condition always evaluates {}",
                            if v.truthy() { "true" } else { "false" }
                        ),
                    )
                    .with_span(*span)
                    .with_help(
                        "every input reaching this test produces the same branch; \
                         the other arm is dead code",
                    ),
                );
            }
        }
    }
}

// --- V017: dead-store ---

/// Names this statement or its nested blocks read, *excluding* nested
/// function bodies — a lambda or inner `def` resolves free names against
/// the globals at call time, never against these locals, so a read there
/// does not keep a local alive.
fn frame_reads(body: &[Stmt]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for s in body {
        stmt_reads(s, &mut out);
    }
    out
}

fn dead_stores(cfg: &Cfg, f: &FuncDef, locals: &BTreeSet<String>, diags: &mut Vec<Diagnostic>) {
    let read_somewhere = frame_reads(&f.body);
    let sol = liveness(cfg);
    for (b, block) in cfg.blocks.iter().enumerate() {
        // walk backward from live-out, exactly as the transfer does
        let mut live = sol.input[b].0.clone();
        if let Terminator::ForNext { var, .. } = &block.term {
            live.remove(var);
        }
        match &block.term {
            Terminator::Branch { cond, .. } => expr_reads(cond, &mut live),
            Terminator::ForNext { iter, .. } => expr_reads(iter, &mut live),
            Terminator::Return(Some(e)) => expr_reads(e, &mut live),
            _ => {}
        }
        let mut dead: Vec<(Span, String)> = Vec::new();
        for s in block.stmts.iter().rev() {
            if let StmtKind::Assign(Target::Var(n), _) = &s.kind {
                if locals.contains(n)
                    && !live.contains(n)
                    && read_somewhere.contains(n)
                    && !n.starts_with('_')
                {
                    dead.push((s.span, n.clone()));
                }
            }
            if let Some(d) = leaf_def(s) {
                live.remove(d);
            }
            live.extend(leaf_uses(s));
        }
        for (span, n) in dead.into_iter().rev() {
            diags.push(
                Diagnostic::warning(
                    "V017",
                    "dead-store",
                    format!(
                        "value assigned to `{n}` in function `{}` is overwritten before \
                         any read",
                        f.name
                    ),
                )
                .with_span(span)
                .with_help(
                    "no path from this assignment reaches a use of the value; remove it \
                     or prefix the name with `_` if intentional",
                ),
            );
        }
    }
}

// --- V025: effectful-fork-setup ---

/// Fork-mode check for a library's context setup function: invoked from
/// `lint_library` when the spec names a setup and executes in fork mode.
pub fn lint_fork_setup(prog: &Program, setup_fn: &str) -> Vec<Diagnostic> {
    let effects = EffectEnv::compute(prog);
    let Some(summary) = effects.functions.get(setup_fn) else {
        return Vec::new(); // setup shipped serialized; nothing to analyze
    };
    if !summary.io && !summary.dynamic {
        return Vec::new();
    }
    let span = top_functions(prog)
        .find(|f| f.name == setup_fn)
        .map(|f| f.span);
    let what = match (summary.io, summary.dynamic) {
        (true, true) => "performs I/O and executes dynamic code",
        (true, false) => "performs I/O",
        _ => "executes dynamic code",
    };
    let mut d = Diagnostic::warning(
        "V025",
        "effectful-fork-setup",
        format!("context setup `{setup_fn}` {what} under fork execution"),
    )
    .with_help(
        "setup runs once in the template interpreter and every forked invocation \
         snapshot inherits its live state; keep I/O and dynamic code out of setup \
         or switch the library to direct execution",
    );
    if let Some(span) = span {
        d = d.with_span(span);
    }
    vec![d]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(src: &str) -> Vec<Diagnostic> {
        lint_flow(&vine_lang::parse(src).unwrap())
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn dead_store_fires_on_overwrite_before_read() {
        let diags = flow("def f(a) {\n    x = a * 2\n    x = 5\n    return x\n}");
        assert_eq!(codes(&diags), vec!["V017"], "{diags:?}");
        assert!(diags[0].message.contains('x'));
    }

    #[test]
    fn dead_store_silent_when_both_paths_read() {
        // the first store reaches the `if` arm's read on one path
        let diags = flow(
            "def f(a) {\n    x = a * 2\n    if a > 0 { print(x) }\n    x = 5\n    return x\n}",
        );
        assert!(codes(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn dead_store_silent_in_loops_and_for_globals() {
        // acc flows around the back edge; g is global, not a frame local
        let diags = flow(
            "def f(n) {\n    global g\n    acc = 0\n    for i in range(n) { acc = acc + i }\n    \
             g = 1\n    g = 2\n    return acc\n}",
        );
        assert!(codes(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn unreachable_after_return_fires() {
        let diags = flow("def f() {\n    return 1\n    x = 2\n}");
        assert_eq!(codes(&diags), vec!["V018"], "{diags:?}");
    }

    #[test]
    fn constant_condition_fires_through_propagation() {
        let diags =
            flow("limit = 10\nif limit > 5 {\n    mode = \"big\"\n}\ndef f(x) { return x }");
        assert!(codes(&diags).contains(&"V019"), "{diags:?}");
        assert!(
            diags.iter().any(|d| d.message.contains("true")),
            "{diags:?}"
        );
    }

    #[test]
    fn literal_condition_is_idiom_not_finding() {
        let diags = flow("def f(x) {\n    while true {\n        if x > 0 { return x }\n        x = x + 1\n    }\n}");
        assert!(codes(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn parameter_dependent_condition_is_silent() {
        let diags = flow("def f(x) {\n    if x > 3 { return 1 }\n    return 0\n}");
        assert!(codes(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn fork_setup_with_io_warns_v025() {
        let prog = vine_lang::parse(
            "def context_setup() {\n    global model\n    model = 1\n    print(\"ready\")\n}",
        )
        .unwrap();
        let diags = lint_fork_setup(&prog, "context_setup");
        assert_eq!(codes(&diags), vec!["V025"], "{diags:?}");
        assert!(diags[0].message.contains("I/O"));
    }

    #[test]
    fn pure_fork_setup_is_clean() {
        let prog =
            vine_lang::parse("def context_setup() {\n    global model\n    model = [1, 2, 3]\n}")
                .unwrap();
        assert!(lint_fork_setup(&prog, "context_setup").is_empty());
        assert!(lint_fork_setup(&prog, "not_present").is_empty());
    }
}
