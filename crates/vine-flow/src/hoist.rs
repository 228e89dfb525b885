//! Context discovery by dataflow: the paper's §6 future work ("a
//! seamless discovery of high-level contexts among invocations to the
//! same function"), which §2.1.3 leaves out of scope.
//!
//! Given a module and the work functions a user wants to invoke
//! remotely, classify each module-level statement as hoistable context or
//! per-invocation residue and synthesize `context_setup`. The
//! classification is driven by interprocedural [`EffectSummary`]s, which
//! makes it *sound* through calls (a statement calling a helper that
//! writes invocation state does not hoist even though the mutated name is
//! not lexically visible; container mutation without a `global`
//! declaration is still a write) and *precise* (pure builtin calls don't
//! block hoisting, and a statement whose right-hand side constant-folds
//! to a scalar hoists as the folded constant even when it *reads*
//! invocation-mutated state — the read happens at fold time, before any
//! invocation ran).
//!
//! Soundness argument for the transformed order (setup first, residue at
//! boot, invocations after): a hoisted statement (1) has no I/O, dynamic
//! code, or unresolved calls, (2) touches no name the work set mutates,
//! (3) reads only module names that hoisted before it, (4) writes no
//! name an earlier residue statement read or wrote, and (5) reads no
//! name an earlier residue statement wrote. (3)+(4)+(5) mean the
//! hoisted subsequence and the residue subsequence are independent, so
//! interleaving them back yields the original execution; (1)+(2) mean no
//! invocation can observe or disturb the difference afterwards. Folded
//! statements substitute the value the statement would have produced *in
//! original order* (the constant environment tracks every earlier
//! statement, residue included), so the post-boot state is unchanged.
//! A differential proptest in `tests/differential.rs` holds this to
//! bit-identical executions.

use crate::analyses::{const_transfer_stmt, eval_const, scalar, CVal, ConstEnv};
use crate::effects::{EffectEnv, EffectSummary};
use std::collections::{BTreeMap, BTreeSet};
use vine_core::{Result, VineError};
use vine_lang::ast::{Expr, FuncDef, Program, Stmt, StmtKind, Target};
use vine_lang::inspect::{format_funcdef, format_program};
use vine_lang::Value;

/// A module split into reusable context and per-invocation residue, in
/// the shape a `LibrarySpec` consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredContext {
    /// Synthesized `context_setup` source: the hoistable module-level
    /// statements wrapped in a function that publishes their bindings via
    /// `global`.
    pub setup_source: String,
    /// Names the setup publishes into the namespace.
    pub provides: Vec<String>,
    /// Module-level statements that could NOT be hoisted, formatted, in
    /// module order.
    pub residue: Vec<String>,
    /// Modules the context needs installed (imports of the hoisted
    /// statements and of the work functions and their helpers).
    pub imports: Vec<String>,
    /// Source of the work functions themselves plus every helper function
    /// they transitively call.
    pub code_source: String,
}

/// One hoisted statement, with provenance when it was rewritten.
#[derive(Debug, Clone, PartialEq)]
pub struct HoistedStmt {
    /// Formatted source of the statement as it appears in the setup.
    pub source: String,
    /// When constant folding rewrote the statement, the original text.
    pub folded_from: Option<String>,
}

/// The outcome of discovery: the [`DiscoveredContext`] plus the analysis
/// detail behind it.
#[derive(Debug, Clone)]
pub struct FlowDiscovery {
    /// What to install: setup, residue, imports and code.
    pub context: DiscoveredContext,
    /// Hoisted statements in module order, with fold provenance.
    pub hoisted: Vec<HoistedStmt>,
    /// Global names the residue writes (the `global` declaration a boot
    /// wrapper needs to replay the residue inside a function).
    pub residue_publishes: Vec<String>,
    /// Effect summaries of the work functions and their transitive
    /// helpers.
    pub effects: BTreeMap<String, EffectSummary>,
    /// How many hoisted statements were constant-folded rewrites.
    pub folded: usize,
}

/// Re-materialize a scalar constant as a literal expression.
fn lit_expr(v: &Value) -> Option<Expr> {
    Some(match v {
        Value::None => Expr::None,
        Value::Bool(b) => Expr::Bool(*b),
        Value::Int(i) => Expr::Int(*i),
        Value::Float(f) => Expr::Float(*f),
        Value::Str(s) => Expr::Str(s.to_string()),
        _ => return None,
    })
}

fn fmt_stmt(stmt: &Stmt) -> String {
    format_program(&vec![stmt.clone()]).trim_end().to_string()
}

/// Discover the reusable context of `work_functions` within `module_src`
/// by dataflow analysis. See the module docs for the hoisting rules.
pub fn discover(module_src: &str, work_functions: &[&str]) -> Result<FlowDiscovery> {
    let prog: Program = vine_lang::parse(module_src)?;
    let effects = EffectEnv::compute(&prog);

    let top_defs: Vec<&std::rc::Rc<FuncDef>> = prog
        .iter()
        .filter_map(|s| match &s.kind {
            StmtKind::FuncDef(f) => Some(f),
            _ => None,
        })
        .collect();
    let def_names: BTreeSet<&str> = top_defs.iter().map(|f| f.name.as_str()).collect();
    for w in work_functions {
        if !def_names.contains(w) {
            return Err(VineError::Lang(format!("no function '{w}' in module")));
        }
    }

    // transitive closure over the call graph plus value-reads of function
    // names (passing a function around keeps it needed)
    let mut needed: BTreeSet<String> = BTreeSet::new();
    let mut queue: Vec<String> = work_functions.iter().map(|s| s.to_string()).collect();
    while let Some(f) = queue.pop() {
        if !needed.insert(f.clone()) {
            continue;
        }
        let mut next: BTreeSet<String> = BTreeSet::new();
        if let Some(called) = effects.calls.get(&f) {
            next.extend(called.iter().cloned());
        }
        if let Some(summary) = effects.functions.get(&f) {
            next.extend(summary.reads.iter().cloned());
        }
        for n in next {
            if def_names.contains(n.as_str()) || effects.functions.contains_key(&n) {
                queue.push(n);
            }
        }
    }

    // names the work set may mutate. An unresolvable call or dynamic code
    // inside the work set could write anything: every module name becomes
    // off-limits.
    let mut mutated: BTreeSet<String> = BTreeSet::new();
    let mut work_is_opaque = false;
    for f in &needed {
        if let Some(s) = effects.functions.get(f) {
            mutated.extend(s.writes.iter().cloned());
            work_is_opaque |= s.dynamic || s.calls_unknown;
        }
    }
    if work_is_opaque {
        mutated.extend(effects.module_defs.iter().cloned());
    }

    // classify module-level statements in order
    let mut hoistable_names: BTreeSet<String> = BTreeSet::new();
    let mut hoisted_stmts: Vec<Stmt> = Vec::new();
    let mut hoisted: Vec<HoistedStmt> = Vec::new();
    let mut residue: Vec<String> = Vec::new();
    let mut residue_touched: BTreeSet<String> = BTreeSet::new();
    let mut residue_written: BTreeSet<String> = BTreeSet::new();
    let mut residue_publishes: BTreeSet<String> = BTreeSet::new();
    let mut imports: BTreeSet<String> = BTreeSet::new();
    let mut folded = 0usize;
    // constant environment tracking *original* module execution order
    let mut cenv = ConstEnv::new();
    let no_locals = BTreeSet::new();

    for stmt in &prog {
        if let StmtKind::FuncDef(f) = &stmt.kind {
            // function definitions travel as code, not as context setup
            hoistable_names.insert(f.name.clone());
            const_transfer_stmt(stmt, &mut cenv, &effects, &no_locals);
            continue;
        }
        let eff = effects.stmt_effect(stmt);
        let clean = !eff.io && !eff.dynamic && !eff.calls_unknown;
        let reads_mutated = eff.reads.iter().any(|n| mutated.contains(n));
        let writes_mutated = eff.writes.iter().any(|n| mutated.contains(n));
        // a read of a module name that has not hoisted blocks hoisting —
        // except a name the statement itself binds (a `for` variable, a
        // self-referential rebind): if such a name was touched by residue
        // instead, the writes_residue_touched check below still blocks
        let unhoisted_dep = eff.reads.iter().any(|n| {
            effects.module_defs.contains(n)
                && !hoistable_names.contains(n)
                && !eff.writes.contains(n)
        });
        let writes_residue_touched = eff.writes.iter().any(|n| residue_touched.contains(n));
        // reading a name the residue already *wrote* would observe the
        // pre-residue value once hoisted; names the residue merely read
        // are fine to read again
        let reads_residue_written = eff.reads.iter().any(|n| residue_written.contains(n));

        if clean
            && !reads_mutated
            && !writes_mutated
            && !unhoisted_dep
            && !writes_residue_touched
            && !reads_residue_written
        {
            if let StmtKind::Import(m) = &stmt.kind {
                imports.insert(m.clone());
            }
            hoistable_names.extend(eff.writes.iter().cloned());
            hoisted.push(HoistedStmt {
                source: fmt_stmt(stmt),
                folded_from: None,
            });
            hoisted_stmts.push(stmt.clone());
            const_transfer_stmt(stmt, &mut cenv, &effects, &no_locals);
            continue;
        }

        // fold path: an assignment whose value is a known scalar under the
        // original-order constant environment hoists as that constant,
        // even when its right-hand side reads invocation-mutated or
        // residue state — the value is captured, not the dependency
        if let StmtKind::Assign(Target::Var(x), e) = &stmt.kind {
            let foldable = !mutated.contains(x) && !residue_touched.contains(x);
            // (a fold may READ residue-written names: the constant
            // environment already accounts for those writes)
            if foldable {
                if let CVal::Const(v) = eval_const(e, &cenv) {
                    if scalar(&v) {
                        if let Some(le) = lit_expr(&v) {
                            let rewritten =
                                Stmt::dummy(StmtKind::Assign(Target::Var(x.clone()), le));
                            hoistable_names.insert(x.clone());
                            hoisted.push(HoistedStmt {
                                source: fmt_stmt(&rewritten),
                                folded_from: Some(fmt_stmt(stmt)),
                            });
                            hoisted_stmts.push(rewritten);
                            folded += 1;
                            const_transfer_stmt(stmt, &mut cenv, &effects, &no_locals);
                            continue;
                        }
                    }
                }
            }
        }

        residue.push(fmt_stmt(stmt));
        residue_touched.extend(eff.reads.iter().cloned());
        residue_touched.extend(eff.writes.iter().cloned());
        residue_written.extend(eff.writes.iter().cloned());
        residue_publishes.extend(eff.writes.iter().cloned());
        const_transfer_stmt(stmt, &mut cenv, &effects, &no_locals);
    }

    // imports inside the needed functions are context too
    for f in &top_defs {
        if needed.contains(&f.name) {
            imports.extend(vine_lang::inspect::scan_function_imports(f));
        }
    }

    // synthesize context_setup: one `global` declaration for every name
    // the hoisted statements bind (imported modules included, so the work
    // functions see them in the global namespace), then the statements
    let mut published: Vec<String> = hoisted_stmts
        .iter()
        .flat_map(|s| effects.stmt_effect(s).writes)
        .collect();
    published.sort();
    published.dedup();
    let provides: Vec<String> = published
        .iter()
        .filter(|n| !imports.contains(*n))
        .cloned()
        .collect();
    let setup = FuncDef::new("context_setup", vec![], {
        let mut body = Vec::new();
        if !published.is_empty() {
            body.push(Stmt::dummy(StmtKind::Global(published)));
        }
        body.extend(hoisted_stmts.iter().cloned());
        body
    });

    let mut code_source = String::new();
    for f in &top_defs {
        if needed.contains(&f.name) {
            code_source.push_str(&format_funcdef(f));
            code_source.push('\n');
        }
    }

    let context = DiscoveredContext {
        setup_source: format_funcdef(&setup),
        provides,
        residue: residue.clone(),
        imports: imports.into_iter().collect(),
        code_source,
    };
    let summaries = needed
        .iter()
        .filter_map(|n| effects.functions.get(n).map(|s| (n.clone(), s.clone())))
        .collect();

    Ok(FlowDiscovery {
        context,
        hoisted,
        residue_publishes: residue_publishes.into_iter().collect(),
        effects: summaries,
        folded,
    })
}
