//! # vine-lint
//!
//! Pre-flight static analysis for function-centric workflow programs.
//!
//! The paper's pipeline — discover a function's context, package it,
//! distribute it, retain it on workers (§2.2) — front-loads a lot of
//! expensive machinery before the first invocation runs. A defect that a
//! compiler would catch in milliseconds (an undefined name, a missing
//! import, an arity mismatch) instead surfaces minutes later on a worker,
//! after environments were packed, broadcast, and unpacked. `vine-lint`
//! moves those failures to submission time.
//!
//! Three analysis layers, one [`Report`] per target:
//!
//! * **language** ([`language`]) — checks a parsed vinescript [`Program`]:
//!   undefined names, unused bindings, shadowed globals, dynamic code in
//!   hoistable positions, global writes that defeat context-discovery hoisting,
//!   captures that will not survive fork-mode serialization.
//! * **environment** ([`environment`]) — checks imports against what the
//!   module registry and package catalog can actually provide, declared
//!   dependencies against what the code imports, and a [`LibrarySpec`]'s
//!   exported function list against the code it ships.
//! * **placement** ([`placement`], [`dag`]) — checks a spec against worker
//!   capacities (unschedulable resource requests, zero slots, contexts
//!   bigger than any cache) and an invocation graph for cycles, arity
//!   mismatches, and unknown targets.
//!
//! Entry points: [`lint_source`] for bare programs (the `repro lint` CLI),
//! [`lint_library`] for the runtime's `install_library` pre-flight, and
//! [`dag::lint_dag`] for submit-time app validation.

pub mod dag;
pub mod diag;
pub mod environment;
pub mod flow;
pub mod language;
pub mod placement;

pub use dag::{lint_dag, DagNode};
pub use diag::{Diagnostic, Report, Severity};
pub use environment::{lint_environment, lint_spec, SpecFacts};
pub use flow::{lint_flow, lint_fork_setup};
pub use language::{lint_fork_mode, lint_language};
pub use placement::lint_placement;

use std::collections::BTreeSet;
use vine_core::{ExecMode, LibrarySpec, Resources};
use vine_lang::ast::{Program, Span, StmtKind};

/// Reconstruct a span from a lexer/parser error message of the form
/// `... line L, column C ...`, so even V001 findings point at the source.
fn span_from_error(msg: &str, src: &str) -> Option<Span> {
    let rest = &msg[msg.find("line ")? + 5..];
    let line: u32 = rest[..rest.find(',')?].trim().parse().ok()?;
    let rest = &rest[rest.find("column ")? + 7..];
    let col_end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    let col: usize = rest[..col_end].parse().ok()?;
    let mut offset = 0usize;
    for (i, l) in src.split('\n').enumerate() {
        if i as u32 + 1 == line {
            let start = offset + col.saturating_sub(1).min(l.len());
            return Some(Span::new(start, start + 1));
        }
        offset += l.len() + 1;
    }
    None
}

/// Parse and run every language-layer lint over one source file.
pub fn lint_source(origin: &str, src: &str) -> Report {
    let mut report = Report::with_source(origin, src);
    match vine_lang::parse(src) {
        Ok(prog) => {
            report.extend(lint_language(&prog));
            report.extend(lint_flow(&prog));
        }
        Err(e) => {
            let msg = e.to_string();
            let mut d = Diagnostic::error("V001", "syntax-error", &msg);
            if let Some(span) = span_from_error(&msg, src) {
                d = d.with_span(span);
            }
            report.push(d);
        }
    }
    report.sort();
    report
}

/// [`lint_source`] plus the environment layer: imports checked against
/// `available` modules, and (when `declared` is supplied) declared
/// dependencies checked against actual imports.
pub fn lint_source_with_env(
    origin: &str,
    src: &str,
    available: &BTreeSet<String>,
    declared: Option<&BTreeSet<String>>,
) -> Report {
    let mut report = Report::with_source(origin, src);
    match vine_lang::parse(src) {
        Ok(prog) => {
            report.extend(lint_language(&prog));
            report.extend(lint_flow(&prog));
            report.extend(lint_environment(&prog, available, declared));
        }
        Err(e) => {
            let msg = e.to_string();
            let mut d = Diagnostic::error("V001", "syntax-error", &msg);
            if let Some(span) = span_from_error(&msg, src) {
                d = d.with_span(span);
            }
            report.push(d);
        }
    }
    report.sort();
    report
}

/// Everything the runtime knows at `install_library` time that the linter
/// needs: the module world, the fleet, and the non-source code artifacts.
#[derive(Clone, Debug, Default)]
pub struct LibraryPreflight {
    /// Module names the registry or package catalog can provide.
    pub available_modules: BTreeSet<String>,
    /// Package names the spec's environment declares, when known; enables
    /// the unused-dependency check.
    pub declared_deps: Option<BTreeSet<String>>,
    /// Capacity of each worker in the fleet.
    pub workers: Vec<Resources>,
    /// Names of functions shipped in serialized (non-source) form.
    pub serialized_functions: Vec<String>,
    /// Number of setup arguments the installer passes, when known.
    pub setup_argc: Option<usize>,
}

/// The full install-time pre-flight: all three layers over one library.
/// Errors should reject the install; warnings should be logged.
pub fn lint_library(spec: &LibrarySpec, source: &str, pre: &LibraryPreflight) -> Report {
    let origin = format!("library `{}`", spec.name);
    let mut report = if source.is_empty() {
        Report::new(origin)
    } else {
        Report::with_source(origin, source)
    };

    let mut facts = SpecFacts {
        setup_argc: pre.setup_argc,
        ..SpecFacts::default()
    };
    facts
        .defined_functions
        .extend(pre.serialized_functions.iter().cloned());
    for code in &spec.context.code {
        facts.defined_functions.insert(code.name().to_string());
    }

    let mut parsed: Option<Program> = None;
    if !source.is_empty() {
        match vine_lang::parse(source) {
            Ok(prog) => {
                for s in &prog {
                    if let StmtKind::FuncDef(f) = &s.kind {
                        facts.defined_functions.insert(f.name.clone());
                        facts.arities.insert(f.name.clone(), f.params.len());
                    }
                }
                parsed = Some(prog);
            }
            Err(e) => {
                let msg = e.to_string();
                let mut d = Diagnostic::error("V001", "syntax-error", &msg);
                if let Some(span) = span_from_error(&msg, source) {
                    d = d.with_span(span);
                }
                report.push(d);
            }
        }
    }

    if let Some(prog) = &parsed {
        report.extend(lint_language(prog));
        report.extend(lint_flow(prog));
        if spec.exec_mode == ExecMode::Fork {
            report.extend(lint_fork_mode(prog));
            if let Some(setup) = &spec.context.setup {
                report.extend(lint_fork_setup(prog, &setup.function));
            }
        }
        report.extend(lint_environment(
            prog,
            &pre.available_modules,
            pre.declared_deps.as_ref(),
        ));
    }
    report.extend(lint_spec(spec, &facts));
    report.extend(lint_placement(spec, &pre.workers));
    report.sort();
    report
}
