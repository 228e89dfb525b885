//! # vine-lang
//!
//! A small dynamically-typed embedded language ("vinescript") that plays the
//! role Python plays in the paper: **functions are data**. The paper ships
//! Python functions to workers by extracting their source with `inspect` or
//! serializing their code objects with cloudpickle (§3.2); vine-lang
//! provides the same two paths natively in Rust:
//!
//! * [`inspect::extract_source`] — slice a named function's text out of its
//!   defining module (the `inspect` analogue);
//! * [`pickle`] — serialize any function *object* (including lambdas and
//!   dynamically `eval`-ed functions that have no source form) to bytes and
//!   reconstruct it elsewhere (the cloudpickle analogue);
//! * [`inspect::scan_imports`] — walk a function's AST collecting the
//!   modules it imports (the Poncho dependency-discovery analogue).
//!
//! Automatic context discovery — the paper's §6 future work — is not
//! here: it needs dataflow, and lives in the `vine-flow` crate, which
//! builds on this crate's AST walkers ([`ast::stmt_reads`],
//! [`ast::expr_reads`]).
//!
//! The language is deliberately boring: `def` functions, `global`
//! declarations (how context setup publishes state to later invocations,
//! paper Fig 4), `import`, control flow, lists/dicts/tensors, and a native
//! module registry for "software dependencies".
//!
//! ## Example
//!
//! ```
//! use vine_lang::interp::Interp;
//!
//! let mut interp = Interp::new();
//! interp.exec_source(
//!     r#"
//!     def context_setup(n) {
//!         global model
//!         model = n * 100
//!     }
//!     def infer(x) {
//!         return model + x
//!     }
//!     context_setup(7)
//!     "#,
//! ).unwrap();
//! let out = interp.call_global("infer", &[5i64.into()]).unwrap();
//! assert_eq!(out, 705i64.into());
//! ```

pub mod ast;
pub mod builtins;
pub mod bytecode;
pub mod compile;
pub mod inspect;
pub mod interp;
pub mod lexer;
pub mod modules;
pub mod parser;
pub mod pickle;
pub mod value;
pub(crate) mod vm;

pub use ast::{BinOp, Expr, FuncDef, Program, Span, Stmt, StmtKind, Target, UnOp};
pub use bytecode::{CompiledFn, CompiledModule};
pub use compile::{compile_module, compile_program};
pub use interp::{Engine, Interp};
pub use modules::ModuleRegistry;
pub use value::Value;

/// Parse source text into a program.
pub fn parse(src: &str) -> vine_core::Result<Program> {
    let tokens = lexer::lex(src)?;
    parser::parse_program(&tokens)
}
