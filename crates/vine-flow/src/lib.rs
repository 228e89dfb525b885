//! # vine-flow
//!
//! Dataflow analysis engine for vinescript. Four layers, bottom to top:
//!
//! * [`cfg`] — lower a statement list to a basic-block control-flow graph;
//! * [`fixpoint`] — a generic worklist solver over join-semilattice facts,
//!   forward or backward;
//! * [`analyses`] — reaching definitions, liveness, and constant
//!   propagation (folding with the interpreter's own operator semantics);
//! * [`effects`] — interprocedural purity/effect summaries over the call
//!   graph, with a curated builtin table ([`vine_lang::builtins`]) and
//!   `eval`/`exec` as ⊤.
//!
//! On top sits [`hoist::discover`], the repository's one context-discovery
//! pass: the paper's §6 "seamless discovery of high-level contexts". It
//! hoists module statements whose values are provably
//! invocation-invariant *even through calls*, and constant-folds
//! statements that read invocation state into hoistable constants.
//! `vine-lint` builds its flow lints (dead store, unreachable code,
//! constant condition, effectful setup in fork mode) on the same layers,
//! and `vine-runtime` turns discoveries into installable `LibrarySpec`s.

pub mod analyses;
pub mod cfg;
pub mod effects;
pub mod fixpoint;
pub mod hoist;

pub use analyses::{constprop, liveness, reaching, CVal, ConstEnv};
pub use cfg::{Block, BlockId, Cfg, Terminator};
pub use effects::{EffectEnv, EffectSummary};
pub use fixpoint::{solve, Analysis, Direction, Lattice, Solution};
pub use hoist::{discover, DiscoveredContext, FlowDiscovery, HoistedStmt};

#[cfg(test)]
mod tests {
    use super::*;

    const MODULE: &str = r#"
        import nn

        model_dim = 64
        model = nn.load_model(4, model_dim)
        labels = ["a", "b", "c"]
        served = 0
        capacity = served + 4096

        def classify(img) {
            global served
            served = served + 1
            return labels[nn.forward(model, img) % len(labels)]
        }
    "#;

    #[test]
    fn read_of_mutated_counter_folds_and_hoists() {
        let flow = discover(MODULE, &["classify"]).unwrap();
        // `capacity = served + 4096` reads the mutated counter, but its
        // value at boot is a constant: it hoists as `capacity = 4096;`
        assert_eq!(flow.hoisted.len(), 5, "{:?}", flow.hoisted);
        assert_eq!(flow.context.residue, vec!["served = 0;".to_string()]);
        assert_eq!(flow.folded, 1);
        let fold = flow
            .hoisted
            .iter()
            .find(|h| h.folded_from.is_some())
            .unwrap();
        assert_eq!(fold.source, "capacity = 4096;");
        assert!(flow.context.provides.contains(&"capacity".to_string()));
    }

    #[test]
    fn unknown_function_errors() {
        assert!(discover(MODULE, &["missing"]).is_err());
        assert!(discover(MODULE, &["classify", "missing"]).is_err());
    }

    #[test]
    fn collects_imports_and_helpers() {
        // `mathx` is imported only inside the helper; the helper travels
        // with the work function as code
        let src = r#"
            scale = 3
            def preprocess(img) {
                import mathx
                return img % scale
            }
            def infer(img) { return preprocess(img) + 1 }
            def unused() { return 0 }
        "#;
        let flow = discover(src, &["infer"]).unwrap();
        assert_eq!(flow.context.imports, vec!["mathx".to_string()]);
        assert!(flow.context.code_source.contains("def preprocess"));
        assert!(flow.context.code_source.contains("def infer"));
        assert!(!flow.context.code_source.contains("def unused"));
        assert!(flow.context.provides.contains(&"scale".to_string()));
    }

    #[test]
    fn pure_builtin_call_does_not_block_hoisting() {
        let src = r#"
            sizes = [2, 4, 8]
            count = len(sizes)
            def work(i) { return sizes[i % count] }
        "#;
        let flow = discover(src, &["work"]).unwrap();
        assert!(flow.context.provides.contains(&"count".to_string()));
        assert!(flow.context.residue.is_empty());
    }

    #[test]
    fn through_call_mutation_blocks_hoisting() {
        // the helper's write is not lexically visible in the statement
        // (no `global` read in it), but the effect summary sees through it
        let src = r#"
            def bump() {
                global hits
                hits = hits + 1
            }
            hits = 0
            mirror = hits
            def work(x) { bump()
                return x }
        "#;
        let flow = discover(src, &["work"]).unwrap();
        assert!(!flow.context.provides.contains(&"hits".to_string()));
        // mirror constant-folds to 0 — hoistable by value
        assert!(flow.context.provides.contains(&"mirror".to_string()));
        assert_eq!(flow.folded, 1);
    }

    #[test]
    fn eval_in_work_function_blocks_everything() {
        let src = r#"
            seed = 7
            def work(x) { return eval("seed") + x }
        "#;
        let flow = discover(src, &["work"]).unwrap();
        assert!(flow.context.provides.is_empty(), "{:?}", flow.context);
        assert_eq!(flow.context.residue.len(), 1);
    }

    #[test]
    fn container_built_by_loop_hoists() {
        let src = r#"
            table = []
            for i in range(16) {
                push(table, i * i)
            }
            def lookup(i) { return table[i] }
        "#;
        let flow = discover(src, &["lookup"]).unwrap();
        assert!(flow.context.provides.contains(&"table".to_string()));
        assert!(flow.context.residue.is_empty());
    }

    #[test]
    fn io_statement_never_hoists() {
        let src = r#"
            banner = "up"
            print(banner)
            def work(x) { return x }
        "#;
        let flow = discover(src, &["work"]).unwrap();
        assert!(flow.context.provides.contains(&"banner".to_string()));
        assert_eq!(flow.context.residue.len(), 1);
        assert!(flow.context.residue[0].contains("print"));
    }

    #[test]
    fn compound_statement_havocs_constants() {
        // the `if` leaves g at 5, not 1: `derived` must not fold to 2
        let src = r#"
            def bump() { global served
                served = served + 1 }
            g = 1
            served = 0
            if len("xyz") < 4 {
                g = 5
            }
            derived = g + 1
            def work() { bump()
                return served + derived }
        "#;
        let flow = discover(src, &["work"]).unwrap();
        assert_eq!(flow.folded, 0, "{:?}", flow.hoisted);
        // g itself is still hoistable (work never touches it), so the
        // whole chain hoists unfolded instead
        assert!(flow.context.provides.contains(&"derived".to_string()));
    }

    #[test]
    fn write_after_residue_read_stays_residue() {
        // residue reads x, then x is reassigned: hoisting the second
        // write would change what the residue observed
        let src = r#"
            def bump() { global served
                served = served + 1 }
            x = 1
            served = x
            x = []
            def work() { bump()
                return served }
        "#;
        let flow = discover(src, &["work"]).unwrap();
        assert!(
            flow.context.residue.iter().any(|r| r.contains("x = [];")),
            "{:?}",
            flow.context.residue
        );
    }
}
