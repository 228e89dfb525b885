//! Adversarial edge cases for flow-based discovery: each module hides an
//! invocation-time mutation behind syntax the naive reading misses —
//! augmented assignment (desugared at parse), container writes through a
//! local alias, dynamic code inside an innocuous-looking candidate, a
//! setup-looking read of a container the residue fills. In
//! every case the touched binding must stay un-hoisted, and the hoisted
//! form must still execute identically to the original.

use std::collections::BTreeMap;
use vine_lang::{Interp, Value};

/// Execute original vs hoisted-construction module; compare work results,
/// printed output, and the final global namespace.
fn assert_execution_identical(src: &str, work: &str, calls: &[Vec<Value>]) {
    let flow = vine_flow::discover(src, &[work]).unwrap();
    let mut trans = String::new();
    trans.push_str(&flow.context.setup_source);
    let prog = vine_lang::parse(src).unwrap();
    for s in &prog {
        if let vine_lang::ast::StmtKind::FuncDef(f) = &s.kind {
            trans.push_str(&vine_lang::inspect::format_funcdef(f));
        }
    }
    trans.push_str("context_setup()\n");
    for r in &flow.context.residue {
        trans.push_str(r);
        trans.push('\n');
    }

    let run = |text: &str| {
        let mut interp = Interp::new();
        interp.exec_source(text).unwrap();
        let mut results = Vec::new();
        for args in calls {
            results.push(format!("{}", interp.call_global(work, args).unwrap()));
        }
        let globals: BTreeMap<String, String> = interp
            .global_names()
            .into_iter()
            .filter_map(|n| {
                let v = interp.get_global(&n)?;
                if matches!(v, Value::Func(_) | Value::Native(_) | Value::Module(_)) {
                    None
                } else {
                    Some((n, format!("{v}")))
                }
            })
            .collect();
        (results, interp.output.clone(), globals)
    };
    assert_eq!(
        run(src),
        run(&trans),
        "divergence\n--- transformed ---\n{trans}"
    );
}

#[test]
fn augmented_assignment_mutation_blocks_hoisting() {
    // `served += 1` desugars to an Assign at parse time; the effect
    // analysis must still see the write and pin `served = 0` as residue
    let src = r#"
        served = 0
        def work(t) {
            global served
            served += 1
            return served + t
        }
    "#;
    let flow = vine_flow::discover(src, &["work"]).unwrap();
    assert!(
        !flow.context.provides.contains(&"served".to_string()),
        "{:?}",
        flow.context
    );
    assert!(
        flow.context.residue.iter().any(|r| r.contains("served")),
        "{:?}",
        flow.context.residue
    );
    assert_execution_identical(
        src,
        "work",
        &[
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(3)],
        ],
    );
}

#[test]
fn alias_write_blocks_hoisting() {
    // the work function never names `table` in a write position: it takes
    // a local alias and pushes through that. The alias analysis must
    // propagate the write back to `table`.
    let src = r#"
        table = [10, 20]
        def work(t) {
            global table
            handle = table
            push(handle, t)
            return len(table)
        }
    "#;
    let flow = vine_flow::discover(src, &["work"]).unwrap();
    assert!(
        !flow.context.provides.contains(&"table".to_string()),
        "{:?}",
        flow.context
    );
    assert!(
        flow.context.residue.iter().any(|r| r.contains("table")),
        "{:?}",
        flow.context.residue
    );
    assert_execution_identical(src, "work", &[vec![Value::Int(7)], vec![Value::Int(8)]]);
}

#[test]
fn eval_inside_candidate_blocks_hoisting() {
    // the statement looks like pure setup, but eval() can read or write
    // anything: it must stay residue (⊤ treatment), not become context
    let src = r#"
        base = 5
        cfg = eval("base * 2")
        def work(t) {
            return cfg + t
        }
    "#;
    let flow = vine_flow::discover(src, &["work"]).unwrap();
    assert!(
        !flow.context.provides.contains(&"cfg".to_string()),
        "{:?}",
        flow.context
    );
    assert!(
        flow.context.residue.iter().any(|r| r.contains("eval")),
        "{:?}",
        flow.context.residue
    );
    assert_execution_identical(src, "work", &[vec![Value::Int(1)], vec![Value::Int(2)]]);
}

#[test]
fn read_after_residue_container_write_stays_residue() {
    // `push` mutates `table` with the invocation counter, so it stays
    // residue; `n = len(table)` looks like pure setup but reads what the
    // residue wrote. Hoisting it above the push would bind n = 0 (setup
    // first) or fail on an undefined `table` (residue first).
    let src = r#"
table = []
served = 0
push(table, served)
n = len(table)
def work() { global served
    served = served + 1
    return n }
"#;
    let flow = vine_flow::discover(src, &["work"]).unwrap();
    assert!(
        !flow.context.provides.contains(&"n".to_string()),
        "{:?}",
        flow.context
    );
    assert!(
        flow.context
            .residue
            .iter()
            .any(|r| r.contains("n = len(table)")),
        "{:?}",
        flow.context.residue
    );
    assert_execution_identical(src, "work", &[vec![], vec![]]);
}
