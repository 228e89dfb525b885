//! Flow-based context discovery end to end: `Runtime::install_library_auto`
//! takes the naive user module, runs the vine-flow dataflow analysis, and
//! boots the synthesized library on a live cluster — hoisted setup once,
//! residue per instance, invocations observing exactly the state the
//! original module would have built.

use vine_core::context::LibrarySpec;
use vine_core::ids::InvocationId;
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, WorkUnit};
use vine_lang::{pickle, Value};
use vine_runtime::{decode_result, Runtime, RuntimeConfig};

/// The naive module: model build and label table are invocation-invariant,
/// `served` is mutable per-invocation state, and `capacity` reads the
/// mutated counter but constant-folds to a hoistable value.
const USER_MODULE: &str = r#"
import nn

model_dim = 24
model = nn.load_model(3, model_dim)
labels = ["cat", "dog", "ship"]
served = 0
capacity = served + 4096
print("library online")

def classify(img) {
    global served
    served = served + 1
    cls = nn.forward(model, img)
    return labels[cls % len(labels)]
}

def remaining() {
    return capacity - served
}
"#;

#[test]
fn flow_install_auto_runs_on_live_cluster() {
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 1,
        registry: vine_apps::modules::full_registry(),
        ..Default::default()
    });
    let mut spec = LibrarySpec::new("auto");
    spec.resources = Some(Resources::new(2, 1024, 1024));
    spec.slots = Some(1);
    let flow = rt
        .install_library_auto(spec, USER_MODULE, &["classify", "remaining"])
        .unwrap();

    // the flow pass hoisted the model, the labels, and the folded capacity;
    // the counter and the print stayed residue
    assert!(flow.context.provides.contains(&"model".to_string()));
    assert!(flow.context.provides.contains(&"capacity".to_string()));
    assert!(!flow.context.provides.contains(&"served".to_string()));
    assert_eq!(flow.folded, 1);
    assert!(
        flow.context.residue.iter().any(|r| r.contains("print")),
        "{:?}",
        flow.context.residue
    );

    // the discovered imports resolve and pack through the package catalog,
    // as a hand-written dependency list would
    assert_eq!(flow.context.imports, vec!["nn".to_string()]);
    let catalog = vine_env::catalog::standard_registry();
    let reqs: Vec<vine_env::Requirement> = flow
        .context
        .imports
        .iter()
        .map(|m| vine_env::Requirement::any(m.clone()))
        .collect();
    let resolution = vine_env::resolve(&catalog, &reqs).unwrap();
    assert!(vine_env::pack("auto-env", &resolution).provides("nn"));

    for i in 0..5u64 {
        rt.submit(WorkUnit::Call(FunctionCall::new(
            InvocationId(i),
            "auto",
            "classify",
            pickle::serialize_args(&[Value::Int(i as i64)]).unwrap(),
        )));
    }
    rt.submit(WorkUnit::Call(FunctionCall::new(
        InvocationId(100),
        "auto",
        "remaining",
        pickle::serialize_args(&[]).unwrap(),
    )));
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 6);
    for o in &outcomes {
        assert!(o.success, "{:?}", o.error);
    }
    // `remaining` ran after some number of classifies on the same instance:
    // capacity folded to 4096, served in [0, 5]
    let rem = outcomes
        .iter()
        .find(|o| o.unit == vine_core::task::UnitId::Call(InvocationId(100)))
        .map(|o| decode_result(o).unwrap())
        .unwrap();
    let Value::Int(rem) = rem else {
        panic!("remaining() returned {rem:?}")
    };
    assert!((4091..=4096).contains(&rem), "{rem}");
    rt.shutdown();
}

#[test]
fn flow_auto_boot_matches_direct_execution() {
    // the shipped construction (setup + defs + boot + residue) must agree
    // with running the module directly — same results, same counter
    let registry = vine_apps::modules::full_registry();
    let mut direct = vine_lang::Interp::with_registry(registry.clone());
    direct.exec_source(USER_MODULE).unwrap();

    let flow = vine_flow::discover(USER_MODULE, &["classify", "remaining"]).unwrap();
    let mut auto = vine_lang::Interp::with_registry(registry);
    auto.exec_source(&flow.context.setup_source).unwrap();
    let prog = vine_lang::parse(USER_MODULE).unwrap();
    for s in &prog {
        if let vine_lang::ast::StmtKind::FuncDef(f) = &s.kind {
            auto.exec_source(&vine_lang::inspect::format_funcdef(f))
                .unwrap();
        }
    }
    auto.exec_source("context_setup()").unwrap();
    for r in &flow.context.residue {
        auto.exec_source(r).unwrap();
    }

    for img in 0..10i64 {
        let a = direct.call_global("classify", &[Value::Int(img)]).unwrap();
        let b = auto.call_global("classify", &[Value::Int(img)]).unwrap();
        assert_eq!(a, b, "img {img}");
    }
    assert_eq!(
        direct.call_global("remaining", &[]).unwrap(),
        auto.call_global("remaining", &[]).unwrap()
    );
    assert_eq!(
        direct.get_global("served").unwrap(),
        auto.get_global("served").unwrap()
    );
}
