//! Retained context is given back: a library's namespace dies with the
//! library, a fork-mode child's with the child, a stateless task's with
//! the task, and a finished task thread's stack with the thread.
//!
//! Each check warms up, reads this process's resident set, repeats one
//! lifecycle many times and bounds the growth far below what a leaked
//! context per lifecycle would cost. The checks live in their own test
//! binary so no other test's allocations share the process, and they take
//! turns so none measures another's.

use std::sync::Mutex;
use vine_core::context::{CodeArtifact, ContextSpec, LibrarySpec, SetupSpec};
use vine_core::ids::{InvocationId, TaskId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, TaskSpec, WorkUnit};
use vine_lang::{pickle, Value};
use vine_runtime::{Runtime, RuntimeConfig};

static SERIAL: Mutex<()> = Mutex::new(());

/// Growth allowed over a measured run, in KiB: far below every leak
/// these checks guard against, which each cost tens of MiB.
const BOUND_KIB: u64 = 8 * 1024;

fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

/// Run `step(i)` for `warmup` rounds, then `rounds` more, and return the
/// resident-set growth over the measured rounds.
fn growth_kib(warmup: u64, rounds: u64, mut step: impl FnMut(u64)) -> u64 {
    for i in 0..warmup {
        step(i);
    }
    let before = rss_kib();
    for i in warmup..warmup + rounds {
        step(i);
    }
    rss_kib().saturating_sub(before)
}

fn cluster(workers: usize, worker_resources: Resources) -> Runtime {
    Runtime::new(RuntimeConfig {
        workers,
        worker_resources,
        registry: vine_apps::modules::full_registry(),
        ..Default::default()
    })
}

/// LNNI as a library taking the whole of a 2-core worker.
fn lnni_spec(name: &str, mode: ExecMode) -> LibrarySpec {
    let mut spec = LibrarySpec::new(name);
    spec.functions = vec!["infer".into()];
    spec.resources = Some(Resources::new(2, 2048, 2048));
    spec.slots = Some(1);
    spec.exec_mode = mode;
    spec.context = ContextSpec {
        setup: Some(SetupSpec {
            function: "context_setup".into(),
            args_blob: vec![],
        }),
        ..Default::default()
    };
    spec
}

fn infer_call(i: u64, library: &str) -> WorkUnit {
    let args = [Value::Int(i as i64), Value::Int(1)];
    let mut c = FunctionCall::new(
        InvocationId(i),
        library,
        "infer",
        pickle::serialize_args(&args).unwrap(),
    );
    c.resources = Resources::new(1, 512, 512);
    WorkUnit::Call(c)
}

fn run_one(rt: &mut Runtime, unit: WorkUnit) {
    rt.submit(unit);
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].success, "{:?}", outcomes[0].error);
}

#[test]
fn evicted_libraries_give_their_context_back() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // room for one instance: every call to the other library evicts the
    // one that is resident
    let mut rt = cluster(1, Resources::new(2, 2048, 2048));
    for name in ["lnni_a", "lnni_b"] {
        rt.install_library(
            lnni_spec(name, ExecMode::Direct),
            vine_apps::lnni::LNNI_SOURCE,
            vec![],
            &[Value::Int(3), Value::Int(64)],
        )
        .unwrap();
    }
    let grew = growth_kib(20, 200, |i| {
        run_one(&mut rt, infer_call(i, ["lnni_a", "lnni_b"][i as usize % 2]));
        // a fresh instance served this call: the other one was evicted
        let shares = rt.library_share_values();
        assert_eq!(shares.len(), 1, "{shares:?}");
        assert_eq!(shares[0].1, 1, "{shares:?}");
    });
    rt.shutdown();
    assert!(grew < BOUND_KIB, "200 evictions grew RSS by {grew} KiB");
}

#[test]
fn forked_invocations_give_their_copy_back() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rt = cluster(1, Resources::new(2, 2048, 2048));
    rt.install_library(
        lnni_spec("lnni", ExecMode::Fork),
        vine_apps::lnni::LNNI_SOURCE,
        vec![],
        &[Value::Int(3), Value::Int(32)],
    )
    .unwrap();
    let grew = growth_kib(100, 2000, |i| run_one(&mut rt, infer_call(i, "lnni")));
    rt.shutdown();
    assert!(grew < BOUND_KIB, "2000 forked calls grew RSS by {grew} KiB");
}

#[test]
fn stateless_tasks_give_their_context_and_thread_back() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let source = format!(
        "{}\ndef stateless_infer(first) {{\n    context_setup(3, 32)\n    \
         return infer(first, 1)\n}}\n",
        vine_apps::lnni::LNNI_SOURCE
    );
    let mut rt = cluster(1, Resources::new(2, 2048, 2048));
    let task = |i: u64| {
        let mut t = TaskSpec::new(TaskId(i), "lnni-stateless");
        t.code = vec![CodeArtifact::Source {
            name: "lnni".into(),
            text: source.clone(),
        }];
        t.function = Some("stateless_infer".into());
        t.args_blob = pickle::serialize_args(&[Value::Int(i as i64)]).unwrap();
        t.resources = Resources::new(1, 512, 512);
        WorkUnit::Task(t)
    };
    let grew = growth_kib(200, 4000, |i| run_one(&mut rt, task(i)));
    rt.shutdown();
    assert!(
        grew < BOUND_KIB,
        "4000 stateless tasks grew RSS by {grew} KiB"
    );
}
