//! The library daemon: one thread, one interpreter, one retained context.

use crossbeam::channel::{Receiver, Sender};
use std::thread::JoinHandle;
use vine_core::ids::{LibraryInstanceId, WorkerId};
use vine_core::task::ExecMode;
use vine_lang::pickle;
use vine_lang::{Engine, Interp, ModuleRegistry, Value};
use vine_proto::{LibraryToWorker, WorkerToLibrary};

pub use vine_proto::{LibraryImage, LibrarySetup};

/// A running daemon: its thread and command channel.
pub struct LibraryHost {
    pub instance: LibraryInstanceId,
    /// Execution option used when an invocation does not specify one.
    pub default_mode: ExecMode,
    pub tx: Sender<WorkerToLibrary>,
    pub thread: Option<JoinHandle<()>>,
}

/// Boot a library daemon thread. Replies (Ready / StartupFailed /
/// ResultReady) flow to `events` tagged with the owning worker and
/// instance.
pub fn spawn_library(
    worker: WorkerId,
    image: LibraryImage,
    registry: ModuleRegistry,
    events: Sender<(WorkerId, LibraryInstanceId, LibraryToWorker)>,
) -> LibraryHost {
    let (tx, rx) = crossbeam::channel::unbounded::<WorkerToLibrary>();
    let instance = image.instance;
    let default_mode = image.default_mode;
    let thread = std::thread::Builder::new()
        .name(format!("library-{instance}"))
        .spawn(move || daemon_main(worker, image, registry, rx, events))
        .expect("spawn library thread");
    LibraryHost {
        instance,
        default_mode,
        tx,
        thread: Some(thread),
    }
}

fn daemon_main(
    worker: WorkerId,
    image: LibraryImage,
    registry: ModuleRegistry,
    rx: Receiver<WorkerToLibrary>,
    events: Sender<(WorkerId, LibraryInstanceId, LibraryToWorker)>,
) {
    let instance = image.instance;
    // §3.4 step 2: boot, reconstruct code, run all context setup, report.
    // Library daemons run on the bytecode VM: the compiled module is part
    // of the retained context, so every invocation skips tree-walking.
    let mut interp = Interp::with_registry(registry);
    interp.engine = Engine::Vm;
    let boot = (|| -> Result<(), String> {
        match &image.compiled {
            // the manager shipped a compiled image: boot without parsing
            // or compiling (decode errors fall back to the source text)
            Some(blob) => match vine_lang::bytecode::from_bytes(&blob.bytes) {
                Ok(top) => interp
                    .exec_compiled(&vine_lang::CompiledModule {
                        top,
                        source_digest: blob.source_digest,
                    })
                    .map_err(|e| format!("library source: {e}"))?,
                Err(_) => interp
                    .exec_source(&image.source)
                    .map_err(|e| format!("library source: {e}"))?,
            },
            None => interp
                .exec_source(&image.source)
                .map_err(|e| format!("library source: {e}"))?,
        }
        for blob in &image.serialized_functions {
            let def = pickle::deserialize_funcdef(blob).map_err(|e| format!("code object: {e}"))?;
            interp.bind_function(def);
        }
        if let Some(setup) = &image.setup {
            let args = pickle::deserialize_args(&setup.args_blob, &interp.globals)
                .map_err(|e| format!("setup args: {e}"))?;
            interp
                .call_global(&setup.function, &args)
                .map_err(|e| format!("context setup: {e}"))?;
        }
        Ok(())
    })();

    match boot {
        Ok(()) => {
            let _ = events.send((worker, instance, LibraryToWorker::Ready));
        }
        Err(error) => {
            let _ = events.send((worker, instance, LibraryToWorker::StartupFailed { error }));
            return;
        }
    }

    // §3.4 steps 3–4: serve invocations until shutdown
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerToLibrary::Shutdown => break,
            WorkerToLibrary::Invoke {
                id,
                function,
                args_blob,
                sandbox: _,
                mode,
            } => {
                let result = match mode {
                    ExecMode::Direct => run_direct(&mut interp, &function, &args_blob),
                    ExecMode::Fork => run_forked(&interp, &function, &args_blob),
                };
                let _ = events.send((
                    worker,
                    instance,
                    LibraryToWorker::ResultReady { id, result },
                ));
            }
        }
    }
}

/// Direct option: execute synchronously inside the daemon's own memory
/// space; invocations may mutate the shared context.
fn run_direct(interp: &mut Interp, function: &str, args_blob: &[u8]) -> Result<Vec<u8>, String> {
    let args = pickle::deserialize_args(args_blob, &interp.globals).map_err(|e| e.to_string())?;
    let out = interp
        .call_global(function, &args)
        .map_err(|e| e.to_string())?;
    pickle::serialize_value(&out).map_err(|e| e.to_string())
}

/// Fork option: the "child" gets a deep copy of the namespace (fork's
/// copy-on-write semantics) and runs on its own thread; mutations stay in
/// the child (§2.1.4: invocations "can freely mutate the environment in
/// its memory space" without corrupting the shared context).
fn run_forked(interp: &Interp, function: &str, args_blob: &[u8]) -> Result<Vec<u8>, String> {
    // snapshot the namespace: serializable state deep-clones; modules are
    // re-imported in the child from the same registry
    let mut modules = Vec::new();
    let mut parent_globals: Vec<(String, Value)> = Vec::new();
    for (k, v) in interp.globals.borrow().iter() {
        match v {
            Value::Module(m) => modules.push((k.clone(), m.name.clone())),
            Value::Native(_) => {}
            v => parent_globals.push((k.clone(), v.deep_clone())),
        }
    }
    // functions must be re-serialized so the child rebinds them to ITS
    // globals, not the parent's
    let mut plain = Vec::new();
    let mut funcs = Vec::new();
    for (k, v) in parent_globals {
        match &v {
            Value::Func(_) => funcs.push(pickle::serialize_value(&v).map_err(|e| e.to_string())?),
            _ => plain.push((k, pickle::serialize_value(&v).map_err(|e| e.to_string())?)),
        }
    }
    let registry = interp.registry().clone();
    let function = function.to_string();
    let args_blob = args_blob.to_vec();

    // Values are thread-local (Rc), so the "fork" moves only bytes —
    // exactly like a real fork boundary
    let child = std::thread::Builder::new()
        .name("library-fork".into())
        .spawn(move || -> Result<Vec<u8>, String> {
            let mut child_interp = Interp::with_registry(registry);
            child_interp.engine = Engine::Vm;
            for (k, name) in modules {
                let m = child_interp
                    .import_module(&name)
                    .map_err(|e| e.to_string())?;
                child_interp.set_global(k, m);
            }
            for (k, blob) in plain {
                let v = pickle::deserialize_value(&blob, &child_interp.globals)
                    .map_err(|e| e.to_string())?;
                child_interp.set_global(k, v);
            }
            for blob in funcs {
                let v = pickle::deserialize_value(&blob, &child_interp.globals)
                    .map_err(|e| e.to_string())?;
                if let Value::Func(f) = &v {
                    let name = f.def.name.clone();
                    if !name.is_empty() {
                        child_interp.set_global(name, v);
                    }
                }
            }
            let args = pickle::deserialize_args(&args_blob, &child_interp.globals)
                .map_err(|e| e.to_string())?;
            let out = child_interp
                .call_global(&function, &args)
                .map_err(|e| e.to_string())?;
            pickle::serialize_value(&out).map_err(|e| e.to_string())
        })
        .map_err(|e| format!("fork failed: {e}"))?;
    child
        .join()
        .map_err(|_| "forked invocation panicked".to_string())?
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        def context_setup(base) {
            global counter, offset
            counter = 0
            offset = base
        }
        def bump(x) {
            global counter
            counter = counter + 1
            return offset + counter + x
        }
        def read_counter() { return counter }
    "#;

    fn boot(
        mode: ExecMode,
    ) -> (
        LibraryHost,
        Receiver<(WorkerId, LibraryInstanceId, LibraryToWorker)>,
    ) {
        let (etx, erx) = crossbeam::channel::unbounded();
        let image = LibraryImage {
            instance: LibraryInstanceId(1),
            source: SRC.into(),
            serialized_functions: vec![],
            setup: Some(LibrarySetup {
                function: "context_setup".into(),
                args_blob: pickle::serialize_args(&[Value::Int(1000)]).unwrap(),
            }),
            default_mode: mode,
            compiled: None,
        };
        let host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
        match erx.recv().unwrap() {
            (_, _, LibraryToWorker::Ready) => {}
            other => panic!("expected Ready, got {other:?}"),
        }
        (host, erx)
    }

    fn invoke(
        host: &LibraryHost,
        erx: &Receiver<(WorkerId, LibraryInstanceId, LibraryToWorker)>,
        id: u64,
        function: &str,
        args: &[Value],
        mode: ExecMode,
    ) -> Result<Value, String> {
        host.tx
            .send(WorkerToLibrary::Invoke {
                id: vine_core::ids::InvocationId(id),
                function: function.into(),
                args_blob: pickle::serialize_args(args).unwrap(),
                sandbox: format!("sandbox/i{id}"),
                mode,
            })
            .unwrap();
        match erx.recv().unwrap() {
            (_, _, LibraryToWorker::ResultReady { result, .. }) => result.map(|blob| {
                let g = std::rc::Rc::new(std::cell::RefCell::new(Default::default()));
                pickle::deserialize_value(&blob, &g).unwrap()
            }),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn direct_mode_retains_state_across_invocations() {
        let (host, erx) = boot(ExecMode::Direct);
        // context setup ran once: offset=1000, counter=0
        let a = invoke(&host, &erx, 1, "bump", &[Value::Int(5)], ExecMode::Direct).unwrap();
        assert_eq!(a, Value::Int(1006)); // 1000 + 1 + 5
        let b = invoke(&host, &erx, 2, "bump", &[Value::Int(5)], ExecMode::Direct).unwrap();
        assert_eq!(b, Value::Int(1007), "counter retained between invocations");
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn fork_mode_isolates_mutation() {
        let (host, erx) = boot(ExecMode::Fork);
        let a = invoke(&host, &erx, 1, "bump", &[Value::Int(0)], ExecMode::Fork).unwrap();
        assert_eq!(a, Value::Int(1001));
        let b = invoke(&host, &erx, 2, "bump", &[Value::Int(0)], ExecMode::Fork).unwrap();
        assert_eq!(
            b,
            Value::Int(1001),
            "each fork sees the pristine parent context"
        );
        // the parent daemon's counter is untouched
        let c = invoke(&host, &erx, 3, "read_counter", &[], ExecMode::Direct).unwrap();
        assert_eq!(c, Value::Int(0));
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn forked_child_imports_the_parents_modules() {
        let mut registry = ModuleRegistry::new();
        registry.register_native("mathx", || {
            vec![vine_lang::modules::native("square", |args| {
                Ok(Value::Int(args[0].as_int()? * args[0].as_int()?))
            })]
        });
        let (etx, erx) = crossbeam::channel::unbounded();
        let image = LibraryImage {
            instance: LibraryInstanceId(3),
            source: "import mathx\ndef f(x) { return mathx.square(x) }".into(),
            serialized_functions: vec![],
            setup: None,
            default_mode: ExecMode::Fork,
            compiled: None,
        };
        let host = spawn_library(WorkerId(0), image, registry, etx);
        assert!(matches!(
            erx.recv().unwrap(),
            (_, _, LibraryToWorker::Ready)
        ));
        let out = invoke(&host, &erx, 1, "f", &[Value::Int(7)], ExecMode::Fork);
        assert_eq!(out, Ok(Value::Int(49)));
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn invocation_failure_does_not_kill_library() {
        let (host, erx) = boot(ExecMode::Direct);
        let err = invoke(&host, &erx, 1, "no_such_fn", &[], ExecMode::Direct).unwrap_err();
        assert!(err.contains("undefined"), "{err}");
        // the daemon still serves
        let ok = invoke(&host, &erx, 2, "bump", &[Value::Int(0)], ExecMode::Direct).unwrap();
        assert_eq!(ok, Value::Int(1001));
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn startup_failure_reports() {
        let (etx, erx) = crossbeam::channel::unbounded();
        let image = LibraryImage {
            instance: LibraryInstanceId(2),
            source: "import missing_module".into(),
            serialized_functions: vec![],
            setup: None,
            default_mode: ExecMode::Direct,
            compiled: None,
        };
        let host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
        match erx.recv().unwrap() {
            (_, _, LibraryToWorker::StartupFailed { error }) => {
                assert!(error.contains("missing_module"), "{error}");
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(host);
    }

    #[test]
    fn serialized_lambda_functions_bind_on_boot() {
        // a function with no source form travels as a code object
        let mut origin = Interp::new();
        origin
            .exec_source("def mystery(x) { return x * 41 + 1 }")
            .unwrap();
        let blob = pickle::serialize_value(&origin.get_global("mystery").unwrap()).unwrap();

        let (etx, erx) = crossbeam::channel::unbounded();
        let image = LibraryImage {
            instance: LibraryInstanceId(3),
            source: String::new(),
            serialized_functions: vec![match pickle::deserialize_value(&blob, &origin.globals)
                .unwrap()
            {
                Value::Func(f) => pickle::serialize_funcdef(&f.def),
                _ => unreachable!(),
            }],
            setup: None,
            default_mode: ExecMode::Direct,
            compiled: None,
        };
        let host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
        assert!(matches!(erx.recv().unwrap().2, LibraryToWorker::Ready));
        let out = invoke(
            &host,
            &erx,
            1,
            "mystery",
            &[Value::Int(2)],
            ExecMode::Direct,
        )
        .unwrap();
        assert_eq!(out, Value::Int(83));
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn compiled_image_boots_and_serves() {
        // ship bytecode alongside the source: the daemon must boot from
        // the image and behave exactly like a source boot
        let prog = vine_lang::parse(SRC).unwrap();
        let module = vine_lang::compile_module(&prog, SRC);
        let (etx, erx) = crossbeam::channel::unbounded();
        let image = LibraryImage {
            instance: LibraryInstanceId(4),
            source: SRC.into(),
            serialized_functions: vec![],
            setup: Some(LibrarySetup {
                function: "context_setup".into(),
                args_blob: pickle::serialize_args(&[Value::Int(1000)]).unwrap(),
            }),
            default_mode: ExecMode::Direct,
            compiled: Some(vine_proto::CompiledBlob {
                source_digest: module.source_digest,
                bytes: module.to_bytes(),
            }),
        };
        let host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
        assert!(matches!(erx.recv().unwrap().2, LibraryToWorker::Ready));
        let a = invoke(&host, &erx, 1, "bump", &[Value::Int(5)], ExecMode::Direct).unwrap();
        assert_eq!(a, Value::Int(1006));
        let b = invoke(&host, &erx, 2, "bump", &[Value::Int(5)], ExecMode::Direct).unwrap();
        assert_eq!(b, Value::Int(1007), "retained context, VM engine");
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn corrupt_compiled_image_falls_back_to_source() {
        let (etx, erx) = crossbeam::channel::unbounded();
        let image = LibraryImage {
            instance: LibraryInstanceId(5),
            source: SRC.into(),
            serialized_functions: vec![],
            setup: Some(LibrarySetup {
                function: "context_setup".into(),
                args_blob: pickle::serialize_args(&[Value::Int(1000)]).unwrap(),
            }),
            default_mode: ExecMode::Direct,
            compiled: Some(vine_proto::CompiledBlob {
                source_digest: vine_core::ids::ContentHash::of_str(SRC),
                bytes: vec![0xde, 0xad],
            }),
        };
        let host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
        assert!(matches!(erx.recv().unwrap().2, LibraryToWorker::Ready));
        let a = invoke(&host, &erx, 1, "bump", &[Value::Int(5)], ExecMode::Direct).unwrap();
        assert_eq!(a, Value::Int(1006));
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }
}
