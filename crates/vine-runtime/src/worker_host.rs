//! The worker engine: relays manager protocol messages to library daemons
//! and runs stateless tasks, mirroring the paper's worker process.
//!
//! The engine speaks [`vine_proto`] on both sides and is substrate-blind:
//! the in-process transport feeds it from channels, the TCP worker agent
//! feeds it from a framed socket — same loop, same semantics.

use crate::library_host::{spawn_library, LibraryHost};
use crossbeam::channel::{Receiver, Sender};
use std::collections::BTreeMap;
use std::thread::JoinHandle;
use vine_core::context::CodeArtifact;
use vine_core::ids::{LibraryInstanceId, WorkerId};
use vine_core::task::{Outcome, TaskSpec, UnitId, WorkUnit};
use vine_data::CompiledImageStore;
use vine_lang::pickle;
use vine_lang::{Interp, ModuleRegistry};
use vine_proto::{
    CompiledBlob, LibraryToWorker, ManagerToWorker, WorkerToLibrary, WorkerToManager,
};

/// Handle to a spawned in-process worker engine.
pub struct WorkerHandle {
    pub id: WorkerId,
    pub tx: Sender<ManagerToWorker>,
    pub thread: Option<JoinHandle<()>>,
}

/// Spawn a worker engine on its own thread (the in-process backend).
/// Everything the worker tells the manager arrives on `events`, tagged
/// with the worker's id.
pub fn spawn_worker(
    id: WorkerId,
    registry: ModuleRegistry,
    events: Sender<(WorkerId, WorkerToManager)>,
) -> WorkerHandle {
    let (tx, rx) = crossbeam::channel::unbounded::<ManagerToWorker>();
    let thread = std::thread::Builder::new()
        .name(format!("worker-{id}"))
        .spawn(move || worker_engine(id, registry, rx, events))
        .expect("spawn worker thread");
    WorkerHandle {
        id,
        tx,
        thread: Some(thread),
    }
}

/// The worker's command loop: serve [`ManagerToWorker`] messages until
/// `Shutdown` (or the command stream closes), reporting back through
/// `events`. Identical for both transports.
pub fn worker_engine(
    id: WorkerId,
    registry: ModuleRegistry,
    rx: Receiver<ManagerToWorker>,
    events: Sender<(WorkerId, WorkerToManager)>,
) {
    let (lib_tx, lib_rx) =
        crossbeam::channel::unbounded::<(WorkerId, LibraryInstanceId, LibraryToWorker)>();
    let mut libraries: BTreeMap<LibraryInstanceId, LibraryHost> = BTreeMap::new();
    let mut task_threads: Vec<JoinHandle<()>> = Vec::new();
    let mut images = CompiledImageStore::new();

    loop {
        crossbeam::channel::select! {
            recv(rx) -> cmd => {
                let Ok(cmd) = cmd else { break };
                match cmd {
                    ManagerToWorker::Welcome { .. } => {
                        // handshake concern; the transport consumed it
                        // already, a stray copy is harmless
                    }
                    ManagerToWorker::InstallLibrary { mut image, stage: _ } => {
                        // the in-process substrate shares one filesystem,
                        // so staged context files are already local; the
                        // directive matters to remote data planes
                        if let Some(CompiledBlob { source_digest, bytes }) = image.compiled.take() {
                            // intern shipped bytecode by source digest so N
                            // instances of one library hold one copy and a
                            // re-install after eviction is a map hit
                            let interned = images.intern_with(source_digest, || bytes);
                            image.compiled = Some(CompiledBlob {
                                source_digest,
                                bytes: (*interned).clone(),
                            });
                        }
                        let host = spawn_library(id, image, registry.clone(), lib_tx.clone());
                        libraries.insert(host.instance, host);
                    }
                    ManagerToWorker::RemoveLibrary { instance } => {
                        if let Some(mut host) = libraries.remove(&instance) {
                            let _ = host.tx.send(WorkerToLibrary::Shutdown);
                            if let Some(t) = host.thread.take() {
                                let _ = t.join();
                            }
                        }
                    }
                    ManagerToWorker::Invoke { instance, call } => {
                        match libraries.get(&instance) {
                            Some(host) => {
                                // the invocation's option wins; otherwise
                                // the library's default (§3.4 step 4)
                                let mode = call.exec_mode.unwrap_or(host.default_mode);
                                let _ = host.tx.send(WorkerToLibrary::Invoke {
                                    id: call.id,
                                    function: call.function.clone(),
                                    args_blob: call.args_blob.clone(),
                                    sandbox: format!("sandbox/{}", call.id),
                                    mode,
                                });
                            }
                            None => {
                                // eviction race: the instance vanished
                                // between dispatch and arrival — not the
                                // invocation's fault, hand it back
                                let _ = events.send((id, WorkerToManager::Requeue {
                                    unit: WorkUnit::Call(call),
                                }));
                            }
                        }
                    }
                    ManagerToWorker::RunTask { task, stage: _ } => {
                        // each task gets its own thread — stateless tasks on
                        // one worker run concurrently, like separate processes
                        let events = events.clone();
                        let registry = registry.clone();
                        let t = std::thread::Builder::new()
                            .name(format!("task-{}", task.id))
                            .spawn(move || {
                                let outcome = execute_task(&task, registry);
                                let _ = events.send((id, WorkerToManager::UnitDone { outcome }));
                            })
                            .expect("spawn task thread");
                        // an exited thread keeps its stack until it is
                        // joined: join finished ones now, not at shutdown
                        for done in task_threads.extract_if(.., |t| t.is_finished()) {
                            let _ = done.join();
                        }
                        task_threads.push(t);
                    }
                    ManagerToWorker::Shutdown => break,
                }
            }
            recv(lib_rx) -> msg => {
                let Ok((_, instance, msg)) = msg else { break };
                let reply = match msg {
                    LibraryToWorker::Ready => WorkerToManager::LibraryReady { instance },
                    LibraryToWorker::StartupFailed { error } => {
                        WorkerToManager::LibraryFailed { instance, error }
                    }
                    LibraryToWorker::ResultReady { id: call_id, result } => {
                        WorkerToManager::UnitDone {
                            outcome: match result {
                                Ok(blob) => Outcome::ok(UnitId::Call(call_id), blob),
                                Err(e) => Outcome::failed(UnitId::Call(call_id), e),
                            },
                        }
                    }
                };
                let _ = events.send((id, reply));
            }
        }
    }

    // drain: stop libraries, join task threads
    for (_, mut host) in libraries {
        let _ = host.tx.send(WorkerToLibrary::Shutdown);
        if let Some(t) = host.thread.take() {
            let _ = t.join();
        }
    }
    for t in task_threads {
        let _ = t.join();
    }
}

/// Run a stateless task: fresh interpreter, reconstruct shipped code,
/// execute, serialize the result — the full context reload the paper's
/// L1/L2 levels pay per execution.
pub fn execute_task(task: &TaskSpec, registry: ModuleRegistry) -> Outcome {
    let unit = UnitId::Task(task.id);
    let mut interp = Interp::with_registry(registry);
    for artifact in &task.code {
        let result = match artifact {
            CodeArtifact::Source { text, .. } => interp.exec_source(text),
            CodeArtifact::Serialized { blob, .. } => {
                pickle::deserialize_funcdef(blob).map(|def| interp.bind_function(def))
            }
        };
        if let Err(e) = result {
            return Outcome::failed(unit, format!("reconstructing {}: {e}", artifact.name()));
        }
    }
    let Some(function) = &task.function else {
        // a pure side-effect task: success is having executed the code
        return Outcome::ok(unit, Vec::new());
    };
    let args = match pickle::deserialize_args(&task.args_blob, &interp.globals) {
        Ok(a) => a,
        Err(e) => return Outcome::failed(unit, format!("arguments: {e}")),
    };
    match interp.call_global(function, &args) {
        Ok(value) => match pickle::serialize_value(&value) {
            Ok(blob) => Outcome::ok(unit, blob),
            Err(e) => Outcome::failed(unit, format!("result serialization: {e}")),
        },
        Err(e) => Outcome::failed(unit, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_core::ids::TaskId;
    use vine_lang::Value;

    #[test]
    fn execute_task_reconstructs_and_runs() {
        let mut task = TaskSpec::new(TaskId(1), "t");
        task.code = vec![CodeArtifact::Source {
            name: "f".into(),
            text: "def f(a, b) { return a * b }".into(),
        }];
        task.function = Some("f".into());
        task.args_blob = pickle::serialize_args(&[Value::Int(6), Value::Int(7)]).unwrap();
        let outcome = execute_task(&task, ModuleRegistry::new());
        assert!(outcome.success, "{:?}", outcome.error);
        let g = std::rc::Rc::new(std::cell::RefCell::new(Default::default()));
        assert_eq!(
            pickle::deserialize_value(&outcome.result_blob, &g).unwrap(),
            Value::Int(42)
        );
    }

    #[test]
    fn execute_task_reports_failures() {
        // bad source
        let mut task = TaskSpec::new(TaskId(1), "t");
        task.code = vec![CodeArtifact::Source {
            name: "f".into(),
            text: "def f( {".into(),
        }];
        assert!(!execute_task(&task, ModuleRegistry::new()).success);

        // missing function
        let mut task = TaskSpec::new(TaskId(2), "t");
        task.function = Some("ghost".into());
        task.args_blob = pickle::serialize_args(&[]).unwrap();
        let o = execute_task(&task, ModuleRegistry::new());
        assert!(!o.success);
        assert!(o.error.unwrap().contains("undefined"));

        // runtime error inside the function
        let mut task = TaskSpec::new(TaskId(3), "t");
        task.code = vec![CodeArtifact::Source {
            name: "f".into(),
            text: "def f() { return 1 / 0 }".into(),
        }];
        task.function = Some("f".into());
        task.args_blob = pickle::serialize_args(&[]).unwrap();
        let o = execute_task(&task, ModuleRegistry::new());
        assert!(!o.success);
        assert!(o.error.unwrap().contains("division by zero"));
    }

    #[test]
    fn pure_code_task_succeeds_without_function() {
        let mut task = TaskSpec::new(TaskId(4), "t");
        task.code = vec![CodeArtifact::Source {
            name: "m".into(),
            text: "x = 1 + 1".into(),
        }];
        assert!(execute_task(&task, ModuleRegistry::new()).success);
    }

    #[test]
    fn invoke_for_missing_instance_requeues() {
        let (etx, erx) = crossbeam::channel::unbounded();
        let h = spawn_worker(WorkerId(3), ModuleRegistry::new(), etx);
        let call = vine_core::task::FunctionCall::new(
            vine_core::ids::InvocationId(9),
            "ghostlib",
            "f",
            vec![],
        );
        h.tx.send(ManagerToWorker::Invoke {
            instance: LibraryInstanceId(404),
            call: call.clone(),
        })
        .unwrap();
        let (worker, msg) = erx.recv().unwrap();
        assert_eq!(worker, WorkerId(3));
        assert_eq!(
            msg,
            WorkerToManager::Requeue {
                unit: WorkUnit::Call(call)
            }
        );
        h.tx.send(ManagerToWorker::Shutdown).unwrap();
    }
}
