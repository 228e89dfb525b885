//! The live runtime: the same [`vine_manager::Manager`] brain driving real
//! workers through a pluggable [`Transport`] — threads-and-channels in
//! process, or framed TCP to workers in other OS processes.

use crate::transport::{InProcTransport, RecvError, Transport, TransportEvent, TransportStats};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use vine_core::context::LibrarySpec;
use vine_core::ids::{ContentHash, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, Outcome, UnitId, WorkUnit};
use vine_core::{Result, VineError};
use vine_data::CompiledImageStore;
use vine_lang::pickle;
use vine_lang::{ModuleRegistry, Value};
use vine_manager::{Decision, Manager};
use vine_proto::{
    CompiledBlob, Frame, LibraryImage, LibrarySetup, ManagerToWorker, WorkerToManager,
};

/// Live cluster configuration.
#[derive(Clone)]
pub struct RuntimeConfig {
    pub workers: usize,
    pub worker_resources: Resources,
    /// Modules available on workers (the activated environment).
    pub registry: ModuleRegistry,
    /// Give up if the cluster makes no progress for this long.
    pub idle_timeout: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            worker_resources: Resources::new(8, 16 * 1024, 16 * 1024),
            registry: ModuleRegistry::new(),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

struct LibraryTemplate {
    source: String,
    serialized_functions: Vec<Vec<u8>>,
    setup_args_blob: Option<Vec<u8>>,
    mode: ExecMode,
    /// Parameter count per exported function, for submit-time validation.
    arities: BTreeMap<String, usize>,
    /// Bytecode compiled from `source` at install time (content-addressed
    /// by source digest), shipped inside every image of this library.
    compiled: Option<CompiledBlob>,
}

/// A live cluster: manager in this struct, workers wherever the transport
/// put them.
pub struct Runtime {
    mgr: Manager,
    transport: Box<dyn Transport>,
    /// Workers currently admitted; guards double-processing of a leave
    /// observed both by an explicit kill and by the transport.
    connected: BTreeSet<WorkerId>,
    templates: BTreeMap<String, LibraryTemplate>,
    in_flight: BTreeMap<UnitId, WorkUnit>,
    outcomes: Vec<Outcome>,
    /// Wall-clock per completed unit (dispatch → result), for the live
    /// Table 2 measurements.
    pub unit_durations: Vec<(UnitId, Duration)>,
    dispatch_times: BTreeMap<UnitId, Instant>,
    idle_timeout: Duration,
    /// Module names the workers' activated environment provides, retained
    /// for install-time pre-flight analysis.
    module_names: BTreeSet<String>,
    /// Capacity of each admitted worker, retained for placement pre-flight.
    worker_caps: Vec<Resources>,
    /// Units re-admitted after a worker loss or an explicit worker-side
    /// requeue — the load-report counter a federated shard exposes.
    requeues: u64,
    /// Compiled library images interned by source digest: installing the
    /// same source N times (or into N workers) compiles once.
    images: CompiledImageStore,
}

impl Runtime {
    /// Boot a cluster of in-process worker threads (the historical — and
    /// still default — substrate).
    pub fn new(cfg: RuntimeConfig) -> Runtime {
        let transport =
            InProcTransport::new(cfg.workers, cfg.worker_resources, cfg.registry.clone());
        Runtime::with_transport(cfg, Box::new(transport))
            .expect("in-process workers join instantly")
    }

    /// Boot a cluster over any transport. Blocks until `cfg.workers`
    /// workers have joined (for TCP: until that many dialed in), failing
    /// with [`VineError::Timeout`] after `cfg.idle_timeout`.
    pub fn with_transport(cfg: RuntimeConfig, transport: Box<dyn Transport>) -> Result<Runtime> {
        let module_names: BTreeSet<String> = cfg.registry.names().map(|n| n.to_string()).collect();
        let mut rt = Runtime {
            mgr: Manager::new(),
            transport,
            connected: BTreeSet::new(),
            templates: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            outcomes: Vec::new(),
            unit_durations: Vec::new(),
            dispatch_times: BTreeMap::new(),
            idle_timeout: cfg.idle_timeout,
            module_names,
            worker_caps: Vec::new(),
            requeues: 0,
            images: CompiledImageStore::new(),
        };
        while rt.connected.len() < cfg.workers {
            let joined = rt.connected.len();
            let ev = rt.transport.recv_timeout(rt.idle_timeout).map_err(|_| {
                VineError::Timeout(format!(
                    "waiting for {} worker(s) to join, {} joined",
                    cfg.workers, joined
                ))
            })?;
            rt.handle(ev)?;
        }
        Ok(rt)
    }

    /// Register a library: the spec (for the scheduler) plus what workers
    /// need to boot it — module source, serialized code objects, and
    /// context-setup arguments (Fig 5's `create_library_from_functions` +
    /// `install_library`).
    ///
    /// Runs the `vine-lint` pre-flight first: a library that would only
    /// fail after its context shipped to workers is rejected here instead
    /// (hard errors return [`VineError::Lint`]; warnings are logged to
    /// stderr and installation proceeds).
    pub fn install_library(
        &mut self,
        spec: LibrarySpec,
        source: &str,
        serialized_functions: Vec<Vec<u8>>,
        setup_args: &[Value],
    ) -> Result<()> {
        // recover names and arities from serialized code objects, so the
        // linter and submit-time validation see them like source defs
        let mut arities: BTreeMap<String, usize> = BTreeMap::new();
        let mut serialized_names = Vec::with_capacity(serialized_functions.len());
        for blob in &serialized_functions {
            let def = pickle::deserialize_funcdef(blob)?;
            serialized_names.push(def.name.clone());
            arities.insert(def.name.clone(), def.params.len());
        }
        let pre = vine_lint::LibraryPreflight {
            available_modules: self.module_names.clone(),
            declared_deps: None,
            workers: self.worker_caps.clone(),
            serialized_functions: serialized_names,
            setup_argc: spec.context.setup.as_ref().map(|_| setup_args.len()),
        };
        let report = vine_lint::lint_library(&spec, source, &pre);
        if report.has_errors() {
            return Err(VineError::Lint(report.render()));
        }
        if !report.is_clean() {
            eprintln!("{}", report.render());
        }
        let mut compiled = None;
        if !source.is_empty() {
            if let Ok(prog) = vine_lang::parse(source) {
                for s in &prog {
                    if let vine_lang::ast::StmtKind::FuncDef(f) = &s.kind {
                        arities.insert(f.name.clone(), f.params.len());
                    }
                }
                // compile-on-install: the image is context computed once on
                // the manager, content-addressed by the source digest
                let digest = ContentHash::of_str(source);
                let bytes = self.images.intern_with(digest, || {
                    vine_lang::compile_module(&prog, source).to_bytes()
                });
                compiled = Some(CompiledBlob {
                    source_digest: digest,
                    bytes: (*bytes).clone(),
                });
            }
        }
        arities.retain(|name, _| spec.hosts_function(name));
        let setup_args_blob = if spec.context.setup.is_some() {
            Some(pickle::serialize_args(setup_args)?)
        } else {
            None
        };
        self.templates.insert(
            spec.name.clone(),
            LibraryTemplate {
                source: source.to_string(),
                serialized_functions,
                setup_args_blob,
                mode: spec.exec_mode,
                arities,
                compiled,
            },
        );
        self.mgr.register_library(spec);
        Ok(())
    }

    /// Install a library by *discovering* its context from a plain module:
    /// the flow analysis ([`vine_flow::discover`]) classifies module-level
    /// statements as invocation-invariant context (hoisted into a
    /// synthesized `context_setup`) or per-instance residue, and this
    /// method wires the result into the spec — setup function, code, and a
    /// boot wrapper that replays the residue after setup when there is any.
    ///
    /// The user writes the module exactly as they would for local
    /// execution; the paper's §6 "seamless discovery" is this call. The
    /// shipped program is the same construction the differential proptest
    /// in `vine-flow` holds to bit-identical execution: setup definition,
    /// every module function, boot, residue in original order.
    pub fn install_library_auto(
        &mut self,
        mut spec: LibrarySpec,
        module_src: &str,
        work_functions: &[&str],
    ) -> Result<vine_flow::FlowDiscovery> {
        let flow = vine_flow::discover(module_src, work_functions)?;
        let ctx = &flow.context;

        let mut source = String::new();
        source.push_str(&ctx.setup_source);
        // ship every module function, not just the transitively needed set
        // in `code_source`: residue statements may call helpers the work
        // functions never touch
        let prog = vine_lang::parse(module_src)?;
        for s in &prog {
            if let vine_lang::ast::StmtKind::FuncDef(f) = &s.kind {
                source.push_str(&vine_lang::inspect::format_funcdef(f));
            }
        }
        let setup_fn = if ctx.residue.is_empty() {
            "context_setup".to_string()
        } else {
            // residue re-runs per library instance, inside a wrapper that
            // publishes whatever the residue writes back to the namespace
            source.push_str("def __auto_boot() {\n");
            if !flow.residue_publishes.is_empty() {
                source.push_str(&format!(
                    "    global {}\n",
                    flow.residue_publishes.join(", ")
                ));
            }
            source.push_str("    context_setup()\n");
            for r in &ctx.residue {
                for line in r.lines() {
                    source.push_str("    ");
                    source.push_str(line);
                    source.push('\n');
                }
            }
            source.push_str("}\n");
            "__auto_boot".to_string()
        };

        if spec.functions.is_empty() {
            spec.functions = work_functions.iter().map(|s| s.to_string()).collect();
        }
        spec.context.setup = Some(vine_core::context::SetupSpec {
            function: setup_fn,
            args_blob: pickle::serialize_args(&[])?,
        });
        self.install_library(spec, &source, vec![], &[])?;
        Ok(flow)
    }

    /// Parameter count of an installed library's exported function, when
    /// known. `None` means the library or function is not installed.
    pub fn function_arity(&self, library: &str, function: &str) -> Option<usize> {
        self.templates.get(library)?.arities.get(function).copied()
    }

    /// Arity map of every installed library, in the shape
    /// [`vine_lint::lint_dag`] consumes: library → function → params.
    pub fn library_arities(&self) -> BTreeMap<String, BTreeMap<String, usize>> {
        self.templates
            .iter()
            .map(|(name, t)| (name.clone(), t.arities.clone()))
            .collect()
    }

    /// Capacity of each worker in the cluster (placement pre-flight input).
    pub fn worker_capacities(&self) -> &[Resources] {
        &self.worker_caps
    }

    pub fn submit(&mut self, unit: WorkUnit) {
        self.mgr.submit(unit);
    }

    /// Kill a worker (fault injection): its thread or connection is torn
    /// down; running units are requeued and rescheduled elsewhere.
    pub fn kill_worker(&mut self, id: WorkerId) {
        self.transport.disconnect(id);
        self.worker_left(id);
    }

    /// A worker is gone (kill, crash, disconnect, or dropped for breaking
    /// the protocol): tell the manager and requeue everything that was in
    /// flight there. A worker already gone is a no-op, so a leave observed
    /// twice (say, by an explicit kill and by the transport) counts once.
    fn worker_left(&mut self, id: WorkerId) {
        if !self.connected.remove(&id) {
            return;
        }
        let lost = self.mgr.worker_left(id);
        for unit in lost {
            if let Some(w) = self.in_flight.remove(&unit) {
                self.dispatch_times.remove(&unit);
                self.requeues += 1;
                self.mgr.requeue(w);
            }
        }
    }

    /// Drive the cluster until the *next* unit completes, returning its
    /// outcome — `Ok(None)` once everything is done. This is the primitive
    /// a dataflow layer needs: it can submit newly unblocked work between
    /// completions (the paper's Parsl integration receives "an arbitrary
    /// stream of function invocations", §3.6).
    pub fn run_next(&mut self) -> Result<Option<Outcome>> {
        loop {
            self.pump()?;
            if let Some(o) = self.outcomes.pop() {
                return Ok(Some(o));
            }
            if self.mgr.is_idle() {
                return Ok(None);
            }
            self.wait_for_event()?;
        }
    }

    /// Drive scheduling and execution until every submitted unit has a
    /// result. Returns the outcomes accumulated since the last call.
    pub fn run_until_idle(&mut self) -> Result<Vec<Outcome>> {
        loop {
            self.pump()?;
            if self.mgr.is_idle() {
                break;
            }
            self.wait_for_event()?;
        }
        Ok(std::mem::take(&mut self.outcomes))
    }

    /// Block for the next transport event, then drain whatever else is
    /// already queued.
    fn wait_for_event(&mut self) -> Result<()> {
        let ev = self
            .transport
            .recv_timeout(self.idle_timeout)
            .map_err(|e| match e {
                RecvError::Timeout => VineError::Timeout(format!(
                    "no progress for {:?} with {} unit(s) outstanding",
                    self.idle_timeout,
                    self.mgr.pending()
                )),
                RecvError::Closed => {
                    VineError::Internal("transport event stream closed".to_string())
                }
            })?;
        self.handle(ev)?;
        while let Some(ev) = self.transport.try_recv() {
            self.handle(ev)?;
        }
        Ok(())
    }

    /// Emit and realize scheduling decisions until the manager rests.
    fn pump(&mut self) -> Result<()> {
        while let Some(d) = self.mgr.next_decision() {
            match d {
                Decision::InstallLibrary {
                    worker,
                    instance,
                    spec,
                    missing,
                } => {
                    let template = self.templates.get(&spec.name).ok_or_else(|| {
                        VineError::Internal(format!("no template for library {}", spec.name))
                    })?;
                    let image = LibraryImage {
                        instance,
                        source: template.source.clone(),
                        serialized_functions: template.serialized_functions.clone(),
                        setup: spec.context.setup.as_ref().map(|s| LibrarySetup {
                            function: s.function.clone(),
                            args_blob: template
                                .setup_args_blob
                                .clone()
                                .unwrap_or_else(|| s.args_blob.clone()),
                        }),
                        default_mode: template.mode,
                        compiled: template.compiled.clone(),
                    };
                    // the image (source + serialized functions + compiled
                    // bytecode) is the heaviest payload in the system:
                    // encode it once, hand the transport shared bytes
                    let frame = Frame::encode_once(ManagerToWorker::InstallLibrary {
                        image,
                        stage: missing,
                    })
                    .map_err(|e| VineError::Protocol(format!("encoding install: {e}")))?;
                    self.send_frame(worker, &frame)?;
                }
                Decision::EvictLibrary {
                    worker, instance, ..
                } => {
                    self.send(worker, ManagerToWorker::RemoveLibrary { instance })?;
                }
                Decision::DispatchCall {
                    worker,
                    library,
                    call,
                } => {
                    let unit = UnitId::Call(call.id);
                    self.dispatch_times.insert(unit, Instant::now());
                    self.in_flight.insert(unit, WorkUnit::Call(call.clone()));
                    self.send(
                        worker,
                        ManagerToWorker::Invoke {
                            instance: library,
                            call,
                        },
                    )?;
                }
                Decision::DispatchTask {
                    worker,
                    task,
                    missing,
                } => {
                    let unit = UnitId::Task(task.id);
                    self.dispatch_times.insert(unit, Instant::now());
                    self.in_flight.insert(unit, WorkUnit::Task(task.clone()));
                    self.send(
                        worker,
                        ManagerToWorker::RunTask {
                            task,
                            stage: missing,
                        },
                    )?;
                }
                Decision::Fail { unit, error } => {
                    self.outcomes.push(Outcome::failed(unit, error));
                }
            }
        }
        Ok(())
    }

    /// Deliver one message; a worker found dead mid-send flows into the
    /// same leave-and-requeue path as an observed disconnect, and the
    /// decision that targeted it is re-made on the survivors.
    fn send(&mut self, worker: WorkerId, msg: ManagerToWorker) -> Result<()> {
        let sent = self.transport.send(worker, msg);
        self.sent(sent)
    }

    /// [`Runtime::send`] for a pre-encoded frame: same lost-worker
    /// handling, but the transport ships shared bytes instead of
    /// re-serializing the message.
    fn send_frame(&mut self, worker: WorkerId, frame: &Frame) -> Result<()> {
        let sent = self.transport.send_frame(worker, frame);
        self.sent(sent)
    }

    /// Route a send result: a lost worker flows into the leave-and-requeue
    /// path rather than failing the run.
    fn sent(&mut self, result: Result<()>) -> Result<()> {
        match result {
            Ok(()) => Ok(()),
            Err(VineError::WorkerLost(w)) => {
                self.worker_left(w);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn handle(&mut self, ev: TransportEvent) -> Result<()> {
        match ev {
            TransportEvent::Joined { worker, resources } => {
                if self.connected.insert(worker) {
                    self.mgr.worker_joined(worker, resources);
                    self.worker_caps.push(resources);
                }
            }
            TransportEvent::Left { worker } => self.worker_left(worker),
            TransportEvent::Message { worker, msg } => {
                if !self.connected.contains(&worker) {
                    // stragglers from a worker we already gave up on
                    return Ok(());
                }
                let violation = match msg {
                    WorkerToManager::LibraryReady { instance } => {
                        self.mgr.library_ready(worker, instance).err()
                    }
                    WorkerToManager::LibraryFailed { instance, error: _ } => {
                        self.mgr.library_startup_failed(worker, instance).err()
                    }
                    WorkerToManager::UnitDone { outcome } => {
                        let unit = outcome.unit;
                        // only the worker the unit is placed on may finish
                        // it: anything else is a stale result (the unit was
                        // requeued and will run again) or a forgery
                        if !self.placed_on(unit, worker) || self.in_flight.remove(&unit).is_none() {
                            return Ok(());
                        }
                        if let Some(at) = self.dispatch_times.remove(&unit) {
                            self.unit_durations.push((unit, at.elapsed()));
                        }
                        self.mgr.unit_finished(unit)?;
                        self.outcomes.push(outcome);
                        None
                    }
                    WorkerToManager::Requeue { unit } => {
                        let id = match &unit {
                            WorkUnit::Call(c) => UnitId::Call(c.id),
                            WorkUnit::Task(t) => UnitId::Task(t.id),
                        };
                        if self.placed_on(id, worker) && self.in_flight.remove(&id).is_some() {
                            self.dispatch_times.remove(&id);
                            self.mgr.unit_finished(id)?;
                            self.requeues += 1;
                            self.mgr.requeue(unit);
                        }
                        None
                    }
                    WorkerToManager::Leave => {
                        self.transport.disconnect(worker);
                        self.worker_left(worker);
                        None
                    }
                    // joins are transport-level handshakes; a repeat on an
                    // admitted connection is a protocol violation
                    WorkerToManager::Join { .. } => Some(VineError::Protocol(format!(
                        "unexpected Join from admitted worker {worker}"
                    ))),
                };
                // a worker that breaks the protocol is dropped as if it had
                // left: its in-flight units requeue and the run goes on
                if let Some(e) = violation {
                    eprintln!("dropping worker {worker}: {e}");
                    self.transport.disconnect(worker);
                    self.worker_left(worker);
                }
            }
        }
        Ok(())
    }

    /// Whether the manager placed `unit` on `worker`.
    fn placed_on(&self, unit: UnitId, worker: WorkerId) -> bool {
        self.mgr
            .placement_of(unit)
            .is_some_and(|p| p.worker == worker)
    }

    /// Hit/miss counters of the manager's compiled-image store: misses are
    /// actual compiles, hits are installs that reused a retained image.
    pub fn compiled_image_stats(&self) -> vine_data::images::ImageStoreStats {
        self.images.stats()
    }

    /// Deployed library instances and their share values (live Fig 11).
    pub fn library_share_values(&self) -> Vec<(WorkerId, u64)> {
        self.mgr.instances().map(|(w, l)| (w, l.served)).collect()
    }

    /// A snapshot of the transport's per-worker traffic counters (byte
    /// counters are zero for backends without a wire).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Units admitted but not yet dispatched (a load-report input).
    pub fn queued(&self) -> usize {
        self.mgr.queued()
    }

    /// Units currently dispatched to workers (a load-report input).
    pub fn running(&self) -> usize {
        self.mgr.running_count()
    }

    /// Units re-admitted after worker loss since boot (a load-report
    /// counter).
    pub fn requeues(&self) -> u64 {
        self.requeues
    }

    /// Shut the cluster down, stopping every worker.
    pub fn shutdown(mut self) {
        self.transport.shutdown();
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.transport.shutdown();
    }
}

/// Decode an outcome's result blob into a value (application-side helper).
pub fn decode_result(outcome: &Outcome) -> Result<Value> {
    if !outcome.success {
        return Err(VineError::ExecutionFailed(
            outcome.error.clone().unwrap_or_default(),
        ));
    }
    let globals = std::rc::Rc::new(std::cell::RefCell::new(BTreeMap::new()));
    pickle::deserialize_value(&outcome.result_blob, &globals)
}
