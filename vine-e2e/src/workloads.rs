//! The four workloads: what each runs, in which phases, and how its
//! measurements become metrics.
//!
//! Every timed phase is split into rounds, and each end-to-end figure is
//! the median of its per-round values: a burst of noise from the host
//! spoils one round, not the run. A replay that finds a wrong result
//! fails the run.

use crate::apps::{candidate_list, Shape, Stream};
use crate::gen::{self, ExamolGraph};
use crate::live::{self, LoopResult, LoopSpec, Substrate, Tally};
use crate::proc::{self, Role, ThreadLedger};
use crate::replay;
use crate::report::Values;
use crate::stats::{self, MIN_TAIL_SAMPLES};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use vine_dag::{App, Arg, NodeId};
use vine_lang::{pickle, Value};

/// Rounds per run, each on a fresh cluster.
const ROUNDS: usize = 20;
/// Outstanding units in the saturating phase: twice the 4 library slots
/// (2 workers × 1 instance × 2 slots).
const SATURATING_DEPTH: usize = 8;
/// The serial caller's longest think time: two worker poll periods.
const SERIAL_THINK: Duration = Duration::from_micros(200);
/// Units and outcomes of the first round a traced run keeps for the
/// replays.
const KEEP_FOR_REPLAY: usize = 2000;

/// One run's measurements.
pub struct Measured {
    pub values: Values,
    /// Units per phase: attempted, succeeded, failed, mismatched.
    pub phases: Vec<(&'static str, Tally)>,
    /// Span summary of a traced run.
    pub spans: String,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            values: Values::new(),
            phases: Vec::new(),
            spans: String::new(),
        }
    }

    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for (_, p) in &self.phases {
            t.add(*p);
        }
        t
    }

    pub fn correct(&self) -> bool {
        self.tally().mismatched == 0
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

fn share(seconds: f64, fraction: f64) -> Duration {
    Duration::from_secs_f64(seconds * fraction)
}

/// The median over rounds of a per-round figure.
fn median_over<T>(
    rounds: &mut [T],
    mut f: impl FnMut(&mut T) -> Result<f64, String>,
) -> Result<f64, String> {
    let mut per_round = rounds
        .iter_mut()
        .map(&mut f)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(stats::median(&mut per_round))
}

/// Per-role CPU and run-queue time over a ledger window.
fn role_times(m: &mut Measured, ledger: &ThreadLedger, wall_s: f64) {
    let driver = ledger.role(Role::Driver);
    m.set("runtime.driver_cpu_frac", driver.cpu_s / wall_s);
    m.set("driver.runq_wait_s", driver.runq_s);
    for (role, cpu, runq) in [
        (Role::Worker, "worker.cpu_s", "worker.runq_wait_s"),
        (Role::Library, "library.cpu_s", "library.runq_wait_s"),
        (Role::Reactor, "reactor.cpu_s", "reactor.runq_wait_s"),
        (
            Role::TcpWorker,
            "tcp_worker.cpu_s",
            "tcp_worker.runq_wait_s",
        ),
    ] {
        let t = ledger.role(role);
        m.set(cpu, t.cpu_s);
        m.set(runq, t.runq_s);
    }
    // task threads are short-lived: most of their CPU is only visible as
    // process CPU that no live thread accounts for
    m.set(
        "task.cpu_s",
        ledger.role(Role::Task).cpu_s + ledger.unattributed_cpu_s(),
    );
}

/// The serial and saturating closed loops of one live run, round by round.
struct Rounds {
    serial: Vec<LoopResult>,
    loaded: Vec<LoopResult>,
}

/// Counters the runtime and transport keep, summed over a run's clusters.
#[derive(Default)]
struct Counters {
    frames: u64,
    bytes: u64,
    queue_hwm_bytes: u64,
    requeues: u64,
    image_hits: u64,
    image_misses: u64,
}

impl Counters {
    fn add(&mut self, rt: &vine_runtime::Runtime) {
        let stats = rt.transport_stats();
        for w in &stats.workers {
            self.frames += w.frames_in + w.frames_out;
            self.bytes += w.bytes_in + w.bytes_out;
            self.queue_hwm_bytes = self.queue_hwm_bytes.max(w.queue_hwm_bytes);
        }
        self.requeues += rt.requeues();
        let images = rt.compiled_image_stats();
        self.image_hits += images.hits;
        self.image_misses += images.misses;
    }
}

/// `ROUNDS` rounds, each on a freshly booted cluster: set-up (boot,
/// install, first result), a serial closed loop, then a saturating one.
/// A fresh cluster per round also varies which cores the runtime's
/// threads share, so the median over rounds spans those placements
/// rather than whichever one a single cluster settled into.
fn rounds(
    m: &mut Measured,
    substrate: Substrate,
    stream: &mut Stream,
    windows: (Duration, Duration),
    next_id: &mut u64,
    tracer: &mut Tracer,
) -> Result<Rounds, String> {
    let ledger_start = Instant::now();
    let mut ledger = tracer
        .enabled()
        .then(|| ThreadLedger::start(proc::current_tid()));
    let mut r = Rounds {
        serial: Vec::new(),
        loaded: Vec::new(),
    };
    let mut setup_s = Vec::new();
    let mut install_ms = Vec::new();
    let mut setup_tally = Tally::default();
    let mut counters = Counters::default();
    for round in 0..ROUNDS {
        let s = live::setup(substrate, stream, next_id, tracer)?;
        setup_s.push(s.setup_s);
        install_ms.push(s.install_s * 1e3);
        setup_tally.add(s.tally);
        let mut cluster = s.cluster;
        for (depth, think, window, phase) in [
            (1, SERIAL_THINK, windows.0, &mut r.serial),
            (SATURATING_DEPTH, Duration::ZERO, windows.1, &mut r.loaded),
        ] {
            let spec = LoopSpec {
                depth,
                think,
                window: window / ROUNDS as u32,
                min_samples: MIN_TAIL_SAMPLES,
                keep: if tracer.enabled() && round == 0 {
                    KEEP_FOR_REPLAY
                } else {
                    0
                },
            };
            phase.push(live::closed_loop(
                &mut cluster.rt,
                stream,
                spec,
                next_id,
                tracer,
            )?);
        }
        counters.add(&cluster.rt);
        if let Some(ledger) = ledger.as_mut() {
            ledger.sample();
        }
        cluster.shutdown()?;
    }
    if let Some(ledger) = ledger.as_ref() {
        role_times(m, ledger, ledger_start.elapsed().as_secs_f64());
    }
    m.set("setup_s", stats::median(&mut setup_s));
    if stream.shape == Shape::Library {
        m.set("install.library_ms", stats::median(&mut install_ms));
    }
    m.phases.push(("setup", setup_tally));
    for (name, phase) in [("serial", &r.serial), ("saturating", &r.loaded)] {
        let mut t = Tally::default();
        phase.iter().for_each(|l| t.add(l.tally));
        m.phases.push((name, t));
    }

    let units = m.tally().attempted as f64;
    m.set("transport.frames_per_unit", counters.frames as f64 / units);
    m.set("transport.bytes_per_unit", counters.bytes as f64 / units);
    m.set("transport.queue_hwm_bytes", counters.queue_hwm_bytes as f64);
    m.set("runtime.requeues", counters.requeues as f64);
    m.set("data.image_hits", counters.image_hits as f64);
    m.set("data.image_misses", counters.image_misses as f64);
    Ok(r)
}

/// Latency from the serial and saturating rounds; throughput and CPU per
/// unit from the saturating rounds unless the workload measures them
/// elsewhere.
fn round_metrics(m: &mut Measured, r: &mut Rounds, with_throughput: bool) -> Result<(), String> {
    m.set(
        "latency_p50_us",
        median_over(&mut r.serial, |l| Ok(stats::median(&mut l.latency_us)))?,
    );
    m.set(
        "latency_p99_us",
        median_over(&mut r.serial, |l| stats::p99(&mut l.latency_us))?,
    );
    m.set(
        "loaded_latency_p50_us",
        median_over(&mut r.loaded, |l| Ok(stats::median(&mut l.latency_us)))?,
    );
    m.set(
        "loaded_latency_p99_us",
        median_over(&mut r.loaded, |l| stats::p99(&mut l.latency_us))?,
    );
    if with_throughput {
        m.set(
            "throughput_ups",
            median_over(&mut r.loaded, |l| {
                Ok(l.completed_in_window() as f64 / l.window_s)
            })?,
        );
        m.set(
            "cpu_ms_per_kunit",
            median_over(&mut r.loaded, |l| {
                Ok(l.process_cpu_s * 1e6 / l.completed_in_window() as f64)
            })?,
        );
    }
    let mut d2d: Vec<f64> = r
        .loaded
        .iter()
        .flat_map(|l| l.dispatch_to_done_us.clone())
        .collect();
    let mut wait: Vec<f64> = r
        .loaded
        .iter()
        .flat_map(|l| l.queue_wait_us.clone())
        .collect();
    m.set("runtime.dispatch_to_done_us_p50", stats::median(&mut d2d));
    m.set("runtime.queue_wait_us_p50", stats::median(&mut wait));
    Ok(())
}

/// The replays that time single layers, and the residual of the serial
/// latency they leave unexplained.
fn replays(
    m: &mut Measured,
    stream: &Stream,
    substrate: Substrate,
    r: &Rounds,
    tracer: &mut Tracer,
) -> Result<(), String> {
    // only the first round keeps its units for the replays
    let (serial, loaded) = (&r.serial[0], &r.loaded[0]);
    let sent: Vec<_> = serial.sent.iter().chain(&loaded.sent).cloned().collect();
    let received: Vec<_> = serial
        .received
        .iter()
        .chain(&loaded.received)
        .cloned()
        .collect();
    let proto = tracer.span("replay.proto", || replay::proto(&sent, &received))?;
    m.set("proto.encode_us", proto.encode_us);
    m.set("proto.decode_us", proto.decode_us);
    m.set("proto.frame_bytes", proto.frame_bytes);

    let lib = (stream.shape == Shape::Library).then_some(&stream.library);
    let mgr = tracer.span("replay.manager", || {
        replay::manager(lib, &loaded.sent, SATURATING_DEPTH)
    })?;
    m.set("manager.decide_us", mgr.decide_us);
    m.set("manager.decisions", mgr.decisions as f64);
    m.set("manager.installs", mgr.installs as f64);
    m.set("manager.evictions", mgr.evictions as f64);
    let serial_mgr = replay::manager(lib, &serial.sent, 1)?;

    let lang = tracer.span("replay.lang", || {
        replay::lang(&stream.library, &stream.calls, &stream.expected)
    })?;
    m.set("lang.warm_call_us", lang.warm_call_us);
    m.set("lang.cold_call_us", lang.cold_call_us);
    m.set("lang.compile_us", lang.compile_us);
    m.set(
        "lint.library_us",
        tracer.span("replay.lint", || replay::lint_us(&stream.library))?,
    );
    let sim = tracer.span("replay.sim", replay::sim)?;
    m.set("sim.events", sim.events as f64);
    m.set("sim.events_per_s", sim.events_per_s);

    // the blocking path of one serial unit, layer by layer: the manager's
    // bookkeeping, the request and result through the codec (TCP only),
    // and the function itself (warm in a library, cold in a task)
    let codec = match substrate {
        Substrate::Tcp => 2.0 * (proto.encode_us + proto.decode_us),
        Substrate::InProc => 0.0,
    };
    let exec = match stream.shape {
        Shape::Library => lang.warm_call_us,
        Shape::Task => lang.cold_call_us,
    };
    let latency = m.values["latency_p50_us"];
    m.set(
        "residual_us",
        latency - (serial_mgr.per_unit_us + codec + exec),
    );
    Ok(())
}

/// `lnni-inproc`, `lnni-tcp` and `lnni-stateless`: set-up, then rounds of
/// serial and saturating closed loops of LNNI calls.
pub fn lnni(
    substrate: Substrate,
    shape: Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Measured, String> {
    let mut m = Measured::new();
    let mut tracer = Tracer::new(traced);
    m.set("host.loadavg_1m", proc::loadavg_1m());
    let mut stream = Stream::lnni(seed, shape)?;
    let mut next_id = 0;
    let windows = (share(seconds, 0.4), share(seconds, 0.6));
    let mut r = rounds(
        &mut m,
        substrate,
        &mut stream,
        windows,
        &mut next_id,
        &mut tracer,
    )?;
    round_metrics(&mut m, &mut r, true)?;
    m.set("peak_rss_mb", proc::peak_rss_mb());
    if traced {
        replays(&mut m, &stream, substrate, &r, &mut tracer)?;
        m.spans = tracer.summary();
    }
    Ok(m)
}

/// Build one ExaMol graph in `app`, node `i` performing stream call `i`.
fn build_graph(app: &mut App, graph: &ExamolGraph) -> Vec<NodeId> {
    let mut nodes = Vec::with_capacity(gen::examol_nodes());
    for round in &graph.rounds {
        let model = app.invoke("examol", "train", vec![]);
        nodes.push(model);
        let picks: Vec<NodeId> = round
            .iter()
            .map(|candidates| {
                app.invoke(
                    "examol",
                    "infer",
                    vec![Arg::ResultOf(model), Arg::Val(candidate_list(candidates))],
                )
            })
            .collect();
        nodes.extend(&picks);
        for pick in picks {
            nodes.push(app.invoke(
                "examol",
                "simulate",
                vec![
                    Arg::ResultOf(pick),
                    Arg::Val(Value::Int(gen::EXAMOL_SIM_STEPS)),
                ],
            ));
        }
    }
    nodes
}

/// One ExaMol graph through `App::run`, on a fresh cluster.
struct GraphRun {
    nodes: usize,
    build_s: f64,
    run_s: f64,
    cpu_s: f64,
}

fn run_graph(
    stream: &Stream,
    graph: &ExamolGraph,
    tally: &mut Tally,
    tracer: &mut Tracer,
    preflight_ms: Option<&mut f64>,
) -> Result<Option<GraphRun>, String> {
    let mut rt = live::inproc_runtime();
    stream
        .library
        .install(&mut rt)
        .map_err(|e| format!("installing examol: {e}"))?;
    let mut app = App::new(rt);
    let t = Instant::now();
    let nodes = tracer.span("dag.build", || build_graph(&mut app, graph));
    let build_s = t.elapsed().as_secs_f64();
    if let Some(ms) = preflight_ms {
        let t = Instant::now();
        tracer
            .span("dag.preflight", || app.preflight())
            .map_err(|e| format!("preflight: {e}"))?;
        *ms = t.elapsed().as_secs_f64() * 1e3;
    }
    tally.attempted += nodes.len() as u64;
    let cpu0 = proc::process_cpu_s();
    let t = Instant::now();
    let results = tracer.span("dag.run", || app.run());
    let run_s = t.elapsed().as_secs_f64();
    let cpu_s = proc::process_cpu_s() - cpu0;
    let results = match results {
        Ok(r) => r,
        Err(e) => {
            // a failed node fails its graph: every node counts as failed
            eprintln!("# examol graph failed: {e}");
            tally.failed += nodes.len() as u64;
            app.shutdown();
            return Ok(None);
        }
    };
    for (key, node) in nodes.iter().enumerate() {
        let blob = pickle::serialize_value(&results[node]).map_err(|e| e.to_string())?;
        if blob == stream.expected[key] {
            tally.succeeded += 1;
        } else {
            tally.mismatched += 1;
        }
    }
    app.shutdown();
    Ok(Some(GraphRun {
        nodes: nodes.len(),
        build_s,
        run_s,
        cpu_s,
    }))
}

/// `examol-dag`: the ExaMol library's calls through rounds of serial and
/// saturating closed loops (latency), then whole steering graphs through
/// `vine_dag::App::run` (throughput), each graph on a fresh cluster.
pub fn examol_dag(seed: u64, seconds: f64, traced: bool) -> Result<Measured, String> {
    let mut m = Measured::new();
    let mut tracer = Tracer::new(traced);
    m.set("host.loadavg_1m", proc::loadavg_1m());
    let graph = ExamolGraph::new(seed);
    let mut stream = Stream::examol(&graph)?;
    let mut next_id = 0;
    let windows = (share(seconds, 0.35), share(seconds, 0.25));
    let mut r = rounds(
        &mut m,
        Substrate::InProc,
        &mut stream,
        windows,
        &mut next_id,
        &mut tracer,
    )?;
    round_metrics(&mut m, &mut r, false)?;

    let dag_window = share(seconds, 0.4);
    let mut graphs = Vec::new();
    let mut tally = Tally::default();
    let mut preflight_ms = 0.0;
    let t0 = Instant::now();
    while (graphs.len() < ROUNDS || t0.elapsed() < dag_window) && t0.elapsed() < dag_window * 4 {
        let preflight = (traced && graphs.is_empty()).then_some(&mut preflight_ms);
        if let Some(g) = run_graph(&stream, &graph, &mut tally, &mut tracer, preflight)? {
            graphs.push(g);
        }
    }
    m.phases.push(("dag", tally));
    if graphs.is_empty() {
        return Err("no examol graph completed".into());
    }
    m.set(
        "throughput_ups",
        median_over(&mut graphs, |g| Ok(g.nodes as f64 / g.run_s))?,
    );
    m.set(
        "cpu_ms_per_kunit",
        median_over(&mut graphs, |g| Ok(g.cpu_s * 1e6 / g.nodes as f64))?,
    );
    m.set(
        "dag.build_us_per_node",
        median_over(&mut graphs, |g| Ok(g.build_s * 1e6 / g.nodes as f64))?,
    );
    m.set(
        "dag.run_us_per_node",
        median_over(&mut graphs, |g| Ok(g.run_s * 1e6 / g.nodes as f64))?,
    );
    m.set("dag.preflight_ms", preflight_ms);
    m.set("peak_rss_mb", proc::peak_rss_mb());
    if traced {
        replays(&mut m, &stream, Substrate::InProc, &r, &mut tracer)?;
        m.spans = tracer.summary();
    }
    Ok(m)
}
