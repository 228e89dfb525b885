//! Single layers timed in isolation by replaying a workload's own traffic
//! through their public APIs: the wire codec, a standalone manager, the
//! `vine-lang` engines, the install-time linter, and the simulator.

use crate::apps::{warm_interp, Call, LibraryDef};
use crate::live::{WORKERS, WORKER_RESOURCES};
use std::time::Instant;
use vine_apps::lnni::{LibraryStrategy, LnniConfig, LnniWorkload};
use vine_apps::modules::full_registry;
use vine_core::config::ReuseLevel;
use vine_core::ids::{LibraryInstanceId, WorkerId};
use vine_core::task::{Outcome, UnitId, WorkUnit};
use vine_lang::{pickle, Interp};
use vine_manager::{Decision, Manager};
use vine_proto::{decode_frame, encode_frame, FrameDecoder, ManagerToWorker, WorkerToManager};
use vine_sim::{simulate, SimConfig};

/// The simulator's work on Fig 6a.
pub struct SimReplay {
    /// Events of one Fig 6a reproduction (L1, L2 and L3).
    pub events: u64,
    pub events_per_s: f64,
}

/// LNNI invocations per level in the simulator replay: what `repro fig6a`
/// runs at its smallest scale, 1/2000 of the paper's 100k.
const SIM_INVOCATIONS: u64 = 50;
const SIM_SCALE: f64 = SIM_INVOCATIONS as f64 / 100_000.0;
/// Fig 6a reproductions timed per replay.
const SIM_REPEATS: usize = 10;

/// Simulate Fig 6a's LNNI runs at L1, L2 and L3 on 150 workers, as `repro
/// fig6a` builds them, `SIM_REPEATS` times. Every makespan must equal what
/// `repro fig6a` reports at the same scale and every event count what its
/// `run_lnni` simulates.
pub fn sim() -> Result<SimReplay, String> {
    let table = bench::experiments::fig6a(SIM_SCALE);
    let mut workloads: Vec<(ReuseLevel, LnniWorkload, f64, u64)> = ReuseLevel::ALL
        .into_iter()
        .map(|level| {
            let makespan = table
                .get(level.name(), "execution_time_s")
                .ok_or_else(|| format!("repro fig6a has no {} row", level.name()))?;
            let events = bench::experiments::run_lnni(level, SIM_INVOCATIONS, 16, 150).events;
            let w = LnniWorkload::new(LnniConfig {
                invocations: SIM_INVOCATIONS,
                inferences_per_invocation: 16,
                level,
                seed: 0x6c6e6e69,
                library_strategy: LibraryStrategy::PerSlot,
            });
            Ok((level, w, makespan, events))
        })
        .collect::<Result<_, String>>()?;
    let reference_events = workloads.iter().map(|w| w.3).sum();
    let mut events = 0u64;
    let t = Instant::now();
    for _ in 0..SIM_REPEATS {
        for (level, w, makespan, level_events) in workloads.iter_mut() {
            let r = simulate(SimConfig::paper(*level, 150), w);
            if r.makespan.as_secs_f64() != *makespan || r.events != *level_events {
                return Err(format!(
                    "{} simulated makespan {} s and {} events; repro fig6a gives {makespan} s and \
                     {level_events} events",
                    level.name(),
                    r.makespan.as_secs_f64(),
                    r.events
                ));
            }
            events += r.events;
        }
    }
    Ok(SimReplay {
        events: reference_events,
        events_per_s: events as f64 / t.elapsed().as_secs_f64(),
    })
}

/// The wire cost of one message: encode, decode, and size.
pub struct ProtoReplay {
    pub encode_us: f64,
    pub decode_us: f64,
    pub frame_bytes: f64,
}

/// Replay the workload's own manager→worker requests and worker→manager
/// results through `encode_frame`, `decode_frame` and a `FrameDecoder`
/// fed in socket-sized chunks. Every decoded message must equal the
/// original.
pub fn proto(sent: &[WorkUnit], received: &[Outcome]) -> Result<ProtoReplay, String> {
    let requests: Vec<ManagerToWorker> = sent
        .iter()
        .map(|u| match u {
            WorkUnit::Call(call) => ManagerToWorker::Invoke {
                instance: LibraryInstanceId(1),
                call: call.clone(),
            },
            WorkUnit::Task(task) => ManagerToWorker::RunTask {
                task: task.clone(),
                stage: vec![],
            },
        })
        .collect();
    let results: Vec<WorkerToManager> = received
        .iter()
        .map(|o| WorkerToManager::UnitDone { outcome: o.clone() })
        .collect();
    let messages = (requests.len() + results.len()) as f64;
    if messages == 0.0 {
        return Err("no messages to replay".into());
    }

    let t = Instant::now();
    let req_frames = requests
        .iter()
        .map(encode_frame)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let res_frames = results
        .iter()
        .map(encode_frame)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let encode_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (frame, msg) in req_frames.iter().zip(&requests) {
        if decode_frame::<ManagerToWorker>(frame).map_err(|e| e.to_string())? != *msg {
            return Err("a request changed through encode_frame/decode_frame".into());
        }
    }
    for (frame, msg) in res_frames.iter().zip(&results) {
        if decode_frame::<WorkerToManager>(frame).map_err(|e| e.to_string())? != *msg {
            return Err("a result changed through encode_frame/decode_frame".into());
        }
    }
    let decode_s = t.elapsed().as_secs_f64();

    // the reactor's path: one byte stream, read in 4 KiB pieces
    let stream: Vec<u8> = res_frames.concat();
    let mut decoder = FrameDecoder::new();
    let mut decoded = Vec::with_capacity(results.len());
    for chunk in stream.chunks(4096) {
        decoder.extend(chunk);
        while let Some(msg) = decoder
            .decode::<WorkerToManager>()
            .map_err(|e| e.to_string())?
        {
            decoded.push(msg);
        }
    }
    decoder.finish().map_err(|e| e.to_string())?;
    if decoded != results {
        return Err("FrameDecoder did not return the results that were framed".into());
    }

    let bytes: usize = req_frames.iter().chain(&res_frames).map(Vec::len).sum();
    Ok(ProtoReplay {
        encode_us: encode_s * 1e6 / messages,
        decode_us: decode_s * 1e6 / messages,
        frame_bytes: bytes as f64 / messages,
    })
}

/// The scheduler's work for one unit stream, without any workers.
pub struct ManagerReplay {
    /// Manager time (submit, decide, finish) per decision.
    pub decide_us: f64,
    /// Manager time per unit, for the blocking-path sum.
    pub per_unit_us: f64,
    pub decisions: u64,
    pub installs: u64,
    pub evictions: u64,
}

/// Replay `units` through a standalone `Manager` with the cluster's
/// workers, keeping `depth` units in flight as the live loop does and
/// finishing the oldest running unit whenever the manager rests.
pub fn manager(
    library: Option<&LibraryDef>,
    units: &[WorkUnit],
    depth: usize,
) -> Result<ManagerReplay, String> {
    let mut mgr = Manager::new();
    let mut replay = ManagerReplay {
        decide_us: 0.0,
        per_unit_us: 0.0,
        decisions: 0,
        installs: 0,
        evictions: 0,
    };
    let t = Instant::now();
    for w in 0..WORKERS {
        mgr.worker_joined(WorkerId(w as u32), WORKER_RESOURCES);
    }
    if let Some(lib) = library {
        mgr.register_library(lib.spec.clone());
    }
    let mut pending = units.iter();
    let mut in_flight = 0usize;
    let mut running: std::collections::VecDeque<UnitId> = Default::default();
    loop {
        while in_flight < depth {
            let Some(u) = pending.next() else { break };
            mgr.submit(u.clone());
            in_flight += 1;
        }
        while let Some(d) = mgr.next_decision() {
            replay.decisions += 1;
            match d {
                Decision::InstallLibrary {
                    worker, instance, ..
                } => {
                    replay.installs += 1;
                    mgr.library_ready(worker, instance)
                        .map_err(|e| e.to_string())?;
                }
                Decision::EvictLibrary { .. } => replay.evictions += 1,
                Decision::DispatchCall { call, .. } => running.push_back(UnitId::Call(call.id)),
                Decision::DispatchTask { task, .. } => running.push_back(UnitId::Task(task.id)),
                Decision::Fail { unit, error } => {
                    return Err(format!("manager failed {unit:?}: {error}"))
                }
            }
        }
        let Some(done) = running.pop_front() else {
            break;
        };
        mgr.unit_finished(done).map_err(|e| e.to_string())?;
        in_flight -= 1;
    }
    let total_us = t.elapsed().as_secs_f64() * 1e6;
    if in_flight != 0 || !mgr.is_idle() {
        return Err(format!(
            "manager replay stalled with {in_flight} unit(s) in flight"
        ));
    }
    replay.decide_us = total_us / replay.decisions.max(1) as f64;
    replay.per_unit_us = total_us / units.len().max(1) as f64;
    Ok(replay)
}

/// Warm and cold execution of the workload's calls, and compiling its
/// library.
pub struct LangReplay {
    pub warm_call_us: f64,
    pub cold_call_us: f64,
    pub compile_us: f64,
}

const WARM_CALLS: usize = 2000;
const COLD_CALLS: usize = 100;
const COMPILES: usize = 50;

/// Time `calls` on a warm VM interpreter (a library daemon's retained
/// context), on a cold tree-walking interpreter that loads the source
/// and runs context setup first (a stateless task), and the library's
/// compile. Every result must equal `expected`, so the replay doubles as
/// a check that both engines agree with the oracle.
pub fn lang(lib: &LibraryDef, calls: &[Call], expected: &[Vec<u8>]) -> Result<LangReplay, String> {
    let check = |i: usize, v: &vine_lang::Value| -> Result<(), String> {
        let blob = pickle::serialize_value(v).map_err(|e| e.to_string())?;
        if blob != expected[i] {
            return Err(format!(
                "{} replay disagrees with the oracle",
                calls[i].function
            ));
        }
        Ok(())
    };

    let mut warm = warm_interp(lib)?;
    let t = Instant::now();
    for n in 0..WARM_CALLS {
        let i = n % calls.len();
        let v = warm
            .call_global(calls[i].function, &calls[i].args)
            .map_err(|e| e.to_string())?;
        check(i, &v)?;
    }
    let warm_call_us = t.elapsed().as_secs_f64() * 1e6 / WARM_CALLS as f64;

    let t = Instant::now();
    for n in 0..COLD_CALLS {
        let i = n % calls.len();
        let mut cold = Interp::with_registry(full_registry());
        cold.exec_source(lib.source).map_err(|e| e.to_string())?;
        cold.call_global("context_setup", &lib.setup_args)
            .map_err(|e| e.to_string())?;
        let v = cold
            .call_global(calls[i].function, &calls[i].args)
            .map_err(|e| e.to_string())?;
        check(i, &v)?;
    }
    let cold_call_us = t.elapsed().as_secs_f64() * 1e6 / COLD_CALLS as f64;

    let t = Instant::now();
    for _ in 0..COMPILES {
        let prog = vine_lang::parse(lib.source).map_err(|e| e.to_string())?;
        std::hint::black_box(vine_lang::compile_module(&prog, lib.source));
    }
    let compile_us = t.elapsed().as_secs_f64() * 1e6 / COMPILES as f64;

    Ok(LangReplay {
        warm_call_us,
        cold_call_us,
        compile_us,
    })
}

/// Mean time of the install-time pre-flight over the library, as
/// `Runtime::install_library` runs it.
pub fn lint_us(lib: &LibraryDef) -> Result<f64, String> {
    const LINTS: usize = 50;
    let pre = vine_lint::LibraryPreflight {
        available_modules: full_registry().names().map(str::to_string).collect(),
        declared_deps: None,
        workers: vec![WORKER_RESOURCES; WORKERS],
        serialized_functions: vec![],
        setup_argc: Some(lib.setup_args.len()),
    };
    let t = Instant::now();
    for _ in 0..LINTS {
        let report = vine_lint::lint_library(&lib.spec, lib.source, &pre);
        if report.has_errors() {
            return Err(report.render());
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / LINTS as f64)
}
