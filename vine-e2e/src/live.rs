//! The live runtime under load: boot a cluster, time its set-up, and run
//! closed loops of callers that each wait for their reply.

use crate::apps::{unit_number, Shape, Stream};
use crate::gen::SplitMix64;
use crate::proc;
use crate::trace::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vine_apps::modules::full_registry;
use vine_core::resources::Resources;
use vine_core::task::{Outcome, WorkUnit};
use vine_core::VineError;
use vine_runtime::{run_tcp_worker, Runtime, RuntimeConfig, TcpTransport};

/// Workers in every cluster: one per core of the reference host.
pub const WORKERS: usize = 2;
/// What each worker announces: room for one LNNI or ExaMol library
/// instance (2 cores, 2 slots), or two stateless tasks.
pub const WORKER_RESOURCES: Resources = Resources::new(2, 4096, 4096);
/// The run's deadline: when nothing replies for this long, every unit
/// still outstanding is stranded and counted as failed. Healthy units
/// finish in milliseconds.
pub const IDLE_TIMEOUT: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    InProc,
    /// TCP loopback to workers running `run_tcp_worker` on threads of
    /// this process.
    Tcp,
}

/// A booted cluster and, over TCP, the threads its workers run on.
pub struct Cluster {
    pub rt: Runtime,
    tcp_workers: Vec<JoinHandle<vine_core::Result<()>>>,
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        workers: WORKERS,
        worker_resources: WORKER_RESOURCES,
        registry: full_registry(),
        idle_timeout: IDLE_TIMEOUT,
    }
}

/// An in-process cluster's runtime alone, for callers that hand the
/// runtime to an API owning it.
pub fn inproc_runtime() -> Runtime {
    Runtime::new(config())
}

impl Cluster {
    /// Boot and wait until every worker has joined.
    pub fn boot(substrate: Substrate) -> Result<Cluster, String> {
        match substrate {
            Substrate::InProc => Ok(Cluster {
                rt: inproc_runtime(),
                tcp_workers: Vec::new(),
            }),
            Substrate::Tcp => {
                let transport = TcpTransport::listen("127.0.0.1:0")
                    .map_err(|e| format!("binding loopback: {e}"))?;
                let addr = transport.local_addr();
                let mut tcp_workers = Vec::new();
                for i in 0..WORKERS {
                    let worker = std::thread::Builder::new()
                        .name(format!("tcp-worker-{i}"))
                        .spawn(move || run_tcp_worker(addr, WORKER_RESOURCES, full_registry()))
                        .map_err(|e| format!("spawning tcp worker: {e}"))?;
                    tcp_workers.push(worker);
                }
                let rt = Runtime::with_transport(config(), Box::new(transport))
                    .map_err(|e| format!("tcp workers joining: {e}"))?;
                Ok(Cluster { rt, tcp_workers })
            }
        }
    }

    /// Stop every worker and wait for its threads.
    pub fn shutdown(self) -> Result<(), String> {
        self.rt.shutdown();
        for w in self.tcp_workers {
            w.join()
                .map_err(|_| "tcp worker panicked".to_string())?
                .map_err(|e| format!("tcp worker: {e}"))?;
        }
        Ok(())
    }
}

/// Units attempted, succeeded and failed in one phase, and whether any
/// successful result disagreed with the oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub mismatched: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }

    /// Score one outcome against its expected result.
    fn score(&mut self, outcome: &Outcome, expected: &[u8]) {
        if !outcome.success {
            self.failed += 1;
        } else if outcome.result_blob == expected {
            self.succeeded += 1;
        } else {
            self.mismatched += 1;
        }
    }
}

/// What one boot-to-first-result cycle cost.
pub struct Setup {
    pub cluster: Cluster,
    pub setup_s: f64,
    pub install_s: f64,
    pub tally: Tally,
}

/// Boot a cluster, install the stream's library, and wait for the first
/// unit's result: the set-up a user pays before the first answer.
pub fn setup(
    substrate: Substrate,
    stream: &mut Stream,
    next_id: &mut u64,
    tracer: &mut Tracer,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut cluster = tracer.span("runtime.boot", || Cluster::boot(substrate))?;
    let t_install = Instant::now();
    if stream.shape == Shape::Library {
        let lib = &stream.library;
        tracer
            .span("runtime.install_library", || lib.install(&mut cluster.rt))
            .map_err(|e| format!("installing library: {e}"))?;
    }
    let install_s = t_install.elapsed().as_secs_f64();
    let id = *next_id;
    *next_id += 1;
    let (unit, key) = stream.next_unit(id)?;
    cluster.rt.submit(unit);
    let mut tally = Tally {
        attempted: 1,
        ..Tally::default()
    };
    match cluster.rt.run_next() {
        Ok(Some(o)) => tally.score(&o, &stream.expected[key]),
        Ok(None) => return Err("runtime idle before the first result".into()),
        Err(VineError::Timeout(_)) => tally.failed += 1,
        Err(e) => return Err(format!("first result: {e}")),
    }
    Ok(Setup {
        cluster,
        setup_s: t0.elapsed().as_secs_f64(),
        install_s,
        tally,
    })
}

/// A closed-loop phase: how long it runs and how many callers it keeps
/// waiting.
#[derive(Clone, Copy, Debug)]
pub struct LoopSpec {
    pub depth: usize,
    pub window: Duration,
    /// Latency samples the phase must collect, however long that takes.
    pub min_samples: usize,
    /// Units and outcomes to keep for the traced replays. Untraced runs
    /// keep none, so the benchmark's own memory stays out of
    /// `peak_rss_mb`.
    pub keep: usize,
    /// Longest think time before a caller submits its next unit; each wait
    /// is drawn uniformly below it. Worker engines poll their mailboxes
    /// every 100 µs, so without it a lone caller's submits lock onto one
    /// phase of that loop and serial latency jumps between two levels as
    /// the host's speed shifts the phase.
    pub think: Duration,
}

/// A phase's measurements. Only units completed inside the window give
/// latency samples; units drained after it are scored but not timed.
#[derive(Default)]
pub struct LoopResult {
    /// Submit → `run_next` return, per unit completed in the window.
    pub latency_us: Vec<f64>,
    /// The runtime's own dispatch → done time for the same units.
    pub dispatch_to_done_us: Vec<f64>,
    /// Latency minus dispatch → done: waiting in the manager's queue and
    /// for the driver to pick up the result.
    pub queue_wait_us: Vec<f64>,
    pub window_s: f64,
    pub process_cpu_s: f64,
    pub tally: Tally,
    /// The phase's units as submitted and as completed, for the replays.
    pub sent: Vec<WorkUnit>,
    pub received: Vec<Outcome>,
    /// The first successful result seen for each call key.
    pub observed: BTreeMap<usize, Vec<u8>>,
}

impl LoopResult {
    pub fn completed_in_window(&self) -> usize {
        self.latency_us.len()
    }
}

/// The least time a phase may take to collect its minimum samples.
pub const MIN_SAMPLE_GRACE: Duration = Duration::from_secs(3);

/// Keep `depth` units outstanding until the window closes (and enough
/// samples are in), then drain. A unit with no reply by the idle
/// deadline is stranded and counted as failed; it is not retried, and a
/// new unit takes its place so the loop keeps its depth.
pub fn closed_loop(
    rt: &mut Runtime,
    stream: &mut Stream,
    spec: LoopSpec,
    next_id: &mut u64,
    tracer: &mut Tracer,
) -> Result<LoopResult, String> {
    let mut res = LoopResult::default();
    let mut outstanding: BTreeMap<u64, (Instant, usize)> = BTreeMap::new();
    let mut window_latency: BTreeMap<u64, f64> = BTreeMap::new();
    let mut stranded: BTreeSet<u64> = BTreeSet::new();
    let mut think = SplitMix64::new(*next_id);
    let durations_before = rt.unit_durations.len();
    let cap = (spec.window * 4).max(MIN_SAMPLE_GRACE);
    let cpu0 = proc::process_cpu_s();
    let t0 = Instant::now();
    let mut in_window = true;
    loop {
        if in_window {
            let elapsed = t0.elapsed();
            let enough = elapsed >= spec.window && window_latency.len() >= spec.min_samples;
            if enough || elapsed >= cap {
                in_window = false;
                res.window_s = elapsed.as_secs_f64();
                res.process_cpu_s = proc::process_cpu_s() - cpu0;
            }
        }
        if in_window {
            while outstanding.len() < spec.depth {
                let id = *next_id;
                *next_id += 1;
                if !spec.think.is_zero() {
                    let nanos = think.below(spec.think.as_nanos() as u64);
                    std::thread::sleep(Duration::from_nanos(nanos));
                }
                let (unit, key) = stream.next_unit(id)?;
                if res.sent.len() < spec.keep {
                    res.sent.push(unit.clone());
                }
                outstanding.insert(id, (Instant::now(), key));
                res.tally.attempted += 1;
                tracer.span("runtime.submit", || rt.submit(unit));
            }
        } else if outstanding.is_empty() {
            break;
        }
        match tracer.span("runtime.run_next", || rt.run_next()) {
            Ok(Some(outcome)) => {
                let id = unit_number(outcome.unit);
                let Some((submitted, key)) = outstanding.remove(&id) else {
                    if stranded.remove(&id) {
                        continue; // already counted as failed
                    }
                    return Err(format!("result for unit {id}, which is not outstanding"));
                };
                if in_window {
                    window_latency.insert(id, submitted.elapsed().as_secs_f64() * 1e6);
                }
                res.tally.score(&outcome, &stream.expected[key]);
                if outcome.success {
                    res.observed
                        .entry(key)
                        .or_insert_with(|| outcome.result_blob.clone());
                }
                if res.received.len() < spec.keep {
                    res.received.push(outcome);
                }
            }
            Ok(None) => {
                return Err(format!(
                    "runtime idle with {} unit(s) outstanding",
                    outstanding.len()
                ))
            }
            // nothing moved for the whole deadline: every outstanding unit
            // is stranded
            Err(VineError::Timeout(_)) => {
                res.tally.failed += outstanding.len() as u64;
                outstanding.clear();
            }
            Err(e) => return Err(format!("run_next: {e}")),
        }
        // a unit still without a reply after the deadline, while others
        // return, is stranded too: count it and free its place
        while let Some((&id, &(submitted, _))) = outstanding.first_key_value() {
            if submitted.elapsed() < IDLE_TIMEOUT {
                break;
            }
            outstanding.remove(&id);
            stranded.insert(id);
            res.tally.failed += 1;
        }
    }
    for (unit, d) in &rt.unit_durations[durations_before..] {
        let id = unit_number(*unit);
        if let Some(lat) = window_latency.get(&id) {
            let d2d = d.as_secs_f64() * 1e6;
            res.dispatch_to_done_us.push(d2d);
            res.queue_wait_us.push(lat - d2d);
        }
    }
    res.latency_us = window_latency.into_values().collect();
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::LNNI_POOL;

    /// `lnni-inproc`, `lnni-tcp` and `lnni-stateless` return the same
    /// result for every argument set of one seed, and it is the oracle's.
    #[test]
    fn lnni_workloads_agree_for_one_seed() {
        let mut seen = Vec::new();
        for (substrate, shape) in [
            (Substrate::InProc, Shape::Library),
            (Substrate::Tcp, Shape::Library),
            (Substrate::InProc, Shape::Task),
        ] {
            let mut stream = Stream::lnni(11, shape).expect("oracle replays");
            let mut tracer = Tracer::new(false);
            let mut next_id = 0;
            let mut s = setup(substrate, &mut stream, &mut next_id, &mut tracer).expect("set-up");
            let spec = LoopSpec {
                depth: 8,
                window: Duration::from_millis(200),
                min_samples: 500,
                keep: 0,
                think: Duration::ZERO,
            };
            let r = closed_loop(
                &mut s.cluster.rt,
                &mut stream,
                spec,
                &mut next_id,
                &mut tracer,
            )
            .expect("closed loop");
            s.cluster.shutdown().expect("shutdown");
            assert_eq!(r.tally.mismatched, 0, "{substrate:?} {shape:?}");
            assert!(r.observed.len() > LNNI_POOL / 2, "{substrate:?} {shape:?}");
            for (key, blob) in &r.observed {
                assert_eq!(blob, &stream.expected[*key]);
            }
            seen.push(r.observed);
        }
        for a in &seen {
            for b in &seen {
                for (key, blob) in a {
                    if let Some(other) = b.get(key) {
                        assert_eq!(blob, other, "key {key}");
                    }
                }
            }
        }
    }
}
