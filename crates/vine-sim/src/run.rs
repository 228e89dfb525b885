//! The simulation driver: manager decisions → timed pipelines → trace.
//!
//! ## Event-core data layout
//!
//! Every event the loop pops touches driver state, so lookups on the event
//! path are laid out dense (see DESIGN.md §7):
//!
//! * jobs live in a **slab** ([`JobSlab`]) — a `Vec` of slots plus a
//!   free-list — addressed by a packed [`JobId`] whose low bits are the
//!   slot (O(1) access) and whose high bits are a monotone dispatch
//!   sequence number (staleness check for reused slots, and the exact
//!   ordering the old `BTreeMap<u64, Job>` keys gave);
//! * fluid pools live in a **dense `Vec`** addressed by [`PoolId`]: three
//!   fixed slots (shared-FS bandwidth, shared-FS IOPS, manager uplink)
//!   followed by one disk and one uplink slot per worker;
//! * each job's in-flight flow is a field on the job itself
//!   (`Job::active_flow`) instead of a side `BTreeMap`;
//! * a per-worker job index makes `fail_worker` O(jobs on that worker)
//!   instead of a scan over every live job.
//!
//! The layout change is *only* a layout change: event times, float
//! arithmetic, and processing order are bit-identical to the retained
//! pre-overhaul driver in [`crate::reference`], which differential tests
//! and the `repro perf --sim` benchmark hold it to.

use crate::cluster::{assign_gflops, paper_groups, MachineGroup};
use crate::engine::{EventQueue, FluidPool};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use vine_core::config::{CostModel, ReuseLevel};
use vine_core::context::{FileSource, LibrarySpec};
use vine_core::ids::{InvocationId, LibraryInstanceId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{UnitId, WorkProfile, WorkUnit};
use vine_core::time::{SimDuration, SimTime};
use vine_core::trace::{InvocationRecord, LibraryRecord, PhaseBreakdown, Trace};
use vine_manager::{Decision, Manager};

/// What to simulate and on what cluster.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub workers: usize,
    pub seed: u64,
    pub level: ReuseLevel,
    pub cost: CostModel,
    /// Worker-to-worker transfers enabled (Fig 3b vs 3a).
    pub peer_transfer: bool,
    pub groups: Vec<MachineGroup>,
    /// Manager and worker on one machine (Table 5 setup): manager
    /// transfers run at loopback speed.
    pub colocated: bool,
    pub worker_resources: Resources,
    /// Kill worker (index) at time (seconds) — fault injection.
    pub fail_workers: Vec<(f64, usize)>,
}

impl SimConfig {
    /// The paper's evaluation setup (§4.2).
    pub fn paper(level: ReuseLevel, workers: usize) -> SimConfig {
        SimConfig {
            workers,
            seed: 0x76696e65,
            level,
            cost: CostModel::paper(),
            peer_transfer: true,
            groups: paper_groups(),
            colocated: false,
            worker_resources: Resources::paper_worker(),
            fail_workers: Vec::new(),
        }
    }

    /// Table 5's co-located single-worker setup.
    pub fn colocated(level: ReuseLevel) -> SimConfig {
        let mut c = SimConfig::paper(level, 1);
        c.colocated = true;
        // one dedicated EPYC 7543 machine
        c.groups = vec![MachineGroup {
            name: "reference".into(),
            machines: 1,
            gflops_per_core: 5.4,
        }];
        c
    }
}

/// A workload feeds units to the simulator and reacts to completions
/// (ExaMol's active-learning loop submits new batches as results return).
pub trait Workload {
    /// Libraries to register, each with the [`WorkProfile`] of its context
    /// setup (what the library daemon does before reporting Ready).
    fn libraries(&self) -> Vec<(LibrarySpec, WorkProfile)>;
    /// Units known at application start.
    fn initial_units(&mut self) -> Vec<WorkUnit>;
    /// Called on every completion; returned units are submitted.
    fn on_complete(&mut self, _unit: UnitId, _success: bool) -> Vec<WorkUnit> {
        Vec::new()
    }
}

/// Simulation output.
#[derive(Debug)]
pub struct SimResult {
    pub trace: Trace,
    /// When ≥95% of workers had connected — the paper's application start
    /// line (§4.2).
    pub app_start: SimTime,
    /// When the last unit completed.
    pub end: SimTime,
    pub failed_units: u64,
    /// Application execution time (end − app_start), also in
    /// `trace.makespan`.
    pub makespan: SimDuration,
    /// Discrete events processed — the denominator of the sim-core
    /// benchmark's events/sec, and a cheap whole-run fingerprint for
    /// differential tests (identical schedules pop identical counts).
    pub events: u64,
}

// ---- internal machinery ----

/// Index of a fluid pool in the driver's dense pool vector.
///
/// Layout: `[SharedBw, SharedIops, ManagerUplink, disk(w0..wN), uplink(w0..wN)]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PoolId(u32);

const POOL_SHARED_BW: PoolId = PoolId(0);
const POOL_SHARED_IOPS: PoolId = PoolId(1);
const POOL_MANAGER_UPLINK: PoolId = PoolId(2);
/// First per-worker slot.
const POOL_FIXED_SLOTS: u32 = 3;

/// Packed job handle: a monotone dispatch sequence number in the high bits,
/// the slab slot in the low bits.
///
/// The sequence number serves three purposes at once:
///
/// * **ordering** — `JobId`s (and the flow ids derived from them) compare
///   exactly like the old monotone `u64` job counter, because the sequence
///   occupies the high bits and is unique per job; a fluid pool's
///   "completed flows ascending by id" therefore still means "ascending by
///   dispatch order", which pins event ordering bit-for-bit;
/// * **staleness** — a `JobStep` event for a job whose slot has been freed
///   and reused (worker failure cancelled it) no longer matches the slot's
///   current occupant, exactly as a `BTreeMap` lookup of a removed key
///   found nothing;
/// * **slot addressing** — the low bits index the slab directly, O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct JobId(u64);

/// 22 bits of slot → up to ~4M concurrent jobs, leaving 42 bits of
/// sequence → ~4×10¹² jobs per run.
const JOB_SLOT_BITS: u32 = 22;
const JOB_SLOT_MASK: u64 = (1 << JOB_SLOT_BITS) - 1;

impl JobId {
    fn new(seq: u64, slot: u32) -> JobId {
        debug_assert!(u64::from(slot) <= JOB_SLOT_MASK, "slab slot overflow");
        debug_assert!(seq < (1 << (64 - JOB_SLOT_BITS)), "job sequence overflow");
        JobId((seq << JOB_SLOT_BITS) | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & JOB_SLOT_MASK) as usize
    }

    /// The id used as this job's [`crate::engine::FlowId`] in fluid pools.
    fn flow(self) -> u64 {
        self.0
    }
}

/// Slab of live jobs: free-list `Vec`, O(1) insert/lookup/remove, no
/// per-job allocation once the high-water mark is reached.
#[derive(Debug, Default)]
struct JobSlab {
    slots: Vec<Option<Job>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl JobSlab {
    fn insert(&mut self, mut job: Job) -> JobId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        let id = JobId::new(self.next_seq, slot);
        self.next_seq += 1;
        job.id = id;
        self.slots[slot as usize] = Some(job);
        id
    }

    fn get_mut(&mut self, id: JobId) -> Option<&mut Job> {
        self.slots
            .get_mut(id.slot())
            .and_then(|s| s.as_mut())
            .filter(|j| j.id == id)
    }

    fn remove(&mut self, id: JobId) -> Option<Job> {
        let slot = self.slots.get_mut(id.slot())?;
        if slot.as_ref().is_some_and(|j| j.id == id) {
            self.free.push(id.slot() as u32);
            slot.take()
        } else {
            None
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Transfer,
    Worker,
    Library,
    Exec,
}

#[derive(Clone, Copy, Debug)]
enum StepKind {
    Fixed(SimDuration),
    Flow { pool: PoolId, amount: f64 },
}

#[derive(Clone, Copy, Debug)]
struct Step {
    kind: StepKind,
    phase: Phase,
}

#[derive(Debug)]
enum JobKind {
    Call {
        id: InvocationId,
        library: LibraryInstanceId,
        submitted: SimTime,
    },
    Task {
        id: vine_core::ids::TaskId,
        submitted: SimTime,
    },
    Install {
        instance: LibraryInstanceId,
        library_name: String,
    },
}

#[derive(Debug)]
struct Job {
    /// Own packed id; also the staleness generation for slot reuse.
    id: JobId,
    kind: JobKind,
    worker: WorkerId,
    /// Position in `Driver::worker_jobs[worker]`, maintained on removal.
    worker_slot: u32,
    steps: VecDeque<Step>,
    current: Option<Step>,
    /// Pool of the in-flight flow step, if any (was a side `BTreeMap`).
    active_flow: Option<PoolId>,
    step_started: SimTime,
    dispatched: SimTime,
    phases: PhaseBreakdown,
    /// Original unit for requeueing on worker loss.
    unit: Option<WorkUnit>,
}

enum Ev {
    WorkerConnect(WorkerId),
    WorkerFail(WorkerId),
    MgrWake,
    PoolCheck { pool: PoolId, epoch: u64 },
    JobStep { job: JobId },
}

struct Driver<'w> {
    cfg: SimConfig,
    q: EventQueue<Ev>,
    /// Dense pool storage; see [`PoolId`] for the layout.
    pools: Vec<FluidPool>,
    mgr: Manager,
    jobs: JobSlab,
    /// Live jobs per worker, for O(jobs-on-worker) failure handling.
    worker_jobs: Vec<Vec<JobId>>,
    gflops: Vec<f64>,
    rng: ChaCha8Rng,
    trace: Trace,
    lib_records: BTreeMap<LibraryInstanceId, usize>,
    setup_profiles: BTreeMap<String, WorkProfile>,
    /// Submit time of each *pending or in-flight* unit: entries are removed
    /// when a unit finishes or fails (requeues keep theirs), so long
    /// resubmission loops don't grow this map forever.
    submit_times: BTreeMap<UnitId, SimTime>,
    mgr_free_at: SimTime,
    mgr_wake_at: Option<SimTime>,
    app_start: Option<SimTime>,
    connected: usize,
    end: SimTime,
    failed_units: u64,
    events: u64,
    workload: &'w mut dyn Workload,
}

/// Run a workload to completion.
pub fn simulate(cfg: SimConfig, workload: &mut dyn Workload) -> SimResult {
    let mut mgr = Manager::new();
    let mut setup_profiles = BTreeMap::new();
    for (spec, profile) in workload.libraries() {
        setup_profiles.insert(spec.name.clone(), profile);
        mgr.register_library(spec);
    }

    let gflops = assign_gflops(&cfg.groups, cfg.workers, cfg.seed);

    // dense pool vector: fixed slots, then per-worker disks, then uplinks
    let c = &cfg.cost;
    let mut pools = Vec::with_capacity(POOL_FIXED_SLOTS as usize + 2 * cfg.workers);
    pools.push(FluidPool::new(
        c.sharedfs_bytes_per_sec,
        c.sharedfs_client_bytes_per_sec,
    ));
    pools.push(FluidPool::new(c.sharedfs_iops, c.sharedfs_client_iops));
    let mgr_link = if cfg.colocated {
        c.loopback_bytes_per_sec
    } else {
        c.nic_bytes_per_sec
    };
    pools.push(FluidPool::new(mgr_link, mgr_link));
    for _ in 0..cfg.workers {
        pools.push(FluidPool::new(c.disk_bytes_per_sec, c.disk_bytes_per_sec));
    }
    for _ in 0..cfg.workers {
        pools.push(FluidPool::new(c.nic_bytes_per_sec, c.nic_bytes_per_sec));
    }

    let mut driver = Driver {
        q: EventQueue::new(),
        pools,
        mgr,
        jobs: JobSlab::default(),
        worker_jobs: vec![Vec::new(); cfg.workers],
        gflops,
        rng: ChaCha8Rng::seed_from_u64(cfg.seed),
        trace: Trace::default(),
        lib_records: BTreeMap::new(),
        setup_profiles,
        submit_times: BTreeMap::new(),
        mgr_free_at: SimTime::ZERO,
        mgr_wake_at: None,
        app_start: None,
        connected: 0,
        end: SimTime::ZERO,
        failed_units: 0,
        events: 0,
        workload,
        cfg,
    };
    driver.run()
}

impl<'w> Driver<'w> {
    fn disk_pool(&self, w: WorkerId) -> PoolId {
        PoolId(POOL_FIXED_SLOTS + w.0)
    }

    fn uplink_pool(&self, w: WorkerId) -> PoolId {
        PoolId(POOL_FIXED_SLOTS + self.cfg.workers as u32 + w.0)
    }

    fn run(&mut self) -> SimResult {
        // workers begin connecting at t=0; startup ≈ 20 s each (Table 2)
        for w in 0..self.cfg.workers {
            let jitter = 1.0 + self.rng.gen_range(-0.05..0.05);
            let at = SimTime::ZERO + self.cfg.cost.worker_startup * jitter;
            self.q.schedule(at, Ev::WorkerConnect(WorkerId(w as u32)));
        }
        for (secs, idx) in self.cfg.fail_workers.clone() {
            self.q.schedule(
                SimTime::from_secs_f64(secs),
                Ev::WorkerFail(WorkerId(idx as u32)),
            );
        }
        // units are known at submit time (before workers connect)
        for unit in self.workload.initial_units() {
            self.submit_unit(unit, SimTime::ZERO);
        }

        while let Some((t, ev)) = self.q.pop() {
            self.events += 1;
            match ev {
                Ev::WorkerConnect(w) => {
                    self.mgr.worker_joined(w, self.cfg.worker_resources);
                    self.connected += 1;
                    let threshold = (self.cfg.workers as f64 * 0.95).ceil() as usize;
                    if self.connected >= threshold && self.app_start.is_none() {
                        self.app_start = Some(t);
                    }
                    self.wake_mgr(t);
                }
                Ev::WorkerFail(w) => self.fail_worker(t, w),
                Ev::MgrWake => {
                    self.mgr_wake_at = None;
                    self.mgr_step(t);
                }
                Ev::PoolCheck { pool, epoch } => {
                    let p = &mut self.pools[pool.0 as usize];
                    if p.epoch != epoch {
                        continue; // stale
                    }
                    let done = p.take_completed(t);
                    for flow in done {
                        let job_id = JobId(flow);
                        if let Some(job) = self.jobs.get_mut(job_id) {
                            job.active_flow = None;
                        }
                        self.job_step_done(t, job_id);
                    }
                    self.touch_pool(pool, t);
                }
                Ev::JobStep { job } => self.job_step_done(t, job),
            }
        }

        let app_start = self.app_start.unwrap_or(SimTime::ZERO);
        let makespan = self.end.since(app_start);
        self.trace.makespan = makespan;
        SimResult {
            trace: std::mem::take(&mut self.trace),
            app_start,
            end: self.end,
            failed_units: self.failed_units,
            makespan,
            events: self.events,
        }
    }

    fn submit_unit(&mut self, unit: WorkUnit, t: SimTime) {
        let id = match &unit {
            WorkUnit::Task(task) => UnitId::Task(task.id),
            WorkUnit::Call(c) => UnitId::Call(c.id),
        };
        self.submit_times.insert(id, t);
        self.mgr.submit(unit);
    }

    fn wake_mgr(&mut self, t: SimTime) {
        let at = t.max(self.mgr_free_at);
        match self.mgr_wake_at {
            Some(existing) if existing <= at => {}
            _ => {
                self.mgr_wake_at = Some(at);
                self.q.schedule(at, Ev::MgrWake);
            }
        }
    }

    /// One manager service cycle: drain as many decisions as can be taken
    /// before any other event fires, charging each decision's cost
    /// cumulatively (first from `t`, then from the previous completion).
    ///
    /// This replaces the one-decision-per-wake cadence (decide → schedule a
    /// `MgrWake` at `mgr_free_at` → pop it → decide again), which pushed one
    /// heap event per decision. The batched loop produces the *same* decision
    /// sequence at the *same* modeled times: a follow-up wake at `mgr_free_at`
    /// could only observe different manager state if some other event with
    /// time ≤ `mgr_free_at` were processed first (wake events were scheduled
    /// last, so any event `realize` enqueued at exactly `mgr_free_at` has a
    /// smaller sequence number and ran before the wake). Hence we keep
    /// draining while the queue holds nothing at or before `mgr_free_at`,
    /// and otherwise defer to the event loop exactly as the old wake did.
    fn mgr_step(&mut self, t: SimTime) {
        if t < self.mgr_free_at {
            self.wake_mgr(self.mgr_free_at);
            return;
        }
        loop {
            let Some(d) = self.mgr.next_decision() else {
                return; // idle until the next state-changing event
            };
            let cost = self.decision_cost(&d);
            self.mgr_free_at = self.mgr_free_at.max(t) + cost;
            self.realize(d, self.mgr_free_at);
            if self
                .q
                .peek_time()
                .is_some_and(|next| next <= self.mgr_free_at)
            {
                self.wake_mgr(self.mgr_free_at);
                return;
            }
        }
    }

    fn decision_cost(&self, d: &Decision) -> SimDuration {
        let c = &self.cfg.cost;
        match d {
            Decision::DispatchTask { task, missing, .. } => {
                let l1_style = task.inputs.iter().any(|f| f.source == FileSource::SharedFs);
                c.task_dispatch_cost(!l1_style && missing.is_empty(), self.mgr.pending())
            }
            Decision::DispatchCall { .. } => c.call_dispatch_cost(self.mgr.pending()),
            Decision::InstallLibrary { .. } | Decision::EvictLibrary { .. } => {
                c.mgr_library_install
            }
            Decision::Fail { .. } => SimDuration::from_millis(1),
        }
    }

    fn realize(&mut self, d: Decision, start: SimTime) {
        let c = self.cfg.cost.clone();
        match d {
            Decision::Fail { unit, error: _ } => {
                self.failed_units += 1;
                self.submit_times.remove(&unit);
                let more = self.workload.on_complete(unit, false);
                for u in more {
                    self.submit_unit(u, start);
                }
            }
            Decision::EvictLibrary { instance, .. } => {
                if let Some(idx) = self.lib_records.get(&instance) {
                    self.trace.libraries[*idx].removed = Some(start);
                }
            }
            Decision::DispatchCall {
                worker,
                library,
                call,
            } => {
                let mut steps = VecDeque::new();
                steps.push_back(Step {
                    kind: StepKind::Fixed(c.net_latency),
                    phase: Phase::Transfer,
                });
                let mut worker_overhead = c.call_sandbox_setup + c.invocation_handoff;
                let mode = call.exec_mode.unwrap_or(vine_core::task::ExecMode::Direct);
                if mode == vine_core::task::ExecMode::Fork {
                    worker_overhead += c.fork_overhead;
                }
                steps.push_back(Step {
                    kind: StepKind::Fixed(worker_overhead),
                    phase: Phase::Worker,
                });
                steps.push_back(Step {
                    kind: StepKind::Fixed(c.call_args_deserialize),
                    phase: Phase::Library,
                });
                steps.push_back(Step {
                    kind: StepKind::Fixed(self.compute_time(
                        worker,
                        call.profile.exec_gflop,
                        call.resources.cores,
                    )),
                    phase: Phase::Exec,
                });
                let submitted = self.submit_times[&UnitId::Call(call.id)];
                self.start_job(
                    start,
                    Job {
                        id: JobId(0), // assigned by the slab
                        kind: JobKind::Call {
                            id: call.id,
                            library,
                            submitted,
                        },
                        worker,
                        worker_slot: 0,
                        steps,
                        current: None,
                        active_flow: None,
                        step_started: start,
                        dispatched: start,
                        phases: PhaseBreakdown::default(),
                        unit: Some(WorkUnit::Call(call)),
                    },
                );
            }
            Decision::DispatchTask {
                worker,
                task,
                missing,
            } => {
                let mut steps = VecDeque::new();
                // stage cacheable inputs from the manager or a peer
                let staged: u64 = missing.iter().map(|f| f.size_bytes).sum();
                if staged > 0 {
                    let src = self.pick_source(worker, &missing);
                    steps.push_back(Step {
                        kind: StepKind::Flow {
                            pool: src,
                            amount: staged as f64,
                        },
                        phase: Phase::Transfer,
                    });
                } else {
                    steps.push_back(Step {
                        kind: StepKind::Fixed(c.net_latency),
                        phase: Phase::Transfer,
                    });
                }
                // unpack freshly staged archives
                let unpack: u64 = missing
                    .iter()
                    .filter(|f| f.unpacked_bytes > 0)
                    .map(|f| f.unpacked_bytes)
                    .sum();
                let mut worker_fixed = c.sandbox_setup;
                if unpack > 0 {
                    worker_fixed += SimDuration::for_transfer(unpack, c.env_unpack_bytes_per_sec);
                }
                steps.push_back(Step {
                    kind: StepKind::Fixed(worker_fixed),
                    phase: Phase::Worker,
                });
                let l1_style = task.inputs.iter().any(|f| f.source == FileSource::SharedFs);
                if l1_style {
                    // the import storm and context read both hit the
                    // shared filesystem (volumes are workload-specific)
                    if task.profile.sharedfs_ops > 0.0 {
                        steps.push_back(Step {
                            kind: StepKind::Flow {
                                pool: POOL_SHARED_IOPS,
                                amount: task.profile.sharedfs_ops,
                            },
                            phase: Phase::Worker,
                        });
                    }
                    let bytes = task.profile.sharedfs_read_bytes + task.profile.context_read_bytes;
                    if bytes > 0 {
                        steps.push_back(Step {
                            kind: StepKind::Flow {
                                pool: POOL_SHARED_BW,
                                amount: bytes as f64,
                            },
                            phase: Phase::Worker,
                        });
                    }
                }
                // the wrapper's interpreter boot + object deserialization
                // happen inside the invocation process (Table 5's
                // "Library/Invoc. Overhead" column); deserialization only
                // applies when there are input objects to reconstruct
                let mut lib_fixed = c.task_wrapper_overhead;
                if !task.inputs.is_empty() || task.profile.context_read_bytes > 0 {
                    lib_fixed += c.invocation_deserialize;
                }
                steps.push_back(Step {
                    kind: StepKind::Fixed(lib_fixed),
                    phase: Phase::Library,
                });
                // context reconstruction happens *inside* the function at
                // L1/L2, so the paper's measurements count it as execution
                // time (Table 5: L2 exec 5.05 s = param read + model build
                // + 3.08 s of inference); at L1 the read already went over
                // the shared FS above
                if !l1_style && task.profile.context_read_bytes > 0 {
                    steps.push_back(Step {
                        kind: StepKind::Flow {
                            pool: self.disk_pool(worker),
                            amount: task.profile.context_read_bytes as f64,
                        },
                        phase: Phase::Exec,
                    });
                }
                if task.profile.context_gflop > 0.0 {
                    steps.push_back(Step {
                        kind: StepKind::Fixed(self.compute_time(
                            worker,
                            task.profile.context_gflop,
                            task.resources.cores,
                        )),
                        phase: Phase::Exec,
                    });
                }
                let mut exec =
                    self.compute_time(worker, task.profile.exec_gflop, task.resources.cores);
                if l1_style {
                    exec = exec * task.profile.l1_exec_slowdown.max(1.0);
                }
                steps.push_back(Step {
                    kind: StepKind::Fixed(exec),
                    phase: Phase::Exec,
                });
                let submitted = self.submit_times[&UnitId::Task(task.id)];
                self.start_job(
                    start,
                    Job {
                        id: JobId(0), // assigned by the slab
                        kind: JobKind::Task {
                            id: task.id,
                            submitted,
                        },
                        worker,
                        worker_slot: 0,
                        steps,
                        current: None,
                        active_flow: None,
                        step_started: start,
                        dispatched: start,
                        phases: PhaseBreakdown::default(),
                        unit: Some(WorkUnit::Task(task)),
                    },
                );
            }
            Decision::InstallLibrary {
                worker,
                instance,
                spec,
                missing,
            } => {
                let mut steps = VecDeque::new();
                let staged: u64 = missing.iter().map(|f| f.size_bytes).sum();
                if staged > 0 {
                    let src = self.pick_source(worker, &missing);
                    steps.push_back(Step {
                        kind: StepKind::Flow {
                            pool: src,
                            amount: staged as f64,
                        },
                        phase: Phase::Transfer,
                    });
                }
                let unpack: u64 = missing
                    .iter()
                    .filter(|f| f.unpacked_bytes > 0)
                    .map(|f| f.unpacked_bytes)
                    .sum();
                if unpack > 0 {
                    steps.push_back(Step {
                        kind: StepKind::Fixed(SimDuration::for_transfer(
                            unpack,
                            c.env_unpack_bytes_per_sec,
                        )),
                        phase: Phase::Worker,
                    });
                }
                steps.push_back(Step {
                    kind: StepKind::Fixed(c.library_boot),
                    phase: Phase::Library,
                });
                let profile = self
                    .setup_profiles
                    .get(&spec.name)
                    .copied()
                    .unwrap_or_default();
                if profile.context_read_bytes > 0 {
                    steps.push_back(Step {
                        kind: StepKind::Flow {
                            pool: self.disk_pool(worker),
                            amount: profile.context_read_bytes as f64,
                        },
                        phase: Phase::Library,
                    });
                }
                if profile.context_gflop > 0.0 {
                    let cores = spec
                        .resources
                        .map(|r| r.cores)
                        .unwrap_or(self.cfg.worker_resources.cores)
                        .max(1);
                    steps.push_back(Step {
                        kind: StepKind::Fixed(self.compute_time(
                            worker,
                            profile.context_gflop,
                            cores.min(4),
                        )),
                        phase: Phase::Library,
                    });
                }
                self.start_job(
                    start,
                    Job {
                        id: JobId(0), // assigned by the slab
                        kind: JobKind::Install {
                            instance,
                            library_name: spec.name.clone(),
                        },
                        worker,
                        worker_slot: 0,
                        steps,
                        current: None,
                        active_flow: None,
                        step_started: start,
                        dispatched: start,
                        phases: PhaseBreakdown::default(),
                        unit: None,
                    },
                );
            }
        }
    }

    /// Pick the uplink pool to stage `missing` from: a peer that holds all
    /// the files (when peer transfer is on), preferring the least-loaded
    /// uplink; otherwise the manager.
    ///
    /// Candidate peers come from the manager's content-hash → holders index:
    /// only workers caching the first file are walked (ascending id, the same
    /// order the old full-cluster scan visited them, so the strict-less
    /// tie-break picks an identical winner), and each is verified against the
    /// remaining hashes — straight off the `FileRef`s, no scratch allocation.
    fn pick_source(&self, dest: WorkerId, missing: &[vine_core::context::FileRef]) -> PoolId {
        if !self.cfg.peer_transfer {
            return POOL_MANAGER_UPLINK;
        }
        let Some((first, rest)) = missing.split_first() else {
            return POOL_MANAGER_UPLINK;
        };
        let mut best: Option<(usize, PoolId)> = None;
        for wid in self.mgr.holders_of(first.hash) {
            if wid == dest {
                continue;
            }
            let ws = &self.mgr.workers[&wid];
            if rest.iter().all(|f| ws.cache.contains(f.hash)) {
                let key = self.uplink_pool(wid);
                let load = self.pools[key.0 as usize].active();
                if best.is_none_or(|(l, _)| load < l) {
                    best = Some((load, key));
                }
            }
        }
        match best {
            // only offload to a peer that isn't already saturated worse
            // than the manager
            Some((load, key))
                if load <= self.pools[POOL_MANAGER_UPLINK.0 as usize].active() + 2 =>
            {
                key
            }
            _ => POOL_MANAGER_UPLINK,
        }
    }

    /// Modeled compute duration on `worker` for `gflop` of work across
    /// `cores` cores: machine speed × occupancy interference × seeded
    /// jitter with a rare straggler tail.
    fn compute_time(&mut self, worker: WorkerId, gflop: f64, cores: u32) -> SimDuration {
        if gflop <= 0.0 {
            return SimDuration::ZERO;
        }
        let rating = self
            .gflops
            .get(worker.0 as usize)
            .copied()
            .unwrap_or(self.cfg.cost.reference_gflops);
        let base = gflop / (rating * f64::from(cores.max(1)));
        let occupancy = self
            .mgr
            .workers
            .get(&worker)
            .map(|w| w.occupancy())
            .unwrap_or(0.0);
        let contention = 1.0 + occupancy * (self.cfg.cost.full_occupancy_slowdown - 1.0);
        let jitter = (self.rng.gen_range(-0.08f64..0.08)).exp();
        // stragglers are *additive* stalls (page-cache misses, preemption,
        // cgroup throttling): a pause costs the same wall-clock whether
        // the task runs 5 s or 500 s — which is why the paper's max/mean
        // ratio shrinks as invocations lengthen (Table 4 vs Fig 8) — and
        // the chance of hitting one grows with how long the task runs
        let p_stall = (0.001 * base).min(0.5);
        let stall = if p_stall > 0.0 && self.rng.gen_bool(p_stall) {
            self.rng.gen_range(5.0..35.0)
        } else {
            0.0
        };
        SimDuration::from_secs_f64(base * contention * jitter + stall)
    }

    fn start_job(&mut self, t: SimTime, mut job: Job) {
        let w = job.worker.0 as usize;
        job.worker_slot = self.worker_jobs[w].len() as u32;
        let id = self.jobs.insert(job);
        self.worker_jobs[w].push(id);
        self.begin_next_step(t, id);
    }

    /// Remove a finished job, unlinking it from its worker's job index.
    /// The index is patched by swap-remove; `fail_worker` takes a worker's
    /// whole list at once, in which case the positional guard skips the
    /// (already-empty) list.
    fn remove_job(&mut self, id: JobId) -> Option<Job> {
        let job = self.jobs.remove(id)?;
        let list = &mut self.worker_jobs[job.worker.0 as usize];
        let pos = job.worker_slot as usize;
        if pos < list.len() && list[pos] == id {
            list.swap_remove(pos);
            if let Some(&moved) = list.get(pos) {
                if let Some(mj) = self.jobs.get_mut(moved) {
                    mj.worker_slot = pos as u32;
                }
            }
        }
        Some(job)
    }

    fn begin_next_step(&mut self, t: SimTime, job_id: JobId) {
        let Some(job) = self.jobs.get_mut(job_id) else {
            return;
        };
        job.step_started = t;
        match job.steps.pop_front() {
            None => {
                job.current = None;
                self.finish_job(t, job_id);
            }
            Some(step) => {
                job.current = Some(step);
                if let StepKind::Flow { pool, .. } = step.kind {
                    job.active_flow = Some(pool);
                }
                match step.kind {
                    StepKind::Fixed(d) => self.q.schedule(t + d, Ev::JobStep { job: job_id }),
                    StepKind::Flow { pool, amount } => {
                        self.pools[pool.0 as usize].add(t, job_id.flow(), amount);
                        self.touch_pool(pool, t);
                    }
                }
            }
        }
    }

    fn job_step_done(&mut self, t: SimTime, job_id: JobId) {
        let Some(job) = self.jobs.get_mut(job_id) else {
            return; // job cancelled (worker died)
        };
        let Some(step) = job.current.take() else {
            return;
        };
        let elapsed = t.since(job.step_started);
        match step.phase {
            Phase::Transfer => job.phases.transfer += elapsed,
            Phase::Worker => job.phases.worker_overhead += elapsed,
            Phase::Library => job.phases.library_overhead += elapsed,
            Phase::Exec => job.phases.exec += elapsed,
        }
        self.begin_next_step(t, job_id);
    }

    fn finish_job(&mut self, t: SimTime, job_id: JobId) {
        let job = self.remove_job(job_id).expect("finishing a live job");
        match job.kind {
            JobKind::Call {
                id,
                library,
                submitted,
            } => {
                self.trace.invocations.push(InvocationRecord {
                    id,
                    worker: job.worker,
                    library: Some(library),
                    level: self.cfg.level,
                    submitted,
                    dispatched: job.dispatched,
                    finished: t,
                    phases: job.phases,
                    success: true,
                });
                if let Some(idx) = self.lib_records.get(&library) {
                    self.trace.libraries[*idx].served += 1;
                }
                let _ = self.mgr.unit_finished(UnitId::Call(id));
                self.submit_times.remove(&UnitId::Call(id));
                self.end = self.end.max(t);
                let more = self.workload.on_complete(UnitId::Call(id), true);
                for u in more {
                    self.submit_unit(u, t);
                }
                self.wake_mgr(t);
            }
            JobKind::Task { id, submitted } => {
                self.trace.invocations.push(InvocationRecord {
                    // wrapped invocations are traced under the task's number
                    id: InvocationId(id.0),
                    worker: job.worker,
                    library: None,
                    level: self.cfg.level,
                    submitted,
                    dispatched: job.dispatched,
                    finished: t,
                    phases: job.phases,
                    success: true,
                });
                let _ = self.mgr.unit_finished(UnitId::Task(id));
                self.submit_times.remove(&UnitId::Task(id));
                self.end = self.end.max(t);
                let more = self.workload.on_complete(UnitId::Task(id), true);
                for u in more {
                    self.submit_unit(u, t);
                }
                self.wake_mgr(t);
            }
            JobKind::Install {
                instance,
                library_name,
            } => {
                if self.mgr.library_ready(job.worker, instance).is_ok() {
                    self.lib_records
                        .insert(instance, self.trace.libraries.len());
                    self.trace.libraries.push(LibraryRecord {
                        id: instance,
                        worker: job.worker,
                        library_name,
                        deployed: t,
                        removed: None,
                        served: 0,
                        phases: job.phases,
                    });
                }
                self.wake_mgr(t);
            }
        }
    }

    fn fail_worker(&mut self, t: SimTime, w: WorkerId) {
        self.mgr.worker_left(w);
        // cancel this worker's in-flight jobs and requeue their units, in
        // dispatch order (ascending JobId = the order the old full-scan
        // visited them); only this worker's jobs are touched
        let mut doomed = std::mem::take(&mut self.worker_jobs[w.0 as usize]);
        doomed.sort_unstable();
        for job_id in doomed {
            let Some(job) = self.jobs.remove(job_id) else {
                continue;
            };
            if let Some(pool) = job.active_flow {
                self.pools[pool.0 as usize].cancel(t, job_id.flow());
                self.touch_pool(pool, t);
            }
            if let Some(unit) = job.unit {
                self.mgr.requeue(unit);
            }
        }
        // close out the worker's library records
        for idx in self.lib_records.values() {
            let rec = &mut self.trace.libraries[*idx];
            if rec.worker == w && rec.removed.is_none() {
                rec.removed = Some(t);
            }
        }
        self.wake_mgr(t);
    }

    fn touch_pool(&mut self, pool: PoolId, t: SimTime) {
        let p = &mut self.pools[pool.0 as usize];
        if let Some(at) = p.next_completion(t) {
            let epoch = p.epoch;
            self.q.schedule(at, Ev::PoolCheck { pool, epoch });
        }
    }
}
