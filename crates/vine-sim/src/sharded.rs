//! Federated-sharding simulation: N scheduling shards behind the
//! routing front-end, each shard its own dense-event sub-simulation.
//!
//! The routing tier ([`vine_manager::ShardRouter`]) is driven exactly as
//! the live `repro route` process drives it: every library registers its
//! function-context digest, every submission hashes onto the shard
//! vnode ring, and the worker fleet partitions across shards by the same
//! ring. Each shard then runs the unmodified single-shard simulator
//! ([`crate::simulate`]) over its partition — shards share no state, so
//! the sub-simulations run in parallel under the `--jobs` sweep while
//! staying bit-reproducible (results are merged in shard order).
//!
//! Scope: workloads must be *static* (all units known at start, like
//! LNNI's full non-overlapping sweep). Completion-driven submission
//! (`Workload::on_complete`) would couple shards through the client and
//! is not modeled here; chained units are ignored.
//!
//! A federation of one is the degenerate case: all units and all workers
//! land on shard 0 in submission order, so `simulate_sharded(cfg, 1, w)`
//! is trace-for-trace identical to `simulate(cfg, w)` — pinned by
//! `tests/sharded_tests.rs`.

use rayon::prelude::*;

use crate::run::{simulate, SimConfig, SimResult, Workload};
use vine_core::ids::{InvocationId, ShardId, WorkerId};
use vine_core::task::{WorkProfile, WorkUnit};
use vine_core::LibrarySpec;
use vine_manager::ShardRouter;

/// Outcome of one federated run.
#[derive(Debug)]
pub struct ShardedResult {
    /// Per-shard sub-simulation results, indexed by shard id.
    pub shards: Vec<SimResult>,
    /// Units routed to each shard (same indexing).
    pub routed: Vec<u64>,
    /// Workers partitioned to each shard (same indexing).
    pub workers: Vec<usize>,
    /// Units completed across the federation.
    pub completed: u64,
    /// Units that failed across the federation.
    pub failed: u64,
    /// Slowest shard's application execution time — the federation's
    /// completion time, since shards run concurrently.
    pub makespan_s: f64,
    /// Aggregate submission throughput: completed units per second of
    /// federation makespan.
    pub throughput: f64,
    /// Discrete events processed across all sub-simulations.
    pub events: u64,
}

/// Per-shard static workload: the slice of submissions the router hashed
/// to one shard. Every library registers on every shard (deployment is
/// demand-driven, so unused registrations cost nothing).
struct ShardSlice {
    libs: Vec<(LibrarySpec, WorkProfile)>,
    units: Vec<WorkUnit>,
}

impl Workload for ShardSlice {
    fn libraries(&self) -> Vec<(LibrarySpec, WorkProfile)> {
        self.libs.clone()
    }

    fn initial_units(&mut self) -> Vec<WorkUnit> {
        std::mem::take(&mut self.units)
    }
}

/// Run `workload` on a federation of `shards` scheduling shards.
///
/// `cfg` describes the whole fleet; each shard's sub-simulation sees its
/// worker partition and routed submissions. `cfg.fail_workers` indices
/// refer to fleet worker ids and are forwarded to whichever shard owns
/// that worker.
pub fn simulate_sharded(
    cfg: &SimConfig,
    shards: usize,
    workload: &mut dyn Workload,
) -> ShardedResult {
    assert!(shards >= 1, "a federation needs at least one shard");
    let mut router = ShardRouter::new();
    for s in 0..shards {
        router.shard_joined(ShardId(s as u32));
    }

    let libs = workload.libraries();
    for (spec, _) in &libs {
        router.register_library(spec);
    }

    // ---- route submissions (preserving per-shard submission order) ----
    let mut units: Vec<Vec<WorkUnit>> = vec![Vec::new(); shards];
    for unit in workload.initial_units() {
        let s = router.shard_for_unit(&unit).expect("shards joined");
        units[s.0 as usize].push(unit);
    }

    // ---- partition the worker fleet over the same ring ----------------
    let fleet: Vec<WorkerId> = (0..cfg.workers as u32).map(WorkerId).collect();
    let parts = router.partition(&fleet);
    let mut partition: Vec<Vec<WorkerId>> = (0..shards)
        .map(|s| parts[&ShardId(s as u32)].clone())
        .collect();
    // a shard that drew no workers from the ring but owns work steals one
    // from the largest partition — a routed unit must never strand
    while let Some(empty) = (0..shards).find(|&s| partition[s].is_empty() && !units[s].is_empty()) {
        let donor = (0..shards)
            .max_by_key(|&s| partition[s].len())
            .expect("at least one shard");
        assert!(partition[donor].len() > 1, "fewer workers than busy shards");
        let w = partition[donor].pop().expect("donor has workers");
        partition[empty].push(w);
    }

    // ---- one sub-simulation per shard, in parallel ---------------------
    let inputs: Vec<(usize, Vec<WorkerId>, Vec<WorkUnit>)> = partition
        .iter()
        .zip(units)
        .enumerate()
        .map(|(s, (ws, us))| (s, ws.clone(), us))
        .collect();
    let results: Vec<SimResult> = inputs
        .into_par_iter()
        .map(|(s, ws, us)| {
            let mut sub = cfg.clone();
            sub.workers = ws.len();
            // decorrelate jitter streams across shards; shard 0 of a
            // federation of one keeps the fleet seed (bit-identity)
            sub.seed = cfg.seed ^ (s as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            // fault injection follows the worker to the shard owning it
            sub.fail_workers = cfg
                .fail_workers
                .iter()
                .filter_map(|&(t, fleet_idx)| {
                    ws.iter()
                        .position(|w| w.0 as usize == fleet_idx)
                        .map(|local| (t, local))
                })
                .collect();
            let mut slice = ShardSlice {
                libs: libs.clone(),
                units: us,
            };
            simulate(sub, &mut slice)
        })
        .collect();

    let routed: Vec<u64> = results
        .iter()
        .map(|r| r.trace.invocations.len() as u64 + r.failed_units)
        .collect();
    let completed: u64 = results
        .iter()
        .map(|r| r.trace.invocations.len() as u64)
        .sum();
    let failed: u64 = results.iter().map(|r| r.failed_units).sum();
    let makespan_s = results
        .iter()
        .map(|r| r.makespan.as_secs_f64())
        .fold(0.0f64, f64::max);
    let events = results.iter().map(|r| r.events).sum();
    ShardedResult {
        workers: partition.iter().map(Vec::len).collect(),
        routed,
        completed,
        failed,
        makespan_s,
        throughput: if makespan_s > 0.0 {
            completed as f64 / makespan_s
        } else {
            0.0
        },
        events,
        shards: results,
    }
}

/// Every completed unit id across the federation, sorted — the
/// completeness check (nothing lost, nothing duplicated by routing).
pub fn completed_unit_ids(r: &ShardedResult) -> Vec<InvocationId> {
    let mut ids: Vec<InvocationId> = r
        .shards
        .iter()
        .flat_map(|s| s.trace.invocations.iter().map(|i| i.id))
        .collect();
    ids.sort_unstable();
    ids
}
