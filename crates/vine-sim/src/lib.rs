//! # vine-sim
//!
//! A deterministic discrete-event simulator that executes vine-rs
//! workloads on a modeled cluster — the substitution for the paper's
//! 201-machine HTCondor pool (DESIGN.md §2). The real [`vine_manager`]
//! scheduler, with the worker accounting it embeds, runs unmodified; only
//! *time* is simulated:
//!
//! * manager bookkeeping is a single-server queue with per-decision costs
//!   from [`vine_core::CostModel`];
//! * contended devices (shared-FS bandwidth and IOPS, worker SSDs, NICs)
//!   are processor-shared fluid pools ([`engine::FluidPool`]);
//! * compute time scales with each machine group's per-core GFLOPS
//!   (Table 3, [`cluster`]) plus occupancy-dependent interference and
//!   seeded jitter.
//!
//! Paper-scale runs (100k invocations × 150 workers) complete in seconds
//! and produce a [`vine_core::trace::Trace`] from which every table and
//! figure of the evaluation is regenerated.

pub mod cluster;
pub mod engine;
pub mod reference;
pub mod run;
pub mod sharded;

pub use cluster::{assign_gflops, paper_groups, MachineGroup};
pub use reference::simulate_reference;
pub use run::{simulate, SimConfig, SimResult, Workload};
pub use sharded::{simulate_sharded, ShardedResult};
