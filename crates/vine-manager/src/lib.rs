//! # vine-manager
//!
//! The manager: the single coordinator that registers libraries, admits
//! workers, schedules work units, and handles faults (paper §3.5.2).
//!
//! Scheduling policy, from the paper:
//!
//! * the manager "sequentially checks a hash ring of connected workers" for
//!   one that can host a library instance or an invocation ([`ring`]);
//! * it "holds on to that worker and sends as many invocations as available
//!   slots the library currently has";
//! * a library instance is a special task that "by itself doesn't do any
//!   actual work", so when an invocation of *another* library needs room,
//!   the manager "instructs the worker to remove that [empty] library and
//!   reclaim resources" ([`Decision::EvictLibrary`]).
//!
//! [`Manager`] is — like [`vine_worker::WorkerState`] — a pure state
//! machine: [`Manager::next_decision`] emits [`Decision`]s and applies
//! their bookkeeping immediately; the execution substrate (simulator or
//! live runtime) attaches time and I/O and feeds back completion events.
//!
//! For federated deployments, N managers run side by side as scheduling
//! shards, each owning a worker partition, behind a [`ShardRouter`]
//! front-end that hashes each submission's function-context digest onto a
//! virtual-node ring of shards ([`router`]).

pub mod index;
pub mod manager;
pub mod reference;
pub mod ring;
pub mod router;

pub use manager::{Decision, Manager, Placement};
pub use ring::HashRing;
pub use router::{ShardRouter, SHARD_VNODES};
