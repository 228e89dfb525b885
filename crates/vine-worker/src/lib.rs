//! # vine-worker
//!
//! The worker half of the **retain** mechanism (paper §2.2.3, §3.4). A
//! worker hosts:
//!
//! * a content-addressed [`vine_data::WorkerCache`] (context on disk — L2),
//! * zero or more [`library::LibraryInstance`]s — daemon processes that ran
//!   a context setup once and now serve invocations from memory (L3),
//! * per-unit [`sandbox::Sandbox`]es for running tasks and invocations,
//! * strict resource accounting (§2.1.3: "a worker must be able to account
//!   for such resource occupation ... and report such consumption back to
//!   the manager").
//!
//! [`state::WorkerState`] is a *pure state machine*: it validates and
//! applies transitions but attaches no timing and performs no I/O. The
//! discrete-event simulator drives it with modeled durations; the live
//! threaded runtime drives it with real libraries on real threads. Both
//! substrates therefore exercise identical accounting and protocol logic.

pub mod library;
pub mod sandbox;
pub mod state;

pub use library::{LibState, LibraryInstance};
pub use sandbox::Sandbox;
pub use state::WorkerState;
