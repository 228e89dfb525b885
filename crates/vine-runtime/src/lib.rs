//! # vine-runtime
//!
//! The **live** execution substrate: a manager and N workers in one
//! process, workers as real OS threads, libraries as real daemon threads
//! executing real [`vine_lang`] functions. Where [`vine_sim`] models time,
//! this runtime spends it — which is what validates that the §3.4
//! worker ↔ library protocol and the discover/distribute/retain pipeline
//! actually *work*, and what produces the live Table 2 measurements.
//!
//! Execution semantics mirror the paper exactly:
//!
//! * a **task** (L1/L2) builds a fresh interpreter, reconstructs the
//!   shipped code (source or serialized), runs it, and throws the
//!   interpreter away — context reloaded every time;
//! * a **library** (L3) builds its interpreter once, runs the context
//!   setup function once, reports [`LibraryToWorker::Ready`], then serves
//!   invocations against the retained globals; `Direct` mode executes in
//!   the daemon thread, `Fork` mode deep-clones the namespace into a child
//!   thread (copy-on-write fork semantics: mutations don't leak back).
//!
//! The scheduling brain is the same [`vine_manager::Manager`] the
//! simulator drives — one scheduler, two substrates.

//!
//! All manager ↔ worker traffic flows through the [`transport::Transport`]
//! trait: the in-process backend keeps the historical threads-and-channels
//! substrate, the TCP backend ([`reactor`]) frames the same [`vine_proto`]
//! messages over sockets to workers in other OS processes — one epoll
//! reactor thread serving the whole fleet.
//!
//! [`federation`] runs N such runtimes as scheduling shards behind a
//! router, which serves its shard connections from the same reactor.

pub mod federation;
pub mod library_host;
pub mod reactor;
pub mod runtime;
pub mod transport;
pub mod worker_host;

pub use library_host::LibraryImage;
pub use reactor::{TcpConfig, TcpTransport};
pub use runtime::{decode_result, Runtime, RuntimeConfig};
pub use transport::{
    run_tcp_worker, InProcTransport, RecvError, Transport, TransportEvent, TransportStats,
    WorkerTransportStats,
};
