//! # vine-data
//!
//! The data plane. Two pieces:
//!
//! * [`images::CompiledImageStore`] — content-addressed interning of
//!   compiled library images by source digest: the manager compiles each
//!   distinct library source once, and workers hold one copy of shipped
//!   image bytes no matter how many library instances use them.
//! * [`cache::WorkerCache`] — a worker's local store, keyed by content
//!   hash, with LRU eviction, pinning for in-use files, and strict capacity
//!   accounting. This is where the **retain** mechanism keeps context on
//!   disk between invocations (reuse level L2).

pub mod cache;
pub mod images;

pub use cache::WorkerCache;
pub use images::CompiledImageStore;
