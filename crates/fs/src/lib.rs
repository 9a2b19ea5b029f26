#![warn(missing_docs)]
//! File-system substrate: disk model, file store, metadata cache, and
//! the unified IO-Lite file cache (paper §3.5, §3.7, §4.2).
//!
//! The paper replaces the 4.4BSD unified buffer cache with the IO-Lite
//! file cache: "a data structure that maps triples of the form
//! ⟨file-id, offset, length⟩ to buffer aggregates that contain the
//! corresponding extent of file data". File-system code below the
//! block-oriented interface is unchanged; metadata stays in the "old"
//! buffer cache.
//!
//! This crate provides:
//!
//! * [`DiskModel`] + [`FileStore`] — a simulated disk: per-file contents
//!   (synthetic, deterministic, so multi-gigabyte trace data sets need no
//!   host memory) and a seek+transfer timing model.
//! * [`MetadataCache`] — the retained "old" buffer cache for metadata.
//! * [`UnifiedCache`] — the IO-Lite file cache over buffer aggregates,
//!   with snapshot-preserving writes, pinning for currently referenced
//!   entries, and pluggable replacement ([`Policy::Lru`] — which, with
//!   pin-awareness, is exactly the paper's default two-level rule — and
//!   [`Policy::Gds`], the Greedy Dual-Size policy Flash-Lite installs,
//!   §5). Built for scale: pinned and unpinned entries live in
//!   separate ordered indexes, so eviction is O(log n) no matter how
//!   many entries the network holds referenced (see the
//!   [`cache`] module docs for the full complexity contract).

pub mod cache;
pub mod disk;
pub mod meta;
pub mod ownership;
pub mod policy;
pub mod writeback;

pub use cache::{CacheKey, CacheStats, UnifiedCache};
pub use disk::{stream_synthetic, DiskModel, FileContent, FileId, FileStore};
pub use meta::MetadataCache;
pub use ownership::{home_shard, CacheOwnership};
pub use policy::Policy;
pub use writeback::{Staged, WritebackConfig, WritebackScheduler};
