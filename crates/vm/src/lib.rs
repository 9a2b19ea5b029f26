#![warn(missing_docs)]
//! Simulated virtual-memory substrate for IO-Lite (paper §3.3, §3.7,
//! §4.3, §4.5).
//!
//! The paper's prototype reuses the BSD VM system: the IO-Lite window is
//! a VM object mapped into every protection domain, access control works
//! at 64KB-chunk granularity, the pageout daemon triggers file-cache
//! eviction, and `mmap` provides contiguous in-place views with lazy
//! copying. This crate models those mechanisms as real data structures:
//!
//! * [`IoLiteWindow`] — per-domain chunk mapping tables; reports how
//!   many *new* page mappings a transfer required (the §3.2 cost
//!   driver: recycled buffers need none).
//! * [`PhysMemory`] — a named-account physical memory budget for the
//!   128MB testbed; the file cache, socket buffers, and per-process
//!   overheads compete here, which is what the WAN experiment (§5.7)
//!   measures.
//! * [`PageoutDaemon`] — the §3.7 eviction trigger: evict a cache entry
//!   when more than half of recently replaced pages held cached I/O
//!   data.
//! * [`MmapView`] — the §3.8 "case 3" contiguous mapping with lazy
//!   per-page copies for unaligned data and copy-on-write against
//!   IO-Lite snapshots.

pub mod mmap;
pub mod pager;
pub mod physmem;
pub mod window;

pub use mmap::MmapView;
pub use pager::{PageClass, PageoutAction, PageoutDaemon};
pub use physmem::{MemAccount, PhysMemory};
pub use window::{AccessDenied, IoLiteWindow};
