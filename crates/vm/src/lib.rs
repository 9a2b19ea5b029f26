#![warn(missing_docs)]
//! Simulated virtual-memory substrate for IO-Lite (paper §3.3, §4.3,
//! §4.5).
//!
//! The paper's prototype reuses the BSD VM system: the IO-Lite window is
//! a VM object mapped into every protection domain, and access control
//! works at 64KB-chunk granularity. This crate models those mechanisms
//! as real data structures:
//!
//! * [`IoLiteWindow`] — per-domain chunk mapping tables; reports how
//!   many *new* page mappings a transfer required (the §3.2 cost
//!   driver: recycled buffers need none).
//! * [`PhysMemory`] — a named-account physical memory budget for the
//!   128MB testbed; the file cache, socket buffers, and per-process
//!   overheads compete here, which is what the WAN experiment (§5.7)
//!   measures.
//!
//! Two VM mechanisms of the paper are **assumed, not simulated**, because
//! its evaluation (§5) never isolates them:
//!
//! * §3.7's pageout trigger, which evicts a cache entry when more than
//!   half of recently replaced pages held cached I/O data. The file
//!   cache here is exactly the memory [`PhysMemory::cache_budget`]
//!   leaves it; no workload pages other memory.
//! * §3.8 case 3's lazy, copy-on-write `mmap` view. The §5.8
//!   applications run the POSIX and IO-Lite APIs; Flash's and Apache's
//!   mapped document reads are `iolite_core::Kernel::mapped_read`, which
//!   bills an `mmap`/`munmap` cycle plus first-time page mappings.

pub mod physmem;
pub mod window;

pub use physmem::{MemAccount, PhysMemory};
pub use window::{AccessDenied, IoLiteWindow};
