#![warn(missing_docs)]
//! # IO-Lite: a unified I/O buffering and caching system
//!
//! A Rust reproduction of Pai, Druschel & Zwaenepoel,
//! *"IO-Lite: A Unified I/O Buffering and Caching System"*
//! (OSDI '99 / ACM TOCS 18(1), 2000).
//!
//! IO-Lite stores all I/O data in **immutable buffers** shared read-only
//! by every subsystem — applications, IPC, the file cache, the network —
//! and manipulates it through **mutable buffer aggregates** (ordered
//! lists of ⟨pointer, length⟩ slices). This eliminates all redundant
//! copying and multiple buffering, and enables cross-subsystem
//! optimizations such as Internet-checksum caching.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | contents | paper |
//! |---|---|---|
//! | [`buf`] | immutable buffers, slices, aggregates, ACL'd pools | §3.1, §3.3, §4.5 |
//! | [`vm`] | the IO-Lite window, memory accounting (§3.7 pageout and §3.8 `mmap` views assumed, not simulated) | §3.7, §3.8, §4.3 |
//! | [`fs`] | disk model, unified file cache, LRU/GDS policies | §3.5, §4.2 |
//! | [`net`] | checksum cache, TCP send accounting and reassembly model (§4.1 mbufs assumed, not simulated) | §3.6, §3.9, §4.1 |
//! | [`ipc`] | copy-mode and zero-copy pipes | §3.2, §4.4 |
//! | [`core`] | the kernel facade, `IOL_read`/`IOL_write`, POSIX, costs | §3.4, §4 |
//! | [`http`] | Flash / Flash-Lite / Apache models + experiment driver | §3.10, §5 |
//! | [`trace`] | synthetic Rice traces (Figs. 7, 9) | §5.4–§5.5 |
//! | [`apps`] | converted UNIX utilities (Fig. 13) | §5.8 |
//! | [`sim`] | deterministic discrete-event substrate | — |
//! | [`storm`] | whole-system simulation: adversarial wire, fault storms | — |
//!
//! # Quick start
//!
//! ```
//! use iolite::buf::{Acl, Aggregate, BufferPool, DomainId, PoolId};
//!
//! // A pool whose buffers are readable by domain 1 (plus the kernel).
//! let pool = BufferPool::new(PoolId(1), Acl::with_domain(DomainId(1)), 64 * 1024);
//!
//! // Immutable data, mutable aggregates: mutation chains new buffers
//! // with untouched slices instead of copying.
//! let v1 = Aggregate::from_bytes(&pool, b"GET /old.html HTTP/1.0");
//! let v2 = v1.replace(&pool, 5, 3, b"new").unwrap();
//! assert_eq!(v2.to_vec(), b"GET /new.html HTTP/1.0");
//! assert_eq!(v1.to_vec(), b"GET /old.html HTTP/1.0"); // Snapshot intact.
//! // The unchanged tail is *shared*, not copied.
//! assert!(v2.slices().last().unwrap().same_buffer(v1.slices().last().unwrap()));
//! ```
//!
//! Run `cargo run --release --bin repro -- all` (in `crates/bench`) to
//! regenerate every figure of the paper's evaluation; see EXPERIMENTS.md
//! for paper-vs-measured numbers.

pub use iolite_apps as apps;
pub use iolite_buf as buf;
pub use iolite_core as core;
pub use iolite_fs as fs;
pub use iolite_http as http;
pub use iolite_ipc as ipc;
pub use iolite_net as net;
pub use iolite_sim as sim;
pub use iolite_storm as storm;
pub use iolite_trace as trace;
pub use iolite_vm as vm;
