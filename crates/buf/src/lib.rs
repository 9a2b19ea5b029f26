#![warn(missing_docs)]
//! The IO-Lite buffer system: immutable I/O buffers and mutable buffer
//! aggregates (paper §3.1, §3.3, §4.5).
//!
//! All I/O data in IO-Lite lives in **immutable buffers** whose physical
//! location never changes; every subsystem (file cache, network, IPC,
//! applications) shares single physical copies read-only. Subsystems
//! manipulate data through **buffer aggregates** — ordered lists of
//! ⟨pointer, length⟩ *slices* into those buffers. Mutation allocates new
//! buffers for the changed bytes and chains them with the unchanged
//! slices. §3.1's footnote — modifying a buffer in place when no other
//! reference can observe it — is assumed, not simulated: nothing here
//! writes into a buffer after it is filled, and no cost is billed for it.
//!
//! Buffers are allocated from per-ACL **pools** in 64KB **chunks** (the
//! access-control granularity of §4.5). Chunks recycle: when every
//! allocation in a chunk has been dropped, the chunk returns to its
//! pool's free list and the next allocation reuses it with a bumped
//! **generation number** — the mechanism behind both the cheap
//! steady-state IPC of §3.2 (mappings persist across recycling) and the
//! checksum cache of §3.9 (⟨address, generation⟩ uniquely identifies
//! contents system-wide).
//!
//! A buffer's bytes may be produced when it is first read rather than
//! when it is sealed ([`BufMut::freeze_lazy`]: disk data no one reads
//! costs no host memory); immutability is unchanged, since a pure
//! [`Producer`] fixes them at seal time.
//!
//! This crate is pure data-plane: it moves real bytes; what a chunk's
//! first sight costs a domain in VM mappings is the `iolite-vm` window's
//! bookkeeping. The enclosing simulation is deterministic and sequential.
//!
//! # Fast-path guarantees
//!
//! An aggregate's slice list lives inside it up to
//! [`Aggregate::INLINE_SLICES`] slices — passing a request, a header or
//! a header plus ≤ 128 KB of body by value allocates nothing — and
//! beyond that in a deque with a cumulative-offset index, so
//! the structural operations match the cost model the paper argues from
//! (§3.8) rather than degrading linearly with fragmentation: indexing
//! ([`Aggregate::byte_at`]) is O(log n) in the slice count,
//! [`Aggregate::range`]/[`Aggregate::copy_to`] are O(log n + k) for k
//! slices touched, [`Aggregate::advance`]/[`Aggregate::truncate`] trim
//! in place (amortized O(1) per dropped slice), prepending is O(1)
//! amortized per slice, and [`Aggregate::pack`] copies each byte exactly
//! once. Hot consumers iterate byte runs through the zero-alloc
//! [`AggCursor`] / [`Aggregate::chunks`] APIs instead of per-byte
//! indexing or `to_vec` materialization; see the [`aggregate`] module docs for the full complexity and allocation
//! table. Kernel tables keyed by ids the kernel minted itself probe
//! through the seed-free [`FixedMap`] rather than std's SipHash.
//!
//! # Examples
//!
//! ```
//! use iolite_buf::{Acl, Aggregate, BufferPool, DomainId, PoolId};
//!
//! let pool = BufferPool::new(PoolId(1), Acl::with_domain(DomainId(7)), 64 * 1024);
//! let hello = Aggregate::from_bytes(&pool, b"hello, ");
//! let world = Aggregate::from_bytes(&pool, b"world");
//! let both = hello.concat(&world);
//! assert_eq!(both.to_vec(), b"hello, world");
//! ```

pub mod acl;
pub mod aggregate;
pub mod cursor;
pub mod digest;
pub mod error;
pub mod fork;
pub mod hash;
pub mod ids;
mod list;
pub mod pool;
pub mod reader;
pub mod slice;

pub use acl::Acl;
pub use aggregate::Aggregate;
pub use cursor::AggCursor;
pub use digest::{digest_aggregate, splitmix64, Fnv64};
pub use error::BufError;
pub use fork::PoolForker;
pub use hash::{FixedMap, FixedState};
pub use ids::{BufferId, ChunkId, DomainId, Generation, PoolId};
pub use pool::{BufMut, BufferPool, PoolStats};
pub use reader::AggReader;
pub use slice::{Producer, Slice};

/// The virtual-memory page size the paper's prototype uses (FreeBSD x86).
pub const PAGE_SIZE: usize = 4096;

/// The default chunk size: the §4.5 access-control granularity.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;
