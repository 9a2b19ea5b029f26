//! Buffer pools: chunked, ACL-tagged, recycling allocators (§3.3, §4.5).
//!
//! A pool hands out writable allocations ([`BufMut`]) carved from 64KB
//! chunks. Freezing a `BufMut` yields an immutable [`Slice`]. When every
//! allocation in a chunk has been dropped, the chunk is *recycled*: the
//! next use bumps its generation number and — crucially for the IPC cost
//! model of §3.2 — requires **no** new VM mappings in the domains that
//! already saw it, because read-only mappings persist after deallocation.
#![expect(
    clippy::disallowed_types,
    reason = "ROADMAP item 1 replaces the pool's Mutex"
)]

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::acl::Acl;
use crate::error::BufError;
use crate::ids::{BufferId, ChunkId, DomainId, Generation, PoolId};
use crate::slice::{BufferInner, ChunkState, Producer, Slice};

/// Counters describing a pool's allocation behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served.
    pub allocs: u64,
    /// Bytes handed out (payload, not chunk padding).
    pub bytes_allocated: u64,
    /// Brand-new chunks created.
    pub chunks_created: u64,
    /// Chunks reused after draining.
    pub chunks_recycled: u64,
}

struct PoolInner {
    acl: Acl,
    next_chunk: u64,
    /// The chunk currently being bump-allocated, and its fill offset.
    open: Option<(Arc<ChunkState>, usize)>,
    /// Chunks known to be fully drained and ready for reuse.
    free: Vec<Arc<ChunkState>>,
    /// Every chunk this pool has created.
    registry: Vec<Arc<ChunkState>>,
    stats: PoolStats,
}

/// A pool of IO-Lite buffers sharing one access-control list.
///
/// Cloning the handle shares the pool. All data allocated from one pool
/// is readable by exactly the domains on its ACL (§3.3: "the choice of a
/// pool from which a new IO-Lite buffer is allocated determines the ACL
/// of the data stored in the buffer").
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Mutex<PoolInner>>,
    // Fixed at construction, so reading them takes no lock.
    id: PoolId,
    chunk_size: usize,
}

impl BufferPool {
    /// Creates a pool with the given identity, ACL, and chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn new(id: PoolId, acl: Acl, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        BufferPool {
            inner: Arc::new(Mutex::new(PoolInner {
                acl,
                next_chunk: 0,
                open: None,
                free: Vec::new(),
                registry: Vec::new(),
                stats: PoolStats::default(),
            })),
            id,
            chunk_size,
        }
    }

    /// The pool's identity.
    pub fn id(&self) -> PoolId {
        self.id
    }

    /// The pool's access-control list.
    pub fn acl(&self) -> Acl {
        self.inner.lock().unwrap().acl.clone()
    }

    /// Grants an additional domain read access to buffers allocated
    /// from this pool from now on.
    ///
    /// Existing slices snapshot the ACL at allocation time, so this only
    /// affects future allocations; the paper's servers set ACLs up front
    /// (one pool per CGI instance, §3.10).
    pub fn grant(&self, d: DomainId) {
        self.inner.lock().unwrap().acl.grant(d);
    }

    /// Places the chunks this pool mints from now on in namespace `ns`:
    /// their ids carry `ns` in the top 16 bits above the pool's own
    /// 48-bit chunk counter, so two pools that share a [`PoolId`] (one
    /// per shard of a fleet) never mint the same ⟨pool, chunk⟩ and a
    /// buffer keeps its identity wherever it is sent (§3.9). Chunks
    /// already minted keep their ids; the counter keeps counting, so no
    /// id recurs.
    pub fn set_namespace(&self, ns: u16) {
        let mut inner = self.inner.lock().unwrap();
        inner.next_chunk = (u64::from(ns) << 48) | (inner.next_chunk & ((1 << 48) - 1));
    }

    /// The pool's chunk size.
    pub(crate) fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Allocates `len` writable bytes.
    ///
    /// # Errors
    ///
    /// Returns [`BufError::TooLarge`] if `len` exceeds the chunk size;
    /// larger data objects span multiple buffers via
    /// [`crate::Aggregate::from_bytes`].
    pub fn alloc(&self, len: usize) -> Result<BufMut, BufError> {
        self.alloc_inner(len, 1)
    }

    /// Allocates `len` bytes aligned to `align` within the chunk.
    ///
    /// The file system uses page alignment for disk-sourced data ("file
    /// data that originate from a local disk are generally page-aligned
    /// and page-sized", §3.5).
    ///
    /// # Errors
    ///
    /// Returns [`BufError::TooLarge`] if the aligned allocation cannot fit
    /// in a single chunk.
    pub(crate) fn alloc_aligned(&self, len: usize, align: usize) -> Result<BufMut, BufError> {
        self.alloc_inner(len, align.max(1))
    }

    fn alloc_inner(&self, len: usize, align: usize) -> Result<BufMut, BufError> {
        let chunk_size = self.chunk_size;
        if len > chunk_size {
            return Err(BufError::TooLarge {
                requested: len,
                max: chunk_size,
            });
        }
        let mut inner = self.inner.lock().unwrap();
        // Try to pack into the open chunk.
        let mut placed: Option<(Arc<ChunkState>, usize)> = None;
        if let Some((chunk, fill)) = inner.open.take() {
            let aligned = fill.div_ceil(align) * align;
            if aligned + len <= chunk_size {
                placed = Some((chunk, aligned));
            }
            // Else: the open chunk is abandoned to the registry; it will
            // recycle once its allocations drain.
        }
        let (chunk, offset) = match placed {
            Some(p) => p,
            None => {
                if inner.free.is_empty() {
                    scavenge(&mut inner);
                }
                if let Some(chunk) = inner.free.pop() {
                    chunk.bump_generation();
                    inner.stats.chunks_recycled += 1;
                    (chunk, 0)
                } else {
                    let id = ChunkId(inner.next_chunk);
                    inner.next_chunk += 1;
                    let chunk = Arc::new(ChunkState::new(id, self.id, chunk_size));
                    inner.registry.push(Arc::clone(&chunk));
                    inner.stats.chunks_created += 1;
                    (chunk, 0)
                }
            }
        };
        inner.open = Some((Arc::clone(&chunk), offset + len));
        inner.stats.allocs += 1;
        inner.stats.bytes_allocated += len as u64;
        let meta = BufMeta {
            id: BufferId {
                chunk: chunk.id(),
                offset: offset as u32,
            },
            generation: chunk.generation(),
            pool: self.id,
            acl: inner.acl.clone(),
        };
        Ok(BufMut {
            bytes: Vec::new(),
            capacity: len,
            meta,
            chunk,
        })
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().unwrap().stats
    }

    /// Bytes of chunk storage currently resident (live + free chunks).
    ///
    /// The VM accountant treats this as the pool's physical footprint:
    /// chunks are the unit of residency because they are the unit of
    /// mapping (§4.5).
    pub fn resident_bytes(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        (inner.registry.len() * self.chunk_size) as u64
    }

    /// Deep-forks the pool into an independent allocator for kernel-state
    /// snapshots (plain `Clone` shares the pool).
    ///
    /// Every chunk is twinned through `forker` (same identity, same
    /// generation, same open-chunk fill offset), so the fork allocates
    /// exactly like the original. The caller must then rebind all
    /// state-held aggregates with [`crate::PoolForker::fork_aggregate`]
    /// so the twins' reference counts reflect the forked state.
    pub fn fork(&self, forker: &mut crate::PoolForker) -> BufferPool {
        let inner = self.inner.lock().unwrap();
        let forked = PoolInner {
            acl: inner.acl.clone(),
            next_chunk: inner.next_chunk,
            open: inner
                .open
                .as_ref()
                .map(|(c, fill)| (forker.fork_chunk(c), *fill)),
            free: inner.free.iter().map(|c| forker.fork_chunk(c)).collect(),
            registry: inner
                .registry
                .iter()
                .map(|c| forker.fork_chunk(c))
                .collect(),
            stats: inner.stats,
        };
        BufferPool {
            inner: Arc::new(Mutex::new(forked)),
            id: self.id,
            chunk_size: self.chunk_size,
        }
    }
}

/// Moves drained chunks from the registry to the free list.
///
/// A chunk is drained when the registry's own `Arc` is the only one
/// outstanding: no `BufferInner` (live slice), open-chunk handle or
/// free-list entry references it. (The one caller has just taken
/// `open` and found `free` empty, so those two never hold one here.)
fn scavenge(inner: &mut PoolInner) {
    let drained = inner.registry.iter().filter(|c| Arc::strong_count(c) == 1);
    inner.free.extend(drained.cloned());
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap();
        write!(
            f,
            "BufferPool({}, acl={:?}, chunks={})",
            self.id,
            inner.acl,
            inner.registry.len()
        )
    }
}

#[derive(Clone)]
pub(crate) struct BufMeta {
    pub(crate) id: BufferId,
    pub(crate) generation: Generation,
    pub(crate) pool: PoolId,
    pub(crate) acl: Acl,
}

/// A writable, not-yet-immutable buffer allocation.
///
/// This is the "temporary write permission" window of §3.2: the producer
/// fills the buffer, then [`BufMut::freeze`]s it into an immutable
/// [`Slice`]. Unwritten capacity is dropped at freeze time. The first
/// write asks the heap for the storage, so a buffer sealed lazily
/// (see [`crate::slice`]) never does.
pub struct BufMut {
    bytes: Vec<u8>,
    capacity: usize,
    meta: BufMeta,
    chunk: Arc<ChunkState>,
}

impl BufMut {
    /// Total writable capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Remaining writable capacity.
    pub fn remaining(&self) -> usize {
        self.capacity - self.bytes.len()
    }

    /// The buffer's address-analog identity.
    pub fn id(&self) -> BufferId {
        self.meta.id
    }

    /// The buffer's generation.
    pub fn generation(&self) -> Generation {
        self.meta.generation
    }

    /// Appends bytes, up to capacity.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the remaining capacity; producers size
    /// allocations before filling them.
    #[inline]
    pub fn put(&mut self, data: &[u8]) {
        assert!(
            data.len() <= self.remaining(),
            "write of {} bytes exceeds remaining capacity {}",
            data.len(),
            self.remaining()
        );
        self.bytes.reserve_exact(self.remaining());
        self.bytes.extend_from_slice(data);
    }

    /// Seals the buffer: contents become immutable and shareable.
    pub fn freeze(self) -> Slice {
        let inner = Arc::new(BufferInner::new(
            self.bytes.into_boxed_slice(),
            self.meta,
            self.chunk,
        ));
        Slice::whole(inner)
    }

    /// Seals the buffer without bytes: its whole capacity is bytes
    /// `offset..` of `produce`'s content `seed`, produced on its first
    /// read (see [`crate::slice`]). `produce` must be pure.
    pub fn freeze_lazy(self, produce: Producer, seed: u64, offset: u64) -> Slice {
        let inner = BufferInner::new(Box::default(), self.meta, self.chunk);
        Slice::whole(Arc::new(inner.lazy((produce, seed, offset), self.capacity)))
    }
}

impl fmt::Debug for BufMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BufMut({}, {}/{} bytes)",
            self.meta.id,
            self.bytes.len(),
            self.capacity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> BufferPool {
        BufferPool::new(PoolId(1), Acl::with_domain(DomainId(1)), 1024)
    }

    #[test]
    fn first_alloc_uses_fresh_chunk() {
        let p = pool();
        let b = p.alloc(100).unwrap();
        assert_eq!(b.capacity(), 100);
        assert_eq!(p.stats().chunks_created, 1);
    }

    #[test]
    fn small_allocs_pack_into_open_chunk() {
        let p = pool();
        let _a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        assert_eq!(p.stats().chunks_created, 1);
        // Packed at sequential offsets in the same chunk.
        assert_eq!(b.id().offset, 100);
    }

    #[test]
    fn oversized_alloc_rejected() {
        let p = pool();
        let err = p.alloc(4096).unwrap_err();
        assert_eq!(
            err,
            BufError::TooLarge {
                requested: 4096,
                max: 1024
            }
        );
    }

    #[test]
    fn alignment_is_respected() {
        let p = pool();
        let _a = p.alloc(10).unwrap();
        let b = p.alloc_aligned(100, 64).unwrap();
        assert_eq!(b.id().offset % 64, 0);
        assert_eq!(b.id().offset, 64);
    }

    #[test]
    fn drained_chunk_recycles_with_bumped_generation() {
        let p = pool();
        let s1 = p.alloc(1024).unwrap().freeze();
        let id1 = s1.id();
        let gen1 = s1.generation();
        drop(s1);
        // Force a new chunk decision: the open chunk is full, the old one
        // is drained.
        let s2 = p.alloc(1024).unwrap();
        assert_eq!(s2.id().chunk, id1.chunk);
        assert_eq!(s2.generation(), gen1.next());
        assert_eq!(p.stats().chunks_created, 1);
        assert_eq!(p.stats().chunks_recycled, 1);
    }

    #[test]
    fn a_namespace_prefixes_later_chunk_ids_and_never_repeats_one() {
        let p = pool();
        let _a = p.alloc(1024).unwrap();
        p.set_namespace(3);
        let b = p.alloc(1024).unwrap();
        assert_eq!(b.id().chunk, ChunkId(3 << 48 | 1));
        p.set_namespace(0);
        assert_eq!(p.alloc(1024).unwrap().id().chunk, ChunkId(2));
    }

    #[test]
    fn live_slices_prevent_recycling() {
        let p = pool();
        let live = p.alloc(1024).unwrap().freeze();
        let _b = p.alloc(1024).unwrap();
        assert_eq!(p.stats().chunks_created, 2);
        assert_eq!(p.stats().chunks_recycled, 0);
        drop(live);
    }

    #[test]
    fn freeze_keeps_only_written_bytes() {
        let p = pool();
        let mut b = p.alloc(100).unwrap();
        b.put(b"abc");
        let s = b.freeze();
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_bytes(), b"abc");
    }

    #[test]
    fn resident_bytes_track_chunks() {
        let p = pool();
        assert_eq!(p.resident_bytes(), 0);
        let s = p.alloc(10).unwrap().freeze();
        assert_eq!(p.resident_bytes(), 1024);
        drop(s);
        // A drained chunk stays resident: it is recycled, never unmapped.
        assert_eq!(p.resident_bytes(), 1024);
    }

    #[test]
    #[should_panic(expected = "exceeds remaining capacity")]
    fn overfull_put_panics() {
        let p = pool();
        let mut b = p.alloc(2).unwrap();
        b.put(b"abc");
    }
}
