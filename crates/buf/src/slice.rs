//! Immutable buffers and slices (§3.1, Figure 1).
//!
//! A [`Slice`] is the ⟨address, length⟩ tuple of Figure 1: a view into a
//! contiguous range of one immutable IO-Lite buffer. Slices are cheap to
//! clone (reference-counted) and may overlap arbitrarily. The underlying
//! bytes can never change; the only mutation path is allocating new
//! buffers and chaining aggregates (§3.8). The §3.1 footnote's in-place
//! modification of a provably unshared buffer is assumed, not simulated
//! (see the crate docs).
//!
//! A buffer sealed lazily ([`crate::BufMut::freeze_lazy`]) holds
//! a pure [`Producer`] and its ⟨seed, offset⟩ instead of bytes; its first
//! [`Slice::as_bytes`] produces them. That changes when the bytes exist
//! in host memory, never what they are: they are fixed at seal time,
//! like any other buffer's.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::acl::Acl;
use crate::ids::{BufferId, ChunkId, Generation, PoolId};
use crate::pool::BufMeta;

/// Shared accounting state for one 64KB chunk of the IO-Lite window.
///
/// Buffer storage itself lives per-allocation (`BufferInner`); the chunk
/// tracks identity, generation and pool membership so recycling and the
/// checksum cache behave exactly as in the paper.
pub(crate) struct ChunkState {
    id: ChunkId,
    pool: PoolId,
    size: usize,
    // Relaxed suffices: chunks are shard-confined, so the counter is
    // never raced; the atomic exists only to make the type `Send`.
    generation: AtomicU64,
}

impl ChunkState {
    pub(crate) fn new(id: ChunkId, pool: PoolId, size: usize) -> Self {
        ChunkState {
            id,
            pool,
            size,
            generation: AtomicU64::new(0),
        }
    }

    /// An independent copy at a given generation, for pool forking.
    pub(crate) fn with_generation(id: ChunkId, pool: PoolId, size: usize, generation: u64) -> Self {
        ChunkState {
            id,
            pool,
            size,
            generation: AtomicU64::new(generation),
        }
    }

    pub(crate) fn id(&self) -> ChunkId {
        self.id
    }

    pub(crate) fn generation(&self) -> Generation {
        Generation(self.generation.load(Ordering::Relaxed))
    }

    pub(crate) fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn pool(&self) -> PoolId {
        self.pool
    }

    pub(crate) fn size(&self) -> usize {
        self.size
    }
}

/// A pure function that streams bytes `offset..offset + len` of the
/// content named by `seed` into `sink`, run by run: the same arguments
/// always stream the same bytes. A lazily sealed buffer holds one (see
/// the module docs); `iolite-fs`'s synthetic files supply theirs.
pub type Producer = fn(seed: u64, offset: u64, len: u64, sink: &mut dyn FnMut(&[u8]));

/// One immutable IO-Lite buffer: the sealed result of a
/// [`crate::BufMut`].
pub(crate) struct BufferInner {
    /// Set at seal time, or by the first read of a lazily sealed buffer
    /// from `source`. A one-time cell on one buffer, not a lock around
    /// shared state: it is written at most once, with bytes `source`
    /// fixes, so no reader can tell who read first.
    bytes: OnceLock<Box<[u8]>>,
    /// A lazily sealed buffer's producer, its content's seed and the
    /// buffer's offset within that content.
    source: Option<(Producer, u64, u64)>,
    len: usize,
    meta: BufMeta,
    /// Keeps the chunk's liveness count up while any slice references the
    /// buffer, which is exactly the recycling condition of §3.2.
    _chunk: Arc<ChunkState>,
}

impl BufferInner {
    pub(crate) fn new(bytes: Box<[u8]>, meta: BufMeta, chunk: Arc<ChunkState>) -> Self {
        BufferInner {
            len: bytes.len(),
            bytes: OnceLock::from(bytes),
            source: None,
            meta,
            _chunk: chunk,
        }
    }

    /// This buffer's ids, sealed lazily instead: `len` bytes that
    /// `source` produces on first read.
    pub(crate) fn lazy(mut self, source: (Producer, u64, u64), len: usize) -> Self {
        (self.bytes, self.source, self.len) = (OnceLock::new(), Some(source), len);
        self
    }

    /// The buffer's bytes: one load and one branch once they exist.
    #[inline]
    fn bytes(&self) -> &[u8] {
        self.bytes.get_or_init(|| self.produce())
    }

    /// The first read of a lazily sealed buffer produces its bytes, out
    /// of line (`get_or_init` calls this at most once).
    #[cold]
    fn produce(&self) -> Box<[u8]> {
        let mut bytes = Vec::with_capacity(self.len);
        self.stream(0, self.len, &mut |run| bytes.extend_from_slice(run));
        bytes.into_boxed_slice()
    }

    /// Hands bytes `off..off + len` to `sink`; a lazily sealed buffer
    /// not yet read streams them from its producer and stays unread.
    pub(crate) fn stream(&self, off: usize, len: usize, sink: &mut dyn FnMut(&[u8])) {
        match (self.bytes.get(), self.source) {
            (None, Some((produce, seed, at))) => produce(seed, at + off as u64, len as u64, sink),
            _ => sink(&self.bytes()[off..off + len]),
        }
    }

    /// An independent copy on `chunk`, for pool forking: a lazily sealed
    /// buffer carries its producer, any other copies its bytes.
    pub(crate) fn twin(&self, chunk: Arc<ChunkState>) -> Self {
        let meta = self.meta.clone();
        match self.source {
            Some(source) => BufferInner::new(Box::default(), meta, chunk).lazy(source, self.len),
            None => BufferInner::new(self.bytes().into(), meta, chunk),
        }
    }

    pub(crate) fn chunk(&self) -> &Arc<ChunkState> {
        &self._chunk
    }
}

/// An immutable view of a contiguous byte range within one IO-Lite
/// buffer.
///
/// # Examples
///
/// ```
/// use iolite_buf::{Acl, BufferPool, DomainId, PoolId};
///
/// let pool = BufferPool::new(PoolId(1), Acl::with_domain(DomainId(1)), 4096);
/// let mut b = pool.alloc(5).unwrap();
/// b.put(b"hello");
/// let s = b.freeze();
/// assert_eq!(s.as_bytes(), b"hello");
/// let sub = s.sub(1, 3).unwrap();
/// assert_eq!(sub.as_bytes(), b"ell");
/// ```
#[derive(Clone)]
pub struct Slice {
    inner: Arc<BufferInner>,
    off: usize,
    len: usize,
}

impl Slice {
    pub(crate) fn whole(inner: Arc<BufferInner>) -> Self {
        let len = inner.len;
        Slice { inner, off: 0, len }
    }

    /// Decomposes the slice for pool forking.
    pub(crate) fn parts(&self) -> (&Arc<BufferInner>, usize, usize) {
        (&self.inner, self.off, self.len)
    }

    /// Rebuilds a slice from forked parts.
    pub(crate) fn from_parts(inner: Arc<BufferInner>, off: usize, len: usize) -> Self {
        Slice { inner, off, len }
    }

    /// The bytes this slice views; the first read of a lazily sealed
    /// buffer produces them.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.inner.bytes()[self.off..self.off + self.len]
    }

    /// Whether the buffer's bytes exist in host memory: `false` only for
    /// a lazily sealed buffer nothing has read yet.
    pub fn is_produced(&self) -> bool {
        self.inner.bytes.get().is_some()
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The identity (address analog) of the underlying buffer.
    pub fn id(&self) -> BufferId {
        self.inner.meta.id
    }

    /// The generation of the underlying buffer (§3.9).
    pub fn generation(&self) -> Generation {
        self.inner.meta.generation
    }

    /// The pool the buffer was allocated from.
    pub fn pool(&self) -> PoolId {
        self.inner.meta.pool
    }

    /// The ACL snapshot taken at allocation time.
    pub fn acl(&self) -> &Acl {
        &self.inner.meta.acl
    }

    /// Offset of this view within its buffer.
    pub fn offset_in_buffer(&self) -> usize {
        self.off
    }

    /// A sub-view of this slice.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BufError::OutOfRange`] if `off + len` exceeds this
    /// slice's length.
    pub fn sub(&self, off: usize, len: usize) -> Result<Slice, crate::BufError> {
        let end = off.checked_add(len).ok_or(crate::BufError::OutOfRange {
            requested: u64::MAX,
            available: self.len as u64,
        })?;
        if end > self.len {
            return Err(crate::BufError::OutOfRange {
                requested: end as u64,
                available: self.len as u64,
            });
        }
        Ok(Slice {
            inner: Arc::clone(&self.inner),
            off: self.off + off,
            len,
        })
    }

    /// Whether two slices view the same buffer (possibly different
    /// ranges).
    pub fn same_buffer(&self, other: &Slice) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for Slice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Slice({} {} +{} len {})",
            self.id(),
            self.generation(),
            self.off,
            self.len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufferPool;
    use crate::{Acl, BufError, DomainId, PoolId};

    fn slice_of(data: &[u8]) -> Slice {
        let pool = BufferPool::new(PoolId(9), Acl::with_domain(DomainId(2)), 4096);
        let mut b = pool.alloc(data.len()).unwrap();
        b.put(data);
        b.freeze()
    }

    #[test]
    fn sub_views_share_storage() {
        let s = slice_of(b"abcdef");
        let t = s.sub(2, 3).unwrap();
        assert_eq!(t.as_bytes(), b"cde");
        assert!(s.same_buffer(&t));
        assert_eq!(t.offset_in_buffer(), 2);
        // Sub-of-sub composes offsets.
        let u = t.sub(1, 1).unwrap();
        assert_eq!(u.as_bytes(), b"d");
    }

    #[test]
    fn sub_out_of_range_errors() {
        let s = slice_of(b"abc");
        assert!(matches!(s.sub(2, 5), Err(BufError::OutOfRange { .. })));
    }

    #[test]
    fn sub_overflowing_range_errors() {
        let s = slice_of(b"abc");
        // off + len wraps around usize: must be OutOfRange, not a panic
        // on the add (debug) or a wrapped view that panics later (release).
        assert!(matches!(
            s.sub(usize::MAX, 2),
            Err(BufError::OutOfRange { .. })
        ));
        assert!(matches!(
            s.sub(2, usize::MAX),
            Err(BufError::OutOfRange { .. })
        ));
    }

    #[test]
    fn overlapping_slices_allowed() {
        let s = slice_of(b"abcdef");
        let a = s.sub(0, 4).unwrap();
        let b = s.sub(2, 4).unwrap();
        assert_eq!(a.as_bytes(), b"abcd");
        assert_eq!(b.as_bytes(), b"cdef");
    }

    #[test]
    fn acl_snapshot_travels_with_slice() {
        let s = slice_of(b"x");
        assert!(s.acl().allows(DomainId(2)));
        assert!(!s.acl().allows(DomainId(3)));
    }
}
