//! Buffer aggregates: the mutable ADT over immutable buffers (§3.1).
//!
//! An aggregate is an ordered list of [`Slice`]s. Its *value* is the
//! concatenation of its slices' bytes. Aggregates are passed **by value**
//! between subsystems while the underlying buffers pass by reference —
//! cloning an aggregate never copies payload bytes.
//!
//! The operations mirror the paper's list: creation, destruction,
//! duplication, concatenation, truncation, prepending, appending,
//! splitting, plus the §3.8 mutation model (`replace`: new buffers
//! chained with unmodified slices) and the "case 3" escape hatch
//! (`pack`: defragment into one contiguous buffer when chaining costs
//! exceed a copy).
//!
//! # Complexity
//!
//! The slice list lives inside the aggregate up to `N` =
//! [`Aggregate::INLINE_SLICES`] slices (a header plus ≤ 128 KB of
//! body) and beyond that in one deque whose entries carry cumulative
//! end offsets, so §3.8's "indexing cost" is logarithmic rather than
//! linear in the fragmentation degree — and passing a small aggregate
//! by value costs the host nothing the model does not charge for. With
//! `n` = slice count and `k` = slices overlapping the touched range;
//! "list allocations" are heap allocations for the slice list itself
//! when the *result* has ≤ `N` slices (a longer result pays the deque,
//! amortized):
//!
//! | operation | cost | list allocations, ≤ `N` slices |
//! |---|---|---|
//! | [`Aggregate::byte_at`] | O(log n) | 0 |
//! | [`Aggregate::range`], [`Aggregate::copy_to`] | O(log n + k) | 0 |
//! | [`Aggregate::advance`], [`Aggregate::truncate`] | O(k) in place, amortized O(1) per dropped slice | 0 (a list that shrinks to `N` frees its deque) |
//! | [`Aggregate::append_slice`], [`Aggregate::prepend_slice`] | O(1) amortized | 0 |
//! | [`Aggregate::append`], [`Aggregate::prepend`] | O(other's n) | 0 |
//! | `clone` | O(n) reference-count bumps | 0 |
//! | [`Aggregate::pack`] | O(bytes), exactly one copy | 0 (the buffers are the allocations) |
//! | [`Aggregate::from_bytes_aligned`], [`Aggregate::fill_aligned`] | O(bytes): one copy in, or each byte written once by the producer (when first read, if sealed lazily) | 0 (likewise) |
//! | [`Aggregate::cursor`], [`Aggregate::chunks`] | O(1) to create, zero-alloc to iterate | 0 |

use std::fmt;

use crate::cursor::AggCursor;
use crate::error::BufError;
use crate::list::SliceList;
use crate::pool::{BufMut, BufferPool};
use crate::reader::AggReader;
use crate::slice::Slice;

/// A mutable buffer aggregate over immutable IO-Lite buffers.
///
/// # Examples
///
/// ```
/// use iolite_buf::{Acl, Aggregate, BufferPool, DomainId, PoolId};
///
/// let pool = BufferPool::new(PoolId(1), Acl::with_domain(DomainId(1)), 4096);
/// let a = Aggregate::from_bytes(&pool, b"GET /index.html");
/// let (verb, rest) = a.split_at(3);
/// assert_eq!(verb.to_vec(), b"GET");
/// assert_eq!(rest.to_vec(), b" /index.html");
/// ```
#[derive(Clone, Default)]
pub struct Aggregate {
    /// The slices, none of them empty.
    list: SliceList,
    len: u64,
}

impl Aggregate {
    /// Slices an aggregate holds without allocating for its slice list
    /// (see the module docs' allocation column).
    pub const INLINE_SLICES: usize = crate::list::INLINE;

    /// Creates an empty aggregate.
    pub fn empty() -> Self {
        Aggregate::default()
    }

    /// Allocates buffers from `pool` and copies `data` into them.
    ///
    /// Data larger than the pool's chunk size spans multiple buffers;
    /// the resulting aggregate still reads back as one contiguous value.
    /// This is the ingress point where outside bytes *enter* the IO-Lite
    /// world (and the one place a copy is inherent).
    pub fn from_bytes(pool: &BufferPool, data: &[u8]) -> Self {
        Self::from_bytes_aligned(pool, data, 1)
    }

    /// Like [`Aggregate::from_bytes`] for data that arrives as several
    /// runs (an `iovec`): their concatenation is copied once, straight
    /// into the buffers — allocated exactly as `from_bytes` would for
    /// the joined bytes, which never have to exist.
    pub fn from_parts(pool: &BufferPool, parts: &[&[u8]]) -> Self {
        let len = parts.iter().map(|p| p.len() as u64).sum();
        Self::gather(pool, len, 1, parts.iter().copied())
    }

    /// Like [`Aggregate::from_bytes`] but with page-aligned, page-sized
    /// buffers, as the file system produces for disk data (§3.5).
    pub fn from_bytes_aligned(pool: &BufferPool, data: &[u8], align: usize) -> Self {
        Self::gather(pool, data.len() as u64, align, std::iter::once(data))
    }

    /// Copies `len` bytes, delivered as consecutive `runs`, into fresh
    /// `align`-aligned buffers: the one byte-copy loop behind every
    /// constructor that takes bytes.
    fn gather<'a>(
        pool: &BufferPool,
        len: u64,
        align: usize,
        mut runs: impl Iterator<Item = &'a [u8]>,
    ) -> Self {
        let mut run: &[u8] = &[];
        Self::fill_aligned(pool, len, align, |_, mut b| {
            while b.remaining() > 0 {
                if run.is_empty() {
                    run = runs.next().expect("length accounted");
                }
                let n = run.len().min(b.remaining());
                b.put(&run[..n]);
                run = &run[n..];
            }
            b.freeze()
        })
    }

    /// Allocates `len` bytes of `align`-aligned buffers from `pool` and
    /// has `seal(offset, buf)` seal each whole — fill it to capacity and
    /// [`BufMut::freeze`] it, or [`BufMut::freeze_lazy`] it — before it
    /// is appended; `offset` is where `buf` starts within the `len`
    /// bytes.
    ///
    /// This is the one allocation loop — every constructor that takes
    /// bytes runs it, so the allocation sequence (chunking, alignment,
    /// buffer ids and generations) is [`Aggregate::from_bytes_aligned`]'s
    /// for `len` bytes whoever fills the buffers, and whenever. It is how
    /// disk data lands (§3.5): the producer streams straight into the
    /// IO-Lite buffers, each byte written once, with no staging vector
    /// — or, sealed lazily, on the buffer's first read.
    pub fn fill_aligned(
        pool: &BufferPool,
        len: u64,
        align: usize,
        mut seal: impl FnMut(u64, BufMut) -> Slice,
    ) -> Self {
        let mut agg = Aggregate::empty();
        let max = pool.chunk_size() as u64;
        let mut offset = 0;
        while offset < len {
            let take = (len - offset).min(max);
            let b = pool
                .alloc_aligned(take as usize, align)
                .expect("chunk-size-bounded allocation cannot fail");
            let s = seal(offset, b);
            assert_eq!(s.len() as u64, take, "a buffer is sealed full");
            agg.append_slice(s);
            offset += take;
        }
        agg
    }

    /// Total length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the aggregate holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slices (the fragmentation degree; drives indexing cost
    /// in §3.8's analysis).
    pub fn num_slices(&self) -> usize {
        self.list.len()
    }

    /// The slices, in order.
    pub fn slices(
        &self,
    ) -> impl ExactSizeIterator<Item = &Slice> + DoubleEndedIterator + Clone + '_ {
        // By index: measurably faster than an iterator that matches on
        // the list's representation at every step (PR 22).
        (0..self.list.len()).map(|i| self.slice_at(i))
    }

    /// The `i`-th slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_slices()`.
    pub fn slice_at(&self, i: usize) -> &Slice {
        self.list.get(i).expect("slice index in range")
    }

    /// The contiguous byte runs, in order — the vectored (`iovec`) view
    /// hot consumers iterate instead of indexing per byte.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = &[u8]> + Clone + '_ {
        self.slices().map(Slice::as_bytes)
    }

    /// A borrowing cursor positioned at `offset` (clamped to the end).
    ///
    /// Creation is O(log n); all traversal from there is zero-alloc.
    pub fn cursor_at(&self, offset: u64) -> AggCursor<'_> {
        AggCursor::new(self, offset)
    }

    /// A borrowing cursor positioned at the start.
    pub fn cursor(&self) -> AggCursor<'_> {
        self.cursor_at(0)
    }

    /// The `i`-th slice, or `None` past the end.
    pub(crate) fn get_slice(&self, i: usize) -> Option<&Slice> {
        self.list.get(i)
    }

    /// Locates the slice containing logical offset `idx`, returning
    /// `(slice index, offset within that slice)`. O(log n).
    ///
    /// Precondition: `idx < self.len`.
    pub(crate) fn locate(&self, idx: u64) -> (usize, usize) {
        debug_assert!(idx < self.len);
        self.list.locate(idx)
    }

    /// Appends one slice. O(1) amortized.
    pub fn append_slice(&mut self, s: Slice) {
        if s.is_empty() {
            return;
        }
        self.len += s.len() as u64;
        self.list.push_back(s);
    }

    /// Prepends one slice. O(1) amortized (no renumbering: the base
    /// offset moves down instead).
    pub fn prepend_slice(&mut self, s: Slice) {
        if s.is_empty() {
            return;
        }
        self.len += s.len() as u64;
        self.list.push_front(s);
    }

    /// Appends all slices of `other` (by reference; no payload copy).
    pub fn append(&mut self, other: &Aggregate) {
        for s in other.slices() {
            self.append_slice(s.clone());
        }
    }

    /// Prepends all slices of `other`. O(other's slice count); `self`'s
    /// existing slices are not shifted.
    pub fn prepend(&mut self, other: &Aggregate) {
        for s in other.slices().rev() {
            self.prepend_slice(s.clone());
        }
    }

    /// Returns `self ++ other` without modifying either.
    pub fn concat(&self, other: &Aggregate) -> Aggregate {
        let mut out = self.clone();
        out.append(other);
        out
    }

    /// Splits into `(first mid bytes, rest)` without copying.
    ///
    /// `mid` is clamped to the aggregate's length.
    pub fn split_at(&self, mid: u64) -> (Aggregate, Aggregate) {
        let mid = mid.min(self.len);
        let head = self.range(0, mid).expect("clamped");
        let tail = self.range(mid, self.len - mid).expect("clamped");
        (head, tail)
    }

    /// Keeps only the first `len` bytes, in place: trailing slices are
    /// dropped and at most one boundary slice is trimmed; nothing is
    /// rebuilt or cloned.
    pub fn truncate(&mut self, len: u64) {
        if len >= self.len {
            return;
        }
        let mut cut = self.len - len;
        while let Some(slen) = self.list.back().map(|s| s.len() as u64) {
            if slen > cut {
                break;
            }
            cut -= slen;
            self.list.pop_back();
        }
        if cut > 0 {
            self.list.trim_back(cut as usize);
        }
        self.len = len;
    }

    /// Drops the first `n` bytes, in place: leading slices are dropped
    /// and at most one boundary slice is trimmed (the zero-copy trim TCP
    /// reassembly leans on).
    pub fn advance(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let n = n.min(self.len);
        let mut cut = n;
        while let Some(slen) = self.list.front().map(|s| s.len() as u64) {
            if slen > cut {
                break;
            }
            cut -= slen;
            self.list.pop_front();
        }
        if cut > 0 {
            self.list.trim_front(cut as usize);
        }
        self.len -= n;
    }

    /// A zero-copy view of `len` bytes starting at `start`.
    ///
    /// O(log n + k) where `k` is the number of slices in the range — the
    /// slices outside it are never visited.
    ///
    /// # Errors
    ///
    /// Returns [`BufError::OutOfRange`] if the range exceeds the
    /// aggregate (including on arithmetic overflow of `start + len`).
    pub fn range(&self, start: u64, len: u64) -> Result<Aggregate, BufError> {
        let end = start.checked_add(len).ok_or(BufError::OutOfRange {
            requested: u64::MAX,
            available: self.len,
        })?;
        if end > self.len {
            return Err(BufError::OutOfRange {
                requested: end,
                available: self.len,
            });
        }
        let mut out = Aggregate::empty();
        if len == 0 {
            return Ok(out);
        }
        let (mut i, off) = self.locate(start);
        let mut remaining = len;
        // First slice: trim the front.
        let first = self.slice_at(i);
        let avail = first.len() - off;
        let take = (remaining as usize).min(avail);
        out.append_slice(first.sub(off, take).expect("in range"));
        remaining -= take as u64;
        i += 1;
        while remaining > 0 {
            let s = self.slice_at(i);
            if (s.len() as u64) <= remaining {
                out.append_slice(s.clone());
                remaining -= s.len() as u64;
            } else {
                out.append_slice(s.sub(0, remaining as usize).expect("in range"));
                remaining = 0;
            }
            i += 1;
        }
        Ok(out)
    }

    /// The longest run of *whole* slices starting at slice `from` whose
    /// bytes fit in `max_bytes`: a send window that never splits a
    /// slice, so per-slice checksum-cache keys survive windowing. Empty
    /// when the first slice alone does not fit.
    pub fn whole_slices(&self, from: usize, max_bytes: u64) -> Aggregate {
        let mut out = Aggregate::empty();
        for i in from..self.num_slices() {
            let s = self.slice_at(i);
            if out.len + s.len() as u64 > max_bytes {
                break;
            }
            out.append_slice(s.clone());
        }
        out
    }

    /// Copies the aggregate's value into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len as usize);
        for chunk in self.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// Copies up to `dst.len()` bytes starting at `offset` into `dst`,
    /// returning how many were copied. O(log n + copied bytes).
    pub fn copy_to(&self, offset: u64, dst: &mut [u8]) -> usize {
        if offset >= self.len || dst.is_empty() {
            return 0;
        }
        self.cursor_at(offset).copy_to(dst)
    }

    /// The byte at `idx`, or `None` past the end.
    ///
    /// This is the §3.8 "indexing cost" operation; the offset index
    /// makes it O(log n) in the slice count.
    pub fn byte_at(&self, idx: u64) -> Option<u8> {
        if idx >= self.len {
            return None;
        }
        let (i, off) = self.locate(idx);
        Some(self.slice_at(i).as_bytes()[off])
    }

    /// The logical offset of the first occurrence of `byte` at or after
    /// `start`, scanning the byte runs without allocation.
    pub fn find_byte(&self, start: u64, byte: u8) -> Option<u64> {
        if start >= self.len {
            return None;
        }
        self.cursor_at(start).find_byte(byte)
    }

    /// Whether the aggregate's value begins with `needle` (byte-wise,
    /// across slice boundaries, without materializing).
    pub fn starts_with(&self, needle: &[u8]) -> bool {
        self.cursor().starts_with(needle)
    }

    /// A `std::io::Read` adapter over the aggregate.
    pub fn reader(&self) -> AggReader<'_> {
        AggReader::new(self)
    }

    /// The §3.8 mutation model: returns a new aggregate equal to `self`
    /// with `range` replaced by `new_data`, copying **only** `new_data`
    /// into fresh buffers and chaining the untouched slices.
    ///
    /// # Errors
    ///
    /// Returns [`BufError::OutOfRange`] if `start + len` exceeds the
    /// aggregate (including on arithmetic overflow).
    pub fn replace(
        &self,
        pool: &BufferPool,
        start: u64,
        len: u64,
        new_data: &[u8],
    ) -> Result<Aggregate, BufError> {
        let end = start.checked_add(len).ok_or(BufError::OutOfRange {
            requested: u64::MAX,
            available: self.len,
        })?;
        if end > self.len {
            return Err(BufError::OutOfRange {
                requested: end,
                available: self.len,
            });
        }
        let mut out = self.range(0, start).expect("validated");
        out.append(&Aggregate::from_bytes(pool, new_data));
        out.append(&self.range(end, self.len - end).expect("validated"));
        Ok(out)
    }

    /// Defragments into a minimal number of contiguous buffers (the
    /// §3.8 "case 3" full copy, and the layout `mmap` needs). Each byte
    /// is copied exactly once, straight into the destination buffers.
    pub fn pack(&self, pool: &BufferPool) -> Aggregate {
        let mut out = Aggregate::empty();
        out.copy_from_agg(pool, self);
        out
    }

    /// Appends a *deep copy* of `src`'s value, allocated from `pool`,
    /// copying each byte exactly once (no intermediate `Vec`).
    pub(crate) fn copy_from_agg(&mut self, pool: &BufferPool, src: &Aggregate) {
        self.append(&Self::gather(pool, src.len(), 1, src.chunks()));
    }
}

impl fmt::Debug for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aggregate(len={}, slices={})",
            self.len,
            self.num_slices()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Acl, DomainId, PoolId};

    fn pool() -> BufferPool {
        BufferPool::new(PoolId(1), Acl::with_domain(DomainId(1)), 64)
    }

    #[test]
    fn from_bytes_round_trips() {
        let p = pool();
        let a = Aggregate::from_bytes(&p, b"hello world");
        assert_eq!(a.len(), 11);
        assert_eq!(a.to_vec(), b"hello world");
    }

    #[test]
    fn from_parts_allocates_like_from_bytes() {
        let (joined, gathered) = (pool(), pool());
        let parts: [&[u8]; 5] = [
            b"HTTP/1.1 200 OK\r\n",
            b"",
            &[7u8; 150],
            b"12345",
            b"\r\n\r\n",
        ];
        let a = Aggregate::from_bytes(&joined, &parts.concat());
        let b = Aggregate::from_parts(&gathered, &parts);
        assert_eq!(a.to_vec(), b.to_vec());
        assert_eq!(a.num_slices(), 3, "176 bytes over 64-byte chunks");
        for (x, y) in a.slices().zip(b.slices()) {
            assert_eq!(
                (x.id(), x.generation(), x.len()),
                (y.id(), y.generation(), y.len())
            );
        }
        assert_eq!(joined.stats(), gathered.stats());
        assert!(Aggregate::from_parts(&gathered, &[b"", b""]).is_empty());
    }

    #[test]
    fn large_data_spans_chunks() {
        let p = pool();
        let data: Vec<u8> = (0..200u8).collect();
        let a = Aggregate::from_bytes(&p, &data);
        assert!(a.num_slices() >= 4, "64-byte chunks force splitting");
        assert_eq!(a.to_vec(), data);
    }

    #[test]
    fn concat_and_prepend() {
        let p = pool();
        let a = Aggregate::from_bytes(&p, b"abc");
        let b = Aggregate::from_bytes(&p, b"def");
        assert_eq!(a.concat(&b).to_vec(), b"abcdef");
        let mut c = b.clone();
        c.prepend(&a);
        assert_eq!(c.to_vec(), b"abcdef");
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn prepend_keeps_index_consistent() {
        let p = pool();
        let mut a = Aggregate::from_bytes(&p, b"world");
        a.prepend(&Aggregate::from_bytes(&p, b"hello "));
        a.prepend(&Aggregate::from_bytes(&p, b">> "));
        assert_eq!(a.to_vec(), b">> hello world");
        for (i, &b) in b">> hello world".iter().enumerate() {
            assert_eq!(a.byte_at(i as u64), Some(b));
        }
        // Mixed front/back mutation after prepending.
        a.advance(3);
        a.append_slice(Aggregate::from_bytes(&p, b"!").slice_at(0).clone());
        assert_eq!(a.to_vec(), b"hello world!");
    }

    #[test]
    fn split_at_various_points() {
        let p = pool();
        let a = Aggregate::from_bytes(&p, b"abcdef");
        let (h, t) = a.split_at(0);
        assert!(h.is_empty());
        assert_eq!(t.to_vec(), b"abcdef");
        let (h, t) = a.split_at(6);
        assert_eq!(h.to_vec(), b"abcdef");
        assert!(t.is_empty());
        let (h, t) = a.split_at(2);
        assert_eq!(h.to_vec(), b"ab");
        assert_eq!(t.to_vec(), b"cdef");
        // Clamped past the end.
        let (h, t) = a.split_at(100);
        assert_eq!(h.len(), 6);
        assert!(t.is_empty());
    }

    #[test]
    fn truncate_and_advance() {
        let p = pool();
        let mut a = Aggregate::from_bytes(&p, b"abcdef");
        a.truncate(4);
        assert_eq!(a.to_vec(), b"abcd");
        a.advance(1);
        assert_eq!(a.to_vec(), b"bcd");
        a.truncate(100);
        assert_eq!(a.len(), 3);
        a.advance(0);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn advance_and_truncate_are_in_place() {
        // 16-byte buffers: a 64-byte value has 4 slices.
        let p = BufferPool::new(PoolId(3), Acl::kernel_only(), 16);
        let data: Vec<u8> = (0..64u8).collect();
        let mut a = Aggregate::from_bytes(&p, &data);
        assert_eq!(a.num_slices(), 4);
        a.advance(20); // Drops one slice, trims the next.
        assert_eq!(a.num_slices(), 3);
        assert_eq!(a.to_vec(), &data[20..]);
        a.truncate(30); // 20..50: drops the tail slice, trims the new last.
        assert_eq!(a.to_vec(), &data[20..50]);
        for (i, &b) in data[20..50].iter().enumerate() {
            assert_eq!(a.byte_at(i as u64), Some(b));
        }
        a.advance(30);
        assert!(a.is_empty());
        assert_eq!(a.num_slices(), 0);
    }

    #[test]
    fn range_is_zero_copy_view() {
        let p = pool();
        let a = Aggregate::from_bytes(&p, b"abcdefgh");
        let r = a.range(2, 4).unwrap();
        assert_eq!(r.to_vec(), b"cdef");
        assert!(a.range(5, 10).is_err());
    }

    #[test]
    fn whole_slices_never_split_a_slice() {
        let p = BufferPool::new(PoolId(3), Acl::kernel_only(), 16);
        let data: Vec<u8> = (0..70u8).collect();
        let a = Aggregate::from_bytes(&p, &data); // 16+16+16+16+6
        assert_eq!(a.whole_slices(0, 15).num_slices(), 0);
        assert_eq!(a.whole_slices(1, 40).to_vec(), &data[16..48]);
        assert_eq!(a.whole_slices(3, u64::MAX).to_vec(), &data[48..]);
        assert!(a.whole_slices(5, u64::MAX).is_empty());
        assert!(a.whole_slices(1, 40).slice_at(0).same_buffer(a.slice_at(1)));
    }

    #[test]
    fn range_rejects_overflowing_bounds() {
        let p = pool();
        let a = Aggregate::from_bytes(&p, b"abcdefgh");
        // start + len wraps around u64: must be OutOfRange, not a panic
        // or a bogus success.
        assert!(matches!(
            a.range(u64::MAX, 2),
            Err(BufError::OutOfRange { .. })
        ));
        assert!(matches!(
            a.range(2, u64::MAX),
            Err(BufError::OutOfRange { .. })
        ));
        assert!(matches!(
            a.replace(&p, u64::MAX, 2, b"x"),
            Err(BufError::OutOfRange { .. })
        ));
        assert!(matches!(
            a.replace(&p, 2, u64::MAX - 1, b"x"),
            Err(BufError::OutOfRange { .. })
        ));
    }

    #[test]
    fn byte_at_indexing() {
        let p = pool();
        let data: Vec<u8> = (0..150u8).collect();
        let a = Aggregate::from_bytes(&p, &data);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(a.byte_at(i as u64), Some(b));
        }
        assert_eq!(a.byte_at(150), None);
    }

    #[test]
    fn copy_to_partial_windows() {
        let p = pool();
        let a = Aggregate::from_bytes(&p, b"abcdefgh");
        let mut buf = [0u8; 3];
        assert_eq!(a.copy_to(2, &mut buf), 3);
        assert_eq!(&buf, b"cde");
        assert_eq!(a.copy_to(6, &mut buf), 2);
        assert_eq!(&buf[..2], b"gh");
        assert_eq!(a.copy_to(8, &mut buf), 0);
    }

    #[test]
    fn find_byte_and_starts_with() {
        let p = BufferPool::new(PoolId(4), Acl::kernel_only(), 4);
        let a = Aggregate::from_bytes(&p, b"GET /x HTTP/1.1\r\n");
        assert!(a.num_slices() > 2, "spans buffers");
        assert!(a.starts_with(b"GET /x"));
        assert!(!a.starts_with(b"GET /y"));
        assert!(!a.starts_with(b"GET /x HTTP/1.1\r\n++"));
        assert_eq!(a.find_byte(0, b' '), Some(3));
        assert_eq!(a.find_byte(4, b' '), Some(6));
        assert_eq!(a.find_byte(0, b'\r'), Some(15));
        assert_eq!(a.find_byte(0, b'Z'), None);
        assert_eq!(a.find_byte(100, b'G'), None);
    }

    #[test]
    fn replace_chains_new_buffer() {
        let p = pool();
        let a = Aggregate::from_bytes(&p, b"GET /old.html HTTP/1.0");
        let b = a.replace(&p, 5, 3, b"new").unwrap();
        assert_eq!(b.to_vec(), b"GET /new.html HTTP/1.0");
        // Original is untouched (immutability).
        assert_eq!(a.to_vec(), b"GET /old.html HTTP/1.0");
        // The unmodified head and tail share buffers with the original.
        assert!(b.slice_at(0).same_buffer(a.slice_at(0)));
    }

    #[test]
    fn replace_with_different_length() {
        let p = pool();
        let a = Aggregate::from_bytes(&p, b"abcdef");
        let grown = a.replace(&p, 3, 0, b"XYZ").unwrap();
        assert_eq!(grown.to_vec(), b"abcXYZdef");
        let shrunk = a.replace(&p, 1, 4, b"").unwrap();
        assert_eq!(shrunk.to_vec(), b"af");
        assert!(a.replace(&p, 5, 5, b"!").is_err());
    }

    #[test]
    fn pack_defragments() {
        let p = BufferPool::new(PoolId(2), Acl::kernel_only(), 4096);
        let mut a = Aggregate::empty();
        for i in 0..10 {
            a.append(&Aggregate::from_bytes(&p, &[i as u8]));
        }
        assert_eq!(a.num_slices(), 10);
        let packed = a.pack(&p);
        assert_eq!(packed.num_slices(), 1);
        assert_eq!(packed.to_vec(), a.to_vec());
    }

    #[test]
    fn pack_spans_destination_chunks() {
        let src = BufferPool::new(PoolId(2), Acl::kernel_only(), 7);
        let dst = BufferPool::new(PoolId(3), Acl::kernel_only(), 64);
        let data: Vec<u8> = (0..200u8).collect();
        let frag = Aggregate::from_bytes(&src, &data);
        let packed = frag.pack(&dst);
        assert_eq!(packed.to_vec(), data);
        assert_eq!(packed.num_slices(), 4, "200 bytes over 64-byte chunks");
    }

    #[test]
    fn empty_slices_are_dropped() {
        let p = pool();
        let mut a = Aggregate::empty();
        let s = Aggregate::from_bytes(&p, b"ab").slice_at(0).clone();
        a.append_slice(s.sub(0, 0).unwrap());
        assert!(a.is_empty());
        assert_eq!(a.num_slices(), 0);
    }

    #[test]
    fn reader_reads_all() {
        use std::io::Read;
        let p = pool();
        let a = Aggregate::from_bytes(&p, b"stream me");
        let mut out = String::new();
        a.reader().read_to_string(&mut out).unwrap();
        assert_eq!(out, "stream me");
    }
}
