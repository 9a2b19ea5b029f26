//! Contiguous memory-mapped views of I/O objects (§3.8 "case 3").
//!
//! IO-Lite keeps the `mmap` interface for applications whose access
//! patterns demand contiguous, in-place-modifiable storage. Two copies
//! may then occur in the kernel, both lazy and per-page:
//!
//! 1. If the object is not contiguous/aligned (e.g. network-sourced file
//!    data), a page is copied when first touched.
//! 2. A store to a mapped page that is also referenced through an
//!    immutable IO-Lite buffer copies the page first (copy-on-write), to
//!    preserve `IOL_read` snapshot semantics.
//!
//! [`MmapView`] implements exactly that, counting both kinds of copies
//! so the cost model can charge them.

use iolite_buf::{Aggregate, Slice, PAGE_SIZE};

/// Copy-activity counters for one mapping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmapStats {
    /// Pages copied because the source was fragmented or unaligned.
    pub alignment_copies: u64,
    /// Pages copied on first store (snapshot preservation).
    pub cow_faults: u64,
}

enum Backing {
    /// The source is one contiguous, page-aligned buffer: reads are
    /// zero-copy until the first store.
    Direct(Slice),
    /// Private per-page storage (after alignment copies or COW).
    Private,
}

/// A contiguous view of an aggregate with lazy copying and COW.
///
/// # Examples
///
/// ```
/// use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
/// use iolite_vm::MmapView;
///
/// let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
/// let agg = Aggregate::from_bytes(&pool, b"mapped data");
/// let mut view = MmapView::new(agg);
/// assert_eq!(view.read_all(), b"mapped data");
/// // Contiguous source: no alignment copies were needed.
/// assert_eq!(view.stats().alignment_copies, 0);
/// ```
pub struct MmapView {
    source: Aggregate,
    backing: Backing,
    /// Private contiguous storage; allocated eagerly, *filled* lazily.
    data: Vec<u8>,
    /// Which pages of `data` hold valid private copies.
    valid: Vec<bool>,
    stats: MmapStats,
}

impl MmapView {
    /// Maps an aggregate.
    pub fn new(source: Aggregate) -> Self {
        let len = source.len() as usize;
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        let backing = match source.num_slices() {
            1 if source.slice_at(0).offset_in_buffer().is_multiple_of(PAGE_SIZE) => {
                Backing::Direct(source.slice_at(0).clone())
            }
            _ => Backing::Private,
        };
        MmapView {
            source,
            backing,
            data: vec![0; len],
            valid: vec![false; pages],
            stats: MmapStats::default(),
        }
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copy counters accumulated so far.
    pub fn stats(&self) -> MmapStats {
        self.stats
    }

    fn page_range(&self, off: usize, len: usize) -> std::ops::Range<usize> {
        if self.data.is_empty() || len == 0 {
            return 0..0;
        }
        let first = off / PAGE_SIZE;
        let last = (off + len - 1) / PAGE_SIZE;
        first..last + 1
    }

    /// Ensures the pages covering `[off, off+len)` have private copies,
    /// charging alignment copies (first touch of a fragmented source).
    fn populate(&mut self, off: usize, len: usize) {
        for p in self.page_range(off, len) {
            if !self.valid[p] {
                let start = p * PAGE_SIZE;
                let end = (start + PAGE_SIZE).min(self.data.len());
                self.source
                    .copy_to(start as u64, &mut self.data[start..end]);
                self.valid[p] = true;
                self.stats.alignment_copies += 1;
            }
        }
    }

    /// Reads `dst.len()` bytes starting at `off`.
    ///
    /// Direct (contiguous, aligned) mappings read straight from the
    /// immutable buffer; fragmented sources incur lazy per-page copies on
    /// first touch, exactly as §3.8 describes.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the mapping.
    pub fn read(&mut self, off: usize, dst: &mut [u8]) {
        assert!(
            off + dst.len() <= self.data.len(),
            "read past end of mapping"
        );
        match &self.backing {
            Backing::Direct(s) => {
                // Serve whole page runs: private pages where COW already
                // happened, the immutable buffer elsewhere.
                let bytes = s.as_bytes();
                let mut i = 0;
                while i < dst.len() {
                    let idx = off + i;
                    let page = idx / PAGE_SIZE;
                    let run_end = ((page + 1) * PAGE_SIZE).min(off + dst.len());
                    let run = run_end - idx;
                    let src = if self.valid[page] { &self.data } else { bytes };
                    dst[i..i + run].copy_from_slice(&src[idx..idx + run]);
                    i += run;
                }
            }
            Backing::Private => {
                self.populate(off, dst.len());
                dst.copy_from_slice(&self.data[off..off + dst.len()]);
            }
        }
    }

    /// Reads the whole mapping into a fresh vector.
    pub fn read_all(&mut self) -> Vec<u8> {
        let mut out = vec![0; self.data.len()];
        self.read(0, &mut out);
        out
    }

    /// Stores `src` at `off`, copying affected pages first when they are
    /// still shared with an immutable IO-Lite buffer (COW).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the mapping.
    pub fn write(&mut self, off: usize, src: &[u8]) {
        assert!(
            off + src.len() <= self.data.len(),
            "write past end of mapping"
        );
        if src.is_empty() {
            return;
        }
        match &self.backing {
            Backing::Direct(s) => {
                // COW: pull each affected page into private storage before
                // modifying it; the handle clone (a refcount) unborrows `self`.
                let shared = s.clone();
                for p in self.page_range(off, src.len()) {
                    if !self.valid[p] {
                        let start = p * PAGE_SIZE;
                        let end = (start + PAGE_SIZE).min(self.data.len());
                        self.data[start..end].copy_from_slice(&shared.as_bytes()[start..end]);
                        self.valid[p] = true;
                        self.stats.cow_faults += 1;
                    }
                }
            }
            Backing::Private => {
                self.populate(off, src.len());
            }
        }
        self.data[off..off + src.len()].copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_buf::{Acl, BufferPool, PoolId};

    fn big_pool() -> BufferPool {
        BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024)
    }

    fn tiny_pool() -> BufferPool {
        // Forces fragmentation: 100-byte chunks.
        BufferPool::new(PoolId(2), Acl::kernel_only(), 100)
    }

    #[test]
    fn contiguous_source_reads_without_copies() {
        let data: Vec<u8> = (0..9000).map(|i| (i % 251) as u8).collect();
        let agg = Aggregate::from_bytes_aligned(&big_pool(), &data, PAGE_SIZE);
        let mut v = MmapView::new(agg);
        assert_eq!(v.read_all(), data);
        assert_eq!(v.stats().alignment_copies, 0);
        assert_eq!(v.stats().cow_faults, 0);
    }

    #[test]
    fn fragmented_source_pays_lazy_page_copies() {
        let data: Vec<u8> = (0..9000).map(|i| (i % 251) as u8).collect();
        let agg = Aggregate::from_bytes(&tiny_pool(), &data);
        assert!(agg.num_slices() > 1);
        let mut v = MmapView::new(agg);
        // Touch one byte on page 0: only that page is copied.
        let mut b = [0u8; 1];
        v.read(10, &mut b);
        assert_eq!(b[0], data[10]);
        assert_eq!(v.stats().alignment_copies, 1);
        // Full read copies the remaining pages (9000 bytes = 3 pages).
        assert_eq!(v.read_all(), data);
        assert_eq!(v.stats().alignment_copies, 3);
    }

    #[test]
    fn store_to_shared_page_triggers_cow() {
        let data = vec![7u8; 2 * PAGE_SIZE];
        let agg = Aggregate::from_bytes_aligned(&big_pool(), &data, PAGE_SIZE);
        let source_slice = agg.slice_at(0).clone();
        let mut v = MmapView::new(agg);
        v.write(0, &[1, 2, 3]);
        assert_eq!(v.stats().cow_faults, 1);
        // The mapping sees the store...
        let mut out = [0u8; 4];
        v.read(0, &mut out);
        assert_eq!(out, [1, 2, 3, 7]);
        // ...but the immutable buffer does not (snapshot semantics).
        assert_eq!(source_slice.as_bytes()[0], 7);
        // Page 1 was never stored to: still shared, no extra fault.
        let mut far = [0u8; 1];
        v.read(PAGE_SIZE + 5, &mut far);
        assert_eq!(far[0], 7);
        assert_eq!(v.stats().cow_faults, 1);
    }

    #[test]
    fn writes_to_fragmented_source_compose_with_population() {
        let data: Vec<u8> = (0..300).map(|i| i as u8).collect();
        let agg = Aggregate::from_bytes(&tiny_pool(), &data);
        let mut v = MmapView::new(agg);
        v.write(150, b"XYZ");
        let all = v.read_all();
        assert_eq!(&all[..150], &data[..150]);
        assert_eq!(&all[150..153], b"XYZ");
        assert_eq!(&all[153..], &data[153..]);
    }

    #[test]
    fn empty_mapping_is_harmless() {
        let v = MmapView::new(Aggregate::empty());
        assert!(v.is_empty());
        let mut v = v;
        assert_eq!(v.read_all(), Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn out_of_range_read_panics() {
        let agg = Aggregate::from_bytes(&big_pool(), b"abc");
        let mut v = MmapView::new(agg);
        let mut b = [0u8; 4];
        v.read(0, &mut b);
    }
}
