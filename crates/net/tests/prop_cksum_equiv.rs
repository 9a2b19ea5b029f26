//! Observational equivalence of the buffer-indexed `ChecksumCache`
//! against a scan-based reference model.
//!
//! The production cache keeps one hash table keyed by buffer identity
//! and chains a buffer's entries through the slot table, so
//! `invalidate_aggregate` costs O(entries removed). The model below is
//! a flat slot vector searched linearly, whose invalidation scans the
//! whole table per slice and retires the victims newest-first. Under
//! random interleavings both must agree on every returned sum and hit
//! flag, every counter, the entry count, and which slices are resident — CLOCK
//! victim choice included, since a different victim shows up as a
//! different hit/miss a few operations later.

use iolite_buf::{Acl, Aggregate, BufferPool, PoolId, Slice};
use iolite_net::{slice_sum, ChecksumCache, CksumCacheStats};
use proptest::prelude::*;

/// ⟨pool, chunk, offset in chunk, generation⟩: what a write retires.
type BufId = (u32, u64, u32, u64);
/// Buffer identity plus ⟨offset, len⟩ within the buffer.
type Key = (BufId, u64, u64);

fn buf_of(s: &Slice) -> BufId {
    (s.pool().0, s.id().chunk.0, s.id().offset, s.generation().0)
}

fn key_of(s: &Slice) -> Key {
    (buf_of(s), s.offset_in_buffer() as u64, s.len() as u64)
}

/// The reference: linear search, full scan per retired buffer.
struct ScanModel {
    capacity: usize,
    /// ⟨key, admission stamp, CLOCK reference bit⟩ in table order.
    slots: Vec<(Key, u64, bool)>,
    hand: usize,
    admitted: u64,
    stats: CksumCacheStats,
}

impl ScanModel {
    /// Whether `key` hits; a miss admits it.
    fn sum_for(&mut self, key: Key) -> bool {
        if let Some(slot) = self.slots.iter_mut().find(|s| s.0 == key) {
            slot.2 = true;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        self.admitted += 1;
        if self.slots.len() < self.capacity {
            self.slots.push((key, self.admitted, false));
            return false;
        }
        while self.slots[self.hand].2 {
            self.slots[self.hand].2 = false;
            self.hand = (self.hand + 1) % self.capacity;
        }
        self.slots[self.hand] = (key, self.admitted, false);
        self.stats.evictions += 1;
        self.hand = (self.hand + 1) % self.capacity;
        false
    }

    fn invalidate(&mut self, agg: &Aggregate) -> u64 {
        let mut removed = 0;
        for s in agg.slices() {
            let buf = buf_of(s);
            let mut victims: Vec<u64> = self
                .slots
                .iter()
                .filter(|v| v.0 .0 == buf)
                .map(|v| v.1)
                .collect();
            victims.sort_unstable_by(|a, b| b.cmp(a));
            for stamp in victims {
                let at = self.slots.iter().position(|v| v.1 == stamp).unwrap();
                self.slots.swap_remove(at);
                removed += 1;
            }
        }
        if removed > 0 {
            self.stats.invalidations += removed;
            self.hand = if self.slots.is_empty() {
                0
            } else {
                self.hand % self.slots.len()
            };
        }
        removed
    }
}

/// Sub-ranges a send window might cut from a 64-byte buffer; the first
/// is the whole slice.
const WINDOWS: [(usize, usize); 6] = [(0, 64), (0, 16), (16, 16), (8, 40), (32, 32), (63, 1)];
const DOCS: usize = 8;

fn window(s: &Slice, w: u8) -> Slice {
    let (off, len) = WINDOWS[w as usize % WINDOWS.len()];
    s.sub(off, len).unwrap()
}

/// Documents alternate between two pools (whose chunk ids, offsets and
/// generations coincide) and between one and two exactly-chunk-sized
/// buffers, so a dropped document's address is reused under a new
/// generation.
fn document(pools: &[BufferPool; 2], doc: usize, version: u8) -> Aggregate {
    let len = if doc % 4 < 2 { 64 } else { 128 };
    Aggregate::from_bytes(
        &pools[doc % 2],
        &vec![version.wrapping_mul(31) ^ doc as u8; len],
    )
}

#[derive(Debug, Clone)]
enum Op {
    /// Checksum one window of one slice of a document.
    Sum { doc: u8, slice: u8, window: u8 },
    /// A write retires the document's buffers.
    Invalidate { doc: u8 },
    /// The retired aggregate names one buffer in two slices.
    InvalidateTwoWindows { doc: u8, slice: u8 },
    /// Drop the document and allocate its next version, leaving any
    /// cached sums over the old generation behind.
    Recycle { doc: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let sum = || {
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(doc, slice, window)| Op::Sum {
            doc,
            slice,
            window,
        })
    };
    // The shim's `prop_oneof!` is uniform: listing `sum()` three times
    // makes half the operations checksums.
    prop_oneof![
        sum(),
        sum(),
        sum(),
        any::<u8>().prop_map(|doc| Op::Invalidate { doc }),
        (any::<u8>(), any::<u8>()).prop_map(|(doc, slice)| Op::InvalidateTwoWindows { doc, slice }),
        any::<u8>().prop_map(|doc| Op::Recycle { doc }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn buffer_index_matches_scan_model(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        capacity in 1usize..65,
    ) {
        let pools = [
            BufferPool::new(PoolId(1), Acl::kernel_only(), 64),
            BufferPool::new(PoolId(2), Acl::kernel_only(), 64),
        ];
        let mut docs: Vec<Aggregate> = (0..DOCS).map(|d| document(&pools, d, 0)).collect();
        let mut real = ChecksumCache::new(capacity);
        let mut model = ScanModel {
            capacity,
            slots: Vec::new(),
            hand: 0,
            admitted: 0,
            stats: CksumCacheStats::default(),
        };
        let mut version = 0u8;

        for op in &ops {
            match *op {
                Op::Sum { doc, slice, window: w } => {
                    let agg = &docs[doc as usize % DOCS];
                    let s = window(agg.slice_at(slice as usize % agg.slices().count()), w);
                    let (sum, hit) = real.sum_for(&s);
                    prop_assert_eq!(sum, slice_sum(&s), "stale checksum served");
                    let key = key_of(&s);
                    prop_assert_eq!(hit, model.sum_for(key), "hit or miss of {:?}", key);
                }
                Op::Invalidate { doc } => {
                    let agg = &docs[doc as usize % DOCS];
                    prop_assert_eq!(real.invalidate_aggregate(agg), model.invalidate(agg));
                }
                Op::InvalidateTwoWindows { doc, slice } => {
                    let agg = &docs[doc as usize % DOCS];
                    let s = agg.slice_at(slice as usize % agg.slices().count());
                    let mut twice = Aggregate::empty();
                    twice.append_slice(window(s, 1));
                    twice.append_slice(window(s, 4));
                    prop_assert_eq!(real.invalidate_aggregate(&twice), model.invalidate(&twice));
                }
                Op::Recycle { doc } => {
                    let d = doc as usize % DOCS;
                    version = version.wrapping_add(1);
                    // Drop first, so the allocation can reuse the address.
                    docs[d] = Aggregate::empty();
                    docs[d] = document(&pools, d, version);
                }
            }
            prop_assert_eq!(real.stats(), model.stats);
            prop_assert_eq!(real.len(), model.slots.len());
            prop_assert_eq!(real.is_empty(), model.slots.is_empty());
            // Residency of every key a live slice can name; with equal
            // lengths, the dead-generation remainder agrees in number.
            for agg in &docs {
                for s in agg.slices() {
                    for w in 0..WINDOWS.len() as u8 {
                        let s = window(s, w);
                        let key = key_of(&s);
                        prop_assert_eq!(
                            real.contains(&s),
                            model.slots.iter().any(|v| v.0 == key),
                            "residency of {:?}", key
                        );
                    }
                }
            }
        }
    }
}

// ---- complexity guard -----------------------------------------------------

/// Retiring a buffer must not pay for the table's population (§3.9). A
/// kernel-sized table holds 2^16 sums over unrelated buffers; then 2^18
/// PUTs each admit one to three send windows of a document and retire
/// its buffer. Every invalidation returns exactly its own entries and
/// leaves the residents alone: a second through the buffer index, 2^34
/// slot visits under the scan model above. No clock: a regression shows
/// as a suite that never finishes.
#[test]
fn invalidate_cost_does_not_scale_with_cache_size() {
    const RESIDENTS: usize = 1 << 16;
    const PUTS: u64 = 1 << 18;
    let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
    let residents: Vec<Aggregate> = (0..RESIDENTS)
        .map(|i| Aggregate::from_bytes(&pool, &(i as u64).to_le_bytes()))
        .collect();
    let doc = Aggregate::from_bytes(&pool, &[0x5A; 64]);
    let mut cache = ChecksumCache::new(RESIDENTS + WINDOWS.len());
    for r in &residents {
        cache.sum_for(r.slice_at(0));
    }
    for put in 0..PUTS {
        let windows = 1 + put % 3;
        for w in 0..windows {
            cache.sum_for(&window(doc.slice_at(0), w as u8));
        }
        assert_eq!(cache.invalidate_aggregate(&doc), windows, "put {put}");
        assert_eq!(cache.len(), RESIDENTS);
    }
    let stats = cache.stats();
    assert_eq!(stats.evictions, 0, "the table never overflowed");
    assert_eq!(stats.hits, 0, "no window outlived its buffer's retirement");
    assert!(residents.iter().all(|r| cache.contains(r.slice_at(0))));
}
