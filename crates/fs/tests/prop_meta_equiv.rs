//! Cold-path equivalence: the O(1) structures against what they replaced.
//!
//! * `MetadataCache` (hash index + intrusive recency list) against the
//!   scan implementation it replaced — one map of name → (id, stamp),
//!   the victim found by walking every entry for the oldest stamp —
//!   kept below as the model. Under random lookup / unresolvable-name
//!   sequences both must return the same `(id, hit)` per call and end
//!   with the same counters and the same digest bytes: the hit/miss
//!   sequence is what every simulated charge hangs off.
//! * `FileStore::stream` against `FileStore::read`, for arbitrary
//!   extents and arbitrary cuts of the range, synthetic, explicit and
//!   kept-body content, all three holding the same bytes; and the
//!   synthetic generator against its definition.
//! * A complexity guard: eviction cost must not scale with capacity.

use std::collections::HashMap;

use iolite_buf::{Acl, Aggregate, BufferPool, Fnv64, PoolId};
use iolite_fs::{FileContent, FileId, FileStore, MetadataCache};
use proptest::prelude::*;

/// The replaced implementation, verbatim in behaviour: exact LRU by
/// scanning all entries for the minimum stamp.
struct ScanMeta {
    capacity: usize,
    clock: u64,
    entries: HashMap<String, (FileId, u64)>,
    hits: u64,
    misses: u64,
}

impl ScanMeta {
    fn new(capacity: usize) -> Self {
        ScanMeta {
            capacity,
            clock: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn lookup(&mut self, name: &str, resolved: Option<FileId>) -> Option<(FileId, bool)> {
        self.clock += 1;
        if let Some((id, stamp)) = self.entries.get_mut(name) {
            *stamp = self.clock;
            self.hits += 1;
            return Some((*id, true));
        }
        let id = resolved?;
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("a full cache has a victim");
            self.entries.remove(&victim);
        }
        self.entries.insert(name.to_string(), (id, self.clock));
        Some((id, false))
    }

    fn digest(&self, h: &mut Fnv64) {
        h.write_u64(self.capacity as u64);
        h.write_u64(self.clock);
        h.write_u64(self.hits);
        h.write_u64(self.misses);
        let mut names: Vec<&String> = self.entries.keys().collect();
        names.sort_unstable();
        h.write_u64(names.len() as u64);
        for name in names {
            let (id, stamp) = self.entries[name];
            h.write_str(name);
            h.write_u64(id.0);
            h.write_u64(stamp);
        }
    }
}

fn digest_of(write: impl FnOnce(&mut Fnv64)) -> u64 {
    let mut h = Fnv64::new();
    write(&mut h);
    h.finish()
}

/// The synthetic content's definition: bytes `8·block..8·block + 8` of
/// the file seeded `seed` are the SplitMix64 hash of `seed ^ block·φ`.
fn synthetic_block(seed: u64, block: u64) -> [u8; 8] {
    let mut z = seed ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).to_le_bytes()
}

/// Everything `stream` hands the sink for one call, concatenated, with
/// the count it returns.
fn streamed(fs: &FileStore, id: FileId, offset: u64, len: u64) -> Option<(Vec<u8>, u64)> {
    let mut out = Vec::new();
    let n = fs.stream(id, offset, len, |run| out.extend_from_slice(run))?;
    Some((out, n))
}

/// A store holding the same bytes three times: as a synthetic file, as
/// its explicit materialization, and as a PUT body the store keeps in
/// the 7-byte buffers it arrived in (so extents cross buffer runs).
fn twin_store(len: u64, seed: u64) -> (FileStore, [FileId; 3]) {
    let mut fs = FileStore::new();
    let synthetic = fs.create_synthetic("s", len, seed);
    let bytes = fs.read(synthetic, 0, len).unwrap();
    let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 7);
    let kept = fs.create("k", FileContent::Explicit(Vec::new()));
    assert!(fs.replace(kept, &Aggregate::from_bytes(&pool, &bytes)));
    let explicit = fs.create("e", FileContent::Explicit(bytes));
    (fs, [synthetic, explicit, kept])
}

proptest! {
    /// Op kinds: 0–5 resolvable lookup, 6 unresolvable lookup (ticks the
    /// clock, caches nothing). The name universe is up to twice the
    /// largest capacity, so small caches churn constantly and large ones
    /// mix hits and cold misses.
    #[test]
    fn matches_the_scan_model(
        capacity in 1usize..65,
        universe in 1u16..130,
        ops in proptest::collection::vec((0u8..7, any::<u16>()), 1..400),
    ) {
        let mut real = MetadataCache::new(capacity);
        let mut model = ScanMeta::new(capacity);
        for (kind, pick) in ops {
            let n = pick % universe;
            let name = format!("/docs/{n}.html");
            match kind {
                0..=5 => {
                    let id = Some(FileId(u64::from(n)));
                    prop_assert_eq!(real.lookup(&name, || id), model.lookup(&name, id));
                }
                _ => {
                    // A name the store cannot resolve — unless it is
                    // cached, in which case both must hit.
                    prop_assert_eq!(real.lookup(&name, || None), model.lookup(&name, None));
                }
            }
            prop_assert_eq!(real.len(), model.entries.len());
            prop_assert!(real.len() <= capacity);
        }
        prop_assert_eq!(real.hits(), model.hits);
        prop_assert_eq!(real.misses(), model.misses);
        prop_assert_eq!(real.is_empty(), model.entries.is_empty());
        prop_assert_eq!(digest_of(|h| real.digest(h)), digest_of(|h| model.digest(h)));
        // A snapshot clone is the same cache.
        let snap = real.clone();
        prop_assert_eq!(digest_of(|h| snap.digest(h)), digest_of(|h| real.digest(h)));
    }

    /// `stream` over any cut of a range yields, concatenated, the bytes
    /// `read` returns — block-aligned or not, across EOF or not.
    #[test]
    fn stream_matches_read(
        len in 0u64..600,
        seed in any::<u64>(),
        offset in 0u64..640,
        want in 0u64..640,
        cuts in proptest::collection::vec(1u64..40, 0..12),
    ) {
        let (fs, ids) = twin_store(len, seed);
        for id in ids {
            let expected = fs.read(id, offset, want).unwrap();
            prop_assert_eq!(&expected, &fs.read(ids[0], offset, want).unwrap());
            prop_assert_eq!(expected.len() as u64, want.min(len.saturating_sub(offset)));
            let (whole, n) = streamed(&fs, id, offset, want).unwrap();
            prop_assert_eq!((&whole, n), (&expected, expected.len() as u64));
            // Many calls: the range cut into arbitrary pieces.
            let mut pieces = Vec::new();
            let mut at = 0;
            for cut in cuts.iter().copied().chain(std::iter::once(want)) {
                let end = (at + cut).min(want);
                pieces.extend(streamed(&fs, id, offset + at, end - at).unwrap().0);
                at = end;
            }
            prop_assert_eq!(&pieces, &expected);
        }
    }

    /// The streaming generator yields byte `i` of a synthetic file as
    /// byte `i mod 8` of `synthetic_block(seed, ⌊i/8⌋)`, for any extent:
    /// unaligned heads and tails, runs across the generator's batch
    /// boundaries, offsets far into a file too large to hold.
    #[test]
    fn synthetic_stream_matches_the_block_definition(
        seed in any::<u64>(),
        base in 0u64..(1 << 40),
        skew in 0u64..4096,
        len in 0u64..5000,
    ) {
        let mut fs = FileStore::new();
        let id = fs.create_synthetic("huge", 1 << 41, seed);
        let offset = base + skew;
        let (bytes, n) = streamed(&fs, id, offset, len).unwrap();
        prop_assert_eq!((bytes.len() as u64, n), (len, len));
        for (i, &b) in (offset..).zip(&bytes) {
            prop_assert_eq!(b, synthetic_block(seed, i / 8)[(i % 8) as usize], "byte {}", i);
        }
    }
}

/// Offsets and lengths near `u64::MAX` clamp instead of wrapping.
#[test]
fn read_clamps_huge_extents() {
    let (fs, ids) = twin_store(10, 3);
    for id in ids {
        let all = fs.read(id, 0, 10).unwrap();
        assert_eq!(fs.read(id, 3, u64::MAX).unwrap(), &all[3..]);
        assert_eq!(fs.read(id, 10, u64::MAX).unwrap(), b"");
        assert_eq!(fs.read(id, u64::MAX, u64::MAX).unwrap(), b"");
        // Past EOF a stream yields nothing.
        assert_eq!(streamed(&fs, id, u64::MAX, 4), Some((Vec::new(), 0)));
        assert_eq!(streamed(&fs, id, 11, u64::MAX), Some((Vec::new(), 0)));
    }
    assert_eq!(streamed(&fs, FileId(99), 0, 4), None);
}

/// 2^20 evicting misses against a 2^16-entry cache: about a second of
/// hashing and formatting with O(1) eviction, 2^36 entry visits — the
/// suite visibly stalls for minutes — under a victim scan. (No clock is
/// read: `clippy.toml` bans `Instant` workspace-wide, and the gap
/// between the two complexity classes needs no stopwatch.)
#[test]
fn eviction_cost_does_not_scale_with_capacity() {
    const CAPACITY: usize = 1 << 16;
    const MISSES: u64 = 1 << 20;
    let mut c = MetadataCache::new(CAPACITY);
    for n in 0..MISSES {
        let (_, hit) = c.lookup(&format!("/f{n}"), || Some(FileId(n))).unwrap();
        assert!(!hit);
    }
    assert_eq!(c.misses(), MISSES);
    assert_eq!(c.len(), CAPACITY);
    // Exact LRU: precisely the last CAPACITY names survive.
    let (kept, evicted) = (MISSES - CAPACITY as u64, MISSES - CAPACITY as u64 - 1);
    assert!(c.lookup(&format!("/f{kept}"), || None).is_some());
    assert!(c.lookup(&format!("/f{evicted}"), || None).is_none());
}
