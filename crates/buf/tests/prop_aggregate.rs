//! Property tests for the buffer-aggregate algebra.
//!
//! The invariant throughout: an aggregate's *value* (its byte string) is
//! preserved by every zero-copy operation, regardless of how the value is
//! fragmented across immutable buffers.

use iolite_buf::{digest_aggregate, Acl, Aggregate, BufferPool, DomainId, Fnv64, PoolId};
use proptest::prelude::*;

fn pool(chunk: usize) -> BufferPool {
    BufferPool::new(PoolId(1), Acl::with_domain(DomainId(1)), chunk)
}

/// Builds an aggregate whose fragmentation is controlled by `chunk`.
fn agg_from(data: &[u8], chunk: usize) -> Aggregate {
    Aggregate::from_bytes(&pool(chunk), data)
}

proptest! {
    #[test]
    fn from_bytes_round_trips(data in proptest::collection::vec(any::<u8>(), 0..2048),
                              chunk in 1usize..256) {
        let a = agg_from(&data, chunk);
        prop_assert_eq!(a.to_vec(), data.clone());
        prop_assert_eq!(a.len(), data.len() as u64);
    }

    #[test]
    fn split_concat_is_identity(data in proptest::collection::vec(any::<u8>(), 0..1024),
                                mid in any::<u64>(),
                                chunk in 1usize..128) {
        let a = agg_from(&data, chunk);
        let (h, t) = a.split_at(mid % (data.len() as u64 + 1));
        let rejoined = h.concat(&t);
        prop_assert_eq!(rejoined.to_vec(), a.to_vec());
        prop_assert_eq!(h.len() + t.len(), a.len());
    }

    #[test]
    fn range_matches_std_slice(data in proptest::collection::vec(any::<u8>(), 1..1024),
                               a in any::<usize>(), b in any::<usize>(),
                               chunk in 1usize..128) {
        let start = a % data.len();
        let len = b % (data.len() - start + 1);
        let agg = agg_from(&data, chunk);
        let r = agg.range(start as u64, len as u64).unwrap();
        prop_assert_eq!(r.to_vec(), data[start..start + len].to_vec());
    }

    #[test]
    fn truncate_advance_compose(data in proptest::collection::vec(any::<u8>(), 0..512),
                                n in any::<u64>(), m in any::<u64>(),
                                chunk in 1usize..64) {
        let mut agg = agg_from(&data, chunk);
        let n = n % (data.len() as u64 + 1);
        agg.truncate(n);
        let m = m % (n + 1);
        agg.advance(m);
        prop_assert_eq!(agg.to_vec(), data[m as usize..n as usize].to_vec());
    }

    #[test]
    fn replace_matches_vec_splice(data in proptest::collection::vec(any::<u8>(), 0..512),
                                  start in any::<u64>(), len in any::<u64>(),
                                  patch in proptest::collection::vec(any::<u8>(), 0..128),
                                  chunk in 1usize..64) {
        let p = pool(chunk);
        let agg = Aggregate::from_bytes(&p, &data);
        let start = start % (data.len() as u64 + 1);
        let len = len % (data.len() as u64 - start + 1);
        let out = agg.replace(&p, start, len, &patch).unwrap();

        let mut expect = data[..start as usize].to_vec();
        expect.extend_from_slice(&patch);
        expect.extend_from_slice(&data[(start + len) as usize..]);
        prop_assert_eq!(out.to_vec(), expect);
        // The original value is never disturbed (immutability).
        prop_assert_eq!(agg.to_vec(), data.clone());
    }

    #[test]
    fn byte_at_matches_indexing(data in proptest::collection::vec(any::<u8>(), 1..512),
                                chunk in 1usize..64) {
        let agg = agg_from(&data, chunk);
        for (i, &b) in data.iter().enumerate() {
            prop_assert_eq!(agg.byte_at(i as u64), Some(b));
        }
        prop_assert_eq!(agg.byte_at(data.len() as u64), None);
    }

    #[test]
    fn copy_to_matches_slice(data in proptest::collection::vec(any::<u8>(), 1..512),
                             off in any::<u64>(), want in 0usize..64,
                             chunk in 1usize..64) {
        let agg = agg_from(&data, chunk);
        let off = off % (data.len() as u64 + 1);
        let mut buf = vec![0u8; want];
        let got = agg.copy_to(off, &mut buf);
        let expect = &data[off as usize..(off as usize + want).min(data.len())];
        prop_assert_eq!(got, expect.len());
        prop_assert_eq!(&buf[..got], expect);
    }

    #[test]
    fn pack_preserves_value(data in proptest::collection::vec(any::<u8>(), 0..512),
                            chunk in 1usize..32) {
        let small = pool(chunk);
        let big = pool(4096);
        let frag = Aggregate::from_bytes(&small, &data);
        let packed = frag.pack(&big);
        prop_assert_eq!(packed.to_vec(), data);
        prop_assert!(packed.num_slices() <= 1 || data.len() > 4096);
    }

    #[test]
    fn reader_streams_value(data in proptest::collection::vec(any::<u8>(), 0..512),
                            chunk in 1usize..64) {
        use std::io::Read;
        let a = agg_from(&data, chunk);
        let mut out = Vec::new();
        a.reader().read_to_end(&mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn cursor_and_iovecs_match_to_vec_across_mutations(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        chunk in 1usize..96,
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..24),
    ) {
        // Drive an aggregate and a Vec<u8> model through the same random
        // sequence of advance / truncate / sub-range / replace, checking
        // after every step that the zero-alloc access paths (cursor
        // chunks, interior cursor copy, iovec view, byte_at) agree with
        // the materialized value.
        let p = pool(chunk);
        let mut agg = Aggregate::from_bytes(&p, &data);
        let mut model = data.clone();
        for (op, x, y) in ops {
            let len = model.len() as u64;
            match op % 4 {
                0 => {
                    let n = x % (len + 1);
                    agg.advance(n);
                    model.drain(..n as usize);
                }
                1 => {
                    let n = x % (len + 1);
                    agg.truncate(n);
                    model.truncate(n as usize);
                }
                2 => {
                    let start = x % (len + 1);
                    let sub = y % (len - start + 1);
                    agg = agg.range(start, sub).unwrap();
                    model = model[start as usize..(start + sub) as usize].to_vec();
                }
                _ => {
                    let start = x % (len + 1);
                    let cut = y % (len - start + 1);
                    let patch: Vec<u8> =
                        (0..(y % 40) as u8).map(|i| i.wrapping_mul(31)).collect();
                    agg = agg.replace(&p, start, cut, &patch).unwrap();
                    model.splice(
                        start as usize..(start + cut) as usize,
                        patch.iter().copied(),
                    );
                }
            }
            prop_assert_eq!(agg.len(), model.len() as u64);
            // Cursor chunk walk reconstructs the value.
            let mut via_cursor = Vec::with_capacity(model.len());
            let mut cur = agg.cursor();
            while let Some(c) = cur.next_chunk() {
                via_cursor.extend_from_slice(c);
            }
            prop_assert_eq!(&via_cursor, &model);
            prop_assert_eq!(&agg.to_vec(), &model);
            // The iovec view flattens to the same value.
            let iov: Vec<&[u8]> = agg.chunks().collect();
            prop_assert_eq!(iov.len(), agg.num_slices());
            prop_assert_eq!(iov.concat(), model.clone());
            if !model.is_empty() {
                // Interior cursor: copy the tail from a random offset.
                let off = (x ^ y) % model.len() as u64;
                let mut buf = vec![0u8; model.len() - off as usize];
                prop_assert_eq!(agg.cursor_at(off).copy_to(&mut buf), buf.len());
                prop_assert_eq!(&buf[..], &model[off as usize..]);
                // Indexed probe agrees with the model.
                prop_assert_eq!(agg.byte_at(off), Some(model[off as usize]));
                // find_byte agrees with the model's linear scan.
                let target = model[off as usize];
                let expect = model
                    .iter()
                    .position(|&b| b == target)
                    .map(|i| i as u64);
                prop_assert_eq!(agg.find_byte(0, target), expect);
            }
        }
    }

    #[test]
    fn recycling_never_corrupts_live_data(sizes in proptest::collection::vec(1usize..512, 1..40)) {
        // Interleave allocations and drops; live aggregates must keep
        // their values even as chunks recycle underneath the pool.
        let p = pool(1024);
        let mut live: Vec<(Vec<u8>, Aggregate)> = Vec::new();
        for (i, &sz) in sizes.iter().enumerate() {
            let data: Vec<u8> = (0..sz).map(|j| (i * 31 + j) as u8).collect();
            let agg = Aggregate::from_bytes(&p, &data);
            live.push((data, agg));
            if i % 3 == 2 {
                live.remove(0);
            }
            for (expect, agg) in &live {
                prop_assert_eq!(&agg.to_vec(), expect);
            }
        }
    }

    /// `fill_aligned` is `from_bytes_aligned` minus the staging vector:
    /// on twin pools, through fresh, open and recycled chunks alike, it
    /// yields slice for slice the same buffer ids, generations, offsets,
    /// lengths and bytes, and the producer is handed each buffer once,
    /// in order, to fill to capacity.
    #[test]
    fn fill_aligned_allocates_like_from_bytes_aligned(
        chunk in 1usize..300,
        builds in proptest::collection::vec((0usize..900, 0u8..4, any::<bool>()), 1..24),
    ) {
        let (copied_pool, filled_pool) = (pool(chunk), pool(chunk));
        let mut live = Vec::new();
        for (i, &(len, align_log2, keep)) in builds.iter().enumerate() {
            let align = (1usize << (align_log2 * 2)).min(chunk);
            let data: Vec<u8> = (0..len).map(|j| (i * 131 + j * 7) as u8).collect();
            let copied = Aggregate::from_bytes_aligned(&copied_pool, &data, align);
            let mut next = 0u64;
            let filled = Aggregate::fill_aligned(&filled_pool, len as u64, align, |offset, mut b| {
                assert_eq!(offset, next, "fills arrive in order, without gaps");
                assert_eq!(b.remaining(), b.capacity(), "each buffer arrives empty");
                next += b.capacity() as u64;
                b.put(&data[offset as usize..][..b.capacity()]);
                b.freeze()
            });
            prop_assert_eq!(next, len as u64);
            prop_assert_eq!(filled.num_slices(), copied.num_slices());
            for (f, c) in filled.slices().zip(copied.slices()) {
                prop_assert_eq!(f.id(), c.id());
                prop_assert_eq!(f.generation(), c.generation());
                prop_assert_eq!(f.offset_in_buffer(), c.offset_in_buffer());
                prop_assert_eq!(f.len(), c.len());
                prop_assert_eq!(f.as_bytes(), c.as_bytes());
                prop_assert_eq!(f.id().offset as usize % align, 0);
            }
            prop_assert_eq!(&filled.to_vec(), &data);
            // Dropping some pairs lets chunks drain and recycle, in step.
            if keep {
                live.push((copied, filled));
            }
        }
        prop_assert_eq!(copied_pool.stats(), filled_pool.stats());
    }

    /// A lazily sealed aggregate is `fill_aligned` with the same
    /// producer run eagerly: on twin pools, through fresh, open and
    /// recycled chunks alike, slice for slice the same buffer ids,
    /// generations, offsets and lengths, the same digest — taken
    /// without producing a byte — and, once read, the same bytes.
    #[test]
    fn lazy_sealing_allocates_and_reads_like_fill_aligned(
        chunk in 1usize..300,
        builds in proptest::collection::vec((0usize..900, 0u8..4, any::<bool>(), any::<u64>()), 1..24),
    ) {
        let (eager_pool, lazy_pool) = (pool(chunk), pool(chunk));
        let mut live = Vec::new();
        for &(len, align_log2, keep, seed) in &builds {
            let align = (1usize << (align_log2 * 2)).min(chunk);
            let eager = Aggregate::fill_aligned(&eager_pool, len as u64, align, |at, mut b| {
                ramp(seed, at, b.capacity() as u64, &mut |run| b.put(run));
                b.freeze()
            });
            let lazy = Aggregate::fill_aligned(&lazy_pool, len as u64, align, |at, b| {
                b.freeze_lazy(ramp, seed, at)
            });
            prop_assert_eq!(lazy.num_slices(), eager.num_slices());
            for (l, e) in lazy.slices().zip(eager.slices()) {
                prop_assert_eq!(l.id(), e.id());
                prop_assert_eq!(l.generation(), e.generation());
                prop_assert_eq!(l.offset_in_buffer(), e.offset_in_buffer());
                prop_assert_eq!(l.len(), e.len());
            }
            prop_assert_eq!(digest(&lazy), digest(&eager));
            prop_assert!(lazy.slices().all(|s| !s.is_produced()), "observing is not reading");
            prop_assert_eq!(&lazy.to_vec(), &eager.to_vec());
            prop_assert!(lazy.slices().all(|s| s.is_produced()));
            // Dropping some pairs lets chunks drain and recycle, in step.
            if keep {
                live.push((lazy, eager));
            }
        }
        prop_assert_eq!(eager_pool.stats(), lazy_pool.stats());
        for (lazy, eager) in &live {
            prop_assert_eq!(&lazy.to_vec(), &eager.to_vec());
        }
    }
}

/// A pure producer for the lazy-sealing property: byte `i` of content
/// `seed` is a mix of both, streamed in runs of up to 7 bytes so a
/// buffer's bytes arrive in pieces.
fn ramp(seed: u64, offset: u64, len: u64, sink: &mut dyn FnMut(&[u8])) {
    let bytes: Vec<u8> = (offset..offset + len)
        .map(|i| (seed ^ i.wrapping_mul(0x9E37_79B9)) as u8)
        .collect();
    bytes.chunks(7).for_each(sink);
}

fn digest(agg: &Aggregate) -> u64 {
    let mut h = Fnv64::new();
    digest_aggregate(agg, &mut h);
    h.finish()
}

// ---- the inline ↔ spilled boundary ------------------------------------------

/// Slices an aggregate holds inline; one more spills the list to its
/// deque, and shrinking back to this many returns it inline.
const N: usize = Aggregate::INLINE_SLICES;

/// `slices` equal cuts of `len` bytes each, by reference out of one
/// buffer — fragmentation without allocation.
fn cut(data: &[u8], len: usize) -> Aggregate {
    let whole = agg_from(data, data.len().max(1));
    let mut agg = Aggregate::empty();
    for off in (0..data.len()).step_by(len) {
        agg.append_slice(
            whole
                .slice_at(0)
                .sub(off, len.min(data.len() - off))
                .unwrap(),
        );
    }
    agg
}

/// Every access path agrees with the model bytes.
fn assert_reads_as(agg: &Aggregate, model: &[u8]) {
    assert_eq!(agg.len(), model.len() as u64);
    assert_eq!(agg.to_vec(), model);
    assert_eq!(agg.chunks().map(<[u8]>::len).sum::<usize>(), model.len());
    assert_eq!(
        agg.slices().rev().map(|s| s.len()).sum::<usize>(),
        model.len()
    );
    assert!(agg.slices().all(|s| !s.is_empty()));
    for (i, &b) in model.iter().enumerate() {
        assert_eq!(agg.byte_at(i as u64), Some(b), "byte {i}");
    }
    assert_eq!(agg.byte_at(model.len() as u64), None);
    for at in [0, model.len() / 2, model.len().saturating_sub(1)] {
        let mut buf = vec![0u8; model.len() - at];
        assert_eq!(agg.cursor_at(at as u64).copy_to(&mut buf), buf.len());
        assert_eq!(buf, &model[at..]);
    }
}

/// Every operation, with the operand at N−1, N and N+1 slices (and a
/// little beyond), so each is exercised inline, at the brim, and
/// spilled — and across the boundary in both directions.
#[test]
fn every_operation_crosses_the_inline_boundary_both_ways() {
    const LEN: usize = 5;
    for slices in N - 1..=N + 3 {
        let data: Vec<u8> = (0..slices * LEN).map(|i| (i * 37 + slices) as u8).collect();
        let agg = cut(&data, LEN);
        assert_eq!(agg.num_slices(), slices);
        assert_reads_as(&agg, &data);
        assert_reads_as(&agg.clone(), &data);

        // Grow across the boundary from either end, one slice at a time.
        let extra = agg_from(b"xyz", 3);
        let (mut back, mut front) = (agg.clone(), agg.clone());
        let (mut back_model, mut front_model) = (data.clone(), data.clone());
        for _ in 0..3 {
            back.append_slice(extra.slice_at(0).clone());
            back_model.extend_from_slice(b"xyz");
            assert_reads_as(&back, &back_model);
            front.prepend_slice(extra.slice_at(0).clone());
            front_model.splice(0..0, *b"xyz");
            assert_reads_as(&front, &front_model);
        }
        assert_reads_as(&agg.concat(&agg), &[&data[..], &data[..]].concat());
        let mut pre = agg.clone();
        pre.prepend(&agg);
        assert_reads_as(&pre, &[&data[..], &data[..]].concat());

        // Shrink across it from either end, to every length: whole
        // slices dropped, boundary slices trimmed, then regrown.
        for keep in 0..=data.len() {
            let mut head = back.clone();
            head.truncate(keep as u64);
            assert_reads_as(&head, &back_model[..keep]);
            head.append(&extra);
            assert_eq!(head.to_vec(), [&back_model[..keep], b"xyz"].concat());
            let mut tail = front.clone();
            tail.advance((front_model.len() - keep) as u64);
            assert_reads_as(&tail, &front_model[front_model.len() - keep..]);
            tail.prepend(&extra);
            assert_eq!(
                tail.to_vec(),
                [b"xyz", &front_model[front_model.len() - keep..]].concat()
            );
        }

        // Ranges out of a (possibly spilled) aggregate into a (possibly
        // inline) one.
        for start in 0..data.len() {
            for len in [0, 1, LEN, LEN + 1, N * LEN, data.len() - start] {
                let len = len.min(data.len() - start);
                let r = agg.range(start as u64, len as u64).unwrap();
                assert!(r.num_slices() <= len.div_ceil(LEN) + 1);
                assert_reads_as(&r, &data[start..start + len]);
            }
        }
        let whole = agg.whole_slices(1, (N * LEN) as u64);
        assert_reads_as(&whole, &data[LEN..LEN + (slices - 1).min(N) * LEN]);
    }
}

/// §3.3: a buffer's ACL is the pool's *at allocation time*. The ACL is
/// a shared handle now, so this pins the copy-on-write: a later grant
/// must not reach buffers that already exist.
#[test]
fn acl_snapshot_survives_later_grant() {
    let p = pool(64);
    let d = DomainId(9);
    let before = Aggregate::from_bytes(&p, b"allocated before the grant");
    p.grant(d);
    let after = Aggregate::from_bytes(&p, b"allocated after it");
    assert!(before
        .slices()
        .all(|s| !s.acl().allows(d) && s.acl().allows(DomainId(1))));
    assert!(after
        .slices()
        .all(|s| s.acl().allows(d) && s.acl().allows(DomainId(1))));
    assert!(p.acl().allows(d));
    // Views and clones of the old buffer keep the old answer.
    let view = before.range(3, 5).unwrap();
    assert!(!view.slice_at(0).acl().allows(d));
}

// ---- complexity guards ----------------------------------------------------

/// 2^18 slices of 16 bytes: §3.8's fragmentation regime, well past
/// anything a server builds.
const FRAG_SLICES: usize = 1 << 18;
const FRAG_SLICE_LEN: usize = 16;

fn fragmented() -> (Vec<u8>, Aggregate) {
    let data: Vec<u8> = (0..FRAG_SLICES * FRAG_SLICE_LEN)
        .map(|i| (i / FRAG_SLICE_LEN * 7 + i % FRAG_SLICE_LEN) as u8)
        .collect();
    // Cut from 64 KB buffers by reference: a pool of 16-byte chunks
    // would spend the test allocating.
    let mut agg = Aggregate::empty();
    for s in agg_from(&data, 64 * 1024).slices() {
        for off in (0..s.len()).step_by(FRAG_SLICE_LEN) {
            agg.append_slice(s.sub(off, FRAG_SLICE_LEN).unwrap());
        }
    }
    assert_eq!(agg.num_slices(), FRAG_SLICES);
    (data, agg)
}

/// Locating an offset must not pay for the slices in front of it. 2^20
/// probes each of `byte_at`, `range` and `copy_to` (16-byte windows, so
/// the locate is the whole cost) across a 2^18-slice aggregate: about a
/// second through the cumulative-offset index, 2^37 slice visits per
/// operation under the linear walk it replaced. No clock is read
/// (`clippy.toml` bans `Instant`): a regression shows as a suite that
/// stalls for minutes.
#[test]
fn locate_cost_does_not_scale_with_slice_count() {
    const PROBES: u64 = 1 << 20;
    let (data, agg) = fragmented();
    let last = agg.len() - FRAG_SLICE_LEN as u64;
    let mut window = [0u8; FRAG_SLICE_LEN];
    let mut at = 7u64;
    for _ in 0..PROBES {
        // Full-period LCG over the offsets, deep ones included.
        at = (at * 1_664_525 + 1_013_904_223) % last;
        let expect = &data[at as usize..][..FRAG_SLICE_LEN];
        assert_eq!(agg.byte_at(at), Some(expect[0]));
        let r = agg.range(at, FRAG_SLICE_LEN as u64).unwrap();
        assert!(r.num_slices() <= 2 && r.byte_at(15) == Some(expect[15]));
        assert_eq!(agg.copy_to(at, &mut window), FRAG_SLICE_LEN);
        assert_eq!(window, expect);
    }
}

/// Prepending must not shift what is already there: 2^20 header
/// prepends onto a 2^18-slice body move the base offset, never the
/// 2^18..2^20 slices behind it (`Vec::insert(0)` is ~2^39 moves).
#[test]
fn prepend_cost_does_not_scale_with_slice_count() {
    const PREPENDS: u64 = 1 << 20;
    let (data, mut agg) = fragmented();
    let header = agg_from(b"H", 1);
    for _ in 0..PREPENDS {
        agg.prepend(&header);
    }
    assert_eq!(agg.len(), PREPENDS + data.len() as u64);
    assert_eq!(agg.num_slices(), PREPENDS as usize + FRAG_SLICES);
    // The index still addresses both sides of the old front.
    assert_eq!(agg.byte_at(PREPENDS - 1), Some(b'H'));
    assert_eq!(agg.byte_at(PREPENDS), Some(data[0]));
    assert_eq!(agg.byte_at(agg.len() - 1), data.last().copied());
}
