//! Property tests for the Internet checksum algebra and the checksum
//! cache's generation discipline, and the word-parallel kernel against
//! the byte-serial reference.

use iolite_buf::{splitmix64, Acl, Aggregate, BufferPool, PoolId};
use iolite_net::checksum::{bytes_sum, combine, finalize, reference_checksum};
use iolite_net::{internet_checksum, ChecksumCache};
use proptest::prelude::*;

/// `len` bytes of one of four shapes: seeded noise, all `0x00`, all
/// `0xFF`, or words followed by their ones complements — a nonzero sum
/// ≡ 0 mod 0xFFFF, which must fold to `0xFFFF`, never to 0.
fn shaped(shape: u8, len: usize, seed: u64) -> Vec<u8> {
    let noise = (0..len as u64).map(|i| splitmix64(seed ^ i) as u8);
    match shape {
        0 => noise.collect(),
        1 => vec![0x00; len],
        2 => vec![0xFF; len],
        _ => {
            let words: Vec<u8> = noise.take(len / 4 * 2).collect();
            let complements = words.iter().map(|b| !b);
            words
                .iter()
                .copied()
                .chain(complements)
                .chain([0; 3])
                .take(len)
                .collect()
        }
    }
}

proptest! {
    /// The word-parallel kernel is the byte-serial RFC 1071 sum, at
    /// every length up to two fold blocks, starting at either address
    /// parity: an odd last byte is a high half, the native-order sum is
    /// swapped back to network order, and a nonzero sum ≡ 0 folds to
    /// `0xFFFF` while only zeros sum to 0.
    #[test]
    fn bytes_sum_is_the_byte_serial_reference(
        len in 0usize..(1 << 17),
        parity in 0usize..2,
        shape in 0u8..4,
        seed in any::<u64>(),
    ) {
        let buf = shaped(shape, len + parity, seed);
        let data = &buf[parity..];
        let sum = bytes_sum(data);
        prop_assert_eq!(sum.len, data.len() as u64);
        prop_assert_eq!(finalize(sum), reference_checksum(data));
        if data.iter().all(|&b| b == 0) {
            prop_assert_eq!(sum.sum, 0);
        } else if shape == 3 && parity == 0 {
            prop_assert_eq!(sum.sum, 0xFFFF);
        }
    }

    /// Splitting a message anywhere and folding partial sums equals the
    /// whole-message checksum (the property per-slice caching needs).
    #[test]
    fn combine_is_concatenation(data in proptest::collection::vec(any::<u8>(), 0..512),
                                splits in proptest::collection::vec(any::<usize>(), 0..6)) {
        let mut cut_points: Vec<usize> = splits
            .into_iter()
            .map(|s| if data.is_empty() { 0 } else { s % (data.len() + 1) })
            .collect();
        cut_points.push(0);
        cut_points.push(data.len());
        cut_points.sort_unstable();
        let mut acc = bytes_sum(&[]);
        for pair in cut_points.windows(2) {
            acc = combine(acc, bytes_sum(&data[pair[0]..pair[1]]));
        }
        prop_assert_eq!(finalize(acc), reference_checksum(&data));
    }

    /// Any fragmentation of an aggregate yields the same checksum.
    #[test]
    fn aggregate_checksum_fragmentation_invariant(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        chunk in 1usize..128,
    ) {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), chunk);
        let agg = Aggregate::from_bytes(&pool, &data);
        prop_assert_eq!(internet_checksum(&agg), reference_checksum(&data));
    }

    /// The cache never serves a sum that differs from recomputation,
    /// across arbitrary allocate/drop/recompute interleavings (the
    /// generation-number discipline of §3.9).
    #[test]
    fn cache_never_stale(rounds in proptest::collection::vec(
        (proptest::collection::vec(any::<u8>(), 1..128), any::<bool>()), 1..40)) {
        // Tiny chunks force heavy recycling, the dangerous case.
        let pool = BufferPool::new(PoolId(2), Acl::kernel_only(), 128);
        let mut cache = ChecksumCache::new(8);
        let mut held: Vec<Aggregate> = Vec::new();
        for (data, drop_after) in rounds {
            let agg = Aggregate::from_bytes(&pool, &data);
            for s in agg.slices() {
                let (cached, _) = cache.sum_for(s);
                let fresh = iolite_net::slice_sum(s);
                prop_assert_eq!(cached, fresh, "stale checksum served");
            }
            if drop_after {
                held.clear();
            } else {
                held.push(agg);
            }
        }
    }
}
