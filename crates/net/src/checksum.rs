//! The Internet checksum (RFC 1071) over slices and aggregates.
//!
//! Computed for real over real bytes: the correctness tests compare
//! against [`reference_checksum`], a byte-serial sum, and the checksum
//! cache's hit/miss behaviour feeds the cost model. Per-slice partial
//! sums are combinable, which is what makes caching per ⟨buffer,
//! generation, range⟩ possible (§3.9): TCP checksums a segment by
//! folding the cached sums of its payload slices with the freshly
//! computed header sum. [`bytes_sum`] runs in RFC 1071 §2's fast form:
//! native-order words (B), summed in parallel (C), carries deferred (D).

use iolite_buf::{Aggregate, Slice};

/// A partial ones-complement sum with the byte length it covers.
///
/// Lengths matter when combining: a partial sum starting at an odd
/// global offset must be byte-swapped before folding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialSum {
    /// Ones-complement 16-bit accumulator (not yet inverted).
    pub sum: u16,
    /// Number of bytes covered.
    pub len: u64,
}

/// Independent `u64` accumulators in [`raw_sum`], one 32-bit word each
/// per 32-byte stride: vector adds at the baseline x86-64 target.
const LANES: usize = 8;

/// Bytes summed between folds in [`raw_sum`]: a lane takes 2^11 words
/// below 2^32 per block, so no input length can overflow it. A multiple
/// of the stride, so only the last block has a ragged tail.
const SUM_BLOCK: usize = 1 << 16;

/// Folds a ones-complement accumulator to 16 bits (2^16 ≡ 1 mod
/// 0xFFFF); only 0 folds to 0.
fn fold(mut acc: u64) -> u16 {
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    acc as u16
}

/// The ones-complement sum of a byte run as 16-bit big-endian words.
///
/// RFC 1071 §2: native-order 32-bit words are added into `u64` lanes
/// (B: the sum of byte-swapped words is the byte-swapped sum; C: the
/// lanes are independent; D: carries pile up in the upper bits and are
/// folded once per block), and the folded sum is read back in network
/// order. The ragged tail is zero-padded, so an odd last byte is the
/// high half of its word, as in the byte-serial sum.
fn raw_sum(data: &[u8]) -> u16 {
    let mut acc = 0u16;
    for block in data.chunks(SUM_BLOCK) {
        let mut lanes = [0u64; LANES];
        let strides = block.chunks_exact(4 * LANES);
        let mut tail = [0u8; 4 * LANES];
        tail[..strides.remainder().len()].copy_from_slice(strides.remainder());
        for stride in strides.chain([&tail[..]]) {
            for (lane, w) in lanes.iter_mut().zip(stride.chunks_exact(4)) {
                *lane += u64::from(u32::from_ne_bytes([w[0], w[1], w[2], w[3]]));
            }
        }
        acc = fold(lanes.iter().sum::<u64>() + u64::from(acc));
    }
    u16::from_be(acc)
}

/// Computes the partial sum of one slice's bytes.
pub fn slice_sum(s: &Slice) -> PartialSum {
    bytes_sum(s.as_bytes())
}

/// Computes the partial sum of a raw byte run (headers, copies).
pub fn bytes_sum(data: &[u8]) -> PartialSum {
    PartialSum {
        sum: raw_sum(data),
        len: data.len() as u64,
    }
}

/// Folds `b` onto `a`, where `b`'s data immediately follows `a`'s.
pub fn combine(a: PartialSum, b: PartialSum) -> PartialSum {
    // If `a` covers an odd number of bytes, `b`'s words are shifted one
    // byte in the overall stream: swap its accumulator before folding.
    let b_sum = if a.len % 2 == 1 {
        b.sum.rotate_left(8)
    } else {
        b.sum
    };
    PartialSum {
        sum: fold(u64::from(a.sum) + u64::from(b_sum)),
        len: a.len + b.len,
    }
}

/// The final Internet checksum of a complete message: the ones
/// complement of the folded sum.
pub fn finalize(p: PartialSum) -> u16 {
    !p.sum
}

/// Convenience: the Internet checksum of an aggregate's value.
pub fn internet_checksum(agg: &Aggregate) -> u16 {
    finalize(agg.slices().map(slice_sum).fold(bytes_sum(&[]), combine))
}

/// The RFC 1071 checksum computed byte by byte — even offsets are the
/// high halves of big-endian words — into an accumulator no test input
/// can overflow: the oracle [`bytes_sum`] is tested against (tests
/// only, but public so integration tests can cross-check).
pub fn reference_checksum(data: &[u8]) -> u16 {
    let mut acc: u64 = 0;
    for (i, &b) in data.iter().enumerate() {
        acc += u64::from(b) << if i % 2 == 0 { 8 } else { 0 };
    }
    !fold(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_buf::{Acl, BufferPool, PoolId};

    fn agg_of(data: &[u8], chunk: usize) -> Aggregate {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), chunk);
        Aggregate::from_bytes(&pool, data)
    }

    #[test]
    fn rfc1071_worked_example() {
        // RFC 1071 §3 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(bytes_sum(&data).sum, 0xddf2);
        assert_eq!(reference_checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        let data = [0xAB];
        assert_eq!(bytes_sum(&data).sum, 0xAB00);
    }

    #[test]
    fn fragmented_aggregate_matches_reference() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 256) as u8).collect();
        for chunk in [1, 2, 3, 7, 64, 999, 4096] {
            let agg = agg_of(&data, chunk);
            assert_eq!(
                internet_checksum(&agg),
                reference_checksum(&data),
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn combine_handles_odd_boundaries() {
        let data = b"abcdefg";
        for split in 0..=data.len() {
            let a = bytes_sum(&data[..split]);
            let b = bytes_sum(&data[split..]);
            assert_eq!(
                finalize(combine(a, b)),
                reference_checksum(data),
                "split {split}"
            );
        }
    }

    #[test]
    fn long_runs_do_not_overflow_the_accumulator() {
        // 2^19 words of 0xFFFF sum to 2^35 - 2^19: past a bare u32.
        let mut data = vec![0xFFu8; 1 << 20];
        data.extend_from_slice(&[0x12, 0x34, 0x56]);
        assert_eq!(finalize(bytes_sum(&data)), reference_checksum(&data));
        // Block boundaries fall mid-run for every length around them.
        for len in [SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 3 * SUM_BLOCK + 7] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            assert_eq!(!bytes_sum(&data).sum, reference_checksum(&data), "{len}");
        }
    }

    #[test]
    fn empty_data_checksum() {
        assert_eq!(reference_checksum(&[]), 0xFFFF);
        assert_eq!(internet_checksum(&Aggregate::empty()), 0xFFFF);
    }

    #[test]
    fn checksum_detects_corruption() {
        let data: Vec<u8> = (0..100).collect();
        let mut bad = data.clone();
        bad[50] ^= 0x40;
        assert_ne!(reference_checksum(&data), reference_checksum(&bad));
    }
}
