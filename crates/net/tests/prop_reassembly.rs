//! Property tests for TCP segment reassembly (PR 9): under *any*
//! segmentation of a byte stream, delivered in *any* order, with
//! arbitrary duplication and overlapping retransmissions, the receiver
//! hands the application exactly the original bytes, exactly once, in
//! order — and its bookkeeping (cumulative ACK point, reorder-queue
//! occupancy) stays honest throughout.

use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
use iolite_net::TcpReceiver;
use proptest::prelude::*;

/// Cuts `data` into `(seq, bytes)` segments at the given cut points.
fn segment(data: &[u8], cuts: &[usize]) -> Vec<(u64, Vec<u8>)> {
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|c| {
            if data.is_empty() {
                0
            } else {
                c % (data.len() + 1)
            }
        })
        .collect();
    points.push(0);
    points.push(data.len());
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| (w[0] as u64, data[w[0]..w[1]].to_vec()))
        .collect()
}

/// Feeds segments in `order` (with optional duplicates interleaved) and
/// returns everything the receiver released, concatenated. Checks on
/// every step that the cumulative ACK point (`next_seq`) never runs
/// ahead of what was actually released-or-releasable in order.
fn deliver(
    rx: &mut TcpReceiver,
    pool: &BufferPool,
    segments: &[(u64, Vec<u8>)],
    order: &[usize],
    dup_every: usize,
) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, &idx) in order.iter().enumerate() {
        let (seq, bytes) = &segments[idx];
        rx.on_segment(*seq, Aggregate::from_bytes(pool, bytes));
        if dup_every > 0 && i % dup_every == 0 {
            // Immediate duplicate of the same segment — the
            // retransmission that raced its own ACK.
            rx.on_segment(*seq, Aggregate::from_bytes(pool, bytes));
        }
        if let Some(agg) = rx.read_available() {
            out.extend_from_slice(&agg.to_vec());
        }
        assert_eq!(rx.next_seq(), out.len() as u64 + rx.available());
    }
    while let Some(agg) = rx.read_available() {
        out.extend_from_slice(&agg.to_vec());
    }
    out
}

fn pool() -> BufferPool {
    BufferPool::new(PoolId(9), Acl::kernel_only(), 4096)
}

proptest! {
    /// Any permutation of any segmentation reassembles byte-identically.
    #[test]
    fn any_permutation_reassembles(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        cuts in proptest::collection::vec(any::<usize>(), 0..24),
        shuffle_seed in any::<u64>(),
    ) {
        let segments = segment(&data, &cuts);
        let mut order: Vec<usize> = (0..segments.len()).collect();
        // Fisher–Yates from the seed (no RNG deps in this crate's tests).
        let mut s = shuffle_seed | 1;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut rx = TcpReceiver::new(0);
        let out = deliver(&mut rx, &pool(), &segments, &order, 0);
        prop_assert_eq!(rx.next_seq(), data.len() as u64);
        prop_assert_eq!(out, data);
        prop_assert_eq!(rx.reorder_bytes(), 0, "queue fully drained");
    }

    /// Duplication on top of permutation changes nothing: every byte is
    /// delivered exactly once.
    #[test]
    fn duplicates_are_invisible(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        cuts in proptest::collection::vec(any::<usize>(), 0..16),
        dup_every in 1usize..4,
    ) {
        let segments = segment(&data, &cuts);
        // Reversed order maximizes queue residency while dups arrive.
        let order: Vec<usize> = (0..segments.len()).rev().collect();
        let mut rx = TcpReceiver::new(0);
        let out = deliver(&mut rx, &pool(), &segments, &order, dup_every);
        prop_assert_eq!(out, data);
    }

    /// Overlapping retransmissions — segments re-cut at *different*
    /// boundaries, as go-back-N produces after a partial ACK — still
    /// reassemble to the original bytes exactly once.
    #[test]
    fn overlapping_recuts_reassemble(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        cuts_a in proptest::collection::vec(any::<usize>(), 0..12),
        cuts_b in proptest::collection::vec(any::<usize>(), 0..12),
        interleave in any::<bool>(),
    ) {
        let a = segment(&data, &cuts_a);
        let b = segment(&data, &cuts_b);
        let p = pool();
        let mut rx = TcpReceiver::new(0);
        let mut out = Vec::new();
        let feed = |rx: &mut TcpReceiver, seg: &(u64, Vec<u8>), out: &mut Vec<u8>| {
            rx.on_segment(seg.0, Aggregate::from_bytes(&p, &seg.1));
            if let Some(agg) = rx.read_available() {
                out.extend_from_slice(&agg.to_vec());
            }
        };
        if interleave {
            let mut ia = a.iter();
            let mut ib = b.iter().rev();
            loop {
                let (sa, sb) = (ia.next(), ib.next());
                if let Some(seg) = sb { feed(&mut rx, seg, &mut out); }
                if let Some(seg) = sa { feed(&mut rx, seg, &mut out); }
                if sa.is_none() && sb.is_none() { break; }
            }
        } else {
            // Whole stream at cut set B (out of order), then a full
            // go-back-N replay at cut set A.
            for seg in b.iter().rev() { feed(&mut rx, seg, &mut out); }
            for seg in &a { feed(&mut rx, seg, &mut out); }
        }
        while let Some(agg) = rx.read_available() {
            out.extend_from_slice(&agg.to_vec());
        }
        prop_assert_eq!(out, data);
        prop_assert_eq!(rx.next_seq(), data.len() as u64);
    }

    /// A nonzero initial sequence number shifts nothing: reassembly is
    /// position-relative.
    #[test]
    fn initial_seq_is_an_offset(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
        isn in 0u64..u64::MAX / 2,
    ) {
        let segments = segment(&data, &cuts);
        let mut rx = TcpReceiver::new(isn);
        let p = pool();
        let mut out = Vec::new();
        for (seq, bytes) in segments.iter().rev() {
            rx.on_segment(isn + seq, Aggregate::from_bytes(&p, bytes));
            if let Some(agg) = rx.read_available() {
                out.extend_from_slice(&agg.to_vec());
            }
        }
        prop_assert_eq!(out, data);
        prop_assert_eq!(rx.next_seq(), isn + data.len() as u64);
    }
}
