//! TCP receive-side stream reassembly over buffer aggregates.
//!
//! Early demultiplexing (§3.6, assumed by the model) leaves each
//! packet's payload in an IO-Lite buffer of the receiver's pool; this
//! module assembles those payloads into the in-order byte stream **by
//! reference** — out-of-order segments wait in a reorder queue as
//! aggregates and are concatenated with pointer manipulation when their
//! turn comes, never copied. This is the receive-side counterpart of
//! the zero-copy send path.

use std::collections::BTreeMap;

use iolite_buf::Aggregate;

/// Reassembly statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReassemblyStats {
    /// Segments accepted in order.
    pub in_order: u64,
    /// Segments queued out of order.
    pub out_of_order: u64,
    /// Duplicate or fully overlapping segments dropped.
    pub duplicates: u64,
    /// Bytes trimmed from partially overlapping segments.
    pub bytes_trimmed: u64,
}

/// One direction of a TCP connection's receive buffer.
///
/// # Examples
///
/// ```
/// use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
/// use iolite_net::reassembly::TcpReceiver;
///
/// let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
/// let mut rx = TcpReceiver::new(1);
/// // Segment 2 arrives before segment 1.
/// rx.on_segment(6, Aggregate::from_bytes(&pool, b"world"));
/// assert!(rx.read_available().is_none());
/// rx.on_segment(1, Aggregate::from_bytes(&pool, b"hello"));
/// assert_eq!(rx.read_available().unwrap().to_vec(), b"helloworld");
/// ```
#[derive(Debug)]
pub struct TcpReceiver {
    next_seq: u64,
    /// Out-of-order segments keyed by sequence number.
    reorder: BTreeMap<u64, Aggregate>,
    /// In-order data awaiting the application.
    ready: Aggregate,
    stats: ReassemblyStats,
}

impl TcpReceiver {
    /// Creates a receiver expecting the first byte at `initial_seq`.
    pub fn new(initial_seq: u64) -> Self {
        TcpReceiver {
            next_seq: initial_seq,
            reorder: BTreeMap::new(),
            ready: Aggregate::empty(),
            stats: ReassemblyStats::default(),
        }
    }

    /// The next expected sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Accepts one segment (`seq` = sequence number of its first byte).
    ///
    /// In-order data becomes readable immediately; out-of-order data
    /// waits; duplicates are dropped; partial overlaps are trimmed.
    /// All of it by reference — no payload byte is copied.
    pub fn on_segment(&mut self, seq: u64, payload: Aggregate) {
        if payload.is_empty() {
            return;
        }
        let end = seq + payload.len();
        if end <= self.next_seq {
            // Entirely old data (retransmission of ACKed bytes).
            self.stats.duplicates += 1;
            return;
        }
        let mut seq = seq;
        let mut payload = payload;
        if seq < self.next_seq {
            // Overlapping prefix: trim it (zero-copy advance).
            let trim = self.next_seq - seq;
            payload.advance(trim);
            self.stats.bytes_trimmed += trim;
            seq = self.next_seq;
        }
        if seq == self.next_seq {
            self.stats.in_order += 1;
            self.ready.append(&payload);
            self.next_seq = end;
            self.drain_reorder();
        } else {
            // Future data: queue, keeping the earliest copy of a range.
            self.stats.out_of_order += 1;
            self.reorder.entry(seq).or_insert(payload);
        }
    }

    /// Pulls queued segments that have become contiguous.
    fn drain_reorder(&mut self) {
        while let Some((&seq, _)) = self.reorder.first_key_value() {
            if seq > self.next_seq {
                break;
            }
            let (seq, mut payload) = self.reorder.pop_first().expect("checked non-empty");
            let end = seq + payload.len();
            if end <= self.next_seq {
                self.stats.duplicates += 1;
                continue;
            }
            if seq < self.next_seq {
                let trim = self.next_seq - seq;
                payload.advance(trim);
                self.stats.bytes_trimmed += trim;
            }
            self.ready.append(&payload);
            self.next_seq = end;
        }
    }

    /// Takes all in-order bytes accumulated so far (`None` if empty).
    pub fn read_available(&mut self) -> Option<Aggregate> {
        if self.ready.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.ready))
        }
    }

    /// Bytes ready for the application.
    pub fn available(&self) -> u64 {
        self.ready.len()
    }

    /// Bytes parked in the reorder queue.
    pub fn reorder_bytes(&self) -> u64 {
        self.reorder.values().map(Aggregate::len).sum()
    }

    /// Statistics so far.
    pub fn stats(&self) -> ReassemblyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_buf::{Acl, BufferPool, PoolId};

    fn pool() -> BufferPool {
        BufferPool::new(PoolId(1), Acl::kernel_only(), 4096)
    }

    fn agg(data: &[u8]) -> Aggregate {
        Aggregate::from_bytes(&pool(), data)
    }

    #[test]
    fn in_order_stream() {
        let mut rx = TcpReceiver::new(100);
        rx.on_segment(100, agg(b"abc"));
        rx.on_segment(103, agg(b"def"));
        assert_eq!(rx.read_available().unwrap().to_vec(), b"abcdef");
        assert_eq!(rx.next_seq(), 106);
        assert_eq!(rx.stats().in_order, 2);
    }

    #[test]
    fn out_of_order_waits_then_drains() {
        let mut rx = TcpReceiver::new(0);
        rx.on_segment(3, agg(b"def"));
        rx.on_segment(6, agg(b"ghi"));
        assert!(rx.read_available().is_none());
        assert_eq!(rx.reorder_bytes(), 6);
        rx.on_segment(0, agg(b"abc"));
        assert_eq!(rx.read_available().unwrap().to_vec(), b"abcdefghi");
        assert_eq!(rx.reorder_bytes(), 0);
        assert_eq!(rx.stats().out_of_order, 2);
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut rx = TcpReceiver::new(0);
        rx.on_segment(0, agg(b"abcd"));
        rx.on_segment(0, agg(b"abcd"));
        rx.on_segment(2, agg(b"cd"));
        assert_eq!(rx.stats().duplicates, 2);
        assert_eq!(rx.read_available().unwrap().to_vec(), b"abcd");
    }

    #[test]
    fn partial_overlap_is_trimmed_zero_copy() {
        let mut rx = TcpReceiver::new(0);
        rx.on_segment(0, agg(b"abcd"));
        // Retransmission covering [2, 8): only [4, 8) is new.
        rx.on_segment(2, agg(b"cdEFGH"));
        assert_eq!(rx.read_available().unwrap().to_vec(), b"abcdEFGH");
        assert_eq!(rx.stats().bytes_trimmed, 2);
    }

    #[test]
    fn reassembly_shares_buffers_with_segments() {
        let mut rx = TcpReceiver::new(0);
        let seg = agg(b"zero-copy");
        let slice = seg.slice_at(0).clone();
        rx.on_segment(0, seg);
        let out = rx.read_available().unwrap();
        assert!(out.slice_at(0).same_buffer(&slice), "no payload copy");
    }

    #[test]
    fn random_permutation_reassembles_exactly() {
        use iolite_sim::SimRng;
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let mut rng = SimRng::new(99);
        // Split into random segments and deliver in random order.
        let mut cuts = vec![0usize, data.len()];
        for _ in 0..20 {
            cuts.push(rng.next_index(data.len()));
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut segments: Vec<(u64, Aggregate)> = cuts
            .windows(2)
            .map(|w| (w[0] as u64, agg(&data[w[0]..w[1]])))
            .collect();
        rng.shuffle(&mut segments);
        let mut rx = TcpReceiver::new(0);
        for (seq, payload) in segments {
            rx.on_segment(seq, payload);
        }
        assert_eq!(rx.read_available().unwrap().to_vec(), data);
        assert_eq!(rx.reorder_bytes(), 0);
    }
}
