//! TCP connection send-path model.
//!
//! A send is accounting: a connection counts the MSS-sized segments and
//! 40-byte headers application data would take, and checksums the real
//! bytes. Segments, headers and mbufs are never built — §4.1's mbuf
//! encapsulation is assumed, and [`SendOutcome::owned_occupancy`] is
//! the socket memory it would pin. The two buffering modes are the
//! paper's central contrast:
//!
//! * [`BufferMode::Copy`] — conventional BSD: payload is copied into
//!   socket-buffer mbuf clusters (owned memory, charged to the
//!   physical-memory accountant) and every transmission recomputes the
//!   Internet checksum, because copies have no stable identity.
//! * [`BufferMode::ZeroCopy`] — IO-Lite: the socket buffer holds slice
//!   *references*; no payload copy, and checksums come from the
//!   ⟨buffer, generation⟩-keyed cache (§3.9) after first transmission.
//!
//! Window-limited throughput (`min(link share, Tss/RTT)`) feeds the WAN
//! experiment (§5.7).

use iolite_buf::Aggregate;

use crate::cksum_cache::ChecksumCache;
use crate::packet::{MAX_SEGMENT_PAYLOAD, TCP_IP_HEADER_BYTES};

/// Socket-buffer behaviour for outgoing payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferMode {
    /// Copy into owned mbuf clusters (conventional UNIX).
    Copy,
    /// Reference IO-Lite buffers (Flash-Lite).
    ZeroCopy,
}

/// Accounting for one `send` call; the cost model turns these counts
/// into simulated time, charging data-touching checksum time only for
/// [`SendOutcome::csum_bytes_computed`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SendOutcome {
    /// MSS-sized segments emitted.
    pub segments: u64,
    /// Payload bytes queued.
    pub payload_bytes: u64,
    /// Header bytes emitted (40 per segment).
    pub header_bytes: u64,
    /// Payload bytes the checksum loop actually touched.
    pub csum_bytes_computed: u64,
    /// Payload bytes whose checksum was served from the cache.
    pub csum_bytes_cached: u64,
    /// Payload bytes copied into the socket buffer (Copy mode only).
    pub bytes_copied: u64,
    /// Peak owned socket-buffer occupancy caused by this send: a copy
    /// reserves the whole send buffer (Tss), a zero-copy send only the
    /// 128-byte mbuf header of each segment (§4.1).
    pub owned_occupancy: u64,
}

/// One TCP connection (server side).
///
/// `Clone` is a true deep copy (plain owned data), used by kernel-state
/// snapshots.
#[derive(Debug, Clone)]
pub struct TcpConn {
    id: u64,
    mode: BufferMode,
    mss: usize,
    tss: usize,
}

impl TcpConn {
    /// Creates a connection in the given buffering mode.
    ///
    /// `mss` is capped at [`MAX_SEGMENT_PAYLOAD`] so every segment's
    /// length fits the IP total-length field.
    pub fn new(id: u64, mode: BufferMode, mss: usize, tss: usize) -> Self {
        assert!(mss > 0 && tss > 0);
        TcpConn {
            id,
            mode,
            mss: mss.min(MAX_SEGMENT_PAYLOAD as usize),
            tss,
        }
    }

    /// The buffering mode.
    pub fn mode(&self) -> BufferMode {
        self.mode
    }

    /// Socket send-buffer size (Tss).
    pub fn tss(&self) -> usize {
        self.tss
    }

    /// Does nothing: a connection carries no handshake state. Kept
    /// because `perf/src/layers.rs` calls it; it goes with the next
    /// change to `perf/`.
    pub fn establish(&mut self) {}

    /// The connection's window-limited throughput in bytes/second for a
    /// given round-trip time: `Tss / RTT` (infinite on a zero-RTT LAN).
    pub fn window_rate(&self, rtt_seconds: f64) -> f64 {
        if rtt_seconds <= 0.0 {
            f64::INFINITY
        } else {
            self.tss as f64 / rtt_seconds
        }
    }

    /// Accounts for transmitting `payload` (nothing is queued or
    /// built; see the module doc). Checksums are computed for real (cache-aware in
    /// zero-copy mode) — this is the data-touching the figures measure.
    pub fn send(&self, payload: &Aggregate, cache: &mut ChecksumCache) -> SendOutcome {
        let len = payload.len();
        if self.mode == BufferMode::Copy {
            return self.send_accounted(len);
        }
        let segments = len.div_ceil(self.mss as u64).max(1);
        // Socket buffer holds references; checksums per slice through
        // the cache (§3.9).
        let mut cached = 0;
        for s in payload.slices() {
            if cache.sum_for(s).1 {
                cached += s.len() as u64;
            }
        }
        SendOutcome {
            segments,
            payload_bytes: len,
            header_bytes: segments * TCP_IP_HEADER_BYTES as u64,
            csum_bytes_computed: len - cached,
            csum_bytes_cached: cached,
            bytes_copied: 0,
            // Owned memory: one 128-byte mbuf header per segment.
            owned_occupancy: segments * 128,
        }
    }

    /// Accounting-only send of `len` bytes for the *conventional* path.
    ///
    /// A copying send's costs depend only on the byte count — copies have
    /// no identity, so no cache can apply — which lets the experiment
    /// driver skip materializing the copied clusters. Zero-copy sends
    /// must use [`TcpConn::send`] (their checksum cache needs the real
    /// slices). The copied clusters are assumed, not built (§4.1): the
    /// outcome bills their copy and reserves the whole Tss.
    pub fn send_accounted(&self, len: u64) -> SendOutcome {
        assert_eq!(
            self.mode,
            BufferMode::Copy,
            "zero-copy sends must go through send()"
        );
        let segments = len.div_ceil(self.mss as u64).max(1);
        // Copied into the socket buffer; fresh copies have no identity,
        // so every byte is checksummed again. Occupancy is the full
        // send-buffer reservation: "the amount of memory consumed by
        // these buffers is related to the number of concurrent
        // connections ... times the socket send buffer size Tss" (§5.7).
        SendOutcome {
            segments,
            payload_bytes: len,
            header_bytes: segments * TCP_IP_HEADER_BYTES as u64,
            csum_bytes_computed: len,
            csum_bytes_cached: 0,
            bytes_copied: len,
            owned_occupancy: self.tss as u64,
        }
    }

    /// Folds the connection's state into a stable digest.
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.id);
        h.write_bool(matches!(self.mode, BufferMode::ZeroCopy));
        h.write_u64(self.mss as u64);
        h.write_u64(self.tss as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_buf::{Acl, BufferPool, PoolId};

    fn agg(data: &[u8]) -> Aggregate {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
        Aggregate::from_bytes(&pool, data)
    }

    #[test]
    fn segmentation_counts() {
        let c = TcpConn::new(1, BufferMode::ZeroCopy, 1460, 64 * 1024);
        let mut cache = ChecksumCache::new(1024);
        let out = c.send(&agg(&vec![0u8; 4000]), &mut cache);
        assert_eq!(out.segments, 3);
        assert_eq!(out.payload_bytes, 4000);
        assert_eq!(out.header_bytes, 120);
    }

    #[test]
    fn zero_copy_second_send_is_checksum_free() {
        let c = TcpConn::new(1, BufferMode::ZeroCopy, 1460, 64 * 1024);
        let mut cache = ChecksumCache::new(1024);
        let payload = agg(&vec![7u8; 10_000]);
        let first = c.send(&payload, &mut cache);
        assert_eq!(first.csum_bytes_computed, 10_000);
        assert_eq!(first.bytes_copied, 0);
        let second = c.send(&payload, &mut cache);
        assert_eq!(second.csum_bytes_computed, 0);
        assert_eq!(second.csum_bytes_cached, 10_000);
    }

    #[test]
    fn copy_mode_always_recomputes_and_copies() {
        let c = TcpConn::new(1, BufferMode::Copy, 1460, 64 * 1024);
        let mut cache = ChecksumCache::new(1024);
        let payload = agg(&vec![7u8; 10_000]);
        for _ in 0..2 {
            let out = c.send(&payload, &mut cache);
            assert_eq!(out.csum_bytes_computed, 10_000);
            assert_eq!(out.bytes_copied, 10_000);
            assert_eq!(out.owned_occupancy, 64 * 1024);
        }
    }

    #[test]
    fn copy_occupancy_is_the_send_buffer_reservation() {
        let c = TcpConn::new(1, BufferMode::Copy, 1460, 64 * 1024);
        let mut cache = ChecksumCache::new(1024);
        // Large and small responses both reserve the full Tss (§5.7).
        let out = c.send(&agg(&vec![0u8; 200_000]), &mut cache);
        assert_eq!(out.owned_occupancy, 64 * 1024);
        let out = c.send(&agg(&vec![0u8; 500]), &mut cache);
        assert_eq!(out.owned_occupancy, 64 * 1024);
    }

    #[test]
    fn window_rate_math() {
        let c = TcpConn::new(1, BufferMode::Copy, 1460, 64 * 1024);
        assert!(c.window_rate(0.0).is_infinite());
        let r = c.window_rate(0.1);
        assert!((r - 655_360.0).abs() < 1e-6, "64KB / 100ms = 640KB/s");
    }

    #[test]
    fn oversize_mss_is_capped_to_a_representable_segment() {
        let c = TcpConn::new(1, BufferMode::Copy, usize::MAX, 64 * 1024);
        // A payload larger than the IP total-length limit must be split
        // into representable segments.
        let out = c.send_accounted(MAX_SEGMENT_PAYLOAD as u64 + 4096);
        assert_eq!(out.segments, 2);
        assert_eq!(out.header_bytes, 2 * TCP_IP_HEADER_BYTES as u64);
    }
}
