//! TCP connection send-path model.
//!
//! A connection segments application data into MSS-sized packets, builds
//! real headers, and checksums real bytes. The two buffering modes are
//! the paper's central contrast:
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
use crate::mbuf::MbufChain;
use crate::packet::{SegmentHeader, TCP_IP_HEADER_BYTES};

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
    /// Peak owned socket-buffer occupancy caused by this send: copies
    /// pin real memory, references pin (almost) none.
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
    seq: u32,
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    established: bool,
}

/// Client ports span the non-reserved range 1024..=65535.
const CLIENT_PORT_SPAN: u64 = 65536 - 1024;

impl TcpConn {
    /// Creates a connection in the given buffering mode.
    ///
    /// The wire 4-tuple is derived from the *full* 64-bit `id`: the id
    /// is factored as `id = q * CLIENT_PORT_SPAN + r`, with `r` picking
    /// the client port and `q` the client address, so any two distinct
    /// ids below `CLIENT_PORT_SPAN << 32` (≈ 2⁴⁸ connections — far past
    /// any run) get distinct `(src_ip, dst_ip, src_port, dst_port)`
    /// tuples. (The previous `id & 0xFF` / `id % 60000` derivation
    /// collided from a few hundred concurrent connections up.)
    ///
    /// `mss` is capped at [`MAX_SEGMENT_PAYLOAD`] so every segment's
    /// length fits the IP total-length field.
    ///
    /// [`MAX_SEGMENT_PAYLOAD`]: crate::packet::MAX_SEGMENT_PAYLOAD
    pub fn new(id: u64, mode: BufferMode, mss: usize, tss: usize) -> Self {
        assert!(mss > 0 && tss > 0);
        let mss = mss.min(crate::packet::MAX_SEGMENT_PAYLOAD as usize);
        TcpConn {
            id,
            mode,
            mss,
            tss,
            seq: 1,
            src_ip: 0x0A00_0001,
            dst_ip: 0x0B00_0000u32.wrapping_add((id / CLIENT_PORT_SPAN) as u32),
            src_port: 80,
            dst_port: 1024 + (id % CLIENT_PORT_SPAN) as u16,
            established: false,
        }
    }

    /// The connection's wire 4-tuple:
    /// `(src_ip, dst_ip, src_port, dst_port)`.
    pub fn four_tuple(&self) -> (u32, u32, u16, u16) {
        (self.src_ip, self.dst_ip, self.src_port, self.dst_port)
    }

    /// The connection id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The buffering mode.
    pub fn mode(&self) -> BufferMode {
        self.mode
    }

    /// Socket send-buffer size (Tss).
    pub fn tss(&self) -> usize {
        self.tss
    }

    /// Marks the three-way handshake complete.
    pub fn establish(&mut self) {
        self.established = true;
    }

    /// Whether the connection is established.
    pub fn is_established(&self) -> bool {
        self.established
    }

    /// The connection's window-limited throughput in bytes/second for a
    /// given round-trip time: `Tss / RTT` (infinite on a zero-RTT LAN).
    pub fn window_rate(&self, rtt_seconds: f64) -> f64 {
        if rtt_seconds <= 0.0 {
            f64::INFINITY
        } else {
            self.tss as f64 / rtt_seconds
        }
    }

    /// Queues `payload` for transmission, returning the accounting
    /// outcome. Checksums are computed for real (cache-aware in
    /// zero-copy mode) — this is the data-touching the figures measure.
    pub fn send(&mut self, payload: &Aggregate, cache: &mut ChecksumCache) -> SendOutcome {
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
        self.seq = self.seq.wrapping_add(len as u32);
        SendOutcome {
            segments,
            payload_bytes: len,
            header_bytes: segments * TCP_IP_HEADER_BYTES as u64,
            csum_bytes_computed: len - cached,
            csum_bytes_cached: cached,
            bytes_copied: 0,
            // Owned memory: mbuf headers only (~2% of payload, rounded
            // into the kernel account elsewhere).
            owned_occupancy: segments * 128,
        }
    }

    /// Accounting-only send of `len` bytes for the *conventional* path.
    ///
    /// A copying send's costs depend only on the byte count — copies have
    /// no identity, so no cache can apply — which lets the experiment
    /// driver skip materializing the copied clusters. Zero-copy sends
    /// must use [`TcpConn::send`] (their checksum cache needs the real
    /// slices). Byte-exactness of the copy path is covered by
    /// [`TcpConn::build_segments`] tests.
    pub fn send_accounted(&mut self, len: u64) -> SendOutcome {
        assert_eq!(
            self.mode,
            BufferMode::Copy,
            "zero-copy sends must go through send()"
        );
        let segments = len.div_ceil(self.mss as u64).max(1);
        self.seq = self.seq.wrapping_add(len as u32);
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

    /// Materializes the segment chains a send of `payload` would put on
    /// the wire next, without sending it (end-to-end byte-exactness
    /// tests; the hot path only needs [`TcpConn::send`]'s accounting).
    pub fn build_segments(&self, payload: &Aggregate) -> Vec<MbufChain> {
        let mut chains = Vec::new();
        let mut offset = 0u64;
        let len = payload.len();
        let mut seq = self.seq;
        loop {
            let take = (len - offset).min(self.mss as u64);
            let part = payload
                .range(offset, take)
                .expect("segmentation stays in range");
            let header = SegmentHeader {
                src_ip: self.src_ip,
                dst_ip: self.dst_ip,
                src_port: self.src_port,
                dst_port: self.dst_port,
                seq,
                ack: 0,
                flags: 0x18,
                payload_len: take as u16,
            };
            let chain = match self.mode {
                BufferMode::ZeroCopy => MbufChain::packet(&header.to_bytes(), &part),
                BufferMode::Copy => MbufChain::packet_copied_from_agg(&header.to_bytes(), &part),
            };
            chains.push(chain);
            seq = seq.wrapping_add(take as u32);
            offset += take;
            if offset >= len {
                break;
            }
        }
        chains
    }

    /// Folds the connection's state into a stable digest.
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.id);
        h.write_bool(matches!(self.mode, BufferMode::ZeroCopy));
        h.write_u64(self.mss as u64);
        h.write_u64(self.tss as u64);
        h.write_u32(self.seq);
        h.write_bool(self.established);
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
        let mut c = TcpConn::new(1, BufferMode::ZeroCopy, 1460, 64 * 1024);
        let mut cache = ChecksumCache::new(1024);
        let out = c.send(&agg(&vec![0u8; 4000]), &mut cache);
        assert_eq!(out.segments, 3);
        assert_eq!(out.payload_bytes, 4000);
        assert_eq!(out.header_bytes, 120);
    }

    #[test]
    fn zero_copy_second_send_is_checksum_free() {
        let mut c = TcpConn::new(1, BufferMode::ZeroCopy, 1460, 64 * 1024);
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
        let mut c = TcpConn::new(1, BufferMode::Copy, 1460, 64 * 1024);
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
        let mut c = TcpConn::new(1, BufferMode::Copy, 1460, 64 * 1024);
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
    fn built_segments_carry_exact_bytes() {
        let c = TcpConn::new(1, BufferMode::ZeroCopy, 100, 64 * 1024);
        let data: Vec<u8> = (0..250u32).map(|i| i as u8).collect();
        let payload = agg(&data);
        let chains = c.build_segments(&payload);
        assert_eq!(chains.len(), 3);
        let mut reassembled = Vec::new();
        for chain in &chains {
            let wire = chain.to_vec();
            let h = SegmentHeader::parse(&wire).unwrap();
            assert_eq!(h.payload_len as usize, wire.len() - 40);
            reassembled.extend_from_slice(&wire[40..]);
        }
        assert_eq!(reassembled, data);
    }

    #[test]
    fn zero_copy_segments_own_only_headers() {
        let c = TcpConn::new(1, BufferMode::ZeroCopy, 1460, 64 * 1024);
        let payload = agg(&vec![0u8; 5000]);
        let owned: usize = c
            .build_segments(&payload)
            .iter()
            .map(|ch| ch.owned_bytes())
            .sum();
        assert_eq!(owned, 4 * 40, "four headers, zero payload copies");
        let c2 = TcpConn::new(2, BufferMode::Copy, 1460, 64 * 1024);
        let owned2: usize = c2
            .build_segments(&payload)
            .iter()
            .map(|ch| ch.owned_bytes())
            .sum();
        assert_eq!(owned2, 4 * 40 + 5000);
    }

    #[test]
    fn four_tuples_are_unique_per_connection_id() {
        use std::collections::HashSet;
        // Regression: `id & 0xFF` / `id % 60000` collided at `repro scale`
        // connection counts — e.g. ids 1 and 480001 shared a 4-tuple
        // (480000 = lcm(256, 60000)).
        let tuple = |id| TcpConn::new(id, BufferMode::ZeroCopy, 1460, 64 * 1024).four_tuple();
        assert_ne!(tuple(1), tuple(480_001));
        // Every id in a `repro scale`-sized (and beyond) range is unique.
        let mut seen = HashSet::new();
        for id in 0..100_000u64 {
            assert!(seen.insert(tuple(id)), "4-tuple collision at id {id}");
        }
        // Ids beyond the port span roll over into fresh client addresses.
        assert_ne!(tuple(7), tuple(7 + CLIENT_PORT_SPAN));
        assert_ne!(tuple(7), tuple(7 + 2 * CLIENT_PORT_SPAN));
    }

    #[test]
    fn oversize_mss_is_capped_to_a_representable_segment() {
        use crate::packet::MAX_SEGMENT_PAYLOAD;
        let c = TcpConn::new(1, BufferMode::ZeroCopy, usize::MAX, 64 * 1024);
        // A payload larger than the IP total-length limit must be split
        // into representable segments, and each must round-trip.
        let data = vec![0xA5u8; MAX_SEGMENT_PAYLOAD as usize + 4096];
        let chains = c.build_segments(&agg(&data));
        assert_eq!(chains.len(), 2);
        let mut reassembled = Vec::new();
        for chain in &chains {
            let wire = chain.to_vec();
            let h = SegmentHeader::parse(&wire).unwrap();
            assert_eq!(h.payload_len as usize, wire.len() - 40);
            reassembled.extend_from_slice(&wire[40..]);
        }
        assert_eq!(reassembled, data);
    }

    #[test]
    fn establish_lifecycle() {
        let mut c = TcpConn::new(5, BufferMode::Copy, 1460, 1024);
        assert!(!c.is_established());
        c.establish();
        assert!(c.is_established());
        assert_eq!(c.id(), 5);
        assert_eq!(c.tss(), 1024);
    }
}
