//! TCP/IP segment headers.
//!
//! Real 40-byte header construction so checksums cover genuine header
//! bytes and the end-to-end tests can parse what was "sent".

/// Combined IPv4 + TCP header size without options.
pub const TCP_IP_HEADER_BYTES: usize = 40;

/// Largest payload one segment can carry: the IP total-length field is
/// 16 bits and covers both headers, so payloads beyond
/// `65535 - 40 = 65495` cannot be represented. Anything larger must be
/// segmented by the sender (MSS values are capped here).
pub const MAX_SEGMENT_PAYLOAD: u16 = u16::MAX - TCP_IP_HEADER_BYTES as u16;

/// The fields of a simplified TCP/IP segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// TCP flags (SYN=0x02, ACK=0x10, FIN=0x01, PSH=0x08).
    pub flags: u8,
    /// Payload length (carried in the IP total-length field).
    pub payload_len: u16,
}

impl SegmentHeader {
    /// Serializes to the 40 wire bytes (IPv4 header then TCP header).
    ///
    /// # Panics
    ///
    /// Panics if `payload_len` exceeds [`MAX_SEGMENT_PAYLOAD`]: the IP
    /// total-length field would silently wrap and the wire bytes would
    /// parse back to a different header. Senders cap their MSS at the
    /// limit, so a violation is a construction bug, not a data error.
    pub fn to_bytes(&self) -> [u8; TCP_IP_HEADER_BYTES] {
        assert!(
            self.payload_len <= MAX_SEGMENT_PAYLOAD,
            "segment payload {} exceeds the IP total-length limit ({})",
            self.payload_len,
            MAX_SEGMENT_PAYLOAD,
        );
        let mut b = [0u8; TCP_IP_HEADER_BYTES];
        // --- IPv4 ---
        b[0] = 0x45; // Version 4, IHL 5.
        let total_len = TCP_IP_HEADER_BYTES as u16 + self.payload_len;
        b[2..4].copy_from_slice(&total_len.to_be_bytes());
        b[8] = 64; // TTL.
        b[9] = 6; // Protocol: TCP.
        b[12..16].copy_from_slice(&self.src_ip.to_be_bytes());
        b[16..20].copy_from_slice(&self.dst_ip.to_be_bytes());
        // --- TCP ---
        b[20..22].copy_from_slice(&self.src_port.to_be_bytes());
        b[22..24].copy_from_slice(&self.dst_port.to_be_bytes());
        b[24..28].copy_from_slice(&self.seq.to_be_bytes());
        b[28..32].copy_from_slice(&self.ack.to_be_bytes());
        b[32] = 5 << 4; // Data offset: 5 words.
        b[33] = self.flags;
        b[34..36].copy_from_slice(&0xFFFFu16.to_be_bytes()); // Window.
        b
    }

    /// Parses wire bytes back into header fields (byte-exactness tests).
    ///
    /// Returns `None` when the buffer is too short or malformed.
    pub fn parse(b: &[u8]) -> Option<SegmentHeader> {
        if b.len() < TCP_IP_HEADER_BYTES || b[0] != 0x45 || b[9] != 6 {
            return None;
        }
        let total_len = u16::from_be_bytes([b[2], b[3]]);
        Some(SegmentHeader {
            src_ip: u32::from_be_bytes([b[12], b[13], b[14], b[15]]),
            dst_ip: u32::from_be_bytes([b[16], b[17], b[18], b[19]]),
            src_port: u16::from_be_bytes([b[20], b[21]]),
            dst_port: u16::from_be_bytes([b[22], b[23]]),
            seq: u32::from_be_bytes([b[24], b[25], b[26], b[27]]),
            ack: u32::from_be_bytes([b[28], b[29], b[30], b[31]]),
            flags: b[33],
            payload_len: total_len.saturating_sub(40),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> SegmentHeader {
        SegmentHeader {
            src_ip: 0x0A000001,
            dst_ip: 0x0A000002,
            src_port: 8080,
            dst_port: 31337,
            seq: 123456,
            ack: 654321,
            flags: 0x18,
            payload_len: 1460,
        }
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let h = header();
        let bytes = h.to_bytes();
        let parsed = SegmentHeader::parse(&bytes).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn parse_rejects_short_or_bad() {
        assert!(SegmentHeader::parse(&[0u8; 10]).is_none());
        let mut bytes = header().to_bytes();
        bytes[0] = 0x46; // Wrong IHL.
        assert!(SegmentHeader::parse(&bytes).is_none());
    }

    #[test]
    fn header_is_forty_bytes() {
        assert_eq!(header().to_bytes().len(), 40);
    }

    #[test]
    fn max_payload_round_trips_exactly() {
        // The boundary case that used to wrap the u16 total length.
        let mut h = header();
        h.payload_len = MAX_SEGMENT_PAYLOAD;
        let parsed = SegmentHeader::parse(&h.to_bytes()).unwrap();
        assert_eq!(parsed.payload_len, MAX_SEGMENT_PAYLOAD);
        assert_eq!(parsed, h);
    }

    #[test]
    #[should_panic(expected = "exceeds the IP total-length limit")]
    fn oversize_payload_is_rejected_not_wrapped() {
        let mut h = header();
        h.payload_len = MAX_SEGMENT_PAYLOAD + 1;
        let _ = h.to_bytes();
    }
}
