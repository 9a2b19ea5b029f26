//! TCP/IP segment sizes.
//!
//! No header is built: a segment's 40 header bytes are counted into
//! [`SendOutcome::header_bytes`](crate::SendOutcome::header_bytes) and
//! its packet work is billed per segment, which is all the cost model
//! reads.

/// Combined IPv4 + TCP header size without options.
pub const TCP_IP_HEADER_BYTES: usize = 40;

/// Largest payload one segment can carry: the IP total-length field is
/// 16 bits and covers both headers, so payloads beyond
/// `65535 - 40 = 65495` cannot be represented. Anything larger must be
/// segmented by the sender (MSS values are capped here).
pub const MAX_SEGMENT_PAYLOAD: u16 = u16::MAX - TCP_IP_HEADER_BYTES as u16;
