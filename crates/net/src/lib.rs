#![warn(missing_docs)]
//! Network subsystem: Internet checksum caching and a TCP connection
//! model with by-reference receive reassembly (paper §3.6, §3.9, §4.1).
//!
//! The paper adapts the BSD network stack by pointing mbufs' out-of-line
//! data at IO-Lite buffers: "small data items such as network packet
//! headers are still stored inline in mbufs, but the performance-critical
//! bulk data reside in IO-Lite buffers". That encapsulation (§4.1) is
//! assumed, not simulated: no mbuf or header is built, and a send's
//! socket memory is what [`SendOutcome::owned_occupancy`] bills — 128 B
//! of mbuf header per zero-copy segment, the whole Tss for a copy. Two
//! cross-subsystem mechanisms ride on it:
//!
//! * **Checksum caching** (§3.9): the Internet checksum module caches the
//!   sum for each ⟨buffer, generation, range⟩; retransmitting a hot
//!   document costs no data-touching at all. The cache is bounded by
//!   per-entry second-chance (CLOCK) eviction, so the hot-document
//!   working set survives cold-tail traffic.
//! * **Receiving into the right pool** (§3.6): early demultiplexing lets
//!   a driver store an arriving payload straight into a buffer of the
//!   *receiving* process's pool. The model assumes it: every payload the
//!   kernel's `socket_deliver` accepts already lives in that pool, and
//!   [`TcpReceiver`] reassembles such payloads by reference.
//!
//! [`TcpConn`] models a connection's send path as accounting: segment
//! and header counts, checksum computation (cache-aware in zero-copy
//! mode), socket-buffer occupancy (copies vs references — the
//! double-buffering distinction that drives the WAN experiment of §5.7),
//! and window-limited throughput.

pub mod checksum;
pub mod cksum_cache;
pub mod packet;
pub mod reassembly;
pub mod tcp;

pub use checksum::{combine, internet_checksum, slice_sum};
pub use cksum_cache::{ChecksumCache, CksumCacheStats};
pub use packet::{MAX_SEGMENT_PAYLOAD, TCP_IP_HEADER_BYTES};
pub use reassembly::{ReassemblyStats, TcpReceiver};
pub use tcp::{BufferMode, SendOutcome, TcpConn};

/// Default TCP maximum segment size on the paper's Fast Ethernet.
pub const DEFAULT_MSS: usize = 1460;

/// Default socket send-buffer size: "All Web servers were configured to
/// use a TCP socket send buffer size of 64KB" (§5).
pub const DEFAULT_TSS: usize = 64 * 1024;
