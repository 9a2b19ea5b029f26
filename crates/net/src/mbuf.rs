//! BSD mbufs encapsulating IO-Lite buffers (§4.1).
//!
//! "The encapsulation was accomplished by using the mbuf out-of-line
//! pointer to refer to an IO-Lite buffer ... Small data items such as
//! network packet headers are still stored inline in mbufs, but the
//! performance-critical bulk data reside in IO-Lite buffers."
//!
//! The inline/external distinction is what the memory accounting
//! measures: with IO-Lite, a socket send buffer's mbuf chain holds only
//! tiny inline headers plus *references*; without it, the chain holds
//! copied clusters.

use iolite_buf::{Aggregate, Slice};

/// Payload storage of one mbuf.
#[derive(Debug, Clone)]
pub enum MbufData {
    /// Small data (headers) stored inline in the mbuf.
    Inline(Vec<u8>),
    /// Bulk data referenced out-of-line in an immutable IO-Lite buffer.
    Ext(Slice),
}

/// One mbuf: a unit of network-stack buffering.
#[derive(Debug, Clone)]
pub struct Mbuf {
    data: MbufData,
}

impl Mbuf {
    /// Creates an inline mbuf (copies `data`, as the real stack does for
    /// headers).
    pub(crate) fn inline(data: &[u8]) -> Self {
        Mbuf {
            data: MbufData::Inline(data.to_vec()),
        }
    }

    /// Creates an external mbuf referencing an IO-Lite slice (no copy).
    pub(crate) fn ext(slice: Slice) -> Self {
        Mbuf {
            data: MbufData::Ext(slice),
        }
    }

    /// Payload length.
    pub(crate) fn len(&self) -> usize {
        match &self.data {
            MbufData::Inline(v) => v.len(),
            MbufData::Ext(s) => s.len(),
        }
    }

    /// The payload bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        match &self.data {
            MbufData::Inline(v) => v,
            MbufData::Ext(s) => s.as_bytes(),
        }
    }

    /// Access to the storage discriminant.
    pub fn data(&self) -> &MbufData {
        &self.data
    }

    /// Bytes of *owned* storage this mbuf holds (inline only; external
    /// references share IO-Lite memory).
    pub(crate) fn owned_bytes(&self) -> usize {
        match &self.data {
            MbufData::Inline(v) => v.len(),
            MbufData::Ext(_) => 0,
        }
    }
}

/// An ordered chain of mbufs: one packet, or one socket buffer's queue.
#[derive(Debug, Clone, Default)]
pub struct MbufChain {
    mbufs: Vec<Mbuf>,
}

impl MbufChain {
    /// Creates an empty chain.
    pub(crate) fn new() -> Self {
        MbufChain::default()
    }

    /// Builds a packet chain: inline header followed by zero-copy
    /// references to the payload aggregate's slices.
    pub(crate) fn packet(header: &[u8], payload: &Aggregate) -> Self {
        let mut chain = MbufChain::new();
        chain.push(Mbuf::inline(header));
        for s in payload.slices() {
            chain.push(Mbuf::ext(s.clone()));
        }
        chain
    }

    /// Builds a packet chain the conventional way: header plus payload
    /// *copied* into an owned cluster (what a non-IO-Lite stack does when
    /// the application `write()`s). The materialized `Vec` *is* the
    /// owned cluster, so the copy into it is the only copy the
    /// conventional path pays.
    pub(crate) fn packet_copied_from_agg(header: &[u8], payload: &Aggregate) -> Self {
        let mut chain = MbufChain::new();
        chain.push(Mbuf::inline(header));
        chain.push(Mbuf {
            data: MbufData::Inline(payload.to_vec()),
        });
        chain
    }

    /// Appends one mbuf.
    pub(crate) fn push(&mut self, m: Mbuf) {
        self.mbufs.push(m);
    }

    /// The mbufs in order.
    pub fn mbufs(&self) -> &[Mbuf] {
        &self.mbufs
    }

    /// Total payload length.
    pub(crate) fn len(&self) -> usize {
        self.mbufs.iter().map(Mbuf::len).sum()
    }

    /// Whether the chain carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of owned (inline/copied) storage — the memory a
    /// conventional socket buffer pins, vs ~0 for IO-Lite chains.
    pub fn owned_bytes(&self) -> usize {
        self.mbufs.iter().map(Mbuf::owned_bytes).sum()
    }

    /// Materializes the wire bytes (tests and end-to-end checks).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for m in &self.mbufs {
            out.extend_from_slice(m.bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_buf::{Acl, BufferPool, PoolId};

    fn agg(data: &[u8]) -> Aggregate {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 1024);
        Aggregate::from_bytes(&pool, data)
    }

    #[test]
    fn zero_copy_packet_owns_only_header() {
        let payload = agg(&[0x55; 1000]);
        let chain = MbufChain::packet(&[0xAA; 40], &payload);
        assert_eq!(chain.len(), 1040);
        assert_eq!(chain.owned_bytes(), 40);
    }

    #[test]
    fn copied_packet_owns_everything() {
        let chain = MbufChain::packet_copied_from_agg(&[0xAA; 40], &agg(&[0x55; 1000]));
        assert_eq!(chain.len(), 1040);
        assert_eq!(chain.owned_bytes(), 1040);
    }

    #[test]
    fn copied_from_agg_is_byte_exact_and_owned() {
        let pool = BufferPool::new(PoolId(2), Acl::kernel_only(), 64);
        let data: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
        let payload = Aggregate::from_bytes(&pool, &data);
        assert!(payload.num_slices() > 1, "fragmented source");
        let chain = MbufChain::packet_copied_from_agg(&[0xAA; 40], &payload);
        assert_eq!(chain.owned_bytes(), 540, "header + copied cluster");
        assert_eq!(&chain.to_vec()[40..], &data[..]);
    }

    #[test]
    fn wire_bytes_concatenate_in_order() {
        let payload = agg(b"worldwide");
        let chain = MbufChain::packet(b"hello ", &payload);
        assert_eq!(chain.to_vec(), b"hello worldwide");
    }

    #[test]
    fn ext_mbuf_shares_buffer_with_aggregate() {
        let payload = agg(b"shared");
        let chain = MbufChain::packet(b"", &payload);
        let ext = &chain.mbufs()[1];
        match ext.data() {
            MbufData::Ext(s) => assert!(s.same_buffer(payload.slice_at(0))),
            MbufData::Inline(_) => panic!("payload must be external"),
        }
    }

    #[test]
    fn empty_chain() {
        let c = MbufChain::new();
        assert!(c.is_empty());
        assert_eq!(c.owned_bytes(), 0);
        assert_eq!(c.to_vec(), Vec::<u8>::new());
    }
}
