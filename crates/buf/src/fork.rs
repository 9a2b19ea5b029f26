//! Deep pool forking for kernel-state snapshots.
//!
//! [`crate::BufferPool`]'s `Clone` **shares** the pool (one `Arc`'d
//! allocator), which is the right semantics for handles but the wrong one
//! for the pure core's `step(state, command)`: a snapshot taken by
//! cloning would still mutate the original through the shared interior.
//! [`PoolForker`] produces a genuinely independent copy of a set of pools
//! and of every aggregate the kernel state holds into them.
//!
//! Forking works in two passes driven by the caller:
//!
//! 1. **Fork the pools.** Each chunk of a forked pool gets an independent
//!    twin (same [`crate::ChunkId`], pool, size, and generation); the
//!    forker remembers the original→twin mapping by identity.
//! 2. **Fork the aggregates.** Every slice whose chunk belongs to a
//!    forked pool is rebound onto a twin buffer (bytes copied once per
//!    underlying buffer, views preserved); slices into non-forked pools
//!    are shared as-is.
//!
//! Rebinding keeps the forked pool's recycling behaviour faithful: the
//! twin chunks' reference counts include exactly the forked state's
//! buffers, so a drained chunk recycles in the fork when — and only
//! when — the forked state no longer references it. References held
//! *outside* the forked state (application-held slices) deliberately do
//! not pin twin chunks; a snapshot captures kernel state, not the
//! application heap.

use std::collections::HashMap;
use std::sync::Arc;

use crate::aggregate::Aggregate;
use crate::slice::{BufferInner, ChunkState, Slice};

/// Forks buffer pools and rebinds aggregates onto the forked chunks.
///
/// One forker instance must be used for one whole snapshot: the identity
/// maps it accumulates are what preserve buffer sharing (two aggregates
/// viewing one buffer still view one buffer after the fork).
#[derive(Default)]
pub struct PoolForker {
    /// Original chunk identity → forked twin.
    chunks: HashMap<usize, Arc<ChunkState>>,
    /// Original buffer identity → forked twin.
    buffers: HashMap<usize, Arc<BufferInner>>,
}

impl PoolForker {
    /// Creates an empty forker for one snapshot.
    pub fn new() -> Self {
        PoolForker::default()
    }

    /// Returns the twin of `orig`, creating it on first sight.
    pub(crate) fn fork_chunk(&mut self, orig: &Arc<ChunkState>) -> Arc<ChunkState> {
        let key = Arc::as_ptr(orig) as usize;
        if let Some(c) = self.chunks.get(&key) {
            return Arc::clone(c);
        }
        let forked = Arc::new(ChunkState::with_generation(
            orig.id(),
            orig.pool(),
            orig.size(),
            orig.generation().0,
        ));
        self.chunks.insert(key, Arc::clone(&forked));
        forked
    }

    /// Forks one slice: rebinds it onto a twin buffer if its chunk
    /// belongs to a pool forked earlier with [`crate::BufferPool::fork`],
    /// otherwise shares the original buffer.
    pub(crate) fn fork_slice(&mut self, s: &Slice) -> Slice {
        let (inner, off, len) = s.parts();
        let chunk_key = Arc::as_ptr(inner.chunk()) as usize;
        let Some(forked_chunk) = self.chunks.get(&chunk_key).map(Arc::clone) else {
            return s.clone();
        };
        let buf_key = Arc::as_ptr(inner) as usize;
        let forked_inner = match self.buffers.get(&buf_key) {
            Some(b) => Arc::clone(b),
            None => {
                let b = Arc::new(inner.twin(forked_chunk));
                self.buffers.insert(buf_key, Arc::clone(&b));
                b
            }
        };
        Slice::from_parts(forked_inner, off, len)
    }

    /// Forks every slice of an aggregate, preserving order and views.
    pub fn fork_aggregate(&mut self, a: &Aggregate) -> Aggregate {
        let mut out = Aggregate::empty();
        for s in a.slices() {
            out.append_slice(self.fork_slice(s));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Acl, BufferPool, DomainId, PoolId};

    fn pool() -> BufferPool {
        BufferPool::new(PoolId(7), Acl::with_domain(DomainId(1)), 4096)
    }

    #[test]
    fn forked_pool_is_independent() {
        let p = pool();
        let a = Aggregate::from_bytes(&p, b"hello world");
        let mut f = PoolForker::new();
        let p2 = p.fork(&mut f);
        let a2 = f.fork_aggregate(&a);
        assert_eq!(p2.id(), p.id());
        assert_eq!(a2.to_vec(), b"hello world");
        // Allocating from the fork must not disturb the original.
        let before = p.stats();
        let _ = Aggregate::from_bytes(&p2, b"xyz");
        assert_eq!(p.stats().allocs, before.allocs);
        assert!(p2.stats().allocs > before.allocs);
    }

    #[test]
    fn fork_preserves_buffer_identity_and_generation() {
        let p = pool();
        let a = Aggregate::from_bytes(&p, b"abcdef");
        let s = a.slice_at(0);
        let mut f = PoolForker::new();
        let _p2 = p.fork(&mut f);
        let a2 = f.fork_aggregate(&a);
        let s2 = a2.slice_at(0);
        assert_eq!(s2.id(), s.id());
        assert_eq!(s2.generation(), s.generation());
        assert_eq!(s2.pool(), s.pool());
        // Two forks of the same buffer share one twin.
        let b2 = f.fork_slice(s);
        assert!(a2.slice_at(0).same_buffer(&b2));
    }

    #[test]
    fn slices_of_unforked_pools_are_shared() {
        let p = pool();
        let other = BufferPool::new(PoolId(8), Acl::with_domain(DomainId(2)), 4096);
        let a = Aggregate::from_bytes(&other, b"shared");
        let mut f = PoolForker::new();
        let _p2 = p.fork(&mut f);
        let a2 = f.fork_aggregate(&a);
        assert!(a2.slice_at(0).same_buffer(a.slice_at(0)));
    }

    fn ramp(seed: u64, offset: u64, len: u64, sink: &mut dyn FnMut(&[u8])) {
        let bytes: Vec<u8> = (offset..offset + len).map(|i| (seed + i) as u8).collect();
        sink(&bytes);
    }

    #[test]
    fn a_lazy_buffer_forks_with_its_producer_and_stays_unread() {
        let (eager_pool, lazy_pool) = (pool(), pool());
        let eager = Aggregate::fill_aligned(&eager_pool, 10_000, 64, |at, mut b| {
            ramp(3, at, b.capacity() as u64, &mut |run| b.put(run));
            b.freeze()
        });
        let lazy =
            Aggregate::fill_aligned(&lazy_pool, 10_000, 64, |at, b| b.freeze_lazy(ramp, 3, at));
        let (mut fe, mut fl) = (PoolForker::new(), PoolForker::new());
        let (_, _) = (eager_pool.fork(&mut fe), lazy_pool.fork(&mut fl));
        let (eager2, lazy2) = (fe.fork_aggregate(&eager), fl.fork_aggregate(&lazy));
        assert!(lazy
            .slices()
            .chain(lazy2.slices())
            .all(|s| !s.is_produced()));
        for (l, e) in lazy2.slices().zip(eager2.slices()) {
            assert_eq!(
                (l.id(), l.generation(), l.len()),
                (e.id(), e.generation(), e.len())
            );
            assert!(!l.same_buffer(lazy.slice_at(0)), "the fork is a twin");
        }
        assert_eq!(lazy2.to_vec(), eager2.to_vec());
        assert!(
            lazy.slices().all(|s| !s.is_produced()),
            "the original stays unread"
        );
        assert_eq!(lazy.to_vec(), eager.to_vec());
    }

    #[test]
    fn fork_keeps_open_chunk_packing_deterministic() {
        let p = pool();
        let _a = Aggregate::from_bytes(&p, b"xx");
        let mut f = PoolForker::new();
        let p2 = p.fork(&mut f);
        // Both the original and the fork pack the next allocation into
        // the same chunk at the same offset.
        let m1 = p.alloc(4).unwrap();
        let m2 = p2.alloc(4).unwrap();
        assert_eq!(m1.id(), m2.id());
        assert_eq!(m1.generation(), m2.generation());
    }
}
