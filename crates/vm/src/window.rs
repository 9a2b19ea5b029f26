//! The IO-Lite window: chunk-granularity mapping state per protection
//! domain (§3.3, §4.5, Figure 1).
//!
//! The window "appears in the virtual address spaces of all protection
//! domains, including the kernel". Transferring an aggregate across a
//! domain boundary makes the underlying chunks readable in the receiving
//! domain. Mappings are established lazily and **persist** after buffer
//! deallocation, forming the "lazily established pool of read-only
//! shared-memory pages" of §3.2 — so recycled chunks transfer at shared-
//! memory cost, and only first-time transfers pay page-mapping cost.

use std::collections::HashSet;
use std::fmt;

use iolite_buf::{Acl, ChunkId, DomainId, FixedMap, FixedState, PAGE_SIZE};

/// Access-control violation: the receiving domain is not on the ACL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessDenied {
    /// The domain that was refused.
    pub domain: DomainId,
}

impl fmt::Display for AccessDenied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "domain {} is not on the buffer pool's ACL", self.domain)
    }
}

impl std::error::Error for AccessDenied {}

/// Per-domain chunk mapping tables for the IO-Lite window.
///
/// # Examples
///
/// ```
/// use iolite_buf::{Acl, ChunkId, DomainId};
/// use iolite_vm::IoLiteWindow;
///
/// let mut w = IoLiteWindow::new(64 * 1024);
/// let acl = Acl::with_domain(DomainId(3));
/// // First transfer of a chunk maps 16 pages; repeats are free.
/// assert_eq!(w.transfer([ChunkId(0)], DomainId(3), &acl).unwrap(), 16);
/// assert_eq!(w.transfer([ChunkId(0)], DomainId(3), &acl).unwrap(), 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct IoLiteWindow {
    chunk_size: usize,
    maps: FixedMap<DomainId, HashSet<ChunkId, FixedState>>,
}

impl IoLiteWindow {
    /// Creates a window for chunks of the given size.
    pub fn new(chunk_size: usize) -> Self {
        IoLiteWindow {
            chunk_size,
            maps: FixedMap::default(),
        }
    }

    /// Transfers buffers occupying `chunks` to `domain`, enforcing the
    /// pool ACL, and returns the number of **newly mapped pages** (zero
    /// for warm transfers).
    ///
    /// The kernel domain is implicitly mapped (it "has access ... by
    /// virtue of being part of the kernel", §3.10) and costs nothing.
    ///
    /// # Errors
    ///
    /// Returns [`AccessDenied`] if `domain` is not on the ACL; callers
    /// surface this as an access-control fault.
    pub fn transfer(
        &mut self,
        chunks: impl IntoIterator<Item = ChunkId>,
        domain: DomainId,
        acl: &Acl,
    ) -> Result<u64, AccessDenied> {
        if domain == DomainId::KERNEL {
            return Ok(0);
        }
        if !acl.allows(domain) {
            return Err(AccessDenied { domain });
        }
        let table = self.maps.entry(domain).or_default();
        let new_chunks = chunks.into_iter().filter(|c| table.insert(*c)).count() as u64;
        Ok(new_chunks * (self.chunk_size / PAGE_SIZE) as u64)
    }

    /// Whether `domain` currently maps `chunk`.
    pub fn is_mapped(&self, chunk: ChunkId, domain: DomainId) -> bool {
        domain == DomainId::KERNEL || self.maps.get(&domain).is_some_and(|t| t.contains(&chunk))
    }

    /// Folds the window's mapping state into a stable digest (sorted
    /// iteration over both map levels).
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.chunk_size as u64);
        let mut domains: Vec<DomainId> = self.maps.keys().copied().collect();
        domains.sort_unstable();
        h.write_u64(domains.len() as u64);
        for d in domains {
            h.write_u32(d.0);
            let table = &self.maps[&d];
            let mut chunks: Vec<ChunkId> = table.iter().copied().collect();
            chunks.sort_unstable();
            h.write_u64(chunks.len() as u64);
            for c in chunks {
                h.write_u64(c.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acl_for(d: DomainId) -> Acl {
        Acl::with_domain(d)
    }

    #[test]
    fn first_transfer_maps_then_warm() {
        let mut w = IoLiteWindow::new(64 * 1024);
        let d = DomainId(1);
        let acl = acl_for(d);
        let pages = w.transfer([ChunkId(0), ChunkId(1)], d, &acl).unwrap();
        assert_eq!(pages, 32);
        let pages = w.transfer([ChunkId(0), ChunkId(1)], d, &acl).unwrap();
        assert_eq!(pages, 0);
        // §3.2: a recycled chunk rides its mapping, a fresh one pays
        // again — a stream that never reuses chunks maps all of it.
        assert_eq!(w.transfer([ChunkId(1), ChunkId(2)], d, &acl).unwrap(), 16);
    }

    #[test]
    fn kernel_transfers_are_free() {
        let mut w = IoLiteWindow::new(64 * 1024);
        let acl = Acl::kernel_only();
        assert_eq!(w.transfer([ChunkId(5)], DomainId::KERNEL, &acl), Ok(0));
        assert!(w.maps.is_empty(), "the kernel needs no mapping table");
        assert!(w.is_mapped(ChunkId(5), DomainId::KERNEL));
    }

    #[test]
    fn acl_denial_is_reported() {
        let mut w = IoLiteWindow::new(64 * 1024);
        let acl = acl_for(DomainId(1));
        assert_eq!(
            w.transfer([ChunkId(0)], DomainId(2), &acl),
            Err(AccessDenied {
                domain: DomainId(2)
            })
        );
        assert!(!w.is_mapped(ChunkId(0), DomainId(2)));
    }

    #[test]
    fn mappings_persist_per_domain() {
        let mut w = IoLiteWindow::new(64 * 1024);
        let d1 = DomainId(1);
        let d2 = DomainId(2);
        let acl = Acl::with_domains(&[d1, d2]);
        w.transfer([ChunkId(7)], d1, &acl).unwrap();
        assert!(w.is_mapped(ChunkId(7), d1));
        assert!(!w.is_mapped(ChunkId(7), d2));
        w.transfer([ChunkId(7)], d2, &acl).unwrap();
        assert!(w.is_mapped(ChunkId(7), d1));
        assert!(w.is_mapped(ChunkId(7), d2));
    }
}
