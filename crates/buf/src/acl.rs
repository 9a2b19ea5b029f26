//! Access-control lists for buffer pools (§3.3).
//!
//! Every pool carries a set of protection domains allowed to read the
//! buffers allocated from it. The set is tiny in practice (a server
//! process, maybe one CGI process, and the kernel), so a sorted `Vec`
//! beats a hash set.
//!
//! Every buffer carries the ACL its pool had when it was allocated, so
//! an [`Acl`] is a shared handle: cloning one is a reference-count
//! bump, and [`Acl::grant`] copies on write — snapshots taken earlier
//! never see a later change.

use std::fmt;
use std::sync::Arc;

use crate::ids::DomainId;

/// A set of protection domains with access to a pool's buffers.
///
/// The kernel ([`DomainId::KERNEL`]) is implicitly a member of every ACL:
/// the network subsystem "has access to the pages by virtue of being part
/// of the kernel" (§3.10).
///
/// # Examples
///
/// ```
/// use iolite_buf::{Acl, DomainId};
///
/// let acl = Acl::with_domain(DomainId(4));
/// assert!(acl.allows(DomainId(4)));
/// assert!(acl.allows(DomainId::KERNEL));
/// assert!(!acl.allows(DomainId(5)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Acl {
    /// Sorted. `None` — never an empty list — when only the kernel has
    /// access, so the commonest ACL costs nothing to build or to
    /// snapshot.
    domains: Option<Arc<Vec<DomainId>>>,
}

impl Acl {
    /// An ACL granting access only to the kernel.
    pub fn kernel_only() -> Self {
        Acl::default()
    }

    /// An ACL granting access to a single domain (plus the kernel).
    pub fn with_domain(d: DomainId) -> Self {
        let mut acl = Acl::default();
        acl.grant(d);
        acl
    }

    /// An ACL granting access to each listed domain (plus the kernel).
    pub fn with_domains(ds: &[DomainId]) -> Self {
        let mut acl = Acl::default();
        for &d in ds {
            acl.grant(d);
        }
        acl
    }

    /// Adds a domain to the ACL. Idempotent.
    pub fn grant(&mut self, d: DomainId) {
        if let Err(pos) = self.domains().binary_search(&d) {
            Arc::make_mut(self.domains.get_or_insert_with(Arc::default)).insert(pos, d);
        }
    }

    /// Whether `d` may read buffers allocated under this ACL.
    pub fn allows(&self, d: DomainId) -> bool {
        d == DomainId::KERNEL || self.domains().binary_search(&d).is_ok()
    }

    /// The explicitly granted domains (the kernel is implicit).
    pub(crate) fn domains(&self) -> &[DomainId] {
        self.domains.as_ref().map_or(&[], |list| list.as_slice())
    }

    /// Number of explicitly granted domains.
    pub fn len(&self) -> usize {
        self.domains().len()
    }

    /// Whether no user domains are granted.
    pub fn is_empty(&self) -> bool {
        self.domains.is_none()
    }
}

impl fmt::Debug for Acl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Acl{{kernel")?;
        for d in self.domains() {
            write!(f, ",{d}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_always_allowed() {
        assert!(Acl::kernel_only().allows(DomainId::KERNEL));
        assert!(Acl::with_domain(DomainId(9)).allows(DomainId::KERNEL));
    }

    #[test]
    fn grant_is_idempotent() {
        let mut acl = Acl::kernel_only();
        assert!(acl.is_empty());
        assert!(!acl.allows(DomainId(1)));
        acl.grant(DomainId(1));
        assert!(acl.allows(DomainId(1)));
        acl.grant(DomainId(1));
        assert_eq!(acl.len(), 1);
    }

    #[test]
    fn clones_are_snapshots() {
        let mut acl = Acl::with_domain(DomainId(1));
        let before = acl.clone();
        acl.grant(DomainId(2));
        assert_eq!(before.domains(), &[DomainId(1)]);
        assert_eq!(acl.domains(), &[DomainId(1), DomainId(2)]);
    }

    #[test]
    fn domains_stay_sorted() {
        let acl = Acl::with_domains(&[DomainId(5), DomainId(2), DomainId(8)]);
        assert_eq!(acl.domains(), &[DomainId(2), DomainId(5), DomainId(8)]);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = Acl::with_domains(&[DomainId(1), DomainId(2)]);
        let b = Acl::with_domains(&[DomainId(2), DomainId(1)]);
        assert_eq!(a, b);
    }
}
