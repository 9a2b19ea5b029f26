//! Processes: protection domains with default buffer pools.
//!
//! Each process is a protection domain (§3.3). A process gets a default
//! IO-Lite allocation pool whose ACL contains just that process (plus
//! the kernel); `IOL_create_pool` makes additional pools — the paper's
//! Web server gives "the server process and every CGI application
//! instance ... separate buffer pools with different ACLs" (§3.10).

use iolite_buf::{Acl, BufferPool, DomainId, PoolId};

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl Pid {
    /// The protection domain this process runs in.
    pub fn domain(self) -> DomainId {
        DomainId(self.0)
    }
}

/// One simulated process.
#[derive(Debug)]
pub struct Process {
    pid: Pid,
    name: String,
    default_pool: BufferPool,
}

impl Process {
    /// Creates a process with a fresh single-domain pool.
    pub(crate) fn new(pid: Pid, name: String, pool_id: PoolId, chunk_size: usize) -> Self {
        let pool = BufferPool::new(pool_id, Acl::with_domain(pid.domain()), chunk_size);
        Process {
            pid,
            name,
            default_pool: pool,
        }
    }

    /// The process name (diagnostics).
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The process's default allocation pool.
    pub fn pool(&self) -> &BufferPool {
        &self.default_pool
    }

    /// Deep-forks the process for a kernel-state snapshot (the default
    /// pool forks through the snapshot's shared [`iolite_buf::PoolForker`]).
    pub(crate) fn fork(&self, forker: &mut iolite_buf::PoolForker) -> Process {
        Process {
            pid: self.pid,
            name: self.name.clone(),
            default_pool: self.default_pool.fork(forker),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_maps_to_domain() {
        assert_eq!(Pid(7).domain(), DomainId(7));
    }

    #[test]
    fn process_pool_acl_is_private() {
        let p = Process::new(Pid(3), "srv".into(), PoolId(1), 64 * 1024);
        assert!(p.pool().acl().allows(DomainId(3)));
        assert!(!p.pool().acl().allows(DomainId(4)));
        assert_eq!(p.name(), "srv");
    }
}
