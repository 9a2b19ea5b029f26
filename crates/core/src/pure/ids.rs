//! Kernel object identifiers and the central id allocator.

use iolite_buf::PoolId;

use crate::process::Pid;

/// Identifies a kernel pipe object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PipeId(pub u32);

/// Identifies a kernel TCP connection (socket) object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

/// The central allocator for every kernel id space: pids, pool ids,
/// pipe ids, connection ids, and the pool ids of kernel-owned pipe
/// scratch pools.
///
/// Centralizing the counters makes id allocation a pure state
/// transition (no global atomics — [`IdAlloc`] lives inside
/// [`crate::pure::KernelState`], so two kernels built from the same
/// command stream allocate identical ids) and puts the overflow checks
/// in one place.
///
/// Ordinary pool ids ascend from 1 and must stay in the lower half of
/// the `u32` space; kernel scratch-pool ids ascend from
/// `u32::MAX / 2 + 1`, the private band `iolite_ipc::Pipe` reserves for
/// scratch pools (application-side pipes draw from a separate
/// descending band at the top of the space).
///
/// The chunk-id namespace of every ordinary pool the kernel mints
/// ([`iolite_buf::BufferPool::set_namespace`]) is kept here too: 0 for
/// a lone kernel, the shard index in a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IdAlloc {
    next_pid: u32,
    next_pool: u32,
    next_pipe: u32,
    next_conn: u64,
    next_scratch: u32,
    pub(crate) namespace: u16,
}

/// First id of the kernel scratch-pool band (`> u32::MAX / 2`, as the
/// IPC layer's scratch-pool invariant requires).
const SCRATCH_BASE: u32 = u32::MAX / 2 + 1;

/// Exclusive upper bound of the kernel scratch band, leaving the top of
/// the space to the IPC layer's global (application-side) allocator.
const SCRATCH_LIMIT: u32 = u32::MAX - (1 << 20);

impl IdAlloc {
    /// Creates the allocator with every counter at its starting value.
    pub(crate) fn new() -> Self {
        IdAlloc {
            next_pid: 1,
            next_pool: 1,
            next_pipe: 1,
            next_conn: 1,
            next_scratch: SCRATCH_BASE,
            namespace: 0,
        }
    }

    /// Allocates the next process id.
    ///
    /// # Panics
    ///
    /// Panics on exhaustion of the pid space.
    pub(crate) fn alloc_pid(&mut self) -> Pid {
        let id = self.next_pid;
        self.next_pid = id.checked_add(1).expect("pid space exhausted");
        Pid(id)
    }

    /// Allocates the next ordinary (application/cache) pool id.
    ///
    /// # Panics
    ///
    /// Panics when the ascending band would cross into the scratch-pool
    /// half of the id space.
    pub(crate) fn alloc_pool(&mut self) -> PoolId {
        let id = self.next_pool;
        assert!(id < SCRATCH_BASE, "pool id space exhausted");
        self.next_pool += 1;
        PoolId(id)
    }

    /// Allocates the next pipe id.
    ///
    /// # Panics
    ///
    /// Panics on exhaustion of the pipe id space.
    pub(crate) fn alloc_pipe(&mut self) -> PipeId {
        let id = self.next_pipe;
        self.next_pipe = id.checked_add(1).expect("pipe id space exhausted");
        PipeId(id)
    }

    /// Allocates the next connection id.
    ///
    /// # Panics
    ///
    /// Panics on exhaustion of the connection id space.
    pub(crate) fn alloc_conn(&mut self) -> ConnId {
        let id = self.next_conn;
        self.next_conn = id.checked_add(1).expect("connection id space exhausted");
        ConnId(id)
    }

    /// Allocates the next kernel scratch-pool id (copy-mode pipe
    /// staging buffers).
    ///
    /// # Panics
    ///
    /// Panics when the kernel band would run into the IPC layer's
    /// application-side band at the top of the space.
    pub(crate) fn alloc_scratch_pool(&mut self) -> PoolId {
        let id = self.next_scratch;
        assert!(id < SCRATCH_LIMIT, "scratch pool id space exhausted");
        self.next_scratch += 1;
        PoolId(id)
    }

    /// Folds the counters into a stable digest.
    pub(crate) fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u32(self.next_pid);
        h.write_u32(self.next_pool);
        h.write_u32(self.next_pipe);
        h.write_u64(self.next_conn);
        h.write_u32(self.next_scratch);
        // Namespace 0 folds nothing: a lone kernel's digest predates it.
        if self.namespace != 0 {
            h.write_u32(u32::from(self.namespace));
        }
    }
}

impl Default for IdAlloc {
    fn default() -> Self {
        IdAlloc::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_independent_and_sequential() {
        let mut ids = IdAlloc::new();
        assert_eq!(ids.alloc_pid(), Pid(1));
        assert_eq!(ids.alloc_pid(), Pid(2));
        assert_eq!(ids.alloc_pool(), PoolId(1));
        assert_eq!(ids.alloc_pipe(), PipeId(1));
        assert_eq!(ids.alloc_conn(), ConnId(1));
        assert_eq!(ids.alloc_pid(), Pid(3), "pools/pipes do not consume pids");
    }

    #[test]
    fn scratch_band_sits_in_the_upper_half() {
        let mut ids = IdAlloc::new();
        let a = ids.alloc_scratch_pool();
        let b = ids.alloc_scratch_pool();
        assert!(a.0 > u32::MAX / 2);
        assert_eq!(b.0, a.0 + 1);
        assert!(b.0 < u32::MAX - (1 << 20), "leaves the global band alone");
    }

    /// Regression: allocation is overflow-checked, not wrapping — a
    /// wrapped counter would silently alias two live objects.
    #[test]
    #[should_panic(expected = "pool id space exhausted")]
    fn pool_allocation_refuses_to_cross_into_the_scratch_band() {
        let mut ids = IdAlloc {
            next_pool: u32::MAX / 2,
            ..IdAlloc::new()
        };
        ids.alloc_pool(); // last legal id
        ids.alloc_pool(); // must panic, not wrap or collide
    }

    #[test]
    #[should_panic(expected = "pid space exhausted")]
    fn pid_allocation_is_overflow_checked() {
        let mut ids = IdAlloc {
            next_pid: u32::MAX,
            ..IdAlloc::new()
        };
        ids.alloc_pid();
    }

    #[test]
    #[should_panic(expected = "scratch pool id space exhausted")]
    fn scratch_allocation_stops_before_the_global_band() {
        let mut ids = IdAlloc {
            next_scratch: u32::MAX - (1 << 20),
            ..IdAlloc::new()
        };
        ids.alloc_scratch_pool();
    }

    #[test]
    fn digest_changes_with_any_counter() {
        let hash = |ids: &IdAlloc| {
            let mut h = iolite_buf::Fnv64::new();
            ids.digest(&mut h);
            h.finish()
        };
        let mut ids = IdAlloc::new();
        let h0 = hash(&ids);
        ids.alloc_pipe();
        assert_ne!(hash(&ids), h0);
    }

    #[test]
    #[should_panic(expected = "pool id space exhausted")]
    fn pool_band_never_reaches_scratch_base() {
        let mut ids = IdAlloc {
            next_pool: u32::MAX / 2 + 1,
            ..IdAlloc::new()
        };
        // Even a corrupted counter cannot mint a scratch-band pool id.
        ids.alloc_pool();
    }
}
