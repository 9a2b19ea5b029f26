//! [`KernelState`]: every byte of kernel state as one pure value.
//!
//! The struct composes all IO-Lite subsystems (window, cache, checksum
//! cache, pipes, sockets, descriptor registry, …) plus the sequential
//! clock and the central [`IdAlloc`]. Mutations live in the `ops_*`
//! sibling modules as `op_*` methods taking an explicit effect buffer;
//! this file holds the aux value types, the constructor, the read-only
//! query surface, [`KernelState::snapshot`] (a deep, identity-preserving
//! fork), and [`KernelState::state_hash`] (a stable digest used to prove
//! replay equivalence).

use std::collections::{BTreeMap, VecDeque};

use iolite_buf::{digest_aggregate, Acl, Aggregate, BufferPool, Fnv64, PoolForker, PoolId};
use iolite_fs::{
    DiskModel, FileId, FileStore, MetadataCache, Policy, UnifiedCache, WritebackConfig,
    WritebackScheduler,
};
use iolite_ipc::Pipe;
use iolite_net::{ChecksumCache, SendOutcome, TcpConn};
use iolite_sim::SimTime;
use iolite_vm::{IoLiteWindow, MemAccount, PhysMemory};

use super::ids::{ConnId, IdAlloc, PipeId};
use crate::cost::{Charge, CostCategory, CostModel};
use crate::error::IolError;
use crate::fd::{Fd, FdObject, FdRegistry, OpenFile};
use crate::idtable::IdTable;
use crate::process::{Pid, Process};

use super::effect::Effect;

/// A bounded LRU set of mapped files: Flash's mapped-file cache.
///
/// Flash keeps recently served files mmap'd; a miss costs an
/// `mmap`/`munmap` cycle. Flash-Lite has no equivalent cost — IO-Lite
/// window mappings persist at chunk granularity (§3.2).
#[derive(Debug, Default, Clone)]
pub struct MappedFileCache {
    capacity: usize,
    clock: u64,
    entries: iolite_buf::FixedMap<FileId, u64>,
    /// `entries` by stamp (unique, monotonic): the LRU victim is first.
    by_stamp: BTreeMap<u64, FileId>,
}

impl MappedFileCache {
    /// Creates a cache of the given capacity (0 disables caching: every
    /// touch misses, which models Apache's map-per-request behaviour).
    pub fn new(capacity: usize) -> Self {
        MappedFileCache {
            capacity,
            ..MappedFileCache::default()
        }
    }

    /// Touches a file; returns `true` if it was already mapped.
    pub fn touch(&mut self, file: FileId) -> bool {
        self.clock += 1;
        if self.capacity == 0 {
            return false;
        }
        self.by_stamp.insert(self.clock, file);
        if let Some(old) = self.entries.insert(file, self.clock) {
            self.by_stamp.remove(&old);
            return true;
        }
        // A miss past capacity evicts the least recently touched file —
        // never the one just mapped, whose stamp is the newest.
        if self.entries.len() > self.capacity {
            if let Some((_, victim)) = self.by_stamp.pop_first() {
                self.entries.remove(&victim);
            }
        }
        false
    }

    /// Number of files currently mapped.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds the cache's state into a stable digest (sorted iteration;
    /// stamps are unique, so order is well defined).
    pub fn digest(&self, h: &mut Fnv64) {
        h.write_usize(self.capacity);
        h.write_u64(self.clock);
        h.write_usize(self.entries.len());
        let mut files: Vec<FileId> = self.entries.keys().copied().collect();
        files.sort_unstable();
        for f in files {
            h.write_u64(f.0);
            h.write_u64(self.entries[&f]);
        }
    }
}

/// The outcome of one kernel operation: what a caller acts on beyond
/// the returned value. What the operation cost — CPU, copies, checksums,
/// page mappings, disk traffic — is not here: it billed all of it to
/// the kernel's ledger ([`crate::Metrics`]) as it went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoOutcome {
    /// Whether the file cache satisfied the request.
    pub cache_hit: bool,
    /// Device service time of a cache miss's disk read (not CPU;
    /// schedule on the disk resource).
    pub disk_time: SimTime,
    /// Network send accounting when the descriptor was a socket
    /// (segments, checksum bytes computed vs cached, copies, socket
    /// buffer occupancy). `None` for files and pipes.
    pub net: Option<SendOutcome>,
}

impl IoOutcome {
    /// What every system call opens with: the trap, billed, with its
    /// `Syscalls(1)` effect, on a fresh outcome.
    pub(super) fn trap(state: &mut KernelState, fx: &mut Vec<Effect>) -> IoOutcome {
        fx.push(Effect::Syscalls(1));
        state.bill(CostCategory::Syscall, Charge::us(state.cost.syscall_us), fx);
        IoOutcome::default()
    }
}

/// A kernel-owned TCP socket: the connection state plus an inbound
/// byte queue fed by `socket_deliver`.
#[derive(Debug)]
pub(crate) struct KernelSocket {
    pub(crate) conn: TcpConn,
    pub(crate) inbound: VecDeque<Aggregate>,
    /// The local side tore the connection down (last descriptor gone).
    pub(crate) closed: bool,
    /// The remote side hung up (FIN/RST): reads drain then EOF, writes
    /// are EPIPE — the "descriptor becomes ready because the peer
    /// closed" case an event loop must observe through `iol_poll`.
    pub(crate) peer_closed: bool,
    /// `O_NONBLOCK`: writes respect the Tss send-buffer bound with
    /// partial progress instead of accepting everything at once.
    pub(crate) nonblocking: bool,
    /// Unacknowledged bytes occupying the send buffer (nonblocking
    /// sockets only; the driver drains them as simulated ACKs arrive
    /// via `socket_drain`).
    pub(crate) sndbuf_used: u64,
}

impl KernelSocket {
    /// Whether writes can never succeed again (local teardown or a
    /// remote hang-up).
    pub(crate) fn write_dead(&self) -> bool {
        self.closed || self.peer_closed
    }

    /// Bytes a write may accept right now: the Tss bound for
    /// nonblocking sockets, unbounded for blocking ones (which model
    /// write-until-drained).
    pub(crate) fn send_space(&self) -> u64 {
        if self.nonblocking {
            (self.conn.tss() as u64).saturating_sub(self.sndbuf_used)
        } else {
            u64::MAX
        }
    }

    /// Deep-forks the socket for a state snapshot, rebinding the
    /// inbound queue's aggregates through `forker`.
    fn fork(&self, forker: &mut PoolForker) -> KernelSocket {
        KernelSocket {
            conn: self.conn.clone(),
            inbound: self
                .inbound
                .iter()
                .map(|a| forker.fork_aggregate(a))
                .collect(),
            closed: self.closed,
            peer_closed: self.peer_closed,
            nonblocking: self.nonblocking,
            sndbuf_used: self.sndbuf_used,
        }
    }

    /// Folds the socket's state into a stable digest.
    fn digest(&self, h: &mut Fnv64) {
        self.conn.digest(h);
        h.write_usize(self.inbound.len());
        for a in &self.inbound {
            digest_aggregate(a, h);
        }
        h.write_bool(self.closed);
        h.write_bool(self.peer_closed);
        h.write_bool(self.nonblocking);
        h.write_u64(self.sndbuf_used);
    }
}

/// A kernel pipe plus the ACL governing zero-copy transfers out of it
/// (`None` = the permissive kernel default; pipes between mutually
/// untrusting processes carry the writer pool's ACL, §3.10).
#[derive(Debug)]
pub(crate) struct PipeSlot {
    pub(crate) pipe: Pipe,
    pub(crate) acl: Option<Acl>,
    /// Set when the last read-end descriptor disappears: subsequent
    /// writes are `EPIPE` — there is nobody left to drain the pipe.
    pub(crate) reader_gone: bool,
}

impl PipeSlot {
    fn fork(&self, forker: &mut PoolForker) -> PipeSlot {
        PipeSlot {
            pipe: self.pipe.fork(forker),
            acl: self.acl.clone(),
            reader_gone: self.reader_gone,
        }
    }

    fn digest(&self, h: &mut Fnv64) {
        // ACLs are fixed at creation and fully determined by the
        // creating command; presence is enough to separate the shapes.
        h.write_bool(self.acl.is_some());
        h.write_bool(self.reader_gone);
        self.pipe.digest(h);
    }
}

/// The stdio console pipes backing a process's fds 0/1/2.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Console {
    pub(crate) stdin: PipeId,
    pub(crate) stdout: PipeId,
    pub(crate) stderr: PipeId,
}

/// The complete simulated-kernel state as a pure value.
///
/// Subsystem fields are public for *reading*: experiment drivers and
/// tests look directly into the checksum cache, the memory accountant,
/// the unified cache — the same way kernel subsystems reach each other.
/// Nothing outside this crate can mutate them: [`crate::Kernel`] derefs
/// to the state read-only, and every mutation is a journaled `op_*`
/// behind a [`super::Command`].
pub struct KernelState {
    /// The machine/cost model.
    pub cost: CostModel,
    /// The IO-Lite window (chunk mappings per domain).
    pub window: IoLiteWindow,
    /// Physical-memory accountant.
    pub physmem: PhysMemory,
    /// File contents.
    pub store: FileStore,
    /// The "old" metadata buffer cache.
    pub meta: MetadataCache,
    /// The unified IO-Lite file cache.
    pub cache: UnifiedCache,
    /// The write-back scheduler + NVM staging tier (PR 10 write path).
    pub writeback: WritebackScheduler,
    /// The Internet checksum cache (§3.9).
    pub cksum: ChecksumCache,
    /// Disk timing model.
    pub disk: DiskModel,
    /// Flash's mapped-file cache (conventional servers only).
    pub mapped_files: MappedFileCache,
    /// The pool backing the file cache. Its ACL is extended to every
    /// process that reads files: web content is world-readable, and the
    /// paper's private-data story (separate per-process/CGI pools) is
    /// carried by the per-process pools instead.
    pub(crate) cache_pool: BufferPool,
    pub(crate) cache_pool_acl: Acl,
    pub(crate) processes: IdTable<Pid, Process>,
    pub(crate) pipes: IdTable<PipeId, PipeSlot>,
    pub(crate) sockets: IdTable<ConnId, KernelSocket>,
    pub(crate) consoles: IdTable<Pid, Console>,
    pub(crate) fds: FdRegistry,
    pub(crate) ids: IdAlloc,
    pub(crate) clock: SimTime,
}

impl KernelState {
    /// Creates the initial kernel state for a machine model and file-
    /// cache policy. Pure: two calls with equal arguments produce
    /// states with equal [`KernelState::state_hash`].
    pub fn new(cost: CostModel, policy: Policy) -> Self {
        let mut physmem = PhysMemory::new(cost.ram_bytes);
        physmem.reserve(MemAccount::Kernel, cost.kernel_reserve_bytes);
        let budget = physmem.cache_budget();
        let disk = DiskModel {
            avg_position_ms: cost.disk_position_ms,
            transfer_mb_s: cost.disk_mb_s,
        };
        KernelState {
            cost,
            window: IoLiteWindow::new(iolite_buf::DEFAULT_CHUNK_SIZE),
            physmem,
            store: FileStore::new(),
            meta: MetadataCache::new(4096),
            cache: UnifiedCache::new(policy, budget),
            writeback: WritebackScheduler::new(WritebackConfig::default_tuning()),
            cksum: ChecksumCache::new(1 << 16),
            disk,
            mapped_files: MappedFileCache::new(cost.flash_mapped_cache_files),
            cache_pool: BufferPool::new(
                PoolId(0),
                Acl::kernel_only(),
                iolite_buf::DEFAULT_CHUNK_SIZE,
            ),
            cache_pool_acl: Acl::kernel_only(),
            processes: IdTable::default(),
            pipes: IdTable::default(),
            sockets: IdTable::default(),
            consoles: IdTable::default(),
            fds: FdRegistry::new(),
            ids: IdAlloc::new(),
            clock: SimTime::ZERO,
        }
    }

    // ---- clock ---------------------------------------------------------

    /// The kernel's sequential clock: every CPU charge billed so far
    /// plus [`crate::Kernel::advance`]d device waits, since the last
    /// reset (the application harness reads it; the Web driver
    /// schedules on an external event clock instead).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Bills CPU where it is incurred — the one ledger: the sequential
    /// clock advances and the charge leaves as an [`Effect::Charge`]
    /// (the shell folds it into the metrics).
    pub(super) fn bill(&mut self, category: CostCategory, c: Charge, fx: &mut Vec<Effect>) {
        self.clock += c.time;
        fx.push(Effect::Charge {
            category,
            time: c.time,
        });
    }

    /// Bills CPU the kernel did not do itself (parsing, application
    /// compute, …), plus the `copied` bytes it paid for, if any.
    pub(crate) fn op_charge(
        &mut self,
        cat: CostCategory,
        c: Charge,
        copied: u64,
        fx: &mut Vec<Effect>,
    ) {
        self.bill(cat, c, fx);
        if copied > 0 {
            fx.push(Effect::BytesCopied(copied));
        }
    }

    /// Advances the sequential clock by non-CPU time (e.g. disk waits).
    pub(crate) fn op_advance(&mut self, t: SimTime) {
        self.clock += t;
    }

    /// Resets the sequential clock.
    pub(crate) fn op_reset_clock(&mut self) {
        self.clock = SimTime::ZERO;
    }

    /// Switches processes `n` times, billing each switch.
    pub(crate) fn op_context_switch(&mut self, n: u64, fx: &mut Vec<Effect>) {
        fx.push(Effect::ContextSwitches(n));
        let switches = self.cost.context_switches(n);
        self.bill(CostCategory::ContextSwitch, switches, fx);
    }

    // ---- processes and pools -------------------------------------------

    /// Spawns a process: private default pool, stdio console triple at
    /// fds 0/1/2.
    pub(crate) fn op_spawn(&mut self, name: String) -> Pid {
        let pid = self.ids.alloc_pid();
        let pool_id = self.ids.alloc_pool();
        let proc = Process::new(pid, name, pool_id, iolite_buf::DEFAULT_CHUNK_SIZE);
        // File data read by this process becomes readable to it.
        self.cache_pool_acl.grant(pid.domain());
        proc.pool().set_namespace(self.ids.namespace);
        self.processes.insert(pid, proc);
        // The stdio triple: three zero-copy console pipes, wired to the
        // conventional descriptor numbers.
        let console = Console {
            stdin: self.op_pipe_create(iolite_ipc::PipeMode::ZeroCopy, None),
            stdout: self.op_pipe_create(iolite_ipc::PipeMode::ZeroCopy, None),
            stderr: self.op_pipe_create(iolite_ipc::PipeMode::ZeroCopy, None),
        };
        self.consoles.insert(pid, console);
        let mut wire = |at, end| self.fds.install_at(pid, at, end).expect("stdio < FD_LIMIT");
        wire(Fd::STDIN, FdObject::PipeRead(console.stdin));
        wire(Fd::STDOUT, FdObject::PipeWrite(console.stdout));
        wire(Fd::STDERR, FdObject::PipeWrite(console.stderr));
        pid
    }

    /// Creates an additional allocation pool (`IOL_create_pool`, §3.4)
    /// with an explicit ACL. The pool is returned to the caller, not
    /// retained — only the consumed pool id is kernel state.
    pub(crate) fn op_create_pool(&mut self, acl: Acl) -> BufferPool {
        let pool = BufferPool::new(self.ids.alloc_pool(), acl, iolite_buf::DEFAULT_CHUNK_SIZE);
        pool.set_namespace(self.ids.namespace);
        pool
    }

    /// Places the pools whose buffers can cross the shard fabric — the
    /// cache pool, every process's pool (a PUT body installed at home
    /// lives in one), and every pool spawned or created from now on — in
    /// shard `shard`'s chunk-id namespace, so their buffers' ⟨pool,
    /// buffer, generation⟩ is unique across a fleet (§3.9) and they can
    /// cross by reference. A copy-mode pipe's scratch buffers never
    /// leave their shard and keep namespace 0. Shard 0's namespace is
    /// every kernel's default, so for shard 0 this changes nothing.
    pub(crate) fn op_id_namespace(&mut self, shard: usize) {
        let ns = u16::try_from(shard).expect("at most 2^16 shards");
        self.ids.namespace = ns;
        let processes = self.processes.iter().map(|(_, p)| p.pool());
        std::iter::once(&self.cache_pool)
            .chain(processes)
            .for_each(|pool| pool.set_namespace(ns));
    }

    // ---- read-only queries ---------------------------------------------

    /// Looks up a process.
    ///
    /// # Panics
    ///
    /// Panics on unknown pids — experiment drivers own process lifetimes.
    pub fn process(&self, pid: Pid) -> &Process {
        self.processes.get(pid).expect("unknown pid")
    }

    /// Immutable access to a pipe (tests, stats).
    ///
    /// # Panics
    ///
    /// Panics on an id no pipe was created with.
    pub fn pipe(&self, id: PipeId) -> &Pipe {
        &self.pipes.get(id).expect("unknown pipe").pipe
    }

    /// Read-only access to the connection behind a socket descriptor
    /// (window rates, the segments its next send would emit).
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] for unknown descriptors,
    /// [`IolError::BadFdKind`] for non-sockets.
    pub fn socket(&self, pid: Pid, fd: Fd) -> Result<&TcpConn, IolError> {
        Ok(&self.resolve_socket(pid, fd, "socket access")?.conn)
    }

    /// Free space in a socket's send buffer (`Tss - unacknowledged`);
    /// the event loop sizes its next write window with this, the way
    /// Flash sizes `writev` calls against `FIONSPACE`.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual.
    pub fn socket_space(&self, pid: Pid, fd: Fd) -> Result<u64, IolError> {
        let sock = self.resolve_socket(pid, fd, "send-buffer space")?;
        // A blocking socket's buffer is always (logically) empty; cap
        // the answer at Tss either way.
        Ok(sock.send_space().min(sock.conn.tss() as u64))
    }

    /// Bytes sitting unacknowledged in a socket's send buffer.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual.
    pub fn socket_unacked(&self, pid: Pid, fd: Fd) -> Result<u64, IolError> {
        Ok(self
            .resolve_socket(pid, fd, "send-buffer occupancy")?
            .sndbuf_used)
    }

    /// Whether a socket's remote side has hung up (a FIN/RST was
    /// observed via `socket_peer_close`). A harness driving the wire
    /// externally needs this *query* — as opposed to learning it from a
    /// failed `socket_drain` — because under an adversarial wire the
    /// drain happens on ACK arrival, not every tick, so a dead peer
    /// mid-drain would otherwise go unnoticed forever.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual.
    pub fn socket_peer_closed(&self, pid: Pid, fd: Fd) -> Result<bool, IolError> {
        Ok(self.resolve_socket(pid, fd, "peer liveness")?.peer_closed)
    }

    /// The length of the file behind a descriptor (`fstat(2)`'s
    /// `st_size`), from the store: `put_install` writes the store
    /// eagerly, and in a fleet only a file's home shard reads or writes
    /// it, so the store is never behind the cache.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual.
    pub fn fd_len(&self, pid: Pid, fd: Fd) -> Result<u64, IolError> {
        let file = self.fd_file(pid, fd)?;
        Ok(self.store.len(file).unwrap_or(0))
    }

    /// The [`FileId`] behind a file descriptor — for cache-layer
    /// bookkeeping (cache pins, the mapped-file cache), never for I/O.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual.
    pub fn fd_file(&self, pid: Pid, fd: Fd) -> Result<FileId, IolError> {
        self.resolve_file(pid, fd, "file metadata")
    }

    /// The object behind a descriptor (`fstat`-style introspection; the
    /// handle to pass `install_fd`/`install_fd_at` when inheriting
    /// descriptors across processes, fork-style).
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] for unknown descriptors.
    pub fn fd_object(&self, pid: Pid, fd: Fd) -> Result<FdObject, IolError> {
        Ok(self.resolve_fd(pid, fd)?.object)
    }

    /// Resolves a descriptor to its open-file description (`EBADF` on
    /// unknown numbers) — the one lookup every fd operation goes
    /// through: array indexes, no lock. Read-only: resolving never
    /// creates a table.
    pub(crate) fn resolve_fd(&self, pid: Pid, fd: Fd) -> Result<OpenFile, IolError> {
        self.fds.get(pid, fd).ok_or(IolError::NotOpen { fd })
    }

    /// Resolves a descriptor that must name a regular file.
    pub(crate) fn resolve_file(
        &self,
        pid: Pid,
        fd: Fd,
        operation: &'static str,
    ) -> Result<FileId, IolError> {
        match self.resolve_fd(pid, fd)?.object {
            FdObject::File(file) => Ok(file),
            _ => Err(IolError::BadFdKind { fd, operation }),
        }
    }

    /// The connection id behind a descriptor that must name a socket.
    fn resolve_conn(&self, pid: Pid, fd: Fd, operation: &'static str) -> Result<ConnId, IolError> {
        match self.resolve_fd(pid, fd)?.object {
            FdObject::Socket(id) => Ok(id),
            _ => Err(IolError::BadFdKind { fd, operation }),
        }
    }

    /// Resolves a descriptor that must name a socket. One installed
    /// over an id no socket was created with is as good as closed:
    /// [`IolError::NotOpen`].
    pub(crate) fn resolve_socket(
        &self,
        pid: Pid,
        fd: Fd,
        operation: &'static str,
    ) -> Result<&KernelSocket, IolError> {
        let id = self.resolve_conn(pid, fd, operation)?;
        self.sockets.get(id).ok_or(IolError::NotOpen { fd })
    }

    /// [`KernelState::resolve_socket`], mutably.
    pub(crate) fn resolve_socket_mut(
        &mut self,
        pid: Pid,
        fd: Fd,
        operation: &'static str,
    ) -> Result<&mut KernelSocket, IolError> {
        let id = self.resolve_conn(pid, fd, operation)?;
        self.sockets.get_mut(id).ok_or(IolError::NotOpen { fd })
    }

    // ---- snapshot and digest -------------------------------------------

    /// Deep-forks the whole kernel state.
    ///
    /// One [`PoolForker`] spans the snapshot so buffer identity is
    /// preserved: pools fork before the aggregates that view them
    /// (cache pool and per-process pools first, then pipes — whose
    /// scratch pools fork inside [`Pipe::fork`] — then cache entries,
    /// socket queues and the store's kept PUT bodies). Aggregates
    /// viewing *application* pools that are not kernel state share
    /// their original buffers, which is sound: the kernel never mutates
    /// buffer contents in place.
    pub fn snapshot(&self) -> KernelState {
        let mut forker = PoolForker::new();
        let cache_pool = self.cache_pool.fork(&mut forker);
        let processes = self.processes.map(|p| p.fork(&mut forker));
        let pipes = self.pipes.map(|s| s.fork(&mut forker));
        let cache = self.cache.snapshot(&mut forker);
        let sockets = self.sockets.map(|s| s.fork(&mut forker));
        KernelState {
            cost: self.cost,
            window: self.window.clone(),
            physmem: self.physmem.clone(),
            store: self.store.fork(&mut forker),
            meta: self.meta.clone(),
            cache,
            writeback: self.writeback.clone(),
            cksum: self.cksum.clone(),
            disk: self.disk,
            mapped_files: self.mapped_files.clone(),
            cache_pool,
            cache_pool_acl: self.cache_pool_acl.clone(),
            processes,
            pipes,
            sockets,
            consoles: self.consoles.clone(),
            fds: self.fds.clone(),
            ids: self.ids,
            clock: self.clock,
        }
    }

    /// A stable digest of the replay-relevant kernel state.
    ///
    /// Two states built by the same command sequence hash equal; the
    /// replay regression test leans on this. Excluded by design: pool
    /// allocator internals (application-side allocations are not
    /// kernel commands) and the disk/cost models (constructor inputs).
    pub fn state_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.clock.as_nanos());
        self.ids.digest(&mut h);
        self.window.digest(&mut h);
        self.physmem.digest(&mut h);
        self.store.digest(&mut h);
        self.meta.digest(&mut h);
        self.cache.digest(&mut h);
        self.writeback.digest(&mut h);
        self.cksum.digest(&mut h);
        self.mapped_files.digest(&mut h);
        h.write_usize(self.processes.len());
        for (pid, p) in self.processes.iter() {
            h.write_u32(pid.0);
            h.write_str(p.name());
            h.write_u32(p.pool().id().0);
        }
        h.write_usize(self.pipes.len());
        for (id, slot) in self.pipes.iter() {
            h.write_u32(id.0);
            slot.digest(&mut h);
        }
        h.write_usize(self.sockets.len());
        for (id, sock) in self.sockets.iter() {
            h.write_u64(id.0);
            sock.digest(&mut h);
        }
        h.write_usize(self.consoles.len());
        for (pid, c) in self.consoles.iter() {
            h.write_u32(pid.0);
            h.write_u32(c.stdin.0);
            h.write_u32(c.stdout.0);
            h.write_u32(c.stderr.0);
        }
        self.fds.digest(&mut h);
        h.finish()
    }
}
