//! The imperative shell around the functional core (`crate::pure`).
//!
//! [`Kernel`] owns a pure [`KernelState`] value plus the three things
//! the core must never touch: the [`Metrics`] sink, the optional
//! command [`Journal`], and a reused effect buffer.
//!
//! # One door to kernel state
//!
//! Every state-changing method is a single call to the crate-private
//! `Kernel::run(op, make)`, the **only** place the state is borrowed
//! mutably:
//!
//! 1. clear the effect buffer,
//! 2. run `op` — the state's `op_*` transition — with `&mut fx`,
//! 3. absorb the effects into `metrics`,
//! 4. when recording, append `make()` — the equivalent [`Command`] —
//!    to the journal (built lazily: a disabled journal builds no
//!    command and clones nothing),
//! 5. return the operation's typed result.
//!
//! The methods come from the operation table in `pure/ops.rs`, whose row
//! also generates the [`Command`] and [`crate::pure::step`]'s arm: live
//! calls and replay dispatch alike by construction, and folding a
//! recorded journal through [`crate::pure::replay`] from the same initial
//! state reproduces the final [`KernelState::state_hash`] and the
//! metrics. Written here: the constructors, the journal, the unjournaled
//! queries, and five methods the table cannot express.
//!
//! The I/O surface is descriptor-only (§3.4: the `IOL_*` calls act on
//! any descriptor). Subsystem state is *readable* through [`Deref`];
//! there is no mutable deref and no `state_mut()`. State a run should
//! *start* from enters as a value, through [`Kernel::from_state`].

use std::ops::Deref;

use iolite_buf::{Acl, Aggregate};
use iolite_fs::Policy;
use iolite_ipc::PipeMode;

use crate::cost::{Charge, CostCategory, CostModel};
use crate::error::IoResult;
use crate::fd::Fd;
use crate::metrics::Metrics;
use crate::process::Pid;
use crate::pure::{Command, Effect, Journal, KernelState};

pub use crate::pure::{ConnId, IoOutcome, MappedFileCache, PipeId};

/// The simulated operating system: the imperative shell.
///
/// Dereferences (immutably) to [`KernelState`], so subsystem fields
/// (`cache`, `physmem`, `cksum`, …) and the read-only query surface
/// (`now`, `socket_space`, `fd_object`, …) read as plain fields; every
/// change goes through a journaled method:
///
/// ```
/// use iolite_core::{CostModel, Kernel};
/// use iolite_vm::MemAccount;
///
/// let mut kernel = Kernel::new(CostModel::pentium_ii_333());
/// let budget = kernel.cache.budget(); // reads deref to the state
/// kernel.mem_reserve(MemAccount::SocketCopies, 1 << 20);
/// kernel.rebalance_cache(); // writes are journaled commands
/// assert!(kernel.cache.budget() < budget);
/// ```
///
/// Mutating a subsystem behind the journal's back does not compile:
///
/// ```compile_fail,E0596
/// use iolite_core::{CostModel, Kernel};
///
/// let mut kernel = Kernel::new(CostModel::pentium_ii_333());
/// kernel.cache.set_budget(0); // the deref is read-only: cannot borrow as mutable
/// ```
pub struct Kernel {
    state: KernelState,
    /// Mechanism metrics (folded from the core's effect stream).
    pub metrics: Metrics,
    journal: Option<Journal>,
    fx: Vec<Effect>,
}

impl Deref for Kernel {
    type Target = KernelState;

    fn deref(&self) -> &KernelState {
        &self.state
    }
}

impl Kernel {
    /// Creates a kernel with the default (LRU) cache policy.
    pub fn new(cost: CostModel) -> Self {
        Kernel::with_policy(cost, Policy::Lru)
    }

    /// Creates a kernel with an explicit file-cache policy (Flash-Lite
    /// installs [`Policy::Gds`] through the §3.7 customization hook).
    pub fn with_policy(cost: CostModel, policy: Policy) -> Self {
        Kernel::from_state(KernelState::new(cost, policy))
    }

    /// Wraps a prepared *initial* state (e.g. one with a non-default
    /// checksum-cache capacity) — the value [`crate::pure::replay`]
    /// takes, so snapshot it first if the journal will be replayed.
    pub fn from_state(state: KernelState) -> Self {
        Kernel {
            state,
            metrics: Metrics::new(),
            journal: None,
            fx: Vec::new(),
        }
    }

    /// The one door (module docs): `op` on the state with a cleared
    /// effect buffer → effects into the metrics → `make()` journaled,
    /// lazily, so a disabled journal costs no clones on the hot path.
    /// Called only by the operation table's methods and the few
    /// hand-written ones below.
    pub(crate) fn run<R>(
        &mut self,
        op: impl FnOnce(&mut KernelState, &mut Vec<Effect>) -> R,
        make: impl FnOnce() -> Command,
    ) -> R {
        self.fx.clear();
        let r = op(&mut self.state, &mut self.fx);
        for e in &self.fx {
            self.metrics.absorb(e);
        }
        if let Some(j) = self.journal.as_mut() {
            j.push(make());
        }
        r
    }

    // ---- journaling ------------------------------------------------------

    /// Starts recording every executed command (errors included — a
    /// rejected command may still have mutated state) into a fresh
    /// journal, replacing any previous one.
    pub fn start_journal(&mut self) {
        self.journal = Some(Journal::new());
    }

    /// Stops recording and hands the journal back, if one was active.
    pub fn take_journal(&mut self) -> Option<Journal> {
        self.journal.take()
    }

    /// The journal recorded so far, if recording is active.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    // ---- journaled methods the operation table does not generate --------

    /// Spawns a process with a private default pool and the conventional
    /// stdio triple installed at fds 0/1/2 ([`Fd::STDIN`],
    /// [`Fd::STDOUT`], [`Fd::STDERR`]), each backed by a console pipe
    /// the harness can drive via [`Kernel::feed_stdin`] /
    /// [`Kernel::read_stdout`] / [`Kernel::read_stderr`] — or re-plumb
    /// with [`Kernel::dup2_fd`], shell-style.
    pub fn spawn(&mut self, name: impl Into<String>) -> Pid {
        let name = name.into();
        self.run(
            |s, _| s.op_spawn(name.clone()),
            || Command::Spawn { name: name.clone() },
        )
    }

    /// Bills CPU for work the kernel does not do itself — request
    /// parsing, CGI dispatch, the process model, application compute —
    /// to the sequential clock and the metrics breakdown. (Every kernel
    /// operation bills its own CPU where it incurs it.)
    pub fn charge(&mut self, cat: CostCategory, c: Charge) {
        self.charge_copied(cat, c, 0)
    }

    /// Delivers inbound payload — already in the receiving process's
    /// pool, as §3.6's early demultiplexing leaves it, and in stream
    /// order — to a socket. The data becomes readable through
    /// [`Kernel::iol_read_fd`].
    pub fn socket_deliver(&mut self, pid: Pid, fd: Fd, payload: Aggregate) -> IoResult<u64> {
        // The payload moves into the socket's inbound queue; only a
        // recording journal pays for a second handle.
        let journaled = self.journal.is_some().then(|| payload.clone());
        self.run(
            |s, _| s.op_socket_deliver(pid, fd, payload),
            || Command::SocketDeliver {
                pid,
                fd,
                payload: journaled.expect("cloned above whenever a journal is recording"),
            },
        )
    }

    /// Creates a pipe with its write end in `writer`'s table and its
    /// read end in `reader`'s (the post-`fork` shape of `a | b`).
    /// Returns `(write_fd, read_fd)`.
    pub fn pipe_between(&mut self, writer: Pid, reader: Pid, mode: PipeMode) -> (Fd, Fd) {
        self.pipe(writer, reader, mode, None)
    }

    /// Like [`Kernel::pipe_between`], with zero-copy transfers governed
    /// by `acl` (pipes between mutually untrusting domains, §3.10).
    pub fn pipe_between_with_acl(
        &mut self,
        writer: Pid,
        reader: Pid,
        mode: PipeMode,
        acl: Acl,
    ) -> (Fd, Fd) {
        self.pipe(writer, reader, mode, Some(acl))
    }

    fn pipe(&mut self, writer: Pid, reader: Pid, mode: PipeMode, acl: Option<Acl>) -> (Fd, Fd) {
        self.run(
            |s, _| s.op_pipe_between(writer, reader, mode, acl.clone()),
            || Command::PipeBetween {
                writer,
                reader,
                mode,
                acl: acl.clone(),
            },
        )
    }

    // ---- unjournaled queries -------------------------------------------

    /// Whether accumulated dirty bytes have armed a write-back flush —
    /// a pure state read (not journaled); the event loop polls this
    /// between request completions and issues the journaled
    /// [`Kernel::write_back`] when it answers `true`.
    pub fn writeback_due(&self) -> bool {
        self.writeback.should_flush(self.cache.dirty_bytes())
    }

    /// Whether the NVM staging tier holds bytes a background demotion
    /// drain should move to disk — a pure state read (not journaled),
    /// the companion query to [`Kernel::writeback_due`].
    pub fn nvm_demote_due(&self) -> bool {
        self.writeback.should_demote()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FdObject, IolError, Whence};
    use iolite_fs::CacheKey;
    use iolite_net::{BufferMode, DEFAULT_MSS, DEFAULT_TSS};
    use iolite_sim::SimTime;
    use iolite_vm::MemAccount;

    fn kernel() -> Kernel {
        Kernel::new(CostModel::pentium_ii_333())
    }

    #[test]
    fn spawn_installs_the_stdio_triple() {
        let mut k = kernel();
        let pid = k.spawn("app");
        // fds 0/1/2 are live; the first user object lands at 3.
        let f = k.create_file("/f", b"x");
        let fd = k.open_file(pid, f);
        assert_eq!(fd, Fd(3));
        // STDOUT round-trips through the console.
        let pool = k.process(pid).pool().clone();
        let msg = Aggregate::from_bytes(&pool, b"hello, console");
        let (n, _) = k.iol_write_fd(pid, Fd::STDOUT, &msg).unwrap();
        assert_eq!(n, 14);
        let (got, _) = k.read_stdout(pid, 100).unwrap();
        assert_eq!(got.to_vec(), b"hello, console");
        // STDIN: the harness feeds, the process reads.
        let input = Aggregate::from_bytes(&pool, b"typed");
        k.feed_stdin(pid, &input).unwrap();
        let (read, _) = k.iol_read_fd(pid, Fd::STDIN, 100).unwrap();
        assert_eq!(read.to_vec(), b"typed");
        // STDERR is distinct from STDOUT.
        let err = Aggregate::from_bytes(&pool, b"oops");
        k.iol_write_fd(pid, Fd::STDERR, &err).unwrap();
        assert!(matches!(k.read_stdout(pid, 100), Err(IolError::WouldBlock)));
        assert_eq!(k.read_stderr(pid, 100).unwrap().0.to_vec(), b"oops");
    }

    #[test]
    fn closed_fd_numbers_are_reused_lowest_first() {
        let mut k = kernel();
        let pid = k.spawn("app");
        let f = k.create_file("/f", b"x");
        let a = k.open_file(pid, f);
        let b = k.open_file(pid, f);
        assert_eq!((a, b), (Fd(3), Fd(4)));
        k.close_fd(pid, a).unwrap();
        assert_eq!(k.open_file(pid, f), Fd(3), "lowest free number, per POSIX");
        assert_eq!(k.open_file(pid, f), Fd(5));
    }

    #[test]
    fn iol_read_hits_cache_second_time() {
        let mut k = kernel();
        let pid = k.spawn("app");
        let f = k.create_synthetic_file("/f", 100_000, 1);
        let fd = k.open_file(pid, f);
        let (a1, o1) = k.iol_pread(pid, fd, 0, 100_000).unwrap();
        assert!(!o1.cache_hit && o1.disk_time > SimTime::ZERO);
        assert_eq!(k.metrics.disk_bytes, 100_000);
        let (a2, o2) = k.iol_pread(pid, fd, 0, 100_000).unwrap();
        assert!(o2.cache_hit);
        assert_eq!(k.metrics.disk_bytes, 100_000, "the hit read no disk");
        assert_eq!(a1.to_vec(), a2.to_vec());
        // Same physical copy.
        assert!(a1.slice_at(0).same_buffer(a2.slice_at(0)));
    }

    #[test]
    fn iol_read_short_at_eof() {
        let mut k = kernel();
        let pid = k.spawn("app");
        let f = k.create_file("/f", b"abcdef");
        let fd = k.open_file(pid, f);
        let (agg, _) = k.iol_pread(pid, fd, 4, 100).unwrap();
        assert_eq!(agg.to_vec(), b"ef");
        let (empty, _) = k.iol_pread(pid, fd, 100, 10).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn mapping_cost_amortizes() {
        let mut k = kernel();
        let pid = k.spawn("app");
        let f = k.create_synthetic_file("/f", 64 * 1024, 1);
        let fd = k.open_file(pid, f);
        k.iol_pread(pid, fd, 0, 64 * 1024).unwrap();
        let (mapped, cold) = (k.metrics.pages_mapped, k.now());
        assert!(mapped > 0);
        k.iol_pread(pid, fd, 0, 64 * 1024).unwrap();
        assert_eq!(
            k.metrics.pages_mapped, mapped,
            "second read rides warm mappings"
        );
        assert!(k.now() - cold < cold, "and bills less");
    }

    #[test]
    fn posix_read_copies_iol_read_does_not() {
        let mut k = kernel();
        let pid = k.spawn("app");
        let f = k.create_synthetic_file("/f", 10_000, 1);
        let fd = k.open_file(pid, f);
        let (data, _) = k.posix_read_fd(pid, fd, 10_000).unwrap();
        assert_eq!(k.metrics.bytes_copied, 10_000);
        let (agg, _) = k.iol_pread(pid, fd, 0, 10_000).unwrap();
        assert_eq!(k.metrics.bytes_copied, 10_000, "IOL_read adds no copy");
        assert_eq!(agg.to_vec(), data);
    }

    #[test]
    fn iol_write_preserves_reader_snapshots() {
        let mut k = kernel();
        let pid = k.spawn("app");
        let f = k.create_file("/f", b"old-contents");
        let fd = k.open_file(pid, f);
        let (snapshot, _) = k.iol_pread(pid, fd, 0, 100).unwrap();
        let patch = Aggregate::from_bytes(k.process(pid).pool(), b"NEW");
        k.iol_pwrite(pid, fd, 0, &patch).unwrap();
        // Reader's snapshot unchanged; store and cache updated.
        assert_eq!(snapshot.to_vec(), b"old-contents");
        assert_eq!(k.store.read(f, 0, 100).unwrap(), b"NEW-contents");
        let (now, o) = k.iol_pread(pid, fd, 0, 100).unwrap();
        assert!(o.cache_hit);
        assert_eq!(now.to_vec(), b"NEW-contents");
    }

    /// The PR 10 write path end-to-end at the kernel surface: a PUT
    /// installs the body dirty and zero-copy, readers of the old
    /// version keep complete snapshots, write-back cleans through the
    /// NVM tier, and the journaled run replays bit-identically.
    ///
    /// The old version goes out in several send windows first, so the
    /// PUT retires a buffer with several cached §3.9 sums spread among
    /// unrelated ones: the checksum table's layout after that
    /// invalidation is part of `state_hash`, and must be the same in an
    /// independent kernel fed the same calls.
    #[test]
    fn put_install_write_back_replays_bit_identically() {
        fn drive(k: &mut Kernel) {
            let pid = k.spawn("server");
            let f = k.create_file("/doc", b"generation-one");
            let fd = k.open_file(pid, f);
            let (old_snap, _) = k.iol_pread(pid, fd, 0, 100).unwrap();
            let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
            let pool = k.process(pid).pool().clone();
            let windows = [(0, 14), (0, 4), (4, 4), (8, 3), (11, 3)];
            for (i, (at, len)) in windows.into_iter().enumerate() {
                let window = old_snap.range(at, len).unwrap();
                k.iol_write_fd(pid, sock, &window).unwrap();
                let header = Aggregate::from_bytes(&pool, &[i as u8; 24]);
                k.iol_write_fd(pid, sock, &header).unwrap();
            }
            assert_eq!(k.cksum.len(), 2 * windows.len());
            // PUT: the body aggregate is installed by reference.
            let body = Aggregate::from_bytes(&pool, b"generation-two!");
            k.put_install(pid, f, &body);
            assert_eq!(k.metrics.disk_write_ops, 0, "persistence is deferred");
            assert_eq!(k.metrics.bytes_dirty_installed, body.len());
            assert!(k.cache.is_dirty(&CacheKey::whole(f)));
            assert_eq!(k.cksum.stats().invalidations, windows.len() as u64);
            assert_eq!(k.cksum.len(), windows.len(), "the headers' sums survive");
            // The new cache entry shares the body's buffers (zero-copy).
            let (new_snap, o) = k.iol_pread(pid, fd, 0, 100).unwrap();
            assert!(o.cache_hit);
            assert!(new_snap.slice_at(0).same_buffer(body.slice_at(0)));
            // §3.5: the old reader still sees complete old bytes.
            assert_eq!(old_snap.to_vec(), b"generation-one");
            assert_eq!(new_snap.to_vec(), b"generation-two!");
            assert_eq!(k.store.read(f, 0, 100).unwrap(), b"generation-two!");
            // Write-back cleans the entry; the small body fits the NVM tier.
            assert!(!k.writeback_due(), "one small body is under threshold");
            assert_eq!(k.write_back(0), body.len());
            assert!(!k.cache.is_dirty(&CacheKey::whole(f)));
            let (m, n) = (&k.metrics, body.len());
            assert_eq!(
                (
                    m.writeback_flushes,
                    m.writeback_entries,
                    m.bytes_written_back
                ),
                (1, 1, n)
            );
            assert_eq!((m.nvm_absorbed_bytes, m.disk_write_ops), (n, 0));
            // Background demotion drains the tier to disk.
            assert_eq!(k.nvm_demote(), n);
            let m = &k.metrics;
            assert_eq!(
                (m.nvm_demoted_bytes, m.disk_write_ops, m.disk_write_bytes),
                (n, 1, n)
            );
            assert_eq!(k.writeback.nvm_used(), 0);
        }
        let mut k = kernel();
        k.start_journal();
        drive(&mut k);
        // Same calls, independent kernel: same state.
        let mut twin = kernel();
        drive(&mut twin);
        assert_eq!(twin.state_hash(), k.state_hash());
        // Deterministic replay: same state hash, same metrics.
        let journal = k.take_journal().unwrap();
        let initial = KernelState::new(CostModel::pentium_ii_333(), Policy::Lru);
        let (replayed, metrics) = crate::pure::replay(initial, &journal);
        assert_eq!(replayed.state_hash(), k.state_hash());
        assert_eq!(metrics, k.metrics);
    }

    /// A budget collapse evicts only clean entries: a dirty one stays
    /// until write-back cleans it, and only then may it go.
    #[test]
    fn budget_collapse_keeps_dirty_entries_until_write_back() {
        let mut k = kernel();
        let pid = k.spawn("server");
        let f = k.create_file("/doc", b"x");
        let body = Aggregate::from_bytes(k.process(pid).pool(), &vec![7u8; 8192]);
        k.put_install(pid, f, &body);
        let clean = k.create_synthetic_file("/clean", 8 * 4096, 1);
        let fd = k.open_file(pid, clean);
        k.iol_pread(pid, fd, 0, 8 * 4096).unwrap();
        k.mem_reserve(MemAccount::SocketCopies, u64::MAX / 2);
        assert_eq!(k.rebalance_cache(), 1, "only the clean entry can go");
        let doc = CacheKey::whole(f);
        assert!(k.cache.is_dirty(&doc), "dirty entries are never victims");
        assert_eq!(k.write_back(0), body.len());
        assert!(!k.cache.is_dirty(&doc), "flushed, not lost");
        assert_eq!(k.store.read(f, 0, 1).unwrap(), b"\x07");
        assert_eq!(k.rebalance_cache(), 1, "clean now, it may go");
        assert!(!k.cache.contains(&doc));
    }

    #[test]
    fn lookup_uses_metadata_cache() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.create_file("/x", b"1");
        let (a, _) = k.open(pid, "/x").unwrap();
        let miss = k.now();
        let (b, _) = k.open(pid, "/x").unwrap();
        assert_eq!(k.fd_file(pid, a), k.fd_file(pid, b));
        assert!(k.now() - miss < miss, "metadata hit is cheaper");
        let t = k.now();
        assert_eq!(k.open(pid, "/missing"), Err(IolError::NotFound));
        assert_eq!(k.now(), t, "a failed open bills nothing");
    }

    /// Regression (pin-steal interleaving across the kernel surface):
    /// a transmission pins the key, `IOL_write` replaces the entry, a
    /// second transmission pins the key, then the first transmission's
    /// deferred unpin fires. The second transmission's data must stay
    /// referenced.
    #[test]
    fn iol_write_replacement_keeps_transmission_pins() {
        let mut k = kernel();
        let pid = k.spawn("server");
        let f = k.create_file("/doc", b"version-1");
        let fd = k.open_file(pid, f);
        let key = CacheKey::whole(f);
        // Transmission A: read + pin (the serve path's pin lifecycle).
        let (_snap, _) = k.iol_pread(pid, fd, 0, 100).unwrap();
        k.cache_pin(key);
        // A write replaces the cached entry mid-transmission.
        let patch = Aggregate::from_bytes(k.process(pid).pool(), b"version-2");
        k.iol_pwrite(pid, fd, 0, &patch).unwrap();
        // Transmission B starts on the new snapshot.
        let (_snap2, o2) = k.iol_pread(pid, fd, 0, 100).unwrap();
        assert!(o2.cache_hit);
        k.cache_pin(key);
        // Transmission A drains: its deferred unpin fires.
        k.cache_unpin(key);
        assert_eq!(k.cache.pins(&key), 1, "B's pin must survive A's unpin");
        // Under total memory pressure the in-flight entry is evicted
        // only as a last resort (counted as a pinned eviction).
        let before = k.cache.stats().pinned_evictions;
        k.mem_reserve(MemAccount::SocketCopies, u64::MAX / 2);
        k.rebalance_cache();
        assert_eq!(k.cache.stats().pinned_evictions, before + 1);
    }

    #[test]
    fn cache_budget_respects_memory_pressure() {
        let mut k = kernel();
        let pid = k.spawn("app");
        let f = k.create_synthetic_file("/f", 1 << 20, 1);
        let fd = k.open_file(pid, f);
        k.iol_pread(pid, fd, 0, 1 << 20).unwrap();
        assert!(k.cache.resident_bytes() > 0);
        // Reserve (almost) all remaining memory: cache must shrink.
        let avail = k.physmem.available();
        k.mem_reserve(MemAccount::SocketCopies, avail + (1 << 20));
        k.rebalance_cache();
        assert_eq!(k.cache.resident_bytes(), 0, "budget squeeze evicts all");
    }

    #[test]
    fn zero_copy_pipe_transfer_maps_once() {
        let mut k = kernel();
        let a = k.spawn("producer");
        let b = k.spawn("consumer");
        let (w, r) = k.pipe_between(a, b, PipeMode::ZeroCopy);
        let pool = k.process(a).pool().clone();
        // First message: fresh chunk, reader pays mapping.
        let m1 = Aggregate::from_bytes(&pool, &[1u8; 64 * 1024]);
        k.iol_write_fd(a, w, &m1).unwrap();
        drop(m1);
        let (got, _) = k.iol_read_fd(b, r, u64::MAX).unwrap();
        assert_eq!(got.len(), 64 * 1024);
        let mapped = k.metrics.pages_mapped;
        assert!(mapped > 0);
        drop(got);
        // Recycled chunk: no new mappings (the §3.2 fast path).
        let m2 = Aggregate::from_bytes(&pool, &[2u8; 64 * 1024]);
        k.iol_write_fd(a, w, &m2).unwrap();
        drop(m2);
        k.iol_read_fd(b, r, u64::MAX).unwrap();
        assert_eq!(k.metrics.pages_mapped, mapped);
        assert_eq!(k.metrics.bytes_copied, 0);
    }

    #[test]
    fn acl_pipe_reads_bill_first_time_mappings_once() {
        let mut k = kernel();
        let (writer, reader) = (k.spawn("writer"), k.spawn("reader"));
        let acl = Acl::with_domains(&[writer.domain(), reader.domain()]);
        let (w, r) = k.pipe_between_with_acl(writer, reader, PipeMode::ZeroCopy, acl.clone());
        let pool = k.create_pool(acl);
        let data = Aggregate::from_bytes(&pool, &[9u8; 3 * 4096]);
        let map_time = |k: &Kernel| k.metrics.time_in(CostCategory::PageMap);
        let read = |k: &mut Kernel| {
            k.iol_write_fd(writer, w, &data).unwrap();
            let (pages, time) = (k.metrics.pages_mapped, map_time(k));
            k.iol_read_fd(reader, r, u64::MAX).unwrap();
            (k.metrics.pages_mapped - pages, map_time(k) - time)
        };
        let (pages, billed) = read(&mut k);
        assert!(pages > 0);
        assert_eq!(billed, k.cost.page_maps(pages).time);
        // A warm read maps nothing and bills nothing.
        assert_eq!(read(&mut k), (0, SimTime::ZERO));
    }

    #[test]
    fn copy_pipe_charges_copies() {
        let mut k = kernel();
        let a = k.spawn("producer");
        let b = k.spawn("consumer");
        let (w, r) = k.pipe_between(a, b, PipeMode::Copy);
        let pool = k.process(a).pool().clone();
        let msg = Aggregate::from_bytes(&pool, &[1u8; 1000]);
        let (n, _) = k.iol_write_fd(a, w, &msg).unwrap();
        assert_eq!(n, 1000);
        let trap = Charge::us(5.0).time;
        assert!(k.now() > trap, "a trap plus the copy in");
        let t = k.now();
        k.iol_read_fd(b, r, u64::MAX).unwrap();
        assert!(k.now() - t > trap, "a trap plus the copy out");
        assert_eq!(k.metrics.bytes_copied, 2000);
        assert_eq!(k.metrics.cpu(), k.now(), "one ledger");
    }

    #[test]
    fn pipe_write_reports_short_io_and_close_gives_eof() {
        let mut k = kernel();
        let a = k.spawn("producer");
        let b = k.spawn("consumer");
        let (w, r) = k.pipe_between(a, b, PipeMode::ZeroCopy);
        let pool = k.process(a).pool().clone();
        // 100KB into a 64KB pipe: partial progress is carried.
        let big = Aggregate::from_bytes(&pool, &[7u8; 100 * 1024]);
        let err = k.iol_write_fd(a, w, &big).unwrap_err();
        assert_eq!(err, IolError::ShortIo { done: 64 * 1024 });
        // Full pipe accepts nothing: EAGAIN, still billed as a trap.
        let t = k.now();
        assert_eq!(k.iol_write_fd(a, w, &big), Err(IolError::WouldBlock));
        assert_eq!(k.now() - t, Charge::us(k.cost.syscall_us).time);
        // Drain, close the write end; the reader sees data then EOF.
        let (first, _) = k.iol_read_fd(b, r, u64::MAX).unwrap();
        assert_eq!(first.len(), 64 * 1024);
        k.close_fd(a, w).unwrap();
        let (eof, _) = k.iol_read_fd(b, r, 100).unwrap();
        assert!(eof.is_empty(), "EOF after last write end closes");
        // A fresh descriptor to the closed pipe's write end is refused.
        let FdObject::PipeRead(id) = k.fd_object(b, r).unwrap() else {
            panic!("read end resolves to a pipe");
        };
        let w2 = k.install_fd(a, FdObject::PipeWrite(id));
        assert_eq!(k.iol_write_fd(a, w2, &big), Err(IolError::Closed));
    }

    #[test]
    fn pipe_eof_requires_last_writer_to_close() {
        let mut k = kernel();
        let a = k.spawn("producer");
        let b = k.spawn("consumer");
        let (w, r) = k.pipe_between(a, b, PipeMode::ZeroCopy);
        let w_dup = k.dup_fd(a, w).unwrap();
        k.close_fd(a, w).unwrap();
        // A write end remains: the empty pipe is EAGAIN, not EOF.
        assert!(matches!(k.iol_read_fd(b, r, 10), Err(IolError::WouldBlock)));
        k.close_fd(a, w_dup).unwrap();
        let (eof, _) = k.iol_read_fd(b, r, 10).unwrap();
        assert!(eof.is_empty());
    }

    #[test]
    fn fd_reads_advance_shared_offsets() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.create_file("/seq", b"abcdefghij");
        let (fd, _) = k.open(pid, "/seq").unwrap();
        let (first, _) = k.iol_read_fd(pid, fd, 4).unwrap();
        assert_eq!(first.to_vec(), b"abcd");
        // A dup shares the offset.
        let dup = k.dup_fd(pid, fd).unwrap();
        let (second, _) = k.iol_read_fd(pid, dup, 4).unwrap();
        assert_eq!(second.to_vec(), b"efgh");
        let (third, _) = k.iol_read_fd(pid, fd, 4).unwrap();
        assert_eq!(third.to_vec(), b"ij");
        // lseek rewinds.
        assert_eq!(k.lseek(pid, fd, 0, Whence::Set).unwrap().0, 0);
        let (again, _) = k.iol_read_fd(pid, dup, 2).unwrap();
        assert_eq!(again.to_vec(), b"ab");
    }

    #[test]
    fn lseek_whence_resolves_cur_and_end() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.create_file("/f", b"0123456789");
        let (fd, _) = k.open(pid, "/f").unwrap();
        assert_eq!(k.lseek(pid, fd, 4, Whence::Set).unwrap().0, 4);
        assert_eq!(k.lseek(pid, fd, 3, Whence::Cur).unwrap().0, 7);
        assert_eq!(k.lseek(pid, fd, -5, Whence::Cur).unwrap().0, 2);
        // End resolves against file metadata.
        assert_eq!(k.lseek(pid, fd, -2, Whence::End).unwrap().0, 8);
        let (tail, _) = k.iol_read_fd(pid, fd, 100).unwrap();
        assert_eq!(tail.to_vec(), b"89");
        // Past-EOF is allowed (sparse seek); negative is EINVAL.
        assert_eq!(k.lseek(pid, fd, 5, Whence::End).unwrap().0, 15);
        assert_eq!(
            k.lseek(pid, fd, -11, Whence::Set),
            Err(IolError::InvalidSeek { requested: -11 })
        );
        // ESPIPE for non-files.
        let (_, r) = k.pipe_fds(pid, PipeMode::Copy);
        assert!(matches!(
            k.lseek(pid, r, 0, Whence::Set),
            Err(IolError::BadFdKind { .. })
        ));
    }

    #[test]
    fn fd_pipes_and_bad_fds() {
        let mut k = kernel();
        let a = k.spawn("producer");
        let b = k.spawn("consumer");
        let (w, r_in_b) = k.pipe_between(a, b, PipeMode::ZeroCopy);
        let pool = k.process(a).pool().clone();
        let msg = Aggregate::from_bytes(&pool, b"through the fd layer");
        let (n, _) = k.iol_write_fd(a, w, &msg).unwrap();
        assert_eq!(n, 20);
        let (got, _) = k.iol_read_fd(b, r_in_b, 100).unwrap();
        assert_eq!(got.to_vec(), b"through the fd layer");
        // Wrong-end access and unknown fds fail precisely.
        assert!(matches!(
            k.iol_read_fd(a, w, 10),
            Err(IolError::BadFdKind { .. })
        ));
        assert!(matches!(
            k.iol_write_fd(b, r_in_b, &msg),
            Err(IolError::BadFdKind { .. })
        ));
        assert!(matches!(
            k.iol_read_fd(a, Fd(999), 10),
            Err(IolError::NotOpen { fd: Fd(999) })
        ));
        // Opening a missing path is ENOENT.
        assert_eq!(k.open(a, "/nope"), Err(IolError::NotFound));
    }

    #[test]
    fn fd_file_writes_land_at_the_offset() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.create_file("/f", b"0123456789");
        let (fd, _) = k.open(pid, "/f").unwrap();
        k.lseek(pid, fd, 4, Whence::Set).unwrap();
        let pool = k.process(pid).pool().clone();
        let patch = Aggregate::from_bytes(&pool, b"XY");
        let (n, _) = k.iol_write_fd(pid, fd, &patch).unwrap();
        assert_eq!(n, 2);
        let file = k.fd_file(pid, fd).unwrap();
        assert_eq!(k.store.read(file, 0, 20).unwrap(), b"0123XY6789");
        // The offset advanced past the write.
        let (rest, _) = k.iol_read_fd(pid, fd, 10).unwrap();
        assert_eq!(rest.to_vec(), b"6789");
    }

    #[test]
    fn socket_fd_runs_the_tcp_send_path() {
        let mut k = kernel();
        let pid = k.spawn("server");
        let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
        let pool = k.process(pid).pool().clone();
        let payload = Aggregate::from_bytes(&pool, &[7u8; 10_000]);
        let (n, out) = k.iol_write_fd(pid, sock, &payload).unwrap();
        assert_eq!(n, 10_000);
        let send = out.net.expect("socket writes carry SendOutcome");
        assert_eq!(send.payload_bytes, 10_000);
        assert_eq!(send.csum_bytes_computed, 10_000);
        assert_eq!(send.bytes_copied, 0);
        // Second transmission rides the checksum cache (§3.9), exactly
        // as a direct TcpConn::send would.
        let (_, out2) = k.iol_write_fd(pid, sock, &payload).unwrap();
        let send2 = out2.net.unwrap();
        assert_eq!(send2.csum_bytes_computed, 0);
        assert_eq!(send2.csum_bytes_cached, 10_000);
        assert_eq!(k.metrics.bytes_checksum_cached, 10_000);
        // Window-rate math is reachable through the registry.
        assert!(k.socket(pid, sock).unwrap().window_rate(0.0).is_infinite());
    }

    #[test]
    fn socket_fd_reads_drain_delivered_data() {
        let mut k = kernel();
        let pid = k.spawn("server");
        let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
        // Nothing delivered yet: EAGAIN.
        assert!(matches!(
            k.iol_read_fd(pid, sock, 10),
            Err(IolError::WouldBlock)
        ));
        let pool = k.process(pid).pool().clone();
        k.socket_deliver(pid, sock, Aggregate::from_bytes(&pool, b"GET / HTTP/1.0"))
            .unwrap();
        let (head, _) = k.iol_read_fd(pid, sock, 5).unwrap();
        assert_eq!(head.to_vec(), b"GET /");
        let (rest, _) = k.iol_read_fd(pid, sock, 100).unwrap();
        assert_eq!(rest.to_vec(), b" HTTP/1.0");
        // Close tears the connection down: reads EOF, writes EPIPE.
        k.close_fd(pid, sock).unwrap();
        let err = k.iol_read_fd(pid, sock, 10).unwrap_err();
        assert_eq!(err, IolError::NotOpen { fd: sock });
    }

    #[test]
    fn socket_close_rejects_further_writes_via_other_handles() {
        let mut k = kernel();
        let a = k.spawn("a");
        let b = k.spawn("b");
        let sock = k.socket_create(a, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
        // Hand the socket to b (fork-style inheritance), then close every
        // descriptor: the connection itself tears down.
        let obj = FdObject::Socket(ConnId(1));
        let sock_in_b = k.install_fd(b, obj);
        k.close_fd(a, sock).unwrap();
        // b's handle still works (the connection lives while referenced).
        let pool = k.process(b).pool().clone();
        let msg = Aggregate::from_bytes(&pool, b"still up");
        assert!(k.iol_write_fd(b, sock_in_b, &msg).is_ok());
        k.close_fd(b, sock_in_b).unwrap();
        // Re-acquiring a descriptor to the dead connection sees EPIPE.
        let zombie = k.install_fd(a, obj);
        assert_eq!(k.iol_write_fd(a, zombie, &msg), Err(IolError::Closed));
    }

    #[test]
    fn writer_gets_epipe_when_last_reader_closes() {
        let mut k = kernel();
        let a = k.spawn("producer");
        let b = k.spawn("consumer");
        let (w, r) = k.pipe_between(a, b, PipeMode::ZeroCopy);
        let r_dup = k.dup_fd(b, r).unwrap();
        let pool = k.process(a).pool().clone();
        let msg = Aggregate::from_bytes(&pool, b"into the void?");
        // A reader remains: writes proceed.
        k.close_fd(b, r).unwrap();
        assert!(k.iol_write_fd(a, w, &msg).is_ok());
        // The last reader hangs up: EPIPE, not an unbounded buffer.
        k.close_fd(b, r_dup).unwrap();
        assert_eq!(k.iol_write_fd(a, w, &msg), Err(IolError::Closed));
    }

    #[test]
    fn install_fd_at_targets_exact_numbers_with_close_semantics() {
        let mut k = kernel();
        let a = k.spawn("parent");
        let b = k.spawn("child");
        let (w, r) = k.pipe_between(a, b, PipeMode::ZeroCopy);
        // Park the child's read end on its stdin number, fork/exec
        // style; the displaced console description closes cleanly.
        let r_pipe = pipe_of(&mut k, b, r);
        assert_eq!(
            k.install_fd_at(b, Fd::STDIN, FdObject::PipeRead(r_pipe))
                .unwrap(),
            Fd::STDIN
        );
        let pool = k.process(a).pool().clone();
        let msg = Aggregate::from_bytes(&pool, b"execve inherited");
        k.iol_write_fd(a, w, &msg).unwrap();
        assert_eq!(
            k.iol_read_fd(b, Fd::STDIN, 100).unwrap().0.to_vec(),
            b"execve inherited"
        );
        // Displacing the last descriptor of a pipe's write end closes
        // the pipe for real.
        let (w2, r2) = k.pipe_between(a, b, PipeMode::ZeroCopy);
        let r2_pipe = pipe_of(&mut k, b, r2);
        k.install_fd_at(a, w2, FdObject::PipeRead(r2_pipe)).unwrap();
        let (eof, _) = k.iol_read_fd(b, r2, 10).unwrap();
        assert!(eof.is_empty(), "write end displaced away => EOF");
    }

    /// Test helper: the PipeId behind a pipe-end descriptor.
    fn pipe_of(k: &mut Kernel, pid: Pid, fd: Fd) -> PipeId {
        match k.fd_object(pid, fd).unwrap() {
            FdObject::PipeRead(id) | FdObject::PipeWrite(id) => id,
            other => panic!("not a pipe end: {other:?}"),
        }
    }

    #[test]
    fn dup2_replumbs_stdout_shell_style() {
        let mut k = kernel();
        let a = k.spawn("producer");
        let b = k.spawn("consumer");
        let (w, r) = k.pipe_between(a, b, PipeMode::ZeroCopy);
        // a's stdout now points at the pipe; b's stdin at its read end.
        k.dup2_fd(a, w, Fd::STDOUT).unwrap();
        k.dup2_fd(b, r, Fd::STDIN).unwrap();
        let pool = k.process(a).pool().clone();
        let msg = Aggregate::from_bytes(&pool, b"a | b");
        k.iol_write_fd(a, Fd::STDOUT, &msg).unwrap();
        let (got, _) = k.iol_read_fd(b, Fd::STDIN, 100).unwrap();
        assert_eq!(got.to_vec(), b"a | b");
    }

    #[test]
    fn nonblocking_socket_bounds_the_send_buffer() {
        let mut k = kernel();
        let pid = k.spawn("server");
        let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, 64 * 1024);
        k.set_nonblocking(pid, sock, true).unwrap();
        let pool = k.process(pid).pool().clone();
        // 100KB into a 64KB send buffer: partial progress is carried.
        let big = Aggregate::from_bytes(&pool, &[3u8; 100 * 1024]);
        let err = k.iol_write_fd(pid, sock, &big).unwrap_err();
        let IolError::ShortIo { done } = err else {
            panic!("expected ShortIo, got {err:?}");
        };
        assert_eq!(done, 64 * 1024);
        assert_eq!(
            k.metrics.bytes_checksummed,
            64 * 1024,
            "the partial send was billed"
        );
        assert_eq!(k.socket_space(pid, sock).unwrap(), 0);
        // Full buffer accepts nothing: EAGAIN, still billed as a trap.
        assert_eq!(k.iol_write_fd(pid, sock, &big), Err(IolError::WouldBlock));
        // The wire ACKs half: exactly that much fits again.
        assert_eq!(k.socket_drain(pid, sock, 32 * 1024).unwrap(), 32 * 1024);
        assert_eq!(k.socket_space(pid, sock).unwrap(), 32 * 1024);
        let rest = big.range(done, 32 * 1024).unwrap();
        let (n, _) = k.iol_write_fd(pid, sock, &rest).unwrap();
        assert_eq!(n, 32 * 1024);
        assert_eq!(k.socket_unacked(pid, sock).unwrap(), 64 * 1024);
        // Blocking sockets are unaffected by the bound.
        let blocking = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, 1024);
        let (n, _) = k.iol_write_fd(pid, blocking, &big).unwrap();
        assert_eq!(n, big.len());
    }

    #[test]
    fn poll_reports_pipe_and_socket_readiness() {
        let mut k = kernel();
        let a = k.spawn("producer");
        let b = k.spawn("consumer");
        let (w, r) = k.pipe_between(a, b, PipeMode::ZeroCopy);
        // Empty pipe: writer writable, reader pending.
        let t = k.now();
        let ev = k.iol_poll(a, &[w]);
        assert!(ev[0].writable && !ev[0].epipe);
        assert!(k.now() > t, "poll is billed");
        let ev = k.iol_poll(b, &[r]);
        assert!(!ev[0].readable && !ev[0].eof);
        // Data buffered: reader readable.
        let pool = k.process(a).pool().clone();
        k.iol_write_fd(a, w, &Aggregate::from_bytes(&pool, b"x"))
            .unwrap();
        let ev = k.iol_poll(b, &[r]);
        assert!(ev[0].readable);
        // Sockets: pending until delivery, readable after.
        let sock = k.socket_create(a, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
        let ev = k.iol_poll(a, &[sock]);
        assert!(!ev[0].readable && ev[0].writable);
        k.socket_deliver(a, sock, Aggregate::from_bytes(&pool, b"req"))
            .unwrap();
        let ev = k.iol_poll(a, &[sock]);
        assert!(ev[0].readable);
        // Unknown fds report POLLNVAL without failing the scan.
        let ev = k.iol_poll(a, &[Fd(999), w]);
        assert!(ev[0].invalid && ev[1].writable);
    }

    #[test]
    fn poll_sees_peer_close_as_readiness() {
        let mut k = kernel();
        let pid = k.spawn("server");
        let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
        let pool = k.process(pid).pool().clone();
        k.socket_deliver(pid, sock, Aggregate::from_bytes(&pool, b"bye"))
            .unwrap();
        k.socket_peer_close(pid, sock).unwrap();
        // Undrained data is still readable; EOF only after the drain.
        let ev = k.iol_poll(pid, &[sock]);
        assert!(ev[0].readable && !ev[0].eof && ev[0].epipe);
        let (got, _) = k.iol_read_fd(pid, sock, 100).unwrap();
        assert_eq!(got.to_vec(), b"bye");
        let ev = k.iol_poll(pid, &[sock]);
        assert!(ev[0].eof && !ev[0].readable);
        let (eof, _) = k.iol_read_fd(pid, sock, 100).unwrap();
        assert!(eof.is_empty(), "peer-closed socket reads EOF after drain");
        // Writes are EPIPE, as the epipe bit promised.
        let msg = Aggregate::from_bytes(&pool, b"late");
        assert_eq!(k.iol_write_fd(pid, sock, &msg), Err(IolError::Closed));
        // Delivery after FIN is refused too.
        assert_eq!(
            k.socket_deliver(pid, sock, Aggregate::from_bytes(&pool, b"?")),
            Err(IolError::Closed)
        );
        // The conventional accounting-only send path refuses a
        // peer-closed socket the same way the descriptor write does.
        let copy_sock = k.socket_create(pid, BufferMode::Copy, DEFAULT_MSS, DEFAULT_TSS);
        k.socket_peer_close(pid, copy_sock).unwrap();
        assert_eq!(
            k.socket_send_accounted(pid, copy_sock, 100),
            Err(IolError::Closed)
        );
        // And a dead peer never ACKs: drains fail rather than
        // pretending the buffer emptied.
        assert_eq!(k.socket_drain(pid, sock, 10), Err(IolError::Closed));
    }

    #[test]
    fn clock_and_charging() {
        let mut k = kernel();
        assert_eq!(k.now(), SimTime::ZERO);
        k.charge(CostCategory::Copy, Charge::us(100.0));
        k.advance(SimTime::from_us(50.0));
        assert_eq!(k.now(), SimTime::from_us(150.0));
        assert_eq!(
            k.metrics.time_in(CostCategory::Copy),
            SimTime::from_us(100.0)
        );
        k.reset_clock();
        assert_eq!(k.now(), SimTime::ZERO);
    }
}
