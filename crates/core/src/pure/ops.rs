//! The operation table: one row per journaled kernel operation
//! generates its [`Command`] variant (carrying the row's doc), its
//! [`step`] arm, and the shell's `Kernel` method, a single call to the
//! door `run(op, make)`:
//!
//! ```text
//! pub fn open(pid: Pid, path: &str as String) -> IoResult<Fd> = Open => op_open(*pid, path; fx)?;
//! ```
//!
//! `as` names a field's owned type where it differs from the
//! parameter's, `; fx` passes the effect buffer, and a trailing `?`
//! makes `step` return the operation's error. The call is written over
//! references to the parameters, as `step`'s match binds them; `make()`
//! is `Command::Open { pid: pid.to_owned(), path: path.to_owned() }`. A
//! `manual fn` row generates no method: its hand-written one is in
//! `kernel.rs`. rustfmt leaves the table as written (a macro invocation
//! with braces).

use iolite_buf::{Acl, Aggregate, BufferPool};
use iolite_fs::{CacheKey, FileId};
use iolite_ipc::PipeMode;
use iolite_net::{BufferMode, SendOutcome};
use iolite_sim::SimTime;
use iolite_vm::MemAccount;

use super::effect::Effect;
use super::state::KernelState;
use crate::cost::{Charge, CostCategory};
use crate::error::{IoResult, IolError};
use crate::fd::{Fd, FdObject, Whence};
use crate::kernel::Kernel;
use crate::poll::Readiness;
use crate::process::Pid;
#[cfg(doc)] // Named only by the rows' doc links.
use crate::{cost::CostModel, metrics::Metrics};

/// Generates [`Command`], [`step`] and the shell's methods from the
/// table below (module docs). `$never` never matches: it is the variable
/// the transcriber repeats a row's optional `?` by.
macro_rules! kernel_ops {
    (
        $(
            $(#[$doc:meta])*
            $kind:ident fn $name:ident($($p:ident: $t:ty $(as $owned:ty)?),*) $(-> $ret:ty)?
                = $V:ident => $op:ident($($arg:expr),* $(; $fx:ident)?) $(? $($never:literal)?)?;
        )*
    ) => {
        kernel_ops!(@enum [] $([$(#[$doc])*] $V [$($p: $t $(as $owned)?),*])*);

        /// Applies one command to `state` in place, appending the
        /// resulting effects to `fx`. This is [`super::replay`]'s engine,
        /// and the same `op_*` transitions the imperative shell runs:
        /// deterministic, no I/O, no wall clock, no randomness.
        ///
        /// Typed return values (descriptors, aggregates, send outcomes)
        /// are the shell's business — its method returns what the same
        /// `op_*` call returns; `step` reports only whether the command
        /// was rejected. The match is exhaustive by construction: its
        /// arms and [`Command`]'s variants come from the same table rows.
        ///
        /// # Errors
        ///
        /// Whatever the underlying operation rejects with. Note that a
        /// rejected command may still have mutated state before the
        /// rejection (a failed `open` warms the metadata cache; an
        /// ACL-denied pipe read has already trapped) — replay therefore
        /// re-steps *every* journaled command, errors included.
        #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
        pub fn step(
            state: &mut KernelState,
            cmd: &Command,
            fx: &mut Vec<Effect>,
        ) -> Result<(), IolError> {
            match cmd {
                $(Command::$V { $($p),* } => {
                    $(let $fx = &mut *fx;)?
                    state.$op($($arg,)* $($fx)?)$(? $($never)?)?;
                })*
            }
            Ok(())
        }

        impl Kernel {
            $(kernel_ops!(@method $kind [$(#[$doc])*] $name($($p: $t $(as $owned)?),*) [$($ret)?]
                = $V => $op($($arg),* $(; $fx)?));)*
        }
    };

    // A unit variant for a row without parameters (`perf/` and
    // `prop_apply` write `Command::ResetClock`), a braced one otherwise.
    (@enum [$($variants:tt)*]) => {
        /// One kernel mutation. Applying a command to a
        /// [`super::KernelState`] (the shell's `run`, or [`step`] on
        /// replay) is the *only* way state changes; each variant is one
        /// row of the operation table, documented as its shell method.
        ///
        /// Commands own their inputs (paths as `String`s, payloads as
        /// [`Aggregate`]s — cheap reference-counted clones), so a recorded
        /// [`super::Journal`] is self-contained and can be replayed
        /// against a fresh initial state.
        #[derive(Debug, Clone)]
        #[allow(missing_docs)] // Fields are the method's parameters, owned.
        pub enum Command {
            $($variants)*
        }
    };
    (@enum [$($variants:tt)*] [$(#[$doc:meta])*] $V:ident [] $($rest:tt)*) => {
        kernel_ops!(@enum [$($variants)* $(#[$doc])* $V,] $($rest)*);
    };
    (@enum [$($variants:tt)*] [$(#[$doc:meta])*] $V:ident
        [$($p:ident: $t:ty $(as $owned:ty)?),+] $($rest:tt)*) => {
        kernel_ops!(@enum [$($variants)* $(#[$doc])* $V {
            $($p: kernel_ops!(@owned $t $(as $owned)?)),+
        },] $($rest)*);
    };
    (@owned $t:ty as $owned:ty) => { $owned };
    (@owned $t:ty) => { $t };

    (@method manual $($row:tt)*) => {};
    (@method pub [$(#[$doc:meta])*] $name:ident($($p:ident: $t:ty $(as $owned:ty)?),*)
        [$($ret:ty)?] = $V:ident => $op:ident($($arg:expr),* $(; $fx:ident)?)) => {
        $(#[$doc])*
        pub fn $name(&mut self, $($p: $t),*) $(-> $ret)? {
            $(kernel_ops!(@borrow $p $(as $owned)?);)*
            self.run(
                |state, _fx| { $(let $fx = _fx;)? state.$op($($arg,)* $($fx)?) },
                || Command::$V { $($p: $p.to_owned()),* },
            )
        }
    };
    // `as` marks a reference parameter: the call already takes it as is.
    (@borrow $p:ident as $owned:ty) => {};
    (@borrow $p:ident) => { let $p = &$p; };
}

kernel_ops! {
    // -- processes, pools, clock --

    /// Spawns a process with a private default pool and the conventional
    /// stdio triple installed at fds 0/1/2 ([`Fd::STDIN`],
    /// [`Fd::STDOUT`], [`Fd::STDERR`]), each backed by a console pipe
    /// the harness can drive via [`Kernel::feed_stdin`] /
    /// [`Kernel::read_stdout`] / [`Kernel::read_stderr`] — or re-plumb
    /// with [`Kernel::dup2_fd`], shell-style.
    manual fn spawn(name: String) = Spawn => op_spawn(name.clone());

    /// Creates an additional allocation pool (the `IOL_create_pool`
    /// call of §3.4) with an explicit ACL.
    pub fn create_pool(acl: Acl) -> BufferPool = CreatePool => op_create_pool(acl.clone());

    /// Places the cache pool, every process pool, and every pool minted
    /// later (all but copy-pipe scratch pools, whose buffers never leave
    /// the kernel) in shard `shard`'s chunk-id namespace, making buffer
    /// identity unique across a fleet so buffers can cross the shard
    /// fabric by reference. A fleet issues it as it attaches each
    /// shard; for shard 0 it changes nothing.
    pub fn id_namespace(shard: usize) = IdNamespace => op_id_namespace(*shard);

    /// Advances the sequential clock by non-CPU time (e.g. disk waits).
    pub fn advance(t: SimTime) = Advance => op_advance(*t);

    /// Resets the sequential clock (metrics are kept).
    pub fn reset_clock() = ResetClock => op_reset_clock();

    /// [`Kernel::charge`] for a copy the application made in its own
    /// memory: `copied` bytes also count in [`Metrics::bytes_copied`].
    pub fn charge_copied(category: CostCategory, charge: Charge, copied: u64) = Charge
        => op_charge(*category, *charge, *copied; fx);

    /// Switches processes `n` times (scheduling hand-offs between
    /// producer and consumer), billing each switch — the one place
    /// context switches are charged.
    pub fn context_switch(n: u64) = ContextSwitch => op_context_switch(*n; fx);

    // -- file system and cache --

    /// Creates a file with explicit contents.
    pub fn create_file(name: &str as String, data: &[u8] as Vec<u8>) -> FileId = CreateFile
        => op_create_file(name, data);

    /// Creates a synthetic (pattern-generated) file.
    pub fn create_synthetic_file(name: &str as String, len: u64, seed: u64) -> FileId
        = CreateSyntheticFile => op_create_synthetic_file(name, *len, *seed);

    /// Re-syncs the file-cache budget with the memory accountant and
    /// returns entries evicted by the shrink.
    ///
    /// The cache holds what [`iolite_vm::PhysMemory::cache_budget`]
    /// leaves it; §3.7's pageout trigger is assumed, not simulated.
    pub fn rebalance_cache() -> usize = RebalanceCache => op_rebalance_cache();

    /// Pins a cache key against eviction (e.g. while the network
    /// transmits the entry).
    pub fn cache_pin(key: CacheKey) = CachePin => op_cache_pin(*key);

    /// Releases one pin on a cache key.
    pub fn cache_unpin(key: CacheKey) = CacheUnpin => op_cache_unpin(*key);

    /// Installs a copy of `data` as `file`'s whole-file cache entry.
    /// Nothing in the workspace calls it since a fleet keeps one owner
    /// per file; the row stays because `perf/src/layers.rs` names its
    /// `Command` variant.
    pub fn cache_install(file: FileId, data: &[u8] as Vec<u8>) = CacheInstall
        => op_cache_install(*file, data; fx);

    /// Drops a cache entry outright. Returns whether an entry was
    /// dropped. Nothing in the workspace calls it since a fleet keeps
    /// one owner per file; the row stays because `perf/src/layers.rs`
    /// names its `Command` variant.
    pub fn cache_invalidate(key: CacheKey) -> bool = CacheInvalidate => op_cache_invalidate(*key);

    /// Installs a PUT body as `file`'s whole-file cache entry, dirty,
    /// by reference (zero-copy ingest; §3.5 snapshot semantics).
    /// Persistence is deferred to [`Kernel::write_back`]; checksums
    /// cached over the replaced version are invalidated.
    pub fn put_install(pid: Pid, file: FileId, agg: &Aggregate as Aggregate) = PutInstall
        => op_put_install(*pid, *file, agg; fx);

    /// Flushes one write-back batch (up to `max_bytes`; 0 ⇒ the
    /// configured flush-batch size) through the NVM staging tier, disk
    /// overflow included. Returns bytes flushed.
    pub fn write_back(max_bytes: u64) -> u64 = WriteBack => op_write_back(*max_bytes; fx);

    /// Demotes one configured drain chunk from the NVM staging tier to
    /// disk. Returns bytes moved.
    pub fn nvm_demote() -> u64 = NvmDemote => op_nvm_demote(; fx);

    /// Replaces the write-back tuning (journaled: replay sees the same
    /// flush scheduling).
    pub fn set_writeback(cfg: iolite_fs::WritebackConfig) = SetWriteback => op_set_writeback(*cfg);

    /// Reserves memory on an account in the physical-memory accountant.
    pub fn mem_reserve(account: MemAccount, bytes: u64) = MemReserve
        => op_mem_reserve(*account, *bytes);

    /// Releases memory from an account.
    pub fn mem_release(account: MemAccount, bytes: u64) = MemRelease
        => op_mem_release(*account, *bytes);

    // -- sockets --

    /// Creates a TCP connection in the kernel's socket registry and
    /// installs a descriptor for it in `pid`'s table. The §3.4 promise
    /// made real: the same `IOL_read`/`IOL_write` calls that act on
    /// files and pipes drive the socket's zero-copy (or copying) send
    /// path.
    pub fn socket_create(pid: Pid, mode: BufferMode, mss: usize, tss: usize) -> Fd
        = SocketCreate => op_socket_create(*pid, *mode, *mss, *tss);

    /// Delivers inbound payload — already in the receiving process's
    /// pool, as §3.6's early demultiplexing leaves it, and in stream
    /// order — to a socket. The data becomes readable through
    /// [`Kernel::iol_read_fd`].
    manual fn socket_deliver(pid: Pid, fd: Fd, payload: Aggregate) = SocketDeliver
        => op_socket_deliver(*pid, *fd, payload.clone())?;

    /// Accounting-only send on a *copy-mode* socket descriptor: the
    /// conventional `write(2)` path, whose costs depend only on the
    /// byte count (copies have no identity, so no cache can apply).
    /// Bills the trap, the socket copy, the checksum and the packets,
    /// and returns the [`SendOutcome`].
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual
    /// (`BadFdKind` too for a zero-copy socket, whose sends go through
    /// [`Kernel::iol_write_fd`]); [`IolError::Closed`] once the peer
    /// hung up.
    pub fn socket_send_accounted(pid: Pid, fd: Fd, len: u64) -> IoResult<SendOutcome>
        = SocketSendAccounted => op_socket_send_accounted(*pid, *fd, *len; fx)?;

    /// Sets a socket descriptor's `O_NONBLOCK` flag. Nonblocking
    /// sockets bound their send buffer at Tss: writes accept only what
    /// fits ([`IolError::ShortIo`] carries partial progress,
    /// [`IolError::WouldBlock`] a full buffer) and the descriptor
    /// becomes writable again as [`Kernel::socket_drain`] simulates the
    /// wire acknowledging data.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual.
    pub fn set_nonblocking(pid: Pid, fd: Fd, nonblocking: bool) -> Result<(), IolError>
        = SetNonblocking => op_set_nonblocking(*pid, *fd, *nonblocking)?;

    /// Acknowledges up to `max` bytes of a nonblocking socket's send
    /// buffer (the wire drained them), returning the bytes freed. The
    /// event driver calls this as simulated transmission completes;

    /// no CPU is charged — per-packet and checksum work was already
    /// billed at send time.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual, and
    /// [`IolError::Closed`] once the peer hung up — a dead peer
    /// acknowledges nothing, so unacknowledged bytes can never drain
    /// and the in-flight response must be failed, not completed.
    pub fn socket_drain(pid: Pid, fd: Fd, max: u64) -> Result<u64, IolError> = SocketDrain
        => op_socket_drain(*pid, *fd, *max)?;

    /// Marks a socket's remote side as hung up (FIN/RST arrived): reads
    /// drain the delivered data then return EOF, writes fail with
    /// [`IolError::Closed`], and `iol_poll` reports `eof`/`epipe` — the
    /// readiness transition an event loop must observe when a client
    /// disconnects mid-response.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual.
    pub fn socket_peer_close(pid: Pid, fd: Fd) -> Result<(), IolError> = SocketPeerClose
        => op_socket_peer_close(*pid, *fd)?;

    /// Enables or disables the §3.9 checksum cache.
    pub fn set_checksum_cache(enabled: bool) = SetChecksumCache => op_set_checksum_cache(*enabled);

    // -- descriptors --

    /// Opens a file by path, returning a descriptor with offset 0, and
    /// bills the metadata lookup plus the syscall (a path that does not
    /// resolve bills nothing).
    ///
    /// # Errors
    ///
    /// [`IolError::NotFound`] when the path does not resolve.
    pub fn open(pid: Pid, path: &str as String) -> IoResult<Fd> = Open => op_open(*pid, path; fx)?;

    /// Installs a descriptor (offset 0) for an already-resolved file —
    /// the bridge for layers that hold [`FileId`]s (workload setup,
    /// benches) into the descriptor world.
    pub fn open_file(pid: Pid, file: FileId) -> Fd = OpenFile => op_open_file(*pid, *file);

    /// Creates a pipe and returns `(read_fd, write_fd)` in `pid`'s table
    /// (both ends in one process, as after `pipe(2)` before `fork`;

    /// hand the ends to other processes with [`Kernel::install_fd`] or
    /// wire two processes directly with [`Kernel::pipe_between`]).
    pub fn pipe_fds(pid: Pid, mode: PipeMode) -> (Fd, Fd) = PipeFds => op_pipe_fds(*pid, *mode);

    /// Creates a pipe with its write end in `writer`'s table and its
    /// read end in `reader`'s (the post-`fork` shape of `a | b`).
    /// Returns `(write_fd, read_fd)`. With an `acl`
    /// ([`Kernel::pipe_between_with_acl`]), zero-copy transfers are
    /// governed by it (pipes between mutually untrusting domains,
    /// §3.10).
    manual fn pipe_between(writer: Pid, reader: Pid, mode: PipeMode, acl: Option<Acl>)
        = PipeBetween => op_pipe_between(*writer, *reader, *mode, acl.clone());

    /// Installs an existing object in `pid`'s descriptor table (the
    /// moral equivalent of inheriting an fd across `fork`/`exec`).
    pub fn install_fd(pid: Pid, object: FdObject) -> Fd = InstallFd => op_install_fd(*pid, *object);

    /// Installs an existing object at exactly `at` (`dup2`-style
    /// targeting for inherited objects — e.g. parking a pipe end on a
    /// child's stdio number), displacing and (last-reference) closing
    /// whatever was there.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] when `at` is [`crate::FD_LIMIT`] or more.
    pub fn install_fd_at(pid: Pid, at: Fd, object: FdObject) -> Result<Fd, IolError>
        = InstallFdAt => op_install_fd_at(*pid, *at, *object)?;

    /// Duplicates a descriptor (`dup(2)`) onto the lowest free number:
    /// both numbers share one file offset.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] if `fd` is not open.
    pub fn dup_fd(pid: Pid, fd: Fd) -> Result<Fd, IolError> = DupFd => op_dup_fd(*pid, *fd)?;

    /// Duplicates `src` onto exactly `dst` (`dup2(2)`), displacing and
    /// (last-reference) closing whatever was there. Re-plumbing the
    /// stdio triple goes through here, shell-style.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] if `src` is not open or `dst` is
    /// [`crate::FD_LIMIT`] or more.
    pub fn dup2_fd(pid: Pid, src: Fd, dst: Fd) -> Result<Fd, IolError> = Dup2Fd
        => op_dup2_fd(*pid, *src, *dst)?;

    /// Closes a descriptor (`close(2)`). When the last descriptor for a
    /// pipe write end disappears (across *all* processes), the pipe is
    /// closed for real and readers see EOF; a socket's last close tears
    /// the connection down.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] if `fd` is not open (double close).
    pub fn close_fd(pid: Pid, fd: Fd) -> Result<(), IolError> = CloseFd => op_close_fd(*pid, *fd)?;

    /// Repositions a file descriptor (`lseek(2)`), resolving
    /// [`Whence::End`] against the file's metadata. Returns the new
    /// absolute offset.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] for unknown descriptors,
    /// [`IolError::BadFdKind`] for pipes/sockets (ESPIPE), and
    /// [`IolError::InvalidSeek`] when the resolved position is negative
    /// or beyond `i64::MAX` (`off_t`); the offset is then left alone.
    pub fn lseek(pid: Pid, fd: Fd, offset: i64, whence: Whence) -> IoResult<u64> = Lseek
        => op_lseek(*pid, *fd, *offset, *whence; fx)?;

    /// Reports readiness for a set of descriptors, `poll(2)`-style: one
    /// [`Readiness`] per entry, in order. Pipe ends (stdio included),
    /// kernel-registry sockets, and regular files are all supported;
    /// an entry that fails to resolve reports `invalid` (`POLLNVAL`)
    /// without failing the scan.
    ///
    /// The call is billed as one trap plus a per-entry scan cost
    /// ([`CostModel::poll_fd_us`]) — the select/poll overhead that made
    /// event-driven servers sensitive to poll-set size long before the
    /// payload moved. It cannot fail.
    pub fn iol_poll(pid: Pid, fds: &[Fd] as Vec<Fd>) -> Vec<Readiness> = Poll
        => op_iol_poll(*pid, fds; fx);

    // -- descriptor I/O --

    /// `IOL_read` on a descriptor: files read at (and advance) the
    /// shared offset; pipe read-ends drain the pipe; sockets drain the
    /// inbound queue. Short (even empty) reads at end-of-stream are
    /// part of the contract.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] for unknown descriptors;

    /// [`IolError::BadFdKind`] for write-only objects;

    /// [`IolError::WouldBlock`] when a pipe/socket is empty but its
    /// writer is still open; [`IolError::PermissionDenied`] when an
    /// ACL'd pipe refuses the reader's domain.
    pub fn iol_read_fd(pid: Pid, fd: Fd, len: u64) -> IoResult<Aggregate> = IolReadFd
        => op_iol_read_fd(*pid, *fd, *len; fx)?;

    /// `IOL_write` on a descriptor: files replace at (and advance) the
    /// shared offset; pipe write-ends enqueue; sockets run the TCP send
    /// path (zero-copy with checksum caching, or copying — the
    /// descriptor doesn't care, §3.4). Returns bytes accepted; socket
    /// writes carry their [`SendOutcome`] in `outcome.net`.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual;

    /// [`IolError::Closed`] when writing a closed pipe or socket;

    /// [`IolError::WouldBlock`] when a full pipe accepts nothing;

    /// [`IolError::ShortIo`] (carrying the partial count) when a pipe
    /// fills mid-write; [`IolError::InvalidSeek`] when a file write
    /// would end past `i64::MAX` (`off_t`).
    pub fn iol_write_fd(pid: Pid, fd: Fd, agg: &Aggregate as Aggregate) -> IoResult<u64>
        = IolWriteFd => op_iol_write_fd(*pid, *fd, agg; fx)?;

    /// Positional `IOL_read` (`pread(2)`): reads a file descriptor at
    /// an explicit offset without moving the shared offset.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] (pipes and
    /// sockets have no positions).
    pub fn iol_pread(pid: Pid, fd: Fd, offset: u64, len: u64) -> IoResult<Aggregate>
        = IolPread => op_iol_pread(*pid, *fd, *offset, *len; fx)?;

    /// Positional `IOL_write` (`pwrite(2)`).
    ///
    /// # Errors
    ///
    /// As [`Kernel::iol_pread`], and [`IolError::InvalidSeek`] when the
    /// write would start or end past `i64::MAX` (`off_t`).
    pub fn iol_pwrite(pid: Pid, fd: Fd, offset: u64, agg: &Aggregate as Aggregate)
        -> IoResult<u64> = IolPwrite => op_iol_pwrite(*pid, *fd, *offset, agg; fx)?;

    /// Backward-compatible copying read on a file descriptor, advancing
    /// the shared offset (§4.2's copy-in/copy-out POSIX veneer).
    ///
    /// # Errors
    ///
    /// As [`Kernel::iol_pread`] — pipes carry copy semantics through
    /// their mode instead.
    pub fn posix_read_fd(pid: Pid, fd: Fd, len: u64) -> IoResult<Vec<u8>> = PosixReadFd
        => op_posix_read_fd(*pid, *fd, *len; fx)?;

    /// Backward-compatible copying write on a file descriptor,
    /// advancing the shared offset.
    ///
    /// # Errors
    ///
    /// As [`Kernel::posix_read_fd`], and [`IolError::InvalidSeek`] when
    /// the write would end past `i64::MAX` (`off_t`).
    pub fn posix_write_fd(pid: Pid, fd: Fd, data: &[u8] as Vec<u8>) -> IoResult<u64>
        = PosixWriteFd => op_posix_write_fd(*pid, *fd, data; fx)?;

    /// Reads the whole document behind `fd` through a mapping, as Flash
    /// and Apache serve it: no trap (a mapped access is a memory
    /// reference), first-time page mappings billed. With `cached`
    /// (Flash) a touch of the bounded mapped-file cache decides whether
    /// an `mmap`/`munmap` cycle is paid; without it (Apache maps and
    /// unmaps per request) every read pays one.
    ///
    /// # Errors
    ///
    /// As [`Kernel::iol_pread`].
    pub fn mapped_read(pid: Pid, fd: Fd, cached: bool) -> IoResult<Aggregate> = MappedRead
        => op_mapped_read(*pid, *fd, *cached; fx)?;

    // -- the stdio console (harness side of fds 0/1/2) --

    /// Writes `data` into `pid`'s stdin console pipe (the harness
    /// playing the terminal); the process reads it at [`Fd::STDIN`].
    ///
    /// # Errors
    ///
    /// [`IolError::WouldBlock`]/[`IolError::ShortIo`] as for any pipe
    /// write when the console buffer fills.
    pub fn feed_stdin(pid: Pid, data: &Aggregate as Aggregate) -> IoResult<u64> = FeedStdin
        => op_feed_stdin(*pid, data; fx)?;

    /// Drains up to `max` bytes the process wrote to [`Fd::STDOUT`].
    ///
    /// # Errors
    ///
    /// [`IolError::WouldBlock`] when nothing is buffered and the
    /// process still holds its write end.
    pub fn read_stdout(pid: Pid, max: u64) -> IoResult<Aggregate> = ReadStdout
        => op_read_stdout(*pid, *max; fx)?;

    /// Drains up to `max` bytes the process wrote to [`Fd::STDERR`].
    ///
    /// # Errors
    ///
    /// As [`Kernel::read_stdout`].
    pub fn read_stderr(pid: Pid, max: u64) -> IoResult<Aggregate> = ReadStderr
        => op_read_stderr(*pid, *max; fx)?;
}
