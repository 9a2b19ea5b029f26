//! Commands: every kernel mutation as a value, plus the journal that
//! records them for deterministic replay.

use iolite_buf::{Acl, Aggregate};
use iolite_fs::{CacheKey, FileId};
use iolite_ipc::PipeMode;
use iolite_net::BufferMode;
use iolite_sim::SimTime;
use iolite_vm::MemAccount;

use crate::cost::{Charge, CostCategory};
use crate::fd::{Fd, FdObject, Whence};
use crate::poll::PollFd;
use crate::process::Pid;

/// One validated kernel mutation. Applying a command to a
/// [`super::KernelState`] (the shell's `run`, or [`super::step`] on
/// replay) is the *only* way state changes; the variants mirror the
/// shell's public surface one-to-one.
///
/// Commands own their inputs (paths as `String`s, payloads as
/// [`Aggregate`]s — cheap reference-counted clones), so a recorded
/// [`Journal`] is self-contained and can be replayed against a fresh
/// initial state.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // Field meanings mirror the identically-named shell methods.
pub enum Command {
    // -- processes, pools, clock --
    Spawn { name: String },
    CreatePool { acl: Acl },
    Advance { t: SimTime },
    ResetClock,
    Charge { category: CostCategory, charge: Charge, copied: u64 },
    ContextSwitch { n: u64 },

    // -- file system and cache --
    CreateFile { name: String, data: Vec<u8> },
    CreateSyntheticFile { name: String, len: u64, seed: u64 },
    RebalanceCache,
    CachePin { key: CacheKey },
    CacheUnpin { key: CacheKey },
    CacheInstall { file: FileId, data: Vec<u8> },
    CacheInvalidate { key: CacheKey },
    PutInstall { pid: Pid, file: FileId, agg: Aggregate },
    WriteBack { max_bytes: u64 },
    // Braced: readers match it as `NvmDemote { .. }` beside `WriteBack`.
    NvmDemote {},
    SetWriteback { cfg: iolite_fs::WritebackConfig },
    MemReserve { account: MemAccount, bytes: u64 },
    MemRelease { account: MemAccount, bytes: u64 },

    // -- sockets --
    SocketCreate { pid: Pid, mode: BufferMode, mss: usize, tss: usize },
    SocketDeliver { pid: Pid, fd: Fd, payload: Aggregate },
    SocketSendAccounted { pid: Pid, fd: Fd, len: u64 },
    SetNonblocking { pid: Pid, fd: Fd, nonblocking: bool },
    SocketDrain { pid: Pid, fd: Fd, max: u64 },
    SocketPeerClose { pid: Pid, fd: Fd },
    SetChecksumCache { enabled: bool },

    // -- descriptors --
    Open { pid: Pid, path: String },
    OpenFile { pid: Pid, file: FileId },
    PipeFds { pid: Pid, mode: PipeMode },
    PipeBetween { writer: Pid, reader: Pid, mode: PipeMode, acl: Option<Acl> },
    InstallFd { pid: Pid, object: FdObject },
    InstallFdAt { pid: Pid, at: Fd, object: FdObject },
    DupFd { pid: Pid, fd: Fd },
    Dup2Fd { pid: Pid, src: Fd, dst: Fd },
    CloseFd { pid: Pid, fd: Fd },
    Lseek { pid: Pid, fd: Fd, offset: i64, whence: Whence },
    Poll { pid: Pid, fds: Vec<PollFd> },

    // -- descriptor I/O --
    IolReadFd { pid: Pid, fd: Fd, len: u64 },
    IolWriteFd { pid: Pid, fd: Fd, agg: Aggregate },
    IolPread { pid: Pid, fd: Fd, offset: u64, len: u64 },
    IolPwrite { pid: Pid, fd: Fd, offset: u64, agg: Aggregate },
    PosixReadFd { pid: Pid, fd: Fd, len: u64 },
    PosixWriteFd { pid: Pid, fd: Fd, data: Vec<u8> },
    MappedRead { pid: Pid, fd: Fd, cached: bool },

    // -- stdio console --
    FeedStdin { pid: Pid, data: Aggregate },
    ReadStdout { pid: Pid, max: u64 },
    ReadStderr { pid: Pid, max: u64 },
}

/// A recorded command stream: the deterministic-replay artifact.
///
/// The shell appends every executed command (including ones that
/// returned an error — a rejected `open` still warmed the metadata
/// cache, so replay must repeat it). [`super::replay`] folds
/// [`super::step`] over the stream to reconstruct the final state and
/// metrics.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    commands: Vec<Command>,
}

impl Journal {
    /// Creates an empty journal.
    pub(crate) fn new() -> Self {
        Journal::default()
    }

    /// Appends a command.
    pub(crate) fn push(&mut self, cmd: Command) {
        self.commands.push(cmd);
    }

    /// The recorded commands, in execution order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Number of recorded commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }
}
