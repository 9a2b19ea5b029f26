#![warn(missing_docs)]
//! The IO-Lite kernel facade: processes, the IOL API, the POSIX
//! baseline, the cost model, and system-wide metrics (paper §3.4, §4).
//!
//! [`Kernel`] composes every substrate — the buffer system
//! (`iolite-buf`), the VM window and memory accountant (`iolite-vm`),
//! the file system and unified cache (`iolite-fs`), the network
//! subsystem (`iolite-net`), and IPC (`iolite-ipc`) — behind the
//! system-call surface the paper defines. The surface is
//! **descriptor-based**: `IOL_read`/`IOL_write` "can act on any UNIX
//! file descriptor" (§3.4), so regular files, both pipe ends, TCP
//! sockets, and the stdio triple installed at [`Kernel::spawn`] all sit
//! behind one [`Fd`] table, and every operation returns a fallible
//! [`IoResult`]:
//!
//! * [`Kernel::iol_read_fd`] / [`Kernel::iol_write_fd`] — the §3.4 core
//!   API with snapshot semantics, shared `dup` offsets, pipe flow
//!   control, and the zero-copy TCP send path, by descriptor kind.
//! * [`Kernel::iol_pread`] / [`Kernel::iol_pwrite`] — positional file
//!   variants (`pread`/`pwrite`).
//! * [`Kernel::posix_read_fd`] / [`Kernel::posix_write_fd`] — the
//!   backward-compatible copying interface ("a data copy operation is
//!   used to move data between application buffers and IO-Lite
//!   buffers", §4.2).
//! * [`Kernel::mmap_fd`] — the contiguous-mapping escape hatch of §3.8.
//! * [`Kernel::open`], [`Kernel::lseek`] (with [`Whence`]),
//!   [`Kernel::dup_fd`]/[`Kernel::dup2_fd`], [`Kernel::close_fd`] — the
//!   "unchanged" descriptor plumbing, with POSIX lowest-free numbering.
//!
//! Every operation does its real data-plane work *and* returns a
//! [`Charge`] — the simulated CPU time it would have cost on the paper's
//! 333MHz Pentium II testbed, per the calibrated [`CostModel`]. Drivers
//! submit charges to a simulated CPU; sequential programs accumulate
//! them on the kernel clock.

pub mod api;
pub mod cost;
pub mod error;
pub mod fd;
mod idtable;
pub mod kernel;
pub mod metrics;
pub mod poll;
pub mod process;
pub mod pure;
pub mod shard;
pub mod stdio;

pub use api::IolAgg;
pub use cost::{Charge, CostCategory, CostModel};
pub use error::{short_ok, IoResult, IolError};
pub use fd::{Fd, FdObject, FdTable, Whence, FD_LIMIT};
pub use kernel::{ConnId, IoOutcome, Kernel, MappedFileCache, PipeEnd, PipeId};
pub use metrics::Metrics;
pub use poll::{Interest, PollFd, Readiness};
pub use process::{Pid, Process};
pub use pure::{replay, step, Command, Effect, IdAlloc, Journal, KernelState};
pub use shard::{shard_of_conn, ShardFabric, ShardMailbox, ShardMsg, FABRIC_SLACK};
pub use stdio::{StdioIn, StdioMode, StdioOut};
