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
//! * [`Kernel::open`], [`Kernel::lseek`] (with [`Whence`]),
//!   [`Kernel::dup_fd`]/[`Kernel::dup2_fd`], [`Kernel::close_fd`] — the
//!   "unchanged" descriptor plumbing, with POSIX lowest-free numbering.
//!
//! # The paper's API, call by call
//!
//! Figure 2 and §3.4, mapped to this crate — there is no wrapper layer;
//! the paper's calls *are* [`Kernel`] methods on descriptors:
//!
//! | paper (Fig. 2 / §3.4) | here |
//! |---|---|
//! | `IOL_Agg` | [`iolite_buf::Aggregate`] |
//! | `IOL_read(fd, size)` | [`Kernel::iol_read_fd`] → [`IoResult`]`<Aggregate>`; "may always return less data than requested" |
//! | `IOL_write(fd, agg)` | [`Kernel::iol_write_fd`] → [`IoResult`]`<u64>`; "replaces the data in an external data object" |
//! | create/delete allocation pools | [`Kernel::create_pool`]; dropping the handle deletes the pool once its buffers drain |
//! | aggregate create/dup/concat/trunc | methods on [`iolite_buf::Aggregate`] |
//! | `mmap` | [`Kernel::mapped_read`] (a whole-document mapped read, as Flash and Apache serve) |
//! | "all other file-descriptor-related UNIX system calls" | [`Kernel::open`], [`Kernel::lseek`], [`Kernel::dup_fd`]/[`Kernel::dup2_fd`], [`Kernel::close_fd`], `pipe(2)` via [`Kernel::pipe_fds`]/[`Kernel::pipe_between`], sockets via [`Kernel::socket_create`] |
//!
//! §3.7's pageout trigger and §3.8 case 3's lazy, copy-on-write `mmap`
//! view are **assumed, not simulated** (see [`Kernel::rebalance_cache`]).
//!
//! Misuse (`NotOpen`, `BadFdKind`, ACL denial, EOF vs `WouldBlock`,
//! short writes) is an [`IolError`] value, never a panic. The table,
//! run end to end:
//!
//! ```
//! use iolite_buf::{Acl, Aggregate};
//! use iolite_core::{CostModel, Kernel, Whence};
//!
//! let mut k = Kernel::new(CostModel::pentium_ii_333());
//! let pid = k.spawn("app");
//! k.create_file("/f", b"0123456789");
//! let (fd, _) = k.open(pid, "/f").unwrap();
//!
//! // IOL_read may return less than asked: two bytes are left at EOF.
//! k.lseek(pid, fd, 8, Whence::Set).unwrap();
//! let (tail, _) = k.iol_read_fd(pid, fd, 100).unwrap();
//! assert_eq!(tail.to_vec(), b"89");
//!
//! // IOL_write replaces the object's data; an earlier IOL_read is a
//! // snapshot and keeps its bytes.
//! k.lseek(pid, fd, 0, Whence::Set).unwrap();
//! let (snapshot, _) = k.iol_read_fd(pid, fd, 100).unwrap();
//! let patch = Aggregate::from_bytes(k.process(pid).pool(), b"ABC");
//! k.lseek(pid, fd, 0, Whence::Set).unwrap();
//! k.iol_write_fd(pid, fd, &patch).unwrap();
//! assert_eq!(snapshot.to_vec(), b"0123456789");
//!
//! // An allocation pool carries the ACL of everything allocated from it.
//! let peer = k.spawn("peer");
//! let shared = k.create_pool(Acl::with_domains(&[pid.domain(), peer.domain()]));
//! assert!(shared.acl().allows(peer.domain()));
//!
//! // mmap: a mapped read of the whole file sees the replaced bytes.
//! let (mapped, _) = k.mapped_read(pid, fd, false).unwrap();
//! assert_eq!(mapped.to_vec(), b"ABC3456789");
//! ```
//!
//! # Cost accounting
//!
//! Every operation does its real data-plane work *and* bills the
//! simulated CPU time it would have cost on the paper's 333MHz Pentium
//! II testbed, per the calibrated [`CostModel`], where it incurs it: the
//! kernel clock advances and the [`Charge`] lands in [`Metrics`] under
//! its [`CostCategory`] — one ledger. Work the kernel does not do
//! (request parsing, application compute) enters through
//! [`Kernel::charge`]. Sequential programs read their runtime off the
//! clock; drivers read what a request cost as the ledger's change
//! across it ([`Metrics::cpu`]).

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

pub use cost::{Charge, CostCategory, CostModel};
pub use error::{short_ok, IoResult, IolError};
pub use fd::{Fd, FdObject, FdTable, Whence, FD_LIMIT};
pub use kernel::{ConnId, IoOutcome, Kernel, MappedFileCache, PipeId};
pub use metrics::Metrics;
pub use poll::Readiness;
pub use process::{Pid, Process};
pub use pure::{replay, step, Command, Effect, Journal, KernelState};
pub use shard::{shard_of_conn, ShardFabric, ShardMailbox, ShardMsg};
