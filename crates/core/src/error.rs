//! The unified, fallible result type of the descriptor-based IOL API.
//!
//! Every I/O operation on a descriptor returns [`IoResult<T>`]: on
//! success, the value plus the [`IoOutcome`] (cache, disk and mapping
//! accounting — the CPU the call cost is already billed to the kernel's
//! ledger); on failure, a precise [`IolError`].
//! The errors map one-to-one onto the POSIX `errno`s a real IO-Lite
//! kernel would return through the unchanged "file-descriptor-related
//! UNIX system calls" of §3.4:
//!
//! | [`IolError`] | errno analog | raised when |
//! |---|---|---|
//! | [`NotOpen`](IolError::NotOpen) | `EBADF` | the descriptor is not open in the caller's table, names an object the kernel never created, or (as a `dup2`/`install_fd_at` target) is at or past [`FD_LIMIT`](crate::FD_LIMIT) |
//! | [`BadFdKind`](IolError::BadFdKind) | `ESPIPE`/`ENOTSOCK`/`EBADF` | the object cannot perform the operation (e.g. `lseek` on a pipe, read on a write end) |
//! | [`PermissionDenied`](IolError::PermissionDenied) | `EACCES` | the caller's domain is not on the governing ACL (§3.3) |
//! | [`NotFound`](IolError::NotFound) | `ENOENT` | a path fails to resolve at `open` |
//! | [`Closed`](IolError::Closed) | `EPIPE` | writing an object whose peer hung up |
//! | [`WouldBlock`](IolError::WouldBlock) | `EAGAIN` | the operation made no progress and must wait for the peer (the refused trap is billed all the same) |
//! | [`InvalidSeek`](IolError::InvalidSeek) | `EINVAL` | the resolved seek position is negative or past `i64::MAX` (`off_t`), or a file write would end past it |
//! | [`ShortIo`](IolError::ShortIo) | partial `write(2)` | the object filled mid-write; partial progress is carried |
//!
//! `ShortIo` deserves a note: a pipe that accepts *some* bytes before
//! filling reports the accepted count (the work done is billed like any
//! other), exactly like a short POSIX `write`. Producer/consumer loops
//! treat it as flow control via [`short_ok`].

use std::fmt;

use iolite_buf::DomainId;

use crate::fd::Fd;
use crate::kernel::IoOutcome;

/// The error half of the descriptor API.
///
/// Carries enough context to act on: the offending descriptor, the
/// denied domain, or the partial progress of a short write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IolError {
    /// The descriptor is not open in the calling process's table
    /// (`EBADF`): never opened, closed then used, installed over an
    /// object id the kernel never minted, or — as the target of
    /// `dup2_fd`/`install_fd_at` — at or past [`crate::FD_LIMIT`].
    NotOpen {
        /// The descriptor that failed to resolve.
        fd: Fd,
    },
    /// The descriptor is open but refers to an object that cannot
    /// perform this operation (reading a pipe's write end, seeking a
    /// socket, mmapping a pipe...).
    BadFdKind {
        /// The descriptor.
        fd: Fd,
        /// The operation that was refused (diagnostic).
        operation: &'static str,
    },
    /// The caller's protection domain is not on the ACL governing the
    /// data (§3.3).
    PermissionDenied {
        /// The domain that was denied.
        domain: DomainId,
    },
    /// A path failed to resolve (`ENOENT`).
    NotFound,
    /// The object's peer is gone: writing a closed pipe or socket
    /// (`EPIPE` analog — fail loudly instead of signalling).
    Closed,
    /// No progress is possible without blocking (`EAGAIN`): reading an
    /// empty pipe whose writer is still open, or writing a full one.
    /// The blocked call still trapped into the kernel, and the kernel
    /// billed the trap like a successful call's.
    WouldBlock,
    /// The resolved seek position would be negative or beyond
    /// `i64::MAX`, the end of `off_t`, or a file write would end beyond
    /// it (`EINVAL`).
    InvalidSeek {
        /// The out-of-range position that was requested.
        requested: i64,
    },
    /// The write made partial progress before the object filled: `done`
    /// bytes were accepted (and billed). The caller advances past
    /// `done`, lets the consumer drain, and retries — the §4.4
    /// producer/consumer fill/drain round.
    ShortIo {
        /// Bytes accepted before the object filled.
        done: u64,
    },
}

impl fmt::Display for IolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IolError::NotOpen { fd } => write!(f, "fd {} is not open (EBADF)", fd.0),
            IolError::BadFdKind { fd, operation } => {
                write!(f, "fd {} does not support {operation}", fd.0)
            }
            IolError::PermissionDenied { domain } => {
                write!(f, "domain {domain} is not on the ACL (EACCES)")
            }
            IolError::NotFound => write!(f, "no such file (ENOENT)"),
            IolError::Closed => write!(f, "peer closed (EPIPE)"),
            IolError::WouldBlock => write!(f, "operation would block (EAGAIN)"),
            IolError::InvalidSeek { requested } => {
                write!(
                    f,
                    "seek by {requested} leaves the file offset range (EINVAL)"
                )
            }
            IolError::ShortIo { done } => {
                write!(
                    f,
                    "short write: {done} bytes accepted before the object filled"
                )
            }
        }
    }
}

impl std::error::Error for IolError {}

/// The uniform return type of every descriptor-based IOL operation:
/// the operation's value plus its [`IoOutcome`] accounting, or a
/// precise [`IolError`].
pub type IoResult<T> = Result<(T, IoOutcome), IolError>;

/// Folds [`IolError::ShortIo`] partial progress into the success value:
/// the bytes accepted.
///
/// Producer loops that alternate with their consumer (the §4.4
/// fill/drain round structure) treat a short write as normal flow
/// control: take the accepted count, let the reader drain, continue.
/// All other errors pass through.
///
/// # Examples
///
/// ```
/// use iolite_core::error::{short_ok, IolError, IoResult};
/// use iolite_core::IoOutcome;
///
/// let short: IoResult<u64> = Err(IolError::ShortIo { done: 10 });
/// assert_eq!(short_ok(short), Ok(10));
/// assert_eq!(short_ok(Ok((9, IoOutcome::default()))), Ok(9));
/// assert_eq!(short_ok(Err(IolError::WouldBlock)), Err(IolError::WouldBlock));
/// ```
pub fn short_ok(res: IoResult<u64>) -> Result<u64, IolError> {
    match res {
        Ok((done, _)) | Err(IolError::ShortIo { done }) => Ok(done),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let msg = IolError::NotOpen { fd: Fd(7) }.to_string();
        assert!(msg.contains('7') && msg.contains("EBADF"));
        assert!(IolError::WouldBlock.to_string().contains("EAGAIN"));
    }

    #[test]
    fn short_ok_unwraps_progress_only() {
        assert_eq!(short_ok(Err(IolError::ShortIo { done: 3 })), Ok(3));
        assert!(short_ok(Err(IolError::Closed)).is_err());
        assert_eq!(short_ok(Ok((9, IoOutcome::default()))), Ok(9));
    }
}
