//! Descriptor readiness: the kernel half of an event-driven server.
//!
//! The paper's fast servers (Flash, Flash-Lite, §5/§6) are *event
//! driven*: one process multiplexes thousands of nonblocking
//! descriptors, acting only on those the kernel reports ready. This
//! module defines the vocabulary of that report — what a caller asks
//! about ([`Interest`], [`PollFd`]) and what the kernel answers
//! ([`Readiness`]) — while [`Kernel::iol_poll`] implements the scan
//! itself, charged through the cost model like any other trap.
//!
//! Semantics follow `poll(2)`:
//!
//! * `readable` — a read would return data now (bytes buffered in a
//!   pipe, delivered payload queued on a socket). Regular files are
//!   always readable.
//! * `writable` — a write would accept at least one byte (pipe or
//!   nonblocking-socket buffer space). Regular files are always
//!   writable.
//! * `eof` — the stream is finished: the peer is gone *and* everything
//!   it sent has been drained. A read now returns the empty aggregate.
//!   Like `POLLHUP`, this is reported regardless of the interest asked
//!   for — a peer closing is precisely what makes a blocked descriptor
//!   "become ready".
//! * `epipe` — writes can never succeed again (no reader left on a
//!   pipe, socket torn down or peer-closed). Reported regardless of
//!   interest, like `POLLERR`.
//! * `invalid` — the descriptor is not open in the caller's table
//!   (`POLLNVAL`); one stale entry does not fail the whole scan.
//!
//! [`Kernel::iol_poll`]: crate::Kernel::iol_poll

use crate::fd::Fd;

/// Which direction(s) of readiness a poll entry asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Wake when a read would make progress.
    Readable,
    /// Wake when a write would make progress.
    Writable,
    /// Wake on either direction.
    Both,
}

impl Interest {
    /// Whether this interest includes reads.
    pub(crate) fn wants_read(self) -> bool {
        matches!(self, Interest::Readable | Interest::Both)
    }

    /// Whether this interest includes writes.
    pub(crate) fn wants_write(self) -> bool {
        matches!(self, Interest::Writable | Interest::Both)
    }
}

/// One entry in a poll set: a descriptor and the direction(s) the
/// caller wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollFd {
    /// The descriptor to query.
    pub fd: Fd,
    /// The direction(s) of interest.
    pub interest: Interest,
}

impl PollFd {
    /// A read-interest entry.
    pub fn readable(fd: Fd) -> PollFd {
        PollFd {
            fd,
            interest: Interest::Readable,
        }
    }

    /// A write-interest entry.
    pub fn writable(fd: Fd) -> PollFd {
        PollFd {
            fd,
            interest: Interest::Writable,
        }
    }
}

/// The kernel's answer for one polled descriptor.
///
/// `eof`/`epipe`/`invalid` are reported unconditionally (as `POLLHUP`/
/// `POLLERR`/`POLLNVAL` are); `readable`/`writable` describe the actual
/// state and the caller masks them with its interest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Readiness {
    /// A read would return data without blocking.
    pub readable: bool,
    /// A write would accept at least one byte without blocking.
    pub writable: bool,
    /// End of stream: the peer is gone and the buffered data is drained
    /// (a read returns empty).
    pub eof: bool,
    /// Writes are permanently refused (`EPIPE` on the next attempt).
    pub epipe: bool,
    /// The descriptor is not open in the caller's table (`POLLNVAL`).
    pub invalid: bool,
}

impl Readiness {
    /// The all-clear answer: nothing to report, keep waiting.
    pub const PENDING: Readiness = Readiness {
        readable: false,
        writable: false,
        eof: false,
        epipe: false,
        invalid: false,
    };

    /// Whether this answer would wake a poller with the given interest:
    /// the asked-for direction is ready, or a condition that is always
    /// reported (`eof`/`epipe`/`invalid`) holds.
    pub fn wakes(&self, interest: Interest) -> bool {
        (interest.wants_read() && self.readable)
            || (interest.wants_write() && self.writable)
            || self.eof
            || self.epipe
            || self.invalid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interest_directions() {
        assert!(Interest::Readable.wants_read() && !Interest::Readable.wants_write());
        assert!(Interest::Writable.wants_write() && !Interest::Writable.wants_read());
        assert!(Interest::Both.wants_read() && Interest::Both.wants_write());
    }

    #[test]
    fn wake_rules_mask_by_interest_but_not_for_errors() {
        let readable = Readiness {
            readable: true,
            ..Readiness::PENDING
        };
        assert!(readable.wakes(Interest::Readable));
        assert!(!readable.wakes(Interest::Writable));
        let hup = Readiness {
            eof: true,
            ..Readiness::PENDING
        };
        // A peer closing wakes even a write-interest poller (POLLHUP).
        assert!(hup.wakes(Interest::Writable));
        let dead = Readiness {
            epipe: true,
            ..Readiness::PENDING
        };
        assert!(dead.wakes(Interest::Readable));
        assert!(!Readiness::PENDING.wakes(Interest::Both));
    }

    #[test]
    fn constructors() {
        let p = PollFd::readable(Fd(3));
        assert_eq!(p.interest, Interest::Readable);
        assert_eq!(PollFd::writable(Fd(4)).interest, Interest::Writable);
        assert_eq!(p.fd, Fd(3));
    }
}
