//! Descriptor readiness: the kernel half of an event-driven server.
//!
//! The paper's fast servers (Flash, Flash-Lite, §5/§6) are *event
//! driven*: one process multiplexes thousands of nonblocking
//! descriptors, acting only on those the kernel reports ready. This
//! module defines that report, [`Readiness`]; [`Kernel::iol_poll`]
//! implements the scan itself over a list of descriptors, charged
//! through the cost model like any other trap.
//!
//! Every condition is reported for every descriptor; the caller acts on
//! the directions its own state machine is waiting for. Semantics
//! follow `poll(2)`:
//!
//! * `readable` — a read would return data now (bytes buffered in a
//!   pipe, delivered payload queued on a socket). Regular files are
//!   always readable.
//! * `writable` — a write would accept at least one byte (pipe or
//!   nonblocking-socket buffer space). Regular files are always
//!   writable.
//! * `eof` — the stream is finished: the peer is gone *and* everything
//!   it sent has been drained. A read now returns the empty aggregate.
//!   Like `POLLHUP` — a peer closing is precisely what makes a blocked
//!   descriptor "become ready".
//! * `epipe` — writes can never succeed again (no reader left on a
//!   pipe, socket torn down or peer-closed), like `POLLERR`.
//! * `invalid` — the descriptor is not open in the caller's table
//!   (`POLLNVAL`); one stale entry does not fail the whole scan.
//!
//! [`Kernel::iol_poll`]: crate::Kernel::iol_poll

/// The kernel's answer for one polled descriptor: every field describes
/// the descriptor's actual state (`eof`/`epipe`/`invalid` as `POLLHUP`/
/// `POLLERR`/`POLLNVAL` do).
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
}
