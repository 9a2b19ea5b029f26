//! TCP socket operations on [`KernelState`].

use std::collections::VecDeque;

use iolite_buf::Aggregate;
use iolite_net::{BufferMode, SendOutcome, TcpConn};

use super::effect::Effect;
use super::ids::ConnId;
use super::state::{IoOutcome, KernelSocket, KernelState};
use crate::cost::CostCategory;
use crate::error::{IoResult, IolError};
use crate::fd::{Fd, FdObject};
use crate::process::Pid;

impl KernelState {
    /// Creates a TCP connection in the kernel's socket registry and
    /// installs a descriptor for it in `pid`'s table. The §3.4 promise
    /// made real: the same `IOL_read`/`IOL_write` calls that act on
    /// files and pipes drive the socket's zero-copy (or copying) send
    /// path.
    pub(crate) fn op_socket_create(
        &mut self,
        pid: Pid,
        mode: BufferMode,
        mss: usize,
        tss: usize,
    ) -> Fd {
        let id = self.ids.alloc_conn();
        self.sockets.insert(
            id,
            KernelSocket {
                conn: TcpConn::new(id.0, mode, mss, tss),
                inbound: VecDeque::new(),
                closed: false,
                peer_closed: false,
                nonblocking: false,
                sndbuf_used: 0,
            },
        );
        self.fds.install(pid, FdObject::Socket(id))
    }

    /// Delivers inbound payload — already in the receiving process's
    /// pool, as §3.6's early demultiplexing leaves it, and in stream
    /// order — to a socket. The data becomes readable through
    /// `iol_read_fd`.
    pub(crate) fn op_socket_deliver(
        &mut self,
        pid: Pid,
        fd: Fd,
        payload: Aggregate,
    ) -> IoResult<u64> {
        let sock = self.resolve_socket_mut(pid, fd, "socket delivery")?;
        if sock.closed || sock.peer_closed {
            return Err(IolError::Closed);
        }
        let len = payload.len();
        sock.inbound.push_back(payload);
        Ok((len, IoOutcome::default()))
    }

    /// Accounting-only send on a *copy-mode* socket descriptor: the
    /// conventional `write(2)` path, whose costs depend only on the
    /// byte count (copies have no identity, so no cache can apply).
    pub(crate) fn op_socket_send_accounted(
        &mut self,
        pid: Pid,
        fd: Fd,
        len: u64,
        fx: &mut Vec<Effect>,
    ) -> IoResult<SendOutcome> {
        let sock = self.resolve_socket(pid, fd, "accounted socket send")?;
        if sock.conn.mode() != BufferMode::Copy {
            let operation = "accounted send on a zero-copy socket";
            return Err(IolError::BadFdKind { fd, operation });
        }
        if sock.write_dead() {
            return Err(IolError::Closed);
        }
        let send = sock.conn.send_accounted(len);
        let out = IoOutcome::trap(self, fx);
        self.bill_send(&send, fx);
        Ok((send, out))
    }

    /// Bills a TCP send where the socket layer incurs it — the copy into
    /// socket buffers (none for a zero-copy send), the wire checksum of
    /// whatever the §3.9 cache did not supply, per-segment packet work —
    /// and reports its byte counts.
    pub(super) fn bill_send(&mut self, send: &SendOutcome, fx: &mut Vec<Effect>) {
        fx.push(Effect::BytesChecksummed(send.csum_bytes_computed));
        fx.push(Effect::BytesChecksumCached(send.csum_bytes_cached));
        fx.push(Effect::BytesCopied(send.bytes_copied));
        let copy = self.cost.socket_copy(send.bytes_copied);
        self.bill(CostCategory::Copy, copy, fx);
        let checksum = self.cost.wire_checksum(send.csum_bytes_computed);
        self.bill(CostCategory::Checksum, checksum, fx);
        self.bill(CostCategory::Packet, self.cost.packets(send.segments), fx);
    }

    /// Sets a socket descriptor's `O_NONBLOCK` flag.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual.
    pub(crate) fn op_set_nonblocking(
        &mut self,
        pid: Pid,
        fd: Fd,
        nonblocking: bool,
    ) -> Result<(), IolError> {
        let sock = self.resolve_socket_mut(pid, fd, "set O_NONBLOCK")?;
        sock.nonblocking = nonblocking;
        Ok(())
    }

    /// Acknowledges up to `max` bytes of a nonblocking socket's send
    /// buffer (the wire drained them), returning the bytes freed. No
    /// CPU is charged — per-packet and checksum work was already billed
    /// at send time.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual, and
    /// [`IolError::Closed`] once the peer hung up — a dead peer
    /// acknowledges nothing, so unacknowledged bytes can never drain
    /// and the in-flight response must be failed, not completed.
    pub(crate) fn op_socket_drain(&mut self, pid: Pid, fd: Fd, max: u64) -> Result<u64, IolError> {
        let sock = self.resolve_socket_mut(pid, fd, "send-buffer drain")?;
        if sock.write_dead() {
            return Err(IolError::Closed);
        }
        let take = sock.sndbuf_used.min(max);
        sock.sndbuf_used -= take;
        Ok(take)
    }

    /// Marks a socket's remote side as hung up (FIN/RST arrived): reads
    /// drain the delivered data then return EOF, writes fail with
    /// [`IolError::Closed`], and `iol_poll` reports `eof`/`epipe`.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual.
    pub(crate) fn op_socket_peer_close(&mut self, pid: Pid, fd: Fd) -> Result<(), IolError> {
        let sock = self.resolve_socket_mut(pid, fd, "peer close")?;
        sock.peer_closed = true;
        Ok(())
    }

    /// Enables or disables the §3.9 checksum cache.
    pub(crate) fn op_set_checksum_cache(&mut self, enabled: bool) {
        self.cksum.set_enabled(enabled);
    }

    /// Drains up to `len` bytes from a socket's inbound queue.
    pub(crate) fn op_socket_read(
        &mut self,
        pid: Pid,
        fd: Fd,
        id: ConnId,
        len: u64,
        fx: &mut Vec<Effect>,
    ) -> IoResult<Aggregate> {
        let sock = self.sockets.get_mut(id).ok_or(IolError::NotOpen { fd })?;
        let mode = sock.conn.mode();
        let mut agg = Aggregate::empty();
        while agg.len() < len {
            let Some(front) = sock.inbound.front_mut() else {
                break;
            };
            let want = len - agg.len();
            if front.len() <= want {
                agg.append(front);
                sock.inbound.pop_front();
            } else {
                let head = front.range(0, want).expect("in range");
                front.advance(want);
                agg.append(&head);
            }
        }
        // Local teardown or a remote hang-up both end the stream: once
        // the queue is drained, reads return empty (EOF).
        let ended = sock.closed || sock.peer_closed || len == 0;
        let out = IoOutcome::trap(self, fx);
        if agg.is_empty() {
            return if ended {
                Ok((agg, out))
            } else {
                Err(IolError::WouldBlock)
            };
        }
        match mode {
            BufferMode::ZeroCopy => {
                // recv by reference: first-time chunk mappings only.
                self.map_into(pid, &agg, fx);
            }
            BufferMode::Copy => {
                // Conventional recv copies socket-buffer data out.
                let copied = agg.len();
                fx.push(Effect::BytesCopied(copied));
                self.bill(CostCategory::Copy, self.cost.copy(copied), fx);
            }
        }
        Ok((agg, out))
    }
}
