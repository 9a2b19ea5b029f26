//! Descriptor-surface operations on [`KernelState`]: open/dup/close,
//! lseek, poll, and the fd-based I/O entry points (§3.4: the IOL calls
//! act on any fd).

use iolite_buf::{Acl, Aggregate};
use iolite_fs::FileId;
use iolite_ipc::PipeMode;

use super::effect::Effect;
use super::state::{IoOutcome, KernelState};
use crate::cost::{Charge, CostCategory};
use crate::error::{IoResult, IolError};
use crate::fd::{Fd, FdObject, Whence};
use crate::poll::Readiness;
use crate::process::Pid;

impl KernelState {
    // ---- readiness (the event-driven servers' select/poll, §6) ----------

    /// `Kernel::iol_poll`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_iol_poll(
        &mut self,
        pid: Pid,
        fds: &[Fd],
        fx: &mut Vec<Effect>,
    ) -> Vec<Readiness> {
        fx.push(Effect::Syscalls(1));
        let scan = Charge::us(self.cost.syscall_us + fds.len() as f64 * self.cost.poll_fd_us);
        self.bill(CostCategory::Syscall, scan, fx);
        let invalid = Readiness {
            invalid: true,
            ..Readiness::PENDING
        };
        let poll_one = |fd| self.object_readiness(self.fds.get(pid, fd)?.object);
        fds.iter()
            .map(|&fd| poll_one(fd).unwrap_or(invalid))
            .collect()
    }

    /// The current readiness of one descriptor object; `None` when the
    /// object's id names no pipe or socket the kernel ever created.
    fn object_readiness(&self, object: FdObject) -> Option<Readiness> {
        Some(match object {
            // Regular files never block (poll(2) semantics).
            FdObject::File(_) => Readiness {
                readable: true,
                writable: true,
                ..Readiness::PENDING
            },
            FdObject::PipeRead(id) => {
                let slot = self.pipes.get(id)?;
                let buffered = slot.pipe.buffered();
                Readiness {
                    readable: buffered > 0,
                    // All write ends gone and nothing left to drain:
                    // the next read returns empty.
                    eof: buffered == 0 && slot.pipe.is_closed(),
                    ..Readiness::PENDING
                }
            }
            FdObject::PipeWrite(id) => {
                let slot = self.pipes.get(id)?;
                let dead = slot.pipe.is_closed() || slot.reader_gone;
                Readiness {
                    writable: !dead && slot.pipe.space() > 0,
                    epipe: dead,
                    ..Readiness::PENDING
                }
            }
            FdObject::Socket(id) => {
                let sock = self.sockets.get(id)?;
                let hung_up = sock.write_dead();
                Readiness {
                    readable: !sock.inbound.is_empty(),
                    writable: !hung_up && sock.send_space() > 0,
                    eof: sock.inbound.is_empty() && hung_up,
                    epipe: hung_up,
                    ..Readiness::PENDING
                }
            }
        })
    }

    // ---- opening, duplicating, closing ----------------------------------

    /// `Kernel::open`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_open(&mut self, pid: Pid, path: &str, fx: &mut Vec<Effect>) -> IoResult<Fd> {
        fx.push(Effect::Syscalls(1));
        let store = &self.store;
        let found = self.meta.lookup(path, || store.lookup(path));
        let (file, hit) = found.ok_or(IolError::NotFound)?;
        // A metadata miss costs an extra metadata-cache fill; the paper
        // keeps metadata in the old buffer cache, so no device time is
        // charged for the common in-memory case.
        let lookup = Charge::us(self.cost.syscall_us * if hit { 1.0 } else { 3.0 });
        let fd = self.fds.install(pid, FdObject::File(file));
        let charge = lookup + Charge::us(self.cost.syscall_us);
        self.bill(CostCategory::Syscall, charge, fx);
        Ok((fd, IoOutcome::default()))
    }

    /// `Kernel::open_file`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_open_file(&mut self, pid: Pid, file: FileId) -> Fd {
        self.fds.install(pid, FdObject::File(file))
    }

    /// `Kernel::pipe_fds`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_pipe_fds(&mut self, pid: Pid, mode: PipeMode) -> (Fd, Fd) {
        let id = self.op_pipe_create(mode, None);
        let r = self.fds.install(pid, FdObject::PipeRead(id));
        let w = self.fds.install(pid, FdObject::PipeWrite(id));
        (r, w)
    }

    /// `Kernel::pipe_between`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_pipe_between(
        &mut self,
        writer: Pid,
        reader: Pid,
        mode: PipeMode,
        acl: Option<Acl>,
    ) -> (Fd, Fd) {
        let id = self.op_pipe_create(mode, acl);
        let w = self.fds.install(writer, FdObject::PipeWrite(id));
        let r = self.fds.install(reader, FdObject::PipeRead(id));
        (w, r)
    }

    /// `Kernel::install_fd`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_install_fd(&mut self, pid: Pid, object: FdObject) -> Fd {
        self.fds.install(pid, object)
    }

    /// `Kernel::install_fd_at`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_install_fd_at(
        &mut self,
        pid: Pid,
        at: Fd,
        object: FdObject,
    ) -> Result<Fd, IolError> {
        let orphan = self.fds.install_at(pid, at, object)?;
        self.last_close(orphan);
        Ok(at)
    }

    /// `Kernel::dup_fd`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_dup_fd(&mut self, pid: Pid, fd: Fd) -> Result<Fd, IolError> {
        self.fds.dup(pid, fd)
    }

    /// `Kernel::dup2_fd`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_dup2_fd(&mut self, pid: Pid, src: Fd, dst: Fd) -> Result<Fd, IolError> {
        let orphan = self.fds.dup2(pid, src, dst)?;
        self.last_close(orphan);
        Ok(dst)
    }

    /// `Kernel::close_fd`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_close_fd(&mut self, pid: Pid, fd: Fd) -> Result<(), IolError> {
        let orphan = self.fds.close(pid, fd)?;
        self.last_close(orphan);
        Ok(())
    }

    /// Applies last-reference close semantics to the object, if any,
    /// that the registry reports just lost its last descriptor (it
    /// counts live descriptions per object, so no table is scanned).
    fn last_close(&mut self, orphan: Option<FdObject>) {
        match orphan {
            Some(FdObject::PipeWrite(id)) => self.op_pipe_close(id),
            Some(FdObject::PipeRead(id)) => {
                // The last reader hung up: writers get EPIPE from now
                // on instead of filling a pipe nobody drains.
                if let Some(slot) = self.pipes.get_mut(id) {
                    slot.reader_gone = true;
                }
            }
            Some(FdObject::Socket(id)) => {
                if let Some(sock) = self.sockets.get_mut(id) {
                    sock.closed = true;
                    sock.inbound.clear();
                }
            }
            // Files have no last-close action.
            Some(FdObject::File(_)) | None => {}
        }
    }

    /// `Kernel::lseek`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_lseek(
        &mut self,
        pid: Pid,
        fd: Fd,
        offset: i64,
        whence: Whence,
        fx: &mut Vec<Effect>,
    ) -> IoResult<u64> {
        let file = self.resolve_file(pid, fd, "lseek")?;
        let base: u64 = match whence {
            Whence::Set => 0,
            Whence::Cur => self.resolve_fd(pid, fd)?.pos,
            Whence::End => self.store.len(file).unwrap_or(0),
        };
        let target = i64::try_from(base as i128 + offset as i128)
            .ok()
            .and_then(|t| u64::try_from(t).ok())
            .ok_or(IolError::InvalidSeek { requested: offset })?;
        self.fds.set_pos(pid, fd, target);
        Ok((target, IoOutcome::trap(self, fx)))
    }

    // ---- descriptor I/O --------------------------------------------------

    /// `Kernel::iol_read_fd`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_iol_read_fd(
        &mut self,
        pid: Pid,
        fd: Fd,
        len: u64,
        fx: &mut Vec<Effect>,
    ) -> IoResult<Aggregate> {
        let desc = self.resolve_fd(pid, fd)?;
        match desc.object {
            FdObject::File(file) => {
                let (agg, out) = self.op_read_file_at(pid, file, desc.pos, len, fx);
                self.fds.advance(pid, fd, agg.len());
                Ok((agg, out))
            }
            FdObject::PipeRead(pipe) => self.op_pipe_read(pid, fd, pipe, len, fx),
            FdObject::Socket(id) => self.op_socket_read(pid, fd, id, len, fx),
            FdObject::PipeWrite(_) => Err(IolError::BadFdKind {
                fd,
                operation: "read",
            }),
        }
    }

    /// `Kernel::iol_write_fd`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_iol_write_fd(
        &mut self,
        pid: Pid,
        fd: Fd,
        agg: &Aggregate,
        fx: &mut Vec<Effect>,
    ) -> IoResult<u64> {
        let desc = self.resolve_fd(pid, fd)?;
        match desc.object {
            FdObject::File(file) => {
                let out = self.op_write_file_at(pid, file, desc.pos, agg, fx)?;
                self.fds.advance(pid, fd, agg.len());
                Ok((agg.len(), out))
            }
            FdObject::PipeWrite(pipe) => self.op_pipe_write(fd, pipe, agg, fx),
            FdObject::Socket(id) => {
                let sock = self.sockets.get_mut(id).ok_or(IolError::NotOpen { fd })?;
                if sock.write_dead() {
                    return Err(IolError::Closed);
                }
                // Nonblocking sockets honor the Tss send-buffer bound:
                // accept only what fits, with `ShortIo` carrying the
                // partial progress (the driver drains the buffer as the
                // simulated wire ACKs it). Blocking sockets model the
                // synchronous write-until-drained path and accept
                // everything, as before.
                let len = agg.len();
                let accept = len.min(sock.send_space());
                let send = (accept > 0).then(|| {
                    let window =
                        (accept < len).then(|| agg.range(0, accept).expect("clamped send window"));
                    if sock.nonblocking {
                        sock.sndbuf_used += accept;
                    }
                    let payload = window.as_ref().unwrap_or(agg);
                    sock.conn.send(payload, &mut self.cksum)
                });
                IoOutcome::trap(self, fx);
                let Some(send) = send else {
                    return Err(IolError::WouldBlock);
                };
                self.bill_send(&send, fx);
                if accept == len {
                    let out = IoOutcome {
                        net: Some(send),
                        ..IoOutcome::default()
                    };
                    Ok((accept, out))
                } else {
                    Err(IolError::ShortIo { done: accept })
                }
            }
            FdObject::PipeRead(_) => Err(IolError::BadFdKind {
                fd,
                operation: "write",
            }),
        }
    }

    /// `Kernel::iol_pread`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_iol_pread(
        &mut self,
        pid: Pid,
        fd: Fd,
        offset: u64,
        len: u64,
        fx: &mut Vec<Effect>,
    ) -> IoResult<Aggregate> {
        let file = self.resolve_file(pid, fd, "positional file access")?;
        Ok(self.op_read_file_at(pid, file, offset, len, fx))
    }

    /// `Kernel::iol_pwrite`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_iol_pwrite(
        &mut self,
        pid: Pid,
        fd: Fd,
        offset: u64,
        agg: &Aggregate,
        fx: &mut Vec<Effect>,
    ) -> IoResult<u64> {
        let file = self.resolve_file(pid, fd, "positional file access")?;
        let out = self.op_write_file_at(pid, file, offset, agg, fx)?;
        Ok((agg.len(), out))
    }

    /// `Kernel::posix_read_fd`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_posix_read_fd(
        &mut self,
        pid: Pid,
        fd: Fd,
        len: u64,
        fx: &mut Vec<Effect>,
    ) -> IoResult<Vec<u8>> {
        let file = self.resolve_file(pid, fd, "posix_read")?;
        let pos = self.resolve_fd(pid, fd)?.pos;
        let (bytes, out) = self.op_posix_file_read(pid, file, pos, len, fx);
        self.fds.advance(pid, fd, bytes.len() as u64);
        Ok((bytes, out))
    }

    /// `Kernel::posix_write_fd`'s transition, documented at its `ops.rs` row.
    pub(crate) fn op_posix_write_fd(
        &mut self,
        pid: Pid,
        fd: Fd,
        data: &[u8],
        fx: &mut Vec<Effect>,
    ) -> IoResult<u64> {
        let file = self.resolve_file(pid, fd, "posix_write")?;
        let pos = self.resolve_fd(pid, fd)?.pos;
        let out = self.op_posix_file_write(pid, file, pos, data, fx)?;
        self.fds.advance(pid, fd, data.len() as u64);
        Ok((data.len() as u64, out))
    }
}
