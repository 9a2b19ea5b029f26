//! Descriptor-surface operations on [`KernelState`]: open/dup/close,
//! lseek, poll, and the fd-based I/O entry points (§3.4: the IOL calls
//! act on any fd).

use iolite_buf::{Acl, Aggregate};
use iolite_fs::FileId;
use iolite_ipc::PipeMode;
use iolite_vm::MmapView;

use super::effect::Effect;
use super::state::{IoOutcome, KernelState};
use crate::cost::Charge;
use crate::error::{IoResult, IolError};
use crate::fd::{Fd, FdObject, Whence};
use crate::poll::{PollFd, Readiness};
use crate::process::Pid;

impl KernelState {
    // ---- readiness (the event-driven servers' select/poll, §6) ----------

    /// Reports readiness for a set of descriptors, `poll(2)`-style: one
    /// [`Readiness`] per entry, in order. Pipe ends (stdio included),
    /// kernel-registry sockets, and regular files are all supported;
    /// an entry that fails to resolve reports `invalid` (`POLLNVAL`)
    /// without failing the scan.
    ///
    /// The call is charged as one trap plus a per-entry scan cost —
    /// the select/poll overhead that made event-driven servers
    /// sensitive to poll-set size long before the payload moved.
    ///
    /// # Errors
    ///
    /// None today — the result is total; the `IoResult` shape carries
    /// the accounting like every other descriptor operation.
    pub(crate) fn op_iol_poll(
        &self,
        pid: Pid,
        fds: &[PollFd],
        fx: &mut Vec<Effect>,
    ) -> IoResult<Vec<Readiness>> {
        let out = IoOutcome {
            charge: Charge::us(self.cost.syscall_us + fds.len() as f64 * self.cost.poll_fd_us),
            ..IoOutcome::default()
        };
        fx.push(Effect::Syscalls(1));
        let table = self.fds.get_table(pid);
        let mut events = Vec::with_capacity(fds.len());
        for entry in fds {
            let Some(desc) = table.and_then(|t| t.get(entry.fd)) else {
                events.push(Readiness {
                    invalid: true,
                    ..Readiness::PENDING
                });
                continue;
            };
            let object = desc.lock().unwrap().object;
            events.push(self.object_readiness(object));
        }
        Ok((events, out))
    }

    /// The current readiness of one descriptor object.
    fn object_readiness(&self, object: FdObject) -> Readiness {
        match object {
            // Regular files never block (poll(2) semantics).
            FdObject::File(_) => Readiness {
                readable: true,
                writable: true,
                ..Readiness::PENDING
            },
            FdObject::PipeRead(id) => {
                let slot = &self.pipes[&id];
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
                let slot = &self.pipes[&id];
                let dead = slot.pipe.is_closed() || slot.reader_gone;
                Readiness {
                    writable: !dead && slot.pipe.space() > 0,
                    epipe: dead,
                    ..Readiness::PENDING
                }
            }
            FdObject::Socket(id) => {
                let Some(sock) = self.sockets.get(&id) else {
                    return Readiness {
                        invalid: true,
                        ..Readiness::PENDING
                    };
                };
                let hung_up = sock.write_dead();
                Readiness {
                    readable: !sock.inbound.is_empty(),
                    writable: !hung_up && sock.send_space() > 0,
                    eof: sock.inbound.is_empty() && hung_up,
                    epipe: hung_up,
                    ..Readiness::PENDING
                }
            }
        }
    }

    // ---- opening, duplicating, closing ----------------------------------

    /// Opens a file by path, returning a descriptor with offset 0. The
    /// outcome carries the metadata-lookup plus syscall charge.
    ///
    /// # Errors
    ///
    /// [`IolError::NotFound`] when the path does not resolve.
    pub(crate) fn op_open(&mut self, pid: Pid, path: &str, fx: &mut Vec<Effect>) -> IoResult<Fd> {
        let (id, charge) = self.op_lookup(path, fx);
        let file = id.ok_or(IolError::NotFound)?;
        let fd = self.fds.table(pid).install(FdObject::File(file));
        let out = IoOutcome {
            charge: charge + Charge::us(self.cost.syscall_us),
            ..IoOutcome::default()
        };
        Ok((fd, out))
    }

    /// Installs a descriptor (offset 0) for an already-resolved file —
    /// the bridge for layers that hold [`FileId`]s (workload setup,
    /// benches) into the descriptor world.
    pub(crate) fn op_open_file(&mut self, pid: Pid, file: FileId) -> Fd {
        self.fds.table(pid).install(FdObject::File(file))
    }

    /// Creates a pipe and returns `(read_fd, write_fd)` in `pid`'s
    /// table (both ends in one process, as after `pipe(2)` before
    /// `fork`).
    pub(crate) fn op_pipe_fds(&mut self, pid: Pid, mode: PipeMode) -> (Fd, Fd) {
        let id = self.op_pipe_create(mode, None);
        let table = self.fds.table(pid);
        let r = table.install(FdObject::PipeRead(id));
        let w = table.install(FdObject::PipeWrite(id));
        (r, w)
    }

    /// Creates a pipe with its write end in `writer`'s table and its
    /// read end in `reader`'s (the post-`fork` shape of `a | b`).
    /// Returns `(write_fd, read_fd)`.
    pub(crate) fn op_pipe_between(
        &mut self,
        writer: Pid,
        reader: Pid,
        mode: PipeMode,
        acl: Option<Acl>,
    ) -> (Fd, Fd) {
        let id = self.op_pipe_create(mode, acl);
        let w = self.fds.table(writer).install(FdObject::PipeWrite(id));
        let r = self.fds.table(reader).install(FdObject::PipeRead(id));
        (w, r)
    }

    /// Installs an existing object in `pid`'s descriptor table (the
    /// moral equivalent of inheriting an fd across `fork`/`exec`).
    pub(crate) fn op_install_fd(&mut self, pid: Pid, object: FdObject) -> Fd {
        self.fds.table(pid).install(object)
    }

    /// Installs an existing object at exactly `at` (`dup2`-style
    /// targeting for inherited objects), displacing and
    /// (last-reference) closing whatever was there.
    pub(crate) fn op_install_fd_at(&mut self, pid: Pid, at: Fd, object: FdObject) -> Fd {
        let displaced = self.fds.table(pid).install_at(at, object);
        if let Some(old) = displaced {
            let old_object = old.lock().unwrap().object;
            self.finalize_close(old_object);
        }
        at
    }

    /// Duplicates a descriptor (`dup(2)`) onto the lowest free number:
    /// both numbers share one file offset.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] if `fd` is not open.
    pub(crate) fn op_dup_fd(&mut self, pid: Pid, fd: Fd) -> Result<Fd, IolError> {
        self.fds
            .table(pid)
            .dup(fd)
            .ok_or(IolError::NotOpen { fd })
    }

    /// Duplicates `src` onto exactly `dst` (`dup2(2)`), displacing and
    /// (last-reference) closing whatever was there.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] if `src` is not open.
    pub(crate) fn op_dup2_fd(&mut self, pid: Pid, src: Fd, dst: Fd) -> Result<Fd, IolError> {
        let displaced = self
            .fds
            .table(pid)
            .dup2(src, dst)
            .ok_or(IolError::NotOpen { fd: src })?;
        if let Some(old) = displaced {
            let object = old.lock().unwrap().object;
            self.finalize_close(object);
        }
        Ok(dst)
    }

    /// Closes a descriptor (`close(2)`). When the last descriptor for a
    /// pipe write end disappears (across *all* processes), the pipe is
    /// closed for real and readers see EOF; a socket's last close tears
    /// the connection down.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] if `fd` is not open (double close).
    pub(crate) fn op_close_fd(&mut self, pid: Pid, fd: Fd) -> Result<(), IolError> {
        let removed = self
            .fds
            .table(pid)
            .close(fd)
            .ok_or(IolError::NotOpen { fd })?;
        let object = removed.lock().unwrap().object;
        self.finalize_close(object);
        Ok(())
    }

    /// Applies last-reference close semantics after a descriptor for
    /// `object` was removed or displaced.
    ///
    /// Files have no last-close action, so they skip the registry scan
    /// entirely — the common case (a server's 10k-file open set) closes
    /// in O(log n).
    fn finalize_close(&mut self, object: FdObject) {
        if matches!(object, FdObject::File(_)) {
            return;
        }
        if self.fds.object_referenced(object) {
            return;
        }
        match object {
            FdObject::PipeWrite(id) => self.op_pipe_close(id),
            FdObject::PipeRead(id) => {
                // The last reader hung up: writers get EPIPE from now
                // on instead of filling a pipe nobody drains.
                if let Some(slot) = self.pipes.get_mut(&id) {
                    slot.reader_gone = true;
                }
            }
            FdObject::Socket(id) => {
                if let Some(sock) = self.sockets.get_mut(&id) {
                    sock.closed = true;
                    sock.inbound.clear();
                }
            }
            FdObject::File(_) => unreachable!("files returned early"),
        }
    }

    /// Repositions a file descriptor (`lseek(2)`), resolving
    /// [`Whence::End`] against the file's metadata. Returns the new
    /// absolute offset.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] for unknown descriptors,
    /// [`IolError::BadFdKind`] for pipes/sockets (ESPIPE), and
    /// [`IolError::InvalidSeek`] when the resolved position is negative.
    pub(crate) fn op_lseek(
        &mut self,
        pid: Pid,
        fd: Fd,
        offset: i64,
        whence: Whence,
        fx: &mut Vec<Effect>,
    ) -> IoResult<u64> {
        let desc = self.resolve_fd(pid, fd)?;
        let mut open = desc.lock().unwrap();
        let FdObject::File(file) = open.object else {
            return Err(IolError::BadFdKind {
                fd,
                operation: "lseek",
            });
        };
        let base: u64 = match whence {
            Whence::Set => 0,
            Whence::Cur => open.pos,
            Whence::End => self.store.len(file).unwrap_or(0),
        };
        let target = base as i128 + offset as i128;
        if target < 0 {
            return Err(IolError::InvalidSeek { requested: offset });
        }
        open.pos = target as u64;
        fx.push(Effect::Syscalls(1));
        let out = IoOutcome {
            charge: Charge::us(self.cost.syscall_us),
            ..IoOutcome::default()
        };
        Ok((open.pos, out))
    }

    // ---- descriptor I/O --------------------------------------------------

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
    pub(crate) fn op_iol_read_fd(
        &mut self,
        pid: Pid,
        fd: Fd,
        len: u64,
        fx: &mut Vec<Effect>,
    ) -> IoResult<Aggregate> {
        let desc = self.resolve_fd(pid, fd)?;
        let object = desc.lock().unwrap().object;
        match object {
            FdObject::File(file) => {
                let pos = desc.lock().unwrap().pos;
                let (agg, out) = self.op_read_file_at(pid, file, pos, len, fx);
                desc.lock().unwrap().pos = pos + agg.len();
                Ok((agg, out))
            }
            FdObject::PipeRead(pipe) => {
                let (got, out) = self.op_pipe_read(pid, pipe, len, fx)?;
                match got {
                    Some(agg) => Ok((agg, out)),
                    // Empty + closed is EOF (an empty read); empty +
                    // open writer is EAGAIN, charged like any trap.
                    None if self.pipes[&pipe].pipe.is_closed() => Ok((Aggregate::empty(), out)),
                    None => Err(IolError::WouldBlock { outcome: out }),
                }
            }
            FdObject::Socket(id) => self.op_socket_read(pid, fd, id, len, fx),
            FdObject::PipeWrite(_) => Err(IolError::BadFdKind {
                fd,
                operation: "read",
            }),
        }
    }

    /// `IOL_write` on a descriptor: files replace at (and advance) the
    /// shared offset; pipe write-ends enqueue; sockets run the TCP send
    /// path (zero-copy with checksum caching, or copying — the
    /// descriptor doesn't care, §3.4). Returns bytes accepted; socket
    /// writes carry their `SendOutcome` in `outcome.net`.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] as usual;
    /// [`IolError::Closed`] when writing a closed pipe or socket;
    /// [`IolError::WouldBlock`] when a full pipe accepts nothing;
    /// [`IolError::ShortIo`] (carrying the partial count and its
    /// charge) when a pipe fills mid-write.
    pub(crate) fn op_iol_write_fd(
        &mut self,
        pid: Pid,
        fd: Fd,
        agg: &Aggregate,
        fx: &mut Vec<Effect>,
    ) -> IoResult<u64> {
        let desc = self.resolve_fd(pid, fd)?;
        let object = desc.lock().unwrap().object;
        match object {
            FdObject::File(file) => {
                let pos = desc.lock().unwrap().pos;
                let out = self.op_write_file_at(pid, file, pos, agg, fx);
                desc.lock().unwrap().pos = pos + agg.len();
                Ok((agg.len(), out))
            }
            FdObject::PipeWrite(pipe) => {
                let slot = &self.pipes[&pipe];
                if slot.pipe.is_closed() || slot.reader_gone {
                    // Writing with no write end left, or no reader left
                    // to ever drain it, is EPIPE.
                    return Err(IolError::Closed);
                }
                let (accepted, out) = self.op_pipe_write(pid, pipe, agg, fx);
                if accepted == agg.len() {
                    Ok((accepted, out))
                } else if accepted == 0 {
                    Err(IolError::WouldBlock { outcome: out })
                } else {
                    Err(IolError::ShortIo {
                        done: accepted,
                        outcome: out,
                    })
                }
            }
            FdObject::Socket(id) => {
                let sock = self.sockets.get_mut(&id).expect("registered socket");
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
                let space = sock.send_space();
                fx.push(Effect::Syscalls(1));
                let out_base = IoOutcome {
                    charge: Charge::us(self.cost.syscall_us),
                    ..IoOutcome::default()
                };
                if space == 0 {
                    return Err(IolError::WouldBlock { outcome: out_base });
                }
                let accept = len.min(space);
                let window = if accept == len {
                    None
                } else {
                    Some(agg.range(0, accept).expect("clamped send window"))
                };
                let sock = self.sockets.get_mut(&id).expect("registered socket");
                let send = sock.conn.send(window.as_ref().unwrap_or(agg), &mut self.cksum);
                if sock.nonblocking {
                    sock.sndbuf_used += accept;
                }
                fx.push(Effect::BytesChecksummed(send.csum_bytes_computed));
                fx.push(Effect::BytesChecksumCached(send.csum_bytes_cached));
                fx.push(Effect::BytesCopied(send.bytes_copied));
                let out = IoOutcome {
                    net: Some(send),
                    ..out_base
                };
                if accept == len {
                    Ok((accept, out))
                } else {
                    Err(IolError::ShortIo {
                        done: accept,
                        outcome: out,
                    })
                }
            }
            FdObject::PipeRead(_) => Err(IolError::BadFdKind {
                fd,
                operation: "write",
            }),
        }
    }

    /// Positional `IOL_read` (`pread(2)`): reads a file descriptor at
    /// an explicit offset without moving the shared offset.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] / [`IolError::BadFdKind`] (pipes and
    /// sockets have no positions).
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

    /// Positional `IOL_write` (`pwrite(2)`).
    ///
    /// # Errors
    ///
    /// As [`KernelState::op_iol_pread`].
    pub(crate) fn op_iol_pwrite(
        &mut self,
        pid: Pid,
        fd: Fd,
        offset: u64,
        agg: &Aggregate,
        fx: &mut Vec<Effect>,
    ) -> IoResult<u64> {
        let file = self.resolve_file(pid, fd, "positional file access")?;
        let out = self.op_write_file_at(pid, file, offset, agg, fx);
        Ok((agg.len(), out))
    }

    /// Backward-compatible copying read on a file descriptor, advancing
    /// the shared offset (§4.2's copy-in/copy-out POSIX veneer).
    ///
    /// # Errors
    ///
    /// As [`KernelState::op_iol_pread`] — pipes carry copy semantics
    /// through their mode instead.
    pub(crate) fn op_posix_read_fd(
        &mut self,
        pid: Pid,
        fd: Fd,
        len: u64,
        fx: &mut Vec<Effect>,
    ) -> IoResult<Vec<u8>> {
        let file = self.resolve_file(pid, fd, "posix_read")?;
        let desc = self.resolve_fd(pid, fd)?;
        let pos = desc.lock().unwrap().pos;
        let (bytes, out) = self.op_posix_file_read(pid, file, pos, len, fx);
        desc.lock().unwrap().pos = pos + bytes.len() as u64;
        Ok((bytes, out))
    }

    /// Backward-compatible copying write on a file descriptor,
    /// advancing the shared offset.
    ///
    /// # Errors
    ///
    /// As [`KernelState::op_posix_read_fd`].
    pub(crate) fn op_posix_write_fd(
        &mut self,
        pid: Pid,
        fd: Fd,
        data: &[u8],
        fx: &mut Vec<Effect>,
    ) -> IoResult<u64> {
        let file = self.resolve_file(pid, fd, "posix_write")?;
        let desc = self.resolve_fd(pid, fd)?;
        let pos = desc.lock().unwrap().pos;
        let out = self.op_posix_file_write(pid, file, pos, data, fx);
        desc.lock().unwrap().pos = pos + data.len() as u64;
        Ok((data.len() as u64, out))
    }

    /// Maps the whole file behind a descriptor (§3.8 `mmap`).
    ///
    /// # Errors
    ///
    /// As [`KernelState::op_iol_pread`].
    pub(crate) fn op_mmap_fd(&mut self, pid: Pid, fd: Fd, fx: &mut Vec<Effect>) -> IoResult<MmapView> {
        let file = self.resolve_file(pid, fd, "mmap")?;
        Ok(self.op_file_mmap(pid, file, fx))
    }
}
