//! Pipe and stdio-console operations on [`KernelState`].

use iolite_buf::{Acl, Aggregate};
use iolite_ipc::{Pipe, PipeMode};

use super::effect::Effect;
use super::ids::PipeId;
use super::state::{Console, IoOutcome, KernelState, PipeSlot};
use crate::cost::CostCategory;
use crate::error::{IoResult, IolError};
use crate::fd::Fd;
use crate::process::Pid;

impl KernelState {
    /// Creates a pipe in the given mode with the BSD 64KB buffer,
    /// optionally governed by an explicit zero-copy ACL (the writer
    /// pool's ACL, §3.10).
    ///
    /// Copy-mode staging buffers draw their scratch-pool id from the
    /// central `IdAlloc` so two kernels replaying the same
    /// commands mint identical pool ids.
    pub(crate) fn op_pipe_create(&mut self, mode: PipeMode, acl: Option<Acl>) -> PipeId {
        let id = self.ids.alloc_pipe();
        let scratch = self.ids.alloc_scratch_pool();
        self.pipes.insert(
            id,
            PipeSlot {
                pipe: Pipe::with_scratch_id(mode, 64 * 1024, scratch),
                acl,
                reader_gone: false,
            },
        );
        id
    }

    /// The pipe write behind `iol_write_fd` and the stdin console.
    /// `fd` is the descriptor the pipe was reached through: a pipe id
    /// the kernel never minted reports it [`IolError::NotOpen`].
    pub(crate) fn op_pipe_write(
        &mut self,
        fd: Fd,
        id: PipeId,
        data: &Aggregate,
        fx: &mut Vec<Effect>,
    ) -> IoResult<u64> {
        let slot = self.pipes.get_mut(id).ok_or(IolError::NotOpen { fd })?;
        if slot.pipe.is_closed() || slot.reader_gone {
            // Writing with no write end left, or no reader left to ever
            // drain it, is EPIPE.
            return Err(IolError::Closed);
        }
        let mode = slot.pipe.mode();
        let accepted = slot.pipe.write(data);
        let out = IoOutcome::trap(self, fx);
        self.bill_pipe_copy(mode, accepted, fx);
        if accepted == data.len() {
            Ok((accepted, out))
        } else if accepted == 0 {
            Err(IolError::WouldBlock)
        } else {
            Err(IolError::ShortIo { done: accepted })
        }
    }

    /// The pipe read behind `iol_read_fd` and the stdout/stderr
    /// consoles (`fd` as for [`KernelState::op_pipe_write`]); zero-copy
    /// pipes also transfer the received chunks into the reader's domain
    /// (first time only — recycled buffers ride existing mappings,
    /// §3.2), enforcing the pipe's ACL when it carries one.
    pub(crate) fn op_pipe_read(
        &mut self,
        pid: Pid,
        fd: Fd,
        id: PipeId,
        max: u64,
        fx: &mut Vec<Effect>,
    ) -> IoResult<Aggregate> {
        let slot = self.pipes.get(id).ok_or(IolError::NotOpen { fd })?;
        // ACL'd pipes refuse unauthorized readers *before* any byte is
        // dequeued: a denial must not destroy data still in flight to
        // the legitimate reader (the refused call has trapped all the
        // same).
        let denied = slot.acl.as_ref().is_some_and(|a| !a.allows(pid.domain()));
        let out = IoOutcome::trap(self, fx);
        if denied {
            return Err(IolError::PermissionDenied {
                domain: pid.domain(),
            });
        }
        let slot = self.pipes.get_mut(id).ok_or(IolError::NotOpen { fd })?;
        let mode = slot.pipe.mode();
        let acl = slot.acl.clone();
        let got = slot.pipe.read(max);
        let closed = slot.pipe.is_closed();
        self.bill_pipe_copy(mode, got.as_ref().map_or(0, Aggregate::len), fx);
        if let (Some(agg), PipeMode::ZeroCopy) = (&got, mode) {
            // Pass-by-reference: the reader needs (at most first-time)
            // read mappings, gated by the pipe's ACL when it carries one
            // (pipes between mutually untrusting processes); plain pipes
            // rely on pool ACLs at allocation sites.
            match &acl {
                Some(acl) => {
                    self.op_transfer_with_acl(agg, pid.domain(), acl, fx)
                        .map_err(|denied| IolError::PermissionDenied {
                            domain: denied.domain,
                        })?;
                }
                None => self.map_into(pid, agg, fx),
            }
        }
        match got {
            Some(agg) => Ok((agg, out)),
            // Empty + closed is EOF (an empty read); empty + open
            // writer is EAGAIN, billed like any trap.
            None if closed => Ok((Aggregate::empty(), out)),
            None => Err(IolError::WouldBlock),
        }
    }

    /// Bills what a pipe call moved: a copy-mode pipe copies each byte it
    /// accepts (copy-in) or returns (copy-out); a zero-copy one, none.
    fn bill_pipe_copy(&mut self, mode: PipeMode, moved: u64, fx: &mut Vec<Effect>) {
        if mode == PipeMode::Copy && moved > 0 {
            fx.push(Effect::BytesCopied(moved));
            self.bill(CostCategory::Copy, self.cost.copy(moved), fx);
        }
    }

    /// Closes a pipe's write end by raw id (descriptor holders go
    /// through `close_fd`, which calls this on last close).
    pub(crate) fn op_pipe_close(&mut self, id: PipeId) {
        if let Some(slot) = self.pipes.get_mut(id) {
            slot.pipe.close();
        }
    }

    // ---- the stdio console (harness side of fds 0/1/2) ------------------

    /// Writes `data` into `pid`'s stdin console pipe (the harness
    /// playing the terminal); the process reads it at fd 0.
    ///
    /// # Errors
    ///
    /// [`IolError::WouldBlock`]/[`IolError::ShortIo`] as for any pipe
    /// write when the console buffer fills.
    pub(crate) fn op_feed_stdin(
        &mut self,
        pid: Pid,
        data: &Aggregate,
        fx: &mut Vec<Effect>,
    ) -> IoResult<u64> {
        self.op_pipe_write(Fd::STDIN, self.console(pid).stdin, data, fx)
    }

    /// Drains up to `max` bytes the process wrote to fd 1.
    ///
    /// # Errors
    ///
    /// [`IolError::WouldBlock`] when nothing is buffered and the
    /// process still holds its write end.
    pub(crate) fn op_read_stdout(
        &mut self,
        pid: Pid,
        max: u64,
        fx: &mut Vec<Effect>,
    ) -> IoResult<Aggregate> {
        self.op_pipe_read(pid, Fd::STDOUT, self.console(pid).stdout, max, fx)
    }

    /// Drains up to `max` bytes the process wrote to fd 2.
    ///
    /// # Errors
    ///
    /// As [`KernelState::op_read_stdout`].
    pub(crate) fn op_read_stderr(
        &mut self,
        pid: Pid,
        max: u64,
        fx: &mut Vec<Effect>,
    ) -> IoResult<Aggregate> {
        self.op_pipe_read(pid, Fd::STDERR, self.console(pid).stderr, max, fx)
    }

    /// The console pipes behind `pid`'s stdio triple.
    ///
    /// # Panics
    ///
    /// Panics on a pid that was never spawned.
    fn console(&self, pid: Pid) -> Console {
        *self.consoles.get(pid).expect("unknown pid")
    }
}
