//! The transition functions: [`step`] (one command, in place) and
//! [`replay`] (journal → final state + metrics).

use super::command::{Command, Journal};
use super::effect::Effect;
use super::state::KernelState;
use crate::error::IolError;
use crate::metrics::Metrics;

/// Applies one command to `state` in place, appending the resulting
/// effects to `fx`. This is [`replay`]'s engine, and the same `op_*`
/// transitions the imperative shell runs: deterministic, no I/O, no
/// wall clock, no randomness.
///
/// Typed return values (descriptors, aggregates, send outcomes) are
/// the shell's business — it calls the `op_*` methods directly; `step`
/// reports only whether the command was rejected.
/// The match is exhaustive by construction: a wildcard arm is a clippy
/// error (two lints — clippy reports a wildcard standing in for exactly
/// one variant under a different name), so a new [`Command`] variant
/// does not compile until it is dispatched here.
///
/// # Errors
///
/// Whatever the underlying operation rejects with. Note that a
/// rejected command may still have mutated state before the rejection
/// (a failed `open` warms the metadata cache; an ACL-denied pipe read
/// has already trapped) — replay therefore re-steps *every* journaled
/// command, errors included.
#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
pub fn step(state: &mut KernelState, cmd: &Command, fx: &mut Vec<Effect>) -> Result<(), IolError> {
    match cmd {
        // -- processes, pools, clock --
        Command::Spawn { name } => {
            state.op_spawn(name.clone());
        }
        Command::CreatePool { acl } => {
            state.op_create_pool(acl.clone());
        }
        Command::Advance { t } => state.op_advance(*t),
        Command::ResetClock => state.op_reset_clock(),
        Command::Charge { category, charge, copied } => {
            state.op_charge(*category, *charge, *copied, fx)
        }
        Command::ContextSwitch { n } => state.op_context_switch(*n, fx),

        // -- file system and cache --
        Command::CreateFile { name, data } => {
            state.op_create_file(name, data);
        }
        Command::CreateSyntheticFile { name, len, seed } => {
            state.op_create_synthetic_file(name, *len, *seed);
        }
        Command::RebalanceCache => {
            state.op_rebalance_cache();
        }
        Command::CachePin { key } => state.op_cache_pin(*key),
        Command::CacheUnpin { key } => state.op_cache_unpin(*key),
        Command::CacheInstall { file, data } => {
            state.op_cache_install(*file, data, fx);
        }
        Command::CacheInvalidate { key } => {
            state.op_cache_invalidate(*key);
        }
        Command::PutInstall { pid, file, agg } => {
            state.op_put_install(*pid, *file, agg, fx);
        }
        Command::WriteBack { max_bytes } => {
            state.op_write_back(*max_bytes, fx);
        }
        Command::NvmDemote {} => {
            state.op_nvm_demote(fx);
        }
        Command::SetWriteback { cfg } => state.op_set_writeback(*cfg),
        Command::MemReserve { account, bytes } => state.op_mem_reserve(*account, *bytes),
        Command::MemRelease { account, bytes } => state.op_mem_release(*account, *bytes),

        // -- sockets --
        Command::SocketCreate { pid, mode, mss, tss } => {
            state.op_socket_create(*pid, *mode, *mss, *tss);
        }
        Command::SocketDeliver { pid, fd, payload } => {
            state.op_socket_deliver(*pid, *fd, payload.clone())?;
        }
        Command::SocketSendAccounted { pid, fd, len } => {
            state.op_socket_send_accounted(*pid, *fd, *len, fx)?;
        }
        Command::SetNonblocking { pid, fd, nonblocking } => {
            state.op_set_nonblocking(*pid, *fd, *nonblocking)?;
        }
        Command::SocketDrain { pid, fd, max } => {
            state.op_socket_drain(*pid, *fd, *max)?;
        }
        Command::SocketPeerClose { pid, fd } => state.op_socket_peer_close(*pid, *fd)?,
        Command::SetChecksumCache { enabled } => state.op_set_checksum_cache(*enabled),

        // -- descriptors --
        Command::Open { pid, path } => {
            state.op_open(*pid, path, fx)?;
        }
        Command::OpenFile { pid, file } => {
            state.op_open_file(*pid, *file);
        }
        Command::PipeFds { pid, mode } => {
            state.op_pipe_fds(*pid, *mode);
        }
        Command::PipeBetween { writer, reader, mode, acl } => {
            state.op_pipe_between(*writer, *reader, *mode, acl.clone());
        }
        Command::InstallFd { pid, object } => {
            state.op_install_fd(*pid, *object);
        }
        Command::InstallFdAt { pid, at, object } => {
            state.op_install_fd_at(*pid, *at, *object)?;
        }
        Command::DupFd { pid, fd } => {
            state.op_dup_fd(*pid, *fd)?;
        }
        Command::Dup2Fd { pid, src, dst } => {
            state.op_dup2_fd(*pid, *src, *dst)?;
        }
        Command::CloseFd { pid, fd } => state.op_close_fd(*pid, *fd)?,
        Command::Lseek { pid, fd, offset, whence } => {
            state.op_lseek(*pid, *fd, *offset, *whence, fx)?;
        }
        Command::Poll { pid, fds } => {
            state.op_iol_poll(*pid, fds, fx);
        }

        // -- descriptor I/O --
        Command::IolReadFd { pid, fd, len } => {
            state.op_iol_read_fd(*pid, *fd, *len, fx)?;
        }
        Command::IolWriteFd { pid, fd, agg } => {
            state.op_iol_write_fd(*pid, *fd, agg, fx)?;
        }
        Command::IolPread { pid, fd, offset, len } => {
            state.op_iol_pread(*pid, *fd, *offset, *len, fx)?;
        }
        Command::IolPwrite { pid, fd, offset, agg } => {
            state.op_iol_pwrite(*pid, *fd, *offset, agg, fx)?;
        }
        Command::PosixReadFd { pid, fd, len } => {
            state.op_posix_read_fd(*pid, *fd, *len, fx)?;
        }
        Command::PosixWriteFd { pid, fd, data } => {
            state.op_posix_write_fd(*pid, *fd, data, fx)?;
        }
        Command::MappedRead { pid, fd, cached } => {
            state.op_mapped_read(*pid, *fd, *cached, fx)?;
        }

        // -- stdio console --
        Command::FeedStdin { pid, data } => {
            state.op_feed_stdin(*pid, data, fx)?;
        }
        Command::ReadStdout { pid, max } => {
            state.op_read_stdout(*pid, *max, fx)?;
        }
        Command::ReadStderr { pid, max } => {
            state.op_read_stderr(*pid, *max, fx)?;
        }
    }
    Ok(())
}

/// Replays a recorded journal against an initial state, folding every
/// command through [`step`] (errors included — the journal records
/// attempts, and attempts mutate) and absorbing effects into a fresh
/// [`Metrics`]. Returns the final state and the reconstructed metrics.
///
/// Starting from the same initial state a live run started from (same
/// cost model and policy, before any command), the returned state
/// digests to the live run's [`KernelState::state_hash`] and the
/// metrics match its shell's — that equivalence is the point.
pub fn replay(initial: KernelState, journal: &Journal) -> (KernelState, Metrics) {
    let mut state = initial;
    let mut metrics = Metrics::new();
    let mut fx = Vec::new();
    for cmd in journal.commands() {
        fx.clear();
        let _ = step(&mut state, cmd, &mut fx);
        for e in &fx {
            metrics.absorb(e);
        }
    }
    (state, metrics)
}
