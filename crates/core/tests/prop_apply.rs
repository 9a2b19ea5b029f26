//! Determinism property for the functional core: applying an arbitrary
//! command sequence twice from the same starting state produces
//! byte-identical successor states (by [`KernelState::state_hash`]) and
//! identical effect streams.
//!
//! The commands deliberately include rejected ones (bad descriptors,
//! reads past EOF, writes to closed pipes): [`iolite_core::step`] must
//! be deterministic on the error paths too, because the journal records
//! attempts and replay re-steps them. The generator reaches every
//! [`Command`] variant; `the_generator_reaches_every_command` counts
//! them.

use std::mem::{discriminant, Discriminant};

use iolite_buf::Acl;
use iolite_core::{
    step, Command, ConnId, CostCategory, CostModel, Effect, Fd, FdObject, Kernel, KernelState, Pid,
    PipeId,
};
use iolite_fs::{CacheKey, FileId, WritebackConfig};
use iolite_ipc::PipeMode;
use iolite_net::BufferMode;
use iolite_sim::SimTime;
use iolite_vm::MemAccount;
use proptest::prelude::*;

/// A generator-friendly command description: small indices instead of
/// real ids, lowered onto the fixture state by [`lower`].
#[derive(Debug, Clone)]
enum Op {
    Charge(u16),
    Advance(u16),
    ContextSwitch(u8),
    CreateSyntheticFile(u8, u16),
    Open(u8),
    OpenMissing(u8),
    CloseFd(u8),
    DupFd(u8),
    Lseek(u8, i16),
    IolRead(u8, u16),
    IolWrite(u8, u16),
    PosixRead(u8, u16),
    PosixWrite(u8, u16),
    Pread(u8, u16, u16),
    PipeFds(bool),
    SocketCreate(bool),
    SocketDrain(u8, u16),
    CachePin(u8),
    CacheUnpin(u8),
    MappedRead(u8, bool),
    MemReserve(u16),
    MemRelease(u16),
    RebalanceCache,
    SetChecksumCache(bool),
    FeedStdin(u8),
    ReadStdout(u16),
    // The write path and socket ingest (PR 10).
    PutInstall(u8, u16),
    WriteBack(u16),
    NvmDemote,
    SetWriteback(u8),
    CacheInstall(u8, u16),
    CacheInvalidate(u8),
    SocketDeliver(u8, u16),
    SocketPeerClose(u8),
    Pwrite(u8, u16, u16),
    Dup2Fd(u8, u8),
    Poll(u8),
    // Inherited objects by raw id (PR 20): mostly ids the kernel never
    // minted — every later poll, read, write and close of the number
    // must fail the same way twice, never panic.
    InstallFd(u8, u16),
    InstallFdAt(u8, u8, u16),
    // The rest of the table: processes and pools, explicit files,
    // `pipe_between` (no ACL, one that admits the reader, one that
    // refuses it), stderr, the clock reset, the nonblocking flag and the
    // accounting-only send (copy-mode sockets come from `SocketCreate`).
    Spawn(u8),
    CreatePool(bool),
    IdNamespace(u8),
    CreateFile(u8, u16),
    OpenFile(u8),
    PipeBetween(bool, Option<bool>),
    ReadStderr(u16),
    ResetClock,
    SetNonblocking(u8, bool),
    SocketSendAccounted(u8, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u16>().prop_map(Op::Charge),
        any::<u16>().prop_map(Op::Advance),
        any::<u8>().prop_map(Op::ContextSwitch),
        (any::<u8>(), any::<u16>()).prop_map(|(n, len)| Op::CreateSyntheticFile(n, len)),
        any::<u8>().prop_map(Op::Open),
        any::<u8>().prop_map(Op::OpenMissing),
        any::<u8>().prop_map(Op::CloseFd),
        any::<u8>().prop_map(Op::DupFd),
        (any::<u8>(), any::<i16>()).prop_map(|(fd, off)| Op::Lseek(fd, off)),
        (any::<u8>(), any::<u16>()).prop_map(|(fd, len)| Op::IolRead(fd, len)),
        (any::<u8>(), any::<u16>()).prop_map(|(fd, len)| Op::IolWrite(fd, len)),
        (any::<u8>(), any::<u16>()).prop_map(|(fd, len)| Op::PosixRead(fd, len)),
        (any::<u8>(), any::<u16>()).prop_map(|(fd, len)| Op::PosixWrite(fd, len)),
        (any::<u8>(), any::<u16>(), any::<u16>()).prop_map(|(fd, o, l)| Op::Pread(fd, o, l)),
        any::<bool>().prop_map(Op::PipeFds),
        any::<bool>().prop_map(Op::SocketCreate),
        (any::<u8>(), any::<u16>()).prop_map(|(fd, max)| Op::SocketDrain(fd, max)),
        any::<u8>().prop_map(Op::CachePin),
        any::<u8>().prop_map(Op::CacheUnpin),
        (any::<u8>(), any::<bool>()).prop_map(|(fd, cached)| Op::MappedRead(fd, cached)),
        any::<u16>().prop_map(Op::MemReserve),
        any::<u16>().prop_map(Op::MemRelease),
        Just(Op::RebalanceCache),
        any::<bool>().prop_map(Op::SetChecksumCache),
        any::<u8>().prop_map(Op::FeedStdin),
        any::<u16>().prop_map(Op::ReadStdout),
        (any::<u8>(), any::<u16>()).prop_map(|(f, len)| Op::PutInstall(f, len)),
        any::<u16>().prop_map(Op::WriteBack),
        Just(Op::NvmDemote),
        any::<u8>().prop_map(Op::SetWriteback),
        (any::<u8>(), any::<u16>()).prop_map(|(f, len)| Op::CacheInstall(f, len)),
        any::<u8>().prop_map(Op::CacheInvalidate),
        (any::<u8>(), any::<u16>()).prop_map(|(fd, len)| Op::SocketDeliver(fd, len)),
        any::<u8>().prop_map(Op::SocketPeerClose),
        (any::<u8>(), any::<u16>(), any::<u16>()).prop_map(|(fd, o, l)| Op::Pwrite(fd, o, l)),
        (any::<u8>(), any::<u8>()).prop_map(|(src, dst)| Op::Dup2Fd(src, dst)),
        (any::<u8>(), any::<u16>()).prop_map(|(kind, id)| Op::InstallFd(kind, id)),
        (any::<u8>(), any::<u8>(), any::<u16>()).prop_map(|(at, k, id)| Op::InstallFdAt(at, k, id)),
        any::<u8>().prop_map(Op::Poll),
        any::<u8>().prop_map(Op::Spawn),
        any::<bool>().prop_map(Op::CreatePool),
        any::<u8>().prop_map(Op::IdNamespace),
        (any::<u8>(), any::<u16>()).prop_map(|(n, len)| Op::CreateFile(n, len)),
        any::<u8>().prop_map(Op::OpenFile),
        (any::<bool>(), any::<u8>()).prop_map(|(zero_copy, acl)| {
            Op::PipeBetween(
                zero_copy,
                [None, Some(true), Some(false)][usize::from(acl % 3)],
            )
        }),
        any::<u16>().prop_map(Op::ReadStderr),
        Just(Op::ResetClock),
        (any::<u8>(), any::<bool>()).prop_map(|(fd, on)| Op::SetNonblocking(fd, on)),
        (any::<u8>(), any::<u16>()).prop_map(|(fd, len)| Op::SocketSendAccounted(fd, len)),
    ]
}

/// The fixture every sequence starts from: one process with a few
/// files open, a pipe pair, and a socket — enough live descriptors
/// that generated small fd numbers usually hit *something*.
fn fixture() -> (KernelState, Pid) {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("prop");
    for i in 0..4u64 {
        let f = k.create_synthetic_file(&format!("/seed{i}"), 1000 + i * 700, i);
        k.open_file(pid, f);
    }
    k.pipe_fds(pid, PipeMode::ZeroCopy);
    k.socket_create(pid, BufferMode::ZeroCopy, 1460, 64 * 1024);
    (k.snapshot(), pid)
}

/// Lowers an [`Op`] to a real [`Command`] against the fixture. Payload
/// aggregates are built once, outside both folds, so each fold sees
/// literally the same `Command` values — exactly what the journal
/// replays.
fn lower(state: &KernelState, pid: Pid, op: &Op) -> Command {
    let fd = |n: u8| Fd(u32::from(n % 12));
    let file = |n: u8| FileId(u64::from(n % 6));
    // Ids 0–7 mostly name live objects of the fixture and of earlier
    // ops; the rest of the `u16` range is dangling. Half of each.
    let object = |kind: u8, id: u16| {
        let id = if kind & 4 == 0 { id % 8 } else { id };
        match kind % 4 {
            0 => FdObject::File(FileId(u64::from(id))),
            1 => FdObject::PipeRead(PipeId(u32::from(id))),
            2 => FdObject::PipeWrite(PipeId(u32::from(id))),
            _ => FdObject::Socket(ConnId(u64::from(id))),
        }
    };
    let mode = |zero_copy: bool| {
        if zero_copy {
            PipeMode::ZeroCopy
        } else {
            PipeMode::Copy
        }
    };
    match op {
        Op::Charge(us) => Command::Charge {
            category: CostCategory::Syscall,
            charge: iolite_core::Charge::us(f64::from(*us) / 16.0),
            copied: u64::from(*us % 3),
        },
        Op::Advance(us) => Command::Advance {
            t: SimTime::from_us(f64::from(*us) / 16.0),
        },
        Op::ContextSwitch(n) => Command::ContextSwitch { n: u64::from(*n) },
        Op::CreateSyntheticFile(n, len) => Command::CreateSyntheticFile {
            name: format!("/gen{}", n % 8),
            len: u64::from(*len),
            seed: u64::from(*n),
        },
        Op::Open(n) => Command::Open {
            pid,
            path: format!("/seed{}", n % 4),
        },
        Op::OpenMissing(n) => Command::Open {
            pid,
            path: format!("/nope{n}"),
        },
        Op::CloseFd(n) => Command::CloseFd { pid, fd: fd(*n) },
        Op::DupFd(n) => Command::DupFd { pid, fd: fd(*n) },
        Op::Lseek(n, off) => Command::Lseek {
            pid,
            fd: fd(*n),
            offset: i64::from(*off),
            whence: iolite_core::Whence::Set,
        },
        Op::IolRead(n, len) => Command::IolReadFd {
            pid,
            fd: fd(*n),
            len: u64::from(*len),
        },
        Op::IolWrite(n, len) => Command::IolWriteFd {
            pid,
            fd: fd(*n),
            agg: payload(state, pid, *len),
        },
        Op::PosixRead(n, len) => Command::PosixReadFd {
            pid,
            fd: fd(*n),
            len: u64::from(*len),
        },
        Op::PosixWrite(n, len) => Command::PosixWriteFd {
            pid,
            fd: fd(*n),
            data: vec![0xAB; usize::from(*len % 4096)],
        },
        Op::Pread(n, o, l) => Command::IolPread {
            pid,
            fd: fd(*n),
            offset: u64::from(*o),
            len: u64::from(*l),
        },
        Op::PipeFds(zero_copy) => Command::PipeFds {
            pid,
            mode: mode(*zero_copy),
        },
        Op::SocketCreate(zero_copy) => Command::SocketCreate {
            pid,
            mode: if *zero_copy {
                BufferMode::ZeroCopy
            } else {
                BufferMode::Copy
            },
            mss: 1460,
            tss: 64 * 1024,
        },
        Op::SocketDrain(n, max) => Command::SocketDrain {
            pid,
            fd: fd(*n),
            max: u64::from(*max),
        },
        Op::CachePin(n) => Command::CachePin {
            key: CacheKey::whole(file(*n)),
        },
        Op::CacheUnpin(n) => Command::CacheUnpin {
            key: CacheKey::whole(file(*n)),
        },
        Op::MappedRead(n, cached) => Command::MappedRead {
            pid,
            fd: fd(*n),
            cached: *cached,
        },
        Op::MemReserve(b) => Command::MemReserve {
            account: MemAccount::SocketCopies,
            bytes: u64::from(*b),
        },
        Op::MemRelease(b) => Command::MemRelease {
            account: MemAccount::SocketCopies,
            bytes: u64::from(*b),
        },
        Op::RebalanceCache => Command::RebalanceCache,
        Op::SetChecksumCache(on) => Command::SetChecksumCache { enabled: *on },
        Op::FeedStdin(len) => Command::FeedStdin {
            pid,
            data: payload(state, pid, u16::from(*len)),
        },
        Op::ReadStdout(max) => Command::ReadStdout {
            pid,
            max: u64::from(*max),
        },
        Op::PutInstall(n, len) => Command::PutInstall {
            pid,
            file: file(*n),
            agg: payload(state, pid, *len),
        },
        // 0 means "the configured batch".
        Op::WriteBack(max) => Command::WriteBack {
            max_bytes: u64::from(*max),
        },
        Op::NvmDemote => Command::NvmDemote {},
        // Small thresholds and tiers, so short sequences cross them:
        // armed flushes, NVM overflow to disk, and a disabled tier.
        Op::SetWriteback(n) => Command::SetWriteback {
            cfg: WritebackConfig {
                dirty_threshold_bytes: u64::from(n % 4) * 1024,
                flush_batch_bytes: u64::from(n / 4 % 4 + 1) * 2048,
                nvm_capacity_bytes: u64::from(n / 16 % 4) * 4096,
                nvm_drain_bytes: u64::from(n / 64 + 1) * 1024,
                ..WritebackConfig::default_tuning()
            },
        },
        Op::CacheInstall(n, len) => Command::CacheInstall {
            file: file(*n),
            data: vec![0xEF; usize::from(*len % 4096)],
        },
        Op::CacheInvalidate(n) => Command::CacheInvalidate {
            key: CacheKey::whole(file(*n)),
        },
        Op::SocketDeliver(n, len) => Command::SocketDeliver {
            pid,
            fd: fd(*n),
            payload: payload(state, pid, *len),
        },
        Op::SocketPeerClose(n) => Command::SocketPeerClose { pid, fd: fd(*n) },
        Op::Pwrite(n, o, l) => Command::IolPwrite {
            pid,
            fd: fd(*n),
            offset: u64::from(*o),
            agg: payload(state, pid, *l),
        },
        Op::Dup2Fd(src, dst) => Command::Dup2Fd {
            pid,
            src: fd(*src),
            dst: fd(*dst),
        },
        Op::Poll(n) => Command::Poll {
            pid,
            fds: (0..12).map(|i| fd(n.wrapping_add(i))).collect(),
        },
        Op::InstallFd(kind, id) => Command::InstallFd {
            pid,
            object: object(*kind, *id),
        },
        Op::InstallFdAt(at, kind, id) => Command::InstallFdAt {
            pid,
            at: fd(*at),
            object: object(*kind, *id),
        },
        Op::Spawn(n) => Command::Spawn {
            name: format!("spawned{n}"),
        },
        Op::CreatePool(shared) => Command::CreatePool {
            acl: if *shared {
                Acl::with_domain(pid.domain())
            } else {
                Acl::kernel_only()
            },
        },
        Op::IdNamespace(shard) => Command::IdNamespace {
            shard: usize::from(shard % 4),
        },
        Op::CreateFile(n, len) => Command::CreateFile {
            name: format!("/explicit{}", n % 8),
            data: vec![0x5A; usize::from(*len % 4096)],
        },
        Op::OpenFile(n) => Command::OpenFile {
            pid,
            file: file(*n),
        },
        // `Some(false)`: an ACL that refuses the reader's domain.
        Op::PipeBetween(zero_copy, acl) => Command::PipeBetween {
            writer: pid,
            reader: pid,
            mode: mode(*zero_copy),
            acl: acl.map(|admits| {
                if admits {
                    Acl::with_domain(pid.domain())
                } else {
                    Acl::kernel_only()
                }
            }),
        },
        Op::ReadStderr(max) => Command::ReadStderr {
            pid,
            max: u64::from(*max),
        },
        Op::ResetClock => Command::ResetClock,
        Op::SetNonblocking(n, on) => Command::SetNonblocking {
            pid,
            fd: fd(*n),
            nonblocking: *on,
        },
        Op::SocketSendAccounted(n, len) => Command::SocketSendAccounted {
            pid,
            fd: fd(*n),
            len: u64::from(*len),
        },
    }
}

fn payload(state: &KernelState, pid: Pid, len: u16) -> iolite_buf::Aggregate {
    let pool = state.process(pid).pool().clone();
    iolite_buf::Aggregate::from_bytes(&pool, &vec![0xCD; usize::from(len % 4096) + 1])
}

/// One fold of the whole sequence through [`step`], collecting the
/// final digest and the concatenated effect stream (with per-command
/// boundaries, so reordering between commands can't cancel out).
fn run(initial: &KernelState, cmds: &[Command]) -> (u64, Vec<(usize, Effect)>) {
    let mut state = initial.snapshot();
    let mut all = Vec::new();
    let mut fx = Vec::new();
    for (i, cmd) in cmds.iter().enumerate() {
        fx.clear();
        let _ = step(&mut state, cmd, &mut fx);
        all.extend(fx.iter().map(|e| (i, *e)));
    }
    (state.state_hash(), all)
}

/// One of each [`Op`], in declaration order.
fn one_of_each() -> Vec<Op> {
    vec![
        Op::Charge(1),
        Op::Advance(1),
        Op::ContextSwitch(1),
        Op::CreateSyntheticFile(1, 1),
        Op::Open(1),
        Op::OpenMissing(1),
        Op::CloseFd(1),
        Op::DupFd(1),
        Op::Lseek(1, 1),
        Op::IolRead(1, 1),
        Op::IolWrite(1, 1),
        Op::PosixRead(1, 1),
        Op::PosixWrite(1, 1),
        Op::Pread(1, 1, 1),
        Op::PipeFds(true),
        Op::SocketCreate(true),
        Op::SocketDrain(1, 1),
        Op::CachePin(1),
        Op::CacheUnpin(1),
        Op::MappedRead(1, true),
        Op::MemReserve(1),
        Op::MemRelease(1),
        Op::RebalanceCache,
        Op::SetChecksumCache(true),
        Op::FeedStdin(1),
        Op::ReadStdout(1),
        Op::PutInstall(1, 1),
        Op::WriteBack(1),
        Op::NvmDemote,
        Op::SetWriteback(1),
        Op::CacheInstall(1, 1),
        Op::CacheInvalidate(1),
        Op::SocketDeliver(1, 1),
        Op::SocketPeerClose(1),
        Op::Pwrite(1, 1, 1),
        Op::Dup2Fd(1, 1),
        Op::Poll(1),
        Op::InstallFd(1, 1),
        Op::InstallFdAt(1, 1, 1),
        Op::Spawn(1),
        Op::CreatePool(true),
        Op::IdNamespace(1),
        Op::CreateFile(1, 1),
        Op::OpenFile(1),
        Op::PipeBetween(true, Some(true)),
        Op::ReadStderr(1),
        Op::ResetClock,
        Op::SetNonblocking(1, true),
        Op::SocketSendAccounted(1, 1),
    ]
}

/// The generator covers the whole operation table: one of each [`Op`]
/// lowers to this many distinct [`Command`] variants, which is all of
/// them. A new kernel operation moves this number once its `Op` is
/// added.
#[test]
fn the_generator_reaches_every_command() {
    let (state, pid) = fixture();
    let mut seen: Vec<Discriminant<Command>> = Vec::new();
    for op in one_of_each() {
        let kind = discriminant(&lower(&state, pid, &op));
        if !seen.contains(&kind) {
            seen.push(kind);
        }
    }
    assert_eq!(seen.len(), 48);
}

proptest! {
    /// `step` is a pure function of (state, command): two folds
    /// of the same sequence from the same state are indistinguishable.
    #[test]
    fn prop_apply_deterministic(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let (initial, pid) = fixture();
        let cmds: Vec<Command> = ops.iter().map(|op| lower(&initial, pid, op)).collect();
        let (hash_a, fx_a) = run(&initial, &cmds);
        let (hash_b, fx_b) = run(&initial, &cmds);
        prop_assert_eq!(hash_a, hash_b, "state digests diverged");
        prop_assert_eq!(fx_a, fx_b, "effect streams diverged");
        // And the starting state was left untouched by both folds.
        prop_assert_eq!(initial.state_hash(), fixture().0.state_hash());
    }
}
