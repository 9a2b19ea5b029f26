//! Determinism property for the functional core: applying an arbitrary
//! command sequence twice from the same starting state produces
//! byte-identical successor states (by [`KernelState::state_hash`]) and
//! identical effect streams.
//!
//! The commands deliberately include rejected ones (bad descriptors,
//! reads past EOF, writes to closed pipes): [`iolite_core::step`] must
//! be deterministic on the error paths too, because the journal records
//! attempts and replay re-steps them.

use iolite_core::{
    step, Command, ConnId, CostCategory, CostModel, Effect, Fd, FdObject, Kernel, KernelState, Pid,
    PipeId, PollFd,
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
    CreateFile(u8, u16),
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
    SocketCreate,
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
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u16>().prop_map(Op::Charge),
        any::<u16>().prop_map(Op::Advance),
        any::<u8>().prop_map(Op::ContextSwitch),
        (any::<u8>(), any::<u16>()).prop_map(|(n, len)| Op::CreateFile(n, len)),
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
        Just(Op::SocketCreate),
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
        Op::CreateFile(n, len) => Command::CreateSyntheticFile {
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
            mode: if *zero_copy {
                PipeMode::ZeroCopy
            } else {
                PipeMode::Copy
            },
        },
        Op::SocketCreate => Command::SocketCreate {
            pid,
            mode: BufferMode::ZeroCopy,
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
            fds: (0..12).map(|i| PollFd::readable(fd(n.wrapping_add(i)))).collect(),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
