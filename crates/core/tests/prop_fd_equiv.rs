//! Descriptor-layer equivalence: the array-indexed structures against
//! what they replaced.
//!
//! * [`FdRegistry`] (slot tables over a description slab, last close by
//!   live-description count) against the registry it replaced — a
//!   `BTreeMap` of `BTreeMap`s of `Arc<Mutex<OpenFile>>`, lowest-free by
//!   walking the keys, last close by scanning every table — kept below
//!   as the model. Under random `install`/`install_at`/`dup`/`dup2`/
//!   `close`/seek/fork sequences over three pids and all four object
//!   kinds, failing calls included, both must hand out the same number
//!   from every call, keep the same object and the same *shared* offset
//!   behind every number, report the same last-close events, and fold
//!   the same digest bytes (`state_hash` hangs off them) — down to the
//!   quirk that a failed call on a never-seen pid materialises its
//!   empty table.
//! * The same last-close events end to end: a [`Kernel`] driven by a
//!   random descriptor sequence shows pipe EOF, `reader_gone` and
//!   socket teardown exactly when the model says the last descriptor
//!   went away.
//! * `MappedFileCache` (stamp-ordered victim index) against the
//!   all-entries scan it replaced.
//! * Two clock-free complexity guards: neither `open` nor a socket's
//!   last `close` may scale with the number of open descriptors.
#![expect(
    clippy::disallowed_types,
    reason = "the reference models are the replaced code verbatim: the pre-PR-20 `Arc<Mutex>` registry and the `HashMap` scans"
)]

use std::collections::{BTreeMap, BTreeSet, HashMap};

use iolite_buf::Fnv64;
use iolite_core::fd::FdRegistry;
use iolite_core::{
    ConnId, CostModel, Fd, FdObject, IolError, Kernel, MappedFileCache, Pid, PipeId, FD_LIMIT,
};
use iolite_fs::FileId;
use iolite_ipc::PipeMode;
use iolite_net::BufferMode;
use proptest::prelude::*;

/// The replaced registry, verbatim in behaviour.
mod model {
    use std::collections::{BTreeMap, HashMap};
    use std::sync::{Arc, Mutex};

    use iolite_buf::Fnv64;
    use iolite_core::{Fd, FdObject, Pid};

    #[derive(Debug)]
    pub struct OpenFile {
        pub object: FdObject,
        pub pos: u64,
    }

    pub type OpenFileRef = Arc<Mutex<OpenFile>>;

    fn fresh(object: FdObject) -> OpenFileRef {
        Arc::new(Mutex::new(OpenFile { object, pos: 0 }))
    }

    #[derive(Debug, Default)]
    pub struct FdTable {
        entries: BTreeMap<Fd, OpenFileRef>,
    }

    impl FdTable {
        fn lowest_free(&self) -> Fd {
            let mut n = 0u32;
            for fd in self.entries.keys() {
                if fd.0 == n {
                    n += 1;
                } else {
                    break;
                }
            }
            Fd(n)
        }

        pub fn install(&mut self, object: FdObject) -> Fd {
            let fd = self.lowest_free();
            self.entries.insert(fd, fresh(object));
            fd
        }

        pub fn install_at(&mut self, at: Fd, object: FdObject) -> Option<OpenFileRef> {
            self.entries.insert(at, fresh(object))
        }

        pub fn dup(&mut self, fd: Fd) -> Option<Fd> {
            let desc = self.entries.get(&fd)?.clone();
            let new = self.lowest_free();
            self.entries.insert(new, desc);
            Some(new)
        }

        pub fn dup2(&mut self, src: Fd, dst: Fd) -> Option<Option<OpenFileRef>> {
            let desc = self.entries.get(&src)?.clone();
            if src == dst {
                return Some(None);
            }
            Some(self.entries.insert(dst, desc))
        }

        pub fn get(&self, fd: Fd) -> Option<OpenFileRef> {
            self.entries.get(&fd).cloned()
        }

        pub fn close(&mut self, fd: Fd) -> Option<OpenFileRef> {
            self.entries.remove(&fd)
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        fn iter(&self) -> impl Iterator<Item = (Fd, FdObject)> + '_ {
            self.entries
                .iter()
                .map(|(fd, of)| (*fd, of.lock().unwrap().object))
        }

        fn fork(&self, shared: &mut HashMap<usize, OpenFileRef>) -> FdTable {
            let entries = self
                .entries
                .iter()
                .map(|(fd, desc)| {
                    let key = Arc::as_ptr(desc) as usize;
                    let twin = shared
                        .entry(key)
                        .or_insert_with(|| {
                            let of = desc.lock().unwrap();
                            Arc::new(Mutex::new(OpenFile {
                                object: of.object,
                                pos: of.pos,
                            }))
                        })
                        .clone();
                    (*fd, twin)
                })
                .collect();
            FdTable { entries }
        }
    }

    #[derive(Debug, Default)]
    pub struct FdRegistry {
        tables: BTreeMap<Pid, FdTable>,
    }

    impl FdRegistry {
        pub fn table(&mut self, pid: Pid) -> &mut FdTable {
            self.tables.entry(pid).or_default()
        }

        pub fn get_table(&self, pid: Pid) -> Option<&FdTable> {
            self.tables.get(&pid)
        }

        pub fn object_referenced(&self, object: FdObject) -> bool {
            self.tables
                .values()
                .any(|t| t.iter().any(|(_, obj)| obj == object))
        }

        pub fn fork(&self) -> FdRegistry {
            let mut shared = HashMap::new();
            FdRegistry {
                tables: self
                    .tables
                    .iter()
                    .map(|(pid, t)| (*pid, t.fork(&mut shared)))
                    .collect(),
            }
        }

        pub fn digest(&self, h: &mut Fnv64) {
            let mut alias: HashMap<usize, u64> = HashMap::new();
            h.write_usize(self.tables.len());
            for (pid, t) in &self.tables {
                h.write_u32(pid.0);
                h.write_usize(t.entries.len());
                for (fd, desc) in &t.entries {
                    h.write_u32(fd.0);
                    let key = Arc::as_ptr(desc) as usize;
                    let next = alias.len() as u64;
                    h.write_u64(*alias.entry(key).or_insert(next));
                    let of = desc.lock().unwrap();
                    let (tag, id) = match of.object {
                        FdObject::File(f) => (0u64, f.0),
                        FdObject::PipeRead(p) => (1, p.0 as u64),
                        FdObject::PipeWrite(p) => (2, p.0 as u64),
                        FdObject::Socket(c) => (3, c.0),
                    };
                    h.write_u64(tag);
                    h.write_u64(id);
                    h.write_u64(of.pos);
                }
            }
        }
    }
}

/// The model registry plus the replaced kernel glue around it: the
/// `NotOpen` mapping of `ops_fd.rs`, `finalize_close`'s "files never,
/// others when no descriptor anywhere still refers to the object", and
/// the one new rule — caller-chosen numbers stop at [`FD_LIMIT`].
#[derive(Default)]
struct Model(model::FdRegistry);

impl Model {
    fn orphaned(&self, displaced: Option<model::OpenFileRef>) -> Option<FdObject> {
        let object = displaced?.lock().unwrap().object;
        let counted = !matches!(object, FdObject::File(_));
        (counted && !self.0.object_referenced(object)).then_some(object)
    }

    fn install_at(
        &mut self,
        pid: Pid,
        at: Fd,
        object: FdObject,
    ) -> Result<Option<FdObject>, IolError> {
        let table = self.0.table(pid);
        if at.0 >= FD_LIMIT {
            return Err(IolError::NotOpen { fd: at });
        }
        let displaced = table.install_at(at, object);
        Ok(self.orphaned(displaced))
    }

    fn dup(&mut self, pid: Pid, fd: Fd) -> Result<Fd, IolError> {
        self.0.table(pid).dup(fd).ok_or(IolError::NotOpen { fd })
    }

    fn dup2(&mut self, pid: Pid, src: Fd, dst: Fd) -> Result<Option<FdObject>, IolError> {
        let table = self.0.table(pid);
        if src != dst && dst.0 >= FD_LIMIT && table.get(src).is_some() {
            return Err(IolError::NotOpen { fd: dst });
        }
        let displaced = table.dup2(src, dst).ok_or(IolError::NotOpen { fd: src })?;
        Ok(self.orphaned(displaced))
    }

    fn close(&mut self, pid: Pid, fd: Fd) -> Result<Option<FdObject>, IolError> {
        let removed = self
            .0
            .table(pid)
            .close(fd)
            .ok_or(IolError::NotOpen { fd })?;
        Ok(self.orphaned(Some(removed)))
    }

    fn set_pos(&mut self, pid: Pid, fd: Fd, pos: u64) -> bool {
        let desc = self.0.get_table(pid).and_then(|t| t.get(fd));
        desc.map(|d| d.lock().unwrap().pos = pos).is_some()
    }

    fn get(&self, pid: Pid, fd: Fd) -> Option<(FdObject, u64)> {
        let desc = self.0.get_table(pid)?.get(fd)?;
        let of = desc.lock().unwrap();
        Some((of.object, of.pos))
    }
}

#[derive(Debug, Clone)]
enum Op {
    Install(u8, u8, u8),
    InstallAt(u8, u32, u8, u8),
    Dup(u8, u32),
    Dup2(u8, u32, u32),
    Close(u8, u32),
    Seek(u8, u32, u64),
    Advance(u8, u32, u64),
    Fork,
}

/// Mostly small numbers (so calls collide), sometimes a jump (so gaps
/// open below the top), sometimes the limit or far beyond it (so
/// refusals are exercised; the last *legal* number allocates a
/// 2^20-slot table, which the unit tests in `fd.rs` do once).
fn fd_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..10,
        0u32..10,
        0u32..10,
        0u32..10,
        40u32..44,
        1000u32..1002,
        FD_LIMIT..FD_LIMIT + 2,
        any::<u32>(),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let pid = || 0u8..3;
    prop_oneof![
        (pid(), 0u8..4, 0u8..3).prop_map(|(p, k, i)| Op::Install(p, k, i)),
        (pid(), 0u8..4, 0u8..3).prop_map(|(p, k, i)| Op::Install(p, k, i)),
        (pid(), fd_strategy(), 0u8..4, 0u8..3).prop_map(|(p, at, k, i)| Op::InstallAt(p, at, k, i)),
        (pid(), fd_strategy()).prop_map(|(p, fd)| Op::Dup(p, fd)),
        (pid(), fd_strategy(), fd_strategy()).prop_map(|(p, s, d)| Op::Dup2(p, s, d)),
        (pid(), fd_strategy()).prop_map(|(p, fd)| Op::Close(p, fd)),
        (pid(), fd_strategy()).prop_map(|(p, fd)| Op::Close(p, fd)),
        (pid(), fd_strategy(), any::<u64>()).prop_map(|(p, fd, pos)| Op::Seek(p, fd, pos)),
        (pid(), fd_strategy(), any::<u64>()).prop_map(|(p, fd, n)| Op::Advance(p, fd, n)),
        Just(Op::Fork),
    ]
}

fn pid_of(p: u8) -> Pid {
    Pid(u32::from(p) + 1)
}

fn object_of(kind: u8, id: u8) -> FdObject {
    let id = u32::from(id) + 1;
    match kind {
        0 => FdObject::File(FileId(u64::from(id))),
        1 => FdObject::PipeRead(PipeId(id)),
        2 => FdObject::PipeWrite(PipeId(id)),
        _ => FdObject::Socket(ConnId(u64::from(id))),
    }
}

/// Every number an op sequence can have made interesting.
fn probed_fds() -> impl Iterator<Item = Fd> {
    let far = [
        999,
        1000,
        1001,
        1002,
        FD_LIMIT - 1,
        FD_LIMIT,
        FD_LIMIT + 1,
        u32::MAX,
    ];
    (0..48).chain(far).map(Fd)
}

fn assert_same_state(reg: &FdRegistry, model: &Model, step: usize) {
    for pid in (0..3).map(pid_of) {
        assert_eq!(
            reg.get_table(pid).map(|t| (t.len(), t.is_empty())),
            model.0.get_table(pid).map(|t| (t.len(), t.len() == 0)),
            "step {step}: {pid:?} table existence and size"
        );
        for fd in probed_fds() {
            assert_eq!(
                reg.get(pid, fd).map(|of| (of.object, of.pos)),
                model.get(pid, fd),
                "step {step}: {pid:?} {fd:?}"
            );
        }
    }
    let (mut a, mut b) = (Fnv64::new(), Fnv64::new());
    reg.digest(&mut a);
    model.0.digest(&mut b);
    assert_eq!(a.finish(), b.finish(), "step {step}: digest bytes");
}

proptest! {
    #[test]
    fn registry_matches_the_btree_and_mutex_model(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut reg = FdRegistry::new();
        let mut model = Model::default();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Install(p, k, i) => {
                    let (pid, object) = (pid_of(p), object_of(k, i));
                    prop_assert_eq!(
                        reg.install(pid, object),
                        model.0.table(pid).install(object),
                        "step {}: {:?}", step, op
                    );
                }
                Op::InstallAt(p, at, k, i) => {
                    let (pid, object) = (pid_of(p), object_of(k, i));
                    prop_assert_eq!(
                        reg.install_at(pid, Fd(at), object),
                        model.install_at(pid, Fd(at), object),
                        "step {}: {:?}", step, op
                    );
                }
                Op::Dup(p, fd) => prop_assert_eq!(
                    reg.dup(pid_of(p), Fd(fd)),
                    model.dup(pid_of(p), Fd(fd)),
                    "step {}: {:?}", step, op
                ),
                Op::Dup2(p, src, dst) => prop_assert_eq!(
                    reg.dup2(pid_of(p), Fd(src), Fd(dst)),
                    model.dup2(pid_of(p), Fd(src), Fd(dst)),
                    "step {}: {:?}", step, op
                ),
                Op::Close(p, fd) => prop_assert_eq!(
                    reg.close(pid_of(p), Fd(fd)),
                    model.close(pid_of(p), Fd(fd)),
                    "step {}: {:?}", step, op
                ),
                Op::Seek(p, fd, pos) => prop_assert_eq!(
                    reg.set_pos(pid_of(p), Fd(fd), pos),
                    model.set_pos(pid_of(p), Fd(fd), pos),
                    "step {}: {:?}", step, op
                ),
                Op::Advance(p, fd, n) => {
                    let (pid, fd) = (pid_of(p), Fd(fd));
                    reg.advance(pid, fd, n);
                    if let Some((_, pos)) = model.get(pid, fd) {
                        model.set_pos(pid, fd, pos.saturating_add(n));
                    }
                }
                // Carry on with the forks: every later call checks that
                // sharing, free numbers and counts all came along.
                Op::Fork => {
                    reg = reg.clone();
                    model = Model(model.0.fork());
                }
            }
            assert_same_state(&reg, &model, step);
        }
    }
}

// ---- last close, end to end --------------------------------------------

#[derive(Debug, Clone)]
enum KOp {
    Install(u8, u8),
    InstallAt(u8, u32, u8),
    Dup(u8, u32),
    Dup2(u8, u32, u32),
    Close(u8, u32),
}

fn kop_strategy() -> impl Strategy<Value = KOp> {
    let (pid, fd, obj) = (|| 0u8..3, || 0u32..9, || 0u8..7);
    prop_oneof![
        (pid(), obj()).prop_map(|(p, o)| KOp::Install(p, o)),
        (pid(), fd(), obj()).prop_map(|(p, at, o)| KOp::InstallAt(p, at, o)),
        (pid(), fd()).prop_map(|(p, fd)| KOp::Dup(p, fd)),
        (pid(), fd(), fd()).prop_map(|(p, s, d)| KOp::Dup2(p, s, d)),
        (pid(), fd()).prop_map(|(p, fd)| KOp::Close(p, fd)),
        (pid(), fd()).prop_map(|(p, fd)| KOp::Close(p, fd)),
        (pid(), fd()).prop_map(|(p, fd)| KOp::Close(p, fd)),
    ]
}

/// The last-close actions applied so far, as observable from outside:
/// readers see EOF (the last write end went), writers see `EPIPE` (that,
/// or the last read end went — `reader_gone`), a socket is torn down.
#[derive(Default, Debug, PartialEq)]
struct LastCloses {
    pipe_eof: BTreeMap<PipeId, bool>,
    pipe_epipe: BTreeMap<PipeId, bool>,
    torn_down: BTreeMap<ConnId, bool>,
}

impl LastCloses {
    /// What the model predicts the kernel does with `orphan`.
    fn apply(&mut self, orphan: Option<FdObject>) {
        match orphan {
            Some(FdObject::PipeWrite(id)) => {
                self.pipe_eof.insert(id, true);
                self.pipe_epipe.insert(id, true);
            }
            Some(FdObject::PipeRead(id)) => {
                self.pipe_epipe.insert(id, true);
            }
            Some(FdObject::Socket(id)) => {
                self.torn_down.insert(id, true);
            }
            Some(FdObject::File(_)) | None => {}
        }
    }
}

/// Reads the same facts off the real kernel. Polling needs descriptors
/// of its own, so the probes run against a snapshot, in a process the
/// op sequence never touches.
fn observe(k: &Kernel, probe: Pid, pipes: &[PipeId], socks: &[ConnId]) -> LastCloses {
    let mut k = Kernel::from_state(k.snapshot());
    let mut epipe = |object| {
        let fd = k.install_fd(probe, object);
        k.iol_poll(probe, &[fd])[0].epipe
    };
    let mut seen = LastCloses::default();
    for &id in pipes {
        seen.pipe_epipe.insert(id, epipe(FdObject::PipeWrite(id)));
    }
    for &id in socks {
        seen.torn_down.insert(id, epipe(FdObject::Socket(id)));
    }
    for &id in pipes {
        seen.pipe_eof.insert(id, k.pipe(id).is_closed());
    }
    seen
}

proptest! {
    #[test]
    fn kernel_applies_last_close_exactly_when_the_model_says(
        ops in proptest::collection::vec(kop_strategy(), 1..50),
    ) {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let pids = [k.spawn("a"), k.spawn("b"), k.spawn("c")];
        let probe = k.spawn("probe");
        let file = k.create_file("/f", b"x");
        k.open_file(pids[0], file);
        k.pipe_fds(pids[0], PipeMode::ZeroCopy);
        k.pipe_between(pids[1], pids[2], PipeMode::Copy);
        k.socket_create(pids[1], BufferMode::ZeroCopy, 1460, 64 * 1024);
        k.socket_create(pids[2], BufferMode::Copy, 1460, 64 * 1024);

        // Mirror the fixture into the model, number by number (nothing
        // in it is a `dup`, so every number is its own description).
        let mut model = Model::default();
        let (mut pipes, mut socks) = (BTreeSet::new(), Vec::new());
        for pid in pids.into_iter().chain([probe]) {
            for fd in (0..8).map(Fd) {
                let Ok(object) = k.fd_object(pid, fd) else { continue };
                model.install_at(pid, fd, object).unwrap();
                match object {
                    FdObject::PipeRead(id) | FdObject::PipeWrite(id) => drop(pipes.insert(id)),
                    FdObject::Socket(id) => socks.push(id),
                    FdObject::File(_) => {}
                }
            }
        }
        // Console pipes first (minted at spawn), the two explicit ones last.
        let pipes: Vec<PipeId> = pipes.into_iter().collect();
        let objects: Vec<FdObject> = vec![
            FdObject::File(file),
            FdObject::PipeRead(pipes[pipes.len() - 1]),
            FdObject::PipeWrite(pipes[pipes.len() - 1]),
            FdObject::PipeRead(pipes[pipes.len() - 2]),
            FdObject::PipeWrite(pipes[pipes.len() - 2]),
            FdObject::Socket(socks[0]),
            FdObject::Socket(socks[1]),
        ];

        let mut expected = LastCloses::default();
        for &id in &pipes {
            expected.pipe_eof.insert(id, false);
            expected.pipe_epipe.insert(id, false);
        }
        for &id in &socks {
            expected.torn_down.insert(id, false);
        }
        prop_assert_eq!(&observe(&k, probe, &pipes, &socks), &expected, "fixture");

        for (step, op) in ops.iter().enumerate() {
            match *op {
                KOp::Install(p, o) => {
                    let (pid, object) = (pids[usize::from(p)], objects[usize::from(o)]);
                    prop_assert_eq!(
                        k.install_fd(pid, object),
                        model.0.table(pid).install(object),
                        "step {}: {:?}", step, op
                    );
                }
                KOp::InstallAt(p, at, o) => {
                    let (pid, object) = (pids[usize::from(p)], objects[usize::from(o)]);
                    prop_assert_eq!(k.install_fd_at(pid, Fd(at), object), Ok(Fd(at)));
                    expected.apply(model.install_at(pid, Fd(at), object).unwrap());
                }
                KOp::Dup(p, fd) => {
                    let pid = pids[usize::from(p)];
                    prop_assert_eq!(k.dup_fd(pid, Fd(fd)), model.dup(pid, Fd(fd)));
                }
                KOp::Dup2(p, src, dst) => {
                    let pid = pids[usize::from(p)];
                    let orphan = model.dup2(pid, Fd(src), Fd(dst));
                    prop_assert_eq!(k.dup2_fd(pid, Fd(src), Fd(dst)), orphan.map(|_| Fd(dst)));
                    expected.apply(orphan.unwrap_or(None));
                }
                KOp::Close(p, fd) => {
                    let pid = pids[usize::from(p)];
                    let orphan = model.close(pid, Fd(fd));
                    prop_assert_eq!(k.close_fd(pid, Fd(fd)), orphan.map(|_| ()));
                    expected.apply(orphan.unwrap_or(None));
                }
            }
            prop_assert_eq!(
                &observe(&k, probe, &pipes, &socks), &expected,
                "step {}: {:?}", step, op
            );
        }
    }
}

// ---- the mapped-file cache ------------------------------------------------

/// The replaced `MappedFileCache`, verbatim in behaviour: the victim is
/// found by scanning every entry for the oldest stamp.
struct ScanMapped {
    capacity: usize,
    clock: u64,
    entries: HashMap<FileId, u64>,
}

impl ScanMapped {
    fn touch(&mut self, file: FileId) -> bool {
        self.clock += 1;
        if self.capacity == 0 {
            return false;
        }
        if let Some(stamp) = self.entries.get_mut(&file) {
            *stamp = self.clock;
            return true;
        }
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .map(|(&f, _)| f);
            if let Some(victim) = victim {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(file, self.clock);
        false
    }

    fn digest(&self, h: &mut Fnv64) {
        h.write_usize(self.capacity);
        h.write_u64(self.clock);
        h.write_usize(self.entries.len());
        let mut files: Vec<FileId> = self.entries.keys().copied().collect();
        files.sort_unstable();
        for f in files {
            h.write_u64(f.0);
            h.write_u64(self.entries[&f]);
        }
    }
}

proptest! {
    #[test]
    fn mapped_file_cache_matches_the_scan_model(
        capacity in 0usize..9,
        touches in proptest::collection::vec(0u64..24, 1..200),
    ) {
        let mut cache = MappedFileCache::new(capacity);
        let mut model = ScanMapped { capacity, clock: 0, entries: HashMap::new() };
        for (step, &f) in touches.iter().enumerate() {
            prop_assert_eq!(cache.touch(FileId(f)), model.touch(FileId(f)), "touch {}", step);
            prop_assert_eq!(cache.len(), model.entries.len(), "touch {}", step);
            prop_assert_eq!(cache.is_empty(), model.entries.is_empty());
            let (mut a, mut b) = (Fnv64::new(), Fnv64::new());
            cache.digest(&mut a);
            model.digest(&mut b);
            prop_assert_eq!(a.finish(), b.finish(), "touch {}: digest bytes", step);
        }
    }
}

// ---- complexity guards ----------------------------------------------------

/// A server's `open` must not pay for its open set. 2^18 descriptors
/// held open, then 2^18 open/close pairs: milliseconds when the lowest
/// free number is found without walking the open ones; ~7·10^10 key
/// comparisons (minutes to hours) under the walk this replaced. No
/// clock: a regression shows as a suite that never finishes.
#[test]
fn open_cost_does_not_scale_with_open_descriptors() {
    const HELD: u32 = 1 << 18;
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("server");
    let file = k.create_file("/doc", b"x");
    for _ in 0..HELD {
        k.open_file(pid, file);
    }
    for _ in 0..HELD {
        let fd = k.open_file(pid, file);
        assert_eq!(
            fd,
            Fd(3 + HELD),
            "the lowest free number, past the stdio triple"
        );
        k.close_fd(pid, fd).unwrap();
    }
    // A hole far below the top is still found first.
    k.close_fd(pid, Fd(1000)).unwrap();
    assert_eq!(k.open_file(pid, file), Fd(1000));
}

/// A socket's last close must not pay for the open set either: the
/// replaced `object_referenced` locked every descriptor of every
/// process per close — 2^15 closes over 2^18 descriptors is ~9·10^9
/// lock round trips.
#[test]
fn close_cost_does_not_scale_with_open_descriptors() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let (server, other) = (k.spawn("server"), k.spawn("other"));
    let file = k.create_file("/doc", b"x");
    for _ in 0..1 << 17 {
        k.open_file(server, file);
        k.open_file(other, file);
    }
    let epipe = |k: &mut Kernel, pid, fd| k.iol_poll(pid, &[fd])[0].epipe;
    for _ in 0..1 << 15 {
        let sock = k.socket_create(server, BufferMode::ZeroCopy, 1460, 64 * 1024);
        let object = k.fd_object(server, sock).unwrap();
        let dup = k.dup_fd(server, sock).unwrap();
        k.close_fd(server, sock).unwrap();
        assert!(!epipe(&mut k, server, dup), "a dup keeps the socket up");
        k.close_fd(server, dup).unwrap();
        // The last close tore it down; a late descriptor finds it dead
        // (and its own close is one more last close).
        let late = k.install_fd(other, object);
        assert!(epipe(&mut k, other, late));
        k.close_fd(other, late).unwrap();
    }
}
