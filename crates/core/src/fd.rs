//! File descriptors: the §3.4 contract that `IOL_read`/`IOL_write`
//! "can act on any UNIX file descriptor".
//!
//! Files, pipe ends, **and sockets** all sit behind the same table, so
//! one code path serves the paper's "all other file-descriptor-related
//! UNIX system calls remain unchanged". Semantics are POSIX: allocation
//! takes the lowest free number, `dup2`-style calls target an exact
//! number, the stdio triple occupies 0/1/2 (installed by
//! `Kernel::spawn`), `dup`ed descriptors share one file offset (one
//! open-file description, two numbers) and independently `open`ed ones
//! do not.
//!
//! # Layout
//!
//! Every descriptor call is on a server's per-request path, so the
//! layout is the one a kernel uses — arrays, no trees, no locks:
//!
//! * **Slot table** ([`FdTable`], one per process, held in a dense
//!   pid-indexed table): a vector indexed by descriptor number whose
//!   slot names an open-file description, plus the min-ordered set of
//!   free numbers below the vector's end. The lowest free number is
//!   the set's first element, or the vector's length when there are no
//!   holes — nothing walks the open descriptors to find it.
//! * **Description slab** ([`FdRegistry`]-wide): one
//!   `Vec<`[`OpenFile`]`>` with a LIFO free list. A description records
//!   its object, the shared offset, and how many numbers (in any
//!   process) name it; `dup` copies a slab index, so sharing needs no
//!   pointer and no lock, and the registry is a plain `Clone` value —
//!   a snapshot is `clone()`, sharing included.
//! * **Live-description counts**, per pipe end and socket, kept at
//!   description birth and death: the last close of an object is a
//!   counter reaching zero, not a scan of every process's table.
//!
//! # Cost of each call
//!
//! | call | cost |
//! |---|---|
//! | [`FdRegistry::get`], [`FdRegistry::advance`], [`FdRegistry::set_pos`] | O(1): three array indexes |
//! | [`FdRegistry::install`], [`FdRegistry::dup`] | O(log h), h = holes below the highest number ever used (O(1) with none) |
//! | [`FdRegistry::close`] | O(log h) |
//! | [`FdRegistry::install_at`], [`FdRegistry::dup2`] | O(log h), plus O(g) when the target lies g numbers past the end (bounded by [`FD_LIMIT`]) |
//! | [`Clone`], [`FdRegistry::digest`] | O(slots + descriptions) |
//!
//! None of them depends on how many descriptors are open.

use std::collections::hash_map::Entry;
use std::collections::BTreeSet;

use iolite_buf::FixedMap;
use iolite_fs::FileId;

use crate::error::IolError;
use crate::idtable::IdTable;
use crate::kernel::{ConnId, PipeId};
use crate::process::Pid;

/// Exclusive upper bound on a *caller-chosen* descriptor number
/// ([`FdRegistry::install_at`], [`FdRegistry::dup2`]): targets at or
/// above it are `EBADF`, as past `RLIMIT_NOFILE`, so one call cannot
/// make the slot table allocate gigabytes. Lowest-free allocation needs
/// no such bound — its numbers are bounded by the descriptors actually
/// open.
pub const FD_LIMIT: u32 = 1 << 20;

/// A per-process file-descriptor number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

impl Fd {
    /// Standard input (installed at `spawn`).
    pub const STDIN: Fd = Fd(0);
    /// Standard output (installed at `spawn`).
    pub const STDOUT: Fd = Fd(1);
    /// Standard error (installed at `spawn`).
    pub const STDERR: Fd = Fd(2);
}

/// Where an `lseek` offset is measured from (`SEEK_SET`/`SEEK_CUR`/
/// `SEEK_END`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// From the start of the file.
    Set,
    /// From the current offset.
    Cur,
    /// From end-of-file, resolved against the file's metadata.
    End,
}

/// What an open-file description refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FdObject {
    /// A regular file with a seek position.
    File(FileId),
    /// The read end of a pipe.
    PipeRead(PipeId),
    /// The write end of a pipe.
    PipeWrite(PipeId),
    /// A TCP socket in the kernel's connection registry.
    Socket(ConnId),
}

/// An open-file description (shared by `dup`ed descriptors).
#[derive(Debug, Clone, Copy)]
pub struct OpenFile {
    /// The underlying object.
    pub object: FdObject,
    /// Current file offset (files only; pipes and sockets ignore it).
    pub pos: u64,
    /// Descriptor numbers, in any process, naming this description.
    refs: u32,
}

/// One process's descriptor numbers: the slot table of the module docs.
#[derive(Debug, Default, Clone)]
pub struct FdTable {
    /// Descriptor number → description slab index.
    slots: Vec<Option<u32>>,
    /// The free numbers below `slots.len()`.
    free: BTreeSet<u32>,
    open: usize,
}

impl FdTable {
    /// Open descriptors.
    pub fn len(&self) -> usize {
        self.open
    }

    /// Whether no descriptor is open.
    pub fn is_empty(&self) -> bool {
        self.open == 0
    }

    /// The description behind `fd`, if open.
    fn get(&self, fd: Fd) -> Option<u32> {
        *self.slots.get(fd.0 as usize)?
    }

    /// Binds the lowest free number (POSIX allocation order) to `desc`.
    fn claim_lowest(&mut self, desc: u32) -> Fd {
        let n = self.free.pop_first().unwrap_or_else(|| {
            self.slots.push(None);
            u32::try_from(self.slots.len() - 1).expect("descriptor numbers fit u32")
        });
        self.slots[n as usize] = Some(desc);
        self.open += 1;
        Fd(n)
    }

    /// Binds exactly `at` (below [`FD_LIMIT`]) to `desc`, returning the
    /// description it displaced.
    fn claim(&mut self, at: Fd, desc: u32) -> Option<u32> {
        let end = u32::try_from(self.slots.len()).expect("descriptor numbers fit u32");
        if at.0 >= end {
            self.free.extend(end..at.0);
            self.slots.resize(at.0 as usize + 1, None);
        }
        let old = self.slots[at.0 as usize].replace(desc);
        if old.is_none() {
            self.free.remove(&at.0);
            self.open += 1;
        }
        old
    }

    /// Frees `fd`, returning the description it named.
    fn release(&mut self, fd: Fd) -> Option<u32> {
        let desc = self.slots.get_mut(fd.0 as usize)?.take()?;
        self.free.insert(fd.0);
        self.open -= 1;
        Some(desc)
    }

    /// The open numbers and their descriptions, ascending.
    fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0u32..)
            .zip(&self.slots)
            .filter_map(|(n, d)| Some((n, (*d)?)))
    }
}

/// Kernel-wide descriptor state: per-process slot tables over one slab
/// of open-file descriptions (module docs). A plain value — `clone()`
/// is a deep fork that keeps every `dup` sharing, across processes too.
///
/// The mutating calls materialise `pid`'s (empty) table on first use,
/// failing calls included; [`FdRegistry::get`] never does.
#[derive(Debug, Default, Clone)]
pub struct FdRegistry {
    tables: IdTable<Pid, FdTable>,
    descs: Vec<OpenFile>,
    /// Dead slab entries, reused last-freed-first.
    free_descs: Vec<u32>,
    /// Live descriptions per pipe end and socket. Files are not
    /// counted: they have no last-close action. Probed, never iterated.
    live: FixedMap<FdObject, u32>,
}

impl FdRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        FdRegistry::default()
    }

    /// Read-only access to `pid`'s table, if it exists.
    pub fn get_table(&self, pid: Pid) -> Option<&FdTable> {
        self.tables.get(pid)
    }

    /// The slab index of the description behind `fd` — the one lookup
    /// every descriptor operation goes through.
    fn desc(&self, pid: Pid, fd: Fd) -> Option<usize> {
        Some(self.tables.get(pid)?.get(fd)? as usize)
    }

    /// Resolves a descriptor to (a copy of) its description.
    pub fn get(&self, pid: Pid, fd: Fd) -> Option<OpenFile> {
        Some(self.descs[self.desc(pid, fd)?])
    }

    /// Sets the offset shared by every number naming `fd`'s
    /// description; `false` if `fd` is not open.
    pub fn set_pos(&mut self, pid: Pid, fd: Fd, pos: u64) -> bool {
        let desc = self.desc(pid, fd);
        desc.map(|d| self.descs[d].pos = pos).is_some()
    }

    /// Moves the shared offset forward by the `n` bytes a read or write
    /// transferred (a no-op if `fd` is not open). Saturating: an offset
    /// never wraps back to the start of the file.
    pub fn advance(&mut self, pid: Pid, fd: Fd, n: u64) {
        if let Some(d) = self.desc(pid, fd) {
            let pos = &mut self.descs[d].pos;
            *pos = pos.saturating_add(n);
        }
    }

    /// Installs a new description (offset 0) for `object` at `pid`'s
    /// lowest free number. Closed numbers are reused, per POSIX.
    pub fn install(&mut self, pid: Pid, object: FdObject) -> Fd {
        let desc = self.birth(object);
        self.tables.get_or_default(pid).claim_lowest(desc)
    }

    /// Installs a *new* description for `object` at exactly `at`
    /// (`dup2`-style targeting), displacing whatever was there. Returns
    /// the pipe end or socket that thereby lost its last descriptor, if
    /// any, so the kernel can run its last-close action.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] (`EBADF`) when `at` is [`FD_LIMIT`] or more.
    pub fn install_at(
        &mut self,
        pid: Pid,
        at: Fd,
        object: FdObject,
    ) -> Result<Option<FdObject>, IolError> {
        self.tables.get_or_default(pid);
        if at.0 >= FD_LIMIT {
            return Err(IolError::NotOpen { fd: at });
        }
        let desc = self.birth(object);
        let displaced = self.tables.get_or_default(pid).claim(at, desc);
        Ok(displaced.and_then(|old| self.unref(old)))
    }

    /// Duplicates `fd` onto the lowest free number: the new descriptor
    /// shares the same description (and therefore the same offset), as
    /// POSIX `dup`.
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] if `fd` is not open.
    pub fn dup(&mut self, pid: Pid, fd: Fd) -> Result<Fd, IolError> {
        let table = self.tables.get_or_default(pid);
        let desc = table.get(fd).ok_or(IolError::NotOpen { fd })?;
        self.descs[desc as usize].refs += 1;
        Ok(table.claim_lowest(desc))
    }

    /// Duplicates `src` onto exactly `dst` (POSIX `dup2`): the two
    /// numbers share one description afterwards; `src == dst` is a
    /// no-op. Returns the object that lost its last descriptor by being
    /// displaced from `dst`, as [`FdRegistry::install_at`].
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] if `src` is not open, or (naming `dst`) if
    /// `dst` is [`FD_LIMIT`] or more.
    pub fn dup2(&mut self, pid: Pid, src: Fd, dst: Fd) -> Result<Option<FdObject>, IolError> {
        let table = self.tables.get_or_default(pid);
        let desc = table.get(src).ok_or(IolError::NotOpen { fd: src })?;
        if src == dst {
            return Ok(None);
        }
        if dst.0 >= FD_LIMIT {
            return Err(IolError::NotOpen { fd: dst });
        }
        self.descs[desc as usize].refs += 1;
        let displaced = table.claim(dst, desc);
        Ok(displaced.and_then(|old| self.unref(old)))
    }

    /// Closes a descriptor; the description dies with its last number.
    /// Returns the pipe end or socket that thereby lost its last
    /// descriptor in *any* process, if any (pipe EOF, `EPIPE`, socket
    /// teardown are the kernel's to apply).
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] if `fd` is not open (double close).
    pub fn close(&mut self, pid: Pid, fd: Fd) -> Result<Option<FdObject>, IolError> {
        let desc = self
            .tables
            .get_or_default(pid)
            .release(fd)
            .ok_or(IolError::NotOpen { fd })?;
        Ok(self.unref(desc))
    }

    /// Allocates a slab entry for a new description of `object`.
    fn birth(&mut self, object: FdObject) -> u32 {
        if !matches!(object, FdObject::File(_)) {
            *self.live.entry(object).or_insert(0) += 1;
        }
        let of = OpenFile {
            object,
            pos: 0,
            refs: 1,
        };
        if let Some(desc) = self.free_descs.pop() {
            self.descs[desc as usize] = of;
            return desc;
        }
        self.descs.push(of);
        u32::try_from(self.descs.len() - 1).expect("fewer than 2^32 open descriptions")
    }

    /// Drops one number's reference to description `desc`. When that
    /// kills the description and it was the last one for its pipe end
    /// or socket, returns that object.
    fn unref(&mut self, desc: u32) -> Option<FdObject> {
        let of = &mut self.descs[desc as usize];
        of.refs -= 1;
        if of.refs > 0 {
            return None;
        }
        self.free_descs.push(desc);
        let Entry::Occupied(mut count) = self.live.entry(of.object) else {
            return None; // a file
        };
        *count.get_mut() -= 1;
        (*count.get() == 0).then(|| count.remove_entry().0)
    }

    /// Folds the registry into a stable digest. Shared descriptions are
    /// identified by an alias index assigned in first-encounter order
    /// over the ascending `(pid, fd)` iteration, so slab indices — which
    /// depend on close order — never reach the hash.
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        let mut alias = vec![u64::MAX; self.descs.len()];
        let mut next = 0;
        h.write_usize(self.tables.len());
        for (pid, t) in self.tables.iter() {
            h.write_u32(pid.0);
            h.write_usize(t.open);
            for (fd, desc) in t.iter() {
                h.write_u32(fd);
                let a = &mut alias[desc as usize];
                if *a == u64::MAX {
                    *a = next;
                    next += 1;
                }
                h.write_u64(*a);
                let of = self.descs[desc as usize];
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

#[cfg(test)]
mod tests {
    use super::*;

    const P: Pid = Pid(1);

    fn pos(reg: &FdRegistry, fd: Fd) -> u64 {
        reg.get(P, fd).unwrap().pos
    }

    #[test]
    fn descriptors_allocate_lowest_free_per_process() {
        let mut reg = FdRegistry::new();
        let a = reg.install(Pid(1), FdObject::File(FileId(1)));
        let b = reg.install(Pid(1), FdObject::File(FileId(2)));
        let c = reg.install(Pid(2), FdObject::File(FileId(3)));
        assert_eq!(a, Fd(0));
        assert_eq!(b, Fd(1));
        assert_eq!(c, Fd(0), "tables are independent per process");
    }

    #[test]
    fn closed_numbers_are_reused_lowest_first() {
        let mut reg = FdRegistry::new();
        let a = reg.install(P, FdObject::File(FileId(1)));
        let b = reg.install(P, FdObject::File(FileId(2)));
        let c = reg.install(P, FdObject::File(FileId(3)));
        assert_eq!((a, b, c), (Fd(0), Fd(1), Fd(2)));
        reg.close(P, b).unwrap();
        // POSIX: the lowest free number, not a forever-incrementing one.
        assert_eq!(reg.install(P, FdObject::File(FileId(4))), Fd(1));
        reg.close(P, a).unwrap();
        reg.close(P, c).unwrap();
        assert_eq!(reg.install(P, FdObject::File(FileId(5))), Fd(0));
        assert_eq!(reg.install(P, FdObject::File(FileId(6))), Fd(2));
    }

    #[test]
    fn dup_shares_the_offset() {
        let mut reg = FdRegistry::new();
        let fd = reg.install(P, FdObject::File(FileId(1)));
        let dup = reg.dup(P, fd).unwrap();
        assert!(reg.set_pos(P, fd, 42));
        assert_eq!(pos(&reg, dup), 42);
        // Closing one number keeps the description alive for the other.
        assert!(reg.close(P, fd).is_ok());
        assert_eq!(pos(&reg, dup), 42);
        assert!(reg.get(P, fd).is_none());
        assert!(!reg.set_pos(P, fd, 7), "a closed number has no offset");
    }

    #[test]
    fn dup2_targets_an_exact_number_and_shares_state() {
        let mut reg = FdRegistry::new();
        let src = reg.install(P, FdObject::File(FileId(7)));
        let displaced = reg.install(P, FdObject::PipeRead(PipeId(8)));
        // dup2 onto an occupied number displaces it.
        let old = reg.dup2(P, src, displaced).unwrap();
        assert_eq!(
            old,
            Some(FdObject::PipeRead(PipeId(8))),
            "the displaced object lost its last descriptor"
        );
        reg.set_pos(P, src, 9);
        assert_eq!(pos(&reg, displaced), 9);
        // dup2 onto itself is a no-op.
        assert_eq!(reg.dup2(P, src, src), Ok(None));
        // dup2 from a closed source fails.
        assert_eq!(
            reg.dup2(P, Fd(99), Fd(5)),
            Err(IolError::NotOpen { fd: Fd(99) })
        );
    }

    #[test]
    fn independent_opens_do_not_share() {
        let mut reg = FdRegistry::new();
        let a = reg.install(P, FdObject::File(FileId(1)));
        let b = reg.install(P, FdObject::File(FileId(1)));
        reg.set_pos(P, a, 10);
        assert_eq!(pos(&reg, b), 0);
        reg.advance(P, b, 3);
        assert_eq!((pos(&reg, a), pos(&reg, b)), (10, 3));
    }

    #[test]
    fn close_is_idempotent_and_precise() {
        let mut reg = FdRegistry::new();
        let fd = reg.install(P, FdObject::PipeRead(PipeId(1)));
        assert_eq!(reg.close(P, fd), Ok(Some(FdObject::PipeRead(PipeId(1)))));
        assert_eq!(reg.close(P, fd), Err(IolError::NotOpen { fd }));
        assert_eq!(reg.dup(P, fd), Err(IolError::NotOpen { fd }));
        assert!(reg.get_table(P).unwrap().is_empty());
    }

    #[test]
    fn registry_tracks_object_references() {
        let mut reg = FdRegistry::new();
        let obj = FdObject::PipeWrite(PipeId(3));
        let fd = reg.install(Pid(1), obj);
        let dup = reg.dup(Pid(1), fd).unwrap();
        let other = reg.install(Pid(2), obj);
        assert_eq!(
            reg.close(Pid(1), fd),
            Ok(None),
            "dup + other process remain"
        );
        assert_eq!(reg.close(Pid(1), dup), Ok(None), "other process remains");
        assert_eq!(
            reg.close(Pid(2), other),
            Ok(Some(obj)),
            "the last reference"
        );
        // The read end of the same pipe is a different object, and files
        // never report a last close.
        let r = reg.install(Pid(1), FdObject::PipeRead(PipeId(3)));
        let f = reg.install(Pid(1), FdObject::File(FileId(3)));
        assert_eq!(
            reg.close(Pid(1), r),
            Ok(Some(FdObject::PipeRead(PipeId(3))))
        );
        assert_eq!(reg.close(Pid(1), f), Ok(None));
    }

    #[test]
    fn caller_chosen_numbers_stop_at_fd_limit() {
        let mut reg = FdRegistry::new();
        let obj = FdObject::Socket(ConnId(1));
        let src = reg.install(P, obj);
        for at in [Fd(FD_LIMIT), Fd(u32::MAX)] {
            assert_eq!(
                reg.install_at(P, at, obj),
                Err(IolError::NotOpen { fd: at })
            );
            assert_eq!(reg.dup2(P, src, at), Err(IolError::NotOpen { fd: at }));
        }
        // A refused call leaves nothing behind: `src` still holds the
        // socket's only description.
        assert_eq!(reg.get_table(P).unwrap().len(), 1);
        assert_eq!(reg.close(P, src), Ok(Some(obj)));
        // The last legal number works, and the gap below it stays
        // allocatable lowest-first.
        let top = Fd(FD_LIMIT - 1);
        assert_eq!(reg.install_at(P, top, obj), Ok(None));
        assert_eq!(reg.install(P, obj), Fd(0));
        assert_eq!(reg.get(P, top).unwrap().object, obj);
    }

    #[test]
    fn clone_preserves_dup_sharing_across_processes() {
        let mut reg = FdRegistry::new();
        let a = reg.install(Pid(1), FdObject::File(FileId(1)));
        let b = reg.dup(Pid(1), a).unwrap();
        let mut twin = reg.clone();
        twin.set_pos(Pid(1), a, 5);
        assert_eq!(
            twin.get(Pid(1), b).unwrap().pos,
            5,
            "sharing survives the fork"
        );
        assert_eq!(pos(&reg, b), 0, "and the original is untouched");
    }
}
