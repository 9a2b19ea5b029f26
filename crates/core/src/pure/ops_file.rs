//! File-system, unified-cache, window, and VM operations on
//! [`KernelState`].
//!
//! Bodies are the former `Kernel` methods with one mechanical change:
//! metric mutations became [`Effect`] pushes into the caller-supplied
//! buffer, and device time is reported as [`Effect::DiskRead`] data
//! instead of being accumulated in place. CPU is billed where it is
//! incurred (`KernelState::bill`).

use iolite_buf::{Acl, Aggregate, DomainId, PAGE_SIZE};
use iolite_fs::{stream_synthetic, CacheKey, FileContent, FileId};
use iolite_vm::MemAccount;

use super::effect::Effect;
use super::state::{IoOutcome, KernelState};
use crate::cost::{Charge, CostCategory};
use crate::error::{IoResult, IolError};
use crate::fd::Fd;
use crate::process::Pid;

impl KernelState {
    // ---- file store ----------------------------------------------------

    /// Creates a file with explicit contents.
    pub(crate) fn op_create_file(&mut self, name: &str, data: &[u8]) -> FileId {
        self.store
            .create(name, FileContent::Explicit(data.to_vec()))
    }

    /// Creates a synthetic (pattern-generated) file.
    pub(crate) fn op_create_synthetic_file(&mut self, name: &str, len: u64, seed: u64) -> FileId {
        self.store.create_synthetic(name, len, seed)
    }

    // ---- cache budget ------------------------------------------------

    /// Re-syncs the file-cache budget with the memory accountant and
    /// returns the number of entries the shrink evicted.
    pub(crate) fn op_rebalance_cache(&mut self) -> usize {
        self.physmem
            .set(MemAccount::FileCache, self.cache.resident_bytes());
        let budget = self.physmem.cache_budget();
        let evicted = self.cache.set_budget(budget).len();
        self.physmem
            .set(MemAccount::FileCache, self.cache.resident_bytes());
        evicted
    }

    /// Pins a cache entry's key (e.g. while the network transmits it).
    pub(crate) fn op_cache_pin(&mut self, key: CacheKey) {
        self.cache.pin(&key);
    }

    /// Releases one pin on a cache key.
    pub(crate) fn op_cache_unpin(&mut self, key: CacheKey) {
        self.cache.unpin(&key);
    }

    /// Installs a copy of a file's bytes as its whole-file cache entry.
    /// The bytes come from the caller, not from disk, so copy cost is
    /// charged and no disk time accrues. (Kept for the operation table's
    /// perf-pinned `CacheInstall` row; no workspace caller.)
    pub(crate) fn op_cache_install(&mut self, file: FileId, data: &[u8], fx: &mut Vec<Effect>) {
        IoOutcome::trap(self, fx);
        let agg = Aggregate::from_bytes_aligned(&self.cache_pool, data, iolite_buf::PAGE_SIZE);
        fx.push(Effect::BytesCopied(data.len() as u64));
        self.bill(CostCategory::Copy, self.cost.copy(data.len() as u64), fx);
        self.cache.insert(CacheKey::whole(file), agg);
        self.op_rebalance_cache();
    }

    /// Drops a cache entry outright (kept for the operation table's
    /// perf-pinned `CacheInvalidate` row; no workspace caller).
    /// Checksums cached over the dropped buffers die with it; readers
    /// still pinning slices of the old aggregate keep their immutable
    /// snapshot (§3.5). No-op when the key is absent. Returns whether an
    /// entry was dropped.
    pub(crate) fn op_cache_invalidate(&mut self, key: CacheKey) -> bool {
        let Some(old) = self.cache.replace_for_write(&key) else {
            return false;
        };
        self.cksum.invalidate_aggregate(&old);
        self.op_rebalance_cache();
        true
    }

    // ---- the write path (PR 10) ----------------------------------------

    /// Installs a PUT body as `file`'s whole-file cache entry, **dirty**
    /// (§3.5 snapshot semantics + deferred persistence).
    ///
    /// The body aggregate is installed by reference — zero-copy from
    /// the connection's receive buffers straight into the cache.
    /// Concurrent readers of the previous version keep their pinned
    /// immutable slices (the replaced aggregate's buffers persist while
    /// referenced); checksums cached over the replaced buffers are
    /// invalidated (§3.9 staleness fix). The store image is updated
    /// immediately so lengths, metadata, and cold reads stay consistent
    /// — but *no device time is charged here*: persistence timing is
    /// the write-back scheduler's business ([`KernelState::op_write_back`]),
    /// and dirty entries are never evicted before they are cleaned, so
    /// the deferral is unobservable to readers.
    pub(crate) fn op_put_install(
        &mut self,
        _pid: Pid,
        file: FileId,
        agg: &Aggregate,
        fx: &mut Vec<Effect>,
    ) {
        IoOutcome::trap(self, fx);
        // Store-write-early, run by run; the old bytes are never generated.
        self.store.replace(file, agg);
        let key = CacheKey::whole(file);
        if let Some(old) = self.cache.replace_for_write(&key) {
            // A PUT replaces the whole entry: every checksum cached over
            // the old buffers is stale.
            self.cksum.invalidate_aggregate(&old);
        }
        fx.push(Effect::DirtyInstalled { bytes: agg.len() });
        self.cache.insert_dirty(key, agg.clone());
        self.op_rebalance_cache();
    }

    /// Flushes one write-back batch: dirty entries (in deterministic
    /// key order) up to `max_bytes` (0 ⇒ the configured flush-batch
    /// size) are marked clean and staged through the NVM tier, with
    /// overflow going to disk. One disk positioning is paid per batch
    /// with a non-zero disk share — that amortization is the CAWL
    /// observation. Returns the bytes flushed.
    pub(crate) fn op_write_back(&mut self, max_bytes: u64, fx: &mut Vec<Effect>) -> u64 {
        let batch_limit = if max_bytes == 0 {
            self.writeback.config().flush_batch_bytes
        } else {
            max_bytes
        };
        let mut keys: Vec<CacheKey> = Vec::new();
        let mut bytes = 0u64;
        for k in self.cache.dirty_keys() {
            let len = self.cache.entry_len(k).expect("dirty set tracks entries");
            if !keys.is_empty() && bytes + len > batch_limit {
                break;
            }
            keys.push(*k);
            bytes += len;
            if bytes >= batch_limit {
                break;
            }
        }
        if keys.is_empty() {
            return 0;
        }
        for k in &keys {
            self.cache.mark_clean(k);
        }
        let staged = self.writeback.stage(bytes);
        fx.push(Effect::WritebackFlushed {
            entries: keys.len() as u64,
            bytes,
        });
        if staged.nvm_bytes > 0 {
            fx.push(Effect::NvmAbsorbed {
                bytes: staged.nvm_bytes,
                time: self.writeback.nvm_time(staged.nvm_bytes),
            });
        }
        if staged.disk_bytes > 0 {
            fx.push(Effect::DiskWrite {
                bytes: staged.disk_bytes,
                time: self.disk.access_time(staged.disk_bytes),
            });
        }
        bytes
    }

    /// Demotes one configured drain chunk from the NVM staging tier to
    /// disk — the background drain that keeps the tier able to absorb
    /// the next burst. Returns bytes moved.
    pub(crate) fn op_nvm_demote(&mut self, fx: &mut Vec<Effect>) -> u64 {
        let moved = self.writeback.demote();
        if moved > 0 {
            fx.push(Effect::NvmDemoted { bytes: moved });
            fx.push(Effect::DiskWrite {
                bytes: moved,
                time: self.disk.access_time(moved),
            });
        }
        moved
    }

    /// Replaces the write-back tuning (journaled, so replayed runs see
    /// identical flush scheduling).
    pub(crate) fn op_set_writeback(&mut self, cfg: iolite_fs::WritebackConfig) {
        self.writeback.set_config(cfg);
    }

    /// Reserves memory on an account in the physical-memory accountant.
    pub(crate) fn op_mem_reserve(&mut self, account: MemAccount, bytes: u64) {
        self.physmem.reserve(account, bytes);
    }

    /// Releases memory from an account.
    pub(crate) fn op_mem_release(&mut self, account: MemAccount, bytes: u64) {
        self.physmem.release(account, bytes);
    }

    // ---- reads, writes, mmap -------------------------------------------

    /// Reads a file extent through the unified cache with IO-Lite
    /// semantics: returns a buffer aggregate sharing the cache's
    /// physical copy (`IOL_read`, §3.4).
    ///
    /// Less data than requested is returned at end-of-file (the API
    /// explicitly allows short reads).
    pub(crate) fn op_read_file_at(
        &mut self,
        pid: Pid,
        file: FileId,
        offset: u64,
        len: u64,
        fx: &mut Vec<Effect>,
    ) -> (Aggregate, IoOutcome) {
        let mut out = IoOutcome::trap(self, fx);
        let whole = self.op_read_whole_cached(file, &mut out, fx);
        let flen = whole.len();
        let start = offset.min(flen);
        let take = len.min(flen - start);
        let agg = whole.range(start, take).expect("clamped range");
        // Transfer: make the aggregate's chunks readable in the caller.
        self.map_into(pid, &agg, fx);
        (agg, out)
    }

    /// Makes `agg` readable in `pid`'s domain, billing first-time page
    /// mappings (§3.2), under the cache pool's ACL, which admits every
    /// spawned process.
    pub(super) fn map_into(&mut self, pid: Pid, agg: &Aggregate, fx: &mut Vec<Effect>) {
        let chunks = agg.slices().map(|s| s.id().chunk);
        let pages = self
            .window
            .transfer(chunks, pid.domain(), &self.cache_pool_acl)
            .unwrap_or(0);
        fx.push(Effect::PagesMapped(pages));
        self.bill(CostCategory::PageMap, self.cost.page_maps(pages), fx);
    }

    /// Replaces a file extent with the contents of `agg` (`IOL_write`,
    /// §3.4): the cached aggregate is replaced, never mutated, so prior
    /// readers keep their snapshots (§3.5).
    ///
    /// Pins held on the key (e.g. by the network mid-transmission)
    /// survive the replacement: the cache keys pin counts by
    /// [`CacheKey`], not by entry generation, so a deferred unpin from
    /// a pre-write transmission cannot strip the protection of a
    /// post-write one.
    ///
    /// A write whose offset or end passes `i64::MAX` is refused with
    /// [`IolError::InvalidSeek`] before anything is billed or stored.
    pub(crate) fn op_write_file_at(
        &mut self,
        _pid: Pid,
        file: FileId,
        offset: u64,
        agg: &Aggregate,
        fx: &mut Vec<Effect>,
    ) -> Result<IoOutcome, IolError> {
        within_off_t(offset, agg.len())?;
        let out = IoOutcome::trap(self, fx);
        // Update the backing store vectored, run by run (write-back
        // happens off the critical path; no device time charged here,
        // and no materialization of the aggregate).
        let mut run_offset = offset;
        for chunk in agg.chunks() {
            self.store.write(file, run_offset, chunk);
            run_offset += chunk.len() as u64;
        }
        // Snapshot-preserving cache replacement: rebuild the whole-file
        // entry as head ++ agg ++ tail, chaining by reference (indexed
        // range views; slices outside the extent are not walked twice).
        let key = CacheKey::whole(file);
        if let Some(old) = self.cache.replace_for_write(&key) {
            let head_len = offset.min(old.len());
            let tail_start = (offset + agg.len()).min(old.len());
            // §3.9 staleness fix: checksums cached over the replaced
            // extent's buffers no longer describe the file. Invalidation
            // is by buffer identity, so head/tail slices on *other*
            // buffers keep their cached checksums.
            let replaced = old.range(head_len, tail_start - head_len).expect("clamped");
            self.cksum.invalidate_aggregate(&replaced);
            let mut rebuilt = old.range(0, head_len).expect("clamped");
            rebuilt.append(agg);
            rebuilt.append(
                &old.range(tail_start, old.len() - tail_start)
                    .expect("clamped"),
            );
            self.cache.insert(key, rebuilt);
            self.op_rebalance_cache();
        }
        Ok(out)
    }

    /// Backward-compatible copying read at an explicit offset (§4.2:
    /// "a data copy operation is used to move data between application
    /// buffers and IO-Lite buffers").
    pub(crate) fn op_posix_file_read(
        &mut self,
        _pid: Pid,
        file: FileId,
        offset: u64,
        len: u64,
        fx: &mut Vec<Effect>,
    ) -> (Vec<u8>, IoOutcome) {
        let mut out = IoOutcome::trap(self, fx);
        let whole = self.op_read_whole_cached(file, &mut out, fx);
        let flen = whole.len();
        let start = offset.min(flen);
        let take = len.min(flen - start);
        let mut dst = vec![0u8; take as usize];
        whole.copy_to(start, &mut dst);
        fx.push(Effect::BytesCopied(take));
        self.bill(CostCategory::Copy, self.cost.cached_copy(take), fx);
        (dst, out)
    }

    /// Backward-compatible copying write at an explicit offset.
    pub(crate) fn op_posix_file_write(
        &mut self,
        pid: Pid,
        file: FileId,
        offset: u64,
        data: &[u8],
        fx: &mut Vec<Effect>,
    ) -> Result<IoOutcome, IolError> {
        within_off_t(offset, data.len() as u64)?;
        let agg = Aggregate::from_bytes(&self.cache_pool, data);
        fx.push(Effect::BytesCopied(data.len() as u64));
        let out = self.op_write_file_at(pid, file, offset, &agg, fx)?;
        self.bill(CostCategory::Copy, self.cost.copy(data.len() as u64), fx);
        Ok(out)
    }

    /// Reads the whole file behind `fd` through a mapping (see
    /// `Kernel::mapped_read`): no trap; an `mmap`/`munmap` cycle unless
    /// `cached` and the mapped-file cache already holds the file.
    pub(crate) fn op_mapped_read(
        &mut self,
        pid: Pid,
        fd: Fd,
        cached: bool,
        fx: &mut Vec<Effect>,
    ) -> IoResult<Aggregate> {
        let file = self.resolve_file(pid, fd, "mapped read")?;
        if !(cached && self.mapped_files.touch(file)) {
            let cycle = Charge::us(self.cost.mmap_cycle_us);
            self.bill(CostCategory::PageMap, cycle, fx);
        }
        let mut out = IoOutcome::default();
        let whole = self.op_read_whole_cached(file, &mut out, fx);
        self.map_into(pid, &whole, fx);
        Ok((whole, out))
    }

    /// Cache-or-disk read of the whole file, maintaining budgets.
    pub(crate) fn op_read_whole_cached(
        &mut self,
        file: FileId,
        out: &mut IoOutcome,
        fx: &mut Vec<Effect>,
    ) -> Aggregate {
        let key = CacheKey::whole(file);
        if let Some(agg) = self.cache.lookup(&key) {
            out.cache_hit = true;
            return agg;
        }
        let len = self.store.len(file).unwrap_or(0);
        // A synthetic file's bytes are a pure function of its seed, so
        // its buffers are sealed lazily: produced when first read (a
        // Flash-Lite send's checksum), never for a copying server that
        // is billed by length. Other content can change in the store
        // after this read, and the snapshot must keep the bytes of this
        // moment (§3.5), so it is copied in now. Either way the same
        // buffers are allocated in the same order.
        let agg = Aggregate::fill_aligned(&self.cache_pool, len, PAGE_SIZE, |at, mut b| {
            if let Some(seed) = self.store.synthetic_seed(file) {
                return b.freeze_lazy(stream_synthetic, seed, at);
            }
            self.store
                .stream(file, at, b.remaining() as u64, |run| b.put(run));
            b.freeze()
        });
        out.disk_time = self.disk.access_time(len);
        fx.push(Effect::DiskRead {
            file,
            bytes: len,
            time: out.disk_time,
        });
        // Admit, then shrink to budget. The cache pool is *not*
        // append-only: the constructors above allocate through
        // `BufferPool::alloc_inner`, which scavenges chunks whose `Arc`
        // count says no one holds them once its free list is empty. So
        // buffer identity, which §3.9 checksum keys and the state digest
        // observe, depends on ambient holders (the journal, an in-flight
        // response) — ROADMAP item 1's replay hole, pinned by
        // `tests/semantics.rs::cache_pool_recycles_drained_chunks`.
        self.cache.insert(key, agg.clone());
        self.op_rebalance_cache();
        agg
    }

    // ---- window transfers ----------------------------------------------

    /// [`KernelState::map_into`] gated by an explicit ACL (transfers
    /// between mutually untrusting processes, §3.10): makes `agg`
    /// readable in `domain`, billing first-time page mappings. Returns
    /// newly mapped pages.
    ///
    /// # Errors
    ///
    /// Returns [`iolite_vm::AccessDenied`] when `domain` is not on
    /// `acl`.
    pub(crate) fn op_transfer_with_acl(
        &mut self,
        agg: &Aggregate,
        domain: DomainId,
        acl: &Acl,
        fx: &mut Vec<Effect>,
    ) -> Result<u64, iolite_vm::AccessDenied> {
        let chunks = agg.slices().map(|s| s.id().chunk);
        let pages = self.window.transfer(chunks, domain, acl)?;
        fx.push(Effect::PagesMapped(pages));
        self.bill(CostCategory::PageMap, self.cost.page_maps(pages), fx);
        Ok(pages)
    }
}

/// `off_t` ends at `i64::MAX`, the bound `lseek` enforces: a file write
/// whose offset or end passes it is `EINVAL`, as `pwrite(2)` answers a
/// negative `off_t`. `requested` is the offset read as an `off_t`.
fn within_off_t(offset: u64, len: u64) -> Result<(), IolError> {
    match offset.checked_add(len) {
        Some(end) if end <= i64::MAX as u64 => Ok(()),
        _ => Err(IolError::InvalidSeek {
            requested: offset as i64,
        }),
    }
}
