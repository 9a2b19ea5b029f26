//! Cache-aware write-back scheduling with an NVM staging tier.
//!
//! The read path serves everything from the [`crate::UnifiedCache`];
//! the write path (PR 10) installs PUT bodies as *dirty* cache entries
//! and defers persistence. This module decides **when** dirty data is
//! flushed and **where** it lands first:
//!
//! * **Dirty threshold + flush batching** (CAWL): flushing one entry at
//!   a time pays the disk's positioning cost per entry; the scheduler
//!   instead waits for `dirty_threshold_bytes` of accumulated dirty
//!   data and then flushes batches of up to `flush_batch_bytes`,
//!   amortizing positioning across the batch.
//! * **NVM staging tier** (NVCache): a small simulated byte-addressable
//!   NVM tier absorbs flushed bytes at `nvm_transfer_mb_s` with *no*
//!   positioning cost; bursts that exceed the tier's free capacity
//!   overflow straight to disk. A background demotion step drains the
//!   tier back to disk in `nvm_drain_bytes` chunks, off the request
//!   path.
//!
//! The scheduler is *pure bookkeeping*: it owns no buffers, touches no
//! clock and counts nothing — the flushes, demotions and bytes it
//! decides are counted once, by the effects the pure kernel core's
//! `op_write_back` and `op_nvm_demote` emit. Those effects carry the
//! device times [`WritebackScheduler::nvm_time`] and the disk model
//! compute, but no ledger reads them: write-back is off the request
//! path, so it bills no simulated CPU.

use iolite_sim::SimTime;

/// Tuning knobs for write-back scheduling and the NVM staging tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritebackConfig {
    /// Accumulated dirty bytes that arm a flush.
    pub dirty_threshold_bytes: u64,
    /// Upper bound on the bytes one flush batch persists.
    pub flush_batch_bytes: u64,
    /// Capacity of the NVM staging tier; 0 disables the tier.
    pub nvm_capacity_bytes: u64,
    /// Bytes one background demotion moves from NVM to disk.
    pub nvm_drain_bytes: u64,
    /// NVM sequential transfer rate, MB/s (no positioning cost).
    pub nvm_transfer_mb_s: f64,
}

impl WritebackConfig {
    /// The default tuning used by the experiments: a 64 KB dirty
    /// threshold, 128 KB flush batches, a 1 MB NVM tier drained in
    /// 256 KB chunks at 10× the disk's transfer rate.
    pub fn default_tuning() -> Self {
        WritebackConfig {
            dirty_threshold_bytes: 64 * 1024,
            flush_batch_bytes: 128 * 1024,
            nvm_capacity_bytes: 1024 * 1024,
            nvm_drain_bytes: 256 * 1024,
            nvm_transfer_mb_s: 140.0,
        }
    }
}

impl Default for WritebackConfig {
    fn default() -> Self {
        WritebackConfig::default_tuning()
    }
}

/// Where one flush batch's bytes landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staged {
    /// Bytes absorbed by the NVM tier (no positioning cost).
    pub nvm_bytes: u64,
    /// Overflow bytes that went straight to disk.
    pub disk_bytes: u64,
}

/// The write-back scheduler: dirty-threshold arming, flush batching,
/// and NVM-tier occupancy. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct WritebackScheduler {
    cfg: WritebackConfig,
    nvm_used: u64,
}

impl WritebackScheduler {
    /// Creates a scheduler with the given tuning and an empty NVM tier.
    pub fn new(cfg: WritebackConfig) -> Self {
        WritebackScheduler { cfg, nvm_used: 0 }
    }

    /// The active tuning.
    pub fn config(&self) -> WritebackConfig {
        self.cfg
    }

    /// Replaces the tuning. NVM occupancy above a shrunken capacity is
    /// kept — it drains through subsequent demotions.
    pub fn set_config(&mut self, cfg: WritebackConfig) {
        self.cfg = cfg;
    }

    /// Whether accumulated dirty bytes have armed a flush.
    pub fn should_flush(&self, dirty_bytes: u64) -> bool {
        dirty_bytes > 0 && dirty_bytes >= self.cfg.dirty_threshold_bytes
    }

    /// Whether the NVM tier holds bytes a background demotion can drain.
    pub fn should_demote(&self) -> bool {
        self.nvm_used > 0
    }

    /// Bytes currently staged in the NVM tier.
    pub fn nvm_used(&self) -> u64 {
        self.nvm_used
    }

    /// Remaining NVM capacity.
    pub(crate) fn nvm_free(&self) -> u64 {
        self.cfg.nvm_capacity_bytes.saturating_sub(self.nvm_used)
    }

    /// Stages one flush batch of `bytes`: the NVM tier absorbs what
    /// fits, the rest overflows to disk. Returns the split; the caller
    /// reports it (one disk access per batch with a non-zero disk
    /// share).
    pub fn stage(&mut self, bytes: u64) -> Staged {
        let nvm_bytes = bytes.min(self.nvm_free());
        self.nvm_used += nvm_bytes;
        Staged {
            nvm_bytes,
            disk_bytes: bytes - nvm_bytes,
        }
    }

    /// Demotes one configured drain chunk (or what is left) from the
    /// NVM tier to disk, returning the bytes moved. The caller reports
    /// one disk access for a non-zero demotion.
    pub fn demote(&mut self) -> u64 {
        let moved = self.nvm_used.min(self.cfg.nvm_drain_bytes);
        self.nvm_used -= moved;
        moved
    }

    /// Transfer time for `bytes` through the NVM tier (no positioning).
    pub fn nvm_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(bytes as f64 / (self.cfg.nvm_transfer_mb_s * 1_000_000.0))
    }

    /// Folds scheduler state into a stable digest (`f64` via bit
    /// pattern, so the fold is exact).
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.cfg.dirty_threshold_bytes);
        h.write_u64(self.cfg.flush_batch_bytes);
        h.write_u64(self.cfg.nvm_capacity_bytes);
        h.write_u64(self.cfg.nvm_drain_bytes);
        h.write_u64(self.cfg.nvm_transfer_mb_s.to_bits());
        h.write_u64(self.nvm_used);
    }
}

impl Default for WritebackScheduler {
    fn default() -> Self {
        WritebackScheduler::new(WritebackConfig::default_tuning())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nvm: u64) -> WritebackConfig {
        WritebackConfig {
            dirty_threshold_bytes: 100,
            flush_batch_bytes: 200,
            nvm_capacity_bytes: nvm,
            nvm_drain_bytes: 50,
            nvm_transfer_mb_s: 100.0,
        }
    }

    #[test]
    fn threshold_arms_flush() {
        let wb = WritebackScheduler::new(cfg(1000));
        assert!(!wb.should_flush(0));
        assert!(!wb.should_flush(99));
        assert!(wb.should_flush(100));
        assert!(wb.should_flush(5000));
    }

    #[test]
    fn nvm_absorbs_then_overflows() {
        let mut wb = WritebackScheduler::new(cfg(150));
        let s = wb.stage(100);
        assert_eq!((s.nvm_bytes, s.disk_bytes), (100, 0));
        assert_eq!(wb.nvm_used(), 100);
        // The tier has 50 bytes free: a 120-byte batch splits.
        let s = wb.stage(120);
        assert_eq!((s.nvm_bytes, s.disk_bytes), (50, 70));
        assert_eq!((wb.nvm_used(), wb.nvm_free()), (150, 0));
        // A full tier sends the whole batch to disk.
        let s = wb.stage(30);
        assert_eq!((s.nvm_bytes, s.disk_bytes), (0, 30));
        assert_eq!(wb.nvm_used(), 150);
    }

    #[test]
    fn zero_capacity_disables_tier() {
        let mut wb = WritebackScheduler::new(cfg(0));
        let s = wb.stage(80);
        assert_eq!((s.nvm_bytes, s.disk_bytes), (0, 80));
        assert!(!wb.should_demote());
    }

    #[test]
    fn demotion_drains_in_chunks() {
        let mut wb = WritebackScheduler::new(cfg(1000));
        wb.stage(120);
        assert!(wb.should_demote());
        assert_eq!(wb.demote(), 50, "the configured chunk");
        assert_eq!(wb.demote(), 50);
        assert_eq!(wb.demote(), 20, "clamped to occupancy");
        assert_eq!(wb.demote(), 0);
        assert!(!wb.should_demote());
        assert_eq!(wb.nvm_used(), 0);
    }

    #[test]
    fn nvm_time_is_positioning_free() {
        let wb = WritebackScheduler::new(cfg(1000));
        // 1MB at 100MB/s = 10ms exactly; no positioning term.
        let t = wb.nvm_time(1_000_000);
        assert!((t.as_ms() - 10.0).abs() < 1e-9, "{t}");
        assert_eq!(wb.nvm_time(0), SimTime::ZERO);
    }

    #[test]
    fn digest_tracks_state() {
        let mut wb = WritebackScheduler::new(cfg(1000));
        let mut h1 = iolite_buf::Fnv64::new();
        wb.digest(&mut h1);
        wb.stage(10);
        let mut h2 = iolite_buf::Fnv64::new();
        wb.digest(&mut h2);
        assert_ne!(h1.finish(), h2.finish());
    }
}
