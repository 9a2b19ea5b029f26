//! System-wide instrumentation.
//!
//! Counts the mechanism-level events (copies, checksums, mappings,
//! switches, disk I/O) whose elimination is the paper's whole thesis.
//! EXPERIMENTS.md reports these next to throughput so the *cause* of
//! each speedup is visible, not just the effect.

use std::fmt;

use iolite_sim::SimTime;

use crate::cost::CostCategory;

/// Mechanism-level event and time accounting.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Metrics {
    /// Bytes physically copied, by any subsystem.
    pub bytes_copied: u64,
    /// Bytes touched by checksum computation.
    pub bytes_checksummed: u64,
    /// Bytes whose checksum was served from the §3.9 cache.
    pub bytes_checksum_cached: u64,
    /// New page mappings established in the IO-Lite window.
    pub pages_mapped: u64,
    /// System calls executed.
    pub syscalls: u64,
    /// Context switches.
    pub context_switches: u64,
    /// Disk accesses.
    pub disk_ops: u64,
    /// Bytes moved from disk.
    pub disk_bytes: u64,
    /// Bytes installed as dirty cache entries (the PUT ingest path).
    pub bytes_dirty_installed: u64,
    /// Write-back flush batches executed.
    pub writeback_flushes: u64,
    /// Cache entries cleaned by write-back flushes.
    pub writeback_entries: u64,
    /// Bytes persisted by write-back (NVM + disk).
    pub bytes_written_back: u64,
    /// Bytes the NVM staging tier absorbed on the flush path.
    pub nvm_absorbed_bytes: u64,
    /// Bytes demoted from the NVM tier to disk.
    pub nvm_demoted_bytes: u64,
    /// Disk write accesses (write-back overflow + NVM demotions).
    pub disk_write_ops: u64,
    /// Bytes written to disk.
    pub disk_write_bytes: u64,
    /// Simulated CPU time by category, indexed by `CostCategory as
    /// usize` — the one CPU ledger: every kernel op bills here where it
    /// incurs the time, and work the kernel does not do enters through
    /// `Kernel::charge`.
    pub time_by_category: [SimTime; CostCategory::ALL.len()],
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds simulated time under a category.
    pub(crate) fn charge(&mut self, cat: CostCategory, t: SimTime) {
        self.time_by_category[cat as usize] += t;
    }

    /// Merges another accumulation into this one — per-shard metrics
    /// roll up into a single global view after a sharded run. Every
    /// field is a sum, so merging N shard metrics in any order yields
    /// the same global totals.
    pub fn merge(&mut self, other: &Metrics) {
        self.bytes_copied += other.bytes_copied;
        self.bytes_checksummed += other.bytes_checksummed;
        self.bytes_checksum_cached += other.bytes_checksum_cached;
        self.pages_mapped += other.pages_mapped;
        self.syscalls += other.syscalls;
        self.context_switches += other.context_switches;
        self.disk_ops += other.disk_ops;
        self.disk_bytes += other.disk_bytes;
        self.bytes_dirty_installed += other.bytes_dirty_installed;
        self.writeback_flushes += other.writeback_flushes;
        self.writeback_entries += other.writeback_entries;
        self.bytes_written_back += other.bytes_written_back;
        self.nvm_absorbed_bytes += other.nvm_absorbed_bytes;
        self.nvm_demoted_bytes += other.nvm_demoted_bytes;
        self.disk_write_ops += other.disk_write_ops;
        self.disk_write_bytes += other.disk_write_bytes;
        for cat in CostCategory::ALL {
            self.charge(cat, other.time_in(cat));
        }
    }

    /// Time recorded under one category.
    pub fn time_in(&self, cat: CostCategory) -> SimTime {
        self.time_by_category[cat as usize]
    }

    /// Simulated CPU time across every category.
    pub fn cpu(&self) -> SimTime {
        self.time_by_category
            .iter()
            .fold(SimTime::ZERO, |acc, t| acc + *t)
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "copied={}KB checksummed={}KB (cached {}KB) pages_mapped={} \
             syscalls={} ctx={} disk_ops={} disk={}KB",
            self.bytes_copied >> 10,
            self.bytes_checksummed >> 10,
            self.bytes_checksum_cached >> 10,
            self.pages_mapped,
            self.syscalls,
            self.context_switches,
            self.disk_ops,
            self.disk_bytes >> 10,
        )?;
        if self.bytes_dirty_installed > 0 || self.bytes_written_back > 0 {
            writeln!(
                f,
                "  write path: dirty_installed={}KB flushes={} entries={} \
                 written_back={}KB nvm_absorbed={}KB nvm_demoted={}KB \
                 disk_write_ops={} disk_writes={}KB",
                self.bytes_dirty_installed >> 10,
                self.writeback_flushes,
                self.writeback_entries,
                self.bytes_written_back >> 10,
                self.nvm_absorbed_bytes >> 10,
                self.nvm_demoted_bytes >> 10,
                self.disk_write_ops,
                self.disk_write_bytes >> 10,
            )?;
        }
        for cat in CostCategory::ALL {
            let t = self.time_in(cat);
            if t > SimTime::ZERO {
                writeln!(f, "  {cat:?}: {t}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_by_category() {
        let mut m = Metrics::new();
        m.charge(CostCategory::Copy, SimTime::from_us(10.0));
        m.charge(CostCategory::Copy, SimTime::from_us(5.0));
        m.charge(CostCategory::Checksum, SimTime::from_us(2.0));
        assert_eq!(m.time_in(CostCategory::Copy), SimTime::from_us(15.0));
        assert_eq!(m.time_in(CostCategory::Checksum), SimTime::from_us(2.0));
        assert_eq!(m.time_in(CostCategory::Packet), SimTime::ZERO);
        assert_eq!(m.cpu(), SimTime::from_us(17.0));
    }

    #[test]
    fn display_is_humane() {
        let mut m = Metrics::new();
        m.bytes_copied = 2048;
        m.charge(CostCategory::Syscall, SimTime::from_us(1.0));
        let s = m.to_string();
        assert!(s.contains("copied=2KB"));
        assert!(s.contains("Syscall"));
    }
}
