//! Side effects as data: what an operation did to the world.
//!
//! The functional core never touches [`crate::Metrics`] (or any other
//! shell-owned sink). Every observable consequence of a [`super::Command`]
//! — CPU time, copies, checksum work, page mappings, disk traffic — is
//! appended to an effect buffer as a value. The imperative shell (and
//! [`super::replay`]) folds effects into metrics with
//! [`crate::Metrics::absorb`]; because effects are pure data, a
//! recorded run and its replay produce identical metrics.

use iolite_fs::FileId;
use iolite_sim::SimTime;

use crate::cost::CostCategory;

/// One observable side effect of applying a command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// Simulated CPU time consumed, by category.
    Charge {
        /// The cost category the time bills to.
        category: CostCategory,
        /// The CPU time consumed.
        time: SimTime,
    },
    /// System-call traps executed.
    Syscalls(u64),
    /// Bytes physically copied.
    BytesCopied(u64),
    /// Bytes touched by checksum computation.
    BytesChecksummed(u64),
    /// Bytes whose checksum was served from the §3.9 cache.
    BytesChecksumCached(u64),
    /// New page mappings established in the IO-Lite window.
    PagesMapped(u64),
    /// Process context switches.
    ContextSwitches(u64),
    /// A disk read of `bytes` from `file`, with its device service
    /// time (the caller schedules the time on the disk resource; the
    /// core only reports it).
    DiskRead {
        /// The file read from the device.
        file: FileId,
        /// Bytes transferred from the device.
        bytes: u64,
        /// Device service time for the transfer.
        time: SimTime,
    },
    /// A PUT body installed as a dirty cache entry (PR 10 write path);
    /// persistence is deferred to write-back.
    DirtyInstalled {
        /// Bytes of dirty data admitted.
        bytes: u64,
    },
    /// One write-back flush batch cleaned `entries` cache entries
    /// covering `bytes` (landing split between NVM and disk is reported
    /// by the companion [`Effect::NvmAbsorbed`]/[`Effect::DiskWrite`]).
    WritebackFlushed {
        /// Cache entries marked clean by the batch.
        entries: u64,
        /// Bytes the batch persisted.
        bytes: u64,
    },
    /// Bytes the NVM staging tier absorbed, with its (positioning-free)
    /// device service time — scheduled by the caller like disk time.
    NvmAbsorbed {
        /// Bytes staged into the NVM tier.
        bytes: u64,
        /// NVM device service time.
        time: SimTime,
    },
    /// A background NVM→disk demotion of `bytes` (its disk cost is the
    /// companion [`Effect::DiskWrite`]).
    NvmDemoted {
        /// Bytes drained from the NVM tier.
        bytes: u64,
    },
    /// A disk write of `bytes`, with its device service time (the
    /// caller schedules the time on the disk resource; the core only
    /// reports it).
    DiskWrite {
        /// Bytes transferred to the device.
        bytes: u64,
        /// Device service time for the transfer.
        time: SimTime,
    },
}

impl crate::metrics::Metrics {
    /// Folds one effect into the metrics — the single bridge between
    /// the pure core's effect stream and the shell's accounting.
    pub fn absorb(&mut self, effect: &Effect) {
        match *effect {
            Effect::Charge { category, time } => self.charge(category, time),
            Effect::Syscalls(n) => self.syscalls += n,
            Effect::BytesCopied(n) => self.bytes_copied += n,
            Effect::BytesChecksummed(n) => self.bytes_checksummed += n,
            Effect::BytesChecksumCached(n) => self.bytes_checksum_cached += n,
            Effect::PagesMapped(n) => self.pages_mapped += n,
            Effect::ContextSwitches(n) => self.context_switches += n,
            Effect::DiskRead { bytes, .. } => {
                self.disk_ops += 1;
                self.disk_bytes += bytes;
            }
            Effect::DirtyInstalled { bytes } => self.bytes_dirty_installed += bytes,
            Effect::WritebackFlushed { entries, bytes } => {
                self.writeback_flushes += 1;
                self.writeback_entries += entries;
                self.bytes_written_back += bytes;
            }
            Effect::NvmAbsorbed { bytes, .. } => self.nvm_absorbed_bytes += bytes,
            Effect::NvmDemoted { bytes } => self.nvm_demoted_bytes += bytes,
            Effect::DiskWrite { bytes, .. } => {
                self.disk_write_ops += 1;
                self.disk_write_bytes += bytes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    #[test]
    fn absorb_reconstructs_every_counter() {
        let mut m = Metrics::new();
        for e in [
            Effect::Syscalls(2),
            Effect::BytesCopied(10),
            Effect::BytesChecksummed(20),
            Effect::BytesChecksumCached(5),
            Effect::PagesMapped(3),
            Effect::ContextSwitches(4),
            Effect::DiskRead {
                file: FileId(1),
                bytes: 100,
                time: SimTime::from_us(7.0),
            },
            Effect::Charge {
                category: CostCategory::Copy,
                time: SimTime::from_us(9.0),
            },
            Effect::DirtyInstalled { bytes: 11 },
            Effect::WritebackFlushed {
                entries: 2,
                bytes: 11,
            },
            Effect::NvmAbsorbed {
                bytes: 6,
                time: SimTime::from_us(1.0),
            },
            Effect::NvmDemoted { bytes: 6 },
            Effect::DiskWrite {
                bytes: 5,
                time: SimTime::from_us(2.0),
            },
        ] {
            m.absorb(&e);
        }
        assert_eq!(m.syscalls, 2);
        assert_eq!(m.bytes_copied, 10);
        assert_eq!(m.bytes_checksummed, 20);
        assert_eq!(m.bytes_checksum_cached, 5);
        assert_eq!(m.pages_mapped, 3);
        assert_eq!(m.context_switches, 4);
        assert_eq!(m.disk_ops, 1);
        assert_eq!(m.disk_bytes, 100);
        assert_eq!(m.bytes_dirty_installed, 11);
        assert_eq!((m.writeback_flushes, m.writeback_entries), (1, 2));
        assert_eq!(m.bytes_written_back, 11);
        assert_eq!((m.nvm_absorbed_bytes, m.nvm_demoted_bytes), (6, 6));
        assert_eq!((m.disk_write_ops, m.disk_write_bytes), (1, 5));
        assert_eq!(m.time_in(CostCategory::Copy), SimTime::from_us(9.0));
    }
}
