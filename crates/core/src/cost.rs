//! The calibrated cost model: counts → simulated time.
//!
//! The paper's testbed is a 333MHz Pentium II with 128MB RAM, five
//! 100Mb/s Fast Ethernet adaptors, and a late-90s SCSI disk (§5). Every
//! constant below is an estimate of that machine, chosen once and then
//! *validated* against the paper's reported curve shapes (see
//! EXPERIMENTS.md): Flash ≈ 280–290 Mb/s plateau on large cached files,
//! Flash-Lite saturating the ~400Mb/s network by ~30–50KB, convergence
//! below 5KB, CGI halving conventional throughput, and the §5.8
//! application ratios.
//!
//! The model deliberately has *few* degrees of freedom: one uncached and
//! one cached copy bandwidth, one checksum bandwidth, and fixed per-
//! operation costs. Servers differ only in which operations their data
//! path performs — never in hidden per-server fudge factors, with the
//! single exception of Apache's documented process-model overhead.

use std::ops::{Add, AddAssign};

use iolite_sim::SimTime;

/// Where simulated CPU time went (for breakdown reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostCategory {
    /// Data copying (memcpy).
    Copy,
    /// Internet checksum computation.
    Checksum,
    /// Page-mapping operations in the IO-Lite window.
    PageMap,
    /// System-call traps.
    Syscall,
    /// Process context switches.
    ContextSwitch,
    /// HTTP parsing and per-request server bookkeeping.
    Request,
    /// TCP connection setup/teardown.
    TcpControl,
    /// Per-packet protocol and driver work.
    Packet,
    /// Apache's process-model overhead.
    ProcessModel,
    /// Application compute (word counting, pattern matching...).
    AppCompute,
}

impl CostCategory {
    /// Every category, in declaration order (`ALL[c as usize] == c`).
    pub const ALL: [CostCategory; 10] = [
        CostCategory::Copy,
        CostCategory::Checksum,
        CostCategory::PageMap,
        CostCategory::Syscall,
        CostCategory::ContextSwitch,
        CostCategory::Request,
        CostCategory::TcpControl,
        CostCategory::Packet,
        CostCategory::ProcessModel,
        CostCategory::AppCompute,
    ];
}

/// An amount of simulated CPU time. Kept distinct from [`SimTime`]
/// instants and device times so disk or wire time cannot be added to
/// CPU time by accident; its category is named where it is billed
/// ([`CostCategory`]), not carried here.
///
/// Charges compose with `+`, which sums the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charge {
    /// Total simulated CPU time.
    pub time: SimTime,
}

impl Charge {
    /// The zero charge.
    pub const ZERO: Charge = Charge {
        time: SimTime::ZERO,
    };

    /// A charge of `us` microseconds.
    pub fn us(us: f64) -> Charge {
        Charge {
            time: SimTime::from_us(us),
        }
    }
}

impl Default for Charge {
    fn default() -> Self {
        Charge::ZERO
    }
}

impl Add for Charge {
    type Output = Charge;

    fn add(self, rhs: Charge) -> Charge {
        Charge {
            time: self.time + rhs.time,
        }
    }
}

impl AddAssign for Charge {
    fn add_assign(&mut self, rhs: Charge) {
        self.time += rhs.time;
    }
}

/// The machine model. All `*_us` fields are microseconds; bandwidths are
/// expressed as nanoseconds per byte for precision.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Uncached memcpy (DRAM-to-DRAM with write allocation): ~65 MB/s.
    pub copy_ns_per_byte: f64,
    /// Copy with a warm source (file cache in L2-reachable memory): ~95 MB/s.
    pub cached_copy_ns_per_byte: f64,
    /// Internet checksum loop (read-only pass): ~130 MB/s.
    pub checksum_ns_per_byte: f64,
    /// Trap + return for one system call.
    pub syscall_us: f64,
    /// Per-descriptor cost of one `poll`/`select` scan entry (kernel
    /// walk of the descriptor state; the event-driven servers pay this
    /// for every fd in the interest set on every loop iteration).
    pub poll_fd_us: f64,
    /// pmap_enter + TLB work per 4KB page, first mapping only.
    pub page_map_us: f64,
    /// Process context switch including cache pollution.
    pub context_switch_us: f64,
    /// Cost of one `mmap`+`munmap` cycle including soft page faults —
    /// paid by Flash on mapped-file-cache misses and by Apache on every
    /// request (it maps and unmaps per request).
    pub mmap_cycle_us: f64,
    /// Capacity of Flash's mapped-file cache, in files (the Flash paper
    /// describes this cache; tail files churn through it).
    pub flash_mapped_cache_files: usize,
    /// Server-side TCP accept path (SYN handling, PCB + socket alloc).
    pub tcp_accept_us: f64,
    /// Server-side close/teardown (FIN handling, PCB teardown).
    pub tcp_close_us: f64,
    /// Per-MSS packet send cost (driver + IP + TCP header work).
    pub per_packet_us: f64,
    /// HTTP request parse.
    pub http_parse_us: f64,
    /// Event-driven server per-request bookkeeping (Flash).
    pub server_fixed_us: f64,
    /// Extra per-request cost of the IOL API path (aggregate and pool
    /// bookkeeping, extra system-call surface). This is why Flash-Lite
    /// does not saturate the network until ~30KB documents (§5.2)
    /// despite touching no data.
    pub iol_request_extra_us: f64,
    /// Apache's extra per-request process-model cost (scheduling,
    /// select across processes, slower request handling).
    pub apache_request_extra_us: f64,
    /// Apache's extra per-byte buffer management cost.
    pub apache_extra_ns_per_byte: f64,
    /// CGI dispatch overhead per request (forward + process wakeup),
    /// excluding pipe costs which are charged by the pipe model.
    pub cgi_dispatch_us: f64,
    /// Per-request access-logging cost for the event-driven servers
    /// (batched, buffered log writes). §5: logging costs Flash and
    /// Flash-Lite only 3–5%.
    pub event_log_us: f64,
    /// Per-request access-logging cost for Apache (per-process
    /// `fprintf`, time formatting, unbatched write). §5: logging costs
    /// Apache 13–16%.
    pub apache_log_us: f64,
    /// Physical memory size.
    pub ram_bytes: u64,
    /// Fixed kernel reservation (text, mbuf headers, metadata cache).
    pub kernel_reserve_bytes: u64,
    /// Fixed server-process reservation (text + heap).
    pub server_reserve_bytes: u64,
    /// Apache's per-connection process overhead.
    pub apache_per_conn_bytes: u64,
    /// Apache's process-pool cap (`MaxClients`): connections beyond it
    /// queue in the listen backlog and hold no socket/process memory.
    pub apache_max_clients: usize,
    /// Number of network adaptors.
    pub net_links: usize,
    /// Effective per-adaptor rate, Mb/s (100Mb/s minus framing and
    /// interrupt ceiling).
    pub link_mbit_s: f64,
    /// TCP maximum segment size.
    pub mss: usize,
    /// Socket send-buffer size (Tss, §5: 64KB).
    pub tss: usize,
    /// Disk average positioning, ms.
    pub disk_position_ms: f64,
    /// Disk transfer rate, MB/s.
    pub disk_mb_s: f64,
}

impl CostModel {
    /// The paper's testbed (§5): 333MHz Pentium II, 128MB RAM,
    /// 5×100Mb/s Fast Ethernet.
    pub fn pentium_ii_333() -> Self {
        CostModel {
            copy_ns_per_byte: 15.4,
            cached_copy_ns_per_byte: 10.5,
            checksum_ns_per_byte: 7.7,
            syscall_us: 5.0,
            poll_fd_us: 1.0,
            page_map_us: 10.0,
            context_switch_us: 25.0,
            mmap_cycle_us: 150.0,
            flash_mapped_cache_files: 400,
            tcp_accept_us: 300.0,
            tcp_close_us: 200.0,
            per_packet_us: 4.6,
            http_parse_us: 80.0,
            server_fixed_us: 70.0,
            iol_request_extra_us: 60.0,
            apache_request_extra_us: 550.0,
            apache_extra_ns_per_byte: 3.0,
            cgi_dispatch_us: 150.0,
            event_log_us: 40.0,
            apache_log_us: 300.0,
            ram_bytes: 128 << 20,
            kernel_reserve_bytes: 12 << 20,
            server_reserve_bytes: 4 << 20,
            apache_per_conn_bytes: 80 << 10,
            apache_max_clients: 512,
            net_links: 5,
            link_mbit_s: 84.0,
            mss: 1460,
            tss: 64 * 1024,
            disk_position_ms: 8.5,
            disk_mb_s: 14.0,
        }
    }

    /// Time to copy `bytes` with a cold source.
    pub fn copy(&self, bytes: u64) -> Charge {
        Charge::us(bytes as f64 * self.copy_ns_per_byte / 1000.0)
    }

    /// Time to copy `bytes` with a warm (cache-resident) source.
    pub fn cached_copy(&self, bytes: u64) -> Charge {
        Charge::us(bytes as f64 * self.cached_copy_ns_per_byte / 1000.0)
    }

    /// Time to checksum `bytes`.
    pub fn checksum(&self, bytes: u64) -> Charge {
        Charge::us(bytes as f64 * self.checksum_ns_per_byte / 1000.0)
    }

    /// L2-residency interpolation factor for the socket data path:
    /// documents up to ~64KB stay cache-resident between the file cache
    /// and the send path on a 512KB-L2 Pentium II, so their copies and
    /// checksums run near cache speed; by ~192KB every pass streams
    /// from DRAM. The paper's Fig. 3 curve shape (Flash flat at
    /// ~280-290Mb/s from 50KB up, yet near Flash-Lite below 5KB) is
    /// only reproducible with this size dependence.
    fn l2_factor(bytes: u64) -> f64 {
        const FAST: f64 = 64.0 * 1024.0;
        const SLOW: f64 = 192.0 * 1024.0;
        ((bytes as f64 - FAST) / (SLOW - FAST)).clamp(0.0, 1.0)
    }

    /// Time to copy `bytes` of response data into socket buffers
    /// (L2-aware: see the `l2_factor` interpolation above).
    pub fn socket_copy(&self, bytes: u64) -> Charge {
        let f = Self::l2_factor(bytes);
        let ns = self.cached_copy_ns_per_byte + f * (14.0 - self.cached_copy_ns_per_byte).max(0.0);
        Charge::us(bytes as f64 * ns / 1000.0)
    }

    /// Time to checksum `bytes` on the wire path (L2-aware).
    pub fn wire_checksum(&self, bytes: u64) -> Charge {
        let f = Self::l2_factor(bytes);
        let ns = 5.0 + f * (self.checksum_ns_per_byte - 5.0).max(0.0);
        Charge::us(bytes as f64 * ns / 1000.0)
    }

    /// Time to establish `pages` new page mappings.
    pub fn page_maps(&self, pages: u64) -> Charge {
        Charge::us(pages as f64 * self.page_map_us)
    }

    /// Time for `n` context switches.
    pub fn context_switches(&self, n: u64) -> Charge {
        Charge::us(n as f64 * self.context_switch_us)
    }

    /// Time to send `packets` MSS-sized segments.
    pub fn packets(&self, packets: u64) -> Charge {
        Charge::us(packets as f64 * self.per_packet_us)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::pentium_ii_333()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_bandwidth_is_65_mb_s() {
        let m = CostModel::pentium_ii_333();
        // 65MB in ~1 second.
        let t = m.copy(65_000_000).time;
        assert!((t.as_secs() - 1.0).abs() < 0.01, "{t}");
    }

    #[test]
    fn checksum_is_faster_than_copy() {
        let m = CostModel::pentium_ii_333();
        assert!(m.checksum(1 << 20).time < m.copy(1 << 20).time);
        assert!(m.cached_copy(1 << 20).time < m.copy(1 << 20).time);
    }

    #[test]
    fn charges_compose() {
        let a = Charge::us(10.0);
        let b = Charge::us(5.0);
        assert_eq!((a + b).time, SimTime::from_us(15.0));
        let mut c = Charge::ZERO;
        c += a;
        c += b;
        assert_eq!(c.time, SimTime::from_us(15.0));
    }

    #[test]
    fn fixed_costs_positive() {
        let m = CostModel::pentium_ii_333();
        assert!(m.syscall_us > 0.0);
        assert!(m.page_maps(1).time > SimTime::ZERO);
        assert!(m.context_switches(1).time > SimTime::ZERO);
        assert!(m.packets(1).time > SimTime::ZERO);
    }
}
