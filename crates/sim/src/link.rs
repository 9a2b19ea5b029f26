//! Network link capacity model.
//!
//! The paper's testbed connects the server through five 100Mb/s Fast
//! Ethernet adaptors to five client machines (§5). We model each adaptor
//! as a byte-rate pipe: capacity is accounted FIFO (a transfer occupies
//! the link for `bytes / rate`), while the *completion* time seen by a
//! client additionally respects the TCP window limit
//! `bytes / (Tss / RTT)` and one-way propagation delay. This keeps
//! aggregate throughput exact under saturation (what every figure reports)
//! while still producing the response-time inflation that drives the WAN
//! experiment of §5.7.

use crate::time::SimTime;

/// One simulated network adaptor.
#[derive(Debug, Clone)]
pub struct Link {
    rate_bytes_per_sec: f64,
    next_free: SimTime,
}

impl Link {
    /// Creates a link with the given effective data rate in megabits per
    /// second.
    fn new(rate_mbit_s: f64) -> Self {
        Link {
            rate_bytes_per_sec: rate_mbit_s * 1_000_000.0 / 8.0,
            next_free: SimTime::ZERO,
        }
    }

    /// Time the link needs to serialize `bytes`.
    fn wire_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(bytes as f64 / self.rate_bytes_per_sec)
    }

    /// Transmits `bytes` starting no earlier than `now`.
    ///
    /// `window_rate_bytes_per_sec` caps the connection's own throughput
    /// (socket send buffer / round-trip time); pass `f64::INFINITY` for a
    /// LAN with negligible RTT. `one_way_delay` is added once for
    /// propagation. Returns the completion time at the receiver.
    pub fn transmit(
        &mut self,
        now: SimTime,
        bytes: u64,
        window_rate_bytes_per_sec: f64,
        one_way_delay: SimTime,
    ) -> SimTime {
        let start = self.next_free.max(now);
        let occupy = self.wire_time(bytes);
        self.next_free = start + occupy;
        let window_time =
            if window_rate_bytes_per_sec.is_finite() && window_rate_bytes_per_sec > 0.0 {
                SimTime::from_secs(bytes as f64 / window_rate_bytes_per_sec)
            } else {
                SimTime::ZERO
            };
        // The receiver sees the slower of wire serialization and window
        // pacing, plus propagation.
        start + occupy.max(window_time) + one_way_delay
    }
}

/// The server's set of adaptors, with a static client→link assignment.
///
/// The paper runs clients on five machines, one per adaptor; we assign
/// client `i` to link `i % n`, matching that topology.
#[derive(Debug, Clone)]
pub struct LinkSet {
    links: Vec<Link>,
}

impl LinkSet {
    /// Creates `n` identical links of `rate_mbit_s` each.
    pub fn new(n: usize, rate_mbit_s: f64) -> Self {
        assert!(n > 0, "at least one link required");
        LinkSet {
            links: (0..n).map(|_| Link::new(rate_mbit_s)).collect(),
        }
    }

    /// The link serving a given client.
    pub fn link_for_client(&mut self, client: usize) -> &mut Link {
        let n = self.links.len();
        &mut self.links[client % n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_matches_rate() {
        let l = Link::new(80.0); // 10 MB/s.
        assert_eq!(l.wire_time(10_000_000), SimTime::from_secs(1.0));
    }

    #[test]
    fn transfers_queue_on_capacity() {
        let mut l = Link::new(80.0);
        let a = l.transmit(SimTime::ZERO, 10_000_000, f64::INFINITY, SimTime::ZERO);
        let b = l.transmit(SimTime::ZERO, 10_000_000, f64::INFINITY, SimTime::ZERO);
        assert_eq!(a, SimTime::from_secs(1.0));
        assert_eq!(b, SimTime::from_secs(2.0));
    }

    #[test]
    fn window_limit_dominates_when_slower() {
        let mut l = Link::new(80.0);
        // Window rate 1 MB/s is slower than the 10 MB/s wire.
        let done = l.transmit(SimTime::ZERO, 1_000_000, 1_000_000.0, SimTime::ZERO);
        assert_eq!(done, SimTime::from_secs(1.0));
        // But capacity accounting only charges the wire time: the link
        // is free again after 0.1 s.
        let next = l.transmit(SimTime::ZERO, 0, f64::INFINITY, SimTime::ZERO);
        assert_eq!(next, SimTime::from_secs(0.1));
    }

    #[test]
    fn propagation_delay_added_once() {
        let mut l = Link::new(80.0);
        let done = l.transmit(
            SimTime::ZERO,
            10_000_000,
            f64::INFINITY,
            SimTime::from_ms(75.0),
        );
        assert_eq!(done, SimTime::from_secs(1.075));
    }

    #[test]
    fn linkset_assigns_round_robin() {
        let mut s = LinkSet::new(5, 80.0);
        let mut send = |client| {
            s.link_for_client(client).transmit(
                SimTime::ZERO,
                10_000_000,
                f64::INFINITY,
                SimTime::ZERO,
            )
        };
        assert_eq!(send(0), SimTime::from_secs(1.0));
        // Clients 0 and 5 share link 0; client 1 has link 1 to itself.
        assert_eq!(send(5), SimTime::from_secs(2.0));
        assert_eq!(send(1), SimTime::from_secs(1.0));
    }
}
