//! Early demultiplexing via a packet filter (§3.6).
//!
//! "Network interface drivers must determine the I/O stream associated
//! with an incoming packet, since this stream implies the ACL for the
//! data contained in the packet." The filter maps header fields to a
//! stream; the driver then allocates the payload's IO-Lite buffer from
//! that stream's pool *before* storing the data, avoiding a later copy.
//!
//! Disabling the filter reproduces the conventional driver: payloads
//! land in anonymous kernel buffers and must be copied once their
//! destination becomes known — `RxStats::bytes_copied` counts exactly
//! that.

use crate::packet::SegmentHeader;

/// Identifies an I/O stream (socket/connection) and thereby a buffer
/// pool and ACL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub u64);

/// One demultiplexing rule. More specific rules (more populated fields)
/// win over less specific ones.
#[derive(Debug, Clone, Copy)]
pub struct FilterRule {
    /// Destination port to match (the listening socket).
    pub dst_port: u16,
    /// Optional source IP restriction (established connections).
    pub src_ip: Option<u32>,
    /// Optional source port restriction.
    pub src_port: Option<u16>,
    /// The stream packets matching this rule belong to.
    pub stream: StreamId,
}

impl FilterRule {
    fn specificity(&self) -> u32 {
        1 + u32::from(self.src_ip.is_some()) + u32::from(self.src_port.is_some())
    }

    fn matches(&self, h: &SegmentHeader) -> bool {
        self.dst_port == h.dst_port
            && self.src_ip.is_none_or(|ip| ip == h.src_ip)
            && self.src_port.is_none_or(|p| p == h.src_port)
    }
}

/// Demux statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Packets matched to a stream (placed in the right pool directly).
    pub matched: u64,
    /// Packets with no matching rule (or filter disabled): one copy is
    /// owed downstream.
    pub unmatched: u64,
}

/// The packet filter: an ordered rule set evaluated per packet.
///
/// `Clone` is a true deep copy, used by kernel-state snapshots.
#[derive(Debug, Default, Clone)]
pub struct PacketFilter {
    rules: Vec<FilterRule>,
    enabled: bool,
    stats: FilterStats,
}

impl PacketFilter {
    /// Creates an enabled, empty filter.
    pub(crate) fn new() -> Self {
        PacketFilter {
            rules: Vec::new(),
            enabled: true,
            stats: FilterStats::default(),
        }
    }

    /// Enables or disables early demux (ablation switch).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Installs a rule.
    pub fn add_rule(&mut self, rule: FilterRule) {
        self.rules.push(rule);
    }

    /// Classifies one packet header, most-specific rule first.
    pub(crate) fn demux(&mut self, h: &SegmentHeader) -> Option<StreamId> {
        if !self.enabled {
            self.stats.unmatched += 1;
            return None;
        }
        let best = self
            .rules
            .iter()
            .filter(|r| r.matches(h))
            .max_by_key(|r| r.specificity());
        match best {
            Some(r) => {
                self.stats.matched += 1;
                Some(r.stream)
            }
            None => {
                self.stats.unmatched += 1;
                None
            }
        }
    }

    /// Demux counters.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(src_ip: u32, src_port: u16, dst_port: u16) -> SegmentHeader {
        SegmentHeader {
            src_ip,
            dst_ip: 1,
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            flags: 0x18,
            payload_len: 100,
        }
    }

    #[test]
    fn matches_listening_port() {
        let mut f = PacketFilter::new();
        f.add_rule(FilterRule {
            dst_port: 80,
            src_ip: None,
            src_port: None,
            stream: StreamId(1),
        });
        assert_eq!(f.demux(&header(9, 1234, 80)), Some(StreamId(1)));
        assert_eq!(f.demux(&header(9, 1234, 81)), None);
        assert_eq!(f.stats().matched, 1);
        assert_eq!(f.stats().unmatched, 1);
    }

    #[test]
    fn specific_rule_beats_wildcard() {
        let mut f = PacketFilter::new();
        f.add_rule(FilterRule {
            dst_port: 80,
            src_ip: None,
            src_port: None,
            stream: StreamId(1),
        });
        f.add_rule(FilterRule {
            dst_port: 80,
            src_ip: Some(42),
            src_port: Some(5000),
            stream: StreamId(2),
        });
        assert_eq!(f.demux(&header(42, 5000, 80)), Some(StreamId(2)));
        assert_eq!(f.demux(&header(43, 5000, 80)), Some(StreamId(1)));
    }

    #[test]
    fn disabled_filter_never_matches() {
        let mut f = PacketFilter::new();
        f.add_rule(FilterRule {
            dst_port: 80,
            src_ip: None,
            src_port: None,
            stream: StreamId(1),
        });
        f.set_enabled(false);
        assert_eq!(f.demux(&header(1, 1, 80)), None);
        assert_eq!(f.stats().unmatched, 1);
    }
}
