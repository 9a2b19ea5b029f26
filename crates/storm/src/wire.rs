//! Sliding-window sender bookkeeping for the adversarial wire.
//!
//! One [`WireSender`] tracks one direction of one connection's byte
//! stream in sequence space: which bytes exist (`offered`), which are
//! on the wire (`next` − `acked` in flight), and which the peer has
//! cumulatively acknowledged. Loss recovery is go-back-N: when a
//! retransmission timer fires, [`WireSender::rewind`] resets the send
//! cursor to the last cumulative ACK and the unacknowledged window goes
//! out again. The receiver side is the real
//! [`iolite_net::TcpReceiver`] reassembly queue — duplicates and
//! overlaps created by retransmission are *its* problem, which is
//! exactly the point.
//!
//! The struct holds no payloads and no clocks: payload bytes are
//! regenerated from the stream position at delivery time, and all
//! timing lives in the storm's event queue. Retransmission timers are
//! guarded by an epoch counter ([`WireSender::arm`]) so a superseded
//! timer event is recognized as stale and ignored instead of needing
//! queue surgery.

/// One direction of one connection over the adversarial wire.
#[derive(Debug, Clone)]
pub struct WireSender {
    mss: u64,
    window: u64,
    offered: u64,
    next: u64,
    acked: u64,
    epoch: u64,
}

impl WireSender {
    /// A sender with segment size `mss` and flight-size cap `window`
    /// (both in bytes).
    ///
    /// # Panics
    ///
    /// Panics if `mss` or `window` is zero.
    pub(crate) fn new(mss: u64, window: u64) -> WireSender {
        assert!(mss > 0 && window > 0, "degenerate wire");
        WireSender {
            mss,
            window,
            offered: 0,
            next: 0,
            acked: 0,
            epoch: 0,
        }
    }

    /// Extends the stream: bytes `[0, total)` now exist. Monotone —
    /// offering less than before is ignored.
    pub(crate) fn offer(&mut self, total: u64) {
        self.offered = self.offered.max(total);
    }

    /// Total bytes offered so far.
    pub(crate) fn offered(&self) -> u64 {
        self.offered
    }

    /// Cumulative ACK processing; returns `true` on progress (the
    /// caller then re-arms the retransmission timer and may emit more).
    pub(crate) fn on_ack(&mut self, ack: u64) -> bool {
        if ack > self.acked {
            self.acked = ack.min(self.offered);
            // ACKs are cumulative: anything the cursor already passed
            // stays passed, but a go-back-N rewind below the new ack
            // would re-send acknowledged bytes forever.
            self.next = self.next.max(self.acked);
            true
        } else {
            false
        }
    }

    /// The next segment to put on the wire, `(seq, len)`, advancing the
    /// cursor; `None` when the window is full or nothing is unsent.
    pub(crate) fn next_segment(&mut self) -> Option<(u64, u64)> {
        if self.next >= self.offered || self.in_flight() >= self.window {
            return None;
        }
        let len = self
            .mss
            .min(self.offered - self.next)
            .min(self.window - self.in_flight());
        let seq = self.next;
        self.next += len;
        Some((seq, len))
    }

    /// Like [`next_segment`](Self::next_segment) with the segment size
    /// capped at `max` — slowloris dribble uses this to put single
    /// bytes on the wire.
    pub(crate) fn next_segment_capped(&mut self, max: u64) -> Option<(u64, u64)> {
        if max == 0 || self.next >= self.offered || self.in_flight() >= self.window {
            return None;
        }
        let len = self
            .mss
            .min(max)
            .min(self.offered - self.next)
            .min(self.window - self.in_flight());
        let seq = self.next;
        self.next += len;
        Some((seq, len))
    }

    /// Go-back-N: the retransmission timer fired, so the send cursor
    /// rewinds to the last cumulative ACK and the whole unacknowledged
    /// window is re-sent.
    pub(crate) fn rewind(&mut self) {
        self.next = self.acked;
    }

    /// Bytes on the wire (sent past the last cumulative ACK).
    pub(crate) fn in_flight(&self) -> u64 {
        self.next - self.acked
    }

    /// Cumulative bytes acknowledged.
    pub(crate) fn acked(&self) -> u64 {
        self.acked
    }

    /// Offered bytes the cursor has not yet put on the wire.
    pub(crate) fn unsent(&self) -> u64 {
        self.offered - self.next
    }

    /// Whether every offered byte has been acknowledged.
    pub(crate) fn done(&self) -> bool {
        self.acked == self.offered
    }

    /// Arms (or re-arms) the retransmission timer: returns the new
    /// epoch to stamp on the scheduled timer event. Any previously
    /// scheduled timer becomes stale.
    pub(crate) fn arm(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Whether a timer event stamped `epoch` is the live one.
    pub(crate) fn timer_live(&self, epoch: u64) -> bool {
        self.epoch == epoch
    }

    /// Invalidates any outstanding timer (connection retired).
    pub(crate) fn disarm(&mut self) {
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_respect_mss_window_and_offer() {
        let mut tx = WireSender::new(100, 250);
        tx.offer(1000);
        assert_eq!(tx.next_segment(), Some((0, 100)));
        assert_eq!(tx.next_segment(), Some((100, 100)));
        // Window has 50 bytes left: the third segment is clipped.
        assert_eq!(tx.next_segment(), Some((200, 50)));
        assert_eq!(tx.next_segment(), None, "window full");
        assert!(tx.on_ack(100));
        assert_eq!(tx.next_segment(), Some((250, 100)), "window slid");
    }

    #[test]
    fn rewind_resends_the_unacked_window() {
        let mut tx = WireSender::new(100, 1000);
        tx.offer(300);
        while tx.next_segment().is_some() {}
        assert!(tx.on_ack(100));
        tx.rewind();
        assert_eq!(tx.next_segment(), Some((100, 100)), "go-back-N");
        assert_eq!(tx.next_segment(), Some((200, 100)));
        assert_eq!(tx.next_segment(), None, "nothing new to send");
        assert!(tx.on_ack(300));
        assert!(tx.done());
    }

    #[test]
    fn stale_acks_and_stale_timers_are_ignored() {
        let mut tx = WireSender::new(10, 100);
        tx.offer(50);
        while tx.next_segment().is_some() {}
        assert!(tx.on_ack(30));
        assert!(!tx.on_ack(30), "duplicate ACK is not progress");
        assert!(!tx.on_ack(10), "old ACK is not progress");
        let e1 = tx.arm();
        let e2 = tx.arm();
        assert!(!tx.timer_live(e1), "superseded timer is stale");
        assert!(tx.timer_live(e2));
        tx.disarm();
        assert!(!tx.timer_live(e2));
    }

    #[test]
    fn ack_beyond_cursor_drags_the_cursor() {
        // A retransmitted-then-rewound sender can see an ACK for bytes
        // its cursor hasn't re-sent yet (the original flight arrived
        // late); the cursor must never fall below the ACK.
        let mut tx = WireSender::new(10, 100);
        tx.offer(40);
        while tx.next_segment().is_some() {}
        tx.rewind();
        assert!(tx.on_ack(40));
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.next_segment(), None);
        assert!(tx.done());
    }

    #[test]
    fn dribble_caps_segment_length() {
        let mut tx = WireSender::new(1460, 10_000);
        tx.offer(10);
        assert_eq!(tx.next_segment_capped(3), Some((0, 3)));
        assert_eq!(tx.next_segment_capped(3), Some((3, 3)));
        assert_eq!(tx.next_segment_capped(100), Some((6, 4)));
        assert_eq!(tx.next_segment_capped(3), None);
    }
}
