//! Statistics collectors used by the experiment harness.

use crate::time::SimTime;

/// Online mean of a stream of samples.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sum: f64,
    count: u64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Measures throughput: bytes (or events) accumulated over simulated time.
#[derive(Debug, Clone, Copy, Default)]
pub struct RateMeter {
    amount: f64,
    started: SimTime,
    ended: SimTime,
}

impl RateMeter {
    /// Creates a meter with the window starting at `start`.
    pub fn new(start: SimTime) -> Self {
        RateMeter {
            amount: 0.0,
            started: start,
            ended: start,
        }
    }

    /// Records `amount` delivered at time `at`.
    pub fn record(&mut self, at: SimTime, amount: f64) {
        self.amount += amount;
        self.ended = self.ended.max(at);
    }

    /// Closes the measurement window at `at` without adding volume.
    pub fn close(&mut self, at: SimTime) {
        self.ended = self.ended.max(at);
    }

    /// Total amount recorded.
    pub fn total(&self) -> f64 {
        self.amount
    }

    /// Average rate in amount/second over the window.
    pub fn per_second(&self) -> f64 {
        let span = self.ended.saturating_sub(self.started).as_secs();
        if span <= 0.0 {
            0.0
        } else {
            self.amount / span
        }
    }

    /// Convenience: rate in megabits per second when amounts are bytes.
    pub fn mbit_per_sec(&self) -> f64 {
        self.per_second() * 8.0 / 1_000_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.record(v);
        }
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_zero() {
        assert_eq!(Summary::new().mean(), 0.0);
    }

    #[test]
    fn rate_meter_computes_mbps() {
        let mut m = RateMeter::new(SimTime::ZERO);
        m.record(SimTime::from_secs(1.0), 500_000.0);
        m.record(SimTime::from_secs(2.0), 500_000.0);
        // 1_000_000 bytes over 2 seconds = 4 Mb/s.
        assert!((m.mbit_per_sec() - 4.0).abs() < 1e-9);
        assert_eq!(m.total(), 1_000_000.0);
    }

    #[test]
    fn rate_meter_zero_window() {
        let m = RateMeter::new(SimTime::ZERO);
        assert_eq!(m.per_second(), 0.0);
    }
}
