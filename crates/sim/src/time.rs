//! Simulated time.
//!
//! Time is kept in integer nanoseconds so that event ordering is exact and
//! platform-independent. All cost-model arithmetic happens in `f64`
//! microseconds and is rounded once, on conversion to [`SimTime`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since the start of the run.
///
/// `SimTime` is totally ordered and supports saturating arithmetic with
/// durations expressed through the convenience constructors
/// ([`SimTime::from_us`], [`SimTime::from_ms`], [`SimTime::from_secs`]).
///
/// # Examples
///
/// ```
/// use iolite_sim::SimTime;
///
/// let t = SimTime::ZERO + SimTime::from_us(2.5);
/// assert_eq!(t.as_nanos(), 2_500);
/// assert!(t < SimTime::from_ms(1.0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time value from (possibly fractional) microseconds.
    ///
    /// Negative or non-finite inputs clamp to zero; the cost model never
    /// produces them, but clamping keeps the simulation total.
    pub fn from_us(us: f64) -> Self {
        if us.is_finite() && us > 0.0 {
            SimTime((us * 1_000.0).round() as u64)
        } else {
            SimTime(0)
        }
    }

    /// Creates a time value from (possibly fractional) milliseconds.
    pub fn from_ms(ms: f64) -> Self {
        Self::from_us(ms * 1_000.0)
    }

    /// Creates a time value from (possibly fractional) seconds.
    pub fn from_secs(s: f64) -> Self {
        Self::from_us(s * 1_000_000.0)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time as fractional milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating difference, returned as a duration-like `SimTime`.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else {
            write!(f, "{:.3}us", self.as_us())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_us(123.456);
        assert_eq!(t.as_nanos(), 123_456);
        assert!((t.as_us() - 123.456).abs() < 1e-9);
        assert_eq!(SimTime::from_ms(1.0), SimTime::from_us(1000.0));
        assert_eq!(SimTime::from_secs(1.0), SimTime::from_ms(1000.0));
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_us(-5.0), SimTime::ZERO);
        assert_eq!(SimTime::from_us(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_us(f64::INFINITY).as_nanos(), 0);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime(u64::MAX) + SimTime::from_us(1.0), SimTime(u64::MAX));
        assert_eq!(SimTime::ZERO - SimTime::from_us(1.0), SimTime::ZERO);
        assert_eq!(
            SimTime::from_us(5.0).saturating_sub(SimTime::from_us(7.0)),
            SimTime::ZERO
        );
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_us(1.0);
        let b = SimTime::from_us(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", SimTime::from_us(5.0)), "5.000us");
        assert_eq!(format!("{}", SimTime::from_ms(5.0)), "5.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(5.0)), "5.000s");
    }
}
