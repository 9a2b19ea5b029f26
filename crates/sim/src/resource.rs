//! FIFO single-server resources (CPU, disk).
//!
//! The experiment drivers model the server CPU and the disk as FIFO
//! queues: a job arriving at `now` with service demand `d` completes at
//! `max(now, next_free) + d`. This is the standard event-calculus shortcut
//! for M/G/1-style stations and is exact for FIFO service.

use crate::time::SimTime;

/// A FIFO single-server queueing resource.
///
/// Tracks when the server next becomes free and total busy time, so
/// drivers can report utilization.
///
/// # Examples
///
/// ```
/// use iolite_sim::{FifoResource, SimTime};
///
/// let mut cpu = FifoResource::new();
/// let done1 = cpu.submit(SimTime::ZERO, SimTime::from_us(10.0));
/// let done2 = cpu.submit(SimTime::ZERO, SimTime::from_us(5.0));
/// assert_eq!(done1, SimTime::from_us(10.0));
/// // The second job queues behind the first.
/// assert_eq!(done2, SimTime::from_us(15.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    next_free: SimTime,
    busy: SimTime,
}

impl FifoResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        FifoResource::default()
    }

    /// Submits a job at `now` with the given service demand and returns
    /// its completion time.
    pub fn submit(&mut self, now: SimTime, service: SimTime) -> SimTime {
        let start = self.next_free.max(now);
        let done = start + service;
        self.next_free = done;
        self.busy += service;
        done
    }

    /// Time at which the server next becomes free.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            (self.busy.as_secs() / horizon.as_secs()).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut r = FifoResource::new();
        let done = r.submit(SimTime::from_us(100.0), SimTime::from_us(10.0));
        assert_eq!(done, SimTime::from_us(110.0));
    }

    #[test]
    fn jobs_queue_fifo() {
        let mut r = FifoResource::new();
        let a = r.submit(SimTime::ZERO, SimTime::from_us(10.0));
        let b = r.submit(SimTime::from_us(2.0), SimTime::from_us(10.0));
        let c = r.submit(SimTime::from_us(25.0), SimTime::from_us(10.0));
        assert_eq!(a, SimTime::from_us(10.0));
        assert_eq!(b, SimTime::from_us(20.0));
        // Arrives after the queue drained: starts at its arrival.
        assert_eq!(c, SimTime::from_us(35.0));
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut r = FifoResource::new();
        r.submit(SimTime::ZERO, SimTime::from_us(30.0));
        r.submit(SimTime::ZERO, SimTime::from_us(20.0));
        assert!((r.utilization(SimTime::from_us(100.0)) - 0.5).abs() < 1e-12);
    }
}
