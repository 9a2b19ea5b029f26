//! Event queue with deterministic tie-breaking.
//!
//! Experiment drivers (the Web-server harness, the application pipelines)
//! define their own event types and own the event loop; this module only
//! provides the time-ordered queue. Events scheduled for the same instant
//! pop in insertion order, which makes runs reproducible regardless of
//! `BinaryHeap` internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An entry in the queue: ordering key is `(time, sequence)`.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap and we want the earliest
        // (time, seq) first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with FIFO tie-breaking at equal timestamps.
///
/// # Examples
///
/// ```
/// use iolite_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_us(2.0), "late");
/// q.schedule(SimTime::from_us(1.0), "early");
/// q.schedule(SimTime::from_us(1.0), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_us(1.0), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_us(1.0), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_us(2.0), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to the current clock; the event
    /// fires "now" after already-queued events with the same timestamp.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` to fire `delay` after the current clock.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// The current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(3.0), 3);
        q.schedule(SimTime::from_us(1.0), 1);
        q.schedule(SimTime::from_us(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_us(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(5.0), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_us(5.0));
        // Scheduling in the past clamps to now.
        q.schedule(SimTime::from_us(1.0), ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_us(5.0));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(10.0), "a");
        q.pop();
        q.schedule_after(SimTime::from_us(5.0), "b");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "b");
        assert_eq!(t, SimTime::from_us(15.0));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
