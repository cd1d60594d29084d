//! Deterministic event queue.
//!
//! Orders entries by `(time, sequence)` so events scheduled for the
//! same instant pop in insertion order. Determinism matters: the whole
//! workspace relies on bit-identical replays for regression tests.
//!
//! The queue is a `BinaryHeap` over that key, O(log n) per operation.
//! It never holds much: the cluster engine draws arrivals lazily and
//! replays batch/step completions outside the queue, so a coalesced
//! run keeps at most one pending event and a per-step run at most one
//! per pipeline plus the next arrival (DESIGN.md §9). Because
//! `(time, seq)` is a total order with unique `seq`, any correct
//! priority queue pops the same sequence;
//! `tests/tests/scheduler_props.rs` checks this one against a
//! brute-force model of that order.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A timestamped FIFO-stable priority queue of events.
///
/// # Examples
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), "late");
/// q.push(SimTime::from_secs(1.0), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (then lowest seq)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `horizon`; leaves the queue untouched otherwise. One call
    /// replaces the peek-then-pop pair in the executor's hot loop.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= horizon {
            self.pop()
        } else {
            None
        }
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &s in &[3.0, 1.0, 2.0] {
            q.push(t(s), s as u32);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(1.0), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(t(5.0), ());
        q.push(t(4.0), ());
        assert_eq!(q.peek_time(), Some(t(4.0)));
        assert_eq!(q.pop().unwrap().0, t(4.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::<()>::default();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        assert!(q.pop_before(t(f64::MAX)).is_none());
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(t(1.0), "a");
        q.push(t(3.0), "b");
        assert_eq!(q.pop_before(t(2.0)).map(|(_, e)| e), Some("a"));
        assert_eq!(q.pop_before(t(2.0)), None);
        assert_eq!(q.len(), 1, "refused pop must not consume");
        assert_eq!(q.pop_before(t(3.0)).map(|(_, e)| e), Some("b"));
        assert!(q.is_empty());
    }

    /// Events spread over thirty orders of magnitude, pushed out of
    /// order, still pop earliest first.
    #[test]
    fn sparse_far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(t(1e12), 2u32);
        q.push(t(0.25), 0);
        q.push(t(f64::MAX), 3);
        q.push(t(1e9), 1);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    /// Ten thousand events over 97 tied instants fill the queue and
    /// drain it again in strict `(time, push order)` order.
    #[test]
    fn growth_and_shrink_round_trip() {
        let mut q = EventQueue::new();
        let n = 10_000u32;
        for i in 0..n {
            q.push(t(f64::from(i % 97) * 0.5), i);
        }
        assert_eq!(q.len(), n as usize);
        let mut last = (t(0.0), 0u32);
        let mut seen = 0;
        while let Some((time, e)) = q.pop() {
            if seen > 0 {
                assert!((time, e) > last, "order violated at {seen}");
            }
            last = (time, e);
            seen += 1;
        }
        assert_eq!(seen, n);
    }
}
