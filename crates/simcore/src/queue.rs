//! Deterministic event queue, and the faults of a loop that drives it.
//!
//! Orders entries by `(time, sequence)` so events scheduled for the
//! same instant pop in insertion order. Determinism matters: the whole
//! workspace relies on bit-identical replays for regression tests.
//!
//! The queue is a `BinaryHeap` over that key, O(log n) per operation.
//! Its one user is the cluster engine's event loop in
//! `helm_core::online`, and it never holds much: arrivals are drawn
//! lazily and coalesced batch/step completions stay in pipe state, so
//! a coalesced run keeps at most one pending event and a per-step run
//! at most one per pipeline plus the next arrival (DESIGN.md §9).
//! Because `(time, seq)` is a total order with unique `seq`, any
//! correct priority queue pops the same sequence;
//! `tests/tests/scheduler_props.rs` checks this one against a
//! brute-force model of that order.
//!
//! The queue only orders. The loop keeps the clock, and reports broken
//! causality as a [`SimError`] instead of panicking.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// A structural fault of an event loop driving an [`EventQueue`].
///
/// These are loop invariants, not domain errors: either one means an
/// event handler (or the queue itself) broke causality. The loop stops
/// at the first one and returns it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// An event was queued at an instant before the current clock.
    ScheduledIntoPast {
        /// The requested (past) instant.
        at: SimTime,
        /// The clock when the event was queued.
        now: SimTime,
    },
    /// The queue handed back an event timestamped before the clock —
    /// a broken queue-order invariant.
    ClockWentBackwards {
        /// The popped event's timestamp.
        at: SimTime,
        /// The clock it fell behind.
        now: SimTime,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ScheduledIntoPast { at, now } => {
                write!(f, "event scheduled into the past: {at} < now {now}")
            }
            SimError::ClockWentBackwards { at, now } => {
                write!(f, "event queue went backwards: {at} < now {now}")
            }
        }
    }
}

impl std::error::Error for SimError {}

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

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
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
        assert_eq!(q.peek_time(), Some(t(5.0)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::<()>::default();
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
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
