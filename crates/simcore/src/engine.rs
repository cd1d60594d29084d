//! Closure-driven discrete-event executor.
//!
//! [`Simulator`] owns a user state `S` and an [`EventQueue`] of
//! entries: the workspace's one event queue, a binary heap that pops
//! in `(time, seq)` order. [`Simulator::new`] is its only
//! constructor. Each entry is either a boxed one-shot closure or a
//! *span* — a reusable `FnMut` handler registered up front with
//! [`Simulator::register_span`] and re-armed by id, so recurring
//! activities (arrival processes, coalesced macro-steps) cost zero
//! allocations per firing. Handlers receive a [`Context`] (through
//! which they can read the clock and schedule further events) and
//! `&mut S`. The executor loops until the queue drains or a
//! configured horizon is reached.
//!
//! Structural failures — scheduling into the simulated past, the
//! queue handing back a time before the clock, firing an unregistered
//! span — are recorded as typed [`SimError`] faults instead of
//! panicking: the run stops at the faulting event and
//! [`Simulator::run_checked`] surfaces the error.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use std::fmt;

type BoxedEvent<S> = Box<dyn FnOnce(&mut Context<S>, &mut S)>;
type SpanEvent<S> = Box<dyn FnMut(&mut Context<S>, &mut S)>;

/// Handle to a reusable span handler registered with
/// [`Simulator::register_span`]. Arming it with
/// [`Simulator::schedule_span_at`] / [`Context::schedule_span_at`] /
/// [`Context::reschedule_at`] enqueues the id alone — no per-firing
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// A structural simulation failure.
///
/// These are executor invariants, not domain errors: any of them
/// means an event handler (or the queue itself) broke causality. The
/// executor records the first fault, stops, and surfaces it through
/// [`Simulator::run_checked`] (or a panic in [`Simulator::run`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// An event was scheduled at an instant before the current clock.
    ScheduledIntoPast {
        /// The requested (past) instant.
        at: SimTime,
        /// The clock when the schedule call was made.
        now: SimTime,
    },
    /// The event queue handed back an event timestamped before the
    /// clock — a broken queue-order invariant.
    ClockWentBackwards {
        /// The popped event's timestamp.
        at: SimTime,
        /// The clock it fell behind.
        now: SimTime,
    },
    /// A span fired whose id was never registered on this simulator.
    UnknownSpan {
        /// The offending handle.
        span: SpanId,
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
            SimError::UnknownSpan { span } => {
                write!(f, "span {span:?} was never registered on this simulator")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// One queue entry: a one-shot closure or a registered span id.
enum Entry<S> {
    Once(BoxedEvent<S>),
    Span(SpanId),
}

/// Scheduling handle passed to every event handler.
///
/// Events cannot touch the executor directly (it is mid-iteration);
/// instead they push follow-up events into the context, which the
/// executor drains after the handler returns. Schedule calls that
/// would break causality record a [`SimError`] fault (absorbed by the
/// executor after the handler returns) rather than panicking.
pub struct Context<S> {
    now: SimTime,
    pending: Vec<(SimTime, Entry<S>)>,
    current_span: Option<SpanId>,
    fault: Option<SimError>,
}

impl<S> fmt::Debug for Context<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("pending", &self.pending.len())
            .field("current_span", &self.current_span)
            .field("fault", &self.fault)
            .finish()
    }
}

impl<S> Context<S> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Records the first structural fault; later ones are dropped.
    fn record_fault(&mut self, fault: SimError) {
        if self.fault.is_none() {
            self.fault = Some(fault);
        }
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, event: F)
    where
        F: FnOnce(&mut Context<S>, &mut S) + 'static,
    {
        self.pending
            .push((self.now + delay, Entry::Once(Box::new(event))));
    }

    /// Schedules `event` at an absolute instant. Scheduling into the
    /// simulated past records a [`SimError::ScheduledIntoPast`] fault
    /// and drops the event; the executor stops after this handler.
    pub fn schedule_at<F>(&mut self, at: SimTime, event: F)
    where
        F: FnOnce(&mut Context<S>, &mut S) + 'static,
    {
        if at < self.now {
            self.record_fault(SimError::ScheduledIntoPast { at, now: self.now });
            return;
        }
        self.pending.push((at, Entry::Once(Box::new(event))));
    }

    /// Arms the registered span `span` at an absolute instant,
    /// allocation-free. Past instants fault as in
    /// [`Context::schedule_at`].
    pub fn schedule_span_at(&mut self, at: SimTime, span: SpanId) {
        if at < self.now {
            self.record_fault(SimError::ScheduledIntoPast { at, now: self.now });
            return;
        }
        self.pending.push((at, Entry::Span(span)));
    }

    /// Re-arms the *currently executing* span at `at` — the
    /// allocation-free way for a recurring activity to continue
    /// itself. Outside a span handler this is a no-op recording an
    /// [`SimError::UnknownSpan`] fault.
    pub fn reschedule_at(&mut self, at: SimTime) {
        match self.current_span {
            Some(span) => self.schedule_span_at(at, span),
            None => self.record_fault(SimError::UnknownSpan {
                span: SpanId(usize::MAX),
            }),
        }
    }
}

/// A discrete-event simulator over user state `S`.
///
/// # Examples
///
/// Count how many events fired:
///
/// ```
/// use simcore::{Simulator, SimDuration};
///
/// let mut sim = Simulator::new(0u32);
/// sim.schedule_in(SimDuration::from_secs(1.0), |ctx, n: &mut u32| {
///     *n += 1;
///     ctx.schedule_in(SimDuration::from_secs(1.0), |_, n: &mut u32| *n += 1);
/// });
/// assert_eq!(sim.run(), 2);
/// ```
///
/// Drive a recurring activity through a span — one registration,
/// zero allocations per firing:
///
/// ```
/// use simcore::{SimDuration, SimTime, Simulator};
///
/// let mut sim = Simulator::new(0u32);
/// let tick = sim.register_span(|ctx, n: &mut u32| {
///     *n += 1;
///     if *n < 3 {
///         ctx.reschedule_at(ctx.now() + SimDuration::from_secs(1.0));
///     }
/// });
/// sim.schedule_span_at(SimTime::from_secs(1.0), tick);
/// assert_eq!(sim.run(), 3);
/// ```
pub struct Simulator<S> {
    state: S,
    queue: EventQueue<Entry<S>>,
    spans: Vec<Option<SpanEvent<S>>>,
    now: SimTime,
    fired: u64,
    fault: Option<SimError>,
    /// Recycled follow-up buffer: handed to each event's [`Context`],
    /// drained back after the closure returns. Keeps the hot loop from
    /// allocating one `Vec` per fired event.
    spare: Vec<(SimTime, Entry<S>)>,
}

impl<S: fmt::Debug> fmt::Debug for Simulator<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("fired", &self.fired)
            .field("spans", &self.spans.len())
            .field("fault", &self.fault)
            .field("state", &self.state)
            .finish()
    }
}

impl<S> Simulator<S> {
    /// Creates a simulator owning `state`, with the clock at zero and
    /// no events pending.
    pub fn new(state: S) -> Self {
        Simulator {
            state,
            queue: EventQueue::new(),
            spans: Vec::new(),
            now: SimTime::ZERO,
            fired: 0,
            fault: None,
            spare: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far (span firings
    /// included).
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// The first structural fault recorded, if any. Once set, further
    /// `run_until` calls are no-ops.
    pub fn fault(&self) -> Option<SimError> {
        self.fault
    }

    /// Registers a reusable span handler and returns its handle. The
    /// handler stays resident for the simulator's lifetime and fires
    /// every time its id is armed — recurring activities pay one
    /// allocation here instead of one per firing.
    pub fn register_span<F>(&mut self, event: F) -> SpanId
    where
        F: FnMut(&mut Context<S>, &mut S) + 'static,
    {
        self.spans.push(Some(Box::new(event)));
        SpanId(self.spans.len() - 1)
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, event: F)
    where
        F: FnOnce(&mut Context<S>, &mut S) + 'static,
    {
        self.queue
            .push(self.now + delay, Entry::Once(Box::new(event)));
    }

    /// Schedules `event` at an absolute instant. Past instants record
    /// a [`SimError::ScheduledIntoPast`] fault and drop the event.
    pub fn schedule_at<F>(&mut self, at: SimTime, event: F)
    where
        F: FnOnce(&mut Context<S>, &mut S) + 'static,
    {
        if at < self.now {
            self.record_fault(SimError::ScheduledIntoPast { at, now: self.now });
            return;
        }
        self.queue.push(at, Entry::Once(Box::new(event)));
    }

    /// Arms the registered span `span` at an absolute instant. Past
    /// instants fault as in [`Simulator::schedule_at`].
    pub fn schedule_span_at(&mut self, at: SimTime, span: SpanId) {
        if at < self.now {
            self.record_fault(SimError::ScheduledIntoPast { at, now: self.now });
            return;
        }
        self.queue.push(at, Entry::Span(span));
    }

    fn record_fault(&mut self, fault: SimError) {
        if self.fault.is_none() {
            self.fault = Some(fault);
        }
    }

    /// Runs until the event queue drains, returning the final state.
    ///
    /// # Panics
    ///
    /// Panics if the run recorded a structural [`SimError`] fault;
    /// use [`Simulator::run_checked`] to handle faults as values.
    pub fn run(mut self) -> S {
        self.run_until(SimTime::from_secs(f64::MAX));
        assert!(self.fault.is_none(), "simulation fault: {:?}", self.fault);
        self.state
    }

    /// Runs until the event queue drains and returns the final state,
    /// or the first structural fault recorded along the way.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] fault: an event scheduled into
    /// the past, a queue-order violation, or an unregistered span.
    pub fn run_checked(mut self) -> Result<S, SimError> {
        self.run_until(SimTime::from_secs(f64::MAX));
        match self.fault {
            Some(fault) => Err(fault),
            None => Ok(self.state),
        }
    }

    /// Runs until the queue drains, a structural fault is recorded, or
    /// the next event would fire after `horizon`; the clock never
    /// advances past `horizon`. A faulted simulator stays stopped.
    pub fn run_until(&mut self, horizon: SimTime) {
        if self.fault.is_some() {
            return;
        }
        while let Some((time, entry)) = self.queue.pop_before(horizon) {
            // Monotonicity is a structural invariant of the queue;
            // a violation is a fault, not a panic.
            if time < self.now {
                self.fault = Some(SimError::ClockWentBackwards {
                    at: time,
                    now: self.now,
                });
                return;
            }
            self.now = time;
            self.fired += 1;
            let mut ctx = Context {
                now: time,
                pending: std::mem::take(&mut self.spare),
                current_span: None,
                fault: None,
            };
            match entry {
                Entry::Once(event) => event(&mut ctx, &mut self.state),
                Entry::Span(span) => match self.spans.get_mut(span.0).and_then(Option::take) {
                    Some(mut event) => {
                        ctx.current_span = Some(span);
                        event(&mut ctx, &mut self.state);
                        self.spans[span.0] = Some(event);
                    }
                    None => ctx.record_fault(SimError::UnknownSpan { span }),
                },
            }
            let fault = ctx.fault;
            let mut pending = ctx.pending;
            for (at, ev) in pending.drain(..) {
                self.queue.push(at, ev);
            }
            self.spare = pending;
            if let Some(fault) = fault {
                self.record_fault(fault);
                return;
            }
        }
    }

    /// Shared access to the state between runs.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the state between runs.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_order_and_chain() {
        let mut sim = Simulator::new(Vec::new());
        sim.schedule_in(SimDuration::from_secs(2.0), |_, log: &mut Vec<u32>| {
            log.push(2);
        });
        sim.schedule_in(SimDuration::from_secs(1.0), |ctx, log: &mut Vec<u32>| {
            log.push(1);
            ctx.schedule_in(SimDuration::from_secs(0.5), |_, log: &mut Vec<u32>| {
                log.push(15);
            });
        });
        assert_eq!(sim.run(), vec![1, 15, 2]);
    }

    #[test]
    fn clock_tracks_event_times() {
        let mut sim = Simulator::new(SimTime::ZERO);
        sim.schedule_in(SimDuration::from_secs(3.0), |ctx, seen: &mut SimTime| {
            *seen = ctx.now();
        });
        let seen = sim.run();
        assert_eq!(seen, SimTime::from_secs(3.0));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulator::new(0u32);
        for i in 1..=5 {
            sim.schedule_in(SimDuration::from_secs(f64::from(i)), |_, n: &mut u32| {
                *n += 1;
            });
        }
        sim.run_until(SimTime::from_secs(3.0));
        assert_eq!(*sim.state(), 3);
        assert_eq!(sim.now(), SimTime::from_secs(3.0));
        sim.run_until(SimTime::from_secs(10.0));
        assert_eq!(*sim.state(), 5);
    }

    #[test]
    fn fired_counter_counts() {
        let mut sim = Simulator::new(());
        sim.schedule_in(SimDuration::ZERO, |ctx, _| {
            ctx.schedule_in(SimDuration::ZERO, |_, _| {});
        });
        sim.run_until(SimTime::from_secs(1.0));
        assert_eq!(sim.events_fired(), 2);
    }

    #[test]
    fn scheduling_into_past_is_a_typed_fault() {
        let mut sim = Simulator::new(0u32);
        sim.schedule_in(SimDuration::from_secs(1.0), |ctx, n: &mut u32| {
            *n += 1;
            ctx.schedule_at(SimTime::ZERO, |_, n: &mut u32| *n += 100);
            // The faulting event is dropped and the run stops after
            // this handler; later follow-ups never fire either.
            ctx.schedule_in(SimDuration::from_secs(1.0), |_, n: &mut u32| *n += 10);
        });
        let err = sim.run_checked().unwrap_err();
        assert_eq!(
            err,
            SimError::ScheduledIntoPast {
                at: SimTime::ZERO,
                now: SimTime::from_secs(1.0),
            }
        );
        assert!(err.to_string().contains("into the past"));
    }

    #[test]
    fn faulted_simulator_stays_stopped() {
        let mut sim = Simulator::new(0u32);
        sim.schedule_in(SimDuration::from_secs(1.0), |ctx, _| {
            ctx.schedule_at(SimTime::ZERO, |_, _| {});
        });
        sim.schedule_in(SimDuration::from_secs(2.0), |_, n: &mut u32| *n += 1);
        sim.run_until(SimTime::from_secs(10.0));
        assert!(matches!(
            sim.fault(),
            Some(SimError::ScheduledIntoPast { .. })
        ));
        sim.run_until(SimTime::from_secs(20.0));
        assert_eq!(*sim.state(), 0, "events after the fault must not fire");
    }

    #[test]
    #[should_panic(expected = "simulation fault")]
    fn run_panics_on_fault() {
        let mut sim = Simulator::new(());
        sim.schedule_in(SimDuration::from_secs(1.0), |ctx, _| {
            ctx.schedule_at(SimTime::ZERO, |_, _| {});
        });
        let () = sim.run();
    }

    #[test]
    fn span_rearms_without_allocation() {
        let mut sim = Simulator::new(Vec::new());
        let tick = sim.register_span(|ctx, log: &mut Vec<f64>| {
            log.push(ctx.now().as_secs());
            if log.len() < 4 {
                ctx.reschedule_at(ctx.now() + SimDuration::from_secs(0.5));
            }
        });
        sim.schedule_span_at(SimTime::from_secs(1.0), tick);
        assert_eq!(sim.run(), vec![1.0, 1.5, 2.0, 2.5]);
    }

    #[test]
    fn spans_interleave_with_one_shot_events_in_queue_order() {
        let mut sim = Simulator::new(Vec::new());
        let span = sim.register_span(|_, log: &mut Vec<&str>| log.push("span"));
        sim.schedule_span_at(SimTime::from_secs(1.0), span);
        sim.schedule_at(SimTime::from_secs(1.0), |_, log: &mut Vec<&str>| {
            log.push("once");
        });
        sim.schedule_span_at(SimTime::from_secs(2.0), span);
        // Equal timestamps preserve schedule order; the span fires
        // once per arming.
        assert_eq!(sim.run(), vec!["span", "once", "span"]);
    }

    #[test]
    fn span_events_count_toward_fired() {
        let mut sim = Simulator::new(());
        let span = sim.register_span(|_, ()| {});
        sim.schedule_span_at(SimTime::from_secs(1.0), span);
        sim.schedule_span_at(SimTime::from_secs(2.0), span);
        sim.run_until(SimTime::from_secs(10.0));
        assert_eq!(sim.events_fired(), 2);
    }

    #[test]
    fn unregistered_span_is_a_typed_fault() {
        let mut other = Simulator::new(());
        let _ = other.register_span(|_, ()| {});
        let foreign = other.register_span(|_, ()| {});

        let mut sim = Simulator::new(());
        sim.schedule_span_at(SimTime::from_secs(1.0), foreign);
        let err = sim.run_checked().unwrap_err();
        assert!(matches!(err, SimError::UnknownSpan { .. }));
    }

    #[test]
    fn reschedule_outside_a_span_is_a_typed_fault() {
        let mut sim = Simulator::new(());
        sim.schedule_in(SimDuration::from_secs(1.0), |ctx, _| {
            ctx.reschedule_at(SimTime::from_secs(2.0));
        });
        let err = sim.run_checked().unwrap_err();
        assert!(matches!(err, SimError::UnknownSpan { .. }));
    }
}
