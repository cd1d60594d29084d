//! # simcore — discrete-event simulation primitives
//!
//! Foundation crate for the `helmsim` workspace. It provides the
//! building blocks every other crate in the workspace composes into the
//! full out-of-core LLM inference simulator:
//!
//! * [`SimTime`] / [`SimDuration`] — simulated wall-clock time with
//!   total ordering and convenient unit constructors.
//! * [`EventQueue`] — a deterministic binary-heap priority queue of
//!   timestamped events (FIFO among equal timestamps), and the
//!   [`SimError`] faults a loop driving it reports.
//! * [`stats`] — statistic accumulators implementing the paper's
//!   "arithmetic mean discarding the first sample" metric rule.
//! * [`rng`] — deterministic, splittable random-number helpers.
//!
//! # Examples
//!
//! Drive a small event loop: an event may queue follow-ups, and the
//! queue pops everything in `(time, seq)` order:
//!
//! ```
//! use simcore::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_secs(2.0), "second");
//! queue.push(SimTime::from_secs(1.0), "first");
//! let mut log = Vec::new();
//! while let Some((now, event)) = queue.pop() {
//!     log.push(event);
//!     if event == "first" {
//!         queue.push(now + SimDuration::from_millis(500.0), "follow-up");
//!     }
//! }
//! assert_eq!(log, vec!["first", "follow-up", "second"]);
//! ```

pub mod audit;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;

pub use queue::{EventQueue, SimError};
pub use stats::{Accumulator, Reservoir, SeriesStats};
pub use time::{SimDuration, SimTime};
pub use trace::{NestingError, TraceSpan};
pub use units::{Bandwidth, ByteSize, ComputeRate, PowerDensity, UnitError};
