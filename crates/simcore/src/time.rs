//! Simulated time.
//!
//! Time is represented as `f64` seconds since simulation start, wrapped
//! in newtypes so instants ([`SimTime`]) and spans ([`SimDuration`])
//! cannot be confused. Both are totally ordered via `f64::total_cmp`;
//! constructors reject NaN and negative values, so the ordering always
//! agrees with numeric intuition.

use crate::units::UnitError;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulated clock, in seconds since simulation start.
///
/// # Examples
///
/// ```
/// use simcore::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(5.0);
/// assert_eq!(t.as_secs(), 0.005);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. Always non-negative and finite
/// (infinite durations are represented by [`SimDuration::INFINITY`] for
/// "never happens" sentinels).
///
/// # Examples
///
/// ```
/// use simcore::SimDuration;
///
/// let d = SimDuration::from_micros(1500.0);
/// assert_eq!(d.as_millis(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant at `secs` seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs >= 0.0 && !secs.is_nan(), "invalid sim time: {secs}");
        SimTime(secs)
    }

    /// Fallible form of [`SimTime::from_secs`].
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidTime`] if `secs` is negative or NaN.
    #[inline]
    pub fn try_from_secs(secs: f64) -> Result<Self, UnitError> {
        if secs >= 0.0 && !secs.is_nan() {
            Ok(SimTime(secs))
        } else {
            Err(UnitError::InvalidTime(secs))
        }
    }

    /// Seconds since simulation start.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Milliseconds since simulation start.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: {earlier} is after {self}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0.0);
    /// Sentinel for "never": compares greater than every finite span.
    pub const INFINITY: SimDuration = SimDuration(f64::INFINITY);

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs >= 0.0 && !secs.is_nan(), "invalid duration: {secs}");
        SimDuration(secs)
    }

    /// Fallible form of [`SimDuration::from_secs`].
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidTime`] if `secs` is negative or NaN.
    #[inline]
    pub fn try_from_secs(secs: f64) -> Result<Self, UnitError> {
        if secs >= 0.0 && !secs.is_nan() {
            Ok(SimDuration(secs))
        } else {
            Err(UnitError::InvalidTime(secs))
        }
    }

    /// `const` form of [`SimDuration::from_secs`], for typed duration
    /// constants (the panic message is unformatted — `const`
    /// evaluation cannot build one).
    ///
    /// # Panics
    ///
    /// Panics (at compile time when used in a `const`) if `secs` is
    /// negative or NaN.
    #[inline]
    pub const fn from_secs_const(secs: f64) -> Self {
        assert!(secs >= 0.0 && !secs.is_nan(), "invalid duration");
        SimDuration(secs)
    }

    /// `const` form of [`SimDuration::from_millis`].
    #[inline]
    pub const fn from_millis_const(ms: f64) -> Self {
        Self::from_secs_const(ms * 1e-3)
    }

    /// `const` form of [`SimDuration::from_micros`].
    #[inline]
    pub const fn from_micros_const(us: f64) -> Self {
        Self::from_secs_const(us * 1e-6)
    }

    /// `const` form of [`SimDuration::from_nanos`].
    #[inline]
    pub const fn from_nanos_const(ns: f64) -> Self {
        Self::from_secs_const(ns * 1e-9)
    }

    /// Creates a span of `ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or NaN.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Creates a span of `us` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or NaN.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Creates a span of `ns` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or NaN.
    #[inline]
    pub fn from_nanos(ns: f64) -> Self {
        Self::from_secs(ns * 1e-9)
    }

    /// The span in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The span in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The span in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// The span in nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// Whether this is the [`SimDuration::INFINITY`] sentinel.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}
impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for SimDuration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(rhs.0 <= self.0, "duration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "inf")
        } else if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(1.5);
        let d = SimDuration::from_millis(250.0);
        let t2 = t + d;
        assert_eq!(t2.duration_since(t), d);
        assert_eq!(t2 - t, d);
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1.0), SimDuration::from_millis(1e3));
        assert_eq!(SimDuration::from_millis(1.0), SimDuration::from_micros(1e3));
        let a = SimDuration::from_micros(1.0).as_secs();
        let b = SimDuration::from_nanos(1e3).as_secs();
        assert!((a - b).abs() < 1e-18);
    }

    #[test]
    fn ordering_is_total_and_numeric() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(SimDuration::ZERO < SimDuration::INFINITY);
    }

    #[test]
    #[should_panic(expected = "invalid sim time")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_subtraction_underflow_panics() {
        let _ = SimDuration::from_secs(1.0) - SimDuration::from_secs(2.0);
    }

    #[test]
    #[should_panic(expected = "is after")]
    fn duration_since_rejects_future() {
        let _ = SimTime::from_secs(1.0).duration_since(SimTime::from_secs(2.0));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_secs(2.0).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(1.5).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_micros(12.0).to_string(), "12.000us");
        assert_eq!(SimDuration::INFINITY.to_string(), "inf");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(f64::from(i))).sum();
        assert_eq!(total, SimDuration::from_secs(10.0));
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        assert_eq!(SimTime::try_from_secs(1.0), Ok(SimTime::from_secs(1.0)));
        assert_eq!(
            SimTime::try_from_secs(-1.0),
            Err(UnitError::InvalidTime(-1.0))
        );
        assert_eq!(
            SimDuration::try_from_secs(0.5),
            Ok(SimDuration::from_secs(0.5))
        );
        assert!(SimDuration::try_from_secs(f64::NAN).is_err());
    }

    #[test]
    fn const_constructors_agree_with_runtime_ones() {
        const QUARTER_MS: SimDuration = SimDuration::from_millis_const(0.25);
        const TEN_US: SimDuration = SimDuration::from_micros_const(10.0);
        const SEVENTY_NS: SimDuration = SimDuration::from_nanos_const(70.0);
        assert_eq!(QUARTER_MS, SimDuration::from_millis(0.25));
        assert_eq!(TEN_US, SimDuration::from_micros(10.0));
        assert_eq!(SEVENTY_NS, SimDuration::from_nanos(70.0));
        assert_eq!(
            SimDuration::from_secs_const(2.0),
            SimDuration::from_secs(2.0)
        );
    }

    #[test]
    fn scalar_mul_div() {
        let d = SimDuration::from_secs(2.0);
        assert_eq!(d * 2.0, SimDuration::from_secs(4.0));
        assert_eq!(d / 2.0, SimDuration::from_secs(1.0));
        assert_eq!(d / SimDuration::from_secs(0.5), 4.0);
    }
}
