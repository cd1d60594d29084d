//! Shared physical units: byte counts, bandwidths, compute rates, and
//! power densities.
//!
//! Newtypes keep byte counts, bandwidths, and times from being mixed
//! up in the performance models. Conventions follow the paper: decimal
//! units for bandwidth (GB/s = 1e9 bytes/s, as in "32.0 GB/s" PCIe)
//! and for quoted memory sizes, with binary constructors provided for
//! capacity math.

use crate::time::SimDuration;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A numeric value that cannot represent the unit it was given.
///
/// Returned by the `try_from_*` constructors on [`ByteSize`],
/// [`Bandwidth`], [`crate::SimTime`], and [`crate::SimDuration`]; the
/// panicking constructors reject the same inputs with an assert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnitError {
    /// Byte size from a negative or non-finite number.
    InvalidByteSize(f64),
    /// Bandwidth that is not finite and positive.
    InvalidBandwidth(f64),
    /// Time value (instant or span, in seconds) that is negative or NaN.
    InvalidTime(f64),
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitError::InvalidByteSize(v) => write!(f, "invalid byte size: {v}"),
            UnitError::InvalidBandwidth(v) => write!(f, "invalid bandwidth: {v}"),
            UnitError::InvalidTime(v) => write!(f, "invalid time value: {v}s"),
        }
    }
}

impl std::error::Error for UnitError {}

/// A size in bytes.
///
/// # Examples
///
/// ```
/// use simcore::units::ByteSize;
///
/// let a = ByteSize::from_gb(2.0);
/// assert_eq!(a.as_u64(), 2_000_000_000);
/// assert_eq!((a + a).as_gb(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Exact byte count.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Decimal kilobytes (1e3).
    #[inline]
    pub fn from_kb(kb: f64) -> Self {
        Self::from_f64(kb * 1e3)
    }

    /// Decimal megabytes (1e6).
    #[inline]
    pub fn from_mb(mb: f64) -> Self {
        Self::from_f64(mb * 1e6)
    }

    /// Decimal gigabytes (1e9).
    #[inline]
    pub fn from_gb(gb: f64) -> Self {
        Self::from_f64(gb * 1e9)
    }

    /// Binary mebibytes (2^20).
    #[inline]
    pub fn from_mib(mib: f64) -> Self {
        Self::from_f64(mib * (1u64 << 20) as f64)
    }

    /// Binary gibibytes (2^30).
    #[inline]
    pub fn from_gib(gib: f64) -> Self {
        Self::from_f64(gib * (1u64 << 30) as f64)
    }

    /// Binary tebibytes (2^40).
    #[inline]
    pub fn from_tib(tib: f64) -> Self {
        Self::from_f64(tib * (1u64 << 40) as f64)
    }

    /// `const` whole mebibytes, for typed size constants.
    #[inline]
    pub const fn from_mib_const(mib: u64) -> Self {
        ByteSize(mib << 20)
    }

    /// `const` whole gibibytes, for typed size constants.
    #[inline]
    pub const fn from_gib_const(gib: u64) -> Self {
        ByteSize(gib << 30)
    }

    /// Fallible decimal-gigabyte constructor.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidByteSize`] if `gb` is negative or
    /// not finite.
    #[inline]
    pub fn try_from_gb(gb: f64) -> Result<Self, UnitError> {
        Self::try_from_f64(gb * 1e9)
    }

    /// Fallible binary-gibibyte constructor.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidByteSize`] if `gib` is negative or
    /// not finite.
    #[inline]
    pub fn try_from_gib(gib: f64) -> Result<Self, UnitError> {
        Self::try_from_f64(gib * (1u64 << 30) as f64)
    }

    #[inline]
    fn try_from_f64(bytes: f64) -> Result<Self, UnitError> {
        if bytes >= 0.0 && bytes.is_finite() {
            Ok(ByteSize(bytes.round() as u64))
        } else {
            Err(UnitError::InvalidByteSize(bytes))
        }
    }

    #[inline]
    fn from_f64(bytes: f64) -> Self {
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "invalid byte size: {bytes}"
        );
        ByteSize(bytes.round() as u64)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as `f64` for rate math.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Decimal gigabytes.
    #[inline]
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Decimal megabytes.
    #[inline]
    pub fn as_mb(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Binary gibibytes.
    #[inline]
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }

    /// Binary mebibytes.
    #[inline]
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1u64 << 20) as f64
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two sizes.
    #[inline]
    pub fn max(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.max(other.0))
    }

    /// The smaller of two sizes.
    #[inline]
    pub fn min(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.min(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_add(rhs.0).expect("byte size overflow"))
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn sub(self, rhs: ByteSize) -> ByteSize {
        assert!(rhs.0 <= self.0, "byte size subtraction underflow");
        ByteSize(self.0 - rhs.0)
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0.checked_mul(rhs).expect("byte size overflow"))
    }
}

impl Mul<f64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn mul(self, rhs: f64) -> ByteSize {
        ByteSize::from_f64(self.0 as f64 * rhs)
    }
}

impl Div<ByteSize> for ByteSize {
    type Output = f64;
    #[inline]
    fn div(self, rhs: ByteSize) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> Self {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1e9 {
            write!(f, "{:.2} GB", b / 1e9)
        } else if b >= 1e6 {
            write!(f, "{:.2} MB", b / 1e6)
        } else if b >= 1e3 {
            write!(f, "{:.2} KB", b / 1e3)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A data rate in bytes/second.
///
/// # Examples
///
/// ```
/// use simcore::units::{Bandwidth, ByteSize};
///
/// let pcie = Bandwidth::from_gb_per_s(32.0);
/// let t = pcie.time_for(ByteSize::from_gb(16.0));
/// assert_eq!(t.as_secs(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a rate from decimal GB/s.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    #[inline]
    pub fn from_gb_per_s(gbps: f64) -> Self {
        assert!(
            gbps.is_finite() && gbps > 0.0,
            "invalid bandwidth: {gbps} GB/s"
        );
        Bandwidth(gbps * 1e9)
    }

    /// Creates a rate from bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    #[inline]
    pub fn from_bytes_per_s(bps: f64) -> Self {
        assert!(bps.is_finite() && bps > 0.0, "invalid bandwidth: {bps} B/s");
        Bandwidth(bps)
    }

    /// `const` form of [`Bandwidth::from_gb_per_s`], for typed rate
    /// constants (the panic message is unformatted — `const`
    /// evaluation cannot build one).
    ///
    /// # Panics
    ///
    /// Panics (at compile time when used in a `const`) if the rate is
    /// not finite and positive.
    #[inline]
    pub const fn from_gb_per_s_const(gbps: f64) -> Self {
        assert!(gbps.is_finite() && gbps > 0.0, "invalid bandwidth");
        Bandwidth(gbps * 1e9)
    }

    /// Fallible form of [`Bandwidth::from_gb_per_s`].
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidBandwidth`] if the rate is not
    /// finite and positive.
    #[inline]
    pub fn try_from_gb_per_s(gbps: f64) -> Result<Self, UnitError> {
        if gbps.is_finite() && gbps > 0.0 {
            Ok(Bandwidth(gbps * 1e9))
        } else {
            Err(UnitError::InvalidBandwidth(gbps))
        }
    }

    /// Fallible form of [`Bandwidth::from_bytes_per_s`].
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidBandwidth`] if the rate is not
    /// finite and positive.
    #[inline]
    pub fn try_from_bytes_per_s(bps: f64) -> Result<Self, UnitError> {
        if bps.is_finite() && bps > 0.0 {
            Ok(Bandwidth(bps))
        } else {
            Err(UnitError::InvalidBandwidth(bps))
        }
    }

    /// Rate in bytes/second.
    #[inline]
    pub fn as_bytes_per_s(self) -> f64 {
        self.0
    }

    /// Rate in decimal GB/s.
    #[inline]
    pub fn as_gb_per_s(self) -> f64 {
        self.0 / 1e9
    }

    /// Time to move `bytes` at this rate.
    #[inline]
    pub fn time_for(self, bytes: ByteSize) -> SimDuration {
        SimDuration::from_secs(bytes.as_f64() / self.0)
    }

    /// The smaller (bottleneck) of two rates.
    #[inline]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// The larger of two rates.
    #[inline]
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }

    /// Scales the rate by `factor` (e.g. an efficiency derating).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    #[inline]
    pub fn scale(self, factor: f64) -> Bandwidth {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid scale factor: {factor}"
        );
        Bandwidth(self.0 * factor)
    }

    /// Harmonic composition: the effective rate of moving each byte
    /// through every one of `stages` sequentially (store-and-forward).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn serial(stages: &[Bandwidth]) -> Bandwidth {
        assert!(!stages.is_empty(), "no stages");
        let inv: f64 = stages.iter().map(|b| 1.0 / b.0).sum();
        Bandwidth(1.0 / inv)
    }
}

impl Eq for Bandwidth {}
impl Ord for Bandwidth {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for Bandwidth {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.as_gb_per_s())
    }
}

/// A compute rate in floating-point operations per second.
///
/// Keeps the TFLOPS → FLOP/s decimal factor out of roofline code: a
/// device declares its peak as TFLOPS, kernels divide work by a
/// `ComputeRate`.
///
/// ```
/// use simcore::ComputeRate;
///
/// let peak = ComputeRate::from_tflops(312.0);
/// assert_eq!(peak.as_flops_per_s(), 312.0e12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComputeRate(f64);

impl ComputeRate {
    /// Creates a rate from TFLOPS (decimal tera-FLOP/s).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub fn from_tflops(tflops: f64) -> Self {
        assert!(
            tflops.is_finite() && tflops > 0.0,
            "invalid compute rate: {tflops} TFLOPS"
        );
        ComputeRate(tflops * 1e12)
    }

    /// Rate in FLOP/s.
    pub fn as_flops_per_s(self) -> f64 {
        self.0
    }

    /// Rate in TFLOPS.
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }

    /// Scales the rate by `factor` (e.g. an efficiency derating).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scale(self, factor: f64) -> ComputeRate {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid scale factor: {factor}"
        );
        ComputeRate(self.0 * factor)
    }
}

impl fmt::Display for ComputeRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} TFLOPS", self.as_tflops())
    }
}

/// A background power density in watts per decimal GB of capacity.
///
/// Types the W/GB coefficients of memory technologies (refresh,
/// standby, controller power) so capacity × density conversions go
/// through one audited method instead of ad-hoc scalar products.
///
/// ```
/// use simcore::{ByteSize, PowerDensity};
///
/// let dram = PowerDensity::from_w_per_gb(0.075);
/// assert_eq!(dram.static_watts(ByteSize::from_gb(128.0)), 9.6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerDensity(f64);

impl PowerDensity {
    /// Creates a density from W per decimal GB. `const` so technology
    /// coefficients can be typed constants.
    ///
    /// # Panics
    ///
    /// Panics (at compile time when used in a `const`) if the density
    /// is not finite and non-negative.
    pub const fn from_w_per_gb(w_per_gb: f64) -> Self {
        assert!(
            w_per_gb.is_finite() && w_per_gb >= 0.0,
            "invalid power density"
        );
        PowerDensity(w_per_gb)
    }

    /// Density in W per decimal GB.
    pub const fn as_w_per_gb(self) -> f64 {
        self.0
    }

    /// Background watts drawn by `capacity` at this density.
    pub fn static_watts(self, capacity: ByteSize) -> f64 {
        capacity.as_gb() * self.0
    }
}

impl Add for PowerDensity {
    type Output = PowerDensity;
    fn add(self, rhs: PowerDensity) -> PowerDensity {
        PowerDensity(self.0 + rhs.0)
    }
}

impl Div<f64> for PowerDensity {
    type Output = PowerDensity;
    fn div(self, rhs: f64) -> PowerDensity {
        assert!(rhs.is_finite() && rhs > 0.0, "invalid divisor: {rhs}");
        PowerDensity(self.0 / rhs)
    }
}

impl Eq for PowerDensity {}
impl Ord for PowerDensity {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for PowerDensity {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for PowerDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} W/GB", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_constructors() {
        assert_eq!(ByteSize::from_gb(1.0).as_u64(), 1_000_000_000);
        assert_eq!(ByteSize::from_gib(1.0).as_u64(), 1 << 30);
        assert_eq!(ByteSize::from_mb(1.0).as_u64(), 1_000_000);
        assert_eq!(ByteSize::from_mib(1.0).as_u64(), 1 << 20);
        assert_eq!(ByteSize::from_kb(1.0).as_u64(), 1_000);
    }

    #[test]
    fn byte_size_arithmetic() {
        let a = ByteSize::from_bytes(100);
        let b = ByteSize::from_bytes(40);
        assert_eq!(a + b, ByteSize::from_bytes(140));
        assert_eq!(a - b, ByteSize::from_bytes(60));
        assert_eq!(a * 3u64, ByteSize::from_bytes(300));
        assert_eq!(a * 0.5, ByteSize::from_bytes(50));
        assert_eq!(a / b, 2.5);
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
    }

    #[test]
    fn byte_size_display_scales() {
        assert_eq!(ByteSize::from_gb(1.5).to_string(), "1.50 GB");
        assert_eq!(ByteSize::from_mb(2.0).to_string(), "2.00 MB");
        assert_eq!(ByteSize::from_bytes(512).to_string(), "512 B");
    }

    #[test]
    fn bandwidth_time_for() {
        let bw = Bandwidth::from_gb_per_s(10.0);
        let t = bw.time_for(ByteSize::from_gb(5.0));
        assert!((t.as_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_bottleneck_and_serial() {
        let a = Bandwidth::from_gb_per_s(10.0);
        let b = Bandwidth::from_gb_per_s(30.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        // serial: 1/(1/10+1/30) = 7.5 GB/s
        assert!((Bandwidth::serial(&[a, b]).as_gb_per_s() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_scale() {
        let a = Bandwidth::from_gb_per_s(10.0).scale(0.8);
        assert!((a.as_gb_per_s() - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn byte_size_sub_underflow() {
        let _ = ByteSize::from_bytes(1) - ByteSize::from_bytes(2);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::from_gb_per_s(0.0);
    }

    #[test]
    fn tib_and_const_constructors() {
        assert_eq!(ByteSize::from_tib(1.0), ByteSize::from_gib(1024.0));
        const CHUNK: ByteSize = ByteSize::from_mib_const(64);
        assert_eq!(CHUNK, ByteSize::from_mib(64.0));
        const BIG: ByteSize = ByteSize::from_gib_const(2);
        assert_eq!(BIG, ByteSize::from_gib(2.0));
        const PCIE: Bandwidth = Bandwidth::from_gb_per_s_const(32.0);
        assert_eq!(PCIE, Bandwidth::from_gb_per_s(32.0));
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        assert_eq!(ByteSize::try_from_gb(2.0), Ok(ByteSize::from_gb(2.0)));
        assert_eq!(ByteSize::try_from_gib(1.0), Ok(ByteSize::from_gib(1.0)));
        assert!(matches!(
            ByteSize::try_from_gb(-1.0),
            Err(UnitError::InvalidByteSize(_))
        ));
        assert_eq!(
            Bandwidth::try_from_gb_per_s(10.0),
            Ok(Bandwidth::from_gb_per_s(10.0))
        );
        assert_eq!(
            Bandwidth::try_from_gb_per_s(0.0),
            Err(UnitError::InvalidBandwidth(0.0))
        );
        assert!(Bandwidth::try_from_bytes_per_s(f64::NAN).is_err());
        let msg = UnitError::InvalidBandwidth(-2.0).to_string();
        assert!(msg.contains("invalid bandwidth"));
    }

    #[test]
    fn byte_size_sums() {
        let total: ByteSize = (1..=3).map(ByteSize::from_bytes).sum();
        assert_eq!(total, ByteSize::from_bytes(6));
    }
}
