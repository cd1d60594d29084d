//! Serving errors.

use simcore::units::{ByteSize, UnitError};
use simcore::SimError;
use std::fmt;

/// Errors raised while configuring or running a serving session.
#[derive(Debug, Clone, PartialEq)]
pub enum HelmError {
    /// A weight placement does not fit the targeted tier.
    CapacityExceeded {
        /// Tier name ("gpu", "cpu", "disk").
        tier: &'static str,
        /// Bytes the placement needs there.
        requested: ByteSize,
        /// Tier capacity.
        capacity: ByteSize,
    },
    /// The requested batch does not fit GPU memory alongside the
    /// placement.
    BatchTooLarge {
        /// Requested batch size.
        requested: u32,
        /// Largest batch that fits.
        max_batch: u32,
    },
    /// A policy placed weights on a storage tier the memory
    /// configuration does not provide.
    NoDiskTier,
    /// Percentages in a policy distribution do not sum to 100.
    InvalidDistribution {
        /// The offending (disk, cpu, gpu) percentages.
        percents: [f64; 3],
    },
    /// A quantity (bytes, bandwidth, time) was NaN or negative.
    InvalidUnit(UnitError),
    /// An executor needed a memory tier the platform does not
    /// provide (e.g. a disk transfer on a diskless configuration).
    TierUnavailable {
        /// Tier name ("gpu", "cpu", "disk").
        tier: &'static str,
    },
    /// The cluster engine's event loop hit a structural fault (an
    /// event queued before the clock, or the queue handing one back).
    Simulation(SimError),
    /// A run or plan was asked for with degenerate inputs (an empty
    /// pipeline mix, a zero-request calibration probe) that admit no
    /// meaningful report.
    InvalidConfig(&'static str),
}

impl From<UnitError> for HelmError {
    fn from(e: UnitError) -> Self {
        HelmError::InvalidUnit(e)
    }
}

impl From<SimError> for HelmError {
    fn from(e: SimError) -> Self {
        HelmError::Simulation(e)
    }
}

impl fmt::Display for HelmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HelmError::CapacityExceeded {
                tier,
                requested,
                capacity,
            } => write!(
                f,
                "placement needs {requested} on the {tier} tier but only {capacity} exists"
            ),
            HelmError::BatchTooLarge {
                requested,
                max_batch,
            } => write!(
                f,
                "batch size {requested} exceeds the maximum of {max_batch} that fits GPU memory"
            ),
            HelmError::NoDiskTier => {
                write!(
                    f,
                    "policy places weights on disk but no storage tier is configured"
                )
            }
            HelmError::InvalidDistribution { percents } => write!(
                f,
                "distribution ({}, {}, {}) does not sum to 100",
                percents[0], percents[1], percents[2]
            ),
            HelmError::InvalidUnit(e) => write!(f, "invalid unit value: {e}"),
            HelmError::TierUnavailable { tier } => {
                write!(f, "the {tier} tier is not available on this platform")
            }
            HelmError::Simulation(e) => write!(f, "simulation fault: {e}"),
            HelmError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for HelmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HelmError::InvalidUnit(e) => Some(e),
            HelmError::Simulation(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = HelmError::CapacityExceeded {
            tier: "cpu",
            requested: ByteSize::from_gb(300.0),
            capacity: ByteSize::from_gb(256.0),
        };
        let msg = e.to_string();
        assert!(msg.contains("cpu") && msg.contains("300"));
        assert!(HelmError::NoDiskTier.to_string().contains("disk"));
        let b = HelmError::BatchTooLarge {
            requested: 64,
            max_batch: 44,
        };
        assert!(b.to_string().contains("44"));
        let t = HelmError::TierUnavailable { tier: "disk" };
        assert!(t.to_string().contains("disk"));
    }

    #[test]
    fn unit_errors_convert_and_chain() {
        let u = UnitError::InvalidBandwidth(-1.0);
        let e = HelmError::from(u);
        assert_eq!(e, HelmError::InvalidUnit(u));
        assert!(e.to_string().contains("invalid"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&HelmError::NoDiskTier).is_none());
    }
}
