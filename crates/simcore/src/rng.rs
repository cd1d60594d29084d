//! Deterministic, splittable random-number helpers.
//!
//! Every stochastic element of the simulator (arrival times, deadline
//! mixes, reservoir samples) draws from a [`SimRng`] derived from a
//! master seed plus a stream label, so independent subsystems can be
//! reordered without perturbing each other's draws and whole runs
//! replay bit-identically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG stream.
///
/// # Examples
///
/// ```
/// use simcore::rng::SimRng;
///
/// let mut a = SimRng::from_seed_and_stream(42, "workload");
/// let mut b = SimRng::from_seed_and_stream(42, "workload");
/// assert_eq!(a.next_f64(), b.next_f64());
/// let mut c = SimRng::from_seed_and_stream(42, "jitter");
/// assert_ne!(a.next_f64(), c.next_f64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Derives a stream from a master `seed` and a `stream` label.
    pub fn from_seed_and_stream(seed: u64, stream: &str) -> Self {
        // FNV-1a over the label, mixed with the seed; cheap, stable,
        // and well-distributed enough to decorrelate streams.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self {
            inner: StdRng::seed_from_u64(seed ^ h),
        }
    }

    /// Splits off an independent child stream.
    pub fn split(&mut self, label: &str) -> SimRng {
        let child_seed: u64 = self.inner.gen();
        SimRng::from_seed_and_stream(child_seed, label)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range");
        self.inner.gen_range(lo..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_replays() {
        let mut a = SimRng::from_seed_and_stream(7, "x");
        let mut b = SimRng::from_seed_and_stream(7, "x");
        for _ in 0..32 {
            assert_eq!(a.next_f64(), b.next_f64());
        }
    }

    #[test]
    fn different_streams_decorrelate() {
        let mut a = SimRng::from_seed_and_stream(7, "x");
        let mut b = SimRng::from_seed_and_stream(7, "y");
        let same = (0..32).filter(|_| a.next_f64() == b.next_f64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_deterministic() {
        let mut parent1 = SimRng::from_seed_and_stream(9, "p");
        let mut parent2 = SimRng::from_seed_and_stream(9, "p");
        let mut c1 = parent1.split("child");
        let mut c2 = parent2.split("child");
        assert_eq!(c1.next_f64(), c2.next_f64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::from_seed_and_stream(1, "u");
        for _ in 0..1000 {
            let v = rng.uniform_usize(3, 9);
            assert!((3..=9).contains(&v));
        }
    }
}
