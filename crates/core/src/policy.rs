//! Serving policies (FlexGen's `Policy`).
//!
//! A policy carries the user-requested weight distribution across
//! (storage, host, GPU), the placement algorithm interpreting it,
//! whether weights are 4-bit compressed, and the serving batch size.
//! The paper's evaluated distributions (§V-A):
//!
//! * SSD/FSDAX (OPT-175B): `(65, 15, 20)`
//! * NVDRAM/MemoryMode (OPT-175B): `(0, 80, 20)`
//! * OPT-30B (fits in host memory): `(0, 50, 50)`

use crate::placement::PlacementKind;
use hetmem::MemoryConfigKind;
use llm::weights::DType;
use llm::ModelConfig;

/// A percentage split over (disk, cpu, gpu), summing to 100.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentDist {
    /// Storage-tier share.
    pub disk: f64,
    /// Host-memory share.
    pub cpu: f64,
    /// GPU share.
    pub gpu: f64,
}

impl PercentDist {
    /// A distribution; percentages must be non-negative and sum
    /// to 100 (within fp tolerance).
    ///
    /// # Panics
    ///
    /// Panics on negative shares or a sum away from 100.
    pub fn new(disk: f64, cpu: f64, gpu: f64) -> Self {
        assert!(disk >= 0.0 && cpu >= 0.0 && gpu >= 0.0, "negative share");
        assert!(
            ((disk + cpu + gpu) - 100.0).abs() < 1e-9,
            "shares must sum to 100: {disk}+{cpu}+{gpu}"
        );
        PercentDist { disk, cpu, gpu }
    }

    /// Fallible form of [`PercentDist::new`] for untrusted input
    /// (config files, CLI flags).
    ///
    /// # Errors
    ///
    /// [`crate::HelmError::InvalidDistribution`] on a NaN or negative
    /// share, or a sum away from 100.
    pub fn try_new(disk: f64, cpu: f64, gpu: f64) -> Result<Self, crate::HelmError> {
        let valid = [disk, cpu, gpu].iter().all(|p| p.is_finite() && *p >= 0.0)
            && ((disk + cpu + gpu) - 100.0).abs() < 1e-9;
        if valid {
            Ok(PercentDist { disk, cpu, gpu })
        } else {
            Err(crate::HelmError::InvalidDistribution {
                percents: [disk, cpu, gpu],
            })
        }
    }

    /// As the `(disk, cpu, gpu)` array FlexGen's allocator walks.
    pub fn as_array(&self) -> [f64; 3] {
        [self.disk, self.cpu, self.gpu]
    }
}

/// A complete serving policy.
///
/// # Examples
///
/// ```
/// use helm_core::policy::Policy;
/// use helm_core::placement::PlacementKind;
/// use hetmem::MemoryConfigKind;
/// use llm::ModelConfig;
///
/// let p = Policy::paper_default(&ModelConfig::opt_175b(), MemoryConfigKind::NvDram)
///     .with_compression(true)
///     .with_placement(PlacementKind::AllCpu)
///     .with_batch_size(44);
/// assert_eq!(p.batch_size(), 44);
/// assert!(p.compressed());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    dist: PercentDist,
    placement: PlacementKind,
    compress_weights: bool,
    batch_size: u32,
    num_gpu_batches: u32,
    kv_offload: bool,
}

impl Policy {
    /// The paper's default distribution for a model/memory pairing
    /// (baseline placement, uncompressed, batch 1).
    pub fn paper_default(model: &ModelConfig, memory: MemoryConfigKind) -> Self {
        let dist = if model.num_blocks() >= 96 {
            match memory {
                MemoryConfigKind::Ssd | MemoryConfigKind::FsDax => {
                    PercentDist::new(65.0, 15.0, 20.0)
                }
                _ => PercentDist::new(0.0, 80.0, 20.0),
            }
        } else {
            // OPT-30B-class: all weights host-resident. Fig 5a's
            // per-layer transfer magnitudes (~full 1.23 GB blocks at
            // PCIe rate) and the ~33% NVDRAM TTFT/TBT penalty both
            // indicate the host holds the full model.
            PercentDist::new(0.0, 100.0, 0.0)
        };
        Policy {
            dist,
            placement: PlacementKind::Baseline,
            compress_weights: false,
            batch_size: 1,
            num_gpu_batches: 1,
            kv_offload: false,
        }
    }

    /// A fully explicit policy.
    pub fn new(
        dist: PercentDist,
        placement: PlacementKind,
        compress_weights: bool,
        batch_size: u32,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Policy {
            dist,
            placement,
            compress_weights,
            batch_size,
            num_gpu_batches: 1,
            kv_offload: false,
        }
    }

    /// Replaces the distribution.
    pub fn with_dist(mut self, dist: PercentDist) -> Self {
        self.dist = dist;
        self
    }

    /// Selects the placement algorithm.
    pub fn with_placement(mut self, placement: PlacementKind) -> Self {
        self.placement = placement;
        self
    }

    /// Enables/disables group-wise 4-bit weight compression.
    pub fn with_compression(mut self, compress: bool) -> Self {
        self.compress_weights = compress;
        self
    }

    /// Sets the serving batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch_size(mut self, batch: u32) -> Self {
        assert!(batch > 0, "batch size must be positive");
        self.batch_size = batch;
        self
    }

    /// Sets the number of micro-batches computed per weight load
    /// (FlexGen's zig-zag block schedule: the same layer weights serve
    /// `n` GPU batches before the next layer streams, amortizing
    /// transfers). The effective batch is
    /// `batch_size * num_gpu_batches`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_gpu_batches(mut self, n: u32) -> Self {
        assert!(n > 0, "num_gpu_batches must be positive");
        self.num_gpu_batches = n;
        self
    }

    /// Offloads the KV cache to host memory: GPU HBM holds only the
    /// live layers' cache, KV streams in with weights and new entries
    /// write back over PCIe. Trades (Optane-hostile, Fig 3b) write
    /// traffic for much larger feasible batches.
    pub fn with_kv_offload(mut self, offload: bool) -> Self {
        self.kv_offload = offload;
        self
    }

    /// The requested (disk, cpu, gpu) distribution.
    pub fn dist(&self) -> PercentDist {
        self.dist
    }

    /// The placement algorithm.
    pub fn placement(&self) -> PlacementKind {
        self.placement
    }

    /// Whether weights are stored 4-bit compressed.
    pub fn compressed(&self) -> bool {
        self.compress_weights
    }

    /// The weight storage dtype implied by the compression flag.
    pub fn weight_dtype(&self) -> DType {
        if self.compress_weights {
            DType::Int4Grouped
        } else {
            DType::F16
        }
    }

    /// The serving batch size (per micro-batch).
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Micro-batches computed per weight load.
    pub fn num_gpu_batches(&self) -> u32 {
        self.num_gpu_batches
    }

    /// Sequences served per pipeline pass, saturating at `u32::MAX`:
    /// [`crate::server::Server::new`] rejects a policy whose product
    /// would not fit.
    pub fn effective_batch(&self) -> u32 {
        self.batch_size.saturating_mul(self.num_gpu_batches)
    }

    /// Whether the KV cache lives on the host tier.
    pub fn kv_offload(&self) -> bool {
        self.kv_offload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_v() {
        let m175 = ModelConfig::opt_175b();
        let ssd = Policy::paper_default(&m175, MemoryConfigKind::Ssd);
        assert_eq!(ssd.dist().as_array(), [65.0, 15.0, 20.0]);
        let nv = Policy::paper_default(&m175, MemoryConfigKind::NvDram);
        assert_eq!(nv.dist().as_array(), [0.0, 80.0, 20.0]);
        let m30 = ModelConfig::opt_30b();
        let dram = Policy::paper_default(&m30, MemoryConfigKind::Dram);
        assert_eq!(dram.dist().as_array(), [0.0, 100.0, 0.0]);
    }

    #[test]
    fn builders_compose() {
        let p = Policy::paper_default(&ModelConfig::opt_175b(), MemoryConfigKind::NvDram)
            .with_compression(true)
            .with_batch_size(8)
            .with_placement(PlacementKind::Helm);
        assert_eq!(p.weight_dtype(), DType::Int4Grouped);
        assert_eq!(p.batch_size(), 8);
        assert_eq!(p.placement(), PlacementKind::Helm);
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_distribution_rejected() {
        let _ = PercentDist::new(50.0, 10.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        let _ = Policy::paper_default(&ModelConfig::opt_30b(), MemoryConfigKind::Dram)
            .with_batch_size(0);
    }
}
