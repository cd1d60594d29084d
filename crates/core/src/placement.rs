//! Weight-placement algorithms.
//!
//! Three policies place each layer's weight tensors across the
//! storage/host/GPU hierarchy:
//!
//! * [`PlacementKind::Baseline`] — a faithful port of FlexGen's
//!   `init_weight_list` (paper Listing 2): walk the layer's tensors
//!   in declaration order and assign each by the cumulative-size
//!   midpoint against the requested percentage split. The paper shows
//!   this is *imperfect*: for OPT-175B it turns (0, 80, 20) into an
//!   achieved (0, 91.7, 8.3) and gives the large FFN layers no GPU
//!   share at all, producing the sawtooth of Fig 7a.
//! * [`PlacementKind::Helm`] — Heterogeneous Layerwise Mapping
//!   (Listing 3): per-layer-kind distributions — MHA (10, 90, 0) and
//!   FFN (30, 70, 0) in (GPU, host, storage) order — over the tensors
//!   *sorted ascending by size*, which lands all biases/norms plus
//!   the first FFN matrix on the GPU and balances the
//!   compute/communication pipeline.
//! * [`PlacementKind::AllCpu`] — every tensor on host memory,
//!   maximizing GPU space for KV cache (§V-C).

use crate::policy::Policy;
use llm::layers::{Layer, LayerKind};
use llm::weights::{DType, WeightSpec};
use llm::ModelConfig;
use simcore::units::ByteSize;
use std::fmt;

/// A placement tier (FlexGen's `env.disk / env.cpu / env.gpu`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Storage (SSD / FSDAX).
    Disk,
    /// Host memory (DRAM / Optane / Memory Mode / CXL).
    Cpu,
    /// GPU HBM.
    Gpu,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Disk => "disk",
            Tier::Cpu => "cpu",
            Tier::Gpu => "gpu",
        })
    }
}

/// Which placement algorithm interprets the policy distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementKind {
    /// FlexGen's percentage allocator (paper Listing 2).
    Baseline,
    /// Heterogeneous Layerwise Mapping (paper Listing 3).
    Helm,
    /// All weights on host memory (paper §V-C).
    AllCpu,
}

impl PlacementKind {
    /// Canonical CLI/JSON spelling — the name `helmsim` flags and
    /// machine-readable reports use, round-tripping through
    /// [`FromStr`](std::str::FromStr). Distinct from [`fmt::Display`],
    /// which keeps the paper's human-facing capitalization.
    pub fn as_str(self) -> &'static str {
        match self {
            PlacementKind::Baseline => "baseline",
            PlacementKind::Helm => "helm",
            PlacementKind::AllCpu => "all-cpu",
        }
    }
}

impl std::str::FromStr for PlacementKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "baseline" => Ok(PlacementKind::Baseline),
            "helm" => Ok(PlacementKind::Helm),
            "all-cpu" | "allcpu" => Ok(PlacementKind::AllCpu),
            other => Err(format!(
                "unknown placement '{other}' (expected baseline, helm, or all-cpu)"
            )),
        }
    }
}

impl fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlacementKind::Baseline => "Baseline",
            PlacementKind::Helm => "HeLM",
            PlacementKind::AllCpu => "All-CPU",
        })
    }
}

/// One weight tensor with its assigned tier.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedWeight {
    /// The tensor.
    pub spec: WeightSpec,
    /// Where it lives.
    pub tier: Tier,
}

/// The placement of one layer's tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlacement {
    layer: Layer,
    weights: Vec<PlacedWeight>,
}

impl LayerPlacement {
    /// The layer this placement covers.
    pub fn layer(&self) -> &Layer {
        &self.layer
    }

    /// Per-tensor assignments.
    pub fn weights(&self) -> &[PlacedWeight] {
        &self.weights
    }

    /// Bytes stored on `tier` at `dtype`.
    pub fn bytes_on(&self, tier: Tier, dtype: DType) -> ByteSize {
        self.weights
            .iter()
            .filter(|w| w.tier == tier)
            .map(|w| w.spec.bytes(dtype))
            .sum()
    }

    /// Bytes that must stream to the GPU each use (disk + cpu).
    pub fn offloaded_bytes(&self, dtype: DType) -> ByteSize {
        self.bytes_on(Tier::Disk, dtype) + self.bytes_on(Tier::Cpu, dtype)
    }

    /// Total layer bytes at `dtype`.
    pub fn total_bytes(&self, dtype: DType) -> ByteSize {
        WeightSpec::total_bytes(&self.layer.weight_specs(), dtype)
    }
}

/// A whole model's weight placement.
///
/// # Examples
///
/// The paper's achieved-distribution result: (0, 80, 20) becomes
/// (0, 91.7, 8.3) under the baseline allocator (§V-A):
///
/// ```
/// use helm_core::placement::{ModelPlacement, PlacementKind};
/// use helm_core::policy::Policy;
/// use hetmem::MemoryConfigKind;
/// use llm::ModelConfig;
///
/// let model = ModelConfig::opt_175b();
/// let policy = Policy::paper_default(&model, MemoryConfigKind::NvDram);
/// let placement = ModelPlacement::compute(&model, &policy);
/// let [disk, cpu, gpu] = placement.achieved_distribution();
/// assert!(disk < 0.1);
/// assert!((cpu - 91.7).abs() < 0.5);
/// assert!((gpu - 8.3).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPlacement {
    layers: Vec<LayerPlacement>,
    dtype: DType,
}

impl ModelPlacement {
    /// Places every layer of `model` according to `policy`.
    pub fn compute(model: &ModelConfig, policy: &Policy) -> ModelPlacement {
        Self::compute_inner(model, policy, false)
    }

    /// Like [`ModelPlacement::compute`], but validates the policy's
    /// percentage distribution first instead of silently normalizing:
    /// every component must be finite and non-negative, and the three
    /// must sum to 100 (within floating-point slack).
    ///
    /// # Errors
    ///
    /// [`crate::HelmError::InvalidDistribution`] when the distribution
    /// is malformed.
    pub fn try_compute(
        model: &ModelConfig,
        policy: &Policy,
    ) -> Result<ModelPlacement, crate::HelmError> {
        let percents = policy.dist().as_array();
        let valid = percents.iter().all(|p| p.is_finite() && *p >= 0.0)
            && (percents.iter().sum::<f64>() - 100.0).abs() < 1e-6;
        if !valid {
            return Err(crate::HelmError::InvalidDistribution { percents });
        }
        Ok(Self::compute_inner(model, policy, false))
    }

    /// HeLM's capacity fallback: when FC1-on-GPU cannot coexist with
    /// the serving batch's KV cache, the FFN share demotes to host
    /// and only biases/norms stay GPU-resident. This reproduces the
    /// paper's Table IV batch-8 HeLM rows, whose FFN-load times match
    /// a fully host-resident FFN.
    ///
    /// For non-HeLM policies this is identical to
    /// [`ModelPlacement::compute`].
    pub fn compute_helm_demoted(model: &ModelConfig, policy: &Policy) -> ModelPlacement {
        Self::compute_inner(model, policy, true)
    }

    /// A generalized HeLM-style placement with explicit per-layer-kind
    /// (GPU, host, storage) percentages — the search space of the
    /// [`crate::autoplace`] optimizer. `mha`/`ffn` cover the hidden
    /// layers; `other` covers the embedding layers. Tensors are
    /// allocated sorted-ascending like Listing 3.
    pub fn compute_custom(
        model: &ModelConfig,
        compressed: bool,
        mha: [f64; 3],
        ffn: [f64; 3],
        other: [f64; 3],
    ) -> ModelPlacement {
        CustomPlacementTemplate::new(model, compressed).build(mha, ffn, other)
    }

    /// A pinned-prefix placement: the first `pinned_blocks` decoder
    /// blocks live entirely on the GPU, everything else on host —
    /// layer-granular pinning in the style of treating GPU memory as
    /// an inclusive weight cache (paper §VI, the vLLM/GHS comparison).
    /// The ablation benches contrast it with HeLM at equal GPU bytes:
    /// pinning concentrates its savings in a prefix instead of
    /// balancing every block's pipeline.
    pub fn compute_pinned_prefix(
        model: &ModelConfig,
        compressed: bool,
        pinned_blocks: usize,
    ) -> ModelPlacement {
        let dtype = if compressed {
            DType::Int4Grouped
        } else {
            DType::F16
        };
        let layers = Layer::sequence(model)
            .into_iter()
            .map(|layer| {
                let specs = layer.weight_specs();
                let pinned = layer.block().map(|b| b < pinned_blocks).unwrap_or(false);
                let tier = if pinned { Tier::Gpu } else { Tier::Cpu };
                let weights = specs
                    .into_iter()
                    .map(|spec| PlacedWeight { spec, tier })
                    .collect();
                LayerPlacement { layer, weights }
            })
            .collect();
        ModelPlacement { layers, dtype }
    }

    fn compute_inner(model: &ModelConfig, policy: &Policy, demote_ffn: bool) -> ModelPlacement {
        let dtype = policy.weight_dtype();
        let layers = Layer::sequence(model)
            .into_iter()
            .map(|layer| {
                let specs = layer.weight_specs();
                let tiers = match policy.placement() {
                    PlacementKind::Baseline => {
                        baseline_init_weight_list(&specs, policy.dist().as_array(), dtype)
                    }
                    PlacementKind::Helm => {
                        let kind = layer.kind();
                        if demote_ffn && kind == LayerKind::Ffn {
                            helm_allocate(&specs, [0.0, 100.0, 0.0], dtype)
                        } else {
                            helm_init_weight_list(&specs, kind, policy.dist().as_array(), dtype)
                        }
                    }
                    PlacementKind::AllCpu => vec![Tier::Cpu; specs.len()],
                };
                let weights = specs
                    .into_iter()
                    .zip(tiers)
                    .map(|(spec, tier)| PlacedWeight { spec, tier })
                    .collect();
                LayerPlacement { layer, weights }
            })
            .collect();
        ModelPlacement { layers, dtype }
    }

    /// Per-layer placements in layer order.
    pub fn layers(&self) -> &[LayerPlacement] {
        &self.layers
    }

    /// The weight storage dtype.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Total bytes on `tier`.
    pub fn total_on(&self, tier: Tier) -> ByteSize {
        self.layers
            .iter()
            .map(|l| l.bytes_on(tier, self.dtype))
            .sum()
    }

    /// The achieved (disk, cpu, gpu) percentage split by bytes.
    pub fn achieved_distribution(&self) -> [f64; 3] {
        let disk = self.total_on(Tier::Disk).as_f64();
        let cpu = self.total_on(Tier::Cpu).as_f64();
        let gpu = self.total_on(Tier::Gpu).as_f64();
        let total = disk + cpu + gpu;
        [
            100.0 * disk / total,
            100.0 * cpu / total,
            100.0 * gpu / total,
        ]
    }

    /// Bytes streamed from host+disk per full pass over the model —
    /// the cyclic working set driving Optane/Memory-Mode degradation.
    pub fn offloaded_working_set(&self) -> ByteSize {
        self.layers
            .iter()
            .map(|l| l.offloaded_bytes(self.dtype))
            .sum()
    }

    /// The largest per-layer offloaded group (sizes the prefetch
    /// double-buffer).
    pub fn largest_offloaded_layer(&self) -> ByteSize {
        self.layers
            .iter()
            .map(|l| l.offloaded_bytes(self.dtype))
            .max()
            .unwrap_or(ByteSize::ZERO)
    }

    /// Prefetch staging bytes: the pipeline double-buffers the
    /// offloaded portions of two consecutive layers (layer *j* in use
    /// while *j+1* streams), so the reservation is the largest
    /// adjacent-pair sum (cyclic).
    pub fn staging_bytes(&self) -> ByteSize {
        let n = self.layers.len();
        (0..n)
            .map(|i| {
                self.layers[i].offloaded_bytes(self.dtype)
                    + self.layers[(i + 1) % n].offloaded_bytes(self.dtype)
            })
            .max()
            .unwrap_or(ByteSize::ZERO)
    }

    /// The achieved split for layers of one kind only (Fig 7b/7c and
    /// Fig 10 plot these for MHA and FFN).
    pub fn distribution_for_kind(&self, kind: LayerKind) -> [f64; 3] {
        let mut by_tier = [0.0f64; 3];
        for l in self.layers.iter().filter(|l| l.layer.kind() == kind) {
            by_tier[0] += l.bytes_on(Tier::Disk, self.dtype).as_f64();
            by_tier[1] += l.bytes_on(Tier::Cpu, self.dtype).as_f64();
            by_tier[2] += l.bytes_on(Tier::Gpu, self.dtype).as_f64();
        }
        let total: f64 = by_tier.iter().sum();
        by_tier.map(|b| 100.0 * b / total)
    }
}

/// Byte totals a [`ModelPlacement::compute_custom`] placement would
/// produce, computed without building it. Feeds the autoplace
/// screen's feasibility checks, where most candidates are rejected
/// on these totals alone and never pay for a placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomTotals {
    /// GPU-resident weight bytes ([`ModelPlacement::total_on`] `Gpu`).
    pub gpu: ByteSize,
    /// Host-resident weight bytes ([`ModelPlacement::total_on`] `Cpu`).
    pub cpu: ByteSize,
    /// Storage-resident weight bytes ([`ModelPlacement::total_on`] `Disk`).
    pub disk: ByteSize,
    /// Double-buffer staging bytes ([`ModelPlacement::staging_bytes`]).
    pub staging: ByteSize,
}

/// A reusable generator of custom placements over one model.
///
/// [`ModelPlacement::compute_custom`] walks the whole flattened layer
/// sequence and allocates every layer's tensors; a grid search calls
/// it once per candidate, re-deriving the identical layer sequence
/// and spec lists every time. The template hoists that invariant work
/// once: layers are grouped into classes with identical
/// `(kind, weight specs)` — one MHA class and one FFN class for the
/// uniform decoder stacks of the OPT family, plus the embeddings —
/// and per-candidate work shrinks to one `helm_allocate` call per
/// class. [`Self::build`] is bit-identical to `compute_custom` by
/// construction (`compute_custom` delegates to it), and
/// [`Self::totals`] returns the byte totals the built placement
/// would report without materializing per-layer assignments.
#[derive(Debug, Clone)]
pub struct CustomPlacementTemplate {
    dtype: DType,
    layers: Vec<Layer>,
    /// Class index of each layer in sequence order.
    class_of: Vec<usize>,
    /// The distinct `(kind, specs)` allocation classes.
    classes: Vec<(LayerKind, Vec<WeightSpec>)>,
}

impl CustomPlacementTemplate {
    /// Derives the template for `model` at the placement dtype
    /// `compressed` selects.
    pub fn new(model: &ModelConfig, compressed: bool) -> Self {
        let dtype = if compressed {
            DType::Int4Grouped
        } else {
            DType::F16
        };
        let layers = Layer::sequence(model);
        let mut classes: Vec<(LayerKind, Vec<WeightSpec>)> = Vec::new();
        let class_of = layers
            .iter()
            .map(|layer| {
                let specs = layer.weight_specs();
                match classes
                    .iter()
                    .position(|(kind, cached)| *kind == layer.kind() && *cached == specs)
                {
                    Some(class) => class,
                    None => {
                        classes.push((layer.kind(), specs));
                        classes.len() - 1
                    }
                }
            })
            .collect();
        CustomPlacementTemplate {
            dtype,
            layers,
            class_of,
            classes,
        }
    }

    /// One tier assignment per class — exactly what
    /// [`ModelPlacement::compute_custom`] would compute per layer.
    fn class_tiers(&self, mha: [f64; 3], ffn: [f64; 3], other: [f64; 3]) -> Vec<Vec<Tier>> {
        self.classes
            .iter()
            .map(|(kind, specs)| {
                let percents = match kind {
                    LayerKind::Mha => mha,
                    LayerKind::Ffn => ffn,
                    _ => other,
                };
                helm_allocate(specs, percents, self.dtype)
            })
            .collect()
    }

    /// The byte totals of the placement [`Self::build`] would return
    /// for these percentages, at one allocation per class instead of
    /// one per layer.
    pub fn totals(&self, mha: [f64; 3], ffn: [f64; 3], other: [f64; 3]) -> CustomTotals {
        let tiers = self.class_tiers(mha, ffn, other);
        // Per-class (gpu, cpu, disk) byte sums.
        let per_class: Vec<[ByteSize; 3]> = self
            .classes
            .iter()
            .zip(&tiers)
            .map(|((_, specs), assigned)| {
                let mut sums = [ByteSize::ZERO; 3];
                for (spec, tier) in specs.iter().zip(assigned) {
                    let slot = match tier {
                        Tier::Gpu => 0,
                        Tier::Cpu => 1,
                        Tier::Disk => 2,
                    };
                    sums[slot] += spec.bytes(self.dtype);
                }
                sums
            })
            .collect();
        let mut totals = [ByteSize::ZERO; 3];
        for &class in &self.class_of {
            for (total, sum) in totals.iter_mut().zip(per_class[class]) {
                *total += sum;
            }
        }
        // staging_bytes: max offloaded bytes over adjacent layer
        // pairs (wrapping), with offloaded = cpu + disk.
        let offloaded = |i: usize| -> ByteSize {
            per_class[self.class_of[i]][1] + per_class[self.class_of[i]][2]
        };
        let n = self.class_of.len();
        let staging = (0..n)
            .map(|i| offloaded(i) + offloaded((i + 1) % n))
            .max()
            .unwrap_or(ByteSize::ZERO);
        CustomTotals {
            gpu: totals[0],
            cpu: totals[1],
            disk: totals[2],
            staging,
        }
    }

    /// Materializes the full placement — the same output
    /// [`ModelPlacement::compute_custom`] returns for these
    /// percentages.
    pub fn build(&self, mha: [f64; 3], ffn: [f64; 3], other: [f64; 3]) -> ModelPlacement {
        let tiers = self.class_tiers(mha, ffn, other);
        let layers = self
            .layers
            .iter()
            .zip(&self.class_of)
            .map(|(layer, &class)| {
                let (_, specs) = &self.classes[class];
                let weights = specs
                    .iter()
                    .zip(&tiers[class])
                    .map(|(spec, &tier)| PlacedWeight {
                        spec: spec.clone(),
                        tier,
                    })
                    .collect();
                LayerPlacement {
                    layer: layer.clone(),
                    weights,
                }
            })
            .collect();
        ModelPlacement {
            layers,
            dtype: self.dtype,
        }
    }
}

/// Listing 2, `get_device`: first choice whose cumulative percentage
/// exceeds the current midpoint.
fn get_device(cur_percent: f64, percents: [f64; 3], choices: [Tier; 3]) -> Tier {
    let mut cumsum = 0.0;
    for i in 0..3 {
        cumsum += percents[i];
        if cur_percent < cumsum {
            return choices[i];
        }
    }
    choices[2]
}

/// Listing 2, `init_weight_list`: FlexGen's cumulative-midpoint
/// allocator over the declaration-ordered spec list with
/// (disk, cpu, gpu) percentages.
pub fn baseline_init_weight_list(
    specs: &[WeightSpec],
    dev_percents: [f64; 3],
    dtype: DType,
) -> Vec<Tier> {
    midpoint_allocate(
        specs.iter().map(|s| s.bytes(dtype).as_f64()),
        dev_percents,
        [Tier::Disk, Tier::Cpu, Tier::Gpu],
    )
}

/// Listing 3: HeLM's allocator. Per-kind (GPU, host, storage)
/// distributions for MHA/FFN, the policy's own distribution
/// (reordered to GPU-first) otherwise, over the specs *sorted
/// ascending by size*.
pub fn helm_init_weight_list(
    specs: &[WeightSpec],
    kind: LayerKind,
    policy_disk_cpu_gpu: [f64; 3],
    dtype: DType,
) -> Vec<Tier> {
    let dev_percents = match kind {
        LayerKind::Mha => [10.0, 90.0, 0.0],
        LayerKind::Ffn => [30.0, 70.0, 0.0],
        _ => [
            policy_disk_cpu_gpu[2],
            policy_disk_cpu_gpu[1],
            policy_disk_cpu_gpu[0],
        ],
    };
    helm_allocate(specs, dev_percents, dtype)
}

/// HeLM's inner allocator: (GPU, host, storage) percentages over the
/// specs sorted ascending by size (Listing 3 lines 11-17).
fn helm_allocate(specs: &[WeightSpec], dev_percents: [f64; 3], dtype: DType) -> Vec<Tier> {
    let choices = [Tier::Gpu, Tier::Cpu, Tier::Disk];
    // Sort indices ascending by size (stable, like Python's sorted).
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by(|&a, &b| {
        specs[a]
            .bytes(dtype)
            .cmp(&specs[b].bytes(dtype))
            .then(a.cmp(&b))
    });
    let sorted_tiers = midpoint_allocate(
        order.iter().map(|&i| specs[i].bytes(dtype).as_f64()),
        dev_percents,
        choices,
    );
    // Scatter assignments back to declaration order.
    let mut tiers = vec![Tier::Cpu; specs.len()];
    for (pos, &orig) in order.iter().enumerate() {
        tiers[orig] = sorted_tiers[pos];
    }
    tiers
}

/// The shared cumulative-midpoint loop (Listing 2, lines 14-24).
fn midpoint_allocate(
    sizes: impl Iterator<Item = f64>,
    dev_percents: [f64; 3],
    choices: [Tier; 3],
) -> Vec<Tier> {
    let sizes: Vec<f64> = sizes.collect();
    let total: f64 = sizes.iter().sum();
    if total <= 0.0 {
        return vec![choices[0]; sizes.len()];
    }
    let mut cumsum = 0.0;
    sizes
        .iter()
        .map(|&size| {
            cumsum += size;
            let mid_percent = (cumsum - size / 2.0) / total * 100.0;
            get_device(mid_percent, dev_percents, choices)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PercentDist, Policy};
    use hetmem::MemoryConfigKind;

    fn opt175b_policy(kind: PlacementKind, compressed: bool) -> (ModelConfig, Policy) {
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, MemoryConfigKind::NvDram)
            .with_placement(kind)
            .with_compression(compressed);
        (model, policy)
    }

    #[test]
    fn try_compute_matches_compute_on_valid_policies() {
        let (model, policy) = opt175b_policy(PlacementKind::Helm, true);
        let fallible = ModelPlacement::try_compute(&model, &policy).expect("valid distribution");
        assert_eq!(fallible, ModelPlacement::compute(&model, &policy));
    }

    #[test]
    fn try_new_distribution_rejects_garbage() {
        use crate::HelmError;
        assert!(matches!(
            PercentDist::try_new(-10.0, 90.0, 20.0),
            Err(HelmError::InvalidDistribution { .. })
        ));
        assert!(matches!(
            PercentDist::try_new(f64::NAN, 50.0, 50.0),
            Err(HelmError::InvalidDistribution { .. })
        ));
        assert!(matches!(
            PercentDist::try_new(10.0, 20.0, 30.0),
            Err(HelmError::InvalidDistribution { .. })
        ));
        let ok = PercentDist::try_new(0.0, 80.0, 20.0).expect("sums to 100");
        assert_eq!(ok.as_array(), [0.0, 80.0, 20.0]);
    }

    #[test]
    fn baseline_achieves_paper_distribution_nvdram() {
        // Paper §V-A: input (0, 80, 20) -> achieved (0, 91.7, 8.3).
        let (model, policy) = opt175b_policy(PlacementKind::Baseline, false);
        let placement = ModelPlacement::compute(&model, &policy);
        let [disk, cpu, gpu] = placement.achieved_distribution();
        assert!(disk < 1e-9);
        assert!((cpu - 91.7).abs() < 0.5, "cpu {cpu}");
        assert!((gpu - 8.3).abs() < 0.5, "gpu {gpu}");
    }

    #[test]
    fn baseline_achieves_paper_distribution_ssd() {
        // Paper §V-A: input (65, 15, 20) -> achieved (58.6, 33.1, 8.3).
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, MemoryConfigKind::Ssd);
        let placement = ModelPlacement::compute(&model, &policy);
        let [disk, cpu, gpu] = placement.achieved_distribution();
        assert!((disk - 58.6).abs() < 1.0, "disk {disk}");
        assert!((cpu - 33.1).abs() < 1.0, "cpu {cpu}");
        assert!((gpu - 8.3).abs() < 0.5, "gpu {gpu}");
    }

    #[test]
    fn baseline_gives_ffn_no_gpu_share() {
        // Fig 7c: the larger FFN layer gets no GPU allocation while
        // the smaller MHA layer does.
        let (model, policy) = opt175b_policy(PlacementKind::Baseline, true);
        let placement = ModelPlacement::compute(&model, &policy);
        let ffn = placement.distribution_for_kind(LayerKind::Ffn);
        let mha = placement.distribution_for_kind(LayerKind::Mha);
        assert!(ffn[2] < 0.1, "FFN gpu share {}", ffn[2]);
        assert!(mha[2] > 20.0, "MHA gpu share {}", mha[2]);
    }

    #[test]
    fn baseline_w_out_is_the_gpu_resident_mha_matrix() {
        let (model, policy) = opt175b_policy(PlacementKind::Baseline, false);
        let placement = ModelPlacement::compute(&model, &policy);
        let mha = placement
            .layers()
            .iter()
            .find(|l| l.layer().kind() == LayerKind::Mha)
            .unwrap();
        for w in mha.weights() {
            let expect_gpu = matches!(w.spec.name(), "w_out" | "b_out" | "w_ln" | "b_ln");
            assert_eq!(
                w.tier == Tier::Gpu,
                expect_gpu,
                "{} on {:?}",
                w.spec.name(),
                w.tier
            );
        }
    }

    #[test]
    fn helm_places_fc1_and_small_tensors_on_gpu() {
        // Paper Fig 9/10: HeLM puts FFN's first FC matrix plus all
        // biases/norms on the GPU; everything else on host.
        let (model, policy) = opt175b_policy(PlacementKind::Helm, true);
        let placement = ModelPlacement::compute(&model, &policy);
        let ffn = placement
            .layers()
            .iter()
            .find(|l| l.layer().kind() == LayerKind::Ffn)
            .unwrap();
        for w in ffn.weights() {
            let expect_gpu = w.spec.name() != "wo";
            assert_eq!(
                w.tier == Tier::Gpu,
                expect_gpu,
                "{} on {:?}",
                w.spec.name(),
                w.tier
            );
        }
        let mha = placement
            .layers()
            .iter()
            .find(|l| l.layer().kind() == LayerKind::Mha)
            .unwrap();
        for w in mha.weights() {
            let expect_gpu = !w.spec.name().starts_with("w_q")
                && !w.spec.name().starts_with("w_k")
                && !w.spec.name().starts_with("w_v")
                && w.spec.name() != "w_out";
            assert_eq!(
                w.tier == Tier::Gpu,
                expect_gpu,
                "{} on {:?}",
                w.spec.name(),
                w.tier
            );
        }
    }

    #[test]
    fn helm_holds_a_third_of_weights_on_gpu() {
        // Paper §V-C: "even with HeLM, only 33% of the total weights
        // are held in the GPU memory".
        let (model, policy) = opt175b_policy(PlacementKind::Helm, true);
        let placement = ModelPlacement::compute(&model, &policy);
        let [_, _, gpu] = placement.achieved_distribution();
        assert!((gpu - 33.0).abs() < 1.5, "gpu {gpu}");
    }

    #[test]
    fn helm_halves_ffn_transfer_and_raises_mha() {
        // Paper Fig 11a: FFN transfer bytes drop ~49%, MHA rise ~33%.
        let (model, base_policy) = opt175b_policy(PlacementKind::Baseline, true);
        let helm_policy = base_policy.clone().with_placement(PlacementKind::Helm);
        let base = ModelPlacement::compute(&model, &base_policy);
        let helm = ModelPlacement::compute(&model, &helm_policy);
        let dtype = base.dtype();
        let offloaded = |p: &ModelPlacement, kind| {
            p.layers()
                .iter()
                .filter(|l| l.layer().kind() == kind)
                .map(|l| l.offloaded_bytes(dtype).as_f64())
                .sum::<f64>()
        };
        let ffn_change = offloaded(&helm, LayerKind::Ffn) / offloaded(&base, LayerKind::Ffn);
        let mha_change = offloaded(&helm, LayerKind::Mha) / offloaded(&base, LayerKind::Mha);
        assert!((ffn_change - 0.5).abs() < 0.02, "FFN x{ffn_change}");
        assert!((mha_change - 1.33).abs() < 0.03, "MHA x{mha_change}");
    }

    #[test]
    fn all_cpu_offloads_everything() {
        let (model, policy) = opt175b_policy(PlacementKind::AllCpu, true);
        let placement = ModelPlacement::compute(&model, &policy);
        assert_eq!(placement.total_on(Tier::Gpu), ByteSize::ZERO);
        assert_eq!(placement.total_on(Tier::Disk), ByteSize::ZERO);
        let [_, cpu, _] = placement.achieved_distribution();
        assert!((cpu - 100.0).abs() < 1e-9);
    }

    #[test]
    fn every_weight_placed_exactly_once() {
        for kind in [
            PlacementKind::Baseline,
            PlacementKind::Helm,
            PlacementKind::AllCpu,
        ] {
            let (model, policy) = opt175b_policy(kind, true);
            let placement = ModelPlacement::compute(&model, &policy);
            let total: ByteSize = [Tier::Disk, Tier::Cpu, Tier::Gpu]
                .iter()
                .map(|&t| placement.total_on(t))
                .sum();
            let expect: ByteSize = placement
                .layers()
                .iter()
                .map(|l| l.total_bytes(placement.dtype()))
                .sum();
            assert_eq!(total, expect, "{kind:?}");
        }
    }

    #[test]
    fn sawtooth_exists_under_baseline_not_helm() {
        // Fig 7a: alternating MHA/FFN offloaded sizes under baseline;
        // HeLM flattens the pattern (MHA ~0.30 vs FFN ~0.34 GB).
        let (model, base_policy) = opt175b_policy(PlacementKind::Baseline, true);
        let helm_policy = base_policy.clone().with_placement(PlacementKind::Helm);
        let base = ModelPlacement::compute(&model, &base_policy);
        let helm = ModelPlacement::compute(&model, &helm_policy);
        let ratio = |p: &ModelPlacement| {
            let mha = p.layers()[1].offloaded_bytes(p.dtype()).as_f64();
            let ffn = p.layers()[2].offloaded_bytes(p.dtype()).as_f64();
            ffn / mha
        };
        assert!(ratio(&base) > 2.0, "baseline ridge/dip {}", ratio(&base));
        assert!(ratio(&helm) < 1.5, "HeLM ridge/dip {}", ratio(&helm));
    }

    #[test]
    fn custom_distribution_is_respected_roughly() {
        let model = ModelConfig::opt_30b();
        let policy = Policy::paper_default(&model, MemoryConfigKind::Dram)
            .with_dist(PercentDist::new(0.0, 100.0, 0.0));
        let placement = ModelPlacement::compute(&model, &policy);
        let [_, cpu, gpu] = placement.achieved_distribution();
        assert!(cpu > 99.9);
        assert!(gpu < 0.1);
    }

    #[test]
    fn largest_offloaded_layer_is_ffn_under_baseline() {
        let (model, policy) = opt175b_policy(PlacementKind::Baseline, false);
        let placement = ModelPlacement::compute(&model, &policy);
        let largest = placement.largest_offloaded_layer();
        let ffn = placement.layers()[2].offloaded_bytes(DType::F16);
        // Embedding tables can exceed FFN; check FFN is the largest
        // *hidden* group.
        assert!(largest >= ffn);
        assert!((ffn.as_gb() - 2.416).abs() < 0.01, "ffn {ffn}");
    }

    #[test]
    fn template_totals_match_built_placement() {
        // The autoplace screen rejects candidates on the template's
        // analytic byte totals alone. Soundness requires those totals
        // to equal the built placement's — for every tier and for the
        // staging ring — across the percent space the search sweeps.
        for compressed in [false, true] {
            let model = ModelConfig::opt_175b();
            let template = CustomPlacementTemplate::new(&model, compressed);
            for (mha, ffn) in [(0u32, 0u32), (10, 30), (37, 61), (50, 100), (100, 0)] {
                let mha_pct = [f64::from(mha), f64::from(100 - mha), 0.0];
                let ffn_pct = [f64::from(ffn), f64::from(100 - ffn), 0.0];
                let other_pct = [0.0, 100.0, 0.0];
                let totals = template.totals(mha_pct, ffn_pct, other_pct);
                let built = template.build(mha_pct, ffn_pct, other_pct);
                assert_eq!(totals.gpu, built.total_on(Tier::Gpu), "gpu at {mha}/{ffn}");
                assert_eq!(totals.cpu, built.total_on(Tier::Cpu), "cpu at {mha}/{ffn}");
                assert_eq!(
                    totals.disk,
                    built.total_on(Tier::Disk),
                    "disk at {mha}/{ffn}"
                );
                assert_eq!(
                    totals.staging,
                    built.staging_bytes(),
                    "staging at {mha}/{ffn}"
                );
            }
        }
    }

    #[test]
    fn template_build_matches_compute_custom() {
        // `compute_custom` delegates to the template, so the two
        // construction paths cannot drift; pin it anyway so a future
        // split reintroducing a second path fails loudly.
        let model = ModelConfig::opt_30b();
        let template = CustomPlacementTemplate::new(&model, true);
        let mha = [30.0, 70.0, 0.0];
        let ffn = [10.0, 90.0, 0.0];
        let other = [0.0, 100.0, 0.0];
        assert_eq!(
            template.build(mha, ffn, other),
            ModelPlacement::compute_custom(&model, true, mha, ffn, other)
        );
    }

    #[test]
    fn placement_kind_cli_names_round_trip() {
        for kind in [
            PlacementKind::Baseline,
            PlacementKind::Helm,
            PlacementKind::AllCpu,
        ] {
            assert_eq!(kind.as_str().parse::<PlacementKind>().unwrap(), kind);
        }
        assert_eq!(
            "allcpu".parse::<PlacementKind>().unwrap(),
            PlacementKind::AllCpu
        );
        assert!("helm-2".parse::<PlacementKind>().is_err());
    }
}
