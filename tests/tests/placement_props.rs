//! Property tests over the placement algorithms: conservation,
//! distribution bounds, and determinism for arbitrary policies and
//! model shapes.

use helm_core::placement::{
    baseline_init_weight_list, helm_init_weight_list, ModelPlacement, PlacedWeight, PlacementKind,
    Tier,
};
use helm_core::policy::{PercentDist, Policy};
use llm::layers::{Layer, LayerKind};
use llm::weights::{DType, WeightSpec};
use llm::ModelConfig;
use proptest::prelude::*;
use simcore::units::ByteSize;

/// Arbitrary (disk, cpu, gpu) distributions summing to 100.
fn dist_strategy() -> impl Strategy<Value = PercentDist> {
    (0.0f64..=100.0, 0.0f64..=100.0).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        PercentDist::new(lo, hi - lo, 100.0 - hi)
    })
}

/// Arbitrary small model shapes (heads divide hidden).
fn model_strategy() -> impl Strategy<Value = ModelConfig> {
    (1usize..=8, 1usize..=6, 2usize..=4).prop_map(|(heads, blocks, mult)| {
        ModelConfig::new("prop-model", heads * 64, heads, blocks, mult, 1000, 256)
    })
}

/// The placement algorithm written out layer by layer: derive each
/// layer's specs and run the allocator on them, with no sharing
/// between layers. The library builds each layer kind's list once and
/// shares it; this oracle is what that list must equal for every
/// layer. HeLM's demoted FFN goes through `helm_init_weight_list` with
/// an embedding kind, whose (GPU, host, storage) split is the policy's
/// (disk, cpu, gpu) one reversed: all host here.
fn per_layer_oracle(
    model: &ModelConfig,
    policy: &Policy,
    demote_ffn: bool,
) -> Vec<(Layer, Vec<PlacedWeight>)> {
    let dtype = policy.weight_dtype();
    Layer::sequence(model)
        .into_iter()
        .map(|layer| {
            let specs = layer.weight_specs();
            let tiers = match policy.placement() {
                PlacementKind::Baseline => {
                    baseline_init_weight_list(&specs, policy.dist().as_array(), dtype)
                }
                PlacementKind::Helm if demote_ffn && layer.kind() == LayerKind::Ffn => {
                    helm_init_weight_list(&specs, LayerKind::InputEmbed, [0.0, 100.0, 0.0], dtype)
                }
                PlacementKind::Helm => {
                    helm_init_weight_list(&specs, layer.kind(), policy.dist().as_array(), dtype)
                }
                PlacementKind::AllCpu => vec![Tier::Cpu; specs.len()],
            };
            let weights = specs
                .into_iter()
                .zip(tiers)
                .map(|(spec, tier)| PlacedWeight { spec, tier })
                .collect();
            (layer, weights)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `compute` and `compute_helm_demoted` equal the per-layer oracle
    /// layer by layer, by `==` and by `Debug` rendering.
    #[test]
    fn placement_matches_the_per_layer_oracle(
        dist in dist_strategy(),
        model in model_strategy(),
        compressed in any::<bool>(),
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => PlacementKind::Baseline,
            1 => PlacementKind::Helm,
            _ => PlacementKind::AllCpu,
        };
        let policy = Policy::new(dist, kind, compressed, 1);
        for demote_ffn in [false, true] {
            let placement = if demote_ffn {
                ModelPlacement::compute_helm_demoted(&model, &policy)
            } else {
                ModelPlacement::compute(&model, &policy)
            };
            let oracle = per_layer_oracle(&model, &policy, demote_ffn);
            prop_assert_eq!(placement.layers().len(), oracle.len());
            for (lp, (layer, weights)) in placement.layers().iter().zip(&oracle) {
                prop_assert_eq!(lp.layer(), layer);
                prop_assert_eq!(lp.weights(), &weights[..]);
                prop_assert_eq!(
                    format!("{lp:?}"),
                    format!("LayerPlacement {{ layer: {layer:?}, weights: {weights:?} }}")
                );
            }
        }
    }

    /// Every weight is placed on exactly one tier; bytes are conserved.
    #[test]
    fn placement_conserves_bytes(
        dist in dist_strategy(),
        model in model_strategy(),
        compressed in any::<bool>(),
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => PlacementKind::Baseline,
            1 => PlacementKind::Helm,
            _ => PlacementKind::AllCpu,
        };
        let policy = Policy::new(dist, kind, compressed, 1);
        let placement = ModelPlacement::compute(&model, &policy);
        let dtype = placement.dtype();
        let by_tier: ByteSize = [Tier::Disk, Tier::Cpu, Tier::Gpu]
            .iter()
            .map(|&t| placement.total_on(t))
            .sum();
        let expected: ByteSize = placement
            .layers()
            .iter()
            .map(|l| l.total_bytes(dtype))
            .sum();
        prop_assert_eq!(by_tier, expected);
        // The achieved split is a valid distribution.
        let achieved = placement.achieved_distribution();
        let sum: f64 = achieved.iter().sum();
        prop_assert!((sum - 100.0).abs() < 1e-6);
        prop_assert!(achieved.iter().all(|&p| (0.0..=100.0 + 1e-9).contains(&p)));
    }

    /// The baseline allocator respects percentage *monotonicity*: a
    /// higher GPU share never decreases GPU-resident bytes.
    #[test]
    fn baseline_gpu_share_is_monotone(
        gpu_lo in 0.0f64..=50.0,
        delta in 0.0f64..=50.0,
        model in model_strategy(),
    ) {
        let place = |gpu: f64| {
            let policy = Policy::new(
                PercentDist::new(0.0, 100.0 - gpu, gpu),
                PlacementKind::Baseline,
                false,
                1,
            );
            ModelPlacement::compute(&model, &policy).total_on(Tier::Gpu)
        };
        prop_assert!(place(gpu_lo + delta) >= place(gpu_lo));
    }

    /// Listing 2's midpoint allocator never assigns a tier whose
    /// percentage is zero unless every later choice is also zero.
    #[test]
    fn zero_disk_share_places_nothing_on_disk(
        cpu in 0.0f64..=100.0,
        model in model_strategy(),
    ) {
        let policy = Policy::new(
            PercentDist::new(0.0, cpu, 100.0 - cpu),
            PlacementKind::Baseline,
            false,
            1,
        );
        let placement = ModelPlacement::compute(&model, &policy);
        prop_assert_eq!(placement.total_on(Tier::Disk), ByteSize::ZERO);
    }

    /// Placement is deterministic.
    #[test]
    fn placement_is_deterministic(dist in dist_strategy(), model in model_strategy()) {
        let policy = Policy::new(dist, PlacementKind::Baseline, true, 1);
        let a = ModelPlacement::compute(&model, &policy);
        let b = ModelPlacement::compute(&model, &policy);
        prop_assert_eq!(a, b);
    }

    /// HeLM keeps MHA and FFN entirely off the storage tier (its
    /// per-kind distributions give storage 0%).
    #[test]
    fn helm_hidden_layers_avoid_disk(
        dist in dist_strategy(),
        model in model_strategy(),
    ) {
        let policy = Policy::new(dist, PlacementKind::Helm, true, 1);
        let placement = ModelPlacement::compute(&model, &policy);
        for lp in placement.layers() {
            if lp.layer().kind().is_hidden() {
                prop_assert_eq!(
                    lp.bytes_on(Tier::Disk, placement.dtype()),
                    ByteSize::ZERO
                );
            }
        }
    }

    /// The raw allocators return one tier per spec, independent of
    /// dtype and order.
    #[test]
    fn raw_allocators_cover_all_specs(
        disk in 0.0f64..=100.0,
        rest in 0.0f64..=100.0,
    ) {
        let cfg = ModelConfig::opt_125m();
        let specs = WeightSpec::mha_specs(&cfg);
        let cpu = (100.0 - disk) * rest / 100.0;
        let gpu = 100.0 - disk - cpu;
        let tiers = baseline_init_weight_list(&specs, [disk, cpu, gpu], DType::F16);
        prop_assert_eq!(tiers.len(), specs.len());
        let tiers2 = helm_init_weight_list(&specs, LayerKind::Mha, [disk, cpu, gpu], DType::F16);
        prop_assert_eq!(tiers2.len(), specs.len());
    }
}

/// Staging bytes are bounded by twice the largest offloaded layer.
#[test]
fn staging_bounds() {
    let model = ModelConfig::opt_175b();
    for kind in [
        PlacementKind::Baseline,
        PlacementKind::Helm,
        PlacementKind::AllCpu,
    ] {
        let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
            .with_placement(kind)
            .with_compression(true);
        let placement = ModelPlacement::compute(&model, &policy);
        let staging = placement.staging_bytes();
        let largest = placement.largest_offloaded_layer();
        assert!(staging >= largest);
        assert!(staging <= largest * 2u64);
    }
}
