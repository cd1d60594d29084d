//! Golden-value regression tests for the placement algorithms.
//!
//! The achieved distributions below were produced by the faithful
//! Listing-2/Listing-3 ports and verified against the paper's §V-A
//! numbers where the paper reports them ((0, 91.7, 8.3) and
//! (58.6, 33.1, 8.3) for OPT-175B). Any model or allocator change
//! that shifts them is placement-visible and must be deliberate.

use helm_core::placement::{ModelPlacement, PlacementKind};
use helm_core::policy::Policy;
use hetmem::MemoryConfigKind;
use llm::ModelConfig;

struct Golden {
    model: fn() -> ModelConfig,
    placement: PlacementKind,
    compressed: bool,
    memory: MemoryConfigKind,
    expect: [f64; 3],
    staging: u64,
}

const TOL: f64 = 0.05; // percentage points

fn goldens() -> Vec<Golden> {
    use MemoryConfigKind::{NvDram, Ssd};
    use PlacementKind::{AllCpu, Baseline, Helm};
    vec![
        // OPT-175B: the paper's reported achieved distributions.
        Golden {
            model: ModelConfig::opt_175b,
            placement: Baseline,
            compressed: false,
            memory: NvDram,
            expect: [0.0, 91.709, 8.291],
            staging: 3_651_551_232,
        },
        Golden {
            model: ModelConfig::opt_175b,
            placement: Baseline,
            compressed: false,
            memory: Ssd,
            expect: [58.618, 33.091, 8.291],
            staging: 3_651_551_232,
        },
        Golden {
            model: ModelConfig::opt_175b,
            placement: Baseline,
            compressed: true,
            memory: NvDram,
            expect: [0.0, 91.700, 8.300],
            staging: 1_027_104_768,
        },
        Golden {
            model: ModelConfig::opt_175b,
            placement: Helm,
            compressed: true,
            memory: NvDram,
            expect: [0.0, 66.871, 33.129],
            staging: 694_960_128,
        },
        Golden {
            model: ModelConfig::opt_175b,
            placement: Helm,
            compressed: true,
            memory: Ssd,
            expect: [0.705, 66.166, 33.129],
            staging: 694_960_128,
        },
        Golden {
            model: ModelConfig::opt_175b,
            placement: AllCpu,
            compressed: true,
            memory: NvDram,
            expect: [0.0, 100.0, 0.0],
            staging: 1_027_178_496,
        },
        // OPT-30B: all-host default; HeLM carves out its third.
        Golden {
            model: ModelConfig::opt_30b,
            placement: Baseline,
            compressed: false,
            memory: NvDram,
            expect: [0.0, 100.0, 0.0],
            staging: 1_542_912_000,
        },
        Golden {
            model: ModelConfig::opt_30b,
            placement: Helm,
            compressed: false,
            memory: NvDram,
            expect: [0.0, 67.465, 32.535],
            staging: 1_470_816_256,
        },
        // OPT-66B.
        Golden {
            model: ModelConfig::opt_66b,
            placement: Helm,
            compressed: true,
            memory: NvDram,
            expect: [0.0, 67.115, 32.885],
            staging: 531_884_160,
        },
        // LLaMA-2-70B: the gated FFN shifts HeLM's share slightly.
        Golden {
            model: ModelConfig::llama_2_70b,
            placement: Helm,
            compressed: true,
            memory: NvDram,
            expect: [0.0, 70.821, 29.179],
            staging: 411_729_920,
        },
        Golden {
            model: ModelConfig::llama_2_70b,
            placement: Baseline,
            compressed: true,
            memory: NvDram,
            expect: [0.0, 100.0, 0.0],
            staging: 543_866_880,
        },
    ]
}

#[test]
fn achieved_distributions_match_goldens() {
    for g in goldens() {
        let model = (g.model)();
        let policy = Policy::paper_default(&model, g.memory)
            .with_placement(g.placement)
            .with_compression(g.compressed);
        let placement = ModelPlacement::compute(&model, &policy);
        let achieved = placement.achieved_distribution();
        for (i, (got, want)) in achieved.iter().zip(g.expect.iter()).enumerate() {
            assert!(
                (got - want).abs() < TOL,
                "{} {:?} c={} {:?}: component {i}: {got} != {want}",
                model.name(),
                g.placement,
                g.compressed,
                g.memory
            );
        }
        assert_eq!(
            placement.staging_bytes().as_u64(),
            g.staging,
            "{} {:?} c={} staging",
            model.name(),
            g.placement,
            g.compressed
        );
    }
}

#[test]
fn pinned_prefix_places_whole_blocks() {
    let model = ModelConfig::opt_175b();
    let placement = ModelPlacement::compute_pinned_prefix(&model, true, 32);
    for lp in placement.layers() {
        let expect_gpu = lp.layer().block().map(|b| b < 32).unwrap_or(false);
        for w in lp.weights() {
            assert_eq!(
                w.tier == helm_core::placement::Tier::Gpu,
                expect_gpu,
                "layer {} tensor {}",
                lp.layer().index(),
                w.spec.name()
            );
        }
    }
    // 32 of 96 blocks pinned: one third of the block weights.
    let [_, cpu, gpu] = placement.achieved_distribution();
    assert!(gpu > 30.0 && gpu < 35.0, "gpu {gpu}");
    assert!(cpu > 65.0);
}

#[test]
fn compression_does_not_change_baseline_opt175b_split_much() {
    // The midpoint allocator works on relative sizes; 4-bit
    // compression preserves relative matrix sizes, so the achieved
    // split barely moves (biases/norms stay FP16, hence "barely").
    let model = ModelConfig::opt_175b();
    let raw = ModelPlacement::compute(
        &model,
        &Policy::paper_default(&model, MemoryConfigKind::NvDram),
    );
    let comp = ModelPlacement::compute(
        &model,
        &Policy::paper_default(&model, MemoryConfigKind::NvDram).with_compression(true),
    );
    let a = raw.achieved_distribution();
    let b = comp.achieved_distribution();
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x - y).abs() < 0.1, "{a:?} vs {b:?}");
    }
}

/// 64-bit FNV-1a over everything written into it, so a placement's
/// `Debug` rendering is hashed as it is formatted, without building
/// the string.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Every placement constructor, pinned as the FNV-1a of the `Debug`
/// renderings of the placements it builds for one model, in a fixed
/// order: `compute` and `compute_helm_demoted` for each kind with
/// compression off and on, the SSD default policy, pinned prefixes of
/// 0, 1, half and all blocks, and two custom points. The rendering
/// holds every layer and every tensor's tier, so any change to how a
/// placement is built must reproduce it bit for bit.
#[test]
fn placements_are_pinned_bit_for_bit() {
    use std::fmt::Write;
    let cases: [(fn() -> ModelConfig, u64); 10] = [
        (ModelConfig::opt_125m, 0x00cb_4775_ac3d_b2f1),
        (ModelConfig::opt_1_3b, 0xdeb0_e10d_7c4f_47ac),
        (ModelConfig::opt_6_7b, 0xeb54_0bee_3277_b6ac),
        (ModelConfig::opt_13b, 0x1889_9c00_7fda_90ea),
        (ModelConfig::opt_30b, 0xd915_5f42_e2e9_404e),
        (ModelConfig::opt_66b, 0x6852_7c29_dcf7_1f2e),
        (ModelConfig::opt_175b, 0x753b_2604_6ef5_f9dd),
        (ModelConfig::llama_2_7b, 0x7982_6124_ba02_a835),
        (ModelConfig::llama_2_70b, 0xce58_62da_1766_d743),
        (ModelConfig::llama_3_8b, 0x57b1_a8dd_5047_8ff3),
    ];
    let mut mismatches = Vec::new();
    for (preset, digest) in cases {
        let model = preset();
        let mut placements = Vec::new();
        for kind in [
            PlacementKind::Baseline,
            PlacementKind::Helm,
            PlacementKind::AllCpu,
        ] {
            for compressed in [false, true] {
                let policy = Policy::paper_default(&model, MemoryConfigKind::NvDram)
                    .with_placement(kind)
                    .with_compression(compressed);
                placements.push(ModelPlacement::compute(&model, &policy));
                placements.push(ModelPlacement::compute_helm_demoted(&model, &policy));
            }
        }
        let ssd = Policy::paper_default(&model, MemoryConfigKind::Ssd);
        placements.push(ModelPlacement::compute(&model, &ssd));
        let blocks = model.num_blocks();
        for pinned in [0, 1, blocks / 2, blocks] {
            placements.push(ModelPlacement::compute_pinned_prefix(&model, true, pinned));
        }
        placements.push(ModelPlacement::compute_custom(
            &model,
            false,
            [37.0, 33.0, 30.0],
            [61.0, 9.0, 30.0],
            [0.0, 50.0, 50.0],
        ));
        placements.push(ModelPlacement::compute_custom(
            &model,
            true,
            [10.0, 90.0, 0.0],
            [30.0, 70.0, 0.0],
            [0.0, 100.0, 0.0],
        ));
        let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
        for p in &placements {
            write!(hash, "{p:?}").expect("hashing cannot fail");
        }
        if hash.0 != digest {
            mismatches.push(format!("{}: {:#018x}", model.name(), hash.0));
        }
    }
    assert!(mismatches.is_empty(), "digests moved: {mismatches:#?}");
}
