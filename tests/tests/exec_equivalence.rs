//! Golden-equivalence suite for the cost-table evaluator: the fast
//! path (`LayerCostTable` + `run_pipeline_with`) must reproduce the
//! seed evaluator (`run_pipeline_reference`) *bit for bit* — same
//! TTFT, same per-token TBT samples, same step records, same audit
//! ledgers — and `RecordMode::Aggregate` must change nothing except
//! dropping the per-step record vec. A serial coarse placement sweep
//! checks the consequence the autoplace engine relies on: identical
//! objective values mean an identical winner.

use helm_core::exec::{
    run_pipeline, run_pipeline_reference, run_pipeline_with, LayerCostTable, PipelineInputs,
    RecordMode,
};
use helm_core::metrics::RunReport;
use helm_core::placement::{ModelPlacement, PlacementKind};
use helm_core::policy::{PercentDist, Policy};
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use proptest::prelude::*;
use workload::WorkloadSpec;

fn small_model() -> impl Strategy<Value = ModelConfig> {
    (1usize..=6, 1usize..=4).prop_map(|(heads, blocks)| {
        ModelConfig::new("prop", heads * 64, heads, blocks, 4, 2000, 512)
    })
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    (
        0u8..3,
        any::<bool>(),
        1u32..=8,
        1u32..=3,
        any::<bool>(),
        0.0f64..=100.0,
    )
        .prop_map(|(kind, compressed, batch, micro, kv_offload, cpu)| {
            let kind = match kind {
                0 => PlacementKind::Baseline,
                1 => PlacementKind::Helm,
                _ => PlacementKind::AllCpu,
            };
            Policy::new(
                PercentDist::new(0.0, cpu, 100.0 - cpu),
                kind,
                compressed,
                batch,
            )
            .with_gpu_batches(micro)
            .with_kv_offload(kv_offload)
        })
}

/// Which constructor places a case's weights.
#[derive(Debug, Clone, Copy)]
enum Placer {
    /// `ModelPlacement::compute`: every layer of one kind shares one
    /// (cpu, disk) split.
    Policy,
    /// `compute_pinned_prefix`: the first blocks' layers stream
    /// nothing and the rest stream everything, so layers of one kind
    /// have different splits.
    PinnedPrefix(usize),
    /// `compute_custom` with these MHA and FFN GPU percentages.
    Custom(f64, f64),
}

impl Placer {
    fn place(self, model: &ModelConfig, policy: &Policy) -> ModelPlacement {
        let compressed = policy.compressed();
        match self {
            Placer::Policy => ModelPlacement::compute(model, policy),
            Placer::PinnedPrefix(blocks) => {
                ModelPlacement::compute_pinned_prefix(model, compressed, blocks)
            }
            Placer::Custom(mha, ffn) => ModelPlacement::compute_custom(
                model,
                compressed,
                [mha, 100.0 - mha, 0.0],
                [ffn, 100.0 - ffn, 0.0],
                [0.0, 100.0, 0.0],
            ),
        }
    }
}

fn placer_strategy() -> impl Strategy<Value = Placer> {
    (0u8..3, 0usize..=4, 0.0f64..=100.0, 0.0f64..=100.0).prop_map(|(sel, blocks, mha, ffn)| {
        match sel {
            0 => Placer::Policy,
            1 => Placer::PinnedPrefix(blocks),
            _ => Placer::Custom(mha, ffn),
        }
    })
}

fn memory_strategy() -> impl Strategy<Value = HostMemoryConfig> {
    (0u8..4).prop_map(|sel| match sel {
        0 => HostMemoryConfig::dram(),
        1 => HostMemoryConfig::nvdram(),
        2 => HostMemoryConfig::memory_mode(),
        _ => HostMemoryConfig::cxl_asic(),
    })
}

/// The ISSUE's required gen_len coverage: a prefill-only run, the
/// shortest run with a TBT sample, and a long decode tail.
fn gen_len_strategy() -> impl Strategy<Value = usize> {
    (0u8..3).prop_map(|sel| [1usize, 2, 32][usize::from(sel)])
}

/// Asserts every aggregate of two reports is bitwise identical:
/// f64-valued fields compared through `to_bits`, byte counts and
/// ledgers through exact equality.
fn assert_aggregates_bitwise(a: &RunReport, b: &RunReport) {
    assert_eq!(a.ttft.as_secs().to_bits(), b.ttft.as_secs().to_bits());
    assert_eq!(
        a.total_time.as_secs().to_bits(),
        b.total_time.as_secs().to_bits()
    );
    assert_eq!(a.tbt.count(), b.tbt.count());
    for (x, y) in a.tbt.samples().iter().zip(b.tbt.samples()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.tokens_generated, b.tokens_generated);
    assert_eq!(a.totals, b.totals);
    for (x, y) in a.achieved_distribution.iter().zip(&b.achieved_distribution) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    // Audit ledgers (present in debug builds) must match channel by
    // channel — proof the fast path schedules the same transfers.
    assert_eq!(a.audit, b.audit);
}

fn inputs_for<'a>(
    system: &'a SystemConfig,
    model: &'a ModelConfig,
    policy: &'a Policy,
    placement: &'a ModelPlacement,
    workload: &'a WorkloadSpec,
) -> PipelineInputs<'a> {
    PipelineInputs {
        system,
        model,
        policy,
        placement,
        workload,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cost-table fast path reproduces the seed evaluator bit for
    /// bit — aggregates *and* every per-step record — on the policy's
    /// own placements and on pinned-prefix and custom ones, where
    /// layers of one kind can differ in their (cpu, disk) split.
    #[test]
    fn fast_path_matches_reference_bitwise(
        model in small_model(),
        policy in policy_strategy(),
        memory in memory_strategy(),
        gen_len in gen_len_strategy(),
        placer in placer_strategy(),
    ) {
        let system = SystemConfig::paper_platform(memory);
        let placement = placer.place(&model, &policy);
        let workload = WorkloadSpec::new(32, gen_len, 1);
        let inp = inputs_for(&system, &model, &policy, &placement, &workload);
        let seed = run_pipeline_reference(&inp).unwrap();
        let fast = run_pipeline(&inp).unwrap();
        assert_aggregates_bitwise(&seed, &fast);
        prop_assert_eq!(&seed.records, &fast.records);
    }

    /// `RecordMode::Aggregate` drops the record vec and changes
    /// nothing else.
    #[test]
    fn aggregate_mode_only_drops_records(
        model in small_model(),
        policy in policy_strategy(),
        memory in memory_strategy(),
        gen_len in gen_len_strategy(),
    ) {
        let system = SystemConfig::paper_platform(memory);
        let placement = ModelPlacement::compute(&model, &policy);
        let workload = WorkloadSpec::new(32, gen_len, 1);
        let inp = inputs_for(&system, &model, &policy, &placement, &workload);
        let table = LayerCostTable::build(&inp).unwrap();

        let full = run_pipeline_with(&inp, &table, RecordMode::Full).unwrap();
        let agg = run_pipeline_with(&inp, &table, RecordMode::Aggregate).unwrap();
        assert_aggregates_bitwise(&full, &agg);
        prop_assert!(agg.records.is_empty());
        prop_assert_eq!(full.records.len(), agg.totals.steps);
    }
}

/// The paper platform at full scale: OPT-175B across every placement
/// kind, with and without KV offload, on both single-tier and split
/// disk/DRAM streaming. Exact, not approximate, agreement.
#[test]
fn paper_configs_match_reference_bitwise() {
    let model = ModelConfig::opt_175b();
    let workload = WorkloadSpec::paper_default();
    let cases = [
        (
            HostMemoryConfig::nvdram(),
            PlacementKind::Baseline,
            true,
            1,
            false,
        ),
        (
            HostMemoryConfig::nvdram(),
            PlacementKind::Helm,
            true,
            1,
            false,
        ),
        (
            HostMemoryConfig::nvdram(),
            PlacementKind::Helm,
            true,
            8,
            true,
        ),
        (
            HostMemoryConfig::dram(),
            PlacementKind::AllCpu,
            true,
            44,
            false,
        ),
        (
            HostMemoryConfig::ssd(),
            PlacementKind::Baseline,
            false,
            1,
            false,
        ),
        (HostMemoryConfig::ssd(), PlacementKind::Helm, false, 1, true),
    ];
    for (memory, kind, compressed, batch, kv_offload) in cases {
        let system = SystemConfig::paper_platform(memory.clone());
        let policy = Policy::paper_default(&model, memory.kind())
            .with_placement(kind)
            .with_compression(compressed)
            .with_batch_size(batch)
            .with_kv_offload(kv_offload);
        let placement = ModelPlacement::compute(&model, &policy);
        let inp = inputs_for(&system, &model, &policy, &placement, &workload);
        let seed = run_pipeline_reference(&inp).unwrap();
        let fast = run_pipeline(&inp).unwrap();
        assert_aggregates_bitwise(&seed, &fast);
        assert_eq!(seed.records, fast.records, "{kind:?} kv={kv_offload}");
    }
}

/// A serial coarse placement sweep picks the same winner whether each
/// candidate is costed by the seed evaluator or by the allocation-free
/// aggregate fast path — the property the autoplace engine's
/// `RecordMode::Aggregate` evaluation rests on.
#[test]
fn coarse_sweep_winner_unchanged() {
    let model = ModelConfig::new("sweep", 512, 8, 3, 4, 2000, 512);
    let memory = HostMemoryConfig::nvdram();
    let system = SystemConfig::paper_platform(memory.clone());
    let base = Policy::paper_default(&model, memory.kind()).with_batch_size(4);
    let workload = WorkloadSpec::new(64, 4, 1);

    let mut best_seed: Option<(u32, u64)> = None;
    let mut best_fast: Option<(u32, u64)> = None;
    for pct in (0..=100).step_by(10) {
        let placement = ModelPlacement::compute_custom(
            &model,
            base.compressed(),
            [f64::from(pct), f64::from(100 - pct), 0.0],
            [f64::from(pct), f64::from(100 - pct), 0.0],
            [0.0, 100.0, 0.0],
        );
        let inp = inputs_for(&system, &model, &base, &placement, &workload);
        let seed = run_pipeline_reference(&inp).unwrap();
        let table = LayerCostTable::build(&inp).unwrap();
        let fast = run_pipeline_with(&inp, &table, RecordMode::Aggregate).unwrap();
        assert_eq!(
            seed.tbt_ms().to_bits(),
            fast.tbt_ms().to_bits(),
            "objective diverged at {pct}%"
        );
        // Strict improvement, first-seen wins ties — the engine's rule.
        let key = seed.tbt_ms().to_bits();
        if best_seed.is_none_or(|(_, b)| seed.tbt_ms() < f64::from_bits(b)) {
            best_seed = Some((pct, key));
        }
        if best_fast.is_none_or(|(_, b)| fast.tbt_ms() < f64::from_bits(b)) {
            best_fast = Some((pct, fast.tbt_ms().to_bits()));
        }
    }
    assert_eq!(best_seed, best_fast, "sweep winner changed");
}
