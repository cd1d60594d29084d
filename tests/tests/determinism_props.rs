//! Repeated-run determinism of the offline executor and the cluster
//! engine.
//!
//! The offline executor accumulates every f64 in step order and the
//! cluster engine pops its events in `(time, seq)` order, so each
//! report is a pure function of its inputs. These tests pin that
//! property the blunt way: run the same configuration several times
//! and require the *entire* report (TTFT, TBT samples, step records,
//! audit ledgers) to be byte-identical, comparing the `Debug`
//! rendering of the full report. Any hash-order leak (e.g. a
//! `HashMap` iteration feeding a float sum) shows up as a diff here
//! long before it would corrupt a paper figure.
//!
//! CI runs this suite under `RAYON_NUM_THREADS` ∈ {1, 4}: both run on
//! the calling thread by design, but the matrix proves the ambient
//! worker-pool size cannot reach their results either.
//!
//! Every test forces auditing on before its first run, so the ledgers
//! are compared in release builds too, where auditing is otherwise
//! off. The switch is process-wide and only turns on, so a test that
//! set it after another test's first run would change that test's
//! later reports; setting it first in every test rules that out.

use helm_core::exec::{run_pipeline, PipelineInputs, RecordMode};
use helm_core::online::{
    run_cluster_mix, run_cluster_mix_traced, CalibrationCache, ClusterSpec, PoissonArrivals,
    SchedulerKind,
};
use helm_core::placement::{ModelPlacement, PlacementKind};
use helm_core::policy::{PercentDist, Policy};
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use proptest::prelude::*;
use workload::WorkloadSpec;

const REPEATS: usize = 3;

/// Renders the complete report — every field, including the audit
/// ledgers — into a canonical byte string.
fn report_bytes(inp: &PipelineInputs<'_>) -> String {
    simaudit::force_enable();
    let report = run_pipeline(inp).expect("pipeline runs");
    // A silently missing ledger would make this test vacuous for the
    // channel-conservation half.
    assert!(report.audit.is_some(), "audit ledgers absent");
    format!("{report:?}")
}

fn assert_repeats_identical(inp: &PipelineInputs<'_>) {
    let first = report_bytes(inp);
    for run in 1..REPEATS {
        let again = report_bytes(inp);
        assert_eq!(
            first, again,
            "offline run report diverged between run 0 and run {run}"
        );
    }
}

/// Paper-scale configurations across every memory tier and placement
/// kind: three identical runs each, byte-compared.
#[test]
fn offline_reports_are_byte_identical_across_repeated_runs() {
    let model = ModelConfig::opt_175b();
    let workload = WorkloadSpec::new(32, 4, 1);
    let memories = [
        HostMemoryConfig::dram(),
        HostMemoryConfig::nvdram(),
        HostMemoryConfig::memory_mode(),
        HostMemoryConfig::cxl_asic(),
    ];
    for memory in memories {
        let system = SystemConfig::paper_platform(memory);
        for kind in [
            PlacementKind::Baseline,
            PlacementKind::Helm,
            PlacementKind::AllCpu,
        ] {
            for kv_offload in [false, true] {
                let policy = Policy::new(PercentDist::new(0.0, 30.0, 70.0), kind, true, 8)
                    .with_gpu_batches(2)
                    .with_kv_offload(kv_offload);
                let placement = ModelPlacement::compute(&model, &policy);
                let inp = PipelineInputs {
                    system: &system,
                    model: &model,
                    policy: &policy,
                    placement: &placement,
                    workload: &workload,
                };
                assert_repeats_identical(&inp);
            }
        }
    }
}

/// Determinism at production scale: a 100 000-request mixed-cluster
/// run must render the *entire* `ClusterReport` byte-identically
/// across repeated runs, in both recording modes. This is the scale
/// the pooled event/request state exists for; any pop-order or
/// accumulation-order drift it introduced would surface here as a
/// diff.
#[test]
fn cluster_reports_byte_identical_at_1e5_requests() {
    simaudit::force_enable();
    let model = ModelConfig::opt_175b();
    let workload = WorkloadSpec::paper_default();
    let memory = HostMemoryConfig::nvdram();
    let system = SystemConfig::paper_platform(memory.clone());
    let base = Policy::paper_default(&model, memory.kind()).with_compression(true);
    let helm = Server::new(
        system.clone(),
        model.clone(),
        base.clone()
            .with_placement(PlacementKind::Helm)
            .with_batch_size(4),
    )
    .expect("helm server");
    let allcpu = Server::new(
        system,
        model,
        base.with_placement(PlacementKind::AllCpu)
            .with_batch_size(44),
    )
    .expect("all-cpu server");
    let groups: &[(&Server, usize)] = &[(&helm, 1), (&allcpu, 2)];
    for record in [RecordMode::Full, RecordMode::Aggregate] {
        let run = || {
            let spec = ClusterSpec::new(1)
                .with_scheduler(SchedulerKind::JoinShortestQueue)
                .with_record(record);
            // A fresh arrival process per run: identical draws, so any
            // report diff comes from the engine, not the workload.
            let mut arrivals = PoissonArrivals::new(2.0, 97);
            let report = run_cluster_mix(groups, &workload, &mut arrivals, 100_000, spec)
                .expect("cluster runs");
            assert!(report.audit.is_some(), "audit ledgers absent");
            format!("{report:?}")
        };
        assert_eq!(run(), run(), "repeated cluster run diverged ({record:?})");
    }
}

/// Tracing is a side channel, never a semantics knob: handing a run a
/// trace sink must leave every report — offline `RunReport`
/// and online `ClusterReport`, in both recording modes — bit-identical
/// to the untraced run. Attribution is computed unconditionally, so
/// it appears (identically) in both renderings; only the span trees
/// ride the separate channel.
#[test]
fn enabling_tracing_leaves_reports_bit_identical() {
    simaudit::force_enable();
    let model = ModelConfig::opt_175b();
    let workload = WorkloadSpec::paper_default();
    let memory = HostMemoryConfig::nvdram();
    let system = SystemConfig::paper_platform(memory.clone());
    let base = Policy::paper_default(&model, memory.kind()).with_compression(true);
    let helm = Server::new(
        system.clone(),
        model.clone(),
        base.clone()
            .with_placement(PlacementKind::Helm)
            .with_batch_size(4),
    )
    .expect("helm server");
    let allcpu = Server::new(
        system,
        model,
        base.with_placement(PlacementKind::AllCpu)
            .with_batch_size(44),
    )
    .expect("all-cpu server");

    // Offline: the traced run's report equals the untraced one.
    let plain = helm.run(&workload).expect("untraced run");
    let (traced, trace) = helm.run_traced(&workload).expect("traced run");
    assert!(trace.span_count() > 0, "traced run collected no spans");
    assert_eq!(
        format!("{plain:?}"),
        format!("{traced:?}"),
        "tracing changed the offline RunReport"
    );

    // Online: same, across both recording modes.
    let groups: &[(&Server, usize)] = &[(&helm, 1), (&allcpu, 1)];
    for record in [RecordMode::Full, RecordMode::Aggregate] {
        let spec = ClusterSpec::new(1)
            .with_scheduler(SchedulerKind::JoinShortestQueue)
            .with_record(record);
        let mut arrivals = PoissonArrivals::new(1.0, 97);
        let plain = run_cluster_mix(groups, &workload, &mut arrivals, 2_000, spec)
            .expect("untraced cluster run");
        let mut arrivals = PoissonArrivals::new(1.0, 97);
        let (traced, trace) = run_cluster_mix_traced(
            groups,
            &workload,
            &mut arrivals,
            2_000,
            spec,
            &mut CalibrationCache::new(),
        )
        .expect("traced cluster run");
        assert!(
            trace.span_count() > 0,
            "traced cluster run collected no spans"
        );
        assert_eq!(
            format!("{plain:?}"),
            format!("{traced:?}"),
            "tracing changed the ClusterReport ({record:?})"
        );
    }
}

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

fn memory_strategy() -> impl Strategy<Value = HostMemoryConfig> {
    (0u8..4).prop_map(|sel| match sel {
        0 => HostMemoryConfig::dram(),
        1 => HostMemoryConfig::nvdram(),
        2 => HostMemoryConfig::memory_mode(),
        _ => HostMemoryConfig::cxl_asic(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized configurations: repeated offline runs must stay
    /// byte-identical whatever the model/policy/memory draw.
    #[test]
    fn offline_repeated_runs_identical_on_random_configs(
        model in small_model(),
        policy in policy_strategy(),
        memory in memory_strategy(),
        gen_len in (0u8..3).prop_map(|sel| [1usize, 2, 32][usize::from(sel)]),
    ) {
        let system = SystemConfig::paper_platform(memory);
        let placement = ModelPlacement::compute(&model, &policy);
        let workload = WorkloadSpec::new(32, gen_len, 1);
        let inp = PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement: &placement,
            workload: &workload,
        };
        assert_repeats_identical(&inp);
    }
}
