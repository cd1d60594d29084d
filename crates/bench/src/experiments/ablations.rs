//! Ablations: what each of the paper's choices buys, against the
//! alternatives it names or implies.

use crate::{paper_server, run_serving, section, table};
use helm_core::exec::{run_pipeline, PipelineInputs};
use helm_core::metrics::Stage;
use helm_core::placement::{ModelPlacement, PlacementKind, Tier};
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::{NodePolicy, SystemConfig};
use hetmem::optane::OptaneDevice;
use hetmem::{AccessProfile, HostMemoryConfig};
use llm::layers::LayerKind;
use llm::ModelConfig;
use simcore::units::{Bandwidth, ByteSize};
use std::error::Error;
use std::fmt::Write as _;
use workload::WorkloadSpec;

/// Ablation: KV-cache offloading to the host tier (the related-work
/// combination the paper points at: "These approaches can be combined
/// with our work to further increase batch sizes").
///
/// Offloading removes the KV cache from GPU memory — batches grow far
/// past All-CPU's 44 — but every MHA layer now *writes* its new
/// entries back over PCIe, which is exactly the path Fig 3b shows
/// collapsing on Optane (3.26 GB/s vs DRAM's 26 GB/s). The ablation
/// quantifies when the trade pays off on each memory technology.
pub(super) fn ablation_kv_offload(out: &mut String) -> Result<(), Box<dyn Error>> {
    let workload = WorkloadSpec::paper_default();
    let all_cpu = |memory, batch, kv_offload| {
        paper_server(ModelConfig::opt_175b(), memory, |p| {
            p.with_placement(PlacementKind::AllCpu)
                .with_compression(true)
                .with_batch_size(batch)
                .with_kv_offload(kv_offload)
        })
    };

    for memory in [
        HostMemoryConfig::dram(),
        HostMemoryConfig::memory_mode(),
        HostMemoryConfig::nvdram(),
    ] {
        out.push_str(&section(&format!(
            "All-CPU + KV offload on {}",
            memory.kind()
        )));
        let mut rows = Vec::new();
        // Resident KV at its maximum batch (44).
        let resident = all_cpu(memory.clone(), 44, false)?.run(&workload)?;
        rows.push((
            "resident KV, b=44".to_owned(),
            vec![
                resident.tbt_ms(),
                resident.throughput_tps(),
                resident.total_d2h_bytes().as_gb(),
            ],
        ));

        // Offloaded KV at matched and much larger batches.
        for batch in [44u32, 128, 256] {
            let server = all_cpu(memory.clone(), batch, true)?;
            let max = server.max_batch(&workload);
            if batch > max {
                rows.push((
                    format!("offloaded KV, b={batch}"),
                    vec![f64::NAN, f64::NAN, f64::NAN],
                ));
                continue;
            }
            let report = server.run(&workload)?;
            rows.push((
                format!("offloaded KV, b={batch}"),
                vec![
                    report.tbt_ms(),
                    report.throughput_tps(),
                    report.total_d2h_bytes().as_gb(),
                ],
            ));
        }
        out.push_str(&table(&["config", "TBT(ms)", "tok/s", "D2H(GB)"], &rows));
    }

    out.push_str(&section(
        "write endurance under sustained KV write-back (NVDRAM)",
    ));
    let report = all_cpu(HostMemoryConfig::nvdram(), 128, true)?.run(&workload)?;
    let write_rate = Bandwidth::from_bytes_per_s(
        report.total_d2h_bytes().as_f64() / report.total_time.as_secs(),
    );
    let optane = OptaneDevice::with_capacity(ByteSize::from_tib(1.0));
    writeln!(
        out,
        "sustained KV write-back: {:.2} GB/s -> rated module endurance\n\
         consumed in {:.0} years (paper SS II-C: PCM write endurance is a\n\
         real budget, but serving-scale KV write-back does not threaten it;\n\
         bandwidth, not wear, is the binding constraint).",
        write_rate.as_gb_per_s(),
        optane.endurance_years(write_rate),
    )?;
    writeln!(
        out,
        "\nReading: on DRAM the write-back is cheap and giant batches win;\n\
         on NVDRAM the Fig 3b write collapse (~3 GB/s) makes each decode\n\
         step pay for its KV write-back, eroding (or erasing) the gain --\n\
         placement decisions must respect Optane's read/write asymmetry."
    )?;
    Ok(())
}

/// Ablation: NUMA node choice for host-resident data.
///
/// Fig 3 measures both NUMA nodes and finds a counterintuitive
/// asymmetry: GPU→Optane *writes* are faster to the remote node
/// (mesh contention with inbound PCIe traffic on the GPU socket),
/// while reads are slightly faster locally. This ablation turns that
/// observation into a placement rule: keep weights (read-heavy)
/// GPU-local, but put an offloaded KV cache (write-heavy) on the
/// remote node.
pub(super) fn ablation_numa(out: &mut String) -> Result<(), Box<dyn Error>> {
    let run = |weight_node, kv_node, kv_offload, batch| {
        let model = ModelConfig::opt_175b();
        let system = SystemConfig::paper_platform(HostMemoryConfig::nvdram())
            .with_node_policy(weight_node)
            .with_kv_node_policy(kv_node);
        let policy = Policy::paper_default(&model, system.memory().kind())
            .with_placement(PlacementKind::AllCpu)
            .with_compression(true)
            .with_kv_offload(kv_offload)
            .with_batch_size(batch);
        Server::new(system, model, policy)?.run(&WorkloadSpec::paper_default())
    };

    out.push_str(&section(
        "read-dominated serving (resident KV, batch 44): node choice for weights",
    ));
    let mut rows = Vec::new();
    for (label, node) in [
        ("GPU-local (node 0)", NodePolicy::GpuLocal),
        ("remote (node 1)", NodePolicy::Remote),
        ("interleaved", NodePolicy::Interleaved),
    ] {
        let r = run(node, node, false, 44)?;
        rows.push((label.to_owned(), vec![r.tbt_ms(), r.throughput_tps()]));
    }
    out.push_str(&table(&["node policy", "TBT(ms)", "tok/s"], &rows));

    out.push_str(&section(
        "write-heavy serving (offloaded KV, batch 128): split placements",
    ));
    let mut rows = Vec::new();
    for (label, weight_node, kv_node) in [
        ("all GPU-local", NodePolicy::GpuLocal, NodePolicy::GpuLocal),
        ("all remote", NodePolicy::Remote, NodePolicy::Remote),
        (
            "weights local / KV remote",
            NodePolicy::GpuLocal,
            NodePolicy::Remote,
        ),
        (
            "weights local / KV interleaved",
            NodePolicy::GpuLocal,
            NodePolicy::Interleaved,
        ),
    ] {
        let r = run(weight_node, kv_node, true, 128)?;
        rows.push((label.to_owned(), vec![r.tbt_ms(), r.throughput_tps()]));
    }
    out.push_str(&table(&["placement", "TBT(ms)", "tok/s"], &rows));
    writeln!(
        out,
        "\nReading: for pure weight streaming the GPU-local node wins (reads\n\
         pay a small UPI toll remotely). With an offloaded KV cache the\n\
         preferences mix: decode still favors local reads, but the huge\n\
         prefill write-back rides the Fig 3b asymmetry -- the remote node\n\
         absorbs GPU writes ~25% faster -- so the split placement (weights\n\
         local, KV remote) delivers the best end-to-end throughput. The\n\
         paper's own characterization implies the rule without spelling\n\
         it out."
    )?;
    Ok(())
}

/// Ablation: layer-granular pinning vs compute-aware splitting.
///
/// A natural alternative to FlexGen-style per-tensor placement is to
/// treat GPU memory as an inclusive weight cache and pin whole layers
/// until it fills (the paper's §VI contrasts itself with exactly such
/// GPU-as-cache designs). At *equal GPU bytes*, pinning a prefix of
/// blocks concentrates all transfer savings in those blocks — the
/// rest of the model runs at full transfer cost — while HeLM spreads
/// the same bytes so that *every* block's transfer hides behind its
/// neighbor's compute. Pipelines care about the max per stage, not
/// the average: balance beats concentration.
pub(super) fn ablation_pinning(out: &mut String) -> Result<(), Box<dyn Error>> {
    let model = ModelConfig::opt_175b();
    let memory = HostMemoryConfig::nvdram();
    let system = SystemConfig::paper_platform(memory.clone());
    let workload = WorkloadSpec::paper_default();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_compression(true)
        .with_batch_size(1);

    // HeLM's GPU residency sets the byte budget to match.
    let helm = ModelPlacement::compute(&model, &policy.clone().with_placement(PlacementKind::Helm));
    let budget = helm.total_on(Tier::Gpu);
    // Find the pinned-prefix count with the closest GPU residency.
    let mut pinned_blocks = 0;
    for k in 0..=model.num_blocks() {
        let p = ModelPlacement::compute_pinned_prefix(&model, true, k);
        if p.total_on(Tier::Gpu) > budget {
            break;
        }
        pinned_blocks = k;
    }
    let pinned = ModelPlacement::compute_pinned_prefix(&model, true, pinned_blocks);

    out.push_str(&section("equal-GPU-byte placements"));
    out.push_str(&table(
        &["placement", "GPU bytes (GB)", "host bytes (GB)"],
        &[
            (
                format!(
                    "HeLM (FC1 + small tensors, all {} blocks)",
                    model.num_blocks()
                ),
                vec![
                    helm.total_on(Tier::Gpu).as_gb(),
                    helm.total_on(Tier::Cpu).as_gb(),
                ],
            ),
            (
                format!("pinned prefix ({pinned_blocks} whole blocks)"),
                vec![
                    pinned.total_on(Tier::Gpu).as_gb(),
                    pinned.total_on(Tier::Cpu).as_gb(),
                ],
            ),
        ],
    ));

    out.push_str(&section("serving OPT-175B (compressed, NVDRAM, batch 1)"));
    let run = |placement: &ModelPlacement| {
        run_pipeline(&PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement,
            workload: &workload,
        })
    };
    let baseline = run_serving(
        model.clone(),
        memory,
        PlacementKind::Baseline,
        true,
        1,
        &workload,
    )?;
    let helm_run = run(&helm)?;
    let pinned_run = run(&pinned)?;
    out.push_str(&table(
        &["placement", "TTFT(ms)", "TBT(ms)"],
        &[
            (
                "baseline (percent split)".to_owned(),
                vec![baseline.ttft_ms(), baseline.tbt_ms()],
            ),
            (
                "pinned prefix".to_owned(),
                vec![pinned_run.ttft_ms(), pinned_run.tbt_ms()],
            ),
            (
                "HeLM".to_owned(),
                vec![helm_run.ttft_ms(), helm_run.tbt_ms()],
            ),
        ],
    ));
    let gap = pinned_run.tbt_ms() / helm_run.tbt_ms();
    writeln!(
        out,
        "\nReading: with identical GPU bytes, whole-layer pinning is {gap:.2}x\n\
         slower than HeLM. The pinned prefix runs compute-bound while the\n\
         unpinned suffix pays full transfer cost on every block; HeLM\n\
         spends the same bytes equalizing compute with communication in\n\
         every block -- the paper's central placement insight."
    )?;
    Ok(())
}

/// Sensitivity sweeps beyond the paper's measured points:
///
/// 1. host-bandwidth continuum (generalizing Fig 13 / Table III to
///    the whole CXL design space),
/// 2. sequence-length sweep (the workload axis §III-B fixes at
///    128/21),
/// 3. micro-batching sweep (FlexGen's block schedule, which the paper
///    holds at 1).
pub(super) fn ablation_sweeps(out: &mut String) -> Result<(), Box<dyn Error>> {
    let ws = WorkloadSpec::paper_default();
    let serve = |memory, placement, batch, gpu_batches, workload: &WorkloadSpec| {
        paper_server(ModelConfig::opt_175b(), memory, |p| {
            p.with_placement(placement)
                .with_compression(true)
                .with_batch_size(batch)
                .with_gpu_batches(gpu_batches)
        })?
        .run_unchecked(workload)
    };

    out.push_str(&section(
        "1. host-bandwidth continuum (OPT-175B, compressed, batch 1)",
    ));
    let mut rows = Vec::new();
    for gbps in [2.0, 5.12, 10.0, 16.0, 28.0, 40.0, 64.0] {
        let memory = HostMemoryConfig::cxl_custom(Bandwidth::from_gb_per_s(gbps));
        let base = serve(memory.clone(), PlacementKind::Baseline, 1, 1, &ws)?;
        let helm = serve(memory, PlacementKind::Helm, 1, 1, &ws)?;
        rows.push((
            format!("{gbps:.2} GB/s"),
            vec![
                base.tbt_ms(),
                helm.tbt_ms(),
                (1.0 - helm.tbt_ms() / base.tbt_ms()) * 100.0,
                helm.overlap_ratio(Stage::Decode, LayerKind::Mha, LayerKind::Ffn),
            ],
        ));
    }
    out.push_str(&table(
        &["expander bw", "base TBT", "HeLM TBT", "gain %", "MHAc/FFNl"],
        &rows,
    ));

    out.push_str(&section("2. sequence-length sweep (NVDRAM, HeLM, batch 1)"));
    let mut rows = Vec::new();
    for prompt in [64usize, 128, 256, 512, 1024] {
        let ws = WorkloadSpec::new(prompt, 21, 1);
        let r = serve(HostMemoryConfig::nvdram(), PlacementKind::Helm, 1, 1, &ws)?;
        rows.push((
            format!("prompt {prompt}"),
            vec![r.ttft_ms(), r.tbt_ms(), r.throughput_tps()],
        ));
    }
    out.push_str(&table(&["workload", "TTFT(ms)", "TBT(ms)", "tok/s"], &rows));

    out.push_str(&section(
        "3. micro-batching sweep (NVDRAM, All-CPU, gpu-batch 4)",
    ));
    let mut rows = Vec::new();
    for k in [1u32, 2, 4, 8, 11] {
        let r = serve(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, 4, k, &ws)?;
        rows.push((
            format!("4 x {k} = {}", 4 * k),
            vec![r.tbt_ms(), r.throughput_tps()],
        ));
    }
    out.push_str(&table(&["effective batch", "TBT(ms)", "tok/s"], &rows));
    writeln!(
        out,
        "\nReading: (1) HeLM's gain shrinks once the expander alone outruns\n\
         the compute side -- the pipeline goes compute-bound; (2) TTFT grows\n\
         with prompt length while TBT barely moves (decode reads one token);\n\
         (3) micro-batching buys throughput at constant weight traffic until\n\
         compute saturates the pipeline."
    )?;
    Ok(())
}

/// Ablation: application-aware placement vs transparent alternatives.
///
/// The paper positions its contribution against application-agnostic
/// tiering (§VI: TPP-style transparent page placement). This ablation
/// serves OPT-175B (uncompressed, so the footprint actually thrashes
/// the 256 GB of DRAM) under:
///
/// * flat Optane (NVDRAM) with the baseline and HeLM placements,
/// * Optane Memory Mode (hardware direct-mapped DRAM cache),
/// * TPP-style OS page tiering (software promotion/demotion).
pub(super) fn ablation_tiering(out: &mut String) -> Result<(), Box<dyn Error>> {
    let workload = WorkloadSpec::paper_default();
    let run = |memory, placement, compressed| {
        run_serving(
            ModelConfig::opt_175b(),
            memory,
            placement,
            compressed,
            1,
            &workload,
        )
    };
    let substrates = || {
        [
            HostMemoryConfig::nvdram(),
            HostMemoryConfig::tpp_tiered(),
            HostMemoryConfig::memory_mode(),
        ]
    };

    out.push_str(&section(
        "effective host->GPU feed at the OPT-175B working set (~320 GB)",
    ));
    let probe = AccessProfile::sequential_read(ByteSize::from_gb(2.4))
        .with_working_set(ByteSize::from_gb(320.0));
    let rows: Vec<_> = substrates()
        .iter()
        .map(|cfg| {
            (
                cfg.kind().to_string(),
                vec![cfg.cpu_device().bandwidth(&probe).as_gb_per_s()],
            )
        })
        .collect();
    out.push_str(&table(&["memory", "device GB/s"], &rows));

    out.push_str(&section(
        "substrate comparison: OPT-175B uncompressed, baseline placement, batch 1",
    ));
    let mut rows = Vec::new();
    for cfg in substrates() {
        let label = cfg.kind().to_string();
        let report = run(cfg, PlacementKind::Baseline, false)?;
        rows.push((label, vec![report.ttft_ms(), report.tbt_ms()]));
    }
    out.push_str(&table(&["substrate", "TTFT(ms)", "TBT(ms)"], &rows));

    out.push_str(&section(
        "full-system contrast: transparent management vs the paper's recipe",
    ));
    let tpp = run(
        HostMemoryConfig::tpp_tiered(),
        PlacementKind::Baseline,
        false,
    )?;
    let recipe = run(HostMemoryConfig::nvdram(), PlacementKind::Helm, true)?;
    out.push_str(&table(
        &["system", "TTFT(ms)", "TBT(ms)"],
        &[
            (
                "TPP, uncompressed".to_owned(),
                vec![tpp.ttft_ms(), tpp.tbt_ms()],
            ),
            (
                "NVDRAM, HeLM + 4-bit (paper)".to_owned(),
                vec![recipe.ttft_ms(), recipe.tbt_ms()],
            ),
        ],
    ));
    writeln!(
        out,
        "\nReading: transparent page tiering UNDERPERFORMS even flat Optane on\n\
         this workload -- migration churn adds Optane *writes* (the Fig 3b\n\
         weak spot) to a scan that defeats promotion anyway; the hardware\n\
         cache (Memory Mode) fares better. The paper's application-aware\n\
         recipe (compression + HeLM) beats all transparent options by ~7x.\n\
         Note HeLM *requires* compression: at FP16 its GPU-resident FC1\n\
         share (96 x 2.4 GB) cannot fit, and the capacity fallback demotes\n\
         it to an all-host layout."
    )?;
    Ok(())
}
