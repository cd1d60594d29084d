//! The baseline serving study: FlexGen's placement on heterogeneous
//! host memory, uncompressed and compressed (Figs 4–8).

use crate::{comparisons, run_serving, section, table, Comparison};
use helm_core::metrics::{RunReport, Stage};
use helm_core::placement::{ModelPlacement, PlacementKind, Tier};
use helm_core::policy::Policy;
use helm_core::system::SystemConfig;
use helm_core::HelmError;
use hetmem::{HostMemoryConfig, MemoryConfigKind};
use llm::layers::LayerKind;
use llm::ModelConfig;
use std::error::Error;
use std::fmt::Write as _;
use workload::WorkloadSpec;

/// The uncompressed baseline-placement runs of `model` on every
/// memory configuration at each batch, batch-major.
fn baseline_runs(
    model: &ModelConfig,
    configs: &[HostMemoryConfig],
    batches: [u32; 2],
) -> Result<Vec<RunReport>, HelmError> {
    let ws = WorkloadSpec::paper_default();
    let mut reports = Vec::new();
    for batch in batches {
        for cfg in configs {
            reports.push(run_serving(
                model.clone(),
                cfg.clone(),
                PlacementKind::Baseline,
                false,
                batch,
                &ws,
            )?);
        }
    }
    Ok(reports)
}

/// The report for `config` at `batch`.
fn report_of<'a>(
    reports: &'a [RunReport],
    config: &str,
    batch: u32,
) -> Result<&'a RunReport, String> {
    reports
        .iter()
        .find(|r| r.config == config && r.batch == batch)
        .ok_or_else(|| format!("report {config:?} b={batch} missing"))
}

/// A table of each run's average hidden-layer weight transfer and
/// compute, prefill rows first.
fn hidden_overlap(runs: &[(String, &RunReport)]) -> String {
    let mut rows = Vec::new();
    for stage in [Stage::Prefill, Stage::Decode] {
        for (label, r) in runs {
            rows.push((
                format!("{label} {stage}"),
                vec![
                    r.avg_hidden_weight_transfer(stage).as_millis(),
                    r.avg_hidden_compute(stage).as_millis(),
                ],
            ));
        }
    }
    table(&["config/stage", "xfer(ms)", "compute(ms)"], &rows)
}

/// Figure 4: TTFT, TBT, and throughput for OPT-30B (batch 1 and 32)
/// and OPT-175B (batch 1 and 8) across the Table II memory
/// configurations, uncompressed.
pub(super) fn fig4_llm_perf(out: &mut String) -> Result<(), Box<dyn Error>> {
    let r30 = baseline_runs(
        &ModelConfig::opt_30b(),
        &HostMemoryConfig::opt30b_set(),
        [1, 32],
    )?;
    let r175 = baseline_runs(
        &ModelConfig::opt_175b(),
        &HostMemoryConfig::opt175b_set(),
        [1, 8],
    )?;
    for (title, reports) in [
        ("Fig 4a/4c/4e: OPT-30B", &r30),
        ("Fig 4b/4d/4f: OPT-175B", &r175),
    ] {
        out.push_str(&section(title));
        let rows: Vec<(String, Vec<f64>)> = reports
            .iter()
            .map(|r| {
                (
                    format!("{} b={}", r.config, r.batch),
                    vec![r.ttft_ms(), r.tbt_ms(), r.throughput_tps()],
                )
            })
            .collect();
        out.push_str(&table(&["config", "TTFT(ms)", "TBT(ms)", "tok/s"], &rows));
    }

    out.push_str(&section("Fig 4: paper claims (OPT-30B, NVDRAM vs DRAM)"));
    let pct = |a: f64, b: f64| (a / b - 1.0) * 100.0;
    let d1 = report_of(&r30, "DRAM", 1)?;
    let n1 = report_of(&r30, "NVDRAM", 1)?;
    let d32 = report_of(&r30, "DRAM", 32)?;
    let n32 = report_of(&r30, "NVDRAM", 32)?;
    let mm32 = report_of(&r30, "MemoryMode", 32)?;
    out.push_str(&comparisons(&[
        Comparison::new(
            "TTFT increase b=1",
            33.03,
            pct(n1.ttft_ms(), d1.ttft_ms()),
            "%",
        ),
        Comparison::new(
            "TTFT increase b=32",
            15.05,
            pct(n32.ttft_ms(), d32.ttft_ms()),
            "%",
        ),
        Comparison::new(
            "TBT increase b=1",
            33.03,
            pct(n1.tbt_ms(), d1.tbt_ms()),
            "%",
        ),
        Comparison::new(
            "TBT increase b=32",
            30.55,
            pct(n32.tbt_ms(), d32.tbt_ms()),
            "%",
        ),
        Comparison::new(
            "throughput drop b=1",
            -18.96,
            pct(n1.throughput_tps(), d1.throughput_tps()),
            "%",
        ),
        Comparison::new(
            "throughput drop b=32",
            -22.68,
            pct(n32.throughput_tps(), d32.throughput_tps()),
            "%",
        ),
        Comparison::new(
            "MemoryMode matches DRAM (TBT, b=32)",
            0.0,
            pct(mm32.tbt_ms(), d32.tbt_ms()),
            "%",
        ),
    ]));

    out.push_str(&section("Fig 4: paper claims (OPT-175B)"));
    let ssd1 = report_of(&r175, "SSD", 1)?;
    let dax1 = report_of(&r175, "FSDAX", 1)?;
    let ssd8 = report_of(&r175, "SSD", 8)?;
    let dax8 = report_of(&r175, "FSDAX", 8)?;
    let nv1 = report_of(&r175, "NVDRAM", 1)?;
    let mm1 = report_of(&r175, "MemoryMode", 1)?;
    let nv8 = report_of(&r175, "NVDRAM", 8)?;
    let mm8 = report_of(&r175, "MemoryMode", 8)?;
    out.push_str(&comparisons(&[
        Comparison::new(
            "FSDAX TTFT improvement over SSD b=1",
            33.46,
            (1.0 - dax1.ttft_ms() / ssd1.ttft_ms()) * 100.0,
            "%",
        ),
        Comparison::new(
            "FSDAX TBT improvement over SSD b=8",
            33.58,
            (1.0 - dax8.tbt_ms() / ssd8.tbt_ms()) * 100.0,
            "%",
        ),
        Comparison::new(
            "FSDAX throughput gain over SSD b=8",
            46.68,
            (dax8.throughput_tps() / ssd8.throughput_tps() - 1.0) * 100.0,
            "%",
        ),
        Comparison::new(
            "MM TTFT improvement over NVDRAM b=1",
            7.67,
            (1.0 - mm1.ttft_ms() / nv1.ttft_ms()) * 100.0,
            "%",
        ),
        Comparison::new(
            "MM TBT improvement over NVDRAM b=8",
            8.92,
            (1.0 - mm8.tbt_ms() / nv8.tbt_ms()) * 100.0,
            "%",
        ),
        Comparison::new(
            "MM throughput gain over NVDRAM b=8",
            7.98,
            (mm8.throughput_tps() / nv8.throughput_tps() - 1.0) * 100.0,
            "%",
        ),
        Comparison::new(
            "FSDAX below NVDRAM (TBT b=1, sign check)",
            100.0,
            if dax1.tbt_ms() > nv1.tbt_ms() {
                100.0
            } else {
                0.0
            },
            "%",
        ),
    ]));

    out.push_str(&section(
        "Fig 4e/4f: near-linear throughput scaling with batch",
    ));
    out.push_str(&comparisons(&[
        Comparison::new(
            "OPT-30B DRAM b=32 / b=1 throughput",
            26.0,
            d32.throughput_tps() / d1.throughput_tps(),
            "x",
        ),
        Comparison::new(
            "OPT-175B NVDRAM b=8 / b=1 throughput",
            7.6,
            nv8.throughput_tps() / nv1.throughput_tps(),
            "x",
        ),
    ]));
    Ok(())
}

/// The "ideal" average hidden-layer transfer time on an all-DRAM
/// system (the paper measures it with an 8-block model so the weights
/// fit DRAM; analytically that is just bytes over the DRAM path rate).
fn dram_ideal_ms(model: &ModelConfig) -> Result<f64, HelmError> {
    let system = SystemConfig::paper_platform(HostMemoryConfig::dram());
    let policy = Policy::paper_default(model, MemoryConfigKind::NvDram);
    let placement = ModelPlacement::compute(model, &policy);
    let hidden: Vec<_> = placement
        .layers()
        .iter()
        .filter(|l| l.layer().kind().is_hidden())
        .collect();
    let mut total_ms = 0.0;
    for l in &hidden {
        let bytes = l.bytes_on(Tier::Cpu, placement.dtype());
        total_ms += system
            .tier_transfer_time(Tier::Cpu, bytes, None)
            .ok_or(HelmError::TierUnavailable { tier: "cpu" })?
            .as_millis();
    }
    Ok(total_ms / hidden.len() as f64)
}

/// Figure 5: compute/communication overlap during prefill and decode
/// for OPT-30B (batch 1, 32) and OPT-175B (batch 1, 8), uncompressed.
/// Bars = average weight transfer per layer; line = average compute;
/// dashed line = ideal all-DRAM transfer time.
pub(super) fn fig5_overlap(out: &mut String) -> Result<(), Box<dyn Error>> {
    let m30 = ModelConfig::opt_30b();
    let r30 = baseline_runs(&m30, &HostMemoryConfig::opt30b_set(), [1, 32])?;
    let m175 = ModelConfig::opt_175b();
    let r175 = baseline_runs(
        &m175,
        &[HostMemoryConfig::nvdram(), HostMemoryConfig::memory_mode()],
        [1, 8],
    )?;
    let ideal175 = dram_ideal_ms(&m175)?;
    for (title, reports, ideal_ms) in [
        ("Fig 5a/5c: OPT-30B", &r30, dram_ideal_ms(&m30)?),
        ("Fig 5b/5d: OPT-175B", &r175, ideal175),
    ] {
        out.push_str(&section(title));
        let runs: Vec<_> = reports
            .iter()
            .map(|r| (format!("{} b={}", r.config, r.batch), r))
            .collect();
        out.push_str(&hidden_overlap(&runs));
        writeln!(out, "ideal all-DRAM transfer: {ideal_ms:.2} ms/layer")?;
    }

    out.push_str(&section("Fig 5: paper claims"));
    let prefill_c = |r: &RunReport| r.avg_hidden_compute(Stage::Prefill).as_millis();
    let b1 = report_of(&r30, "DRAM", 1)?;
    let b32 = report_of(&r30, "DRAM", 32)?;
    let nv1 = report_of(&r175, "NVDRAM", 1)?;
    let mm1 = report_of(&r175, "MemoryMode", 1)?;
    let nv_xfer = nv1.avg_hidden_weight_transfer(Stage::Decode).as_millis();
    let mm_xfer = mm1.avg_hidden_weight_transfer(Stage::Decode).as_millis();
    out.push_str(&comparisons(&[
        Comparison::new(
            "OPT-30B prefill compute x (b=1 -> 32)",
            15.0,
            prefill_c(b32) / prefill_c(b1),
            "x",
        ),
        Comparison::new(
            "DRAM ideal improves transfer vs NVDIMM",
            32.78,
            (1.0 - ideal175 / nv_xfer) * 100.0,
            "%",
        ),
        Comparison::new(
            "DRAM ideal improves transfer vs MemoryMode",
            22.41,
            (1.0 - ideal175 / mm_xfer) * 100.0,
            "%",
        ),
        Comparison::new(
            "OPT-175B decode transfer/compute (orders of magnitude)",
            56.0,
            nv_xfer / nv1.avg_hidden_compute(Stage::Decode).as_millis(),
            "x",
        ),
    ]));
    Ok(())
}

/// Figure 6: compute/communication overlap with group-wise 4-bit
/// compression for OPT-175B under NVDIMM, MemoryMode, and DRAM.
/// Compression cuts transfer ~72-74% at the cost of 2.5-13x compute.
pub(super) fn fig6_compression(out: &mut String) -> Result<(), Box<dyn Error>> {
    let ws = WorkloadSpec::paper_default();
    let run = |memory, compressed| {
        run_serving(
            ModelConfig::opt_175b(),
            memory,
            PlacementKind::Baseline,
            compressed,
            1,
            &ws,
        )
    };
    let nv = run(HostMemoryConfig::nvdram(), false)?;
    let nv_c = run(HostMemoryConfig::nvdram(), true)?;
    let mm = run(HostMemoryConfig::memory_mode(), false)?;
    let mm_c = run(HostMemoryConfig::memory_mode(), true)?;
    let dram_c = run(HostMemoryConfig::dram(), true)?;

    out.push_str(&section(
        "Fig 6: OPT-175B prefill/decode overlap with compression",
    ));
    let runs = [
        ("NVDIMM", &nv),
        ("NVDIMM (c)", &nv_c),
        ("MemoryMode", &mm),
        ("MemoryMode (c)", &mm_c),
        ("DRAM (c)", &dram_c),
    ]
    .map(|(label, r)| (label.to_owned(), r));
    out.push_str(&hidden_overlap(&runs));

    out.push_str(&section("Fig 6: paper claims"));
    let xfer = |r: &RunReport| r.avg_hidden_weight_transfer(Stage::Decode).as_millis();
    let comp = |r: &RunReport| r.avg_hidden_compute(Stage::Decode).as_millis();
    out.push_str(&comparisons(&[
        Comparison::new(
            "NVDIMM transfer reduction",
            72.0,
            (1.0 - xfer(&nv_c) / xfer(&nv)) * 100.0,
            "%",
        ),
        Comparison::new(
            "MemoryMode transfer reduction",
            74.0,
            (1.0 - xfer(&mm_c) / xfer(&mm)) * 100.0,
            "%",
        ),
        Comparison::new(
            "NVDIMM (c) transfer within of DRAM ideal",
            25.0,
            (xfer(&nv_c) / xfer(&dram_c) - 1.0) * 100.0,
            "%",
        ),
        Comparison::new(
            "MemoryMode (c) transfer within of DRAM ideal",
            6.0,
            (xfer(&mm_c) / xfer(&dram_c) - 1.0) * 100.0,
            "%",
        ),
        Comparison::new(
            "NVDIMM compute increase (within 2.5x-13x)",
            10.0,
            comp(&nv_c) / comp(&nv),
            "x",
        ),
    ]));
    Ok(())
}

/// Figure 7: (a) per-layer weight load latency for the first 70 of
/// 194 OPT-175B layers — the baseline allocator's sawtooth — and
/// (b/c) the achieved MHA/FFN weight distributions under SSD/FSDAX
/// and NVDRAM/MemoryMode configurations.
pub(super) fn fig7_placement(out: &mut String) -> Result<(), Box<dyn Error>> {
    let model = ModelConfig::opt_175b();

    out.push_str(&section(
        "Fig 7a: per-layer load latency, NVDRAM compressed (first 24 of 194)",
    ));
    let report = run_serving(
        model.clone(),
        HostMemoryConfig::nvdram(),
        PlacementKind::Baseline,
        true,
        1,
        &WorkloadSpec::paper_default(),
    )?;
    writeln!(out, "{:>6} {:>12}", "layer", "load(ms)")?;
    for (layer, load) in report.decode_load_profile().into_iter().take(24) {
        let bar = "#".repeat((load.as_millis() * 1.2) as usize);
        writeln!(out, "{layer:>6} {:>12.2}  {bar}", load.as_millis())?;
    }

    for (title, memory, expected_overall) in [
        (
            "Fig 7b: SSD/FSDAX (input 65/15/20)",
            MemoryConfigKind::Ssd,
            [58.6, 33.1, 8.3],
        ),
        (
            "Fig 7c: NVDRAM/MemoryMode (input 0/80/20)",
            MemoryConfigKind::NvDram,
            [0.0, 91.7, 8.3],
        ),
    ] {
        out.push_str(&section(title));
        let policy = Policy::paper_default(&model, memory);
        let placement = ModelPlacement::compute(&model, &policy);
        let mha = placement.distribution_for_kind(LayerKind::Mha);
        let ffn = placement.distribution_for_kind(LayerKind::Ffn);
        out.push_str(&table(
            &["layer kind", "disk %", "cpu %", "gpu %"],
            &[
                ("MHA".to_owned(), mha.to_vec()),
                ("FFN".to_owned(), ffn.to_vec()),
            ],
        ));
        let achieved = placement.achieved_distribution();
        out.push_str(&comparisons(&[
            Comparison::new("achieved disk share", expected_overall[0], achieved[0], "%"),
            Comparison::new("achieved cpu share", expected_overall[1], achieved[1], "%"),
            Comparison::new("achieved gpu share", expected_overall[2], achieved[2], "%"),
        ]));
    }

    out.push_str(&section("Fig 7a: sawtooth magnitude"));
    let profile = report.decode_load_profile();
    let hidden: Vec<f64> = profile
        .iter()
        .skip(1)
        .take(40)
        .map(|(_, d)| d.as_millis())
        .collect();
    let max = hidden.iter().cloned().fold(0.0, f64::max);
    let min = hidden.iter().cloned().fold(f64::INFINITY, f64::min);
    out.push_str(&comparisons(&[Comparison::new(
        "FFN-ridge / MHA-dip load ratio",
        2.7,
        max / min,
        "x",
    )]));
    Ok(())
}

/// Figure 8: overlap of MHA/FFN compute with the transfer of FFN/MHA
/// weights in the prefill stage of OPT-175B with compression, at
/// batch sizes 1 and 8 — the imbalance HeLM fixes.
pub(super) fn fig8_mha_ffn(out: &mut String) -> Result<(), Box<dyn Error>> {
    let ws = WorkloadSpec::paper_default();
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for batch in [1u32, 8] {
        let report = run_serving(
            ModelConfig::opt_175b(),
            HostMemoryConfig::nvdram(),
            PlacementKind::Baseline,
            true,
            batch,
            &ws,
        )?;
        for stage in [Stage::Prefill, Stage::Decode] {
            let mha_c = report.avg_compute(stage, LayerKind::Mha).as_millis();
            let ffn_c = report.avg_compute(stage, LayerKind::Ffn).as_millis();
            let mha_l = report
                .avg_weight_transfer(stage, LayerKind::Mha)
                .as_millis();
            let ffn_l = report
                .avg_weight_transfer(stage, LayerKind::Ffn)
                .as_millis();
            rows.push((
                format!("b={batch} {stage}"),
                vec![mha_c, ffn_l, ffn_c, mha_l],
            ));
            if stage == Stage::Prefill {
                ratios.push((mha_c / ffn_l, ffn_c / mha_l));
            }
        }
    }
    out.push_str(&section(
        "Fig 8: MHA/FFN compute vs opposite-kind weight transfer (NVDRAM, compressed)",
    ));
    out.push_str(&table(
        &[
            "batch/stage",
            "MHA-c(ms)",
            "FFN-l(ms)",
            "FFN-c(ms)",
            "MHA-l(ms)",
        ],
        &rows,
    ));

    out.push_str(&section(
        "Fig 8: the imbalance (paper: MHA compute overlapped with the LARGER transfer)",
    ));
    let [(r1_mha_ffn, r1_ffn_mha), (r8_mha_ffn, r8_ffn_mha)] = ratios[..] else {
        return Err("one prefill ratio pair per batch".into());
    };
    out.push_str(&comparisons(&[
        Comparison::new("b=1 MHA-compute/FFN-load (Table IV)", 0.36, r1_mha_ffn, "x"),
        Comparison::new("b=1 FFN-compute/MHA-load (Table IV)", 1.86, r1_ffn_mha, "x"),
        Comparison::new("b=8 MHA-compute/FFN-load (Table IV)", 0.52, r8_mha_ffn, "x"),
        Comparison::new("b=8 FFN-compute/MHA-load (Table IV)", 3.07, r8_ffn_mha, "x"),
    ]));
    writeln!(
        out,
        "\nNote (paper Fig 8 caption): decode overlap at both batch sizes is nearly\n\
         identical to prefill at batch 1 -- visible in the table above."
    )?;
    Ok(())
}
