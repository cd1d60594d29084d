//! The paper's placements, HeLM and All-CPU, and their CXL
//! projections (Figs 9–13, Table IV).

use crate::{comparisons, paper_server, run_serving, section, table, Comparison};
use helm_core::metrics::{RunReport, Stage};
use helm_core::placement::{ModelPlacement, PlacementKind, Tier};
use helm_core::policy::Policy;
use helm_core::projection::{fig13_allcpu_throughput, fig13_helm_gains, table_iv};
use hetmem::{HostMemoryConfig, MemoryConfigKind};
use llm::layers::LayerKind;
use llm::weights::DType;
use llm::ModelConfig;
use std::error::Error;
use std::fmt::Write as _;
use workload::WorkloadSpec;

/// Figures 9 & 10: HeLM's weight distribution — which tensors land on
/// the GPU versus host, and the achieved MHA/FFN splits.
pub(super) fn fig10_helm_dist(out: &mut String) -> Result<(), Box<dyn Error>> {
    let model = ModelConfig::opt_175b();
    let policy = Policy::paper_default(&model, MemoryConfigKind::NvDram)
        .with_placement(PlacementKind::Helm)
        .with_compression(true);
    let placement = ModelPlacement::compute(&model, &policy);

    out.push_str(&section(
        "Fig 9: HeLM per-tensor placement (one decoder block, compressed sizes)",
    ));
    writeln!(
        out,
        "{:<8} {:<10} {:<6} {:>14}",
        "layer", "tensor", "tier", "bytes"
    )?;
    for lp in placement.layers().iter().skip(1).take(2) {
        for w in lp.weights() {
            writeln!(
                out,
                "{:<8} {:<10} {:<6} {:>14}",
                lp.layer().kind().to_string(),
                w.spec.name(),
                w.tier.to_string(),
                w.spec.bytes(DType::Int4Grouped).to_string(),
            )?;
        }
    }

    out.push_str(&section("Fig 10: HeLM achieved distribution"));
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
    let baseline = ModelPlacement::compute(
        &model,
        &Policy::paper_default(&model, MemoryConfigKind::NvDram).with_compression(true),
    );
    let dtype = placement.dtype();
    let offloaded = |p: &ModelPlacement, kind: LayerKind| {
        p.layers()
            .iter()
            .filter(|l| l.layer().kind() == kind)
            .map(|l| l.offloaded_bytes(dtype).as_f64())
            .sum::<f64>()
    };
    out.push_str(&comparisons(&[
        Comparison::new(
            "total weights held on GPU (paper: ~33%)",
            33.0,
            achieved[2],
            "%",
        ),
        Comparison::new(
            "FFN transfer bytes reduced vs baseline",
            49.33,
            (1.0 - offloaded(&placement, LayerKind::Ffn) / offloaded(&baseline, LayerKind::Ffn))
                * 100.0,
            "%",
        ),
        Comparison::new(
            "MHA transfer bytes increased vs baseline",
            32.55,
            (offloaded(&placement, LayerKind::Mha) / offloaded(&baseline, LayerKind::Mha) - 1.0)
                * 100.0,
            "%",
        ),
    ]));
    writeln!(
        out,
        "\nGPU-resident total: {} (of {} compressed weights)",
        placement.total_on(Tier::Gpu),
        placement.total_on(Tier::Gpu) + placement.total_on(Tier::Cpu),
    )?;
    Ok(())
}

/// One row of `r`'s average weight transfer (MHA, then FFN) and
/// compute (MHA, then FFN) in `stage`.
fn kind_overlap_row(label: String, r: &RunReport, stage: Stage) -> (String, Vec<f64>) {
    (
        label,
        vec![
            r.avg_weight_transfer(stage, LayerKind::Mha).as_millis(),
            r.avg_weight_transfer(stage, LayerKind::Ffn).as_millis(),
            r.avg_compute(stage, LayerKind::Mha).as_millis(),
            r.avg_compute(stage, LayerKind::Ffn).as_millis(),
        ],
    )
}

/// Figure 11: HeLM's impact on (a) compute/communication overlap
/// during decode and (b) TTFT/TBT, for OPT-175B at batch 1 with
/// compression, on NVDRAM and MemoryMode versus the DRAM reference.
pub(super) fn fig11_helm(out: &mut String) -> Result<(), Box<dyn Error>> {
    let ws = WorkloadSpec::paper_default();
    let run =
        |memory, placement| run_serving(ModelConfig::opt_175b(), memory, placement, true, 1, &ws);
    let nv_base = run(HostMemoryConfig::nvdram(), PlacementKind::Baseline)?;
    let nv_helm = run(HostMemoryConfig::nvdram(), PlacementKind::Helm)?;
    let mm_base = run(HostMemoryConfig::memory_mode(), PlacementKind::Baseline)?;
    let mm_helm = run(HostMemoryConfig::memory_mode(), PlacementKind::Helm)?;
    let dram_helm = run(HostMemoryConfig::dram(), PlacementKind::Helm)?;
    let dram_base = run(HostMemoryConfig::dram(), PlacementKind::Baseline)?;

    out.push_str(&section("Fig 11a: decode overlap, NVDRAM (c), batch 1"));
    let stage = Stage::Decode;
    out.push_str(&table(
        &["policy", "MHA-l(ms)", "FFN-l(ms)", "MHA-c(ms)", "FFN-c(ms)"],
        &[
            kind_overlap_row("Baseline".to_owned(), &nv_base, stage),
            kind_overlap_row("HeLM".to_owned(), &nv_helm, stage),
        ],
    ));

    out.push_str(&section("Fig 11b: TTFT and TBT"));
    let rows: Vec<(String, Vec<f64>)> = [
        ("NVDRAM baseline", &nv_base),
        ("NVDRAM HeLM", &nv_helm),
        ("MemoryMode baseline", &mm_base),
        ("MemoryMode HeLM", &mm_helm),
        ("DRAM baseline", &dram_base),
        ("DRAM HeLM", &dram_helm),
    ]
    .iter()
    .map(|(label, r)| (label.to_string(), vec![r.ttft_ms(), r.tbt_ms()]))
    .collect();
    out.push_str(&table(&["config", "TTFT(ms)", "TBT(ms)"], &rows));

    out.push_str(&section("Fig 11: paper claims"));
    let xfer = |r: &RunReport, k| r.avg_weight_transfer(stage, k).as_millis();
    out.push_str(&comparisons(&[
        Comparison::new(
            "FFN transfer time reduction",
            49.33,
            (1.0 - xfer(&nv_helm, LayerKind::Ffn) / xfer(&nv_base, LayerKind::Ffn)) * 100.0,
            "%",
        ),
        Comparison::new(
            "MHA transfer time increase",
            32.55,
            (xfer(&nv_helm, LayerKind::Mha) / xfer(&nv_base, LayerKind::Mha) - 1.0) * 100.0,
            "%",
        ),
        Comparison::new(
            "HeLM TTFT improvement on NVDRAM",
            27.20,
            (1.0 - nv_helm.ttft_ms() / nv_base.ttft_ms()) * 100.0,
            "%",
        ),
        Comparison::new(
            "HeLM TBT improvement on NVDRAM",
            27.44,
            (1.0 - nv_helm.tbt_ms() / nv_base.tbt_ms()) * 100.0,
            "%",
        ),
        Comparison::new(
            "HeLM NVDRAM TTFT within of DRAM",
            8.75,
            (nv_helm.ttft_ms() / dram_helm.ttft_ms() - 1.0) * 100.0,
            "%",
        ),
        Comparison::new(
            "HeLM NVDRAM TBT within of DRAM",
            8.91,
            (nv_helm.tbt_ms() / dram_helm.tbt_ms() - 1.0) * 100.0,
            "%",
        ),
        Comparison::new(
            "HeLM TTFT improvement on MemoryMode",
            31.90,
            (1.0 - mm_helm.ttft_ms() / mm_base.ttft_ms()) * 100.0,
            "%",
        ),
        Comparison::new(
            "HeLM MM TBT within of DRAM",
            1.64,
            (mm_helm.tbt_ms() / dram_helm.tbt_ms() - 1.0) * 100.0,
            "%",
        ),
    ]));
    Ok(())
}

/// Figure 12: All-CPU weight allocation on OPT-175B — TTFT/TBT/
/// throughput at batch sizes 1, 8, and 44 (44 only possible with
/// All-CPU), plus the compute/communication overlap comparisons.
pub(super) fn fig12_allcpu(out: &mut String) -> Result<(), Box<dyn Error>> {
    let ws = WorkloadSpec::paper_default();
    out.push_str(&section(
        "Maximum batch sizes (paper: 8 baseline -> 44 All-CPU)",
    ));
    // The paper-default policy is the uncompressed baseline.
    let base_max =
        paper_server(ModelConfig::opt_175b(), HostMemoryConfig::nvdram(), |p| p)?.max_batch(&ws);
    let all_max = paper_server(ModelConfig::opt_175b(), HostMemoryConfig::nvdram(), |p| {
        p.with_placement(PlacementKind::AllCpu)
            .with_compression(true)
    })?
    .max_batch(&ws);
    out.push_str(&comparisons(&[
        Comparison::new(
            "baseline (uncompressed) max batch",
            8.0,
            f64::from(base_max),
            "seq",
        ),
        Comparison::new(
            "All-CPU (compressed) max batch",
            44.0,
            f64::from(all_max),
            "seq",
        ),
    ]));

    out.push_str(&section("Fig 12a-c: TTFT / TBT / throughput"));
    let mut reports = Vec::new();
    for (memory, label) in [
        (HostMemoryConfig::nvdram(), "NVDIMM"),
        (HostMemoryConfig::memory_mode(), "MemoryMode"),
        (HostMemoryConfig::dram(), "DRAM"),
    ] {
        let run = |placement, batch| {
            run_serving(
                ModelConfig::opt_175b(),
                memory.clone(),
                placement,
                true,
                batch,
                &ws,
            )
        };
        for batch in [1u32, 8] {
            reports.push((
                format!("{label} baseline b={batch}"),
                run(PlacementKind::Baseline, batch)?,
            ));
        }
        for batch in [1u32, 8, 44] {
            reports.push((
                format!("{label} All-CPU b={batch}"),
                run(PlacementKind::AllCpu, batch)?,
            ));
        }
    }
    let rows: Vec<(String, Vec<f64>)> = reports
        .iter()
        .map(|(label, r)| {
            (
                label.clone(),
                vec![r.ttft_ms(), r.tbt_ms(), r.throughput_tps()],
            )
        })
        .collect();
    out.push_str(&table(&["config", "TTFT(ms)", "TBT(ms)", "tok/s"], &rows));

    let find = |label: &str| {
        reports
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, r)| r)
            .ok_or_else(|| format!("report {label:?} missing"))
    };
    let nv_base8 = find("NVDIMM baseline b=8")?;
    let nv_all8 = find("NVDIMM All-CPU b=8")?;
    let nv_all44 = find("NVDIMM All-CPU b=44")?;
    let mm_all44 = find("MemoryMode All-CPU b=44")?;
    let dram_all44 = find("DRAM All-CPU b=44")?;

    out.push_str(&section(
        "Fig 12d/12e: overlap, baseline b=8 vs All-CPU b=44 (NVDIMM)",
    ));
    let mut rows = Vec::new();
    for stage in [Stage::Prefill, Stage::Decode] {
        for (label, r) in [("baseline b=8", nv_base8), ("All-CPU b=44", nv_all44)] {
            rows.push(kind_overlap_row(format!("{label} {stage}"), r, stage));
        }
    }
    out.push_str(&table(
        &[
            "config/stage",
            "MHA-l(ms)",
            "FFN-l(ms)",
            "MHA-c(ms)",
            "FFN-c(ms)",
        ],
        &rows,
    ));

    out.push_str(&section("Fig 12: paper claims"));
    out.push_str(&comparisons(&[
        Comparison::new(
            "All-CPU b=8 vs baseline b=8 throughput (NVDIMM)",
            5.0,
            (nv_all8.throughput_tps() / nv_base8.throughput_tps() - 1.0) * 100.0,
            "%",
        ),
        Comparison::new(
            "All-CPU b=8 TBT degradation (NVDIMM)",
            1.0,
            (nv_all8.tbt_ms() / nv_base8.tbt_ms() - 1.0) * 100.0,
            "%",
        ),
        Comparison::new(
            "All-CPU b=44 / baseline b=8 throughput (NVDIMM)",
            5.0,
            nv_all44.throughput_tps() / nv_base8.throughput_tps(),
            "x",
        ),
        Comparison::new(
            "All-CPU NVDIMM b=44 within of All-CPU DRAM",
            6.0,
            (1.0 - nv_all44.throughput_tps() / dram_all44.throughput_tps()) * 100.0,
            "%",
        ),
        Comparison::new(
            "All-CPU MM b=44 throughput gain over NVDIMM",
            7.57,
            (mm_all44.throughput_tps() / nv_all44.throughput_tps() - 1.0) * 100.0,
            "%",
        ),
        Comparison::new(
            "decode compute flat from b=8 to b=44 (FFN)",
            0.0,
            (nv_all44
                .avg_compute(Stage::Decode, LayerKind::Ffn)
                .as_secs()
                / nv_base8
                    .avg_compute(Stage::Decode, LayerKind::Ffn)
                    .as_secs()
                - 1.0)
                * 100.0,
            "%",
        ),
    ]));
    Ok(())
}

/// Figure 13: projected improvements from HeLM (batch 1) and All-CPU
/// on CXL-based systems serving OPT-175B.
pub(super) fn fig13_cxl(out: &mut String) -> Result<(), Box<dyn Error>> {
    let ws = WorkloadSpec::paper_default();

    out.push_str(&section(
        "Fig 13a: HeLM TTFT/TBT improvement over baseline (batch 1)",
    ));
    let gains = fig13_helm_gains(&ws)?;
    let rows: Vec<(String, Vec<f64>)> = gains
        .iter()
        .map(|(label, ttft, tbt)| (label.clone(), vec![ttft * 100.0, tbt * 100.0]))
        .collect();
    out.push_str(&table(&["config", "TTFT gain %", "TBT gain %"], &rows));

    out.push_str(&section("Fig 13b: All-CPU throughput (tokens/s)"));
    let tps = fig13_allcpu_throughput(&ws)?;
    let rows: Vec<(String, Vec<f64>)> = tps
        .iter()
        .map(|(label, b8, a8, a44)| (label.clone(), vec![*b8, *a8, *a44]))
        .collect();
    out.push_str(&table(
        &["config", "baseline b=8", "All-CPU b=8", "All-CPU b=44"],
        &rows,
    ));

    out.push_str(&section("Fig 13 / SS V-D: paper claims"));
    let find_gain = |name: &str| {
        gains
            .iter()
            .find(|(l, _, _)| l == name)
            .ok_or_else(|| format!("gain row {name:?} missing"))
    };
    let find_tps = |name: &str| {
        tps.iter()
            .find(|(l, _, _, _)| l == name)
            .ok_or_else(|| format!("throughput row {name:?} missing"))
    };
    let (_, fpga_ttft, _) = find_gain("CXL-FPGA")?;
    let (_, asic_ttft, _) = find_gain("CXL-ASIC")?;
    let (_, fpga_b8, fpga_all8, fpga_44) = find_tps("CXL-FPGA")?;
    let (_, asic_b8, _, asic_44) = find_tps("CXL-ASIC")?;
    out.push_str(&comparisons(&[
        Comparison::new("HeLM TTFT gain, CXL-FPGA", 27.0, fpga_ttft * 100.0, "%"),
        Comparison::new("HeLM TTFT gain, CXL-ASIC", 21.0, asic_ttft * 100.0, "%"),
        Comparison::new(
            "All-CPU b=8 drop on CXL-FPGA",
            -8.35,
            (fpga_all8 / fpga_b8 - 1.0) * 100.0,
            "%",
        ),
        Comparison::new(
            "All-CPU 44/baseline 8, CXL-FPGA",
            4.74,
            fpga_44 / fpga_b8,
            "x",
        ),
        Comparison::new(
            "All-CPU 44/baseline 8, CXL-ASIC",
            5.04,
            asic_44 / asic_b8,
            "x",
        ),
    ]));
    Ok(())
}

/// Table IV: compute/communication overlap ratios under NVDRAM and
/// the two CXL configurations for all three placement policies,
/// OPT-175B with compression. Ratios below 1 are memory-bound, above
/// 1 compute-bound.
pub(super) fn table4_overlap(out: &mut String) -> Result<(), Box<dyn Error>> {
    use PlacementKind::{AllCpu, Baseline, Helm};
    use Stage::{Decode, Prefill};
    // The paper's Table IV, row-major:
    // (policy, batch, stage, [nv_mha_ffn, fpga, asic, nv_ffn_mha, fpga, asic]).
    let paper_rows: [(PlacementKind, u32, Stage, [f64; 6]); 10] = [
        (Baseline, 1, Prefill, [0.36, 0.10, 0.56, 1.86, 0.53, 2.90]),
        (Baseline, 1, Decode, [0.36, 0.10, 0.55, 1.85, 0.53, 2.88]),
        (Baseline, 8, Prefill, [0.52, 0.14, 0.79, 3.07, 0.87, 4.77]),
        (Baseline, 8, Decode, [0.36, 0.10, 0.55, 1.85, 0.53, 2.88]),
        (Helm, 1, Prefill, [0.72, 0.20, 1.12, 1.40, 0.40, 2.18]),
        (Helm, 1, Decode, [0.71, 0.20, 1.10, 1.40, 0.40, 2.16]),
        (Helm, 8, Prefill, [0.37, 0.10, 0.56, 1.41, 0.40, 2.18]),
        (Helm, 8, Decode, [0.36, 0.10, 0.55, 1.39, 0.39, 2.16]),
        (AllCpu, 44, Prefill, [1.25, 0.37, 2.01, 4.82, 1.43, 7.84]),
        (AllCpu, 44, Decode, [0.35, 0.10, 0.57, 1.33, 0.40, 2.16]),
    ];
    let rows = table_iv(&WorkloadSpec::paper_default())?;

    out.push_str(&section(
        "Table IV: MHA-compute/FFN-load and FFN-compute/MHA-load ratios",
    ));
    writeln!(
        out,
        "{:<10} {:>5} {:<8} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "policy", "batch", "stage", "NV m/f", "FPGA", "ASIC", "NV f/m", "FPGA", "ASIC"
    )?;
    let mut cells = Vec::new();
    for (policy, batch, stage, paper) in paper_rows {
        let mut ours = [0.0f64; 6];
        for (i, config) in ["NVDRAM", "CXL-FPGA", "CXL-ASIC"].iter().enumerate() {
            let c = rows
                .iter()
                .find(|r| {
                    r.policy == policy
                        && r.batch == batch
                        && r.stage == stage
                        && r.config == *config
                })
                .ok_or_else(|| format!("cell {policy:?} b={batch} {stage} {config:?} missing"))?;
            ours[i] = c.mha_compute_over_ffn_load;
            ours[i + 3] = c.ffn_compute_over_mha_load;
        }
        writeln!(
            out,
            "{:<10} {batch:>5} {:<8} | {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2}",
            policy.to_string(),
            stage.to_string(),
            ours[0],
            ours[1],
            ours[2],
            ours[3],
            ours[4],
            ours[5]
        )?;
        for (i, label) in [
            "NV mha/ffn",
            "FPGA mha/ffn",
            "ASIC mha/ffn",
            "NV ffn/mha",
            "FPGA ffn/mha",
            "ASIC ffn/mha",
        ]
        .iter()
        .enumerate()
        {
            cells.push(Comparison::new(
                format!("{policy} b={batch} {stage} {label}"),
                paper[i],
                ours[i],
                "x",
            ));
        }
    }

    out.push_str(&section("Table IV: paper-vs-measured, every cell"));
    out.push_str(&comparisons(&cells));
    let within = cells.iter().filter(|c| c.within(0.35)).count();
    writeln!(
        out,
        "\n{}/{} cells within 35% of the paper's ratio",
        within,
        cells.len()
    )?;
    Ok(())
}
