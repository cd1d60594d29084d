//! The raw data behind the paper's figures and tables, as the files
//! of the artifact's `output/` directory: one CSV per figure series,
//! and each experiment's report as `experiments/<name>.txt`.
//! `export_data` writes them; the test below pins them byte for byte
//! to the committed copies.

use crate::experiments::EXPERIMENTS;
use crate::run_serving;
use helm_core::metrics::{RunReport, Stage};
use helm_core::placement::PlacementKind;
use helm_core::HelmError;
use hetmem::HostMemoryConfig;
use llm::layers::LayerKind;
use llm::ModelConfig;
use std::error::Error;
use std::fmt::Write as _;
use workload::WorkloadSpec;
use xfer::nvbandwidth;
use xfer::path::PathModel;

/// Every pinned output file as `(path under output/, contents)`: the
/// figure CSVs, then each experiment's report in registry order.
///
/// # Errors
///
/// The first figure or experiment that fails.
pub fn figure_data() -> Result<Vec<(String, String)>, Box<dyn Error>> {
    let mut files = Vec::new();
    for (path, text, failure) in regenerate()? {
        if let Some(e) = failure {
            return Err(format!("{path}: {e}").into());
        }
        files.push((path, text));
    }
    Ok(files)
}

/// [`figure_data`]'s files, each with the error that cut it short. A
/// failed experiment keeps the text it wrote before failing, so the
/// pin can still name the first line that differs.
fn regenerate() -> Result<Vec<(String, String, Option<String>)>, HelmError> {
    let mut files: Vec<_> = figure_csvs()?
        .into_iter()
        .map(|(name, csv)| (name.to_owned(), csv, None))
        .collect();
    for (name, experiment) in EXPERIMENTS {
        let mut text = String::new();
        let failure = experiment(&mut text).err().map(|e| e.to_string());
        files.push((format!("experiments/{name}.txt"), text, failure));
    }
    Ok(files)
}

/// Every figure CSV as `(file name, contents)`.
fn figure_csvs() -> Result<Vec<(&'static str, String)>, HelmError> {
    let ws = WorkloadSpec::paper_default();
    let mut files = vec![("fig3_bandwidth.csv", fig3())];

    // Fig 4: uncompressed serving matrix.
    let mut runs = Vec::new();
    for (model, batches, configs) in [
        (
            ModelConfig::opt_30b(),
            vec![1u32, 32],
            HostMemoryConfig::opt30b_set(),
        ),
        (
            ModelConfig::opt_175b(),
            vec![1, 8],
            HostMemoryConfig::opt175b_set(),
        ),
    ] {
        for batch in batches {
            for cfg in &configs {
                let label = format!("{}-{}", model.name(), cfg.kind());
                let report = run_serving(
                    model.clone(),
                    cfg.clone(),
                    PlacementKind::Baseline,
                    false,
                    batch,
                    &ws,
                )?;
                runs.push((label, report));
            }
        }
    }
    files.push(("fig4_serving.csv", serving_rows(&runs)));
    files.push(("fig5_overlap.csv", overlap_rows(&runs)));

    // Figs 6-12: the compressed OPT-175B study.
    let mut runs = Vec::new();
    for (cfg, placement, batch) in [
        (HostMemoryConfig::nvdram(), PlacementKind::Baseline, 1u32),
        (HostMemoryConfig::nvdram(), PlacementKind::Baseline, 8),
        (HostMemoryConfig::nvdram(), PlacementKind::Helm, 1),
        (HostMemoryConfig::nvdram(), PlacementKind::AllCpu, 1),
        (HostMemoryConfig::nvdram(), PlacementKind::AllCpu, 8),
        (HostMemoryConfig::nvdram(), PlacementKind::AllCpu, 44),
        (HostMemoryConfig::memory_mode(), PlacementKind::Baseline, 1),
        (HostMemoryConfig::memory_mode(), PlacementKind::Helm, 1),
        (HostMemoryConfig::memory_mode(), PlacementKind::AllCpu, 44),
        (HostMemoryConfig::dram(), PlacementKind::Baseline, 1),
        (HostMemoryConfig::dram(), PlacementKind::Helm, 1),
        (HostMemoryConfig::dram(), PlacementKind::AllCpu, 44),
    ] {
        let label = cfg.kind().to_string();
        let report = run_serving(ModelConfig::opt_175b(), cfg, placement, true, batch, &ws)?;
        runs.push((label, report));
    }
    files.push(("fig11_12_serving.csv", serving_rows(&runs)));
    files.push(("fig11_12_overlap.csv", overlap_rows(&runs)));

    // Fig 7a: the sawtooth, per-layer load latencies.
    let mut csv = String::from("layer_index,load_ms\n");
    for (layer, load) in runs[0].1.decode_load_profile() {
        let _ = writeln!(csv, "{layer},{:.4}", load.as_millis());
    }
    files.push(("fig7a_sawtooth.csv", csv));

    // Table IV / Fig 13: projections.
    let mut csv = String::from(
        "policy,batch,stage,config,mha_compute_over_ffn_load,ffn_compute_over_mha_load\n",
    );
    for r in &helm_core::projection::table_iv(&ws)? {
        let _ = writeln!(
            csv,
            "{},{},{},{},{:.4},{:.4}",
            r.policy,
            r.batch,
            r.stage,
            r.config,
            r.mha_compute_over_ffn_load,
            r.ffn_compute_over_mha_load
        );
    }
    files.push(("table4_overlap.csv", csv));
    Ok(files)
}

fn fig3() -> String {
    let mut csv = String::from("direction,memory,node,buffer_bytes,gbps\n");
    for p in &nvbandwidth::sweep(&PathModel::paper_system()) {
        let _ = writeln!(
            csv,
            "{:?},{},{},{},{:.4}",
            p.direction,
            p.memory.label(),
            p.node,
            p.buffer.as_u64(),
            p.gbps
        );
    }
    csv
}

fn serving_rows(runs: &[(String, RunReport)]) -> String {
    let mut csv = String::from("config,placement,batch,compressed,ttft_ms,tbt_ms,tokens_per_s\n");
    for (label, r) in runs {
        let _ = writeln!(
            csv,
            "{label},{},{},{},{:.3},{:.3},{:.5}",
            r.placement,
            r.batch,
            r.compressed,
            r.ttft_ms(),
            r.tbt_ms(),
            r.throughput_tps()
        );
    }
    csv
}

fn overlap_rows(runs: &[(String, RunReport)]) -> String {
    let mut csv = String::from(
        "config,placement,batch,stage,mha_compute_ms,ffn_compute_ms,mha_load_ms,ffn_load_ms\n",
    );
    for (label, r) in runs {
        for stage in [Stage::Prefill, Stage::Decode] {
            let _ = writeln!(
                csv,
                "{label},{},{},{stage},{:.4},{:.4},{:.4},{:.4}",
                r.placement,
                r.batch,
                r.avg_compute(stage, LayerKind::Mha).as_millis(),
                r.avg_compute(stage, LayerKind::Ffn).as_millis(),
                r.avg_weight_transfer(stage, LayerKind::Mha).as_millis(),
                r.avg_weight_transfer(stage, LayerKind::Ffn).as_millis(),
            );
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn output_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../output")
    }

    /// Every figure CSV and every experiment report regenerates byte
    /// for byte from the committed `output/` copy. A model change that
    /// moves any of them fails here, naming each file that moved and
    /// its first differing line; an experiment that fails ends its
    /// text with an `error:` line.
    #[test]
    fn figure_data_matches_committed_output() {
        let dir = output_dir();
        let files = regenerate().expect("every figure configuration places");
        assert_eq!(files.len(), 7 + 24);
        let mut mismatches = Vec::new();
        for (name, mut text, failure) in files {
            if let Some(e) = failure {
                let _ = writeln!(text, "error: {e}");
            }
            let committed = std::fs::read_to_string(dir.join(&name))
                .unwrap_or_else(|e| format!("<unreadable: {e}>"));
            if committed == text {
                continue;
            }
            let line = committed
                .lines()
                .zip(text.lines())
                .position(|(want, got)| want != got)
                .unwrap_or_else(|| committed.lines().count().min(text.lines().count()));
            let at = |text: &str| text.lines().nth(line).unwrap_or("<eof>").to_owned();
            mismatches.push(format!(
                "{name}: line {}: committed `{}`, regenerated `{}`",
                line + 1,
                at(&committed),
                at(&text)
            ));
        }
        assert!(
            mismatches.is_empty(),
            "figure data differs from output/:\n{}",
            mismatches.join("\n")
        );
    }

    /// `output/experiments/` holds one report per registered
    /// experiment and nothing else, so an experiment without a pin
    /// file, or a pin file without an experiment, fails.
    #[test]
    fn experiment_pins_match_the_registry() {
        let mut pinned: Vec<String> = std::fs::read_dir(output_dir().join("experiments"))
            .expect("output/experiments/ is readable")
            .map(|entry| entry.expect("directory entry").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .collect();
        pinned.sort();
        let mut registered: Vec<String> = EXPERIMENTS
            .iter()
            .map(|(name, _)| format!("{name}.txt"))
            .collect();
        registered.sort();
        assert_eq!(pinned, registered);
    }
}
