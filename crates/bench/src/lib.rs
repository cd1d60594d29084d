//! # bench — experiment harnesses
//!
//! One binary per table and figure of the paper (see `src/bin/`),
//! plus the host-time benchmarks of the simulator itself (`bench_des`,
//! `bench_pipeline`, `bench_planner` and `bench_e2e`). This library
//! holds the shared plumbing: convenience runners over the serving
//! stack, paper-vs-measured report formatting, and the figure data
//! that `export_data` writes and a test pins to `output/`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p bench --release --bin all_experiments
//! ```

use helm_core::metrics::RunReport;
use helm_core::placement::PlacementKind;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use helm_core::HelmError;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use workload::WorkloadSpec;

mod figures;
pub use figures::figure_data;

/// Builds and runs one serving configuration with the paper-default
/// distribution for the model/memory pair.
///
/// # Errors
///
/// Propagates placement-capacity failures; the batch check is skipped
/// so figure harnesses can probe edge configurations.
pub fn run_serving(
    model: ModelConfig,
    memory: HostMemoryConfig,
    placement: PlacementKind,
    compressed: bool,
    batch: u32,
    workload: &WorkloadSpec,
) -> Result<RunReport, HelmError> {
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(placement)
        .with_compression(compressed)
        .with_batch_size(batch);
    let server = Server::new(SystemConfig::paper_platform(memory), model, policy)?;
    server.run_unchecked(workload)
}

/// A paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What is being compared.
    pub label: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Unit suffix for display.
    pub unit: &'static str,
}

impl Comparison {
    /// Creates a row.
    pub fn new(label: impl Into<String>, paper: f64, measured: f64, unit: &'static str) -> Self {
        Comparison {
            label: label.into(),
            paper,
            measured,
            unit,
        }
    }

    /// Relative deviation of measured from paper (fraction).
    pub fn deviation(&self) -> f64 {
        if self.paper == 0.0 {
            0.0
        } else {
            (self.measured - self.paper) / self.paper
        }
    }

    /// Whether the *shape* holds: same sign/side and within the given
    /// relative tolerance.
    pub fn within(&self, tolerance: f64) -> bool {
        self.deviation().abs() <= tolerance
    }
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
    println!("{}", "-".repeat(title.len() + 6));
}

/// Prints a block of paper-vs-measured rows with deviations.
pub fn print_comparisons(rows: &[Comparison]) {
    println!(
        "{:<52} {:>12} {:>12} {:>8}",
        "metric", "paper", "measured", "dev"
    );
    for row in rows {
        println!(
            "{:<52} {:>9.2} {:>2} {:>9.2} {:>2} {:>+7.1}%",
            row.label,
            row.paper,
            row.unit,
            row.measured,
            row.unit,
            row.deviation() * 100.0
        );
    }
}

/// Formats a fixed-width numeric table: header row plus rows of
/// (label, values).
pub fn print_table(headers: &[&str], rows: &[(String, Vec<f64>)]) {
    print!("{:<28}", headers[0]);
    for h in &headers[1..] {
        print!(" {h:>12}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:<28}");
        for v in values {
            print!(" {v:>12.3}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helm_core::placement::PlacementKind;

    #[test]
    fn comparison_math() {
        let c = Comparison::new("x", 10.0, 12.0, "ms");
        assert!((c.deviation() - 0.2).abs() < 1e-12);
        assert!(c.within(0.25));
        assert!(!c.within(0.1));
    }

    #[test]
    fn runner_produces_report() {
        let report = run_serving(
            ModelConfig::opt_175b(),
            HostMemoryConfig::nvdram(),
            PlacementKind::Baseline,
            true,
            1,
            &WorkloadSpec::paper_default(),
        )
        .unwrap();
        assert!(report.tbt_ms() > 0.0);
    }
}
