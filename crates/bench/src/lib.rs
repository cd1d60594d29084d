//! # bench — the paper scorecard and the simulator's host-time benchmarks
//!
//! This library holds every experiment of the paper's evaluation and
//! of its extensions, each a function that writes its paper-vs-measured
//! report into a `String` (see [`run_experiments`]). It also holds
//! the shared plumbing: a paper-platform server builder, the report
//! formatting, and the raw figure data that `export_data` writes and a
//! test pins to `output/`.
//!
//! Run every experiment, or only the named ones, with:
//!
//! ```text
//! cargo run -p bench --release --bin experiments [-- NAME...]
//! ```
//!
//! The host-time benchmarks of the simulator itself (`bench_des`,
//! `bench_pipeline`, `bench_planner`, `bench_e2e`, and the
//! `ablation_autoplace` and `online_admission` harnesses, which time
//! wall clock and gate on it) stay binaries under `src/bin/`.

use helm_core::metrics::RunReport;
use helm_core::placement::PlacementKind;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use helm_core::HelmError;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use std::fmt::Write as _;
use workload::WorkloadSpec;

mod experiments;
mod figures;
pub use experiments::run_experiments;
pub use figures::figure_data;

/// The paper's platform (Table I) serving `model` from `memory`,
/// under the paper-default policy for the pair as `tune` adjusts it.
///
/// # Errors
///
/// As [`Server::new`]: the placement must fit the platform's tiers.
pub fn paper_server(
    model: ModelConfig,
    memory: HostMemoryConfig,
    tune: impl FnOnce(Policy) -> Policy,
) -> Result<Server, HelmError> {
    let policy = tune(Policy::paper_default(&model, memory.kind()));
    Server::new(SystemConfig::paper_platform(memory), model, policy)
}

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
    paper_server(model, memory, |p| {
        p.with_placement(placement)
            .with_compression(compressed)
            .with_batch_size(batch)
    })?
    .run_unchecked(workload)
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

    /// Relative deviation of measured from paper (fraction), or `None`
    /// when the paper's value is 0 and no relative deviation exists.
    pub fn deviation(&self) -> Option<f64> {
        (self.paper != 0.0).then(|| (self.measured - self.paper) / self.paper)
    }

    /// Whether the *shape* holds: same sign/side and within the given
    /// relative tolerance. Never true for a paper value of 0.
    pub fn within(&self, tolerance: f64) -> bool {
        self.deviation().is_some_and(|d| d.abs() <= tolerance)
    }
}

/// A section header.
pub fn section(title: &str) -> String {
    format!("\n== {title} ==\n{}\n", "-".repeat(title.len() + 6))
}

/// A block of paper-vs-measured rows with deviations.
pub fn comparisons(rows: &[Comparison]) -> String {
    let mut out = format!(
        "{:<52} {:>12} {:>12} {:>8}\n",
        "metric", "paper", "measured", "dev"
    );
    for row in rows {
        let dev = match row.deviation() {
            Some(d) => format!("{:>+7.1}%", d * 100.0),
            None => format!("{:>8}", "n/a"),
        };
        let _ = writeln!(
            out,
            "{:<52} {:>9.2} {:>2} {:>9.2} {:>2} {dev}",
            row.label, row.paper, row.unit, row.measured, row.unit,
        );
    }
    out
}

/// A fixed-width numeric table: header row plus rows of (label,
/// values).
pub fn table(headers: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    let mut out = String::new();
    if let Some((first, rest)) = headers.split_first() {
        let _ = write!(out, "{first:<28}");
        for h in rest {
            let _ = write!(out, " {h:>12}");
        }
        out.push('\n');
    }
    for (label, values) in rows {
        let _ = write!(out, "{label:<28}");
        for v in values {
            let _ = write!(out, " {v:>12.3}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use helm_core::placement::PlacementKind;

    #[test]
    fn comparison_math() {
        let c = Comparison::new("x", 10.0, 12.0, "ms");
        assert!((c.deviation().unwrap() - 0.2).abs() < 1e-12);
        assert!(c.within(0.25));
        assert!(!c.within(0.1));
        // A paper value of 0 has no relative deviation, whatever was
        // measured, and prints `n/a` in the dev column.
        for measured in [0.0, 0.04, -3.0] {
            let zero = Comparison::new("z", 0.0, measured, "%");
            assert_eq!(zero.deviation(), None);
            assert!(!zero.within(f64::INFINITY));
        }
        let text = comparisons(&[c, Comparison::new("z", 0.0, 0.04, "%")]);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].ends_with("   +20.0%"), "{}", lines[1]);
        assert!(lines[2].ends_with("      n/a"), "{}", lines[2]);
        assert_eq!(lines[1].len(), lines[2].len());
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
