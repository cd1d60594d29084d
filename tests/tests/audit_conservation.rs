//! Conservation-law integration tests: for every placement policy,
//! the offline executor's simaudit byte ledgers must balance to zero
//! outstanding bytes, and the audited totals must agree with the
//! report's own accounting.
//!
//! These tests run the real `Server` pipeline, so they double as a
//! regression net for the audit wiring in `exec.rs`.
//!
//! Every test forces auditing on before its first run, so the ledgers
//! are checked in release builds too, where auditing is otherwise
//! off. The switch is process-wide and only turns on, so a test that
//! set it after another test's first run would change that test's
//! later reports; setting it first in every test rules that out.

use helm_core::placement::{ModelPlacement, PlacementKind};
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use helm_core::RunReport;
use hetmem::{HostMemoryConfig, MemoryConfigKind};
use llm::ModelConfig;
use simcore::units::ByteSize;
use workload::WorkloadSpec;

const POLICIES: [PlacementKind; 3] = [
    PlacementKind::Baseline,
    PlacementKind::Helm,
    PlacementKind::AllCpu,
];

/// Runs one policy, returning its report plus the pipeline-fill
/// bytes (layer 0 streams before any step record exists, so the audit
/// ledgers see it but the per-step totals don't).
fn run_policy(kind: PlacementKind) -> (RunReport, ByteSize) {
    let model = ModelConfig::opt_175b();
    let policy = Policy::paper_default(&model, MemoryConfigKind::NvDram)
        .with_placement(kind)
        .with_compression(true);
    let placement = ModelPlacement::compute(&model, &policy);
    let fill = placement.layers()[0].offloaded_bytes(placement.dtype());
    let server = Server::new(
        SystemConfig::paper_platform(HostMemoryConfig::nvdram()),
        model,
        policy,
    )
    .expect("paper config fits");
    let report = server.run(&WorkloadSpec::paper_default()).expect("run");
    (report, fill)
}

#[test]
fn ledgers_balance_for_all_policies() {
    simaudit::force_enable();
    for kind in POLICIES {
        let (report, _) = run_policy(kind);
        let audit = report
            .audit
            .as_ref()
            .unwrap_or_else(|| panic!("{kind}: no audit report with auditing forced on"));
        assert!(audit.is_clean(), "{kind}:\n{audit}");
        for (channel, ledger) in &audit.ledgers {
            assert!(
                ledger.is_balanced(),
                "{kind}: channel {channel} left {} outstanding",
                ledger.outstanding()
            );
        }
    }
}

#[test]
fn audited_traffic_matches_report_accounting() {
    simaudit::force_enable();
    for kind in POLICIES {
        let (report, fill) = run_policy(kind);
        let audit = report.audit.as_ref().expect("auditing forced on");
        let h2d = audit.delivered_with_prefix("h2d:");
        let d2h = audit.delivered_with_prefix("d2h:");
        assert_eq!(
            h2d,
            report.total_h2d_bytes() + fill,
            "{kind}: audited h2d disagrees with the report \
             (per-step totals plus the layer-0 pipeline fill)"
        );
        assert_eq!(
            d2h,
            report.total_d2h_bytes(),
            "{kind}: audited d2h disagrees with the report"
        );
    }
}
