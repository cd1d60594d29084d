//! Property tests over the reporting layers: energy accounting and
//! online-serving statistics.

use helm_core::energy::assess;
use helm_core::online::{run_cluster, run_online, ClusterSpec, PoissonArrivals};
use helm_core::placement::PlacementKind;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use proptest::prelude::*;
use workload::WorkloadSpec;

fn small_server(batch: u32, compressed: bool) -> Server {
    let model = ModelConfig::opt_1_3b();
    let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
        .with_placement(PlacementKind::AllCpu)
        .with_compression(compressed)
        .with_batch_size(batch);
    Server::new(
        SystemConfig::paper_platform(HostMemoryConfig::nvdram()),
        model,
        policy,
    )
    .expect("fits")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Energy components are non-negative and total/tokens identities
    /// hold for arbitrary serving shapes.
    #[test]
    fn energy_accounting_identities(
        batch in 1u32..=16,
        compressed in any::<bool>(),
        gen_len in 2usize..=6,
    ) {
        let server = small_server(batch, compressed);
        let ws = WorkloadSpec::new(64, gen_len, 1);
        let report = server.run(&ws).expect("serves");
        let energy = assess(&report, server.system());
        for (label, j) in [
            ("host_dynamic", energy.host_dynamic_j),
            ("host_static", energy.host_static_j),
            ("pcie", energy.pcie_j),
            ("gpu_dynamic", energy.gpu_dynamic_j),
            ("gpu_idle", energy.gpu_idle_j),
            ("cpu", energy.cpu_j),
        ] {
            prop_assert!(j >= 0.0 && j.is_finite(), "{label}: {j}");
        }
        let sum = energy.host_dynamic_j
            + energy.host_static_j
            + energy.pcie_j
            + energy.gpu_dynamic_j
            + energy.gpu_idle_j
            + energy.cpu_j;
        prop_assert!((energy.total_j() - sum).abs() < 1e-9);
        prop_assert_eq!(energy.tokens, report.tokens_generated);
        prop_assert!(
            (energy.j_per_token() * energy.tokens as f64 - energy.total_j()).abs() < 1e-6
        );
    }

    /// Online reports are internally consistent and the two
    /// implementations — the loop and a one-pipeline event-driven
    /// cluster — agree, for arbitrary loads.
    #[test]
    fn online_statistics_consistency(
        lambda_milli in 1u32..=400, // 0.001 .. 0.4 req/s
        n in 10usize..=60,
        batch in 1u32..=8,
        seed in 0u64..1000,
    ) {
        let lambda = f64::from(lambda_milli) / 1000.0;
        let server = small_server(batch, true);
        let ws = WorkloadSpec::paper_default();
        let a = run_online(&server, &ws, &mut PoissonArrivals::new(lambda, seed), n)
            .expect("serves");
        let b = run_cluster(
            &server,
            &ws,
            &mut PoissonArrivals::new(lambda, seed),
            n,
            ClusterSpec::new(1),
        )
        .expect("serves");
        prop_assert_eq!(a.served, n as u64);
        prop_assert_eq!(a.queue_delay.count(), n as u64);
        prop_assert_eq!(a.e2e_latency.count(), n as u64);
        let batched: u32 = a.batch_sizes.iter().sum();
        prop_assert_eq!(batched as usize, n);
        prop_assert!(a.batch_sizes.iter().all(|&bsz| bsz >= 1 && bsz <= batch));
        prop_assert!(a.utilization > 0.0 && a.utilization <= 1.0);
        // End-to-end latency always covers the service floor.
        prop_assert!(
            a.e2e_latency.percentile(0.0).unwrap() + 1e-9
                >= a.makespan.as_secs() / (a.batch_sizes.len() as f64) * 0.0
        );
        // Cross-validation of the two implementations.
        prop_assert_eq!(&a.batch_sizes, &b.batch_sizes);
        prop_assert!((a.makespan.as_secs() - b.makespan.as_secs()).abs() < 1e-9);
        prop_assert!(
            (a.e2e_latency.mean() - b.e2e_latency.mean()).abs() < 1e-9
        );
    }
}

/// Offered load beyond capacity saturates utilization.
#[test]
fn overload_saturates() {
    let server = small_server(4, true);
    let ws = WorkloadSpec::paper_default();
    let r = run_online(&server, &ws, &mut PoissonArrivals::new(50.0, 5), 40).unwrap();
    assert!(r.utilization > 0.99, "utilization {}", r.utilization);
    // Later arrivals wait behind everything: p95 >> p5.
    assert!(r.e2e_percentile_ms(95.0) > r.e2e_percentile_ms(5.0) * 2.0);
}
