//! Properties of the span-trace substrate and critical-path
//! attribution.
//!
//! Three families of claims are pinned here:
//!
//! 1. **Exactness** — attribution is an integer-tick partition:
//!    `queue + compute + transfer == total` is an *equality* for every
//!    request and for every run-level aggregate, never a tolerance.
//!    Per-request span trees partition the request's service span the
//!    same way: leaf spans sum exactly to their parent's extent.
//! 2. **Structure** — every collected span tree nests (children
//!    contained in parents, siblings ordered, no overlap), and the
//!    chrome-trace rendering of any trace parses and nests too.
//! 3. **The paper's overlap claim** — at matched batch size on the
//!    paper platform, the HeLM placement keeps the critical path
//!    mostly compute-bound (transfer fraction < 0.5) while the
//!    All-CPU baseline is transfer-bound (>= 0.5). This is the
//!    headline of the source paper expressed as a property.

use helm_core::online::{
    run_cluster_mix_traced, AdmissionPolicy, CalibrationCache, ClusterSpec, DeadlineSpec,
    PoissonArrivals, SchedulerKind,
};
use helm_core::placement::PlacementKind;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use helm_core::trace::validate_chrome_trace;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use proptest::prelude::*;
use simcore::time::SimDuration;
use workload::WorkloadSpec;

fn small_server(placement: PlacementKind, batch: u32) -> Server {
    let model = ModelConfig::opt_1_3b();
    let memory = HostMemoryConfig::dram();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(placement)
        .with_batch_size(batch);
    Server::new(SystemConfig::paper_platform(memory), model, policy).unwrap()
}

fn paper_server(placement: PlacementKind, batch: u32) -> Server {
    let model = ModelConfig::opt_175b();
    let memory = HostMemoryConfig::nvdram();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(placement)
        .with_compression(true)
        .with_batch_size(batch);
    Server::new(SystemConfig::paper_platform(memory), model, policy).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the cluster draw, every collected request trace has
    /// (a) a structurally sound span tree, (b) exact attribution, and
    /// (c) segments that sum to the request's end-to-end extent; and
    /// the run-level aggregate is the exact bucket-wise sum of the
    /// per-request attributions.
    #[test]
    fn attribution_partitions_exactly(
        lambda in 0.05f64..2.0,
        scheduler_sel in 0u8..4,
        admission_sel in 0u8..3,
        continuous in any::<bool>(),
        slo_ms in 500.0..60_000.0f64,
        num_requests in 5usize..=30,
        seed in 0u64..100_000,
    ) {
        let servers = [
            small_server(PlacementKind::Helm, 2),
            small_server(PlacementKind::AllCpu, 4),
        ];
        let groups: Vec<(&Server, usize)> = servers.iter().map(|s| (s, 1)).collect();
        let scheduler = [
            SchedulerKind::RoundRobin,
            SchedulerKind::JoinShortestQueue,
            SchedulerKind::LeastFinishTime,
            SchedulerKind::DeadlineAware,
        ][scheduler_sel as usize];
        let admission = match admission_sel {
            0 => AdmissionPolicy::AcceptAll,
            1 => AdmissionPolicy::QueueCap(2),
            _ => AdmissionPolicy::DeadlineFeasible,
        };
        let spec = ClusterSpec::new(1)
            .with_scheduler(scheduler)
            .with_admission(admission)
            .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_millis(slo_ms)))
            .with_continuous(continuous);
        let workload = WorkloadSpec::new(32, 3, 1);
        let mut arrivals = PoissonArrivals::new(lambda, seed);
        let mut cache = CalibrationCache::new();
        let (report, trace) = run_cluster_mix_traced(
            &groups, &workload, &mut arrivals, num_requests, spec, &mut cache,
        )
        .unwrap();

        let nesting = trace.validate();
        prop_assert!(
            nesting.is_ok(),
            "malformed span tree: {:?}",
            nesting.err()
        );
        let mut summed = helm_core::trace::Attribution::default();
        for req in &trace.requests {
            prop_assert!(
                req.attribution.is_exact(),
                "request {} attribution is not an exact partition: {:?}",
                req.id,
                req.attribution
            );
            // The request's root span covers exactly the attributed
            // total: segments sum to e2e as an equality.
            let root = req.spans.first().expect("every request has a root span");
            prop_assert_eq!(
                u128::from(root.end - root.start),
                req.attribution.total_ticks,
                "request {} root span does not cover its attributed total",
                req.id
            );
            summed.absorb(req.attribution);
        }
        prop_assert!(report.attribution.is_exact(), "run aggregate is not exact");
        prop_assert_eq!(
            report.attribution,
            summed,
            "run aggregate is not the sum of per-request attributions"
        );

        // The chrome-trace rendering of whatever we collected parses
        // and nests (empty traces render as a valid empty file).
        let json = trace.to_chrome_json();
        let stats = validate_chrome_trace(&json);
        prop_assert!(stats.is_ok(), "chrome trace invalid: {:?}", stats.err());
        prop_assert_eq!(stats.unwrap().events, trace.span_count());
    }
}

/// The paper's overlap claim as a pinned property: on the paper
/// platform (OPT-175B, NV-DRAM, 4-bit weights) at matched batch size,
/// the HeLM placement hides most transfer behind compute (critical
/// path transfer-bound < 50%) while the All-CPU baseline, which pulls
/// every weight across the bus per step, is transfer-bound (>= 50%).
#[test]
fn helm_is_compute_bound_where_all_cpu_is_transfer_bound() {
    let workload = WorkloadSpec::paper_default();
    let helm = paper_server(PlacementKind::Helm, 4)
        .run(&workload)
        .expect("helm runs");
    let allcpu = paper_server(PlacementKind::AllCpu, 4)
        .run(&workload)
        .expect("all-cpu runs");
    assert!(helm.attribution.is_exact());
    assert!(allcpu.attribution.is_exact());
    let helm_xfer = helm.attribution.transfer_fraction();
    let allcpu_xfer = allcpu.attribution.transfer_fraction();
    assert!(
        helm_xfer < 0.5,
        "HeLM placement should be compute-bound, got transfer fraction {helm_xfer:.3}"
    );
    assert!(
        allcpu_xfer >= 0.5,
        "All-CPU baseline should be transfer-bound, got transfer fraction {allcpu_xfer:.3}"
    );
    assert!(
        helm_xfer < allcpu_xfer,
        "HeLM ({helm_xfer:.3}) should hide more transfer than All-CPU ({allcpu_xfer:.3})"
    );
}

/// Offline traced runs produce one span tree for the fused batch,
/// structurally sound, with segments summing exactly to the
/// attributed end-to-end extent.
#[test]
fn offline_trace_is_sound_and_exact() {
    let workload = WorkloadSpec::paper_default();
    let server = paper_server(PlacementKind::Helm, 4);
    let (report, trace) = server.run_traced(&workload).expect("traced run");
    assert_eq!(
        trace.requests.len(),
        1,
        "offline batches trace as one fused request"
    );
    trace.validate().expect("span trees nest");
    for req in &trace.requests {
        assert!(req.attribution.is_exact());
        let root = req.spans[0];
        assert_eq!(
            u128::from(root.end - root.start),
            req.attribution.total_ticks
        );
        // Offline runs never queue: the critical path is entirely
        // compute + transfer.
        assert_eq!(req.attribution.queue_ticks, 0);
    }
    assert!(report.attribution.is_exact());
    let json = trace.to_chrome_json();
    let stats = validate_chrome_trace(&json).expect("chrome trace parses and nests");
    assert_eq!(stats.events, trace.span_count());
    assert_eq!(stats.tracks, 1);
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The chrome-trace exporter's bytes, pinned as the FNV-1a of two
/// traces: a sparse online cluster run whose span starts fall below
/// 2^32 µs, in [2^32, 2^33) µs and past 2^33 µs (the exporter's three
/// timestamp regimes), and an offline run's per-step spans. Writing
/// the same trace to an `io::Write` gives the same bytes.
#[test]
fn chrome_export_bytes_are_pinned() {
    let servers = [
        small_server(PlacementKind::Helm, 2),
        small_server(PlacementKind::AllCpu, 4),
    ];
    let groups: Vec<(&Server, usize)> = servers.iter().map(|s| (s, 1)).collect();
    let mut arrivals = PoissonArrivals::new(0.005, 7);
    let (_, online) = run_cluster_mix_traced(
        &groups,
        &WorkloadSpec::new(32, 4, 1),
        &mut arrivals,
        60,
        ClusterSpec::new(1),
        &mut CalibrationCache::new(),
    )
    .expect("online run");
    // Span starts per regime, by whole microseconds (ticks are ps).
    let mut regimes = [0usize; 3];
    for span in online.requests.iter().flat_map(|r| &r.spans) {
        regimes[((span.start / 1_000_000) >> 32).min(2) as usize] += 1;
    }
    assert!(
        regimes.iter().all(|&n| n > 0),
        "spans per regime: {regimes:?}"
    );
    let (_, offline) = paper_server(PlacementKind::Helm, 4)
        .run_traced(&WorkloadSpec::paper_default())
        .expect("offline run");
    for (what, trace, pin) in [
        ("online", &online, 0xcb1c_711f_5425_1d4b),
        ("offline", &offline, 0xcf4a_8737_56cf_a6d0),
    ] {
        let json = trace.to_chrome_json();
        assert_eq!(fnv1a(json.as_bytes()), pin, "{what} export changed");
        let stats = validate_chrome_trace(&json).expect("exported trace validates");
        assert_eq!(stats.events, trace.span_count());
        let mut streamed = Vec::new();
        trace
            .write_chrome_json(&mut streamed)
            .expect("writing to a Vec cannot fail");
        assert_eq!(streamed, json.as_bytes(), "{what}: streamed bytes differ");
    }
}
