//! Degenerate-input hardening: configurations that admit no
//! meaningful simulation must come back as typed
//! [`HelmError::InvalidConfig`] values or honest all-zero reports —
//! never a panic, never a NaN smuggled into a report field.
//!
//! Each test here is a regression pin for one edge that used to (or
//! plausibly could) assert or divide by zero: an empty cluster mix, a
//! plan space with nothing to search, a zero-request probe, a
//! zero-request serve, arrival rates at the ends of the `f64` range,
//! deadlines from zero to infinity at one to 64 output tokens, and a
//! zero-capacity latency reservoir.

use helm_core::error::HelmError;
use helm_core::online::{
    run_cluster, run_cluster_mix, run_cluster_mix_cached, AdmissionPolicy, CalibrationCache,
    ClusterReport, ClusterSpec, DeadlineSpec, PoissonArrivals, SchedulerKind, StepGranularity,
};
use helm_core::placement::PlacementKind;
use helm_core::planner::{plan, PlanSpace, PlanTarget, SearchBudget, TrafficSpec};
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use simcore::rng::SimRng;
use simcore::stats::Reservoir;
use simcore::time::SimDuration;
use workload::WorkloadSpec;

/// OPT-1.3B on DRAM under HeLM placement at `batch`.
fn small_server(batch: u32) -> Server {
    let model = ModelConfig::opt_1_3b();
    let memory = HostMemoryConfig::dram();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(PlacementKind::Helm)
        .with_batch_size(batch);
    Server::new(SystemConfig::paper_platform(memory), model, policy).unwrap()
}

fn assert_invalid_config(result: Result<impl std::fmt::Debug, HelmError>, what: &str) {
    match result {
        Err(HelmError::InvalidConfig(_)) => {}
        other => panic!("{what}: expected InvalidConfig, got {other:?}"),
    }
}

/// The checks every extreme-configuration cluster run must pass: a
/// rerun repeats it exactly, and a report accounts for all `n`
/// requests overall and per pipeline and renders no NaN. Returns the
/// report, or the typed error both runs returned.
fn check_run(
    case: &str,
    n: usize,
    mut run: impl FnMut() -> Result<ClusterReport, HelmError>,
) -> Result<ClusterReport, HelmError> {
    let first = run();
    let rendered = format!("{first:?}");
    assert_eq!(rendered, format!("{:?}", run()), "{case}: rerun diverged");
    let report = first?;
    assert_eq!(
        report.served + report.rejected + report.expired,
        n as u64,
        "{case}: requests lost"
    );
    let per_pipe: u64 = report
        .per_pipeline
        .iter()
        .map(|p| p.served + p.rejected + p.expired)
        .sum();
    assert_eq!(per_pipe, n as u64, "{case}: pipelines lost requests");
    assert!(!rendered.contains("NaN"), "{case}: NaN in {rendered}");
    Ok(report)
}

/// An empty cluster mix is a typed error, not an assert — and so is a
/// homogeneous cluster whose replica count was zeroed after
/// construction (it is the one-group mix with no pipelines).
#[test]
fn empty_cluster_mix_is_a_typed_error() {
    let workload = WorkloadSpec::new(32, 3, 1);
    let mut arrivals = PoissonArrivals::new(1.0, 7);
    let result = run_cluster_mix(&[], &workload, &mut arrivals, 10, ClusterSpec::new(1));
    assert_invalid_config(result, "empty mix");
    let mut spec = ClusterSpec::new(1);
    spec.pipelines = 0;
    let result = run_cluster(&small_server(2), &workload, &mut arrivals, 10, spec);
    assert_invalid_config(result, "zero pipelines");
}

/// Every degenerate plan input comes back as `InvalidConfig`: an
/// empty template/scheduler/admission lattice, a zero replica cap, a
/// zero-request screening probe, a non-finite or non-positive arrival
/// rate, and traffic with no requests.
#[test]
fn degenerate_plan_inputs_are_typed_errors() {
    let server = small_server(2);
    let workload = WorkloadSpec::new(32, 3, 1);
    let traffic = TrafficSpec::new(1.0, 50, 7);
    let target = PlanTarget::attainment(0.9);
    let budget = SearchBudget::default();
    let space = PlanSpace::for_server(&server, &workload).expect("plan space");

    let mut no_templates = space.clone();
    no_templates.templates.clear();
    assert_invalid_config(
        plan(&server, &workload, &traffic, target, &no_templates, budget),
        "no templates",
    );

    let mut no_schedulers = space.clone();
    no_schedulers.schedulers.clear();
    assert_invalid_config(
        plan(&server, &workload, &traffic, target, &no_schedulers, budget),
        "no schedulers",
    );

    let mut no_admissions = space.clone();
    no_admissions.admissions.clear();
    assert_invalid_config(
        plan(&server, &workload, &traffic, target, &no_admissions, budget),
        "no admissions",
    );

    let mut no_replicas = space.clone();
    no_replicas.max_replicas = 0;
    assert_invalid_config(
        plan(&server, &workload, &traffic, target, &no_replicas, budget),
        "zero replica cap",
    );

    let mut no_probe = space.clone();
    no_probe.probe_requests = 0;
    assert_invalid_config(
        plan(&server, &workload, &traffic, target, &no_probe, budget),
        "zero probe requests",
    );

    for lambda in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let bad = TrafficSpec::new(lambda, 50, 7);
        assert_invalid_config(
            plan(&server, &workload, &bad, target, &space, budget),
            "bad lambda",
        );
    }

    let empty_traffic = TrafficSpec::new(1.0, 0, 7);
    assert_invalid_config(
        plan(&server, &workload, &empty_traffic, target, &space, budget),
        "zero requests",
    );
}

/// Serving zero requests yields an honest all-zero report: it
/// completes, and no field renders as NaN — percentiles, utilization,
/// throughput, and attribution fractions all come back as finite
/// zeros.
#[test]
fn zero_request_serve_reports_honest_zeros() {
    let server = small_server(2);
    let workload = WorkloadSpec::new(32, 3, 1);
    for granularity in [StepGranularity::PerStep, StepGranularity::Coalesced] {
        let spec = ClusterSpec::new(2).with_granularity(granularity);
        let mut arrivals = PoissonArrivals::new(1.0, 7);
        let report =
            run_cluster(&server, &workload, &mut arrivals, 0, spec).expect("zero-request run");
        let rendered = format!("{report:?}");
        assert!(
            !rendered.contains("NaN"),
            "zero-request report leaked a NaN: {rendered}"
        );
        assert!(report.attribution.is_exact());
        assert_eq!(report.attribution.total_ticks, 0);
        assert_eq!(report.attribution.queue_fraction(), 0.0);
        assert_eq!(report.attribution.compute_fraction(), 0.0);
        assert_eq!(report.attribution.transfer_fraction(), 0.0);
    }
}

/// Arrival rates at both ends of the `f64` range reach the cluster
/// engine intact: λ = 1e-300 spaces arrivals ~1e300 s apart, far past
/// any service time, and λ = 1e300 stacks them onto one instant. Over
/// both batching modes, both dispatch/admission pairs and one or 50
/// requests, every run completes, accounts for every request overall
/// and per pipeline, renders no NaN, and reruns byte-identically. Only
/// NaN is ruled out: one request at λ = 1e-300 has a zero makespan, so
/// its throughput is infinite (the CLI prints it as `null`).
#[test]
fn extreme_arrival_rates_give_honest_reports() {
    let server = small_server(4);
    let workload = WorkloadSpec::paper_default();
    let policies = [
        (
            SchedulerKind::JoinShortestQueue,
            AdmissionPolicy::AcceptAll,
            DeadlineSpec::None,
        ),
        (
            SchedulerKind::DeadlineAware,
            AdmissionPolicy::DeadlineFeasible,
            DeadlineSpec::Fixed(SimDuration::from_secs(30.0)),
        ),
    ];
    for lambda in [1e-300, 1e-9, 1e9, 1e300] {
        for continuous in [false, true] {
            for (scheduler, admission, deadlines) in policies {
                for n in [1usize, 50] {
                    let spec = ClusterSpec::new(2)
                        .with_scheduler(scheduler)
                        .with_admission(admission)
                        .with_deadlines(deadlines)
                        .with_continuous(continuous);
                    let case = format!("λ={lambda:e} continuous={continuous} {scheduler:?} n={n}");
                    check_run(&case, n, || {
                        let mut arrivals = PoissonArrivals::new(lambda, 11);
                        run_cluster(&server, &workload, &mut arrivals, n, spec)
                    })
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                }
            }
        }
    }
}

/// Deadlines from zero to infinity and output lengths from one token
/// to 64, over both batching modes, three dispatch/admission pairs,
/// one or three pipelines and one or 50 requests. At one token every
/// active request retires at its first step. Every run must give an
/// honest report (see [`check_run`]) or a typed error: zero deadlines
/// are all missed, and deadline-aware dispatch rejects or sheds every
/// such request; deadlines no run can reach are all met.
#[test]
fn extreme_deadlines_and_output_lengths_give_honest_reports() {
    let secs = SimDuration::from_secs;
    let bimodal = |tight_fraction| DeadlineSpec::Bimodal {
        tight: SimDuration::ZERO,
        loose: secs(1e300),
        tight_fraction,
        seed: 5,
    };
    // (deadlines, every deadline is zero, no deadline can be missed).
    let deadlines = [
        (DeadlineSpec::Fixed(SimDuration::ZERO), true, false),
        (DeadlineSpec::Fixed(secs(1e-9)), false, false),
        (DeadlineSpec::Fixed(secs(1e300)), false, true),
        (DeadlineSpec::Fixed(SimDuration::INFINITY), false, true),
        (bimodal(1.0), true, false),
        (bimodal(0.0), false, true),
    ];
    let policies = [
        (
            SchedulerKind::DeadlineAware,
            AdmissionPolicy::DeadlineFeasible,
        ),
        (SchedulerKind::LeastFinishTime, AdmissionPolicy::AcceptAll),
        (
            SchedulerKind::JoinShortestQueue,
            AdmissionPolicy::QueueCap(1),
        ),
    ];
    let (helm4, helm8) = (small_server(4), small_server(8));
    let mixes: [&[(&Server, usize)]; 2] = [&[(&helm4, 1)], &[(&helm4, 2), (&helm8, 1)]];
    // One cache across the grid: each configuration calibrates once
    // per output length.
    let mut cache = CalibrationCache::new();
    for gen_len in [1usize, 2, 64] {
        let workload = WorkloadSpec::new(32, gen_len, 1);
        for (deadline, zero, unbounded) in deadlines {
            for continuous in [false, true] {
                for (scheduler, admission) in policies {
                    for groups in mixes {
                        for n in [1usize, 50] {
                            let spec = ClusterSpec::new(1)
                                .with_scheduler(scheduler)
                                .with_admission(admission)
                                .with_deadlines(deadline)
                                .with_continuous(continuous);
                            let case = format!(
                                "gen={gen_len} {deadline:?} continuous={continuous} \
                                 {scheduler:?} pipes={} n={n}",
                                groups.iter().map(|(_, c)| c).sum::<usize>()
                            );
                            let run = || {
                                let mut arrivals = PoissonArrivals::new(0.5, 11);
                                run_cluster_mix_cached(
                                    groups,
                                    &workload,
                                    &mut arrivals,
                                    n,
                                    spec,
                                    &mut cache,
                                )
                            };
                            let Ok(report) = check_run(&case, n, run) else {
                                continue;
                            };
                            if zero {
                                assert_eq!(report.met, 0, "{case}: a zero deadline was met");
                                if scheduler == SchedulerKind::DeadlineAware {
                                    assert_eq!(report.served, 0, "{case}: served past deadline");
                                }
                            }
                            if unbounded {
                                assert_eq!(report.expired, 0, "{case}: shed a request");
                                assert_eq!(report.slo_violations, 0, "{case}: missed");
                                assert_eq!(report.met, report.served, "{case}");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// λ = 5e-324, the smallest positive `f64`, draws arrival instants
/// past the largest finite one: they overflow to +∞ and could never
/// fire. The cluster engine returns `InvalidConfig` for such a rate
/// instead of a report that silently lost every request, and so does
/// `plan`, whose probes run on that engine.
#[test]
fn arrival_instants_past_f64_are_a_typed_error() {
    let lambda = 5e-324;
    let server = small_server(4);
    let workload = WorkloadSpec::paper_default();
    for continuous in [false, true] {
        for n in [1usize, 50] {
            let spec = ClusterSpec::new(2).with_continuous(continuous);
            let mut arrivals = PoissonArrivals::new(lambda, 11);
            assert_invalid_config(
                run_cluster(&server, &workload, &mut arrivals, n, spec),
                &format!("continuous={continuous} n={n}"),
            );
        }
    }
    let traffic = TrafficSpec::new(lambda, 40, 7);
    let space = PlanSpace::for_server(&server, &workload).expect("plan space");
    assert_invalid_config(
        plan(
            &server,
            &workload,
            &traffic,
            PlanTarget::attainment(0.8),
            &space,
            SearchBudget::default(),
        ),
        "plan",
    );
}

/// A batch size times a GPU batch count past `u32::MAX` used to wrap:
/// 65536 × 65536 built a server with an effective batch of 0, whose
/// offline report served nothing and whose cluster lost every
/// request. Every path that builds a server refuses it now, and the
/// largest product that fits still builds, for the batch check to
/// reject at run time.
#[test]
fn batch_products_past_u32_are_a_typed_error() {
    let model = ModelConfig::opt_1_3b();
    let memory = HostMemoryConfig::dram();
    let system = SystemConfig::paper_platform(memory.clone());
    let policy = Policy::paper_default(&model, memory.kind()).with_placement(PlacementKind::Helm);
    let workload = WorkloadSpec::new(32, 3, 1);
    let build = |batch: u32, gpu_batches: u32| {
        Server::new(
            system.clone(),
            model.clone(),
            policy
                .clone()
                .with_batch_size(batch)
                .with_gpu_batches(gpu_batches),
        )
    };

    // The offline path.
    for (batch, gpu_batches) in [(65536, 65536), (65536, 65537), (u32::MAX, 2), (2, u32::MAX)] {
        assert_invalid_config(
            build(batch, gpu_batches),
            &format!("{batch} x {gpu_batches}"),
        );
    }
    let widest = build(65537, 65535).expect("65537 x 65535 is u32::MAX");
    assert_eq!(widest.policy().effective_batch(), u32::MAX);
    assert!(matches!(
        widest.run(&workload),
        Err(HelmError::BatchTooLarge {
            requested: u32::MAX,
            ..
        })
    ));

    // The cluster path: `--mix` groups and plan templates are
    // reconfigured copies of one server.
    let base = build(1, 65536).expect("65536 fits");
    for placement in [
        PlacementKind::Helm,
        PlacementKind::AllCpu,
        PlacementKind::Baseline,
    ] {
        assert_invalid_config(
            base.reconfigured(placement, 65536),
            &format!("reconfigured {placement}"),
        );
    }

    // The planner: the HeLM and baseline templates run at the base
    // server's effective batch.
    let space = PlanSpace::for_server(&base, &workload).expect("plan space");
    assert_invalid_config(
        plan(
            &base,
            &workload,
            &TrafficSpec::new(1.0, 20, 7),
            PlanTarget::attainment(0.9),
            &space,
            SearchBudget::default(),
        ),
        "plan",
    );
}

/// A zero-capacity reservoir accepts (and discards) samples without
/// panicking, and reports `None` percentiles rather than fabricating
/// a number.
#[test]
fn zero_capacity_reservoir_degrades_honestly() {
    let rng = SimRng::from_seed_and_stream(7, "degenerate-reservoir");
    let mut r = Reservoir::new(0, rng);
    for x in 0..100 {
        r.add(f64::from(x));
    }
    assert_eq!(r.seen(), 100);
    assert!(r.samples().is_empty());
    assert_eq!(r.percentile(50.0), None);
    assert_eq!(r.percentile(99.0), None);
}
