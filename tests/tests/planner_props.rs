//! Properties of the capacity planner: soundness of the analytical
//! attainment bound (bound-feasible ⊇ DES-feasible over random
//! traffic, mixes, schedulers, and admission policies), determinism
//! of the search whatever `SearchBudget::threads` says, and
//! minimum-resource correctness of the chosen configuration.

use helm_core::exec::RecordMode;
use helm_core::online::{
    run_cluster_mix_cached, AdmissionPolicy, CalibrationCache, ClusterSpec, DeadlineSpec,
    PoissonArrivals, SchedulerKind, ServiceModel,
};
use helm_core::placement::PlacementKind;
use helm_core::planner::{
    attainment_bound, plan, replay_plan_traced, GroupTemplate, PlanReport, PlanSpace, PlanTarget,
    SearchBudget, TrafficSpec,
};
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use proptest::prelude::*;
use simcore::time::SimDuration;
use workload::WorkloadSpec;

/// The template lattice every test shares: a latency-, a throughput-,
/// and a baseline-shaped replica class of OPT-1.3B on DRAM (small
/// enough that calibration is cheap inside proptest).
const TEMPLATES: [(PlacementKind, u32); 3] = [
    (PlacementKind::Helm, 2),
    (PlacementKind::AllCpu, 4),
    (PlacementKind::Baseline, 1),
];

fn server(placement: PlacementKind, batch: u32) -> Server {
    let model = ModelConfig::opt_1_3b();
    let memory = HostMemoryConfig::dram();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(placement)
        .with_batch_size(batch);
    Server::new(SystemConfig::paper_platform(memory), model, policy).unwrap()
}

fn deadline_strategy() -> impl Strategy<Value = DeadlineSpec> {
    (
        0u8..3,
        100.0..60_000.0f64,
        10_000.0..120_000.0f64,
        0.0..1.0f64,
        0u64..1_000,
    )
        .prop_map(
            |(select, tight_ms, loose_ms, tight_fraction, seed)| match select {
                0 => DeadlineSpec::None,
                1 => DeadlineSpec::Fixed(SimDuration::from_millis(tight_ms)),
                _ => DeadlineSpec::Bimodal {
                    tight: SimDuration::from_millis(tight_ms),
                    loose: SimDuration::from_millis(loose_ms),
                    tight_fraction,
                    seed,
                },
            },
        )
}

/// Debug-renders a plan report with the wall clocks zeroed — the only
/// legitimately nondeterministic fields — so equality of the strings
/// is bit-identity of everything else (floats print as shortest
/// round-trip).
fn fingerprint(report: &PlanReport) -> String {
    let mut clone = report.clone();
    clone.stats.wall_ms = 0.0;
    clone.confirm_wall_ms = 0.0;
    format!("{clone:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Soundness of the pruning bound: no scheduler, admission
    /// policy, batching mode, or mix can push the DES's attainment
    /// above [`attainment_bound`] for the same realized traffic — the
    /// property that makes pruning safe.
    #[test]
    fn bound_never_undercuts_the_des(
        lambda in 0.05f64..2.0,
        deadlines in deadline_strategy(),
        raw_counts in (0usize..=2, 0usize..=2, 0usize..=2),
        scheduler_sel in 0u8..4,
        admission_sel in 0u8..3,
        queue_cap in 1usize..=3,
        continuous in any::<bool>(),
        num_requests in 10usize..=40,
        seed in 0u64..100_000,
    ) {
        // An all-zero draw has no cluster to simulate; give it the
        // cheapest nonempty shape instead of discarding the case.
        let counts = match raw_counts {
            (0, 0, 0) => [0, 0, 1],
            (a, b, c) => [a, b, c],
        };
        let workload = WorkloadSpec::new(32, 3, 1);
        let servers: Vec<Server> = TEMPLATES.iter().map(|&(p, b)| server(p, b)).collect();
        let mut cache = CalibrationCache::new();
        let models: Vec<ServiceModel> = servers
            .iter()
            .map(|s| cache.get_or_calibrate(s, &workload).unwrap())
            .collect();
        let scheduler = [
            SchedulerKind::RoundRobin,
            SchedulerKind::JoinShortestQueue,
            SchedulerKind::LeastFinishTime,
            SchedulerKind::DeadlineAware,
        ][scheduler_sel as usize];
        let admission = match admission_sel {
            0 => AdmissionPolicy::AcceptAll,
            1 => AdmissionPolicy::QueueCap(queue_cap),
            _ => AdmissionPolicy::DeadlineFeasible,
        };
        let groups: Vec<(&Server, usize)> = servers
            .iter()
            .zip(counts)
            .filter(|(_, c)| *c > 0)
            .collect();
        let spec = ClusterSpec::new(1)
            .with_scheduler(scheduler)
            .with_admission(admission)
            .with_deadlines(deadlines)
            .with_continuous(continuous)
            .with_record(RecordMode::Aggregate);
        let mut arrivals = PoissonArrivals::new(lambda, seed);
        let report = run_cluster_mix_cached(
            &groups, &workload, &mut arrivals, num_requests, spec, &mut cache,
        ).unwrap();
        let traffic = TrafficSpec::new(lambda, num_requests, seed).with_deadlines(deadlines);
        let model_groups: Vec<(&ServiceModel, usize)> =
            models.iter().zip(counts).collect();
        let bound = attainment_bound(&model_groups, &traffic, continuous);
        prop_assert!(
            report.slo_attainment() <= bound + 1e-9,
            "DES attainment {} exceeds the analytical bound {bound} \
             (scheduler {scheduler}, admission {admission}, continuous {continuous}, \
             counts {counts:?})",
            report.slo_attainment(),
        );
    }

    /// The planner's full report — chosen configuration, confirmation
    /// run, search statistics — is bit-identical across repeated runs
    /// and whatever `SearchBudget::threads` asks for (callers such as
    /// the end-to-end benchmark rely on `threads` never changing a
    /// plan).
    #[test]
    fn plan_is_thread_deterministic(
        lambda in 0.1f64..1.0,
        slo_ms in 1_000.0..30_000.0f64,
        seed in 0u64..10_000,
    ) {
        let workload = WorkloadSpec::new(32, 3, 1);
        let base = server(PlacementKind::Baseline, 1);
        let space = PlanSpace {
            templates: TEMPLATES
                .iter()
                .map(|&(p, b)| GroupTemplate::new(p, b))
                .collect(),
            max_replicas: 2,
            schedulers: vec![SchedulerKind::JoinShortestQueue, SchedulerKind::DeadlineAware],
            admissions: vec![AdmissionPolicy::AcceptAll, AdmissionPolicy::DeadlineFeasible],
            continuous: false,
            probe_requests: 8,
        };
        let traffic = TrafficSpec::new(lambda, 24, seed)
            .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_millis(slo_ms)));
        let target = PlanTarget::attainment(0.8);
        let budget = |threads| SearchBudget { threads, max_evals: 0 };
        let reference = fingerprint(
            &plan(&base, &workload, &traffic, target, &space, budget(1)).unwrap(),
        );
        let repeat = fingerprint(
            &plan(&base, &workload, &traffic, target, &space, budget(1)).unwrap(),
        );
        prop_assert_eq!(&repeat, &reference, "serial planner diverged across runs");
        for threads in [2usize, 4] {
            let parallel = fingerprint(
                &plan(&base, &workload, &traffic, target, &space, budget(threads)).unwrap(),
            );
            prop_assert_eq!(&parallel, &reference, "planner diverged at {} threads", threads);
        }
    }
}

/// A generously feasible scenario: the planner must return the
/// cheapest cluster (one replica), confirm it over the full traffic,
/// and calibrate each template exactly once for the whole search.
#[test]
fn planner_finds_minimal_feasible_cluster() {
    let workload = WorkloadSpec::new(32, 3, 1);
    let base = server(PlacementKind::Baseline, 1);
    let space = PlanSpace {
        templates: TEMPLATES
            .iter()
            .map(|&(p, b)| GroupTemplate::new(p, b))
            .collect(),
        max_replicas: 3,
        schedulers: vec![
            SchedulerKind::JoinShortestQueue,
            SchedulerKind::LeastFinishTime,
        ],
        admissions: vec![AdmissionPolicy::AcceptAll],
        continuous: false,
        probe_requests: 10,
    };
    let traffic = TrafficSpec::new(0.2, 30, 7)
        .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_secs(120.0)));
    let report = plan(
        &base,
        &workload,
        &traffic,
        PlanTarget::attainment(0.9),
        &space,
        SearchBudget::default(),
    )
    .unwrap();
    assert!(report.feasible);
    assert!(report.attainment >= 0.9);
    assert_eq!(
        report.chosen.total_replicas(),
        1,
        "a single replica serves 0.2 req/s under a 120 s SLO; the planner must not overbuy"
    );
    assert_eq!(
        report.calibrations, 3,
        "one calibration per distinct template, shared across every probe"
    );
    assert_eq!(report.groups.len(), 1);
    assert!(report.stats.evaluated >= 1);
}

/// The traced replay reruns the judged confirmation: its report is
/// byte-identical to `PlanReport::confirmed`, with one span tree per
/// served request.
#[test]
fn traced_replay_reproduces_the_confirmation_run() {
    let workload = WorkloadSpec::new(32, 3, 1);
    let base = server(PlacementKind::Baseline, 1);
    let space = PlanSpace {
        templates: TEMPLATES
            .iter()
            .map(|&(p, b)| GroupTemplate::new(p, b))
            .collect(),
        max_replicas: 2,
        schedulers: vec![
            SchedulerKind::JoinShortestQueue,
            SchedulerKind::DeadlineAware,
        ],
        admissions: vec![AdmissionPolicy::AcceptAll],
        continuous: true,
        probe_requests: 8,
    };
    let traffic = TrafficSpec::new(0.5, 24, 3)
        .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_secs(20.0)));
    let report = plan(
        &base,
        &workload,
        &traffic,
        PlanTarget::attainment(0.8),
        &space,
        SearchBudget::default(),
    )
    .unwrap();
    let (replayed, trace) =
        replay_plan_traced(&base, &workload, &traffic, &space, &report).unwrap();
    assert_eq!(format!("{replayed:?}"), format!("{:?}", report.confirmed));
    assert_eq!(trace.requests.len() as u64, replayed.served);
    assert!(trace.validate().is_ok());
}

/// A deadline no replica can physically meet: the bound prunes the
/// entire lattice without one DES probe, and the planner still
/// returns an honest best-effort report (single fallback probe, full
/// confirmation, `feasible: false`) instead of erroring.
#[test]
fn plan_survives_unreachable_targets() {
    let workload = WorkloadSpec::new(32, 3, 1);
    let base = server(PlacementKind::Baseline, 1);
    let space = PlanSpace {
        templates: TEMPLATES
            .iter()
            .map(|&(p, b)| GroupTemplate::new(p, b))
            .collect(),
        max_replicas: 2,
        schedulers: vec![SchedulerKind::JoinShortestQueue],
        admissions: vec![AdmissionPolicy::AcceptAll],
        continuous: false,
        probe_requests: 6,
    };
    let traffic = TrafficSpec::new(0.5, 20, 11)
        .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_millis(1.0)));
    let report = plan(
        &base,
        &workload,
        &traffic,
        PlanTarget::attainment(0.9),
        &space,
        SearchBudget {
            threads: 1,
            max_evals: 0,
        },
    )
    .unwrap();
    assert!(!report.feasible);
    assert!(report.attainment < 0.9);
    assert_eq!(
        report.stats.pruned, report.candidates,
        "a 1 ms deadline is below any replica's minimum service time; \
         the bound must prune every candidate analytically"
    );
    assert_eq!(
        report.stats.evaluated, 1,
        "single best-bound fallback probe"
    );
    assert_eq!(report.confirmations, 1);
    assert!(!report.chosen.counts.is_empty());
}
