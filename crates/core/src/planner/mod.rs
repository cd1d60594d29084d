//! SLO-aware capacity planning: the minimum-resource serving
//! configuration that meets an attainment target.
//!
//! The paper's conclusion asks for a system that "automatically
//! make\[s\] latency/throughput tradeoffs based on desired quality of
//! service requirements" (§VII). [`crate::autoplace`] answers half of
//! that — the best `{placement, batch}` for one replica — and
//! [`crate::online`] simulates the other half, a heterogeneous
//! cluster `{mix, scheduler, admission}` taken as a given. This
//! module closes the loop: given a traffic specification
//! ([`TrafficSpec`]: arrival rate, request volume, deadline mix) and
//! an SLO-attainment target ([`PlanTarget`]), [`plan`] searches the
//! joint space `{placement × batch × replica count per group × group
//! mix × scheduler × admission}` for the cheapest cluster — fewest
//! total replicas — whose simulated attainment clears the target.
//!
//! The joint lattice is thousands of candidates where autoplace's
//! grid was 43, so the search leans on three layers of work
//! avoidance:
//!
//! 1. **Analytical pruning** ([`attainment_bound`]): an optimistic
//!    M/G/k-style upper bound on attainment computed from the
//!    calibrated [`ServiceModel`]s alone — per-replica service-rate
//!    caps against the realized arrival/deadline sequence, plus a
//!    per-class feasibility floor. A mix whose *optimistic* bound
//!    misses the target cannot meet it in the DES either
//!    (bound-feasible ⊇ DES-feasible, the same soundness contract as
//!    `autoplace`'s prune layer), so all of its scheduler × admission
//!    variants are pruned without running a single simulation.
//! 2. **Calibration once per template**: each distinct
//!    `(placement, batch)` template is calibrated up front through one
//!    [`CalibrationCache`](crate::online::CalibrationCache), and every
//!    probe, confirmation, and traced replay runs its cluster straight
//!    from those calibrated models — two pipeline runs per template
//!    for the whole search instead of two per group per probe.
//! 3. **Deterministic, minimum-resource-first evaluation**: surviving
//!    candidates are probed best-bound-first, one at a time on the
//!    calling thread, with short capped-request DES runs
//!    ([`RecordMode::Aggregate`](crate::exec::RecordMode)). Replica
//!    counts are walked coarse-to-fine (cheapest level first), and the
//!    first probe-feasible candidate is verified with one full-length
//!    confirmation run before being returned; nothing after a
//!    confirmed candidate is probed.
//!
//! The budget ([`SearchBudget`]) and work accounting
//! ([`SearchStats`]) are shared with [`crate::autoplace`] — one
//! budget vocabulary for both searches. The planner honours
//! `max_evals`, checked before every probe; `threads` sizes only
//! autoplace's pool, because a probe pool never paid for itself here
//! (`bench_e2e` measured it at 0.97–0.99x on `plan-slo`).

mod bound;
mod engine;

pub use crate::autoplace::{SearchBudget, SearchStats};
pub use bound::attainment_bound;

use crate::error::HelmError;
use crate::exec::RecordMode;
use crate::online::{
    run_models, AdmissionPolicy, ClusterReport, ClusterSpec, DeadlineSpec, PoissonArrivals,
    SchedulerKind, ServiceModel,
};
use crate::placement::PlacementKind;
use crate::server::Server;
use crate::trace::Trace;
use workload::WorkloadSpec;

/// The offered traffic a plan must serve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Poisson arrival rate, requests per second of simulated time.
    pub lambda: f64,
    /// Requests in the full-length (confirmation) run; probes use a
    /// capped prefix of the same arrival sequence.
    pub num_requests: usize,
    /// Arrival-process seed. Arrivals and deadline draws are
    /// deterministic in it, which is what lets the analytical bound
    /// reason about the *realized* sequence instead of distribution
    /// tails.
    pub seed: u64,
    /// Per-request completion deadlines.
    pub deadlines: DeadlineSpec,
}

impl TrafficSpec {
    /// Deadline-free traffic at `lambda` req/s.
    pub fn new(lambda: f64, num_requests: usize, seed: u64) -> Self {
        TrafficSpec {
            lambda,
            num_requests,
            seed,
            deadlines: DeadlineSpec::None,
        }
    }

    /// Attaches a deadline specification.
    #[must_use]
    pub fn with_deadlines(mut self, deadlines: DeadlineSpec) -> Self {
        self.deadlines = deadlines;
        self
    }
}

/// The service-level objective a plan must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanTarget {
    /// Minimum SLO attainment (fraction of offered requests completed
    /// within their deadline), in `[0, 1]`.
    pub attainment: f64,
}

impl PlanTarget {
    /// A target attainment.
    ///
    /// # Panics
    ///
    /// Panics unless `attainment` is in `[0, 1]`.
    pub fn attainment(attainment: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&attainment),
            "attainment target must be in [0, 1]"
        );
        PlanTarget { attainment }
    }
}

/// One replica configuration the planner may deploy: a placement
/// policy and the batch size it serves at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupTemplate {
    /// Placement algorithm of this replica class.
    pub placement: PlacementKind,
    /// Serving batch size of this replica class.
    pub batch: u32,
}

impl GroupTemplate {
    /// `placement` at `batch`.
    pub fn new(placement: PlacementKind, batch: u32) -> Self {
        GroupTemplate { placement, batch }
    }
}

/// The candidate lattice one plan searches.
#[derive(Debug, Clone)]
pub struct PlanSpace {
    /// Replica configurations available to the mix. A candidate
    /// assigns each template a replica count (possibly zero).
    pub templates: Vec<GroupTemplate>,
    /// Cap on total replicas across all groups — the resource the
    /// planner minimizes.
    pub max_replicas: usize,
    /// Dispatch policies to consider.
    pub schedulers: Vec<SchedulerKind>,
    /// Admission policies to consider.
    pub admissions: Vec<AdmissionPolicy>,
    /// Serve with continuous (decode-step) batching.
    pub continuous: bool,
    /// Requests per screening probe (capped at the traffic's
    /// `num_requests`). Probes rank candidates; the winner is always
    /// verified with a full-length confirmation run.
    pub probe_requests: usize,
}

impl PlanSpace {
    /// The default lattice for `server`'s platform: a latency-tuned
    /// HeLM template at the policy's own batch, a throughput-tuned
    /// All-CPU template at the largest batch GPU memory allows (the
    /// quantity [`crate::autoplace::Objective::Throughput`] maximizes
    /// and the paper's §V-C derivation, reused here as the
    /// throughput corner of the mix), and the FlexGen baseline at the
    /// policy batch — under every scheduler, with accept-all and
    /// deadline-feasible admission, up to four replicas.
    ///
    /// # Errors
    ///
    /// Propagates placement validation from deriving the All-CPU
    /// template.
    pub fn for_server(server: &Server, workload: &WorkloadSpec) -> Result<PlanSpace, HelmError> {
        let batch = server.policy().effective_batch();
        let allcpu = server.reconfigured(PlacementKind::AllCpu, 1)?;
        let throughput_batch = allcpu.max_batch(workload).max(1);
        Ok(PlanSpace {
            templates: vec![
                GroupTemplate::new(PlacementKind::Helm, batch),
                GroupTemplate::new(PlacementKind::AllCpu, throughput_batch),
                GroupTemplate::new(PlacementKind::Baseline, batch),
            ],
            max_replicas: 4,
            schedulers: vec![
                SchedulerKind::JoinShortestQueue,
                SchedulerKind::LeastFinishTime,
                SchedulerKind::DeadlineAware,
            ],
            admissions: vec![
                AdmissionPolicy::AcceptAll,
                AdmissionPolicy::DeadlineFeasible,
            ],
            continuous: false,
            probe_requests: 200,
        })
    }

    /// Total candidate count of the lattice: mixes of up to
    /// `max_replicas` replicas over the templates, times the
    /// scheduler and admission variants.
    pub fn candidate_count(&self) -> usize {
        let variants = self.schedulers.len() * self.admissions.len();
        (1..=self.max_replicas)
            .map(|total| engine::mixes_of(total, self.templates.len()).len() * variants)
            .sum()
    }
}

/// One point of the lattice: a replica count per template plus the
/// cluster's dispatch and admission policies.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Replica count per template, aligned with
    /// [`PlanSpace::templates`].
    pub counts: Vec<usize>,
    /// Dispatch policy.
    pub scheduler: SchedulerKind,
    /// Admission policy.
    pub admission: AdmissionPolicy,
}

impl Candidate {
    /// Total replicas — the resource cost the planner minimizes.
    pub fn total_replicas(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// The outcome of one capacity-planning search.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Whether the chosen configuration met the target on the
    /// full-length confirmation run. `false` means the lattice cannot
    /// reach the target and `chosen` is the best-effort configuration
    /// (highest probe attainment, or highest analytical bound when
    /// everything was pruned).
    pub feasible: bool,
    /// The chosen configuration.
    pub chosen: Candidate,
    /// The chosen mix's deployed groups (templates with a nonzero
    /// replica count).
    pub groups: Vec<(GroupTemplate, usize)>,
    /// Attainment of the chosen candidate's screening probe.
    pub probe_attainment: f64,
    /// Attainment of the full-length confirmation run.
    pub attainment: f64,
    /// The confirmation run's full cluster report (audit ledger
    /// included when auditing is active).
    pub confirmed: ClusterReport,
    /// Work accounting: DES probes run, candidates pruned by the
    /// analytical bound, wall-clock of the whole search.
    pub stats: SearchStats,
    /// Size of the candidate lattice.
    pub candidates: usize,
    /// Full-length confirmation runs (the chosen one plus any
    /// probe-feasible candidates that failed confirmation).
    pub confirmations: usize,
    /// Calibration pipeline pairs actually run — one per distinct
    /// template, however many probes the search made.
    pub calibrations: u64,
    /// Wall-clock milliseconds spent inside full-length confirmation
    /// runs (a subset of `stats.wall_ms`). Run metadata, not
    /// simulation output: like `stats.wall_ms` it must be zeroed
    /// before any determinism fingerprint.
    pub confirm_wall_ms: f64,
    /// Requests per screening probe.
    pub probe_requests: usize,
    /// Critical-path attribution of the confirmation run, aggregated
    /// over every served request (a copy of
    /// `confirmed.attribution`, surfaced for report tooling).
    pub attribution: crate::trace::Attribution,
}

/// Finds the minimum-resource configuration in `space` meeting
/// `target` under `traffic`, by bound-pruned, calibrate-once
/// probe-then-confirm search (see the module docs). Apart from its
/// wall-clock fields the report is a pure function of its inputs;
/// `budget.threads` does not change it.
///
/// # Errors
///
/// Propagates placement/batch validation from building the template
/// servers and simulation errors from the probe and confirmation
/// runs. Returns [`HelmError::InvalidConfig`] when `space` has no
/// templates, no schedulers, no admissions, a zero replica cap, or a
/// zero probe size; or when the traffic's arrival rate is not finite
/// and positive or its request count is zero.
pub fn plan(
    server: &Server,
    workload: &WorkloadSpec,
    traffic: &TrafficSpec,
    target: PlanTarget,
    space: &PlanSpace,
    budget: SearchBudget,
) -> Result<PlanReport, HelmError> {
    if space.templates.is_empty() || space.schedulers.is_empty() || space.admissions.is_empty() {
        return Err(HelmError::InvalidConfig(
            "a plan space needs at least one template, scheduler, and admission policy",
        ));
    }
    if space.max_replicas < 1 {
        return Err(HelmError::InvalidConfig(
            "a plan needs at least one replica",
        ));
    }
    if space.probe_requests == 0 {
        return Err(HelmError::InvalidConfig(
            "a plan needs at least one probe request per candidate",
        ));
    }
    if !(traffic.lambda.is_finite() && traffic.lambda > 0.0) {
        return Err(HelmError::InvalidConfig(
            "a plan needs a finite, positive arrival rate",
        ));
    }
    if traffic.num_requests < 1 {
        return Err(HelmError::InvalidConfig("a plan needs traffic to serve"));
    }
    engine::PlanEngine::new(server, workload, traffic, target, space, budget).run()
}

/// Replays a finished plan's chosen configuration with span
/// collection on, returning the cluster report together with every
/// served request's span tree. The replay reruns the confirmation
/// simulation — same arrival seed, same policies, same record mode —
/// so its report is byte-identical to `report.confirmed` and the
/// spans describe exactly the run the plan was judged on.
///
/// # Errors
///
/// Propagates placement/batch validation from rebuilding the group
/// servers and simulation errors from the replay run.
pub fn replay_plan_traced(
    server: &Server,
    workload: &WorkloadSpec,
    traffic: &TrafficSpec,
    space: &PlanSpace,
    report: &PlanReport,
) -> Result<(ClusterReport, Trace), HelmError> {
    let groups = report
        .groups
        .iter()
        .map(|(t, count)| {
            let replica = server.reconfigured(t.placement, t.batch)?;
            Ok((ServiceModel::calibrate(&replica, workload)?, *count))
        })
        .collect::<Result<Vec<_>, HelmError>>()?;
    let mut trace = Trace::default();
    let confirmed = run_candidate(
        groups,
        &report.chosen,
        space,
        traffic,
        workload,
        traffic.num_requests,
        Some(&mut trace),
    )?;
    Ok((confirmed, trace))
}

/// The one cluster run behind every probe, confirmation, and traced
/// replay: `groups` (calibrated models with their nonzero replica
/// counts) under `candidate`'s dispatch and admission, serving the
/// first `num_requests` arrivals of `traffic` — arrivals restart from
/// the traffic seed, so the run is pure in its inputs.
fn run_candidate(
    groups: Vec<(ServiceModel, usize)>,
    candidate: &Candidate,
    space: &PlanSpace,
    traffic: &TrafficSpec,
    workload: &WorkloadSpec,
    num_requests: usize,
    trace: Option<&mut Trace>,
) -> Result<ClusterReport, HelmError> {
    let spec = ClusterSpec::new(1)
        .with_scheduler(candidate.scheduler)
        .with_admission(candidate.admission)
        .with_deadlines(traffic.deadlines)
        .with_continuous(space.continuous)
        .with_record(RecordMode::Aggregate);
    let mut arrivals = PoissonArrivals::new(traffic.lambda, traffic.seed);
    run_models(groups, workload, &mut arrivals, num_requests, spec, trace)
}
