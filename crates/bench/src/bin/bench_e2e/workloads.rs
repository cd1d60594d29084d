//! The six workloads: their inputs, one op each (untraced, traced and
//! single-threaded), the correctness check of an op's output, and the
//! side measurements the traced run adds.
//!
//! Every workload serves compressed OPT-175B on the Optane (NVDRAM)
//! platform of the paper, except `offline-grid`, which sweeps the
//! Table IV memories. The seed drives Poisson arrivals, deadline draws
//! and the planner's traffic; `offline-grid` and `autoplace` have no
//! randomness.

use std::time::Instant;

use helm_core::autoplace::{AutoPlacement, Objective};
use helm_core::exec::{run_pipeline_with, LayerCostTable, PipelineInputs, RecordMode};
use helm_core::metrics::{RunReport, StepTotals};
use helm_core::online::{
    run_cluster_mix, run_cluster_mix_cached, run_cluster_mix_traced, AdmissionPolicy,
    CalibrationCache, ClusterReport, ClusterSpec, DeadlineSpec, PoissonArrivals, SchedulerKind,
};
use helm_core::planner::{
    attainment_bound, plan, PlanReport, PlanSpace, PlanTarget, SearchBudget, TrafficSpec,
};
use helm_core::projection::{table_iv_configs, table_iv_policies};
use helm_core::trace::{validate_chrome_trace, ChromeTraceStats, Trace};
use helm_core::{HelmError, PlacementKind, Policy, Server, SystemConfig};
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use simcore::time::SimDuration;
use workload::WorkloadSpec;

use crate::check::{audit_clean, ensure, Counts, Digest, Verdict};
use crate::measure::{median, ms, us, MIN_TAIL};
use crate::spans::Recorder;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table IV grid served offline at two output lengths.
    OfflineGrid,
    /// A mixed cluster under run-to-completion batching.
    OnlineRtc,
    /// The same cluster under continuous batching with deadlines.
    OnlineSlo,
    /// One capacity-planner search.
    PlanSlo,
    /// One placement search.
    Autoplace,
    /// A traced cluster run exported and re-parsed as chrome-trace.
    TraceRoundtrip,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 6] = [
        Workload::OfflineGrid,
        Workload::OnlineRtc,
        Workload::OnlineSlo,
        Workload::PlanSlo,
        Workload::Autoplace,
        Workload::TraceRoundtrip,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineGrid => "offline-grid",
            Workload::OnlineRtc => "online-rtc",
            Workload::OnlineSlo => "online-slo",
            Workload::PlanSlo => "plan-slo",
            Workload::Autoplace => "autoplace",
            Workload::TraceRoundtrip => "trace-roundtrip",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the op is a search whose thread count can vary.
    pub fn is_search(self) -> bool {
        matches!(self, Workload::PlanSlo | Workload::Autoplace)
    }

    /// Median untraced op time on the machine the benchmark was tuned
    /// on (2 vCPUs, release build), in ms. It only sizes runs.
    fn reference_op_ms(self) -> f64 {
        match self {
            Workload::OfflineGrid => 34.0,
            Workload::OnlineRtc => 14.5,
            Workload::OnlineSlo => 25.5,
            Workload::PlanSlo => 110.0,
            Workload::Autoplace => 11.5,
            Workload::TraceRoundtrip => 85.0,
        }
    }

    /// Timed ops of each kind in a run whose timed phase takes about
    /// `seconds` at the reference op time. The count depends on the
    /// arguments only, never on the clock, so a faster or slower build
    /// runs exactly the same ops. Untraced runs time at least
    /// `10 * MIN_TAIL` ops, enough for a 90th percentile; traced runs a
    /// fifth as many of each kind, at least 20.
    pub fn timed_ops(self, seconds: f64, traced: bool) -> usize {
        // A float-to-int `as` saturates, so huge or NaN inputs are safe.
        let ops = (seconds * 1000.0 / self.reference_op_ms()).round() as usize;
        let ops = ops.max(10 * MIN_TAIL);
        if traced {
            (ops / 5).max(20)
        } else {
            ops
        }
    }
}

/// Problem size: the measured one, or the tiny one the smoke test
/// runs in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Test-only sizes: at most 200 requests, two output tokens.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Size {
    fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// `{HeLM b4 ×2, All-CPU b44 ×2}`: the latency- and throughput-tuned
/// replicas of the paper's two placements behind one dispatcher.
const MIX: [(PlacementKind, u32, usize); 2] =
    [(PlacementKind::Helm, 4, 2), (PlacementKind::AllCpu, 44, 2)];

/// Bimodal deadlines: 10% of requests must finish within 130 s, the
/// rest within 400 s.
fn bimodal(seed: u64) -> DeadlineSpec {
    DeadlineSpec::Bimodal {
        tight: SimDuration::from_secs_const(130.0),
        loose: SimDuration::from_secs_const(400.0),
        tight_fraction: 0.1,
        seed,
    }
}

/// Worker threads of the searches: two where the machine has them.
pub fn search_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The server `helmsim` builds by default with `--compress`: FlexGen
/// baseline placement at batch 1, OPT-175B on NVDRAM.
fn paper_server(placement: PlacementKind, batch: u32) -> Result<Server, HelmError> {
    let model = ModelConfig::opt_175b();
    let memory = HostMemoryConfig::nvdram();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(placement)
        .with_compression(true)
        .with_batch_size(batch);
    Server::new(SystemConfig::paper_platform(memory), model, policy)
}

/// Shape of every online and search workload (128 in, 21 out).
fn paper_shape() -> WorkloadSpec {
    WorkloadSpec::new(128, 21, 1)
}

/// A cluster run's inputs.
#[derive(Debug)]
pub struct Cluster {
    servers: Vec<(Server, usize)>,
    workload: WorkloadSpec,
    spec: ClusterSpec,
    lambda: f64,
    seed: u64,
    requests: usize,
}

impl Cluster {
    fn build(
        seed: u64,
        requests: usize,
        lambda: f64,
        spec: ClusterSpec,
    ) -> Result<Self, HelmError> {
        let base = paper_server(PlacementKind::Baseline, 1)?;
        let servers = MIX
            .iter()
            .map(|&(p, b, count)| Ok((base.reconfigured(p, b)?, count)))
            .collect::<Result<_, HelmError>>()?;
        Ok(Cluster {
            servers,
            workload: paper_shape(),
            spec: spec.with_record(RecordMode::Aggregate),
            lambda,
            seed,
            requests,
        })
    }

    fn groups(&self) -> Vec<(&Server, usize)> {
        self.servers.iter().map(|(s, n)| (s, *n)).collect()
    }

    fn arrivals(&self) -> PoissonArrivals {
        PoissonArrivals::new(self.lambda, self.seed)
    }

    /// Calibrates every group into `cache`, one span per call.
    fn calibrate(&self, cache: &mut CalibrationCache, rec: &mut Recorder) -> Result<(), HelmError> {
        for (server, _) in &self.servers {
            rec.span("online.calibrate.cold", |_| {
                cache.get_or_calibrate(server, &self.workload)
            })?;
        }
        Ok(())
    }

    fn warm_cache(&self) -> Result<CalibrationCache, HelmError> {
        let mut cache = CalibrationCache::new();
        for (server, _) in &self.servers {
            cache.get_or_calibrate(server, &self.workload)?;
        }
        Ok(cache)
    }
}

/// Traffic samples one `plan-slo` op plans for. Which candidates a
/// search probes depends on the sample (from 1 to 11 of them at the
/// default lattice), so one op plans many samples drawn from the seed
/// and its cost does not hinge on one draw.
const PLAN_SAMPLES: u64 = 32;

/// A capacity-planner search's inputs.
#[derive(Debug)]
pub struct Plan {
    server: Server,
    workload: WorkloadSpec,
    traffic: Vec<TrafficSpec>,
    space: PlanSpace,
}

/// The offline grid's inputs: every (platform, policy) cell, served at
/// each shape.
#[derive(Debug)]
pub struct Grid {
    model: ModelConfig,
    cells: Vec<(SystemConfig, Policy)>,
    shapes: Vec<WorkloadSpec>,
}

/// A workload's inputs, built once per run by the timed set-up.
#[derive(Debug)]
pub enum Inputs {
    /// `offline-grid`.
    Grid(Grid),
    /// `online-rtc`, `online-slo`.
    Online(Cluster),
    /// `plan-slo`.
    Plan(Plan),
    /// `autoplace`.
    Autoplace(Server, WorkloadSpec),
    /// `trace-roundtrip`.
    Trace(Cluster),
}

/// An op's raw output, checked after its time is taken.
#[derive(Debug)]
pub enum Output {
    /// One report per grid cell and shape.
    Grid(Vec<RunReport>),
    /// One cluster run.
    Cluster(ClusterReport),
    /// One plan per traffic sample.
    Plan(Vec<PlanReport>),
    /// One placement search.
    Autoplace(Box<AutoPlacement>),
    /// A traced cluster run and its chrome-trace round trip.
    Trace {
        /// The run's report.
        report: ClusterReport,
        /// Its span trees.
        trace: Trace,
        /// `Trace::validate` of the trees.
        tree: Result<(), String>,
        /// The exported JSON.
        json: String,
        /// `validate_chrome_trace` of the JSON.
        parsed: Result<ChromeTraceStats, String>,
    },
}

impl Inputs {
    /// Builds `workload`'s inputs.
    ///
    /// # Errors
    ///
    /// Propagates server and plan-space validation.
    pub fn build(workload: Workload, seed: u64, size: Size) -> Result<Inputs, HelmError> {
        Ok(match workload {
            Workload::OfflineGrid => {
                let model = ModelConfig::opt_175b();
                let mut cells = Vec::new();
                for (placement, batch) in table_iv_policies() {
                    for memory in table_iv_configs() {
                        let policy = Policy::paper_default(&model, memory.kind())
                            .with_placement(placement)
                            .with_compression(true)
                            .with_batch_size(batch);
                        cells.push((SystemConfig::paper_platform(memory), policy));
                    }
                }
                // §III-B's 128/21, where building the cost table costs
                // more than evaluating it, and 128/256, where evaluation
                // dominates.
                let shapes = size.pick(
                    vec![
                        WorkloadSpec::new(128, 21, 1),
                        WorkloadSpec::new(128, 256, 1),
                    ],
                    vec![WorkloadSpec::new(128, 2, 1)],
                );
                Inputs::Grid(Grid {
                    model,
                    cells,
                    shapes,
                })
            }
            Workload::OnlineRtc => Inputs::Online(Cluster::build(
                seed,
                size.pick(100_000, 200),
                0.6,
                ClusterSpec::new(1).with_scheduler(SchedulerKind::JoinShortestQueue),
            )?),
            // λ = 0.4 sits just past the knee, so requests are met,
            // violated, rejected and expired in one run.
            Workload::OnlineSlo => Inputs::Online(Cluster::build(
                seed,
                size.pick(50_000, 200),
                0.4,
                ClusterSpec::new(1)
                    .with_scheduler(SchedulerKind::DeadlineAware)
                    .with_continuous(true)
                    .with_admission(AdmissionPolicy::DeadlineFeasible)
                    .with_deadlines(bimodal(seed)),
            )?),
            Workload::PlanSlo => {
                let server = paper_server(PlacementKind::Helm, 4)?;
                let workload = paper_shape();
                let mut space = PlanSpace::for_server(&server, &workload)?;
                space.probe_requests = size.pick(space.probe_requests, 40);
                let traffic = (0..size.pick(PLAN_SAMPLES, 2))
                    .map(|i| {
                        let seed = seed.wrapping_mul(PLAN_SAMPLES).wrapping_add(i);
                        TrafficSpec::new(0.15, size.pick(600, 100), seed)
                            .with_deadlines(bimodal(seed))
                    })
                    .collect();
                Inputs::Plan(Plan {
                    server,
                    workload,
                    traffic,
                    space,
                })
            }
            Workload::Autoplace => Inputs::Autoplace(
                paper_server(PlacementKind::Baseline, 1)?,
                size.pick(paper_shape(), WorkloadSpec::new(128, 2, 1)),
            ),
            Workload::TraceRoundtrip => Inputs::Trace(Cluster::build(
                seed,
                size.pick(2_000, 50),
                0.6,
                ClusterSpec::new(1).with_scheduler(SchedulerKind::JoinShortestQueue),
            )?),
        })
    }

    /// Runs one op on `threads` search threads, recording spans into
    /// `rec` when it is on. Untraced, the op makes the calls a user of
    /// `helmsim` makes; traced, it makes the public calls those are
    /// built from, one span each.
    ///
    /// # Errors
    ///
    /// Whatever the library returns.
    pub fn op(&self, threads: usize, rec: &mut Recorder) -> Result<Output, HelmError> {
        let traced = rec.is_on();
        let budget = SearchBudget {
            threads,
            max_evals: 0,
        };
        match self {
            Inputs::Grid(g) if traced => {
                let mut reports = Vec::with_capacity(g.cells.len() * g.shapes.len());
                for shape in &g.shapes {
                    for (system, policy) in &g.cells {
                        // `Server::run_unchecked`, one public call at a
                        // time.
                        let server = rec.span("placement.server_new", |_| {
                            Server::new(system.clone(), g.model.clone(), policy.clone())
                        })?;
                        let placement =
                            rec.span("placement.effective", |_| server.effective_placement(shape));
                        let inputs = PipelineInputs {
                            system: server.system(),
                            model: server.model(),
                            policy: server.policy(),
                            placement: &placement,
                            workload: shape,
                        };
                        let table =
                            rec.span("exec.cost_table", |_| LayerCostTable::build(&inputs))?;
                        reports.push(rec.span("exec.evaluate", |_| {
                            run_pipeline_with(&inputs, &table, RecordMode::Full)
                        })?);
                    }
                }
                Ok(Output::Grid(reports))
            }
            Inputs::Grid(g) => {
                let mut reports = Vec::with_capacity(g.cells.len() * g.shapes.len());
                for shape in &g.shapes {
                    for (system, policy) in &g.cells {
                        let server = Server::new(system.clone(), g.model.clone(), policy.clone())?;
                        reports.push(server.run_unchecked(shape)?);
                    }
                }
                Ok(Output::Grid(reports))
            }
            Inputs::Online(c) if traced => {
                // `run_cluster_mix` split into its cold calibrations and
                // the engine run on the warmed cache.
                let mut cache = CalibrationCache::new();
                c.calibrate(&mut cache, rec)?;
                let report = rec.span("online.engine.run", |_| {
                    run_cluster_mix_cached(
                        &c.groups(),
                        &c.workload,
                        &mut c.arrivals(),
                        c.requests,
                        c.spec,
                        &mut cache,
                    )
                })?;
                Ok(Output::Cluster(report))
            }
            Inputs::Online(c) => Ok(Output::Cluster(run_cluster_mix(
                &c.groups(),
                &c.workload,
                &mut c.arrivals(),
                c.requests,
                c.spec,
            )?)),
            Inputs::Plan(p) => {
                let mut reports = Vec::with_capacity(p.traffic.len());
                for traffic in &p.traffic {
                    reports.push(rec.span("planner.plan", |_| {
                        plan(
                            &p.server,
                            &p.workload,
                            traffic,
                            PlanTarget::attainment(0.9),
                            &p.space,
                            budget,
                        )
                    })?);
                }
                Ok(Output::Plan(reports))
            }
            Inputs::Autoplace(server, workload) => {
                let found = rec.span("autoplace.search", |_| {
                    server.autoplace(workload, Objective::Latency, budget)
                })?;
                Ok(Output::Autoplace(Box::new(found)))
            }
            Inputs::Trace(c) => {
                // `serve --trace-out` then `trace-validate`. Traced, the
                // calibrations get spans of their own and the collect
                // runs on the warmed cache.
                let mut cache = CalibrationCache::new();
                if traced {
                    c.calibrate(&mut cache, rec)?;
                }
                let (report, trace) = rec.span("trace.collect", |_| {
                    run_cluster_mix_traced(
                        &c.groups(),
                        &c.workload,
                        &mut c.arrivals(),
                        c.requests,
                        c.spec,
                        &mut cache,
                    )
                })?;
                let tree = rec.span("trace.tree_check", |_| {
                    trace
                        .validate()
                        .map_err(|(id, e)| format!("request {id}: {e:?}"))
                });
                let json = rec.span("trace.export", |_| trace.to_chrome_json());
                let parsed = rec.span("trace.parse", |_| validate_chrome_trace(&json));
                Ok(Output::Trace {
                    report,
                    trace,
                    tree,
                    json,
                    parsed,
                })
            }
        }
    }

    /// Checks an op's output: conservation, exact attribution, clean
    /// audits, no `NaN`, valid span trees; returns its digest and
    /// counts. Wall-clock fields, audit ledgers (present only in debug
    /// builds) and per-step records are left out of the digest; the
    /// records are checked against the totals the digest covers.
    ///
    /// # Errors
    ///
    /// Describes the first check that failed.
    pub fn check(&self, out: Output) -> Result<Verdict, String> {
        let mut counts = Counts::default();
        let mut confirm_share = 0.0;
        let digest = match out {
            Output::Grid(mut reports) => {
                let mut d = Digest::default();
                for r in &mut reports {
                    counts.steps += r.records.len() as u64;
                    check_run(r)?;
                    d = d.debug(r);
                }
                d
            }
            Output::Cluster(mut report) => {
                check_cluster(&mut report, self.requests(), &mut counts)?;
                Digest::default().debug(&report)
            }
            Output::Plan(mut reports) => {
                let (mut confirm_ms, mut search_ms) = (0.0, 0.0);
                let mut d = Digest::default();
                for p in &mut reports {
                    let mut one = Counts::default();
                    check_cluster(&mut p.confirmed, self.requests(), &mut one)?;
                    ensure(p.attribution.is_exact(), || "inexact attribution".into())?;
                    counts.events += one.events;
                    counts.served += one.served;
                    counts.rejected += one.rejected;
                    counts.expired += one.expired;
                    counts.evaluated += p.stats.evaluated as u64;
                    counts.pruned += p.stats.pruned as u64;
                    counts.candidates += p.candidates as u64;
                    counts.confirmations += p.confirmations as u64;
                    counts.calibrations += p.calibrations;
                    confirm_ms += p.confirm_wall_ms;
                    search_ms += p.stats.wall_ms;
                    p.stats.wall_ms = 0.0;
                    p.confirm_wall_ms = 0.0;
                    d = d.debug(p);
                }
                if search_ms > 0.0 {
                    confirm_share = confirm_ms / search_ms;
                }
                d
            }
            Output::Autoplace(mut a) => {
                check_run(&mut a.report)?;
                counts.evaluated = a.stats.evaluated as u64;
                counts.pruned = a.stats.pruned as u64;
                a.stats.wall_ms = 0.0;
                Digest::default().debug(&a)
            }
            Output::Trace {
                mut report,
                trace,
                tree,
                json,
                parsed,
            } => {
                check_cluster(&mut report, self.requests(), &mut counts)?;
                tree?;
                let parsed = parsed?;
                counts.spans = trace.span_count() as u64;
                counts.json_bytes = json.len() as u64;
                ensure(parsed.events as u64 == counts.spans, || {
                    format!("{} events parsed, {} spans", parsed.events, counts.spans)
                })?;
                ensure(trace.requests.len() as u64 == report.served, || {
                    "one span tree per served request".into()
                })?;
                Digest::default().debug(&report).text(&json)
            }
        };
        Ok(Verdict {
            digest: digest.finish()?,
            counts,
            confirm_share,
        })
    }

    /// Requests offered per op (0 for the offline workloads).
    fn requests(&self) -> u64 {
        match self {
            Inputs::Online(c) | Inputs::Trace(c) => c.requests as u64,
            Inputs::Plan(p) => p.traffic.first().map_or(0, |t| t.num_requests as u64),
            Inputs::Grid(_) | Inputs::Autoplace(..) => 0,
        }
    }

    /// Side measurements of the traced run, taken after its ops:
    /// `(metric, median value)`.
    ///
    /// # Errors
    ///
    /// Whatever the library returns.
    pub fn probes(&self, reps: usize) -> Result<Vec<(&'static str, f64)>, String> {
        let err = |e: HelmError| e.to_string();
        let mut out = Vec::new();
        match self {
            Inputs::Online(c) | Inputs::Trace(c) => {
                let mut cache = c.warm_cache().map_err(err)?;
                let mut hits = Vec::new();
                for _ in 0..reps {
                    for (server, _) in &c.servers {
                        let t = Instant::now();
                        cache.get_or_calibrate(server, &c.workload).map_err(err)?;
                        hits.push(us(t.elapsed()));
                    }
                }
                out.push(("online.calibrate_hit_us", med(&hits)));
                if let Inputs::Trace(_) = self {
                    let engine = timed(reps, || {
                        run_cluster_mix_cached(
                            &c.groups(),
                            &c.workload,
                            &mut c.arrivals(),
                            c.requests,
                            c.spec,
                            &mut cache,
                        )
                    })
                    .map_err(err)?;
                    out.push(("trace.engine_ms", engine));
                }
            }
            Inputs::Plan(p) => {
                let space =
                    timed(reps, || PlanSpace::for_server(&p.server, &p.workload)).map_err(err)?;
                out.push(("planner.space_us", space * 1000.0));
                out.push(("online.calibrate_ms", p.calibrate_ms(reps).map_err(err)?));
                out.push(("planner.bound_us", p.bound_us().map_err(err)?));
            }
            Inputs::Grid(_) | Inputs::Autoplace(..) => {}
        }
        Ok(out)
    }
}

impl Plan {
    /// What `plan` spends on one of the cold calibrations it counts, in
    /// ms: the mean over the templates of the median time to
    /// reconfigure the server and calibrate it into a fresh cache, as
    /// `plan` does serially before it probes.
    fn calibrate_ms(&self, reps: usize) -> Result<f64, HelmError> {
        let mut sum = 0.0;
        for t in &self.space.templates {
            sum += timed(reps, || {
                let server = self.server.reconfigured(t.placement, t.batch)?;
                CalibrationCache::new().get_or_calibrate(&server, &self.workload)
            })?;
        }
        Ok(sum / self.space.templates.len().max(1) as f64)
    }

    /// Median time of one `attainment_bound` call over every mix of
    /// the lattice and every traffic sample, in microseconds.
    fn bound_us(&self) -> Result<f64, HelmError> {
        let mut cache = CalibrationCache::new();
        let mut models = Vec::new();
        for t in &self.space.templates {
            let server = self.server.reconfigured(t.placement, t.batch)?;
            models.push(cache.get_or_calibrate(&server, &self.workload)?);
        }
        let mut times = Vec::new();
        for traffic in &self.traffic {
            for counts in mixes(models.len(), self.space.max_replicas) {
                let groups: Vec<_> = models
                    .iter()
                    .zip(&counts)
                    .filter(|(_, &n)| n > 0)
                    .map(|(m, &n)| (m, n))
                    .collect();
                let t = Instant::now();
                std::hint::black_box(attainment_bound(&groups, traffic, self.space.continuous));
                times.push(us(t.elapsed()));
            }
        }
        Ok(med(&times))
    }
}

/// Replica counts per template for every mix of 1 to `max` replicas.
fn mixes(templates: usize, max: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut counts = vec![0; templates];
    loop {
        let total: usize = counts.iter().sum();
        if (1..=max).contains(&total) {
            out.push(counts.clone());
        }
        // Odometer over {0..=max}^templates.
        let Some(i) = counts.iter().position(|&c| c < max) else {
            return out;
        };
        counts[i] += 1;
        counts[..i].fill(0);
    }
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// Median milliseconds of `reps` calls of `f`.
fn timed<T, E>(reps: usize, mut f: impl FnMut() -> Result<T, E>) -> Result<f64, E> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f()?);
        times.push(ms(t.elapsed()));
    }
    Ok(med(&times))
}

/// Offline-report checks; drops the parts the digest leaves out.
fn check_run(r: &mut RunReport) -> Result<(), String> {
    ensure(r.attribution.is_exact(), || "inexact attribution".into())?;
    ensure(r.tokens_generated > 0, || "no tokens generated".into())?;
    if !r.records.is_empty() {
        ensure(
            r.records.len() == r.totals.steps && StepTotals::from_records(&r.records) == r.totals,
            || "step records disagree with their totals".into(),
        )?;
    }
    audit_clean(r.audit.as_ref())?;
    r.records = Vec::new();
    r.audit = None;
    Ok(())
}

/// Cluster-report checks (requests conserved overall and per
/// pipeline); drops the audit ledger.
fn check_cluster(r: &mut ClusterReport, requests: u64, counts: &mut Counts) -> Result<(), String> {
    ensure(r.offered() == requests, || {
        format!(
            "served {} + rejected {} + expired {} != {requests}",
            r.served, r.rejected, r.expired
        )
    })?;
    let per_pipe: u64 = r
        .per_pipeline
        .iter()
        .map(|p| p.served + p.rejected + p.expired)
        .sum();
    ensure(per_pipe == requests, || {
        "per-pipeline counts do not add up".into()
    })?;
    ensure(r.attribution.is_exact(), || "inexact attribution".into())?;
    audit_clean(r.audit.as_ref())?;
    r.audit = None;
    counts.events = r.events;
    counts.served = r.served;
    counts.rejected = r.rejected;
    counts.expired = r.expired;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn op_counts_scale_with_seconds_and_have_floors() {
        for w in Workload::ALL {
            let ops = w.timed_ops(12.0, false);
            assert!(ops >= 100, "{}", w.name());
            assert_eq!(w.timed_ops(12.0, true), (ops / 5).max(20));
            assert_eq!(w.timed_ops(0.0, false), 100);
            assert_eq!(w.timed_ops(0.0, true), 20);
        }
        // 29 s at 14.5 ms per op.
        assert_eq!(Workload::OnlineRtc.timed_ops(29.0, false), 2000);
    }

    #[test]
    fn mixes_cover_the_lattice() {
        // Mixes of 1..=4 replicas over 3 templates: 3 + 6 + 10 + 15.
        let all = mixes(3, 4);
        assert_eq!(all.len(), 34);
        assert!(all
            .iter()
            .all(|m| (1..=4).contains(&m.iter().sum::<usize>())));
        assert!(all.contains(&vec![0, 4, 0]) && all.contains(&vec![1, 1, 1]));
    }
}
