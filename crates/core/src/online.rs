//! Online (request-level) serving simulation.
//!
//! The paper evaluates steady-state batches; its conclusion frames
//! the real deployment question — "automatically make
//! latency/throughput tradeoffs based on desired quality of service
//! requirements" (§VII). This module provides the missing serving
//! layer: requests arrive continuously (Poisson), queue, and are
//! ground through the pipeline in batches of at most the policy's
//! batch size. Per-request queueing delay and end-to-end latency then
//! expose the QoS consequences of each placement policy: a bigger
//! batch (All-CPU) sustains higher arrival rates, a balanced pipeline
//! (HeLM) serves each batch faster.
//!
//! Two serving granularities are modelled:
//!
//! * **Run-to-completion** ([`run_online`], and [`run_cluster`] with
//!   [`ClusterSpec::continuous`] off): FlexGen-style static batches —
//!   whoever is queued when the pipeline frees up is ground through
//!   the full prompt+generate pass together.
//! * **Continuous batching** ([`ClusterSpec::continuous`]): Orca-style
//!   iteration-level scheduling — waiting requests are admitted at
//!   decode-step boundaries, so a newcomer no longer waits out the
//!   whole in-flight batch. Service times come from the same
//!   [`ServiceModel`], split into per-batch prefill and per-step
//!   decode costs calibrated from two pipeline runs.
//!
//! [`run_cluster`] generalizes both to `N` identical pipelines fed by
//! a pluggable dispatcher ([`SchedulerKind`]); [`run_cluster_mix`]
//! generalizes further to a **heterogeneous** cluster — each replica
//! group carries its own [`Server`]-derived [`ServiceModel`] (e.g. a
//! latency-tuned HeLM batch-4 replica next to a throughput-tuned
//! All-CPU batch-44 replica), calibrated once per distinct
//! configuration. On top of dispatch, an [`AdmissionPolicy`] can
//! reject requests at arrival and a [`DeadlineSpec`] attaches
//! per-request completion deadlines, turning the cluster into the QoS
//! engine the paper's conclusion asks for: [`ClusterReport`] then
//! separates goodput (tokens from SLO-met requests) from raw
//! throughput and counts rejections, expiries, and SLO violations.
//!
//! The [`simaudit`] conservation auditor is wired through the serving
//! path: every arrival is ledgered against its pipeline, every
//! completion or abandonment (rejection, expiry) balances the ledger
//! — `enqueued == completed + abandoned` holds per pipeline — and
//! per-pipeline busy time is checked against the cluster makespan
//! instead of being silently clamped.

use crate::error::HelmError;
use crate::exec::RecordMode;
use crate::server::Server;
use crate::trace::{Attribution, RequestTrace, Trace};
use simaudit::{AuditReport, Auditor};
use simcore::queue::{EventQueue, SimError};
use simcore::rng::SimRng;
use simcore::stats::{Accumulator, Reservoir, SeriesStats};
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{time_ticks, TraceSpan};
use std::cmp::Reverse;
use std::collections::VecDeque;
use workload::WorkloadSpec;

/// A Poisson arrival process.
///
/// The clock is part of the process state: successive [`take`] calls
/// continue where the previous one stopped, so arrival instants are
/// strictly increasing across calls.
///
/// [`take`]: PoissonArrivals::take
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rate_per_s: f64,
    rng: SimRng,
    t: f64,
}

impl PoissonArrivals {
    /// Arrivals at `rate_per_s` requests/second, deterministic in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is finite and positive.
    pub fn new(rate_per_s: f64, seed: u64) -> Self {
        assert!(
            rate_per_s.is_finite() && rate_per_s > 0.0,
            "invalid arrival rate"
        );
        PoissonArrivals {
            rate_per_s,
            rng: SimRng::from_seed_and_stream(seed, "poisson-arrivals"),
            t: 0.0,
        }
    }

    /// The next arrival instant, advancing the process clock by one
    /// exponential gap. [`take`] is this in a loop, so mixing the two
    /// draws one continuous process.
    ///
    /// [`take`]: PoissonArrivals::take
    pub fn next_arrival(&mut self) -> SimTime {
        let u = self.rng.next_f64().max(f64::MIN_POSITIVE);
        self.t += -u.ln() / self.rate_per_s;
        SimTime::from_secs(self.t)
    }

    /// The next `n` arrival instants.
    ///
    /// The process resumes from the last drawn instant rather than
    /// restarting at zero, so `take(2)` twice draws the same four
    /// arrivals as `take(4)` once.
    pub fn take(&mut self, n: usize) -> Vec<SimTime> {
        (0..n).map(|_| self.next_arrival()).collect()
    }
}

/// Per-batch service times calibrated from two pipeline runs.
///
/// The pipeline is run once at batch 1 and once at the policy batch;
/// every other batch size is linearly interpolated between the two
/// (decode is batch-flat on an out-of-core pipeline, prefill grows
/// with batch). Beyond the run-to-completion total the model keeps
/// the prefill/decode split — time-to-first-token and mean
/// time-between-tokens at each calibration point — which is what
/// continuous batching needs to price a single decode step.
///
/// Queries outside the calibrated range are clamped, never
/// extrapolated: batch 0 prices as batch 1 (a degenerate batch still
/// pays the single-request cost) and batches beyond
/// [`ServiceModel::max_batch`] price as the cap.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    max_batch: u32,
    gen_len: usize,
    /// Batch-1 / batch-max run-to-completion totals, seconds.
    t1: f64,
    tn: f64,
    /// Batch-1 / batch-max time-to-first-token, seconds.
    ttft1: f64,
    ttftn: f64,
    /// Batch-1 / batch-max mean decode-step time, seconds.
    tbt1: f64,
    tbtn: f64,
    /// Batch-1 / batch-max transfer-bound fraction of the calibration
    /// run, from the pipeline's exact critical-path attribution.
    xfer1: f64,
    xfern: f64,
}

impl ServiceModel {
    /// Calibrates the model by running `server`'s pipeline at batch 1
    /// and at the policy's full batch.
    ///
    /// Both points run on the server's own placement: the batch-1
    /// point changes only the policy's batch, which
    /// [`crate::placement::ModelPlacement::compute`] never reads, so
    /// no second [`Server`] is built. HeLM's capacity demotion is
    /// decided again at batch 1, so a replica demoted at its full
    /// batch still calibrates its batch-1 point undemoted.
    ///
    /// # Errors
    ///
    /// Propagates validation and tier errors from the underlying
    /// [`Server`] runs.
    pub fn calibrate(server: &Server, workload: &WorkloadSpec) -> Result<ServiceModel, HelmError> {
        let max_batch = server.policy().effective_batch();
        // Calibration reads only aggregates (totals, TTFT, mean TBT),
        // so both runs skip per-step record materialization.
        let full = server.run_aggregate(workload)?;
        let single = if max_batch > 1 {
            server.run_aggregate_single(workload)?
        } else {
            full.clone()
        };
        Ok(ServiceModel {
            max_batch,
            gen_len: workload.gen_len,
            t1: single.total_time.as_secs(),
            tn: full.total_time.as_secs(),
            ttft1: single.ttft.as_secs(),
            ttftn: full.ttft.as_secs(),
            tbt1: single.mean_tbt().as_secs(),
            tbtn: full.mean_tbt().as_secs(),
            xfer1: single.attribution.transfer_fraction(),
            xfern: full.attribution.transfer_fraction(),
        })
    }

    /// The batch cap this model was calibrated for.
    pub fn max_batch(&self) -> u32 {
        self.max_batch
    }

    /// Output tokens per request in the calibration workload.
    pub fn gen_len(&self) -> usize {
        self.gen_len
    }

    fn lerp(&self, batch: u32, lo: f64, hi: f64) -> f64 {
        // Clamp into the calibrated range. The seed code computed
        // `batch - 1` unguarded — a `u32` underflow for batch 0
        // (panic in debug, wraparound garbage in release) — and
        // silently extrapolated past `max_batch`.
        let b = batch.clamp(1, self.max_batch.max(1));
        let frac = f64::from(b - 1) / f64::from(self.max_batch - 1);
        lo + frac * (hi - lo)
    }

    /// Run-to-completion service time for a batch of `batch`
    /// (clamped into the calibrated range `1..=max_batch`).
    pub fn total(&self, batch: u32) -> SimDuration {
        if self.max_batch <= 1 {
            return SimDuration::from_secs(self.tn);
        }
        SimDuration::from_secs(self.lerp(batch, self.t1, self.tn))
    }

    /// Prefill time for `batch` prompts entering together (their
    /// first output token is produced by this pass; the batch is
    /// clamped into the calibrated range).
    pub fn prefill(&self, batch: u32) -> SimDuration {
        if self.max_batch <= 1 {
            return SimDuration::from_secs(self.ttftn);
        }
        SimDuration::from_secs(self.lerp(batch, self.ttft1, self.ttftn))
    }

    /// One decode step over an active set of `batch` requests (one
    /// output token each; the batch is clamped into the calibrated
    /// range).
    pub fn decode_step(&self, batch: u32) -> SimDuration {
        if self.max_batch <= 1 {
            return SimDuration::from_secs(self.tbtn);
        }
        SimDuration::from_secs(self.lerp(batch, self.tbt1, self.tbtn))
    }

    /// Transfer-bound fraction of a batch's service time, lerped
    /// between the two calibration runs' exact pipeline attributions
    /// — how cluster-level service time is split into compute- and
    /// transfer-bound buckets.
    pub fn transfer_share(&self, batch: u32) -> f64 {
        if self.max_batch <= 1 {
            return self.xfern;
        }
        self.lerp(batch, self.xfer1, self.xfern)
    }
}

/// A shared memo for [`ServiceModel::calibrate`].
///
/// Calibration costs two pipeline runs per distinct replica
/// configuration. Repeated cluster runs over a handful of
/// configurations (a λ sweep, the capacity planner's template
/// calibration) would otherwise re-pay the same two runs every time.
/// The cache keys on everything calibration reads (platform, model,
/// policy, workload) and hands back the memoized model on a hit;
/// [`run_cluster_mix_cached`] threads one cache through repeated
/// cluster runs, and [`run_cluster_mix`] is the fresh-cache special
/// case (which still dedupes identical groups *within* one call).
///
/// The key is the `Debug` rendering of the configuration tuple.
/// Every field that feeds calibration derives `Debug` with
/// shortest-round-trip float formatting, so two configurations
/// collide only when they are value-identical — exactly when their
/// calibrated models are bit-identical too.
#[derive(Debug, Clone, Default)]
pub struct CalibrationCache {
    models: std::collections::BTreeMap<String, ServiceModel>,
    calibrations: u64,
}

impl CalibrationCache {
    /// An empty cache.
    pub fn new() -> Self {
        CalibrationCache::default()
    }

    fn key(server: &Server, workload: &WorkloadSpec) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            server.system(),
            server.model(),
            server.policy(),
            workload
        )
    }

    /// The calibrated model for `server` under `workload`, running
    /// the two calibration pipelines only on a cache miss.
    ///
    /// # Errors
    ///
    /// Propagates calibration errors from [`ServiceModel::calibrate`]
    /// (failed calibrations are not cached).
    pub fn get_or_calibrate(
        &mut self,
        server: &Server,
        workload: &WorkloadSpec,
    ) -> Result<ServiceModel, HelmError> {
        let key = CalibrationCache::key(server, workload);
        if let Some(model) = self.models.get(&key) {
            return Ok(model.clone());
        }
        let model = ServiceModel::calibrate(server, workload)?;
        self.calibrations += 1;
        self.models.insert(key, model.clone());
        Ok(model)
    }

    /// How many calibrations actually ran (cache misses). Repeated
    /// mixes over the same configurations leave this at the number of
    /// *distinct* configurations — the regression the cache exists to
    /// prevent is this counter scaling with the number of runs.
    pub fn calibrations(&self) -> u64 {
        self.calibrations
    }

    /// Number of distinct configurations currently cached.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// How a cluster spreads arriving requests over its pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Arrival `i` goes to pipeline `i mod N`, load-blind.
    RoundRobin,
    /// Each arrival joins the pipeline with the fewest queued plus
    /// in-flight requests (ties broken by lowest index).
    JoinShortestQueue,
    /// Each arrival joins the pipeline whose *modeled* completion of
    /// this request is earliest, priced with that replica's own
    /// [`ServiceModel`] — the dispatcher that makes a heterogeneous
    /// mix useful: small-batch replicas win when their queue is
    /// short, big-batch replicas absorb backlog because one more
    /// request rarely starts a new batch (ties broken by lowest
    /// index).
    LeastFinishTime,
    /// Deadline-aware dispatch and queueing. Dispatch is *best-fit*:
    /// a deadlined request goes to the **slowest replica
    /// configuration** whose modeled finish still meets its deadline
    /// (load-balanced by least finish time within that
    /// configuration) — loose-deadline traffic soaks into the
    /// big-batch replicas, preserving the fast small-batch replicas
    /// for requests only they can serve in time. Requests with no
    /// deadline, or with no feasible replica, fall back to
    /// least-finish-time. Within each pipeline, queues are kept in
    /// earliest-deadline-first order (requests without a deadline
    /// sort last), and at batch/step admission a request that can no
    /// longer meet its deadline even if served alone immediately is
    /// shed as expired instead of wasting service on it.
    DeadlineAware,
}

impl SchedulerKind {
    /// Canonical CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "rr",
            SchedulerKind::JoinShortestQueue => "jsq",
            SchedulerKind::LeastFinishTime => "lft",
            SchedulerKind::DeadlineAware => "edf",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SchedulerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "rr" | "round-robin" => Ok(SchedulerKind::RoundRobin),
            "jsq" | "join-shortest-queue" => Ok(SchedulerKind::JoinShortestQueue),
            "lft" | "least-finish-time" => Ok(SchedulerKind::LeastFinishTime),
            "edf" | "deadline-aware" => Ok(SchedulerKind::DeadlineAware),
            other => Err(format!(
                "unknown scheduler '{other}' (expected rr, jsq, lft, or edf)"
            )),
        }
    }
}

/// Whether an arriving request is accepted into its dispatched
/// pipeline's queue or rejected on the spot.
///
/// A rejected request is ledgered as enqueued-then-abandoned on the
/// pipeline the scheduler picked for it, so the per-pipeline
/// conservation invariant `enqueued == completed + abandoned` keeps
/// holding with admission control on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Every request is accepted (the pre-admission-control
    /// behaviour).
    AcceptAll,
    /// Reject when the dispatched pipeline already holds this many
    /// requests (queued + in-flight + active).
    QueueCap(usize),
    /// Reject a deadlined request whose modeled completion on the
    /// dispatched pipeline — current backlog drained in batches,
    /// priced with that replica's [`ServiceModel`] — would land past
    /// its deadline. Requests without a deadline are always accepted.
    ///
    /// The check is against the pipeline the scheduler picked; under
    /// [`SchedulerKind::LeastFinishTime`] / [`SchedulerKind::DeadlineAware`]
    /// that is the earliest-finishing replica, so rejection means no
    /// replica could make the deadline.
    DeadlineFeasible,
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::AcceptAll => f.write_str("accept-all"),
            AdmissionPolicy::QueueCap(n) => write!(f, "cap:{n}"),
            AdmissionPolicy::DeadlineFeasible => f.write_str("deadline"),
        }
    }
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if let Some(n) = s.strip_prefix("cap:") {
            return n
                .parse::<usize>()
                .map(AdmissionPolicy::QueueCap)
                .map_err(|e| format!("bad queue cap '{n}': {e}"));
        }
        match s {
            "accept" | "accept-all" => Ok(AdmissionPolicy::AcceptAll),
            "deadline" | "deadline-feasible" => Ok(AdmissionPolicy::DeadlineFeasible),
            other => Err(format!(
                "unknown admission policy '{other}' (expected accept, cap:N, or deadline)"
            )),
        }
    }
}

/// How requests acquire completion deadlines.
///
/// Deadlines are assigned per request at arrival, deterministically
/// in the arrival order (independent of scheduler and admission
/// decisions), as `arrival + slo`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlineSpec {
    /// No deadlines: every request trivially meets its SLO.
    None,
    /// Every request gets the same relative deadline (a
    /// workload-level SLO).
    Fixed(SimDuration),
    /// Mixed traffic: a `tight_fraction` of requests draw the
    /// `tight` SLO (latency-critical), the rest draw `loose` (batch
    /// traffic), deterministically in `seed`.
    Bimodal {
        /// Relative deadline of the latency-critical class.
        tight: SimDuration,
        /// Relative deadline of the throughput class.
        loose: SimDuration,
        /// Fraction of arrivals in the latency-critical class.
        tight_fraction: f64,
        /// Seed of the per-request class draw.
        seed: u64,
    },
}

impl DeadlineSpec {
    /// The absolute deadline of each arrival in `times` — the batch
    /// reference implementation [`DeadlineAssigner`] must reproduce
    /// draw for draw (pinned by a test).
    #[cfg(test)]
    fn assign(self, times: &[SimTime]) -> Vec<Option<SimTime>> {
        match self {
            DeadlineSpec::None => vec![None; times.len()],
            DeadlineSpec::Fixed(slo) => times.iter().map(|&t| Some(t + slo)).collect(),
            DeadlineSpec::Bimodal {
                tight,
                loose,
                tight_fraction,
                seed,
            } => {
                let mut rng = SimRng::from_seed_and_stream(seed, "deadline-mix");
                times
                    .iter()
                    .map(|&t| {
                        let slo = if rng.next_f64() < tight_fraction {
                            tight
                        } else {
                            loose
                        };
                        Some(t + slo)
                    })
                    .collect()
            }
        }
    }
}

/// Streaming form of [`DeadlineSpec`]: one deadline per call, drawing
/// the Bimodal class picks in arrival order from the same seed stream
/// as the batch assigner — lazy per-event assignment therefore sees
/// exactly the sequence `DeadlineSpec::assign` produces up front,
/// without materializing a deadline vector for the whole run.
#[derive(Debug, Clone)]
pub(crate) enum DeadlineAssigner {
    None,
    Fixed(SimDuration),
    Bimodal {
        tight: SimDuration,
        loose: SimDuration,
        tight_fraction: f64,
        rng: SimRng,
    },
}

impl DeadlineAssigner {
    pub(crate) fn new(spec: DeadlineSpec) -> Self {
        match spec {
            DeadlineSpec::None => DeadlineAssigner::None,
            DeadlineSpec::Fixed(slo) => DeadlineAssigner::Fixed(slo),
            DeadlineSpec::Bimodal {
                tight,
                loose,
                tight_fraction,
                seed,
            } => DeadlineAssigner::Bimodal {
                tight,
                loose,
                tight_fraction,
                rng: SimRng::from_seed_and_stream(seed, "deadline-mix"),
            },
        }
    }

    /// The absolute deadline of the next arrival, at instant `t`.
    pub(crate) fn next(&mut self, t: SimTime) -> Option<SimTime> {
        match self {
            DeadlineAssigner::None => None,
            DeadlineAssigner::Fixed(slo) => Some(t + *slo),
            DeadlineAssigner::Bimodal {
                tight,
                loose,
                tight_fraction,
                rng,
            } => {
                let slo = if rng.next_f64() < *tight_fraction {
                    *tight
                } else {
                    *loose
                };
                Some(t + slo)
            }
        }
    }
}

/// Event granularity of the cluster simulation.
///
/// Both granularities execute the **same per-step arithmetic in the
/// same order** — [`ClusterReport`]s are byte-identical between them
/// (pinned by proptests and a 1e5-request byte compare); only the
/// event-queue traffic differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepGranularity {
    /// Every batch/step completion is its own event in the engine's
    /// queue — the reference engine: one `(time, seq)` push and pop
    /// per decode step of every replica.
    PerStep,
    /// Macro-stepping (the default): between *epochs* where the
    /// scheduler can act (the next arrival, and end-of-traffic
    /// drain), each replica's pending batch/step completion lives as
    /// a `(time, seq)` boundary in plain state. Epoch handlers replay
    /// all due boundaries in the global `(time, seq)` order with a
    /// tight min-scan loop — zero queue round-trips and zero
    /// allocations per step. See DESIGN.md §11 for the identity
    /// argument.
    #[default]
    Coalesced,
}

/// Shape of a serving cluster: how many pipelines, how requests are
/// dispatched to them, at what granularity batches admit work, which
/// arrivals are admitted at all, what deadlines requests carry, how
/// much of each run is recorded, and how batch/step completions are
/// stepped. Every run schedules through `simcore`'s one `(time, seq)`
/// event queue.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Number of independent pipeline replicas ([`run_cluster`] only;
    /// [`run_cluster_mix`] derives the count from its replica
    /// groups).
    pub pipelines: usize,
    /// Dispatch policy for arriving requests.
    pub scheduler: SchedulerKind,
    /// Admit requests at decode-step boundaries (continuous batching)
    /// instead of run-to-completion batches.
    pub continuous: bool,
    /// Arrival-time admission control.
    pub admission: AdmissionPolicy,
    /// Per-request deadline assignment.
    pub deadlines: DeadlineSpec,
    /// Recording granularity: [`RecordMode::Full`] retains every
    /// latency sample and batch size; [`RecordMode::Aggregate`] keeps
    /// streaming summaries plus a bounded latency reservoir, so
    /// million-request runs stay allocation-bounded.
    pub record: RecordMode,
    /// Event granularity: coalesced macro-stepping (default) or one
    /// queue event per batch/step completion. Reports are
    /// byte-identical either way; only speed differs.
    pub granularity: StepGranularity,
}

impl ClusterSpec {
    /// `pipelines` replicas, round-robin dispatch, run-to-completion
    /// batching, accept-all admission, no deadlines.
    ///
    /// # Panics
    ///
    /// Panics if `pipelines` is zero.
    pub fn new(pipelines: usize) -> Self {
        assert!(pipelines >= 1, "a cluster needs at least one pipeline");
        ClusterSpec {
            pipelines,
            scheduler: SchedulerKind::RoundRobin,
            continuous: false,
            admission: AdmissionPolicy::AcceptAll,
            deadlines: DeadlineSpec::None,
            record: RecordMode::Full,
            granularity: StepGranularity::default(),
        }
    }

    /// Replaces the dispatch policy.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables or disables continuous batching.
    #[must_use]
    pub fn with_continuous(mut self, continuous: bool) -> Self {
        self.continuous = continuous;
        self
    }

    /// Replaces the admission policy.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Replaces the deadline assignment.
    #[must_use]
    pub fn with_deadlines(mut self, deadlines: DeadlineSpec) -> Self {
        self.deadlines = deadlines;
        self
    }

    /// Replaces the recording granularity.
    #[must_use]
    pub fn with_record(mut self, record: RecordMode) -> Self {
        self.record = record;
        self
    }

    /// Replaces the event granularity.
    #[must_use]
    pub fn with_granularity(mut self, granularity: StepGranularity) -> Self {
        self.granularity = granularity;
        self
    }
}

/// Reservoir size for aggregate-mode latency percentiles: large
/// enough that tail estimates are stable, small enough that a
/// million-request run keeps O(1) latency state.
const LATENCY_RESERVOIR: usize = 4096;

/// Latency accounting at either [`RecordMode`] granularity.
///
/// [`RecordMode::Full`] retains every sample (a [`SeriesStats`]),
/// which per-request analyses and the bit-identity cross-checks need.
/// [`RecordMode::Aggregate`] keeps a streaming Welford summary plus a
/// fixed-size uniform reservoir: count and mean stay exact, only
/// percentiles become (deterministic) estimates, and a
/// million-request cluster run no longer allocates per request.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyStats {
    /// Every sample retained.
    Full(SeriesStats),
    /// Streaming summary plus bounded percentile reservoir.
    Sampled {
        /// Exact count/mean/variance over all samples.
        summary: Accumulator,
        /// Uniform sample of the stream for percentile estimates.
        reservoir: Reservoir,
    },
}

impl LatencyStats {
    fn full() -> Self {
        LatencyStats::Full(SeriesStats::new())
    }

    fn sampled(rng: SimRng) -> Self {
        LatencyStats::Sampled {
            summary: Accumulator::new(),
            reservoir: Reservoir::new(LATENCY_RESERVOIR, rng),
        }
    }

    fn add(&mut self, x: f64) {
        match self {
            LatencyStats::Full(s) => s.add(x),
            LatencyStats::Sampled { summary, reservoir } => {
                summary.add(x);
                reservoir.add(x);
            }
        }
    }

    /// Number of samples observed — all of them, in either mode.
    pub fn count(&self) -> u64 {
        match self {
            LatencyStats::Full(s) => u64::try_from(s.count()).unwrap_or(u64::MAX),
            LatencyStats::Sampled { summary, .. } => summary.count(),
        }
    }

    /// Arithmetic mean over **all** samples; exact in both modes (the
    /// aggregate mode streams the mean — only percentiles are
    /// estimated).
    pub fn mean(&self) -> f64 {
        match self {
            LatencyStats::Full(s) => s.mean(),
            LatencyStats::Sampled { summary, .. } => summary.mean(),
        }
    }

    /// Linear-interpolated percentile, `p` in `[0, 100]`: exact in
    /// full mode, a uniform-reservoir estimate in aggregate mode
    /// (exact there too while the sample count is within the
    /// reservoir capacity).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        match self {
            LatencyStats::Full(s) => s.percentile(p),
            LatencyStats::Sampled { reservoir, .. } => reservoir.percentile(p),
        }
    }

    /// The retained samples: the complete series in full mode, the
    /// reservoir's uniform subset in aggregate mode.
    pub fn samples(&self) -> &[f64] {
        match self {
            LatencyStats::Full(s) => s.samples(),
            LatencyStats::Sampled { reservoir, .. } => reservoir.samples(),
        }
    }
}

/// Per-pipeline accounting from a cluster run.
///
/// Counters are `u64`: at the million-request scale the DES core is
/// sized for, 32-bit counters are one long soak away from wrapping.
#[derive(Debug, Clone)]
pub struct PipelineStats {
    /// Index of the replica group this pipeline was built from
    /// (always 0 for homogeneous clusters).
    pub config: usize,
    /// Requests completed on this pipeline.
    pub served: u64,
    /// Requests rejected at arrival by the admission policy.
    pub rejected: u64,
    /// Requests shed at batch/step admission because their deadline
    /// had become infeasible ([`SchedulerKind::DeadlineAware`] only).
    pub expired: u64,
    /// Total time this pipeline spent serving.
    pub busy: SimDuration,
    /// Batches (run-to-completion) or steps (continuous) executed.
    pub batches: u64,
    /// `busy` as a fraction of the cluster makespan (not clamped; a
    /// value above 1 means over-accounted busy time, which the audit
    /// flags via [`Auditor::check_busy_time`]).
    pub utilization: f64,
}

/// Aggregate and per-pipeline results of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Requests served across all pipelines.
    pub served: u64,
    /// Requests rejected at arrival by the admission policy.
    pub rejected: u64,
    /// Requests shed as expired at batch/step admission
    /// ([`SchedulerKind::DeadlineAware`] only).
    pub expired: u64,
    /// Served requests that finished past their deadline.
    pub slo_violations: u64,
    /// Served requests that met their deadline (requests without a
    /// deadline count as met).
    pub met: u64,
    /// Logical events processed during the run (arrivals plus
    /// batch/step completions), equal across granularities — the
    /// denominator of events/s scheduler benchmarks.
    pub events: u64,
    /// Wall-clock span from first arrival to last completion.
    pub makespan: SimDuration,
    /// Queueing delays (arrival → batch/step admission), seconds.
    pub queue_delay: LatencyStats,
    /// End-to-end latencies (arrival → last token), seconds.
    pub e2e_latency: LatencyStats,
    /// Batch (or active-set) sizes in execution order, interleaved
    /// across pipelines (empty under [`RecordMode::Aggregate`]).
    pub batch_sizes: Vec<u32>,
    /// Mean per-pipeline busy fraction of the makespan.
    pub utilization: f64,
    /// Sustained output-token throughput over the makespan, computed
    /// from requests actually served (not offered load).
    pub tokens_per_s: f64,
    /// Goodput: output-token throughput from SLO-met requests only.
    pub tokens_per_s_met: f64,
    /// Per-pipeline breakdown, indexed by pipeline.
    pub per_pipeline: Vec<PipelineStats>,
    /// Aggregate critical-path attribution over all served requests:
    /// queue-bound vs compute-bound vs transfer-bound ticks, exact
    /// (`sum(buckets) == total` as a `u64` equality). Identical
    /// across granularities, traced or not.
    pub attribution: Attribution,
    /// Conservation audit, when auditing is enabled (debug builds or
    /// [`simaudit::force_enable`]).
    pub audit: Option<AuditReport>,
}

impl ClusterReport {
    /// Mean queueing delay in milliseconds.
    pub fn mean_queue_delay_ms(&self) -> f64 {
        SimDuration::from_secs(self.queue_delay.mean()).as_millis()
    }

    /// A latency percentile (end-to-end) in milliseconds.
    pub fn e2e_percentile_ms(&self, p: f64) -> f64 {
        SimDuration::from_secs(self.e2e_latency.percentile(p).unwrap_or(0.0)).as_millis()
    }

    /// Requests offered to the cluster: served + rejected + expired.
    pub fn offered(&self) -> u64 {
        self.served + self.rejected + self.expired
    }

    /// Fraction of offered requests that completed within their
    /// deadline (rejected and expired requests count against it).
    pub fn slo_attainment(&self) -> f64 {
        if self.offered() == 0 {
            0.0
        } else {
            self.met as f64 / self.offered() as f64
        }
    }
}

/// Per-request and aggregate results of an online run.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Requests served.
    pub served: u64,
    /// Wall-clock span from first arrival to last completion.
    pub makespan: SimDuration,
    /// Queueing delays (arrival → batch start), seconds.
    pub queue_delay: LatencyStats,
    /// End-to-end latencies (arrival → last token), seconds.
    pub e2e_latency: LatencyStats,
    /// Batch sizes actually formed.
    pub batch_sizes: Vec<u32>,
    /// Fraction of the makespan the pipeline was busy (not clamped;
    /// over-accounted busy time is an audit finding, not a silent
    /// saturation).
    pub utilization: f64,
    /// Sustained output-token throughput over the makespan, computed
    /// from requests actually served.
    pub tokens_per_s: f64,
    /// Conservation audit, when auditing is enabled (debug builds or
    /// [`simaudit::force_enable`]).
    pub audit: Option<AuditReport>,
}

impl OnlineReport {
    /// Mean queueing delay in milliseconds.
    pub fn mean_queue_delay_ms(&self) -> f64 {
        SimDuration::from_secs(self.queue_delay.mean()).as_millis()
    }

    /// A latency percentile (end-to-end) in milliseconds.
    pub fn e2e_percentile_ms(&self, p: f64) -> f64 {
        SimDuration::from_secs(self.e2e_latency.percentile(p).unwrap_or(0.0)).as_millis()
    }
}

/// Serves `num_requests` Poisson arrivals through `server`, forming
/// batches of at most the policy's batch size from whatever is queued
/// when the pipeline frees up (run-to-completion batching, FlexGen
/// style — no continuous batching).
///
/// The per-batch service time comes from a [`ServiceModel`]
/// interpolated between two pipeline runs (batch 1 and the policy
/// batch) rather than re-simulated per batch, keeping λ-sweeps cheap
/// while preserving the batch-size dependence of prefill.
///
/// # Errors
///
/// Propagates batch validation from the underlying [`Server`].
pub fn run_online(
    server: &Server,
    workload: &WorkloadSpec,
    arrivals: &mut PoissonArrivals,
    num_requests: usize,
) -> Result<OnlineReport, HelmError> {
    let model = ServiceModel::calibrate(server, workload)?;
    let max_batch = model.max_batch();

    let times = arrivals.take(num_requests);
    let mut queue_delay = SeriesStats::new();
    let mut e2e = SeriesStats::new();
    let mut batch_sizes = Vec::new();
    let mut busy = SimDuration::ZERO;

    let mut next = 0usize;
    let mut pipeline_free = SimTime::ZERO;
    let mut last_completion = SimTime::ZERO;
    while next < times.len() {
        // The batch starts when the pipeline is free and at least one
        // request has arrived.
        let start = pipeline_free.max(times[next]);
        // Everyone who has arrived by then joins, up to the cap.
        let mut batch = 0u32;
        while next < times.len() && times[next] <= start && batch < max_batch {
            queue_delay.add((start - times[next]).as_secs());
            batch += 1;
            next += 1;
        }
        let service = model.total(batch);
        let done = start + service;
        // All requests in the batch finish together (static batch).
        for i in 0..batch as usize {
            e2e.add((done - times[next - batch as usize + i]).as_secs());
        }
        busy += service;
        batch_sizes.push(batch);
        pipeline_free = done;
        last_completion = done;
    }

    let first_arrival = times.first().copied().unwrap_or(SimTime::ZERO);
    let makespan = last_completion.max(first_arrival) - first_arrival;
    // Every request the loop admitted to a batch completed; count
    // completions rather than trusting the offered load.
    debug_assert_eq!(e2e.count(), queue_delay.count());
    let served = u64::try_from(e2e.count()).unwrap_or(u64::MAX);
    let tokens = served * workload.gen_len as u64;
    let mut audit = Auditor::capture();
    let utilization = busy_fraction(&mut audit, "online", busy, makespan);
    Ok(OnlineReport {
        served,
        makespan,
        queue_delay: LatencyStats::Full(queue_delay),
        e2e_latency: LatencyStats::Full(e2e),
        batch_sizes,
        utilization,
        tokens_per_s: tokens as f64 / makespan.as_secs().max(f64::MIN_POSITIVE),
        audit: audit.finish_if_active(),
    })
}

/// Busy fraction of `makespan`, reported raw. The seed code clamped
/// this with `.min(1.0)`, which silently masked over-accounted busy
/// time; a ratio above 1 now surfaces as a
/// [`Auditor::check_busy_time`] finding and is returned as-is.
fn busy_fraction(
    audit: &mut Auditor,
    label: &str,
    busy: SimDuration,
    makespan: SimDuration,
) -> f64 {
    audit.check_busy_time(label, busy, makespan);
    if makespan > SimDuration::ZERO {
        busy / makespan
    } else {
        0.0
    }
}

/// One request in flight through the cluster: its arrival instant,
/// the instant it was admitted into a batch/step (set at admission;
/// equal to `at` until then), and optional absolute completion
/// deadline.
#[derive(Debug, Clone, Copy)]
struct Req {
    at: SimTime,
    admitted: SimTime,
    deadline: Option<SimTime>,
}

impl Req {
    /// EDF sort key: requests without a deadline sort last.
    fn edf_key(&self) -> SimTime {
        self.deadline
            .unwrap_or(SimTime::from_secs(f64::INFINITY).max(SimTime::ZERO))
    }
}

/// One pipeline replica's live state inside the cluster simulation.
struct Pipe {
    /// Index into the cluster's [`ServiceModel`] list (one model per
    /// distinct replica configuration).
    model: usize,
    /// Requests waiting for admission, in arrival order (or EDF order
    /// under [`SchedulerKind::DeadlineAware`]).
    queue: VecDeque<Req>,
    /// Whether the pipeline is between batches/steps.
    idle: bool,
    /// In-flight request count (run-to-completion mode).
    in_flight: usize,
    /// Active set (continuous mode only): each request with the step
    /// count at which it receives its last output token. Requests
    /// join at the back owing the pipe's whole `gen_len` and every
    /// step serves all of them, so finish steps never decrease from
    /// front to back: a step retires a prefix, and the back entry
    /// owes the most.
    active: VecDeque<(Req, u64)>,
    /// Continuous steps completed — the clock the active set's finish
    /// steps count on.
    steps: u64,
    /// Members of the in-flight run-to-completion batch. Held in pipe
    /// state (not in the completion event) so both granularities share
    /// one completion routine.
    members: Vec<Req>,
    /// Modeled instant the in-flight batch/step completes — the base
    /// of finish-time estimates for dispatch and admission.
    free_at: SimTime,
    /// Coalesced mode: the pending completion boundary as a
    /// `(instant, virtual seq)` key replicating the per-step queue's
    /// `(time, seq)` total order, held in state instead of the
    /// priority queue.
    boundary: Option<(SimTime, u64)>,
    busy: SimDuration,
    served: u64,
    rejected: u64,
    expired: u64,
    batches: u64,
}

impl Pipe {
    fn new(model: usize) -> Self {
        Pipe {
            model,
            queue: VecDeque::new(),
            idle: true,
            in_flight: 0,
            active: VecDeque::new(),
            steps: 0,
            members: Vec::new(),
            free_at: SimTime::ZERO,
            boundary: None,
            busy: SimDuration::ZERO,
            served: 0,
            rejected: 0,
            expired: 0,
            batches: 0,
        }
    }

    /// Queued plus in-flight requests — the JSQ load signal.
    fn load(&self) -> usize {
        self.queue.len() + self.in_flight + self.active.len()
    }
}

/// What the cluster engine queues.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Arrival `i`: its request, and the virtual sequence number that
    /// bounds its coalesced drain.
    Arrival { i: usize, req: Req, vseq: u64 },
    /// Pipe `p`'s batch/step completion, queued under
    /// [`StepGranularity::PerStep`] only.
    Completion(usize),
}

struct ClusterSt {
    pipes: Vec<Pipe>,
    models: Vec<ServiceModel>,
    continuous: bool,
    scheduler: SchedulerKind,
    admission: AdmissionPolicy,
    record: RecordMode,
    queue_delay: LatencyStats,
    e2e: LatencyStats,
    batch_sizes: Vec<u32>,
    last_completion: SimTime,
    slo_violations: u64,
    met: u64,
    /// Aggregate attribution over completed requests — always
    /// accumulated, traced or not.
    attribution: Attribution,
    /// Span collection buffer, present only when the run was handed a
    /// trace sink.
    trace: Option<Trace>,
    audit: Auditor,
    /// The live arrival process: the chain of arrival events draws
    /// from it lazily, one inter-arrival gap per event.
    arrivals: PoissonArrivals,
    /// Streaming deadline assignment, in arrival order.
    deadliner: DeadlineAssigner,
    /// Arrivals not yet drawn (beyond the one pending event).
    remaining: usize,
    /// Free list of batch member buffers: completions return theirs,
    /// so steady state forms batches without allocating.
    member_pool: Vec<Vec<Req>>,
    /// Per-pipe audit channel names, formatted once — the ledger is
    /// touched on every arrival and completion.
    channels: Vec<String>,
    /// Event granularity this run executes at.
    granularity: StepGranularity,
    /// Virtual sequence counter (coalesced mode): assigned in the
    /// exact program order the per-step backend assigns queue
    /// sequence numbers, so `(time, vseq)` boundary keys replicate
    /// the per-step `(time, seq)` total order.
    next_vseq: u64,
    /// Logical events processed (arrivals plus batch/step
    /// completions) — identical across granularities by construction,
    /// and equal to the events the loop pops in per-step mode.
    events: u64,
    /// The loop's clock: the instant of the event being fired.
    now: SimTime,
    /// Pending events: the next arrival and, in per-step mode, each
    /// busy pipe's completion.
    queue: EventQueue<Event>,
}

fn req_channel(p: usize) -> String {
    format!("requests:pipe{p}")
}

/// Modeled completion instant of one more request landing on `pipe`:
/// the in-flight work finishes at `free_at`, then the backlog (plus
/// the candidate) drains in run-to-completion batches priced by the
/// pipe's own model. In continuous mode the active set's residual
/// decode steps — as many as its back entry still owes — are added
/// first; the batched drain of the queue is a deliberate upper-bound
/// approximation of step-granularity admission.
fn modeled_finish(pipe: &Pipe, model: &ServiceModel, continuous: bool, now: SimTime) -> SimTime {
    let mut t = pipe.free_at.max(now);
    if continuous {
        if let Some(&(_, finish)) = pipe.active.back() {
            let owed = finish - pipe.steps;
            t += model.decode_step(pipe.active.len() as u32) * owed as f64;
        }
    }
    let mut backlog = pipe.queue.len() + 1;
    let cap = model.max_batch().max(1) as usize;
    while backlog > 0 {
        let b = backlog.min(cap);
        t += model.total(b as u32);
        backlog -= b;
    }
    t
}

/// Whether `req` can no longer meet its deadline even if served alone
/// starting right now — the optimistic bound ([`ServiceModel::total`]
/// at batch 1 is the fastest any admission could finish it), so a
/// request is only ever shed when it is provably lost.
fn infeasible(req: &Req, model: &ServiceModel, now: SimTime) -> bool {
    req.deadline.is_some_and(|d| now + model.total(1) > d)
}

/// The pipeline `spec.scheduler` dispatches an arrival to, with its
/// modeled finish when the scheduler priced it. The finish-time
/// schedulers price each pipe once; round-robin and JSQ price none.
fn dispatch(
    st: &ClusterSt,
    i: usize,
    deadline: Option<SimTime>,
    now: SimTime,
) -> (usize, Option<SimTime>) {
    match st.scheduler {
        SchedulerKind::RoundRobin => (i % st.pipes.len(), None),
        SchedulerKind::JoinShortestQueue => {
            let p = st
                .pipes
                .iter()
                .enumerate()
                .min_by_key(|(_, pipe)| pipe.load())
                .map_or(0, |(idx, _)| idx);
            (p, None)
        }
        SchedulerKind::LeastFinishTime => pick_by_finish(st, None, now),
        SchedulerKind::DeadlineAware => pick_by_finish(st, deadline, now),
    }
}

/// One pricing pass over every pipe: the pipe with the least modeled
/// finish, with that finish — or, given a `deadline`, the best fit
/// among the pipes that meet it. Best-fit is the slowest replica
/// *configuration* that can still meet the deadline, load-balanced by
/// least finish time within that configuration. Keying on intrinsic
/// service speed — not current backlog — keeps fast replicas free for
/// requests only they can serve in time without the feedback loop
/// where the most-backlogged replica keeps "winning". No feasible
/// replica: least finish time. Strict `<` keeps the lowest index on
/// ties, as `min_by_key` would.
fn pick_by_finish(
    st: &ClusterSt,
    deadline: Option<SimTime>,
    now: SimTime,
) -> (usize, Option<SimTime>) {
    let mut least: Option<(usize, SimTime)> = None;
    let mut fit: Option<(usize, (Reverse<SimDuration>, SimTime))> = None;
    for (idx, pipe) in st.pipes.iter().enumerate() {
        let model = &st.models[pipe.model];
        let finish = modeled_finish(pipe, model, st.continuous, now);
        if least.is_none_or(|(_, f)| finish < f) {
            least = Some((idx, finish));
        }
        if deadline.is_some_and(|d| finish <= d) {
            let key = (Reverse(model.total(1)), finish);
            if fit.is_none_or(|(_, k)| key < k) {
                fit = Some((idx, key));
            }
        }
    }
    fit.map(|(idx, (_, finish))| (idx, finish))
        .or(least)
        .map_or((0, None), |(idx, finish)| (idx, Some(finish)))
}

/// Whether the admission policy accepts `req` on pipeline `p`;
/// `priced` is `p`'s modeled finish when dispatch already computed it.
fn admit(st: &ClusterSt, p: usize, priced: Option<SimTime>, req: &Req, now: SimTime) -> bool {
    let pipe = &st.pipes[p];
    match st.admission {
        AdmissionPolicy::AcceptAll => true,
        AdmissionPolicy::QueueCap(cap) => pipe.load() < cap,
        AdmissionPolicy::DeadlineFeasible => match req.deadline {
            None => true,
            Some(d) => {
                let finish = priced.unwrap_or_else(|| {
                    modeled_finish(pipe, &st.models[pipe.model], st.continuous, now)
                });
                finish <= d
            }
        },
    }
}

/// Queues `req` on pipeline `p`: FIFO normally, EDF order (ties FIFO)
/// under [`SchedulerKind::DeadlineAware`]. Arrivals mostly sort last,
/// so the sorted queue appends without a search when they do.
fn push_request(st: &mut ClusterSt, p: usize, req: Req) {
    let queue = &mut st.pipes[p].queue;
    if st.scheduler == SchedulerKind::DeadlineAware {
        let key = req.edf_key();
        if queue.back().is_none_or(|back| back.edf_key() <= key) {
            queue.push_back(req);
        } else {
            let pos = queue.partition_point(|q| q.edf_key() <= key);
            queue.insert(pos, req);
        }
    } else {
        queue.push_back(req);
    }
}

/// Run-to-completion admission at `now`: whoever is queued joins, up
/// to the cap, and the whole batch occupies the pipeline for its full
/// service time. Under [`SchedulerKind::DeadlineAware`], requests
/// whose deadline has become infeasible are shed as expired instead
/// of joining. Returns the batch's completion instant, or `None` when
/// everything ready was shed and the pipe went back to sleep.
fn start_batch(st: &mut ClusterSt, p: usize, now: SimTime) -> Option<SimTime> {
    debug_assert!(st.pipes[p].idle);
    st.pipes[p].idle = false;
    let model_idx = st.pipes[p].model;
    let max_batch = st.models[model_idx].max_batch();
    // Pooled member buffer: the completion hands it back, so steady
    // state forms batches allocation-free.
    let mut members = st.member_pool.pop().unwrap_or_default();
    debug_assert!(members.is_empty());
    while members.len() < max_batch as usize {
        match st.pipes[p].queue.pop_front() {
            Some(mut req) if req.at <= now => {
                if st.scheduler == SchedulerKind::DeadlineAware
                    && infeasible(&req, &st.models[model_idx], now)
                {
                    st.audit.abandoned(&st.channels[p], 1);
                    st.pipes[p].expired += 1;
                    continue;
                }
                st.queue_delay.add((now - req.at).as_secs());
                req.admitted = now;
                members.push(req);
            }
            Some(req) => {
                st.pipes[p].queue.push_front(req);
                break;
            }
            None => break,
        }
    }
    let batch = members.len() as u32;
    if batch == 0 {
        // Everything ready was shed as expired; the pipe goes back to
        // sleep until the next arrival wakes it.
        st.member_pool.push(members);
        st.pipes[p].idle = true;
        return None;
    }
    if st.record == RecordMode::Full {
        st.batch_sizes.push(batch);
    }
    st.pipes[p].in_flight = members.len();
    st.pipes[p].members = members;
    st.pipes[p].batches += 1;
    let dur = st.models[model_idx].total(batch);
    st.pipes[p].busy += dur;
    st.pipes[p].free_at = now + dur;
    Some(st.pipes[p].free_at)
}

/// Attribution and (optional) span tree of one completed request.
///
/// The three instants the engine already records — arrival,
/// admission, completion — are quantized onto the tick lattice;
/// queue is `admitted - arrival`, service is `done - admitted`, and
/// the service interval is partitioned into transfer- and
/// compute-bound ticks by the replica model's calibrated transfer
/// share (transfer rounds, compute takes the integer remainder), so
/// `queue + compute + transfer == e2e` holds exactly. `batch` is the
/// batch/active-set size the request completed under.
fn record_request(st: &mut ClusterSt, p: usize, req: &Req, done: SimTime, batch: u32) {
    let model = &st.models[st.pipes[p].model];
    let arrival = time_ticks(req.at);
    let done_ticks = time_ticks(done);
    let admitted = time_ticks(req.admitted).clamp(arrival, done_ticks);
    let service = done_ticks - admitted;
    let share = model.transfer_share(batch);
    let transfer = ((service as f64 * share).round() as u64).min(service);
    let att = Attribution {
        queue_ticks: u128::from(admitted - arrival),
        compute_ticks: u128::from(service - transfer),
        transfer_ticks: u128::from(transfer),
        total_ticks: u128::from(done_ticks - arrival),
    };
    st.attribution.absorb(att);
    if let Some(trace) = st.trace.as_mut() {
        let spans = request_spans(model, arrival, admitted, done_ticks, req.admitted, batch);
        trace.requests.push(RequestTrace {
            id: trace.requests.len() as u64,
            pipe: p as u32,
            spans,
            attribution: att,
        });
    }
}

/// Synthesizes one request's span tree from the service model's span
/// arithmetic: queue and service children under the request root,
/// with per-step prefill/decode boundaries at
/// `admitted + prefill(b) + k · decode_step(b)`. Both granularities
/// call this with identical instants — the coalesced engine never
/// re-runs per-step; it derives the same boundaries the per-step
/// engine would schedule, so the trees are byte-identical across
/// granularities by construction. Boundaries are clamped monotone
/// into the service interval and the final step is pinned to the
/// completion instant, so the tree always nests.
fn request_spans(
    model: &ServiceModel,
    arrival: u64,
    admitted: u64,
    done: u64,
    admitted_at: SimTime,
    batch: u32,
) -> Vec<TraceSpan> {
    let gen_len = model.gen_len().max(1);
    let mut spans = Vec::with_capacity(3 + gen_len);
    spans.push(TraceSpan {
        name: "request",
        depth: 0,
        start: arrival,
        end: done,
    });
    spans.push(TraceSpan {
        name: "queue",
        depth: 1,
        start: arrival,
        end: admitted,
    });
    spans.push(TraceSpan {
        name: "service",
        depth: 1,
        start: admitted,
        end: done,
    });
    let step = model.decode_step(batch);
    let mut boundary = admitted_at + model.prefill(batch);
    let mut prev = admitted;
    for k in 0..gen_len {
        let end = if k + 1 == gen_len {
            done
        } else {
            time_ticks(boundary).clamp(prev, done)
        };
        spans.push(TraceSpan {
            name: if k == 0 { "prefill" } else { "decode" },
            depth: 2,
            start: prev,
            end,
        });
        prev = end;
        boundary += step;
    }
    spans
}

/// Completion bookkeeping of a run-to-completion batch at `done`.
/// Returns whether the pipe has queued work to restart on.
fn complete_batch(st: &mut ClusterSt, p: usize, done: SimTime) -> bool {
    st.audit.observe_time("cluster", done);
    let members = std::mem::take(&mut st.pipes[p].members);
    let batch = members.len() as u32;
    for req in &members {
        st.e2e.add((done - req.at).as_secs());
        match req.deadline {
            Some(d) if done > d => st.slo_violations += 1,
            _ => st.met += 1,
        }
        record_request(st, p, req, done, batch);
    }
    st.audit.completed(&st.channels[p], members.len() as u64);
    st.pipes[p].served += members.len() as u64;
    st.pipes[p].in_flight = 0;
    st.last_completion = done;
    st.pipes[p].idle = true;
    // Recycle the member buffer for the next batch.
    let mut members = members;
    members.clear();
    st.member_pool.push(members);
    !st.pipes[p].queue.is_empty()
}

/// Continuous-batching admission at `now`: admit whoever is queued
/// into the active set (up to the cap) and start one iteration —
/// prefill for the newcomers, one decode step for requests already
/// past prefill. Under [`SchedulerKind::DeadlineAware`], infeasible
/// requests are shed at the admission boundary. Returns the step's
/// completion instant, or `None` when the pipe went back to sleep.
fn start_step(st: &mut ClusterSt, p: usize, now: SimTime) -> Option<SimTime> {
    debug_assert!(st.pipes[p].idle);
    st.pipes[p].idle = false;
    let model_idx = st.pipes[p].model;
    let finish = st.pipes[p].steps + st.models[model_idx].gen_len() as u64;
    let max_batch = st.models[model_idx].max_batch();
    let continuing = st.pipes[p].active.len() as u32;
    let mut admitted = 0u32;
    while st.pipes[p].active.len() < max_batch as usize {
        match st.pipes[p].queue.pop_front() {
            Some(mut req) if req.at <= now => {
                if st.scheduler == SchedulerKind::DeadlineAware
                    && infeasible(&req, &st.models[model_idx], now)
                {
                    st.audit.abandoned(&st.channels[p], 1);
                    st.pipes[p].expired += 1;
                    continue;
                }
                st.queue_delay.add((now - req.at).as_secs());
                req.admitted = now;
                debug_assert!(st.pipes[p].active.back().is_none_or(|&(_, f)| f <= finish));
                st.pipes[p].active.push_back((req, finish));
                admitted += 1;
            }
            Some(req) => {
                st.pipes[p].queue.push_front(req);
                break;
            }
            None => break,
        }
    }
    let batch = st.pipes[p].active.len() as u32;
    if batch == 0 {
        // The queue drained entirely into expiries and nothing is in
        // flight; sleep until the next arrival.
        st.pipes[p].idle = true;
        return None;
    }
    if st.record == RecordMode::Full {
        st.batch_sizes.push(batch);
    }
    st.pipes[p].batches += 1;
    // The newcomers' first token comes out of their prefill pass; the
    // continuing requests each decode one token alongside it.
    let mut dur = SimDuration::ZERO;
    if admitted > 0 {
        dur += st.models[model_idx].prefill(admitted);
    }
    if continuing > 0 {
        dur += st.models[model_idx].decode_step(continuing);
    }
    st.pipes[p].busy += dur;
    st.pipes[p].free_at = now + dur;
    Some(st.pipes[p].free_at)
}

/// Completion bookkeeping of one continuous-batching step at `done`:
/// every active request receives one output token. Returns whether
/// the pipe has active or queued work to restart on.
fn complete_step(st: &mut ClusterSt, p: usize, done: SimTime) -> bool {
    st.audit.observe_time("cluster", done);
    // Bump the step clock and retire, front to back, the prefix whose
    // finish step it reached; survivors are not touched. `batch` is
    // the active-set size the step served.
    let batch = st.pipes[p].active.len() as u32;
    st.pipes[p].steps += 1;
    let steps = st.pipes[p].steps;
    let mut finished = 0u64;
    while let Some(&(req, finish)) = st.pipes[p].active.front() {
        if finish > steps {
            break;
        }
        st.pipes[p].active.pop_front();
        st.e2e.add((done - req.at).as_secs());
        match req.deadline {
            Some(d) if done > d => st.slo_violations += 1,
            _ => st.met += 1,
        }
        record_request(st, p, &req, done, batch);
        finished += 1;
    }
    st.pipes[p].served += finished;
    if finished > 0 {
        st.audit.completed(&st.channels[p], finished);
        st.last_completion = done;
    }
    st.pipes[p].idle = true;
    !st.pipes[p].active.is_empty() || !st.pipes[p].queue.is_empty()
}

/// Starts one run-to-completion batch or one continuous step on `p`
/// at `now`, returning its completion instant (`None`: back to
/// sleep).
fn start_work(st: &mut ClusterSt, p: usize, now: SimTime) -> Option<SimTime> {
    if st.continuous {
        start_step(st, p, now)
    } else {
        start_batch(st, p, now)
    }
}

/// Completion bookkeeping of `p`'s in-flight batch/step at `done` —
/// one logical event in either granularity. Returns whether the pipe
/// should restart immediately.
fn complete_work(st: &mut ClusterSt, p: usize, done: SimTime) -> bool {
    st.events += 1;
    if st.continuous {
        complete_step(st, p, done)
    } else {
        complete_batch(st, p, done)
    }
}

/// Coalesced mode: starts work on `p` and parks its completion as a
/// state-held `(time, vseq)` boundary instead of a queue event. The
/// virtual sequence number is drawn at exactly the point the per-step
/// backend would issue its `schedule` call, so boundary keys compare
/// like per-step queue keys.
fn arm_boundary(st: &mut ClusterSt, p: usize, now: SimTime) {
    if let Some(done) = start_work(st, p, now) {
        let vseq = st.next_vseq;
        st.next_vseq += 1;
        st.pipes[p].boundary = Some((done, vseq));
    }
}

/// Queues `event` at `at`. An instant before the clock is a
/// structural fault, and the run stops with it.
fn schedule(st: &mut ClusterSt, at: SimTime, event: Event) -> Result<(), SimError> {
    if at < st.now {
        return Err(SimError::ScheduledIntoPast { at, now: st.now });
    }
    st.queue.push(at, event);
    Ok(())
}

/// Per-step mode: `p`'s batch/step completion event.
fn complete_pipe(st: &mut ClusterSt, p: usize) -> Result<(), SimError> {
    if complete_work(st, p, st.now) {
        start_pipe(st, p)?;
    }
    Ok(())
}

/// Kicks `p` when it is idle with work queued: one run-to-completion
/// batch or one continuous step. Per-step granularity queues the
/// completion as its own event; coalesced granularity parks it as a
/// state-held boundary for the next epoch's drain.
fn start_pipe(st: &mut ClusterSt, p: usize) -> Result<(), SimError> {
    let now = st.now;
    match st.granularity {
        StepGranularity::PerStep => {
            if let Some(done) = start_work(st, p, now) {
                schedule(st, done, Event::Completion(p))?;
            }
        }
        StepGranularity::Coalesced => arm_boundary(st, p, now),
    }
    Ok(())
}

/// The coalesced macro-step: replays every pending boundary whose
/// `(time, vseq)` key is strictly below `limit` (all of them when
/// `limit` is `None`), in the exact global order the per-step backend
/// would pop them — completion bookkeeping and the next batch/step
/// start run inline, with a min-scan over the pipes instead of a
/// priority-queue round-trip per step.
fn drain_boundaries(st: &mut ClusterSt, limit: Option<(SimTime, u64)>) {
    loop {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (p, pipe) in st.pipes.iter().enumerate() {
            if let Some((at, vseq)) = pipe.boundary {
                let better = match best {
                    None => true,
                    Some((bt, bv, _)) => (at, vseq) < (bt, bv),
                };
                if better {
                    best = Some((at, vseq, p));
                }
            }
        }
        let Some((at, vseq, p)) = best else { return };
        if let Some((lt, lv)) = limit {
            if (at, vseq) >= (lt, lv) {
                return;
            }
        }
        st.pipes[p].boundary = None;
        if complete_work(st, p, at) {
            arm_boundary(st, p, at);
        }
    }
}

/// Serves `num_requests` Poisson arrivals through a cluster of
/// `spec.pipelines` independent replicas of `server`'s pipeline,
/// dispatched by `spec.scheduler` and batched at the granularity
/// `spec.continuous` selects.
///
/// With one pipeline, round-robin dispatch, continuous batching off,
/// accept-all admission, and no deadlines this reproduces
/// [`run_online`]'s statistics bit for bit; the extra pipelines,
/// alternative dispatchers, admission policies, deadlines, and
/// step-granularity admission are strict generalizations on the same
/// [`ServiceModel`].
///
/// Request conservation and per-pipeline busy time are tracked with a
/// [`simaudit::Auditor`]; the resulting report (when auditing is
/// active) is attached to the returned [`ClusterReport`].
///
/// This is the one-group [`run_cluster_mix`]: the report is
/// byte-identical to `run_cluster_mix(&[(server, spec.pipelines)], …)`.
///
/// # Errors
///
/// Propagates batch validation from the underlying [`Server`];
/// returns [`HelmError::InvalidConfig`] when `spec.pipelines` is zero.
pub fn run_cluster(
    server: &Server,
    workload: &WorkloadSpec,
    arrivals: &mut PoissonArrivals,
    num_requests: usize,
    spec: ClusterSpec,
) -> Result<ClusterReport, HelmError> {
    run_cluster_mix(
        &[(server, spec.pipelines)],
        workload,
        arrivals,
        num_requests,
        spec,
    )
}

/// Serves `num_requests` Poisson arrivals through a **heterogeneous**
/// cluster: each `(server, count)` group contributes `count` replicas
/// of that server's pipeline, with the [`ServiceModel`] calibrated
/// once per group (the caller expresses "distinct configuration" by
/// the grouping). `spec.pipelines` is ignored; the cluster size is
/// the sum of the group counts.
///
/// The point of mixing: a latency-tuned small-batch replica and a
/// throughput-tuned large-batch replica behind one
/// [`SchedulerKind::LeastFinishTime`] or
/// [`SchedulerKind::DeadlineAware`] dispatcher serve mixed-SLO
/// traffic better than either homogeneous cluster — the dispatcher
/// prices each replica with its own model and routes accordingly.
///
/// # Errors
///
/// Propagates batch validation from the underlying [`Server`] runs;
/// returns [`HelmError::InvalidConfig`] when the groups contribute no
/// pipeline at all.
pub fn run_cluster_mix(
    groups: &[(&Server, usize)],
    workload: &WorkloadSpec,
    arrivals: &mut PoissonArrivals,
    num_requests: usize,
    spec: ClusterSpec,
) -> Result<ClusterReport, HelmError> {
    run_cluster_mix_cached(
        groups,
        workload,
        arrivals,
        num_requests,
        spec,
        &mut CalibrationCache::new(),
    )
}

/// [`run_cluster_mix_cached`] with span collection on: returns the
/// report together with every served request's span tree. The report
/// is byte-identical to the untraced run.
///
/// # Errors
///
/// Same contract as [`run_cluster_mix`].
pub fn run_cluster_mix_traced(
    groups: &[(&Server, usize)],
    workload: &WorkloadSpec,
    arrivals: &mut PoissonArrivals,
    num_requests: usize,
    spec: ClusterSpec,
    cache: &mut CalibrationCache,
) -> Result<(ClusterReport, Trace), HelmError> {
    let groups = calibrate_groups(groups, workload, cache)?;
    let mut trace = Trace::default();
    let report = run_models(
        groups,
        workload,
        arrivals,
        num_requests,
        spec,
        Some(&mut trace),
    )?;
    Ok((report, trace))
}

/// [`run_cluster_mix`] with the calibration memo held by the caller:
/// repeated runs over mixes drawn from the same replica
/// configurations (a λ sweep, a benchmark loop) pay the two
/// calibration pipeline runs once per *distinct* configuration
/// instead of once per group per call. A warm cache makes the
/// per-call calibration cost zero; the simulation itself is
/// unchanged, so reports are bit-identical to the uncached path.
///
/// # Errors
///
/// Propagates batch validation from the underlying [`Server`] runs;
/// returns [`HelmError::InvalidConfig`] when the groups contribute no
/// pipeline at all.
pub fn run_cluster_mix_cached(
    groups: &[(&Server, usize)],
    workload: &WorkloadSpec,
    arrivals: &mut PoissonArrivals,
    num_requests: usize,
    spec: ClusterSpec,
    cache: &mut CalibrationCache,
) -> Result<ClusterReport, HelmError> {
    let groups = calibrate_groups(groups, workload, cache)?;
    run_models(groups, workload, arrivals, num_requests, spec, None)
}

/// Each group's server calibrated through `cache`, paired with its
/// replica count.
fn calibrate_groups(
    groups: &[(&Server, usize)],
    workload: &WorkloadSpec,
    cache: &mut CalibrationCache,
) -> Result<Vec<(ServiceModel, usize)>, HelmError> {
    groups
        .iter()
        .map(|(server, count)| Ok((cache.get_or_calibrate(server, workload)?, *count)))
        .collect()
}

/// Arrival `i` landing in the cluster, in either granularity: in
/// coalesced mode first replay every batch/step boundary ordered
/// before this arrival's `(time, vseq)` key, then dispatch, ledger,
/// admission, queue, kick the pipe if idle — and queue the successor
/// in the lazy arrival chain.
fn fire_arrival(st: &mut ClusterSt, i: usize, req: Req, vseq: u64) -> Result<(), HelmError> {
    if st.granularity == StepGranularity::Coalesced {
        drain_boundaries(st, Some((req.at, vseq)));
    }
    st.events += 1;
    let now = st.now;
    let (p, priced) = dispatch(st, i, req.deadline, now);
    st.audit.observe_time("cluster", now);
    st.audit.enqueued(&st.channels[p], 1);
    if !admit(st, p, priced, &req, now) {
        st.audit.abandoned(&st.channels[p], 1);
        st.pipes[p].rejected += 1;
    } else {
        push_request(st, p, req);
        if st.pipes[p].idle {
            start_pipe(st, p)?;
        }
    }
    schedule_next_arrival(st, i + 1)
}

/// Draws arrival `i`'s instant and deadline and queues it. Exactly
/// one arrival is ever pending — the chain replaces the seed code's
/// up-front loop that boxed one closure per request before the
/// simulation started, which at a million requests dominated both
/// allocation and peak queue population. The virtual sequence number
/// is drawn here, at the same program point the per-step engine
/// sequences its queue pushes, so arrival keys and boundary keys
/// interleave identically across granularities.
///
/// # Errors
///
/// Returns [`HelmError::InvalidConfig`] when the instant is not
/// finite: the arrival rate is so small that the arrival would never
/// fire.
fn schedule_next_arrival(st: &mut ClusterSt, i: usize) -> Result<(), HelmError> {
    if st.remaining == 0 {
        return Ok(());
    }
    st.remaining -= 1;
    let at = st.arrivals.next_arrival();
    if !at.as_secs().is_finite() {
        return Err(HelmError::InvalidConfig(
            "arrival rate too small: an arrival instant overflows to infinity",
        ));
    }
    let deadline = st.deadliner.next(at);
    let vseq = st.next_vseq;
    st.next_vseq += 1;
    let req = Req {
        at,
        admitted: at,
        deadline,
    };
    Ok(schedule(st, at, Event::Arrival { i, req, vseq })?)
}

/// The cluster engine's event loop: pops every queued event in
/// `(time, seq)` order and fires it, then replays the boundaries
/// still in flight after the last arrival (the coalesced
/// end-of-traffic drain; per-step runs have none left).
///
/// # Errors
///
/// Stops at the first fault: [`SimError::ClockWentBackwards`] if the
/// queue hands back an event before the clock, or whatever a handler
/// returns.
fn run_events(st: &mut ClusterSt) -> Result<(), HelmError> {
    while let Some((at, event)) = st.queue.pop() {
        if at < st.now {
            return Err(SimError::ClockWentBackwards { at, now: st.now }.into());
        }
        st.now = at;
        match event {
            Event::Arrival { i, req, vseq } => fire_arrival(st, i, req, vseq)?,
            Event::Completion(p) => complete_pipe(st, p)?,
        }
    }
    drain_boundaries(st, None);
    Ok(())
}

/// The one cluster simulation behind every entry point: `count`
/// replicas of each calibrated `(model, count)` group (pipelines
/// labelled with their group index) serving Poisson arrivals under
/// `spec`'s dispatch, admission, deadline, and recording policies.
/// Span trees are collected only when a `trace_out` sink is given —
/// the report is byte-identical either way.
///
/// # Errors
///
/// Returns [`HelmError::InvalidConfig`] when the groups contribute no
/// pipeline at all or an arrival instant overflows, and
/// [`HelmError::Simulation`] on an event-loop fault.
pub(crate) fn run_models(
    groups: Vec<(ServiceModel, usize)>,
    workload: &WorkloadSpec,
    arrivals: &mut PoissonArrivals,
    num_requests: usize,
    spec: ClusterSpec,
    trace_out: Option<&mut Trace>,
) -> Result<ClusterReport, HelmError> {
    let mut models = Vec::with_capacity(groups.len());
    let mut pipes = Vec::new();
    for (g, (model, count)) in groups.into_iter().enumerate() {
        models.push(model);
        pipes.extend((0..count).map(|_| Pipe::new(g)));
    }
    if pipes.is_empty() {
        return Err(HelmError::InvalidConfig(
            "a cluster mix needs at least one pipeline",
        ));
    }
    let n = pipes.len();
    let (queue_delay, e2e) = match spec.record {
        RecordMode::Full => (LatencyStats::full(), LatencyStats::full()),
        // Fixed-stream reservoir seeds: replacement draws must not
        // depend on the workload so aggregate runs replay bit for bit.
        RecordMode::Aggregate => (
            LatencyStats::sampled(SimRng::from_seed_and_stream(0, "cluster-queue-delay")),
            LatencyStats::sampled(SimRng::from_seed_and_stream(0, "cluster-e2e")),
        ),
    };
    let mut st = ClusterSt {
        pipes,
        models,
        continuous: spec.continuous,
        scheduler: spec.scheduler,
        admission: spec.admission,
        record: spec.record,
        granularity: spec.granularity,
        queue_delay,
        e2e,
        batch_sizes: Vec::new(),
        last_completion: SimTime::ZERO,
        slo_violations: 0,
        met: 0,
        attribution: Attribution::default(),
        trace: trace_out.is_some().then(Trace::default),
        audit: Auditor::capture(),
        arrivals: arrivals.clone(),
        deadliner: DeadlineAssigner::new(spec.deadlines),
        remaining: num_requests,
        member_pool: Vec::new(),
        channels: (0..n).map(req_channel).collect(),
        next_vseq: 0,
        events: 0,
        now: SimTime::ZERO,
        queue: EventQueue::new(),
    };
    // Seed the lazy chain with arrival 0; each arrival queues its
    // successor.
    schedule_next_arrival(&mut st, 0)?;
    let first_arrival = st.queue.peek_time().unwrap_or(SimTime::ZERO);
    run_events(&mut st)?;
    if let (Some(out), Some(collected)) = (trace_out, st.trace.take()) {
        *out = collected;
    }
    // Hand the advanced process back: successive cluster runs continue
    // the arrival stream exactly as successive `take` calls would.
    *arrivals = st.arrivals.clone();

    let makespan = st.last_completion.max(first_arrival) - first_arrival;
    let mut audit = st.audit;
    let mut per_pipeline = Vec::with_capacity(n);
    let mut util_sum = 0.0;
    let mut served = 0u64;
    let mut rejected = 0u64;
    let mut expired = 0u64;
    for (p, pipe) in st.pipes.iter().enumerate() {
        let utilization = busy_fraction(&mut audit, &format!("pipe{p}"), pipe.busy, makespan);
        util_sum += utilization;
        served += pipe.served;
        rejected += pipe.rejected;
        expired += pipe.expired;
        per_pipeline.push(PipelineStats {
            config: pipe.model,
            served: pipe.served,
            rejected: pipe.rejected,
            expired: pipe.expired,
            busy: pipe.busy,
            batches: pipe.batches,
            utilization,
        });
    }
    // Every admitted request completes, so the throughput base and
    // the queue-delay sample count must agree whatever the admission
    // policy sheds.
    debug_assert_eq!(served, st.queue_delay.count());
    let secs = makespan.as_secs().max(f64::MIN_POSITIVE);
    let tokens = served * workload.gen_len as u64;
    let tokens_met = st.met * workload.gen_len as u64;
    Ok(ClusterReport {
        served,
        rejected,
        expired,
        slo_violations: st.slo_violations,
        met: st.met,
        events: st.events,
        makespan,
        queue_delay: st.queue_delay,
        e2e_latency: st.e2e,
        batch_sizes: st.batch_sizes,
        utilization: util_sum / n as f64,
        tokens_per_s: tokens as f64 / secs,
        tokens_per_s_met: tokens_met as f64 / secs,
        attribution: st.attribution,
        per_pipeline,
        audit: audit.finish_if_active(),
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementKind;
    use crate::policy::Policy;
    use crate::system::SystemConfig;
    use hetmem::HostMemoryConfig;
    use llm::ModelConfig;

    fn server(placement: PlacementKind, batch: u32) -> Server {
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
            .with_placement(placement)
            .with_compression(true)
            .with_batch_size(batch);
        Server::new(
            SystemConfig::paper_platform(HostMemoryConfig::nvdram()),
            model,
            policy,
        )
        .unwrap()
    }

    #[test]
    fn poisson_arrivals_have_the_right_rate() {
        let mut p = PoissonArrivals::new(10.0, 7);
        let times = p.take(4000);
        let span = times.last().unwrap().as_secs();
        let rate = 4000.0 / span;
        assert!((rate - 10.0).abs() < 0.6, "rate {rate}");
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn successive_takes_continue_the_process() {
        // The regression this guards: `take` once reset the clock to
        // zero on every call, so a second draw restarted the process
        // and handed out arrival times from the past.
        let mut split = PoissonArrivals::new(2.0, 13);
        let mut a = split.take(5);
        a.extend(split.take(5));
        let whole = PoissonArrivals::new(2.0, 13).take(10);
        assert_eq!(a, whole);
        assert!(
            a.windows(2).all(|w| w[0] < w[1]),
            "arrivals must be strictly increasing across take calls: {a:?}"
        );
    }

    #[test]
    fn light_load_rarely_queues() {
        let s = server(PlacementKind::AllCpu, 8);
        // Mean inter-arrival (2000 s) >> service (~135 s): queueing is
        // the exception (short exponential gaps), not the rule.
        let mut arrivals = PoissonArrivals::new(1.0 / 2000.0, 1);
        let r = run_online(&s, &WorkloadSpec::paper_default(), &mut arrivals, 12).unwrap();
        let service_ms = r.makespan.as_millis() / 12.0;
        assert!(
            r.mean_queue_delay_ms() < service_ms * 0.10,
            "queue {} vs service {service_ms}",
            r.mean_queue_delay_ms()
        );
        assert!(r.utilization < 0.25, "utilization {}", r.utilization);
        let singles = r.batch_sizes.iter().filter(|&&b| b == 1).count();
        assert!(singles * 2 > r.batch_sizes.len());
    }

    #[test]
    fn heavy_load_queues_and_fills_batches() {
        let s = server(PlacementKind::AllCpu, 44);
        // Arrivals far faster than service: batches fill to the cap.
        let mut arrivals = PoissonArrivals::new(5.0, 2);
        let r = run_online(&s, &WorkloadSpec::paper_default(), &mut arrivals, 132).unwrap();
        assert!(r.batch_sizes.iter().skip(1).any(|&b| b == 44));
        assert!(r.mean_queue_delay_ms() > 1000.0);
        assert!(r.utilization > 0.95);
    }

    #[test]
    fn bigger_batches_sustain_higher_load() {
        // At an arrival rate the batch-8 baseline cannot sustain, the
        // batch-44 All-CPU server keeps end-to-end latency bounded.
        let ws = WorkloadSpec::paper_default();
        let lambda = 0.15; // req/s
        let n = 120;
        let small = run_online(
            &server(PlacementKind::Baseline, 8),
            &ws,
            &mut PoissonArrivals::new(lambda, 3),
            n,
        )
        .unwrap();
        let large = run_online(
            &server(PlacementKind::AllCpu, 44),
            &ws,
            &mut PoissonArrivals::new(lambda, 3),
            n,
        )
        .unwrap();
        assert!(
            large.e2e_percentile_ms(95.0) < small.e2e_percentile_ms(95.0) / 2.0,
            "p95 {} vs {}",
            large.e2e_percentile_ms(95.0),
            small.e2e_percentile_ms(95.0)
        );
        assert!(large.tokens_per_s > small.tokens_per_s * 0.9);
    }

    #[test]
    fn report_accounting_is_consistent() {
        let s = server(PlacementKind::Helm, 4);
        let mut arrivals = PoissonArrivals::new(0.05, 9);
        let r = run_online(&s, &WorkloadSpec::paper_default(), &mut arrivals, 20).unwrap();
        assert_eq!(r.served, 20);
        let batched: u32 = r.batch_sizes.iter().sum();
        assert_eq!(batched as usize, 20);
        assert_eq!(r.queue_delay.count(), 20);
        assert_eq!(r.e2e_latency.count(), 20);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
    }

    #[test]
    fn service_model_interpolates_between_calibration_points() {
        let s = server(PlacementKind::AllCpu, 8);
        let ws = WorkloadSpec::paper_default();
        let m = ServiceModel::calibrate(&s, &ws).unwrap();
        assert_eq!(m.max_batch(), 8);
        assert_eq!(m.gen_len(), ws.gen_len);
        // Totals at the calibration points match the reports.
        let full = s.run(&ws).unwrap();
        assert_eq!(m.total(8), full.total_time);
        // Interpolation is monotone between the points.
        assert!(m.total(1) <= m.total(4) && m.total(4) <= m.total(8));
        // The split is consistent with the total at both calibration
        // points: total ≈ ttft + (gen_len-1) * mean tbt.
        for b in [1u32, 8] {
            let rebuilt =
                m.prefill(b).as_secs() + (ws.gen_len - 1) as f64 * m.decode_step(b).as_secs();
            let total = m.total(b).as_secs();
            assert!(
                (rebuilt - total).abs() / total < 0.05,
                "batch {b}: split {rebuilt} vs total {total}"
            );
        }
    }

    /// Every calibrated field, pinned through `f64::to_bits` at the
    /// values the two-`Server` calibration produced, so a faster
    /// calibration must reproduce it bit for bit. The cases are the
    /// three capacity-planner templates, HeLM b8 (whose capacity
    /// demotion applies at batch 8 but not at batch 1), and a split
    /// disk/host placement with KV write-backs.
    #[test]
    fn calibrated_models_are_pinned_bit_for_bit() {
        let ws = WorkloadSpec::new(128, 21, 1);
        let ssd_kv = {
            let model = ModelConfig::opt_175b();
            let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::Ssd)
                .with_batch_size(2)
                .with_kv_offload(true);
            Server::new(
                SystemConfig::paper_platform(HostMemoryConfig::ssd()),
                model,
                policy,
            )
            .unwrap()
        };
        // (name, server, max_batch, bits of [t1, tn, ttft1, ttftn,
        // tbt1, tbtn, xfer1, xfern]).
        let cases: [(&str, Server, u32, [u64; 8]); 5] = [
            (
                "helm b4",
                server(PlacementKind::Helm, 4),
                4,
                [
                    0x4058612cf5e8731d,
                    0x405887b2d0530123,
                    0x4012a91d2eac3116,
                    0x40150fbf9a75a7f2,
                    0x40129215b597c00a,
                    0x4012922bdeefb883,
                    0x3fd910c8089b96ac,
                    0x3fd8e96ae6996c9b,
                ],
            ),
            (
                "all-cpu b44",
                server(PlacementKind::AllCpu, 44),
                44,
                [
                    0x40610f88a18cc2b4,
                    0x4062816b28d98f8e,
                    0x401a168d8fc2b3fa,
                    0x40320e8360b68a6b,
                    0x4019fe2054e44820,
                    0x4019ff5dfad13068,
                    0x3fe2173a7175df2b,
                    0x3fdfc6bef0f37bc3,
                ],
            ),
            (
                "baseline b4",
                server(PlacementKind::Baseline, 4),
                4,
                [
                    0x4060fd37fdecbcc4,
                    0x4061107b152dd040,
                    0x4019f9bb27bda18f,
                    0x401c60621f2e85f8,
                    0x4019e2436de47f8d,
                    0x4019e259a053c680,
                    0x3fe1f601505f03b8,
                    0x3fe1e1bb2380792b,
                ],
            ),
            (
                "helm b8",
                server(PlacementKind::Helm, 8),
                8,
                [
                    0x4058612cf5e8731d,
                    0x40613dac2acbc541,
                    0x4012a91d2eac3116,
                    0x401fe7d8f8d7491f,
                    0x40129215b597c00a,
                    0x4019fd7bd1a1ab26,
                    0x3fd910c8089b96ac,
                    0x3fe1e49486b102d1,
                ],
            ),
            (
                "ssd baseline b2 kv",
                ssd_kv,
                2,
                [
                    0x40a1ed954e0048f4,
                    0x40a1eea21b556a31,
                    0x405b77d8fd37946a,
                    0x405b77d8fd37946a,
                    0x405b4fbda35746e8,
                    0x405b516bb8ac48e3,
                    0x3feffffe8ce118e0,
                    0x3feffffe8cf3ac6c,
                ],
            ),
        ];
        for (name, s, max_batch, bits) in &cases {
            let m = ServiceModel::calibrate(s, &ws).unwrap();
            assert_eq!(m.max_batch, *max_batch, "{name}");
            assert_eq!(m.gen_len, 21, "{name}");
            let got = [
                m.t1, m.tn, m.ttft1, m.ttftn, m.tbt1, m.tbtn, m.xfer1, m.xfern,
            ]
            .map(f64::to_bits);
            assert_eq!(got, *bits, "{name}");
        }
        // HeLM b8 is demoted at its own batch only: its batch-1 point
        // is HeLM b4's, so it cannot reuse the batch-8 placement.
        let helm8 = &cases[3].1;
        assert_ne!(&helm8.effective_placement(&ws), helm8.placement());
        assert_eq!(cases[3].3[0], cases[0].3[0]);
    }

    #[test]
    fn single_pipeline_cluster_is_bit_identical_to_run_online() {
        // The acceptance bar for the cluster path: with one pipeline,
        // round-robin dispatch, and continuous batching off, every
        // statistic reproduces the hand-rolled loop exactly — same
        // floats, not merely close.
        let ws = WorkloadSpec::paper_default();
        for (placement, batch, lambda) in [
            (PlacementKind::Baseline, 8u32, 0.05f64),
            (PlacementKind::Helm, 4, 0.02),
            (PlacementKind::AllCpu, 44, 0.15),
        ] {
            let s = server(placement, batch);
            let loop_r = run_online(&s, &ws, &mut PoissonArrivals::new(lambda, 17), 50).unwrap();
            let cluster = run_cluster(
                &s,
                &ws,
                &mut PoissonArrivals::new(lambda, 17),
                50,
                ClusterSpec::new(1),
            )
            .unwrap();
            assert_eq!(cluster.batch_sizes, loop_r.batch_sizes, "{placement}");
            assert_eq!(
                cluster.makespan.as_secs().to_bits(),
                loop_r.makespan.as_secs().to_bits(),
                "{placement} makespan"
            );
            assert_eq!(
                cluster.queue_delay.samples(),
                loop_r.queue_delay.samples(),
                "{placement} queue delays"
            );
            assert_eq!(
                cluster.e2e_latency.percentile(95.0).unwrap().to_bits(),
                loop_r.e2e_latency.percentile(95.0).unwrap().to_bits(),
                "{placement} p95"
            );
            assert_eq!(
                cluster.utilization.to_bits(),
                loop_r.utilization.to_bits(),
                "{placement} utilization"
            );
        }
    }

    #[test]
    fn jsq_tracks_load_where_round_robin_is_blind() {
        // With identical replicas and smooth Poisson traffic the two
        // dispatchers perform comparably, but they are genuinely
        // different policies: round-robin splits by arrival parity
        // while JSQ reacts to transient imbalance, and neither loses
        // a request doing so.
        let s = server(PlacementKind::AllCpu, 8);
        let ws = WorkloadSpec::paper_default();
        let mk = |sched| {
            run_cluster(
                &s,
                &ws,
                &mut PoissonArrivals::new(0.08, 23),
                80,
                ClusterSpec::new(2).with_scheduler(sched),
            )
            .unwrap()
        };
        let rr = mk(SchedulerKind::RoundRobin);
        let jsq = mk(SchedulerKind::JoinShortestQueue);
        assert_eq!(rr.served, 80);
        assert_eq!(jsq.served, 80);
        // Round-robin alternates, so its per-pipeline split is exact.
        assert!(rr.per_pipeline.iter().all(|p| p.served == 40));
        // The dispatch decisions differ observably...
        assert_ne!(rr.batch_sizes, jsq.batch_sizes);
        // ...without JSQ giving up meaningful queueing performance.
        assert!(
            jsq.queue_delay.mean() <= rr.queue_delay.mean() * 1.25,
            "jsq {} vs rr {}",
            jsq.queue_delay.mean(),
            rr.queue_delay.mean()
        );
    }

    #[test]
    fn more_pipelines_absorb_a_saturating_rate() {
        // A λ that saturates one All-CPU pipeline is comfortably
        // absorbed by four: p95 latency collapses and throughput
        // scales with the replica count.
        let s = server(PlacementKind::AllCpu, 8);
        let ws = WorkloadSpec::paper_default();
        let lambda = 0.10;
        let one = run_cluster(
            &s,
            &ws,
            &mut PoissonArrivals::new(lambda, 5),
            80,
            ClusterSpec::new(1),
        )
        .unwrap();
        let four = run_cluster(
            &s,
            &ws,
            &mut PoissonArrivals::new(lambda, 5),
            80,
            ClusterSpec::new(4).with_scheduler(SchedulerKind::JoinShortestQueue),
        )
        .unwrap();
        assert!(one.utilization > 0.95, "N=1 util {}", one.utilization);
        assert!(
            four.e2e_percentile_ms(95.0) < one.e2e_percentile_ms(95.0) / 2.0,
            "p95 {} vs {}",
            four.e2e_percentile_ms(95.0),
            one.e2e_percentile_ms(95.0)
        );
        assert!(four.tokens_per_s > one.tokens_per_s * 1.5);
        assert_eq!(four.per_pipeline.len(), 4);
        let per_pipe_served: u64 = four.per_pipeline.iter().map(|p| p.served).sum();
        assert_eq!(per_pipe_served, 80);
    }

    #[test]
    fn continuous_batching_admits_mid_flight() {
        // Run-to-completion makes a late arrival wait out the whole
        // in-flight batch; continuous batching admits it at the next
        // step boundary, so its queueing delay collapses.
        let s = server(PlacementKind::AllCpu, 8);
        let ws = WorkloadSpec::paper_default();
        // Moderate load: the pipeline is often mid-batch when a new
        // request lands, but no standing backlog builds up (at
        // saturation both modes are backlog-dominated and the
        // admission granularity stops mattering).
        let lambda = 1.0 / 300.0;
        let spec = ClusterSpec::new(1);
        let rtc = run_cluster(&s, &ws, &mut PoissonArrivals::new(lambda, 31), 40, spec).unwrap();
        let cont = run_cluster(
            &s,
            &ws,
            &mut PoissonArrivals::new(lambda, 31),
            40,
            spec.with_continuous(true),
        )
        .unwrap();
        assert_eq!(cont.served, 40);
        assert!(
            cont.queue_delay.mean() < rtc.queue_delay.mean() * 0.25,
            "continuous queue {} vs rtc {}",
            cont.queue_delay.mean(),
            rtc.queue_delay.mean()
        );
        // Every request still completes, and the audit balances.
        if let Some(audit) = &cont.audit {
            assert!(audit.is_clean(), "audit: {audit}");
            assert_eq!(audit.completed_with_prefix("requests:"), 40);
        }
    }

    #[test]
    fn cluster_audit_conserves_requests() {
        let s = server(PlacementKind::Helm, 4);
        let ws = WorkloadSpec::paper_default();
        simaudit::force_enable();
        let r = run_cluster(
            &s,
            &ws,
            &mut PoissonArrivals::new(0.05, 41),
            30,
            ClusterSpec::new(3).with_scheduler(SchedulerKind::JoinShortestQueue),
        )
        .unwrap();
        let audit = r.audit.expect("auditing forced on");
        assert!(audit.is_clean(), "audit: {audit}");
        assert_eq!(audit.completed_with_prefix("requests:"), 30);
        assert_eq!(r.served, 30);
        assert_eq!(r.e2e_latency.count(), 30);
    }

    #[test]
    fn service_model_clamps_out_of_range_batches() {
        // Regression: `lerp` computed `batch - 1` unguarded — a u32
        // underflow for batch 0 (debug panic, release garbage) — and
        // silently extrapolated past the calibrated max batch.
        let s = server(PlacementKind::AllCpu, 8);
        let m = ServiceModel::calibrate(&s, &WorkloadSpec::paper_default()).unwrap();
        assert_eq!(m.total(0), m.total(1));
        assert_eq!(m.prefill(0), m.prefill(1));
        assert_eq!(m.decode_step(0), m.decode_step(1));
        assert_eq!(m.total(100), m.total(8));
        assert_eq!(m.prefill(100), m.prefill(8));
        assert_eq!(m.decode_step(100), m.decode_step(8));
        // In-range queries are untouched by the clamp.
        assert!(m.total(1) < m.total(8));
    }

    #[test]
    fn busy_overrun_is_a_finding_not_a_clamp() {
        // Regression: per-pipeline utilization was `.min(1.0)`-clamped,
        // silently masking over-accounted busy time. The raw ratio must
        // come through, and the overrun must surface as an audit
        // violation.
        let mut audit = Auditor::new();
        let util = busy_fraction(
            &mut audit,
            "pipe0",
            SimDuration::from_secs(6.0),
            SimDuration::from_secs(5.0),
        );
        assert!((util - 1.2).abs() < 1e-12, "want the raw ratio, got {util}");
        let report = audit.finish();
        assert!(!report.is_clean(), "busy > makespan must be a finding");
        // A healthy ratio stays finding-free.
        let mut audit = Auditor::new();
        let util = busy_fraction(
            &mut audit,
            "pipe0",
            SimDuration::from_secs(4.0),
            SimDuration::from_secs(5.0),
        );
        assert!((util - 0.8).abs() < 1e-12);
        assert!(audit.finish().is_clean());
    }

    #[test]
    fn throughput_counts_served_not_offered() {
        // Regression: tokens_per_s was computed from the offered
        // request count, overstating throughput the moment admission
        // control rejects anything.
        let s = server(PlacementKind::AllCpu, 8);
        let ws = WorkloadSpec::paper_default();
        let r = run_cluster(
            &s,
            &ws,
            &mut PoissonArrivals::new(0.5, 47),
            60,
            ClusterSpec::new(1).with_admission(AdmissionPolicy::QueueCap(4)),
        )
        .unwrap();
        assert!(r.rejected > 0, "saturating load must trip the queue cap");
        assert_eq!(r.served + r.rejected, 60);
        assert_eq!(r.queue_delay.count(), r.served);
        assert_eq!(r.e2e_latency.count(), r.served);
        let from_served = (r.served * ws.gen_len as u64) as f64 / r.makespan.as_secs();
        assert_eq!(r.tokens_per_s.to_bits(), from_served.to_bits());
        let from_offered = (60 * ws.gen_len) as f64 / r.makespan.as_secs();
        assert!(r.tokens_per_s < from_offered);
    }

    #[test]
    fn fixed_slo_splits_met_from_violated() {
        let s = server(PlacementKind::AllCpu, 8);
        let ws = WorkloadSpec::paper_default();
        // λ nearly twice the batch-8 capacity (~0.058 req/s) with an
        // SLO between the unloaded e2e (~137 s) and the saturated
        // tail: early requests meet it, backlogged ones violate it.
        let r = run_cluster(
            &s,
            &ws,
            &mut PoissonArrivals::new(0.1, 51),
            40,
            ClusterSpec::new(1).with_deadlines(DeadlineSpec::Fixed(SimDuration::from_secs(300.0))),
        )
        .unwrap();
        assert_eq!(r.served, 40);
        assert_eq!(r.met + r.slo_violations, r.served);
        assert!(
            r.met > 0 && r.slo_violations > 0,
            "met {} violated {}",
            r.met,
            r.slo_violations
        );
        let goodput = (r.met * ws.gen_len as u64) as f64 / r.makespan.as_secs();
        assert_eq!(r.tokens_per_s_met.to_bits(), goodput.to_bits());
        assert!(r.tokens_per_s_met < r.tokens_per_s);
        assert!(r.slo_attainment() < 1.0 && r.slo_attainment() > 0.0);
    }

    #[test]
    fn queue_cap_rejections_balance_the_ledger() {
        let s = server(PlacementKind::AllCpu, 8);
        let ws = WorkloadSpec::paper_default();
        simaudit::force_enable();
        let r = run_cluster(
            &s,
            &ws,
            &mut PoissonArrivals::new(0.5, 61),
            50,
            ClusterSpec::new(2)
                .with_scheduler(SchedulerKind::JoinShortestQueue)
                .with_admission(AdmissionPolicy::QueueCap(3)),
        )
        .unwrap();
        assert!(r.rejected > 0);
        assert_eq!(r.served + r.rejected, 50);
        let audit = r.audit.expect("auditing forced on");
        assert!(audit.is_clean(), "{audit}");
        assert_eq!(audit.enqueued_with_prefix("requests:"), 50);
        assert_eq!(
            audit.completed_with_prefix("requests:") + audit.abandoned_with_prefix("requests:"),
            50
        );
        let per_pipe_rejected: u64 = r.per_pipeline.iter().map(|p| p.rejected).sum();
        assert_eq!(per_pipe_rejected, r.rejected);
    }

    #[test]
    fn deadline_aware_sheds_infeasible_requests() {
        let s = server(PlacementKind::AllCpu, 8);
        let ws = WorkloadSpec::paper_default();
        simaudit::force_enable();
        let r = run_cluster(
            &s,
            &ws,
            &mut PoissonArrivals::new(0.2, 53),
            50,
            ClusterSpec::new(1)
                .with_scheduler(SchedulerKind::DeadlineAware)
                .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_secs(300.0))),
        )
        .unwrap();
        assert!(r.expired > 0, "saturating load must shed expiries");
        assert_eq!(r.rejected, 0, "admission is accept-all here");
        assert_eq!(r.served + r.expired, 50);
        assert_eq!(r.queue_delay.count(), r.served);
        let audit = r.audit.expect("auditing forced on");
        assert!(audit.is_clean(), "{audit}");
        assert_eq!(audit.enqueued_with_prefix("requests:"), 50);
        assert_eq!(
            audit.completed_with_prefix("requests:") + audit.abandoned_with_prefix("requests:"),
            50
        );
    }

    #[test]
    fn deadline_feasible_admission_beats_accept_all_on_attainment() {
        // Rejecting provably-hopeless requests at arrival cannot hurt
        // SLO attainment: the requests it sheds were lost anyway, and
        // the ones it keeps see shorter queues.
        let s = server(PlacementKind::AllCpu, 8);
        let ws = WorkloadSpec::paper_default();
        let slo = DeadlineSpec::Fixed(SimDuration::from_secs(400.0));
        let base = ClusterSpec::new(1)
            .with_scheduler(SchedulerKind::LeastFinishTime)
            .with_deadlines(slo);
        let accept = run_cluster(&s, &ws, &mut PoissonArrivals::new(0.2, 67), 50, base).unwrap();
        let feasible = run_cluster(
            &s,
            &ws,
            &mut PoissonArrivals::new(0.2, 67),
            50,
            base.with_admission(AdmissionPolicy::DeadlineFeasible),
        )
        .unwrap();
        assert!(feasible.rejected > 0, "saturation must trigger rejections");
        assert_eq!(feasible.served + feasible.rejected, 50);
        assert!(
            feasible.met >= accept.met,
            "feasible {} vs accept-all {}",
            feasible.met,
            accept.met
        );
        assert!(feasible.slo_violations <= accept.slo_violations);
    }

    #[test]
    fn deadline_aware_queue_is_edf_ordered() {
        let mut st = ClusterSt {
            pipes: vec![Pipe::new(0)],
            models: Vec::new(),
            continuous: false,
            scheduler: SchedulerKind::DeadlineAware,
            admission: AdmissionPolicy::AcceptAll,
            record: RecordMode::Full,
            queue_delay: LatencyStats::full(),
            e2e: LatencyStats::full(),
            batch_sizes: Vec::new(),
            last_completion: SimTime::ZERO,
            slo_violations: 0,
            met: 0,
            attribution: Attribution::default(),
            trace: None,
            audit: Auditor::capture(),
            arrivals: PoissonArrivals::new(1.0, 0),
            deadliner: DeadlineAssigner::new(DeadlineSpec::None),
            remaining: 0,
            member_pool: Vec::new(),
            channels: vec![req_channel(0)],
            granularity: StepGranularity::default(),
            next_vseq: 0,
            events: 0,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        };
        let t = SimTime::from_secs;
        let req = |at: f64, d: Option<f64>| Req {
            at: t(at),
            admitted: t(at),
            deadline: d.map(t),
        };
        push_request(&mut st, 0, req(0.0, None));
        push_request(&mut st, 0, req(1.0, Some(50.0)));
        push_request(&mut st, 0, req(2.0, Some(10.0)));
        push_request(&mut st, 0, req(3.0, Some(50.0)));
        let order: Vec<f64> = st.pipes[0].queue.iter().map(|r| r.at.as_secs()).collect();
        // Tightest deadline first, FIFO among equal deadlines,
        // deadline-less requests last.
        assert_eq!(order, vec![2.0, 1.0, 3.0, 0.0]);
    }

    /// Hand-priced service model with exact binary-float durations,
    /// so span boundaries land on exact ticks the epoch edge-case
    /// tests below can collide with deliberately.
    fn toy_model(max_batch: u32) -> ServiceModel {
        ServiceModel {
            max_batch,
            gen_len: 2,
            t1: 10.0,
            tn: 16.0,
            ttft1: 2.0,
            ttftn: 4.0,
            tbt1: 1.0,
            tbtn: 2.0,
            xfer1: 0.5,
            xfern: 0.5,
        }
    }

    fn toy_cluster(granularity: StepGranularity, scheduler: SchedulerKind) -> ClusterSt {
        ClusterSt {
            pipes: vec![Pipe::new(0)],
            models: vec![toy_model(2)],
            continuous: false,
            scheduler,
            admission: AdmissionPolicy::AcceptAll,
            record: RecordMode::Full,
            queue_delay: LatencyStats::full(),
            e2e: LatencyStats::full(),
            batch_sizes: Vec::new(),
            last_completion: SimTime::ZERO,
            slo_violations: 0,
            met: 0,
            attribution: Attribution::default(),
            trace: None,
            audit: Auditor::capture(),
            arrivals: PoissonArrivals::new(1.0, 0),
            deadliner: DeadlineAssigner::new(DeadlineSpec::None),
            remaining: 0,
            member_pool: Vec::new(),
            channels: vec![req_channel(0)],
            granularity,
            next_vseq: 0,
            events: 0,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Ledgers and queues a request arriving at `at` seconds on the
    /// toy cluster's one pipe, as an admitted arrival would.
    fn enqueue(st: &mut ClusterSt, at: f64, deadline: Option<f64>) {
        let t = SimTime::from_secs;
        st.audit.enqueued(&st.channels[0], 1);
        push_request(
            st,
            0,
            Req {
                at: t(at),
                admitted: t(at),
                deadline: deadline.map(t),
            },
        );
    }

    #[test]
    fn deadline_expiring_mid_span_sheds_identically_across_granularities() {
        // A request's deadline (t = 5) expires strictly inside an
        // in-flight span ([0, 10]): neither granularity may act on it
        // until the epoch boundary, where DeadlineAware admission
        // sheds it as expired. Both granularities must agree on every
        // counter and balance the audit ledger.
        simaudit::force_enable();
        let run = |granularity| {
            let t = SimTime::from_secs;
            let mut st = toy_cluster(granularity, SchedulerKind::DeadlineAware);
            enqueue(&mut st, 0.0, Some(100.0));
            start_pipe(&mut st, 0).expect("t = 0");
            st.now = t(1.0);
            enqueue(&mut st, 1.0, Some(5.0));
            // The span is in flight and outlives the deadline: the
            // shed decision can only happen at its boundary.
            assert!(!st.pipes[0].idle);
            assert!(t(5.0) < st.pipes[0].free_at);
            run_events(&mut st).expect("no engine fault");
            assert_eq!(st.pipes[0].served, 1);
            assert_eq!(st.pipes[0].expired, 1);
            assert_eq!(st.met, 1);
            assert_eq!(st.slo_violations, 0);
            let audit = st.audit.finish();
            assert!(audit.is_clean(), "audit:\n{audit}");
            assert_eq!(audit.enqueued_with_prefix("requests:"), 2);
            assert_eq!(audit.completed_with_prefix("requests:"), 1);
            assert_eq!(audit.abandoned_with_prefix("requests:"), 1);
            (st.events, st.e2e.samples().to_vec(), st.batch_sizes)
        };
        assert_eq!(
            run(StepGranularity::PerStep),
            run(StepGranularity::Coalesced)
        );
    }

    #[test]
    fn arrival_on_span_boundary_tick_orders_after_the_completion() {
        // An arrival lands on the exact instant a span completes. The
        // completion was sequenced first (smaller seq at the same
        // time), so in both granularities the batch finishes before
        // the arrival is admitted: the arrival sees an idle pipe and
        // starts its own batch at the boundary tick.
        simaudit::force_enable();
        let run = |granularity| {
            let t = SimTime::from_secs;
            let mut st = toy_cluster(granularity, SchedulerKind::JoinShortestQueue);
            enqueue(&mut st, 0.0, None);
            // Arms the span [0, 10] — per-step as a queue event,
            // coalesced as the boundary key (10, vseq 0).
            start_pipe(&mut st, 0).expect("t = 0");
            // Mimic the arrival chain for an arrival at exactly
            // t = 10: its vseq is drawn *after* the span was armed,
            // precisely where schedule_next_arrival draws it, so the
            // boundary precedes it in (time, seq) order.
            let vseq = st.next_vseq;
            st.next_vseq += 1;
            // What the loop does before that arrival fires: per-step
            // pops the completion queued ahead of it, coalesced drains
            // the boundaries keyed below it.
            match granularity {
                StepGranularity::PerStep => {
                    let (at, event) = st.queue.pop().expect("completion queued");
                    assert!(matches!(event, Event::Completion(0)));
                    st.now = at;
                    complete_pipe(&mut st, 0).expect("t = 10");
                }
                StepGranularity::Coalesced => {
                    st.now = t(10.0);
                    drain_boundaries(&mut st, Some((t(10.0), vseq)));
                }
            }
            assert_eq!(st.now, t(10.0));
            assert!(
                st.pipes[0].idle,
                "the tied completion must order before the arrival"
            );
            assert_eq!(st.pipes[0].served, 1);
            enqueue(&mut st, 10.0, None);
            start_pipe(&mut st, 0).expect("t = 10");
            run_events(&mut st).expect("no engine fault");
            assert_eq!(st.pipes[0].served, 2);
            assert_eq!(st.last_completion, t(20.0));
            let audit = st.audit.finish();
            assert!(audit.is_clean(), "audit:\n{audit}");
            assert_eq!(audit.completed_with_prefix("requests:"), 2);
            (
                st.events,
                st.batch_sizes,
                st.queue_delay.samples().to_vec(),
                st.e2e.samples().to_vec(),
            )
        };
        let step = run(StepGranularity::PerStep);
        assert_eq!(step.1, vec![1, 1], "two singleton batches");
        assert_eq!(
            step.2,
            vec![0.0, 0.0],
            "no queueing on either side of the tick"
        );
        assert_eq!(step, run(StepGranularity::Coalesced));
    }

    /// Runs the toy cluster into a fault: one request is in flight
    /// over [0, 10] when an arrival at t = 5 draws its successor from
    /// a Poisson clock left behind at t = 0, so the handler queues an
    /// event before the clock.
    fn run_into_the_past(granularity: StepGranularity) -> (ClusterSt, HelmError) {
        let t = SimTime::from_secs;
        let mut st = toy_cluster(granularity, SchedulerKind::RoundRobin);
        st.arrivals = PoissonArrivals::new(1000.0, 0);
        st.remaining = 1;
        enqueue(&mut st, 0.0, None);
        start_pipe(&mut st, 0).expect("t = 0");
        let req = Req {
            at: t(5.0),
            admitted: t(5.0),
            deadline: None,
        };
        let vseq = st.next_vseq;
        st.queue.push(t(5.0), Event::Arrival { i: 1, req, vseq });
        let err = run_events(&mut st).unwrap_err();
        (st, err)
    }

    #[test]
    fn scheduling_into_past_is_a_typed_fault() {
        // The run stops at the arrival with a typed fault: the batch
        // completion queued for t = 10 never fires.
        let t = SimTime::from_secs;
        let (mut st, err) = run_into_the_past(StepGranularity::PerStep);
        match err {
            HelmError::Simulation(SimError::ScheduledIntoPast { at, now }) => {
                assert!(at < t(5.0));
                assert_eq!(now, t(5.0));
            }
            other => panic!("expected ScheduledIntoPast, got {other:?}"),
        }
        assert!(err.to_string().contains("into the past"));
        assert_eq!(st.pipes[0].served, 0, "no event after the fault fires");
        assert_eq!(st.queue.peek_time(), Some(t(10.0)));

        // A queue handing back an event before the clock is the other
        // structural fault.
        st.queue.push(t(1.0), Event::Completion(0));
        assert!(matches!(
            run_events(&mut st),
            Err(HelmError::Simulation(SimError::ClockWentBackwards { .. }))
        ));
    }

    #[test]
    fn faulted_run_stays_stopped() {
        // After the fault nothing else fires in either granularity:
        // the clock stays at the faulting arrival, the one request in
        // flight is never served, and its completion stays pending —
        // queued under per-step, parked as a boundary under coalesced,
        // because the end-of-traffic drain does not run either.
        let t = SimTime::from_secs;
        for granularity in [StepGranularity::PerStep, StepGranularity::Coalesced] {
            let (st, err) = run_into_the_past(granularity);
            assert!(
                matches!(
                    err,
                    HelmError::Simulation(SimError::ScheduledIntoPast { .. })
                ),
                "{granularity:?}: {err:?}"
            );
            assert_eq!(st.now, t(5.0), "{granularity:?}");
            assert_eq!(st.events, 1, "{granularity:?}: only the arrival fired");
            assert_eq!(st.pipes[0].served, 0, "{granularity:?}");
            assert_eq!(
                st.batch_sizes,
                vec![1],
                "{granularity:?}: only the t = 0 batch"
            );
            assert_eq!(st.last_completion, SimTime::ZERO, "{granularity:?}");
            match granularity {
                StepGranularity::PerStep => {
                    assert_eq!(st.queue.peek_time(), Some(t(10.0)));
                    assert!(st.pipes[0].boundary.is_none());
                }
                StepGranularity::Coalesced => {
                    assert_eq!(st.queue.peek_time(), None);
                    assert_eq!(st.pipes[0].boundary.map(|(at, _)| at), Some(t(10.0)));
                }
            }
        }
    }

    #[test]
    fn boundary_key_equal_to_limit_is_not_drained() {
        // The drain limit is strict: a boundary whose (time, vseq) key
        // *equals* the epoch's key stays parked — exactly as the
        // per-step queue would pop the epoch's own event first.
        simaudit::force_enable();
        let t = SimTime::from_secs;
        let mut st = toy_cluster(StepGranularity::Coalesced, SchedulerKind::JoinShortestQueue);
        st.audit.enqueued(&st.channels[0], 1);
        push_request(
            &mut st,
            0,
            Req {
                at: SimTime::ZERO,
                admitted: SimTime::ZERO,
                deadline: None,
            },
        );
        st.next_vseq = 5;
        arm_boundary(&mut st, 0, SimTime::ZERO);
        assert_eq!(st.pipes[0].boundary, Some((t(10.0), 5)));
        drain_boundaries(&mut st, Some((t(10.0), 5)));
        assert!(
            st.pipes[0].boundary.is_some(),
            "a boundary tied with the limit key must not fire"
        );
        drain_boundaries(&mut st, Some((t(10.0), 6)));
        assert!(st.pipes[0].boundary.is_none());
        assert_eq!(st.pipes[0].served, 1);
        let audit = st.audit.finish();
        assert!(audit.is_clean(), "audit:\n{audit}");
    }

    #[test]
    fn lazy_deadline_assignment_matches_batch() {
        // The streaming assigner must replay the batch assigner's
        // draws exactly — the lazy arrival chain depends on it.
        let specs = [
            DeadlineSpec::None,
            DeadlineSpec::Fixed(SimDuration::from_secs(12.0)),
            DeadlineSpec::Bimodal {
                tight: SimDuration::from_secs(5.0),
                loose: SimDuration::from_secs(60.0),
                tight_fraction: 0.3,
                seed: 9,
            },
        ];
        let times = PoissonArrivals::new(1.0, 4).take(200);
        for spec in specs {
            let batch = spec.assign(&times);
            let mut assigner = DeadlineAssigner::new(spec);
            let lazy: Vec<_> = times.iter().map(|&t| assigner.next(t)).collect();
            assert_eq!(batch, lazy, "{spec:?}");
        }
    }

    #[test]
    fn cluster_runs_continue_the_arrival_process() {
        // The engine draws arrivals lazily from a clone of the
        // caller's process and must hand the advanced clock back —
        // two cluster runs consume the stream exactly like two takes.
        let s = server(PlacementKind::Helm, 4);
        let ws = WorkloadSpec::paper_default();
        let mut a = PoissonArrivals::new(0.05, 77);
        let _ = run_cluster(&s, &ws, &mut a, 10, ClusterSpec::new(1)).unwrap();
        let mut b = PoissonArrivals::new(0.05, 77);
        let _ = b.take(10);
        assert_eq!(a.take(5), b.take(5));
    }

    #[test]
    fn aggregate_mode_matches_full_aggregates() {
        // RecordMode::Aggregate skips the per-request sample vectors;
        // everything it still reports must agree with the Full run —
        // exactly for counts, makespan, utilization, and (below the
        // reservoir capacity) percentiles.
        let s = server(PlacementKind::AllCpu, 8);
        let ws = WorkloadSpec::paper_default();
        let spec = ClusterSpec::new(2).with_scheduler(SchedulerKind::JoinShortestQueue);
        let full = run_cluster(&s, &ws, &mut PoissonArrivals::new(0.08, 81), 80, spec).unwrap();
        let agg = run_cluster(
            &s,
            &ws,
            &mut PoissonArrivals::new(0.08, 81),
            80,
            spec.with_record(RecordMode::Aggregate),
        )
        .unwrap();
        assert_eq!(agg.served, full.served);
        assert_eq!(agg.events, full.events);
        assert_eq!(agg.queue_delay.count(), full.queue_delay.count());
        assert_eq!(agg.e2e_latency.count(), full.e2e_latency.count());
        assert!(agg.batch_sizes.is_empty(), "aggregate keeps no batch log");
        assert!(!full.batch_sizes.is_empty());
        assert_eq!(
            agg.makespan.as_secs().to_bits(),
            full.makespan.as_secs().to_bits()
        );
        assert_eq!(agg.utilization.to_bits(), full.utilization.to_bits());
        assert_eq!(agg.tokens_per_s.to_bits(), full.tokens_per_s.to_bits());
        // Streaming mean vs compensated-sum mean: same samples, only
        // accumulation order differs.
        let rel = (agg.queue_delay.mean() - full.queue_delay.mean()).abs()
            / full.queue_delay.mean().max(f64::MIN_POSITIVE);
        assert!(rel < 1e-9, "aggregate mean drifted: rel {rel}");
        // 80 samples fit the reservoir, so the percentile is exact.
        assert_eq!(
            agg.e2e_latency.percentile(95.0).unwrap().to_bits(),
            full.e2e_latency.percentile(95.0).unwrap().to_bits()
        );
    }

    #[test]
    fn granularities_agree_on_cluster_reports() {
        // Macro-stepped (coalesced) boundaries replay the per-step
        // queue's (time, seq) total order exactly, so the whole report
        // — floats, sample logs, reservoir draws — must match byte for
        // byte in every mode combination, including the deadline-shed
        // and run-to-completion paths.
        let helm = server(PlacementKind::Helm, 4);
        let allcpu = server(PlacementKind::AllCpu, 44);
        let ws = WorkloadSpec::paper_default();
        for continuous in [false, true] {
            for record in [RecordMode::Full, RecordMode::Aggregate] {
                let spec = ClusterSpec::new(1)
                    .with_scheduler(SchedulerKind::DeadlineAware)
                    .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_secs(400.0)))
                    .with_continuous(continuous)
                    .with_record(record);
                let groups = [(&helm, 1usize), (&allcpu, 2usize)];
                let step = run_cluster_mix(
                    &groups,
                    &ws,
                    &mut PoissonArrivals::new(0.1, 71),
                    60,
                    spec.with_granularity(StepGranularity::PerStep),
                )
                .unwrap();
                let coal = run_cluster_mix(
                    &groups,
                    &ws,
                    &mut PoissonArrivals::new(0.1, 71),
                    60,
                    spec.with_granularity(StepGranularity::Coalesced),
                )
                .unwrap();
                assert_eq!(
                    format!("{step:?}"),
                    format!("{coal:?}"),
                    "continuous={continuous} {record:?}"
                );
            }
        }
    }

    #[test]
    fn mix_cluster_labels_configs_and_conserves() {
        let helm = server(PlacementKind::Helm, 4);
        let allcpu = server(PlacementKind::AllCpu, 44);
        let ws = WorkloadSpec::paper_default();
        simaudit::force_enable();
        let r = run_cluster_mix(
            &[(&helm, 1), (&allcpu, 2)],
            &ws,
            &mut PoissonArrivals::new(0.1, 59),
            60,
            ClusterSpec::new(1).with_scheduler(SchedulerKind::LeastFinishTime),
        )
        .unwrap();
        assert_eq!(r.per_pipeline.len(), 3);
        assert_eq!(r.per_pipeline[0].config, 0);
        assert_eq!(r.per_pipeline[1].config, 1);
        assert_eq!(r.per_pipeline[2].config, 1);
        assert_eq!(r.served, 60);
        let audit = r.audit.expect("auditing forced on");
        assert!(audit.is_clean(), "{audit}");
        assert_eq!(audit.completed_with_prefix("requests:"), 60);
        // Under least-finish-time more than one replica class does
        // real work at this load.
        assert!(
            r.per_pipeline.iter().filter(|p| p.served > 0).count() >= 2,
            "per-pipeline served: {:?}",
            r.per_pipeline.iter().map(|p| p.served).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scheduler_and_admission_parse_round_trip() {
        for s in [
            SchedulerKind::RoundRobin,
            SchedulerKind::JoinShortestQueue,
            SchedulerKind::LeastFinishTime,
            SchedulerKind::DeadlineAware,
        ] {
            assert_eq!(s.as_str().parse::<SchedulerKind>().unwrap(), s);
            assert_eq!(s.to_string(), s.as_str());
        }
        assert_eq!(
            "cap:7".parse::<AdmissionPolicy>().unwrap(),
            AdmissionPolicy::QueueCap(7)
        );
        assert_eq!(
            "deadline".parse::<AdmissionPolicy>().unwrap(),
            AdmissionPolicy::DeadlineFeasible
        );
        assert_eq!(
            "accept".parse::<AdmissionPolicy>().unwrap(),
            AdmissionPolicy::AcceptAll
        );
        assert_eq!(AdmissionPolicy::QueueCap(7).to_string(), "cap:7");
        assert!("bogus".parse::<AdmissionPolicy>().is_err());
        assert!("cap:x".parse::<AdmissionPolicy>().is_err());
        assert!("nope".parse::<SchedulerKind>().is_err());
    }

    #[test]
    fn calibration_cache_runs_once_per_distinct_config() {
        // The regression this guards: `run_cluster_mix` used to
        // recalibrate every group on every call, so a search probing
        // the same templates hundreds of times paid two pipeline runs
        // per group per probe.
        let helm = server(PlacementKind::Helm, 4);
        let allcpu = server(PlacementKind::AllCpu, 44);
        let ws = WorkloadSpec::paper_default();
        let spec = ClusterSpec::new(1).with_scheduler(SchedulerKind::LeastFinishTime);
        let mut cache = CalibrationCache::new();
        // The HeLM config appears in two groups of the same mix, and
        // the whole mix is run three times: still two calibrations.
        for _ in 0..3 {
            let groups: &[(&Server, usize)] = &[(&helm, 1), (&allcpu, 1), (&helm, 1)];
            let mut arrivals = PoissonArrivals::new(0.05, 9);
            run_cluster_mix_cached(groups, &ws, &mut arrivals, 10, spec, &mut cache).unwrap();
        }
        assert_eq!(cache.calibrations(), 2);
        assert_eq!(cache.len(), 2);
        // A warm cache changes nothing about the simulation itself:
        // the cached run is bit-identical to the uncached path.
        let groups: &[(&Server, usize)] = &[(&helm, 1), (&allcpu, 1)];
        let cached = run_cluster_mix_cached(
            groups,
            &ws,
            &mut PoissonArrivals::new(0.05, 9),
            20,
            spec,
            &mut cache,
        )
        .unwrap();
        let fresh =
            run_cluster_mix(groups, &ws, &mut PoissonArrivals::new(0.05, 9), 20, spec).unwrap();
        assert_eq!(format!("{cached:?}"), format!("{fresh:?}"));
        assert_eq!(cache.calibrations(), 2, "warm run must not recalibrate");
    }

    /// 64-bit FNV-1a of `text`.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Whole cluster reports, pinned as the FNV-1a of their `Debug`
    /// rendering with the audit ledger removed (present only when
    /// auditing is on), so an engine rewrite must reproduce every
    /// float, count and sample bit for bit. The cluster is the paper's
    /// serving mix {HeLM b4 ×2, All-CPU b44 ×2}; the runs cover
    /// continuous deadline-aware dispatch with deadline admission,
    /// continuous least-finish-time, continuous JSQ with a queue cap
    /// at one output token (every request retires at its first step),
    /// and run-to-completion deadline-aware dispatch.
    #[test]
    fn cluster_reports_are_pinned_bit_for_bit() {
        let helm = server(PlacementKind::Helm, 4);
        let allcpu = server(PlacementKind::AllCpu, 44);
        let groups = [(&helm, 2usize), (&allcpu, 2usize)];
        let bimodal = DeadlineSpec::Bimodal {
            tight: SimDuration::from_secs(130.0),
            loose: SimDuration::from_secs(400.0),
            tight_fraction: 0.1,
            seed: 42,
        };
        let edf = ClusterSpec::new(1)
            .with_scheduler(SchedulerKind::DeadlineAware)
            .with_admission(AdmissionPolicy::DeadlineFeasible)
            .with_deadlines(bimodal);
        // (name, spec, gen_len, λ, digest).
        let cases: [(&str, ClusterSpec, usize, f64, u64); 4] = [
            (
                "continuous edf deadline full",
                edf.with_continuous(true).with_record(RecordMode::Full),
                21,
                0.4,
                0xe285_5ebf_a327_e8dc,
            ),
            (
                "continuous lft accept-all",
                ClusterSpec::new(1)
                    .with_scheduler(SchedulerKind::LeastFinishTime)
                    .with_continuous(true)
                    .with_deadlines(bimodal)
                    .with_record(RecordMode::Aggregate),
                21,
                0.4,
                0x6464_633d_5e9a_a05e,
            ),
            (
                "continuous jsq cap gen 1",
                ClusterSpec::new(1)
                    .with_scheduler(SchedulerKind::JoinShortestQueue)
                    .with_admission(AdmissionPolicy::QueueCap(6))
                    .with_continuous(true),
                1,
                2.0,
                0x8c37_5b1e_853b_eef3,
            ),
            (
                "run-to-completion edf deadline",
                edf,
                21,
                0.4,
                0x26a6_9d39_94fb_c2c7,
            ),
        ];
        let mut cache = CalibrationCache::new();
        for (name, spec, gen_len, lambda, digest) in cases {
            let ws = WorkloadSpec::new(128, gen_len, 1);
            let mut r = run_cluster_mix_cached(
                &groups,
                &ws,
                &mut PoissonArrivals::new(lambda, 42),
                3000,
                spec,
                &mut cache,
            )
            .unwrap();
            assert_eq!(r.offered(), 3000, "{name}");
            r.audit = None;
            let got = fnv1a(&format!("{r:?}"));
            assert_eq!(got, digest, "{name}: {got:#018x}");
        }
    }
}
