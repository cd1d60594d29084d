//! The parallel, pruned, multi-resolution search driver.
//!
//! # Search order: screen, sort, evaluate, mass-prune
//!
//! Each resolution level runs in two passes. A cheap *screen* pass
//! rejects infeasible candidates on the placement template's byte
//! totals (no per-layer placement is materialized for them), builds
//! the placement for the survivors, and computes each survivor's
//! analytical objective-space bound ([`super::prune`]) —
//! without touching the pipeline executor and without building the
//! candidate's cost table (the bound reads the same per-layer cost
//! functions the table would cache, so pruned candidates never pay
//! for a table at all). The placement is dropped once the bound is
//! known, and an evaluation rebuilds it from the template. A level
//! holds its screened candidates until it ends; holding their
//! placements too left a level's worth of them in each worker
//! thread's allocator arena and nearly tripled the search's peak
//! resident memory. Candidates are then sorted best-bound-first
//! and costed in chunks. Because the schedule is bound-sorted and an
//! incumbent's objective only ever improves, the first pruned
//! candidate proves every candidate after it in the schedule is
//! dominated too — the whole tail is pruned in one step without being
//! touched. The expensive table build + pipeline run therefore happen
//! only for the bound-ordered prefix that might actually win.
//!
//! # Determinism
//!
//! The winner must be bit-identical to a serial sweep whatever the
//! thread count. Three mechanisms guarantee it:
//!
//! 1. the candidate schedule is fixed before parallel evaluation
//!    begins: the screen pass is a pure function of each candidate,
//!    and the sort key (bound, mha, ffn) is a total order, so the
//!    ranked schedule and its fixed-size chunk boundaries depend only
//!    on the evaluation history, never on the thread count;
//! 2. each chunk's candidates are evaluated against a pruning
//!    threshold *frozen at chunk launch*, so every per-candidate
//!    outcome is a pure function of (candidate, threshold) — and the
//!    vendored rayon's `collect` returns outcomes in input order;
//! 3. the reduction over a chunk's outcomes is serial and in order,
//!    applying the same strict-improvement rule as the serial sweep.
//!
//! Because per-candidate outcomes are pure in (candidate, threshold),
//! a level may also run entirely without the thread pool: when a
//! level has fewer candidates than `threads × CHUNK`, fan-out costs
//! more than it buys (the zoom levels are four probes each), so the
//! driver evaluates the same chunks with the same frozen thresholds
//! inline on the calling thread. The winner is bit-identical by
//! construction — only wall-clock changes.
//!
//! Pruning is winner-preserving: a candidate is pruned only when its
//! lower bound says it cannot *strictly* beat an incumbent that came
//! earlier in schedule order, and the strict-improvement rule would
//! have kept that earlier incumbent on a tie anyway.
//!
//! # Multi-resolution schedule
//!
//! A coarse 10%-step sweep of the full `(mha, ffn)` square is
//! followed by pattern descent around the incumbent: at each step
//! size in [`ZOOM_STEPS`] (5%, 2%, then 1%) the four axis neighbors
//! are probed and the search re-centers for as long as one improves.
//! The descent reaches the 1% lattice in a handful of probes instead
//! of the 10201 candidates a full fine grid would cost, and spends
//! extra evaluations only when they actually move the incumbent.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
// lint: allow(wall-clock-in-sim): SearchStats.wall_ms reports real search cost, never simulated time
use std::time::Instant;

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

use crate::error::HelmError;
use crate::exec::{run_pipeline_with, LayerCostTable, PipelineInputs, RecordMode};
use crate::metrics::RunReport;
use crate::placement::{CustomPlacementTemplate, ModelPlacement, Tier};
use crate::policy::Policy;
use crate::system::SystemConfig;
use gpusim::{MemoryBudget, ResidentCosts};
use llm::ModelConfig;
use simcore::time::SimDuration;
use simcore::units::ByteSize;
use workload::WorkloadSpec;

use super::frontier::{Frontier, FrontierPoint};
use super::prune::{bound_dominated, BoundContext};
use super::{AutoPlacement, Objective};

/// Coarse sweep step, in half-percent lattice units (10%).
const COARSE_STEP: u32 = 20;
/// Pattern-descent step sizes in half-percent units (5%, 2%, 1%),
/// coarse to fine. [`zoom_steps`] appends the half-percent step when
/// a [`SearchSpace`] asks for the finer lattice.
const ZOOM_STEPS: [u32; 3] = [10, 4, 2];
/// Upper bound of the GPU-share axis in half-percent units (100%).
const AXIS_MAX: u32 = 200;
/// Candidates per parallel chunk. Fixed (not thread-derived) so chunk
/// boundaries — and therefore pruning thresholds — are identical
/// whatever the thread count.
const CHUNK: usize = 8;
/// Chunk size while no incumbent exists yet. Smaller, so a (likely
/// near-optimal, thanks to the bound-sorted schedule) incumbent is
/// established after a handful of evaluations and pruning can start.
const FIRST_CHUNK: usize = 4;

/// Resource knobs for one search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchBudget {
    /// Worker threads for autoplace's candidate evaluation; 0 means
    /// auto (`RAYON_NUM_THREADS` or the machine's available
    /// parallelism). The capacity planner probes on the calling
    /// thread and ignores it.
    pub threads: usize,
    /// Cap on pipeline evaluations; 0 means unlimited. When the cap
    /// truncates the search, the best candidate found so far wins
    /// (pruned and infeasible candidates are free and don't count).
    pub max_evals: usize,
}

/// How much work one search did.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchStats {
    /// Candidates costed with a full pipeline run.
    pub evaluated: usize,
    /// Candidates skipped by the analytical lower bound.
    pub pruned: usize,
    /// Wall-clock time of the whole search (milliseconds).
    pub wall_ms: f64,
}

/// The candidate lattice one placement search walks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// Finest pattern-descent step, in half-percent units: `2` (the
    /// default) stops the descent on the 1% lattice, `1` continues to
    /// the 0.5% lattice the coarse grid could never afford to
    /// enumerate (201×201 points).
    pub fine_step_half_pct: u32,
    /// Batch sizes searched jointly with the placement shares. Empty
    /// (the default) keeps the objective's own batch rule — the
    /// policy batch for latency, the residency-derived maximum for
    /// throughput. Non-empty expands every feasible `(mha, ffn)`
    /// point into one candidate per listed batch that fits GPU memory
    /// alongside it, making the search a joint `{placement × batch}`
    /// optimization.
    pub batches: Vec<u32>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            fine_step_half_pct: 2,
            batches: Vec::new(),
        }
    }
}

/// The descent schedule down to `fine` (half-percent units): the
/// standard 5% → 2% → 1% ladder, extended to 0.5% when asked.
fn zoom_steps(fine: u32) -> Vec<u32> {
    let mut steps: Vec<u32> = ZOOM_STEPS.iter().copied().filter(|&s| s >= fine).collect();
    if steps.last() != Some(&fine.max(1)) {
        steps.push(fine.max(1));
    }
    steps
}

/// A feasible candidate after the cheap screening pass: the batch the
/// objective assigns it and its objective-space bound (`None` when no
/// sound bound exists — those sort first and are always costed). No
/// placement and no cost table: screening builds the placement only
/// to compute the bound, and only candidates that reach a pipeline
/// run rebuild it and pay for a table build.
struct Screened {
    mha: u32,
    ffn: u32,
    batch: u32,
    bound: Option<f64>,
}

/// One costed candidate, kept boxed because a `RunReport` dwarfs the
/// other `Outcome` variants. Keeps the cost table its evaluation
/// built so the winner's full-record re-cost reuses it.
struct Evaluation {
    mha: u32,
    ffn: u32,
    batch: u32,
    placement: ModelPlacement,
    table: LayerCostTable,
    report: RunReport,
}

/// What happened to one candidate.
enum Outcome {
    Evaluated(Box<Evaluation>),
    Pruned(u32, u32),
    Failed(HelmError),
}

/// Mutable search state threaded through the per-level driver.
struct SearchState {
    stats: SearchStats,
    frontier: Frontier,
    best: Option<Box<Evaluation>>,
    seen: BTreeSet<(u32, u32)>,
}

/// One placement search: the hoisted workload-invariant state plus
/// the candidate schedule driver.
pub(super) struct SearchEngine<'a> {
    system: &'a SystemConfig,
    model: &'a ModelConfig,
    policy: &'a Policy,
    workload: &'a WorkloadSpec,
    objective: Objective,
    budget: SearchBudget,
    space: SearchSpace,
    // Candidate-invariant pieces, computed once per search instead of
    // once per grid point.
    mem_budget: MemoryBudget,
    kv_per_sequence: ByteSize,
    hidden_per_sequence: ByteSize,
    host_capacity: ByteSize,
    bounds: BoundContext,
    /// Hoisted layer sequence + spec classes: per-candidate placement
    /// work is one allocation per class, and infeasible candidates
    /// are rejected on byte totals without building a placement.
    template: CustomPlacementTemplate,
    /// Per-batch memo of the micro-scaled, sorted token-1 decode
    /// computes feeding the bound. Placement-invariant, so every
    /// candidate at the same batch shares one vector: the latency
    /// objective computes it exactly once per search, the throughput
    /// objective once per distinct `max_batch`. Shared across the
    /// pool's workers; the lock guards a tiny map, and a racing
    /// double-compute is harmless (both sides produce the same
    /// vector).
    decode_computes: Mutex<BTreeMap<u32, Arc<Vec<SimDuration>>>>,
}

impl<'a> SearchEngine<'a> {
    pub(super) fn new(
        system: &'a SystemConfig,
        model: &'a ModelConfig,
        policy: &'a Policy,
        workload: &'a WorkloadSpec,
        objective: Objective,
        budget: SearchBudget,
        space: SearchSpace,
    ) -> Self {
        SearchEngine {
            system,
            model,
            policy,
            workload,
            objective,
            budget,
            space,
            mem_budget: MemoryBudget::for_gpu(system.gpu()),
            kv_per_sequence: llm::kv::kv_bytes_per_sequence(model, workload.context_len()),
            hidden_per_sequence: llm::kv::hidden_bytes_per_sequence(model, workload.context_len()),
            host_capacity: system.tier_capacity(Tier::Cpu),
            bounds: BoundContext::new(system, model, workload),
            template: CustomPlacementTemplate::new(model, policy.compressed()),
            decode_computes: Mutex::new(BTreeMap::new()),
        }
    }

    /// The memoized sorted decode-compute vector for `batch` (see the
    /// field doc). Computes outside the lock on a miss so workers
    /// never serialize on the kernel-model walk.
    fn decode_computes_for(&self, inp: &PipelineInputs<'_>, batch: u32) -> Arc<Vec<SimDuration>> {
        let cached = self
            .decode_computes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&batch)
            .cloned();
        if let Some(computes) = cached {
            return computes;
        }
        let computes = Arc::new(BoundContext::sorted_decode_computes(inp));
        self.decode_computes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(batch)
            .or_insert_with(|| computes.clone())
            .clone()
    }

    pub(super) fn run(self) -> Result<AutoPlacement, HelmError> {
        let started = Instant::now(); // lint: allow(wall-clock-in-sim): feeds SearchStats.wall_ms run metadata only
        let pool = ThreadPoolBuilder::new()
            .num_threads(self.budget.threads)
            .build()
            .unwrap_or_else(|_| unreachable!("vendored rayon pool build is infallible"));

        let mut state = SearchState {
            stats: SearchStats::default(),
            frontier: Frontier::new(),
            best: None,
            seen: BTreeSet::new(),
        };

        let mut budget_left = self.run_level(&pool, &coarse_grid(), &mut state)?;
        for step in zoom_steps(self.space.fine_step_half_pct) {
            while budget_left {
                let Some(center) = state.best.as_ref().map(|b| (b.mha, b.ffn)) else {
                    break;
                };
                budget_left = self.run_level(&pool, &plus_neighbors(center, step), &mut state)?;
                let moved = state.best.as_ref().map(|b| (b.mha, b.ffn)) != Some(center);
                if !moved {
                    break;
                }
            }
        }

        let winner = state.best.ok_or_else(|| self.no_feasible_candidate())?;
        // Candidates were costed in aggregate mode; re-cost the winner
        // once with full step records so the returned report supports
        // timelines/CSV, reusing the table its evaluation built.
        // Aggregates are bit-identical between modes (the equivalence
        // property the test suite pins down), so this cannot change
        // the winner. Not counted in `stats.evaluated`.
        let winner_policy = self.policy.clone().with_batch_size(winner.batch);
        let report = run_pipeline_with(
            &PipelineInputs {
                system: self.system,
                model: self.model,
                policy: &winner_policy,
                placement: &winner.placement,
                workload: self.workload,
            },
            &winner.table,
            RecordMode::Full,
        )?;
        state.stats.wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        Ok(AutoPlacement {
            mha_gpu_percent: f64::from(winner.mha) / 2.0,
            ffn_gpu_percent: f64::from(winner.ffn) / 2.0,
            batch: winner.batch,
            placement: winner.placement,
            report,
            stats: state.stats,
            frontier: state.frontier,
        })
    }

    /// Screens, ranks, and evaluates one level's candidates. Returns
    /// `Ok(false)` when the `max_evals` budget ran out (the caller
    /// must stop scheduling further levels).
    fn run_level(
        &self,
        pool: &rayon::ThreadPool,
        schedule: &[(u32, u32)],
        state: &mut SearchState,
    ) -> Result<bool, HelmError> {
        let pending: Vec<(u32, u32)> = schedule
            .iter()
            .copied()
            .filter(|c| state.seen.insert(*c))
            .collect();
        // Adaptive serial fallback: a level smaller than one chunk per
        // worker can't keep the pool busy, and fan-out overhead beats
        // the work (the zoom levels are four probes each). Workers are
        // clamped to the machine's parallelism first — a requested
        // thread count the hardware can't run concurrently is pure
        // spawn overhead. Outcomes are pure in (candidate, threshold)
        // and reduced in input order either way, so the winner is
        // bit-identical.
        let workers = pool
            .current_num_threads()
            .min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
        let serial = workers <= 1 || pending.len() < workers * CHUNK;
        let screened: Vec<Vec<Screened>> = if serial {
            pending.iter().map(|&c| self.screen(c)).collect()
        } else {
            pool.install(|| pending.par_iter().map(|&c| self.screen(c)).collect())
        };
        let mut ranked: Vec<Screened> = screened.into_iter().flatten().collect();
        ranked.sort_by(|a, b| self.promise_order(a, b));
        let mut cursor = 0usize;
        while cursor < ranked.len() {
            let cap = if self.budget.max_evals > 0 {
                self.budget.max_evals.saturating_sub(state.stats.evaluated)
            } else {
                usize::MAX
            };
            if cap == 0 {
                return Ok(false);
            }
            let chunk_size = if state.best.is_none() {
                FIRST_CHUNK
            } else {
                CHUNK
            };
            let take = chunk_size.min(cap).min(ranked.len() - cursor);
            let chunk = &ranked[cursor..cursor + take];
            cursor += take;
            let threshold = state.best.as_ref().map(|b| self.objective_value(&b.report));
            let outcomes: Vec<Outcome> = if serial {
                chunk.iter().map(|s| self.evaluate(s, threshold)).collect()
            } else {
                pool.install(|| {
                    chunk
                        .par_iter()
                        .map(|s| self.evaluate(s, threshold))
                        .collect()
                })
            };
            let mut chunk_pruned = false;
            for outcome in outcomes {
                match outcome {
                    Outcome::Evaluated(eval) => {
                        state.stats.evaluated += 1;
                        state.frontier.record(FrontierPoint {
                            mha_gpu_percent: f64::from(eval.mha) / 2.0,
                            ffn_gpu_percent: f64::from(eval.ffn) / 2.0,
                            batch: eval.batch,
                            tbt_ms: eval.report.tbt_ms(),
                            throughput_tps: eval.report.throughput_tps(),
                        });
                        let improved = match &state.best {
                            None => true,
                            Some(b) => self.is_better(&eval.report, &b.report),
                        };
                        if improved {
                            state.best = Some(eval);
                        }
                    }
                    Outcome::Pruned(mha, ffn) => {
                        chunk_pruned = true;
                        state.stats.pruned += 1;
                        state
                            .frontier
                            .record_pruned(f64::from(mha) / 2.0, f64::from(ffn) / 2.0);
                    }
                    Outcome::Failed(e) => return Err(e),
                }
            }
            if chunk_pruned {
                // The schedule is bound-sorted and the frozen
                // threshold only ever tightens, so every candidate
                // after a pruned one is dominated by the same
                // threshold that pruned it: prune the whole tail
                // without touching it.
                for s in &ranked[cursor..] {
                    state.stats.pruned += 1;
                    state
                        .frontier
                        .record_pruned(f64::from(s.mha) / 2.0, f64::from(s.ffn) / 2.0);
                }
                break;
            }
        }
        Ok(true)
    }

    /// The cheap feasibility-and-bound pass for one `(mha, ffn)`
    /// lattice point (half-percent units): checks feasibility on the
    /// template's byte totals, picks the candidate batches, and
    /// computes each analytical bound — no pipeline run. The
    /// placement itself is materialized only for points that pass the
    /// host-memory check (on the coarse grid, more than half fail),
    /// and only until their bounds are computed.
    /// An empty result means infeasible. With a joint batch space
    /// ([`SearchSpace::batches`]) one point expands into one
    /// candidate per listed batch that fits GPU memory alongside it.
    /// Pure in the candidate, so it can run on any worker.
    fn screen(&self, (mha, ffn): (u32, u32)) -> Vec<Screened> {
        let mha_pct = gpu_share(mha);
        let ffn_pct = gpu_share(ffn);
        // Byte totals alone decide both feasibility checks, and the
        // template's totals are exactly the built placement's totals
        // (a pinned invariant), so rejected candidates never pay for
        // per-layer placement materialization.
        let totals = self.template.totals(mha_pct, ffn_pct, OTHER_SHARE);
        if totals.cpu > self.host_capacity {
            return Vec::new();
        }
        let costs = ResidentCosts {
            weights: totals.gpu,
            staging: totals.staging,
            kv_per_sequence: self.kv_per_sequence,
            hidden_per_sequence: self.hidden_per_sequence,
        };
        let batches: Vec<u32> = if self.space.batches.is_empty() {
            match self.objective {
                Objective::Latency => {
                    if !self.mem_budget.fits(&costs, self.policy.effective_batch()) {
                        return Vec::new();
                    }
                    vec![self.policy.batch_size()]
                }
                Objective::Throughput => {
                    let max = self.mem_budget.max_batch(&costs);
                    if max == 0 {
                        return Vec::new();
                    }
                    vec![max]
                }
            }
        } else {
            self.space
                .batches
                .iter()
                .copied()
                .filter(|&b| b >= 1 && self.mem_budget.fits(&costs, b))
                .collect()
        };
        if batches.is_empty() {
            return Vec::new();
        }
        let placement = self.template.build(mha_pct, ffn_pct, OTHER_SHARE);
        batches
            .into_iter()
            .map(|batch| {
                let candidate_policy = self.policy.clone().with_batch_size(batch);
                let inputs = PipelineInputs {
                    system: self.system,
                    model: self.model,
                    policy: &candidate_policy,
                    placement: &placement,
                    workload: self.workload,
                };
                // The bound reads the same per-layer cost functions a
                // table build would cache, so no table is built here —
                // pruned candidates never pay for one.
                let computes = self.decode_computes_for(&inputs, batch);
                let bound = self
                    .bounds
                    .objective_bound(self.objective, &inputs, &computes);
                Screened {
                    mha,
                    ffn,
                    batch,
                    bound,
                }
            })
            .collect()
    }

    /// Best-bound-first total order: unbounded candidates (which must
    /// always be costed) come first, then ascending TBT floor /
    /// descending tokens-per-second ceiling, with `(mha, ffn, batch)`
    /// as the deterministic tie-break.
    fn promise_order(&self, a: &Screened, b: &Screened) -> Ordering {
        let key = |s: &Screened| (s.mha, s.ffn, s.batch);
        match (a.bound, b.bound) {
            (None, None) => key(a).cmp(&key(b)),
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(x), Some(y)) => {
                let by_bound = match self.objective {
                    Objective::Latency => x.total_cmp(&y),
                    Objective::Throughput => y.total_cmp(&x),
                };
                by_bound.then_with(|| key(a).cmp(&key(b)))
            }
        }
    }

    /// Costs one screened candidate. Pure in `(candidate, threshold)`,
    /// so it can run on any worker without affecting the result.
    fn evaluate(&self, screened: &Screened, threshold: Option<f64>) -> Outcome {
        if let (Some(bound), Some(best)) = (screened.bound, threshold) {
            if bound_dominated(self.objective, bound, best) {
                return Outcome::Pruned(screened.mha, screened.ffn);
            }
        }
        // The same placement `screen` bounded: the template is
        // deterministic.
        let placement = self.template.build(
            gpu_share(screened.mha),
            gpu_share(screened.ffn),
            OTHER_SHARE,
        );
        let candidate_policy = self.policy.clone().with_batch_size(screened.batch);
        let inputs = PipelineInputs {
            system: self.system,
            model: self.model,
            policy: &candidate_policy,
            placement: &placement,
            workload: self.workload,
        };
        // Only here — past the bound check — does the candidate pay
        // for its cost table. Aggregate mode: the search only compares
        // TBT / throughput, so no candidate pays for per-step record
        // materialization.
        let result = LayerCostTable::build(&inputs).and_then(|table| {
            run_pipeline_with(&inputs, &table, RecordMode::Aggregate).map(|report| (table, report))
        });
        match result {
            Ok((table, report)) => Outcome::Evaluated(Box::new(Evaluation {
                mha: screened.mha,
                ffn: screened.ffn,
                batch: screened.batch,
                placement,
                table,
                report,
            })),
            Err(e) => Outcome::Failed(e),
        }
    }

    fn objective_value(&self, report: &RunReport) -> f64 {
        match self.objective {
            Objective::Latency => report.tbt_ms(),
            Objective::Throughput => report.throughput_tps(),
        }
    }

    fn is_better(&self, new: &RunReport, current: &RunReport) -> bool {
        match self.objective {
            Objective::Latency => new.tbt_ms() < current.tbt_ms(),
            Objective::Throughput => new.throughput_tps() > current.throughput_tps(),
        }
    }

    fn no_feasible_candidate(&self) -> HelmError {
        HelmError::CapacityExceeded {
            tier: "cpu",
            requested: ModelPlacement::compute_custom(
                self.model,
                self.policy.compressed(),
                [0.0, 100.0, 0.0],
                [0.0, 100.0, 0.0],
                [0.0, 100.0, 0.0],
            )
            .total_on(Tier::Cpu),
            capacity: self.host_capacity,
        }
    }
}

/// The `(gpu, host, storage)` percentages of a lattice coordinate in
/// half-percent units.
fn gpu_share(half: u32) -> [f64; 3] {
    let pct = f64::from(half) / 2.0;
    [pct, 100.0 - pct, 0.0]
}

/// The embedding layers' percentages: every candidate keeps them on
/// host.
const OTHER_SHARE: [f64; 3] = [0.0, 100.0, 0.0];

/// The full coarse grid, row-major: every `(mha, ffn)` multiple of
/// [`COARSE_STEP`] in `[0, AXIS_MAX]` half-percent units.
fn coarse_grid() -> Vec<(u32, u32)> {
    let axis: Vec<u32> = (0..=AXIS_MAX).step_by(COARSE_STEP as usize).collect();
    let mut grid = Vec::with_capacity(axis.len() * axis.len());
    for &mha in &axis {
        for &ffn in &axis {
            grid.push((mha, ffn));
        }
    }
    grid
}

/// The four axis neighbors of `center` at distance `step`, clamped to
/// `[0, AXIS_MAX]`. Neighbors that clamp onto `center` itself are
/// dropped.
fn plus_neighbors((mha, ffn): (u32, u32), step: u32) -> Vec<(u32, u32)> {
    let shift = |v: u32, delta: i64| {
        let moved = (i64::from(v) + delta).clamp(0, i64::from(AXIS_MAX));
        u32::try_from(moved).unwrap_or(0)
    };
    let candidates = [
        (shift(mha, -i64::from(step)), ffn),
        (shift(mha, i64::from(step)), ffn),
        (mha, shift(ffn, -i64::from(step))),
        (mha, shift(ffn, i64::from(step))),
    ];
    candidates
        .into_iter()
        .filter(|&c| c != (mha, ffn))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_grid_is_the_11x11_lattice() {
        let grid = coarse_grid();
        assert_eq!(grid.len(), 121);
        assert_eq!(grid[0], (0, 0));
        assert_eq!(grid[120], (AXIS_MAX, AXIS_MAX));
        assert!(grid
            .iter()
            .all(|&(m, f)| m % COARSE_STEP == 0 && f % COARSE_STEP == 0));
    }

    #[test]
    fn plus_neighbors_probe_all_four_directions() {
        assert_eq!(
            plus_neighbors((100, 120), 10),
            vec![(90, 120), (110, 120), (100, 110), (100, 130)]
        );
        assert_eq!(
            plus_neighbors((20, 60), 2),
            vec![(18, 60), (22, 60), (20, 58), (20, 62)]
        );
    }

    #[test]
    fn plus_neighbors_clamp_and_drop_degenerates() {
        // Clamping at the square's corner folds two probes onto the
        // center; they must be dropped, not re-evaluated.
        assert_eq!(plus_neighbors((0, 0), 10), vec![(10, 0), (0, 10)]);
        assert_eq!(
            plus_neighbors((AXIS_MAX, AXIS_MAX), 4),
            vec![(AXIS_MAX - 4, AXIS_MAX), (AXIS_MAX, AXIS_MAX - 4)]
        );
        // One step from the edge, clamping still yields a real probe.
        assert_eq!(
            plus_neighbors((2, 100), 4),
            vec![(0, 100), (6, 100), (2, 96), (2, 104)]
        );
    }

    #[test]
    fn descent_steps_reach_the_fine_lattice() {
        // The default descent stops on the 1% lattice (2 half-units);
        // a 0.5% space appends the final half-unit step. A stalled
        // descent costs 4 probes per step.
        assert_eq!(zoom_steps(2), vec![10, 4, 2]);
        assert_eq!(zoom_steps(1), vec![10, 4, 2, 1]);
        assert_eq!(zoom_steps(4), vec![10, 4]);
        let stalled_probes = zoom_steps(1).len() * 4;
        assert!(121 + stalled_probes < 40401 / 50);
    }
}
