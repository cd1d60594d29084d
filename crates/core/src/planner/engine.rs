//! The planner's pruned, probe-then-confirm search engine.
//!
//! # Search order
//!
//! Resource levels — total replica counts — are walked cheapest
//! first, so the first level with a confirmed-feasible candidate *is*
//! the minimum-resource answer and no larger cluster is ever probed.
//! Within a level:
//!
//! 1. every mix of that total is bounded analytically
//!    ([`super::bound`]); a mix whose optimistic bound misses the
//!    target is pruned together with all of its scheduler × admission
//!    variants, before any DES run;
//! 2. the survivors expand into concrete candidates, ranked
//!    best-bound-first (ties broken by the total candidate order:
//!    counts, then scheduler, then admission — all indices into the
//!    caller's `PlanSpace`, so the schedule is a pure function of the
//!    lattice);
//! 3. candidates are probed with short capped-request DES runs in
//!    fixed-size chunks, reduced in schedule order; the first probe
//!    that clears the target is re-run at full length, and a
//!    confirmed run ends the search. A probe-feasible candidate that
//!    *fails* confirmation is skipped deterministically and the scan
//!    continues.
//!
//! # Determinism
//!
//! The report is a pure function of the lattice and the traffic: the
//! schedule and its chunk boundaries are fixed before evaluation
//! begins, each probe is a pure function of its candidate (every
//! probe replays the identical arrival prefix from the traffic seed
//! on models calibrated once, before the first probe), and the
//! reduction over each chunk's outcomes runs in schedule order.
//!
//! # Fallback
//!
//! When no candidate confirms — the target is unreachable inside the
//! lattice — the planner still returns a deterministic best effort:
//! the highest-probe-attainment candidate seen (first in schedule
//! order on ties), or, if the bound pruned everything, the
//! highest-bound mix under the first scheduler/admission variant. The
//! report marks the result infeasible rather than failing the search.

// lint: allow(wall-clock-in-sim): SearchStats.wall_ms reports real search cost, never simulated time
use std::time::Instant;

use super::bound::{bound_over, TrafficRealization};
use super::{
    run_candidate, Candidate, GroupTemplate, PlanReport, PlanSpace, PlanTarget, SearchBudget,
    SearchStats, TrafficSpec,
};
use crate::error::HelmError;
use crate::online::{CalibrationCache, ClusterReport, ServiceModel};
use crate::server::Server;
use workload::WorkloadSpec;

/// Candidates per probe chunk: each chunk is probed in full before
/// its outcomes are reduced, and `max_evals` truncates a chunk.
const CHUNK: usize = 8;

/// Every replica-count vector of length `templates` summing to
/// `total`, in lexicographic order — the deterministic mix
/// enumeration one resource level schedules.
pub(super) fn mixes_of(total: usize, templates: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = vec![0usize; templates];
    fill(&mut out, &mut current, 0, total);
    out
}

fn fill(out: &mut Vec<Vec<usize>>, current: &mut Vec<usize>, idx: usize, remaining: usize) {
    if idx + 1 == current.len() {
        current[idx] = remaining;
        out.push(current.clone());
        current[idx] = 0;
        return;
    }
    for take in 0..=remaining {
        current[idx] = take;
        fill(out, current, idx + 1, remaining - take);
    }
    current[idx] = 0;
}

/// One schedulable candidate: its mix, the analytical bound it
/// inherited from the mix, and its variant indices into the plan
/// space (the tie-break key).
struct Ranked {
    counts: Vec<usize>,
    bound: f64,
    scheduler: usize,
    admission: usize,
}

/// One capacity-planning search.
pub(super) struct PlanEngine<'a> {
    server: &'a Server,
    workload: &'a WorkloadSpec,
    traffic: &'a TrafficSpec,
    target: PlanTarget,
    space: &'a PlanSpace,
    budget: SearchBudget,
}

impl<'a> PlanEngine<'a> {
    pub(super) fn new(
        server: &'a Server,
        workload: &'a WorkloadSpec,
        traffic: &'a TrafficSpec,
        target: PlanTarget,
        space: &'a PlanSpace,
        budget: SearchBudget,
    ) -> Self {
        PlanEngine {
            server,
            workload,
            traffic,
            target,
            space,
            budget,
        }
    }

    /// Builds the candidate from its schedule entry.
    fn candidate(&self, ranked: &Ranked) -> Candidate {
        Candidate {
            counts: ranked.counts.clone(),
            scheduler: self.space.schedulers[ranked.scheduler],
            admission: self.space.admissions[ranked.admission],
        }
    }

    /// Runs one DES simulation of `ranked`'s cluster over the first
    /// `num_requests` arrivals of the traffic sequence, on the
    /// templates' calibrated `models`. Zero-count templates are
    /// dropped, so pipeline configs index the deployed groups.
    fn simulate(
        &self,
        models: &[ServiceModel],
        ranked: &Ranked,
        num_requests: usize,
    ) -> Result<ClusterReport, HelmError> {
        let groups = models
            .iter()
            .zip(&ranked.counts)
            .filter(|(_, &count)| count > 0)
            .map(|(model, &count)| (model.clone(), count))
            .collect();
        run_candidate(
            groups,
            &self.candidate(ranked),
            self.space,
            self.traffic,
            self.workload,
            num_requests,
            None,
        )
    }

    pub(super) fn run(self) -> Result<PlanReport, HelmError> {
        let started = Instant::now(); // lint: allow(wall-clock-in-sim): feeds SearchStats.wall_ms run metadata only
        let probe_requests = self
            .space
            .probe_requests
            .max(1)
            .min(self.traffic.num_requests);
        // Every template calibrated once, before the first probe: two
        // pipeline runs per distinct template for the entire search.
        let mut cache = CalibrationCache::new();
        let models = self
            .space
            .templates
            .iter()
            .map(|t| {
                let replica = self.server.reconfigured(t.placement, t.batch)?;
                cache.get_or_calibrate(&replica, self.workload)
            })
            .collect::<Result<Vec<ServiceModel>, _>>()?;
        let realization = TrafficRealization::realize(self.traffic);

        let mut stats = SearchStats::default();
        let mut candidates_total = 0usize;
        let mut confirmations = 0usize;
        let mut confirm_wall_ms = 0.0f64;
        // Best probe attainment seen, for the infeasible fallback
        // (strict improvement keeps the earliest on ties — the
        // schedule order is deterministic, so this is too).
        let mut best_probe: Option<(Candidate, f64)> = None;
        // Best analytical bound seen, for the everything-pruned
        // fallback.
        let mut best_bound: Option<(f64, Vec<usize>)> = None;
        let mut outcome: Option<(Candidate, f64, ClusterReport)> = None;
        let variants = self.space.schedulers.len() * self.space.admissions.len();

        'levels: for total in 1..=self.space.max_replicas {
            // Bound every mix of this resource level; the bound is
            // scheduler/admission-independent, so one pruned mix
            // removes all of its variants at once.
            let mut survivors: Vec<(Vec<usize>, f64)> = Vec::new();
            for counts in mixes_of(total, self.space.templates.len()) {
                candidates_total += variants;
                let groups: Vec<(&ServiceModel, usize)> =
                    models.iter().zip(counts.iter().copied()).collect();
                let bound = bound_over(&realization, &groups, self.space.continuous);
                if best_bound.as_ref().is_none_or(|(b, _)| bound > *b) {
                    best_bound = Some((bound, counts.clone()));
                }
                if bound < self.target.attainment {
                    stats.pruned += variants;
                } else {
                    survivors.push((counts, bound));
                }
            }
            let mut ranked: Vec<Ranked> = Vec::with_capacity(survivors.len() * variants);
            for (counts, bound) in &survivors {
                for scheduler in 0..self.space.schedulers.len() {
                    for admission in 0..self.space.admissions.len() {
                        ranked.push(Ranked {
                            counts: counts.clone(),
                            bound: *bound,
                            scheduler,
                            admission,
                        });
                    }
                }
            }
            ranked.sort_by(|a, b| {
                b.bound
                    .total_cmp(&a.bound)
                    .then_with(|| a.counts.cmp(&b.counts))
                    .then_with(|| a.scheduler.cmp(&b.scheduler))
                    .then_with(|| a.admission.cmp(&b.admission))
            });
            let mut cursor = 0usize;
            while cursor < ranked.len() {
                let cap = if self.budget.max_evals > 0 {
                    self.budget.max_evals.saturating_sub(stats.evaluated)
                } else {
                    usize::MAX
                };
                if cap == 0 {
                    break 'levels;
                }
                let take = CHUNK.min(cap).min(ranked.len() - cursor);
                let chunk = &ranked[cursor..cursor + take];
                cursor += take;
                let probes: Vec<Result<ClusterReport, HelmError>> = chunk
                    .iter()
                    .map(|r| self.simulate(&models, r, probe_requests))
                    .collect();
                for (ranked_candidate, probe) in chunk.iter().zip(probes) {
                    let report = probe?;
                    stats.evaluated += 1;
                    let attainment = report.slo_attainment();
                    if best_probe.as_ref().is_none_or(|(_, b)| attainment > *b) {
                        best_probe = Some((self.candidate(ranked_candidate), attainment));
                    }
                    if attainment >= self.target.attainment {
                        confirmations += 1;
                        // lint: allow(wall-clock-in-sim): feeds PlanReport.confirm_wall_ms run metadata only
                        let confirm_started = Instant::now();
                        let confirmed =
                            self.simulate(&models, ranked_candidate, self.traffic.num_requests)?;
                        confirm_wall_ms += confirm_started.elapsed().as_secs_f64() * 1000.0;
                        if confirmed.slo_attainment() >= self.target.attainment {
                            outcome =
                                Some((self.candidate(ranked_candidate), attainment, confirmed));
                            break 'levels;
                        }
                        // Probe-feasible but not confirmed: the short
                        // prefix was too optimistic. Skip it and keep
                        // scanning — deterministically, since the
                        // schedule and this rejection are both pure
                        // in the lattice.
                    }
                }
            }
        }

        let (chosen, probe_attainment, confirmed) = match outcome {
            Some(found) => found,
            None => {
                // Best effort: the strongest candidate seen, confirmed
                // at full length so the report is honest about what
                // the lattice actually delivers.
                let (candidate, probe_attainment) = match best_probe {
                    Some(best) => best,
                    None => {
                        let counts = best_bound
                            .map(|(_, counts)| counts)
                            .unwrap_or_else(|| unreachable!("plan() validates a nonempty lattice"));
                        let ranked = Ranked {
                            counts,
                            bound: 0.0,
                            scheduler: 0,
                            admission: 0,
                        };
                        let report = self.simulate(&models, &ranked, probe_requests)?;
                        stats.evaluated += 1;
                        (self.candidate(&ranked), report.slo_attainment())
                    }
                };
                let ranked = Ranked {
                    counts: candidate.counts.clone(),
                    bound: 0.0,
                    scheduler: self
                        .space
                        .schedulers
                        .iter()
                        .position(|s| *s == candidate.scheduler)
                        .unwrap_or(0),
                    admission: self
                        .space
                        .admissions
                        .iter()
                        .position(|a| *a == candidate.admission)
                        .unwrap_or(0),
                };
                confirmations += 1;
                // lint: allow(wall-clock-in-sim): feeds PlanReport.confirm_wall_ms run metadata only
                let confirm_started = Instant::now();
                let confirmed = self.simulate(&models, &ranked, self.traffic.num_requests)?;
                confirm_wall_ms += confirm_started.elapsed().as_secs_f64() * 1000.0;
                (candidate, probe_attainment, confirmed)
            }
        };

        let attainment = confirmed.slo_attainment();
        let groups: Vec<(GroupTemplate, usize)> = self
            .space
            .templates
            .iter()
            .zip(&chosen.counts)
            .filter(|(_, &count)| count > 0)
            .map(|(template, &count)| (*template, count))
            .collect();
        stats.wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        Ok(PlanReport {
            feasible: attainment >= self.target.attainment,
            chosen,
            groups,
            probe_attainment,
            attainment,
            attribution: confirmed.attribution,
            confirmed,
            stats,
            candidates: candidates_total,
            confirmations,
            calibrations: cache.calibrations(),
            confirm_wall_ms,
            probe_requests,
        })
    }
}
