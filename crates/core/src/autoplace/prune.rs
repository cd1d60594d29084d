//! Analytical lower bounds that let the search skip hopeless
//! candidates without paying for a pipeline run.
//!
//! Every zig-zag step costs `max(compute, load, writeback) +
//! SYNC_OVERHEAD` ([`crate::exec::run_pipeline`]), so one decode
//! token over all `L` layers costs
//!
//! ```text
//! Σ_j max( compute_j(Decode, token=1) * micro, load_π(j) ) + L * SYNC_OVERHEAD
//! ```
//!
//! for *some* assignment `π` of layer loads to steps: a decode token's
//! steps issue every layer's load except (on the run's final token
//! only) the skipped last prefetch. The floor replaces the largest
//! load with zero (over-covering that skip) and takes the minimum over
//! all possible assignments, which an exchange argument shows is the
//! similarly-sorted pairing: sort computes and loads ascending and sum
//! `max(c↑_j, l↑_j)`. That is sound whatever order the executor
//! actually interleaves loads in, and far tighter than the classic
//! `max(Σ compute, Σ load)` relaxation it supersedes. Per-layer loads
//! come from the executor's own [`load_time`] model, priced once per
//! distinct (cpu, disk) split as the cost table prices them (a
//! per-layer sum, ~20x cheaper than the full token × layer
//! pipeline); a coarser
//! bytes-over-theoretical-link floor is kept alongside because it
//! needs no per-tier modeling. Decode compute is monotone in the token
//! index, so token 1 is the cheapest decode step. KV streaming and
//! write-back only add time, so ignoring them keeps the bound a lower
//! bound. TBT is a mean of per-token times, each of which respects the
//! floor; throughput divides a fixed token count by at least `gen_len`
//! floors.
//!
//! The bound reads only each layer's [`load_time`] and its token-1
//! decode [`compute_time`] — the exact scalars `LayerCostTable::build`
//! would cache — so screening computes it directly from the free
//! functions and never pays for the full table (prefill costs,
//! write-back modeling). Only candidates that survive to a pipeline
//! run build a table.

use crate::exec::{compute_time, load_time, PipelineInputs, SYNC_OVERHEAD};
use crate::metrics::Stage;
use crate::placement::Tier;
use crate::system::SystemConfig;
use llm::ModelConfig;
use simcore::time::SimDuration;
use simcore::units::{Bandwidth, ByteSize};
use workload::WorkloadSpec;

use super::Objective;

/// Workload- and platform-invariant inputs to the candidate bounds,
/// computed once per search.
#[derive(Debug, Clone, Copy)]
pub(super) struct BoundContext {
    /// The PCIe link's theoretical rate — an upper bound on any
    /// achievable H2D bandwidth, whatever tier the bytes live on.
    peak_link: Bandwidth,
    /// Per-pass synchronization floor: one sync per layer step.
    sync_per_pass: SimDuration,
    /// Tokens generated per sequence.
    gen_len: usize,
}

impl BoundContext {
    pub(super) fn new(system: &SystemConfig, model: &ModelConfig, workload: &WorkloadSpec) -> Self {
        BoundContext {
            peak_link: system.path().pcie().theoretical(),
            sync_per_pass: SYNC_OVERHEAD * (model.num_layers() as f64),
            gen_len: workload.gen_len,
        }
    }

    /// The per-layer token-1 decode compute times feeding
    /// [`Self::objective_bound`], micro-scaled and sorted ascending
    /// for the similarly-sorted pairing. Placement-invariant
    /// ([`compute_time`] never reads the placement), so one vector
    /// serves every candidate at the same batch — the engine memoizes
    /// it per batch instead of recomputing it per grid point.
    pub(super) fn sorted_decode_computes(inp: &PipelineInputs<'_>) -> Vec<SimDuration> {
        let micro = f64::from(inp.policy.num_gpu_batches());
        let mut computes: Vec<SimDuration> = inp
            .placement
            .layers()
            .iter()
            .map(|lp| compute_time(inp, lp.layer(), Stage::Decode, 1) * micro)
            .collect();
        computes.sort_unstable();
        computes
    }

    /// Lower bound on the time one decode token spends traversing all
    /// layers under `inp`'s placement and policy, computed straight
    /// from the per-layer cost functions (bit-identical to the values
    /// a `LayerCostTable` would cache, without building one). `None`
    /// when the placement routes through an unavailable tier — the
    /// pipeline run surfaces that error instead.
    fn decode_token_floor(
        &self,
        inp: &PipelineInputs<'_>,
        sorted_computes: &[SimDuration],
    ) -> Option<SimDuration> {
        let placed = inp.placement.layers();
        let dtype = inp.placement.dtype();
        let cpu_ws = inp.placement.total_on(Tier::Cpu);
        let disk_ws = inp.placement.total_on(Tier::Disk);
        // `(cpu bytes, disk bytes, load)` per layer. A split priced
        // before is looked up here, latest first, as the cost table
        // does: `load_time` reads nothing else of the layer.
        let mut loads: Vec<(ByteSize, ByteSize, SimDuration)> = Vec::with_capacity(placed.len());
        for lp in placed {
            let cpu = lp.bytes_on(Tier::Cpu, dtype);
            let disk = lp.bytes_on(Tier::Disk, dtype);
            let load = match loads.iter().rev().find(|&&(c, d, _)| c == cpu && d == disk) {
                Some(&(_, _, load)) => load,
                None => load_time(inp, lp, cpu_ws, disk_ws).ok()?,
            };
            loads.push((cpu, disk, load));
        }
        // Drop the largest load (the final token may skip exactly one
        // prefetch) and pair the remainder with a zero-load step.
        loads.sort_unstable_by_key(|&(_, _, load)| load);
        if let Some(last) = loads.last_mut() {
            last.2 = SimDuration::ZERO;
        }
        loads.rotate_right(1);
        let paired: SimDuration = sorted_computes
            .iter()
            .zip(&loads)
            .map(|(&c, &(_, _, l))| c.max(l))
            .fold(SimDuration::ZERO, |acc, step| acc + step);
        let working_set = inp.placement.offloaded_working_set();
        // `largest_offloaded_layer`, from the splits read above.
        let skipped = loads
            .iter()
            .map(|&(cpu, disk, _)| cpu + disk)
            .max()
            .unwrap_or(ByteSize::ZERO);
        let link_floor = self.peak_link.time_for(working_set - skipped);
        Some(paired.max(link_floor) + self.sync_per_pass)
    }

    /// The candidate's bound in objective space: a lower bound on TBT
    /// (ms) for [`Objective::Latency`], an upper bound on tokens/s for
    /// [`Objective::Throughput`]. `None` when no sound bound exists
    /// (degenerate workload, or a tier error the evaluation will
    /// surface) — such candidates must always be costed.
    pub(super) fn objective_bound(
        &self,
        objective: Objective,
        inp: &PipelineInputs<'_>,
        sorted_computes: &[SimDuration],
    ) -> Option<f64> {
        match objective {
            Objective::Latency => {
                // TBT averages decode tokens; with none generated the
                // metric is degenerate and pruning has no sound bound.
                if self.gen_len < 2 {
                    return None;
                }
                Some(self.decode_token_floor(inp, sorted_computes)?.as_millis())
            }
            Objective::Throughput => {
                let floor = self.decode_token_floor(inp, sorted_computes)?;
                let tokens = inp.workload.tokens_generated(inp.policy.effective_batch());
                let floor_secs = floor.as_secs() * (self.gen_len as f64);
                if floor_secs <= 0.0 {
                    return None;
                }
                Some((tokens as f64) / floor_secs)
            }
        }
    }

    /// Whether `inp` provably cannot strictly beat the incumbent's
    /// objective value `best` (lower TBT ms for latency, higher
    /// tokens/s for throughput). `false` means "might win — cost it".
    #[cfg(test)]
    pub(super) fn cannot_beat(
        &self,
        objective: Objective,
        inp: &PipelineInputs<'_>,
        best: f64,
    ) -> bool {
        self.objective_bound(objective, inp, &BoundContext::sorted_decode_computes(inp))
            .is_some_and(|bound| bound_dominated(objective, bound, best))
    }
}

/// Whether a candidate whose objective-space bound is `bound` provably
/// cannot strictly beat an incumbent at `best`: its best-case TBT is
/// no lower (latency) or its best-case tokens/s no higher (throughput).
pub(super) fn bound_dominated(objective: Objective, bound: f64, best: f64) -> bool {
    match objective {
        Objective::Latency => bound >= best,
        Objective::Throughput => bound <= best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_pipeline;
    use crate::placement::{ModelPlacement, PlacementKind};
    use crate::policy::Policy;
    use hetmem::HostMemoryConfig;

    fn bound_vs_actual(
        memory: HostMemoryConfig,
        kind: PlacementKind,
        compressed: bool,
        batch: u32,
    ) {
        let system = SystemConfig::paper_platform(memory.clone());
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, memory.kind())
            .with_placement(kind)
            .with_compression(compressed)
            .with_batch_size(batch);
        let workload = WorkloadSpec::paper_default();
        let placement = ModelPlacement::compute(&model, &policy);
        let inp = PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement: &placement,
            workload: &workload,
        };
        let ctx = BoundContext::new(&system, &model, &workload);
        let report = run_pipeline(&inp).expect("pipeline runs");
        let floor = ctx
            .decode_token_floor(&inp, &BoundContext::sorted_decode_computes(&inp))
            .expect("tiers available");

        let floor_ms = floor.as_millis();
        assert!(
            floor_ms <= report.tbt_ms() * (1.0 + 1e-9),
            "{kind:?}: floor {floor_ms} ms vs actual TBT {} ms",
            report.tbt_ms()
        );
        // The floor should also be a *useful* bound, not a vacuous 0.
        assert!(
            floor_ms > report.tbt_ms() * 0.5,
            "vacuous floor {floor_ms} vs {}",
            report.tbt_ms()
        );

        let tokens = workload.tokens_generated(policy.effective_batch()) as f64;
        let ceiling = tokens / (floor.as_secs() * workload.gen_len as f64);
        assert!(
            ceiling >= report.throughput_tps() * (1.0 - 1e-9),
            "{kind:?}: ceiling {ceiling} tps vs actual {} tps",
            report.throughput_tps()
        );
    }

    #[test]
    fn floor_never_exceeds_actual_tbt() {
        bound_vs_actual(HostMemoryConfig::nvdram(), PlacementKind::Baseline, true, 1);
        bound_vs_actual(HostMemoryConfig::nvdram(), PlacementKind::Helm, true, 1);
        bound_vs_actual(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, true, 44);
        bound_vs_actual(HostMemoryConfig::dram(), PlacementKind::Helm, true, 8);
        // Split disk/DRAM streaming still respects both floors.
        bound_vs_actual(HostMemoryConfig::ssd(), PlacementKind::Baseline, false, 1);
    }

    #[test]
    fn direct_costs_match_table_cached_costs() {
        // The bound's soundness story leans on reading the exact
        // scalars `LayerCostTable::build` would cache; pin the
        // bit-identity per layer.
        use crate::exec::LayerCostTable;
        let system = SystemConfig::paper_platform(HostMemoryConfig::nvdram());
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
            .with_compression(true)
            .with_batch_size(1);
        let workload = WorkloadSpec::paper_default();
        let placement = ModelPlacement::compute(&model, &policy);
        let inp = PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement: &placement,
            workload: &workload,
        };
        let table = LayerCostTable::build(&inp).expect("table builds");
        let cpu_ws = placement.total_on(Tier::Cpu);
        let disk_ws = placement.total_on(Tier::Disk);
        for (j, lp) in placement.layers().iter().enumerate() {
            assert_eq!(
                table.load(j),
                load_time(&inp, lp, cpu_ws, disk_ws).expect("tier available"),
                "load mismatch at layer {j}"
            );
            assert_eq!(
                table.compute_time(system.gpu(), j, Stage::Decode, 1),
                compute_time(&inp, lp.layer(), Stage::Decode, 1),
                "decode compute mismatch at layer {j}"
            );
        }
    }

    #[test]
    fn cannot_beat_respects_strict_improvement() {
        let system = SystemConfig::paper_platform(HostMemoryConfig::nvdram());
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
            .with_compression(true)
            .with_batch_size(1);
        let workload = WorkloadSpec::paper_default();
        let placement = ModelPlacement::compute(&model, &policy);
        let inp = PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement: &placement,
            workload: &workload,
        };
        let ctx = BoundContext::new(&system, &model, &workload);
        let floor_ms = ctx
            .decode_token_floor(&inp, &BoundContext::sorted_decode_computes(&inp))
            .expect("tiers available")
            .as_millis();
        // An incumbent exactly at the floor cannot be strictly beaten.
        assert!(ctx.cannot_beat(Objective::Latency, &inp, floor_ms));
        // An incumbent far above the floor might be.
        assert!(!ctx.cannot_beat(Objective::Latency, &inp, floor_ms * 10.0));
    }
}
