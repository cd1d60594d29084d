//! The high-level serving entry point.

use crate::error::HelmError;
use crate::exec::{
    run_pipeline, run_pipeline_traced, run_pipeline_with, LayerCostTable, PipelineInputs,
    RecordMode,
};
use crate::metrics::RunReport;
use crate::placement::{ModelPlacement, Tier};
use crate::policy::Policy;
use crate::system::SystemConfig;
use crate::trace::Trace;
use gpusim::{MemoryBudget, ResidentCosts};
use llm::ModelConfig;
use simcore::units::ByteSize;
use std::borrow::Cow;
use workload::WorkloadSpec;

/// An out-of-core LLM inference server over heterogeneous memory.
///
/// Construction computes and validates the weight placement against
/// tier capacities; [`Server::run`] additionally validates the batch
/// against GPU memory for the given workload, then executes the
/// zig-zag pipeline.
///
/// # Examples
///
/// OPT-175B does not fit an all-DRAM host uncompressed — the very
/// premise of the paper:
///
/// ```
/// use helm_core::server::Server;
/// use helm_core::system::SystemConfig;
/// use helm_core::policy::Policy;
/// use hetmem::HostMemoryConfig;
/// use llm::ModelConfig;
///
/// let model = ModelConfig::opt_175b();
/// let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::Dram);
/// let result = Server::new(
///     SystemConfig::paper_platform(HostMemoryConfig::dram()),
///     model,
///     policy,
/// );
/// assert!(result.is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Server {
    system: SystemConfig,
    model: ModelConfig,
    policy: Policy,
    placement: ModelPlacement,
}

impl Server {
    /// Builds a server, computing the placement and checking host and
    /// storage tier capacities.
    ///
    /// # Errors
    ///
    /// [`HelmError::InvalidConfig`] when the batch size times the GPU
    /// batch count overflows `u32`; [`HelmError::NoDiskTier`] when the
    /// policy targets storage the configuration lacks;
    /// [`HelmError::CapacityExceeded`] when a tier overflows.
    pub fn new(
        system: SystemConfig,
        model: ModelConfig,
        policy: Policy,
    ) -> Result<Self, HelmError> {
        if policy
            .batch_size()
            .checked_mul(policy.num_gpu_batches())
            .is_none()
        {
            return Err(HelmError::InvalidConfig(
                "the batch size times the GPU batch count exceeds u32::MAX",
            ));
        }
        let mut placement = ModelPlacement::compute(&model, &policy);
        // HeLM's GPU-resident share (FC1 of every block) may not fit
        // at all for large uncompressed models; its capacity fallback
        // applies at construction, not just per-batch (§V-B is
        // evaluated with compression, where FC1 fits).
        if policy.placement() == crate::placement::PlacementKind::Helm {
            let resident = placement.total_on(Tier::Gpu) + placement.staging_bytes();
            if resident > system.gpu().hbm_capacity() {
                placement = ModelPlacement::compute_helm_demoted(&model, &policy);
            }
        }
        let disk_bytes = placement.total_on(Tier::Disk);
        if disk_bytes > ByteSize::ZERO && system.memory().disk_device().is_none() {
            return Err(HelmError::NoDiskTier);
        }
        // Drive the host-side placement through the memkind-like
        // tiered allocator: every layer's per-tier bytes are real
        // allocations against the configured capacities.
        let mut allocator = hetmem::TieredAllocator::new();
        let cpu_tier = allocator.add_tier("cpu", system.tier_capacity(Tier::Cpu));
        let disk_tier = allocator.add_tier("disk", system.tier_capacity(Tier::Disk));
        for lp in placement.layers() {
            for (tier, id, name) in [
                (Tier::Cpu, cpu_tier, "cpu"),
                (Tier::Disk, disk_tier, "disk"),
            ] {
                let bytes = lp.bytes_on(tier, placement.dtype());
                if bytes > ByteSize::ZERO {
                    allocator
                        .allocate(id, bytes)
                        .map_err(|e| HelmError::CapacityExceeded {
                            tier: name,
                            requested: placement.total_on(tier),
                            capacity: e.available + allocator.used(id),
                        })?;
                }
            }
        }
        // The batch-independent GPU residents must fit outright.
        let gpu_resident = placement.total_on(Tier::Gpu) + placement.staging_bytes();
        if gpu_resident > system.gpu().hbm_capacity() {
            return Err(HelmError::CapacityExceeded {
                tier: "gpu",
                requested: gpu_resident,
                capacity: system.gpu().hbm_capacity(),
            });
        }
        Ok(Server {
            system,
            model,
            policy,
            placement,
        })
    }

    /// The policy's nominal placement (before any capacity fallback).
    pub fn placement(&self) -> &ModelPlacement {
        &self.placement
    }

    /// The placement actually executed for `workload`: HeLM demotes
    /// its GPU-resident FFN share to host when the batch's KV cache
    /// would not fit alongside it (the paper's Table IV batch-8 HeLM
    /// regime); every other policy serves its nominal placement.
    pub fn effective_placement(&self, workload: &WorkloadSpec) -> ModelPlacement {
        self.effective(&self.policy, workload).into_owned()
    }

    /// [`Server::effective_placement`] for `policy`'s batch, borrowing
    /// the nominal placement instead of copying it when no fallback
    /// applies. `policy` is the server's own or a batch variant of it:
    /// [`ModelPlacement::compute`] never reads the batch, so the
    /// nominal placement is the same for both, and only the demotion
    /// is decided again.
    fn effective(&self, policy: &Policy, workload: &WorkloadSpec) -> Cow<'_, ModelPlacement> {
        if policy.placement() == crate::placement::PlacementKind::Helm {
            let costs = self.costs_of(&self.placement, workload);
            let budget = MemoryBudget::for_gpu(self.system.gpu());
            if !budget.fits(&costs, policy.effective_batch()) {
                return Cow::Owned(ModelPlacement::compute_helm_demoted(&self.model, policy));
            }
        }
        Cow::Borrowed(&self.placement)
    }

    /// The effective placement for `workload` once `policy`'s batch is
    /// checked against the GPU memory it leaves — the one batch check
    /// every validated run goes through.
    fn checked_placement(
        &self,
        policy: &Policy,
        workload: &WorkloadSpec,
    ) -> Result<Cow<'_, ModelPlacement>, HelmError> {
        let placement = self.effective(policy, workload);
        let max_batch = MemoryBudget::for_gpu(self.system.gpu())
            .max_batch(&self.costs_of(&placement, workload));
        let requested = policy.effective_batch();
        if requested > max_batch {
            return Err(HelmError::BatchTooLarge {
                requested,
                max_batch,
            });
        }
        Ok(placement)
    }

    fn inputs<'a>(
        &'a self,
        policy: &'a Policy,
        placement: &'a ModelPlacement,
        workload: &'a WorkloadSpec,
    ) -> PipelineInputs<'a> {
        PipelineInputs {
            system: &self.system,
            model: &self.model,
            policy,
            placement,
            workload,
        }
    }

    fn costs_of(&self, placement: &ModelPlacement, workload: &WorkloadSpec) -> ResidentCosts {
        let context = workload.context_len();
        let kv_per_sequence = if self.policy.kv_offload() {
            // Only the live layer's cache (double-buffered) stays in
            // HBM; the rest lives on the host tier.
            ByteSize::from_bytes(
                2 * context as u64 * llm::kv::kv_bytes_per_token_per_block(&self.model),
            )
        } else {
            llm::kv::kv_bytes_per_sequence(&self.model, context)
        };
        ResidentCosts {
            weights: placement.total_on(Tier::Gpu),
            staging: placement.staging_bytes(),
            kv_per_sequence,
            hidden_per_sequence: llm::kv::hidden_bytes_per_sequence(&self.model, context),
        }
    }

    /// The platform.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The model.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// A new server on the same platform and model with a different
    /// placement policy and batch size — the building block for
    /// heterogeneous cluster mixes, where e.g. a latency-tuned HeLM
    /// batch-4 replica serves beside a throughput-tuned All-CPU
    /// batch-44 replica ([`crate::online::run_cluster_mix`]).
    ///
    /// # Errors
    ///
    /// Same validation as [`Server::new`]: the re-derived placement
    /// must fit the platform's tiers.
    pub fn reconfigured(
        &self,
        placement: crate::placement::PlacementKind,
        batch: u32,
    ) -> Result<Server, HelmError> {
        Server::new(
            self.system.clone(),
            self.model.clone(),
            self.policy
                .clone()
                .with_placement(placement)
                .with_batch_size(batch),
        )
    }

    /// GPU-resident cost breakdown for `workload`, using the
    /// effective (fallback-aware) placement.
    pub fn resident_costs(&self, workload: &WorkloadSpec) -> ResidentCosts {
        self.costs_of(&self.effective(&self.policy, workload), workload)
    }

    /// The largest batch that fits GPU memory for `workload` — the
    /// quantity All-CPU placement maximizes (paper §V-C: 8 → 44).
    pub fn max_batch(&self, workload: &WorkloadSpec) -> u32 {
        MemoryBudget::for_gpu(self.system.gpu()).max_batch(&self.resident_costs(workload))
    }

    /// Runs the serving pipeline.
    ///
    /// # Errors
    ///
    /// [`HelmError::BatchTooLarge`] when the policy's batch exceeds
    /// what GPU memory allows for this workload.
    pub fn run(&self, workload: &WorkloadSpec) -> Result<RunReport, HelmError> {
        self.run_mode(&self.policy, workload, RecordMode::Full)
    }

    /// [`Server::run`] in [`RecordMode::Aggregate`]: the same
    /// validated pipeline run with bit-identical aggregates (TTFT,
    /// TBT, throughput, traffic totals) but no per-step records — the
    /// allocation-free path online calibration and repeated
    /// evaluations use.
    ///
    /// # Errors
    ///
    /// [`HelmError::BatchTooLarge`] as for [`Server::run`].
    pub fn run_aggregate(&self, workload: &WorkloadSpec) -> Result<RunReport, HelmError> {
        self.run_mode(&self.policy, workload, RecordMode::Aggregate)
    }

    /// [`Server::run_aggregate`] at batch 1 (one micro-batch): online
    /// calibration's single-request point. It runs on this server's
    /// own placement through the same batch check, so HeLM's capacity
    /// demotion is decided again at batch 1; no second [`Server`] or
    /// placement is built.
    ///
    /// # Errors
    ///
    /// [`HelmError::BatchTooLarge`] as for [`Server::run`].
    pub(crate) fn run_aggregate_single(
        &self,
        workload: &WorkloadSpec,
    ) -> Result<RunReport, HelmError> {
        let policy = self.policy.clone().with_batch_size(1).with_gpu_batches(1);
        self.run_mode(&policy, workload, RecordMode::Aggregate)
    }

    /// [`Server::run`] with span collection on: returns the report
    /// together with every request's span tree (queue wait, weight
    /// fill, per-token prefill/decode, per-step transfer/compute
    /// segments). The report is byte-identical to [`Server::run`].
    ///
    /// # Errors
    ///
    /// [`HelmError::BatchTooLarge`] as for [`Server::run`].
    pub fn run_traced(&self, workload: &WorkloadSpec) -> Result<(RunReport, Trace), HelmError> {
        let placement = self.checked_placement(&self.policy, workload)?;
        let inputs = self.inputs(&self.policy, &placement, workload);
        run_pipeline_traced(&inputs, &LayerCostTable::build(&inputs)?, RecordMode::Full)
    }

    /// A validated run of this server's placement under `policy`, the
    /// server's own or a batch variant of it.
    fn run_mode(
        &self,
        policy: &Policy,
        workload: &WorkloadSpec,
        mode: RecordMode,
    ) -> Result<RunReport, HelmError> {
        let placement = self.checked_placement(policy, workload)?;
        let inputs = self.inputs(policy, &placement, workload);
        run_pipeline_with(&inputs, &LayerCostTable::build(&inputs)?, mode)
    }

    /// Runs the serving pipeline on the discrete-event executor
    /// ([`crate::exec_des`]): inbound streams water-fill the PCIe
    /// link and KV write-backs ride the full-duplex return path
    /// asynchronously. Agrees exactly with [`Server::run`] when
    /// neither relaxation applies.
    ///
    /// # Errors
    ///
    /// [`HelmError::BatchTooLarge`] as for [`Server::run`].
    pub fn run_des(&self, workload: &WorkloadSpec) -> Result<RunReport, HelmError> {
        let placement = self.checked_placement(&self.policy, workload)?;
        crate::exec_des::run_pipeline_des(&self.inputs(&self.policy, &placement, workload))
    }

    /// Runs the pipeline without the GPU-memory batch check (the
    /// capacity-aware HeLM fallback still applies). Useful for
    /// projections probing configurations right at the capacity edge;
    /// prefer [`Server::run`] for anything presented as a serving
    /// result.
    ///
    /// # Errors
    ///
    /// [`HelmError::TierUnavailable`] when the placement routes
    /// traffic through a tier the platform does not provide.
    pub fn run_unchecked(&self, workload: &WorkloadSpec) -> Result<RunReport, HelmError> {
        run_pipeline(&self.inputs(
            &self.policy,
            &self.effective(&self.policy, workload),
            workload,
        ))
    }

    /// Searches per-kind GPU shares for the best placement under this
    /// server's platform, model, and policy — the serving-time entry
    /// to [`crate::autoplace`]. The server's own placement is the
    /// starting policy; the search explores alternatives without
    /// mutating the server.
    ///
    /// # Errors
    ///
    /// [`HelmError::CapacityExceeded`] when no candidate placement is
    /// feasible (see [`crate::autoplace::optimize`]).
    pub fn autoplace(
        &self,
        workload: &WorkloadSpec,
        objective: crate::autoplace::Objective,
        budget: crate::autoplace::SearchBudget,
    ) -> Result<crate::autoplace::AutoPlacement, HelmError> {
        crate::autoplace::search(
            &self.system,
            &self.model,
            &self.policy,
            workload,
            objective,
            budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementKind;
    use hetmem::HostMemoryConfig;

    fn server(
        memory: HostMemoryConfig,
        kind: PlacementKind,
        compressed: bool,
        batch: u32,
    ) -> Result<Server, HelmError> {
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, memory.kind())
            .with_placement(kind)
            .with_compression(compressed)
            .with_batch_size(batch);
        Server::new(SystemConfig::paper_platform(memory), model, policy)
    }

    #[test]
    fn opt175b_uncompressed_rejected_on_dram() {
        // ~320 GB host-resident weights vs 256 GB DRAM.
        let err = server(HostMemoryConfig::dram(), PlacementKind::Baseline, false, 1)
            .expect_err("should not fit");
        assert!(matches!(
            err,
            HelmError::CapacityExceeded { tier: "cpu", .. }
        ));
    }

    #[test]
    fn opt175b_compressed_fits_dram() {
        // ~92 GB compressed: fits, the §V ideal-DRAM reference.
        assert!(server(HostMemoryConfig::dram(), PlacementKind::Baseline, true, 1).is_ok());
    }

    #[test]
    fn opt175b_fits_nvdram_uncompressed() {
        assert!(server(
            HostMemoryConfig::nvdram(),
            PlacementKind::Baseline,
            false,
            1
        )
        .is_ok());
    }

    #[test]
    fn baseline_max_batch_is_8_uncompressed() {
        // Paper Fig 4: maximum permissible batch for OPT-175B is 8.
        let s = server(
            HostMemoryConfig::nvdram(),
            PlacementKind::Baseline,
            false,
            1,
        )
        .unwrap();
        assert_eq!(s.max_batch(&WorkloadSpec::paper_default()), 8);
    }

    #[test]
    fn all_cpu_max_batch_is_44_compressed() {
        // Paper §V-C: All-CPU raises the maximum batch to 44.
        let s = server(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, true, 1).unwrap();
        assert_eq!(s.max_batch(&WorkloadSpec::paper_default()), 44);
    }

    #[test]
    fn oversized_batch_rejected_at_run() {
        let s = server(
            HostMemoryConfig::nvdram(),
            PlacementKind::Baseline,
            false,
            32,
        )
        .unwrap();
        let err = s.run(&WorkloadSpec::paper_default()).unwrap_err();
        assert!(matches!(
            err,
            HelmError::BatchTooLarge { requested: 32, .. }
        ));
    }

    #[test]
    fn disk_policy_needs_disk_tier() {
        // The SSD-style (65, 15, 20) split on a configuration with no
        // storage tier.
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::Ssd);
        let err = Server::new(
            SystemConfig::paper_platform(HostMemoryConfig::nvdram()),
            model,
            policy,
        )
        .unwrap_err();
        assert_eq!(err, HelmError::NoDiskTier);
    }

    #[test]
    fn end_to_end_run_produces_report() {
        let s = server(HostMemoryConfig::nvdram(), PlacementKind::Helm, true, 1).unwrap();
        let report = s.run(&WorkloadSpec::paper_default()).unwrap();
        assert_eq!(report.tokens_generated, 21);
        assert!(report.throughput_tps() > 0.0);
        assert!(report.summary().contains("NVDRAM"));
    }

    #[test]
    fn kv_offload_unlocks_much_larger_batches() {
        // With the cache on the host tier, GPU memory stops bounding
        // the batch at 44.
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
            .with_placement(PlacementKind::AllCpu)
            .with_compression(true)
            .with_kv_offload(true);
        let s = Server::new(
            SystemConfig::paper_platform(HostMemoryConfig::nvdram()),
            model,
            policy,
        )
        .unwrap();
        let max = s.max_batch(&WorkloadSpec::paper_default());
        assert!(max > 200, "offloaded max batch {max}");
    }

    #[test]
    fn micro_batches_count_against_the_budget() {
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
            .with_placement(PlacementKind::AllCpu)
            .with_compression(true)
            .with_batch_size(11)
            .with_gpu_batches(5); // effective 55 > 44
        let s = Server::new(
            SystemConfig::paper_platform(HostMemoryConfig::nvdram()),
            model,
            policy,
        )
        .unwrap();
        let err = s.run(&WorkloadSpec::paper_default()).unwrap_err();
        assert!(matches!(
            err,
            HelmError::BatchTooLarge { requested: 55, .. }
        ));
    }

    #[test]
    fn ssd_and_fsdax_servers_build() {
        assert!(server(HostMemoryConfig::ssd(), PlacementKind::Baseline, false, 1).is_ok());
        assert!(server(HostMemoryConfig::fsdax(), PlacementKind::Baseline, false, 1).is_ok());
    }
}
