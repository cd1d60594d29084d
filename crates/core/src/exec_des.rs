//! Discrete-event pipeline executor.
//!
//! [`crate::exec::run_pipeline`] costs each zig-zag step in closed
//! form: transfers serialize within the step and KV write-back blocks
//! its own step. This executor relaxes both approximations by playing
//! the same schedule against persistent link models:
//!
//! * all host→GPU streams of a step (weight portions from host and
//!   storage, plus offloaded KV) **water-fill the PCIe link
//!   concurrently** ([`CappedLink`]), instead of adding serially;
//! * KV write-back rides the **full-duplex return path** and may spill
//!   past its step — the next MHA layer only stalls if the previous
//!   write-back hasn't drained (a one-deep store queue, like an async
//!   D2H stream with one pinned buffer).
//!
//! The two executors agree exactly when neither relaxation applies
//! (no KV offloading, single-tier placement) — a cross-validation
//! property the test suite pins down — and the DES is never slower.
//!
//! Compute, byte counts and write-back sizes come from the shared
//! [`LayerCostTable`]. The streams themselves (per-tier weight flows
//! and write-back flows, each with its rate cap and fixed cost) are
//! priced here, once per run, so the analytic executor's table never
//! carries them.

use crate::error::HelmError;
use crate::exec::{
    audit_placement_feasibility, stream_price, tier_portions, LayerCostTable, PipelineInputs,
    RecordMode, StepAttribution, SYNC_OVERHEAD,
};
use crate::metrics::{LayerStepRecord, RunReport, Stage, StepTotals};
use crate::placement::{LayerPlacement, Tier};
use llm::layers::LayerKind;
use simaudit::Auditor;
use simcore::stats::SeriesStats;
use simcore::time::{SimDuration, SimTime};
use simcore::units::{Bandwidth, ByteSize};
use std::collections::BTreeMap;
use xfer::link::CappedLink;

/// Runs the pipeline on the discrete-event link models.
///
/// # Errors
///
/// Returns [`HelmError::TierUnavailable`] if the placement routes
/// traffic through a memory tier the platform does not provide.
pub fn run_pipeline_des(inp: &PipelineInputs<'_>) -> Result<RunReport, HelmError> {
    let table = LayerCostTable::build(inp)?;
    run_pipeline_des_with(inp, &table, RecordMode::Full)
}

/// [`run_pipeline_des`] over a prebuilt [`LayerCostTable`] with an
/// explicit [`RecordMode`]: compute and byte counts come from the
/// table, the weight and write-back flows are priced once up front,
/// and only the context-dependent KV inbound stream is priced live,
/// once per token.
///
/// # Errors
///
/// Returns [`HelmError::TierUnavailable`] as [`run_pipeline_des`]
/// does.
pub fn run_pipeline_des_with(
    inp: &PipelineInputs<'_>,
    table: &LayerCostTable,
    mode: RecordMode,
) -> Result<RunReport, HelmError> {
    let num_layers = table.num_layers();
    let gen_len = inp.workload.gen_len;
    let gpu = inp.system.gpu();
    let micro = inp.policy.num_gpu_batches();
    let effective_batch = inp.policy.effective_batch();

    // Every layer's weight flows and each stage's write-back flow,
    // priced once for the whole run.
    let disk_ws = inp.placement.total_on(Tier::Disk);
    let mut weight_flows = inp
        .placement
        .layers()
        .iter()
        .map(|lp| host_flows(inp, lp, table.cpu_ws(), disk_ws))
        .collect::<Result<Vec<_>, _>>()?;
    let writeback_flows = [
        writeback_flow(inp, table, Stage::Prefill)?,
        writeback_flow(inp, table, Stage::Decode)?,
    ];

    // Links are persistent across the whole run.
    let link_cap = inp.system.link_capacity(ByteSize::from_gb(1.0));
    let mut h2d = CappedLink::new(link_cap);
    let mut d2h = CappedLink::new(link_cap);
    let mut now = SimTime::ZERO;
    // The outstanding write-back, if any: its drain time.
    let mut writeback_done: Option<SimTime> = None;

    let mut records = match mode {
        RecordMode::Full => Vec::with_capacity(num_layers * gen_len),
        RecordMode::Aggregate => Vec::new(),
    };
    let mut totals = StepTotals::default();
    let mut tbt = SeriesStats::new();
    let mut ttft = SimDuration::ZERO;

    let mut audit = Auditor::capture();
    audit_placement_feasibility(&mut audit, inp);

    // A helper that streams a set of flows on a link starting at
    // `start` (each after its fixed setup/latency cost, overlapped
    // across flows as in the analytic model) and returns the drain
    // instant. Each flow's bytes enter the audit ledger when the
    // transfer starts and leave it when the link reports completion —
    // a flow the link loses track of shows up as an imbalance.
    let drain = |link: &mut CappedLink, audit: &mut Auditor, start: SimTime, flows: &[Flow]| {
        if flows.is_empty() {
            return start;
        }
        let fixed = flows
            .iter()
            .map(|f| f.fixed)
            .fold(SimDuration::ZERO, SimDuration::max);
        let begin = start + fixed;
        // BTreeMap, not HashMap: completion handling below iterates
        // and accumulates f64s; hash order would be run-dependent.
        let mut inflight: BTreeMap<_, &Flow> = BTreeMap::new();
        for f in flows {
            audit.scheduled(f.channel, f.bytes);
            audit.check_bandwidth(f.channel, f.cap);
            audit.check_duration(f.channel, f.fixed);
            let id = link.start(begin, f.bytes.as_f64(), f.cap);
            inflight.insert(id, f);
        }
        link.drain(begin, |_, id| {
            if let Some(f) = inflight.remove(&id) {
                audit.delivered(f.channel, f.bytes);
            }
        })
    };

    // Pipeline fill: layer 0's weights stream alone.
    now = drain(&mut h2d, &mut audit, now, &weight_flows[0]);
    let mut att = StepAttribution::default();
    att.close_at(now, true);

    for token in 0..gen_len {
        let stage = if token == 0 {
            Stage::Prefill
        } else {
            Stage::Decode
        };
        let token_start = now;
        // Compute and the KV stream depend only on the stage, the
        // token and the layer's kind: priced once per token.
        let kind_compute = table.token_compute(gpu, stage, token, micro);
        let kv_flow = table
            .kv_stream(inp, stage, token)?
            .map(|(bytes, cap)| Flow {
                bytes,
                cap,
                fixed: SimDuration::ZERO,
                channel: "h2d:kv",
            });
        let writeback = match stage {
            Stage::Prefill => &writeback_flows[0],
            Stage::Decode => &writeback_flows[1],
        };
        for j in 0..num_layers {
            let last_step = token + 1 == gen_len && j + 1 == num_layers;
            let next_index = (j + 1) % num_layers;
            let step_start = now;

            // Launch the next layer's inbound streams (weights + KV).
            let (load_done, next_kind, h2d_bytes) = if last_step {
                (step_start, None, ByteSize::ZERO)
            } else {
                let kv = kv_flow.filter(|_| table.kind(next_index) == LayerKind::Mha);
                // The KV stream rides behind the layer's weight flows
                // for this step only; once each layer's vector has
                // grown to hold it, steps allocate nothing.
                let flows = &mut weight_flows[next_index];
                let weights = flows.len();
                flows.extend(kv);
                let done = drain(&mut h2d, &mut audit, step_start, flows);
                let bytes = flows.iter().map(|f| f.bytes).sum();
                flows.truncate(weights);
                (done, Some(table.kind(next_index)), bytes)
            };

            // Compute runs in parallel with the loads.
            let compute = kind_compute.of(table.kind(j));
            let compute_done = step_start + compute;

            // KV write-back: enqueue after compute; stall only if the
            // previous write-back is still draining.
            let mut d2h_bytes = ByteSize::ZERO;
            let mut stall_until = step_start;
            if let Some(wb) = writeback {
                if table.kind(j) == LayerKind::Mha {
                    if let Some(prev) = writeback_done.take() {
                        stall_until = stall_until.max(prev);
                    }
                    let start = compute_done.max(stall_until);
                    writeback_done =
                        Some(drain(&mut d2h, &mut audit, start, std::slice::from_ref(wb)));
                    d2h_bytes = wb.bytes;
                }
            }

            now = compute_done.max(load_done).max(stall_until) + SYNC_OVERHEAD;
            att.close_at(now, load_done.max(stall_until) > compute_done);
            audit.check_duration("compute", compute);
            audit.observe_time("des", now);
            totals.record(compute, h2d_bytes, d2h_bytes);
            if mode == RecordMode::Full {
                records.push(LayerStepRecord {
                    token,
                    layer_index: j,
                    kind: table.kind(j),
                    stage,
                    compute,
                    load_next: load_done - step_start,
                    next_kind,
                    h2d_bytes,
                    d2h_bytes,
                    step: now - step_start,
                });
            }
        }
        if token == 0 {
            ttft = now - SimTime::ZERO;
        } else {
            tbt.add((now - token_start).as_secs());
        }
    }

    // The final write-back must drain before the run is complete.
    if let Some(done) = writeback_done {
        now = now.max(done);
        att.close_at(now, true);
    }

    Ok(RunReport {
        model: inp.model.name().to_owned(),
        config: inp.system.memory().kind().to_string(),
        placement: inp.policy.placement(),
        batch: effective_batch,
        compressed: inp.policy.compressed(),
        ttft,
        tbt,
        total_time: now - SimTime::ZERO,
        tokens_generated: inp.workload.tokens_generated(effective_batch),
        totals,
        records,
        achieved_distribution: inp.placement.achieved_distribution(),
        attribution: att.finish(),
        audit: audit.finish_if_active(),
    })
}

/// One host↔GPU stream: payload, rate cap, the fixed setup/latency
/// share of its standalone transfer time, and the audit ledger
/// channel its bytes are accounted on.
#[derive(Debug, Clone, Copy)]
struct Flow {
    bytes: ByteSize,
    cap: Bandwidth,
    fixed: SimDuration,
    channel: &'static str,
}

/// The host→GPU weight flows of one layer, one per tier holding any
/// of its offloaded bytes.
fn host_flows(
    inp: &PipelineInputs<'_>,
    lp: &LayerPlacement,
    cpu_ws: ByteSize,
    disk_ws: ByteSize,
) -> Result<Vec<Flow>, HelmError> {
    tier_portions(lp, inp.placement.dtype(), cpu_ws, disk_ws)
        .map(|(tier, bytes, ws)| {
            let (cap, fixed) = stream_price(inp, tier, bytes, ws)?;
            Ok(Flow {
                bytes,
                cap,
                fixed,
                channel: if tier == Tier::Disk {
                    "h2d:disk"
                } else {
                    "h2d:cpu"
                },
            })
        })
        .collect()
}

/// The KV write-back flow one MHA step of `stage` issues, `None`
/// without `kv_offload`.
fn writeback_flow(
    inp: &PipelineInputs<'_>,
    table: &LayerCostTable,
    stage: Stage,
) -> Result<Option<Flow>, HelmError> {
    let Some(wb) = table.writeback(stage) else {
        return Ok(None);
    };
    let cap = inp
        .system
        .tier_writeback_bandwidth(Tier::Cpu, wb.bytes, Some(table.cpu_ws()))
        .ok_or(HelmError::TierUnavailable { tier: "cpu" })?;
    Ok(Some(Flow {
        bytes: wb.bytes,
        cap,
        fixed: wb.time - cap.time_for(wb.bytes),
        channel: "d2h:kv",
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_pipeline;
    use crate::placement::{ModelPlacement, PlacementKind};
    use crate::policy::Policy;
    use crate::system::SystemConfig;
    use hetmem::HostMemoryConfig;
    use llm::ModelConfig;
    use workload::WorkloadSpec;

    fn both(
        memory: HostMemoryConfig,
        placement: PlacementKind,
        kv_offload: bool,
        batch: u32,
    ) -> (RunReport, RunReport) {
        let system = SystemConfig::paper_platform(memory.clone());
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, memory.kind())
            .with_placement(placement)
            .with_compression(true)
            .with_kv_offload(kv_offload)
            .with_batch_size(batch);
        let p = ModelPlacement::compute(&model, &policy);
        let workload = WorkloadSpec::paper_default();
        let inputs = PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement: &p,
            workload: &workload,
        };
        (
            run_pipeline(&inputs).expect("analytic runs"),
            run_pipeline_des(&inputs).expect("des runs"),
        )
    }

    #[test]
    fn agrees_exactly_with_analytic_on_single_tier_runs() {
        // Without KV offloading and with one host tier, the two
        // executors model identical physics.
        for placement in [PlacementKind::Baseline, PlacementKind::Helm] {
            let (analytic, des) = both(HostMemoryConfig::nvdram(), placement, false, 1);
            let rel = (des.tbt_ms() - analytic.tbt_ms()).abs() / analytic.tbt_ms();
            assert!(
                rel < 1e-6,
                "{placement}: {} vs {}",
                des.tbt_ms(),
                analytic.tbt_ms()
            );
            assert!((des.ttft_ms() - analytic.ttft_ms()).abs() / analytic.ttft_ms() < 1e-6);
        }
    }

    #[test]
    fn split_tier_runs_stay_close() {
        // SSD config splits weights across disk and DRAM; both
        // executors water-fill the same link, differing only in when
        // fixed costs apply.
        let (analytic, des) = both(HostMemoryConfig::ssd(), PlacementKind::Baseline, false, 1);
        let rel = (des.tbt_ms() - analytic.tbt_ms()).abs() / analytic.tbt_ms();
        assert!(rel < 0.05, "{} vs {}", des.tbt_ms(), analytic.tbt_ms());
    }

    #[test]
    fn des_is_never_slower_under_kv_offload() {
        // Concurrent KV-in streams and spill-over write-backs only
        // relax the analytic serialization.
        let (analytic, des) = both(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, true, 44);
        assert!(des.tbt_ms() <= analytic.tbt_ms() * (1.0 + 1e-9));
        // ...but the write-back cost does not vanish: still slower
        // than resident KV.
        let (resident, _) = both(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, false, 44);
        assert!(des.tbt_ms() > resident.tbt_ms());
    }

    #[test]
    fn traffic_accounting_matches_between_executors() {
        let (analytic, des) = both(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, true, 8);
        assert_eq!(analytic.total_h2d_bytes(), des.total_h2d_bytes());
        assert_eq!(analytic.total_d2h_bytes(), des.total_d2h_bytes());
    }

    #[test]
    fn final_writeback_extends_total_time() {
        let (_, des) = both(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, true, 8);
        let last_step_end: f64 = des.records.iter().map(|r| r.step.as_secs()).sum();
        assert!(des.total_time.as_secs() >= last_step_end - 1e-9);
    }

    /// `f64::to_bits` of total time, TTFT, then every TBT sample.
    fn des_bits(
        memory: HostMemoryConfig,
        placement: PlacementKind,
        compressed: bool,
        kv_offload: bool,
        batch: u32,
    ) -> Vec<u64> {
        let system = SystemConfig::paper_platform(memory.clone());
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, memory.kind())
            .with_placement(placement)
            .with_compression(compressed)
            .with_kv_offload(kv_offload)
            .with_batch_size(batch);
        let p = ModelPlacement::compute(&model, &policy);
        let report = run_pipeline_des(&PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement: &p,
            workload: &WorkloadSpec::paper_default(),
        })
        .expect("des runs");
        let mut bits = vec![
            report.total_time.as_secs().to_bits(),
            report.ttft.as_secs().to_bits(),
        ];
        bits.extend(report.tbt.samples().iter().map(|s| s.to_bits()));
        bits
    }

    #[test]
    fn des_output_is_pinned_bit_for_bit() {
        // Exact values, so a refactor of how the executor prices its
        // flows cannot drift by even one ulp. Split-tier: weights
        // straddle SSD and DRAM, two capped flows share the link.
        let split_tier: [u64; 22] = [
            0x40a1eb4c9da1bbe7, // total 2293.65 s
            0x405b77d8fd37947e, // TTFT 109.87 s
            0x405b4e2a8ff7b1e0,
            0x405b4e2a8ff7b176,
            0x405b4e2a8ff7b134,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b138,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b130,
            0x405b4e2a8ff7b140,
            0x405b2492079dc0c0,
        ];
        assert_eq!(
            des_bits(
                HostMemoryConfig::ssd(),
                PlacementKind::Baseline,
                false,
                false,
                1
            ),
            split_tier
        );
        // KV offload: live KV streams join the weight flows and
        // write-backs spill across steps.
        let kv_offload: [u64; 22] = [
            0x40613f1f44630cad, // total 137.97 s
            0x401fe8bb79a38fe3, // TTFT 7.98 s
            0x4019ffebf68240ed,
            0x4019ffee9b67e708,
            0x4019fff1404d8d24,
            0x4019fff3e533333c,
            0x4019fff68a18d950,
            0x4019fff92efe7f70,
            0x4019fffbd3e42588,
            0x4019fffe78c9cba0,
            0x401a00011daf6f70,
            0x401a0003c29511c0,
            0x401a0006677ab7e0,
            0x401a00090c605e00,
            0x401a000bb1460410,
            0x401a000e562baa30,
            0x401a0010fb115050,
            0x401a00139ff6f660,
            0x401a001644dc9c80,
            0x401a0018e9c242a0,
            0x401a001b8ea7ef20,
            0x4019fae5a1ad7940,
        ];
        assert_eq!(
            des_bits(
                HostMemoryConfig::nvdram(),
                PlacementKind::AllCpu,
                true,
                true,
                8
            ),
            kv_offload
        );
    }
}
