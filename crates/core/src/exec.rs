//! The zig-zag pipeline executor (paper Listing 1).
//!
//! FlexGen's schedule, per generated token `i` and layer `j`:
//!
//! ```text
//! load_weight(i, j+1)   // prefetch the next layer's offloaded weights
//! compute_layer(i, j)   // while computing the current layer
//! sync()
//! ```
//!
//! Each step therefore costs `max(compute_j, load_{j+1}, writeback_j)`
//! plus a sync overhead, and the longer-running side of the pipeline
//! sets the inference latency — the imbalance the paper's §V
//! diagnoses. Under KV offloading, `load_{j+1}` also carries the next
//! MHA layer's cache, and `writeback_j` is the write-back of an MHA
//! layer's new cache entries; otherwise `writeback_j` is zero. When a
//! layer's offloaded weights straddle the host and storage tiers, the
//! two transfers share the PCIe link ([`xfer::CappedLink`]) with
//! per-tier rate caps.

use crate::error::HelmError;
use crate::metrics::{LayerStepRecord, RunReport, Stage, StepTotals};
use crate::placement::{LayerPlacement, ModelPlacement, Tier};
use crate::policy::Policy;
use crate::system::SystemConfig;
use crate::trace::{Attribution, RequestTrace, Trace};
use gpusim::{GpuSpec, KernelProfile};
use llm::layers::{Layer, LayerKind};
use llm::weights::{DType, WeightKind};
use llm::ModelConfig;
use simaudit::Auditor;
use simcore::stats::SeriesStats;
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{duration_ticks, TraceSpan};
use simcore::units::{Bandwidth, ByteSize};
use workload::WorkloadSpec;
use xfer::link::CappedLink;

/// Per-layer synchronization and dispatch overhead (stream sync +
/// Python-side bookkeeping in FlexGen).
pub const SYNC_OVERHEAD: SimDuration = SimDuration::from_millis_const(0.25);

/// Everything a pipeline run needs.
#[derive(Debug, Clone, Copy)]
pub struct PipelineInputs<'a> {
    /// The platform.
    pub system: &'a SystemConfig,
    /// The model being served.
    pub model: &'a ModelConfig,
    /// The serving policy.
    pub policy: &'a Policy,
    /// The weight placement to execute.
    pub placement: &'a ModelPlacement,
    /// The workload shape.
    pub workload: &'a WorkloadSpec,
}

/// Name of a tier for error reporting.
fn tier_name(tier: Tier) -> &'static str {
    match tier {
        Tier::Gpu => "gpu",
        Tier::Cpu => "cpu",
        Tier::Disk => "disk",
    }
}

/// How much per-step detail a pipeline run materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordMode {
    /// Keep every [`LayerStepRecord`] — timelines, CSV export, and
    /// the per-stage/per-kind averages behind the paper's figures.
    #[default]
    Full,
    /// Skip the per-step record vector entirely and keep only the
    /// run-wide aggregates ([`RunReport::totals`], TTFT, TBT,
    /// throughput, audit ledgers). This is the allocation-free mode
    /// the autoplace engine and online calibration run in; all
    /// aggregates are bit-identical to a [`RecordMode::Full`] run.
    Aggregate,
}

/// The context-dependent decode compute of one layer.
///
/// Decode compute is token-invariant for every layer except MHA,
/// whose attention GEMM grows with the context length. For MHA the
/// cache keeps the GEMM's operands split exactly at the
/// context-dependent terms of the seed evaluator's expressions —
/// f64 addition and multiplication are not associative, so the
/// evaluator replays the same left-associated operation order
/// ([`Layer::attention_flops`], [`kernel_plan`]) and stays
/// bit-identical to recomputing from scratch.
#[derive(Debug, Clone, Copy)]
enum DecodeCompute {
    /// Kernels never touch the KV cache: one duration serves every
    /// token.
    Invariant(SimDuration),
    /// MHA decode: `pre + gemm(flops(ctx), bytes(ctx)) + post`.
    Attention {
        /// Kernel-time fold up to the GEMM (`ZERO` + dequant, when
        /// compressed).
        pre: SimDuration,
        /// Kernel time after the GEMM (norm+residual elementwise).
        post: SimDuration,
        /// Projection FLOPs for decode's one new token per sequence.
        matmul_flops: f64,
        /// `2.0 * 2.0 * batch * new_tokens(=1)` — the prefix of the
        /// attention-FLOP product before the context-length factor.
        att_prefix: f64,
        /// Hidden size (the product's final factor).
        hidden: f64,
        /// F16 weight bytes the GEMM streams.
        weight_bytes: f64,
        /// Activation bytes the GEMM reads/writes.
        act_bytes: f64,
        /// Compute batch ([`Policy::batch_size`]) for the KV read.
        batch: u32,
    },
}

/// Per-stage KV write-back costs under `kv_offload` (`new_tokens` is
/// `prompt_len` at prefill, 1 at decode — both token-invariant).
#[derive(Debug, Clone, Copy)]
struct WritebackCost {
    /// D2H payload of one MHA step.
    bytes: ByteSize,
    /// Full standalone write-back time.
    time: SimDuration,
}

/// Everything about a pipeline run that does not depend on the token
/// index, precomputed once per [`PipelineInputs`].
///
/// The zig-zag executor's hot loop runs `gen_len × num_layers` steps,
/// and almost everything it used to recompute per step is
/// token-invariant: per-layer weight [`load_time`] (the CPU/disk
/// split and its capped-link water-filling), per-layer offloaded H2D
/// byte counts, the KV write-back cost of each stage, and all decode
/// compute except the attention GEMM — which is cached as
/// coefficients of the context length (`DecodeCompute`).
/// [`run_pipeline_with`] consumes it.
///
/// The table holds one entry per layer but prices each distinct layer
/// once. Compute (prefill and decode) is priced once per
/// [`LayerKind`]: [`Layer`]'s cost methods read only its kind and the
/// model config, so every layer of one kind in a placement has one
/// shape. [`load_time`] is priced once per distinct (cpu bytes, disk
/// bytes) split, the only part of the layer it reads. Earlier prices
/// are found among the entries already built, with no side map. The
/// executor prices each kind's compute, through the first layer of
/// that kind, and the KV stream into an MHA layer once per token.
#[derive(Debug, Clone)]
pub struct LayerCostTable {
    layers: Vec<LayerCosts>,
    /// The first layer of each [`LayerKind`], by [`kind_slot`]; `None`
    /// for a kind the placement has no layer of.
    kind_layer: [Option<usize>; KINDS],
    /// `[prefill, decode]` write-back costs; `None` without
    /// `kv_offload`.
    writeback: Option<[WritebackCost; 2]>,
    prompt_len: usize,
    effective_batch: u32,
    kv_per_token: u64,
    cpu_ws: ByteSize,
}

/// The cached token-invariant costs of one layer.
#[derive(Debug, Clone)]
struct LayerCosts {
    kind: LayerKind,
    /// Transfer time of this layer's offloaded weights.
    load: SimDuration,
    /// Host-resident weight bytes (audit ledger `h2d:cpu`).
    cpu_bytes: ByteSize,
    /// Storage-resident weight bytes (audit ledger `h2d:disk`).
    disk_bytes: ByteSize,
    /// Total offloaded (streamed) weight bytes.
    offloaded: ByteSize,
    prefill_compute: SimDuration,
    decode_compute: DecodeCompute,
}

/// Number of [`LayerKind`]s.
const KINDS: usize = 4;

/// A layer kind's slot in per-kind arrays.
fn kind_slot(kind: LayerKind) -> usize {
    match kind {
        LayerKind::InputEmbed => 0,
        LayerKind::Mha => 1,
        LayerKind::Ffn => 2,
        LayerKind::OutputEmbed => 3,
    }
}

/// The compute of one step of each layer kind at one (stage, token),
/// micro-batch scaling included — what
/// [`LayerCostTable::token_compute`] prices once per token.
#[derive(Debug, Clone, Copy)]
struct TokenCompute([SimDuration; KINDS]);

impl TokenCompute {
    /// The compute of one step of a `kind` layer.
    fn of(&self, kind: LayerKind) -> SimDuration {
        self.0[kind_slot(kind)]
    }
}

impl LayerCostTable {
    /// Precomputes the table for one run configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HelmError::TierUnavailable`] if the placement routes
    /// traffic through a memory tier the platform does not provide —
    /// the same failures the executors would surface mid-run.
    pub fn build(inp: &PipelineInputs<'_>) -> Result<Self, HelmError> {
        let placed = inp.placement.layers();
        let cpu_ws = inp.placement.total_on(Tier::Cpu);
        let disk_ws = inp.placement.total_on(Tier::Disk);
        let dtype = inp.placement.dtype();
        let effective_batch = inp.policy.effective_batch();
        let kv_per_token = llm::kv::kv_bytes_per_token_per_block(inp.model);

        let mut layers: Vec<LayerCosts> = Vec::with_capacity(placed.len());
        let mut kind_layer = [None; KINDS];
        for lp in placed {
            let layer = lp.layer();
            let kind = layer.kind();
            let cpu_bytes = lp.bytes_on(Tier::Cpu, dtype);
            let disk_bytes = lp.bytes_on(Tier::Disk, dtype);
            // Earlier prices are looked up in the table itself, latest
            // first: same-kind layers sit two apart in a decoder stack.
            let (prefill_compute, decode_compute) =
                match layers.iter().rev().find(|c| c.kind == kind) {
                    Some(c) => (c.prefill_compute, c.decode_compute),
                    None => {
                        kind_layer[kind_slot(kind)] = Some(layers.len());
                        (
                            compute_time(inp, layer, Stage::Prefill, 0),
                            decode_compute(inp, layer),
                        )
                    }
                };
            let load = match layers
                .iter()
                .rev()
                .find(|c| c.cpu_bytes == cpu_bytes && c.disk_bytes == disk_bytes)
            {
                Some(c) => c.load,
                None => load_time(inp, lp, cpu_ws, disk_ws)?,
            };
            layers.push(LayerCosts {
                kind,
                load,
                cpu_bytes,
                disk_bytes,
                offloaded: cpu_bytes + disk_bytes,
                prefill_compute,
                decode_compute,
            });
        }

        let writeback = if inp.policy.kv_offload() {
            let cost = |new_tokens: usize| -> Result<WritebackCost, HelmError> {
                let bytes = ByteSize::from_bytes(
                    u64::from(effective_batch) * new_tokens as u64 * kv_per_token,
                );
                let time = inp
                    .system
                    .tier_writeback_time(Tier::Cpu, bytes, Some(cpu_ws))
                    .ok_or(HelmError::TierUnavailable { tier: "cpu" })?;
                Ok(WritebackCost { bytes, time })
            };
            Some([cost(inp.workload.prompt_len)?, cost(1)?])
        } else {
            None
        };

        Ok(LayerCostTable {
            layers,
            kind_layer,
            writeback,
            prompt_len: inp.workload.prompt_len,
            effective_batch,
            kv_per_token,
            cpu_ws,
        })
    }

    /// Layers in the flattened pipeline sequence.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    fn kind(&self, j: usize) -> LayerKind {
        self.layers[j].kind
    }

    /// Cached [`load_time`] of layer `j`'s offloaded weights.
    pub fn load(&self, j: usize) -> SimDuration {
        self.layers[j].load
    }

    fn offloaded_bytes(&self, j: usize) -> ByteSize {
        self.layers[j].offloaded
    }

    fn writeback(&self, stage: Stage) -> Option<&WritebackCost> {
        self.writeback.as_ref().map(|wb| match stage {
            Stage::Prefill => &wb[0],
            Stage::Decode => &wb[1],
        })
    }

    /// The KV stream into an MHA layer at pipeline step (`stage`,
    /// `token`) under `kv_offload`: its bytes — exactly
    /// [`Layer::kv_read_bytes`] at the policy's effective batch — and
    /// the rate they stream at. `None` when nothing streams: without
    /// `kv_offload`, or at prefill, before any cache exists. Every MHA
    /// layer streams the same cache at one token, so the executor
    /// prices it once per token.
    fn kv_stream(
        &self,
        inp: &PipelineInputs<'_>,
        stage: Stage,
        token: usize,
    ) -> Result<Option<(ByteSize, Bandwidth)>, HelmError> {
        if !inp.policy.kv_offload() {
            return Ok(None);
        }
        let context = match stage {
            Stage::Prefill => 0, // no cache yet at prefill
            Stage::Decode => self.prompt_len + token,
        };
        let bytes = ByteSize::from_bytes(
            u64::from(self.effective_batch) * context as u64 * self.kv_per_token,
        );
        if bytes == ByteSize::ZERO {
            return Ok(None);
        }
        let rate = inp
            .system
            .kv_stream_bandwidth(bytes, Some(self.cpu_ws))
            .ok_or(HelmError::TierUnavailable { tier: "cpu" })?;
        Ok(Some((bytes, rate)))
    }

    /// GPU compute time of layer `j` at pipeline step (`stage`,
    /// `token`) — bit-identical to [`compute_time`] on the same
    /// inputs.
    pub fn compute_time(&self, gpu: &GpuSpec, j: usize, stage: Stage, token: usize) -> SimDuration {
        match stage {
            Stage::Prefill => self.layers[j].prefill_compute,
            Stage::Decode => match self.layers[j].decode_compute {
                DecodeCompute::Invariant(d) => d,
                DecodeCompute::Attention {
                    pre,
                    post,
                    matmul_flops,
                    att_prefix,
                    hidden,
                    weight_bytes,
                    act_bytes,
                    batch,
                } => {
                    let context = self.prompt_len + token;
                    // Replays attention_flops' association order:
                    // ((((2*2)*b)*nt)*ctx)*h with the prefix cached.
                    let att = att_prefix * context as f64 * hidden;
                    let flops = matmul_flops + att;
                    let kv = u64::from(batch) * context as u64 * self.kv_per_token;
                    let bytes = weight_bytes + kv as f64 + act_bytes;
                    pre + gpu.kernel_time(&KernelProfile::gemm(flops, bytes)) + post
                }
            },
        }
    }

    /// The compute of one step of each layer kind at pipeline step
    /// (`stage`, `token`) on `micro` GPU batches: what
    /// [`LayerCostTable::compute_time`] times `micro` gives every layer
    /// of that kind. Compute depends only on the kind, the stage and
    /// the token, so the executor prices it once per token.
    fn token_compute(&self, gpu: &GpuSpec, stage: Stage, token: usize, micro: u32) -> TokenCompute {
        // Micro-batching amortizes one weight load across several GPU
        // batches (FlexGen's block schedule).
        let micro = f64::from(micro);
        TokenCompute(self.kind_layer.map(|j| {
            j.map_or(SimDuration::ZERO, |j| {
                self.compute_time(gpu, j, stage, token) * micro
            })
        }))
    }

    fn audit_weight_traffic(&self, audit: &mut Auditor, j: usize) {
        if !audit.is_active() {
            return;
        }
        let lc = &self.layers[j];
        for (bytes, channel) in [(lc.cpu_bytes, "h2d:cpu"), (lc.disk_bytes, "h2d:disk")] {
            if bytes > ByteSize::ZERO {
                audit.scheduled(channel, bytes);
                audit.delivered(channel, bytes);
            }
        }
    }
}

/// The decode compute of one layer as the table caches it: every
/// non-MHA kind is token-invariant; MHA keeps kernel_plan(Decode)
/// split at the attention GEMM, whose flop/byte operands depend on
/// the context.
fn decode_compute(inp: &PipelineInputs<'_>, layer: &Layer) -> DecodeCompute {
    if layer.kind() != LayerKind::Mha {
        return DecodeCompute::Invariant(compute_time(inp, layer, Stage::Decode, 1));
    }
    let gpu = inp.system.gpu();
    let batch = inp.policy.batch_size();
    let tokens = u64::from(batch); // one new token each
    let act = layer.activation_bytes(tokens).as_f64();
    let mut pre = SimDuration::ZERO;
    if inp.policy.compressed() {
        let compressed: ByteSize = layer
            .weight_specs()
            .iter()
            .filter(|s| matches!(s.kind(), WeightKind::Linear | WeightKind::Embedding))
            .map(|s| s.bytes(DType::Int4Grouped))
            .sum();
        if compressed > ByteSize::ZERO {
            pre += gpu.kernel_time(&KernelProfile::dequant(compressed.as_f64()));
        }
    }
    DecodeCompute::Attention {
        pre,
        post: gpu.kernel_time(&KernelProfile::elementwise(act)),
        matmul_flops: layer.matmul_flops(tokens),
        att_prefix: 2.0 * 2.0 * f64::from(batch) * 1.0,
        hidden: inp.model.hidden_size() as f64,
        weight_bytes: layer.weight_bytes(DType::F16).as_f64(),
        act_bytes: act,
        batch,
    }
}

/// Streaming critical-path attribution for the offline executor and
/// its seed evaluator.
///
/// Each closed pipeline segment — the fill, then one entry per
/// `max(compute, load, writeback) + sync` step — ends at a boundary
/// quantized onto the tick lattice; the segment is the difference of
/// consecutive boundaries, so the buckets telescope to the total
/// exactly. The tracker reads only durations the executor already
/// computed, so running it unconditionally perturbs nothing.
#[derive(Default)]
struct StepAttribution {
    att: Attribution,
    prev: u64,
}

impl StepAttribution {
    /// Closes the segment ending at `elapsed`; returns its tick
    /// bounds for span emission.
    fn close(&mut self, elapsed: SimDuration, transfer_bound: bool) -> (u64, u64) {
        let now = duration_ticks(elapsed);
        let seg = u128::from(now - self.prev);
        if transfer_bound {
            self.att.transfer_ticks += seg;
        } else {
            self.att.compute_ticks += seg;
        }
        let start = self.prev;
        self.prev = now;
        (start, now)
    }

    fn finish(mut self) -> Attribution {
        self.att.total_ticks = u128::from(self.prev);
        self.att
    }
}

/// Runs the full prefill + decode pipeline and reports metrics,
/// keeping full step records. Builds a [`LayerCostTable`] internally;
/// callers evaluating one configuration many times (or wanting
/// [`RecordMode::Aggregate`]) should build the table once and call
/// [`run_pipeline_with`].
///
/// # Errors
///
/// Returns [`HelmError::TierUnavailable`] if the placement routes
/// traffic through a memory tier the platform does not provide.
pub fn run_pipeline(inp: &PipelineInputs<'_>) -> Result<RunReport, HelmError> {
    let table = LayerCostTable::build(inp)?;
    run_pipeline_with(inp, &table, RecordMode::Full)
}

/// [`run_pipeline`] over a prebuilt [`LayerCostTable`] with an
/// explicit [`RecordMode`] — the memoized hot path. Every reported
/// aggregate (TTFT, TBT samples, total time, traffic totals, audit
/// ledgers, attribution) is bit-identical to the seed evaluator
/// ([`run_pipeline_reference`]); under [`RecordMode::Full`] the step
/// records are too.
///
/// # Errors
///
/// Returns [`HelmError::TierUnavailable`] as [`run_pipeline`] does.
pub fn run_pipeline_with(
    inp: &PipelineInputs<'_>,
    table: &LayerCostTable,
    mode: RecordMode,
) -> Result<RunReport, HelmError> {
    run_pipeline_inner(inp, table, mode, None)
}

/// [`run_pipeline_with`] that additionally collects the batch's span
/// tree (the whole offline batch is one request track: fill →
/// prefill → per-token decode, each step classified compute- or
/// transfer-bound). The returned report is byte-identical to the
/// untraced run — spans travel on the side channel only.
///
/// # Errors
///
/// Returns [`HelmError::TierUnavailable`] as [`run_pipeline`] does.
pub fn run_pipeline_traced(
    inp: &PipelineInputs<'_>,
    table: &LayerCostTable,
    mode: RecordMode,
) -> Result<(RunReport, Trace), HelmError> {
    let mut trace = Trace::default();
    let report = run_pipeline_inner(inp, table, mode, Some(&mut trace))?;
    Ok((report, trace))
}

fn run_pipeline_inner(
    inp: &PipelineInputs<'_>,
    table: &LayerCostTable,
    mode: RecordMode,
    trace: Option<&mut Trace>,
) -> Result<RunReport, HelmError> {
    let num_layers = table.num_layers();
    let gen_len = inp.workload.gen_len;
    let gpu = inp.system.gpu();

    // Sized from the actual step count — `records` holds one entry
    // per (token, layer) step; micro-batching scales compute, it does
    // not replay steps.
    let mut records = match mode {
        RecordMode::Full => Vec::with_capacity(num_layers * gen_len),
        RecordMode::Aggregate => Vec::new(),
    };
    let mut totals = StepTotals::default();
    let mut elapsed = SimDuration::ZERO;
    let mut tbt = SeriesStats::new();
    let mut ttft = SimDuration::ZERO;

    let mut audit = Auditor::capture();
    audit_placement_feasibility(&mut audit, inp);
    let micro = inp.policy.num_gpu_batches();
    let effective_batch = inp.policy.effective_batch();

    let mut att = StepAttribution::default();
    let mut spans: Option<Vec<TraceSpan>> = trace.is_some().then(|| {
        let mut s = Vec::with_capacity(2 + gen_len * (num_layers + 1));
        // Root placeholder; its end is patched once the run closes.
        s.push(TraceSpan {
            name: "request",
            depth: 0,
            start: 0,
            end: 0,
        });
        s
    });

    // Pipeline fill: the first layer's weights stream before any
    // compute can overlap them.
    elapsed += table.load(0);
    table.audit_weight_traffic(&mut audit, 0);
    let (fill_start, fill_end) = att.close(elapsed, true);
    if let Some(s) = spans.as_mut() {
        s.push(TraceSpan {
            name: "fill",
            depth: 1,
            start: fill_start,
            end: fill_end,
        });
    }

    for token in 0..gen_len {
        let stage = if token == 0 {
            Stage::Prefill
        } else {
            Stage::Decode
        };
        let token_start = elapsed;
        let token_span = spans.as_mut().map(|s| {
            s.push(TraceSpan {
                name: if token == 0 { "prefill" } else { "decode" },
                depth: 1,
                start: att.prev,
                end: att.prev,
            });
            s.len() - 1
        });
        // Compute and the KV stream depend only on the stage, the
        // token and the layer's kind: priced once per token.
        let kind_compute = table.token_compute(gpu, stage, token, micro);
        let kv_in = table
            .kv_stream(inp, stage, token)?
            .map(|(bytes, rate)| (bytes, rate.time_for(bytes)));
        let writeback_cost = table.writeback(stage);
        for j in 0..num_layers {
            let last_step = token + 1 == gen_len && j + 1 == num_layers;
            let next_index = (j + 1) % num_layers;
            let (mut load, next_kind, mut h2d) = if last_step {
                (SimDuration::ZERO, None, ByteSize::ZERO)
            } else {
                (
                    table.load(next_index),
                    Some(table.kind(next_index)),
                    table.offloaded_bytes(next_index),
                )
            };
            if !last_step {
                table.audit_weight_traffic(&mut audit, next_index);
            }
            // Under KV offloading, the next layer's cache streams in
            // alongside its weights and shares the same H2D budget.
            if let (Some(LayerKind::Mha), Some((kv_bytes, kv_time))) = (next_kind, kv_in) {
                load += kv_time;
                h2d += kv_bytes;
                audit.scheduled("h2d:kv", kv_bytes);
                audit.delivered("h2d:kv", kv_bytes);
            }
            let compute = kind_compute.of(table.kind(j));
            // KV write-back for the tokens this step produced.
            let (writeback, d2h) = match writeback_cost {
                Some(wb) if table.kind(j) == LayerKind::Mha => (wb.time, wb.bytes),
                _ => (SimDuration::ZERO, ByteSize::ZERO),
            };
            if d2h > ByteSize::ZERO {
                audit.scheduled("d2h:kv", d2h);
                audit.delivered("d2h:kv", d2h);
            }
            let step = compute.max(load).max(writeback) + SYNC_OVERHEAD;
            audit.check_duration("compute", compute);
            audit.check_duration("load", load);
            audit.check_duration("step", step);
            totals.record(compute, h2d, d2h);
            if mode == RecordMode::Full {
                records.push(LayerStepRecord {
                    token,
                    layer_index: j,
                    kind: table.kind(j),
                    stage,
                    compute,
                    load_next: load,
                    next_kind,
                    h2d_bytes: h2d,
                    d2h_bytes: d2h,
                    step,
                });
            }
            elapsed += step;
            audit.observe_time("analytic", SimTime::ZERO + elapsed);
            let transfer_bound = load.max(writeback) > compute;
            let (seg_start, seg_end) = att.close(elapsed, transfer_bound);
            if let Some(s) = spans.as_mut() {
                s.push(TraceSpan {
                    name: if transfer_bound {
                        "transfer"
                    } else {
                        "compute"
                    },
                    depth: 2,
                    start: seg_start,
                    end: seg_end,
                });
            }
        }
        if let (Some(s), Some(ti)) = (spans.as_mut(), token_span) {
            s[ti].end = att.prev;
        }
        if token == 0 {
            ttft = elapsed;
        } else {
            tbt.add((elapsed - token_start).as_secs());
        }
    }

    let root_end = att.prev;
    let attribution = att.finish();
    if let (Some(out), Some(mut s)) = (trace, spans) {
        s[0].end = root_end;
        out.requests.push(RequestTrace {
            id: out.requests.len() as u64,
            pipe: 0,
            spans: s,
            attribution,
        });
    }

    Ok(RunReport {
        model: inp.model.name().to_owned(),
        config: inp.system.memory().kind().to_string(),
        placement: inp.policy.placement(),
        batch: effective_batch,
        compressed: inp.policy.compressed(),
        ttft,
        tbt,
        total_time: elapsed,
        tokens_generated: inp.workload.tokens_generated(effective_batch),
        records,
        totals,
        achieved_distribution: inp.placement.achieved_distribution(),
        attribution,
        audit: audit.finish_if_active(),
    })
}

/// The seed evaluator: costs every step from scratch with no
/// memoization. Kept as the golden reference the cost-table fast path
/// is proven bit-identical against (equivalence proptests, and the
/// `bench_pipeline` baseline).
///
/// # Errors
///
/// Returns [`HelmError::TierUnavailable`] as [`run_pipeline`] does.
pub fn run_pipeline_reference(inp: &PipelineInputs<'_>) -> Result<RunReport, HelmError> {
    let layers = inp.placement.layers();
    let num_layers = layers.len();
    let gen_len = inp.workload.gen_len;
    let cpu_ws = inp.placement.total_on(Tier::Cpu);
    let disk_ws = inp.placement.total_on(Tier::Disk);

    let mut records = Vec::with_capacity(num_layers * gen_len);
    let mut elapsed = SimDuration::ZERO;
    let mut tbt = SeriesStats::new();
    let mut ttft = SimDuration::ZERO;

    let mut audit = Auditor::capture();
    audit_placement_feasibility(&mut audit, inp);
    let micro = inp.policy.num_gpu_batches();
    let effective_batch = inp.policy.effective_batch();
    let dtype = inp.placement.dtype();

    // Pipeline fill: the first layer's weights stream before any
    // compute can overlap them.
    elapsed += load_time(inp, &layers[0], cpu_ws, disk_ws)?;
    audit_weight_traffic(&mut audit, &layers[0], dtype);
    let mut att = StepAttribution::default();
    att.close(elapsed, true);

    for token in 0..gen_len {
        let stage = if token == 0 {
            Stage::Prefill
        } else {
            Stage::Decode
        };
        let token_start = elapsed;
        for (j, lp) in layers.iter().enumerate() {
            let last_step = token + 1 == gen_len && j + 1 == num_layers;
            let next_index = (j + 1) % num_layers;
            let (mut load, next_kind, mut h2d) = if last_step {
                (SimDuration::ZERO, None, ByteSize::ZERO)
            } else {
                let next = &layers[next_index];
                (
                    load_time(inp, next, cpu_ws, disk_ws)?,
                    Some(next.layer().kind()),
                    next.offloaded_bytes(dtype),
                )
            };
            if !last_step {
                audit_weight_traffic(&mut audit, &layers[next_index], dtype);
            }
            // Under KV offloading, the next layer's cache streams in
            // alongside its weights and shares the same H2D budget.
            if inp.policy.kv_offload() {
                if let Some(LayerKind::Mha) = next_kind {
                    let next = &layers[next_index];
                    let context = match stage {
                        Stage::Prefill => 0, // no cache yet at prefill
                        Stage::Decode => inp.workload.prompt_len + token,
                    };
                    let kv_in = next.layer().kv_read_bytes(effective_batch, context);
                    if kv_in > ByteSize::ZERO {
                        load += inp
                            .system
                            .kv_stream_bandwidth(kv_in, Some(cpu_ws))
                            .ok_or(HelmError::TierUnavailable { tier: "cpu" })?
                            .time_for(kv_in);
                        h2d += kv_in;
                        audit.scheduled("h2d:kv", kv_in);
                        audit.delivered("h2d:kv", kv_in);
                    }
                }
            }
            // Micro-batching amortizes one weight load across several
            // GPU batches (FlexGen's block schedule).
            let compute = compute_time(inp, lp.layer(), stage, token) * f64::from(micro);
            // KV write-back for the tokens this step produced.
            let (writeback, d2h) = if inp.policy.kv_offload() && lp.layer().kind() == LayerKind::Mha
            {
                let new_tokens = match stage {
                    Stage::Prefill => inp.workload.prompt_len,
                    Stage::Decode => 1,
                };
                let bytes = ByteSize::from_bytes(
                    u64::from(effective_batch)
                        * new_tokens as u64
                        * llm::kv::kv_bytes_per_token_per_block(inp.model),
                );
                let t = inp
                    .system
                    .tier_writeback_time(Tier::Cpu, bytes, Some(cpu_ws))
                    .ok_or(HelmError::TierUnavailable { tier: "cpu" })?;
                (t, bytes)
            } else {
                (SimDuration::ZERO, ByteSize::ZERO)
            };
            if d2h > ByteSize::ZERO {
                audit.scheduled("d2h:kv", d2h);
                audit.delivered("d2h:kv", d2h);
            }
            let step = compute.max(load).max(writeback) + SYNC_OVERHEAD;
            audit.check_duration("compute", compute);
            audit.check_duration("load", load);
            audit.check_duration("step", step);
            records.push(LayerStepRecord {
                token,
                layer_index: j,
                kind: lp.layer().kind(),
                stage,
                compute,
                load_next: load,
                next_kind,
                h2d_bytes: h2d,
                d2h_bytes: d2h,
                step,
            });
            elapsed += step;
            audit.observe_time("analytic", SimTime::ZERO + elapsed);
            att.close(elapsed, load.max(writeback) > compute);
        }
        if token == 0 {
            ttft = elapsed;
        } else {
            tbt.add((elapsed - token_start).as_secs());
        }
    }

    Ok(RunReport {
        model: inp.model.name().to_owned(),
        config: inp.system.memory().kind().to_string(),
        placement: inp.policy.placement(),
        batch: effective_batch,
        compressed: inp.policy.compressed(),
        ttft,
        tbt,
        total_time: elapsed,
        tokens_generated: inp.workload.tokens_generated(effective_batch),
        totals: StepTotals::from_records(&records),
        records,
        achieved_distribution: inp.placement.achieved_distribution(),
        attribution: att.finish(),
        audit: audit.finish_if_active(),
    })
}

/// Feasibility checks shared by the executor and its seed evaluator:
/// the achieved percent split sums to 100 and no tier holds more
/// weight bytes than it has capacity (the `run_unchecked` path skips
/// server-side validation, so the auditor re-derives it at execution
/// time).
fn audit_placement_feasibility(audit: &mut Auditor, inp: &PipelineInputs<'_>) {
    if !audit.is_active() {
        return;
    }
    audit.check_percent_split("achieved placement", inp.placement.achieved_distribution());
    for tier in [Tier::Disk, Tier::Cpu, Tier::Gpu] {
        audit.check_tier_capacity(
            &tier.to_string(),
            inp.placement.total_on(tier),
            inp.system.tier_capacity(tier),
        );
    }
}

/// Ledger entries for one layer's weight transfer. Closed-form
/// transfers complete within the step that issues them, so scheduling
/// and delivery are recorded together; the ledger still cross-checks
/// the per-tier split against the report's traffic totals.
fn audit_weight_traffic(audit: &mut Auditor, lp: &LayerPlacement, dtype: DType) {
    if !audit.is_active() {
        return;
    }
    for (tier, channel) in [(Tier::Cpu, "h2d:cpu"), (Tier::Disk, "h2d:disk")] {
        let bytes = lp.bytes_on(tier, dtype);
        if bytes > ByteSize::ZERO {
            audit.scheduled(channel, bytes);
            audit.delivered(channel, bytes);
        }
    }
}

/// Transfer time of one layer's offloaded weights: host and storage
/// portions stream concurrently over PCIe, each capped by its tier's
/// effective path rate; fixed costs (DMA setup, device latency,
/// bounce fill) are paid once per tier, overlapped across tiers.
///
/// # Errors
///
/// Returns [`HelmError::TierUnavailable`] when the layer places bytes
/// on a tier the platform has no device for.
pub fn load_time(
    inp: &PipelineInputs<'_>,
    lp: &LayerPlacement,
    cpu_ws: ByteSize,
    disk_ws: ByteSize,
) -> Result<SimDuration, HelmError> {
    let mut portions = tier_portions(lp, inp.placement.dtype(), cpu_ws, disk_ws);
    match (portions.next(), portions.next()) {
        (None, _) => Ok(SimDuration::ZERO),
        (Some((tier, bytes, ws)), None) => inp
            .system
            .tier_transfer_time(tier, bytes, Some(ws))
            .ok_or(HelmError::TierUnavailable {
                tier: tier_name(tier),
            }),
        (Some(cpu), Some(disk)) => {
            let mut link = CappedLink::new(inp.system.link_capacity(cpu.1 + disk.1));
            let mut fixed = SimDuration::ZERO;
            for (tier, bytes, ws) in [cpu, disk] {
                let (cap, setup) = stream_price(inp, tier, bytes, ws)?;
                fixed = fixed.max(setup);
                link.start(SimTime::ZERO, bytes.as_f64(), cap);
            }
            let mut now = SimTime::ZERO;
            while let Some((at, id)) = link.next_completion(now) {
                now = at;
                link.complete(now, id);
            }
            Ok(fixed + (now - SimTime::ZERO))
        }
    }
}

/// The host and storage portions of one layer's offloaded weights as
/// `(tier, bytes, tier working set)`, cpu first, empty tiers skipped
/// — what [`load_time`] streams.
fn tier_portions(
    lp: &LayerPlacement,
    dtype: DType,
    cpu_ws: ByteSize,
    disk_ws: ByteSize,
) -> impl Iterator<Item = (Tier, ByteSize, ByteSize)> + '_ {
    [(Tier::Cpu, cpu_ws), (Tier::Disk, disk_ws)]
        .into_iter()
        .filter_map(move |(tier, ws)| {
            let bytes = lp.bytes_on(tier, dtype);
            (bytes > ByteSize::ZERO).then_some((tier, bytes, ws))
        })
}

/// One portion priced as a capped stream: its tier's rate cap and the
/// fixed (non-streaming) share of its standalone transfer time.
fn stream_price(
    inp: &PipelineInputs<'_>,
    tier: Tier,
    bytes: ByteSize,
    ws: ByteSize,
) -> Result<(Bandwidth, SimDuration), HelmError> {
    let unavailable = HelmError::TierUnavailable {
        tier: tier_name(tier),
    };
    let cap = inp
        .system
        .tier_bandwidth(tier, bytes, Some(ws))
        .ok_or(unavailable.clone())?;
    let full = inp
        .system
        .tier_transfer_time(tier, bytes, Some(ws))
        .ok_or(unavailable)?;
    Ok((cap, full - cap.time_for(bytes)))
}

/// The named kernel plan one layer issues at one pipeline step —
/// the decomposition behind [`compute_time`], exposed for
/// introspection (`helmsim explain`, timeline tooling).
pub fn kernel_plan(
    inp: &PipelineInputs<'_>,
    layer: &Layer,
    stage: Stage,
    token: usize,
) -> Vec<(&'static str, KernelProfile)> {
    let batch = inp.policy.batch_size();
    let prompt = inp.workload.prompt_len;
    let (new_tokens, context) = match stage {
        Stage::Prefill => (prompt, prompt),
        Stage::Decode => (1, prompt + token),
    };
    let tokens = u64::from(batch) * new_tokens as u64;
    let mut kernels: Vec<(&'static str, KernelProfile)> = Vec::with_capacity(3);

    if inp.policy.compressed() {
        let compressed: ByteSize = layer
            .weight_specs()
            .iter()
            .filter(|s| matches!(s.kind(), WeightKind::Linear | WeightKind::Embedding))
            .map(|s| s.bytes(DType::Int4Grouped))
            .sum();
        if compressed > ByteSize::ZERO {
            kernels.push(("dequant", KernelProfile::dequant(compressed.as_f64())));
        }
    }

    let act = layer.activation_bytes(tokens).as_f64();
    match layer.kind() {
        LayerKind::InputEmbed => {
            // Table lookups: bandwidth over the gathered rows only.
            kernels.push(("embed-lookup", KernelProfile::elementwise(act)));
        }
        LayerKind::Mha => {
            let flops =
                layer.matmul_flops(tokens) + layer.attention_flops(batch, new_tokens, context);
            let bytes = layer.weight_bytes(DType::F16).as_f64()
                + layer.kv_read_bytes(batch, context).as_f64()
                + act;
            kernels.push(("qkv+attention+out", KernelProfile::gemm(flops, bytes)));
            kernels.push(("norm+residual", KernelProfile::elementwise(act)));
        }
        LayerKind::Ffn => {
            let bytes = layer.weight_bytes(DType::F16).as_f64() + act;
            kernels.push((
                "mlp",
                KernelProfile::gemm(layer.matmul_flops(tokens), bytes),
            ));
            kernels.push(("norm+residual", KernelProfile::elementwise(act)));
        }
        LayerKind::OutputEmbed => {
            let bytes = layer.weight_bytes(DType::F16).as_f64() + act;
            kernels.push((
                "lm-head",
                KernelProfile::gemm(layer.matmul_flops(tokens), bytes),
            ));
        }
    }
    kernels
}

/// GPU compute time of one layer at one pipeline step.
pub fn compute_time(
    inp: &PipelineInputs<'_>,
    layer: &Layer,
    stage: Stage,
    token: usize,
) -> SimDuration {
    inp.system
        .gpu()
        .kernels_time(kernel_plan(inp, layer, stage, token).iter().map(|(_, k)| k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementKind;
    use hetmem::HostMemoryConfig;
    use llm::ModelConfig;

    fn inputs(
        memory: HostMemoryConfig,
        placement_kind: PlacementKind,
        compressed: bool,
        batch: u32,
    ) -> (SystemConfig, ModelConfig, Policy, WorkloadSpec) {
        let system = SystemConfig::paper_platform(memory.clone());
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, memory.kind())
            .with_placement(placement_kind)
            .with_compression(compressed)
            .with_batch_size(batch);
        (system, model, policy, WorkloadSpec::paper_default())
    }

    fn run(
        memory: HostMemoryConfig,
        kind: PlacementKind,
        compressed: bool,
        batch: u32,
    ) -> RunReport {
        let (system, model, policy, workload) = inputs(memory, kind, compressed, batch);
        let placement = ModelPlacement::compute(&model, &policy);
        run_pipeline(&PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement: &placement,
            workload: &workload,
        })
        .expect("pipeline runs")
    }

    #[test]
    fn decode_steps_cover_all_layers() {
        let report = run(HostMemoryConfig::nvdram(), PlacementKind::Baseline, true, 1);
        // 21 tokens x 194 layers.
        assert_eq!(report.records.len(), 21 * 194);
        assert_eq!(report.tbt.count(), 20);
        assert!(report.ttft > SimDuration::ZERO);
    }

    #[test]
    fn nvdram_decode_is_memory_bound_at_batch_1() {
        // Table IV baseline: MHA compute / FFN load ~ 0.36 on NVDRAM.
        let report = run(HostMemoryConfig::nvdram(), PlacementKind::Baseline, true, 1);
        let ratio = report.overlap_ratio(Stage::Decode, LayerKind::Mha, LayerKind::Ffn);
        assert!(
            (0.25..=0.5).contains(&ratio),
            "MHA-compute/FFN-load {ratio}"
        );
        let ratio2 = report.overlap_ratio(Stage::Decode, LayerKind::Ffn, LayerKind::Mha);
        assert!(
            (1.4..=2.4).contains(&ratio2),
            "FFN-compute/MHA-load {ratio2}"
        );
    }

    #[test]
    fn helm_improves_tbt_by_about_a_quarter() {
        // Paper §V-B: HeLM improves TBT on NVDRAM by ~27%.
        let base = run(HostMemoryConfig::nvdram(), PlacementKind::Baseline, true, 1);
        let helm = run(HostMemoryConfig::nvdram(), PlacementKind::Helm, true, 1);
        let gain = 1.0 - helm.tbt_ms() / base.tbt_ms();
        assert!((0.20..=0.35).contains(&gain), "TBT gain {gain}");
        // And TTFT similarly.
        let ttft_gain = 1.0 - helm.ttft_ms() / base.ttft_ms();
        assert!((0.20..=0.35).contains(&ttft_gain), "TTFT gain {ttft_gain}");
    }

    #[test]
    fn all_cpu_at_44_is_about_5x_baseline_at_8() {
        // Paper §V-C: 5x throughput going from baseline b=8 to
        // All-CPU b=44 on NVDRAM.
        let base = run(HostMemoryConfig::nvdram(), PlacementKind::Baseline, true, 8);
        let allcpu = run(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, true, 44);
        let speedup = allcpu.throughput_tps() / base.throughput_tps();
        assert!((4.0..=6.5).contains(&speedup), "throughput x{speedup}");
    }

    #[test]
    fn sawtooth_visible_in_decode_load_profile() {
        let report = run(HostMemoryConfig::nvdram(), PlacementKind::Baseline, true, 1);
        let profile = report.decode_load_profile();
        // Alternating MHA/FFN loads: ridge/dip ratio > 2 (Fig 7a).
        let loads: Vec<f64> = profile
            .iter()
            .skip(1)
            .take(20)
            .map(|(_, d)| d.as_millis())
            .collect();
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let min = loads.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 2.0, "sawtooth ratio {}", max / min);
    }

    #[test]
    fn dram_beats_nvdram() {
        let dram = run(HostMemoryConfig::dram(), PlacementKind::Helm, true, 1);
        let nv = run(HostMemoryConfig::nvdram(), PlacementKind::Helm, true, 1);
        assert!(dram.tbt_ms() < nv.tbt_ms());
        // HeLM brings NVDRAM within ~15% of DRAM (paper: ~9%).
        let gap = nv.tbt_ms() / dram.tbt_ms() - 1.0;
        assert!(gap < 0.15, "NVDRAM-vs-DRAM gap {gap}");
    }

    #[test]
    fn prefill_compute_grows_with_batch() {
        let b1 = run(HostMemoryConfig::nvdram(), PlacementKind::Baseline, true, 1);
        let b8 = run(HostMemoryConfig::nvdram(), PlacementKind::Baseline, true, 8);
        let c1 = b1.avg_compute(Stage::Prefill, LayerKind::Ffn);
        let c8 = b8.avg_compute(Stage::Prefill, LayerKind::Ffn);
        assert!(c8 > c1);
        // ...but decode compute does not (Table IV).
        let d1 = b1.avg_compute(Stage::Decode, LayerKind::Ffn);
        let d8 = b8.avg_compute(Stage::Decode, LayerKind::Ffn);
        assert!((d8.as_secs() / d1.as_secs() - 1.0).abs() < 0.1);
    }

    #[test]
    fn micro_batching_amortizes_weight_loads() {
        // 4 micro-batches of 8 vs a single batch of 8: same per-layer
        // weight traffic serves 4x the sequences, so throughput rises
        // while staying below 4x (compute eventually binds).
        let (system, model, policy, workload) =
            inputs(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, true, 8);
        let placement = ModelPlacement::compute(&model, &policy);
        let single = run_pipeline(&PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement: &placement,
            workload: &workload,
        })
        .expect("single runs");
        let micro_policy = policy.clone().with_gpu_batches(4);
        let micro = run_pipeline(&PipelineInputs {
            system: &system,
            model: &model,
            policy: &micro_policy,
            placement: &placement,
            workload: &workload,
        })
        .expect("micro runs");
        assert_eq!(micro.batch, 32);
        assert_eq!(micro.tokens_generated, 32 * 21);
        let gain = micro.throughput_tps() / single.throughput_tps();
        assert!((1.5..4.0).contains(&gain), "micro-batching gain {gain}");
        // Weight H2D traffic identical: loads amortized.
        assert_eq!(micro.total_h2d_bytes(), single.total_h2d_bytes());
    }

    #[test]
    fn kv_offload_writes_back_over_pcie() {
        let (system, model, policy, workload) =
            inputs(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, true, 8);
        let resident_policy = policy.clone();
        let offload_policy = policy.with_kv_offload(true);
        let placement = ModelPlacement::compute(&model, &resident_policy);
        let resident = run_pipeline(&PipelineInputs {
            system: &system,
            model: &model,
            policy: &resident_policy,
            placement: &placement,
            workload: &workload,
        })
        .expect("resident runs");
        let offload = run_pipeline(&PipelineInputs {
            system: &system,
            model: &model,
            policy: &offload_policy,
            placement: &placement,
            workload: &workload,
        })
        .expect("offload runs");
        // Resident KV produces no D2H traffic; offloading does.
        assert_eq!(resident.total_d2h_bytes(), ByteSize::ZERO);
        assert!(offload.total_d2h_bytes() > ByteSize::ZERO);
        // And more H2D (cache streams back in each decode step).
        assert!(offload.total_h2d_bytes() > resident.total_h2d_bytes());
        // On Optane, write-back is expensive: TBT strictly worse.
        assert!(offload.tbt_ms() > resident.tbt_ms());
    }

    #[test]
    fn split_disk_cpu_load_shares_the_link() {
        // SSD config: weights straddle disk and DRAM; both portions
        // stream concurrently and the result is finite and larger
        // than either portion alone would take at full link rate.
        let report = run(HostMemoryConfig::ssd(), PlacementKind::Baseline, false, 1);
        let ffn_load = report.avg_weight_transfer(Stage::Decode, LayerKind::Ffn);
        assert!(ffn_load.as_millis() > 100.0, "disk-bound load {ffn_load}");
    }
}
