//! Serving metrics: TTFT, TBT, throughput, and the per-layer timers
//! behind the paper's overlap analysis (§III-C).

use crate::placement::PlacementKind;
use crate::trace::Attribution;
use llm::layers::LayerKind;
use simcore::stats::SeriesStats;
use simcore::time::SimDuration;
use simcore::units::ByteSize;
use std::fmt::Write as _;

/// Inference stage (paper Fig 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Prompt processing (GEMM-heavy, produces the first token).
    Prefill,
    /// Token-by-token generation over the KV cache.
    Decode,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Stage::Prefill => "prefill",
            Stage::Decode => "decode",
        })
    }
}

/// Timing of one (token, layer) pipeline step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerStepRecord {
    /// Token index (0 = prefill).
    pub token: usize,
    /// Layer index in the flattened sequence.
    pub layer_index: usize,
    /// Layer kind.
    pub kind: LayerKind,
    /// Stage the step belongs to.
    pub stage: Stage,
    /// GPU compute time of this layer.
    pub compute: SimDuration,
    /// Transfer time of the *next* layer's offloaded weights, plus
    /// its KV cache under KV offloading, overlapped with `compute`
    /// (zero when nothing streams).
    pub load_next: SimDuration,
    /// Kind of the layer whose weights streamed during this step.
    pub next_kind: Option<LayerKind>,
    /// Host→GPU bytes moved during this step (weights + any streamed
    /// KV cache).
    pub h2d_bytes: ByteSize,
    /// GPU→host bytes moved during this step (KV-cache write-back
    /// under offloading).
    pub d2h_bytes: ByteSize,
    /// Wall-clock of the step: `max(compute, load_next, writeback) +
    /// sync`, where `writeback` is the KV write-back of an MHA step
    /// under KV offloading (zero otherwise). The discrete-event
    /// executor overlaps write-backs with later steps, so its
    /// `writeback` term is only the stall until the previous
    /// write-back drains.
    pub step: SimDuration,
}

/// Run-wide aggregates over a pipeline's steps, accumulated by the
/// executors in step order — the same order the per-step record sums
/// used to run in, so the totals are bit-identical whether or not the
/// records themselves are materialized
/// ([`crate::exec::RecordMode::Aggregate`] drops them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTotals {
    /// Pipeline steps executed (`gen_len × num_layers`).
    pub steps: usize,
    /// Host→GPU bytes moved (weights plus any streamed KV cache).
    pub h2d_bytes: ByteSize,
    /// GPU→host bytes moved (KV-cache write-back under offloading).
    pub d2h_bytes: ByteSize,
    /// GPU busy (compute) time.
    pub compute: SimDuration,
}

impl Default for StepTotals {
    fn default() -> Self {
        StepTotals {
            steps: 0,
            h2d_bytes: ByteSize::ZERO,
            d2h_bytes: ByteSize::ZERO,
            compute: SimDuration::ZERO,
        }
    }
}

impl StepTotals {
    /// Folds one step into the totals.
    pub fn record(&mut self, compute: SimDuration, h2d: ByteSize, d2h: ByteSize) {
        self.steps += 1;
        self.compute += compute;
        self.h2d_bytes += h2d;
        self.d2h_bytes += d2h;
    }

    /// The totals of an already-materialized record list.
    pub fn from_records(records: &[LayerStepRecord]) -> Self {
        let mut totals = StepTotals::default();
        for r in records {
            totals.record(r.compute, r.h2d_bytes, r.d2h_bytes);
        }
        totals
    }
}

/// The result of one serving run.
///
/// All averages follow the paper's §III-C rule: arithmetic mean with
/// the first sample discarded (cold start).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Model name.
    pub model: String,
    /// Memory configuration label (Table II).
    pub config: String,
    /// Placement algorithm used.
    pub placement: PlacementKind,
    /// Serving batch size.
    pub batch: u32,
    /// Whether weights were 4-bit compressed.
    pub compressed: bool,
    /// Prefill latency (time to first token).
    pub ttft: SimDuration,
    /// Per-decode-step durations in seconds.
    pub tbt: SeriesStats,
    /// Total wall-clock of the run.
    pub total_time: SimDuration,
    /// Tokens generated (batch x gen_len).
    pub tokens_generated: u64,
    /// Every pipeline step. Empty when the run used
    /// [`crate::exec::RecordMode::Aggregate`]; the per-record
    /// breakdowns (timelines, CSV, stage/kind averages) then report
    /// nothing, while [`RunReport::totals`] stays exact.
    pub records: Vec<LayerStepRecord>,
    /// Step aggregates, valid in both record modes.
    pub totals: StepTotals,
    /// Achieved (disk, cpu, gpu) weight distribution.
    pub achieved_distribution: [f64; 3],
    /// Exact critical-path attribution of the run: compute-bound vs
    /// transfer-bound ticks partitioning the total wall-clock
    /// (offline runs never queue, so `queue_ticks == 0`).
    pub attribution: Attribution,
    /// Invariant-audit outcome, when auditing was active for the run
    /// (debug builds, or `--audit`): byte-conservation ledgers per
    /// transfer channel plus any violations observed.
    pub audit: Option<simaudit::AuditReport>,
}

impl RunReport {
    /// Time to first token in milliseconds.
    pub fn ttft_ms(&self) -> f64 {
        self.ttft.as_millis()
    }

    /// Mean time between tokens in milliseconds (first discarded).
    pub fn tbt_ms(&self) -> f64 {
        SimDuration::from_secs(self.tbt.mean_discard_first()).as_millis()
    }

    /// Overall generation throughput in tokens/second.
    pub fn throughput_tps(&self) -> f64 {
        self.tokens_generated as f64 / self.total_time.as_secs()
    }

    /// Mean decode-step duration (all steps weighted equally) — the
    /// per-step decode cost a serving-layer service model calibrates
    /// against.
    pub fn mean_tbt(&self) -> SimDuration {
        SimDuration::from_secs(self.tbt.mean())
    }

    /// Mean transfer time of `kind`-layer weights during `stage`
    /// (the bars of Figs 5, 6, 8, 11a, 12d/e), first sample
    /// discarded.
    pub fn avg_weight_transfer(&self, stage: Stage, kind: LayerKind) -> SimDuration {
        self.mean_over(|r| (r.stage == stage && r.next_kind == Some(kind)).then_some(r.load_next))
    }

    /// Mean compute time of `kind` layers during `stage` (the lines
    /// of the same figures), first sample discarded.
    pub fn avg_compute(&self, stage: Stage, kind: LayerKind) -> SimDuration {
        self.mean_over(|r| (r.stage == stage && r.kind == kind).then_some(r.compute))
    }

    /// Mean transfer time across both hidden-layer kinds.
    pub fn avg_hidden_weight_transfer(&self, stage: Stage) -> SimDuration {
        self.mean_over(|r| {
            (r.stage == stage && matches!(r.next_kind, Some(LayerKind::Mha | LayerKind::Ffn)))
                .then_some(r.load_next)
        })
    }

    /// Mean compute time across both hidden-layer kinds.
    pub fn avg_hidden_compute(&self, stage: Stage) -> SimDuration {
        self.mean_over(|r| (r.stage == stage && r.kind.is_hidden()).then_some(r.compute))
    }

    /// Per-layer weight-load times of the first decode pass, in layer
    /// order (Fig 7a's sawtooth).
    pub fn decode_load_profile(&self) -> Vec<(usize, SimDuration)> {
        let first_decode = self
            .records
            .iter()
            .filter(|r| r.stage == Stage::Decode)
            .map(|r| r.token)
            .min();
        let Some(token) = first_decode else {
            return Vec::new();
        };
        self.records
            .iter()
            .filter(|r| r.token == token && r.load_next > SimDuration::ZERO)
            .map(|r| (r.layer_index + 1, r.load_next))
            .collect()
    }

    /// Compute/communication overlap ratio: mean compute of `num`
    /// layers over mean load of `den` layers in `stage` (Table IV).
    /// Values below 1 are memory-bound, above 1 compute-bound.
    pub fn overlap_ratio(&self, stage: Stage, num: LayerKind, den: LayerKind) -> f64 {
        let c = self.avg_compute(stage, num).as_secs();
        let l = self.avg_weight_transfer(stage, den).as_secs();
        if l == 0.0 {
            f64::INFINITY
        } else {
            c / l
        }
    }

    fn mean_over<F>(&self, mut pick: F) -> SimDuration
    where
        F: FnMut(&LayerStepRecord) -> Option<SimDuration>,
    {
        let stats: SeriesStats = self
            .records
            .iter()
            .filter_map(|r| pick(r).map(SimDuration::as_secs))
            .collect();
        SimDuration::from_secs(stats.mean_discard_first())
    }

    /// Total host→GPU traffic of the run.
    pub fn total_h2d_bytes(&self) -> ByteSize {
        self.totals.h2d_bytes
    }

    /// Total GPU→host traffic of the run.
    pub fn total_d2h_bytes(&self) -> ByteSize {
        self.totals.d2h_bytes
    }

    /// Total GPU busy (compute) time of the run.
    pub fn total_compute_time(&self) -> SimDuration {
        self.totals.compute
    }

    /// Exports every pipeline step as CSV (header + one row per
    /// step), for external plotting of the timelines behind
    /// Figs 5–8/11/12.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "token,layer_index,kind,stage,compute_ms,load_next_ms,h2d_bytes,d2h_bytes,step_ms\n",
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.6},{:.6},{},{},{:.6}",
                r.token,
                r.layer_index,
                r.kind,
                r.stage,
                r.compute.as_millis(),
                r.load_next.as_millis(),
                r.h2d_bytes.as_u64(),
                r.d2h_bytes.as_u64(),
                r.step.as_millis(),
            );
        }
        out
    }

    /// Renders one token pass as an ASCII compute/transfer Gantt —
    /// the textual version of the paper's overlap figures. `width` is
    /// the bar budget for the longest step.
    ///
    /// ```text
    /// layer  4 MHA  c ####          | l ############ (FFN)
    /// layer  5 FFN  c ##########    | l ####         (MHA)
    /// ```
    pub fn timeline(&self, token: usize, width: usize) -> String {
        let steps: Vec<&LayerStepRecord> =
            self.records.iter().filter(|r| r.token == token).collect();
        let longest = steps
            .iter()
            .map(|r| r.step.as_secs())
            .fold(0.0f64, f64::max);
        if longest <= 0.0 {
            return String::new();
        }
        let scale = width as f64 / longest;
        let mut out = String::new();
        for r in &steps {
            let c = (r.compute.as_secs() * scale).round() as usize;
            let l = (r.load_next.as_secs() * scale).round() as usize;
            let _ = writeln!(
                out,
                "layer {:>3} {:<9} c {:<w$} | l {:<w$} {}",
                r.layer_index,
                r.kind.to_string(),
                "#".repeat(c.min(width)),
                "#".repeat(l.min(width)),
                r.next_kind.map(|k| format!("({k})")).unwrap_or_default(),
                w = width,
            );
        }
        out
    }

    /// A one-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} on {} [{} b={}{}]: TTFT {:.1} ms, TBT {:.1} ms, {:.2} tok/s",
            self.model,
            self.config,
            self.placement,
            self.batch,
            if self.compressed { " (c)" } else { "" },
            self.ttft_ms(),
            self.tbt_ms(),
            self.throughput_tps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        token: usize,
        layer_index: usize,
        kind: LayerKind,
        stage: Stage,
        compute_ms: f64,
        load_ms: f64,
        next_kind: Option<LayerKind>,
    ) -> LayerStepRecord {
        LayerStepRecord {
            token,
            layer_index,
            kind,
            stage,
            compute: SimDuration::from_millis(compute_ms),
            load_next: SimDuration::from_millis(load_ms),
            next_kind,
            h2d_bytes: ByteSize::from_mb(load_ms), // 1 MB/ms stand-in
            d2h_bytes: ByteSize::ZERO,
            step: SimDuration::from_millis(compute_ms.max(load_ms)),
        }
    }

    fn report() -> RunReport {
        let records = vec![
            // Two decode MHA steps loading FFN weights (first is
            // the cold sample and gets discarded).
            record(
                1,
                1,
                LayerKind::Mha,
                Stage::Decode,
                99.0,
                99.0,
                Some(LayerKind::Ffn),
            ),
            record(
                2,
                1,
                LayerKind::Mha,
                Stage::Decode,
                10.0,
                30.0,
                Some(LayerKind::Ffn),
            ),
            record(
                3,
                1,
                LayerKind::Mha,
                Stage::Decode,
                10.0,
                30.0,
                Some(LayerKind::Ffn),
            ),
            record(
                2,
                2,
                LayerKind::Ffn,
                Stage::Decode,
                20.0,
                15.0,
                Some(LayerKind::Mha),
            ),
            record(
                3,
                2,
                LayerKind::Ffn,
                Stage::Decode,
                20.0,
                15.0,
                Some(LayerKind::Mha),
            ),
        ];
        RunReport {
            model: "test".into(),
            config: "DRAM".into(),
            placement: PlacementKind::Baseline,
            batch: 1,
            compressed: false,
            ttft: SimDuration::from_millis(100.0),
            tbt: [0.5, 0.01, 0.02, 0.03].into_iter().collect(),
            total_time: SimDuration::from_secs(1.0),
            tokens_generated: 21,
            totals: StepTotals::from_records(&records),
            records,
            achieved_distribution: [0.0, 91.7, 8.3],
            attribution: Attribution::default(),
            audit: None,
        }
    }

    #[test]
    fn tbt_discards_first() {
        let r = report();
        assert!((r.tbt_ms() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_is_tokens_over_time() {
        let r = report();
        assert!((r.throughput_tps() - 21.0).abs() < 1e-9);
    }

    #[test]
    fn averages_filter_by_stage_kind_and_discard_first() {
        let r = report();
        let mha_c = r.avg_compute(Stage::Decode, LayerKind::Mha);
        assert!((mha_c.as_millis() - 10.0).abs() < 1e-9);
        let ffn_l = r.avg_weight_transfer(Stage::Decode, LayerKind::Ffn);
        assert!((ffn_l.as_millis() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_ratio_matches_table_iv_semantics() {
        let r = report();
        // MHA compute (10) / FFN load (30) = 0.33: memory-bound.
        let ratio = r.overlap_ratio(Stage::Decode, LayerKind::Mha, LayerKind::Ffn);
        assert!((ratio - 1.0 / 3.0).abs() < 1e-9);
        // FFN compute (20) / MHA load (15) = 1.33: compute-bound.
        let ratio2 = r.overlap_ratio(Stage::Decode, LayerKind::Ffn, LayerKind::Mha);
        assert!((ratio2 - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn decode_profile_orders_by_layer() {
        let r = report();
        let profile = r.decode_load_profile();
        // Token 1 is the first decode pass; one record there.
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].0, 2);
    }

    #[test]
    fn summary_mentions_everything() {
        let s = report().summary();
        assert!(s.contains("DRAM") && s.contains("TBT") && s.contains("tok/s"));
    }

    #[test]
    fn traffic_totals_sum_records() {
        let r = report();
        // 99 + 30 + 30 + 15 + 15 MB of stand-in traffic.
        assert_eq!(r.total_h2d_bytes(), ByteSize::from_mb(189.0));
        assert_eq!(r.total_d2h_bytes(), ByteSize::ZERO);
        assert!(r.total_compute_time() > SimDuration::ZERO);
    }

    #[test]
    fn timeline_renders_scaled_bars() {
        let r = report();
        let t = r.timeline(2, 20);
        assert_eq!(t.lines().count(), 2);
        assert!(t.contains("MHA"));
        assert!(t.contains("(FFN)"));
        // The 30 ms load dominates the token-2 MHA step: full-width bar.
        let first = t.lines().next().unwrap();
        assert!(first.contains(&"#".repeat(20)));
        // Unknown token: empty.
        assert_eq!(r.timeline(99, 20), "");
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let r = report();
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 1 + r.records.len());
        assert!(csv.starts_with("token,layer_index"));
        assert!(csv.contains("MHA,decode"));
    }
}
