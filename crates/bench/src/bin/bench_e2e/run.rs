//! One workload's run: timed set-up, warm-up, the closed op loop, the
//! correctness gate on every op, and the metrics.
//!
//! The loop is closed: one client issues each op after the previous
//! one finished. An untraced run times plain ops. A traced run
//! alternates plain and traced ops (and, for the searches, plain ops
//! on one thread), so the tracing overhead and the thread speed-up are
//! measured under the same conditions as the ops they compare with.

use std::time::{Duration, Instant};

use crate::check::{Counts, Verdict};
use crate::measure::{median, ms, summarize};
use crate::spans::{Recorder, Span, Totals};
use crate::workloads::{search_threads, Inputs, Size, Workload};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of its inputs.
    pub seed: u64,
    /// Timed ops of each kind.
    pub ops: usize,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Problem size.
    pub size: Size,
    /// Digest every op's report must have, when known.
    pub golden: Option<u64>,
}

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops run, warm-up included.
    pub attempted: u64,
    /// Ops that returned an error or failed a check.
    pub failed: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
    /// The digest every op agreed on.
    pub digest: Option<u64>,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
    /// The traced ops' spans (empty for an untraced run).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every op ran and passed its checks.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.errors.is_empty()
    }

    fn error(&mut self, error: String) {
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

/// How many of each thing a run does.
struct Schedule {
    /// Set-ups before the first op; one more follows every timed op.
    setups: usize,
    warmup: usize,
    probes: usize,
}

impl Schedule {
    fn of(size: Size) -> Schedule {
        match size {
            Size::Full => Schedule {
                setups: 11,
                warmup: 5,
                probes: 9,
            },
            Size::Tiny => Schedule {
                setups: 2,
                warmup: 1,
                probes: 1,
            },
        }
    }
}

/// The kinds of op a run issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Plain,
    Traced,
    Serial,
}

/// Checks every op and that all ops agree on one digest (the golden
/// one, when given) and one set of counts.
struct Gate {
    out: Outcome,
    golden: Option<u64>,
    first: Option<Verdict>,
    confirm_shares: Vec<f64>,
}

impl Gate {
    /// Runs, times and checks one op; its time if it passed.
    fn op(&mut self, inputs: &Inputs, threads: usize, rec: &mut Recorder) -> Option<Duration> {
        let id = self.out.attempted;
        self.out.attempted += 1;
        let start = Instant::now();
        let result = rec.op(id, |rec| inputs.op(threads, rec));
        let took = start.elapsed();
        let checked = result
            .map_err(|e| e.to_string())
            .and_then(|o| inputs.check(o))
            .and_then(|v| self.agree(v));
        match checked {
            Ok(()) => Some(took),
            Err(e) => {
                self.out.failed += 1;
                self.out.error(format!("op {id}: {e}"));
                None
            }
        }
    }

    fn agree(&mut self, v: Verdict) -> Result<(), String> {
        if let Some(golden) = self.golden.filter(|&g| g != v.digest) {
            return Err(format!("digest {:016x}, golden {golden:016x}", v.digest));
        }
        let first = *self.first.get_or_insert(v);
        if v.digest != first.digest {
            return Err(format!(
                "digest {:016x}, first op {:016x}",
                v.digest, first.digest
            ));
        }
        if v.counts != first.counts {
            return Err(format!(
                "counts {:?}, first op {:?}",
                v.counts, first.counts
            ));
        }
        self.confirm_shares.push(v.confirm_share);
        Ok(())
    }

    fn counts(&self) -> Counts {
        self.first.map(|v| v.counts).unwrap_or_default()
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Outcome {
    let sched = Schedule::of(cfg.size);
    let mut gate = Gate {
        out: Outcome::default(),
        golden: cfg.golden,
        first: None,
        confirm_shares: Vec::new(),
    };

    // Set-up is timed before the first op and again after every timed
    // op, so `setup_s`, their median, samples the whole run and not
    // only its first moments. The first build is the one the ops use.
    let mut setup = Vec::new();
    let mut build = || {
        let start = Instant::now();
        let built = Inputs::build(cfg.workload, cfg.seed, cfg.size);
        setup.push(start.elapsed().as_secs_f64());
        built.map_err(|e| format!("set-up: {e}"))
    };
    let inputs = match build() {
        Ok(inputs) => inputs,
        Err(e) => {
            gate.out.error(e);
            return gate.out;
        }
    };
    for _ in 1..sched.setups {
        if let Err(e) = build() {
            gate.out.error(e);
            return gate.out;
        }
    }

    let threads = search_threads();
    let mut plain = Recorder::new(false);
    let mut traced = Recorder::new(true);
    for _ in 0..sched.warmup {
        gate.op(&inputs, threads, &mut plain);
    }

    let kinds: &[Kind] = match (cfg.traced, cfg.workload.is_search()) {
        (false, _) => &[Kind::Plain],
        (true, false) => &[Kind::Plain, Kind::Traced],
        (true, true) => &[Kind::Plain, Kind::Traced, Kind::Serial],
    };
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for _ in 0..cfg.ops {
        for (kind, times) in kinds.iter().zip(&mut times) {
            let took = match kind {
                Kind::Plain => gate.op(&inputs, threads, &mut plain),
                Kind::Traced => gate.op(&inputs, threads, &mut traced),
                Kind::Serial => gate.op(&inputs, 1, &mut plain),
            };
            times.extend(took.map(ms));
        }
        if let Err(e) = build() {
            gate.out.error(e);
        }
    }

    let mut metrics = Vec::new();
    let mut push = |name, value, unit| metrics.push(Metric { name, value, unit });
    if cfg.traced {
        let spans = traced.into_spans();
        match inputs.probes(sched.probes) {
            Ok(probes) => {
                let layers = Layers {
                    totals: Totals::of(&spans),
                    counts: gate.counts(),
                    traced_ops: times[1].len() as f64,
                    plain_ms: median(&times[0]).unwrap_or(0.0),
                    traced_ms: median(&times[1]).unwrap_or(0.0),
                    serial_ms: times.get(2).and_then(|t| median(t)).unwrap_or(0.0),
                    confirm_share: median(&gate.confirm_shares).unwrap_or(0.0),
                    probes,
                };
                layers.report(&mut push);
            }
            Err(e) => gate.out.error(format!("probe: {e}")),
        }
        gate.out.spans = spans;
    } else {
        let plain_ms = &times[0];
        push("setup_s", median(&setup).unwrap_or(0.0), "s");
        if let Some(s) = summarize(plain_ms) {
            push("op_ms_min", s.min, "ms");
            push("op_ms_p50", s.p50, "ms");
            if let Some(p90) = s.p90 {
                push("op_ms_p90", p90, "ms");
            }
            push("op_ms_q1", s.q1, "ms");
            push("op_ms_q3", s.q3, "ms");
            push("ops", s.n as f64, "count");
        }
        // Layer-step records offline, simulator events online; the
        // searches report neither.
        let counts = gate.counts();
        let events = (counts.steps + counts.events) as f64 * plain_ms.len() as f64;
        let busy_s = plain_ms.iter().sum::<f64>() / 1000.0;
        if events > 0.0 && busy_s > 0.0 && !cfg.workload.is_search() {
            push("sim_events_per_s", events / busy_s, "events/s");
        }
        if let Some(rss) = peak_rss_mb() {
            push("peak_rss_mb", rss, "MiB");
        }
        let failed = gate.out.failed as f64 / gate.out.attempted.max(1) as f64;
        push("failed_frac", failed, "ratio");
    }
    gate.out.metrics = metrics;
    gate.out.digest = gate.first.map(|v| v.digest);
    gate.out
}

/// Everything the per-layer metrics are computed from.
struct Layers {
    totals: Totals,
    counts: Counts,
    traced_ops: f64,
    plain_ms: f64,
    traced_ms: f64,
    serial_ms: f64,
    confirm_share: f64,
    probes: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Median length of the spans called `name`, in ms (0 if none).
    fn ms(&self, name: &str) -> f64 {
        median(&self.totals.ms(name)).unwrap_or(0.0)
    }

    fn probe(&self, name: &str) -> f64 {
        self.probes
            .iter()
            .find(|(probe, _)| *probe == name)
            .map_or(0.0, |&(_, value)| value)
    }

    /// Summed length of the spans called `name` per unit of work, in
    /// ns (0 when no work was done).
    fn ns_per(&self, name: &str, work_per_op: u64) -> f64 {
        let work = work_per_op as f64 * self.traced_ops;
        if work > 0.0 {
            ms(self.totals.sum(name)) * 1_000_000.0 / work
        } else {
            0.0
        }
    }

    fn report(&self, push: &mut impl FnMut(&'static str, f64, &'static str)) {
        let c = self.counts;
        let t = &self.totals;
        let calls = |name: &str| t.lengths.get(name).map_or(0, Vec::len) as f64;
        let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let us = |name: &str| self.ms(name) * 1000.0;

        push("placement.server_new_us", us("placement.server_new"), "us");
        push("placement.effective_us", us("placement.effective"), "us");
        push("placement.share", t.share("placement"), "ratio");

        push("exec.cost_table_us", us("exec.cost_table"), "us");
        push("exec.evaluate_us", us("exec.evaluate"), "us");
        push("exec.steps", c.steps as f64, "count");
        push(
            "exec.ns_per_step",
            self.ns_per("exec.evaluate", c.steps),
            "ns",
        );
        push("exec.share", t.share("exec"), "ratio");

        // `plan` calibrates its templates inside the call, where no span
        // of this benchmark reaches. There, calibration's share is the
        // planner's own count of cold calibrations times one cold
        // calibration's median, timed after the ops, and it is moved
        // out of the planner's share.
        let (calibrate_ms, calibrations, planned_calibration) = if c.calibrations > 0 {
            let cold_ms = self.probe("online.calibrate_ms");
            let share = div(
                c.calibrations as f64 * cold_ms * self.traced_ops,
                ms(t.sum("op")),
            );
            (cold_ms, c.calibrations as f64, share)
        } else {
            let calls = div(calls("online.calibrate.cold"), self.traced_ops);
            (self.ms("online.calibrate.cold"), calls, 0.0)
        };
        push("online.calibrate_ms", calibrate_ms, "ms");
        push(
            "online.calibrate_hit_us",
            self.probe("online.calibrate_hit_us"),
            "us",
        );
        push("online.calibrations", calibrations, "count");
        push(
            "online.calibrate.share",
            t.share("online.calibrate") + planned_calibration,
            "ratio",
        );

        push("online.engine_ms", self.ms("online.engine.run"), "ms");
        push("online.events", c.events as f64, "count");
        push(
            "online.ns_per_event",
            self.ns_per("online.engine.run", c.events),
            "ns",
        );
        push("online.served", c.served as f64, "count");
        push("online.rejected", c.rejected as f64, "count");
        push("online.expired", c.expired as f64, "count");
        push("online.engine.share", t.share("online.engine"), "ratio");

        let speedup = div(self.serial_ms, self.plain_ms);
        let prune_ratio = div(c.pruned as f64, (c.evaluated + c.pruned) as f64);
        let plan = t.lengths.contains_key("planner.plan");
        let auto = t.lengths.contains_key("autoplace.search");

        push("planner.space_us", self.probe("planner.space_us"), "us");
        push("planner.search_ms", self.ms("planner.plan"), "ms");
        push("planner.bound_us", self.probe("planner.bound_us"), "us");
        let planner = |x: f64| if plan { x } else { 0.0 };
        push("planner.evaluated", planner(c.evaluated as f64), "count");
        push("planner.pruned", planner(c.pruned as f64), "count");
        push("planner.candidates", c.candidates as f64, "count");
        push("planner.prune_ratio", planner(prune_ratio), "ratio");
        push("planner.confirmations", c.confirmations as f64, "count");
        // Timed by the planner itself (`PlanReport::confirm_wall_ms`
        // over `stats.wall_ms`), not by a span.
        push("planner.confirm_share", self.confirm_share, "ratio");
        push("planner.thread_speedup", planner(speedup), "x");
        push(
            "planner.share",
            (t.share("planner") - planned_calibration).max(0.0),
            "ratio",
        );

        let search_ms = self.ms("autoplace.search");
        let autoplace = |x: f64| if auto { x } else { 0.0 };
        push("autoplace.search_ms", search_ms, "ms");
        push(
            "autoplace.evaluated",
            autoplace(c.evaluated as f64),
            "count",
        );
        push("autoplace.pruned", autoplace(c.pruned as f64), "count");
        push("autoplace.prune_ratio", autoplace(prune_ratio), "ratio");
        push(
            "autoplace.us_per_eval",
            autoplace(div(search_ms * 1000.0, c.evaluated as f64)),
            "us",
        );
        push("autoplace.thread_speedup", autoplace(speedup), "x");
        push("autoplace.share", t.share("autoplace"), "ratio");

        let collect_ms = self.ms("trace.collect");
        let parse_ms = self.ms("trace.parse");
        push("trace.collect_ms", collect_ms, "ms");
        push("trace.tree_check_ms", self.ms("trace.tree_check"), "ms");
        push("trace.export_ms", self.ms("trace.export"), "ms");
        push("trace.parse_ms", parse_ms, "ms");
        push("trace.spans", c.spans as f64, "count");
        push("trace.json_bytes", c.json_bytes as f64, "count");
        push(
            "trace.parse_ns_per_span",
            div(parse_ms * 1_000_000.0, c.spans as f64),
            "ns",
        );
        push(
            "trace.collect_overhead",
            div(collect_ms, self.probe("trace.engine_ms")),
            "x",
        );
        push("trace.share", t.share("trace"), "ratio");

        push("bench.unattributed_share", t.share("op"), "ratio");
        push(
            "bench.layer_overhead",
            div(self.traced_ms, self.plain_ms) - 1.0,
            "ratio",
        );
        push("bench.traced_op_ms", self.traced_ms, "ms");
        push("bench.plain_op_ms", self.plain_ms, "ms");
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0) // lint: allow(raw-unit-arith): /proc reports KiB; the metric is MiB
}
