//! The traced run's span recorder: one span around each call the
//! benchmark makes into a layer's public functions, kept in memory and
//! written out as chrome-trace JSON when the run ends.
//!
//! Span names are `<layer>.<call>`; everything before the last dot
//! names the layer the span's self time is charged to.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, or `op` for the root of one operation.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder started.
    pub start: u64,
    /// Nanoseconds since the recorder started.
    pub end: u64,
}

impl Span {
    /// Wall time the span covers, in nanoseconds.
    pub fn length(&self) -> u64 {
        self.end - self.start
    }

    /// The layer the span's self time is charged to.
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

/// Records properly nested spans from one thread, in pre-order (a
/// parent always precedes its children), so the span list exports as
/// chrome-trace events without sorting. A recorder that is off runs
/// the same closures and records nothing.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Runs operation `op` inside its root span, named `op`.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op = op;
        self.span("op", f)
    }

    /// Everything recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its length minus the time its direct
/// children cover. Children of one span never overlap (the recorder
/// is single-threaded and nests properly), so the time they cover is
/// the sum of their lengths.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::length).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.length());
        }
    }
    own
}

/// Per-name and per-layer totals of a span list.
#[derive(Debug, Default)]
pub struct Totals {
    /// Every span's length, by name.
    pub lengths: BTreeMap<&'static str, Vec<Duration>>,
    /// Summed self time, by layer (`op` is the time no layer claims).
    pub self_time: BTreeMap<&'static str, Duration>,
}

impl Totals {
    /// Tallies `spans`.
    pub fn of(spans: &[Span]) -> Totals {
        let mut t = Totals::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            t.lengths
                .entry(s.name)
                .or_default()
                .push(Duration::from_nanos(s.length()));
            *t.self_time.entry(s.layer()).or_default() += Duration::from_nanos(own);
        }
        t
    }

    /// Lengths of every span named `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.lengths
            .get(name)
            .map(|v| v.iter().copied().map(crate::measure::ms).collect())
            .unwrap_or_default()
    }

    /// Summed length of every span named `name`.
    pub fn sum(&self, name: &str) -> Duration {
        self.lengths
            .get(name)
            .map_or(Duration::ZERO, |v| v.iter().sum())
    }

    /// `layer`'s self time as a share of the summed op time.
    pub fn share(&self, layer: &str) -> f64 {
        let ops = self.sum("op").as_secs_f64();
        let own = self.self_time.get(layer).map_or(0.0, Duration::as_secs_f64);
        if ops > 0.0 {
            own / ops
        } else {
            0.0
        }
    }
}

/// Chrome-trace JSON of `spans`: one complete (`"ph":"X"`) event per
/// span, timestamps in microseconds, one track per operation
/// (`tid` = op id), with the span's index and its parent's (`-1` for
/// a root) under `args`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| i64::try_from(p).unwrap_or(-1));
        let _ = write!(
            out,
            "{}\n{{\"name\":\"{}\",\"cat\":\"bench_e2e\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":0,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            crate::measure::us(Duration::from_nanos(s.start)),
            crate::measure::us(Duration::from_nanos(s.length())),
            s.op,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use helm_core::trace::validate_chrome_trace;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 7,
            parent,
            start,
            end,
        }
    }

    /// op [0, 100] ⊃ { exec.a [10, 40] ⊃ { exec.b [15, 25] }, trace.c [50, 90] }
    fn tree() -> Vec<Span> {
        vec![
            span("op", None, 0, 100),
            span("exec.a", Some(0), 10, 40),
            span("exec.b", Some(1), 15, 25),
            span("trace.c", Some(0), 50, 90),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&tree()), vec![30, 20, 10, 40]);
        // Self times partition the root's length.
        assert_eq!(self_times(&tree()).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_charge_self_time_to_layers() {
        let t = Totals::of(&tree());
        let ns = |layer: &str| t.self_time[layer].as_nanos();
        assert_eq!((ns("op"), ns("exec"), ns("trace")), (30, 30, 40));
        assert!((t.share("exec") - 0.3).abs() < 1e-12);
        assert!((t.share("trace") - 0.4).abs() < 1e-12);
        assert_eq!(t.share("planner"), 0.0);
        assert_eq!(t.sum("exec.a"), Duration::from_nanos(30));
    }

    #[test]
    fn recorder_nests_in_pre_order() {
        let mut rec = Recorder::new(true);
        rec.op(3, |rec| {
            rec.span("exec.a", |rec| rec.span("exec.b", |_| ()));
            rec.span("trace.c", |_| ());
        });
        rec.op(4, |_| ());
        let spans = rec.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.op, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("op", 3, None),
                ("exec.a", 3, Some(0)),
                ("exec.b", 3, Some(1)),
                ("trace.c", 3, Some(0)),
                ("op", 4, None),
            ]
        );
        for s in &spans {
            if let Some(p) = s.parent {
                assert!(spans[p].start <= s.start && s.end <= spans[p].end);
            }
        }
        let mut off = Recorder::new(false);
        assert_eq!(off.op(1, |rec| rec.span("exec.a", |_| 5)), 5);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn export_passes_the_chrome_trace_validator() {
        let json = to_chrome_json(&tree());
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!((stats.events, stats.tracks), (4, 1));
        assert!(json.contains("\"args\":{\"span\":2,\"parent\":1}"));
        // A child that outlives its parent is caught.
        let mut bad = tree();
        bad[2].end = 45;
        assert!(validate_chrome_trace(&to_chrome_json(&bad)).is_err());
    }
}
