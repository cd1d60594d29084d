//! Per-request span traces and critical-path attribution.
//!
//! The auditor proves a run is *correct*; this module explains why it
//! is *slow*. Every request decomposes into queue wait → service
//! (prefill → per-step decode), and every boundary is quantized onto
//! `simcore::trace`'s integer picosecond lattice so the three
//! attribution buckets — queue-bound, compute-bound, transfer-bound —
//! partition the end-to-end latency *exactly*:
//! `queue + compute + transfer == e2e` is a `u64` equality, never a
//! float tolerance.
//!
//! Attribution is computed unconditionally (it reads only instants
//! the simulators already produce, so it costs a handful of integer
//! subtractions per request and never perturbs the f64 timing
//! stream). Span *trees* are collected only when a run is handed a
//! trace sink — the `*_traced` entry points — and every report is
//! bit-identical to the untraced run because the reports never
//! contain the spans: traces travel on a separate channel, composing
//! with any `RecordMode` and `StepGranularity`.
//!
//! Coalesced cluster runs never re-run per-step: decode boundaries
//! are synthesized from the calibrated service model's span
//! arithmetic (`prefill(b) + k * decode_step(b)`), which is the same
//! arithmetic the per-step engine uses to schedule its events, so the
//! synthesized tree is byte-identical to the per-step tree by
//! construction.

use simcore::trace::{validate_nesting, NestingError, TraceSpan};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Critical-path attribution: an exact partition of elapsed time into
/// queue-bound, compute-bound, and transfer-bound ticks.
///
/// All fields are integer picoseconds on the `simcore::trace`
/// lattice. The invariant `queue + compute + transfer == total` holds
/// as an equality (see [`Attribution::is_exact`]) because every
/// bucket is a telescoping sum of converted boundaries. Buckets are
/// `u128`: a single request's ticks fit comfortably in `u64`, but a
/// run-level aggregate sums latencies over up to 1e5+ requests, and
/// 1e5 × ~5e16 ticks overflows `u64` — the wider type keeps
/// [`Attribution::absorb`] exact at any scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Ticks spent waiting for admission (zero for offline runs).
    pub queue_ticks: u128,
    /// Ticks where compute bound the critical path.
    pub compute_ticks: u128,
    /// Ticks where weight/KV transfer bound the critical path.
    pub transfer_ticks: u128,
    /// Total attributed ticks (end-to-end latency, or run makespan
    /// when aggregated).
    pub total_ticks: u128,
}

impl Attribution {
    /// Exactness invariant: the three buckets partition the total.
    pub fn is_exact(&self) -> bool {
        self.queue_ticks + self.compute_ticks + self.transfer_ticks == self.total_ticks
    }

    /// Adds another attribution bucket-wise (per-run aggregation).
    pub fn absorb(&mut self, other: Attribution) {
        self.queue_ticks += other.queue_ticks;
        self.compute_ticks += other.compute_ticks;
        self.transfer_ticks += other.transfer_ticks;
        self.total_ticks += other.total_ticks;
    }

    /// Fraction of attributed time that was queue-bound (0 when no
    /// time was attributed).
    pub fn queue_fraction(&self) -> f64 {
        self.fraction(self.queue_ticks)
    }

    /// Fraction of attributed time that was compute-bound.
    pub fn compute_fraction(&self) -> f64 {
        self.fraction(self.compute_ticks)
    }

    /// Fraction of attributed time that was transfer-bound — the
    /// paper's overlap claim in one number: HeLM placements stay
    /// below 0.5, All-CPU baselines do not.
    pub fn transfer_fraction(&self) -> f64 {
        self.fraction(self.transfer_ticks)
    }

    fn fraction(&self, bucket: u128) -> f64 {
        if self.total_ticks == 0 {
            0.0
        } else {
            bucket as f64 / self.total_ticks as f64
        }
    }
}

/// The span tree and attribution of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Request identity (completion order within the run).
    pub id: u64,
    /// Pipeline (offline: always 0) the request was served on.
    pub pipe: u32,
    /// Pre-order, depth-encoded span tree.
    pub spans: Vec<TraceSpan>,
    /// Exact critical-path attribution for this request.
    pub attribution: Attribution,
}

/// All span trees collected from one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// One entry per completed request, in completion order.
    pub requests: Vec<RequestTrace>,
}

impl Trace {
    /// Total number of spans across all requests.
    pub fn span_count(&self) -> usize {
        self.requests.iter().map(|r| r.spans.len()).sum()
    }

    /// Validates every request's span tree nests without overlap.
    ///
    /// # Errors
    ///
    /// Returns the first structural fault with its request id.
    pub fn validate(&self) -> Result<(), (u64, NestingError)> {
        for req in &self.requests {
            validate_nesting(&req.spans).map_err(|e| (req.id, e))?;
        }
        Ok(())
    }

    /// Renders the trace as chrome-trace JSON (the "trace event
    /// format" loaded by `chrome://tracing` / Perfetto): one complete
    /// (`"ph":"X"`) event per span, with the pipeline as the process
    /// id and the request as the thread id. Timestamps are
    /// microseconds, the format's native unit.
    ///
    /// Each span is written straight into the output buffer. Span
    /// names are `&'static str` identifiers, so nothing is escaped.
    pub fn to_chrome_json(&self) -> String {
        // Spans run ~100 bytes; reserving past that avoids a final
        // regrow that copies the whole buffer.
        let mut out = String::with_capacity(64 + self.span_count() * 112);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut sep = "\n";
        for req in &self.requests {
            for span in &req.spans {
                out.push_str(sep);
                sep = ",\n";
                out.push_str("{\"name\":\"");
                out.push_str(span.name);
                out.push_str("\",\"cat\":\"helm\",\"ph\":\"X\",\"ts\":");
                push_us(&mut out, span.start);
                out.push_str(",\"dur\":");
                push_us(&mut out, span.end - span.start);
                out.push_str(",\"pid\":");
                push_u64(&mut out, u64::from(req.pipe));
                out.push_str(",\"tid\":");
                push_u64(&mut out, req.id);
                out.push('}');
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Picosecond ticks → microseconds for chrome-trace timestamps.
fn ticks_to_us(ticks: u64) -> f64 {
    ticks as f64 / 1e6 // lint: allow(raw-unit-arith): tick-lattice to chrome-trace µs encoding
}

/// Ticks per microsecond: the decimal shift between the tick lattice
/// and the chrome-trace µs encoding.
const TICKS_PER_US: u64 = 1_000_000; // lint: allow(untyped-unit-const): decimal shift of the chrome-trace µs text, not a simulated quantity

/// Below 2^32 µs, adjacent f64 values are at most 2^-20 µs apart,
/// finer than one tick (1e-6 µs).
const EXACT_DECIMAL_BELOW: u64 = (1 << 32) * TICKS_PER_US;

/// Appends `ticks` in microseconds, byte-identical to formatting
/// [`ticks_to_us`] with `{}`.
///
/// `{}` prints the shortest decimal that rounds back to the same
/// f64. Below [`EXACT_DECIMAL_BELOW`] that decimal is
/// `ticks / 1e6` itself. Any other decimal with as few digits is a
/// multiple of the exact value's last digit place (≥ 1e-6 µs) and so
/// lies at least 1e-6 µs away, while everything that rounds to the
/// same f64 lies within 2^-20 µs. So the integer part and the six-digit
/// tick remainder, trailing zeros dropped, are exactly what `{}`
/// prints. Larger values go through `{}`.
fn push_us(out: &mut String, ticks: u64) {
    if ticks >= EXACT_DECIMAL_BELOW {
        let _ = write!(out, "{}", ticks_to_us(ticks));
        return;
    }
    push_u64(out, ticks / TICKS_PER_US);
    let mut frac = ticks % TICKS_PER_US;
    if frac == 0 {
        return;
    }
    let mut digits = *b".000000";
    for d in digits[1..].iter_mut().rev() {
        *d = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    let len = digits.iter().rposition(|&d| d != b'0').map_or(0, |i| i + 1);
    out.extend(digits[..len].iter().map(|&d| char::from(d)));
}

/// Appends `v` in decimal.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(buf[start..].iter().map(|&d| char::from(d)));
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Number of `"ph":"X"` events in the file.
    pub events: usize,
    /// Number of distinct (pid, tid) tracks.
    pub tracks: usize,
}

/// Parses an exported chrome-trace JSON file and checks that, within
/// each (pid, tid) track, spans nest without overlap.
///
/// One forward pass over the bytes: each event's key/value pairs are
/// read once, in any key order, and the event is pushed onto its
/// track's stack of open spans right away, so the cost is
/// O(bytes + events · log tracks) and nothing per event is kept. The
/// accepted subset is what trace exporters emit: a `"traceEvents"`
/// array of objects, each a complete (`"ph":"X"`) event with string
/// `name` and numeric `ts`/`dur`/`pid`/`tid`. Other keys may hold any
/// JSON value (nested `args` objects included) and are skipped.
/// Whitespace and stray commas between array elements are tolerated,
/// and whatever follows the array is ignored. The workspace takes no
/// serde dependency.
///
/// # Errors
///
/// Returns a description of the first parse or nesting fault in file
/// order.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let events_start = text
        .find("\"traceEvents\"")
        .ok_or("missing \"traceEvents\" key")?;
    let open = text[events_start..]
        .find('[')
        .ok_or("missing traceEvents array")?
        + events_start;
    let mut cursor = Cursor {
        text,
        pos: open + 1,
    };
    // (pid, tid) -> the spans still open on that track, outermost
    // first. The track being appended to is held outside the map, so a
    // run of events on one track costs one lookup, not one per event.
    let mut tracks: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    let (mut current, mut open_spans) = (None, Vec::new());
    let mut events = 0usize;
    loop {
        while matches!(cursor.peek(), Some(b',' | b' ' | b'\t' | b'\n' | b'\r')) {
            cursor.pos += 1;
        }
        match cursor.peek() {
            Some(b']') => break,
            Some(b'{') => {}
            Some(_) => return Err(cursor.fault("expected an event object")),
            None => return Err("unterminated traceEvents array".into()),
        }
        let (ts, dur, key) = cursor.event()?;
        if current != Some(key) {
            if let Some(previous) = current.replace(key) {
                tracks.insert(previous, std::mem::take(&mut open_spans));
            }
            open_spans = tracks.remove(&key).unwrap_or_default();
        }
        nest(&mut open_spans, ts, ts + dur)
            .map_err(|e| format!("track pid={} tid={}: {e}", key.0, key.1))?;
        events += 1;
    }
    Ok(ChromeTraceStats {
        events,
        tracks: tracks.len() + usize::from(current.is_some()),
    })
}

/// A read position in a chrome-trace file.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn fault(&self, what: &str) -> String {
        if self.pos >= self.text.len() {
            format!("unterminated traceEvents array: {what} at end of input")
        } else {
            format!("{what} at byte {}", self.pos)
        }
    }

    /// Reads one event object at the cursor and checks its fields,
    /// returning `(ts, dur, (pid, tid))`.
    fn event(&mut self) -> Result<(f64, f64, (u64, u64)), String> {
        let start = self.pos;
        self.pos += 1;
        let (mut ph, mut name) = (None, None);
        let (mut ts, mut dur, mut pid, mut tid) = (None, None, None, None);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'}') => break,
                Some(b'"') => {}
                _ => return Err(self.fault("expected a key or '}' in event")),
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.fault("expected ':' after key"));
            }
            self.pos += 1;
            self.skip_ws();
            match key {
                "ph" => ph = Some(self.string()?),
                "name" => name = Some(self.string()?),
                "ts" => ts = Some(self.number(key)?),
                "dur" => dur = Some(self.number(key)?),
                "pid" => pid = Some(self.number(key)?),
                "tid" => tid = Some(self.number(key)?),
                _ => self.skip_value()?,
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {}
                _ => return Err(self.fault("expected ',' or '}' in event")),
            }
        }
        self.pos += 1;
        let raw = &self.text[start..self.pos];
        let missing = |field: &str| format!("event missing \"{field}\": {raw}");
        let ph = ph.ok_or_else(|| missing("ph"))?;
        if ph != "X" {
            return Err(format!("unsupported event phase {ph:?}"));
        }
        name.ok_or_else(|| missing("name"))?;
        let ts = ts.ok_or_else(|| missing("ts"))?;
        let dur = dur.ok_or_else(|| missing("dur"))?;
        let pid = pid.ok_or_else(|| missing("pid"))?;
        let tid = tid.ok_or_else(|| missing("tid"))?;
        if !(ts.is_finite() && dur.is_finite()) || ts < 0.0 || dur < 0.0 {
            return Err(format!("event has invalid ts/dur: {raw}"));
        }
        Ok((ts, dur, (pid as u64, tid as u64)))
    }

    /// Reads a string at the cursor and returns its contents as
    /// written (escapes are skipped over, not decoded).
    fn string(&mut self) -> Result<&'a str, String> {
        if self.peek() != Some(b'"') {
            return Err(self.fault("expected a string"));
        }
        let bytes = self.text.as_bytes();
        let start = self.pos + 1;
        let mut i = start;
        while let Some(&b) = bytes.get(i) {
            match b {
                b'"' => {
                    self.pos = i + 1;
                    return Ok(&self.text[start..i]);
                }
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        Err(self.fault("unterminated string"))
    }

    /// Reads a number at the cursor with `str::parse::<f64>`.
    fn number(&mut self, key: &str) -> Result<f64, String> {
        let rest = &self.text[self.pos..];
        let len = rest
            .bytes()
            .position(|c| !(c.is_ascii_digit() || matches!(c, b'.' | b'-' | b'+' | b'e' | b'E')))
            .unwrap_or(rest.len());
        let value = rest[..len]
            .parse()
            .map_err(|_| self.fault(&format!("\"{key}\" is not a number")))?;
        self.pos += len;
        Ok(value)
    }

    /// Skips one JSON value of any type, nested objects and arrays
    /// included.
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'{' | b'[') => {
                let mut depth = 0usize;
                loop {
                    match self.peek() {
                        None => return Err(self.fault("unterminated value")),
                        Some(b'"') => {
                            self.string()?;
                            continue;
                        }
                        Some(b'{' | b'[') => depth += 1,
                        Some(b'}' | b']') => depth -= 1,
                        Some(_) => {}
                    }
                    self.pos += 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
            }
            _ => {
                // A number or literal runs to the next delimiter.
                let rest = &self.text.as_bytes()[self.pos..];
                let len = rest
                    .iter()
                    .position(|c| matches!(c, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r'))
                    .unwrap_or(rest.len());
                if len == 0 {
                    return Err(self.fault("expected a value"));
                }
                self.pos += len;
                Ok(())
            }
        }
    }
}

/// Half a tick in microseconds. True span boundaries are integer
/// picosecond ticks, so a real overlap is at least one full tick
/// (1e-6 µs); the µs float encoding (`ts`, `ts + dur`) carries only
/// rounding noise. Comparing with [`boundary_slack`] therefore
/// rejects every genuine overlap and accepts every genuine nesting.
const HALF_TICK_US: f64 = 0.5e-6; // lint: allow(untyped-unit-const): chrome-trace µs comparison slack, not a simulated quantity

/// Comparison slack for one encoded boundary: half a tick plus a few
/// ULPs at the boundary's own magnitude. `ts` and `dur` are rounded
/// separately and summed, so an event's end carries up to ~2 ULPs of
/// float error — at late timestamps (1e9+ µs) one ULP already
/// exceeds the fixed half-tick term. Eight ULPs stays sub-nanosecond
/// out to 1e8 s of simulated time, orders of magnitude below the
/// shortest attributed segment (~250 µs), so genuine overlaps still
/// fail the check.
fn boundary_slack(at: f64) -> f64 {
    HALF_TICK_US + 8.0 * f64::EPSILON * at.abs()
}

/// Pushes span `[start, end]` onto its track's stack of open spans.
/// Spans that end at or before `start` are closed first; the span must
/// then lie inside the innermost span still open (boundaries compared
/// with [`boundary_slack`]). Fed a track's events in file order, this
/// accepts exactly the tracks whose spans nest without overlap.
fn nest(open: &mut Vec<(f64, f64)>, start: f64, end: f64) -> Result<(), String> {
    while let Some(&(_, open_end)) = open.last() {
        if start >= open_end - boundary_slack(open_end) {
            open.pop();
        } else {
            break;
        }
    }
    if let Some(&(open_start, open_end)) = open.last() {
        if start < open_start - boundary_slack(open_start)
            || end > open_end + boundary_slack(open_end)
        {
            return Err(format!(
                "span [{start}, {end}] overlaps enclosing span [{open_start}, {open_end}]"
            ));
        }
    }
    open.push((start, end));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn span(name: &'static str, depth: u32, start: u64, end: u64) -> TraceSpan {
        TraceSpan {
            name,
            depth,
            start,
            end,
        }
    }

    fn sample_trace() -> Trace {
        Trace {
            requests: vec![
                RequestTrace {
                    id: 0,
                    pipe: 0,
                    spans: vec![
                        span("request", 0, 0, 1_000_000),
                        span("queue", 1, 0, 250_000),
                        span("service", 1, 250_000, 1_000_000),
                        span("prefill", 2, 250_000, 500_000),
                        span("decode", 2, 500_000, 1_000_000),
                    ],
                    attribution: Attribution {
                        queue_ticks: 250_000,
                        compute_ticks: 500_000,
                        transfer_ticks: 250_000,
                        total_ticks: 1_000_000,
                    },
                },
                RequestTrace {
                    id: 1,
                    pipe: 1,
                    spans: vec![span("request", 0, 100, 900), span("service", 1, 100, 900)],
                    attribution: Attribution {
                        queue_ticks: 0,
                        compute_ticks: 800,
                        transfer_ticks: 0,
                        total_ticks: 800,
                    },
                },
            ],
        }
    }

    #[test]
    fn attribution_exactness_and_fractions() {
        let a = Attribution {
            queue_ticks: 10,
            compute_ticks: 60,
            transfer_ticks: 30,
            total_ticks: 100,
        };
        assert!(a.is_exact());
        assert_eq!(a.queue_fraction(), 0.1);
        assert_eq!(a.compute_fraction(), 0.6);
        assert_eq!(a.transfer_fraction(), 0.3);
        let empty = Attribution::default();
        assert!(empty.is_exact());
        assert_eq!(empty.transfer_fraction(), 0.0);
    }

    #[test]
    fn absorb_accumulates_bucketwise() {
        let mut total = Attribution::default();
        for _ in 0..3 {
            total.absorb(Attribution {
                queue_ticks: 1,
                compute_ticks: 2,
                transfer_ticks: 3,
                total_ticks: 6,
            });
        }
        assert_eq!(total.total_ticks, 18);
        assert!(total.is_exact());
    }

    #[test]
    fn trace_validates_and_counts() {
        let trace = sample_trace();
        assert_eq!(trace.span_count(), 7);
        trace.validate().unwrap();
    }

    #[test]
    fn broken_tree_reports_request_id() {
        let mut trace = sample_trace();
        trace.requests[1].spans.push(span("bad", 1, 0, 5_000));
        let (id, err) = trace.validate().unwrap_err();
        assert_eq!(id, 1);
        assert!(err.reason.contains("sibling") || err.reason.contains("escapes"));
    }

    #[test]
    fn chrome_export_round_trips_through_validator() {
        let json = sample_trace().to_chrome_json();
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.events, 7);
        assert_eq!(stats.tracks, 2);
    }

    #[test]
    fn validator_rejects_overlapping_spans() {
        let json = "{\"traceEvents\":[\
            {\"name\":\"a\",\"cat\":\"x\",\"ph\":\"X\",\"ts\":0,\"dur\":10,\"pid\":0,\"tid\":0},\
            {\"name\":\"b\",\"cat\":\"x\",\"ph\":\"X\",\"ts\":5,\"dur\":10,\"pid\":0,\"tid\":0}\
            ]}";
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("overlaps"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_missing_fields_and_garbage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"other\":[]}").is_err());
        let missing_ts = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"dur\":10,\"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(missing_ts).is_err());
    }

    #[test]
    fn validator_accepts_empty_trace() {
        let stats = validate_chrome_trace("{\"traceEvents\":[]}").unwrap();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.tracks, 0);
    }

    /// The exporter and validator this module used to ship, kept as
    /// oracles: a `format!` per span, and a validator that splits the
    /// array into objects, finds each field by substring search and
    /// checks nesting track by track at the end.
    mod oracle {
        use super::super::{boundary_slack, ticks_to_us, ChromeTraceStats, Trace};

        pub fn to_chrome_json(trace: &Trace) -> String {
            let mut out = String::new();
            out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
            let mut first = true;
            for req in &trace.requests {
                for span in &req.spans {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!(
                        "\n{{\"name\":\"{}\",\"cat\":\"helm\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                         \"pid\":{},\"tid\":{}}}",
                        span.name,
                        ticks_to_us(span.start),
                        ticks_to_us(span.end - span.start),
                        req.pipe,
                        req.id,
                    ));
                }
            }
            out.push_str("\n]}\n");
            out
        }

        pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
            let events_start = text
                .find("\"traceEvents\"")
                .ok_or("missing \"traceEvents\" key")?;
            let open = text[events_start..]
                .find('[')
                .ok_or("missing traceEvents array")?
                + events_start;
            let close = text.rfind(']').ok_or("unterminated traceEvents array")?;
            if close < open {
                return Err("malformed traceEvents array".into());
            }
            type Track = ((u64, u64), Vec<(f64, f64)>);
            let mut tracks: Vec<Track> = Vec::new();
            let mut events = 0usize;
            for raw in split_objects(&text[open + 1..close]) {
                let ph =
                    field_str(raw, "ph").ok_or_else(|| format!("event missing \"ph\": {raw}"))?;
                if ph != "X" {
                    return Err(format!("unsupported event phase {ph:?}"));
                }
                field_str(raw, "name").ok_or_else(|| format!("event missing \"name\": {raw}"))?;
                let ts =
                    field_num(raw, "ts").ok_or_else(|| format!("event missing \"ts\": {raw}"))?;
                let dur =
                    field_num(raw, "dur").ok_or_else(|| format!("event missing \"dur\": {raw}"))?;
                let pid =
                    field_num(raw, "pid").ok_or_else(|| format!("event missing \"pid\": {raw}"))?;
                let tid =
                    field_num(raw, "tid").ok_or_else(|| format!("event missing \"tid\": {raw}"))?;
                if !(ts.is_finite() && dur.is_finite()) || ts < 0.0 || dur < 0.0 {
                    return Err(format!("event has invalid ts/dur: {raw}"));
                }
                let key = (pid as u64, tid as u64);
                match tracks.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, list)) => list.push((ts, ts + dur)),
                    None => tracks.push((key, vec![(ts, ts + dur)])),
                }
                events += 1;
            }
            for ((pid, tid), list) in &tracks {
                check_track_nesting(list).map_err(|e| format!("track pid={pid} tid={tid}: {e}"))?;
            }
            Ok(ChromeTraceStats {
                events,
                tracks: tracks.len(),
            })
        }

        fn check_track_nesting(events: &[(f64, f64)]) -> Result<(), String> {
            let mut stack: Vec<(f64, f64)> = Vec::new();
            for &(start, end) in events {
                while let Some(&(_, open_end)) = stack.last() {
                    if start >= open_end - boundary_slack(open_end) {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&(open_start, open_end)) = stack.last() {
                    if start < open_start - boundary_slack(open_start)
                        || end > open_end + boundary_slack(open_end)
                    {
                        return Err(format!(
                            "span [{start}, {end}] overlaps enclosing span [{open_start}, {open_end}]"
                        ));
                    }
                }
                stack.push((start, end));
            }
            Ok(())
        }

        fn split_objects(body: &str) -> impl Iterator<Item = &str> {
            let mut objects = Vec::new();
            let mut depth = 0usize;
            let mut start = None;
            let mut in_string = false;
            let mut escaped = false;
            for (i, c) in body.char_indices() {
                if in_string {
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        in_string = false;
                    }
                    continue;
                }
                match c {
                    '"' => in_string = true,
                    '{' => {
                        if depth == 0 {
                            start = Some(i);
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            if let Some(s) = start.take() {
                                objects.push(&body[s..=i]);
                            }
                        }
                    }
                    _ => {}
                }
            }
            objects.into_iter()
        }

        fn field_str<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
            let needle = format!("\"{key}\":");
            let at = obj.find(&needle)? + needle.len();
            let rest = obj[at..].trim_start();
            let rest = rest.strip_prefix('"')?;
            let end = rest.find('"')?;
            Some(&rest[..end])
        }

        fn field_num(obj: &str, key: &str) -> Option<f64> {
            let needle = format!("\"{key}\":");
            let at = obj.find(&needle)? + needle.len();
            let rest = obj[at..].trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        }
    }

    const FIELDS: [&str; 6] = ["ph", "name", "ts", "dur", "pid", "tid"];

    fn event(name: &str, ts: f64, dur: f64, pid: u64, tid: u64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid}}}"
        )
    }

    fn trace_of(events: &[String]) -> String {
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    /// Removes `"key":value` and one adjacent comma from a flat event.
    fn drop_field(event: &str, key: &str) -> String {
        let at = event.find(&format!("\"{key}\":")).expect("field present");
        let end = at + event[at..].find([',', '}']).expect("value ends");
        if event[end..].starts_with(',') {
            format!("{}{}", &event[..at], &event[end + 1..])
        } else {
            format!("{}{}", &event[..at - 1], &event[end..])
        }
    }

    /// Applies `edit` to the `index`-th event line of an exported trace.
    fn edit_event(json: &str, index: usize, edit: impl Fn(&str) -> String) -> String {
        let mut lines: Vec<String> = json.split('\n').map(str::to_owned).collect();
        lines[index + 1] = edit(&lines[index + 1]);
        lines.join("\n")
    }

    #[test]
    fn exporter_writes_microseconds_exactly_as_f64_display() {
        let edges = [
            0,
            1,
            10,
            250_000,
            999_999,
            1_000_000,
            1_000_001,
            123_456_789,
            EXACT_DECIMAL_BELOW - 1,
            EXACT_DECIMAL_BELOW,
            EXACT_DECIMAL_BELOW + 1,
            u64::MAX,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let random = std::iter::repeat_with(move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state >> (state % 64)
        });
        let near_edge = (0..1_000u64).map(|i| EXACT_DECIMAL_BELOW - 1 - i * 999_983);
        for ticks in edges
            .into_iter()
            .chain(near_edge)
            .chain(random.take(50_000))
        {
            let mut out = String::new();
            push_us(&mut out, ticks);
            assert_eq!(out, format!("{}", ticks_to_us(ticks)), "ticks {ticks}");
        }
    }

    #[test]
    fn keys_in_any_order_whitespace_and_trailing_commas() {
        let json = "{ \"traceEvents\" : [\n  { \"tid\" : 3 , \"dur\":10,\n\"ts\":0, \
                    \"pid\":1,\"ph\":\"X\",\"name\":\"a\" },\n\t{\"pid\":1,\"name\":\"b\",\
                    \"ph\":\"X\",\"tid\":3,\"ts\":2,\"dur\":3,},\r\n] }";
        let stats = validate_chrome_trace(json).unwrap();
        assert_eq!(
            stats,
            ChromeTraceStats {
                events: 2,
                tracks: 1
            }
        );
    }

    #[test]
    fn nested_args_and_tricky_strings_are_skipped() {
        let json = r#"{"traceEvents":[
            {"args":{"span":0,"parent":-1,"deep":{"ts":-5,"list":[1,-2.5e3,{"ph":"B"}]}},
             "name":"say \"hi\" {not an object}","cat":"x \"ph\":\"B\" }{","ph":"X",
             "ts":5,"dur":10,"pid":0,"tid":7,"flag":true,"none":null},
            {"name":"}","ph":"X","ts":6,"dur":2,"pid":0,"tid":7,"args":{}}
        ]}"#;
        let stats = validate_chrome_trace(json).unwrap();
        assert_eq!(
            stats,
            ChromeTraceStats {
                events: 2,
                tracks: 1
            }
        );
    }

    #[test]
    fn nesting_is_judged_per_track_in_file_order() {
        let interleaved = trace_of(&[
            event("a", 0.0, 10.0, 0, 1),
            event("b", 0.0, 10.0, 0, 2),
            event("a1", 2.0, 3.0, 0, 1),
            event("b1", 5.0, 5.0, 0, 2),
            event("a2", 6.0, 4.0, 0, 1),
        ]);
        let stats = validate_chrome_trace(&interleaved).unwrap();
        assert_eq!(
            stats,
            ChromeTraceStats {
                events: 5,
                tracks: 2
            }
        );
        // Track 1's child escapes its parent, with track 2 in between.
        let escapes = trace_of(&[
            event("a", 0.0, 10.0, 0, 1),
            event("b", 0.0, 20.0, 0, 2),
            event("a1", 5.0, 8.0, 0, 1),
        ]);
        let err = validate_chrome_trace(&escapes).unwrap_err();
        assert!(
            err.contains("track pid=0 tid=1") && err.contains("overlaps"),
            "{err}"
        );
        // The same tid under another pid is another track.
        let other_pid = trace_of(&[event("a", 0.0, 10.0, 0, 1), event("b", 5.0, 10.0, 1, 1)]);
        assert_eq!(validate_chrome_trace(&other_pid).map(|s| s.tracks), Ok(2));
    }

    #[test]
    fn counts_twenty_thousand_tracks() {
        let requests = (0..20_000u64)
            .map(|id| RequestTrace {
                id,
                pipe: (id % 3) as u32,
                spans: vec![
                    span("request", 0, id * 10, id * 10 + 1_000_000),
                    span("service", 1, id * 10 + 5, id * 10 + 1_000_000),
                ],
                attribution: Attribution::default(),
            })
            .collect();
        let json = Trace { requests }.to_chrome_json();
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(
            stats,
            ChromeTraceStats {
                events: 40_000,
                tracks: 20_000
            }
        );
    }

    #[test]
    fn rejects_each_fault() {
        // A 1 ns overlap late in a long run (1e9 µs) still fails.
        let late = trace_of(&[
            event("p", 1e9, 10.0, 0, 0),
            event("c", 1e9 + 5.0, 5.001, 0, 0),
        ]);
        assert!(validate_chrome_trace(&late)
            .unwrap_err()
            .contains("overlaps"));
        let negative = trace_of(&[event("a", 0.0, -1.0, 0, 0)]);
        assert!(validate_chrome_trace(&negative)
            .unwrap_err()
            .contains("invalid ts/dur"));
        let phase = trace_of(&[event("a", 0.0, 1.0, 0, 0).replace("\"X\"", "\"B\"")]);
        assert!(validate_chrome_trace(&phase)
            .unwrap_err()
            .contains("unsupported event phase"));
        for field in FIELDS {
            let json = trace_of(&[drop_field(&event("a", 0.0, 1.0, 0, 0), field)]);
            let err = validate_chrome_trace(&json).unwrap_err();
            assert!(
                err.contains(&format!("event missing \"{field}\"")),
                "{field}: {err}"
            );
        }
        let whole = trace_of(&[event("a", 0.0, 1.0, 0, 0)]);
        for cut in [
            whole.len() - 2,
            whole.len() - 10,
            "{\"traceEvents\":[".len(),
        ] {
            let err = validate_chrome_trace(&whole[..cut]).unwrap_err();
            assert!(err.contains("unterminated"), "cut at {cut}: {err}");
        }
        let not_number =
            trace_of(&[event("a", 0.0, 1.0, 0, 0).replace("\"ts\":0", "\"ts\":\"0\"")]);
        assert!(validate_chrome_trace(&not_number)
            .unwrap_err()
            .contains("not a number"));
        let junk = format!("{{\"traceEvents\":[{} x]}}", event("a", 0.0, 1.0, 0, 0));
        assert!(validate_chrome_trace(&junk)
            .unwrap_err()
            .contains("expected an event"));
    }

    /// Random traces whose span trees nest: a root per request, tiled
    /// by consecutive children, the last holding one grandchild. Small
    /// pipe/id ranges make requests share tracks; `late` moves a
    /// request past the exporter's exact-decimal range.
    fn trace_strategy() -> impl Strategy<Value = Trace> {
        let request = (
            0u32..3,
            0u64..8,
            (any::<bool>(), 1_000_000_000u64..(1 << 43)),
            prop::collection::vec(1u64..5_000_000_000, 1..5),
        );
        prop::collection::vec(request, 0..12).prop_map(|requests| Trace {
            requests: requests
                .into_iter()
                .map(|(pipe, id, (late, start), durations)| {
                    let start = if late {
                        start + EXACT_DECIMAL_BELOW
                    } else {
                        start
                    };
                    let end = start + durations.iter().sum::<u64>();
                    let mut spans = vec![span("request", 0, start, end)];
                    let mut at = start;
                    for d in durations {
                        spans.push(span("segment", 1, at, at + d));
                        at += d;
                    }
                    let last = spans[spans.len() - 1];
                    spans.push(span(
                        "inner",
                        2,
                        last.start,
                        last.start + (last.end - last.start) / 2,
                    ));
                    RequestTrace {
                        id,
                        pipe,
                        spans,
                        attribution: Attribution::default(),
                    }
                })
                .collect(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The exporter is byte-identical to the old one, and both
        /// validators agree on its output and on faulty mutations of it.
        #[test]
        fn single_pass_validator_agrees_with_oracle(
            trace in trace_strategy(),
            pick in 0usize..1_000,
            kind in 0usize..9,
        ) {
            let json = trace.to_chrome_json();
            prop_assert_eq!(&json, &oracle::to_chrome_json(&trace));
            let verdict = validate_chrome_trace(&json);
            prop_assert_eq!(verdict.clone().ok(), oracle::validate_chrome_trace(&json).ok());
            let mut keys: Vec<_> = trace.requests.iter().map(|r| (r.pipe, r.id)).collect();
            keys.sort_unstable();
            keys.dedup();
            if keys.len() == trace.requests.len() {
                prop_assert_eq!(
                    verdict,
                    Ok(ChromeTraceStats { events: trace.span_count(), tracks: keys.len() })
                );
            }
            if !trace.requests.is_empty() {
                let index = pick % trace.span_count();
                let mutated = match kind {
                    0..=5 => edit_event(&json, index, |e| drop_field(e, FIELDS[kind])),
                    6 => edit_event(&json, index, |e| e.replace("\"ph\":\"X\"", "\"ph\":\"B\"")),
                    _ => {
                        // A child escapes its root by 1 ms at either end.
                        let mut bad = trace.clone();
                        let req = &mut bad.requests[pick % trace.requests.len()];
                        let root = req.spans[0];
                        if kind == 7 {
                            req.spans[1].end = root.end + 1_000_000_000;
                        } else {
                            req.spans[1].start = root.start - 1_000_000_000;
                        }
                        bad.to_chrome_json()
                    }
                };
                let (new, old) = (
                    validate_chrome_trace(&mutated),
                    oracle::validate_chrome_trace(&mutated),
                );
                prop_assert!(new.is_err() && old.is_err(), "kind {kind}: {new:?} vs {old:?}");
            }
        }
    }
}
