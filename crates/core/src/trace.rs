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
use std::convert::Infallible;
use std::io::{self, Write as _};

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
    /// [`Trace::write_chrome_json`] writes the same bytes to any
    /// `io::Write`; this renders them into one reserved buffer. Span
    /// names are `&'static str` identifiers, so nothing is escaped.
    pub fn to_chrome_json(&self) -> String {
        // Spans run ~100 bytes; reserving past that avoids a final
        // regrow that copies the whole buffer.
        let mut out = Vec::with_capacity(64 + self.span_count() * 112);
        let Ok(()) = self.render(&mut out, |_| Ok::<(), Infallible>(()));
        // Every byte is ASCII or part of a span name, so the buffer is
        // UTF-8. Were it not, the replacement characters would show
        // the fault in the output instead of hiding it.
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// Writes the chrome-trace JSON of [`Trace::to_chrome_json`], byte
    /// for byte, to `out` without building the whole document: `out`
    /// receives the header, then one `write_all` per span, then the
    /// closing bracket. Wrap a file in a `BufWriter`, and flush it.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` reports.
    pub fn write_chrome_json(&self, out: &mut impl io::Write) -> io::Result<()> {
        let mut buf = Vec::with_capacity(256);
        self.render(&mut buf, |buf| {
            out.write_all(buf)?;
            buf.clear();
            Ok(())
        })
    }

    /// Appends the chrome-trace JSON to `buf`, handing `buf` to `spill`
    /// after each span and after the closing bracket. Each request's
    /// `,"pid":P,"tid":T}` tail is formatted once and copied into each
    /// of its spans.
    fn render<E>(
        &self,
        buf: &mut Vec<u8>,
        mut spill: impl FnMut(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        buf.extend_from_slice(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut open: &[u8] = b"\n{\"name\":\"";
        let mut tail = Vec::with_capacity(48);
        for req in &self.requests {
            tail.clear();
            tail.extend_from_slice(b",\"pid\":");
            push_u64(&mut tail, u64::from(req.pipe));
            tail.extend_from_slice(b",\"tid\":");
            push_u64(&mut tail, req.id);
            tail.push(b'}');
            for span in &req.spans {
                buf.extend_from_slice(open);
                open = b",\n{\"name\":\"";
                buf.extend_from_slice(span.name.as_bytes());
                buf.extend_from_slice(b"\",\"cat\":\"helm\",\"ph\":\"X\",\"ts\":");
                push_us(buf, span.start);
                buf.extend_from_slice(b",\"dur\":");
                push_us(buf, span.end - span.start);
                buf.extend_from_slice(&tail);
                spill(buf)?;
            }
        }
        buf.extend_from_slice(b"\n]}\n");
        spill(buf)
    }
}

/// Picosecond ticks → microseconds for chrome-trace timestamps.
fn ticks_to_us(ticks: u64) -> f64 {
    ticks as f64 / 1e6 // lint: allow(raw-unit-arith): tick-lattice to chrome-trace µs encoding
}

/// Ticks per microsecond: the decimal shift between the tick lattice
/// and the chrome-trace µs encoding.
const TICKS_PER_US: u64 = 1_000_000; // lint: allow(untyped-unit-const): decimal shift of the chrome-trace µs text, not a simulated quantity

/// Below 2^33 µs, adjacent f64 values are at most 2^-20 µs apart,
/// finer than one tick (1e-6 µs). From 2^33 µs on they are 2^-19 µs
/// (≈ 1.9e-6 µs) apart, coarser than a tick, so the bound is tight:
/// the first tick past it prints as `8589934592.000002`.
const EXACT_DECIMAL_BELOW: u64 = (1 << 33) * TICKS_PER_US;

/// `"00"`, `"01"`, …, `"99"`: two ASCII digits per value below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes the two digits of `v < 100` at `buf[at..at + 2]`.
fn put_pair(buf: &mut [u8], at: usize, v: u64) {
    let pair = v as usize * 2;
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
}

/// Writes `v` in decimal so that it ends just before `buf[end]`, and
/// returns where it starts.
fn put_digits(buf: &mut [u8], mut end: usize, mut v: u64) -> usize {
    while v >= 100 {
        end -= 2;
        put_pair(buf, end, v % 100);
        v /= 100;
    }
    if v >= 10 {
        end -= 2;
        put_pair(buf, end, v);
    } else {
        end -= 1;
        buf[end] = b'0' + v as u8;
    }
    end
}

/// Appends `ticks` in microseconds, byte-identical to formatting
/// [`ticks_to_us`] with `{}`.
///
/// `{}` prints the shortest decimal that rounds back to the same
/// f64. Below [`EXACT_DECIMAL_BELOW`] (2^33 µs) that decimal is
/// `ticks / 1e6` itself. Any other decimal with as few digits is a
/// multiple of the exact value's last digit place (≥ 1e-6 µs) and so
/// lies at least 1e-6 µs away, while everything that rounds to the
/// same f64 lies within 2^-20 µs of it. So the integer part and the
/// six-digit tick remainder, trailing zeros dropped, are exactly what
/// `{}` prints. Larger values go through `{}`.
fn push_us(out: &mut Vec<u8>, ticks: u64) {
    if ticks < EXACT_DECIMAL_BELOW {
        push_exact_us(out, ticks);
    } else {
        // A `Vec`'s `io::Write` takes every byte, so this cannot fail.
        let _ = write!(out, "{}", ticks_to_us(ticks));
    }
}

/// Appends the exact decimal of `ticks / 1e6` for `ticks` below
/// [`EXACT_DECIMAL_BELOW`]: at most ten integer digits, then the
/// six-digit tick remainder with trailing zeros dropped.
fn push_exact_us(out: &mut Vec<u8>, ticks: u64) {
    let mut text = *b"0000000000.000000";
    let start = put_digits(&mut text, 10, ticks / TICKS_PER_US);
    let frac = ticks % TICKS_PER_US;
    let mut end = 10;
    if frac != 0 {
        put_pair(&mut text, 11, frac / 10_000);
        put_pair(&mut text, 13, frac / 100 % 100);
        put_pair(&mut text, 15, frac % 100);
        end = text.len();
        while text[end - 1] == b'0' {
            end -= 1;
        }
    }
    out.extend_from_slice(&text[start..end]);
}

/// Appends `v` in decimal.
fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut text = [0u8; 20];
    let start = put_digits(&mut text, 20, v);
    out.extend_from_slice(&text[start..]);
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
/// read once, in any key order, keys are compared as bytes, each
/// number is read where it stands, and the event is pushed onto its
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
    let mut scan = Scanner {
        text,
        bytes: text.as_bytes(),
        pos: open + 1,
    };
    // (pid, tid) -> the spans still open on that track, outermost
    // first. The track being appended to is held outside the map, so a
    // run of events on one track costs one lookup, not one per event.
    let mut tracks: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    let (mut current, mut open_spans) = (None, Vec::new());
    let mut events = 0usize;
    loop {
        while let Some(b',' | b' ' | b'\t' | b'\n' | b'\r') = scan.peek() {
            scan.pos += 1;
        }
        match scan.peek() {
            Some(b']') => break,
            Some(b'{') => {}
            Some(_) => return Err(scan.fault("expected an event object")),
            None => return Err("unterminated traceEvents array".into()),
        }
        let (ts, dur, key) = scan.event()?;
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

/// The fields of one event as read, before they are checked: the byte
/// range of `ph`'s string, whether `name` was a string, and the
/// numbers `ts`, `dur`, `pid` and `tid`.
struct EventFields {
    ph: Option<(usize, usize)>,
    name: bool,
    ts: Option<f64>,
    dur: Option<f64>,
    pid: Option<f64>,
    tid: Option<f64>,
}

/// A read position in a chrome-trace file. The scan reads bytes;
/// `text` is the same input as `&str`, for the slices that error
/// messages quote and that `str::parse` reads.
struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Scanner<'_> {
    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    #[cold]
    fn fault(&self, what: &str) -> String {
        if self.pos >= self.bytes.len() {
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
        let mut fields = EventFields {
            ph: None,
            name: false,
            ts: None,
            dur: None,
            pid: None,
            tid: None,
        };
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'}') => break,
                Some(b'"') => {}
                _ => return Err(self.fault("expected a key or '}' in event")),
            }
            let (key_start, key_end) = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.fault("expected ':' after key"));
            }
            self.pos += 1;
            self.skip_ws();
            match &self.bytes[key_start..key_end] {
                b"ph" => fields.ph = Some(self.string()?),
                b"name" => {
                    self.string()?;
                    fields.name = true;
                }
                b"ts" => fields.ts = Some(self.number("ts")?),
                b"dur" => fields.dur = Some(self.number("dur")?),
                b"pid" => fields.pid = Some(self.number("pid")?),
                b"tid" => fields.tid = Some(self.number("tid")?),
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
        match fields {
            EventFields {
                ph: Some((ph_start, ph_end)),
                name: true,
                ts: Some(ts),
                dur: Some(dur),
                pid: Some(pid),
                tid: Some(tid),
            } if &self.bytes[ph_start..ph_end] == b"X"
                && ts.is_finite()
                && dur.is_finite()
                && ts >= 0.0
                && dur >= 0.0 =>
            {
                Ok((ts, dur, (pid as u64, tid as u64)))
            }
            _ => Err(self.event_fault(start, &fields)),
        }
    }

    /// The first fault of the event `text[start..self.pos]`, checked in
    /// a fixed order: `ph` present and `"X"`, then each other field
    /// present, then `ts` and `dur` finite and non-negative.
    #[cold]
    fn event_fault(&self, start: usize, fields: &EventFields) -> String {
        let raw = &self.text[start..self.pos];
        let missing = |field: &str| format!("event missing \"{field}\": {raw}");
        let Some((ph_start, ph_end)) = fields.ph else {
            return missing("ph");
        };
        let ph = &self.text[ph_start..ph_end];
        if ph != "X" {
            return format!("unsupported event phase {ph:?}");
        }
        let checks = [
            ("name", fields.name),
            ("ts", fields.ts.is_some()),
            ("dur", fields.dur.is_some()),
            ("pid", fields.pid.is_some()),
            ("tid", fields.tid.is_some()),
        ];
        match checks.iter().find(|(_, present)| !present) {
            Some((field, _)) => missing(field),
            None => format!("event has invalid ts/dur: {raw}"),
        }
    }

    /// Reads a string at the cursor and returns the byte range of its
    /// contents as written (escapes are skipped over, not decoded).
    #[inline]
    fn string(&mut self) -> Result<(usize, usize), String> {
        if self.peek() != Some(b'"') {
            return Err(self.fault("expected a string"));
        }
        let start = self.pos + 1;
        let mut i = start;
        while let Some(&b) = self.bytes.get(i) {
            match b {
                b'"' => {
                    self.pos = i + 1;
                    return Ok((start, i));
                }
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        Err(self.fault("unterminated string"))
    }

    /// Reads the number at the cursor: the run of bytes in
    /// `[0-9.+-eE]`, read as by `str::parse::<f64>`.
    ///
    /// A run of the form `[0-9]+(\.[0-9]*)?` with at most 19 digits
    /// and a digit string `m` ≤ 2^53 takes Clinger's fast path:
    /// `m` and `10^k` (k fraction digits, k ≤ 18) are exact doubles,
    /// so `m / 10^k` is one correctly rounded division, the same
    /// double `str::parse` rounds to (`5.` reads as 5 either way).
    /// Every other run (signs, exponents, `.5`, longer or larger
    /// digit strings, junk) goes to `str::parse`.
    #[inline]
    fn number(&mut self, key: &str) -> Result<f64, String> {
        let start = self.pos;
        let mut m = 0u64;
        let int_end = self.digits(start, &mut m);
        let (mut end, mut scale) = (int_end, 0);
        if self.bytes.get(int_end) == Some(&b'.') {
            end = self.digits(int_end + 1, &mut m);
            scale = end - int_end - 1;
        }
        let plain = int_end > start
            && !matches!(self.bytes.get(end), Some(b'.' | b'+' | b'-' | b'e' | b'E'));
        if plain && int_end - start + scale <= 19 && m <= 1 << 53 {
            self.pos = end;
            return Ok(m as f64 / POW10[scale]);
        }
        self.parse_number(key)
    }

    /// Accumulates the decimal digits from `bytes[i]` on into `m`
    /// (wrapping past 19 digits, which [`Scanner::number`] rejects) and
    /// returns where they end.
    #[inline]
    fn digits(&self, mut i: usize, m: &mut u64) -> usize {
        while let Some(&b) = self.bytes.get(i) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            *m = m.wrapping_mul(10).wrapping_add(u64::from(d));
            i += 1;
        }
        i
    }

    /// [`Scanner::number`]'s general path: `str::parse::<f64>` on the
    /// run of number bytes at the cursor.
    #[cold]
    #[inline(never)]
    fn parse_number(&mut self, key: &str) -> Result<f64, String> {
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
                let rest = &self.bytes[self.pos..];
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

/// `10^k` for `k` ≤ 18, each exact in f64 (`5^18 < 2^53`).
const POW10: [f64; 19] = {
    let mut table = [1.0; 19];
    let mut k = 1;
    while k < table.len() {
        table[k] = table[k - 1] * 10.0;
        k += 1;
    }
    table
};

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
        // 2^32 µs: the bottom of the last binade below the bound.
        let binade = EXACT_DECIMAL_BELOW / 2;
        let edges = [
            0,
            1,
            10,
            250_000,
            999_999,
            1_000_000,
            1_000_001,
            123_456_789,
            binade - 1,
            binade,
            binade + 1,
            EXACT_DECIMAL_BELOW - 1,
            EXACT_DECIMAL_BELOW,
            EXACT_DECIMAL_BELOW + 1,
            u64::MAX,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut xorshift = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let random: Vec<u64> = (0..50_000)
            .map(|_| {
                let r = xorshift();
                r >> (r % 64)
            })
            .collect();
        // Ticks in [2^32, 2^33) µs.
        let upper: Vec<u64> = (0..50_000).map(|_| binade + xorshift() % binade).collect();
        let near_edges = [binade, EXACT_DECIMAL_BELOW].into_iter().flat_map(|edge| {
            (0..1_000u64).flat_map(move |i| [edge - 1 - i * 999_983, edge + i * 999_983])
        });
        for ticks in edges
            .into_iter()
            .chain(near_edges)
            .chain(random)
            .chain(upper)
        {
            let mut out = Vec::new();
            push_us(&mut out, ticks);
            assert_eq!(
                String::from_utf8(out).expect("ASCII"),
                format!("{}", ticks_to_us(ticks)),
                "ticks {ticks}"
            );
        }
        // The bound is tight: past 2^33 µs adjacent f64 values are
        // coarser than a tick, and the first tick past the bound does
        // not print as its exact decimal.
        let mut exact = Vec::new();
        push_exact_us(&mut exact, EXACT_DECIMAL_BELOW + 1);
        assert_eq!(exact, b"8589934592.000001");
        assert_eq!(
            format!("{}", ticks_to_us(EXACT_DECIMAL_BELOW + 1)),
            "8589934592.000002"
        );
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

    /// The full text of every fault the validator reports, byte
    /// offsets included.
    #[test]
    fn validator_error_text_is_pinned() {
        let ev = event("a", 0.0, 1.0, 0, 0);
        let whole = trace_of(std::slice::from_ref(&ev));
        let head = "{\"traceEvents\":[";
        let mut inputs = vec![
            trace_of(&[
                event("p", 1e9, 10.0, 0, 0),
                event("c", 1e9 + 5.0, 5.001, 0, 0),
            ]),
            trace_of(&[event("a", 0.0, -1.0, 0, 0)]),
            trace_of(&[ev.replace("\"X\"", "\"B\"")]),
        ];
        inputs.extend(FIELDS.map(|field| trace_of(&[drop_field(&ev, field)])));
        inputs.extend(
            [whole.len() - 2, whole.len() - 10, head.len()].map(|cut| whole[..cut].to_owned()),
        );
        inputs.extend([
            trace_of(&[ev.replace("\"ts\":0", "\"ts\":\"0\"")]),
            format!("{{\"traceEvents\":[{ev} x]}}"),
            // A missing ':', a non-string key, an unterminated string.
            format!("{head}{{\"name\" \"a\"}}]}}"),
            format!("{head}{{name:\"a\"}}]}}"),
            format!("{head}{{\"name\":\"a"),
            format!("{head}{{\"args\":{{\"x\":\"y}}]}}"),
            // Unterminated nested values.
            format!("{head}{{\"args\":{{\"a\":[1,2"),
            format!("{head}{{\"args\":[{{}}, {{\"b\":{{}}]"),
            // Junk between events.
            format!("{head}{ev},5,{ev}]}}"),
            format!("{head}{ev};{ev}]}}"),
            format!("{head}{ev}\n \u{e9}{ev}]}}"),
            format!("{head}{ev},[{ev}]]}}"),
            // The array itself.
            "not json".to_owned(),
            "{\"other\":[]}".to_owned(),
            "{\"traceEvents\": 5}".to_owned(),
            format!("{head}{ev},"),
            format!("{head}{{"),
            format!("{head}{{ "),
            // Separators and values inside an event.
            format!("{head}{{\"name\":\"a\" \"ph\":\"X\"}}]}}"),
            format!("{head}{{\"ph\":5}}]}}"),
            format!("{head}{{\"name\":}}]}}"),
            format!("{head}{{\"args\":,\"ph\":\"X\"}}]}}"),
            format!("{head}{{\"args\":}}]}}"),
            format!("{head}{{\"x\":tru"),
            format!("{head}{{\"ts\":5"),
            format!("{head}{{\"ts\":"),
            format!("{head}{{\"ts\" :"),
            // Numbers that do not parse.
            trace_of(&[ev.replace("\"ts\":0", "\"ts\":-")]),
            trace_of(&[ev.replace("\"ts\":0", "\"ts\":}")]),
            trace_of(&[ev.replace("\"dur\":1", "\"dur\":1e")]),
            trace_of(&[ev.replace("\"pid\":0", "\"pid\":1.2.3")]),
            trace_of(&[ev.replace("\"tid\":0", "\"tid\":+-1")]),
            trace_of(&[ev.replace("\"tid\":0", "\"tid\":true")]),
            trace_of(&[ev.replace("\"dur\":1", "\"dur\":.")]),
            trace_of(&[ev.replace("\"dur\":1", "\"dur\":1x")]),
            // Numbers that parse but are not finite, or are negative.
            trace_of(&[ev.replace("\"ts\":0", "\"ts\":1e999")]),
            trace_of(&[ev.replace("\"dur\":1", "\"dur\":-1e999")]),
            trace_of(&[ev.replace("\"ts\":0", "\"ts\":-1e-300")]),
            // The phase and missing-field texts quote what they read.
            trace_of(&[ev.replace("\"X\"", "\"\\\"B\\u00e9\"")]),
            format!("{head}{{ \"ph\" : \"X\",\n\t\"args\":{{\"k\":[1]}} }}]}}"),
            // Overlaps, late and between tracks.
            trace_of(&[
                event("a", 0.0, 10.0, 0, 1),
                event("b", 0.0, 20.0, 0, 2),
                event("a1", 5.0, 8.0, 0, 1),
            ]),
            trace_of(&[
                event("p", 8589934592.5, 1.25, 3, 9),
                event("c", 8589934592.0, 1.0, 3, 9),
            ]),
            trace_of(&[
                event("p", 0.1, 0.2, 0, 0),
                event("c", 0.15, 0.15000100000000002, 0, 0),
            ]),
            // Several faults in one event: the first in a fixed order.
            trace_of(&[drop_field(&drop_field(&ev, "ts"), "dur")]),
            trace_of(&[drop_field(&drop_field(&ev, "name"), "tid")]),
            format!("{head}{{}}]}}"),
            trace_of(&[drop_field(&ev, "name").replace("\"X\"", "\"B\"")]),
            trace_of(&[drop_field(&ev, "pid").replace("\"ts\":0", "\"ts\":1e999")]),
        ]);
        let expected = [
            "track pid=0 tid=0: span [1000000005, 1000000010.001] overlaps enclosing span [1000000000, 1000000010]",
            "event has invalid ts/dur: {\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":-1,\"pid\":0,\"tid\":0}",
            "unsupported event phase \"B\"",
            "event missing \"ph\": {\"name\":\"a\",\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0}",
            "event missing \"name\": {\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0}",
            "event missing \"ts\": {\"name\":\"a\",\"ph\":\"X\",\"dur\":1,\"pid\":0,\"tid\":0}",
            "event missing \"dur\": {\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"pid\":0,\"tid\":0}",
            "event missing \"pid\": {\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"tid\":0}",
            "event missing \"tid\": {\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0}",
            "unterminated traceEvents array",
            "unterminated traceEvents array: expected a key or '}' in event at end of input",
            "unterminated traceEvents array",
            "\"ts\" is not a number at byte 42",
            "expected an event object at byte 69",
            "expected ':' after key at byte 24",
            "expected a key or '}' in event at byte 17",
            "unterminated string at byte 24",
            "unterminated string at byte 29",
            "unterminated traceEvents array: unterminated value at end of input",
            "unterminated traceEvents array: unterminated value at end of input",
            "expected an event object at byte 69",
            "expected an event object at byte 68",
            "expected an event object at byte 70",
            "expected an event object at byte 69",
            "missing \"traceEvents\" key",
            "missing \"traceEvents\" key",
            "missing traceEvents array",
            "unterminated traceEvents array",
            "unterminated traceEvents array: expected a key or '}' in event at end of input",
            "unterminated traceEvents array: expected a key or '}' in event at end of input",
            "expected ',' or '}' in event at byte 28",
            "expected a string at byte 22",
            "expected a string at byte 24",
            "expected a value at byte 24",
            "expected a value at byte 24",
            "unterminated traceEvents array: expected ',' or '}' in event at end of input",
            "unterminated traceEvents array: expected ',' or '}' in event at end of input",
            "unterminated traceEvents array: \"ts\" is not a number at end of input",
            "unterminated traceEvents array: \"ts\" is not a number at end of input",
            "\"ts\" is not a number at byte 42",
            "\"ts\" is not a number at byte 42",
            "\"dur\" is not a number at byte 50",
            "\"pid\" is not a number at byte 58",
            "\"tid\" is not a number at byte 66",
            "\"tid\" is not a number at byte 66",
            "\"dur\" is not a number at byte 50",
            "expected ',' or '}' in event at byte 51",
            "event has invalid ts/dur: {\"name\":\"a\",\"ph\":\"X\",\"ts\":1e999,\"dur\":1,\"pid\":0,\"tid\":0}",
            "event has invalid ts/dur: {\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":-1e999,\"pid\":0,\"tid\":0}",
            "event has invalid ts/dur: {\"name\":\"a\",\"ph\":\"X\",\"ts\":-1e-300,\"dur\":1,\"pid\":0,\"tid\":0}",
            "unsupported event phase \"\\\\\\\"B\\\\u00e9\"",
            "event missing \"name\": { \"ph\" : \"X\",\n\t\"args\":{\"k\":[1]} }",
            "track pid=0 tid=1: span [5, 13] overlaps enclosing span [0, 10]",
            "track pid=3 tid=9: span [8589934592, 8589934593] overlaps enclosing span [8589934592.5, 8589934593.75]",
            "track pid=0 tid=0: span [0.15, 0.300001] overlaps enclosing span [0.1, 0.30000000000000004]",
            "event missing \"ts\": {\"name\":\"a\",\"ph\":\"X\",\"pid\":0,\"tid\":0}",
            "event missing \"name\": {\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0}",
            "event missing \"ph\": {}",
            "unsupported event phase \"B\"",
            "event missing \"pid\": {\"name\":\"a\",\"ph\":\"X\",\"ts\":1e999,\"dur\":1,\"tid\":0}",
        ];
        assert_eq!(inputs.len(), expected.len());
        for (input, want) in inputs.iter().zip(expected) {
            assert_eq!(
                validate_chrome_trace(input),
                Err(want.to_owned()),
                "{input}"
            );
        }
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

    /// Number texts at the edges of [`Scanner::number`]'s fast path:
    /// 2^53 and its neighbours (as integers and with the point moved),
    /// 19 and 20 digits, leading zeros, `5.`, `.5`, signs, exponents,
    /// and runs that do not parse.
    const EDGE_NUMBERS: &[&str] = &[
        "9007199254740992",
        "9007199254740991",
        "9007199254740993",
        "900719925474099.2",
        "900719925474099.3",
        "9.007199254740993",
        "1000000000000000000",
        "9999999999999999999",
        "99999999999999999999",
        "0000000000000000001",
        "00000000000000000001",
        "0.000000000000000001",
        "0.0000000000000000001",
        "123456789012345678.9",
        "8589934591.999999",
        "8589934592.000002",
        "0.30000000000000004",
        "5.",
        ".5",
        "-0",
        "+0",
        "0",
        "00",
        "-",
        "+",
        ".",
        "",
        "e5",
        "1e5",
        "1E-5",
        "1e",
        "1.2.3",
        "1e999",
        "-1e-999",
        "2.5e+3",
        "--1",
    ];

    /// Number texts: an optional sign, 0–25 integer digits (leading
    /// zeros kept), an optional `.` with 0–25 fraction digits, an
    /// optional exponent; or one of [`EDGE_NUMBERS`].
    fn number_text() -> impl Strategy<Value = String> {
        let digits = || prop::collection::vec(0u8..10, 0..26);
        (
            (0usize..4, digits()),
            (0usize..3, digits()),
            (0usize..6, -350i32..350),
            0usize..EDGE_NUMBERS.len() * 4,
        )
            .prop_map(|((sign, int), (point, frac), (exp_kind, exp), edge)| {
                if let Some(text) = EDGE_NUMBERS.get(edge) {
                    return (*text).to_owned();
                }
                let mut text = String::from(["", "-", "+", ""][sign]);
                text.extend(int.iter().map(|&d| char::from(b'0' + d)));
                if point > 0 {
                    text.push('.');
                }
                if point > 1 {
                    text.extend(frac.iter().map(|&d| char::from(b'0' + d)));
                }
                match exp_kind {
                    3 => text.push_str(&format!("e{exp}")),
                    4 => text.push_str(&format!("E{exp:+}")),
                    5 => text.push('e'),
                    _ => {}
                }
                text
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The validator's number reader agrees with `str::parse::<f64>`
        /// bit for bit on the text before a `,`, and fails where it
        /// fails, with the validator's message.
        #[test]
        fn number_reader_matches_str_parse(text in number_text()) {
            let input = format!("{text},");
            let mut scan = Scanner { text: &input, bytes: input.as_bytes(), pos: 0 };
            match (scan.number("ts"), text.parse::<f64>()) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{text}");
                    prop_assert_eq!(scan.pos, text.len(), "{text}");
                }
                (Err(got), Err(_)) => {
                    prop_assert_eq!(got, "\"ts\" is not a number at byte 0", "{text}");
                }
                (got, want) => prop_assert!(false, "{text}: read {got:?}, parse {want:?}"),
            }
        }
    }
}
