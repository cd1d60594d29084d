//! Span substrate for execution traces: tick-quantized instants and
//! depth-encoded span trees.
//!
//! Attribution ("how much of this request was compute vs transfer vs
//! queueing") has to be *exact* — `sum(segments) == end_to_end` as an
//! equality, not a tolerance — and f64 bucket sums cannot deliver
//! that: float addition does not telescope, so summing segment
//! durations drifts away from the difference of the endpoints. The
//! substrate therefore quantizes span *boundaries* (not durations)
//! onto an integer picosecond lattice: a segment is the difference of
//! two converted boundaries, so any partition of `[t0, tn]` into
//! segments sums to `ticks(tn) - ticks(t0)` by telescoping, exactly,
//! in `u64` arithmetic.
//!
//! Picoseconds are the right lattice: the longest simulations in this
//! workspace span ~1e6 simulated seconds (1e18 ps, within `u64`),
//! while the shortest attributed segments are sync overheads of
//! ~0.25 ms (2.5e8 ps) — far coarser than the worst-case f64
//! conversion granularity at that magnitude (~512 ps), so distinct
//! boundaries never collapse.
//!
//! Span trees are stored pre-order with an explicit nesting depth
//! ([`TraceSpan::depth`]) instead of parent pointers: emission is a
//! push per span, and [`validate_nesting`] checks the structural
//! invariants (children contained in their parent, siblings ordered
//! and non-overlapping) with a single stack pass.

use crate::time::{SimDuration, SimTime};

/// Picoseconds per simulated second — the attribution lattice.
pub const TICKS_PER_SEC: f64 = 1e12; // lint: allow(raw-unit-arith): defines the tick lattice the typed units quantize onto

/// Quantizes an absolute instant onto the picosecond lattice.
///
/// Monotone: `a <= b` implies `time_ticks(a) <= time_ticks(b)`, so
/// converted boundaries never reorder against simulated time.
pub fn time_ticks(t: SimTime) -> u64 {
    secs_to_ticks(t.as_secs())
}

/// Quantizes a duration-from-origin onto the picosecond lattice.
#[inline]
pub fn duration_ticks(d: SimDuration) -> u64 {
    secs_to_ticks(d.as_secs())
}

/// `(secs * TICKS_PER_SEC).round() as u64` for every `secs`, NaN,
/// infinities and the saturation at `u64::MAX` (past ~213 simulated
/// days) included.
#[inline]
fn secs_to_ticks(secs: f64) -> u64 {
    round_ticks(secs * TICKS_PER_SEC)
}

/// `x.round() as u64` without `f64::round`, which compiles to a libm
/// call on x86-64 targets without SSE4.1 — a call that would sit in
/// the offline executor's per-step fold.
///
/// On `[0, 2^63)` the truncation `t = x as i64` is itself a double, so
/// `t as f64` is exact and so is `x - t`, the fraction: rounding half
/// away from zero adds one when the fraction is at least one half
/// (`t + 1` stays below `i64::MAX`, since the largest double below
/// 2^63 is 2^63 − 1024). Everything else rounds to itself or saturates
/// as `as` does (negative and NaN -> 0, at or past 2^64 ->
/// `u64::MAX`), so even a pathological input cannot wrap the lattice:
/// a double at or past 2^63 is already an integer, and `round()` of a
/// negative is at most -0.
#[inline]
fn round_ticks(x: f64) -> u64 {
    const TWO_POW_63: f64 = (1u64 << 63) as f64;
    if (0.0..TWO_POW_63).contains(&x) {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

/// One span of a pre-order, depth-encoded span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// What the span covers (`"queue"`, `"service"`, `"decode"`, ...).
    pub name: &'static str,
    /// Nesting depth: 0 is a root, `d + 1` is a child of the nearest
    /// preceding span at depth `d`.
    pub depth: u32,
    /// Start boundary, in ticks ([`TICKS_PER_SEC`]).
    pub start: u64,
    /// End boundary, in ticks; `end >= start`.
    pub end: u64,
}

impl TraceSpan {
    /// Span length in ticks.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span is zero-length.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// A structural fault in a span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestingError {
    /// Index of the offending span in the pre-order list.
    pub index: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for NestingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "span {}: {}", self.index, self.reason)
    }
}

impl std::error::Error for NestingError {}

/// Checks the pre-order span list for structural soundness: every
/// span has `start <= end`, every non-root span is contained in its
/// parent, and siblings appear in order without overlap (roots
/// included).
///
/// # Errors
///
/// Returns the first [`NestingError`] encountered, in pre-order.
pub fn validate_nesting(spans: &[TraceSpan]) -> Result<(), NestingError> {
    // Open ancestors: (depth, end, cursor) where cursor is the end of
    // the last closed child, i.e. the earliest legal start of the
    // next sibling at depth + 1.
    let mut stack: Vec<(u32, u64, u64)> = Vec::new();
    let mut root_cursor = 0u64;
    for (index, s) in spans.iter().enumerate() {
        let fail = |reason| Err(NestingError { index, reason });
        if s.start > s.end {
            return fail("span ends before it starts");
        }
        while stack.last().is_some_and(|&(d, _, _)| d >= s.depth) {
            stack.pop();
        }
        if s.depth == 0 {
            if s.start < root_cursor {
                return fail("root overlaps the previous root");
            }
            root_cursor = s.end;
        } else {
            let Some(parent) = stack.last_mut() else {
                return fail("orphan span (no ancestor at depth - 1)");
            };
            if parent.0 != s.depth - 1 {
                return fail("orphan span (no ancestor at depth - 1)");
            }
            if s.start < parent.2 {
                return fail("span overlaps its previous sibling");
            }
            if s.start < spans_start_of(parent) || s.end > parent.1 {
                return fail("span escapes its parent");
            }
            parent.2 = s.end;
        }
        stack.push((s.depth, s.end, s.start));
    }
    Ok(())
}

fn spans_start_of(parent: &(u32, u64, u64)) -> u64 {
    // The parent tuple's cursor starts at the parent's own start, so
    // the first child is bounded below by it; afterwards the cursor
    // only grows. Containment below is therefore implied by the
    // sibling check; this helper exists for the first-child case.
    parent.2.min(parent.1)
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

    #[test]
    fn boundary_conversion_telescopes_exactly() {
        // Boundaries at awkward f64 values: segment ticks must sum to
        // the endpoint difference *exactly*, however the conversions
        // round.
        let bounds: Vec<SimTime> = [0.0, 0.1, 0.30000000001, 1.7, 123_456.789, 499_999.999_999]
            .iter()
            .map(|&s| SimTime::from_secs(s))
            .collect();
        let ticks: Vec<u64> = bounds.iter().map(|&t| time_ticks(t)).collect();
        let sum: u64 = ticks.windows(2).map(|w| w[1] - w[0]).sum();
        assert_eq!(sum, ticks[ticks.len() - 1] - ticks[0]);
    }

    #[test]
    fn conversion_is_monotone() {
        let mut last = 0u64;
        for s in [0.0, 1e-13, 2.5e-4, 0.25, 1.0, 1e3, 5e5] {
            let t = time_ticks(SimTime::from_secs(s));
            assert!(t >= last, "ticks reordered at {s}");
            last = t;
        }
    }

    #[test]
    fn negative_and_nan_saturate_to_zero() {
        assert_eq!(secs_to_ticks(-1.0), 0);
        assert_eq!(secs_to_ticks(f64::NAN), 0);
    }

    /// What the lattice conversion must equal for every input.
    fn reference(secs: f64) -> u64 {
        (secs * TICKS_PER_SEC).round() as u64
    }

    /// Checks the rounding at `x` ticks, and the conversion at `x`
    /// and at `x` ticks' worth of seconds.
    fn assert_rounds_like_round(x: f64) {
        assert_eq!(round_ticks(x), x.round() as u64, "round_ticks({x:e})");
        for secs in [x, x / TICKS_PER_SEC] {
            assert_eq!(
                secs_to_ticks(secs),
                reference(secs),
                "secs_to_ticks({secs:e})"
            );
        }
    }

    #[test]
    fn tick_rounding_matches_round_at_the_edges() {
        let two = |e: i32| 2f64.powi(e);
        let below_half = f64::from_bits(0.5f64.to_bits() - 1);
        let mut edges = vec![
            // Ties round away from zero; the largest double below one
            // half rounds down (the `floor(x + 0.5)` trap).
            0.5,
            1.5,
            2.5,
            1e6 + 0.5,
            below_half,
            1.0 - f64::EPSILON / 2.0,
            // Where doubles stop having fractions, and beyond.
            two(52) - 0.5,
            two(52),
            two(52) + 1.0,
            two(53) - 1.0,
            two(53),
            two(63),
            two(64) - 2048.0,
            // Saturation at u64::MAX.
            two(64),
            two(64) + 4096.0,
            two(65),
            1e300,
            f64::MAX,
            f64::INFINITY,
            // Zeros, subnormals, negatives, NaN.
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            -0.4,
            -0.5,
            -0.6,
            -1.5,
            -two(63),
            f64::MIN,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // Each finite edge's neighbouring doubles too.
        let neighbours: Vec<f64> = edges
            .iter()
            .filter(|x| x.is_finite())
            .flat_map(|x| [x.to_bits().wrapping_sub(1), x.to_bits() + 1].map(f64::from_bits))
            .collect();
        edges.extend(neighbours);
        for x in edges {
            assert_rounds_like_round(x);
        }
        assert_eq!(round_ticks(below_half), 0);
        assert_eq!(round_ticks(0.5), 1);
        assert_eq!(round_ticks(two(64) - 2048.0), u64::MAX - 2047);
        assert_eq!(round_ticks(two(64)), u64::MAX);
        assert_eq!(round_ticks(f64::INFINITY), u64::MAX);
        assert_eq!(round_ticks(f64::NEG_INFINITY), 0);
        assert_eq!(round_ticks(f64::NAN), 0);
    }

    #[test]
    fn tick_lattice_saturates_past_213_days() {
        // 2^64 ps is 213.5 days: a boundary past it pins at u64::MAX
        // instead of wrapping.
        let day = 86_400.0;
        let before = duration_ticks(SimDuration::from_secs(213.0 * day));
        assert!(before < u64::MAX, "213 days already saturated");
        assert_eq!(
            duration_ticks(SimDuration::from_secs(214.0 * day)),
            u64::MAX
        );
        assert_eq!(time_ticks(SimTime::from_secs(1e9)), u64::MAX);
        assert_eq!(duration_ticks(SimDuration::INFINITY), u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any bit pattern: finite or not, of either sign, at any
        /// scale.
        #[test]
        fn tick_rounding_matches_round_for_any_bits(bits in any::<u64>()) {
            assert_rounds_like_round(f64::from_bits(bits));
        }

        /// Where the lattice lives: ticks below 2^53 with a fraction,
        /// ties included.
        #[test]
        fn tick_rounding_matches_round_below_saturation(
            whole in 0u64..(1 << 53),
            half in any::<bool>(),
            frac in 0.0f64..1.0,
        ) {
            let x = whole as f64 + if half { 0.5 } else { frac };
            assert_rounds_like_round(x);
        }
    }

    #[test]
    fn valid_tree_passes() {
        let spans = [
            span("request", 0, 0, 100),
            span("queue", 1, 0, 30),
            span("service", 1, 30, 100),
            span("prefill", 2, 30, 50),
            span("decode", 2, 50, 100),
            span("request", 0, 100, 140),
            span("service", 1, 100, 140),
        ];
        validate_nesting(&spans).unwrap();
    }

    #[test]
    fn inverted_span_rejected() {
        let err = validate_nesting(&[span("x", 0, 10, 5)]).unwrap_err();
        assert!(err.to_string().contains("ends before"));
    }

    #[test]
    fn child_escaping_parent_rejected() {
        let spans = [span("request", 0, 0, 100), span("service", 1, 50, 120)];
        let err = validate_nesting(&spans).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.reason.contains("escapes"));
    }

    #[test]
    fn overlapping_siblings_rejected() {
        let spans = [
            span("request", 0, 0, 100),
            span("queue", 1, 0, 60),
            span("service", 1, 50, 100),
        ];
        let err = validate_nesting(&spans).unwrap_err();
        assert!(err.reason.contains("sibling"));
    }

    #[test]
    fn orphan_depth_rejected() {
        let err = validate_nesting(&[span("deep", 2, 0, 10)]).unwrap_err();
        assert!(err.reason.contains("orphan"));
        let spans = [span("request", 0, 0, 100), span("deep", 2, 0, 10)];
        let err = validate_nesting(&spans).unwrap_err();
        assert!(err.reason.contains("orphan"));
    }

    #[test]
    fn overlapping_roots_rejected() {
        let spans = [span("a", 0, 0, 100), span("b", 0, 50, 150)];
        let err = validate_nesting(&spans).unwrap_err();
        assert!(err.reason.contains("root"));
    }

    #[test]
    fn span_length_helpers() {
        let s = span("x", 0, 10, 25);
        assert_eq!(s.len(), 15);
        assert!(!s.is_empty());
        assert!(span("y", 0, 3, 3).is_empty());
    }
}
