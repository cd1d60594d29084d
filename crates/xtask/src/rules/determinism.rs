//! Determinism rules: `nondeterministic-iteration`,
//! `wall-clock-in-sim`, `unordered-float-reduce`.
//!
//! These guard the invariants the repo's reproducibility proofs rest
//! on: the autoplace winner is bit-identical at any thread count and
//! the cost-table evaluator is bitwise-equal to the seed — but only
//! as long as no hash-order, wall-clock, or scheduling-order value
//! leaks into simulation results.

use super::{FileCtx, Finding};
use crate::lexer::TokKind;

/// Crates whose code paths feed simulated results: hash-order
/// iteration there can reach f64 accumulation, report ordering, or
/// event scheduling. `bench` is one too: its library renders the
/// experiment reports that `output/experiments/` pins byte for byte.
pub const SIM_CRATES: &[&str] = &[
    "simcore", "hetmem", "xfer", "gpusim", "llm", "workload", "core", "bench",
];

/// Path prefixes allowed to read the wall clock: the bench binaries
/// measure real elapsed time, and xtask is tooling. The bench library
/// is not among them, because the pinned experiment reports come from
/// it.
pub const WALL_CLOCK_PATHS: &[&str] = &["crates/bench/src/bin/", "crates/xtask/"];

/// Rayon-style parallel iterator sources.
const PAR_SOURCES: &[&str] = &[
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_bridge",
    "par_chunks",
    "par_chunks_mut",
    "par_drain",
    "par_windows",
];

/// Order-sensitive reduction adapters: float addition is not
/// associative, so these must not terminate a parallel chain.
const REDUCERS: &[&str] = &[
    "sum",
    "product",
    "fold",
    "fold_with",
    "reduce",
    "reduce_with",
];

/// `nondeterministic-iteration`: `HashMap`/`HashSet` anywhere in a
/// simulation crate. Hash iteration order is randomized per process;
/// `BTreeMap`/`BTreeSet` (or sorted key extraction) give the same
/// API with a deterministic order. Any hit needs a fix or a waiver
/// arguing order never escapes.
pub fn nondeterministic_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !SIM_CRATES.contains(&ctx.crate_name) {
        return;
    }
    for (i, t) in ctx.parsed.tokens.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !ctx.parsed.in_test(i)
        {
            out.push(ctx.finding("nondeterministic-iteration", t.line));
        }
    }
}

/// `wall-clock-in-sim`: `Instant`/`SystemTime` outside the bench
/// binaries and xtask. Simulated time lives in `SimTime`; wall-clock
/// reads in sim code are either a bug or deliberate run-metadata (the
/// `SearchStats.wall_ms` case), which takes a waiver.
pub fn wall_clock_in_sim(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if WALL_CLOCK_PATHS
        .iter()
        .any(|prefix| ctx.rel_path.starts_with(prefix))
    {
        return;
    }
    for (i, t) in ctx.parsed.tokens.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
            && !ctx.parsed.in_test(i)
        {
            out.push(ctx.finding("wall-clock-in-sim", t.line));
        }
    }
}

/// `unordered-float-reduce`: a parallel iterator chain ending in an
/// order-sensitive reduction (`sum`, `fold`, `reduce`, …). Reduction
/// tree shape varies with thread count and work stealing, so f64
/// results differ run to run; route through the deterministic
/// fixed-chunk reduction in `autoplace/engine.rs` instead
/// (`par_iter().map(…).collect()` then a sequential fold).
pub fn unordered_float_reduce(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.parsed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !PAR_SOURCES.contains(&t.text.as_str())
            || ctx.parsed.in_test(i)
        {
            continue;
        }
        // Walk the rest of the expression this chain lives in: stop
        // at `;` or `,` at chain depth, or when the enclosing group
        // closes.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            let u = &toks[j];
            if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                depth += 1;
            } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if depth == 0 && (u.is_punct(';') || u.is_punct(',')) {
                break;
            } else if depth == 0
                && u.is_punct('.')
                && toks.get(j + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && REDUCERS.contains(&n.text.as_str())
                })
            {
                out.push(ctx.finding("unordered-float-reduce", toks[j + 1].line));
            }
            j += 1;
        }
    }
}
