//! # bench_e2e — host time of `helmsim`'s serve, plan, autoplace and
//! trace paths, end to end and split by layer
//!
//! ```text
//! cargo run --release -p bench --bin bench_e2e -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--bless]
//! ```
//!
//! Without `--workload`, every workload runs in its own child process
//! (this executable, re-run), so each one's peak memory is its own.
//! With it, one workload runs here and the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end ones untraced, the per-layer ones with
//! `--trace 1`. `--seconds` sets the op count (see
//! [`Workload::timed_ops`]); the clock never ends a run. The exit code
//! is 0 only when every op passed its checks. See `README.md` for the
//! workloads and metrics.

mod check;
mod measure;
mod run;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use check::{bless, golden_digest, GOLDEN, GOLDEN_SEED};
use run::{run, Config, Outcome};
use workloads::{Size, Workload};

const USAGE: &str =
    "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--bless]";

/// End-to-end metrics of `BENCHMARK.json`, from an untraced run.
///
/// Op time is gated on the fastest op of the run. The ops are
/// deterministic, so interference from outside the process can only
/// add time, and the minimum is the estimate it disturbs least: across
/// ten runs on a shared 2-vCPU VM, whose CPU speed swung by up to 40%
/// from one second to the next, the median's spread reached 27% and the
/// 90th percentile's 50%, while the minimum's stayed within a few
/// percent (see `README.md`). The median, quartiles and 90th percentile
/// are printed beside it.
const END_TO_END: [&str; 3] = ["setup_s", "op_ms_min", "peak_rss_mb"];

/// Per-layer metrics of `BENCHMARK.json`, from a traced run: every
/// layer's share of op time, the work counts, and the ratios an
/// optimization of one layer moves. All are defined on every workload
/// (0 where the workload bypasses the layer).
const PER_LAYER: [&str; 29] = [
    "placement.share",
    "exec.share",
    "exec.steps",
    "online.calibrate.share",
    "online.calibrations",
    "online.engine.share",
    "online.events",
    "online.served",
    "online.rejected",
    "online.expired",
    "planner.share",
    "planner.evaluated",
    "planner.pruned",
    "planner.candidates",
    "planner.prune_ratio",
    "planner.confirmations",
    "planner.confirm_share",
    "planner.thread_speedup",
    "autoplace.share",
    "autoplace.evaluated",
    "autoplace.pruned",
    "autoplace.prune_ratio",
    "autoplace.thread_speedup",
    "trace.share",
    "trace.spans",
    "trace.json_bytes",
    "trace.collect_overhead",
    "bench.unattributed_share",
    "bench.layer_overhead",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    bless: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: GOLDEN_SEED,
        seconds: 12.0,
        traced: false,
        bless: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.bless && (args.seed != GOLDEN_SEED || args.traced) {
        return Err(format!("--bless runs untraced with seed {GOLDEN_SEED}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&args),
    }
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench_e2e: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name()]);
        child.args(["--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.bless {
            child.arg("--bless");
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{} ({status})", w.name())),
            Err(e) => failed.push(format!("{} ({e})", w.name())),
        }
    }
    if failed.is_empty() {
        println!("bench_e2e: all {} workloads passed", Workload::ALL.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_e2e: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// Runs one workload here and prints its report.
fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let golden = if args.seed == GOLDEN_SEED && !args.bless {
        golden_digest(GOLDEN, workload.name())
    } else {
        None
    };
    settle_allocator();
    let mut outcome = run(&Config {
        workload,
        seed: args.seed,
        ops: workload.timed_ops(args.seconds, args.traced),
        traced: args.traced,
        size: Size::Full,
        golden,
    });
    if args.seed == GOLDEN_SEED && !args.bless && golden.is_none() {
        outcome
            .errors
            .push(format!("golden.txt has no digest for {}", workload.name()));
    }
    if args.traced {
        if let Err(e) = write_spans(workload, &outcome) {
            outcome.errors.push(e);
        }
    }
    if args.bless && outcome.correct() {
        if let Err(e) = write_golden(workload, outcome.digest) {
            outcome.errors.push(e);
        }
    }

    println!(
        "== {} (seed {}, {})",
        workload.name(),
        args.seed,
        if args.traced { "traced" } else { "untraced" }
    );
    for m in &outcome.metrics {
        println!("  {:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "  ops attempted {}, failed {}, digest {}",
        outcome.attempted,
        outcome.failed,
        outcome.digest.map_or("-".into(), |d| format!("{d:016x}"))
    );
    let names: &[&str] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let json = result_json(&mut outcome, names);
    for e in &outcome.errors {
        eprintln!("bench_e2e: {}: {e}", workload.name());
    }
    println!("{json}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Frees one just-under-32-MiB block before anything is timed. glibc's
/// malloc serves such a block with `mmap`, and freeing it raises the
/// allocator's dynamic thresholds to their ceiling: blocks up to 32 MiB
/// then come from the heap, which is trimmed only past 64 MiB free.
/// Without it, whether an op's freed memory went back to the kernel,
/// to be faulted in again by the next op, changed from process to
/// process: `offline-grid` ran 38 ms ops in some runs and 51 ms ops in
/// others, with up to three times the page faults. Another allocator
/// just allocates and frees the block, whose pages are never touched.
fn settle_allocator() {
    // lint: allow(raw-unit-arith): a byte count, as malloc takes it
    drop(std::hint::black_box(vec![0u8; (32 << 20) - (64 << 10)]));
}

/// The result line: `names` are the metrics it carries; a missing or
/// non-finite one makes the run incorrect.
fn result_json(outcome: &mut Outcome, names: &[&str]) -> String {
    let mut metrics = Vec::new();
    for &name in names {
        match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )),
            _ => outcome
                .errors
                .push(format!("metric {name} missing or not finite")),
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Writes the traced ops' spans as chrome-trace JSON under
/// `target/bench_e2e/` and checks the file as written.
fn write_spans(workload: Workload, outcome: &Outcome) -> Result<(), String> {
    let dir = Path::new("target").join("bench_e2e");
    let path = dir.join(format!("spans-{}.json", workload.name()));
    let shown = path.display();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    std::fs::write(&path, spans::to_chrome_json(&outcome.spans))
        .map_err(|e| format!("writing {shown}: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {shown}: {e}"))?;
    let stats =
        helm_core::trace::validate_chrome_trace(&text).map_err(|e| format!("{shown}: {e}"))?;
    if stats.events != outcome.spans.len() {
        return Err(format!(
            "{shown}: {} events, {} spans",
            stats.events,
            outcome.spans.len()
        ));
    }
    println!("  spans: {} events in {shown}, all nested", stats.events);
    Ok(())
}

/// Records `digest` as `workload`'s golden digest.
fn write_golden(workload: Workload, digest: Option<u64>) -> Result<(), String> {
    let digest = digest.ok_or("no digest to bless")?;
    let path = golden_path();
    let shown = path.display();
    let current = std::fs::read_to_string(&path).unwrap_or_default();
    std::fs::write(&path, bless(&current, workload.name(), digest))
        .map_err(|e| format!("writing {shown}: {e}"))?;
    println!("  blessed {} {digest:016x} into {shown}", workload.name());
    Ok(())
}

/// `golden.txt`, beside this file. The sources build as a binary of the
/// `bench` package and as a package of their own, whose manifest sits
/// beside them.
fn golden_path() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    if env!("CARGO_PKG_NAME") == "bench" {
        manifest.join("src/bin/bench_e2e/golden.txt")
    } else {
        manifest.join("golden.txt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Result<Args, String> {
        parse(argv.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn command_line_parses_and_rejects() {
        let a = args(&[
            "--workload",
            "plan-slo",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::PlanSlo));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.bless),
            (7, 2.5, true, false)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bless", "--seed", "7"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_report() {
        let spec = include_str!("../../../../../BENCHMARK.json");
        let listed = spec.matches("\"name\":").count();
        let names = END_TO_END.iter().chain(&PER_LAYER);
        let workloads = Workload::ALL.iter().map(|w| w.name());
        for name in names.copied().chain(workloads) {
            assert!(spec.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }

    #[test]
    fn golden_file_covers_every_workload() {
        for w in Workload::ALL {
            assert!(golden_digest(GOLDEN, w.name()).is_some(), "{}", w.name());
        }
    }

    /// Every workload, untraced and traced, at tiny sizes in a debug
    /// build: every op checked, every metric reported.
    #[test]
    fn smoke_every_workload_in_both_modes() {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let mut outcome = run(&Config {
                    workload,
                    seed: 7,
                    ops: 2,
                    traced,
                    size: Size::Tiny,
                    golden: None,
                });
                let what = format!("{} traced={traced}", workload.name());
                assert!(outcome.correct(), "{what}: {:?}", outcome.errors);
                assert!(outcome.attempted >= 3, "{what}");
                assert!(outcome.digest.is_some(), "{what}");
                if traced {
                    let json = spans::to_chrome_json(&outcome.spans);
                    let stats = helm_core::trace::validate_chrome_trace(&json).expect(&what);
                    assert!(
                        stats.events > 0 && stats.events == outcome.spans.len(),
                        "{what}"
                    );
                    result_json(&mut outcome, &PER_LAYER);
                } else {
                    // Two ops cannot support a 90th percentile.
                    assert!(
                        outcome.metrics.iter().all(|m| m.name != "op_ms_p90"),
                        "{what}"
                    );
                    result_json(&mut outcome, &END_TO_END);
                }
                assert!(outcome.errors.is_empty(), "{what}: {:?}", outcome.errors);
            }
        }
    }
}
