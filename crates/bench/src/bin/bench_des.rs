//! Scheduler-scale microbenchmark: events/s and requests/s of the
//! DES core across request volumes n ∈ {1e4, 1e5, 1e6}.
//!
//! The north star is "millions of users": this bench proves the
//! event loop itself — the one binary-heap event queue, pooled event
//! and request state, the lazy arrival chain, and the allocation-free
//! `RecordMode::Aggregate` cluster path — sustains a million-request
//! mixed-cluster run in seconds, with the conservation audit forced
//! on so every enqueue/complete/abandon count stays exact at scale.
//!
//! Hard gates (the run errors, not warns):
//!
//! * the throughput tiers and the coalesced runs must keep a clean
//!   audit ledger, and the largest tier must clear
//!   [`EVENTS_PER_S_FLOOR`];
//! * on the granularity axis (continuous batching, per-step vs
//!   coalesced decode spans), the reports must stay byte-identical at
//!   every volume and coalescing must clear
//!   [`GRANULARITY_SPEEDUP_FLOOR`] at the largest;
//! * on the tracing axis, the traced report must match the untraced
//!   one byte for byte and its span trees must validate.
//!
//! A broken ledger or report stops the run at once. The two
//! wall-time floors are checked last, after every axis has run and
//! both JSON files are written, so missing one hides no other result.
//!
//! Results land in `output/BENCH_des.json` and
//! `output/BENCH_trace.json`. `--quick` drops the 1e6 tier for CI
//! smoke runs (the floors still apply at 1e5).

use std::time::Instant;

use bench::{print_table, section};
use helm_core::exec::RecordMode;
use helm_core::online::{
    run_cluster_mix, run_cluster_mix_traced, CalibrationCache, ClusterReport, ClusterSpec,
    PoissonArrivals, StepGranularity,
};
use helm_core::placement::PlacementKind;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use helm_core::trace::validate_chrome_trace;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use workload::WorkloadSpec;

/// Hard floor on sustained events/s at the largest request volume.
/// The event loop measures well above 1M events/s on a single CI
/// core; a drop below this line means it regressed structurally
/// (per-event allocation, queue degeneration), not that the machine
/// was slow.
const EVENTS_PER_S_FLOOR: f64 = 100_000.0;

/// Hard floor on `per-step / coalesced` wall time at the largest
/// granularity-axis volume, measured on the continuous-batching mix
/// where decode spans dominate the event count. The per-step
/// reference pays one binary-heap round-trip and one boxed completion
/// closure per step; coalescing replays the same steps in a tight
/// loop. So the ratio falls when that reference gets cheaper, not
/// only when the coalesced engine gets slower: compare both wall
/// times before reading a miss as a coalescing regression.
const GRANULARITY_SPEEDUP_FLOOR: f64 = 2.0;

/// Offered arrival rate (requests/s of simulated time). High enough
/// to keep every replica's queue non-empty — the bench measures the
/// scheduler under sustained load, not idle-tick dispatch.
const ARRIVAL_RATE: f64 = 2.0;

/// One measured volume tier.
struct Tier {
    num_requests: usize,
    wall_s: f64,
    report: ClusterReport,
}

fn run_tier(
    groups: &[(&Server, usize)],
    workload: &WorkloadSpec,
    num_requests: usize,
    record: RecordMode,
    granularity: StepGranularity,
    continuous: bool,
) -> Result<Tier, helm_core::HelmError> {
    let spec = ClusterSpec::new(1)
        .with_scheduler(helm_core::online::SchedulerKind::JoinShortestQueue)
        .with_record(record)
        .with_granularity(granularity)
        .with_continuous(continuous);
    let mut arrivals = PoissonArrivals::new(ARRIVAL_RATE, 4242);
    let started = Instant::now();
    let report = run_cluster_mix(groups, workload, &mut arrivals, num_requests, spec)?;
    Ok(Tier {
        num_requests,
        wall_s: started.elapsed().as_secs_f64(),
        report,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    // Audits are compiled out of release builds by default; the whole
    // point here is exact ledgers at 1e6 counts, so force them on and
    // absorb their cost in the reported throughput.
    simaudit::force_enable();

    let model = ModelConfig::opt_175b();
    let workload = WorkloadSpec::paper_default();
    let memory = HostMemoryConfig::nvdram();
    let system = SystemConfig::paper_platform(memory.clone());
    let base = Policy::paper_default(&model, memory.kind()).with_compression(true);
    // A heterogeneous mix: latency-shaped HeLM replicas next to
    // throughput-shaped All-CPU replicas, so dispatch exercises the
    // real multi-model path rather than a clone farm.
    let helm = Server::new(
        system.clone(),
        model.clone(),
        base.clone()
            .with_placement(PlacementKind::Helm)
            .with_batch_size(4),
    )?;
    // Batch-1 HeLM replicas for the granularity axis: every decode
    // step serves exactly one request, so span events dominate the
    // count and coalescing has the most queue traffic to remove.
    let helm_b1 = Server::new(
        system.clone(),
        model.clone(),
        base.clone()
            .with_placement(PlacementKind::Helm)
            .with_batch_size(1),
    )?;
    let allcpu = Server::new(
        system.clone(),
        model.clone(),
        base.with_placement(PlacementKind::AllCpu)
            .with_batch_size(44),
    )?;
    let groups: &[(&Server, usize)] = &[(&helm, 2), (&allcpu, 2)];
    // Wall-time floor misses, reported after every axis has run.
    let mut floor_misses: Vec<String> = Vec::new();

    section("throughput: aggregate-mode mixed cluster");
    let volumes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut tiers = Vec::new();
    for &n in volumes {
        let tier = run_tier(
            groups,
            &workload,
            n,
            RecordMode::Aggregate,
            StepGranularity::default(),
            false,
        )?;
        let audit = tier
            .report
            .audit
            .as_ref()
            .ok_or("auditing was forced on but no report came back")?;
        if !audit.is_clean() {
            return Err(format!("audit ledger dirty at n={n}: {audit}").into());
        }
        if audit.completed_with_prefix("requests:") != tier.report.served {
            return Err(format!("ledger/report served mismatch at n={n}").into());
        }
        tiers.push(tier);
    }
    let rows: Vec<(String, Vec<f64>)> = tiers
        .iter()
        .map(|t| {
            (
                format!("n = {}", t.num_requests),
                vec![
                    t.wall_s * 1000.0,
                    t.report.events as f64,
                    t.report.events as f64 / t.wall_s,
                    t.num_requests as f64 / t.wall_s,
                    t.report.served as f64,
                ],
            )
        })
        .collect();
    print_table(
        &[
            "volume",
            "wall(ms)",
            "events",
            "events/s",
            "requests/s",
            "served",
        ],
        &rows,
    );

    let largest = tiers.last().ok_or("no tier ran")?;
    let events_per_s = largest.report.events as f64 / largest.wall_s;
    if events_per_s < EVENTS_PER_S_FLOOR {
        floor_misses.push(format!(
            "event loop regressed: {events_per_s:.0} events/s at n={} is below the \
             {EVENTS_PER_S_FLOOR:.0} floor",
            largest.num_requests
        ));
    }

    section("granularity axis: per-step vs coalesced, continuous batching");
    // Continuous batching is where macro-stepping bites: every decode
    // step is one work unit, so per-step granularity pays one
    // priority-queue round-trip per token while coalesced replays the
    // same arithmetic in a tight loop between scheduler epochs. The
    // axis runs latency-shaped batch-1 replicas — each decode step
    // advances a single request, so span events dominate the count
    // (the big-batch mix above amortizes a step over 44 requests and
    // hides the queue cost). The reports must stay byte-identical at
    // every volume — coalescing is a perf knob, never a semantics
    // knob.
    let gran_groups: &[(&Server, usize)] = &[(&helm_b1, 4)];
    let mut gran_rows = Vec::new();
    let mut gran_json = Vec::new();
    let mut gran_largest = (0, 0.0f64, 0.0f64);
    for &n in volumes {
        let step = run_tier(
            gran_groups,
            &workload,
            n,
            RecordMode::Aggregate,
            StepGranularity::PerStep,
            true,
        )?;
        let coal = run_tier(
            gran_groups,
            &workload,
            n,
            RecordMode::Aggregate,
            StepGranularity::Coalesced,
            true,
        )?;
        if format!("{:?}", step.report) != format!("{:?}", coal.report) {
            return Err(format!("per-step and coalesced granularities diverged at n={n}").into());
        }
        let audit = coal
            .report
            .audit
            .as_ref()
            .ok_or("auditing was forced on but the coalesced run has no ledger")?;
        if !audit.is_clean() {
            return Err(format!("coalesced audit ledger dirty at n={n}: {audit}").into());
        }
        let gran_speedup = step.wall_s / coal.wall_s;
        gran_largest = (n, step.wall_s, coal.wall_s);
        gran_rows.push((
            format!("n = {n}"),
            vec![
                step.wall_s * 1000.0,
                coal.wall_s * 1000.0,
                gran_speedup,
                coal.report.events as f64,
                n as f64 / coal.wall_s,
            ],
        ));
        gran_json.push(format!(
            "    {{\"num_requests\": {n}, \"per_step_wall_s\": {:.3}, \
             \"coalesced_wall_s\": {:.3}, \"speedup\": {:.2}, \"events\": {}, \
             \"coalesced_requests_per_s\": {:.1}, \"reports_identical\": true, \
             \"audit_clean\": true}}",
            step.wall_s,
            coal.wall_s,
            gran_speedup,
            coal.report.events,
            n as f64 / coal.wall_s,
        ));
    }
    print_table(
        &[
            "volume",
            "step(ms)",
            "coal(ms)",
            "speedup",
            "events",
            "requests/s",
        ],
        &gran_rows,
    );
    let (gran_n, step_s, coal_s) = gran_largest;
    if step_s / coal_s < GRANULARITY_SPEEDUP_FLOOR {
        floor_misses.push(format!(
            "coalescing speedup over the per-step reference (binary-heap queue) is {:.2}x \
             at n={gran_n}, below the {GRANULARITY_SPEEDUP_FLOOR}x floor: per-step {:.1} ms, \
             coalesced {:.1} ms",
            step_s / coal_s,
            step_s * 1000.0,
            coal_s * 1000.0,
        ));
    }

    section("tracing axis: span collection on vs off at n = 1e4");
    // Tracing is a side channel: the traced run must produce a
    // byte-identical report (attribution is computed unconditionally;
    // only the span trees ride the extra channel), and the untraced
    // path — the one the events/s floor above gates — must not pay
    // for spans it never collects. The collected trace is validated
    // structurally and through the chrome-trace rendering, the same
    // checks `helmsim trace-validate` runs on exported files.
    let trace_n = volumes[0];
    let untraced = run_tier(
        groups,
        &workload,
        trace_n,
        RecordMode::Aggregate,
        StepGranularity::default(),
        false,
    )?;
    let spec = ClusterSpec::new(1)
        .with_scheduler(helm_core::online::SchedulerKind::JoinShortestQueue)
        .with_record(RecordMode::Aggregate);
    let mut arrivals = PoissonArrivals::new(ARRIVAL_RATE, 4242);
    let traced_started = Instant::now();
    let (traced_report, trace) = run_cluster_mix_traced(
        groups,
        &workload,
        &mut arrivals,
        trace_n,
        spec,
        &mut CalibrationCache::new(),
    )?;
    let traced_wall_s = traced_started.elapsed().as_secs_f64();
    if format!("{:?}", untraced.report) != format!("{:?}", traced_report) {
        return Err(format!("tracing changed the report at n={trace_n}").into());
    }
    trace
        .validate()
        .map_err(|(id, e)| format!("request {id}: malformed span tree: {e}"))?;
    let chrome = trace.to_chrome_json();
    let chrome_stats = validate_chrome_trace(&chrome)
        .map_err(|e| format!("exported chrome trace invalid: {e}"))?;
    let trace_overhead = traced_wall_s / untraced.wall_s;
    print_table(
        &["axis", "wall(ms)", "spans", "events", "requests/s"],
        &[
            (
                "untraced".to_string(),
                vec![
                    untraced.wall_s * 1000.0,
                    0.0,
                    untraced.report.events as f64,
                    trace_n as f64 / untraced.wall_s,
                ],
            ),
            (
                "traced".to_string(),
                vec![
                    traced_wall_s * 1000.0,
                    trace.span_count() as f64,
                    traced_report.events as f64,
                    trace_n as f64 / traced_wall_s,
                ],
            ),
        ],
    );
    let trace_json = format!(
        "{{\n  \"model\": \"{}\",\n  \"memory\": \"{}\",\n  \"num_requests\": {trace_n},\n  \
         \"untraced_wall_s\": {:.3},\n  \"traced_wall_s\": {:.3},\n  \
         \"traced_over_untraced\": {:.2},\n  \"requests_traced\": {},\n  \
         \"span_count\": {},\n  \"reports_identical\": true,\n  \
         \"chrome_trace_events\": {},\n  \"chrome_trace_tracks\": {},\n  \
         \"nesting_valid\": true\n}}\n",
        model.name(),
        memory.kind(),
        untraced.wall_s,
        traced_wall_s,
        trace_overhead,
        trace.requests.len(),
        trace.span_count(),
        chrome_stats.events,
        chrome_stats.tracks,
    );
    std::fs::create_dir_all("output")?;
    std::fs::write("output/BENCH_trace.json", &trace_json)?;
    println!("\nwrote output/BENCH_trace.json");

    let tier_json: Vec<String> = tiers
        .iter()
        .map(|t| {
            format!(
                "    {{\"num_requests\": {}, \"wall_s\": {:.3}, \"events\": {}, \
                 \"events_per_s\": {:.1}, \"requests_per_s\": {:.1}, \"served\": {}, \
                 \"audit_clean\": true}}",
                t.num_requests,
                t.wall_s,
                t.report.events,
                t.report.events as f64 / t.wall_s,
                t.num_requests as f64 / t.wall_s,
                t.report.served,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"model\": \"{}\",\n  \"memory\": \"{}\",\n  \
         \"record_mode\": \"aggregate\",\n  \"arrival_rate_per_s\": {ARRIVAL_RATE},\n  \
         \"events_per_s_floor\": {EVENTS_PER_S_FLOOR},\n  \"tiers\": [\n{}\n  ],\n  \
         \"granularity_speedup_floor\": {GRANULARITY_SPEEDUP_FLOOR},\n  \
         \"granularity\": [\n{}\n  ]\n}}\n",
        model.name(),
        memory.kind(),
        tier_json.join(",\n"),
        gran_json.join(",\n"),
    );
    std::fs::create_dir_all("output")?;
    std::fs::write("output/BENCH_des.json", &json)?;
    println!("\nwrote output/BENCH_des.json");

    println!(
        "\nReading: events/s holding roughly flat from 1e4 to 1e6 is the\n\
         point. Arrivals are drawn lazily and coalesced completions are\n\
         replayed outside the queue, so the binary heap never holds more\n\
         than a handful of events and each push/pop costs O(1) in practice;\n\
         with pooled per-event state, a million-request mixed-cluster run\n\
         costs seconds, which is what makes full lambda-sweeps of the\n\
         paper's overlap results testable at datacenter scale. The\n\
         granularity axis shows the lever behind that: coalescing decode\n\
         spans between scheduler epochs removes the per-token queue\n\
         round-trip entirely, with the byte-identity gate proving the\n\
         reports never notice."
    );
    if floor_misses.is_empty() {
        Ok(())
    } else {
        Err(floor_misses.join("; ").into())
    }
}
