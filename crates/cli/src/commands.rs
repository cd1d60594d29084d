//! The `helmsim` subcommands.

use crate::args::{ArgError, Args};
use crate::select;
use helm_core::autoplace::{Objective, SearchBudget};
use helm_core::energy::assess;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use simcore::units::ByteSize;
use workload::WorkloadSpec;

/// Flags of `serve`, `maxbatch`, `energy` and `explain`; the search
/// and sweep commands accept these plus their own.
pub(crate) const SERVE_FLAGS: &[&str] = &[
    "model",
    "memory",
    "placement",
    "batch",
    "gpu-batches",
    "compress",
    "kv-offload",
    "prompt",
    "gen",
    "csv",
    "audit",
    "pipelines",
    "scheduler",
    "continuous",
    "lambda",
    "requests",
    "seed",
    "mix",
    "admission",
    "slo-ms",
    "format",
    "trace-out",
];

/// `autoplace`'s flags beyond [`SERVE_FLAGS`].
pub(crate) const AUTOPLACE_FLAGS: &[&str] = &["objective", "threads", "max-evals"];

/// `plan`'s flags beyond [`SERVE_FLAGS`].
pub(crate) const PLAN_FLAGS: &[&str] = &[
    "target",
    "max-replicas",
    "probe-requests",
    "max-evals",
    "slo-tight-ms",
    "slo-loose-ms",
    "tight-frac",
];

/// `sweep`'s flags beyond [`SERVE_FLAGS`].
pub(crate) const SWEEP_FLAGS: &[&str] = &["axis"];

/// `probe`'s flags.
pub(crate) const PROBE_FLAGS: &[&str] = &["what"];

/// `trace-validate`'s flags.
pub(crate) const TRACE_VALIDATE_FLAGS: &[&str] = &["file"];

/// [`SERVE_FLAGS`] plus a command's own flags.
fn serve_flags_and(extra: &[&'static str]) -> Vec<&'static str> {
    [SERVE_FLAGS, extra].concat()
}

struct Session {
    server: Server,
    workload: WorkloadSpec,
}

/// Resolves `--format text|json`.
fn wants_json(args: &Args) -> Result<bool, ArgError> {
    match args.get_or("format", "text") {
        "text" => Ok(false),
        "json" => Ok(true),
        other => Err(ArgError(format!("unknown format '{other}'; text|json"))),
    }
}

/// Writes a collected trace as chrome-trace JSON; in text mode also
/// says where it went.
fn write_trace(path: &str, trace: &helm_core::trace::Trace, json: bool) -> Result<(), ArgError> {
    std::fs::write(path, trace.to_chrome_json())
        .map_err(|e| ArgError(format!("writing {path}: {e}")))?;
    if !json {
        println!(
            "trace: wrote {} span(s) over {} request(s) to {path}",
            trace.span_count(),
            trace.requests.len()
        );
    }
    Ok(())
}

fn session(args: &Args) -> Result<Session, ArgError> {
    if args.get_bool("audit")? {
        // Auditing is a debug-build default; `--audit` extends it to
        // release binaries for the rest of the process.
        simaudit::force_enable();
    }
    let model = select::model(args.get_or("model", "opt-175b"))?;
    let memory = select::memory(args.get_or("memory", "nvdram"))?;
    let placement = select::placement(args.get_or("placement", "baseline"))?;
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(placement)
        .with_compression(args.get_bool("compress")?)
        .with_kv_offload(args.get_bool("kv-offload")?)
        .with_batch_size(args.get_num("batch", 1u32)?)
        .with_gpu_batches(args.get_num("gpu-batches", 1u32)?);
    let workload = WorkloadSpec::new(
        args.get_num("prompt", 128usize)?,
        args.get_num("gen", 21usize)?,
        1,
    );
    let server = Server::new(SystemConfig::paper_platform(memory), model, policy)
        .map_err(|e| ArgError(e.to_string()))?;
    Ok(Session { server, workload })
}

/// `helmsim serve`.
pub fn serve(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(SERVE_FLAGS)?;
    if args.get("pipelines").is_some() || args.get("lambda").is_some() || args.get("mix").is_some()
    {
        return serve_online(args);
    }
    let json = wants_json(args)?;
    let Session { server, workload } = session(args)?;
    // Span collection composes with the normal run: the traced report
    // is byte-identical, so the printed numbers never depend on
    // whether a trace was requested.
    let report = match args.get("trace-out") {
        Some(path) => {
            let (report, trace) = server
                .run_traced(&workload)
                .map_err(|e| ArgError(e.to_string()))?;
            write_trace(path, &trace, json)?;
            report
        }
        None => server.run(&workload).map_err(|e| ArgError(e.to_string()))?,
    };
    let [disk, cpu, gpu] = report.achieved_distribution;
    if json {
        println!(
            "{{\"model\":\"{}\",\"memory\":\"{}\",\"placement\":\"{}\",\"batch\":{},\
             \"ttft_ms\":{:.3},\"tbt_ms\":{:.3},\"throughput_tps\":{:.6},\
             \"h2d_bytes\":{},\"d2h_bytes\":{},\
             \"compute_frac\":{:.6},\"transfer_frac\":{:.6},\
             \"weights_pct\":{{\"disk\":{disk:.3},\"cpu\":{cpu:.3},\"gpu\":{gpu:.3}}}}}",
            server.model().name(),
            server.system().memory().kind(),
            server.policy().placement().as_str(),
            server.policy().effective_batch(),
            report.ttft_ms(),
            report.tbt_ms(),
            report.throughput_tps(),
            report.total_h2d_bytes().as_u64(),
            report.total_d2h_bytes().as_u64(),
            report.attribution.compute_fraction(),
            report.attribution.transfer_fraction(),
        );
    } else {
        println!("{}", report.summary());
        println!("  TTFT        : {:>12.1} ms", report.ttft_ms());
        println!("  TBT         : {:>12.1} ms", report.tbt_ms());
        println!("  throughput  : {:>12.3} tok/s", report.throughput_tps());
        println!("  H2D traffic : {:>12}", report.total_h2d_bytes());
        println!("  D2H traffic : {:>12}", report.total_d2h_bytes());
        println!("  weights     : disk {disk:.1}% / cpu {cpu:.1}% / gpu {gpu:.1}%");
        println!(
            "  crit. path  : compute {:.1}% / transfer {:.1}%",
            report.attribution.compute_fraction() * 100.0,
            report.attribution.transfer_fraction() * 100.0
        );
        if let Some(audit) = &report.audit {
            for line in audit.to_string().lines() {
                println!("  {line}");
            }
        }
    }
    if let Some(path) = args.get("csv") {
        std::fs::write(path, report.to_csv())
            .map_err(|e| ArgError(format!("writing {path}: {e}")))?;
        if !json {
            println!(
                "  timeline    : wrote {} steps to {path}",
                report.records.len()
            );
        }
    }
    Ok(())
}

/// One `--mix` replica group: placement, batch, replica count.
struct MixGroup {
    placement: helm_core::placement::PlacementKind,
    batch: u32,
    count: usize,
}

/// Parses `--mix helm:4,allcpu:44` (each entry `placement:batch`,
/// with an optional `xN` replica count as in `helm:4x2`).
fn parse_mix(spec: &str) -> Result<Vec<MixGroup>, ArgError> {
    let mut groups = Vec::new();
    for entry in spec.split(',') {
        let (name, rest) = entry.split_once(':').ok_or_else(|| {
            ArgError(format!(
                "bad --mix entry '{entry}' (expected placement:batch, e.g. helm:4)"
            ))
        })?;
        let placement = select::placement(name)?;
        let (batch, count) = match rest.split_once('x') {
            Some((b, n)) => (
                b.parse::<u32>()
                    .map_err(|e| ArgError(format!("bad batch in --mix entry '{entry}': {e}")))?,
                n.parse::<usize>().map_err(|e| {
                    ArgError(format!("bad replica count in --mix entry '{entry}': {e}"))
                })?,
            ),
            None => (
                rest.parse::<u32>()
                    .map_err(|e| ArgError(format!("bad batch in --mix entry '{entry}': {e}")))?,
                1,
            ),
        };
        if batch == 0 || count == 0 {
            return Err(ArgError(format!(
                "--mix entry '{entry}' needs a positive batch and replica count"
            )));
        }
        groups.push(MixGroup {
            placement,
            batch,
            count,
        });
    }
    Ok(groups)
}

/// `helmsim serve --pipelines N` / `--mix a:4,b:44`: online serving
/// through a cluster of pipeline replicas — identical or mixed —
/// under Poisson load, with optional deadlines and admission control.
fn serve_online(args: &Args) -> Result<(), ArgError> {
    use helm_core::online::{
        run_cluster_mix, run_cluster_mix_traced, AdmissionPolicy, CalibrationCache, ClusterSpec,
        DeadlineSpec, PoissonArrivals, SchedulerKind,
    };
    use simcore::time::SimDuration;

    let json = wants_json(args)?;
    let Session { server, workload } = session(args)?;
    if args.get("mix").is_some() && args.get("pipelines").is_some() {
        return Err(ArgError(
            "--mix and --pipelines are mutually exclusive (the mix determines the cluster size)"
                .to_owned(),
        ));
    }
    // One replica-group list for both cluster shapes: the `--mix`
    // entries, or `--pipelines` copies of the base server.
    let (groups, servers) = match args.get("mix") {
        Some(mix) => {
            let groups = parse_mix(mix)?;
            let servers = groups
                .iter()
                .map(|g| {
                    server
                        .reconfigured(g.placement, g.batch)
                        .map_err(|e| ArgError(e.to_string()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            (groups, servers)
        }
        None => {
            let pipelines = args.get_num("pipelines", 1usize)?;
            if pipelines == 0 {
                return Err(ArgError("--pipelines must be at least 1".to_owned()));
            }
            let group = MixGroup {
                placement: server.policy().placement(),
                batch: server.policy().effective_batch(),
                count: pipelines,
            };
            (vec![group], vec![server.clone()])
        }
    };
    let scheduler: SchedulerKind = args.get_or("scheduler", "rr").parse().map_err(ArgError)?;
    let admission: AdmissionPolicy = args
        .get_or("admission", "accept")
        .parse()
        .map_err(ArgError)?;
    let deadlines = match args.get("slo-ms") {
        Some(_) => {
            let slo_ms = args.get_num("slo-ms", 0.0f64)?;
            if !(slo_ms.is_finite() && slo_ms > 0.0) {
                return Err(ArgError(format!(
                    "--slo-ms must be a positive deadline, got {slo_ms}"
                )));
            }
            DeadlineSpec::Fixed(SimDuration::from_millis(slo_ms))
        }
        None => DeadlineSpec::None,
    };
    let spec = ClusterSpec::new(1)
        .with_scheduler(scheduler)
        .with_continuous(args.get_bool("continuous")?)
        .with_admission(admission)
        .with_deadlines(deadlines);
    let lambda = args.get_num("lambda", 0.05f64)?;
    if !(lambda.is_finite() && lambda > 0.0) {
        return Err(ArgError(format!(
            "--lambda must be a positive arrival rate, got {lambda}"
        )));
    }
    let requests = args.get_num("requests", 60usize)?;
    let seed = args.get_num("seed", 42u64)?;
    let mut arrivals = PoissonArrivals::new(lambda, seed);

    let refs: Vec<(&Server, usize)> = servers
        .iter()
        .zip(&groups)
        .map(|(s, g)| (s, g.count))
        .collect();
    // As offline: the traced report is byte-identical, so
    // `--trace-out` never perturbs what gets printed.
    let report = match args.get("trace-out") {
        Some(path) => {
            let (report, trace) = run_cluster_mix_traced(
                &refs,
                &workload,
                &mut arrivals,
                requests,
                spec,
                &mut CalibrationCache::new(),
            )
            .map_err(|e| ArgError(e.to_string()))?;
            write_trace(path, &trace, json)?;
            report
        }
        None => run_cluster_mix(&refs, &workload, &mut arrivals, requests, spec)
            .map_err(|e| ArgError(e.to_string()))?,
    };
    let cluster_size: usize = groups.iter().map(|g| g.count).sum();

    if json {
        let groups: Vec<String> = groups
            .iter()
            .map(|g| {
                format!(
                    "{{\"placement\":\"{}\",\"batch\":{},\"replicas\":{}}}",
                    g.placement.as_str(),
                    g.batch,
                    g.count
                )
            })
            .collect();
        let pipes: Vec<String> = report
            .per_pipeline
            .iter()
            .map(|p| {
                format!(
                    "{{\"config\":{},\"served\":{},\"rejected\":{},\"expired\":{},\
                     \"batches\":{},\"busy_s\":{:.6},\"utilization\":{:.6}}}",
                    p.config,
                    p.served,
                    p.rejected,
                    p.expired,
                    p.batches,
                    p.busy.as_secs(),
                    p.utilization
                )
            })
            .collect();
        println!(
            "{{\"model\":\"{}\",\"memory\":\"{}\",\"scheduler\":\"{}\",\"admission\":\"{}\",\
             \"continuous\":{},\
             \"lambda\":{lambda},\"requests\":{requests},\"seed\":{seed},\
             \"cluster_size\":{cluster_size},\"groups\":[{}],\
             \"served\":{},\"rejected\":{},\"expired\":{},\"met\":{},\"slo_violations\":{},\
             \"attainment\":{:.6},\"makespan_s\":{:.6},\"queue_delay_ms_mean\":{:.3},\
             \"e2e_p50_ms\":{:.3},\"e2e_p95_ms\":{:.3},\"tokens_per_s\":{:.6},\
             \"tokens_per_s_met\":{:.6},\"utilization\":{:.6},\
             \"queue_frac\":{:.6},\"compute_frac\":{:.6},\"transfer_frac\":{:.6},\
             \"pipelines\":[{}]}}",
            server.model().name(),
            server.system().memory().kind(),
            spec.scheduler.as_str(),
            admission,
            spec.continuous,
            groups.join(","),
            report.served,
            report.rejected,
            report.expired,
            report.met,
            report.slo_violations,
            report.slo_attainment(),
            report.makespan.as_secs(),
            report.mean_queue_delay_ms(),
            report.e2e_percentile_ms(50.0),
            report.e2e_percentile_ms(95.0),
            report.tokens_per_s,
            report.tokens_per_s_met,
            report.utilization,
            report.attribution.queue_fraction(),
            report.attribution.compute_fraction(),
            report.attribution.transfer_fraction(),
            pipes.join(",")
        );
        return Ok(());
    }
    println!(
        "{} on {}, {} pipeline(s), {} dispatch, {} admission, {} batching",
        server.model().name(),
        server.system().memory().kind(),
        cluster_size,
        spec.scheduler,
        admission,
        if spec.continuous {
            "continuous"
        } else {
            "run-to-completion"
        },
    );
    for (g, group) in groups.iter().enumerate() {
        println!(
            "  config {g}    : {} b={} x{}",
            group.placement, group.batch, group.count
        );
    }
    println!("  load        : lambda {lambda} req/s, {requests} requests, seed {seed}");
    if let DeadlineSpec::Fixed(slo) = deadlines {
        println!("  SLO         : {:>12.1} ms", slo.as_millis());
    }
    println!("  served      : {:>12}", report.served);
    if report.rejected > 0 || report.expired > 0 || !matches!(deadlines, DeadlineSpec::None) {
        println!("  rejected    : {:>12}", report.rejected);
        println!("  expired     : {:>12}", report.expired);
        println!(
            "  SLO met     : {:>12} ({} violated, attainment {:.3})",
            report.met,
            report.slo_violations,
            report.slo_attainment()
        );
    }
    println!("  makespan    : {:>12.1} s", report.makespan.as_secs());
    println!(
        "  queue delay : {:>12.1} ms mean",
        report.mean_queue_delay_ms()
    );
    println!(
        "  e2e latency : {:>12.1} ms p50 / {:.1} ms p95",
        report.e2e_percentile_ms(50.0),
        report.e2e_percentile_ms(95.0)
    );
    println!("  throughput  : {:>12.3} tok/s", report.tokens_per_s);
    if !matches!(deadlines, DeadlineSpec::None) {
        println!(
            "  goodput     : {:>12.3} tok/s (SLO-met)",
            report.tokens_per_s_met
        );
    }
    println!("  utilization : {:>12.3}", report.utilization);
    println!(
        "  crit. path  : queue {:.1}% / compute {:.1}% / transfer {:.1}%",
        report.attribution.queue_fraction() * 100.0,
        report.attribution.compute_fraction() * 100.0,
        report.attribution.transfer_fraction() * 100.0
    );
    for (i, p) in report.per_pipeline.iter().enumerate() {
        println!(
            "  pipe{i:<7} : cfg {} served {:>4}, rejected {:>3}, expired {:>3}, {} batches, busy {:.1} s, util {:.3}",
            p.config,
            p.served,
            p.rejected,
            p.expired,
            p.batches,
            p.busy.as_secs(),
            p.utilization
        );
    }
    if let Some(audit) = &report.audit {
        for line in audit.to_string().lines() {
            println!("  {line}");
        }
    }
    Ok(())
}

/// `helmsim maxbatch`.
pub fn maxbatch(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(SERVE_FLAGS)?;
    let Session { server, workload } = session(args)?;
    let costs = server.resident_costs(&workload);
    println!("GPU-resident weights : {}", costs.weights);
    println!("prefetch staging     : {}", costs.staging);
    println!("KV per sequence      : {}", costs.kv_per_sequence);
    println!("max batch            : {}", server.max_batch(&workload));
    Ok(())
}

/// `helmsim autoplace`.
pub fn autoplace(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&serve_flags_and(AUTOPLACE_FLAGS))?;
    let objective = match args.get_or("objective", "latency") {
        "latency" => Objective::Latency,
        "throughput" => Objective::Throughput,
        other => {
            return Err(ArgError(format!(
                "unknown objective '{other}'; latency|throughput"
            )))
        }
    };
    let budget = SearchBudget {
        threads: args.get_num("threads", 0usize)?,
        max_evals: args.get_num("max-evals", 0usize)?,
    };
    let Session { server, workload } = session(args)?;
    let result = server
        .autoplace(&workload, objective, budget)
        .map_err(|e| ArgError(e.to_string()))?;
    println!(
        "winner: MHA {}% / FFN {}% on GPU, batch {}",
        result.mha_gpu_percent, result.ffn_gpu_percent, result.batch
    );
    println!("{}", result.report.summary());
    let stats = &result.stats;
    println!(
        "search: {} evaluated + {} pruned in {:.1} ms ({:.0} evals/s)",
        stats.evaluated,
        stats.pruned,
        stats.wall_ms,
        if stats.wall_ms > 0.0 {
            stats.evaluated as f64 / (stats.wall_ms / 1000.0)
        } else {
            0.0
        }
    );
    println!("pareto frontier (TBT-optimal to throughput-optimal):");
    println!("  MHA%   FFN%   batch     TBT(ms)       tok/s");
    for p in result.frontier.pareto() {
        println!(
            "  {:>4}  {:>5}  {:>6}  {:>10.1}  {:>10.3}",
            p.mha_gpu_percent, p.ffn_gpu_percent, p.batch, p.tbt_ms, p.throughput_tps
        );
    }
    Ok(())
}

/// `helmsim plan`: SLO-aware capacity planning — the minimum-resource
/// cluster configuration meeting an attainment target under Poisson
/// load, found by bound-pruned, calibrate-once search.
pub fn plan(args: &Args) -> Result<(), ArgError> {
    use helm_core::online::DeadlineSpec;
    use helm_core::planner::{self, PlanSpace, PlanTarget, TrafficSpec};
    use simcore::time::SimDuration;

    args.reject_unknown(&serve_flags_and(PLAN_FLAGS))?;
    let json = wants_json(args)?;
    let Session { server, workload } = session(args)?;

    let lambda = args.get_num("lambda", 0.05f64)?;
    if !(lambda.is_finite() && lambda > 0.0) {
        return Err(ArgError(format!(
            "--lambda must be a positive arrival rate, got {lambda}"
        )));
    }
    let requests = args.get_num("requests", 200usize)?;
    if requests == 0 {
        return Err(ArgError("--requests must be at least 1".to_owned()));
    }
    let seed = args.get_num("seed", 42u64)?;
    let target = args.get_num("target", 0.95f64)?;
    if !(0.0..=1.0).contains(&target) {
        return Err(ArgError(format!(
            "--target must be an attainment fraction in [0, 1], got {target}"
        )));
    }

    let positive_ms = |flag: &str| -> Result<SimDuration, ArgError> {
        let ms = args.get_num(flag, 0.0f64)?;
        if !(ms.is_finite() && ms > 0.0) {
            return Err(ArgError(format!(
                "--{flag} must be a positive deadline, got {ms}"
            )));
        }
        Ok(SimDuration::from_millis(ms))
    };
    let deadlines = if args.get("slo-tight-ms").is_some() || args.get("slo-loose-ms").is_some() {
        if args.get("slo-ms").is_some() {
            return Err(ArgError(
                "--slo-ms and --slo-tight-ms/--slo-loose-ms are mutually exclusive".to_owned(),
            ));
        }
        let tight = positive_ms("slo-tight-ms")?;
        let loose = positive_ms("slo-loose-ms")?;
        let tight_fraction = args.get_num("tight-frac", 0.5f64)?;
        if !(0.0..=1.0).contains(&tight_fraction) {
            return Err(ArgError(format!(
                "--tight-frac must be a fraction in [0, 1], got {tight_fraction}"
            )));
        }
        DeadlineSpec::Bimodal {
            tight,
            loose,
            tight_fraction,
            seed,
        }
    } else if args.get("slo-ms").is_some() {
        DeadlineSpec::Fixed(positive_ms("slo-ms")?)
    } else {
        DeadlineSpec::None
    };

    let traffic = TrafficSpec::new(lambda, requests, seed).with_deadlines(deadlines);
    let mut space =
        PlanSpace::for_server(&server, &workload).map_err(|e| ArgError(e.to_string()))?;
    space.max_replicas = args.get_num("max-replicas", space.max_replicas)?;
    if space.max_replicas == 0 {
        return Err(ArgError("--max-replicas must be at least 1".to_owned()));
    }
    space.probe_requests = args.get_num("probe-requests", space.probe_requests)?;
    if space.probe_requests == 0 {
        return Err(ArgError("--probe-requests must be at least 1".to_owned()));
    }
    space.continuous = args.get_bool("continuous")?;
    let budget = SearchBudget {
        max_evals: args.get_num("max-evals", 0usize)?,
        ..SearchBudget::default()
    };
    let report = planner::plan(
        &server,
        &workload,
        &traffic,
        PlanTarget::attainment(target),
        &space,
        budget,
    )
    .map_err(|e| ArgError(e.to_string()))?;
    if let Some(path) = args.get("trace-out") {
        // Replays the chosen configuration's confirmation run with
        // span collection on (the replay is deterministic in the
        // traffic seed, so it reproduces the judged run exactly).
        let (_, trace) = planner::replay_plan_traced(&server, &workload, &traffic, &space, &report)
            .map_err(|e| ArgError(e.to_string()))?;
        write_trace(path, &trace, json)?;
    }

    if json {
        let groups: Vec<String> = report
            .groups
            .iter()
            .map(|(t, count)| {
                format!(
                    "{{\"placement\":\"{}\",\"batch\":{},\"replicas\":{count}}}",
                    t.placement.as_str(),
                    t.batch
                )
            })
            .collect();
        println!(
            "{{\"model\":\"{}\",\"memory\":\"{}\",\"target\":{target},\
             \"lambda\":{lambda},\"requests\":{requests},\"seed\":{seed},\
             \"feasible\":{},\"attainment\":{:.6},\"probe_attainment\":{:.6},\
             \"total_replicas\":{},\"scheduler\":\"{}\",\"admission\":\"{}\",\
             \"groups\":[{}],\"candidates\":{},\"evaluated\":{},\"pruned\":{},\
             \"confirmations\":{},\"calibrations\":{},\"probe_requests\":{},\
             \"wall_ms\":{:.3},\"confirm_wall_ms\":{:.3},\
             \"queue_frac\":{:.6},\"compute_frac\":{:.6},\"transfer_frac\":{:.6}}}",
            server.model().name(),
            server.system().memory().kind(),
            report.feasible,
            report.attainment,
            report.probe_attainment,
            report.chosen.total_replicas(),
            report.chosen.scheduler.as_str(),
            report.chosen.admission,
            groups.join(","),
            report.candidates,
            report.stats.evaluated,
            report.stats.pruned,
            report.confirmations,
            report.calibrations,
            report.probe_requests,
            report.stats.wall_ms,
            report.confirm_wall_ms,
            report.attribution.queue_fraction(),
            report.attribution.compute_fraction(),
            report.attribution.transfer_fraction()
        );
        return Ok(());
    }

    println!(
        "plan: {} on {}, target attainment {target:.3}",
        server.model().name(),
        server.system().memory().kind()
    );
    println!("  traffic     : lambda {lambda} req/s, {requests} requests, seed {seed}");
    match deadlines {
        DeadlineSpec::None => println!("  SLO         : none (every request trivially met)"),
        DeadlineSpec::Fixed(slo) => println!("  SLO         : fixed {:.1} ms", slo.as_millis()),
        DeadlineSpec::Bimodal {
            tight,
            loose,
            tight_fraction,
            ..
        } => println!(
            "  SLO         : bimodal {:.1} ms ({:.0}%) / {:.1} ms",
            tight.as_millis(),
            tight_fraction * 100.0,
            loose.as_millis()
        ),
    }
    if report.feasible {
        println!(
            "  feasible    : yes (attainment {:.3} on the full confirmation run)",
            report.attainment
        );
    } else {
        println!(
            "  feasible    : no — best effort attains {:.3} on the full confirmation run",
            report.attainment
        );
    }
    println!(
        "  chosen      : {} replica(s), {} dispatch, {} admission",
        report.chosen.total_replicas(),
        report.chosen.scheduler,
        report.chosen.admission
    );
    for (t, count) in &report.groups {
        println!("  group       : {} b={} x{count}", t.placement, t.batch);
    }
    println!(
        "  probe       : attainment {:.3} over {}-request probes",
        report.probe_attainment, report.probe_requests
    );
    println!(
        "  search      : {} probed + {} pruned of {} candidates in {:.1} ms",
        report.stats.evaluated, report.stats.pruned, report.candidates, report.stats.wall_ms
    );
    println!(
        "  confirms    : {} full-length run(s) in {:.1} ms, {} calibration(s)",
        report.confirmations, report.confirm_wall_ms, report.calibrations
    );
    println!(
        "  crit. path  : queue {:.1}% / compute {:.1}% / transfer {:.1}%",
        report.attribution.queue_fraction() * 100.0,
        report.attribution.compute_fraction() * 100.0,
        report.attribution.transfer_fraction() * 100.0
    );
    if let Some(audit) = &report.confirmed.audit {
        for line in audit.to_string().lines() {
            println!("  {line}");
        }
    }
    Ok(())
}

/// `helmsim energy`.
pub fn energy(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(SERVE_FLAGS)?;
    let Session { server, workload } = session(args)?;
    let report = server.run(&workload).map_err(|e| ArgError(e.to_string()))?;
    let energy = assess(&report, server.system());
    println!("{}", report.summary());
    println!("{energy}");
    Ok(())
}

/// `helmsim probe`.
pub fn probe(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(PROBE_FLAGS)?;
    match args.get_or("what", "bandwidth") {
        "bandwidth" => {
            let path = xfer::path::PathModel::paper_system();
            let points = xfer::nvbandwidth::sweep(&path);
            println!("host -> GPU (GB/s):");
            print!(
                "{}",
                xfer::nvbandwidth::to_table(&points, xfer::path::Direction::HostToGpu)
            );
            println!("\nGPU -> host (GB/s):");
            print!(
                "{}",
                xfer::nvbandwidth::to_table(&points, xfer::path::Direction::GpuToHost)
            );
        }
        "mlc" => {
            let report = hetmem::mlc::run(
                &hetmem::numa::NumaTopology::paper_system(),
                ByteSize::from_gb(1.0),
            );
            print!("{}", report.to_table());
        }
        other => return Err(ArgError(format!("unknown probe '{other}'; bandwidth|mlc"))),
    }
    Ok(())
}

/// `helmsim explain`: per-layer cost breakdown — the kernel plan and
/// the transfer costing for one decoder block.
pub fn explain(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(SERVE_FLAGS)?;
    let Session { server, workload } = session(args)?;
    let placement = server.effective_placement(&workload);
    let policy = server.policy().clone();
    let inputs = helm_core::exec::PipelineInputs {
        system: server.system(),
        model: server.model(),
        policy: &policy,
        placement: &placement,
        workload: &workload,
    };
    let cpu_ws = placement.total_on(helm_core::placement::Tier::Cpu);
    let disk_ws = placement.total_on(helm_core::placement::Tier::Disk);
    println!(
        "{} on {} [{} b={}{}], decode step:",
        server.model().name(),
        server.system().memory().kind(),
        policy.placement(),
        policy.effective_batch(),
        if policy.compressed() { " (c)" } else { "" },
    );
    for lp in placement.layers().iter().skip(1).take(2) {
        let layer = lp.layer();
        println!("\n[{}] layer {}", layer.kind(), layer.index());
        let plan =
            helm_core::exec::kernel_plan(&inputs, layer, helm_core::metrics::Stage::Decode, 1);
        for (name, k) in &plan {
            println!(
                "  kernel {name:<18} {:>10.3} ms",
                server.system().gpu().kernel_time(k).as_millis()
            );
        }
        let compute =
            helm_core::exec::compute_time(&inputs, layer, helm_core::metrics::Stage::Decode, 1);
        let load = helm_core::exec::load_time(&inputs, lp, cpu_ws, disk_ws)
            .map_err(|e| ArgError(e.to_string()))?;
        println!("  total compute      {:>10.3} ms", compute.as_millis());
        println!(
            "  weight transfer    {:>10.3} ms ({} offloaded)",
            load.as_millis(),
            lp.offloaded_bytes(placement.dtype()),
        );
        let bound = if load > compute { "memory" } else { "compute" };
        println!("  -> {bound}-bound when overlapped");
    }
    Ok(())
}

/// `helmsim sweep`: one-axis parameter sweeps.
pub fn sweep(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&serve_flags_and(SWEEP_FLAGS))?;
    let axis = args.get_or("axis", "batch").to_owned();
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "point", "TTFT(ms)", "TBT(ms)", "tok/s"
    );
    let print_row = |label: String, r: &helm_core::RunReport| {
        println!(
            "{label:<16} {:>12.1} {:>12.1} {:>12.3}",
            r.ttft_ms(),
            r.tbt_ms(),
            r.throughput_tps()
        );
    };
    match axis.as_str() {
        "batch" => {
            let Session { server, workload } = session(args)?;
            let max = server.max_batch(&workload);
            let mut batch = 1u32;
            while batch <= max {
                let s = Server::new(
                    server.system().clone(),
                    server.model().clone(),
                    server.policy().clone().with_batch_size(batch),
                )
                .map_err(|e| ArgError(e.to_string()))?;
                let r = s.run(&workload).map_err(|e| ArgError(e.to_string()))?;
                print_row(format!("batch {batch}"), &r);
                if batch == max {
                    break;
                }
                batch = (batch * 2).min(max);
            }
        }
        "prompt" => {
            for prompt in [64usize, 128, 256, 512, 1024] {
                let mut forwarded = vec!["--prompt".to_owned(), prompt.to_string()];
                forwarded.extend(reconstruct_flags(args, &["prompt"]));
                let sub = Args::parse(forwarded)?;
                let Session { server, workload } = session(&sub)?;
                let r = server.run(&workload).map_err(|e| ArgError(e.to_string()))?;
                print_row(format!("prompt {prompt}"), &r);
            }
        }
        "cxl" => {
            for gbps in [4.0, 8.0, 16.0, 28.0, 48.0] {
                let mut forwarded = vec!["--memory".to_owned(), format!("cxl:{gbps}")];
                forwarded.extend(reconstruct_flags(args, &["memory"]));
                let sub = Args::parse(forwarded)?;
                let Session { server, workload } = session(&sub)?;
                let r = server.run(&workload).map_err(|e| ArgError(e.to_string()))?;
                print_row(format!("cxl {gbps} GB/s"), &r);
            }
        }
        other => {
            return Err(ArgError(format!(
                "unknown axis '{other}'; batch|prompt|cxl"
            )))
        }
    }
    Ok(())
}

/// Re-serializes the serve flags of `args`, skipping `except`.
fn reconstruct_flags(args: &Args, except: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for key in SERVE_FLAGS {
        if except.contains(key) {
            continue;
        }
        match (*key, args.get(key)) {
            ("compress" | "kv-offload" | "audit" | "continuous", _)
                if args.get_bool(key).unwrap_or(false) =>
            {
                out.push(format!("--{key}"));
            }
            (_, Some(value)) => {
                out.push(format!("--{key}"));
                out.push(value.to_owned());
            }
            _ => {}
        }
    }
    out
}

/// `helmsim trace-validate --file trace.json`: checks that an
/// exported chrome-trace file parses, that every event is a complete
/// `"X"` span with finite non-negative timestamps, and that spans on
/// each `(pid, tid)` track nest without overlap — the structural
/// contract CI holds `--trace-out` output to.
pub fn trace_validate(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(TRACE_VALIDATE_FLAGS)?;
    let path = args
        .get("file")
        .ok_or_else(|| ArgError("trace-validate needs --file <trace.json>".to_owned()))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
    let stats = helm_core::trace::validate_chrome_trace(&text)
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    println!(
        "{path}: ok — {} event(s) across {} track(s), all nested",
        stats.events, stats.tracks
    );
    Ok(())
}

/// `helmsim list`.
pub fn list(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&[])?;
    println!("models     : {}", select::MODELS.join(", "));
    println!("memories   : {}", select::MEMORIES.join(", "));
    println!("placements : {}", select::PLACEMENTS.join(", "));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).unwrap()
    }

    #[test]
    fn serve_small_model_end_to_end() {
        let args = parse(&["--model", "opt-1.3b", "--memory", "dram", "--gen", "3"]);
        serve(&args).unwrap();
    }

    #[test]
    fn serve_online_cluster_end_to_end() {
        let args = parse(&[
            "--model",
            "opt-1.3b",
            "--memory",
            "dram",
            "--gen",
            "3",
            "--pipelines",
            "2",
            "--scheduler",
            "jsq",
            "--continuous",
            "--lambda",
            "0.5",
            "--requests",
            "8",
            "--seed",
            "7",
        ]);
        serve(&args).unwrap();
    }

    #[test]
    fn serve_online_validates_flags() {
        let zero = parse(&[
            "--model",
            "opt-1.3b",
            "--memory",
            "dram",
            "--pipelines",
            "0",
        ]);
        assert!(serve(&zero).unwrap_err().to_string().contains("pipelines"));
        let sched = parse(&[
            "--model",
            "opt-1.3b",
            "--memory",
            "dram",
            "--pipelines",
            "2",
            "--scheduler",
            "lifo",
        ]);
        assert!(serve(&sched).unwrap_err().to_string().contains("scheduler"));
        let lambda = parse(&["--model", "opt-1.3b", "--memory", "dram", "--lambda", "-1"]);
        assert!(serve(&lambda).unwrap_err().to_string().contains("lambda"));
    }

    #[test]
    fn removed_flags_are_unknown() {
        // No command takes `--granularity`, and only `autoplace`
        // takes `--threads`.
        type Command = fn(&Args) -> Result<(), ArgError>;
        let commands: [(&str, Command); 10] = [
            ("serve", serve),
            ("maxbatch", maxbatch),
            ("autoplace", autoplace),
            ("plan", plan),
            ("energy", energy),
            ("probe", probe),
            ("explain", explain),
            ("sweep", sweep),
            ("trace-validate", trace_validate),
            ("list", list),
        ];
        let unknown = |run: Command, tokens: &[&str]| {
            run(&parse(tokens))
                .unwrap_err()
                .to_string()
                .starts_with(&format!("unknown flag {}", tokens[0]))
        };
        for (name, run) in commands {
            assert!(
                unknown(run, &["--granularity", "coalesced"]),
                "{name} accepted --granularity"
            );
        }
        assert!(unknown(
            serve,
            &["--granularity", "per-step", "--pipelines", "2"]
        ));
        assert!(unknown(plan, &["--threads", "2"]));
        assert!(AUTOPLACE_FLAGS.contains(&"threads"));
    }

    #[test]
    fn serve_mix_cluster_end_to_end() {
        let args = parse(&[
            "--model",
            "opt-1.3b",
            "--memory",
            "dram",
            "--gen",
            "3",
            "--mix",
            "helm:2,all-cpu:4x2",
            "--scheduler",
            "edf",
            "--admission",
            "deadline",
            "--slo-ms",
            "30000",
            "--lambda",
            "0.5",
            "--requests",
            "10",
            "--seed",
            "7",
        ]);
        serve(&args).unwrap();
    }

    #[test]
    fn serve_mix_validates_flags() {
        let base = ["--model", "opt-1.3b", "--memory", "dram"];
        let bad_entry = |mix: &str| {
            let mut v = base.to_vec();
            v.extend(["--mix", mix]);
            serve(&parse(&v)).unwrap_err().to_string()
        };
        assert!(bad_entry("helm").contains("placement:batch"));
        assert!(bad_entry("helm:0").contains("positive"));
        assert!(bad_entry("helm:2x0").contains("positive"));
        assert!(bad_entry("helm:abc").contains("batch"));
        assert!(bad_entry("tarot:4").contains("placement"));

        let conflict = parse(&[
            "--model",
            "opt-1.3b",
            "--memory",
            "dram",
            "--mix",
            "helm:2",
            "--pipelines",
            "3",
        ]);
        assert!(serve(&conflict)
            .unwrap_err()
            .to_string()
            .contains("mutually exclusive"));

        let admission = parse(&[
            "--model",
            "opt-1.3b",
            "--memory",
            "dram",
            "--lambda",
            "0.5",
            "--admission",
            "lottery",
        ]);
        assert!(serve(&admission)
            .unwrap_err()
            .to_string()
            .contains("admission"));

        let slo = parse(&[
            "--model", "opt-1.3b", "--memory", "dram", "--lambda", "0.5", "--slo-ms", "-5",
        ]);
        assert!(serve(&slo).unwrap_err().to_string().contains("slo-ms"));
    }

    #[test]
    fn plan_small_model_end_to_end() {
        let args = parse(&[
            "--model",
            "opt-1.3b",
            "--memory",
            "dram",
            "--gen",
            "3",
            "--lambda",
            "0.5",
            "--requests",
            "20",
            "--probe-requests",
            "8",
            "--slo-ms",
            "30000",
            "--target",
            "0.9",
            "--max-replicas",
            "2",
            "--format",
            "json",
        ]);
        plan(&args).unwrap();
    }

    #[test]
    fn plan_validates_flags() {
        let base = ["--model", "opt-1.3b", "--memory", "dram", "--gen", "3"];
        let with = |extra: &[&str]| {
            let mut v = base.to_vec();
            v.extend_from_slice(extra);
            plan(&parse(&v)).unwrap_err().to_string()
        };
        assert!(with(&["--target", "1.5"]).contains("target"));
        assert!(with(&["--max-replicas", "0"]).contains("max-replicas"));
        assert!(with(&["--probe-requests", "0"]).contains("probe-requests"));
        assert!(with(&["--lambda", "-1"]).contains("lambda"));
        assert!(with(&["--slo-tight-ms", "100"]).contains("slo-loose-ms"));
        assert!(with(&[
            "--slo-ms",
            "100",
            "--slo-tight-ms",
            "50",
            "--slo-loose-ms",
            "500"
        ])
        .contains("mutually exclusive"));
        assert!(with(&[
            "--tight-frac",
            "2",
            "--slo-tight-ms",
            "50",
            "--slo-loose-ms",
            "500"
        ])
        .contains("tight-frac"));
        assert!(with(&["--format", "yaml"]).contains("format"));
    }

    #[test]
    fn serve_json_formats() {
        let offline = parse(&[
            "--model", "opt-1.3b", "--memory", "dram", "--gen", "3", "--format", "json",
        ]);
        serve(&offline).unwrap();
        let online = parse(&[
            "--model",
            "opt-1.3b",
            "--memory",
            "dram",
            "--gen",
            "3",
            "--lambda",
            "0.5",
            "--requests",
            "6",
            "--format",
            "json",
        ]);
        serve(&online).unwrap();
        let bad = parse(&[
            "--model", "opt-1.3b", "--memory", "dram", "--format", "yaml",
        ]);
        assert!(serve(&bad).unwrap_err().to_string().contains("format"));
    }

    #[test]
    fn maxbatch_reports() {
        let args = parse(&[
            "--model",
            "opt-175b",
            "--memory",
            "nvdram",
            "--placement",
            "all-cpu",
            "--compress",
        ]);
        maxbatch(&args).unwrap();
    }

    #[test]
    fn serve_rejects_unknown_flags() {
        let args = parse(&["--modle", "opt-30b"]);
        assert!(serve(&args).is_err());
    }

    #[test]
    fn serve_rejects_infeasible_configs() {
        // OPT-175B uncompressed on DRAM.
        let args = parse(&["--model", "opt-175b", "--memory", "dram"]);
        let err = serve(&args).unwrap_err();
        assert!(err.to_string().contains("cpu tier"));
    }

    #[test]
    fn energy_runs() {
        let args = parse(&["--model", "opt-1.3b", "--memory", "nvdram", "--gen", "3"]);
        energy(&args).unwrap();
    }

    #[test]
    fn probe_variants() {
        probe(&parse(&["--what", "mlc"])).unwrap();
        probe(&parse(&[])).unwrap();
        assert!(probe(&parse(&["--what", "tarot"])).is_err());
    }

    #[test]
    fn list_prints() {
        list(&parse(&[])).unwrap();
        assert!(list(&parse(&["--x", "1"])).is_err());
    }

    #[test]
    fn explain_runs_on_small_model() {
        let args = parse(&["--model", "opt-1.3b", "--memory", "nvdram", "--compress"]);
        explain(&args).unwrap();
    }

    #[test]
    fn sweep_axes_run_and_validate() {
        let batch = parse(&[
            "--model", "opt-1.3b", "--memory", "dram", "--gen", "2", "--axis", "batch",
        ]);
        sweep(&batch).unwrap();
        let cxl = parse(&["--model", "opt-1.3b", "--gen", "2", "--axis", "cxl"]);
        sweep(&cxl).unwrap();
        let bad = parse(&["--axis", "sideways"]);
        assert!(sweep(&bad).is_err());
    }

    #[test]
    fn reconstruct_flags_round_trips() {
        let args = parse(&["--model", "opt-1.3b", "--compress", "--batch", "4"]);
        let flags = reconstruct_flags(&args, &["batch"]);
        assert!(flags.contains(&"--model".to_owned()));
        assert!(flags.contains(&"--compress".to_owned()));
        assert!(!flags.contains(&"--batch".to_owned()));
    }

    #[test]
    fn csv_export_writes_file() {
        let dir = std::env::temp_dir().join("helmsim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("timeline.csv");
        let path_str = path.to_str().unwrap();
        let args = parse(&[
            "--model", "opt-1.3b", "--memory", "dram", "--gen", "2", "--csv", path_str,
        ]);
        serve(&args).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with("token,"));
        std::fs::remove_file(&path).ok();
    }
}
