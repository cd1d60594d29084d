//! Microbenchmark for the pipeline hot loop: steps/sec of the seed
//! evaluator (per-step recomputation, full records) versus the
//! cost-table fast path in `RecordMode::Full` and the allocation-free
//! `RecordMode::Aggregate` the autoplace engine and online calibration
//! run on. The fast-path timings *include* `LayerCostTable::build` on
//! every call — the table is rebuilt per candidate in real use, so
//! amortization is not assumed.
//!
//! Also replays the seed's serial coarse placement sweep twice — once
//! on the seed evaluator, once on table + Aggregate — to report the
//! end-to-end wall-clock win a search pass sees, and to check the
//! winner is bit-identical.
//!
//! Results land in `output/BENCH_pipeline.json`. `--quick` shrinks the
//! iteration counts for CI smoke runs.

use std::time::Instant;

use bench::{section, table};
use helm_core::exec::{
    run_pipeline_reference, run_pipeline_with, LayerCostTable, PipelineInputs, RecordMode,
};
use helm_core::placement::{ModelPlacement, Tier};
use helm_core::policy::Policy;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use workload::WorkloadSpec;

/// One timed variant: evaluates `inp` `iters` times, returns
/// `(steps_per_sec, total_steps_per_run)`.
fn time_variant<F>(
    inp: &PipelineInputs<'_>,
    iters: usize,
    mut eval: F,
) -> Result<(f64, usize), helm_core::HelmError>
where
    F: FnMut(&PipelineInputs<'_>) -> Result<usize, helm_core::HelmError>,
{
    // Warm up once so lazy platform state and allocator pools don't
    // bill the first timed iteration.
    let steps_per_run = eval(inp)?;
    let started = Instant::now();
    for _ in 0..iters {
        let steps = eval(inp)?;
        assert_eq!(steps, steps_per_run, "step count drifted across runs");
    }
    let elapsed = started.elapsed().as_secs_f64();
    Ok(((steps_per_run * iters) as f64 / elapsed, steps_per_run))
}

/// The seed's serial coarse sweep over the 10% placement grid, costed
/// by `eval`. Returns `(wall_ms, evaluated, best_tbt_ms_bits)`.
fn coarse_sweep<F>(
    system: &SystemConfig,
    model: &ModelConfig,
    policy: &Policy,
    workload: &WorkloadSpec,
    mut eval: F,
) -> Result<(f64, usize, u64), helm_core::HelmError>
where
    F: FnMut(&PipelineInputs<'_>) -> Result<f64, helm_core::HelmError>,
{
    let budget = gpusim::MemoryBudget::for_gpu(system.gpu());
    let started = Instant::now();
    let mut evaluated = 0usize;
    let mut best_tbt = f64::INFINITY;
    for mha in (0..=100u32).step_by(10) {
        for ffn in (0..=100u32).step_by(10) {
            let placement = ModelPlacement::compute_custom(
                model,
                policy.compressed(),
                [f64::from(mha), f64::from(100 - mha), 0.0],
                [f64::from(ffn), f64::from(100 - ffn), 0.0],
                [0.0, 100.0, 0.0],
            );
            if placement.total_on(Tier::Cpu) > system.tier_capacity(Tier::Cpu) {
                continue;
            }
            let costs = gpusim::ResidentCosts {
                weights: placement.total_on(Tier::Gpu),
                staging: placement.staging_bytes(),
                kv_per_sequence: llm::kv::kv_bytes_per_sequence(model, workload.context_len()),
                hidden_per_sequence: llm::kv::hidden_bytes_per_sequence(
                    model,
                    workload.context_len(),
                ),
            };
            if !budget.fits(&costs, policy.effective_batch()) {
                continue;
            }
            let tbt = eval(&PipelineInputs {
                system,
                model,
                policy,
                placement: &placement,
                workload,
            })?;
            evaluated += 1;
            if tbt < best_tbt {
                best_tbt = tbt;
            }
        }
    }
    Ok((
        started.elapsed().as_secs_f64() * 1000.0,
        evaluated,
        best_tbt.to_bits(),
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = if quick { 4 } else { 60 };

    let model = ModelConfig::opt_30b();
    let memory = HostMemoryConfig::nvdram();
    let system = SystemConfig::paper_platform(memory.clone());
    let policy = Policy::paper_default(&model, memory.kind())
        .with_compression(true)
        .with_batch_size(8);
    let placement = ModelPlacement::compute(&model, &policy);
    let workload = WorkloadSpec::paper_default();
    let inp = PipelineInputs {
        system: &system,
        model: &model,
        policy: &policy,
        placement: &placement,
        workload: &workload,
    };

    print!(
        "{}",
        section(&format!(
            "pipeline hot loop: {} x {} iterations ({} layers x {} tokens/run)",
            model.name(),
            iters,
            model.num_layers(),
            workload.gen_len
        ))
    );

    let (seed_sps, steps_per_run) = time_variant(&inp, iters, |inp| {
        Ok(run_pipeline_reference(inp)?.records.len())
    })?;
    let (full_sps, _) = time_variant(&inp, iters, |inp| {
        let table = LayerCostTable::build(inp)?;
        Ok(run_pipeline_with(inp, &table, RecordMode::Full)?
            .records
            .len())
    })?;
    let (agg_sps, _) = time_variant(&inp, iters, |inp| {
        let table = LayerCostTable::build(inp)?;
        Ok(run_pipeline_with(inp, &table, RecordMode::Aggregate)?
            .totals
            .steps)
    })?;

    let full_speedup = full_sps / seed_sps;
    let agg_speedup = agg_sps / seed_sps;
    print!(
        "{}",
        table(
            &["variant", "steps/s", "speedup"],
            &[
                ("seed (full records)".to_owned(), vec![seed_sps, 1.0]),
                ("table + Full".to_owned(), vec![full_sps, full_speedup]),
                ("table + Aggregate".to_owned(), vec![agg_sps, agg_speedup]),
            ],
        )
    );

    print!(
        "{}",
        section("serial coarse placement sweep (seed evaluator vs table + Aggregate)")
    );
    let (seed_ms, seed_evals, seed_best) =
        coarse_sweep(&system, &model, &policy, &workload, |inp| {
            Ok(run_pipeline_reference(inp)?.tbt_ms())
        })?;
    let (fast_ms, fast_evals, fast_best) =
        coarse_sweep(&system, &model, &policy, &workload, |inp| {
            let table = LayerCostTable::build(inp)?;
            Ok(run_pipeline_with(inp, &table, RecordMode::Aggregate)?.tbt_ms())
        })?;
    let winner_unchanged = seed_evals == fast_evals && seed_best == fast_best;
    let sweep_speedup = seed_ms / fast_ms;
    print!(
        "{}",
        table(
            &["sweep", "wall(ms)", "evals", "best TBT(ms)"],
            &[
                (
                    "seed evaluator".to_owned(),
                    vec![seed_ms, seed_evals as f64, f64::from_bits(seed_best)],
                ),
                (
                    "table + Aggregate".to_owned(),
                    vec![fast_ms, fast_evals as f64, f64::from_bits(fast_best)],
                ),
            ],
        )
    );
    println!("\nsweep speedup {sweep_speedup:.2}x, winner bit-identical: {winner_unchanged}");

    let json = format!(
        "{{\n  \"model\": \"{}\",\n  \"memory\": \"{}\",\n  \"quick\": {quick},\n  \
         \"iters\": {iters},\n  \"steps_per_run\": {steps_per_run},\n  \
         \"steps_per_sec\": {{\n    \"seed_full_records\": {seed_sps:.1},\n    \
         \"table_full\": {full_sps:.1},\n    \"table_aggregate\": {agg_sps:.1}\n  }},\n  \
         \"speedup_vs_seed\": {{\"table_full\": {full_speedup:.3}, \
         \"table_aggregate\": {agg_speedup:.3}}},\n  \
         \"coarse_sweep\": {{\n    \"seed_wall_ms\": {seed_ms:.3},\n    \
         \"fast_wall_ms\": {fast_ms:.3},\n    \"speedup\": {sweep_speedup:.3},\n    \
         \"evaluated\": {seed_evals},\n    \"winner_unchanged\": {winner_unchanged}\n  }}\n}}\n",
        model.name(),
        memory.kind(),
    );
    std::fs::create_dir_all("output")?;
    std::fs::write("output/BENCH_pipeline.json", &json)?;
    println!("wrote output/BENCH_pipeline.json");

    if !winner_unchanged {
        return Err("coarse-sweep winner diverged between evaluators".into());
    }
    Ok(())
}
