//! Extensions beyond the paper: energy, other models, online serving
//! and other platforms.

use crate::{paper_server, section, table};
use gpusim::GpuSpec;
use helm_core::energy::{assess, DRAM_STATIC_W_PER_GB, OPTANE_STATIC_W_PER_GB};
use helm_core::exec::{run_pipeline, PipelineInputs};
use helm_core::online::{run_cluster, run_online, ClusterSpec, PoissonArrivals, SchedulerKind};
use helm_core::placement::{ModelPlacement, PlacementKind};
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use helm_core::HelmError;
use hetmem::dram::{DDR4_2933_SOCKET_READ, PER_STREAM};
use hetmem::numa::{NodeId, NumaTopology};
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use simcore::units::ByteSize;
use simcore::SimDuration;
use std::error::Error;
use std::fmt::Write as _;
use workload::WorkloadSpec;
use xfer::path::PathModel;
use xfer::pcie::{PcieGen, PcieLink};

/// Extension: the abstract's energy-efficiency claim, quantified.
///
/// "...demonstrating how careful data placement can effectively enable
/// the substitution of DRAM with high-capacity but slower memory,
/// improving overall system energy efficiency." We compare J/token for
/// a hypothetical 1 TB all-DRAM host (what OPT-175B would *need*
/// without heterogeneous memory) against the Optane configurations
/// with and without the paper's placement fixes.
pub(super) fn energy_efficiency(out: &mut String) -> Result<(), Box<dyn Error>> {
    let workload = WorkloadSpec::paper_default();
    // A hypothetical 1 TB all-DRAM host: capacity enough for OPT-175B
    // uncompressed, at DRAM speed and DRAM static power.
    let dram_1tb = || {
        HostMemoryConfig::custom_dram(ByteSize::from_tib(1.0), DDR4_2933_SOCKET_READ, PER_STREAM)
    };

    out.push_str(&section(
        "energy per token, OPT-175B (compressed), batch 1 and 44",
    ));
    let mut rows = Vec::new();
    for (label, memory, placement, batch) in [
        (
            "1TB DRAM, baseline, b=1",
            dram_1tb(),
            PlacementKind::Baseline,
            1u32,
        ),
        (
            "NVDRAM, baseline, b=1",
            HostMemoryConfig::nvdram(),
            PlacementKind::Baseline,
            1,
        ),
        (
            "NVDRAM, HeLM, b=1",
            HostMemoryConfig::nvdram(),
            PlacementKind::Helm,
            1,
        ),
        (
            "1TB DRAM, All-CPU, b=44",
            dram_1tb(),
            PlacementKind::AllCpu,
            44,
        ),
        (
            "NVDRAM, All-CPU, b=44",
            HostMemoryConfig::nvdram(),
            PlacementKind::AllCpu,
            44,
        ),
        (
            "MemoryMode, All-CPU, b=44",
            HostMemoryConfig::memory_mode(),
            PlacementKind::AllCpu,
            44,
        ),
    ] {
        let server = paper_server(ModelConfig::opt_175b(), memory, |p| {
            p.with_placement(placement)
                .with_compression(true)
                .with_batch_size(batch)
        })?;
        let report = server.run(&workload)?;
        let energy = assess(&report, server.system());
        rows.push((
            label.to_owned(),
            vec![
                energy.j_per_token(),
                energy.host_static_j / report.tokens_generated as f64,
                energy.host_dynamic_j / report.tokens_generated as f64,
                report.throughput_tps(),
            ],
        ));
    }
    out.push_str(&table(
        &["config", "J/token", "host-static", "host-dyn", "tok/s"],
        &rows,
    ));

    out.push_str(&section("background power of the host memory itself"));
    out.push_str(&table(
        &["technology", "W/GB", "W for 1 TB"],
        &[
            (
                "DDR4 DRAM".to_owned(),
                vec![
                    DRAM_STATIC_W_PER_GB.as_w_per_gb(),
                    DRAM_STATIC_W_PER_GB.static_watts(ByteSize::from_gb(1000.0)),
                ],
            ),
            (
                "Optane DCPMM".to_owned(),
                vec![
                    OPTANE_STATIC_W_PER_GB.as_w_per_gb(),
                    OPTANE_STATIC_W_PER_GB.static_watts(ByteSize::from_gb(1000.0)),
                ],
            ),
        ],
    ));
    writeln!(
        out,
        "\nReading: at matched capacity, Optane's background power is less than\n\
         half of DRAM's. HeLM/All-CPU close most of the performance gap, so\n\
         the substitution nets lower J/token at batch 44 -- the abstract's\n\
         energy-efficiency argument, quantified."
    )?;
    Ok(())
}

/// Extension: generalizing beyond OPT (the paper's §VII: "The
/// presented techniques may be generalized to other models ... by
/// adapting to their compute schedule and data movement costs").
///
/// LLaMA-family models change two placement-relevant properties:
/// grouped-query attention shrinks the KV cache (lifting the All-CPU
/// batch ceiling), and the gated SwiGLU FFN is a three-matrix tensor
/// list for the allocators to walk.
pub(super) fn generalization_models(out: &mut String) -> Result<(), Box<dyn Error>> {
    let workload = WorkloadSpec::paper_default();
    let nvdram = |model: &ModelConfig, placement, batch| {
        paper_server(model.clone(), HostMemoryConfig::nvdram(), |p| {
            p.with_placement(placement)
                .with_compression(true)
                .with_batch_size(batch)
        })
    };

    out.push_str(&section("All-CPU batch ceilings: GQA lifts the KV wall"));
    let mut rows = Vec::new();
    for model in [
        ModelConfig::opt_66b(),
        ModelConfig::llama_2_70b(),
        ModelConfig::llama_2_7b(),
        ModelConfig::llama_3_8b(),
    ] {
        let max = nvdram(&model, PlacementKind::AllCpu, 1)?.max_batch(&workload);
        let kv = llm::kv::kv_bytes_per_sequence(&model, workload.context_len());
        rows.push((
            format!("{} ({} kv-heads)", model.name(), model.num_kv_heads()),
            vec![model.weight_bytes_f16().as_gb(), kv.as_mb(), f64::from(max)],
        ));
    }
    out.push_str(&table(
        &["model", "weights(GB)", "KV/seq(MB)", "max batch"],
        &rows,
    ));

    out.push_str(&section(
        "HeLM still balances the pipeline on gated-FFN models",
    ));
    let mut rows = Vec::new();
    for model in [ModelConfig::opt_66b(), ModelConfig::llama_2_70b()] {
        let base = nvdram(&model, PlacementKind::Baseline, 1)?.run(&workload)?;
        let helm = nvdram(&model, PlacementKind::Helm, 1)?.run(&workload)?;
        let (base, helm) = (base.tbt_ms(), helm.tbt_ms());
        rows.push((
            model.name().to_owned(),
            vec![base, helm, (1.0 - helm / base) * 100.0],
        ));
    }
    out.push_str(&table(&["model", "base TBT", "HeLM TBT", "gain %"], &rows));
    writeln!(
        out,
        "\nReading: OPT-66B (MHA) tops out at far smaller batches than\n\
         LLaMA-2-70B (GQA) despite similar weight footprints -- the KV\n\
         cache, not the weights, walls the batch; and HeLM's balance carries\n\
         over to the three-matrix gated FFN unchanged."
    )?;
    Ok(())
}

/// The three single-pipeline servers of the online studies: OPT-175B,
/// compressed, on NVDRAM.
fn online_servers() -> Result<[(&'static str, Server); 3], HelmError> {
    let server = |placement, batch| {
        paper_server(ModelConfig::opt_175b(), HostMemoryConfig::nvdram(), |p| {
            p.with_placement(placement)
                .with_compression(true)
                .with_batch_size(batch)
        })
    };
    Ok([
        ("Baseline b=8", server(PlacementKind::Baseline, 8)?),
        ("HeLM b=8", server(PlacementKind::Helm, 8)?),
        ("All-CPU b=44", server(PlacementKind::AllCpu, 44)?),
    ])
}

/// Extension: online serving under Poisson load — the QoS view of the
/// latency/throughput dial the paper's §VII asks for.
///
/// For each placement policy, sweep the arrival rate and report p95
/// end-to-end latency and sustained throughput. HeLM owns the
/// low-load/latency-sensitive regime; All-CPU's batch-44 pipeline
/// sustains arrival rates that drive the batch-8 baseline into
/// unbounded queueing.
pub(super) fn online_serving(out: &mut String) -> Result<(), Box<dyn Error>> {
    let ws = WorkloadSpec::paper_default();
    let n = 120;

    for (label, s) in online_servers()? {
        out.push_str(&section(&format!(
            "{label} under Poisson load (OPT-175B, NVDRAM, compressed)"
        )));
        let mut rows = Vec::new();
        for lambda in [0.01f64, 0.03, 0.06, 0.10, 0.15, 0.25] {
            let mut arrivals = PoissonArrivals::new(lambda, 42);
            let r = run_online(&s, &ws, &mut arrivals, n)?;
            rows.push((
                format!("{lambda:.2} req/s"),
                vec![
                    SimDuration::from_millis(r.mean_queue_delay_ms()).as_secs(),
                    SimDuration::from_millis(r.e2e_percentile_ms(50.0)).as_secs(),
                    SimDuration::from_millis(r.e2e_percentile_ms(95.0)).as_secs(),
                    r.tokens_per_s,
                    r.utilization,
                ],
            ));
        }
        out.push_str(&table(
            &[
                "arrival rate",
                "queue(s)",
                "p50 e2e(s)",
                "p95 e2e(s)",
                "tok/s",
                "util",
            ],
            &rows,
        ));
    }
    writeln!(
        out,
        "\nReading: at 0.01-0.03 req/s the HeLM server's faster pipeline gives\n\
         the best end-to-end latency; past ~0.06 req/s the batch-8 servers\n\
         saturate (utilization -> 1, queues grow without bound over the\n\
         window) while All-CPU b=44 keeps absorbing load -- the same\n\
         latency/throughput dial as the paper's two placement schemes,\n\
         expressed as serving QoS."
    )?;
    Ok(())
}

/// Extension: scaling online serving across pipeline replicas — the
/// cluster view of the paper's latency/throughput dial.
///
/// For each placement policy, sweep the Poisson arrival rate against
/// 1, 2, and 4 pipeline replicas (join-shortest-queue dispatch) and
/// report p95 end-to-end latency and sustained token throughput. A λ
/// that saturates one pipeline (utilization → 1, queues unbounded
/// over the window) is absorbed by four; the replica count shifts the
/// knee of every policy's latency curve without changing its
/// single-pipeline service times.
pub(super) fn online_scaling(out: &mut String) -> Result<(), Box<dyn Error>> {
    let ws = WorkloadSpec::paper_default();
    let n = 120;
    let seed = 42;
    let servers = online_servers()?;

    for (label, s) in &servers {
        out.push_str(&section(&format!(
            "{label}: pipeline scaling under Poisson load (OPT-175B, NVDRAM, compressed)"
        )));
        let mut rows = Vec::new();
        for lambda in [0.03f64, 0.10, 0.25] {
            let mut values = Vec::new();
            for pipelines in [1usize, 2, 4] {
                let spec =
                    ClusterSpec::new(pipelines).with_scheduler(SchedulerKind::JoinShortestQueue);
                let mut arrivals = PoissonArrivals::new(lambda, seed);
                let r = run_cluster(s, &ws, &mut arrivals, n, spec)?;
                values.push(r.e2e_percentile_ms(95.0) / 1000.0);
                values.push(r.tokens_per_s);
            }
            rows.push((format!("{lambda:.2} req/s"), values));
        }
        out.push_str(&table(
            &[
                "arrival rate",
                "N=1 p95(s)",
                "N=1 tok/s",
                "N=2 p95(s)",
                "N=2 tok/s",
                "N=4 p95(s)",
                "N=4 tok/s",
            ],
            &rows,
        ));
    }

    out.push_str(&section(
        "All-CPU b=44: run-to-completion vs continuous batching (N=1)",
    ));
    let [.., (_, s)] = &servers;
    let mut rows = Vec::new();
    for lambda in [0.03f64, 0.10, 0.25] {
        let mut values = Vec::new();
        for continuous in [false, true] {
            let spec = ClusterSpec::new(1).with_continuous(continuous);
            let mut arrivals = PoissonArrivals::new(lambda, seed);
            let r = run_cluster(s, &ws, &mut arrivals, n, spec)?;
            values.push(r.mean_queue_delay_ms() / 1000.0);
            values.push(r.e2e_percentile_ms(95.0) / 1000.0);
        }
        rows.push((format!("{lambda:.2} req/s"), values));
    }
    out.push_str(&table(
        &[
            "arrival rate",
            "rtc queue(s)",
            "rtc p95(s)",
            "cont queue(s)",
            "cont p95(s)",
        ],
        &rows,
    ));

    writeln!(
        out,
        "\nReading: replicas move the saturation knee -- the rate that drives\n\
         one pipeline's queues unbounded is served with bounded p95 by four,\n\
         and token throughput scales near-linearly until the cluster in turn\n\
         saturates. Continuous batching attacks a different term: at moderate\n\
         load it admits arrivals at decode-step boundaries instead of making\n\
         them wait out the in-flight batch, collapsing queueing delay without\n\
         any extra hardware."
    )?;
    Ok(())
}

/// Extension: how the paper's conclusions move with the platform.
///
/// Two axes the paper fixes (A100-40GB, PCIe Gen 4) but the conclusion
/// section implicitly asks about:
///
/// * **GPU memory**: more HBM means more resident weights and bigger
///   batches — does placement still matter at 80 GB?
/// * **PCIe generation**: a faster accelerator link moves the
///   bottleneck from the link to the host memory itself, changing how
///   much an Optane-class tier costs.
pub(super) fn platform_sensitivity(out: &mut String) -> Result<(), Box<dyn Error>> {
    let model = ModelConfig::opt_175b();
    let workload = WorkloadSpec::paper_default();
    let system = |gpu: GpuSpec, gen: PcieGen| {
        SystemConfig::new(
            HostMemoryConfig::nvdram(),
            gpu,
            NumaTopology::paper_system(),
            PathModel::new(PcieLink::new(gen, 16), NodeId(0)),
            NodeId(0),
        )
    };

    out.push_str(&section("GPU memory axis (NVDRAM, compressed, PCIe Gen 4)"));
    let mut rows = Vec::new();
    for gpu in [
        GpuSpec::a100_40gb(),
        GpuSpec::a100_80gb(),
        GpuSpec::h100_80gb(),
    ] {
        let sys = system(gpu.clone(), PcieGen::Gen4);
        let policy = Policy::paper_default(&model, sys.memory().kind())
            .with_compression(true)
            .with_placement(PlacementKind::AllCpu);
        let server = Server::new(sys.clone(), model.clone(), policy.clone())?;
        let max = server.max_batch(&workload);
        let best = Server::new(sys, model.clone(), policy.with_batch_size(max))?.run(&workload)?;
        rows.push((
            gpu.name().to_owned(),
            vec![f64::from(max), best.throughput_tps()],
        ));
    }
    out.push_str(&table(&["GPU", "All-CPU max batch", "tok/s at max"], &rows));

    out.push_str(&section(
        "PCIe generation axis (NVDRAM, compressed, batch 1)",
    ));
    let mut rows = Vec::new();
    for gen in [PcieGen::Gen3, PcieGen::Gen4, PcieGen::Gen5] {
        let sys = system(GpuSpec::a100_40gb(), gen);
        let mut tbt = Vec::new();
        for kind in [PlacementKind::Baseline, PlacementKind::Helm] {
            let policy = Policy::paper_default(&model, sys.memory().kind())
                .with_compression(true)
                .with_placement(kind)
                .with_batch_size(1);
            let placement = ModelPlacement::compute(&model, &policy);
            let report = run_pipeline(&PipelineInputs {
                system: &sys,
                model: &model,
                policy: &policy,
                placement: &placement,
                workload: &workload,
            })?;
            tbt.push(report.tbt_ms());
        }
        let [base, helm] = tbt[..] else {
            return Err("one TBT per placement".into());
        };
        rows.push((
            format!("{gen:?} x16"),
            vec![base, helm, (1.0 - helm / base) * 100.0],
        ));
    }
    out.push_str(&table(
        &["link", "base TBT(ms)", "HeLM TBT(ms)", "HeLM gain %"],
        &rows,
    ));
    writeln!(
        out,
        "\nReading: doubling HBM roughly doubles the All-CPU batch ceiling\n\
         (KV scales with batch); the H100's extra compute barely moves\n\
         transfer-bound decode. Across PCIe generations, the Optane media\n\
         itself bounds the feed (~16-20 GB/s), so Gen 5 adds little --\n\
         HeLM's balancing gain persists on every link, because the\n\
         imbalance it fixes is relative, not absolute."
    )?;
    Ok(())
}
