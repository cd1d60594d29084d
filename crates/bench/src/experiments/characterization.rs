//! The platform and its devices: Tables I–III and Fig 3.

use crate::{comparisons, section, Comparison};
use gpusim::GpuSpec;
use helm_core::placement::{ModelPlacement, Tier};
use helm_core::policy::Policy;
use hetmem::cxl::CxlDevice;
use hetmem::mlc;
use hetmem::numa::NumaTopology;
use hetmem::{AccessProfile, HostMemoryConfig, MemoryDevice};
use llm::weights::DType;
use llm::ModelConfig;
use simcore::units::ByteSize;
use std::error::Error;
use std::fmt::Write as _;
use xfer::nvbandwidth::{sweep, to_table, SweepMemory};
use xfer::path::{Direction, PathModel};
use xfer::pcie::PcieLink;

/// Table I: the simulated system configuration, plus the MLC-style
/// NUMA characterization the paper uses to confirm it (§IV-A).
pub(super) fn table1_system(out: &mut String) -> Result<(), Box<dyn Error>> {
    let topo = NumaTopology::paper_system();
    let gpu = GpuSpec::a100_40gb();
    let pcie = PcieLink::gen4_x16();

    out.push_str(&section("Table I: system configuration"));
    writeln!(
        out,
        "CPU      : dual-socket Intel Xeon Gold 6330 (Ice Lake), modeled"
    )?;
    writeln!(out, "Sockets  : {}", topo.sockets().len())?;
    for s in topo.sockets() {
        writeln!(
            out,
            "  {}: DRAM {} (DDR4-2933, 4 controllers x2 DIMM), Optane {} (DCPMM 200 x4)",
            s.node(),
            s.dram().capacity(),
            s.optane()
                .map(MemoryDevice::capacity)
                .unwrap_or(ByteSize::ZERO),
        )?;
    }
    writeln!(
        out,
        "Total    : DRAM {}, Optane {}",
        topo.total_dram(),
        topo.total_optane()
    )?;
    writeln!(
        out,
        "GPU      : {} | HBM {} @ {} | {:?} x{} = {}",
        gpu.name(),
        gpu.hbm_capacity(),
        gpu.hbm_bandwidth(),
        pcie.gen(),
        pcie.lanes(),
        pcie.theoretical(),
    )?;

    out.push_str(&section("Intel MLC-style characterization (SS IV-A)"));
    out.push_str(&mlc::run(&topo, ByteSize::from_gb(1.0)).to_table());
    writeln!(
        out,
        "\nObservations reproduced: Optane latency ~4x DRAM; Optane writes\n\
         collapse remotely; remote DRAM latency ~1.7x local."
    )?;
    Ok(())
}

/// Table II: the model/memory configurations under evaluation, with
/// the capacity reasoning that motivates each pairing.
pub(super) fn table2_configs(out: &mut String) -> Result<(), Box<dyn Error>> {
    out.push_str(&section(
        "Table II: model/memory configurations (uncompressed, paper-default policies)",
    ));
    for (model, configs) in [
        (ModelConfig::opt_30b(), HostMemoryConfig::opt30b_set()),
        (ModelConfig::opt_175b(), HostMemoryConfig::opt175b_set()),
    ] {
        writeln!(
            out,
            "{} ({} decoder blocks, {} layers, {} FP16 / {} compressed)",
            model.name(),
            model.num_blocks(),
            model.num_layers(),
            model.weight_bytes_f16(),
            ByteSize::from_bytes(DType::Int4Grouped.bytes_for(model.total_params())),
        )?;
        writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>8}   fits?",
            "label", "disk", "cpu", "gpu"
        )?;
        for cfg in &configs {
            let policy = Policy::paper_default(&model, cfg.kind());
            let placement = ModelPlacement::compute(&model, &policy);
            let disk = placement.total_on(Tier::Disk);
            let cpu = placement.total_on(Tier::Cpu);
            let gpu = placement.total_on(Tier::Gpu);
            let cpu_cap = cfg.cpu_device().capacity();
            let fits = cpu <= cpu_cap
                && cfg
                    .disk_device()
                    .map(|d| disk <= d.capacity())
                    .unwrap_or(disk == ByteSize::ZERO);
            writeln!(
                out,
                "{:<12} {:>10} {:>10} {:>8}   {} (host cap {})",
                cfg.kind().to_string(),
                disk.to_string(),
                cpu.to_string(),
                gpu.to_string(),
                if fits { "yes" } else { "NO" },
                cpu_cap,
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "OPT-175B exceeds 256 GB of DRAM (hence no DRAM row), but fits 1 TB of\n\
         Optane -- the premise of the paper's heterogeneous-memory evaluation."
    )?;
    Ok(())
}

/// Table III: the CXL configurations borrowed from prior work, as
/// realized by the device models.
pub(super) fn table3_cxl(out: &mut String) -> Result<(), Box<dyn Error>> {
    out.push_str(&section("Table III: CXL configurations"));
    let probe = AccessProfile::sequential_read(ByteSize::from_gb(1.0));
    let fpga = CxlDevice::fpga_ddr4();
    let asic = CxlDevice::asic_ddr5();
    writeln!(out, "{:<12} {:<16} {:>16}", "name", "memory", "bandwidth")?;
    for dev in [&fpga, &asic] {
        writeln!(
            out,
            "{:<12} {:<16} {:>16}",
            if dev.name().contains("FPGA") {
                "CXL-FPGA"
            } else {
                "CXL-ASIC"
            },
            dev.media(),
            dev.bandwidth(&probe).to_string(),
        )?;
    }
    out.push_str(&comparisons(&[
        Comparison::new(
            "CXL-FPGA bandwidth (Sun et al., CXL-C)",
            5.12,
            fpga.bandwidth(&probe).as_gb_per_s(),
            "GB/s",
        ),
        Comparison::new(
            "CXL-ASIC bandwidth (Wang et al., System A)",
            28.0,
            asic.bandwidth(&probe).as_gb_per_s(),
            "GB/s",
        ),
    ]));
    writeln!(
        out,
        "\nAdded round-trip latency of the CXL hop: >= {} ns (SS II-D)",
        hetmem::cxl::CXL_ADDED_LATENCY.as_nanos()
    )?;
    Ok(())
}

/// Figure 3: host/GPU memory-copy bandwidth for buffer sizes from
/// 256 MB to 32 GB under DRAM, NVDRAM, and Memory Mode on both NUMA
/// nodes (the `nvbandwidth` characterization).
pub(super) fn fig3_bandwidth(out: &mut String) -> Result<(), Box<dyn Error>> {
    let points = sweep(&PathModel::paper_system());
    let find = |memory: SweepMemory, node: usize, direction: Direction, buffer_gb: f64| {
        points
            .iter()
            .find(|p| {
                p.memory == memory
                    && p.node == node
                    && p.direction == direction
                    && (p.buffer.as_gb() - buffer_gb).abs() < 1e-6
            })
            .map(|p| p.gbps)
            .ok_or_else(|| {
                format!("sweep point {memory:?}/{node}/{direction:?}/{buffer_gb} missing")
            })
    };

    out.push_str(&section("Fig 3a: host -> GPU bandwidth (GB/s)"));
    out.push_str(&to_table(&points, Direction::HostToGpu));

    out.push_str(&section("Fig 3b: GPU -> host bandwidth (GB/s)"));
    out.push_str(&to_table(&points, Direction::GpuToHost));

    out.push_str(&section("Fig 3: paper calibration points"));
    let h2d = Direction::HostToGpu;
    let d2h = Direction::GpuToHost;
    let nv4 = find(SweepMemory::NvDram, 0, h2d, 4.096)?;
    let nv32 = find(SweepMemory::NvDram, 0, h2d, 32.768)?;
    let dram4 = find(SweepMemory::Dram, 0, h2d, 4.096)?;
    let dram32 = find(SweepMemory::Dram, 0, h2d, 32.768)?;
    let nv_w = find(SweepMemory::NvDram, 1, d2h, 1.024)?;
    let dram_w = find(SweepMemory::Dram, 1, d2h, 1.024)?;
    let mm4 = find(SweepMemory::MemoryMode, 0, h2d, 4.096)?;
    out.push_str(&comparisons(&[
        Comparison::new("NVDRAM H2D at 4 GB", 19.91, nv4, "GB/s"),
        Comparison::new("NVDRAM H2D at 32 GB", 15.52, nv32, "GB/s"),
        Comparison::new(
            "NVDRAM H2D deficit vs DRAM at 4 GB",
            20.0,
            (1.0 - nv4 / dram4) * 100.0,
            "%",
        ),
        Comparison::new(
            "NVDRAM H2D deficit vs DRAM at 32 GB",
            37.0,
            (1.0 - nv32 / dram32) * 100.0,
            "%",
        ),
        Comparison::new("NVDRAM D2H peak (node 1, 1 GB)", 3.26, nv_w, "GB/s"),
        Comparison::new(
            "NVDRAM D2H deficit vs DRAM",
            88.0,
            (1.0 - nv_w / dram_w) * 100.0,
            "%",
        ),
        Comparison::new(
            "MM H2D tracks DRAM at 4 GB",
            0.0,
            (mm4 / dram4 - 1.0) * 100.0,
            "%",
        ),
    ]));
    Ok(())
}
