//! # xfer — host/GPU data-movement models
//!
//! Everything between a host memory device and GPU HBM:
//!
//! * [`pcie`] — the PCIe link model (generation/lane bandwidth table,
//!   direction-specific DMA efficiency, message-size ramp).
//! * [`path`] — composition of a full data path: source device →
//!   (optional DRAM bounce buffer) → PCIe → GPU, including the NUMA
//!   and mesh-contention effects behind the paper's Fig 3 asymmetries.
//! * [`link`] — a water-filling shared-link model for concurrent
//!   transfers with per-flow rate caps, which prices a layer's split
//!   cpu/disk weight load.
//! * [`nvbandwidth`] — an `nvbandwidth`-style sweep harness that
//!   regenerates the paper's Fig 3 bandwidth curves.
//!
//! # Examples
//!
//! Host-to-GPU bandwidth from Optane is far below DRAM (paper Fig 3a):
//!
//! ```
//! use xfer::path::{Direction, HostEndpoint, PathModel, TransferRequest};
//! use hetmem::{dram::DramDevice, optane::OptaneDevice, NodeId};
//! use simcore::units::ByteSize;
//!
//! let path = PathModel::paper_system();
//! let dram = DramDevice::ddr4_2933_socket();
//! let optane = OptaneDevice::dcpmm_200_socket();
//! let req = TransferRequest::host_to_gpu(ByteSize::from_gb(4.0));
//! let bw_dram = path.effective_bandwidth(&HostEndpoint::direct(&dram, NodeId(0)), &req);
//! let bw_opt = path.effective_bandwidth(&HostEndpoint::direct(&optane, NodeId(0)), &req);
//! assert!(bw_opt.as_gb_per_s() < bw_dram.as_gb_per_s() * 0.85);
//! # let _ = Direction::HostToGpu;
//! ```

pub mod link;
pub mod nvbandwidth;
pub mod path;
pub mod pcie;

pub use link::CappedLink;
pub use path::{Direction, HostEndpoint, PathModel, TransferRequest};
pub use pcie::{PcieGen, PcieLink};
