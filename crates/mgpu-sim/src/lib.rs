//! # mgpu-sim — a discrete-event model of a multi-GPU HPC node
//!
//! This crate is the hardware substitute for the paper's NVIDIA
//! V100-DGX-1 and DGX-2 testbeds. It models, at the
//! granularity that governs SpTRSV behaviour:
//!
//! * [`GpuSpec`] — a V100-class GPU: resident-warp slots, execution
//!   lanes, atomic/solve/poll costs, kernel-launch overhead, memory
//!   capacity.
//! * [`topology`] — the DGX-1 hybrid cube-mesh NVLink topology
//!   (including its double links and its non-P2P pairs, which is why
//!   the paper caps NVSHMEM at 4 GPUs on DGX-1), the DGX-2 NVSwitch
//!   all-to-all fabric, and PCIe host links.
//! * [`um`] — CUDA Unified Memory: page-granular residency, exclusive
//!   migration on write, read duplication for stable pages,
//!   bounce-back thrashing between writers and busy-waiting watchers,
//!   and a serialized per-GPU fault handler (§III of the paper).
//! * [`shmem`] — an NVSHMEM-style symmetric heap: one-sided get/put
//!   with per-byte link occupancy and latency, local atomics, and
//!   fence/quiet costs for the naive design the paper rejects (§IV-A).
//! * [`Machine`] — the assembled node: per-GPU resources, the routed
//!   interconnect, and the statistics every experiment reports.
//!
//! The machine is *passive*: it owns state, resources and cost
//! formulas, while control flow lives in the solver executor
//! (`sptrsv::exec`). All state updates are lazy, so no internal event
//! queue is needed and determinism follows from the caller's.

#![warn(missing_docs)]

pub mod machine;
pub mod shmem;
pub mod spec;
pub mod topology;
pub mod um;

pub use machine::{Machine, MachineStats};
pub use spec::{GpuSpec, MachineConfig, ShmemSpec, UmSpec};
pub use topology::{Topology, TopologyKind};

/// GPU identifier within a machine (0-based, also the NVSHMEM PE id).
pub type GpuId = usize;
