//! Hardware parameter blocks.
//!
//! Absolute values are engineering estimates assembled from public
//! V100 / NVLink / UVM measurements (Tartan \[29\], the UVM evaluations
//! \[25\]\[26\], NVSHMEM talks \[15\]). Every experiment reports *ratios*
//! against a baseline run on the same spec, so relative magnitudes are
//! what matter; the ablation benches sweep the sensitive ones.

use crate::topology::TopologyKind;

/// A V100-class GPU.
#[derive(Debug, Clone, Copy)]
pub struct GpuSpec {
    /// Streaming multiprocessors.
    pub sms: usize,
    /// Maximum resident warps per SM (occupancy ceiling).
    pub warps_per_sm: usize,
    /// Warp-instructions issued concurrently across the chip; models
    /// aggregate execution/memory throughput for solve & update work.
    pub exec_lanes: usize,
    /// Cost of one device-wide atomic visible at L2 (amortized), ns.
    pub atomic_ns: u64,
    /// Cost of solving one component once inputs are ready (divide +
    /// fma + bookkeeping), ns.
    pub solve_ns: u64,
    /// Per-nonzero streaming cost of reading column data from HBM
    /// (amortized per thread), ns.
    pub per_nnz_ns: u64,
    /// Local spin-poll iteration period, ns.
    pub poll_ns: u64,
    /// One `__shfl_down_sync` step of the warp reduction, ns.
    pub shuffle_ns: u64,
    /// Kernel launch overhead (host-side dispatch + device start), ns.
    pub launch_ns: u64,
    /// Device-side barrier / kernel tear-down between level-set
    /// kernels, ns (the csrsv2 per-level cost).
    pub level_sync_ns: u64,
    /// Device memory capacity in bytes, scaled to corpus size — chosen
    /// so the out-of-core analogs (twitter7, uk-2005) exceed a single
    /// GPU exactly as the real inputs exceed a 16 GB V100.
    pub mem_bytes: u64,
}

impl GpuSpec {
    /// Tesla V100 (SXM2) parameters *at corpus scale*: issue capacity
    /// and resident-warp slots are divided by the same ~×100 factor as
    /// the corpus row caps (`sparsemat::corpus`), so per-GPU saturation
    /// — the effect the task pool exists to exploit — occurs at the
    /// same relative matrix size as on the real machine. Latency-class
    /// parameters (atomics, polls, launches) are unscaled: latencies
    /// don't shrink when a problem does.
    pub fn v100() -> Self {
        GpuSpec {
            sms: 80,
            warps_per_sm: 8,
            exec_lanes: 16,
            atomic_ns: 25,
            solve_ns: 220,
            per_nnz_ns: 6,
            poll_ns: 180,
            shuffle_ns: 8,
            launch_ns: 6_000,
            level_sync_ns: 3_500,
            mem_bytes: 8 << 20,
        }
    }

    /// Unscaled V100 part counts (80 SMs × 64 warps, 160 issue lanes,
    /// 16 GB); use with full-size SuiteSparse inputs.
    pub fn v100_full() -> Self {
        GpuSpec { sms: 80, warps_per_sm: 64, exec_lanes: 160, mem_bytes: 16 << 30, ..Self::v100() }
    }

    /// Total resident-warp slots on the GPU.
    pub fn warp_slots(&self) -> usize {
        self.sms * self.warps_per_sm
    }
}

/// Unified Memory behaviour (§III).
#[derive(Debug, Clone)]
pub struct UmSpec {
    /// Migration granularity in bytes. UVM migrates in multiples of the
    /// 4 KiB OS base page (up to 2 MiB); the base granularity is what
    /// governs false sharing of the small intermediate arrays.
    pub page_bytes: u64,
    /// GPU fault-handling service time per fault (driver + replay), ns.
    /// Effective per-fault cost is lower than a cold fault's wall time
    /// because UVM replays faults in batches.
    pub fault_service_ns: u64,
    /// Parallel fault-service contexts per GPU (batch replay lanes).
    pub fault_handlers: usize,
    /// Consecutive remote *read* faults from distinct GPUs with no
    /// intervening write before the page is duplicated read-only
    /// (models the access-counter read-duplication heuristic).
    pub dup_threshold: u32,
    /// Time after a *migration* before busy-waiting watchers steal the
    /// page back, ns; `u64::MAX` disables steal-back (the default — on
    /// Volta the spin loop's reads execute remotely over NVLink and
    /// the driver's anti-thrash heuristics keep contended pages put;
    /// finite values model the pre-Volta migrate-on-touch behaviour
    /// and are exercised by the ablation benches).
    pub bounce_delay_ns: u64,
    /// Latency of a system-wide atomic executed *remotely* over NVLink
    /// without migrating the page (Volta supports native NVLink
    /// atomics), ns.
    pub remote_atomic_ns: u64,
    /// Remote accesses to a page before the access-counter heuristic
    /// migrates it toward the accessor. First touch from the host
    /// always faults.
    pub migrate_threshold: u32,
}

impl Default for UmSpec {
    fn default() -> Self {
        UmSpec {
            page_bytes: 4 << 10,
            fault_service_ns: 2_500,
            fault_handlers: 4,
            dup_threshold: 2,
            bounce_delay_ns: u64::MAX,
            remote_atomic_ns: 700,
            migrate_threshold: 24,
        }
    }
}

/// NVSHMEM-style symmetric-heap behaviour (§IV).
#[derive(Debug, Clone)]
pub struct ShmemSpec {
    /// One-sided `get` base latency over NVLink (GPU-initiated,
    /// fine-grained), ns.
    pub get_latency_ns: u64,
    /// One-sided `put` base latency, ns.
    pub put_latency_ns: u64,
    /// Additional latency when crossing an NVSwitch hop, ns.
    pub switch_hop_ns: u64,
    /// `nvshmem_fence` cost (ordering point), ns.
    pub fence_ns: u64,
    /// `nvshmem_quiet` cost (completion of all outstanding ops), ns.
    pub quiet_ns: u64,
    /// Gap between remote-poll rounds in the lock-wait loop beyond the
    /// get latency itself, ns.
    pub poll_gap_ns: u64,
    /// How many concurrently spinning warps one NVLink can carry before
    /// fine-grained remote latency doubles (≈ 25 GB/s divided by one
    /// 32 B packet per poll round per warp, derated for protocol
    /// overhead). Governs the low-GPU-count congestion dip of
    /// Fig. 10a: with 2 GPUs all poll traffic crosses a single link,
    /// while every added DGX-1 GPU brings more active links — exactly
    /// the paper's "active communication bandwidth per GPU" argument.
    pub poll_capacity_per_link: u64,
}

impl Default for ShmemSpec {
    fn default() -> Self {
        ShmemSpec {
            get_latency_ns: 1_400,
            put_latency_ns: 1_100,
            switch_hop_ns: 400,
            fence_ns: 600,
            quiet_ns: 2_500,
            poll_gap_ns: 200,
            poll_capacity_per_link: 260,
        }
    }
}

/// Full machine description.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of GPUs used by the job.
    pub gpus: usize,
    /// Interconnect topology.
    pub topology: TopologyKind,
    /// Per-GPU parameters.
    pub gpu: GpuSpec,
    /// Unified-memory parameters.
    pub um: UmSpec,
    /// Symmetric-heap parameters.
    pub shmem: ShmemSpec,
    /// Seed for the machine's internal jitter streams.
    pub seed: u64,
}

impl MachineConfig {
    /// A DGX-1 with `gpus` V100s (hybrid cube-mesh NVLink, 8 max).
    pub fn dgx1(gpus: usize) -> Self {
        assert!((1..=8).contains(&gpus), "DGX-1 has 8 GPUs");
        MachineConfig {
            gpus,
            topology: TopologyKind::Dgx1,
            gpu: GpuSpec::v100(),
            um: UmSpec::default(),
            shmem: ShmemSpec::default(),
            seed: 0x5EED,
        }
    }

    /// A DGX-2 with `gpus` V100s (NVSwitch all-to-all, 16 max).
    pub fn dgx2(gpus: usize) -> Self {
        assert!((1..=16).contains(&gpus), "DGX-2 has 16 GPUs");
        MachineConfig {
            gpus,
            topology: TopologyKind::Dgx2,
            gpu: GpuSpec::v100(),
            um: UmSpec::default(),
            shmem: ShmemSpec::default(),
            seed: 0x5EED,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_full_has_5120_warp_slots() {
        assert_eq!(GpuSpec::v100_full().warp_slots(), 5120);
        // corpus-scaled spec shrinks capacity by the same factor as the
        // row caps but keeps latencies
        let scaled = GpuSpec::v100();
        assert_eq!(scaled.warp_slots(), 640);
        assert_eq!(scaled.launch_ns, GpuSpec::v100_full().launch_ns);
    }

    #[test]
    fn dgx_constructors_validate_gpu_counts() {
        assert_eq!(MachineConfig::dgx1(4).gpus, 4);
        assert_eq!(MachineConfig::dgx2(16).gpus, 16);
    }

    #[test]
    #[should_panic(expected = "DGX-1 has 8")]
    fn dgx1_rejects_nine_gpus() {
        let _ = MachineConfig::dgx1(9);
    }

    #[test]
    #[should_panic(expected = "DGX-2 has 16")]
    fn dgx2_rejects_seventeen_gpus() {
        let _ = MachineConfig::dgx2(17);
    }
}
