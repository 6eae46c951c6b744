//! Data distribution and the malleable task pool (§V).
//!
//! A plan maps every solution component to `(gpu, kernel, launch
//! position)`:
//!
//! * [`Partition::Blocked`] — the baseline layout: contiguous blocks of
//!   components, block `g` on GPU `g`, one kernel per GPU. §V shows why
//!   this is pathological: dependencies in a triangular system are
//!   unidirectional, so larger-ID GPUs mostly wait.
//! * [`Partition::Tasks`] — the paper's task pool: components are cut
//!   into equal component-tasks which are dealt to GPUs round-robin;
//!   each task launches as its own kernel. Smaller-ID components spread
//!   across all GPUs, so every GPU starts working immediately.
//!
//! Launch order respects substitution order (ascending for `Lx = b`,
//! descending for `Ux = b`), which — together with FIFO warp-slot
//! admission — guarantees the synchronization-free executor cannot
//! deadlock on occupancy (a dependency's warp is always admitted no
//! later than its dependents').

use mgpu_sim::GpuId;
use sparsemat::{CscMatrix, Triangle};
use std::cell::Cell;

thread_local! {
    /// Per-thread count of [`ExecutionPlan::build`] invocations. The
    /// build-once/solve-many engine tests read this to prove warm
    /// solves construct **zero** plans; thread-local so parallel tests
    /// cannot perturb each other's measurements.
    static BUILD_INVOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// How many times [`ExecutionPlan::build`] has run on this thread.
pub fn build_invocations() -> u64 {
    BUILD_INVOCATIONS.with(Cell::get)
}

/// How components are distributed over GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Contiguous blocks, one per GPU, one kernel each (baseline §II).
    Blocked,
    /// `per_gpu` tasks per GPU, dealt round-robin (§V).
    Tasks {
        /// Tasks assigned to each GPU.
        per_gpu: u32,
    },
    /// A fixed *total* task count dealt round-robin (the Fig. 10
    /// scalability study fixes 32 total tasks).
    TotalTasks {
        /// Total task count across all GPUs.
        total: u32,
    },
}

/// One kernel launch: a contiguous range of launch positions.
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// GPU the kernel runs on.
    pub gpu: GpuId,
    /// Components in launch order (substitution order within the task).
    pub comps: Vec<u32>,
}

/// A complete component→GPU/kernel mapping.
///
/// The ownership map drives the simulated executor only: the host-side
/// warm path lays every level out in ascending component order,
/// whatever GPU owns each component.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Owning GPU per component.
    pub owner: Vec<GpuId>,
    /// Kernel index (into `kernels`) per component.
    pub kernel_of: Vec<u32>,
    /// All kernels; launch order per GPU is their order of appearance.
    pub kernels: Vec<KernelDesc>,
    /// Number of GPUs in the plan.
    pub gpus: usize,
    /// The partition that produced this plan.
    pub partition: Partition,
}

impl ExecutionPlan {
    /// Build a plan for `n` components on `gpus` devices.
    ///
    /// Components are first arranged in substitution order (ascending
    /// for lower, descending for upper), then cut into tasks of equal
    /// size and dealt to GPUs.
    pub fn build(n: usize, gpus: usize, partition: Partition, tri: Triangle) -> ExecutionPlan {
        BUILD_INVOCATIONS.with(|c| c.set(c.get() + 1));
        assert!(gpus >= 1, "need at least one GPU");
        // task counts are user-visible knobs (`SolverKind::ZeroCopy`
        // et al. flow straight into here), so degenerate zeros clamp
        // to the minimum viable layout instead of panicking; `gpus`
        // by contrast comes from the validated machine, an internal
        // invariant
        let total_tasks = match partition {
            Partition::Blocked => gpus as u32,
            Partition::Tasks { per_gpu } => per_gpu.max(1) * gpus as u32,
            Partition::TotalTasks { total } => total.max(gpus as u32).max(1),
        };
        let total_tasks = (total_tasks as usize).min(n.max(1));
        let task_size = n.div_ceil(total_tasks);

        let mut owner = vec![0 as GpuId; n];
        let mut kernel_of = vec![0u32; n];
        let mut kernels: Vec<KernelDesc> = Vec::with_capacity(total_tasks);

        // Substitution order: position p corresponds to component
        // ord(p).
        let ord = |p: usize| -> u32 {
            match tri {
                Triangle::Lower => p as u32,
                Triangle::Upper => (n - 1 - p) as u32,
            }
        };

        for t in 0..total_tasks {
            let gpu = t % gpus;
            let lo = t * task_size;
            let hi = ((t + 1) * task_size).min(n);
            if lo >= hi {
                break;
            }
            let comps: Vec<u32> = (lo..hi).map(ord).collect();
            let k = kernels.len() as u32;
            for &c in &comps {
                owner[c as usize] = gpu;
                kernel_of[c as usize] = k;
            }
            kernels.push(KernelDesc { gpu, comps });
        }

        // Per-GPU launch order must follow ascending task id; kernels
        // are already in that order globally, and per GPU the subsequence
        // is ascending too.
        ExecutionPlan { owner, kernel_of, kernels, gpus, partition }
    }

    /// Number of components per GPU.
    pub fn comps_per_gpu(&self) -> Vec<usize> {
        let mut c = vec![0usize; self.gpus];
        for &g in &self.owner {
            c[g] += 1;
        }
        c
    }

    /// Count of matrix entries whose producer and consumer live on
    /// different GPUs — the communication volume a layout induces.
    pub fn cross_gpu_edges(&self, m: &CscMatrix, tri: Triangle) -> u64 {
        let mut cross = 0;
        for j in 0..m.n() {
            let gj = self.owner[j];
            for (r, _) in m.col(j) {
                let r = r as usize;
                let is_dep = match tri {
                    Triangle::Lower => r > j,
                    Triangle::Upper => r < j,
                };
                if is_dep && self.owner[r] != gj {
                    cross += 1;
                }
            }
        }
        cross
    }

    /// Device bytes a GPU must hold for its share: owned columns,
    /// plus x, b and the intermediate arrays. The symmetric-heap
    /// design replicates the size-`n` system arrays on every PE
    /// (Algorithm 3 lines 9–12).
    pub fn device_bytes(&self, m: &CscMatrix, gpu: GpuId, replicated_arrays: bool) -> u64 {
        let mut nnz_owned = 0u64;
        let mut cols_owned = 0u64;
        for j in 0..m.n() {
            if self.owner[j] == gpu {
                nnz_owned += m.col_nnz(j) as u64;
                cols_owned += 1;
            }
        }
        let n = m.n() as u64;
        let matrix_bytes = nnz_owned * (4 + 8) + (cols_owned + 1) * 8;
        let vec_bytes = cols_owned * 8 * 2; // x and b shares
        let arrays = if replicated_arrays {
            n * (4 + 8) // s.in_degree + s.left_sum, full size on every PE
        } else {
            cols_owned * (4 + 8) + n * (4 + 8) / self.gpus as u64
        };
        matrix_bytes + vec_bytes + arrays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen;

    #[test]
    fn blocked_partition_is_contiguous() {
        let p = ExecutionPlan::build(100, 4, Partition::Blocked, Triangle::Lower);
        assert_eq!(p.kernels.len(), 4);
        assert_eq!(p.owner[0], 0);
        assert_eq!(p.owner[24], 0);
        assert_eq!(p.owner[25], 1);
        assert_eq!(p.owner[99], 3);
        assert_eq!(p.comps_per_gpu(), vec![25, 25, 25, 25]);
    }

    #[test]
    fn tasks_deal_round_robin() {
        let p = ExecutionPlan::build(80, 4, Partition::Tasks { per_gpu: 2 }, Triangle::Lower);
        assert_eq!(p.kernels.len(), 8);
        // task size 10: comps 0..10 -> gpu0, 10..20 -> gpu1, ... 40..50 -> gpu0
        assert_eq!(p.owner[0], 0);
        assert_eq!(p.owner[10], 1);
        assert_eq!(p.owner[39], 3);
        assert_eq!(p.owner[40], 0);
        assert_eq!(p.comps_per_gpu(), vec![20, 20, 20, 20]);
    }

    #[test]
    fn total_tasks_override() {
        let p = ExecutionPlan::build(96, 4, Partition::TotalTasks { total: 32 }, Triangle::Lower);
        assert_eq!(p.kernels.len(), 32);
        assert_eq!(p.kernels[0].comps.len(), 3);
    }

    #[test]
    fn upper_triangle_launches_descending() {
        let p = ExecutionPlan::build(10, 2, Partition::Blocked, Triangle::Upper);
        // first kernel (gpu 0) carries the highest indices, descending
        assert_eq!(p.kernels[0].comps, vec![9, 8, 7, 6, 5]);
        assert_eq!(p.owner[9], 0);
        assert_eq!(p.owner[0], 1);
    }

    #[test]
    fn uneven_sizes_cover_all_components() {
        let p = ExecutionPlan::build(103, 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
        let total: usize = p.kernels.iter().map(|k| k.comps.len()).sum();
        assert_eq!(total, 103);
        let mut seen = [false; 103];
        for k in &p.kernels {
            for &c in &k.comps {
                assert!(!seen[c as usize], "component {c} appears twice");
                seen[c as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zero_task_counts_clamp_instead_of_panicking() {
        // `per_gpu` / `total` arrive from public SolveOptions — a
        // degenerate zero must degrade, not panic
        let p = ExecutionPlan::build(40, 4, Partition::Tasks { per_gpu: 0 }, Triangle::Lower);
        assert_eq!(p.kernels.len(), 4);
        let total: usize = p.kernels.iter().map(|k| k.comps.len()).sum();
        assert_eq!(total, 40);
        let p = ExecutionPlan::build(40, 4, Partition::TotalTasks { total: 0 }, Triangle::Lower);
        let total: usize = p.kernels.iter().map(|k| k.comps.len()).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn more_gpus_than_components_degrades_gracefully() {
        let p = ExecutionPlan::build(2, 4, Partition::Blocked, Triangle::Lower);
        let total: usize = p.kernels.iter().map(|k| k.comps.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn task_layout_reduces_tail_waiting_ownership_skew() {
        // With blocked layout all early components (level 0 heavy) sit on
        // GPU 0; with tasks they spread. Measure ownership of the first
        // quarter of components.
        let n = 1000;
        let blocked = ExecutionPlan::build(n, 4, Partition::Blocked, Triangle::Lower);
        let tasks = ExecutionPlan::build(n, 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
        let spread = |p: &ExecutionPlan| {
            let mut gpus_seen = std::collections::HashSet::new();
            for c in 0..n / 4 {
                gpus_seen.insert(p.owner[c]);
            }
            gpus_seen.len()
        };
        assert_eq!(spread(&blocked), 1, "blocked: early components on one GPU");
        assert_eq!(spread(&tasks), 4, "tasks: early components on all GPUs");
    }

    #[test]
    fn cross_edges_counted() {
        let m = gen::chain(10); // each comp depends on the previous
        let p2 = ExecutionPlan::build(10, 2, Partition::Blocked, Triangle::Lower);
        // only the 4->5 edge crosses
        assert_eq!(p2.cross_gpu_edges(&m, Triangle::Lower), 1);
        let p_rr = ExecutionPlan::build(10, 2, Partition::Tasks { per_gpu: 5 }, Triangle::Lower);
        // task size 1: every edge crosses
        assert_eq!(p_rr.cross_gpu_edges(&m, Triangle::Lower), 9);
    }

    #[test]
    fn device_bytes_accounts_replication() {
        let m = gen::banded_lower(1000, 8, 4.0, 3);
        let p = ExecutionPlan::build(1000, 4, Partition::Blocked, Triangle::Lower);
        let rep = p.device_bytes(&m, 0, true);
        let unrep = p.device_bytes(&m, 0, false);
        assert!(rep > unrep, "symmetric heap replicates the system arrays");
    }
}
