//! Microbenchmarks of the substrates: the DES engine, the sparse
//! matrix kernels and the reference solver. These guard the
//! implementation's own performance (the guides' "mediocre benchmarking
//! beats none" rule) independent of the paper-shape experiments.

use desim::{EventQueue, Pcg32, Resource, SimTime};
use mgpu_sim::{Machine, MachineConfig};
use sparsemat::gen::{self, LevelSpec};
use sparsemat::levels::LevelSets;
use sparsemat::{CsrMatrix, Triangle};
use sptrsv::exec::{run_prepared, ExecAnalysis, ExecConfig};
use sptrsv::{reference, Backend, ExecutionPlan, Partition};
use sptrsv_bench::timer::Group;
use std::hint::black_box;

fn bench_event_queue() {
    let mut g = Group::new("desim_event_queue");
    for n in [1_000usize, 100_000] {
        g.bench(&format!("push_pop/{n}"), 10, || {
            let mut rng = Pcg32::seed_from_u64(7);
            let mut q = EventQueue::with_capacity(n);
            for i in 0..n {
                q.schedule_at(SimTime::from_ns(rng.next_u64() % 1_000_000), i as u32);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, e)) = q.pop() {
                debug_assert!(t >= last);
                last = t;
                black_box(e);
            }
            last
        });
    }
    // The executor's dominant pattern: bursts of events scheduled at the
    // *current* timestamp (same-time kernel fan-out, dependency floods).
    // This exercises the FIFO bucket fast path against the binary heap.
    for burst in [32usize, 1_024] {
        g.bench(&format!("same_time_bursts/{burst}"), 10, || {
            let mut q = EventQueue::with_capacity(burst * 64);
            let mut total = 0u64;
            q.schedule_at(SimTime::from_ns(1), 0u32);
            for round in 1..=64u64 {
                // drain the current instant, scheduling a burst at `now`
                if let Some((now, e)) = q.pop() {
                    black_box(e);
                    for i in 0..burst {
                        q.schedule_at(now, i as u32);
                    }
                    while let Some((_, e)) = q.pop() {
                        total += e as u64;
                    }
                    q.schedule_at(SimTime::from_ns(round + 1), 0u32);
                }
            }
            while q.pop().is_some() {}
            total
        });
    }
}

fn bench_resource() {
    let mut g = Group::new("desim_resource");
    g.bench("acquire_100k", 10, || {
        let mut r = Resource::new(16);
        let mut t = SimTime::ZERO;
        for i in 0..100_000u64 {
            t = r.acquire(SimTime::from_ns(i * 3), 40);
        }
        t
    });
}

fn bench_generator() {
    let mut g = Group::new("sparsemat_generators");
    g.bench("level_structured_20k", 10, || {
        gen::level_structured(&LevelSpec::new(20_000, 100, 100_000, 3))
    });
    g.bench("rmat_16k", 10, || gen::rmat_lower(1 << 14, 80_000, 5));
}

fn bench_analysis() {
    let m = gen::level_structured(&LevelSpec::new(50_000, 200, 250_000, 11));
    let mut g = Group::new("sparsemat_analysis");
    g.bench("level_sets_50k", 10, || LevelSets::analyze(black_box(&m), Triangle::Lower));
    g.bench("transpose_50k", 10, || black_box(&m).transpose());
    g.bench("csr_conversion_50k", 10, || CsrMatrix::from_csc(black_box(&m)));
}

fn bench_reference_solver() {
    let m = gen::level_structured(&LevelSpec::new(50_000, 200, 250_000, 13));
    let (_, b_rhs) = sptrsv::verify::rhs_for(&m, 1);
    let mut g = Group::new("reference_solver");
    g.bench("forward_substitution_50k", 10, || {
        reference::solve_lower(black_box(&m), black_box(&b_rhs)).unwrap()
    });
    let u = m.transpose();
    let (_, bu) = sptrsv::verify::rhs_for(&u, 2);
    g.bench("backward_substitution_50k", 10, || {
        reference::solve_upper(black_box(&u), black_box(&bu)).unwrap()
    });
}

/// The calibration simulation's own cost on the heavy factor (100k
/// rows, 200 levels, 400k nnz): the simulator's analysis, and one
/// event-loop run of `ZeroCopy { per_gpu: 8 }` on a 4-GPU DGX-1 with a
/// fresh machine, as an engine's first `calibration()` runs them.
fn bench_sim_calibration() {
    let m = gen::level_structured(&LevelSpec::new(100_000, 200, 400_000, 11));
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let cfg =
        ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() };
    let mut g = Group::new("sim_calibration");
    let build =
        g.bench("analysis_build_100k", 10, || ExecAnalysis::build(black_box(&m), &plan, &cfg));
    let analysis = ExecAnalysis::build(&m, &plan, &cfg);
    let mut events = 0;
    let run = g.bench("run_prepared_100k", 10, || {
        let mut machine = Machine::new(MachineConfig::dgx1(4));
        let out = run_prepared(&plan, &analysis, &mut machine, &cfg).expect("no deadlock");
        events = out.events;
        out.makespan
    });
    println!(
        "sim_calibration: analysis {:.3} ms + run {:.3} ms; {events} logical events, \
         {:.1} ns per event",
        build.median_ns as f64 / 1e6,
        run.median_ns as f64 / 1e6,
        run.median_ns as f64 / events as f64,
    );
}

fn main() {
    bench_event_queue();
    bench_resource();
    bench_generator();
    bench_analysis();
    bench_reference_solver();
    bench_sim_calibration();
}
