//! The machine block: what the sandbox offers while the benchmark
//! runs, measured in the same process so per-layer ratios have a
//! same-machine denominator.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Iterations of a dependent integer chain completed in `window`.
fn spin_iterations(window: Duration) -> u64 {
    let start = Instant::now();
    let (mut acc, mut iters) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    while start.elapsed() < window {
        for _ in 0..4096 {
            acc = acc.rotate_left(5).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ iters;
        }
        iters += 4096;
    }
    black_box(acc);
    iters
}

/// Work two spinning threads complete together over the work one
/// completes alone: ≈ 2.0 when two cores are really available, ≈ 1.0
/// when the second thread only time-shares the first's core. The best
/// of three tries: this guest's scheduler sometimes leaves a freshly
/// spawned thread on its parent's core for 100 ms and more while the
/// other core idles, and the question here is whether a second core is
/// there at all, not whether it was used at once. With one hardware
/// thread the second spinner is not started and this is 1.
pub fn parallel_capacity(window: Duration) -> f64 {
    if nproc() < 2 {
        return 1.0;
    }
    let attempt = || {
        let alone = spin_iterations(window).max(1);
        let together = std::thread::scope(|s| {
            let peer = s.spawn(|| spin_iterations(window));
            let mine = spin_iterations(window);
            mine + peer.join().expect("spinner thread")
        });
        together as f64 / alone as f64
    };
    (0..3).map(|_| attempt()).fold(0.0, f64::max)
}

/// Sustained triad bandwidth `a[i] = b[i] + s·c[i]` over three arrays
/// of `total_bytes / 3` each, in GB/s of computed traffic (two reads
/// and one write of 8 bytes per element; write-allocate traffic is not
/// counted). Best pass of those that fit in `budget` (at least 3).
pub fn triad_gbps(total_bytes: usize, budget: Duration) -> f64 {
    let len = (total_bytes / 24).max(1024);
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let mut a = vec![0.0f64; len];
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut passes = 0;
    while passes < 3 || start.elapsed() < budget {
        let s = 1.0 + passes as f64;
        let t0 = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
        passes += 1;
    }
    (len * 24) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_and_triad_are_positive() {
        assert!(nproc() >= 1);
        let cap = parallel_capacity(Duration::from_millis(20));
        assert!(cap > 0.3 && cap < 2.6, "capacity {cap}");
        assert!(triad_gbps(1 << 20, Duration::from_millis(5)) > 0.0);
    }
}
