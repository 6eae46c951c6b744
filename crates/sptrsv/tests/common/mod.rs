//! Helpers shared by the fleet and chaos integration tests.

use sparsemat::CscMatrix;
use sptrsv::fleet::FleetConfig;
use sptrsv::SolverEngine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Abort the whole process (with a recognizable message) if `f` does
/// not finish within `secs` — a hung ticket or dispatcher must fail
/// the suite, not hang CI.
pub fn with_watchdog<R>(secs: u64, f: impl FnOnce() -> R) -> R {
    let done = Arc::new(AtomicBool::new(false));
    let observer = Arc::clone(&done);
    let dog = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while Instant::now() < deadline {
            // Relaxed: the flag publishes nothing but itself
            if observer.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("watchdog: no progress in {secs}s — deadlock suspected, aborting");
        std::process::abort();
    });
    let r = f();
    done.store(true, Ordering::Relaxed);
    let _ = dog.join();
    r
}

/// A cache budget with room for one engine over `m` (admission
/// estimate AND real footprint), never for two — every tenant switch
/// must evict. The estimate mirrors the fleet's admission formula; the
/// actual is the real post-recharge charge.
pub fn one_engine_budget(m: &CscMatrix, cfg: &FleetConfig) -> u64 {
    let host = matrix_bytes(m);
    let estimate = host * 4 + m.n() as u64 * 8 * (3 * 8 + 2);
    let probe = SolverEngine::build(m, cfg.machine.clone(), &cfg.solve).unwrap();
    let actual = host + probe.footprint_bytes();
    estimate.max(actual) + estimate.min(actual) / 2
}

/// Host bytes the fleet charges for one matrix it keeps alive: column
/// pointers, row indices and values.
pub fn matrix_bytes(m: &CscMatrix) -> u64 {
    ((m.n() + 1) * std::mem::size_of::<usize>()
        + m.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())) as u64
}
