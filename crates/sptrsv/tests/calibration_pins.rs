//! The calibration timeline, pinned exactly.
//!
//! Every simulated [`SolverKind`] × four factors (a level-structured
//! `L`, its transpose `U`, and a grid's ILU(0) `L` and `U`) on a 4-GPU
//! DGX-1, plus one zero-copy row on an 8-GPU DGX-2 for the switched
//! routes. Each row holds the calibration's event count, simulated
//! analysis and total times, cross-GPU edge count and a digest of its
//! full [`MachineStats`]. The simulation is deterministic and advances
//! on structure alone, so a change to the event loop, the analysis or
//! the machine model that is meant to keep timelines shows here as a
//! mismatch, down to one fabric byte.

use mgpu_sim::{MachineConfig, MachineStats};
use sparsemat::gen::{self, LevelSpec};
use sparsemat::{CscMatrix, Triangle};
use sptrsv::{SolveOptions, SolverEngine, SolverKind};
use SolverKind::*;

/// One pinned calibration: `(events, analysis ns, total ns,
/// cross_edges, stats digest)`.
type Pin = (u64, u64, u64, u64, u64);

/// The `dgx1(4)` rows: every simulated kind on every factor.
const DGX1: [(&str, SolverKind, Pin); 32] = [
    ("level L", LevelSet, (0, 64_935, 541_726, 0, 0x05d28bfef76b39c1)),
    ("level L", SyncFree, (35_944, 7170, 173_068, 0, 0xed61ecbdbc5e295a)),
    ("level L", Unified, (35_947, 34_003, 497_634, 4685, 0xded71bd4f9d872ac)),
    ("level L", UnifiedTasks { per_gpu: 8 }, (35_975, 33_915, 2_159_342, 8073, 0x42c3729fb9440a55)),
    ("level L", ShmemBlocked, (35_947, 6395, 217_993, 4685, 0x058d2bbb83829cde)),
    ("level L", ShmemNaive, (35_947, 6395, 13_999_587, 4685, 0x3f303e1b87a4e42b)),
    ("level L", ZeroCopy { per_gpu: 8 }, (35_975, 6307, 284_770, 8073, 0x8ac68111cb9498e8)),
    ("level L", ZeroCopyTotal { total: 32 }, (35_975, 6307, 284_770, 8073, 0x8ac68111cb9498e8)),
    ("level U", LevelSet, (0, 64_935, 543_531, 0, 0xba42aecea1989c53)),
    ("level U", SyncFree, (35_944, 7170, 177_635, 0, 0xbc28bc0c1fb2fe90)),
    ("level U", Unified, (35_947, 33_925, 409_142, 4685, 0x5b6eb097e63733c3)),
    ("level U", UnifiedTasks { per_gpu: 8 }, (35_975, 33_904, 2_358_008, 8142, 0x3a41f37b28cb3860)),
    ("level U", ShmemBlocked, (35_947, 6317, 204_540, 4685, 0xe1e03438bdd63982)),
    ("level U", ShmemNaive, (35_947, 6317, 12_131_053, 4685, 0x43d865b5b54bc9a3)),
    ("level U", ZeroCopy { per_gpu: 8 }, (35_975, 6296, 261_069, 8142, 0xd3286e785dd19207)),
    ("level U", ZeroCopyTotal { total: 32 }, (35_975, 6296, 261_069, 8142, 0xd3286e785dd19207)),
    ("grid L", LevelSet, (0, 89_668, 1_039_582, 0, 0x1ade528a2d493b1a)),
    ("grid L", SyncFree, (11_425, 6332, 84_672, 0, 0x27fbd8bf6e259209)),
    ("grid L", Unified, (11_428, 31_132, 226_349, 144, 0x7cfa9825b1d833ca)),
    ("grid L", UnifiedTasks { per_gpu: 8 }, (11_456, 31_132, 984_649, 1504, 0x715de62a33331d30)),
    ("grid L", ShmemBlocked, (11_428, 6084, 264_946, 144, 0xda1ab74cf34c664c)),
    ("grid L", ShmemNaive, (11_428, 6084, 263_446, 144, 0x002f5b8843f70db4)),
    ("grid L", ZeroCopy { per_gpu: 8 }, (11_456, 6084, 395_109, 1504, 0x852b6eb119e2e962)),
    ("grid L", ZeroCopyTotal { total: 32 }, (11_456, 6084, 395_109, 1504, 0x852b6eb119e2e962)),
    ("grid U", LevelSet, (0, 89_668, 1_039_582, 0, 0x1ade528a2d493b1a)),
    ("grid U", SyncFree, (11_425, 6332, 84_402, 0, 0x27fbd8bf6e259209)),
    ("grid U", Unified, (11_428, 31_132, 218_650, 144, 0xf857e14e4e93f0bb)),
    ("grid U", UnifiedTasks { per_gpu: 8 }, (11_456, 31_132, 997_353, 1504, 0xac842c6681f43b56)),
    ("grid U", ShmemBlocked, (11_428, 6084, 263_766, 144, 0xa118091a13ce9d8a)),
    ("grid U", ShmemNaive, (11_428, 6084, 263_320, 144, 0x002f5b8843f70db4)),
    ("grid U", ZeroCopy { per_gpu: 8 }, (11_456, 6084, 393_993, 1504, 0xd544cd8f994d2036)),
    ("grid U", ZeroCopyTotal { total: 32 }, (11_456, 6084, 393_993, 1504, 0xd544cd8f994d2036)),
];

/// FNV-1a over the stats' `Debug` text: every counter, every GPU.
fn digest(stats: &MachineStats) -> u64 {
    format!("{stats:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn factor(name: &str) -> (CscMatrix, Triangle) {
    let level = || gen::level_structured(&LevelSpec::new(6000, 40, 24000, 3));
    let grid = || sparsemat::factor::ilu0(&gen::grid_laplacian(48, 48), 1e-8).expect("ILU(0)");
    match name {
        "level L" => (level(), Triangle::Lower),
        "level U" => (level().transpose(), Triangle::Upper),
        "grid L" => (grid().l, Triangle::Lower),
        "grid U" => (grid().u, Triangle::Upper),
        _ => unreachable!("unknown factor {name}"),
    }
}

fn pin_of(name: &str, machine: MachineConfig, kind: SolverKind) -> Pin {
    let (m, triangle) = factor(name);
    let opts = SolveOptions { kind, triangle, ..SolveOptions::default() };
    let engine = SolverEngine::build(&m, machine, &opts).expect("engine builds");
    let c = engine.calibration().expect("simulated kind calibrates");
    let (analysis, total) = (c.timings.analysis.as_ns(), c.timings.total.as_ns());
    (c.events, analysis, total, c.cross_edges, digest(&c.stats))
}

#[test]
fn every_simulated_kind_keeps_its_timeline() {
    let mismatches: Vec<String> = DGX1
        .iter()
        .map(|&(name, kind, want)| (name, kind, want, pin_of(name, MachineConfig::dgx1(4), kind)))
        .filter(|(.., want, got)| got != want)
        .map(|(name, kind, want, got)| format!("{name}/{kind:?}: got {got:?}, pinned {want:?}"))
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn switched_routes_keep_their_timeline() {
    let got = pin_of("level L", MachineConfig::dgx2(8), ZeroCopy { per_gpu: 8 });
    assert_eq!(got, (36_007, 6156, 321_189, 10_239, 0x5ec0dcf5010c971a));
}
