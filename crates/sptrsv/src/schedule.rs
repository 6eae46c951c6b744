//! The Schedule IR: the engine-wide levels → chains → shards
//! decomposition, built once per engine build and shared by every warm
//! tier.
//!
//! [`Schedule`] is the one place scheduling facts are derived from raw
//! [`LevelSets`]; its canonical order is also the order the engine's
//! [`crate::exec::Layout`] is relabelled into, so every range below is
//! a plain row range of that layout:
//!
//! * **levels** — the level-major canonical order (ascending index
//!   within each level, as the level sets hold it) and its shard
//!   segmentation ([`sparsemat::levels::LevelSegments`]);
//! * **chains** — maximal runs of narrow levels fused into
//!   barrier-free chains ([`ChainPartition`], threshold-driven);
//! * **shards** — each wide level cut into [`crate::exec::SHARD_COUNT`]
//!   owner segments striped across workers (one phase per level: a
//!   solve pays one barrier per chain boundary).
//!
//! Everything in here depends only on the factor's *structure* and the
//! [`ScheduleTuning`] — never on matrix values — so the schedule lives
//! in the engine's structure-only [`crate::exec::Layout`] and survives
//! `refresh_values` untouched by construction.
//!
//! [`ScheduleStats`] summarizes the decomposition (levels, chains,
//! fused fraction, barriers per solve) for observability
//! ([`crate::report::SolveReport`], the bench JSON) and feeds
//! [`Schedule::auto_workers`] — the sharded *candidate* the engine's
//! measured auto tier times against the serial sweep.

use sparsemat::levels::{ChainPartition, LevelSegments};
use sparsemat::LevelSets;
use std::fmt;
use std::sync::Arc;

/// Default for [`ScheduleTuning::shard_min_rows_per_worker`]: a worker
/// must own at least this many rows of the widest level before the
/// auto heuristic adds it — below that, barrier and cache-handoff
/// costs beat the arithmetic it would take over.
pub const SHARD_MIN_ROWS_PER_WORKER: usize = 512;

/// Default for [`ScheduleTuning::shard_min_avg_level_width`]: minimum
/// rows per synchronization step before the auto heuristic parallelizes
/// at all — factors below it are barrier-dominated and run serial.
pub const SHARD_MIN_AVG_LEVEL_WIDTH: usize = 256;

/// Default for [`ScheduleTuning::chain_width_threshold`]: levels at or
/// below this width fuse into chains. A level this narrow cannot keep
/// even two workers busy past the barrier cost of splitting it, so
/// running the whole run of them on one worker strictly wins. `0`
/// disables fusion (every level stays a barrier-delimited singleton).
pub const CHAIN_WIDTH_THRESHOLD: usize = 128;

/// The knobs the Schedule IR is built and interpreted with. Lives on
/// [`crate::SolveOptions`] as individual documented fields; the
/// defaults reproduce the engine's historical hard-coded behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleTuning {
    /// See [`SHARD_MIN_ROWS_PER_WORKER`].
    pub shard_min_rows_per_worker: usize,
    /// See [`SHARD_MIN_AVG_LEVEL_WIDTH`].
    pub shard_min_avg_level_width: usize,
    /// See [`CHAIN_WIDTH_THRESHOLD`].
    pub chain_width_threshold: usize,
}

impl Default for ScheduleTuning {
    fn default() -> Self {
        ScheduleTuning {
            shard_min_rows_per_worker: SHARD_MIN_ROWS_PER_WORKER,
            shard_min_avg_level_width: SHARD_MIN_AVG_LEVEL_WIDTH,
            chain_width_threshold: CHAIN_WIDTH_THRESHOLD,
        }
    }
}

/// Structure-only summary of a [`Schedule`] — what observability
/// surfaces record and the auto-worker heuristic consumes. All fields
/// are fixed at engine build; none depend on matrix values or the
/// worker count of any particular solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleStats {
    /// Matrix dimension.
    pub rows: usize,
    /// Level-set count.
    pub levels: usize,
    /// Chain count (barrier-delimited execution steps).
    pub chains: usize,
    /// Shards each wide level is cut into.
    pub shards: usize,
    /// Levels living inside fused chains.
    pub fused_levels: usize,
    /// `fused_levels / levels` (0 for an empty matrix).
    pub fused_fraction: f64,
    /// Width of the widest level.
    pub max_level_width: usize,
    /// Barriers a parallel solve over this schedule pays — see
    /// [`ChainPartition::barriers_per_solve`]: `chains − 1`, so the
    /// unfused schedule pays `levels − 1`.
    pub barriers_per_solve: usize,
}

impl ScheduleStats {
    /// Degenerate stats for a variant that replays the whole factor as
    /// one fused sequential chain (the plain serial solver, which
    /// never analyzes level sets): one level, one chain, one shard,
    /// everything fused, zero barriers. An empty factor is all zeros,
    /// matching [`Schedule::build`] on an empty matrix. Populating
    /// this everywhere means `SolveReport.schedule` consumers never
    /// special-case a missing schedule.
    pub fn serial(rows: usize) -> ScheduleStats {
        let unit = usize::from(rows > 0);
        ScheduleStats {
            rows,
            levels: unit,
            chains: unit,
            shards: unit,
            fused_levels: unit,
            fused_fraction: unit as f64,
            max_level_width: rows,
            barriers_per_solve: 0,
        }
    }
}

impl fmt::Display for ScheduleStats {
    /// One-liner for example/harness output, e.g.
    /// `schedule: 15000 rows, 2500 levels -> 5 chains (2496 fused,
    /// 99.8%), 16 shards, max width 6, 9 barriers/solve`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule: {} rows, {} levels -> {} chains ({} fused, {:.1}%), {} shards, max width {}, {} barriers/solve",
            self.rows,
            self.levels,
            self.chains,
            self.fused_levels,
            self.fused_fraction * 100.0,
            self.shards,
            self.max_level_width,
            self.barriers_per_solve
        )
    }
}

/// The Schedule IR: canonical order, owner segmentation and chain
/// partition of one engine's factor, plus precomputed stats. Built
/// once by [`Schedule::build`]; immutable and value-independent
/// thereafter.
#[derive(Debug, Clone)]
pub struct Schedule {
    segs: LevelSegments,
    chains: ChainPartition,
    stats: ScheduleStats,
    tuning: ScheduleTuning,
}

impl Schedule {
    /// Build the schedule for analyzed `levels` under `tuning`.
    ///
    /// With `owner: None` — what the engine passes for every solver
    /// kind — the canonical order is the level sets' own flat array
    /// (ascending index within each level), shared not copied. `Some`
    /// component→GPU map groups each level's components by simulated
    /// owner first; the argument stays for the layered benchmark's
    /// schedule timing, and no warm path builds that order. Cost: O(n)
    /// with `None`, O(n log n) with an owner map.
    pub fn build(levels: &LevelSets, owner: Option<&[usize]>, tuning: ScheduleTuning) -> Schedule {
        let segs = levels.owner_segments(owner, crate::exec::SHARD_COUNT);
        let chains = levels.chains(tuning.chain_width_threshold);
        let n_levels = levels.n_levels();
        let fused_levels = chains.fused_levels();
        let stats = ScheduleStats {
            rows: segs.order.len(),
            levels: n_levels,
            chains: chains.n_chains(),
            shards: segs.shards,
            fused_levels,
            fused_fraction: if n_levels == 0 { 0.0 } else { fused_levels as f64 / n_levels as f64 },
            max_level_width: levels.max_level_width(),
            barriers_per_solve: chains.barriers_per_solve(),
        };
        Schedule { segs, chains, stats, tuning }
    }

    /// The degenerate schedule of a natural-order layout (the serial
    /// kind, which never analyzes level sets): stats
    /// [`ScheduleStats::serial`] — one fused chain, zero barriers — but
    /// no canonical order table, no segments and no chain to split
    /// across workers, so it holds no bytes and a sharded sweep over it
    /// runs serially.
    pub fn serial(rows: usize) -> Schedule {
        let stats = ScheduleStats::serial(rows);
        Schedule {
            segs: LevelSegments { shards: stats.shards, order: Arc::from([]), seg_ptr: Vec::new() },
            chains: ChainPartition::default(),
            stats,
            tuning: ScheduleTuning::default(),
        }
    }

    /// Shards each wide level is cut into.
    #[inline]
    pub fn shards(&self) -> usize {
        self.segs.shards
    }

    /// The canonical level-major component order (empty for
    /// [`Schedule::serial`], whose layout needs no table).
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.segs.order
    }

    /// Solve-segment offsets into [`Schedule::order`]
    /// (`n_levels · shards + 1` entries, CSR-style: segment `(l, s)`
    /// is `order[seg_ptr[l·shards + s] .. seg_ptr[l·shards + s + 1]]`).
    #[inline]
    pub fn seg_ptr(&self) -> &[u32] {
        &self.segs.seg_ptr
    }

    /// The chain partition over the levels.
    #[inline]
    pub fn chains(&self) -> &ChainPartition {
        &self.chains
    }

    /// The precomputed structure stats.
    #[inline]
    pub fn stats(&self) -> ScheduleStats {
        self.stats
    }

    /// The sharded candidate the engine's auto tier should try on a
    /// machine with `hardware_threads` threads (the engine then times
    /// it against the serial sweep and commits to the faster) —
    /// derived entirely from the schedule's stats and tuning:
    ///
    /// 1. fewer than 2 threads, or fewer than 2 chains (a sharded solve
    ///    parallelizes *across* a chain boundary's barrier; a lone
    ///    chain — one wide level, an empty factor — is swept serially
    ///    whatever the worker count) → serial;
    /// 2. the barriers must be amortized: the schedule's chains are
    ///    its synchronization steps, and each step must average at
    ///    least [`ScheduleTuning::shard_min_avg_level_width`] rows. With
    ///    fusion disabled this is exactly the historical
    ///    `rows / levels` gate; fusing chains shrinks the step count,
    ///    so deep factors with a few wide levels can now qualify;
    /// 3. the widest level must give each worker at least
    ///    [`ScheduleTuning::shard_min_rows_per_worker`] rows.
    pub fn auto_workers(&self, hardware_threads: usize) -> usize {
        let hw = hardware_threads.min(self.stats.shards);
        if hw < 2 || self.stats.chains < 2 {
            return 1;
        }
        // one synchronization step per chain — with fusion off this
        // is n_levels
        if self.stats.rows / self.stats.chains < self.tuning.shard_min_avg_level_width {
            return 1;
        }
        let workers = (self.stats.max_level_width / self.tuning.shard_min_rows_per_worker).min(hw);
        if workers < 2 {
            1
        } else {
            workers
        }
    }

    /// Host bytes held by the schedule (including the shared canonical
    /// order — counted once here, by the owner of record) — what an
    /// engine cache charges against its byte budget.
    pub fn host_bytes(&self) -> u64 {
        fn cap<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        (self.segs.order.len() * std::mem::size_of::<u32>()) as u64
            + cap(&self.segs.seg_ptr)
            + std::mem::size_of_val(self.chains.chain_ptr()) as u64
            + self.chains.n_chains() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{gen, Triangle};

    fn levels_of(m: &sparsemat::CscMatrix) -> LevelSets {
        LevelSets::analyze(m, Triangle::Lower)
    }

    #[test]
    fn default_tuning_matches_historical_consts() {
        let t = ScheduleTuning::default();
        assert_eq!(t.shard_min_rows_per_worker, 512);
        assert_eq!(t.shard_min_avg_level_width, 256);
        assert_eq!(t.chain_width_threshold, 128);
    }

    #[test]
    fn deep_narrow_factor_fuses_nearly_everything() {
        let m = gen::deep_narrow(500, 5, 3.0, 11);
        let ls = levels_of(&m);
        let fused = Schedule::build(&ls, None, ScheduleTuning::default());
        let s = fused.stats();
        assert_eq!(s.levels, 500);
        assert!(s.fused_fraction > 0.9, "fused fraction {}", s.fused_fraction);
        assert!(s.chains < 50, "chains {}", s.chains);
        // vs the unfused schedule: barriers collapse by far more than 5x
        let unfused = Schedule::build(
            &ls,
            None,
            ScheduleTuning { chain_width_threshold: 0, ..Default::default() },
        );
        assert_eq!(unfused.stats().barriers_per_solve, 500 - 1);
        assert!(unfused.stats().barriers_per_solve >= 5 * s.barriers_per_solve.max(1));
    }

    #[test]
    fn zero_threshold_reproduces_per_level_schedule() {
        let m = gen::level_structured(&gen::LevelSpec::new(1200, 24, 4800, 9));
        let ls = levels_of(&m);
        let sch = Schedule::build(
            &ls,
            None,
            ScheduleTuning { chain_width_threshold: 0, ..Default::default() },
        );
        let s = sch.stats();
        assert_eq!(s.chains, s.levels);
        assert_eq!(s.fused_levels, 0);
        assert_eq!(s.barriers_per_solve, s.levels - 1);
        assert_eq!(sch.order(), ls.level_comps());
    }

    #[test]
    fn auto_workers_matches_historical_heuristic_when_unfused() {
        let t = ScheduleTuning { chain_width_threshold: 0, ..Default::default() };
        // wide factor: qualifies for parallelism on a 16-thread machine
        let wide = levels_of(&gen::level_structured(&gen::LevelSpec::new(48_000, 24, 192_000, 7)));
        let sch = Schedule::build(&wide, None, t);
        let expect_wide = (wide.max_level_width() / 512).min(16);
        assert_eq!(sch.auto_workers(16), expect_wide.max(1));
        assert!(sch.auto_workers(16) >= 2);
        // single thread → serial, regardless of factor shape
        assert_eq!(sch.auto_workers(1), 1);
        // a single chain never mounts a parallel region (the sharded
        // solve sweeps it serially), so it is no sharded candidate
        // however wide: regression — the engine's tier probe used to
        // wait forever for a sharded sample that could not happen
        let lone = Schedule::build(&levels_of(&gen::diagonal(4096, 1)), None, t);
        assert_eq!((lone.stats().chains, lone.stats().max_level_width), (1, 4096));
        assert_eq!(lone.auto_workers(16), 1);
        // narrow factor: avg level width far below the gate → serial
        let narrow = levels_of(&gen::deep_narrow(500, 5, 3.0, 3));
        assert_eq!(Schedule::build(&narrow, None, t).auto_workers(16), 1);
    }

    #[test]
    fn fusion_can_unlock_parallelism_for_mixed_factors() {
        // mostly narrow levels with a few wide ones: unfused, the many
        // narrow sync steps drag rows-per-step below the gate; fused,
        // the wide levels dominate the step count
        let mut b = sparsemat::TripletBuilder::new(12_000);
        for i in 0..12_000usize {
            b.push(i, i, 4.0);
        }
        // 10 wide blocks of 1,150 independent rows, separated by chains
        // of 50 sequential rows
        let block = 1_200usize;
        for blk in 0..10usize {
            let base = blk * block;
            for i in 1..50 {
                b.push(base + i, base + i - 1, -1.0); // chain segment
            }
            for i in 50..block {
                b.push(base + i, base + 49, -0.5); // wide fan-out level
            }
        }
        let m = b.build().unwrap();
        let ls = levels_of(&m);
        let fused = Schedule::build(&ls, None, ScheduleTuning::default());
        let unfused = Schedule::build(
            &ls,
            None,
            ScheduleTuning { chain_width_threshold: 0, ..Default::default() },
        );
        assert_eq!(unfused.auto_workers(16), 1, "unfused schedule is barrier-bound");
        assert!(fused.auto_workers(16) >= 2, "fusion must unlock the wide levels");
        assert!(fused.stats().barriers_per_solve < unfused.stats().barriers_per_solve / 5);
    }

    #[test]
    fn serial_stats_are_one_fused_chain_with_no_barriers() {
        let s = ScheduleStats::serial(1_000);
        assert_eq!((s.rows, s.levels, s.chains, s.shards), (1_000, 1, 1, 1));
        assert_eq!((s.fused_levels, s.barriers_per_solve), (1, 0));
        assert_eq!(s.fused_fraction, 1.0);
        assert_eq!(s.max_level_width, 1_000);
        let empty = ScheduleStats::serial(0);
        assert_eq!((empty.rows, empty.levels, empty.chains, empty.fused_levels), (0, 0, 0, 0));
        assert_eq!(empty.fused_fraction, 0.0);
    }

    #[test]
    fn stats_display_is_a_single_line_mentioning_every_field() {
        let m = gen::deep_narrow(500, 5, 3.0, 11);
        let s = Schedule::build(&levels_of(&m), None, ScheduleTuning::default()).stats();
        let line = s.to_string();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("schedule: "), "{line}");
        for needle in ["rows", "levels", "chains", "fused", "shards", "max width", "barriers/solve"]
        {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        let serial = ScheduleStats::serial(64).to_string();
        assert!(serial.contains("64 rows") && serial.contains("0 barriers/solve"), "{serial}");
    }

    #[test]
    fn empty_factor_schedules_trivially() {
        let m = sparsemat::TripletBuilder::new(0).build().unwrap();
        let sch = Schedule::build(&levels_of(&m), None, ScheduleTuning::default());
        let s = sch.stats();
        assert_eq!((s.rows, s.levels, s.chains, s.fused_levels), (0, 0, 0, 0));
        assert_eq!(s.barriers_per_solve, 0);
        assert_eq!(sch.auto_workers(16), 1);
    }
}
