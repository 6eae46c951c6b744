//! The Schedule IR: the chain statistics of one engine's level sets,
//! built once per engine build of a simulated kind.
//!
//! [`Schedule`] is the one place scheduling facts are derived from raw
//! [`LevelSets`]: [`ScheduleStats`] — levels, the chains that fuse runs
//! of narrow levels (threshold-driven:
//! [`sparsemat::levels::ChainPartition`]), the fused fraction and the
//! barriers a level-synchronous solve over those chains would pay.
//!
//! Everything in here depends only on the factor's *structure* and the
//! [`ScheduleTuning`] — never on matrix values — so the engine keeps
//! the stats beside its structure-only [`crate::exec::Layout`] and they
//! survive `refresh_values` untouched by construction. They describe
//! the levels, not the warm layout: a simulated kind reports them
//! whether its factor is laid out level-major or in natural order. They
//! are observability ([`crate::report::SolveReport`], the bench JSON):
//! every warm solve is one serial sweep per right-hand side (see
//! [`crate::exec`]'s module docs for why there is no level-synchronous
//! tier).

use sparsemat::LevelSets;
use std::fmt;

/// Default for [`ScheduleTuning::chain_width_threshold`]: levels at or
/// below this width fuse into chains — a level this narrow cannot keep
/// even two workers busy past the barrier cost of splitting it. `0`
/// disables fusion (every level stays a barrier-delimited singleton).
pub const CHAIN_WIDTH_THRESHOLD: usize = 128;

/// The knobs the Schedule IR is built with. Lives on
/// [`crate::SolveOptions`] as an individual documented field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleTuning {
    /// See [`CHAIN_WIDTH_THRESHOLD`].
    pub chain_width_threshold: usize,
}

impl Default for ScheduleTuning {
    fn default() -> Self {
        ScheduleTuning { chain_width_threshold: CHAIN_WIDTH_THRESHOLD }
    }
}

/// Structure-only summary of a [`Schedule`] — what observability
/// surfaces record. All fields are fixed at engine build; none depend
/// on matrix values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleStats {
    /// Matrix dimension.
    pub rows: usize,
    /// Level-set count.
    pub levels: usize,
    /// Chain count (barrier-delimited execution steps).
    pub chains: usize,
    /// Shards each level is cut into: always 1, since every solve is
    /// one serial sweep.
    pub shards: usize,
    /// Levels living inside fused chains.
    pub fused_levels: usize,
    /// `fused_levels / levels` (0 for an empty matrix).
    pub fused_fraction: f64,
    /// Width of the widest level.
    pub max_level_width: usize,
    /// Barriers a level-synchronous solve over these chains would pay
    /// — see [`sparsemat::levels::ChainPartition::barriers_per_solve`]:
    /// `chains − 1`, so the unfused schedule pays `levels − 1`.
    pub barriers_per_solve: usize,
}

impl ScheduleStats {
    /// Degenerate stats for a variant that replays the whole factor as
    /// one fused sequential chain (the plain serial solver, which
    /// reports no level schedule even when its layout is level-major):
    /// one level, one chain, one shard,
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
    /// 99.8%), 1 shards, max width 6, 9 barriers/solve`.
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

/// The Schedule IR: the precomputed stats of one factor's level sets.
/// Built once by [`Schedule::build`]; immutable and value-independent
/// thereafter.
#[derive(Debug, Clone)]
pub struct Schedule {
    stats: ScheduleStats,
}

impl Schedule {
    /// Build the schedule for analyzed `levels` under `tuning`. Cost:
    /// O(levels).
    ///
    /// `owner` is ignored: it stays for the layered benchmark's
    /// schedule timing, which passes the simulated owner map.
    pub fn build(levels: &LevelSets, _owner: Option<&[usize]>, tuning: ScheduleTuning) -> Schedule {
        let chains = levels.chains(tuning.chain_width_threshold);
        let n_levels = levels.n_levels();
        let fused_levels = chains.fused_levels();
        let stats = ScheduleStats {
            rows: levels.level_of.len(),
            levels: n_levels,
            chains: chains.n_chains(),
            shards: 1,
            fused_levels,
            fused_fraction: if n_levels == 0 { 0.0 } else { fused_levels as f64 / n_levels as f64 },
            max_level_width: levels.max_level_width(),
            barriers_per_solve: chains.barriers_per_solve(),
        };
        Schedule { stats }
    }

    /// The precomputed structure stats.
    #[inline]
    pub fn stats(&self) -> ScheduleStats {
        self.stats
    }

    /// Worker count for one solve on a machine with `hardware_threads`
    /// threads: always 1 — every single-RHS solve is the serial sweep.
    /// Kept for the layered benchmark, which reports it.
    pub fn auto_workers(&self, _hardware_threads: usize) -> usize {
        1
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
        assert_eq!(ScheduleTuning::default().chain_width_threshold, 128);
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
        let unfused = Schedule::build(&ls, None, ScheduleTuning { chain_width_threshold: 0 });
        assert_eq!(unfused.stats().barriers_per_solve, 500 - 1);
        assert!(unfused.stats().barriers_per_solve >= 5 * s.barriers_per_solve.max(1));
    }

    #[test]
    fn zero_threshold_reproduces_per_level_schedule() {
        let m = gen::level_structured(&gen::LevelSpec::new(1200, 24, 4800, 9));
        let ls = levels_of(&m);
        let sch = Schedule::build(&ls, None, ScheduleTuning { chain_width_threshold: 0 });
        let s = sch.stats();
        assert_eq!(s.chains, s.levels);
        assert_eq!(s.fused_levels, 0);
        assert_eq!(s.barriers_per_solve, s.levels - 1);
    }

    /// Every factor shape gets one worker per solve, and the owner
    /// map the layered benchmark passes changes nothing.
    #[test]
    fn auto_workers_is_one_for_every_factor() {
        let wide = gen::level_structured(&gen::LevelSpec::new(48_000, 24, 192_000, 7));
        let owner: Vec<usize> = (0..wide.n()).map(|c| c % 4).collect();
        let ls = levels_of(&wide);
        let (plain, owned) = (
            Schedule::build(&ls, None, ScheduleTuning::default()),
            Schedule::build(&ls, Some(&owner), ScheduleTuning::default()),
        );
        assert_eq!(plain.stats(), owned.stats());
        assert_eq!(plain.stats().shards, 1);
        for threads in [0, 1, 2, 16] {
            assert_eq!(plain.auto_workers(threads), 1);
        }
    }

    /// Mostly narrow levels with a few wide ones: unfused, every
    /// narrow level is its own step; fused, the narrow runs collapse
    /// and the barrier count falls by far more than 5x.
    #[test]
    fn fusion_cuts_barriers_on_mixed_factors() {
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
        let fused = Schedule::build(&ls, None, ScheduleTuning::default()).stats();
        let unfused =
            Schedule::build(&ls, None, ScheduleTuning { chain_width_threshold: 0 }).stats();
        assert_eq!(unfused.barriers_per_solve, unfused.levels - 1);
        assert!(fused.barriers_per_solve < unfused.barriers_per_solve / 5);
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
    }
}
