//! Solve reports: timings, machine statistics and verification data.

use crate::schedule::ScheduleStats;
use crate::telemetry::TelemetryReport;
use desim::SimTime;
use mgpu_sim::MachineStats;
use std::fmt;
use std::sync::Arc;

/// Phase timings of one solve, in virtual time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Analysis (preprocessing) phase duration.
    pub analysis: SimTime,
    /// Solver phase duration.
    pub solve: SimTime,
    /// End-to-end: analysis + solve (what the paper's figures report:
    /// "we sum up the execution time of the analysis phase and the
    /// solver phase").
    pub total: SimTime,
}

impl fmt::Display for Timings {
    /// One-liner for example/harness output, e.g.
    /// `timings: analysis 1.20ms + solve 340.00us = 1.54ms`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timings: analysis {} + solve {} = {}", self.analysis, self.solve, self.total)
    }
}

/// The complete result of a verified solve.
#[derive(Debug, Clone, Default)]
pub struct SolveReport {
    /// Solution vector.
    pub x: Vec<f64>,
    /// Phase timings (virtual time).
    pub timings: Timings,
    /// Machine counters captured at completion.
    pub stats: MachineStats,
    /// Calendar events processed (0 for the serial reference).
    pub events: u64,
    /// GPUs used.
    pub gpus: usize,
    /// Kernel launches in the plan (tasks × GPUs, or per level).
    pub kernels: usize,
    /// Matrix entries whose producer and consumer live on different
    /// GPUs under the chosen layout.
    pub cross_edges: u64,
    /// Whether the working set fit in device memory on every GPU.
    pub fits_in_memory: bool,
    /// Max relative difference against the serial reference
    /// (`None` when verification was disabled).
    pub verified_rel_err: Option<f64>,
    /// The warm-path Schedule IR statistics — levels, chains, shards,
    /// fused-level fraction and barriers per level-synchronous solve.
    /// Always
    /// populated: variants that replay without analyzing level sets
    /// (the plain serial solver) report the degenerate
    /// [`ScheduleStats::serial`] single-chain stats, so consumers
    /// never special-case. (Kept `Option` for API stability; `None`
    /// no longer occurs on any in-tree path.)
    pub schedule: Option<ScheduleStats>,
    /// Cross-layer telemetry digest. `TelemetryReport::default()`
    /// (disabled, empty — costs nothing to clone) unless the
    /// [`crate::telemetry`] sink was armed and the producer attached a
    /// [`crate::telemetry::report`] snapshot.
    pub telemetry: TelemetryReport,
    /// Human-readable variant label (e.g. "zerocopy-8t"). Shared so
    /// cloning a warm-solve template bumps a refcount instead of
    /// copying the string.
    pub label: Arc<str>,
}

impl SolveReport {
    /// Speedup of this run relative to `baseline` on total time.
    pub fn speedup_over(&self, baseline: &SolveReport) -> f64 {
        baseline.timings.total.as_ns() as f64 / self.timings.total.as_ns().max(1) as f64
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{:<16} total={:>12} analysis={:>12} solve={:>12} faults={:>8} gets={:>9} events={}",
            self.label,
            self.timings.total.to_string(),
            self.timings.analysis.to_string(),
            self.timings.solve.to_string(),
            self.stats.total_um_faults(),
            self.stats.shmem.total_gets(),
            self.events,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(total_ns: u64) -> SolveReport {
        SolveReport {
            x: vec![],
            timings: Timings {
                analysis: SimTime::ZERO,
                solve: SimTime::from_ns(total_ns),
                total: SimTime::from_ns(total_ns),
            },
            stats: MachineStats::default(),
            events: 0,
            gpus: 1,
            kernels: 1,
            cross_edges: 0,
            fits_in_memory: true,
            verified_rel_err: None,
            schedule: None,
            telemetry: TelemetryReport::default(),
            label: "test".into(),
        }
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let fast = dummy(100);
        let slow = dummy(400);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_label() {
        assert!(dummy(5).summary().contains("test"));
    }

    #[test]
    fn timings_display_is_a_single_line() {
        let t = Timings {
            analysis: SimTime::from_ns(1_200_000),
            solve: SimTime::from_ns(340_000),
            total: SimTime::from_ns(1_540_000),
        };
        let line = t.to_string();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("timings: analysis "), "{line}");
        assert!(line.contains(" + solve ") && line.contains(" = "), "{line}");
        assert!(line.contains(&t.total.to_string()), "{line}");
    }
}
