//! A dependency-free timed harness for `cargo bench`.
//!
//! The build environment is offline, so criterion cannot be resolved;
//! this module provides the small subset the benches need: named
//! groups, per-benchmark sample loops with one warmup iteration, and a
//! min/median/mean summary printed in a stable, greppable format.
//! Bench targets declare `harness = false` and call these helpers from
//! a plain `main()`.

use std::time::Instant;

/// Summary statistics of one benchmark's sample loop.
#[derive(Debug, Clone, Copy)]
pub struct TimingSummary {
    /// Fastest sample, ns.
    pub min_ns: u64,
    /// Median sample, ns.
    pub median_ns: u64,
    /// Arithmetic mean, ns.
    pub mean_ns: u64,
    /// Number of timed samples (excluding warmup).
    pub samples: usize,
}

impl TimingSummary {
    /// Render a duration in adaptive units.
    pub fn human(ns: u64) -> String {
        if ns >= 1_000_000_000 {
            format!("{:.3} s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            format!("{:.3} ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            format!("{:.3} us", ns as f64 / 1e3)
        } else {
            format!("{ns} ns")
        }
    }
}

/// Time `f` over `samples` iterations after one untimed warmup.
pub fn time_ns<R>(samples: usize, mut f: impl FnMut() -> R) -> TimingSummary {
    std::hint::black_box(f()); // warmup
    summarize((0..samples.max(1)).map(|_| lap(&mut f)).collect())
}

/// Time `f` and `g` over `samples` rounds after one untimed warmup of
/// each, one lap of each per round. Host drift — a neighbour taking
/// cycles, a frequency change — then lands on both sides alike, so the
/// ratio of the two medians holds still while each absolute time moves.
pub fn time_interleaved_ns<R, S>(
    samples: usize,
    mut f: impl FnMut() -> R,
    mut g: impl FnMut() -> S,
) -> (TimingSummary, TimingSummary) {
    std::hint::black_box(f()); // warmup
    std::hint::black_box(g());
    let (mut fs, mut gs) = (Vec::new(), Vec::new());
    for _ in 0..samples.max(1) {
        fs.push(lap(&mut f));
        gs.push(lap(&mut g));
    }
    (summarize(fs), summarize(gs))
}

/// One timed call of `f`, in ns.
fn lap<R>(f: &mut impl FnMut() -> R) -> u64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_nanos() as u64
}

/// Min/median/mean of a non-empty set of laps.
fn summarize(mut laps: Vec<u64>) -> TimingSummary {
    laps.sort_unstable();
    TimingSummary {
        min_ns: laps[0],
        median_ns: laps[laps.len() / 2],
        mean_ns: laps.iter().sum::<u64>() / laps.len() as u64,
        samples: laps.len(),
    }
}

/// A named benchmark group mirroring criterion's `benchmark_group`.
pub struct Group {
    name: String,
}

impl Group {
    /// Open a group and print its header.
    pub fn new(name: &str) -> Group {
        println!("\n== {name} ==");
        Group { name: name.to_string() }
    }

    /// Run one benchmark in the group and print its summary line.
    pub fn bench<R>(&mut self, label: &str, samples: usize, f: impl FnMut() -> R) -> TimingSummary {
        let s = time_ns(samples, f);
        println!(
            "{}/{label:<28} min {:>12}  median {:>12}  mean {:>12}  ({} samples)",
            self.name,
            TimingSummary::human(s.min_ns),
            TimingSummary::human(s.median_ns),
            TimingSummary::human(s.mean_ns),
            s.samples,
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_orders_min_le_median_le_max_mean_band() {
        let s = time_ns(9, || {
            let mut acc = 0u64;
            for i in 0..1_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(s.min_ns <= s.median_ns);
        assert!(s.samples == 9);
    }

    #[test]
    fn interleaved_runs_every_lap_of_both_sides_alternately() {
        let calls = std::cell::RefCell::new(Vec::new());
        let (f, g) = time_interleaved_ns(
            3,
            || calls.borrow_mut().push('f'),
            || calls.borrow_mut().push('g'),
        );
        assert_eq!((f.samples, g.samples), (3, 3));
        assert_eq!(calls.into_inner(), ['f', 'g', 'f', 'g', 'f', 'g', 'f', 'g']);
    }

    #[test]
    fn human_units() {
        assert_eq!(TimingSummary::human(500), "500 ns");
        assert_eq!(TimingSummary::human(1_500), "1.500 us");
        assert_eq!(TimingSummary::human(2_500_000), "2.500 ms");
        assert_eq!(TimingSummary::human(3_000_000_000), "3.000 s");
    }
}
