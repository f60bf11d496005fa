//! Per-phase timing metrics and throughput analysis.
//!
//! The paper's evaluation (§6) reports wall-clock seconds for 500 simulated
//! clock ticks and derives a capacity figure from the rule of thumb that "a
//! game engine should be able to simulate at least 10 clock ticks per
//! second".  This module provides the measurement plumbing for both:
//!
//! * [`PhaseTimings`] — how long each phase of a tick took (§6 lists the
//!   phases: index building + decision + action inside the executor, then
//!   post-processing, movement and the resurrection rule);
//! * [`ThroughputReport`] — ticks-per-second summary plus the 10-ticks/s
//!   capacity check used for the §6.1 capacity claim.

use std::time::Duration;

/// Wall-clock duration of each phase of one simulated tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Index building + decision + action phases (everything inside
    /// `sgl_exec::execute_tick`, including per-tick index construction).
    pub exec: Duration,
    /// Post-processing (applying combined effects, removing the dead).
    pub post: Duration,
    /// Movement phase (collision detection, simple pathfinding).
    pub movement: Duration,
    /// Resurrection rule.
    pub resurrect: Duration,
    /// Cross-tick index maintenance (diff + delta application / partition
    /// rebuilds) performed after the mutation phases; zero when every call
    /// site is rebuilt per tick.
    pub maintain: Duration,
}

impl PhaseTimings {
    /// Total duration of the tick.
    pub fn total(&self) -> Duration {
        self.exec + self.post + self.movement + self.resurrect + self.maintain
    }

    /// Accumulate another tick's timings (used by run summaries).
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.exec += other.exec;
        self.post += other.post;
        self.movement += other.movement;
        self.resurrect += other.resurrect;
        self.maintain += other.maintain;
    }

    /// Fraction of the tick spent inside the executor (decision + indexes).
    /// Returns `None` for an all-zero timing (e.g. a default value).
    pub fn exec_fraction(&self) -> Option<f64> {
        let total = self.total().as_secs_f64();
        if total > 0.0 {
            Some(self.exec.as_secs_f64() / total)
        } else {
            None
        }
    }
}

/// Page allocations (fresh pages plus spill fault-ins) attributed to each
/// phase of one simulated tick.  Sampled from the environment table's O(1)
/// allocation counter around every phase, so the deltas are exact.
///
/// Under a [`RamPageManager`](sgl_env::pager::RamPageManager) with no budget
/// the `fault_in` field stays zero; under a spill budget it counts the pages
/// the tick-start residency restore read back from the spill file — the
/// direct measure of how much of the working set the previous tick's
/// eviction pass pushed out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAllocs {
    /// Tick-start fault-in of pages evicted at the end of the previous tick.
    pub fault_in: u64,
    /// Decision/action phases (read-only over the table: normally zero).
    pub exec: u64,
    /// Post-processing (column writebacks of combined effects).
    pub post: u64,
    /// Movement phase (position column writes).
    pub movement: u64,
    /// Resurrection rule.
    pub resurrect: u64,
    /// Cross-tick index maintenance.
    pub maintain: u64,
}

impl PhaseAllocs {
    /// Total pages allocated during the tick.
    pub fn total(&self) -> u64 {
        self.fault_in + self.exec + self.post + self.movement + self.resurrect + self.maintain
    }

    /// Accumulate another tick's allocations (used by run summaries).
    pub fn accumulate(&mut self, other: &PhaseAllocs) {
        self.fault_in += other.fault_in;
        self.exec += other.exec;
        self.post += other.post;
        self.movement += other.movement;
        self.resurrect += other.resurrect;
        self.maintain += other.maintain;
    }
}

/// Throughput summary over a simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Ticks simulated.
    pub ticks: usize,
    /// Total wall-clock time spent simulating.
    pub total: Duration,
    /// Mean time per tick.
    pub mean_tick: Duration,
    /// Worst (longest) tick.
    pub worst_tick: Duration,
    /// Simulated ticks per second (mean).
    pub ticks_per_second: f64,
    /// Extrapolated seconds for 500 ticks — the unit of Figure 10.
    pub seconds_per_500_ticks: f64,
}

impl ThroughputReport {
    /// Build a report from a sequence of per-tick timings.
    pub fn from_timings<'a>(
        timings: impl IntoIterator<Item = &'a PhaseTimings>,
    ) -> ThroughputReport {
        let mut total = Duration::ZERO;
        let mut worst = Duration::ZERO;
        let mut ticks = 0usize;
        for t in timings {
            let tick = t.total();
            total += tick;
            worst = worst.max(tick);
            ticks += 1;
        }
        let mean_tick = if ticks > 0 {
            total / ticks as u32
        } else {
            Duration::ZERO
        };
        let secs = total.as_secs_f64();
        let ticks_per_second = if secs > 0.0 {
            ticks as f64 / secs
        } else {
            f64::INFINITY
        };
        let seconds_per_500_ticks = if ticks > 0 {
            mean_tick.as_secs_f64() * 500.0
        } else {
            0.0
        };
        ThroughputReport {
            ticks,
            total,
            mean_tick,
            worst_tick: worst,
            ticks_per_second,
            seconds_per_500_ticks,
        }
    }

    /// The paper's capacity criterion: can the engine sustain at least
    /// `target` ticks per second (the text uses 10)?
    pub fn sustains(&self, target: f64) -> bool {
        self.ticks_per_second >= target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(exec_ms: u64, post_ms: u64, movement_ms: u64, resurrect_ms: u64) -> PhaseTimings {
        PhaseTimings {
            exec: Duration::from_millis(exec_ms),
            post: Duration::from_millis(post_ms),
            movement: Duration::from_millis(movement_ms),
            resurrect: Duration::from_millis(resurrect_ms),
            maintain: Duration::ZERO,
        }
    }

    #[test]
    fn phase_timings_total_and_fraction() {
        let t = timing(60, 20, 15, 5);
        assert_eq!(t.total(), Duration::from_millis(100));
        assert!((t.exec_fraction().unwrap() - 0.6).abs() < 1e-9);
        assert_eq!(PhaseTimings::default().exec_fraction(), None);
    }

    #[test]
    fn phase_timings_accumulate() {
        let mut total = PhaseTimings::default();
        total.accumulate(&timing(10, 1, 2, 3));
        total.accumulate(&timing(20, 2, 4, 6));
        assert_eq!(total.exec, Duration::from_millis(30));
        assert_eq!(total.total(), Duration::from_millis(48));
        let mut with_maintenance = timing(10, 0, 0, 0);
        with_maintenance.maintain = Duration::from_millis(5);
        total.accumulate(&with_maintenance);
        assert_eq!(total.maintain, Duration::from_millis(5));
        assert_eq!(total.total(), Duration::from_millis(63));
    }

    #[test]
    fn throughput_report_and_capacity_check() {
        // 10 ticks of 50 ms each → 20 ticks/s, 25 s per 500 ticks.
        let timings: Vec<PhaseTimings> = (0..10).map(|_| timing(40, 5, 5, 0)).collect();
        let report = ThroughputReport::from_timings(&timings);
        assert_eq!(report.ticks, 10);
        assert_eq!(report.mean_tick, Duration::from_millis(50));
        assert_eq!(report.worst_tick, Duration::from_millis(50));
        assert!((report.ticks_per_second - 20.0).abs() < 0.5);
        assert!((report.seconds_per_500_ticks - 25.0).abs() < 0.5);
        assert!(report.sustains(10.0));
        assert!(!report.sustains(30.0));
    }

    #[test]
    fn empty_throughput_report() {
        let report = ThroughputReport::from_timings(&[]);
        assert_eq!(report.ticks, 0);
        assert_eq!(report.total, Duration::ZERO);
        assert!(report.ticks_per_second.is_infinite());
        assert!(report.sustains(10.0));
    }
}
