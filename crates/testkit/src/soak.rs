//! Long-horizon soak harness: thousands of ticks, population churn, seeded
//! checkpoint/resume, cross-tick invariants.
//!
//! The conformance sweep proves configurations agree over 4–6 ticks; nothing
//! there stresses what the paper's architecture promises at *scale* — that a
//! world can run for hours, be checkpointed at arbitrary points, and resume
//! (possibly on a different configuration) without the trajectory drifting.
//! This harness drives one generated `(script, world)` case for a long
//! horizon and checks, every tick:
//!
//! * **population accounting** — the tick report's population equals the
//!   table's row count and the digest's population; with resurrection on,
//!   the population is constant, otherwise it never grows;
//! * **stats monotonicity** — the engine's [`RuntimeStats`] tick counter
//!   advances by exactly one per tick and the cumulative served-backend
//!   counters never decrease;
//! * **digest stability across checkpoints** — at seeded intervals the
//!   primary simulation is checkpointed and resumed into a *shadow*
//!   simulation under a different (seeded) lattice configuration; the shadow
//!   must reproduce the primary's digests tick for tick until the next
//!   checkpoint, where it is discarded and a fresh one is resumed.
//!
//! A violation aborts the run with a [`SoakFailure`] carrying a complete
//! reproducer dump (seed, configurations, script source, world, the trailing
//! digest window) — the CI soak job uploads it as an artifact.
//!
//! [`RuntimeStats`]: sgl_core::exec::RuntimeStats

use std::fmt::Write as _;

use sgl_core::engine::{compare_traces, Simulation, TraceComparison, TraceRecorder};

use crate::{config_lattice, ConformanceCase, TestRng};

/// Parameters of one soak run.  Everything else (world, script, primary and
/// shadow configurations, checkpoint schedule) derives from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct SoakSpec {
    /// Master seed of the run.
    pub seed: u64,
    /// Total ticks to simulate on the primary simulation.
    pub ticks: usize,
    /// World size range (inclusive) handed to the world generator.
    pub min_units: usize,
    /// See [`SoakSpec::min_units`].
    pub max_units: usize,
}

impl SoakSpec {
    /// A spec with the default world-size range (40–140 units — big enough
    /// for real index pressure, small enough for thousand-tick horizons).
    pub fn new(seed: u64, ticks: usize) -> SoakSpec {
        SoakSpec {
            seed,
            ticks,
            min_units: 40,
            max_units: 140,
        }
    }
}

/// Aggregate outcome of a successful soak run.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// Ticks simulated on the primary.
    pub ticks: usize,
    /// Checkpoints taken (and shadows resumed).
    pub checkpoints: usize,
    /// Shadow ticks compared digest-for-digest against the primary.
    pub shadow_ticks: usize,
    /// Total deaths observed on the primary.
    pub deaths: usize,
    /// Population after the last tick.
    pub final_population: usize,
    /// Labels of the configurations exercised (primary first).
    pub configs: Vec<String>,
}

/// A violated invariant, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct SoakFailure {
    /// Master seed of the failing run.
    pub seed: u64,
    /// Tick at which the invariant broke.
    pub tick: usize,
    /// What broke.
    pub message: String,
    /// Complete reproducer dump (spec, configurations, script, world
    /// description, trailing digests).
    pub dump: String,
}

impl std::fmt::Display for SoakFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "soak seed {} failed at tick {}: {}",
            self.seed, self.tick, self.message
        )
    }
}

struct SoakRun {
    case: ConformanceCase,
    spec: SoakSpec,
    primary_label: String,
    shadow_label: String,
    recorder: TraceRecorder,
}

impl SoakRun {
    fn fail(&self, tick: usize, message: String) -> SoakFailure {
        let mut dump = String::new();
        let _ = writeln!(
            dump,
            "=== SOAK FAILURE ======================================="
        );
        let _ = writeln!(dump, "spec:      {:?}", self.spec);
        let _ = writeln!(dump, "case:      {}", self.case.describe());
        let _ = writeln!(dump, "primary:   {}", self.primary_label);
        let _ = writeln!(dump, "shadow:    {}", self.shadow_label);
        let _ = writeln!(dump, "tick:      {tick}");
        let _ = writeln!(dump, "violation: {message}");
        let _ = writeln!(dump, "trailing digests (primary):");
        let entries = self.recorder.entries();
        for e in entries.iter().skip(entries.len().saturating_sub(10)) {
            let _ = writeln!(
                dump,
                "  tick {:5}  {:016x}  pop {:4}  deaths {}",
                e.tick, e.digest.hash, e.digest.population, e.deaths
            );
        }
        let _ = writeln!(dump, "script:\n{}", self.case.script_source);
        let _ = writeln!(
            dump,
            "========================================================"
        );
        SoakFailure {
            seed: self.spec.seed,
            tick,
            message,
            dump,
        }
    }
}

/// Drive one soak run to completion (or to its first violated invariant).
pub fn run_soak(spec: &SoakSpec) -> Result<SoakReport, SoakFailure> {
    let mut rng = TestRng::new(spec.seed ^ 0x50AC);
    let mut case = ConformanceCase::generate_sized(spec.seed, spec.min_units, spec.max_units);
    case.ticks = spec.ticks;
    // Long horizons need churn that does not empty the world: bias strongly
    // towards resurrection (deaths then *move* units instead of removing
    // them); the no-resurrect shrinking-population mode still appears.
    case.resurrect = rng.chance(5, 6);

    let schema = case.world.schema.clone();
    let lattice = config_lattice(&schema);
    let primary_idx = rng.below(lattice.len());
    // The shadow resumes under a *different* configuration (wrapping pick),
    // so every checkpoint also exercises cross-config resume.
    let shadow_idx = (primary_idx + 1 + rng.below(lattice.len() - 1)) % lattice.len();
    let (primary_label, primary_config) = lattice[primary_idx].clone();
    let (shadow_label, shadow_config) = lattice[shadow_idx].clone();

    let mut run = SoakRun {
        case,
        spec: *spec,
        primary_label: primary_label.clone(),
        shadow_label: shadow_label.clone(),
        recorder: TraceRecorder::new(),
    };

    let mut primary = run.case.build(primary_config);
    let initial_population = primary.table().len();
    let mut shadow: Option<Simulation> = None;

    let mut report = SoakReport {
        configs: vec![primary_label, shadow_label],
        ..SoakReport::default()
    };
    let mut prev_population = initial_population;
    let mut prev_served: u64 = 0;
    // Seeded checkpoint schedule: intervals between 4 ticks and ~an eighth
    // of the horizon, re-drawn after every checkpoint.
    let max_interval = (spec.ticks / 8).clamp(4, 250);
    let mut next_checkpoint = rng.in_range(4, max_interval);

    for tick in 0..spec.ticks {
        let tick_report = primary
            .step()
            .map_err(|e| run.fail(tick, format!("primary step failed: {e}")))?;
        run.recorder
            .record(tick_report.tick, primary.table(), tick_report.deaths);
        report.ticks += 1;
        report.deaths += tick_report.deaths;
        report.final_population = tick_report.population;

        // Population accounting.
        let digest = primary.digest();
        if tick_report.population != primary.table().len()
            || digest.population != tick_report.population
        {
            return Err(run.fail(
                tick,
                format!(
                    "population accounting broke: report {} vs table {} vs digest {}",
                    tick_report.population,
                    primary.table().len(),
                    digest.population
                ),
            ));
        }
        if run.case.resurrect {
            if tick_report.population != initial_population {
                return Err(run.fail(
                    tick,
                    format!(
                        "resurrection must keep the population constant: \
                         {} vs initial {initial_population}",
                        tick_report.population
                    ),
                ));
            }
        } else if tick_report.population > prev_population {
            return Err(run.fail(
                tick,
                format!(
                    "population grew without resurrection: {} after {prev_population}",
                    tick_report.population
                ),
            ));
        }
        prev_population = tick_report.population;

        // Stats monotonicity.
        let stats = primary.runtime_stats();
        if stats.ticks != (tick as u64) + 1 {
            return Err(run.fail(
                tick,
                format!(
                    "RuntimeStats.ticks drifted: {} after {} ticks",
                    stats.ticks,
                    tick + 1
                ),
            ));
        }
        let served: u64 = stats
            .calls
            .values()
            .map(|s| s.served_total.iter().sum::<u64>())
            .sum();
        if served < prev_served {
            return Err(run.fail(
                tick,
                format!("cumulative served counters decreased: {served} < {prev_served}"),
            ));
        }
        prev_served = served;

        // Shadow lockstep: a previously resumed shadow must reproduce the
        // primary's trajectory digest for digest.
        if let Some(sh) = shadow.as_mut() {
            let shadow_report = sh
                .step()
                .map_err(|e| run.fail(tick, format!("shadow step failed: {e}")))?;
            if sh.digest() != digest {
                // Re-compare through the trace machinery so the failure
                // message carries both sides' digests, populations and
                // death counts.
                let mut primary_tail = TraceRecorder::new();
                primary_tail.record(tick as u64, primary.table(), tick_report.deaths);
                let mut shadow_tail = TraceRecorder::new();
                shadow_tail.record(tick as u64, sh.table(), shadow_report.deaths);
                let cmp = compare_traces(&primary_tail, &shadow_tail);
                debug_assert!(!matches!(cmp, TraceComparison::Identical));
                return Err(run.fail(
                    tick,
                    format!(
                        "resumed shadow ({}) diverged from primary ({}): {cmp}",
                        run.shadow_label, run.primary_label
                    ),
                ));
            }
            report.shadow_ticks += 1;
        }

        // Seeded checkpoint: serialize the primary, resume a fresh shadow
        // under the other configuration, and check the restored state is
        // digest-identical right away.
        next_checkpoint -= 1;
        if next_checkpoint == 0 && tick + 1 < spec.ticks {
            let bytes = primary.checkpoint().unwrap();
            let mut fresh = run.case.build(shadow_config);
            fresh
                .resume(&bytes, shadow_config)
                .map_err(|e| run.fail(tick, format!("resume failed: {e}")))?;
            if fresh.digest() != digest {
                return Err(run.fail(
                    tick,
                    format!(
                        "checkpoint round trip changed the digest: \
                         {:016x} vs {:016x}",
                        digest.hash,
                        fresh.digest().hash
                    ),
                ));
            }
            if fresh.current_tick() != (tick as u64) + 1 {
                return Err(run.fail(
                    tick,
                    format!(
                        "resumed tick counter {} != {}",
                        fresh.current_tick(),
                        tick + 1
                    ),
                ));
            }
            shadow = Some(fresh);
            report.checkpoints += 1;
            next_checkpoint = rng.in_range(4, max_interval);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_soak_runs_clean_and_checkpoints() {
        let report = run_soak(&SoakSpec {
            seed: 11,
            ticks: 40,
            min_units: 10,
            max_units: 30,
        })
        .unwrap_or_else(|f| panic!("{f}\n{}", f.dump));
        assert_eq!(report.ticks, 40);
        assert!(report.checkpoints >= 1, "{report:?}");
        assert!(report.shadow_ticks >= 1, "{report:?}");
        assert_eq!(report.configs.len(), 2);
        assert_ne!(report.configs[0], report.configs[1]);
    }

    #[test]
    fn soak_runs_are_deterministic() {
        let spec = SoakSpec {
            seed: 23,
            ticks: 24,
            min_units: 8,
            max_units: 20,
        };
        let a = run_soak(&spec).unwrap_or_else(|f| panic!("{}", f.dump));
        let b = run_soak(&spec).unwrap_or_else(|f| panic!("{}", f.dump));
        assert_eq!(a.checkpoints, b.checkpoints);
        assert_eq!(a.deaths, b.deaths);
        assert_eq!(a.final_population, b.final_population);
        assert_eq!(a.configs, b.configs);
    }

    #[test]
    fn failure_dumps_are_complete_reproducers() {
        let spec = SoakSpec::new(5, 10);
        let mut case = ConformanceCase::generate_sized(5, 10, 20);
        case.ticks = 10;
        let run = SoakRun {
            case,
            spec,
            primary_label: "layered-tree/serial".into(),
            shadow_label: "scan/2t".into(),
            recorder: TraceRecorder::new(),
        };
        let failure = run.fail(7, "synthetic violation".into());
        assert_eq!(failure.tick, 7);
        for needle in [
            "SOAK FAILURE",
            "synthetic violation",
            "layered-tree/serial",
            "scan/2t",
            "script:",
        ] {
            assert!(failure.dump.contains(needle), "missing {needle}");
        }
        assert!(failure.to_string().contains("tick 7"));
    }
}
