//! The verify phase of the one-command run: at a small size, every roster
//! must compute the same game under every configuration the benchmark times,
//! and across a checkpoint / resume boundary.

use sgl_core::engine::StateDigest;
use sgl_core::exec::Parallelism;

use crate::world::{build_sim, Planner, Roster, SimSpec};

fn digest_after(spec: &SimSpec, seed: u64, ticks: usize) -> Result<StateDigest, String> {
    let mut sim = build_sim(spec, seed)?;
    sim.run(ticks).map_err(|e| e.to_string())?;
    Ok(sim.digest())
}

/// run(N) ≡ run(N/2) → checkpoint → resume into a fresh simulation → run(N/2).
fn digest_across_resume(spec: &SimSpec, seed: u64, ticks: usize) -> Result<StateDigest, String> {
    let mut writer = build_sim(spec, seed)?;
    writer.run(ticks / 2).map_err(|e| e.to_string())?;
    let bytes = writer.checkpoint().map_err(|e| e.to_string())?;
    let mut reader = build_sim(spec, seed)?;
    reader
        .resume(&bytes, *writer.exec_config())
        .map_err(|e| e.to_string())?;
    reader.run(ticks - ticks / 2).map_err(|e| e.to_string())?;
    Ok(reader.digest())
}

/// Returns one line per roster checked, or the first disagreement.  The
/// one-command run uses 512 units and 32 ticks.
pub fn verify(seed: u64, units: usize, ticks: usize) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for (roster, density, mixed) in [
        (Roster::Battle, 0.01, true),
        (Roster::Steering, 0.01, true),
        (Roster::Sentry, 0.0005, false),
    ] {
        let base = SimSpec {
            roster,
            units,
            density,
            mixed,
            planner: Planner::CostBased,
            spill: false,
            parallelism: Parallelism::Off,
        };
        let reference = digest_after(&base, seed, ticks)?;
        let variants = [
            (
                "indexed",
                SimSpec {
                    planner: Planner::Indexed,
                    ..base
                },
            ),
            (
                "spill-budgeted",
                SimSpec {
                    spill: true,
                    ..base
                },
            ),
            (
                "2 threads",
                SimSpec {
                    parallelism: Parallelism::Threads(2),
                    ..base
                },
            ),
        ];
        for (label, spec) in variants {
            if digest_after(&spec, seed, ticks)? != reference {
                return Err(format!(
                    "{roster:?}: {label} disagrees with cost_based after {ticks} ticks"
                ));
            }
        }
        if digest_across_resume(&base, seed, ticks)? != reference {
            return Err(format!(
                "{roster:?}: run({ticks}) differs from run({h}) -> checkpoint -> resume -> run({h})",
                h = ticks / 2
            ));
        }
        lines.push(format!(
            "verify {roster:?} n={units} ticks={ticks}: cost_based = indexed = spill-budgeted = 2 threads = resumed ({:016x})",
            reference.hash
        ));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_roster_agrees_across_configurations() {
        let lines = super::verify(3, 96, 10).unwrap();
        assert_eq!(lines.len(), 3);
    }
}
