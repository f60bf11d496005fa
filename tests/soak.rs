//! Long-horizon soak: drive generated worlds for many ticks with population
//! churn, checkpointing at seeded intervals and checking cross-tick
//! invariants (see `sgl_testkit::soak`).
//!
//! The tick budget is wall-clock bounded through `SGL_SOAK_TICKS` (tier-1
//! default 160 per seed; the CI soak job runs thousands in release mode).
//! On failure the complete reproducer dump is written to
//! `target/soak/soak-seed<seed>.txt` — the CI job uploads that directory as
//! an artifact.

use std::path::PathBuf;

use sgl_testkit::{run_soak, SoakSpec};

fn tick_budget() -> usize {
    std::env::var("SGL_SOAK_TICKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(160)
}

fn dump_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(target).join("soak")
}

#[test]
fn long_horizon_soak_with_seeded_checkpoints() {
    let ticks = tick_budget();
    for seed in [1u64, 2, 3] {
        let spec = SoakSpec::new(seed, ticks);
        match run_soak(&spec) {
            Ok(report) => {
                eprintln!(
                    "soak seed {seed}: {} ticks · {} checkpoints · {} shadow ticks · \
                     {} deaths · final pop {} · primary {} · shadow {}",
                    report.ticks,
                    report.checkpoints,
                    report.shadow_ticks,
                    report.deaths,
                    report.final_population,
                    report.configs[0],
                    report.configs[1],
                );
                assert_eq!(report.ticks, ticks);
                assert!(report.checkpoints >= 1, "soak never checkpointed");
                assert!(report.shadow_ticks >= 1, "soak never compared a shadow");
            }
            Err(failure) => {
                let dir = dump_dir();
                let _ = std::fs::create_dir_all(&dir);
                let path = dir.join(format!("soak-seed{seed}.txt"));
                let _ = std::fs::write(&path, &failure.dump);
                panic!(
                    "{failure}\nreproducer dump written to {}\n{}",
                    path.display(),
                    failure.dump
                );
            }
        }
    }
}

/// Materialized-class soak: a churn-heavy world (deaths + resurrection
/// moving units every tick) runs the force-materialized configuration in
/// lockstep with the oracle interpreter for the whole horizon, with a
/// checkpoint/resume in the middle.  Digests must stay bit-identical
/// through heavy support invalidation — min/max answers whose supporting
/// extremum died must recompute, never serve a stale fold.
#[test]
fn materialized_soak_under_support_invalidation_churn() {
    use sgl::exec::{ExecConfig, PhysicalBackend, PlannerMode};
    use sgl_testkit::ConformanceCase;

    let ticks = (tick_budget() / 2).max(40);
    for seed in [4u64, 6] {
        let mut case = ConformanceCase::generate_sized(seed, 24, 96);
        case.ticks = ticks;
        case.resurrect = true; // deaths respawn and keep the churn going
        let schema = case.world.schema.clone();

        let mat_config = ExecConfig::indexed(&schema)
            .with_planner(PlannerMode::Force(PhysicalBackend::Materialized));
        let mut oracle = case.build(ExecConfig::oracle(&schema));
        let mut mat = case.build(mat_config);

        let mut serves = 0usize;
        let mut invalidations = 0usize;
        let mut deaths = 0usize;
        let split = ticks / 2;
        for tick in 0..ticks {
            oracle.step().expect("oracle tick");
            let report = mat.step().expect("materialized tick");
            serves += report.exec.materialized_serves;
            invalidations += mat.index_manager().last_maint.mat_invalidated;
            deaths += report.deaths;
            assert_eq!(
                mat.digest(),
                oracle.digest(),
                "seed {seed}: materialized diverged from oracle at tick {tick}"
            );
            if tick + 1 == split {
                // Mid-soak process boundary: the answer store is not in the
                // checkpoint and must be rebuilt by the resumed simulation.
                let bytes = mat.checkpoint().expect("checkpoint serializes");
                let mut resumed = case.build(mat_config);
                resumed.resume(&bytes, mat_config).expect("resume");
                assert_eq!(resumed.digest(), mat.digest(), "seed {seed}: resume");
                mat = resumed;
            }
        }
        eprintln!(
            "materialized soak seed {seed}: {ticks} ticks · {serves} O(1) serves · \
             {invalidations} support invalidations · {deaths} deaths"
        );
        assert!(
            serves > 0,
            "seed {seed}: no materialized answer ever served"
        );
        assert!(deaths > 0, "seed {seed}: the world never churned");
        assert!(
            invalidations > 0,
            "seed {seed}: churn never invalidated a stored answer"
        );
    }
}
