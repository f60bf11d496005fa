//! Cross-crate integration tests: the naive and the indexed executors must
//! agree on the game they simulate (the optimization is purely a performance
//! transformation), and the battle case study must exercise the whole stack.

use sgl::battle::{BattleScenario, ScenarioConfig};
use sgl::exec::ExecConfig;

fn scenario(units: usize, seed: u64) -> BattleScenario {
    BattleScenario::generate(ScenarioConfig {
        units,
        density: 0.02,
        seed,
        ..ScenarioConfig::default()
    })
}

#[test]
fn naive_and_indexed_battles_agree_on_integer_state() {
    let scenario = scenario(60, 77);
    let mut naive = scenario.build_with_config(ExecConfig::naive(&scenario.schema));
    let mut indexed = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
    let schema = scenario.schema.clone();
    let health = schema.attr_id("health").unwrap();
    let cooldown = schema.attr_id("cooldown").unwrap();
    let posx = schema.attr_id("posx").unwrap();
    let posy = schema.attr_id("posy").unwrap();

    for tick in 0..4 {
        naive.step().unwrap();
        indexed.step().unwrap();
        assert_eq!(
            naive.table().sorted_keys(),
            indexed.table().sorted_keys(),
            "tick {tick}"
        );
        for key in naive.table().sorted_keys() {
            let a = naive
                .table()
                .row(naive.table().find_key_readonly(key).unwrap());
            let b = indexed
                .table()
                .row(indexed.table().find_key_readonly(key).unwrap());
            assert_eq!(
                a.get_i64(health).unwrap(),
                b.get_i64(health).unwrap(),
                "tick {tick} unit {key} health"
            );
            assert_eq!(
                a.get_i64(cooldown).unwrap(),
                b.get_i64(cooldown).unwrap(),
                "tick {tick} unit {key} cooldown"
            );
            // Positions agree up to floating-point summation order.
            assert!((a.get_f64(posx).unwrap() - b.get_f64(posx).unwrap()).abs() < 1e-6);
            assert!((a.get_f64(posy).unwrap() - b.get_f64(posy).unwrap()).abs() < 1e-6);
        }
    }
}

#[test]
fn indexed_battle_does_substantially_less_aggregate_work() {
    let scenario = scenario(120, 5);
    let mut naive = scenario.build_with_config(ExecConfig::naive(&scenario.schema));
    let mut indexed = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
    let ns = naive.run(2).unwrap();
    let is = indexed.run(2).unwrap();
    // Same number of per-unit aggregate probes are *requested*...
    assert_eq!(ns.exec.aggregate_probes, is.exec.aggregate_probes);
    // ...but the naive engine answers them all by scanning, the indexed one
    // answers none of them that way.
    assert!(ns.exec.naive_scans > 0);
    assert_eq!(is.exec.naive_scans, 0);
    assert!(is.exec.index_probes + is.exec.shared_hits > 0);
    // Index construction is shared across probes: far fewer builds than probes.
    assert!(is.exec.indexes_built * 10 < is.exec.index_probes.max(1));
}

#[test]
fn battles_are_deterministic_for_a_fixed_seed() {
    let a = scenario(50, 123);
    let b = scenario(50, 123);
    let mut sim_a = a.build_with_config(ExecConfig::indexed(&a.schema));
    let mut sim_b = b.build_with_config(ExecConfig::indexed(&b.schema));
    for _ in 0..5 {
        sim_a.step().unwrap();
        sim_b.step().unwrap();
    }
    let schema = a.schema.clone();
    let health = schema.attr_id("health").unwrap();
    let posx = schema.attr_id("posx").unwrap();
    assert_eq!(sim_a.table().sorted_keys(), sim_b.table().sorted_keys());
    for key in sim_a.table().sorted_keys() {
        let ra = sim_a
            .table()
            .row(sim_a.table().find_key_readonly(key).unwrap());
        let rb = sim_b
            .table()
            .row(sim_b.table().find_key_readonly(key).unwrap());
        assert_eq!(ra.get_i64(health).unwrap(), rb.get_i64(health).unwrap());
        assert_eq!(ra.get_f64(posx).unwrap(), rb.get_f64(posx).unwrap());
    }
}

#[test]
fn different_seeds_produce_different_battles() {
    let (a, b) = (scenario(50, 1), scenario(50, 2));
    let mut sim_a = a.build_with_config(ExecConfig::indexed(&a.schema));
    let mut sim_b = b.build_with_config(ExecConfig::indexed(&b.schema));
    sim_a.run(3).unwrap();
    sim_b.run(3).unwrap();
    let posx = sim_a.table().schema().attr_id("posx").unwrap();
    let xs_a: Vec<i64> = sim_a
        .table()
        .column_f64(posx)
        .unwrap()
        .iter()
        .map(|x| (x * 100.0) as i64)
        .collect();
    let xs_b: Vec<i64> = sim_b
        .table()
        .column_f64(posx)
        .unwrap()
        .iter()
        .map(|x| (x * 100.0) as i64)
        .collect();
    assert_ne!(xs_a, xs_b);
}

/// The backend equivalence suite: the naive executor and every forced
/// backend — per-tick rebuilt, incrementally maintained and materialized —
/// must produce identical effect relations and state digests on seeded
/// battle scenarios across long runs.
mod backend_equivalence {
    use sgl::battle::{BattleScenario, ScenarioConfig};
    use sgl::engine::replay::StateDigest;
    use sgl::env::Schema;
    use sgl::exec::{ExecConfig, PhysicalBackend, PlannerMode};

    const TICKS: usize = 50;

    /// The naive baseline first, then one forced backend per row.
    fn configs(schema: &Schema) -> Vec<(&'static str, ExecConfig)> {
        let forced =
            |backend| ExecConfig::indexed(schema).with_planner(PlannerMode::Force(backend));
        vec![
            ("naive", ExecConfig::naive(schema)),
            ("layered-tree", ExecConfig::indexed(schema)),
            ("quadtree", forced(PhysicalBackend::QuadTree)),
            ("grid", forced(PhysicalBackend::MaintainedGrid)),
            ("materialized", forced(PhysicalBackend::Materialized)),
        ]
    }

    fn digests_for(scenario: &BattleScenario, config: ExecConfig, label: &str) -> Vec<StateDigest> {
        let mut sim = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
        sim.set_exec_config(config).unwrap();
        (0..TICKS)
            .map(|tick| {
                sim.step()
                    .unwrap_or_else(|e| panic!("{label} tick {tick}: {e}"));
                sim.digest()
            })
            .collect()
    }

    fn check_scenario(units: usize, seed: u64) {
        let scenario = BattleScenario::generate(ScenarioConfig {
            units,
            density: 0.02,
            seed,
            ..ScenarioConfig::default()
        });
        let configs = configs(&scenario.schema);
        let naive = digests_for(&scenario, configs[0].1, configs[0].0);
        for (label, config) in &configs[1..] {
            let digests = digests_for(&scenario, *config, label);
            for tick in 0..TICKS {
                assert_eq!(
                    naive[tick], digests[tick],
                    "seed {seed}: naive vs {label} at tick {tick}"
                );
            }
        }
    }

    #[test]
    fn scenario_one_agrees_across_backends() {
        check_scenario(60, 101);
    }

    #[test]
    fn scenario_two_agrees_across_backends() {
        check_scenario(90, 2024);
    }

    #[test]
    fn scenario_three_agrees_across_backends() {
        check_scenario(120, 777);
    }

    /// The ISSUE-2 parallel-equivalence suite: the sharded executor must be
    /// a pure performance knob — at 2 and 4 worker threads every forced
    /// backend (and the naive baseline) produces **bit-identical**
    /// `StateDigest`s to serial execution, tick for tick, on the same seeded
    /// battles the backend suite uses.
    mod parallel {
        use super::*;
        use sgl::exec::Parallelism;

        fn check_parallel_scenario(units: usize, seed: u64) {
            let scenario = BattleScenario::generate(ScenarioConfig {
                units,
                density: 0.02,
                seed,
                ..ScenarioConfig::default()
            });
            for (label, config) in configs(&scenario.schema) {
                let serial = digests_for(
                    &scenario,
                    config.with_parallelism(Parallelism::Off),
                    &format!("{label}/serial"),
                );
                for threads in [2usize, 4] {
                    let parallel = digests_for(
                        &scenario,
                        config.with_parallelism(Parallelism::Threads(threads)),
                        &format!("{label}/{threads}-threads"),
                    );
                    for tick in 0..TICKS {
                        assert_eq!(
                            serial[tick], parallel[tick],
                            "seed {seed}: {label} at {threads} threads diverged from serial \
                             at tick {tick}"
                        );
                    }
                }
            }
        }

        #[test]
        fn scenario_one_parallel_matches_serial() {
            check_parallel_scenario(60, 101);
        }

        #[test]
        fn scenario_two_parallel_matches_serial() {
            check_parallel_scenario(90, 2024);
        }

        #[test]
        fn scenario_three_parallel_matches_serial() {
            check_parallel_scenario(120, 777);
        }
    }

    /// The per-tick effect relations themselves (not just the resulting
    /// state) must be identical across backends.
    #[test]
    fn effect_relations_are_identical_across_backends() {
        use sgl::engine::Simulation;
        let scenario = BattleScenario::generate(ScenarioConfig {
            units: 50,
            density: 0.02,
            seed: 7,
            ..ScenarioConfig::default()
        });
        let schema = scenario.schema.clone();
        let make = |config: ExecConfig| -> Simulation {
            let mut sim = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
            sim.set_exec_config(config).unwrap();
            sim
        };
        let mut sims = [
            ("naive", make(ExecConfig::naive(&schema))),
            ("rebuild", make(ExecConfig::indexed(&schema))),
            (
                "grid",
                make(
                    ExecConfig::indexed(&schema)
                        .with_planner(PlannerMode::Force(PhysicalBackend::MaintainedGrid)),
                ),
            ),
        ];
        for tick in 0..20 {
            let mut reference: Option<(usize, StateDigest)> = None;
            for (label, sim) in sims.iter_mut() {
                let report = sim.step().unwrap();
                let current = (report.exec.effect_rows, sim.digest());
                match &reference {
                    None => reference = Some(current),
                    Some(expected) => {
                        assert_eq!(
                            *expected, current,
                            "{label} diverged from naive at tick {tick} (effect rows + digest)"
                        );
                    }
                }
            }
        }
    }
}
