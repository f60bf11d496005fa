//! Scenario generation and battle runners for the experiments of §6.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use sgl_core::engine::{RunSummary, Simulation, UnitSelector};
use sgl_core::env::{EnvTable, Schema, TupleBuilder, Value};
use sgl_core::exec::ExecConfig;
use sgl_core::GameBuilder;

use crate::formations::{place, Formation};
use crate::{
    battle_mechanics, battle_registry, battle_schema, UnitKind, ARCHER_SCRIPT, HEALER_SCRIPT,
    KNIGHT_SCRIPT,
};

/// Fraction of each unit type per player.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitMix {
    /// Fraction of knights.
    pub knights: f64,
    /// Fraction of archers.
    pub archers: f64,
    /// Fraction of healers.
    pub healers: f64,
}

impl Default for UnitMix {
    fn default() -> Self {
        UnitMix {
            knights: 1.0 / 3.0,
            archers: 1.0 / 3.0,
            healers: 1.0 / 3.0,
        }
    }
}

/// Parameters of a generated battle (the §6 experimental setup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Total number of units (split evenly between the two players).
    pub units: usize,
    /// Fraction of game-grid squares occupied (§6 uses 1 %); determines the
    /// world side length as `sqrt(units / density)`.
    pub density: f64,
    /// Unit-type mix.
    pub mix: UnitMix,
    /// Seed for unit placement and the game RNG.
    pub seed: u64,
    /// Keep the population constant by resurrecting dead units (§6).
    pub resurrect: bool,
    /// Initial deployment shape of both armies (§3.2 formations); the default
    /// [`Formation::Scattered`] reproduces the paper's uniform placement.
    pub formation: Formation,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            units: 500,
            density: 0.01,
            mix: UnitMix::default(),
            seed: 42,
            resurrect: true,
            formation: Formation::Scattered,
        }
    }
}

impl ScenarioConfig {
    /// Side length of the square world implied by the unit count and density.
    pub fn world_side(&self) -> f64 {
        ((self.units as f64) / self.density.max(1e-6))
            .sqrt()
            .max(4.0)
    }
}

/// A generated battle scenario: schema, initial environment and world size.
#[derive(Debug, Clone)]
pub struct BattleScenario {
    /// Shared schema.
    pub schema: Arc<Schema>,
    /// Initial environment.
    pub table: EnvTable,
    /// World side length.
    pub world_side: f64,
    /// Configuration used.
    pub config: ScenarioConfig,
}

impl BattleScenario {
    /// Generate a scenario: player 0 on the left half of the map, player 1 on
    /// the right half, unit types interleaved according to the mix.
    pub fn generate(config: ScenarioConfig) -> BattleScenario {
        let schema = battle_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        let world = config.world_side();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let per_player = (config.units / 2).max(1);
        let mut key = 0i64;
        for player in 0..2i64 {
            for i in 0..per_player {
                let frac = i as f64 / per_player as f64;
                let kind = if frac < config.mix.knights {
                    UnitKind::Knight
                } else if frac < config.mix.knights + config.mix.archers {
                    UnitKind::Archer
                } else {
                    UnitKind::Healer
                };
                let stats = kind.stats();
                // Deployment zones keep the armies separated at the start
                // (player 0 left, player 1 right); the formation decides how
                // units are arranged inside their zone.
                let (x, y) = place(
                    config.formation,
                    player,
                    i,
                    per_player,
                    kind,
                    world,
                    &mut rng,
                );
                let tuple = TupleBuilder::new(&schema)
                    .expect_set("key", key)
                    .expect_set("player", player)
                    .expect_set("unittype", kind.code())
                    .expect_set("posx", x)
                    .expect_set("posy", y)
                    .expect_set("health", stats.max_health)
                    .expect_set("max_health", stats.max_health)
                    .expect_set("range", stats.range)
                    .expect_set("sight", stats.sight)
                    .expect_set("morale", stats.morale)
                    .expect_set("armor", stats.armor)
                    .expect_set("strength", stats.strength)
                    .build();
                table.insert(tuple).expect("generated keys are unique");
                key += 1;
            }
        }
        BattleScenario {
            schema,
            table,
            world_side: world,
            config,
        }
    }

    /// Build a simulation under an explicit executor configuration (the
    /// conformance and golden-digest suites sweep the full planner ×
    /// parallelism lattice).
    pub fn build_with_config(&self, exec: ExecConfig) -> Simulation {
        let registry = battle_registry();
        let mechanics = battle_mechanics(&self.schema, self.world_side, self.config.resurrect);
        let unittype = self.schema.attr_id("unittype").expect("battle schema");
        GameBuilder::new(Arc::clone(&self.schema), registry, mechanics)
            .exec_config(exec)
            .seed(self.config.seed)
            .script(
                "knight",
                KNIGHT_SCRIPT,
                UnitSelector::AttrEquals(unittype, Value::Int(UnitKind::Knight.code())),
            )
            .script(
                "archer",
                ARCHER_SCRIPT,
                UnitSelector::AttrEquals(unittype, Value::Int(UnitKind::Archer.code())),
            )
            .script(
                "healer",
                HEALER_SCRIPT,
                UnitSelector::AttrEquals(unittype, Value::Int(UnitKind::Healer.code())),
            )
            .build(self.table.clone())
            .expect("battle scripts compile")
    }
}

/// Result of a timed battle run (one experimental data point).
#[derive(Debug, Clone, Copy)]
pub struct BattleMeasurement {
    /// Number of units.
    pub units: usize,
    /// Occupied-cell density.
    pub density: f64,
    /// Executor configuration measured.
    pub config: ExecConfig,
    /// Ticks simulated.
    pub ticks: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Run summary (aggregate probes, deaths, ...).
    pub summary: RunSummary,
}

impl BattleMeasurement {
    /// Seconds per simulated tick.
    pub fn seconds_per_tick(&self) -> f64 {
        self.elapsed.as_secs_f64() / self.ticks.max(1) as f64
    }

    /// Extrapolated time for 500 ticks (the quantity plotted in Figure 10).
    pub fn seconds_per_500_ticks(&self) -> f64 {
        self.seconds_per_tick() * 500.0
    }

    /// Simulated ticks per second (the capacity metric of §6.1).
    pub fn ticks_per_second(&self) -> f64 {
        1.0 / self.seconds_per_tick().max(1e-12)
    }
}

/// Run and time a battle with the given parameters.
pub fn run_battle(
    units: usize,
    density: f64,
    exec: ExecConfig,
    ticks: usize,
    seed: u64,
) -> BattleMeasurement {
    let config = ScenarioConfig {
        units,
        density,
        seed,
        ..ScenarioConfig::default()
    };
    let scenario = BattleScenario::generate(config);
    let mut sim = scenario.build_with_config(exec);
    let start = Instant::now();
    let summary = sim.run(ticks).expect("battle ticks succeed");
    let elapsed = start.elapsed();
    BattleMeasurement {
        units,
        density,
        config: exec,
        ticks,
        elapsed,
        summary,
    }
}

/// Small extension to build tuples without `unwrap` noise.
trait ExpectSet<'a>: Sized {
    fn expect_set(self, name: &str, value: impl Into<Value>) -> Self;
}

impl<'a> ExpectSet<'a> for TupleBuilder<'a> {
    fn expect_set(self, name: &str, value: impl Into<Value>) -> Self {
        self.set(name, value).expect("battle schema attribute")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_generation_respects_counts_and_world_size() {
        let config = ScenarioConfig {
            units: 120,
            density: 0.01,
            ..ScenarioConfig::default()
        };
        let scenario = BattleScenario::generate(config);
        assert_eq!(scenario.table.len(), 120);
        let expected_side = (120.0f64 / 0.01).sqrt();
        assert!((scenario.world_side - expected_side).abs() < 1e-9);
        // Both players present, all three unit types present.
        let player = scenario.schema.attr_id("player").unwrap();
        let unittype = scenario.schema.attr_id("unittype").unwrap();
        let mut players = [0usize; 2];
        let mut kinds = [0usize; 3];
        for (_, row) in scenario.table.iter() {
            players[row.get_i64(player).unwrap() as usize] += 1;
            kinds[row.get_i64(unittype).unwrap() as usize] += 1;
        }
        assert_eq!(players[0], 60);
        assert_eq!(players[1], 60);
        assert!(kinds.iter().all(|c| *c > 0));
    }

    #[test]
    fn battle_runs_in_both_modes_and_reaches_combat() {
        let config = ScenarioConfig {
            units: 60,
            density: 0.02,
            seed: 9,
            ..ScenarioConfig::default()
        };
        let scenario = BattleScenario::generate(config);
        for config in [
            ExecConfig::naive(&scenario.schema),
            ExecConfig::indexed(&scenario.schema),
        ] {
            let mut sim = scenario.build_with_config(config);
            let summary = sim.run(10).unwrap();
            assert_eq!(summary.ticks, 10);
            assert_eq!(
                summary.final_population, 60,
                "resurrection keeps the population constant"
            );
            assert!(summary.exec.aggregate_probes > 0);
        }
    }

    #[test]
    fn indexed_mode_answers_battle_aggregates_without_scans() {
        let config = ScenarioConfig {
            units: 80,
            density: 0.02,
            seed: 4,
            ..ScenarioConfig::default()
        };
        let scenario = BattleScenario::generate(config);
        let mut sim = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
        let summary = sim.run(3).unwrap();
        assert_eq!(
            summary.exec.naive_scans, 0,
            "every battle aggregate should be index-supported"
        );
        assert!(summary.exec.index_probes > 0);
    }

    /// `index_probes` counts aggregate calls answered by an index, once per
    /// call: the healers' area-of-effect enumerations (`enum_probes`) and the
    /// sweep's per-output look-ups are not further aggregate evaluations, so
    /// the index-served share of a roster with healers never exceeds 1.
    #[test]
    fn healer_rosters_count_one_index_probe_per_aggregate_call() {
        let config = ScenarioConfig {
            units: 120,
            density: 0.05,
            seed: 4,
            formation: Formation::Scattered,
            ..ScenarioConfig::default()
        };
        let scenario = BattleScenario::generate(config);
        let mut sim = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
        let mut enum_probes = 0;
        for _ in 0..30 {
            let exec = sim.step().unwrap().exec;
            assert!(
                exec.index_probes + exec.shared_hits + exec.naive_scans <= exec.aggregate_probes,
                "{exec:?}"
            );
            enum_probes += exec.enum_probes;
        }
        assert!(enum_probes > 0, "no healer enumerated an aura");
    }

    #[test]
    fn measurements_expose_figure10_metrics() {
        let m = run_battle(40, 0.02, ExecConfig::indexed(&battle_schema()), 3, 7);
        assert_eq!(m.units, 40);
        assert!(m.seconds_per_tick() > 0.0);
        assert!(m.seconds_per_500_ticks() > m.seconds_per_tick());
        assert!(m.ticks_per_second() > 0.0);
    }
}
