//! The skeleton-horde scenario of the paper's motivating example.
//!
//! Section 3 introduces the scalability problem with a concrete story: "the
//! game designer wants a certain type of unit to run in fear from a large
//! number of marching skeletons" — and observes that with per-unit scripts
//! the count aggregate alone costs `O(n)` per unit, `O(n²)` per tick.  This
//! module packages that exact workload as a reusable scenario so examples,
//! tests and benchmarks can measure it directly:
//!
//! * player 0 — a garrison of **defenders** (archers) running the
//!   [`crate::SKELETON_FEAR_SCRIPT`]: count the visible horde, flee when it
//!   exceeds their morale, otherwise shoot the nearest skeleton;
//! * player 1 — a **skeleton horde** (re-using the knight statistics) running
//!   [`MARCH_SCRIPT`]: advance on the enemy centroid and strike whatever is
//!   in reach.
//!
//! Because every defender evaluates a count and a centroid over the whole
//! horde, the naive executor exhibits the quadratic behaviour of the
//! motivating example, while the indexed executor answers all of them from
//! one shared layered aggregate tree — the clearest single illustration of
//! the paper's thesis.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sgl_core::engine::{Simulation, UnitSelector};
use sgl_core::env::{EnvTable, Schema, TupleBuilder, Value};
use sgl_core::exec::ExecConfig;
use sgl_core::GameBuilder;

use crate::{battle_mechanics, battle_registry, battle_schema, UnitKind, SKELETON_FEAR_SCRIPT};

/// SGL source of the horde script: march on the enemy centroid, strike when a
/// target is within reach (a deliberately simple "zombie walk").
pub const MARCH_SCRIPT: &str = r#"
main(u) {
  (let in_reach = CountEnemiesInRange(u, u.range))
  (let visible = CountEnemiesInRange(u, u.sight))
  (let ec = CentroidOfEnemies(u, u.sight)) {
    if in_reach > 0 and u.cooldown = 0 then
      perform Strike(u, getNearestEnemy(u).key);
    else if visible > 0 then
      perform MoveInDirection(u, ec.x, ec.y);
    else
      perform MoveInDirection(u, u.posx - 1, u.posy);
  }
}
"#;

/// Parameters of the skeleton-horde scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkeletonConfig {
    /// Number of defending archers (player 0).
    pub defenders: usize,
    /// Number of skeletons in the horde (player 1).
    pub skeletons: usize,
    /// Fraction of grid squares occupied, as in §6 (determines world size).
    pub density: f64,
    /// Placement / game seed.
    pub seed: u64,
    /// Keep the population constant by resurrecting the fallen (§6 rule).
    pub resurrect: bool,
}

impl Default for SkeletonConfig {
    fn default() -> Self {
        SkeletonConfig {
            defenders: 100,
            skeletons: 400,
            density: 0.01,
            seed: 7,
            resurrect: true,
        }
    }
}

impl SkeletonConfig {
    /// Total unit count.
    pub fn units(&self) -> usize {
        self.defenders + self.skeletons
    }

    /// Side length of the square world implied by the unit count and density.
    pub fn world_side(&self) -> f64 {
        ((self.units() as f64) / self.density.max(1e-6))
            .sqrt()
            .max(4.0)
    }
}

/// A generated skeleton-horde scenario.
#[derive(Debug, Clone)]
pub struct SkeletonScenario {
    /// Shared schema (the battle schema of Eq. (1) plus unit statistics).
    pub schema: Arc<Schema>,
    /// Initial environment.
    pub table: EnvTable,
    /// World side length.
    pub world_side: f64,
    /// Configuration used.
    pub config: SkeletonConfig,
}

impl SkeletonScenario {
    /// Generate the scenario: defenders garrison the left edge, the horde
    /// masses along the right edge in dense marching columns.
    pub fn generate(config: SkeletonConfig) -> SkeletonScenario {
        let schema = battle_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        let world = config.world_side();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut key = 0i64;

        let spawn =
            |table: &mut EnvTable, key: &mut i64, player: i64, kind: UnitKind, x: f64, y: f64| {
                let stats = kind.stats();
                let tuple = TupleBuilder::new(&schema)
                    .set("key", *key)
                    .expect("key")
                    .set("player", player)
                    .expect("player")
                    .set("unittype", kind.code())
                    .expect("unittype")
                    .set("posx", x.clamp(0.0, world))
                    .expect("posx")
                    .set("posy", y.clamp(0.0, world))
                    .expect("posy")
                    .set("health", stats.max_health)
                    .expect("health")
                    .set("max_health", stats.max_health)
                    .expect("max_health")
                    .set("range", stats.range)
                    .expect("range")
                    .set("sight", stats.sight)
                    .expect("sight")
                    .set("morale", stats.morale)
                    .expect("morale")
                    .set("armor", stats.armor)
                    .expect("armor")
                    .set("strength", stats.strength)
                    .expect("strength")
                    .build();
                table.insert(tuple).expect("generated keys are unique");
                *key += 1;
            };

        // Defenders: archers scattered across the left 20 % of the map.
        for _ in 0..config.defenders {
            let x = rng.gen_range(0.0..(world * 0.2).max(1e-6));
            let y = rng.gen_range(0.0..world.max(1e-6));
            spawn(&mut table, &mut key, 0, UnitKind::Archer, x, y);
        }
        // The horde: dense marching columns filling the right 30 % of the map.
        let columns = ((config.skeletons as f64).sqrt().ceil() as usize).max(1);
        for i in 0..config.skeletons {
            let col = (i % columns) as f64;
            let row = (i / columns) as f64;
            let x = world * 0.7 + col * (world * 0.3 / columns as f64) + rng.gen_range(-0.2..0.2);
            let y = (row + 0.5) * (world / (config.skeletons as f64 / columns as f64 + 1.0))
                + rng.gen_range(-0.2..0.2);
            spawn(&mut table, &mut key, 1, UnitKind::Knight, x, y);
        }

        SkeletonScenario {
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
        let player = self.schema.attr_id("player").expect("battle schema");
        GameBuilder::new(Arc::clone(&self.schema), registry, mechanics)
            .exec_config(exec)
            .seed(self.config.seed)
            .script(
                "defender",
                SKELETON_FEAR_SCRIPT,
                UnitSelector::AttrEquals(player, Value::Int(0)),
            )
            .script(
                "skeleton",
                MARCH_SCRIPT,
                UnitSelector::AttrEquals(player, Value::Int(1)),
            )
            .build(self.table.clone())
            .expect("skeleton scripts compile")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_places_both_sides() {
        let config = SkeletonConfig {
            defenders: 30,
            skeletons: 90,
            ..SkeletonConfig::default()
        };
        let scenario = SkeletonScenario::generate(config);
        assert_eq!(scenario.table.len(), 120);
        assert_eq!(config.units(), 120);
        let player = scenario.schema.attr_id("player").unwrap();
        let posx = scenario.schema.attr_id("posx").unwrap();
        let mut defenders = 0;
        let mut skeletons = 0;
        for (_, row) in scenario.table.iter() {
            let x = row.get_f64(posx).unwrap();
            match row.get_i64(player).unwrap() {
                0 => {
                    defenders += 1;
                    assert!(x <= scenario.world_side * 0.2 + 1e-9);
                }
                1 => {
                    skeletons += 1;
                    assert!(x >= scenario.world_side * 0.6);
                }
                other => panic!("unexpected player {other}"),
            }
        }
        assert_eq!(defenders, 30);
        assert_eq!(skeletons, 90);
    }

    #[test]
    fn the_march_script_compiles_and_runs() {
        let config = SkeletonConfig {
            defenders: 15,
            skeletons: 45,
            density: 0.02,
            ..SkeletonConfig::default()
        };
        let scenario = SkeletonScenario::generate(config);
        let mut sim = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
        let summary = sim.run(5).unwrap();
        assert_eq!(summary.ticks, 5);
        assert_eq!(
            summary.final_population, 60,
            "resurrection keeps the population constant"
        );
        assert!(summary.exec.aggregate_probes > 0);
    }

    #[test]
    fn the_horde_advances_on_the_defenders() {
        let config = SkeletonConfig {
            defenders: 20,
            skeletons: 60,
            density: 0.05,
            seed: 3,
            ..SkeletonConfig::default()
        };
        let scenario = SkeletonScenario::generate(config);
        let player = scenario.schema.attr_id("player").unwrap();
        let posx = scenario.schema.attr_id("posx").unwrap();
        let mean_x = |sim: &Simulation| {
            let mut sum = 0.0;
            let mut count = 0usize;
            for (_, row) in sim.table().iter() {
                if row.get_i64(player).unwrap() == 1 {
                    sum += row.get_f64(posx).unwrap();
                    count += 1;
                }
            }
            sum / count as f64
        };
        let mut sim = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
        let before = mean_x(&sim);
        sim.run(12).unwrap();
        let after = mean_x(&sim);
        assert!(
            after < before - 1.0,
            "the horde should have marched toward the defenders ({before:.1} → {after:.1})"
        );
    }

    #[test]
    fn naive_and_indexed_agree_on_the_motivating_example() {
        let config = SkeletonConfig {
            defenders: 12,
            skeletons: 36,
            density: 0.03,
            seed: 11,
            ..SkeletonConfig::default()
        };
        let scenario = SkeletonScenario::generate(config);
        let mut naive = scenario.build_with_config(ExecConfig::naive(&scenario.schema));
        let mut indexed = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
        for _ in 0..4 {
            naive.step().unwrap();
            indexed.step().unwrap();
        }
        assert_eq!(
            naive.digest(),
            indexed.digest(),
            "the indexed executor must be a pure optimization"
        );
    }
}
