//! The six workloads, the seeded world generator and the one place a
//! simulation is assembled.  The engine receives only the generated table and
//! the script text.

use std::sync::Arc;

use sgl_battle::{
    battle_mechanics, battle_registry, battle_schema, UnitKind, ARCHER_SCRIPT, HEALER_SCRIPT,
    KNIGHT_SCRIPT,
};
use sgl_core::engine::{Mechanics, Simulation, UnitSelector};
use sgl_core::env::{
    EnvTable, PageManager, RamPageManager, Schema, SpillPageManager, TupleBuilder, Value, PAGE_ROWS,
};
use sgl_core::exec::{ExecConfig, ExecMode, Parallelism};
use sgl_core::GameBuilder;

/// Copy of `sgl_bench`'s steering script: scalar-arithmetic heavy, few probes.
pub const STEERING_SCRIPT: &str = include_str!("../scripts/steering.sgl");
/// Copy of `sgl_bench`'s sentry script: stationary units, wide standing
/// subscriptions.
pub const SENTRY_SCRIPT: &str = include_str!("../scripts/sentry.sgl");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roster {
    /// §6 knight / archer / healer scripts, selected by unit type.
    Battle,
    Steering,
    Sentry,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planner {
    /// `ExecConfig::cost_based`: per-call-site physical choice, re-costed
    /// every adaptivity window.
    CostBased,
    /// `ExecConfig::indexed`: the paper's per-tick rebuild of layered
    /// aggregate trees, kD-trees and sweep-lines.
    Indexed,
}

/// Everything that decides what a simulation computes and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpec {
    pub roster: Roster,
    pub units: usize,
    /// Share of map squares occupied; the map side is `sqrt(units / density)`.
    pub density: f64,
    /// Both armies interleaved over the whole map, so fighting starts at
    /// tick 0; otherwise each army keeps to its own side.
    pub mixed: bool,
    pub planner: Planner,
    /// Back the table with a spill file holding a quarter of its pages.
    pub spill: bool,
    pub parallelism: Parallelism,
}

impl SimSpec {
    pub fn world_side(&self) -> f64 {
        (self.units as f64 / self.density).sqrt()
    }

    /// Pinned explicitly: the presets read `SGL_EXEC_MODE` and
    /// `SGL_PARALLELISM`, and a benchmark must not depend on either.
    pub fn exec_config(&self, schema: &Schema) -> ExecConfig {
        let base = match self.planner {
            Planner::CostBased => ExecConfig::cost_based(schema),
            Planner::Indexed => ExecConfig::indexed(schema),
        };
        base.with_mode(ExecMode::Compiled)
            .with_parallelism(self.parallelism)
    }

    fn pager(&self, schema: &Schema) -> Result<Arc<dyn PageManager>, String> {
        if !self.spill {
            return Ok(Arc::new(RamPageManager::new()));
        }
        let pages = self.units.div_ceil(PAGE_ROWS) * schema.len();
        let spill = SpillPageManager::new((pages / 4).max(1)).map_err(|e| e.to_string())?;
        Ok(Arc::new(spill))
    }

    /// The registered scripts as `(name, source, selector)`.
    pub fn scripts(&self, schema: &Schema) -> Vec<(&'static str, &'static str, UnitSelector)> {
        let unittype = schema.attr_id("unittype").expect("battle schema");
        let of = |kind: UnitKind| UnitSelector::AttrEquals(unittype, Value::Int(kind.code()));
        match self.roster {
            Roster::Battle => vec![
                ("knight", KNIGHT_SCRIPT, of(UnitKind::Knight)),
                ("archer", ARCHER_SCRIPT, of(UnitKind::Archer)),
                ("healer", HEALER_SCRIPT, of(UnitKind::Healer)),
            ],
            Roster::Steering => vec![("steering", STEERING_SCRIPT, UnitSelector::All)],
            Roster::Sentry => vec![("sentry", SENTRY_SCRIPT, UnitSelector::All)],
        }
    }

    /// Resurrection keeps the population constant, as in §6.
    pub fn mechanics(&self, schema: &Arc<Schema>) -> Mechanics {
        battle_mechanics(schema, self.world_side(), true)
    }
}

/// splitmix64 — small, seedable, and the same everywhere.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generate the initial environment: players alternate by key (so each has
/// `units / 2`), unit types cycle knight / archer / healer within a player,
/// positions are uniform over the map (mixed) or over the player's own 40 %
/// strip (separated).  The table sits on the page manager `spec` asks for.
pub fn generate(spec: &SimSpec, seed: u64) -> Result<(Arc<Schema>, EnvTable), String> {
    let schema = battle_schema().into_shared();
    let side = spec.world_side();
    let mut table = EnvTable::with_pager(Arc::clone(&schema), spec.pager(&schema)?);
    let mut rng = SplitMix64(seed);
    for key in 0..spec.units as i64 {
        let player = key % 2;
        let kind = UnitKind::ALL[(key / 2 % 3) as usize];
        let stats = kind.stats();
        let (u, v) = (rng.next_f64(), rng.next_f64());
        let x = if spec.mixed {
            u * side
        } else {
            (player as f64 * 0.6 + u * 0.4) * side
        };
        let fields: [(&str, Value); 12] = [
            ("key", key.into()),
            ("player", player.into()),
            ("unittype", kind.code().into()),
            ("posx", x.into()),
            ("posy", (v * side).into()),
            ("health", stats.max_health.into()),
            ("max_health", stats.max_health.into()),
            ("range", stats.range.into()),
            ("sight", stats.sight.into()),
            ("morale", stats.morale.into()),
            ("armor", stats.armor.into()),
            ("strength", stats.strength.into()),
        ];
        let mut tuple = TupleBuilder::new(&schema);
        for (name, value) in fields {
            tuple = tuple.set(name, value).expect("battle schema attribute");
        }
        table
            .insert(tuple.build())
            .expect("generated keys are unique");
    }
    Ok((schema, table))
}

/// Assemble the simulation through the top-level API only (`GameBuilder`, an
/// `ExecConfig` preset): the engine receives the table and the script text.
pub fn assemble(
    spec: &SimSpec,
    seed: u64,
    schema: &Arc<Schema>,
    table: EnvTable,
) -> Result<Simulation, String> {
    let mut builder = GameBuilder::new(
        Arc::clone(schema),
        battle_registry(),
        spec.mechanics(schema),
    )
    .exec_config(spec.exec_config(schema))
    .seed(seed);
    for (name, source, selector) in spec.scripts(schema) {
        builder = builder.script(name, source, selector);
    }
    builder.build(table).map_err(|e| e.to_string())
}

pub fn build_sim(spec: &SimSpec, seed: u64) -> Result<Simulation, String> {
    let (schema, table) = generate(spec, seed)?;
    assemble(spec, seed, &schema, table)
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why it is in the set (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    pub spec: SimSpec,
    /// Ticks run before measuring: two adaptivity windows, so the cost-based
    /// planner has re-costed from observed statistics (one window at 16k).
    pub warmup: usize,
}

impl Workload {
    /// `--quick` divides every population by eight.
    pub fn sized(&self, quick: bool) -> Workload {
        let mut w = *self;
        if quick {
            w.spec.units /= 8;
        }
        w
    }
}

const fn spec(roster: Roster, units: usize, planner: Planner) -> SimSpec {
    SimSpec {
        roster,
        units,
        density: 0.01,
        mixed: true,
        planner,
        spill: false,
        parallelism: Parallelism::Off,
    }
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "battle_4k",
        why: "headline: paper scale, just inside the 100 ms tick budget; maintained-grid probes, full-churn maintenance, combat and resurrection all live",
        spec: spec(Roster::Battle, 4000, Planner::CostBased),
        warmup: 16,
    },
    Workload {
        name: "battle_16k",
        why: "beyond capacity: exposes the super-linear terms (cache misses, log n) that 4k hides; with battle_4k gives the scaling exponent",
        spec: spec(Roster::Battle, 16000, Planner::CostBased),
        warmup: 8,
    },
    Workload {
        name: "paper_rebuild_2k",
        why: "the paper's own algorithm: layered trees, kD-tree and sweep-line rebuilt every tick; the only workload where sgl_index tree builds run, since the planner routes battle_* to the grid",
        spec: spec(Roster::Battle, 2000, Planner::Indexed),
        warmup: 16,
    },
    Workload {
        name: "steering_2k",
        why: "one scalar-heavy flocking script on every unit: VM script evaluation dominates, few probes; a VM change shows here and not in sentry_calm_2k",
        spec: spec(Roster::Steering, 2000, Planner::CostBased),
        warmup: 16,
    },
    Workload {
        name: "sentry_calm_2k",
        why: "same IndexManager, opposite use: stationary units in a sparse still world, probes served from materialized answers; reads without writes, bypassing maintenance and post-processing",
        spec: SimSpec {
            density: 0.0005,
            mixed: false,
            ..spec(Roster::Sentry, 2000, Planner::CostBased)
        },
        warmup: 16,
    },
    Workload {
        name: "spill_2k",
        why: "battle roster on a table whose page cache holds a quarter of its pages: per-tick fault-in and eviction IO is the marginal cost; every other workload fits in RAM",
        spec: SimSpec {
            spill: true,
            ..spec(Roster::Battle, 2000, Planner::CostBased)
        },
        warmup: 16,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_core::engine::StateDigest;

    fn small(mixed: bool) -> SimSpec {
        SimSpec {
            mixed,
            ..spec(Roster::Battle, 600, Planner::CostBased)
        }
    }

    fn world(spec: &SimSpec, seed: u64) -> EnvTable {
        generate(spec, seed).unwrap().1
    }

    #[test]
    fn same_seed_same_world_different_seed_different_world() {
        let spec = small(true);
        let a = StateDigest::of_table(&world(&spec, 7));
        assert_eq!(a, StateDigest::of_table(&world(&spec, 7)));
        assert_ne!(a, StateDigest::of_table(&world(&spec, 8)));
        assert_eq!(a.population, 600);
    }

    #[test]
    fn armies_are_even_and_inside_the_map() {
        for mixed in [true, false] {
            let spec = small(mixed);
            let table = world(&spec, 11);
            let schema = table.schema().clone();
            let side = spec.world_side();
            let players = table.column_i64(schema.attr_id("player").unwrap()).unwrap();
            let xs = table.column_f64(schema.attr_id("posx").unwrap()).unwrap();
            let ys = table.column_f64(schema.attr_id("posy").unwrap()).unwrap();
            assert_eq!(players.iter().filter(|p| **p == 0).count(), 300);
            assert_eq!(players.iter().filter(|p| **p == 1).count(), 300);
            assert!(xs.iter().chain(&ys).all(|c| (0.0..side).contains(c)));
            if !mixed {
                // Separated armies leave the middle fifth of the map empty.
                assert!(xs.iter().all(|x| *x < 0.4 * side || *x >= 0.6 * side));
            }
            let kinds = table
                .column_i64(schema.attr_id("unittype").unwrap())
                .unwrap();
            for kind in UnitKind::ALL {
                assert_eq!(kinds.iter().filter(|k| **k == kind.code()).count(), 200);
            }
        }
    }

    #[test]
    fn workload_names_are_contract_safe_and_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::name_is_valid(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(workload(w.name).unwrap().name, w.name);
        }
        assert_eq!(WORKLOADS[1].sized(true).spec.units, 2000);
    }
}
