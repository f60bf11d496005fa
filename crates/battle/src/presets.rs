//! Hand-authored battle scenarios for the conformance corpus.
//!
//! The generated scenarios of [`crate::scenario`] sweep the parameter space;
//! the presets here are *authored* situations chosen to stress specific
//! engine behaviour the random sweeps rarely produce:
//!
//! * [`siege`] — attackers must funnel through a chokepoint in a wall of
//!   stationary defenders, stressing the movement phase's collision
//!   avoidance ("pathfinding" in the §6 engine's sense) and targeted melee;
//! * [`mixed_formations`] — opposing archer/healer lines with a thin knight
//!   screen, stressing the healing aura (area-of-effect actions, §5.4) and
//!   long-range kiting;
//! * [`fleeing_swarm`] — a low-morale swarm facing an advancing wedge; fear
//!   cascades through the swarm as fleeing units crowd into each other's
//!   sight ranges (the motivating example of §3 at its most sensitive, since
//!   every count threshold crossed changes the branch every unit takes);
//! * [`attrition_stalemate`] — armored knights plus dedicated healers on
//!   both sides with resurrection off: damage and healing almost cancel, so
//!   the battle grinds through many near-identical ticks — the worst case
//!   for any incremental index maintenance that drifts.
//!
//! Every preset builds through [`sgl_core::GameBuilder`], so each can run
//! under any [`ExecConfig`] — including the conformance oracle — and all of
//! them are pinned by the golden-digest suite (`tests/golden_digests.rs`).

use std::sync::Arc;

use sgl_core::engine::{Simulation, UnitSelector};
use sgl_core::env::{EnvTable, Schema, TupleBuilder, Value};
use sgl_core::exec::ExecConfig;
use sgl_core::GameBuilder;

use crate::{
    battle_mechanics, battle_registry, battle_schema, UnitKind, ARCHER_SCRIPT, HEALER_SCRIPT,
    KNIGHT_SCRIPT, SKELETON_FEAR_SCRIPT,
};

/// Sentinel `morale` value marking hold-position wall units (no battle stat
/// block uses it), so a selector can address them separately from ordinary
/// knights.
const WALL_MORALE: i64 = 99;

/// SGL source of the wall script: strike whatever steps into reach, never
/// leave the post.
pub const HOLD_SCRIPT: &str = r#"
main(u) {
  (let in_reach = CountEnemiesInRange(u, u.range))
  if in_reach > 0 and u.cooldown = 0 then
    perform Strike(u, getNearestEnemy(u).key);
  else
    perform MoveInDirection(u, u.posx, u.posy);
}
"#;

/// A hand-authored scenario: initial environment plus the script roster.
#[derive(Debug, Clone)]
pub struct PresetScenario {
    /// Stable name (used by the golden-digest corpus).
    pub name: &'static str,
    /// Shared battle schema.
    pub schema: Arc<Schema>,
    /// Initial environment.
    pub table: EnvTable,
    /// World side length.
    pub world_side: f64,
    /// Game seed.
    pub seed: u64,
    /// Whether dead units respawn (§6 rule) or are removed.
    pub resurrect: bool,
    /// `(script name, SGL source, selector)` in registration order.
    scripts: Vec<(&'static str, &'static str, UnitSelector)>,
}

impl PresetScenario {
    /// All presets, in a fixed order (for sweeps and the golden corpus).
    pub fn all() -> Vec<PresetScenario> {
        vec![
            siege(),
            mixed_formations(),
            fleeing_swarm(),
            attrition_stalemate(),
        ]
    }

    /// Build a simulation under an explicit executor configuration (the
    /// conformance and golden-digest suites sweep the full lattice).
    pub fn build_with_config(&self, config: ExecConfig) -> Simulation {
        let registry = battle_registry();
        let mechanics = battle_mechanics(&self.schema, self.world_side, self.resurrect);
        let mut builder = GameBuilder::new(Arc::clone(&self.schema), registry, mechanics)
            .exec_config(config)
            .seed(self.seed);
        for (name, source, selector) in &self.scripts {
            builder = builder.script(name, source, selector.clone());
        }
        builder
            .build(self.table.clone())
            .expect("preset scripts compile")
    }
}

/// Helper collecting units for a preset environment.
struct Roster {
    schema: Arc<Schema>,
    table: EnvTable,
    world: f64,
    key: i64,
}

impl Roster {
    fn new(world: f64) -> Roster {
        let schema = battle_schema().into_shared();
        let table = EnvTable::new(Arc::clone(&schema));
        Roster {
            schema,
            table,
            world,
            key: 0,
        }
    }

    /// Spawn one unit with its stat block; `morale` overrides the stat value
    /// when given (wall sentinels, cowardly swarms).
    fn spawn(&mut self, player: i64, kind: UnitKind, x: f64, y: f64, morale: Option<i64>) {
        let stats = kind.stats();
        let tuple = TupleBuilder::new(&self.schema)
            .set("key", self.key)
            .expect("key")
            .set("player", player)
            .expect("player")
            .set("unittype", kind.code())
            .expect("unittype")
            .set("posx", x.clamp(0.0, self.world))
            .expect("posx")
            .set("posy", y.clamp(0.0, self.world))
            .expect("posy")
            .set("health", stats.max_health)
            .expect("health")
            .set("max_health", stats.max_health)
            .expect("max_health")
            .set("range", stats.range)
            .expect("range")
            .set("sight", stats.sight)
            .expect("sight")
            .set("morale", morale.unwrap_or(stats.morale))
            .expect("morale")
            .set("armor", stats.armor)
            .expect("armor")
            .set("strength", stats.strength)
            .expect("strength")
            .build();
        self.table.insert(tuple).expect("preset keys are unique");
        self.key += 1;
    }

    fn selector(&self, attr: &str, value: i64) -> UnitSelector {
        UnitSelector::AttrEquals(
            self.schema.attr_id(attr).expect("battle schema"),
            Value::Int(value),
        )
    }
}

/// Deterministic placement jitter — an inline LCG like the ones the test
/// modules use, *not* a `rand` engine: the golden-digest corpus pins these
/// layouts, so they must never shift with a vendored-`rand` stream change.
struct Jitter(u64);

impl Jitter {
    fn new(seed: u64) -> Jitter {
        Jitter(seed)
    }

    /// Uniform value in `[lo, hi)`.
    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let unit = ((self.0 >> 11) as f64) / ((1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }
}

/// Siege with chokepoint: a wall of hold-position knights with a single gap
/// shields an archer garrison; the attacking knights must path through the
/// gap under fire.
pub fn siege() -> PresetScenario {
    let world = 56.0;
    let mut r = Roster::new(world);
    let mut rng = Jitter::new(0x51E6E);
    // The wall: player 0 knights every ~4.5 units along x = 28, except a gap
    // around the middle (y in [24, 32]) — the chokepoint.
    let mut y = 2.0;
    while y < world {
        if !(24.0..=32.0).contains(&y) {
            r.spawn(0, UnitKind::Knight, 28.0, y, Some(WALL_MORALE));
        }
        y += 4.5;
    }
    // The garrison: archers behind the wall, loosely clustered opposite the
    // gap so attackers emerging from the chokepoint walk into their range.
    for i in 0..10 {
        let gy = 16.0 + (i as f64) * 2.6 + rng.in_range(-0.4, 0.4);
        let gx = 14.0 + rng.in_range(-3.0, 3.0);
        r.spawn(0, UnitKind::Archer, gx, gy, None);
    }
    // The besiegers: a column of knights east of the wall.
    for i in 0..14 {
        let bx = 42.0 + ((i % 2) as f64) * 3.0 + rng.in_range(-0.5, 0.5);
        let by = 14.0 + (i as f64) * 2.0 + rng.in_range(-0.5, 0.5);
        r.spawn(1, UnitKind::Knight, bx, by, None);
    }
    let scripts = vec![
        ("wall", HOLD_SCRIPT, r.selector("morale", WALL_MORALE)),
        (
            "garrison",
            ARCHER_SCRIPT,
            r.selector("unittype", UnitKind::Archer.code()),
        ),
        (
            "besieger",
            KNIGHT_SCRIPT,
            r.selector("unittype", UnitKind::Knight.code()),
        ),
    ];
    PresetScenario {
        name: "siege",
        schema: r.schema,
        table: r.table,
        world_side: world,
        seed: 0x51E6E,
        resurrect: true,
        scripts,
    }
}

/// Healer/archer mixed formations: two mirrored lines — archers in front,
/// healers behind, a thin knight screen at the flanks — trading volleys
/// while the auras keep the front ranks standing.
pub fn mixed_formations() -> PresetScenario {
    let world = 64.0;
    let mut r = Roster::new(world);
    let mut rng = Jitter::new(0xF0F0);
    for player in 0..2i64 {
        // Mirror the deployment across the map's vertical centre line.
        let dir = if player == 0 { 1.0 } else { -1.0 };
        let front = if player == 0 { 24.0 } else { 40.0 };
        for i in 0..8 {
            let y = 12.0 + (i as f64) * 5.2 + rng.in_range(-0.3, 0.3);
            r.spawn(player, UnitKind::Archer, front, y, None);
            if i % 2 == 0 {
                r.spawn(player, UnitKind::Healer, front - dir * 6.0, y + 2.0, None);
            }
        }
        // Knight screen on the flanks.
        for y in [6.0, 58.0] {
            r.spawn(player, UnitKind::Knight, front + dir * 2.0, y, None);
        }
    }
    let scripts = vec![
        (
            "archer",
            ARCHER_SCRIPT,
            r.selector("unittype", UnitKind::Archer.code()),
        ),
        (
            "healer",
            HEALER_SCRIPT,
            r.selector("unittype", UnitKind::Healer.code()),
        ),
        (
            "knight",
            KNIGHT_SCRIPT,
            r.selector("unittype", UnitKind::Knight.code()),
        ),
    ];
    PresetScenario {
        name: "mixed-formations",
        schema: r.schema,
        table: r.table,
        world_side: world,
        seed: 0xF0F0,
        resurrect: true,
        scripts,
    }
}

/// Fleeing-swarm morale cascade: a dense swarm of morale-1 archers runs the
/// fear script against a knight wedge; each unit that breaks and runs crowds
/// into its neighbours' sight radius and tips *their* counts over the
/// threshold.
pub fn fleeing_swarm() -> PresetScenario {
    let world = 72.0;
    let mut r = Roster::new(world);
    let mut rng = Jitter::new(0x5CA2E);
    // The swarm: a dense disc of cowardly archers left of centre.
    for i in 0..30 {
        let angle = (i as f64) * 0.61803 * std::f64::consts::TAU;
        let radius = 1.5 * ((i + 1) as f64).sqrt();
        let x = 24.0 + radius * angle.cos() + rng.in_range(-0.3, 0.3);
        let y = 36.0 + radius * angle.sin() + rng.in_range(-0.3, 0.3);
        r.spawn(0, UnitKind::Archer, x, y, Some(1));
    }
    // The wedge: rows of knights advancing from the east edge.
    let mut slot = 0usize;
    for row in 0..4usize {
        for j in 0..=row {
            let x = 56.0 + (row as f64) * 2.2;
            let y = 36.0 + ((j as f64) - (row as f64) / 2.0) * 2.4;
            r.spawn(1, UnitKind::Knight, x, y, None);
            slot += 1;
        }
    }
    debug_assert_eq!(slot, 10);
    let scripts = vec![
        ("swarm", SKELETON_FEAR_SCRIPT, r.selector("player", 0)),
        ("wedge", KNIGHT_SCRIPT, r.selector("player", 1)),
    ];
    PresetScenario {
        name: "fleeing-swarm",
        schema: r.schema,
        table: r.table,
        world_side: world,
        seed: 0x5CA2E,
        resurrect: true,
        scripts,
    }
}

/// Attrition stalemate: armored knights backed by dedicated healers on both
/// sides, resurrection off.  Sword damage against plate barely outpaces the
/// healing aura, so the armies grind against each other for many ticks with
/// near-repeating state.
pub fn attrition_stalemate() -> PresetScenario {
    let world = 40.0;
    let mut r = Roster::new(world);
    let mut rng = Jitter::new(0xA77);
    for player in 0..2i64 {
        let dir = if player == 0 { 1.0 } else { -1.0 };
        let front = if player == 0 { 16.0 } else { 24.0 };
        // Two ranks of knights pressed against the centre line.
        for i in 0..8 {
            let x = front - dir * ((i % 2) as f64) * 2.0;
            let y = 12.0 + ((i / 2) as f64) * 4.4 + rng.in_range(-0.2, 0.2);
            r.spawn(player, UnitKind::Knight, x, y, None);
        }
        // A healer behind every pair of knights.
        for i in 0..4 {
            let x = front - dir * 6.0;
            let y = 13.0 + (i as f64) * 4.4 + rng.in_range(-0.2, 0.2);
            r.spawn(player, UnitKind::Healer, x, y, None);
        }
    }
    let scripts = vec![
        (
            "knight",
            KNIGHT_SCRIPT,
            r.selector("unittype", UnitKind::Knight.code()),
        ),
        (
            "healer",
            HEALER_SCRIPT,
            r.selector("unittype", UnitKind::Healer.code()),
        ),
    ];
    PresetScenario {
        name: "attrition-stalemate",
        schema: r.schema,
        table: r.table,
        world_side: world,
        seed: 0xA77,
        resurrect: false,
        scripts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_builds_and_runs_in_every_mode() {
        for preset in PresetScenario::all() {
            assert!(preset.table.len() > 20, "{} is too small", preset.name);
            let configs = [
                ("naive", ExecConfig::naive(&preset.schema)),
                ("indexed", ExecConfig::indexed(&preset.schema)),
                ("oracle", ExecConfig::oracle(&preset.schema)),
            ];
            for (mode, config) in configs {
                let mut sim = preset.build_with_config(config);
                let summary = sim.run(2).unwrap();
                assert_eq!(summary.ticks, 2, "{} under {mode}", preset.name);
                assert!(
                    summary.exec.aggregate_probes > 0,
                    "{} under {mode} evaluated no aggregates",
                    preset.name
                );
            }
        }
    }

    #[test]
    fn preset_names_are_unique_and_stable() {
        let names: Vec<&str> = PresetScenario::all().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "siege",
                "mixed-formations",
                "fleeing-swarm",
                "attrition-stalemate"
            ]
        );
    }

    #[test]
    fn siege_wall_holds_its_posts() {
        let preset = siege();
        let posx = preset.schema.attr_id("posx").unwrap();
        let morale = preset.schema.attr_id("morale").unwrap();
        let wall_xs = |sim: &Simulation| -> Vec<f64> {
            sim.table()
                .iter()
                .filter(|(_, row)| row.get_i64(morale).unwrap() == WALL_MORALE)
                .map(|(_, row)| row.get_f64(posx).unwrap())
                .collect()
        };
        let mut sim = preset.build_with_config(ExecConfig::indexed(&preset.schema));
        let before = wall_xs(&sim);
        assert!(!before.is_empty());
        sim.run(6).unwrap();
        let after = wall_xs(&sim);
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-9, "wall unit moved from x={b} to x={a}");
        }
    }

    #[test]
    fn fleeing_swarm_actually_flees() {
        let preset = fleeing_swarm();
        let player = preset.schema.attr_id("player").unwrap();
        let posx = preset.schema.attr_id("posx").unwrap();
        let swarm_mean_x = |sim: &Simulation| -> f64 {
            let xs: Vec<f64> = sim
                .table()
                .iter()
                .filter(|(_, row)| row.get_i64(player).unwrap() == 0)
                .map(|(_, row)| row.get_f64(posx).unwrap())
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let mut sim = preset.build_with_config(ExecConfig::indexed(&preset.schema));
        let before = swarm_mean_x(&sim);
        sim.run(10).unwrap();
        let after = swarm_mean_x(&sim);
        assert!(
            after < before + 1.0,
            "the swarm should flee west, away from the wedge ({before:.1} → {after:.1})"
        );
    }

    #[test]
    fn attrition_stalemate_stays_populated() {
        let preset = attrition_stalemate();
        let start = preset.table.len();
        let mut sim = preset.build_with_config(ExecConfig::indexed(&preset.schema));
        let summary = sim.run(12).unwrap();
        // Attrition, not a rout: most units survive 12 ticks even with
        // resurrection off.
        assert!(
            summary.final_population * 10 >= start * 7,
            "{} of {start} units left after 12 ticks",
            summary.final_population
        );
    }
}
