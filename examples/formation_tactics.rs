//! Formation tactics from §3.2: archers keep the knights between themselves
//! and the enemy centroid; knights close ranks when their formation spreads
//! out.  Runs the full battle scripts on a small scenario and prints how far
//! the archers stay behind the knights.
//!
//! ```text
//! cargo run --release --example formation_tactics
//! ```

use sgl::battle::{BattleScenario, Formation, ScenarioConfig, UnitKind, UnitMix};
use sgl::exec::ExecConfig;

fn main() {
    let config = ScenarioConfig {
        units: 240,
        density: 0.02,
        mix: UnitMix {
            knights: 0.5,
            archers: 0.5,
            healers: 0.0,
        },
        seed: 11,
        resurrect: false,
        formation: Formation::Line,
    };
    let scenario = BattleScenario::generate(config);
    let mut sim = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));

    let schema = scenario.schema.clone();
    let player = schema.attr_id("player").unwrap();
    let unittype = schema.attr_id("unittype").unwrap();
    let posx = schema.attr_id("posx").unwrap();

    println!("tick | p0 knights x | p0 archers x | p1 centroid x | archers behind knights?");
    for tick in 0..40 {
        sim.step().expect("tick succeeds");
        if tick % 8 != 7 {
            continue;
        }
        let mut knight_x = (0.0, 0usize);
        let mut archer_x = (0.0, 0usize);
        let mut enemy_x = (0.0, 0usize);
        for (_, row) in sim.table().iter() {
            let x = row.get_f64(posx).unwrap();
            if row.get_i64(player).unwrap() == 0 {
                if row.get_i64(unittype).unwrap() == UnitKind::Knight.code() {
                    knight_x = (knight_x.0 + x, knight_x.1 + 1);
                } else if row.get_i64(unittype).unwrap() == UnitKind::Archer.code() {
                    archer_x = (archer_x.0 + x, archer_x.1 + 1);
                }
            } else {
                enemy_x = (enemy_x.0 + x, enemy_x.1 + 1);
            }
        }
        let k = knight_x.0 / knight_x.1.max(1) as f64;
        let a = archer_x.0 / archer_x.1.max(1) as f64;
        let e = enemy_x.0 / enemy_x.1.max(1) as f64;
        // Player 1 attacks from the right, so "behind" means archers have a
        // smaller x than knights.
        let behind = if e > k { a <= k + 1.0 } else { a >= k - 1.0 };
        println!(
            "{:>4} | {:>12.1} | {:>12.1} | {:>13.1} | {}",
            tick + 1,
            k,
            a,
            e,
            behind
        );
    }
}
