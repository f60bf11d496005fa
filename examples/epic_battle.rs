//! An "epic" battle: thousands of knights, archers and healers per side,
//! comparing naive and indexed execution on the same scenario, then
//! sweeping the parallel executor's thread counts on the indexed engine.
//!
//! ```text
//! cargo run --release --example epic_battle [units]
//! ```

use std::time::Instant;

use sgl::battle::{BattleScenario, ScenarioConfig};
use sgl::exec::{ExecConfig, Parallelism};

fn main() {
    let units: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2000);
    let config = ScenarioConfig {
        units,
        density: 0.01,
        seed: 2026,
        ..ScenarioConfig::default()
    };
    let scenario = BattleScenario::generate(config);
    println!(
        "battlefield: {:.0} x {:.0} world, {} units per side",
        scenario.world_side,
        scenario.world_side,
        units / 2
    );

    let configs = [
        ("indexed", ExecConfig::indexed(&scenario.schema)),
        ("naive", ExecConfig::naive(&scenario.schema)),
    ];
    for (mode, config) in configs {
        // Keep the naive run short for large armies — that is the point.
        let ticks = if mode == "naive" && units > 1000 {
            3
        } else {
            10
        };
        let mut sim = scenario.build_with_config(config);
        let start = Instant::now();
        let summary = sim.run(ticks).expect("battle runs");
        let per_tick = start.elapsed().as_secs_f64() / ticks as f64;
        println!(
            "{mode}: {:.3} s/tick ({:.1} ticks/s), {} aggregate probes/tick, {} deaths",
            per_tick,
            1.0 / per_tick,
            summary.exec.aggregate_probes / ticks,
            summary.deaths,
        );
    }

    // Parallel tick execution: a pure performance knob — every thread count
    // fights bit-for-bit the same battle (compare the digests below).
    println!("\nparallel scaling (indexed engine):");
    for threads in [1usize, 2, 4, 8] {
        let parallelism = if threads == 1 {
            Parallelism::Off
        } else {
            Parallelism::Threads(threads)
        };
        let mut sim = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
        sim.set_exec_config(ExecConfig::indexed(&scenario.schema).with_parallelism(parallelism))
            .expect("the battle scripts compile under every configuration");
        let ticks = 10;
        let start = Instant::now();
        sim.run(ticks).expect("battle runs");
        let per_tick = start.elapsed().as_secs_f64() / ticks as f64;
        println!(
            "  {threads} thread(s): {:.3} s/tick ({:.1} ticks/s), digest {:016x}",
            per_tick,
            1.0 / per_tick,
            sim.digest().hash,
        );
    }
}
