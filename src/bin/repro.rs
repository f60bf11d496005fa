//! Experiment harness reproducing the paper's evaluation (§6).
//!
//! ```text
//! cargo run --release --bin repro -- fig10      # Figure 10 scaling sweep
//! cargo run --release --bin repro -- density    # density experiment
//! cargo run --release --bin repro -- capacity   # ticks/second capacity claim
//! cargo run --release --bin repro -- all        # everything (default)
//! ```
//!
//! Absolute numbers depend on the machine; the reproduced quantity is the
//! *shape*: quadratic naive growth, near-linear indexed growth, an order of
//! magnitude gap well before 1 000 units.

use sgl::battle::{battle_schema, scenario::run_battle};
use sgl::exec::ExecConfig;

fn fig10(quick: bool) {
    println!("== Figure 10: total time per 500 ticks vs. number of units (density 1%) ==");
    println!(
        "{:>8} {:>16} {:>16} {:>9}",
        "units", "naive (s/500t)", "indexed (s/500t)", "speedup"
    );
    let sizes: &[usize] = if quick {
        &[250, 500, 1000, 2000]
    } else {
        &[250, 500, 1000, 2000, 4000, 7000, 10000, 14000]
    };
    for &units in sizes {
        // Scale the measured tick count down as n grows so the sweep finishes
        // in reasonable time; the per-tick cost is what matters.
        let ticks = (4000 / units).clamp(2, 20);
        let naive_ticks = if units > 4000 { 2 } else { ticks };
        let schema = battle_schema();
        let naive = run_battle(units, 0.01, ExecConfig::naive(&schema), naive_ticks, 42);
        let indexed = run_battle(units, 0.01, ExecConfig::indexed(&schema), ticks, 42);
        println!(
            "{:>8} {:>16.2} {:>16.2} {:>8.1}x",
            units,
            naive.seconds_per_500_ticks(),
            indexed.seconds_per_500_ticks(),
            naive.seconds_per_tick() / indexed.seconds_per_tick()
        );
    }
}

fn density() {
    println!("== Density experiment: 500 units, density 0.5%-8% ==");
    println!(
        "{:>9} {:>16} {:>16}",
        "density", "naive (s/500t)", "indexed (s/500t)"
    );
    for density in [0.005, 0.01, 0.02, 0.04, 0.08] {
        let schema = battle_schema();
        let naive = run_battle(500, density, ExecConfig::naive(&schema), 5, 42);
        let indexed = run_battle(500, density, ExecConfig::indexed(&schema), 5, 42);
        println!(
            "{:>8.1}% {:>16.2} {:>16.2}",
            density * 100.0,
            naive.seconds_per_500_ticks(),
            indexed.seconds_per_500_ticks()
        );
    }
}

fn capacity() {
    println!("== Capacity at 10 ticks/second (section 6.1) ==");
    let schema = battle_schema();
    let configs = [
        ("naive", ExecConfig::naive(&schema)),
        ("indexed", ExecConfig::indexed(&schema)),
    ];
    for (mode, config) in configs {
        let mut supported = 0usize;
        for &units in &[250usize, 500, 1000, 2000, 4000, 8000, 12000, 16000] {
            let ticks = if mode == "naive" && units > 2000 {
                2
            } else {
                3
            };
            let m = run_battle(units, 0.01, config, ticks, 42);
            if m.ticks_per_second() >= 10.0 {
                supported = units;
            } else {
                break;
            }
        }
        println!("{mode}: supports ~{supported} units at >= 10 ticks/second");
    }
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let quick = std::env::args().any(|a| a == "--quick");
    match arg.as_str() {
        "fig10" => fig10(quick),
        "density" => density(),
        "capacity" => capacity(),
        _ => {
            fig10(quick);
            println!();
            density();
            println!();
            capacity();
        }
    }
}
