//! Run the four hand-authored preset scenarios of the conformance corpus —
//! siege, mixed formations, fleeing swarm, attrition stalemate — and verify
//! on the fly that the optimized executor reproduces the oracle
//! interpreter's outcome tick for tick.
//!
//! ```text
//! cargo run --release --example preset_battles
//! ```

use sgl::battle::PresetScenario;
use sgl::exec::ExecConfig;

fn main() {
    const TICKS: usize = 25;
    for preset in PresetScenario::all() {
        let mut indexed = preset.build_with_config(ExecConfig::indexed(&preset.schema));
        let mut oracle = preset.build_with_config(ExecConfig::oracle(&preset.schema));
        let start = preset.table.len();
        let mut diverged = false;
        for _ in 0..TICKS {
            indexed.step().expect("indexed tick");
            oracle.step().expect("oracle tick");
            if indexed.digest() != oracle.digest() {
                diverged = true;
                break;
            }
        }
        let digest = indexed.digest();
        println!(
            "{:<22} {:>3} → {:>3} units over {TICKS} ticks · digest {:016x} · oracle {}",
            preset.name,
            start,
            digest.population,
            digest.hash,
            if diverged { "DIVERGED" } else { "agrees" },
        );
        assert!(
            !diverged,
            "{}: optimized execution left the oracle",
            preset.name
        );
    }
}
