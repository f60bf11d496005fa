//! End-to-end determinism and purity of the optimization: for every scenario
//! shape and every execution mode the game unfolds identically, and the
//! save-game snapshot preserves state exactly.

use sgl::battle::{
    BattleScenario, Formation, PresetScenario, ScenarioConfig, SkeletonConfig, SkeletonScenario,
};
use sgl::engine::{compare_traces, StateDigest, TraceComparison, TraceRecorder};
use sgl::env::snapshot::{restore, snapshot};
use sgl::env::Schema;
use sgl::exec::ExecConfig;

fn record(
    scenario: &BattleScenario,
    preset: fn(&Schema) -> ExecConfig,
    ticks: usize,
) -> TraceRecorder {
    let mut sim = scenario.build_with_config(preset(&scenario.schema));
    let mut recorder = TraceRecorder::new();
    for _ in 0..ticks {
        let report = sim.step().expect("tick succeeds");
        recorder.record(report.tick, sim.table(), report.deaths);
    }
    recorder
}

#[test]
fn naive_and_indexed_traces_are_identical_for_every_formation() {
    for formation in Formation::ALL {
        let config = ScenarioConfig {
            units: 80,
            density: 0.02,
            seed: 31,
            formation,
            ..ScenarioConfig::default()
        };
        let scenario = BattleScenario::generate(config);
        let naive = record(&scenario, ExecConfig::naive, 5);
        let indexed = record(&scenario, ExecConfig::indexed, 5);
        assert_eq!(
            compare_traces(&naive, &indexed),
            TraceComparison::Identical,
            "naive and indexed runs diverged with the {} formation",
            formation.name()
        );
    }
}

/// The naive baseline runs the same bytecode as the planned rows, but
/// without an index view: nothing is built, probed, maintained or served
/// from a materialized answer, and every aggregate evaluation is a scan.
#[test]
fn naive_mode_builds_and_probes_no_index() {
    for preset in PresetScenario::all() {
        let mut sim = preset.build_with_config(ExecConfig::naive(&preset.schema));
        for tick in 0..6 {
            let exec = sim.step().expect("tick succeeds").exec;
            let at = format!("{} tick {tick}: {exec:?}", preset.name);
            assert_eq!(exec.indexes_built, 0, "{at}");
            assert_eq!(exec.index_probes, 0, "{at}");
            assert_eq!(exec.maintained_probes, 0, "{at}");
            assert_eq!(exec.materialized_serves, 0, "{at}");
            assert_eq!(exec.naive_scans, exec.aggregate_probes, "{at}");
            assert!(exec.aggregate_probes > 0, "{at}");
        }
    }
}

#[test]
fn the_skeleton_horde_scenario_is_mode_independent() {
    let config = SkeletonConfig {
        defenders: 20,
        skeletons: 60,
        density: 0.03,
        seed: 13,
        ..SkeletonConfig::default()
    };
    let scenario = SkeletonScenario::generate(config);
    let mut naive = scenario.build_with_config(ExecConfig::naive(&scenario.schema));
    let mut indexed = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
    for _ in 0..6 {
        naive.step().unwrap();
        indexed.step().unwrap();
        assert_eq!(naive.digest(), indexed.digest());
    }
}

#[test]
fn reruns_with_the_same_seed_reproduce_the_same_trace() {
    let config = ScenarioConfig {
        units: 60,
        density: 0.02,
        seed: 8,
        formation: Formation::Wedge,
        ..ScenarioConfig::default()
    };
    let a = record(&BattleScenario::generate(config), ExecConfig::indexed, 6);
    let b = record(&BattleScenario::generate(config), ExecConfig::indexed, 6);
    assert_eq!(compare_traces(&a, &b), TraceComparison::Identical);
    // And a different seed must *not* reproduce it.
    let other = ScenarioConfig { seed: 9, ..config };
    let c = record(&BattleScenario::generate(other), ExecConfig::indexed, 6);
    assert_ne!(compare_traces(&a, &c), TraceComparison::Identical);
}

#[test]
fn snapshots_preserve_mid_battle_state_exactly() {
    let config = ScenarioConfig {
        units: 70,
        density: 0.02,
        seed: 21,
        formation: Formation::Box,
        ..ScenarioConfig::default()
    };
    let scenario = BattleScenario::generate(config);
    let mut sim = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
    sim.run(4).unwrap();

    let bytes = snapshot(sim.table()).unwrap();
    let restored = restore(&bytes, sim.table().schema()).expect("snapshot restores");
    assert_eq!(StateDigest::of_table(&restored), sim.digest());
    assert_eq!(restored.len(), sim.table().len());

    // The snapshot must also be bit-stable: saving twice gives the same bytes.
    assert_eq!(bytes, snapshot(sim.table()).unwrap());
}

#[test]
fn timing_metrics_are_collected_for_every_tick() {
    let config = ScenarioConfig {
        units: 50,
        density: 0.02,
        seed: 5,
        ..ScenarioConfig::default()
    };
    let scenario = BattleScenario::generate(config);
    let mut sim = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
    let summary = sim.run(4).unwrap();
    assert!(summary.timings.total() > std::time::Duration::ZERO);
    let throughput = sim.throughput();
    assert_eq!(throughput.ticks, 4);
    assert!(throughput.ticks_per_second > 0.0);
    assert!(throughput.mean_tick <= throughput.worst_tick);
    // Each recorded tick carries its own phase breakdown.
    for report in sim.history() {
        assert!(report.timings.exec > std::time::Duration::ZERO);
    }
}
