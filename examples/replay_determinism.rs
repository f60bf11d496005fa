//! Replay and determinism: the indexed executor is a pure optimization.
//!
//! The paper's whole pitch is that set-at-a-time, index-backed execution of
//! SGL scripts changes *how fast* a tick runs, never *what happens* in the
//! game.  This example makes that visible:
//!
//! 1. run the same seeded battle twice — once naively, once indexed — while
//!    recording a per-tick state digest with the replay harness;
//! 2. compare the two traces (they must be identical);
//! 3. snapshot the final environment to bytes, restore it, and check the
//!    digest survives the round trip (the save-game substrate);
//! 4. checkpoint a *running* simulation mid-battle, resume it into a fresh
//!    simulation under a different executor configuration, and check the
//!    resumed run reproduces the uninterrupted trace tick for tick (the
//!    pause/migrate/crash-recover substrate).
//!
//! ```text
//! cargo run --release --example replay_determinism
//! ```

use sgl::battle::{BattleScenario, Formation, ScenarioConfig};
use sgl::engine::{compare_traces, StateDigest, TraceComparison, TraceRecorder};
use sgl::env::snapshot::{restore, snapshot};
use sgl::exec::ExecConfig;

fn main() {
    let config = ScenarioConfig {
        units: 200,
        density: 0.01,
        seed: 2026,
        formation: Formation::Line,
        ..ScenarioConfig::default()
    };
    let scenario = BattleScenario::generate(config);
    println!(
        "battle: {} units, {:.0}x{:.0} world, line formation, seed {}",
        scenario.table.len(),
        scenario.world_side,
        scenario.world_side,
        config.seed
    );

    // 1. Record one trace per execution mode.
    let ticks = 15;
    let mut traces = Vec::new();
    let configs = [
        ("naive", ExecConfig::naive(&scenario.schema)),
        ("indexed", ExecConfig::indexed(&scenario.schema)),
    ];
    for (mode, config) in configs {
        let mut sim = scenario.build_with_config(config);
        let mut recorder = TraceRecorder::new();
        for _ in 0..ticks {
            let report = sim.step().expect("tick succeeds");
            recorder.record(report.tick, sim.table(), report.deaths);
        }
        let throughput = sim.throughput();
        println!(
            "{:>8}: {:>6.1} ticks/s (mean tick {:?}), final digest {:016x}",
            mode,
            throughput.ticks_per_second,
            throughput.mean_tick,
            sim.digest().hash
        );
        traces.push((mode, recorder, sim));
    }

    // 2. The traces must match tick for tick.
    let (_, naive_trace, _) = &traces[0];
    let (_, indexed_trace, indexed_sim) = &traces[1];
    match compare_traces(naive_trace, indexed_trace) {
        TraceComparison::Identical => println!("traces: identical over {ticks} ticks ✓"),
        // The Display form names the divergent tick and both digests.
        diverged => panic!("the optimization changed game semantics: {diverged}"),
    }

    // 3. Save-game round trip.
    let bytes = snapshot(indexed_sim.table()).expect("snapshot serializes");
    let restored = restore(&bytes, indexed_sim.table().schema()).expect("snapshot restores");
    let before = indexed_sim.digest();
    let after = StateDigest::of_table(&restored);
    assert_eq!(
        before, after,
        "snapshot round trip must preserve the digest"
    );
    println!(
        "snapshot: {} bytes, digest preserved across save/restore ✓",
        bytes.len()
    );

    // 4. Checkpoint a *running* game mid-battle and resume it elsewhere.
    //    Unlike the table snapshot above, the checkpoint also carries the
    //    tick counter, the RNG stream state, the runtime statistics and the
    //    planner state — everything the remaining trajectory depends on.
    let split = 6;
    let mut writer = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
    for _ in 0..split {
        writer.step().expect("tick succeeds");
    }
    let checkpoint = writer.checkpoint().expect("checkpoint serializes");
    println!(
        "checkpoint: {} bytes after tick {split} (tick counter, RNG seed, \
         stats, planner state + table)",
        checkpoint.len()
    );
    drop(writer);

    // Resume into a brand-new simulation — here even under a different
    // configuration (naive execution): every knob is behaviour-neutral, so
    // the resumed run must still reproduce the uninterrupted indexed trace.
    let mut resumed = scenario.build_with_config(ExecConfig::naive(&scenario.schema));
    let naive_config = *resumed.exec_config();
    resumed
        .resume(&checkpoint, naive_config)
        .expect("checkpoint resumes");
    let mut resumed_trace = TraceRecorder::new();
    for _ in split..ticks {
        let report = resumed.step().expect("tick succeeds");
        resumed_trace.record(report.tick, resumed.table(), report.deaths);
    }
    let mut reference_tail = TraceRecorder::new();
    for entry in &indexed_trace.entries()[split..] {
        reference_tail.push(*entry);
    }
    match compare_traces(&reference_tail, &resumed_trace) {
        TraceComparison::Identical => println!(
            "resume: ticks {split}..{ticks} identical to the uninterrupted run \
             (indexed writer → naive reader) ✓"
        ),
        diverged => panic!("checkpoint/resume changed game semantics: {diverged}"),
    }
}
