//! Metamorphic checkpoint equivalence: for any configuration and any split
//! point `k`,
//!
//! ```text
//! run(N)  ≡  run(k) → checkpoint → resume → run(N − k)
//! ```
//!
//! by bit-identical `StateDigest` at every tick.  This is the conformance
//! suite's argument extended across a process boundary: the checkpoint must
//! capture *all* state the trajectory depends on (table, tick counter, RNG
//! stream, runtime statistics, installed physical choices), and whatever it
//! does not capture (maintained index structures, materialized answers) must be a
//! deterministic function of what it does.
//!
//! The sweep covers ≥ 8 generated `(script, world)` seeds × the full
//! 18-entry configuration lattice (including the forced-materialized rows,
//! whose answer stores are deliberately *not* serialized and must be
//! rebuilt on resume), with the split point chosen seeded and *odd* — the
//! cost-based lattice rows re-cost on a 2-tick window, so an odd split
//! resumes mid-window with materialized answers live.  A second sweep
//! resumes under a *different* configuration than the writer (different
//! parallelism, forced backend, planner and naive↔indexed), and a third
//! checks the reader rejects
//! corrupted and mismatched input with typed errors.

use sgl::engine::StateDigest;
use sgl::env::EnvError;
use sgl::exec::{ExecConfig, Parallelism, PhysicalBackend, PlannerMode};
use sgl_testkit::{config_lattice, ConformanceCase, TestRng};

/// Generated seeds to sweep (acceptance floor is 8).
const SEEDS: u64 = 8;
/// Ticks per case: long enough for several re-costing windows and a
/// mid-horizon split, short enough for the tier-1 budget.
const TICKS: usize = 8;

/// Digests of an uninterrupted run.
fn uninterrupted(case: &ConformanceCase, config: ExecConfig) -> Vec<StateDigest> {
    case.digests(config)
}

/// Digests of `run(k) → checkpoint → resume(reader_config) → run(N−k)`:
/// the first `k` digests come from the writer, the rest from the resumed
/// simulation.
fn interrupted(
    case: &ConformanceCase,
    writer_config: ExecConfig,
    reader_config: ExecConfig,
    k: usize,
) -> Vec<StateDigest> {
    let mut writer = case.build(writer_config);
    let mut digests = Vec::with_capacity(case.ticks);
    for tick in 0..k {
        writer
            .step()
            .unwrap_or_else(|e| panic!("seed {}: writer tick {tick} failed: {e}", case.seed));
        digests.push(writer.digest());
    }
    let bytes = writer.checkpoint().unwrap();
    drop(writer);
    let mut resumed = case.build(reader_config);
    resumed
        .resume(&bytes, reader_config)
        .unwrap_or_else(|e| panic!("seed {}: resume failed: {e}", case.seed));
    assert_eq!(resumed.current_tick() as usize, k);
    for tick in k..case.ticks {
        resumed
            .step()
            .unwrap_or_else(|e| panic!("seed {}: resumed tick {tick} failed: {e}", case.seed));
        digests.push(resumed.digest());
    }
    digests
}

fn assert_equivalent(
    case: &ConformanceCase,
    label: &str,
    k: usize,
    reference: &[StateDigest],
    resumed: &[StateDigest],
) {
    if let Some(tick) = reference.iter().zip(resumed).position(|(a, b)| a != b) {
        panic!(
            "\n=== CHECKPOINT METAMORPHIC FAILURE ===========================\n\
             case:   {}\n\
             config: {label}\n\
             split:  checkpoint after tick {k}\n\
             tick {tick}: uninterrupted {:016x} pop {} vs resumed {:016x} pop {}\n\
             script:\n{}\n\
             ==============================================================",
            case.describe(),
            reference[tick].hash,
            reference[tick].population,
            resumed[tick].hash,
            resumed[tick].population,
            case.script_source,
        );
    }
    assert_eq!(reference.len(), resumed.len());
}

/// The main sweep: every lattice configuration, writer == reader, seeded odd
/// split (mid cost-based re-costing window for the `w2` rows).
#[test]
fn resume_is_digest_identical_across_the_lattice() {
    for seed in 0..SEEDS {
        let mut case = ConformanceCase::generate(seed);
        case.ticks = TICKS;
        let schema = case.world.schema.clone();
        let mut rng = TestRng::new(seed ^ 0xC4EC);
        // Odd k in [1, TICKS-1]: never a boundary of the 2-tick re-costing
        // window, so cost-based rows always resume mid-window.
        let k = 1 + 2 * rng.below(TICKS / 2);
        assert!(k % 2 == 1 && k < TICKS);
        eprintln!("metamorphic: {} · split at {k}", case.describe());
        for (label, config) in config_lattice(&schema) {
            let reference = uninterrupted(&case, config);
            let resumed = interrupted(&case, config, config, k);
            assert_equivalent(&case, &label, k, &reference, &resumed);
        }
    }
}

/// Cross-configuration resume: the writer and the reader run different
/// parallelism, forced backend, planner mode — even naive vs indexed.  The resumed trajectory must still match the reader
/// configuration's own uninterrupted run (which the conformance lattice
/// proves equals everyone else's).
#[test]
fn resume_under_a_different_config_than_the_writer() {
    for seed in 0..SEEDS {
        let mut case = ConformanceCase::generate(seed);
        case.ticks = TICKS;
        let schema = case.world.schema.clone();
        let indexed = ExecConfig::indexed(&schema);
        let forced = |backend| indexed.with_planner(PlannerMode::Force(backend));
        let materialized = forced(PhysicalBackend::Materialized);
        let pairs: Vec<(&str, ExecConfig, ExecConfig)> = vec![
            (
                "serial→4t",
                indexed.with_parallelism(Parallelism::Off),
                indexed.with_parallelism(Parallelism::Threads(4)),
            ),
            (
                "4t→serial",
                indexed.with_parallelism(Parallelism::Threads(4)),
                indexed.with_parallelism(Parallelism::Off),
            ),
            (
                "layered→quadtree",
                indexed,
                forced(PhysicalBackend::QuadTree),
            ),
            (
                "layered→grid",
                indexed,
                forced(PhysicalBackend::MaintainedGrid),
            ),
            (
                "costbased→layered",
                ExecConfig::cost_based(&schema).with_planner(PlannerMode::cost_based(2)),
                indexed,
            ),
            (
                "layered→costbased/2t",
                indexed,
                ExecConfig::cost_based(&schema)
                    .with_planner(PlannerMode::cost_based(2))
                    .with_parallelism(Parallelism::Threads(2)),
            ),
            ("indexed→naive", indexed, ExecConfig::naive(&schema)),
            ("naive→indexed", ExecConfig::naive(&schema), indexed),
            // Materialized answer stores are never serialized: resuming
            // *into* the materialized class rebuilds them from the restored
            // table; resuming *out of* it discards them.  Either direction
            // must be digest-neutral.
            ("materialized→layered", materialized, indexed),
            (
                "costbased→materialized/2t",
                ExecConfig::cost_based(&schema).with_planner(PlannerMode::cost_based(2)),
                materialized.with_parallelism(Parallelism::Threads(2)),
            ),
        ];
        let k = 3; // odd: mid-window for the cost-based writer
        for (label, writer, reader) in pairs {
            let reference = uninterrupted(&case, reader);
            let resumed = interrupted(&case, writer, reader, k);
            assert_equivalent(&case, label, k, &reference, &resumed);
        }
    }
}

/// Checkpoints taken at *every* split point of one case resume identically —
/// including k = 0 (checkpoint before the first tick) and k = N−1.
#[test]
fn every_split_point_is_equivalent() {
    let mut case = ConformanceCase::generate(2);
    case.ticks = 6;
    let schema = case.world.schema.clone();
    let config = ExecConfig::cost_based(&schema).with_planner(PlannerMode::cost_based(2));
    let reference = uninterrupted(&case, config);
    for k in 0..case.ticks {
        let resumed = interrupted(&case, config, config, k);
        assert_equivalent(&case, "costbased/w2/serial", k, &reference, &resumed);
    }
}

/// The checkpoint reader rejects corrupted, truncated and mismatched input
/// with typed errors — never panics, never resumes silently wrong.
#[test]
fn resume_rejects_bad_input_with_typed_errors() {
    let mut case = ConformanceCase::generate(4);
    case.ticks = 6;
    let schema = case.world.schema.clone();
    let config = ExecConfig::indexed(&schema);
    let mut writer = case.build(config);
    for _ in 0..3 {
        writer.step().unwrap();
    }
    let bytes = writer.checkpoint().unwrap();

    let mut rng = TestRng::new(0xBAD_C0DE);
    for _ in 0..200 {
        let mut target = case.build(config);
        let mutated: Vec<u8> = if rng.chance(1, 2) {
            // Seeded bit flip.
            let mut m = bytes.clone();
            let at = rng.below(m.len());
            m[at] ^= 1 << rng.below(8);
            m
        } else {
            // Seeded truncation.
            bytes[..rng.below(bytes.len())].to_vec()
        };
        if mutated == bytes {
            continue;
        }
        let err = target
            .resume(&mutated, config)
            .expect_err("mutated checkpoints must be rejected");
        // Typed env-layer error, with tick state untouched.
        assert!(
            matches!(
                err,
                sgl::engine::error::EngineError::Env(
                    EnvError::Checkpoint(_) | EnvError::Snapshot(_)
                )
            ),
            "unexpected error shape: {err}"
        );
        assert_eq!(target.current_tick(), 0);
    }

    // Fingerprint mismatch: a checkpoint from a different-schema world.
    let other = sgl::env::schema::paper_schema().into_shared();
    let table = sgl::env::EnvTable::new(other.clone());
    let mechanics = sgl::engine::Mechanics {
        post: sgl::env::PostProcessor::new(other.clone()),
        movement: None,
        resurrect: None,
    };
    let mut foreign = sgl::engine::Simulation::new(
        table,
        sgl::lang::builtins::paper_registry(),
        mechanics,
        ExecConfig::naive(&other),
        1,
    );
    let err = foreign
        .resume(&bytes, ExecConfig::naive(&other))
        .unwrap_err();
    assert!(err.to_string().contains("schema"), "{err}");
}
