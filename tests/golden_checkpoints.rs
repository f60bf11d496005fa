//! Golden checkpoint corpus: committed mid-run checkpoints of two preset
//! battles, taken after tick 10 under the reference writer configuration.
//!
//! Two guarantees are pinned:
//!
//! * **format stability** — re-checkpointing the same preset at the same
//!   tick reproduces the committed bytes exactly (the format, the section
//!   encodings and every EWMA in them are deterministic — including under
//!   `SGL_PARALLELISM=4`, because the statistics pipeline merges shard
//!   observations deterministically);
//! * **resume portability** — every configuration of the 18-entry lattice
//!   resumes the committed checkpoint and reproduces ticks 10..20 of the
//!   *golden digest corpus* (`tests/golden/<preset>.digests`, owned by
//!   `tests/golden_digests.rs`) bit for bit.  The two golden corpora
//!   cross-validate each other.
//!
//! Regenerate after an intentional format or semantics change:
//!
//! ```text
//! SGL_BLESS=1 cargo test --test golden_checkpoints
//! ```

use std::path::PathBuf;

use sgl::battle::PresetScenario;
use sgl::engine::{Simulation, StateDigest};
use sgl::exec::ExecConfig;
use sgl_testkit::config_lattice;

/// Checkpoints are taken after this many ticks...
const CHECKPOINT_TICK: usize = 10;
/// ...and verified against the golden digests up to this tick.
const TICKS: usize = 20;

/// The two presets in the corpus (a subset of the digest corpus, so their
/// `.digests` files provide the reference continuation).
const PRESETS: [&str; 2] = ["siege", "mixed-formations"];

fn preset(name: &str) -> PresetScenario {
    PresetScenario::all()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("unknown preset `{name}`"))
}

/// The reference writer configuration.  Deliberately the plain indexed
/// preset: it inherits `SGL_PARALLELISM`, so the CI matrix also proves the
/// checkpoint *bytes* are parallelism-independent.
fn writer_config(p: &PresetScenario) -> ExecConfig {
    ExecConfig::indexed(&p.schema)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.t{CHECKPOINT_TICK}.ckpt"))
}

fn digests_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.digests"))
}

/// Ticks 0..20 pinned by the golden *digest* corpus (same parser as
/// `golden_digests.rs`).
fn golden_digests(name: &str) -> Vec<StateDigest> {
    let path = digests_path(name);
    let content = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: no digest corpus at {} ({e})", path.display()));
    content
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let _tick = fields.next();
            let hash = u64::from_str_radix(fields.next().expect("hash"), 16).expect("hex hash");
            let population = fields.next().expect("population").parse().expect("pop");
            StateDigest { hash, population }
        })
        .collect()
}

/// Run the preset to the checkpoint tick under the writer configuration and
/// serialize.
fn write_checkpoint(name: &str) -> Vec<u8> {
    let p = preset(name);
    let mut sim = p.build_with_config(writer_config(&p));
    for tick in 0..CHECKPOINT_TICK {
        sim.step()
            .unwrap_or_else(|e| panic!("{name}: writer tick {tick} failed: {e}"));
    }
    sim.checkpoint().unwrap()
}

fn blessing() -> bool {
    std::env::var("SGL_BLESS").is_ok_and(|v| v == "1")
}

fn golden_checkpoint(name: &str) -> Vec<u8> {
    let path = golden_path(name);
    if blessing() {
        let bytes = write_checkpoint(name);
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create tests/golden");
        std::fs::write(&path, &bytes).expect("write golden checkpoint");
        return bytes;
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: no golden checkpoint at {} ({e}).\n\
             Generate it with: SGL_BLESS=1 cargo test --test golden_checkpoints",
            path.display()
        )
    })
}

/// The checkpoint format (container, section encodings, statistics EWMAs)
/// is byte-stable: re-checkpointing reproduces the committed bytes.
#[test]
fn golden_checkpoints_are_byte_stable() {
    for name in PRESETS {
        let golden = golden_checkpoint(name);
        let fresh = write_checkpoint(name);
        assert_eq!(
            fresh, golden,
            "{name}: checkpoint bytes drifted from tests/golden/{name}.t{CHECKPOINT_TICK}.ckpt — \
             if the format or the semantics changed intentionally, re-bless with \
             SGL_BLESS=1 cargo test --test golden_checkpoints"
        );
    }
}

/// Checkpoints written before the columnar TABLE section (snapshot format
/// v1, row-major tagged values) still resume.  The committed `.v1.ckpt`
/// artifacts are frozen copies of the pre-columnar golden corpus; they are
/// never re-blessed.  Resuming one must land on the same digest as the
/// current corpus and continue bit-identically — the paging layer changed
/// the encoding, not the game.
#[test]
fn v1_table_checkpoints_still_resume() {
    for name in PRESETS {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.t{CHECKPOINT_TICK}.v1.ckpt"));
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{name}: no v1 artifact at {} ({e})", path.display()));
        let reference = golden_digests(name);
        let p = preset(name);
        let config = writer_config(&p);
        let mut sim: Simulation = p.build_with_config(config);
        sim.resume(&bytes, config)
            .unwrap_or_else(|e| panic!("{name}: v1 checkpoint resume failed: {e}"));
        assert_eq!(
            sim.digest(),
            reference[CHECKPOINT_TICK - 1],
            "{name}: v1 checkpoint restored to a different state"
        );
        for (tick, expected) in reference
            .iter()
            .enumerate()
            .take(TICKS)
            .skip(CHECKPOINT_TICK)
        {
            sim.step()
                .unwrap_or_else(|e| panic!("{name}: tick {tick} failed after v1 resume: {e}"));
            assert_eq!(
                sim.digest(),
                *expected,
                "{name}: run resumed from a v1 checkpoint diverged at tick {tick}"
            );
        }
    }
}

/// Every lattice configuration resumes the committed checkpoint and
/// reproduces ticks 10..20 of the golden digest corpus.
#[test]
fn golden_checkpoints_resume_identically_across_the_lattice() {
    for name in PRESETS {
        let bytes = golden_checkpoint(name);
        let reference = golden_digests(name);
        assert!(reference.len() >= TICKS, "{name}: digest corpus too short");
        let p = preset(name);
        for (label, config) in config_lattice(&p.schema) {
            let mut sim: Simulation = p.build_with_config(config);
            sim.resume(&bytes, config)
                .unwrap_or_else(|e| panic!("{name} under {label}: resume failed: {e}"));
            assert_eq!(sim.current_tick() as usize, CHECKPOINT_TICK, "{name}");
            assert_eq!(
                sim.digest(),
                reference[CHECKPOINT_TICK - 1],
                "{name} under {label}: restored state does not match the digest corpus \
                 at the checkpoint tick"
            );
            for (tick, expected) in reference
                .iter()
                .enumerate()
                .take(TICKS)
                .skip(CHECKPOINT_TICK)
            {
                sim.step()
                    .unwrap_or_else(|e| panic!("{name} under {label}: tick {tick} failed: {e}"));
                assert_eq!(
                    sim.digest(),
                    *expected,
                    "{name} under {label}: resumed run diverged from the golden \
                     digests at tick {tick}"
                );
            }
        }
    }
}
