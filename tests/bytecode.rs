//! Register-bytecode compiler coverage: the disassembler, golden
//! compile→disassemble snapshots for every preset battle, a generated sweep
//! of compiled-vs-oracle digests on seeds *beyond* the lattice defaults, and
//! a deny-style source scan keeping the non-test `sgl-exec` crate free of
//! panicking constructs (the tick path must fail through `ExecError`, never
//! through `panic!`).
//!
//! Regenerate the disassembly snapshots after an intentional compiler
//! change:
//!
//! ```text
//! SGL_BLESS=1 cargo test --test bytecode
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use sgl::battle::PresetScenario;
use sgl::exec::ExecConfig;
use sgl_testkit::ConformanceCase;

fn blessing() -> bool {
    std::env::var("SGL_BLESS").is_ok_and(|v| v == "1")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/bytecode")
        .join(format!("{name}.disasm"))
}

/// Compile every script of a preset and render the full disassembly, one
/// section per script.
fn disassemble_preset(p: &PresetScenario) -> String {
    let sim = p.build_with_config(ExecConfig::indexed(&p.schema));
    let mut out = String::new();
    assert!(
        !sim.scripts().is_empty(),
        "{}: preset has no scripts",
        p.name
    );
    for script in sim.scripts() {
        let compiled = script.compiled.as_ref().unwrap_or_else(|| {
            panic!(
                "{}: preset script `{}` did not lower to bytecode",
                p.name, script.name
            )
        });
        let _ = writeln!(out, "=== script `{}` ===", script.name);
        let _ = writeln!(out, "{compiled}");
    }
    out
}

/// The compile→disassemble output of every preset battle is pinned as a
/// golden snapshot: any change to the lowering (instruction selection,
/// register allocation, call-site analysis) shows up as a reviewable diff
/// instead of a silent semantic drift.
#[test]
fn preset_battles_disassemble_to_golden_snapshots() {
    for p in PresetScenario::all() {
        let fresh = disassemble_preset(&p);
        let path = golden_path(p.name);
        if blessing() {
            std::fs::create_dir_all(path.parent().expect("golden dir"))
                .expect("create tests/golden/bytecode");
            std::fs::write(&path, &fresh).expect("write golden disassembly");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: no golden disassembly at {} ({e}).\n\
                 Generate it with: SGL_BLESS=1 cargo test --test bytecode",
                p.name,
                path.display()
            )
        });
        assert_eq!(
            fresh, golden,
            "{}: disassembly drifted from tests/golden/bytecode/{}.disasm — \
             if the compiler changed intentionally, re-bless with \
             SGL_BLESS=1 cargo test --test bytecode",
            p.name, p.name
        );
    }
}

/// The disassembler itself renders the pieces the snapshots rely on:
/// per-instruction lines, the constant pool, and per-call-site summaries.
#[test]
fn disassembler_renders_instructions_and_call_sites() {
    let p = PresetScenario::all().into_iter().next().expect("presets");
    let sim = p.build_with_config(ExecConfig::indexed(&p.schema));
    let script = &sim.scripts()[0];
    let compiled = script.compiled.as_ref().expect("preset script compiles");
    let text = format!("{compiled}");
    // Every instruction index appears as a line label.
    for pc in 0..compiled.instr_count() {
        assert!(
            text.contains(&format!("{pc:3}: ")),
            "instruction {pc} missing from disassembly:\n{text}"
        );
    }
    // Every call site appears both in the disassembly and in the explain
    // annotations, under matching indices.
    let aggs = compiled.agg_site_lines();
    let performs = compiled.perform_site_lines();
    assert!(!performs.is_empty(), "preset script performs no action");
    for (i, (name, line)) in aggs.iter().enumerate() {
        assert!(text.contains(&format!("agg#{i} {name}(")), "{text}");
        assert!(line.contains(&format!("site #{i} {name}(")), "{line}");
    }
    for (i, (name, line)) in performs.iter().enumerate() {
        assert!(text.contains(&format!("perform#{i} {name}(")), "{text}");
        assert!(line.contains(&format!("site #{i} {name}(")), "{line}");
    }
    assert!(compiled.reg_count() > 0);
}

/// An equal-valued Int/Float literal pair: `3` and `3.0` must stay two
/// constants of their own types in the bytecode's literal pool.  Were they
/// pooled as one, `u.health / 3.0` would run as integer division and a
/// full-health healer (16 health: 5 instead of 5.33) would take the other
/// branch.
const INT_FLOAT_LITERAL_PAIR: &str = r#"
main(u) {
  (let a = u.health + 3)
  (let b = u.health / 3.0) {
    if a > 0 and b > 5.2 then
      perform MoveInDirection(u, u.posx + 5, u.posy);
    else
      perform MoveInDirection(u, u.posx - 5, u.posy);
  }
}
"#;

/// Generated conformance sweep on 64 seeds disjoint from the lattice
/// sweep's default range (`tests/conformance.rs` runs seeds `0..32`, CI
/// `0..64`), plus one hand-written script: the bytecode VM must reproduce
/// the oracle interpreter's digest sequence bit for bit, serial and sharded,
/// on cases the lattice never saw.
#[test]
fn compiled_matches_oracle_on_64_seeds_beyond_the_lattice() {
    use sgl::exec::Parallelism;
    let mut literal_pair = ConformanceCase::generate(2000);
    literal_pair.script_source = INT_FLOAT_LITERAL_PAIR.to_string();
    let cases = (2000..2064u64)
        .map(ConformanceCase::generate)
        .chain([literal_pair]);
    for case in cases {
        let seed = case.seed;
        let schema = case.world.schema.clone();
        let oracle = case.digests(ExecConfig::oracle(&schema));
        for (label, par) in [
            ("serial", Parallelism::Off),
            ("4t", Parallelism::Threads(4)),
        ] {
            let config = ExecConfig::indexed(&schema).with_parallelism(par);
            let candidate = case.digests(config);
            assert_eq!(
                candidate,
                oracle,
                "seed {seed} ({label}): compiled VM diverged from the oracle\n\
                 case: {}\nscript:\n{}",
                case.describe(),
                case.script_source
            );
        }
    }
}

/// Deny-style audit: the non-test portion of `sgl-exec` contains no
/// panicking construct.  Every error on the tick path must surface as a
/// typed [`sgl::exec::ExecError`] — a malformed environment variable, a
/// missing plan entry or an index invariant violation may fail the tick,
/// but must never abort the host process.  Test modules (everything from
/// the first `#[cfg(test)]` down, by the crate's module layout) are exempt.
#[test]
fn exec_crate_non_test_code_is_panic_free() {
    let (offenders, audited) = scan_crate_for_panics("crates/exec/src", 10);
    assert!(
        offenders.is_empty(),
        "panicking constructs on non-test sgl-exec paths (use ExecError instead):\n{}",
        offenders.join("\n")
    );
    assert_eq!(audited, 0, "sgl-exec carries no PANIC-AUDIT exemptions");
}

/// Same audit for `sgl-env`'s tick/IO path: the pager (spill-file decode,
/// lock poisoning), snapshot/checkpoint decoding and the table layer all
/// sit on the engine's per-tick residency protocol, where a panic would
/// abort the host instead of failing the tick with a typed
/// [`sgl::env::EnvError`].
#[test]
fn env_crate_non_test_code_is_panic_free() {
    let (offenders, audited) = scan_crate_for_panics("crates/env/src", 5);
    assert!(
        offenders.is_empty(),
        "panicking constructs on non-test sgl-env paths (use EnvError instead):\n{}",
        offenders.join("\n")
    );
    // Six audited sites survive: the infallible `Value` read API over
    // residency-pinned rows (`value_at`, `key_of`, `Tuple::key`), the
    // `Clone` impl (the trait cannot return `Result`), the documented
    // panicking doc-example helper (`TupleBuilderExt::unwrap_key`) and the
    // static `paper_schema` constructor.  Anything beyond that must be
    // converted to a typed `EnvError`.
    assert!(
        audited <= 6,
        "PANIC-AUDIT exemptions in sgl-env grew to {audited} (cap 6) — convert new sites to EnvError"
    );
}

/// Scan a crate's top-level sources for panicking constructs outside test
/// modules (everything from the first `#[cfg(test)]` down, by the repo's
/// module layout).  Lines carrying a `PANIC-AUDIT:` comment are exempt —
/// those mark call sites whose panic is unreachable by an invariant the
/// comment names (e.g. an infallible-by-trait `Clone`, or reads covered by
/// the tick-start residency pin) — but the audited count is capped, so new
/// markers still show up in review.  Returns `(offending lines, audited)`.
fn scan_crate_for_panics(rel_src_dir: &str, min_files: usize) -> (Vec<String>, usize) {
    let src_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel_src_dir);
    let banned = [
        ".unwrap(",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
    ];
    let mut files = 0;
    let mut offenders = Vec::new();
    let mut audited = 0;
    let entries = std::fs::read_dir(&src_dir).expect("crate src dir exists");
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        files += 1;
        let source = std::fs::read_to_string(&path).expect("readable source");
        for (lineno, line) in source.lines().enumerate() {
            if line.contains("#[cfg(test)]") {
                // Unit tests live in a trailing `mod tests` — everything
                // below the marker is test-only.
                break;
            }
            // Strip line comments so prose about panics doesn't trip the
            // scan; string literals still count, which is the safe side.
            let code = line.split("//").next().unwrap_or(line);
            for needle in banned {
                if code.contains(needle) {
                    if line.contains("PANIC-AUDIT:") {
                        audited += 1;
                    } else {
                        offenders.push(format!(
                            "{}:{}: {}",
                            path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
                            lineno + 1,
                            line.trim()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        files >= min_files,
        "expected the {rel_src_dir} sources, saw {files}"
    );
    (offenders, audited)
}
