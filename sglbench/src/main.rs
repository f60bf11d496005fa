//! `sglbench` — paper-scale tick benchmark for the SGL engine.
//!
//! ```text
//! sglbench --workload W --seed N --seconds S --trace 0|1   one run; the last
//!                                                          stdout line is the result object
//! sglbench [--seed N] [--quick]                            verify, then every workload
//!                                                          untraced and traced
//! sglbench --aa N [--seed N]                               N sets on N seeds against the
//!                                                          bounds of ./BENCHMARK.json
//! ```
//! See `README.md` beside this package for the metrics and how to read them.

mod json;
mod replay;
mod run;
mod stats;
mod trace;
mod verify;
mod world;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::{result_line, Json};
use run::{RunOptions, END_TO_END};
use stats::{iqr_share, median, sorted};
use world::{workload, Workload, WORKLOADS};

/// The paper's publication date; the hold-out seed is in the README.
const DEFAULT_SEED: u64 = 20070611;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Names the benchmark contract accepts for workloads and metrics.
#[cfg(test)]
pub fn name_is_valid(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        aa: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a duration"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--aa" => args.aa = Some(value.parse().map_err(|_| bad("a count"))?),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

/// The run's scratch directory; spill files live here (via `TMPDIR`) and the
/// whole directory goes away on exit, also when a panic unwinds `main`.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out_dir: &Path) -> Result<Scratch, String> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir = dir.canonicalize().map_err(|e| e.to_string())?;
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    // The `ExecConfig` presets and `EnvTable::new` read these; a benchmark
    // must not depend on the caller's environment.  Single-threaded here.
    for var in ["SGL_EXEC_MODE", "SGL_PARALLELISM", "SGL_PAGE_BUDGET"] {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let out_dir = PathBuf::from(target).join("sglbench");
        let _scratch = Scratch::create(&out_dir)?;
        match (&args.workload, args.aa) {
            (Some(name), _) => single_run(name, &args, out_dir),
            (None, Some(sets)) => aa(sets, &args),
            (None, None) => full_set(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sglbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Window length: as asked, else the contract's; `--quick` divides by 40.
fn seconds_of(args: &Args) -> f64 {
    args.seconds
        .unwrap_or(DEFAULT_SECONDS / if args.quick { 40.0 } else { 1.0 })
}

/// One run of one workload, the unit the benchmark driver invokes.  A run
/// that completes exits 0 and says in its result whether it was correct.
fn single_run(name: &str, args: &Args, out_dir: PathBuf) -> Result<bool, String> {
    let workload = workload(name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?
        .sized(args.quick);
    let opts = RunOptions {
        seed: args.seed,
        seconds: seconds_of(args),
        trace: args.trace,
        out_dir,
    };
    let result = run::run(&workload, &opts)?;
    println!(
        "# sglbench workload={name} seed={} seconds={} trace={} units={} warmup={} ticks={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        workload.spec.units,
        workload.warmup,
        result.ticks
    );
    for m in &result.metrics {
        println!("{} {name} {} {}", m.name, m.value, m.unit);
    }
    let (tick, digest) = result.mark;
    println!("digest {name} {tick} {:016x}", digest.hash);
    for failure in &result.failures {
        eprintln!("sglbench: {name}: {failure}");
    }
    println!(
        "{}",
        result_line(
            result.correct(),
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    Ok(true)
}

/// What the parent reads back from one child run.
struct ChildRun {
    /// No tick, cycle, check or guard failed.
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)` in the order the child reported them.
    metrics: Vec<(String, f64, String)>,
    /// The child's `digest` line: tick and state digest 16 ticks into the
    /// window.
    digest: String,
}

/// Run one workload in a fresh child process, so workloads share no heap or
/// warmed-up allocator with each other, and read its result line back.
fn child(name: &str, seed: u64, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds_of(args).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child run of {name} exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    let digest = text
        .lines()
        .find_map(|l| l.strip_prefix(&format!("digest {name} ")))
        .ok_or_else(|| format!("child run of {name} printed no digest"))?
        .to_string();
    let last = text.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(last)?;
    let num = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result of {name} has no `{key}`"))
    };
    let metrics = result
        .get("metrics")
        .map(Json::fields)
        .unwrap_or_default()
        .iter()
        .map(|(metric, body)| {
            let value = body.get("value").and_then(Json::as_f64);
            let unit = body.get("unit").and_then(Json::as_str);
            value
                .zip(unit)
                .map(|(v, u)| (metric.clone(), v, u.to_string()))
                .ok_or_else(|| format!("metric {metric} of {name} is malformed"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
        digest,
    })
}

/// One end-to-end set: an untraced child run of every workload.
fn end_to_end_set(seed: u64, args: &Args) -> Result<Vec<ChildRun>, String> {
    WORKLOADS
        .iter()
        .map(|w| child(w.name, seed, args, false))
        .collect()
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn print_header(args: &Args) {
    println!(
        "# sglbench seed={} git={} rustc=\"{}\" nproc={} seconds={}{}",
        args.seed,
        tool_version("git", &["rev-parse", "--short", "HEAD"]),
        tool_version("rustc", &["-V"]),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        seconds_of(args),
        if args.quick { " quick" } else { "" }
    );
    for w in &WORKLOADS {
        let w: Workload = w.sized(args.quick);
        println!(
            "# workload {} units={} warmup={} — {}",
            w.name, w.spec.units, w.warmup, w.why
        );
    }
}

/// The one command: verify, every workload untraced, every workload traced.
fn full_set(args: &Args) -> Result<bool, String> {
    print_header(args);
    let (units, ticks) = if args.quick { (128, 16) } else { (512, 32) };
    for line in verify::verify(args.seed, units, ticks)? {
        println!("{line}");
    }
    let mut ok = true;
    let set = end_to_end_set(args.seed, args)?;
    for (w, run) in WORKLOADS.iter().zip(&set) {
        for (metric, value, unit) in &run.metrics {
            println!("{metric} {} {value} {unit}", w.name);
        }
        println!(
            "failed_share {} {} share",
            w.name,
            run.failed / run.attempted.max(1.0)
        );
        ok &= run.correct;
    }
    // The paper's claim as one number: how tick time grows from 4k to 16k
    // units (1 = linear, 2 = the naive executor's quadratic).
    let p50 = |name: &str| {
        let at = WORKLOADS.iter().position(|w| w.name == name)?;
        let found = set[at].metrics.iter().find(|(m, _, _)| m == "tick_ms_p50");
        found.map(|(_, v, _)| *v)
    };
    if let Some((small, large)) = p50("battle_4k").zip(p50("battle_16k")) {
        println!(
            "scaling_exponent_4k_16k all {} exponent",
            (large / small).ln() / 4f64.ln()
        );
    }
    for (w, untraced) in WORKLOADS.iter().zip(&set) {
        let traced = child(w.name, args.seed, args, true)?;
        for (metric, value, unit) in &traced.metrics {
            println!("{metric} {} {value} {unit}", w.name);
        }
        // Two runs of one seed, in two processes, must compute one game.
        if traced.digest != untraced.digest {
            eprintln!(
                "sglbench: {}: the traced and the untraced run of seed {} disagree: {} vs {}",
                w.name, args.seed, traced.digest, untraced.digest
            );
            ok = false;
        }
        ok &= traced.correct;
    }
    println!("# {}", if ok { "all checks passed" } else { "FAILED" });
    Ok(ok)
}

/// Bounds of the end-to-end metrics in a parsed `BENCHMARK.json`, in
/// [`END_TO_END`] order.
fn bounds_of(contract: &Json) -> Result<Vec<f64>, String> {
    let listed = contract
        .get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default();
    END_TO_END
        .iter()
        .map(|def| {
            listed
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(def.name))
                .and_then(|m| m.get("bound"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json gives no bound for {}", def.name))
        })
        .collect()
}

/// Self-test: `sets` end-to-end sets of the same code, each on another seed,
/// against the benchmark's own bounds — the procedure the benchmark driver
/// accepts the benchmark by.  The spread is the distance between the
/// quartiles as a share of the median.
fn aa(sets: usize, args: &Args) -> Result<bool, String> {
    if sets < 2 {
        return Err("--aa needs at least 2 sets".into());
    }
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = bounds_of(&Json::parse(&text)?)?;
    print_header(args);
    let mut all: Vec<Vec<ChildRun>> = Vec::with_capacity(sets);
    for i in 0..sets {
        all.push(end_to_end_set(args.seed + i as u64, args)?);
        println!("# set {} of {sets} done", i + 1);
    }
    println!("# metric workload median iqr/median (max-min)/median bound verdict");
    let mut ok = true;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, def) in END_TO_END.iter().enumerate() {
            let values = all
                .iter()
                .map(|set| match set[wi].metrics.get(mi) {
                    Some((name, value, _)) if name == def.name => Ok(*value),
                    _ => Err(format!("{}: a run did not report {}", w.name, def.name)),
                })
                .collect::<Result<Vec<f64>, String>>()?;
            let s = sorted(&values);
            let mid = median(&values);
            let (spread, range) = (iqr_share(&values), (s[s.len() - 1] - s[0]) / mid);
            let verdict = if spread > bounds[mi] {
                ok = false;
                "EXCEEDS"
            } else if spread > bounds[mi] / 3.0 {
                "within"
            } else {
                "steady"
            };
            println!(
                "{} {} {mid:.4} {spread:.4} {range:.4} {} {verdict}",
                def.name, w.name, bounds[mi]
            );
        }
        if all.iter().any(|set| !set[wi].correct) {
            println!("failed_share {} FAILED", w.name);
            ok = false;
        }
    }
    println!(
        "# {}",
        if ok {
            "every spread within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use run::PER_LAYER;

    #[test]
    fn metric_names_and_units_are_contract_safe() {
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_is_valid(def.name), "{}", def.name);
            assert!(unit_ok(def.unit), "{}", def.unit);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(!name_is_valid("") && !name_is_valid("-x") && !name_is_valid("a b"));
    }

    /// `BENCHMARK.json` and the tables in the source must say the same thing.
    #[test]
    fn benchmark_json_matches_the_source() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let contract = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            contract
                .get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    assert!(["higher", "lower"].contains(&s("better").as_str()));
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let from_source = |defs: &[run::MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), from_source(&END_TO_END));
        assert_eq!(listed("per_layer"), from_source(&PER_LAYER));
        let workloads: Vec<(String, String)> = contract
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert_eq!(
            contract.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        for bound in bounds_of(&contract).unwrap() {
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload battle_4k --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("battle_4k"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(2.5), true));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
        let quick = parse_args(&argv("--quick")).unwrap();
        assert_eq!(seconds_of(&quick), 0.25);
    }

    /// One `--quick`-sized repetition, end to end, untraced and traced.
    #[test]
    fn a_quick_run_measures_and_checks_itself() {
        let mut workload = workload("steering_2k").unwrap().sized(true);
        workload.spec.units = 120;
        let out_dir = std::env::temp_dir().join(format!("sglbench-test-{}", std::process::id()));
        for trace in [false, true] {
            let opts = RunOptions {
                seed: 5,
                seconds: 0.05,
                trace,
                out_dir: out_dir.clone(),
            };
            let result = run::run(&workload, &opts).unwrap();
            assert!(result.correct(), "{:?}", result.failures);
            assert!(result.ticks >= 16);
            let expected = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(result.metrics.len(), expected);
            let line = result_line(true, result.attempted, result.failed, &result.metrics);
            let parsed = Json::parse(&line).unwrap();
            assert_eq!(parsed.get("metrics").unwrap().fields().len(), expected);
        }
        assert!(out_dir.join("trace-steering_2k.jsonl").exists());
        let _ = std::fs::remove_dir_all(out_dir);
    }
}
