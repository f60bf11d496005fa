//! One measured run of one workload: set-up, warm-up, the timed window, the
//! save / load cycles and the correctness checks.  Closed loop, one client:
//! tick `i + 1` starts when tick `i` returns.
//!
//! The end-to-end path goes through `GameBuilder`, an `ExecConfig` preset and
//! `Simulation::{step, digest, checkpoint, resume, table}` only, and ignores
//! the `TickReport` a step returns.  A traced run executes the same loop with
//! the recorder on in every other adaptivity window.

use std::time::Instant;

use sgl_core::engine::{Simulation, StateDigest};
use sgl_core::exec::PlannerMode;

use crate::json::Metric;
use crate::replay::{cold_paths, ReplayCounts, Replayer};
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::Tracer;
use crate::world::{assemble, build_sim, generate, Planner, Roster, SimSpec, Workload};

/// Set-ups per run; `setup_s` is their median and the last one is kept.
const SETUP_REPS: usize = 3;
/// Checkpoint → resume round trips after the timed window.
const SAVE_LOAD_CYCLES: usize = 5;
/// The state digest is marked this many ticks into the window, and no window
/// is shorter: two runs of one seed must agree on the mark (they run for a
/// fixed time, so they end on different ticks), and `spill_2k` must agree
/// with an in-RAM twin on it.
const MARK_TICKS: usize = 16;

/// Name and unit of a reported metric; which direction is better is in
/// `BENCHMARK.json`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the engine sees; reported by `--trace 0`.
pub const END_TO_END: [MetricDef; 6] = [
    metric("ticks_per_s", "1/s"),
    metric("tick_ms_p50", "ms"),
    metric("setup_s", "s"),
    metric("peak_rss_mb", "MB"),
    metric("save_ms_p50", "ms"),
    metric("load_ms_p50", "ms"),
];

/// Single layers, measured from outside; reported by `--trace 1`, no bounds.
pub const PER_LAYER: [MetricDef; 46] = [
    metric("lang.parse_us", "us"),
    metric("lang.normalize_us", "us"),
    metric("lang.typecheck_us", "us"),
    metric("algebra.translate_us", "us"),
    metric("algebra.optimize_us", "us"),
    metric("algebra.price_us", "us"),
    metric("exec.compile_us", "us"),
    metric("exec.plan_us", "us"),
    metric("exec.build_us", "us"),
    metric("exec.tick_us", "us"),
    metric("exec.maintain_us", "us"),
    metric("exec.probes", "count"),
    metric("exec.index_probe_share", "share"),
    metric("exec.maintained_probe_share", "share"),
    metric("exec.materialized_serve_share", "share"),
    metric("exec.shared_hit_share", "share"),
    metric("exec.indexes_built", "count"),
    metric("exec.effect_rows", "count"),
    metric("index.build_us.layered", "us"),
    metric("index.build_us.kd", "us"),
    metric("index.build_us.grid", "us"),
    metric("index.probe_ns.layered", "ns"),
    metric("index.probe_ns.kd", "ns"),
    metric("index.probe_ns.grid", "ns"),
    metric("env.post_us", "us"),
    metric("env.fault_in_us", "us"),
    metric("env.evict_us", "us"),
    metric("env.snapshot_us", "us"),
    metric("env.restore_us", "us"),
    metric("env.spill_reads", "count"),
    metric("env.spill_writes", "count"),
    metric("env.evictions", "count"),
    metric("env.bytes_per_unit", "B"),
    metric("engine.movement_us", "us"),
    metric("engine.checkpoint_us", "us"),
    metric("engine.resume_us", "us"),
    metric("engine.digest_us", "us"),
    metric("engine.step_self_us", "us"),
    metric("engine.warmup_us", "us"),
    metric("core.build_us", "us"),
    metric("trace.overhead_share", "share"),
    metric("trace.coverage", "share"),
    metric("trace.replay_self_us", "us"),
    metric("tick.over_100ms_share", "share"),
    metric("tick.tail_ms", "ms"),
    metric("tick.tail_pct", "%"),
];

pub struct RunOptions {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: std::path::PathBuf,
}

pub struct RunResult {
    /// Ticks, save / load cycles and set-ups tried.
    pub attempted: u64,
    /// Of those, how many returned `Err` or failed a check.
    pub failed: u64,
    /// One line per failure or failed guard.
    pub failures: Vec<String>,
    /// The end-to-end metrics (`trace` off) or the per-layer ones (on).
    pub metrics: Vec<Metric>,
    /// Ticks of the timed window that entered the metrics.
    pub ticks: usize,
    /// `(tick, digest)` [`MARK_TICKS`] ticks into the window.
    pub mark: (u64, StateDigest),
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// A guard or check outside the attempted operations: it cannot be
    /// counted against `attempted`, but it still makes the run incorrect.
    fn guard(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(what());
        }
    }
}

/// One tick of the timed window.
struct TickSample {
    us: f64,
    /// Recorder on (a replay preceded the window's first tick).
    traced: bool,
    /// Position inside the adaptivity window; 0 is the re-costing tick.
    pos: u32,
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn elapsed_us(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// One set-up: generate the world from the seed, build the simulation, run
/// the first tick (which builds every lazy structure).  Returns the
/// simulation and the seconds it took.
fn set_up(
    spec: &SimSpec,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(Simulation, f64), String> {
    let start = Instant::now();
    let setup = tracer.begin("setup", 0);
    let (schema, table) = tracer.span("harness.generate", 0, || generate(spec, seed))?;
    let mut sim = tracer.span("core.build_us", 0, || assemble(spec, seed, &schema, table))?;
    tally.attempted += 1;
    tracer
        .span("engine.first_tick", 0, || sim.step())
        .map_err(|e| format!("first tick: {e}"))?;
    tracer.end(setup);
    Ok((sim, start.elapsed().as_secs_f64()))
}

/// What the timed window observed besides tick latency (traced runs only).
#[derive(Default)]
struct WindowTrace {
    /// Replayed tick-path µs and the real tick µs they stand for, summed.
    coverage: (f64, f64),
    /// Real tick − replayed tick path, per replayed tick.
    step_self_us: Vec<f64>,
    /// Page IO of the real ticks only: replay clones share the page manager.
    spill_reads: u64,
    spill_writes: u64,
    ticks_without_spill_reads: u64,
}

/// The timed window, in adaptivity windows: the planner re-costs on the first
/// tick of each, and that is where a traced run replays the layers.  Returns
/// the `(tick, digest)` mark.
fn timed_window(
    sim: &mut Simulation,
    opts: &RunOptions,
    replayer: &mut Replayer,
    tracer: &mut Tracer,
    tally: &mut Tally,
    samples: &mut Vec<TickSample>,
    seen: &mut WindowTrace,
) -> (u64, StateDigest) {
    let window_ticks = match sim.exec_config().planner {
        PlannerMode::CostBased(w) => w.ticks.max(1),
        _ => 8,
    };
    let mut mark = None;
    let window_start = Instant::now();
    let mut window = 0u32;
    'window: loop {
        let traced = opts.trace && window.is_multiple_of(2);
        tracer.set_enabled(traced);
        let mut pending = None;
        if traced {
            match replayer.replay(tracer, sim) {
                Ok(outcome) => pending = Some(outcome),
                Err(e) => tally.failures.push(format!("layer replay: {e}")),
            }
        }
        for pos in 0..window_ticks {
            let tick = sim.current_tick();
            let io_before = opts.trace.then(|| sim.table().pager().stats());
            let span = tracer.begin("tick", tick);
            let start = Instant::now();
            let stepped = sim.step();
            let us = elapsed_us(start);
            tracer.end(span);
            tally.attempted += 1;
            if let Err(e) = stepped {
                tally.fail(format!("tick {tick}: {e}"));
                break 'window;
            }
            samples.push(TickSample { us, traced, pos });
            if let Some(before) = io_before {
                let after = sim.table().pager().stats();
                seen.spill_reads += after.spill_reads - before.spill_reads;
                seen.spill_writes += after.spill_writes - before.spill_writes;
                seen.ticks_without_spill_reads +=
                    u64::from(after.spill_reads == before.spill_reads);
            }
            if let Some(outcome) = pending.take() {
                seen.coverage.0 += outcome.tick_path_us;
                seen.coverage.1 += us;
                seen.step_self_us.push(us - outcome.tick_path_us);
                // Keep the replay honest: it must have run under the
                // physical plan the engine's own re-costing just installed.
                let engine = sim.physical_choices();
                for choice in &outcome.choices {
                    tally.guard(engine.contains(choice), || {
                        format!("replay ran {choice:?} but the engine chose otherwise: {engine:?}")
                    });
                }
            }
            if samples.len() == MARK_TICKS {
                mark = Some((sim.current_tick(), sim.digest()));
            }
            if samples.len() >= MARK_TICKS && window_start.elapsed().as_secs_f64() >= opts.seconds {
                break 'window;
            }
        }
        window += 1;
    }
    tracer.set_enabled(opts.trace);
    // Only a failed tick ends the window before the mark.
    mark.unwrap_or((sim.current_tick(), sim.digest()))
}

/// Save / load: checkpoint the simulation, resume a second one from the bytes
/// and step it (maintained and materialized state is rebuilt lazily there),
/// step the original, and require both to agree.  Returns the save and the
/// load times in milliseconds.
fn save_load_cycles(
    sim: &mut Simulation,
    spec: &SimSpec,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let config = *sim.exec_config();
    let mut save_ms = Vec::with_capacity(SAVE_LOAD_CYCLES);
    let mut load_ms = Vec::with_capacity(SAVE_LOAD_CYCLES);
    let mut shadow = build_sim(spec, seed)?;
    for _ in 0..SAVE_LOAD_CYCLES {
        let tick = sim.current_tick();
        tally.attempted += 1;
        let start = Instant::now();
        let saved = tracer.span("engine.checkpoint_us", tick, || sim.checkpoint());
        save_ms.push(elapsed_us(start) / 1e3);
        let bytes = match saved {
            Ok(bytes) => bytes,
            Err(e) => {
                tally.fail(format!("checkpoint at tick {tick}: {e}"));
                break;
            }
        };
        let start = Instant::now();
        let resumed = tracer
            .span("engine.resume_us", tick, || shadow.resume(&bytes, config))
            .and_then(|()| shadow.step().map(drop));
        load_ms.push(elapsed_us(start) / 1e3);
        let stepped = sim.step().map(drop);
        match resumed.and(stepped) {
            Err(e) => tally.fail(format!("save/load cycle at tick {tick}: {e}")),
            Ok(()) if sim.digest() != shadow.digest() => tally.fail(format!(
                "resumed run diverged from the uninterrupted one after tick {tick}"
            )),
            Ok(()) => {}
        }
    }
    Ok((save_ms, load_ms))
}

/// Every workload asserts it measures what its row in the README says, from
/// what the layers' own functions returned in the replays.
fn non_vacuity_guards(spec: &SimSpec, c: &ReplayCounts, seen: &WindowTrace, tally: &mut Tally) {
    let probes = c.stats.aggregate_probes.max(1) as f64;
    let serve_share = c.stats.materialized_serves as f64 / probes;
    tally.guard(c.replays > 0, || "no layer replay completed".into());
    match spec.roster {
        Roster::Battle | Roster::Steering => {
            tally.guard(c.stats.effect_rows > 0, || {
                "no effect rows: nobody acts".into()
            });
        }
        Roster::Sentry => {
            tally.guard(c.movers == 0, || {
                format!("{} sentries want to move", c.movers)
            });
            tally.guard(serve_share > 0.5, || {
                format!("materialized answers serve only {serve_share:.3} of the probes")
            });
        }
    }
    if spec.roster == Roster::Battle {
        tally.guard(c.deaths > 0, || "no deaths: combat is not live".into());
    }
    if spec.planner == Planner::Indexed {
        tally.guard(c.stats.indexes_built >= c.replays, || {
            "per-tick rebuild built no index".into()
        });
        tally.guard(c.stats.maintained_probes == 0, || {
            "per-tick rebuild probed a maintained structure".into()
        });
    }
    if spec.spill {
        tally.guard(seen.ticks_without_spill_reads == 0, || {
            format!(
                "{} ticks faulted nothing in from the spill file",
                seen.ticks_without_spill_reads
            )
        });
    }
}

/// Run `workload` once.  `Err` means the run could not be measured at all;
/// failed ticks, cycles, checks and guards are reported in the result.
pub fn run(workload: &Workload, opts: &RunOptions) -> Result<RunResult, String> {
    let spec = &workload.spec;
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut tracer = Tracer::new(if opts.trace { 1 << 15 } else { 0 });
    tracer.set_enabled(opts.trace);

    // Set up several times; the earlier simulations are dropped before the
    // next is built, so they do not add to the peak footprint.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut first_digests = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Simulation> = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let (sim, seconds) = set_up(spec, opts.seed, &mut tracer, &mut tally)?;
        setup_s.push(seconds);
        first_digests.push(sim.digest());
        kept = Some(sim);
    }
    let mut sim = kept.ok_or("no set-up ran")?;
    tally.guard(first_digests.windows(2).all(|d| d[0] == d[1]), || {
        format!("set-ups of one seed disagree after the first tick: {first_digests:?}")
    });

    let warmup_start = Instant::now();
    for _ in 1..workload.warmup {
        tally.attempted += 1;
        sim.step().map_err(|e| format!("warm-up tick: {e}"))?;
    }
    let warmup_us = elapsed_us(warmup_start);

    let mut replayer = Replayer::new(spec, &sim, opts.seed);
    if opts.trace {
        cold_paths(&mut tracer, &sim, spec)?;
    }
    let mut samples: Vec<TickSample> = Vec::with_capacity(4096);
    let mut seen = WindowTrace::default();
    let evictions_before = sim.table().memory_stats().evictions;
    let mark = timed_window(
        &mut sim,
        opts,
        &mut replayer,
        &mut tracer,
        &mut tally,
        &mut samples,
        &mut seen,
    );
    let table_after = sim.table().memory_stats();
    // Read before the save/load cycles: their second simulation is the
    // harness's, not the engine's, and made this number bimodal.
    let peak_rss_mb = peak_rss_mb()?;
    let (save_ms, load_ms) = save_load_cycles(&mut sim, spec, opts.seed, &mut tracer, &mut tally)?;

    // `spill_2k` must compute what an in-RAM twin of its world computes.
    if spec.spill {
        let (tick, digest) = mark;
        let in_ram = SimSpec {
            spill: false,
            ..*spec
        };
        let mut twin = build_sim(&in_ram, opts.seed)?;
        for _ in 0..tick {
            twin.step().map_err(|e| format!("in-RAM twin: {e}"))?;
        }
        tally.guard(twin.digest() == digest, || {
            format!("spilled run and its in-RAM twin differ at tick {tick}")
        });
    }

    let tick_us: Vec<f64> = samples.iter().map(|s| s.us).collect();
    if tick_us.is_empty() {
        return Err("the timed window measured no tick".into());
    }
    let sorted_ms: Vec<f64> = sorted(&tick_us).iter().map(|us| us / 1e3).collect();
    let measured = tick_us.len() as f64;
    let values: Vec<f64> = if opts.trace {
        let c = &replayer.counts;
        non_vacuity_guards(spec, c, &seen, &mut tally);
        let probes = c.stats.aggregate_probes.max(1) as f64;
        let replays = c.replays.max(1) as f64;
        // Ticks not preceded by a replay, same window positions on both
        // sides, interleaved in time so drift in the battle cancels.
        let unreplayed = |traced: bool| -> Vec<f64> {
            let ticks = samples.iter().filter(|s| s.traced == traced && s.pos > 0);
            ticks.map(|s| s.us).collect()
        };
        let (on, off) = (unreplayed(true), unreplayed(false));
        let overhead = if on.is_empty() || off.is_empty() {
            0.0
        } else {
            median(&on) / median(&off) - 1.0
        };
        let replay_self: Vec<f64> = tracer
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "replay")
            .map(|(id, _)| tracer.self_time_ns(id) as f64 / 1e3)
            .collect();
        let tail_pct = tail_percentile(sorted_ms.len()).unwrap_or(50);
        let span_us = |name: &str| median(&tracer.durations_us(name));
        let value_of = |name: &str| match name {
            "exec.probes" => c.stats.aggregate_probes as f64 / replays,
            "exec.index_probe_share" => c.stats.index_probes as f64 / probes,
            "exec.maintained_probe_share" => c.stats.maintained_probes as f64 / probes,
            "exec.materialized_serve_share" => c.stats.materialized_serves as f64 / probes,
            "exec.shared_hit_share" => c.stats.shared_hits as f64 / probes,
            "exec.indexes_built" => c.stats.indexes_built as f64 / replays,
            "exec.effect_rows" => c.stats.effect_rows as f64 / replays,
            "env.spill_reads" => seen.spill_reads as f64 / measured,
            "env.spill_writes" => seen.spill_writes as f64 / measured,
            "env.evictions" => (table_after.evictions - evictions_before) as f64 / measured,
            "env.bytes_per_unit" => table_after.bytes_per_row,
            "engine.step_self_us" => median(&seen.step_self_us),
            "engine.warmup_us" => warmup_us,
            "trace.overhead_share" => overhead,
            "trace.coverage" => seen.coverage.0 / seen.coverage.1.max(1e-9),
            "trace.replay_self_us" => median(&replay_self),
            "tick.over_100ms_share" => {
                sorted_ms.iter().filter(|ms| **ms > 100.0).count() as f64 / measured
            }
            "tick.tail_ms" => percentile(&sorted_ms, f64::from(tail_pct)),
            "tick.tail_pct" => f64::from(tail_pct),
            probe if probe.starts_with("index.probe_ns.") => {
                span_us(probe) * 1e3 / c.index_probes.max(1) as f64
            }
            // Every other per-layer metric is the median of its spans.
            span => span_us(span),
        };
        PER_LAYER.iter().map(|def| value_of(def.name)).collect()
    } else {
        vec![
            measured / (tick_us.iter().sum::<f64>() / 1e6),
            percentile(&sorted_ms, 50.0),
            median(&setup_s),
            peak_rss_mb,
            median(&save_ms),
            median(&load_ms),
        ]
    };
    let defs: &[MetricDef] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(defs.len());
    for (def, value) in defs.iter().zip(values) {
        if !value.is_finite() {
            tally
                .failures
                .push(format!("metric {} is not a number", def.name));
        }
        metrics.push(Metric {
            name: def.name,
            value: if value.is_finite() { value } else { 0.0 },
            unit: def.unit,
        });
    }
    if opts.trace {
        let path = opts.out_dir.join(format!("trace-{}.jsonl", workload.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        ticks: tick_us.len(),
        mark,
    })
}
