//! The per-layer trace, taken from outside the engine.
//!
//! Every adaptivity window of a traced run, before the window's first
//! `Simulation::step`, the layers' public functions are called on a clone of
//! `sim.table()` and each call is recorded as a span named after the
//! per-layer metric it feeds (`exec.tick_us`, `env.post_us`, ...).  The clone
//! is stepped twice: the first pass builds the index manager's state from
//! cold (`exec.build_us`) and lets it materialize answers, the second pass is
//! the timed one, so `exec.tick_us` runs on a warm manager like the engine's.
//! Cold-path functions (parse ... compile, pricing) are timed once per run.

use std::hint::black_box;

use rustc_hash::FxHashMap;
use sgl_core::algebra::{optimize_with, price_alternatives, translate, OptimizerOptions};
use sgl_core::algebra::{CostConstants, LogicalPlan};
use sgl_core::engine::{run_movement, Mechanics, RegisteredScript, Simulation, UnitSelector};
use sgl_core::env::{restore, snapshot, AttrId, EnvTable, GameRng, Value};
use sgl_core::exec::{
    choose_physical, compile_script, execute_tick_planned, plan_registry, strategy_class,
    ExecConfig, IndexManager, PlannedAggregate, PlannerMode, ScriptRun, TickStats,
};
use sgl_core::index::kdtree::KdTree;
use sgl_core::index::traits::{build_agg_index, AggStructureKind, IndexRow};
use sgl_core::index::{Point2, Rect};
use sgl_core::lang::{check_script, normalize, parse_script};

use crate::trace::Tracer;
use crate::world::SimSpec;

/// How often each cold-path function is timed.
pub const COLD_REPS: usize = 200;
/// At most this many probes per index kind and replay.
const INDEX_PROBES: usize = 1024;

/// The clone of the engine's world a replay steps: the table, its own index
/// manager, and the plan the engine is about to run under.
struct ClonedWorld {
    table: EnvTable,
    manager: IndexManager,
    planned: FxHashMap<String, PlannedAggregate>,
    constants: FxHashMap<String, Value>,
    config: ExecConfig,
}

/// What the replays of one run observed, summed over the timed passes.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub replays: usize,
    /// `TickStats` returned by `execute_tick_planned`, summed.
    pub stats: TickStats,
    /// Units that wanted to move (`MovementStats::movers`), summed.
    pub movers: usize,
    /// Units at or below zero health after post-processing, over both passes
    /// (the engine resurrects them; the replay only counts them).
    pub deaths: usize,
    /// Index probes issued per kind and replay.
    pub index_probes: usize,
}

/// What one replay hands back for the checks made after the real tick.
pub struct ReplayOutcome {
    /// `(call site, backend, maintenance)` the replay ran under, for the
    /// sites the planner chose; compared with the engine's after its step.
    pub choices: Vec<(String, String, String)>,
    /// Time of the replayed tick-path calls, microseconds.
    pub tick_path_us: f64,
}

pub struct Replayer {
    mechanics: Mechanics,
    rng: GameRng,
    cost: CostConstants,
    posx: AttrId,
    posy: AttrId,
    sight: AttrId,
    health: AttrId,
    pub counts: ReplayCounts,
}

impl Replayer {
    pub fn new(spec: &SimSpec, sim: &Simulation, seed: u64) -> Replayer {
        let schema = sim.table().schema();
        let attr = |name: &str| schema.attr_id(name).expect("battle schema");
        Replayer {
            mechanics: spec.mechanics(schema),
            rng: GameRng::new(seed),
            cost: CostConstants::default(),
            posx: attr("posx"),
            posy: attr("posy"),
            sight: attr("sight"),
            health: attr("health"),
            counts: ReplayCounts::default(),
        }
    }

    /// Replay the tick the engine is about to run.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        sim: &Simulation,
    ) -> Result<ReplayOutcome, String> {
        let tick = sim.current_tick();
        let root = tracer.begin("replay", tick);
        let config = *sim.exec_config();
        let registry = sim.registry();
        let constants = registry.constants().clone();
        let table = tracer.span("replay.clone", tick, || sim.table().clone());

        // The engine re-costs at this window boundary from the same
        // statistics, so the replay runs under the plan the real tick will.
        let recosts = matches!(config.planner, PlannerMode::CostBased(_));
        let plan_span = tracer.begin("exec.plan_us", tick);
        let mut planned = plan_registry(registry, &table, &config);
        if recosts {
            choose_physical(
                &mut planned,
                sim.runtime_stats(),
                &self.cost,
                table.len(),
                config.cascading,
            );
        }
        tracer.end(plan_span);
        let mut choices: Vec<(String, String, String)> = planned
            .iter()
            .filter_map(|(name, plan)| {
                let c = plan.choice.as_ref()?;
                Some((
                    name.clone(),
                    c.backend.label().to_string(),
                    c.maintenance.label().to_string(),
                ))
            })
            .collect();
        choices.sort();

        self.index_layer(tracer, &table, &config, tick)?;
        let bytes = tracer
            .span("env.snapshot_us", tick, || snapshot(&table))
            .map_err(|e| e.to_string())?;
        let restored = tracer
            .span("env.restore_us", tick, || restore(&bytes, table.schema()))
            .map_err(|e| e.to_string())?;
        drop((bytes, restored));
        black_box(tracer.span("engine.digest_us", tick, || sim.digest()));

        // Cold pass: build the manager's maintained state, then step once
        // unrecorded so materialized answers exist for the timed pass.
        let manager = tracer
            .span("exec.build_us", tick, || {
                let mut manager = IndexManager::new(&config);
                manager
                    .prepare(&table, &planned, &constants)
                    .map(|_| manager)
            })
            .map_err(|e| e.to_string())?;
        let mut clone = ClonedWorld {
            table,
            manager,
            planned,
            constants,
            config,
        };
        let cold_span = tracer.begin("replay.cold_pass", tick);
        tracer.set_enabled(false);
        let cold = self.pass(tracer, sim, &mut clone, tick);
        tracer.set_enabled(true);
        tracer.end(cold_span);
        cold?;

        let timed_pass = tracer.begin("replay.tick", tick);
        let stats = self.pass(tracer, sim, &mut clone, tick + 1)?;
        tracer.end(timed_pass);
        tracer.end(root);

        self.counts.replays += 1;
        self.counts.stats.merge(&stats);
        // The time the timed pass spent inside layer calls (its children,
        // through the tracer's union logic), plus the re-costing the engine
        // does at this boundary under the cost-based planner.
        let (Some(pass), Some(plan)) = (timed_pass, plan_span) else {
            return Err("replay needs an enabled tracer".into());
        };
        let spans = tracer.spans();
        let mut tick_path_ns = spans[pass].duration_ns() - tracer.self_time_ns(pass);
        if recosts {
            tick_path_ns += spans[plan].duration_ns();
        }
        Ok(ReplayOutcome {
            choices,
            tick_path_us: tick_path_ns as f64 / 1e3,
        })
    }

    /// One tick's phases on the clone, in the engine's order, each through
    /// the owning layer's public entry point.
    fn pass(
        &mut self,
        tracer: &mut Tracer,
        sim: &Simulation,
        clone: &mut ClonedWorld,
        tick: u64,
    ) -> Result<TickStats, String> {
        let ClonedWorld {
            table,
            manager,
            planned,
            constants,
            config,
        } = clone;
        let err = |e: &dyn std::fmt::Display| e.to_string();
        tracer
            .span("env.fault_in_us", tick, || table.ensure_resident())
            .map_err(|e| err(&e))?;
        let runs = assign_runs(sim.scripts(), table);
        let rng = self.rng.for_tick(tick);
        let (effects, stats, _) = tracer
            .span("exec.tick_us", tick, || {
                execute_tick_planned(
                    table,
                    sim.registry(),
                    &runs,
                    &rng,
                    config,
                    manager,
                    planned,
                    constants,
                )
            })
            .map_err(|e| err(&e))?;
        tracer
            .span("env.post_us", tick, || {
                self.mechanics.post.apply(table, &effects)
            })
            .map_err(|e| err(&e))?;
        if let Some(movement) = &self.mechanics.movement {
            let moved = tracer
                .span("engine.movement_us", tick, || {
                    run_movement(table, &effects, movement, &rng)
                })
                .map_err(|e| err(&e))?;
            self.counts.movers += moved.movers;
        }
        let health = table.column_i64(self.health).map_err(|e| err(&e))?;
        self.counts.deaths += health.iter().filter(|h| **h <= 0).count();
        let maintained = planned
            .values()
            .any(|p| manager.plan_is_maintained(p) || manager.plan_is_materialized(p));
        if maintained {
            tracer
                .span("exec.maintain_us", tick, || {
                    manager.end_tick_with_effects(table, &effects, planned, constants)
                })
                .map_err(|e| err(&e))?;
        } else {
            manager.mark_stale();
        }
        tracer
            .span("env.evict_us", tick, || table.enforce_page_budget())
            .map_err(|e| err(&e))?;
        Ok(stats)
    }

    /// `sgl_index` from outside: build each structure kind over the clone's
    /// positions and probe it with the units' own sight-range rectangles.
    fn index_layer(
        &mut self,
        tracer: &mut Tracer,
        table: &EnvTable,
        config: &ExecConfig,
        tick: u64,
    ) -> Result<(), String> {
        let column = |attr| table.column_f64(attr).map_err(|e| e.to_string());
        let (xs, ys, sights) = (column(self.posx)?, column(self.posy)?, column(self.sight)?);
        let points: Vec<Point2> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| Point2::new(*x, *y))
            .collect();
        let rows: Vec<IndexRow> = points
            .iter()
            .enumerate()
            .map(|(i, p)| IndexRow::new(i as u64, *p, vec![1.0]))
            .collect();
        let stride = points.len().div_ceil(INDEX_PROBES).max(1);
        let rects: Vec<Rect> = (0..points.len())
            .step_by(stride)
            .map(|i| Rect::centered(xs[i], ys[i], sights[i]))
            .collect();
        self.counts.index_probes = rects.len();

        let kinds = [
            (
                "index.build_us.layered",
                "index.probe_ns.layered",
                AggStructureKind::LayeredTree {
                    cascading: config.cascading,
                },
            ),
            (
                "index.build_us.grid",
                "index.probe_ns.grid",
                AggStructureKind::DynamicGrid { cell: 0.0 },
            ),
        ];
        for (build, probe, kind) in kinds {
            let index = tracer.span(build, tick, || build_agg_index(kind, 1, &rows));
            tracer.span(probe, tick, || {
                for rect in &rects {
                    black_box(index.probe_rect(rect));
                }
            });
        }
        let kd = tracer.span("index.build_us.kd", tick, || KdTree::build(&points));
        tracer.span("index.probe_ns.kd", tick, || {
            for i in (0..points.len()).step_by(stride) {
                black_box(kd.nearest(&points[i]));
            }
        });
        Ok(())
    }
}

/// The engine's script assignment: scripts in registration order, each unit
/// runs the first script whose selector matches it.
fn assign_runs<'s>(scripts: &'s [RegisteredScript], table: &EnvTable) -> Vec<ScriptRun<'s>> {
    let mut taken = vec![false; table.len()];
    scripts
        .iter()
        .map(|script| {
            let mut rows = Vec::new();
            for (row, taken) in taken.iter_mut().enumerate() {
                let matches = match &script.selector {
                    UnitSelector::All => true,
                    UnitSelector::AttrEquals(attr, value) => {
                        table.value_at(row, *attr).loose_eq(value)
                    }
                };
                if !*taken && matches {
                    *taken = true;
                    rows.push(row as u32);
                }
            }
            let run = ScriptRun::new(&script.plan, rows);
            match &script.compiled {
                Some(compiled) => run.with_compiled(compiled),
                None => run,
            }
        })
        .collect()
}

/// Time the cold-path entry points of `sgl_lang`, `sgl_algebra` and
/// `sgl_exec` on the workload's own scripts, [`COLD_REPS`] times each.  One
/// span covers the whole roster, so a metric reads "microseconds to parse
/// (normalize, ...) this workload's scripts".
pub fn cold_paths(tracer: &mut Tracer, sim: &Simulation, spec: &SimSpec) -> Result<(), String> {
    let table = sim.table();
    let schema = table.schema();
    let registry = sim.registry();
    let config = sim.exec_config();
    let scripts = spec.scripts(schema);
    let planned = plan_registry(registry, table, config);
    let cost = CostConstants::default();
    let err = |e: &dyn std::fmt::Display| e.to_string();
    for _ in 0..COLD_REPS {
        let asts = tracer
            .span("lang.parse_us", 0, || {
                scripts
                    .iter()
                    .map(|(_, source, _)| parse_script(source))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| err(&e))?;
        let normals = tracer
            .span("lang.normalize_us", 0, || {
                asts.iter()
                    .map(|ast| normalize(ast, registry))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| err(&e))?;
        tracer
            .span("lang.typecheck_us", 0, || {
                normals
                    .iter()
                    .map(|n| check_script(n, schema, registry))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| err(&e))?;
        let plans: Vec<LogicalPlan> = tracer.span("algebra.translate_us", 0, || {
            normals.iter().map(translate).collect()
        });
        black_box(tracer.span("algebra.optimize_us", 0, || {
            plans
                .into_iter()
                .map(|plan| optimize_with(plan, registry, OptimizerOptions::default()))
                .collect::<Vec<_>>()
        }));
        tracer
            .span("exec.compile_us", 0, || {
                normals
                    .iter()
                    .zip(&scripts)
                    .map(|(n, (name, _, _))| {
                        compile_script(name, n, registry, schema, config.spatial)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| err(&e))?;
        tracer.span("algebra.price_us", 0, || {
            for (name, plan) in &planned {
                if let Some(class) = strategy_class(&plan.strategy) {
                    let inputs =
                        sim.runtime_stats()
                            .inputs_for(name, table.len(), config.cascading);
                    black_box(price_alternatives(class, &inputs, &cost));
                }
            }
        });
    }
    Ok(())
}
