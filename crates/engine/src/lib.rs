//! # sgl-engine — the discrete simulation engine
//!
//! Implements the clock-tick processing model of §2.2 and the phase structure
//! of the experimental engine of §6:
//!
//! 1. **index building** and the **decision/action phases** are delegated to
//!    `sgl-exec` ([`sgl_exec::execute_tick`]), which runs every registered
//!    script set-at-a-time and returns the combined effect relation;
//! 2. a **post-processing** step applies non-positional effects (damage,
//!    healing, cooldowns) through an [`sgl_env::PostProcessor`];
//! 3. a **movement phase** moves units along their combined movement vectors
//!    in random order with collision detection and simple pathfinding
//!    ([`movement`]);
//! 4. an optional **resurrection rule** respawns dead units at random
//!    positions (the rule §6 adds to keep the battle from ending during
//!    measurements), or removes them when resurrection is disabled;
//! 5. an **index maintenance** step hands the mutated environment (and the
//!    tick's effect relation) back to the cross-tick
//!    [`sgl_exec::IndexManager`], so maintained index structures absorb the
//!    tick's positional and value updates before the next tick probes them
//!    (a no-op when every call site is rebuilt per tick).

//!
//! Supporting modules: [`metrics`] (per-phase timings, throughput/capacity
//! analysis) and [`replay`] (state digests and determinism traces).

#![warn(missing_docs)]

pub mod metrics;
pub mod movement;
pub mod replay;

use std::fmt::Write as _;
use std::time::Instant;

use rustc_hash::FxHashMap;

use sgl_algebra::cost::CostConstants;
use sgl_algebra::{explain_with_costs, CostAnnotation, LogicalPlan};
use sgl_env::{AttrId, EnvTable, GameRng, PostProcessor, Value};
use sgl_exec::{
    choose_physical, compile_script, execute_tick_oracle, execute_tick_planned, plan_registry,
    strategy_class, CompileError, CompiledScript, ExecConfig, ExecMode, IndexManager, MaintStats,
    OracleRun, Parallelism, PlannedAggregate, PlannerMode, RuntimeStats, ScriptRun,
    TickObservations, TickStats,
};
use sgl_lang::normalize::NormalScript;
use sgl_lang::Registry;

pub use metrics::{PhaseAllocs, PhaseTimings, ThroughputReport};
pub use movement::{run_movement, MovementConfig, MovementStats};
pub use replay::{compare_traces, StateDigest, TraceComparison, TraceRecorder};

use crate::error::EngineError;

/// Errors of the engine layer.
pub mod error {
    use std::fmt;

    /// Engine error (wraps the lower layers).
    #[derive(Debug, Clone, PartialEq)]
    pub enum EngineError {
        /// Execution failed.
        Exec(sgl_exec::ExecError),
        /// A registered script does not lower to bytecode under the
        /// requested configuration.
        Compile(sgl_exec::CompileError),
        /// Environment manipulation failed.
        Env(sgl_env::EnvError),
    }

    impl fmt::Display for EngineError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                EngineError::Exec(e) => write!(f, "{e}"),
                EngineError::Compile(e) => write!(f, "{e}"),
                EngineError::Env(e) => write!(f, "{e}"),
            }
        }
    }

    impl std::error::Error for EngineError {}

    impl From<sgl_exec::ExecError> for EngineError {
        fn from(e: sgl_exec::ExecError) -> Self {
            EngineError::Exec(e)
        }
    }

    impl From<sgl_exec::CompileError> for EngineError {
        fn from(e: sgl_exec::CompileError) -> Self {
            EngineError::Compile(e)
        }
    }

    impl From<sgl_env::EnvError> for EngineError {
        fn from(e: sgl_env::EnvError) -> Self {
            EngineError::Env(e)
        }
    }
}

/// Result alias for the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Selects which units run a given script.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitSelector {
    /// Every unit runs the script.
    All,
    /// Units whose attribute equals the given value.
    AttrEquals(AttrId, Value),
}

impl UnitSelector {
    fn matches(&self, table: &EnvTable, row: usize) -> bool {
        match self {
            UnitSelector::All => true,
            UnitSelector::AttrEquals(attr, value) => table.row(row).get(*attr).loose_eq(value),
        }
    }
}

/// A script registered with the simulation: its optimized plan, normalized
/// AST and register bytecode, plus the selector choosing the units that run
/// it.
#[derive(Debug, Clone)]
pub struct RegisteredScript {
    /// Human-readable name (for reports).
    pub name: String,
    /// The optimized plan (what `explain` renders and the checkpoint's
    /// scripts fingerprint covers).
    pub plan: LogicalPlan,
    /// The normalized script AST the plan was compiled from: the source of
    /// the bytecode, and what [`ExecMode::Oracle`] interprets directly.
    pub normal: NormalScript,
    /// Which units run it.
    pub selector: UnitSelector,
    /// Register bytecode lowered from `normal` under the current execution
    /// configuration — `Some` for every registered script (a script that
    /// does not compile is refused at registration).  Never serialized —
    /// checkpoints carry no bytecode, and resume recompiles from `normal`.
    pub compiled: Option<CompiledScript>,
}

/// Resurrection rule of §6: dead units respawn at a random position.
#[derive(Debug, Clone, Copy)]
pub struct ResurrectConfig {
    /// Attribute holding current health.
    pub health: AttrId,
    /// Attribute holding the value health is restored to.
    pub max_health: AttrId,
    /// World bounds `(x_min, y_min, x_max, y_max)` for the respawn position.
    pub world: (f64, f64, f64, f64),
    /// x position attribute.
    pub x: AttrId,
    /// y position attribute.
    pub y: AttrId,
}

/// Game mechanics: how combined effects turn into state changes.
#[derive(Debug, Clone)]
pub struct Mechanics {
    /// Applies non-positional effects (damage, healing, cooldowns).
    pub post: PostProcessor,
    /// Movement phase configuration; `None` disables movement.
    pub movement: Option<MovementConfig>,
    /// Resurrection rule; `None` means dead units are removed by `post`.
    pub resurrect: Option<ResurrectConfig>,
}

/// Report of one simulated tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickReport {
    /// Tick number (starting at 0).
    pub tick: u64,
    /// Execution statistics from the decision/action phases.
    pub exec: TickStats,
    /// Movement statistics.
    pub movement: MovementStats,
    /// Units resurrected (or found dead) this tick.
    pub deaths: usize,
    /// Number of units alive after the tick.
    pub population: usize,
    /// Wall-clock duration of each phase of the tick.
    pub timings: PhaseTimings,
    /// Page allocations (fresh pages + spill fault-ins) per phase.
    pub allocs: PhaseAllocs,
    /// Memory footprint of the environment table after the tick (and after
    /// the end-of-tick page-budget enforcement pass).
    pub memory: sgl_env::TableMemoryStats,
}

/// The discrete simulation engine.
pub struct Simulation {
    table: EnvTable,
    registry: Registry,
    scripts: Vec<RegisteredScript>,
    mechanics: Mechanics,
    exec_config: ExecConfig,
    /// Cross-tick owner of the aggregate index structures; persists across
    /// [`Simulation::step`] calls so maintained structures can patch
    /// instead of rebuild.
    index_manager: IndexManager,
    /// Aggregate plans and registry constants, cached across ticks (they
    /// depend only on the registry, schema and execution configuration).
    planned: FxHashMap<String, PlannedAggregate>,
    constants: FxHashMap<String, Value>,
    /// Cross-tick runtime statistics (cardinality, update rate, per-call-
    /// site selectivity and served backends) — the feedback loop of the
    /// cost-based planner, and the source of the `explain` runtime
    /// annotations.
    runtime_stats: RuntimeStats,
    /// Calibration constants of the cost model.
    cost_constants: CostConstants,
    rng: GameRng,
    tick: u64,
    history: Vec<TickReport>,
}

impl Simulation {
    /// Create a simulation over an initial environment.
    pub fn new(
        table: EnvTable,
        registry: Registry,
        mechanics: Mechanics,
        exec_config: ExecConfig,
        seed: u64,
    ) -> Simulation {
        let planned = plan_registry(&registry, &table, &exec_config);
        let constants = registry.constants().clone();
        Simulation {
            table,
            registry,
            scripts: Vec::new(),
            mechanics,
            index_manager: IndexManager::new(&exec_config),
            planned,
            constants,
            runtime_stats: RuntimeStats::default(),
            cost_constants: CostConstants::default(),
            exec_config,
            rng: GameRng::new(seed),
            tick: 0,
            history: Vec::new(),
        }
    }

    /// Register a script from its optimized plan and the normalized AST the
    /// plan was compiled from; the AST is lowered to register bytecode here,
    /// once.  Scripts are matched in registration order, so more specific
    /// selectors should be registered before catch-alls.  A script the
    /// bytecode compiler refuses is an error and leaves the simulation
    /// untouched.
    pub fn add_script_with_source(
        &mut self,
        name: impl Into<String>,
        plan: LogicalPlan,
        normal: NormalScript,
        selector: UnitSelector,
    ) -> std::result::Result<(), CompileError> {
        let name = name.into();
        let compiled = compile_script(
            &name,
            &normal,
            &self.registry,
            self.table.schema(),
            self.exec_config.spatial,
        )?;
        self.scripts.push(RegisteredScript {
            name,
            plan,
            normal,
            selector,
            compiled: Some(compiled),
        });
        Ok(())
    }

    /// Lower every registered script to register bytecode under `config`.
    /// The bytecode bakes in schema attribute ids and the spatial-attribute
    /// configuration (per-clause filter analyses), so it is rebuilt whenever
    /// the execution configuration changes — and on resume, where the
    /// checkpoint stores no bytecode by design.
    fn compile_scripts(
        &self,
        config: &ExecConfig,
    ) -> std::result::Result<Vec<CompiledScript>, CompileError> {
        self.scripts
            .iter()
            .map(|script| {
                compile_script(
                    &script.name,
                    &script.normal,
                    &self.registry,
                    self.table.schema(),
                    config.spatial,
                )
            })
            .collect()
    }

    /// Install bytecode produced by [`Simulation::compile_scripts`].
    fn install_compiled(&mut self, compiled: Vec<CompiledScript>) {
        for (script, compiled) in self.scripts.iter_mut().zip(compiled) {
            script.compiled = Some(compiled);
        }
    }

    /// Remove all registered scripts.
    pub fn clear_scripts(&mut self) {
        self.scripts.clear();
    }

    /// The current environment.
    pub fn table(&self) -> &EnvTable {
        &self.table
    }

    /// Mutable access to the environment (scenario editing between ticks).
    /// Invalidates any cross-tick maintained index state, which is rebuilt
    /// on the next tick.
    pub fn table_mut(&mut self) -> &mut EnvTable {
        self.index_manager.invalidate();
        &mut self.table
    }

    /// The cross-tick index manager (maintained structures and maintenance
    /// statistics).
    pub fn index_manager(&self) -> &IndexManager {
        &self.index_manager
    }

    /// The registered scripts.
    pub fn scripts(&self) -> &[RegisteredScript] {
        &self.scripts
    }

    /// The built-in registry used by the simulation.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The current tick number.
    pub fn current_tick(&self) -> u64 {
        self.tick
    }

    /// Reports of all ticks simulated so far.
    pub fn history(&self) -> &[TickReport] {
        &self.history
    }

    /// Change the execution configuration (e.g. switch naive ↔ indexed, or
    /// force another backend).  Resets the index manager.  Every
    /// script is recompiled under the new configuration first; if one is
    /// refused, the error is returned and the simulation keeps its old
    /// configuration untouched.
    pub fn set_exec_config(&mut self, config: ExecConfig) -> std::result::Result<(), CompileError> {
        let compiled = self.compile_scripts(&config)?;
        self.install_compiled(compiled);
        self.index_manager = IndexManager::new(&config);
        self.planned = plan_registry(&self.registry, &self.table, &config);
        self.exec_config = config;
        Ok(())
    }

    /// Change only the worker-thread count of the decision/action phases.
    /// Purely a performance knob — the simulated game (and its state
    /// digests) is identical at any setting — so unlike
    /// [`Simulation::set_exec_config`] this keeps maintained index state.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.exec_config.parallelism = parallelism;
    }

    /// The current execution configuration.
    pub fn exec_config(&self) -> &ExecConfig {
        &self.exec_config
    }

    /// The cross-tick runtime statistics feeding the cost-based planner.
    pub fn runtime_stats(&self) -> &RuntimeStats {
        &self.runtime_stats
    }

    /// Replace the cost-model calibration constants (e.g. with a fresh
    /// measurement from `examples/calibrate_costs.rs`).
    pub fn set_cost_constants(&mut self, constants: CostConstants) {
        self.cost_constants = constants;
    }

    /// The current physical choice of every aggregate call site, sorted by
    /// name: `(call name, backend label, maintenance label)`.
    pub fn physical_choices(&self) -> Vec<(String, String, String)> {
        let mut out: Vec<(String, String, String)> = self
            .planned
            .iter()
            .map(|(name, plan)| {
                let (chosen, maintenance) = choice_labels(plan);
                (name.clone(), chosen.to_string(), maintenance.to_string())
            })
            .collect();
        out.sort();
        out
    }

    /// The [`CostAnnotation`] of every aggregate call site: the planned
    /// physical choice (with the cost model's priced alternatives under the
    /// cost-based planner) plus the backends that *actually served* probes
    /// at runtime.
    pub fn cost_annotations(&self) -> FxHashMap<String, CostAnnotation> {
        let mut out = FxHashMap::default();
        for (name, plan) in &self.planned {
            let strategy = match &plan.strategy {
                sgl_exec::AggStrategy::DivisibleTree { .. } => "divisible-tree",
                sgl_exec::AggStrategy::SweepMinMax => "sweep-min-max",
                sgl_exec::AggStrategy::KdNearest => "kd-nearest",
                sgl_exec::AggStrategy::Scan => "scan",
            };
            let (chosen, maintenance) = choice_labels(plan);
            let (est_us, mut alternatives) = match &plan.choice {
                // A forced choice is not priced.
                Some(choice) if self.exec_config.planner.is_cost_based() => (
                    Some(choice.est_us),
                    choice
                        .alternatives
                        .iter()
                        .map(|alt| {
                            let label = match alt.backend {
                                sgl_algebra::PhysicalBackend::MaintainedGrid => {
                                    format!("grid-{}", alt.maintenance.label())
                                }
                                other => other.label().to_string(),
                            };
                            (label, alt.total_us())
                        })
                        .collect(),
                ),
                _ => (None, Vec::new()),
            };
            alternatives.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            let executed = self
                .runtime_stats
                .calls
                .get(name)
                .map(|site| {
                    site.served_labels()
                        .into_iter()
                        .map(|(label, n)| (label.to_string(), n))
                        .collect()
                })
                .unwrap_or_default();
            out.insert(
                name.clone(),
                CostAnnotation {
                    strategy: strategy.to_string(),
                    chosen: chosen.to_string(),
                    maintenance: maintenance.to_string(),
                    est_us,
                    alternatives,
                    executed,
                },
            );
        }
        out
    }

    /// EXPLAIN report of every registered script: the optimized operator
    /// tree with a `↳ physical:` line per aggregate call site showing the
    /// planned backend and maintenance, the priced alternatives (cost-based
    /// planner) and the backends that actually served the call site at
    /// runtime.
    pub fn explain(&self) -> String {
        let annotations = self.cost_annotations();
        let mut out = String::new();
        for script in &self.scripts {
            let _ = writeln!(out, "script `{}`:", script.name);
            out.push_str(&explain_with_costs(&script.plan, &annotations));
            // Bytecode lowering of each call site, when the script compiled:
            // the registers feeding every aggregate probe and perform site,
            // plus the clause shape (targeted / rect / scan) the VM executes.
            if let Some(compiled) = &script.compiled {
                for (_, line) in compiled.agg_site_lines() {
                    let _ = writeln!(out, "  ↳ compiled: {line}");
                }
                for (_, line) in compiled.perform_site_lines() {
                    let _ = writeln!(out, "  ↳ compiled: {line}");
                }
            }
        }
        out
    }

    /// Simulate one clock tick.
    pub fn step(&mut self) -> Result<TickReport> {
        let mut timings = PhaseTimings::default();
        let mut allocs = PhaseAllocs::default();
        let tick_rng = self.rng.for_tick(self.tick);

        // Residency protocol: fault the whole working set back in before any
        // phase reads the table, then evict back down to the page budget
        // after the last mutation (end of this function).  Every phase
        // therefore sees identical fully-resident column data regardless of
        // what the previous tick's eviction pass pushed out — which is the
        // determinism-under-eviction argument in one sentence.
        let mut alloc_mark = self.table.page_allocs();
        self.table.ensure_resident()?;
        allocs.fault_in = self.table.page_allocs() - alloc_mark;
        alloc_mark = self.table.page_allocs();

        // Cost-based planning: re-price every physical alternative at the
        // adaptivity-window boundary (and immediately after a configuration
        // change left the call sites unpriced).  Decisions only ever change
        // here, at a tick boundary, so each tick runs under one consistent
        // physical plan.  A forced plan was installed when it was planned.
        let mut planner_recosts = 0usize;
        let mut plan_switches = 0usize;
        if let PlannerMode::CostBased(window) = self.exec_config.planner {
            let unpriced = self
                .planned
                .values()
                .any(|p| p.choice.is_none() && strategy_class(&p.strategy).is_some());
            let due = self.tick.is_multiple_of(u64::from(window.ticks)) || unpriced;
            if due && self.exec_config.uses_indexes() {
                let before = self.maintained_profile();
                plan_switches = choose_physical(
                    &mut self.planned,
                    &self.runtime_stats,
                    &self.cost_constants,
                    self.table.len(),
                    self.exec_config.cascading,
                );
                planner_recosts = 1;
                // Only switches that change which call sites are
                // maintained (or how) need a re-sync; swaps between
                // per-tick backends leave the maintained state valid.
                if plan_switches > 0 && before != self.maintained_profile() {
                    self.index_manager.mark_stale();
                }
            }
        }
        // Assign acting units to scripts.
        let mut assigned: Vec<bool> = vec![false; self.table.len()];
        let mut acting: Vec<Vec<u32>> = Vec::with_capacity(self.scripts.len());
        for script in &self.scripts {
            let mut rows = Vec::new();
            for (row, taken) in assigned.iter_mut().enumerate() {
                if !*taken && script.selector.matches(&self.table, row) {
                    *taken = true;
                    rows.push(row as u32);
                }
            }
            acting.push(rows);
        }

        // Decision + action phases (including per-tick index building and,
        // on the first tick of a maintained choice, the initial structure
        // build).  The oracle mode bypasses the bytecode VM entirely and
        // interprets the registered scripts' normalized ASTs.
        let phase_start = Instant::now();
        let (effects, mut exec_stats, obs) = if self.exec_config.mode == ExecMode::Oracle {
            let runs: Vec<OracleRun<'_>> = self
                .scripts
                .iter()
                .zip(acting)
                .map(|(script, rows)| OracleRun {
                    script: &script.normal,
                    acting_rows: rows,
                })
                .collect();
            let (effects, stats) =
                execute_tick_oracle(&self.table, &self.registry, &runs, &tick_rng)?;
            (effects, stats, TickObservations::default())
        } else {
            let runs: Vec<ScriptRun<'_>> = self
                .scripts
                .iter()
                .zip(acting)
                .map(|(script, rows)| ScriptRun {
                    plan: &script.plan,
                    acting_rows: rows,
                    compiled: script.compiled.as_ref(),
                })
                .collect();
            execute_tick_planned(
                &self.table,
                &self.registry,
                &runs,
                &tick_rng,
                &self.exec_config,
                &mut self.index_manager,
                &self.planned,
                &self.constants,
            )?
        };
        timings.exec = phase_start.elapsed();
        allocs.exec = self.table.page_allocs() - alloc_mark;
        alloc_mark = self.table.page_allocs();

        // Post-processing: apply non-positional effects.
        let phase_start = Instant::now();
        self.mechanics.post.apply(&mut self.table, &effects)?;
        timings.post = phase_start.elapsed();
        allocs.post = self.table.page_allocs() - alloc_mark;
        alloc_mark = self.table.page_allocs();

        // Movement phase.
        let phase_start = Instant::now();
        let movement_stats = match &self.mechanics.movement {
            Some(config) => run_movement(&mut self.table, &effects, config, &tick_rng)?,
            None => MovementStats::default(),
        };
        timings.movement = phase_start.elapsed();
        allocs.movement = self.table.page_allocs() - alloc_mark;
        alloc_mark = self.table.page_allocs();

        // Resurrection rule (§6): dead units respawn at random positions.
        let phase_start = Instant::now();
        let mut deaths = 0usize;
        if let Some(res) = self.mechanics.resurrect {
            for row in 0..self.table.len() {
                let hp = self.table.row(row).get_i64(res.health).unwrap_or(0);
                if hp <= 0 {
                    deaths += 1;
                    let key = self.table.key_of(row);
                    let max_hp = self.table.row(row).get(res.max_health);
                    let x =
                        res.world.0 + tick_rng.unit_float(key, 101) * (res.world.2 - res.world.0);
                    let y =
                        res.world.1 + tick_rng.unit_float(key, 102) * (res.world.3 - res.world.1);
                    self.table.set_attr(row, res.health, max_hp)?;
                    self.table.set_attr(row, res.x, Value::Float(x))?;
                    self.table.set_attr(row, res.y, Value::Float(y))?;
                }
            }
        }
        timings.resurrect = phase_start.elapsed();
        allocs.resurrect = self.table.page_allocs() - alloc_mark;
        alloc_mark = self.table.page_allocs();

        // Index maintenance: hand the post-tick environment (and the effect
        // relation, for accounting) back to the manager so maintained
        // structures absorb this tick's positional and value updates before
        // the next tick probes them.  Which call sites are maintained is
        // decided per call site by the installed physical choices.
        let wants_maintenance = self.planned.values().any(|p| {
            self.index_manager.plan_is_maintained(p) || self.index_manager.plan_is_materialized(p)
        });
        if wants_maintenance {
            let phase_start = Instant::now();
            let maint = self.maintain_indexes(&effects)?;
            exec_stats.index_delta_ops += maint.delta_ops;
            exec_stats.partition_rebuilds += maint.partition_rebuilds;
            timings.maintain = phase_start.elapsed();
            allocs.maintain = self.table.page_allocs() - alloc_mark;
        } else {
            // The mutation phases ran without a maintenance pass; whatever
            // maintained state exists (none, or about to be dropped) no
            // longer mirrors the environment.
            self.index_manager.mark_stale();
        }

        // Statistics feedback: fold what this tick observed (probe volume,
        // selectivity, served backends, movement churn) into the cross-tick
        // store the cost-based planner prices from.  The spatial density
        // comes from the maintained index's own occupancy hint when one is
        // alive; the bounding box is only computed when a cost-based
        // planner will actually consume it.
        let changed_rows = movement_stats.moved + movement_stats.detoured + deaths;
        let density_hint = self.index_manager.density_hint();
        // The bounding-box fallback costs a full table scan — only pay it
        // when a cost-based planner will consume it and no maintained index
        // supplied its (better) occupancy-based density.
        let world_area = if self.exec_config.planner.is_cost_based() && density_hint.is_none() {
            self.world_area()
        } else {
            0.0
        };
        self.runtime_stats.observe_tick(
            self.table.len(),
            changed_rows,
            world_area,
            density_hint,
            &obs,
        );
        exec_stats.planner_recosts += planner_recosts;
        exec_stats.plan_switches += plan_switches;

        // End-of-tick page-budget enforcement: evict least-recently-touched
        // pages down to the configured budget.  The table *contents* are
        // already final for this tick, so which pages spill affects only
        // where bytes live — never what the next tick computes.
        self.table.enforce_page_budget()?;

        let report = TickReport {
            tick: self.tick,
            exec: exec_stats,
            movement: movement_stats,
            deaths,
            population: self.table.len(),
            timings,
            allocs,
            memory: self.table.memory_stats(),
        };
        self.history.push(report);
        self.tick += 1;
        Ok(report)
    }

    /// Synchronize maintained index structures with the freshly mutated
    /// environment (no-op when no plan is maintained).
    fn maintain_indexes(&mut self, effects: &sgl_env::EffectBuffer) -> Result<MaintStats> {
        Ok(self.index_manager.end_tick_with_effects(
            &self.table,
            effects,
            &self.planned,
            &self.constants,
        )?)
    }

    /// Which call sites are maintained across ticks, and under which
    /// maintenance choice — the part of the physical plan whose change
    /// requires an [`IndexManager`] re-sync.  Sorted for comparability.
    fn maintained_profile(&self) -> Vec<(String, Option<sgl_algebra::MaintenanceChoice>)> {
        let mut out: Vec<(String, Option<sgl_algebra::MaintenanceChoice>)> = self
            .planned
            .iter()
            .filter(|(_, plan)| {
                self.index_manager.plan_is_maintained(plan)
                    || self.index_manager.plan_is_materialized(plan)
            })
            .map(|(name, plan)| (name.clone(), plan.choice.as_ref().map(|c| c.maintenance)))
            .collect();
        out.sort();
        out
    }

    /// Bounding-box area of the unit positions (the statistics collector's
    /// fallback density estimate when no maintained index is alive).
    fn world_area(&self) -> f64 {
        let Some(spatial) = self.exec_config.spatial else {
            return 0.0;
        };
        let (Ok(xs), Ok(ys)) = (
            self.table.column_f64(spatial.x),
            self.table.column_f64(spatial.y),
        ) else {
            return 0.0;
        };
        let mut lo = (f64::INFINITY, f64::INFINITY);
        let mut hi = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for (x, y) in xs.iter().zip(&ys) {
            if !x.is_finite() || !y.is_finite() {
                continue;
            }
            lo = (lo.0.min(*x), lo.1.min(*y));
            hi = (hi.0.max(*x), hi.1.max(*y));
        }
        if lo.0 > hi.0 || lo.1 > hi.1 {
            return 0.0;
        }
        (hi.0 - lo.0).max(1.0) * (hi.1 - lo.1).max(1.0)
    }

    /// Simulate `n` ticks, returning aggregate statistics.
    pub fn run(&mut self, n: usize) -> Result<RunSummary> {
        let mut summary = RunSummary::default();
        for _ in 0..n {
            let report = self.step()?;
            summary.ticks += 1;
            summary.exec.merge(&report.exec);
            summary.deaths += report.deaths;
            summary.final_population = report.population;
            summary.timings.accumulate(&report.timings);
        }
        Ok(summary)
    }

    /// Throughput report over every tick simulated so far (the quantity of
    /// Figure 10 and the 10-ticks/s capacity check of §6.1).
    pub fn throughput(&self) -> ThroughputReport {
        ThroughputReport::from_timings(self.history.iter().map(|r| &r.timings))
    }

    /// Digest of the current environment (see [`replay`]).
    pub fn digest(&self) -> StateDigest {
        StateDigest::of_table(&self.table)
    }

    /// Fingerprint of the registered scripts (names, selectors, plans).  A
    /// checkpoint embeds it so a resume into a simulation running different
    /// scripts is rejected instead of silently diverging: the environment
    /// alone does not identify a game — the scripts are part of its state
    /// trajectory.
    fn scripts_fingerprint(&self) -> u64 {
        let mut hash = sgl_env::checkpoint::Fnv64::new();
        hash.write(&(self.scripts.len() as u64).to_le_bytes());
        for script in &self.scripts {
            hash.write(script.name.as_bytes());
            hash.write(format!("{:?}", script.selector).as_bytes());
            hash.write(format!("{:?}", script.plan).as_bytes());
        }
        hash.finish()
    }

    /// Serialize the complete run state of this simulation into a versioned
    /// binary checkpoint: the environment table (as a
    /// [`sgl_env::snapshot::snapshot`] section), the tick counter and RNG
    /// seed (the entire RNG stream state — every draw is a pure hash of
    /// `(seed, tick, unit key, i)`), the cross-tick [`RuntimeStats`], the
    /// planner mode and installed physical choices, and the maintenance
    /// counters.  Maintained index structures are *not* serialized: they are
    /// a deterministic function of the table and are reconstructed on
    /// [`Simulation::resume`].
    ///
    /// The encoding is deterministic: the same simulation state always
    /// produces the same bytes.  Fails only when a spilled table page cannot
    /// be read back while serializing ([`EngineError::Env`]).
    pub fn checkpoint(&self) -> Result<Vec<u8>> {
        use sgl_env::checkpoint::{section, ByteWriter, CheckpointBuilder};
        let fingerprint = sgl_env::snapshot::schema_fingerprint(self.table.schema());
        let mut builder = CheckpointBuilder::new(fingerprint);
        builder.section(
            section::TABLE,
            sgl_env::snapshot::snapshot(&self.table)
                .map_err(EngineError::Env)?
                .to_vec(),
        );
        let mut clock = ByteWriter::new();
        clock.u64(self.tick);
        clock.u64(self.rng.seed());
        clock.u64(self.scripts_fingerprint());
        builder.section(section::CLOCK, clock.finish());
        builder.section(
            section::STATS,
            sgl_exec::checkpoint::export_runtime_stats(&self.runtime_stats),
        );
        builder.section(
            section::PLANNER,
            sgl_exec::checkpoint::export_planner_state(self.exec_config.planner, &self.planned),
        );
        builder.section(
            section::MAINT,
            sgl_exec::checkpoint::export_maint_stats(&self.index_manager.last_maint),
        );
        Ok(builder.finish().to_vec())
    }

    /// Restore the run state saved by [`Simulation::checkpoint`] into this
    /// simulation and continue under `config` — which may differ from the
    /// writer's configuration in any behaviour-neutral knob (parallelism,
    /// planner mode, forced backend, even naive vs indexed): the conformance
    /// lattice proves every configuration computes the same game, so the
    /// resumed trajectory is digest-identical to an uninterrupted run
    /// regardless.
    ///
    /// The simulation must have been built with the same schema and the same
    /// scripts as the writer (both are fingerprint-checked; mismatches are
    /// rejected with a typed [`sgl_env::EnvError::Checkpoint`]), and every
    /// script must compile under `config` ([`EngineError::Compile`]
    /// otherwise).  Everything is validated *before* any state is replaced —
    /// a failed resume leaves the simulation untouched.  On success the tick
    /// counter, RNG stream, runtime statistics and (under a cost-based
    /// `config`) the installed physical choices continue exactly where the
    /// writer stopped; the tick history is cleared (it describes the
    /// writer's process, not this one) and maintained index structures are
    /// deterministically reconstructed from the restored table and validated
    /// eagerly.
    pub fn resume(&mut self, bytes: &[u8], config: ExecConfig) -> Result<()> {
        use sgl_env::checkpoint::{section, ByteReader, CheckpointReader};
        let reader = CheckpointReader::parse(bytes).map_err(EngineError::Env)?;
        let fingerprint = sgl_env::snapshot::schema_fingerprint(self.table.schema());
        if reader.fingerprint() != fingerprint {
            return Err(EngineError::Env(sgl_env::EnvError::Checkpoint(
                "checkpoint was written against a different schema".into(),
            )));
        }
        let table = sgl_env::snapshot::restore(
            reader.require(section::TABLE, "environment table")?,
            self.table.schema(),
        )?;
        let mut clock = ByteReader::new(reader.require(section::CLOCK, "simulation clock")?);
        let tick = clock.u64("tick counter")?;
        let seed = clock.u64("rng seed")?;
        let scripts_fp = clock.u64("scripts fingerprint")?;
        clock
            .expect_end("simulation clock")
            .map_err(EngineError::Env)?;
        if scripts_fp != self.scripts_fingerprint() {
            return Err(EngineError::Env(sgl_env::EnvError::Checkpoint(
                "checkpoint was written by a simulation running different scripts".into(),
            )));
        }
        let stats = sgl_exec::checkpoint::import_runtime_stats(
            reader.require(section::STATS, "runtime statistics")?,
        )?;
        let (_writer_planner, choices) = sgl_exec::checkpoint::import_planner_state(
            reader.require(section::PLANNER, "planner state")?,
        )?;
        let maint = sgl_exec::checkpoint::import_maint_stats(
            reader.require(section::MAINT, "maintenance counters")?,
        )?;

        // Assemble the resumed plan and index state on the side, so *every*
        // fallible step — including index reconstruction — happens before
        // any of this simulation's state is replaced.
        // A forced plan is derived from `config` by `plan_registry`, never
        // taken from the writer, so a migration from any planner mode lands
        // on the same plan.  A cost-based resume continues under the
        // writer's physical plan so a resume mid re-costing window does not
        // re-bootstrap from priors; the next window boundary re-prices as
        // usual.
        let mut planned = plan_registry(&self.registry, &table, &config);
        if config.planner.is_cost_based() && config.uses_indexes() {
            sgl_exec::checkpoint::install_choices(&mut planned, choices);
        }
        // Deterministic index reconstruction + eager resume-time validation:
        // rebuild whatever maintained structures the resumed physical plan
        // needs from the restored table now, so an unbuildable state fails
        // here rather than mid-first-tick.  (Rebuilt and incrementally
        // maintained structures answer identically — the equivalence suites
        // prove it — so reconstruction never changes the game.)
        let mut index_manager = IndexManager::new(&config);
        if planned
            .values()
            .any(|p| index_manager.plan_is_maintained(p) || index_manager.plan_is_materialized(p))
        {
            index_manager.prepare(&table, &planned, &self.constants)?;
        }
        // Restore the writer's maintenance counters on top of the
        // reconstruction pass, so monitoring continuity survives a
        // migration (the reconstruction is bookkeeping of the resume, not
        // of a tick).
        index_manager.last_maint = maint;
        // Checkpoints carry no bytecode: lower the scripts' normalized ASTs
        // under the resume configuration.
        let compiled = self.compile_scripts(&config)?;

        // Everything decoded, validated and rebuilt — commit.
        self.install_compiled(compiled);
        self.table = table;
        self.planned = planned;
        self.index_manager = index_manager;
        self.exec_config = config;
        self.runtime_stats = stats;
        self.rng = GameRng::new(seed);
        self.tick = tick;
        self.history.clear();
        Ok(())
    }

    /// Count units per value of an attribute (handy for reports and tests).
    pub fn population_by(&self, attr: AttrId) -> FxHashMap<i64, usize> {
        let mut out = FxHashMap::default();
        for (_, row) in self.table.iter() {
            *out.entry(row.get_i64(attr).unwrap_or(0)).or_insert(0) += 1;
        }
        out
    }
}

/// Aggregate statistics over a multi-tick run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSummary {
    /// Ticks simulated.
    pub ticks: usize,
    /// Total execution statistics.
    pub exec: TickStats,
    /// Total deaths (resurrections).
    pub deaths: usize,
    /// Population after the last tick.
    pub final_population: usize,
    /// Total wall-clock time per phase across the run.
    pub timings: PhaseTimings,
}

/// Backend / maintenance labels of one plan.  A site without an installed
/// choice is answered by the scan.
fn choice_labels(plan: &PlannedAggregate) -> (&'static str, &'static str) {
    match &plan.choice {
        Some(choice) => (choice.backend.label(), choice.maintenance.label()),
        None => ("scan", "per-tick"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_algebra::{optimize, translate};
    use sgl_env::postprocess::PostProcessor;
    use sgl_env::{schema::paper_schema, Schema, TupleBuilder, UpdateExpr};
    use sgl_lang::builtins::paper_registry;
    use sgl_lang::normalize::normalize;
    use sgl_lang::parse_script;
    use std::sync::Arc;

    /// Register `src` on `sim` under the paper registry.
    fn add(sim: &mut Simulation, name: &str, src: &str, selector: UnitSelector) {
        let registry = paper_registry();
        let script = parse_script(src).unwrap();
        let normal = normalize(&script, &registry).unwrap();
        let plan = optimize(translate(&normal), &registry).plan;
        sim.add_script_with_source(name, plan, normal, selector)
            .unwrap();
    }

    const BATTLE: &str = r#"main(u) {
        (let c = CountEnemiesInRange(u, 10))
        if c > 3 then
          perform MoveInDirection(u, u.posx - 5, u.posy);
        else if c > 0 and u.cooldown = 0 then
          perform FireAt(u, getNearestEnemy(u).key);
        else
          perform MoveInDirection(u, 25, 25);
    }"#;

    fn build_sim(n: usize, mode_indexed: bool) -> (Arc<Schema>, Simulation) {
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        let mut state = 5u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for key in 0..n {
            let t = TupleBuilder::new(&schema)
                .set("key", key as i64)
                .unwrap()
                .set("player", (key % 2) as i64)
                .unwrap()
                .set("posx", next() * 50.0)
                .unwrap()
                .set("posy", next() * 50.0)
                .unwrap()
                .set("health", 20i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        let registry = paper_registry();
        let health = schema.attr_id("health").unwrap();
        let damage = schema.attr_id("damage").unwrap();
        let aura = schema.attr_id("inaura").unwrap();
        let cooldown = schema.attr_id("cooldown").unwrap();
        let weapon = schema.attr_id("weaponused").unwrap();
        let post = PostProcessor::new(Arc::clone(&schema))
            .assign(
                health,
                UpdateExpr::add(
                    UpdateExpr::sub(UpdateExpr::State(health), UpdateExpr::Effect(damage)),
                    UpdateExpr::Effect(aura),
                ),
            )
            .assign(
                cooldown,
                UpdateExpr::max(
                    UpdateExpr::add(
                        UpdateExpr::sub(
                            UpdateExpr::State(cooldown),
                            UpdateExpr::Const(Value::Int(1)),
                        ),
                        UpdateExpr::mul(
                            UpdateExpr::Effect(weapon),
                            UpdateExpr::Const(Value::Int(3)),
                        ),
                    ),
                    UpdateExpr::Const(Value::Int(0)),
                ),
            )
            .remove_when_le(health, 0i64);
        let mechanics = Mechanics {
            post,
            movement: Some(MovementConfig {
                x: schema.attr_id("posx").unwrap(),
                y: schema.attr_id("posy").unwrap(),
                dx: schema.attr_id("movevect_x").unwrap(),
                dy: schema.attr_id("movevect_y").unwrap(),
                step: 1.0,
                collision_radius: 0.5,
                world: (0.0, 0.0, 50.0, 50.0),
            }),
            resurrect: None,
        };
        let exec = if mode_indexed {
            ExecConfig::indexed(&schema)
        } else {
            ExecConfig::naive(&schema)
        };
        let mut sim = Simulation::new(table, registry, mechanics, exec, 1234);
        add(&mut sim, "battle", BATTLE, UnitSelector::All);
        (schema, sim)
    }

    #[test]
    fn simulation_steps_and_collects_history() {
        let (_schema, mut sim) = build_sim(30, true);
        let summary = sim.run(5).unwrap();
        assert_eq!(summary.ticks, 5);
        assert_eq!(sim.history().len(), 5);
        assert_eq!(sim.current_tick(), 5);
        assert!(summary.exec.aggregate_probes > 0);
        assert!(summary.final_population <= 30);
        assert!(!sim.registry().aggregate_names().is_empty());
    }

    #[test]
    fn naive_and_indexed_simulations_agree_on_integer_state() {
        let (schema, mut naive) = build_sim(24, false);
        let (_, mut indexed) = build_sim(24, true);
        for _ in 0..3 {
            naive.step().unwrap();
            indexed.step().unwrap();
        }
        assert_eq!(naive.table().sorted_keys(), indexed.table().sorted_keys());
        let health = schema.attr_id("health").unwrap();
        let cooldown = schema.attr_id("cooldown").unwrap();
        let posx = schema.attr_id("posx").unwrap();
        for key in naive.table().sorted_keys() {
            let a = naive.table().find_key_readonly(key).unwrap();
            let b = indexed.table().find_key_readonly(key).unwrap();
            assert_eq!(
                naive.table().row(a).get_i64(health).unwrap(),
                indexed.table().row(b).get_i64(health).unwrap(),
                "health of unit {key}"
            );
            assert_eq!(
                naive.table().row(a).get_i64(cooldown).unwrap(),
                indexed.table().row(b).get_i64(cooldown).unwrap(),
                "cooldown of unit {key}"
            );
            let xa = naive.table().row(a).get_f64(posx).unwrap();
            let xb = indexed.table().row(b).get_f64(posx).unwrap();
            assert!((xa - xb).abs() < 1e-6, "posx of unit {key}: {xa} vs {xb}");
        }
    }

    #[test]
    fn maintenance_policies_agree_with_rebuild_across_ticks() {
        use sgl_algebra::PhysicalBackend;
        let (_, mut rebuild) = build_sim(28, true);
        let reference: Vec<crate::replay::StateDigest> = (0..6)
            .map(|_| {
                rebuild.step().unwrap();
                rebuild.digest()
            })
            .collect();
        for backend in [
            PhysicalBackend::MaintainedGrid,
            PhysicalBackend::Materialized,
        ] {
            let (schema, mut sim) = build_sim(28, true);
            sim.set_exec_config(
                ExecConfig::indexed(&schema).with_planner(PlannerMode::Force(backend)),
            )
            .unwrap();
            for (tick, expected) in reference.iter().enumerate() {
                let report = sim.step().unwrap();
                assert_eq!(
                    sim.digest(),
                    *expected,
                    "Force({backend:?}) diverged at tick {tick}"
                );
                assert_eq!(report.exec.naive_scans, 0, "{backend:?}");
            }
            // The maintained backends actually did maintenance work, and the
            // engine reported it.
            let history = sim.history();
            let work: usize = match backend {
                PhysicalBackend::MaintainedGrid => history
                    .iter()
                    .map(|r| r.exec.index_delta_ops + r.exec.partition_rebuilds)
                    .sum(),
                _ => history.iter().map(|r| r.exec.materialized_serves).sum(),
            };
            assert!(work > 0, "{backend:?} never touched maintained state");
            let manager = sim.index_manager();
            assert!(
                manager.maintained_aggregates() + manager.materialized_sites() > 0,
                "{backend:?}"
            );
        }
        // The per-tick reference kept nothing across ticks.
        assert_eq!(rebuild.index_manager().maintained_aggregates(), 0);
    }

    #[test]
    fn maintenance_timings_are_recorded_for_dynamic_policies() {
        use sgl_algebra::PhysicalBackend;
        let (schema, mut sim) = build_sim(20, true);
        sim.set_exec_config(
            ExecConfig::indexed(&schema)
                .with_planner(PlannerMode::Force(PhysicalBackend::MaintainedGrid)),
        )
        .unwrap();
        sim.run(3).unwrap();
        // The maintain phase ran (its duration is part of every report); a
        // per-tick plan leaves it at zero.
        let (_, mut plain) = build_sim(20, true);
        plain.run(3).unwrap();
        for report in plain.history() {
            assert_eq!(report.timings.maintain, std::time::Duration::ZERO);
            assert_eq!(report.exec.index_delta_ops, 0);
        }
        let maintained_rows: usize = sim.index_manager().last_maint.rows_scanned;
        assert!(maintained_rows > 0);
    }

    #[test]
    fn parallel_simulation_reproduces_serial_digests() {
        let (_, mut serial) = build_sim(30, true);
        let reference: Vec<crate::replay::StateDigest> = (0..5)
            .map(|_| {
                serial.step().unwrap();
                serial.digest()
            })
            .collect();
        for threads in [2usize, 4] {
            let (_, mut sim) = build_sim(30, true);
            sim.set_parallelism(Parallelism::Threads(threads));
            assert_eq!(sim.exec_config().parallelism, Parallelism::Threads(threads));
            for (tick, expected) in reference.iter().enumerate() {
                sim.step().unwrap();
                assert_eq!(
                    sim.digest(),
                    *expected,
                    "{threads} threads diverged at tick {tick}"
                );
            }
        }
    }

    #[test]
    fn oracle_mode_reproduces_plan_execution_digests() {
        // Tick-for-tick digest equality of the oracle (interpreting the
        // battle script's AST) against naive and indexed bytecode execution.
        let build = |preset: fn(&Schema) -> ExecConfig| {
            let (schema, mut sim) = build_sim(26, true);
            sim.set_exec_config(preset(&schema)).unwrap();
            sim
        };
        let mut oracle = build(ExecConfig::oracle);
        let mut naive = build(ExecConfig::naive);
        let mut indexed = build(ExecConfig::indexed);
        for tick in 0..5 {
            let report = oracle.step().unwrap();
            naive.step().unwrap();
            indexed.step().unwrap();
            assert_eq!(
                oracle.digest(),
                naive.digest(),
                "oracle vs naive, tick {tick}"
            );
            assert_eq!(
                oracle.digest(),
                indexed.digest(),
                "oracle vs indexed, tick {tick}"
            );
            // The oracle never touches an index and never shares results.
            assert_eq!(report.exec.index_probes, 0);
            assert_eq!(report.exec.shared_hits, 0);
            assert_eq!(report.exec.naive_scans, report.exec.aggregate_probes);
        }
    }

    #[test]
    fn checkpoint_resume_continues_the_exact_digest_trajectory() {
        // Uninterrupted reference run.
        let (_, mut reference) = build_sim(26, true);
        let digests: Vec<crate::replay::StateDigest> = (0..8)
            .map(|_| {
                reference.step().unwrap();
                reference.digest()
            })
            .collect();
        // Interrupted run: 3 ticks, checkpoint, resume into a fresh
        // simulation, 5 more ticks — every digest must match bit for bit.
        let (_, mut writer) = build_sim(26, true);
        for (tick, expected) in digests.iter().take(3).enumerate() {
            writer.step().unwrap();
            assert_eq!(writer.digest(), *expected, "writer diverged at {tick}");
        }
        let bytes = writer.checkpoint().unwrap();
        assert_eq!(
            bytes,
            writer.checkpoint().unwrap(),
            "checkpointing is deterministic"
        );
        let (_, mut resumed) = build_sim(26, true);
        let config = *resumed.exec_config();
        resumed.resume(&bytes, config).unwrap();
        assert_eq!(resumed.current_tick(), 3);
        assert_eq!(resumed.digest(), digests[2], "restored table digest");
        assert!(resumed.history().is_empty());
        for (tick, expected) in digests.iter().enumerate().skip(3) {
            resumed.step().unwrap();
            assert_eq!(
                resumed.digest(),
                *expected,
                "resumed run diverged at {tick}"
            );
        }
    }

    #[test]
    fn resume_under_a_different_config_is_digest_identical() {
        use sgl_algebra::PhysicalBackend;
        let (_, mut reference) = build_sim(24, true);
        let digests: Vec<crate::replay::StateDigest> = (0..7)
            .map(|_| {
                reference.step().unwrap();
                reference.digest()
            })
            .collect();
        let (_, mut writer) = build_sim(24, true);
        for _ in 0..4 {
            writer.step().unwrap();
        }
        let bytes = writer.checkpoint().unwrap();
        // Writer ran the per-tick paper plan serially; resume onto
        // maintained grids with 4 worker threads.
        let (schema, mut resumed) = build_sim(24, true);
        let config = ExecConfig::indexed(&schema)
            .with_planner(PlannerMode::Force(PhysicalBackend::MaintainedGrid))
            .with_parallelism(Parallelism::Threads(4));
        resumed.resume(&bytes, config).unwrap();
        // The resumer took its own (maintained) plan, not the writer's, and
        // rebuilt the maintained structures before its first tick.
        assert!(resumed.index_manager().maintained_aggregates() > 0);
        assert!(resumed
            .physical_choices()
            .iter()
            .any(|(_, backend, maintenance)| backend == "grid" && maintenance == "incremental"));
        for (tick, expected) in digests.iter().enumerate().skip(4) {
            resumed.step().unwrap();
            assert_eq!(
                resumed.digest(),
                *expected,
                "cross-config resume diverged at {tick}"
            );
        }
        // The maintained structures were reconstructed at resume time.
        assert!(resumed.index_manager().maintained_aggregates() > 0);
    }

    #[test]
    fn resume_rejects_corruption_and_mismatches_without_touching_state() {
        let (_, mut writer) = build_sim(12, true);
        writer.run(2).unwrap();
        let bytes = writer.checkpoint().unwrap();

        let (_, mut target) = build_sim(12, true);
        target.run(1).unwrap();
        let digest_before = target.digest();
        let config = *target.exec_config();

        // Bit flip anywhere fails with a typed checkpoint/snapshot error.
        let mut corrupt = bytes.clone();
        corrupt[bytes.len() / 2] ^= 0x40;
        let err = target.resume(&corrupt, config).unwrap_err();
        assert!(matches!(err, EngineError::Env(_)), "{err}");
        // Truncation too.
        let err = target
            .resume(&bytes[..bytes.len() - 9], config)
            .unwrap_err();
        assert!(matches!(err, EngineError::Env(_)), "{err}");
        // Different scripts: same schema, different behaviour.
        let (_, mut other_scripts) = build_sim(12, true);
        other_scripts.clear_scripts();
        add(
            &mut other_scripts,
            "different",
            "main(u) { perform MoveInDirection(u, 0, 0); }",
            UnitSelector::All,
        );
        let err = other_scripts.resume(&bytes, config).unwrap_err();
        assert!(
            err.to_string().contains("different scripts"),
            "expected a scripts mismatch, got: {err}"
        );
        // A failed resume leaves the target untouched.
        assert_eq!(target.digest(), digest_before);
        assert_eq!(target.current_tick(), 1);
        assert_eq!(target.history().len(), 1);
    }

    #[test]
    fn resume_rejects_a_different_schema() {
        let (_, mut writer) = build_sim(10, true);
        writer.run(1).unwrap();
        let bytes = writer.checkpoint().unwrap();
        // A simulation over a different schema must refuse the checkpoint.
        let mut b = Schema::builder();
        b.key("key")
            .const_attr("posx", 0.0)
            .const_attr("posy", 0.0)
            .const_attr("health", 10i64)
            .sum_attr("damage", 0i64);
        let schema = b.build().unwrap().into_shared();
        let table = EnvTable::new(Arc::clone(&schema));
        let mechanics = Mechanics {
            post: PostProcessor::new(Arc::clone(&schema)),
            movement: None,
            resurrect: None,
        };
        let mut sim = Simulation::new(
            table,
            paper_registry(),
            mechanics,
            ExecConfig::naive(&schema),
            1,
        );
        let err = sim.resume(&bytes, ExecConfig::naive(&schema)).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn checkpoint_carries_runtime_stats_and_planner_choices() {
        use sgl_exec::PlannerMode;
        let (schema, mut writer) = build_sim(30, true);
        writer
            .set_exec_config(
                ExecConfig::cost_based(&schema).with_planner(PlannerMode::cost_based(2)),
            )
            .unwrap();
        for _ in 0..5 {
            writer.step().unwrap();
        }
        let stats_before = writer.runtime_stats().clone();
        let choices_before = writer.physical_choices();
        assert!(stats_before.ticks == 5 && !stats_before.calls.is_empty());
        let bytes = writer.checkpoint().unwrap();

        let (_, mut resumed) = build_sim(30, true);
        resumed
            .resume(
                &bytes,
                ExecConfig::cost_based(&schema).with_planner(PlannerMode::cost_based(2)),
            )
            .unwrap();
        assert_eq!(resumed.runtime_stats().ticks, 5);
        assert_eq!(
            resumed.runtime_stats().cardinality.to_bits(),
            stats_before.cardinality.to_bits()
        );
        assert_eq!(
            resumed.physical_choices(),
            choices_before,
            "installed physical choices survive the resume"
        );
    }

    #[test]
    fn selectors_assign_scripts_by_attribute() {
        let (schema, mut sim) = build_sim(10, true);
        sim.clear_scripts();
        let player = schema.attr_id("player").unwrap();
        add(
            &mut sim,
            "p0",
            "main(u) { perform MoveInDirection(u, 0, 0); }",
            UnitSelector::AttrEquals(player, Value::Int(0)),
        );
        add(
            &mut sim,
            "p1",
            "main(u) { perform MoveInDirection(u, 50, 50); }",
            UnitSelector::AttrEquals(player, Value::Int(1)),
        );
        let report = sim.step().unwrap();
        assert_eq!(report.exec.acting_units, 10);
        assert_eq!(sim.scripts().len(), 2);
        let counts = sim.population_by(player);
        assert_eq!(counts[&0] + counts[&1], 10);
    }

    #[test]
    fn resurrection_keeps_population_constant() {
        // Schema with a max_health attribute for the respawn rule.
        let mut b = Schema::builder();
        b.key("key")
            .const_attr("player", 0i64)
            .const_attr("posx", 0.0)
            .const_attr("posy", 0.0)
            .const_attr("health", 0i64)
            .const_attr("max_health", 20i64)
            .const_attr("cooldown", 0i64)
            .sum_attr("weaponused", 0i64)
            .sum_attr("movevect_x", 0.0)
            .sum_attr("movevect_y", 0.0)
            .sum_attr("damage", 0i64)
            .max_attr("inaura", 0i64);
        let schema = b.build().unwrap().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        for (key, player, hp) in [(0i64, 0i64, 20i64), (1, 1, 1)] {
            let t = TupleBuilder::new(&schema)
                .set("key", key)
                .unwrap()
                .set("player", player)
                .unwrap()
                .set("posx", key as f64)
                .unwrap()
                .set("health", hp)
                .unwrap()
                .set("max_health", 20i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        let health = schema.attr_id("health").unwrap();
        let damage = schema.attr_id("damage").unwrap();
        let post = PostProcessor::new(Arc::clone(&schema)).assign(
            health,
            UpdateExpr::sub(UpdateExpr::State(health), UpdateExpr::Effect(damage)),
        );
        let mechanics = Mechanics {
            post,
            movement: None,
            resurrect: Some(ResurrectConfig {
                health,
                max_health: schema.attr_id("max_health").unwrap(),
                world: (0.0, 0.0, 10.0, 10.0),
                x: schema.attr_id("posx").unwrap(),
                y: schema.attr_id("posy").unwrap(),
            }),
        };
        let mut sim = Simulation::new(
            table,
            paper_registry(),
            mechanics,
            ExecConfig::indexed(&schema),
            7,
        );
        add(
            &mut sim,
            "fire",
            "main(u) { if u.cooldown = 0 then perform FireAt(u, getNearestEnemy(u).key); }",
            UnitSelector::All,
        );
        let mut total_deaths = 0;
        for _ in 0..8 {
            let report = sim.step().unwrap();
            total_deaths += report.deaths;
            assert_eq!(report.population, 2);
            for (_, row) in sim.table().iter() {
                assert!(
                    row.get_i64(health).unwrap() > 0,
                    "dead units must be resurrected"
                );
            }
        }
        // With a 50% hit chance and 4 damage per hit over 8 ticks, the weak
        // unit dies at least once with overwhelming probability.
        assert!(total_deaths >= 1);
    }
}
