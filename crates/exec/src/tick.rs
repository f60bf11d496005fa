//! One clock tick of planned execution: fan the acting units out over
//! shards, run every script's register bytecode on the VM (`vm` module),
//! and fold the emitted effects into the tick's combined effect relation.
//!
//! Both strategies of §6 run here, on the same bytecode; they differ only in
//! whether the shard gets an index view:
//!
//! * **naive** ([`ExecConfig::naive`], `Force(Scan)`) — no view: every
//!   aggregate probe takes the reference scan and every area-of-effect
//!   clause tests every row (`O(n)` per unit, `O(n²)` per tick);
//! * **indexed** (every other planner) — aggregates are answered from the
//!   per-tick [`TickIndexes`] cache and targeted/area action clauses resolve
//!   through key look-ups and enumeration indexes (§5.3/§5.4).
//!
//! Either strategy can fan the acting units out over worker threads
//! ([`crate::config::Parallelism`]).  The state-effect pattern makes this a
//! pure performance knob: within a tick every unit reads the same immutable
//! environment and the per-tick random function is a pure hash of
//! `(seed, tick, unit key, i)`, so each shard emits exactly the effects its
//! units would emit serially.  Shards record those effects in *ordered
//! per-run logs*; replaying them run-major (run 0 across all shards, then
//! run 1, ...) reproduces the serial executor's exact sequence of `⊕` fold
//! steps, so the combined effect relation (and hence the state digest) is
//! bit-identical to serial execution — even for float-sum attributes, where
//! IEEE addition is commutative but not associative and any regrouping or
//! reordering of the partial sums could change the last bits.

use rustc_hash::FxHashMap;

use sgl_algebra::LogicalPlan;
use sgl_env::{AttrId, EffectBuffer, EnvTable, TickRandom, Value};
use sgl_lang::builtins::Registry;

use crate::compile::CompiledScript;
use crate::config::{ExecConfig, PlannerMode, TickStats};
use crate::error::{ExecError, Result};
use crate::indexes::{IndexManager, MatWrite, TickIndexes};
use crate::planner::{forced_choice, plan_aggregate, strategy_class, PlannedAggregate};
use crate::stats::TickObservations;

/// One script to run in a tick: its optimized plan and register bytecode
/// plus the acting units (row indices into the environment) that execute it.
#[derive(Debug, Clone)]
pub struct ScriptRun<'p> {
    /// The optimized logical plan of the script (what `explain` renders;
    /// execution runs the bytecode).
    pub plan: &'p LogicalPlan,
    /// Row indices of the units running this script.
    pub acting_rows: Vec<u32>,
    /// Register bytecode for the script ([`crate::compile_script`]).  A run
    /// without it is refused with [`ExecError::Config`].
    pub compiled: Option<&'p CompiledScript>,
}

impl<'p> ScriptRun<'p> {
    /// A run of `plan` over `acting_rows`; attach the script's bytecode
    /// with [`ScriptRun::with_compiled`] before executing it.
    pub fn new(plan: &'p LogicalPlan, acting_rows: Vec<u32>) -> Self {
        ScriptRun {
            plan,
            acting_rows,
            compiled: None,
        }
    }

    /// Attach the script's register bytecode.
    pub fn with_compiled(mut self, compiled: &'p CompiledScript) -> Self {
        self.compiled = Some(compiled);
        self
    }
}

/// Execute one clock tick with a throwaway [`IndexManager`] (maintained
/// structures are built from scratch — callers that want cross-tick
/// maintenance keep a manager alive and use [`execute_tick_with`], as
/// `sgl_engine::Simulation` does).
pub fn execute_tick(
    table: &EnvTable,
    registry: &Registry,
    runs: &[ScriptRun<'_>],
    rng: &TickRandom,
    config: &ExecConfig,
) -> Result<(EffectBuffer, TickStats)> {
    let mut manager = IndexManager::new(config);
    execute_tick_with(table, registry, runs, rng, config, &mut manager)
}

/// Plan every registry aggregate once (index selection is per-definition)
/// and install the choices the configuration fixes: under
/// [`PlannerMode::Force`] every indexable site gets its [`forced_choice`];
/// under the cost-based planner the engine's first pricing pass installs
/// them.
pub fn plan_registry(
    registry: &Registry,
    table: &EnvTable,
    config: &ExecConfig,
) -> FxHashMap<String, PlannedAggregate> {
    let schema = table.schema();
    let forced = match config.planner {
        PlannerMode::Force(backend) => Some(backend),
        PlannerMode::CostBased(_) => None,
    };
    let mut planned: FxHashMap<String, PlannedAggregate> = FxHashMap::default();
    for (name, def) in registry.aggregates() {
        let mut plan = plan_aggregate(def, schema, config.spatial);
        if let Some(backend) = forced {
            plan.choice = strategy_class(&plan.strategy).map(|class| forced_choice(class, backend));
        }
        planned.insert(name.to_string(), plan);
    }
    planned
}

/// Execute one clock tick: run every script over its acting units and return
/// the combined effect relation plus execution statistics.  Index structures
/// come from `manager`, as the installed physical choices direct.  Nothing
/// is priced here, so a cost-based configuration whose scripts call an
/// indexable aggregate fails with [`ExecError::Config`]: price the plan
/// first ([`crate::choose_physical`]) and run it with
/// [`execute_tick_planned`], as the engine does.
pub fn execute_tick_with(
    table: &EnvTable,
    registry: &Registry,
    runs: &[ScriptRun<'_>],
    rng: &TickRandom,
    config: &ExecConfig,
    manager: &mut IndexManager,
) -> Result<(EffectBuffer, TickStats)> {
    let planned = plan_registry(registry, table, config);
    let constants = registry.constants().clone();
    execute_tick_planned(
        table, registry, runs, rng, config, manager, &planned, &constants,
    )
    .map(|(effects, stats, _)| (effects, stats))
}

/// [`execute_tick_with`] with the aggregate plans and constants supplied by
/// the caller — the engine caches both across ticks (they depend only on
/// the registry, schema and configuration) instead of re-deriving them
/// every tick.  Also returns the tick's per-call-site
/// [`TickObservations`], which the engine feeds into the cost-based
/// planner's statistics store.
#[allow(clippy::too_many_arguments)]
pub fn execute_tick_planned(
    table: &EnvTable,
    registry: &Registry,
    runs: &[ScriptRun<'_>],
    rng: &TickRandom,
    config: &ExecConfig,
    manager: &mut IndexManager,
    planned: &FxHashMap<String, PlannedAggregate>,
    constants: &FxHashMap<String, Value>,
) -> Result<(EffectBuffer, TickStats, TickObservations)> {
    let total_acting: usize = runs.iter().map(|r| r.acting_rows.len()).sum();
    let shards = config.parallelism.resolve(total_acting);

    // Sync cross-tick maintained structures once, through the only mutable
    // borrow of the tick; the fan-out below probes the manager read-only.
    let maint = if config.uses_indexes() {
        manager.prepare(table, planned, constants)?
    } else {
        crate::indexes::MaintStats::default()
    };
    let shared = TickShared {
        table,
        registry,
        config,
        rng,
        constants,
        planned,
    };
    let manager_view = config.uses_indexes().then_some(&*manager);

    let mut stats = TickStats {
        index_delta_ops: maint.delta_ops,
        partition_rebuilds: maint.partition_rebuilds,
        ..TickStats::default()
    };

    if shards <= 1 {
        // Serial: fold every emission straight into the tick's buffer (no
        // logging detour for the default configuration).
        let (sink, shard_stats, obs, mat_writes) = run_shard(&shared, manager_view, runs, true)?;
        let EffectSink::Direct(effects) = sink else {
            return Err(ExecError::Internal(
                "direct shard returned a log sink".into(),
            ));
        };
        stats.merge(&shard_stats);
        stats.effect_rows = effects.len();
        manager.absorb_materialized(mat_writes);
        return Ok((effects, stats, obs));
    }

    let shard_runs = shard_runs(runs, shards);
    let shared_ref = &shared;
    let shard_results: Vec<(EffectSink, TickStats, TickObservations, Vec<MatWrite>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = shard_runs
                .iter()
                .map(|shard| scope.spawn(move || run_shard(shared_ref, manager_view, shard, false)))
                .collect();
            handles
                .into_iter()
                .map(|handle| match handle.join() {
                    Ok(result) => result,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect::<Result<Vec<_>>>()
        })?;

    // Replay the shards' per-run effect logs in the serial executor's order
    // — run-major (run 0 across all shards, then run 1, ...), each shard
    // holding a contiguous segment of its run's acting rows — so this
    // applies the exact `⊕` fold sequence of serial execution.
    let mut effects = EffectBuffer::new(table.schema().clone());
    let mut run_logs: Vec<Vec<EffectLog>> = Vec::with_capacity(shards);
    let mut obs = TickObservations::default();
    let mut mat_writes: Vec<MatWrite> = Vec::new();
    for (sink, shard_stats, shard_obs, shard_writes) in shard_results {
        let EffectSink::Logs { done: logs, .. } = sink else {
            return Err(ExecError::Internal(
                "parallel shard returned a direct sink".into(),
            ));
        };
        run_logs.push(logs);
        stats.merge(&shard_stats);
        obs.merge(&shard_obs);
        mat_writes.extend(shard_writes);
    }
    // Materialize the shards' miss-path recomputes now that the immutable
    // fan-out borrows are done.  Absorbing sorts the combined writes, so the
    // resulting store is identical for every shard count.
    manager.absorb_materialized(mat_writes);
    for run_idx in 0..runs.len() {
        for logs in run_logs.iter_mut() {
            for (key, attr, value) in std::mem::take(&mut logs[run_idx]) {
                effects.apply(key, attr, value).map_err(ExecError::from)?;
            }
        }
    }
    stats.effect_rows = effects.len();
    Ok((effects, stats, obs))
}

/// Effects emitted for one run by one shard, in emission order — the unit of
/// the deterministic run-major replay above.
pub(crate) type EffectLog = Vec<(i64, AttrId, Value)>;

/// Where a shard's effects go: the single-shard (serial) path folds into the
/// tick's `EffectBuffer` directly; parallel shards log per run so the main
/// thread can replay the serial fold order.
pub(crate) enum EffectSink {
    /// Fold each emission immediately (exactly the pre-parallelism path).
    Direct(EffectBuffer),
    /// Ordered per-run logs, replayed run-major across shards.  `current`
    /// always holds the log of the run in flight (so emitting never needs a
    /// "log opened" precondition); [`EffectSink::finish_run`] rolls it into
    /// `done`.
    Logs {
        /// Completed runs' logs, one per run, in run order.
        done: Vec<EffectLog>,
        /// The in-flight run's log.
        current: EffectLog,
    },
}

impl EffectSink {
    fn logs(runs: usize) -> Self {
        EffectSink::Logs {
            done: Vec::with_capacity(runs),
            current: EffectLog::new(),
        }
    }

    pub(crate) fn emit(&mut self, key: i64, attr: AttrId, value: Value) -> Result<()> {
        match self {
            EffectSink::Direct(buffer) => buffer.apply(key, attr, value).map_err(ExecError::from),
            EffectSink::Logs { current, .. } => {
                current.push((key, attr, value));
                Ok(())
            }
        }
    }

    /// Close the in-flight run's log and open the next one.  A no-op for the
    /// direct sink.
    fn finish_run(&mut self) {
        if let EffectSink::Logs { done, current } = self {
            done.push(std::mem::take(current));
        }
    }
}

/// Split every run's acting rows into `shards` contiguous chunks: shard `s`
/// executes the `s`-th segment of the serial iteration order of each run.
fn shard_runs<'p>(runs: &[ScriptRun<'p>], shards: usize) -> Vec<Vec<ScriptRun<'p>>> {
    (0..shards)
        .map(|s| {
            runs.iter()
                .map(|run| {
                    let rows = &run.acting_rows;
                    let base = rows.len() / shards;
                    let rem = rows.len() % shards;
                    let start = s * base + s.min(rem);
                    let end = start + base + usize::from(s < rem);
                    ScriptRun {
                        plan: run.plan,
                        acting_rows: rows[start..end].to_vec(),
                        compiled: run.compiled,
                    }
                })
                .collect()
        })
        .collect()
}

/// Execute one shard's slice of the tick: every run over the shard's acting
/// rows on the VM, with shard-private effects, statistics and probe cache.
/// `direct` selects the [`EffectSink`] flavour (single-shard fold vs
/// per-run logs for the parallel replay).
fn run_shard<'a>(
    shared: &TickShared<'a>,
    manager: Option<&'a IndexManager>,
    runs: &[ScriptRun<'_>],
    direct: bool,
) -> Result<(EffectSink, TickStats, TickObservations, Vec<MatWrite>)> {
    let cache = match manager {
        Some(manager) => manager.tick_view(shared.table, shared.config, shared.constants)?,
        None => None,
    };
    let mut state = ShardState {
        cache,
        obs: TickObservations::default(),
        effects: if direct {
            EffectSink::Direct(EffectBuffer::new(shared.table.schema().clone()))
        } else {
            EffectSink::logs(runs.len())
        },
        stats: TickStats::default(),
    };
    for run in runs {
        let compiled = run.compiled.ok_or_else(|| {
            ExecError::Config(
                "a script run carries no bytecode; compile the script with \
                 `compile_script` and attach it with `ScriptRun::with_compiled`"
                    .into(),
            )
        })?;
        crate::vm::run_compiled(shared, &mut state, compiled, &run.acting_rows)?;
        state.effects.finish_run();
    }
    let mut mat_writes = Vec::new();
    if let Some(mut cache) = state.cache.take() {
        mat_writes = cache.take_mat_writes();
        state.stats.merge(&cache.stats);
    }
    Ok((state.effects, state.stats, state.obs, mat_writes))
}

/// Read-only state shared by every shard of a tick.  All fields are borrows
/// of `Sync` data: the parallel executor hands one `&TickShared` to each
/// worker thread.
pub(crate) struct TickShared<'a> {
    pub(crate) table: &'a EnvTable,
    pub(crate) registry: &'a Registry,
    pub(crate) config: &'a ExecConfig,
    pub(crate) rng: &'a TickRandom,
    pub(crate) constants: &'a FxHashMap<String, Value>,
    pub(crate) planned: &'a FxHashMap<String, PlannedAggregate>,
}

/// Mutable state owned by one shard: its effect sink and statistics and, in
/// indexed mode, its per-tick probe cache.
pub(crate) struct ShardState<'a> {
    pub(crate) cache: Option<TickIndexes<'a>>,
    /// Per-call-site observations for the cost-based planner.
    pub(crate) obs: TickObservations,
    pub(crate) effects: EffectSink,
    pub(crate) stats: TickStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_script;
    use crate::config::SpatialAttrs;
    use sgl_algebra::{optimize, translate};
    use sgl_env::{schema::paper_schema, GameRng, Schema, TupleBuilder};
    use sgl_lang::ast::Term;
    use sgl_lang::builtins::paper_registry;
    use sgl_lang::eval::EvalContext;
    use sgl_lang::normalize::normalize;
    use sgl_lang::parse_script;
    use std::sync::Arc;

    fn make_table(n: usize, spread: f64) -> (Arc<Schema>, EnvTable) {
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        let mut state = 99u64;
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
                .set("posx", next() * spread)
                .unwrap()
                .set("posy", next() * spread)
                .unwrap()
                .set("health", 20i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        (schema, table)
    }

    /// A script's optimized plan and its bytecode, compiled against the
    /// paper schema's spatial attributes.
    fn compile(src: &str, registry: &Registry) -> (LogicalPlan, CompiledScript) {
        let script = parse_script(src).unwrap();
        let normal = normalize(&script, registry).unwrap();
        let plan = optimize(translate(&normal), registry).plan;
        let schema = paper_schema();
        let spatial = SpatialAttrs::from_schema(&schema);
        let compiled = compile_script("test", &normal, registry, &schema, spatial).unwrap();
        (plan, compiled)
    }

    const SCRIPT: &str = r#"
        main(u) {
          (let c = CountEnemiesInRange(u, 12))
          if c > 3 then
            perform MoveInDirection(u, u.posx - 5, u.posy - 5);
          else if c > 0 and u.cooldown = 0 then
            perform FireAt(u, getNearestEnemy(u).key);
        }
    "#;

    fn run_mode(
        mode_config: ExecConfig,
        table: &EnvTable,
        registry: &Registry,
        (plan, compiled): &(LogicalPlan, CompiledScript),
    ) -> (EffectBuffer, TickStats) {
        let rng = GameRng::new(42).for_tick(1);
        let acting: Vec<u32> = (0..table.len() as u32).collect();
        let runs = vec![ScriptRun::new(plan, acting).with_compiled(compiled)];
        execute_tick(table, registry, &runs, &rng, &mode_config).unwrap()
    }

    #[test]
    fn naive_and_indexed_execution_produce_the_same_effects() {
        let registry = paper_registry();
        let (schema, table) = make_table(60, 40.0);
        let plan = compile(SCRIPT, &registry);
        let (naive, naive_stats) = run_mode(ExecConfig::naive(&schema), &table, &registry, &plan);
        let (indexed, indexed_stats) =
            run_mode(ExecConfig::indexed(&schema), &table, &registry, &plan);

        // Same units affected, same integer effects; float effects equal up to
        // summation order.
        let a = naive.canonical();
        let b = indexed.canonical();
        assert_eq!(a.len(), b.len());
        for ((ka, aa, va), (kb, ab, vb)) in a.iter().zip(b.iter()) {
            assert_eq!((ka, aa), (kb, ab));
            let fa = va.as_f64().unwrap();
            let fb = vb.as_f64().unwrap();
            assert!((fa - fb).abs() < 1e-9, "key {ka} attr {aa}: {fa} vs {fb}");
        }
        // The naive run answered every aggregate by scanning; the indexed one
        // answered every aggregate through an index.
        assert!(naive_stats.naive_scans > 0);
        assert_eq!(naive_stats.naive_scans, naive_stats.aggregate_probes);
        assert_eq!(naive_stats.index_probes, 0);
        assert_eq!(indexed_stats.naive_scans, 0);
        assert_eq!(indexed_stats.index_probes, indexed_stats.aggregate_probes);
    }

    #[test]
    fn heal_area_of_effect_reaches_allies_in_range_only() {
        let registry = paper_registry();
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        // Healer (key 0, player 0) at origin; ally in range (key 1); ally far
        // away (key 2); enemy in range (key 3).
        for (key, player, x) in [(0i64, 0i64, 0.0), (1, 0, 3.0), (2, 0, 50.0), (3, 1, 2.0)] {
            let t = TupleBuilder::new(&schema)
                .set("key", key)
                .unwrap()
                .set("player", player)
                .unwrap()
                .set("posx", x)
                .unwrap()
                .set("posy", 0.0)
                .unwrap()
                .set("health", 10i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        let (plan, compiled) = compile("main(u) { perform Heal(u); }", &registry);
        for config in [ExecConfig::naive(&schema), ExecConfig::indexed(&schema)] {
            let rng = GameRng::new(1).for_tick(0);
            let runs = vec![ScriptRun::new(&plan, vec![0]).with_compiled(&compiled)];
            let (effects, _) = execute_tick(&table, &registry, &runs, &rng, &config).unwrap();
            let aura = schema.attr_id("inaura").unwrap();
            assert!(
                effects.get(0, aura).is_some(),
                "healer heals itself (ally in range)"
            );
            assert!(effects.get(1, aura).is_some());
            assert_eq!(effects.get(2, aura), None, "ally out of range");
            assert_eq!(effects.get(3, aura), None, "enemies are not healed");
        }
    }

    #[test]
    fn fire_at_damages_target_and_marks_shooter() {
        let registry = paper_registry();
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        for (key, player, x) in [(0i64, 0i64, 0.0), (1, 1, 4.0)] {
            let t = TupleBuilder::new(&schema)
                .set("key", key)
                .unwrap()
                .set("player", player)
                .unwrap()
                .set("posx", x)
                .unwrap()
                .set("posy", 0.0)
                .unwrap()
                .set("health", 10i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        let (plan, compiled) = compile(
            "main(u) { if u.cooldown = 0 then perform FireAt(u, getNearestEnemy(u).key); }",
            &registry,
        );
        let config = ExecConfig::indexed(&schema);
        let rng = GameRng::new(5).for_tick(2);
        let runs = vec![ScriptRun::new(&plan, vec![0]).with_compiled(&compiled)];
        let (effects, stats) = execute_tick(&table, &registry, &runs, &rng, &config).unwrap();
        let weapon = schema.attr_id("weaponused").unwrap();
        let damage = schema.attr_id("damage").unwrap();
        assert_eq!(effects.get(0, weapon), Some(&Value::Int(1)));
        // The damage roll is (6 - 2) * (Random(1) mod 2) — either 0 or 4, but
        // always recorded for the target.
        let dmg = effects.get(1, damage).unwrap().as_i64().unwrap();
        assert!(dmg == 0 || dmg == 4);
        assert_eq!(stats.acting_units, 1);
    }

    #[test]
    fn empty_plan_and_unknown_action_errors() {
        let registry = paper_registry();
        let (schema, table) = make_table(4, 10.0);
        let rng = GameRng::new(1).for_tick(0);
        // A script whose only branch never fires emits nothing.
        let idle = compile(
            "main(u) { if u.health < 0 then perform MoveInDirection(u, 0, 0); }",
            &registry,
        );
        let runs = vec![ScriptRun::new(&idle.0, vec![0, 1, 2, 3]).with_compiled(&idle.1)];
        let (effects, stats) =
            execute_tick(&table, &registry, &runs, &rng, &ExecConfig::naive(&schema)).unwrap();
        assert!(effects.is_empty());
        assert_eq!(stats.aggregate_probes, 0);

        // A run without bytecode is refused, never silently skipped.
        let runs = vec![ScriptRun::new(&idle.0, vec![0])];
        let err = execute_tick(&table, &registry, &runs, &rng, &ExecConfig::naive(&schema));
        assert!(matches!(err, Err(ExecError::Config(_))), "{err:?}");

        // An unknown action never compiles; an aggregate the executing
        // registry lacks fails the tick with a typed error.
        let script = parse_script("main(u) { perform Teleport(u); }").unwrap();
        let normal = normalize(&script, &registry).unwrap();
        let spatial = SpatialAttrs::from_schema(&schema);
        assert!(compile_script("bad", &normal, &registry, &schema, spatial).is_err());
        let counting = compile(
            "main(u) { (let c = CountEnemiesInRange(u, 5)) if c > 0 then perform MoveInDirection(u, 0, 0); }",
            &registry,
        );
        let mut bare = Registry::new();
        bare.register_action(registry.action("MoveInDirection").unwrap().clone());
        let runs = vec![ScriptRun::new(&counting.0, vec![0]).with_compiled(&counting.1)];
        let err = execute_tick(&table, &bare, &runs, &rng, &ExecConfig::naive(&schema));
        assert!(matches!(err, Err(ExecError::UnknownBuiltin(_))), "{err:?}");

        // A cost-based plan nobody priced is refused rather than scanned;
        // priced, the same tick runs on the chosen structures.
        let runs = vec![ScriptRun::new(&counting.0, vec![0]).with_compiled(&counting.1)];
        let config = ExecConfig::cost_based(&schema);
        let err = execute_tick(&table, &registry, &runs, &rng, &config);
        assert!(matches!(err, Err(ExecError::Config(_))), "{err:?}");
        let mut planned = plan_registry(&registry, &table, &config);
        crate::choose_physical(
            &mut planned,
            &crate::RuntimeStats::default(),
            &sgl_algebra::CostConstants::default(),
            table.len(),
            config.cascading,
        );
        let mut manager = IndexManager::new(&config);
        let constants = registry.constants().clone();
        let (_, stats, _) = execute_tick_planned(
            &table,
            &registry,
            &runs,
            &rng,
            &config,
            &mut manager,
            &planned,
            &constants,
        )
        .unwrap();
        assert!(planned["CountEnemiesInRange"].choice.is_some());
        assert_eq!(stats.aggregate_probes, 1);
    }

    /// The Send/Sync audit behind the parallel executor: everything a worker
    /// thread borrows must be `Sync`, everything it owns must be `Send`.
    #[test]
    fn tick_state_is_thread_safe() {
        fn assert_sync<T: Sync>() {}
        fn assert_send<T: Send>() {}
        assert_sync::<EnvTable>();
        assert_sync::<Registry>();
        assert_sync::<IndexManager>();
        assert_sync::<TickRandom>();
        assert_sync::<ExecConfig>();
        assert_sync::<FxHashMap<String, PlannedAggregate>>();
        assert_sync::<TickShared<'static>>();
        assert_send::<TickIndexes<'static>>();
        assert_send::<EvalContext<'static>>();
        assert_send::<EffectBuffer>();
        assert_send::<ShardState<'static>>();
    }

    #[test]
    fn parallel_execution_matches_serial_exactly() {
        use crate::config::Parallelism;
        let registry = paper_registry();
        let (schema, table) = make_table(97, 40.0);
        let plan = compile(SCRIPT, &registry);
        let (serial, serial_stats) =
            run_mode(ExecConfig::indexed(&schema), &table, &registry, &plan);
        for threads in [2usize, 3, 4, 16] {
            let config =
                ExecConfig::indexed(&schema).with_parallelism(Parallelism::Threads(threads));
            let (parallel, parallel_stats) = run_mode(config, &table, &registry, &plan);
            // Bit-identical combined effects, not just "close".
            assert_eq!(
                serial.canonical(),
                parallel.canonical(),
                "{threads} threads diverged from serial"
            );
            // The work counters that do not depend on shard-local caching
            // must agree; probes answered per shard still never fall back to
            // scans.
            assert_eq!(
                serial_stats.aggregate_probes,
                parallel_stats.aggregate_probes
            );
            assert_eq!(serial_stats.acting_units, parallel_stats.acting_units);
            assert_eq!(serial_stats.effect_rows, parallel_stats.effect_rows);
            assert_eq!(parallel_stats.naive_scans, 0);
        }
        // Naive mode shards the same way.
        let (naive, _) = run_mode(ExecConfig::naive(&schema), &table, &registry, &plan);
        let naive_parallel = ExecConfig::naive(&schema).with_parallelism(Parallelism::Threads(4));
        let (naive4, _) = run_mode(naive_parallel, &table, &registry, &plan);
        assert_eq!(naive.canonical(), naive4.canonical());
    }

    /// Float sums are commutative but not associative: merging per-shard
    /// *pre-combined* buffers would regroup `((a+b)+c)` into `(a+(b+c))` and
    /// change the last bits.  The shard-order log replay must reproduce the
    /// serial fold exactly even when units in different shards contribute
    /// float-sum effects to the same (unit, attribute).
    #[test]
    fn cross_shard_float_sums_reproduce_the_serial_fold_bitwise() {
        use crate::config::Parallelism;
        use sgl_lang::ast::{CmpOp, Cond};
        use sgl_lang::builtins::EffectClause;

        let mut registry = paper_registry();
        // Push(u, target): add the acting unit's posx to the *target's*
        // movement vector — a float-sum effect on a shared target.
        registry.register_action(sgl_lang::builtins::ActionDef {
            name: "Push".into(),
            params: vec!["u".into(), "target".into()],
            clauses: vec![EffectClause {
                filter: Cond::cmp(CmpOp::Eq, Term::row("key"), Term::name("target")),
                effects: vec![("movevect_x".into(), Term::unit("posx"))],
            }],
        });
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        // posx values chosen so the fold order is observable: serial
        // ((1e16 + 1) + 1) = 1e16, while the regrouped (1e16 + (1 + 1))
        // would be 1.0000000000000002e16.
        for (key, posx) in [(0i64, 1e16), (1, 1.0), (2, 1.0)] {
            let t = TupleBuilder::new(&schema)
                .set("key", key)
                .unwrap()
                .set("posx", posx)
                .unwrap()
                .set("health", 10i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        let (plan, compiled) = compile("main(u) { perform Push(u, 0); }", &registry);
        let run = |threads: usize| -> Value {
            let config = match threads {
                0 | 1 => ExecConfig::naive(&schema),
                n => ExecConfig::naive(&schema).with_parallelism(Parallelism::Threads(n)),
            };
            let rng = GameRng::new(1).for_tick(0);
            let runs = vec![ScriptRun::new(&plan, vec![0, 1, 2]).with_compiled(&compiled)];
            let (effects, _) = execute_tick(&table, &registry, &runs, &rng, &config).unwrap();
            effects
                .get(0, schema.attr_id("movevect_x").unwrap())
                .unwrap()
                .clone()
        };
        let serial = run(1);
        assert_eq!(serial, Value::Float(1e16), "serial fold is left-to-right");
        for threads in [2usize, 3] {
            assert_eq!(
                run(threads),
                serial,
                "{threads} threads regrouped the float sum"
            );
        }
    }

    /// Serial emission order is *run-major* (all of run 0's rows, then all
    /// of run 1's).  The parallel replay must interleave the shards' logs
    /// per run — replaying whole shards back-to-back would fold effects from
    /// different runs in the wrong order.
    #[test]
    fn cross_run_float_sums_reproduce_the_serial_fold_bitwise() {
        use crate::config::Parallelism;
        use sgl_lang::ast::{CmpOp, Cond};
        use sgl_lang::builtins::EffectClause;

        let mut registry = paper_registry();
        registry.register_action(sgl_lang::builtins::ActionDef {
            name: "Push".into(),
            params: vec!["u".into(), "target".into()],
            clauses: vec![EffectClause {
                filter: Cond::cmp(CmpOp::Eq, Term::row("key"), Term::name("target")),
                effects: vec![("movevect_x".into(), Term::unit("posx"))],
            }],
        });
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        // Run 0 contributes +1e16 (row 0) and +1.0 (row 1); run 1
        // contributes -1e16 (row 2).  Serial (run-major) order folds
        // ((1e16 + 1) - 1e16) = 0.0; a shard-major replay at 2 threads
        // would fold ((1e16 - 1e16) + 1) = 1.0.
        for (key, posx) in [(0i64, 1e16), (1, 1.0), (2, -1e16)] {
            let t = TupleBuilder::new(&schema)
                .set("key", key)
                .unwrap()
                .set("posx", posx)
                .unwrap()
                .set("health", 10i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        let (plan, compiled) = compile("main(u) { perform Push(u, 0); }", &registry);
        let run = |threads: usize| -> Value {
            let config = match threads {
                0 | 1 => ExecConfig::naive(&schema),
                n => ExecConfig::naive(&schema).with_parallelism(Parallelism::Threads(n)),
            };
            let rng = GameRng::new(1).for_tick(0);
            let runs = vec![
                ScriptRun::new(&plan, vec![0, 1]).with_compiled(&compiled),
                ScriptRun::new(&plan, vec![2]).with_compiled(&compiled),
            ];
            let (effects, _) = execute_tick(&table, &registry, &runs, &rng, &config).unwrap();
            effects
                .get(0, schema.attr_id("movevect_x").unwrap())
                .unwrap()
                .clone()
        };
        let serial = run(1);
        assert_eq!(serial, Value::Float(0.0), "serial fold is run-major");
        for threads in [2usize, 3] {
            assert_eq!(run(threads), serial, "{threads} threads reordered runs");
        }
    }

    #[test]
    fn sharding_splits_rows_contiguously_and_exhaustively() {
        let plan = LogicalPlan::Scan;
        let runs = vec![
            ScriptRun::new(&plan, (0..10).collect()),
            ScriptRun::new(&plan, vec![100, 101, 102]),
        ];
        let shards = shard_runs(&runs, 4);
        assert_eq!(shards.len(), 4);
        // Concatenating the shards reproduces each run's serial order.
        for run_idx in 0..runs.len() {
            let glued: Vec<u32> = shards
                .iter()
                .flat_map(|s| s[run_idx].acting_rows.iter().copied())
                .collect();
            assert_eq!(glued, runs[run_idx].acting_rows);
        }
        // Each run is balanced to within one row across the shards.
        for run_idx in 0..runs.len() {
            let sizes: Vec<usize> = shards
                .iter()
                .map(|s| s[run_idx].acting_rows.len())
                .collect();
            assert_eq!(sizes.iter().sum::<usize>(), runs[run_idx].acting_rows.len());
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "{sizes:?}");
        }
    }
}
