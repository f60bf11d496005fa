//! The oracle interpreter — the reference semantics of the conformance suite.
//!
//! Every other execution path in this workspace earns its speed through
//! machinery that could, in principle, change the simulated game: the
//! algebraic optimizer rewrites plans, the compiler lowers scripts to
//! bytecode, the planner picks index structures, the executor maintains
//! structures across ticks and fans units out over threads.  The paper's correctness claim is that
//! none of that is observable.  This module is the other side of that
//! differential test: a deliberately naive interpreter that walks the
//! *normalized script AST* directly (no logical plan at all) and answers
//! every aggregate by scanning the environment.  It has no configuration
//! knobs — no planner, no indexes, no memo, no sharing, strictly serial — so
//! when an optimized configuration and the oracle disagree on a
//! `StateDigest`, the optimized configuration is wrong.
//!
//! The oracle folds effects *unit-major* (each acting unit evaluates its
//! whole script before the next unit starts) while the bytecode VM folds
//! them statement-major (all units' effects of one `perform` site before the
//! next site's).  The two orders fold the combined effect relation identically
//! because effect combination is per `(unit, attribute)`: the per-key
//! subsequence of emissions is the same in both traversals for
//! self-targeting effects, and cross-unit effects in the built-in repertoire
//! combine through order-insensitive operators (integer sums, max).
//! `tests/conformance.rs` holds the oracle to that promise over thousands of
//! generated scripts and worlds.

use rustc_hash::FxHashMap;

use sgl_env::{EffectBuffer, EnvTable, TickRandom, Value};
use sgl_lang::ast::{Action, AggCall, Term};
use sgl_lang::builtins::Registry;
use sgl_lang::eval::{eval_cond, eval_term, EvalContext, NoAggregates, ScriptValue};
use sgl_lang::normalize::NormalScript;

use crate::builtin_eval::{bind_params, eval_aggregate_scan, eval_call_args};
use crate::config::TickStats;
use crate::error::{ExecError, Result};

/// One script to interpret in a tick: the normalized AST plus the acting
/// units (row indices into the environment) that run it.  The oracle works
/// from the AST on purpose — a differential harness that re-used the
/// optimized logical plan would be blind to translation and optimizer bugs.
#[derive(Debug, Clone)]
pub struct OracleRun<'p> {
    /// The normalized script (aggregates only as `let` right-hand sides).
    pub script: &'p NormalScript,
    /// Row indices of the units running this script.
    pub acting_rows: Vec<u32>,
}

/// Execute one clock tick with the oracle interpreter: every acting unit of
/// every run walks its script AST top to bottom, aggregates are answered by
/// scanning `table`, actions by testing every row against each effect
/// clause.  Returns the combined effect relation and (scan-heavy) statistics.
pub fn execute_tick_oracle(
    table: &EnvTable,
    registry: &Registry,
    runs: &[OracleRun<'_>],
    rng: &TickRandom,
) -> Result<(EffectBuffer, TickStats)> {
    let mut effects = EffectBuffer::new(table.schema().clone());
    let mut stats = TickStats::default();
    let constants = registry.constants();
    for run in runs {
        for &row in &run.acting_rows {
            let mut interp = OracleInterp {
                table,
                registry,
                rng,
                constants,
                effects: &mut effects,
                stats: &mut stats,
                row,
            };
            let bindings = Bindings::default();
            interp.run_action(&run.script.body, &bindings)?;
        }
    }
    stats.effect_rows = effects.len();
    Ok((effects, stats))
}

type Bindings = FxHashMap<String, ScriptValue>;

struct OracleInterp<'a> {
    table: &'a EnvTable,
    registry: &'a Registry,
    rng: &'a TickRandom,
    constants: &'a FxHashMap<String, Value>,
    effects: &'a mut EffectBuffer,
    stats: &'a mut TickStats,
    row: u32,
}

impl<'a> OracleInterp<'a> {
    fn ctx(&self, bindings: &Bindings) -> EvalContext<'a> {
        let unit = self.table.row(self.row as usize);
        let mut ctx = EvalContext::new(self.table.schema(), unit, self.rng, self.constants);
        ctx.bindings = bindings.clone();
        ctx
    }

    /// Evaluate a term, answering any embedded aggregate call by scanning.
    /// Normalized scripts only carry aggregates as entire `let` right-hand
    /// sides, but the oracle is also the reference for *unnormalized* input
    /// in unit tests, so it handles the general shape.
    fn eval_term_scanning(&mut self, term: &Term, bindings: &Bindings) -> Result<ScriptValue> {
        match term {
            Term::Agg(call) => self.eval_aggregate(call, bindings),
            _ if !term.contains_aggregate() => {
                let ctx = self.ctx(bindings);
                let mut no_aggs = NoAggregates;
                eval_term(term, &ctx, &mut no_aggs).map_err(ExecError::from)
            }
            _ => {
                let ctx = self.ctx(bindings);
                let mut provider = ScanProvider { interp: self };
                eval_term(term, &ctx, &mut provider).map_err(ExecError::from)
            }
        }
    }

    fn run_action(&mut self, action: &Action, bindings: &Bindings) -> Result<()> {
        match action {
            Action::Nop => Ok(()),
            Action::Seq(items) => {
                for item in items {
                    self.run_action(item, bindings)?;
                }
                Ok(())
            }
            Action::Let { name, term, body } => {
                let value = self.eval_term_scanning(term, bindings)?;
                let mut inner = bindings.clone();
                inner.insert(name.clone(), value);
                self.run_action(body, &inner)
            }
            Action::If { cond, then, els } => {
                let holds = self.eval_cond_scanning(cond, bindings)?;
                if holds {
                    self.run_action(then, bindings)
                } else if let Some(e) = els {
                    self.run_action(e, bindings)
                } else {
                    Ok(())
                }
            }
            Action::Perform { name, args } => self.perform(name, args, bindings),
        }
    }

    /// Evaluate a condition, answering any embedded aggregate by scanning
    /// (normalized scripts keep conditions aggregate-free).
    fn eval_cond_scanning(
        &mut self,
        cond: &sgl_lang::ast::Cond,
        bindings: &Bindings,
    ) -> Result<bool> {
        if !cond.contains_aggregate() {
            let ctx = self.ctx(bindings);
            let mut no_aggs = NoAggregates;
            return eval_cond(cond, &ctx, &mut no_aggs).map_err(ExecError::from);
        }
        let ctx = self.ctx(bindings);
        let mut provider = ScanProvider { interp: self };
        eval_cond(cond, &ctx, &mut provider).map_err(ExecError::from)
    }

    /// Evaluate call arguments.  Aggregate-free arguments — every argument
    /// the normalizer emits — delegate to [`eval_call_args`], the executor's
    /// own routine (including its bare-`u`/`self` unit-marker convention),
    /// so the oracle cannot drift from the semantics it referees.  Only
    /// unnormalized aggregate-bearing arguments take the scanning path.
    fn eval_args_scanning(
        &mut self,
        args: &[Term],
        bindings: &Bindings,
    ) -> Result<Vec<ScriptValue>> {
        args.iter()
            .map(|a| {
                if a.contains_aggregate() {
                    self.eval_term_scanning(a, bindings)
                } else {
                    eval_call_args(std::slice::from_ref(a), &self.ctx(bindings)).and_then(
                        |mut values| {
                            values.pop().ok_or_else(|| {
                                ExecError::Internal(
                                    "eval_call_args returned no value for one argument".into(),
                                )
                            })
                        },
                    )
                }
            })
            .collect()
    }

    /// Evaluate one aggregate call by scanning the environment — exactly
    /// [`eval_aggregate_scan`], the semantics the indexed strategies must
    /// reproduce.
    fn eval_aggregate(&mut self, call: &AggCall, bindings: &Bindings) -> Result<ScriptValue> {
        self.stats.aggregate_probes += 1;
        self.stats.naive_scans += 1;
        let args = self.eval_args_scanning(&call.args, bindings)?;
        let ctx = self.ctx(bindings);
        let def = self
            .registry
            .aggregate(&call.name)
            .ok_or_else(|| ExecError::UnknownBuiltin(call.name.clone()))?;
        let params = bind_params(&def.name, &def.params, &args)?;
        eval_aggregate_scan(def, &params, &ctx, self.table)
    }

    /// Apply a built-in action: test every row of the environment against
    /// each effect clause, in row order (the naive candidate enumeration).
    fn perform(&mut self, name: &str, args: &[Term], bindings: &Bindings) -> Result<()> {
        let def = self
            .registry
            .action(name)
            .ok_or_else(|| ExecError::UnknownBuiltin(name.to_string()))?
            .clone();
        self.stats.acting_units += 1;
        let arg_values = self.eval_args_scanning(args, bindings)?;
        let params = bind_params(&def.name, &def.params, &arg_values)?;
        let mut full_ctx = self.ctx(bindings);
        for (k, v) in &params {
            full_ctx.bindings.insert(k.clone(), v.clone());
        }
        let schema = self.table.schema();
        let mut no_aggs = NoAggregates;
        for clause in &def.clauses {
            for target in 0..self.table.len() {
                let target_row = self.table.row(target);
                let row_ctx = full_ctx.with_row(target_row);
                if !eval_cond(&clause.filter, &row_ctx, &mut no_aggs)? {
                    continue;
                }
                let target_key = target_row.key(schema);
                for (attr_name, term) in &clause.effects {
                    let attr = schema.attr_id(attr_name).ok_or_else(|| {
                        ExecError::Internal(format!("unknown effect attribute `{attr_name}`"))
                    })?;
                    let value = eval_term(term, &row_ctx, &mut no_aggs)?
                        .as_scalar()?
                        .clone();
                    self.effects
                        .apply(target_key, attr, value)
                        .map_err(ExecError::from)?;
                }
            }
        }
        Ok(())
    }
}

/// Aggregate provider used for the (rare) unnormalized terms: answers each
/// embedded call by scanning, with the oracle's statistics accounting.
struct ScanProvider<'b, 'a> {
    interp: &'b mut OracleInterp<'a>,
}

impl sgl_lang::eval::AggregateProvider for ScanProvider<'_, '_> {
    fn evaluate(&mut self, call: &AggCall, ctx: &EvalContext<'_>) -> sgl_lang::Result<ScriptValue> {
        let bindings = ctx.bindings.clone();
        self.interp
            .eval_aggregate(call, &bindings)
            .map_err(|e| sgl_lang::LangError::Semantic(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_script;
    use crate::config::{ExecConfig, SpatialAttrs};
    use crate::tick::{execute_tick, ScriptRun};
    use sgl_algebra::{optimize, translate};
    use sgl_env::{schema::paper_schema, GameRng, Schema, TupleBuilder};
    use sgl_lang::builtins::paper_registry;
    use sgl_lang::normalize::normalize;
    use sgl_lang::parse_script;
    use std::sync::Arc;

    fn make_table(n: usize, spread: f64) -> (Arc<Schema>, EnvTable) {
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        let mut state = 7u64;
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

    const SCRIPT: &str = r#"
        main(u) {
          (let c = CountEnemiesInRange(u, 12))
          if c > 3 then
            perform MoveInDirection(u, u.posx - 5, u.posy - 5);
          else if c > 0 and u.cooldown = 0 then
            perform FireAt(u, getNearestEnemy(u).key);
          else
            perform MoveInDirection(u, 25, 25);
        }
    "#;

    #[test]
    fn oracle_matches_plan_execution_on_the_running_example() {
        let registry = paper_registry();
        let (schema, table) = make_table(40, 35.0);
        let script = parse_script(SCRIPT).unwrap();
        let normal = normalize(&script, &registry).unwrap();
        let plan = optimize(translate(&normal), &registry).plan;
        let spatial = SpatialAttrs::from_schema(&schema);
        let compiled = compile_script("example", &normal, &registry, &schema, spatial).unwrap();
        let rng = GameRng::new(11).for_tick(3);
        let acting: Vec<u32> = (0..table.len() as u32).collect();

        let (oracle_effects, oracle_stats) = execute_tick_oracle(
            &table,
            &registry,
            &[OracleRun {
                script: &normal,
                acting_rows: acting.clone(),
            }],
            &rng,
        )
        .unwrap();

        for config in [ExecConfig::naive(&schema), ExecConfig::indexed(&schema)] {
            let runs = vec![ScriptRun::new(&plan, acting.clone()).with_compiled(&compiled)];
            let (effects, stats) = execute_tick(&table, &registry, &runs, &rng, &config).unwrap();
            assert_eq!(
                oracle_effects.canonical(),
                effects.canonical(),
                "{:?} diverged from the oracle",
                config.planner
            );
            assert_eq!(oracle_stats.acting_units, stats.acting_units);
        }
        // The oracle scanned for every probe and shared nothing.
        assert_eq!(oracle_stats.naive_scans, oracle_stats.aggregate_probes);
        assert!(oracle_stats.naive_scans > 0);
    }

    #[test]
    fn oracle_handles_unnormalized_aggregate_terms() {
        // Aggregates nested inside conditions/args — legal input for the
        // oracle even though the plan pipeline would normalize it first.
        let registry = paper_registry();
        let (_, table) = make_table(10, 20.0);
        let script =
            parse_script("main(u) { if CountEnemiesInRange(u, 30) > 0 then perform FireAt(u, getNearestEnemy(u).key); }")
                .unwrap();
        let raw = NormalScript {
            unit_param: "u".into(),
            body: script.main.body.clone(),
        };
        let rng = GameRng::new(2).for_tick(0);
        let (effects, stats) = execute_tick_oracle(
            &table,
            &registry,
            &[OracleRun {
                script: &raw,
                acting_rows: vec![0],
            }],
            &rng,
        )
        .unwrap();
        assert!(stats.aggregate_probes >= 2);
        assert!(!effects.is_empty());
    }

    #[test]
    fn oracle_reports_unknown_builtins() {
        let registry = paper_registry();
        let (_, table) = make_table(4, 10.0);
        let script = parse_script("main(u) { perform Vanish(u); }").unwrap();
        let raw = NormalScript {
            unit_param: "u".into(),
            body: script.main.body.clone(),
        };
        let rng = GameRng::new(2).for_tick(0);
        let err = execute_tick_oracle(
            &table,
            &registry,
            &[OracleRun {
                script: &raw,
                acting_rows: vec![0],
            }],
            &rng,
        );
        assert!(matches!(err, Err(ExecError::UnknownBuiltin(_))));
    }
}
