//! Per-rule optimizer tests: for every rewrite rule in
//! `crates/algebra/src/rules.rs`, (a) an explain-based assertion that the
//! rule fires on its motivating script shape (the rendered plan changes in
//! the way the paper's Figure 6 walk describes), and (b) a differential
//! check that the rewritten plan produces exactly the same effect relation
//! as the unrewritten one on a populated world — rules must only ever buy
//! speed, never change semantics.  The engine executes bytecode lowered from
//! the script, not plans, so (b) evaluates both plans with the naive bag
//! semantics of [`PlanSemantics`].

use std::sync::Arc;

use sgl::algebra::{explain, optimize_with, translate, LogicalPlan, OptimizerOptions};
use sgl::env::{AttrId, EffectBuffer, EnvTable, GameRng, Schema, TickRandom, TupleBuilder, Value};
use sgl::exec::builtin_eval::{bind_params, eval_call_args, eval_call_scan};
use sgl::lang::builtins::{paper_registry, Registry};
use sgl::lang::eval::{eval_cond, eval_term, EvalContext, NoAggregates, ScriptValue};
use sgl::lang::normalize::normalize;
use sgl::lang::parse_script;

/// Translate a script to its unoptimized logical plan.
fn plan_of(src: &str) -> LogicalPlan {
    let registry = paper_registry();
    let script = parse_script(src).expect("test script parses");
    let normal = normalize(&script, &registry).expect("test script normalizes");
    translate(&normal)
}

/// Apply exactly one rule (plus nothing else) to a plan.
fn apply_rule(plan: LogicalPlan, pick: impl Fn(&mut OptimizerOptions)) -> LogicalPlan {
    let registry = paper_registry();
    let mut options = OptimizerOptions::none();
    pick(&mut options);
    optimize_with(plan, &registry, options).plan
}

/// A deterministic world over the paper schema: two interleaved players on a
/// diagonal spread, some units with cooldown 0 and some wounded, so every
/// branch of the motivating scripts has acting units.
fn make_table(n: usize) -> (Arc<Schema>, EnvTable) {
    let schema = sgl::env::schema::paper_schema().into_shared();
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
            .set("posx", next() * 40.0)
            .unwrap()
            .set("posy", next() * 40.0)
            .unwrap()
            .set("health", 10 + (key as i64 % 13))
            .unwrap()
            .set("cooldown", (key as i64) % 3)
            .unwrap()
            .build();
        table.insert(t).unwrap();
    }
    (schema, table)
}

/// One unit flowing through a plan: its row and its extended columns.
type Flow = (u32, Vec<(String, ScriptValue)>);

/// The bag-algebra meaning of a logical plan for one tick, evaluated as
/// naively as possible: every unit flows through the operators carrying its
/// extended columns, `ExtendAgg` scans the environment, `Apply` tests every
/// row against each effect clause of the action.
struct PlanSemantics<'a> {
    table: &'a EnvTable,
    registry: &'a Registry,
    rng: &'a TickRandom,
    effects: EffectBuffer,
}

impl<'a> PlanSemantics<'a> {
    fn ctx(&self, (row, columns): &Flow) -> EvalContext<'a> {
        let unit = self.table.row(*row as usize);
        let constants = self.registry.constants();
        let mut ctx = EvalContext::new(self.table.schema(), unit, self.rng, constants);
        for (name, value) in columns {
            ctx.bindings.insert(name.clone(), value.clone());
        }
        ctx
    }

    fn relation(&self, plan: &LogicalPlan) -> Vec<Flow> {
        match plan {
            LogicalPlan::Scan => (0..self.table.len() as u32)
                .map(|row| (row, Vec::new()))
                .collect(),
            LogicalPlan::Select { input, predicate } => self
                .relation(input)
                .into_iter()
                .filter(|flow| eval_cond(predicate, &self.ctx(flow), &mut NoAggregates).unwrap())
                .collect(),
            LogicalPlan::ExtendExpr { input, name, term } => {
                let mut flows = self.relation(input);
                for flow in &mut flows {
                    let value = eval_term(term, &self.ctx(flow), &mut NoAggregates).unwrap();
                    flow.1.push((name.clone(), value));
                }
                flows
            }
            LogicalPlan::ExtendAgg { input, name, call } => {
                let def = self
                    .registry
                    .aggregate(&call.name)
                    .expect("known aggregate");
                let mut flows = self.relation(input);
                for flow in &mut flows {
                    let value = eval_call_scan(def, call, &self.ctx(flow), self.table).unwrap();
                    flow.1.push((name.clone(), value));
                }
                flows
            }
            other => panic!("{other:?} is not a relation"),
        }
    }

    fn run(&mut self, plan: &LogicalPlan) {
        match plan {
            LogicalPlan::CombineWithEnv { input } => self.run(input),
            LogicalPlan::Combine { inputs } => inputs.iter().for_each(|input| self.run(input)),
            LogicalPlan::Apply {
                input,
                action,
                args,
            } => {
                let def = self.registry.action(action).expect("known action");
                let schema = self.table.schema();
                for flow in self.relation(input) {
                    let mut ctx = self.ctx(&flow);
                    let values = eval_call_args(args, &ctx).unwrap();
                    for (name, value) in bind_params(&def.name, &def.params, &values).unwrap() {
                        ctx.bindings.insert(name, value);
                    }
                    for clause in &def.clauses {
                        for target in 0..self.table.len() {
                            let target = self.table.row(target);
                            let row_ctx = ctx.with_row(target);
                            if !eval_cond(&clause.filter, &row_ctx, &mut NoAggregates).unwrap() {
                                continue;
                            }
                            for (attr, term) in &clause.effects {
                                let attr = schema.attr_id(attr).expect("effect attribute");
                                let value = eval_term(term, &row_ctx, &mut NoAggregates).unwrap();
                                let value = value.as_scalar().unwrap().clone();
                                self.effects.apply(target.key(schema), attr, value).unwrap();
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Evaluate one tick of a plan over the world with every unit acting and
/// return the canonical effect relation.
fn effects_of(plan: &LogicalPlan) -> Vec<(i64, AttrId, Value)> {
    let registry = paper_registry();
    let (schema, table) = make_table(36);
    let rng = GameRng::new(5).for_tick(1);
    let mut semantics = PlanSemantics {
        table: &table,
        registry: &registry,
        rng: &rng,
        effects: EffectBuffer::new(schema),
    };
    semantics.run(plan);
    semantics.effects.canonical()
}

/// The rewritten plan must be observationally identical to the original.
fn assert_same_effects(unoptimized: &LogicalPlan, optimized: &LogicalPlan, rule: &str) {
    let before = effects_of(unoptimized);
    assert!(
        !before.is_empty(),
        "{rule}: the world gives the plan nothing to do"
    );
    assert_eq!(
        before,
        effects_of(optimized),
        "{rule} changed the effect relation;\n--- before ---\n{}\n--- after ---\n{}",
        explain(unoptimized),
        explain(optimized)
    );
}

/// Figure 6 (a)→(b), dead-column elimination: the `¬φ1` branch never reads
/// the `away` centroid, so its ExtendAgg must disappear from that branch.
#[test]
fn dead_column_elimination_fires_on_the_figure_6_shape() {
    let plan = plan_of(
        r#"main(u) {
            (let c = CountEnemiesInRange(u, 12))
            (let away = CentroidOfEnemyUnits(u, 12))
            if c > 3 then
              perform MoveInDirection(u, away.x, away.y);
            else
              perform FireAt(u, getNearestEnemy(u).key);
        }"#,
    );
    let before = explain(&plan);
    // Unoptimized: the centroid is extended in both branches of the combine.
    assert_eq!(before.matches("CentroidOfEnemyUnits").count(), 2);

    let optimized = apply_rule(plan.clone(), |o| o.dead_column_elimination = true);
    let after = explain(&optimized);
    assert_eq!(
        after.matches("CentroidOfEnemyUnits").count(),
        1,
        "the unused centroid extension must be dropped from the else-branch:\n{after}"
    );
    // The used extensions survive.
    assert_eq!(after.matches("CountEnemiesInRange").count(), 2);
    assert_eq!(after.matches("getNearestEnemy").count(), 1);
    assert_same_effects(&plan, &optimized, "dead-column elimination");
}

/// Rule (8), extension pull-up: a selection on a plain attribute is pushed
/// below the aggregate extension, so the aggregate is only computed for the
/// selected units — in the rendered tree, ExtendAgg moves *above* Select.
#[test]
fn extension_pull_up_fires_when_the_selection_ignores_the_column() {
    let plan = plan_of(
        r#"main(u) {
            (let away = CentroidOfEnemyUnits(u, 15))
            if u.cooldown = 0 then
              perform MoveInDirection(u, away.x, away.y);
        }"#,
    );
    let line_index = |text: &str, needle: &str| -> usize {
        text.lines()
            .position(|l| l.contains(needle))
            .unwrap_or_else(|| panic!("no `{needle}` line in:\n{text}"))
    };
    let before = explain(&plan);
    // Unoptimized (root-first rendering): the selection sits above the
    // extension, so every unit pays for the centroid.
    assert!(
        line_index(&before, "Select σ[")
            < line_index(&before, "ExtendAgg π[*, CentroidOfEnemyUnits"),
        "unexpected translation:\n{before}"
    );

    let optimized = apply_rule(plan.clone(), |o| o.extension_pull_up = true);
    let after = explain(&optimized);
    assert!(
        line_index(&after, "ExtendAgg π[*, CentroidOfEnemyUnits") < line_index(&after, "Select σ["),
        "the extension must be evaluated after the selection:\n{after}"
    );
    assert_same_effects(&plan, &optimized, "extension pull-up");
}

/// Associativity of ⊕: nested combines (from nested conditionals and
/// statement sequences) flatten into one n-ary combine with no Empty inputs.
#[test]
fn combine_flattening_fires_on_nested_conditionals() {
    let plan = plan_of(
        r#"main(u) {
            (let c = CountEnemiesInRange(u, 9))
            if c > 4 then {
              perform FireAt(u, getNearestEnemy(u).key);
              perform MoveInDirection(u, 1, 1);
            }
            else {
              if u.health > 5 then
                perform MoveInDirection(u, 30, 30);
              else
                perform MoveInDirection(u, 0, 0);
            }
        }"#,
    );
    // The raw translation nests: Combine(then-branch, Combine(inner if)...).
    fn max_combine_nesting(plan: &LogicalPlan, inside: usize) -> usize {
        let here = match plan {
            LogicalPlan::Combine { .. } => inside + 1,
            _ => inside,
        };
        plan.children()
            .iter()
            .map(|c| max_combine_nesting(c, here))
            .max()
            .unwrap_or(here)
    }
    assert!(
        max_combine_nesting(&plan, 0) >= 2,
        "motivating shape should nest combines:\n{}",
        explain(&plan)
    );

    let optimized = apply_rule(plan.clone(), |o| o.combine_flattening = true);
    let after = explain(&optimized);
    assert_eq!(
        max_combine_nesting(&optimized, 0),
        1,
        "combines must flatten to a single n-ary node:\n{after}"
    );
    assert!(
        !after.contains("Empty"),
        "empty inputs must be dropped:\n{after}"
    );
    assert_same_effects(&plan, &optimized, "combine flattening");
}

/// Figure 6 (c)→(d): when complementary branches partition the environment
/// and every action writes onto its acting unit, the final `⊕ E` is
/// redundant and the CombineWithEnv root disappears.
#[test]
fn env_combine_elimination_fires_on_partitioning_branches() {
    let plan = plan_of(
        r#"main(u) {
            (let c = CountEnemiesInRange(u, 11))
            if c > 2 then
              perform FireAt(u, getNearestEnemy(u).key);
            else
              perform MoveInDirection(u, 20, 20);
        }"#,
    );
    let before = explain(&plan);
    assert!(
        before.contains("CombineWithEnv"),
        "unexpected translation:\n{before}"
    );

    let optimized = apply_rule(plan.clone(), |o| {
        // Flattening first normalizes the combine the partition check reads.
        o.combine_flattening = true;
        o.env_combine_elimination = true;
    });
    let after = explain(&optimized);
    assert!(
        !after.contains("CombineWithEnv"),
        "the redundant ⊕ E must be eliminated:\n{after}"
    );
    assert_same_effects(&plan, &optimized, "environment-combine elimination");
}

/// The guard side of the env-combine rule: `Heal` does not write onto the
/// healer itself, so the `⊕ E` must be kept even on a partitioning shape —
/// the rule's structural proof fails and the plan is unchanged.
#[test]
fn env_combine_is_kept_when_an_action_does_not_cover_self() {
    let plan = plan_of(
        r#"main(u) {
            (let c = CountEnemiesInRange(u, 11))
            if c > 2 then
              perform Heal(u);
            else
              perform MoveInDirection(u, 20, 20);
        }"#,
    );
    let optimized = apply_rule(plan.clone(), |o| {
        o.combine_flattening = true;
        o.env_combine_elimination = true;
    });
    let after = explain(&optimized);
    assert!(
        after.contains("CombineWithEnv"),
        "⊕ E is load-bearing for non-self-covering actions:\n{after}"
    );
    assert_same_effects(&plan, &optimized, "environment-combine (kept)");
}

/// The full default pipeline on the running example: all four rules compose,
/// the plan shrinks, and the semantics is unchanged — the explain report
/// shows fewer aggregate extensions after than before.
#[test]
fn the_default_pipeline_composes_all_rules_without_changing_semantics() {
    let registry = paper_registry();
    let plan = plan_of(
        r#"main(u) {
            (let c = CountEnemiesInRange(u, 12))
            (let away = CentroidOfEnemyUnits(u, 12))
            if c > 3 then
              perform MoveInDirection(u, away.x, away.y);
            else if c > 0 and u.cooldown = 0 then
              perform FireAt(u, getNearestEnemy(u).key);
            else
              perform MoveInDirection(u, 25, 25);
        }"#,
    );
    let optimized = optimize_with(plan.clone(), &registry, OptimizerOptions::default());
    assert!(
        optimized.after.aggregate_nodes < optimized.before.aggregate_nodes,
        "the pipeline should remove at least one aggregate extension: {:?} -> {:?}",
        optimized.before,
        optimized.after
    );
    assert!(optimized.after.nodes < optimized.before.nodes);
    assert_same_effects(&plan, &optimized.plan, "default pipeline");
}
