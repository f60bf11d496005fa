//! Differential coverage of the compiled call boundary.
//!
//! The bytecode VM evaluates everything behind `CallAgg` / `Perform` — probe
//! rectangles, categorical constraint values, clause filters and effect
//! values, `ArgBest` outputs — as *closed-term code* (`sgl_exec::closed`)
//! over positionally flattened call arguments.  The tree-walking
//! `eval_term` / `eval_cond` over a name-keyed binding map is the
//! reference.  These tests require the two to agree — equal `Value` bits or
//! the same error variant — on every built-in definition of the battle
//! registry, on the terms of generated scripts, and on the edge cases the
//! lowering could plausibly get wrong.

use std::sync::Arc;

use sgl::battle::{battle_registry, battle_schema};
use sgl::env::{EnvTable, GameRng, RowRef, Schema, TickRandom, TupleBuilder, Value};
use sgl::exec::builtin_eval::bind_params;
use sgl::exec::{analyze_filter, ClosedProgram, ExecError, SpatialAttrs};
use sgl::lang::ast::{Action, BinOp, CmpOp, Cond, Term};
use sgl::lang::builtins::{AggSpec, Registry};
use sgl::lang::eval::{eval_cond, eval_term, EvalContext, NoAggregates, ScriptValue};
use sgl::lang::LangError;
use sgl_testkit::{generate_script, ScriptGenConfig, TestRng};

/// A small hand-built world: both players, every numeric type, two units on
/// the same spot and one far away.
fn world() -> (Arc<Schema>, EnvTable) {
    let schema = battle_schema().into_shared();
    let mut table = EnvTable::new(Arc::clone(&schema));
    let rows: [(i64, i64, i64, f64, f64, i64, i64); 6] = [
        (1, 0, 0, 3.0, 4.0, 20, 2),
        (2, 1, 1, 3.0, 4.0, 7, 0),
        (3, 0, 2, -12.5, 0.25, 1, 1),
        (4, 1, 0, 90.0, 90.0, 15, 3),
        (5, 0, 1, 0.0, 0.0, 0, 0),
        (6, 1, 2, 7.75, -3.5, 30, 5),
    ];
    for (key, player, unittype, x, y, health, armor) in rows {
        let t = TupleBuilder::new(&schema)
            .set("key", key)
            .unwrap()
            .set("player", player)
            .unwrap()
            .set("unittype", unittype)
            .unwrap()
            .set("posx", x)
            .unwrap()
            .set("posy", y)
            .unwrap()
            .set("health", health)
            .unwrap()
            .set("max_health", 30i64)
            .unwrap()
            .set("armor", armor)
            .unwrap()
            .set("cooldown", key % 2)
            .unwrap()
            .build();
        table.insert(t).unwrap();
    }
    (schema, table)
}

/// Strict equality: same variant, floats by bits (`Value`'s own `==` is the
/// loose script-level comparison and would call `1` and `1.0` equal).
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn same_script_value(a: &ScriptValue, b: &ScriptValue) -> bool {
    match (a, b) {
        (ScriptValue::Scalar(x), ScriptValue::Scalar(y)) => same_bits(x, y),
        (ScriptValue::Record(x), ScriptValue::Record(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((n1, v1), (n2, v2))| n1 == n2 && same_bits(v1, v2))
        }
        _ => false,
    }
}

/// Same error *variant*, through every wrapping layer (messages may name
/// different call sites).
fn same_error(a: &ExecError, b: &ExecError) -> bool {
    use std::mem::discriminant;
    match (a, b) {
        (ExecError::Lang(LangError::Env(x)), ExecError::Lang(LangError::Env(y))) => {
            discriminant(x) == discriminant(y)
        }
        (ExecError::Lang(x), ExecError::Lang(y)) => discriminant(x) == discriminant(y),
        (ExecError::Env(x), ExecError::Env(y)) => discriminant(x) == discriminant(y),
        _ => discriminant(a) == discriminant(b),
    }
}

fn assert_same(
    what: &str,
    closed: Result<ScriptValue, ExecError>,
    tree: Result<ScriptValue, ExecError>,
) {
    match (&closed, &tree) {
        (Ok(c), Ok(t)) => assert!(
            same_script_value(c, t),
            "{what}: closed code gave {c:?}, the tree walker {t:?}"
        ),
        (Err(c), Err(t)) => assert!(
            same_error(c, t),
            "{what}: closed code failed with {c:?}, the tree walker with {t:?}"
        ),
        _ => panic!("{what}: closed code gave {closed:?}, the tree walker {tree:?}"),
    }
}

/// Either side of one definition fragment.
enum Fragment<'t> {
    Term(&'t Term),
    Cond(&'t Cond),
}

/// One evaluation point: the unit, the candidate row, the call's argument
/// values after the unit, and the run's constant table.
struct Point<'w> {
    schema: &'w Schema,
    unit: RowRef<'w>,
    row: RowRef<'w>,
    args: &'w [ScriptValue],
    rng: &'w TickRandom,
    /// The registry whose constant table the run sees (not necessarily the
    /// one the code was lowered against).
    run: &'w Registry,
}

/// Evaluate `fragment` both ways under definition parameters `params`
/// (implicit unit first) and require agreement.  Returns whether the
/// fragment lowered at all (nested aggregates do not).
fn check(
    what: &str,
    fragment: &Fragment<'_>,
    params: &[String],
    registry: &Registry,
    p: &Point<'_>,
) -> bool {
    let program = match fragment {
        Fragment::Term(t) => ClosedProgram::term(t, params, registry, p.schema),
        Fragment::Cond(c) => ClosedProgram::cond(c, params, registry, p.schema),
    };
    let Ok(program) = program else {
        return false;
    };
    let unit_key = p.unit.key(p.schema);
    let closed = program.eval(
        p.unit,
        unit_key,
        Some(p.row),
        p.args,
        p.rng,
        p.run.constants(),
    );

    // The reference: bind the flattened arguments by name, then walk.
    let mut call_args = vec![ScriptValue::Scalar(Value::Int(unit_key))];
    call_args.extend(p.args.iter().cloned());
    let tree = bind_params("closed program", params, &call_args).and_then(|bindings| {
        let mut ctx = EvalContext::new(p.schema, p.unit, p.rng, p.run.constants());
        ctx.bindings = bindings;
        let ctx = ctx.with_row(p.row);
        let mut no_aggs = NoAggregates;
        Ok(match fragment {
            Fragment::Term(t) => eval_term(t, &ctx, &mut no_aggs)?,
            Fragment::Cond(c) => {
                ScriptValue::Scalar(Value::Bool(eval_cond(c, &ctx, &mut no_aggs)?))
            }
        })
    });
    assert_same(&format!("{what} [{program}]"), closed, tree);
    true
}

/// Scalar argument values that stress numeric promotion and the float
/// special cases a probe rectangle can be built from.
fn interesting_scalars() -> Vec<Value> {
    vec![
        Value::Int(0),
        Value::Int(7),
        Value::Int(-3),
        Value::Float(2.5),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Bool(true),
    ]
}

#[test]
fn every_battle_definition_lowers_to_code_that_agrees_with_the_tree_walker() {
    let (schema, table) = world();
    let registry = battle_registry();
    let rng = GameRng::new(11).for_tick(5);
    let spatial = SpatialAttrs::from_schema(&schema);

    // (label, fragment, params) of everything a probe or a perform evaluates.
    let mut conds: Vec<(String, Cond, Vec<String>)> = Vec::new();
    let mut terms: Vec<(String, Term, Vec<String>)> = Vec::new();
    for (name, def) in registry.aggregates() {
        conds.push((
            format!("{name} filter"),
            def.filter.clone(),
            def.params.clone(),
        ));
        let analysis = analyze_filter(&def.filter, &schema, spatial);
        let bounds = [
            &analysis.x_lo,
            &analysis.x_hi,
            &analysis.y_lo,
            &analysis.y_hi,
        ];
        for t in bounds.into_iter().flatten() {
            terms.push((format!("{name} bound"), t.clone(), def.params.clone()));
        }
        for c in analysis.cat_constraints() {
            terms.push((
                format!("{name} constraint on {}", c.attr),
                c.value.clone(),
                def.params.clone(),
            ));
        }
        match &def.spec {
            AggSpec::Simple { outputs } => {
                for o in outputs {
                    terms.push((
                        format!("{name}.{} value", o.name),
                        o.value.clone(),
                        def.params.clone(),
                    ));
                }
            }
            AggSpec::ArgBest { rank, outputs, .. } => {
                terms.push((format!("{name} rank"), rank.clone(), def.params.clone()));
                for (field, t, _) in outputs {
                    terms.push((format!("{name}.{field}"), t.clone(), def.params.clone()));
                }
            }
        }
    }
    for name in registry.action_names() {
        let def = registry.action(name).unwrap();
        for (i, clause) in def.clauses.iter().enumerate() {
            conds.push((
                format!("{name} clause {i} filter"),
                clause.filter.clone(),
                def.params.clone(),
            ));
            let analysis = analyze_filter(&clause.filter, &schema, spatial);
            if let Some(key) = &analysis.key_eq {
                terms.push((
                    format!("{name} clause {i} key"),
                    key.clone(),
                    def.params.clone(),
                ));
            }
            for (attr, t) in &clause.effects {
                terms.push((
                    format!("{name} clause {i} {attr}"),
                    t.clone(),
                    def.params.clone(),
                ));
            }
        }
    }
    assert!(conds.len() >= 14 && terms.len() >= 40, "registry shrank?");

    let scalars = interesting_scalars();
    let mut evaluated = 0usize;
    for unit_row in 0..table.len() {
        for cand_row in 0..table.len() {
            for (round, first) in scalars.iter().enumerate() {
                let fragments = conds
                    .iter()
                    .map(|(l, c, p)| (l, Fragment::Cond(c), p))
                    .chain(terms.iter().map(|(l, t, p)| (l, Fragment::Term(t), p)));
                for (label, fragment, params) in fragments {
                    // One scalar argument per declared parameter, rotating
                    // through the interesting values.
                    let args: Vec<ScriptValue> = (0..params.len().saturating_sub(1))
                        .map(|i| {
                            let v = if i == 0 {
                                first.clone()
                            } else {
                                scalars[(round + 3 * i) % scalars.len()].clone()
                            };
                            ScriptValue::Scalar(v)
                        })
                        .collect();
                    let point = Point {
                        schema: &schema,
                        unit: table.row(unit_row),
                        row: table.row(cand_row),
                        args: &args,
                        rng: &rng,
                        run: &registry,
                    };
                    assert!(
                        check(label, &fragment, params, &registry, &point),
                        "{label}: battle definitions must all lower"
                    );
                    evaluated += 1;
                }
            }
        }
    }
    assert!(
        evaluated > 10_000,
        "sweep shrank to {evaluated} evaluations"
    );
}

/// Collect every term and condition of an action tree.
fn collect(action: &Action, terms: &mut Vec<Term>, conds: &mut Vec<Cond>) {
    match action {
        Action::Let { term, body, .. } => {
            terms.push(term.clone());
            collect(body, terms, conds);
        }
        Action::Seq(items) => items.iter().for_each(|a| collect(a, terms, conds)),
        Action::If { cond, then, els } => {
            conds.push(cond.clone());
            collect(then, terms, conds);
            if let Some(els) = els {
                collect(els, terms, conds);
            }
        }
        Action::Perform { args, .. } => terms.extend(args.iter().cloned()),
        Action::Nop => {}
    }
}

fn cond_names(cond: &Cond, out: &mut Vec<String>) {
    match cond {
        Cond::Lit(_) => {}
        Cond::Cmp { left, right, .. } => {
            left.collect_names(out);
            right.collect_names(out);
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            cond_names(a, out);
            cond_names(b, out);
        }
        Cond::Not(c) => cond_names(c, out),
    }
}

/// Whether a fragment uses a construct closed code does not carry: nested
/// aggregates, or the record-valued `(a, b)` / `t.field` (definitions are
/// scalar throughout — their parameters arrive flattened).
fn term_is_open(term: &Term) -> bool {
    match term {
        Term::Agg(_) | Term::Field(..) | Term::Tuple(_) => true,
        Term::Const(_) | Term::Var(_) => false,
        Term::Random(t) | Term::Neg(t) | Term::Abs(t) | Term::Sqrt(t) => term_is_open(t),
        Term::Bin { left, right, .. } => term_is_open(left) || term_is_open(right),
    }
}

fn cond_is_open(cond: &Cond) -> bool {
    match cond {
        Cond::Lit(_) => false,
        Cond::Cmp { left, right, .. } => term_is_open(left) || term_is_open(right),
        Cond::And(a, b) | Cond::Or(a, b) => cond_is_open(a) || cond_is_open(b),
        Cond::Not(c) => cond_is_open(c),
    }
}

/// Generated script terms, read as definition bodies: every free name that
/// is not a game constant becomes a parameter bound to a random scalar.
/// Aggregate calls and record constructs must refuse to lower; everything
/// else must lower and agree.
#[test]
fn generated_script_terms_agree_with_the_tree_walker() {
    let (schema, table) = world();
    let registry = battle_registry();
    let scalars = interesting_scalars();
    let (mut lowered, mut refused) = (0usize, 0usize);
    for seed in 0..96u64 {
        let script = generate_script(seed, ScriptGenConfig::default());
        let (mut terms, mut conds) = (Vec::new(), Vec::new());
        for f in script.functions.iter().chain(std::iter::once(&script.main)) {
            collect(&f.body, &mut terms, &mut conds);
        }
        let mut rng = TestRng::new(seed);
        let tick_rng = GameRng::new(seed).for_tick(seed % 7);
        let fragments = terms
            .iter()
            .map(Fragment::Term)
            .chain(conds.iter().map(Fragment::Cond));
        for (i, fragment) in fragments.enumerate() {
            let mut names = Vec::new();
            match &fragment {
                Fragment::Term(t) => t.collect_names(&mut names),
                Fragment::Cond(c) => cond_names(c, &mut names),
            }
            names.retain(|n| registry.constant(n).is_none());
            names.sort();
            names.dedup();
            let mut params = vec!["unit".to_string()];
            params.extend(names);
            let args: Vec<ScriptValue> = (1..params.len())
                .map(|_| ScriptValue::Scalar(rng.pick(&scalars).clone()))
                .collect();
            let point = Point {
                schema: &schema,
                unit: table.row(rng.below(table.len())),
                row: table.row(rng.below(table.len())),
                args: &args,
                rng: &tick_rng,
                run: &registry,
            };
            let open = match &fragment {
                Fragment::Term(t) => term_is_open(t),
                Fragment::Cond(c) => cond_is_open(c),
            };
            let what = format!("seed {seed} fragment {i}");
            if check(&what, &fragment, &params, &registry, &point) {
                assert!(!open, "{what}: an aggregate or record construct lowered");
                lowered += 1;
            } else {
                assert!(open, "{what}: a closed scalar fragment did not lower");
                refused += 1;
            }
        }
    }
    assert!(lowered > 500, "only {lowered} fragments lowered");
    assert!(refused > 50, "only {refused} open fragments seen");
}

fn params(names: &[&str]) -> Vec<String> {
    names.iter().map(|n| n.to_string()).collect()
}

#[test]
fn record_arguments_flatten_positionally_and_arity_is_checked() {
    let (schema, table) = world();
    let registry = battle_registry();
    let rng = GameRng::new(3).for_tick(1);
    // MoveInDirection's effect term, called as `MoveInDirection(u, centroid)`.
    let term = Term::bin(BinOp::Sub, Term::name("y"), Term::row("posy"));
    let ps = params(&["u", "x", "y"]);
    let record = ScriptValue::Record(vec![
        ("x".into(), Value::Float(10.0)),
        ("y".into(), Value::Int(4)),
    ]);
    let cases: [(&str, Vec<ScriptValue>); 4] = [
        ("record → two parameters", vec![record.clone()]),
        (
            "two scalars",
            vec![ScriptValue::scalar(1i64), ScriptValue::scalar(0.5)],
        ),
        (
            "record and a scalar: one too many",
            vec![record.clone(), ScriptValue::scalar(1i64)],
        ),
        ("one scalar: one too few", vec![ScriptValue::scalar(1i64)]),
    ];
    for (what, args) in &cases {
        let point = Point {
            schema: &schema,
            unit: table.row(0),
            row: table.row(2),
            args,
            rng: &rng,
            run: &registry,
        };
        assert!(check(what, &Fragment::Term(&term), &ps, &registry, &point));
    }
    // The flattened record really lands in `y`: 4 − 0.25.
    let program = ClosedProgram::term(&term, &ps, &registry, &schema).unwrap();
    let got = program
        .eval(
            table.row(0),
            1,
            Some(table.row(2)),
            &[record],
            &rng,
            registry.constants(),
        )
        .unwrap();
    assert!(same_script_value(&got, &ScriptValue::scalar(3.75)));
    // A repeated parameter name resolves to its last position, as the
    // name-keyed map's insert order did.
    let shadow = params(&["u", "y", "y"]);
    let point = Point {
        schema: &schema,
        unit: table.row(0),
        row: table.row(2),
        args: &[ScriptValue::scalar(1i64), ScriptValue::scalar(2i64)],
        rng: &rng,
        run: &registry,
    };
    assert!(check(
        "shadowed parameter",
        &Fragment::Term(&term),
        &shadow,
        &registry,
        &point
    ));
}

#[test]
fn int_float_mixing_and_non_finite_bounds_keep_their_bits() {
    let (schema, table) = world();
    let registry = battle_registry();
    let rng = GameRng::new(3).for_tick(1);
    let ps = params(&["u", "range"]);
    let fragments = [
        // The probe-rectangle shape, and integer arithmetic that must not
        // be promoted (7 / 2 = 3, 7 mod 2 = 1) next to its float twin.
        Term::bin(BinOp::Sub, Term::unit("posx"), Term::name("range")),
        Term::bin(BinOp::Add, Term::unit("health"), Term::name("range")),
        Term::bin(BinOp::Div, Term::int(7), Term::name("range")),
        Term::bin(BinOp::Mod, Term::int(7), Term::name("range")),
        Term::bin(BinOp::Mul, Term::name("range"), Term::float(0.5)),
        Term::Neg(Box::new(Term::name("range"))),
        Term::Abs(Box::new(Term::bin(
            BinOp::Sub,
            Term::name("range"),
            Term::unit("posy"),
        ))),
        Term::Sqrt(Box::new(Term::name("range"))),
        Term::Random(Box::new(Term::name("range"))),
    ];
    let mut args_seen = 0;
    for value in interesting_scalars().into_iter().chain([
        Value::Int(2),
        Value::Int(0),
        Value::str("knight"),
    ]) {
        let args = [ScriptValue::Scalar(value)];
        for (i, term) in fragments.iter().enumerate() {
            let point = Point {
                schema: &schema,
                unit: table.row(0),
                row: table.row(3),
                args: &args,
                rng: &rng,
                run: &registry,
            };
            let what = format!("fragment {i} with range = {:?}", args[0]);
            assert!(check(&what, &Fragment::Term(term), &ps, &registry, &point));
        }
        // Ordered comparisons against NaN, ±inf and a string.
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge] {
            let cond = Cond::cmp(op, Term::row("posx"), Term::name("range"));
            let point = Point {
                schema: &schema,
                unit: table.row(0),
                row: table.row(3),
                args: &args,
                rng: &rng,
                run: &registry,
            };
            assert!(check(
                "comparison",
                &Fragment::Cond(&cond),
                &ps,
                &registry,
                &point
            ));
        }
        args_seen += 1;
    }
    assert_eq!(args_seen, 12);
    // Record constructs have no business in a (scalar) definition and do
    // not lower; a script calling such a definition is refused at
    // registration.
    let pair = Term::Tuple(vec![Term::name("range"), Term::unit("posx")]);
    assert!(ClosedProgram::term(&pair, &ps, &registry, &schema).is_err());
    let field = Term::Field(Box::new(pair), "_1".into());
    assert!(ClosedProgram::term(&field, &ps, &registry, &schema).is_err());
}

#[test]
fn a_missing_constant_fails_only_the_branch_that_reads_it() {
    let (schema, table) = world();
    let mut registry = battle_registry();
    registry.set_constant("_LATE", 5i64);
    // Installed with `_LATE` known, run against a table that lacks it.
    let run = battle_registry();
    assert!(run.constant("_LATE").is_none());
    let rng = GameRng::new(3).for_tick(1);
    let ps = params(&["u", "p"]);
    let reads_late = Cond::cmp(CmpOp::Gt, Term::name("_LATE"), Term::int(0));
    let p_positive = Cond::cmp(CmpOp::Gt, Term::name("p"), Term::int(0));
    let or = Cond::or(p_positive.clone(), reads_late.clone());
    let and = Cond::and(p_positive, Cond::not(reads_late));
    for (cond, p, fails) in [
        (&or, 1i64, false),
        (&or, 0, true),
        (&and, 0, false),
        (&and, 1, true),
    ] {
        let args = [ScriptValue::scalar(p)];
        let point = Point {
            schema: &schema,
            unit: table.row(0),
            row: table.row(1),
            args: &args,
            rng: &rng,
            run: &run,
        };
        assert!(check(
            "late constant",
            &Fragment::Cond(cond),
            &ps,
            &registry,
            &point
        ));
        let program = ClosedProgram::cond(cond, &ps, &registry, &schema).unwrap();
        let got = program.eval(point.unit, 1, Some(point.row), &args, &rng, run.constants());
        match got {
            Err(ExecError::Lang(LangError::Unresolved(name))) => {
                assert!(fails, "p = {p} read `{name}` on a skipped branch")
            }
            Ok(_) => assert!(!fails, "p = {p} should have read `_LATE`"),
            other => panic!("unexpected {other:?}"),
        }
    }
    // A name that is neither parameter nor constant cannot resolve at run
    // time either: it fails the compile (the script is refused at
    // registration).
    assert!(ClosedProgram::term(&Term::name("nowhere"), &ps, &registry, &schema).is_err());
}
