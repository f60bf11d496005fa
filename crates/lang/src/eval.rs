//! Term and condition evaluation — the semantics functions `[[·]]term` and
//! `[[·]]cond` of §4.3.
//!
//! Evaluation is parameterised over an [`AggregateProvider`], so callers
//! decide how an embedded aggregate is answered (the oracle executor scans
//! `E`; callers that hoisted every aggregate pass [`NoAggregates`]).

use std::fmt;

use rustc_hash::FxHashMap;

use sgl_env::{AttrId, RowRef, Schema, TickRandom, Value};

use crate::ast::{AggCall, BinOp, Cond, Term, VarRef};
use crate::error::{LangError, Result};

/// A value produced by evaluating a term: either a scalar or a small named
/// record (the result of a multi-output aggregate such as a centroid).
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptValue {
    /// A single scalar value.
    Scalar(Value),
    /// A record of named scalar components, in declaration order.
    Record(Vec<(String, Value)>),
}

impl ScriptValue {
    /// Wrap a scalar.
    pub fn scalar(v: impl Into<Value>) -> ScriptValue {
        ScriptValue::Scalar(v.into())
    }

    /// Build a record value.
    pub fn record(fields: Vec<(String, Value)>) -> ScriptValue {
        ScriptValue::Record(fields)
    }

    /// View as a scalar. Single-field records coerce to their only field.
    pub fn as_scalar(&self) -> Result<&Value> {
        match self {
            ScriptValue::Scalar(v) => Ok(v),
            ScriptValue::Record(fields) if fields.len() == 1 => Ok(&fields[0].1),
            ScriptValue::Record(_) => Err(LangError::Semantic(
                "expected a scalar but found a record value".into(),
            )),
        }
    }

    /// Access a named field of a record.
    pub fn field(&self, name: &str) -> Result<&Value> {
        match self {
            ScriptValue::Record(fields) => fields
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .ok_or_else(|| LangError::Semantic(format!("record has no field `{name}`"))),
            ScriptValue::Scalar(_) => Err(LangError::Semantic(format!(
                "cannot access field `{name}` of a scalar value"
            ))),
        }
    }

    /// Flatten into positional scalar components (records expand in order).
    pub fn components(&self) -> Vec<Value> {
        match self {
            ScriptValue::Scalar(v) => vec![v.clone()],
            ScriptValue::Record(fields) => fields.iter().map(|(_, v)| v.clone()).collect(),
        }
    }

    /// Apply a binary operator to two values: scalars combine directly,
    /// multi-component values combine pointwise with the field-name
    /// preference rule below.  This is the one shared implementation of the
    /// `[[·]]term` binary-operation semantics — the tree-walking evaluator
    /// ([`eval_term`]) and the bytecode VM of `sgl-exec` both call it, so
    /// they cannot drift apart.
    pub fn zip_binop(op: BinOp, a: &ScriptValue, b: &ScriptValue) -> Result<ScriptValue> {
        let av = a.components();
        let bv = b.components();
        if av.len() == 1 && bv.len() == 1 {
            return Ok(ScriptValue::Scalar(apply_binop(op, &av[0], &bv[0])?));
        }
        if av.len() != bv.len() {
            return Err(LangError::Semantic(format!(
                "cannot combine values with {} and {} components",
                av.len(),
                bv.len()
            )));
        }
        // Pointwise operation; preserve field names from whichever side has
        // *meaningful* names (tuple literals only carry `_0`, `_1`, ...
        // placeholders, so a named record on the other side wins).
        let named = |v: &ScriptValue| -> Option<Vec<String>> {
            match v {
                ScriptValue::Record(fields) if fields.iter().any(|(n, _)| !n.starts_with('_')) => {
                    Some(fields.iter().map(|(n, _)| n.clone()).collect())
                }
                _ => None,
            }
        };
        let placeholder = |v: &ScriptValue| -> Option<Vec<String>> {
            match v {
                ScriptValue::Record(fields) => {
                    Some(fields.iter().map(|(n, _)| n.clone()).collect())
                }
                _ => None,
            }
        };
        let names: Vec<String> = named(a)
            .or_else(|| named(b))
            .or_else(|| placeholder(a))
            .or_else(|| placeholder(b))
            .unwrap_or_else(|| (0..av.len()).map(|i| format!("_{i}")).collect());
        let mut out = Vec::with_capacity(av.len());
        for i in 0..av.len() {
            out.push((names[i].clone(), apply_binop(op, &av[i], &bv[i])?));
        }
        Ok(ScriptValue::Record(out))
    }
}

impl fmt::Display for ScriptValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptValue::Scalar(v) => write!(f, "{v}"),
            ScriptValue::Record(fields) => {
                write!(f, "{{")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Apply a binary arithmetic operator to two scalars.
pub fn apply_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    Ok(match op {
        BinOp::Add => a.add(b)?,
        BinOp::Sub => a.sub(b)?,
        BinOp::Mul => a.mul(b)?,
        BinOp::Div => a.div(b)?,
        BinOp::Mod => a.rem(b)?,
    })
}

/// Answers aggregate-function calls during evaluation.
pub trait AggregateProvider {
    /// Evaluate the aggregate call for the unit described by `ctx`.
    fn evaluate(&mut self, call: &AggCall, ctx: &EvalContext<'_>) -> Result<ScriptValue>;
}

/// Provider that rejects every aggregate — used for contexts where aggregates
/// cannot occur (normalised scripts evaluate them through explicit `let`s).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoAggregates;

impl AggregateProvider for NoAggregates {
    fn evaluate(&mut self, call: &AggCall, _ctx: &EvalContext<'_>) -> Result<ScriptValue> {
        Err(LangError::Semantic(format!(
            "aggregate `{}` cannot be evaluated in this context (script not normalised?)",
            call.name
        )))
    }
}

/// Evaluation context for a single unit (and optionally a candidate row when
/// evaluating built-in definitions).
pub struct EvalContext<'a> {
    /// Schema of the environment.
    pub schema: &'a Schema,
    /// The current unit `u` (a columnar row cursor or a standalone tuple).
    pub unit: RowRef<'a>,
    /// Key of the current unit (pre-extracted for the random function).
    pub unit_key: i64,
    /// The candidate row `e`, when evaluating built-in filter/effect terms.
    pub row: Option<RowRef<'a>>,
    /// Per-tick random function.
    pub rng: &'a TickRandom,
    /// Game constants (from the registry).
    pub constants: &'a FxHashMap<String, Value>,
    /// `let` variables and bound parameters.
    pub bindings: FxHashMap<String, ScriptValue>,
}

impl<'a> EvalContext<'a> {
    /// Create a context for evaluating script terms for one unit.
    pub fn new(
        schema: &'a Schema,
        unit: impl Into<RowRef<'a>>,
        rng: &'a TickRandom,
        constants: &'a FxHashMap<String, Value>,
    ) -> EvalContext<'a> {
        let unit = unit.into();
        let unit_key = unit.key(schema);
        EvalContext {
            schema,
            unit,
            unit_key,
            row: None,
            rng,
            constants,
            bindings: FxHashMap::default(),
        }
    }

    /// Derive a context that additionally exposes a candidate row `e`.
    pub fn with_row(&self, row: impl Into<RowRef<'a>>) -> EvalContext<'a> {
        let row = row.into();
        EvalContext {
            schema: self.schema,
            unit: self.unit,
            unit_key: self.unit_key,
            row: Some(row),
            rng: self.rng,
            constants: self.constants,
            bindings: self.bindings.clone(),
        }
    }

    /// Bind a variable (let variable or parameter).
    pub fn bind(&mut self, name: &str, value: ScriptValue) {
        self.bindings.insert(name.to_string(), value);
    }

    fn attr(&self, name: &str) -> Result<AttrId> {
        self.schema
            .attr_id(name)
            .ok_or_else(|| LangError::Unresolved(format!("u.{name}")))
    }
}

/// Evaluate a term in the given context.
pub fn eval_term(
    term: &Term,
    ctx: &EvalContext<'_>,
    aggs: &mut dyn AggregateProvider,
) -> Result<ScriptValue> {
    match term {
        Term::Const(v) => Ok(ScriptValue::Scalar(v.clone())),
        Term::Var(VarRef::Unit(attr)) => {
            let id = ctx.attr(attr)?;
            Ok(ScriptValue::Scalar(ctx.unit.get(id)))
        }
        Term::Var(VarRef::Row(attr)) => {
            let row = ctx.row.ok_or_else(|| {
                LangError::Semantic(format!(
                    "`e.{attr}` referenced outside a built-in definition"
                ))
            })?;
            let id = ctx.attr(attr)?;
            Ok(ScriptValue::Scalar(row.get(id)))
        }
        Term::Var(VarRef::Name(name)) => {
            if let Some(v) = ctx.bindings.get(name) {
                return Ok(v.clone());
            }
            if let Some(v) = ctx.constants.get(name) {
                return Ok(ScriptValue::Scalar(v.clone()));
            }
            Err(LangError::Unresolved(name.clone()))
        }
        Term::Random(seed) => {
            let i = eval_term(seed, ctx, aggs)?.as_scalar()?.as_i64()?;
            Ok(ScriptValue::Scalar(Value::Int(
                ctx.rng.value(ctx.unit_key, i),
            )))
        }
        Term::Agg(call) => aggs.evaluate(call, ctx),
        Term::Bin { op, left, right } => {
            let l = eval_term(left, ctx, aggs)?;
            let r = eval_term(right, ctx, aggs)?;
            ScriptValue::zip_binop(*op, &l, &r)
        }
        Term::Neg(t) => {
            let v = eval_term(t, ctx, aggs)?;
            match v {
                ScriptValue::Scalar(v) => Ok(ScriptValue::Scalar(v.neg()?)),
                ScriptValue::Record(fields) => Ok(ScriptValue::Record(
                    fields
                        .into_iter()
                        .map(|(n, v)| Ok((n, v.neg()?)))
                        .collect::<Result<Vec<_>>>()?,
                )),
            }
        }
        Term::Abs(t) => Ok(ScriptValue::Scalar(
            eval_term(t, ctx, aggs)?.as_scalar()?.abs()?,
        )),
        Term::Sqrt(t) => Ok(ScriptValue::Scalar(
            eval_term(t, ctx, aggs)?.as_scalar()?.sqrt()?,
        )),
        Term::Field(t, field) => {
            let v = eval_term(t, ctx, aggs)?;
            Ok(ScriptValue::Scalar(v.field(field)?.clone()))
        }
        Term::Tuple(items) => {
            let mut fields = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let v = eval_term(item, ctx, aggs)?;
                fields.push((format!("_{i}"), v.as_scalar()?.clone()));
            }
            Ok(ScriptValue::Record(fields))
        }
    }
}

/// Evaluate a condition in the given context.
pub fn eval_cond(
    cond: &Cond,
    ctx: &EvalContext<'_>,
    aggs: &mut dyn AggregateProvider,
) -> Result<bool> {
    match cond {
        Cond::Lit(b) => Ok(*b),
        Cond::Cmp { op, left, right } => {
            let l = eval_term(left, ctx, aggs)?;
            let r = eval_term(right, ctx, aggs)?;
            let ls = l.as_scalar()?;
            let rs = r.as_scalar()?;
            if matches!(op, crate::ast::CmpOp::Eq) {
                return Ok(ls.loose_eq(rs));
            }
            if matches!(op, crate::ast::CmpOp::Ne) {
                return Ok(!ls.loose_eq(rs));
            }
            let ord = ls.compare(rs)?;
            Ok(op.holds(ord))
        }
        Cond::And(a, b) => Ok(eval_cond(a, ctx, aggs)? && eval_cond(b, ctx, aggs)?),
        Cond::Or(a, b) => Ok(eval_cond(a, ctx, aggs)? || eval_cond(b, ctx, aggs)?),
        Cond::Not(c) => Ok(!eval_cond(c, ctx, aggs)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use crate::parser::{parse_cond, parse_term};
    use sgl_env::{schema::paper_schema, GameRng, TupleBuilder};

    struct FixedAgg(ScriptValue);

    impl AggregateProvider for FixedAgg {
        fn evaluate(&mut self, _call: &AggCall, _ctx: &EvalContext<'_>) -> Result<ScriptValue> {
            Ok(self.0.clone())
        }
    }

    fn fixture() -> (
        sgl_env::Schema,
        sgl_env::Tuple,
        TickRandom,
        FxHashMap<String, Value>,
    ) {
        let schema = paper_schema();
        let unit = TupleBuilder::new(&schema)
            .set("key", 7i64)
            .unwrap()
            .set("player", 1i64)
            .unwrap()
            .set("posx", 3.0)
            .unwrap()
            .set("posy", 4.0)
            .unwrap()
            .set("health", 20i64)
            .unwrap()
            .set("cooldown", 0i64)
            .unwrap()
            .build();
        let rng = GameRng::new(1).for_tick(0);
        let mut constants = FxHashMap::default();
        constants.insert("_ARMOR".to_string(), Value::Int(2));
        (schema, unit, rng, constants)
    }

    #[test]
    fn unit_attributes_and_constants_resolve() {
        let (schema, unit, rng, constants) = fixture();
        let ctx = EvalContext::new(&schema, &unit, &rng, &constants);
        let mut aggs = NoAggregates;
        let v = eval_term(&parse_term("u.posx + 1").unwrap(), &ctx, &mut aggs).unwrap();
        assert_eq!(v, ScriptValue::Scalar(Value::Float(4.0)));
        let v = eval_term(&parse_term("_ARMOR * 3").unwrap(), &ctx, &mut aggs).unwrap();
        assert_eq!(v, ScriptValue::Scalar(Value::Int(6)));
        assert!(eval_term(&parse_term("missing_var").unwrap(), &ctx, &mut aggs).is_err());
    }

    #[test]
    fn let_bindings_shadow_constants() {
        let (schema, unit, rng, constants) = fixture();
        let mut ctx = EvalContext::new(&schema, &unit, &rng, &constants);
        ctx.bind("_ARMOR", ScriptValue::scalar(100i64));
        let mut aggs = NoAggregates;
        let v = eval_term(&parse_term("_ARMOR").unwrap(), &ctx, &mut aggs).unwrap();
        assert_eq!(v, ScriptValue::Scalar(Value::Int(100)));
    }

    #[test]
    fn row_attributes_require_a_row() {
        let (schema, unit, rng, constants) = fixture();
        let ctx = EvalContext::new(&schema, &unit, &rng, &constants);
        let mut aggs = NoAggregates;
        assert!(eval_term(&parse_term("e.posx").unwrap(), &ctx, &mut aggs).is_err());

        let other = TupleBuilder::new(&schema)
            .set("key", 9i64)
            .unwrap()
            .set("posx", 8.0)
            .unwrap()
            .build();
        let ctx2 = ctx.with_row(&other);
        let v = eval_term(&parse_term("e.posx - u.posx").unwrap(), &ctx2, &mut aggs).unwrap();
        assert_eq!(v, ScriptValue::Scalar(Value::Float(5.0)));
    }

    #[test]
    fn random_is_deterministic_within_tick() {
        let (schema, unit, rng, constants) = fixture();
        let ctx = EvalContext::new(&schema, &unit, &rng, &constants);
        let mut aggs = NoAggregates;
        let t = parse_term("Random(1) mod 2").unwrap();
        let a = eval_term(&t, &ctx, &mut aggs).unwrap();
        let b = eval_term(&t, &ctx, &mut aggs).unwrap();
        assert_eq!(a, b);
        let v = a.as_scalar().unwrap().as_i64().unwrap();
        assert!(v == 0 || v == 1);
    }

    #[test]
    fn records_combine_pointwise() {
        let (schema, unit, rng, constants) = fixture();
        let ctx = EvalContext::new(&schema, &unit, &rng, &constants);
        let centroid = ScriptValue::record(vec![
            ("x".into(), Value::Float(1.0)),
            ("y".into(), Value::Float(2.0)),
        ]);
        let mut aggs = FixedAgg(centroid);
        let t = parse_term("(u.posx, u.posy) - SomeCentroid(u)").unwrap();
        let v = eval_term(&t, &ctx, &mut aggs).unwrap();
        match v {
            ScriptValue::Record(fields) => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].1, Value::Float(2.0));
                assert_eq!(fields[1].1, Value::Float(2.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn record_component_mismatch_is_an_error() {
        let a = ScriptValue::record(vec![
            ("x".into(), Value::Int(1)),
            ("y".into(), Value::Int(2)),
        ]);
        let b = ScriptValue::record(vec![("x".into(), Value::Int(1))]);
        assert!(ScriptValue::zip_binop(BinOp::Add, &a, &b).is_err());
    }

    #[test]
    fn field_access_on_aggregate_results() {
        let (schema, unit, rng, constants) = fixture();
        let ctx = EvalContext::new(&schema, &unit, &rng, &constants);
        let record = ScriptValue::record(vec![
            ("key".into(), Value::Int(42)),
            ("posx".into(), Value::Float(0.0)),
        ]);
        let mut aggs = FixedAgg(record);
        let t = parse_term("getNearestEnemy(u).key").unwrap();
        let v = eval_term(&t, &ctx, &mut aggs).unwrap();
        assert_eq!(v, ScriptValue::Scalar(Value::Int(42)));
        // Unknown field errors.
        let t = parse_term("getNearestEnemy(u).wrong").unwrap();
        assert!(eval_term(&t, &ctx, &mut aggs).is_err());
    }

    #[test]
    fn conditions_evaluate() {
        let (schema, unit, rng, constants) = fixture();
        let ctx = EvalContext::new(&schema, &unit, &rng, &constants);
        let mut aggs = NoAggregates;
        assert!(eval_cond(
            &parse_cond("u.health = 20 and u.cooldown = 0").unwrap(),
            &ctx,
            &mut aggs
        )
        .unwrap());
        assert!(eval_cond(&parse_cond("u.health != 3").unwrap(), &ctx, &mut aggs).unwrap());
        assert!(!eval_cond(&parse_cond("u.health < 3").unwrap(), &ctx, &mut aggs).unwrap());
        assert!(eval_cond(
            &parse_cond("u.health < 3 or true").unwrap(),
            &ctx,
            &mut aggs
        )
        .unwrap());
        assert!(eval_cond(&parse_cond("not (u.health < 3)").unwrap(), &ctx, &mut aggs).unwrap());
    }

    #[test]
    fn no_aggregates_provider_rejects() {
        let (schema, unit, rng, constants) = fixture();
        let ctx = EvalContext::new(&schema, &unit, &rng, &constants);
        let mut aggs = NoAggregates;
        let t = parse_term("CountEnemiesInRange(u, 5)").unwrap();
        assert!(eval_term(&t, &ctx, &mut aggs).is_err());
    }

    #[test]
    fn scalar_record_coercions() {
        let single = ScriptValue::record(vec![("value".into(), Value::Int(3))]);
        assert_eq!(single.as_scalar().unwrap(), &Value::Int(3));
        let multi = ScriptValue::record(vec![
            ("x".into(), Value::Int(1)),
            ("y".into(), Value::Int(2)),
        ]);
        assert!(multi.as_scalar().is_err());
        assert_eq!(multi.components().len(), 2);
        assert!(ScriptValue::scalar(1i64).field("x").is_err());
        assert_eq!(format!("{multi}"), "{x: 1, y: 2}");
        assert_eq!(format!("{}", ScriptValue::scalar(5i64)), "5");
    }

    #[test]
    fn comparison_operators_all_work() {
        let (schema, unit, rng, constants) = fixture();
        let ctx = EvalContext::new(&schema, &unit, &rng, &constants);
        let mut aggs = NoAggregates;
        for (src, expected) in [
            ("1 < 2", true),
            ("2 <= 2", true),
            ("3 > 2", true),
            ("2 >= 3", false),
            ("2 = 2", true),
            ("2 != 2", false),
        ] {
            assert_eq!(
                eval_cond(&parse_cond(src).unwrap(), &ctx, &mut aggs).unwrap(),
                expected,
                "{src}"
            );
        }
        let _ = CmpOp::Eq;
    }
}
