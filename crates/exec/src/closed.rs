//! Closed-term code: the terms and conditions of built-in definitions
//! lowered, once per script install, to flat postfix code.
//!
//! A built-in definition is a *closed* fragment: it reads the probing unit
//! (`u.*`), the candidate row (`e.*`), its own parameters and game
//! constants — never a script-local variable.  The query is therefore fixed
//! per call site and only the unit varies, so everything name-shaped is
//! resolved here, ahead of time: attributes to [`AttrId`]s, parameters to
//! their flat positional index, constants to an index into the per-run
//! resolved constant table.  What remains per probe is a short loop over
//! `ClosedOp`s on a stack of scalars.
//!
//! Semantics are those of [`sgl_lang::eval::eval_term`] /
//! [`sgl_lang::eval::eval_cond`] exactly — same evaluation order, same
//! `Value` arithmetic, same error variants — because every operation calls
//! the shared `Value` helpers (`apply_binop`, `loose_eq`, `compare`, ...).
//! `tests/closed_terms.rs` checks the equivalence differentially through
//! [`ClosedProgram`].  Terms a definition has no use
//! for — record construction and field access, nested aggregates — do not
//! lower; a script calling such a definition is refused at registration,
//! like any other script the compiler refuses.

use std::fmt;

use rustc_hash::FxHashMap;

use sgl_env::{AttrId, RowRef, Schema, TickRandom, Value};
use sgl_lang::ast::{BinOp, CmpOp, Cond, Term, VarRef};
use sgl_lang::builtins::Registry;
use sgl_lang::eval::{apply_binop, ScriptValue};
use sgl_lang::LangError;

use crate::compile::{bin_symbol, cmp_symbol, CompileError, Names};
use crate::error::{ExecError, Result};

/// One operation of a closed term: postfix over a stack of scalar `Value`s.
/// Built-in definitions are scalar throughout — parameters arrive flattened,
/// attributes and constants are scalars — so the record-valued constructs
/// (`(a, b)`, `t.field`) are refused at lowering rather than carried here.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ClosedOp {
    /// Push a literal.
    Lit(Value),
    /// Push the game constant `const_names[idx]`; errors (like
    /// `Instr::NamedConst`) only if the run's constant table lacks it *and*
    /// the op is actually executed.
    NamedConst(u16),
    /// Push `u.attr`.
    UnitAttr(AttrId),
    /// Push `e.attr` (candidate-row positions only).
    RowAttr(AttrId),
    /// Push the flat call parameter `idx` (parameters after the unit).
    Param(u16),
    /// Replace the seed on top of the stack by `Random(seed)`.
    Random,
    /// Pop `b`; replace the top `a` by `a op b`.
    Bin(BinOp),
    /// Negate the top of stack.
    Neg,
    /// `abs` of the top of stack.
    Abs,
    /// `sqrt` of the top of stack.
    Sqrt,
}

/// A term of a built-in definition as closed code.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClosedTerm(Vec<ClosedOp>);

/// One step of a closed condition: comparisons branch two ways (native
/// short-circuit, in `eval_cond`'s left-to-right order), every path ends in
/// a verdict.
#[derive(Debug, Clone, PartialEq)]
enum CondStep {
    /// Evaluate both sides, compare, continue at `if_true` / `if_false`.
    Cmp {
        op: CmpOp,
        left: ClosedTerm,
        right: ClosedTerm,
        if_true: u32,
        if_false: u32,
    },
    /// Continue elsewhere (literal sub-conditions).
    Jump(u32),
    /// The condition's truth value.
    Yield(bool),
}

/// A condition of a built-in definition as closed code.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClosedCond(Vec<CondStep>);

/// Everything closed code reads while it runs: the unit, optionally a
/// candidate row, the flattened call parameters and the run's resolved game
/// constants.
pub(crate) struct ClosedEnv<'e> {
    pub(crate) unit: RowRef<'e>,
    pub(crate) unit_key: i64,
    pub(crate) row: Option<RowRef<'e>>,
    pub(crate) params: &'e [Value],
    /// `const_names[i]` resolved against this run's constants.
    pub(crate) named: &'e [Option<&'e Value>],
    pub(crate) const_names: &'e [String],
    pub(crate) rng: &'e TickRandom,
}

type LangResult<T> = std::result::Result<T, LangError>;

fn underflow() -> LangError {
    LangError::Semantic("closed-term stack underflow".into())
}

impl ClosedTerm {
    /// Evaluate the term; `stack` is caller-owned scratch.
    pub(crate) fn eval(&self, env: &ClosedEnv<'_>, stack: &mut Vec<Value>) -> LangResult<Value> {
        stack.clear();
        for op in &self.0 {
            let value = match op {
                ClosedOp::Lit(v) => v.clone(),
                ClosedOp::NamedConst(idx) => {
                    let idx = *idx as usize;
                    match env.named.get(idx) {
                        Some(Some(v)) => (*v).clone(),
                        _ => {
                            return Err(LangError::Unresolved(
                                env.const_names.get(idx).cloned().unwrap_or_default(),
                            ))
                        }
                    }
                }
                ClosedOp::UnitAttr(attr) => env.unit.get(*attr),
                ClosedOp::RowAttr(attr) => match env.row {
                    Some(row) => row.get(*attr),
                    None => {
                        return Err(LangError::Semantic(
                            "`e.*` referenced outside a built-in definition".into(),
                        ))
                    }
                },
                ClosedOp::Param(idx) => match env.params.get(*idx as usize) {
                    Some(v) => v.clone(),
                    None => {
                        return Err(LangError::Semantic(format!(
                            "call parameter {idx} was not bound"
                        )))
                    }
                },
                ClosedOp::Bin(op) => {
                    let b = stack.pop().ok_or_else(underflow)?;
                    let a = stack.last_mut().ok_or_else(underflow)?;
                    *a = apply_binop(*op, a, &b)?;
                    continue;
                }
                unary => {
                    let top = stack.last_mut().ok_or_else(underflow)?;
                    *top = match unary {
                        ClosedOp::Random => Value::Int(env.rng.value(env.unit_key, top.as_i64()?)),
                        ClosedOp::Neg => top.neg()?,
                        ClosedOp::Abs => top.abs()?,
                        _ => top.sqrt()?,
                    };
                    continue;
                }
            };
            stack.push(value);
        }
        stack.pop().ok_or_else(underflow)
    }
}

impl ClosedCond {
    /// Evaluate the condition; `stack` is caller-owned scratch.
    pub(crate) fn holds(&self, env: &ClosedEnv<'_>, stack: &mut Vec<Value>) -> LangResult<bool> {
        let mut pc = 0usize;
        loop {
            match self.0.get(pc) {
                Some(CondStep::Cmp {
                    op,
                    left,
                    right,
                    if_true,
                    if_false,
                }) => {
                    let l = left.eval(env, stack)?;
                    let r = right.eval(env, stack)?;
                    let take = match op {
                        CmpOp::Eq => l.loose_eq(&r),
                        CmpOp::Ne => !l.loose_eq(&r),
                        _ => op.holds(l.compare(&r)?),
                    };
                    pc = if take { *if_true } else { *if_false } as usize;
                }
                Some(CondStep::Jump(target)) => pc = *target as usize,
                Some(CondStep::Yield(verdict)) => return Ok(*verdict),
                None => {
                    return Err(LangError::Semantic(
                        "closed condition ended without a verdict".into(),
                    ))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Lowers the terms of one built-in definition.  Name resolution mirrors the
/// closed evaluation context of a probe: bound parameters first (the last
/// declaration of a repeated name wins, as the name-keyed map's insert
/// order did), then registry constants; anything else cannot resolve at run
/// time either and fails the compile.
pub(crate) struct Lowerer<'a> {
    pub(crate) registry: &'a Registry,
    pub(crate) schema: &'a Schema,
    /// Declared parameters *after* the implicit unit.
    pub(crate) params: &'a [String],
    pub(crate) names: &'a mut Names,
}

impl Lowerer<'_> {
    /// Lower a term that may read the candidate row `e`.
    pub(crate) fn row_term(
        &mut self,
        term: &Term,
    ) -> std::result::Result<ClosedTerm, CompileError> {
        let mut ops = Vec::new();
        self.emit_term(term, true, &mut ops)?;
        Ok(ClosedTerm(ops))
    }

    /// Lower a term evaluated for the probing unit alone (probe bounds,
    /// categorical constraint values, target keys).
    pub(crate) fn unit_term(
        &mut self,
        term: &Term,
    ) -> std::result::Result<ClosedTerm, CompileError> {
        let mut ops = Vec::new();
        self.emit_term(term, false, &mut ops)?;
        Ok(ClosedTerm(ops))
    }

    /// Lower a per-candidate condition with the left-to-right short-circuit
    /// order of `eval_cond`.
    pub(crate) fn row_cond(
        &mut self,
        cond: &Cond,
    ) -> std::result::Result<ClosedCond, CompileError> {
        let mut steps = Vec::new();
        // Labels 0 / 1 are the true / false exits.
        let mut labels = vec![u32::MAX, u32::MAX];
        self.emit_cond(cond, 0, 1, &mut steps, &mut labels)?;
        labels[0] = steps.len() as u32;
        steps.push(CondStep::Yield(true));
        labels[1] = steps.len() as u32;
        steps.push(CondStep::Yield(false));
        for step in &mut steps {
            match step {
                CondStep::Jump(target) => *target = labels[*target as usize],
                CondStep::Cmp {
                    if_true, if_false, ..
                } => {
                    *if_true = labels[*if_true as usize];
                    *if_false = labels[*if_false as usize];
                }
                CondStep::Yield(_) => {}
            }
        }
        Ok(ClosedCond(steps))
    }

    fn emit_cond(
        &mut self,
        cond: &Cond,
        t: u32,
        f: u32,
        steps: &mut Vec<CondStep>,
        labels: &mut Vec<u32>,
    ) -> std::result::Result<(), CompileError> {
        match cond {
            Cond::Lit(b) => steps.push(CondStep::Jump(if *b { t } else { f })),
            Cond::Cmp { op, left, right } => {
                let step = CondStep::Cmp {
                    op: *op,
                    left: self.row_term(left)?,
                    right: self.row_term(right)?,
                    if_true: t,
                    if_false: f,
                };
                steps.push(step);
            }
            Cond::And(x, y) | Cond::Or(x, y) => {
                let mid = labels.len() as u32;
                labels.push(u32::MAX);
                if matches!(cond, Cond::And(..)) {
                    self.emit_cond(x, mid, f, steps, labels)?;
                } else {
                    self.emit_cond(x, t, mid, steps, labels)?;
                }
                labels[mid as usize] = steps.len() as u32;
                self.emit_cond(y, t, f, steps, labels)?;
            }
            Cond::Not(c) => self.emit_cond(c, f, t, steps, labels)?,
        }
        Ok(())
    }

    fn emit_term(
        &mut self,
        term: &Term,
        row: bool,
        ops: &mut Vec<ClosedOp>,
    ) -> std::result::Result<(), CompileError> {
        let unary = |this: &mut Self, t: &Term, op: ClosedOp, ops: &mut Vec<ClosedOp>| {
            this.emit_term(t, row, ops)?;
            ops.push(op);
            Ok(())
        };
        match term {
            Term::Const(v) => ops.push(ClosedOp::Lit(v.clone())),
            Term::Var(VarRef::Unit(attr)) => {
                ops.push(ClosedOp::UnitAttr(self.names.attr_id(self.schema, attr)?))
            }
            Term::Var(VarRef::Row(attr)) => {
                if !row {
                    return Err(CompileError::Unsupported(format!(
                        "`e.{attr}` referenced where no candidate row is in scope"
                    )));
                }
                ops.push(ClosedOp::RowAttr(self.names.attr_id(self.schema, attr)?))
            }
            Term::Var(VarRef::Name(name)) => {
                if let Some(idx) = self.params.iter().rposition(|p| p == name) {
                    let idx = u16::try_from(idx)
                        .map_err(|_| CompileError::Unsupported("too many parameters".into()))?;
                    ops.push(ClosedOp::Param(idx));
                } else if self.registry.constant(name).is_some() {
                    ops.push(ClosedOp::NamedConst(self.names.const_idx(name)?));
                } else {
                    return Err(CompileError::Unresolved(name.clone()));
                }
            }
            Term::Bin { op, left, right } => {
                self.emit_term(left, row, ops)?;
                self.emit_term(right, row, ops)?;
                ops.push(ClosedOp::Bin(*op));
            }
            Term::Random(seed) => return unary(self, seed, ClosedOp::Random, ops),
            Term::Neg(t) => return unary(self, t, ClosedOp::Neg, ops),
            Term::Abs(t) => return unary(self, t, ClosedOp::Abs, ops),
            Term::Sqrt(t) => return unary(self, t, ClosedOp::Sqrt, ops),
            Term::Agg(call) => {
                return Err(CompileError::Unsupported(format!(
                    "aggregate `{}` nested inside a built-in definition",
                    call.name
                )))
            }
            Term::Field(..) | Term::Tuple(_) => {
                return Err(CompileError::Unsupported(
                    "record-valued term inside a built-in definition".into(),
                ))
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Call arguments
// ---------------------------------------------------------------------------

/// Flatten the call arguments after the implicit unit into `flat` (records
/// expand to their components) and check the flat arity — the semantics of
/// [`crate::builtin_eval::bind_params`] with positions instead of names.
pub(crate) fn flatten_args<'v>(
    name: &str,
    arity: usize,
    args: impl Iterator<Item = &'v ScriptValue>,
    flat: &mut Vec<Value>,
) -> Result<()> {
    flat.clear();
    for arg in args {
        match arg {
            ScriptValue::Scalar(v) => flat.push(v.clone()),
            ScriptValue::Record(fields) => flat.extend(fields.iter().map(|(_, v)| v.clone())),
        }
    }
    if flat.len() != arity {
        return Err(ExecError::Lang(LangError::Semantic(format!(
            "builtin `{name}` expects {arity} scalar arguments after the unit, got {}",
            flat.len()
        ))));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Disassembly
// ---------------------------------------------------------------------------

/// Renders closed code with names resolved through the owning script's
/// tables: a term as one postfix line (`u.posx p0 -`), a condition as its
/// numbered steps (`0:[e.key] = [p0] ?1:2 1:yes 2:no`).
pub(crate) struct Show<'a, T> {
    code: &'a T,
    names: &'a Names,
}

impl ClosedTerm {
    pub(crate) fn show<'a>(&'a self, names: &'a Names) -> Show<'a, ClosedTerm> {
        Show { code: self, names }
    }
}

impl ClosedCond {
    pub(crate) fn show<'a>(&'a self, names: &'a Names) -> Show<'a, ClosedCond> {
        Show { code: self, names }
    }
}

impl fmt::Display for Show<'_, ClosedTerm> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.code.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            match op {
                ClosedOp::Lit(v) => write!(f, "{v}")?,
                ClosedOp::NamedConst(idx) => match self.names.const_names.get(*idx as usize) {
                    Some(name) => write!(f, "{name}")?,
                    None => write!(f, "n{idx}")?,
                },
                ClosedOp::UnitAttr(attr) => write!(f, "u.{}", self.names.attr_name(*attr))?,
                ClosedOp::RowAttr(attr) => write!(f, "e.{}", self.names.attr_name(*attr))?,
                ClosedOp::Param(idx) => write!(f, "p{idx}")?,
                ClosedOp::Random => write!(f, "random")?,
                ClosedOp::Bin(op) => write!(f, "{}", bin_symbol(*op))?,
                ClosedOp::Neg => write!(f, "neg")?,
                ClosedOp::Abs => write!(f, "abs")?,
                ClosedOp::Sqrt => write!(f, "sqrt")?,
            }
        }
        Ok(())
    }
}

impl fmt::Display for Show<'_, ClosedCond> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.code.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{i}:")?;
            match step {
                CondStep::Cmp {
                    op,
                    left,
                    right,
                    if_true,
                    if_false,
                } => write!(
                    f,
                    "[{}] {} [{}] ?{if_true}:{if_false}",
                    left.show(self.names),
                    cmp_symbol(*op),
                    right.show(self.names)
                )?,
                CondStep::Jump(target) => write!(f, "jump {target}")?,
                CondStep::Yield(verdict) => write!(f, "{}", if *verdict { "yes" } else { "no" })?,
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Standalone handle
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum ProgramCode {
    Term(ClosedTerm),
    Cond(ClosedCond),
}

/// One definition term or condition lowered on its own, with the constant
/// names it indexes: the handle through which code outside this crate (the
/// differential tests) runs the closed-term evaluator, including the
/// positional flattening of call arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedProgram {
    code: ProgramCode,
    arity: usize,
    names: Names,
}

impl ClosedProgram {
    /// Lower a definition term.  `params` are the definition's declared
    /// parameters, the implicit unit first.
    pub fn term(
        term: &Term,
        params: &[String],
        registry: &Registry,
        schema: &Schema,
    ) -> std::result::Result<ClosedProgram, CompileError> {
        Self::lower(params, registry, schema, |l| {
            l.row_term(term).map(ProgramCode::Term)
        })
    }

    /// Lower a definition condition (a filter over `u`, `e` and parameters).
    pub fn cond(
        cond: &Cond,
        params: &[String],
        registry: &Registry,
        schema: &Schema,
    ) -> std::result::Result<ClosedProgram, CompileError> {
        Self::lower(params, registry, schema, |l| {
            l.row_cond(cond).map(ProgramCode::Cond)
        })
    }

    fn lower(
        params: &[String],
        registry: &Registry,
        schema: &Schema,
        f: impl FnOnce(&mut Lowerer<'_>) -> std::result::Result<ProgramCode, CompileError>,
    ) -> std::result::Result<ClosedProgram, CompileError> {
        let mut names = Names::default();
        let bound = params.get(1..).unwrap_or_default();
        let code = f(&mut Lowerer {
            registry,
            schema,
            params: bound,
            names: &mut names,
        })?;
        Ok(ClosedProgram {
            code,
            arity: bound.len(),
            names,
        })
    }

    /// Evaluate for one unit (and candidate row).  `args` are the call's
    /// argument values after the unit, flattened positionally exactly as a
    /// probe does; `constants` is the run's game-constant table.  A term
    /// yields its value, a condition `Bool`.
    pub fn eval(
        &self,
        unit: RowRef<'_>,
        unit_key: i64,
        row: Option<RowRef<'_>>,
        args: &[ScriptValue],
        rng: &TickRandom,
        constants: &FxHashMap<String, Value>,
    ) -> Result<ScriptValue> {
        let mut flat = Vec::new();
        flatten_args("closed program", self.arity, args.iter(), &mut flat)?;
        let named: Vec<Option<&Value>> = self
            .names
            .const_names
            .iter()
            .map(|n| constants.get(n))
            .collect();
        let env = ClosedEnv {
            unit,
            unit_key,
            row,
            params: &flat,
            named: &named,
            const_names: &self.names.const_names,
            rng,
        };
        let mut stack = Vec::new();
        Ok(ScriptValue::Scalar(match &self.code {
            ProgramCode::Term(t) => t.eval(&env, &mut stack)?,
            ProgramCode::Cond(c) => Value::Bool(c.holds(&env, &mut stack)?),
        }))
    }
}

impl fmt::Display for ClosedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.code {
            ProgramCode::Term(t) => t.show(&self.names).fmt(f),
            ProgramCode::Cond(c) => c.show(&self.names).fmt(f),
        }
    }
}
