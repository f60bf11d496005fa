//! The register-machine evaluator for [`CompiledScript`]s — the one executor
//! of planned (`Naive` and `Compiled`) ticks.
//!
//! One [`Vm`] executes one script for one shard's acting units.  Per unit it
//! runs the flat instruction array in a dispatch loop over a register file
//! of `ScriptValue`s; every name, attribute and call target was resolved at
//! compile time, and aggregate definitions / physical plans are resolved
//! once per shard run (the cost-based planner may change backends between
//! ticks), so nothing in the per-unit path performs a string lookup.  Without
//! an index view (the naive strategy) every `CallAgg` takes the reference
//! scan and every perform clause tests every row.
//!
//! **Determinism contract.**  Effects are emitted *statement-major*: for
//! each `perform` site, all acting units' effects in unit order (clauses in
//! definition order per unit) — the fold order the golden digests pin.  The
//! VM executes *unit-major* (each unit runs its whole script before the
//! next), which is the cache-friendly order, and buffers effects per perform
//! site; after the shard's units finish it replays the buffers site-major.
//! The `⊕` fold — including non-associative float sums — is therefore the
//! same at every shard count, and the run-major parallel replay of
//! `tick.rs` composes unchanged on top.
//!
//! Each aggregate site is reached at most once per unit, so results are
//! never memoized: [`crate::TickStats::shared_hits`] stays 0.
//!
//! **The call boundary is compiled too.**  Behind `CallAgg` and `Perform`
//! nothing is interpreted per probe: the probe rectangle, the categorical
//! constraint values, a clause's target key / area bounds / filter / effect
//! values and an `ArgBest` winner's outputs are closed code
//! ([`crate::closed`]) over the flattened call arguments, and everything
//! that is fixed while only the unit varies — the definition, its plan, the
//! maintained or materialized state behind it, the matching partition list,
//! the planner's per-site observations — is resolved or accumulated once
//! per shard run ([`ResolvedAgg`]) and folded into [`TickObservations`] at
//! the end.  A name-keyed parameter map exists only where a site falls back
//! to the reference scan.
//!
//! [`TickObservations`]: crate::stats::TickObservations

use rustc_hash::FxHashMap;

use sgl_lang::ast::{BinOp, CmpOp};
use sgl_lang::builtins::AggregateDef;
use sgl_lang::eval::{apply_binop, EvalContext, ScriptValue};

use sgl_algebra::cost::PhysicalBackend;
use sgl_env::{AttrId, RowRef, Value};
use sgl_index::Rect;

use crate::builtin_eval::eval_aggregate_scan;
use crate::closed::{flatten_args, ClosedEnv};
use crate::compile::{ClauseTarget, CompiledScript, Instr, RectCode};
use crate::error::{ExecError, Result};
use crate::indexes::{ProbeArgs, ProbeSite, Probed, RecordOut};
use crate::planner::PlannedAggregate;
use crate::stats::CallObs;
use crate::tick::{ShardState, TickShared};

/// An aggregate call site resolved against this tick's registry, plan cache
/// and index state — once per shard run, so a probe looks nothing up.
struct ResolvedAgg<'a> {
    def: &'a AggregateDef,
    planned: &'a PlannedAggregate,
    /// The index-side state of the site; `None` when it scans.
    site: Option<ProbeSite<'a>>,
    /// The current probe's categorical constraint values (reused).
    required: Vec<(bool, Value)>,
    /// Probes issued and scan fallbacks taken (the index side counts into
    /// `site`); both fold into the shard's observations at run end.
    obs: CallObs,
}

/// Mutable per-shard execution state for one compiled script: the register
/// file, the inline caches for record-field reads and the per-site effect
/// buffers.  The compiled script itself stays shared and immutable.
struct Vm {
    regs: Vec<ScriptValue>,
    /// Cached field positions for `Field` instructions (`usize::MAX` =
    /// cold).  Records produced by a given site share a layout, so after
    /// the first unit every field read is a direct index plus a name check.
    field_cache: Vec<usize>,
    /// Effects buffered per perform site, replayed site-major at run end.
    site_logs: Vec<Vec<(i64, AttrId, Value)>>,
    /// The current call's flattened arguments (the closed code's parameters).
    flat: Vec<Value>,
    /// Scratch buffer for candidate rows of a perform clause.
    candidates: Vec<u32>,
    /// Value stack of the closed-term evaluator.
    stack: Vec<Value>,
}

/// `a op b` with the scalar case short-cut past `zip_binop`'s component
/// vectors; `zip_binop` itself reduces two one-component values to exactly
/// this `apply_binop` call, so results and errors are identical.
fn binop(
    op: BinOp,
    a: &ScriptValue,
    b: &ScriptValue,
) -> std::result::Result<ScriptValue, sgl_lang::LangError> {
    match (a, b) {
        (ScriptValue::Scalar(x), ScriptValue::Scalar(y)) => {
            Ok(ScriptValue::Scalar(apply_binop(op, x, y)?))
        }
        _ => ScriptValue::zip_binop(op, a, b),
    }
}

fn eval_rect(
    [x_lo, x_hi, y_lo, y_hi]: &RectCode,
    env: &ClosedEnv<'_>,
    stack: &mut Vec<Value>,
) -> Result<Rect> {
    Ok(Rect::new(
        x_lo.eval(env, stack)?.as_f64()?,
        x_hi.eval(env, stack)?.as_f64()?,
        y_lo.eval(env, stack)?.as_f64()?,
        y_hi.eval(env, stack)?.as_f64()?,
    ))
}

/// Execute one compiled script for `acting_rows` within a shard, emitting
/// effects into the shard's sink in statement-major order.
pub(crate) fn run_compiled<'a>(
    shared: &TickShared<'a>,
    state: &mut ShardState<'a>,
    compiled: &CompiledScript,
    acting_rows: &[u32],
) -> Result<()> {
    // Per-run (not per-unit) resolution of call sites and named constants.
    let mut aggs = compiled
        .agg_sites
        .iter()
        .map(|site| {
            let def = shared
                .registry
                .aggregate(&site.name)
                .ok_or_else(|| ExecError::UnknownBuiltin(site.name.clone()))?;
            let planned = shared.planned.get(&site.name).ok_or_else(|| {
                ExecError::Internal(format!(
                    "aggregate `{}` missing from the plan cache",
                    site.name
                ))
            })?;
            let probe_site = match (&state.cache, &site.prologue) {
                (Some(cache), Some(_)) => cache.open_site(planned)?,
                _ => None,
            };
            // The prologue was lowered from the analysis `plan_aggregate`
            // derives for this definition; a plan cache built from anything
            // else would be probed with the wrong arguments.
            if probe_site.is_some()
                && site.prologue.as_ref().map(|p| &p.analysis) != Some(&planned.analysis)
            {
                return Err(ExecError::Internal(format!(
                    "call site `{}` was compiled against a different definition than it is planned under",
                    site.name
                )));
            }
            Ok(ResolvedAgg {
                def,
                planned,
                site: probe_site,
                required: Vec::new(),
                obs: CallObs::default(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    // Missing names only error if an instruction actually reads them —
    // exactly when the oracle's lazy lookup would.
    let consts: Vec<Option<&Value>> = compiled
        .names
        .const_names
        .iter()
        .map(|n| shared.constants.get(n))
        .collect();

    let mut vm = Vm {
        regs: vec![ScriptValue::Scalar(Value::Int(0)); compiled.num_regs],
        field_cache: vec![usize::MAX; compiled.num_field_caches],
        site_logs: vec![Vec::new(); compiled.perform_sites.len()],
        flat: Vec::new(),
        candidates: Vec::new(),
        stack: Vec::new(),
    };
    let schema = shared.table.schema();
    for &row in acting_rows {
        let unit = shared.table.row(row as usize);
        let unit_key = unit.key(schema);
        vm.run_unit(shared, state, compiled, &mut aggs, &consts, unit, unit_key)?;
    }
    for resolved in &aggs {
        let scans = resolved.obs.served[PhysicalBackend::Scan.index()];
        state.stats.aggregate_probes += resolved.obs.probes as usize;
        state.stats.naive_scans += scans as usize;
        state.obs.fold(&resolved.def.name, &resolved.obs);
        if let Some(site) = &resolved.site {
            state.obs.fold(&resolved.def.name, &site.obs);
        }
    }
    // Site-major replay = statement-major emission order.
    for log in vm.site_logs {
        for (key, attr, value) in log {
            state.effects.emit(key, attr, value)?;
        }
    }
    Ok(())
}

impl Vm {
    #[allow(clippy::too_many_arguments)]
    fn run_unit<'a>(
        &mut self,
        shared: &TickShared<'a>,
        state: &mut ShardState<'a>,
        compiled: &CompiledScript,
        aggs: &mut [ResolvedAgg<'a>],
        consts: &[Option<&Value>],
        unit: RowRef<'_>,
        unit_key: i64,
    ) -> Result<()> {
        let mut pc = 0usize;
        loop {
            match &compiled.instrs[pc] {
                Instr::Const { dst, idx } => {
                    self.regs[*dst as usize] =
                        ScriptValue::Scalar(compiled.consts[*idx as usize].clone());
                }
                Instr::NamedConst { dst, idx } => {
                    let v = consts[*idx as usize].ok_or_else(|| {
                        ExecError::Lang(sgl_lang::LangError::Unresolved(
                            compiled.names.const_names[*idx as usize].clone(),
                        ))
                    })?;
                    self.regs[*dst as usize] = ScriptValue::Scalar(v.clone());
                }
                Instr::UnitAttr { dst, attr } => {
                    self.regs[*dst as usize] = ScriptValue::Scalar(unit.get(*attr));
                }
                Instr::UnitKey { dst } => {
                    self.regs[*dst as usize] = ScriptValue::Scalar(Value::Int(unit_key));
                }
                Instr::Random { dst, seed } => {
                    let i = self.regs[*seed as usize].as_scalar()?.as_i64()?;
                    self.regs[*dst as usize] =
                        ScriptValue::Scalar(Value::Int(shared.rng.value(unit_key, i)));
                }
                Instr::Bin { dst, op, a, b } => {
                    self.regs[*dst as usize] =
                        binop(*op, &self.regs[*a as usize], &self.regs[*b as usize])?;
                }
                Instr::Neg { dst, src } => {
                    let v = match &self.regs[*src as usize] {
                        ScriptValue::Scalar(v) => ScriptValue::Scalar(v.neg()?),
                        ScriptValue::Record(fields) => ScriptValue::Record(
                            fields
                                .iter()
                                .map(|(n, v)| Ok((n.clone(), v.neg()?)))
                                .collect::<Result<Vec<_>>>()?,
                        ),
                    };
                    self.regs[*dst as usize] = v;
                }
                Instr::Abs { dst, src } => {
                    self.regs[*dst as usize] =
                        ScriptValue::Scalar(self.regs[*src as usize].as_scalar()?.abs()?);
                }
                Instr::Sqrt { dst, src } => {
                    self.regs[*dst as usize] =
                        ScriptValue::Scalar(self.regs[*src as usize].as_scalar()?.sqrt()?);
                }
                Instr::Field {
                    dst,
                    src,
                    field,
                    cache,
                } => {
                    let name = &compiled.field_names[*field as usize];
                    let slot = &mut self.field_cache[*cache as usize];
                    let value = {
                        let v = &self.regs[*src as usize];
                        match v {
                            ScriptValue::Record(fields) => match fields.get(*slot) {
                                Some((n, val)) if n == name => val.clone(),
                                _ => {
                                    let val = v.field(name)?.clone();
                                    if let Some(pos) = fields.iter().position(|(n, _)| n == name) {
                                        *slot = pos;
                                    }
                                    val
                                }
                            },
                            // Same error as the oracle's `v.field(..)`.
                            ScriptValue::Scalar(_) => v.field(name)?.clone(),
                        }
                    };
                    self.regs[*dst as usize] = ScriptValue::Scalar(value);
                }
                Instr::Tuple { dst, items } => {
                    let mut fields = Vec::with_capacity(items.len());
                    for (i, r) in items.iter().enumerate() {
                        fields.push((
                            compiled.placeholder_names[i].clone(),
                            self.regs[*r as usize].as_scalar()?.clone(),
                        ));
                    }
                    self.regs[*dst as usize] = ScriptValue::Record(fields);
                }
                Instr::CallAgg { dst, site } => self.call_aggregate(
                    shared,
                    state,
                    compiled,
                    &mut aggs[*site as usize],
                    consts,
                    (*site as usize, *dst as usize),
                    unit,
                    unit_key,
                )?,
                Instr::Perform { site } => {
                    self.perform(
                        shared,
                        state,
                        compiled,
                        consts,
                        *site as usize,
                        unit,
                        unit_key,
                    )?;
                }
                Instr::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Instr::Branch {
                    op,
                    a,
                    b,
                    if_true,
                    if_false,
                } => {
                    let l = self.regs[*a as usize].as_scalar()?;
                    let r = self.regs[*b as usize].as_scalar()?;
                    let take = match op {
                        CmpOp::Eq => l.loose_eq(r),
                        CmpOp::Ne => !l.loose_eq(r),
                        _ => op.holds(l.compare(r)?),
                    };
                    pc = if take { *if_true } else { *if_false } as usize;
                    continue;
                }
                Instr::Return => return Ok(()),
            }
            pc += 1;
        }
    }

    /// One aggregate probe.  Index-served sites evaluate their prologue —
    /// closed code over the flattened arguments — into [`ProbeArgs`] and let
    /// [`crate::indexes::TickIndexes::probe`] write the answer straight into
    /// the destination register; the rest take the reference scan, which is
    /// the only place a name-keyed parameter map is built.
    #[allow(clippy::too_many_arguments)]
    fn call_aggregate<'a>(
        &mut self,
        shared: &TickShared<'a>,
        state: &mut ShardState<'a>,
        compiled: &CompiledScript,
        resolved: &mut ResolvedAgg<'a>,
        consts: &[Option<&Value>],
        (site_idx, dst): (usize, usize),
        unit: RowRef<'_>,
        unit_key: i64,
    ) -> Result<()> {
        let site = &compiled.agg_sites[site_idx];
        resolved.obs.probes += 1;
        flatten_args(
            &site.name,
            site.arity,
            site.args.iter().skip(1).map(|r| &self.regs[*r as usize]),
            &mut self.flat,
        )?;
        if let (Some(cache), Some(probe_site), Some(prologue)) = (
            state.cache.as_mut(),
            resolved.site.as_mut(),
            site.prologue.as_ref(),
        ) {
            let mut env = ClosedEnv {
                unit,
                unit_key,
                row: None,
                params: &self.flat,
                named: consts,
                const_names: &compiled.names.const_names,
                rng: shared.rng,
            };
            resolved.required.clear();
            for (equal, code) in &prologue.required {
                let value = code.eval(&env, &mut self.stack)?;
                resolved.required.push((*equal, value));
            }
            let rect = match &prologue.rect {
                Some(code) => Some(eval_rect(code, &env, &mut self.stack)?),
                None => None,
            };
            let args = ProbeArgs {
                rect,
                required: &resolved.required,
            };
            let out = &mut self.regs[dst];
            let probed = cache.probe(resolved.planned, probe_site, unit, unit_key, &args, out)?;
            if let Probed::Winner(row) = probed {
                if prologue.outputs.is_empty() {
                    return Err(ExecError::Internal(format!(
                        "call site `{}` has no compiled winner outputs",
                        site.name
                    )));
                }
                env.row = Some(shared.table.row(row));
                let mut rec = RecordOut::begin(out, prologue.outputs.len());
                for (name, code) in &prologue.outputs {
                    rec.put(name, code.eval(&env, &mut self.stack)?);
                }
                rec.finish();
            }
            return Ok(());
        }
        resolved.obs.add_served(PhysicalBackend::Scan);
        let bindings: FxHashMap<String, ScriptValue> = resolved
            .def
            .params
            .iter()
            .skip(1)
            .cloned()
            .zip(self.flat.drain(..).map(ScriptValue::Scalar))
            .collect();
        let ctx = EvalContext::new(shared.table.schema(), unit, shared.rng, shared.constants);
        self.regs[dst] = eval_aggregate_scan(resolved.def, &bindings, &ctx, shared.table)?;
        Ok(())
    }

    /// One perform-site execution for one unit: candidate enumeration, the
    /// per-candidate filter and the effect values all closed code, buffering
    /// emissions into the site's log.  The clause loop reuses one environment, flipping its
    /// candidate row in place.
    #[allow(clippy::too_many_arguments)]
    fn perform(
        &mut self,
        shared: &TickShared<'_>,
        state: &mut ShardState<'_>,
        compiled: &CompiledScript,
        consts: &[Option<&Value>],
        site_idx: usize,
        unit: RowRef<'_>,
        unit_key: i64,
    ) -> Result<()> {
        let site = &compiled.perform_sites[site_idx];
        state.stats.acting_units += 1;
        flatten_args(
            &site.name,
            site.arity,
            site.args.iter().skip(1).map(|r| &self.regs[*r as usize]),
            &mut self.flat,
        )?;
        let mut env = ClosedEnv {
            unit,
            unit_key,
            row: None,
            params: &self.flat,
            named: consts,
            const_names: &compiled.names.const_names,
            rng: shared.rng,
        };
        let schema = shared.table.schema();
        let all_rows = 0..shared.table.len() as u32;

        for clause in &site.clauses {
            env.row = None;
            self.candidates.clear();
            match &clause.target {
                ClauseTarget::Key(code) => {
                    // Targeted effect: O(1) key look-up.
                    let key = code.eval(&env, &mut self.stack)?.as_i64()?;
                    if let Some(idx) = shared.table.find_key_readonly(key) {
                        self.candidates.push(idx as u32);
                    }
                }
                // Area-of-effect: enumerate through the spatial index when
                // the tick has an index view; without one, test every row.
                ClauseTarget::Rect(code) => match state.cache.as_mut() {
                    Some(cache) => {
                        let rect = eval_rect(code, &env, &mut self.stack)?;
                        for fp in cache.partition_fps_for(&[])? {
                            self.candidates.extend(cache.enum_query(&[], fp, &rect)?);
                        }
                    }
                    None => self.candidates.extend(all_rows.clone()),
                },
                ClauseTarget::Scan => self.candidates.extend(all_rows.clone()),
            }

            let log = &mut self.site_logs[site_idx];
            for &target in &self.candidates {
                let target_row = shared.table.row(target as usize);
                env.row = Some(target_row);
                if !clause.filter.holds(&env, &mut self.stack)? {
                    continue;
                }
                let target_key = target_row.key(schema);
                for (attr, code) in &clause.effects {
                    log.push((target_key, *attr, code.eval(&env, &mut self.stack)?));
                }
            }
        }
        Ok(())
    }
}
