//! Lowering normalised scripts to register bytecode (§5-style physical
//! compilation of the script layer).
//!
//! A tree-walking evaluator (the [`crate::oracle`]) re-resolves every name,
//! attribute and built-in on every tick for every unit.  This pass runs once
//! per script install instead: it flattens the normalised action tree into a
//! [`CompiledScript`] — a flat instruction array over virtual registers with
//! a constant pool, pre-resolved [`AttrId`] attribute slots, and aggregate /
//! perform *call sites* whose argument registers and *closed code* are all
//! computed ahead of time — so no name lookup survives into the per-unit hot
//! loop of the VM (`vm` module).  The closed code ([`crate::closed`]) is what
//! a call evaluates *behind* its instruction: the probe rectangle and
//! categorical constraint values of the definition's filter analysis, an
//! `ArgBest` winner's output terms, a perform clause's target key / area
//! bounds / filter / effect values.  The query is fixed per call site and
//! only the unit varies, so all of it is interpreted here, once.
//!
//! Compilation is semantically conservative: every construct the evaluator
//! of `sgl-lang` supports is lowered to an instruction that calls the *same*
//! shared semantics helpers (`ScriptValue::zip_binop`, `as_scalar`,
//! `loose_eq`/`compare`), so compiled execution is bit-identical to the
//! oracle; anything outside the normal form (nested aggregates, row
//! references in a script body, unknown names) is a [`CompileError`], which
//! the engine reports when the script is registered — there is no other
//! executor to fall back to.
//!
//! One deliberate restriction: built-in definitions are *closed* SQL
//! fragments (they may reference their parameters, `u.*`, `e.*` and game
//! constants, never a script-local `let` variable), so compiled call sites
//! evaluate them in a context without the script's let bindings.  The
//! oracle happens to leak script bindings into definition evaluation; no
//! well-formed registry definition can observe the difference.

use std::fmt;

use sgl_env::{AttrId, Schema, Value};
use sgl_lang::ast::{Action, AggCall, BinOp, CmpOp, Cond, Term, VarRef};
use sgl_lang::builtins::{AggSpec, Registry};
use sgl_lang::normalize::NormalScript;

use crate::closed::{ClosedCond, ClosedTerm, Lowerer};
use crate::config::SpatialAttrs;
use crate::filter::{analyze_filter, FilterAnalysis};
use crate::indexes::same_value;
use crate::planner::{plan_aggregate, AggStrategy};

/// A virtual register index.  Registers hold `ScriptValue`s and are written
/// exactly once per unit execution before any read (the compiler emits
/// straight-line code per scope, so no clearing between units is needed).
pub(crate) type Reg = u16;

/// Why a script could not be lowered to bytecode.  The engine refuses to
/// register (or reconfigure into) a script that does not compile.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A bare name is neither a let binding in scope, a registry constant,
    /// nor the conventional unit marker `u`/`self` in call-argument position.
    Unresolved(String),
    /// A construct outside the compilable normal form (nested aggregates,
    /// `e.*` in a script body, unknown built-ins or attributes, or a script
    /// too large for 16-bit registers).
    Unsupported(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unresolved(name) => {
                write!(f, "cannot compile script: unresolved name `{name}`")
            }
            CompileError::Unsupported(what) => write!(f, "cannot compile script: {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// One bytecode instruction.  All operands are pre-resolved indices — into
/// the register file, the constant pools or the call-site tables — so the
/// dispatch loop never touches a string.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Instr {
    /// `dst = consts[idx]` (literal constant from the pool).
    Const { dst: Reg, idx: u16 },
    /// `dst = constants[const_names[idx]]` — a registry game constant,
    /// re-resolved once per shard run so late registry edits behave exactly
    /// like the oracle's per-probe lookup.
    NamedConst { dst: Reg, idx: u16 },
    /// `dst = u.attr` (pre-resolved attribute slot of the acting unit).
    UnitAttr { dst: Reg, attr: AttrId },
    /// `dst = key(u)` — the bare `u`/`self` marker in call-argument position.
    UnitKey { dst: Reg },
    /// `dst = Random(seed)` (the deterministic per-tick random function).
    Random { dst: Reg, seed: Reg },
    /// `dst = a op b` via the shared `zip_binop` semantics.
    Bin { dst: Reg, op: BinOp, a: Reg, b: Reg },
    /// `dst = -src` (per-field on records).
    Neg { dst: Reg, src: Reg },
    /// `dst = abs(src)` (scalar).
    Abs { dst: Reg, src: Reg },
    /// `dst = sqrt(src)` (scalar).
    Sqrt { dst: Reg, src: Reg },
    /// `dst = src.field` with a per-VM inline cache (`cache` indexes the
    /// VM's field-position cache; records produced by a given site have a
    /// stable layout, so the cached position almost always hits).
    Field {
        /// Destination register.
        dst: Reg,
        /// Record-valued source register.
        src: Reg,
        /// Index into the compiled field-name table.
        field: u16,
        /// Inline-cache slot.
        cache: u16,
    },
    /// `dst = (items...)` — a tuple literal with `_0`, `_1`, ... field names.
    Tuple { dst: Reg, items: Vec<Reg> },
    /// `dst = aggregate call site `site`` (answered by the site's index or
    /// the reference scan).
    CallAgg { dst: Reg, site: u16 },
    /// Execute perform call site `site` (buffers its effects site-major).
    Perform { site: u16 },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Evaluate `a op b` on scalars (loose equality for `=`/`!=`, ordered
    /// comparison otherwise) and jump to `if_true` or `if_false`.
    Branch {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
        /// Target when the comparison holds.
        if_true: u32,
        /// Target when it does not.
        if_false: u32,
    },
    /// End of the script for one unit.
    Return,
}

/// The four probe-rectangle bounds of a filter analysis, in the order
/// `x_lo, x_hi, y_lo, y_hi`.
pub(crate) type RectCode = [ClosedTerm; 4];

/// What one index probe of an aggregate call site evaluates, as closed code
/// lowered from the definition's [`FilterAnalysis`] — the same analysis
/// `plan_aggregate` stores on the site's `PlannedAggregate`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Prologue {
    /// The analysis this code was lowered from; a run checks it against the
    /// tick's plan before trusting the code.
    pub(crate) analysis: FilterAnalysis,
    /// `(equal, value)` per categorical constraint, in partition-signature
    /// order ([`FilterAnalysis::cat_constraints`]).
    pub(crate) required: Vec<(bool, ClosedTerm)>,
    /// The probe rectangle, when the filter bounds one.
    pub(crate) rect: Option<RectCode>,
    /// `ArgBest` sites: `(field name, term over the winning row)`.
    pub(crate) outputs: Vec<(String, ClosedTerm)>,
}

/// One aggregate call site: the pre-resolved name, argument registers and
/// probe prologue.  The definition and its physical plan are looked up once
/// per tick (the cost-based planner may switch backends between ticks),
/// never per unit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AggSite {
    /// Aggregate name (also the observation key).
    pub(crate) name: String,
    /// Argument registers, in call order.
    pub(crate) args: Vec<Reg>,
    /// Declared parameters after the implicit unit (the flat call arity).
    pub(crate) arity: usize,
    /// Probe code; `None` when the definition only ever scans.
    pub(crate) prologue: Option<Prologue>,
}

/// How a perform clause finds its candidate rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ClauseTarget {
    /// `e.key = term`: one key look-up.
    Key(ClosedTerm),
    /// A conjunctive filter with a full rectangle: spatial enumeration
    /// (when the tick has an index view; otherwise every row is tested).
    Rect(RectCode),
    /// Every row.
    Scan,
}

/// One compiled effect clause of a perform site: candidate enumeration, the
/// per-candidate filter and the effect assignments, all as closed code with
/// attribute ids resolved (per *install*, not per unit per tick as a
/// tree-walking evaluator does).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledClause {
    /// Candidate enumeration.
    pub(crate) target: ClauseTarget,
    /// The clause filter, evaluated per candidate row.
    pub(crate) filter: ClosedCond,
    /// `(attribute id, value term)` per effect.
    pub(crate) effects: Vec<(AttrId, ClosedTerm)>,
}

/// One perform call site: argument registers plus a snapshot of the action
/// definition with everything the hot loop needs pre-resolved.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PerformSite {
    /// Action name (for arity errors and display).
    pub(crate) name: String,
    /// Declared parameters after the implicit unit (the flat call arity).
    pub(crate) arity: usize,
    /// Argument registers, in call order.
    pub(crate) args: Vec<Reg>,
    /// Compiled effect clauses.
    pub(crate) clauses: Vec<CompiledClause>,
}

/// Name tables shared by a script body and the closed code of its call
/// sites: referenced registry constants (resolved once per shard run) and
/// display names of referenced attributes.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Names {
    /// Names of referenced registry constants.
    pub(crate) const_names: Vec<String>,
    /// Display names for the referenced attributes.
    pub(crate) attr_names: Vec<(AttrId, String)>,
}

impl Names {
    pub(crate) fn const_idx(&mut self, name: &str) -> Result<u16, CompileError> {
        let idx = match self.const_names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.const_names.push(name.to_string());
                self.const_names.len() - 1
            }
        };
        u16::try_from(idx).map_err(|_| CompileError::Unsupported("too many constant names".into()))
    }

    pub(crate) fn attr_id(&mut self, schema: &Schema, name: &str) -> Result<AttrId, CompileError> {
        let id = schema
            .attr_id(name)
            .ok_or_else(|| CompileError::Unsupported(format!("unknown attribute `{name}`")))?;
        if !self.attr_names.iter().any(|(a, _)| *a == id) {
            self.attr_names.push((id, name.to_string()));
        }
        Ok(id)
    }

    pub(crate) fn attr_name(&self, attr: AttrId) -> &str {
        self.attr_names
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, n)| n.as_str())
            .unwrap_or("?")
    }
}

/// A script lowered to register bytecode.  Everything here is immutable,
/// `Send + Sync` plain data: worker shards share one `&CompiledScript` and
/// keep their mutable state (registers, inline caches, effect buffers) in
/// their own VM instance (`vm` module).  Checkpoints never serialise this —
/// resume recompiles from the stored normalised AST.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScript {
    /// Script name (display only).
    pub(crate) name: String,
    /// Literal constant pool.
    pub(crate) consts: Vec<Value>,
    /// Constant and attribute name tables (body and call-site code).
    pub(crate) names: Names,
    /// Record field names referenced by `Field` instructions.
    pub(crate) field_names: Vec<String>,
    /// Placeholder field names `_0`, `_1`, ... shared by tuple literals.
    pub(crate) placeholder_names: Vec<String>,
    /// The flat instruction array.
    pub(crate) instrs: Vec<Instr>,
    /// Number of virtual registers.
    pub(crate) num_regs: usize,
    /// Number of inline-cache slots for `Field` instructions.
    pub(crate) num_field_caches: usize,
    /// Aggregate call sites.
    pub(crate) agg_sites: Vec<AggSite>,
    /// Perform call sites.
    pub(crate) perform_sites: Vec<PerformSite>,
}

impl CompiledScript {
    /// Number of instructions (for `explain` output and tests).
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// Number of virtual registers.
    pub fn reg_count(&self) -> usize {
        self.num_regs
    }

    /// One human-readable line per aggregate call site, keyed by aggregate
    /// name — the engine's `explain()` attaches these as `↳ compiled:`
    /// annotations under the matching cost lines.  Each line ends with the
    /// closed code one probe of the site evaluates.
    pub fn agg_site_lines(&self) -> Vec<(String, String)> {
        self.agg_sites
            .iter()
            .enumerate()
            .map(|(i, site)| {
                (
                    site.name.clone(),
                    format!(
                        "site #{i} {}({}) {}",
                        site.name,
                        regs_list(&site.args),
                        self.prologue_text(site)
                    ),
                )
            })
            .collect()
    }

    /// One human-readable line per perform call site, keyed by action name,
    /// with each clause's enumeration, filter and effect code.
    pub fn perform_site_lines(&self) -> Vec<(String, String)> {
        self.perform_sites
            .iter()
            .enumerate()
            .map(|(i, site)| {
                let shapes: Vec<&str> = site.clauses.iter().map(clause_shape).collect();
                let clauses: Vec<String> =
                    site.clauses.iter().map(|c| self.clause_text(c)).collect();
                (
                    site.name.clone(),
                    format!(
                        "site #{i} {}({}) [{}] {}",
                        site.name,
                        regs_list(&site.args),
                        shapes.join(", "),
                        clauses.join(" | ")
                    ),
                )
            })
            .collect()
    }

    fn rect_text(&self, [x_lo, x_hi, y_lo, y_hi]: &RectCode) -> String {
        let n = &self.names;
        format!(
            "rect x[{} .. {}] y[{} .. {}]",
            x_lo.show(n),
            x_hi.show(n),
            y_lo.show(n),
            y_hi.show(n)
        )
    }

    /// The probe code of an aggregate site: categorical constraints, the
    /// rectangle and (for `ArgBest`) the winner's output terms.
    fn prologue_text(&self, site: &AggSite) -> String {
        let Some(prologue) = &site.prologue else {
            return "scan".into();
        };
        let mut parts = Vec::new();
        for (c, (equal, code)) in prologue
            .analysis
            .cat_constraints()
            .iter()
            .zip(&prologue.required)
        {
            let op = if *equal { "=" } else { "!=" };
            parts.push(format!("e.{} {op} [{}]", c.attr, code.show(&self.names)));
        }
        if let Some(rect) = &prologue.rect {
            parts.push(self.rect_text(rect));
        }
        for (field, code) in &prologue.outputs {
            parts.push(format!("{field} := [{}]", code.show(&self.names)));
        }
        if parts.is_empty() {
            "all rows".into()
        } else {
            parts.join(" ")
        }
    }

    fn clause_text(&self, clause: &CompiledClause) -> String {
        let n = &self.names;
        let mut parts = Vec::new();
        match &clause.target {
            ClauseTarget::Key(key) => parts.push(format!("key[{}]", key.show(n))),
            ClauseTarget::Rect(rect) => parts.push(self.rect_text(rect)),
            ClauseTarget::Scan => {}
        }
        parts.push(format!("filter[{}]", clause.filter.show(n)));
        for (attr, code) in &clause.effects {
            parts.push(format!("{} := [{}]", n.attr_name(*attr), code.show(n)));
        }
        parts.join(" ")
    }
}

fn regs_list(regs: &[Reg]) -> String {
    let parts: Vec<String> = regs.iter().map(|r| format!("r{r}")).collect();
    parts.join(", ")
}

/// Shape of a compiled clause, as the candidate enumerator will treat it.
fn clause_shape(clause: &CompiledClause) -> &'static str {
    match clause.target {
        ClauseTarget::Key(_) => "targeted",
        ClauseTarget::Rect(_) => "rect",
        ClauseTarget::Scan => "scan",
    }
}

pub(crate) fn bin_symbol(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "mod",
    }
}

pub(crate) fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

impl fmt::Display for CompiledScript {
    /// The disassembler: a stable, line-oriented rendering used by the
    /// golden-snapshot tests.  Every operand resolves back to a readable
    /// name so a diff in a golden file reads like a code review.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compiled script `{}`: {} instrs, {} regs, {} agg sites, {} perform sites",
            self.name,
            self.instrs.len(),
            self.num_regs,
            self.agg_sites.len(),
            self.perform_sites.len()
        )?;
        for (i, v) in self.consts.iter().enumerate() {
            writeln!(f, "  const c{i} = {v}")?;
        }
        for (i, n) in self.names.const_names.iter().enumerate() {
            writeln!(f, "  name  n{i} = {n}")?;
        }
        for (pc, instr) in self.instrs.iter().enumerate() {
            write!(f, "  {pc:3}: ")?;
            match instr {
                Instr::Const { dst, idx } => {
                    writeln!(f, "r{dst} = c{idx} ({})", self.consts[*idx as usize])?
                }
                Instr::NamedConst { dst, idx } => writeln!(
                    f,
                    "r{dst} = n{idx} ({})",
                    self.names.const_names[*idx as usize]
                )?,
                Instr::UnitAttr { dst, attr } => {
                    writeln!(f, "r{dst} = u.{}", self.names.attr_name(*attr))?
                }
                Instr::UnitKey { dst } => writeln!(f, "r{dst} = unit-key")?,
                Instr::Random { dst, seed } => writeln!(f, "r{dst} = random(r{seed})")?,
                Instr::Bin { dst, op, a, b } => {
                    writeln!(f, "r{dst} = r{a} {} r{b}", bin_symbol(*op))?
                }
                Instr::Neg { dst, src } => writeln!(f, "r{dst} = -r{src}")?,
                Instr::Abs { dst, src } => writeln!(f, "r{dst} = abs(r{src})")?,
                Instr::Sqrt { dst, src } => writeln!(f, "r{dst} = sqrt(r{src})")?,
                Instr::Field {
                    dst,
                    src,
                    field,
                    cache,
                } => writeln!(
                    f,
                    "r{dst} = r{src}.{} [ic{cache}]",
                    self.field_names[*field as usize]
                )?,
                Instr::Tuple { dst, items } => writeln!(f, "r{dst} = ({})", regs_list(items))?,
                Instr::CallAgg { dst, site } => {
                    let s = &self.agg_sites[*site as usize];
                    writeln!(f, "r{dst} = agg#{site} {}({})", s.name, regs_list(&s.args))?
                }
                Instr::Perform { site } => {
                    let s = &self.perform_sites[*site as usize];
                    let shapes: Vec<&str> = s.clauses.iter().map(clause_shape).collect();
                    writeln!(
                        f,
                        "perform#{site} {}({}) [{}]",
                        s.name,
                        regs_list(&s.args),
                        shapes.join(", ")
                    )?
                }
                Instr::Jump { target } => writeln!(f, "jump {target}")?,
                Instr::Branch {
                    op,
                    a,
                    b,
                    if_true,
                    if_false,
                } => writeln!(
                    f,
                    "if r{a} {} r{b} then {if_true} else {if_false}",
                    cmp_symbol(*op)
                )?,
                Instr::Return => writeln!(f, "return")?,
            }
        }
        // What each call site evaluates behind its instruction.
        for (i, site) in self.agg_sites.iter().enumerate() {
            writeln!(f, "  agg#{i} {}: {}", site.name, self.prologue_text(site))?;
        }
        for (i, site) in self.perform_sites.iter().enumerate() {
            for (c, clause) in site.clauses.iter().enumerate() {
                writeln!(
                    f,
                    "  perform#{i} {} clause {c}: {}",
                    site.name,
                    self.clause_text(clause)
                )?;
            }
        }
        Ok(())
    }
}

/// A jump label: an index into the compiler's label table, resolved to an
/// instruction address after the whole body is emitted.
#[derive(Debug, Clone, Copy)]
struct Label(u32);

struct Compiler<'a> {
    registry: &'a Registry,
    schema: &'a Schema,
    spatial: Option<SpatialAttrs>,
    instrs: Vec<Instr>,
    consts: Vec<Value>,
    names: Names,
    field_names: Vec<String>,
    agg_sites: Vec<AggSite>,
    perform_sites: Vec<PerformSite>,
    /// Lexical scope: let-bound names to the register holding their value.
    /// Later entries shadow earlier ones, mirroring the oracle's
    /// binding-map insert order.
    scope: Vec<(String, Reg)>,
    num_regs: usize,
    num_field_caches: usize,
    max_tuple_arity: usize,
    /// Label table: `u32::MAX` until bound to an instruction address.
    labels: Vec<u32>,
}

/// Compile a normalised script into register bytecode.  `spatial` must be
/// the executing configuration's spatial-attribute mapping — the per-clause
/// filter analyses bake it in, so the engine recompiles when the exec
/// configuration changes.
pub fn compile_script(
    name: &str,
    normal: &NormalScript,
    registry: &Registry,
    schema: &Schema,
    spatial: Option<SpatialAttrs>,
) -> Result<CompiledScript, CompileError> {
    let mut c = Compiler {
        registry,
        schema,
        spatial,
        instrs: Vec::new(),
        consts: Vec::new(),
        names: Names::default(),
        field_names: Vec::new(),
        agg_sites: Vec::new(),
        perform_sites: Vec::new(),
        scope: Vec::new(),
        num_regs: 0,
        num_field_caches: 0,
        max_tuple_arity: 0,
        labels: Vec::new(),
    };
    c.compile_action(&normal.body)?;
    c.instrs.push(Instr::Return);
    c.patch_labels()?;
    Ok(CompiledScript {
        name: name.to_string(),
        consts: c.consts,
        names: c.names,
        field_names: c.field_names,
        placeholder_names: (0..c.max_tuple_arity).map(|i| format!("_{i}")).collect(),
        instrs: c.instrs,
        num_regs: c.num_regs,
        num_field_caches: c.num_field_caches,
        agg_sites: c.agg_sites,
        perform_sites: c.perform_sites,
    })
}

impl<'a> Compiler<'a> {
    fn fresh(&mut self) -> Result<Reg, CompileError> {
        if self.num_regs > Reg::MAX as usize {
            return Err(CompileError::Unsupported(
                "script needs more than 65536 registers".into(),
            ));
        }
        let reg = self.num_regs as Reg;
        self.num_regs += 1;
        Ok(reg)
    }

    fn u16_index(len: usize, what: &str) -> Result<u16, CompileError> {
        u16::try_from(len).map_err(|_| CompileError::Unsupported(format!("too many {what}")))
    }

    fn lookup(&self, name: &str) -> Option<Reg> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, r)| *r)
    }

    fn const_idx(&mut self, v: &Value) -> Result<u16, CompileError> {
        // Type- and bit-exact: `Value`'s `PartialEq` is the loose numeric
        // equality of the language, under which `3` and `3.0` would share
        // a slot and the first literal would decide the other's type.
        if let Some(i) = self.consts.iter().position(|c| same_value(c, v)) {
            return Self::u16_index(i, "constants");
        }
        self.consts.push(v.clone());
        Self::u16_index(self.consts.len() - 1, "constants")
    }

    fn field_idx(&mut self, name: &str) -> Result<u16, CompileError> {
        if let Some(i) = self.field_names.iter().position(|n| n == name) {
            return Self::u16_index(i, "field names");
        }
        self.field_names.push(name.to_string());
        Self::u16_index(self.field_names.len() - 1, "field names")
    }

    fn new_label(&mut self) -> Label {
        self.labels.push(u32::MAX);
        Label(self.labels.len() as u32 - 1)
    }

    fn bind_label(&mut self, label: Label) {
        self.labels[label.0 as usize] = self.instrs.len() as u32;
    }

    /// Rewrite label ids stored in jump targets into instruction addresses.
    fn patch_labels(&mut self) -> Result<(), CompileError> {
        let resolve = |labels: &[u32], id: u32| -> Result<u32, CompileError> {
            let pc = labels[id as usize];
            if pc == u32::MAX {
                return Err(CompileError::Unsupported("unbound jump label".into()));
            }
            Ok(pc)
        };
        let labels = std::mem::take(&mut self.labels);
        for instr in &mut self.instrs {
            match instr {
                Instr::Jump { target } => *target = resolve(&labels, *target)?,
                Instr::Branch {
                    if_true, if_false, ..
                } => {
                    *if_true = resolve(&labels, *if_true)?;
                    *if_false = resolve(&labels, *if_false)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn compile_action(&mut self, action: &Action) -> Result<(), CompileError> {
        match action {
            Action::Let { name, term, body } => {
                let reg = match term {
                    Term::Agg(call) => self.compile_agg_call(call)?,
                    other => self.compile_term(other)?,
                };
                self.scope.push((name.clone(), reg));
                self.compile_action(body)?;
                self.scope.pop();
                Ok(())
            }
            Action::Seq(items) => {
                for item in items {
                    self.compile_action(item)?;
                }
                Ok(())
            }
            Action::If { cond, then, els } => {
                let t = self.new_label();
                let end = self.new_label();
                match els {
                    None => {
                        self.compile_cond(cond, t, end)?;
                        self.bind_label(t);
                        self.compile_action(then)?;
                        self.bind_label(end);
                    }
                    Some(els) => {
                        let f = self.new_label();
                        self.compile_cond(cond, t, f)?;
                        self.bind_label(t);
                        self.compile_action(then)?;
                        self.instrs.push(Instr::Jump { target: end.0 });
                        self.bind_label(f);
                        self.compile_action(els)?;
                        self.bind_label(end);
                    }
                }
                Ok(())
            }
            Action::Perform { name, args } => self.compile_perform(name, args),
            Action::Nop => Ok(()),
        }
    }

    /// Two-target condition compilation: emit code that transfers control to
    /// `t` when the condition holds and `f` otherwise.  Native short-circuit
    /// (`and` skips its right operand on false, `or` on true) with the same
    /// left-to-right evaluation/error order as [`sgl_lang::eval::eval_cond`].
    fn compile_cond(&mut self, cond: &Cond, t: Label, f: Label) -> Result<(), CompileError> {
        match cond {
            Cond::Lit(true) => {
                self.instrs.push(Instr::Jump { target: t.0 });
                Ok(())
            }
            Cond::Lit(false) => {
                self.instrs.push(Instr::Jump { target: f.0 });
                Ok(())
            }
            Cond::Cmp { op, left, right } => {
                let a = self.compile_term(left)?;
                let b = self.compile_term(right)?;
                self.instrs.push(Instr::Branch {
                    op: *op,
                    a,
                    b,
                    if_true: t.0,
                    if_false: f.0,
                });
                Ok(())
            }
            Cond::And(x, y) => {
                let mid = self.new_label();
                self.compile_cond(x, mid, f)?;
                self.bind_label(mid);
                self.compile_cond(y, t, f)
            }
            Cond::Or(x, y) => {
                let mid = self.new_label();
                self.compile_cond(x, t, mid)?;
                self.bind_label(mid);
                self.compile_cond(y, t, f)
            }
            Cond::Not(c) => self.compile_cond(c, f, t),
        }
    }

    fn compile_term(&mut self, term: &Term) -> Result<Reg, CompileError> {
        match term {
            Term::Const(v) => {
                let idx = self.const_idx(v)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Const { dst, idx });
                Ok(dst)
            }
            Term::Var(VarRef::Unit(attr)) => {
                let attr = self.names.attr_id(self.schema, attr)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::UnitAttr { dst, attr });
                Ok(dst)
            }
            Term::Var(VarRef::Row(attr)) => Err(CompileError::Unsupported(format!(
                "`e.{attr}` referenced in a script body"
            ))),
            Term::Var(VarRef::Name(name)) => {
                // The oracle resolves bindings first, then constants.
                if let Some(reg) = self.lookup(name) {
                    return Ok(reg);
                }
                if self.registry.constant(name).is_some() {
                    let idx = self.names.const_idx(name)?;
                    let dst = self.fresh()?;
                    self.instrs.push(Instr::NamedConst { dst, idx });
                    return Ok(dst);
                }
                Err(CompileError::Unresolved(name.clone()))
            }
            Term::Random(seed) => {
                let seed = self.compile_term(seed)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Random { dst, seed });
                Ok(dst)
            }
            Term::Agg(call) => Err(CompileError::Unsupported(format!(
                "aggregate `{}` nested inside a term (script not in normal form)",
                call.name
            ))),
            Term::Bin { op, left, right } => {
                let a = self.compile_term(left)?;
                let b = self.compile_term(right)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Bin { dst, op: *op, a, b });
                Ok(dst)
            }
            Term::Neg(t) => {
                let src = self.compile_term(t)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Neg { dst, src });
                Ok(dst)
            }
            Term::Abs(t) => {
                let src = self.compile_term(t)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Abs { dst, src });
                Ok(dst)
            }
            Term::Sqrt(t) => {
                let src = self.compile_term(t)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Sqrt { dst, src });
                Ok(dst)
            }
            Term::Field(t, field) => {
                let src = self.compile_term(t)?;
                let field = self.field_idx(field)?;
                let cache = Self::u16_index(self.num_field_caches, "field caches")?;
                self.num_field_caches += 1;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Field {
                    dst,
                    src,
                    field,
                    cache,
                });
                Ok(dst)
            }
            Term::Tuple(items) => {
                let regs = items
                    .iter()
                    .map(|i| self.compile_term(i))
                    .collect::<Result<Vec<_>, _>>()?;
                self.max_tuple_arity = self.max_tuple_arity.max(items.len());
                let dst = self.fresh()?;
                self.instrs.push(Instr::Tuple { dst, items: regs });
                Ok(dst)
            }
        }
    }

    /// Compile one call argument.  Mirrors `eval_call_args`: the bare names
    /// `u`/`self` act as a unit marker when (and only when) they are neither
    /// let-bound nor a registry constant.
    fn compile_call_arg(&mut self, arg: &Term) -> Result<Reg, CompileError> {
        if let Term::Var(VarRef::Name(n)) = arg {
            if (n == "u" || n == "self")
                && self.lookup(n).is_none()
                && self.registry.constant(n).is_none()
            {
                let dst = self.fresh()?;
                self.instrs.push(Instr::UnitKey { dst });
                return Ok(dst);
            }
        }
        self.compile_term(arg)
    }

    fn compile_agg_call(&mut self, call: &AggCall) -> Result<Reg, CompileError> {
        let registry = self.registry;
        let Some(def) = registry.aggregate(&call.name) else {
            return Err(CompileError::Unsupported(format!(
                "unknown aggregate `{}`",
                call.name
            )));
        };
        let args = call
            .args
            .iter()
            .map(|a| self.compile_call_arg(a))
            .collect::<Result<Vec<_>, _>>()?;
        // The plan `plan_registry` derives for this definition under the
        // same schema and spatial mapping: its analysis is what a probe
        // evaluates, its strategy says whether one is ever issued.
        let plan = plan_aggregate(def, self.schema, self.spatial);
        let params = def.params.get(1..).unwrap_or_default();
        let prologue = if plan.strategy == AggStrategy::Scan {
            None
        } else {
            let mut lower = Lowerer {
                registry,
                schema: self.schema,
                params,
                names: &mut self.names,
            };
            let required = plan
                .analysis
                .cat_constraints()
                .iter()
                .map(|c| Ok((c.equal, lower.unit_term(&c.value)?)))
                .collect::<Result<Vec<_>, CompileError>>()?;
            let rect = lower_rect(&mut lower, &plan.analysis)?;
            let outputs = match (&plan.strategy, &def.spec) {
                (AggStrategy::KdNearest, AggSpec::ArgBest { outputs, .. }) => outputs
                    .iter()
                    .map(|(name, term, _)| Ok((name.clone(), lower.row_term(term)?)))
                    .collect::<Result<Vec<_>, CompileError>>()?,
                _ => Vec::new(),
            };
            Some(Prologue {
                analysis: plan.analysis,
                required,
                rect,
                outputs,
            })
        };
        let site = Self::u16_index(self.agg_sites.len(), "aggregate call sites")?;
        self.agg_sites.push(AggSite {
            name: call.name.clone(),
            args,
            arity: params.len(),
            prologue,
        });
        let dst = self.fresh()?;
        self.instrs.push(Instr::CallAgg { dst, site });
        Ok(dst)
    }

    fn compile_perform(&mut self, name: &str, args: &[Term]) -> Result<(), CompileError> {
        let registry = self.registry;
        let def = registry
            .action(name)
            .ok_or_else(|| CompileError::Unsupported(format!("unknown action `{name}`")))?;
        let args = args
            .iter()
            .map(|a| self.compile_call_arg(a))
            .collect::<Result<Vec<_>, _>>()?;
        let params = def.params.get(1..).unwrap_or_default();
        let mut clauses = Vec::with_capacity(def.clauses.len());
        for clause in &def.clauses {
            let analysis = analyze_filter(&clause.filter, self.schema, self.spatial);
            let mut lower = Lowerer {
                registry,
                schema: self.schema,
                params,
                names: &mut self.names,
            };
            let target = if let Some(key) = &analysis.key_eq {
                ClauseTarget::Key(lower.unit_term(key)?)
            } else if analysis.conjunctive {
                match lower_rect(&mut lower, &analysis)? {
                    Some(rect) => ClauseTarget::Rect(rect),
                    None => ClauseTarget::Scan,
                }
            } else {
                ClauseTarget::Scan
            };
            let filter = lower.row_cond(&clause.filter)?;
            let effects = clause
                .effects
                .iter()
                .map(|(attr_name, term)| {
                    let code = lower.row_term(term)?;
                    Ok((lower.names.attr_id(lower.schema, attr_name)?, code))
                })
                .collect::<Result<Vec<_>, CompileError>>()?;
            clauses.push(CompiledClause {
                target,
                filter,
                effects,
            });
        }
        let site = Self::u16_index(self.perform_sites.len(), "perform call sites")?;
        self.perform_sites.push(PerformSite {
            name: def.name.clone(),
            arity: params.len(),
            args,
            clauses,
        });
        self.instrs.push(Instr::Perform { site });
        Ok(())
    }
}

/// Lower the probe rectangle of an analysis, when it bounds one.
fn lower_rect(
    lower: &mut Lowerer<'_>,
    analysis: &FilterAnalysis,
) -> Result<Option<RectCode>, CompileError> {
    let (Some(x_lo), Some(x_hi), Some(y_lo), Some(y_hi)) = (
        &analysis.x_lo,
        &analysis.x_hi,
        &analysis.y_lo,
        &analysis.y_hi,
    ) else {
        return Ok(None);
    };
    Ok(Some([
        lower.unit_term(x_lo)?,
        lower.unit_term(x_hi)?,
        lower.unit_term(y_lo)?,
        lower.unit_term(y_hi)?,
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_env::schema::paper_schema;
    use sgl_lang::builtins::paper_registry;
    use sgl_lang::normalize::normalize;
    use sgl_lang::parse_script;

    fn compiled(src: &str) -> CompiledScript {
        let registry = paper_registry();
        let schema = paper_schema();
        let script = parse_script(src).unwrap();
        let normal = normalize(&script, &registry).unwrap();
        compile_script(
            "test",
            &normal,
            &registry,
            &schema,
            SpatialAttrs::from_schema(&schema),
        )
        .unwrap()
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

    #[test]
    fn compiles_the_paper_script_shape() {
        let c = compiled(SCRIPT);
        assert_eq!(c.agg_sites.len(), 2, "{c}");
        assert_eq!(c.perform_sites.len(), 2, "{c}");
        assert!(c.instr_count() > 5);
        assert!(c.reg_count() > 0);
        // Pre-resolved call metadata: FireAt's targeted clause and the
        // MoveInDirection self-clause are both key-equality shapes.
        for site in &c.perform_sites {
            assert!(!site.clauses.is_empty());
            for clause in &site.clauses {
                assert!(matches!(clause.target, ClauseTarget::Key(_)));
                assert!(!clause.effects.is_empty());
            }
        }
        assert!(c.instrs.iter().any(|i| matches!(i, Instr::UnitKey { .. })));
        assert_eq!(c.instrs.last(), Some(&Instr::Return));
    }

    #[test]
    fn jump_targets_resolve_to_instruction_addresses() {
        let c = compiled(SCRIPT);
        let len = c.instrs.len() as u32;
        for instr in &c.instrs {
            match instr {
                Instr::Jump { target } => assert!(*target < len || *target == len - 1),
                Instr::Branch {
                    if_true, if_false, ..
                } => {
                    assert!(*if_true < len);
                    assert!(*if_false < len);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn disassembly_is_stable_and_readable() {
        let c = compiled(SCRIPT);
        let text = format!("{c}");
        assert!(text.contains("compiled script `test`"), "{text}");
        assert!(text.contains("CountEnemiesInRange"), "{text}");
        assert!(text.contains("getNearestEnemy"), "{text}");
        assert!(text.contains("perform#"), "{text}");
        assert!(text.contains("return"), "{text}");
        // Deterministic.
        assert_eq!(text, format!("{}", compiled(SCRIPT)));
    }

    #[test]
    fn named_constants_are_resolved_per_run_not_inlined() {
        let c = compiled("main(u) { perform MoveInDirection(u, _ARMOR, 0); }");
        assert_eq!(c.names.const_names, vec!["_ARMOR".to_string()]);
        assert!(c
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::NamedConst { .. })));
    }

    #[test]
    fn let_bindings_shadow_and_pop() {
        let c = compiled(
            r#"main(u) {
                (let x = 1)
                (let x = x + 1)
                perform MoveInDirection(u, x, x);
            }"#,
        );
        // Both uses of the inner `x` are the same register (no re-eval).
        let site = &c.perform_sites[0];
        assert_eq!(site.args[1], site.args[2]);
    }

    #[test]
    fn unresolved_names_and_row_refs_fail_to_compile() {
        let registry = paper_registry();
        let schema = paper_schema();
        let script = parse_script("main(u) { perform MoveInDirection(u, nope, 0); }").unwrap();
        let normal = normalize(&script, &registry).unwrap();
        let err = compile_script("t", &normal, &registry, &schema, None).unwrap_err();
        assert!(matches!(err, CompileError::Unresolved(n) if n == "nope"));

        let script = parse_script("main(u) { perform Vanish(u); }").unwrap();
        let normal = normalize(&script, &registry).unwrap();
        let err = compile_script("t", &normal, &registry, &schema, None).unwrap_err();
        assert!(matches!(err, CompileError::Unsupported(_)));
        assert!(err.to_string().contains("Vanish"));
    }

    #[test]
    fn short_circuit_conditions_lower_to_branches() {
        let c = compiled(
            r#"main(u) {
                if u.health > 0 and (u.cooldown = 0 or u.health > 10) then
                  perform Heal(u);
            }"#,
        );
        let branches = c
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Branch { .. }))
            .count();
        assert_eq!(branches, 3, "{c}");
    }
}
