//! The cross-tick index subsystem: a persistent [`IndexManager`] owning the
//! maintained structures, plus the per-tick [`TickIndexes`] probe cache.
//!
//! Mirrors the experimental setup of §6: the categorical part of each filter
//! (player, unit type) selects partitions of a hash layer; each partition
//! owns the structure required by the aggregate's strategy.  Unlike the
//! paper's engine — which hardcodes rebuild-per-tick — the structures behind
//! the hash layer are pluggable ([`sgl_index::traits`]), and each call
//! site's installed [`PhysicalChoice`](crate::PhysicalChoice) decides which
//! one answers it and how it lives across ticks:
//!
//! * **per-tick** backends (layered tree, quadtree, sweep, kD-tree) are
//!   built lazily on first use and discarded at end of tick (the paper's
//!   choice, §5.3);
//! * **maintained grids** ([`DynamicAggGrid`]) live inside the
//!   [`IndexManager`] across ticks; after each tick's post-processing and
//!   movement the engine hands the environment back and the manager applies
//!   only the per-unit deltas (diffed against its mirror of the last
//!   indexed state — the effect relation alone cannot describe collision
//!   -resolved movement), or rebuilds every touched partition wholesale
//!   under a `Rebuild` maintenance choice;
//! * **materialized answers** are patched from the same delta stream.
//!
//! Partition keys are `u64` fingerprints of the categorical `Value` vector
//! (no per-probe string building — the former `encode_values` hot path).

use rustc_hash::FxHashMap;
use std::hash::Hasher;

use sgl_env::{AttrId, EnvTable, RowRef, Value};
use sgl_index::divisible::DivAcc;
use sgl_index::grid::DynamicAggGrid;
use sgl_index::kdtree::KdTree;
use sgl_index::range_tree::RangeTree2D;
use sgl_index::sweepline::{sweep_min_max, SweepKind};
use sgl_index::traits::{build_agg_index, AggIndex, AggStructureKind, IndexDelta, IndexRow};
use sgl_index::{Point2, Rect};
use sgl_lang::ast::{Term, VarRef};
use sgl_lang::builtins::{AggSpec, SimpleAgg};
use sgl_lang::eval::{eval_term, EvalContext, NoAggregates, ScriptValue};

use sgl_algebra::cost::{MaintenanceChoice, PhysicalBackend};

use crate::config::{ExecConfig, SpatialAttrs, TickStats};
use crate::error::{ExecError, Result};
use crate::filter::FilterAnalysis;
use crate::planner::{AggStrategy, PlannedAggregate};
use crate::stats::CallObs;

// ---------------------------------------------------------------------------
// Value fingerprints (the categorical hash layer's key type)
// ---------------------------------------------------------------------------

pub(crate) fn hash_value(h: &mut rustc_hash::FxHasher, v: &Value) {
    match v {
        Value::Int(i) => {
            h.write_u8(1);
            h.write_u64(*i as u64);
        }
        Value::Float(f) => {
            h.write_u8(2);
            h.write_u64(f.to_bits());
        }
        Value::Bool(b) => {
            h.write_u8(3);
            h.write_u8(*b as u8);
        }
        Value::Str(s) => {
            h.write_u8(4);
            // Length-delimit: FxHasher zero-pads the trailing partial word,
            // so "a" and "a\0" would otherwise hash identically — and the
            // fingerprint IS the partition map key.
            h.write_usize(s.len());
            h.write(s.as_bytes());
        }
    }
}

/// Fingerprint of a categorical value vector — the partition key.
pub fn fingerprint_values(vs: &[Value]) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    for v in vs {
        hash_value(&mut h, v);
    }
    h.finish()
}

/// Strict (type- and bit-sensitive) value equality, matching the semantics
/// of the fingerprint: two values compare equal iff they fingerprint equal.
pub(crate) fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn fingerprint_attrs(attrs: &[AttrId]) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    for a in attrs {
        h.write_usize(*a);
    }
    h.finish()
}

fn fingerprint_terms(terms: &[Term]) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    h.write(format!("{terms:?}").as_bytes());
    h.finish()
}

/// A categorical constraint evaluated for one probing unit: required (or
/// forbidden) value per partition attribute, in
/// [`FilterAnalysis::cat_constraints`] order.
type RequiredValues = Vec<(bool, Value)>;

fn partition_matches(partition_values: &[Value], required: &[(bool, Value)]) -> bool {
    for (i, (equal, value)) in required.iter().enumerate() {
        let actual = &partition_values[i];
        if *equal != same_value(actual, value) {
            return false;
        }
    }
    true
}

/// Evaluate a term whose only row context is the candidate row itself
/// (channel values, categorical attribute reads).
fn eval_row_term(
    term: &Term,
    table: &EnvTable,
    row: usize,
    constants: &FxHashMap<String, Value>,
) -> Result<Value> {
    // The term must not reference `u.*`; planner guarantees this.  We still
    // need *some* unit in the context, so we use the row itself.
    let schema = table.schema();
    let tuple = table.row(row);
    let rng = sgl_env::GameRng::new(0).for_tick(0);
    let ctx = EvalContext::new(schema, tuple, &rng, constants);
    let ctx = ctx.with_row(tuple);
    let mut no_aggs = NoAggregates;
    Ok(eval_term(term, &ctx, &mut no_aggs)?.as_scalar()?.clone())
}

/// One whole attribute column as `f64`, with the same coercions as the
/// per-row `Value::as_f64` (the typed extractor rejects Bool pages, the
/// per-row read does not — fall through to the generic view for those).
fn extract_f64_column(table: &EnvTable, attr: AttrId) -> Result<Vec<f64>> {
    if let Ok(col) = table.column_f64(attr) {
        return Ok(col);
    }
    let mut out = Vec::with_capacity(table.len());
    for v in table.column_values(attr)? {
        out.push(v.as_f64()?);
    }
    Ok(out)
}

/// Evaluate a channel term for every row of the table, column-at-a-time
/// when the term is a bare `e.attr` read (the common shape for SUM/AVG/
/// MIN/MAX channels); anything more complex falls back to the per-row
/// evaluator, which builds a full evaluation context per row.
fn channel_column(
    term: &Term,
    table: &EnvTable,
    constants: &FxHashMap<String, Value>,
) -> Result<Vec<f64>> {
    if let Term::Var(VarRef::Row(name)) = term {
        if let Some(attr) = table.schema().attr_id(name) {
            return extract_f64_column(table, attr);
        }
    }
    (0..table.len())
        .map(|r| Ok(eval_row_term(term, table, r, constants)?.as_f64()?))
        .collect()
}

/// Fingerprint of a single term (the channel-column cache key).
fn fingerprint_term(term: &Term) -> u64 {
    fingerprint_terms(std::slice::from_ref(term))
}

/// Fingerprint of one unit's subscription shape: the categorical constraint
/// values plus the exact rectangle bits.  Two probes with the same
/// fingerprint ask the same question, so a materialized answer keyed by it
/// can be served verbatim.  (Same collision tradeoff as the partition
/// fingerprints above.)
fn subscription_fp(required: &[(bool, Value)], rect: Option<&Rect>) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    for (equal, v) in required {
        h.write_u8(*equal as u8);
        hash_value(&mut h, v);
    }
    match rect {
        None => h.write_u8(0),
        Some(r) => {
            h.write_u8(1);
            h.write_u64(r.x_min.to_bits());
            h.write_u64(r.x_max.to_bits());
            h.write_u64(r.y_min.to_bits());
            h.write_u64(r.y_max.to_bits());
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// The persistent manager
// ---------------------------------------------------------------------------

/// Counters of one maintenance pass (surfaced per tick by the engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Incremental delta operations applied to maintained structures.
    pub delta_ops: usize,
    /// Maintained partitions rebuilt from scratch.
    pub partition_rebuilds: usize,
    /// Rows diffed against the mirror.
    pub rows_scanned: usize,
    /// Unit keys touched by the tick's combined effect relation (a hint for
    /// correlating effect volume with delta volume; correctness never
    /// depends on it because movement mutates positions outside the effect
    /// relation).
    pub effect_hints: usize,
    /// Materialized answers patched in place from the delta stream.
    pub mat_patched: usize,
    /// Materialized answers invalidated (a supporting row left the
    /// subscription's scope, the subscriber itself changed, or the patch was
    /// not exact) — the next probe recomputes and re-materializes them.
    pub mat_invalidated: usize,
}

impl MaintStats {
    /// Accumulate another pass.
    pub fn accumulate(&mut self, other: &MaintStats) {
        self.delta_ops += other.delta_ops;
        self.partition_rebuilds += other.partition_rebuilds;
        self.rows_scanned += other.rows_scanned;
        self.effect_hints += other.effect_hints;
        self.mat_patched += other.mat_patched;
        self.mat_invalidated += other.mat_invalidated;
    }
}

/// The maintained state of one aggregate definition: one [`DynamicAggGrid`]
/// per categorical partition plus a mirror of the last indexed row states.
struct DynAggState {
    cat_attrs: Vec<AttrId>,
    channels: Vec<Term>,
    grids: FxHashMap<u64, DynamicAggGrid>,
    partition_values: FxHashMap<u64, Vec<Value>>,
    /// unit key → (partition fp, point, channel values) as last indexed.
    mirror: FxHashMap<i64, (u64, Point2, Vec<f64>)>,
}

/// How a materialized call site's folded answers can be patched from the
/// delta stream.  Decided once per site from the aggregate's spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MatPatch {
    /// Every output is COUNT: any relevant delta adjusts the support count
    /// and the answer is rebuilt exactly from it.
    Count,
    /// Every output is MIN or MAX: relevant inserts fold into the stored
    /// extremum; removing (or updating) a row whose value equals the
    /// extremum invalidates, because the remaining support is unknown.
    MinMax,
    /// Everything else (float SUM/AVG/STDDEV folds): any relevant delta
    /// invalidates — patching would replay the fold in a different order
    /// than a fresh recompute and the answer must stay bit-identical.
    Replace,
}

/// One materialized answer: the folded result of a subscription, kept
/// current by [`sync_mat_state`] until a delta it cannot patch exactly
/// arrives.
pub(crate) struct MatEntry {
    /// The categorical constraint the subscription evaluated to.
    required: RequiredValues,
    /// The subscription rectangle (`None` = whole world).
    rect: Option<Rect>,
    /// The folded answer, bit-identical to a fresh recompute.
    pub(crate) answer: ScriptValue,
    /// COUNT sites: number of supporting rows (exact patches).
    support: i64,
    /// MIN/MAX sites: per-output extremum, `None` when the answer serves a
    /// default (possibly-empty support — not insert-patchable).
    extrema: Vec<Option<f64>>,
}

/// A miss-path recompute queued by a shard for materialization.  Shards
/// probe the manager through a shared borrow, so answers travel back to the
/// absorb seam by value; absorbing is idempotent (same subscription → same
/// bits) and entries of distinct subscriptions never collide, so the merge
/// is order-independent across shard counts.
pub(crate) struct MatWrite {
    pub(crate) name: String,
    pub(crate) key: i64,
    pub(crate) sub_fp: u64,
    pub(crate) entry: MatEntry,
}

/// The materialized state of one aggregate call site: a mirror of the last
/// indexed row states (the delta source) plus the per-subscriber answers.
struct MatAggState {
    cat_attrs: Vec<AttrId>,
    channels: Vec<Term>,
    patch: MatPatch,
    /// MIN/MAX sites: per-output minimize flag.
    minimize: Vec<bool>,
    /// unit key → (categorical values, point, channel values) as last seen.
    mirror: FxHashMap<i64, (Vec<Value>, Point2, Vec<f64>)>,
    /// subscriber key → answers per subscription fingerprint.
    entries: FxHashMap<i64, Vec<(u64, MatEntry)>>,
}

/// The cross-tick owner of aggregate index structures.
///
/// Per-tick structures live only in the per-tick [`TickIndexes`].  For the
/// call sites routed to a maintained grid or a materialized answer store the
/// manager owns those structures, a mirror of the last indexed environment,
/// and the diff/patch machinery that keeps them in sync:
/// [`IndexManager::end_tick`] is called by the engine after post-processing,
/// movement and resurrection have mutated the environment.
pub struct IndexManager {
    spatial: Option<SpatialAttrs>,
    dynamic: FxHashMap<String, DynAggState>,
    /// Materialized answer stores, one per call site the planner routed to
    /// [`PhysicalBackend::Materialized`].  Deliberately absent from
    /// checkpoints: rebuilt lazily on resume, like the per-tick structures.
    materialized: FxHashMap<String, MatAggState>,
    synced: bool,
    /// Counters of the most recent maintenance pass.
    pub last_maint: MaintStats,
}

/// Whether a planned aggregate is served by a cross-tick maintained grid.
pub(crate) fn plan_is_maintained(plan: &PlannedAggregate) -> bool {
    plan.is_indexed()
        && plan
            .choice
            .as_ref()
            .is_some_and(|c| c.backend == PhysicalBackend::MaintainedGrid)
}

/// Whether a planned aggregate is served from a materialized answer store:
/// a [`PhysicalBackend::Materialized`] choice, legal only for the
/// divisible and MIN/MAX strategies: nearest/argbest answers embed output
/// terms of the winning row that can change without any delta the mirror
/// observes, so they are never materialized.
pub(crate) fn plan_is_materialized(plan: &PlannedAggregate) -> bool {
    plan.is_indexed()
        && matches!(
            &plan.strategy,
            AggStrategy::DivisibleTree { .. } | AggStrategy::SweepMinMax
        )
        && plan
            .choice
            .as_ref()
            .is_some_and(|c| c.backend == PhysicalBackend::Materialized)
}

/// The patch class of a materialized site (see [`MatPatch`]).
fn mat_patch_of(plan: &PlannedAggregate) -> MatPatch {
    match &plan.strategy {
        AggStrategy::SweepMinMax => MatPatch::MinMax,
        AggStrategy::DivisibleTree { .. } => {
            let all_count = match &plan.def.spec {
                AggSpec::Simple { outputs } => outputs.iter().all(|o| o.func == SimpleAgg::Count),
                AggSpec::ArgBest { .. } => false,
            };
            if all_count {
                MatPatch::Count
            } else {
                MatPatch::Replace
            }
        }
        _ => MatPatch::Replace,
    }
}

/// Per-output minimize flags of a MIN/MAX site (empty otherwise).
fn mat_minimize_of(plan: &PlannedAggregate) -> Vec<bool> {
    match (&plan.strategy, &plan.def.spec) {
        (AggStrategy::SweepMinMax, AggSpec::Simple { outputs }) => {
            outputs.iter().map(|o| o.func == SimpleAgg::Min).collect()
        }
        _ => Vec::new(),
    }
}

/// Whether a maintained grid rebuilds every touched partition wholesale (a
/// `Rebuild` maintenance choice: the modeled break-even was crossed) instead
/// of patching it with the per-unit deltas.
fn rebuilds_wholesale(plan: &PlannedAggregate) -> bool {
    plan.choice
        .as_ref()
        .is_some_and(|c| c.maintenance == MaintenanceChoice::Rebuild)
}

impl IndexManager {
    /// Create a manager for a configuration.
    pub fn new(config: &ExecConfig) -> IndexManager {
        IndexManager {
            spatial: config.spatial,
            dynamic: FxHashMap::default(),
            materialized: FxHashMap::default(),
            synced: false,
            last_maint: MaintStats::default(),
        }
    }

    /// Number of maintained aggregate states (0 when no call site is routed
    /// to a maintained grid).
    pub fn maintained_aggregates(&self) -> usize {
        self.dynamic.len()
    }

    /// Number of call sites with a materialized answer store.
    pub fn materialized_sites(&self) -> usize {
        self.materialized.len()
    }

    /// Number of live materialized answers across all sites.
    pub fn materialized_entries(&self) -> usize {
        self.materialized
            .values()
            .map(|s| s.entries.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Drop all maintained state (e.g. after out-of-band environment edits);
    /// the next tick rebuilds from scratch.
    pub fn invalidate(&mut self) {
        self.dynamic.clear();
        self.materialized.clear();
        self.synced = false;
    }

    /// Mark the maintained state as out of sync with the environment (the
    /// engine calls this after mutation phases that ran without a
    /// maintenance pass, and after the cost-based planner changed which
    /// call sites are maintained).  Structures are kept; the next
    /// [`IndexManager::prepare`] re-syncs them.
    pub fn mark_stale(&mut self) {
        self.synced = false;
    }

    /// Whether this plan is served by a cross-tick maintained grid.
    pub fn plan_is_maintained(&self, plan: &PlannedAggregate) -> bool {
        plan_is_maintained(plan)
    }

    /// Whether this plan is served by a materialized per-site answer store
    /// (a [`PhysicalBackend::Materialized`] choice on a strategy whose
    /// answers can be patched from deltas).  Materialized
    /// sites need the end-of-tick maintenance pass even when no grid is
    /// maintained: that pass is where the tick's deltas patch the stored
    /// answers.
    pub fn plan_is_materialized(&self, plan: &PlannedAggregate) -> bool {
        plan_is_materialized(plan)
    }

    /// Rows-per-area density measured by the live maintained grids (their
    /// own size hints), if any are alive.  The statistics collector prefers
    /// this over the bounding-box estimate: occupied cells describe where
    /// units actually are.
    pub fn density_hint(&self) -> Option<f64> {
        let mut rows = 0usize;
        let mut area = 0.0f64;
        for state in self.dynamic.values() {
            for grid in state.grids.values() {
                if let Some(d) = AggIndex::density_hint(grid) {
                    let n = AggIndex::size_hint_rows(grid);
                    rows += n;
                    area += n as f64 / d;
                }
            }
        }
        (rows > 0 && area > 0.0).then(|| rows as f64 / area)
    }

    /// Synchronize the maintained structures with the environment.  Called
    /// by the engine after the mutation phases of each tick (and lazily
    /// before execution when the state is stale).  `effect_keys` — the unit
    /// keys touched by the tick's combined effect relation — is a hint used
    /// for accounting; correctness comes from diffing against the mirror,
    /// because movement resolves collisions outside the effect relation.
    pub fn end_tick(
        &mut self,
        table: &EnvTable,
        planned: &FxHashMap<String, PlannedAggregate>,
        constants: &FxHashMap<String, Value>,
    ) -> Result<MaintStats> {
        let any_grid = planned.values().any(plan_is_maintained);
        let any_mat = planned.values().any(plan_is_materialized);
        if !any_grid && !any_mat {
            self.dynamic.clear();
            self.materialized.clear();
            self.synced = true;
            return Ok(MaintStats::default());
        }
        let mut stats = MaintStats::default();
        let Some(spatial) = self.spatial else {
            return Ok(MaintStats::default());
        };
        // Drop states for aggregates that disappeared from the registry or
        // are no longer routed to a maintained structure.
        self.dynamic
            .retain(|name, _| planned.get(name).is_some_and(plan_is_maintained));
        self.materialized
            .retain(|name, _| planned.get(name).is_some_and(plan_is_materialized));
        for (name, plan) in planned {
            if plan_is_maintained(plan) {
                let state = self
                    .dynamic
                    .entry(name.clone())
                    .or_insert_with(|| DynAggState {
                        cat_attrs: Vec::new(),
                        channels: plan.channel_terms(),
                        grids: FxHashMap::default(),
                        partition_values: FxHashMap::default(),
                        mirror: FxHashMap::default(),
                    });
                state.cat_attrs = resolve_cat_attrs(&plan.analysis, table)?;
                let rebuild = rebuilds_wholesale(plan);
                sync_state(state, table, spatial, constants, rebuild, &mut stats)?;
            }
            if plan_is_materialized(plan) {
                let state = self
                    .materialized
                    .entry(name.clone())
                    .or_insert_with(|| MatAggState {
                        cat_attrs: Vec::new(),
                        channels: plan.channel_terms(),
                        patch: MatPatch::Replace,
                        minimize: Vec::new(),
                        mirror: FxHashMap::default(),
                        entries: FxHashMap::default(),
                    });
                state.cat_attrs = resolve_cat_attrs(&plan.analysis, table)?;
                state.channels = plan.channel_terms();
                state.patch = mat_patch_of(plan);
                state.minimize = mat_minimize_of(plan);
                sync_mat_state(state, table, spatial, constants, &mut stats)?;
            }
        }
        self.synced = true;
        self.last_maint = stats;
        Ok(stats)
    }

    /// [`IndexManager::end_tick`] plus accounting of the tick's effect
    /// relation — the engine's hand-back entry point after post-processing,
    /// movement and resurrection.
    pub fn end_tick_with_effects(
        &mut self,
        table: &EnvTable,
        effects: &sgl_env::EffectBuffer,
        planned: &FxHashMap<String, PlannedAggregate>,
        constants: &FxHashMap<String, Value>,
    ) -> Result<MaintStats> {
        let mut stats = self.end_tick(table, planned, constants)?;
        stats.effect_hints = effects.len();
        self.last_maint = stats;
        Ok(stats)
    }

    /// Ensure the maintained state is usable before a tick executes; no-op
    /// when [`IndexManager::end_tick`] already synced it.
    pub fn prepare(
        &mut self,
        table: &EnvTable,
        planned: &FxHashMap<String, PlannedAggregate>,
        constants: &FxHashMap<String, Value>,
    ) -> Result<MaintStats> {
        if self.synced {
            return Ok(MaintStats::default());
        }
        self.end_tick(table, planned, constants)
    }

    fn state(&self, name: &str) -> Option<&DynAggState> {
        self.dynamic.get(name)
    }

    /// Absorb the miss-path recomputes of one tick into the materialized
    /// answer stores.  Writes are sorted before insertion so the store's
    /// layout — and therefore every later serve/patch pass — is independent
    /// of shard count and completion order.  Writes for sites that lost
    /// their store (the plan changed mid-flight) are dropped.
    pub(crate) fn absorb_materialized(&mut self, mut writes: Vec<MatWrite>) -> usize {
        if writes.is_empty() {
            return 0;
        }
        writes.sort_by(|a, b| {
            (a.name.as_str(), a.key, a.sub_fp).cmp(&(b.name.as_str(), b.key, b.sub_fp))
        });
        let mut absorbed = 0;
        for w in writes {
            let Some(state) = self.materialized.get_mut(&w.name) else {
                continue;
            };
            let slot = state.entries.entry(w.key).or_default();
            match slot.iter_mut().find(|(fp, _)| *fp == w.sub_fp) {
                // Duplicate recomputes of one subscription carry the same
                // bits; keeping the last is idempotent.
                Some((_, entry)) => *entry = w.entry,
                None => slot.push((w.sub_fp, w.entry)),
            }
            absorbed += 1;
        }
        absorbed
    }
}

fn resolve_cat_attrs(analysis: &FilterAnalysis, table: &EnvTable) -> Result<Vec<AttrId>> {
    analysis
        .cat_attr_names()
        .iter()
        .map(|n| {
            table
                .schema()
                .attr_id(n)
                .ok_or_else(|| ExecError::Internal(format!("unknown categorical attribute `{n}`")))
        })
        .collect()
}

/// Diff one aggregate's mirror against the environment and patch its
/// per-partition grids, or rebuild every touched partition when `rebuild`.
fn sync_state(
    state: &mut DynAggState,
    table: &EnvTable,
    spatial: SpatialAttrs,
    constants: &FxHashMap<String, Value>,
    rebuild: bool,
    stats: &mut MaintStats,
) -> Result<()> {
    let schema = table.schema();
    let channels = state.channels.len();
    let mut new_mirror: FxHashMap<i64, (u64, Point2, Vec<f64>)> =
        FxHashMap::with_capacity_and_hasher(table.len(), Default::default());
    let mut deltas: FxHashMap<u64, Vec<IndexDelta>> = FxHashMap::default();
    let mut part_sizes: FxHashMap<u64, usize> = FxHashMap::default();

    // The diff scan reads every cell of every indexed attribute: pull each
    // column once (one page walk apiece) and walk plain vectors, instead of
    // per-row page arithmetic on every access.
    let keys = table.column_i64(schema.key_attr())?;
    let xs = extract_f64_column(table, spatial.x)?;
    let ys = extract_f64_column(table, spatial.y)?;
    let cat_cols: Vec<Vec<Value>> = state
        .cat_attrs
        .iter()
        .map(|a| table.column_values(*a))
        .collect::<std::result::Result<_, _>>()?;
    let chan_cols: Vec<Vec<f64>> = state
        .channels
        .iter()
        .map(|c| channel_column(c, table, constants))
        .collect::<Result<_>>()?;

    for row_idx in 0..table.len() {
        let key = keys[row_idx];
        let part = {
            let mut h = rustc_hash::FxHasher::default();
            for col in &cat_cols {
                hash_value(&mut h, &col[row_idx]);
            }
            h.finish()
        };
        state
            .partition_values
            .entry(part)
            .or_insert_with(|| cat_cols.iter().map(|col| col[row_idx].clone()).collect());
        let point = Point2::new(xs[row_idx], ys[row_idx]);
        let mut chan_values = Vec::with_capacity(channels);
        for col in &chan_cols {
            chan_values.push(col[row_idx]);
        }
        *part_sizes.entry(part).or_insert(0) += 1;
        let id = key as u64;
        match state.mirror.remove(&key) {
            None => deltas.entry(part).or_default().push(IndexDelta::Insert {
                row: IndexRow::new(id, point, chan_values.clone()),
            }),
            Some((old_part, old_point, old_values)) => {
                if old_part != part {
                    deltas
                        .entry(old_part)
                        .or_default()
                        .push(IndexDelta::Remove {
                            id,
                            point: old_point,
                        });
                    deltas.entry(part).or_default().push(IndexDelta::Insert {
                        row: IndexRow::new(id, point, chan_values.clone()),
                    });
                } else if old_point != point || old_values != chan_values {
                    deltas.entry(part).or_default().push(IndexDelta::Update {
                        id,
                        old_point,
                        row: IndexRow::new(id, point, chan_values.clone()),
                    });
                }
            }
        }
        new_mirror.insert(key, (part, point, chan_values));
    }
    // Whatever is left in the old mirror vanished from the environment.
    for (key, (part, point, _)) in state.mirror.drain() {
        deltas.entry(part).or_default().push(IndexDelta::Remove {
            id: key as u64,
            point,
        });
    }
    stats.rows_scanned += table.len();

    for (part, part_deltas) in deltas {
        let size = part_sizes.get(&part).copied().unwrap_or(0);
        if size == 0 {
            // Partition emptied out entirely.
            state.grids.remove(&part);
            state.partition_values.remove(&part);
            continue;
        }
        let grid = state
            .grids
            .entry(part)
            .or_insert_with(|| DynamicAggGrid::new(0.0, channels));
        if AggIndex::is_empty(grid) || rebuild {
            // Rebuild this partition from the new mirror.
            let rows: Vec<IndexRow> = new_mirror
                .iter()
                .filter(|(_, (p, _, _))| *p == part)
                .map(|(key, (_, point, values))| IndexRow::new(*key as u64, *point, values.clone()))
                .collect();
            grid.rebuild(&rows);
            stats.partition_rebuilds += 1;
        } else {
            for delta in &part_deltas {
                grid.apply_delta(delta);
            }
            stats.delta_ops += part_deltas.len();
        }
    }
    state.mirror = new_mirror;
    Ok(())
}

/// One row's change between two materialized-mirror snapshots.
struct MatDelta {
    key: i64,
    old: Option<(Vec<Value>, Point2, Vec<f64>)>,
    new: Option<(Vec<Value>, Point2, Vec<f64>)>,
}

/// Is a row snapshot inside an entry's subscription scope?
fn mat_relevant(side: Option<&(Vec<Value>, Point2, Vec<f64>)>, entry: &MatEntry) -> bool {
    side.is_some_and(|(cats, point, _)| {
        partition_matches(cats, &entry.required)
            && entry.rect.as_ref().is_none_or(|r| r.contains(point))
    })
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Apply one tick's delta list to a materialized entry.  `Some(touched)`
/// keeps the entry (patched in place when `touched`); `None` means it
/// cannot be patched exactly and must be dropped (the next probe recomputes
/// and re-materializes it).
fn mat_patch_entry(
    entry: &mut MatEntry,
    deltas: &[MatDelta],
    patch: MatPatch,
    minimize: &[bool],
) -> Option<bool> {
    let mut touched = false;
    let mut count_touched = false;
    for d in deltas {
        let old_rel = mat_relevant(d.old.as_ref(), entry);
        let new_rel = mat_relevant(d.new.as_ref(), entry);
        if !old_rel && !new_rel {
            continue;
        }
        // A row that stayed in scope with unchanged channel values cannot
        // change the fold (positions feed membership, channels feed the
        // outputs): the common "moved within the rectangle" delta.
        if old_rel && new_rel {
            if let (Some((_, _, oc)), Some((_, _, nc))) = (&d.old, &d.new) {
                if bits_equal(oc, nc) {
                    continue;
                }
            }
        }
        touched = true;
        match patch {
            MatPatch::Replace => return None,
            MatPatch::Count => {
                entry.support += new_rel as i64 - old_rel as i64;
                count_touched = true;
            }
            MatPatch::MinMax => {
                if old_rel {
                    let (_, _, chans) = d.old.as_ref()?;
                    if !mat_minmax_removal_safe(entry, chans) {
                        return None;
                    }
                }
                if new_rel {
                    let (_, _, chans) = d.new.as_ref()?;
                    if !mat_minmax_insert(entry, chans, minimize) {
                        return None;
                    }
                }
            }
        }
    }
    if count_touched {
        if entry.support <= 0 {
            // Support drained (or the patch lost track): serve the defaults
            // through a fresh recompute instead of guessing.
            return None;
        }
        let ScriptValue::Record(fields) = &mut entry.answer else {
            return None;
        };
        for (_, v) in fields.iter_mut() {
            *v = Value::Int(entry.support);
        }
    }
    Some(touched)
}

/// Removing a row never changes a MIN/MAX answer unless the row's value
/// *is* the extremum (then the remaining support is unknown → invalidate).
/// Unknown emptiness (`None` extremum) is never removal-safe.
fn mat_minmax_removal_safe(entry: &MatEntry, chans: &[f64]) -> bool {
    entry
        .extrema
        .iter()
        .enumerate()
        .all(|(i, e)| e.is_some_and(|e| chans.get(i).is_some_and(|v| v.to_bits() != e.to_bits())))
}

/// Fold an inserted row into a MIN/MAX answer.  Bails out (→ invalidate)
/// on possibly-empty answers, NaN values, and ±0 ties whose folded bits
/// could differ from a fresh recompute.
fn mat_minmax_insert(entry: &mut MatEntry, chans: &[f64], minimize: &[bool]) -> bool {
    for (i, slot) in entry.extrema.iter_mut().enumerate() {
        let Some(e) = *slot else {
            return false;
        };
        let Some(&v) = chans.get(i) else {
            return false;
        };
        if v.is_nan() {
            return false;
        }
        let better = if minimize[i] { v < e } else { v > e };
        if better {
            *slot = Some(v);
        } else if v == e && v.to_bits() != e.to_bits() {
            return false;
        }
    }
    let ScriptValue::Record(fields) = &mut entry.answer else {
        return false;
    };
    if fields.len() != entry.extrema.len() {
        return false;
    }
    for ((_, v), e) in fields.iter_mut().zip(&entry.extrema) {
        match e {
            Some(e) => *v = Value::Float(*e),
            None => return false,
        }
    }
    true
}

/// Diff one materialized site's mirror against the environment and patch
/// (or invalidate) the stored answers from the resulting delta stream.
fn sync_mat_state(
    state: &mut MatAggState,
    table: &EnvTable,
    spatial: SpatialAttrs,
    constants: &FxHashMap<String, Value>,
    stats: &mut MaintStats,
) -> Result<()> {
    let schema = table.schema();
    let keys = table.column_i64(schema.key_attr())?;
    let xs = extract_f64_column(table, spatial.x)?;
    let ys = extract_f64_column(table, spatial.y)?;
    let cat_cols: Vec<Vec<Value>> = state
        .cat_attrs
        .iter()
        .map(|a| table.column_values(*a))
        .collect::<std::result::Result<_, _>>()?;
    let chan_cols: Vec<Vec<f64>> = state
        .channels
        .iter()
        .map(|c| channel_column(c, table, constants))
        .collect::<Result<_>>()?;

    let mut new_mirror: FxHashMap<i64, (Vec<Value>, Point2, Vec<f64>)> =
        FxHashMap::with_capacity_and_hasher(table.len(), Default::default());
    let mut deltas: Vec<MatDelta> = Vec::new();
    for row_idx in 0..table.len() {
        let key = keys[row_idx];
        let cats: Vec<Value> = cat_cols.iter().map(|c| c[row_idx].clone()).collect();
        let point = Point2::new(xs[row_idx], ys[row_idx]);
        let chans: Vec<f64> = chan_cols.iter().map(|c| c[row_idx]).collect();
        match state.mirror.remove(&key) {
            None => deltas.push(MatDelta {
                key,
                old: None,
                new: Some((cats.clone(), point, chans.clone())),
            }),
            Some(old) => {
                let same_cats = old.0.len() == cats.len()
                    && old.0.iter().zip(&cats).all(|(a, b)| same_value(a, b));
                if !same_cats || old.1 != point || !bits_equal(&old.2, &chans) {
                    deltas.push(MatDelta {
                        key,
                        old: Some(old),
                        new: Some((cats.clone(), point, chans.clone())),
                    });
                }
            }
        }
        new_mirror.insert(key, (cats, point, chans));
    }
    // Whatever is left in the old mirror vanished from the environment.
    for (key, old) in state.mirror.drain() {
        deltas.push(MatDelta {
            key,
            old: Some(old),
            new: None,
        });
    }
    state.mirror = new_mirror;
    stats.rows_scanned += table.len();

    // Subscriptions accumulate per (subscriber, fingerprint); a subscriber
    // probing with ever-changing arguments would otherwise grow the store
    // without bound (its stale fingerprints are never served again).
    let cap = 8 * (table.len() + 64);
    let mut entry_count: usize = state.entries.values().map(Vec::len).sum();
    if entry_count > cap {
        stats.mat_invalidated += entry_count;
        state.entries.clear();
        return Ok(());
    }
    if deltas.is_empty() || entry_count == 0 {
        return Ok(());
    }

    // A changed (or dead) subscriber invalidates its own answers: its probe
    // arguments may derive from any of its attributes, including some the
    // mirror does not track.
    for d in &deltas {
        if let Some(dropped) = state.entries.remove(&d.key) {
            stats.mat_invalidated += dropped.len();
            entry_count -= dropped.len();
        }
    }

    // Mass-invalidation guard: when the patch pass would cost more than the
    // recomputes it saves, drop everything and let the misses rebuild.
    if deltas.len().saturating_mul(entry_count) > 256 * (table.len() + 64) {
        stats.mat_invalidated += entry_count;
        state.entries.clear();
        return Ok(());
    }

    let patch = state.patch;
    let minimize = &state.minimize;
    for entries in state.entries.values_mut() {
        entries.retain_mut(
            |(_, entry)| match mat_patch_entry(entry, &deltas, patch, minimize) {
                Some(touched) => {
                    stats.mat_patched += touched as usize;
                    true
                }
                None => {
                    stats.mat_invalidated += 1;
                    false
                }
            },
        );
    }
    state.entries.retain(|_, v| !v.is_empty());
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-tick probe cache
// ---------------------------------------------------------------------------

/// The backend label a per-tick structure kind reports to the statistics
/// collector (the *executed* choice surfaced in `explain`).
fn served_backend_of(kind: AggStructureKind) -> PhysicalBackend {
    match kind {
        AggStructureKind::LayeredTree { .. } => PhysicalBackend::LayeredTree,
        AggStructureKind::QuadTree { .. } => PhysicalBackend::QuadTree,
        AggStructureKind::DynamicGrid { .. } => PhysicalBackend::MaintainedGrid,
    }
}

/// A categorical partition of the environment.
struct Partition {
    /// Fingerprint of `values` (the hash layer's key).
    fp: u64,
    values: Vec<Value>,
    rows: Vec<u32>,
}

/// The partitions of the environment under one categorical signature, in
/// ascending fingerprint order — the deterministic probe and fold order.
struct PartitionSet {
    /// Fingerprint of the signature's attribute ids.
    sig: u64,
    parts: Vec<Partition>,
}

/// The query-dependent arguments of one probe.  The *caller* evaluates them
/// for the probing unit — the call site's closed code in the bytecode VM —
/// so the probe itself costs what its structure costs.
pub(crate) struct ProbeArgs<'p> {
    /// The probe rectangle (`None` when the filter bounds none).
    pub(crate) rect: Option<Rect>,
    /// `(equal, value)` per categorical constraint, in
    /// [`FilterAnalysis::cat_constraints`] order.
    pub(crate) required: &'p [(bool, Value)],
}

/// What [`TickIndexes::probe`] left in its output value.
pub(crate) enum Probed {
    /// The complete answer.
    Answer,
    /// An `ArgBest` probe found this winning row: the caller evaluates the
    /// definition's output terms on it (with its own evaluator).  Without a
    /// winner the probe writes the defaults and reports [`Probed::Answer`].
    Winner(usize),
}

/// Keys into the per-tick (rebuild-side) structure caches of one call site,
/// resolved on the first probe that needs them.
struct PerTickKeys {
    /// Index of the site's [`PartitionSet`].
    part_set: usize,
    /// The channel terms its structures carry.
    channels: Vec<Term>,
    /// Fingerprint of `channels` (aggregate-structure cache key).
    chan_fp: u64,
    /// Fingerprint of each channel term (sweep cache key per output).
    channel_fps: Vec<u64>,
}

/// Distinct `required` vectors whose matching grid list a site caches
/// (beyond that — constraints on a high-cardinality value — probes filter
/// into scratch instead of growing the cache).
const MATCHING_CACHE_CAP: usize = 8;

/// One call site's index-side state for a run: everything that is fixed
/// while only the probing unit varies, looked up once instead of per probe.
pub(crate) struct ProbeSite<'a> {
    /// The maintained grids serving the site, if any.
    maintained: Option<&'a DynAggState>,
    /// Whether the site serves from a materialized answer store.
    materialized: bool,
    /// That store (absent until the first maintenance pass creates it).
    mat_state: Option<&'a MatAggState>,
    /// Sorted matching grid fingerprints per distinct `required` vector
    /// (two in a two-player battle).
    matching: Vec<(RequiredValues, Vec<u64>)>,
    per_tick: Option<PerTickKeys>,
    /// The planner observations of this site's probes; the owner folds them
    /// into its [`TickObservations`](crate::stats::TickObservations) when the run ends.
    pub(crate) obs: CallObs,
}

/// Writes a record answer into an existing `ScriptValue`, keeping the
/// field-name strings (and the vector) of a previous answer with the same
/// layout — the per-unit case, since a call site's destination register
/// always receives the same record shape.
pub(crate) struct RecordOut<'o> {
    out: &'o mut ScriptValue,
    next: usize,
}

impl<'o> RecordOut<'o> {
    pub(crate) fn begin(out: &'o mut ScriptValue, len: usize) -> RecordOut<'o> {
        if !matches!(out, ScriptValue::Record(_)) {
            *out = ScriptValue::Record(Vec::with_capacity(len));
        }
        RecordOut { out, next: 0 }
    }

    pub(crate) fn put(&mut self, name: &str, value: Value) {
        if let ScriptValue::Record(fields) = self.out {
            match fields.get_mut(self.next) {
                Some((n, v)) if n == name => *v = value,
                _ => {
                    fields.truncate(self.next);
                    fields.push((name.to_string(), value));
                }
            }
            self.next += 1;
        }
    }

    pub(crate) fn finish(self) {
        if let ScriptValue::Record(fields) = self.out {
            fields.truncate(self.next);
        }
    }
}

/// Copy a stored answer into `out` (field names reused, see [`RecordOut`]).
fn copy_answer(answer: &ScriptValue, out: &mut ScriptValue) {
    match answer {
        ScriptValue::Record(fields) => {
            let mut rec = RecordOut::begin(out, fields.len());
            for (name, value) in fields {
                rec.put(name, value.clone());
            }
            rec.finish();
        }
        ScriptValue::Scalar(_) => *out = answer.clone(),
    }
}

fn fold_extremum(best: &mut Option<f64>, value: f64, minimize: bool) {
    *best = Some(match *best {
        None => value,
        Some(b) if minimize => b.min(value),
        Some(b) => b.max(value),
    });
}

/// The per-tick cache of index structures (the per-tick side of the
/// maintenance spectrum), layered over the persistent [`IndexManager`] (the
/// maintained side).  Structures are built lazily on first use and discarded
/// when the tick's `TickIndexes` is dropped.
pub struct TickIndexes<'a> {
    manager: &'a IndexManager,
    table: &'a EnvTable,
    spatial: SpatialAttrs,
    config: &'a ExecConfig,
    constants: &'a FxHashMap<String, Value>,
    /// One partition set per categorical signature seen this tick.
    part_sets: Vec<PartitionSet>,
    /// (sig fp, partition fp, channel fp) → aggregate structure.
    agg_structs: FxHashMap<(u64, u64, u64), Box<dyn AggIndex + Send>>,
    /// (sig fp, partition fp) → (kD-tree, row ids in tree order).
    kd_trees: FxHashMap<(u64, u64), (KdTree, Vec<u32>)>,
    /// (sig fp, partition fp) → (enumeration range tree, row ids).
    enum_trees: FxHashMap<(u64, u64), (RangeTree2D, Vec<u32>)>,
    /// sweep fingerprint → per-row best (value, row id) results.
    sweeps: FxHashMap<u64, Vec<Option<(f64, u32)>>>,
    /// Statistics.
    pub stats: TickStats,
    /// Lazily extracted position columns: one page walk per tick the first
    /// time a structure build or sweep batch needs points, then every
    /// subsequent point read is a plain vector index.
    positions: Option<(Vec<f64>, Vec<f64>)>,
    /// Lazily extracted key column (kD-tree tie-break ordering and
    /// nearest-hit key lookups).
    keys: Option<Vec<i64>>,
    /// Channel terms evaluated column-at-a-time, keyed by term fingerprint
    /// — shared across the partitions of one tick so a multi-partition
    /// build still evaluates each term once per row.
    chan_cols: FxHashMap<u64, Vec<f64>>,
    /// Scratch: matching grid fingerprints of a probe whose constraint
    /// values overflowed the site's cache.
    fps_scratch: Vec<u64>,
    /// Scratch: the running accumulator of the current divisible probe.
    probe_acc: DivAcc,
    /// Scratch: one grid's partial accumulator within a probe (kept separate
    /// from `probe_acc` so the merge order — per-grid partial, then merge —
    /// is bit-identical to building a fresh accumulator per grid).
    part_acc: DivAcc,
    /// Miss-path recomputes of materialized sites, queued for
    /// [`IndexManager::absorb_materialized`] once the executor regains the
    /// mutable manager borrow after the shards join.
    mat_writes: Vec<MatWrite>,
}

impl IndexManager {
    /// Open a per-tick probe cache through a shared borrow — the executor's
    /// entry point, where several shards may probe one manager concurrently.
    /// Maintained state must already be in sync ([`IndexManager::prepare`] /
    /// [`IndexManager::end_tick`]); this never mutates the manager.
    pub fn tick_view<'a>(
        &'a self,
        table: &'a EnvTable,
        config: &'a ExecConfig,
        constants: &'a FxHashMap<String, Value>,
    ) -> Result<Option<TickIndexes<'a>>> {
        let Some(spatial) = config.spatial else {
            return Ok(None);
        };
        if !self.synced && (!self.dynamic.is_empty() || !self.materialized.is_empty()) {
            return Err(ExecError::Internal(
                "tick_view on an unsynced manager (call prepare/end_tick first)".into(),
            ));
        }
        Ok(Some(TickIndexes {
            manager: self,
            table,
            spatial,
            config,
            constants,
            part_sets: Vec::new(),
            agg_structs: FxHashMap::default(),
            kd_trees: FxHashMap::default(),
            enum_trees: FxHashMap::default(),
            sweeps: FxHashMap::default(),
            stats: TickStats::default(),
            positions: None,
            keys: None,
            chan_cols: FxHashMap::default(),
            fps_scratch: Vec::new(),
            probe_acc: DivAcc::identity(0),
            part_acc: DivAcc::identity(0),
            mat_writes: Vec::new(),
        }))
    }
}

fn positions_of(positions: &Option<(Vec<f64>, Vec<f64>)>) -> Result<(&[f64], &[f64])> {
    positions
        .as_ref()
        .map(|(xs, ys)| (xs.as_slice(), ys.as_slice()))
        .ok_or_else(|| ExecError::Internal("positions vanished after ensure".into()))
}

impl<'a> TickIndexes<'a> {
    /// Extract the position columns once per tick (plain indexing after).
    fn ensure_positions(&mut self) -> Result<()> {
        if self.positions.is_none() {
            self.positions = Some((
                extract_f64_column(self.table, self.spatial.x)?,
                extract_f64_column(self.table, self.spatial.y)?,
            ));
        }
        Ok(())
    }

    /// Extract the key column once per tick.
    fn ensure_keys(&mut self) -> Result<()> {
        if self.keys.is_none() {
            self.keys = Some(self.table.column_i64(self.table.schema().key_attr())?);
        }
        Ok(())
    }

    /// Evaluate (and cache) a channel term's per-row values under its
    /// fingerprint.
    fn ensure_chan_col(&mut self, term: &Term, fp: u64) -> Result<()> {
        if !self.chan_cols.contains_key(&fp) {
            let col = channel_column(term, self.table, self.constants)?;
            self.chan_cols.insert(fp, col);
        }
        Ok(())
    }

    /// Ensure the partition set for a set of categorical attributes exists;
    /// returns its index in `part_sets`.
    fn ensure_partitions(&mut self, cat_attrs: &[AttrId]) -> Result<usize> {
        let sig = fingerprint_attrs(cat_attrs);
        if let Some(idx) = self.part_sets.iter().position(|s| s.sig == sig) {
            return Ok(idx);
        }
        // One page walk per categorical column, then fingerprint from the
        // extracted vectors — the per-row value vector is only materialised
        // the first time a partition appears.
        let cat_cols: Vec<Vec<Value>> = cat_attrs
            .iter()
            .map(|a| self.table.column_values(*a))
            .collect::<std::result::Result<_, _>>()?;
        let mut slots: FxHashMap<u64, usize> = FxHashMap::default();
        let mut parts: Vec<Partition> = Vec::new();
        for idx in 0..self.table.len() {
            let mut h = rustc_hash::FxHasher::default();
            for col in &cat_cols {
                hash_value(&mut h, &col[idx]);
            }
            let fp = h.finish();
            let slot = *slots.entry(fp).or_insert_with(|| {
                parts.push(Partition {
                    fp,
                    values: cat_cols.iter().map(|col| col[idx].clone()).collect(),
                    rows: Vec::new(),
                });
                parts.len() - 1
            });
            parts[slot].rows.push(idx as u32);
        }
        parts.sort_unstable_by_key(|p| p.fp);
        self.part_sets.push(PartitionSet { sig, parts });
        Ok(self.part_sets.len() - 1)
    }

    /// The maintained state for an aggregate, when its choice keeps one.
    fn maintained(&self, plan: &PlannedAggregate) -> Option<&'a DynAggState> {
        if plan_is_maintained(plan) {
            self.manager.state(&plan.def.name)
        } else {
            None
        }
    }

    /// The sorted fingerprints of the maintained grids whose partitions
    /// match `required`: cached per distinct constraint vector, so a probe
    /// neither filters nor sorts.
    fn matching_fps<'s>(
        cache: &'s mut Vec<(RequiredValues, Vec<u64>)>,
        scratch: &'s mut Vec<u64>,
        state: &DynAggState,
        required: &[(bool, Value)],
    ) -> &'s [u64] {
        let same = |cached: &RequiredValues| {
            cached.len() == required.len()
                && cached
                    .iter()
                    .zip(required)
                    .all(|((e1, v1), (e2, v2))| e1 == e2 && same_value(v1, v2))
        };
        if let Some(hit) = cache.iter().position(|(r, _)| same(r)) {
            return &cache[hit].1;
        }
        let fill = |fps: &mut Vec<u64>| {
            fps.clear();
            fps.extend(state.grids.keys().copied().filter(|fp| {
                state
                    .partition_values
                    .get(fp)
                    .is_some_and(|values| partition_matches(values, required))
            }));
            fps.sort_unstable();
        };
        if cache.len() < MATCHING_CACHE_CAP {
            let mut fps = Vec::new();
            fill(&mut fps);
            cache.push((required.to_vec(), fps));
            let last = cache.len() - 1;
            &cache[last].1
        } else {
            fill(scratch);
            scratch
        }
    }

    /// Resolve the site's keys into the per-tick structure caches.
    fn ensure_per_tick<'s>(
        &mut self,
        site: &'s mut ProbeSite<'a>,
        planned: &PlannedAggregate,
    ) -> Result<&'s PerTickKeys> {
        if site.per_tick.is_none() {
            let cat_attrs = resolve_cat_attrs(&planned.analysis, self.table)?;
            let part_set = self.ensure_partitions(&cat_attrs)?;
            let channels = planned.channel_terms();
            site.per_tick = Some(PerTickKeys {
                part_set,
                chan_fp: fingerprint_terms(&channels),
                channel_fps: channels.iter().map(fingerprint_term).collect(),
                channels,
            });
        }
        site.per_tick
            .as_ref()
            .ok_or_else(|| ExecError::Internal("per-tick keys vanished after ensure".into()))
    }

    /// Ensure the aggregate structure of one partition exists; returns its
    /// cache key.
    fn ensure_agg_struct(
        &mut self,
        kind: AggStructureKind,
        keys: &PerTickKeys,
        part: usize,
    ) -> Result<(u64, u64, u64)> {
        let set = &self.part_sets[keys.part_set];
        let key = (set.sig, set.parts[part].fp, keys.chan_fp);
        if self.agg_structs.contains_key(&key) {
            return Ok(key);
        }
        for (term, fp) in keys.channels.iter().zip(&keys.channel_fps) {
            self.ensure_chan_col(term, *fp)?;
        }
        self.ensure_positions()?;
        let (xs, ys) = positions_of(&self.positions)?;
        let index_rows: Vec<IndexRow> = self.part_sets[keys.part_set].parts[part]
            .rows
            .iter()
            .map(|&r| {
                let r = r as usize;
                let values: Vec<f64> = keys
                    .channel_fps
                    .iter()
                    .map(|fp| self.chan_cols[fp][r])
                    .collect();
                IndexRow::new(r as u64, Point2::new(xs[r], ys[r]), values)
            })
            .collect();
        self.stats.indexes_built += 1;
        self.agg_structs
            .insert(key, build_agg_index(kind, keys.channels.len(), &index_rows));
        Ok(key)
    }

    fn ensure_kd_tree(&mut self, part_set: usize, part: usize) -> Result<(u64, u64)> {
        let set = &self.part_sets[part_set];
        let key = (set.sig, set.parts[part].fp);
        if self.kd_trees.contains_key(&key) {
            return Ok(key);
        }
        // Local ids in ascending key order: the kD-tree breaks exact
        // distance ties toward the smallest local id, which this ordering
        // turns into the reference "smallest key wins" rule.  Keys are
        // unique, so the unstable sort is deterministic.
        self.ensure_keys()?;
        self.ensure_positions()?;
        let mut rows = self.part_sets[part_set].parts[part].rows.clone();
        let keys = self
            .keys
            .as_ref()
            .ok_or_else(|| ExecError::Internal("keys vanished after ensure".into()))?;
        rows.sort_unstable_by_key(|r| keys[*r as usize]);
        let (xs, ys) = positions_of(&self.positions)?;
        let points: Vec<Point2> = rows
            .iter()
            .map(|&r| Point2::new(xs[r as usize], ys[r as usize]))
            .collect();
        self.stats.indexes_built += 1;
        self.kd_trees.insert(key, (KdTree::build(&points), rows));
        Ok(key)
    }

    /// Ensure an enumeration range tree over a partition (used for indexed
    /// area-of-effect actions, §5.4).
    pub fn ensure_enum_tree(&mut self, cat_attrs: &[AttrId], part_fp: u64) -> Result<(u64, u64)> {
        let set = self.ensure_partitions(cat_attrs)?;
        let key = (self.part_sets[set].sig, part_fp);
        if !self.enum_trees.contains_key(&key) {
            self.ensure_positions()?;
            let (xs, ys) = positions_of(&self.positions)?;
            let rows: Vec<u32> = self.part_sets[set]
                .parts
                .iter()
                .find(|p| p.fp == part_fp)
                .map(|p| p.rows.clone())
                .unwrap_or_default();
            let points: Vec<Point2> = rows
                .iter()
                .map(|&r| Point2::new(xs[r as usize], ys[r as usize]))
                .collect();
            self.stats.indexes_built += 1;
            self.enum_trees
                .insert(key, (RangeTree2D::build(&points), rows));
        }
        Ok(key)
    }

    /// Enumerate the row ids of a partition falling inside a rectangle.
    pub fn enum_query(
        &mut self,
        cat_attrs: &[AttrId],
        part_fp: u64,
        rect: &Rect,
    ) -> Result<Vec<u32>> {
        let key = self.ensure_enum_tree(cat_attrs, part_fp)?;
        let (tree, rows) = self
            .enum_trees
            .get(&key)
            .ok_or_else(|| ExecError::Internal("enumeration tree vanished after ensure".into()))?;
        self.stats.enum_probes += 1;
        Ok(tree
            .query(rect)
            .into_iter()
            .map(|i| rows[i as usize])
            .collect())
    }

    /// Partition fingerprints for a categorical signature (building the
    /// partition set first), in the deterministic ascending order.
    pub fn partition_fps_for(&mut self, cat_attrs: &[AttrId]) -> Result<Vec<u64>> {
        let set = self.ensure_partitions(cat_attrs)?;
        Ok(self.part_sets[set].parts.iter().map(|p| p.fp).collect())
    }

    /// Open the per-run probe state of a call site.  `None` when the site
    /// is answered by the caller's scan (a `Scan` strategy or a `Scan`
    /// choice: identical results, no structure built).  An indexable site
    /// with no installed choice is a cost-based plan that was never priced
    /// ([`crate::choose_physical`]) — an error, not a silent O(n²) scan.
    pub(crate) fn open_site(&self, planned: &PlannedAggregate) -> Result<Option<ProbeSite<'a>>> {
        if !planned.is_indexed() {
            return Ok(None);
        }
        let Some(choice) = &planned.choice else {
            return Err(ExecError::Config(format!(
                "call site `{}` has no physical choice: price a cost-based plan before running it",
                planned.def.name
            )));
        };
        if choice.backend == PhysicalBackend::Scan {
            return Ok(None);
        }
        let materialized = plan_is_materialized(planned);
        Ok(Some(ProbeSite {
            maintained: self.maintained(planned),
            materialized,
            mat_state: if materialized {
                self.manager.materialized.get(&planned.def.name)
            } else {
                None
            },
            matching: Vec::new(),
            per_tick: None,
            obs: CallObs::default(),
        }))
    }

    /// Answer one probe of an open call site into `out` — the one probe
    /// implementation behind the VM's `CallAgg`.
    pub(crate) fn probe(
        &mut self,
        planned: &PlannedAggregate,
        site: &mut ProbeSite<'a>,
        unit: RowRef<'_>,
        unit_key: i64,
        args: &ProbeArgs<'_>,
        out: &mut ScriptValue,
    ) -> Result<Probed> {
        if site.materialized {
            self.eval_materialized(planned, site, unit, unit_key, args, out)?;
            return Ok(Probed::Answer);
        }
        match &planned.strategy {
            AggStrategy::Scan => Err(ExecError::Internal(
                "index probe on a scan-only call site".into(),
            )),
            AggStrategy::DivisibleTree {
                channels,
                output_channels,
            } => {
                self.eval_divisible(planned, site, channels.len(), output_channels, args, out)?;
                Ok(Probed::Answer)
            }
            AggStrategy::KdNearest => self.eval_nearest(planned, site, unit, args, out),
            AggStrategy::SweepMinMax => {
                self.eval_min_max(planned, site, unit, unit_key, args, out)?;
                Ok(Probed::Answer)
            }
        }
    }

    /// Take the tick's queued materialized writes (the absorb seam).
    pub(crate) fn take_mat_writes(&mut self) -> Vec<MatWrite> {
        std::mem::take(&mut self.mat_writes)
    }

    /// Serve a materialized call site: answer from the store when the
    /// subscription is live, otherwise recompute through the per-tick
    /// structure path and queue the answer for materialization.
    fn eval_materialized(
        &mut self,
        planned: &PlannedAggregate,
        site: &mut ProbeSite<'a>,
        unit: RowRef<'_>,
        unit_key: i64,
        args: &ProbeArgs<'_>,
        out: &mut ScriptValue,
    ) -> Result<()> {
        let sub_fp = subscription_fp(args.required, args.rect.as_ref());
        let live = site
            .mat_state
            .and_then(|state| state.entries.get(&unit_key))
            .and_then(|subs| subs.iter().find(|(fp, _)| *fp == sub_fp));
        if let Some((_, entry)) = live {
            self.stats.index_probes += 1;
            self.stats.materialized_serves += 1;
            site.obs.add_served(PhysicalBackend::Materialized);
            copy_answer(&entry.answer, out);
            return Ok(());
        }
        let (support, extrema) = match &planned.strategy {
            AggStrategy::DivisibleTree {
                channels,
                output_channels,
            } => {
                self.eval_divisible(planned, site, channels.len(), output_channels, args, out)?;
                // `probe_acc` still holds this probe's fold.
                (self.probe_acc.count() as i64, Vec::new())
            }
            AggStrategy::SweepMinMax => {
                self.eval_min_max(planned, site, unit, unit_key, args, out)?;
                let outputs = match &planned.def.spec {
                    AggSpec::Simple { outputs } => outputs,
                    AggSpec::ArgBest { .. } => {
                        return Err(ExecError::Internal(
                            "min/max strategy on an ArgBest aggregate".into(),
                        ))
                    }
                };
                // A field bitwise-equal to its default cannot be told apart
                // from an empty answer: mark it not insert-patchable.
                let extrema: Vec<Option<f64>> = match &*out {
                    ScriptValue::Record(fields) => outputs
                        .iter()
                        .zip(fields)
                        .map(|(o, (_, v))| match v {
                            Value::Float(x) if !same_value(v, &o.default) => Some(*x),
                            _ => None,
                        })
                        .collect(),
                    _ => return Err(ExecError::Internal("min/max answer is not a record".into())),
                };
                (0, extrema)
            }
            _ => {
                return Err(ExecError::Internal(
                    "materialized choice on a non-materializable strategy".into(),
                ))
            }
        };
        self.mat_writes.push(MatWrite {
            name: planned.def.name.clone(),
            key: unit_key,
            sub_fp,
            entry: MatEntry {
                required: args.required.to_vec(),
                rect: args.rect,
                answer: out.clone(),
                support,
                extrema,
            },
        });
        Ok(())
    }

    fn eval_divisible(
        &mut self,
        planned: &PlannedAggregate,
        site: &mut ProbeSite<'a>,
        channels: usize,
        output_channels: &[Option<usize>],
        args: &ProbeArgs<'_>,
        out: &mut ScriptValue,
    ) -> Result<()> {
        let rect = args.rect.unwrap_or(Rect::new(
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
        ));
        self.probe_acc.reset(channels);

        let (partitions, backend);
        if let Some(state) = site.maintained {
            let fps = Self::matching_fps(
                &mut site.matching,
                &mut self.fps_scratch,
                state,
                args.required,
            );
            for fp in fps {
                let Some(grid) = state.grids.get(fp) else {
                    continue;
                };
                self.part_acc.reset(channels);
                grid.probe_rect_into(&rect, &mut self.part_acc);
                self.probe_acc.merge(&self.part_acc);
            }
            self.stats.maintained_probes += 1;
            partitions = state.grids.len();
            backend = PhysicalBackend::MaintainedGrid;
        } else {
            let kind = planned.structure(self.config).ok_or_else(|| {
                ExecError::Internal("divisible strategy without a structure".into())
            })?;
            let keys = self.ensure_per_tick(site, planned)?;
            partitions = self.part_sets[keys.part_set].parts.len();
            for part in 0..partitions {
                if !partition_matches(
                    &self.part_sets[keys.part_set].parts[part].values,
                    args.required,
                ) {
                    continue;
                }
                let key = self.ensure_agg_struct(kind, keys, part)?;
                let index = self.agg_structs.get(&key).ok_or_else(|| {
                    ExecError::Internal("aggregate structure vanished after ensure".into())
                })?;
                let partial = index.probe_rect(&rect);
                self.probe_acc.merge(&partial);
            }
            backend = served_backend_of(kind);
        }
        self.stats.index_probes += 1;
        let acc = &self.probe_acc;
        let rect_area = (rect.x_max - rect.x_min) * (rect.y_max - rect.y_min);
        site.obs
            .add_index_probe(partitions, backend, acc.count().max(0.0) as u64, rect_area);

        let outputs = match &planned.def.spec {
            AggSpec::Simple { outputs } => outputs,
            AggSpec::ArgBest { .. } => {
                return Err(ExecError::Internal(
                    "divisible strategy on an ArgBest aggregate".into(),
                ))
            }
        };
        let mut rec = RecordOut::begin(out, outputs.len());
        for (o, chan) in outputs.iter().zip(output_channels) {
            let value = if acc.count() == 0.0 {
                o.default.clone()
            } else {
                match (o.func, chan) {
                    (SimpleAgg::Count, _) => Value::Int(acc.count() as i64),
                    (SimpleAgg::Sum, Some(c)) => Value::Float(acc.channel_sum(*c)),
                    (SimpleAgg::Avg, Some(c)) => Value::Float(acc.mean(*c).unwrap_or(0.0)),
                    (SimpleAgg::StdDev, Some(c)) => Value::Float(acc.std_dev(*c).unwrap_or(0.0)),
                    _ => {
                        return Err(ExecError::Internal(format!(
                            "unsupported divisible output {:?}",
                            o.func
                        )))
                    }
                }
            };
            rec.put(&o.name, value);
        }
        rec.finish();
        Ok(())
    }

    fn eval_nearest(
        &mut self,
        planned: &PlannedAggregate,
        site: &mut ProbeSite<'a>,
        unit: RowRef<'_>,
        args: &ProbeArgs<'_>,
        out: &mut ScriptValue,
    ) -> Result<Probed> {
        let query = Point2::new(
            unit.get_f64(self.spatial.x).map_err(ExecError::from)?,
            unit.get_f64(self.spatial.y).map_err(ExecError::from)?,
        );
        // Best candidate as (squared distance, unit key).  Across
        // partitions/grids, exact ties prefer the smaller key — the same
        // rule the structures apply internally and the scan reference uses,
        // so argmin over duplicated positions never depends on which
        // partition is probed first.
        let mut best: Option<(f64, i64)> = None;
        let offer = |best: &mut Option<(f64, i64)>, d2: f64, key: i64| {
            if best.is_none_or(|(bd, bkey)| d2 < bd || (d2 == bd && key < bkey)) {
                *best = Some((d2, key));
            }
        };

        if let Some(state) = site.maintained {
            use sgl_index::traits::SpatialIndex;
            let fps = Self::matching_fps(
                &mut site.matching,
                &mut self.fps_scratch,
                state,
                args.required,
            );
            for fp in fps {
                let Some(grid) = state.grids.get(fp) else {
                    continue;
                };
                if let Some((id, d2)) = grid.probe_nearest(&query) {
                    offer(&mut best, d2, id as i64);
                }
            }
            self.stats.maintained_probes += 1;
            site.obs
                .add_partitioned_serve(state.grids.len(), PhysicalBackend::MaintainedGrid);
        } else {
            site.obs.add_served(PhysicalBackend::KdTree);
            let part_set = self.ensure_per_tick(site, planned)?.part_set;
            for part in 0..self.part_sets[part_set].parts.len() {
                if !partition_matches(&self.part_sets[part_set].parts[part].values, args.required) {
                    continue;
                }
                let key = self.ensure_kd_tree(part_set, part)?;
                let (tree, rows) = self
                    .kd_trees
                    .get(&key)
                    .ok_or_else(|| ExecError::Internal("kd-tree vanished after ensure".into()))?;
                if let Some((local_id, d2)) = tree.nearest(&query) {
                    let row = rows[local_id as usize] as usize;
                    // The key column was extracted when the tree was built.
                    let key = match &self.keys {
                        Some(keys) => keys[row],
                        None => self.table.row(row).key(self.table.schema()),
                    };
                    offer(&mut best, d2, key);
                }
            }
        }
        self.stats.index_probes += 1;
        let outputs = match &planned.def.spec {
            AggSpec::ArgBest { outputs, .. } => outputs,
            AggSpec::Simple { .. } => {
                return Err(ExecError::Internal(
                    "nearest strategy on a Simple aggregate".into(),
                ))
            }
        };
        match best {
            Some((_, key)) => {
                let row = self.table.find_key_readonly(key).ok_or_else(|| {
                    ExecError::Internal("nearest hit vanished from the table".into())
                })?;
                Ok(Probed::Winner(row))
            }
            None => {
                let mut rec = RecordOut::begin(out, outputs.len());
                for (name, _, default) in outputs {
                    rec.put(name, default.clone());
                }
                rec.finish();
                Ok(Probed::Answer)
            }
        }
    }

    /// MIN/MAX aggregates: maintained grids answer them directly; under a
    /// per-tick choice the sweep-line batch of Figure 9 answers them when the
    /// probe rectangle is centred on the unit (the `u.pos ± range` pattern),
    /// and a per-partition quadtree answers the remaining shapes.
    fn eval_min_max(
        &mut self,
        planned: &PlannedAggregate,
        site: &mut ProbeSite<'a>,
        unit: RowRef<'_>,
        unit_key: i64,
        args: &ProbeArgs<'_>,
        out: &mut ScriptValue,
    ) -> Result<()> {
        let outputs = match &planned.def.spec {
            AggSpec::Simple { outputs } => outputs,
            AggSpec::ArgBest { .. } => {
                return Err(ExecError::Internal(
                    "min/max strategy on an ArgBest aggregate".into(),
                ))
            }
        };
        let rect = args
            .rect
            .ok_or_else(|| ExecError::Internal("min/max strategy requires a rectangle".into()))?;
        let required = args.required;

        site.obs
            .add_rect_area((rect.x_max - rect.x_min) * (rect.y_max - rect.y_min));
        if let Some(state) = site.maintained {
            site.obs
                .add_partitioned_serve(state.grids.len(), PhysicalBackend::MaintainedGrid);
            let fps =
                Self::matching_fps(&mut site.matching, &mut self.fps_scratch, state, required);
            let mut rec = RecordOut::begin(out, outputs.len());
            for (channel, o) in outputs.iter().enumerate() {
                let minimize = o.func == SimpleAgg::Min;
                let mut best: Option<f64> = None;
                for fp in fps {
                    let Some(grid) = state.grids.get(fp) else {
                        continue;
                    };
                    if let Some(e) = grid.probe_extremum(&rect, channel, minimize) {
                        fold_extremum(&mut best, e.value, minimize);
                    }
                }
                rec.put(
                    &o.name,
                    best.map_or_else(|| o.default.clone(), Value::Float),
                );
            }
            rec.finish();
            self.stats.maintained_probes += 1;
            self.stats.index_probes += 1;
            return Ok(());
        }

        let unit_x = unit.get_f64(self.spatial.x).map_err(ExecError::from)?;
        let unit_y = unit.get_f64(self.spatial.y).map_err(ExecError::from)?;
        let rx = ((rect.x_max - rect.x_min) / 2.0).abs();
        let ry = ((rect.y_max - rect.y_min) / 2.0).abs();
        // The sweep batch assumes the rectangle is centred on the unit (true
        // for the `u.pos ± range` filters); otherwise probe per-partition
        // quadtrees instead.
        let centred =
            (rect.x_min + rx - unit_x).abs() <= 1e-9 && (rect.y_min + ry - unit_y).abs() <= 1e-9;
        // A quadtree choice skips the sweep batch even for centred probes
        // (same results, different cost profile).  Misses of a materialized
        // site take the quadtree too: on a low-churn tick only a few probes
        // miss, and a whole-batch sweep would be priced for all of them.
        let quad_chosen = planned.choice.as_ref().is_some_and(|c| {
            matches!(
                c.backend,
                PhysicalBackend::QuadTree | PhysicalBackend::Materialized
            )
        });
        if !centred || quad_chosen {
            site.obs.add_served(PhysicalBackend::QuadTree);
            return self.eval_min_max_quadtree(planned, site, outputs, &rect, required, out);
        }
        site.obs.add_served(PhysicalBackend::Sweep);
        let keys = self.ensure_per_tick(site, planned)?;
        let my_row = self.table.find_key_readonly(unit_key).ok_or_else(|| {
            ExecError::Internal("probing unit not present in the environment".into())
        })?;

        let mut rec = RecordOut::begin(out, outputs.len());
        for ((o, value_term), value_fp) in outputs.iter().zip(&keys.channels).zip(&keys.channel_fps)
        {
            let minimize = o.func == SimpleAgg::Min;
            let kind = if minimize {
                SweepKind::Min
            } else {
                SweepKind::Max
            };
            // The extent is reconstructed from per-unit floating point bounds
            // (`u.posx ± range`), so it can differ in the last bits between
            // units of the same type; quantise it for the cache key so one
            // sweep serves the whole batch.
            let sweep_fp = {
                let mut h = rustc_hash::FxHasher::default();
                h.write_u64(self.part_sets[keys.part_set].sig);
                for (equal, v) in required {
                    h.write_u8(*equal as u8);
                    hash_value(&mut h, v);
                }
                h.write_u64(((rx * 1e6).round() as i64) as u64);
                h.write_u64(((ry * 1e6).round() as i64) as u64);
                h.write_u8(minimize as u8);
                h.write_u64(*value_fp);
                h.finish()
            };
            if !self.sweeps.contains_key(&sweep_fp) {
                // Data points: all rows in matching partitions; queries: every
                // row of the table (every unit of this type will probe).
                self.ensure_chan_col(value_term, *value_fp)?;
                self.ensure_positions()?;
                let mut data_points = Vec::new();
                let mut data_values = Vec::new();
                let mut data_rows: Vec<u32> = Vec::new();
                let (xs, ys) = positions_of(&self.positions)?;
                let value_col = &self.chan_cols[value_fp];
                for part in &self.part_sets[keys.part_set].parts {
                    if !partition_matches(&part.values, required) {
                        continue;
                    }
                    for &r in &part.rows {
                        data_points.push(Point2::new(xs[r as usize], ys[r as usize]));
                        data_values.push(value_col[r as usize]);
                        data_rows.push(r);
                    }
                }
                let queries: Vec<Point2> = xs
                    .iter()
                    .zip(ys.iter())
                    .map(|(&x, &y)| Point2::new(x, y))
                    .collect();
                let raw = sweep_min_max(&data_points, &data_values, &queries, rx, ry, kind);
                let remapped: Vec<Option<(f64, u32)>> = raw
                    .into_iter()
                    .map(|r| r.map(|(v, local)| (v, data_rows[local as usize])))
                    .collect();
                self.stats.indexes_built += 1;
                self.sweeps.insert(sweep_fp, remapped);
            }
            let result =
                self.sweeps.get(&sweep_fp).ok_or_else(|| {
                    ExecError::Internal("sweep batch vanished after build".into())
                })?[my_row];
            rec.put(
                &o.name,
                result.map_or_else(|| o.default.clone(), |(v, _)| Value::Float(v)),
            );
        }
        rec.finish();
        self.stats.index_probes += 1;
        Ok(())
    }

    /// Quadtree path for MIN/MAX probes the sweep batch cannot serve.
    fn eval_min_max_quadtree(
        &mut self,
        planned: &PlannedAggregate,
        site: &mut ProbeSite<'a>,
        outputs: &[sgl_lang::builtins::AggOutput],
        rect: &Rect,
        required: &[(bool, Value)],
        out: &mut ScriptValue,
    ) -> Result<()> {
        let kind = AggStructureKind::QuadTree { bucket: 8 };
        let keys = self.ensure_per_tick(site, planned)?;
        let mut rec = RecordOut::begin(out, outputs.len());
        // Field values double as the running extrema: start every output at
        // "no candidate yet" and fold partition by partition.
        let mut best: Vec<Option<f64>> = vec![None; outputs.len()];
        for part in 0..self.part_sets[keys.part_set].parts.len() {
            if !partition_matches(&self.part_sets[keys.part_set].parts[part].values, required) {
                continue;
            }
            let key = self.ensure_agg_struct(kind, keys, part)?;
            let index = self.agg_structs.get(&key).ok_or_else(|| {
                ExecError::Internal("aggregate structure vanished after ensure".into())
            })?;
            for (channel, o) in outputs.iter().enumerate() {
                let minimize = o.func == SimpleAgg::Min;
                if let Some(e) = index.probe_extremum(rect, channel, minimize) {
                    fold_extremum(&mut best[channel], e.value, minimize);
                }
            }
        }
        self.stats.index_probes += 1;
        for (o, b) in outputs.iter().zip(&best) {
            rec.put(&o.name, b.map_or_else(|| o.default.clone(), Value::Float));
        }
        rec.finish();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin_eval::{bind_params, eval_aggregate_scan};
    use crate::config::PlannerMode;
    use crate::planner::{forced_choice, plan_aggregate, strategy_class};
    use sgl_env::{schema::paper_schema, GameRng, Schema, TupleBuilder};
    use sgl_lang::builtins::{paper_registry, AggregateDef};
    use std::sync::Arc;

    /// The production tick-open sequence (what `execute_tick_planned`
    /// does): sync maintained state, then open the shared-borrow cache.
    fn open_tick<'a>(
        manager: &'a mut IndexManager,
        table: &'a EnvTable,
        config: &'a ExecConfig,
        planned: &FxHashMap<String, PlannedAggregate>,
        constants: &'a FxHashMap<String, Value>,
    ) -> TickIndexes<'a> {
        manager.prepare(table, planned, constants).unwrap();
        manager
            .tick_view(table, config, constants)
            .unwrap()
            .unwrap()
    }

    /// Answer one probe of `planned` for the unit of `ctx`, whose bindings
    /// hold the call's bound parameters.  The probe arguments and an
    /// `ArgBest` winner's outputs are evaluated here with `eval_term`, where
    /// the VM runs the call site's closed code.
    fn probe_unit(
        cache: &mut TickIndexes<'_>,
        planned: &PlannedAggregate,
        ctx: &EvalContext<'_>,
    ) -> ScriptValue {
        let term = |t: &Term, ctx: &EvalContext<'_>| {
            eval_term(t, ctx, &mut NoAggregates)
                .unwrap()
                .as_scalar()
                .unwrap()
                .clone()
        };
        let coord = |t: &Term| term(t, ctx).as_f64().unwrap();
        let analysis = &planned.analysis;
        let required: Vec<(bool, Value)> = analysis
            .cat_constraints()
            .iter()
            .map(|c| (c.equal, term(&c.value, ctx)))
            .collect();
        let rect = match (
            &analysis.x_lo,
            &analysis.x_hi,
            &analysis.y_lo,
            &analysis.y_hi,
        ) {
            (Some(x_lo), Some(x_hi), Some(y_lo), Some(y_hi)) => Some(Rect::new(
                coord(x_lo),
                coord(x_hi),
                coord(y_lo),
                coord(y_hi),
            )),
            _ => None,
        };
        let args = ProbeArgs {
            rect,
            required: &required,
        };
        let mut site = cache
            .open_site(planned)
            .unwrap()
            .expect("an indexed call site");
        let mut out = ScriptValue::Record(Vec::new());
        let probed = cache
            .probe(planned, &mut site, ctx.unit, ctx.unit_key, &args, &mut out)
            .unwrap();
        if let Probed::Winner(row) = probed {
            let AggSpec::ArgBest { outputs, .. } = &planned.def.spec else {
                panic!("winner row reported for a Simple aggregate");
            };
            let row_ctx = ctx.with_row(cache.table.row(row));
            let mut rec = RecordOut::begin(&mut out, outputs.len());
            for (name, t, _) in outputs {
                rec.put(name, term(t, &row_ctx));
            }
            rec.finish();
        }
        out
    }

    fn make_table(n: usize) -> (Arc<Schema>, EnvTable) {
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        let mut state = 12345u64;
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
                .set("posx", next() * 60.0)
                .unwrap()
                .set("posy", next() * 60.0)
                .unwrap()
                .set("health", 5 + (key % 20) as i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        (schema, table)
    }

    fn forced(schema: &Schema, backend: PhysicalBackend) -> ExecConfig {
        ExecConfig::indexed(schema).with_planner(PlannerMode::Force(backend))
    }

    /// Plan one aggregate outside the registry with the choice a forced
    /// `config` installs, as `plan_registry` does for registry aggregates.
    fn plan_forced(def: &AggregateDef, schema: &Schema, config: &ExecConfig) -> PlannedAggregate {
        let PlannerMode::Force(backend) = config.planner else {
            panic!("a forced configuration");
        };
        let mut plan = plan_aggregate(def, schema, config.spatial);
        plan.choice = strategy_class(&plan.strategy).map(|class| forced_choice(class, backend));
        plan
    }

    fn configs(schema: &Schema) -> Vec<(&'static str, ExecConfig)> {
        [
            PhysicalBackend::LayeredTree,
            PhysicalBackend::QuadTree,
            PhysicalBackend::MaintainedGrid,
        ]
        .into_iter()
        .map(|backend| (backend.label(), forced(schema, backend)))
        .collect()
    }

    #[test]
    fn indexed_aggregates_agree_with_scans_under_every_policy() {
        let (schema, table) = make_table(120);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let rng = GameRng::new(7).for_tick(3);

        for (label, config) in configs(&schema) {
            let planned_map = crate::tick::plan_registry(&registry, &table, &config);
            let mut manager = IndexManager::new(&config);
            for agg_name in [
                "CountEnemiesInRange",
                "CentroidOfEnemyUnits",
                "getNearestEnemy",
            ] {
                let def = registry.aggregate(agg_name).unwrap();
                let planned = &planned_map[agg_name];
                assert_ne!(
                    planned.strategy,
                    AggStrategy::Scan,
                    "{agg_name} should be indexable"
                );
                let mut cache = open_tick(&mut manager, &table, &config, &planned_map, &constants);
                for row in 0..table.len() {
                    let unit = table.row(row);
                    let mut ctx = EvalContext::new(&schema, unit, &rng, &constants);
                    let args: Vec<ScriptValue> = if def.params.len() == 2 {
                        vec![ScriptValue::scalar(0i64), ScriptValue::scalar(15.0)]
                    } else {
                        vec![ScriptValue::scalar(0i64)]
                    };
                    ctx.bindings = bind_params(&def.name, &def.params, &args).unwrap();
                    let fast = probe_unit(&mut cache, planned, &ctx);
                    let slow = eval_aggregate_scan(def, &ctx.bindings, &ctx, &table).unwrap();
                    match agg_name {
                        "CountEnemiesInRange" => {
                            assert_eq!(
                                fast.as_scalar().unwrap(),
                                slow.as_scalar().unwrap(),
                                "{label} row {row}"
                            );
                        }
                        "CentroidOfEnemyUnits" => {
                            for field in ["x", "y"] {
                                let f = fast.field(field).unwrap().as_f64().unwrap();
                                let s = slow.field(field).unwrap().as_f64().unwrap();
                                assert!(
                                    (f - s).abs() < 1e-9,
                                    "{label} row {row} field {field}: {f} vs {s}"
                                );
                            }
                        }
                        "getNearestEnemy" => {
                            // Distances must agree even if ties pick different keys.
                            let fk = fast.field("key").unwrap().as_i64().unwrap();
                            let sk = slow.field("key").unwrap().as_i64().unwrap();
                            let spatial = config.spatial.unwrap();
                            let dist = |key: i64| {
                                let idx = table.find_key_readonly(key).unwrap();
                                let p = table.row(idx);
                                let dx = p.get_f64(spatial.x).unwrap()
                                    - unit.get_f64(spatial.x).unwrap();
                                let dy = p.get_f64(spatial.y).unwrap()
                                    - unit.get_f64(spatial.y).unwrap();
                                dx * dx + dy * dy
                            };
                            assert!((dist(fk) - dist(sk)).abs() < 1e-9, "{label} row {row}");
                        }
                        _ => unreachable!(),
                    }
                }
                // Indexes are reused across probes.
                assert!(
                    cache.stats.indexes_built <= 4,
                    "{label}: {agg_name} built {}",
                    cache.stats.indexes_built
                );
                assert_eq!(cache.stats.index_probes, table.len(), "{label}");
                if plan_is_maintained(planned) {
                    assert_eq!(cache.stats.maintained_probes, table.len(), "{label}");
                }
            }
        }
    }

    #[test]
    fn sweep_min_aggregate_agrees_with_scan() {
        use sgl_lang::ast::{Cond, Term};
        use sgl_lang::builtins::{enemy_filter, rect_range_filter, AggOutput};

        let (schema, table) = make_table(80);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let rng = GameRng::new(7).for_tick(3);
        let def = AggregateDef {
            name: "WeakestEnemyHealth".into(),
            params: vec!["u".into(), "range".into()],
            filter: Cond::and(rect_range_filter(Term::name("range")), enemy_filter()),
            spec: AggSpec::Simple {
                outputs: vec![AggOutput {
                    name: "value".into(),
                    func: SimpleAgg::Min,
                    value: Term::row("health"),
                    default: Value::Float(-1.0),
                }],
            },
        };
        for (label, config) in configs(&schema) {
            let planned = plan_forced(&def, &schema, &config);
            assert_eq!(planned.strategy, AggStrategy::SweepMinMax);
            // The custom aggregate is not in the registry; register its plan
            // directly for the maintenance pass.
            let mut planned_map: FxHashMap<String, PlannedAggregate> = FxHashMap::default();
            planned_map.insert(def.name.clone(), planned.clone());
            let mut manager = IndexManager::new(&config);
            let mut cache = open_tick(&mut manager, &table, &config, &planned_map, &constants);
            for row in 0..table.len() {
                let unit = table.row(row);
                let mut ctx = EvalContext::new(&schema, unit, &rng, &constants);
                let args = vec![ScriptValue::scalar(0i64), ScriptValue::scalar(10.0)];
                ctx.bindings = bind_params(&def.name, &def.params, &args).unwrap();
                let fast = probe_unit(&mut cache, &planned, &ctx);
                let slow = eval_aggregate_scan(&def, &ctx.bindings, &ctx, &table).unwrap();
                assert_eq!(
                    fast.field("value").unwrap().as_f64().unwrap(),
                    slow.field("value").unwrap().as_f64().unwrap(),
                    "{label} row {row}"
                );
            }
            // One sweep per player value under a per-tick choice — two
            // structures for the whole batch; maintained grids need none.
            assert!(cache.stats.indexes_built <= 2, "{label}");
        }
    }

    #[test]
    fn enum_queries_return_rows_in_rect() {
        let (schema, table) = make_table(50);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = ExecConfig::indexed(&schema);
        let planned_map: FxHashMap<String, PlannedAggregate> = FxHashMap::default();
        let mut manager = IndexManager::new(&config);
        let mut cache = open_tick(&mut manager, &table, &config, &planned_map, &constants);
        let player_attr = schema.attr_id("player").unwrap();
        let fps = cache.partition_fps_for(&[player_attr]).unwrap();
        assert_eq!(fps.len(), 2);
        let rect = Rect::new(0.0, 60.0, 0.0, 60.0);
        let total: usize = fps
            .iter()
            .map(|fp| cache.enum_query(&[player_attr], *fp, &rect).unwrap().len())
            .sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn incremental_maintenance_applies_deltas_not_rebuilds() {
        let (schema, mut table) = make_table(100);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = forced(&schema, PhysicalBackend::MaintainedGrid);
        let planned_map = crate::tick::plan_registry(&registry, &table, &config);
        let mut manager = IndexManager::new(&config);

        // First sync builds every partition from scratch.
        let first = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert!(first.partition_rebuilds > 0);
        assert_eq!(first.delta_ops, 0);
        assert!(manager.maintained_aggregates() > 0);

        // Move a handful of units; the next sync must patch, not rebuild.
        let posx = schema.attr_id("posx").unwrap();
        for row in 0..10 {
            let new_x = table.row(row).get_f64(posx).unwrap() + 3.0;
            table.set_attr(row, posx, Value::Float(new_x)).unwrap();
        }
        let second = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert_eq!(
            second.partition_rebuilds, 0,
            "incremental must never rebuild"
        );
        assert!(second.delta_ops > 0);

        // And the maintained probes agree with a scan afterwards.
        let rng = GameRng::new(1).for_tick(1);
        let def = registry.aggregate("CountEnemiesInRange").unwrap();
        let planned = planned_map["CountEnemiesInRange"].clone();
        let mut cache = open_tick(&mut manager, &table, &config, &planned_map, &constants);
        for row in 0..table.len() {
            let unit = table.row(row);
            let mut ctx = EvalContext::new(&schema, unit, &rng, &constants);
            let args = vec![ScriptValue::scalar(0i64), ScriptValue::scalar(12.0)];
            ctx.bindings = bind_params(&def.name, &def.params, &args).unwrap();
            let fast = probe_unit(&mut cache, &planned, &ctx);
            let slow = eval_aggregate_scan(def, &ctx.bindings, &ctx, &table).unwrap();
            assert_eq!(
                fast.as_scalar().unwrap(),
                slow.as_scalar().unwrap(),
                "row {row}"
            );
        }
        assert_eq!(
            cache.stats.indexes_built, 0,
            "maintained grids serve every probe"
        );
    }

    #[test]
    fn rebuild_choice_rebuilds_touched_partitions() {
        let (schema, mut table) = make_table(60);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = forced(&schema, PhysicalBackend::MaintainedGrid);
        let mut planned_map = crate::tick::plan_registry(&registry, &table, &config);
        // The cost model's `Rebuild` maintenance: the maintained grid is
        // rebuilt wholesale instead of patched.
        for plan in planned_map.values_mut() {
            if let Some(choice) = plan.choice.as_mut() {
                choice.maintenance = MaintenanceChoice::Rebuild;
            }
        }
        let mut manager = IndexManager::new(&config);
        manager.end_tick(&table, &planned_map, &constants).unwrap();

        // Move two units: every partition they touch is rebuilt, none is
        // patched.
        let posx = schema.attr_id("posx").unwrap();
        for row in 0..2 {
            let new_x = table.row(row).get_f64(posx).unwrap() + 0.5;
            table.set_attr(row, posx, Value::Float(new_x)).unwrap();
        }
        let rebuilt = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert!(rebuilt.partition_rebuilds > 0);
        assert_eq!(rebuilt.delta_ops, 0);

        // Back to `Incremental`: the same kind of move is patched.
        for plan in planned_map.values_mut() {
            if let Some(choice) = plan.choice.as_mut() {
                choice.maintenance = MaintenanceChoice::Incremental;
            }
        }
        for row in 0..2 {
            let new_x = table.row(row).get_f64(posx).unwrap() + 0.5;
            table.set_attr(row, posx, Value::Float(new_x)).unwrap();
        }
        let patched = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert_eq!(patched.partition_rebuilds, 0);
        assert!(patched.delta_ops > 0);

        // Either way the grids answer like a scan.
        let rng = GameRng::new(1).for_tick(1);
        let def = registry.aggregate("CountEnemiesInRange").unwrap();
        let planned = planned_map["CountEnemiesInRange"].clone();
        let mut cache = open_tick(&mut manager, &table, &config, &planned_map, &constants);
        for row in 0..table.len() {
            let unit = table.row(row);
            let mut ctx = EvalContext::new(&schema, unit, &rng, &constants);
            let args = vec![ScriptValue::scalar(0i64), ScriptValue::scalar(12.0)];
            ctx.bindings = bind_params(&def.name, &def.params, &args).unwrap();
            let fast = probe_unit(&mut cache, &planned, &ctx);
            let slow = eval_aggregate_scan(def, &ctx.bindings, &ctx, &table).unwrap();
            assert_eq!(
                fast.as_scalar().unwrap(),
                slow.as_scalar().unwrap(),
                "row {row}"
            );
        }
        assert_eq!(cache.stats.maintained_probes, table.len());
    }

    #[test]
    fn invalidation_forces_a_full_rebuild() {
        let (schema, table) = make_table(30);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = forced(&schema, PhysicalBackend::MaintainedGrid);
        let planned_map = crate::tick::plan_registry(&registry, &table, &config);
        let mut manager = IndexManager::new(&config);
        manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert!(manager.maintained_aggregates() > 0);
        manager.invalidate();
        assert_eq!(manager.maintained_aggregates(), 0);
        let again = manager.prepare(&table, &planned_map, &constants).unwrap();
        assert!(again.partition_rebuilds > 0);
    }

    /// Probe every row of the table through a cache, absorbing materialized
    /// writes afterwards; returns (answers, serves-from-store).
    fn probe_all(
        manager: &mut IndexManager,
        table: &EnvTable,
        config: &ExecConfig,
        planned_map: &FxHashMap<String, PlannedAggregate>,
        constants: &FxHashMap<String, Value>,
        planned: &PlannedAggregate,
        args: &[ScriptValue],
    ) -> (Vec<ScriptValue>, usize) {
        let schema = table.schema();
        let rng = GameRng::new(7).for_tick(3);
        let mut cache = open_tick(manager, table, config, planned_map, constants);
        let mut answers = Vec::with_capacity(table.len());
        for row in 0..table.len() {
            let unit = table.row(row);
            let mut ctx = EvalContext::new(schema, unit, &rng, constants);
            ctx.bindings = bind_params(&planned.def.name, &planned.def.params, args).unwrap();
            answers.push(probe_unit(&mut cache, planned, &ctx));
        }
        let serves = cache.stats.materialized_serves;
        let writes = cache.take_mat_writes();
        drop(cache);
        manager.absorb_materialized(writes);
        (answers, serves)
    }

    #[test]
    fn materialized_answers_agree_with_scans_across_churn() {
        let (schema, mut table) = make_table(90);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = forced(&schema, PhysicalBackend::Materialized);
        let rng = GameRng::new(7).for_tick(3);
        let planned_map = crate::tick::plan_registry(&registry, &table, &config);

        // CountEnemiesInRange (COUNT patch class) and CentroidOfEnemyUnits
        // (replace class) both carry a Materialized choice now.
        for agg_name in ["CountEnemiesInRange", "CentroidOfEnemyUnits"] {
            let planned = planned_map.get(agg_name).unwrap().clone();
            assert!(plan_is_materialized(&planned), "{agg_name}");
            let mut manager = IndexManager::new(&config);
            let args: Vec<ScriptValue> = if planned.def.params.len() == 2 {
                vec![ScriptValue::scalar(0i64), ScriptValue::scalar(15.0)]
            } else {
                vec![ScriptValue::scalar(0i64)]
            };

            // Tick 0: every probe misses, recomputes, and materializes.
            let (_, serves) = probe_all(
                &mut manager,
                &table,
                &config,
                &planned_map,
                &constants,
                &planned,
                &args,
            );
            assert_eq!(serves, 0, "{agg_name}: no store on the first tick");
            assert!(manager.materialized_entries() > 0, "{agg_name}");

            // Churn a handful of rows, hand the table back, probe again:
            // most answers are served from the store, all agree with scans.
            let posx = schema.attr_id("posx").unwrap();
            for row in 0..6 {
                let new_x = table.row(row).get_f64(posx).unwrap() + 2.5;
                table.set_attr(row, posx, Value::Float(new_x)).unwrap();
            }
            manager.end_tick(&table, &planned_map, &constants).unwrap();
            let (fast, serves) = probe_all(
                &mut manager,
                &table,
                &config,
                &planned_map,
                &constants,
                &planned,
                &args,
            );
            assert!(serves > 0, "{agg_name}: store must serve after churn");
            let def = registry.aggregate(agg_name).unwrap();
            for (row, fast) in fast.iter().enumerate() {
                let unit = table.row(row);
                let mut ctx = EvalContext::new(&schema, unit, &rng, &constants);
                ctx.bindings = bind_params(&def.name, &def.params, &args).unwrap();
                let slow = eval_aggregate_scan(def, &ctx.bindings, &ctx, &table).unwrap();
                match agg_name {
                    "CountEnemiesInRange" => assert_eq!(
                        fast.as_scalar().unwrap(),
                        slow.as_scalar().unwrap(),
                        "{agg_name} row {row}"
                    ),
                    _ => {
                        for field in ["x", "y"] {
                            let f = fast.field(field).unwrap().as_f64().unwrap();
                            let s = slow.field(field).unwrap().as_f64().unwrap();
                            assert!(
                                (f - s).abs() < 1e-9,
                                "{agg_name} row {row} field {field}: {f} vs {s}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn materialized_min_patches_inserts_and_invalidates_extremum_loss() {
        use sgl_lang::ast::{Cond, Term};
        use sgl_lang::builtins::{enemy_filter, rect_range_filter, AggOutput};

        let (schema, mut table) = make_table(60);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = forced(&schema, PhysicalBackend::Materialized);
        let def = AggregateDef {
            name: "WeakestEnemyHealth".into(),
            params: vec!["u".into(), "range".into()],
            filter: Cond::and(rect_range_filter(Term::name("range")), enemy_filter()),
            spec: AggSpec::Simple {
                outputs: vec![AggOutput {
                    name: "value".into(),
                    func: SimpleAgg::Min,
                    value: Term::row("health"),
                    default: Value::Float(-1.0),
                }],
            },
        };
        let planned = plan_forced(&def, &schema, &config);
        assert_eq!(planned.strategy, AggStrategy::SweepMinMax);
        assert!(plan_is_materialized(&planned));
        let mut planned_map: FxHashMap<String, PlannedAggregate> = FxHashMap::default();
        planned_map.insert(def.name.clone(), planned.clone());
        let args = vec![ScriptValue::scalar(0i64), ScriptValue::scalar(12.0)];

        let mut manager = IndexManager::new(&config);
        probe_all(
            &mut manager,
            &table,
            &config,
            &planned_map,
            &constants,
            &planned,
            &args,
        );
        let entries_before = manager.materialized_entries();
        assert!(entries_before > 0);

        // Raise one unit's health far above every minimum: removal-safe for
        // every subscription (the value was never the extremum is false —
        // its OLD value may be an extremum somewhere, those invalidate; the
        // rest patch in place).  The store keeps serving correct answers.
        let health = schema.attr_id("health").unwrap();
        table.set_attr(5, health, Value::Int(999)).unwrap();
        manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert!(
            manager.last_maint.mat_patched > 0,
            "non-extremum updates must patch in place"
        );
        let (fast, serves) = probe_all(
            &mut manager,
            &table,
            &config,
            &planned_map,
            &constants,
            &planned,
            &args,
        );
        assert!(serves > 0);
        let rng = GameRng::new(7).for_tick(3);
        for (row, fast) in fast.iter().enumerate() {
            let unit = table.row(row);
            let mut ctx = EvalContext::new(&schema, unit, &rng, &constants);
            ctx.bindings = bind_params(&def.name, &def.params, &args).unwrap();
            let slow = eval_aggregate_scan(&def, &ctx.bindings, &ctx, &table).unwrap();
            assert_eq!(
                fast.field("value").unwrap().as_f64().unwrap(),
                slow.field("value").unwrap().as_f64().unwrap(),
                "row {row}"
            );
        }

        // Now make that unit the global minimum: every subscription that
        // sees it gets an exact insert-patch (their stored minimum folds
        // down), and the answers still match scans.
        table.set_attr(5, health, Value::Int(1)).unwrap();
        manager.end_tick(&table, &planned_map, &constants).unwrap();
        let (fast, _) = probe_all(
            &mut manager,
            &table,
            &config,
            &planned_map,
            &constants,
            &planned,
            &args,
        );
        for (row, fast) in fast.iter().enumerate() {
            let unit = table.row(row);
            let mut ctx = EvalContext::new(&schema, unit, &rng, &constants);
            ctx.bindings = bind_params(&def.name, &def.params, &args).unwrap();
            let slow = eval_aggregate_scan(&def, &ctx.bindings, &ctx, &table).unwrap();
            assert_eq!(
                fast.field("value").unwrap().as_f64().unwrap(),
                slow.field("value").unwrap().as_f64().unwrap(),
                "row {row}"
            );
        }
    }

    #[test]
    fn materialized_stores_clear_when_choices_leave() {
        let (schema, table) = make_table(40);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = forced(&schema, PhysicalBackend::Materialized);
        let mut planned_map = crate::tick::plan_registry(&registry, &table, &config);
        let planned = planned_map.get("CountEnemiesInRange").unwrap().clone();
        let args = vec![ScriptValue::scalar(0i64), ScriptValue::scalar(15.0)];
        let mut manager = IndexManager::new(&config);
        probe_all(
            &mut manager,
            &table,
            &config,
            &planned_map,
            &constants,
            &planned,
            &args,
        );
        assert!(manager.materialized_sites() > 0);

        // Re-plan onto per-tick backends: the next maintenance pass retires
        // the stores.
        for plan in planned_map.values_mut() {
            plan.choice = strategy_class(&plan.strategy)
                .map(|class| forced_choice(class, PhysicalBackend::LayeredTree));
        }
        manager.mark_stale();
        manager.prepare(&table, &planned_map, &constants).unwrap();
        assert_eq!(manager.materialized_sites(), 0);
        assert_eq!(manager.materialized_entries(), 0);
    }

    #[test]
    fn value_fingerprints_are_strict() {
        assert_eq!(
            fingerprint_values(&[Value::Int(1), Value::str("a")]),
            fingerprint_values(&[Value::Int(1), Value::str("a")])
        );
        assert_ne!(
            fingerprint_values(&[Value::Int(1)]),
            fingerprint_values(&[Value::Float(1.0)])
        );
        assert_ne!(
            fingerprint_values(&[Value::Int(1)]),
            fingerprint_values(&[Value::Int(2)])
        );
        assert!(same_value(&Value::Float(2.5), &Value::Float(2.5)));
        assert!(!same_value(&Value::Int(1), &Value::Float(1.0)));
        assert!(partition_matches(
            &[Value::Int(0)],
            &[(true, Value::Int(0))]
        ));
        assert!(!partition_matches(
            &[Value::Int(0)],
            &[(false, Value::Int(0))]
        ));
    }
}
