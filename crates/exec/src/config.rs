//! Executor configuration and per-tick statistics.

use sgl_env::{AttrId, Schema};

use crate::error::ExecError;

/// Which execution strategy evaluates the aggregate queries of a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Straightforward per-unit evaluation: every aggregate scans the whole
    /// environment (`O(n)` per unit, `O(n²)` per tick) — the baseline of §6.
    /// Runs the same register bytecode as [`ExecMode::Compiled`], with no
    /// index view.
    Naive,
    /// Set-at-a-time evaluation through per-tick index structures
    /// (`O(n log n)` per tick) — the paper's contribution — with scripts
    /// lowered to register bytecode ([`crate::compile`]) and run by the
    /// dispatch-loop VM (`vm` module).
    Compiled,
    /// The reference interpreter of the conformance suite: tree-walking
    /// evaluation of the *normalized script AST* itself — no planner, no
    /// optimizer, no indexes, no aggregate sharing, strictly serial (see
    /// [`crate::oracle`]).  Deliberately the simplest possible execution so
    /// every other configuration can be differentially tested against it.
    Oracle,
}

impl ExecMode {
    /// True for the mode that plans aggregates and probes index structures.
    pub fn uses_indexes(self) -> bool {
        self == ExecMode::Compiled
    }
}

/// How aggregate index structures are kept in sync with the environment
/// across clock ticks (the §5.3 / §6.4 design axis this engine makes
/// pluggable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaintenancePolicy {
    /// Discard every structure at end of tick and rebuild lazily on first
    /// use in the next tick — the paper's choice for volatile attributes.
    RebuildEachTick,
    /// Keep dynamically maintained structures alive across ticks and apply
    /// only the per-unit deltas (movement, spawns, deaths, value changes)
    /// observed after each tick's post-processing.
    Incremental,
    /// Decide per partition each tick: partitions whose update ratio exceeds
    /// `rebuild_ratio` are rebuilt from scratch, the rest are maintained
    /// incrementally.
    Adaptive {
        /// Fraction of changed rows (0.0–1.0) above which a partition is
        /// rebuilt instead of patched.
        rebuild_ratio: f64,
    },
}

impl MaintenancePolicy {
    /// Default adaptive policy (rebuild a partition when more than 40 % of
    /// its rows changed).
    pub fn adaptive() -> MaintenancePolicy {
        MaintenancePolicy::Adaptive { rebuild_ratio: 0.4 }
    }

    /// True for the policies that keep maintained structures across ticks.
    pub fn is_dynamic(&self) -> bool {
        !matches!(self, MaintenancePolicy::RebuildEachTick)
    }
}

/// Which structure backs the per-tick (rebuilt) divisible-aggregate indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildBackend {
    /// Layered aggregate range tree (Figure 8) — the paper's structure.
    LayeredTree,
    /// Bucket PR quadtree with per-node summaries (ablation alternative that
    /// also answers exact MIN/MAX).
    QuadTree,
}

/// How many worker threads execute the decision/action phases of a tick.
///
/// The state-effect pattern makes per-unit action evaluation within a tick
/// order-independent ([`sgl_env::TickRandom`] is a pure hash of
/// `(seed, tick, unit key, i)` and effect combination is order-insensitive),
/// so acting units can be fanned out over shards without changing the
/// simulated game: the parallel executor produces the same `StateDigest` as
/// the serial one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Serial execution on the calling thread (the default).
    Off,
    /// A fixed number of worker threads (clamped to at least 1).
    Threads(usize),
    /// One worker per available hardware thread, capped at 8.
    Auto,
}

impl Parallelism {
    /// Number of shards to use for `work_items` acting units: the configured
    /// thread count, never more than the number of items (and at least 1).
    pub fn resolve(self, work_items: usize) -> usize {
        let threads = match self {
            Parallelism::Off => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
        };
        threads.min(work_items.max(1))
    }

    /// Parse a `SGL_PARALLELISM`-style value (`off`, `auto`, or a thread
    /// count) into a typed result.  Malformed input is an
    /// [`ExecError::Config`], never a panic — the value usually arrives from
    /// the process environment, which the library does not control.
    pub fn parse(raw: &str) -> crate::error::Result<Parallelism> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "" | "off" | "0" | "1" => Ok(Parallelism::Off),
            "auto" => Ok(Parallelism::Auto),
            n => n.parse::<usize>().map(Parallelism::Threads).map_err(|_| {
                ExecError::Config(format!(
                    "SGL_PARALLELISM must be `off`, `auto` or a thread count, got `{raw}`"
                ))
            }),
        }
    }

    /// Read the `SGL_PARALLELISM` environment variable.  Used by the
    /// [`ExecConfig`] presets so test matrices can exercise the parallel
    /// executor without touching call sites; explicit
    /// [`ExecConfig::with_parallelism`] always wins.  A malformed value
    /// warns and falls back to `None` (the preset default): CI matrices set
    /// the variable to prove the knob is behaviour-neutral, but a typo in a
    /// user environment must not abort the process.
    pub fn from_env() -> Option<Parallelism> {
        let raw = std::env::var("SGL_PARALLELISM").ok()?;
        match Parallelism::parse(&raw) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("warning: {e}; using serial execution");
                None
            }
        }
    }
}

/// Re-costing cadence of the cost-based planner: the planner re-prices every
/// physical alternative and may swap backends/maintenance per call site at
/// the start of every `ticks`-th tick (decisions only ever change at tick
/// boundaries, so a tick is always executed under one consistent plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveWindow {
    /// Re-cost every this many ticks (clamped to at least 1).
    pub ticks: u32,
}

impl AdaptiveWindow {
    /// Re-cost every `ticks` ticks.
    pub fn every(ticks: u32) -> AdaptiveWindow {
        AdaptiveWindow {
            ticks: ticks.max(1),
        }
    }
}

impl Default for AdaptiveWindow {
    fn default() -> AdaptiveWindow {
        AdaptiveWindow { ticks: 8 }
    }
}

/// How the physical backend of each aggregate call site is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerMode {
    /// Fixed heuristics: the strategy planner's structure mapping driven by
    /// the configured [`MaintenancePolicy`] / [`RebuildBackend`] — the
    /// behaviour of every pre-cost-based configuration.
    Heuristic,
    /// Cost-based: price every alternative from runtime statistics
    /// (`sgl_algebra::cost`) and re-cost on the given window.  Only
    /// meaningful under [`ExecMode::Compiled`]; behaviour-neutral by
    /// construction (every alternative returns identical results), so state
    /// digests never depend on the mode.
    CostBased(AdaptiveWindow),
    /// Force the materialized-answer class on every call site where it is
    /// legal (divisible and MIN/MAX strategies; nearest sites keep their
    /// heuristic structures).  A testing/conformance knob: the generated
    /// worlds are short and calm enough that the cost model would rarely
    /// choose materialization on its own, and the lattice needs
    /// deterministic materialized rows to prove behaviour neutrality.
    ForceMaterialized,
}

impl PlannerMode {
    /// Cost-based planning re-costed every `ticks` ticks.
    pub fn cost_based(ticks: u32) -> PlannerMode {
        PlannerMode::CostBased(AdaptiveWindow::every(ticks))
    }

    /// True for [`PlannerMode::CostBased`].
    pub fn is_cost_based(&self) -> bool {
        matches!(self, PlannerMode::CostBased(_))
    }

    /// True for the modes that install per-call-site physical choices (the
    /// cost-based planner and the forced-materialized testing mode).
    pub fn installs_choices(&self) -> bool {
        !matches!(self, PlannerMode::Heuristic)
    }
}

/// Which attributes hold the spatial position of a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpatialAttrs {
    /// The x position attribute.
    pub x: AttrId,
    /// The y position attribute.
    pub y: AttrId,
}

impl SpatialAttrs {
    /// Resolve the conventional `posx`/`posy` attributes from a schema.
    pub fn from_schema(schema: &Schema) -> Option<SpatialAttrs> {
        Some(SpatialAttrs {
            x: schema.attr_id("posx")?,
            y: schema.attr_id("posy")?,
        })
    }
}

/// Full executor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Naive, indexed (compiled) or oracle execution.
    pub mode: ExecMode,
    /// Spatial attributes used by the index planner.
    pub spatial: Option<SpatialAttrs>,
    /// Use fractional cascading in the layered aggregate trees (§5.3.1).
    pub cascading: bool,
    /// Use the effect-centre index for area-of-effect actions (§5.4).
    pub aoe_index: bool,
    /// How index structures are maintained across ticks.
    pub policy: MaintenancePolicy,
    /// Structure backing rebuilt divisible indexes.
    pub backend: RebuildBackend,
    /// Worker threads for the decision/action phases of a tick.
    pub parallelism: Parallelism,
    /// How physical backends are chosen per aggregate call site.
    pub planner: PlannerMode,
}

impl ExecConfig {
    /// Configuration for naive execution against a schema.
    pub fn naive(schema: &Schema) -> ExecConfig {
        ExecConfig {
            mode: ExecMode::Naive,
            spatial: SpatialAttrs::from_schema(schema),
            cascading: false,
            aoe_index: false,
            policy: MaintenancePolicy::RebuildEachTick,
            backend: RebuildBackend::LayeredTree,
            parallelism: Parallelism::from_env().unwrap_or(Parallelism::Off),
            planner: PlannerMode::Heuristic,
        }
    }

    /// Configuration for planned (indexed) execution against a schema, all
    /// paper optimizations enabled ([`ExecMode::Compiled`]).
    pub fn indexed(schema: &Schema) -> ExecConfig {
        ExecConfig {
            mode: ExecMode::Compiled,
            spatial: SpatialAttrs::from_schema(schema),
            cascading: true,
            aoe_index: true,
            policy: MaintenancePolicy::RebuildEachTick,
            backend: RebuildBackend::LayeredTree,
            parallelism: Parallelism::from_env().unwrap_or(Parallelism::Off),
            planner: PlannerMode::Heuristic,
        }
    }

    /// Configuration for the cost-based planner: indexed execution whose
    /// physical backends are chosen per call site by the cost model of
    /// [`sgl_algebra::cost`], re-costed on the default
    /// [`AdaptiveWindow`].  The base maintenance policy stays
    /// `RebuildEachTick`; cross-tick maintained structures are created
    /// exactly for the call sites the cost model routes to the grid.
    pub fn cost_based(schema: &Schema) -> ExecConfig {
        ExecConfig {
            planner: PlannerMode::CostBased(AdaptiveWindow::default()),
            ..ExecConfig::indexed(schema)
        }
    }

    /// Configuration for the oracle interpreter (see [`crate::oracle`]):
    /// tree-walking AST evaluation with every optimization switched off.
    /// Always serial — the `SGL_PARALLELISM` default is deliberately ignored
    /// so the oracle stays the one configuration with no knobs at all.
    pub fn oracle(schema: &Schema) -> ExecConfig {
        ExecConfig {
            mode: ExecMode::Oracle,
            spatial: SpatialAttrs::from_schema(schema),
            cascading: false,
            aoe_index: false,
            policy: MaintenancePolicy::RebuildEachTick,
            backend: RebuildBackend::LayeredTree,
            parallelism: Parallelism::Off,
            planner: PlannerMode::Heuristic,
        }
    }

    /// The preset configuration for an execution mode — the single mapping
    /// every scenario builder uses, so adding a mode means adding one arm
    /// here instead of one per call site.
    pub fn for_mode(mode: ExecMode, schema: &Schema) -> ExecConfig {
        match mode {
            ExecMode::Naive => ExecConfig::naive(schema),
            ExecMode::Compiled => ExecConfig::indexed(schema),
            ExecMode::Oracle => ExecConfig::oracle(schema),
        }
    }

    /// Set the execution mode.
    pub fn with_mode(mut self, mode: ExecMode) -> ExecConfig {
        self.mode = mode;
        self
    }

    /// Set the cross-tick maintenance policy.
    pub fn with_policy(mut self, policy: MaintenancePolicy) -> ExecConfig {
        self.policy = policy;
        self
    }

    /// Set the structure backing rebuilt divisible indexes.
    pub fn with_backend(mut self, backend: RebuildBackend) -> ExecConfig {
        self.backend = backend;
        self
    }

    /// Set the worker-thread count for tick execution.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> ExecConfig {
        self.parallelism = parallelism;
        self
    }

    /// Set the planner mode (heuristic vs cost-based).
    pub fn with_planner(mut self, planner: PlannerMode) -> ExecConfig {
        self.planner = planner;
        self
    }
}

/// Counters collected during a tick — used by tests, the ablation benchmarks
/// and the experiment harness to verify *why* one mode is faster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Aggregate evaluations requested by scripts (call sites × acting units).
    pub aggregate_probes: usize,
    /// Aggregate evaluations answered by a full scan of the environment.
    pub naive_scans: usize,
    /// Aggregate evaluations answered from an index structure.
    pub index_probes: usize,
    /// Spatial enumerations issued by area-of-effect action clauses (one
    /// per partition tree queried) — not aggregate evaluations, so they are
    /// counted apart from `index_probes`.
    pub enum_probes: usize,
    /// Aggregate evaluations answered from a per-tick sharing memo.  Always
    /// 0: the bytecode reaches each aggregate call site once per unit, so
    /// there is nothing to share; kept for report compatibility.
    pub shared_hits: usize,
    /// Number of index structures built this tick.
    pub indexes_built: usize,
    /// Effect rows emitted by actions.
    pub effect_rows: usize,
    /// Units that performed at least one action.
    pub acting_units: usize,
    /// Incremental delta operations applied to maintained index structures.
    pub index_delta_ops: usize,
    /// Maintained partitions rebuilt from scratch (adaptive policy or
    /// invalidation).
    pub partition_rebuilds: usize,
    /// Aggregate evaluations answered by a cross-tick maintained structure.
    pub maintained_probes: usize,
    /// Aggregate evaluations served in O(1) from a materialized answer.
    pub materialized_serves: usize,
    /// Cost-based planner re-costing passes performed this tick (0 or 1).
    pub planner_recosts: usize,
    /// Call sites whose chosen backend/maintenance changed in this tick's
    /// re-costing pass.
    pub plan_switches: usize,
}

impl TickStats {
    /// Merge counters from another tick/fragment.
    pub fn merge(&mut self, other: &TickStats) {
        self.aggregate_probes += other.aggregate_probes;
        self.naive_scans += other.naive_scans;
        self.index_probes += other.index_probes;
        self.enum_probes += other.enum_probes;
        self.shared_hits += other.shared_hits;
        self.indexes_built += other.indexes_built;
        self.effect_rows += other.effect_rows;
        self.acting_units += other.acting_units;
        self.index_delta_ops += other.index_delta_ops;
        self.partition_rebuilds += other.partition_rebuilds;
        self.maintained_probes += other.maintained_probes;
        self.materialized_serves += other.materialized_serves;
        self.planner_recosts += other.planner_recosts;
        self.plan_switches += other.plan_switches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_env::schema::paper_schema;

    #[test]
    fn spatial_attrs_resolve_from_paper_schema() {
        let schema = paper_schema();
        let s = SpatialAttrs::from_schema(&schema).unwrap();
        assert_eq!(s.x, schema.attr_id("posx").unwrap());
        assert_eq!(s.y, schema.attr_id("posy").unwrap());
    }

    #[test]
    fn spatial_attrs_missing_positions() {
        let mut b = Schema::builder();
        b.key("key").sum_attr("damage", 0i64);
        let schema = b.build().unwrap();
        assert!(SpatialAttrs::from_schema(&schema).is_none());
    }

    #[test]
    fn config_presets() {
        let schema = paper_schema();
        let naive = ExecConfig::naive(&schema);
        assert_eq!(naive.mode, ExecMode::Naive);
        assert!(!naive.aoe_index);
        let indexed = ExecConfig::indexed(&schema);
        assert_eq!(indexed.mode, ExecMode::Compiled);
        assert_eq!(indexed.with_mode(ExecMode::Naive).mode, ExecMode::Naive);
        assert!(indexed.cascading && indexed.aoe_index);
        assert_eq!(indexed.policy, MaintenancePolicy::RebuildEachTick);
        assert_eq!(indexed.backend, RebuildBackend::LayeredTree);
        let incremental = indexed.with_policy(MaintenancePolicy::Incremental);
        assert!(incremental.policy.is_dynamic());
        assert!(MaintenancePolicy::adaptive().is_dynamic());
        assert!(!MaintenancePolicy::RebuildEachTick.is_dynamic());
        let quad = indexed.with_backend(RebuildBackend::QuadTree);
        assert_eq!(quad.backend, RebuildBackend::QuadTree);
        let oracle = ExecConfig::oracle(&schema);
        assert_eq!(oracle.mode, ExecMode::Oracle);
        assert!(!oracle.cascading && !oracle.aoe_index);
        // The oracle is serial even when SGL_PARALLELISM asks for threads.
        assert_eq!(oracle.parallelism, Parallelism::Off);
    }

    #[test]
    fn parallelism_resolves_to_shard_counts() {
        assert_eq!(Parallelism::Off.resolve(100), 1);
        assert_eq!(Parallelism::Threads(4).resolve(100), 4);
        assert_eq!(Parallelism::Threads(0).resolve(100), 1);
        // Never more shards than acting units (and at least one).
        assert_eq!(Parallelism::Threads(8).resolve(3), 3);
        assert_eq!(Parallelism::Threads(4).resolve(0), 1);
        let auto = Parallelism::Auto.resolve(1_000_000);
        assert!((1..=8).contains(&auto));
        let schema = paper_schema();
        let config = ExecConfig::indexed(&schema).with_parallelism(Parallelism::Threads(2));
        assert_eq!(config.parallelism, Parallelism::Threads(2));
    }

    #[test]
    fn parallelism_parse_accepts_the_documented_values() {
        assert_eq!(Parallelism::parse("off").unwrap(), Parallelism::Off);
        assert_eq!(Parallelism::parse("OFF").unwrap(), Parallelism::Off);
        assert_eq!(Parallelism::parse("").unwrap(), Parallelism::Off);
        assert_eq!(Parallelism::parse("0").unwrap(), Parallelism::Off);
        assert_eq!(Parallelism::parse("1").unwrap(), Parallelism::Off);
        assert_eq!(Parallelism::parse("auto").unwrap(), Parallelism::Auto);
        assert_eq!(Parallelism::parse(" 4 ").unwrap(), Parallelism::Threads(4));
        // Huge-but-parsable counts are accepted; `resolve` clamps them to
        // the number of work items at use time.
        let huge = Parallelism::parse("100000").unwrap();
        assert_eq!(huge, Parallelism::Threads(100_000));
        assert_eq!(huge.resolve(7), 7);
    }

    #[test]
    fn parallelism_parse_rejects_garbage_without_panicking() {
        for bad in ["garbage", "-3", "3.5", "two", "auto!"] {
            let err = Parallelism::parse(bad).unwrap_err();
            assert!(
                matches!(err, ExecError::Config(_)),
                "`{bad}` should be a Config error, got {err:?}"
            );
            assert!(err.to_string().contains(bad), "message names the input");
        }
    }

    #[test]
    fn exec_modes_classify_index_usage() {
        assert!(ExecMode::Compiled.uses_indexes());
        assert!(!ExecMode::Naive.uses_indexes());
        assert!(!ExecMode::Oracle.uses_indexes());
        let schema = paper_schema();
        for mode in [ExecMode::Naive, ExecMode::Compiled, ExecMode::Oracle] {
            assert_eq!(ExecConfig::for_mode(mode, &schema).mode, mode);
        }
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = TickStats {
            aggregate_probes: 1,
            naive_scans: 2,
            ..TickStats::default()
        };
        let b = TickStats {
            aggregate_probes: 10,
            index_probes: 5,
            indexes_built: 1,
            ..TickStats::default()
        };
        a.merge(&b);
        assert_eq!(a.aggregate_probes, 11);
        assert_eq!(a.naive_scans, 2);
        assert_eq!(a.index_probes, 5);
        assert_eq!(a.indexes_built, 1);
    }
}
