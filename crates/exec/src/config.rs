//! Executor configuration and per-tick statistics.

use sgl_algebra::cost::PhysicalBackend;
use sgl_env::{AttrId, Schema};

use crate::error::ExecError;

/// Which executor evaluates the scripts of a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Scripts lowered to register bytecode ([`crate::compile`]) and run by
    /// the dispatch-loop VM (`vm` module); aggregate call sites are answered
    /// by the physical backends the [`PlannerMode`] installs.
    Compiled,
    /// The reference interpreter of the conformance suite: tree-walking
    /// evaluation of the *normalized script AST* itself — no planner, no
    /// optimizer, no indexes, no aggregate sharing, strictly serial (see
    /// [`crate::oracle`]).  Deliberately the simplest possible execution so
    /// every other configuration can be differentially tested against it.
    Oracle,
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

/// How the physical backend of each aggregate call site is chosen — the one
/// axis that decides which structure answers a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerMode {
    /// Cost-based: price every alternative from runtime statistics
    /// (`sgl_algebra::cost`) and re-cost on the given window.  Only
    /// meaningful under [`ExecMode::Compiled`]; behaviour-neutral by
    /// construction (every alternative returns identical results), so state
    /// digests never depend on the mode.
    CostBased(AdaptiveWindow),
    /// Install one backend on every call site that can use it, fixed for the
    /// whole run (see [`crate::planner::forced_choice`] for the rule):
    /// a site gets the backend when its strategy class prices it, and the
    /// paper's structure for its class otherwise.  `Force(Scan)` is the naive
    /// baseline of §6 and runs without an index view at all.
    Force(PhysicalBackend),
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
    /// Compiled (VM) or oracle execution.
    pub mode: ExecMode,
    /// Spatial attributes used by the index planner.
    pub spatial: Option<SpatialAttrs>,
    /// Use fractional cascading in the layered aggregate trees (§5.3.1).
    pub cascading: bool,
    /// Worker threads for the decision/action phases of a tick.
    pub parallelism: Parallelism,
    /// How physical backends are chosen per aggregate call site.
    pub planner: PlannerMode,
}

impl ExecConfig {
    /// Configuration for naive execution against a schema: every aggregate
    /// scans the whole environment (`O(n)` per unit, `O(n²)` per tick) — the
    /// baseline of §6, on the same bytecode as every planned configuration.
    pub fn naive(schema: &Schema) -> ExecConfig {
        ExecConfig {
            mode: ExecMode::Compiled,
            spatial: SpatialAttrs::from_schema(schema),
            cascading: false,
            parallelism: Parallelism::from_env().unwrap_or(Parallelism::Off),
            planner: PlannerMode::Force(PhysicalBackend::Scan),
        }
    }

    /// Configuration for the paper's indexed execution against a schema:
    /// layered aggregate trees with fractional cascading, sweep-line MIN/MAX
    /// and kD-tree nearest neighbours, all rebuilt every tick (§5.3).
    pub fn indexed(schema: &Schema) -> ExecConfig {
        ExecConfig {
            cascading: true,
            planner: PlannerMode::Force(PhysicalBackend::LayeredTree),
            ..ExecConfig::naive(schema)
        }
    }

    /// Configuration for the cost-based planner: indexed execution whose
    /// physical backends are chosen per call site by the cost model of
    /// [`sgl_algebra::cost`], re-costed on the default
    /// [`AdaptiveWindow`].
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
            parallelism: Parallelism::Off,
            planner: PlannerMode::Force(PhysicalBackend::Scan),
        }
    }

    /// True when ticks probe index structures: compiled execution under any
    /// planner but `Force(Scan)`.  The naive and oracle configurations open
    /// no index view, so every probe and area-of-effect clause scans.
    pub fn uses_indexes(&self) -> bool {
        self.mode == ExecMode::Compiled && self.planner != PlannerMode::Force(PhysicalBackend::Scan)
    }

    /// Set the execution mode.
    pub fn with_mode(mut self, mode: ExecMode) -> ExecConfig {
        self.mode = mode;
        self
    }

    /// Set the worker-thread count for tick execution.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> ExecConfig {
        self.parallelism = parallelism;
        self
    }

    /// Set the planner mode.
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
    /// Maintained partitions rebuilt from scratch (first build, a `Rebuild`
    /// maintenance choice, or invalidation).
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
        assert_eq!(naive.mode, ExecMode::Compiled);
        assert_eq!(naive.planner, PlannerMode::Force(PhysicalBackend::Scan));
        assert!(!naive.cascading);
        let indexed = ExecConfig::indexed(&schema);
        assert_eq!(indexed.mode, ExecMode::Compiled);
        assert_eq!(indexed.with_mode(ExecMode::Oracle).mode, ExecMode::Oracle);
        assert!(indexed.cascading);
        assert_eq!(
            indexed.planner,
            PlannerMode::Force(PhysicalBackend::LayeredTree)
        );
        let cost = ExecConfig::cost_based(&schema);
        assert!(cost.planner.is_cost_based() && cost.cascading);
        let oracle = ExecConfig::oracle(&schema);
        assert_eq!(oracle.mode, ExecMode::Oracle);
        assert!(!oracle.cascading);
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
        let schema = paper_schema();
        assert!(ExecConfig::indexed(&schema).uses_indexes());
        assert!(ExecConfig::cost_based(&schema).uses_indexes());
        assert!(!ExecConfig::naive(&schema).uses_indexes());
        assert!(!ExecConfig::oracle(&schema).uses_indexes());
        for backend in PhysicalBackend::ALL {
            let forced = ExecConfig::indexed(&schema).with_planner(PlannerMode::Force(backend));
            assert_eq!(forced.uses_indexes(), backend != PhysicalBackend::Scan);
            assert!(!forced.with_mode(ExecMode::Oracle).uses_indexes());
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
