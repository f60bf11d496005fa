//! Physical cost model for the cost-based planner (the database half of the
//! paper's thesis: *choose* the physical strategy per aggregate call site
//! instead of hard-coding it).
//!
//! The model prices every legal physical alternative of an aggregate call
//! site — naive scan, per-tick layered range tree, per-tick quadtree,
//! cross-tick maintained grid (incrementally patched or rebuilt), sweep-line
//! batch, kD-tree — from runtime statistics observed by the executor
//! (`sgl-exec` collects them, `sgl-engine` feeds them back across ticks):
//!
//! * `n` — environment cardinality,
//! * `p` — aggregate probes per tick at this call site,
//! * `s` — observed predicate selectivity (matched rows / cardinality),
//! * `u` — observed update rate (fraction of rows changed per tick),
//! * `parts` — categorical partitions behind the hash layer.
//!
//! Costs are expressed in microseconds through a set of per-operation
//! [`CostConstants`].  The defaults were calibrated by micro-measurements of
//! the real structures; `examples/calibrate_costs.rs` re-measures them for a
//! new machine.
//! Absolute scale cancels when alternatives are compared, so the *ratios*
//! are what the defaults have to get right.

/// Which physical structure answers an aggregate call site.
///
/// This is the decision surface of the cost-based planner; the executor's
/// `PlannedAggregate` carries one of these per call site and `explain`
/// renders both the chosen and the rejected alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhysicalBackend {
    /// Per-probe scan of the environment (the naive baseline).
    Scan,
    /// Layered aggregate range tree, rebuilt per tick (Figure 8).
    LayeredTree,
    /// Bucket PR quadtree with per-node summaries, rebuilt per tick.
    QuadTree,
    /// Cross-tick maintained dynamic aggregate grid.
    MaintainedGrid,
    /// Sweep-line MIN/MAX batch (Figure 9), rebuilt per tick.
    Sweep,
    /// kD-tree nearest neighbour, rebuilt per tick.
    KdTree,
    /// Materialized per-subscription answers patched from the delta stream
    /// (true IVM); misses recompute through the per-tick structures.
    Materialized,
}

impl PhysicalBackend {
    /// All backends, in the deterministic tie-break order of the planner.
    pub const ALL: [PhysicalBackend; 7] = [
        PhysicalBackend::Scan,
        PhysicalBackend::LayeredTree,
        PhysicalBackend::QuadTree,
        PhysicalBackend::MaintainedGrid,
        PhysicalBackend::Sweep,
        PhysicalBackend::KdTree,
        PhysicalBackend::Materialized,
    ];

    /// Stable label used by `explain`, tests and the perf JSON.
    pub fn label(&self) -> &'static str {
        match self {
            PhysicalBackend::Scan => "scan",
            PhysicalBackend::LayeredTree => "layered-tree",
            PhysicalBackend::QuadTree => "quadtree",
            PhysicalBackend::MaintainedGrid => "grid",
            PhysicalBackend::Sweep => "sweep",
            PhysicalBackend::KdTree => "kd-tree",
            PhysicalBackend::Materialized => "materialized",
        }
    }

    /// Index of the backend in [`PhysicalBackend::ALL`] (used for compact
    /// per-backend counters).
    pub fn index(&self) -> usize {
        PhysicalBackend::ALL
            .iter()
            .position(|b| b == self)
            .expect("backend listed in ALL")
    }
}

/// How the chosen structure is kept in sync with the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MaintenanceChoice {
    /// Rebuilt lazily per tick (rebuild backends and scans).
    PerTick,
    /// Maintained across ticks with per-unit deltas.
    Incremental,
    /// Maintained across ticks but rebuilt wholesale every tick — what the
    /// cost model flips to when the observed update rate crosses the
    /// incremental break-even.
    Rebuild,
}

impl MaintenanceChoice {
    /// Stable label used by `explain`, tests and the perf JSON.
    pub fn label(&self) -> &'static str {
        match self {
            MaintenanceChoice::PerTick => "per-tick",
            MaintenanceChoice::Incremental => "incremental",
            MaintenanceChoice::Rebuild => "rebuild",
        }
    }
}

/// Logical strategy class of a call site — determines which backends are
/// legal alternatives (legality is decided by the strategy planner; the cost
/// model only prices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyClass {
    /// Divisible aggregates (COUNT / SUM / AVG / STDDEV over a rectangle).
    Divisible,
    /// Exact MIN/MAX over a rectangle.
    MinMax,
    /// Nearest-neighbour argmin.
    Nearest,
}

impl StrategyClass {
    /// The backends [`price_alternatives`] prices for this class, in pricing
    /// order.  Nearest/argbest answers are records of arbitrary output terms
    /// over the winning row; an attribute of that row can change without any
    /// positional delta, which would silently stale a stored answer, so
    /// materialization is not a legal alternative there.
    pub fn alternatives(self) -> &'static [PhysicalBackend] {
        use PhysicalBackend::*;
        match self {
            StrategyClass::Divisible => {
                &[Scan, LayeredTree, QuadTree, MaintainedGrid, Materialized]
            }
            StrategyClass::MinMax => &[Scan, Sweep, QuadTree, MaintainedGrid, Materialized],
            StrategyClass::Nearest => &[Scan, KdTree, MaintainedGrid],
        }
    }

    /// The paper's structure for this class (§5.3): the layered aggregate
    /// tree for divisible aggregates, the sweep line for MIN/MAX and the
    /// kD-tree for nearest neighbours.
    pub fn paper_backend(self) -> PhysicalBackend {
        match self {
            StrategyClass::Divisible => PhysicalBackend::LayeredTree,
            StrategyClass::MinMax => PhysicalBackend::Sweep,
            StrategyClass::Nearest => PhysicalBackend::KdTree,
        }
    }
}

/// Calibration constants of the cost model, in microseconds per elementary
/// operation.  See [`CostConstants::default_calibration`] for provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Visiting one row during a scan probe.
    pub scan_row: f64,
    /// One row × one tree level of layered-tree construction.
    pub build_layered_row: f64,
    /// One (outer × inner) level step of a layered-tree probe.
    pub probe_layered: f64,
    /// One row of quadtree construction.
    pub build_quad_row: f64,
    /// One visited node/row of a quadtree probe.
    pub probe_quad: f64,
    /// One row × one level of kD-tree construction.
    pub build_kd_row: f64,
    /// One level of a kD-tree nearest probe.
    pub probe_kd: f64,
    /// One (row + query) × level step of a sweep-line batch.
    pub sweep_row: f64,
    /// One incremental delta applied to a maintained grid.
    pub grid_delta: f64,
    /// One row of a maintained-grid bulk rebuild.
    pub grid_build_row: f64,
    /// Fixed part of one maintained-grid probe (cell walk setup).
    pub grid_probe_base: f64,
    /// One matched row folded by a maintained-grid probe.
    pub grid_probe_row: f64,
    /// Fixed per-structure-per-tick overhead (allocation, partition
    /// bookkeeping) of every index alternative — what makes scans win on
    /// tiny tables.
    pub struct_overhead: f64,
    /// One delta × one materialized entry relevance check (rect containment
    /// + partition match) during answer maintenance.
    pub mat_delta: f64,
    /// One O(1) serve of a materialized answer (fingerprint lookup + clone).
    pub mat_serve: f64,
}

impl CostConstants {
    /// The checked-in calibration (measured with
    /// `examples/calibrate_costs.rs` on the reference container and
    /// rounded; only the ratios matter for planning).
    pub fn default_calibration() -> CostConstants {
        CostConstants {
            scan_row: 0.020,
            build_layered_row: 0.020,
            probe_layered: 0.020,
            build_quad_row: 0.030,
            probe_quad: 0.020,
            build_kd_row: 0.030,
            probe_kd: 0.050,
            sweep_row: 0.030,
            grid_delta: 0.100,
            grid_build_row: 0.040,
            grid_probe_base: 0.200,
            grid_probe_row: 0.020,
            struct_overhead: 5.0,
            mat_delta: 0.005,
            mat_serve: 0.050,
        }
    }

    /// Update rate above which incrementally patching a maintained grid is
    /// modeled as more expensive than rebuilding it wholesale: patching
    /// costs `u·n·grid_delta`, rebuilding `n·grid_build_row`, so the
    /// break-even is their per-row ratio.
    pub fn break_even_update_rate(&self) -> f64 {
        self.grid_build_row / self.grid_delta.max(1e-12)
    }
}

impl Default for CostConstants {
    fn default() -> CostConstants {
        CostConstants::default_calibration()
    }
}

/// Observed (or bootstrapped) statistics of one aggregate call site — the
/// inputs of the pricing formulas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallSiteInputs {
    /// Environment cardinality `n`.
    pub cardinality: f64,
    /// Aggregate probes per tick `p` at this call site.
    pub probes: f64,
    /// Predicate selectivity `s` — expected fraction of rows matched per
    /// probe, in `[0, 1]`.
    pub selectivity: f64,
    /// Update rate `u` — fraction of rows changed per tick, in `[0, 1]`.
    pub update_rate: f64,
    /// Categorical partitions behind the hash layer (structures built per
    /// tick per partition).
    pub partitions: f64,
    /// Whether layered trees use fractional cascading (probe drops from
    /// `log²n` to `log n`).
    pub cascading: bool,
}

impl CallSiteInputs {
    fn n(&self) -> f64 {
        self.cardinality.max(1.0)
    }

    fn log_n(&self) -> f64 {
        self.n().log2().max(1.0)
    }

    fn parts(&self) -> f64 {
        self.partitions.max(1.0)
    }
}

/// One priced physical alternative of a call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostedAlternative {
    /// The structure.
    pub backend: PhysicalBackend,
    /// How it is kept in sync.
    pub maintenance: MaintenanceChoice,
    /// Per-tick build / maintenance cost (µs).
    pub prepare_us: f64,
    /// Per-tick total probe cost (µs).
    pub probe_us: f64,
}

impl CostedAlternative {
    /// Total modeled per-tick cost (µs).
    pub fn total_us(&self) -> f64 {
        self.prepare_us + self.probe_us
    }
}

fn scan_alt(i: &CallSiteInputs, c: &CostConstants) -> CostedAlternative {
    CostedAlternative {
        backend: PhysicalBackend::Scan,
        maintenance: MaintenanceChoice::PerTick,
        prepare_us: 0.0,
        probe_us: i.probes * i.n() * c.scan_row,
    }
}

fn layered_alt(i: &CallSiteInputs, c: &CostConstants) -> CostedAlternative {
    let probe_levels = if i.cascading {
        3.0 * i.log_n()
    } else {
        i.log_n() * i.log_n()
    };
    CostedAlternative {
        backend: PhysicalBackend::LayeredTree,
        maintenance: MaintenanceChoice::PerTick,
        prepare_us: i.parts() * (c.struct_overhead + i.n() * i.log_n() * c.build_layered_row),
        probe_us: i.probes * probe_levels * c.probe_layered,
    }
}

fn quad_alt(i: &CallSiteInputs, c: &CostConstants) -> CostedAlternative {
    // A quadtree probe descends ~4·log₄(n) ≈ 2·log₂(n) nodes and touches the
    // matched leaves individually.
    CostedAlternative {
        backend: PhysicalBackend::QuadTree,
        maintenance: MaintenanceChoice::PerTick,
        prepare_us: i.parts() * (c.struct_overhead + i.n() * c.build_quad_row),
        probe_us: i.probes * (2.0 * i.log_n() + i.selectivity * i.n()) * c.probe_quad,
    }
}

/// Maintained grid: probe cost is shared by all strategy classes; the
/// maintenance side is the incremental-vs-rebuild break-even decision.
fn grid_alt(i: &CallSiteInputs, c: &CostConstants, probe_rows: f64) -> CostedAlternative {
    let incremental_us = i.update_rate * i.n() * c.grid_delta;
    let rebuild_us = i.n() * c.grid_build_row;
    let (maintenance, maint_us) = if incremental_us <= rebuild_us {
        (MaintenanceChoice::Incremental, incremental_us)
    } else {
        (MaintenanceChoice::Rebuild, rebuild_us)
    };
    CostedAlternative {
        backend: PhysicalBackend::MaintainedGrid,
        maintenance,
        prepare_us: c.struct_overhead + maint_us,
        probe_us: i.probes * (c.grid_probe_base + probe_rows * c.grid_probe_row),
    }
}

fn sweep_alt(i: &CallSiteInputs, c: &CostConstants) -> CostedAlternative {
    // One batch sorts data rows and queries together; answers are O(1) after
    // the batch.
    CostedAlternative {
        backend: PhysicalBackend::Sweep,
        maintenance: MaintenanceChoice::PerTick,
        prepare_us: c.struct_overhead + (i.n() + i.probes) * i.log_n() * c.sweep_row,
        probe_us: i.probes * c.probe_quad,
    }
}

/// Materialized per-subscription answers (true IVM).  The answer store is
/// patched from the delta stream (`u·n` deltas checked against ~`p` live
/// entries); a probe either serves its stored answer in O(1) or — when a
/// relevant delta invalidated the entry — recomputes through a per-tick
/// quadtree built only on ticks that actually miss.  The expected miss
/// fraction is `u·(1 + s·n)`: the subscriber itself moved (`u`) or one of
/// its ~`s·n` supporting rows changed (`u·s·n`) — exactly the
/// update-rate × selectivity product the planner is meant to weigh.
fn materialized_alt(i: &CallSiteInputs, c: &CostConstants) -> CostedAlternative {
    let deltas = i.update_rate * i.n();
    let miss = (i.update_rate * (1.0 + i.selectivity * i.n())).min(1.0);
    let misses = (i.probes * miss).min(i.probes);
    // The quadtree miss path is only built on ticks where at least one probe
    // misses.
    let build_present = misses.min(1.0);
    let build_us = build_present * i.parts() * (c.struct_overhead + i.n() * c.build_quad_row);
    let miss_probe_us = (2.0 * i.log_n() + i.selectivity * i.n()) * c.probe_quad;
    CostedAlternative {
        backend: PhysicalBackend::Materialized,
        maintenance: MaintenanceChoice::Incremental,
        prepare_us: c.struct_overhead + i.probes * deltas * c.mat_delta + build_us,
        probe_us: i.probes * c.mat_serve + misses * miss_probe_us,
    }
}

fn kd_alt(i: &CallSiteInputs, c: &CostConstants) -> CostedAlternative {
    CostedAlternative {
        backend: PhysicalBackend::KdTree,
        maintenance: MaintenanceChoice::PerTick,
        prepare_us: i.parts() * (c.struct_overhead + i.n() * i.log_n() * c.build_kd_row),
        probe_us: i.probes * i.log_n() * c.probe_kd,
    }
}

/// Price every legal alternative of a call site, in the order of
/// [`StrategyClass::alternatives`].
pub fn price_alternatives(
    class: StrategyClass,
    inputs: &CallSiteInputs,
    constants: &CostConstants,
) -> Vec<CostedAlternative> {
    class
        .alternatives()
        .iter()
        .map(|backend| match backend {
            PhysicalBackend::Scan => scan_alt(inputs, constants),
            PhysicalBackend::LayeredTree => layered_alt(inputs, constants),
            PhysicalBackend::QuadTree => quad_alt(inputs, constants),
            PhysicalBackend::MaintainedGrid => {
                let probe_rows = match class {
                    // A grid nearest probe ring-walks ~√n cells in the worst
                    // case.
                    StrategyClass::Nearest => inputs.n().sqrt(),
                    _ => inputs.selectivity * inputs.n(),
                };
                grid_alt(inputs, constants, probe_rows)
            }
            PhysicalBackend::Sweep => sweep_alt(inputs, constants),
            PhysicalBackend::KdTree => kd_alt(inputs, constants),
            PhysicalBackend::Materialized => materialized_alt(inputs, constants),
        })
        .collect()
}

/// The cheapest alternative (ties break toward the earlier entry, i.e. the
/// [`PhysicalBackend::ALL`] order — deterministic by construction).
pub fn best_alternative(alternatives: &[CostedAlternative]) -> CostedAlternative {
    let mut best = alternatives[0];
    for alt in &alternatives[1..] {
        if alt.total_us() < best.total_us() {
            best = *alt;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: f64, p: f64, s: f64, u: f64) -> CallSiteInputs {
        CallSiteInputs {
            cardinality: n,
            probes: p,
            selectivity: s,
            update_rate: u,
            partitions: 2.0,
            cascading: true,
        }
    }

    #[test]
    fn tiny_tables_scan() {
        let c = CostConstants::default();
        let alts = price_alternatives(StrategyClass::Divisible, &inputs(8.0, 8.0, 0.3, 0.5), &c);
        assert_eq!(best_alternative(&alts).backend, PhysicalBackend::Scan);
        let alts = price_alternatives(StrategyClass::Nearest, &inputs(6.0, 6.0, 1.0, 0.5), &c);
        assert_eq!(best_alternative(&alts).backend, PhysicalBackend::Scan);
    }

    #[test]
    fn large_tables_index() {
        let c = CostConstants::default();
        let alts = price_alternatives(
            StrategyClass::Divisible,
            &inputs(2000.0, 2000.0, 0.05, 0.3),
            &c,
        );
        assert_ne!(best_alternative(&alts).backend, PhysicalBackend::Scan);
        let alts = price_alternatives(
            StrategyClass::Nearest,
            &inputs(2000.0, 2000.0, 1.0, 0.3),
            &c,
        );
        assert_ne!(best_alternative(&alts).backend, PhysicalBackend::Scan);
    }

    #[test]
    fn dense_probes_prefer_selectivity_independent_structures() {
        let c = CostConstants::default();
        // Sparse probes: few matched rows per probe → the maintained grid's
        // per-row probe cost is negligible and its zero build cost wins.
        let sparse = best_alternative(&price_alternatives(
            StrategyClass::Divisible,
            &inputs(800.0, 800.0, 0.01, 0.3),
            &c,
        ));
        assert_eq!(sparse.backend, PhysicalBackend::MaintainedGrid);
        // Dense probes: half the world matches every probe → structures with
        // selectivity-independent probes (the layered tree) win.
        let dense = best_alternative(&price_alternatives(
            StrategyClass::Divisible,
            &inputs(800.0, 800.0, 0.5, 0.3),
            &c,
        ));
        assert_eq!(dense.backend, PhysicalBackend::LayeredTree);
    }

    #[test]
    fn update_rate_flips_incremental_to_rebuild() {
        let c = CostConstants::default();
        let break_even = c.break_even_update_rate();
        assert!(break_even > 0.0 && break_even < 1.0);
        let calm = best_alternative(&price_alternatives(
            StrategyClass::Divisible,
            &inputs(800.0, 800.0, 0.01, break_even * 0.5),
            &c,
        ));
        assert_eq!(calm.backend, PhysicalBackend::MaintainedGrid);
        assert_eq!(calm.maintenance, MaintenanceChoice::Incremental);
        let hot = best_alternative(&price_alternatives(
            StrategyClass::Divisible,
            &inputs(800.0, 800.0, 0.01, (break_even * 2.0).min(1.0)),
            &c,
        ));
        assert_eq!(hot.backend, PhysicalBackend::MaintainedGrid);
        assert_eq!(hot.maintenance, MaintenanceChoice::Rebuild);
    }

    #[test]
    fn low_churn_prefers_materialized_answers() {
        let c = CostConstants::default();
        // Nearly static world, sparse probes: serving stored answers in O(1)
        // beats even the maintained grid's per-probe cell walk.
        for class in [StrategyClass::Divisible, StrategyClass::MinMax] {
            let calm = best_alternative(&price_alternatives(
                class,
                &inputs(800.0, 800.0, 0.01, 0.01),
                &c,
            ));
            assert_eq!(calm.backend, PhysicalBackend::Materialized, "{class:?}");
            assert_eq!(calm.maintenance, MaintenanceChoice::Incremental);
        }
    }

    #[test]
    fn high_churn_avoids_materialized_answers() {
        let c = CostConstants::default();
        // Heavy movement invalidates most entries every tick: the miss-path
        // recompute plus the delta × entry patch sweep must price
        // materialization out.
        for class in [StrategyClass::Divisible, StrategyClass::MinMax] {
            let hot = best_alternative(&price_alternatives(
                class,
                &inputs(800.0, 800.0, 0.01, 0.5),
                &c,
            ));
            assert_ne!(hot.backend, PhysicalBackend::Materialized, "{class:?}");
        }
        // Nearest sites never even price it (stale-output hazard).
        for alt in price_alternatives(
            StrategyClass::Nearest,
            &inputs(800.0, 800.0, 0.01, 0.01),
            &c,
        ) {
            assert_ne!(alt.backend, PhysicalBackend::Materialized);
        }
    }

    #[test]
    fn labels_and_indices_are_stable() {
        for (i, backend) in PhysicalBackend::ALL.iter().enumerate() {
            assert_eq!(backend.index(), i);
            assert!(!backend.label().is_empty());
        }
        assert_eq!(MaintenanceChoice::Incremental.label(), "incremental");
        assert_eq!(MaintenanceChoice::Rebuild.label(), "rebuild");
        assert_eq!(MaintenanceChoice::PerTick.label(), "per-tick");
    }

    #[test]
    fn costs_are_finite_and_positive() {
        let c = CostConstants::default();
        for class in [
            StrategyClass::Divisible,
            StrategyClass::MinMax,
            StrategyClass::Nearest,
        ] {
            for alt in price_alternatives(class, &inputs(100.0, 50.0, 0.2, 0.4), &c) {
                assert!(alt.total_us().is_finite());
                assert!(alt.total_us() >= 0.0, "{alt:?}");
            }
        }
    }
}
