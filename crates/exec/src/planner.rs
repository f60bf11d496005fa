//! Index selection for aggregate calls (the physical side of §5.3).
//!
//! For every aggregate definition the planner inspects the filter analysis
//! and the aggregate functions and picks one of four strategies:
//!
//! | strategy | used when | structure |
//! |---|---|---|
//! | `DivisibleTree` | all outputs divisible, exact conjunctive filter | layered aggregate range tree per categorical partition |
//! | `SweepMinMax` | MIN/MAX outputs over a full rectangle | sweep-line + segment tree (constant range size per batch) |
//! | `KdNearest` | argmin of squared distance | kD-tree per categorical partition |
//! | `Scan` | anything else | per-unit scan (identical to the naive executor) |
//!
//! The strategy fixes the site's [`StrategyClass`]; which physical backend
//! of that class answers the site is the [`PhysicalChoice`] installed by the
//! configured [`PlannerMode`](crate::PlannerMode): [`forced_choice`] at
//! planning time ([`crate::plan_registry`]), or the cost-based planner's
//! [`choose_physical`] at every re-costing window.

use rustc_hash::FxHashMap;

use sgl_algebra::cost::{
    best_alternative, price_alternatives, CostConstants, CostedAlternative, MaintenanceChoice,
    PhysicalBackend, StrategyClass,
};
use sgl_env::Schema;
use sgl_index::traits::AggStructureKind;
use sgl_lang::ast::Term;
use sgl_lang::builtins::{AggSpec, AggregateDef, SimpleAgg};

use crate::config::{ExecConfig, SpatialAttrs};
use crate::filter::{analyze_filter, FilterAnalysis};
use crate::stats::RuntimeStats;

/// The physical strategy chosen for an aggregate.
#[derive(Debug, Clone, PartialEq)]
pub enum AggStrategy {
    /// Prefix-aggregate layered range tree (Figure 8).
    DivisibleTree {
        /// The distinct channel value terms (over `e.*`) the tree carries.
        channels: Vec<Term>,
        /// For each output: `(output index into def outputs, channel index or
        /// None for COUNT)`.
        output_channels: Vec<Option<usize>>,
    },
    /// Sweep-line MIN/MAX (Figure 9); one sweep per output.
    SweepMinMax,
    /// kD-tree nearest neighbour (§5.3.2).
    KdNearest,
    /// Fall back to scanning the environment for each probing unit.
    Scan,
}

/// The physical decision for one call site: the chosen backend and
/// maintenance, the modeled cost, and every priced alternative (kept for
/// `explain`; empty for a forced choice).
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalChoice {
    /// The structure that answers this call site.
    pub backend: PhysicalBackend,
    /// How the structure is kept in sync.
    pub maintenance: MaintenanceChoice,
    /// Modeled per-tick cost of the chosen alternative (µs).
    pub est_us: f64,
    /// Every priced alternative, in pricing order.
    pub alternatives: Vec<CostedAlternative>,
}

/// A planned aggregate: definition + filter analysis + strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedAggregate {
    /// The aggregate definition.
    pub def: AggregateDef,
    /// Analysis of its filter.
    pub analysis: FilterAnalysis,
    /// Chosen strategy.
    pub strategy: AggStrategy,
    /// Installed physical choice.  `None` for scan strategies, and for
    /// indexable sites only until the cost-based planner's first pricing
    /// pass; a site without a choice is answered by the scan.
    pub choice: Option<PhysicalChoice>,
}

impl PlannedAggregate {
    /// The per-tick aggregate structure behind the installed choice: the
    /// physical half of the plan, separated from the strategy so one logical
    /// plan runs under every backend.  `None` for scans, kD-trees (not an
    /// aggregate-accumulator structure) and sites without a choice.
    /// `Sweep` keeps a quadtree for the probes the sweep batch cannot serve
    /// (rectangles not centred on the unit).
    pub fn structure(&self, config: &ExecConfig) -> Option<AggStructureKind> {
        match self.choice.as_ref()?.backend {
            PhysicalBackend::Scan | PhysicalBackend::KdTree => None,
            PhysicalBackend::LayeredTree => Some(AggStructureKind::LayeredTree {
                cascading: config.cascading,
            }),
            PhysicalBackend::QuadTree | PhysicalBackend::Sweep => {
                Some(AggStructureKind::QuadTree { bucket: 8 })
            }
            PhysicalBackend::MaintainedGrid => Some(AggStructureKind::DynamicGrid { cell: 0.0 }),
            // Materialized answers recompute through a per-tick quadtree on a
            // miss; it is only built on ticks that actually miss, so the
            // cheap-build structure wins over the layered tree here.
            PhysicalBackend::Materialized => Some(AggStructureKind::QuadTree { bucket: 8 }),
        }
    }

    /// The channel value terms the backing structure carries: the distinct
    /// divisible channels, one channel per MIN/MAX output, or none for
    /// nearest-neighbour / scan strategies.
    pub fn channel_terms(&self) -> Vec<Term> {
        match &self.strategy {
            AggStrategy::DivisibleTree { channels, .. } => channels.clone(),
            AggStrategy::SweepMinMax => match &self.def.spec {
                AggSpec::Simple { outputs } => outputs.iter().map(|o| o.value.clone()).collect(),
                AggSpec::ArgBest { .. } => Vec::new(),
            },
            AggStrategy::KdNearest | AggStrategy::Scan => Vec::new(),
        }
    }

    /// Whether the strategy is answered from an index at all.
    pub fn is_indexed(&self) -> bool {
        self.strategy != AggStrategy::Scan
    }
}

fn term_references_unit(term: &Term) -> bool {
    match term {
        Term::Var(sgl_lang::ast::VarRef::Unit(_)) => true,
        Term::Var(_) | Term::Const(_) => false,
        Term::Random(t) | Term::Neg(t) | Term::Abs(t) | Term::Sqrt(t) | Term::Field(t, _) => {
            term_references_unit(t)
        }
        Term::Bin { left, right, .. } => term_references_unit(left) || term_references_unit(right),
        Term::Tuple(items) => items.iter().any(term_references_unit),
        Term::Agg(call) => call.args.iter().any(term_references_unit),
    }
}

/// Index structures evaluate per-row value terms once at build time with a
/// fixed RNG context, so `Random(...)` inside a value term would diverge
/// from the per-probe naive evaluation — such terms must stay on the scan
/// path.
fn term_contains_random(term: &Term) -> bool {
    match term {
        Term::Random(_) => true,
        Term::Var(_) | Term::Const(_) => false,
        Term::Neg(t) | Term::Abs(t) | Term::Sqrt(t) | Term::Field(t, _) => term_contains_random(t),
        Term::Bin { left, right, .. } => term_contains_random(left) || term_contains_random(right),
        Term::Tuple(items) => items.iter().any(term_contains_random),
        Term::Agg(call) => call.args.iter().any(term_contains_random),
    }
}

/// A value term may be carried as an index channel only when it is stable
/// per row: independent of the probing unit and of the per-tick RNG.
fn indexable_value_term(term: &Term) -> bool {
    !term_references_unit(term) && !term_contains_random(term)
}

fn is_squared_distance(term: &Term, schema: &Schema, spatial: SpatialAttrs) -> bool {
    // Structural check against (e.x - u.x)² + (e.y - u.y)² in either order.
    let x = schema.attr(spatial.x).name.clone();
    let y = schema.attr(spatial.y).name.clone();
    let sq = |attr: &str| {
        let d = Term::bin(sgl_lang::ast::BinOp::Sub, Term::row(attr), Term::unit(attr));
        Term::bin(sgl_lang::ast::BinOp::Mul, d.clone(), d)
    };
    let a = Term::bin(sgl_lang::ast::BinOp::Add, sq(&x), sq(&y));
    let b = Term::bin(sgl_lang::ast::BinOp::Add, sq(&y), sq(&x));
    *term == a || *term == b
}

/// Plan a single aggregate definition.
pub fn plan_aggregate(
    def: &AggregateDef,
    schema: &Schema,
    spatial: Option<SpatialAttrs>,
) -> PlannedAggregate {
    let analysis = analyze_filter(&def.filter, schema, spatial);
    let strategy = choose_strategy(def, &analysis, schema, spatial);
    PlannedAggregate {
        def: def.clone(),
        analysis,
        strategy,
        choice: None,
    }
}

/// The cost-model strategy class of a planned aggregate; `None` for scan
/// strategies (no alternatives to price).
pub fn strategy_class(strategy: &AggStrategy) -> Option<StrategyClass> {
    match strategy {
        AggStrategy::DivisibleTree { .. } => Some(StrategyClass::Divisible),
        AggStrategy::SweepMinMax => Some(StrategyClass::MinMax),
        AggStrategy::KdNearest => Some(StrategyClass::Nearest),
        AggStrategy::Scan => None,
    }
}

/// One re-costing pass of the cost-based planner: price every alternative of
/// every indexable call site from the runtime statistics and install the
/// cheapest as the call site's [`PhysicalChoice`].  Returns how many call
/// sites changed backend or maintenance — the `plan_switches` counter.
///
/// Every alternative returns identical results (the conformance lattice
/// proves it), so this only ever moves *cost*, never observable behaviour.
pub fn choose_physical(
    planned: &mut FxHashMap<String, PlannedAggregate>,
    stats: &RuntimeStats,
    constants: &CostConstants,
    cardinality: usize,
    cascading: bool,
) -> usize {
    let mut switches = 0;
    for (name, plan) in planned.iter_mut() {
        let Some(class) = strategy_class(&plan.strategy) else {
            plan.choice = None;
            continue;
        };
        let inputs = stats.inputs_for(name, cardinality, cascading);
        let alternatives = price_alternatives(class, &inputs, constants);
        let best = best_alternative(&alternatives);
        let changed = plan
            .choice
            .as_ref()
            .map(|c| (c.backend, c.maintenance) != (best.backend, best.maintenance))
            .unwrap_or(true);
        if changed {
            switches += 1;
        }
        plan.choice = Some(PhysicalChoice {
            backend: best.backend,
            maintenance: best.maintenance,
            est_us: best.total_us(),
            alternatives,
        });
    }
    switches
}

/// The choice `Force(backend)` ([`crate::PlannerMode::Force`]) installs on
/// a site of `class` — one fixed rule for every backend:
///
/// * the site gets `backend` when its class prices it
///   ([`StrategyClass::alternatives`]), and the paper's structure for the
///   class ([`StrategyClass::paper_backend`]) otherwise — so
///   `Force(LayeredTree)`, `Force(Sweep)` and `Force(KdTree)` all install the
///   paper's plan, and nearest sites are never materialized;
/// * maintained grids and materialized answers are patched incrementally;
///   every other backend is rebuilt per tick.
pub fn forced_choice(class: StrategyClass, backend: PhysicalBackend) -> PhysicalChoice {
    let backend = if class.alternatives().contains(&backend) {
        backend
    } else {
        class.paper_backend()
    };
    let maintenance = match backend {
        PhysicalBackend::MaintainedGrid | PhysicalBackend::Materialized => {
            MaintenanceChoice::Incremental
        }
        _ => MaintenanceChoice::PerTick,
    };
    PhysicalChoice {
        backend,
        maintenance,
        est_us: 0.0,
        alternatives: Vec::new(),
    }
}

fn choose_strategy(
    def: &AggregateDef,
    analysis: &FilterAnalysis,
    schema: &Schema,
    spatial: Option<SpatialAttrs>,
) -> AggStrategy {
    let Some(spatial) = spatial else {
        return AggStrategy::Scan;
    };
    if !analysis.is_exact() || analysis.key_eq.is_some() {
        return AggStrategy::Scan;
    }
    match &def.spec {
        AggSpec::Simple { outputs } => {
            let all_divisible = outputs.iter().all(|o| o.func.is_divisible());
            // A shared index is only possible when the per-row value does not
            // depend on the probing unit (COUNT ignores its value term).
            let values_ok = outputs
                .iter()
                .all(|o| o.func == SimpleAgg::Count || indexable_value_term(&o.value));
            if all_divisible && values_ok {
                // Collect distinct channel terms.
                let mut channels: Vec<Term> = Vec::new();
                let mut output_channels = Vec::with_capacity(outputs.len());
                for o in outputs {
                    if o.func == SimpleAgg::Count {
                        output_channels.push(None);
                        continue;
                    }
                    let pos = channels
                        .iter()
                        .position(|c| *c == o.value)
                        .unwrap_or_else(|| {
                            channels.push(o.value.clone());
                            channels.len() - 1
                        });
                    output_channels.push(Some(pos));
                }
                return AggStrategy::DivisibleTree {
                    channels,
                    output_channels,
                };
            }
            let all_minmax = outputs.iter().all(|o| {
                matches!(o.func, SimpleAgg::Min | SimpleAgg::Max) && indexable_value_term(&o.value)
            });
            if all_minmax && analysis.has_rect() {
                return AggStrategy::SweepMinMax;
            }
            AggStrategy::Scan
        }
        AggSpec::ArgBest {
            minimize,
            rank,
            outputs,
        } => {
            let outputs_ok = outputs
                .iter()
                .all(|(_, t, _)| !term_references_unit(t) && !term_contains_random(t));
            // The nearest-neighbour structures answer the *unbounded*
            // nearest probe; a spatial bound in the filter would need the
            // nearest-inside-a-rectangle query, which they do not answer —
            // fall back to scanning rather than silently ignoring it.
            if *minimize
                && outputs_ok
                && !analysis.has_rect()
                && is_squared_distance(rank, schema, spatial)
            {
                AggStrategy::KdNearest
            } else {
                AggStrategy::Scan
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_env::schema::paper_schema;
    use sgl_env::Value;
    use sgl_lang::ast::{CmpOp, Cond};
    use sgl_lang::builtins::{enemy_filter, paper_registry, rect_range_filter, AggOutput};

    fn spatial(schema: &Schema) -> Option<SpatialAttrs> {
        SpatialAttrs::from_schema(schema)
    }

    #[test]
    fn count_and_centroid_use_the_divisible_tree() {
        let schema = paper_schema();
        let registry = paper_registry();
        let count = plan_aggregate(
            registry.aggregate("CountEnemiesInRange").unwrap(),
            &schema,
            spatial(&schema),
        );
        match count.strategy {
            AggStrategy::DivisibleTree {
                channels,
                output_channels,
            } => {
                assert!(channels.is_empty());
                assert_eq!(output_channels, vec![None]);
            }
            other => panic!("unexpected {other:?}"),
        }
        let centroid = plan_aggregate(
            registry.aggregate("CentroidOfEnemyUnits").unwrap(),
            &schema,
            spatial(&schema),
        );
        match centroid.strategy {
            AggStrategy::DivisibleTree {
                channels,
                output_channels,
            } => {
                assert_eq!(channels.len(), 2);
                assert_eq!(output_channels, vec![Some(0), Some(1)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nearest_enemy_uses_the_kd_tree() {
        let schema = paper_schema();
        let registry = paper_registry();
        let plan = plan_aggregate(
            registry.aggregate("getNearestEnemy").unwrap(),
            &schema,
            spatial(&schema),
        );
        assert_eq!(plan.strategy, AggStrategy::KdNearest);
    }

    #[test]
    fn min_aggregate_over_a_rect_uses_the_sweep_line() {
        let schema = paper_schema();
        let plan = plan_aggregate(&weakest_enemy_health(), &schema, spatial(&schema));
        assert_eq!(plan.strategy, AggStrategy::SweepMinMax);
    }

    #[test]
    fn residual_filters_fall_back_to_scans() {
        let schema = paper_schema();
        let def = AggregateDef {
            name: "CountWounded".into(),
            params: vec!["u".into()],
            filter: sgl_lang::parse_cond("e.health <= e.damage").unwrap(),
            spec: AggSpec::Simple {
                outputs: vec![AggOutput {
                    name: "value".into(),
                    func: SimpleAgg::Count,
                    value: Term::int(1),
                    default: Value::Int(0),
                }],
            },
        };
        let plan = plan_aggregate(&def, &schema, spatial(&schema));
        assert_eq!(plan.strategy, AggStrategy::Scan);
    }

    #[test]
    fn value_terms_referencing_the_unit_force_scans() {
        let schema = paper_schema();
        let def = AggregateDef {
            name: "SumRelativeHealth".into(),
            params: vec!["u".into(), "range".into()],
            filter: rect_range_filter(Term::name("range")),
            spec: AggSpec::Simple {
                outputs: vec![AggOutput {
                    name: "value".into(),
                    func: SimpleAgg::Sum,
                    value: Term::bin(
                        sgl_lang::ast::BinOp::Sub,
                        Term::row("health"),
                        Term::unit("health"),
                    ),
                    default: Value::Float(0.0),
                }],
            },
        };
        let plan = plan_aggregate(&def, &schema, spatial(&schema));
        assert_eq!(plan.strategy, AggStrategy::Scan);
    }

    #[test]
    fn missing_spatial_attributes_force_scans() {
        let schema = paper_schema();
        let registry = paper_registry();
        let plan = plan_aggregate(
            registry.aggregate("CountEnemiesInRange").unwrap(),
            &schema,
            None,
        );
        assert_eq!(plan.strategy, AggStrategy::Scan);
    }

    #[test]
    fn key_equality_filters_force_scans() {
        let schema = paper_schema();
        let def = AggregateDef {
            name: "TargetHealth".into(),
            params: vec!["u".into(), "target".into()],
            filter: Cond::cmp(CmpOp::Eq, Term::row("key"), Term::name("target")),
            spec: AggSpec::Simple {
                outputs: vec![AggOutput {
                    name: "value".into(),
                    func: SimpleAgg::Sum,
                    value: Term::row("health"),
                    default: Value::Float(0.0),
                }],
            },
        };
        let plan = plan_aggregate(&def, &schema, spatial(&schema));
        assert_eq!(plan.strategy, AggStrategy::Scan);
    }

    #[test]
    fn structure_selection_follows_policy_and_backend() {
        use crate::config::PlannerMode;
        use sgl_env::EnvTable;
        use sgl_index::traits::AggStructureKind;
        let schema = paper_schema().into_shared();
        let table = EnvTable::new(schema.clone());
        let registry = paper_registry();
        let plan = |config: &ExecConfig, name: &str| {
            crate::tick::plan_registry(&registry, &table, config)[name].clone()
        };
        let indexed = ExecConfig::indexed(&schema);
        let count = plan(&indexed, "CountEnemiesInRange");
        assert_eq!(
            count.structure(&indexed),
            Some(AggStructureKind::LayeredTree { cascading: true })
        );
        let quad = indexed.with_planner(PlannerMode::Force(PhysicalBackend::QuadTree));
        assert_eq!(
            plan(&quad, "CountEnemiesInRange").structure(&quad),
            Some(AggStructureKind::QuadTree { bucket: 8 })
        );
        let grid = indexed.with_planner(PlannerMode::Force(PhysicalBackend::MaintainedGrid));
        assert_eq!(
            plan(&grid, "CountEnemiesInRange").structure(&grid),
            Some(AggStructureKind::DynamicGrid { cell: 0.0 })
        );
        assert_eq!(plan(&indexed, "getNearestEnemy").structure(&indexed), None);
        assert!(count.is_indexed());
        assert!(count.channel_terms().is_empty());
        assert_eq!(
            plan(&indexed, "CentroidOfEnemyUnits").channel_terms().len(),
            2
        );
    }

    #[test]
    fn random_value_terms_force_scans() {
        let schema = paper_schema();
        let def = AggregateDef {
            name: "SumRandomDamage".into(),
            params: vec!["u".into(), "range".into()],
            filter: rect_range_filter(Term::name("range")),
            spec: AggSpec::Simple {
                outputs: vec![AggOutput {
                    name: "value".into(),
                    func: SimpleAgg::Sum,
                    value: Term::bin(
                        sgl_lang::ast::BinOp::Mul,
                        Term::row("damage"),
                        Term::Random(Box::new(Term::int(1))),
                    ),
                    default: Value::Float(0.0),
                }],
            },
        };
        let plan = plan_aggregate(&def, &schema, spatial(&schema));
        assert_eq!(plan.strategy, AggStrategy::Scan);
    }

    #[test]
    fn range_limited_nearest_forces_scans() {
        let schema = paper_schema();
        let registry = paper_registry();
        let base = registry.aggregate("getNearestEnemy").unwrap();
        let mut def = base.clone();
        def.filter = Cond::and(rect_range_filter(Term::name("range")), def.filter.clone());
        def.params.push("range".into());
        let plan = plan_aggregate(&def, &schema, spatial(&schema));
        assert_eq!(
            plan.strategy,
            AggStrategy::Scan,
            "the kD path answers unbounded nearest only"
        );
        // The unmodified builtin still plans onto the kD-tree.
        assert_eq!(
            plan_aggregate(base, &schema, spatial(&schema)).strategy,
            AggStrategy::KdNearest
        );
    }

    #[test]
    fn choose_physical_installs_and_switches_choices() {
        use crate::stats::RuntimeStats;
        let schema = paper_schema();
        let registry = paper_registry();
        let mut planned = FxHashMap::default();
        for name in registry.aggregate_names() {
            let def = registry.aggregate(name).unwrap();
            planned.insert(
                name.to_string(),
                plan_aggregate(def, &schema, spatial(&schema)),
            );
        }
        let constants = CostConstants::default();
        let stats = RuntimeStats::default();

        // Tiny environment: every indexable call site prices onto the scan
        // path; the first pass counts one switch per priced call site.
        let switches = choose_physical(&mut planned, &stats, &constants, 6, true);
        let priced = planned
            .values()
            .filter(|p| strategy_class(&p.strategy).is_some())
            .count();
        assert!(priced > 0);
        assert_eq!(switches, priced);
        for plan in planned.values() {
            match (&plan.choice, strategy_class(&plan.strategy)) {
                (Some(choice), Some(_)) => {
                    assert_eq!(choice.backend, PhysicalBackend::Scan, "{}", plan.def.name);
                    assert!(!choice.alternatives.is_empty());
                    assert!(choice.est_us.is_finite());
                    // A scan choice routes probes away from the index cache.
                    assert_eq!(plan.structure(&ExecConfig::indexed(&schema)), None);
                }
                (None, None) => {}
                other => panic!("inconsistent choice {other:?}"),
            }
        }

        // Same statistics again: nothing switches.
        assert_eq!(
            choose_physical(&mut planned, &stats, &constants, 6, true),
            0
        );
        // A big environment re-prices every call site off the scan path.
        let switches = choose_physical(&mut planned, &stats, &constants, 5000, true);
        assert_eq!(switches, priced);
        for plan in planned.values() {
            if let Some(choice) = &plan.choice {
                assert_ne!(choice.backend, PhysicalBackend::Scan, "{}", plan.def.name);
            }
        }
    }

    #[test]
    fn choices_override_the_heuristic_structure_mapping() {
        use sgl_algebra::cost::MaintenanceChoice;
        use sgl_index::traits::AggStructureKind;
        let schema = paper_schema();
        let registry = paper_registry();
        let mut count = plan_aggregate(
            registry.aggregate("CountEnemiesInRange").unwrap(),
            &schema,
            spatial(&schema),
        );
        let config = ExecConfig::indexed(&schema);
        let choose = |backend| PhysicalChoice {
            backend,
            maintenance: MaintenanceChoice::PerTick,
            est_us: 1.0,
            alternatives: Vec::new(),
        };
        count.choice = Some(choose(PhysicalBackend::QuadTree));
        assert_eq!(
            count.structure(&config),
            Some(AggStructureKind::QuadTree { bucket: 8 })
        );
        count.choice = Some(choose(PhysicalBackend::MaintainedGrid));
        assert_eq!(
            count.structure(&config),
            Some(AggStructureKind::DynamicGrid { cell: 0.0 })
        );
        count.choice = Some(choose(PhysicalBackend::LayeredTree));
        assert_eq!(
            count.structure(&config),
            Some(AggStructureKind::LayeredTree { cascading: true })
        );
        count.choice = Some(choose(PhysicalBackend::Scan));
        assert_eq!(count.structure(&config), None);
        count.choice = Some(choose(PhysicalBackend::Materialized));
        assert_eq!(
            count.structure(&config),
            Some(AggStructureKind::QuadTree { bucket: 8 }),
            "the materialized miss path recomputes through a quadtree"
        );
    }

    /// A MIN aggregate over a rectangle: the strategy class the paper
    /// registry lacks and the battle registry has.
    fn weakest_enemy_health() -> AggregateDef {
        AggregateDef {
            name: "WeakestEnemyHealth".into(),
            params: vec!["u".into(), "range".into()],
            filter: Cond::and(rect_range_filter(Term::name("range")), enemy_filter()),
            spec: AggSpec::Simple {
                outputs: vec![AggOutput {
                    name: "value".into(),
                    func: SimpleAgg::Min,
                    value: Term::row("health"),
                    default: Value::Float(f64::INFINITY),
                }],
            },
        }
    }

    #[test]
    fn forced_plans_follow_one_rule_for_every_backend() {
        use crate::config::PlannerMode;
        use sgl_env::EnvTable;
        use MaintenanceChoice::{Incremental, PerTick};
        use PhysicalBackend::*;

        let schema = paper_schema().into_shared();
        let table = EnvTable::new(schema.clone());
        let mut registry = paper_registry();
        registry.register_aggregate(weakest_enemy_health());
        let classes = [
            StrategyClass::Divisible,
            StrategyClass::MinMax,
            StrategyClass::Nearest,
        ];
        // The installed (backend, maintenance) of every forced backend, per
        // class in the order of `classes`.
        let expected = [
            (Scan, [(Scan, PerTick), (Scan, PerTick), (Scan, PerTick)]),
            (
                LayeredTree,
                [(LayeredTree, PerTick), (Sweep, PerTick), (KdTree, PerTick)],
            ),
            (
                QuadTree,
                [(QuadTree, PerTick), (QuadTree, PerTick), (KdTree, PerTick)],
            ),
            (MaintainedGrid, [(MaintainedGrid, Incremental); 3]),
            (
                Sweep,
                [(LayeredTree, PerTick), (Sweep, PerTick), (KdTree, PerTick)],
            ),
            (
                KdTree,
                [(LayeredTree, PerTick), (Sweep, PerTick), (KdTree, PerTick)],
            ),
            (
                Materialized,
                [
                    (Materialized, Incremental),
                    (Materialized, Incremental),
                    (KdTree, PerTick),
                ],
            ),
        ];
        assert_eq!(expected.map(|(b, _)| b), PhysicalBackend::ALL);

        let plan_under = |backend| {
            let config = ExecConfig::indexed(&schema).with_planner(PlannerMode::Force(backend));
            crate::tick::plan_registry(&registry, &table, &config)
        };
        for (forced, per_class) in expected {
            let planned = plan_under(forced);
            let mut seen = [false; 3];
            for plan in planned.values() {
                let Some(class) = strategy_class(&plan.strategy) else {
                    assert_eq!(
                        plan.choice, None,
                        "{}: scan sites keep no choice",
                        plan.def.name
                    );
                    continue;
                };
                let i = classes.iter().position(|c| *c == class).unwrap();
                seen[i] = true;
                let choice = plan
                    .choice
                    .as_ref()
                    .expect("every indexable site is planned");
                assert_eq!(
                    (choice.backend, choice.maintenance),
                    per_class[i],
                    "Force({forced:?}) on {}",
                    plan.def.name
                );
                if class == StrategyClass::Nearest {
                    assert_ne!(
                        choice.backend, Materialized,
                        "nearest is never materialized"
                    );
                }
            }
            assert_eq!(seen, [true; 3], "every class is exercised");
        }

        // The paper's plan is one plan, whichever of its backends is forced.
        let paper = plan_under(LayeredTree);
        assert_eq!(plan_under(Sweep), paper);
        assert_eq!(plan_under(KdTree), paper);

        // The indexed preset reports the labels of the paper's structures.
        let indexed = crate::tick::plan_registry(&registry, &table, &ExecConfig::indexed(&schema));
        for (name, label) in [
            ("CountEnemiesInRange", "layered-tree"),
            ("WeakestEnemyHealth", "sweep"),
            ("getNearestEnemy", "kd-tree"),
        ] {
            let choice = indexed[name].choice.as_ref().unwrap();
            assert_eq!(
                (choice.backend.label(), choice.maintenance.label()),
                (label, "per-tick")
            );
        }
    }

    #[test]
    fn squared_distance_recognition() {
        let schema = paper_schema();
        let s = spatial(&schema).unwrap();
        assert!(is_squared_distance(
            &sgl_lang::builtins::squared_distance(),
            &schema,
            s
        ));
        assert!(!is_squared_distance(&Term::int(1), &schema, s));
    }
}
