//! # sgl-core — the assembled SGL system
//!
//! This crate glues the SGL front end (`sgl-lang`), the algebraic optimizer
//! (`sgl-algebra`), the executors (`sgl-exec`) and the discrete simulation
//! engine (`sgl-engine`) into the compile-and-run pipeline a game integrates:
//!
//! ```text
//! SGL source ──parse──▶ AST ──normalize──▶ normal form ──check──▶
//!   ──translate──▶ logical plan ──optimize──▶ optimized plan ──▶ Simulation
//! ```
//!
//! The [`compile_script`] function performs the full front-end pipeline; the
//! [`GameBuilder`] assembles a [`sgl_engine::Simulation`] from a schema, a
//! registry of built-ins, game mechanics and a set of scripts.

#![warn(missing_docs)]

use std::sync::Arc;

use sgl_algebra::{optimize_with, Optimized, OptimizerOptions};
use sgl_engine::{Mechanics, Simulation, UnitSelector};
use sgl_env::{EnvTable, Schema};
use sgl_exec::ExecConfig;
use sgl_lang::normalize::normalize;
use sgl_lang::typecheck::{check_registry, check_script};
use sgl_lang::{parse_script, CheckReport, LangError, Registry};

pub use sgl_algebra as algebra;
pub use sgl_engine as engine;
pub use sgl_env as env;
pub use sgl_exec as exec;
pub use sgl_index as index;
pub use sgl_lang as lang;

/// A fully compiled SGL script: the optimized plan plus compile-time reports.
#[derive(Debug, Clone)]
pub struct CompiledScript {
    /// Name given at compile time (for diagnostics).
    pub name: String,
    /// Result of the optimizer (plan + before/after statistics).
    pub optimized: Optimized,
    /// The normalized script the plan was translated from — kept so the
    /// simulation can also run it under the differential
    /// `sgl_exec::ExecMode::Oracle` (tree-walking reference interpreter).
    pub normal: sgl_lang::normalize::NormalScript,
    /// Type-check report (aggregate call sites, performs, nesting depth).
    pub check: CheckReport,
}

impl CompiledScript {
    /// The optimized logical plan.
    pub fn plan(&self) -> &sgl_algebra::LogicalPlan {
        &self.optimized.plan
    }
}

/// Errors of the compile pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Front-end error (lexing, parsing, normalisation, type checking).
    Lang(LangError),
    /// The script passed the front end but does not lower to register
    /// bytecode, so the simulation cannot run it.
    Bytecode(sgl_exec::CompileError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lang(e) => write!(f, "{e}"),
            CompileError::Bytecode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LangError> for CompileError {
    fn from(e: LangError) -> Self {
        CompileError::Lang(e)
    }
}

impl From<sgl_exec::CompileError> for CompileError {
    fn from(e: sgl_exec::CompileError) -> Self {
        CompileError::Bytecode(e)
    }
}

/// Compile an SGL script with the default optimizer options.
pub fn compile_script(
    name: &str,
    source: &str,
    schema: &Schema,
    registry: &Registry,
) -> Result<CompiledScript, CompileError> {
    compile_script_with(name, source, schema, registry, OptimizerOptions::default())
}

/// Compile an SGL script with explicit optimizer options (used by the
/// optimizer ablation benchmarks).
pub fn compile_script_with(
    name: &str,
    source: &str,
    schema: &Schema,
    registry: &Registry,
    options: OptimizerOptions,
) -> Result<CompiledScript, CompileError> {
    let ast = parse_script(source)?;
    let normal = normalize(&ast, registry)?;
    let check = check_script(&normal, schema, registry)?;
    let plan = sgl_algebra::translate(&normal);
    let optimized = optimize_with(plan, registry, options);
    Ok(CompiledScript {
        name: name.to_string(),
        optimized,
        normal,
        check,
    })
}

/// Builder assembling a ready-to-run [`Simulation`].
pub struct GameBuilder {
    schema: Arc<Schema>,
    registry: Registry,
    mechanics: Mechanics,
    exec: ExecConfig,
    seed: u64,
    optimizer: OptimizerOptions,
    scripts: Vec<(String, String, UnitSelector)>,
}

impl GameBuilder {
    /// Start building a game.
    pub fn new(schema: Arc<Schema>, registry: Registry, mechanics: Mechanics) -> GameBuilder {
        let exec = ExecConfig::indexed(&schema);
        GameBuilder {
            schema,
            registry,
            mechanics,
            exec,
            seed: 0,
            optimizer: OptimizerOptions::default(),
            scripts: Vec::new(),
        }
    }

    /// Choose the execution configuration (naive / indexed, cascading, ...).
    pub fn exec_config(mut self, exec: ExecConfig) -> GameBuilder {
        self.exec = exec;
        self
    }

    /// Choose the optimizer options.
    pub fn optimizer(mut self, options: OptimizerOptions) -> GameBuilder {
        self.optimizer = options;
        self
    }

    /// Set the game seed (all randomness derives from it).
    pub fn seed(mut self, seed: u64) -> GameBuilder {
        self.seed = seed;
        self
    }

    /// Register a script (SGL source) for the units chosen by the selector.
    pub fn script(mut self, name: &str, source: &str, selector: UnitSelector) -> GameBuilder {
        self.scripts
            .push((name.to_string(), source.to_string(), selector));
        self
    }

    /// Validate the registry, compile every script (front end and bytecode)
    /// and build the simulation over the provided initial environment.  Any
    /// script that fails either stage is an error; no simulation is built.
    pub fn build(self, table: EnvTable) -> Result<Simulation, CompileError> {
        check_registry(&self.registry, &self.schema)?;
        let mut compiled = Vec::with_capacity(self.scripts.len());
        for (name, source, selector) in &self.scripts {
            let script =
                compile_script_with(name, source, &self.schema, &self.registry, self.optimizer)?;
            compiled.push((script, selector.clone()));
        }
        let mut sim = Simulation::new(table, self.registry, self.mechanics, self.exec, self.seed);
        for (script, selector) in compiled {
            sim.add_script_with_source(
                script.name.clone(),
                script.optimized.plan,
                script.normal,
                selector,
            )?;
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_env::postprocess::paper_postprocessor;
    use sgl_env::schema::paper_schema;
    use sgl_env::TupleBuilder;
    use sgl_lang::builtins::paper_registry;

    const SCRIPT: &str = r#"
        main(u) {
          (let c = CountEnemiesInRange(u, 10))
          if c > 0 and u.cooldown = 0 then perform FireAt(u, getNearestEnemy(u).key);
          else perform MoveInDirection(u, 25, 25);
        }
    "#;

    #[test]
    fn compile_pipeline_produces_an_optimized_plan() {
        let schema = paper_schema();
        let registry = paper_registry();
        let compiled = compile_script("test", SCRIPT, &schema, &registry).unwrap();
        assert_eq!(compiled.check.aggregate_calls, 2);
        assert_eq!(compiled.check.performs, 2);
        assert!(compiled.optimized.after.nodes <= compiled.optimized.before.nodes);
        assert!(compiled.plan().count_apply_nodes() == 2);
    }

    #[test]
    fn compile_errors_surface() {
        let schema = paper_schema();
        let registry = paper_registry();
        assert!(
            compile_script("bad", "main(u) { perform Unknown(u); }", &schema, &registry).is_err()
        );
        assert!(compile_script(
            "bad",
            "main(u) { if u.mana > 2 then perform Heal(u); }",
            &schema,
            &registry
        )
        .is_err());
        assert!(compile_script("bad", "main(u) { ", &schema, &registry).is_err());
    }

    #[test]
    fn game_builder_runs_a_small_game() {
        let schema = paper_schema().into_shared();
        let registry = paper_registry();
        let mut table = EnvTable::new(Arc::clone(&schema));
        for key in 0..10i64 {
            let t = TupleBuilder::new(&schema)
                .set("key", key)
                .unwrap()
                .set("player", key % 2)
                .unwrap()
                .set("posx", key as f64 * 3.0)
                .unwrap()
                .set("posy", (key % 3) as f64 * 4.0)
                .unwrap()
                .set("health", 20i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        let mechanics = Mechanics {
            post: paper_postprocessor(&schema, 1.0, 2).unwrap(),
            movement: None,
            resurrect: None,
        };
        let mut sim = GameBuilder::new(Arc::clone(&schema), registry, mechanics)
            .seed(3)
            .script("battle", SCRIPT, UnitSelector::All)
            .build(table)
            .unwrap();
        let summary = sim.run(3).unwrap();
        assert_eq!(summary.ticks, 3);
        assert!(summary.exec.aggregate_probes > 0);
    }

    #[test]
    fn builder_rejects_bad_scripts() {
        let schema = paper_schema().into_shared();
        let registry = paper_registry();
        let table = EnvTable::new(Arc::clone(&schema));
        let mechanics = Mechanics {
            post: paper_postprocessor(&schema, 1.0, 2).unwrap(),
            movement: None,
            resurrect: None,
        };
        let result = GameBuilder::new(Arc::clone(&schema), registry, mechanics)
            .script("bad", "main(u) { perform Nope(u); }", UnitSelector::All)
            .build(table);
        assert!(result.is_err());
    }

    /// A script that passes the front end but does not lower to bytecode is
    /// a typed registration error: `build` refuses it, and a configuration
    /// change (or resume) that would make it unlowerable is refused with the
    /// simulation left as it was.
    #[test]
    fn unlowerable_scripts_are_typed_registration_errors() {
        use sgl_engine::error::EngineError;
        use sgl_lang::ast::Term;
        use sgl_lang::builtins::{rect_range_filter, AggOutput, AggSpec, AggregateDef, SimpleAgg};

        let schema = paper_schema().into_shared();
        let mut registry = paper_registry();
        // The range reaches the filter through a record term, which the
        // bytecode's closed code does not lower.  It only has to be lowered
        // when a spatial mapping turns the filter into a probe rectangle.
        let range = Term::Field(
            Box::new(Term::Tuple(vec![Term::name("range"), Term::int(0)])),
            "_0".into(),
        );
        registry.register_aggregate(AggregateDef {
            name: "CountAroundInRange".into(),
            params: vec!["u".into(), "range".into()],
            filter: rect_range_filter(range),
            spec: AggSpec::Simple {
                outputs: vec![AggOutput {
                    name: "value".into(),
                    func: SimpleAgg::Count,
                    value: Term::int(1),
                    default: sgl_env::Value::Int(0),
                }],
            },
        });
        let mut table = EnvTable::new(Arc::clone(&schema));
        for key in 0..6i64 {
            let t = TupleBuilder::new(&schema)
                .set("key", key)
                .unwrap()
                .set("player", key % 2)
                .unwrap()
                .set("posx", key as f64 * 2.0)
                .unwrap()
                .set("health", 20i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        let builder = |config: ExecConfig| {
            let mechanics = Mechanics {
                post: paper_postprocessor(&schema, 1.0, 2).unwrap(),
                movement: None,
                resurrect: None,
            };
            GameBuilder::new(Arc::clone(&schema), registry.clone(), mechanics)
                .exec_config(config)
                .script(
                    "crowd",
                    "main(u) { (let n = CountAroundInRange(u, 5)) if n > 1 then perform MoveInDirection(u, 0, 0); }",
                    UnitSelector::All,
                )
        };

        let indexed = ExecConfig::indexed(&schema);
        let err = builder(indexed).build(table.clone()).err();
        assert!(
            matches!(err, Some(CompileError::Bytecode(_))),
            "expected a bytecode error, got {err:?}"
        );

        // Without a spatial mapping the aggregate scans and compiles.
        let scanning = ExecConfig {
            spatial: None,
            ..indexed
        };
        let mut sim = builder(scanning).build(table).unwrap();
        sim.step().unwrap();
        let digest = sim.digest();
        let err = sim.set_exec_config(indexed).unwrap_err();
        assert!(err.to_string().contains("cannot compile"), "{err}");
        assert_eq!(sim.digest(), digest);
        assert_eq!(*sim.exec_config(), scanning);
        let bytes = sim.checkpoint().unwrap();
        let err = sim.resume(&bytes, indexed).unwrap_err();
        assert!(matches!(err, EngineError::Compile(_)), "{err}");
        assert_eq!(*sim.exec_config(), scanning);
        assert_eq!(sim.current_tick(), 1);
        // Still runnable under the configuration it kept.
        sim.step().unwrap();
    }
}
