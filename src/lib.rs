//! # sgl — Scalable Games Language
//!
//! Umbrella crate re-exporting the whole SGL system (a reproduction of
//! *Scaling Games to Epic Proportions*, SIGMOD 2007): the scripting language,
//! the query optimizer, the naive and indexed executors, the discrete
//! simulation engine and the battle-simulation case study.
//!
//! ```
//! use sgl::battle::{BattleScenario, ScenarioConfig};
//! use sgl::exec::ExecConfig;
//!
//! let scenario = BattleScenario::generate(ScenarioConfig { units: 40, ..Default::default() });
//! let mut sim = scenario.build_with_config(ExecConfig::indexed(&scenario.schema));
//! sim.run(2).unwrap();
//! assert_eq!(sim.current_tick(), 2);
//! ```

pub use sgl_battle as battle;
pub use sgl_core::algebra;
pub use sgl_core::engine;
pub use sgl_core::env;
pub use sgl_core::exec;
pub use sgl_core::index;
pub use sgl_core::lang;
pub use sgl_core::{
    compile_script, compile_script_with, CompileError, CompiledScript, GameBuilder,
};
