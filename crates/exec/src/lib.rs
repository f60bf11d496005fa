//! # sgl-exec — naive and indexed execution of SGL scripts
//!
//! The physical layer of *Scaling Games to Epic Proportions*: every script is
//! lowered once to register bytecode ([`compile_script`]) and run by one VM.
//! Under the **naive** strategy the VM answers every aggregate probe and
//! action clause by scanning the environment (`O(n²)` per tick — the
//! baseline of §6); under the **indexed** strategy it answers each probe in
//! `O(log n)` from the index structures of `sgl-index` (layered aggregate
//! range trees, quadtrees, kD-trees, sweep-lines and maintained grids behind
//! a categorical hash layer).  The [`oracle`] interpreter walks the script
//! AST instead and is the differential reference for both.  Which structure
//! answers each aggregate call site, and whether it is rebuilt per tick or
//! maintained across ticks, is the [`PhysicalChoice`] the [`PlannerMode`]
//! of the [`ExecConfig`] installs; the cross-tick [`IndexManager`] keeps the
//! maintained ones in sync.
//!
//! Main entry points: [`execute_tick`] (throwaway manager) and
//! [`execute_tick_with`] (caller-owned manager, used by the engine).

#![warn(missing_docs)]

pub mod builtin_eval;
pub mod checkpoint;
pub mod closed;
pub mod compile;
pub mod config;
pub mod error;
pub mod filter;
pub mod indexes;
pub mod oracle;
pub mod planner;
pub mod stats;
pub mod tick;
pub(crate) mod vm;

pub use closed::ClosedProgram;
pub use compile::{compile_script, CompileError, CompiledScript};
pub use config::{
    AdaptiveWindow, ExecConfig, ExecMode, Parallelism, PlannerMode, SpatialAttrs, TickStats,
};
pub use error::{ExecError, Result};
pub use filter::{analyze_filter, FilterAnalysis};
pub use indexes::{fingerprint_values, IndexManager, MaintStats, TickIndexes};
pub use oracle::{execute_tick_oracle, OracleRun};
pub use planner::{
    choose_physical, forced_choice, plan_aggregate, strategy_class, AggStrategy, PhysicalChoice,
    PlannedAggregate,
};
/// The backend vocabulary of [`PlannerMode::Force`] and [`PhysicalChoice`].
pub use sgl_algebra::cost::PhysicalBackend;
pub use stats::{CallObs, CallSiteStats, RuntimeStats, TickObservations, BACKEND_COUNT};
pub use tick::{execute_tick, execute_tick_planned, execute_tick_with, plan_registry, ScriptRun};
