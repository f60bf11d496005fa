//! # sgl-testkit — seeded generators for differential conformance testing
//!
//! The paper's evaluation is only meaningful because the optimized,
//! set-at-a-time execution is *observationally identical* to naive per-unit
//! evaluation.  This crate provides the machinery to check that claim
//! systematically instead of anecdotally, the way incremental
//! view-maintenance work validates dynamic answers against from-scratch
//! recomputation:
//!
//! * [`script_gen`] — a seeded generator of random-but-well-typed SGL
//!   scripts drawn from the `lang::ast` grammar, rendered through the
//!   pretty-printer and re-parsed so every generated case also exercises
//!   the parser round trip;
//! * [`world_gen`] — a seeded generator of initial environments over the
//!   battle schema with adversarial layouts (clustered, uniform, degenerate
//!   collinear, exactly duplicated positions, extreme-but-finite
//!   coordinates);
//! * [`case`] — [`ConformanceCase`], one `(script, world, seed)` triple with
//!   plumbing to build a simulation under any [`sgl_core::exec::ExecConfig`]
//!   and collect per-tick [`StateDigest`](sgl_core::engine::StateDigest)s;
//! * [`soak`] — the long-horizon soak harness: thousands of ticks with
//!   population churn, seeded checkpoint/resume into shadow simulations
//!   under different configurations, and cross-tick invariant checks.
//!
//! Everything is a pure function of its seed: a failing case reported by
//! `tests/conformance.rs` reproduces from the seed alone, forever.

#![warn(missing_docs)]

pub mod case;
pub mod script_gen;
pub mod soak;
pub mod world_gen;

pub use case::ConformanceCase;
pub use script_gen::{generate_script, script_source, ScriptGenConfig};
pub use soak::{run_soak, SoakFailure, SoakReport, SoakSpec};
pub use world_gen::{generate_world, GeneratedWorld, WorldLayout, WorldSpec};

use sgl_core::env::Schema;
use sgl_core::exec::{ExecConfig, Parallelism, PhysicalBackend, PlannerMode};

/// The full executor-configuration lattice the conformance and golden-digest
/// suites sweep (18 configurations):
///
/// ```text
/// {scan, layered-tree, quadtree, grid, materialized, costbased/w2}
///   × {serial, 2, 4 threads}
/// ```
///
/// Every row runs the register-bytecode VM.  The five forced rows each put
/// one backend on every call site that can use it
/// ([`PlannerMode::Force`]; `scan` is the naive executor, with no index
/// view).  `Force(Sweep)` and `Force(KdTree)` install the same plan as
/// `Force(LayeredTree)` — the paper's structure for every class — so one
/// row covers all three.  The cost-based rows run the adaptive planner with
/// a 2-tick re-costing window, so a 4–6 tick conformance case re-costs (and
/// may swap backends per call site) mid-run — proving adaptivity is
/// observationally neutral.  The oracle configuration
/// ([`ExecConfig::oracle`]) is deliberately *not* part of the lattice: it is
/// the reference the lattice is compared against.
pub fn config_lattice(schema: &Schema) -> Vec<(String, ExecConfig)> {
    let threads = [
        ("serial", Parallelism::Off),
        ("2t", Parallelism::Threads(2)),
        ("4t", Parallelism::Threads(4)),
    ];
    let planners = [
        ("scan", PlannerMode::Force(PhysicalBackend::Scan)),
        (
            "layered-tree",
            PlannerMode::Force(PhysicalBackend::LayeredTree),
        ),
        ("quadtree", PlannerMode::Force(PhysicalBackend::QuadTree)),
        ("grid", PlannerMode::Force(PhysicalBackend::MaintainedGrid)),
        (
            "materialized",
            PlannerMode::Force(PhysicalBackend::Materialized),
        ),
        ("costbased/w2", PlannerMode::cost_based(2)),
    ];
    let mut configs = Vec::new();
    for (tname, par) in threads {
        for (pname, planner) in planners {
            configs.push((
                format!("{pname}/{tname}"),
                ExecConfig::indexed(schema)
                    .with_planner(planner)
                    .with_parallelism(par),
            ));
        }
    }
    configs
}

/// Deterministic split-mix-64 generator: small, fast, and — unlike any
/// `rand` engine — guaranteed stable across toolchain updates, which keeps
/// checked-in failing seeds reproducible forever.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed the generator.
    pub fn new(seed: u64) -> TestRng {
        TestRng {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9ABC_DEF0,
        }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`0` when the bound is zero).
    pub fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform value in the inclusive range.
    pub fn in_range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi.saturating_sub(lo) + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn float_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'s, T>(&mut self, items: &'s [T]) -> &'s T {
        &items[self.below(items.len())]
    }

    /// Derive an independent stream for a sub-generator.
    pub fn fork(&mut self, salt: u64) -> TestRng {
        TestRng::new(self.next_u64() ^ salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_spread() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = TestRng::new(43);
        assert_ne!(xs[0], c.next_u64());
        // below/in_range stay in bounds.
        let mut r = TestRng::new(7);
        for _ in 0..200 {
            assert!(r.below(10) < 10);
            let v = r.in_range(3, 6);
            assert!((3..=6).contains(&v));
            let f = r.float_in(-2.0, 2.0);
            assert!((-2.0..2.0).contains(&f));
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn forks_are_independent_streams() {
        let mut base = TestRng::new(1);
        let mut f1 = base.fork(10);
        let mut f2 = base.fork(10);
        // Two forks taken sequentially differ (the parent advanced).
        assert_ne!(f1.next_u64(), f2.next_u64());
    }
}
