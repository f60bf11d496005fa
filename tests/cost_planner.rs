//! Cost-based planner tests: explain-based assertions that the cost model
//! picks the *right* backend per call site (scan for tiny tables, a spatial
//! backend for dense range probes, Incremental→Rebuild when the observed
//! update rate crosses the modeled break-even), that the planned and
//! *executed* choices are both surfaced in `explain`, and that the whole
//! adaptive machinery is observationally neutral — bit-identical
//! `StateDigest`s against the paper's forced plan (`ExecConfig::indexed`)
//! and the oracle interpreter.  (The full 18-entry configuration lattice, including the cost-based rows,
//! is swept by `tests/conformance.rs` and `tests/golden_digests.rs`.)

use sgl::battle::{BattleScenario, ScenarioConfig};
use sgl::engine::Simulation;
use sgl::exec::{choose_physical, plan_registry, ExecConfig, PlannerMode, RuntimeStats};
use sgl_testkit::ConformanceCase;

fn scenario(units: usize, density: f64, seed: u64) -> BattleScenario {
    BattleScenario::generate(ScenarioConfig {
        units,
        density,
        seed,
        ..ScenarioConfig::default()
    })
}

fn cost_based(scenario: &BattleScenario, window: u32) -> Simulation {
    scenario.build_with_config(
        ExecConfig::cost_based(&scenario.schema).with_planner(PlannerMode::cost_based(window)),
    )
}

/// Backend label per call site, as a sorted map.
fn backends_of(sim: &Simulation) -> Vec<(String, String)> {
    sim.physical_choices()
        .into_iter()
        .map(|(name, backend, _maint)| (name, backend))
        .collect()
}

#[test]
fn cost_based_is_digest_identical_to_heuristic_and_oracle() {
    for seed in [1u64, 7, 19] {
        let case = ConformanceCase::generate_sized(seed, 8, 40);
        let schema = &case.world.schema;
        let oracle = case.digests(ExecConfig::oracle(schema));
        let heuristic = case.digests(ExecConfig::indexed(schema));
        // Window 1: re-cost every tick — maximal opportunity to diverge.
        let cost1 =
            case.digests(ExecConfig::cost_based(schema).with_planner(PlannerMode::cost_based(1)));
        let cost2 =
            case.digests(ExecConfig::cost_based(schema).with_planner(PlannerMode::cost_based(2)));
        assert_eq!(oracle, heuristic, "seed {seed}: heuristic vs oracle");
        assert_eq!(oracle, cost1, "seed {seed}: cost-based(1) vs oracle");
        assert_eq!(oracle, cost2, "seed {seed}: cost-based(2) vs oracle");
    }
}

#[test]
fn tiny_tables_plan_scans() {
    let tiny = scenario(8, 0.02, 5);
    let mut sim = cost_based(&tiny, 1);
    sim.run(3).expect("tiny battle runs");
    // Every indexable call site should be priced back onto the scan path:
    // with eight units, building any structure costs more than scanning.
    for (name, backend, maintenance) in sim.physical_choices() {
        assert_eq!(backend, "scan", "call site {name} should scan a tiny table");
        assert_eq!(maintenance, "per-tick", "{name}");
    }
    let explain = sim.explain();
    assert!(
        explain.contains("physical: scan"),
        "explain should show the scan choice:\n{explain}"
    );
    // The scans actually happened (executed choice, not just planned).
    assert!(explain.contains("served: scan"), "{explain}");
}

#[test]
fn dense_and_sparse_worlds_plan_different_backends() {
    // Same army, two densities: dense probes match a large fraction of the
    // world (selectivity-independent structures win), sparse probes match
    // almost nothing (the maintained grid's cheap probes win).
    let dense = scenario(300, 0.25, 11);
    let sparse = scenario(300, 0.0004, 11);
    let mut dense_sim = cost_based(&dense, 2);
    let mut sparse_sim = cost_based(&sparse, 2);
    dense_sim.run(6).expect("dense battle runs");
    sparse_sim.run(6).expect("sparse battle runs");

    let dense_backends = backends_of(&dense_sim);
    let sparse_backends = backends_of(&sparse_sim);
    assert_eq!(dense_backends.len(), sparse_backends.len());
    let differing: Vec<&str> = dense_backends
        .iter()
        .zip(&sparse_backends)
        .filter(|(d, s)| d.0 == s.0 && d.1 != s.1)
        .map(|(d, _)| d.0.as_str())
        .collect();
    assert!(
        differing.len() >= 2,
        "expected ≥2 call sites with density-dependent backends;\n\
         dense:  {dense_backends:?}\nsparse: {sparse_backends:?}"
    );

    // And the decisions are visible in explain, with priced alternatives.
    let explain = dense_sim.explain();
    assert!(explain.contains("alts:"), "{explain}");
    assert!(explain.contains("µs"), "{explain}");

    // Neutrality on both worlds: the paper's forced plan simulates the same
    // battles, digest for digest.
    for (scen, cost_sim) in [(&dense, &dense_sim), (&sparse, &sparse_sim)] {
        let mut heuristic = scen.build_with_config(ExecConfig::indexed(&scen.schema));
        heuristic.run(6).expect("heuristic battle runs");
        assert_eq!(heuristic.digest(), cost_sim.digest());
    }
}

#[test]
fn observed_update_rate_flips_incremental_to_rebuild() {
    // Drive the statistics store directly: a sparse, probe-heavy call-site
    // profile keeps the maintained grid cheapest; the update rate decides
    // whether it is patched or rebuilt.
    let scen = scenario(300, 0.0004, 3);
    let registry = sgl::battle::battle_registry();
    let config = ExecConfig::cost_based(&scen.schema);
    let constants = sgl::algebra::CostConstants::default();
    let break_even = constants.break_even_update_rate();

    let run_with_update_rate = |rate: f64| {
        let stats = RuntimeStats {
            update_rate: rate,
            have_update_rate: true,
            ..RuntimeStats::default()
        };
        let mut planned = plan_registry(&registry, &scen.table, &config);
        choose_physical(&mut planned, &stats, &constants, scen.table.len(), true);
        planned
    };

    let calm = run_with_update_rate(break_even * 0.5);
    let hot = run_with_update_rate((break_even * 2.0).min(1.0));
    let mut flipped = 0;
    for (name, plan) in &calm {
        let calm_choice = plan.choice.as_ref();
        let hot_choice = hot[name].choice.as_ref();
        if let (Some(c), Some(h)) = (calm_choice, hot_choice) {
            if c.backend == sgl::algebra::PhysicalBackend::MaintainedGrid {
                assert_eq!(
                    c.maintenance,
                    sgl::algebra::MaintenanceChoice::Incremental,
                    "{name}: below break-even the grid must be patched"
                );
                assert_eq!(
                    h.maintenance,
                    sgl::algebra::MaintenanceChoice::Rebuild,
                    "{name}: above break-even the grid must be rebuilt"
                );
                flipped += 1;
            }
        }
    }
    assert!(flipped > 0, "no call site was grid-maintained: {calm:?}");
}

#[test]
fn explain_surfaces_executed_backends_under_the_heuristic_planner() {
    // The runtime `served:` annotation is not a cost-based feature: a
    // forced plan's explain shows which structures actually answered each
    // call site too.
    let scen = scenario(60, 0.02, 9);
    let mut sim = scen.build_with_config(ExecConfig::indexed(&scen.schema));
    sim.run(3).expect("battle runs");
    let explain = sim.explain();
    assert!(explain.contains("physical:"), "{explain}");
    assert!(
        explain.contains("served:"),
        "executed choices missing from explain:\n{explain}"
    );
    // The paper's plan answers divisible aggregates from the layered tree;
    // the runtime counters must say so.
    assert!(explain.contains("served: layered-tree"), "{explain}");
    // Naive mode reports scans as the executed choice.
    let mut naive = scen.build_with_config(ExecConfig::naive(&scen.schema));
    naive.run(2).expect("naive battle runs");
    assert!(naive.explain().contains("served: scan"));
}

#[test]
fn recosting_happens_on_the_window_and_is_counted() {
    let scen = scenario(120, 0.02, 13);
    let mut sim = cost_based(&scen, 3);
    sim.run(7).expect("battle runs");
    let recosts: usize = sim.history().iter().map(|r| r.exec.planner_recosts).sum();
    // Ticks 0, 3 and 6 re-cost.
    assert_eq!(recosts, 3, "window-3 run of 7 ticks re-costs thrice");
    // The first pass priced every indexable call site (a switch each).
    assert!(sim.history()[0].exec.plan_switches > 0);
    // Forced plans never re-cost.
    let mut heuristic = scen.build_with_config(ExecConfig::indexed(&scen.schema));
    heuristic.run(3).expect("battle runs");
    assert!(heuristic
        .history()
        .iter()
        .all(|r| r.exec.planner_recosts == 0 && r.exec.plan_switches == 0));
    // The cost-based run matches the heuristic digests tick for tick.
    let mut check = scen.build_with_config(ExecConfig::indexed(&scen.schema));
    let heur: Vec<_> = (0..7)
        .map(|_| {
            check.step().unwrap();
            check.digest()
        })
        .collect();
    let mut cost = cost_based(&scen, 3);
    for (tick, expected) in heur.iter().enumerate() {
        cost.step().unwrap();
        assert_eq!(cost.digest(), *expected, "tick {tick}");
    }
}

/// Regression for the EWMA decay-before-seed bug: a call site that goes
/// idle decays its probe volume, and once the volume falls under the floor
/// the site must revert to *unobserved* (priced from priors like a fresh
/// site) instead of being costed from a vanishing-but-positive EWMA.  The
/// old `probes > 0.0` proxy kept long-idle sites "observed" at microscopic
/// volumes, skewing the first recost after an idle window.
#[test]
fn long_idle_windows_recost_from_priors_not_vanishing_ewmas() {
    use sgl::exec::TickObservations;

    let scen = scenario(300, 0.0004, 3);
    let registry = sgl::battle::battle_registry();
    let config = ExecConfig::cost_based(&scen.schema);
    let constants = sgl::algebra::CostConstants::default();
    let cardinality = scen.table.len();

    let site_names: Vec<String> = plan_registry(&registry, &scen.table, &config)
        .keys()
        .cloned()
        .collect();
    assert!(!site_names.is_empty());

    let decide = |stats: &RuntimeStats| {
        let mut planned = plan_registry(&registry, &scen.table, &config);
        choose_physical(&mut planned, stats, &constants, cardinality, true);
        let mut out: Vec<(String, String, String)> = planned
            .iter()
            .filter_map(|(name, plan)| {
                plan.choice.as_ref().map(|c| {
                    (
                        name.clone(),
                        c.backend.label().to_string(),
                        format!("{:?}", c.maintenance),
                    )
                })
            })
            .collect();
        out.sort();
        out
    };

    // Five live ticks seed every call site at the every-unit-probes volume
    // (matching the unobserved prior, so the idle-window reversion to
    // priors is decision-neutral by construction).
    let mut stats = RuntimeStats::default();
    for _ in 0..5 {
        let mut obs = TickObservations::default();
        for name in &site_names {
            obs.record_probes(name, cardinality as u64);
            obs.record_matched(name, 4);
        }
        stats.observe_tick(cardinality, 6, 10_000.0, None, &obs);
    }
    for name in &site_names {
        assert!(stats.calls[name].have_probes, "{name} seeded");
    }
    let before_idle = decide(&stats);

    // A long idle window: no site is probed for fifteen ticks.  The halving
    // EWMA takes 300 under the 0.5 floor in ten ticks, so by now every
    // site must have snapped back to unobserved — not to probes = 0.009.
    for _ in 0..15 {
        stats.observe_tick(cardinality, 6, 10_000.0, None, &TickObservations::default());
    }
    for name in &site_names {
        let site = &stats.calls[name];
        assert!(
            !site.have_probes && site.probes == 0.0,
            "{name}: idle window left a vanishing EWMA (probes {}, have_probes {})",
            site.probes,
            site.have_probes
        );
    }

    // Unobserved sites are priced from priors, so the recost at the end of
    // the idle window keeps every decision — the buggy `probes > 0.0` proxy
    // priced them at microscopic volumes and flipped sites back to
    // per-tick scans/rebuilds.
    assert_eq!(
        decide(&stats),
        before_idle,
        "recost after an idle window must not flip decisions"
    );
}

/// The planner only materializes per-subscription answers when the delta
/// stream is calm: under heavy churn, patching every stored answer against
/// every delta dominates, and the cost model must walk away from the
/// materialized class on every call site.
#[test]
fn high_churn_worlds_never_materialize_answers() {
    use sgl::exec::TickObservations;

    let scen = scenario(300, 0.0004, 3);
    let registry = sgl::battle::battle_registry();
    let config = ExecConfig::cost_based(&scen.schema);
    let constants = sgl::algebra::CostConstants::default();
    let cardinality = scen.table.len();

    let site_names: Vec<String> = plan_registry(&registry, &scen.table, &config)
        .keys()
        .cloned()
        .collect();

    let decisions_at = |changed_rows: usize| {
        let mut stats = RuntimeStats::default();
        for _ in 0..5 {
            let mut obs = TickObservations::default();
            for name in &site_names {
                obs.record_probes(name, 60);
                obs.record_matched(name, 4);
            }
            stats.observe_tick(cardinality, changed_rows, 10_000.0, None, &obs);
        }
        let mut planned = plan_registry(&registry, &scen.table, &config);
        choose_physical(&mut planned, &stats, &constants, cardinality, true);
        planned
    };

    // Every row churning every tick: no site may hold a materialized answer.
    let hot = decisions_at(cardinality);
    for (name, plan) in &hot {
        if let Some(choice) = &plan.choice {
            assert_ne!(
                choice.backend,
                sgl::algebra::PhysicalBackend::Materialized,
                "{name}: materialized answers under full churn"
            );
        }
    }

    // A calm world (nobody moves) is where materialization pays: the same
    // probe profile must materialize at least one divisible/min-max site.
    let calm = decisions_at(0);
    let materialized = calm
        .values()
        .filter(|p| {
            p.choice
                .as_ref()
                .is_some_and(|c| c.backend == sgl::algebra::PhysicalBackend::Materialized)
        })
        .count();
    assert!(
        materialized > 0,
        "calm world materialized nothing: {:?}",
        calm.iter()
            .map(|(n, p)| (n.clone(), p.choice.as_ref().map(|c| c.backend.label())))
            .collect::<Vec<_>>()
    );
}
