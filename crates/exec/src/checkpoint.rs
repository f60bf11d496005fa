//! Export/import of the executor's cross-tick state for checkpoints.
//!
//! The engine's checkpoint persists three pieces of executor state so a
//! resumed simulation continues the *same* trajectory as an uninterrupted
//! one — not just the same environment:
//!
//! * [`RuntimeStats`] — the EWMA store feeding the cost-based planner.
//!   Without it a resumed planner would re-bootstrap from priors and could
//!   (harmlessly but observably in `explain`) choose different backends for
//!   a few windows.
//! * the writer's [`PlannerMode`] and, under the cost-based planner, the
//!   installed per-call-site [`PhysicalChoice`]s — so a resume *mid*
//!   re-costing window continues under the exact physical plan the writer
//!   was executing, and the next re-cost happens at the same tick boundary
//!   it would have anyway.  A forced plan is a function of the
//!   configuration, so its choices are not written.
//! * the [`MaintStats`] counters of the most recent maintenance pass, for
//!   monitoring continuity across a migration.
//!
//! All encodings go through [`sgl_env::checkpoint`]'s bounds-checked
//! primitives and fail with typed [`sgl_env::EnvError::Checkpoint`] errors.
//! Map contents are emitted sorted by call-site name, so the bytes are a
//! deterministic function of the state (the golden-checkpoint corpus pins
//! this).  Priced alternatives are *not* persisted: they are a pure display
//! artifact of `explain` and are reconstructed at the next re-costing pass.

use rustc_hash::FxHashMap;

use sgl_algebra::cost::{MaintenanceChoice, PhysicalBackend};
use sgl_env::checkpoint::{ByteReader, ByteWriter};
use sgl_env::{EnvError, Result};

use crate::config::{AdaptiveWindow, PlannerMode};
use crate::indexes::MaintStats;
use crate::planner::{strategy_class, PhysicalChoice, PlannedAggregate};
use crate::stats::{CallSiteStats, RuntimeStats, BACKEND_COUNT};

fn err(msg: impl Into<String>) -> EnvError {
    EnvError::Checkpoint(msg.into())
}

// ---------------------------------------------------------------------------
// Runtime statistics
// ---------------------------------------------------------------------------

/// Version stamp of the statistics section.  The legacy (unstamped) layout
/// opened directly with the tick counter; a tick counter can never be
/// `u64::MAX`, so the sentinel distinguishes the two unambiguously and
/// frozen pre-stamp checkpoints (the `.v1.ckpt` corpus) keep decoding.
const STATS_SENTINEL: u64 = u64::MAX;
/// Current statistics layout: per-site `have_probes` flag, 7 backend
/// counters (the materialized answer store added one).
const STATS_VERSION: u8 = 2;

/// Serialize the cross-tick runtime statistics (call sites sorted by name).
pub fn export_runtime_stats(stats: &RuntimeStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(STATS_SENTINEL);
    w.u8(STATS_VERSION);
    w.u64(stats.ticks);
    w.f64(stats.cardinality);
    w.f64(stats.update_rate);
    w.u8(stats.have_update_rate as u8);
    w.f64(stats.world_area);
    let mut names: Vec<&String> = stats.calls.keys().collect();
    names.sort();
    w.u32(names.len() as u32);
    for name in names {
        let site = &stats.calls[name];
        w.str(name);
        w.f64(site.probes);
        w.u8(site.have_probes as u8);
        w.f64(site.selectivity);
        w.u8(site.have_selectivity as u8);
        w.f64(site.area_fraction);
        w.u8(site.have_area as u8);
        w.f64(site.partitions);
        w.u32(BACKEND_COUNT as u32);
        for served in site.served_total {
            w.u64(served);
        }
    }
    w.finish()
}

/// Decode runtime statistics written by [`export_runtime_stats`].
pub fn import_runtime_stats(bytes: &[u8]) -> Result<RuntimeStats> {
    let mut r = ByteReader::new(bytes);
    let first = r.u64("stats tick count")?;
    let (version, ticks) = if first == STATS_SENTINEL {
        let version = r.u8("stats version")?;
        if version != STATS_VERSION {
            return Err(err(format!("unsupported statistics version {version}")));
        }
        (version, r.u64("stats tick count")?)
    } else {
        // Legacy unstamped layout: the u64 we just read *is* the counter.
        (1, first)
    };
    let mut stats = RuntimeStats {
        ticks,
        cardinality: r.f64("stats cardinality")?,
        update_rate: r.f64("stats update rate")?,
        have_update_rate: r.u8("stats update-rate flag")? != 0,
        world_area: r.f64("stats world area")?,
        calls: FxHashMap::default(),
    };
    let sites = r.u32("stats call-site count")? as usize;
    for _ in 0..sites {
        let name = r.str("call-site name")?;
        let probes = r.f64("call-site probes")?;
        let have_probes = if version >= 2 {
            r.u8("call-site probes flag")? != 0
        } else {
            // The legacy layout had no flag; `probes > 0` was its semantic.
            probes > 0.0
        };
        let mut site = CallSiteStats {
            probes,
            have_probes,
            selectivity: r.f64("call-site selectivity")?,
            have_selectivity: r.u8("call-site selectivity flag")? != 0,
            area_fraction: r.f64("call-site area fraction")?,
            have_area: r.u8("call-site area flag")? != 0,
            partitions: r.f64("call-site partitions")?,
            served_total: [0; BACKEND_COUNT],
        };
        // The backend-counter array is length-prefixed so adding a backend
        // extends the array decodably: legacy shorter arrays fill the
        // leading slots (new backends are appended, never reordered), while
        // a *longer* array than this build knows is rejected.
        let backends = r.u32("served-backend count")? as usize;
        if backends > BACKEND_COUNT || (version >= 2 && backends != BACKEND_COUNT) {
            return Err(err(format!(
                "call site `{name}` carries {backends} backend counters, \
                 this build has {BACKEND_COUNT}"
            )));
        }
        for slot in site.served_total.iter_mut().take(backends) {
            *slot = r.u64("served-backend counter")?;
        }
        if stats.calls.insert(name.clone(), site).is_some() {
            return Err(err(format!("duplicate call site `{name}` in statistics")));
        }
    }
    r.expect_end("runtime statistics")?;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Planner state
// ---------------------------------------------------------------------------

/// One decoded planner entry: call-site name and its installed choice.
pub type ImportedChoice = (String, PhysicalChoice);

/// Planner-mode tags of the PLANNER section.  Tags 0 (the retired fixed
/// heuristic: the paper's structures rebuilt per tick) and 2 (the retired
/// forced-materialized mode) are only read, as the `Force` plans they were.
const MODE_COST_BASED: u8 = 1;
const MODE_FORCE: u8 = 3;

/// Serialize the writer's planner mode and, under the cost-based planner,
/// every installed physical choice, sorted by call-site name.
pub fn export_planner_state(
    planner: PlannerMode,
    planned: &FxHashMap<String, PlannedAggregate>,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match planner {
        PlannerMode::CostBased(window) => {
            w.u8(MODE_COST_BASED);
            w.u32(window.ticks);
        }
        PlannerMode::Force(backend) => {
            w.u8(MODE_FORCE);
            w.u32(backend.index() as u32);
        }
    }
    let mut entries: Vec<(&String, &PhysicalChoice)> = match planner {
        PlannerMode::CostBased(_) => planned
            .iter()
            .filter_map(|(name, plan)| plan.choice.as_ref().map(|c| (name, c)))
            .collect(),
        PlannerMode::Force(_) => Vec::new(),
    };
    entries.sort_by(|a, b| a.0.cmp(b.0));
    w.u32(entries.len() as u32);
    for (name, choice) in entries {
        w.str(name);
        w.u8(choice.backend.index() as u8);
        w.u8(match choice.maintenance {
            MaintenanceChoice::PerTick => 0,
            MaintenanceChoice::Incremental => 1,
            MaintenanceChoice::Rebuild => 2,
        });
        w.f64(choice.est_us);
    }
    w.finish()
}

fn backend_of(code: usize) -> Result<PhysicalBackend> {
    PhysicalBackend::ALL
        .get(code)
        .copied()
        .ok_or_else(|| err(format!("unknown physical backend code {code}")))
}

/// Decode planner state written by [`export_planner_state`]: the writer's
/// planner mode plus the installed choices (with empty alternative lists —
/// alternatives are re-priced at the next re-costing pass).
pub fn import_planner_state(bytes: &[u8]) -> Result<(PlannerMode, Vec<ImportedChoice>)> {
    let mut r = ByteReader::new(bytes);
    let tag = r.u8("planner mode")?;
    let param = r.u32("planner parameter")?;
    let mode = match tag {
        0 => PlannerMode::Force(PhysicalBackend::LayeredTree),
        MODE_COST_BASED => PlannerMode::CostBased(AdaptiveWindow::every(param)),
        2 => PlannerMode::Force(PhysicalBackend::Materialized),
        MODE_FORCE => PlannerMode::Force(backend_of(param as usize)?),
        other => return Err(err(format!("unknown planner mode {other}"))),
    };
    let count = r.u32("choice count")? as usize;
    let mut choices = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name = r.str("choice call-site name")?;
        let backend = backend_of(r.u8("choice backend")? as usize)?;
        let maintenance = match r.u8("choice maintenance")? {
            0 => MaintenanceChoice::PerTick,
            1 => MaintenanceChoice::Incremental,
            2 => MaintenanceChoice::Rebuild,
            other => return Err(err(format!("unknown maintenance code {other}"))),
        };
        let est_us = r.f64("choice estimated cost")?;
        choices.push((
            name,
            PhysicalChoice {
                backend,
                maintenance,
                est_us,
                alternatives: Vec::new(),
            },
        ));
    }
    r.expect_end("planner state")?;
    Ok((mode, choices))
}

/// Install imported choices onto the re-planned call sites.  Only call sites
/// that still exist and still have alternatives to price accept a choice;
/// anything else is skipped (the next re-costing pass re-prices them), so a
/// checkpoint survives registry evolution that *adds* aggregates.
pub fn install_choices(
    planned: &mut FxHashMap<String, PlannedAggregate>,
    choices: Vec<ImportedChoice>,
) -> usize {
    let mut installed = 0;
    for (name, choice) in choices {
        if let Some(plan) = planned.get_mut(&name) {
            if strategy_class(&plan.strategy).is_some() {
                plan.choice = Some(choice);
                installed += 1;
            }
        }
    }
    installed
}

// ---------------------------------------------------------------------------
// Maintenance counters
// ---------------------------------------------------------------------------

/// Serialize the counters of the most recent maintenance pass.
pub fn export_maint_stats(stats: &MaintStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(stats.delta_ops as u64);
    w.u64(stats.partition_rebuilds as u64);
    w.u64(stats.rows_scanned as u64);
    w.u64(stats.effect_hints as u64);
    w.finish()
}

/// Decode maintenance counters written by [`export_maint_stats`].
pub fn import_maint_stats(bytes: &[u8]) -> Result<MaintStats> {
    let mut r = ByteReader::new(bytes);
    // The materialized-store counters are not on the wire: the store itself
    // is not checkpointed (rebuilt lazily on resume), so its counters start
    // from zero like the store does.
    let stats = MaintStats {
        delta_ops: r.u64("maintenance delta ops")? as usize,
        partition_rebuilds: r.u64("maintenance partition rebuilds")? as usize,
        rows_scanned: r.u64("maintenance rows scanned")? as usize,
        effect_hints: r.u64("maintenance effect hints")? as usize,
        ..MaintStats::default()
    };
    r.expect_end("maintenance counters")?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpatialAttrs;
    use crate::planner::plan_aggregate;
    use crate::stats::TickObservations;
    use sgl_env::schema::paper_schema;

    fn sample_stats() -> RuntimeStats {
        let mut obs = TickObservations::default();
        obs.record_probe("Count");
        obs.record_served("Count", PhysicalBackend::MaintainedGrid);
        obs.record_matched("Count", 12);
        obs.record_rect_area("Count", 30.0);
        obs.record_partitions("Count", 2);
        obs.record_probe("Near");
        obs.record_served("Near", PhysicalBackend::KdTree);
        let mut stats = RuntimeStats::default();
        stats.observe_tick(80, 20, 500.0, None, &obs);
        stats.observe_tick(78, 30, 500.0, Some(0.2), &obs);
        stats
    }

    #[test]
    fn runtime_stats_round_trip_exactly() {
        let stats = sample_stats();
        let bytes = export_runtime_stats(&stats);
        let back = import_runtime_stats(&bytes).unwrap();
        assert_eq!(back.ticks, stats.ticks);
        assert_eq!(back.cardinality.to_bits(), stats.cardinality.to_bits());
        assert_eq!(back.update_rate.to_bits(), stats.update_rate.to_bits());
        assert_eq!(back.have_update_rate, stats.have_update_rate);
        assert_eq!(back.world_area.to_bits(), stats.world_area.to_bits());
        assert_eq!(back.calls.len(), stats.calls.len());
        for (name, site) in &stats.calls {
            let b = &back.calls[name];
            assert_eq!(b.probes.to_bits(), site.probes.to_bits(), "{name}");
            assert_eq!(b.selectivity.to_bits(), site.selectivity.to_bits());
            assert_eq!(b.have_selectivity, site.have_selectivity);
            assert_eq!(b.area_fraction.to_bits(), site.area_fraction.to_bits());
            assert_eq!(b.have_area, site.have_area);
            assert_eq!(b.partitions.to_bits(), site.partitions.to_bits());
            assert_eq!(b.served_total, site.served_total);
        }
        // Deterministic bytes (map order cannot leak into the encoding).
        assert_eq!(bytes, export_runtime_stats(&back));
    }

    /// Hand-written legacy (unstamped, v1) statistics stream: no per-site
    /// probes flag, 6 backend counters.  The frozen `.v1.ckpt` golden corpus
    /// carries this layout and is never re-blessed, so decoding it is pinned
    /// here at the unit level too.
    #[test]
    fn legacy_unstamped_stats_still_decode() {
        let mut w = ByteWriter::new();
        w.u64(7); // ticks — doubles as the "not the sentinel" discriminator
        w.f64(80.0); // cardinality
        w.f64(0.25); // update rate
        w.u8(1);
        w.f64(500.0); // world area
        w.u32(1); // one call site
        w.str("Count");
        w.f64(12.0); // probes (no flag byte in v1)
        w.f64(0.1); // selectivity
        w.u8(1);
        w.f64(0.05); // area fraction
        w.u8(1);
        w.f64(2.0); // partitions
        w.u32(6); // legacy backend-counter array (pre-materialized)
        for served in [3u64, 0, 1, 0, 0, 2] {
            w.u64(served);
        }
        let stats = import_runtime_stats(&w.finish()).unwrap();
        assert_eq!(stats.ticks, 7);
        let site = &stats.calls["Count"];
        assert!(site.have_probes, "legacy semantic: probes > 0 means seeded");
        assert_eq!(site.probes, 12.0);
        assert_eq!(site.served_total, [3, 0, 1, 0, 0, 2, 0]);
        // Re-exporting stamps the current version; the bytes round-trip.
        let back = import_runtime_stats(&export_runtime_stats(&stats)).unwrap();
        assert_eq!(back.calls["Count"].served_total, site.served_total);
    }

    #[test]
    fn runtime_stats_imports_reject_corruption() {
        let bytes = export_runtime_stats(&sample_stats());
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    import_runtime_stats(&bytes[..cut]),
                    Err(EnvError::Checkpoint(_))
                ),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn planner_state_round_trips_choices_and_mode() {
        let schema = paper_schema();
        let spatial = SpatialAttrs::from_schema(&schema);
        let registry = sgl_lang::builtins::paper_registry();
        let mut planned = FxHashMap::default();
        for name in registry.aggregate_names() {
            planned.insert(
                name.to_string(),
                plan_aggregate(registry.aggregate(name).unwrap(), &schema, spatial),
            );
        }
        let constants = sgl_algebra::cost::CostConstants::default();
        crate::planner::choose_physical(
            &mut planned,
            &RuntimeStats::default(),
            &constants,
            4000,
            true,
        );
        let installed_before: Vec<(String, PhysicalBackend, MaintenanceChoice)> = {
            let mut v: Vec<_> = planned
                .iter()
                .filter_map(|(n, p)| {
                    p.choice
                        .as_ref()
                        .map(|c| (n.clone(), c.backend, c.maintenance))
                })
                .collect();
            v.sort();
            v
        };
        assert!(!installed_before.is_empty());

        let mode = PlannerMode::cost_based(3);
        let bytes = export_planner_state(mode, &planned);
        let (back_mode, choices) = import_planner_state(&bytes).unwrap();
        assert_eq!(back_mode, mode);

        // Install onto a freshly planned map: same choices come back.
        let mut fresh = FxHashMap::default();
        for name in registry.aggregate_names() {
            fresh.insert(
                name.to_string(),
                plan_aggregate(registry.aggregate(name).unwrap(), &schema, spatial),
            );
        }
        let installed = install_choices(&mut fresh, choices);
        assert_eq!(installed, installed_before.len());
        let mut after: Vec<_> = fresh
            .iter()
            .filter_map(|(n, p)| {
                p.choice
                    .as_ref()
                    .map(|c| (n.clone(), c.backend, c.maintenance))
            })
            .collect();
        after.sort();
        assert_eq!(after, installed_before);
        // A re-cost with identical statistics keeps every installed choice
        // (zero switches) — the resumed planner continues, not restarts.
        assert_eq!(
            crate::planner::choose_physical(
                &mut fresh,
                &RuntimeStats::default(),
                &constants,
                4000,
                true,
            ),
            0
        );

        // A forced plan writes its mode and no choices: the resumer derives
        // them from its own configuration.
        for backend in PhysicalBackend::ALL {
            let mode = PlannerMode::Force(backend);
            let (back_mode, choices) =
                import_planner_state(&export_planner_state(mode, &fresh)).unwrap();
            assert_eq!(back_mode, mode);
            assert!(choices.is_empty(), "{backend:?}");
        }

        // Checkpoints of the retired planner modes still decode: tag 0 (the
        // fixed heuristic, which wrote no choices) is the paper's forced
        // plan, tag 2 (forced materialization, which wrote its choices) is
        // `Force(Materialized)`.
        let mut w = ByteWriter::new();
        w.u8(0);
        w.u32(0);
        w.u32(0);
        let (legacy_mode, choices) = import_planner_state(&w.finish()).unwrap();
        assert_eq!(
            legacy_mode,
            PlannerMode::Force(PhysicalBackend::LayeredTree)
        );
        assert!(choices.is_empty());
        let mut w = ByteWriter::new();
        w.u8(2);
        w.u32(0);
        w.u32(1);
        w.str("CountEnemiesInRange");
        w.u8(PhysicalBackend::Materialized.index() as u8);
        w.u8(1);
        w.f64(0.0);
        let (legacy_mode, choices) = import_planner_state(&w.finish()).unwrap();
        assert_eq!(
            legacy_mode,
            PlannerMode::Force(PhysicalBackend::Materialized)
        );
        assert_eq!(choices.len(), 1);
        assert_eq!(choices[0].1.backend, PhysicalBackend::Materialized);
        assert_eq!(choices[0].1.maintenance, MaintenanceChoice::Incremental);
    }

    #[test]
    fn planner_state_rejects_unknown_codes() {
        let mut w = ByteWriter::new();
        w.u8(9); // unknown mode
        assert!(matches!(
            import_planner_state(&w.finish()),
            Err(EnvError::Checkpoint(_))
        ));
        let mut w = ByteWriter::new();
        w.u8(0);
        w.u32(0);
        w.u32(1);
        w.str("X");
        w.u8(200); // unknown backend
        w.u8(0);
        w.f64(1.0);
        assert!(matches!(
            import_planner_state(&w.finish()),
            Err(EnvError::Checkpoint(_))
        ));
        let mut w = ByteWriter::new();
        w.u8(MODE_FORCE);
        w.u32(PhysicalBackend::ALL.len() as u32); // unknown forced backend
        w.u32(0);
        assert!(matches!(
            import_planner_state(&w.finish()),
            Err(EnvError::Checkpoint(_))
        ));
    }

    #[test]
    fn maint_stats_round_trip() {
        let stats = MaintStats {
            delta_ops: 10,
            partition_rebuilds: 3,
            rows_scanned: 250,
            effect_hints: 41,
            ..MaintStats::default()
        };
        let back = import_maint_stats(&export_maint_stats(&stats)).unwrap();
        assert_eq!(back, stats);
        assert!(import_maint_stats(&[1, 2, 3]).is_err());
    }
}
