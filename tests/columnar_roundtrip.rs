//! Column round-trip property sweep over the adversarial world generator.
//!
//! Three properties, checked across every world layout and a seed sweep:
//!
//! * **row↔column agreement** — the row view ([`EnvTable::row`] /
//!   [`EnvTable::value_at`]) and the column view ([`EnvTable::column_values`]
//!   and the typed column extractors) are two projections of one store and
//!   must always agree cell for cell;
//! * **tombstone compaction** — removing rows compacts every column in
//!   lockstep: survivors keep their attribute values, the key index stays
//!   exact, and the column lengths never skew;
//! * **snapshot byte-stability** — `snapshot → restore → snapshot` is a
//!   fixed point, including after Mixed-page promotions and compaction,
//!   because the columnar encoding is a pure function of logical content.
//!
//! Plus a footprint bound: the table's resident bytes per row and peak
//! resident pages on two seeded battles stay within 25 % of the recorded
//! figures (deterministic, so no machine noise enters).

use std::sync::Arc;

use sgl::battle::{battle_mechanics, battle_registry, BattleScenario, ScenarioConfig};
use sgl::engine::{Simulation, UnitSelector};
use sgl::env::snapshot::{restore, snapshot};
use sgl::env::{EnvTable, TableMemoryStats, Value};
use sgl::exec::{ExecConfig, PhysicalBackend, PlannerMode};
use sgl::GameBuilder;
use sgl_testkit::{generate_world, TestRng, WorldLayout, WorldSpec};

fn sweep_worlds() -> impl Iterator<Item = (u64, WorldLayout)> {
    (0..4u64).flat_map(|seed| WorldLayout::ALL.iter().map(move |l| (seed, *l)))
}

/// The row view and the column view must agree on every cell.
fn assert_views_agree(table: &EnvTable, context: &str) {
    let arity = table.schema().len();
    let columns: Vec<Vec<Value>> = (0..arity)
        .map(|a| table.column_values(a).expect("column read"))
        .collect();
    for (attr, column) in columns.iter().enumerate() {
        assert_eq!(
            column.len(),
            table.len(),
            "{context}: column {attr} length skew"
        );
    }
    for (idx, row) in table.iter() {
        for (attr, column) in columns.iter().enumerate() {
            assert_eq!(
                row.get(attr),
                column[idx],
                "{context}: row/column disagree at ({idx}, {attr})"
            );
            assert_eq!(
                table.value_at(idx, attr),
                column[idx],
                "{context}: value_at/column disagree at ({idx}, {attr})"
            );
        }
    }
    // Typed extractors agree with the generic view where they apply.
    for (attr, column) in columns.iter().enumerate() {
        if let Ok(typed) = table.column_f64(attr) {
            for (idx, x) in typed.iter().enumerate() {
                assert_eq!(
                    column[idx].as_f64().unwrap(),
                    *x,
                    "{context}: column_f64 disagrees at ({idx}, {attr})"
                );
            }
        }
    }
}

#[test]
fn row_and_column_views_agree_across_the_generator() {
    for (seed, layout) in sweep_worlds() {
        let world = generate_world(WorldSpec {
            seed,
            units: 150 + (seed as usize * 131) % 400,
            layout,
            wounded: seed % 2 == 1,
            single_player: seed % 3 == 0,
        });
        assert_views_agree(&world.table, &format!("seed {seed} {}", layout.name()));
    }
}

#[test]
fn tombstone_compaction_keeps_columns_in_lockstep() {
    for (seed, layout) in sweep_worlds() {
        let mut world = generate_world(WorldSpec {
            seed,
            units: 200,
            layout,
            wounded: true,
            single_player: false,
        });
        let context = format!("seed {seed} {}", layout.name());
        let table = &mut world.table;
        let key_attr = table.schema().key_attr();

        // Record survivors' full rows before the kill.
        let mut rng = TestRng::new(seed ^ 0xDEAD);
        let modulus = 2 + rng.below(4) as i64;
        let victim = rng.below(modulus as usize) as i64;
        let expected: Vec<(i64, Vec<Value>)> = table
            .iter()
            .filter(|(_, row)| row.get_i64(key_attr).unwrap().rem_euclid(modulus) != victim)
            .map(|(_, row)| {
                let key = row.get_i64(key_attr).unwrap();
                (key, (0..table.schema().len()).map(|a| row.get(a)).collect())
            })
            .collect();

        let before = table.len();
        let removed = table
            .remove_where(|row| row.get_i64(key_attr).unwrap().rem_euclid(modulus) == victim)
            .unwrap();
        assert_eq!(before - removed, expected.len(), "{context}: removal count");
        assert_eq!(
            table.len(),
            expected.len(),
            "{context}: post-compaction length"
        );
        assert_views_agree(table, &format!("{context} after compaction"));

        // Survivors kept their rows, in original relative order, and the
        // key index resolves each one.
        for (idx, (key, values)) in expected.iter().enumerate() {
            assert_eq!(table.key_of(idx), *key, "{context}: survivor order broke");
            assert_eq!(
                table.find_key_readonly(*key),
                Some(idx),
                "{context}: key index lost a survivor"
            );
            for (attr, expected_value) in values.iter().enumerate() {
                assert_eq!(
                    table.value_at(idx, attr),
                    *expected_value,
                    "{context}: survivor ({idx}, {attr}) mutated during compaction"
                );
            }
        }
    }
}

#[test]
fn snapshot_restore_snapshot_is_a_fixed_point() {
    for (seed, layout) in sweep_worlds() {
        let mut world = generate_world(WorldSpec {
            seed,
            units: 180,
            layout,
            wounded: seed % 2 == 0,
            single_player: false,
        });
        let context = format!("seed {seed} {}", layout.name());
        let table = &mut world.table;
        let mut rng = TestRng::new(seed ^ 0xC0DE);

        // Scramble the column representations: variant-mismatched writes
        // promote pages to Mixed, compaction rebuilds them typed, and a
        // couple of writes restore uniformity on some columns — so the
        // sweep covers typed, Mixed and re-uniformed pages.
        let arity = table.schema().len();
        for op in 0..30 {
            let row = rng.below(table.len());
            let attr = 1 + rng.below(arity - 1);
            let value = if rng.chance(1, 2) {
                Value::Int(op as i64)
            } else {
                Value::Float(op as f64 * 1.5)
            };
            table.set_attr(row, attr, value).unwrap();
        }
        if rng.chance(2, 3) {
            table
                .remove_where(|row| row.get_i64(0).unwrap() % 5 == 0)
                .unwrap();
        }

        let bytes = snapshot(table).unwrap();
        let restored = restore(&bytes, table.schema()).expect("restore");
        assert_eq!(
            snapshot(&restored).unwrap(),
            bytes,
            "{context}: snapshot → restore → snapshot is not a fixed point"
        );
        assert_views_agree(&restored, &format!("{context} restored"));

        // And the restored table is logically identical to the original.
        for attr in 0..arity {
            assert_eq!(
                table.column_values(attr).unwrap(),
                restored.column_values(attr).unwrap(),
                "{context}: column {attr} changed across the round trip"
            );
        }
    }
}

/// Run `sim` for one warm-up tick plus 25 measured ticks and return the
/// table's memory statistics after the last one.
fn footprint_after_run(mut sim: Simulation) -> TableMemoryStats {
    sim.run(26).expect("ticks succeed");
    sim.history().last().expect("ticks ran").memory
}

fn assert_footprint(label: &str, memory: TableMemoryStats, bytes_per_row: f64, pages: f64) {
    assert!(
        memory.bytes_per_row <= 1.25 * bytes_per_row,
        "{label}: {} bytes per row exceeds 1.25 × {bytes_per_row}",
        memory.bytes_per_row
    );
    assert!(
        memory.peak_resident_pages as f64 <= 1.25 * pages,
        "{label}: {} peak resident pages exceeds 1.25 × {pages}",
        memory.peak_resident_pages
    );
}

/// The footprint of the environment table on a moving battle and on a calm
/// sentry garrison: resident bytes per row and the peak resident page count
/// within 25 % of the figures recorded when the columnar store landed
/// (184.32 B/row and 36 pages; 161.28 B/row and 126 pages).
#[test]
fn table_footprint_stays_within_the_recorded_bounds() {
    let battle = |units: usize, density: f64| {
        BattleScenario::generate(ScenarioConfig {
            units,
            density,
            seed: 20260730,
            ..ScenarioConfig::default()
        })
    };

    let roster = battle(400, 0.01);
    let memory = footprint_after_run(roster.build_with_config(ExecConfig::indexed(&roster.schema)));
    assert_footprint("400-unit battle", memory, 184.32, 36.0);

    // Stationary sentries in a sparse world, every legal call site served
    // from materialized answers.
    let calm = battle(1600, 0.0005);
    let sim = GameBuilder::new(
        Arc::clone(&calm.schema),
        battle_registry(),
        battle_mechanics(&calm.schema, calm.world_side, calm.config.resurrect),
    )
    .exec_config(
        ExecConfig::indexed(&calm.schema)
            .with_planner(PlannerMode::Force(PhysicalBackend::Materialized)),
    )
    .seed(calm.config.seed)
    .script(
        "sentry",
        include_str!("../sglbench/scripts/sentry.sgl"),
        UnitSelector::All,
    )
    .build(calm.table.clone())
    .expect("sentry script compiles");
    assert_footprint(
        "1600-unit calm garrison",
        footprint_after_run(sim),
        161.28,
        126.0,
    );
}
