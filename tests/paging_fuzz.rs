//! Page-manager fuzz suite: the columnar environment table must compute
//! the same logical contents — and serialize to the same bytes — no matter
//! which page manager backs it, how small the page budget is, or where
//! pin (fault-in) / unpin / evict passes land between mutations.
//!
//! The determinism contract under test: eviction decides *where bytes
//! live*, never *what the table contains*.  Every test drives a RAM-backed
//! table and a spill-backed twin through identical operation sequences and
//! demands identical observable state at every probe point.

use std::sync::Arc;

use sgl::env::pager::{PageData, PageManager, RamPageManager, SpillPageManager, PAGE_ROWS};
use sgl::env::snapshot::{restore, snapshot};
use sgl::env::{EnvError, EnvTable, Value};
use sgl::exec::ExecConfig;
use sgl_testkit::{generate_world, ConformanceCase, TestRng, WorldLayout, WorldSpec};

/// Rebuild `source`'s contents on a table backed by the given page manager.
fn rebuild_on(source: &EnvTable, pager: Arc<dyn PageManager>) -> EnvTable {
    let mut table = EnvTable::with_pager(Arc::clone(source.schema()), pager);
    for (_, row) in source.iter() {
        table
            .insert(row.to_tuple())
            .expect("source keys are unique");
    }
    table
}

/// Every observable of the two tables must agree: length, key order, every
/// column's values, and the serialized snapshot bytes.
fn assert_tables_identical(a: &EnvTable, b: &EnvTable, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: row counts diverged");
    assert_eq!(
        a.sorted_keys(),
        b.sorted_keys(),
        "{context}: key sets diverged"
    );
    for attr in 0..a.schema().len() {
        assert_eq!(
            a.column_values(attr).unwrap(),
            b.column_values(attr).unwrap(),
            "{context}: column {attr} diverged"
        );
    }
    assert_eq!(
        snapshot(a).unwrap(),
        snapshot(b).unwrap(),
        "{context}: snapshot bytes diverged — the encoding leaked page-residency state"
    );
}

/// One random mutation against both tables.  Keys are drawn from the live
/// key set so both sides always hit the same rows.
fn apply_random_op(rng: &mut TestRng, tables: &mut [&mut EnvTable; 2], op_no: usize) {
    let keys = tables[0].sorted_keys();
    let arity = tables[0].schema().len();
    match rng.below(6) {
        // Point write through the key index (typed value).
        0 if !keys.is_empty() => {
            let key = *rng.pick(&keys);
            let attr = 1 + rng.below(arity - 1);
            let value = Value::Float(op_no as f64 * 0.5);
            for t in tables.iter_mut() {
                t.set_by_key(key, attr, value.clone()).unwrap();
            }
        }
        // Point write forcing a Mixed-page promotion (variant mismatch).
        1 if !keys.is_empty() => {
            let key = *rng.pick(&keys);
            let attr = 1 + rng.below(arity - 1);
            let value = Value::Int(op_no as i64);
            for t in tables.iter_mut() {
                t.set_by_key(key, attr, value.clone()).unwrap();
            }
        }
        // Positional write.
        2 if !keys.is_empty() => {
            let row = rng.below(tables[0].len());
            let attr = 1 + rng.below(arity - 1);
            let value = Value::Float(-(op_no as f64));
            for t in tables.iter_mut() {
                t.set_attr(row, attr, value.clone()).unwrap();
            }
        }
        // Tombstone + compaction: remove a slice of the key space.
        3 if keys.len() > 4 => {
            let modulus = 3 + rng.below(5) as i64;
            let victim = rng.below(modulus as usize) as i64;
            for t in tables.iter_mut() {
                t.remove_where(|row| row.get_i64(0).unwrap().rem_euclid(modulus) == victim)
                    .unwrap();
            }
        }
        // Effect-column reset (the per-tick fast path).
        4 => {
            for t in tables.iter_mut() {
                t.reset_effects();
            }
        }
        // Pin / unpin / evict interleaving: fault everything in on one
        // side, enforce the budget on the other, at a random point in the
        // mutation stream.  Neither may change observable contents.
        _ => {
            for t in tables.iter_mut() {
                if rng.chance(1, 2) {
                    t.ensure_resident().unwrap();
                } else {
                    t.enforce_page_budget().unwrap();
                }
            }
        }
    }
}

#[test]
fn seeded_mutation_interleavings_match_ram_and_spill() {
    for seed in 0..8u64 {
        let layout = WorldLayout::ALL[seed as usize % WorldLayout::ALL.len()];
        let world = generate_world(WorldSpec {
            seed,
            units: 300 + (seed as usize * 97) % 500,
            layout,
            wounded: seed % 2 == 0,
            single_player: false,
        });
        let mut ram = rebuild_on(&world.table, Arc::new(RamPageManager::new()));
        // A budget of 2 pages on a multi-column table: almost every
        // operation crosses the eviction path.
        let spill = Arc::new(SpillPageManager::new(2).expect("spill file"));
        let mut spilled = rebuild_on(&world.table, spill);
        spilled.enforce_page_budget().unwrap();

        let mut rng = TestRng::new(seed ^ 0xFA57_F00D);
        for op_no in 0..60 {
            apply_random_op(&mut rng, &mut [&mut ram, &mut spilled], op_no);
            if op_no % 15 == 14 {
                assert_tables_identical(
                    &ram,
                    &spilled,
                    &format!("seed {seed} ({}) after op {op_no}", layout.name()),
                );
            }
        }
        assert_tables_identical(&ram, &spilled, &format!("seed {seed} final"));
        // The spill side actually exercised the eviction machinery.
        let stats = spilled.memory_stats();
        assert!(
            stats.evictions > 0,
            "seed {seed}: budget 2 never evicted — the fuzz lost its teeth"
        );
    }
}

#[test]
fn budget_boundary_cases_stay_deterministic() {
    // Enough rows for several pages per column.
    let world = generate_world(WorldSpec {
        seed: 11,
        units: PAGE_ROWS * 3 + 7,
        layout: WorldLayout::Uniform,
        wounded: true,
        single_player: false,
    });
    let ram = rebuild_on(&world.table, Arc::new(RamPageManager::new()));
    let total_pages = ram.memory_stats().resident_pages;
    assert!(
        total_pages > ram.schema().len(),
        "want multiple pages per column"
    );

    // budget < one column's pages, budget = exact fit, budget > resident.
    for budget in [1usize, total_pages, total_pages + 50] {
        let pager = Arc::new(SpillPageManager::new(budget).expect("spill file"));
        let mut table = rebuild_on(&world.table, pager);
        let evicted = table.enforce_page_budget().unwrap();
        let stats = table.memory_stats();
        assert!(
            stats.resident_pages <= budget,
            "budget {budget}: {} pages stayed resident",
            stats.resident_pages
        );
        if budget >= total_pages {
            assert_eq!(evicted, 0, "budget {budget} evicted needlessly");
        } else {
            assert!(evicted > 0, "budget {budget} evicted nothing");
        }
        assert_tables_identical(&ram, &table, &format!("budget {budget}"));
        // A second enforcement pass is idempotent.
        assert_eq!(
            table.enforce_page_budget().unwrap(),
            0,
            "budget {budget} not idempotent"
        );
        // Fault everything back in: contents unchanged, nothing spilled.
        table.ensure_resident().unwrap();
        assert_eq!(table.memory_stats().spilled_pages, 0);
        assert_tables_identical(&ram, &table, &format!("budget {budget} after fault-in"));
    }
}

#[test]
fn spill_file_corruption_is_a_typed_error_not_silent_data() {
    // Crash-safety of the spill file: a page that comes back different
    // from what was written must surface as a typed pager error — never as
    // silently wrong column data.
    let pager = SpillPageManager::new(1).expect("spill file");
    let page = PageData::F64((0..PAGE_ROWS).map(|i| i as f64 * 0.25).collect());
    let token = pager.spill(&page).expect("spill");
    // Round trip is exact before the corruption.
    assert_eq!(pager.load(token).expect("load"), page);

    // Flip bytes in the middle of the record, past the length header.
    use std::io::{Seek, SeekFrom, Write as _};
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .open(pager.path())
        .expect("open spill file");
    file.seek(SeekFrom::Start(24)).expect("seek");
    file.write_all(&[0xAB, 0xCD, 0xEF]).expect("overwrite");
    file.sync_all().expect("sync");

    let err = pager.load(token).expect_err("corrupted page must not load");
    match err {
        EnvError::Pager(msg) => assert!(
            msg.contains("checksum"),
            "pager error should name the checksum: {msg}"
        ),
        other => panic!("expected EnvError::Pager, got {other:?}"),
    }
}

#[test]
fn snapshots_survive_a_spill_restart_cycle() {
    // Simulated crash-recovery: snapshot a spill-backed table, drop it
    // (the spill file is deleted), restore the bytes onto a *fresh* spill
    // manager, and demand byte-identical re-serialization.  The snapshot
    // must be self-contained — nothing may reference the dead spill file.
    let world = generate_world(WorldSpec {
        seed: 23,
        units: 400,
        layout: WorldLayout::Clustered,
        wounded: true,
        single_player: false,
    });
    let pager = Arc::new(SpillPageManager::new(2).expect("spill file"));
    let spill_path = pager.path().to_path_buf();
    let mut table = rebuild_on(&world.table, pager);
    table.enforce_page_budget().unwrap();
    let bytes = snapshot(&table).unwrap();
    let schema = Arc::clone(table.schema());
    drop(table);
    assert!(!spill_path.exists(), "spill file must die with its tables");

    let restored = restore(&bytes, &schema).expect("restore after restart");
    assert_eq!(
        snapshot(&restored).unwrap(),
        bytes,
        "re-snapshot after a spill restart drifted"
    );
}

#[test]
fn engine_checkpoints_are_byte_identical_with_spill_on_and_off() {
    // Full-stack version of the contract: an entire simulation — scripts,
    // executor, movement, resurrection — produces bit-identical checkpoint
    // bytes whether its environment pages through a spill budget or not.
    for seed in [3u64, 17] {
        let case = ConformanceCase::generate(seed);
        let config = ExecConfig::indexed(&case.world.schema);
        let ram_table = rebuild_on(&case.world.table, Arc::new(RamPageManager::new()));
        let spill_table = rebuild_on(
            &case.world.table,
            Arc::new(SpillPageManager::new(2).expect("spill file")),
        );

        let mut sim_ram = case.build_on(ram_table, config);
        let mut sim_spill = case.build_on(spill_table, config);
        for tick in 0..case.ticks {
            sim_ram.step().expect("ram tick");
            sim_spill.step().expect("spill tick");
            assert_eq!(
                sim_ram.digest(),
                sim_spill.digest(),
                "seed {seed}: digests diverged at tick {tick}"
            );
        }
        // The spill side really paged.
        let last = sim_spill.history().last().expect("history");
        assert!(
            last.memory.evictions > 0 && last.allocs.fault_in > 0,
            "seed {seed}: the spill run never crossed the eviction path"
        );
        assert_eq!(
            sim_ram.checkpoint().unwrap(),
            sim_spill.checkpoint().unwrap(),
            "seed {seed}: checkpoint bytes depend on the page manager"
        );
    }
}
