//! Measure the cost-model constants of the cost-based planner on this
//! machine, from micro-benchmarks of the real index structures (µs per
//! elementary operation).  The checked-in
//! `CostConstants::default_calibration` values are a rounded snapshot of
//! this measurement; install a fresh one with
//! `Simulation::set_cost_constants`.
//!
//! ```text
//! cargo run --release --example calibrate_costs
//! ```

use std::time::Instant;

use sgl::algebra::cost::CostConstants;
use sgl::index::agg_tree::{AggEntry, LayeredAggTree};
use sgl::index::grid::DynamicAggGrid;
use sgl::index::kdtree::KdTree;
use sgl::index::quadtree::AggQuadTree;
use sgl::index::traits::{AggIndex, DeltaCostClass, IndexDelta, IndexRow};
use sgl::index::{Point2, Rect};

fn main() {
    println!("cost-model constants measured on this machine (µs):");
    print!("{}", constants_summary(&calibrate_cost_constants()));
}

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64) / ((1u64 << 53) as f64)
}

fn calib_rows(n: usize) -> Vec<IndexRow> {
    let mut state = 77u64;
    (0..n)
        .map(|i| {
            IndexRow::new(
                i as u64,
                Point2::new(lcg(&mut state) * 100.0, lcg(&mut state) * 100.0),
                vec![(i % 23) as f64],
            )
        })
        .collect()
}

fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps.max(1) {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps.max(1) as f64
}

/// Measure the cost-model constants on this machine from the real index
/// structures (µs per elementary operation).  The checked-in
/// [`CostConstants::default_calibration`] values are a rounded snapshot of
/// this.
fn calibrate_cost_constants() -> CostConstants {
    let n = 2000usize;
    let rows = calib_rows(n);
    let entries: Vec<AggEntry> = rows
        .iter()
        .map(|r| AggEntry::new(r.point, r.values.clone()))
        .collect();
    let points: Vec<Point2> = rows.iter().map(|r| r.point).collect();
    let log_n = (n as f64).log2();
    let rect = Rect::new(20.0, 45.0, 20.0, 45.0);

    // Scan: visit every row, test containment, fold one channel.
    let scan_us = time_us(50, || {
        let mut acc = 0.0;
        for r in &rows {
            if rect.contains(&r.point) {
                acc += r.values[0];
            }
        }
        std::hint::black_box(acc);
    });

    let layered_build_us = time_us(5, || {
        std::hint::black_box(LayeredAggTree::build(&entries, 1, true));
    });
    let layered = LayeredAggTree::build(&entries, 1, true);
    let layered_probe_us = time_us(2000, || {
        std::hint::black_box(layered.query(&rect));
    });

    let quad_build_us = time_us(5, || {
        std::hint::black_box(AggQuadTree::build(&entries, 1, 8));
    });
    let quad = AggQuadTree::build(&entries, 1, 8);
    let quad_probe_us = time_us(2000, || {
        std::hint::black_box(quad.query(&rect));
    });
    // Rows a probe of this rectangle actually touches (for the per-row part).
    let matched = quad.query(&rect).count().max(1.0);

    let mut grid = DynamicAggGrid::new(0.0, 1);
    grid.rebuild(&rows);
    // The measured grid_delta constant is the cost of a Constant-class
    // delta; hold the structure to its advertised class.
    assert_eq!(
        AggIndex::delta_cost_class(&grid),
        DeltaCostClass::Constant,
        "DynamicAggGrid must advertise O(1) deltas"
    );
    let grid_build_us = time_us(5, || {
        let mut g = DynamicAggGrid::new(0.0, 1);
        g.rebuild(&rows);
        std::hint::black_box(&g);
    });
    let grid_probe_us = time_us(2000, || {
        std::hint::black_box(AggIndex::probe_rect(&grid, &rect));
    });
    let grid_delta_us = time_us(2000, || {
        let row = rows[17].clone();
        grid.apply_delta(&IndexDelta::Update {
            id: row.id,
            old_point: row.point,
            row,
        });
    });

    let kd_build_us = time_us(5, || {
        std::hint::black_box(KdTree::build(&points));
    });
    let kd = KdTree::build(&points);
    let kd_probe_us = time_us(2000, || {
        std::hint::black_box(kd.nearest(&Point2::new(50.0, 50.0)));
    });

    // Materialized answer store: a serve is one fingerprint lookup plus a
    // clone of the stored answer; one maintenance step is a delta × entry
    // relevance check (rect containment plus a channel-bits compare).
    let answers: std::collections::HashMap<u64, Vec<f64>> = (0..n as u64)
        .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), vec![1.0, 2.0]))
        .collect();
    let probe_keys: Vec<u64> = answers.keys().copied().take(16).collect();
    let mat_serve_us = time_us(2000, || {
        for k in &probe_keys {
            std::hint::black_box(answers.get(k).cloned());
        }
    });
    let mat_delta_us = time_us(2000, || {
        let mut relevant = 0usize;
        for r in rows.iter().take(64) {
            if rect.contains(&r.point) && r.values[0].to_bits() != 1 {
                relevant += 1;
            }
        }
        std::hint::black_box(relevant);
    });

    CostConstants {
        scan_row: (scan_us / n as f64).max(1e-6),
        build_layered_row: (layered_build_us / (n as f64 * log_n)).max(1e-6),
        probe_layered: (layered_probe_us / (3.0 * log_n)).max(1e-6),
        build_quad_row: (quad_build_us / n as f64).max(1e-6),
        probe_quad: (quad_probe_us / (2.0 * log_n + matched)).max(1e-6),
        build_kd_row: (kd_build_us / (n as f64 * log_n)).max(1e-6),
        probe_kd: (kd_probe_us / log_n).max(1e-6),
        // The sweep shares the sort-dominated profile of the layered build.
        sweep_row: (layered_build_us / (n as f64 * log_n)).max(1e-6),
        grid_delta: grid_delta_us.max(1e-6),
        grid_build_row: (grid_build_us / n as f64).max(1e-6),
        grid_probe_base: (grid_probe_us * 0.25).max(1e-6),
        grid_probe_row: (grid_probe_us * 0.75 / matched).max(1e-6),
        struct_overhead: CostConstants::default_calibration().struct_overhead,
        mat_delta: (mat_delta_us / 64.0).max(1e-6),
        mat_serve: (mat_serve_us / 16.0).max(1e-6),
    }
}

/// Render constants as a copy-pastable snippet.
fn constants_summary(c: &CostConstants) -> String {
    format!(
        "scan_row: {:.4}\nbuild_layered_row: {:.4}\nprobe_layered: {:.4}\n\
         build_quad_row: {:.4}\nprobe_quad: {:.4}\nbuild_kd_row: {:.4}\n\
         probe_kd: {:.4}\nsweep_row: {:.4}\ngrid_delta: {:.4}\n\
         grid_build_row: {:.4}\ngrid_probe_base: {:.4}\ngrid_probe_row: {:.4}\n\
         struct_overhead: {:.4}\nmat_delta: {:.4}\nmat_serve: {:.4}\n\
         break_even_update_rate: {:.3}\n",
        c.scan_row,
        c.build_layered_row,
        c.probe_layered,
        c.build_quad_row,
        c.probe_quad,
        c.build_kd_row,
        c.probe_kd,
        c.sweep_row,
        c.grid_delta,
        c.grid_build_row,
        c.grid_probe_base,
        c.grid_probe_row,
        c.struct_overhead,
        c.mat_delta,
        c.mat_serve,
        c.break_even_update_rate()
    )
}
