//! Regression tests: NaN coordinates must never panic an index build
//! (`sort_by` aborts on non-total orderings) and must never hide *finite*
//! points from queries.  Before the `f64::total_cmp` fix the comparators
//! fell back to `Ordering::Equal` for NaN, which is not transitive — the
//! structures built without complaint but their invariants did not hold.

use sgl_index::agg_tree::{AggEntry, LayeredAggTree};
use sgl_index::grid::DynamicAggGrid;
use sgl_index::kdtree::KdTree;
use sgl_index::range_tree::RangeTree2D;
use sgl_index::sweepline::{sweep_min_max, SweepKind};
use sgl_index::traits::{AggIndex, IndexRow, SpatialIndex};
use sgl_index::{Point2, Rect};

/// A deterministic mix of finite points with NaN contamination sprinkled in:
/// every third point has a NaN x, y or both, alternating the NaN sign —
/// `f64::total_cmp` sorts negative NaN *before* `-inf`, so sign-bit-set NaNs
/// (which x86 `0.0/0.0` produces) exercise a different failure mode than
/// `f64::NAN`.
fn contaminated_points(n: usize) -> (Vec<Point2>, Vec<usize>) {
    let mut points = Vec::with_capacity(n);
    let mut finite = Vec::new();
    for i in 0..n {
        let x = (i as f64 * 7.3) % 50.0;
        let y = (i as f64 * 11.9) % 50.0;
        let nan = if (i / 6) % 2 == 0 {
            f64::NAN
        } else {
            -f64::NAN
        };
        let p = match i % 6 {
            1 => Point2::new(nan, y),
            3 => Point2::new(x, nan),
            5 => Point2::new(nan, -nan),
            _ => {
                finite.push(i);
                Point2::new(x, y)
            }
        };
        points.push(p);
    }
    (points, finite)
}

#[test]
fn kdtree_with_nan_points_finds_every_finite_point() {
    let (points, finite) = contaminated_points(60);
    let tree = KdTree::build(&points);
    // Range queries still see every finite point...
    for &i in &finite {
        let q = points[i];
        let hits = tree.within_radius(&q, 0.5);
        assert!(hits.contains(&(i as u32)), "finite point {i} hidden");
    }
    // ...and nearest never returns a NaN-coordinate point.
    for &i in &finite {
        let (id, d2) = tree.nearest(&points[i]).expect("finite data exists");
        assert!(d2.is_finite(), "nearest returned NaN distance");
        assert!(
            points[id as usize].x.is_finite() && points[id as usize].y.is_finite(),
            "nearest returned a NaN point"
        );
        assert_eq!(d2, 0.0, "query point itself is in the tree");
    }
}

#[test]
fn kdtree_of_only_nan_points_returns_nothing() {
    let points = vec![Point2::new(f64::NAN, f64::NAN); 8];
    let tree = KdTree::build(&points);
    assert_eq!(tree.nearest(&Point2::new(1.0, 2.0)), None);
    assert!(tree.within_radius(&Point2::new(1.0, 2.0), 10.0).is_empty());
}

#[test]
fn range_tree_with_nan_points_enumerates_exactly_the_finite_matches() {
    let (points, finite) = contaminated_points(72);
    let tree = RangeTree2D::build(&points);
    let rect = Rect::new(5.0, 35.0, 5.0, 35.0);
    let mut fast = tree.query(&rect);
    fast.sort_unstable();
    let mut slow: Vec<u32> = finite
        .iter()
        .filter(|&&i| {
            let p = points[i];
            rect.x_min <= p.x && p.x <= rect.x_max && rect.y_min <= p.y && p.y <= rect.y_max
        })
        .map(|&i| i as u32)
        .collect();
    slow.sort_unstable();
    assert_eq!(fast, slow);
}

#[test]
fn layered_tree_with_nan_entries_aggregates_only_finite_rows() {
    let (points, finite) = contaminated_points(48);
    let entries: Vec<AggEntry> = points
        .iter()
        .map(|p| AggEntry::new(*p, vec![1.5]))
        .collect();
    for cascading in [false, true] {
        let tree = LayeredAggTree::build(&entries, 1, cascading);
        let rect = Rect::new(0.0, 50.0, 0.0, 50.0);
        let acc = tree.query(&rect);
        // NaN-coordinate entries fall outside every finite rectangle; they
        // must not be counted (and must not poison the channel sums).
        assert_eq!(acc.count() as usize, finite.len(), "cascading={cascading}");
        assert!((acc.channel_sum(0) - 1.5 * finite.len() as f64).abs() < 1e-9);
    }
}

#[test]
fn sweepline_with_nan_data_and_queries_matches_the_naive_filter() {
    let (points, _) = contaminated_points(54);
    let values: Vec<f64> = (0..points.len()).map(|i| (i % 13) as f64).collect();
    let (rx, ry) = (6.0, 6.0);
    for kind in [SweepKind::Min, SweepKind::Max] {
        let fast = sweep_min_max(&points, &values, &points, rx, ry, kind);
        for (qi, q) in points.iter().enumerate() {
            // The reference semantics: |dx| <= rx && |dy| <= ry, which is
            // false whenever a NaN is involved — NaN data never matches and
            // NaN queries match nothing.
            let mut best: Option<f64> = None;
            for (p, v) in points.iter().zip(&values) {
                if (p.x - q.x).abs() <= rx && (p.y - q.y).abs() <= ry {
                    best = Some(match (best, kind) {
                        (None, _) => *v,
                        (Some(b), SweepKind::Min) => b.min(*v),
                        (Some(b), SweepKind::Max) => b.max(*v),
                    });
                }
            }
            assert_eq!(fast[qi].map(|r| r.0), best, "{kind:?} query {qi}");
        }
    }
}

#[test]
fn dynamic_grid_survives_nan_rows() {
    let (points, finite) = contaminated_points(36);
    let rows: Vec<IndexRow> = points
        .iter()
        .enumerate()
        .map(|(i, p)| IndexRow::new(i as u64, *p, vec![2.0]))
        .collect();
    let mut grid = DynamicAggGrid::new(0.0, 1);
    grid.rebuild(&rows);
    let rect = Rect::new(0.0, 50.0, 0.0, 50.0);
    let acc = grid.probe_rect(&rect);
    assert_eq!(acc.count() as usize, finite.len());
    // Nearest probes skip NaN rows rather than returning a NaN distance.
    if let Some((id, d2)) = grid.probe_nearest(&Point2::new(10.0, 10.0)) {
        assert!(d2.is_finite());
        assert!(points[id as usize].x.is_finite());
    }
}
