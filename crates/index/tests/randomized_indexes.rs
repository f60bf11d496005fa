//! Randomized cross-validation of the index structures.
//!
//! Every index in `sgl-index` answers some class of aggregate query that the
//! naive executor answers by scanning; these tests assert that on arbitrary
//! inputs (positions, values, query rectangles) every index agrees exactly
//! with the scan.  This is the invariant that makes the paper's indexed
//! executor a pure optimization: same answers, different cost.
//!
//! Formerly proptest-based; rewritten as deterministic seeded sweeps (64
//! cases per property) because the build environment cannot fetch the
//! proptest crate.

use sgl_index::agg_tree::{AggEntry, LayeredAggTree};
use sgl_index::grid::UniformGrid;
use sgl_index::kdtree::KdTree;
use sgl_index::quadtree::AggQuadTree;
use sgl_index::range_tree::RangeTree2D;
use sgl_index::{Point2, Rect};

const WORLD: f64 = 256.0;
const CASES: u64 = 64;

/// Deterministic pseudo-random stream (splitmix64).
struct Rng(u64);

impl Rng {
    fn of_case(property: u64, case: u64) -> Rng {
        Rng(property
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(case.wrapping_mul(0x517C_C1B7_2722_0A95))
            | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A unit for the tests: position plus one value channel.  Coordinates snap
/// to a quarter-unit lattice so boundary cases (points exactly on a query
/// edge) are generated often.
#[derive(Debug, Clone)]
struct Row {
    x: f64,
    y: f64,
    value: f64,
}

fn random_rows(rng: &mut Rng, max: u64) -> Vec<Row> {
    (0..rng.below(max))
        .map(|_| Row {
            x: rng.below(1024) as f64 * 0.25,
            y: rng.below(1024) as f64 * 0.25,
            value: rng.below(100) as f64 - 50.0,
        })
        .collect()
}

fn random_rect(rng: &mut Rng) -> Rect {
    let x = rng.below(1024) as f64 * 0.25;
    let y = rng.below(1024) as f64 * 0.25;
    let w = rng.below(600) as f64 * 0.25;
    let h = rng.below(600) as f64 * 0.25;
    Rect::new(x, x + w, y, y + h)
}

fn points(rows: &[Row]) -> Vec<Point2> {
    rows.iter().map(|r| Point2::new(r.x, r.y)).collect()
}

fn brute_ids(rows: &[Row], rect: &Rect) -> Vec<u32> {
    rows.iter()
        .enumerate()
        .filter(|(_, r)| rect.contains(&Point2::new(r.x, r.y)))
        .map(|(i, _)| i as u32)
        .collect()
}

/// The divisible-aggregate layered range tree (Figure 8) answers count and
/// sum exactly, with and without fractional cascading.
#[test]
fn agg_tree_matches_scan() {
    for case in 0..CASES {
        let mut rng = Rng::of_case(1, case);
        let rows = random_rows(&mut rng, 200);
        let rect = random_rect(&mut rng);
        let entries: Vec<AggEntry> = rows
            .iter()
            .map(|r| AggEntry::new(Point2::new(r.x, r.y), vec![r.value]))
            .collect();
        let matching = brute_ids(&rows, &rect);
        let expected_count = matching.len() as f64;
        let expected_sum: f64 = matching.iter().map(|&i| rows[i as usize].value).sum();

        for cascading in [false, true] {
            let tree = LayeredAggTree::build(&entries, 1, cascading);
            let acc = tree.query(&rect);
            assert_eq!(acc.count(), expected_count, "case {case}");
            assert!(
                (acc.channel_sum(0) - expected_sum).abs() < 1e-6,
                "case {case}"
            );
            assert_eq!(tree.count(&rect), matching.len(), "case {case}");
        }
    }
}

/// The quadtree agrees with the scan for divisible aggregates, MIN/MAX and
/// enumeration.
#[test]
fn quadtree_matches_scan() {
    for case in 0..CASES {
        let mut rng = Rng::of_case(2, case);
        let rows = random_rows(&mut rng, 200);
        let rect = random_rect(&mut rng);
        let entries: Vec<AggEntry> = rows
            .iter()
            .map(|r| AggEntry::new(Point2::new(r.x, r.y), vec![r.value]))
            .collect();
        let tree = AggQuadTree::build(&entries, 1, 6);
        let matching = brute_ids(&rows, &rect);

        let acc = tree.query(&rect);
        assert_eq!(acc.count() as usize, matching.len(), "case {case}");
        let expected_sum: f64 = matching.iter().map(|&i| rows[i as usize].value).sum();
        assert!(
            (acc.channel_sum(0) - expected_sum).abs() < 1e-6,
            "case {case}"
        );

        assert_eq!(tree.query_points(&rect), matching, "case {case}");

        let expected_min = matching
            .iter()
            .map(|&i| rows[i as usize].value)
            .fold(f64::INFINITY, f64::min);
        let expected_max = matching
            .iter()
            .map(|&i| rows[i as usize].value)
            .fold(f64::NEG_INFINITY, f64::max);
        match tree.min_in_rect(&rect, 0) {
            Some(m) => assert_eq!(m.value, expected_min, "case {case}"),
            None => assert!(matching.is_empty(), "case {case}"),
        }
        match tree.max_in_rect(&rect, 0) {
            Some(m) => assert_eq!(m.value, expected_max, "case {case}"),
            None => assert!(matching.is_empty(), "case {case}"),
        }
    }
}

/// The enumeration range tree and the uniform grid agree with the scan.
#[test]
fn range_tree_and_grid_match_scan() {
    for case in 0..CASES {
        let mut rng = Rng::of_case(3, case);
        let rows = random_rows(&mut rng, 150);
        let rect = random_rect(&mut rng);
        let pts = points(&rows);
        let expected = brute_ids(&rows, &rect);

        let tree = RangeTree2D::build(&pts);
        let mut from_tree = tree.query(&rect);
        from_tree.sort_unstable();
        assert_eq!(from_tree, expected, "case {case}");
        assert_eq!(tree.count(&rect), expected.len(), "case {case}");

        let grid = UniformGrid::build(&pts, Point2::new(0.0, 0.0), Point2::new(WORLD, WORLD), 8.0);
        let mut from_grid = grid.query(&rect);
        from_grid.sort_unstable();
        assert_eq!(from_grid, expected, "case {case}");
    }
}

/// The kD-tree nearest neighbour matches the scan (distance ties allowed).
#[test]
fn kdtree_nearest_matches_scan() {
    for case in 0..CASES {
        let mut rng = Rng::of_case(5, case);
        let rows = random_rows(&mut rng, 120);
        let query = Point2::new(rng.unit() * WORLD, rng.unit() * WORLD);
        let pts = points(&rows);
        let tree = KdTree::build(&pts);
        let expected = pts
            .iter()
            .map(|p| query.dist2(p))
            .fold(f64::INFINITY, f64::min);
        match tree.nearest(&query) {
            Some((id, d2)) => {
                assert!((d2 - expected).abs() < 1e-9, "case {case}");
                assert!(
                    (query.dist2(&pts[id as usize]) - expected).abs() < 1e-9,
                    "case {case}"
                );
            }
            None => assert!(pts.is_empty(), "case {case}"),
        }
    }
}
