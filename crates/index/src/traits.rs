//! Common interfaces over the index structures: [`AggIndex`] for aggregate
//! probes and [`SpatialIndex`] for enumeration / nearest-neighbour probes.
//!
//! The paper's executor (§5.3) hardcodes one structure per aggregate class
//! and rebuilds all of them every clock tick.  These traits decouple the
//! three decisions the engine has to make per aggregate:
//!
//! 1. **which structure** answers the probe (layered range tree, quadtree,
//!    uniform grid, kD-tree, dynamic grid, ...) — [`AggStructureKind`] and
//!    the [`build_agg_index`] factory;
//! 2. **how the structure is maintained** across ticks — [`IndexDelta`]
//!    describes a unit-level change, [`AggIndex::apply_delta`] applies it
//!    when the structure supports incremental maintenance
//!    ([`AggIndex::supports_deltas`]), and rebuild-only structures simply
//!    report the delta as unsupported so the caller falls back to
//!    [`AggIndex::rebuild`];
//! 3. **what the probe returns** — a divisible accumulator
//!    ([`AggIndex::probe_rect`]), an exact extremum
//!    ([`AggIndex::probe_extremum`]), an id enumeration
//!    ([`SpatialIndex::probe_rect_ids`]) or a nearest neighbour
//!    ([`SpatialIndex::probe_nearest`]).
//!
//! Rows are identified by a caller-chosen `u64` id (the engine uses unit
//! keys), so indexes stay valid while the environment reorders physically.

use crate::agg_tree::{AggEntry, LayeredAggTree};
use crate::divisible::DivAcc;
use crate::grid::DynamicAggGrid;
use crate::kdtree::KdTree;
use crate::quadtree::AggQuadTree;
use crate::range_tree::RangeTree2D;
use crate::{Point2, Rect};

/// One indexed row: a stable id, a position and the aggregate channel values.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexRow {
    /// Caller-chosen stable identifier (the engine uses the unit key).
    pub id: u64,
    /// Position of the row.
    pub point: Point2,
    /// Aggregate channel values (length = the index's channel count).
    pub values: Vec<f64>,
}

impl IndexRow {
    /// Construct a row.
    pub fn new(id: u64, point: Point2, values: Vec<f64>) -> IndexRow {
        IndexRow { id, point, values }
    }
}

/// A unit-level change to an indexed set, produced by diffing two ticks.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexDelta {
    /// A row appeared (unit spawned or entered the partition).
    Insert {
        /// The new row.
        row: IndexRow,
    },
    /// A row disappeared (unit died or left the partition).
    Remove {
        /// Id of the removed row.
        id: u64,
        /// Its last indexed position.
        point: Point2,
    },
    /// A row moved and/or changed channel values.
    Update {
        /// Id of the row.
        id: u64,
        /// Position it was indexed at.
        old_point: Point2,
        /// The row's new state.
        row: IndexRow,
    },
}

/// Coarse per-delta update-cost class of an [`AggIndex`] backend — a hint
/// the cost-based planner maps onto its calibrated constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaCostClass {
    /// The structure cannot absorb deltas; every change forces a rebuild.
    RebuildOnly,
    /// One delta costs `O(log n)` (balanced tree structures).
    Logarithmic,
    /// One delta costs `O(1)` amortised (hash grids).
    Constant,
}

/// An extremum probe result: the extreme value and the id of a row attaining
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtremumResult {
    /// The minimum/maximum channel value inside the probe rectangle.
    pub value: f64,
    /// Id of a row attaining it.
    pub id: u64,
}

/// An aggregate index: answers divisible-aggregate (and optionally MIN/MAX)
/// probes over axis-aligned rectangles.
pub trait AggIndex {
    /// Number of aggregate channels carried per row.
    fn channels(&self) -> usize;

    /// Number of indexed rows.
    fn len(&self) -> usize;

    /// True when no rows are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard the current contents and build from scratch.
    fn rebuild(&mut self, rows: &[IndexRow]);

    /// Divisible aggregate (count / sums / sums of squares) of the rows
    /// inside `rect`.
    fn probe_rect(&self, rect: &Rect) -> DivAcc;

    /// Exact MIN (`minimize`) or MAX of a channel over the rows inside
    /// `rect`.  Returns `None` when the rectangle is empty of rows **or**
    /// when the structure does not support extremum probes (check
    /// [`AggIndex::supports_extremum`] to distinguish).
    fn probe_extremum(
        &self,
        _rect: &Rect,
        _channel: usize,
        _minimize: bool,
    ) -> Option<ExtremumResult> {
        None
    }

    /// Whether [`AggIndex::probe_extremum`] is answered exactly.
    fn supports_extremum(&self) -> bool {
        false
    }

    /// Apply one incremental change.  Returns `false` when the structure is
    /// rebuild-only (the caller must fall back to [`AggIndex::rebuild`]).
    fn apply_delta(&mut self, _delta: &IndexDelta) -> bool {
        false
    }

    /// Whether [`AggIndex::apply_delta`] is supported.
    fn supports_deltas(&self) -> bool {
        false
    }

    /// Approximate size of the structure in resident rows (the planner's
    /// density statistics aggregate over this; the default is the exact row
    /// count).
    fn size_hint_rows(&self) -> usize {
        self.len()
    }

    /// Coarse cost class of absorbing one [`IndexDelta`] — the
    /// patch-vs-rebuild hint behind the cost model's calibrated delta
    /// constants (`examples/calibrate_costs.rs` asserts the maintained
    /// grid's advertised class before measuring them).  Defaults to
    /// [`DeltaCostClass::RebuildOnly`] for structures without delta
    /// support.
    fn delta_cost_class(&self) -> DeltaCostClass {
        if self.supports_deltas() {
            DeltaCostClass::Logarithmic
        } else {
            DeltaCostClass::RebuildOnly
        }
    }

    /// Rows-per-area density of the indexed points, when the structure can
    /// measure it from its own occupancy (cost-planner hint: maintained
    /// grids report `rows / (occupied cells × cell area)`, which tracks
    /// where units actually cluster better than a bounding box).
    fn density_hint(&self) -> Option<f64> {
        None
    }
}

/// A spatial index: answers id-enumeration and nearest-neighbour probes.
pub trait SpatialIndex {
    /// Number of indexed rows.
    fn len(&self) -> usize;

    /// True when no rows are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the ids of every row inside `rect` to `out`.
    fn probe_rect_ids(&self, rect: &Rect, out: &mut Vec<u64>);

    /// The row nearest to `query` (squared Euclidean distance), if any.
    /// Returns `None` on an empty index or when the structure does not
    /// support nearest probes (check [`SpatialIndex::supports_nearest`]).
    fn probe_nearest(&self, _query: &Point2) -> Option<(u64, f64)> {
        None
    }

    /// Whether [`SpatialIndex::probe_nearest`] is answered exactly.
    fn supports_nearest(&self) -> bool {
        false
    }
}

/// Which concrete structure backs an [`AggIndex`], with its build parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggStructureKind {
    /// The paper's layered aggregate range tree (Figure 8), rebuilt per tick.
    LayeredTree {
        /// Use fractional cascading in the inner level.
        cascading: bool,
    },
    /// Bucket PR quadtree with per-node summaries (divisible + exact
    /// MIN/MAX), rebuilt per tick.
    QuadTree {
        /// Leaf bucket capacity.
        bucket: usize,
    },
    /// Dynamically maintained uniform hash grid (divisible + exact MIN/MAX +
    /// nearest), updated in place via [`IndexDelta`]s.
    DynamicGrid {
        /// Cell side length; `0.0` means "derive from the data at build
        /// time" (bounding box over `sqrt(n)`).
        cell: f64,
    },
}

/// Build an empty aggregate index of the given kind, then load `rows`.
pub fn build_agg_index(
    kind: AggStructureKind,
    channels: usize,
    rows: &[IndexRow],
) -> Box<dyn AggIndex + Send> {
    let mut index: Box<dyn AggIndex + Send> = match kind {
        AggStructureKind::LayeredTree { cascading } => Box::new(LayeredAggIndex {
            tree: LayeredAggTree::build(&[], channels, cascading),
            cascading,
            channels,
        }),
        AggStructureKind::QuadTree { bucket } => Box::new(QuadAggIndex {
            tree: AggQuadTree::build(&[], channels, bucket),
            ids: Vec::new(),
            bucket,
            channels,
        }),
        AggStructureKind::DynamicGrid { cell } => Box::new(DynamicAggGrid::new(cell, channels)),
    };
    index.rebuild(rows);
    index
}

// --- rebuild-only adapters ---------------------------------------------------

/// [`AggIndex`] adapter over the layered aggregate range tree.
struct LayeredAggIndex {
    tree: LayeredAggTree,
    cascading: bool,
    channels: usize,
}

impl AggIndex for LayeredAggIndex {
    fn channels(&self) -> usize {
        self.channels
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn rebuild(&mut self, rows: &[IndexRow]) {
        let entries: Vec<AggEntry> = rows
            .iter()
            .map(|r| AggEntry::new(r.point, r.values.clone()))
            .collect();
        self.tree = LayeredAggTree::build(&entries, self.channels, self.cascading);
    }

    fn probe_rect(&self, rect: &Rect) -> DivAcc {
        self.tree.query(rect)
    }
}

/// [`AggIndex`] adapter over the aggregate quadtree (also answers exact
/// extremum probes from the same structure).
struct QuadAggIndex {
    tree: AggQuadTree,
    /// Build-position → row id (the quadtree reports build positions).
    ids: Vec<u64>,
    bucket: usize,
    channels: usize,
}

impl AggIndex for QuadAggIndex {
    fn channels(&self) -> usize {
        self.channels
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn rebuild(&mut self, rows: &[IndexRow]) {
        let entries: Vec<AggEntry> = rows
            .iter()
            .map(|r| AggEntry::new(r.point, r.values.clone()))
            .collect();
        self.ids = rows.iter().map(|r| r.id).collect();
        self.tree = AggQuadTree::build(&entries, self.channels, self.bucket);
    }

    fn probe_rect(&self, rect: &Rect) -> DivAcc {
        self.tree.query(rect)
    }

    fn probe_extremum(
        &self,
        rect: &Rect,
        channel: usize,
        minimize: bool,
    ) -> Option<ExtremumResult> {
        let e = if minimize {
            self.tree.min_in_rect(rect, channel)
        } else {
            self.tree.max_in_rect(rect, channel)
        }?;
        Some(ExtremumResult {
            value: e.value,
            id: self.ids[e.id as usize],
        })
    }

    fn supports_extremum(&self) -> bool {
        true
    }
}

impl SpatialIndex for QuadAggIndex {
    fn len(&self) -> usize {
        self.tree.len()
    }

    fn probe_rect_ids(&self, rect: &Rect, out: &mut Vec<u64>) {
        out.extend(
            self.tree
                .query_points(rect)
                .into_iter()
                .map(|i| self.ids[i as usize]),
        );
    }
}

// --- spatial adapters --------------------------------------------------------

/// [`SpatialIndex`] adapter over the kD-tree (nearest-neighbour probes).
pub struct KdSpatialIndex {
    tree: KdTree,
    ids: Vec<u64>,
    points: Vec<Point2>,
}

impl KdSpatialIndex {
    /// Build from `(id, point)` pairs.
    pub fn build(rows: &[(u64, Point2)]) -> KdSpatialIndex {
        let points: Vec<Point2> = rows.iter().map(|(_, p)| *p).collect();
        KdSpatialIndex {
            tree: KdTree::build(&points),
            ids: rows.iter().map(|(id, _)| *id).collect(),
            points,
        }
    }
}

impl SpatialIndex for KdSpatialIndex {
    fn len(&self) -> usize {
        self.tree.len()
    }

    fn probe_rect_ids(&self, rect: &Rect, out: &mut Vec<u64>) {
        // The kD-tree has no native rectangle enumeration; a radius query
        // over the circumscribed circle plus a containment filter is exact.
        let cx = (rect.x_min + rect.x_max) / 2.0;
        let cy = (rect.y_min + rect.y_max) / 2.0;
        let radius = ((rect.x_max - cx).powi(2) + (rect.y_max - cy).powi(2)).sqrt();
        for local in self.tree.within_radius(&Point2::new(cx, cy), radius) {
            if rect.contains(&self.points[local as usize]) {
                out.push(self.ids[local as usize]);
            }
        }
    }

    fn probe_nearest(&self, query: &Point2) -> Option<(u64, f64)> {
        self.tree
            .nearest(query)
            .map(|(local, d2)| (self.ids[local as usize], d2))
    }

    fn supports_nearest(&self) -> bool {
        true
    }
}

/// [`SpatialIndex`] adapter over the enumeration range tree.
pub struct RangeSpatialIndex {
    tree: RangeTree2D,
    ids: Vec<u64>,
}

impl RangeSpatialIndex {
    /// Build from `(id, point)` pairs.
    pub fn build(rows: &[(u64, Point2)]) -> RangeSpatialIndex {
        let points: Vec<Point2> = rows.iter().map(|(_, p)| *p).collect();
        RangeSpatialIndex {
            tree: RangeTree2D::build(&points),
            ids: rows.iter().map(|(id, _)| *id).collect(),
        }
    }
}

impl SpatialIndex for RangeSpatialIndex {
    fn len(&self) -> usize {
        self.tree.len()
    }

    fn probe_rect_ids(&self, rect: &Rect, out: &mut Vec<u64>) {
        out.extend(
            self.tree
                .query(rect)
                .into_iter()
                .map(|local| self.ids[local as usize]),
        );
    }
}

/// [`SpatialIndex`] adapter over the uniform bucket grid.
pub struct GridSpatialIndex {
    grid: crate::grid::UniformGrid,
    ids: Vec<u64>,
}

impl GridSpatialIndex {
    /// Build from `(id, point)` pairs over the given world bounds.
    pub fn build(
        rows: &[(u64, Point2)],
        world_min: Point2,
        world_max: Point2,
        cell: f64,
    ) -> GridSpatialIndex {
        let points: Vec<Point2> = rows.iter().map(|(_, p)| *p).collect();
        GridSpatialIndex {
            grid: crate::grid::UniformGrid::build(&points, world_min, world_max, cell),
            ids: rows.iter().map(|(id, _)| *id).collect(),
        }
    }
}

impl SpatialIndex for GridSpatialIndex {
    fn len(&self) -> usize {
        self.grid.len()
    }

    fn probe_rect_ids(&self, rect: &Rect, out: &mut Vec<u64>) {
        out.extend(
            self.grid
                .query(rect)
                .into_iter()
                .map(|local| self.ids[local as usize]),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn rows(n: usize, seed: u64) -> Vec<IndexRow> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                IndexRow::new(
                    1000 + i as u64,
                    Point2::new(lcg(&mut state) * 100.0, lcg(&mut state) * 100.0),
                    vec![(i % 17) as f64],
                )
            })
            .collect()
    }

    fn brute(rows: &[IndexRow], rect: &Rect) -> DivAcc {
        let mut acc = DivAcc::identity(1);
        for r in rows {
            if rect.contains(&r.point) {
                acc.insert(&r.values);
            }
        }
        acc
    }

    #[test]
    fn every_structure_kind_answers_rect_probes() {
        let data = rows(300, 9);
        let rect = Rect::new(20.0, 70.0, 10.0, 60.0);
        let expected = brute(&data, &rect);
        for kind in [
            AggStructureKind::LayeredTree { cascading: true },
            AggStructureKind::LayeredTree { cascading: false },
            AggStructureKind::QuadTree { bucket: 8 },
            AggStructureKind::DynamicGrid { cell: 0.0 },
        ] {
            let index = build_agg_index(kind, 1, &data);
            assert_eq!(index.len(), 300, "{kind:?}");
            assert_eq!(index.channels(), 1, "{kind:?}");
            let acc = index.probe_rect(&rect);
            assert_eq!(acc.count(), expected.count(), "{kind:?}");
            assert!(
                (acc.channel_sum(0) - expected.channel_sum(0)).abs() < 1e-6,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn extremum_support_is_advertised_honestly() {
        let data = rows(100, 3);
        let rect = Rect::new(0.0, 100.0, 0.0, 100.0);
        let quad = build_agg_index(AggStructureKind::QuadTree { bucket: 8 }, 1, &data);
        let grid = build_agg_index(AggStructureKind::DynamicGrid { cell: 0.0 }, 1, &data);
        let tree = build_agg_index(AggStructureKind::LayeredTree { cascading: true }, 1, &data);
        assert!(quad.supports_extremum());
        assert!(grid.supports_extremum());
        assert!(!tree.supports_extremum());
        let expected_min = data
            .iter()
            .map(|r| r.values[0])
            .fold(f64::INFINITY, f64::min);
        for idx in [&quad, &grid] {
            let m = idx.probe_extremum(&rect, 0, true).unwrap();
            assert_eq!(m.value, expected_min);
        }
        assert_eq!(tree.probe_extremum(&rect, 0, true), None);
    }

    #[test]
    fn delta_support_matches_structure_class() {
        let data = rows(50, 1);
        let mut tree = build_agg_index(AggStructureKind::LayeredTree { cascading: true }, 1, &data);
        let mut grid = build_agg_index(AggStructureKind::DynamicGrid { cell: 0.0 }, 1, &data);
        let delta = IndexDelta::Remove {
            id: data[0].id,
            point: data[0].point,
        };
        assert!(!tree.supports_deltas());
        assert!(!tree.apply_delta(&delta));
        assert!(grid.supports_deltas());
        assert!(grid.apply_delta(&delta));
        assert_eq!(grid.len(), 49);
        assert_eq!(tree.len(), 50);
        // The advertised cost-class hints match the delta support.
        assert_eq!(tree.delta_cost_class(), DeltaCostClass::RebuildOnly);
        assert_eq!(grid.delta_cost_class(), DeltaCostClass::Constant);
        assert_eq!(tree.size_hint_rows(), 50);
        assert_eq!(grid.size_hint_rows(), 49);
        assert!(grid.density_hint().is_some());
        assert!(tree.density_hint().is_none());
    }

    #[test]
    fn spatial_adapters_agree_on_enumeration_and_nearest() {
        let data = rows(200, 44);
        let pairs: Vec<(u64, Point2)> = data.iter().map(|r| (r.id, r.point)).collect();
        let kd = KdSpatialIndex::build(&pairs);
        let range = RangeSpatialIndex::build(&pairs);
        let grid = GridSpatialIndex::build(
            &pairs,
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 100.0),
            7.0,
        );
        let rect = Rect::new(25.0, 75.0, 25.0, 75.0);
        let mut expected: Vec<u64> = data
            .iter()
            .filter(|r| rect.contains(&r.point))
            .map(|r| r.id)
            .collect();
        expected.sort_unstable();
        for (name, index) in [
            ("kd", &kd as &dyn SpatialIndex),
            ("range", &range),
            ("grid", &grid),
        ] {
            assert_eq!(index.len(), 200, "{name}");
            let mut got = Vec::new();
            index.probe_rect_ids(&rect, &mut got);
            got.sort_unstable();
            assert_eq!(got, expected, "{name}");
        }
        // Nearest: only the kD adapter advertises support.
        assert!(kd.supports_nearest());
        assert!(!range.supports_nearest());
        let query = Point2::new(50.0, 50.0);
        let (id, d2) = kd.probe_nearest(&query).unwrap();
        let best = data
            .iter()
            .map(|r| query.dist2(&r.point))
            .fold(f64::INFINITY, f64::min);
        assert!((d2 - best).abs() < 1e-9);
        assert!(data
            .iter()
            .any(|r| r.id == id && (query.dist2(&r.point) - best).abs() < 1e-9));
    }
}
