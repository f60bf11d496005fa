//! # sgl-index — in-memory index structures for game aggregates
//!
//! This crate implements the index structures of §5.3 of *Scaling Games to
//! Epic Proportions*.  They are all designed to be **rebuilt from scratch at
//! every clock tick** (the paper observes this is cheaper than dynamic
//! maintenance for volatile attributes such as positions) and to answer the
//! aggregate queries issued by thousands of unit scripts in `O(log n)` or
//! `O(log² n)` per probe instead of `O(n)`:
//!
//! * [`divisible`] — accumulators for divisible aggregates (count, sum, mean,
//!   second moments / standard deviation, centroids; Definition 5.1);
//! * [`agg_tree`] — a layered range tree whose inner y-lists store *prefix
//!   accumulators* instead of points (Figure 8), with optional fractional
//!   cascading;
//! * [`range_tree`] — the classical layered range tree enumerating the points
//!   in an orthogonal range (used as the fallback for non-divisible
//!   aggregates over arbitrary filters);
//! * [`kdtree`] — a kD-tree for nearest-neighbour spatial aggregates (§5.3.2);
//! * [`segtree`] / [`sweepline`] — the sweep-line technique of Figure 9 for
//!   MIN/MAX aggregates over constant-size ranges;
//! * [`partition`] — the categorical hash layer (player × unit type) placed on
//!   top of the spatial indexes, as in the experimental setup of §6;
//! * [`grid`] — a uniform bucket grid, and the maintained (not rebuilt)
//!   [`grid::DynamicAggGrid`] that patches per-unit deltas across ticks;
//! * [`quadtree`] — a bucket PR quadtree with per-node aggregate summaries
//!   (divisible aggregates *and* exact MIN/MAX from one structure), an
//!   ablation point against the paper's layered range tree + sweep-line pair.
//!
//! All structures are additionally reachable through the common trait layer
//! of [`traits`] ([`traits::AggIndex`] / [`traits::SpatialIndex`]), which is
//! what the executor's cross-tick `IndexManager` programs against:
//! rebuild-per-tick structures and dynamically maintained ones (the
//! [`grid`] module's [`grid::DynamicAggGrid`]) answer the same probes
//! behind one interface.

#![warn(missing_docs)]

pub mod agg_tree;
pub mod divisible;
pub mod grid;
pub mod kdtree;
pub mod partition;
pub mod quadtree;
pub mod range_tree;
pub mod segtree;
pub mod sweepline;
pub mod traits;

/// Total order on `f64` placing every NaN — of either sign — after all
/// ordinary numbers.
///
/// `f64::total_cmp` alone is not enough for the index structures: it sorts
/// negative NaN *before* `-inf`, while the query-time binary searches and
/// IEEE comparisons all assume that never-matching NaN entries sit at the
/// *end* of a sorted run (`v < bound` and `v <= bound` must be monotonic
/// false-suffix predicates).
pub fn nan_last_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("neither operand is NaN"),
    }
}

/// A point in the plane (unit position).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

impl Point2 {
    /// Construct a point.
    pub fn new(x: f64, y: f64) -> Point2 {
        Point2 { x, y }
    }

    /// Squared Euclidean distance to another point.
    pub fn dist2(&self, other: &Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// An axis-aligned query rectangle (inclusive bounds, matching the `>=`/`<=`
/// filters of the paper's aggregate definitions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum x (inclusive).
    pub x_min: f64,
    /// Maximum x (inclusive).
    pub x_max: f64,
    /// Minimum y (inclusive).
    pub y_min: f64,
    /// Maximum y (inclusive).
    pub y_max: f64,
}

impl Rect {
    /// Construct a rectangle from inclusive bounds.
    pub fn new(x_min: f64, x_max: f64, y_min: f64, y_max: f64) -> Rect {
        Rect {
            x_min,
            x_max,
            y_min,
            y_max,
        }
    }

    /// The square of side `2·range` centred on `(x, y)` — the paper's
    /// standard "in range" region.
    pub fn centered(x: f64, y: f64, range: f64) -> Rect {
        Rect {
            x_min: x - range,
            x_max: x + range,
            y_min: y - range,
            y_max: y + range,
        }
    }

    /// Does the rectangle contain the point (inclusive)?
    pub fn contains(&self, p: &Point2) -> bool {
        p.x >= self.x_min && p.x <= self.x_max && p.y >= self.y_min && p.y <= self.y_max
    }

    /// Is the rectangle empty (no point can satisfy it)?
    pub fn is_empty(&self) -> bool {
        self.x_min > self.x_max || self.y_min > self.y_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_contains_and_centered() {
        let r = Rect::centered(10.0, 20.0, 5.0);
        assert_eq!(r, Rect::new(5.0, 15.0, 15.0, 25.0));
        assert!(r.contains(&Point2::new(5.0, 15.0)));
        assert!(r.contains(&Point2::new(15.0, 25.0)));
        assert!(!r.contains(&Point2::new(4.9, 20.0)));
        assert!(!r.is_empty());
        assert!(Rect::new(1.0, 0.0, 0.0, 1.0).is_empty());
    }

    #[test]
    fn point_distance() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.dist2(&b), 25.0);
        assert_eq!(a.dist2(&a), 0.0);
    }
}
