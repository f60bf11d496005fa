//! Analysis of built-in filters `φ(u, e, r)` for index selection (§5.3).
//!
//! The planner assumes conjunctive filters (the paper notes this covers the
//! scripts found in practice) and classifies each conjunct as
//!
//! * a **spatial bound** on the candidate row's position
//!   (`e.posx >= u.posx - range`), which together form the orthogonal range
//!   query answered by the range trees;
//! * a **categorical constraint** (`e.player <> u.player`,
//!   `e.unittype = "healer"`), which selects partitions of the hash layer;
//! * a **key equality** (`e.key = target_key`), the targeted-action case;
//! * anything else is **residual** and forces per-row evaluation.

use sgl_env::Schema;
use sgl_lang::ast::{CmpOp, Cond, Term, VarRef};

use crate::config::SpatialAttrs;

/// A categorical constraint: `e.attr = value` or `e.attr ≠ value`.
#[derive(Debug, Clone, PartialEq)]
pub struct CatConstraint {
    /// Attribute name on the candidate row.
    pub attr: String,
    /// True for equality, false for inequality.
    pub equal: bool,
    /// The comparison value (a term over `u.*` and parameters).
    pub value: Term,
}

/// Result of analysing a filter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterAnalysis {
    /// Whether the filter was a conjunctive query at all.
    pub conjunctive: bool,
    /// Lower bound on `e.<x>` (term over `u`/parameters).
    pub x_lo: Option<Term>,
    /// Upper bound on `e.<x>`.
    pub x_hi: Option<Term>,
    /// Lower bound on `e.<y>`.
    pub y_lo: Option<Term>,
    /// Upper bound on `e.<y>`.
    pub y_hi: Option<Term>,
    /// Categorical constraints.
    pub cats: Vec<CatConstraint>,
    /// `e.key = term` constraint, if present.
    pub key_eq: Option<Term>,
    /// Conjuncts that could not be classified.
    pub residual: Vec<Cond>,
}

impl FilterAnalysis {
    /// True when all four spatial bounds are present (a complete orthogonal
    /// range query on the position).
    pub fn has_rect(&self) -> bool {
        self.x_lo.is_some() && self.x_hi.is_some() && self.y_lo.is_some() && self.y_hi.is_some()
    }

    /// True when the filter has no residual conjuncts (so indexes answer it
    /// exactly, with no per-row re-checking).
    pub fn is_exact(&self) -> bool {
        self.conjunctive && self.residual.is_empty()
    }

    /// The constraints that define the partition signature of the hash
    /// layer: one per distinct categorical attribute (the first conjunct
    /// mentioning it — built-ins never carry two), sorted by attribute
    /// name.  Probes evaluate exactly these values, in this order.
    pub fn cat_constraints(&self) -> Vec<&CatConstraint> {
        let mut cats: Vec<&CatConstraint> = self.cats.iter().collect();
        cats.sort_by(|a, b| a.attr.cmp(&b.attr));
        cats.dedup_by(|later, first| later.attr == first.attr);
        cats
    }

    /// Names of the categorical attributes, sorted and deduplicated — the
    /// partition signature of the hash layer.
    pub fn cat_attr_names(&self) -> Vec<String> {
        self.cat_constraints()
            .iter()
            .map(|c| c.attr.clone())
            .collect()
    }
}

fn is_row_attr(term: &Term) -> Option<&str> {
    match term {
        Term::Var(VarRef::Row(a)) => Some(a.as_str()),
        _ => None,
    }
}

/// Analyse a filter against the schema and the spatial attribute mapping.
pub fn analyze_filter(
    filter: &Cond,
    schema: &Schema,
    spatial: Option<SpatialAttrs>,
) -> FilterAnalysis {
    let mut analysis = FilterAnalysis {
        conjunctive: true,
        ..FilterAnalysis::default()
    };
    let conjuncts = match filter.conjuncts() {
        Some(c) => c,
        None => {
            analysis.conjunctive = false;
            analysis.residual.push(filter.clone());
            return analysis;
        }
    };
    let x_name = spatial.map(|s| schema.attr(s.x).name.clone());
    let y_name = spatial.map(|s| schema.attr(s.y).name.clone());
    let key_name = schema.attr(schema.key_attr()).name.clone();

    for conjunct in conjuncts {
        let (op, left, right) = match conjunct {
            Cond::Cmp { op, left, right } => (*op, left, right),
            other => {
                analysis.residual.push((*other).clone());
                continue;
            }
        };
        // Normalise so the row attribute is on the left.
        let (op, attr, value) = match (is_row_attr(left), is_row_attr(right)) {
            (Some(a), None) if !right.references_row() => (op, a, right.clone()),
            (None, Some(a)) if !left.references_row() => (op.flipped(), a, left.clone()),
            _ => {
                analysis.residual.push(conjunct.clone());
                continue;
            }
        };
        let is_x = x_name.as_deref() == Some(attr);
        let is_y = y_name.as_deref() == Some(attr);
        match op {
            CmpOp::Ge if is_x => analysis.x_lo = Some(value),
            CmpOp::Le if is_x => analysis.x_hi = Some(value),
            CmpOp::Ge if is_y => analysis.y_lo = Some(value),
            CmpOp::Le if is_y => analysis.y_hi = Some(value),
            CmpOp::Eq if attr == key_name => analysis.key_eq = Some(value),
            CmpOp::Eq => analysis.cats.push(CatConstraint {
                attr: attr.to_string(),
                equal: true,
                value,
            }),
            CmpOp::Ne => analysis.cats.push(CatConstraint {
                attr: attr.to_string(),
                equal: false,
                value,
            }),
            _ => analysis.residual.push(conjunct.clone()),
        }
    }
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_env::schema::paper_schema;
    use sgl_lang::builtins::{ally_filter, enemy_filter, rect_range_filter};
    use sgl_lang::parse_cond;

    fn spatial(schema: &Schema) -> Option<SpatialAttrs> {
        SpatialAttrs::from_schema(schema)
    }

    #[test]
    fn paper_range_filter_is_a_full_rect_with_a_cat_constraint() {
        let schema = paper_schema();
        let filter = Cond::and(rect_range_filter(Term::name("range")), enemy_filter());
        let a = analyze_filter(&filter, &schema, spatial(&schema));
        assert!(a.conjunctive);
        assert!(a.has_rect());
        assert!(a.is_exact());
        assert_eq!(a.cats.len(), 1);
        assert_eq!(a.cats[0].attr, "player");
        assert!(!a.cats[0].equal);
        assert_eq!(a.cat_attr_names(), vec!["player".to_string()]);
        assert!(a.key_eq.is_none());
    }

    #[test]
    fn key_equality_is_recognised() {
        let schema = paper_schema();
        let filter = parse_cond("e.key = target_key").unwrap();
        let a = analyze_filter(&filter, &schema, spatial(&schema));
        assert!(a.key_eq.is_some());
        assert!(a.is_exact());
        assert!(!a.has_rect());
    }

    #[test]
    fn flipped_comparisons_are_normalised() {
        let schema = paper_schema();
        // `u.posx - 5 <= e.posx` means `e.posx >= u.posx - 5`.
        let filter = parse_cond("u.posx - 5 <= e.posx and e.posx <= u.posx + 5").unwrap();
        let a = analyze_filter(&filter, &schema, spatial(&schema));
        assert!(a.x_lo.is_some());
        assert!(a.x_hi.is_some());
        assert!(a.y_lo.is_none());
    }

    #[test]
    fn ally_filter_is_an_equality_constraint() {
        let schema = paper_schema();
        let a = analyze_filter(&ally_filter(), &schema, spatial(&schema));
        assert_eq!(a.cats.len(), 1);
        assert!(a.cats[0].equal);
    }

    #[test]
    fn disjunctive_filters_are_residual() {
        let schema = paper_schema();
        let filter = parse_cond("e.player = 1 or e.player = 2").unwrap();
        let a = analyze_filter(&filter, &schema, spatial(&schema));
        assert!(!a.conjunctive);
        assert!(!a.is_exact());
        assert_eq!(a.residual.len(), 1);
    }

    #[test]
    fn unclassifiable_conjuncts_go_to_residual() {
        let schema = paper_schema();
        // Strict inequality on position and a row-vs-row comparison.
        let filter = parse_cond("e.posx < u.posx and e.health <= e.damage").unwrap();
        let a = analyze_filter(&filter, &schema, spatial(&schema));
        assert_eq!(a.residual.len(), 2);
        assert!(!a.is_exact());
        assert!(!a.has_rect());
    }

    #[test]
    fn without_spatial_attrs_bounds_become_categorical_or_residual() {
        let schema = paper_schema();
        let filter = parse_cond("e.posx >= u.posx - 5").unwrap();
        let a = analyze_filter(&filter, &schema, None);
        assert!(!a.has_rect());
        assert_eq!(a.residual.len(), 1);
    }

    #[test]
    fn health_threshold_is_residual_but_exactness_reports_it() {
        let schema = paper_schema();
        let filter = parse_cond("e.health >= 1 and e.player != u.player").unwrap();
        let a = analyze_filter(&filter, &schema, spatial(&schema));
        // `e.health >= 1` is a non-spatial range: kept as residual (it could
        // also be a tree level; we post-filter instead).
        assert_eq!(a.residual.len(), 1);
        assert_eq!(a.cats.len(), 1);
    }
}
