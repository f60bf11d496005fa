//! EXPLAIN-style rendering of logical plans, in the spirit of Figure 6 —
//! optionally annotated with the cost-based planner's physical choices
//! ([`explain_with_costs`]).

use std::fmt::Write as _;

use rustc_hash::FxHashMap;

use sgl_lang::pretty::{cond_to_string, term_to_string};

use crate::optimizer::{Optimized, PlanStats};
use crate::plan::LogicalPlan;

/// Physical annotation of one aggregate call site, rendered under its
/// `ExtendAgg` node by [`explain_with_costs`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostAnnotation {
    /// Logical strategy name (e.g. `divisible-tree`).
    pub strategy: String,
    /// Label of the chosen physical backend (e.g. `layered-tree`, `grid`).
    pub chosen: String,
    /// Maintenance label of the chosen backend (`per-tick`, `incremental`,
    /// `rebuild`).
    pub maintenance: String,
    /// Modeled per-tick cost of the chosen backend in µs; `None` for a
    /// forced plan (no pricing happened).
    pub est_us: Option<f64>,
    /// Every priced alternative as `(label, per-tick µs)`, cheapest first.
    pub alternatives: Vec<(String, f64)>,
    /// Which backends *actually served* probes at runtime, as
    /// `(label, probes served)` — the executed choice, which can differ from
    /// the planned one (e.g. scan fallbacks).  Empty before the first tick.
    pub executed: Vec<(String, u64)>,
}

/// Render a plan as an indented operator tree (root first).
pub fn explain(plan: &LogicalPlan) -> String {
    explain_with_costs(plan, &FxHashMap::default())
}

/// Render a plan with per-call-site physical annotations: each `ExtendAgg`
/// node whose call name appears in `annotations` is followed by a
/// `↳ physical:` line showing the chosen backend and maintenance, the
/// modeled cost of every alternative and the backends that actually served
/// the call site at runtime.
pub fn explain_with_costs(
    plan: &LogicalPlan,
    annotations: &FxHashMap<String, CostAnnotation>,
) -> String {
    let mut out = String::new();
    write_node_annotated(&mut out, plan, 0, annotations);
    out
}

fn write_annotation(out: &mut String, level: usize, ann: &CostAnnotation) {
    for _ in 0..=level {
        out.push_str("  ");
    }
    let _ = write!(
        out,
        "↳ physical: {} ({}) [{}]",
        ann.chosen, ann.maintenance, ann.strategy
    );
    if let Some(est) = ann.est_us {
        let _ = write!(out, " est {est:.1}µs");
    }
    if !ann.alternatives.is_empty() {
        let alts: Vec<String> = ann
            .alternatives
            .iter()
            .map(|(label, us)| format!("{label} {us:.1}µs"))
            .collect();
        let _ = write!(out, " | alts: {}", alts.join(", "));
    }
    if !ann.executed.is_empty() {
        let served: Vec<String> = ann
            .executed
            .iter()
            .map(|(label, n)| format!("{label} ×{n}"))
            .collect();
        let _ = write!(out, " | served: {}", served.join(", "));
    }
    out.push('\n');
}

fn write_node_annotated(
    out: &mut String,
    plan: &LogicalPlan,
    level: usize,
    annotations: &FxHashMap<String, CostAnnotation>,
) {
    for _ in 0..level {
        out.push_str("  ");
    }
    match plan {
        LogicalPlan::Scan => {
            let _ = writeln!(out, "Scan E");
        }
        LogicalPlan::Empty => {
            let _ = writeln!(out, "Empty");
        }
        LogicalPlan::Select { input, predicate } => {
            let _ = writeln!(out, "Select σ[{}]", cond_to_string(predicate));
            write_node_annotated(out, input, level + 1, annotations);
        }
        LogicalPlan::ExtendAgg { input, name, call } => {
            let args: Vec<String> = call.args.iter().map(term_to_string).collect();
            let _ = writeln!(
                out,
                "ExtendAgg π[*, {}({}) AS {}]",
                call.name,
                args.join(", "),
                name
            );
            if let Some(ann) = annotations.get(&call.name) {
                write_annotation(out, level, ann);
            }
            write_node_annotated(out, input, level + 1, annotations);
        }
        LogicalPlan::ExtendExpr { input, name, term } => {
            let _ = writeln!(out, "ExtendExpr π[*, {} AS {}]", term_to_string(term), name);
            write_node_annotated(out, input, level + 1, annotations);
        }
        LogicalPlan::Apply {
            input,
            action,
            args,
        } => {
            let args: Vec<String> = args.iter().map(term_to_string).collect();
            let _ = writeln!(out, "Apply {}⊕({})", action, args.join(", "));
            write_node_annotated(out, input, level + 1, annotations);
        }
        LogicalPlan::Combine { inputs } => {
            let _ = writeln!(out, "Combine ⊕ ({} inputs)", inputs.len());
            for i in inputs {
                write_node_annotated(out, i, level + 1, annotations);
            }
        }
        LogicalPlan::CombineWithEnv { input } => {
            let _ = writeln!(out, "CombineWithEnv ⊕ E");
            write_node_annotated(out, input, level + 1, annotations);
        }
    }
}

/// Render a one-line summary of plan statistics.
pub fn stats_line(stats: &PlanStats) -> String {
    format!(
        "{} nodes, {} aggregate extensions ({} distinct), {} actions, depth {}",
        stats.nodes,
        stats.aggregate_nodes,
        stats.distinct_aggregates,
        stats.apply_nodes,
        stats.depth
    )
}

/// Render a before/after report for an optimization result.
pub fn explain_optimized(optimized: &Optimized) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "before: {}", stats_line(&optimized.before));
    let _ = writeln!(out, "after:  {}", stats_line(&optimized.after));
    let _ = writeln!(out, "--- optimized plan ---");
    out.push_str(&explain(&optimized.plan));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::translate::translate;
    use sgl_lang::builtins::paper_registry;
    use sgl_lang::normalize::normalize;
    use sgl_lang::parser::parse_script;

    #[test]
    fn explain_renders_every_operator() {
        let script = parse_script(
            r#"main(u) {
                (let c = CountEnemiesInRange(u, 12))
                if c > 4 then perform MoveInDirection(u, 0, 0);
                else perform FireAt(u, getNearestEnemy(u).key);
            }"#,
        )
        .unwrap();
        let registry = paper_registry();
        let normal = normalize(&script, &registry).unwrap();
        let plan = translate(&normal);
        let text = explain(&plan);
        assert!(text.contains("CombineWithEnv"));
        assert!(text.contains("Combine ⊕"));
        assert!(text.contains("Select σ["));
        assert!(text.contains("ExtendAgg π[*, CountEnemiesInRange"));
        assert!(text.contains("Apply MoveInDirection⊕"));
        assert!(text.contains("Scan E"));

        let optimized = optimize(plan, &registry);
        let report = explain_optimized(&optimized);
        assert!(report.contains("before:"));
        assert!(report.contains("after:"));
        assert!(report.contains("distinct"));
    }

    #[test]
    fn cost_annotations_render_under_their_call_sites() {
        let script = parse_script(
            r#"main(u) {
                (let c = CountEnemiesInRange(u, 12))
                if c > 4 then perform MoveInDirection(u, 0, 0);
            }"#,
        )
        .unwrap();
        let registry = paper_registry();
        let normal = normalize(&script, &registry).unwrap();
        let plan = translate(&normal);
        let mut annotations = FxHashMap::default();
        annotations.insert(
            "CountEnemiesInRange".to_string(),
            CostAnnotation {
                strategy: "divisible-tree".into(),
                chosen: "grid".into(),
                maintenance: "incremental".into(),
                est_us: Some(12.5),
                alternatives: vec![("grid".into(), 12.5), ("scan".into(), 99.0)],
                executed: vec![("grid".into(), 40)],
            },
        );
        let text = explain_with_costs(&plan, &annotations);
        assert!(text.contains("↳ physical: grid (incremental) [divisible-tree]"));
        assert!(text.contains("est 12.5µs"));
        assert!(text.contains("alts: grid 12.5µs, scan 99.0µs"));
        assert!(text.contains("served: grid ×40"));
        // Unannotated rendering stays identical to the plain explain.
        assert_eq!(
            explain(&plan),
            explain_with_costs(&plan, &FxHashMap::default())
        );
        assert!(!explain(&plan).contains("physical:"));
    }

    #[test]
    fn empty_plan_renders() {
        assert_eq!(explain(&LogicalPlan::Empty).trim(), "Empty");
        let text = explain(&LogicalPlan::ExtendExpr {
            input: Box::new(LogicalPlan::Scan),
            name: "x".into(),
            term: sgl_lang::ast::Term::int(1),
        });
        assert!(text.contains("ExtendExpr"));
    }
}
