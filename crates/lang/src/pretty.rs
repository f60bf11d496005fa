//! Pretty-printing of SGL syntax trees (used by `EXPLAIN` output, error
//! messages and the examples).

use std::fmt::Write as _;

use crate::ast::{Action, BinOp, CmpOp, Cond, Script, Term, VarRef};
use sgl_env::Value;

/// Render a term as SGL source.
pub fn term_to_string(term: &Term) -> String {
    let mut s = String::new();
    write_term(&mut s, term);
    s
}

/// Render a condition as SGL source.
pub fn cond_to_string(cond: &Cond) -> String {
    let mut s = String::new();
    write_cond(&mut s, cond);
    s
}

/// Render an action with indentation.
pub fn action_to_string(action: &Action) -> String {
    let mut s = String::new();
    write_action(&mut s, action, 0);
    s
}

/// Render a whole script.
pub fn script_to_string(script: &Script) -> String {
    let mut s = String::new();
    for f in &script.functions {
        let _ = writeln!(s, "function {}({}) {{", f.name, f.params.join(", "));
        write_action(&mut s, &f.body, 1);
        let _ = writeln!(s, "}}");
    }
    let _ = writeln!(
        s,
        "{}({}) {{",
        script.main.name,
        script.main.params.join(", ")
    );
    write_action(&mut s, &script.main.body, 1);
    let _ = writeln!(s, "}}");
    s
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "mod",
    }
}

fn cmpop_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn write_term(out: &mut String, term: &Term) {
    match term {
        // An integral float keeps its decimal point, so it re-parses as a
        // float rather than as the equal-valued integer.
        Term::Const(Value::Float(x)) if x.is_finite() && x.fract() == 0.0 => {
            let _ = write!(out, "{x:.1}");
        }
        Term::Const(v) => {
            let _ = write!(out, "{v}");
        }
        Term::Var(VarRef::Unit(a)) => {
            let _ = write!(out, "u.{a}");
        }
        Term::Var(VarRef::Row(a)) => {
            let _ = write!(out, "e.{a}");
        }
        Term::Var(VarRef::Name(n)) => {
            let _ = write!(out, "{n}");
        }
        Term::Random(t) => {
            let _ = write!(out, "Random(");
            write_term(out, t);
            let _ = write!(out, ")");
        }
        Term::Agg(call) => {
            let _ = write!(out, "{}(", call.name);
            for (i, a) in call.args.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                write_term(out, a);
            }
            let _ = write!(out, ")");
        }
        Term::Bin { op, left, right } => {
            let _ = write!(out, "(");
            write_term(out, left);
            let _ = write!(out, " {} ", binop_str(*op));
            write_term(out, right);
            let _ = write!(out, ")");
        }
        Term::Neg(t) => {
            let _ = write!(out, "-");
            write_term(out, t);
        }
        Term::Abs(t) => {
            let _ = write!(out, "abs(");
            write_term(out, t);
            let _ = write!(out, ")");
        }
        Term::Sqrt(t) => {
            let _ = write!(out, "sqrt(");
            write_term(out, t);
            let _ = write!(out, ")");
        }
        Term::Field(t, f) => {
            write_term(out, t);
            let _ = write!(out, ".{f}");
        }
        Term::Tuple(items) => {
            let _ = write!(out, "(");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                write_term(out, item);
            }
            let _ = write!(out, ")");
        }
    }
}

fn write_cond(out: &mut String, cond: &Cond) {
    match cond {
        Cond::Lit(b) => {
            let _ = write!(out, "{b}");
        }
        Cond::Cmp { op, left, right } => {
            write_term(out, left);
            let _ = write!(out, " {} ", cmpop_str(*op));
            write_term(out, right);
        }
        Cond::And(a, b) => {
            let _ = write!(out, "(");
            write_cond(out, a);
            let _ = write!(out, " and ");
            write_cond(out, b);
            let _ = write!(out, ")");
        }
        Cond::Or(a, b) => {
            let _ = write!(out, "(");
            write_cond(out, a);
            let _ = write!(out, " or ");
            write_cond(out, b);
            let _ = write!(out, ")");
        }
        Cond::Not(c) => {
            let _ = write!(out, "not (");
            write_cond(out, c);
            let _ = write!(out, ")");
        }
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Does a branch need explicit `{ }` when printed in statement position?
///
/// * a `Seq` always does: the parser reads statements one at a time, so an
///   unbraced two-statement branch would leak its tail into the enclosing
///   sequence (and out of a `let`'s scope);
/// * when an `else` follows, any branch that can *end* in an else-less `if`
///   (an `if` or a `let` chain) must be braced, or the dangling `else` would
///   re-attach to the inner `if` on re-parse.
fn branch_needs_braces(action: &Action, else_follows: bool) -> bool {
    match action {
        Action::Seq(_) => true,
        Action::Perform { .. } | Action::Nop => false,
        Action::If { .. } | Action::Let { .. } => else_follows,
    }
}

/// Print a branch/body statement, brace-wrapping it when leaving it bare
/// would re-parse differently (see [`branch_needs_braces`]).
fn write_branch(out: &mut String, action: &Action, level: usize, else_follows: bool) {
    if branch_needs_braces(action, else_follows) {
        indent(out, level);
        let _ = writeln!(out, "{{");
        write_action(out, action, level + 1);
        indent(out, level);
        let _ = writeln!(out, "}}");
    } else {
        write_action(out, action, level);
    }
}

fn write_action(out: &mut String, action: &Action, level: usize) {
    match action {
        Action::Let { name, term, body } => {
            indent(out, level);
            let _ = write!(out, "(let {name} = ");
            write_term(out, term);
            let _ = writeln!(out, ")");
            write_branch(out, body, level, false);
        }
        Action::Seq(items) => {
            for item in items {
                write_action(out, item, level);
            }
        }
        Action::If { cond, then, els } => {
            indent(out, level);
            let _ = write!(out, "if ");
            write_cond(out, cond);
            let _ = writeln!(out, " then");
            write_branch(out, then, level + 1, els.is_some());
            if let Some(e) = els {
                indent(out, level);
                let _ = writeln!(out, "else");
                write_branch(out, e, level + 1, false);
            }
        }
        Action::Perform { name, args } => {
            indent(out, level);
            let _ = write!(out, "perform {name}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                write_term(out, a);
            }
            let _ = writeln!(out, ");");
        }
        Action::Nop => {
            indent(out, level);
            let _ = writeln!(out, ";");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_cond, parse_script, parse_term};

    #[test]
    fn terms_round_trip_through_the_parser() {
        for src in [
            "u.posx + 1",
            "(u.posx, u.posy) - CentroidOfEnemyUnits(u, u.range)",
            "Random(1) mod 2",
            "abs(u.posx - 3)",
            "sqrt(u.posx * u.posx)",
            "getNearestEnemy(u).key",
            "-u.posy",
            "\"knight\"",
        ] {
            let t = parse_term(src).unwrap();
            let printed = term_to_string(&t);
            let reparsed = parse_term(&printed).unwrap();
            assert_eq!(t, reparsed, "term `{src}` printed as `{printed}`");
        }
    }

    /// `Value`'s `==` is loose (`3 == 3.0`), so the round trip above cannot
    /// see an integral float printed as an integer; check the type itself.
    #[test]
    fn integral_float_literals_keep_their_type() {
        let t = parse_term("u.health / 3.0 + 3").unwrap();
        let printed = term_to_string(&t);
        assert!(printed.contains("3.0"), "{printed}");
        let Term::Bin { left, .. } = parse_term(&printed).unwrap() else {
            panic!("`{printed}` is not a sum");
        };
        let Term::Bin { right, .. } = *left else {
            panic!("`{printed}` is not a quotient plus a term");
        };
        assert!(matches!(*right, Term::Const(Value::Float(x)) if x == 3.0));
    }

    #[test]
    fn conds_round_trip_through_the_parser() {
        for src in [
            "u.health < 5",
            "u.health < 5 and u.cooldown = 0",
            "not (u.health < 5 or u.player != 1)",
            "true",
        ] {
            let c = parse_cond(src).unwrap();
            let printed = cond_to_string(&c);
            let reparsed = parse_cond(&printed).unwrap();
            assert_eq!(c, reparsed, "cond `{src}` printed as `{printed}`");
        }
    }

    #[test]
    fn scripts_round_trip_through_the_parser() {
        let src = r#"
            function Flee(u, dist) {
              perform MoveInDirection(u, u.posx + dist, u.posy);
            }
            main(u) {
              (let c = CountEnemiesInRange(u, u.range))
              if c > 3 then perform Flee(u, 10);
              else perform FireAt(u, getNearestEnemy(u).key);
            }
        "#;
        let script = parse_script(src).unwrap();
        let printed = script_to_string(&script);
        let reparsed = parse_script(&printed).unwrap();
        assert_eq!(script, reparsed);
    }

    /// Regression (found by the sgl-testkit conformance generator): a
    /// multi-statement branch must print with braces — bare, its tail would
    /// leak into the enclosing sequence on re-parse.
    #[test]
    fn seq_branches_round_trip_with_braces() {
        let src = r#"
            main(u) {
              (let n = getNearestEnemy(u))
              if u.health > 3 then {
                perform FireAt(u, n.key);
                perform MoveInDirection(u, u.posx, u.posy);
              }
              else
                perform MoveInDirection(u, 0, 0);
            }
        "#;
        let script = parse_script(src).unwrap();
        assert_eq!(script.main.body.count_performs(), 3);
        let printed = script_to_string(&script);
        let reparsed = parse_script(&printed).unwrap();
        assert_eq!(script, reparsed, "printed as:\n{printed}");
    }

    /// Regression (same sweep): a `let` whose body is a sequence must brace
    /// the body, or the re-parse moves the tail out of the variable's scope.
    #[test]
    fn let_with_seq_body_round_trips() {
        let src = r#"
            main(u) {
              (let n = getNearestEnemy(u)) {
                perform FireAt(u, n.key);
                perform FireAt(u, n.key);
              }
            }
        "#;
        let script = parse_script(src).unwrap();
        let printed = script_to_string(&script);
        let reparsed = parse_script(&printed).unwrap();
        assert_eq!(script, reparsed, "printed as:\n{printed}");
    }

    /// Regression (same sweep): dangling else.  A then-branch ending in an
    /// else-less `if` (possibly under a `let`) must be braced when the outer
    /// `if` has an `else`, or the `else` re-attaches to the inner `if`.
    #[test]
    fn dangling_else_round_trips() {
        use crate::ast::{Action, CmpOp, Cond, Term};
        for inner in [
            Action::If {
                cond: Cond::cmp(CmpOp::Gt, Term::unit("health"), Term::int(5)),
                then: Box::new(Action::Perform {
                    name: "Heal".into(),
                    args: vec![Term::name("u")],
                }),
                els: None,
            },
            Action::Let {
                name: "x".into(),
                term: Term::int(1),
                body: Box::new(Action::If {
                    cond: Cond::cmp(CmpOp::Gt, Term::name("x"), Term::int(0)),
                    then: Box::new(Action::Perform {
                        name: "Heal".into(),
                        args: vec![Term::name("u")],
                    }),
                    els: None,
                }),
            },
        ] {
            let script = Script {
                functions: vec![],
                main: crate::ast::FunctionDef {
                    name: "main".into(),
                    params: vec!["u".into()],
                    body: Action::If {
                        cond: Cond::cmp(CmpOp::Eq, Term::unit("cooldown"), Term::int(0)),
                        then: Box::new(inner),
                        els: Some(Box::new(Action::Perform {
                            name: "Heal".into(),
                            args: vec![Term::name("u")],
                        })),
                    },
                },
            };
            let printed = script_to_string(&script);
            let reparsed = parse_script(&printed).unwrap();
            assert_eq!(script, reparsed, "printed as:\n{printed}");
        }
    }

    #[test]
    fn nop_prints_as_empty_statement() {
        let script = parse_script("main(u) { }").unwrap();
        let printed = script_to_string(&script);
        assert!(printed.contains("main(u)"));
        parse_script(&printed).unwrap();
    }
}
