//! Seeded generation of random-but-well-typed SGL scripts.
//!
//! Scripts are built from typed building blocks so that every output passes
//! the `lang` type checker against the battle schema and registry *by
//! construction*: aggregate calls carry the right arity, record-valued
//! results (`centroid.x`, `nearest.key`) are only accessed through fields
//! that exist, arithmetic stays scalar, `mod` divisors are positive and
//! literals are non-negative (so the pretty-printed source re-parses to the
//! identical AST — `-3` would come back as `Neg(3)`).  Some scripts bind an
//! equal-valued integer/float literal pair (`u.health + 3` next to
//! `u.health / 3.0`): the two must keep their own types wherever literals
//! are pooled or deduplicated.
//!
//! [`generate_script`] returns the AST; [`script_source`] pretty-prints it.
//! The generator *asserts* the parser round trip (`parse(pretty(ast)) ==
//! ast`) and the type check on every script it hands out, so a conformance
//! run doubles as a parser/printer property sweep.

use sgl_battle::{battle_registry, battle_schema};
use sgl_core::lang::ast::{Action, AggCall, BinOp, CmpOp, Cond, FunctionDef, Script, Term};
use sgl_core::lang::normalize::normalize;
use sgl_core::lang::parse_script;
use sgl_core::lang::pretty::script_to_string;
use sgl_core::lang::typecheck::check_script;

use crate::TestRng;

/// Aggregates of the battle registry whose result coerces to a scalar.
const SCALAR_AGGS: [&str; 5] = [
    "CountEnemiesInRange",
    "CountAlliesInRange",
    "EnemyStrengthInRange",
    "MissingAllyHealthInRange",
    "WeakestEnemyHealth",
];

/// Aggregates returning an `{x, y}` record.
const VEC_AGGS: [&str; 4] = [
    "CentroidOfEnemies",
    "CentroidOfAllies",
    "CentroidOfAllyKnights",
    "AllySpreadInRange",
];

/// Numeric unit attributes safe to read in generated terms.
const UNIT_ATTRS: [&str; 6] = ["posx", "posy", "health", "cooldown", "morale", "sight"];

/// Knobs of the script generator.
#[derive(Debug, Clone, Copy)]
pub struct ScriptGenConfig {
    /// Maximum number of top-level `let` bindings (at least 1 is generated).
    pub max_lets: usize,
    /// Maximum nesting depth of the `if` tree.
    pub max_depth: usize,
}

impl Default for ScriptGenConfig {
    fn default() -> Self {
        ScriptGenConfig {
            max_lets: 4,
            max_depth: 3,
        }
    }
}

/// What a `let`-bound variable holds, tracked so later terms only use it in
/// well-typed positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarKind {
    /// Single scalar (count, sum, min — single-output records coerce).
    Scalar,
    /// `{x, y}` record (centroids, spreads).
    Vec2,
    /// `{key, posx, posy}` record (`getNearestEnemy`).
    Nearest,
}

struct Ctx {
    vars: Vec<(String, VarKind)>,
    has_helper: bool,
}

impl Ctx {
    fn of(&self, kind: VarKind) -> Vec<&str> {
        self.vars
            .iter()
            .filter(|(_, k)| *k == kind)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// Generate one well-typed script from the seed.  Panics (with the seed in
/// the message) if the generated script ever fails its own invariants —
/// parser round trip and type check — which would be a testkit bug.
pub fn generate_script(seed: u64, config: ScriptGenConfig) -> Script {
    let mut rng = TestRng::new(seed ^ 0x5C21_97F0);
    let mut ctx = Ctx {
        vars: Vec::new(),
        has_helper: rng.chance(1, 4),
    };

    // Optional helper function, exercising the inliner.
    let functions = if ctx.has_helper {
        vec![FunctionDef {
            name: "Reposition".into(),
            params: vec!["u".into(), "d".into()],
            body: Action::Perform {
                name: "MoveInDirection".into(),
                args: vec![
                    Term::name("u"),
                    Term::bin(BinOp::Add, Term::unit("posx"), Term::name("d")),
                    Term::unit("posy"),
                ],
            },
        }]
    } else {
        Vec::new()
    };

    // Top-level lets binding aggregate results.
    let let_count = rng.in_range(1, config.max_lets.max(1));
    let mut lets: Vec<(String, Term)> = Vec::new();
    for i in 0..let_count {
        let roll = rng.below(10);
        let (name, kind, term) = if roll < 4 {
            let agg = *rng.pick(&SCALAR_AGGS);
            (
                format!("s{i}"),
                VarKind::Scalar,
                Term::Agg(AggCall {
                    name: agg.into(),
                    args: vec![Term::name("u"), range_term(&mut rng)],
                }),
            )
        } else if roll < 8 {
            let agg = *rng.pick(&VEC_AGGS);
            let call = Term::Agg(AggCall {
                name: agg.into(),
                args: vec![Term::name("u"), range_term(&mut rng)],
            });
            // Half the vector lets subtract the centroid from the unit's own
            // position — the Figure 3 `away_vector` shape, which forces the
            // normalizer to hoist the nested aggregate.
            let term = if rng.chance(1, 2) {
                Term::bin(
                    BinOp::Sub,
                    Term::Tuple(vec![Term::unit("posx"), Term::unit("posy")]),
                    call,
                )
            } else {
                call
            };
            (format!("v{i}"), VarKind::Vec2, term)
        } else {
            (
                format!("n{i}"),
                VarKind::Nearest,
                Term::Agg(AggCall {
                    name: "getNearestEnemy".into(),
                    args: vec![Term::name("u")],
                }),
            )
        };
        ctx.vars.push((name.clone(), kind));
        lets.push((name, term));
    }

    // An equal-valued Int/Float literal pair, drawn from a stream of its own
    // so the rest of the script stays what the seed always produced.
    let mut pair_rng = TestRng::new(seed ^ 0x1F10_A7F1);
    if pair_rng.chance(1, 4) {
        let k = pair_rng.in_range(2, 9) as i64;
        let mut pair = [
            (
                "ki".to_string(),
                Term::bin(BinOp::Add, Term::unit("health"), Term::int(k)),
            ),
            (
                "kf".to_string(),
                Term::bin(BinOp::Div, Term::unit("health"), Term::float(k as f64)),
            ),
        ];
        if pair_rng.chance(1, 2) {
            pair.reverse();
        }
        for (name, term) in pair {
            ctx.vars.push((name.clone(), VarKind::Scalar));
            lets.push((name, term));
        }
    }

    let body = gen_body(&mut rng, &ctx, config.max_depth);
    let mut main_body = body;
    for (name, term) in lets.into_iter().rev() {
        main_body = Action::Let {
            name,
            term,
            body: Box::new(main_body),
        };
    }
    let script = Script {
        functions,
        main: FunctionDef {
            name: "main".into(),
            params: vec!["u".into()],
            body: main_body,
        },
    };
    assert_invariants(&script, seed);
    script
}

/// Pretty-print a generated script as SGL source (what the conformance
/// harness feeds to `GameBuilder`, re-entering through the parser).
pub fn script_source(script: &Script) -> String {
    script_to_string(script)
}

/// The generator's own invariants: the pretty-printed source re-parses to
/// the same AST and the script type-checks against the battle world.
fn assert_invariants(script: &Script, seed: u64) {
    let printed = script_to_string(script);
    let reparsed = parse_script(&printed).unwrap_or_else(|e| {
        panic!("testkit bug: generated script (seed {seed}) does not re-parse: {e}\n{printed}")
    });
    assert_eq!(
        *script, reparsed,
        "testkit bug: parser round trip changed the AST for seed {seed}:\n{printed}"
    );
    let registry = battle_registry();
    let schema = battle_schema();
    let normal = normalize(script, &registry).unwrap_or_else(|e| {
        panic!("testkit bug: generated script (seed {seed}) does not normalize: {e}\n{printed}")
    });
    check_script(&normal, &schema, &registry).unwrap_or_else(|e| {
        panic!("testkit bug: generated script (seed {seed}) is ill-typed: {e}\n{printed}")
    });
}

/// A range argument for the `...InRange` aggregates.
fn range_term(rng: &mut TestRng) -> Term {
    match rng.below(5) {
        0 => Term::unit("sight"),
        1 => Term::unit("range"),
        2 => Term::float(*rng.pick(&[4.5, 7.5, 10.5, 15.5])),
        _ => Term::int(rng.in_range(2, 28) as i64),
    }
}

fn gen_body(rng: &mut TestRng, ctx: &Ctx, depth: usize) -> Action {
    if depth > 0 && rng.chance(7, 10) {
        let cond = gen_cond(rng, ctx);
        let then = Box::new(gen_body(rng, ctx, depth - 1));
        let els = if rng.chance(2, 3) {
            Some(Box::new(gen_body(rng, ctx, depth - 1)))
        } else {
            None
        };
        return Action::If { cond, then, els };
    }
    // Leaf: one or two performs (their effects combine by ⊕), rarely nothing.
    if rng.chance(1, 12) {
        return Action::Nop;
    }
    let count = rng.in_range(1, 2);
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(gen_perform(rng, ctx));
    }
    if items.len() == 1 {
        items.pop().expect("one item")
    } else {
        Action::Seq(items)
    }
}

fn gen_cond(rng: &mut TestRng, ctx: &Ctx) -> Cond {
    let cmp = |rng: &mut TestRng, ctx: &Ctx| {
        let op = *rng.pick(&[
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ]);
        Cond::cmp(op, scalar_expr(rng, ctx, 1), scalar_expr(rng, ctx, 0))
    };
    match rng.below(8) {
        0 => Cond::and(cmp(rng, ctx), cmp(rng, ctx)),
        1 => Cond::or(cmp(rng, ctx), cmp(rng, ctx)),
        2 => Cond::not(cmp(rng, ctx)),
        _ => cmp(rng, ctx),
    }
}

/// A scalar-valued term over the variables in scope.
// clippy::explicit_auto_deref's suggestion (`rng.pick(&scalars)` bare) does
// not compile here: the expected `&str` drives inference to `T = str` before
// the `&&str → &str` coercion gets a chance.
#[allow(clippy::explicit_auto_deref)]
fn scalar_expr(rng: &mut TestRng, ctx: &Ctx, depth: usize) -> Term {
    let scalars = ctx.of(VarKind::Scalar);
    let vecs = ctx.of(VarKind::Vec2);
    let nearests = ctx.of(VarKind::Nearest);
    // Rolls 0–2 fall through to the unit-attribute arm when no variable of
    // that kind is in scope (the wildcard arm also catches them), so every
    // roll produces a term in exactly one draw — checked-in seeds depend on
    // this RNG consumption pattern staying stable.
    let atom = |rng: &mut TestRng| -> Term {
        match rng.below(6) {
            0 if !scalars.is_empty() => Term::name(*rng.pick(&scalars)),
            1 if !vecs.is_empty() => {
                let field = if rng.chance(1, 2) { "x" } else { "y" };
                Term::Field(Box::new(Term::name(*rng.pick(&vecs))), field.into())
            }
            2 if !nearests.is_empty() => {
                let field = *rng.pick(&["posx", "posy", "key"]);
                Term::Field(Box::new(Term::name(*rng.pick(&nearests))), field.into())
            }
            3 => {
                // Deterministic randomness: Random(i) mod k, k ≥ 2.
                Term::bin(
                    BinOp::Mod,
                    Term::Random(Box::new(Term::int(rng.in_range(1, 3) as i64))),
                    Term::int(rng.in_range(2, 5) as i64),
                )
            }
            4 => Term::int(rng.in_range(0, 20) as i64),
            _ => Term::unit(*rng.pick(&UNIT_ATTRS)),
        }
    };
    if depth == 0 || rng.chance(1, 2) {
        return atom(rng);
    }
    match rng.below(4) {
        0 => Term::bin(BinOp::Mul, atom(rng), Term::int(rng.in_range(0, 3) as i64)),
        1 => Term::Abs(Box::new(Term::bin(BinOp::Sub, atom(rng), atom(rng)))),
        2 => Term::bin(BinOp::Sub, atom(rng), scalar_expr(rng, ctx, depth - 1)),
        _ => Term::bin(BinOp::Add, atom(rng), scalar_expr(rng, ctx, depth - 1)),
    }
}

/// A `perform` statement over the battle actions.
#[allow(clippy::explicit_auto_deref)] // see scalar_expr
fn gen_perform(rng: &mut TestRng, ctx: &Ctx) -> Action {
    let nearests = ctx.of(VarKind::Nearest);
    let target_key = |rng: &mut TestRng| -> Term {
        if nearests.is_empty() {
            // Inline nearest-enemy lookup; the normalizer hoists it.
            Term::Field(
                Box::new(Term::Agg(AggCall {
                    name: "getNearestEnemy".into(),
                    args: vec![Term::name("u")],
                })),
                "key".into(),
            )
        } else {
            Term::Field(Box::new(Term::name(*rng.pick(&nearests))), "key".into())
        }
    };
    match rng.below(10) {
        0..=3 => {
            // Move relative to the unit's own position so the script keeps
            // the battle in motion.
            let dx = scalar_expr(rng, ctx, 1);
            let dy = scalar_expr(rng, ctx, 1);
            Action::Perform {
                name: "MoveInDirection".into(),
                args: vec![
                    Term::name("u"),
                    Term::bin(BinOp::Add, Term::unit("posx"), dx),
                    Term::bin(BinOp::Sub, Term::unit("posy"), dy),
                ],
            }
        }
        4..=5 => Action::Perform {
            name: "FireAt".into(),
            args: vec![Term::name("u"), target_key(rng)],
        },
        6..=7 => Action::Perform {
            name: "Strike".into(),
            args: vec![Term::name("u"), target_key(rng)],
        },
        8 => Action::Perform {
            name: "Heal".into(),
            args: vec![Term::name("u")],
        },
        _ if ctx.has_helper => Action::Perform {
            name: "Reposition".into(),
            args: vec![Term::name("u"), Term::int(rng.in_range(0, 9) as i64)],
        },
        _ => Action::Perform {
            name: "MoveInDirection".into(),
            args: vec![
                Term::name("u"),
                Term::unit("posx"),
                Term::bin(BinOp::Add, Term::unit("posy"), Term::int(1)),
            ],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scripts_hold_their_invariants_across_seeds() {
        // assert_invariants runs inside generate_script; a panic here is a
        // generator bug.
        for seed in 0..60 {
            let script = generate_script(seed, ScriptGenConfig::default());
            assert_eq!(script.main.params, vec!["u".to_string()]);
            assert!(script.main.body.count_performs() <= 32);
            let src = script_source(&script);
            assert!(src.contains("main(u)"));
        }
    }

    /// The lang round-trip property, swept over the generator corpus (no
    /// proptest dependency — the corpus is the seeded property source):
    /// pretty-print → re-parse → normalize must equal the original
    /// normalized AST, so the printed reproducer in a conformance failure
    /// dump denotes exactly the script that failed.
    #[test]
    fn corpus_round_trips_through_print_parse_normalize() {
        let registry = battle_registry();
        for seed in 0..200 {
            let script = generate_script(seed, ScriptGenConfig::default());
            let printed = script_source(&script);
            let reparsed = parse_script(&printed)
                .unwrap_or_else(|e| panic!("seed {seed} does not re-parse: {e}\n{printed}"));
            assert_eq!(script, reparsed, "seed {seed} AST round trip:\n{printed}");
            let original = normalize(&script, &registry)
                .unwrap_or_else(|e| panic!("seed {seed} does not normalize: {e}"));
            let roundtripped = normalize(&reparsed, &registry)
                .unwrap_or_else(|e| panic!("seed {seed} reparse does not normalize: {e}"));
            assert_eq!(
                original, roundtripped,
                "seed {seed} normalized forms diverge:\n{printed}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_script(9, ScriptGenConfig::default());
        let b = generate_script(9, ScriptGenConfig::default());
        assert_eq!(a, b);
        let c = generate_script(10, ScriptGenConfig::default());
        assert_ne!(script_source(&a), script_source(&c));
    }

    #[test]
    fn corpus_covers_the_grammar() {
        // Across a modest corpus every structural feature should appear.
        let mut saw_helper = false;
        let mut saw_vec_let = false;
        let mut saw_nearest = false;
        let mut saw_seq = false;
        let mut saw_literal_pair = false;
        for seed in 0..80 {
            let script = generate_script(seed, ScriptGenConfig::default());
            let src = script_source(&script);
            saw_helper |= src.contains("function Reposition");
            saw_vec_let |= src.contains("(let v");
            saw_nearest |= src.contains("getNearestEnemy");
            saw_seq |= script.main.body.count_performs() >= 2;
            saw_literal_pair |= src.contains("(let kf = (u.health / ") && src.contains(".0))");
        }
        assert!(saw_helper && saw_vec_let && saw_nearest && saw_seq && saw_literal_pair);
    }
}
