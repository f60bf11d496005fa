//! The combination operator `⊕` on effect relations (paper §4.2).
//!
//! `⊕R` groups a multiset of effect rows by unit key and folds every effect
//! attribute with its combination function (`sum`, `max` or `min`).  For
//! `min`, `max` and integer `sum` the operator is associative, commutative
//! and idempotent on already-combined relations — the algebraic identities
//! of Eq. (3) that the optimizer relies on.  A float `sum` is commutative
//! but not associative under IEEE addition: regrouping the same rows can
//! change the last bits.  So the result of a float fold depends on the order
//! of its steps, and the parallel tick executor (`sgl_exec::tick`) replays
//! its shard logs in the serial order instead of merging partial buffers.
//! The property-based tests at the bottom of this module check the laws on
//! randomly generated effect relations of `Int` values only.

use std::sync::Arc;

use crate::effects::{EffectBuffer, EffectRow};
use crate::error::Result;
use crate::schema::Schema;

/// Combine a multiset of effect rows into a single buffer: the executable
/// form of `⊕R`.
pub fn combine_rows<I>(schema: Arc<Schema>, rows: I) -> Result<EffectBuffer>
where
    I: IntoIterator<Item = EffectRow>,
{
    let mut buf = EffectBuffer::new(schema);
    for row in rows {
        buf.apply_row(&row)?;
    }
    Ok(buf)
}

/// Combine two already-combined buffers: `⊕(E1 ⊎ E2) = ⊕(⊕E1 ⊎ ⊕E2)`.
pub fn combine_buffers(a: &EffectBuffer, b: &EffectBuffer) -> Result<EffectBuffer> {
    let mut out = a.clone();
    out.merge(b)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::paper_schema;
    use crate::value::Value;

    fn schema() -> Arc<Schema> {
        paper_schema().into_shared()
    }

    fn dmg(s: &Schema) -> usize {
        s.attr_id("damage").unwrap()
    }

    fn aura(s: &Schema) -> usize {
        s.attr_id("inaura").unwrap()
    }

    #[test]
    fn combining_groups_by_key() {
        let s = schema();
        let rows = vec![
            EffectRow::single(1, dmg(&s), Value::Int(3)),
            EffectRow::single(2, dmg(&s), Value::Int(1)),
            EffectRow::single(1, dmg(&s), Value::Int(4)),
            EffectRow::single(1, aura(&s), Value::Int(2)),
            EffectRow::single(1, aura(&s), Value::Int(5)),
        ];
        let buf = combine_rows(Arc::clone(&s), rows).unwrap();
        assert_eq!(buf.get(1, dmg(&s)), Some(&Value::Int(7)));
        assert_eq!(buf.get(2, dmg(&s)), Some(&Value::Int(1)));
        assert_eq!(buf.get(1, aura(&s)), Some(&Value::Int(5)));
    }

    #[test]
    fn empty_relation_combines_to_empty_buffer() {
        let s = schema();
        let buf = combine_rows(s, Vec::new()).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn combining_with_empty_is_identity() {
        let s = schema();
        let rows = vec![
            EffectRow::single(1, dmg(&s), Value::Int(3)),
            EffectRow::single(2, aura(&s), Value::Int(4)),
        ];
        let a = combine_rows(Arc::clone(&s), rows).unwrap();
        let empty = EffectBuffer::new(Arc::clone(&s));
        let combined = combine_buffers(&a, &empty).unwrap();
        assert_eq!(combined.canonical(), a.canonical());
    }

    #[test]
    fn idempotence_of_combination() {
        // ⊕(⊕E) = ⊕E  (Eq. (3) with E2 = ∅)
        let s = schema();
        let rows = vec![
            EffectRow::single(1, dmg(&s), Value::Int(3)),
            EffectRow::single(1, dmg(&s), Value::Int(9)),
            EffectRow::single(1, aura(&s), Value::Int(2)),
        ];
        let once = combine_rows(Arc::clone(&s), rows).unwrap();
        let twice_rows: Vec<EffectRow> = once
            .canonical()
            .into_iter()
            .map(|(k, a, v)| EffectRow::single(k, a, v))
            .collect();
        let twice = combine_rows(Arc::clone(&s), twice_rows).unwrap();
        assert_eq!(once.canonical(), twice.canonical());
    }

    mod properties {
        //! Randomized law checks (formerly proptest-based; rewritten as
        //! deterministic seeded sweeps because the build environment cannot
        //! fetch the proptest crate).
        use super::*;

        /// Deterministic pseudo-random stream (splitmix64).
        struct Rng(u64);

        impl Rng {
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
        }

        /// Generate a random effect row over the paper schema.
        fn random_row(rng: &mut Rng, effect_attrs: &[usize]) -> EffectRow {
            let key = rng.below(6) as i64;
            let attr = effect_attrs[rng.below(effect_attrs.len() as u64) as usize];
            let v = rng.below(40) as i64 - 20;
            EffectRow::single(key, attr, Value::Int(v))
        }

        fn random_rows(rng: &mut Rng, max: u64, effect_attrs: &[usize]) -> Vec<EffectRow> {
            (0..rng.below(max))
                .map(|_| random_row(rng, effect_attrs))
                .collect()
        }

        fn combine(rows: &[EffectRow]) -> Vec<(i64, usize, Value)> {
            combine_rows(schema(), rows.to_vec()).unwrap().canonical()
        }

        /// ⊕ is insensitive to the order of effect rows (commutativity +
        /// associativity of integer sum and of min/max).  The rows carry
        /// `Int` values only: a float sum would depend on the order.
        #[test]
        fn order_insensitive() {
            let s = schema();
            let effect_attrs: Vec<usize> = s.effect_attrs().collect();
            for case in 0..64u64 {
                let mut rng = Rng(case.wrapping_mul(0x517C_C1B7_2722_0A95));
                let mut rows = random_rows(&mut rng, 40, &effect_attrs);
                let original = combine(&rows);
                // Fisher–Yates shuffle driven by the same stream.
                for i in (1..rows.len()).rev() {
                    let j = rng.below(i as u64 + 1) as usize;
                    rows.swap(i, j);
                }
                assert_eq!(original, combine(&rows), "case {case}");
            }
        }

        /// ⊕(E1 ⊎ E2) = ⊕(⊕E1 ⊎ ⊕E2): pre-combining partitions does not
        /// change the result (Eq. (3) applied twice).
        #[test]
        fn pre_combining_partitions_is_equivalent() {
            let s = schema();
            let effect_attrs: Vec<usize> = s.effect_attrs().collect();
            for case in 0..64u64 {
                let mut rng = Rng(case.wrapping_mul(0xA076_1D64_78BD_642F));
                let rows1 = random_rows(&mut rng, 25, &effect_attrs);
                let rows2 = random_rows(&mut rng, 25, &effect_attrs);
                let mut all = rows1.clone();
                all.extend(rows2.clone());
                let direct = combine(&all);

                let b1 = combine_rows(schema(), rows1).unwrap();
                let b2 = combine_rows(schema(), rows2).unwrap();
                let staged = combine_buffers(&b1, &b2).unwrap().canonical();
                assert_eq!(direct, staged, "case {case}");
            }
        }

        /// Combining a buffer with itself only changes `sum` attributes
        /// (doubling), never `min`/`max` ones — the nonstackable semantics.
        #[test]
        fn nonstackable_attributes_are_idempotent() {
            let s = schema();
            let effect_attrs: Vec<usize> = s.effect_attrs().collect();
            for case in 0..64u64 {
                let mut rng = Rng(case.wrapping_mul(0xE703_7ED1_A0B4_28DB));
                let rows = random_rows(&mut rng, 30, &effect_attrs);
                let once = combine_rows(Arc::clone(&s), rows).unwrap();
                let doubled = combine_buffers(&once, &once).unwrap();
                for (key, attr, v) in once.canonical() {
                    let kind = s.attr(attr).kind;
                    let dv = doubled.get(key, attr).cloned().unwrap();
                    match kind {
                        crate::schema::CombineKind::Max | crate::schema::CombineKind::Min => {
                            assert_eq!(dv, v, "case {case}");
                        }
                        crate::schema::CombineKind::Sum => {
                            assert_eq!(dv, v.add(&v).unwrap(), "case {case}");
                        }
                        crate::schema::CombineKind::Const => unreachable!(),
                    }
                }
            }
        }
    }
}
