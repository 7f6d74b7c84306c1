//! Selection predicates compiled against the row layout.
//!
//! The per-tuple work of an SMA plan is the filter over its ambivalent
//! buckets (§2.4). [`BucketPred::eval_view`] interprets the predicate
//! tree for every row: it dispatches on the node, looks the column's
//! type up in the layout, matches the literal's variant and compares.
//! A [`CompiledPred`] does the lookups and the matching once per
//! operator. It is a flat conjunction of atoms, in the predicate's own
//! order, and each typed atom tests one raw slot value against an
//! inclusive range converted once from the literal:
//!
//! | `A op c`  | passes when the slot holds `v` with |
//! |-----------|-------------------------------------|
//! | `A = c`   | `c <= v <= c`                        |
//! | `A < c`   | `MIN <= v <= c - 1` (none if `c = MIN`) |
//! | `A <= c`  | `MIN <= v <= c`                      |
//! | `A > c`   | `c + 1 <= v <= MAX` (none if `c = MAX`) |
//! | `A >= c`  | `c <= v <= MAX`                      |
//!
//! `v` is the raw `i64` of an `Int` slot or a `Decimal` slot's cents, a
//! `Date` slot's `i32` day count, or a `Char` slot's byte; `Decimal` and
//! `Date` order exactly as those raw values do. A null slot passes no
//! atom. A `Null` literal, a literal of another type than the column,
//! and an out-of-range column compile to an atom that is always false,
//! which is what [`sma_types::RowView::cmp_value`] answers for them
//! without reading anything.
//!
//! A `Str` comparison, a column-vs-column comparison and an `Or` each
//! stay one generic atom that calls [`BucketPred::eval_view`]. Those are
//! the only atoms that read string payloads, so the only ones that can
//! fail on a corrupt image; the conjunction stops at its first false
//! atom, as `eval_view`'s `And` does. So a compiled predicate gives
//! `eval_view`'s answer and surfaces an error exactly when `eval_view`
//! does.

use sma_types::{CodecError, DataType, RowLayout, RowView, Slot, Value};

use crate::grade::{BucketPred, CmpOp};

/// A [`BucketPred`] compiled against one [`RowLayout`]: evaluate it only
/// on views of that layout.
#[derive(Debug, Clone)]
pub struct CompiledPred {
    atoms: Vec<Atom>,
}

/// One conjunct of a [`CompiledPred`].
#[derive(Debug, Clone)]
enum Atom {
    /// Never passes.
    False,
    /// An `Int` slot's value or a `Decimal` slot's cents lies in
    /// `lo..=hi`.
    I64 { slot: Slot, lo: i64, hi: i64 },
    /// A `Date` slot's day count lies in `lo..=hi`.
    I32 { slot: Slot, lo: i32, hi: i32 },
    /// A `Char` slot's byte lies in `lo..=hi`.
    U8 { slot: Slot, lo: u8, hi: u8 },
    /// Evaluated by [`BucketPred::eval_view`].
    Generic(BucketPred),
}

impl CompiledPred {
    /// Compiles `pred` against `layout`. Nested `And`s flatten into the
    /// one conjunction; the empty conjunction is true.
    pub fn new(pred: &BucketPred, layout: &RowLayout) -> CompiledPred {
        let mut atoms = Vec::new();
        push_atoms(pred, layout, &mut atoms);
        CompiledPred { atoms }
    }

    /// Evaluates the predicate on `row`, a view of the layout it was
    /// compiled against, with the answer and the errors of
    /// [`BucketPred::eval_view`] (see the module doc).
    #[inline]
    pub fn eval(&self, row: &RowView<'_>) -> Result<bool, CodecError> {
        for atom in &self.atoms {
            if !atom.eval(row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl Atom {
    #[inline]
    fn eval(&self, row: &RowView<'_>) -> Result<bool, CodecError> {
        Ok(match self {
            Atom::False => false,
            Atom::I64 { slot, lo, hi } => {
                row.i64_at(*slot).is_some_and(|v| (*lo..=*hi).contains(&v))
            }
            Atom::I32 { slot, lo, hi } => {
                row.i32_at(*slot).is_some_and(|v| (*lo..=*hi).contains(&v))
            }
            Atom::U8 { slot, lo, hi } => row.u8_at(*slot).is_some_and(|v| (*lo..=*hi).contains(&v)),
            Atom::Generic(pred) => pred.eval_view(row)?,
        })
    }
}

fn push_atoms(pred: &BucketPred, layout: &RowLayout, out: &mut Vec<Atom>) {
    match pred {
        BucketPred::And(ps) => {
            for p in ps {
                push_atoms(p, layout, out);
            }
        }
        BucketPred::Cmp { col, op, value } => out.push(cmp_atom(layout, *col, *op, value, pred)),
        BucketPred::ColCmp { .. } | BucketPred::Or(_) => out.push(Atom::Generic(pred.clone())),
    }
}

/// The atom of `A op c`, where `pred` is that comparison.
fn cmp_atom(layout: &RowLayout, col: usize, op: CmpOp, value: &Value, pred: &BucketPred) -> Atom {
    let Some(slot) = layout.slot(col) else {
        return Atom::False;
    };
    let atom = match (slot.data_type(), value) {
        (DataType::Int, Value::Int(c)) => {
            range(op, *c, i64::MIN, i64::MAX).map(|(lo, hi)| Atom::I64 { slot, lo, hi })
        }
        (DataType::Decimal, Value::Decimal(c)) => {
            range(op, c.cents(), i64::MIN, i64::MAX).map(|(lo, hi)| Atom::I64 { slot, lo, hi })
        }
        (DataType::Date, Value::Date(c)) => {
            range(op, c.days().into(), i32::MIN.into(), i32::MAX.into()).and_then(|(lo, hi)| {
                Some(Atom::I32 {
                    slot,
                    lo: i32::try_from(lo).ok()?,
                    hi: i32::try_from(hi).ok()?,
                })
            })
        }
        (DataType::Char, Value::Char(c)) => range(op, (*c).into(), u8::MIN.into(), u8::MAX.into())
            .and_then(|(lo, hi)| {
                Some(Atom::U8 {
                    slot,
                    lo: u8::try_from(lo).ok()?,
                    hi: u8::try_from(hi).ok()?,
                })
            }),
        (DataType::Str, Value::Str(_)) => Some(Atom::Generic(pred.clone())),
        // A `Null` literal or a literal of another type.
        _ => None,
    };
    atom.unwrap_or(Atom::False)
}

/// The values `v` of a type spanning `min..=max` with `v op c`, as an
/// inclusive range; `None` when no value qualifies.
fn range(op: CmpOp, c: i64, min: i64, max: i64) -> Option<(i64, i64)> {
    let (lo, hi) = match op {
        CmpOp::Eq => (c, c),
        CmpOp::Lt => (min, c.checked_sub(1)?),
        CmpOp::Le => (min, c),
        CmpOp::Gt => (c.checked_add(1)?, max),
        CmpOp::Ge => (c, max),
    };
    (lo <= hi).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_types::row::encode;
    use sma_types::{Column, Date, Decimal, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("P", DataType::Decimal),
            Column::new("D", DataType::Date),
            Column::new("F", DataType::Char),
            Column::new("S", DataType::Str),
        ])
    }

    fn eval_both(pred: &BucketPred, tuple: &[Value]) -> (bool, bool) {
        let s = schema();
        let mut image = Vec::new();
        encode(&s, tuple, &mut image).unwrap();
        let layout = RowLayout::new(&s);
        let row = layout.view(&image).unwrap();
        let compiled = CompiledPred::new(pred, &layout).eval(&row).unwrap();
        (compiled, pred.eval_tuple(tuple))
    }

    #[test]
    fn every_operator_at_every_edge_matches_eval_tuple() {
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let ints = [i64::MIN, -1, 0, 1, i64::MAX];
        let days = [i32::MIN, -1, 0, 1, i32::MAX];
        let bytes = [u8::MIN, 1, b'N', 254, u8::MAX];
        for op in ops {
            for (i, j) in (0..5).flat_map(|i| (0..5).map(move |j| (i, j))) {
                let tuple = vec![
                    Value::Int(ints[i]),
                    Value::Decimal(Decimal::from_cents(ints[i])),
                    Value::Date(Date::from_days(days[i])),
                    Value::Char(bytes[i]),
                    Value::Str("s".into()),
                ];
                for pred in [
                    BucketPred::cmp(0, op, ints[j]),
                    BucketPred::cmp(1, op, Decimal::from_cents(ints[j])),
                    BucketPred::cmp(2, op, Date::from_days(days[j])),
                    BucketPred::cmp(3, op, Value::Char(bytes[j])),
                ] {
                    let (compiled, expected) = eval_both(&pred, &tuple);
                    assert_eq!(compiled, expected, "{pred:?} on {tuple:?}");
                }
            }
        }
    }

    #[test]
    fn nulls_mismatches_and_missing_columns_are_false() {
        // Null slots are encoded as zero bytes, which every range here
        // holds: only the null bit keeps them out.
        let nulls = vec![Value::Null; 5];
        let ge_min = BucketPred::cmp(0, CmpOp::Ge, i64::MIN);
        for pred in [
            ge_min.clone(),
            BucketPred::cmp(1, CmpOp::Le, Decimal::from_cents(0)),
            BucketPred::cmp(2, CmpOp::Ge, Date::from_days(i32::MIN)),
            BucketPred::cmp(3, CmpOp::Eq, Value::Char(0)),
        ] {
            assert_eq!(eval_both(&pred, &nulls), (false, false), "{pred:?}");
        }
        let tuple = vec![
            Value::Int(5),
            Value::Decimal(Decimal::from_cents(5)),
            Value::Date(Date::from_days(5)),
            Value::Char(b'A'),
            Value::Str("m".into()),
        ];
        for pred in [
            BucketPred::cmp(0, CmpOp::Le, Value::Null),
            BucketPred::cmp(0, CmpOp::Le, Decimal::from_cents(9)),
            BucketPred::cmp(4, CmpOp::Le, 9i64),
            BucketPred::cmp(9, CmpOp::Le, 9i64),
        ] {
            assert_eq!(eval_both(&pred, &tuple), (false, false), "{pred:?}");
        }
        let generic = BucketPred::And(vec![
            BucketPred::cmp(4, CmpOp::Lt, "z"),
            BucketPred::col_cmp(0, CmpOp::Eq, 0),
            BucketPred::Or(vec![BucketPred::cmp(0, CmpOp::Gt, 9i64), ge_min]),
        ]);
        assert_eq!(eval_both(&generic, &tuple), (true, true));
        assert_eq!(eval_both(&BucketPred::And(vec![]), &tuple), (true, true));
        assert_eq!(eval_both(&BucketPred::Or(vec![]), &tuple), (false, false));
    }

    #[test]
    fn a_false_atom_stops_before_a_failing_generic_one() {
        let s = schema();
        let tuple = vec![
            Value::Int(5),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Str("long enough".into()),
        ];
        let mut image = Vec::new();
        encode(&s, &tuple, &mut image).unwrap();
        image.truncate(image.len() - 3);
        let layout = RowLayout::new(&s);
        let row = layout.view(&image).unwrap();
        let str_atom = BucketPred::cmp(4, CmpOp::Lt, "z");
        for pred in [
            BucketPred::And(vec![str_atom.clone(), BucketPred::cmp(0, CmpOp::Gt, 9i64)]),
            BucketPred::And(vec![BucketPred::cmp(0, CmpOp::Gt, 9i64), str_atom]),
        ] {
            let compiled = CompiledPred::new(&pred, &layout).eval(&row);
            assert_eq!(compiled.is_err(), pred.eval_view(&row).is_err(), "{pred:?}");
            assert_eq!(compiled.ok(), pred.eval_view(&row).ok(), "{pred:?}");
        }
    }
}
