//! Scalar expressions over tuples.
//!
//! SMA definitions aggregate *expressions*, not just columns — Fig. 4 of
//! the paper materializes `sum(EXTPRICE * (1-DIS))` and
//! `sum(EXTPRICE * (1-DIS) * (1+TAX))`. This module provides the minimal
//! arithmetic AST those definitions (and the query layer's select lists)
//! need: column references, literals, `+`, `-`, `*`.

use std::fmt;

use sma_types::{DataType, Decimal, Schema, Value};

/// A scalar expression evaluated against one tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// The value of the column at this index.
    Column(usize),
    /// A constant.
    Literal(Value),
    /// Numeric addition (or date + int days).
    Add(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Numeric subtraction (or date - int days).
    Sub(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Numeric multiplication.
    Mul(Box<ScalarExpr>, Box<ScalarExpr>),
}

/// Error produced by expression evaluation or type checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprError(pub String);

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expression error: {}", self.0)
    }
}

impl std::error::Error for ExprError {}

/// Shorthand for a column reference.
pub fn col(idx: usize) -> ScalarExpr {
    ScalarExpr::Column(idx)
}

/// Shorthand for a literal.
pub fn lit(v: impl Into<Value>) -> ScalarExpr {
    ScalarExpr::Literal(v.into())
}

/// Shorthand for a decimal literal from a string like `"1.00"`.
#[expect(
    clippy::expect_used,
    reason = "DSL constructor fed compile-time literal strings; a typo here is a programming error every test run catches"
)]
pub fn dec_lit(s: &str) -> ScalarExpr {
    ScalarExpr::Literal(Value::Decimal(
        Decimal::parse(s).expect("valid decimal literal"),
    ))
}

#[expect(
    clippy::should_implement_trait,
    reason = "builder DSL: `col(a).add(col(b))`"
)]
impl ScalarExpr {
    /// `self + rhs`.
    #[must_use]
    pub fn add(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[must_use]
    pub fn sub(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[must_use]
    pub fn mul(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Mul(Box::new(self), Box::new(rhs))
    }

    /// Evaluates against `tuple`. Any `Null` operand yields `Null`
    /// (SQL semantics).
    pub fn eval(&self, tuple: &[Value]) -> Result<Value, ExprError> {
        match self {
            ScalarExpr::Column(i) => tuple
                .get(*i)
                .cloned()
                .ok_or_else(|| ExprError(format!("column {i} out of range"))),
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Add(a, b) => binary(a.eval(tuple)?, b.eval(tuple)?, BinOp::Add),
            ScalarExpr::Sub(a, b) => binary(a.eval(tuple)?, b.eval(tuple)?, BinOp::Sub),
            ScalarExpr::Mul(a, b) => binary(a.eval(tuple)?, b.eval(tuple)?, BinOp::Mul),
        }
    }

    /// Evaluates against a zero-copy [`sma_types::RowView`], with the
    /// same semantics as [`ScalarExpr::eval`]. Heap-allocates only when a
    /// `Str` column or literal flows through the tree — never for the
    /// numeric expressions aggregation uses.
    pub fn eval_view(&self, row: &sma_types::RowView<'_>) -> Result<Value, ExprError> {
        match self {
            ScalarExpr::Column(i) => {
                if *i >= row.columns() {
                    return Err(ExprError(format!("column {i} out of range")));
                }
                row.get(*i)
                    .map_err(|e| ExprError(format!("column {i}: {e}")))
            }
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Add(a, b) => binary(a.eval_view(row)?, b.eval_view(row)?, BinOp::Add),
            ScalarExpr::Sub(a, b) => binary(a.eval_view(row)?, b.eval_view(row)?, BinOp::Sub),
            ScalarExpr::Mul(a, b) => binary(a.eval_view(row)?, b.eval_view(row)?, BinOp::Mul),
        }
    }

    /// All column indexes referenced, ascending and deduplicated.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.collect_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Column(i) => out.push(*i),
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Add(a, b) | ScalarExpr::Sub(a, b) | ScalarExpr::Mul(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }

    /// Static result type under `schema`, or an error for ill-typed trees.
    pub fn result_type(&self, schema: &Schema) -> Result<DataType, ExprError> {
        match self {
            ScalarExpr::Column(i) => {
                if *i >= schema.len() {
                    return Err(ExprError(format!("column {i} out of range")));
                }
                Ok(schema.column(*i).ty)
            }
            ScalarExpr::Literal(v) => v
                .data_type()
                .ok_or_else(|| ExprError("literal NULL has no type".into())),
            ScalarExpr::Add(a, b) | ScalarExpr::Sub(a, b) => {
                let (ta, tb) = (a.result_type(schema)?, b.result_type(schema)?);
                match (ta, tb) {
                    (DataType::Int, DataType::Int) => Ok(DataType::Int),
                    (DataType::Decimal, DataType::Decimal) => Ok(DataType::Decimal),
                    (DataType::Date, DataType::Int) => Ok(DataType::Date),
                    _ => Err(ExprError(format!("cannot add/sub {ta} and {tb}"))),
                }
            }
            ScalarExpr::Mul(a, b) => {
                let (ta, tb) = (a.result_type(schema)?, b.result_type(schema)?);
                match (ta, tb) {
                    (DataType::Int, DataType::Int) => Ok(DataType::Int),
                    (DataType::Decimal, DataType::Decimal) => Ok(DataType::Decimal),
                    _ => Err(ExprError(format!("cannot multiply {ta} and {tb}"))),
                }
            }
        }
    }
}

enum BinOp {
    Add,
    Sub,
    Mul,
}

fn binary(a: Value, b: Value, op: BinOp) -> Result<Value, ExprError> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    match (op, &a, &b) {
        (BinOp::Add, Value::Int(x), Value::Int(y)) => x
            .checked_add(*y)
            .map(Value::Int)
            .ok_or_else(|| ExprError("integer overflow in +".into())),
        (BinOp::Sub, Value::Int(x), Value::Int(y)) => x
            .checked_sub(*y)
            .map(Value::Int)
            .ok_or_else(|| ExprError("integer overflow in -".into())),
        (BinOp::Mul, Value::Int(x), Value::Int(y)) => x
            .checked_mul(*y)
            .map(Value::Int)
            .ok_or_else(|| ExprError("integer overflow in *".into())),
        (BinOp::Add, Value::Decimal(x), Value::Decimal(y)) => Ok(Value::Decimal(*x + *y)),
        (BinOp::Sub, Value::Decimal(x), Value::Decimal(y)) => Ok(Value::Decimal(*x - *y)),
        (BinOp::Mul, Value::Decimal(x), Value::Decimal(y)) => Ok(Value::Decimal(x.mul_round(*y))),
        (BinOp::Add, Value::Date(d), Value::Int(n)) => Ok(Value::Date(d.add_days(*n as i32))),
        (BinOp::Sub, Value::Date(d), Value::Int(n)) => Ok(Value::Date(d.add_days(-*n as i32))),
        _ => Err(ExprError(format!("type mismatch: {a} vs {b}"))),
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(i) => write!(f, "${i}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Add(a, b) => write!(f, "({a} + {b})"),
            ScalarExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            ScalarExpr::Mul(a, b) => write!(f, "({a} * {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_types::{Column, Date};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("N", DataType::Int),
            Column::new("P", DataType::Decimal),
            Column::new("D", DataType::Date),
        ])
    }

    fn tuple() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::Decimal(Decimal::parse("2.50").unwrap()),
            Value::Date(Date::parse("1997-04-30").unwrap()),
        ]
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(col(0).eval(&tuple()).unwrap(), Value::Int(10));
        assert_eq!(lit(5i64).eval(&tuple()).unwrap(), Value::Int(5));
        assert!(col(9).eval(&tuple()).is_err());
    }

    #[test]
    fn arithmetic() {
        let t = tuple();
        assert_eq!(col(0).add(lit(5i64)).eval(&t).unwrap(), Value::Int(15));
        assert_eq!(col(0).sub(lit(3i64)).eval(&t).unwrap(), Value::Int(7));
        assert_eq!(col(0).mul(col(0)).eval(&t).unwrap(), Value::Int(100));
        // Paper's Query 1 expression shape: price * (1 - disc).
        let disc = dec_lit("0.10");
        let e = col(1).mul(dec_lit("1.00").sub(disc));
        assert_eq!(
            e.eval(&t).unwrap(),
            Value::Decimal(Decimal::parse("2.25").unwrap())
        );
    }

    #[test]
    fn date_arithmetic() {
        let t = tuple();
        let e = col(2).sub(lit(90i64));
        assert_eq!(
            e.eval(&t).unwrap(),
            Value::Date(Date::parse("1997-01-30").unwrap())
        );
    }

    #[test]
    fn null_propagates() {
        let t = vec![Value::Null, Value::Null, Value::Null];
        assert_eq!(col(0).add(lit(1i64)).eval(&t).unwrap(), Value::Null);
        assert_eq!(col(1).mul(dec_lit("2.00")).eval(&t).unwrap(), Value::Null);
    }

    #[test]
    fn type_mismatch_errors() {
        let t = tuple();
        assert!(col(0).add(col(1)).eval(&t).is_err());
        assert!(col(2).mul(lit(2i64)).eval(&t).is_err());
    }

    #[test]
    fn overflow_is_an_error() {
        let t = vec![Value::Int(i64::MAX)];
        assert!(col(0).add(lit(1i64)).eval(&t).is_err());
        assert!(col(0).mul(lit(2i64)).eval(&t).is_err());
    }

    #[test]
    fn result_types() {
        let s = schema();
        assert_eq!(col(0).result_type(&s).unwrap(), DataType::Int);
        assert_eq!(
            col(1).mul(dec_lit("1.00")).result_type(&s).unwrap(),
            DataType::Decimal
        );
        assert_eq!(
            col(2).sub(lit(90i64)).result_type(&s).unwrap(),
            DataType::Date
        );
        assert!(col(0).add(col(1)).result_type(&s).is_err());
        assert!(col(7).result_type(&s).is_err());
        assert!(ScalarExpr::Literal(Value::Null).result_type(&s).is_err());
    }

    #[test]
    fn referenced_columns_deduped() {
        let e = col(2).sub(lit(1i64)).mul(col(0)).add(col(2).mul(col(0)));
        // (Mul of dates is ill-typed but reference collection is syntactic.)
        assert_eq!(e.referenced_columns(), vec![0, 2]);
    }

    #[test]
    fn display_is_readable() {
        let e = col(1).mul(dec_lit("1.00").sub(col(0)));
        assert_eq!(e.to_string(), "($1 * (1.00 - $0))");
    }
}
