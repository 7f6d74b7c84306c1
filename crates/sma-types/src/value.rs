//! Dynamically-typed values flowing through the storage and query layers.

#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

use std::cmp::Ordering;
use std::fmt;

use crate::date::Date;
use crate::decimal::Decimal;
use crate::schema::DataType;

/// A single column value.
///
/// `Null` exists because the paper's grading rules explicitly cover the
/// case where min/max aggregates "are not defined" (empty buckets, empty
/// groups): such entries grade as *ambivalent*.
///
/// The derived `Ord` is a **storage order** (variant rank, then value) used
/// for group keys and sorted directories; SQL-style comparison — which is
/// undefined across types and for `Null` — is [`Value::partial_cmp_typed`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Absent / undefined value.
    Null,
    /// 64-bit integer (keys, counts, quantities in some schemas).
    Int(i64),
    /// Fixed-point decimal with two fractional digits (money, rates).
    Decimal(Decimal),
    /// Calendar date.
    Date(Date),
    /// Single-character flag (e.g. `L_RETURNFLAG`).
    Char(u8),
    /// Variable-length string.
    Str(String),
}

impl Value {
    /// The value's data type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Decimal(_) => Some(DataType::Decimal),
            Value::Date(_) => Some(DataType::Date),
            Value::Char(_) => Some(DataType::Char),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Compares two values of the same type. Returns `None` when types
    /// differ or either side is `Null` (SQL-style unknown).
    pub fn partial_cmp_typed(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Decimal(a), Value::Decimal(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Char(a), Value::Char(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Extracts an `i64`, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Extracts a `Decimal`, if this is a `Decimal`.
    pub fn as_decimal(&self) -> Option<Decimal> {
        match self {
            Value::Decimal(d) => Some(*d),
            _ => None,
        }
    }

    /// Extracts a `Date`, if this is a `Date`.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Extracts a `char` flag, if this is a `Char`.
    pub fn as_char(&self) -> Option<u8> {
        match self {
            Value::Char(c) => Some(*c),
            _ => None,
        }
    }

    /// Extracts a string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric addition for aggregation: Int+Int and Decimal+Decimal.
    /// Returns `None` on type mismatch; `Null` absorbs into the other side
    /// (SUM ignores NULLs).
    pub fn checked_add(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Null, v) | (v, Value::Null) => Some(v.clone()),
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.checked_add(*b)?)),
            (Value::Decimal(a), Value::Decimal(b)) => Some(Value::Decimal(*a + *b)),
            _ => None,
        }
    }

    /// Minimum of two values under [`Value::partial_cmp_typed`]; `Null` loses.
    pub fn min_value(&self, other: &Value) -> Value {
        match (self.is_null(), other.is_null()) {
            (true, _) => other.clone(),
            (_, true) => self.clone(),
            _ => match self.partial_cmp_typed(other) {
                Some(Ordering::Greater) => other.clone(),
                _ => self.clone(),
            },
        }
    }

    /// Maximum of two values under [`Value::partial_cmp_typed`]; `Null` loses.
    pub fn max_value(&self, other: &Value) -> Value {
        match (self.is_null(), other.is_null()) {
            (true, _) => other.clone(),
            (_, true) => self.clone(),
            _ => match self.partial_cmp_typed(other) {
                Some(Ordering::Less) => other.clone(),
                _ => self.clone(),
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Decimal(d) => write!(f, "{d}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Char(c) => write!(f, "{}", *c as char),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n)
    }
}

impl From<Decimal> for Value {
    fn from(d: Decimal) -> Value {
        Value::Decimal(d)
    }
}

impl From<Date> for Value {
    fn from(d: Date) -> Value {
        Value::Date(d)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(s: &str) -> Value {
        Value::Decimal(Decimal::parse(s).unwrap())
    }

    #[test]
    fn typed_comparison() {
        assert_eq!(
            Value::Int(1).partial_cmp_typed(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            dec("1.50").partial_cmp_typed(&dec("1.50")),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Int(1).partial_cmp_typed(&dec("1.00")), None);
        assert_eq!(Value::Null.partial_cmp_typed(&Value::Int(1)), None);
        assert_eq!(
            Value::Char(b'A').partial_cmp_typed(&Value::Char(b'N')),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Str("abc".into()).partial_cmp_typed(&Value::Str("abd".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn min_max_ignore_null() {
        assert_eq!(Value::Null.min_value(&Value::Int(3)), Value::Int(3));
        assert_eq!(Value::Int(3).max_value(&Value::Null), Value::Int(3));
        assert_eq!(Value::Int(3).min_value(&Value::Int(5)), Value::Int(3));
        assert_eq!(Value::Int(3).max_value(&Value::Int(5)), Value::Int(5));
    }

    #[test]
    fn checked_add_behaviour() {
        assert_eq!(
            Value::Int(2).checked_add(&Value::Int(3)),
            Some(Value::Int(5))
        );
        assert_eq!(dec("1.10").checked_add(&dec("2.20")), Some(dec("3.30")));
        assert_eq!(Value::Null.checked_add(&Value::Int(3)), Some(Value::Int(3)));
        assert_eq!(Value::Int(1).checked_add(&dec("1.00")), None);
        assert_eq!(Value::Int(i64::MAX).checked_add(&Value::Int(1)), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Char(b'R').to_string(), "R");
        assert_eq!(dec("12.34").to_string(), "12.34");
    }

    #[test]
    fn data_types() {
        assert_eq!(Value::Int(0).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Str("x".into()).data_type(), Some(DataType::Str));
    }
}
