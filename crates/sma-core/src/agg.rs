//! Aggregate functions and incremental accumulators.
//!
//! The paper allows exactly `min`, `max`, `sum`, and `count` in a SMA
//! definition (§2.1); `avg` in queries is derived as `sum / count` during
//! post-processing (§3.3), so it never appears here.

use std::fmt;

use sma_types::{DataType, Decimal, Value};

/// The aggregate functions a SMA may materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// Minimum of the input expression.
    Min,
    /// Maximum of the input expression.
    Max,
    /// Sum of the input expression.
    Sum,
    /// Row count (`count(*)`; ignores any input expression).
    Count,
}

impl AggFn {
    /// Result type given the input expression's type (`None` for
    /// `count(*)`). Min/max/sum with no input expression have no result
    /// type — [`crate::SmaDefinition::validate`] rejects such definitions.
    pub fn result_type(self, input: Option<DataType>) -> Option<DataType> {
        match self {
            AggFn::Count => Some(DataType::Int),
            AggFn::Min | AggFn::Max | AggFn::Sum => input,
        }
    }

    /// Bytes one materialized aggregate value occupies in a SMA-file.
    /// Matches the paper's accounting: 4 bytes for counts and dates,
    /// 8 bytes for everything else (§2.4).
    pub fn entry_bytes(self, input: Option<DataType>) -> usize {
        match self.result_type(input) {
            Some(DataType::Date) => 4,
            Some(DataType::Int) if self == AggFn::Count => 4,
            _ => 8,
        }
    }
}

impl fmt::Display for AggFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Sum => "sum",
            AggFn::Count => "count",
        };
        f.write_str(s)
    }
}

/// Incremental accumulator for one aggregate over one bucket (or group).
///
/// Starts at the aggregate's identity: `Null` for min/max/sum (no input
/// seen — the paper's "not defined" case), `0` for count.
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    agg: AggFn,
    state: Value,
}

impl Accumulator {
    /// A fresh accumulator for `agg`.
    pub fn new(agg: AggFn) -> Accumulator {
        let state = match agg {
            AggFn::Count => Value::Int(0),
            _ => Value::Null,
        };
        Accumulator { agg, state }
    }

    /// Folds in one input value. `Null` inputs are ignored by min/max/sum
    /// (SQL semantics) but still counted by `count(*)`. Int sums saturate
    /// at the `i64` endpoints instead of overflowing; type-mismatched
    /// inputs (unreachable after schema validation) are ignored.
    pub fn update(&mut self, v: &Value) {
        match self.agg {
            AggFn::Count => {
                self.state = Value::Int(self.state.as_int().unwrap_or(0).saturating_add(1));
            }
            AggFn::Min => self.state = self.state.min_value(v),
            AggFn::Max => self.state = self.state.max_value(v),
            AggFn::Sum => self.state = saturating_sum(&self.state, v),
        }
    }

    /// Sequentially folds raw decimal cents into a `sum` accumulator —
    /// exactly one [`Accumulator::update`] with
    /// `Value::Decimal(Decimal::from_cents(v))` per item (`None` items
    /// are `Null` inputs, ignored), minus the `Value` boxing and enum
    /// dispatch. The bucket loop's compiled row fold calls it once per
    /// passing row with the `Decimal` column's raw cents.
    pub fn fold_sum_dec(&mut self, items: impl IntoIterator<Item = Option<i64>>) {
        debug_assert_eq!(self.agg, AggFn::Sum);
        let items = items.into_iter();
        let mut state = match &self.state {
            Value::Null => None,
            Value::Decimal(d) => Some(d.cents()),
            _ => {
                // Type-mismatched running state (unreachable after schema
                // validation): keep the per-value fold, which ignores it.
                for item in items {
                    let v = item.map_or(Value::Null, |c| Value::Decimal(Decimal::from_cents(c)));
                    self.update(&v);
                }
                return;
            }
        };
        for item in items {
            let Some(c) = item else { continue };
            state = Some(match state {
                None => c,
                Some(s) => (Decimal::from_cents(s) + Decimal::from_cents(c)).cents(),
            });
        }
        self.state = state.map_or(Value::Null, |c| Value::Decimal(Decimal::from_cents(c)));
    }

    /// The `Int` twin of [`Accumulator::fold_sum_dec`]: per-step checked
    /// addition saturating at the `i64` endpoints, exactly like the
    /// per-value path.
    pub fn fold_sum_int(&mut self, items: impl IntoIterator<Item = Option<i64>>) {
        debug_assert_eq!(self.agg, AggFn::Sum);
        let items = items.into_iter();
        let mut state = match &self.state {
            Value::Null => None,
            Value::Int(n) => Some(*n),
            _ => {
                for item in items {
                    self.update(&item.map_or(Value::Null, Value::Int));
                }
                return;
            }
        };
        for item in items {
            let Some(v) = item else { continue };
            state = Some(match state {
                None => v,
                Some(s) => s.checked_add(v).unwrap_or_else(|| s.saturating_add(v)),
            });
        }
        self.state = state.map_or(Value::Null, Value::Int);
    }

    /// Counts `n` rows at once — identical to `n` single
    /// [`Accumulator::update`] calls because saturating increments are
    /// monotone: both end at `start + n` clamped to `i64::MAX`.
    #[inline]
    pub fn fold_count(&mut self, n: usize) {
        debug_assert_eq!(self.agg, AggFn::Count);
        let start = self.state.as_int().unwrap_or(0);
        let add = i64::try_from(n).unwrap_or(i64::MAX);
        self.state = Value::Int(start.saturating_add(add));
    }

    /// Folds in an already-aggregated value (e.g. a SMA entry for a whole
    /// bucket). For `count`, `v` is the bucket's count. `Null` merges are
    /// no-ops for min/max/sum; a non-Int count merge (unreachable — SMA
    /// count entries are Int by construction) is ignored.
    pub fn merge(&mut self, v: &Value) {
        match self.agg {
            AggFn::Count => {
                let n = v.as_int().unwrap_or(0);
                self.state = Value::Int(self.state.as_int().unwrap_or(0).saturating_add(n));
            }
            AggFn::Min => self.state = self.state.min_value(v),
            AggFn::Max => self.state = self.state.max_value(v),
            AggFn::Sum => self.state = saturating_sum(&self.state, v),
        }
    }

    /// Removes one previously-added input value. Exact for sum and count;
    /// **not supported** for min/max (deletion there needs a bucket
    /// recompute — see `maintain`).
    pub fn retract(&mut self, v: &Value) -> Result<(), RetractError> {
        match self.agg {
            AggFn::Count => {
                self.state = Value::Int(self.state.as_int().unwrap_or(0).saturating_sub(1));
                Ok(())
            }
            AggFn::Sum => {
                if v.is_null() {
                    return Ok(());
                }
                let negated = match v {
                    Value::Int(n) => {
                        Value::Int(n.checked_neg().ok_or_else(|| {
                            RetractError("cannot retract i64::MIN from sum".into())
                        })?)
                    }
                    Value::Decimal(d) => Value::Decimal(-*d),
                    other => return Err(RetractError(format!("cannot retract {other} from sum"))),
                };
                self.state = saturating_sum(&self.state, &negated);
                Ok(())
            }
            AggFn::Min | AggFn::Max => Err(RetractError(
                "min/max cannot retract; recompute the bucket".into(),
            )),
        }
    }

    /// The aggregate's current value.
    pub fn value(&self) -> &Value {
        &self.state
    }

    /// Consumes the accumulator, yielding the final value.
    pub fn finish(self) -> Value {
        self.state
    }
}

/// Total fallback-aware sum: like [`Value::checked_add`] but Int overflow
/// saturates at the `i64` endpoints and a type-mismatched operand leaves
/// the running state unchanged (mismatches are unreachable for tuples that
/// passed schema validation, but the accumulator stays panic-free even on
/// hostile input).
fn saturating_sum(state: &Value, v: &Value) -> Value {
    match state.checked_add(v) {
        Some(s) => s,
        None => match (state, v) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.saturating_add(*b)),
            _ => state.clone(),
        },
    }
}

/// Error produced by unsupported retractions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetractError(pub String);

impl fmt::Display for RetractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "retract error: {}", self.0)
    }
}

impl std::error::Error for RetractError {}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_types::{Date, Decimal};

    fn dec(s: &str) -> Value {
        Value::Decimal(Decimal::parse(s).unwrap())
    }

    #[test]
    fn count_counts_everything_including_null() {
        let mut a = Accumulator::new(AggFn::Count);
        a.update(&Value::Int(5));
        a.update(&Value::Null);
        a.update(&dec("1.00"));
        assert_eq!(a.finish(), Value::Int(3));
    }

    #[test]
    fn min_max_over_dates() {
        let d1 = Value::Date(Date::parse("1997-02-02").unwrap());
        let d2 = Value::Date(Date::parse("1997-04-22").unwrap());
        let mut lo = Accumulator::new(AggFn::Min);
        let mut hi = Accumulator::new(AggFn::Max);
        for v in [&d2, &Value::Null, &d1] {
            lo.update(v);
            hi.update(v);
        }
        assert_eq!(lo.finish(), d1);
        assert_eq!(hi.finish(), d2);
    }

    #[test]
    fn empty_min_max_sum_are_null() {
        assert_eq!(Accumulator::new(AggFn::Min).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFn::Max).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFn::Sum).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFn::Count).finish(), Value::Int(0));
    }

    #[test]
    fn sum_decimals_ignores_null() {
        let mut a = Accumulator::new(AggFn::Sum);
        a.update(&dec("1.50"));
        a.update(&Value::Null);
        a.update(&dec("2.25"));
        assert_eq!(a.finish(), dec("3.75"));
    }

    #[test]
    fn merge_combines_bucket_aggregates() {
        let mut sum = Accumulator::new(AggFn::Sum);
        sum.merge(&dec("10.00"));
        sum.merge(&dec("5.00"));
        sum.merge(&Value::Null); // empty bucket
        assert_eq!(sum.finish(), dec("15.00"));

        let mut count = Accumulator::new(AggFn::Count);
        count.merge(&Value::Int(120));
        count.merge(&Value::Int(3));
        assert_eq!(count.finish(), Value::Int(123));

        let mut min = Accumulator::new(AggFn::Min);
        min.merge(&Value::Int(5));
        min.merge(&Value::Int(2));
        assert_eq!(min.finish(), Value::Int(2));
    }

    #[test]
    fn retract_sum_and_count() {
        let mut sum = Accumulator::new(AggFn::Sum);
        sum.update(&Value::Int(10));
        sum.update(&Value::Int(7));
        sum.retract(&Value::Int(10)).unwrap();
        assert_eq!(sum.finish(), Value::Int(7));

        let mut count = Accumulator::new(AggFn::Count);
        count.update(&Value::Int(1));
        count.retract(&Value::Int(1)).unwrap();
        assert_eq!(count.finish(), Value::Int(0));
    }

    /// Regression: retracting `i64::MIN` used to negate unchecked and
    /// overflow-panic in debug builds; it must report a retract error.
    #[test]
    fn retract_i64_min_is_an_error_not_a_panic() {
        let mut sum = Accumulator::new(AggFn::Sum);
        sum.update(&Value::Int(5));
        assert!(sum.retract(&Value::Int(i64::MIN)).is_err());
    }

    #[test]
    fn retract_minmax_rejected() {
        let mut m = Accumulator::new(AggFn::Min);
        m.update(&Value::Int(1));
        assert!(m.retract(&Value::Int(1)).is_err());
    }

    #[test]
    fn entry_bytes_match_paper() {
        // §2.4: "For counts and dates, 4 bytes are needed. For all other
        // aggregate values we used 8 bytes."
        assert_eq!(AggFn::Count.entry_bytes(None), 4);
        assert_eq!(AggFn::Min.entry_bytes(Some(DataType::Date)), 4);
        assert_eq!(AggFn::Max.entry_bytes(Some(DataType::Date)), 4);
        assert_eq!(AggFn::Sum.entry_bytes(Some(DataType::Decimal)), 8);
        assert_eq!(AggFn::Sum.entry_bytes(Some(DataType::Int)), 8);
    }

    #[test]
    fn result_types() {
        assert_eq!(AggFn::Count.result_type(None), Some(DataType::Int));
        assert_eq!(
            AggFn::Min.result_type(Some(DataType::Date)),
            Some(DataType::Date)
        );
        assert_eq!(
            AggFn::Sum.result_type(Some(DataType::Decimal)),
            Some(DataType::Decimal)
        );
        assert_eq!(AggFn::Sum.result_type(None), None);
    }
}
