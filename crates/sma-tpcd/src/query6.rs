//! Reference implementation of TPC-D Query 6 (forecasting revenue change).
//!
//! ```sql
//! SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) AS REVENUE
//! FROM LINEITEM
//! WHERE L_SHIPDATE >= DATE '[date]'
//!   AND L_SHIPDATE <  DATE '[date]' + INTERVAL '1' YEAR
//!   AND L_DISCOUNT BETWEEN [discount] - 0.01 AND [discount] + 0.01
//!   AND L_QUANTITY < [quantity]
//! ```
//!
//! Where Query 1 shows SMAs accelerating a *low*-selectivity aggregate,
//! Query 6 shows the conjunctive case of §3.1: three attributes restricted
//! at once, each able to contribute disqualification evidence. On
//! time-clustered data, the one-year ship-date window disqualifies ~6/7 of
//! the buckets outright.

use sma_storage::{Table, TableError};
use sma_types::{Date, Decimal, SchemaError};

use crate::generator::LineItem;
use crate::schema::lineitem as li;

/// Query 6 substitution parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Q6Params {
    /// First ship date included (TPC-D: Jan 1 of 1993–1997).
    pub date: Date,
    /// Central discount (TPC-D: 0.02–0.09); the band is ±0.01.
    pub discount: Decimal,
    /// Exclusive quantity bound (TPC-D: 24 or 25).
    pub quantity: i64,
}

impl Default for Q6Params {
    fn default() -> Q6Params {
        // The TPC-D validation parameters.
        Q6Params {
            #[expect(
                clippy::expect_used,
                reason = "compile-time constant date; cannot fail"
            )]
            date: Date::from_ymd(1994, 1, 1).expect("valid constant"),
            #[expect(
                clippy::expect_used,
                reason = "compile-time constant rate; cannot fail"
            )]
            discount: Decimal::parse("0.06").expect("valid constant"),
            quantity: 24,
        }
    }
}

impl Q6Params {
    /// Exclusive upper ship-date bound: `date + 1 year`.
    pub fn date_hi(&self) -> Date {
        let (y, m, d) = self.date.ymd();
        Date::from_ymd(y + 1, m, d).unwrap_or_else(|_| self.date.add_days(365))
    }

    /// Inclusive lower discount bound.
    pub fn discount_lo(&self) -> Decimal {
        self.discount - Decimal::from_cents(1)
    }

    /// Inclusive upper discount bound.
    pub fn discount_hi(&self) -> Decimal {
        self.discount + Decimal::from_cents(1)
    }

    /// Whether a line item satisfies the Query 6 predicate.
    pub fn matches(&self, it: &LineItem) -> bool {
        it.shipdate >= self.date
            && it.shipdate < self.date_hi()
            && it.discount >= self.discount_lo()
            && it.discount <= self.discount_hi()
            && it.quantity < Decimal::from_int(self.quantity)
    }
}

/// Evaluates Query 6 over typed line items (generator-level oracle).
pub fn q6_reference_items(items: &[LineItem], p: &Q6Params) -> Decimal {
    items
        .iter()
        .filter(|it| p.matches(it))
        .map(|it| it.extendedprice.mul_round(it.discount))
        .sum()
}

/// Evaluates Query 6 by a full sequential scan of a LINEITEM table.
pub fn q6_reference_table(table: &Table, p: &Q6Params) -> Result<Decimal, TableError> {
    let mut revenue = Decimal::ZERO;
    let mut rows = Vec::new();
    let qty_bound = Decimal::from_int(p.quantity);
    for page in 0..table.page_count() {
        rows.clear();
        table.scan_page_into(page, &mut rows)?;
        for (_, t) in &rows {
            let typed = |v: Option<Decimal>, what: &str| -> Result<Decimal, TableError> {
                v.ok_or_else(|| {
                    TableError::Schema(SchemaError(format!("column {what} has an unexpected type")))
                })
            };
            let ship = t[li::SHIPDATE].as_date().ok_or_else(|| {
                TableError::Schema(SchemaError(
                    "column L_SHIPDATE has an unexpected type".into(),
                ))
            })?;
            let disc = typed(t[li::DISCOUNT].as_decimal(), "L_DISCOUNT")?;
            let qty = typed(t[li::QUANTITY].as_decimal(), "L_QUANTITY")?;
            if ship >= p.date
                && ship < p.date_hi()
                && disc >= p.discount_lo()
                && disc <= p.discount_hi()
                && qty < qty_bound
            {
                let ext = typed(t[li::EXTENDEDPRICE].as_decimal(), "L_EXTENDEDPRICE")?;
                revenue += ext.mul_round(disc);
            }
        }
    }
    Ok(revenue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use crate::generator::{generate, generate_lineitem_table, GenConfig};

    #[test]
    fn default_params_match_spec() {
        let p = Q6Params::default();
        assert_eq!(p.date.to_string(), "1994-01-01");
        assert_eq!(p.date_hi().to_string(), "1995-01-01");
        assert_eq!(p.discount_lo().to_string(), "0.05");
        assert_eq!(p.discount_hi().to_string(), "0.07");
    }

    #[test]
    fn item_and_table_oracles_agree() {
        let cfg = GenConfig::tiny(Clustering::diagonal_default());
        let (_, items) = generate(&cfg);
        let table = generate_lineitem_table(&cfg);
        let p = Q6Params::default();
        assert_eq!(
            q6_reference_items(&items, &p),
            q6_reference_table(&table, &p).unwrap()
        );
    }

    #[test]
    fn selectivity_is_low() {
        // Q6 keeps roughly 1/7 (year) × ~0.27 (3 of 11 discount values)
        // × ~0.47 (qty < 24 of 1..=50) ≈ 2 % of tuples.
        let (_, items) = generate(&GenConfig::tiny(Clustering::Uniform));
        let p = Q6Params::default();
        let kept = items.iter().filter(|it| p.matches(it)).count();
        let frac = kept as f64 / items.len() as f64;
        assert!(frac > 0.002 && frac < 0.08, "selectivity {frac}");
    }

    #[test]
    fn revenue_is_positive_and_param_sensitive() {
        let (_, items) = generate(&GenConfig::tiny(Clustering::Uniform));
        let base = q6_reference_items(&items, &Q6Params::default());
        assert!(base > Decimal::ZERO);
        let wider = q6_reference_items(
            &items,
            &Q6Params {
                quantity: 50,
                ..Q6Params::default()
            },
        );
        assert!(wider > base, "looser quantity bound keeps more revenue");
        let none = q6_reference_items(
            &items,
            &Q6Params {
                date: Date::from_ymd(2005, 1, 1).unwrap(),
                ..Q6Params::default()
            },
        );
        assert_eq!(none, Decimal::ZERO);
    }

    #[test]
    fn leap_day_date_hi() {
        let p = Q6Params {
            date: Date::from_ymd(1996, 2, 29).unwrap(),
            ..Q6Params::default()
        };
        // 1997 has no Feb 29; fall back to +365 days.
        assert_eq!(p.date_hi().to_string(), "1997-02-28");
    }
}
