//! Reference implementation of TPC-D Query 4 (order priority checking).
//!
//! ```sql
//! SELECT O_ORDERPRIORITY, COUNT(*) AS ORDER_COUNT
//! FROM ORDERS
//! WHERE O_ORDERDATE >= DATE '[date]'
//!   AND O_ORDERDATE < DATE '[date]' + INTERVAL '3' MONTH
//!   AND EXISTS (
//!     SELECT * FROM LINEITEM
//!     WHERE L_ORDERKEY = O_ORDERKEY AND L_COMMITDATE < L_RECEIPTDATE)
//! GROUP BY O_ORDERPRIORITY
//! ORDER BY O_ORDERPRIORITY
//! ```
//!
//! Query 4 combines three SMA opportunities at once: a date-range
//! predicate on ORDERS (gradable by min/max SMAs), an existential
//! (semi-join) subquery on the order key (§4's join SMAs), and an
//! attribute-vs-attribute predicate `L_COMMITDATE < L_RECEIPTDATE`
//! (the `A < B` rule of §3.1).

use std::collections::{BTreeMap, HashSet};

use sma_types::Date;

use crate::generator::{LineItem, Order};

/// Query 4 substitution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q4Params {
    /// First order date included (TPC-D: first of a month in 1993–1997).
    pub date: Date,
}

impl Default for Q4Params {
    fn default() -> Q4Params {
        // The TPC-D validation parameter.
        Q4Params {
            #[expect(
                clippy::expect_used,
                reason = "compile-time constant date; cannot fail"
            )]
            date: Date::from_ymd(1993, 7, 1).expect("valid constant"),
        }
    }
}

impl Q4Params {
    /// Exclusive upper order-date bound: `date + 3 months`.
    pub fn date_hi(&self) -> Date {
        let (y, m, d) = self.date.ymd();
        let (y, m) = if m > 9 { (y + 1, m - 9) } else { (y, m + 3) };
        Date::from_ymd(y, m, d).unwrap_or_else(|_| self.date.add_days(91))
    }
}

/// One output group of Query 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q4Row {
    /// O_ORDERPRIORITY
    pub orderpriority: String,
    /// COUNT(*)
    pub order_count: i64,
}

/// Evaluates Query 4 over typed rows (the oracle).
pub fn q4_reference(orders: &[Order], items: &[LineItem], p: &Q4Params) -> Vec<Q4Row> {
    // Order keys with at least one late line item.
    let late: HashSet<i64> = items
        .iter()
        .filter(|it| it.commitdate < it.receiptdate)
        .map(|it| it.orderkey)
        .collect();
    let mut groups: BTreeMap<String, i64> = BTreeMap::new();
    for o in orders {
        if o.orderdate >= p.date && o.orderdate < p.date_hi() && late.contains(&o.orderkey) {
            *groups.entry(o.orderpriority.to_string()).or_default() += 1;
        }
    }
    groups
        .into_iter()
        .map(|(orderpriority, order_count)| Q4Row {
            orderpriority,
            order_count,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use crate::generator::{generate, GenConfig};

    #[test]
    fn default_params_match_spec() {
        let p = Q4Params::default();
        assert_eq!(p.date.to_string(), "1993-07-01");
        assert_eq!(p.date_hi().to_string(), "1993-10-01");
    }

    #[test]
    fn three_month_wraparound() {
        let p = Q4Params {
            date: Date::from_ymd(1995, 11, 1).unwrap(),
        };
        assert_eq!(p.date_hi().to_string(), "1996-02-01");
        let p = Q4Params {
            date: Date::from_ymd(1995, 10, 1).unwrap(),
        };
        assert_eq!(p.date_hi().to_string(), "1996-01-01");
    }

    #[test]
    fn reference_finds_priorities() {
        let (orders, items) = generate(&GenConfig::tiny(Clustering::Uniform));
        let rows = q4_reference(&orders, &items, &Q4Params::default());
        assert!(!rows.is_empty(), "the window has late orders");
        assert!(rows.len() <= 5, "five priorities exist");
        // Sorted by priority.
        let names: Vec<&str> = rows.iter().map(|r| r.orderpriority.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        // Every counted order is in the window (spot-check totals).
        let total: i64 = rows.iter().map(|r| r.order_count).sum();
        let window_orders = orders
            .iter()
            .filter(|o| {
                o.orderdate >= Q4Params::default().date
                    && o.orderdate < Q4Params::default().date_hi()
            })
            .count() as i64;
        assert!(total <= window_orders);
        assert!(total > 0);
    }

    #[test]
    fn empty_window_yields_nothing() {
        let (orders, items) = generate(&GenConfig::tiny(Clustering::Uniform));
        let p = Q4Params {
            date: Date::from_ymd(2005, 1, 1).unwrap(),
        };
        assert!(q4_reference(&orders, &items, &p).is_empty());
    }
}
