//! Reference implementation of TPC-D Query 3 (shipping priority).
//!
//! ```sql
//! SELECT L_ORDERKEY, SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS REVENUE,
//!        O_ORDERDATE, O_SHIPPRIORITY
//! FROM CUSTOMER, ORDERS, LINEITEM
//! WHERE C_MKTSEGMENT = '[segment]'
//!   AND C_CUSTKEY = O_CUSTKEY
//!   AND L_ORDERKEY = O_ORDERKEY
//!   AND O_ORDERDATE < DATE '[date]'
//!   AND L_SHIPDATE  > DATE '[date]'
//! GROUP BY L_ORDERKEY, O_ORDERDATE, O_SHIPPRIORITY
//! ORDER BY REVENUE DESC, O_ORDERDATE
//! ```
//!
//! (TPC-D returns the top 10 rows.) The two date predicates on different
//! relations are both SMA-gradable; the joins are key equijoins.

use std::collections::HashMap;

use sma_types::{Date, Decimal};

use crate::customer::Customer;
use crate::generator::{LineItem, Order};

/// Query 3 substitution parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q3Params {
    /// The market segment (TPC-D: one of the five).
    pub segment: String,
    /// The pivot date (TPC-D: a day in March 1995).
    pub date: Date,
}

impl Default for Q3Params {
    fn default() -> Q3Params {
        // The TPC-D validation parameters.
        Q3Params {
            segment: "BUILDING".to_string(),
            #[expect(
                clippy::expect_used,
                reason = "compile-time constant date; cannot fail"
            )]
            date: Date::from_ymd(1995, 3, 15).expect("valid constant"),
        }
    }
}

/// One output row of Query 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q3Row {
    /// L_ORDERKEY
    pub orderkey: i64,
    /// SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT))
    pub revenue: Decimal,
    /// O_ORDERDATE
    pub orderdate: Date,
    /// O_SHIPPRIORITY
    pub shippriority: i64,
}

/// Evaluates Query 3 over typed rows (the oracle), returning the top
/// `limit` rows by revenue desc, order date asc.
pub fn q3_reference(
    customers: &[Customer],
    orders: &[Order],
    items: &[LineItem],
    p: &Q3Params,
    limit: usize,
) -> Vec<Q3Row> {
    let seg_customers: std::collections::HashSet<i64> = customers
        .iter()
        .filter(|c| c.mktsegment == p.segment)
        .map(|c| c.custkey)
        .collect();
    let open_orders: HashMap<i64, (&Order, Date)> = orders
        .iter()
        .filter(|o| o.orderdate < p.date && seg_customers.contains(&o.custkey))
        .map(|o| (o.orderkey, (o, o.orderdate)))
        .collect();
    let mut revenue: HashMap<i64, Decimal> = HashMap::new();
    for it in items {
        if it.shipdate > p.date && open_orders.contains_key(&it.orderkey) {
            let rev = it.extendedprice.mul_round(Decimal::ONE - it.discount);
            *revenue.entry(it.orderkey).or_insert(Decimal::ZERO) += rev;
        }
    }
    let mut rows: Vec<Q3Row> = revenue
        .into_iter()
        .map(|(orderkey, rev)| {
            let (o, orderdate) = open_orders[&orderkey];
            Q3Row {
                orderkey,
                revenue: rev,
                orderdate,
                shippriority: o.shippriority,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.revenue
            .cmp(&a.revenue)
            .then(a.orderdate.cmp(&b.orderdate))
            .then(a.orderkey.cmp(&b.orderkey))
    });
    rows.truncate(limit);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use crate::customer::generate_customers;
    use crate::generator::{generate, GenConfig};

    fn data() -> (Vec<Customer>, Vec<Order>, Vec<LineItem>) {
        let cfg = GenConfig {
            orders: 1500,
            ..GenConfig::tiny(Clustering::Uniform)
        };
        let (orders, items) = generate(&cfg);
        // dbgen's 10:1 order-to-customer ratio.
        let customers = generate_customers(cfg.orders / 10, cfg.seed);
        (customers, orders, items)
    }

    #[test]
    fn finds_top_orders_sorted_by_revenue() {
        let (c, o, l) = data();
        let rows = q3_reference(&c, &o, &l, &Q3Params::default(), 10);
        assert!(!rows.is_empty(), "validation parameters match something");
        assert!(rows.len() <= 10);
        for w in rows.windows(2) {
            assert!(
                w[0].revenue > w[1].revenue
                    || (w[0].revenue == w[1].revenue && w[0].orderdate <= w[1].orderdate),
                "sorted by revenue desc, date asc"
            );
        }
        for r in &rows {
            assert!(r.orderdate < Q3Params::default().date);
            assert!(r.revenue > Decimal::ZERO);
        }
    }

    #[test]
    fn segment_restricts() {
        let (c, o, l) = data();
        let all: usize = crate::customer::MKTSEGMENTS
            .iter()
            .map(|seg| {
                q3_reference(
                    &c,
                    &o,
                    &l,
                    &Q3Params {
                        segment: seg.to_string(),
                        ..Q3Params::default()
                    },
                    usize::MAX,
                )
                .len()
            })
            .sum();
        let building = q3_reference(&c, &o, &l, &Q3Params::default(), usize::MAX).len();
        assert!(building < all, "one segment is a strict subset of all five");
        let none = q3_reference(
            &c,
            &o,
            &l,
            &Q3Params {
                segment: "NOPE".into(),
                ..Q3Params::default()
            },
            usize::MAX,
        );
        assert!(none.is_empty());
    }

    #[test]
    fn date_outside_window_yields_nothing() {
        let (c, o, l) = data();
        let early = Q3Params {
            date: Date::from_ymd(1990, 1, 1).unwrap(),
            ..Q3Params::default()
        };
        assert!(q3_reference(&c, &o, &l, &early, 10).is_empty());
    }
}
