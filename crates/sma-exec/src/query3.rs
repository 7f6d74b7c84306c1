//! End-to-end TPC-D Query 3 execution (shipping priority).
//!
//! The plan SMA-grades *both* date predicates — `O_ORDERDATE < date` over
//! ORDERS and `L_SHIPDATE > date` over LINEITEM — so on time-clustered
//! data each side reads only a fraction of its buckets, then hash-joins
//! through CUSTOMER's segment filter and finishes with the algebra's
//! `Sort` + `Limit` (`ORDER BY REVENUE DESC, O_ORDERDATE` top 10).

use std::collections::{BTreeMap, BTreeSet};

use sma_core::{dec_lit, BucketPred, CmpOp, SmaSet};
use sma_storage::Table;
use sma_types::{Date, Decimal, Value};

use crate::op::{ExecError, PhysicalOp};
use crate::scan::{ScanCounters, SmaScan};

/// Query 3 substitution parameters (mirrors `sma_tpcd::Q3Params`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q3Params {
    /// The market segment.
    pub segment: String,
    /// The pivot date.
    pub date: Date,
    /// Rows to return (TPC-D: 10).
    pub limit: usize,
}

impl Default for Q3Params {
    fn default() -> Q3Params {
        Q3Params {
            segment: "BUILDING".to_string(),
            #[expect(
                clippy::expect_used,
                reason = "compile-time constant date; cannot fail"
            )]
            date: Date::from_ymd(1995, 3, 15).expect("valid constant"),
            limit: 10,
        }
    }
}

/// One output row: `(L_ORDERKEY, REVENUE, O_ORDERDATE, O_SHIPPRIORITY)`.
pub type Q3OutRow = (i64, Decimal, Date, i64);

/// The outcome of a Query 3 run.
#[derive(Debug)]
pub struct Q3Execution {
    /// Top rows by revenue desc, order date asc.
    pub rows: Vec<Q3OutRow>,
    /// Bucket counters of the ORDERS-side scan.
    pub orders_scan: ScanCounters,
    /// Bucket counters of the LINEITEM-side scan.
    pub lineitem_scan: ScanCounters,
    /// Wall-clock execution time.
    pub elapsed: std::time::Duration,
}

/// Runs Query 3. The SMA sets may be empty (naive full scans). A budget,
/// when given, is checked and charged on every page read across all
/// three relations.
pub fn run_query3(
    customer: &Table,
    orders: &Table,
    lineitem: &Table,
    orders_smas: &SmaSet,
    lineitem_smas: &SmaSet,
    p: &Q3Params,
    budget: Option<&sma_storage::QueryBudget>,
) -> Result<Q3Execution, ExecError> {
    let need = |t: &Table, name: &str| -> Result<usize, ExecError> {
        t.schema()
            .index_of(name)
            .ok_or_else(|| ExecError::Plan(format!("missing column {name}")))
    };
    let c_custkey = need(customer, "C_CUSTKEY")?;
    let c_segment = need(customer, "C_MKTSEGMENT")?;
    let o_orderkey = need(orders, "O_ORDERKEY")?;
    let o_custkey = need(orders, "O_CUSTKEY")?;
    let o_orderdate = need(orders, "O_ORDERDATE")?;
    let o_shippriority = need(orders, "O_SHIPPRIORITY")?;
    let l_orderkey = need(lineitem, "L_ORDERKEY")?;
    let l_shipdate = need(lineitem, "L_SHIPDATE")?;
    let l_extendedprice = need(lineitem, "L_EXTENDEDPRICE")?;
    let l_discount = need(lineitem, "L_DISCOUNT")?;

    let started = sma_storage::Stopwatch::start();

    // Build side 1: segment customers (small relation, plain scan).
    let mut seg_customers: BTreeSet<i64> = BTreeSet::new();
    let mut rows = Vec::new();
    for page in 0..customer.page_count() {
        if let Some(b) = budget {
            b.check()?;
            b.charge(1)?;
        }
        rows.clear();
        customer.scan_page_into(page, &mut rows)?;
        for (_, t) in &rows {
            if t[c_segment].as_str() == Some(p.segment.as_str()) {
                if let Some(k) = t[c_custkey].as_int() {
                    seg_customers.insert(k);
                }
            }
        }
    }

    // Build side 2: open orders via SMA-graded date scan of ORDERS.
    let open_pred = BucketPred::cmp(o_orderdate, CmpOp::Lt, Value::Date(p.date));
    let mut o_scan = SmaScan::new(orders, open_pred, orders_smas);
    if let Some(b) = budget {
        o_scan = o_scan.with_budget(b);
    }
    let mut open_orders: BTreeMap<i64, (Date, i64)> = BTreeMap::new();
    o_scan.open()?;
    while let Some(t) = o_scan.next()? {
        let Some(custkey) = t[o_custkey].as_int() else {
            continue;
        };
        if !seg_customers.contains(&custkey) {
            continue;
        }
        let (Some(key), Some(date), Some(prio)) = (
            t[o_orderkey].as_int(),
            t[o_orderdate].as_date(),
            t[o_shippriority].as_int(),
        ) else {
            continue;
        };
        open_orders.insert(key, (date, prio));
    }
    o_scan.close();
    let orders_counters = o_scan.counters();

    // Probe side: SMA-graded shipdate scan of LINEITEM, accumulate revenue.
    let ship_pred = BucketPred::cmp(l_shipdate, CmpOp::Gt, Value::Date(p.date));
    let mut l_scan = SmaScan::new(lineitem, ship_pred, lineitem_smas);
    if let Some(b) = budget {
        l_scan = l_scan.with_budget(b);
    }
    let mut revenue: BTreeMap<i64, Decimal> = BTreeMap::new();
    l_scan.open()?;
    while let Some(t) = l_scan.next()? {
        let Some(key) = t[l_orderkey].as_int() else {
            continue;
        };
        if !open_orders.contains_key(&key) {
            continue;
        }
        let (Some(ext), Some(disc)) = (t[l_extendedprice].as_decimal(), t[l_discount].as_decimal())
        else {
            continue;
        };
        *revenue.entry(key).or_insert(Decimal::ZERO) += ext.mul_round(Decimal::ONE - disc);
    }
    l_scan.close();
    let lineitem_counters = l_scan.counters();

    // ORDER BY REVENUE DESC, O_ORDERDATE — via the algebra's Sort + Limit
    // over the joined groups.
    let joined: Vec<sma_types::Tuple> = revenue
        .into_iter()
        .map(|(key, rev)| {
            let (date, prio) = open_orders[&key];
            vec![
                Value::Int(key),
                Value::Decimal(rev),
                Value::Date(date),
                Value::Int(prio),
            ]
        })
        .collect();
    let source = MaterializedRows::new(joined);
    let sort = crate::sort::Sort::new(
        Box::new(source),
        vec![
            (1, crate::sort::SortOrder::Desc),
            (2, crate::sort::SortOrder::Asc),
            (0, crate::sort::SortOrder::Asc),
        ],
    );
    let mut limit = crate::sort::Limit::new(Box::new(sort), p.limit);
    let out = crate::op::collect(&mut limit)?;
    let rows = out
        .into_iter()
        .map(|r| {
            match (
                r[0].as_int(),
                r[1].as_decimal(),
                r[2].as_date(),
                r[3].as_int(),
            ) {
                (Some(key), Some(rev), Some(date), Some(prio)) => Ok((key, rev, date, prio)),
                _ => Err(ExecError::Plan(
                    "query 3 output row has unexpected shape".into(),
                )),
            }
        })
        .collect::<Result<Vec<_>, ExecError>>()?;

    Ok(Q3Execution {
        rows,
        orders_scan: orders_counters,
        lineitem_scan: lineitem_counters,
        elapsed: started.elapsed(),
    })
}

/// The standard SMA definitions for Query 3's two date predicates plus
/// the revenue expression (for future aggregate use).
pub fn query3_sma_definitions(
    orders: &Table,
    lineitem: &Table,
) -> Result<(Vec<sma_core::SmaDefinition>, Vec<sma_core::SmaDefinition>), ExecError> {
    use sma_core::{col, AggFn, SmaDefinition};
    let need = |t: &Table, name: &str| -> Result<usize, ExecError> {
        t.schema()
            .index_of(name)
            .ok_or_else(|| ExecError::Plan(format!("missing column {name}")))
    };
    let o_orderdate = need(orders, "O_ORDERDATE")?;
    let l_shipdate = need(lineitem, "L_SHIPDATE")?;
    let l_ext = need(lineitem, "L_EXTENDEDPRICE")?;
    let l_disc = need(lineitem, "L_DISCOUNT")?;
    Ok((
        vec![
            SmaDefinition::new("q3_min_od", AggFn::Min, col(o_orderdate)),
            SmaDefinition::new("q3_max_od", AggFn::Max, col(o_orderdate)),
        ],
        vec![
            SmaDefinition::new("q3_min_sd", AggFn::Min, col(l_shipdate)),
            SmaDefinition::new("q3_max_sd", AggFn::Max, col(l_shipdate)),
            SmaDefinition::new(
                "q3_rev",
                AggFn::Sum,
                col(l_ext).mul(dec_lit("1.00").sub(col(l_disc))),
            ),
        ],
    ))
}

/// A leaf operator over pre-materialized rows (used to feed Sort/Limit).
struct MaterializedRows {
    rows: Vec<sma_types::Tuple>,
    pos: usize,
}

impl MaterializedRows {
    fn new(rows: Vec<sma_types::Tuple>) -> MaterializedRows {
        MaterializedRows { rows, pos: 0 }
    }
}

impl PhysicalOp for MaterializedRows {
    fn open(&mut self) -> Result<(), ExecError> {
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<sma_types::Tuple>, ExecError> {
        if self.pos < self.rows.len() {
            let t = self.rows[self.pos].clone();
            self.pos += 1;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    fn close(&mut self) {}

    fn describe(&self) -> String {
        format!("Materialized({} rows)", self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_storage::MemStore;
    use sma_tpcd::{
        generate, generate_customers, load_customers, load_lineitem, load_orders, q3_reference,
        Clustering, GenConfig,
    };

    struct Setup {
        customer: Table,
        orders: Table,
        lineitem: Table,
        orders_smas: SmaSet,
        lineitem_smas: SmaSet,
        raw: (
            Vec<sma_tpcd::Customer>,
            Vec<sma_tpcd::Order>,
            Vec<sma_tpcd::LineItem>,
        ),
    }

    fn setup(clustering: Clustering) -> Setup {
        let cfg = GenConfig {
            orders: 1500,
            ..GenConfig::tiny(clustering)
        };
        let (mut orders_rows, items) = generate(&cfg);
        orders_rows.sort_by_key(|o| o.orderdate); // TOC clustering
        let customers = generate_customers(cfg.orders / 10, cfg.seed);
        let customer = load_customers(&customers, 1, 1 << 14);
        let orders = load_orders(&orders_rows, 1, 1 << 14);
        let lineitem = load_lineitem(&items, Box::new(MemStore::new()), 1, 1 << 14);
        let (o_defs, l_defs) = query3_sma_definitions(&orders, &lineitem).unwrap();
        let orders_smas = SmaSet::build(&orders, o_defs).unwrap();
        let lineitem_smas = SmaSet::build(&lineitem, l_defs).unwrap();
        Setup {
            customer,
            orders,
            lineitem,
            orders_smas,
            lineitem_smas,
            raw: (customers, orders_rows, items),
        }
    }

    #[test]
    fn matches_the_oracle() {
        let s = setup(Clustering::SortedByShipdate);
        let p = Q3Params::default();
        let run = run_query3(
            &s.customer,
            &s.orders,
            &s.lineitem,
            &s.orders_smas,
            &s.lineitem_smas,
            &p,
            None,
        )
        .unwrap();
        let oracle = q3_reference(
            &s.raw.0,
            &s.raw.1,
            &s.raw.2,
            &sma_tpcd::Q3Params {
                segment: p.segment.clone(),
                date: p.date,
            },
            p.limit,
        );
        assert_eq!(run.rows.len(), oracle.len());
        for (got, want) in run.rows.iter().zip(&oracle) {
            assert_eq!(got.0, want.orderkey);
            assert_eq!(got.1, want.revenue);
            assert_eq!(got.2, want.orderdate);
            assert_eq!(got.3, want.shippriority);
        }
    }

    #[test]
    fn both_scans_skip_buckets_on_clustered_data() {
        let s = setup(Clustering::SortedByShipdate);
        let run = run_query3(
            &s.customer,
            &s.orders,
            &s.lineitem,
            &s.orders_smas,
            &s.lineitem_smas,
            &Q3Params::default(),
            None,
        )
        .unwrap();
        // O_ORDERDATE < 1995-03-15: roughly half of a 1992–1998 window —
        // the later half of ORDERS disqualifies.
        assert!(
            run.orders_scan.disqualified > 0,
            "orders: {:?}",
            run.orders_scan
        );
        // L_SHIPDATE > 1995-03-15: the earlier half of LINEITEM skips.
        assert!(
            run.lineitem_scan.disqualified > 0,
            "lineitem: {:?}",
            run.lineitem_scan
        );
        // And qualifying buckets dominate what's left (predicates are
        // one-sided ranges on sorted data).
        assert!(run.orders_scan.ambivalent <= 2);
        assert!(run.lineitem_scan.ambivalent <= 2);
    }

    #[test]
    fn naive_and_sma_plans_agree() {
        let s = setup(Clustering::Shuffled);
        let empty = SmaSet::new();
        let p = Q3Params::default();
        let fast = run_query3(
            &s.customer,
            &s.orders,
            &s.lineitem,
            &s.orders_smas,
            &s.lineitem_smas,
            &p,
            None,
        )
        .unwrap();
        let slow = run_query3(
            &s.customer,
            &s.orders,
            &s.lineitem,
            &empty,
            &empty,
            &p,
            None,
        )
        .unwrap();
        assert_eq!(fast.rows, slow.rows);
    }

    #[test]
    fn budget_cap_aborts_the_query() {
        let s = setup(Clustering::Uniform);
        let budget = sma_storage::QueryBudget::unbounded().with_page_cap(0);
        let err = run_query3(
            &s.customer,
            &s.orders,
            &s.lineitem,
            &s.orders_smas,
            &s.lineitem_smas,
            &Q3Params::default(),
            Some(&budget),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Budget(_)), "got {err:?}");
    }

    #[test]
    fn limit_is_respected() {
        let s = setup(Clustering::Uniform);
        let p = Q3Params {
            limit: 3,
            ..Q3Params::default()
        };
        let run = run_query3(
            &s.customer,
            &s.orders,
            &s.lineitem,
            &s.orders_smas,
            &s.lineitem_smas,
            &p,
            None,
        )
        .unwrap();
        assert!(run.rows.len() <= 3);
    }
}
