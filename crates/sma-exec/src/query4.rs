//! End-to-end TPC-D Query 4 execution — every SMA technique at once.
//!
//! The plan exploits three distinct SMA opportunities:
//!
//! 1. **Inner selection with the `A < B` rule (§3.1)**: LINEITEM is
//!    scanned with `SmaScan` under `L_COMMITDATE < L_RECEIPTDATE`; min/max
//!    SMAs on both date columns let whole buckets resolve (in TPC-D data
//!    most buckets are ambivalent for this predicate, but the machinery is
//!    exact and sound — and receives real skips when commit dates are
//!    systematically late or early).
//! 2. **Range grading on ORDERS**: `O_ORDERDATE` min/max SMAs disqualify
//!    every bucket outside the three-month window before any I/O.
//! 3. **Existential semi-join**: surviving ORDERS tuples are checked for a
//!    late line item via a hash set built from the (already SMA-filtered)
//!    LINEITEM side.

use std::collections::{BTreeMap, BTreeSet};

use sma_core::{BucketPred, CmpOp, Grade, SmaSet};
use sma_storage::{IoStats, Table};
use sma_types::Value;

use crate::op::{ExecError, PhysicalOp};
use crate::scan::{ScanCounters, SmaScan};

pub use sma_tpcd_params::Q4Params;

/// Parameter struct mirrored from `sma_tpcd::Q4Params` (this crate does
/// not depend on the generator at build time).
mod sma_tpcd_params {
    use sma_types::Date;

    /// Query 4 substitution parameters (see `sma_tpcd::Q4Params`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Q4Params {
        /// First order date included.
        pub date: Date,
    }

    impl Default for Q4Params {
        fn default() -> Q4Params {
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
}

/// The outcome of a Query 4 run.
#[derive(Debug)]
pub struct Q4Execution {
    /// `(O_ORDERPRIORITY, COUNT(*))`, ordered by priority.
    pub rows: Vec<(String, i64)>,
    /// Bucket counters from the LINEITEM-side `SmaScan`.
    pub lineitem_scan: ScanCounters,
    /// Buckets of ORDERS skipped / read.
    pub orders_scan: ScanCounters,
    /// Combined buffer-pool traffic (both tables).
    pub io: IoStats,
    /// Wall-clock execution time.
    pub elapsed: std::time::Duration,
}

/// Runs Query 4. `lineitem_smas` should hold min/max SMAs on
/// `L_COMMITDATE`/`L_RECEIPTDATE`; `orders_smas` min/max on `O_ORDERDATE`.
/// Pass empty sets to run the naive plan — the operators degrade to full
/// scans (every bucket ambivalent). A budget, when given, is checked and
/// charged on every page read on both tables.
pub fn run_query4(
    orders: &Table,
    lineitem: &Table,
    orders_smas: &SmaSet,
    lineitem_smas: &SmaSet,
    p: &Q4Params,
    budget: Option<&sma_storage::QueryBudget>,
) -> Result<Q4Execution, ExecError> {
    let o_schema = orders.schema();
    let l_schema = lineitem.schema();
    let need = |schema: &sma_types::Schema, name: &str| -> Result<usize, ExecError> {
        schema
            .index_of(name)
            .ok_or_else(|| ExecError::Plan(format!("missing column {name}")))
    };
    let o_orderdate = need(o_schema, "O_ORDERDATE")?;
    let o_orderkey = need(o_schema, "O_ORDERKEY")?;
    let o_priority = need(o_schema, "O_ORDERPRIORITY")?;
    let l_orderkey = need(l_schema, "L_ORDERKEY")?;
    let l_commit = need(l_schema, "L_COMMITDATE")?;
    let l_receipt = need(l_schema, "L_RECEIPTDATE")?;

    orders.reset_io_stats();
    lineitem.reset_io_stats();
    let started = sma_storage::Stopwatch::start();

    // Phase 1: late order keys from LINEITEM via SmaScan under
    // L_COMMITDATE < L_RECEIPTDATE (the §3.1 A < B rule).
    let late_pred = BucketPred::col_cmp(l_commit, CmpOp::Lt, l_receipt);
    let mut l_scan = SmaScan::new(lineitem, late_pred, lineitem_smas);
    if let Some(b) = budget {
        l_scan = l_scan.with_budget(b);
    }
    let mut late: BTreeSet<i64> = BTreeSet::new();
    l_scan.open()?;
    while let Some(t) = l_scan.next()? {
        if let Some(k) = t[l_orderkey].as_int() {
            late.insert(k);
        }
    }
    l_scan.close();
    let lineitem_scan = l_scan.counters();

    // Phase 2: graded scan of ORDERS in the date window, semi-join against
    // the late set, grouped count by priority.
    let window = BucketPred::And(vec![
        BucketPred::cmp(o_orderdate, CmpOp::Ge, Value::Date(p.date)),
        BucketPred::cmp(o_orderdate, CmpOp::Lt, Value::Date(p.date_hi())),
    ]);
    let mut groups: BTreeMap<String, i64> = BTreeMap::new();
    let mut orders_counters = ScanCounters::default();
    for b in 0..orders.bucket_count() {
        let grade = window.grade(b, orders_smas);
        match grade {
            Grade::Disqualifies => {
                orders_counters.disqualified += 1;
                continue;
            }
            Grade::Qualifies => orders_counters.qualified += 1,
            Grade::Ambivalent => orders_counters.ambivalent += 1,
        }
        if let Some(bg) = budget {
            bg.check()?;
            bg.charge(orders.bucket_range(b).len() as u64)?;
        }
        for (_, t) in orders.scan_bucket(b)? {
            if grade != Grade::Qualifies && !window.eval_tuple(&t) {
                continue;
            }
            let Some(key) = t[o_orderkey].as_int() else {
                continue;
            };
            if !late.contains(&key) {
                continue;
            }
            let priority = t[o_priority].as_str().unwrap_or("").to_string();
            *groups.entry(priority).or_default() += 1;
        }
    }

    let elapsed = started.elapsed();
    let mut io = orders.io_stats();
    let l_io = lineitem.io_stats();
    io.logical_reads += l_io.logical_reads;
    io.physical_reads += l_io.physical_reads;
    io.sequential_reads += l_io.sequential_reads;
    io.random_reads += l_io.random_reads;
    io.physical_writes += l_io.physical_writes;
    Ok(Q4Execution {
        rows: groups.into_iter().collect(),
        lineitem_scan,
        orders_scan: orders_counters,
        io,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_core::{col, AggFn, SmaDefinition};
    use sma_storage::MemStore;
    use sma_tpcd::{
        generate, load_lineitem, load_orders, q4_reference, schema::lineitem as li,
        schema::orders as o, Clustering, GenConfig,
    };

    fn setup(
        clustering: Clustering,
    ) -> (
        Table,
        Table,
        SmaSet,
        SmaSet,
        Vec<sma_tpcd::Order>,
        Vec<sma_tpcd::LineItem>,
    ) {
        let cfg = GenConfig {
            orders: 1200,
            ..GenConfig::tiny(clustering)
        };
        let (mut orders, items) = generate(&cfg);
        // Orders arrive in date order in a TOC-clustered warehouse.
        orders.sort_by_key(|ord| ord.orderdate);
        let orders_table = load_orders(&orders, 1, 1 << 14);
        let lineitem_table = load_lineitem(&items, Box::new(MemStore::new()), 1, 1 << 14);
        let orders_smas = SmaSet::build(
            &orders_table,
            vec![
                SmaDefinition::new("min_od", AggFn::Min, col(o::ORDERDATE)),
                SmaDefinition::new("max_od", AggFn::Max, col(o::ORDERDATE)),
            ],
        )
        .unwrap();
        let lineitem_smas = SmaSet::build(
            &lineitem_table,
            vec![
                SmaDefinition::new("min_cd", AggFn::Min, col(li::COMMITDATE)),
                SmaDefinition::new("max_cd", AggFn::Max, col(li::COMMITDATE)),
                SmaDefinition::new("min_rd", AggFn::Min, col(li::RECEIPTDATE)),
                SmaDefinition::new("max_rd", AggFn::Max, col(li::RECEIPTDATE)),
            ],
        )
        .unwrap();
        (
            orders_table,
            lineitem_table,
            orders_smas,
            lineitem_smas,
            orders,
            items,
        )
    }

    #[test]
    fn matches_the_oracle() {
        let (ot, lt, osmas, lsmas, orders, items) = setup(Clustering::SortedByShipdate);
        let p = Q4Params::default();
        let run = run_query4(&ot, &lt, &osmas, &lsmas, &p, None).unwrap();
        let oracle = q4_reference(&orders, &items, &sma_tpcd::Q4Params { date: p.date });
        let got: Vec<(String, i64)> = run.rows.clone();
        let want: Vec<(String, i64)> = oracle
            .into_iter()
            .map(|r| (r.orderpriority, r.order_count))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn orders_window_skips_buckets() {
        let (ot, lt, osmas, lsmas, _, _) = setup(Clustering::SortedByShipdate);
        let run = run_query4(&ot, &lt, &osmas, &lsmas, &Q4Params::default(), None).unwrap();
        let c = run.orders_scan;
        // A 3-month window over a 6.5-year ordered file: ~96 % skipped.
        assert!(
            c.disqualified as f64 > 0.8 * c.total() as f64,
            "orders scan counters {c:?}"
        );
    }

    #[test]
    fn empty_smas_degrade_to_full_scans_with_same_answer() {
        let (ot, lt, osmas, lsmas, _, _) = setup(Clustering::Uniform);
        let p = Q4Params::default();
        let fast = run_query4(&ot, &lt, &osmas, &lsmas, &p, None).unwrap();
        let empty = SmaSet::new();
        let slow = run_query4(&ot, &lt, &empty, &empty, &p, None).unwrap();
        assert_eq!(fast.rows, slow.rows);
        assert_eq!(slow.orders_scan.disqualified, 0);
        assert!(fast.io.logical_reads <= slow.io.logical_reads);
    }

    #[test]
    fn budget_cap_aborts_the_query() {
        let (ot, lt, osmas, lsmas, _, _) = setup(Clustering::Uniform);
        let budget = sma_storage::QueryBudget::unbounded().with_page_cap(0);
        let err = run_query4(
            &ot,
            &lt,
            &osmas,
            &lsmas,
            &Q4Params::default(),
            Some(&budget),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Budget(_)), "got {err:?}");
    }

    #[test]
    fn window_outside_domain_reads_no_orders() {
        let (ot, lt, osmas, lsmas, _, _) = setup(Clustering::SortedByShipdate);
        let p = Q4Params {
            date: sma_types::Date::from_ymd(2005, 1, 1).unwrap(),
        };
        let run = run_query4(&ot, &lt, &osmas, &lsmas, &p, None).unwrap();
        assert!(run.rows.is_empty());
        assert_eq!(run.orders_scan.disqualified, ot.bucket_count() as u64);
    }
}
