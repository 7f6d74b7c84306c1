//! End-to-end TPC-D Query 6 execution — the conjunctive-predicate showcase.
//!
//! Query 6 restricts three attributes at once (`L_SHIPDATE` range,
//! `L_DISCOUNT` band, `L_QUANTITY` bound), exactly the `and`-combination
//! case of §3.1. With min/max SMAs on all three columns, time-clustered
//! data lets the ship-date atoms disqualify most buckets outright, and the
//! other atoms can only *add* disqualification evidence.

use sma_core::{col, AggFn, BucketPred, CmpOp, SmaDefinition, SmaSet};
use sma_storage::{IoStats, Table};
use sma_types::{Decimal, Value};

use crate::degrade::DegradationReport;
use crate::gaggr::AggSpec;
use crate::op::ExecError;
use crate::planner::{plan, AggregateQuery, PlanKind, PlannerConfig};

/// Re-export of the workload parameters (defined next to the oracle).
pub use sma_tpcd_params::Q6Params;

/// Tiny shim module so this crate does not depend on `sma-tpcd` at build
/// time: the parameter struct is duplicated here with identical semantics
/// and converted freely in tests.
mod sma_tpcd_params {
    use sma_types::{Date, Decimal};

    /// Query 6 substitution parameters (see `sma_tpcd::Q6Params`).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Q6Params {
        /// First ship date included.
        pub date: Date,
        /// Central discount; the band is ±0.01.
        pub discount: Decimal,
        /// Exclusive quantity bound.
        pub quantity: i64,
    }

    impl Default for Q6Params {
        fn default() -> Q6Params {
            Q6Params {
                #[expect(
                    clippy::expect_used,
                    reason = "compile-time constant date; cannot fail"
                )]
                date: Date::from_ymd(1994, 1, 1).expect("valid constant"),
                #[expect(
                    clippy::expect_used,
                    reason = "compile-time constant decimal; cannot fail"
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
    }
}

/// The SMA definitions that serve Query 6: min/max on each restricted
/// column plus the ungrouped revenue sum and count.
pub fn query6_sma_definitions(table: &Table) -> Result<Vec<SmaDefinition>, ExecError> {
    let schema = table.schema();
    let need = |name: &str| -> Result<usize, ExecError> {
        schema
            .index_of(name)
            .ok_or_else(|| ExecError::Plan(format!("missing column {name}")))
    };
    let ship = need("L_SHIPDATE")?;
    let disc = need("L_DISCOUNT")?;
    let qty = need("L_QUANTITY")?;
    let ext = need("L_EXTENDEDPRICE")?;
    Ok(vec![
        SmaDefinition::new("q6_min_ship", AggFn::Min, col(ship)),
        SmaDefinition::new("q6_max_ship", AggFn::Max, col(ship)),
        SmaDefinition::new("q6_min_disc", AggFn::Min, col(disc)),
        SmaDefinition::new("q6_max_disc", AggFn::Max, col(disc)),
        SmaDefinition::new("q6_min_qty", AggFn::Min, col(qty)),
        SmaDefinition::new("q6_max_qty", AggFn::Max, col(qty)),
        SmaDefinition::new("q6_revenue", AggFn::Sum, col(ext).mul(col(disc))),
        SmaDefinition::count("q6_count"),
    ])
}

/// Builds Query 6's algebraic form over `table`'s schema.
pub fn query6_query(table: &Table, p: &Q6Params) -> Result<AggregateQuery, ExecError> {
    let schema = table.schema();
    let need = |name: &str| -> Result<usize, ExecError> {
        schema
            .index_of(name)
            .ok_or_else(|| ExecError::Plan(format!("missing column {name}")))
    };
    let ship = need("L_SHIPDATE")?;
    let disc = need("L_DISCOUNT")?;
    let qty = need("L_QUANTITY")?;
    let ext = need("L_EXTENDEDPRICE")?;
    let lo = p.discount - Decimal::from_cents(1);
    let hi = p.discount + Decimal::from_cents(1);
    Ok(AggregateQuery {
        pred: BucketPred::And(vec![
            BucketPred::cmp(ship, CmpOp::Ge, Value::Date(p.date)),
            BucketPred::cmp(ship, CmpOp::Lt, Value::Date(p.date_hi())),
            BucketPred::cmp(disc, CmpOp::Ge, Value::Decimal(lo)),
            BucketPred::cmp(disc, CmpOp::Le, Value::Decimal(hi)),
            BucketPred::cmp(
                qty,
                CmpOp::Lt,
                Value::Decimal(Decimal::from_int(p.quantity)),
            ),
        ]),
        group_by: vec![],
        specs: vec![AggSpec::Sum(col(ext).mul(col(disc)))],
    })
}

/// The outcome of a Query 6 run.
#[derive(Debug)]
pub struct Q6Execution {
    /// `SUM(L_EXTENDEDPRICE * L_DISCOUNT)`; zero when nothing qualifies.
    pub revenue: Decimal,
    /// Which plan ran.
    pub plan_kind: PlanKind,
    /// Buffer-pool traffic during execution.
    pub io: IoStats,
    /// Wall-clock execution time (excludes planning).
    pub elapsed: std::time::Duration,
    /// What the resilience layer gave up (empty on a healthy run).
    pub degradation: DegradationReport,
}

/// Plans and runs Query 6 over `table`; pass `smas` to allow SMA plans.
pub fn run_query6(
    table: &Table,
    smas: Option<&SmaSet>,
    p: &Q6Params,
    planner: &PlannerConfig,
) -> Result<Q6Execution, ExecError> {
    let query = query6_query(table, p)?;
    let chosen = plan(table, query, smas, planner);
    table.reset_io_stats();
    let started = sma_storage::Stopwatch::start();
    let (rows, degradation) = chosen.execute_with_report()?;
    let elapsed = started.elapsed();
    let revenue = match rows.first() {
        Some(row) => row[0].as_decimal().unwrap_or(Decimal::ZERO),
        None => Decimal::ZERO,
    };
    Ok(Q6Execution {
        revenue,
        plan_kind: chosen.kind,
        io: table.io_stats(),
        elapsed,
        degradation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_tpcd::{generate_lineitem_table, q6_reference_table, Clustering, GenConfig};

    fn tpcd_params(p: &Q6Params) -> sma_tpcd::Q6Params {
        sma_tpcd::Q6Params {
            date: p.date,
            discount: p.discount,
            quantity: p.quantity,
        }
    }

    #[test]
    fn matches_oracle_across_clusterings() {
        for clustering in [
            Clustering::SortedByShipdate,
            Clustering::diagonal_default(),
            Clustering::Shuffled,
        ] {
            let table = generate_lineitem_table(&GenConfig::tiny(clustering));
            let smas = SmaSet::build(&table, query6_sma_definitions(&table).unwrap()).unwrap();
            let p = Q6Params::default();
            let with = run_query6(&table, Some(&smas), &p, &PlannerConfig::default()).unwrap();
            let without = run_query6(&table, None, &p, &PlannerConfig::default()).unwrap();
            let oracle = q6_reference_table(&table, &tpcd_params(&p)).unwrap();
            assert_eq!(with.revenue, oracle, "{clustering:?}");
            assert_eq!(without.revenue, oracle, "{clustering:?}");
        }
    }

    #[test]
    fn sorted_data_skips_most_buckets() {
        let cfg = GenConfig {
            orders: 2000,
            ..GenConfig::tiny(Clustering::SortedByShipdate)
        };
        let table = generate_lineitem_table(&cfg);
        let smas = SmaSet::build(&table, query6_sma_definitions(&table).unwrap()).unwrap();
        let p = Q6Params::default();
        let run = run_query6(&table, Some(&smas), &p, &PlannerConfig::default()).unwrap();
        assert_ne!(run.plan_kind, PlanKind::FullScan);
        // The one-year window is ~1/7 of the data; everything outside it
        // is disqualified by the date atoms alone.
        let pages = table.page_count() as u64;
        assert!(
            run.io.logical_reads < pages / 4,
            "read {} of {pages} pages",
            run.io.logical_reads
        );
    }

    #[test]
    fn a_parameter_outside_the_domain_reads_nothing() {
        let table = generate_lineitem_table(&GenConfig::tiny(Clustering::SortedByShipdate));
        let smas = SmaSet::build(&table, query6_sma_definitions(&table).unwrap()).unwrap();
        let p = Q6Params {
            date: sma_types::Date::from_ymd(2005, 1, 1).unwrap(),
            ..Q6Params::default()
        };
        let run = run_query6(&table, Some(&smas), &p, &PlannerConfig::default()).unwrap();
        assert_eq!(run.revenue, Decimal::ZERO);
        assert_eq!(run.io.logical_reads, 0, "grading disqualifies every bucket");
    }
}
