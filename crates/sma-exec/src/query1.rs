//! End-to-end TPC-D Query 1 execution — the paper's headline experiment.
//!
//! [`run_query1`] plans and runs Query 1 over any LINEITEM-shaped table,
//! with or without the Fig. 4 SMA set, and reports the answer rows plus
//! the I/O and timing observations the paper's §2.4 table records.

use std::time::Duration;

use sma_core::{col, dec_lit, BucketPred, CmpOp, SmaSet};
use sma_storage::{IoStats, Table};
use sma_types::{Date, Tuple, Value};

use crate::degrade::DegradationReport;
use crate::gaggr::AggSpec;
use crate::op::ExecError;
use crate::planner::{plan, AggregateQuery, PlanKind, PlannerConfig};

/// Configuration of a Query 1 run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query1Config {
    /// `delta` in `DATE '1998-12-01' - INTERVAL delta DAY` (TPC-D draws it
    /// from `[60, 120]`; 90 is the validation value).
    pub delta: i32,
    /// Drop the buffer pool first (the paper's *cold* runs).
    pub cold: bool,
    /// Planner settings.
    pub planner: PlannerConfig,
}

impl Default for Query1Config {
    fn default() -> Query1Config {
        Query1Config {
            delta: 90,
            cold: false,
            planner: PlannerConfig::default(),
        }
    }
}

/// The outcome of a Query 1 run.
#[derive(Debug)]
pub struct Q1Execution {
    /// Output rows: `RETURNFLAG, LINESTATUS, SUM_QTY, SUM_BASE_PRICE,
    /// SUM_DISC_PRICE, SUM_CHARGE, AVG_QTY, AVG_PRICE, AVG_DISC,
    /// COUNT_ORDER`, ordered by the two flags.
    pub rows: Vec<Tuple>,
    /// Which plan ran.
    pub plan_kind: PlanKind,
    /// Buffer-pool traffic during execution.
    pub io: IoStats,
    /// Wall-clock execution time (excludes planning).
    pub elapsed: Duration,
    /// Deterministic modeled I/O cost of the observed traffic, in ms.
    pub modeled_cost_ms: f64,
    /// What the resilience layer gave up (empty on a healthy run).
    pub degradation: DegradationReport,
}

/// Builds Query 1's algebraic form over `table`'s schema.
///
/// The expressions are constructed *identically* to
/// [`SmaSet::query1_definitions`] so that structural matching
/// (`find_aggregate`) connects query aggregates to their SMAs.
pub fn query1_query(table: &Table, cutoff: Date) -> Result<AggregateQuery, ExecError> {
    let schema = table.schema();
    let need = |name: &str| -> Result<usize, ExecError> {
        schema
            .index_of(name)
            .ok_or_else(|| ExecError::Plan(format!("missing column {name}")))
    };
    let shipdate = need("L_SHIPDATE")?;
    let retflag = need("L_RETURNFLAG")?;
    let linestat = need("L_LINESTATUS")?;
    let qty = need("L_QUANTITY")?;
    let ext = need("L_EXTENDEDPRICE")?;
    let dis = need("L_DISCOUNT")?;
    let tax = need("L_TAX")?;
    let one_minus_dis = dec_lit("1.00").sub(col(dis));
    let one_plus_tax = dec_lit("1.00").add(col(tax));
    Ok(AggregateQuery {
        pred: BucketPred::cmp(shipdate, CmpOp::Le, Value::Date(cutoff)),
        group_by: vec![retflag, linestat],
        specs: vec![
            AggSpec::Sum(col(qty)),
            AggSpec::Sum(col(ext)),
            AggSpec::Sum(col(ext).mul(one_minus_dis.clone())),
            AggSpec::Sum(col(ext).mul(one_minus_dis).mul(one_plus_tax)),
            AggSpec::Avg(col(qty)),
            AggSpec::Avg(col(ext)),
            AggSpec::Avg(col(dis)),
            AggSpec::CountStar,
        ],
    })
}

/// The Query 1 ship-date cutoff for `delta`.
#[expect(
    clippy::expect_used,
    reason = "compile-time constant date; cannot fail"
)]
pub fn cutoff(delta: i32) -> Date {
    Date::from_ymd(1998, 12, 1)
        .expect("valid constant")
        .add_days(-delta)
}

/// Plans and runs Query 1 over `table`; pass `smas` to allow SMA plans.
pub fn run_query1(
    table: &Table,
    smas: Option<&SmaSet>,
    config: &Query1Config,
) -> Result<Q1Execution, ExecError> {
    let query = query1_query(table, cutoff(config.delta))?;
    let chosen = plan(table, query, smas, &config.planner);
    if config.cold {
        table.make_cold()?;
    }
    table.reset_io_stats();
    let started = sma_storage::Stopwatch::start();
    let (rows, degradation) = chosen.execute_with_report()?;
    let elapsed = started.elapsed();
    let io = table.io_stats();
    Ok(Q1Execution {
        rows,
        plan_kind: chosen.kind,
        io,
        elapsed,
        modeled_cost_ms: config.planner.cost_model.cost_ms(&io),
        degradation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_tpcd::{
        generate_lineitem_table, q1_cutoff, q1_reference_table, Clustering, GenConfig, Q1Row,
    };

    fn to_q1_rows(rows: &[Tuple]) -> Vec<Q1Row> {
        rows.iter()
            .map(|r| Q1Row {
                returnflag: r[0].as_char().unwrap(),
                linestatus: r[1].as_char().unwrap(),
                sum_qty: r[2].as_decimal().unwrap(),
                sum_base_price: r[3].as_decimal().unwrap(),
                sum_disc_price: r[4].as_decimal().unwrap(),
                sum_charge: r[5].as_decimal().unwrap(),
                avg_qty: r[6].as_decimal().unwrap(),
                avg_price: r[7].as_decimal().unwrap(),
                avg_disc: r[8].as_decimal().unwrap(),
                count_order: r[9].as_int().unwrap(),
            })
            .collect()
    }

    #[test]
    fn sma_plan_matches_reference_oracle() {
        for clustering in [
            Clustering::SortedByShipdate,
            Clustering::diagonal_default(),
            Clustering::Shuffled,
        ] {
            let table = generate_lineitem_table(&GenConfig::tiny(clustering));
            let smas = SmaSet::build_query1_set(&table).unwrap();
            let with = run_query1(&table, Some(&smas), &Query1Config::default()).unwrap();
            let without = run_query1(&table, None, &Query1Config::default()).unwrap();
            let oracle = q1_reference_table(&table, q1_cutoff(90)).unwrap();
            assert_eq!(to_q1_rows(&with.rows), oracle, "{clustering:?}");
            assert_eq!(to_q1_rows(&without.rows), oracle, "{clustering:?}");
            assert_eq!(without.plan_kind, PlanKind::FullScan);
        }
    }

    #[test]
    fn sorted_table_picks_sma_gaggr_and_reads_little() {
        let table = generate_lineitem_table(&GenConfig::tiny(Clustering::SortedByShipdate));
        let smas = SmaSet::build_query1_set(&table).unwrap();
        let run = run_query1(&table, Some(&smas), &Query1Config::default()).unwrap();
        assert_eq!(run.plan_kind, PlanKind::SmaGAggr);
        // ~96 % of tuples qualify but almost no pages are read: only the
        // ambivalent boundary bucket.
        let pages = table.page_count() as u64;
        assert!(
            run.io.logical_reads <= pages / 10,
            "read {} of {pages} pages",
            run.io.logical_reads
        );
    }

    #[test]
    fn shuffled_table_falls_back_to_full_scan() {
        let table = generate_lineitem_table(&GenConfig::tiny(Clustering::Shuffled));
        let smas = SmaSet::build_query1_set(&table).unwrap();
        let run = run_query1(&table, Some(&smas), &Query1Config::default()).unwrap();
        assert_eq!(run.plan_kind, PlanKind::FullScan);
    }

    #[test]
    fn cold_runs_hit_the_store() {
        let table = generate_lineitem_table(&GenConfig::tiny(Clustering::SortedByShipdate));
        let cold = run_query1(
            &table,
            None,
            &Query1Config {
                cold: true,
                ..Query1Config::default()
            },
        )
        .unwrap();
        assert_eq!(cold.io.physical_reads, table.page_count() as u64);
        let warm = run_query1(&table, None, &Query1Config::default()).unwrap();
        assert_eq!(warm.io.physical_reads, 0);
        assert!(cold.modeled_cost_ms > warm.modeled_cost_ms);
    }

    #[test]
    fn delta_changes_cutoff() {
        assert_eq!(cutoff(90).to_string(), "1998-09-02");
        assert_eq!(cutoff(60).to_string(), "1998-10-02");
        let table = generate_lineitem_table(&GenConfig::tiny(Clustering::Uniform));
        let a = run_query1(
            &table,
            None,
            &Query1Config {
                delta: 60,
                ..Query1Config::default()
            },
        )
        .unwrap();
        let b = run_query1(
            &table,
            None,
            &Query1Config {
                delta: 120,
                ..Query1Config::default()
            },
        )
        .unwrap();
        let count = |rows: &[Tuple]| -> i64 { rows.iter().map(|r| r[9].as_int().unwrap()).sum() };
        assert!(count(&a.rows) > count(&b.rows), "smaller delta keeps more");
    }
}
