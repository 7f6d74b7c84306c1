//! Plan selection for aggregate queries in the presence of SMAs.
//!
//! §2.4 / Fig. 5: the SMA plan beats the full scan until roughly 25 % of
//! the buckets are ambivalent; past the breakeven the full scan wins
//! (though the SMA plan's overhead stays under 2 %). The planner estimates
//! the ambivalent fraction *from the SMAs themselves* — grading is a pure
//! in-memory pass over SMA entries, so the estimate is exact and costs no
//! data I/O — then prices each candidate plan with the storage cost model
//! (sequential vs. random page reads) and picks the cheapest:
//!
//! 1. `SmaGAggr` — reads the SMA files plus only ambivalent buckets;
//! 2. `SmaScan`, its tuples folded into the group states — reads min/max
//!    SMAs plus qualifying and ambivalent buckets;
//! 3. the full scan, `SmaGAggr`'s bucket loop with every bucket
//!    ambivalent — reads everything, perfectly sequentially.
//!
//! Each candidate's reads are counted as whole (random, sequential) page
//! numbers and priced by one [`CostModel::cost_ms`] call, so two plans
//! that read the same pages cost exactly the same; a tie keeps the plan
//! that spends less CPU per page (the full scan, then `SmaGAggr`).
//!
//! The classification that priced the plans is kept in the [`Plan`], and
//! `SmaGAggr` executes on it: a query grades its buckets once. Every plan
//! yields unfinished group states; the memtable overlay folds into them as
//! one more bucket, and one finish turns them into rows.

use sma_core::{BucketPred, Classification, Grade, SmaSet, LEVEL2_FANOUT};
use sma_storage::{CostModel, IoStats, MemRow, QueryBudget, Table};
use sma_types::{Tuple, Value};

use crate::degrade::DegradationReport;
use crate::gaggr::{AggSpec, GroupState};
use crate::op::{ExecError, PhysicalOp};
use crate::parallel::Parallelism;
use crate::scan::SmaScan;
use crate::sma_gaggr::{finish_groups, Groups, SmaGAggr};

/// An aggregate query: `select <group_by>, <specs> from R where <pred>
/// group by <group_by>` (output sorted by the group key).
#[derive(Debug, Clone)]
pub struct AggregateQuery {
    /// Selection predicate.
    pub pred: BucketPred,
    /// Grouping columns.
    pub group_by: Vec<usize>,
    /// Aggregates to compute.
    pub specs: Vec<AggSpec>,
}

/// Planner tunables.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlannerConfig {
    /// The I/O price list used to compare candidate plans.
    pub cost_model: CostModel,
}

/// Which physical strategy the planner chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// `SmaGAggr`: aggregate + selection SMAs.
    SmaGAggr,
    /// `SmaScan`, its tuples folded into the group states: selection SMAs
    /// only.
    SmaScanGAggr,
    /// Plain sequential scan + filter + aggregation: `SmaGAggr`'s bucket
    /// loop with every bucket ambivalent.
    FullScan,
}

/// Planner cost estimate, derived from grading the SMA entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Buckets in the relation.
    pub n_buckets: u32,
    /// Fraction of buckets a SMA plan must read and filter.
    pub ambivalent_fraction: f64,
    /// Fraction of buckets a SMA plan skips entirely.
    pub skipped_fraction: f64,
    /// Modeled cost of the full sequential scan, in ms.
    pub full_scan_cost_ms: f64,
    /// Modeled cost of `SmaGAggr` (`None` when aggregate SMAs are missing).
    pub sma_gaggr_cost_ms: Option<f64>,
    /// Modeled cost of `SmaScan` + aggregation.
    pub sma_scan_cost_ms: f64,
}

/// A chosen plan, ready to execute.
pub struct Plan<'a> {
    table: &'a Table,
    smas: Option<&'a SmaSet>,
    query: AggregateQuery,
    /// Unsealed tuples (a streaming memtable) unioned with the table at
    /// execution time — see [`Plan::with_overlay`].
    overlay: &'a [MemRow],
    /// Cooperative per-query budget — see [`Plan::with_budget`].
    budget: Option<&'a QueryBudget>,
    /// The planner's grading of `query.pred` over every bucket and its
    /// one walk over those grades (`None` without SMAs); `SmaGAggr` runs
    /// on them instead of grading and counting again.
    grades: Option<(Classification, GradeTally)>,
    /// Worker threads for the bucket loops of `SmaGAggr` and the full
    /// scan: exactly these when set, else as many of the available cores
    /// as the loop's planned work pays for.
    parallelism: Option<Parallelism>,
    /// The chosen strategy.
    pub kind: PlanKind,
    /// The estimate that drove the choice (`None` without SMAs).
    pub estimate: Option<Estimate>,
}

impl<'a> Plan<'a> {
    /// Attaches unsealed rows, borrowed from a streaming memtable: rows
    /// that logically belong to the relation but have not been flushed
    /// into the sealed, SMA-indexed table yet. Execution folds them in as
    /// one more ambivalent bucket — no SMA covers volatile data, so the
    /// predicate is applied per row — into the same group states as the
    /// sealed buckets. That is exact because every aggregate here is
    /// decomposable, and `avg` stays a partial sum until the one finish
    /// divides it, as §3.3 computes it.
    pub fn with_overlay(mut self, rows: &'a [MemRow]) -> Plan<'a> {
        self.overlay = rows;
        self
    }

    /// Attaches a cooperative [`QueryBudget`]: execution checks it at
    /// every bucket boundary and charges it one unit per data page, a
    /// bucket's whole page range before the bucket is read, so a deadline,
    /// a page cap, or an external cancellation cuts the query off with
    /// [`ExecError::Budget`] instead of letting it run to completion.
    /// Charges are deterministic (the page counts the operators request),
    /// so a budget verdict reproduces exactly in a single-threaded replay.
    pub fn with_budget(mut self, budget: &'a QueryBudget) -> Plan<'a> {
        self.budget = Some(budget);
        self
    }

    /// Runs the plan to completion.
    pub fn execute(&self) -> Result<Vec<Tuple>, ExecError> {
        Ok(self.execute_with_report()?.0)
    }

    /// Runs the plan to completion and reports what the resilience layer
    /// had to give up: buckets demoted to base-table scans (quarantined or
    /// inconsistent SMA entries) and transient-I/O retries spent. The
    /// report is empty on a healthy run and for the SMA-less full scan.
    ///
    /// An ungrouped query answers one row even when no row qualifies, as
    /// SQL requires: `0` for `count(*)`, `NULL` for every other aggregate.
    /// A grouped one answers no rows then.
    pub fn execute_with_report(&self) -> Result<(Vec<Tuple>, DegradationReport), ExecError> {
        // Admission checkpoint: a budget that is already expired or
        // cancelled refuses even plans that would touch no data page
        // (empty tables, pure-overlay queries).
        if let Some(b) = self.budget {
            b.check()?;
        }
        let (mut groups, report) = self.run_base()?;
        let q = &self.query;
        for (_, row) in self.overlay {
            if q.pred.eval_tuple(row) {
                fold_tuple(&mut groups, q, row)?;
            }
        }
        let mut rows = finish_groups(groups, &q.specs);
        if rows.is_empty() && q.group_by.is_empty() {
            rows.push(GroupState::new(&q.specs).finish(&q.specs));
        }
        Ok((rows, report))
    }

    /// Runs the chosen physical strategy over the sealed table, up to its
    /// unfinished group states.
    fn run_base(&self) -> Result<(Groups, DegradationReport), ExecError> {
        let q = &self.query;
        let smas = || {
            self.smas
                .ok_or_else(|| ExecError::Plan("SMA plan chosen without a SMA set".into()))
        };
        let op = match self.kind {
            PlanKind::SmaGAggr => {
                let op = SmaGAggr::new(
                    self.table,
                    q.pred.clone(),
                    q.group_by.clone(),
                    q.specs.clone(),
                    smas()?,
                )?;
                match &self.grades {
                    Some((c, tally)) => op.with_grades(&c.grades, *tally),
                    None => op,
                }
            }
            PlanKind::FullScan => SmaGAggr::full_scan(
                self.table,
                q.pred.clone(),
                q.group_by.clone(),
                q.specs.clone(),
            ),
            PlanKind::SmaScanGAggr => {
                // `SmaScan` materializes every tuple it passes, already
                // filtered; each one folds straight into its group.
                let mut scan = SmaScan::new(self.table, q.pred.clone(), smas()?);
                if let Some(b) = self.budget {
                    scan = scan.with_budget(b);
                }
                let mut groups = Groups::new();
                scan.open()?;
                while let Some(row) = scan.next()? {
                    fold_tuple(&mut groups, q, &row)?;
                }
                scan.close();
                return Ok((groups, scan.counters().degradation));
            }
        };
        let mut op = match self.parallelism {
            Some(p) => op.with_parallelism(p),
            None => op,
        };
        if let Some(b) = self.budget {
            op = op.with_budget(b);
        }
        let groups = op.aggregate()?;
        Ok((groups, op.counters().degradation))
    }

    /// EXPLAIN-style description of the choice and its rationale.
    pub fn explain(&self) -> String {
        let mut out = format!("plan: {:?}\n", self.kind);
        match &self.estimate {
            Some(e) => {
                out.push_str(&format!(
                    "  buckets: {} ({:.1}% skipped, {:.1}% ambivalent)\n",
                    e.n_buckets,
                    e.skipped_fraction * 100.0,
                    e.ambivalent_fraction * 100.0
                ));
                out.push_str(&format!(
                    "  modeled cost (ms): full={:.1} sma_scan={:.1} sma_gaggr={}\n",
                    e.full_scan_cost_ms,
                    e.sma_scan_cost_ms,
                    e.sma_gaggr_cost_ms
                        .map(|c| format!("{c:.1}"))
                        .unwrap_or_else(|| "n/a".into()),
                ));
            }
            None => out.push_str("  no SMAs available\n"),
        }
        out.push_str(&format!(
            "  query: group_by={:?} aggs={} pred={:?}\n",
            self.query.group_by,
            self.query.specs.len(),
            self.query.pred
        ));
        out
    }
}

/// Folds one passing tuple into its group's state under `query`.
fn fold_tuple(groups: &mut Groups, query: &AggregateQuery, row: &[Value]) -> Result<(), ExecError> {
    let mut key = Vec::with_capacity(query.group_by.len());
    for &g in &query.group_by {
        key.push(
            row.get(g)
                .cloned()
                .ok_or_else(|| ExecError::Plan(format!("group column {g} out of range")))?,
        );
    }
    groups
        .entry(key)
        .or_insert_with(|| GroupState::new(&query.specs))
        .update(&query.specs, row)
}

/// Whether `smas` can answer every aggregate of `query`.
fn aggregates_covered(smas: &SmaSet, query: &AggregateQuery) -> bool {
    let count_ok = smas
        .find_aggregate(sma_core::AggFn::Count, None, &query.group_by)
        .is_some();
    count_ok
        && query.specs.iter().all(|spec| {
            smas.find_aggregate(spec.base_fn(), spec.input(), &query.group_by)
                .is_some()
        })
}

/// Page reads of buckets visited in order, as [`CostModel::cost_ms`]
/// prices them: a seek whenever the previous bucket was not read, so
/// clustered ambivalent runs price mostly sequentially (the reason the
/// paper's breakeven sits as high as 25 %).
#[derive(Default)]
struct BucketReads {
    io: IoStats,
    prev_read: bool,
}

impl BucketReads {
    /// The next bucket, of `pages` pages: read or not.
    fn push(&mut self, read: bool, pages: u64) {
        if read {
            if self.prev_read {
                self.io.sequential_reads += pages;
            } else {
                self.io.random_reads += 1;
                self.io.sequential_reads += pages.saturating_sub(1);
            }
        }
        self.prev_read = read;
    }
}

/// What one walk over a query's grades yields: the D and A counts (Q is
/// the rest) and the reads the planner prices, and the SMA entry merges
/// the bucket loop plans besides its reads.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GradeTally {
    /// Buckets graded Disqualifies.
    pub(crate) disqualifies: u64,
    /// Buckets graded Ambivalent.
    pub(crate) ambivalent: u64,
    /// Page reads of every bucket not graded Disqualifies: the SMA scan's.
    pub(crate) scan_reads: IoStats,
    /// Page reads of the ambivalent buckets: `SmaGAggr`'s.
    pub(crate) gaggr_reads: IoStats,
    /// Merges of SMA entries `SmaGAggr` plans: one per whole super-bucket
    /// graded all Qualifies, answered from level 2, and one per other
    /// bucket graded Qualifies.
    pub(crate) merges: u64,
}

impl GradeTally {
    /// Walks `grades`, one per bucket of `bucket_pages` pages, once.
    pub(crate) fn of(grades: &[Grade], bucket_pages: u32) -> GradeTally {
        let pages = u64::from(bucket_pages);
        let mut tally = GradeTally::default();
        let (mut scan, mut gaggr) = (BucketReads::default(), BucketReads::default());
        for super_bucket in grades.chunks(LEVEL2_FANOUT as usize) {
            let mut qualifies = 0;
            for &g in super_bucket {
                match g {
                    Grade::Qualifies => qualifies += 1,
                    Grade::Disqualifies => tally.disqualifies += 1,
                    Grade::Ambivalent => tally.ambivalent += 1,
                }
                scan.push(g != Grade::Disqualifies, pages);
                gaggr.push(g == Grade::Ambivalent, pages);
            }
            tally.merges += if qualifies == u64::from(LEVEL2_FANOUT) {
                1
            } else {
                qualifies
            };
        }
        tally.scan_reads = scan.io;
        tally.gaggr_reads = gaggr.io;
        tally
    }
}

/// `io` plus `pages` sequential page reads (SMA files scanned in sync).
fn plus_sequential(io: IoStats, pages: usize) -> IoStats {
    IoStats {
        sequential_reads: io.sequential_reads + pages as u64,
        ..io
    }
}

/// Pages of the min/max and count SMAs usable for grading `pred`.
fn selection_sma_pages(set: &SmaSet, pred: &BucketPred) -> usize {
    pred.referenced_columns()
        .into_iter()
        .map(|c| {
            set.min_sma_for(c).map(|s| s.total_pages()).unwrap_or(0)
                + set.max_sma_for(c).map(|s| s.total_pages()).unwrap_or(0)
                + set
                    .count_sma_grouped_by(c)
                    .map(|s| s.total_pages())
                    .unwrap_or(0)
        })
        .sum()
}

/// Chooses a plan for `query` over `table` given the available SMAs.
pub fn plan<'a>(
    table: &'a Table,
    query: AggregateQuery,
    smas: Option<&'a SmaSet>,
    cfg: &PlannerConfig,
) -> Plan<'a> {
    let Some(set) = smas else {
        return Plan {
            table,
            smas,
            query,
            overlay: &[],
            budget: None,
            grades: None,
            parallelism: None,
            kind: PlanKind::FullScan,
            estimate: None,
        };
    };
    let cm = &cfg.cost_model;
    let grades = Classification::classify(&query.pred, table.bucket_count(), set);
    let tally = GradeTally::of(&grades.grades, table.bucket_pages());
    let n_pages = u64::from(table.page_count());
    let full_scan_cost_ms = cm.cost_ms(&IoStats {
        random_reads: n_pages.min(1),
        sequential_reads: n_pages.saturating_sub(1),
        ..IoStats::default()
    });
    let sma_scan_cost_ms = cm.cost_ms(&plus_sequential(
        tally.scan_reads,
        selection_sma_pages(set, &query.pred),
    ));
    let covered = aggregates_covered(set, &query);
    // All SMA files are scanned sequentially "in sync" (§2.3).
    let sma_gaggr_cost_ms =
        covered.then(|| cm.cost_ms(&plus_sequential(tally.gaggr_reads, set.total_pages())));
    let fraction = |buckets: u64| match grades.grades.len() {
        0 => 0.0,
        n => buckets as f64 / n as f64,
    };
    let estimate = Estimate {
        n_buckets: table.bucket_count(),
        ambivalent_fraction: fraction(tally.ambivalent),
        skipped_fraction: fraction(tally.disqualifies),
        full_scan_cost_ms,
        sma_gaggr_cost_ms,
        sma_scan_cost_ms,
    };
    // On equal I/O the earlier candidate stays, so they are tried in
    // order of CPU per page read: the fused full scan, then `SmaGAggr`,
    // then the SMA scan, which materializes every row it passes to the
    // aggregation.
    let mut best = (PlanKind::FullScan, full_scan_cost_ms);
    if let Some(c) = sma_gaggr_cost_ms {
        if c < best.1 {
            best = (PlanKind::SmaGAggr, c);
        }
    }
    if sma_scan_cost_ms < best.1 {
        best = (PlanKind::SmaScanGAggr, sma_scan_cost_ms);
    }
    let kind = best.0;
    Plan {
        table,
        smas,
        query,
        overlay: &[],
        budget: None,
        grades: Some((grades, tally)),
        parallelism: None,
        kind,
        estimate: Some(estimate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_core::{col, AggFn, CmpOp, SmaDefinition};
    use sma_types::{Column, DataType, Decimal, Schema, Value};
    use std::sync::Arc;

    fn make_table(n: i64, sorted: bool) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("G", DataType::Char),
            Column::new("P", DataType::Decimal),
            Column::new("PAD", DataType::Str),
        ]));
        let mut t = Table::in_memory("t", schema, 1);
        let pad = "p".repeat(1700);
        for i in 0..n {
            let k = if sorted { i } else { (i * 17 + 5) % n };
            t.append(&vec![
                Value::Int(k),
                Value::Char(b'A' + (k % 2) as u8),
                Value::Decimal(Decimal::from_int(k)),
                Value::Str(pad.clone()),
            ])
            .unwrap();
        }
        t
    }

    fn full_set(t: &Table) -> SmaSet {
        SmaSet::build(
            t,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
                SmaDefinition::count("count").group_by(vec![1]),
                SmaDefinition::new("sum_p", AggFn::Sum, col(2)).group_by(vec![1]),
            ],
        )
        .unwrap()
    }

    /// `kind` forced over `t`, built as the planner builds plans but with
    /// no grades handed over.
    fn forced<'a>(
        t: &'a Table,
        smas: Option<&'a SmaSet>,
        query: AggregateQuery,
        kind: PlanKind,
    ) -> Plan<'a> {
        Plan {
            table: t,
            smas,
            query,
            overlay: &[],
            budget: None,
            grades: None,
            parallelism: None,
            kind,
            estimate: None,
        }
    }

    /// The reads the planner's walk tallies for the buckets `read` selects.
    fn bucket_reads(grades: &[Grade], bucket_pages: u32, read: impl Fn(Grade) -> bool) -> IoStats {
        let mut reads = BucketReads::default();
        for &g in grades {
            reads.push(read(g), u64::from(bucket_pages));
        }
        reads.io
    }

    fn query(cutoff: i64) -> AggregateQuery {
        AggregateQuery {
            pred: BucketPred::cmp(0, CmpOp::Le, cutoff),
            group_by: vec![1],
            specs: vec![AggSpec::CountStar, AggSpec::Sum(col(2))],
        }
    }

    #[test]
    fn sorted_data_low_cutoff_uses_sma_gaggr() {
        let t = make_table(60, true);
        let set = full_set(&t);
        let p = plan(&t, query(10), Some(&set), &PlannerConfig::default());
        assert_eq!(p.kind, PlanKind::SmaGAggr);
        let e = p.estimate.unwrap();
        assert!(e.ambivalent_fraction <= 0.25, "{e:?}");
        assert!(e.sma_gaggr_cost_ms.unwrap() < e.full_scan_cost_ms);
        assert!(p.explain().contains("SmaGAggr"));
    }

    #[test]
    fn shuffled_data_falls_back_to_full_scan() {
        let t = make_table(60, false);
        let set = full_set(&t);
        // Mid-range cutoff on shuffled data: nearly every bucket straddles
        // the cutoff, so the SMA plans pay random reads for almost all
        // buckets and lose to the sequential scan.
        let p = plan(&t, query(30), Some(&set), &PlannerConfig::default());
        assert_eq!(p.kind, PlanKind::FullScan);
        assert!(p.estimate.unwrap().ambivalent_fraction > 0.25);
    }

    #[test]
    fn missing_aggregate_smas_degrade_to_smascan() {
        let t = make_table(60, true);
        let minmax_only = SmaSet::build(
            &t,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
            ],
        )
        .unwrap();
        let p = plan(&t, query(10), Some(&minmax_only), &PlannerConfig::default());
        assert_eq!(p.kind, PlanKind::SmaScanGAggr);
        assert!(p.estimate.unwrap().sma_gaggr_cost_ms.is_none());
    }

    #[test]
    fn no_smas_full_scan() {
        let t = make_table(20, true);
        let p = plan(&t, query(10), None, &PlannerConfig::default());
        assert_eq!(p.kind, PlanKind::FullScan);
        assert!(p.estimate.is_none());
        assert!(p.explain().contains("no SMAs"));
    }

    #[test]
    fn all_plans_agree_on_the_answer() {
        for sorted in [true, false] {
            let t = make_table(60, sorted);
            let set = full_set(&t);
            for cutoff in [5i64, 30, 59] {
                let q = query(cutoff);
                let mut answers = Vec::new();
                for kind in [
                    PlanKind::SmaGAggr,
                    PlanKind::SmaScanGAggr,
                    PlanKind::FullScan,
                ] {
                    let p = forced(&t, Some(&set), q.clone(), kind);
                    answers.push(p.execute().unwrap());
                }
                assert_eq!(answers[0], answers[1], "sorted={sorted} cutoff={cutoff}");
                assert_eq!(answers[1], answers[2], "sorted={sorted} cutoff={cutoff}");
            }
        }
    }

    /// An ungrouped aggregate over no qualifying row answers one row —
    /// `0` for `count(*)`, NULL for the rest — from every plan kind, with
    /// and without an overlay; a grouped one answers none.
    #[test]
    fn empty_input_answers_one_ungrouped_row() {
        let t = make_table(60, true);
        let set = full_set(&t);
        let nothing = BucketPred::cmp(0, CmpOp::Lt, -1i64);
        let ungrouped = AggregateQuery {
            pred: nothing.clone(),
            group_by: vec![],
            specs: vec![
                AggSpec::CountStar,
                AggSpec::Sum(col(2)),
                AggSpec::Avg(col(2)),
                AggSpec::Min(col(0)),
                AggSpec::Max(col(0)),
            ],
        };
        let grouped = AggregateQuery {
            pred: nothing,
            ..query(0)
        };
        let covering = SmaSet::build(
            &t,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
                SmaDefinition::count("count").group_by(vec![1]),
                SmaDefinition::new("sum_p", AggFn::Sum, col(2)).group_by(vec![1]),
                SmaDefinition::new("min_k", AggFn::Min, col(0)).group_by(vec![1]),
                SmaDefinition::new("max_k", AggFn::Max, col(0)).group_by(vec![1]),
            ],
        )
        .unwrap();
        // An overlay row that fails the predicate too.
        let overlay: Vec<MemRow> = vec![(
            1,
            vec![
                Value::Int(5),
                Value::Char(b'A'),
                Value::Decimal(Decimal::from_int(5)),
                Value::Str("x".into()),
            ],
        )];
        let one_row = vec![vec![
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ]];
        for kind in [
            PlanKind::SmaGAggr,
            PlanKind::SmaScanGAggr,
            PlanKind::FullScan,
        ] {
            for extra in [Vec::new(), overlay.clone()] {
                let ctx = format!("{kind:?}, overlay {}", extra.len());
                let p = forced(&t, Some(&covering), ungrouped.clone(), kind).with_overlay(&extra);
                assert_eq!(p.execute().unwrap(), one_row, "{ctx}");
                let p = forced(&t, Some(&set), grouped.clone(), kind).with_overlay(&extra);
                assert!(p.execute().unwrap().is_empty(), "{ctx}");
            }
        }
    }

    /// Every plan kind over (sealed + overlay) equals the full scan over
    /// one table bulk-loaded with the same rows, at 1, 2 and 8 workers:
    /// grouped and ungrouped, `avg` included, with a group (`Z`) that only
    /// the overlay holds. With a quarantined bucket the degradation report
    /// is the same with the overlay as without it.
    #[test]
    fn overlay_matches_bulk_load_for_every_plan_kind() {
        // Sealed table holds rows 0..40; the overlay holds rows 40..60
        // and the lone `Z` row.
        let template = make_table(60, true);
        let mut all_rows: Vec<Tuple> = template
            .scan()
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        all_rows.push(vec![
            Value::Int(50),
            Value::Char(b'Z'),
            Value::Decimal(Decimal::from_int(7)),
            Value::Str("z".into()),
        ]);
        let mut bulk = Table::in_memory("t", template.schema().clone(), 1);
        let mut base = Table::in_memory("t", template.schema().clone(), 1);
        for (i, row) in all_rows.iter().enumerate() {
            bulk.append(row).unwrap();
            if i < 40 {
                base.append(row).unwrap();
            }
        }
        let overlay: Vec<MemRow> = all_rows[40..].iter().map(|r| (1, r.clone())).collect();
        // Aggregate SMAs covering every spec below, so the forced
        // SmaGAggr kind is actually executable.
        let set = SmaSet::build(
            &base,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
                SmaDefinition::count("count").group_by(vec![1]),
                SmaDefinition::new("sum_p", AggFn::Sum, col(2)).group_by(vec![1]),
                SmaDefinition::new("sum_k", AggFn::Sum, col(0)).group_by(vec![1]),
                SmaDefinition::new("min_k", AggFn::Min, col(0)).group_by(vec![1]),
            ],
        )
        .unwrap();
        let mut damaged = set.clone();
        damaged.quarantine_bucket(3);
        for cutoff in [5i64, 39, 45, 59] {
            for group_by in [vec![1], vec![]] {
                for specs in [
                    vec![AggSpec::CountStar, AggSpec::Sum(col(2))],
                    vec![AggSpec::Avg(col(2)), AggSpec::Min(col(0))],
                    vec![AggSpec::Avg(col(0))],
                ] {
                    let q = AggregateQuery {
                        pred: BucketPred::cmp(0, CmpOp::Le, cutoff),
                        group_by: group_by.clone(),
                        specs,
                    };
                    let expected = plan(&bulk, q.clone(), None, &PlannerConfig::default())
                        .execute()
                        .unwrap();
                    for kind in [
                        PlanKind::SmaGAggr,
                        PlanKind::SmaScanGAggr,
                        PlanKind::FullScan,
                    ] {
                        for threads in [1, 2, 8] {
                            let run = |smas: &SmaSet, rows: &[MemRow]| {
                                let mut p =
                                    forced(&base, Some(smas), q.clone(), kind).with_overlay(rows);
                                p.parallelism = Some(Parallelism::new(threads));
                                p.execute_with_report().unwrap()
                            };
                            let ctx = format!(
                                "{kind:?} cutoff={cutoff} by={group_by:?} {threads} threads"
                            );
                            assert_eq!(run(&set, &overlay).0, expected, "{ctx}");
                            let (rows, report) = run(&damaged, &overlay);
                            assert_eq!(rows, expected, "quarantined: {ctx}");
                            assert_eq!(report, run(&damaged, &[]).1, "{ctx}");
                            assert_eq!(
                                report.quarantined_buckets.is_empty(),
                                kind == PlanKind::FullScan,
                                "{ctx}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_overlay_is_a_true_noop_for_every_plan_kind() {
        // `with_overlay(&[])` must leave the plan exactly as planned —
        // same kind, same rows — so a fully-flushed streaming warehouse
        // is indistinguishable from a bulk-loaded one.
        let t = make_table(60, true);
        let set = full_set(&t);
        let q = AggregateQuery {
            pred: BucketPred::cmp(0, CmpOp::Le, 10),
            group_by: vec![1],
            specs: vec![
                AggSpec::CountStar,
                AggSpec::Sum(col(2)),
                AggSpec::Avg(col(2)),
            ],
        };
        let baseline = plan(&t, q.clone(), Some(&set), &PlannerConfig::default());
        let kind = baseline.kind;
        let want = baseline.execute().unwrap();
        let wrapped = plan(&t, q.clone(), Some(&set), &PlannerConfig::default()).with_overlay(&[]);
        assert_eq!(
            wrapped.kind, kind,
            "an empty overlay must not change the plan kind"
        );
        assert_eq!(wrapped.execute().unwrap(), want);
    }

    #[test]
    fn overlay_only_groups_and_empty_overlay() {
        // Groups that exist only in the overlay must appear; an overlay
        // none of whose tuples pass the predicate must change nothing.
        let t = make_table(20, true);
        let set = full_set(&t);
        let q = query(1000);
        let baseline = plan(&t, q.clone(), Some(&set), &PlannerConfig::default())
            .execute()
            .unwrap();
        // 'Z' is a group absent from the sealed table.
        let extra = vec![
            Value::Int(100),
            Value::Char(b'Z'),
            Value::Decimal(Decimal::from_int(7)),
            Value::Str("x".into()),
        ];
        let with_new_group = plan(&t, q.clone(), Some(&set), &PlannerConfig::default())
            .with_overlay(&[(1, extra.clone())])
            .execute()
            .unwrap();
        assert_eq!(with_new_group.len(), baseline.len() + 1);
        let z = with_new_group.last().unwrap();
        assert_eq!(z[0], Value::Char(b'Z'));
        assert_eq!(z[1], Value::Int(1));
        // Filtered-out overlay tuple: identical to baseline.
        let filtered = plan(&t, query(5), Some(&set), &PlannerConfig::default())
            .with_overlay(&[(1, extra)])
            .execute()
            .unwrap();
        let narrow = plan(&t, query(5), Some(&set), &PlannerConfig::default())
            .execute()
            .unwrap();
        assert_eq!(filtered, narrow);
    }

    /// The parallel full scan returns the serial rows byte for byte at
    /// every worker count — on every clustering, for the dense Q1 grouping
    /// and an ungrouped aggregate, with and without an overlay — and a cold
    /// run reads every page once, with one seek per morsel and at most one
    /// more per super-bucket boundary a steal can cut at.
    #[test]
    fn parallel_full_scan_matches_serial_exactly() {
        use crate::parallel::morsels;
        use crate::query1::{cutoff, query1_query};
        use sma_core::LEVEL2_FANOUT;
        use sma_tpcd::{generate_lineitem_table, Clustering, GenConfig};
        for clustering in [
            Clustering::SortedByShipdate,
            Clustering::diagonal_default(),
            Clustering::Shuffled,
            Clustering::Uniform,
        ] {
            let t = generate_lineitem_table(&GenConfig::tiny(clustering));
            let q1 = query1_query(&t, cutoff(90)).unwrap();
            let ungrouped = AggregateQuery {
                group_by: Vec::new(),
                ..q1.clone()
            };
            let overlay: Vec<MemRow> = t
                .scan()
                .unwrap()
                .into_iter()
                .take(40)
                .map(|(_, r)| (1, r))
                .collect();
            for q in [&q1, &ungrouped] {
                for extra in [Vec::new(), overlay.clone()] {
                    let run = |threads: usize| {
                        let mut p =
                            forced(&t, None, q.clone(), PlanKind::FullScan).with_overlay(&extra);
                        p.parallelism = Some(Parallelism::new(threads));
                        t.make_cold().unwrap();
                        t.reset_io_stats();
                        (p.execute().unwrap(), t.io_stats())
                    };
                    let (serial, _) = run(1);
                    assert!(!serial.is_empty());
                    for threads in [1, 2, 4, 8] {
                        let ctx = format!(
                            "{clustering:?} by={:?} overlay={} {threads} threads",
                            q.group_by,
                            extra.len()
                        );
                        let (rows, io) = run(threads);
                        assert_eq!(rows, serial, "{ctx}");
                        assert_eq!(io.physical_reads, u64::from(t.page_count()), "{ctx}");
                        // One seek per morsel, and one more per steal:
                        // each steal cuts at a distinct super-bucket
                        // boundary.
                        let seeks = morsels(t.bucket_count(), threads).len() as u64;
                        let steals = u64::from(t.bucket_count() / LEVEL2_FANOUT);
                        assert!(
                            (seeks..=seeks + steals).contains(&io.random_reads),
                            "{ctx}: {} seeks",
                            io.random_reads
                        );
                    }
                }
            }
        }
    }

    /// A zero-page cap and a cancelled budget each stop a full scan
    /// running on several workers with a budget error.
    #[test]
    fn budget_stops_a_parallel_full_scan() {
        use sma_storage::BudgetExceeded;
        let t = make_table(60, true);
        let q = query(30);
        for threads in [2, 4, 8] {
            let run = |budget: &QueryBudget| {
                SmaGAggr::full_scan(&t, q.pred.clone(), q.group_by.clone(), q.specs.clone())
                    .with_parallelism(Parallelism::new(threads))
                    .with_budget(budget)
                    .aggregate()
                    .unwrap_err()
            };
            let err = run(&QueryBudget::unbounded().with_page_cap(0));
            assert!(
                matches!(err, ExecError::Budget(BudgetExceeded::Pages { .. })),
                "{threads} threads: {err}"
            );
            let cancelled = QueryBudget::unbounded();
            cancelled.cancel();
            let err = run(&cancelled);
            assert!(
                matches!(err, ExecError::Budget(BudgetExceeded::Cancelled)),
                "{threads} threads: {err}"
            );
        }
    }

    /// One budget rule for every aggregate plan: a bucket's whole page
    /// range is charged before any page of it is read. A page cap that
    /// ends inside a four-page bucket stops the full scan and `SmaGAggr`
    /// over all-ambivalent buckets with the same error, and neither reads
    /// a page of the bucket whose charge tripped.
    #[test]
    fn page_cap_inside_a_bucket_stops_every_plan_before_that_bucket() {
        use sma_storage::BudgetExceeded;
        let template = make_table(60, true);
        let mut t = Table::in_memory("t", template.schema().clone(), 4);
        for (_, row) in template.scan().unwrap() {
            t.append(&row).unwrap();
        }
        assert_eq!(t.bucket_range(1), 4..8);
        let set = full_set(&t);
        // No SMA grades `P`, so every bucket is ambivalent.
        let q = AggregateQuery {
            pred: BucketPred::cmp(2, CmpOp::Le, Decimal::from_int(30)),
            ..query(0)
        };
        let grades = Classification::classify(&q.pred, t.bucket_count(), &set);
        assert_eq!(grades.ambivalent_fraction(), 1.0);
        for kind in [PlanKind::FullScan, PlanKind::SmaGAggr] {
            let budget = QueryBudget::unbounded().with_page_cap(6);
            let mut p = forced(&t, Some(&set), q.clone(), kind).with_budget(&budget);
            p.parallelism = Some(Parallelism::serial());
            t.reset_io_stats();
            let err = p.execute().unwrap_err();
            assert!(
                matches!(
                    err,
                    ExecError::Budget(BudgetExceeded::Pages {
                        charged: 8,
                        limit: 6
                    })
                ),
                "{kind:?}: {err}"
            );
            assert_eq!(t.io_stats().logical_reads, 4, "{kind:?}: bucket 0 only");
        }
    }

    #[test]
    fn clustered_ambivalence_prices_sequentially() {
        use Grade::*;
        let cm = CostModel {
            seq_read_ms: 1.0,
            rand_read_ms: 10.0,
            write_ms: 0.0,
            failed_read_ms: 0.0,
        };
        let reads = |grades: &[Grade], pages: u32| {
            let io = bucket_reads(grades, pages, |g| g == Ambivalent);
            (io.random_reads, io.sequential_reads, cm.cost_ms(&io))
        };
        // Contiguous run: 1 seek, then 2 sequential pages.
        let run = [
            Disqualifies,
            Ambivalent,
            Ambivalent,
            Ambivalent,
            Disqualifies,
        ];
        assert_eq!(reads(&run, 1), (1, 2, 12.0));
        // Same count, scattered: 3 seeks.
        let scattered = [
            Ambivalent,
            Disqualifies,
            Ambivalent,
            Disqualifies,
            Ambivalent,
        ];
        assert_eq!(reads(&scattered, 1), (3, 0, 30.0));
        // Multi-page buckets amortize the seek.
        assert_eq!(reads(&[Ambivalent], 4), (1, 3, 13.0));
    }

    /// The planner's one walk gives the counts and both plans' reads that
    /// separate walks give, and counts a whole qualifying super-bucket as
    /// one merge, but every qualifying bucket of a partial one.
    #[test]
    fn one_walk_tallies_grades_reads_and_merges() {
        use Grade::*;
        let fanout = LEVEL2_FANOUT as usize;
        let mut grades = vec![Qualifies; fanout];
        grades.extend(vec![Qualifies; fanout - 1]);
        grades.push(Ambivalent);
        grades.extend([Qualifies, Disqualifies, Ambivalent, Qualifies]);
        let tally = GradeTally::of(&grades, 2);
        let count = |g| grades.iter().filter(|&&x| x == g).count() as u64;
        assert_eq!(
            (tally.disqualifies, tally.ambivalent),
            (count(Disqualifies), count(Ambivalent))
        );
        assert_eq!(tally.merges, 1 + (fanout as u64 - 1) + 2);
        assert_eq!(
            tally.scan_reads,
            bucket_reads(&grades, 2, |g| g != Disqualifies)
        );
        assert_eq!(
            tally.gaggr_reads,
            bucket_reads(&grades, 2, |g| g == Ambivalent)
        );
    }

    /// A bare unindexed predicate makes the SMA scan read exactly the
    /// full scan's pages: `count(*), sum(L_QUANTITY) where L_TAX <= x`
    /// with no SMA on `L_TAX`. Both plans are priced from the same integer
    /// counts, so they tie exactly, and the tie goes to the full scan,
    /// which does not materialize the surviving rows. At 268 one-page
    /// buckets, as at SF 0.02's 4,053, summing the SMA scan's price bucket
    /// by bucket in floating point came out below the full scan's.
    #[test]
    fn equal_io_ties_go_to_the_full_scan() {
        use sma_tpcd::schema::lineitem as li;
        use sma_tpcd::{generate_lineitem_table, Clustering, GenConfig};
        let t = generate_lineitem_table(&GenConfig {
            orders: 2_000,
            ..GenConfig::tiny(Clustering::diagonal_default())
        });
        assert_eq!((t.bucket_count(), t.page_count()), (268, 268));
        let smas = SmaSet::build_query1_set(&t).unwrap();
        for cents in 0..=8 {
            let q = AggregateQuery {
                pred: BucketPred::cmp(li::TAX, CmpOp::Le, Decimal::from_cents(cents)),
                group_by: vec![],
                specs: vec![AggSpec::CountStar, AggSpec::Sum(col(li::QUANTITY))],
            };
            let p = plan(&t, q.clone(), Some(&smas), &PlannerConfig::default());
            let e = p.estimate.unwrap();
            assert_eq!(e.ambivalent_fraction, 1.0);
            assert_eq!(e.sma_scan_cost_ms, e.full_scan_cost_ms, "x = {cents}");
            assert_eq!(p.kind, PlanKind::FullScan, "x = {cents}");
            let via_sma_scan = forced(&t, Some(&smas), q, PlanKind::SmaScanGAggr);
            assert_eq!(p.execute().unwrap(), via_sma_scan.execute().unwrap());
        }
    }

    #[test]
    fn budget_page_cap_cuts_off_every_plan_kind() {
        use sma_storage::BudgetExceeded;
        // Cutoff 30 on sorted data leaves an ambivalent bucket, so even
        // the SMA plan must touch at least one data page; a zero-page cap
        // therefore trips every strategy with a structured error.
        let t = make_table(60, true);
        let set = full_set(&t);
        let q = query(30);
        for kind in [
            PlanKind::SmaGAggr,
            PlanKind::SmaScanGAggr,
            PlanKind::FullScan,
        ] {
            let budget = QueryBudget::unbounded().with_page_cap(0);
            let p = forced(&t, Some(&set), q.clone(), kind).with_budget(&budget);
            let err = p.execute().unwrap_err();
            assert!(
                matches!(err, ExecError::Budget(BudgetExceeded::Pages { .. })),
                "{kind:?}: {err}"
            );
        }
    }

    #[test]
    fn budget_deadline_and_cancel_cut_off_every_plan_kind() {
        use sma_storage::BudgetExceeded;
        use std::time::Duration;
        let t = make_table(60, true);
        let set = full_set(&t);
        for kind in [
            PlanKind::SmaGAggr,
            PlanKind::SmaScanGAggr,
            PlanKind::FullScan,
        ] {
            let expired = QueryBudget::unbounded().with_deadline(Duration::ZERO);
            let p = forced(&t, Some(&set), query(30), kind).with_budget(&expired);
            let err = p.execute().unwrap_err();
            assert!(
                matches!(err, ExecError::Budget(BudgetExceeded::Deadline { .. })),
                "{kind:?}: {err}"
            );

            let cancelled = QueryBudget::unbounded();
            cancelled.cancel();
            let p = forced(&t, Some(&set), query(30), kind).with_budget(&cancelled);
            let err = p.execute().unwrap_err();
            assert!(
                matches!(err, ExecError::Budget(BudgetExceeded::Cancelled)),
                "{kind:?}: {err}"
            );
        }
    }

    #[test]
    fn unbounded_budget_is_invisible_and_charges_match_pages() {
        let t = make_table(60, true);
        let set = full_set(&t);
        let q = query(30);
        let budget = QueryBudget::unbounded();
        let with_budget = forced(&t, Some(&set), q.clone(), PlanKind::FullScan)
            .with_budget(&budget)
            .execute()
            .unwrap();
        let bare = forced(&t, Some(&set), q, PlanKind::FullScan)
            .execute()
            .unwrap();
        assert_eq!(with_budget, bare);
        // A full scan charges exactly one unit per data page: the same
        // logical-page count IoStats would tally single-threaded.
        assert_eq!(budget.pages_charged(), u64::from(t.page_count()));
    }
}
