//! The `SMA_Scan` operator — Fig. 6 of the paper.
//!
//! Scans a relation under a selection predicate, using SMAs to grade each
//! bucket first: disqualified buckets are *skipped without I/O*, qualified
//! buckets return their tuples without evaluating the predicate, and only
//! ambivalent buckets pay per-tuple predicate evaluation.

use sma_core::{BucketPred, CompiledPred, Grade, SmaSet};
use sma_storage::{QueryBudget, Table, TupleId};
use sma_types::{RowLayout, Tuple};

use crate::degrade::DegradationReport;
use crate::op::{ExecError, PhysicalOp};
use crate::parallel::{run_morsels, Parallelism};

/// Bucket-level counters a finished scan reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Buckets whose every tuple qualified (read, no predicate evaluation).
    pub qualified: u64,
    /// Buckets skipped without reading any data page.
    pub disqualified: u64,
    /// Buckets read and filtered tuple-by-tuple.
    pub ambivalent: u64,
    /// What the resilience layer had to give up: buckets demoted to base
    /// scans and transient-I/O retries spent (empty on a healthy run).
    pub degradation: DegradationReport,
}

impl ScanCounters {
    /// Total buckets graded.
    pub fn total(&self) -> u64 {
        self.qualified + self.disqualified + self.ambivalent
    }
}

/// The SMA-driven selection scan.
pub struct SmaScan<'a> {
    table: &'a Table,
    pred: BucketPred,
    smas: &'a SmaSet,
    curr_grade: Grade,
    next_bucket: u32,
    /// Byte offsets of the row codec, computed once so ambivalent buckets
    /// can be filtered on zero-copy views.
    layout: RowLayout,
    /// `pred` compiled against `layout`: the ambivalent buckets' filter.
    filter: CompiledPred,
    /// Tuples of the current bucket. Ambivalent buckets arrive already
    /// filtered (only passing tuples were materialized); qualifying
    /// buckets arrive whole, with no predicate evaluation either way.
    buffer: Vec<(TupleId, Tuple)>,
    pos: usize,
    counters: ScanCounters,
    parallelism: Parallelism,
    /// Grades precomputed in `open` by worker threads (empty on the serial
    /// path, which grades lazily bucket by bucket).
    grades: Vec<Grade>,
    /// Pool retry counter at `open`, so `counters` reports only the
    /// retries this execution spent.
    retries_at_open: u64,
    /// Cooperative per-query budget, checked once per bucket and charged
    /// for every data page the scan is about to read.
    budget: Option<&'a QueryBudget>,
}

impl<'a> SmaScan<'a> {
    /// Creates the operator (the constructor signature of Fig. 6:
    /// `SMA_Scan(R, pred, smas)`).
    pub fn new(table: &'a Table, pred: BucketPred, smas: &'a SmaSet) -> SmaScan<'a> {
        let layout = RowLayout::new(table.schema());
        SmaScan {
            table,
            filter: CompiledPred::new(&pred, &layout),
            layout,
            pred,
            smas,
            curr_grade: Grade::Ambivalent,
            next_bucket: 0,
            buffer: Vec::new(),
            pos: 0,
            counters: ScanCounters::default(),
            parallelism: Parallelism::default(),
            grades: Vec::new(),
            retries_at_open: 0,
            budget: None,
        }
    }

    /// Sets the number of worker threads `open` uses to grade buckets
    /// (default: one per available core). Grading is pure in-memory
    /// arithmetic over SMA entries, so it parallelizes freely; page I/O
    /// still happens serially in `next`, in bucket order, so the scan's
    /// output, counters, and I/O trace are identical at any setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> SmaScan<'a> {
        self.parallelism = parallelism;
        self
    }

    /// Attaches a cooperative budget. The scan checks it at every bucket
    /// boundary (so deadlines and cancellation are honored even across
    /// long disqualified runs) and charges it the bucket's page count
    /// before reading a qualifying or ambivalent bucket — the same unit
    /// the pool's `logical_reads` counter tallies.
    pub fn with_budget(mut self, budget: &'a QueryBudget) -> SmaScan<'a> {
        self.budget = Some(budget);
        self
    }

    /// Bucket-level counters (meaningful once the scan is drained).
    pub fn counters(&self) -> ScanCounters {
        self.counters.clone()
    }

    /// Fig. 6's `getBucket`: advances to the next qualifying or ambivalent
    /// bucket and reads it. Returns `false` when no buckets remain.
    fn get_bucket(&mut self) -> Result<bool, ExecError> {
        loop {
            if self.next_bucket >= self.table.bucket_count() {
                return Ok(false);
            }
            let bucket = self.next_bucket;
            self.next_bucket += 1;
            if let Some(b) = self.budget {
                b.check()?;
            }
            self.curr_grade = match self.grades.get(bucket as usize) {
                Some(&g) => g,
                None => self.pred.grade(bucket, self.smas),
            };
            match self.curr_grade {
                Grade::Disqualifies => {
                    self.counters.disqualified += 1;
                    continue;
                }
                Grade::Qualifies => self.counters.qualified += 1,
                Grade::Ambivalent => self.counters.ambivalent += 1,
            }
            // A quarantined bucket grades Ambivalent (the provider refuses
            // to answer for it), so it lands here and is read and filtered
            // from the base table — correct, just slower. Record the
            // demotion from the SMA fast path.
            if self.smas.is_bucket_quarantined(bucket) {
                self.counters.degradation.note_quarantined(bucket);
            }
            self.buffer.clear();
            self.pos = 0;
            if let Some(b) = self.budget {
                // Both branches below read the whole bucket.
                b.charge(self.table.bucket_range(bucket).len() as u64)?;
            }
            if self.curr_grade == Grade::Qualifies {
                // Every tuple is wanted: plain materializing read.
                for page in self.table.bucket_range(bucket) {
                    self.table.scan_page_into(page, &mut self.buffer)?;
                }
            } else {
                // Ambivalent: run the compiled predicate on zero-copy views
                // straight out of the page frames and materialize only the
                // tuples that pass. Pages are visited in the same order as
                // the materializing read, so the I/O trace is unchanged.
                let table = self.table;
                let layout = &self.layout;
                let filter = &self.filter;
                let buffer = &mut self.buffer;
                table.for_each_in_bucket::<ExecError, _>(bucket, None, |tid, image| {
                    let row = layout.view(image)?;
                    if filter.eval(&row)? {
                        buffer.push((tid, row.materialize()?));
                    }
                    Ok(())
                })?;
            }
            self.counters.degradation.retries_spent = self
                .table
                .io_stats()
                .retried_reads
                .saturating_sub(self.retries_at_open);
            return Ok(true);
        }
    }
}

impl PhysicalOp for SmaScan<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.next_bucket = 0;
        self.buffer.clear();
        self.pos = 0;
        self.counters = ScanCounters::default();
        self.grades.clear();
        self.retries_at_open = self.table.io_stats().retried_reads;
        let n_buckets = self.table.bucket_count();
        let threads = self.parallelism.get().min(n_buckets.max(1) as usize);
        if threads > 1 {
            let (pred, smas) = (&self.pred, self.smas);
            let parts = run_morsels(n_buckets, threads, Vec::new, |graded, r| {
                graded.extend(r.map(|b| (b, pred.grade(b, smas))));
                Ok(())
            })?;
            self.grades = vec![Grade::Ambivalent; n_buckets as usize];
            for (b, grade) in parts.into_iter().flatten() {
                self.grades[b as usize] = grade;
            }
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        loop {
            if self.pos < self.buffer.len() {
                let idx = self.pos;
                self.pos += 1;
                return Ok(Some(std::mem::take(&mut self.buffer[idx].1)));
            }
            if !self.get_bucket()? {
                return Ok(None);
            }
        }
    }

    fn close(&mut self) {
        self.buffer.clear();
    }

    fn describe(&self) -> String {
        format!(
            "SmaScan({}, pred={:?}, smas={})",
            self.table.name(),
            self.pred,
            self.smas.smas().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{Filter, SeqScan};
    use crate::op::collect;
    use sma_core::{col, AggFn, CmpOp, SmaDefinition};
    use sma_types::{Column, DataType, Schema, Value};
    use std::sync::Arc;

    /// Sorted table: value = index, 2 tuples per page, 1 page per bucket.
    fn sorted_table(n: i64) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("PAD", DataType::Str),
        ]));
        let mut t = Table::in_memory("t", schema, 1);
        let pad = "p".repeat(1800);
        for k in 0..n {
            t.append(&vec![Value::Int(k), Value::Str(pad.clone())])
                .unwrap();
        }
        t
    }

    fn minmax(t: &Table) -> SmaSet {
        SmaSet::build(
            t,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
            ],
        )
        .unwrap()
    }

    fn keys(rows: &[Tuple]) -> Vec<i64> {
        rows.iter().map(|r| r[0].as_int().unwrap()).collect()
    }

    #[test]
    fn matches_seqscan_filter_on_every_cutoff() {
        let t = sorted_table(40);
        let smas = minmax(&t);
        for c in [-1i64, 0, 1, 7, 20, 38, 39, 100] {
            for op in [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq] {
                let pred = BucketPred::cmp(0, op, c);
                let mut sma_scan = SmaScan::new(&t, pred.clone(), &smas);
                let fast = collect(&mut sma_scan).unwrap();
                let mut slow_op = Filter::new(Box::new(SeqScan::new(&t)), pred);
                let slow = collect(&mut slow_op).unwrap();
                assert_eq!(keys(&fast), keys(&slow), "op {op:?} cutoff {c}");
            }
        }
    }

    #[test]
    fn skips_disqualified_buckets_without_io() {
        let t = sorted_table(40); // 20 buckets
        let smas = minmax(&t);
        t.reset_io_stats();
        let pred = BucketPred::cmp(0, CmpOp::Le, 5i64); // first 3 buckets only
        let mut scan = SmaScan::new(&t, pred, &smas);
        let rows = collect(&mut scan).unwrap();
        assert_eq!(rows.len(), 6);
        let c = scan.counters();
        assert_eq!(c.total(), 20);
        assert_eq!(c.disqualified, 17);
        assert_eq!(c.qualified + c.ambivalent, 3);
        // Only the 3 surviving pages were touched.
        assert_eq!(t.io_stats().logical_reads, 3);
    }

    #[test]
    fn qualifying_buckets_bypass_predicate() {
        let t = sorted_table(8);
        let smas = minmax(&t);
        // Cutoff splits bucket 2 (values 4,5): ≤ 4.
        let pred = BucketPred::cmp(0, CmpOp::Le, 4i64);
        let mut scan = SmaScan::new(&t, pred, &smas);
        let rows = collect(&mut scan).unwrap();
        assert_eq!(keys(&rows), vec![0, 1, 2, 3, 4]);
        let c = scan.counters();
        assert_eq!(c.qualified, 2);
        assert_eq!(c.ambivalent, 1);
        assert_eq!(c.disqualified, 1);
    }

    #[test]
    fn without_usable_smas_everything_is_ambivalent() {
        let t = sorted_table(8);
        let empty = SmaSet::new();
        let pred = BucketPred::cmp(0, CmpOp::Le, 3i64);
        let mut scan = SmaScan::new(&t, pred, &empty);
        let rows = collect(&mut scan).unwrap();
        assert_eq!(keys(&rows), vec![0, 1, 2, 3]);
        assert_eq!(scan.counters().ambivalent, 4);
        assert_eq!(scan.counters().disqualified, 0);
    }

    #[test]
    fn parallel_grading_matches_serial_exactly() {
        let t = sorted_table(40); // 20 buckets
        let smas = minmax(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 5i64);
        let mut serial =
            SmaScan::new(&t, pred.clone(), &smas).with_parallelism(Parallelism::serial());
        let expected = collect(&mut serial).unwrap();
        let expected_counters = serial.counters();
        for threads in [2, 3, 4, 8, 64] {
            t.reset_io_stats();
            let mut par =
                SmaScan::new(&t, pred.clone(), &smas).with_parallelism(Parallelism::new(threads));
            assert_eq!(collect(&mut par).unwrap(), expected, "{threads} threads");
            assert_eq!(par.counters(), expected_counters, "{threads} threads");
            // Page I/O stays serial, so the trace matches too: only the 3
            // surviving buckets are read.
            assert_eq!(t.io_stats().logical_reads, 3, "{threads} threads");
        }
    }

    #[test]
    fn quarantined_buckets_degrade_to_base_scan_with_correct_rows() {
        let t = sorted_table(40); // 20 buckets
        let healthy = minmax(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 5i64);
        let mut scan = SmaScan::new(&t, pred.clone(), &healthy);
        let expected = collect(&mut scan).unwrap();

        // Quarantine one bucket the predicate would have disqualified and
        // one it would have qualified: both must demote to filtered reads.
        let mut damaged = healthy.clone();
        damaged.quarantine_bucket(0);
        damaged.quarantine_bucket(10);
        let mut scan = SmaScan::new(&t, pred, &damaged);
        let rows = collect(&mut scan).unwrap();
        assert_eq!(keys(&rows), keys(&expected), "degraded run stays exact");
        let c = scan.counters();
        assert_eq!(c.degradation.demoted_buckets, vec![0, 10]);
        assert_eq!(c.degradation.quarantined_buckets, vec![0, 10]);
        assert!(c.degradation.inconsistent_buckets.is_empty());
        // Both demoted buckets were executed as ambivalent reads; the
        // other qualifying buckets kept their fast path.
        assert_eq!(c.ambivalent, 2);
        assert_eq!(c.qualified, 2);
        assert_eq!(c.disqualified, 16);
    }

    #[test]
    fn reopen_resets_counters() {
        let t = sorted_table(8);
        let smas = minmax(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 3i64);
        let mut scan = SmaScan::new(&t, pred, &smas);
        collect(&mut scan).unwrap();
        let first = scan.counters();
        collect(&mut scan).unwrap();
        assert_eq!(scan.counters(), first);
    }

    #[test]
    fn empty_table() {
        let t = sorted_table(0);
        let smas = minmax(&t);
        let mut scan = SmaScan::new(&t, BucketPred::cmp(0, CmpOp::Le, 3i64), &smas);
        assert!(collect(&mut scan).unwrap().is_empty());
        assert_eq!(scan.counters().total(), 0);
    }
}
