//! The `SMA_GAggr` operator — Fig. 7 of the paper.
//!
//! Computes grouping + aggregation under a selection predicate using two
//! kinds of SMAs: *selection SMAs* (min/max, via the grading provider) to
//! classify buckets, and *aggregate SMAs* to answer qualifying buckets
//! without touching their pages. Only ambivalent buckets are read and
//! aggregated tuple-by-tuple. A pipeline breaker: the whole result is
//! computed in `open` ("within its init function, the result is
//! computed"), `next` merely streams it.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;

use sma_core::{BucketPred, Grade, Sma, SmaFile, SmaSet};
use sma_storage::QueryBudget;
use sma_types::{RowLayout, Tuple, Value};

use crate::colkernel::{aggregate_block, filter_block};
use crate::gaggr::{AggSpec, DenseGroups, GroupState};
use crate::op::{ExecError, PhysicalOp};
use crate::parallel::{morsels, Parallelism};
use crate::scan::ScanCounters;

/// How one query aggregate maps onto SMAs.
struct ResolvedSpec<'a> {
    /// SMA holding the base aggregate (`avg` → its `sum` SMA).
    sma: &'a Sma,
    /// Each of the SMA's group files, with the output-group slot its key
    /// projects to. Several files share a slot when the SMA grouping
    /// refines the query's.
    files: Vec<(usize, &'a SmaFile)>,
}

/// The SMA-driven grouping/aggregation operator.
pub struct SmaGAggr<'a> {
    table: &'a sma_storage::Table,
    pred: BucketPred,
    group_by: Vec<usize>,
    specs: Vec<AggSpec>,
    smas: &'a SmaSet,
    resolved: Vec<ResolvedSpec<'a>>,
    count_sma: ResolvedSpec<'a>,
    /// The output-group key of every slot the SMA group files map to.
    /// Qualifying buckets merge their entries straight into per-slot
    /// states, so answering one from SMAs allocates nothing.
    slot_keys: Vec<Vec<Value>>,
    /// Byte offsets of the row codec, computed once so ambivalent buckets
    /// can be filtered and aggregated on zero-copy views.
    layout: RowLayout,
    results: Vec<Tuple>,
    pos: usize,
    counters: ScanCounters,
    parallelism: Parallelism,
    /// Cooperative per-query budget, shared by all morsel workers (its
    /// state is atomic): checked once per bucket, charged per page read.
    budget: Option<&'a QueryBudget>,
}

fn resolve<'a>(
    smas: &'a SmaSet,
    agg: sma_core::AggFn,
    input: Option<&sma_core::ScalarExpr>,
    group_by: &[usize],
    what: &str,
    slot_of: &mut BTreeMap<Vec<Value>, usize>,
) -> Result<ResolvedSpec<'a>, ExecError> {
    let sma = smas
        .find_aggregate(agg, input, group_by)
        .ok_or_else(|| ExecError::MissingSma(format!("{agg} SMA for {what}")))?;
    let key_positions: Vec<usize> = group_by
        .iter()
        .filter_map(|qc| sma.def().group_by.iter().position(|g| g == qc))
        .collect();
    if key_positions.len() != group_by.len() {
        // `find_aggregate` guarantees grouping refinement; report rather
        // than assume if that contract is ever broken.
        return Err(ExecError::MissingSma(format!(
            "{agg} SMA grouping does not refine {what}"
        )));
    }
    let files = sma
        .groups()
        .map(|(key, file)| {
            let target: Vec<Value> = key_positions.iter().map(|&p| key[p].clone()).collect();
            let next = slot_of.len();
            (*slot_of.entry(target).or_insert(next), file)
        })
        .collect();
    Ok(ResolvedSpec { sma, files })
}

impl<'a> SmaGAggr<'a> {
    /// Creates the operator (Fig. 7's constructor: `SMA_GAggr(R, pred,
    /// aggregateSpec, groupSpec, selectionSMAs, aggregateSMAs)`; here one
    /// [`SmaSet`] plays both SMA roles). Fails fast with
    /// [`ExecError::MissingSma`] when an aggregate SMA is missing — the
    /// planner then falls back to a plain scan.
    pub fn new(
        table: &'a sma_storage::Table,
        pred: BucketPred,
        group_by: Vec<usize>,
        specs: Vec<AggSpec>,
        smas: &'a SmaSet,
    ) -> Result<SmaGAggr<'a>, ExecError> {
        // Every distinct projected group key becomes one output slot.
        let mut slot_of = BTreeMap::new();
        let mut resolved = Vec::with_capacity(specs.len());
        for spec in &specs {
            resolved.push(resolve(
                smas,
                spec.base_fn(),
                spec.input(),
                &group_by,
                &format!("{spec:?}"),
                &mut slot_of,
            )?);
        }
        // The hidden count(*) (group existence + averages).
        let count_sma = resolve(
            smas,
            sma_core::AggFn::Count,
            None,
            &group_by,
            "count(*)",
            &mut slot_of,
        )?;
        let mut slot_keys = vec![Vec::new(); slot_of.len()];
        for (key, slot) in slot_of {
            slot_keys[slot] = key;
        }
        let layout = RowLayout::new(table.schema());
        Ok(SmaGAggr {
            table,
            pred,
            group_by,
            specs,
            smas,
            resolved,
            count_sma,
            slot_keys,
            layout,
            results: Vec::new(),
            pos: 0,
            counters: ScanCounters::default(),
            parallelism: Parallelism::default(),
            budget: None,
        })
    }

    /// Sets the number of worker threads `open` uses for the bucket loop
    /// (default: one per available core). Results and counters are
    /// identical at any setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> SmaGAggr<'a> {
        self.parallelism = parallelism;
        self
    }

    /// Attaches a cooperative budget. Every morsel worker checks it at
    /// each bucket boundary and charges it the bucket's page count before
    /// an ambivalent (or demoted) base-table read; qualifying buckets are
    /// answered from in-memory SMA entries and charge nothing.
    pub fn with_budget(mut self, budget: &'a QueryBudget) -> SmaGAggr<'a> {
        self.budget = Some(budget);
        self
    }

    /// Bucket-level counters (meaningful after `open`).
    pub fn counters(&self) -> ScanCounters {
        self.counters.clone()
    }

    /// Whether any SMA this operator would draw entries from has `bucket`
    /// quarantined — if so the entries may be garbage and the bucket must
    /// be answered from the base table instead.
    fn aggregate_entries_quarantined(&self, bucket: u32) -> bool {
        self.count_sma.sma.is_quarantined(bucket)
            || self.resolved.iter().any(|r| r.sma.is_quarantined(bucket))
    }

    /// Whether the count SMA covers every group that received a
    /// materialized aggregate value in `bucket` — without that, group
    /// existence (and averages) would be computed from thin air. Checked
    /// before any entry is merged, so a failing bucket leaves the slots
    /// untouched and can be demoted to a base scan instead. `covered` is
    /// per-slot scratch, reused across buckets.
    fn count_covers_aggregates(&self, bucket: u32, covered: &mut [bool]) -> bool {
        covered.fill(false);
        for &(slot, file) in &self.count_sma.files {
            if file.get(bucket).is_some() {
                covered[slot] = true;
            }
        }
        self.resolved
            .iter()
            .flat_map(|r| &r.files)
            .all(|&(slot, file)| {
                covered[slot] || matches!(file.get(bucket), None | Some(Value::Null))
            })
    }

    /// Merges one qualifying bucket's SMA entries straight into the
    /// morsel's per-slot group states.
    fn merge_qualifying_entries(&self, bucket: u32, slots: &mut [GroupState]) {
        for (i, r) in self.resolved.iter().enumerate() {
            for &(slot, file) in &r.files {
                if let Some(v) = file.get(bucket) {
                    slots[slot].accs[i].merge(v);
                }
            }
        }
        for &(slot, file) in &self.count_sma.files {
            if let Some(v) = file.get(bucket) {
                slots[slot].hidden_count += v.as_int().unwrap_or(0);
            }
        }
    }

    /// Fig. 7's bucket loop over one contiguous morsel: grade each bucket,
    /// answer qualifying ones from SMA entries, scan ambivalent ones.
    /// Buckets whose SMA entries cannot be trusted (quarantined) or do not
    /// add up (inconsistent) are demoted to base-table scans — the base
    /// table is the ground truth, so the answer stays exact and only the
    /// fast path is lost. Pure with respect to `self`, so morsels run on
    /// worker threads.
    fn process_buckets(
        &self,
        range: Range<u32>,
    ) -> Result<(ScanCounters, BTreeMap<Vec<Value>, GroupState>), ExecError> {
        let mut counters = ScanCounters::default();
        let mut groups: BTreeMap<Vec<Value>, GroupState> = BTreeMap::new();
        // All-`Char` group keys (the Q1 shape) accumulate in a flat
        // direct-indexed table instead of the ordered map; it folds back
        // into `groups` once at the end of the morsel. Aggregate merging
        // is commutative, so the deferred fold changes nothing. The same
        // holds for the SMA slots qualifying buckets merge into.
        let mut dense = DenseGroups::try_new(self.table.schema(), &self.group_by);
        let mut slots: Vec<GroupState> = self
            .slot_keys
            .iter()
            .map(|_| GroupState::new(&self.specs))
            .collect();
        let mut covered = vec![false; self.slot_keys.len()];
        for bucket in range {
            if let Some(b) = self.budget {
                b.check()?;
            }
            match self.pred.grade(bucket, self.smas) {
                Grade::Qualifies => {
                    if self.aggregate_entries_quarantined(bucket) {
                        counters.ambivalent += 1;
                        counters.degradation.note_quarantined(bucket);
                        self.scan_ambivalent_bucket(bucket, &mut groups, &mut dense)?;
                    } else if self.count_covers_aggregates(bucket, &mut covered) {
                        counters.qualified += 1;
                        self.merge_qualifying_entries(bucket, &mut slots);
                    } else {
                        counters.ambivalent += 1;
                        counters.degradation.note_inconsistent(bucket);
                        self.scan_ambivalent_bucket(bucket, &mut groups, &mut dense)?;
                    }
                }
                Grade::Disqualifies => {
                    counters.disqualified += 1;
                }
                Grade::Ambivalent => {
                    counters.ambivalent += 1;
                    // Selection SMAs with a quarantined bucket grade it
                    // Ambivalent; the base scan below is the demotion.
                    if self.smas.is_bucket_quarantined(bucket) {
                        counters.degradation.note_quarantined(bucket);
                    }
                    self.scan_ambivalent_bucket(bucket, &mut groups, &mut dense)?;
                }
            }
        }
        if let Some(d) = dense {
            absorb_groups(&mut groups, d.into_groups());
        }
        absorb_groups(&mut groups, self.slot_keys.iter().cloned().zip(slots));
        Ok((counters, groups))
    }

    /// Reads one bucket straight out of the buffer pool's page frames:
    /// the predicate and the aggregate inputs are evaluated on zero-copy
    /// [`sma_types::RowView`]s, so qualifying tuples fold into their group
    /// without ever being materialized (no image copy, no `Vec<Value>`).
    fn scan_ambivalent_bucket(
        &self,
        bucket: u32,
        groups: &mut BTreeMap<Vec<Value>, GroupState>,
        dense: &mut Option<DenseGroups>,
    ) -> Result<(), ExecError> {
        if let Some(b) = self.budget {
            b.charge(self.table.bucket_range(bucket).len() as u64)?;
        }
        if let Some(block) = self.table.columnar_bucket(bucket)? {
            // Columnar layout: the batch kernels filter over the column
            // arrays and fold only the survivors, touching only the
            // columns the predicate and aggregates reference. Decoding
            // the block reads the same pages the row branch below would.
            let sel = filter_block(&block, &self.pred);
            return aggregate_block(&block, &sel, &self.group_by, &self.specs, groups, dense);
        }
        self.table
            .for_each_in_bucket::<ExecError, _>(bucket, |_, image| {
                let row = self.layout.view(image)?;
                if !self.pred.eval_view(&row)? {
                    return Ok(());
                }
                if let Some(d) = dense {
                    return d.update(&self.specs, &row);
                }
                let mut key = Vec::with_capacity(self.group_by.len());
                for &g in &self.group_by {
                    key.push(row.get(g)?);
                }
                groups
                    .entry(key)
                    .or_insert_with(|| GroupState::new(&self.specs))
                    .update_view(&self.specs, &row)
            })
    }
}

/// Merges morsel-local groups into the combined map.
pub(crate) fn absorb_groups(
    into: &mut BTreeMap<Vec<Value>, GroupState>,
    from: impl IntoIterator<Item = (Vec<Value>, GroupState)>,
) {
    for (key, state) in from {
        match into.entry(key) {
            Entry::Occupied(e) => e.into_mut().absorb(state),
            Entry::Vacant(e) => {
                e.insert(state);
            }
        }
    }
}

impl PhysicalOp for SmaGAggr<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.results.clear();
        self.pos = 0;
        self.counters = ScanCounters::default();
        let retries_at_open = self.table.io_stats().retried_reads;
        let n_buckets = self.table.bucket_count();
        let threads = self.parallelism.get().min(n_buckets.max(1) as usize);
        // Fig. 7: "forall bucket in buckets: switch(grade(bucket, pred))".
        // Buckets are independent (grading is in-memory arithmetic, pages
        // are disjoint), so the loop runs as contiguous morsels on worker
        // threads; partials merge back in bucket order, which keeps both
        // the result rows and the counters identical to the serial loop.
        let (mut counters, groups) = if threads <= 1 {
            self.process_buckets(0..n_buckets)?
        } else {
            let shared: &SmaGAggr<'_> = &*self;
            let partials: Vec<Result<_, ExecError>> = std::thread::scope(|scope| {
                let handles: Vec<_> = morsels(n_buckets, threads)
                    .into_iter()
                    .map(|r| scope.spawn(move || shared.process_buckets(r)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(r) => r,
                        // sma-lint: allow(A3-error-swallowing) -- join's payload is Box<dyn Any>, not an error; it is converted to a typed error here
                        Err(_) => Err(ExecError::Plan("bucket worker panicked".into())),
                    })
                    .collect()
            });
            let mut counters = ScanCounters::default();
            let mut groups: BTreeMap<Vec<Value>, GroupState> = BTreeMap::new();
            for partial in partials {
                let (c, partial_groups) = partial?;
                counters.qualified += c.qualified;
                counters.disqualified += c.disqualified;
                counters.ambivalent += c.ambivalent;
                // Bucket lists are sorted + deduplicated on merge, so the
                // combined report is identical at any worker count.
                counters.degradation.merge(&c.degradation);
                absorb_groups(&mut groups, partial_groups);
            }
            (counters, groups)
        };
        // Retries are a pool-level tally (morsels share the pool), so the
        // per-execution figure is the delta across the whole bucket loop.
        counters.degradation.retries_spent = self
            .table
            .io_stats()
            .retried_reads
            .saturating_sub(retries_at_open);
        self.counters = counters;
        // "Perform post processing for average aggregates" + drop groups
        // with no qualifying tuples.
        for (key, state) in groups {
            if state.hidden_count == 0 {
                continue;
            }
            let mut row = key;
            row.extend(state.finish(&self.specs));
            self.results.push(row);
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        if self.pos < self.results.len() {
            let t = std::mem::take(&mut self.results[self.pos]);
            self.pos += 1;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    fn close(&mut self) {
        self.results.clear();
    }

    fn describe(&self) -> String {
        format!(
            "SmaGAggr({}, by={:?}, aggs={}, pred={:?})",
            self.table.name(),
            self.group_by,
            self.specs.len(),
            self.pred
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{Filter, SeqScan};
    use crate::gaggr::HashGAggr;
    use crate::op::collect;
    use sma_core::{col, AggFn, CmpOp, SmaDefinition};
    use sma_storage::Table;
    use sma_types::{Column, DataType, Decimal, Schema};
    use std::sync::Arc;

    /// Sorted keyed table with a flag and a price, 2 tuples per page.
    fn make_table(n: i64) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("G", DataType::Char),
            Column::new("P", DataType::Decimal),
            Column::new("PAD", DataType::Str),
        ]));
        let mut t = Table::in_memory("t", schema, 1);
        let pad = "p".repeat(1700);
        for k in 0..n {
            t.append(&vec![
                Value::Int(k),
                Value::Char(b'A' + (k % 3) as u8),
                Value::Decimal(Decimal::from_cents(100 * k + 50)),
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
                SmaDefinition::new("min_k", AggFn::Min, col(0)).group_by(vec![1]),
                SmaDefinition::new("max_k", AggFn::Max, col(0)).group_by(vec![1]),
            ],
        )
        .unwrap()
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::CountStar,
            AggSpec::Sum(col(2)),
            AggSpec::Avg(col(2)),
            AggSpec::Min(col(0)),
            AggSpec::Max(col(0)),
        ]
    }

    fn baseline(t: &Table, pred: BucketPred) -> Vec<Tuple> {
        let mut g = HashGAggr::new(
            Box::new(Filter::new(Box::new(SeqScan::new(t)), pred)),
            vec![1],
            specs(),
        );
        collect(&mut g).unwrap()
    }

    #[test]
    fn matches_baseline_across_cutoffs() {
        let t = make_table(60);
        let smas = full_set(&t);
        for c in [-1i64, 0, 10, 29, 30, 59, 100] {
            let pred = BucketPred::cmp(0, CmpOp::Le, c);
            let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas).unwrap();
            let fast = collect(&mut op).unwrap();
            let slow = baseline(&t, pred);
            assert_eq!(fast, slow, "cutoff {c}");
        }
    }

    #[test]
    fn skips_buckets_and_uses_sma_answers() {
        let t = make_table(60); // 30 buckets
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 9i64); // 5 buckets survive
        let mut op = SmaGAggr::new(&t, pred, vec![1], specs(), &smas).unwrap();
        t.reset_io_stats();
        op.open().unwrap();
        let c = op.counters();
        assert_eq!(c.total(), 30);
        assert_eq!(c.disqualified, 25);
        assert_eq!(c.qualified, 5, "cutoff aligns with bucket boundary");
        assert_eq!(c.ambivalent, 0);
        assert_eq!(
            t.io_stats().logical_reads,
            0,
            "fully qualifying query answered from SMAs alone"
        );
    }

    #[test]
    fn ambivalent_buckets_read_and_filtered() {
        let t = make_table(60);
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 8i64); // splits bucket 4
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas).unwrap();
        t.reset_io_stats();
        op.open().unwrap();
        assert_eq!(op.counters().ambivalent, 1);
        assert_eq!(t.io_stats().logical_reads, 1, "only the split bucket read");
        // And the answer is still exact.
        let mut op2 = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas).unwrap();
        assert_eq!(collect(&mut op2).unwrap(), baseline(&t, pred));
    }

    #[test]
    fn missing_aggregate_sma_fails_fast() {
        let t = make_table(10);
        let only_minmax = SmaSet::build(
            &t,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
            ],
        )
        .unwrap();
        let result = SmaGAggr::new(
            &t,
            BucketPred::cmp(0, CmpOp::Le, 5i64),
            vec![1],
            specs(),
            &only_minmax,
        );
        match result {
            Err(ExecError::MissingSma(_)) => {}
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("expected MissingSma error"),
        }
    }

    #[test]
    fn finer_grouped_smas_serve_coarser_query() {
        let t = make_table(30);
        // SMAs grouped by (G, K%2-ish char)… simpler: group by [1, 0] is
        // overkill; group by [1] and query by [] (global aggregate).
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 100i64);
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![], specs(), &smas).unwrap();
        let fast = collect(&mut op).unwrap();
        let mut slow = HashGAggr::new(
            Box::new(Filter::new(Box::new(SeqScan::new(&t)), pred)),
            vec![],
            specs(),
        );
        assert_eq!(fast, collect(&mut slow).unwrap());
    }

    #[test]
    fn all_disqualified_yields_empty() {
        let t = make_table(20);
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Lt, 0i64);
        let mut op = SmaGAggr::new(&t, pred, vec![1], specs(), &smas).unwrap();
        assert!(collect(&mut op).unwrap().is_empty());
        assert_eq!(op.counters().disqualified, 20 / 2);
    }

    #[test]
    fn parallel_open_matches_serial_exactly() {
        let t = make_table(60);
        let smas = full_set(&t);
        // Le 8 splits bucket 4: qualifying, disqualified, and ambivalent
        // buckets all present, so every merge path runs.
        let pred = BucketPred::cmp(0, CmpOp::Le, 8i64);
        let mut serial = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let expected = collect(&mut serial).unwrap();
        let expected_counters = serial.counters();
        assert!(!expected.is_empty());
        for threads in [2, 3, 4, 8, 64] {
            let mut par = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas)
                .unwrap()
                .with_parallelism(Parallelism::new(threads));
            assert_eq!(collect(&mut par).unwrap(), expected, "{threads} threads");
            assert_eq!(par.counters(), expected_counters, "{threads} threads");
        }
    }

    /// A count SMA whose files stop short of a bucket that the aggregate
    /// SMAs do cover must neither drop the affected groups nor fail the
    /// query: the inconsistency demotes exactly the affected buckets to
    /// base-table scans, the answer stays correct, and the degradation
    /// report names every demoted bucket.
    #[test]
    fn count_sma_gap_demotes_to_scan_not_an_error() {
        let t = make_table(60); // 30 buckets
        let short = make_table(20); // 10 buckets
        let full = full_set(&t);
        let mut mismatched = SmaSet::new();
        for sma in full.smas() {
            if sma.def().agg != AggFn::Count {
                mismatched.push(sma.clone());
            }
        }
        // A count SMA built over the shorter table: same definition, but
        // its files have no entries for buckets 10..30.
        let truncated = SmaSet::build(
            &short,
            vec![SmaDefinition::count("count").group_by(vec![1])],
        )
        .unwrap();
        mismatched.push(truncated.smas()[0].clone());

        let pred = BucketPred::cmp(0, CmpOp::Le, 100i64); // every bucket qualifies
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &mismatched)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let rows = collect(&mut op).unwrap();
        assert_eq!(rows, baseline(&t, pred.clone()), "demoted run stays exact");
        let c = op.counters();
        assert_eq!(
            c.degradation.inconsistent_buckets,
            (10u32..30).collect::<Vec<_>>(),
            "exactly the uncovered buckets were demoted"
        );
        assert_eq!(c.degradation.demoted_buckets.len(), 20);
        assert_eq!(c.qualified, 10);
        assert_eq!(c.ambivalent, 20);
        // The parallel path produces the identical answer and report.
        let mut par = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &mismatched)
            .unwrap()
            .with_parallelism(Parallelism::new(4));
        assert_eq!(collect(&mut par).unwrap(), rows);
        assert_eq!(par.counters(), c);
    }

    /// SMAs grouped by `(G, H)` answer a query grouped by `G` and an
    /// ungrouped one, so several SMA group files fold into each output
    /// slot. A count SMA with no entry for one finer group — `(B, y)`,
    /// whose only row sits in bucket 6 — demotes exactly that bucket.
    #[test]
    fn refined_groupings_fold_into_slots_and_demote_a_count_gap() {
        let build = || {
            let schema = Arc::new(Schema::new(vec![
                Column::new("K", DataType::Int),
                Column::new("G", DataType::Char),
                Column::new("H", DataType::Char),
                Column::new("P", DataType::Decimal),
                Column::new("PAD", DataType::Str),
            ]));
            let mut t = Table::in_memory("t", schema, 1);
            let pad = "p".repeat(1700);
            let mut lone_b = None;
            for k in 0..40i64 {
                let g = match k {
                    13 => b'B',
                    _ if k % 2 == 0 => b'A',
                    _ => b'C',
                };
                let tid = t
                    .append(&vec![
                        Value::Int(k),
                        Value::Char(g),
                        Value::Char(b'x' + (k % 3) as u8),
                        Value::Decimal(Decimal::from_cents(100 * k + 50)),
                        Value::Str(pad.clone()),
                    ])
                    .unwrap();
                if g == b'B' {
                    lone_b = Some(tid);
                }
            }
            (t, lone_b.unwrap())
        };
        let (t, _) = build();
        assert_eq!(t.bucket_count(), 20);
        let fine = vec![1, 2];
        let count_def = || SmaDefinition::count("count").group_by(fine.clone());
        let smas = SmaSet::build(
            &t,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
                count_def(),
                SmaDefinition::new("sum_p", AggFn::Sum, col(3)).group_by(fine.clone()),
                SmaDefinition::new("min_k", AggFn::Min, col(0)).group_by(fine.clone()),
                SmaDefinition::new("max_k", AggFn::Max, col(0)).group_by(fine.clone()),
            ],
        )
        .unwrap();
        let specs = vec![
            AggSpec::CountStar,
            AggSpec::Sum(col(3)),
            AggSpec::Avg(col(3)),
            AggSpec::Min(col(0)),
            AggSpec::Max(col(0)),
        ];
        let pred = BucketPred::cmp(0, CmpOp::Le, 100i64); // every bucket qualifies
        let scan = |group_by: &[usize]| {
            let mut g = HashGAggr::new(
                Box::new(Filter::new(Box::new(SeqScan::new(&t)), pred.clone())),
                group_by.to_vec(),
                specs.clone(),
            );
            collect(&mut g).unwrap()
        };
        let run = |group_by: &[usize], set: &SmaSet, threads: usize| {
            let mut op = SmaGAggr::new(&t, pred.clone(), group_by.to_vec(), specs.clone(), set)
                .unwrap()
                .with_parallelism(Parallelism::new(threads));
            let rows = collect(&mut op).unwrap();
            (rows, op.counters())
        };

        for group_by in [vec![1], vec![]] {
            let expected = scan(&group_by);
            for threads in [1, 2, 8] {
                let (rows, c) = run(&group_by, &smas, threads);
                assert_eq!(rows, expected, "by {group_by:?}, {threads} threads");
                assert_eq!(c.qualified, 20, "answered from SMAs alone");
                assert!(c.degradation.demoted_buckets.is_empty());
            }
        }

        // The same count SMA built without the lone `B` row has no `(B, y)`
        // file, so nothing covers the `B` slot's sum in bucket 6.
        let (mut without_b, lone_b) = build();
        without_b.delete(lone_b).unwrap();
        let gapped = SmaSet::build(&without_b, vec![count_def()]).unwrap();
        let mut mismatched = SmaSet::new();
        for sma in smas.smas() {
            if sma.def().agg != AggFn::Count {
                mismatched.push(sma.clone());
            }
        }
        mismatched.push(gapped.smas()[0].clone());
        let expected = scan(&[1]);
        let (_, serial) = run(&[1], &mismatched, 1);
        for threads in [1, 2, 8] {
            let (rows, c) = run(&[1], &mismatched, threads);
            assert_eq!(rows, expected, "{threads} threads");
            assert_eq!(
                c.degradation.inconsistent_buckets,
                vec![6],
                "{threads} threads"
            );
            assert_eq!(c.degradation.demoted_buckets, vec![6], "{threads} threads");
            assert_eq!((c.qualified, c.ambivalent), (19, 1));
            assert_eq!(c, serial, "{threads} threads");
        }
    }

    /// Quarantined aggregate-SMA entries must not be trusted even when the
    /// selection SMAs still grade the bucket as fully qualifying.
    #[test]
    fn quarantined_aggregate_bucket_demotes_even_when_qualifying() {
        let t = make_table(60); // 30 buckets
        let full = full_set(&t);
        let mut damaged = SmaSet::new();
        for sma in full.smas() {
            let mut s = sma.clone();
            if s.def().name == "sum_p" {
                s.quarantine_bucket(3);
            }
            damaged.push(s);
        }
        let pred = BucketPred::cmp(0, CmpOp::Le, 100i64); // every bucket qualifies
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &damaged)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let rows = collect(&mut op).unwrap();
        assert_eq!(rows, baseline(&t, pred.clone()));
        let c = op.counters();
        assert_eq!(c.degradation.quarantined_buckets, vec![3]);
        assert_eq!(c.degradation.demoted_buckets, vec![3]);
        assert_eq!(c.qualified, 29);
        assert_eq!(c.ambivalent, 1);
        // Deterministic across worker counts.
        for threads in [2, 4, 8] {
            let mut par = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &damaged)
                .unwrap()
                .with_parallelism(Parallelism::new(threads));
            assert_eq!(collect(&mut par).unwrap(), rows, "{threads} threads");
            assert_eq!(par.counters(), c, "{threads} threads");
        }
    }

    /// Quarantining through the whole set (the `Warehouse` path) makes the
    /// bucket ambivalent at grading time; the answer still matches.
    #[test]
    fn set_wide_quarantine_degrades_but_stays_exact() {
        let t = make_table(60);
        let mut smas = full_set(&t);
        smas.quarantine_bucket(0);
        smas.quarantine_bucket(7);
        let pred = BucketPred::cmp(0, CmpOp::Le, 100i64);
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas).unwrap();
        let rows = collect(&mut op).unwrap();
        assert_eq!(rows, baseline(&t, pred));
        let c = op.counters();
        assert_eq!(c.degradation.quarantined_buckets, vec![0, 7]);
        assert_eq!(c.ambivalent, 2);
    }

    /// Columnar conversion must leave the operator's rows, counters, and
    /// I/O totals untouched at every thread count — ambivalent columnar
    /// buckets run the batch kernels, everything else is unchanged.
    /// Quarantine demotions land on the kernel path too, and stay exact.
    #[test]
    fn columnar_buckets_match_row_aggregation_exactly() {
        let mut t = make_table(60); // 30 buckets
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 8i64); // splits bucket 4
        t.reset_io_stats();
        let mut row_op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let expected = collect(&mut row_op).unwrap();
        let expected_counters = row_op.counters();
        let expected_reads = t.io_stats().logical_reads;
        let converted = t.convert_buckets_from(0).unwrap();
        assert!(!converted.is_empty());
        for threads in [1, 2, 8] {
            t.reset_io_stats();
            let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas)
                .unwrap()
                .with_parallelism(Parallelism::new(threads));
            assert_eq!(collect(&mut op).unwrap(), expected, "{threads} threads");
            assert_eq!(op.counters(), expected_counters, "{threads} threads");
            assert_eq!(
                t.io_stats().logical_reads,
                expected_reads,
                "{threads} threads"
            );
        }
        // Quarantined buckets demote to columnar kernel scans and the
        // answer still matches the tuple-at-a-time oracle.
        let mut damaged = smas.clone();
        damaged.quarantine_bucket(1);
        damaged.quarantine_bucket(3);
        let wide = BucketPred::cmp(0, CmpOp::Le, 100i64);
        let mut op = SmaGAggr::new(&t, wide.clone(), vec![1], specs(), &damaged).unwrap();
        assert_eq!(collect(&mut op).unwrap(), baseline(&t, wide));
        assert_eq!(op.counters().degradation.quarantined_buckets, vec![1, 3]);
    }

    #[test]
    fn or_predicate_still_correct() {
        let t = make_table(40);
        let smas = full_set(&t);
        let pred = BucketPred::Or(vec![
            BucketPred::cmp(0, CmpOp::Le, 5i64),
            BucketPred::cmp(0, CmpOp::Ge, 35i64),
        ]);
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas).unwrap();
        assert_eq!(collect(&mut op).unwrap(), baseline(&t, pred));
    }
}
