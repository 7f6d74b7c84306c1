//! The `SMA_GAggr` operator — Fig. 7 of the paper — and the one bucket
//! loop every aggregate plan runs.
//!
//! Computes grouping + aggregation under a selection predicate using two
//! kinds of SMAs: *selection SMAs* (min/max, via the grading provider) to
//! classify buckets, and *aggregate SMAs* to answer qualifying buckets
//! without touching their pages. Only ambivalent buckets are read and
//! aggregated tuple-by-tuple. A pipeline breaker: the whole result is
//! computed in `open` ("within its init function, the result is
//! computed"), `next` merely streams it.
//!
//! Buckets are graded once per query: the planner hands over the
//! classification it priced the plan with, and a standalone operator
//! classifies in `open` before any worker starts. The morsel loop only
//! reads grades.
//!
//! A super-bucket (§4) whose buckets all qualify is answered from level 2:
//! one entry per group file instead of one per bucket and file.
//!
//! The full scan is the same loop with no SMAs, so every bucket is
//! ambivalent. The planner takes the loop's unfinished group states, folds
//! the memtable overlay into them, and finishes them once.
//!
//! A loop that will read more pages than the buffer pool holds gives each
//! worker a [`PrivateFrame`] of its own, the paper's intra-transaction
//! buffer (§2.4): once the pool is full, its misses go through that frame
//! and evict nothing, so the scan leaves the pool's resident pages for the
//! next query instead of cycling it.
//!
//! The workers start on contiguous morsels and steal from each other's
//! unclaimed buckets when theirs run out (`run_morsels`): each folds
//! every range it claims into one partial, and the partials merge once.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;

use sma_core::{BucketPred, Classification, CompiledPred, Grade, Sma, SmaSet, LEVEL2_FANOUT};
use sma_storage::{PrivateFrame, QueryBudget};
use sma_types::{RowLayout, Tuple, Value};

use crate::gaggr::{AggSpec, DenseGroups, GroupState, RowFold};
use crate::op::{ExecError, PhysicalOp};
use crate::parallel::{run_morsels, Parallelism};
use crate::scan::ScanCounters;

/// Unfinished group states by group key: what the bucket loop yields
/// before the one `finish`, with `avg` still a sum.
pub(crate) type Groups = BTreeMap<Vec<Value>, GroupState>;

/// How one query aggregate maps onto SMAs.
struct ResolvedSpec<'a> {
    /// SMA holding the base aggregate (`avg` → its `sum` SMA).
    sma: &'a Sma,
    /// Each of the SMA's group files. Several files share a slot when the
    /// SMA grouping refines the query's.
    files: Vec<SlotFile<'a>>,
}

/// One SMA group file as the operator reads it.
struct SlotFile<'a> {
    /// The output-group slot the file's key projects to.
    slot: usize,
    /// The file's entries at level 1 (one per bucket) and at level 2 (one
    /// per super-bucket).
    levels: [&'a [Value]; 2],
}

/// The SMAs a `SmaGAggr` plan draws on: the set that graded the buckets,
/// and every aggregate mapped onto output-group slots.
struct SmaSlots<'a> {
    set: &'a SmaSet,
    resolved: Vec<ResolvedSpec<'a>>,
    count_sma: ResolvedSpec<'a>,
    /// The output-group key of every slot the SMA group files map to.
    /// Qualifying buckets merge their entries straight into per-slot
    /// states, so answering one from SMAs allocates nothing.
    slot_keys: Vec<Vec<Value>>,
    /// Level-2 entries of the aggregate files whose slot no count file
    /// maps to: a super-bucket where any of them is defined fails the
    /// count-coverage check.
    uncounted: Vec<&'a [Value]>,
}

/// The SMA-driven grouping/aggregation operator.
pub struct SmaGAggr<'a> {
    table: &'a sma_storage::Table,
    pred: BucketPred,
    group_by: Vec<usize>,
    specs: Vec<AggSpec>,
    /// `None` for the full scan, which consults no SMA.
    smas: Option<SmaSlots<'a>>,
    /// Byte offsets of the row codec, computed once so ambivalent buckets
    /// can be filtered and aggregated on zero-copy views.
    layout: RowLayout,
    /// `pred` compiled against `layout`: the per-row filter.
    filter: CompiledPred,
    /// The aggregate inputs compiled against `layout`: the per-row fold.
    fold: RowFold,
    results: Vec<Tuple>,
    pos: usize,
    counters: ScanCounters,
    parallelism: Parallelism,
    /// Cooperative per-query budget, shared by all morsel workers (its
    /// state is atomic): checked once per bucket, and charged a bucket's
    /// whole page range before the bucket is read.
    budget: Option<&'a QueryBudget>,
    /// Every bucket's grade under `pred`, when the planner already
    /// computed them; `open` classifies itself otherwise.
    planned: Option<&'a [Grade]>,
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
            SlotFile {
                slot: *slot_of.entry(target).or_insert(next),
                levels: [file.entries(), sma.super_entries(key).unwrap_or_default()],
            }
        })
        .collect();
    Ok(ResolvedSpec { sma, files })
}

impl<'a> SmaSlots<'a> {
    /// Maps every aggregate of `specs`, plus the hidden `count(*)`, onto
    /// its SMA in `smas`; every distinct projected group key becomes one
    /// output slot.
    fn resolve(
        smas: &'a SmaSet,
        group_by: &[usize],
        specs: &[AggSpec],
    ) -> Result<SmaSlots<'a>, ExecError> {
        let mut slot_of = BTreeMap::new();
        let mut resolved = Vec::with_capacity(specs.len());
        for spec in specs {
            resolved.push(resolve(
                smas,
                spec.base_fn(),
                spec.input(),
                group_by,
                &format!("{spec:?}"),
                &mut slot_of,
            )?);
        }
        // The hidden count(*) (group existence + averages).
        let count_sma = resolve(
            smas,
            sma_core::AggFn::Count,
            None,
            group_by,
            "count(*)",
            &mut slot_of,
        )?;
        let mut slot_keys = vec![Vec::new(); slot_of.len()];
        for (key, slot) in slot_of {
            slot_keys[slot] = key;
        }
        let mut counted = vec![false; slot_keys.len()];
        for f in &count_sma.files {
            counted[f.slot] = true;
        }
        let uncounted = resolved
            .iter()
            .flat_map(|r| &r.files)
            .filter(|f| !counted[f.slot])
            .map(|f| f.levels[1])
            .collect();
        Ok(SmaSlots {
            set: smas,
            resolved,
            count_sma,
            slot_keys,
            uncounted,
        })
    }

    /// Whether any SMA the answer would draw entries from has `bucket`
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
        for f in &self.count_sma.files {
            if f.levels[0].get(bucket as usize).is_some() {
                covered[f.slot] = true;
            }
        }
        self.resolved.iter().flat_map(|r| &r.files).all(|f| {
            covered[f.slot] || matches!(f.levels[0].get(bucket as usize), None | Some(Value::Null))
        })
    }

    /// Whether super-bucket `sb` can be answered from level 2: all its
    /// grades are Qualifies, every SMA the answer draws on covers it with
    /// no quarantined bucket, and the count SMA covers every aggregate
    /// value in it. Then every one of its buckets would pass the
    /// per-bucket checks, and merging its level-2 entries equals merging
    /// each bucket's.
    fn super_bucket_qualifies(&self, sb: u32, grades: &[Grade]) -> bool {
        let start = (sb * LEVEL2_FANOUT) as usize;
        let end = start + LEVEL2_FANOUT as usize;
        grades
            .get(start..end)
            .is_some_and(|g| g.iter().all(|&g| g == Grade::Qualifies))
            && std::iter::once(self.count_sma.sma)
                .chain(self.resolved.iter().map(|r| r.sma))
                .all(|sma| sma.n_buckets() as usize >= end && sma.super_flags(sb).clean)
            && self
                .uncounted
                .iter()
                .all(|e| matches!(e.get(sb as usize), None | Some(Value::Null)))
    }

    /// Merges the SMA entries at `index` of `level` — one qualifying
    /// bucket's (level 0) or one qualifying super-bucket's (level 1) —
    /// straight into the morsel's per-slot group states.
    fn merge_entries(&self, level: usize, index: u32, slots: &mut [GroupState]) {
        for (i, r) in self.resolved.iter().enumerate() {
            for f in &r.files {
                if let Some(v) = f.levels[level].get(index as usize) {
                    slots[f.slot].accs[i].merge(v);
                }
            }
        }
        for f in &self.count_sma.files {
            if let Some(v) = f.levels[level].get(index as usize) {
                slots[f.slot].hidden_count += v.as_int().unwrap_or(0);
            }
        }
    }
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
        let slots = SmaSlots::resolve(smas, &group_by, &specs)?;
        Ok(SmaGAggr {
            smas: Some(slots),
            ..SmaGAggr::full_scan(table, pred, group_by, specs)
        })
    }

    /// The full scan: the same loop with no SMA consulted, so every bucket
    /// is ambivalent and is read and filtered.
    pub(crate) fn full_scan(
        table: &'a sma_storage::Table,
        pred: BucketPred,
        group_by: Vec<usize>,
        specs: Vec<AggSpec>,
    ) -> SmaGAggr<'a> {
        let layout = RowLayout::new(table.schema());
        SmaGAggr {
            table,
            filter: CompiledPred::new(&pred, &layout),
            fold: RowFold::new(&specs, &layout),
            layout,
            pred,
            group_by,
            specs,
            smas: None,
            results: Vec::new(),
            pos: 0,
            counters: ScanCounters::default(),
            parallelism: Parallelism::default(),
            budget: None,
            planned: None,
        }
    }

    /// Sets the number of worker threads `open` uses for the bucket loop
    /// (default: one per available core). Results and counters are
    /// identical at any setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> SmaGAggr<'a> {
        self.parallelism = parallelism;
        self
    }

    /// Attaches a cooperative budget. Every morsel worker checks it at
    /// each bucket boundary and charges it the bucket's whole page range
    /// before an ambivalent (or demoted) base-table read; qualifying
    /// buckets are answered from in-memory SMA entries and charge nothing.
    pub fn with_budget(mut self, budget: &'a QueryBudget) -> SmaGAggr<'a> {
        self.budget = Some(budget);
        self
    }

    /// Reuses the planner's grades of `pred` — one per bucket, from
    /// [`Classification::classify`] over the same table and SMA set — so
    /// the query grades its buckets once.
    pub(crate) fn with_grades(mut self, grades: &'a [Grade]) -> SmaGAggr<'a> {
        self.planned = Some(grades);
        self
    }

    /// Bucket-level counters (meaningful after `open`).
    pub fn counters(&self) -> ScanCounters {
        self.counters.clone()
    }

    /// A worker's empty partial. With `private`, the worker reads its
    /// base pages through a frame of its own (see the module doc).
    fn partial(&self, private: bool) -> Partial {
        let slots = self.smas.as_ref().map_or(0, |s| s.slot_keys.len());
        Partial {
            frame: private.then(PrivateFrame::new),
            counters: ScanCounters::default(),
            groups: Groups::new(),
            dense: DenseGroups::try_new(&self.layout, &self.group_by),
            slots: (0..slots).map(|_| GroupState::new(&self.specs)).collect(),
            covered: vec![false; slots],
        }
    }

    /// Fig. 7's bucket loop over one contiguous range, folded into the
    /// worker's partial: switch on each bucket's grade (`grades` holds one
    /// per bucket of the table), answer qualifying ones from SMA entries —
    /// a whole qualifying super-bucket inside the range from its level-2
    /// entries — and read the others through the per-bucket kernel.
    /// Buckets whose SMA entries cannot be trusted (quarantined) or do not
    /// add up (inconsistent) are demoted to base-table reads — the base
    /// table is the ground truth, so the answer stays exact and only the
    /// fast path is lost. Pure with respect to `self`, so ranges run on
    /// worker threads.
    fn process_buckets(
        &self,
        partial: &mut Partial,
        range: Range<u32>,
        grades: &[Grade],
    ) -> Result<(), ExecError> {
        let Partial {
            frame,
            counters,
            groups,
            dense,
            slots,
            covered,
        } = partial;
        let mut bucket = range.start;
        while bucket < range.end {
            if let Some(b) = self.budget {
                b.check()?;
            }
            if let Some(s) = &self.smas {
                let sb = bucket / LEVEL2_FANOUT;
                if bucket.is_multiple_of(LEVEL2_FANOUT)
                    && bucket + LEVEL2_FANOUT <= range.end
                    && s.super_bucket_qualifies(sb, grades)
                {
                    counters.qualified += u64::from(LEVEL2_FANOUT);
                    s.merge_entries(1, sb, slots);
                    bucket += LEVEL2_FANOUT;
                    continue;
                }
            }
            match (grades[bucket as usize], self.smas.as_ref()) {
                (Grade::Disqualifies, _) => counters.disqualified += 1,
                (Grade::Qualifies, Some(s)) => {
                    if s.aggregate_entries_quarantined(bucket) {
                        counters.ambivalent += 1;
                        counters.degradation.note_quarantined(bucket);
                        self.aggregate_bucket(bucket, frame.as_mut(), groups, dense)?;
                    } else if s.count_covers_aggregates(bucket, covered) {
                        counters.qualified += 1;
                        s.merge_entries(0, bucket, slots);
                    } else {
                        counters.ambivalent += 1;
                        counters.degradation.note_inconsistent(bucket);
                        self.aggregate_bucket(bucket, frame.as_mut(), groups, dense)?;
                    }
                }
                (_, smas) => {
                    counters.ambivalent += 1;
                    // Selection SMAs with a quarantined bucket grade it
                    // Ambivalent; the base read below is the demotion.
                    if smas.is_some_and(|s| s.set.is_bucket_quarantined(bucket)) {
                        counters.degradation.note_quarantined(bucket);
                    }
                    self.aggregate_bucket(bucket, frame.as_mut(), groups, dense)?;
                }
            }
            bucket += 1;
        }
        Ok(())
    }

    /// The per-bucket kernel. It charges the bucket's whole page range,
    /// then reads the bucket straight out of the buffer pool's page
    /// frames: the compiled predicate and aggregate inputs run on
    /// zero-copy [`sma_types::RowView`]s, so qualifying tuples fold into
    /// their group without ever being materialized.
    fn aggregate_bucket(
        &self,
        bucket: u32,
        frame: Option<&mut PrivateFrame>,
        groups: &mut Groups,
        dense: &mut Option<DenseGroups>,
    ) -> Result<(), ExecError> {
        if let Some(b) = self.budget {
            b.charge(self.table.bucket_range(bucket).len() as u64)?;
        }
        self.table
            .for_each_in_bucket::<ExecError, _>(bucket, frame, |_, image| {
                let row = self.layout.view(image)?;
                if !self.filter.eval(&row)? {
                    return Ok(());
                }
                if let Some(d) = dense {
                    return d.update(&self.specs, &self.fold, &row);
                }
                let mut key = Vec::with_capacity(self.group_by.len());
                for &g in &self.group_by {
                    key.push(row.get(g)?);
                }
                groups
                    .entry(key)
                    .or_insert_with(|| GroupState::new(&self.specs))
                    .fold_view(&self.fold, &row)
            })
    }

    /// Runs the bucket loop and returns the unfinished group states, so a
    /// caller can fold more rows into them before [`finish_groups`]; the
    /// counters are set as by `open`.
    pub(crate) fn aggregate(&mut self) -> Result<Groups, ExecError> {
        self.counters = ScanCounters::default();
        let retries_at_open = self.table.io_stats().retried_reads;
        let n_buckets = self.table.bucket_count();
        // Fig. 7: "forall bucket in buckets: switch(grade(bucket, pred))".
        // The grades come from one pass — the planner's, or this one —
        // before any worker starts; with no SMA every bucket is
        // ambivalent. Buckets are independent (pages are disjoint), so the
        // loop runs on worker threads over disjoint ranges that cover
        // every bucket once; group states and counters merge
        // commutatively, which keeps both the result rows and the counters
        // identical to the serial loop.
        let computed;
        let grades = match (self.planned, &self.smas) {
            (Some(grades), _) => grades,
            (None, Some(s)) => {
                computed = Classification::classify(&self.pred, n_buckets, s.set).grades;
                &computed
            }
            (None, None) => {
                computed = vec![Grade::Ambivalent; n_buckets as usize];
                &computed
            }
        };
        if grades.len() != n_buckets as usize {
            return Err(ExecError::Plan(format!(
                "{} grades for a table of {n_buckets} buckets",
                grades.len()
            )));
        }
        // The pages the loop reads: every ambivalent bucket's (with no SMA,
        // every bucket's). More than the pool holds, and the workers read
        // past a full pool through frames of their own.
        let ambivalent = grades.iter().filter(|&&g| g == Grade::Ambivalent).count();
        let pages = ambivalent as u64 * u64::from(self.table.bucket_pages());
        let private = pages > self.table.pool_capacity() as u64;
        let shared: &SmaGAggr<'_> = &*self;
        let partials = run_morsels(
            n_buckets,
            self.parallelism.get(),
            || shared.partial(private),
            |partial, r| shared.process_buckets(partial, r, grades),
        )?;
        let slot_keys = self.smas.as_ref().map_or(&[][..], |s| &s.slot_keys);
        let mut counters = ScanCounters::default();
        let mut groups = Groups::new();
        for p in partials {
            let c = p.counters;
            counters.qualified += c.qualified;
            counters.disqualified += c.disqualified;
            counters.ambivalent += c.ambivalent;
            // Bucket lists are sorted + deduplicated on merge, so the
            // combined report is identical at any worker count.
            counters.degradation.merge(&c.degradation);
            // The dense table and the SMA slots fold into the ordered map
            // only here, once per worker. Aggregate merging is
            // commutative, so the deferred fold changes nothing.
            absorb_groups(&mut groups, p.groups);
            if let Some(d) = p.dense {
                absorb_groups(&mut groups, d.into_groups());
            }
            absorb_groups(&mut groups, slot_keys.iter().cloned().zip(p.slots));
        }
        if self.smas.is_some() {
            // Retries are a pool-level tally (morsels share the pool), so
            // the per-execution figure is the delta across the whole
            // bucket loop. The full scan consults no SMA and reports
            // nothing.
            counters.degradation.retries_spent = self
                .table
                .io_stats()
                .retried_reads
                .saturating_sub(retries_at_open);
        }
        self.counters = counters;
        Ok(groups)
    }
}

/// What one worker folds every range it claims into.
struct Partial {
    /// The worker's frame for reads past a full pool, when the loop reads
    /// more pages than the pool holds.
    frame: Option<PrivateFrame>,
    counters: ScanCounters,
    /// Groups keyed by value, for group keys the dense table cannot hold.
    groups: Groups,
    /// All-`Char` group keys (the Q1 shape) and the ungrouped aggregate
    /// accumulate in this flat direct-indexed table instead of `groups`.
    dense: Option<DenseGroups>,
    /// One group state per SMA slot: qualifying buckets merge their
    /// entries here.
    slots: Vec<GroupState>,
    /// Per-slot scratch for the count-coverage check.
    covered: Vec<bool>,
}

/// Merges worker-local groups into the combined map.
fn absorb_groups(into: &mut Groups, from: impl IntoIterator<Item = (Vec<Value>, GroupState)>) {
    for (key, state) in from {
        match into.entry(key) {
            Entry::Occupied(e) => e.into_mut().absorb(state),
            Entry::Vacant(e) => {
                e.insert(state);
            }
        }
    }
}

/// Fig. 7's "perform post processing for average aggregates": every group
/// with at least one qualifying tuple becomes one `key ++ aggregates`
/// row, in key order, with averages divided by the count.
pub(crate) fn finish_groups(groups: Groups, specs: &[AggSpec]) -> Vec<Tuple> {
    groups
        .into_iter()
        .filter(|(_, state)| state.hidden_count > 0)
        .map(|(mut key, state)| {
            key.extend(state.finish(specs));
            key
        })
        .collect()
}

impl PhysicalOp for SmaGAggr<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.results.clear();
        self.pos = 0;
        let groups = self.aggregate()?;
        self.results = finish_groups(groups, &self.specs);
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

    /// Every worker count answers like the serial loop. The 70-bucket
    /// table holds four whole super-buckets, so at 2 threads a morsel
    /// boundary (bucket 35) falls inside super-bucket 2 and whole
    /// qualifying super-buckets sit on both sides of it; at 8 threads
    /// every morsel is shorter than a super-bucket.
    #[test]
    fn parallel_open_matches_serial_exactly() {
        // Le 8 splits bucket 4: qualifying, disqualified, and ambivalent
        // buckets all present, so every merge path runs. Le 100 splits
        // bucket 50; Le 1000 qualifies every bucket.
        for (rows, cutoff) in [(60, 8i64), (140, 8), (140, 100), (140, 1000)] {
            let t = make_table(rows);
            let smas = full_set(&t);
            let pred = BucketPred::cmp(0, CmpOp::Le, cutoff);
            let mut serial = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas)
                .unwrap()
                .with_parallelism(Parallelism::serial());
            let expected = collect(&mut serial).unwrap();
            let expected_counters = serial.counters();
            assert!(!expected.is_empty());
            assert_eq!(
                expected,
                baseline(&t, pred.clone()),
                "{rows} rows, Le {cutoff}"
            );
            for threads in [2, 3, 4, 8, 64] {
                let ctx = format!("{rows} rows, Le {cutoff}, {threads} threads");
                let mut par = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas)
                    .unwrap()
                    .with_parallelism(Parallelism::new(threads));
                assert_eq!(collect(&mut par).unwrap(), expected, "{ctx}");
                assert_eq!(par.counters(), expected_counters, "{ctx}");
            }
        }
    }

    /// Exactly the whole super-buckets whose grades are all Qualifies,
    /// whose SMAs are clean and whose count SMA covers every aggregate
    /// value take the level-2 merge; the partial last one never does.
    #[test]
    fn whole_qualifying_super_buckets_merge_from_level_2() {
        let t = make_table(140); // 70 buckets: super-buckets 0..=3 whole
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 100i64); // splits bucket 50
        let grades = Classification::classify(&pred, t.bucket_count(), &smas).grades;
        let op = SmaSlots::resolve(&smas, &[1], &specs()).unwrap();
        let level2: Vec<bool> = (0..5)
            .map(|sb| op.super_bucket_qualifies(sb, &grades))
            .collect();
        assert_eq!(level2, [true, true, true, false, false]);
        let mut damaged = SmaSet::new();
        for sma in smas.smas() {
            let mut s = sma.clone();
            if s.def().name == "sum_p" {
                s.quarantine_bucket(20);
            }
            damaged.push(s);
        }
        let op = SmaSlots::resolve(&damaged, &[1], &specs()).unwrap();
        assert!(op.super_bucket_qualifies(0, &grades));
        assert!(
            !op.super_bucket_qualifies(1, &grades),
            "bucket 20 is quarantined"
        );
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
    /// whose only row sits in bucket 6 — demotes exactly that bucket. The
    /// 70-bucket input puts bucket 6 in an all-Qualifies super-bucket,
    /// which then falls back to the per-bucket path while the other whole
    /// super-buckets merge from level 2.
    #[test]
    fn refined_groupings_fold_into_slots_and_demote_a_count_gap() {
        for n_rows in [40i64, 140] {
            refined_groupings_case(n_rows);
        }
    }

    fn refined_groupings_case(n_rows: i64) {
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
            for k in 0..n_rows {
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
        let n = u64::from(t.bucket_count());
        assert_eq!(n, n_rows as u64 / 2);
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
        let pred = BucketPred::cmp(0, CmpOp::Le, 1000i64); // every bucket qualifies
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
                assert_eq!(c.qualified, n, "answered from SMAs alone");
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
            assert_eq!((c.qualified, c.ambivalent), (n - 1, 1));
            assert_eq!(c, serial, "{threads} threads");
        }
    }

    /// The 70-bucket input quarantines one bucket of an all-Qualifies
    /// super-bucket: that super-bucket falls back to the per-bucket path.
    #[test]
    fn quarantined_aggregate_bucket_demotes_even_when_qualifying() {
        for rows in [60, 140] {
            let t = make_table(rows);
            let n = u64::from(t.bucket_count());
            let full = full_set(&t);
            let mut damaged = SmaSet::new();
            for sma in full.smas() {
                let mut s = sma.clone();
                if s.def().name == "sum_p" {
                    s.quarantine_bucket(3);
                }
                damaged.push(s);
            }
            let pred = BucketPred::cmp(0, CmpOp::Le, 1000i64); // every bucket qualifies
            let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &damaged)
                .unwrap()
                .with_parallelism(Parallelism::serial());
            let rows = collect(&mut op).unwrap();
            assert_eq!(rows, baseline(&t, pred.clone()));
            let c = op.counters();
            assert_eq!(c.degradation.quarantined_buckets, vec![3]);
            assert_eq!(c.degradation.demoted_buckets, vec![3]);
            assert_eq!(c.qualified, n - 1);
            assert_eq!(c.ambivalent, 1);
            // Deterministic across worker counts.
            for threads in [1, 2, 4, 8] {
                let mut par = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &damaged)
                    .unwrap()
                    .with_parallelism(Parallelism::new(threads));
                assert_eq!(collect(&mut par).unwrap(), rows, "{threads} threads");
                assert_eq!(par.counters(), c, "{threads} threads");
            }
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

    /// Fed the planner's grades, the operator answers exactly as when it
    /// grades itself — rows, counters and degradation report — at every
    /// worker count, healthy and with set-wide or aggregate-SMA
    /// quarantines.
    #[test]
    fn planner_grades_match_self_grading() {
        let t = make_table(60); // 30 buckets
        let healthy = full_set(&t);
        let mut set_wide = healthy.clone();
        set_wide.quarantine_bucket(0);
        set_wide.quarantine_bucket(7);
        let mut aggregate_only = SmaSet::new();
        for sma in healthy.smas() {
            let mut s = sma.clone();
            if s.def().name == "sum_p" {
                s.quarantine_bucket(3);
            }
            aggregate_only.push(s);
        }
        for (name, smas) in [
            ("healthy", &healthy),
            ("set-wide", &set_wide),
            ("aggregate", &aggregate_only),
        ] {
            // Le 8 splits bucket 4; Le 100 qualifies every bucket.
            for cutoff in [8i64, 100] {
                let pred = BucketPred::cmp(0, CmpOp::Le, cutoff);
                let grades = Classification::classify(&pred, t.bucket_count(), smas);
                for threads in [1, 2, 8] {
                    let run = |planned: Option<&[Grade]>| {
                        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), smas)
                            .unwrap()
                            .with_parallelism(Parallelism::new(threads));
                        if let Some(g) = planned {
                            op = op.with_grades(g);
                        }
                        let rows = collect(&mut op).unwrap();
                        (rows, op.counters())
                    };
                    let planned = run(Some(&grades.grades));
                    let ctx = format!("{name}, cutoff {cutoff}, {threads} threads");
                    assert_eq!(planned, run(None), "{ctx}");
                    assert_eq!(planned.0, baseline(&t, pred.clone()), "{ctx}");
                    assert_eq!(
                        planned.1.degradation.demoted_buckets.is_empty(),
                        name == "healthy",
                        "{ctx}"
                    );
                }
            }
        }
        // Grades for another table's bucket count are refused, not misread.
        let pred = BucketPred::cmp(0, CmpOp::Le, 8i64);
        let short = Classification::classify(&pred, 5, &healthy);
        let mut op = SmaGAggr::new(&t, pred, vec![1], specs(), &healthy)
            .unwrap()
            .with_grades(&short.grades);
        assert!(matches!(op.open(), Err(ExecError::Plan(_))));
    }

    /// Over a LINEITEM table about twice its pool, a full scan reads the
    /// misses past the full pool through its workers' own frames. From
    /// the second scan on, the pool keeps the pages it holds, so each scan
    /// reads exactly `page_count - capacity` pages physically (cycling an
    /// LRU pool reads all of them again), with identical rows at every
    /// worker count. A page cap still stops the scan before the bucket
    /// whose charge trips, and an SMA plan whose reads fit the pool still
    /// warms it.
    #[test]
    fn scans_larger_than_the_pool_keep_its_pages() {
        use crate::query1::{cutoff, query1_query};
        use sma_storage::BudgetExceeded;
        use sma_tpcd::{generate_lineitem_table, Clustering, GenConfig};
        let t = generate_lineitem_table(&GenConfig {
            orders: 3_000,
            pool_pages: 200,
            ..GenConfig::tiny(Clustering::SortedByShipdate)
        });
        let (pages, capacity) = (u64::from(t.page_count()), t.pool_capacity() as u64);
        assert!((380..=420).contains(&pages), "{pages} pages");
        let q = query1_query(&t, cutoff(90)).unwrap();
        let scan = |threads: usize| {
            SmaGAggr::full_scan(&t, q.pred.clone(), q.group_by.clone(), q.specs.clone())
                .with_parallelism(Parallelism::new(threads))
        };
        let mut expected: Option<Vec<Tuple>> = None;
        for threads in [1, 2, 8] {
            t.make_cold().unwrap();
            for pass in 0..3 {
                t.reset_io_stats();
                let rows = collect(&mut scan(threads)).unwrap();
                let io = t.io_stats();
                let ctx = format!("{threads} threads, pass {pass}");
                assert_eq!(io.logical_reads, pages, "{ctx}");
                let physical = if pass == 0 { pages } else { pages - capacity };
                assert_eq!(io.physical_reads, physical, "{ctx}");
                assert_eq!(io.physical_writes, 0, "{ctx}");
                match &expected {
                    Some(e) => assert_eq!(&rows, e, "{ctx}"),
                    None => expected = Some(rows),
                }
            }
        }
        // A page cap stops the scan before the bucket whose charge trips:
        // serially the scan reads exactly the capped pages, in parallel
        // no more.
        let cap = pages / 2;
        for threads in [1, 2, 8] {
            let budget = QueryBudget::unbounded().with_page_cap(cap);
            t.reset_io_stats();
            let err = scan(threads).with_budget(&budget).aggregate().unwrap_err();
            assert!(
                matches!(err, ExecError::Budget(BudgetExceeded::Pages { .. })),
                "{threads} threads: {err}"
            );
            let read = t.io_stats().logical_reads;
            assert!(read <= cap, "{threads} threads read {read} pages");
            if threads == 1 {
                assert_eq!(read, cap);
            }
        }
        // A serial scan from cold leaves the lowest pages resident; the Q1
        // plan's ambivalent bucket sits near the end of the ship-date
        // order, so its first run misses and installs, and its second
        // reads nothing.
        let smas = SmaSet::build_query1_set(&t).unwrap();
        t.make_cold().unwrap();
        collect(&mut scan(1)).unwrap();
        let run = || {
            let mut op = SmaGAggr::new(
                &t,
                q.pred.clone(),
                q.group_by.clone(),
                q.specs.clone(),
                &smas,
            )
            .unwrap()
            .with_parallelism(Parallelism::serial());
            t.reset_io_stats();
            let rows = collect(&mut op).unwrap();
            assert!(op.counters().ambivalent > 0);
            (rows, t.io_stats().physical_reads)
        };
        let (rows, first) = run();
        assert_eq!(Some(&rows), expected.as_ref());
        assert!(first > 0, "the ambivalent pages were not resident");
        assert_eq!(run(), (rows, 0), "the second run reads nothing");
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
