//! Built SMAs: bulkload, lookup, and incremental maintenance.
//!
//! A [`Sma`] is a definition materialized over one table: one [`SmaFile`]
//! per group (§2.3: "for every possible group, there will be a single
//! SMA-file"), all positionally aligned with the table's buckets.
//!
//! Maintenance follows the paper's cost contract (§2.1: "at most one
//! additional page access is needed for an updated tuple"): inserts update
//! the affected entry exactly; deletes update `sum`/`count` exactly and
//! leave `min`/`max` *conservatively loose* (the old bound still encloses
//! the bucket, so grading stays sound), marking the bucket stale so
//! [`Sma::refresh_bucket`] can retighten it from the data.

use std::collections::BTreeMap;
use std::fmt;

use sma_storage::{BucketNo, Table, TableError};
use sma_types::{Tuple, Value};

use crate::agg::{Accumulator, AggFn};
use crate::def::{DefError, SmaDefinition};
use crate::expr::ExprError;
use crate::file::SmaFile;
use crate::level2::Level2;

/// Group key: the projected grouping-column values (empty if ungrouped).
pub type GroupKey = Vec<Value>;

/// Errors from building or maintaining SMAs.
#[derive(Debug)]
pub enum SmaError {
    /// Definition failed validation.
    Def(DefError),
    /// Input expression failed at runtime.
    Expr(ExprError),
    /// Storage failed.
    Table(TableError),
    /// A persisted SMA image failed to decode.
    Corrupt(String),
    /// The page store failed while saving or loading a SMA.
    Store(sma_storage::StoreError),
}

impl fmt::Display for SmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmaError::Def(e) => write!(f, "{e}"),
            SmaError::Expr(e) => write!(f, "{e}"),
            SmaError::Table(e) => write!(f, "{e}"),
            SmaError::Corrupt(what) => write!(f, "corrupt sma image: {what}"),
            SmaError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SmaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SmaError::Def(e) => Some(e),
            SmaError::Expr(e) => Some(e),
            SmaError::Table(e) => Some(e),
            SmaError::Store(e) => Some(e),
            SmaError::Corrupt(_) => None,
        }
    }
}

impl From<DefError> for SmaError {
    fn from(e: DefError) -> SmaError {
        SmaError::Def(e)
    }
}

impl From<ExprError> for SmaError {
    fn from(e: ExprError) -> SmaError {
        SmaError::Expr(e)
    }
}

impl From<TableError> for SmaError {
    fn from(e: TableError) -> SmaError {
        SmaError::Table(e)
    }
}

impl From<sma_storage::StoreError> for SmaError {
    fn from(e: sma_storage::StoreError) -> SmaError {
        SmaError::Store(e)
    }
}

/// A SMA definition materialized over a table.
#[derive(Debug, Clone)]
pub struct Sma {
    pub(crate) def: SmaDefinition,
    pub(crate) entry_bytes: usize,
    pub(crate) n_buckets: u32,
    pub(crate) groups: BTreeMap<GroupKey, SmaFile>,
    /// Per bucket: whether any input value was `Null` (min/max grading
    /// soundness needs this — a `Null` never enters the bounds but fails
    /// every predicate).
    pub(crate) null_seen: Vec<bool>,
    /// Per bucket: whether a delete/update may have left min/max loose.
    pub(crate) stale: Vec<bool>,
    /// Per bucket: whether the entries are *quarantined* — flagged as
    /// damaged (corrupt page behind them, or an inconsistency observed at
    /// query time) and not to be trusted for grading or merging. Unlike
    /// `stale` (loose but sound bounds), quarantined entries may be
    /// arbitrary garbage; execution demotes such buckets to base-table
    /// scans and [`Sma::refresh_bucket`] heals them. Runtime state only —
    /// never persisted (a damaged SMA is simply not saved; recovery
    /// rebuilds it from the table).
    pub(crate) quarantined: Vec<bool>,
    /// The second level (§4): one entry per super-bucket for each group
    /// file, plus per-super-bucket flags. Derived from the fields above
    /// by every constructor and maintenance call; never persisted.
    pub(crate) level2: Level2,
}

impl Sma {
    /// Bulkloads `def` over `table` with a single sequential scan.
    pub fn build(table: &Table, def: SmaDefinition) -> Result<Sma, SmaError> {
        let mut smas = build_many(table, vec![def])?;
        let sma = smas.pop().ok_or_else(|| {
            SmaError::Corrupt("build_many returned no SMA for the single definition".into())
        })?;
        crate::validate::debug_check_sma(table, &sma);
        Ok(sma)
    }

    /// The definition this SMA materializes.
    pub fn def(&self) -> &SmaDefinition {
        &self.def
    }

    /// Number of buckets covered.
    pub fn n_buckets(&self) -> u32 {
        self.n_buckets
    }

    /// The groups (in key order) and their files.
    pub fn groups(&self) -> impl Iterator<Item = (&GroupKey, &SmaFile)> {
        self.groups.iter()
    }

    /// Number of SMA-files (= number of groups; 1 if ungrouped).
    pub fn file_count(&self) -> usize {
        self.groups.len()
    }

    /// The entry for `group` in `bucket`.
    pub fn entry(&self, group: &GroupKey, bucket: BucketNo) -> Option<&Value> {
        self.groups.get(group).and_then(|f| f.get(bucket))
    }

    /// The entry of an ungrouped SMA in `bucket`.
    pub fn entry_ungrouped(&self, bucket: BucketNo) -> Option<&Value> {
        debug_assert!(self.def.group_by.is_empty());
        self.entry(&Vec::new(), bucket)
    }

    /// Folds this SMA's entries for `bucket` across all groups with the
    /// SMA's own aggregate — e.g. the bucket-wide minimum of a grouped
    /// `min` SMA (§3.1: "we have to consider the maximum value of A for
    /// all groups").
    pub fn bucket_value_across_groups(&self, bucket: BucketNo) -> Value {
        let mut acc = Accumulator::new(self.def.agg);
        for file in self.groups.values() {
            if let Some(v) = file.get(bucket) {
                acc.merge(v);
            }
        }
        acc.finish()
    }

    /// Whether bucket `bucket` saw a `Null` input at build/maintenance time.
    ///
    /// A bucket this SMA has never covered answers `true`: nothing is
    /// known about it, so it cannot be certified null-free.
    pub fn saw_null(&self, bucket: BucketNo) -> bool {
        self.null_seen.get(bucket as usize).copied().unwrap_or(true)
    }

    /// Whether min/max bounds for `bucket` may be loose after deletions.
    ///
    /// A bucket this SMA has never covered answers `true`, matching
    /// [`Sma::saw_null`]: unknown bounds are exactly as untrustworthy as
    /// loosened ones, and grading must not treat them as tight.
    pub fn is_stale(&self, bucket: BucketNo) -> bool {
        self.stale.get(bucket as usize).copied().unwrap_or(true)
    }

    /// Flags `bucket`'s entries as damaged: grading stops trusting them,
    /// execution demotes the bucket to a base-table scan, and
    /// [`Sma::refresh_bucket`] (the heal path) clears the flag by
    /// recomputing the entries from the table.
    pub fn quarantine_bucket(&mut self, bucket: BucketNo) {
        let from = self.n_buckets;
        self.ensure_bucket(bucket);
        self.quarantined[bucket as usize] = true;
        self.sync_level2(from, bucket, None);
    }

    /// Whether `bucket`'s entries are quarantined. Out-of-range buckets
    /// answer `false`: they are *unknown* (see [`Sma::is_stale`]), not
    /// damaged, and need no healing.
    pub fn is_quarantined(&self, bucket: BucketNo) -> bool {
        self.quarantined
            .get(bucket as usize)
            .copied()
            .unwrap_or(false)
    }

    /// The quarantined buckets, in ascending order.
    pub fn quarantined_buckets(&self) -> Vec<BucketNo> {
        self.quarantined
            .iter()
            .enumerate()
            .filter(|(_, &q)| q)
            .map(|(b, _)| b as BucketNo)
            .collect()
    }

    /// Whether any bucket is quarantined.
    pub fn has_quarantine(&self) -> bool {
        self.quarantined.iter().any(|&q| q)
    }

    /// Total physical size across all this SMA's files, in 4 KiB pages.
    pub fn total_pages(&self) -> usize {
        self.groups.values().map(SmaFile::size_pages).sum()
    }

    /// Total physical size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.groups.values().map(SmaFile::size_bytes).sum()
    }

    fn default_entry(&self) -> Value {
        default_entry(self.def.agg)
    }

    fn ensure_bucket(&mut self, bucket: BucketNo) {
        if (bucket as usize) < self.n_buckets as usize {
            return;
        }
        let def = self.default_entry();
        for file in self.groups.values_mut() {
            while file.len() <= bucket {
                file.push(def.clone());
            }
        }
        self.null_seen.resize(bucket as usize + 1, false);
        self.stale.resize(bucket as usize + 1, false);
        self.quarantined.resize(bucket as usize + 1, false);
        self.n_buckets = bucket + 1;
    }

    fn ensure_group(&mut self, key: &GroupKey) {
        if !self.groups.contains_key(key) {
            let file = SmaFile::filled(
                self.entry_bytes,
                self.n_buckets as usize,
                self.default_entry(),
            );
            self.groups.insert(key.clone(), file);
        }
    }

    /// Maintains the SMA for a tuple inserted into `bucket`. Exact for all
    /// aggregates. O(1) — the paper's cheap-maintenance property — level 2
    /// included: one entry refolds from at most [`crate::level2::FANOUT`].
    pub fn note_insert(&mut self, bucket: BucketNo, tuple: &Tuple) -> Result<(), SmaError> {
        let from = self.n_buckets;
        let key = self.insert_level1(bucket, tuple);
        // Level 1 may have grown even when the call failed.
        self.sync_level2(from, bucket, key.as_ref().ok());
        key.map(drop)
    }

    /// Level 1 of [`Sma::note_insert`], returning the tuple's group key;
    /// bulk paths rebuild level 2 once instead.
    fn insert_level1(&mut self, bucket: BucketNo, tuple: &Tuple) -> Result<GroupKey, SmaError> {
        self.ensure_bucket(bucket);
        let key = self.def.group_key(tuple);
        self.ensure_group(&key);
        let v = self.def.input_value(tuple)?;
        if v.is_null() && matches!(self.def.agg, AggFn::Min | AggFn::Max) {
            self.null_seen[bucket as usize] = true;
        }
        let Some(file) = self.groups.get_mut(&key) else {
            // `ensure_group` above makes this unreachable; report anyway.
            return Err(SmaError::Def(DefError(format!(
                "insert into unknown group {key:?}"
            ))));
        };
        let mut acc = Accumulator::new(self.def.agg);
        acc.merge_entry_then_update(file.get(bucket), &v);
        file.set(bucket, acc.finish());
        Ok(key)
    }

    /// Maintains the SMA for a tuple deleted from `bucket`. Exact for
    /// `sum`/`count`; for `min`/`max` the old (now possibly loose) bound is
    /// kept and the bucket is marked stale.
    pub fn note_delete(&mut self, bucket: BucketNo, tuple: &Tuple) -> Result<(), SmaError> {
        let from = self.n_buckets;
        let key = self.delete_level1(bucket, tuple);
        self.sync_level2(from, bucket, key.as_ref().ok());
        key.map(drop)
    }

    /// Level 1 of [`Sma::note_delete`], returning the tuple's group key.
    fn delete_level1(&mut self, bucket: BucketNo, tuple: &Tuple) -> Result<GroupKey, SmaError> {
        self.ensure_bucket(bucket);
        let key = self.def.group_key(tuple);
        let v = self.def.input_value(tuple)?;
        match self.def.agg {
            AggFn::Min | AggFn::Max => {
                // Bound stays a superset of the bucket — sound but loose.
                self.stale[bucket as usize] = true;
                Ok(key)
            }
            AggFn::Sum | AggFn::Count => {
                let agg = self.def.agg;
                let Some(file) = self.groups.get_mut(&key) else {
                    return Err(SmaError::Def(DefError(format!(
                        "delete from unknown group {key:?}"
                    ))));
                };
                let current = file.get(bucket).cloned().unwrap_or(Value::Null);
                let mut acc = Accumulator::new(agg);
                acc.merge(&current);
                acc.retract(&v)
                    .map_err(|e| SmaError::Def(DefError(e.to_string())))?;
                file.set(bucket, acc.finish());
                Ok(key)
            }
        }
    }

    /// Maintains the SMA for an in-place update (old → new, same bucket).
    pub fn note_update(
        &mut self,
        bucket: BucketNo,
        old: &Tuple,
        new: &Tuple,
    ) -> Result<(), SmaError> {
        self.note_delete(bucket, old)?;
        self.note_insert(bucket, new)
    }

    /// Recomputes this SMA's entries for one bucket from the table,
    /// clearing staleness. Costs one bucket read — the "one additional
    /// page access" of §2.1.
    pub fn refresh_bucket(&mut self, table: &Table, bucket: BucketNo) -> Result<(), SmaError> {
        let from = self.n_buckets;
        let refreshed = self.refresh_level1(table, bucket);
        self.sync_level2(from, bucket, None);
        refreshed
    }

    /// Level 1 of [`Sma::refresh_bucket`].
    fn refresh_level1(&mut self, table: &Table, bucket: BucketNo) -> Result<(), SmaError> {
        self.ensure_bucket(bucket);
        // Reset every known group's entry, then re-accumulate.
        let def_entry = self.default_entry();
        for file in self.groups.values_mut() {
            file.set(bucket, def_entry.clone());
        }
        self.null_seen[bucket as usize] = false;
        let rows = table.scan_bucket(bucket)?;
        for (_, tuple) in &rows {
            self.insert_level1(bucket, tuple)?;
        }
        self.stale[bucket as usize] = false;
        self.quarantined[bucket as usize] = false;
        Ok(())
    }
}

impl Accumulator {
    /// Merges an existing SMA entry (if any) then folds one raw input —
    /// the common maintenance step.
    fn merge_entry_then_update(&mut self, entry: Option<&Value>, input: &Value) {
        if let Some(e) = entry {
            self.merge(e);
        }
        self.update(input);
    }
}

pub(crate) fn default_entry(agg: AggFn) -> Value {
    match agg {
        AggFn::Count => Value::Int(0),
        _ => Value::Null,
    }
}

/// Bulkloads several SMA definitions over `table` in **one** sequential
/// scan (the paper builds all eight Query 1 SMAs in under 15 minutes; a
/// shared scan is the obvious engineering of that).
pub fn build_many(table: &Table, defs: Vec<SmaDefinition>) -> Result<Vec<Sma>, SmaError> {
    let schema = table.schema();
    let mut smas: Vec<Sma> = Vec::with_capacity(defs.len());
    for def in defs {
        let entry_bytes = def.entry_bytes(schema)?;
        smas.push(Sma {
            def,
            entry_bytes,
            n_buckets: 0,
            groups: BTreeMap::new(),
            null_seen: Vec::new(),
            stale: Vec::new(),
            quarantined: Vec::new(),
            level2: Level2::default(),
        });
    }
    let n_buckets = table.bucket_count();
    let mut rows = Vec::new();
    for bucket in 0..n_buckets {
        rows.clear();
        for page in table.bucket_range(bucket) {
            table.scan_page_into(page, &mut rows)?;
        }
        for sma in &mut smas {
            fill_bucket_from_rows(sma, bucket, rows.iter().map(|(_, t)| t))?;
        }
        rows.clear();
    }
    for sma in &mut smas {
        sma.rebuild_level2();
    }
    Ok(smas)
}

/// Bulkloads several SMA definitions with `threads` worker threads, each
/// scanning a contiguous bucket range. Per-bucket summaries are
/// independent (§2.4: "its computation is independent of other buckets"),
/// so the partial results stitch together without coordination.
pub fn build_many_parallel(
    table: &Table,
    defs: Vec<SmaDefinition>,
    threads: usize,
) -> Result<Vec<Sma>, SmaError> {
    let threads = threads.max(1);
    let n_buckets = table.bucket_count();
    if threads == 1 || n_buckets < threads as u32 * 4 {
        return build_many(table, defs);
    }
    let schema = table.schema();
    for def in &defs {
        def.entry_bytes(schema)?;
    }
    let chunk = n_buckets.div_ceil(threads as u32);
    // Each worker produces, per definition, a sparse map
    // group -> (bucket, value) pairs plus null flags for its range.
    type Partial = Vec<(BTreeMap<GroupKey, Vec<(BucketNo, Value)>>, Vec<bool>)>;
    let results: Vec<Result<(u32, Partial), SmaError>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads as u32 {
            let defs = &defs;
            let start = (t * chunk).min(n_buckets);
            let end = ((t + 1) * chunk).min(n_buckets);
            handles.push(scope.spawn(move || -> Result<(u32, Partial), SmaError> {
                let mut partial: Partial = defs
                    .iter()
                    .map(|_| (BTreeMap::new(), vec![false; (end - start) as usize]))
                    .collect();
                let mut rows = Vec::new();
                for bucket in start..end {
                    rows.clear();
                    for page in table.bucket_range(bucket) {
                        table.scan_page_into(page, &mut rows)?;
                    }
                    for (def, (groups, nulls)) in defs.iter().zip(&mut partial) {
                        let mut accs: BTreeMap<GroupKey, Accumulator> = BTreeMap::new();
                        for (_, tuple) in &rows {
                            let v = def.input_value(tuple)?;
                            if v.is_null() && matches!(def.agg, AggFn::Min | AggFn::Max) {
                                nulls[(bucket - start) as usize] = true;
                            }
                            accs.entry(def.group_key(tuple))
                                .or_insert_with(|| Accumulator::new(def.agg))
                                .update(&v);
                        }
                        for (key, acc) in accs {
                            groups.entry(key).or_default().push((bucket, acc.finish()));
                        }
                    }
                }
                Ok((start, partial))
            }));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // sma-lint: allow(A3-error-swallowing) -- join's payload is Box<dyn Any>, not an error; it is converted to a typed error here
                Err(_) => Err(SmaError::Corrupt(
                    "parallel SMA build worker panicked".into(),
                )),
            })
            .collect()
    });

    // Stitch the partials, in bucket order.
    let mut smas: Vec<Sma> = defs
        .iter()
        .map(|def| {
            Ok(Sma {
                entry_bytes: def.entry_bytes(schema)?,
                def: def.clone(),
                n_buckets,
                groups: BTreeMap::new(),
                null_seen: vec![false; n_buckets as usize],
                stale: vec![false; n_buckets as usize],
                quarantined: vec![false; n_buckets as usize],
                level2: Level2::default(),
            })
        })
        .collect::<Result<_, SmaError>>()?;
    let mut ordered: Vec<(u32, Partial)> = results.into_iter().collect::<Result<_, _>>()?;
    ordered.sort_by_key(|(start, _)| *start);
    for (start, partial) in ordered {
        for (sma, (groups, nulls)) in smas.iter_mut().zip(partial) {
            for (offset, flag) in nulls.iter().enumerate() {
                if *flag {
                    sma.null_seen[start as usize + offset] = true;
                }
            }
            for (key, entries) in groups {
                sma.ensure_group(&key);
                // `ensure_group` just inserted the file, so this always
                // takes the Some branch.
                if let Some(file) = sma.groups.get_mut(&key) {
                    for (bucket, value) in entries {
                        file.set(bucket, value);
                    }
                }
            }
        }
    }
    // Align: every group file spans all buckets.
    for sma in &mut smas {
        let def_entry = default_entry(sma.def.agg);
        for file in sma.groups.values_mut() {
            while file.len() < n_buckets {
                file.push(def_entry.clone());
            }
        }
        sma.rebuild_level2();
    }
    Ok(smas)
}

fn fill_bucket_from_rows<'a>(
    sma: &mut Sma,
    bucket: BucketNo,
    rows: impl Iterator<Item = &'a Tuple>,
) -> Result<(), SmaError> {
    sma.ensure_bucket(bucket);
    for tuple in rows {
        sma.insert_level1(bucket, tuple)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;
    use sma_storage::Table;
    use sma_types::{Column, DataType, Date, Schema};
    use std::sync::Arc;

    /// Regression: the two out-of-range defaults used to disagree —
    /// `saw_null` answered `true` (conservative) for a bucket the SMA has
    /// never covered while `is_stale` answered `false`, so grading could
    /// treat completely unknown bounds as tight. Both must report the
    /// untrusted state.
    #[test]
    fn out_of_range_bucket_is_untrusted() {
        let t = fig1_table();
        let sma = build_many(&t, vec![SmaDefinition::new("min", AggFn::Min, col(0))])
            .unwrap()
            .remove(0);
        let beyond = t.bucket_count() + 5;
        assert!(sma.saw_null(beyond), "unknown bucket cannot be null-free");
        assert!(
            sma.is_stale(beyond),
            "unknown bucket cannot have tight bounds"
        );
        // In-range buckets built from non-null data stay trusted.
        assert!(!sma.saw_null(0));
        assert!(!sma.is_stale(0));
    }

    /// A small table shaped like Fig. 1 of the paper: one DATE column,
    /// one CHAR flag, padded so exactly 3 tuples fit per page.
    fn fig1_table() -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("SHIP", DataType::Date),
            Column::new("FLAG", DataType::Char),
            Column::new("PAD", DataType::Str),
        ]));
        let mut t = Table::in_memory("L", schema, 1);
        let dates = [
            "1997-03-11",
            "1997-04-22",
            "1997-02-02", // bucket 1
            "1997-04-01",
            "1997-05-07",
            "1997-04-28", // bucket 2
            "1997-05-02",
            "1997-05-20",
            "1997-06-03", // bucket 3
        ];
        let flags = [b'A', b'A', b'R', b'R', b'A', b'R', b'A', b'A', b'R'];
        let pad = "x".repeat(1200); // 3 tuples ≈ 3.6 KB per 4 KiB page
        for (d, f) in dates.iter().zip(flags) {
            t.append(&vec![
                Value::Date(Date::parse(d).unwrap()),
                Value::Char(f),
                Value::Str(pad.clone()),
            ])
            .unwrap();
        }
        assert_eq!(t.page_count(), 3, "fig. 1 layout: three buckets of three");
        t
    }

    fn date(s: &str) -> Value {
        Value::Date(Date::parse(s).unwrap())
    }

    #[test]
    fn fig1_min_max_count() {
        let t = fig1_table();
        let min = Sma::build(&t, SmaDefinition::new("min", AggFn::Min, col(0))).unwrap();
        let max = Sma::build(&t, SmaDefinition::new("max", AggFn::Max, col(0))).unwrap();
        let count = Sma::build(&t, SmaDefinition::count("count")).unwrap();
        // The exact values from Figure 1.
        assert_eq!(min.entry_ungrouped(0), Some(&date("1997-02-02")));
        assert_eq!(min.entry_ungrouped(1), Some(&date("1997-04-01")));
        assert_eq!(min.entry_ungrouped(2), Some(&date("1997-05-02")));
        assert_eq!(max.entry_ungrouped(0), Some(&date("1997-04-22")));
        assert_eq!(max.entry_ungrouped(1), Some(&date("1997-05-07")));
        assert_eq!(max.entry_ungrouped(2), Some(&date("1997-06-03")));
        for b in 0..3 {
            assert_eq!(count.entry_ungrouped(b), Some(&Value::Int(3)));
        }
        assert_eq!(min.file_count(), 1);
        assert_eq!(min.total_pages(), 1);
    }

    #[test]
    fn grouped_count_splits_by_flag() {
        let t = fig1_table();
        let c = Sma::build(&t, SmaDefinition::count("c").group_by(vec![1])).unwrap();
        assert_eq!(c.file_count(), 2, "two flags seen");
        let a_key = vec![Value::Char(b'A')];
        let r_key = vec![Value::Char(b'R')];
        assert_eq!(c.entry(&a_key, 0), Some(&Value::Int(2)));
        assert_eq!(c.entry(&r_key, 0), Some(&Value::Int(1)));
        assert_eq!(c.entry(&a_key, 1), Some(&Value::Int(1)));
        assert_eq!(c.entry(&r_key, 1), Some(&Value::Int(2)));
        assert_eq!(c.entry(&a_key, 2), Some(&Value::Int(2)));
        assert_eq!(c.entry(&r_key, 2), Some(&Value::Int(1)));
    }

    #[test]
    fn grouped_minmax_and_across_groups() {
        let t = fig1_table();
        let min = Sma::build(
            &t,
            SmaDefinition::new("min", AggFn::Min, col(0)).group_by(vec![1]),
        )
        .unwrap();
        // Across groups equals ungrouped min.
        assert_eq!(min.bucket_value_across_groups(0), date("1997-02-02"));
        assert_eq!(min.bucket_value_across_groups(2), date("1997-05-02"));
        // Group-local mins differ.
        assert_eq!(
            min.entry(&vec![Value::Char(b'R')], 0),
            Some(&date("1997-02-02"))
        );
        assert_eq!(
            min.entry(&vec![Value::Char(b'A')], 0),
            Some(&date("1997-03-11"))
        );
    }

    #[test]
    fn groups_absent_in_a_bucket_get_identity_entries() {
        let schema = Arc::new(Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("G", DataType::Char),
            Column::new("PAD", DataType::Str),
        ]));
        let mut t = Table::in_memory("t", schema, 1);
        let pad = "p".repeat(1800); // 2 tuples per page
                                    // Bucket 0: only group X. Bucket 1: only group Y.
        t.append(&vec![
            Value::Int(1),
            Value::Char(b'X'),
            Value::Str(pad.clone()),
        ])
        .unwrap();
        t.append(&vec![
            Value::Int(2),
            Value::Char(b'X'),
            Value::Str(pad.clone()),
        ])
        .unwrap();
        t.append(&vec![
            Value::Int(3),
            Value::Char(b'Y'),
            Value::Str(pad.clone()),
        ])
        .unwrap();
        t.append(&vec![
            Value::Int(4),
            Value::Char(b'Y'),
            Value::Str(pad.clone()),
        ])
        .unwrap();
        assert_eq!(t.page_count(), 2);
        let sum = Sma::build(
            &t,
            SmaDefinition::new("s", AggFn::Sum, col(0)).group_by(vec![1]),
        )
        .unwrap();
        let count = Sma::build(&t, SmaDefinition::count("c").group_by(vec![1])).unwrap();
        let x = vec![Value::Char(b'X')];
        let y = vec![Value::Char(b'Y')];
        assert_eq!(sum.entry(&x, 0), Some(&Value::Int(3)));
        assert_eq!(
            sum.entry(&x, 1),
            Some(&Value::Null),
            "absent group: Null sum"
        );
        assert_eq!(sum.entry(&y, 0), Some(&Value::Null));
        assert_eq!(sum.entry(&y, 1), Some(&Value::Int(7)));
        assert_eq!(
            count.entry(&x, 1),
            Some(&Value::Int(0)),
            "absent group: 0 count"
        );
        // Files stay positionally aligned.
        for (_, f) in sum.groups() {
            assert_eq!(f.len(), 2);
        }
    }

    #[test]
    fn insert_maintenance_is_exact() {
        let t = fig1_table();
        let mut min = Sma::build(&t, SmaDefinition::new("min", AggFn::Min, col(0))).unwrap();
        let mut count = Sma::build(&t, SmaDefinition::count("c")).unwrap();
        let new_tuple = vec![
            date("1997-01-15"),
            Value::Char(b'N'),
            Value::Str("p".into()),
        ];
        min.note_insert(0, &new_tuple).unwrap();
        count.note_insert(0, &new_tuple).unwrap();
        assert_eq!(min.entry_ungrouped(0), Some(&date("1997-01-15")));
        assert_eq!(count.entry_ungrouped(0), Some(&Value::Int(4)));
        // Insert into a brand-new bucket extends the files.
        min.note_insert(5, &new_tuple).unwrap();
        assert_eq!(min.n_buckets(), 6);
        assert_eq!(
            min.entry_ungrouped(3),
            Some(&Value::Null),
            "gap buckets empty"
        );
        assert_eq!(min.entry_ungrouped(5), Some(&date("1997-01-15")));
    }

    #[test]
    fn delete_keeps_minmax_sound_but_loose() {
        let t = fig1_table();
        let mut max = Sma::build(&t, SmaDefinition::new("max", AggFn::Max, col(0))).unwrap();
        let victim = vec![
            date("1997-04-22"),
            Value::Char(b'A'),
            Value::Str("p".into()),
        ];
        max.note_delete(0, &victim).unwrap();
        // Bound unchanged (loose) but marked stale.
        assert_eq!(max.entry_ungrouped(0), Some(&date("1997-04-22")));
        assert!(max.is_stale(0));
        assert!(!max.is_stale(1));
    }

    #[test]
    fn delete_updates_sum_count_exactly() {
        let t = fig1_table();
        let mut count = Sma::build(&t, SmaDefinition::count("c")).unwrap();
        let victim = t.scan_bucket(1).unwrap()[0].1.clone();
        count.note_delete(1, &victim).unwrap();
        assert_eq!(count.entry_ungrouped(1), Some(&Value::Int(2)));
        assert!(!count.is_stale(1), "count stays exact");
    }

    #[test]
    fn refresh_bucket_retightens() {
        let mut t = fig1_table();
        let mut max = Sma::build(&t, SmaDefinition::new("max", AggFn::Max, col(0))).unwrap();
        // Physically delete the bucket-0 maximum (1997-04-22, slot 1).
        let rows = t.scan_bucket(0).unwrap();
        let (vid, victim) = rows
            .iter()
            .find(|(_, tu)| tu[0] == date("1997-04-22"))
            .cloned()
            .unwrap();
        t.delete(vid).unwrap();
        max.note_delete(0, &victim).unwrap();
        assert!(max.is_stale(0));
        max.refresh_bucket(&t, 0).unwrap();
        assert!(!max.is_stale(0));
        assert_eq!(max.entry_ungrouped(0), Some(&date("1997-03-11")));
    }

    #[test]
    fn update_maintenance_combines_delete_insert() {
        let t = fig1_table();
        // Sums of dates are ill-typed and rejected at build time.
        assert!(Sma::build(&t, SmaDefinition::new("s", AggFn::Sum, col(0))).is_err());
        let mut count = Sma::build(&t, SmaDefinition::count("c").group_by(vec![1])).unwrap();
        let old = vec![
            date("1997-03-11"),
            Value::Char(b'A'),
            Value::Str("p".into()),
        ];
        let new = vec![
            date("1997-03-12"),
            Value::Char(b'R'),
            Value::Str("p".into()),
        ];
        count.note_update(0, &old, &new).unwrap();
        assert_eq!(
            count.entry(&vec![Value::Char(b'A')], 0),
            Some(&Value::Int(1))
        );
        assert_eq!(
            count.entry(&vec![Value::Char(b'R')], 0),
            Some(&Value::Int(2))
        );
    }

    #[test]
    fn null_inputs_flag_the_bucket() {
        let schema = Arc::new(Schema::new(vec![Column::new("D", DataType::Date)]));
        let mut t = Table::in_memory("t", schema, 1);
        t.append(&vec![date("1997-01-01")]).unwrap();
        t.append(&vec![Value::Null]).unwrap();
        let min = Sma::build(&t, SmaDefinition::new("m", AggFn::Min, col(0))).unwrap();
        assert!(min.saw_null(0));
        assert_eq!(min.entry_ungrouped(0), Some(&date("1997-01-01")));
        assert!(min.saw_null(99), "unknown buckets conservatively nullish");
    }

    #[test]
    fn build_many_matches_individual_builds() {
        let t = fig1_table();
        let defs = vec![
            SmaDefinition::new("min", AggFn::Min, col(0)),
            SmaDefinition::new("max", AggFn::Max, col(0)),
            SmaDefinition::count("count").group_by(vec![1]),
        ];
        let together = build_many(&t, defs.clone()).unwrap();
        for (def, built) in defs.into_iter().zip(&together) {
            let alone = Sma::build(&t, def).unwrap();
            assert_eq!(alone.groups, built.groups);
            assert_eq!(alone.null_seen, built.null_seen);
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        // Needs a table with enough buckets to actually split.
        let schema = Arc::new(Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("G", DataType::Char),
            Column::new("PAD", DataType::Str),
        ]));
        let mut t = Table::in_memory("t", schema, 1);
        let pad = "p".repeat(900);
        for k in 0..200i64 {
            t.append(&vec![
                Value::Int(k % 37),
                Value::Char(b'A' + (k % 3) as u8),
                Value::Str(pad.clone()),
            ])
            .unwrap();
        }
        assert!(t.bucket_count() >= 16);
        let defs = vec![
            SmaDefinition::new("min", AggFn::Min, col(0)),
            SmaDefinition::new("sum", AggFn::Sum, col(0)).group_by(vec![1]),
            SmaDefinition::count("count").group_by(vec![1]),
        ];
        let serial = build_many(&t, defs.clone()).unwrap();
        let parallel = build_many_parallel(&t, defs, 4).unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.groups, p.groups);
            assert_eq!(s.null_seen, p.null_seen);
            assert_eq!(s.n_buckets, p.n_buckets);
        }
    }
}
