//! SMA sets: "a single SMA is rarely useful, but in most situations a set
//! of SMAs is required to answer a query efficiently" (§1).
//!
//! [`SmaSet`] owns all SMAs built over one table, implements the grading
//! [`StatsProvider`] on top of whatever min/max/count SMAs exist, finds
//! aggregate SMAs matching a query's grouping (§2.3: the SMA "has to
//! reflect the grouping of the query or a finer grouping"), and carries
//! maintenance fan-out to every member.

use sma_storage::{BucketNo, Table};
use sma_types::{Tuple, Value};

use crate::agg::{Accumulator, AggFn};
use crate::def::SmaDefinition;
use crate::expr::{col, dec_lit, ScalarExpr};
use crate::grade::StatsProvider;
use crate::level2::Level2Col;
use crate::sma::{build_many, build_many_parallel, GroupKey, Sma, SmaError};

/// A collection of SMAs over one table.
#[derive(Debug, Clone, Default)]
pub struct SmaSet {
    smas: Vec<Sma>,
}

impl SmaSet {
    /// Builds all `defs` over `table` in one shared scan.
    pub fn build(table: &Table, defs: Vec<SmaDefinition>) -> Result<SmaSet, SmaError> {
        Ok(SmaSet {
            smas: build_many(table, defs)?,
        })
    }

    /// Builds all `defs` with `threads` parallel workers.
    pub fn build_parallel(
        table: &Table,
        defs: Vec<SmaDefinition>,
        threads: usize,
    ) -> Result<SmaSet, SmaError> {
        Ok(SmaSet {
            smas: build_many_parallel(table, defs, threads)?,
        })
    }

    /// An empty set (add members via [`SmaSet::push`]).
    pub fn new() -> SmaSet {
        SmaSet::default()
    }

    /// Adds a built SMA.
    pub fn push(&mut self, sma: Sma) {
        self.smas.push(sma);
    }

    /// All member SMAs.
    pub fn smas(&self) -> &[Sma] {
        &self.smas
    }

    /// The member named `name`.
    pub fn by_name(&self, name: &str) -> Option<&Sma> {
        self.smas.iter().find(|s| s.def().name == name)
    }

    /// The min SMA over bare column `c` (grouped or not), if any.
    pub fn min_sma_for(&self, c: usize) -> Option<&Sma> {
        self.smas
            .iter()
            .find(|s| s.def().minmax_column() == Some((AggFn::Min, c)))
    }

    /// The max SMA over bare column `c` (grouped or not), if any.
    pub fn max_sma_for(&self, c: usize) -> Option<&Sma> {
        self.smas
            .iter()
            .find(|s| s.def().minmax_column() == Some((AggFn::Max, c)))
    }

    /// The count SMA grouped *solely* by column `c`, if any — the shape
    /// §3.1's `count_{A,i}[x]` rules need.
    pub fn count_sma_grouped_by(&self, c: usize) -> Option<&Sma> {
        self.smas
            .iter()
            .find(|s| s.def().agg == AggFn::Count && s.def().group_by == [c])
    }

    /// Finds an aggregate SMA computing `agg(input)` whose grouping equals
    /// or refines (`⊇`) `query_group_by`. Finer groupings are usable
    /// because their entries re-aggregate to the coarser groups.
    pub fn find_aggregate(
        &self,
        agg: AggFn,
        input: Option<&ScalarExpr>,
        query_group_by: &[usize],
    ) -> Option<&Sma> {
        self.smas.iter().find(|s| {
            s.def().agg == agg
                && s.def().input.as_ref() == input
                && query_group_by.iter().all(|g| s.def().group_by.contains(g))
        })
    }

    /// Total physical size of every file in the set, in 4 KiB pages —
    /// the paper's headline space number (8444 pages for Query 1 at SF 1).
    pub fn total_pages(&self) -> usize {
        self.smas.iter().map(Sma::total_pages).sum()
    }

    /// Total number of SMA-files (the paper counts 26 for Query 1).
    pub fn file_count(&self) -> usize {
        self.smas.iter().map(Sma::file_count).sum()
    }

    /// Fans an insert out to every member SMA.
    pub fn note_insert(&mut self, bucket: BucketNo, tuple: &Tuple) -> Result<(), SmaError> {
        for s in &mut self.smas {
            s.note_insert(bucket, tuple)?;
        }
        Ok(())
    }

    /// Fans a delete out to every member SMA.
    pub fn note_delete(&mut self, bucket: BucketNo, tuple: &Tuple) -> Result<(), SmaError> {
        for s in &mut self.smas {
            s.note_delete(bucket, tuple)?;
        }
        Ok(())
    }

    /// Fans an in-place update out to every member SMA.
    pub fn note_update(
        &mut self,
        bucket: BucketNo,
        old: &Tuple,
        new: &Tuple,
    ) -> Result<(), SmaError> {
        for s in &mut self.smas {
            s.note_update(bucket, old, new)?;
        }
        Ok(())
    }

    /// Refreshes every member's entries for `bucket` from the table.
    /// Clears any quarantine on the bucket: the entries are authoritative
    /// again after a rescan.
    pub fn refresh_bucket(&mut self, table: &Table, bucket: BucketNo) -> Result<(), SmaError> {
        for s in &mut self.smas {
            s.refresh_bucket(table, bucket)?;
        }
        Ok(())
    }

    /// Marks `bucket` as quarantined in every member SMA: its entries may
    /// be garbage (corrupt page, inconsistent counts) and must not be
    /// trusted for grading until [`SmaSet::refresh_bucket`] rebuilds them.
    pub fn quarantine_bucket(&mut self, bucket: BucketNo) {
        for s in &mut self.smas {
            s.quarantine_bucket(bucket);
        }
    }

    /// Whether *any* member SMA has `bucket` quarantined. One damaged
    /// member poisons the whole bucket because query answers may draw on
    /// every SMA in the set.
    pub fn is_bucket_quarantined(&self, bucket: BucketNo) -> bool {
        self.smas.iter().any(|s| s.is_quarantined(bucket))
    }

    /// Sorted, deduplicated list of buckets quarantined in at least one
    /// member SMA.
    pub fn quarantined_buckets(&self) -> Vec<BucketNo> {
        let mut out: Vec<BucketNo> = Vec::new();
        for s in &self.smas {
            out.extend(s.quarantined_buckets());
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether any member SMA carries quarantined buckets.
    pub fn has_quarantine(&self) -> bool {
        self.smas.iter().any(Sma::has_quarantine)
    }

    /// The definitions of Fig. 4: the eight SMAs that answer TPC-D
    /// Query 1. Column indexes are resolved from `table`'s schema by the
    /// TPC-D names, so any LINEITEM-shaped table works.
    pub fn query1_definitions(table: &Table) -> Result<Vec<SmaDefinition>, SmaError> {
        let schema = table.schema();
        let need = |name: &str| -> Result<usize, SmaError> {
            schema.index_of(name).ok_or_else(|| {
                SmaError::Def(crate::def::DefError(format!(
                    "table {:?} lacks column {name}",
                    table.name()
                )))
            })
        };
        let shipdate = need("L_SHIPDATE")?;
        let retflag = need("L_RETURNFLAG")?;
        let linestat = need("L_LINESTATUS")?;
        let qty = need("L_QUANTITY")?;
        let ext = need("L_EXTENDEDPRICE")?;
        let dis = need("L_DISCOUNT")?;
        let tax = need("L_TAX")?;
        let groups = vec![retflag, linestat];
        let one_minus_dis = dec_lit("1.00").sub(col(dis));
        let one_plus_tax = dec_lit("1.00").add(col(tax));
        Ok(vec![
            SmaDefinition::new("max", AggFn::Max, col(shipdate)),
            SmaDefinition::new("min", AggFn::Min, col(shipdate)),
            SmaDefinition::count("count").group_by(groups.clone()),
            SmaDefinition::new("qty", AggFn::Sum, col(qty)).group_by(groups.clone()),
            SmaDefinition::new("dis", AggFn::Sum, col(dis)).group_by(groups.clone()),
            SmaDefinition::new("ext", AggFn::Sum, col(ext)).group_by(groups.clone()),
            SmaDefinition::new("extdis", AggFn::Sum, col(ext).mul(one_minus_dis.clone()))
                .group_by(groups.clone()),
            SmaDefinition::new(
                "extdistax",
                AggFn::Sum,
                col(ext).mul(one_minus_dis).mul(one_plus_tax),
            )
            .group_by(groups),
        ])
    }

    /// Builds the Fig. 4 set over a LINEITEM-shaped table.
    pub fn build_query1_set(table: &Table) -> Result<SmaSet, SmaError> {
        let defs = Self::query1_definitions(table)?;
        SmaSet::build(table, defs)
    }
}

impl StatsProvider for SmaSet {
    fn min_of(&self, c: usize, bucket: BucketNo) -> Option<Value> {
        let sma = self.min_sma_for(c)?;
        if sma.is_quarantined(bucket) {
            return None;
        }
        match sma.bucket_value_across_groups(bucket) {
            Value::Null => None,
            v => Some(v),
        }
    }

    fn max_of(&self, c: usize, bucket: BucketNo) -> Option<Value> {
        let sma = self.max_sma_for(c)?;
        if sma.is_quarantined(bucket) {
            return None;
        }
        match sma.bucket_value_across_groups(bucket) {
            Value::Null => None,
            v => Some(v),
        }
    }

    fn null_free(&self, c: usize, bucket: BucketNo) -> bool {
        // Known null-free iff a min or max SMA on the column was built and
        // never saw a Null in this bucket (tracked at build/maintenance).
        // Stale bounds are loose-but-sound, so they forfeit only the
        // null-free claim; quarantined entries are possibly garbage and
        // forfeit everything.
        self.min_sma_for(c)
            .or_else(|| self.max_sma_for(c))
            .map(|s| !s.saw_null(bucket) && !s.is_stale(bucket) && !s.is_quarantined(bucket))
            .unwrap_or(false)
    }

    fn level2(&self, c: usize) -> Level2Col<'_> {
        match (self.min_sma_for(c), self.max_sma_for(c)) {
            (Some(min), Some(max)) => Level2Col::MinMax { min, max },
            // Without a min/max pair the bounds rules never fire, and
            // without a count SMA on `c` neither do the count rules.
            _ if self.count_sma_grouped_by(c).is_none() => Level2Col::Absent,
            _ => Level2Col::Unknown,
        }
    }

    fn distinct_counts(&self, c: usize, bucket: BucketNo) -> Option<Vec<(Value, i64)>> {
        let sma = self.count_sma_grouped_by(c)?;
        if sma.is_quarantined(bucket) {
            return None;
        }
        let mut out = Vec::new();
        for (key, file) in sma.groups() {
            let n = file.get(bucket)?.as_int().unwrap_or(0);
            out.push((key[0].clone(), n));
        }
        Some(out)
    }
}

/// Re-aggregates a grouped SMA's bucket entries to a coarser query
/// grouping: for each SMA group whose projection onto `query_cols` is
/// `target`, merge the entry for `bucket` into `acc`.
pub fn merge_bucket_into_group(
    sma: &Sma,
    bucket: BucketNo,
    query_cols: &[usize],
    target: &GroupKey,
    acc: &mut Accumulator,
) {
    let positions: Vec<usize> = query_cols
        .iter()
        .filter_map(|qc| sma.def().group_by.iter().position(|g| g == qc))
        .collect();
    if positions.len() != query_cols.len() {
        // Callers pre-check grouping compatibility (`covers_grouping`); an
        // incompatible SMA contributes nothing rather than panicking.
        return;
    }
    for (key, file) in sma.groups() {
        let projected: Vec<Value> = positions.iter().map(|&p| key[p].clone()).collect();
        if &projected == target {
            if let Some(v) = file.get(bucket) {
                acc.merge(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grade::{BucketPred, CmpOp, Grade};
    use sma_types::{Column, DataType, Date, Schema};
    use std::sync::Arc;

    fn date(s: &str) -> Value {
        Value::Date(Date::parse(s).unwrap())
    }

    /// Fig. 1-shaped table: 3 buckets × 3 tuples, DATE + CHAR flag.
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
            "1997-02-02",
            "1997-04-01",
            "1997-05-07",
            "1997-04-28",
            "1997-05-02",
            "1997-05-20",
            "1997-06-03",
        ];
        let flags = [b'A', b'A', b'R', b'R', b'A', b'R', b'A', b'A', b'R'];
        let pad = "x".repeat(1200);
        for (d, f) in dates.iter().zip(flags) {
            t.append(&vec![date(d), Value::Char(f), Value::Str(pad.clone())])
                .unwrap();
        }
        t
    }

    fn fig1_set(t: &Table) -> SmaSet {
        SmaSet::build(
            t,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
                SmaDefinition::count("count"),
                SmaDefinition::count("per_flag").group_by(vec![1]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn section_2_2_grading_through_a_real_set() {
        let t = fig1_table();
        let set = fig1_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Lt, date("1997-04-30"));
        assert_eq!(pred.grade(0, &set), Grade::Qualifies);
        assert_eq!(pred.grade(1, &set), Grade::Ambivalent);
        assert_eq!(pred.grade(2, &set), Grade::Disqualifies);
    }

    #[test]
    fn provider_surfaces_minmax() {
        let t = fig1_table();
        let set = fig1_set(&t);
        assert_eq!(set.min_of(0, 0), Some(date("1997-02-02")));
        assert_eq!(set.max_of(0, 2), Some(date("1997-06-03")));
        assert_eq!(set.min_of(1, 0), None, "no SMA on FLAG min/max");
        assert!(set.null_free(0, 0));
        assert!(!set.null_free(1, 0));
    }

    #[test]
    fn provider_surfaces_distinct_counts() {
        let t = fig1_table();
        let set = fig1_set(&t);
        let counts = set.distinct_counts(1, 0).unwrap();
        assert!(counts.contains(&(Value::Char(b'A'), 2)));
        assert!(counts.contains(&(Value::Char(b'R'), 1)));
        assert_eq!(set.distinct_counts(0, 0), None, "no count SMA by SHIP");
    }

    #[test]
    fn lookup_helpers() {
        let t = fig1_table();
        let set = fig1_set(&t);
        assert!(set.by_name("min").is_some());
        assert!(set.by_name("nope").is_none());
        assert!(set.min_sma_for(0).is_some());
        assert!(set.max_sma_for(0).is_some());
        assert!(set.min_sma_for(1).is_none());
        assert!(set.count_sma_grouped_by(1).is_some());
        assert!(set.count_sma_grouped_by(0).is_none());
    }

    #[test]
    fn find_aggregate_respects_grouping_refinement() {
        let t = fig1_table();
        let set = SmaSet::build(&t, vec![SmaDefinition::count("c").group_by(vec![0, 1])]).unwrap();
        // Exact grouping: found.
        assert!(set.find_aggregate(AggFn::Count, None, &[0, 1]).is_some());
        // Coarser query grouping: the finer SMA still serves.
        assert!(set.find_aggregate(AggFn::Count, None, &[1]).is_some());
        assert!(set.find_aggregate(AggFn::Count, None, &[]).is_some());
        // A grouping the SMA lacks: not found.
        assert!(set.find_aggregate(AggFn::Count, None, &[2]).is_none());
        // Different aggregate/input: not found.
        assert!(set
            .find_aggregate(AggFn::Sum, Some(&col(0)), &[1])
            .is_none());
    }

    #[test]
    fn merge_bucket_reaggregates_finer_groups() {
        let t = fig1_table();
        let set = SmaSet::build(&t, vec![SmaDefinition::count("c").group_by(vec![1])]).unwrap();
        let sma = set.by_name("c").unwrap();
        // Coarsen to the empty grouping: total count of bucket 0.
        let mut acc = Accumulator::new(AggFn::Count);
        merge_bucket_into_group(sma, 0, &[], &vec![], &mut acc);
        assert_eq!(acc.finish(), Value::Int(3));
        // Project onto [1] itself: group A count.
        let mut acc = Accumulator::new(AggFn::Count);
        merge_bucket_into_group(sma, 0, &[1], &vec![Value::Char(b'A')], &mut acc);
        assert_eq!(acc.finish(), Value::Int(2));
    }

    #[test]
    fn maintenance_fans_out() {
        let t = fig1_table();
        let mut set = fig1_set(&t);
        // Level 2 equals the fold of level 1 after every call.
        let level2_ok = |set: &SmaSet| {
            for sma in set.smas() {
                assert_eq!(crate::validate::check_level2(sma), vec![]);
            }
        };
        let tuple = vec![
            date("1997-01-01"),
            Value::Char(b'Z'),
            Value::Str("p".into()),
        ];
        set.note_insert(0, &tuple).unwrap();
        level2_ok(&set);
        assert_eq!(set.min_of(0, 0), Some(date("1997-01-01")));
        let counts = set.distinct_counts(1, 0).unwrap();
        assert!(counts.contains(&(Value::Char(b'Z'), 1)));
        set.note_delete(0, &tuple).unwrap();
        level2_ok(&set);
        let counts = set.distinct_counts(1, 0).unwrap();
        assert!(counts.contains(&(Value::Char(b'Z'), 0)));
        // Min is now stale/loose; refresh retightens.
        assert!(!set.null_free(0, 0), "stale bucket loses null-free status");
        set.refresh_bucket(&t, 0).unwrap();
        level2_ok(&set);
        assert_eq!(set.min_of(0, 0), Some(date("1997-02-02")));
        assert!(set.null_free(0, 0));
        // An insert past the end grows level 1 and level 2 together.
        set.note_insert(40, &tuple).unwrap();
        level2_ok(&set);
        set.note_update(40, &tuple, &tuple).unwrap();
        level2_ok(&set);
        set.quarantine_bucket(17);
        level2_ok(&set);
        assert!(!set.smas()[0].super_flags(1).clean);
    }

    #[test]
    fn quarantine_downgrades_grading_until_refresh() {
        let t = fig1_table();
        let mut set = fig1_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Lt, date("1997-04-30"));
        assert_eq!(pred.grade(2, &set), Grade::Disqualifies);
        set.quarantine_bucket(2);
        assert!(set.is_bucket_quarantined(2));
        assert!(set.has_quarantine());
        assert_eq!(set.quarantined_buckets(), vec![2]);
        // Damaged entries must not disqualify (or qualify) anything: the
        // provider answers None/false, so grading lands on Ambivalent.
        assert_eq!(pred.grade(2, &set), Grade::Ambivalent);
        assert_eq!(set.min_of(0, 2), None);
        assert_eq!(set.max_of(0, 2), None);
        assert!(!set.null_free(0, 2));
        assert_eq!(set.distinct_counts(1, 2), None);
        // Untouched buckets are unaffected.
        assert_eq!(pred.grade(0, &set), Grade::Qualifies);
        // Rescanning the bucket restores trust and the original grade.
        set.refresh_bucket(&t, 2).unwrap();
        assert!(!set.has_quarantine());
        assert_eq!(pred.grade(2, &set), Grade::Disqualifies);
    }

    #[test]
    fn space_accounting_sums_members() {
        let t = fig1_table();
        let set = fig1_set(&t);
        assert_eq!(
            set.file_count(),
            1 + 1 + 1 + 2,
            "min+max+count+2 flag groups"
        );
        assert_eq!(
            set.total_pages(),
            5,
            "each tiny file still rounds to a page"
        );
    }
}
