//! Level 2 of every SMA — the second-level SMA of §4, in the query path.
//!
//! "Every SMA-file is again partitioned into buckets and for each bucket a
//! second level SMA is computed. […] If a second level bucket qualifies or
//! disqualifies, the first level SMA-file need not be accessed."
//!
//! A *super-bucket* is [`FANOUT`] consecutive buckets (the last one may be
//! partial). For each group file a [`Sma`] keeps one level-2 entry per
//! super-bucket — the fold of the file's level-1 entries with the SMA's own
//! aggregate — plus one [`SuperFlags`] per super-bucket. Level 2 is derived
//! data: bulk builds and loads rebuild it, every maintenance call refolds
//! the one super-bucket it touched, and the `SMA2` image never stores it.
//!
//! Grading reads level 2 through [`Level2Col`]: a predicate is graded over
//! a whole super-bucket, and the answer counts only when every bucket in
//! it would grade the same at level 1, so
//! [`crate::Classification::classify`] descends to per-bucket grading for
//! the rest and returns exactly the flat grades.

use std::collections::BTreeMap;
use std::ops::Range;

use sma_storage::BucketNo;
use sma_types::Value;

use crate::agg::Accumulator;
use crate::file::SmaFile;
use crate::grade::{col_cmp_rule, minmax_rule, BucketPred, Grade, StatsProvider};
use crate::sma::{default_entry, GroupKey, Sma};

/// Buckets per super-bucket: the fanout of level 2.
pub const FANOUT: u32 = 16;

/// The buckets of super-bucket `sb` in a relation of `n_buckets` buckets.
pub(crate) fn super_bucket_range(sb: u32, n_buckets: BucketNo) -> Range<BucketNo> {
    let start = sb.saturating_mul(FANOUT).min(n_buckets);
    start..start.saturating_add(FANOUT).min(n_buckets)
}

/// Level-1 facts that hold for *every* bucket of one super-bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuperFlags {
    /// Every bucket has a non-`Null` entry in some group file.
    pub defined: bool,
    /// No bucket saw a `Null` input.
    pub null_free: bool,
    /// No bucket is stale.
    pub fresh: bool,
    /// No bucket is quarantined.
    pub clean: bool,
}

/// A SMA's level 2: per group file one entry per super-bucket, plus the
/// per-super-bucket flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Level2 {
    entries: BTreeMap<GroupKey, Vec<Value>>,
    flags: Vec<SuperFlags>,
}

impl Sma {
    /// Number of super-buckets covering this SMA's buckets.
    pub fn super_bucket_count(&self) -> u32 {
        self.n_buckets.div_ceil(FANOUT)
    }

    /// The level-2 entries of `group`'s file, one per super-bucket.
    pub fn super_entries(&self, group: &GroupKey) -> Option<&[Value]> {
        self.level2.entries.get(group).map(Vec::as_slice)
    }

    /// Folds this SMA's level-2 entries for super-bucket `sb` across all
    /// groups — the super-bucket twin of [`Sma::bucket_value_across_groups`].
    pub fn super_value_across_groups(&self, sb: u32) -> Value {
        let mut acc = Accumulator::new(self.def.agg);
        for entries in self.level2.entries.values() {
            if let Some(v) = entries.get(sb as usize) {
                acc.merge(v);
            }
        }
        acc.finish()
    }

    /// The flags of super-bucket `sb`; all `false` past the end, where
    /// nothing is known.
    pub fn super_flags(&self, sb: u32) -> SuperFlags {
        self.level2
            .flags
            .get(sb as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Rebuilds level 2 from level 1: after a bulk build or a load.
    pub(crate) fn rebuild_level2(&mut self) {
        let n_super = self.super_bucket_count();
        let agg = self.def.agg;
        let n = self.n_buckets;
        self.level2.entries = self
            .groups
            .iter()
            .map(|(key, file)| {
                let folded = (0..n_super)
                    .map(|sb| fold(agg, file.entries(), super_bucket_range(sb, n)))
                    .collect();
                (key.clone(), folded)
            })
            .collect();
        self.level2.flags = (0..n_super).map(|sb| self.fold_flags(sb)).collect();
    }

    /// Brings level 2 up to date after one maintenance call changed level
    /// 1 in `bucket`: refolds `group`'s entry there (every group's when
    /// `None`) and the flags of every super-bucket from `from` (the first
    /// bucket the call may have added or changed) to `bucket`. New buckets
    /// and new group files hold identity entries, so padding leaves every
    /// other fold as it was. O([`FANOUT`]) per refolded entry.
    pub(crate) fn sync_level2(
        &mut self,
        from: BucketNo,
        bucket: BucketNo,
        group: Option<&GroupKey>,
    ) {
        let n_super = self.super_bucket_count() as usize;
        let identity = default_entry(self.def.agg);
        if self.level2.entries.len() < self.groups.len() {
            for key in self.groups.keys() {
                if !self.level2.entries.contains_key(key) {
                    self.level2.entries.insert(key.clone(), Vec::new());
                }
            }
        }
        for entries in self.level2.entries.values_mut() {
            entries.resize(n_super, identity.clone());
        }
        let agg = self.def.agg;
        let sb = bucket / FANOUT;
        let range = super_bucket_range(sb, self.n_buckets);
        let refold = |file: &SmaFile, entries: &mut Vec<Value>| {
            if let Some(e) = entries.get_mut(sb as usize) {
                *e = fold(agg, file.entries(), range.clone());
            }
        };
        match group {
            Some(key) => {
                if let (Some(file), Some(entries)) =
                    (self.groups.get(key), self.level2.entries.get_mut(key))
                {
                    refold(file, entries);
                }
            }
            // Both maps hold the same keys, so they iterate in step.
            None => {
                for (file, entries) in self.groups.values().zip(self.level2.entries.values_mut()) {
                    refold(file, entries);
                }
            }
        }
        self.level2.flags.resize(n_super, SuperFlags::default());
        for s in from.min(bucket) / FANOUT..=sb {
            let flags = self.fold_flags(s);
            if let Some(f) = self.level2.flags.get_mut(s as usize) {
                *f = flags;
            }
        }
    }

    /// The flags of super-bucket `sb`, folded from level 1.
    fn fold_flags(&self, sb: u32) -> SuperFlags {
        let range = super_bucket_range(sb, self.n_buckets);
        let none = |v: &[bool]| {
            v.get(range.start as usize..range.end as usize)
                .is_some_and(|s| !s.contains(&true))
        };
        SuperFlags {
            defined: range.clone().all(|b| {
                self.groups
                    .values()
                    .any(|f| f.get(b).is_some_and(|v| !v.is_null()))
            }),
            null_free: none(&self.null_seen),
            fresh: none(&self.stale),
            clean: none(&self.quarantined),
        }
    }
}

/// Folds `entries[range]` with `agg`, starting from the identity.
fn fold(agg: crate::AggFn, entries: &[Value], range: Range<BucketNo>) -> Value {
    let mut acc = Accumulator::new(agg);
    for v in entries
        .get(range.start as usize..range.end as usize)
        .unwrap_or_default()
    {
        acc.merge(v);
    }
    acc.finish()
}

/// What a [`StatsProvider`] offers at level 2 for one column.
pub enum Level2Col<'a> {
    /// No level 2 for this column: grade its buckets one by one.
    Unknown,
    /// No statistics on the column at all: every bucket grades
    /// Ambivalent on it, at either level.
    Absent,
    /// The column's min and max SMAs, whose level 2 bounds whole
    /// super-buckets.
    MinMax {
        /// The min SMA.
        min: &'a Sma,
        /// The max SMA.
        max: &'a Sma,
    },
}

/// Bounds of one column over one super-bucket.
struct SuperBounds {
    lo: Value,
    hi: Value,
    null_free: bool,
}

impl Level2Col<'_> {
    /// The column's bounds over `buckets` (one super-bucket), or `None`
    /// when some bucket in it lacks them: undefined, quarantined, or not
    /// covered by the SMAs.
    fn bounds(&self, buckets: &Range<BucketNo>) -> Option<SuperBounds> {
        let Level2Col::MinMax { min, max } = self else {
            return None;
        };
        let sb = buckets.start / FANOUT;
        // Level-2 facts cover the SMA's whole super-bucket, a superset of
        // `buckets`; buckets past the SMA's end are unknown.
        if buckets.end > min.n_buckets() || buckets.end > max.n_buckets() {
            return None;
        }
        let (fmin, fmax) = (min.super_flags(sb), max.super_flags(sb));
        if !(fmin.defined && fmin.clean && fmax.defined && fmax.clean) {
            return None;
        }
        Some(SuperBounds {
            lo: min.super_value_across_groups(sb),
            hi: max.super_value_across_groups(sb),
            // Level 1 takes the null-free claim from the min SMA.
            null_free: fmin.null_free && fmin.fresh,
        })
    }
}

/// A predicate's columns resolved to their level 2 once per
/// classification, ready to grade super-buckets.
pub(crate) struct SuperGrader<'a> {
    cols: Vec<(usize, Level2Col<'a>)>,
}

impl<'a> SuperGrader<'a> {
    pub(crate) fn new(pred: &BucketPred, stats: &'a dyn StatsProvider) -> SuperGrader<'a> {
        SuperGrader {
            cols: pred
                .referenced_columns()
                .into_iter()
                .map(|c| (c, stats.level2(c)))
                .collect(),
        }
    }

    fn col(&self, c: usize) -> &Level2Col<'a> {
        self.cols
            .iter()
            .find(|(col, _)| *col == c)
            .map_or(&Level2Col::Unknown, |(_, l)| l)
    }

    /// The grade every bucket of `buckets` (one super-bucket) takes when
    /// `pred` grades it on its own, or `None` when level 2 cannot prove
    /// they all agree. An atom decided by bounds is decided for each
    /// bucket inside them; an atom over an unindexed column is
    /// Ambivalent everywhere.
    pub(crate) fn grade(&self, pred: &BucketPred, buckets: &Range<BucketNo>) -> Option<Grade> {
        let decided = |g: Grade| (g != Grade::Ambivalent).then_some(g);
        match pred {
            BucketPred::Cmp { col, op, value } => match self.col(*col) {
                Level2Col::Absent => Some(Grade::Ambivalent),
                l => {
                    let b = l.bounds(buckets)?;
                    decided(minmax_rule(*op, value, &b.lo, &b.hi, b.null_free))
                }
            },
            BucketPred::ColCmp { left, op, right } => {
                let (left, right) = (self.col(*left), self.col(*right));
                if matches!(left, Level2Col::Absent) || matches!(right, Level2Col::Absent) {
                    return Some(Grade::Ambivalent);
                }
                let (a, b) = (left.bounds(buckets)?, right.bounds(buckets)?);
                decided(col_cmp_rule(
                    *op,
                    (&a.lo, &a.hi),
                    (&b.lo, &b.hi),
                    a.null_free && b.null_free,
                ))
            }
            // §3.1's combination tables, over per-bucket-uniform grades:
            // one uniform Disqualifies (And) or Qualifies (Or) decides
            // every bucket; otherwise any undecided child leaves the
            // combination undecided.
            BucketPred::And(ps) => self.combine(ps, buckets, Grade::Qualifies, Grade::Disqualifies),
            BucketPred::Or(ps) => self.combine(ps, buckets, Grade::Disqualifies, Grade::Qualifies),
        }
    }

    fn combine(
        &self,
        ps: &[BucketPred],
        buckets: &Range<BucketNo>,
        identity: Grade,
        absorbing: Grade,
    ) -> Option<Grade> {
        let mut grade = Some(identity);
        for p in ps {
            match self.grade(p, buckets) {
                Some(g) if g == absorbing => return Some(absorbing),
                None => grade = None,
                Some(Grade::Ambivalent) => {
                    if grade.is_some() {
                        grade = Some(Grade::Ambivalent);
                    }
                }
                Some(_) => {}
            }
        }
        grade
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::SmaDefinition;
    use crate::expr::col;
    use crate::persist::{load_sma, save_sma};
    use crate::AggFn;
    use sma_storage::{MemStore, Table};
    use sma_types::{Column, DataType, Schema};
    use std::sync::Arc;

    /// 40 one-row buckets: `K = b`, NULL in bucket 20, group `A`/`B` by
    /// parity of `b / 8`.
    fn table() -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("G", DataType::Char),
            Column::new("PAD", DataType::Str),
        ]));
        let mut t = Table::in_memory("t", schema, 1);
        for b in 0..40i64 {
            let k = if b == 20 { Value::Null } else { Value::Int(b) };
            let g = Value::Char(if (b / 8) % 2 == 0 { b'A' } else { b'B' });
            t.append(&vec![k, g, Value::Str("p".repeat(3000))]).unwrap();
        }
        assert_eq!(t.bucket_count(), 40);
        t
    }

    #[test]
    fn super_bucket_ranges_tile_the_buckets() {
        assert_eq!(super_bucket_range(0, 40), 0..16);
        assert_eq!(super_bucket_range(2, 40), 32..40);
        assert_eq!(super_bucket_range(3, 40), 40..40);
        assert_eq!(super_bucket_range(0, 5), 0..5);
    }

    #[test]
    fn level2_folds_level1_and_is_rebuilt_on_load() {
        let t = table();
        let min = Sma::build(
            &t,
            SmaDefinition::new("min", AggFn::Min, col(0)).group_by(vec![1]),
        )
        .unwrap();
        assert_eq!(min.super_bucket_count(), 3);
        // Group A holds buckets 0..8, 16..24 and 32..40.
        let a = vec![Value::Char(b'A')];
        let b = vec![Value::Char(b'B')];
        assert_eq!(
            min.super_entries(&a),
            Some(&[Value::Int(0), Value::Int(16), Value::Int(32)][..])
        );
        assert_eq!(
            min.super_entries(&b),
            Some(&[Value::Int(8), Value::Int(24), Value::Null][..])
        );
        assert_eq!(min.super_value_across_groups(2), Value::Int(32));
        let flags = |sb| min.super_flags(sb);
        assert!(flags(0).defined && flags(0).null_free && flags(0).fresh && flags(0).clean);
        assert!(!flags(1).defined, "bucket 20 holds only a NULL");
        assert!(!flags(1).null_free);
        assert_eq!(flags(3), SuperFlags::default(), "past the end");
        let mut store = MemStore::new();
        let (first, _) = save_sma(&min, &mut store).unwrap();
        let back = load_sma(&store, first).unwrap();
        assert_eq!(back.level2, min.level2);
    }

    #[test]
    fn maintenance_refolds_one_super_bucket() {
        let t = table();
        let mut count = Sma::build(&t, SmaDefinition::count("c")).unwrap();
        let row = vec![Value::Int(7), Value::Char(b'C'), Value::Str(String::new())];
        count.note_insert(3, &row).unwrap();
        assert_eq!(
            count.super_entries(&vec![]),
            Some(&[Value::Int(17), Value::Int(16), Value::Int(8)][..])
        );
        // A new group file appears; level 2 pads it with the identity.
        let c = vec![Value::Char(b'C')];
        let mut grouped = Sma::build(&t, SmaDefinition::count("g").group_by(vec![1])).unwrap();
        grouped.note_insert(3, &row).unwrap();
        assert_eq!(
            grouped.super_entries(&c),
            Some(&[Value::Int(1), Value::Int(0), Value::Int(0)][..])
        );
        // An insert past the end opens a new super-bucket.
        grouped.note_insert(50, &row).unwrap();
        assert_eq!(grouped.super_bucket_count(), 4);
        assert_eq!(grouped.super_entries(&c).map(<[Value]>::len), Some(4));
        assert!(
            grouped.super_flags(3).defined,
            "counts are defined everywhere"
        );
        assert_eq!(crate::validate::check_level2(&count), vec![]);
        assert_eq!(crate::validate::check_level2(&grouped), vec![]);
        // A failing call that grew level 1 still grows level 2.
        let mut sum = Sma::build(&t, SmaDefinition::new("s", AggFn::Sum, col(0))).unwrap();
        let bad = vec![
            Value::Int(i64::MIN),
            Value::Char(b'A'),
            Value::Str(String::new()),
        ];
        assert!(sum.note_delete(45, &bad).is_err());
        assert_eq!(sum.n_buckets(), 46);
        assert_eq!(crate::validate::check_level2(&sum), vec![]);
    }
}
