//! Bucket grading: partitioning buckets into qualifying, disqualifying and
//! ambivalent sets (§3.1).
//!
//! Given a selection predicate and the SMAs that mention its attributes,
//! [`BucketPred::grade`] classifies each bucket **without touching the
//! data**. The rules are the paper's, with two sound extensions noted
//! inline:
//!
//! * `A = c` additionally *qualifies* when `min = max = c` (the paper only
//!   disqualifies/leaves ambivalent);
//! * a bucket that saw `Null` inputs never *qualifies* wholesale, because
//!   `Null` fails every predicate while staying invisible to min/max.

use std::cmp::Ordering;

use sma_storage::BucketNo;
use sma_types::Value;

use crate::level2::{super_bucket_range, Level2Col, SuperGrader, FANOUT};

/// The three-way classification of a bucket (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grade {
    /// Every tuple in the bucket satisfies the predicate.
    Qualifies,
    /// No tuple in the bucket satisfies the predicate.
    Disqualifies,
    /// Must be inspected tuple-by-tuple.
    Ambivalent,
}

/// Comparison operators of the paper's atomic predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering of `left` vs `right`.
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// Evaluates `a op b` with SQL three-valued logic collapsed to bool
    /// (`Null`/type-mismatch → false).
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        a.partial_cmp_typed(b).is_some_and(|ord| self.matches(ord))
    }
}

/// A selection predicate in the paper's grammar: atomic comparisons
/// combined with `and` / `or`.
#[derive(Debug, Clone, PartialEq)]
pub enum BucketPred {
    /// `A op c` — column vs constant.
    Cmp {
        /// Column index of `A`.
        col: usize,
        /// Comparison operator.
        op: CmpOp,
        /// The constant `c`.
        value: Value,
    },
    /// `A op B` — column vs column of the same relation.
    ColCmp {
        /// Column index of `A`.
        left: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Column index of `B`.
        right: usize,
    },
    /// Conjunction.
    And(Vec<BucketPred>),
    /// Disjunction.
    Or(Vec<BucketPred>),
}

/// Per-bucket statistics the grader consumes — implemented by `SmaSet`
/// from whatever min/max/count SMAs exist.
pub trait StatsProvider {
    /// Bucket-wide minimum of `col` (across groups if the SMA is grouped);
    /// `None` when no SMA covers it or the entry is undefined.
    fn min_of(&self, col: usize, bucket: BucketNo) -> Option<Value>;
    /// Bucket-wide maximum of `col`.
    fn max_of(&self, col: usize, bucket: BucketNo) -> Option<Value>;
    /// Whether `col` in `bucket` is known to contain no `Null`s.
    fn null_free(&self, col: usize, bucket: BucketNo) -> bool {
        let _ = (col, bucket);
        false
    }
    /// Exact `(value, count)` pairs for `col` in `bucket`, from a count
    /// SMA grouped solely by `col` (§3.1's `count_{A,i}[x]`). Pairs with
    /// zero count may be omitted or included.
    fn distinct_counts(&self, col: usize, bucket: BucketNo) -> Option<Vec<(Value, i64)>> {
        let _ = (col, bucket);
        None
    }
    /// What level 2 knows about `col` — resolved once per
    /// [`Classification::classify`]. The default offers none, so every
    /// bucket is graded on its own.
    fn level2(&self, col: usize) -> Level2Col<'_> {
        let _ = col;
        Level2Col::Unknown
    }
}

/// A provider with no statistics: everything grades ambivalent.
pub struct NoStats;

impl StatsProvider for NoStats {
    fn min_of(&self, _: usize, _: BucketNo) -> Option<Value> {
        None
    }
    fn max_of(&self, _: usize, _: BucketNo) -> Option<Value> {
        None
    }
}

impl BucketPred {
    /// Convenience constructor for `A op c`.
    pub fn cmp(col: usize, op: CmpOp, value: impl Into<Value>) -> BucketPred {
        BucketPred::Cmp {
            col,
            op,
            value: value.into(),
        }
    }

    /// Convenience constructor for `A op B`.
    pub fn col_cmp(left: usize, op: CmpOp, right: usize) -> BucketPred {
        BucketPred::ColCmp { left, op, right }
    }

    /// Evaluates the predicate on one tuple (the operators' runtime
    /// semantics; used for ambivalent buckets and as the test oracle).
    pub fn eval_tuple(&self, tuple: &[Value]) -> bool {
        match self {
            BucketPred::Cmp { col, op, value } => {
                tuple.get(*col).is_some_and(|v| op.eval(v, value))
            }
            BucketPred::ColCmp { left, op, right } => match (tuple.get(*left), tuple.get(*right)) {
                (Some(a), Some(b)) => op.eval(a, b),
                _ => false,
            },
            BucketPred::And(ps) => ps.iter().all(|p| p.eval_tuple(tuple)),
            BucketPred::Or(ps) => ps.iter().any(|p| p.eval_tuple(tuple)),
        }
    }

    /// Evaluates the predicate against a zero-copy [`sma_types::RowView`]
    /// with exactly the semantics of [`BucketPred::eval_tuple`]: `Null`
    /// operands, type mismatches, and out-of-range columns are `false`,
    /// empty `And` is `true`, empty `Or` is `false`. Allocation-free for
    /// every column type (strings compare borrowed); errors surface only
    /// for corrupt images whose string payloads cannot be read.
    pub fn eval_view(&self, row: &sma_types::RowView<'_>) -> Result<bool, sma_types::CodecError> {
        Ok(match self {
            BucketPred::Cmp { col, op, value } => row
                .cmp_value(*col, value)?
                .is_some_and(|ord| op.matches(ord)),
            BucketPred::ColCmp { left, op, right } => row
                .cmp_cols(*left, *right)?
                .is_some_and(|ord| op.matches(ord)),
            BucketPred::And(ps) => {
                for p in ps {
                    if !p.eval_view(row)? {
                        return Ok(false);
                    }
                }
                true
            }
            BucketPred::Or(ps) => {
                for p in ps {
                    if p.eval_view(row)? {
                        return Ok(true);
                    }
                }
                false
            }
        })
    }

    /// All column indexes the predicate references.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.collect(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn collect(&self, out: &mut Vec<usize>) {
        match self {
            BucketPred::Cmp { col, .. } => out.push(*col),
            BucketPred::ColCmp { left, right, .. } => {
                out.push(*left);
                out.push(*right);
            }
            BucketPred::And(ps) | BucketPred::Or(ps) => {
                for p in ps {
                    p.collect(out);
                }
            }
        }
    }

    /// Grades `bucket` using only SMA statistics (§3.1). Sound by
    /// construction: `Qualifies`/`Disqualifies` are only returned when the
    /// statistics prove them; everything else is `Ambivalent`.
    pub fn grade(&self, bucket: BucketNo, stats: &dyn StatsProvider) -> Grade {
        match self {
            BucketPred::Cmp { col, op, value } => {
                let by_minmax = grade_minmax(*col, *op, value, bucket, stats);
                if by_minmax != Grade::Ambivalent {
                    return by_minmax;
                }
                grade_by_counts(*col, *op, value, bucket, stats)
            }
            BucketPred::ColCmp { left, op, right } => {
                grade_col_cmp(*left, *op, *right, bucket, stats)
            }
            BucketPred::And(ps) => {
                // §3.1: q = ∩q_i, d = ∪d_i, a = rest.
                let mut grade = Grade::Qualifies;
                for p in ps {
                    match p.grade(bucket, stats) {
                        Grade::Disqualifies => return Grade::Disqualifies,
                        Grade::Ambivalent => grade = Grade::Ambivalent,
                        Grade::Qualifies => {}
                    }
                }
                grade
            }
            BucketPred::Or(ps) => {
                // §3.1: q = ∪q_i, d = ∩d_i, a = rest.
                let mut grade = Grade::Disqualifies;
                for p in ps {
                    match p.grade(bucket, stats) {
                        Grade::Qualifies => return Grade::Qualifies,
                        Grade::Ambivalent => grade = Grade::Ambivalent,
                        Grade::Disqualifies => {}
                    }
                }
                grade
            }
        }
    }
}

/// The `A op c` rules from §3.1 driven by min/max SMAs.
fn grade_minmax(
    col: usize,
    op: CmpOp,
    c: &Value,
    bucket: BucketNo,
    stats: &dyn StatsProvider,
) -> Grade {
    let (Some(lo), Some(hi)) = (stats.min_of(col, bucket), stats.max_of(col, bucket)) else {
        // "The else case is also applied if the max/min aggregates are not
        // defined."
        return Grade::Ambivalent;
    };
    minmax_rule(op, c, &lo, &hi, stats.null_free(col, bucket))
}

/// The `A op c` rules over bounds `[lo, hi]` of `A` — one bucket's, or a
/// whole super-bucket's at level 2.
pub(crate) fn minmax_rule(op: CmpOp, c: &Value, lo: &Value, hi: &Value, null_free: bool) -> Grade {
    let (Some(lo_c), Some(hi_c)) = (lo.partial_cmp_typed(c), hi.partial_cmp_typed(c)) else {
        return Grade::Ambivalent;
    };
    // A `Null` in the column fails every predicate but is invisible to the
    // bounds, so wholesale qualification needs a null-free bucket.
    let qualify = |g: Grade| if null_free { g } else { Grade::Ambivalent };
    match op {
        CmpOp::Eq => {
            if hi_c == Ordering::Less || lo_c == Ordering::Greater {
                Grade::Disqualifies
            } else if lo_c == Ordering::Equal && hi_c == Ordering::Equal {
                // Sound extension beyond the paper: a constant bucket.
                qualify(Grade::Qualifies)
            } else {
                Grade::Ambivalent
            }
        }
        CmpOp::Le => {
            if hi_c != Ordering::Greater {
                qualify(Grade::Qualifies)
            } else if lo_c == Ordering::Greater {
                Grade::Disqualifies
            } else {
                Grade::Ambivalent
            }
        }
        CmpOp::Lt => {
            if hi_c == Ordering::Less {
                qualify(Grade::Qualifies)
            } else if lo_c != Ordering::Less {
                Grade::Disqualifies
            } else {
                Grade::Ambivalent
            }
        }
        CmpOp::Ge => {
            if lo_c != Ordering::Less {
                qualify(Grade::Qualifies)
            } else if hi_c == Ordering::Less {
                Grade::Disqualifies
            } else {
                Grade::Ambivalent
            }
        }
        CmpOp::Gt => {
            if lo_c == Ordering::Greater {
                qualify(Grade::Qualifies)
            } else if hi_c != Ordering::Greater {
                Grade::Disqualifies
            } else {
                Grade::Ambivalent
            }
        }
    }
}

/// The grouped-count rules from §3.1: with a count SMA grouped solely by
/// `A`, the exact value distribution of the bucket is known, so grading is
/// exact (all present values pass / none pass / mixed).
fn grade_by_counts(
    col: usize,
    op: CmpOp,
    c: &Value,
    bucket: BucketNo,
    stats: &dyn StatsProvider,
) -> Grade {
    let Some(counts) = stats.distinct_counts(col, bucket) else {
        return Grade::Ambivalent;
    };
    let mut any_pass = false;
    let mut any_fail = false;
    for (x, n) in &counts {
        if *n <= 0 {
            continue;
        }
        if x.is_null() || !op.eval(x, c) {
            any_fail = true;
        } else {
            any_pass = true;
        }
        if any_pass && any_fail {
            return Grade::Ambivalent;
        }
    }
    match (any_pass, any_fail) {
        (true, false) => Grade::Qualifies,
        (false, true) => Grade::Disqualifies,
        // An empty bucket trivially disqualifies (no tuple can match).
        (false, false) => Grade::Disqualifies,
        (true, true) => unreachable!("early-returned above"),
    }
}

/// The `A op B` rules from §3.1.
fn grade_col_cmp(
    left: usize,
    op: CmpOp,
    right: usize,
    bucket: BucketNo,
    stats: &dyn StatsProvider,
) -> Grade {
    let (Some(min_a), Some(max_a)) = (stats.min_of(left, bucket), stats.max_of(left, bucket))
    else {
        return Grade::Ambivalent;
    };
    let (Some(min_b), Some(max_b)) = (stats.min_of(right, bucket), stats.max_of(right, bucket))
    else {
        return Grade::Ambivalent;
    };
    let nulls_ok = stats.null_free(left, bucket) && stats.null_free(right, bucket);
    col_cmp_rule(op, (&min_a, &max_a), (&min_b, &max_b), nulls_ok)
}

/// The `A op B` rules over bounds `(min, max)` of `A` and of `B` — one
/// bucket's, or a whole super-bucket's at level 2.
pub(crate) fn col_cmp_rule(
    op: CmpOp,
    (min_a, max_a): (&Value, &Value),
    (min_b, max_b): (&Value, &Value),
    nulls_ok: bool,
) -> Grade {
    let qualify = |g: Grade| if nulls_ok { g } else { Grade::Ambivalent };
    let le = |a: &Value, b: &Value| CmpOp::Le.eval(a, b);
    let lt = |a: &Value, b: &Value| CmpOp::Lt.eval(a, b);
    match op {
        CmpOp::Le => {
            if le(max_a, min_b) {
                qualify(Grade::Qualifies)
            } else if lt(max_b, min_a) {
                Grade::Disqualifies
            } else {
                Grade::Ambivalent
            }
        }
        CmpOp::Lt => {
            if lt(max_a, min_b) {
                qualify(Grade::Qualifies)
            } else if le(max_b, min_a) {
                Grade::Disqualifies
            } else {
                Grade::Ambivalent
            }
        }
        CmpOp::Ge => {
            if le(max_b, min_a) {
                qualify(Grade::Qualifies)
            } else if lt(max_a, min_b) {
                Grade::Disqualifies
            } else {
                Grade::Ambivalent
            }
        }
        CmpOp::Gt => {
            if lt(max_b, min_a) {
                qualify(Grade::Qualifies)
            } else if le(max_a, min_b) {
                Grade::Disqualifies
            } else {
                Grade::Ambivalent
            }
        }
        CmpOp::Eq => {
            if lt(max_a, min_b) || lt(max_b, min_a) {
                Grade::Disqualifies
            } else if min_a == max_a && min_b == max_b && min_a == min_b {
                qualify(Grade::Qualifies)
            } else {
                Grade::Ambivalent
            }
        }
    }
}

/// Result of grading all buckets of a relation against a predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// Grade of each bucket, positionally.
    pub grades: Vec<Grade>,
}

impl Classification {
    /// Grades buckets `0..n_buckets`, exactly as [`BucketPred::grade`]
    /// grades each one. Each super-bucket of [`FANOUT`] buckets is graded
    /// at level 2 first; only where an atom with statistics is undecided
    /// there are its buckets graded one by one (§4).
    pub fn classify(
        pred: &BucketPred,
        n_buckets: BucketNo,
        stats: &dyn StatsProvider,
    ) -> Classification {
        let level2 = SuperGrader::new(pred, stats);
        let mut grades = Vec::with_capacity(n_buckets as usize);
        for sb in 0..n_buckets.div_ceil(FANOUT) {
            let buckets = super_bucket_range(sb, n_buckets);
            match level2.grade(pred, &buckets) {
                Some(g) => grades.extend(buckets.map(|_| g)),
                None => grades.extend(buckets.map(|b| pred.grade(b, stats))),
            }
        }
        Classification { grades }
    }

    /// Buckets graded `g`.
    pub fn count(&self, g: Grade) -> usize {
        self.grades.iter().filter(|&&x| x == g).count()
    }

    /// Fraction of buckets that must be read (ambivalent), in `[0, 1]`.
    pub fn ambivalent_fraction(&self) -> f64 {
        if self.grades.is_empty() {
            return 0.0;
        }
        self.count(Grade::Ambivalent) as f64 / self.grades.len() as f64
    }

    /// Fraction of buckets whose data pages can be skipped entirely.
    pub fn skipped_fraction(&self) -> f64 {
        if self.grades.is_empty() {
            return 0.0;
        }
        self.count(Grade::Disqualifies) as f64 / self.grades.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Hand-rolled provider over explicit per-bucket stats.
    #[derive(Default)]
    struct FakeStats {
        minmax: HashMap<(usize, BucketNo), (Value, Value)>,
        nullfree: HashMap<(usize, BucketNo), bool>,
        counts: HashMap<(usize, BucketNo), Vec<(Value, i64)>>,
    }

    impl FakeStats {
        fn with(mut self, col: usize, b: BucketNo, lo: i64, hi: i64) -> Self {
            self.minmax
                .insert((col, b), (Value::Int(lo), Value::Int(hi)));
            self.nullfree.insert((col, b), true);
            self
        }
        fn nullable(mut self, col: usize, b: BucketNo) -> Self {
            self.nullfree.insert((col, b), false);
            self
        }
        fn with_counts(mut self, col: usize, b: BucketNo, pairs: Vec<(i64, i64)>) -> Self {
            self.counts.insert(
                (col, b),
                pairs.into_iter().map(|(x, n)| (Value::Int(x), n)).collect(),
            );
            self
        }
    }

    impl StatsProvider for FakeStats {
        fn min_of(&self, col: usize, b: BucketNo) -> Option<Value> {
            self.minmax.get(&(col, b)).map(|(lo, _)| lo.clone())
        }
        fn max_of(&self, col: usize, b: BucketNo) -> Option<Value> {
            self.minmax.get(&(col, b)).map(|(_, hi)| hi.clone())
        }
        fn null_free(&self, col: usize, b: BucketNo) -> bool {
            self.nullfree.get(&(col, b)).copied().unwrap_or(false)
        }
        fn distinct_counts(&self, col: usize, b: BucketNo) -> Option<Vec<(Value, i64)>> {
            self.counts.get(&(col, b)).cloned()
        }
    }

    fn le(col: usize, c: i64) -> BucketPred {
        BucketPred::cmp(col, CmpOp::Le, c)
    }

    #[test]
    fn paper_example_section_2_2() {
        // Fig. 1 buckets as integer day-counts; pred: shipdate < 97-04-30.
        // Bucket 0: [97-02-02, 97-04-22] qualifies; bucket 1: [04-01,05-07]
        // ambivalent; bucket 2: [05-02, 06-03] disqualifies.
        let stats = FakeStats::default()
            .with(0, 0, 202, 422)
            .with(0, 1, 401, 507)
            .with(0, 2, 502, 603);
        let pred = BucketPred::cmp(0, CmpOp::Lt, 430i64);
        assert_eq!(pred.grade(0, &stats), Grade::Qualifies);
        assert_eq!(pred.grade(1, &stats), Grade::Ambivalent);
        assert_eq!(pred.grade(2, &stats), Grade::Disqualifies);
    }

    #[test]
    fn all_operators_all_cases() {
        let stats = FakeStats::default().with(0, 0, 10, 20);
        use CmpOp::*;
        use Grade::*;
        let cases: Vec<(CmpOp, i64, Grade)> = vec![
            (Eq, 5, Disqualifies),
            (Eq, 25, Disqualifies),
            (Eq, 15, Ambivalent),
            (Le, 20, Qualifies),
            (Le, 19, Ambivalent),
            (Le, 9, Disqualifies),
            (Lt, 21, Qualifies),
            (Lt, 20, Ambivalent),
            (Lt, 10, Disqualifies),
            (Ge, 10, Qualifies),
            (Ge, 11, Ambivalent),
            (Ge, 21, Disqualifies),
            (Gt, 9, Qualifies),
            (Gt, 10, Ambivalent),
            (Gt, 20, Disqualifies),
        ];
        for (op, c, expected) in cases {
            let pred = BucketPred::cmp(0, op, c);
            assert_eq!(pred.grade(0, &stats), expected, "{op:?} {c}");
        }
    }

    #[test]
    fn eq_constant_bucket_qualifies() {
        let stats = FakeStats::default().with(0, 0, 7, 7);
        assert_eq!(
            BucketPred::cmp(0, CmpOp::Eq, 7i64).grade(0, &stats),
            Grade::Qualifies
        );
    }

    #[test]
    fn missing_stats_are_ambivalent() {
        assert_eq!(le(0, 100).grade(0, &NoStats), Grade::Ambivalent);
        // Stats on a different column don't help.
        let stats = FakeStats::default().with(1, 0, 0, 1);
        assert_eq!(le(0, 100).grade(0, &stats), Grade::Ambivalent);
    }

    #[test]
    fn nullable_buckets_never_qualify_wholesale() {
        let stats = FakeStats::default().with(0, 0, 10, 20).nullable(0, 0);
        assert_eq!(le(0, 100).grade(0, &stats), Grade::Ambivalent);
        // …but disqualification is still safe: Null fails the predicate too.
        assert_eq!(le(0, 5).grade(0, &stats), Grade::Disqualifies);
    }

    #[test]
    fn col_vs_col_rules() {
        // A in [10,20]; B in [30,40]: A <= B qualifies, A >= B disqualifies.
        let stats = FakeStats::default().with(0, 0, 10, 20).with(1, 0, 30, 40);
        assert_eq!(
            BucketPred::col_cmp(0, CmpOp::Le, 1).grade(0, &stats),
            Grade::Qualifies
        );
        assert_eq!(
            BucketPred::col_cmp(0, CmpOp::Lt, 1).grade(0, &stats),
            Grade::Qualifies
        );
        assert_eq!(
            BucketPred::col_cmp(0, CmpOp::Ge, 1).grade(0, &stats),
            Grade::Disqualifies
        );
        assert_eq!(
            BucketPred::col_cmp(0, CmpOp::Gt, 1).grade(0, &stats),
            Grade::Disqualifies
        );
        assert_eq!(
            BucketPred::col_cmp(0, CmpOp::Eq, 1).grade(0, &stats),
            Grade::Disqualifies
        );
        // Overlapping ranges are ambivalent.
        let overlap = FakeStats::default().with(0, 0, 10, 35).with(1, 0, 30, 40);
        assert_eq!(
            BucketPred::col_cmp(0, CmpOp::Le, 1).grade(0, &overlap),
            Grade::Ambivalent
        );
        // Touching ranges: max(A) == min(B).
        let touch = FakeStats::default().with(0, 0, 10, 30).with(1, 0, 30, 40);
        assert_eq!(
            BucketPred::col_cmp(0, CmpOp::Le, 1).grade(0, &touch),
            Grade::Qualifies
        );
        assert_eq!(
            BucketPred::col_cmp(0, CmpOp::Lt, 1).grade(0, &touch),
            Grade::Ambivalent
        );
    }

    #[test]
    fn and_or_combination_tables() {
        let stats = FakeStats::default().with(0, 0, 10, 20).with(1, 0, 10, 20);
        let q = le(0, 30); // qualifies
        let d = le(0, 5); // disqualifies
        let a = le(0, 15); // ambivalent
        use Grade::*;
        let and = |x: &BucketPred, y: &BucketPred| {
            BucketPred::And(vec![x.clone(), y.clone()]).grade(0, &stats)
        };
        let or = |x: &BucketPred, y: &BucketPred| {
            BucketPred::Or(vec![x.clone(), y.clone()]).grade(0, &stats)
        };
        assert_eq!(and(&q, &q), Qualifies);
        assert_eq!(and(&q, &a), Ambivalent);
        assert_eq!(and(&q, &d), Disqualifies);
        assert_eq!(and(&a, &d), Disqualifies);
        assert_eq!(and(&a, &a), Ambivalent);
        assert_eq!(or(&q, &d), Qualifies);
        assert_eq!(or(&a, &q), Qualifies);
        assert_eq!(or(&d, &d), Disqualifies);
        assert_eq!(or(&a, &d), Ambivalent);
        assert_eq!(or(&a, &a), Ambivalent);
    }

    #[test]
    fn grouped_count_sma_grades_exactly() {
        // Bucket 0 holds values {3×5, 2×7}; no min/max SMA at all.
        let stats = FakeStats::default().with_counts(0, 0, vec![(5, 3), (7, 2)]);
        assert_eq!(le(0, 10).grade(0, &stats), Grade::Qualifies);
        assert_eq!(le(0, 4).grade(0, &stats), Grade::Disqualifies);
        assert_eq!(le(0, 6).grade(0, &stats), Grade::Ambivalent);
        assert_eq!(
            BucketPred::cmp(0, CmpOp::Eq, 5i64).grade(0, &stats),
            Grade::Ambivalent
        );
        assert_eq!(
            BucketPred::cmp(0, CmpOp::Eq, 6i64).grade(0, &stats),
            Grade::Disqualifies
        );
        // Zero-count pairs are ignored.
        let with_zero = FakeStats::default().with_counts(0, 0, vec![(5, 3), (9, 0)]);
        assert_eq!(le(0, 6).grade(0, &with_zero), Grade::Qualifies);
        // Empty bucket disqualifies.
        let empty = FakeStats::default().with_counts(0, 0, vec![]);
        assert_eq!(le(0, 6).grade(0, &empty), Grade::Disqualifies);
    }

    #[test]
    fn eval_tuple_semantics() {
        let t = vec![Value::Int(5), Value::Int(10)];
        assert!(le(0, 5).eval_tuple(&t));
        assert!(!le(0, 4).eval_tuple(&t));
        assert!(BucketPred::col_cmp(0, CmpOp::Lt, 1).eval_tuple(&t));
        assert!(!BucketPred::col_cmp(1, CmpOp::Lt, 0).eval_tuple(&t));
        // Null and out-of-range are false, not errors.
        let n = vec![Value::Null, Value::Int(1)];
        assert!(!le(0, 100).eval_tuple(&n));
        assert!(!le(7, 100).eval_tuple(&n));
        assert!(BucketPred::And(vec![]).eval_tuple(&t), "empty AND is true");
        assert!(!BucketPred::Or(vec![]).eval_tuple(&t), "empty OR is false");
    }

    #[test]
    fn classification_statistics() {
        let stats = FakeStats::default()
            .with(0, 0, 0, 10)
            .with(0, 1, 20, 30)
            .with(0, 2, 5, 25)
            .with(0, 3, 40, 50);
        let c = Classification::classify(&le(0, 15), 4, &stats);
        assert_eq!(
            c.grades,
            vec![
                Grade::Qualifies,
                Grade::Disqualifies,
                Grade::Ambivalent,
                Grade::Disqualifies
            ]
        );
        assert_eq!(c.count(Grade::Disqualifies), 2);
        assert!((c.ambivalent_fraction() - 0.25).abs() < 1e-9);
        assert!((c.skipped_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn referenced_columns() {
        let p = BucketPred::And(vec![
            le(3, 1),
            BucketPred::Or(vec![le(1, 2), BucketPred::col_cmp(3, CmpOp::Lt, 0)]),
        ]);
        assert_eq!(p.referenced_columns(), vec![0, 1, 3]);
    }
}
