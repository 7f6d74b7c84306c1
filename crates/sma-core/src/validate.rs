//! Debug-build invariant validation: recompute per-bucket ground truth
//! from the base table and check that every SMA entry *dominates* it
//! (`min`/`max`, which deletes may loosen but never invert) or *equals*
//! it (`sum`/`count`, which maintenance keeps exact).
//!
//! The checks here are the executable form of the paper's §2.1 soundness
//! argument: a `min` entry may be smaller than the true bucket minimum
//! (stale after deletes) but must never be larger, or pruning would skip
//! buckets that hold qualifying tuples. [`check_sma`] reports violations;
//! [`debug_check_sma`] turns them into a `debug_assert!` so every
//! `Sma::build` in a debug build self-verifies at zero release cost.
//! [`check_level2`], part of both, checks level 2 against level 1: every
//! super-bucket entry and flag must equal the fold of its buckets.

use sma_storage::Table;
use sma_types::Value;

use crate::agg::{Accumulator, AggFn};
use crate::level2::{super_bucket_range, SuperFlags};
use crate::set::SmaSet;
use crate::sma::{GroupKey, Sma, SmaError};

/// One invariant violation found by [`check_sma`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Bucket where the invariant broke.
    pub bucket: u32,
    /// Group key of the offending entry (empty for ungrouped SMAs).
    pub group: GroupKey,
    /// What held and what was expected.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bucket {} group {:?}: {}",
            self.bucket, self.group, self.detail
        )
    }
}

/// `true` iff `stored` dominates `actual` from below: taking the minimum
/// of the two gives `stored` back. A stale `min` bound may be *smaller*
/// than the true bucket minimum, never larger.
fn min_dominates(stored: &Value, actual: &Value) -> bool {
    let mut acc = Accumulator::new(AggFn::Min);
    acc.merge(stored);
    acc.merge(actual);
    acc.finish() == *stored
}

/// `true` iff `stored` dominates `actual` from above (dual of
/// [`min_dominates`]).
fn max_dominates(stored: &Value, actual: &Value) -> bool {
    let mut acc = Accumulator::new(AggFn::Max);
    acc.merge(stored);
    acc.merge(actual);
    acc.finish() == *stored
}

/// Validates `sma` against the current contents of `table`.
///
/// Per bucket and per group the checks are:
///
/// - **min/max**: the stored bound dominates every row's input value;
///   when the bucket is not stale the bound is *equal* to the recomputed
///   aggregate (inserts keep it tight).
/// - **sum/count**: the stored entry equals the recomputed aggregate
///   (maintenance is exact for these; staleness never applies).
/// - Rows whose group key has no SMA file at all are reported — an entry
///   the maintenance path failed to create.
///
/// Quarantined buckets are skipped (their entries are declared garbage by
/// contract). Level 2 is checked against level 1 by [`check_level2`].
/// Scan errors propagate; they are I/O failures, not invariant
/// violations.
pub fn check_sma(table: &Table, sma: &Sma) -> Result<Vec<Violation>, SmaError> {
    let mut out = check_level2(sma);
    let def = sma.def();
    for bucket in 0..table.bucket_count() {
        if sma.is_quarantined(bucket) {
            continue;
        }
        let rows = table.scan_bucket(bucket)?;
        // Recompute per-group truth for this bucket.
        let mut truth: std::collections::BTreeMap<GroupKey, (Accumulator, i64)> =
            std::collections::BTreeMap::new();
        for (_, tuple) in &rows {
            let key = def.group_key(tuple);
            let v = def.input_value(tuple)?;
            let slot = truth
                .entry(key)
                .or_insert_with(|| (Accumulator::new(def.agg), 0));
            slot.0.update(&v);
            slot.1 += 1;
        }
        for (key, (acc, n_rows)) in truth {
            let actual = acc.finish();
            let Some(stored) = sma.entry(&key, bucket) else {
                out.push(Violation {
                    bucket,
                    group: key,
                    detail: format!("{} rows present but the SMA has no entry", n_rows),
                });
                continue;
            };
            let stale = sma.is_stale(bucket);
            match def.agg {
                AggFn::Min => {
                    if actual.is_null() {
                        continue; // all inputs null: nothing to dominate
                    }
                    if !min_dominates(stored, &actual) {
                        out.push(Violation {
                            bucket,
                            group: key,
                            detail: format!(
                                "stored min {stored:?} does not dominate bucket minimum {actual:?}"
                            ),
                        });
                    } else if !stale && *stored != actual {
                        out.push(Violation {
                            bucket,
                            group: key,
                            detail: format!(
                                "bucket not stale but stored min {stored:?} != recomputed {actual:?}"
                            ),
                        });
                    }
                }
                AggFn::Max => {
                    if actual.is_null() {
                        continue;
                    }
                    if !max_dominates(stored, &actual) {
                        out.push(Violation {
                            bucket,
                            group: key,
                            detail: format!(
                                "stored max {stored:?} does not dominate bucket maximum {actual:?}"
                            ),
                        });
                    } else if !stale && *stored != actual {
                        out.push(Violation {
                            bucket,
                            group: key,
                            detail: format!(
                                "bucket not stale but stored max {stored:?} != recomputed {actual:?}"
                            ),
                        });
                    }
                }
                AggFn::Sum => {
                    if *stored != actual {
                        out.push(Violation {
                            bucket,
                            group: key,
                            detail: format!(
                                "stored sum {stored:?} != recomputed {actual:?} (sum maintenance is exact)"
                            ),
                        });
                    }
                }
                AggFn::Count => {
                    if *stored != Value::Int(n_rows) {
                        out.push(Violation {
                            bucket,
                            group: key,
                            detail: format!(
                                "stored count {stored:?} != {n_rows} rows in the bucket"
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Checks `sma`'s level 2 against its level 1: each group file's entry
/// for a super-bucket equals the fold of the file's entries over its
/// buckets, and each super-bucket's flags equal the conjunction of its
/// buckets' level-1 flags. Quarantined buckets count like any other:
/// level 2 folds whatever level 1 holds.
pub fn check_level2(sma: &Sma) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = sma.n_buckets();
    for sb in 0..sma.super_bucket_count() {
        let buckets = super_bucket_range(sb, n);
        let mut violation = |group: &GroupKey, detail: String| {
            out.push(Violation {
                bucket: buckets.start,
                group: group.clone(),
                detail: format!("super-bucket {sb}: {detail}"),
            });
        };
        for (key, file) in sma.groups() {
            let mut acc = Accumulator::new(sma.def().agg);
            for b in buckets.clone() {
                if let Some(v) = file.get(b) {
                    acc.merge(v);
                }
            }
            let folded = acc.finish();
            let stored = sma.super_entries(key).and_then(|e| e.get(sb as usize));
            if stored != Some(&folded) {
                violation(
                    key,
                    format!("level-2 entry {stored:?} != fold of level 1 {folded:?}"),
                );
            }
        }
        let folded = SuperFlags {
            defined: buckets.clone().all(|b| {
                sma.groups()
                    .any(|(_, f)| f.get(b).is_some_and(|v| !v.is_null()))
            }),
            null_free: buckets.clone().all(|b| !sma.saw_null(b)),
            fresh: buckets.clone().all(|b| !sma.is_stale(b)),
            clean: buckets.clone().all(|b| !sma.is_quarantined(b)),
        };
        if sma.super_flags(sb) != folded {
            violation(
                &Vec::new(),
                format!(
                    "level-2 flags {:?} != fold of level 1 {folded:?}",
                    sma.super_flags(sb)
                ),
            );
        }
    }
    out
}

/// Validates every SMA in `set`, concatenating violations.
pub fn check_set(table: &Table, set: &SmaSet) -> Result<Vec<Violation>, SmaError> {
    let mut out = Vec::new();
    for sma in set.smas() {
        out.extend(check_sma(table, sma)?);
    }
    Ok(out)
}

/// Debug-build hook: re-derives the invariants and `debug_assert!`s that
/// none are violated. Scan errors are ignored (they are the I/O layer's
/// problem); in release builds this compiles to nothing.
pub fn debug_check_sma(table: &Table, sma: &Sma) {
    if cfg!(debug_assertions) {
        if let Ok(violations) = check_sma(table, sma) {
            debug_assert!(
                violations.is_empty(),
                "SMA '{}' violates its bucket invariants:\n{}",
                sma.def().name,
                violations
                    .iter()
                    .map(Violation::to_string)
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::SmaDefinition;
    use crate::expr::col;
    use sma_storage::Table;
    use sma_types::{Column, DataType, Schema, Value};
    use std::sync::Arc;

    fn table(rows: &[i64]) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("PAD", DataType::Str),
        ]));
        let mut t = Table::in_memory("t", schema, 1);
        let pad = "p".repeat(1500);
        for &k in rows {
            t.append(&vec![Value::Int(k), Value::Str(pad.clone())])
                .unwrap();
        }
        t
    }

    #[test]
    fn freshly_built_smas_validate_clean() {
        let t = table(&[5, 3, 9, 1, 7, 2, 8, 4]);
        for def in [
            SmaDefinition::new("min", AggFn::Min, col(0)),
            SmaDefinition::new("max", AggFn::Max, col(0)),
            SmaDefinition::new("sum", AggFn::Sum, col(0)),
            SmaDefinition::count("count"),
        ] {
            let sma = Sma::build(&t, def).unwrap();
            assert_eq!(check_sma(&t, &sma).unwrap(), vec![]);
        }
    }

    #[test]
    fn missed_maintenance_is_detected() {
        let mut t = table(&[5, 3, 9]);
        let min = Sma::build(&t, SmaDefinition::new("min", AggFn::Min, col(0))).unwrap();
        let count = Sma::build(&t, SmaDefinition::count("count")).unwrap();
        // Append a new minimum WITHOUT notifying the SMAs — the classic
        // missed-maintenance bug the validator exists to catch.
        t.append(&vec![Value::Int(-100), Value::Str("p".repeat(1500))])
            .unwrap();
        let min_violations = check_sma(&t, &min).unwrap();
        assert!(
            min_violations
                .iter()
                .any(|v| v.detail.contains("does not dominate")),
            "{min_violations:?}"
        );
        let count_violations = check_sma(&t, &count).unwrap();
        assert!(
            !count_violations.is_empty(),
            "stored count must disagree with the appended row"
        );
    }

    #[test]
    fn stale_min_bound_is_loose_but_legal() {
        let t = table(&[5, 3, 9, 1]);
        let mut min = Sma::build(&t, SmaDefinition::new("min", AggFn::Min, col(0))).unwrap();
        // Row 1 lives in the last bucket (two 1500-byte rows per page).
        // Deleting it marks that bucket stale; the old bound (1) still
        // dominates the remaining row (9), so no violation.
        let last = t.bucket_count() - 1;
        min.note_delete(last, &vec![Value::Int(1), Value::Str(String::new())])
            .unwrap();
        assert!(min.is_stale(last));
        // The table still holds row 1 here (we only told the SMA), so
        // simulate the delete's table side with a fresh table instead.
        let t2 = table(&[5, 3, 9]);
        assert_eq!(check_sma(&t2, &min).unwrap(), vec![]);
    }

    #[test]
    fn quarantined_buckets_are_skipped() {
        let mut t = table(&[5, 3, 9]);
        let mut min = Sma::build(&t, SmaDefinition::new("min", AggFn::Min, col(0))).unwrap();
        t.append(&vec![Value::Int(-100), Value::Str("p".repeat(1500))])
            .unwrap();
        min.quarantine_bucket(0);
        // The entry no longer dominates, but quarantine declares it
        // garbage — execution demotes the bucket to a table scan anyway.
        let quarantined: Vec<u32> = (0..t.bucket_count())
            .filter(|&b| min.is_quarantined(b))
            .collect();
        let violations = check_sma(&t, &min).unwrap();
        assert!(violations.iter().all(|v| !quarantined.contains(&v.bucket)));
    }
}
