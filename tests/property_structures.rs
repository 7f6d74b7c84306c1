//! Property tests over the auxiliary structures: persistence roundtrips
//! for arbitrary SMA shapes, two-level grading vs flat grading, and
//! projection-index/SMA agreement.

use std::sync::Arc;

use smadb::sma::{
    check_level2, col, load_sma, save_sma, AggFn, BucketPred, Classification, CmpOp, Grade,
    ProjectionIndex, Sma, SmaDefinition, SmaSet,
};
use smadb::storage::{MemStore, Table};
use smadb::types::{Column, DataType, Schema, StdRng, Value};

fn int_flag_table(rows: &[(i64, u8)]) -> Table {
    let schema = Arc::new(Schema::new(vec![
        Column::new("K", DataType::Int),
        Column::new("G", DataType::Char),
        Column::new("PAD", DataType::Str),
    ]));
    let mut t = Table::in_memory("t", schema, 1);
    let pad = "p".repeat(1700);
    for &(k, g) in rows {
        t.append(&vec![
            Value::Int(k),
            Value::Char(g),
            Value::Str(pad.clone()),
        ])
        .unwrap();
    }
    t
}

fn random_rows(rng: &mut StdRng) -> Vec<(i64, u8)> {
    let n = rng.random_range(1..100usize);
    (0..n)
        .map(|_| {
            let k = rng.random_range(-50i64..50);
            let g = [b'A', b'B', b'C'][rng.random_range(0..3usize)];
            (k, g)
        })
        .collect()
}

/// Any built SMA — grouped or not, over expressions or columns —
/// roundtrips bit-exactly through the page-store serialization.
#[test]
fn persistence_roundtrips_arbitrary_smas() {
    let mut rng = StdRng::seed_from_u64(0x572C_0001);
    for case in 0..32 {
        let rows = random_rows(&mut rng);
        let which = rng.random_range(0..4u8);
        let grouped = rng.random_bool();
        let t = int_flag_table(&rows);
        let mut def = match which {
            0 => SmaDefinition::new("p_min", AggFn::Min, col(0)),
            1 => SmaDefinition::new("p_max", AggFn::Max, col(0)),
            2 => SmaDefinition::new("p_sum", AggFn::Sum, col(0).mul(smadb::sma::lit(3i64))),
            _ => SmaDefinition::count("p_count"),
        };
        if grouped {
            def = def.group_by(vec![1]);
        }
        let sma = Sma::build(&t, def).unwrap();
        let mut store = MemStore::new();
        let (first, _) = save_sma(&sma, &mut store).unwrap();
        let back = load_sma(&store, first).unwrap();
        assert_eq!(back.def(), sma.def(), "case {case}");
        assert_eq!(back.n_buckets(), sma.n_buckets(), "case {case}");
        assert_eq!(back.file_count(), sma.file_count(), "case {case}");
        for (key, file) in sma.groups() {
            for b in 0..sma.n_buckets() {
                assert_eq!(back.entry(key, b), file.get(b), "case {case}");
            }
        }
        for b in 0..sma.n_buckets() {
            assert_eq!(back.saw_null(b), sma.saw_null(b), "case {case}");
            assert_eq!(back.is_stale(b), sma.is_stale(b), "case {case}");
        }
    }
}

/// A random tree of `and`/`or` over atoms on `K` and `J` (both with
/// min/max SMAs), `K op J`, `G` (only a count SMA grouped by it) and `U`
/// (no SMA at all).
fn random_pred(rng: &mut StdRng, depth: u32) -> BucketPred {
    let op = [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq][rng.random_range(0..5usize)];
    if depth == 0 || rng.random_range(0..3u8) == 0 {
        let c = rng.random_range(-20i64..120);
        return match rng.random_range(0..7u8) {
            0 | 1 => BucketPred::cmp(0, op, c),
            2 => BucketPred::cmp(1, op, c),
            3 => BucketPred::cmp(3, op, c),
            4 => BucketPred::col_cmp(0, op, 1),
            5 => BucketPred::cmp(2, op, Value::Char(b'A' + rng.random_range(0..5u8))),
            _ => BucketPred::cmp(0, op, c / 10),
        };
    }
    let children = (0..rng.random_range(1..4usize))
        .map(|_| random_pred(rng, depth - 1))
        .collect();
    if rng.random_bool() {
        BucketPred::And(children)
    } else {
        BucketPred::Or(children)
    }
}

/// `classify` — level 2 first, level 1 where it is undecided — returns,
/// bucket for bucket, what grading each bucket on its own returns.
/// Per-bucket grading is the oracle. The cases: sorted, drifting,
/// uniform and descending data; NULL-bearing and all-NULL buckets;
/// grouped min/max SMAs whose groups are absent from some buckets; stale
/// buckets after `note_delete`; quarantined buckets, set-wide and in one
/// member; inserts after the build; tables under 16 buckets and partial
/// last super-buckets; classifications shorter and longer than the SMAs;
/// `A op B`; and `and`/`or` mixing indexed and unindexed columns.
#[test]
fn hierarchical_equals_flat() {
    let mut rng = StdRng::seed_from_u64(0x572C_0002);
    let schema = Arc::new(Schema::new(vec![
        Column::new("K", DataType::Int),
        Column::new("J", DataType::Int),
        Column::new("G", DataType::Char),
        Column::new("U", DataType::Int),
        Column::new("PAD", DataType::Str),
    ]));
    let pad = "p".repeat(1700);
    for case in 0..48 {
        let n_rows = [rng.random_range(1..32usize), rng.random_range(32..400)][case % 2];
        let clustering = rng.random_range(0..4u8);
        let null_run = rng.random_range(0..n_rows);
        let mut t = Table::in_memory("t", schema.clone(), 1);
        let mut rows = Vec::new();
        for i in 0..n_rows as i64 {
            let k = match clustering {
                0 => i / 4,
                1 => i / 4 + rng.random_range(-6i64..6),
                2 => rng.random_range(-10i64..110),
                _ => 100 - i / 4,
            };
            // Scattered NULLs, and one run of them long enough to leave
            // whole buckets all-NULL.
            let null = rng.random_range(0..25u8) == 0
                || (i as usize >= null_run && i as usize - null_run < 6 && case % 3 == 0);
            let row = vec![
                if null { Value::Null } else { Value::Int(k) },
                Value::Int(k + rng.random_range(-3i64..30)),
                // Groups drift with the data, so each is absent from some
                // buckets.
                Value::Char(b'A' + ((i / 16 + rng.random_range(0..2i64)) % 4) as u8),
                Value::Int(rng.random_range(0i64..100)),
                Value::Str(pad.clone()),
            ];
            let tid = t.append(&row).unwrap();
            rows.push((tid, row));
        }
        let grouped = |def: SmaDefinition| {
            if case % 4 < 2 {
                def.group_by(vec![2])
            } else {
                def
            }
        };
        let mut set = SmaSet::build(
            &t,
            vec![
                grouped(SmaDefinition::new("min_k", AggFn::Min, col(0))),
                grouped(SmaDefinition::new("max_k", AggFn::Max, col(0))),
                SmaDefinition::new("min_j", AggFn::Min, col(1)),
                SmaDefinition::new("max_j", AggFn::Max, col(1)),
                SmaDefinition::count("count").group_by(vec![2]),
            ],
        )
        .unwrap();
        // Stale buckets: deletes loosen min/max.
        for _ in 0..rng.random_range(0..4usize) {
            let (tid, row) = rows.swap_remove(rng.random_range(0..rows.len()));
            t.delete(tid).unwrap();
            set.note_delete(t.bucket_of_page(tid.page), &row).unwrap();
            if rows.is_empty() {
                break;
            }
        }
        // Inserts after the build grow the last super-bucket.
        for i in 0..rng.random_range(0..6i64) {
            let row = vec![
                Value::Int(i),
                Value::Int(i + 1),
                Value::Char(b'E'),
                Value::Int(i),
                Value::Str(pad.clone()),
            ];
            let tid = t.append(&row).unwrap();
            set.note_insert(t.bucket_of_page(tid.page), &row).unwrap();
        }
        // Quarantined buckets, set-wide or in the min SMA alone.
        let n = t.bucket_count();
        for _ in 0..rng.random_range(0..3usize) {
            set.quarantine_bucket(rng.random_range(0..n));
        }
        if case % 5 == 0 {
            let mut one = SmaSet::new();
            for sma in set.smas() {
                let mut sma = sma.clone();
                if sma.def().name == "min_k" {
                    sma.quarantine_bucket(rng.random_range(0..n));
                }
                one.push(sma);
            }
            set = one;
        }
        for sma in set.smas() {
            assert_eq!(check_level2(sma), vec![], "case {case}");
        }
        for p in 0..24 {
            let pred = random_pred(&mut rng, 2);
            // Also classify a prefix, and past the SMAs' end.
            for len in [n, n.saturating_sub(3), n + 5] {
                let flat: Vec<Grade> = (0..len).map(|b| pred.grade(b, &set)).collect();
                let graded = Classification::classify(&pred, len, &set);
                assert_eq!(
                    graded.grades, flat,
                    "case {case} pred {p} len {len}: {pred:?}"
                );
            }
        }
    }
}

/// The same oracle over TPC-D LINEITEM in all four clusterings, with the
/// Query 1 SMAs and `olap_scan`'s predicate shapes: Query 1's cutoff,
/// Query 6's date range with unindexed discount and quantity ranges, and
/// a date bound beside an unindexed `L_TAX` bound.
#[test]
fn hierarchical_equals_flat_on_tpcd_clusterings() {
    use smadb::tpcd::{generate_lineitem_table, q1_cutoff, schema::lineitem as li};
    use smadb::tpcd::{Clustering, GenConfig};
    use smadb::types::{Date, Decimal};
    let cents = |c: i64| Value::Decimal(Decimal::from_cents(c));
    let year = |y: i32| Value::Date(Date::from_ymd(y, 1, 1).unwrap());
    for clustering in [
        Clustering::SortedByShipdate,
        Clustering::diagonal_default(),
        Clustering::Uniform,
        Clustering::Shuffled,
    ] {
        let t = generate_lineitem_table(&GenConfig::tiny(clustering));
        let set = SmaSet::build_query1_set(&t).unwrap();
        let mut preds = Vec::new();
        for delta in [60, 90, 500] {
            preds.push(BucketPred::cmp(
                li::SHIPDATE,
                CmpOp::Le,
                Value::Date(q1_cutoff(delta)),
            ));
        }
        for y in [1993, 1995, 1998] {
            preds.push(BucketPred::And(vec![
                BucketPred::cmp(li::SHIPDATE, CmpOp::Ge, year(y)),
                BucketPred::cmp(li::SHIPDATE, CmpOp::Lt, year(y + 1)),
                BucketPred::cmp(li::DISCOUNT, CmpOp::Ge, cents(5)),
                BucketPred::cmp(li::DISCOUNT, CmpOp::Le, cents(7)),
                BucketPred::cmp(li::QUANTITY, CmpOp::Lt, cents(2_400)),
            ]));
            preds.push(BucketPred::And(vec![
                BucketPred::cmp(li::SHIPDATE, CmpOp::Ge, year(y)),
                BucketPred::cmp(li::TAX, CmpOp::Le, cents(4)),
            ]));
            preds.push(BucketPred::Or(vec![
                BucketPred::cmp(li::SHIPDATE, CmpOp::Lt, year(y)),
                BucketPred::cmp(li::TAX, CmpOp::Le, cents(4)),
            ]));
        }
        let n = t.bucket_count();
        for pred in &preds {
            let flat: Vec<Grade> = (0..n).map(|b| pred.grade(b, &set)).collect();
            let graded = Classification::classify(pred, n, &set);
            assert_eq!(graded.grades, flat, "{clustering:?}: {pred:?}");
        }
    }
}

/// The projection index's exact counts agree with brute force, and its
/// singleton bounds agree with the SMA degeneration of §2.2.
#[test]
fn projection_index_counts_exactly() {
    let mut rng = StdRng::seed_from_u64(0x572C_0003);
    for case in 0..32 {
        let rows = random_rows(&mut rng);
        let cutoff = rng.random_range(-60i64..60);
        let t = int_flag_table(&rows);
        let idx = ProjectionIndex::build(&t, col(0)).unwrap();
        let brute = rows.iter().filter(|&&(k, _)| k <= cutoff).count();
        assert_eq!(
            idx.count(CmpOp::Le, &Value::Int(cutoff)),
            brute,
            "case {case}"
        );
        // Singleton bounds = per-tuple min=max=value, in physical order.
        let bounds = idx.as_singleton_bounds();
        assert_eq!(bounds.len(), rows.len(), "case {case}");
        for (b, &(k, _)) in bounds.iter().zip(&rows) {
            assert_eq!(
                b.clone(),
                Some((Value::Int(k), Value::Int(k))),
                "case {case}"
            );
        }
    }
}
