//! SMA maintenance under inserts, deletes and updates: after any sequence
//! of table mutations mirrored into the SMA set, grading must stay sound
//! and query answers must stay exact.

use std::sync::Arc;

use smadb::exec::{collect, AggSpec, Filter, HashGAggr, SeqScan, SmaGAggr};
use smadb::sma::{check_level2, col, AggFn, BucketPred, CmpOp, Grade, SmaDefinition, SmaSet};
use smadb::storage::{Table, TupleId};
use smadb::types::{Column, DataType, Schema, StdRng, Value};

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("K", DataType::Int),
        Column::new("G", DataType::Char),
        Column::new("PAD", DataType::Str),
    ]))
}

fn tuple(k: i64, g: u8) -> Vec<Value> {
    vec![Value::Int(k), Value::Char(g), Value::Str("p".repeat(1700))]
}

fn defs() -> Vec<SmaDefinition> {
    vec![
        SmaDefinition::new("min", AggFn::Min, col(0)),
        SmaDefinition::new("max", AggFn::Max, col(0)),
        SmaDefinition::count("count").group_by(vec![1]),
        SmaDefinition::new("sum", AggFn::Sum, col(0)).group_by(vec![1]),
    ]
}

/// Checks that an answer computed through the (maintained) SMAs equals the
/// naive answer over the current table state.
fn check_answers(t: &Table, smas: &SmaSet) {
    for c in [10i64, 50, 90] {
        let pred = BucketPred::cmp(0, CmpOp::Le, c);
        let specs = vec![AggSpec::CountStar, AggSpec::Sum(col(0))];
        let mut fast = SmaGAggr::new(t, pred.clone(), vec![1], specs.clone(), smas).unwrap();
        let fast_rows = collect(&mut fast).unwrap();
        let mut slow = HashGAggr::new(
            Box::new(Filter::new(Box::new(SeqScan::new(t)), pred)),
            vec![1],
            specs,
        );
        assert_eq!(fast_rows, collect(&mut slow).unwrap(), "cutoff {c}");
    }
}

/// Every member's level 2 equals the fold of its level 1 — checked after
/// each maintenance call.
fn assert_level2(smas: &SmaSet) {
    for sma in smas.smas() {
        assert_eq!(check_level2(sma), vec![], "{}", sma.def().name);
    }
}

fn check_grading_sound(t: &Table, smas: &SmaSet) {
    for c in [10i64, 50, 90] {
        let pred = BucketPred::cmp(0, CmpOp::Le, c);
        for b in 0..t.bucket_count() {
            let tuples = t.scan_bucket(b).unwrap();
            let passing = tuples.iter().filter(|(_, tu)| pred.eval_tuple(tu)).count();
            match pred.grade(b, smas) {
                Grade::Qualifies => assert_eq!(passing, tuples.len()),
                Grade::Disqualifies => assert_eq!(passing, 0),
                Grade::Ambivalent => {}
            }
        }
    }
}

#[test]
fn inserts_keep_smas_exact() {
    let mut t = Table::in_memory("t", schema(), 1);
    let mut smas = SmaSet::build(&t, defs()).unwrap();
    for k in 0..60i64 {
        let tu = tuple((k * 13) % 100, b'A' + (k % 2) as u8);
        let tid = t.append(&tu).unwrap();
        smas.note_insert(t.bucket_of_page(tid.page), &tu).unwrap();
        assert_level2(&smas);
    }
    check_grading_sound(&t, &smas);
    check_answers(&t, &smas);
    // Maintained set equals a from-scratch rebuild.
    let rebuilt = SmaSet::build(&t, defs()).unwrap();
    for c in [10i64, 50, 90] {
        let pred = BucketPred::cmp(0, CmpOp::Le, c);
        for b in 0..t.bucket_count() {
            assert_eq!(pred.grade(b, &smas), pred.grade(b, &rebuilt));
        }
    }
}

#[test]
fn deletes_leave_sound_but_loose_bounds() {
    let mut t = Table::in_memory("t", schema(), 1);
    let mut ids: Vec<(TupleId, Vec<Value>)> = Vec::new();
    for k in 0..40i64 {
        let tu = tuple(k, b'A' + (k % 2) as u8);
        let tid = t.append(&tu).unwrap();
        ids.push((tid, tu));
    }
    let mut smas = SmaSet::build(&t, defs()).unwrap();
    // Delete every third tuple.
    for (tid, tu) in ids.iter().step_by(3) {
        t.delete(*tid).unwrap();
        smas.note_delete(t.bucket_of_page(tid.page), tu).unwrap();
        assert_level2(&smas);
    }
    check_grading_sound(&t, &smas);
    check_answers(&t, &smas);
    // Refresh tightens the stale buckets; answers stay identical.
    let mut refreshed = smas.clone();
    for b in 0..t.bucket_count() {
        refreshed.refresh_bucket(&t, b).unwrap();
        assert_level2(&refreshed);
    }
    check_grading_sound(&t, &refreshed);
    check_answers(&t, &refreshed);
}

#[test]
fn updates_combine_delete_and_insert() {
    let mut t = Table::in_memory("t", schema(), 1);
    let mut ids: Vec<(TupleId, Vec<Value>)> = Vec::new();
    for k in 0..40i64 {
        let tu = tuple(k, b'A');
        let tid = t.append(&tu).unwrap();
        ids.push((tid, tu));
    }
    let mut smas = SmaSet::build(&t, defs()).unwrap();
    for (tid, old) in ids.iter().take(20) {
        let new = tuple(old[0].as_int().unwrap() + 100, b'B');
        let new_tid = t.update(*tid, &new).unwrap();
        assert_eq!(
            t.bucket_of_page(new_tid.page),
            t.bucket_of_page(tid.page),
            "updates stay in their bucket"
        );
        smas.note_update(t.bucket_of_page(tid.page), old, &new)
            .unwrap();
        assert_level2(&smas);
    }
    check_grading_sound(&t, &smas);
    check_answers(&t, &smas);
}

/// Random workload of inserts/deletes/updates mirrored into the SMAs:
/// grading soundness and exact answers must survive any interleaving.
#[test]
fn random_workload_stays_consistent() {
    let mut rng = StdRng::seed_from_u64(0x3A17_0001);
    for _ in 0..24 {
        let n_ops = rng.random_range(1..80usize);
        let mut t = Table::in_memory("t", schema(), 1);
        let mut smas = SmaSet::build(&t, defs()).unwrap();
        let mut live: Vec<(TupleId, Vec<Value>)> = Vec::new();
        for _ in 0..n_ops {
            let kind = rng.random_range(0..10u8);
            let k = rng.random_range(0i64..100);
            let pick = rng.random_range(0..64usize);
            match kind {
                // 60 % inserts, 20 % deletes, 20 % updates.
                0..=5 => {
                    let tu = tuple(k, b'A' + (k % 3) as u8);
                    let tid = t.append(&tu).unwrap();
                    smas.note_insert(t.bucket_of_page(tid.page), &tu).unwrap();
                    assert_level2(&smas);
                    live.push((tid, tu));
                }
                6 | 7 => {
                    if live.is_empty() {
                        continue;
                    }
                    let (tid, tu) = live.swap_remove(pick % live.len());
                    t.delete(tid).unwrap();
                    smas.note_delete(t.bucket_of_page(tid.page), &tu).unwrap();
                    assert_level2(&smas);
                }
                _ => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = pick % live.len();
                    let (tid, old) = live[idx].clone();
                    let new = tuple(k, b'A' + (k % 3) as u8);
                    // Fixed-width tuple: same size, update stays in place.
                    let new_tid = t.update(tid, &new).unwrap();
                    smas.note_update(t.bucket_of_page(tid.page), &old, &new)
                        .unwrap();
                    assert_level2(&smas);
                    live[idx] = (new_tid, new);
                }
            }
        }
        check_grading_sound(&t, &smas);
        check_answers(&t, &smas);
    }
}
