//! Cross-crate tests of the §4 extensions: two-level SMAs and join
//! SMAs over TPC-D data, plus the data-cube and B+-tree comparators
//! agreeing with the SMA-based answers.

use smadb::cube::{page_sized_order, BPlusTree, Query1Cube};
use smadb::exec::{collect, SemiJoin};
use smadb::sma::{col, AggFn, BucketPred, Classification, CmpOp, Grade, SmaDefinition, SmaSet};
use smadb::tpcd::{
    generate, generate_lineitem_table, q1_cutoff, q1_reference_table, schema::lineitem as li,
    schema::orders as o, start_date, Clustering, GenConfig,
};
use smadb::types::{Date, Value};

/// The planner's two-level grading equals flat grading on TPC-D data,
/// and on clustered data level 2 decides most super-buckets of a
/// selective predicate without their level-1 entries.
#[test]
fn hierarchical_smas_agree_with_flat_grading_on_tpcd() {
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::diagonal_default()));
    let set = SmaSet::build(
        &table,
        vec![
            SmaDefinition::new("min", AggFn::Min, col(li::SHIPDATE)),
            SmaDefinition::new("max", AggFn::Max, col(li::SHIPDATE)),
        ],
    )
    .unwrap();
    let (min, max) = (
        set.min_sma_for(li::SHIPDATE).unwrap(),
        set.max_sma_for(li::SHIPDATE).unwrap(),
    );
    assert!(min.super_bucket_count() >= 4);
    for delta in [30, 90, 500, 1500] {
        let cutoff = Value::Date(q1_cutoff(delta));
        let pred = BucketPred::cmp(li::SHIPDATE, CmpOp::Le, cutoff.clone());
        let flat: Vec<Grade> = (0..table.bucket_count())
            .map(|b| pred.grade(b, &set))
            .collect();
        let two_level = Classification::classify(&pred, table.bucket_count(), &set);
        assert_eq!(two_level.grades, flat, "delta {delta}");
        // Clustered data: for selective predicates most super-buckets lie
        // wholly on one side of the cutoff.
        if delta >= 500 {
            let decided = (0..min.super_bucket_count())
                .filter(|&sb| {
                    CmpOp::Le.eval(&max.super_value_across_groups(sb), &cutoff)
                        || CmpOp::Gt.eval(&min.super_value_across_groups(sb), &cutoff)
                })
                .count() as u32;
            assert!(
                2 * decided > min.super_bucket_count(),
                "delta {delta}: level 2 decided {decided} of {} super-buckets",
                min.super_bucket_count()
            );
        }
    }
}

#[test]
fn join_sma_semijoin_on_tpcd_dates() {
    // LINEITEMs shipped on or before some ORDERS order date — an
    // existential date join, SMA-reduced on LINEITEM's shipdate bounds.
    let cfg = GenConfig::tiny(Clustering::SortedByShipdate);
    let (orders, _) = generate(&cfg);
    let lineitem = generate_lineitem_table(&cfg);
    // Keep only early orders so the reduction actually prunes.
    let early: Vec<_> = orders
        .iter()
        .filter(|ord| ord.orderdate <= start_date().add_days(120))
        .cloned()
        .collect();
    assert!(!early.is_empty());
    let orders_table = smadb::tpcd::load_orders(&early, 1, 1 << 12);
    let smas = SmaSet::build(
        &lineitem,
        vec![
            SmaDefinition::new("min", AggFn::Min, col(li::SHIPDATE)),
            SmaDefinition::new("max", AggFn::Max, col(li::SHIPDATE)),
        ],
    )
    .unwrap();

    let mut naive = SemiJoin::new(
        &lineitem,
        li::SHIPDATE,
        CmpOp::Le,
        &orders_table,
        o::ORDERDATE,
        None,
    );
    let naive_rows = collect(&mut naive).unwrap();

    let mut reduced = SemiJoin::new(
        &lineitem,
        li::SHIPDATE,
        CmpOp::Le,
        &orders_table,
        o::ORDERDATE,
        Some(&smas),
    );
    let reduced_rows = collect(&mut reduced).unwrap();
    assert_eq!(naive_rows, reduced_rows);
    let c = reduced.counters();
    assert!(
        c.disqualified > c.total() / 2,
        "sorted shipdates let the reduction skip most buckets: {c:?}"
    );
}

#[test]
fn data_cube_and_sma_plan_agree() {
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::Uniform));
    let cube =
        Query1Cube::build(&table, start_date(), Date::from_ymd(1998, 12, 31).unwrap()).unwrap();
    let smas = SmaSet::build_query1_set(&table).unwrap();
    for delta in [60, 90, 120] {
        let cutoff = q1_cutoff(delta);
        let from_cube = cube.answer(cutoff);
        let oracle = q1_reference_table(&table, cutoff).unwrap();
        let run = smadb::exec::run_query1(
            &table,
            Some(&smas),
            &smadb::exec::Query1Config {
                delta,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(from_cube.len(), oracle.len());
        assert_eq!(run.rows.len(), oracle.len());
        for ((f, s, cell), ora) in from_cube.iter().zip(&oracle) {
            assert_eq!(*f, ora.returnflag);
            assert_eq!(*s, ora.linestatus);
            assert_eq!(cell.count, ora.count_order);
        }
    }
}

#[test]
fn btree_on_shipdate_vs_sma_space() {
    // §2.4's space comparison: a B+ tree on shipdate vs all eight SMAs.
    // Needs enough data that the 26 SMA files' one-page minimum stops
    // dominating (the paper's gap — 230 MB vs 33.8 MB — is at SF 1).
    let cfg = GenConfig {
        orders: 4000,
        ..GenConfig::tiny(Clustering::SortedByShipdate)
    };
    let table = generate_lineitem_table(&cfg);
    let rows = table.scan().unwrap();
    let pairs: Vec<(i32, u64)> = rows
        .iter()
        .map(|(tid, t)| {
            (
                t[li::SHIPDATE].as_date().unwrap().days(),
                ((tid.page as u64) << 16) | tid.slot as u64,
            )
        })
        .collect();
    let mut sorted = pairs.clone();
    sorted.sort_by_key(|&(k, _)| k);
    let tree = BPlusTree::bulk_load(page_sized_order(4, 8), sorted);
    tree.check_invariants();
    assert_eq!(tree.len(), rows.len());

    let smas = SmaSet::build_query1_set(&table).unwrap();
    // The tree indexes every tuple; the SMAs summarize every bucket, so
    // the whole 26-file set still undercuts it (the paper: 230 MB tree vs
    // 33.8 MB of SMAs; our tuples and tree entries are leaner, so the
    // ratio is smaller but the direction is the same)…
    assert!(
        tree.node_count() > smas.total_pages(),
        "B+ tree {} nodes vs SMA {} pages",
        tree.node_count(),
        smas.total_pages()
    );
    // …and the apples-to-apples comparison for *selection support* — the
    // tree vs just the min/max SMAs that replace it — is lopsided.
    let selection_pages: usize = [
        smas.min_sma_for(li::SHIPDATE),
        smas.max_sma_for(li::SHIPDATE),
    ]
    .into_iter()
    .flatten()
    .map(|s| s.total_pages())
    .sum();
    assert!(
        tree.node_count() > selection_pages * 20,
        "B+ tree {} nodes vs min/max SMA {} pages",
        tree.node_count(),
        selection_pages
    );
    // And a range lookup still works, for the queries where a tree IS the
    // right tool (high selectivity).
    let day = q1_cutoff(90).days();
    let narrow = tree.range(&(day - 1), &day);
    let expected = rows
        .iter()
        .filter(|(_, t)| {
            let d = t[li::SHIPDATE].as_date().unwrap().days();
            d >= day - 1 && d <= day
        })
        .count();
    assert_eq!(narrow.len(), expected);
}
