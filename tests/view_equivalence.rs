//! Equivalence of the zero-copy view layer with the materializing row
//! codec, of predicates compiled against the row layout with their
//! tuple-level evaluation, and of the view-based scan kernels with their
//! materialized references: answer rows, I/O traces, and scan counters
//! must be byte-identical with or without views, at any parallelism,
//! healthy or degraded.

use smadb::exec::{
    collect, cutoff, query1_query, query6_sma_definitions, run_query1, run_query6, Filter,
    HashGAggr, Parallelism, PlannerConfig, Q6Params, Query1Config, SeqScan, SmaGAggr, SmaScan,
};
use smadb::sma::{BucketPred, CmpOp, CompiledPred, Grade, SmaSet};
use smadb::storage::Table;
use smadb::tpcd::{generate_lineitem_table, Clustering, GenConfig};
use smadb::types::row::{decode, encode};
use smadb::types::{Column, DataType, Date, Decimal, Projection, RowLayout, Schema, StdRng, Value};

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Decimal,
    DataType::Date,
    DataType::Char,
    DataType::Str,
];

fn random_value(rng: &mut StdRng, ty: DataType) -> Value {
    if rng.random_range(0i64..8) == 0 {
        return Value::Null;
    }
    match ty {
        DataType::Int => Value::Int(rng.random_range(-1_000_000i64..1_000_000)),
        DataType::Decimal => Value::Decimal(Decimal::from_cents(
            rng.random_range(-10_000_000i64..10_000_000),
        )),
        DataType::Date => Value::Date(Date::from_days(rng.random_range(0i64..40_000) as i32)),
        DataType::Char => Value::Char(rng.random_range(32i64..127) as u8),
        DataType::Str => {
            let len = rng.random_range(0i64..40) as usize;
            let s: String = (0..len)
                .map(|_| rng.random_range(32i64..127) as u8 as char)
                .collect();
            Value::Str(s)
        }
    }
}

const OPS: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// One random comparison over `schema`, whose row is `tuple`: a literal
/// of the column's type (half the time the row's own value, so `=`,
/// `<=` and `>=` meet their edges), a `Null` literal, a literal of a
/// random type (mostly a mismatch), an out-of-range column, or a
/// column-vs-column comparison. A `Str` column with a `Str` literal is
/// the generic `Str` atom.
fn random_atom(rng: &mut StdRng, schema: &Schema, tuple: &[Value]) -> BucketPred {
    let ncols = schema.len();
    let op = OPS[rng.random_range(0i64..5) as usize];
    let col = rng.random_range(0i64..ncols as i64) as usize;
    match rng.random_range(0i64..16) {
        0 => BucketPred::cmp(
            ncols + rng.random_range(0i64..3) as usize,
            op,
            tuple[col].clone(),
        ),
        1 => BucketPred::cmp(col, op, Value::Null),
        2 => {
            let ty = TYPES[rng.random_range(0i64..5) as usize];
            BucketPred::cmp(col, op, random_value(rng, ty))
        }
        3 | 4 => BucketPred::col_cmp(col, op, rng.random_range(0i64..ncols as i64) as usize),
        5..=9 => BucketPred::cmp(col, op, tuple[col].clone()),
        _ => BucketPred::cmp(col, op, random_value(rng, schema.column(col).ty)),
    }
}

/// A random predicate tree: up to three terms per node (none makes the
/// empty `And` or `Or`), nested `And`s and `Or`s two levels deep.
fn random_pred(rng: &mut StdRng, schema: &Schema, tuple: &[Value], depth: u32) -> BucketPred {
    let terms = (0..rng.random_range(0i64..4))
        .map(|_| {
            if depth < 2 && rng.random_range(0i64..3) == 0 {
                random_pred(rng, schema, tuple, depth + 1)
            } else {
                random_atom(rng, schema, tuple)
            }
        })
        .collect();
    if depth > 0 && rng.random_range(0i64..2) == 0 {
        BucketPred::Or(terms)
    } else {
        BucketPred::And(terms)
    }
}

/// Column-at-a-time view decode equals the full materializing decode for
/// every data type, null pattern, and projection subset; and a random
/// predicate compiled against the round's layout answers exactly what
/// `eval_tuple` answers on the decoded row.
#[test]
fn views_decode_identically_across_types_nulls_and_projections() {
    let mut rng = StdRng::seed_from_u64(0x51EE7);
    let mut pred_rng = StdRng::seed_from_u64(0xC0DE);
    let mut outcomes = [0usize; 2];
    for round in 0..300 {
        let ncols = 1 + rng.random_range(0i64..12) as usize;
        let schema = Schema::new(
            (0..ncols)
                .map(|i| Column::new(format!("C{i}"), TYPES[rng.random_range(0i64..5) as usize]))
                .collect(),
        );
        let tuple: Vec<Value> = schema
            .columns()
            .iter()
            .map(|c| random_value(&mut rng, c.ty))
            .collect();
        let mut image = Vec::new();
        encode(&schema, &tuple, &mut image).unwrap();
        let decoded = decode(&schema, &image).unwrap();
        assert_eq!(decoded, tuple, "round {round}: codec round-trip");

        let layout = RowLayout::new(&schema);
        let view = layout.view(&image).unwrap();
        for (c, expect) in decoded.iter().enumerate() {
            assert_eq!(&view.get(c).unwrap(), expect, "round {round} col {c}");
            assert_eq!(
                view.is_null(c),
                *expect == Value::Null,
                "round {round} col {c}"
            );
            // Typed comparison agrees with the materialized semantics for
            // an arbitrary probe value.
            let probe_ty = TYPES[rng.random_range(0i64..5) as usize];
            let probe = random_value(&mut rng, probe_ty);
            assert_eq!(
                view.cmp_value(c, &probe).unwrap(),
                decoded[c].partial_cmp_typed(&probe),
                "round {round} col {c} probe {probe:?}"
            );
        }
        assert_eq!(view.materialize().unwrap(), decoded, "round {round}");

        // A random projection subset decodes identically column-at-a-time,
        // and its fixed-width classification is truthful.
        let proj = Projection::new(
            (0..ncols)
                .filter(|_| rng.random_range(0i64..2) == 0)
                .collect(),
        );
        for &c in proj.columns() {
            assert_eq!(
                view.get(c).unwrap(),
                decoded[c],
                "round {round} proj col {c}"
            );
        }
        assert_eq!(
            proj.is_fixed_width_only(&schema),
            proj.columns()
                .iter()
                .all(|&c| schema.column(c).ty != DataType::Str),
            "round {round}"
        );

        // Predicates compiled against this round's layout answer exactly
        // what the tuple-level evaluation answers on the decoded row.
        for _ in 0..8 {
            let pred = random_pred(&mut pred_rng, &schema, &decoded, 0);
            let compiled = CompiledPred::new(&pred, &layout).eval(&view).unwrap();
            assert_eq!(
                compiled,
                pred.eval_tuple(&decoded),
                "round {round}: {pred:?} on {decoded:?}"
            );
            outcomes[usize::from(compiled)] += 1;
        }
    }
    assert!(
        outcomes.iter().all(|&n| n > 200),
        "the sweep must exercise both answers, saw {outcomes:?}"
    );
}

fn q1_fixture(clustering: Clustering) -> (Table, SmaSet) {
    let table = generate_lineitem_table(&GenConfig::tiny(clustering));
    let smas = SmaSet::build_query1_set(&table).unwrap();
    (table, smas)
}

/// The production zero-copy `SmaScan` kernel against a materialized
/// reference built from public APIs (`scan_bucket` + `eval_tuple` — the
/// pre-view implementation): identical rows AND an identical cold I/O
/// trace, since the views read the very same pages in the very same order.
#[test]
fn zero_copy_scan_matches_materialized_reference_kernel() {
    for clustering in [Clustering::SortedByShipdate, Clustering::Uniform] {
        let (t, smas) = q1_fixture(clustering);
        let mut grades_seen = [0u64; 3];
        for delta in [90, 600, 1500, 2300] {
            let pred = query1_query(&t, cutoff(delta)).unwrap().pred;

            // Materialized reference kernel.
            t.make_cold().unwrap();
            t.reset_io_stats();
            let mut expected = Vec::new();
            for b in 0..t.bucket_count() {
                let g = pred.grade(b, &smas);
                match g {
                    Grade::Disqualifies => grades_seen[0] += 1,
                    Grade::Qualifies => grades_seen[1] += 1,
                    Grade::Ambivalent => grades_seen[2] += 1,
                }
                if g == Grade::Disqualifies {
                    continue;
                }
                for (_, tuple) in t.scan_bucket(b).unwrap() {
                    if g == Grade::Qualifies || pred.eval_tuple(&tuple) {
                        expected.push(tuple);
                    }
                }
            }
            let io_reference = t.io_stats();

            // Production zero-copy kernel.
            t.make_cold().unwrap();
            t.reset_io_stats();
            let mut scan = SmaScan::new(&t, pred, &smas);
            let rows = collect(&mut scan).unwrap();
            let io_views = t.io_stats();

            assert_eq!(rows, expected, "{clustering:?} delta {delta}: rows");
            assert_eq!(
                io_views, io_reference,
                "{clustering:?} delta {delta}: I/O trace"
            );
        }
        assert!(
            grades_seen.iter().all(|&n| n > 0),
            "{clustering:?}: sweep must exercise all three grades, saw {grades_seen:?}"
        );
    }
}

/// Q1 and Q6 answers are identical with and without SMAs — the with-SMA
/// plans run the zero-copy `SmaGAggr`/`SmaScan` kernels, the without-SMA
/// plan runs the fused view-based full scan.
#[test]
fn query1_and_query6_answers_are_plan_independent() {
    for clustering in [Clustering::SortedByShipdate, Clustering::Uniform] {
        let (t, smas) = q1_fixture(clustering);
        let with = run_query1(&t, Some(&smas), &Query1Config::default()).unwrap();
        let without = run_query1(&t, None, &Query1Config::default()).unwrap();
        assert!(!with.rows.is_empty(), "{clustering:?}");
        assert_eq!(with.rows, without.rows, "{clustering:?}");

        let q6_smas = SmaSet::build(&t, query6_sma_definitions(&t).unwrap()).unwrap();
        let planner = PlannerConfig::default();
        let p = Q6Params::default();
        let q6_with = run_query6(&t, Some(&q6_smas), &p, &planner).unwrap();
        let q6_without = run_query6(&t, None, &p, &planner).unwrap();
        assert_eq!(q6_with.revenue, q6_without.revenue, "{clustering:?}");
    }
}

/// The view-based `SmaGAggr` produces byte-identical rows and counters at
/// 1 and 8 threads, including under quarantine damage — which also proves
/// the degrade-to-scan path works through the lending visitor API.
#[test]
fn view_kernels_identical_at_every_parallelism_even_degraded() {
    let (t, smas) = q1_fixture(Clustering::SortedByShipdate);
    let q = query1_query(&t, cutoff(90)).unwrap();

    let mut damaged = smas.clone();
    damaged.quarantine_bucket(0);
    damaged.quarantine_bucket(t.bucket_count() / 2);

    let run = |threads: usize| {
        let mut op = SmaGAggr::new(
            &t,
            q.pred.clone(),
            q.group_by.clone(),
            q.specs.clone(),
            &damaged,
        )
        .unwrap()
        .with_parallelism(Parallelism::new(threads));
        let rows = collect(&mut op).unwrap();
        (rows, op.counters())
    };

    let (expected, counters) = run(1);
    assert!(
        !counters.degradation.is_empty(),
        "quarantine must force demotions through the visitor scan"
    );
    for threads in [2, 8] {
        let (rows, c) = run(threads);
        assert_eq!(rows, expected, "{threads} threads: rows");
        assert_eq!(c, counters, "{threads} threads: counters");
    }

    // The degraded, view-based answer still matches the SMA-less
    // materialized operator chain exactly.
    let mut baseline = HashGAggr::new(
        Box::new(Filter::new(Box::new(SeqScan::new(&t)), q.pred.clone())),
        q.group_by.clone(),
        q.specs.clone(),
    );
    assert_eq!(expected, collect(&mut baseline).unwrap());
}
