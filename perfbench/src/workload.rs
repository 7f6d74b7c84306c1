//! The three workloads: the relation each one loads, its seeded select and
//! insert streams, and the naive oracle every answer is checked against.
//!
//! The oracle never calls the engine: it folds the generated rows one by
//! one and renders the result the way the server renders `Value`s.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use smadb::exec::{AggSpec, AggregateQuery};
use smadb::sma::{col, BucketPred, CmpOp};
use smadb::storage::{MemStore, Table};
use smadb::tpcd::schema::lineitem as li;
use smadb::tpcd::{generate, lineitem_schema, Clustering, GenConfig};
use smadb::types::{Column, DataType, Date, Decimal, Schema, SchemaRef, StdRng, Tuple, Value};

/// Rows of the K-sorted `L(K, V, PAD)` relation (the `server_bench` one).
pub const L_ROWS: i64 = 12_000;
const L_PAD: usize = 80;
const L_BUCKET_PAGES: u32 = 4;
/// Keys per point-select window.
const WINDOW: i64 = 200;
/// TPC-D scale factor of `olap_scan`: 30,000 orders, about 120,000 line
/// items in some 4,000 one-page buckets, twice the 2,048-page pool.
const OLAP_SF: f64 = 0.02;
/// Queries per seeded stream; the client cycles through it, and each full
/// pass is timed. The `olap_scan` stream holds its three shapes 3:1:1.
const POINT_STREAM: usize = 1024;
const OLAP_STREAM: usize = 40;
/// In `ingest_mixed`, every this-many reader queries is a tail query over
/// the inserted keys, whose answer depends on which inserts were acked.
const TAIL_EVERY: usize = 8;

/// Memtable rows that trigger a flush in `ingest_mixed` (0 = never).
pub const FLUSH_ROWS: usize = 128;
/// Committed segments per table past which `ingest_mixed` compacts.
pub const MAX_SEGMENTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointSelect,
    OlapScan,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PointSelect,
        Workload::OlapScan,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointSelect => "point_select",
            Workload::OlapScan => "olap_scan",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups per untraced run; `setup_s` is their median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::OlapScan => 3,
            _ => 9,
        }
    }

    /// Flush threshold and compaction threshold of the served warehouse.
    pub fn ingest_policy(self) -> (usize, usize) {
        match self {
            Workload::IngestMixed => (FLUSH_ROWS, MAX_SEGMENTS),
            _ => (0, 0),
        }
    }
}

/// One aggregate of a query, over a column index.
#[derive(Debug, Clone, Copy)]
pub enum Agg {
    Count,
    Min(usize),
    Max(usize),
    Sum(usize),
    Avg(usize),
}

/// A select as data: rendered to text for the wire, bound to an
/// [`AggregateQuery`] for the in-process replay, folded by the oracle.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub aggs: Vec<Agg>,
    pub preds: Vec<(usize, CmpOp, Value)>,
    pub group_by: Vec<usize>,
}

impl QuerySpec {
    pub fn text(&self, relation: &str, schema: &Schema) -> String {
        let name = |c: usize| schema.column(c).name.clone();
        let aggs: Vec<String> = self
            .aggs
            .iter()
            .map(|a| match *a {
                Agg::Count => "count(*)".to_string(),
                Agg::Min(c) => format!("min({})", name(c)),
                Agg::Max(c) => format!("max({})", name(c)),
                Agg::Sum(c) => format!("sum({})", name(c)),
                Agg::Avg(c) => format!("avg({})", name(c)),
            })
            .collect();
        let mut out = format!("select {} from {relation}", aggs.join(", "));
        for (i, (c, op, v)) in self.preds.iter().enumerate() {
            let op = match op {
                CmpOp::Eq => "=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            let kw = if i == 0 { "where" } else { "and" };
            out.push_str(&format!(" {kw} {} {op} {}", name(*c), literal(v)));
        }
        if !self.group_by.is_empty() {
            let cols: Vec<String> = self.group_by.iter().map(|&c| name(c)).collect();
            out.push_str(&format!(" group by {}", cols.join(", ")));
        }
        out
    }

    /// The query the server binds from [`QuerySpec::text`].
    pub fn bind(&self) -> AggregateQuery {
        let mut atoms: Vec<BucketPred> = self
            .preds
            .iter()
            .map(|(c, op, v)| BucketPred::Cmp {
                col: *c,
                op: *op,
                value: v.clone(),
            })
            .collect();
        let pred = match atoms.len() {
            0 => BucketPred::And(Vec::new()),
            1 => atoms.swap_remove(0),
            _ => BucketPred::And(atoms),
        };
        AggregateQuery {
            pred,
            group_by: self.group_by.clone(),
            specs: self
                .aggs
                .iter()
                .map(|a| match *a {
                    Agg::Count => AggSpec::CountStar,
                    Agg::Min(c) => AggSpec::Min(col(c)),
                    Agg::Max(c) => AggSpec::Max(col(c)),
                    Agg::Sum(c) => AggSpec::Sum(col(c)),
                    Agg::Avg(c) => AggSpec::Avg(col(c)),
                })
                .collect(),
        }
    }

    /// The answer, by a naive fold over `rows`, rendered as the server
    /// renders it: one line per group in key order, keys then aggregates.
    pub fn answer<'a>(&self, rows: impl IntoIterator<Item = &'a Tuple>) -> Vec<Vec<String>> {
        let mut groups: BTreeMap<Vec<Value>, Vec<Fold>> = BTreeMap::new();
        for row in rows {
            let keep = self.preds.iter().all(|(c, op, v)| {
                let ord = row[*c].cmp(v);
                match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                }
            });
            if !keep {
                continue;
            }
            let key = self.group_by.iter().map(|&g| row[g].clone()).collect();
            let folds = groups
                .entry(key)
                .or_insert_with(|| vec![Fold::default(); self.aggs.len()]);
            for (f, a) in folds.iter_mut().zip(&self.aggs) {
                f.add(*a, row);
            }
        }
        groups
            .into_iter()
            .map(|(key, folds)| {
                let mut line: Vec<String> = key.iter().map(Value::to_string).collect();
                for (f, a) in folds.iter().zip(&self.aggs) {
                    line.push(f.finish(*a));
                }
                line
            })
            .collect()
    }
}

/// Running state of one aggregate in the oracle.
#[derive(Debug, Clone, Default)]
struct Fold {
    n: i64,
    min: Option<Value>,
    max: Option<Value>,
    int_sum: i64,
    dec_sum: Decimal,
}

impl Fold {
    fn add(&mut self, agg: Agg, row: &Tuple) {
        self.n += 1;
        let c = match agg {
            Agg::Count => return,
            Agg::Min(c) | Agg::Max(c) | Agg::Sum(c) | Agg::Avg(c) => c,
        };
        let v = &row[c];
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
        match v {
            Value::Int(x) => self.int_sum += x,
            Value::Decimal(d) => self.dec_sum += *d,
            _ => {}
        }
    }

    fn finish(&self, agg: Agg) -> String {
        let decimal = matches!(self.min, Some(Value::Decimal(_)));
        match agg {
            Agg::Count => self.n.to_string(),
            Agg::Min(_) => self.min.as_ref().map_or("NULL".into(), Value::to_string),
            Agg::Max(_) => self.max.as_ref().map_or("NULL".into(), Value::to_string),
            Agg::Sum(_) if decimal => self.dec_sum.to_string(),
            Agg::Sum(_) => self.int_sum.to_string(),
            Agg::Avg(_) if decimal => self.dec_sum.div_count(self.n).to_string(),
            Agg::Avg(_) => (self.int_sum / self.n).to_string(),
        }
    }
}

/// A literal as the statement language writes it.
fn literal(v: &Value) -> String {
    match v {
        Value::Int(_) | Value::Decimal(_) => v.to_string(),
        _ => format!("'{v}'"),
    }
}

/// How a wire answer is checked.
#[derive(Debug, Clone)]
pub enum Check {
    /// Exactly these rows.
    Exact(Vec<Vec<String>>),
    /// `count(*), sum(V)` over the inserted keys: the visible inserts must
    /// be a prefix of the insert stream, holding at least every insert
    /// acked before the query was sent and none not yet sent.
    Tail,
}

#[derive(Debug, Clone)]
pub struct Query {
    pub text: String,
    pub spec: QuerySpec,
    pub check: Check,
}

/// A workload's relation and generated rows.
pub struct Dataset {
    pub workload: Workload,
    pub relation: &'static str,
    pub schema: SchemaRef,
    pub rows: Vec<Tuple>,
    pub smas: Vec<String>,
    bucket_pages: u32,
    pool_pages: usize,
    /// The column whose sum the durability check compares.
    pub sum_col: usize,
}

impl Dataset {
    /// Generates the relation's rows from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Dataset {
        match workload {
            Workload::PointSelect | Workload::IngestMixed => {
                let mut rng = StdRng::seed_from_u64(seed);
                let rows = (0..L_ROWS).map(|k| l_row(k, &mut rng)).collect();
                Dataset {
                    workload,
                    relation: "L",
                    schema: l_schema(),
                    rows,
                    smas: [
                        "l_cnt select count(*)",
                        "l_kmin select min(K)",
                        "l_kmax select max(K)",
                        "l_vmin select min(V)",
                        "l_vmax select max(V)",
                        "l_vsum select sum(V)",
                    ]
                    .iter()
                    .map(|s| format!("define sma {s} from L"))
                    .collect(),
                    bucket_pages: L_BUCKET_PAGES,
                    pool_pages: 1 << 16,
                    sum_col: 1,
                }
            }
            Workload::OlapScan => {
                let cfg = GenConfig {
                    seed,
                    ..GenConfig::scale_factor(OLAP_SF, Clustering::diagonal_default())
                };
                let (_, items) = generate(&cfg);
                let flags = "group by L_RETURNFLAG, L_LINESTATUS";
                Dataset {
                    workload,
                    relation: "LINEITEM",
                    schema: lineitem_schema(),
                    rows: items.iter().map(|li| li.to_tuple()).collect(),
                    smas: vec![
                        "li_ship_min select min(L_SHIPDATE) from LINEITEM".into(),
                        "li_ship_max select max(L_SHIPDATE) from LINEITEM".into(),
                        format!("li_cnt select count(*) from LINEITEM {flags}"),
                        format!("li_qty select sum(L_QUANTITY) from LINEITEM {flags}"),
                        format!("li_ext select sum(L_EXTENDEDPRICE) from LINEITEM {flags}"),
                        format!("li_dis select sum(L_DISCOUNT) from LINEITEM {flags}"),
                    ]
                    .into_iter()
                    .map(|s| format!("define sma {s}"))
                    .collect(),
                    bucket_pages: cfg.bucket_pages,
                    pool_pages: cfg.pool_pages,
                    sum_col: li::QUANTITY,
                }
            }
        }
    }

    /// A fresh in-memory table holding the generated rows.
    pub fn load(&self) -> Table {
        let mut table = Table::new(
            self.relation,
            Arc::clone(&self.schema),
            Box::new(MemStore::new()),
            self.pool_pages,
            self.bucket_pages,
        );
        for row in &self.rows {
            table.append(row).expect("generated rows fit the schema");
        }
        table
    }

    /// The seeded select stream with every expected answer.
    pub fn queries(&self, seed: u64) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1e_c7ed);
        let mut memo: BTreeMap<String, Vec<Vec<String>>> = BTreeMap::new();
        let mut exact = |spec: QuerySpec| {
            let text = spec.text(self.relation, &self.schema);
            let rows = memo
                .entry(text.clone())
                .or_insert_with(|| spec.answer(&self.rows))
                .clone();
            assert!(!rows.is_empty(), "every exact query matches rows: {text}");
            Query {
                text,
                spec,
                check: Check::Exact(rows),
            }
        };
        match self.workload {
            Workload::PointSelect | Workload::IngestMixed => (0..POINT_STREAM)
                .map(|i| {
                    if self.workload == Workload::IngestMixed && i % TAIL_EVERY == TAIL_EVERY - 1 {
                        let spec = QuerySpec {
                            aggs: vec![Agg::Count, Agg::Sum(1)],
                            preds: vec![(0, CmpOp::Ge, Value::Int(L_ROWS))],
                            group_by: vec![],
                        };
                        return Query {
                            text: spec.text(self.relation, &self.schema),
                            spec,
                            check: Check::Tail,
                        };
                    }
                    let lo = rng.random_range(0..=L_ROWS - WINDOW);
                    exact(QuerySpec {
                        aggs: vec![Agg::Count, Agg::Min(1), Agg::Max(1)],
                        preds: vec![
                            (0, CmpOp::Ge, Value::Int(lo)),
                            (0, CmpOp::Le, Value::Int(lo + WINDOW - 1)),
                        ],
                        group_by: vec![],
                    })
                })
                .collect(),
            Workload::OlapScan => {
                // A fixed order of shapes: what a query finds in the pool
                // depends on the ones before it.
                let mut seen = [0usize; 3];
                (0..OLAP_STREAM)
                    .map(|i| {
                        let shape = [0, 1, 0, 2, 0][i % 5];
                        seen[shape] += 1;
                        exact(olap_query(shape, seen[shape] - 1, &mut rng))
                    })
                    .collect()
            }
        }
    }

    /// `n` seeded rows to insert, keyed past the loaded ones for `L`.
    pub fn inserts(&self, seed: u64, n: usize) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a5e_47ed);
        match self.workload {
            Workload::PointSelect | Workload::IngestMixed => {
                (0..n as i64).map(|i| l_row(L_ROWS + i, &mut rng)).collect()
            }
            Workload::OlapScan => {
                let cfg = GenConfig {
                    orders: n / 2 + 1,
                    seed: rng.next_u64(),
                    ..GenConfig::scale_factor(OLAP_SF, Clustering::diagonal_default())
                };
                let (_, items) = generate(&cfg);
                items.iter().take(n).map(|li| li.to_tuple()).collect()
            }
        }
    }

    /// The wire statement inserting `row`.
    pub fn insert_text(&self, row: &Tuple) -> String {
        let values: Vec<String> = row.iter().map(literal).collect();
        format!(
            "insert into {} values ({})",
            self.relation,
            values.join(", ")
        )
    }

    /// `count(*)` and the sum of [`Dataset::sum_col`] over every row.
    pub fn totals_spec(&self) -> QuerySpec {
        QuerySpec {
            aggs: vec![Agg::Count, Agg::Sum(self.sum_col)],
            preds: vec![],
            group_by: vec![],
        }
    }
}

fn l_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Column::new("K", DataType::Int),
        Column::new("V", DataType::Int),
        Column::new("PAD", DataType::Str),
    ]))
}

fn l_row(k: i64, rng: &mut StdRng) -> Tuple {
    vec![
        Value::Int(k),
        Value::Int(rng.random_range(0..10_000i64)),
        Value::Str("p".repeat(L_PAD)),
    ]
}

fn date(y: i32, m: u32, d: u32) -> Date {
    Date::from_ymd(y, m, d).expect("valid calendar date")
}

/// The `nth` query of `shape` 0, 1 or 2, which streams hold 3:1:1: a
/// Q1-shaped grouped aggregate (SMAs answer all but the buckets at the
/// cutoff), a Q6-shaped one-year range with unindexed discount and
/// quantity predicates (a scan over about a seventh of the buckets), and a
/// predicate on unindexed L_TAX (a full scan). The last one's ship-date
/// conjunct skips no bucket; it keeps the planner off the SMA scan, which
/// a bare unindexed predicate ties with the full scan on modelled cost.
///
/// The Q1 cutoff and the Q6 year go round their ranges by `nth`, so every
/// stream holds the same ones; the other parameters are seeded. The shapes
/// cost different amounts, and the Q1 one is the majority so that the
/// median select lies among one shape's costs rather than between two.
fn olap_query(shape: usize, nth: usize, rng: &mut StdRng) -> QuerySpec {
    let cents = |c: i64| Value::Decimal(Decimal::from_cents(c));
    match shape {
        0 => {
            let delta = 60 + 5 * (nth % 13) as i32;
            QuerySpec {
                aggs: vec![
                    Agg::Count,
                    Agg::Sum(li::QUANTITY),
                    Agg::Sum(li::EXTENDEDPRICE),
                    Agg::Avg(li::DISCOUNT),
                ],
                preds: vec![(
                    li::SHIPDATE,
                    CmpOp::Le,
                    Value::Date(date(1998, 12, 1).add_days(-delta)),
                )],
                group_by: vec![li::RETURNFLAG, li::LINESTATUS],
            }
        }
        1 => {
            let year = 1992 + (nth % 7) as i32;
            let discount = rng.random_range(2..=9i64);
            QuerySpec {
                aggs: vec![Agg::Count, Agg::Sum(li::EXTENDEDPRICE)],
                preds: vec![
                    (li::SHIPDATE, CmpOp::Ge, Value::Date(date(year, 1, 1))),
                    (li::SHIPDATE, CmpOp::Lt, Value::Date(date(year + 1, 1, 1))),
                    (li::DISCOUNT, CmpOp::Ge, cents(discount - 1)),
                    (li::DISCOUNT, CmpOp::Le, cents(discount + 1)),
                    (li::QUANTITY, CmpOp::Lt, cents(2_400)),
                ],
                group_by: vec![],
            }
        }
        _ => QuerySpec {
            aggs: vec![Agg::Count, Agg::Sum(li::QUANTITY)],
            preds: vec![
                (li::SHIPDATE, CmpOp::Ge, Value::Date(date(1992, 1, 1))),
                (li::TAX, CmpOp::Le, cents(rng.random_range(0..=8i64))),
            ],
            group_by: vec![],
        },
    }
}

/// Bytes of user data in `row`: 8 per int or decimal, 4 per date, 1 per
/// char, and the length of each string.
pub fn user_bytes(row: &Tuple) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Int(_) | Value::Decimal(_) => 8,
            Value::Date(_) => 4,
            Value::Char(_) => 1,
            Value::Str(s) => s.len() as u64,
            Value::Null => 0,
        })
        .sum()
}
