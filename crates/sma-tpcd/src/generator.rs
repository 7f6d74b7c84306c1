//! dbgen-style TPC-D data generation.
//!
//! Follows the TPC-D specification's value domains: order dates uniform in
//! `[1992-01-01, 1998-12-31 - 151 days]`, 1–7 line items per order,
//! `L_SHIPDATE = O_ORDERDATE + U[1,121]`, `L_COMMITDATE = O_ORDERDATE +
//! U[30,90]`, `L_RECEIPTDATE = L_SHIPDATE + U[1,30]`, quantities `U[1,50]`,
//! discounts `U[0.00,0.10]`, taxes `U[0.00,0.08]`, and the return-flag /
//! line-status rules relative to the benchmark's `CURRENTDATE` 1995-06-17.
//! Seeded, so every experiment is reproducible bit-for-bit.

use sma_types::StdRng;

use sma_storage::{MemStore, PageStore, Table};
use sma_types::{Date, Decimal, Tuple, Value};

use crate::clustering::{sample_normal, Clustering};
use crate::schema::lineitem_schema;

/// TPC-D's fixed "current date" used by the flag rules.
#[expect(
    clippy::expect_used,
    reason = "compile-time constant date; cannot fail"
)]
pub fn current_date() -> Date {
    Date::from_ymd(1995, 6, 17).expect("valid constant")
}

/// First order date dbgen generates.
#[expect(
    clippy::expect_used,
    reason = "compile-time constant date; cannot fail"
)]
pub fn start_date() -> Date {
    Date::from_ymd(1992, 1, 1).expect("valid constant")
}

/// Last calendar date in the TPC-D window.
#[expect(
    clippy::expect_used,
    reason = "compile-time constant date; cannot fail"
)]
pub fn end_date() -> Date {
    Date::from_ymd(1998, 12, 31).expect("valid constant")
}

/// One generated LINEITEM row, strongly typed.
#[derive(Debug, Clone, PartialEq)]
pub struct LineItem {
    /// L_ORDERKEY
    pub orderkey: i64,
    /// L_PARTKEY
    pub partkey: i64,
    /// L_SUPPKEY
    pub suppkey: i64,
    /// L_LINENUMBER
    pub linenumber: i64,
    /// L_QUANTITY
    pub quantity: Decimal,
    /// L_EXTENDEDPRICE
    pub extendedprice: Decimal,
    /// L_DISCOUNT
    pub discount: Decimal,
    /// L_TAX
    pub tax: Decimal,
    /// L_RETURNFLAG: b'R', b'A' or b'N'
    pub returnflag: u8,
    /// L_LINESTATUS: b'O' or b'F'
    pub linestatus: u8,
    /// L_SHIPDATE
    pub shipdate: Date,
    /// L_COMMITDATE
    pub commitdate: Date,
    /// L_RECEIPTDATE
    pub receiptdate: Date,
    /// L_SHIPINSTRUCT
    pub shipinstruct: &'static str,
    /// L_SHIPMODE
    pub shipmode: &'static str,
    /// L_COMMENT
    pub comment: String,
}

impl LineItem {
    /// Converts to a storage tuple in LINEITEM schema order.
    pub fn to_tuple(&self) -> Tuple {
        vec![
            Value::Int(self.orderkey),
            Value::Int(self.partkey),
            Value::Int(self.suppkey),
            Value::Int(self.linenumber),
            Value::Decimal(self.quantity),
            Value::Decimal(self.extendedprice),
            Value::Decimal(self.discount),
            Value::Decimal(self.tax),
            Value::Char(self.returnflag),
            Value::Char(self.linestatus),
            Value::Date(self.shipdate),
            Value::Date(self.commitdate),
            Value::Date(self.receiptdate),
            Value::Str(self.shipinstruct.to_string()),
            Value::Str(self.shipmode.to_string()),
            Value::Str(self.comment.clone()),
        ]
    }
}

/// One generated ORDERS row (used by the join-SMA experiments).
#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    /// O_ORDERKEY
    pub orderkey: i64,
    /// O_CUSTKEY
    pub custkey: i64,
    /// O_ORDERSTATUS
    pub orderstatus: u8,
    /// O_TOTALPRICE
    pub totalprice: Decimal,
    /// O_ORDERDATE
    pub orderdate: Date,
    /// O_ORDERPRIORITY
    pub orderpriority: &'static str,
    /// O_CLERK
    pub clerk: String,
    /// O_SHIPPRIORITY
    pub shippriority: i64,
    /// O_COMMENT
    pub comment: String,
}

impl Order {
    /// Converts to a storage tuple in ORDERS schema order.
    pub fn to_tuple(&self) -> Tuple {
        vec![
            Value::Int(self.orderkey),
            Value::Int(self.custkey),
            Value::Char(self.orderstatus),
            Value::Decimal(self.totalprice),
            Value::Date(self.orderdate),
            Value::Str(self.orderpriority.to_string()),
            Value::Str(self.clerk.clone()),
            Value::Int(self.shippriority),
            Value::Str(self.comment.to_string()),
        ]
    }
}

const SHIPINSTRUCT: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

const SHIPMODE: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

const PRIORITY: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

const COMMENT_WORDS: [&str; 16] = [
    "carefully",
    "quickly",
    "furiously",
    "slyly",
    "blithely",
    "deposits",
    "accounts",
    "requests",
    "packages",
    "foxes",
    "pearls",
    "instructions",
    "theodolites",
    "pinto",
    "beans",
    "ironic",
];

/// Configuration for a generation run.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of orders to generate (≈ `orders * 4` line items).
    pub orders: usize,
    /// Physical ordering regime.
    pub clustering: Clustering,
    /// RNG seed — every artifact of a run is a pure function of the config.
    pub seed: u64,
    /// Pages per bucket in the loaded table.
    pub bucket_pages: u32,
    /// Buffer-pool capacity in pages for the loaded table.
    pub pool_pages: usize,
}

impl GenConfig {
    /// SF-proportional config: TPC-D has 1.5 M orders (6 M line items) at
    /// scale factor 1.
    pub fn scale_factor(sf: f64, clustering: Clustering) -> GenConfig {
        GenConfig {
            orders: (1_500_000.0 * sf) as usize,
            clustering,
            seed: 42,
            bucket_pages: 1,
            pool_pages: 2048, // the paper's 8 MB buffer at 4 KiB pages
        }
    }

    /// A tiny config for doc examples and unit tests (~2 k line items).
    pub fn tiny(clustering: Clustering) -> GenConfig {
        GenConfig {
            orders: 500,
            clustering,
            seed: 42,
            bucket_pages: 1,
            pool_pages: 2048,
        }
    }
}

fn random_decimal(rng: &mut StdRng, lo_cents: i64, hi_cents: i64) -> Decimal {
    Decimal::from_cents(rng.random_range(lo_cents..=hi_cents))
}

fn random_comment(rng: &mut StdRng, words: usize) -> String {
    let mut out = String::new();
    for i in 0..words {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(COMMENT_WORDS[rng.random_range(0..COMMENT_WORDS.len())]);
    }
    out
}

/// dbgen's retail price formula, simplified: deterministic in the part key.
fn part_price(partkey: i64) -> Decimal {
    let cents = 90_000 + (partkey % 20_000) * 10 + (partkey / 10) % 1_000;
    Decimal::from_cents(cents)
}

/// Generates the line items (and their parent orders) for `config`,
/// already arranged in the physical order dictated by the clustering model.
pub fn generate(config: &GenConfig) -> (Vec<Order>, Vec<LineItem>) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let order_window = end_date().days_between(start_date()) - 151;
    // TPC-D keeps a 10:1 order-to-customer ratio (1.5 M : 150 k at SF 1).
    let customer_count = (config.orders as i64 / 10).max(1);
    let mut orders = Vec::with_capacity(config.orders);
    let mut items: Vec<LineItem> = Vec::with_capacity(config.orders * 4);
    for i in 0..config.orders {
        let orderkey = (i as i64) * 4 + 1; // dbgen leaves key gaps; so do we
        let orderdate = start_date().add_days(rng.random_range(0..=order_window));
        let lines = rng.random_range(1..=7);
        let mut total = Decimal::ZERO;
        for ln in 1..=lines {
            let partkey = rng.random_range(1..=200_000i64);
            let quantity = Decimal::from_int(rng.random_range(1..=50));
            let extendedprice = part_price(partkey).mul_round(quantity);
            let discount = random_decimal(&mut rng, 0, 10);
            let tax = random_decimal(&mut rng, 0, 8);
            let shipdate = orderdate.add_days(rng.random_range(1..=121));
            let commitdate = orderdate.add_days(rng.random_range(30..=90));
            let receiptdate = shipdate.add_days(rng.random_range(1..=30));
            let returnflag = if receiptdate <= current_date() {
                if rng.random_range(0..2) == 0 {
                    b'R'
                } else {
                    b'A'
                }
            } else {
                b'N'
            };
            let linestatus = if shipdate > current_date() {
                b'O'
            } else {
                b'F'
            };
            total += extendedprice;
            items.push(LineItem {
                orderkey,
                partkey,
                suppkey: (partkey % 10_000) + 1,
                linenumber: ln,
                quantity,
                extendedprice,
                discount,
                tax,
                returnflag,
                linestatus,
                shipdate,
                commitdate,
                receiptdate,
                shipinstruct: SHIPINSTRUCT[rng.random_range(0..SHIPINSTRUCT.len())],
                shipmode: SHIPMODE[rng.random_range(0..SHIPMODE.len())],
                comment: {
                    let words = rng.random_range(2..=5);
                    random_comment(&mut rng, words)
                },
            });
        }
        orders.push(Order {
            orderkey,
            custkey: rng.random_range(1..=customer_count),
            orderstatus: if orderdate.add_days(121) <= current_date() {
                b'F'
            } else {
                b'O'
            },
            totalprice: total,
            orderdate,
            orderpriority: PRIORITY[rng.random_range(0..PRIORITY.len())],
            clerk: format!("Clerk#{:09}", rng.random_range(1..=1_000i64)),
            shippriority: 0,
            comment: {
                let words = rng.random_range(3..=8);
                random_comment(&mut rng, words)
            },
        });
    }
    apply_clustering(&mut items, config.clustering, &mut rng);
    (orders, items)
}

/// Rearranges `items` into the physical order of the clustering model.
fn apply_clustering(items: &mut [LineItem], clustering: Clustering, rng: &mut StdRng) {
    match clustering {
        Clustering::SortedByShipdate => {
            items.sort_by_key(|li| li.shipdate);
        }
        Clustering::Diagonal {
            mean_lag_days,
            std_dev_days,
        } => {
            // Introduction date = ship date + non-negative normal lag; sort
            // by it. Ties broken by ship date, as a warehouse batch would.
            let mut keyed: Vec<(i64, usize)> = items
                .iter()
                .enumerate()
                .map(|(i, li)| {
                    let lag = sample_normal(rng, mean_lag_days, std_dev_days).max(0.0);
                    (li.shipdate.days() as i64 + lag.round() as i64, i)
                })
                .collect();
            keyed.sort();
            let reordered: Vec<LineItem> = keyed.iter().map(|&(_, i)| items[i].clone()).collect();
            items.clone_from_slice(&reordered);
        }
        Clustering::Uniform => {
            // dbgen's native order: by order key, line number. Dates are
            // uniform within the window, so this is unclustered on dates.
            items.sort_by_key(|li| (li.orderkey, li.linenumber));
        }
        Clustering::Shuffled => {
            rng.shuffle(items);
        }
    }
}

/// Loads pre-arranged line items into a bucketed table over `store`.
pub fn load_lineitem(
    items: &[LineItem],
    store: Box<dyn PageStore>,
    bucket_pages: u32,
    pool_pages: usize,
) -> Table {
    let mut table = Table::new(
        "LINEITEM",
        lineitem_schema(),
        store,
        pool_pages,
        bucket_pages,
    );
    for li in items {
        #[expect(
            clippy::expect_used,
            reason = "loader over self-generated schema-valid tuples; a failure is a misconfigured harness"
        )]
        table
            .append(&li.to_tuple())
            .expect("generated tuple always fits");
    }
    table
}

/// Generates and loads LINEITEM into an in-memory table.
pub fn generate_lineitem_table(config: &GenConfig) -> Table {
    let (_, items) = generate(config);
    load_lineitem(
        &items,
        Box::new(MemStore::new()),
        config.bucket_pages,
        config.pool_pages,
    )
}

/// Loads pre-arranged orders into a bucketed table (join-SMA experiments).
pub fn load_orders(orders: &[Order], bucket_pages: u32, pool_pages: usize) -> Table {
    let mut table = Table::new(
        "ORDERS",
        crate::schema::orders_schema(),
        Box::new(MemStore::new()),
        pool_pages,
        bucket_pages,
    );
    for o in orders {
        #[expect(
            clippy::expect_used,
            reason = "loader over self-generated schema-valid tuples; a failure is a misconfigured harness"
        )]
        table
            .append(&o.to_tuple())
            .expect("generated tuple always fits");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::lineitem as li;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::tiny(Clustering::Uniform);
        let (o1, i1) = generate(&cfg);
        let (o2, i2) = generate(&cfg);
        assert_eq!(o1, o2);
        assert_eq!(i1, i2);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::tiny(Clustering::Uniform);
        let other = GenConfig {
            seed: 43,
            ..cfg.clone()
        };
        assert_ne!(generate(&cfg).1, generate(&other).1);
    }

    #[test]
    fn value_domains_match_spec() {
        let (orders, items) = generate(&GenConfig::tiny(Clustering::Uniform));
        assert!(!items.is_empty());
        let avg_lines = items.len() as f64 / orders.len() as f64;
        assert!(avg_lines > 3.0 && avg_lines < 5.0, "1..=7 lines per order");
        for it in &items {
            assert!(it.shipdate > it.orderdate_lower_bound());
            assert!(it.shipdate >= start_date());
            assert!(it.receiptdate > it.shipdate);
            assert!(it.receiptdate <= it.shipdate.add_days(30));
            let q = it.quantity.cents();
            assert!((100..=5000).contains(&q), "quantity {q}");
            assert!((0..=10).contains(&it.discount.cents()));
            assert!((0..=8).contains(&it.tax.cents()));
            assert!(matches!(it.returnflag, b'R' | b'A' | b'N'));
            assert!(matches!(it.linestatus, b'O' | b'F'));
            // Flag rules relative to CURRENTDATE.
            if it.returnflag == b'N' {
                assert!(it.receiptdate > current_date());
            } else {
                assert!(it.receiptdate <= current_date());
            }
            assert_eq!(it.linestatus == b'O', it.shipdate > current_date());
            assert!(it.extendedprice > Decimal::ZERO);
        }
    }

    impl LineItem {
        /// Ship dates are at least one day after the earliest order date.
        fn orderdate_lower_bound(&self) -> Date {
            start_date()
        }
    }

    #[test]
    fn sorted_clustering_sorts() {
        let (_, items) = generate(&GenConfig::tiny(Clustering::SortedByShipdate));
        assert!(items.windows(2).all(|w| w[0].shipdate <= w[1].shipdate));
    }

    #[test]
    fn diagonal_is_roughly_sorted() {
        let (_, items) = generate(&GenConfig::tiny(Clustering::diagonal_default()));
        // Not exactly sorted…
        assert!(items.windows(2).any(|w| w[0].shipdate > w[1].shipdate));
        // …but close: neighbouring out-of-order pairs are rare and small.
        let inversions = items
            .windows(2)
            .filter(|w| w[0].shipdate > w[1].shipdate)
            .count();
        assert!(
            (inversions as f64) < 0.5 * items.len() as f64,
            "diagonal order should be far from random ({inversions} inversions / {})",
            items.len()
        );
        let max_jump = items
            .windows(2)
            .map(|w| w[0].shipdate.days_between(w[1].shipdate))
            .max()
            .unwrap();
        assert!(
            max_jump < 60,
            "local disorder only, saw jump of {max_jump} days"
        );
    }

    #[test]
    fn shuffled_differs_from_uniform() {
        let cfg = GenConfig::tiny(Clustering::Uniform);
        let (_, uniform) = generate(&cfg);
        let (_, shuffled) = generate(&GenConfig {
            clustering: Clustering::Shuffled,
            ..cfg
        });
        assert_ne!(uniform, shuffled);
    }

    #[test]
    fn loads_into_table_in_order() {
        let cfg = GenConfig::tiny(Clustering::SortedByShipdate);
        let table = generate_lineitem_table(&cfg);
        let rows = table.scan().unwrap();
        let (_, items) = generate(&cfg);
        assert_eq!(rows.len(), items.len());
        assert!(
            table.page_count() > 10,
            "tiny config still spans many pages"
        );
        // Physical scan order equals generation order.
        for (row, item) in rows.iter().zip(&items) {
            assert_eq!(row.1[li::SHIPDATE], Value::Date(item.shipdate));
            assert_eq!(row.1[li::ORDERKEY], Value::Int(item.orderkey));
        }
    }

    #[test]
    fn orders_load() {
        let cfg = GenConfig::tiny(Clustering::Uniform);
        let (orders, _) = generate(&cfg);
        let table = load_orders(&orders, 1, 256);
        assert_eq!(table.live_tuples() as usize, orders.len());
    }
}
