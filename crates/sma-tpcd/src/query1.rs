//! Reference (oracle) implementation of TPC-D Query 1.
//!
//! This is the straightforward full-scan evaluation used throughout the
//! test suite to validate SMA-accelerated plans: every optimized answer
//! must equal this one exactly.

use std::collections::BTreeMap;

use sma_storage::{Table, TableError};
use sma_types::{Date, Decimal, SchemaError};

/// Reports a LINEITEM column whose stored value does not carry the type
/// the oracle scan expects.
fn typed<T>(v: Option<T>, what: &str) -> Result<T, TableError> {
    v.ok_or_else(|| {
        TableError::Schema(SchemaError(format!("column {what} has an unexpected type")))
    })
}

use crate::generator::LineItem;
use crate::schema::lineitem as li;

/// One output group of Query 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q1Row {
    /// L_RETURNFLAG
    pub returnflag: u8,
    /// L_LINESTATUS
    pub linestatus: u8,
    /// SUM(L_QUANTITY)
    pub sum_qty: Decimal,
    /// SUM(L_EXTENDEDPRICE)
    pub sum_base_price: Decimal,
    /// SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT))
    pub sum_disc_price: Decimal,
    /// SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT) * (1 + L_TAX))
    pub sum_charge: Decimal,
    /// AVG(L_QUANTITY)
    pub avg_qty: Decimal,
    /// AVG(L_EXTENDEDPRICE)
    pub avg_price: Decimal,
    /// AVG(L_DISCOUNT)
    pub avg_disc: Decimal,
    /// COUNT(*)
    pub count_order: i64,
}

#[derive(Default, Clone)]
struct Acc {
    sum_qty: Decimal,
    sum_base: Decimal,
    sum_disc_price: Decimal,
    sum_charge: Decimal,
    sum_disc: Decimal,
    count: i64,
}

impl Acc {
    fn add(&mut self, qty: Decimal, ext: Decimal, disc: Decimal, tax: Decimal) {
        let disc_price = ext.mul_round(Decimal::ONE - disc);
        let charge = disc_price.mul_round(Decimal::ONE + tax);
        self.sum_qty += qty;
        self.sum_base += ext;
        self.sum_disc_price += disc_price;
        self.sum_charge += charge;
        self.sum_disc += disc;
        self.count += 1;
    }

    fn finish(self, (returnflag, linestatus): (u8, u8)) -> Q1Row {
        Q1Row {
            returnflag,
            linestatus,
            sum_qty: self.sum_qty,
            sum_base_price: self.sum_base,
            sum_disc_price: self.sum_disc_price,
            sum_charge: self.sum_charge,
            avg_qty: self.sum_qty.div_count(self.count),
            avg_price: self.sum_base.div_count(self.count),
            avg_disc: self.sum_disc.div_count(self.count),
            count_order: self.count,
        }
    }
}

/// The Query 1 cutoff for a given `delta`:
/// `DATE '1998-12-01' - INTERVAL delta DAY`. TPC-D draws delta from
/// `[60, 120]`; the canonical validation value is 90.
#[expect(
    clippy::expect_used,
    reason = "compile-time constant date; cannot fail"
)]
pub fn q1_cutoff(delta: i32) -> Date {
    Date::from_ymd(1998, 12, 1)
        .expect("valid constant")
        .add_days(-delta)
}

/// Evaluates Query 1 over typed line items (generator-level oracle).
pub fn q1_reference_items(items: &[LineItem], cutoff: Date) -> Vec<Q1Row> {
    let mut groups: BTreeMap<(u8, u8), Acc> = BTreeMap::new();
    for it in items {
        if it.shipdate <= cutoff {
            groups
                .entry((it.returnflag, it.linestatus))
                .or_default()
                .add(it.quantity, it.extendedprice, it.discount, it.tax);
        }
    }
    groups.into_iter().map(|(k, acc)| acc.finish(k)).collect()
}

/// Evaluates Query 1 by a full sequential scan of a LINEITEM table
/// (storage-level oracle).
pub fn q1_reference_table(table: &Table, cutoff: Date) -> Result<Vec<Q1Row>, TableError> {
    let mut groups: BTreeMap<(u8, u8), Acc> = BTreeMap::new();
    let mut page_rows = Vec::new();
    for page in 0..table.page_count() {
        page_rows.clear();
        table.scan_page_into(page, &mut page_rows)?;
        for (_, t) in &page_rows {
            let shipdate = typed(t[li::SHIPDATE].as_date(), "L_SHIPDATE")?;
            if shipdate <= cutoff {
                let key = (
                    typed(t[li::RETURNFLAG].as_char(), "L_RETURNFLAG")?,
                    typed(t[li::LINESTATUS].as_char(), "L_LINESTATUS")?,
                );
                groups.entry(key).or_default().add(
                    typed(t[li::QUANTITY].as_decimal(), "L_QUANTITY")?,
                    typed(t[li::EXTENDEDPRICE].as_decimal(), "L_EXTENDEDPRICE")?,
                    typed(t[li::DISCOUNT].as_decimal(), "L_DISCOUNT")?,
                    typed(t[li::TAX].as_decimal(), "L_TAX")?,
                );
            }
        }
    }
    Ok(groups.into_iter().map(|(k, acc)| acc.finish(k)).collect())
}

/// Selectivity of the Query 1 predicate over `items` — the paper quotes
/// 95–97 % for the benchmark's delta range.
pub fn q1_selectivity(items: &[LineItem], cutoff: Date) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items.iter().filter(|it| it.shipdate <= cutoff).count() as f64 / items.len() as f64
}

/// Pretty-prints rows like the benchmark's answer set (for examples).
pub fn format_q1(rows: &[Q1Row]) -> String {
    let mut out = String::from(
        "FLAG STATUS    SUM_QTY    SUM_BASE_PRICE    SUM_DISC_PRICE        SUM_CHARGE  AVG_QTY  AVG_PRICE  AVG_DISC  COUNT\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{}    {}      {:>9} {:>17} {:>17} {:>17} {:>8} {:>10} {:>9} {:>6}\n",
            r.returnflag as char,
            r.linestatus as char,
            r.sum_qty,
            r.sum_base_price,
            r.sum_disc_price,
            r.sum_charge,
            r.avg_qty,
            r.avg_price,
            r.avg_disc,
            r.count_order
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use crate::generator::{generate, generate_lineitem_table, GenConfig};

    #[test]
    fn cutoff_matches_spec() {
        assert_eq!(q1_cutoff(90).to_string(), "1998-09-02");
        assert_eq!(q1_cutoff(0).to_string(), "1998-12-01");
    }

    #[test]
    fn selectivity_is_high_as_in_paper() {
        let (_, items) = generate(&GenConfig::tiny(Clustering::Uniform));
        let sel = q1_selectivity(&items, q1_cutoff(90));
        // Paper: "95%-97% of all tuples qualify". Our generator's order
        // window mirrors dbgen's, so the selectivity lands in that band.
        assert!(sel > 0.93 && sel < 0.99, "selectivity {sel}");
    }

    #[test]
    fn item_and_table_oracles_agree() {
        let cfg = GenConfig::tiny(Clustering::diagonal_default());
        let (_, items) = generate(&cfg);
        let table = generate_lineitem_table(&cfg);
        let a = q1_reference_items(&items, q1_cutoff(90));
        let b = q1_reference_table(&table, q1_cutoff(90)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4, "Query 1 yields four groups (§2.3)");
    }

    #[test]
    fn groups_are_sorted_by_flag_then_status() {
        let cfg = GenConfig::tiny(Clustering::Uniform);
        let (_, items) = generate(&cfg);
        let rows = q1_reference_items(&items, q1_cutoff(90));
        let keys: Vec<(u8, u8)> = rows.iter().map(|r| (r.returnflag, r.linestatus)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn averages_consistent_with_sums() {
        let cfg = GenConfig::tiny(Clustering::Uniform);
        let (_, items) = generate(&cfg);
        for r in q1_reference_items(&items, q1_cutoff(90)) {
            assert_eq!(r.avg_qty, r.sum_qty.div_count(r.count_order));
            assert_eq!(r.avg_price, r.sum_base_price.div_count(r.count_order));
            assert!(r.count_order > 0);
        }
    }

    #[test]
    fn empty_input_yields_no_groups() {
        assert!(q1_reference_items(&[], q1_cutoff(90)).is_empty());
    }

    #[test]
    fn cutoff_before_window_filters_everything() {
        let (_, items) = generate(&GenConfig::tiny(Clustering::Uniform));
        let rows = q1_reference_items(&items, Date::from_ymd(1991, 1, 1).unwrap());
        assert!(rows.is_empty());
    }

    #[test]
    fn format_contains_all_groups() {
        let (_, items) = generate(&GenConfig::tiny(Clustering::Uniform));
        let rows = q1_reference_items(&items, q1_cutoff(90));
        let s = format_q1(&rows);
        assert_eq!(s.lines().count(), rows.len() + 1);
    }
}
