//! Grouping with aggregation — Dayal's GAggr operator (\[4\] in the paper),
//! implemented as a hash aggregation over any child operator. It is the
//! plain (SMA-less) reference the tests check every plan against; the
//! plans themselves fold into `GroupState`s in `SmaGAggr`'s bucket loop.

use std::collections::BTreeMap;

use sma_core::{Accumulator, AggFn, ScalarExpr};
use sma_types::{DataType, RowLayout, RowView, Slot, Tuple, Value};

use crate::op::{ExecError, PhysicalOp};

/// One aggregate in a query's select clause.
#[derive(Debug, Clone, PartialEq)]
pub enum AggSpec {
    /// `min(expr)`
    Min(ScalarExpr),
    /// `max(expr)`
    Max(ScalarExpr),
    /// `sum(expr)`
    Sum(ScalarExpr),
    /// `count(*)`
    CountStar,
    /// `avg(expr)` — computed as `sum(expr) / count(*)` in a
    /// post-processing phase, exactly as §3.3 prescribes.
    Avg(ScalarExpr),
}

impl AggSpec {
    /// The input expression, if any.
    pub fn input(&self) -> Option<&ScalarExpr> {
        match self {
            AggSpec::Min(e) | AggSpec::Max(e) | AggSpec::Sum(e) | AggSpec::Avg(e) => Some(e),
            AggSpec::CountStar => None,
        }
    }

    /// The base aggregate function accumulated at runtime (`avg` → `sum`).
    pub fn base_fn(&self) -> AggFn {
        match self {
            AggSpec::Min(_) => AggFn::Min,
            AggSpec::Max(_) => AggFn::Max,
            AggSpec::Sum(_) | AggSpec::Avg(_) => AggFn::Sum,
            AggSpec::CountStar => AggFn::Count,
        }
    }

    /// Whether post-processing divides by the group count.
    pub fn is_avg(&self) -> bool {
        matches!(self, AggSpec::Avg(_))
    }
}

/// A query's aggregate inputs compiled once against the row layout: the
/// bucket loop's per-row fold ([`GroupState::fold_view`]).
///
/// `count(*)` and `sum`/`avg` of an `Int` or `Decimal` column fold the
/// raw slot through the typed folds [`Accumulator::fold_count`],
/// [`Accumulator::fold_sum_int`] and [`Accumulator::fold_sum_dec`], each
/// an exact twin of [`Accumulator::update`]. Every other aggregate is evaluated on the
/// view by [`ScalarExpr::eval_view`] and folded by `update`, as
/// [`GroupState::update`] does on a tuple.
pub(crate) struct RowFold {
    /// One per aggregate spec, in spec order.
    inputs: Vec<FoldInput>,
}

/// How one aggregate reads its input from a row view.
enum FoldInput {
    /// `count(*)`.
    Count,
    /// `sum`/`avg` of an `Int` column.
    SumInt(Slot),
    /// `sum`/`avg` of a `Decimal` column (its cents).
    SumDec(Slot),
    /// Any other input expression.
    View(ScalarExpr),
}

impl RowFold {
    /// Compiles the inputs of `specs` against `layout`.
    pub fn new(specs: &[AggSpec], layout: &RowLayout) -> RowFold {
        let input = |spec: &AggSpec| {
            let e = match spec {
                AggSpec::CountStar => return FoldInput::Count,
                AggSpec::Min(e) | AggSpec::Max(e) => e,
                AggSpec::Sum(e) | AggSpec::Avg(e) => {
                    let slot = match e {
                        ScalarExpr::Column(c) => layout.slot(*c),
                        _ => None,
                    };
                    match slot.map(|s| (s, s.data_type())) {
                        Some((s, DataType::Int)) => return FoldInput::SumInt(s),
                        Some((s, DataType::Decimal)) => return FoldInput::SumDec(s),
                        _ => e,
                    }
                }
            };
            FoldInput::View(e.clone())
        };
        RowFold {
            inputs: specs.iter().map(input).collect(),
        }
    }
}

/// Per-group accumulation state shared by both GAggr variants.
#[derive(Debug)]
pub(crate) struct GroupState {
    pub accs: Vec<Accumulator>,
    /// Hidden `count(*)` — §3.3: "if the result aggregates do not contain
    /// a count(*) and if averages are demanded by the query, we add it".
    /// We always keep it: it also decides group existence.
    pub hidden_count: i64,
}

impl GroupState {
    pub fn new(specs: &[AggSpec]) -> GroupState {
        GroupState {
            accs: specs
                .iter()
                .map(|s| Accumulator::new(s.base_fn()))
                .collect(),
            hidden_count: 0,
        }
    }

    /// Folds one tuple into every aggregate.
    pub fn update(&mut self, specs: &[AggSpec], tuple: &[Value]) -> Result<(), ExecError> {
        for (spec, acc) in specs.iter().zip(&mut self.accs) {
            match spec.input() {
                Some(e) => acc.update(&e.eval(tuple)?),
                None => acc.update(&Value::Int(1)),
            }
        }
        self.hidden_count += 1;
        Ok(())
    }

    /// Folds one zero-copy row view into every aggregate through the
    /// query's compiled inputs (see [`RowFold`]). Identical math to
    /// [`GroupState::update`] on the decoded tuple, which is never
    /// materialized.
    #[inline]
    pub fn fold_view(&mut self, fold: &RowFold, row: &RowView<'_>) -> Result<(), ExecError> {
        for (input, acc) in fold.inputs.iter().zip(&mut self.accs) {
            match input {
                FoldInput::Count => acc.fold_count(1),
                FoldInput::SumInt(slot) => acc.fold_sum_int([row.i64_at(*slot)]),
                FoldInput::SumDec(slot) => acc.fold_sum_dec([row.i64_at(*slot)]),
                FoldInput::View(e) => acc.update(&e.eval_view(row)?),
            }
        }
        self.hidden_count += 1;
        Ok(())
    }

    /// Merges a partial state for the same group (computed over a disjoint
    /// bucket range) into this one. Folding each partial's finished value
    /// back in is exact because min/max/sum/count are associative and the
    /// identity (`Null`, or `0` for count) merges as a no-op.
    pub fn absorb(&mut self, other: GroupState) {
        for (acc, partial) in self.accs.iter_mut().zip(other.accs) {
            acc.merge(&partial.finish());
        }
        self.hidden_count += other.hidden_count;
    }

    /// Final output values (averages divided by the count).
    pub fn finish(self, specs: &[AggSpec]) -> Vec<Value> {
        let n = self.hidden_count;
        specs
            .iter()
            .zip(self.accs)
            .map(|(spec, acc)| {
                let v = acc.finish();
                if spec.is_avg() && n > 0 {
                    match v {
                        Value::Decimal(d) => Value::Decimal(d.div_count(n)),
                        Value::Int(i) => Value::Int(i / n),
                        other => other,
                    }
                } else {
                    v
                }
            })
            .collect()
    }
}

/// A direct-indexed group table for all-`Char` group keys of at most two
/// columns — the TPC-D Q1 shape, `group by RETURNFLAG, LINESTATUS` — and
/// for the ungrouped aggregate, its zero-column case: one state.
///
/// Indexing a flat array by the raw key bytes replaces both the per-tuple
/// key `Vec` allocation and the ordered-map probe in the ambivalent-bucket
/// hot loop. `Null` group keys (legal in the model, absent in TPC-D data)
/// overflow to an ordered side map, so nothing is lost. Flat-index order
/// equals `Value` order for `Char` keys (both are byte order, and `Null`
/// sorts first in the `BTreeMap` everything folds back into), so results
/// are byte-identical to the generic path.
///
/// The table is sized to the keys it sees: one 256-slot row per distinct
/// first key byte, allocated when that byte first occurs. Q1 touches three
/// rows (24 KiB), where the whole two-column table would be 2 MiB to
/// allocate and to walk, once per morsel. With no key column the table is
/// one row of one slot.
pub(crate) struct DenseGroups {
    /// The key columns' slots in the row layout.
    keys: Vec<Slot>,
    /// Row `idx >> 8` of the flat table, for every first byte seen (one
    /// row in all for a key of fewer than two columns).
    rows: Vec<Option<Box<[Option<GroupState>]>>>,
    overflow: BTreeMap<Vec<Value>, GroupState>,
}

impl DenseGroups {
    /// Builds the table when the grouping is dense-indexable: at most two
    /// group columns, all of type `Char`. Returns `None` otherwise (the
    /// caller falls back to the ordered map).
    pub fn try_new(layout: &RowLayout, group_by: &[usize]) -> Option<DenseGroups> {
        if group_by.len() > 2 {
            return None;
        }
        let keys = group_by
            .iter()
            .map(|&c| layout.slot(c).filter(|s| s.data_type() == DataType::Char))
            .collect::<Option<Vec<Slot>>>()?;
        let mut rows = Vec::new();
        rows.resize_with(1usize << (8 * group_by.len().saturating_sub(1)), || None);
        Some(DenseGroups {
            keys,
            rows,
            overflow: BTreeMap::new(),
        })
    }

    /// The state slot at flat index `idx`, allocating its row on first use.
    fn slot(&mut self, idx: usize) -> &mut Option<GroupState> {
        let row_len = if self.keys.is_empty() { 1 } else { 256 };
        let row = self.rows[idx >> 8].get_or_insert_with(|| {
            let mut row = Vec::new();
            row.resize_with(row_len, || None);
            row.into_boxed_slice()
        });
        &mut row[idx & 0xff]
    }

    /// Folds one passing row into its group — allocation-free for
    /// non-null keys.
    #[inline]
    pub fn update(
        &mut self,
        specs: &[AggSpec],
        fold: &RowFold,
        row: &RowView<'_>,
    ) -> Result<(), ExecError> {
        let mut idx = 0usize;
        for &key in &self.keys {
            match row.u8_at(key) {
                Some(b) => idx = (idx << 8) | b as usize,
                None => {
                    let key = self
                        .keys
                        .iter()
                        .map(|&k| row.u8_at(k).map_or(Value::Null, Value::Char))
                        .collect();
                    return self
                        .overflow
                        .entry(key)
                        .or_insert_with(|| GroupState::new(specs))
                        .fold_view(fold, row);
                }
            }
        }
        self.slot(idx)
            .get_or_insert_with(|| GroupState::new(specs))
            .fold_view(fold, row)
    }

    /// Converts back to the ordered map the merge machinery uses.
    pub fn into_groups(self) -> BTreeMap<Vec<Value>, GroupState> {
        let mut out = self.overflow;
        let key_cols = self.keys.len();
        for (first, row) in self.rows.into_iter().enumerate() {
            let Some(row) = row else { continue };
            for (last, slot) in row.into_vec().into_iter().enumerate() {
                let Some(state) = slot else { continue };
                let key = match key_cols {
                    0 => Vec::new(),
                    1 => vec![Value::Char(last as u8)],
                    _ => vec![Value::Char(first as u8), Value::Char(last as u8)],
                };
                out.insert(key, state);
            }
        }
        out
    }
}

/// Hash (well, ordered-map) aggregation: a pipeline breaker computing all
/// groups in `open`, then streaming `group key ++ aggregates` rows sorted
/// by group key.
pub struct HashGAggr<'a> {
    child: Box<dyn PhysicalOp + 'a>,
    group_by: Vec<usize>,
    specs: Vec<AggSpec>,
    results: Vec<Tuple>,
    pos: usize,
}

impl<'a> HashGAggr<'a> {
    /// Creates the operator: group `child`'s output by the `group_by`
    /// columns and compute `specs`.
    pub fn new(
        child: Box<dyn PhysicalOp + 'a>,
        group_by: Vec<usize>,
        specs: Vec<AggSpec>,
    ) -> HashGAggr<'a> {
        HashGAggr {
            child,
            group_by,
            specs,
            results: Vec::new(),
            pos: 0,
        }
    }
}

impl PhysicalOp for HashGAggr<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.results.clear();
        self.pos = 0;
        self.child.open()?;
        let mut groups: BTreeMap<Vec<Value>, GroupState> = BTreeMap::new();
        while let Some(t) = self.child.next()? {
            let key: Vec<Value> = self.group_by.iter().map(|&g| t[g].clone()).collect();
            groups
                .entry(key)
                .or_insert_with(|| GroupState::new(&self.specs))
                .update(&self.specs, &t)?;
        }
        self.child.close();
        for (key, state) in groups {
            let mut row = key;
            row.extend(state.finish(&self.specs));
            self.results.push(row);
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        if self.pos < self.results.len() {
            let t = std::mem::take(&mut self.results[self.pos]);
            self.pos += 1;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    fn close(&mut self) {
        self.results.clear();
    }

    fn describe(&self) -> String {
        format!(
            "HashGAggr(by={:?}, aggs={}) <- {}",
            self.group_by,
            self.specs.len(),
            self.child.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::SeqScan;
    use crate::op::collect;
    use sma_core::col;
    use sma_storage::Table;
    use sma_types::{Column, DataType, Decimal, RowLayout, Schema};
    use std::sync::Arc;

    fn table(rows: &[(u8, i64, &str)]) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("G", DataType::Char),
            Column::new("N", DataType::Int),
            Column::new("P", DataType::Decimal),
        ]));
        let mut t = Table::in_memory("t", schema, 1);
        for &(g, n, p) in rows {
            t.append(&vec![
                Value::Char(g),
                Value::Int(n),
                Value::Decimal(Decimal::parse(p).unwrap()),
            ])
            .unwrap();
        }
        t
    }

    /// Every first key byte plus null keys in either column: the rows the
    /// dense table allocates on first use fold back into exactly the
    /// groups, and the key order, of the ordered-map path; and so does
    /// the zero-column table of the ungrouped aggregate.
    #[test]
    fn dense_groups_cover_every_first_byte_and_null_keys() {
        let schema = Arc::new(Schema::new(vec![
            Column::new("A", DataType::Char),
            Column::new("B", DataType::Char),
            Column::new("N", DataType::Int),
        ]));
        let mut t = Table::in_memory("t", schema.clone(), 1);
        let mut rows: Vec<Tuple> = (0..768i64)
            .map(|i| {
                vec![
                    Value::Char((i % 256) as u8),
                    Value::Char(b"xyz"[(i / 256) as usize]),
                    Value::Int(i),
                ]
            })
            .collect();
        rows.push(vec![Value::Null, Value::Char(b'x'), Value::Int(1000)]);
        rows.push(vec![Value::Char(b'A'), Value::Null, Value::Int(2000)]);
        rows.push(vec![Value::Null, Value::Null, Value::Int(3000)]);
        for row in &rows {
            t.append(row).unwrap();
        }
        let specs = vec![
            AggSpec::CountStar,
            AggSpec::Sum(col(2)),
            AggSpec::Max(col(2)),
        ];
        let layout = RowLayout::new(&schema);
        let fold = RowFold::new(&specs, &layout);
        let mut dense = DenseGroups::try_new(&layout, &[0, 1]).unwrap();
        for page in 0..t.page_count() {
            t.for_each_on_page::<ExecError, _>(page, None, |_, image| {
                dense.update(&specs, &fold, &layout.view(image)?)
            })
            .unwrap();
        }
        assert_eq!(dense.rows.iter().filter(|r| r.is_some()).count(), 256);
        let got: Vec<Tuple> = dense
            .into_groups()
            .into_iter()
            .map(|(mut key, state)| {
                key.extend(state.finish(&specs));
                key
            })
            .collect();
        let mut generic = HashGAggr::new(Box::new(SeqScan::new(&t)), vec![0, 1], specs.clone());
        assert_eq!(got, collect(&mut generic).unwrap());
        assert_eq!(got.len(), rows.len());

        // With no key column the table is one state: the ungrouped
        // aggregate, folded without a map probe per row.
        let mut ungrouped = DenseGroups::try_new(&layout, &[]).unwrap();
        for page in 0..t.page_count() {
            t.for_each_on_page::<ExecError, _>(page, None, |_, image| {
                ungrouped.update(&specs, &fold, &layout.view(image)?)
            })
            .unwrap();
        }
        let got: Vec<Tuple> = ungrouped
            .into_groups()
            .into_iter()
            .map(|(mut key, state)| {
                key.extend(state.finish(&specs));
                key
            })
            .collect();
        let mut generic = HashGAggr::new(Box::new(SeqScan::new(&t)), vec![], specs);
        assert_eq!(got, collect(&mut generic).unwrap());
    }

    #[test]
    fn groups_and_aggregates() {
        let t = table(&[
            (b'A', 1, "1.00"),
            (b'B', 10, "5.00"),
            (b'A', 2, "3.00"),
            (b'B', 20, "7.00"),
            (b'A', 3, "2.00"),
        ]);
        let mut g = HashGAggr::new(
            Box::new(SeqScan::new(&t)),
            vec![0],
            vec![
                AggSpec::CountStar,
                AggSpec::Sum(col(1)),
                AggSpec::Min(col(1)),
                AggSpec::Max(col(1)),
                AggSpec::Avg(col(2)),
            ],
        );
        let rows = collect(&mut g).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            vec![
                Value::Char(b'A'),
                Value::Int(3),
                Value::Int(6),
                Value::Int(1),
                Value::Int(3),
                Value::Decimal(Decimal::parse("2.00").unwrap()),
            ]
        );
        assert_eq!(rows[1][0], Value::Char(b'B'));
        assert_eq!(rows[1][1], Value::Int(2));
        assert_eq!(rows[1][5], Value::Decimal(Decimal::parse("6.00").unwrap()));
    }

    #[test]
    fn global_aggregate_no_grouping() {
        let t = table(&[(b'A', 1, "1.00"), (b'B', 2, "2.00")]);
        let mut g = HashGAggr::new(
            Box::new(SeqScan::new(&t)),
            vec![],
            vec![AggSpec::CountStar, AggSpec::Sum(col(1))],
        );
        let rows = collect(&mut g).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(2), Value::Int(3)]]);
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let t = table(&[]);
        let mut g = HashGAggr::new(
            Box::new(SeqScan::new(&t)),
            vec![0],
            vec![AggSpec::CountStar],
        );
        assert!(collect(&mut g).unwrap().is_empty());
    }

    #[test]
    fn avg_of_ints_truncates_like_sql() {
        let t = table(&[(b'A', 1, "1.00"), (b'A', 2, "1.00")]);
        let mut g = HashGAggr::new(
            Box::new(SeqScan::new(&t)),
            vec![0],
            vec![AggSpec::Avg(col(1))],
        );
        let rows = collect(&mut g).unwrap();
        assert_eq!(rows[0][1], Value::Int(1)); // (1+2)/2 = 1 in integer math
    }

    #[test]
    fn output_sorted_by_group_key() {
        let t = table(&[(b'C', 1, "1.00"), (b'A', 1, "1.00"), (b'B', 1, "1.00")]);
        let mut g = HashGAggr::new(
            Box::new(SeqScan::new(&t)),
            vec![0],
            vec![AggSpec::CountStar],
        );
        let rows = collect(&mut g).unwrap();
        let order: Vec<u8> = rows.iter().map(|r| r[0].as_char().unwrap()).collect();
        assert_eq!(order, vec![b'A', b'B', b'C']);
    }

    #[test]
    fn spec_introspection() {
        assert_eq!(AggSpec::CountStar.input(), None);
        assert_eq!(AggSpec::Avg(col(1)).base_fn(), AggFn::Sum);
        assert!(AggSpec::Avg(col(1)).is_avg());
        assert!(!AggSpec::Sum(col(1)).is_avg());
    }
}
