//! The warehouse facade: tables + SMA catalog + planner in one handle.
//!
//! This is the surface a downstream user programs against: register
//! relations, issue the paper's `define sma` statements, mutate data with
//! SMA maintenance handled automatically, and run aggregate queries that
//! pick SMA plans whenever they pay.
//!
//! # Durability
//!
//! [`Warehouse::save_to_dir`] persists tables, SMAs and a checksummed
//! manifest to a directory; [`Warehouse::open_with_recovery`] reopens it,
//! verifying every page checksum and every SMA stream, rebuilding any SMA
//! that fails verification from its base table (SMAs are redundant derived
//! data — the paper's §3 maintenance argument makes corruption a rebuild,
//! never a data loss). [`Warehouse::scrub`] runs the same verification on
//! demand against an open warehouse.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use sma_core::catalog::{CatalogError, SmaCatalog};
use sma_core::persist::{decode_definition, encode_definition, load_sma_file, save_sma_file};
use sma_core::{Sma, SmaDefinition, SmaError, SmaSet};
use sma_exec::{plan, AggregateQuery, DegradationReport, ExecError, PlanKind, PlannerConfig};
use sma_storage::{
    atomic_write_file, crc32, sync_dir, FileStore, PageNo, PageStore, QueryBudget, SegmentedStore,
    StoreError, Table, TableError, TupleId,
};
use sma_types::{Column, DataType, Schema, Tuple};

/// Errors from warehouse operations.
#[derive(Debug)]
pub enum WarehouseError {
    /// No table with this name is registered.
    UnknownTable(String),
    /// A table with this name is already registered.
    DuplicateTable(String),
    /// Storage failed.
    Table(TableError),
    /// SMA catalog operation failed.
    Catalog(CatalogError),
    /// Query execution failed.
    Exec(ExecError),
    /// A filesystem operation on the warehouse directory failed.
    Io(io::Error),
    /// SMA persistence or rebuild failed.
    Sma(SmaError),
    /// The warehouse manifest failed its checksum or did not parse. The
    /// manifest is the one file recovery cannot rebuild, so this is fatal.
    CorruptManifest(String),
    /// The manifest declares this table in the retired columnar layout,
    /// whose pages this version no longer reads.
    UnsupportedLayout(String),
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::UnknownTable(n) => write!(f, "unknown table {n:?}"),
            WarehouseError::DuplicateTable(n) => write!(f, "table {n:?} already exists"),
            WarehouseError::Table(e) => write!(f, "{e}"),
            WarehouseError::Catalog(e) => write!(f, "{e}"),
            WarehouseError::Exec(e) => write!(f, "{e}"),
            WarehouseError::Io(e) => write!(f, "warehouse i/o failed: {e}"),
            WarehouseError::Sma(e) => write!(f, "{e}"),
            WarehouseError::CorruptManifest(what) => {
                write!(f, "corrupt warehouse manifest: {what}")
            }
            WarehouseError::UnsupportedLayout(table) => write!(
                f,
                "table {table:?} is stored in the columnar layout, which is no longer read"
            ),
        }
    }
}

impl std::error::Error for WarehouseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WarehouseError::Table(e) => Some(e),
            WarehouseError::Catalog(e) => Some(e),
            WarehouseError::Exec(e) => Some(e),
            WarehouseError::Io(e) => Some(e),
            WarehouseError::Sma(e) => Some(e),
            WarehouseError::UnknownTable(_)
            | WarehouseError::DuplicateTable(_)
            | WarehouseError::CorruptManifest(_)
            | WarehouseError::UnsupportedLayout(_) => None,
        }
    }
}

impl From<TableError> for WarehouseError {
    fn from(e: TableError) -> WarehouseError {
        WarehouseError::Table(e)
    }
}

impl From<CatalogError> for WarehouseError {
    fn from(e: CatalogError) -> WarehouseError {
        WarehouseError::Catalog(e)
    }
}

impl From<ExecError> for WarehouseError {
    fn from(e: ExecError) -> WarehouseError {
        WarehouseError::Exec(e)
    }
}

impl From<io::Error> for WarehouseError {
    fn from(e: io::Error) -> WarehouseError {
        WarehouseError::Io(e)
    }
}

impl From<SmaError> for WarehouseError {
    fn from(e: SmaError) -> WarehouseError {
        WarehouseError::Sma(e)
    }
}

impl From<StoreError> for WarehouseError {
    fn from(e: StoreError) -> WarehouseError {
        WarehouseError::Table(TableError::Store(e))
    }
}

/// The result of a warehouse query.
#[derive(Debug)]
pub struct QueryResult {
    /// Output rows: group key columns then aggregates, sorted by key.
    pub rows: Vec<Tuple>,
    /// The physical strategy the planner chose.
    pub plan_kind: PlanKind,
    /// What the resilience layer gave up while executing: buckets demoted
    /// from the SMA fast path to base-table scans, and transient-I/O
    /// retries spent. Empty on a healthy run.
    pub degradation: DegradationReport,
}

/// A data warehouse: named tables, their SMAs, and a planner.
///
/// ```
/// use smadb::Warehouse;
/// use smadb::storage::Table;
/// use smadb::types::{Column, DataType, Schema, Value};
/// use smadb::sma::{col, BucketPred, CmpOp};
/// use smadb::exec::{AggSpec, AggregateQuery};
/// use std::sync::Arc;
///
/// let schema = Arc::new(Schema::new(vec![Column::new("X", DataType::Int)]));
/// let mut sales = Table::in_memory("SALES", schema, 1);
/// for x in 0..50 { sales.append(&vec![Value::Int(x)]).unwrap(); }
///
/// let mut warehouse = Warehouse::new();
/// warehouse.register(sales).unwrap();
/// warehouse.define_sma("define sma mn select min(X) from SALES").unwrap();
/// warehouse.define_sma("define sma mx select max(X) from SALES").unwrap();
///
/// let result = warehouse.query("SALES", AggregateQuery {
///     pred: BucketPred::cmp(0, CmpOp::Le, 10i64),
///     group_by: vec![],
///     specs: vec![AggSpec::CountStar],
/// }).unwrap();
/// assert_eq!(result.rows[0][0], Value::Int(11));
/// ```
#[derive(Default)]
pub struct Warehouse {
    tables: BTreeMap<String, Table>,
    catalog: SmaCatalog,
    /// Highest WAL sequence number folded into the sealed tables —
    /// persisted in the manifest so recovery can skip already-applied
    /// records (streaming-ingest idempotence). 0 for bulk-loaded data.
    watermark: u64,
    /// WAL epoch the streaming log was last truncated to. Tracked
    /// separately from the catalog epoch because compaction advances the
    /// catalog epoch *without* touching the WAL: replay filtering on the
    /// catalog epoch would silently drop acked records appended between a
    /// compaction and a crash.
    wal_epoch: u64,
    /// The committed segment set per table: which on-disk files, in commit
    /// order, reassemble each table (see [`SegmentedStore`]). Empty for
    /// in-memory warehouses that were never saved.
    segments: SegmentLists,
}

impl Warehouse {
    /// An empty warehouse.
    pub fn new() -> Warehouse {
        Warehouse::default()
    }

    /// Registers a table under its own name.
    pub fn register(&mut self, table: Table) -> Result<(), WarehouseError> {
        let name = table.name().to_string();
        if self.tables.contains_key(&name) {
            return Err(WarehouseError::DuplicateTable(name));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// The registered table named `name`.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Registered table names.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// The SMA set defined on `relation`, if any.
    pub fn smas(&self, relation: &str) -> Option<&SmaSet> {
        self.catalog.set_for(relation)
    }

    /// The flush generation of the sealed state (see
    /// [`sma_core::catalog::SmaCatalog::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.catalog.epoch()
    }

    /// Highest WAL sequence number folded into the sealed tables.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// WAL epoch the streaming log was last truncated to (see the
    /// `wal_epoch` field — compaction advances the catalog epoch without
    /// touching this one).
    pub fn wal_epoch(&self) -> u64 {
        self.wal_epoch
    }

    /// Number of committed segment files backing `relation` (1 after a
    /// bulk save or a compaction; grows by one per incremental flush that
    /// touched the table).
    pub fn segment_count(&self, relation: &str) -> usize {
        self.segments.get(relation).map(Vec::len).unwrap_or(0)
    }

    /// Largest per-table segment count — what a compaction policy
    /// compares against its threshold.
    pub fn max_segment_count(&self) -> usize {
        self.segments.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Opens the next generation and returns its epoch. A flush passes the
    /// watermark it folds in: it truncates the WAL once it completes, so
    /// the WAL epoch follows the catalog epoch. A compaction passes `None`:
    /// it neither applies WAL records nor truncates the log, so the
    /// watermark and WAL epoch stay put and crash replay still accepts
    /// every record appended since the last flush.
    pub(crate) fn begin_generation(&mut self, flush_watermark: Option<u64>) -> u64 {
        let epoch = self.catalog.advance_epoch();
        if let Some(watermark) = flush_watermark {
            self.watermark = watermark;
            self.wal_epoch = epoch;
        }
        epoch
    }

    /// Adopts `lists` as the committed segment set and seals every table:
    /// called after the manifest naming these segments has been atomically
    /// committed, never before (sealing early would lose the dirty-range
    /// information a failed flush still needs for its retry).
    pub(crate) fn install_segments(&mut self, lists: SegmentLists) {
        self.segments = lists;
        for table in self.tables.values_mut() {
            table.seal();
        }
    }

    /// Read access to the SMA catalog (ingest layer).
    pub(crate) fn catalog(&self) -> &SmaCatalog {
        &self.catalog
    }

    /// Executes a `define sma` statement: parses it against the target
    /// relation's schema, bulkloads the SMA, registers it.
    pub fn define_sma(&mut self, statement: &str) -> Result<&Sma, WarehouseError> {
        let relation = relation_of(statement)
            .ok_or_else(|| WarehouseError::UnknownTable("<unparsed>".into()))?;
        let table = self
            .tables
            .get(&relation)
            .or_else(|| {
                // SQL identifiers are case-insensitive.
                self.tables
                    .iter()
                    .find(|(k, _)| k.eq_ignore_ascii_case(&relation))
                    .map(|(_, v)| v)
            })
            .ok_or(WarehouseError::UnknownTable(relation))?;
        Ok(self.catalog.execute_define(statement, table)?)
    }

    /// Appends a tuple, routing SMA maintenance automatically.
    pub fn insert(&mut self, relation: &str, tuple: &Tuple) -> Result<TupleId, WarehouseError> {
        let table = self
            .tables
            .get_mut(relation)
            .ok_or_else(|| WarehouseError::UnknownTable(relation.to_string()))?;
        let tid = table.append(tuple)?;
        let bucket = table.bucket_of_page(tid.page);
        self.catalog.note_insert(relation, bucket, tuple)?;
        Ok(tid)
    }

    /// Deletes a tuple, routing SMA maintenance automatically.
    pub fn delete(&mut self, relation: &str, tid: TupleId) -> Result<(), WarehouseError> {
        let table = self
            .tables
            .get_mut(relation)
            .ok_or_else(|| WarehouseError::UnknownTable(relation.to_string()))?;
        let Some(old) = table.get(tid)? else {
            return Err(WarehouseError::Table(TableError::NotFound(tid)));
        };
        table.delete(tid)?;
        let bucket = table.bucket_of_page(tid.page);
        self.catalog.note_delete(relation, bucket, &old)?;
        Ok(())
    }

    /// Re-tightens any loose min/max bounds on `relation`'s SMAs,
    /// returning the number of buckets refreshed.
    pub fn refresh_smas(&mut self, relation: &str) -> Result<usize, WarehouseError> {
        let table = self
            .tables
            .get(relation)
            .ok_or_else(|| WarehouseError::UnknownTable(relation.to_string()))?;
        Ok(self.catalog.refresh_stale(relation, table)?)
    }

    /// Marks `buckets` of every SMA on `relation` as quarantined: their
    /// entries may be garbage (detected corruption, torn write) and must
    /// not be trusted. Queries keep answering correctly — the affected
    /// buckets demote to base-table scans — until [`Warehouse::heal`]
    /// rebuilds the entries.
    pub fn quarantine_sma_buckets(
        &mut self,
        relation: &str,
        buckets: &[u32],
    ) -> Result<(), WarehouseError> {
        if !self.tables.contains_key(relation) {
            return Err(WarehouseError::UnknownTable(relation.to_string()));
        }
        if let Some(set) = self.catalog.set_for_mut(relation) {
            for &b in buckets {
                set.quarantine_bucket(b);
            }
        }
        Ok(())
    }

    /// Buckets currently quarantined in at least one SMA on `relation`
    /// (sorted, deduplicated).
    pub fn quarantined_sma_buckets(&self, relation: &str) -> Vec<u32> {
        self.catalog
            .set_for(relation)
            .map(SmaSet::quarantined_buckets)
            .unwrap_or_default()
    }

    /// Heals `relation`'s SMAs: rescans exactly the quarantined buckets
    /// from the base table and rebuilds their entries, clearing the
    /// quarantine. Returns the number of buckets healed. SMAs are
    /// redundant derived data, so healing never needs anything beyond the
    /// base table — the paper's §3 maintenance argument applied to repair.
    pub fn heal(&mut self, relation: &str) -> Result<usize, WarehouseError> {
        let table = self
            .tables
            .get(relation)
            .ok_or_else(|| WarehouseError::UnknownTable(relation.to_string()))?;
        let Some(set) = self.catalog.set_for_mut(relation) else {
            return Ok(0);
        };
        let buckets = set.quarantined_buckets();
        for &b in &buckets {
            set.refresh_bucket(table, b)?;
        }
        Ok(buckets.len())
    }

    /// Heals every relation's SMAs (see [`Warehouse::heal`]), returning
    /// the total number of buckets healed.
    pub fn heal_all(&mut self) -> Result<usize, WarehouseError> {
        let names: Vec<String> = self.tables.keys().cloned().collect();
        let mut healed = 0;
        for name in names {
            healed += self.heal(&name)?;
        }
        Ok(healed)
    }

    /// Plans and runs an aggregate query against `relation`, using its
    /// SMAs when the cost model says they pay.
    pub fn query(
        &self,
        relation: &str,
        query: AggregateQuery,
    ) -> Result<QueryResult, WarehouseError> {
        self.query_inner(relation, query, None)
    }

    /// [`Warehouse::query`] under a cooperative [`QueryBudget`]: the
    /// executor checks the budget at every bucket/page boundary, so a
    /// deadline, page cap, or cancellation cuts the query off with a
    /// structured [`sma_exec::ExecError::Budget`] instead of letting a
    /// heavy scan run unchecked.
    pub fn query_with_budget(
        &self,
        relation: &str,
        query: AggregateQuery,
        budget: &QueryBudget,
    ) -> Result<QueryResult, WarehouseError> {
        self.query_inner(relation, query, Some(budget))
    }

    fn query_inner(
        &self,
        relation: &str,
        query: AggregateQuery,
        budget: Option<&QueryBudget>,
    ) -> Result<QueryResult, WarehouseError> {
        let table = self
            .tables
            .get(relation)
            .ok_or_else(|| WarehouseError::UnknownTable(relation.to_string()))?;
        let mut chosen = plan(
            table,
            query,
            self.catalog.set_for(relation),
            &PlannerConfig::default(),
        );
        if let Some(b) = budget {
            chosen = chosen.with_budget(b);
        }
        let (rows, degradation) = chosen.execute_with_report()?;
        Ok(QueryResult {
            rows,
            plan_kind: chosen.kind,
            degradation,
        })
    }

    /// EXPLAIN for an aggregate query: the chosen plan and its estimates.
    pub fn explain(&self, relation: &str, query: AggregateQuery) -> Result<String, WarehouseError> {
        let table = self
            .tables
            .get(relation)
            .ok_or_else(|| WarehouseError::UnknownTable(relation.to_string()))?;
        let chosen = plan(
            table,
            query,
            self.catalog.set_for(relation),
            &PlannerConfig::default(),
        );
        Ok(chosen.explain())
    }

    // -------------------------------------------------- durability layer

    /// Persists the warehouse into `dir`: one checksummed page file per
    /// table, one checksummed `SMA2` stream per SMA, and — written last,
    /// atomically — the [`MANIFEST_FILE`] that names them all.
    ///
    /// The manifest is the commit point: each table and SMA file is
    /// fully written, fsynced and renamed into place before the manifest
    /// that references it, so a crash anywhere in `save_to_dir` leaves a
    /// directory that [`Warehouse::open_with_recovery`] reads as either
    /// the old state or the new state, never a mixture.
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), WarehouseError> {
        let dir = dir.as_ref();
        let (stream, _lists) = self.write_generation(dir, "", Export::Whole)?;
        commit_manifest(dir, &stream)
    }

    /// The one generation writer. Per table it copies the pages `export`
    /// selects into a fresh `{name}{suffix}.tbl` segment (write a `.tmp`,
    /// export, rename); then it writes this generation's SMA images and
    /// returns the manifest stream naming them, with the segment lists.
    /// Nothing is committed until the caller passes the stream to
    /// [`commit_manifest`], then adopts the lists via
    /// [`Warehouse::install_segments`].
    ///
    /// The streaming flush and compaction write every generation under a
    /// distinct suffix (`.e1`, `.e2`, …): segment files of the previous
    /// generation are never opened for writing, so a crash anywhere before
    /// the manifest rename leaves the old generation fully intact and a
    /// crash after it leaves the new one — the directory is always exactly
    /// one committed state plus, at worst, dead files that cleanup removes.
    pub(crate) fn write_generation(
        &self,
        dir: &Path,
        suffix: &str,
        export: Export,
    ) -> Result<(Vec<u8>, SegmentLists), WarehouseError> {
        fs::create_dir_all(dir)?;
        let mut lists = SegmentLists::new();
        for (name, table) in &self.tables {
            let pages = table.page_count();
            let (mut list, from) = match export {
                Export::Whole => (Vec::new(), 0),
                Export::Delta => {
                    let old = self.segments.get(name).map_or(&[][..], Vec::as_slice);
                    let covered = old.iter().map(|s| s.start + s.pages).max().unwrap_or(0);
                    // The delta must reach back to the first dirty page, and
                    // also cover any pages the committed segments never saw
                    // (a table that grew while its list lagged behind).
                    let from = table.unsealed_from().min(covered);
                    if from >= pages {
                        // Nothing new to persist: no file, and the list
                        // stays as committed.
                        lists.insert(name.clone(), old.to_vec());
                        continue;
                    }
                    // Segments the delta wholly shadows are dead weight;
                    // cleanup removes their files once the manifest stops
                    // naming them.
                    (
                        old.iter().filter(|s| s.start < from).cloned().collect(),
                        from,
                    )
                }
            };
            // Table and SMA names come from the SQL parser (identifiers:
            // alphanumerics and underscores), so they are filename-safe.
            let file = format!("{name}{suffix}.tbl");
            let tmp = dir.join(format!("{file}.tmp"));
            let mut store = FileStore::create(&tmp)?;
            table.export_page_range(&mut store, from)?;
            drop(store);
            fs::rename(&tmp, dir.join(&file))?;
            list.push(SegmentMeta {
                file,
                start: from,
                pages: pages - from,
            });
            lists.insert(name.clone(), list);
        }
        let stream = self.encode_generation(dir, suffix, &lists)?;
        Ok((stream, lists))
    }

    /// Writes this generation's SMA images into `dir` and encodes the
    /// manifest stream naming `lists` + those images, stamped with the
    /// warehouse's current epoch, watermark and WAL epoch. SMA images are
    /// always rewritten whole — they are tiny by the paper's premise, and
    /// their bucket entries shift on every append.
    fn encode_generation(
        &self,
        dir: &Path,
        suffix: &str,
        lists: &SegmentLists,
    ) -> Result<Vec<u8>, WarehouseError> {
        let mut manifest = Vec::new();
        put_u64(&mut manifest, self.catalog.epoch());
        put_u64(&mut manifest, self.watermark);
        put_u64(&mut manifest, self.wal_epoch);
        // Manifest v3: the table-count high bit signals that each table
        // entry carries a layout byte after bucket_pages, always 0 (row
        // layout). v2 readers never see v3 manifests (upgrades are
        // forward-only); this v3 reader still accepts v2 manifests.
        put_u32(&mut manifest, MANIFEST_V3_FLAG | (self.tables.len() as u32));
        for (name, table) in &self.tables {
            put_str(&mut manifest, name);
            let empty = Vec::new();
            let list = lists.get(name).unwrap_or(&empty);
            put_u32(&mut manifest, list.len() as u32);
            for seg in list {
                put_str(&mut manifest, &seg.file);
                put_u32(&mut manifest, seg.start);
                put_u32(&mut manifest, seg.pages);
            }
            put_u32(&mut manifest, table.bucket_pages());
            manifest.push(0);
            let cols = table.schema().columns();
            put_u32(&mut manifest, cols.len() as u32);
            for c in cols {
                put_str(&mut manifest, &c.name);
                manifest.push(c.ty.tag());
            }
            let smas = self.catalog.set_for(name).map(SmaSet::smas).unwrap_or(&[]);
            put_u32(&mut manifest, smas.len() as u32);
            for sma in smas {
                let sma_file = format!("{name}.{}{suffix}.sma", sma.def().name);
                if sma.has_quarantine() {
                    // Quarantined entries may be garbage and the flag is
                    // runtime-only, so persisting the image would launder
                    // the damage into a "clean" file. Drop any on-disk
                    // image instead: the manifest still names the SMA, so
                    // reopening rebuilds it from the base table.
                    match fs::remove_file(dir.join(&sma_file)) {
                        Ok(()) => {}
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                        Err(e) => return Err(e.into()),
                    }
                } else {
                    save_sma_file(sma, &dir.join(&sma_file))?;
                }
                put_str(&mut manifest, &sma.def().name);
                put_str(&mut manifest, &sma_file);
                let def = encode_definition(sma.def());
                put_u32(&mut manifest, def.len() as u32);
                manifest.extend_from_slice(&def);
            }
        }
        let mut stream = Vec::with_capacity(12 + manifest.len());
        stream.extend_from_slice(MANIFEST_MAGIC);
        put_u32(&mut stream, manifest.len() as u32);
        put_u32(&mut stream, crc32(&manifest));
        stream.extend_from_slice(&manifest);
        Ok(stream)
    }

    /// Reopens a warehouse saved with [`Warehouse::save_to_dir`],
    /// verifying everything on the way in:
    ///
    /// * every table page is read through the pool, which checks its CRC
    ///   footer; corrupt pages are reported (base data cannot be rebuilt,
    ///   but it is never silently served), and live-tuple counts are
    ///   restored from the readable pages;
    /// * every SMA file is checksum-verified and structurally decoded; a
    ///   corrupt, missing, or out-of-date SMA is quarantined (renamed to
    ///   `<file>.quarantined`) and rebuilt from its base table — SMAs are
    ///   redundant, so their corruption never loses data.
    ///
    /// Only a damaged manifest is unrecoverable
    /// ([`WarehouseError::CorruptManifest`]).
    pub fn open_with_recovery(
        dir: impl AsRef<Path>,
    ) -> Result<(Warehouse, RecoveryReport), WarehouseError> {
        let dir = dir.as_ref();
        let bytes = fs::read(dir.join(MANIFEST_FILE))?;
        let (meta, entries) = decode_manifest(&bytes)?;
        let mut w = Warehouse::new();
        w.catalog.set_epoch(meta.epoch);
        w.watermark = meta.watermark;
        w.wal_epoch = meta.wal_epoch;
        let mut report = RecoveryReport {
            epoch: meta.epoch,
            watermark: meta.watermark,
            ..RecoveryReport::default()
        };
        for entry in entries {
            let mut segs: Vec<(Box<dyn PageStore>, PageNo, PageNo)> = Vec::new();
            for seg in &entry.segments {
                let store = FileStore::open(dir.join(&seg.file))?;
                segs.push((Box::new(store), seg.start, seg.pages));
            }
            let store = SegmentedStore::new(segs)?;
            let schema = Arc::new(Schema::new(entry.columns));
            let mut table = Table::new(
                &entry.name,
                schema,
                Box::new(store),
                POOL_CAPACITY,
                entry.bucket_pages,
            );
            w.segments.insert(entry.name.clone(), entry.segments);
            let verification = table.verify_pages()?;
            report.pages_scanned += verification.scanned as u64;
            for p in verification.corrupt {
                report.pages_corrupt.push((entry.name.clone(), p));
            }
            for sma_entry in entry.smas {
                let (sma, _rebuilt) =
                    recover_sma(dir, &entry.name, &sma_entry, &table, &mut report)?;
                w.catalog.install(&entry.name, sma);
            }
            report.tables += 1;
            w.tables.insert(entry.name, table);
        }
        Ok((w, report))
    }

    /// Verifies the on-disk state of a warehouse previously saved to
    /// `dir` against this open warehouse: re-reads every table page from
    /// disk (dropping the cache first, so corruption behind the pool is
    /// seen), checksum-verifies every SMA file, and quarantines, rebuilds,
    /// and re-saves any SMA that fails. Healthy SMA files are left alone —
    /// the in-memory catalog may be ahead of disk, and scrub must not roll
    /// it back.
    pub fn scrub(&mut self, dir: impl AsRef<Path>) -> Result<RecoveryReport, WarehouseError> {
        let dir = dir.as_ref();
        let bytes = fs::read(dir.join(MANIFEST_FILE))?;
        let (meta, entries) = decode_manifest(&bytes)?;
        let mut report = RecoveryReport {
            epoch: meta.epoch,
            watermark: meta.watermark,
            ..RecoveryReport::default()
        };
        for entry in entries {
            let Some(table) = self.tables.get_mut(&entry.name) else {
                continue;
            };
            table.make_cold()?;
            let verification = table.verify_pages()?;
            report.pages_scanned += verification.scanned as u64;
            for p in verification.corrupt {
                report.pages_corrupt.push((entry.name.clone(), p));
            }
            for sma_entry in &entry.smas {
                let (sma, rebuilt) = recover_sma(dir, &entry.name, sma_entry, table, &mut report)?;
                if rebuilt {
                    self.catalog.install(&entry.name, sma);
                }
            }
            report.buckets_quarantined += self
                .catalog
                .set_for(&entry.name)
                .map(|s| s.quarantined_buckets().len() as u64)
                .unwrap_or(0);
            report.tables += 1;
        }
        Ok(report)
    }
}

/// File naming the tables and SMAs of a saved warehouse directory; written
/// last and atomically, it is the commit point of [`Warehouse::save_to_dir`].
pub const MANIFEST_FILE: &str = "catalog.smac";

const MANIFEST_MAGIC: &[u8; 4] = b"SMAC";

/// High bit of the manifest's table count: set by v3 writers to signal
/// that each table entry carries a per-table layout byte after
/// `bucket_pages`. Writers always store 0, the row layout; readers refuse
/// 1, the retired columnar layout.
const MANIFEST_V3_FLAG: u32 = 0x8000_0000;

/// The commit point a manifest records for the streaming ingest path:
/// which flush generation the sealed files belong to and the highest WAL
/// sequence number folded into them. Bulk-loaded warehouses carry the
/// default (epoch 0, watermark 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitMeta {
    /// Flush generation of the sealed segment files.
    pub epoch: u64,
    /// Highest WAL sequence number applied to the sealed state — replay
    /// skips records at or below it.
    pub watermark: u64,
    /// Epoch stamped into the WAL header at its last truncation. Replay
    /// filters on *this* value, not `epoch`: compactions advance the
    /// catalog epoch without touching the log, and records appended in
    /// between must still be accepted after a crash.
    pub wal_epoch: u64,
}

/// One committed segment file of a table: pages `[start, start + pages)`
/// of the logical table, stored renumbered from zero in `file`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentMeta {
    /// Segment file name within the warehouse directory.
    pub(crate) file: String,
    /// First logical table page the segment covers.
    pub(crate) start: PageNo,
    /// Number of pages in the segment.
    pub(crate) pages: PageNo,
}

/// Per-table committed segment lists, in commit order (later segments
/// shadow earlier ones on overlap).
pub(crate) type SegmentLists = BTreeMap<String, Vec<SegmentMeta>>;

/// Which pages of each table [`Warehouse::write_generation`] exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Export {
    /// Every page from page 0, one segment per table (an empty table gets
    /// a zero-page one): the initial seal, `save_to_dir` and compaction.
    Whole,
    /// The pages written since the last committed generation, as a delta
    /// on top of the table's committed list; an untouched table writes no
    /// file. A flush.
    Delta,
}

/// Buffer-pool pages for tables reopened from disk (matches
/// `Table::in_memory`'s generous default).
const POOL_CAPACITY: usize = 1 << 16;

/// What [`Warehouse::open_with_recovery`] and [`Warehouse::scrub`] found
/// and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Tables examined.
    pub tables: usize,
    /// Table pages read and checksum-verified.
    pub pages_scanned: u64,
    /// `(table, page)` pairs whose checksum or structure failed. Base
    /// pages hold primary data and cannot be rebuilt; reads of these pages
    /// keep failing loudly rather than returning wrong tuples.
    pub pages_corrupt: Vec<(String, PageNo)>,
    /// SMA files that loaded and verified clean.
    pub smas_intact: usize,
    /// `table.sma` names that failed verification and were rebuilt from
    /// their base table.
    pub smas_rebuilt: Vec<String>,
    /// Buckets still quarantined in the live catalog after the pass —
    /// entries queries refuse to trust until [`Warehouse::heal`] runs.
    /// A freshly recovered warehouse always reports zero (rebuilt SMAs
    /// carry no quarantine).
    pub buckets_quarantined: u64,
    /// Flush generation the committed manifest named (0 for bulk loads).
    pub epoch: u64,
    /// Highest WAL sequence number the sealed state covers.
    pub watermark: u64,
}

impl RecoveryReport {
    /// True when nothing was corrupt, nothing had to be rebuilt, and no
    /// bucket remains quarantined.
    pub fn is_clean(&self) -> bool {
        self.pages_corrupt.is_empty()
            && self.smas_rebuilt.is_empty()
            && self.buckets_quarantined == 0
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} table(s), {} page(s) scanned ({} corrupt), {} sma(s) intact, {} rebuilt",
            self.tables,
            self.pages_scanned,
            self.pages_corrupt.len(),
            self.smas_intact,
            self.smas_rebuilt.len()
        )?;
        if !self.smas_rebuilt.is_empty() {
            write!(f, " [{}]", self.smas_rebuilt.join(", "))?;
        }
        if self.buckets_quarantined > 0 {
            write!(
                f,
                ", {} bucket(s) still quarantined",
                self.buckets_quarantined
            )?;
        }
        Ok(())
    }
}

struct ManifestSma {
    file: String,
    def: SmaDefinition,
}

struct ManifestTable {
    name: String,
    segments: Vec<SegmentMeta>,
    bucket_pages: u32,
    columns: Vec<Column>,
    smas: Vec<ManifestSma>,
}

/// Moves a failed SMA file aside as `<file>.quarantined` so the corrupt
/// evidence survives the rebuild (a missing file is fine — nothing to keep).
fn quarantine(path: &Path) -> Result<(), WarehouseError> {
    let mut to = path.as_os_str().to_owned();
    to.push(".quarantined");
    match fs::rename(path, Path::new(&to)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// SMA recovery for reopen and scrub: loads the image if it verifies clean,
/// matches the manifest definition and covers the table's current bucket
/// count; otherwise (corrupt, truncated, missing or stale) quarantines it
/// and rebuilds it from the base table, persisting the rebuilt image back
/// to `dir`. Hard I/O errors propagate. Returns the SMA and whether it was
/// rebuilt.
fn recover_sma(
    dir: &Path,
    table_name: &str,
    entry: &ManifestSma,
    table: &Table,
    report: &mut RecoveryReport,
) -> Result<(Sma, bool), WarehouseError> {
    let path = dir.join(&entry.file);
    let intact = match load_sma_file(&path) {
        Ok(sma) => {
            (sma.def() == &entry.def && sma.n_buckets() == table.bucket_count()).then_some(sma)
        }
        Err(SmaError::Corrupt(_)) => None,
        Err(SmaError::Store(StoreError::Io(e))) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e.into()),
    };
    if let Some(sma) = intact {
        report.smas_intact += 1;
        return Ok((sma, false));
    }
    quarantine(&path)?;
    let rebuilt = Sma::build(table, entry.def.clone())?;
    save_sma_file(&rebuilt, &path)?;
    report
        .smas_rebuilt
        .push(format!("{table_name}.{}", entry.def.name));
    Ok((rebuilt, true))
}

// ------------------------------------------------------- manifest codec

fn put_u32(out: &mut Vec<u8>, v: u32) {
    sma_types::bytes::put_u32_le(out, v);
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    sma_types::bytes::put_u64_le(out, v);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WarehouseError> {
        if self.pos + n > self.buf.len() {
            return Err(WarehouseError::CorruptManifest(format!(
                "truncated at offset {} (wanted {n} bytes)",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WarehouseError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WarehouseError> {
        let s = self.take(4)?;
        sma_types::bytes::get_u32_le(s, 0)
            .ok_or_else(|| WarehouseError::CorruptManifest("short u32".into()))
    }

    fn u64(&mut self) -> Result<u64, WarehouseError> {
        let s = self.take(8)?;
        sma_types::bytes::get_u64_le(s, 0)
            .ok_or_else(|| WarehouseError::CorruptManifest("short u64".into()))
    }

    fn string(&mut self) -> Result<String, WarehouseError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|e| WarehouseError::CorruptManifest(format!("invalid utf-8: {e}")))
    }
}

fn decode_manifest(bytes: &[u8]) -> Result<(CommitMeta, Vec<ManifestTable>), WarehouseError> {
    if bytes.len() < 12 || &bytes[..4] != MANIFEST_MAGIC {
        return Err(WarehouseError::CorruptManifest("bad magic".into()));
    }
    let header_short = || WarehouseError::CorruptManifest("truncated header".into());
    let payload_len = sma_types::bytes::get_u32_le(bytes, 4).ok_or_else(header_short)? as usize;
    let want = sma_types::bytes::get_u32_le(bytes, 8).ok_or_else(header_short)?;
    let Some(payload) = bytes[12..].get(..payload_len) else {
        return Err(WarehouseError::CorruptManifest(format!(
            "truncated: header claims {payload_len} payload bytes, {} present",
            bytes.len() - 12
        )));
    };
    let got = crc32(payload);
    if got != want {
        return Err(WarehouseError::CorruptManifest(format!(
            "checksum mismatch: stored {want:#010x}, computed {got:#010x}"
        )));
    }
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let meta = CommitMeta {
        epoch: c.u64()?,
        watermark: c.u64()?,
        wal_epoch: c.u64()?,
    };
    let raw_tables = c.u32()?;
    let v3 = raw_tables & MANIFEST_V3_FLAG != 0;
    let n_tables = (raw_tables & !MANIFEST_V3_FLAG) as usize;
    let mut tables = Vec::with_capacity(n_tables.min(1024));
    for _ in 0..n_tables {
        let name = c.string()?;
        let n_segments = c.u32()? as usize;
        let mut segments = Vec::with_capacity(n_segments.min(1024));
        for _ in 0..n_segments {
            let file = c.string()?;
            let start = c.u32()?;
            let pages = c.u32()?;
            segments.push(SegmentMeta { file, start, pages });
        }
        let bucket_pages = c.u32()?;
        if bucket_pages == 0 {
            return Err(WarehouseError::CorruptManifest(format!(
                "table {name:?} has zero bucket_pages"
            )));
        }
        if v3 {
            match c.u8()? {
                0 => {}
                1 => return Err(WarehouseError::UnsupportedLayout(name)),
                tag => {
                    return Err(WarehouseError::CorruptManifest(format!(
                        "table {name:?} has unknown layout tag {tag}"
                    )))
                }
            }
        }
        let n_cols = c.u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols.min(1024));
        for _ in 0..n_cols {
            let col_name = c.string()?;
            let tag = c.u8()?;
            let ty = DataType::from_tag(tag).ok_or_else(|| {
                WarehouseError::CorruptManifest(format!("unknown data type tag {tag}"))
            })?;
            columns.push(Column::new(col_name, ty));
        }
        let n_smas = c.u32()? as usize;
        let mut smas = Vec::with_capacity(n_smas.min(1024));
        for _ in 0..n_smas {
            let _sma_name = c.string()?;
            let file = c.string()?;
            let def_len = c.u32()? as usize;
            let def = decode_definition(c.take(def_len)?)
                .map_err(|e| WarehouseError::CorruptManifest(format!("bad sma definition: {e}")))?;
            smas.push(ManifestSma { file, def });
        }
        tables.push(ManifestTable {
            name,
            segments,
            bucket_pages,
            columns,
            smas,
        });
    }
    if c.pos != payload.len() {
        return Err(WarehouseError::CorruptManifest(format!(
            "{} trailing bytes",
            payload.len() - c.pos
        )));
    }
    Ok((meta, tables))
}

/// The commit point of a save: atomically replaces [`MANIFEST_FILE`] with
/// `stream` (as returned by [`Warehouse::write_generation`]) and fsyncs
/// the directory.
/// Until this returns, the previously committed generation is still the
/// one recovery will load.
pub(crate) fn commit_manifest(dir: &Path, stream: &[u8]) -> Result<(), WarehouseError> {
    atomic_write_file(dir.join(MANIFEST_FILE), stream)?;
    sync_dir(dir)?;
    Ok(())
}

/// Every file name the committed manifest in `dir` references — the set
/// the ingest layer's orphan cleanup must preserve.
pub(crate) fn manifest_files(dir: &Path) -> Result<Vec<String>, WarehouseError> {
    let bytes = fs::read(dir.join(MANIFEST_FILE))?;
    let (_, entries) = decode_manifest(&bytes)?;
    let mut files = Vec::new();
    for entry in entries {
        for seg in entry.segments {
            files.push(seg.file);
        }
        for sma in entry.smas {
            files.push(sma.file);
        }
    }
    Ok(files)
}

/// Extracts the `from <relation>` identifier from a `define sma`
/// statement without needing the schema (which depends on the relation).
fn relation_of(statement: &str) -> Option<String> {
    let mut words = statement.split_whitespace();
    while let Some(w) = words.next() {
        if w.eq_ignore_ascii_case("from") {
            let rel = words.next()?;
            return Some(
                rel.trim_matches(|c: char| !c.is_alphanumeric() && c != '_')
                    .to_string(),
            );
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_core::{col, BucketPred, CmpOp};
    use sma_exec::AggSpec;
    use sma_types::{Column, DataType, Schema, Value};
    use std::sync::Arc;

    fn sales_table() -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("DAY", DataType::Int),
            Column::new("REGION", DataType::Char),
            Column::new("UNITS", DataType::Int),
            Column::new("PAD", DataType::Str),
        ]));
        let mut t = Table::in_memory("SALES", schema, 1);
        let pad = "p".repeat(1700);
        for day in 0..60i64 {
            t.append(&vec![
                Value::Int(day),
                Value::Char(b'N' + (day % 2) as u8),
                Value::Int(day * 3),
                Value::Str(pad.clone()),
            ])
            .unwrap();
        }
        t
    }

    fn sum_query(cutoff: i64) -> AggregateQuery {
        AggregateQuery {
            pred: BucketPred::cmp(0, CmpOp::Le, cutoff),
            group_by: vec![1],
            specs: vec![AggSpec::CountStar, AggSpec::Sum(col(2))],
        }
    }

    fn loaded_warehouse() -> Warehouse {
        let mut w = Warehouse::new();
        w.register(sales_table()).unwrap();
        w.define_sma("define sma min_day select min(DAY) from SALES")
            .unwrap();
        w.define_sma("define sma max_day select max(DAY) from SALES")
            .unwrap();
        w.define_sma("define sma cnt select count(*) from SALES group by REGION")
            .unwrap();
        w.define_sma("define sma units select sum(UNITS) from SALES group by REGION")
            .unwrap();
        w
    }

    #[test]
    fn end_to_end_query_uses_smas() {
        let w = loaded_warehouse();
        let with = w.query("SALES", sum_query(9)).unwrap();
        assert_eq!(with.plan_kind, PlanKind::SmaGAggr);
        // Naive warehouse (no SMAs) agrees.
        let mut naive = Warehouse::new();
        naive.register(sales_table()).unwrap();
        let without = naive.query("SALES", sum_query(9)).unwrap();
        assert_eq!(without.plan_kind, PlanKind::FullScan);
        assert_eq!(with.rows, without.rows);
        assert!(w
            .explain("SALES", sum_query(9))
            .unwrap()
            .contains("SmaGAggr"));
    }

    #[test]
    fn inserts_and_deletes_route_maintenance() {
        let mut w = loaded_warehouse();
        let before = w.query("SALES", sum_query(1000)).unwrap();
        let tid = w
            .insert(
                "SALES",
                &vec![
                    Value::Int(100),
                    Value::Char(b'N'),
                    Value::Int(999),
                    Value::Str("p".repeat(1700)),
                ],
            )
            .unwrap();
        let mid = w.query("SALES", sum_query(1000)).unwrap();
        assert_ne!(before.rows, mid.rows, "insert visible through SMA plan");
        w.delete("SALES", tid).unwrap();
        let refreshed = w.refresh_smas("SALES").unwrap();
        assert!(refreshed >= 1, "delete left a stale bucket");
        let after = w.query("SALES", sum_query(1000)).unwrap();
        assert_eq!(before.rows, after.rows);
    }

    #[test]
    fn errors_are_specific() {
        let mut w = Warehouse::new();
        w.register(sales_table()).unwrap();
        assert!(matches!(
            w.register(sales_table()),
            Err(WarehouseError::DuplicateTable(_))
        ));
        assert!(matches!(
            w.query("NOPE", sum_query(1)),
            Err(WarehouseError::UnknownTable(_))
        ));
        assert!(matches!(
            w.define_sma("define sma x select min(DAY) from NOPE"),
            Err(WarehouseError::UnknownTable(_))
        ));
        assert!(matches!(
            w.define_sma("not sql at all"),
            Err(WarehouseError::UnknownTable(_))
        ));
        assert!(matches!(
            w.delete("SALES", TupleId { page: 999, slot: 0 }),
            Err(WarehouseError::Table(_))
        ));
    }

    #[test]
    fn relation_extraction() {
        assert_eq!(
            relation_of("define sma x select min(A) from LINEITEM group by B"),
            Some("LINEITEM".into())
        );
        assert_eq!(
            relation_of("define sma x select min(A) FROM orders"),
            Some("orders".into())
        );
        assert_eq!(relation_of("no from-clause here"), None);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = sma_storage::test_util::scratch_path(tag);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_and_reopen_roundtrip() {
        let w = loaded_warehouse();
        let expected = w.query("SALES", sum_query(1000)).unwrap();
        let dir = scratch_dir("wh-roundtrip");
        w.save_to_dir(&dir).unwrap();

        let (reopened, report) = Warehouse::open_with_recovery(&dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.tables, 1);
        assert_eq!(report.smas_intact, 4);
        assert!(report.pages_scanned > 0);
        let table = reopened.table("SALES").unwrap();
        assert_eq!(table.live_tuples(), 60, "live count restored from pages");
        let got = reopened.query("SALES", sum_query(1000)).unwrap();
        assert_eq!(got.rows, expected.rows);
        // SMA plans still engage after the restart.
        assert_eq!(
            reopened.query("SALES", sum_query(9)).unwrap().plan_kind,
            PlanKind::SmaGAggr
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_rebuilds_corrupt_sma() {
        let w = loaded_warehouse();
        let expected = w.query("SALES", sum_query(1000)).unwrap();
        let dir = scratch_dir("wh-rebuild");
        w.save_to_dir(&dir).unwrap();
        // Flip a payload bit in one SMA file.
        let victim = dir.join("SALES.units.sma");
        sma_storage::test_util::flip_bit_in_file(&victim, 30, 2).unwrap();

        let (reopened, report) = Warehouse::open_with_recovery(&dir).unwrap();
        assert_eq!(report.smas_rebuilt, vec!["SALES.units".to_string()]);
        assert_eq!(report.smas_intact, 3);
        assert!(report.pages_corrupt.is_empty());
        assert!(dir.join("SALES.units.sma.quarantined").exists());
        assert!(victim.exists(), "rebuilt image re-saved");
        let got = reopened.query("SALES", sum_query(1000)).unwrap();
        assert_eq!(got.rows, expected.rows);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_rebuilds_missing_sma_and_scrub_is_clean_after() {
        let w = loaded_warehouse();
        let dir = scratch_dir("wh-missing");
        w.save_to_dir(&dir).unwrap();
        std::fs::remove_file(dir.join("SALES.cnt.sma")).unwrap();
        let (mut reopened, report) = Warehouse::open_with_recovery(&dir).unwrap();
        assert_eq!(report.smas_rebuilt, vec!["SALES.cnt".to_string()]);
        let report2 = reopened.scrub(&dir).unwrap();
        assert!(report2.is_clean(), "{report2}");
        assert_eq!(report2.smas_intact, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_degrades_queries_until_heal() {
        let mut w = loaded_warehouse();
        let healthy = w.query("SALES", sum_query(9)).unwrap();
        assert_eq!(healthy.plan_kind, PlanKind::SmaGAggr);
        assert!(healthy.degradation.is_empty());

        w.quarantine_sma_buckets("SALES", &[0, 2]).unwrap();
        assert_eq!(w.quarantined_sma_buckets("SALES"), vec![0, 2]);
        let degraded = w.query("SALES", sum_query(9)).unwrap();
        assert_eq!(degraded.rows, healthy.rows, "degraded answer stays exact");
        assert_eq!(degraded.degradation.quarantined_buckets, vec![0, 2]);

        let healed = w.heal("SALES").unwrap();
        assert_eq!(healed, 2);
        assert!(w.quarantined_sma_buckets("SALES").is_empty());
        let after = w.query("SALES", sum_query(9)).unwrap();
        assert_eq!(after.rows, healthy.rows);
        assert!(after.degradation.is_empty(), "{}", after.degradation);
        assert_eq!(w.heal("SALES").unwrap(), 0, "healing is idempotent");
    }

    #[test]
    fn quarantined_smas_are_never_persisted_and_rebuild_on_reopen() {
        let mut w = loaded_warehouse();
        let expected = w.query("SALES", sum_query(1000)).unwrap();
        let dir = scratch_dir("wh-quarantine-save");
        // A first healthy save leaves images on disk; the quarantined
        // re-save must remove them rather than persist garbage.
        w.save_to_dir(&dir).unwrap();
        w.quarantine_sma_buckets("SALES", &[1]).unwrap();
        w.save_to_dir(&dir).unwrap();
        for sma in ["min_day", "max_day", "cnt", "units"] {
            assert!(
                !dir.join(format!("SALES.{sma}.sma")).exists(),
                "{sma} image should have been dropped"
            );
        }
        let (reopened, report) = Warehouse::open_with_recovery(&dir).unwrap();
        assert_eq!(report.smas_rebuilt.len(), 4, "{report}");
        assert_eq!(report.buckets_quarantined, 0);
        let got = reopened.query("SALES", sum_query(1000)).unwrap();
        assert_eq!(got.rows, expected.rows);
        assert!(got.degradation.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_counts_remaining_quarantine_and_heal_clears_it() {
        let mut w = loaded_warehouse();
        let dir = scratch_dir("wh-quarantine-scrub");
        w.save_to_dir(&dir).unwrap();
        w.quarantine_sma_buckets("SALES", &[3]).unwrap();
        let report = w.scrub(&dir).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.buckets_quarantined, 1);
        assert!(report.to_string().contains("still quarantined"));
        w.heal("SALES").unwrap();
        let report = w.scrub(&dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.buckets_quarantined, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_fatal() {
        let w = loaded_warehouse();
        let dir = scratch_dir("wh-manifest");
        w.save_to_dir(&dir).unwrap();
        sma_storage::test_util::flip_bit_in_file(&dir.join(MANIFEST_FILE), 20, 0).unwrap();
        assert!(matches!(
            Warehouse::open_with_recovery(&dir),
            Err(WarehouseError::CorruptManifest(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The v3 layout byte is always written 0. A 1 (the retired columnar
    /// layout) is refused by name, any other value is corruption, and a
    /// v2 manifest (no layout byte) still opens.
    #[test]
    fn manifest_layout_byte_refuses_the_columnar_layout() {
        let w = loaded_warehouse();
        let expected = w.query("SALES", sum_query(1000)).unwrap();
        let dir = scratch_dir("wh-layout");
        w.save_to_dir(&dir).unwrap();
        let saved = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        // Walk the payload to the first table's layout byte: commit meta,
        // table count, name, segment list, bucket_pages.
        let payload = saved[12..].to_vec();
        let u32_at = |at: usize| sma_types::bytes::get_u32_le(&payload, at).unwrap() as usize;
        let mut at = 28;
        at += 4 + u32_at(at);
        let segments = u32_at(at);
        at += 4;
        for _ in 0..segments {
            at += 4 + u32_at(at) + 8;
        }
        at += 4;
        assert_eq!(payload[at], 0, "writers store the row layout");
        let write_payload = |payload: &[u8]| {
            let mut stream = MANIFEST_MAGIC.to_vec();
            put_u32(&mut stream, payload.len() as u32);
            put_u32(&mut stream, crc32(payload));
            stream.extend_from_slice(payload);
            std::fs::write(dir.join(MANIFEST_FILE), stream).unwrap();
        };

        let mut columnar = payload.clone();
        columnar[at] = 1;
        write_payload(&columnar);
        let Err(err) = Warehouse::open_with_recovery(&dir) else {
            panic!("a columnar layout byte must be refused");
        };
        assert!(
            matches!(&err, WarehouseError::UnsupportedLayout(t) if t == "SALES"),
            "{err}"
        );
        assert!(err
            .to_string()
            .contains("columnar layout, which is no longer read"));

        let mut unknown = payload.clone();
        unknown[at] = 2;
        write_payload(&unknown);
        assert!(matches!(
            Warehouse::open_with_recovery(&dir),
            Err(WarehouseError::CorruptManifest(_))
        ));

        let mut v2 = payload.clone();
        v2.remove(at);
        v2[24..28].copy_from_slice(&1u32.to_le_bytes());
        write_payload(&v2);
        let (reopened, report) = Warehouse::open_with_recovery(&dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(
            reopened.query("SALES", sum_query(1000)).unwrap().rows,
            expected.rows
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_table_page_is_reported_not_hidden() {
        let w = loaded_warehouse();
        let dir = scratch_dir("wh-page");
        w.save_to_dir(&dir).unwrap();
        // Flip a bit in the middle of the first table page's payload.
        sma_storage::test_util::flip_bit_in_file(&dir.join("SALES.tbl"), 1000, 5).unwrap();
        let (reopened, report) = Warehouse::open_with_recovery(&dir).unwrap();
        assert_eq!(report.pages_corrupt, vec![("SALES".to_string(), 0)]);
        // The damaged page keeps failing loudly on direct access — the
        // checksum turns silent wrong answers into explicit errors. (SMA
        // plans that never touch the page still work: that redundancy is
        // the paper's point.)
        assert!(reopened.table("SALES").unwrap().scan().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn case_insensitive_relation_lookup() {
        let mut w = Warehouse::new();
        w.register(sales_table()).unwrap();
        // Statement says "sales", table is "SALES".
        assert!(w
            .define_sma("define sma m select min(DAY) from sales")
            .is_ok());
    }
}
