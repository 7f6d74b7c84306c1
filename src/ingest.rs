//! Durable streaming ingest: WAL + memtable + crash-recoverable flush.
//!
//! [`StreamingWarehouse`] wraps a [`Warehouse`] with an arrival path that
//! survives crashes at any byte:
//!
//! 1. **Log** — [`StreamingWarehouse::insert_batch`] is the one write
//!    path: every row of a batch is framed into the write-ahead log
//!    ([`sma_storage::Wal`]) and the log is fsynced once for the whole
//!    batch. `insert` is a one-row batch. A batch is all or nothing: `Ok`
//!    means every row is durable and visible, `Err` means none is, now or
//!    after a restart.
//! 2. **Buffer** — acknowledged tuples live in a [`Memtable`] and are
//!    visible to queries immediately: plans run over the sealed segments
//!    and merge the memtable as an overlay, producing byte-identical
//!    results to a bulk-loaded equivalent.
//! 3. **Flush** — when the memtable reaches its threshold (or on demand)
//!    the buffered tuples are folded into the sealed tables through the
//!    ordinary insert path, so SMAs are maintained online and the physical
//!    bucket layout matches a bulk load. The flush exports only the pages
//!    written since the previous flush into a fresh `.e{epoch}` *delta
//!    segment* per touched table (plus that generation's SMA images),
//!    commits by atomically replacing the manifest — whose per-table
//!    segment lists a reopen reassembles through
//!    [`sma_storage::SegmentedStore`] — and only then truncates the WAL.
//! 4. **Compaction** — delta segments accumulate until a
//!    [`CompactionPolicy`] threshold triggers a
//!    [`compact`](StreamingWarehouse::compact): a full rewrite that merges
//!    every table back to a single segment (see [`crate::compact`]).
//!
//! The flush protocol's commit point is the manifest rename. Every earlier
//! step only adds files the old manifest does not reference; every later
//! step only removes files the new manifest does not reference. A crash at
//! any stage therefore recovers to exactly one committed generation plus
//! the WAL suffix past its watermark — no acknowledged tuple is lost, none
//! is applied twice. [`StreamingWarehouse::flush_until`] exposes each stage
//! so the crash tests can stop the protocol at every seam, and a
//! `pending` checkpoint remembers post-commit stages that still owe
//! cleanup, so an error after the commit point is finished by the next
//! flush instead of leaking debris until restart.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::compact::CompactionPolicy;
use crate::warehouse::{
    commit_manifest, manifest_files, Export, QueryResult, RecoveryReport, Warehouse, WarehouseError,
};
use sma_exec::{AggregateQuery, PlannerConfig};
use sma_storage::{
    make_wal_record, FileStore, Memtable, PageStore, QueryBudget, StoreError, Table, Wal,
};
use sma_types::{CodecError, Tuple};

/// File name of the ingest write-ahead log inside the warehouse directory.
pub const WAL_FILE: &str = "ingest.swal";

/// Errors from the streaming-ingest layer.
#[derive(Debug)]
pub enum IngestError {
    /// The sealed warehouse (tables, SMAs, manifest) failed.
    Warehouse(WarehouseError),
    /// The write-ahead log failed.
    Wal(StoreError),
    /// A tuple did not fit its relation's schema.
    Encode(CodecError),
    /// A filesystem operation on the warehouse directory failed.
    Io(io::Error),
    /// An insert or replayed WAL record named a relation the warehouse
    /// does not have.
    UnknownRelation(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Warehouse(e) => write!(f, "{e}"),
            IngestError::Wal(e) => write!(f, "wal: {e}"),
            IngestError::Encode(e) => write!(f, "{e}"),
            IngestError::Io(e) => write!(f, "ingest i/o failed: {e}"),
            IngestError::UnknownRelation(n) => write!(f, "unknown relation {n:?}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Warehouse(e) => Some(e),
            IngestError::Wal(e) => Some(e),
            IngestError::Encode(e) => Some(e),
            IngestError::Io(e) => Some(e),
            IngestError::UnknownRelation(_) => None,
        }
    }
}

impl From<WarehouseError> for IngestError {
    fn from(e: WarehouseError) -> IngestError {
        IngestError::Warehouse(e)
    }
}

impl From<StoreError> for IngestError {
    fn from(e: StoreError) -> IngestError {
        IngestError::Wal(e)
    }
}

impl From<CodecError> for IngestError {
    fn from(e: CodecError) -> IngestError {
        IngestError::Encode(e)
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> IngestError {
        IngestError::Io(e)
    }
}

/// The stages of the flush protocol, in order. [`StreamingWarehouse::flush_until`]
/// runs the protocol up to and including the named stage and then returns,
/// which lets crash tests simulate dying at every seam: drop the
/// [`StreamingWarehouse`] and reopen the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlushStage {
    /// Memtable drained into the in-memory sealed tables (online SMA
    /// maintenance done). Nothing on disk has changed.
    Applied,
    /// New-generation `.tbl`/`.sma` segment files written and fsynced.
    /// The manifest still names the old generation.
    SegmentsWritten,
    /// Manifest atomically replaced — **the commit point**. The old
    /// generation's files and the WAL are still on disk.
    Committed,
    /// Files the new manifest does not reference have been deleted.
    Cleaned,
    /// WAL truncated to the new epoch. A full [`StreamingWarehouse::flush`].
    Complete,
}

/// What [`StreamingWarehouse::open_with_recovery`] found and did.
#[derive(Debug, Default)]
pub struct IngestRecoveryReport {
    /// The sealed warehouse's own recovery report (scrubbed pages,
    /// quarantined/rebuilt SMAs, committed epoch and watermark).
    pub warehouse: RecoveryReport,
    /// WAL records re-buffered into the memtable (acknowledged before the
    /// crash, not yet folded into the sealed generation).
    pub replayed: usize,
    /// WAL records discarded because the committed watermark already
    /// covers them — the idempotence guard after a crash between manifest
    /// commit and WAL truncation.
    pub skipped: usize,
    /// The WAL ended in a torn frame (a record cut mid-write). The torn
    /// record was never acknowledged, so nothing durable is lost.
    pub torn_tail: bool,
    /// The WAL header was missing or corrupt and the log was
    /// reinitialized empty at the committed epoch.
    pub wal_reset: bool,
    /// The WAL's epoch lagged the manifest's (crash after commit, before
    /// truncation); the log was truncated forward to realign.
    pub wal_realigned: bool,
    /// Files deleted because no committed manifest referenced them —
    /// segments of a half-flushed generation, stale segments of a
    /// superseded one, or abandoned `.tmp` files.
    pub orphans_removed: Vec<String>,
}

impl IngestRecoveryReport {
    /// True when recovery found a pristine shutdown: nothing scrubbed,
    /// nothing torn, nothing to clean up.
    pub fn is_clean(&self) -> bool {
        self.warehouse.is_clean()
            && !self.torn_tail
            && !self.wal_reset
            && !self.wal_realigned
            && self.orphans_removed.is_empty()
    }
}

/// A [`Warehouse`] with a durable streaming-ingest front end.
///
/// ```
/// use smadb::ingest::StreamingWarehouse;
/// use smadb::Warehouse;
/// use smadb::storage::Table;
/// use smadb::types::{Column, DataType, Schema, Value};
/// use smadb::sma::{BucketPred, CmpOp};
/// use smadb::exec::{AggSpec, AggregateQuery};
/// use std::sync::Arc;
///
/// let dir = std::env::temp_dir().join(format!("smadb-doc-{}", std::process::id()));
/// let schema = Arc::new(Schema::new(vec![Column::new("X", DataType::Int)]));
/// let mut w = Warehouse::new();
/// w.register(Table::in_memory("S", schema, 1)).unwrap();
/// let mut s = StreamingWarehouse::create(&dir, w, 0).unwrap();
///
/// for x in 0..10 { s.insert("S", &vec![Value::Int(x)]).unwrap(); }
/// let q = AggregateQuery { pred: BucketPred::cmp(0, CmpOp::Ge, 0i64), group_by: vec![], specs: vec![AggSpec::CountStar] };
/// assert_eq!(s.query("S", q).unwrap().rows[0][0], Value::Int(10));
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct StreamingWarehouse<S: PageStore = FileStore> {
    pub(crate) warehouse: Warehouse,
    pub(crate) dir: PathBuf,
    wal: Wal<S>,
    memtable: Memtable,
    next_seq: u64,
    flush_threshold: usize,
    /// Error from a threshold-triggered flush inside `insert`. The insert
    /// itself succeeded (its row is durable and acknowledged), so the
    /// flush failure is surfaced here instead of on the insert's result.
    pending_flush_error: Option<IngestError>,
    /// Checkpoint of an unfinished flush protocol run: the last stage
    /// that completed before an early return or an error. The next flush
    /// resumes from here even when the memtable is empty — without it, an
    /// error after the commit point would strand old-generation debris
    /// and a stale WAL epoch until restart.
    pending: Option<FlushStage>,
    /// When background compaction fires (see [`crate::compact`]).
    pub(crate) compaction: CompactionPolicy,
    /// Whether flush and compaction convert sealed buckets to the
    /// columnar (PAX) layout before exporting them. Off by default: row
    /// layout everywhere, byte-identical to previous releases. Turning it
    /// on never changes query results — only the physical layout of
    /// sealed buckets (see `Table::convert_bucket_to_columnar`).
    pub(crate) columnar: bool,
}

impl StreamingWarehouse {
    /// Seals `warehouse` into `dir` as the initial committed generation
    /// and opens a fresh WAL beside it.
    ///
    /// `flush_threshold` is the memtable size (in tuples) that triggers an
    /// automatic [`StreamingWarehouse::flush`] from
    /// [`StreamingWarehouse::insert`]; `0` disables automatic flushing.
    pub fn create(
        dir: impl AsRef<Path>,
        mut warehouse: Warehouse,
        flush_threshold: usize,
    ) -> Result<StreamingWarehouse, IngestError> {
        let dir = dir.as_ref().to_path_buf();
        seal_initial_generation(&mut warehouse, &dir)?;
        let store = FileStore::create(dir.join(WAL_FILE))?;
        StreamingWarehouse::with_wal_store(dir, warehouse, flush_threshold, store)
    }

    /// Reopens a streaming warehouse after a shutdown or crash.
    ///
    /// Recovery sequence:
    ///
    /// 1. load the committed generation through
    ///    [`Warehouse::open_with_recovery`] (page scrub, SMA
    ///    quarantine/rebuild);
    /// 2. delete every `.tbl`/`.sma` file the manifest does not reference
    ///    and every abandoned `.tmp` file — the debris of a generation
    ///    that never committed or one that was superseded;
    /// 3. replay the WAL, dropping a torn tail and anything at or below
    ///    the committed watermark (already folded in — the replay is
    ///    idempotent), re-buffering the survivors into the memtable;
    /// 4. realign the WAL's epoch with the manifest's if a crash landed
    ///    between commit and truncation.
    pub fn open_with_recovery(
        dir: impl AsRef<Path>,
        flush_threshold: usize,
    ) -> Result<(StreamingWarehouse, IngestRecoveryReport), IngestError> {
        let dir = dir.as_ref().to_path_buf();
        let (warehouse, wreport) = Warehouse::open_with_recovery(&dir)?;
        let mut report = IngestRecoveryReport {
            warehouse: wreport,
            ..Default::default()
        };
        report.orphans_removed = remove_unreferenced(&dir)?;

        let wal_path = dir.join(WAL_FILE);
        let wal_missing = !wal_path.exists();
        let (mut wal, replay) = if wal_missing {
            // The log vanished entirely. By protocol it only ever holds
            // unflushed acknowledged records, so this loses whatever was
            // buffered — report it as a reset rather than failing hard.
            let wal = Wal::create(FileStore::create(&wal_path)?, warehouse.wal_epoch())?;
            (wal, sma_storage::WalReplay::default())
        } else {
            Wal::open(FileStore::open(&wal_path)?, warehouse.wal_epoch())?
        };
        report.torn_tail = replay.torn_tail;
        report.wal_reset = replay.header_reset || wal_missing;

        let mut memtable = Memtable::new();
        let mut next_seq = warehouse.watermark() + 1;
        for rec in &replay.records {
            // Filter on the *WAL* epoch, not the catalog epoch: a
            // compaction advances the catalog epoch without truncating
            // the log, and records appended between the compaction and a
            // crash are acknowledged — dropping them would lose data.
            if rec.epoch != warehouse.wal_epoch() || rec.seq <= warehouse.watermark() {
                // Stale epoch or already folded into the sealed
                // generation: applying it again would duplicate the tuple.
                report.skipped += 1;
                continue;
            }
            let table = warehouse
                .table(&rec.relation)
                .ok_or_else(|| IngestError::UnknownRelation(rec.relation.clone()))?;
            let tuple = sma_types::row::decode(table.schema(), &rec.row)?;
            memtable.insert(&rec.relation, rec.seq, tuple);
            next_seq = rec.seq + 1;
            report.replayed += 1;
        }
        if wal.epoch() != warehouse.wal_epoch() {
            // Crash after manifest commit, before WAL truncation: finish
            // the interrupted protocol now.
            wal.truncate(warehouse.wal_epoch())?;
            report.wal_realigned = true;
        }

        Ok((
            StreamingWarehouse {
                warehouse,
                dir,
                wal,
                memtable,
                next_seq,
                flush_threshold,
                pending_flush_error: None,
                pending: None,
                compaction: CompactionPolicy::default(),
                columnar: false,
            },
            report,
        ))
    }
}

/// Seals `warehouse` into `dir` as the initial committed generation:
/// whole single-segment export, manifest commit, then the segment lists
/// are installed so later flushes can append deltas against them.
fn seal_initial_generation(warehouse: &mut Warehouse, dir: &Path) -> Result<(), IngestError> {
    let (stream, lists) = warehouse.write_generation(dir, "", Export::Whole)?;
    commit_manifest(dir, &stream)?;
    warehouse.install_segments(lists);
    Ok(())
}

impl<S: PageStore> StreamingWarehouse<S> {
    /// Like [`StreamingWarehouse::create`], but the WAL lives on a
    /// caller-supplied page store instead of a file beside the sealed
    /// segments — the seam the fault-injection tests use to put a seeded
    /// chaos store under the log. The sealed generation is still written
    /// to `dir`.
    pub fn create_with_wal_store(
        dir: impl AsRef<Path>,
        mut warehouse: Warehouse,
        flush_threshold: usize,
        store: S,
    ) -> Result<StreamingWarehouse<S>, IngestError> {
        let dir = dir.as_ref().to_path_buf();
        seal_initial_generation(&mut warehouse, &dir)?;
        StreamingWarehouse::with_wal_store(dir, warehouse, flush_threshold, store)
    }

    /// Wraps an already-sealed warehouse and a fresh WAL on `store`.
    fn with_wal_store(
        dir: PathBuf,
        warehouse: Warehouse,
        flush_threshold: usize,
        store: S,
    ) -> Result<StreamingWarehouse<S>, IngestError> {
        let wal = Wal::create(store, warehouse.wal_epoch())?;
        let next_seq = warehouse.watermark() + 1;
        Ok(StreamingWarehouse {
            warehouse,
            dir,
            wal,
            memtable: Memtable::new(),
            next_seq,
            flush_threshold,
            pending_flush_error: None,
            pending: None,
            compaction: CompactionPolicy::default(),
            columnar: false,
        })
    }

    /// Consumes the front end, returning the WAL's backing store — fault
    /// tests replay it to audit exactly what became durable.
    pub fn into_wal_store(self) -> S {
        self.wal.into_store()
    }

    /// Inserts one tuple and returns its WAL sequence number: a one-row
    /// [`StreamingWarehouse::insert_batch`]. `Ok` means the tuple is
    /// durable — WAL frame written *and* fsynced — and query-visible.
    pub fn insert(&mut self, relation: &str, tuple: &Tuple) -> Result<u64, IngestError> {
        self.insert_batch(relation, std::slice::from_ref(tuple))
            .map(|seqs| seqs.start)
    }

    /// Inserts `tuples` as one all-or-nothing batch and returns their WAL
    /// sequence numbers, in order.
    ///
    /// Every row is encoded against the schema first, so a row that does
    /// not fit fails the batch before anything is logged. The batch then
    /// appends one frame per row and fsyncs the log once; only then do
    /// the rows enter the memtable. `Ok` means every row is durable and
    /// query-visible. `Err` means none is, now or after a restart: the
    /// log discards every frame since its last good sync. An empty batch
    /// returns at once and does not sync.
    ///
    /// A threshold-triggered flush failing does **not** fail the batch:
    /// its rows are already durable and acknowledged at that point, and a
    /// caller retrying a "failed" batch would duplicate them. The flush
    /// error is deferred to [`StreamingWarehouse::take_flush_error`] and
    /// the flush itself retried by the next flush.
    pub fn insert_batch(
        &mut self,
        relation: &str,
        tuples: &[Tuple],
    ) -> Result<Range<u64>, IngestError> {
        let schema = self
            .warehouse
            .table(relation)
            .ok_or_else(|| IngestError::UnknownRelation(relation.to_string()))?
            .schema()
            .clone();
        let seqs = self.next_seq..self.next_seq + tuples.len() as u64;
        let records = tuples
            .iter()
            .zip(seqs.clone())
            .map(|(tuple, seq)| make_wal_record(self.wal.epoch(), seq, relation, &schema, tuple))
            .collect::<Result<Vec<_>, _>>()?;
        if records.is_empty() {
            return Ok(seqs);
        }
        // Burn the sequence numbers before touching the log. A discarded
        // frame can outlive its discard: behind shorter frames the next
        // batch writes over it, or on the device if the process dies
        // before the next good sync. Its burned seq is below every later
        // frame's, so replay stops there; a reused seq could replay it
        // as a row nobody acked, or end replay at a duplicate. Gaps are
        // harmless — replay only requires strictly increasing seqs.
        self.next_seq = seqs.end;
        for rec in &records {
            self.wal.append(rec)?;
        }
        self.wal.sync()?;
        for (tuple, seq) in tuples.iter().zip(seqs.clone()) {
            self.memtable.insert(relation, seq, tuple.clone());
        }
        if self.flush_threshold > 0 && self.memtable.len() >= self.flush_threshold {
            // The rows are durable and acknowledged; a flush failure here
            // must not be reported as an insert failure (the caller would
            // retry and double-insert). Stash it instead.
            if let Err(e) = self.flush() {
                self.pending_flush_error = Some(e);
            }
        }
        Ok(seqs)
    }

    /// Plans and runs an aggregate query over the union of the sealed
    /// segments and the live memtable. Results are byte-identical to the
    /// same query against a warehouse bulk-loaded with the same tuples.
    pub fn query(&self, relation: &str, query: AggregateQuery) -> Result<QueryResult, IngestError> {
        self.query_inner(relation, query, None)
    }

    /// [`StreamingWarehouse::query`] under a cooperative [`QueryBudget`]:
    /// deadline, page cap, and cancellation are enforced at every
    /// bucket/page boundary of the underlying plan, so a budget-capped
    /// heavy scan degrades into a structured error instead of starving
    /// concurrent queries.
    pub fn query_with_budget(
        &self,
        relation: &str,
        query: AggregateQuery,
        budget: &QueryBudget,
    ) -> Result<QueryResult, IngestError> {
        self.query_inner(relation, query, Some(budget))
    }

    fn query_inner(
        &self,
        relation: &str,
        query: AggregateQuery,
        budget: Option<&QueryBudget>,
    ) -> Result<QueryResult, IngestError> {
        let table = self
            .warehouse
            .table(relation)
            .ok_or_else(|| IngestError::UnknownRelation(relation.to_string()))?;
        // The memtable's rows fold in as one more bucket, borrowed; an
        // empty memtable folds nothing, so a fully-flushed relation runs
        // exactly as a bulk-loaded one.
        let mut chosen = sma_exec::plan(
            table,
            query,
            self.warehouse.catalog().set_for(relation),
            &PlannerConfig::default(),
        )
        .with_overlay(self.memtable.rows_for(relation));
        if let Some(b) = budget {
            chosen = chosen.with_budget(b);
        }
        let (rows, degradation) = chosen.execute_with_report().map_err(WarehouseError::from)?;
        Ok(QueryResult {
            rows,
            plan_kind: chosen.kind,
            degradation,
        })
    }

    /// Folds the memtable into the sealed tables and commits a new
    /// generation to disk, then lets the compaction policy merge segments
    /// if their count crossed its threshold. Equivalent to
    /// `flush_until(FlushStage::Complete)` + a possible
    /// [`StreamingWarehouse::compact`].
    pub fn flush(&mut self) -> Result<(), IngestError> {
        self.flush_until(FlushStage::Complete)?;
        self.maybe_compact()
    }

    /// Registers a new (empty) relation on the live warehouse and
    /// durably commits the catalog change: the flush writes a generation
    /// whose manifest names the new table, so an insert acknowledged
    /// after `register` returns survives a crash — WAL replay always
    /// finds the relation.
    pub fn register(&mut self, table: Table) -> Result<(), IngestError> {
        self.warehouse.register(table).map_err(IngestError::from)?;
        // The catalog changed even if no tuple did: mark a commit as
        // owed, or an empty-memtable flush would no-op and a crash
        // would forget the relation while the WAL still references it.
        self.pending = Some(FlushStage::Applied);
        self.flush()
    }

    /// Parses and installs a `define sma …` statement on the live
    /// warehouse, then durably commits the new catalog generation, so
    /// the SMA (like a freshly registered table) survives a crash.
    pub fn define_sma(&mut self, statement: &str) -> Result<(), IngestError> {
        self.warehouse.define_sma(statement)?;
        self.pending = Some(FlushStage::Applied);
        self.flush()
    }

    /// Shuts the warehouse down cleanly: runs a full flush and surfaces
    /// any deferred background-flush error. On success nothing is left
    /// for recovery to redo: no memtable, no unfinished flush checkpoint.
    ///
    /// # Drop semantics
    ///
    /// `StreamingWarehouse` deliberately has **no** `Drop` impl — drop
    /// never does I/O, so it cannot fail, block, or mask a panic.
    /// Dropping the handle without `close()` loses nothing that was
    /// acknowledged: every row of a successful `insert`/`insert_batch` is
    /// already durable in the WAL and is replayed by
    /// [`StreamingWarehouse::open_with_recovery`]. What a plain drop
    /// abandons is the memtable-to-segment flush work, which the next
    /// open simply redoes from the log; `close()` writes the segments now.
    pub fn close(mut self) -> Result<(), IngestError> {
        self.flush()?;
        if let Some(e) = self.take_flush_error() {
            return Err(e);
        }
        Ok(())
    }

    /// Runs the flush protocol up to and including `stage`, then stops.
    ///
    /// This is the crash-injection seam: the tests run every prefix of the
    /// protocol, drop the warehouse (the "crash"), and assert that
    /// [`StreamingWarehouse::open_with_recovery`] restores exactly the
    /// acknowledged state. Production code calls
    /// [`StreamingWarehouse::flush`], which runs to
    /// [`FlushStage::Complete`].
    ///
    /// Stopping early leaves a *consistent but unfinished* state: the
    /// in-memory warehouse has absorbed the tuples, the WAL still covers
    /// them, and the `pending` checkpoint makes the next flush (or
    /// recovery) complete the job — including the post-commit cleanup
    /// stages, which have no memtable rows left to announce themselves
    /// with. An `Err` from any stage leaves the same guarantee: nothing
    /// acknowledged can be lost, because the WAL is only truncated after
    /// the commit point.
    pub fn flush_until(&mut self, stage: FlushStage) -> Result<(), IngestError> {
        if self.memtable.is_empty() && self.pending.is_none() {
            return Ok(());
        }
        // Stage 1: fold buffered tuples into the sealed tables in arrival
        // order through the ordinary insert path, so bucket layout and SMA
        // maintenance are identical to a bulk load. The drain is
        // provisional: if an insert fails, the failed row and every row
        // after it go back into the memtable, so the watermark a later
        // flush publishes never covers a row that was silently dropped.
        if !self.memtable.is_empty() {
            let drained = self.memtable.drain();
            let mut failure: Option<IngestError> = None;
            for (relation, rows) in drained {
                for (seq, tuple) in rows {
                    if failure.is_none() {
                        match self.warehouse.insert(&relation, &tuple) {
                            Ok(_) => continue,
                            Err(e) => failure = Some(e.into()),
                        }
                    }
                    self.memtable.insert(&relation, seq, tuple);
                }
            }
            if let Some(e) = failure {
                return Err(e);
            }
            // New rows entered the sealed tables: whatever a previous run
            // had committed, this run owes a fresh commit.
            self.pending = Some(FlushStage::Applied);
        }
        if stage == FlushStage::Applied {
            return Ok(());
        }
        if let Some(mut done) = self.pending.filter(|&s| s < FlushStage::Cleaned) {
            // Stages 2–4. A catalog-only commit (DDL with an empty
            // memtable) must not regress the published watermark, so keep
            // at least the committed one.
            let watermark = self.memtable.max_seq().max(self.warehouse.watermark());
            let result = self.commit_generation(Some(watermark), &mut done, stage);
            self.pending = Some(done);
            result?;
        }
        if stage < FlushStage::Complete {
            return Ok(());
        }
        if self.pending == Some(FlushStage::Cleaned) {
            // Stage 5: everything at or below the watermark is sealed;
            // reset the log to the committed WAL epoch.
            self.wal.truncate(self.warehouse.wal_epoch())?;
            self.pending = None;
        }
        Ok(())
    }

    /// The commit sequence a flush (stages 2–4) and a compaction share,
    /// run from the seam after `*done` up to `stop`, recording each seam
    /// it reaches in `*done`:
    ///
    /// 1. convert to columnar, when that policy is on;
    /// 2. begin the generation — a flush passes its `watermark` and gets a
    ///    new WAL epoch, a compaction passes `None` and keeps it;
    /// 3. write the generation's segments (the pages written since the
    ///    last commit for a flush, every page for a compaction) and SMA
    ///    images — [`FlushStage::SegmentsWritten`];
    /// 4. commit the manifest and install its segment lists — the commit
    ///    point, [`FlushStage::Committed`];
    /// 5. remove the files it no longer names — [`FlushStage::Cleaned`].
    ///
    /// Committed files are never opened for writing. A crash before the
    /// commit is harmless: recovery reloads the committed generation and
    /// replays the WAL, and the next run converts and writes again.
    pub(crate) fn commit_generation(
        &mut self,
        watermark: Option<u64>,
        done: &mut FlushStage,
        stop: FlushStage,
    ) -> Result<(), IngestError> {
        if *done == FlushStage::Applied {
            let export = if watermark.is_some() {
                Export::Delta
            } else {
                Export::Whole
            };
            if self.columnar {
                // A delta converts only buckets above its first unsealed
                // page; the tail bucket, where appends land, stays
                // row-major (see `Table::convert_bucket_to_columnar`).
                for table in self.warehouse.tables_mut() {
                    let from = match export {
                        Export::Whole => 0,
                        Export::Delta => table.unsealed_from(),
                    };
                    table
                        .convert_buckets_from(from)
                        .map_err(WarehouseError::from)?;
                }
            }
            let epoch = self.warehouse.begin_generation(watermark);
            let (manifest, lists) =
                self.warehouse
                    .write_generation(&self.dir, &format!(".e{epoch}"), export)?;
            if stop == FlushStage::SegmentsWritten {
                return Ok(());
            }
            // Only after the commit point may the tables be sealed — seal
            // earlier and a failed commit would lose the dirty-range
            // information its retry still needs.
            commit_manifest(&self.dir, &manifest)?;
            self.warehouse.install_segments(lists);
            *done = FlushStage::Committed;
        }
        if stop > FlushStage::Committed && *done == FlushStage::Committed {
            // The superseded generation is now unreferenced debris.
            remove_unreferenced(&self.dir)?;
            *done = FlushStage::Cleaned;
        }
        Ok(())
    }

    /// The sealed warehouse under this ingest front end.
    pub fn warehouse(&self) -> &Warehouse {
        &self.warehouse
    }

    /// Tuples buffered in the memtable, not yet flushed.
    pub fn buffered(&self) -> usize {
        self.memtable.len()
    }

    /// Takes the error of a threshold-triggered flush that failed inside
    /// [`StreamingWarehouse::insert`], if one is stashed. The insert
    /// itself succeeded; the failed flush retries on the next
    /// [`StreamingWarehouse::flush`].
    pub fn take_flush_error(&mut self) -> Option<IngestError> {
        self.pending_flush_error.take()
    }

    /// Checkpoint of an unfinished flush protocol run, if any — the last
    /// stage that completed before an early stop or error.
    pub fn pending_stage(&self) -> Option<FlushStage> {
        self.pending
    }

    /// Whether sealed buckets are rewritten to the columnar layout.
    pub fn columnar(&self) -> bool {
        self.columnar
    }

    /// Enables or disables columnar conversion of sealed buckets. Flush
    /// and compaction convert full buckets below the segment watermark;
    /// query results are byte-identical either way — only the physical
    /// page layout (and scan/aggregate kernel choice) changes. Buckets
    /// already converted stay columnar when the policy is turned off.
    pub fn set_columnar(&mut self, on: bool) {
        self.columnar = on;
    }

    /// The committed generation number.
    pub fn epoch(&self) -> u64 {
        self.warehouse.epoch()
    }

    /// Highest WAL sequence number folded into the sealed generation.
    pub fn watermark(&self) -> u64 {
        self.warehouse.watermark()
    }

    /// The sequence number the next insert will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes of record frames currently in the WAL.
    pub fn wal_tail_bytes(&self) -> u64 {
        self.wal.tail_bytes()
    }

    /// The warehouse directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Deletes every `.tbl`/`.sma` file in `dir` that the committed manifest
/// does not reference, plus abandoned `.tmp` files. Quarantined SMA images
/// (`*.quarantined`) are kept for post-mortems. Returns the sorted names
/// of the files removed.
pub(crate) fn remove_unreferenced(dir: &Path) -> Result<Vec<String>, IngestError> {
    let keep: BTreeSet<String> = manifest_files(dir)?.into_iter().collect();
    let mut removed = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let dead = name.ends_with(".tmp")
            || ((name.ends_with(".tbl") || name.ends_with(".sma")) && !keep.contains(&name));
        if dead {
            fs::remove_file(entry.path())?;
            removed.push(name);
        }
    }
    removed.sort();
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_core::{BucketPred, CmpOp};
    use sma_exec::AggSpec;
    use sma_storage::Table;
    use sma_types::{Column, DataType, Schema, Value};
    use std::sync::Arc;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smadb-ingest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn warehouse_with_s() -> Warehouse {
        let schema = Arc::new(Schema::new(vec![Column::new("X", DataType::Int)]));
        let mut w = Warehouse::new();
        w.register(Table::in_memory("S", schema, 1)).unwrap();
        w
    }

    fn count_all() -> AggregateQuery {
        AggregateQuery {
            pred: BucketPred::cmp(0, CmpOp::Ge, i64::MIN),
            group_by: vec![],
            specs: vec![AggSpec::CountStar],
        }
    }

    /// Regression: when an insert fails mid-apply, every row the
    /// warehouse did not absorb — the failed one and everything after it
    /// — must go back into the memtable. Dropping them while
    /// `Memtable::max_seq` survives would let a later flush publish a
    /// watermark over rows that were never applied and then truncate the
    /// WAL frames that could have replayed them.
    #[test]
    fn failed_apply_restores_unapplied_rows_to_the_memtable() {
        // "AA_MISSING" sorts before "S", so the apply loop fails before
        // any "S" row reaches the warehouse: all three rows must survive.
        let dir = scratch("apply-fail-first");
        let mut sw = StreamingWarehouse::create(&dir, warehouse_with_s(), 0).unwrap();
        sw.insert("S", &vec![Value::Int(1)]).unwrap();
        sw.insert("S", &vec![Value::Int(2)]).unwrap();
        // The only way warehouse.insert can fail today: wedge a row for a
        // relation the warehouse does not know straight into the
        // memtable, standing in for any mid-apply error.
        sw.memtable.insert("AA_MISSING", 99, vec![Value::Int(3)]);
        let err = sw.flush().unwrap_err();
        assert!(matches!(err, IngestError::Warehouse(_)), "{err}");
        assert_eq!(sw.buffered(), 3, "no drained row may be dropped");
        let got = sw.query("S", count_all()).unwrap();
        assert_eq!(got.rows[0][0], Value::Int(2), "overlay still sees both");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_apply_keeps_already_applied_rows_exactly_once() {
        // "Z_MISSING" sorts after "S": the "S" rows are folded into the
        // sealed tables before the failure, so only the poison row may
        // remain buffered — and the applied rows must not double-count.
        let dir = scratch("apply-fail-last");
        let mut sw = StreamingWarehouse::create(&dir, warehouse_with_s(), 0).unwrap();
        sw.insert("S", &vec![Value::Int(1)]).unwrap();
        sw.insert("S", &vec![Value::Int(2)]).unwrap();
        sw.memtable.insert("Z_MISSING", 99, vec![Value::Int(3)]);
        let err = sw.flush().unwrap_err();
        assert!(matches!(err, IngestError::Warehouse(_)), "{err}");
        assert_eq!(sw.buffered(), 1, "only the unapplied row stays");
        let got = sw.query("S", count_all()).unwrap();
        assert_eq!(got.rows[0][0], Value::Int(2), "applied exactly once");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a threshold-triggered flush failing inside `insert`
    /// must not fail the insert. The row is already durable and
    /// acknowledged when the flush starts; reporting the flush error on
    /// the insert's result invites the caller to retry a row that did not
    /// fail — a duplicate. The error surfaces via `take_flush_error`.
    #[test]
    fn threshold_flush_failure_defers_its_error_and_never_double_counts() {
        let dir = scratch("deferred-flush-error");
        let mut sw = StreamingWarehouse::create(&dir, warehouse_with_s(), 3).unwrap();
        sw.insert("S", &vec![Value::Int(1)]).unwrap();
        sw.insert("S", &vec![Value::Int(2)]).unwrap();
        // Poison the memtable (seq 0 keeps the watermark honest) so the
        // threshold flush the next insert triggers fails mid-apply.
        sw.memtable.insert("AA_MISSING", 0, vec![Value::Int(0)]);
        let seq = sw
            .insert("S", &vec![Value::Int(3)])
            .expect("the row is durable and acked; the insert must succeed");
        assert_eq!(seq, 3);
        let err = sw.take_flush_error().expect("the flush error is deferred");
        assert!(matches!(err, IngestError::Warehouse(_)), "{err}");
        assert!(sw.take_flush_error().is_none(), "taken exactly once");
        // The "failed" insert was NOT retried: exactly three rows, in the
        // live overlay and through crash recovery alike.
        let got = sw.query("S", count_all()).unwrap();
        assert_eq!(got.rows[0][0], Value::Int(3));
        drop(sw);
        let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
        assert_eq!(report.replayed, 3, "one WAL frame per acknowledged row");
        let got = sw.query("S", count_all()).unwrap();
        assert_eq!(got.rows[0][0], Value::Int(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
