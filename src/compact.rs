//! Background segment compaction for the streaming warehouse.
//!
//! Incremental flushes (see [`crate::ingest`]) keep appending small delta
//! segments; left alone, a table's committed segment list grows without
//! bound and every reopen pays one file open per segment. Compaction is
//! the merge half of that LSM-shaped bargain: rewrite each table as a
//! single full segment, refresh its SMAs (level 2 included, see
//! `sma_core::level2`), and commit the new generation — manifest-last,
//! exactly like a flush.
//!
//! The rewrite runs one worker thread per table via [`std::thread::scope`]
//! (the same discipline as `sma_exec::parallel`: spawn, join, merge in
//! deterministic order, map panics to errors). Compaction never touches
//! the WAL: it advances the catalog epoch but leaves the watermark and the
//! WAL epoch alone, so records acknowledged after the compaction replay
//! fine if the process dies — the crash-sweep tests cover every
//! [`CompactStage`] prefix.
//!
//! [`CompactionPolicy`] makes it "background" in the operational sense:
//! after every successful flush, [`StreamingWarehouse::flush`] compares
//! the largest per-table segment count against the policy threshold and
//! triggers a compaction when it is exceeded, so callers never schedule
//! one by hand.

use std::fmt;
use std::io;
use std::path::Path;

use crate::ingest::{FlushStage, IngestError, StreamingWarehouse};
use crate::warehouse::{commit_manifest, CommitMeta, SegmentLists, SegmentMeta, WarehouseError};
use sma_storage::{FileStore, PageStore, Table};

/// The stages of the compaction protocol, in order — the crash-injection
/// seam, mirroring [`FlushStage`]:
/// [`StreamingWarehouse::compact_until`] runs the protocol up to and
/// including the named stage and stops, so tests can drop the warehouse
/// at every prefix and assert recovery restores the committed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CompactStage {
    /// Every table rewritten as a single fresh `.e{epoch}` segment (plus
    /// that generation's SMA images). The manifest still names the old
    /// segment lists.
    SegmentsWritten,
    /// Manifest atomically replaced — **the commit point**. The merged
    /// segments are live; the superseded delta files are still on disk.
    Committed,
    /// Superseded segment files deleted. A full
    /// [`StreamingWarehouse::compact`].
    Complete,
}

/// When automatic compaction fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionPolicy {
    /// Compact once any table's committed segment count exceeds this.
    /// `0` (the default) disables automatic compaction.
    pub max_segments: usize,
}

/// What a compaction did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// The generation the merged segments were committed under.
    pub epoch: u64,
    /// Tables rewritten (every registered table, merged or not).
    pub tables: usize,
    /// Total committed segments across tables before the merge.
    pub segments_before: usize,
    /// Total committed segments after (one per table).
    pub segments_after: usize,
}

impl fmt::Display for CompactionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {}: {} table(s), {} -> {} segment(s)",
            self.epoch, self.tables, self.segments_before, self.segments_after
        )
    }
}

/// Fully exports `table` into a fresh single segment file `{name}{suffix}.tbl`
/// in `dir` (write-temp → rename; the source store is never written).
fn export_merged_segment(
    dir: &Path,
    name: &str,
    table: &Table,
    suffix: &str,
) -> Result<SegmentMeta, IngestError> {
    let file = format!("{name}{suffix}.tbl");
    let tmp = dir.join(format!("{file}.tmp"));
    let mut store = FileStore::create(&tmp).map_err(WarehouseError::from)?;
    table
        .export_to_store(&mut store)
        .map_err(WarehouseError::from)?;
    drop(store);
    std::fs::rename(&tmp, dir.join(&file))?;
    Ok(SegmentMeta {
        file,
        start: 0,
        pages: table.page_count(),
    })
}

impl<S: PageStore> StreamingWarehouse<S> {
    /// Merges every table's segment list into a single fresh segment and
    /// commits the result. Equivalent to
    /// `compact_until(CompactStage::Complete)`.
    pub fn compact(&mut self) -> Result<CompactionReport, IngestError> {
        self.compact_until(CompactStage::Complete)
    }

    /// Runs the compaction protocol up to and including `stage`, then
    /// stops — the crash seam (see [`CompactStage`]).
    ///
    /// The protocol first runs a full flush: compacting while rows sit
    /// applied-but-uncommitted would bake tuples above the committed
    /// watermark into the merged segments, and a crash would then replay
    /// them on top — a duplicate. After the flush the memtable is empty
    /// and every acknowledged row is either sealed or safely in the WAL.
    pub fn compact_until(&mut self, stage: CompactStage) -> Result<CompactionReport, IngestError> {
        self.flush_until(FlushStage::Complete)?;
        let names: Vec<String> = self.warehouse.table_names().map(str::to_string).collect();
        let mut report = CompactionReport {
            tables: names.len(),
            segments_before: names.iter().map(|n| self.warehouse.segment_count(n)).sum(),
            ..CompactionReport::default()
        };
        // Re-tighten any loose SMA bounds first: the images persisted
        // below are this generation's authoritative copies.
        for name in &names {
            self.warehouse.refresh_smas(name)?;
        }
        // Under the columnar policy, compaction is the catch-all
        // conversion point: it rewrites every table wholesale, so convert
        // every eligible sealed bucket (not just the ones above the last
        // flush watermark). The exports below then persist chunk pages,
        // and recovery reclassifies them from the page markers.
        if self.columnar {
            for name in &names {
                if let Some(table) = self.warehouse.table_mut(name) {
                    table
                        .convert_buckets_from(0)
                        .map_err(WarehouseError::from)?;
                }
            }
        }
        // A compaction generation: catalog epoch advances (fresh file
        // names, fresh SMA images), watermark and WAL epoch do not — the
        // log is not truncated and its records must keep replaying.
        let epoch = self.warehouse.begin_compaction_generation();
        report.epoch = epoch;
        let suffix = format!(".e{epoch}");
        let dir = self.dir.clone();
        // One worker per table, scoped: tables are disjoint and exports
        // only read their source, so this is embarrassingly parallel.
        // Join in name order and map panics to errors, same as the
        // bucket-parallel operators.
        let exported: Vec<Result<SegmentMeta, IngestError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = names
                .iter()
                .filter_map(|name| self.warehouse.table(name).map(|t| (name, t)))
                .map(|(name, table)| {
                    let dir = dir.as_path();
                    let suffix = suffix.as_str();
                    scope.spawn(move || export_merged_segment(dir, name, table, suffix))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    // sma-lint: allow(A3-error-swallowing) -- join's payload is Box<dyn Any>, not an error; it is converted to a typed error here
                    Err(_) => Err(IngestError::Io(io::Error::other(
                        "compaction worker panicked",
                    ))),
                })
                .collect()
        });
        let mut lists = SegmentLists::new();
        for (name, seg) in names.iter().zip(exported) {
            lists.insert(name.clone(), vec![seg?]);
        }
        let meta = CommitMeta {
            epoch,
            watermark: self.warehouse.watermark(),
            wal_epoch: self.warehouse.wal_epoch(),
        };
        let manifest = self
            .warehouse
            .encode_generation(&dir, meta, &suffix, &lists)?;
        report.segments_after = lists.values().map(Vec::len).sum();
        if stage == CompactStage::SegmentsWritten {
            return Ok(report);
        }
        // The commit point: the merged generation becomes the one
        // recovery loads. Everything before this line only added files.
        commit_manifest(&dir, &manifest)?;
        self.warehouse.install_segments(lists);
        if stage == CompactStage::Committed {
            return Ok(report);
        }
        // Post-commit: delete the superseded segments.
        crate::ingest::remove_unreferenced(&dir)?;
        Ok(report)
    }

    /// Triggers a compaction when the policy threshold is exceeded —
    /// called by [`StreamingWarehouse::flush`] after a successful flush.
    pub(crate) fn maybe_compact(&mut self) -> Result<(), IngestError> {
        if self.compaction.max_segments == 0
            || self.warehouse.max_segment_count() <= self.compaction.max_segments
        {
            return Ok(());
        }
        self.compact().map(|_| ())
    }

    /// The automatic-compaction policy in force.
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.compaction
    }

    /// Replaces the automatic-compaction policy.
    pub fn set_compaction_policy(&mut self, policy: CompactionPolicy) {
        self.compaction = policy;
    }
}
