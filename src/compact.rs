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
//! The rewrite is the flush's own commit sequence
//! (`StreamingWarehouse::commit_generation`) with every page of every
//! table exported, on the calling thread. Compaction never touches the
//! WAL: it advances the catalog epoch but leaves the watermark and the
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

use crate::ingest::{FlushStage, IngestError, StreamingWarehouse};
use sma_storage::PageStore;

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
        // conversion point: it rewrites every table whole, so every
        // eligible sealed bucket converts, not just the ones above the
        // last flush. The commit point and the cleanup follow the flush's.
        let stop = match stage {
            CompactStage::SegmentsWritten => FlushStage::SegmentsWritten,
            CompactStage::Committed => FlushStage::Committed,
            CompactStage::Complete => FlushStage::Cleaned,
        };
        self.commit_generation(None, &mut FlushStage::Applied, stop)?;
        report.epoch = self.warehouse.epoch();
        report.segments_after = report.tables;
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
