//! Lock-striped buffer pool with per-shard LRU replacement and atomic I/O
//! accounting.
//!
//! The paper reports cold and warm timings (§2.4: 8 MB inter-transaction
//! buffer, 1 MB intra-transaction buffer on AODB). We reproduce the
//! distinction with an explicit pool: *cold* runs call
//! [`BufferPool::clear_cache`] first, *warm* runs reuse resident frames.
//! Every physical read is classified as sequential (page follows the
//! page the same thread last read from this pool) or random, which feeds
//! the deterministic cost model in [`crate::cost`].
//!
//! The intra-transaction buffer is the private-frame read,
//! [`BufferPool::with_page_private`]: a scan larger than the pool reads a
//! miss on a full shard into a [`PrivateFrame`] its worker owns instead of
//! evicting a shared page, so the scan cannot flush the pages other
//! queries share. It reads such a miss, and runs its visitor, with no
//! shard lock held, so scan workers do not queue behind each other's
//! store reads and checksums.
//!
//! The pool is also the durability checkpoint: every write-back stamps the
//! page's checksum footer ([`crate::page::stamp_page`]) and every physical
//! read verifies it, so torn writes and bit flips surface as
//! [`StoreError::Corrupt`] instead of silently wrong query answers.
//!
//! # Concurrency
//!
//! Buckets are independent units of work in the paper's design, so the
//! execution layer scans and aggregates them from multiple threads. To keep
//! those threads from serializing on one pool-wide lock, frames are split
//! into N lock-striped shards (page → shard by `page_no % N`); each shard
//! runs its own LRU over its own frame table. The store sits behind a
//! `RwLock` so concurrent misses in different shards overlap their physical
//! reads; write-backs take the write lock. Traffic counters live in atomics
//! so readers never contend on a stats lock.
//!
//! Lock order is always shard → store (never the reverse), and a thread
//! holds at most one shard lock except in [`BufferPool::flush_all`] /
//! [`BufferPool::clear_cache`], which acquire all shards in index order —
//! single-shard users cannot form a cycle against that.
//!
//! Small pools (fewer than `MIN_FRAMES_PER_SHARD` = 64 frames) use a single
//! shard, which preserves the exact global LRU behaviour the unit tests
//! and the paper's buffer-size experiments assume.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};

use crate::page::{stamp_page, verify_page, PAGE_SIZE};
use crate::store::{PageNo, PageStore, StoreError};

/// Counters describing pool traffic since the last reset.
///
/// Failed physical reads are *not* counted in the transfer counters: a read
/// that errors (I/O fault, checksum mismatch) never produced a page, so
/// counting it would skew the cost model that replays these counters.
/// Failed *attempts* are visible separately: every transient fault the pool
/// retried bumps `retried_reads`, and every read abandoned after the retry
/// budget ran out bumps `gaveup_reads` — so the cost model can price the
/// wasted device round-trips without polluting the transfer pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests served (hit or miss).
    pub logical_reads: u64,
    /// Page requests that missed the pool and hit the store.
    pub physical_reads: u64,
    /// Physical reads whose page number was `last + 1`, where `last` is
    /// the page the same thread last read physically from this pool.
    pub sequential_reads: u64,
    /// Physical reads that required a seek (not `last + 1`).
    pub random_reads: u64,
    /// Dirty pages written back to the store.
    pub physical_writes: u64,
    /// Transient read faults absorbed by the [`RetryPolicy`] (one per
    /// failed attempt that was retried, successful or not in the end).
    pub retried_reads: u64,
    /// Reads abandoned because a transient fault outlasted the retry
    /// budget; the error then propagated to the caller.
    pub gaveup_reads: u64,
}

impl IoStats {
    /// Hit ratio in `[0, 1]`; `1.0` when there were no reads.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            1.0
        } else {
            1.0 - self.physical_reads as f64 / self.logical_reads as f64
        }
    }
}

/// How the pool reacts to [`StoreError::Transient`] read faults.
///
/// The schedule is deterministic: retry `k` (1-based) sleeps
/// `base_backoff_us << (k - 1)` microseconds, capped at `max_backoff_us`,
/// plus an optional *seeded* jitter — a pure function of
/// `(jitter_seed, k)` — so a given policy always issues the same attempt
/// sequence and fault-injection tests replay byte-identically. The cap
/// keeps a long retry budget from sleeping into the seconds; the jitter
/// decorrelates concurrent sessions hammering the same faulty device
/// without sacrificing replayability. Non-transient errors (corruption,
/// out-of-range, unclassified I/O) are never retried: retrying cannot fix
/// them and would only hide the diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first failed attempt (`0` = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry, in microseconds; doubles each
    /// further retry. `0` disables sleeping (useful in tests).
    pub base_backoff_us: u64,
    /// Ceiling on the exponential schedule, in microseconds; `0` means
    /// uncapped. Jitter is added on top (at most a quarter of the capped
    /// backoff), so the true upper bound is `max_backoff_us * 5 / 4`.
    pub max_backoff_us: u64,
    /// Seed for the deterministic jitter; `0` disables jitter entirely,
    /// reproducing the bare exponential schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Three retries with a 50 µs initial backoff, capped at 5 ms: rides
    /// out momentary device hiccups (a few hundred µs total) without
    /// stalling a query noticeably when the fault turns out to be
    /// permanent. No jitter — callers that fan out many sessions (the
    /// query server) seed it per pool.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff_us: 50,
            max_backoff_us: 5_000,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — every transient fault propagates.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_backoff_us: 0,
            max_backoff_us: 0,
            jitter_seed: 0,
        }
    }

    /// Seeds the deterministic jitter (builder form).
    pub fn with_jitter_seed(mut self, seed: u64) -> RetryPolicy {
        self.jitter_seed = seed;
        self
    }

    /// The deterministic pause before retry `attempt` (1-based):
    /// `min(base << (attempt-1), cap) + jitter(seed, attempt)`.
    pub fn backoff_before(&self, attempt: u32) -> std::time::Duration {
        let exp = self.base_backoff_us.saturating_mul(
            1u64.checked_shl(attempt.saturating_sub(1))
                .unwrap_or(u64::MAX),
        );
        let capped = if self.max_backoff_us > 0 {
            exp.min(self.max_backoff_us)
        } else {
            exp
        };
        std::time::Duration::from_micros(capped.saturating_add(self.jitter_us(attempt, capped)))
    }

    /// Jitter for retry `attempt`, in `[0, capped/4]` — a pure splitmix64
    /// hash of `(jitter_seed, attempt)`, so two pools with the same seed
    /// sleep identically and different seeds decorrelate.
    fn jitter_us(&self, attempt: u32, capped: u64) -> u64 {
        if self.jitter_seed == 0 || capped == 0 {
            return 0;
        }
        let mut z = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z % (capped / 4 + 1)
    }
}

/// Pools with fewer frames than this stay single-sharded: striping a tiny
/// pool would fragment its capacity and change LRU eviction order.
const MIN_FRAMES_PER_SHARD: usize = 64;

/// Upper bound on shards; 16 mutexes cover any core count we target.
const MAX_SHARDS: usize = 16;

/// Source of read-stream ids. A pool takes a fresh one when it is built
/// and on every stats reset or cache clear, which orphans what any thread
/// remembered about its reads; 0 marks an empty slot, so ids start at 1.
static NEXT_STREAM: AtomicU64 = AtomicU64::new(1);

/// Pools one thread remembers its last physical read on. A thread
/// interleaving reads over more pools than this loses the oldest stream,
/// which can only turn a would-be sequential read into a random one.
const READER_STREAMS: usize = 8;

thread_local! {
    /// This thread's last physical read on each pool it read most
    /// recently, as `(stream id, page)`, most recent first. Fixed-size and
    /// freed with the thread.
    static LAST_READS: Cell<[(u64, PageNo); READER_STREAMS]> =
        const { Cell::new([(0, 0); READER_STREAMS]) };
}

/// Records that this thread physically read `no` on read stream `stream`
/// and returns whether that continues the thread's previous read there.
///
/// Concurrent readers scanning disjoint page ranges each keep their own
/// sequential stream: a serial scan's trace is unchanged, and a scan
/// split over T workers costs exactly T seeks however their misses
/// interleave.
fn continues_last_read(stream: u64, no: PageNo) -> bool {
    LAST_READS
        .try_with(|cell| {
            let mut recent = cell.get();
            let found = recent.iter().position(|&(s, _)| s == stream);
            let sequential = found.is_some_and(|i| recent[i].1.checked_add(1) == Some(no));
            // Move this stream to the front; a new one drops the oldest.
            recent[..=found.unwrap_or(READER_STREAMS - 1)].rotate_right(1);
            recent[0] = (stream, no);
            cell.set(recent);
            sequential
        })
        .unwrap_or(false)
}

/// [`IoStats`] kept in atomics so concurrent readers update them without a
/// lock. Snapshots are exact whenever the pool is quiesced (tests,
/// between-query accounting); mid-flight snapshots may tear across fields,
/// which the cost model never needs.
#[derive(Default)]
struct AtomicIoStats {
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    sequential_reads: AtomicU64,
    random_reads: AtomicU64,
    physical_writes: AtomicU64,
    retried_reads: AtomicU64,
    gaveup_reads: AtomicU64,
}

impl AtomicIoStats {
    fn snapshot(&self) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            sequential_reads: self.sequential_reads.load(Ordering::Relaxed),
            random_reads: self.random_reads.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            retried_reads: self.retried_reads.load(Ordering::Relaxed),
            gaveup_reads: self.gaveup_reads.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.logical_reads.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.sequential_reads.store(0, Ordering::Relaxed);
        self.random_reads.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.retried_reads.store(0, Ordering::Relaxed);
        self.gaveup_reads.store(0, Ordering::Relaxed);
    }
}

struct Frame {
    page_no: PageNo,
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    last_used: u64,
}

/// One lock stripe: an independent frame table with its own LRU clock.
struct Shard {
    frames: Vec<Frame>,
    map: HashMap<PageNo, usize>,
    clock: u64,
    /// Frames this stripe may hold; the stripes' capacities sum to the
    /// pool's.
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            frames: Vec::new(),
            map: HashMap::new(),
            clock: 0,
            capacity,
        }
    }

    fn bump_clock(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn is_full(&self) -> bool {
        self.frames.len() >= self.capacity
    }
}

/// A page-sized buffer owned by one reader: where
/// [`BufferPool::with_page_private`] reads a page it does not install,
/// and copies a resident one. Reused from page to page, so a scan of any
/// length needs only this one.
pub struct PrivateFrame(Box<[u8; PAGE_SIZE]>);

impl PrivateFrame {
    /// A zeroed frame.
    pub fn new() -> PrivateFrame {
        PrivateFrame(Box::new([0u8; PAGE_SIZE]))
    }
}

impl Default for PrivateFrame {
    fn default() -> PrivateFrame {
        PrivateFrame::new()
    }
}

/// A fixed-capacity page cache over a [`PageStore`].
///
/// Access goes through closures ([`BufferPool::with_page`] /
/// [`with_page_mut`](BufferPool::with_page_mut)) so frames never escape the
/// shard lock; this keeps the API misuse-proof without pin bookkeeping.
/// All methods take `&self`: the pool is safe to share across scoped
/// threads.
pub struct BufferPool {
    capacity: usize,
    shards: Vec<Mutex<Shard>>,
    store: RwLock<Box<dyn PageStore>>,
    stats: AtomicIoStats,
    /// Read-stream id that threads key their last physical read by; see
    /// [`continues_last_read`].
    stream: AtomicU64,
    /// How transient read faults are retried; see [`RetryPolicy`].
    retry: RwLock<RetryPolicy>,
}

/// Locks a mutex, ignoring poisoning: a panicking worker thread must not
/// cascade into every other thread that touches the pool afterwards, and
/// shard state is consistent at every await-free unlock point.
fn lock_shard(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl BufferPool {
    /// Creates a pool over `store` holding at most `capacity` pages.
    ///
    /// The paper's configuration (8 MB buffer, 4 KiB pages) corresponds to
    /// `capacity = 2048`. The capacity is split exactly over the shards:
    /// the first `capacity % n_shards` take one frame more than the rest.
    pub fn new(store: Box<dyn PageStore>, capacity: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let n_shards = (capacity / MIN_FRAMES_PER_SHARD).clamp(1, MAX_SHARDS);
        let (base, extra) = (capacity / n_shards, capacity % n_shards);
        BufferPool {
            capacity,
            shards: (0..n_shards)
                .map(|i| Mutex::new(Shard::new(base + usize::from(i < extra))))
                .collect(),
            store: RwLock::new(store),
            stats: AtomicIoStats::default(),
            stream: AtomicU64::new(NEXT_STREAM.fetch_add(1, Ordering::Relaxed)),
            retry: RwLock::new(RetryPolicy::default()),
        }
    }

    /// Replaces the transient-fault retry policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.write().unwrap_or_else(|e| e.into_inner()) = policy;
    }

    /// The current transient-fault retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes the frame table is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of pages in the underlying store.
    pub fn page_count(&self) -> PageNo {
        self.read_store().page_count()
    }

    fn read_store(&self) -> std::sync::RwLockReadGuard<'_, Box<dyn PageStore>> {
        self.store.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_store(&self) -> std::sync::RwLockWriteGuard<'_, Box<dyn PageStore>> {
        self.store.write().unwrap_or_else(|e| e.into_inner())
    }

    fn shard_for(&self, no: PageNo) -> &Mutex<Shard> {
        &self.shards[no as usize % self.shards.len()]
    }

    /// Runs `f` over the bytes of page `no`.
    pub fn with_page<R>(
        &self,
        no: PageNo,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Result<R, StoreError> {
        let mut shard = lock_shard(self.shard_for(no));
        let idx = self.fetch(&mut shard, no)?;
        Ok(f(&shard.frames[idx].data))
    }

    /// Runs `f` over the bytes of page `no` for a scan larger than the
    /// pool, without evicting anything.
    ///
    /// A resident page is a hit, and a miss while the page's shard has a
    /// free frame installs the page, both as in [`BufferPool::with_page`];
    /// either way the page is copied into `frame`. A miss on a full shard
    /// reads the page into `frame` and installs nothing. That read is
    /// retried, verified and counted like any other miss: one logical and
    /// one physical read, sequential or random by the same rule.
    ///
    /// The shard lock covers only the residency lookup, the LRU bump, an
    /// install into a free frame and the copy of a resident page: a miss
    /// on a full shard is read, retried and verified with no lock held,
    /// and `f` always runs unlocked, on `frame`. Reading a non-resident
    /// page from the store without the lock is safe for a scan because the
    /// scan holds its table shared, while every write to a table's pages
    /// (append, update, delete) needs it exclusive: no frame of the table
    /// can turn dirty during the scan, so the store holds every
    /// non-resident page's current bytes. If another reader installs the
    /// page in the meantime, the page is read twice and counted as two
    /// misses, as two concurrent misses of one page always are.
    pub fn with_page_private<R>(
        &self,
        no: PageNo,
        frame: &mut PrivateFrame,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Result<R, StoreError> {
        let mut shard = lock_shard(self.shard_for(no));
        let resident = match self.hit(&mut shard, no) {
            Some(idx) => Some(idx),
            None if !shard.is_full() => Some(self.install_miss(&mut shard, no)?),
            None => None,
        };
        match resident {
            Some(idx) => {
                *frame.0 = *shard.frames[idx].data;
                drop(shard);
            }
            None => {
                drop(shard);
                self.read_miss(no, &mut frame.0)?;
            }
        }
        Ok(f(&frame.0))
    }

    /// Whether page `no` is resident. Moves no counter and no LRU clock.
    pub fn is_resident(&self, no: PageNo) -> bool {
        lock_shard(self.shard_for(no)).map.contains_key(&no)
    }

    /// Runs `f` over the bytes of page `no`, marking it dirty.
    pub fn with_page_mut<R>(
        &self,
        no: PageNo,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R, StoreError> {
        let mut shard = lock_shard(self.shard_for(no));
        let idx = self.fetch(&mut shard, no)?;
        shard.frames[idx].dirty = true;
        Ok(f(&mut shard.frames[idx].data))
    }

    /// Appends a fresh zeroed page and caches it, returning its number.
    pub fn allocate(&self) -> Result<PageNo, StoreError> {
        let no = self.write_store().allocate()?;
        let mut shard = lock_shard(self.shard_for(no));
        let clock = shard.bump_clock();
        self.install(
            &mut shard,
            Frame {
                page_no: no,
                data: Box::new([0u8; PAGE_SIZE]),
                dirty: true,
                last_used: clock,
            },
        )?;
        Ok(no)
    }

    /// Writes back every dirty frame, in global page order, then syncs.
    ///
    /// The shard guards are dropped before the fsync: `sync` can stall
    /// for milliseconds, and nothing in it touches the frames — holding
    /// every shard across it would block all page traffic for the fsync
    /// duration. The sync still covers every write-back because the
    /// store writes happened before the guards were released.
    pub fn flush_all(&self) -> Result<(), StoreError> {
        {
            let mut guards: Vec<_> = self.shards.iter().map(lock_shard).collect();
            self.flush_locked(&mut guards)?;
        }
        self.write_store().sync()
    }

    /// Flushes and then empties the cache — the next access pattern is
    /// fully cold. Resets every thread's sequential-read tracking too.
    ///
    /// Like [`BufferPool::flush_all`], the fsync runs after the shard
    /// guards are dropped. Clearing the frames before the sync is safe:
    /// a re-fetch in the window reads the store's already-written (if
    /// not yet durable) bytes, which is exactly what it would have read
    /// from the frame.
    pub fn clear_cache(&self) -> Result<(), StoreError> {
        {
            let mut guards: Vec<_> = self.shards.iter().map(lock_shard).collect();
            self.flush_locked(&mut guards)?;
            for shard in guards.iter_mut() {
                shard.frames.clear();
                shard.map.clear();
            }
        }
        self.write_store().sync()?;
        self.new_read_stream();
        Ok(())
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Zeroes the traffic counters (keeps cache contents) and every
    /// thread's sequential-read tracking.
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.new_read_stream();
    }

    /// Starts a fresh read stream: the next physical read of every thread
    /// counts as a seek.
    fn new_read_stream(&self) {
        self.stream.store(
            NEXT_STREAM.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Writes back every dirty frame across already-locked shards.
    ///
    /// Write-back happens in ascending page order: a real engine would
    /// schedule it that way, and it keeps `physical_writes` and on-disk
    /// write counters deterministic regardless of shard/map iteration
    /// order.
    fn flush_locked(&self, guards: &mut [MutexGuard<'_, Shard>]) -> Result<(), StoreError> {
        let mut dirty: Vec<(PageNo, usize, usize)> = Vec::new();
        for (si, shard) in guards.iter().enumerate() {
            for (fi, frame) in shard.frames.iter().enumerate() {
                if frame.dirty {
                    dirty.push((frame.page_no, si, fi));
                }
            }
        }
        dirty.sort_unstable_by_key(|&(no, _, _)| no);
        for (_, si, fi) in dirty {
            self.write_back(&mut guards[si].frames[fi])?;
        }
        Ok(())
    }

    /// Stamps the frame's checksum footer and writes it to the store.
    ///
    /// Works on a borrowed frame, so no 4 KiB copy is made on the
    /// write-back path.
    fn write_back(&self, frame: &mut Frame) -> Result<(), StoreError> {
        stamp_page(&mut frame.data);
        self.write_store()
            .write_page(frame.page_no, &frame.data[..])?;
        frame.dirty = false;
        self.stats.physical_writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Records one successful physical read of `no` and classifies it as
    /// sequential or random against the same thread's previous physical
    /// read on this pool.
    fn note_physical_read(&self, no: PageNo) {
        self.stats.physical_reads.fetch_add(1, Ordering::Relaxed);
        if continues_last_read(self.stream.load(Ordering::Relaxed), no) {
            self.stats.sequential_reads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.random_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads page `no` from the store, retrying [`StoreError::Transient`]
    /// faults under the pool's [`RetryPolicy`].
    ///
    /// Each absorbed fault bumps `retried_reads`; exhausting the budget
    /// bumps `gaveup_reads` and propagates the final transient error so
    /// the caller still sees the root cause. Non-transient errors
    /// propagate immediately without touching either counter.
    fn read_page_with_retry(&self, no: PageNo, buf: &mut [u8]) -> Result<(), StoreError> {
        let policy = self.retry_policy();
        let mut attempt: u32 = 0;
        loop {
            match self.read_store().read_page(no, buf) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < policy.max_retries => {
                    attempt += 1;
                    self.stats.retried_reads.fetch_add(1, Ordering::Relaxed);
                    let pause = policy.backoff_before(attempt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
                Err(e) => {
                    if e.is_transient() {
                        self.stats.gaveup_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Reads page `no` from the store into `buf` on a miss: retried under
    /// the [`RetryPolicy`], checksum-verified, then counted as one logical
    /// and one physical read.
    ///
    /// Accounting happens only after the read and checksum verification
    /// succeed: a failed read produced no page, so it must not move the
    /// physical counters or the sequential-read tracker (the cost model
    /// would otherwise drift under fault injection).
    fn read_miss(&self, no: PageNo, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StoreError> {
        self.read_page_with_retry(no, &mut buf[..])?;
        verify_page(buf).map_err(|detail| StoreError::Corrupt { page: no, detail })?;
        self.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
        self.note_physical_read(no);
        Ok(())
    }

    /// Returns the frame index of page `no` in `shard`, reading it from
    /// the store and installing it on a miss.
    fn fetch(&self, shard: &mut Shard, no: PageNo) -> Result<usize, StoreError> {
        match self.hit(shard, no) {
            Some(idx) => Ok(idx),
            None => self.install_miss(shard, no),
        }
    }

    /// The frame index of page `no` if it is resident in `shard`, counted
    /// as a hit and made most recently used.
    fn hit(&self, shard: &mut Shard, no: PageNo) -> Option<usize> {
        let idx = *shard.map.get(&no)?;
        self.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
        let clock = shard.bump_clock();
        shard.frames[idx].last_used = clock;
        Some(idx)
    }

    /// Reads page `no` from the store and installs it into `shard`,
    /// returning its frame index.
    fn install_miss(&self, shard: &mut Shard, no: PageNo) -> Result<usize, StoreError> {
        let mut data = Box::new([0u8; PAGE_SIZE]);
        self.read_miss(no, &mut data)?;
        let clock = shard.bump_clock();
        self.install(
            shard,
            Frame {
                page_no: no,
                data,
                dirty: false,
                last_used: clock,
            },
        )
    }

    /// Installs `frame` into `shard`, evicting its LRU victim if the shard
    /// is at capacity.
    fn install(&self, shard: &mut Shard, frame: Frame) -> Result<usize, StoreError> {
        if !shard.is_full() {
            let idx = shard.frames.len();
            shard.map.insert(frame.page_no, idx);
            shard.frames.push(frame);
            return Ok(idx);
        }
        let Some(victim) = (0..shard.frames.len()).min_by_key(|&i| shard.frames[i].last_used)
        else {
            // Only reachable with a zero-capacity shard — misconfiguration,
            // not data loss; report it instead of panicking.
            return Err(StoreError::Io(std::io::Error::other(
                "buffer pool shard has zero capacity",
            )));
        };
        if shard.frames[victim].dirty {
            self.write_back(&mut shard.frames[victim])?;
        }
        shard.map.remove(&shard.frames[victim].page_no);
        shard.map.insert(frame.page_no, victim);
        shard.frames[victim] = frame;
        Ok(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::test_util::{FlakyStore, READ_FAILURE};

    fn pool(capacity: usize, pages: u32) -> BufferPool {
        let pool = BufferPool::new(Box::new(MemStore::new()), capacity);
        for _ in 0..pages {
            pool.allocate().unwrap();
        }
        pool.reset_stats();
        pool
    }

    #[test]
    fn hit_and_miss_accounting() {
        let p = pool(2, 3);
        p.clear_cache().unwrap();
        p.reset_stats();
        p.with_page(0, |_| ()).unwrap(); // miss
        p.with_page(0, |_| ()).unwrap(); // hit
        p.with_page(1, |_| ()).unwrap(); // miss (sequential after 0)
        let s = p.stats();
        assert_eq!(s.logical_reads, 3);
        assert_eq!(s.physical_reads, 2);
        assert_eq!(s.sequential_reads, 1);
        assert_eq!(s.random_reads, 1);
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn writes_survive_eviction() {
        let p = pool(1, 3);
        p.with_page_mut(0, |d| d[0] = 11).unwrap();
        p.with_page_mut(1, |d| d[0] = 22).unwrap(); // evicts page 0
        p.with_page_mut(2, |d| d[0] = 33).unwrap(); // evicts page 1
        assert_eq!(p.with_page(0, |d| d[0]).unwrap(), 11);
        assert_eq!(p.with_page(1, |d| d[0]).unwrap(), 22);
        assert_eq!(p.with_page(2, |d| d[0]).unwrap(), 33);
        assert!(p.stats().physical_writes >= 2, "evictions wrote back");
    }

    #[test]
    fn lru_keeps_hot_page() {
        let p = pool(2, 3);
        p.clear_cache().unwrap();
        p.with_page(0, |_| ()).unwrap();
        p.with_page(1, |_| ()).unwrap();
        p.with_page(0, |_| ()).unwrap(); // 0 now hotter than 1
        p.reset_stats();
        p.with_page(2, |_| ()).unwrap(); // should evict 1, not 0
        p.with_page(0, |_| ()).unwrap(); // hit
        let s = p.stats();
        assert_eq!(s.physical_reads, 1, "page 0 stayed resident");
    }

    #[test]
    fn clear_cache_makes_cold() {
        let p = pool(8, 4);
        for i in 0..4 {
            p.with_page(i, |_| ()).unwrap();
        }
        p.reset_stats();
        for i in 0..4 {
            p.with_page(i, |_| ()).unwrap();
        }
        assert_eq!(p.stats().physical_reads, 0, "warm pass all hits");
        p.clear_cache().unwrap();
        p.reset_stats();
        for i in 0..4 {
            p.with_page(i, |_| ()).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.physical_reads, 4, "cold pass all misses");
        assert_eq!(s.sequential_reads, 3);
        assert_eq!(s.random_reads, 1, "first read after cold start seeks");
    }

    /// Readers missing in lockstep on disjoint contiguous ranges each keep
    /// their own sequential stream: one seek per reader, however their
    /// misses interleave.
    #[test]
    fn concurrent_readers_each_keep_their_sequential_stream() {
        const PER_READER: u32 = 16;
        for readers in [2u32, 4, 8] {
            let pages = readers * PER_READER;
            let p = pool(pages as usize, pages);
            p.clear_cache().unwrap();
            let lockstep = std::sync::Barrier::new(readers as usize);
            std::thread::scope(|scope| {
                for r in 0..readers {
                    let (p, lockstep) = (&p, &lockstep);
                    scope.spawn(move || {
                        for no in r * PER_READER..(r + 1) * PER_READER {
                            p.with_page(no, |_| ()).unwrap();
                            lockstep.wait();
                        }
                    });
                }
            });
            let s = p.stats();
            assert_eq!(s.physical_reads, u64::from(pages), "{readers} readers");
            assert_eq!(s.random_reads, u64::from(readers), "{readers} readers");
            assert_eq!(
                s.sequential_reads,
                u64::from(pages - readers),
                "{readers} readers"
            );
        }
    }

    /// One thread alternating between two pools (a join reading both of
    /// its inputs) keeps a sequential stream on each.
    #[test]
    fn one_reader_keeps_a_stream_per_pool() {
        let (a, b) = (pool(8, 4), pool(8, 4));
        a.clear_cache().unwrap();
        b.clear_cache().unwrap();
        for no in 0..4 {
            a.with_page(no, |_| ()).unwrap();
            b.with_page(no, |_| ()).unwrap();
        }
        for s in [a.stats(), b.stats()] {
            assert_eq!((s.random_reads, s.sequential_reads), (1, 3));
        }
        // A stats reset starts every stream over: the next miss seeks.
        a.clear_cache().unwrap();
        a.with_page(0, |_| ()).unwrap();
        a.reset_stats();
        a.with_page(1, |_| ()).unwrap();
        let s = a.stats();
        assert_eq!((s.random_reads, s.sequential_reads), (1, 0));
    }

    /// A store whose `sync` parks until the test says go, recording
    /// whether it gave up waiting — proves the pool drops its shard
    /// guards before the fsync (an fsync stall must not block cached
    /// page traffic).
    struct GateSyncStore {
        inner: MemStore,
        entered: std::sync::Arc<(Mutex<bool>, std::sync::Condvar)>,
        release: std::sync::Arc<(Mutex<bool>, std::sync::Condvar)>,
        timed_out: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl PageStore for GateSyncStore {
        fn page_count(&self) -> PageNo {
            self.inner.page_count()
        }
        fn read_page(&self, no: PageNo, buf: &mut [u8]) -> Result<(), StoreError> {
            self.inner.read_page(no, buf)
        }
        fn write_page(&mut self, no: PageNo, buf: &[u8]) -> Result<(), StoreError> {
            self.inner.write_page(no, buf)
        }
        fn allocate(&mut self) -> Result<PageNo, StoreError> {
            self.inner.allocate()
        }
        fn sync(&mut self) -> Result<(), StoreError> {
            let (m, cv) = &*self.entered;
            *m.lock().unwrap() = true;
            cv.notify_all();
            let (m, cv) = &*self.release;
            let mut go = m.lock().unwrap();
            while !*go {
                let (g, t) = cv
                    .wait_timeout(go, std::time::Duration::from_secs(10))
                    .unwrap();
                go = g;
                if t.timed_out() {
                    self.timed_out.store(true, Ordering::SeqCst);
                    break;
                }
            }
            Ok(())
        }
    }

    #[test]
    fn flush_all_releases_shards_before_sync() {
        use std::sync::{atomic::AtomicBool, Arc, Condvar};
        let entered = Arc::new((Mutex::new(false), Condvar::new()));
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let timed_out = Arc::new(AtomicBool::new(false));
        let store = GateSyncStore {
            inner: MemStore::new(),
            entered: entered.clone(),
            release: release.clone(),
            timed_out: timed_out.clone(),
        };
        let p = Arc::new(BufferPool::new(Box::new(store), 8));
        let no = p.allocate().unwrap();
        p.with_page_mut(no, |d| d[0] = 7).unwrap();

        let flusher = {
            let p = p.clone();
            std::thread::spawn(move || p.flush_all())
        };
        // Wait for the fsync to begin (it parks inside the store).
        {
            let (m, cv) = &*entered;
            let mut e = m.lock().unwrap();
            while !*e {
                e = cv
                    .wait_timeout(e, std::time::Duration::from_secs(10))
                    .unwrap()
                    .0;
            }
        }
        // The fsync is parked and still holds the store lock; a cached
        // read needs only its shard mutex, which flush_all must have
        // released. If flush_all still held the shards, this would block
        // until the store's wait times out — which the flag records.
        assert_eq!(p.with_page(no, |d| d[0]).unwrap(), 7);
        {
            let (m, cv) = &*release;
            *m.lock().unwrap() = true;
            cv.notify_all();
        }
        flusher.join().unwrap().unwrap();
        assert!(
            !timed_out.load(Ordering::SeqCst),
            "cached read had to wait for the fsync: shard guards were held across sync"
        );
    }

    #[test]
    fn flush_persists_to_store() {
        let store = Box::new(MemStore::new());
        let p = BufferPool::new(store, 4);
        let no = p.allocate().unwrap();
        p.with_page_mut(no, |d| d[7] = 99).unwrap();
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        assert_eq!(p.with_page(no, |d| d[7]).unwrap(), 99);
    }

    #[test]
    fn write_back_stamps_checksum_footers() {
        use crate::page::{page_write_counter, verify_page};
        use crate::store::FileStore;
        use crate::test_util::scratch_path;
        let path = scratch_path("pool_stamps");
        let p = BufferPool::new(Box::new(FileStore::create(&path).unwrap()), 4);
        let no = p.allocate().unwrap();
        p.with_page_mut(no, |d| d[123] = 0x5A).unwrap();
        p.flush_all().unwrap();
        let raw = std::fs::read(&path).unwrap();
        let img: &[u8; PAGE_SIZE] = raw[..PAGE_SIZE].try_into().unwrap();
        assert!(page_write_counter(img) >= 1, "flushed page must be stamped");
        verify_page(img).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_behind_the_pool_is_detected() {
        use crate::store::FileStore;
        use crate::test_util::scratch_path;
        let path = scratch_path("pool_corrupt");
        let p = BufferPool::new(Box::new(FileStore::create(&path).unwrap()), 4);
        let no = p.allocate().unwrap();
        p.with_page_mut(no, |d| d[0..2].copy_from_slice(&[9, 9]))
            .unwrap();
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        // Flip one payload bit on disk, behind the pool's back.
        {
            use std::os::unix::fs::FileExt;
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            let mut b = [0u8; 1];
            std::fs::File::open(&path)
                .unwrap()
                .read_exact_at(&mut b, 200)
                .unwrap();
            f.write_all_at(&[b[0] ^ 0x04], 200).unwrap();
        }
        let err = p.with_page(no, |_| ()).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { page: 0, .. }),
            "expected Corrupt, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_errors() {
        let p = pool(2, 1);
        assert!(p.with_page(5, |_| ()).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        BufferPool::new(Box::new(MemStore::new()), 0);
    }

    #[test]
    fn sharding_kicks_in_for_large_pools_only() {
        assert_eq!(pool(2, 0).shard_count(), 1, "tiny pool keeps global LRU");
        assert_eq!(pool(63, 0).shard_count(), 1);
        assert_eq!(pool(128, 0).shard_count(), 2);
        assert_eq!(pool(2048, 0).shard_count(), 16, "paper's 8 MB pool");
        assert_eq!(pool(1 << 20, 0).shard_count(), MAX_SHARDS);
        // Striped capacity is exactly the configured total.
        for capacity in [2048, 1000, 200] {
            let p = pool(capacity, 0);
            let striped: usize = p.shards.iter().map(|s| lock_shard(s).capacity).sum();
            assert_eq!(striped, p.capacity(), "capacity {capacity}");
        }
    }

    /// After a pass over twice as many pages as it holds, a pool holds
    /// exactly `capacity` pages, also when the capacity does not divide
    /// over the shards. A reverse pass then hits each resident page
    /// before its shard's first miss evicts one.
    #[test]
    fn pool_holds_exactly_its_capacity() {
        for capacity in [1usize, 63, 130, 200, 1000, 2048] {
            let pages = 2 * capacity as u32;
            let p = pool(capacity, pages);
            for no in 0..pages {
                p.with_page(no, |_| ()).unwrap();
            }
            let resident = (0..pages).filter(|&no| p.is_resident(no)).count();
            assert_eq!(resident, capacity, "capacity {capacity}");
            p.reset_stats();
            for no in (0..pages).rev() {
                p.with_page(no, |_| ()).unwrap();
            }
            let s = p.stats();
            let hits = s.logical_reads - s.physical_reads;
            assert_eq!(hits, capacity as u64, "capacity {capacity}");
        }
    }

    /// The resident pages of `p`, in page order.
    fn resident(p: &BufferPool) -> Vec<PageNo> {
        (0..p.page_count())
            .filter(|&no| p.is_resident(no))
            .collect()
    }

    /// Private-frame reads hit resident pages, install misses while a
    /// shard has room, and past a full pool read into the caller's frame:
    /// right contents, counted like any miss, nothing evicted.
    #[test]
    fn private_reads_past_a_full_pool_evict_nothing() {
        let p = pool(4, 8);
        for no in 0..8 {
            p.with_page_mut(no, |d| d[0] = 10 + no as u8).unwrap();
        }
        p.clear_cache().unwrap();
        p.reset_stats();
        let mut frame = PrivateFrame::new();
        for pass in 0..2u64 {
            for no in 0..8 {
                let got = p.with_page_private(no, &mut frame, |d| d[0]).unwrap();
                assert_eq!(got, 10 + no as u8, "pass {pass}, page {no}");
            }
            assert_eq!(resident(&p), [0, 1, 2, 3], "pass {pass}");
        }
        let s = p.stats();
        assert_eq!(s.logical_reads, 16);
        // The cold pass reads all 8 pages, the warm one only the 4 that
        // did not fit: each pass is one sequential stream from a seek.
        assert_eq!(s.physical_reads, 8 + 4);
        assert_eq!((s.random_reads, s.sequential_reads), (2, 10));
        assert_eq!(s.physical_writes, 0, "a private read writes nothing back");
    }

    /// A corrupt page read past a full pool fails with `Corrupt`, like a
    /// miss that installs, and leaves the pool as it was.
    #[test]
    fn private_read_of_a_corrupt_page_fails_with_corrupt() {
        let mut store = MemStore::new();
        for _ in 0..4 {
            store.allocate().unwrap();
        }
        store.write_page(3, &[0xA5; PAGE_SIZE]).unwrap();
        let p = BufferPool::new(Box::new(store), 2);
        p.with_page(0, |_| ()).unwrap();
        p.with_page(1, |_| ()).unwrap();
        let before = p.stats();
        let err = p
            .with_page_private(3, &mut PrivateFrame::new(), |_| ())
            .unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { page: 3, .. }),
            "expected Corrupt, got {err:?}"
        );
        assert_eq!(p.stats(), before);
        assert_eq!(resident(&p), [0, 1]);
    }

    /// Transient faults on reads past a full pool are retried under the
    /// pool's policy and counted in `retried_reads`; a burst longer than
    /// the budget gives up, counts in `gaveup_reads` and propagates the
    /// transient cause. Either way nothing is installed.
    #[test]
    fn private_reads_retry_transient_faults() {
        use crate::test_util::{FaultConfig, FaultPlan};
        let mut store = FaultPlan::new(
            MemStore::new(),
            FaultConfig::seeded(42).with_transient(100, 3),
        );
        for _ in 0..16 {
            store.allocate().unwrap();
        }
        let bursts: Vec<u64> = (0..16).map(|no| store.transient_burst(no)).collect();
        let victim = (4..16).find(|&no| bursts[no as usize] >= 2).unwrap();
        let p = BufferPool::new(Box::new(store), 4);
        let within = RetryPolicy {
            max_retries: 3,
            base_backoff_us: 0,
            ..RetryPolicy::default()
        };
        p.set_retry_policy(within);
        for no in 0..4 {
            p.with_page(no, |_| ()).unwrap();
        }
        p.set_retry_policy(RetryPolicy {
            max_retries: bursts[victim as usize] as u32 - 1,
            ..within
        });
        let mut frame = PrivateFrame::new();
        let before = p.stats();
        let err = p.with_page_private(victim, &mut frame, |_| ()).unwrap_err();
        assert!(err.is_transient(), "the root cause survives: {err}");
        let s = p.stats();
        assert_eq!(
            s.retried_reads - before.retried_reads,
            bursts[victim as usize] - 1
        );
        assert_eq!(s.gaveup_reads, 1);
        assert_eq!(s.physical_reads, before.physical_reads);
        assert_eq!(s.logical_reads, before.logical_reads);
        // Within the budget every burst is absorbed, and the transfer
        // counters match a fault-free run.
        p.set_retry_policy(within);
        let before = p.stats();
        for no in (4..16).filter(|&no| no != victim) {
            p.with_page_private(no, &mut frame, |_| ()).unwrap();
        }
        let s = p.stats();
        let planned: u64 = (4..16)
            .filter(|&no| no != victim)
            .map(|no| bursts[no as usize])
            .sum();
        assert_eq!(s.retried_reads - before.retried_reads, planned);
        assert_eq!(s.gaveup_reads, 1);
        assert_eq!(s.physical_reads - before.physical_reads, 11);
        assert_eq!(resident(&p), [0, 1, 2, 3]);
    }

    /// A private read that fails in the store moves no transfer counter
    /// and no sequential-read tracker: after the fault clears, the same
    /// page counts as sequential to the last successful read.
    #[test]
    fn failed_private_reads_are_not_counted() {
        let mut store = FlakyStore::new(u64::MAX);
        for _ in 0..3 {
            store.allocate().unwrap();
        }
        let budget = store.budget_handle();
        let p = BufferPool::new(Box::new(store), 1);
        let mut frame = PrivateFrame::new();
        p.with_page_private(0, &mut frame, |_| ()).unwrap();
        p.with_page_private(1, &mut frame, |_| ()).unwrap();
        let before = p.stats();
        assert_eq!((before.physical_reads, before.sequential_reads), (2, 1));
        budget.store(0, Ordering::Relaxed);
        let err = p.with_page_private(2, &mut frame, |_| ()).unwrap_err();
        assert!(err.to_string().contains(READ_FAILURE), "{err}");
        assert_eq!(p.stats(), before, "failed read moved no counter");
        budget.store(u64::MAX, Ordering::Relaxed);
        p.with_page_private(2, &mut frame, |_| ()).unwrap();
        let after = p.stats();
        assert_eq!((after.physical_reads, after.sequential_reads), (3, 2));
        assert_eq!(resident(&p), [0]);
    }

    /// Two readers scan disjoint halves of a store twice the pool's size
    /// through private frames, the second half resident as a table's
    /// create leaves it, while a third installs and evicts pages through
    /// `with_page`. Misses on full shards read with no lock held and the
    /// visitor runs on the reader's own frame: every page any of them
    /// sees still equals what the store holds, and every physical read is
    /// classified as sequential or random.
    #[test]
    fn unlocked_private_reads_see_store_bytes_beside_installs() {
        use std::sync::atomic::AtomicBool;
        const CAPACITY: usize = 128;
        const PAGES: u32 = 2 * CAPACITY as u32;
        let p = pool(CAPACITY, PAGES);
        assert!(p.shard_count() > 1, "test must exercise real striping");
        let bodies: Vec<Vec<u8>> = (0..PAGES)
            .map(|no| {
                let mut x = 0x9E37_79B9u32 ^ no.wrapping_mul(0x85EB_CA6B);
                (0..PAGE_SIZE - 8)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        x.to_be_bytes()[0]
                    })
                    .collect()
            })
            .collect();
        for (no, body) in (0..PAGES).zip(&bodies) {
            p.with_page_mut(no, |d| d[..PAGE_SIZE - 8].copy_from_slice(body))
                .unwrap();
        }
        p.clear_cache().unwrap();
        for no in PAGES / 2..PAGES {
            p.with_page(no, |_| ()).unwrap();
        }
        p.reset_stats();
        let is_stored = |no: PageNo, d: &[u8; PAGE_SIZE]| {
            d[..PAGE_SIZE - 8] == bodies[no as usize][..] && verify_page(d).is_ok()
        };
        let scanned = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let installer = scope.spawn(|| {
                let (mut no, mut installs) = (7u32, 0u32);
                while !scanned.load(Ordering::SeqCst) || installs < 1_000 {
                    assert!(p.with_page(no, |d| is_stored(no, d)).unwrap(), "page {no}");
                    no = (no + 37) % PAGES;
                    installs += 1;
                }
            });
            let scanners: Vec<_> = [0..PAGES / 2, PAGES / 2..PAGES]
                .into_iter()
                .map(|half| {
                    let (p, is_stored) = (&p, &is_stored);
                    scope.spawn(move || {
                        let mut frame = PrivateFrame::new();
                        for pass in 0..2 {
                            for no in half.clone() {
                                let ok = p.with_page_private(no, &mut frame, |d| is_stored(no, d));
                                assert!(ok.unwrap(), "pass {pass}, page {no}");
                            }
                        }
                    })
                })
                .collect();
            // Stop the installer before looking at the scanners, so a
            // failed scanner fails the test instead of hanging it.
            let scans: Vec<_> = scanners.into_iter().map(|s| s.join()).collect();
            scanned.store(true, Ordering::SeqCst);
            installer.join().unwrap();
            for scan in scans {
                scan.unwrap();
            }
        });
        let s = p.stats();
        assert!(s.physical_reads > 0);
        assert_eq!(s.sequential_reads + s.random_reads, s.physical_reads);
        assert_eq!(s.physical_writes, 0, "nothing turned dirty");
    }

    /// Regression: physical-read counters and the sequential-read tracker
    /// must not move when the store read fails — the cost model replays
    /// these counters and a failed read transferred no page.
    #[test]
    fn failed_reads_are_not_counted() {
        let mut store = FlakyStore::new(u64::MAX);
        for _ in 0..3 {
            store.allocate().unwrap();
        }
        let budget = store.budget_handle();
        let p = BufferPool::new(Box::new(store), 2);
        p.with_page(0, |_| ()).unwrap();
        let before = p.stats();
        assert_eq!(
            (
                before.logical_reads,
                before.physical_reads,
                before.random_reads
            ),
            (1, 1, 1)
        );
        // Exhaust the read budget: the next miss fails inside read_page.
        budget.store(0, Ordering::Relaxed);
        let err = p.with_page(1, |_| ()).unwrap_err();
        assert!(err.to_string().contains(READ_FAILURE), "{err}");
        assert_eq!(p.stats(), before, "failed read moved no counter");
        // Restore the budget: page 1 now reads fine and counts as
        // sequential (page 0 remains the last *successful* physical read).
        budget.store(u64::MAX, Ordering::Relaxed);
        p.with_page(1, |_| ()).unwrap();
        let after = p.stats();
        assert_eq!(after.physical_reads, 2);
        assert_eq!(after.sequential_reads, 1);
        assert_eq!(after.random_reads, 1);
    }

    /// Transient faults within the retry budget are invisible to callers:
    /// every read succeeds, the absorbed faults show up in
    /// `retried_reads`, and the transfer counters match a fault-free run.
    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        use crate::test_util::{FaultConfig, FaultPlan};
        let mut store = FaultPlan::new(
            MemStore::new(),
            FaultConfig::seeded(42).with_transient(100, 3),
        );
        for _ in 0..8 {
            store.allocate().unwrap();
        }
        let planned: u64 = (0..8).map(|no| store.transient_burst(no)).sum();
        assert!(planned >= 8, "pct=100 schedules a burst on every page");
        let p = BufferPool::new(Box::new(store), 8);
        p.set_retry_policy(RetryPolicy {
            max_retries: 3,
            base_backoff_us: 0,
            ..RetryPolicy::default()
        });
        for no in 0..8 {
            p.with_page(no, |_| ()).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.physical_reads, 8);
        assert_eq!(s.retried_reads, planned, "each burst fault was retried");
        assert_eq!(s.gaveup_reads, 0);
    }

    /// A burst longer than the retry budget propagates the transient error
    /// — and only the retry/giveup counters move, never the transfer
    /// counters (a failed read transferred no page).
    #[test]
    fn retry_exhaustion_propagates_the_transient_cause() {
        use crate::test_util::{FaultConfig, FaultPlan};
        let mut store = FaultPlan::new(
            MemStore::new(),
            FaultConfig::seeded(42).with_transient(100, 3),
        );
        for _ in 0..16 {
            store.allocate().unwrap();
        }
        let victim = (0..16).find(|&no| store.transient_burst(no) >= 2).unwrap();
        let burst = store.transient_burst(victim);
        let p = BufferPool::new(Box::new(store), 4);
        p.set_retry_policy(RetryPolicy {
            max_retries: burst as u32 - 1,
            base_backoff_us: 0,
            ..RetryPolicy::default()
        });
        let before = p.stats();
        let err = p.with_page(victim, |_| ()).unwrap_err();
        assert!(err.is_transient(), "the root cause survives: {err}");
        let s = p.stats();
        assert_eq!(s.retried_reads, burst - 1);
        assert_eq!(s.gaveup_reads, 1);
        assert_eq!(s.physical_reads, before.physical_reads);
        assert_eq!(s.logical_reads, before.logical_reads);
        // The burst is spent now; a bigger budget would also have worked —
        // the next access rides out nothing and succeeds.
        p.with_page(victim, |_| ()).unwrap();
        assert_eq!(p.stats().physical_reads, 1);
    }

    /// Retry policies are deterministic: the backoff schedule is a pure
    /// function of the attempt number (and the jitter seed).
    #[test]
    fn retry_policy_backoff_schedule() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff_us: 50,
            max_backoff_us: 5_000,
            jitter_seed: 0,
        };
        assert_eq!(p.backoff_before(1).as_micros(), 50);
        assert_eq!(p.backoff_before(2).as_micros(), 100);
        assert_eq!(p.backoff_before(3).as_micros(), 200);
        assert_eq!(RetryPolicy::none().max_retries, 0);
        assert!(RetryPolicy::none().backoff_before(1).is_zero());
    }

    /// The exponential schedule saturates at `max_backoff_us` instead of
    /// doubling without bound, and `0` means uncapped.
    #[test]
    fn retry_policy_backoff_is_capped() {
        let p = RetryPolicy {
            max_retries: 20,
            base_backoff_us: 50,
            max_backoff_us: 400,
            jitter_seed: 0,
        };
        assert_eq!(p.backoff_before(3).as_micros(), 200);
        assert_eq!(p.backoff_before(4).as_micros(), 400, "first capped step");
        assert_eq!(p.backoff_before(16).as_micros(), 400, "stays capped");
        let uncapped = RetryPolicy {
            max_backoff_us: 0,
            ..p
        };
        assert_eq!(uncapped.backoff_before(10).as_micros(), 25_600);
        // Overflow-safe far past any realistic attempt count.
        assert!(uncapped.backoff_before(200).as_micros() > 0);
    }

    /// Jitter is deterministic per (seed, attempt), bounded by a quarter
    /// of the capped backoff, and absent when the seed is zero.
    #[test]
    fn retry_policy_jitter_is_seeded_and_bounded() {
        let base = RetryPolicy {
            max_retries: 8,
            base_backoff_us: 100,
            max_backoff_us: 1_000,
            jitter_seed: 0,
        };
        let a = base.with_jitter_seed(0xC0FFEE);
        let b = base.with_jitter_seed(0xC0FFEE);
        let c = base.with_jitter_seed(17);
        let mut diverged = false;
        for attempt in 1..=8 {
            let bare = base.backoff_before(attempt).as_micros();
            let ja = a.backoff_before(attempt).as_micros();
            assert_eq!(
                ja,
                b.backoff_before(attempt).as_micros(),
                "same seed, same sleep"
            );
            assert!(ja >= bare, "jitter only adds");
            assert!(ja <= bare + bare / 4, "jitter bounded by a quarter");
            if ja != c.backoff_before(attempt).as_micros() {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must decorrelate somewhere");
    }

    /// Regression against the seeded chaos store: a capped, jittered
    /// policy absorbs exactly the same planned fault bursts as the bare
    /// exponential one — the schedule shapes only the sleeps, never the
    /// attempt sequence — and the counters stay byte-identical.
    #[test]
    fn jittered_policy_matches_bare_policy_under_seeded_faults() {
        use crate::test_util::{FaultConfig, FaultPlan};
        let mut runs = Vec::new();
        for seed in [0u64, 0x5EED] {
            let mut store = FaultPlan::new(
                MemStore::new(),
                FaultConfig::seeded(31337).with_transient(100, 3),
            );
            for _ in 0..8 {
                store.allocate().unwrap();
            }
            let planned: u64 = (0..8).map(|no| store.transient_burst(no)).sum();
            let p = BufferPool::new(Box::new(store), 8);
            p.set_retry_policy(RetryPolicy {
                max_retries: 3,
                base_backoff_us: 1,
                max_backoff_us: 2,
                jitter_seed: seed,
            });
            for no in 0..8 {
                p.with_page(no, |_| ()).unwrap();
            }
            let s = p.stats();
            assert_eq!(s.retried_reads, planned, "seed {seed}");
            assert_eq!(s.gaveup_reads, 0, "seed {seed}");
            runs.push(s);
        }
        assert_eq!(runs[0], runs[1], "jitter changes sleeps, not outcomes");
    }

    /// Eight threads hammer a sharded pool with reads and dirty writes,
    /// forcing constant eviction; contents and counter totals must come out
    /// exact, and every page must still verify its checksum.
    #[test]
    fn concurrent_access_is_exact() {
        const THREADS: u64 = 8;
        const PAGES: u32 = 256;
        const ROUNDS: u64 = 50;
        // Capacity 128 over 256 pages: every round evicts.
        let store = {
            let mut s = MemStore::new();
            for _ in 0..PAGES {
                s.allocate().unwrap();
            }
            Box::new(s)
        };
        let p = BufferPool::new(store, 128);
        assert!(p.shard_count() > 1, "test must exercise real striping");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let p = &p;
                scope.spawn(move || {
                    for r in 0..ROUNDS {
                        // Each thread owns a disjoint page set: no data races
                        // on content, full contention on shards and store.
                        let base = (t as u32) * (PAGES / THREADS as u32);
                        for i in 0..PAGES / THREADS as u32 {
                            let no = base + i;
                            p.with_page_mut(no, |d| {
                                d[0] = t as u8;
                                d[1] = d[1].wrapping_add(1);
                            })
                            .unwrap();
                            let owner = p.with_page(no, |d| d[0]).unwrap();
                            assert_eq!(owner, t as u8, "round {r}");
                        }
                    }
                });
            }
        });
        // Totals: every access above was counted exactly once.
        let s = p.stats();
        let accesses = THREADS * ROUNDS * (PAGES as u64 / THREADS) * 2;
        assert_eq!(s.logical_reads, accesses);
        assert_eq!(s.sequential_reads + s.random_reads, s.physical_reads);
        assert!(
            s.physical_reads >= PAGES as u64,
            "evictions forced re-reads"
        );
        // Every page write-counter advanced and every checksum verifies.
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        for no in 0..PAGES {
            let (owner, rounds) = p.with_page(no, |d| (d[0], d[1])).unwrap();
            assert_eq!(owner as u64, no as u64 / (PAGES as u64 / THREADS));
            assert_eq!(rounds as u64, ROUNDS);
        }
    }
}
