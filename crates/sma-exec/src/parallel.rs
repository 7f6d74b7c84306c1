//! Bucket-parallel execution support.
//!
//! The paper's operators iterate `forall bucket in buckets` — an
//! embarrassingly parallel loop, because SMA grading is pure in-memory
//! arithmetic and every bucket's pages are disjoint. This module provides
//! the small pieces the operators share:
//!
//! * [`Parallelism`] — the knob saying how many worker threads to use
//!   (default: every available core),
//! * [`workers_for`] — how many of them a loop's planned work pays for:
//!   one, on the calling thread, up to [`CROSSOVER_NS`], where starting
//!   a second worker costs more than it saves,
//! * [`morsels`] — a contiguous partition of `0..n_buckets`, where the
//!   workers start, so each worker scans a run of adjacent buckets
//!   (preserving sequential page access within a worker), and
//! * [`run_morsels`] — the one place the crate spawns threads: every
//!   worker starts on its morsel, takes over half of another worker's
//!   unclaimed buckets when its own run dry, and folds every range it
//!   claims into one partial of its own.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, MutexGuard, OnceLock};

use sma_core::LEVEL2_FANOUT;

use crate::op::ExecError;

/// Degree of intra-query parallelism for bucket loops.
///
/// `Parallelism::default()` is the number of available cores; use
/// [`Parallelism::serial`] to force the single-threaded path (useful for
/// deterministic I/O traces in tests and benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// Exactly one thread: the serial paper algorithm, unchanged.
    pub fn serial() -> Parallelism {
        Parallelism(NonZeroUsize::MIN)
    }

    /// `threads` worker threads (clamped up to at least 1).
    pub fn new(threads: usize) -> Parallelism {
        Parallelism(NonZeroUsize::new(threads.max(1)).unwrap_or(NonZeroUsize::MIN))
    }

    /// One thread per available core (falls back to 1 when the runtime
    /// cannot tell). The core count is read once per process: asking the
    /// OS reads cgroup files, tens of microseconds that every operator
    /// constructor would otherwise pay.
    pub fn available() -> Parallelism {
        static CORES: OnceLock<NonZeroUsize> = OnceLock::new();
        Parallelism(
            *CORES
                .get_or_init(|| std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)),
        )
    }

    /// Number of worker threads.
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::available()
    }
}

/// The planned work, in nanoseconds of one worker's time, above which two
/// workers beat one. `paper_tables e8`'s sweep of loop sizes on a 2-core
/// host saw two workers lose below about 300 planned pages, break even
/// up to about 550 and win above; this is about 330 pages at
/// [`PAGE_NS`](crate::sma_gaggr::PAGE_NS) (DESIGN.md §6). An empty
/// two-worker loop starts and joins in 50–84 µs there, but a second
/// worker that wakes an idle core and starts on cold caches costs far
/// more, so the crossover lies well above twice that start-up.
pub const CROSSOVER_NS: u64 = 1_000_000;

/// The workers a loop of `planned_ns` nanoseconds pays for, of at most
/// `threads`: one, which [`run_morsels`] runs on the calling thread, up to
/// [`CROSSOVER_NS`]; all `threads` above it.
pub fn workers_for(planned_ns: u64, threads: usize) -> usize {
    if planned_ns > CROSSOVER_NS {
        threads
    } else {
        1
    }
}

/// Splits `0..n_buckets` into at most `threads` contiguous, non-empty
/// morsels covering the whole range in order.
///
/// Contiguity matters twice: each worker reads adjacent pages (the
/// sequential-I/O pattern the cost model rewards), and concatenating the
/// morsel results in order reproduces the serial bucket order exactly.
pub fn morsels(n_buckets: u32, threads: usize) -> Vec<Range<u32>> {
    if n_buckets == 0 {
        return Vec::new();
    }
    let threads = (threads.max(1) as u32).min(n_buckets);
    let chunk = n_buckets.div_ceil(threads);
    (0..threads)
        .map(|t| (t * chunk).min(n_buckets)..((t + 1) * chunk).min(n_buckets))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Runs `work` over the buckets `0..n_buckets` and returns one partial
/// per worker: `init` makes it, and `work` folds every range the worker
/// claims into it. Ranges are disjoint and together cover every bucket
/// once; partials whose merge is order-independent (group states,
/// counters, sorted bucket lists) merge to the serial loop's result.
///
/// A single morsel runs on the calling thread, in one call. Several run
/// on scoped worker threads, one per morsel of
/// [`morsels`]`(n_buckets, threads)`. A worker claims its morsel one
/// super-bucket ([`LEVEL2_FANOUT`] buckets, on their boundaries) at a
/// time. Once its morsel is claimed, it takes the upper half of the
/// largest range no worker has claimed yet, cut on a super-bucket
/// boundary so that no level-2 merge straddles two workers, and goes on
/// there (a *steal*). So a worker whose pages are resident takes over
/// from one whose pages miss, and each steal costs one seek.
///
/// Only a worker that has claimed a range is stolen from. One that has
/// not started yet is behind on its thread's start, not on its buckets:
/// the join waits for that start whatever is taken from it. When every
/// morsel takes longer than a thread start, every worker has started
/// before any runs dry, so this costs no steal; a shorter loop (grading,
/// a point select's bucket loop) keeps the contiguous split, instead of
/// splitting by which thread the scheduler happened to start first.
///
/// Every worker is joined before any result is looked at. A worker stops
/// at its first error, and the error of the range that starts first
/// wins: it is the error a serial loop over the same buckets would have
/// stopped at, since the buckets a failed worker leaves unclaimed all
/// follow its error. A panic in `init` or `work` becomes
/// [`ExecError::Plan`] at any worker count: a spawned worker's at the
/// range it was on, the calling thread's before it reaches the caller.
pub fn run_morsels<S, I, F>(
    n_buckets: u32,
    threads: usize,
    init: I,
    work: F,
) -> Result<Vec<S>, ExecError>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<u32>) -> Result<(), ExecError> + Sync,
{
    let parts = morsels(n_buckets, threads);
    if parts.len() <= 1 {
        return parts
            .into_iter()
            .map(|r| {
                // The body's state is dropped with the error, so nothing
                // it left half-updated is looked at again.
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut partial = init();
                    work(&mut partial, r)?;
                    Ok(partial)
                }))
                .unwrap_or_else(|_| Err(worker_panicked()))
            })
            .collect();
    }
    let workers = parts.len();
    let claims = Mutex::new(Claims::new(parts));
    let joined: Vec<_> = std::thread::scope(|scope| {
        let (init, work, claims) = (&init, &work, &claims);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut partial = init();
                    loop {
                        let Some(range) = lock(claims).next(w) else {
                            return Ok(partial);
                        };
                        let start = range.start;
                        if let Err(e) = work(&mut partial, range) {
                            lock(claims).abandon(w);
                            return Err((start, e));
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let at = claims.into_inner().unwrap_or_else(|e| e.into_inner()).at;
    let mut partials = Vec::with_capacity(workers);
    let mut first_error: Option<(u32, ExecError)> = None;
    for (joined, at) in joined.into_iter().zip(at) {
        let failed = match joined {
            Ok(Ok(partial)) => {
                partials.push(partial);
                continue;
            }
            Ok(Err(failed)) => failed,
            // sma-lint: allow(A3-error-swallowing) -- join's payload is Box<dyn Any>, not an error; it is converted to a typed error here
            Err(_) => (at, worker_panicked()),
        };
        if first_error
            .as_ref()
            .is_none_or(|(first, _)| failed.0 < *first)
        {
            first_error = Some(failed);
        }
    }
    match first_error {
        Some((_, e)) => Err(e),
        None => Ok(partials),
    }
}

/// What a panic in a loop's body becomes.
fn worker_panicked() -> ExecError {
    ExecError::Plan("bucket worker panicked".into())
}

/// The buckets no worker of a `run_morsels` call has claimed yet.
struct Claims {
    /// `left[w]`: the unclaimed rest of the range worker `w` works in.
    left: Vec<Range<u32>>,
    /// `at[w]`: the first bucket of the range worker `w` claimed last.
    at: Vec<u32>,
    /// `started[w]`: whether worker `w` has claimed a range; only a
    /// started worker's rest can be stolen.
    started: Vec<bool>,
}

impl Claims {
    /// Claims over `morsels`, worker `w` starting on `morsels[w]`.
    fn new(morsels: Vec<Range<u32>>) -> Claims {
        Claims {
            at: morsels.iter().map(|r| r.start).collect(),
            started: vec![false; morsels.len()],
            left: morsels,
        }
    }

    /// Worker `w`'s next range: up to the next super-bucket boundary of
    /// its own range, after a steal from a started worker if that is all
    /// claimed. `None` when nothing is left that could be cut.
    fn next(&mut self, w: usize) -> Option<Range<u32>> {
        if self.left[w].is_empty() {
            let (victim, cut) = (0..self.left.len())
                .filter(|&v| self.started[v])
                .filter_map(|v| {
                    let r = &self.left[v];
                    Some((v, r.end - r.start, steal_cut(r)?))
                })
                .max_by_key(|&(_, len, _)| len)
                .map(|(v, _, cut)| (v, cut))?;
            self.left[w] = cut..self.left[victim].end;
            self.left[victim].end = cut;
        }
        self.started[w] = true;
        let own = &mut self.left[w];
        let boundary = (own.start / LEVEL2_FANOUT + 1).saturating_mul(LEVEL2_FANOUT);
        let range = own.start..boundary.min(own.end);
        own.start = range.end;
        self.at[w] = range.start;
        Some(range)
    }

    /// Drops what worker `w` left unclaimed after it failed: those
    /// buckets follow its error in bucket order, so nobody reads them.
    fn abandon(&mut self, w: usize) {
        let rest = &mut self.left[w];
        rest.start = rest.end;
    }
}

/// Where a thief cuts `r`: the super-bucket boundary strictly inside it
/// nearest its middle, or `None` when `r` lies within one super-bucket.
fn steal_cut(r: &Range<u32>) -> Option<u32> {
    let mid = r.start + (r.end - r.start) / 2;
    let below = mid - mid % LEVEL2_FANOUT;
    [below, below.saturating_add(LEVEL2_FANOUT)]
        .into_iter()
        .filter(|&cut| r.start < cut && cut < r.end)
        .min_by_key(|&cut| cut.abs_diff(mid))
}

/// Locks the claims, ignoring poisoning: no claim panics while holding
/// the lock, and a worker that panicked in `work` left them consistent.
fn lock(claims: &Mutex<Claims>) -> MutexGuard<'_, Claims> {
    claims.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_the_range_in_order() {
        for n in [0u32, 1, 2, 3, 7, 30, 31, 1000] {
            for threads in [1usize, 2, 3, 4, 8, 64] {
                let parts = morsels(n, threads);
                let flat: Vec<u32> = parts.iter().cloned().flatten().collect();
                let expect: Vec<u32> = (0..n).collect();
                assert_eq!(flat, expect, "n={n} threads={threads}");
                assert!(parts.len() <= threads.max(1), "n={n} threads={threads}");
                assert!(parts.iter().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    fn zero_threads_behaves_like_one() {
        assert_eq!(morsels(5, 0), vec![0..5]);
    }

    /// The buckets each worker visited, from partials that record ranges.
    fn visited(n: u32, threads: usize) -> Vec<Vec<Range<u32>>> {
        run_morsels(n, threads, Vec::new, |seen, r| {
            seen.push(r);
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn run_morsels_visits_every_bucket_once_with_one_partial_per_worker() {
        for n in [0u32, 1, 10, 16, 33, 100, 1000] {
            for threads in [1usize, 2, 3, 8] {
                let partials = visited(n, threads);
                assert_eq!(partials.len(), morsels(n, threads).len(), "{n}, {threads}");
                let mut flat: Vec<u32> = partials.into_iter().flatten().flatten().collect();
                flat.sort_unstable();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "{n}, {threads}");
            }
        }
        let whole = visited(100, 1);
        assert_eq!(whole, vec![vec![0..100]], "one morsel runs in one call");
    }

    /// Worker 0's first range blocks until another worker has run a range
    /// of worker 0's morsel, which only a steal can hand it: every bucket
    /// is still visited once, and every stolen range starts on a
    /// super-bucket boundary. Only a started worker is stolen from, so
    /// the other worker's first range waits for worker 0 to start.
    #[test]
    fn a_slow_morsel_is_stolen_from_on_super_bucket_boundaries() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        const N: u32 = 8 * LEVEL2_FANOUT;
        let first_morsel = morsels(N, 2)[0].clone();
        let (started, stolen) = (AtomicBool::new(false), AtomicBool::new(false));
        let wait_for = |flag: &AtomicBool| {
            let since = Instant::now();
            while !flag.load(Ordering::SeqCst) && since.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let body = |fail_at: &[u32]| {
            let (started, stolen) = (&started, &stolen);
            let first_morsel = first_morsel.clone();
            let fail_at = fail_at.to_vec();
            move |seen: &mut Vec<Range<u32>>, r: Range<u32>| {
                if r.start == 0 {
                    started.store(true, Ordering::SeqCst);
                    wait_for(stolen);
                } else if first_morsel.contains(&r.start) {
                    stolen.store(true, Ordering::SeqCst);
                } else {
                    wait_for(started);
                }
                if let Some(b) = fail_at.iter().find(|b| r.contains(b)) {
                    return Err(ExecError::Plan(format!("bucket {b}")));
                }
                seen.push(r);
                Ok(())
            }
        };
        let partials = run_morsels(N, 2, Vec::new, body(&[])).unwrap();
        assert!(stolen.load(Ordering::SeqCst), "no steal happened");
        let thief = partials
            .iter()
            .find(|seen| seen.iter().all(|r| r.start != 0))
            .unwrap();
        let taken: Vec<&Range<u32>> = thief
            .iter()
            .filter(|r| first_morsel.contains(&r.start))
            .collect();
        assert!(!taken.is_empty());
        assert!(
            taken.iter().all(|r| r.start % LEVEL2_FANOUT == 0),
            "{taken:?}"
        );
        let mut flat: Vec<u32> = partials.into_iter().flatten().flatten().collect();
        flat.sort_unstable();
        let serial: Vec<u32> = visited(N, 1).into_iter().flatten().flatten().collect();
        assert_eq!(flat, serial);

        // An error in a stolen range is raised first, one in an earlier
        // bucket of the slow range later: the earlier bucket's wins.
        started.store(false, Ordering::SeqCst);
        stolen.store(false, Ordering::SeqCst);
        let stolen_bucket = first_morsel.end - 1;
        let err = run_morsels(N, 2, Vec::new, body(&[5, stolen_bucket])).unwrap_err();
        assert!(stolen.load(Ordering::SeqCst), "no steal happened");
        assert!(
            matches!(&err, ExecError::Plan(m) if m == "bucket 5"),
            "{err}"
        );
    }

    /// A worker that has not claimed a range yet keeps its morsel: one
    /// that runs dry before then finds nothing to steal, and takes the
    /// upper half of its rest once it has claimed its first range.
    #[test]
    fn only_a_started_worker_is_stolen_from() {
        const N: u32 = 8 * LEVEL2_FANOUT;
        let parts = morsels(N, 2);
        let mut claims = Claims::new(parts.clone());
        let mut own = Vec::new();
        while let Some(r) = claims.next(0) {
            own.push(r);
        }
        let covered = own.first().map(|r| r.start)..own.last().map(|r| r.end);
        assert_eq!(covered, Some(parts[0].start)..Some(parts[0].end));
        let first = claims.next(1).unwrap();
        assert_eq!(first, parts[1].start..parts[1].start + LEVEL2_FANOUT);
        let stolen = claims.next(0).unwrap();
        assert_eq!(Some(stolen.start), steal_cut(&(first.end..parts[1].end)));
        assert_eq!(claims.left[1], first.end..stolen.start);
    }

    /// A failed worker's unclaimed buckets all follow its error, so no
    /// other worker steals and reads them: worker 0 finishes its morsel
    /// only after worker 1 failed on its first range, and then finds
    /// nothing to steal.
    #[test]
    fn nobody_steals_past_a_failed_range() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        const N: u32 = 8 * LEVEL2_FANOUT;
        let [own, failing] = [0, 1].map(|w| morsels(N, 2)[w].clone());
        let (failed, read_past) = (AtomicBool::new(false), AtomicBool::new(false));
        let err = run_morsels(
            N,
            2,
            || (),
            |_, r| {
                if r.start == failing.start {
                    failed.store(true, Ordering::SeqCst);
                    return Err(ExecError::Plan("worker 1 failed".into()));
                }
                if r.end == own.end {
                    let since = Instant::now();
                    while !failed.load(Ordering::SeqCst)
                        && since.elapsed() < Duration::from_secs(10)
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    // Worker 1 drops its unclaimed rest just after its
                    // body returns the error; give it time to.
                    std::thread::sleep(Duration::from_millis(50));
                }
                if r.end > own.end {
                    read_past.store(true, Ordering::SeqCst);
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert!(failed.load(Ordering::SeqCst));
        assert!(
            !read_past.load(Ordering::SeqCst),
            "a range past the error was read"
        );
        assert!(
            matches!(&err, ExecError::Plan(m) if m == "worker 1 failed"),
            "{err}"
        );
    }

    #[test]
    fn run_morsels_reports_the_first_error_in_bucket_order() {
        let err = run_morsels(
            8,
            4,
            || (),
            |_, r| {
                if r.start >= 2 {
                    Err(ExecError::Plan(format!("morsel at {}", r.start)))
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, ExecError::Plan(m) if m == "morsel at 2"),
            "{err}"
        );
    }

    /// A panic in the body is an error at one worker, on the calling
    /// thread, as at two, on spawned ones; so is one in `init`.
    #[test]
    fn run_morsels_turns_a_worker_panic_into_an_error() {
        for threads in [1, 2] {
            let err = run_morsels(
                4,
                threads,
                || (),
                |_, r| {
                    if r.contains(&3) {
                        panic!("worker down");
                    }
                    Ok(())
                },
            )
            .unwrap_err();
            assert!(matches!(err, ExecError::Plan(_)), "{threads}: {err}");
            let err = run_morsels(4, threads, || panic!("no partial"), |_: &mut (), _| Ok(()))
                .unwrap_err();
            assert!(matches!(err, ExecError::Plan(_)), "{threads}: {err}");
        }
    }

    #[test]
    fn parallelism_knob() {
        assert_eq!(Parallelism::serial().get(), 1);
        assert_eq!(Parallelism::new(0).get(), 1);
        assert_eq!(Parallelism::new(6).get(), 6);
        assert!(Parallelism::available().get() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::available());
    }
}
