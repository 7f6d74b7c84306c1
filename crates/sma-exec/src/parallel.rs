//! Bucket-parallel execution support.
//!
//! The paper's operators iterate `forall bucket in buckets` — an
//! embarrassingly parallel loop, because SMA grading is pure in-memory
//! arithmetic and every bucket's pages are disjoint. This module provides
//! the three small pieces the operators share:
//!
//! * [`Parallelism`] — the knob saying how many worker threads to use
//!   (default: every available core),
//! * [`morsels`] — a contiguous partition of `0..n_buckets` so each worker
//!   scans a run of adjacent buckets (preserving sequential page access
//!   within a worker) and partial results can be merged back **in bucket
//!   order**, keeping parallel output byte-identical to the serial path,
//!   and
//! * `run_morsels` — the one place the crate spawns threads: it runs a
//!   bucket-range body on every morsel and hands the partials back in
//!   morsel order.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

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

/// Runs `work` over every range of [`morsels`]`(n_buckets, threads)` and
/// returns the partials in morsel order — bucket order — so the caller's
/// merge reproduces the serial loop exactly.
///
/// A single morsel runs on the calling thread; several run on scoped
/// worker threads, one each. Every worker is joined before any result is
/// looked at, and the first error in morsel order wins: it is the error a
/// serial loop over the same buckets would have stopped at. A panicking
/// worker becomes [`ExecError::Plan`].
pub(crate) fn run_morsels<T, F>(
    n_buckets: u32,
    threads: usize,
    work: F,
) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(Range<u32>) -> Result<T, ExecError> + Sync,
{
    let parts = morsels(n_buckets, threads);
    if parts.len() <= 1 {
        return parts.into_iter().map(work).collect();
    }
    let work = &work;
    let joined: Vec<Result<T, ExecError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|r| scope.spawn(move || work(r)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // sma-lint: allow(A3-error-swallowing) -- join's payload is Box<dyn Any>, not an error; it is converted to a typed error here
                Err(_) => Err(ExecError::Plan("bucket worker panicked".into())),
            })
            .collect()
    });
    joined.into_iter().collect()
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

    #[test]
    fn run_morsels_returns_partials_in_bucket_order() {
        for threads in [1usize, 2, 3, 8] {
            let parts = run_morsels(10, threads, |r| Ok(r.collect::<Vec<u32>>())).unwrap();
            assert_eq!(parts.len(), morsels(10, threads).len(), "{threads} threads");
            let flat: Vec<u32> = parts.into_iter().flatten().collect();
            assert_eq!(flat, (0..10).collect::<Vec<_>>(), "{threads} threads");
        }
        assert!(run_morsels(0, 4, |_| Ok(())).unwrap().is_empty());
    }

    #[test]
    fn run_morsels_reports_the_first_error_in_bucket_order() {
        let err = run_morsels(8, 4, |r| {
            if r.start >= 2 {
                Err(ExecError::Plan(format!("morsel at {}", r.start)))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(
            matches!(&err, ExecError::Plan(m) if m == "morsel at 2"),
            "{err}"
        );
    }

    #[test]
    fn run_morsels_turns_a_worker_panic_into_an_error() {
        let err = run_morsels(4, 2, |r| {
            if r.start > 0 {
                panic!("worker down");
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, ExecError::Plan(_)), "{err}");
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
