//! Data-parallel primitives.

use crate::faults::{self, site, WorkerPanic};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of worker threads to use by default (the machine's available
/// parallelism; 1 if it cannot be determined).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Pick a work-stealing block size: small enough to balance, large enough to
/// amortise the atomic increment.
fn block_size(len: usize, threads: usize) -> usize {
    (len / (threads * 8)).max(1)
}

/// Apply `f` to every element of `items` (with its index), in parallel on
/// `threads` threads, preserving order of results.
///
/// Work is distributed by atomic block stealing, so uneven per-item cost
/// balances automatically. Falls back to a plain sequential map when
/// `threads <= 1` or the input is tiny.
///
/// `f` must be `Sync` because multiple workers call it concurrently; it is
/// only given `&T`, never `&mut`.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, threads, || (), |(), i, t| f(i, t))
}

/// [`par_map`] with per-worker scratch state: every worker thread calls
/// `init()` exactly once and threads the resulting value, by `&mut`, through
/// each item it processes. This is the primitive behind batch-scheduled
/// Monte Carlo loops that reuse per-trial scratch buffers (label draws,
/// sweep frontiers) instead of reallocating them on every item.
///
/// The state is deliberately invisible in the output: results depend only on
/// `(index, item)`, so the determinism contract of [`par_map`] carries over
/// — use the state for *allocations*, never for cross-item accumulation.
pub fn par_map_with<T, S, R, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    if threads <= 1 || len <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let threads = threads.min(len);
    let block = block_size(len, threads);
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let start = cursor.fetch_add(block, Ordering::Relaxed);
                    if start >= len {
                        break;
                    }
                    let end = (start + block).min(len);
                    let out: Vec<R> = (start..end).map(|i| f(&mut state, i, &items[i])).collect();
                    collected.lock().push((start, out));
                }
            });
        }
    });
    let mut chunks = collected.into_inner();
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut result = Vec::with_capacity(len);
    for (_, chunk) in chunks {
        result.extend(chunk);
    }
    debug_assert_eq!(result.len(), len);
    result
}

/// Panic-isolated [`par_map`]: item panics are caught instead of unwinding
/// through the caller, and surface as a structured [`WorkerPanic`] carrying
/// the smallest failing index (see [`try_par_map_with`] for the contract).
pub fn try_par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    try_par_map_with(items, threads, || (), |(), i, t| f(i, t))
}

/// Panic-isolated [`par_map_with`]: every item is evaluated under
/// `catch_unwind`, and a panicking item does **not** poison the rest of the
/// run —
///
/// * the block queue drains: remaining items are still evaluated, so every
///   [`faults`] attempt counter advances exactly once per item and a retry
///   of the whole call converges deterministically;
/// * a worker whose item unwound discards its scratch state and re-`init`s
///   (a half-updated scratch is never reused);
/// * the error is the [`WorkerPanic`] with the **smallest** item index —
///   identical no matter how many threads ran or how blocks interleaved.
///
/// This is the hardened entry point the sweep grid and adaptive runner sit
/// on; [`par_map_with`] keeps the zero-overhead unwinding behaviour for
/// callers that treat a panic as fatal.
pub fn try_par_map_with<T, S, R, I, F>(
    items: &[T],
    threads: usize,
    init: I,
    f: F,
) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let len = items.len();
    if len == 0 {
        return Ok(Vec::new());
    }
    // One catch_unwind frame per item: the item either yields Ok(r) or
    // records its panic and the worker rebuilds its scratch.
    let guarded = |state: &mut Option<S>, i: usize, t: &T| -> Result<R, WorkerPanic> {
        let live = state.get_or_insert_with(&init);
        match catch_unwind(AssertUnwindSafe(|| {
            faults::hit(site::POOL_ITEM, i as u64);
            f(live, i, t)
        })) {
            Ok(r) => Ok(r),
            Err(payload) => {
                *state = None; // poisoned scratch: drop, never reuse
                Err(WorkerPanic::from_payload(i, payload.as_ref()))
            }
        }
    };
    if threads <= 1 || len <= 1 {
        let mut state: Option<S> = None;
        let mut first_panic: Option<WorkerPanic> = None;
        let mut out = Vec::with_capacity(len);
        for (i, t) in items.iter().enumerate() {
            match guarded(&mut state, i, t) {
                Ok(r) => out.push(r),
                Err(wp) => {
                    if first_panic.is_none() {
                        first_panic = Some(wp);
                    }
                }
            }
        }
        return match first_panic {
            None => Ok(out),
            Some(wp) => Err(wp),
        };
    }
    let threads = threads.min(len);
    let block = block_size(len, threads);
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    let panics: Mutex<Vec<WorkerPanic>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state: Option<S> = None;
                loop {
                    let start = cursor.fetch_add(block, Ordering::Relaxed);
                    if start >= len {
                        break;
                    }
                    let end = (start + block).min(len);
                    let mut out = Vec::with_capacity(end - start);
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        match guarded(&mut state, i, item) {
                            Ok(r) => out.push(r),
                            Err(wp) => panics.lock().push(wp),
                        }
                    }
                    collected.lock().push((start, out));
                }
            });
        }
    });
    let mut panics = panics.into_inner();
    panics.sort_by_key(|wp| wp.index);
    if let Some(wp) = panics.into_iter().next() {
        return Err(wp);
    }
    let mut chunks = collected.into_inner();
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut result = Vec::with_capacity(len);
    for (_, chunk) in chunks {
        result.extend(chunk);
    }
    debug_assert_eq!(result.len(), len);
    Ok(result)
}

/// Parallel `for i in 0..count { f(i) }` returning results in index order.
pub fn par_for<R, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..count).collect();
    par_map(&indices, threads, |_, &i| f(i))
}

/// [`par_for`] with per-worker scratch state (see [`par_map_with`]).
pub fn par_for_with<S, R, I, F>(count: usize, threads: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..count).collect();
    par_map_with(&indices, threads, init, |state, _, &i| f(state, i))
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    pending: Mutex<usize>,
    idle: Condvar,
    panicked: AtomicUsize,
}

/// Error from [`ThreadPool::try_execute`]: the pool's job channel is closed
/// (its workers are gone), so the job was not submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool is closed; job not submitted")
    }
}

impl std::error::Error for PoolClosed {}

/// A persistent worker pool over a crossbeam channel, for irregular task
/// sets where scoped block-stealing does not fit (e.g. recursive work).
///
/// ```
/// use ephemeral_parallel::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = ThreadPool::new(4);
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..100 {
///     let hits = Arc::clone(&hits);
///     pool.execute(move || { hits.fetch_add(1, Ordering::Relaxed); });
/// }
/// pool.wait_idle();
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct ThreadPool {
    sender: Option<crossbeam::channel::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    state: Arc<PoolState>,
    submitted: AtomicUsize,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = crossbeam::channel::unbounded::<Job>();
        let state = Arc::new(PoolState {
            pending: Mutex::new(0),
            idle: Condvar::new(),
            panicked: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|_| {
                let receiver = receiver.clone();
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    while let Ok(job) = receiver.recv() {
                        // Isolate job panics: the worker must survive and the
                        // pending count must drop, or wait_idle would hang.
                        let outcome = catch_unwind(AssertUnwindSafe(job));
                        if outcome.is_err() {
                            state.panicked.fetch_add(1, Ordering::Relaxed);
                        }
                        let mut pending = state.pending.lock();
                        *pending -= 1;
                        if *pending == 0 {
                            state.idle.notify_all();
                        }
                        drop(pending);
                        drop(outcome); // panic payload discarded; job failures are the job's business
                    }
                })
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            state,
            submitted: AtomicUsize::new(0),
        }
    }

    /// Number of workers.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submit a job.
    ///
    /// # Panics
    /// If the pool is closed (cannot happen before `Drop`); use
    /// [`try_execute`](Self::try_execute) for the structured-error form.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if let Err(e) = self.try_execute(job) {
            panic!("{e}");
        }
    }

    /// Submit a job, reporting a closed pool as a structured [`PoolClosed`]
    /// error instead of unwinding. On error the job was not enqueued and
    /// the pending count is unchanged — [`wait_idle`](Self::wait_idle)
    /// cannot wedge on a rejected submission.
    pub fn try_execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolClosed> {
        let Some(sender) = self.sender.as_ref() else {
            return Err(PoolClosed);
        };
        let key = self.submitted.fetch_add(1, Ordering::Relaxed) as u64;
        {
            let mut pending = self.state.pending.lock();
            *pending += 1;
        }
        let wrapped = move || {
            faults::hit(site::POOL_JOB, key);
            job();
        };
        if sender.send(Box::new(wrapped)).is_err() {
            // Undo the reservation so wait_idle stays accurate.
            let mut pending = self.state.pending.lock();
            *pending -= 1;
            if *pending == 0 {
                self.state.idle.notify_all();
            }
            return Err(PoolClosed);
        }
        Ok(())
    }

    /// Number of jobs whose closure panicked (and was isolated) since the
    /// pool was built — the pool's health counter: panics never kill
    /// workers, but callers can observe that they happened.
    #[must_use]
    pub fn panicked_jobs(&self) -> usize {
        self.state.panicked.load(Ordering::Relaxed)
    }

    /// Block until every submitted job has finished.
    pub fn wait_idle(&self) {
        let mut pending = self.state.pending.lock();
        while *pending > 0 {
            self.state.idle.wait(&mut pending);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close the channel so workers drain and exit, then join them.
        self.sender.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, 4, |_, &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 7, 16, 64] {
            assert_eq!(
                par_map(&items, threads, |_, &x| x * x),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_map_passes_correct_indices() {
        let items = vec!["a", "b", "c", "d"];
        let indexed = par_map(&items, 2, |i, &s| format!("{i}{s}"));
        assert_eq!(indexed, vec!["0a", "1b", "2c", "3d"]);
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_with_uneven_work() {
        // Items with wildly different cost still produce ordered output.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, 8, |_, &x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn par_map_with_reuses_state_and_matches_sequential() {
        let items: Vec<u64> = (0..513).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 5, 16] {
            // State is a scratch buffer: correctness must not depend on how
            // items are distributed over workers.
            let out = par_map_with(
                &items,
                threads,
                || Vec::with_capacity(8),
                |scratch: &mut Vec<u64>, _, &x| {
                    scratch.clear();
                    scratch.push(x);
                    scratch[0] * 3
                },
            );
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_with_calls_init_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u64> = (0..100).collect();
        let inits = AtomicUsize::new(0);
        let threads = 4;
        par_map_with(
            &items,
            threads,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), _, &x| x,
        );
        let calls = inits.load(Ordering::Relaxed);
        assert!(
            calls >= 1 && calls <= threads,
            "init called {calls} times for {threads} workers"
        );
    }

    #[test]
    fn par_map_with_empty_skips_init() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let empty: Vec<u32> = vec![];
        let out = par_map_with(
            &empty,
            8,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), _, &x| x,
        );
        assert!(out.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn par_for_with_preserves_order() {
        let out = par_for_with(
            1000,
            8,
            || 0u64,
            |acc, i| {
                *acc += 1; // scratch accumulation must not leak into results
                (i * i) as u64
            },
        );
        let expected: Vec<u64> = (0..1000).map(|i: u64| i * i).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_for_counts() {
        let squares = par_for(10, 4, |i| i * i);
        assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
    }

    #[test]
    fn pool_runs_all_jobs() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..200u64 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(i, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 199 * 200 / 2);
    }

    #[test]
    fn pool_wait_idle_on_empty_pool_returns() {
        let pool = ThreadPool::new(2);
        pool.wait_idle(); // must not hang
    }

    #[test]
    fn pool_survives_multiple_waves() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        for _wave in 0..3 {
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.wait_idle();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn pool_survives_panicking_jobs() {
        // Failure injection: a panicking job must neither kill its worker
        // nor wedge wait_idle.
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..40u64 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                if i % 10 == 3 {
                    panic!("injected failure");
                }
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 36);
        // The pool still works afterwards.
        let counter2 = Arc::clone(&counter);
        pool.execute(move || {
            counter2.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn try_par_map_matches_par_map_when_nothing_panics() {
        let items: Vec<u64> = (0..257).collect();
        let expected = par_map(&items, 4, |i, &x| x * 2 + i as u64);
        for threads in [1, 2, 8] {
            assert_eq!(
                try_par_map(&items, threads, |i, &x| x * 2 + i as u64).unwrap(),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn try_par_map_reports_smallest_failing_index_deterministically() {
        let items: Vec<u64> = (0..300).collect();
        for threads in [1, 2, 8] {
            let err = try_par_map(&items, threads, |_, &x| {
                assert!(x % 7 != 3, "injected at {x}");
                x
            })
            .unwrap_err();
            assert_eq!(err.index, 3, "threads={threads}");
            assert!(err.message.contains("injected at 3"), "{}", err.message);
        }
    }

    #[test]
    fn try_par_map_with_discards_poisoned_scratch() {
        // A panic mid-item leaves the scratch half-updated; the worker must
        // re-init rather than reuse it. We detect reuse by pushing a marker
        // before panicking: a fresh scratch never contains the marker.
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 2, 8] {
            let err = try_par_map_with(&items, threads, Vec::<u64>::new, |scratch, _, &x| {
                assert!(
                    !scratch.contains(&u64::MAX),
                    "poisoned scratch reused at item {x}"
                );
                if x == 9 {
                    scratch.push(u64::MAX); // half-updated state...
                    panic!("die at 9"); // ...must never be seen again
                }
                x
            })
            .unwrap_err();
            assert_eq!(err.index, 9, "threads={threads}");
        }
    }

    #[test]
    fn pool_counts_panicked_jobs_and_try_execute_succeeds() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.panicked_jobs(), 0);
        for i in 0..10u64 {
            pool.try_execute(move || {
                if i % 5 == 1 {
                    panic!("injected");
                }
            })
            .unwrap();
        }
        pool.wait_idle();
        assert_eq!(pool.panicked_jobs(), 2);
    }

    #[test]
    fn pool_zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&flag);
        pool.execute(move || {
            f2.store(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(flag.load(Ordering::Relaxed), 1);
    }
}
