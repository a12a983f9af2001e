//! The persistent worker thread pool behind parallel partition scans.
//!
//! Figure 3 of the paper shows a long-lived "worker thread pool"
//! feeding per-thread result heaps. Spawning OS threads per query
//! would add milliseconds of jitter to a sub-10ms latency budget, so
//! the pool is created once per database handle and reused by every
//! search and batch scan.
//!
//! [`ScanPool::fold_indexed`] is the one fan-out primitive every query
//! path uses: each worker claims indexes off a shared cursor and folds
//! them into a state it owns — the partition scan's per-worker heaps,
//! one per query as in Figure 3, with the worker's SQ4 scorers and
//! tally. [`ScanPool::parallel_indexed`] is its
//! map form: a typed job per index, results in index order. The
//! work-stealing cursor, panic propagation, and first-error capture all
//! live here — call sites never hand-roll `AtomicUsize` cursors or
//! `Mutex` collectors.
//!
//! Jobs *borrow from the caller's stack* (the read transaction, the
//! query vectors, the result heaps). Soundness follows the classic
//! scoped-pool argument: the dispatch blocks on a [`WaitGroup`] until
//! every submitted job has finished (or panicked), so no job can
//! outlive the borrowed environment; the lifetime transmute below is
//! justified by exactly that barrier.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Sender};
use crossbeam::sync::WaitGroup;
use parking_lot::Mutex;

use crate::error::{Error, Result};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool executing borrowed (scoped) jobs.
pub(crate) struct ScanPool {
    sender: Sender<Job>,
    workers: usize,
}

impl ScanPool {
    /// Spawns `workers` long-lived threads.
    pub fn new(workers: usize) -> ScanPool {
        let workers = workers.max(1);
        let (sender, receiver) = unbounded::<Job>();
        for i in 0..workers {
            let rx = receiver.clone();
            std::thread::Builder::new()
                .name(format!("micronn-scan-{i}"))
                .spawn(move || {
                    // Exits when the pool (sender) is dropped.
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("failed to spawn scan worker");
        }
        ScanPool { sender, workers }
    }

    /// Folds `0..n` across the pool: each worker claims the next
    /// unclaimed index off a shared atomic cursor — so large items
    /// naturally steal less work from their neighbours — and runs
    /// `f(&mut state, i)` on a state of its own, made by `init` when it
    /// claims its first index. Returns the states, at most one per
    /// worker, in no particular order.
    ///
    /// On failure the *lowest-index* error is returned,
    /// deterministically: the cursor hands out indexes in ascending
    /// order and claimed indexes always run to completion, so the
    /// minimum failing index is always reached regardless of the worker
    /// count or scheduling. (Later indexes may be skipped once a
    /// failure is observed.) A panicking job propagates the panic to
    /// the caller after all in-flight jobs have settled.
    ///
    /// With one worker (or one item) the fold runs inline on the caller
    /// thread into one state, stopping at the first error — the same
    /// first-error-by-index contract. Must not be called from a pool
    /// worker itself (jobs scheduling jobs could deadlock a
    /// single-worker pool).
    pub fn fold_indexed<'env, S, I, F>(&self, n: usize, init: I, f: F) -> Result<Vec<S>>
    where
        S: Send + 'env,
        I: Fn() -> S + Sync + 'env,
        F: Fn(&mut S, usize) -> Result<()> + Sync + 'env,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        let workers = self.workers.min(n);
        if workers <= 1 {
            let mut state = init();
            for i in 0..n {
                f(&mut state, i)?;
            }
            return Ok(vec![state]);
        }
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let states: Mutex<Vec<S>> = Mutex::new(Vec::with_capacity(workers));
        let first_error: Mutex<Option<(usize, Error)>> = Mutex::new(None);
        let jobs: Vec<_> = (0..workers)
            .map(|_| {
                let (cursor, failed) = (&cursor, &failed);
                let (states, first_error, init, f) = (&states, &first_error, &init, &f);
                move || {
                    let mut state = None;
                    while !failed.load(Ordering::Relaxed) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if let Err(e) = f(state.get_or_insert_with(init), i) {
                            failed.store(true, Ordering::Relaxed);
                            let mut slot = first_error.lock();
                            match &*slot {
                                Some((j, _)) if *j <= i => {}
                                _ => *slot = Some((i, e)),
                            }
                            break;
                        }
                    }
                    states.lock().extend(state);
                }
            })
            .collect();
        self.run_scoped(jobs);
        if let Some((_, e)) = first_error.into_inner() {
            return Err(e);
        }
        Ok(states.into_inner())
    }

    /// Runs `f(0)..f(n - 1)` across the pool and returns the results
    /// **in index order**: [`fold_indexed`](Self::fold_indexed) with
    /// each worker collecting its `(index, result)` pairs, and its
    /// error and panic contract. With one worker (or one item) the
    /// closure runs inline and the results are collected directly.
    pub fn parallel_indexed<'env, T, F>(&self, n: usize, f: F) -> Result<Vec<T>>
    where
        T: Send + 'env,
        F: Fn(usize) -> Result<T> + Sync + 'env,
    {
        if self.workers.min(n) <= 1 {
            return (0..n).map(f).collect();
        }
        let states = self.fold_indexed(n, Vec::new, |done: &mut Vec<(usize, T)>, i| {
            done.push((i, f(i)?));
            Ok(())
        })?;
        let mut indexed: Vec<(usize, T)> = states.into_iter().flatten().collect();
        indexed.sort_unstable_by_key(|&(i, _)| i);
        debug_assert_eq!(indexed.len(), n, "every index produced a result");
        Ok(indexed.into_iter().map(|(_, v)| v).collect())
    }

    /// Executes `jobs` on the pool and blocks until all complete.
    /// Panics if any job panicked (after all jobs have settled, so no
    /// borrowed state is left in use).
    fn run_scoped<'env, F>(&self, jobs: Vec<F>)
    where
        F: FnOnce() + Send + 'env,
    {
        if jobs.is_empty() {
            return;
        }
        let wg = WaitGroup::new();
        let panicked = Arc::new(AtomicBool::new(false));
        for job in jobs {
            let wg = wg.clone();
            let panicked = Arc::clone(&panicked);
            let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                    panicked.store(true, Ordering::SeqCst);
                }
                drop(wg);
            });
            // SAFETY: `run_scoped` blocks on `wg.wait()` below until
            // every wrapped job has run to completion, so the job can
            // never be executed after `'env` ends. The transmute only
            // erases the lifetime; the type is otherwise identical.
            let erased: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(wrapped) };
            self.sender.send(erased).expect("scan pool shut down");
        }
        wg.wait();
        if panicked.load(Ordering::SeqCst) {
            panic!("scan worker panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let pool = ScanPool::new(4);
        let base = 100usize; // stack-borrowed by jobs
        let got = pool
            .parallel_indexed(64, |i| {
                // Stagger completion so out-of-order finishes are likely.
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                Ok(base + i)
            })
            .unwrap();
        assert_eq!(got, (100..164).collect::<Vec<_>>());
        // Reusable.
        let again = pool.parallel_indexed(3, |i| Ok(i * 2)).unwrap();
        assert_eq!(again, vec![0, 2, 4]);
    }

    #[test]
    fn empty_and_single_item_run_inline() {
        let pool = ScanPool::new(2);
        assert!(pool.parallel_indexed(0, |_| Ok(0u8)).unwrap().is_empty());
        assert_eq!(pool.parallel_indexed(1, |i| Ok(i + 41)).unwrap(), vec![41]);
    }

    #[test]
    fn first_error_by_index_is_deterministic() {
        for workers in [1, 2, 8] {
            let pool = ScanPool::new(workers);
            for _ in 0..16 {
                let err = pool
                    .parallel_indexed(32, |i| {
                        if i == 5 || i == 19 {
                            Err(Error::Config(format!("boom at {i}")))
                        } else {
                            Ok(i)
                        }
                    })
                    .unwrap_err();
                assert_eq!(
                    err.to_string(),
                    Error::Config("boom at 5".into()).to_string(),
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn worker_panic_propagates_after_settling() {
        let pool = ScanPool::new(2);
        let done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.parallel_indexed(2, |i| {
                if i == 0 {
                    panic!("boom");
                }
                done.fetch_add(1, Ordering::Relaxed);
                Ok(i)
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(done.load(Ordering::Relaxed), 1, "other jobs still ran");
        // The pool survives a panicked job.
        let ok = pool.parallel_indexed(2, Ok).unwrap();
        assert_eq!(ok, vec![0, 1]);
    }

    #[test]
    fn fold_keeps_at_most_one_state_per_worker_and_sees_every_index() {
        for workers in [1, 2, 8] {
            let pool = ScanPool::new(workers);
            let inits = AtomicUsize::new(0);
            for n in [1, 3, 64] {
                inits.store(0, Ordering::SeqCst);
                let states = pool
                    .fold_indexed(
                        n,
                        || {
                            inits.fetch_add(1, Ordering::SeqCst);
                            Vec::new()
                        },
                        |seen: &mut Vec<usize>, i| {
                            if i % 5 == 0 {
                                std::thread::sleep(std::time::Duration::from_micros(100));
                            }
                            seen.push(i);
                            Ok(())
                        },
                    )
                    .unwrap();
                let what = format!("workers={workers} n={n}");
                assert!(states.len() <= workers.min(n), "{what}");
                assert_eq!(inits.load(Ordering::SeqCst), states.len(), "{what}");
                let mut all: Vec<usize> = states.concat();
                all.sort_unstable();
                assert_eq!(all, (0..n).collect::<Vec<_>>(), "{what}");
            }
            assert!(pool
                .fold_indexed(0, || (), |_, _| Ok(()))
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn fold_first_error_by_index_is_deterministic() {
        for workers in [1, 2, 8] {
            let pool = ScanPool::new(workers);
            for _ in 0..16 {
                let err = pool
                    .fold_indexed(
                        32,
                        || 0usize,
                        |sum, i| {
                            if i == 5 || i == 19 {
                                return Err(Error::Config(format!("boom at {i}")));
                            }
                            *sum += i;
                            Ok(())
                        },
                    )
                    .unwrap_err();
                assert_eq!(
                    err.to_string(),
                    Error::Config("boom at 5".into()).to_string(),
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn fold_panic_propagates_after_settling() {
        let pool = ScanPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.fold_indexed(
                8,
                || (),
                |_, i| {
                    if i == 3 {
                        panic!("boom");
                    }
                    Ok(())
                },
            );
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool survives a panicked job.
        let states = pool
            .fold_indexed(
                4,
                || 0,
                |n, _| {
                    *n += 1;
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(states.iter().sum::<i32>(), 4);
    }
}
