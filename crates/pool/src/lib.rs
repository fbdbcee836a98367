//! **drum-pool** — a persistent, hermetic (std-only) worker pool for the
//! experiment harness.
//!
//! The paper's simulation figures each average ~1000 Monte-Carlo trials per
//! data point across multi-point sweeps. The seed harness spawned and
//! joined a fresh `std::thread::scope` per sweep point with *static* trial
//! chunking, so every point paid thread start-up and a join barrier, and
//! the whole pool idled on the straggler chunk (attacked trials run several
//! times more rounds than baseline trials). This crate replaces that with:
//!
//! * a **lazy global singleton** pool ([`Pool::global`]) sized by
//!   `DRUM_POOL_THREADS` or `available_parallelism`, whose workers persist
//!   for the life of the process and park when idle;
//! * a **shared injector** of job batches with **atomic-index
//!   self-scheduling** inside each batch: whichever worker frees next
//!   claims the next job index, so stragglers never strand the rest of the
//!   pool (work *sharing* — the first cut of the work-stealing design; the
//!   injector plays the role of the global queue, and cross-thread claims
//!   are counted as `pool.steals`);
//! * a **scoped, panic-propagating** [`Pool::run`]/[`Pool::map`] API:
//!   the submitting thread participates in its own batch (so nested
//!   submissions from inside a job cannot deadlock and a 1-thread pool
//!   degenerates to an in-order inline loop) and does not return until
//!   every job has finished, which is what lets jobs borrow from the
//!   caller's stack like `std::thread::scope`;
//! * `pool.jobs` / `pool.steals` / `pool.park` counters exported through a
//!   [`drum_trace::Registry`] (see [`Pool::registry`]), so sweeps can report
//!   scheduler behaviour next to the protocol counters.
//!
//! Determinism is the caller's contract, not the scheduler's: callers that
//! need byte-identical results independent of the worker count (the
//! experiment runner) index all mutable state by job id and reduce in job
//! order — see `drum_sim::runner` and DESIGN.md §15.
//!
//! The lifetime erasure that lets persistent workers run borrowed closures
//! is this crate's single unsafe island ([`raw`]), mirroring
//! `drum_crypto`'s `shani` and `drum_net`'s `sys`.
//!
//! # Examples
//!
//! ```
//! use drum_pool::Pool;
//!
//! let pool = Pool::new(3);
//! let squares = pool.map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod schedule;

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread;

use drum_trace::{names, Counter, Registry};

/// The crate's single unsafe island: lifetime erasure for batch jobs.
///
/// A [`raw::RawJob`] is a raw pointer to the caller's `&dyn Fn(usize)`.
/// Soundness rests on one structural invariant, enforced by [`Pool::run`]:
/// **the submitting call does not return until every claimed job index has
/// finished executing** (the `finished == total` latch), so the pointee
/// outlives every `call` — the same argument `std::thread::scope` makes
/// for its borrowed closures. Panics inside jobs are caught in the worker
/// (`catch_unwind`) and re-thrown on the submitting thread after the
/// latch, so an unwinding job can never leave a dangling pointer behind.
#[allow(unsafe_code)]
mod raw {
    /// Type- and lifetime-erased shared reference to a batch's job closure.
    pub(crate) struct RawJob(*const (dyn Fn(usize) + Sync));

    // SAFETY: see the module docs — `Pool::run` keeps the pointee alive for
    // every `call`, and the pointee is `Sync`, so concurrent shared calls
    // from worker threads are sound.
    unsafe impl Send for RawJob {}
    unsafe impl Sync for RawJob {}

    impl RawJob {
        /// Erases `job`'s lifetime. Callers (only `Pool::run`) must hold
        /// the module invariant: `job` outlives the batch.
        pub(crate) fn erase(job: &(dyn Fn(usize) + Sync)) -> RawJob {
            let ptr: *const (dyn Fn(usize) + Sync) = job;
            // SAFETY: pure lifetime erasure (the pointee type is
            // unchanged); the module invariant keeps the pointee live for
            // every later `call`.
            RawJob(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(ptr)
            })
        }

        /// Runs job `i`.
        pub(crate) fn call(&self, i: usize) {
            // SAFETY: module invariant — the pointee is live and `Sync`.
            unsafe { (*self.0)(i) }
        }
    }
}

/// Lock-free counter handles shared by every worker of one pool.
#[derive(Clone)]
struct Counters {
    /// Jobs executed to completion (including inline fast-path jobs).
    jobs: Counter,
    /// Jobs claimed by a thread other than their batch's submitter — the
    /// cross-thread redistribution dynamic scheduling exists for.
    steals: Counter,
    /// Times an idle worker parked on the injector condvar.
    park: Counter,
}

/// Progress of one batch, guarded by a mutex so the submitter can block on
/// the `done` condvar.
struct Progress {
    finished: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// One submitted batch: `total` jobs claimed by atomic-index
/// self-scheduling from `next`.
struct Batch {
    job: raw::RawJob,
    total: usize,
    next: AtomicUsize,
    /// Set on the first job panic; later claims are skipped (fail fast)
    /// but still counted so the completion latch closes.
    panicked: AtomicBool,
    submitter: thread::ThreadId,
    progress: Mutex<Progress>,
    done: Condvar,
}

impl Batch {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.total
    }
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// The injector: FIFO of batches that still have unclaimed jobs.
    queue: Mutex<VecDeque<Arc<Batch>>>,
    /// Signalled when a batch is submitted or the pool shuts down.
    available: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Claims and runs jobs from `batch` until its index space is exhausted.
/// Every claimed index is counted as finished — run, panicked or skipped —
/// so `finished` reaches `total` exactly once and the submitter's wait
/// always terminates.
fn work_on(batch: &Batch, counters: &Counters) {
    let me = thread::current().id();
    loop {
        let i = batch.next.fetch_add(1, Ordering::Relaxed);
        if i >= batch.total {
            break;
        }
        if !batch.panicked.load(Ordering::Relaxed) {
            match catch_unwind(AssertUnwindSafe(|| batch.job.call(i))) {
                Ok(()) => {
                    counters.jobs.inc();
                    if me != batch.submitter {
                        counters.steals.inc();
                    }
                }
                Err(payload) => {
                    batch.panicked.store(true, Ordering::Relaxed);
                    let mut prog = lock(&batch.progress);
                    prog.panic.get_or_insert(payload);
                }
            }
        }
        let mut prog = lock(&batch.progress);
        prog.finished += 1;
        if prog.finished == batch.total {
            batch.done.notify_all();
        }
    }
}

/// Body of each background worker thread: pull the front unexhausted batch
/// from the injector, drain it, park when the injector is empty.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        let batch = {
            let mut queue = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                queue.retain(|b| !b.exhausted());
                if let Some(batch) = queue.front() {
                    break batch.clone();
                }
                shared.counters.park.inc();
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        work_on(&batch, &shared.counters);
    }
}

/// A persistent work-sharing pool. See the crate docs for the design.
pub struct Pool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    registry: Registry,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Creates a pool that runs batches on `threads` threads *including*
    /// the submitting thread, i.e. `threads - 1` background workers are
    /// spawned. `threads` is clamped to at least 1; a 1-thread pool runs
    /// every batch inline, in job order, on the caller's thread.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let registry = Registry::new();
        let counters = Counters {
            jobs: registry.counter(names::POOL_JOBS),
            steals: registry.counter(names::POOL_STEALS),
            park: registry.counter(names::POOL_PARK),
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters,
        });
        let handles = (1..threads)
            .map(|k| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("drum-pool-{k}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            threads,
            handles: Mutex::new(handles),
            registry,
        }
    }

    /// The process-wide pool, created on first use with
    /// [`default_threads`] threads. Its workers persist for the life of
    /// the process (they park when idle), so repeated sweeps pay thread
    /// start-up exactly once.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// Total threads batches run on (submitter + background workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The registry holding the `pool.jobs` / `pool.steals` / `pool.park`
    /// counters (names in [`drum_trace::names`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Runs jobs `0..total` by calling `job(i)` once for each index, and
    /// returns when all of them have finished. Jobs may borrow from the
    /// caller's stack. Background workers help with the batch; the calling
    /// thread participates too, so a batch submitted from inside another
    /// batch's job (nested sweeps) always makes progress.
    ///
    /// Scheduling is dynamic — indices are claimed one at a time by
    /// whichever thread frees next — so callers that need results
    /// independent of thread interleaving must write to per-index state
    /// and reduce in index order (as [`Pool::map`] does).
    ///
    /// # Panics
    ///
    /// If a job panics, the first panic payload is re-thrown on the
    /// calling thread after the whole batch has drained; remaining
    /// unstarted jobs are skipped.
    pub fn run(&self, total: usize, job: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        if self.threads == 1 || total == 1 {
            // Inline fast path: in job order on the caller's thread. This
            // is also the `DRUM_POOL_THREADS=1` determinism oracle.
            for i in 0..total {
                job(i);
            }
            self.shared.counters.jobs.add(total as u64);
            return;
        }

        let batch = Arc::new(Batch {
            job: raw::RawJob::erase(job),
            total,
            next: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            submitter: thread::current().id(),
            progress: Mutex::new(Progress {
                finished: 0,
                panic: None,
            }),
            done: Condvar::new(),
        });

        {
            let mut queue = lock(&self.shared.queue);
            queue.push_back(batch.clone());
        }
        self.shared.available.notify_all();

        // Participate, then wait for in-flight jobs claimed by workers.
        work_on(&batch, &self.shared.counters);
        let mut prog = lock(&batch.progress);
        while prog.finished < batch.total {
            prog = batch
                .done
                .wait(prog)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let panic = prog.panic.take();
        drop(prog);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Like [`Pool::run`], but collects each job's return value into a
    /// `Vec` ordered by job index — the deterministic-reduction shape:
    /// output `i` depends only on input `i`, never on which thread ran it
    /// or in what order.
    pub fn map<T, F>(&self, total: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
        self.run(total, &|i| {
            *lock(&slots[i]) = Some(f(i));
        });
        slots
            .into_iter()
            .map(|slot| lock(&slot).take().expect("job completed without a result"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // The flag is stored under the queue lock: a worker checks it and
        // parks while holding that lock, so it either sees the flag or is
        // already waiting when the notification below arrives. Stored
        // outside the lock, a worker between its check and its `wait`
        // would miss both and `join` would never return.
        {
            let _queue = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.available.notify_all();
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// Worker-thread count for the global pool: `DRUM_POOL_THREADS` if set to
/// a positive integer, else `available_parallelism` (min 1).
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var("DRUM_POOL_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_job_exactly_once() {
        for threads in [1, 2, 4, 9] {
            let pool = Pool::new(threads);
            let hits: Vec<AtomicUsize> = (0..137).map(|_| AtomicUsize::new(0)).collect();
            pool.run(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{threads} threads: some job ran != 1 times"
            );
        }
    }

    #[test]
    fn map_returns_results_in_index_order() {
        let pool = Pool::new(4);
        let out = pool.map(100, |i| i as u64 * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn single_thread_pool_runs_inline_in_order() {
        let pool = Pool::new(1);
        let order = Mutex::new(Vec::new());
        pool.run(10, &|i| lock(&order).push(i));
        assert_eq!(*lock(&order), (0..10).collect::<Vec<usize>>());
    }

    #[test]
    fn jobs_borrow_from_the_callers_stack() {
        let pool = Pool::new(3);
        let input: Vec<u64> = (0..64).collect();
        let sums: Vec<u64> = pool.map(input.len(), |i| input[i] + 1);
        assert_eq!(sums.iter().sum::<u64>(), 64 * 65 / 2);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = Pool::new(3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(32, &|i| {
                if i == 7 {
                    panic!("job seven exploded");
                }
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("exploded"), "unexpected payload {msg:?}");
        // The pool must stay usable after a panicked batch.
        assert_eq!(pool.map(5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        pool.run(4, &|_| {
            let inner: u64 = pool.map(8, |j| j as u64).iter().sum();
            total.fetch_add(inner, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 28);
    }

    #[test]
    fn concurrent_submitters_both_complete() {
        let pool = Pool::new(4);
        thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let out = pool.map(50, |i| i);
                    assert_eq!(out.len(), 50);
                });
            }
        });
    }

    #[test]
    fn counters_account_for_jobs() {
        let pool = Pool::new(3);
        let before = pool.registry().counter(names::POOL_JOBS).get();
        pool.run(40, &|_| {});
        let after = pool.registry().counter(names::POOL_JOBS).get();
        assert_eq!(after - before, 40);
        // Steals never exceed jobs.
        assert!(pool.registry().counter(names::POOL_STEALS).get() <= after);
    }

    #[test]
    fn zero_jobs_is_a_noop() {
        let pool = Pool::new(2);
        pool.run(0, &|_| panic!("must not run"));
    }

    #[test]
    fn dropping_fresh_pools_never_hangs() {
        // A just-spawned worker may be between its shutdown check and its
        // park when the pool is dropped; a lost wake-up there hangs `Drop`
        // in `join`. Each drop is delayed by a different 0-60 us so the
        // drops sweep across the worker's start-up, and the watchdog turns
        // a hang into a failure.
        const POOLS: u64 = 10_000;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let dropper = thread::spawn(move || {
            for i in 0..POOLS {
                let pool = Pool::new(2);
                let delay = std::time::Duration::from_nanos(i * 7_919 % 60_000);
                let start = std::time::Instant::now();
                while start.elapsed() < delay {
                    std::hint::spin_loop();
                }
                drop(pool);
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("dropping a 2-thread pool hung in join");
        dropper.join().expect("the dropping thread panicked");
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = Pool::global() as *const Pool;
        let b = Pool::global() as *const Pool;
        assert_eq!(a, b);
        assert!(Pool::global().threads() >= 1);
    }
}
