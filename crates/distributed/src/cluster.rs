//! Worker-pool execution (§5.1's driver/executor split).
//!
//! Real data-plane parallelism for the simulated cluster. A **threaded**
//! pool owns a cache of long-lived worker threads fed through a shared job
//! queue — jobs are dispatched with one lock acquisition and a condvar
//! wake, instead of the `thread::spawn` + `join` (tens of microseconds of
//! kernel work) the pre-PR-3 implementation paid *per job per batch*. The
//! thread cache grows lazily to the widest `run` call and is reused for
//! the lifetime of the pool, so a D-R-TBS instance processing thousands of
//! batches spawns its worker threads exactly once.
//!
//! A **sequential** pool runs jobs inline for deterministic
//! single-threaded runs. Statistical correctness never depends on the
//! execution mode — every worker owns a jump-ahead RNG substream — so
//! threading is purely a performance choice.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct PoolState {
    queue: VecDeque<Job>,
    closed: bool,
}

#[derive(Default)]
struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
}

/// The persistent half of a threaded pool: the shared queue plus the
/// cached worker threads, joined when the last [`WorkerPool`] clone drops.
struct PoolHandle {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl PoolHandle {
    fn new() -> Self {
        Self {
            shared: Arc::new(PoolShared::default()),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Grow the thread cache to at least `want` workers. Workers are
    /// immortal until the pool closes: a panicking job is caught inside
    /// the worker (the caller still observes the failure — its result
    /// channel closes without a message, see [`collect_in_order`]), so
    /// the cached width can never silently shrink.
    fn ensure_threads(&self, want: usize) {
        let mut threads = self.threads.lock();
        while threads.len() < want {
            let shared = Arc::clone(&self.shared);
            let idx = threads.len();
            let handle = std::thread::Builder::new()
                .name(format!("tbs-pool-{idx}"))
                .spawn(move || loop {
                    let job = {
                        let mut state = shared.state.lock();
                        loop {
                            if let Some(job) = state.queue.pop_front() {
                                break Some(job);
                            }
                            if state.closed {
                                break None;
                            }
                            state = shared.available.wait(state);
                        }
                    };
                    match job {
                        Some(job) => {
                            // Contain job panics to the job: the worker
                            // survives for reuse and the failure reaches
                            // the dispatching caller through its result
                            // channel closing short.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                        None => return,
                    }
                })
                // INVARIANT: spawn fails only on OS resource exhaustion
                // (thread limit, OOM) — a pool-construction environment
                // failure, not a recoverable runtime fault.
                .expect("spawn pool worker");
            threads.push(handle);
        }
    }

    fn submit(&self, job: Job) {
        self.shared.state.lock().queue.push_back(job);
        self.available_notify();
    }

    fn available_notify(&self) {
        self.shared.available.notify_one();
    }
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        self.shared.state.lock().closed = true;
        self.shared.available.notify_all();
        for handle in self.threads.get_mut().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Executes one closure per worker, either inline or on cached threads.
#[derive(Clone, Default)]
pub struct WorkerPool {
    /// `None` = sequential; `Some` = shared persistent thread cache.
    handle: Option<Arc<PoolHandle>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("parallel", &self.is_parallel())
            .finish()
    }
}

impl WorkerPool {
    /// Sequential execution (deterministic ordering; used by tests).
    pub fn sequential() -> Self {
        Self { handle: None }
    }

    /// Threaded execution on a persistent pool. Worker threads are spawned
    /// lazily — the cache grows to the widest `run`/`run_over` call — and
    /// live until the last clone of this pool drops.
    pub fn threaded() -> Self {
        Self {
            handle: Some(Arc::new(PoolHandle::new())),
        }
    }

    /// Whether jobs run on threads.
    pub fn is_parallel(&self) -> bool {
        self.handle.is_some()
    }

    /// Run all jobs and collect their results in job order.
    ///
    /// # Panics
    ///
    /// Panics if a job panics (the panic is surfaced on the caller).
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let Some(handle) = self.handle.as_ref().filter(|_| jobs.len() > 1) else {
            return jobs.into_iter().map(|f| f()).collect();
        };
        handle.ensure_threads(jobs.len());
        let n = jobs.len();
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            handle.submit(Box::new(move || {
                let _ = tx.send((i, job()));
            }));
        }
        drop(tx);
        collect_in_order(rx, n)
    }

    /// Run a job against each element of a mutable vector (each worker
    /// owns one element — e.g. its reservoir partition), in parallel when
    /// enabled. Elements are moved to the workers and moved back in place,
    /// so `S` must be `Send + 'static`.
    ///
    /// # Panics
    ///
    /// Panics if a job panics. In that case the elements are **not**
    /// restored — `state` is left empty — so a caller that catches the
    /// panic must treat the vector as consumed.
    pub fn run_over<S, T, F>(&self, state: &mut Vec<S>, f: F) -> Vec<T>
    where
        S: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, &mut S) -> T + Send + Sync + 'static,
    {
        let Some(handle) = self.handle.as_ref().filter(|_| state.len() > 1) else {
            return state.iter_mut().enumerate().map(|(i, s)| f(i, s)).collect();
        };
        handle.ensure_threads(state.len());
        let n = state.len();
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<(usize, (S, T))>();
        for (i, mut s) in std::mem::take(state).into_iter().enumerate() {
            let tx = tx.clone();
            let f = Arc::clone(&f);
            handle.submit(Box::new(move || {
                let out = f(i, &mut s);
                let _ = tx.send((i, (s, out)));
            }));
        }
        drop(tx);
        let mut results = Vec::with_capacity(n);
        for (s, out) in collect_in_order(rx, n) {
            state.push(s);
            results.push(out);
        }
        results
    }
}

fn collect_in_order<T>(rx: mpsc::Receiver<(usize, T)>, n: usize) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        // INVARIANT: exactly n jobs hold senders; `recv` errs only if a
        // job died before sending (its panic was contained to the pool
        // worker) — re-raising it here propagates the job's failure to
        // the dispatching caller instead of returning short results.
        let (i, value) = rx.recv().expect("worker thread panicked");
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        // INVARIANT: the n jobs carry indices 0..n exactly once each, so
        // after n receipts every slot is filled.
        .map(|s| s.expect("every index reported"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_preserves_order() {
        let pool = WorkerPool::sequential();
        let jobs: Vec<_> = (0..8).map(|i| move || i * 10).collect();
        assert_eq!(pool.run(jobs), vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn threaded_preserves_order() {
        let pool = WorkerPool::threaded();
        let jobs: Vec<_> = (0..8).map(|i| move || i * 10).collect();
        assert_eq!(pool.run(jobs), vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn threaded_actually_runs_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::threaded();
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..4)
            .map(|_| {
                let peak = Arc::clone(&peak);
                let live = Arc::clone(&live);
                move || {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        pool.run(jobs);
        assert!(peak.load(Ordering::SeqCst) >= 2, "no concurrency observed");
    }

    #[test]
    fn threads_are_reused_across_runs() {
        // The whole point of the persistent pool: repeated dispatch must
        // not spawn new threads. Record each job's thread id over many
        // rounds; the set must not exceed the pool width.
        use std::collections::HashSet;
        let pool = WorkerPool::threaded();
        let mut seen: HashSet<std::thread::ThreadId> = HashSet::new();
        for _ in 0..50 {
            let jobs: Vec<_> = (0..4).map(|_| || std::thread::current().id()).collect();
            seen.extend(pool.run(jobs));
        }
        assert!(
            seen.len() <= 4,
            "expected ≤4 cached threads, saw {}",
            seen.len()
        );
    }

    #[test]
    fn run_over_mutates_each_element() {
        let pool = WorkerPool::threaded();
        let mut parts: Vec<Vec<u32>> = vec![vec![1], vec![2, 3], vec![]];
        let lens = pool.run_over(&mut parts, |i, p| {
            p.push(i as u32 + 100);
            p.len()
        });
        assert_eq!(lens, vec![2, 3, 1]);
        assert_eq!(parts[2], vec![102]);
    }

    #[test]
    fn run_over_restores_element_order() {
        let pool = WorkerPool::threaded();
        let mut parts: Vec<u32> = (0..8).collect();
        let doubled = pool.run_over(&mut parts, |_, x| {
            *x += 100;
            *x * 2
        });
        assert_eq!(parts, (100..108).collect::<Vec<_>>());
        assert_eq!(doubled, (100..108).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_job_list() {
        let pool = WorkerPool::threaded();
        let jobs: Vec<fn() -> u32> = Vec::new();
        assert!(pool.run(jobs).is_empty());
    }

    #[test]
    fn pool_recovers_after_panicking_jobs() {
        // A panicking job must surface on the caller without costing the
        // pool its worker threads; the next dispatch runs normally.
        let pool = WorkerPool::threaded();
        let jobs: Vec<_> = (0..2)
            .map(|_| || -> u32 { panic!("job failure") })
            .collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(jobs)));
        assert!(result.is_err(), "job panic must surface on the caller");
        let jobs: Vec<_> = (0..4).map(|i| move || i * 2).collect();
        assert_eq!(pool.run(jobs), vec![0, 2, 4, 6]);
    }

    #[test]
    fn clones_share_the_thread_cache() {
        let pool = WorkerPool::threaded();
        let clone = pool.clone();
        let a = pool.run(
            (0..4)
                .map(|_| || std::thread::current().id())
                .collect::<Vec<_>>(),
        );
        let b = clone.run(
            (0..4)
                .map(|_| || std::thread::current().id())
                .collect::<Vec<_>>(),
        );
        let set: std::collections::HashSet<_> = a.into_iter().chain(b).collect();
        assert!(set.len() <= 4, "clone spawned extra threads");
    }
}
