//! A minimal work-stealing thread pool for data-parallel node evaluation.
//!
//! The pool is deliberately simple — per-worker deques behind one mutex
//! plus two condvars — because its work items are coarse (a stream segment
//! or a tile tuple, microseconds to milliseconds each), so queue contention
//! is negligible next to task runtime. What matters is the *stealing*
//! discipline: a worker pops its own queue from the back (LIFO, cache-warm)
//! and steals from other queues at the front (FIFO, the oldest — and under
//! the adaptive ramp the largest-remaining — work), which is the classic
//! Chase–Lev policy expressed with locks instead of lock-free deques.
//!
//! The module is private: its two users are the fast backend's splitting
//! driver (`parallel.rs`) and the tiled backend's tile fan-out
//! (`tiled.rs`), both in this crate.
//!
//! The driving thread participates: [`StealPool::run_batch`] enqueues a
//! batch round-robin, then the caller runs tasks as worker 0 until the
//! batch drains. Workers spawned onto [`StealPool::worker_loop`] (from a
//! [`std::thread::scope`]) sleep on a condvar between batches and exit when
//! the driver drops its [`ShutdownGuard`]. Both halves of that are drop
//! guards so a panic cannot strand anybody: a task that unwinds still
//! decrements the batch counter, so the driver always wakes, and a driver
//! that unwinds out of the scope's closure still shuts the pool down, so
//! the scope can join the workers and re-raise the panic instead of
//! waiting on them forever.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One unit of work: runs once, receives the executing worker's index.
pub type Task<'env> = Box<dyn FnOnce(usize) + Send + 'env>;

/// Per-worker scheduler counters, surfaced as `WorkerProfile` on traced
/// runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub tasks: u64,
    /// Tasks this worker took from another worker's queue.
    pub steals: u64,
    /// Wall time spent executing tasks, nanoseconds (collected only when
    /// the pool was built with `timing`).
    pub busy_ns: u64,
}

struct PoolState<'env> {
    queues: Vec<VecDeque<Task<'env>>>,
    /// Tasks enqueued or running in the current batch.
    pending: usize,
    shutdown: bool,
}

/// The pool. `'env` bounds what tasks may borrow: everything declared
/// before the [`std::thread::scope`] the workers run inside.
pub struct StealPool<'env> {
    state: Mutex<PoolState<'env>>,
    /// Signals workers: new tasks or shutdown.
    work_cv: Condvar,
    /// Signals the driver: the batch may have drained.
    done_cv: Condvar,
    stats: Vec<Mutex<WorkerStats>>,
    timing: bool,
}

/// Decrements `pending` (and wakes the driver at zero) even when the task
/// unwinds.
struct PendingGuard<'p, 'env> {
    pool: &'p StealPool<'env>,
}

impl Drop for PendingGuard<'_, '_> {
    fn drop(&mut self) {
        let mut st = self.pool.state.lock().expect("pool state");
        st.pending -= 1;
        if st.pending == 0 {
            self.pool.done_cv.notify_all();
        }
    }
}

/// Shuts the pool down when dropped. The driver takes one at the top of the
/// [`std::thread::scope`] closure that spawned the workers; leaving the
/// closure — by returning or by unwinding — then releases them.
pub struct ShutdownGuard<'p, 'env> {
    pool: &'p StealPool<'env>,
}

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        // This may run during an unwind, where a second panic would abort:
        // recover a poisoned guard (setting the flag is valid in any state).
        self.pool.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).shutdown = true;
        self.pool.work_cv.notify_all();
    }
}

impl std::fmt::Debug for StealPool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealPool")
            .field("workers", &self.stats.len())
            .field("timing", &self.timing)
            .finish_non_exhaustive()
    }
}

impl<'env> StealPool<'env> {
    /// A pool for `workers` participants (the driver counts as worker 0).
    /// `timing` turns on per-task wall-clock accumulation.
    pub fn new(workers: usize, timing: bool) -> Self {
        let workers = workers.max(1);
        StealPool {
            state: Mutex::new(PoolState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                pending: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            stats: (0..workers).map(|_| Mutex::new(WorkerStats::default())).collect(),
            timing,
        }
    }

    /// Number of participating workers (including the driver).
    pub fn workers(&self) -> usize {
        self.stats.len()
    }

    /// Pops local work from the back, or steals the oldest task from
    /// another queue (scanning the ring starting after `w`).
    fn take_task(st: &mut PoolState<'env>, w: usize) -> Option<(Task<'env>, bool)> {
        if let Some(t) = st.queues[w].pop_back() {
            return Some((t, false));
        }
        let n = st.queues.len();
        for off in 1..n {
            if let Some(t) = st.queues[(w + off) % n].pop_front() {
                return Some((t, true));
            }
        }
        None
    }

    fn execute(&self, task: Task<'env>, w: usize, stolen: bool) {
        let _guard = PendingGuard { pool: self };
        let started = self.timing.then(Instant::now);
        task(w);
        let mut stats = self.stats[w].lock().expect("worker stats");
        stats.tasks += 1;
        stats.steals += u64::from(stolen);
        if let Some(started) = started {
            stats.busy_ns += started.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `tasks` to completion across the pool. The calling thread
    /// participates as worker 0; the call returns once every task has
    /// finished. Tasks are distributed round-robin so stealing has
    /// somewhere to steal from immediately.
    pub fn run_batch(&self, tasks: Vec<Task<'env>>) {
        if tasks.is_empty() {
            return;
        }
        {
            let mut st = self.state.lock().expect("pool state");
            let n = st.queues.len();
            for (i, t) in tasks.into_iter().enumerate() {
                st.pending += 1;
                st.queues[i % n].push_back(t);
            }
        }
        self.work_cv.notify_all();
        loop {
            let taken = {
                let mut st = self.state.lock().expect("pool state");
                Self::take_task(&mut st, 0)
            };
            match taken {
                Some((t, stolen)) => self.execute(t, 0, stolen),
                None => {
                    let mut st = self.state.lock().expect("pool state");
                    while st.pending > 0 && st.queues.iter().all(VecDeque::is_empty) {
                        st = self.done_cv.wait(st).expect("pool state");
                    }
                    if st.pending == 0 {
                        return;
                    }
                }
            }
        }
    }

    /// The body of a spawned worker thread: execute and steal until the
    /// pool's [`ShutdownGuard`] drops.
    pub fn worker_loop(&self, w: usize) {
        loop {
            let taken = {
                let mut st = self.state.lock().expect("pool state");
                loop {
                    if let Some(t) = Self::take_task(&mut st, w) {
                        break Some(t);
                    }
                    if st.shutdown {
                        break None;
                    }
                    st = self.work_cv.wait(st).expect("pool state");
                }
            };
            match taken {
                Some((t, stolen)) => self.execute(t, w, stolen),
                None => return,
            }
        }
    }

    /// A guard whose drop wakes every worker and tells it to exit once the
    /// queues drain.
    pub fn shutdown_on_drop(&self) -> ShutdownGuard<'_, 'env> {
        ShutdownGuard { pool: self }
    }

    /// Snapshot of every worker's counters.
    pub fn stats(&self) -> Vec<WorkerStats> {
        self.stats.iter().map(|s| *s.lock().expect("worker stats")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    fn run_pool(workers: usize, tasks: usize) -> (u64, Vec<WorkerStats>) {
        let hits = AtomicU64::new(0);
        let pool = StealPool::new(workers, true);
        let stats = thread::scope(|scope| {
            let _shutdown = pool.shutdown_on_drop();
            for w in 1..pool.workers() {
                let pool = &pool;
                scope.spawn(move || pool.worker_loop(w));
            }
            let batch: Vec<Task<'_>> = (0..tasks)
                .map(|i| {
                    let hits = &hits;
                    Box::new(move |_w: usize| {
                        hits.fetch_add(i as u64 + 1, Ordering::Relaxed);
                    }) as Task<'_>
                })
                .collect();
            pool.run_batch(batch);
            pool.stats()
        });
        (hits.load(Ordering::Relaxed), stats)
    }

    #[test]
    fn every_task_runs_exactly_once() {
        for workers in [1, 2, 4] {
            for tasks in [0usize, 1, 7, 64] {
                let (sum, stats) = run_pool(workers, tasks);
                let expect: u64 = (1..=tasks as u64).sum();
                assert_eq!(sum, expect, "workers={workers} tasks={tasks}");
                let ran: u64 = stats.iter().map(|s| s.tasks).sum();
                assert_eq!(ran, tasks as u64);
                let steals: u64 = stats.iter().map(|s| s.steals).sum();
                assert!(steals <= ran);
            }
        }
    }

    #[test]
    fn sequential_batches_reuse_the_pool() {
        let count = AtomicU64::new(0);
        let pool = StealPool::new(3, false);
        thread::scope(|scope| {
            let _shutdown = pool.shutdown_on_drop();
            for w in 1..pool.workers() {
                let pool = &pool;
                scope.spawn(move || pool.worker_loop(w));
            }
            for _ in 0..10 {
                let batch: Vec<Task<'_>> = (0..8)
                    .map(|_| {
                        let count = &count;
                        Box::new(move |_| {
                            count.fetch_add(1, Ordering::Relaxed);
                        }) as Task<'_>
                    })
                    .collect();
                pool.run_batch(batch);
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn worker_indices_stay_in_range() {
        let bad = AtomicU64::new(0);
        let pool = StealPool::new(4, false);
        thread::scope(|scope| {
            let _shutdown = pool.shutdown_on_drop();
            for w in 1..pool.workers() {
                let pool = &pool;
                scope.spawn(move || pool.worker_loop(w));
            }
            let batch: Vec<Task<'_>> = (0..32)
                .map(|_| {
                    let bad = &bad;
                    Box::new(move |w: usize| {
                        if w >= 4 {
                            bad.fetch_add(1, Ordering::Relaxed);
                        }
                    }) as Task<'_>
                })
                .collect();
            pool.run_batch(batch);
        });
        assert_eq!(bad.load(Ordering::Relaxed), 0);
    }
}
