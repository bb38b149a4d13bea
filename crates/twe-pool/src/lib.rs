//! # twe-pool
//!
//! A small work-stealing thread pool: the execution substrate underneath the
//! TWE runtime, playing the role Java's `ForkJoinPool` plays for TWEJava
//! (§3.4.2, §5.5). The effect-aware scheduler decides *when* a task may run;
//! this pool decides *where* (which worker thread) and supplies the
//! work-stealing and blocked-worker-helping behaviour the paper relies on.
//!
//! Design:
//!
//! * each worker owns a LIFO deque (`crossbeam_deque::Worker`); tasks
//!   submitted from a worker thread go to its own deque (good locality for
//!   recursive spawn patterns such as TSP), tasks submitted from outside go
//!   to a shared injector queue;
//! * idle workers steal from the injector and then from other workers;
//! * a thread that must block (a `getValue`/`join` of an unfinished task)
//!   calls [`ThreadPool::help_until`], which runs other ready jobs instead of
//!   sleeping — the analogue of `ForkJoinPool`'s helping / "run awaited tasks
//!   in the blocking thread" behaviour that keeps all cores busy and avoids
//!   thread-starvation deadlocks.

#![warn(missing_docs)]

use crossbeam::deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of work: a boxed closure run on some worker thread.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The local deque of the current worker thread, if this thread belongs
    /// to a pool: (pool id, worker deque).
    static LOCAL: RefCell<Option<(u64, Worker<Job>)>> = const { RefCell::new(None) };
}

struct Shared {
    id: u64,
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    /// Number of jobs submitted but not yet finished executing.
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// Sleep/wake machinery for idle workers and helpers.
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
}

impl Shared {
    /// Finds any runnable job: the local deque first (if this thread is a
    /// worker of this pool), then the injector, then other workers' deques.
    fn find_job(&self) -> Option<Job> {
        // Local deque (only on worker threads of this pool).
        let local = LOCAL.with(|l| {
            let guard = l.borrow();
            match guard.as_ref() {
                Some((id, worker)) if *id == self.id => worker.pop(),
                _ => None,
            }
        });
        if local.is_some() {
            return local;
        }
        // Injector, retrying on contention.
        loop {
            match self.injector.steal() {
                crossbeam::deque::Steal::Success(job) => return Some(job),
                crossbeam::deque::Steal::Retry => continue,
                crossbeam::deque::Steal::Empty => break,
            }
        }
        // Steal from other workers.
        for stealer in &self.stealers {
            loop {
                match stealer.steal() {
                    crossbeam::deque::Steal::Success(job) => return Some(job),
                    crossbeam::deque::Steal::Retry => continue,
                    crossbeam::deque::Steal::Empty => break,
                }
            }
        }
        None
    }

    fn run_job(&self, job: Job) {
        job();
        self.pending.fetch_sub(1, Ordering::Release);
        // A completed job may unblock helpers waiting on a condition.
        self.wakeup.notify_all();
    }
}

/// Stack size of a worker thread. A worker blocked in `help_until` runs
/// other jobs on top of the blocked one, so its stack depth follows the
/// number of blocked tasks in flight (one nested `execute` per k-means
/// point, thousands deep): the 2 MiB default holds a few thousand such
/// frames of an optimized build and fewer than 2 000 of an unoptimized
/// one. Untouched stack is address space only.
const WORKER_STACK_BYTES: usize = 16 << 20;

/// A fixed-size work-stealing thread pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    num_threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `num_threads` worker threads (at least 1).
    pub fn new(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        let workers: Vec<Worker<Job>> = (0..num_threads).map(|_| Worker::new_lifo()).collect();
        let stealers = workers.iter().map(Worker::stealer).collect();
        let shared = Arc::new(Shared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            injector: Injector::new(),
            stealers,
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
        });
        let threads = workers
            .into_iter()
            .enumerate()
            .map(|(i, worker)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("twe-worker-{i}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || worker_loop(shared, worker))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool {
            shared,
            threads: Mutex::new(threads),
            num_threads,
        }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Is the calling thread one of *this* pool's worker threads?
    ///
    /// Used by callers that must never park a worker — e.g. the runtime's
    /// blocking admission policy, which would deadlock if the thread it
    /// blocked was one of the workers expected to drain the backlog.
    pub fn on_worker_thread(&self) -> bool {
        LOCAL.with(|l| matches!(l.borrow().as_ref(), Some((id, _)) if *id == self.shared.id))
    }

    /// Submits a job for execution. Jobs submitted from a worker thread of
    /// this pool go to that worker's own deque (LIFO); jobs submitted from
    /// any other thread go to the shared injector.
    pub fn execute(&self, job: Job) {
        self.shared.pending.fetch_add(1, Ordering::Acquire);
        let not_pushed_locally = LOCAL.with(|l| {
            let guard = l.borrow();
            match guard.as_ref() {
                Some((id, worker)) if *id == self.shared.id => {
                    worker.push(job);
                    None
                }
                _ => Some(job),
            }
        });
        if let Some(job) = not_pushed_locally {
            self.shared.injector.push(job);
        }
        self.shared.wakeup.notify_one();
    }

    /// Runs jobs on the calling thread until `done()` returns true.
    ///
    /// This is how a blocked task waits: instead of sleeping while holding a
    /// worker thread hostage, it *helps* by executing other ready jobs. If no
    /// job is available it parks briefly and re-checks.
    pub fn help_until(&self, done: impl Fn() -> bool) {
        loop {
            if done() {
                return;
            }
            if let Some(job) = self.shared.find_job() {
                self.shared.run_job(job);
                continue;
            }
            if done() {
                return;
            }
            // Nothing to run: park briefly; completions and submissions wake us.
            let mut guard = self.shared.sleep_lock.lock();
            self.shared
                .wakeup
                .wait_for(&mut guard, Duration::from_micros(200));
        }
    }

    /// Wakes every sleeping worker and helper (used by the runtime when a
    /// task future completes or a task becomes enabled).
    pub fn notify_all(&self) {
        self.shared.wakeup.notify_all();
    }

    /// Number of submitted jobs that have not finished executing.
    pub fn pending_jobs(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// Blocks until every submitted job has finished executing, helping run
    /// them from the calling thread.
    pub fn wait_idle(&self) {
        self.help_until(|| self.shared.pending.load(Ordering::Acquire) == 0);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wakeup.notify_all();
        // The pool can be dropped *from one of its own worker threads*: jobs
        // hold clones of the owner's `Arc` (e.g. the runtime's task closures),
        // so the last clone may die inside a job. A thread cannot join
        // itself — detach our own handle (the worker exits via the shutdown
        // flag) and join the rest.
        let current = std::thread::current().id();
        for handle in self.threads.lock().drain(..) {
            if handle.thread().id() == current {
                drop(handle);
            } else {
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>, worker: Worker<Job>) {
    LOCAL.with(|l| *l.borrow_mut() = Some((shared.id, worker)));
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        if let Some(job) = shared.find_job() {
            shared.run_job(job);
            continue;
        }
        let mut guard = shared.sleep_lock.lock();
        // Re-check under the lock to avoid missed shutdown notifications.
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        shared.wakeup.wait_for(&mut guard, Duration::from_millis(1));
    }
    LOCAL.with(|l| *l.borrow_mut() = None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_all_submitted_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            pool.execute(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn help_until_makes_progress_from_external_thread() {
        let pool = ThreadPool::new(2);
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        pool.execute(Box::new(move || {
            std::thread::sleep(Duration::from_millis(5));
            d.store(true, Ordering::Release);
        }));
        pool.help_until(|| done.load(Ordering::Acquire));
        assert!(done.load(Ordering::Acquire));
    }

    #[test]
    fn nested_submission_from_worker_threads() {
        let pool = Arc::new(ThreadPool::new(4));
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..50 {
            let pool2 = Arc::clone(&pool);
            let c = Arc::clone(&counter);
            pool.execute(Box::new(move || {
                for _ in 0..10 {
                    let c2 = Arc::clone(&c);
                    pool2.execute(Box::new(move || {
                        c2.fetch_add(1, Ordering::Relaxed);
                    }));
                }
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 50 * 11);
    }

    #[test]
    fn single_thread_pool_still_completes_blocking_patterns() {
        // One worker thread, and the "parent" job helps while waiting for the
        // "child": would deadlock without helping.
        let pool = Arc::new(ThreadPool::new(1));
        let pool2 = Arc::clone(&pool);
        let finished = Arc::new(AtomicBool::new(false));
        let finished2 = Arc::clone(&finished);
        pool.execute(Box::new(move || {
            let child_done = Arc::new(AtomicBool::new(false));
            let cd = Arc::clone(&child_done);
            pool2.execute(Box::new(move || {
                cd.store(true, Ordering::Release);
            }));
            pool2.help_until(|| child_done.load(Ordering::Acquire));
            finished2.store(true, Ordering::Release);
        }));
        pool.help_until(|| finished.load(Ordering::Acquire));
        assert!(finished.load(Ordering::Acquire));
    }

    #[test]
    fn single_worker_blocked_join_chain_does_not_deadlock() {
        // A chain of joins from *worker* threads at pool size 1: job 0 blocks
        // on job 1, which blocks on job 2. Every blocked worker must keep
        // helping (running the next job in the chain from its own thread) or
        // the pool's only worker would sleep forever holding the chain.
        let pool = Arc::new(ThreadPool::new(1));
        const DEPTH: usize = 4;
        let done: Arc<Vec<AtomicBool>> =
            Arc::new((0..DEPTH).map(|_| AtomicBool::new(false)).collect());

        fn submit_level(pool: &Arc<ThreadPool>, done: &Arc<Vec<AtomicBool>>, level: usize) {
            let pool2 = Arc::clone(pool);
            let done2 = Arc::clone(done);
            pool.execute(Box::new(move || {
                if level + 1 < done2.len() {
                    submit_level(&pool2, &done2, level + 1);
                    // Block this worker on the deeper job: only helping
                    // (running that job right here) can make progress.
                    pool2.help_until(|| done2[level + 1].load(Ordering::Acquire));
                }
                done2[level].store(true, Ordering::Release);
            }));
        }

        submit_level(&pool, &done, 0);
        pool.help_until(|| done[0].load(Ordering::Acquire));
        for (level, flag) in done.iter().enumerate() {
            assert!(
                flag.load(Ordering::Acquire),
                "level {level} never completed"
            );
        }
        assert_eq!(pool.pending_jobs(), 0);
    }

    #[test]
    fn drop_from_worker_thread_detaches_self_without_panicking() {
        // A job can own the last `Arc<ThreadPool>` (the runtime's task
        // closures do exactly this), so `ThreadPool::drop` may run on a pool
        // worker; it must not try to join its own thread.
        let pool = Arc::new(ThreadPool::new(2));
        let gate = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        {
            let pool_clone = Arc::clone(&pool);
            let gate = Arc::clone(&gate);
            let done = Arc::clone(&done);
            pool.execute(Box::new(move || {
                // Wait until the main thread has released its Arc, so this
                // drop is deterministically the last one.
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                drop(pool_clone);
                done.store(true, Ordering::Release);
            }));
        }
        drop(pool);
        gate.store(true, Ordering::Release);
        while !done.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn drop_joins_worker_threads() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            pool.execute(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.wait_idle();
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pending_jobs_reaches_zero() {
        let pool = ThreadPool::new(2);
        for _ in 0..100 {
            pool.execute(Box::new(|| {}));
        }
        pool.wait_idle();
        assert_eq!(pool.pending_jobs(), 0);
    }

    #[test]
    fn find_job_serves_local_deque_then_injector_then_steals() {
        // No worker threads: the test thread poses as worker 0 of a
        // hand-built pool, so the three sources are probed deterministically.
        let mine: Worker<Job> = Worker::new_lifo();
        let other: Worker<Job> = Worker::new_lifo();
        let shared = Shared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            injector: Injector::new(),
            stealers: vec![mine.stealer(), other.stealer()],
            pending: AtomicUsize::new(3),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
        };
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let job = |name: &'static str| -> Job {
            let order = Arc::clone(&order);
            Box::new(move || order.lock().push(name))
        };
        // Enqueued in the reverse of the order they must be served in.
        other.push(job("stolen"));
        shared.injector.push(job("injected"));
        mine.push(job("local"));
        LOCAL.with(|l| *l.borrow_mut() = Some((shared.id, mine)));
        while let Some(job) = shared.find_job() {
            shared.run_job(job);
        }
        LOCAL.with(|l| *l.borrow_mut() = None);
        assert_eq!(*order.lock(), ["local", "injected", "stolen"]);
        assert_eq!(shared.pending.load(Ordering::Acquire), 0);
    }

    #[test]
    fn many_threads_heavy_contention() {
        let pool = ThreadPool::new(8);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..5000 {
            let c = Arc::clone(&counter);
            pool.execute(Box::new(move || {
                // Tiny amount of work.
                let mut x = 1u64;
                for i in 0..32 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(x);
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 5000);
    }
}
