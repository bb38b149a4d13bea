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
//! * the pool is generic over what it runs (a [`Job`]): boxed closures by
//!   default, or a caller's own handle — the TWE runtime queues the task's
//!   one `Arc`, so enabling a task allocates nothing;
//! * each worker owns a LIFO deque (`crossbeam_deque::Worker`); tasks
//!   submitted from a worker thread go to its own deque (good locality for
//!   recursive spawn patterns such as TSP), tasks submitted from outside go
//!   to a shared injector queue;
//! * idle workers steal from the injector and then from other workers;
//! * the pool signals only idle workers, and one worker lingers ~100 µs
//!   before parking: a push, a completion or a shutdown touches the condvar
//!   only when some thread is registered asleep, and the first thread to run
//!   out of work polls a queued-jobs gauge for `LINGER` before it registers
//!   (see "Idle protocol" below);
//! * a thread that must block (a `getValue`/`join` of an unfinished task)
//!   calls [`ThreadPool::help_until`], which runs other ready jobs instead of
//!   sleeping — the analogue of `ForkJoinPool`'s helping / "run awaited tasks
//!   in the blocking thread" behaviour that keeps all cores busy and avoids
//!   thread-starvation deadlocks.
//!
//! ## Idle protocol: who sleeps, who gets woken
//!
//! A thread with nothing to run (a worker, or a helper inside
//! [`ThreadPool::help_until`]) goes through two stages:
//!
//! 1. **Linger.** Coming off a job (or on entering `help_until`), and if
//!    no other thread is lingering, it polls the `queued` gauge and its own
//!    `done()` for up to `LINGER`, then gives the slot up. At most one
//!    thread lingers, and a thread that wakes to nothing goes straight back
//!    to sleep, so the cost is bounded at one core while jobs keep arriving
//!    and is zero on an idle pool; every other idle thread parks at once.
//! 2. **Park.** Under `sleep_lock` it adds itself to `sleepers`, issues a
//!    SeqCst fence, re-checks `queued` and `done()`, and only then waits on
//!    the condvar (which releases the lock atomically).
//!
//! Every wake site — [`ThreadPool::submit_all`] after its push, the end of
//! every job and `Drop` — goes through one helper: publish (the push, the
//! completion flag, the shutdown flag), SeqCst fence, then
//! `if sleepers > 0 { lock sleep_lock; notify }`. A batch of n
//! jobs is one publish: `queued` and `pending` rise by n, the n jobs go onto
//! one queue under one hold of its lock, then one fence and one wake (every
//! sleeper for n > 1, since each can take a job; one for a single job, which
//! [`ThreadPool::submit`] is). This is the
//! store-buffering (Dekker) pattern: with a full fence between each side's
//! store and its load, either the sleeper's re-check sees what was
//! published or the waker's load sees the sleeper. In the second case the
//! waker's notify cannot fall into the gap between the re-check and the
//! wait, because the sleeper holds `sleep_lock` across that gap and the
//! waker notifies under the same lock. With no sleeper registered a wake
//! costs one fence and one load — no lock, no futex call.
//!
//! A parked thread waits untimed: nothing but a wake gets it going again.
//! The unit test module `model` checks the handshake exhaustively: every
//! interleaving of a worker, a helper and a submitter, with a store buffer
//! per thread, up to its stated bound. Each step of the model names the
//! line of this file it stands for.
//!
//! ## Waiting: the `help_until` contract
//!
//! A parked helper wakes only at a wake site, so the condition it waits for
//! must turn true inside a job of the same pool, whose end is a wake site.
//! Every `help_until` site, beside the line that makes its condition true:
//!
//! | site | waits for | made true by |
//! |---|---|---|
//! | `TaskFuture::wait` (twe-runtime) | the task's `completed` | `task.completed.store(true, ..)`, the last line of `Work::run` (twe-runtime `lib.rs`), inside the job that runs the body; `wait` helps the pool of the task's own runtime |
//! | `TaskCtx::await_target`: `get_value`, `join`, `await_remaining_spawned` | the awaited task's `completed` | the same line; `await_target` asserts that the awaited task belongs to the caller's runtime, so the pool it helps is the task's |
//! | `RtInner::reserve_blocking` (a `BoundedBlock` submitter) | `depth + need <= cap` | `AdmissionState::release`'s `depth.fetch_sub`, which `finish_task` reaches at the end of every body, inside its job |
//! | [`ThreadPool::wait_idle`] | `pending == 0` | `pending.fetch_sub` in `Shared::run_job`, after every job and just before its wake |

#![warn(missing_docs)]

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work, run once on some worker (or helping) thread.
pub trait Job: Send + 'static {
    /// Runs the job, consuming it.
    fn run(self);
}

/// The default job: a boxed closure.
pub type BoxedJob = Box<dyn FnOnce() + Send + 'static>;

impl Job for BoxedJob {
    fn run(self) {
        self()
    }
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// How long the one lingering thread polls for work before it parks: about
/// 4× the park + unpark round trip it saves. Measured on the 2-CPU host
/// (`benchmark`, svc-disjoint, 20 000 req/s, traced): a parked worker costs
/// the submitter ~11 µs of futex wake inside `execute` and the job ~14 µs
/// of wake-up latency, ~25 µs of a 31 µs request; at 100 µs the linger
/// covers two mean inter-arrival gaps of that workload, and an idle pool
/// still reaches the parked state 100 µs after its last job.
const LINGER: Duration = Duration::from_micros(100);

thread_local! {
    /// The local deque of the current worker thread, if this thread belongs
    /// to a pool: (pool id, that pool's `Worker<J>`; a thread-local cannot
    /// name `J`).
    static LOCAL: RefCell<Option<(u64, Box<dyn Any>)>> = const { RefCell::new(None) };
}

/// Runs `f` on the calling thread's local deque if the thread is a worker of
/// pool `id`.
fn with_local<J: Job, R>(id: u64, f: impl FnOnce(&Worker<J>) -> R) -> Option<R> {
    LOCAL.with(|l| match l.borrow().as_ref() {
        Some((pool, worker)) if *pool == id => Some(f(worker
            .downcast_ref()
            .expect("a pool's workers hold its job type"))),
        _ => None,
    })
}

struct Shared<J> {
    id: u64,
    injector: Injector<J>,
    stealers: Vec<Stealer<J>>,
    gauges: Gauges,
    shutdown: AtomicBool,
    /// Set while one thread holds the linger slot.
    lingering: AtomicBool,
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
    #[cfg(test)]
    counters: TestCounters,
}

/// The counts every push, job and wake writes or reads, on a cache line of
/// their own, apart from the read-mostly fields of [`Shared`] (its `id` and
/// `stealers`, which every submit or `find_job` reads).
#[repr(align(64))]
struct Gauges {
    /// Number of jobs submitted but not yet finished executing.
    pending: AtomicUsize,
    /// Number of jobs sitting in some queue: raised before the push, lowered
    /// when `find_job` takes one. What a lingering thread polls and a
    /// parking thread re-checks.
    queued: AtomicUsize,
    /// Threads registered asleep on `wakeup`; changed only under
    /// `sleep_lock`, read by wakers without it.
    sleepers: AtomicUsize,
}

/// What the unit tests count instead of timing.
#[cfg(test)]
#[derive(Default)]
struct TestCounters {
    /// Condvar notifications issued (wakes that found a sleeper).
    notifies: AtomicUsize,
    /// Threads inside the linger loop now, and the most there ever were.
    lingerers: AtomicUsize,
    lingerers_peak: AtomicUsize,
}

impl<J: Job> Shared<J> {
    fn new(stealers: Vec<Stealer<J>>) -> Self {
        Shared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            injector: Injector::new(),
            stealers,
            gauges: Gauges {
                pending: AtomicUsize::new(0),
                queued: AtomicUsize::new(0),
                sleepers: AtomicUsize::new(0),
            },
            shutdown: AtomicBool::new(false),
            lingering: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
            #[cfg(test)]
            counters: TestCounters::default(),
        }
    }

    /// Finds any runnable job: the local deque first (if this thread is a
    /// worker of this pool), then the injector, then other workers' deques.
    ///
    /// Like `linger` and `park` kept out of line: `run_until`'s frame stays
    /// on the stack under every job a blocked helper runs — up to ~170 jobs
    /// deep on the runtime's k-means benchmark shape, and nothing bounds
    /// it — and should hold only what it needs while a job runs.
    #[inline(never)]
    fn find_job(&self) -> Option<J> {
        let job = self.probe_queues()?;
        self.gauges.queued.fetch_sub(1, Ordering::SeqCst);
        Some(job)
    }

    fn probe_queues(&self) -> Option<J> {
        // Local deque (only on worker threads of this pool).
        let local = with_local(self.id, Worker::pop).flatten();
        if local.is_some() {
            return local;
        }
        // Injector, retrying on contention.
        loop {
            match self.injector.steal() {
                Steal::Success(job) => return Some(job),
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        // Steal from other workers.
        for stealer in &self.stealers {
            loop {
                match stealer.steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    fn run_job(&self, job: J) {
        job.run();
        self.gauges.pending.fetch_sub(1, Ordering::Release);
        // A completed job may unblock helpers waiting on a condition.
        self.wake(true);
    }

    /// The one wake site. The caller has already published what a sleeper
    /// waits for (a pushed job, a completion, the shutdown flag); the fence
    /// orders that before the `sleepers` load, pairing with the fence in
    /// [`Shared::park`]. Only a registered sleeper costs the lock and the
    /// futex call.
    fn wake(&self, all: bool) {
        fence(Ordering::SeqCst);
        if self.gauges.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Under the lock: a registered sleeper holds it from its re-check
        // to its wait, so this notify cannot land between the two.
        let _guard = self.sleep_lock.lock();
        #[cfg(test)]
        self.counters.notifies.fetch_add(1, Ordering::Relaxed);
        if all {
            self.wakeup.notify_all();
        } else {
            self.wakeup.notify_one();
        }
    }

    /// Runs jobs on the calling thread until `done()` holds: the loop of a
    /// worker (`done` = shutdown) and of [`ThreadPool::help_until`]. With
    /// nothing to run it lingers if it has just been busy (on entry, or
    /// after a job) and the slot is free, and parks otherwise — a thread
    /// that wakes to nothing (a completion that was not its own, a spurious
    /// wakeup) goes straight back to sleep, so an idle pool does not poll.
    fn run_until(&self, done: &dyn Fn() -> bool) {
        let mut was_busy = true;
        while !done() {
            if let Some(job) = self.find_job() {
                self.run_job(job);
                was_busy = true;
            } else if !(was_busy && self.linger(done)) {
                was_busy = false;
                self.park(done);
            }
        }
    }

    /// Polls for work or `done()` for up to [`LINGER`] if no other thread is
    /// lingering. Returns true when there is something to do.
    ///
    /// The poll yields rather than spins: with more runnable threads than
    /// cores (a pool as wide as the host plus the submitting thread) a
    /// spinning lingerer takes the submitter's core. Measured (PR 14) on the
    /// since-deleted open-loop service harness (2 workers + submitter +
    /// reapers on 2 CPUs, tree, 80 000 req/s): enable p50 16–21 µs at the parent,
    /// 25–60 µs spinning, 18–29 µs yielding; with a core to itself
    /// (`benchmark`, svc-disjoint) both give 6.1 µs.
    #[inline(never)]
    fn linger(&self, done: &dyn Fn() -> bool) -> bool {
        if self.lingering.swap(true, Ordering::Acquire) {
            return false;
        }
        #[cfg(test)]
        {
            let now = self.counters.lingerers.fetch_add(1, Ordering::SeqCst) + 1;
            self.counters
                .lingerers_peak
                .fetch_max(now, Ordering::SeqCst);
        }
        let start = Instant::now();
        let found = loop {
            if self.gauges.queued.load(Ordering::Acquire) > 0 || done() {
                break true;
            }
            if start.elapsed() >= LINGER {
                break false;
            }
            std::thread::yield_now();
        };
        #[cfg(test)]
        self.counters.lingerers.fetch_sub(1, Ordering::SeqCst);
        self.lingering.store(false, Ordering::Release);
        found
    }

    /// Registers as a sleeper, re-checks, and waits, untimed, for a wake.
    /// `done` runs with `sleep_lock` held and must not call into the pool.
    #[inline(never)]
    fn park(&self, done: &dyn Fn() -> bool) {
        let mut guard = self.sleep_lock.lock();
        self.gauges.sleepers.fetch_add(1, Ordering::SeqCst);
        // Pairs with the fence in `wake`: either this re-check sees what the
        // waker published, or the waker's load sees this registration.
        fence(Ordering::SeqCst);
        if self.gauges.queued.load(Ordering::SeqCst) == 0 && !done() {
            self.wakeup.wait(&mut guard);
        }
        self.gauges.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Stack size of a worker thread. A worker blocked in `help_until` runs
/// other jobs on top of the blocked one, so its stack depth follows the
/// number of blocked tasks in flight. The runtime counts it
/// (`RuntimeStats::peak_nesting`): up to ~170 bodies deep on its k-means
/// benchmark shape, and nothing bounds it. The 2 MiB default holds a few
/// thousand such
/// frames of an optimized build and fewer than 2 000 of an unoptimized
/// one. Untouched stack is address space only.
const WORKER_STACK_BYTES: usize = 16 << 20;

/// A fixed-size work-stealing thread pool running jobs of type `J`.
pub struct ThreadPool<J: Job = BoxedJob> {
    shared: Arc<Shared<J>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    num_threads: usize,
}

impl<J: Job> ThreadPool<J> {
    /// Creates a pool with `num_threads` worker threads (at least 1).
    pub fn new(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        let workers: Vec<Worker<J>> = (0..num_threads).map(|_| Worker::new_lifo()).collect();
        let shared = Arc::new(Shared::new(workers.iter().map(Worker::stealer).collect()));
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

    /// Submits a job for execution: [`ThreadPool::submit_all`] of one.
    pub fn submit(&self, job: J) {
        self.submit_all(std::iter::once(job));
    }

    /// Submits a batch of jobs as one publish: the gauges rise once by the
    /// batch's length, the jobs go onto one queue under one hold of its
    /// lock, and one wake follows (see "Idle protocol"). Jobs submitted
    /// from a worker thread of this pool go to that worker's own deque
    /// (LIFO); jobs submitted from any other thread go to the shared
    /// injector. Sleeping threads are signalled only if there are any —
    /// one for a single job, all of them for more; with every worker busy
    /// or lingering the call touches no lock but the queue's. An empty
    /// batch touches nothing.
    pub fn submit_all<I>(&self, jobs: I)
    where
        I: IntoIterator<Item = J>,
        I::IntoIter: ExactSizeIterator,
    {
        let jobs = jobs.into_iter();
        let n = jobs.len();
        if n == 0 {
            return;
        }
        let gauges = &self.shared.gauges;
        gauges.pending.fetch_add(n, Ordering::Acquire);
        gauges.queued.fetch_add(n, Ordering::SeqCst);
        let mut jobs = Some(jobs);
        with_local(self.shared.id, |worker| {
            worker.push_all(jobs.take().expect("pushed once"))
        });
        if let Some(jobs) = jobs {
            self.shared.injector.push_all(jobs);
        }
        self.shared.wake(n > 1);
    }

    /// Runs jobs on the calling thread until `done()` returns true.
    ///
    /// This is how a blocked task waits: instead of sleeping while holding a
    /// worker thread hostage, it *helps* by executing other ready jobs. With
    /// no job available it lingers or parks like an idle worker; a finished
    /// job or a new one wakes it. `done` may be called with an internal lock
    /// held and must not call back into the pool. A parked helper wakes only
    /// when a job of this pool ends, a job is submitted or the pool shuts
    /// down, so `done` must turn true inside a job of this pool (see "Waiting:
    /// the `help_until` contract"); a condition set from anywhere else is
    /// seen only by a helper that happens to be awake.
    pub fn help_until(&self, done: impl Fn() -> bool) {
        self.shared.run_until(&done);
    }

    /// Number of submitted jobs that have not finished executing.
    pub fn pending_jobs(&self) -> usize {
        self.shared.gauges.pending.load(Ordering::Acquire)
    }

    /// Blocks until every submitted job has finished executing, helping run
    /// them from the calling thread.
    pub fn wait_idle(&self) {
        self.help_until(|| self.shared.gauges.pending.load(Ordering::Acquire) == 0);
    }
}

impl ThreadPool {
    /// [`ThreadPool::submit`] for the default job type. Kept apart so that
    /// `ThreadPool::new(n)` followed by `execute(Box::new(..))` needs no
    /// type annotation.
    pub fn execute(&self, job: BoxedJob) {
        self.submit(job);
    }
}

impl<J: Job> Drop for ThreadPool<J> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake(true);
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

fn worker_loop<J: Job>(shared: Arc<Shared<J>>, worker: Worker<J>) {
    LOCAL.with(|l| *l.borrow_mut() = Some((shared.id, Box::new(worker))));
    shared.run_until(&|| shared.shutdown.load(Ordering::SeqCst));
    LOCAL.with(|l| *l.borrow_mut() = None);
}

#[cfg(test)]
mod model;

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
        let mine: Worker<BoxedJob> = Worker::new_lifo();
        let other: Worker<BoxedJob> = Worker::new_lifo();
        let shared = Shared::new(vec![mine.stealer(), other.stealer()]);
        shared.gauges.pending.store(3, Ordering::Relaxed);
        shared.gauges.queued.store(3, Ordering::Relaxed);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let job = |name: &'static str| -> BoxedJob {
            let order = Arc::clone(&order);
            Box::new(move || order.lock().push(name))
        };
        // Enqueued in the reverse of the order they must be served in.
        other.push(job("stolen"));
        shared.injector.push(job("injected"));
        mine.push(job("local"));
        LOCAL.with(|l| *l.borrow_mut() = Some((shared.id, Box::new(mine))));
        while let Some(job) = shared.find_job() {
            shared.run_job(job);
        }
        LOCAL.with(|l| *l.borrow_mut() = None);
        assert_eq!(*order.lock(), ["local", "injected", "stolen"]);
        assert_eq!(shared.gauges.pending.load(Ordering::Acquire), 0);
        assert_eq!(shared.gauges.queued.load(Ordering::Acquire), 0);
    }

    /// Spins (yielding) until `cond` holds; panics after 10 s so a lost
    /// wakeup fails the test instead of hanging it.
    fn spin_until(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(10), "stuck: {what}");
            std::thread::yield_now();
        }
    }

    fn notifies(shared: &Shared<BoxedJob>) -> usize {
        shared.counters.notifies.load(Ordering::Relaxed)
    }

    /// Runs `body` on a thread of its own and fails the test `name` if it
    /// has not returned within 10 s: a park is untimed, so a lost wakeup is
    /// a hang, and this turns it into a failure that names the test.
    fn watchdog(name: &str, body: impl FnOnce() + Send + 'static) {
        let (finished, outcome) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = finished.send(());
        });
        match outcome.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => runner.join().expect("the body returned"),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("{name}: no progress in 10 s (a lost wakeup)")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().expect_err("the body panicked"))
            }
        }
    }

    #[test]
    fn execute_onto_busy_workers_issues_no_notify() {
        watchdog("execute_onto_busy_workers_issues_no_notify", || {
            execute_onto_busy_workers()
        });
    }

    fn execute_onto_busy_workers() {
        // Both workers are inside jobs and the test thread never parks, so
        // nobody is asleep: a push must not touch the condvar.
        let pool = ThreadPool::new(2);
        let inside = Arc::new(AtomicU32::new(0));
        let release = Arc::new(AtomicBool::new(false));
        for _ in 0..2 {
            let inside = Arc::clone(&inside);
            let release = Arc::clone(&release);
            pool.execute(Box::new(move || {
                inside.fetch_add(1, Ordering::SeqCst);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }));
        }
        spin_until("both workers inside their job", || {
            inside.load(Ordering::SeqCst) == 2
        });
        assert_eq!(pool.shared.gauges.sleepers.load(Ordering::SeqCst), 0);
        let before = notifies(&pool.shared);
        let ran = Arc::new(AtomicU32::new(0));
        for _ in 0..1000 {
            let ran = Arc::clone(&ran);
            pool.execute(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
        assert_eq!(
            notifies(&pool.shared),
            before,
            "a push onto busy workers notified"
        );
        release.store(true, Ordering::Release);
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::Relaxed), 1000);
    }

    /// Parks every worker of a fresh `threads`-worker pool.
    fn parked_pool(threads: usize) -> ThreadPool {
        let pool = ThreadPool::new(threads);
        spin_until("every worker parked", || {
            pool.shared.gauges.sleepers.load(Ordering::SeqCst) == threads
        });
        pool
    }

    /// `n` jobs that each count one on `ran`.
    fn counting_jobs(ran: &Arc<AtomicU32>, n: usize) -> Vec<BoxedJob> {
        (0..n)
            .map(|_| {
                let ran = Arc::clone(ran);
                Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }) as BoxedJob
            })
            .collect()
    }

    #[test]
    fn a_batch_onto_busy_workers_notifies_nobody() {
        watchdog("a_batch_onto_busy_workers_notifies_nobody", || {
            a_batch_onto_busy_workers()
        });
    }

    fn a_batch_onto_busy_workers() {
        let pool = ThreadPool::new(2);
        let inside = Arc::new(AtomicU32::new(0));
        let release = Arc::new(AtomicBool::new(false));
        for _ in 0..2 {
            let inside = Arc::clone(&inside);
            let release = Arc::clone(&release);
            pool.execute(Box::new(move || {
                inside.fetch_add(1, Ordering::SeqCst);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }));
        }
        spin_until("both workers inside their job", || {
            inside.load(Ordering::SeqCst) == 2
        });
        let before = notifies(&pool.shared);
        let ran = Arc::new(AtomicU32::new(0));
        pool.submit_all(counting_jobs(&ran, 1000));
        assert_eq!(pool.shared.gauges.queued.load(Ordering::SeqCst), 1000);
        assert_eq!(
            notifies(&pool.shared),
            before,
            "a batch onto busy workers notified"
        );
        release.store(true, Ordering::Release);
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn a_batch_onto_parked_workers_runs_every_job() {
        // The test thread only watches, so the workers themselves must be
        // woken for the batch: a lost wakeup is a hang.
        watchdog("a_batch_onto_parked_workers_runs_every_job", || {
            let pool = parked_pool(3);
            let ran = Arc::new(AtomicU32::new(0));
            pool.submit_all(counting_jobs(&ran, 300));
            spin_until("every job of the batch", || {
                ran.load(Ordering::Relaxed) == 300
            });
            assert!(notifies(&pool.shared) > 0, "nobody was woken");
        });
    }

    #[test]
    fn a_batch_from_a_worker_lands_in_its_own_deque() {
        let pool = Arc::new(ThreadPool::new(1));
        let ran = Arc::new(AtomicU32::new(0));
        let (seen, queued) = std::sync::mpsc::channel();
        let p = Arc::clone(&pool);
        let jobs = counting_jobs(&ran, 8);
        pool.execute(Box::new(move || {
            p.submit_all(jobs);
            let local = with_local(p.shared.id, |w: &Worker<BoxedJob>| w.len());
            let _ = seen.send((local, p.shared.injector.is_empty()));
        }));
        let (local, injector_empty) = queued.recv().expect("the job");
        assert_eq!((local, injector_empty), (Some(8), true));
        spin_until("the batch", || ran.load(Ordering::Relaxed) == 8);
    }

    #[test]
    fn an_empty_batch_touches_no_gauge() {
        let pool = parked_pool(2);
        let before = notifies(&pool.shared);
        pool.submit_all(Vec::<BoxedJob>::new());
        let gauges = &pool.shared.gauges;
        assert_eq!(gauges.pending.load(Ordering::SeqCst), 0);
        assert_eq!(gauges.queued.load(Ordering::SeqCst), 0);
        assert_eq!(gauges.sleepers.load(Ordering::SeqCst), 2);
        assert_eq!(notifies(&pool.shared), before);
    }

    #[test]
    fn ping_pong_handoffs_never_lose_a_wakeup() {
        watchdog("ping_pong_handoffs_never_lose_a_wakeup", ping_pong_handoffs);
    }

    fn ping_pong_handoffs() {
        // One job at a time onto an otherwise idle pool. Back-to-back
        // handoffs find the worker lingering; a pause longer than LINGER
        // (one handoff in eight pauses 0–300 µs) finds it parked. The test
        // thread waits by spinning on even rounds and inside `help_until` on
        // odd ones, so both the worker's and the helper's park are crossed.
        const ROUNDS: usize = 100_000;
        let pool = ThreadPool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for round in 1..=ROUNDS {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if rng >> 61 == 0 {
                let pause = Duration::from_micros((rng >> 33) % 300);
                let start = Instant::now();
                while start.elapsed() < pause {
                    std::hint::spin_loop();
                }
            }
            let d = Arc::clone(&done);
            pool.execute(Box::new(move || {
                d.store(round, Ordering::Release);
            }));
            if round % 2 == 0 {
                spin_until("handoff", || done.load(Ordering::Acquire) == round);
            } else {
                pool.help_until(|| done.load(Ordering::Acquire) == round);
            }
        }
        pool.wait_idle();
        let notified = notifies(&pool.shared);
        assert!(notified > 0, "no handoff ever met a parked thread");
        assert!(
            notified < 2 * ROUNDS,
            "every push and every completion notified: nobody ever lingered"
        );
    }

    #[test]
    fn at_most_one_thread_lingers() {
        watchdog("at_most_one_thread_lingers", at_most_one_lingerer);
    }

    fn at_most_one_lingerer() {
        let pool = ThreadPool::new(4);
        let ran = Arc::new(AtomicU32::new(0));
        for burst in 1..=200u32 {
            for _ in 0..8 {
                let ran = Arc::clone(&ran);
                pool.execute(Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }));
            }
            spin_until("burst", || ran.load(Ordering::Relaxed) == burst * 8);
        }
        pool.wait_idle();
        let counters = &pool.shared.counters;
        assert_eq!(counters.lingerers_peak.load(Ordering::SeqCst), 1);
        // With nothing left to do every worker ends up parked, not polling.
        spin_until("all four workers parked", || {
            pool.shared.gauges.sleepers.load(Ordering::SeqCst) == 4
        });
        assert_eq!(counters.lingerers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn drop_while_every_worker_is_parked_joins_every_worker() {
        // Only the shutdown wake can get a parked worker out: a lost one
        // leaves `drop` joining forever.
        watchdog(
            "drop_while_every_worker_is_parked_joins_every_worker",
            || {
                let pool: ThreadPool = ThreadPool::new(3);
                let shared = Arc::clone(&pool.shared);
                spin_until("all three workers parked", || {
                    shared.gauges.sleepers.load(Ordering::SeqCst) == 3
                });
                drop(pool);
                assert_eq!(shared.gauges.sleepers.load(Ordering::SeqCst), 0);
                assert_eq!(
                    Arc::strong_count(&shared),
                    1,
                    "a worker still holds the pool"
                );
            },
        );
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
