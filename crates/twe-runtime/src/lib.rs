//! # twe-runtime
//!
//! The Tasks With Effects (TWE) runtime: dynamically-created tasks carry
//! programmer-declared effect summaries, and an effect-aware scheduler
//! guarantees **task isolation** — no two tasks with interfering effects ever
//! run concurrently. Together with (statically checked) effect summaries this
//! yields data-race freedom, atomicity for task bodies that do not create or
//! wait for other tasks, avoidance of a class of blocking deadlocks through
//! effect transfer, and determinism for computations restricted to
//! `spawn`/`join` (chapter 3 of the paper).
//!
//! Two schedulers are provided, selected by [`SchedulerKind`]:
//!
//! * [`SchedulerKind::Naive`] — the single-queue, single-lock scheduler of
//!   the original PPoPP 2013 implementation (§3.4.2);
//! * [`SchedulerKind::Tree`] — the scalable tree-based scheduler of
//!   chapter 5, which exploits the hierarchical structure of effect
//!   specifications.
//!
//! Dynamic effects (chapter 7) are supported through [`DynCell`] reference
//! regions, each of which keeps the claims tasks hold on it,
//! `TaskCtx::acquire_read`/`acquire_write`, and retryable tasks
//! ([`Runtime::execute_later_retry`]). **Contract:** a cell is guarded
//! either by dynamic claims or by static effects on [`DynCell::rpl`] —
//! never both concurrently on one cell (see the [`DynCell`] docs).
//!
//! # Task lifecycle
//!
//! A task created with [`Runtime::execute_later`] / [`Runtime::submit_all`]
//! moves through the [`TaskStatus`] states:
//!
//! 1. **Submit** — the scheduler registers the task's effects (the tree
//!    scheduler inserts one record per effect at its RPL's maximal
//!    wildcard-free prefix, except for the effects a [`TaskCtx::execute`]
//!    caller holds for its child: its own records guard those) and checks
//!    them against every enabled task's.
//! 2. **Park on waiters** — each conflicting effect registers on the
//!    blocking record's waiter list and the task stays `Waiting`; if a
//!    running task blocks on it (`getValue`/`join`), it becomes
//!    `Prioritized` and may *disable* enabled-but-unstarted effects of
//!    other waiting tasks (Figure 5.10).
//! 3. **Enabled** — once every effect is conflict-free the scheduler flips
//!    the task to `Enabled` exactly once and hands its body to the thread
//!    pool — or, when the submission of a [`TaskCtx::execute`] child
//!    enabled it on the spot, back to the calling task, which runs it on
//!    its own stack.
//! 4. **Done** — after the body returns (and the implicit join of spawned
//!    children), the runtime marks the task `Done`, the scheduler releases
//!    its effects and rechecks the records parked on their waiter lists.
//!    The task's future completes last, so a waiter that sees it done
//!    finds the effects released and the admission slot free.
//! 5. **Prune** — the tree nodes finished tasks leave vacant are pruned in
//!    batches by later admissions, so the scheduling tree does not grow
//!    monotonically under index-region churn. The runtime holds every task
//!    from submission to `Done` (the `Scheduler` ownership contract), so
//!    finishing is the only way a task's records leave the tree.
//!
//! Wide fan-out phases should prefer the batched admission path
//! ([`Runtime::submit_all`], [`TaskCtx::execute_all_later`]): same
//! scheduling outcome as per-task `execute_later`, one admission round.
//! See `ARCHITECTURE.md` for the scheduling contract in full.
//!
//! ```
//! use twe_runtime::{Runtime, SchedulerKind};
//! use twe_effects::EffectSet;
//!
//! // The increaseContrast example of §3.1.5: work on the two halves of an
//! // image in parallel inside a task, using spawn/join effect transfer.
//! let rt = Runtime::new(4, SchedulerKind::Tree);
//! let result = rt.run(
//!     "increaseContrast",
//!     EffectSet::parse("writes Top, writes Bottom"),
//!     |ctx| {
//!         let top = ctx.spawn("topHalf", EffectSet::parse("writes Top"), |_| 21u32);
//!         let bottom = 21u32; // processed in the parent, covered by `writes Bottom`
//!         top.join(ctx) + bottom
//!     },
//! );
//! assert_eq!(result, 42);
//! ```

#![warn(missing_docs)]

mod counters;
pub mod ctx;
pub mod dynamics;
pub mod future;
pub mod naive;
pub mod scheduler;
pub mod task;
pub mod tree;

pub use ctx::TaskCtx;
pub use dynamics::{Aborted, DynCell, DynamicStats};
pub use future::{SpawnedTaskFuture, TaskFuture};
pub use task::{TaskRecord, TaskStatus};

use crate::counters::{PerThread, ACQUIRES, ADMITTED, CONFLICTS, EXECUTED, RETRIES};
use crate::naive::NaiveScheduler;
use crate::scheduler::{EnableAllFn, EnableFn, Scheduler};
use crate::task::TaskBody;
use crate::tree::TreeScheduler;
use parking_lot::Mutex;
use std::any::Any;
use std::borrow::Cow;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use twe_effects::EffectSet;
use twe_pool::ThreadPool;

/// Which effect-aware scheduler a [`Runtime`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The single-queue, single-lock scheduler of the original TWEJava
    /// prototype (§3.4.2).
    Naive,
    /// The scalable tree-based scheduler of chapter 5.
    Tree,
}

impl SchedulerKind {
    /// Human-readable name used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Naive => "single-queue",
            SchedulerKind::Tree => "tree",
        }
    }
}

/// How a [`Runtime`] admits new top-level tasks when its backlog is deep.
///
/// The policy bounds the number of **in-flight** tasks that take a slot —
/// submitted and not yet finished — so an open-loop producer that outruns
/// the workers cannot grow the scheduler's queue without bound (the
/// saturation collapse the service benchmarks measure). Spawned tasks and
/// [`TaskCtx::execute`] children take none: a spawned task's effects were
/// transferred from an already-admitted parent, and an `execute` child is
/// *carried* by its caller, which is blocked on it and whose slot covers
/// it. Neither is new backlog.
///
/// Submissions from **inside a task body** (`execute_later` /
/// `execute_all_later` on a [`TaskCtx`], or any submission made while a
/// body runs on the thread) always bypass the bound: the task making them
/// holds an admission slot only its own completion can release, so
/// blocking it could starve the very backlog it waits on. That covers the
/// runtime's workers: every job they run is a task body. The depth gauge
/// still counts these submissions (but not an `execute` child, which never
/// holds a slot of its own), so [`RuntimeStats::peak_depth`] may
/// transiently exceed the cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit everything immediately (the default). The depth gauge is still
    /// maintained; the policy tests read its [`RuntimeStats::peak_depth`].
    Unbounded,
    /// Hold the submitting (non-task) thread until the in-flight count
    /// drops below `max_queued` — classic backpressure: the producer is
    /// slowed to the service rate and no request is lost. The held
    /// submitter helps the pool run queued tasks until room frees, as a
    /// thread in [`TaskFuture::wait`] does, so like `wait` its return can
    /// wait for the body it is running.
    BoundedBlock {
        /// Maximum in-flight non-spawned tasks before submitters block;
        /// `max_queued` ≥ 1 (with no slot, nothing ever completes to open
        /// one and the first submitter blocks forever).
        max_queued: usize,
    },
}

impl AdmissionPolicy {
    /// The configured depth cap, if the policy has one.
    pub fn max_queued(&self) -> Option<usize> {
        match self {
            AdmissionPolicy::Unbounded => None,
            AdmissionPolicy::BoundedBlock { max_queued } => Some(*max_queued),
        }
    }
}

thread_local! {
    /// How many task bodies are currently executing on this thread.
    ///
    /// Nonzero not only on pool worker threads: an external thread blocked
    /// in [`TaskFuture::wait`] *helps* the pool and may run task bodies
    /// itself, and a worker blocked in `get_value`/`join` runs nested jobs
    /// on its own stack. Any submission made while this is nonzero must
    /// bypass [`AdmissionPolicy::BoundedBlock`] — the thread cannot be
    /// throttled, because the task it is executing is itself holding an
    /// admission slot (and possibly effects) that only its completion can
    /// release.
    static TASK_NEST: Cell<usize> = const { Cell::new(0) };

    /// The id of the task whose submission this thread's innermost
    /// [`TaskCtx::execute`] is making, 0 outside one (ids start at 1).
    static WANTED: Cell<u64> = const { Cell::new(0) };

    /// Set once that task's submission has enabled it: [`for_the_pool`]
    /// kept it from the pool for the `execute` to run inline.
    static HANDED_BACK: Cell<bool> = const { Cell::new(false) };
}

/// Whether the pool runs a task the scheduler just enabled; it gets the
/// very `Arc` the scheduler enabled the task with. A task that has held
/// itself since its submission ([`TaskRecord::pending`]) lets that handle
/// go. A carried [`TaskCtx::execute`] child holds nothing (its caller's
/// future keeps it alive), and the one this thread's `execute` is
/// submitting ([`WANTED`]) stays with that `execute`, to run inline.
fn for_the_pool(task: &TaskRecord) -> bool {
    if !task.carried {
        drop(task.pending.lock().take());
    } else if WANTED.get() == task.id {
        HANDED_BACK.set(true);
        return false;
    }
    true
}

/// Marks the current thread as executing a task body for its lifetime.
struct TaskNestGuard;

impl TaskNestGuard {
    /// Enters one more body on this thread and raises `peak` if no thread
    /// has held that many before: a relaxed load, and a `fetch_max` only on
    /// a new peak.
    fn enter(peak: &AtomicUsize) -> Self {
        let depth = TASK_NEST.get() + 1;
        TASK_NEST.set(depth);
        if depth > peak.load(Ordering::Relaxed) {
            peak.fetch_max(depth, Ordering::Relaxed);
        }
        TaskNestGuard
    }
}

impl Drop for TaskNestGuard {
    fn drop(&mut self) {
        TASK_NEST.with(|c| c.set(c.get() - 1));
    }
}

/// Is the calling thread currently inside a task body? If so it is exempt
/// from [`AdmissionPolicy::BoundedBlock`] (see [`AdmissionPolicy`]). A pool
/// worker needs no exemption of its own: every job the runtime's pool runs
/// is a task, whose `Work::run` holds a [`TaskNestGuard`] from before the
/// body to after `finish_task`, so a worker can only submit from inside a
/// body.
fn in_task_body() -> bool {
    TASK_NEST.with(|c| c.get() > 0)
}

/// Admission bookkeeping: the in-flight gauge the policy acts on and its
/// high-water mark, on a cache line of their own. The gauge is the
/// runtime's one count of tasks in flight: the release that takes it to
/// zero tells the scheduler it is idle ([`Scheduler::idle`]). It stays one
/// atomic because the cap and the peak need it exact.
///
/// A submitter that [`AdmissionPolicy::BoundedBlock`] holds waits the way
/// every other waiter does, by helping the pool
/// ([`RtInner::reserve_blocking`]); there is no gate of its own. The depth
/// falls only in `finish_task`, `finish_task` always runs inside a pool job
/// (a [`RunTask`], or an inline `execute` child running inside one), and
/// every job ends at the pool's one wake site, so the pool's idle protocol
/// also carries admission waits.
///
/// A [`TaskCtx::execute`] child is counted in `admitted` but never touches
/// this line: its caller's slot covers it ([`TaskRecord::carried`]).
#[repr(align(64))]
struct AdmissionState {
    depth: AtomicUsize,
    peak_depth: AtomicUsize,
}

/// A blocked submitter waits for room for `min(want, cap / GATE_FRACTION)`
/// slots, not for one. A helping submitter re-checks after every job that
/// ends, so waiting for one slot would admit a blocked wave in chunks of
/// one, as waking it per completion once did (`svc-capacity` at its cap:
/// ~140k req/s against ~240k below the cap). Half the cap admits a wave
/// blocked at the cap in at most three chunks and still leaves the other
/// half queued for the workers while it admits.
const GATE_FRACTION: usize = 2;

impl AdmissionState {
    fn new() -> Self {
        AdmissionState {
            depth: AtomicUsize::new(0),
            peak_depth: AtomicUsize::new(0),
        }
    }

    /// Raises `peak_depth` to `depth_now` if that is a new peak: a relaxed
    /// load, and a `fetch_max` (a locked read-modify-write of the shared
    /// line even when it changes nothing) only on a new peak.
    fn note_peak(&self, depth_now: usize) {
        if depth_now > self.peak_depth.load(Ordering::Relaxed) {
            self.peak_depth.fetch_max(depth_now, Ordering::Relaxed);
        }
    }

    /// Unconditional reservation (unbounded policy, task-body bypass).
    fn reserve_forced(&self, n: usize) {
        let now = self.depth.fetch_add(n, Ordering::SeqCst) + n;
        self.note_peak(now);
    }

    /// Reserves up to `want` slots under `cap` (CAS loop), but only if at
    /// least `need` (≥ 1) fit; returns how many were reserved, possibly
    /// zero.
    fn reserve(&self, want: usize, need: usize, cap: usize) -> usize {
        let mut cur = self.depth.load(Ordering::SeqCst);
        loop {
            let take = want.min(cap.saturating_sub(cur));
            if take < need {
                return 0;
            }
            match self.depth.compare_exchange_weak(
                cur,
                cur + take,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    self.note_peak(cur + take);
                    return take;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Releases `n` in-flight slots; true when that left none in flight. A
    /// submitter waiting for them is woken by the pool when the job this
    /// runs in ends.
    fn release(&self, n: usize) -> bool {
        self.depth.fetch_sub(n, Ordering::SeqCst) == n
    }
}

/// One snapshot of what a runtime has done so far ([`Runtime::stats`]).
///
/// `tasks_executed`, `task_retries`, `admitted` and `dynamic` are kept per
/// thread, each thread on a cache line of its own, and summed here: exact
/// for all work that happened before the call (a task whose future is done
/// has been counted), and free of a shared write per task.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Tasks whose bodies ran to completion.
    pub tasks_executed: u64,
    /// Aborted attempts of retryable tasks (dynamic-effect conflicts).
    pub task_retries: u64,
    /// Non-spawned tasks admitted to the scheduler, [`TaskCtx::execute`]
    /// children included.
    pub admitted: u64,
    /// Current in-flight (submitted, not finished) tasks that hold an
    /// admission slot: neither spawned tasks nor [`TaskCtx::execute`]
    /// children, whose parent's or caller's slot covers them.
    pub depth: usize,
    /// High-water mark of `depth`.
    pub peak_depth: usize,
    /// The most task bodies ever on one thread's stack at once: a body
    /// blocked in `get_value`, `join` or `wait`, or a submitter blocked by
    /// [`AdmissionPolicy::BoundedBlock`], runs others on top of itself while
    /// it helps the pool, and an inline [`TaskCtx::execute`] child runs on
    /// top of its caller.
    pub peak_nesting: usize,
    /// The scheduler's own counters ([`scheduler::Scheduler::diagnostics`]).
    pub scheduler: scheduler::SchedulerDiagnostics,
    /// Dynamic-effect acquisitions and conflicts.
    pub dynamic: DynamicStats,
}

/// An enabled task on its way to a worker. The pool queues the task's own
/// `Arc`, not a closure around it: enabling allocates nothing.
pub(crate) struct RunTask(Arc<TaskRecord>);

impl twe_pool::Job for RunTask {
    fn run(self) {
        self.0.body.run(&self.0);
    }
}

/// The tail of a runtime task's record ([`TaskBody`]): the body until the
/// task runs, its outcome afterwards.
struct Work<T, F> {
    /// The body and, for a spawned task, the parent its completion is
    /// reported to: taken together, in one lock, by the one run.
    body: Mutex<Option<(F, Option<Arc<TaskRecord>>)>>,
    /// The value the body returned, or the payload it panicked with.
    result: Mutex<Option<std::thread::Result<T>>>,
}

impl<T, F> TaskBody for Work<T, F>
where
    T: Send + 'static,
    F: FnOnce(&TaskCtx<'_>) -> T + Send + 'static,
{
    fn run(&self, task: &Arc<TaskRecord>) {
        let rt = task.runtime();
        let _nest = TaskNestGuard::enter(&rt.peak_nesting);
        rt.counters.add(EXECUTED, 1);
        let ctx = TaskCtx::new(rt, task);
        // The body leaves the record only inside the call that consumes it:
        // this frame stays under every task a blocked body helps with.
        let mut spawned_parent = None;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (body, parent) = self.body.lock().take().expect("a task runs once");
            spawned_parent = parent;
            body(&ctx)
        }));
        finish_task(&ctx, spawned_parent);
        // Publish the result last: a waiter that sees the future done also
        // sees the effects released and the admission slot free. A waiter
        // asleep in the pool is woken by the pool when this job returns.
        *self.result.lock() = Some(outcome);
        task.completed.store(true, Ordering::Release);
    }

    fn slot(&self) -> &dyn Any {
        &self.result
    }
}

/// What follows every body, whatever it returned: the implicit join of all
/// remaining spawned children (the awaitSpawned step of the `return` rule,
/// §3.2.3), then the scheduler and the admission gauge let the task go. Not
/// generic and not inlined: a worker blocked in `get_value` runs other tasks
/// on top of the blocked one (`RuntimeStats::peak_nesting`: up to ~170
/// bodies deep on the k-means benchmark shape, unbounded in general), and
/// what this needs must not sit in each of those frames.
#[inline(never)]
fn finish_task(ctx: &TaskCtx<'_>, spawned_parent: Option<Arc<TaskRecord>>) {
    let (rt, task) = (ctx.rt, ctx.record);
    ctx.await_remaining_spawned();
    ctx.release_dynamic_effects();
    task.mark_done();
    rt.scheduler().task_done(task);
    if let Some(parent) = spawned_parent {
        rt.scheduler().spawned_child_done(&parent);
    }
    // Release the admission slot only after the scheduler dropped the
    // task, so the policy's cap bounds what the scheduler actually holds.
    rt.release_admission(task);
}

/// The runtime every task holds (`TaskRecord::runtime`). Aligned to a cache
/// line so that the `Arc`'s reference counts, which every task's creation
/// and drop write, sit on a line apart from the fields every task reads.
#[repr(align(64))]
pub(crate) struct RtInner {
    pub(crate) pool: ThreadPool<RunTask>,
    scheduler: Box<dyn Scheduler>,
    kind: SchedulerKind,
    /// Immutable after construction: how deep the in-flight backlog may grow
    /// before submissions block.
    policy: AdmissionPolicy,
    admission: AdmissionState,
    /// Task ids and the per-thread half of [`RuntimeStats`].
    counters: PerThread,
    /// [`RuntimeStats::peak_nesting`].
    peak_nesting: AtomicUsize,
    /// Size of every wave (or chunk) handed to the scheduler, in order.
    #[cfg(test)]
    wave_sizes: parking_lot::Mutex<Vec<usize>>,
}

impl RtInner {
    pub(crate) fn scheduler(&self) -> &dyn Scheduler {
        self.scheduler.as_ref()
    }

    /// Admits one task: blocks under [`AdmissionPolicy::BoundedBlock`]
    /// (unless the caller is exempt — see [`AdmissionPolicy`]), force-admits
    /// otherwise.
    fn admit_one(&self) {
        match self.policy {
            AdmissionPolicy::BoundedBlock { max_queued } if !in_task_body() => {
                self.reserve_blocking(1, max_queued);
            }
            _ => self.reserve_forced(1),
        }
    }

    /// [`AdmissionState::reserve_forced`], counted.
    fn reserve_forced(&self, n: usize) {
        self.admission.reserve_forced(n);
        self.counters.add(ADMITTED, n as u64);
    }

    /// Reserves `min(want, cap / GATE_FRACTION)` or more slots under `cap`,
    /// helping the pool run queued tasks until that many fit; returns how
    /// many were reserved (that many up to `want`).
    fn reserve_blocking(&self, want: usize, cap: usize) -> usize {
        debug_assert!(want > 0);
        let need = want.min((cap / GATE_FRACTION).max(1));
        loop {
            let take = self.admission.reserve(want, need, cap);
            if take > 0 {
                self.counters.add(ADMITTED, take as u64);
                return take;
            }
            let depth = &self.admission.depth;
            self.pool
                .help_until(|| depth.load(Ordering::SeqCst) + need <= cap);
        }
    }

    /// Releases `task`'s admission slot (no-op for spawned and carried
    /// tasks, which never reserved one), and tells the scheduler when it was
    /// the last one in flight.
    fn release_admission(&self, task: &TaskRecord) {
        if !task.spawned && !task.carried && self.admission.release(1) {
            self.scheduler().idle();
        }
    }

    /// Creates a task — record, body and result slot in one allocation —
    /// and the future on it. A task with a `spawned_parent` is a spawned one;
    /// `held` is `Some` for a carried `execute` child, with its
    /// [`TaskRecord::held_effects`].
    pub(crate) fn new_task<T, F>(
        self: &Arc<Self>,
        name: impl Into<Cow<'static, str>>,
        effects: EffectSet,
        held: Option<u64>,
        spawned_parent: Option<Arc<TaskRecord>>,
        body: F,
    ) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce(&TaskCtx<'_>) -> T + Send + 'static,
    {
        let id = self.counters.next_task_id();
        let spawned = spawned_parent.is_some();
        let work = Work {
            body: Mutex::new(Some((body, spawned_parent))),
            result: Mutex::new(None),
        };
        let rt = Some(self.clone());
        let record = TaskRecord::with_body(id, name.into(), effects, held, spawned, rt, work);
        let value = std::marker::PhantomData;
        TaskFuture { record, value }
    }

    /// Builds a [`TaskCtx::execute`] child, carried by its caller
    /// ([`TaskRecord::carried`]): counted as admitted, but it reserves no
    /// slot and does not hold itself.
    pub(crate) fn carry_new<T, F>(
        self: &Arc<Self>,
        name: impl Into<Cow<'static, str>>,
        effects: EffectSet,
        held: u64,
        body: F,
    ) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce(&TaskCtx<'_>) -> T + Send + 'static,
    {
        self.counters.add(ADMITTED, 1);
        self.new_task(name, effects, Some(held), None, body)
    }

    /// Submits the carried `task` for [`TaskCtx::execute`]; true if the
    /// submission itself enabled it on this thread, and the enable callback
    /// kept it from the pool for the caller to run. [`WANTED`] is restored
    /// for an enclosing `execute`.
    pub(crate) fn submit_wanting_back(&self, task: &Arc<TaskRecord>) -> bool {
        let outer = WANTED.replace(task.id);
        self.scheduler().submit(task.clone());
        WANTED.set(outer);
        HANDED_BACK.take()
    }

    /// What every admission does to a task just before the scheduler sees
    /// it: the record starts holding itself (see [`TaskRecord::pending`]).
    fn prepare(&self, record: &Arc<TaskRecord>) {
        *record.pending.lock() = Some(record.clone());
    }

    pub(crate) fn execute_later_impl<T, F>(
        self: &Arc<Self>,
        name: impl Into<Cow<'static, str>>,
        effects: EffectSet,
        body: F,
    ) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce(&TaskCtx<'_>) -> T + Send + 'static,
    {
        self.admit_one();
        let future = self.new_task(name, effects, None, None, body);
        self.prepare(&future.record);
        self.scheduler().submit(future.record.clone());
        future
    }

    /// Hands a wave (or chunk) of just-built tasks to the scheduler: a wave
    /// of one — what an open-loop service sends almost every time — through
    /// plain `submit`, anything longer through the batch path.
    fn admit_wave<T>(&self, wave: &[TaskFuture<T>]) {
        #[cfg(test)]
        self.wave_sizes.lock().push(wave.len());
        for future in wave {
            self.prepare(&future.record);
        }
        match wave {
            [] => {}
            [one] => self.scheduler().submit(one.record.clone()),
            _ => {
                let records = wave.iter().map(|f| f.record.clone()).collect();
                self.scheduler().submit_batch(records);
            }
        }
    }

    /// Batched `execute_later`: creates the tasks of the batch a chunk at a
    /// time and admits each chunk through the scheduler's one-round batch
    /// path as soon as it is built, so the workers start on a wide fan-out
    /// while the rest is still being built. A chunk is the tree's sub-wave
    /// (`tree::SUB_WAVE` tasks); a batch known to be longer than one starts
    /// with a chunk of one task and doubles the chunk up to a sub-wave, so
    /// a worker has a task as soon as one is built, not after the first
    /// 512. A wave of up to a sub-wave (every service wave) goes in whole;
    /// the tree hands what it enables to the pool on the same 1, 2, 4, …
    /// ramp, so the first enabled task reaches the pool before the rest of
    /// the wave is walked.
    /// A batch of zero tasks touches no scheduler state; a batch of one is
    /// routed through the plain `submit` path, so it is *exactly*
    /// `execute_later`.
    ///
    /// Under [`AdmissionPolicy::BoundedBlock`] the chunks are as large as
    /// the room that frees up, helping the pool between chunks; every task
    /// is admitted and all futures are returned. Only that policy needs the
    /// wave's length before it builds a task, so only it collects it first.
    pub(crate) fn submit_all_impl<T, N, F>(
        self: &Arc<Self>,
        tasks: impl IntoIterator<Item = (N, EffectSet, F)>,
    ) -> Vec<TaskFuture<T>>
    where
        T: Send + 'static,
        N: Into<Cow<'static, str>>,
        F: FnOnce(&TaskCtx<'_>) -> T + Send + 'static,
    {
        let build = |(name, effects, body)| self.new_task(name, effects, None, None, body);
        match self.policy {
            AdmissionPolicy::BoundedBlock { max_queued } if !in_task_body() => {
                let triples: Vec<(N, EffectSet, F)> = tasks.into_iter().collect();
                let mut futures = Vec::with_capacity(triples.len());
                let mut rest = triples.into_iter();
                while rest.len() > 0 {
                    let take = self.reserve_blocking(rest.len(), max_queued);
                    let admitted = futures.len();
                    futures.extend(rest.by_ref().take(take).map(build));
                    self.admit_wave(&futures[admitted..]);
                }
                futures
            }
            _ => {
                let mut rest = tasks.into_iter();
                let known = rest.size_hint().0;
                let mut futures = Vec::with_capacity(known);
                let mut chunk = if known > tree::SUB_WAVE {
                    1
                } else {
                    tree::SUB_WAVE
                };
                loop {
                    let admitted = futures.len();
                    futures.extend(rest.by_ref().take(chunk).map(build));
                    if futures.len() == admitted {
                        return futures;
                    }
                    self.reserve_forced(futures.len() - admitted);
                    self.admit_wave(&futures[admitted..]);
                    chunk = (2 * chunk).min(tree::SUB_WAVE);
                }
            }
        }
    }

    /// A *retryable* task with dynamic effects: the body runs until it
    /// returns `Ok`, releasing its dynamic effects and backing off after
    /// each `Err(Aborted)` (§7.2.4). A panic ends it like any other task.
    pub(crate) fn execute_later_retry_impl<T, F>(
        self: &Arc<Self>,
        name: impl Into<Cow<'static, str>>,
        effects: EffectSet,
        body: F,
    ) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: Fn(&TaskCtx<'_>) -> Result<T, Aborted> + Send + 'static,
    {
        self.execute_later_impl(name, effects, move |ctx| {
            let mut attempts = 0u32;
            loop {
                match body(ctx) {
                    Ok(value) => break value,
                    Err(Aborted) => {
                        ctx.release_dynamic_effects();
                        ctx.rt.counters.add(RETRIES, 1);
                        attempts += 1;
                        backoff(ctx.task_id(), attempts);
                    }
                }
            }
        })
    }
}

/// Bounded, task-staggered backoff between retries of an aborted task.
fn backoff(task_id: u64, attempts: u32) {
    if attempts <= 2 {
        std::thread::yield_now();
        return;
    }
    let stagger = task_id % 7 + 1;
    let micros = (attempts.min(12) as u64) * 25 * stagger;
    std::thread::sleep(Duration::from_micros(micros));
}

/// Configures and creates a [`Runtime`].
#[derive(Clone, Debug)]
pub struct RuntimeBuilder {
    threads: Option<usize>,
    kind: SchedulerKind,
    policy: AdmissionPolicy,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder {
            threads: None,
            kind: SchedulerKind::Tree,
            policy: AdmissionPolicy::Unbounded,
        }
    }
}

impl RuntimeBuilder {
    /// Number of worker threads (defaults to the host's available
    /// parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Which scheduler to use (defaults to the tree scheduler).
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.kind = kind;
        self
    }

    /// The admission policy (defaults to [`AdmissionPolicy::Unbounded`]).
    pub fn admission_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builds the runtime.
    ///
    /// # Panics
    ///
    /// Panics if the admission policy's `max_queued` is 0.
    pub fn build(self) -> Runtime {
        let RuntimeBuilder { kind, policy, .. } = self;
        assert!(
            policy.max_queued() != Some(0),
            "AdmissionPolicy max_queued must be at least 1: {policy:?}"
        );
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
        // The scheduler hands each task over exactly once, after it flipped
        // it to `Enabled` and before the call that flipped it returns, on
        // whatever thread resolved the conflict.
        // The task brings its runtime along (a group's tasks share their
        // scheduler, hence their runtime), and the handle the scheduler
        // enabled it with is the one the pool gets: a group's in one push.
        let scheduler: Box<dyn Scheduler> = match kind {
            SchedulerKind::Naive => {
                let enable: EnableFn = Box::new(|task| {
                    if for_the_pool(&task) {
                        // `task` moves into the job: a second handle reaches the pool.
                        let same = task.clone();
                        same.runtime().pool.submit(RunTask(task));
                    }
                });
                Box::new(NaiveScheduler::new(enable))
            }
            SchedulerKind::Tree => {
                let enable: EnableAllFn = Box::new(|tasks| {
                    let Some(first) = tasks.first().cloned() else {
                        return;
                    };
                    tasks.retain(|task| for_the_pool(task));
                    first
                        .runtime()
                        .pool
                        .submit_all(tasks.drain(..).map(RunTask));
                });
                Box::new(TreeScheduler::grouped(enable))
            }
        };
        let inner = Arc::new(RtInner {
            pool: ThreadPool::new(threads),
            scheduler,
            kind,
            policy,
            admission: AdmissionState::new(),
            // The workers, and one slot for the thread that drives them.
            counters: PerThread::new(threads + 1),
            peak_nesting: AtomicUsize::new(0),
            #[cfg(test)]
            wave_sizes: parking_lot::Mutex::new(Vec::new()),
        });
        Runtime { inner }
    }
}

/// The TWE runtime: an effect-aware task scheduler plus a work-stealing
/// execution substrate.
pub struct Runtime {
    inner: Arc<RtInner>,
}

impl Runtime {
    /// Creates a runtime with `threads` worker threads and the given
    /// scheduler (unbounded admission; use [`Runtime::builder`] with
    /// [`RuntimeBuilder::admission_policy`] for backpressure).
    pub fn new(threads: usize, kind: SchedulerKind) -> Self {
        Self::builder().threads(threads).scheduler(kind).build()
    }

    /// A builder with defaults (tree scheduler, all available cores).
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.inner.pool.num_threads()
    }

    /// The scheduler in use.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.inner.kind
    }

    /// Creates an asynchronous task with the given declared effects; it runs
    /// once the scheduler determines it cannot interfere with any running
    /// task. `name` labels the task in diagnostics: a literal costs nothing,
    /// a `String` (`format!(..)`, passed by value) is kept as it is. Every
    /// other task-creating method takes its names the same way.
    pub fn execute_later<T, F>(
        &self,
        name: impl Into<Cow<'static, str>>,
        effects: EffectSet,
        body: F,
    ) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce(&TaskCtx<'_>) -> T + Send + 'static,
    {
        self.inner.execute_later_impl(name, effects, body)
    }

    /// Creates a whole batch of asynchronous tasks — `(name, effects, body)`
    /// triples — and admits them to the scheduler in **one batch round**.
    /// Names are taken as [`Runtime::execute_later`] takes them.
    ///
    /// The observable scheduling outcome is that of calling
    /// [`Runtime::execute_later`] on each triple sequentially — exactly in
    /// order on the naive scheduler; on the tree scheduler in a valid
    /// sequential order where, among *conflicting batch members*, a
    /// shallower-settling wildcard may win over an earlier deeper member
    /// (see [`scheduler::Scheduler::submit_batch`] for the precise
    /// contract). What the batch path saves is per-task admission
    /// overhead, which dominates wide
    /// fan-out phases (one task per array partition, image block, or
    /// cluster): the tree scheduler inserts all the batch's effect records
    /// in one admission round — records are grouped per child as the
    /// descent forks, so a shared region prefix is locked and
    /// conflict-checked once per batch instead of once per task; the naive
    /// scheduler takes its queue lock once and evaluates each member as it
    /// is appended.
    ///
    /// An empty batch returns an empty vector without touching the
    /// scheduler, and a single-element batch takes the plain
    /// `execute_later` path (no extra recheck round).
    ///
    /// **Backpressure.** Under [`AdmissionPolicy::BoundedBlock`] the wave
    /// is admitted in chunks as room frees up: between chunks the calling
    /// thread helps the pool run queued tasks, every task is admitted, and
    /// all futures are returned. Waves submitted from inside a task body
    /// bypass the policy entirely (see [`AdmissionPolicy`]).
    ///
    /// ```
    /// use twe_runtime::{Runtime, SchedulerKind};
    /// use twe_effects::EffectSet;
    ///
    /// let rt = Runtime::new(4, SchedulerKind::Tree);
    /// let futures = rt.submit_all((0..64).map(|i| {
    ///     (
    ///         format!("shard{i}"),
    ///         EffectSet::parse(&format!("writes Data:[{i}]")),
    ///         move |_ctx: &twe_runtime::TaskCtx<'_>| i * 2,
    ///     )
    /// }));
    /// let total: usize = futures.iter().map(|f| f.wait()).sum();
    /// assert_eq!(total, (0..64).map(|i| i * 2).sum());
    /// ```
    pub fn submit_all<T, N, F>(
        &self,
        tasks: impl IntoIterator<Item = (N, EffectSet, F)>,
    ) -> Vec<TaskFuture<T>>
    where
        T: Send + 'static,
        N: Into<Cow<'static, str>>,
        F: FnOnce(&TaskCtx<'_>) -> T + Send + 'static,
    {
        self.inner.submit_all_impl(tasks)
    }

    /// Creates a *retryable* task that may add dynamic effects as it runs
    /// (chapter 7). The body is re-executed from the start whenever it
    /// returns `Err(Aborted)` after a dynamic-effect conflict.
    pub fn execute_later_retry<T, F>(
        &self,
        name: impl Into<Cow<'static, str>>,
        effects: EffectSet,
        body: F,
    ) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: Fn(&TaskCtx<'_>) -> Result<T, Aborted> + Send + 'static,
    {
        self.inner.execute_later_retry_impl(name, effects, body)
    }

    /// Creates a task and waits for it from the calling (non-task) thread.
    pub fn run<T, F>(&self, name: impl Into<Cow<'static, str>>, effects: EffectSet, body: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&TaskCtx<'_>) -> T + Send + 'static,
    {
        self.execute_later(name, effects, body).wait()
    }

    /// A snapshot of every counter the runtime keeps: execution,
    /// admission (maintained under every policy,
    /// [`AdmissionPolicy::Unbounded`] included), the scheduler's and the
    /// dynamic claims'. Diagnostic: it costs O(tree nodes) on the
    /// tree scheduler and flushes its pending prunes
    /// ([`scheduler::Scheduler::diagnostics`]).
    pub fn stats(&self) -> RuntimeStats {
        let admission = &self.inner.admission;
        RuntimeStats {
            tasks_executed: self.inner.counters.sum(EXECUTED),
            task_retries: self.inner.counters.sum(RETRIES),
            admitted: self.inner.counters.sum(ADMITTED),
            depth: admission.depth.load(Ordering::Relaxed),
            peak_depth: admission.peak_depth.load(Ordering::Relaxed),
            peak_nesting: self.inner.peak_nesting.load(Ordering::Relaxed),
            scheduler: self.inner.scheduler().diagnostics(),
            dynamic: DynamicStats {
                acquires: self.inner.counters.sum(ACQUIRES),
                conflicts: self.inner.counters.sum(CONFLICTS),
            },
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.num_threads())
            .field("scheduler", &self.inner.kind)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    #[test]
    fn run_simple_task_returns_value() {
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(2, kind);
            let v = rt.run("simple", EffectSet::parse("writes A"), |_| 7 * 6);
            assert_eq!(v, 42);
        }
    }

    #[test]
    fn execute_later_and_wait_many() {
        let rt = Runtime::new(4, SchedulerKind::Tree);
        let futures: Vec<_> = (0..100)
            .map(|i| {
                rt.execute_later(
                    format!("t{i}"),
                    EffectSet::parse(&format!("writes Data:[{i}]")),
                    move |_| i * 2,
                )
            })
            .collect();
        let sum: i32 = futures.iter().map(|f| f.wait()).sum();
        assert_eq!(sum, (0..100).map(|i| i * 2).sum());
        assert_eq!(rt.stats().tasks_executed, 100);
    }

    #[test]
    fn submit_all_returns_futures_in_order_on_both_schedulers() {
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(4, kind);
            let futures = rt.submit_all((0..128).map(|i| {
                (
                    format!("t{i}"),
                    EffectSet::parse(&format!("writes Data:[{}]", i % 32)),
                    move |_: &TaskCtx<'_>| i * 3,
                )
            }));
            assert_eq!(futures.len(), 128);
            for (i, f) in futures.iter().enumerate() {
                assert_eq!(f.wait(), i * 3, "{kind:?}");
            }
            assert_eq!(rt.stats().tasks_executed, 128);
        }
    }

    #[test]
    fn stats_report_the_tree_back_at_its_baseline() {
        let rt = Runtime::new(2, SchedulerKind::Tree);
        let baseline = rt.stats().scheduler;
        rt.run("touch", EffectSet::parse("writes Diag:[3]"), |_| ());
        // After the run drains the tree is back to its baseline shape (the
        // diagnostics flush the vacated path the completion left pending)
        // and no effects remain recorded.
        let mut diag = rt.stats().scheduler;
        for _ in 0..100 {
            if diag == baseline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            diag = rt.stats().scheduler;
        }
        assert_eq!(diag, baseline);
        assert_eq!(diag.recorded_effects, 0);
    }

    #[test]
    fn submit_all_empty_batch_is_a_no_op() {
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(2, kind);
            let futures: Vec<TaskFuture<u32>> = rt.submit_all(std::iter::empty::<(
                String,
                EffectSet,
                fn(&TaskCtx<'_>) -> u32,
            )>());
            assert!(futures.is_empty());
            // The runtime is untouched and fully usable.
            assert_eq!(rt.run("after", EffectSet::parse("writes A"), |_| 5), 5);
        }
    }

    #[test]
    fn submit_all_single_batch_is_exactly_execute_later() {
        // Regression for the empty/single-batch contract: a one-element
        // batch must take the plain `submit` path — same result, same
        // single admission, no extra recheck round.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(2, kind);
            let via_plain = rt.execute_later("plain", EffectSet::parse("writes Solo"), |_| 11u32);
            assert_eq!(via_plain.wait(), 11);
            let mut futures = rt.submit_all([(
                "batched".to_string(),
                EffectSet::parse("writes Solo"),
                |_: &TaskCtx<'_>| 31u32,
            )]);
            assert_eq!(futures.len(), 1);
            assert_eq!(futures.pop().unwrap().wait(), 31, "{kind:?}");
            assert_eq!(rt.stats().tasks_executed, 2);
        }
    }

    #[test]
    fn submit_all_conflicting_batch_serializes_side_effects() {
        // The batched analogue of `conflicting_tasks_serialize_their_side_
        // effects`: one batch of 64 read-modify-write tasks on one region.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(4, kind);
            struct SendCell(std::cell::UnsafeCell<u64>);
            unsafe impl Send for SendCell {}
            unsafe impl Sync for SendCell {}
            let shared = Arc::new(SendCell(std::cell::UnsafeCell::new(0)));
            let futures = rt.submit_all((0..64).map(|i| {
                let shared = shared.clone();
                (
                    format!("inc{i}"),
                    EffectSet::parse("writes Counter"),
                    move |_: &TaskCtx<'_>| unsafe {
                        let p = shared.0.get();
                        let old = std::ptr::read_volatile(p);
                        std::thread::yield_now();
                        std::ptr::write_volatile(p, old + 1);
                    },
                )
            }));
            for f in futures {
                f.wait();
            }
            assert_eq!(unsafe { *shared.0.get() }, 64, "{kind:?}");
        }
    }

    #[test]
    fn wide_execute_all_later_from_inside_a_task_completes_even_on_one_thread() {
        // 128 tasks over 8 first-level groups, batched from inside a task:
        // the caller is the only worker of the 1-thread runtime, so the
        // batch must be admitted without waiting on the pool.
        for threads in [1, 4] {
            let rt = Runtime::new(threads, SchedulerKind::Tree);
            let total = rt.run("driver", EffectSet::parse("reads Root"), |ctx| {
                let futures = ctx.execute_all_later((0..128).map(|i| {
                    (
                        format!("shard{i}"),
                        EffectSet::parse(&format!("writes Out{}:[{}]", i % 8, i / 8)),
                        move |_: &TaskCtx<'_>| i as u64,
                    )
                }));
                futures.iter().map(|f| f.get_value(ctx)).sum::<u64>()
            });
            assert_eq!(total, (0..128).sum::<u64>(), "{threads} thread(s)");
        }
    }

    #[test]
    fn conflicting_tasks_serialize_their_side_effects() {
        // 64 tasks perform a non-atomic read-modify-write on a shared counter
        // under the same write effect; task isolation must serialize them.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(4, kind);
            struct SendCell(std::cell::UnsafeCell<u64>);
            unsafe impl Send for SendCell {}
            unsafe impl Sync for SendCell {}
            let shared = Arc::new(SendCell(std::cell::UnsafeCell::new(0)));
            let futures: Vec<_> = (0..64)
                .map(|i| {
                    let shared = shared.clone();
                    rt.execute_later(
                        format!("inc{i}"),
                        EffectSet::parse("writes Counter"),
                        move |_| {
                            // Only safe because the scheduler guarantees task
                            // isolation for tasks with conflicting effects.
                            unsafe {
                                let p = shared.0.get();
                                let old = std::ptr::read_volatile(p);
                                std::thread::yield_now();
                                std::ptr::write_volatile(p, old + 1);
                            }
                        },
                    )
                })
                .collect();
            for f in futures {
                f.wait();
            }
            assert_eq!(unsafe { *shared.0.get() }, 64, "{kind:?}");
        }
    }

    #[test]
    fn spawn_join_returns_child_value_and_restores_coverage() {
        let rt = Runtime::new(4, SchedulerKind::Tree);
        let total = rt.run(
            "parent",
            EffectSet::parse("writes Top, writes Bottom"),
            |ctx| {
                assert!(ctx.covers(&EffectSet::parse("writes Top")));
                let child = ctx.spawn("child", EffectSet::parse("writes Top"), |_| 10u32);
                // While the child runs, the parent no longer covers Top…
                assert!(!ctx.covers(&EffectSet::parse("writes Top")));
                // …but still covers Bottom.
                assert!(ctx.covers(&EffectSet::parse("writes Bottom")));
                let from_child = child.join(ctx);
                // After the join the coverage is restored.
                assert!(ctx.covers(&EffectSet::parse("writes Top")));
                from_child + 32
            },
        );
        assert_eq!(total, 42);
    }

    #[test]
    fn a_joined_reader_gives_back_the_right_to_write() {
        // Joining the reader hands `A:[1]` back in full: the parent may
        // write it again, so may a child it spawns, and the parent covers
        // its whole declared set once more.
        let rt = Runtime::new(2, SchedulerKind::Tree);
        rt.run("parent", EffectSet::parse("writes A:*"), |ctx| {
            let reader = ctx.spawn("reader", EffectSet::parse("reads A:[1]"), |_| ());
            assert!(!ctx.covers(&EffectSet::parse("writes A:[1]")));
            assert!(ctx.covers(&EffectSet::parse("reads A:[1], writes A:[2]")));
            reader.join(ctx);
            assert!(ctx.covers(&EffectSet::parse("writes A:[1]")));
            assert!(ctx.covers(&EffectSet::parse("writes A:*")));
            ctx.spawn("writer", EffectSet::parse("writes A:[1]"), |_| ())
                .join(ctx);
        });
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn spawn_of_uncovered_effects_panics() {
        let rt = Runtime::new(2, SchedulerKind::Tree);
        rt.run("parent", EffectSet::parse("writes Mine"), |ctx| {
            let _ = ctx.spawn("child", EffectSet::parse("writes Other"), |_| ());
        });
    }

    #[test]
    fn unjoined_spawned_children_are_awaited_implicitly() {
        let rt = Runtime::new(4, SchedulerKind::Tree);
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        rt.run("parent", EffectSet::parse("writes Data:*"), move |ctx| {
            for i in 0..8 {
                let c = c.clone();
                ctx.spawn(
                    format!("child{i}"),
                    EffectSet::parse(&format!("writes Data:[{i}]")),
                    move |_| {
                        std::thread::sleep(Duration::from_millis(1));
                        c.fetch_add(1, Ordering::Relaxed);
                    },
                );
            }
            // Return without joining: the runtime performs the implicit join.
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn a_parent_that_spawns_strands_none_of_the_tasks_queued_behind_it() {
        // Eight fire-and-forget writers of `Hot` are parked behind a parent
        // that then spawns and joins children: every child's completion
        // takes the parent's waiter lists while the parent still blocks the
        // whole line (`spawned_child_done`). Nobody awaits the writers, so
        // one that comes off the lists without going back on stays parked
        // for good.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            for threads in [1, 2, 4] {
                let rt = Runtime::new(threads, kind);
                let ran = Arc::new(AtomicUsize::new(0));
                let (line_is_parked, go) = std::sync::mpsc::channel::<()>();
                let parent =
                    rt.execute_later("parent", EffectSet::parse("writes Hot"), move |ctx| {
                        go.recv().expect("the test thread");
                        for _ in 0..3 {
                            ctx.spawn("child", EffectSet::parse("writes Hot"), |_| ())
                                .join(ctx);
                        }
                    });
                for i in 0..8 {
                    let ran = ran.clone();
                    drop(rt.execute_later(
                        format!("w{i}"),
                        EffectSet::parse("writes Hot"),
                        move |_| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        },
                    ));
                }
                line_is_parked.send(()).expect("the parent");
                parent.wait();
                let deadline = std::time::Instant::now() + Duration::from_secs(20);
                while ran.load(Ordering::Relaxed) < 8 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "{kind:?}, {threads} threads: {} of 8 ran",
                        ran.load(Ordering::Relaxed)
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    #[test]
    fn single_thread_runtime_spawn_join_does_not_deadlock() {
        // With one worker thread, a parent that joins its child can only make
        // progress if the blocked worker helps (runs the child itself); this
        // drives ThreadPool::help_until through the runtime's join path.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(1, kind);
            let v = rt.run(
                "parent",
                EffectSet::parse("writes Top, writes Bottom"),
                |ctx| {
                    let child = ctx.spawn("child", EffectSet::parse("writes Top"), |_| 40u32);
                    child.join(ctx) + 2
                },
            );
            assert_eq!(v, 42, "{kind:?}");
        }
    }

    #[test]
    fn get_value_with_effect_transfer_avoids_deadlock() {
        // A task blocks on another task with *conflicting* effects: without
        // effect transfer the second task could never start (§3.1.4).
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(2, kind);
            let result = rt.run("outer", EffectSet::parse("writes Shared"), |ctx| {
                let inner = ctx.execute_later(
                    "inner",
                    EffectSet::parse("writes Shared, writes Extra"),
                    |_| 99u32,
                );
                inner.get_value(ctx)
            });
            assert_eq!(result, 99, "{kind:?}");
        }
    }

    #[test]
    fn get_value_on_a_future_of_another_runtime_panics_naming_both() {
        // `target` of runtime `b` waits behind a gated writer when a task of
        // runtime `a` calls `get_value` on it. That task helps `a`'s pool,
        // which `target`'s completion never wakes: refused at once, before
        // the record reaches `a`'s scheduler (`on_await` would prioritize
        // it and recheck it against `a`'s state) or `a`'s blocker chain.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let (a, b) = (Runtime::new(1, kind), Runtime::new(1, kind));
            let (open, gate) = std::sync::mpsc::channel::<()>();
            let writer = b.execute_later("gate", EffectSet::parse("writes A"), move |_| {
                gate.recv().expect("the test thread");
            });
            let target = b.execute_later("target", EffectSet::parse("writes A"), |_| 7u32);
            assert_eq!(target.record().status(), TaskStatus::Waiting, "{kind:?}");
            let foreign = target.clone();
            let caller = a.execute_later("caller", EffectSet::parse("writes A"), move |ctx| {
                let outcome = catch_unwind(AssertUnwindSafe(|| foreign.get_value(ctx)));
                let blocker = ctx.record.blocker.lock().is_some();
                let message = outcome.map_err(|payload| match payload.downcast::<String>() {
                    Ok(message) => *message,
                    Err(_) => "a panic without a message".to_string(),
                });
                (message, blocker)
            });
            // A caller that blocks instead waits for the gate: fail, don't hang.
            let (sent, answer) = std::sync::mpsc::channel();
            let waiter = std::thread::spawn(move || {
                let _ = sent.send(caller.wait());
            });
            let (message, blocker) =
                answer
                    .recv_timeout(Duration::from_secs(5))
                    .unwrap_or_else(|_| {
                        panic!("{kind:?}: get_value on another runtime's future blocked")
                    });
            let message = message.expect_err("get_value on another runtime's future returned");
            for rt in [&a, &b] {
                let id = format!("runtime {}", rt.inner.counters.table);
                assert!(message.contains(&id), "{kind:?}: `{message}` names no {id}");
            }
            assert!(
                !blocker,
                "{kind:?}: the foreign task became the caller's blocker"
            );
            assert_eq!(
                target.record().status(),
                TaskStatus::Waiting,
                "{kind:?}: the caller's scheduler prioritized a foreign task"
            );
            open.send(()).expect("the gated writer");
            assert_eq!(target.wait(), 7, "{kind:?}");
            writer.wait();
            waiter.join().expect("the waiting thread");
        }
    }

    #[test]
    fn dropping_a_runtime_with_a_parked_backlog_runs_every_task_and_ends_its_workers() {
        // The runtime and every future are dropped while 1 000 `writes A`
        // tasks wait behind a gated writer. The last task's drop takes the
        // pool down on a worker: only the shutdown wake reaches a parked
        // worker, and no timer stands behind it.
        struct OnExit(Arc<AtomicUsize>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static EXIT: std::cell::RefCell<Option<OnExit>> = const { std::cell::RefCell::new(None) };
        }
        const PARKED: usize = 1_000;
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            for threads in [1, 2] {
                let ran = Arc::new(AtomicUsize::new(0));
                // Worker threads that ran a body, and those of them that exited.
                let (entered, exited) =
                    (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
                let watch = {
                    let (entered, exited) = (entered.clone(), exited.clone());
                    move || {
                        EXIT.with(|exit| {
                            exit.borrow_mut().get_or_insert_with(|| {
                                entered.fetch_add(1, Ordering::SeqCst);
                                OnExit(exited.clone())
                            });
                        })
                    }
                };
                let rt = Runtime::new(threads, kind);
                let inner = Arc::downgrade(&rt.inner);
                let (open, gate) = std::sync::mpsc::channel::<()>();
                let w = watch.clone();
                let writer = rt.execute_later("gate", EffectSet::parse("writes A"), move |_| {
                    w();
                    gate.recv().expect("the test thread");
                });
                let parked: Vec<_> = (0..PARKED)
                    .map(|i| {
                        let (ran, w) = (ran.clone(), watch.clone());
                        rt.execute_later(
                            format!("parked{i}"),
                            EffectSet::parse("writes A"),
                            move |_| {
                                w();
                                ran.fetch_add(1, Ordering::SeqCst);
                            },
                        )
                    })
                    .collect();
                assert!(
                    parked
                        .iter()
                        .all(|f| f.record().status() == TaskStatus::Waiting),
                    "{kind:?}, {threads}: a task ran past the gate"
                );
                drop((rt, writer, parked));
                open.send(()).expect("the gated writer");
                let start = std::time::Instant::now();
                while ran.load(Ordering::SeqCst) < PARKED
                    || inner.strong_count() > 0
                    || exited.load(Ordering::SeqCst) < entered.load(Ordering::SeqCst)
                {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "{kind:?}, {threads} workers: after 10 s {} of {PARKED} tasks ran, \
                         the runtime is {}, and {} of {} worker threads exited",
                        ran.load(Ordering::SeqCst),
                        if inner.strong_count() > 0 {
                            "alive"
                        } else {
                            "gone"
                        },
                        exited.load(Ordering::SeqCst),
                        entered.load(Ordering::SeqCst)
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    #[test]
    fn execute_acts_as_critical_section() {
        let rt = Runtime::new(4, SchedulerKind::Tree);
        let value = Arc::new(AtomicUsize::new(0));
        let futures: Vec<_> = (0..32)
            .map(|i| {
                let value = value.clone();
                rt.execute_later(
                    format!("outer{i}"),
                    EffectSet::parse(&format!("writes Local:[{i}]")),
                    move |ctx| {
                        ctx.execute("crit", EffectSet::parse("writes Shared"), move |_| {
                            value.fetch_add(1, Ordering::Relaxed);
                        });
                    },
                )
            })
            .collect();
        for f in futures {
            f.wait();
        }
        assert_eq!(value.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn an_execute_enabled_by_its_own_submission_runs_inline() {
        // Inside the child only the parent's job is pending: through the
        // pool the child would be a second one.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(2, kind);
            let (parent, (child, jobs)) = rt.run("parent", EffectSet::parse("reads Root"), |ctx| {
                let child = ctx.execute(
                    "child",
                    EffectSet::parse("reads Root, writes Clusters:[0]"),
                    |ctx| (std::thread::current().id(), ctx.rt.pool.pending_jobs()),
                );
                (std::thread::current().id(), child)
            });
            assert_eq!(
                child, parent,
                "{kind:?}: the child ran on its caller's thread"
            );
            assert_eq!(jobs, 1, "{kind:?}: the child went through the pool");
        }
    }

    #[test]
    fn an_inline_child_keeps_its_parents_effect_transfer() {
        // The grandchild's `writes A` conflicts with the running parent; it
        // can start only through the chain parent → child → grandchild.
        // One worker, on a side thread: a missing link stalls, not hangs.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let (done, result) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let rt = Runtime::new(1, kind);
                let v = rt.run("parent", EffectSet::parse("writes A"), |ctx| {
                    ctx.execute("child", EffectSet::parse("writes B"), |ctx| {
                        let grandchild =
                            ctx.execute_later("grandchild", EffectSet::parse("writes A"), |_| 42);
                        grandchild.get_value(ctx)
                    })
                });
                let _ = done.send(v);
            });
            assert_eq!(
                result.recv_timeout(Duration::from_secs(10)),
                Ok(42),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn an_execute_that_conflicts_still_waits() {
        // `gate` holds `writes S` on a worker; the critical section of
        // `outer` must not run before the gate lets it go.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(2, kind);
            let released = Arc::new(AtomicBool::new(false));
            let (entered, gate_is_running) = std::sync::mpsc::channel();
            let (open, opened) = std::sync::mpsc::channel::<()>();
            let r = released.clone();
            let gate = rt.execute_later("gate", EffectSet::parse("writes S"), move |_| {
                entered.send(()).expect("the test thread");
                opened.recv().expect("the test thread");
                r.store(true, Ordering::SeqCst);
            });
            gate_is_running.recv().expect("the gate");
            let (reached, outer_reached) = std::sync::mpsc::channel();
            let r = released.clone();
            let outer = rt.execute_later("outer", EffectSet::parse("writes T"), move |ctx| {
                reached.send(()).expect("the test thread");
                ctx.execute("crit", EffectSet::parse("writes S"), move |_| {
                    r.load(Ordering::SeqCst)
                })
            });
            outer_reached.recv().expect("outer");
            std::thread::sleep(Duration::from_millis(50));
            open.send(()).expect("the gate");
            assert!(outer.wait(), "{kind:?}: ran while `writes S` was held");
            gate.wait();
        }
    }

    #[test]
    fn an_execute_child_admits_only_what_its_caller_does_not_hold() {
        // (parent, child, tree records the child holds, pool jobs it sees).
        let cases = [
            ("reads Root", "reads Root, writes Clusters:[0]", 1),
            ("writes A", "reads A", 0),
            ("writes A", "writes A", 0),
        ];
        let rt = Runtime::new(2, SchedulerKind::Tree);
        for (parent, child, records) in cases {
            let (here, there) = rt.run("parent", EffectSet::parse(parent), |ctx| {
                let there = ctx.execute("child", EffectSet::parse(child), |ctx| {
                    let records = ctx.record.tree_records().len();
                    let jobs = ctx.rt.pool.pending_jobs();
                    (std::thread::current().id(), records, jobs)
                });
                (std::thread::current().id(), there)
            });
            assert_eq!(there, (here, records, 1), "`{child}` inside `{parent}`");
        }
    }

    /// Runs `body` as a `writes A:*` task on a side thread of a fresh
    /// runtime and returns its value; a stall fails after 10 s.
    fn on_a_side_thread(
        kind: SchedulerKind,
        threads: usize,
        body: fn(&TaskCtx<'_>) -> bool,
    ) -> Result<bool, std::sync::mpsc::RecvTimeoutError> {
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rt = Runtime::new(threads, kind);
            let _ = done.send(rt.run("parent", EffectSet::parse("writes A:*"), body));
        });
        result.recv_timeout(Duration::from_secs(10))
    }

    /// Spawns a `writes A:[1]` child that, once released, lingers 20 ms in
    /// its body; releases it and returns the flag it sets as it leaves.
    fn spawn_a_lingering_writer(ctx: &TaskCtx<'_>) -> (SpawnedTaskFuture<()>, Arc<AtomicBool>) {
        let left = Arc::new(AtomicBool::new(false));
        let (release, released) = std::sync::mpsc::channel::<()>();
        let l = left.clone();
        let spawned = ctx.spawn("writer", EffectSet::parse("writes A:[1]"), move |_| {
            released.recv().expect("the parent");
            std::thread::sleep(Duration::from_millis(20));
            l.store(true, Ordering::SeqCst);
        });
        release.send(()).expect("the spawned writer");
        (spawned, left)
    }

    #[test]
    fn an_execute_child_waits_for_a_running_spawned_child() {
        // The spawned writer's `writes A:[1]` is outside the parent's
        // run-time covering effect, so the parent does not hold the reader's
        // `reads A:[1]` for it: the reader waits for the writer to leave.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            for threads in [1, 2] {
                let after_the_writer = on_a_side_thread(kind, threads, |ctx| {
                    let (writer, left) = spawn_a_lingering_writer(ctx);
                    let seen = ctx.execute("reader", EffectSet::parse("reads A:[1]"), move |_| {
                        left.load(Ordering::SeqCst)
                    });
                    writer.join(ctx);
                    seen
                });
                assert_eq!(after_the_writer, Ok(true), "{kind:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn a_held_execute_child_keeps_its_own_spawned_childs_effects() {
        // The parent holds all of `middle`'s `writes A:*`, so `middle` has
        // no tree record; its spawned writer's effects must still keep the
        // reader that `middle` waits for out, although the only record in
        // the reader's way is the parent's, and the parent's chain of
        // blocked tasks runs through `middle` to the reader.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            for threads in [1, 2] {
                let after_the_writer = on_a_side_thread(kind, threads, |ctx| {
                    ctx.execute("middle", EffectSet::parse("writes A:*"), |ctx| {
                        let (writer, left) = spawn_a_lingering_writer(ctx);
                        let seen =
                            ctx.execute("reader", EffectSet::parse("reads A:[1]"), move |_| {
                                left.load(Ordering::SeqCst)
                            });
                        writer.join(ctx);
                        seen
                    })
                });
                assert_eq!(after_the_writer, Ok(true), "{kind:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn a_task_that_never_spawned_never_locks_its_children() {
        // The test thread holds the gated task's `spawned_children` lock
        // while the body runs an `execute` and a `covers` and returns. A
        // body that has not spawned has no child to look at, so it must
        // finish without that lock.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(1, kind);
            let (go, gate) = std::sync::mpsc::channel::<()>();
            let task = rt.execute_later("gated", EffectSet::parse("writes A"), move |ctx| {
                gate.recv().expect("the test thread");
                let child = ctx.execute("child", EffectSet::parse("writes B"), |_| 1);
                child == 1 && ctx.covers(&EffectSet::parse("writes A"))
            });
            let children = task.record.spawned_children.lock();
            go.send(()).expect("the gated task");
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while !task.record.completed.load(Ordering::Acquire)
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            let finished = task.record.completed.load(Ordering::Acquire);
            drop(children);
            assert!(
                finished,
                "{kind:?}: the body waited for its children's lock"
            );
            assert!(task.wait(), "{kind:?}");
        }
    }

    #[test]
    fn an_execute_enabled_by_a_completion_on_its_callers_thread_goes_to_the_pool() {
        // One worker runs `outer`. `holder` sits in the pool holding
        // `writes S`, so `crit` waits at its submission; `outer` helps, runs
        // `holder`, and that completion enables `crit` on the same thread,
        // outside any submission. The test thread never helps.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(1, kind);
            let (done, result) = std::sync::mpsc::channel();
            rt.execute_later("outer", EffectSet::parse("writes T"), move |ctx| {
                let held = Arc::new(AtomicBool::new(false));
                let h = held.clone();
                ctx.execute_later("holder", EffectSet::parse("writes S"), move |_| {
                    h.store(true, Ordering::SeqCst)
                });
                let after_holder = ctx.execute("crit", EffectSet::parse("writes S"), move |_| {
                    held.load(Ordering::SeqCst)
                });
                done.send(after_holder).expect("the test thread");
            });
            assert_eq!(
                result.recv_timeout(Duration::from_secs(10)),
                Ok(true),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn nested_executes_run_inline_and_a_panicking_one_reaches_its_caller() {
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(2, kind);
            let (here, (there, jobs)) = rt.run("outer", EffectSet::parse("reads Root"), |ctx| {
                let innermost = ctx.execute("one", EffectSet::parse("writes N1"), |ctx| {
                    ctx.execute("two", EffectSet::parse("writes N2"), |ctx| {
                        ctx.execute("three", EffectSet::parse("writes N3"), |ctx| {
                            (std::thread::current().id(), ctx.rt.pool.pending_jobs())
                        })
                    })
                });
                (std::thread::current().id(), innermost)
            });
            assert_eq!((there, jobs), (here, 1), "{kind:?}");
            assert!(rt.stats().peak_nesting >= 4, "{kind:?}");
            let caught = rt.run("parent", EffectSet::parse("reads Root"), |ctx| {
                catch_unwind(AssertUnwindSafe(|| {
                    ctx.execute("boom", EffectSet::parse("writes B"), |_| -> u32 {
                        panic!("deliberate failure")
                    })
                }))
                .is_err()
            });
            assert!(caught, "{kind:?}: the panic reached the caller");
            assert_eq!(rt.stats().depth, 0, "{kind:?}");
        }
    }

    #[test]
    fn an_execute_child_rides_on_its_callers_slot() {
        // Each child is counted as admitted, but its blocked caller's slot
        // covers it: the in-flight gauge never sees a second task.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(1, kind);
            let sum = rt.run("caller", EffectSet::parse("reads Root"), |ctx| {
                (0..1_000u64)
                    .map(|i| {
                        let effects = EffectSet::parse(&format!("writes Clusters:[{}]", i % 40));
                        ctx.execute("child", effects, move |_| i)
                    })
                    .sum::<u64>()
            });
            assert_eq!(sum, 999 * 1_000 / 2, "{kind:?}");
            let stats = rt.stats();
            let counts = (stats.peak_depth, stats.admitted, stats.depth);
            assert_eq!(
                counts,
                (1, 1_001, 0),
                "{kind:?}: (peak_depth, admitted, depth)"
            );
        }
    }

    #[test]
    fn panicking_task_propagates_to_waiter() {
        let rt = Runtime::new(2, SchedulerKind::Tree);
        let fut = rt.execute_later("boom", EffectSet::parse("writes A"), |_| {
            panic!("deliberate failure");
        });
        let caught = catch_unwind(AssertUnwindSafe(|| fut.wait()));
        assert!(caught.is_err());
        // The runtime stays usable afterwards.
        let ok = rt.run("after", EffectSet::parse("writes A"), |_| 5);
        assert_eq!(ok, 5);
    }

    #[test]
    fn bounded_block_policy_holds_depth_at_cap() {
        // A 1-worker runtime with slow serialized tasks: the external
        // submitter must be throttled to the service rate, so the in-flight
        // depth never exceeds the cap and nothing is lost.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::builder()
                .threads(1)
                .scheduler(kind)
                .admission_policy(AdmissionPolicy::BoundedBlock { max_queued: 4 })
                .build();
            let futures: Vec<_> = (0..32)
                .map(|i| {
                    rt.execute_later(format!("slow{i}"), EffectSet::parse("writes S"), |_| {
                        std::thread::sleep(Duration::from_micros(200));
                    })
                })
                .collect();
            for f in &futures {
                f.wait();
            }
            let stats = rt.stats();
            assert_eq!(stats.admitted, 32, "{kind:?}");
            assert!(stats.peak_depth <= 4, "{kind:?}: peak {}", stats.peak_depth);
            assert_eq!(stats.depth, 0, "{kind:?}: all slots released");
        }
    }

    #[test]
    fn a_zero_admission_cap_is_refused_at_build() {
        // A cap of 0 blocks the first `execute_later` forever. Building is
        // where it is refused; nothing is submitted, so a runtime that
        // accepted the policy fails this test instead of hanging it.
        let policy = AdmissionPolicy::BoundedBlock { max_queued: 0 };
        let built = std::panic::catch_unwind(|| {
            Runtime::builder()
                .threads(1)
                .admission_policy(policy)
                .build()
        });
        assert!(built.is_err(), "{policy:?} must be refused");
    }

    #[test]
    fn worker_thread_submissions_bypass_the_bounded_policies() {
        // A task body submits (and waits on) a nested task while occupying
        // the only admission slot: without the worker-thread bypass this
        // deadlocks — the worker would block on admission while being the
        // only thread able to free a slot.
        let policy = AdmissionPolicy::BoundedBlock { max_queued: 1 };
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::builder()
                .threads(2)
                .scheduler(kind)
                .admission_policy(policy)
                .build();
            let v = rt.run("outer", EffectSet::parse("writes Outer"), |ctx| {
                let inner = ctx.execute_later("inner", EffectSet::parse("writes Inner"), |_| 40u32);
                inner.get_value(ctx) + 2
            });
            assert_eq!(v, 42, "{kind:?}");
            assert_eq!(rt.stats().depth, 0, "{kind:?}");
        }
    }

    #[test]
    fn a_blocked_submitter_runs_the_task_that_frees_its_slot() {
        // `hold` owns the one worker until `release`, queued behind it in
        // the pool, tells it to stop; with both in flight the cap is
        // reached, so the third submission blocks. Only a submitter that
        // helps runs `release`: one that parks waits out `hold`'s timeout.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::builder()
                .threads(1)
                .scheduler(kind)
                .admission_policy(AdmissionPolicy::BoundedBlock { max_queued: 2 })
                .build();
            let (started, hold_is_running) = std::sync::mpsc::channel();
            let (stop, stopped) = std::sync::mpsc::channel::<()>();
            let hold = rt.execute_later("hold", EffectSet::parse("writes H"), move |_| {
                started.send(()).expect("the test thread");
                stopped.recv_timeout(Duration::from_secs(5)).is_ok()
            });
            hold_is_running.recv().expect("hold");
            let release = rt.execute_later("release", EffectSet::parse("writes R"), move |_| {
                stop.send(()).expect("hold");
            });
            let third = rt.execute_later("third", EffectSet::parse("writes T"), |_| 3u32);
            assert!(
                hold.wait(),
                "{kind:?}: `hold` timed out before `release` ran"
            );
            release.wait();
            assert_eq!(third.wait(), 3, "{kind:?}");
            assert!(rt.stats().peak_depth <= 2, "{kind:?}");
        }
    }

    #[test]
    fn blocked_wave_is_admitted_in_a_few_chunks_not_one_per_completion() {
        // The backlog sits at the cap (64 serialized tasks behind a held
        // region) when a 64-task wave arrives: the submitter must wait
        // until half the cap is free, not take each slot as it frees.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Arc::new(
                Runtime::builder()
                    .threads(1)
                    .scheduler(kind)
                    .admission_policy(AdmissionPolicy::BoundedBlock { max_queued: 64 })
                    .build(),
            );
            let hold = Arc::new(AtomicBool::new(true));
            let (started, hold_is_running) = std::sync::mpsc::channel();
            let h = hold.clone();
            let first = rt.execute_later("hold", EffectSet::parse("writes W"), move |_| {
                started.send(()).expect("the test thread");
                while h.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
            hold_is_running.recv().expect("hold");
            let backlog: Vec<_> = (1..64)
                .map(|i| rt.execute_later(format!("b{i}"), EffectSet::parse("writes W"), |_| ()))
                .collect();
            assert_eq!(rt.stats().depth, 64, "{kind:?}: at the cap");
            rt.inner.wave_sizes.lock().clear();

            let rt2 = rt.clone();
            let submitter = std::thread::spawn(move || {
                rt2.submit_all((0..64).map(|i| {
                    (
                        format!("w{i}"),
                        EffectSet::parse("writes W"),
                        move |_: &TaskCtx<'_>| i,
                    )
                }))
            });
            // `hold` owns the worker and the backlog is parked in the
            // scheduler, so the helping submitter finds nothing to run and
            // nothing frees: no chunk goes in until `hold` returns.
            std::thread::sleep(Duration::from_millis(50));
            assert!(rt.inner.wave_sizes.lock().is_empty(), "{kind:?}");
            hold.store(false, Ordering::Release);
            let wave = submitter.join().expect("submitter");
            first.wait();
            for f in backlog {
                f.wait();
            }
            for (i, f) in wave.iter().enumerate() {
                assert_eq!(f.wait(), i, "{kind:?}");
            }
            let chunks = rt.inner.wave_sizes.lock().clone();
            assert_eq!(chunks.iter().sum::<usize>(), 64, "{kind:?}: {chunks:?}");
            assert!(chunks.len() <= 3, "{kind:?}: chunks {chunks:?}");
            assert!(chunks[0] >= 32, "{kind:?}: chunks {chunks:?}");
            let stats = rt.stats();
            assert_eq!((stats.admitted, stats.depth), (128, 0), "{kind:?}");
            assert!(
                stats.peak_depth <= 64,
                "{kind:?}: peak {}",
                stats.peak_depth
            );
        }
    }

    #[test]
    fn a_long_fan_out_starts_with_one_task() {
        // A wave longer than a sub-wave reaches the workers after its first
        // task is built, then in chunks doubling up to a sub-wave; a short
        // wave (every service wave) goes in whole.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(1, kind);
            let fan_out = |n: usize| {
                rt.inner.wave_sizes.lock().clear();
                let futures = rt.submit_all((0..n).map(|i| {
                    let effects = EffectSet::parse(&format!("writes Fan:[{i}]"));
                    ("fan", effects, move |_: &TaskCtx<'_>| i)
                }));
                let values: Vec<usize> = futures.iter().map(TaskFuture::wait).collect();
                assert_eq!(values, (0..n).collect::<Vec<_>>(), "{kind:?}");
                rt.inner.wave_sizes.lock().clone()
            };
            let mut ramp: Vec<usize> = (0..9).map(|i| 1 << i).collect();
            ramp.extend([512, 512, 465]);
            assert_eq!(fan_out(2_000), ramp, "{kind:?}");
            assert_eq!(fan_out(64), [64], "{kind:?}");
        }
    }

    #[test]
    fn concurrent_blocked_submitters_all_drain() {
        // Four external submitters with different thresholds share one small
        // cap: two submit singles (wait for one free slot), two submit waves
        // of 1..=8 (wait for up to half the cap). None may be left waiting.
        const PER_THREAD: usize = 10_000;
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Arc::new(
                Runtime::builder()
                    .threads(2)
                    .scheduler(kind)
                    .admission_policy(AdmissionPolicy::BoundedBlock { max_queued: 8 })
                    .build(),
            );
            let ran = Arc::new(AtomicUsize::new(0));
            let submitters: Vec<_> = (0..4usize)
                .map(|t| {
                    let rt = rt.clone();
                    let ran = ran.clone();
                    std::thread::spawn(move || {
                        let body = move |ran: Arc<AtomicUsize>| {
                            move |_: &TaskCtx<'_>| {
                                ran.fetch_add(1, Ordering::Relaxed);
                            }
                        };
                        let mut sent = 0;
                        while sent < PER_THREAD {
                            let region =
                                |i: usize| EffectSet::parse(&format!("writes G:[{}]", i % 16));
                            if t % 2 == 0 {
                                rt.execute_later("single", region(sent), body(ran.clone()));
                                sent += 1;
                            } else {
                                let wave = (sent % 8 + 1).min(PER_THREAD - sent);
                                rt.submit_all(
                                    (sent..sent + wave)
                                        .map(|i| ("wave", region(i), body(ran.clone()))),
                                );
                                sent += wave;
                            }
                        }
                    })
                })
                .collect();
            // A stranded submitter never returns: fail instead of hanging.
            let deadline = std::time::Instant::now() + Duration::from_secs(120);
            for s in submitters {
                while !s.is_finished() {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "{kind:?}: a submitter is still waiting at depth {} with {} tasks run",
                        rt.stats().depth,
                        ran.load(Ordering::Relaxed)
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                s.join().expect("submitter");
            }
            while ran.load(Ordering::Relaxed) < 4 * PER_THREAD {
                assert!(std::time::Instant::now() < deadline, "{kind:?}: tasks lost");
                std::thread::sleep(Duration::from_millis(1));
            }
            while rt.stats().depth > 0 {
                std::thread::yield_now();
            }
            let stats = rt.stats();
            assert_eq!(stats.admitted, 4 * PER_THREAD as u64, "{kind:?}");
            assert!(stats.peak_depth <= 8, "{kind:?}: peak {}", stats.peak_depth);
        }
    }

    #[test]
    fn stats_snapshot_tracks_a_backlog_on_both_schedulers() {
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(1, kind);
            // One task done first, so `admitted` and `depth` part ways.
            rt.run("warm", EffectSet::parse("writes Q"), |_| ());
            let gate = Arc::new(std::sync::Barrier::new(2));
            let g2 = gate.clone();
            let first = rt.execute_later("hold", EffectSet::parse("writes Q"), move |_| {
                g2.wait();
            });
            let rest: Vec<_> = (0..8)
                .map(|i| rt.execute_later(format!("q{i}"), EffectSet::parse("writes Q"), |_| ()))
                .collect();
            // The holder plus 8 parked waiters are in flight.
            let stats = rt.stats();
            assert_eq!((stats.depth, stats.admitted), (9, 10), "{kind:?}");
            if kind == SchedulerKind::Naive {
                assert_eq!(stats.scheduler.recorded_effects, 9);
            }
            gate.wait();
            first.wait();
            for f in rest {
                f.wait();
            }
            let stats = rt.stats();
            assert_eq!((stats.depth, stats.tasks_executed), (0, 10), "{kind:?}");
            if kind == SchedulerKind::Tree {
                assert!(stats.scheduler.wake_rechecks > 0);
                assert_eq!(stats.scheduler.tree_nodes, 1);
            }
        }
    }

    #[test]
    fn the_completion_that_empties_a_runtime_prunes_without_a_stats_call() {
        // 200 index leaves, all admitted before any task may finish, then
        // vacated one by one: no admission comes after them to prune, so
        // only the last completion can. The test thread never helps, so
        // every completion runs on the one worker, whose count a probe
        // reads.
        const LEAVES: usize = 200;
        let rt = Runtime::new(1, SchedulerKind::Tree);
        let on_worker = |probe: fn() -> usize| {
            let future = rt.execute_later("probe", EffectSet::pure(), move |_| probe());
            while !future.is_done() {
                std::thread::yield_now();
            }
            future.wait()
        };
        on_worker(|| tree::FLUSHED.with(|c| c.replace(0)));
        let go = Arc::new(AtomicBool::new(false));
        let leaves = rt.submit_all((0..LEAVES).map(|i| {
            let go = go.clone();
            let effects = EffectSet::parse(&format!("writes Idle:[{i}]"));
            (format!("leaf{i}"), effects, move |_: &TaskCtx<'_>| {
                while !go.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            })
        }));
        go.store(true, Ordering::Release);
        while !leaves.iter().all(TaskFuture::is_done) {
            std::thread::yield_now();
        }
        let flushed = on_worker(|| tree::FLUSHED.with(|c| c.get()));
        assert!(
            flushed >= tree::IDLE_PRUNE,
            "{flushed} vacated paths flushed when the runtime went idle"
        );
        assert_eq!(flushed, LEAVES, "every leaf's path, once");
    }

    #[test]
    fn dynamic_effects_abort_and_retry_to_completion() {
        let rt = Runtime::new(4, SchedulerKind::Tree);
        let cells: Vec<_> = (0..4).map(|_| DynCell::new(0u64)).collect();
        let futures: Vec<_> = (0..16)
            .map(|i| {
                let cells = cells.clone();
                rt.execute_later_retry(format!("dyn{i}"), EffectSet::pure(), move |ctx| {
                    // Claim two cells, then update both.
                    let a = &cells[i % 4];
                    let b = &cells[(i + 1) % 4];
                    ctx.acquire_write(a)?;
                    ctx.acquire_write(b)?;
                    *a.write() += 1;
                    *b.write() += 1;
                    Ok(())
                })
            })
            .collect();
        for f in futures {
            f.wait();
        }
        let total: u64 = cells.iter().map(|c| *c.read()).sum();
        assert_eq!(total, 32);
        assert!(rt.stats().dynamic.acquires >= 32);
    }

    #[test]
    fn a_panicking_body_gives_its_dynamic_claims_back() {
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(1, kind);
            let cell = DynCell::new(0u32);
            let c = cell.clone();
            let boom = rt.execute_later("boom", EffectSet::pure(), move |ctx| {
                ctx.acquire_write(&c).expect("nobody else claims the cell");
                panic!("deliberate failure");
            });
            assert!(catch_unwind(AssertUnwindSafe(|| boom.wait())).is_err());
            let claimed = rt.run("after", EffectSet::pure(), move |ctx| {
                ctx.acquire_write(&cell).is_ok()
            });
            assert!(claimed, "{kind:?}: the panicked task kept its claim");
        }
    }

    /// `svc-contended`'s mix (4 tenants x 64 keys, Zipf(1.1) over both,
    /// 60 % read / 30 % write / 10 % tenant scan) through a bare tree, in
    /// bursts of 64 with exactly `in_flight` submitted and not done after
    /// each: before the next burst this thread finishes tasks in the order
    /// they were enabled until `in_flight - 64` are left, as the
    /// benchmark's replay does. Everything runs on this thread; the
    /// `check_at` count is read across the completions alone (an admission
    /// walks a scan over the whole backlog below its tenant). Returns
    /// (rechecks, examinations) per completion.
    fn contended_wake_cost(in_flight: usize) -> (f64, f64) {
        const REQUESTS: usize = 64 * 500;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let zipf = |n: usize, u: u64| {
            let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-1.1)).collect();
            let mut left = (u >> 11) as f64 / (1u64 << 53) as f64 * weights.iter().sum::<f64>();
            weights
                .iter()
                .position(|w| {
                    left -= w;
                    left < 0.0
                })
                .unwrap_or(n - 1)
        };
        let requests: Vec<EffectSet> = (0..REQUESTS)
            .map(|_| {
                let tenant = zipf(4, next());
                let key = zipf(64, next());
                EffectSet::parse(&match next() % 10 {
                    0..=5 => format!("reads Pin{tenant}:Key:[{key}]"),
                    6..=8 => format!("writes Pin{tenant}:Key:[{key}]"),
                    _ => format!("reads Pin{tenant}:*"),
                })
            })
            .collect();
        let enabled = Arc::new(Mutex::new(std::collections::VecDeque::new()));
        let sink = enabled.clone();
        let sched = tree::TreeScheduler::new(Box::new(move |t| sink.lock().push_back(t)));
        let examined = || tree::EXAMINED.with(|c| c.get());
        let mut completing = 0;
        // The scheduler holds tasks weakly: the in-flight ones are kept here.
        let mut flying = std::collections::HashMap::new();
        for (burst, effects) in requests.chunks(64).enumerate() {
            let tasks: Vec<Arc<TaskRecord>> = (effects.iter().enumerate())
                .map(|(i, e)| TaskRecord::new((burst * 64 + i) as u64 + 1, "", e.clone(), false))
                .collect();
            flying.extend(tasks.iter().map(|t| (t.id, t.clone())));
            sched.submit_batch(tasks);
            assert_eq!(flying.len(), in_flight.min((burst + 1) * 64));
            let keep = if burst + 1 == REQUESTS / 64 {
                0
            } else {
                in_flight - 64
            };
            while flying.len() > keep {
                // The oldest task in flight waits for nobody.
                let task = enabled
                    .lock()
                    .pop_front()
                    .expect("an enabled task in flight");
                task.mark_done();
                let before = examined();
                sched.task_done(&task);
                completing += examined() - before;
                flying.remove(&task.id);
            }
        }
        let rechecks = sched.diagnostics().wake_rechecks;
        (
            rechecks as f64 / REQUESTS as f64,
            completing as f64 / REQUESTS as f64,
        )
    }

    #[test]
    fn a_pinned_backlog_costs_a_completion_what_a_drained_one_does() {
        // 192 in flight is the benchmark's warm-up with the driver ahead of
        // the worker (pinned at its 128 + 64 valve), 64 the same with the
        // worker ahead, both held exactly. Counts, not timings: what a
        // completion rechecks and examines must not depend on which of the
        // two it is. (With every waiter rechecked and every parked record
        // examined, as before the hand-on, a runtime read 1.0 -> 4.8
        // rechecks and 2.4 -> 58 examined.) The bars were set through a
        // runtime whose driver seldom kept a full 192 ahead (0.27 -> 0.5-0.9
        // examined). Held exactly, the tree reads 0.55 -> 0.68 rechecks and
        // 0.28 -> 1.59 examined, 1.40 of them in `check_at` stepping over
        // the writers parked ahead of a hot key's first enabled reader and
        // 0.19 in parked scans' walks: the examined bar does not hold.
        let (rechecks_64, examined_64) = contended_wake_cost(64);
        let (rechecks_192, examined_192) = contended_wake_cost(192);
        eprintln!(
            "per completion: {rechecks_64:.2} rechecks, {examined_64:.2} examined at 64 in \
             flight; {rechecks_192:.2}, {examined_192:.2} at 192"
        );
        assert!(rechecks_64 > 0.2, "the mix parks nothing: {rechecks_64}");
        assert!(
            rechecks_192 <= 1.5 * rechecks_64 && examined_192 <= 1.5 * examined_64 + 1.0,
            "per completion {rechecks_192:.2} rechecks and {examined_192:.2} examined at 192 \
             in flight, {rechecks_64:.2} and {examined_64:.2} at 64"
        );
    }
}
