//! The per-task execution context.
//!
//! A [`TaskCtx`] is handed to every task body. It is the handle through which
//! the task creates further tasks (`execute_later`, `spawn`, `execute`),
//! waits for them (via the futures), and adds dynamic effects
//! (`acquire_read`/`acquire_write`). It also answers for the task's *run-time
//! covering effect*, which implements the limited run-time check for
//! `spawn` described in §3.1.5: the declared effects minus those of every
//! spawned child not yet joined. A join gives a child's effects back in
//! full, so the set is exact, not the static analysis's conservative
//! `−E … +E` approximation.

use crate::counters::{ACQUIRES, CONFLICTS};
use crate::dynamics::{Aborted, Claims, DynCell, Holder};
use crate::future::{SpawnedTaskFuture, TaskFuture};
use crate::task::{TaskRecord, TaskStatus};
use crate::RtInner;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use twe_effects::{Effect, EffectSet};

/// The execution context of a running task.
///
/// Not `Sync`: the context stays on its task's thread, whose thread-locals
/// (the body nesting that exempts it from admission, the `execute`
/// handback) are the task's. What only the body itself ever changes lives
/// here, owned by that thread, rather than behind a lock in the
/// [`TaskRecord`]: whether it has spawned, and its dynamic claims. A task
/// that never spawns or claims takes no lock for either.
pub struct TaskCtx<'rt> {
    pub(crate) rt: &'rt Arc<RtInner>,
    pub(crate) record: &'rt Arc<TaskRecord>,
    /// Set by the first [`TaskCtx::spawn`], before it lists the child in
    /// [`TaskRecord::spawned_children`], which nothing else adds to: while
    /// it is clear, that list is empty and nobody here locks it.
    has_spawned: Cell<bool>,
    /// The claims of the cells this task holds dynamic effects on (chapter
    /// 7), one entry per cell: a claim outlives its cell when the task
    /// drops the cell's last handle before finishing. Only this body adds
    /// them, and its runtime gives them all back when it ends, however it
    /// ends.
    dynamic_claims: RefCell<Vec<Arc<Claims>>>,
}

impl<'rt> TaskCtx<'rt> {
    pub(crate) fn new(rt: &'rt Arc<RtInner>, record: &'rt Arc<TaskRecord>) -> Self {
        TaskCtx {
            rt,
            record,
            has_spawned: Cell::new(false),
            dynamic_claims: RefCell::new(Vec::new()),
        }
    }

    /// The id of the current task.
    pub fn task_id(&self) -> u64 {
        self.record.id
    }

    /// The name of the current task.
    pub fn task_name(&self) -> &str {
        &self.record.name
    }

    /// The declared effects of the current task.
    pub fn declared_effects(&self) -> &EffectSet {
        &self.record.effects
    }

    /// Does the current run-time covering effect cover `effects`? It does
    /// when the declared effects cover each of them and none interferes
    /// with a spawned child not yet joined; O(unjoined children) per effect.
    ///
    /// Statically-checked TWEJava code never needs to ask this; it is exposed
    /// for tests and for code that wants to assert its own effect discipline.
    pub fn covers(&self, effects: &EffectSet) -> bool {
        self.with_unjoined_children(|children| effects.iter().all(|e| self.covers_one(children, e)))
    }

    /// Runs `f` on the spawned children not yet joined: an empty list, and
    /// no lock, until this body has spawned.
    fn with_unjoined_children<R>(&self, f: impl FnOnce(&[Arc<TaskRecord>]) -> R) -> R {
        if !self.has_spawned.get() {
            return f(&[]);
        }
        f(&self.record.spawned_children.lock())
    }

    /// Does the run-time covering effect cover `e`, given the unjoined
    /// spawned `children`? What [`TaskCtx::covers`] asks of every effect
    /// and what marks an `execute` child's effects as held by this task.
    fn covers_one(&self, children: &[Arc<TaskRecord>], e: &Effect) -> bool {
        self.record.effects.covers_effect(e)
            && !children.iter().any(|c| c.effects.interferes_effect(e))
    }

    /// Which of `effects` this task holds for an `execute` child
    /// ([`TaskRecord::held_effects`]): bit `i` for each of the first 64 that
    /// the run-time covering effect covers.
    fn held_for_child(&self, effects: &EffectSet) -> u64 {
        self.with_unjoined_children(|children| {
            (effects.iter().take(64).enumerate())
                .filter(|(_, e)| self.covers_one(children, e))
                .fold(0, |held, (i, _)| held | 1 << i)
        })
    }

    /// Creates an asynchronous task that will run once the effect-aware
    /// scheduler determines it cannot interfere with any running task.
    /// `name` labels it in diagnostics: a literal costs nothing, a `String`
    /// is kept as it is.
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
        self.rt.execute_later_impl(name, effects, body)
    }

    /// Creates a whole batch of asynchronous tasks and admits them to the
    /// scheduler in one batch round — the in-task form of
    /// [`Runtime::submit_all`](crate::Runtime::submit_all), for fan-out
    /// phases launched from inside a running task. The scheduling outcome
    /// equals calling [`TaskCtx::execute_later`] per triple sequentially
    /// (exact slice order on the naive scheduler; a valid sequential order
    /// on the tree scheduler — see `Scheduler::submit_batch`); only the
    /// per-task admission overhead is batched away. Admission runs on the
    /// calling worker, so this can never wait on the pool it is called from.
    /// Names are taken as [`TaskCtx::execute_later`] takes them.
    pub fn execute_all_later<T, N, F>(
        &self,
        tasks: impl IntoIterator<Item = (N, EffectSet, F)>,
    ) -> Vec<TaskFuture<T>>
    where
        T: Send + 'static,
        N: Into<Cow<'static, str>>,
        F: FnOnce(&TaskCtx<'_>) -> T + Send + 'static,
    {
        self.rt.submit_all_impl(tasks)
    }

    /// Creates a task and immediately waits for it: the `execute` operation
    /// of §5.5.1, the TWE idiom for a critical section within a larger task.
    /// `name` as for [`TaskCtx::execute_later`].
    ///
    /// The child is *carried* by this task: this task is blocked on it, so
    /// this task's admission slot covers it — it reserves none of its own,
    /// as a spawned child reserves none, though
    /// [`RuntimeStats::admitted`](crate::RuntimeStats::admitted) counts it —
    /// and the future held here keeps it alive, so it never holds itself.
    ///
    /// A child that its own submission enables runs right here, on the
    /// calling thread, and the pool never sees it — as a `ForkJoinPool` task
    /// forked and joined at once runs on its joiner. It runs with this task
    /// recorded as blocked on it, exactly as `get_value` records it while
    /// helping, so effect transfer (Fig. 5.11) and the spawned-children
    /// check (Fig. 5.8) see the same chain. A child that has to wait is
    /// enabled later, by whichever thread resolves its conflict, and goes
    /// through the pool while this task waits in `get_value`. Either way a
    /// panic in the child is re-raised here.
    ///
    /// The child's effects that this task's run-time covering effect covers
    /// ([`TaskCtx::covers`]) are *held* for it
    /// ([`TaskRecord::held_effects`]): this task waits for the child, and
    /// its own enabled records guard them until after the child is done —
    /// any task that interferes with a held effect interferes with the
    /// effect covering it, so it is already parked behind this task. The
    /// tree scheduler registers only the child's other effects, so a child
    /// whose effects are all held is enabled on the spot and runs as a plain
    /// nested call. The single queue checks every effect, as in §3.4.2.
    pub fn execute<T, F>(
        &self,
        name: impl Into<Cow<'static, str>>,
        effects: EffectSet,
        body: F,
    ) -> T
    where
        T: Send + 'static,
        F: FnOnce(&TaskCtx<'_>) -> T + Send + 'static,
    {
        let held = self.held_for_child(&effects);
        let future = self.rt.carry_new(name, effects, held, body);
        let child = &future.record;
        if self.rt.submit_wanting_back(child) {
            self.blocked_on(child, || child.body.run(child));
        }
        future.get_value(self)
    }

    /// Spawns a child task whose effects are transferred directly from this
    /// task (§3.1.5). The child is enabled immediately — no effect-based
    /// scheduling is needed because its effects were already held by the
    /// parent.
    ///
    /// Panics if the child's effects are not covered by this task's current
    /// covering effect ([`TaskCtx::covers`]: the declared effects minus
    /// those of the children not yet joined) — the run-time analogue of the
    /// exception TWEJava throws when the static analysis deferred the check
    /// to run time. `name` as for [`TaskCtx::execute_later`].
    pub fn spawn<T, F>(
        &self,
        name: impl Into<Cow<'static, str>>,
        effects: EffectSet,
        body: F,
    ) -> SpawnedTaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce(&TaskCtx<'_>) -> T + Send + 'static,
    {
        let name = name.into();
        assert!(
            self.covers(&effects),
            "spawn of task `{name}` with effects `{effects}` not covered by the current \
             covering effect of task `{}`",
            self.record.name
        );
        let future = self
            .rt
            .new_task(name, effects, None, Some(self.record.clone()), body);
        // The spawned task is enabled from the start. Listing it among the
        // unjoined children transfers its effects away from this task.
        future.record.sched.lock().status = TaskStatus::Enabled;
        self.has_spawned.set(true);
        self.record.add_spawned_child(future.record.clone());
        self.rt.pool.submit(crate::RunTask(future.record.clone()));
        SpawnedTaskFuture {
            future,
            parent_id: self.record.id,
            joined: AtomicBool::new(false),
        }
    }

    /// Adds a dynamic *read* effect on the reference region of `cell`
    /// (chapter 7). Returns `Err(Aborted)` if it conflicts with another
    /// task's dynamic effects, in which case the task should abort and retry
    /// (see `Runtime::execute_later_retry`).
    pub fn acquire_read<T>(&self, cell: &DynCell<T>) -> Result<(), Aborted> {
        self.claim(&cell.claims, false)
    }

    /// Adds a dynamic *write* effect on the reference region of `cell`.
    pub fn acquire_write<T>(&self, cell: &DynCell<T>) -> Result<(), Aborted> {
        self.claim(&cell.claims, true)
    }

    /// This task among every runtime's tasks.
    fn holder(&self) -> Holder {
        (self.rt.counters.table, self.record.id)
    }

    fn claim(&self, claims: &Arc<Claims>, write: bool) -> Result<(), Aborted> {
        if let Err(aborted) = claims.acquire(self.holder(), write) {
            self.rt.counters.add(CONFLICTS, 1);
            return Err(aborted);
        }
        self.rt.counters.add(ACQUIRES, 1);
        let mut held = self.dynamic_claims.borrow_mut();
        if !held.iter().any(|c| Arc::ptr_eq(c, claims)) {
            held.push(claims.clone());
        }
        Ok(())
    }

    /// Releases every dynamic effect this task has added so far (used when a
    /// retryable task aborts). The runtime calls it once the body has ended,
    /// whether it returned or panicked, so no claim outlives its task.
    pub fn release_dynamic_effects(&self) {
        for claims in self.dynamic_claims.borrow_mut().drain(..) {
            claims.release(self.holder());
        }
    }

    // ------------------------------------------------------------------
    // Internal plumbing used by the futures and the job wrapper.
    // ------------------------------------------------------------------

    /// Blocks the current task until `done()` holds, recording `target` as
    /// this task's blocker so the scheduler can apply effect transfer
    /// (Figure 5.11). The blocked worker thread helps run other enabled tasks
    /// while it waits.
    ///
    /// Panics if `target` belongs to another runtime, before it reaches this
    /// runtime's scheduler: its record means nothing to that scheduler, and
    /// its completion wakes only its own pool, not the one this task helps.
    /// [`TaskFuture::wait`](crate::TaskFuture::wait) awaits a task of any
    /// runtime.
    pub(crate) fn await_target(&self, target: &Arc<TaskRecord>, done: impl Fn() -> bool) {
        let theirs = target.runtime();
        assert!(
            Arc::ptr_eq(self.rt, theirs),
            "task `{}` of runtime {} awaits task `{}` of runtime {}: a task awaits only tasks \
             of its own runtime; use TaskFuture::wait for another runtime's",
            self.record.name,
            self.rt.counters.table,
            target.name,
            theirs.counters.table
        );
        if done() {
            return;
        }
        self.blocked_on(target, || {
            self.rt.scheduler().on_await(target);
            self.rt.pool.help_until(&done);
        });
    }

    /// Runs `wait` with `target` recorded as this task's blocker: what the
    /// scheduler reads for effect transfer and for the spawned-children
    /// check of a blocked task.
    fn blocked_on(&self, target: &Arc<TaskRecord>, wait: impl FnOnce()) {
        *self.record.blocker.lock() = Some(target.clone());
        wait();
        *self.record.blocker.lock() = None;
    }

    /// Removes a joined child from the spawned-children list, which
    /// transfers its effects back to this task (dynamically we always
    /// transfer the joined child's effects back, per §3.1.5).
    pub(crate) fn unregister_spawned_child(&self, child_id: u64) {
        self.record.remove_spawned_child(child_id);
    }

    /// The implicit `join` of all not-yet-joined spawned children performed
    /// before a task returns (the `awaitSpawned` rule of the dynamic
    /// semantics, §3.2.3).
    pub(crate) fn await_remaining_spawned(&self) {
        if !self.has_spawned.get() {
            return;
        }
        loop {
            let children = self.record.spawned_children_snapshot();
            if children.is_empty() {
                return;
            }
            for child in children {
                let c = child.clone();
                self.await_target(&child, move || c.is_done());
                self.record.remove_spawned_child(child.id);
            }
        }
    }
}
