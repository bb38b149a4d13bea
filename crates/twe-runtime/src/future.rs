//! User-facing task futures.
//!
//! [`TaskFuture`] is returned by `executeLater` and supports `isDone`,
//! `getValue` (from inside a task, with effect transfer when blocked) and
//! `wait` (from outside the runtime). [`SpawnedTaskFuture`] is returned by
//! `spawn` and additionally supports `join`, which transfers the child's
//! effects back to the parent (§3.1.5). A spawned task may be joined exactly
//! once and only by the task that spawned it.

use crate::ctx::TaskCtx;
use crate::task::TaskRecord;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use twe_effects::EffectSet;

/// A handle to one execution of a task created with `executeLater`: the
/// task's record (which holds the result slot and the runtime) and the type
/// of the value in that slot.
pub struct TaskFuture<T> {
    pub(crate) record: Arc<TaskRecord>,
    pub(crate) value: PhantomData<fn() -> T>,
}

impl<T> Clone for TaskFuture<T> {
    fn clone(&self) -> Self {
        let (record, value) = (self.record.clone(), PhantomData);
        TaskFuture { record, value }
    }
}

impl<T: Send + 'static> TaskFuture<T> {
    /// Is the task done (non-blocking)?
    pub fn is_done(&self) -> bool {
        self.record.completed.load(Ordering::Acquire)
    }

    /// Takes the result; re-raises the payload if the task panicked.
    /// Panics if called before completion or if the value was already taken.
    fn take(&self) -> T {
        assert!(self.is_done(), "task result taken before completion");
        let slot = self.record.body.slot();
        let slot: &Mutex<Option<std::thread::Result<T>>> = slot
            .downcast_ref()
            .expect("a future is typed like its task's body");
        let outcome = slot.lock().take();
        match outcome.expect("task result already taken (getValue may consume it only once)") {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// The scheduler-facing record (used by tests and the benchmarks).
    pub fn record(&self) -> &Arc<TaskRecord> {
        &self.record
    }

    /// Waits for the task from *inside another task* and returns its value.
    ///
    /// If the task has not finished, the calling task blocks and its effects
    /// are treated as transferred to the awaited task (and to anything that
    /// task is transitively blocked on), which both avoids a class of
    /// deadlocks and enables the critical-section idiom of §3.1.4. The value
    /// may be taken only once; a second `get_value` on the same future
    /// panics.
    pub fn get_value(&self, ctx: &TaskCtx<'_>) -> T {
        ctx.await_target(&self.record, || self.is_done());
        self.take()
    }

    /// Waits for the task from *outside* the runtime (e.g. the main thread)
    /// and returns its value. The awaited task is prioritized, but no effect
    /// transfer takes place because the caller is not a task.
    pub fn wait(&self) -> T {
        if !self.is_done() {
            let rt = self.record.runtime();
            rt.scheduler().on_await(None, &self.record);
            rt.pool.help_until(|| self.is_done());
        }
        self.take()
    }
}

/// A handle to a task created with `spawn`, which received its effects by
/// transfer from the spawning (parent) task.
pub struct SpawnedTaskFuture<T> {
    pub(crate) future: TaskFuture<T>,
    /// The effects transferred from the parent at the spawn.
    pub(crate) transferred: EffectSet,
    /// Id of the parent task (only it may join).
    pub(crate) parent_id: u64,
    pub(crate) joined: AtomicBool,
}

impl<T: Send + 'static> SpawnedTaskFuture<T> {
    /// Is the spawned task done (non-blocking)?
    pub fn is_done(&self) -> bool {
        self.future.is_done()
    }

    /// The effects that were transferred from the parent to this child.
    pub fn transferred_effects(&self) -> &EffectSet {
        &self.transferred
    }

    /// Waits for the spawned task, transfers its effects back to the calling
    /// (parent) task, and returns its value.
    ///
    /// Panics if called from a task other than the one that spawned it, or if
    /// the task has already been joined — mirroring the exceptions TWEJava
    /// throws for the same misuses.
    pub fn join(&self, ctx: &TaskCtx<'_>) -> T {
        assert_eq!(
            ctx.task_id(),
            self.parent_id,
            "a spawned task may only be joined by the task that spawned it"
        );
        assert!(
            !self.joined.swap(true, Ordering::AcqRel),
            "a spawned task may be joined only once"
        );
        ctx.await_target(&self.future.record, || self.future.is_done());
        // Effect transfer back to the parent: the parent may again perform
        // operations covered by the child's effects.
        ctx.transfer_back(&self.transferred);
        ctx.unregister_spawned_child(self.future.record.id);
        self.future.take()
    }
}

#[cfg(test)]
mod tests {
    // The future types are exercised end-to-end by the runtime's own tests
    // (`lib.rs`, `ctx.rs`) and the root package's `tests/safety_properties.rs`;
    // the unit tests here only cover the plumbing that does not need a live
    // runtime.
    use super::*;

    #[test]
    fn spawned_future_records_transferred_effects() {
        // Construct the pieces by hand to check the accessors.
        let rt = crate::Runtime::new(1, crate::SchedulerKind::Tree);
        let fut = rt.execute_later("t", EffectSet::parse("writes A"), |_| 5usize);
        assert_eq!(fut.wait(), 5);
        assert!(fut.is_done());
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn a_value_is_taken_only_once() {
        let rt = crate::Runtime::new(1, crate::SchedulerKind::Tree);
        let fut = rt.execute_later("t", EffectSet::pure(), |_| 1u8);
        let again = fut.clone();
        assert_eq!(fut.wait(), 1);
        again.wait();
    }
}
