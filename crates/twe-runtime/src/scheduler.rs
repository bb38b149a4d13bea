//! The effect-aware scheduler interface and the shared effect-conflict test.
//!
//! Both schedulers (the naive single-queue scheduler of §3.4.2 and the
//! tree-based scheduler of chapter 5) implement [`Scheduler`]; the runtime
//! routes `executeLater`, `getValue`/`join`, and task completion through it.
//! The conflict test implements Figure 5.8 / Definition 3, including the
//! effect-transfer-when-blocked exception and the check of a blocked task's
//! spawned children.

use crate::task::{blocked_on, TaskRecord};
use std::sync::Arc;
use twe_effects::{Effect, RplId};

/// Callback a scheduler hands each enabled task to (the runtime's pool
/// submission).
pub type EnableFn = Box<dyn Fn(Arc<TaskRecord>) + Send + Sync>;

/// What a scheduler reports about itself ([`Scheduler::diagnostics`]), and
/// the scheduler's part of [`crate::RuntimeStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerDiagnostics {
    /// Nodes in the scheduling tree (`1` = just the root); `0` for
    /// schedulers without a tree.
    pub tree_nodes: usize,
    /// Effect records currently registered (tree scheduler) or tasks
    /// currently queued (naive scheduler).
    pub recorded_effects: usize,
    /// Waiting tasks (naive) or parked effect records (tree) examined again
    /// by wake-ups so far — completions and awaits. Monotone, and
    /// deterministic for a deterministic call sequence; per completion it
    /// says how much of a conflicting backlog each completion goes back
    /// over (`figures --fig backlog`).
    pub wake_rechecks: u64,
}

/// The interface the runtime uses to drive an effect-aware task scheduler.
///
/// # Contract
///
/// An implementation must maintain **task isolation**: no two tasks whose
/// declared effects interfere (per [`tasks_conflict`]) may be enabled
/// concurrently, with the effect-transfer-when-blocked exception of §3.1.4.
/// Beyond isolation it must guarantee **progress**: every submitted task is
/// eventually enabled once all conflicting predecessors complete (the
/// runtime calls [`Scheduler::task_done`] exactly once per finished task,
/// and [`Scheduler::on_await`]/[`Scheduler::spawned_child_done`] whenever an
/// event may have resolved a conflict).
///
/// Tasks move through the lifecycle documented on
/// [`TaskStatus`](crate::task::TaskStatus): `submit` registers a `Waiting`
/// task; `on_await` may promote it to `Prioritized`; the scheduler flips it
/// to `Enabled` (invoking the enable callback installed by the runtime)
/// exactly once; the runtime marks it `Done` *before* calling `task_done`.
/// Spawned tasks bypass the scheduler entirely (their effects were
/// transferred from a running parent) and are visible only through the
/// conflict test's treatment of blocked tasks' children.
///
/// # Ownership
///
/// The caller keeps every submitted [`TaskRecord`] alive until it has
/// called [`Scheduler::task_done`] for it. A scheduler may hold tasks
/// weakly (the tree scheduler does: a task owns its effect records, and the
/// tree only points back at the task), so a task dropped before `task_done`
/// leaves behind effects nothing will release and waiters nothing will
/// recheck; the tree scheduler asserts the rule in debug builds. The
/// runtime keeps it by construction: a task holds itself from submission
/// until it is enabled (`TaskRecord::pending`), and the pool's job holds it
/// from then until it is done.
pub trait Scheduler: Send + Sync {
    /// `executeLater`: register the task and enable it (submit it for
    /// execution via the callback installed by the runtime) once no enabled
    /// task has conflicting effects.
    fn submit(&self, task: Arc<TaskRecord>);

    /// Batched `executeLater`: admit every task of `tasks` under one
    /// admission round, equivalently to **some** sequential submission
    /// order of the batch.
    ///
    /// The observable outcome (isolation, progress, which tasks can run
    /// together) must be that of `for t in tasks { self.submit(t) }` for
    /// *some* permutation of the batch; which of two **conflicting batch
    /// members** runs first is implementation-defined. The naive scheduler
    /// is exact slice order; the tree scheduler admits in settle-depth
    /// order within each wave (a shallow wildcard may win over an earlier,
    /// deeper conflicting member — callers needing a deterministic winner
    /// among conflicting tasks should submit them per-task or in separate
    /// batches). What the batch saves is the *per-task overhead* — repeated
    /// lock acquisitions and repeated tree descents over a shared region
    /// prefix.
    ///
    /// An empty batch must be a no-op and a single-element batch must take
    /// the plain [`Scheduler::submit`] path (no extra recheck round), so
    /// `submit_all` of one task is *exactly* `execute_later`.
    ///
    /// The default implementation is the sequential loop; both bundled
    /// schedulers override it (the tree scheduler inserts the whole batch
    /// under a single root descent, the naive scheduler submits the members
    /// in order under one hold of its queue lock).
    fn submit_batch(&self, tasks: Vec<Arc<TaskRecord>>) {
        for task in tasks {
            self.submit(task);
        }
    }

    /// A task (or an external thread, when `blocked` is `None`) is about to
    /// wait for `target`: prioritize `target` and recheck it — the blocked
    /// task's effects are treated as transferred to it (§3.1.4).
    fn on_await(&self, blocked: Option<&Arc<TaskRecord>>, target: &Arc<TaskRecord>);

    /// `task` has finished: release its effects and recheck waiting tasks.
    fn task_done(&self, task: &Arc<TaskRecord>);

    /// A *spawned* child of `parent` has finished. Spawned tasks hold effects
    /// transferred from their parent and are invisible to the scheduler
    /// except through the conflict test (Figure 5.8), so their completion may
    /// resolve conflicts for tasks waiting behind the blocked parent.
    fn spawned_child_done(&self, parent: &Arc<TaskRecord>) {
        let _ = parent;
    }

    /// A dynamic reference region was retired (its
    /// [`DynCell`](crate::DynCell) dropped): no live task's effect set can
    /// still name `region`, so any scheduler state attached to it is
    /// permanently quiescent and may be reclaimed eagerly. The epoch
    /// reclaimer may recycle the id for a new cell afterwards, so state
    /// left behind would otherwise greet the next era.
    ///
    /// The default is a no-op (the naive scheduler keeps no per-region
    /// state); the tree scheduler prunes the region's tree node instead of
    /// waiting for a wildcard walk to stumble on it.
    fn region_retired(&self, region: RplId) {
        let _ = region;
    }

    /// Current counters ([`SchedulerDiagnostics`]). Diagnostic only —
    /// values may be stale the moment they are read. The tree scheduler
    /// walks every node and flushes its pending prunes first. The default
    /// reports zeros; both bundled schedulers override it.
    fn diagnostics(&self) -> SchedulerDiagnostics {
        SchedulerDiagnostics::default()
    }
}

/// Effect-level conflict test with effect transfer (Figure 5.8).
///
/// `existing` is an effect of an already-registered task, `new` an effect of
/// the task being checked. They conflict unless: they belong to the same
/// task; both are reads; their RPLs are disjoint; or the existing task is
/// (transitively) blocked on the new task and none of its not-yet-joined
/// spawned children's effects conflict with `new`.
///
/// The disjointness test runs over interned RPL ids ([`twe_effects::Rpl`]):
/// for two fully-specified RPLs it is one integer comparison, and a
/// trailing `*` against a fully-specified RPL is an O(1) ancestor test, so
/// this function is cheap enough to sit on the per-task hot path of both
/// schedulers.
pub fn effects_conflict(
    existing_task: &Arc<TaskRecord>,
    existing: &Effect,
    new_task: &Arc<TaskRecord>,
    new: &Effect,
) -> bool {
    if existing_task.id == new_task.id {
        return false;
    }
    if (existing.is_read() && new.is_read()) || existing.rpl.disjoint(&new.rpl) {
        return false;
    }
    if blocked_on(existing_task, new_task) {
        // The blocked task cannot resume until `new_task` completes, so its
        // own effects are transferred — but effects it handed to spawned
        // children that are still running must still be respected.
        for child in existing_task.spawned_children_snapshot() {
            if child.is_done() {
                continue;
            }
            for child_effect in child.effects.iter() {
                if effects_conflict(&child, child_effect, new_task, new) {
                    return true;
                }
            }
        }
        return false;
    }
    true
}

/// Task-level conflict test: do any pair of effects of the two tasks
/// conflict (with the effect-transfer exception applied per pair)?
pub fn tasks_conflict(existing: &Arc<TaskRecord>, new: &Arc<TaskRecord>) -> bool {
    if existing.id == new.id {
        return false;
    }
    existing.effects.iter().any(|ee| {
        new.effects
            .iter()
            .any(|ne| effects_conflict(existing, ee, new, ne))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twe_effects::EffectSet;

    fn task(id: u64, effects: &str) -> Arc<TaskRecord> {
        TaskRecord::new(id, format!("t{id}"), EffectSet::parse(effects), false)
    }

    #[test]
    fn same_task_never_conflicts_with_itself() {
        let t = task(1, "writes A");
        assert!(!tasks_conflict(&t, &t));
    }

    #[test]
    fn writes_to_same_region_conflict() {
        let a = task(1, "writes A");
        let b = task(2, "writes A");
        assert!(tasks_conflict(&a, &b));
    }

    #[test]
    fn reads_do_not_conflict() {
        let a = task(1, "reads A");
        let b = task(2, "reads A");
        assert!(!tasks_conflict(&a, &b));
    }

    #[test]
    fn disjoint_regions_do_not_conflict() {
        let a = task(1, "writes Top");
        let b = task(2, "writes Bottom");
        assert!(!tasks_conflict(&a, &b));
        let c = task(3, "writes Top, writes Bottom");
        let d = task(4, "writes GUIData");
        assert!(!tasks_conflict(&c, &d));
    }

    #[test]
    fn wildcard_conflicts_with_descendants() {
        let a = task(1, "writes Root:*");
        let b = task(2, "writes A:B");
        assert!(tasks_conflict(&a, &b));
    }

    #[test]
    fn blocking_transfers_effects() {
        // Task A (writes X) blocks on task B (writes X): the conflict is
        // ignored so B can start (effect transfer when blocked, §3.1.4).
        let a = task(1, "writes X");
        let b = task(2, "writes X");
        assert!(tasks_conflict(&a, &b));
        *a.blocker.lock() = Some(b.clone());
        assert!(!tasks_conflict(&a, &b));
        // But not in the other direction.
        assert!(tasks_conflict(&b, &a));
    }

    #[test]
    fn indirect_blocking_also_transfers() {
        let a = task(1, "writes X");
        let mid = task(2, "writes Y");
        let b = task(3, "writes X");
        *a.blocker.lock() = Some(mid.clone());
        *mid.blocker.lock() = Some(b.clone());
        assert!(!tasks_conflict(&a, &b));
    }

    #[test]
    fn spawned_children_of_blocked_task_still_conflict() {
        // A spawned a child working on X, then blocked on B (also writes X).
        // The child is still running, so B must not start.
        let a = task(1, "writes X, writes Y");
        let child = TaskRecord::new(10, "child", EffectSet::parse("writes X"), true);
        a.add_spawned_child(child.clone());
        let b = task(2, "writes X");
        *a.blocker.lock() = Some(b.clone());
        assert!(tasks_conflict(&a, &b));
        // Once the child completes, the conflict disappears.
        child.mark_done();
        assert!(!tasks_conflict(&a, &b));
    }
}
