//! Scheduler-facing task records and task state.
//!
//! A [`TaskRecord`] is the untyped, scheduler-facing view of one task
//! instance (the analogue of the `TaskFuture` tuple in the formal semantics
//! and of the `TaskFuture` class of Figure 5.3): its declared effects, its
//! scheduling state (waiting / prioritized / enabled / done), the task it is
//! currently blocked on, and its spawned-but-not-yet-joined children.
//!
//! A task is **one allocation**. The record is generic over its last field,
//! the [`TaskBody`]: the runtime builds an `Arc<TaskRecord<B>>` whose `B`
//! holds the body closure and the typed result slot, and unsizes it to the
//! `Arc<TaskRecord>` (= `Arc<TaskRecord<dyn TaskBody>>`) the schedulers, the
//! pool and the user-facing `TaskFuture<T>` all share. [`TaskRecord::new`]
//! makes a record without a body, which is all a bare scheduler needs.

use parking_lot::Mutex;
use std::any::Any;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use twe_effects::{EffectSet, InlineList};

use crate::tree::EffectRecord;
use crate::RtInner;

/// The scheduling status of a task (§5.3.1, Figure 5.3).
///
/// Statuses are strictly ordered (`Waiting < Prioritized < Enabled <
/// Done`) and only ever advance; the scheduler flips a task to `Enabled`
/// exactly once. See the crate docs ("Task lifecycle") for the full
/// submit → park → enable → done → prune walk-through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskStatus {
    /// Waiting for its effects to be enabled by the scheduler.
    Waiting,
    /// Still waiting, but another task is blocked on it, so the scheduler
    /// favours it when resolving conflicts.
    Prioritized,
    /// All effects enabled; the task has been handed to the thread pool.
    Enabled,
    /// The task has finished executing.
    Done,
}

/// Mutable scheduling state of a task, guarded by one mutex per task.
///
/// The paper implements this with a single `AtomicInteger` (a count of
/// disabled effects with a special negative range for the rechecking flag);
/// a small per-task mutex gives the same atomicity with clearer code and
/// per-task-only contention.
#[derive(Debug)]
pub struct TaskSchedState {
    /// Current status.
    pub status: TaskStatus,
    /// Number of this task's effects that are not currently enabled.
    pub disabled_effects: usize,
    /// True while `recheckTask` is re-examining this task's effects; prevents
    /// other operations from disabling them (Figure 5.10).
    pub rechecking: bool,
}

/// What a record carries for the runtime, behind its scheduling state: the
/// body to run and the slot its result goes to.
pub trait TaskBody: Send + Sync {
    /// Runs the task to completion on the calling thread. `task` is the
    /// record this body is the tail of.
    fn run(&self, task: &Arc<TaskRecord>);

    /// The result slot, a `Mutex<Option<std::thread::Result<T>>>` for the
    /// task's value type `T`; the typed future downcasts it.
    fn slot(&self) -> &dyn Any;
}

/// The body of a record made by [`TaskRecord::new`]: nothing to run.
struct NoBody;

impl TaskBody for NoBody {
    fn run(&self, _task: &Arc<TaskRecord>) {}

    fn slot(&self) -> &dyn Any {
        self
    }
}

/// The scheduler-facing record of one task instance.
pub struct TaskRecord<B: ?Sized = dyn TaskBody> {
    /// Unique id (creation order).
    pub id: u64,
    /// Human-readable name for diagnostics: borrowed when it is a literal,
    /// so naming a task allocates nothing.
    pub name: Cow<'static, str>,
    /// The task's declared (static) effects.
    pub effects: EffectSet,
    /// Which of `effects` (bit `i` for the `i`-th; none past the 64th) the
    /// caller of a [`TaskCtx::execute`](crate::TaskCtx::execute) child holds
    /// for it: those its run-time covering effect covers. The caller waits
    /// for the child and its records stay in place until after the child is
    /// done, so they already guard these effects (§3.1.4) and the tree
    /// scheduler registers none of its own for them. Fixed when the record
    /// is built; 0 for every other task.
    pub held_effects: u64,
    /// Scheduling state (status, disabled-effect count, rechecking flag).
    pub sched: Mutex<TaskSchedState>,
    /// The task this task is currently blocked on via `getValue`/`join`
    /// (`null` when not blocked) — drives the effect-transfer-when-blocked
    /// mechanism of §3.1.4.
    pub blocker: Mutex<Option<Arc<TaskRecord>>>,
    /// Children created with `spawn` and not yet joined; their transferred
    /// effects are outside this task's covering effect (`TaskCtx::covers`)
    /// and must be considered when this task is blocked on another
    /// (Figure 5.8). Only the task's own [`TaskCtx::spawn`] adds to it, so
    /// its body reads it only once it has spawned; the schedulers read it
    /// of a blocked task from any thread
    /// ([`TaskRecord::spawned_children_snapshot`]).
    ///
    /// [`TaskCtx::spawn`]: crate::TaskCtx::spawn
    pub(crate) spawned_children: Mutex<Vec<Arc<TaskRecord>>>,
    /// Whether this task was created by `spawn` (it then bypasses the
    /// effect-based scheduler entirely).
    pub spawned: bool,
    /// Whether this task is a [`TaskCtx::execute`](crate::TaskCtx::execute)
    /// child, *carried* by its caller: the caller is blocked on it, so the
    /// caller's admission slot covers it (it reserves none, as a spawned
    /// task reserves none) and the caller's future keeps it alive (it never
    /// holds itself through `pending`).
    pub(crate) carried: bool,
    /// The runtime the task belongs to, held once per task: the job, the
    /// context and the future all reach it through the record. `None` for a
    /// record made by [`TaskRecord::new`].
    pub(crate) rt: Option<Arc<RtInner>>,
    /// The record's handle to itself between submission and enabling, for
    /// a task nobody may be waiting on: the runtime's side of the
    /// [`Scheduler`](crate::scheduler::Scheduler) ownership contract, which
    /// the pool's job takes over from there until `task_done`. Dropped by the
    /// enable callback, which hands the pool the `Arc` the scheduler enabled
    /// the task with. Always empty for a `carried` task: its caller's future
    /// holds it until it is done, and the `TaskCtx::execute` whose own
    /// submission enabled it runs it inline.
    pub(crate) pending: Mutex<Option<Arc<TaskRecord>>>,
    /// Set once the task has finished (its effects not yet released).
    pub done_flag: AtomicBool,
    /// Set last of all, once the result is stored, the effects are released
    /// and the admission slot is free: what the future polls.
    pub(crate) completed: AtomicBool,
    /// Per-effect records used by the tree scheduler, in effect order (unset
    /// for the naive scheduler and for spawned tasks; inline up to two).
    pub tree_effects: OnceLock<InlineList<Arc<EffectRecord>>>,
    /// The body and the result slot. Last, so that the record unsizes.
    pub(crate) body: B,
}

impl<B: TaskBody + 'static> TaskRecord<B> {
    /// Creates the one allocation of a task: a record in the `Waiting`
    /// state with `body` as its tail. `held` is `Some` for a `carried`
    /// [`TaskCtx::execute`](crate::TaskCtx::execute) child, with its
    /// [`TaskRecord::held_effects`].
    pub(crate) fn with_body(
        id: u64,
        name: Cow<'static, str>,
        effects: EffectSet,
        held: Option<u64>,
        spawned: bool,
        rt: Option<Arc<RtInner>>,
        body: B,
    ) -> Arc<TaskRecord> {
        Arc::new(TaskRecord {
            id,
            name,
            effects,
            held_effects: held.unwrap_or(0),
            sched: Mutex::new(TaskSchedState {
                status: TaskStatus::Waiting,
                disabled_effects: 0,
                rechecking: false,
            }),
            blocker: Mutex::new(None),
            spawned_children: Mutex::new(Vec::new()),
            spawned,
            carried: held.is_some(),
            rt,
            pending: Mutex::new(None),
            done_flag: AtomicBool::new(false),
            completed: AtomicBool::new(false),
            tree_effects: OnceLock::new(),
            body,
        })
    }
}

impl TaskRecord {
    /// Creates a new record in the `Waiting` state, with no body and no
    /// runtime: what drives a bare scheduler. Whoever submits it holds it
    /// until it has called `task_done` for it (the
    /// [`Scheduler`](crate::scheduler::Scheduler) ownership contract). A
    /// literal `name` costs nothing, a `String` is kept as it is.
    pub fn new(
        id: u64,
        name: impl Into<Cow<'static, str>>,
        effects: EffectSet,
        spawned: bool,
    ) -> Arc<Self> {
        TaskRecord::with_body(id, name.into(), effects, None, spawned, None, NoBody)
    }

    /// The runtime of a task that has one.
    pub(crate) fn runtime(&self) -> &Arc<RtInner> {
        self.rt.as_ref().expect("the task was created by a runtime")
    }

    /// Current status.
    pub fn status(&self) -> TaskStatus {
        self.sched.lock().status
    }

    /// Has the task finished executing?
    pub fn is_done(&self) -> bool {
        self.done_flag.load(Ordering::Acquire)
    }

    /// Marks the task done (return value already stored by the caller).
    pub fn mark_done(&self) {
        self.sched.lock().status = TaskStatus::Done;
        self.done_flag.store(true, Ordering::Release);
    }

    /// Does the caller of this `execute` child hold its `i`-th effect for it
    /// ([`TaskRecord::held_effects`])?
    pub(crate) fn caller_holds(&self, i: usize) -> bool {
        i < 64 && self.held_effects & 1 << i != 0
    }

    /// The task this `execute` child waits for, if its caller holds effects
    /// for it: then a conflict its spawned children keep alive is checked
    /// at the caller's records ([`effects_conflict`]), and the waiter to
    /// recheck once one of them finishes is on this chain.
    ///
    /// [`effects_conflict`]: crate::scheduler::effects_conflict
    pub(crate) fn held_and_blocked_on(&self) -> Option<Arc<TaskRecord>> {
        let blocker = self.blocker.lock().clone();
        blocker.filter(|_| self.held_effects != 0)
    }

    /// The tree scheduler's per-effect records (empty until it admits the
    /// task).
    pub(crate) fn tree_records(&self) -> &[Arc<EffectRecord>] {
        self.tree_effects.get().map_or(&[], |records| records)
    }

    /// Snapshot of the not-yet-joined spawned children.
    pub fn spawned_children_snapshot(&self) -> Vec<Arc<TaskRecord>> {
        self.spawned_children.lock().clone()
    }

    /// Registers a spawned child: what [`TaskCtx::spawn`](crate::TaskCtx::spawn)
    /// does, and nothing else in a running task.
    pub(crate) fn add_spawned_child(&self, child: Arc<TaskRecord>) {
        self.spawned_children.lock().push(child);
    }

    /// Removes a spawned child once it has been joined.
    pub(crate) fn remove_spawned_child(&self, child_id: u64) {
        self.spawned_children.lock().retain(|c| c.id != child_id);
    }
}

impl std::fmt::Debug for TaskRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskRecord")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("effects", &self.effects)
            .field("status", &self.status())
            .field("done", &self.is_done())
            .finish()
    }
}

/// Walks the blocker chain of `t_prime` looking for `t` (Figure 5.9): is
/// `t_prime` directly or indirectly blocked on `t`?
pub fn blocked_on(t_prime: &Arc<TaskRecord>, t: &Arc<TaskRecord>) -> bool {
    let mut current = t_prime.blocker.lock().clone();
    let mut hops = 0usize;
    while let Some(task) = current {
        if task.id == t.id {
            return true;
        }
        current = task.blocker.lock().clone();
        // Blocking chains are acyclic in a correct execution; guard against a
        // pathological cycle so the scheduler itself cannot live-lock.
        hops += 1;
        if hops > 1_000_000 {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_ordering_matches_lifecycle() {
        assert!(TaskStatus::Waiting < TaskStatus::Prioritized);
        assert!(TaskStatus::Prioritized < TaskStatus::Enabled);
        assert!(TaskStatus::Enabled < TaskStatus::Done);
    }

    #[test]
    fn blocked_on_walks_chains() {
        let a = TaskRecord::new(1, "a", EffectSet::pure(), false);
        let b = TaskRecord::new(2, "b", EffectSet::pure(), false);
        let c = TaskRecord::new(3, "c", EffectSet::pure(), false);
        assert!(!blocked_on(&a, &b));
        *a.blocker.lock() = Some(b.clone());
        *b.blocker.lock() = Some(c.clone());
        assert!(blocked_on(&a, &b));
        assert!(blocked_on(&a, &c));
        assert!(blocked_on(&b, &c));
        assert!(!blocked_on(&c, &a));
    }

    #[test]
    fn spawned_children_add_remove() {
        let parent = TaskRecord::new(1, "p", EffectSet::pure(), false);
        let child = TaskRecord::new(2, "c", EffectSet::pure(), true);
        parent.add_spawned_child(child.clone());
        assert_eq!(parent.spawned_children_snapshot().len(), 1);
        parent.remove_spawned_child(2);
        assert!(parent.spawned_children_snapshot().is_empty());
    }

    #[test]
    fn mark_done_updates_both_views() {
        let t = TaskRecord::new(7, "t", EffectSet::pure(), false);
        assert!(!t.is_done());
        t.mark_done();
        assert!(t.is_done());
        assert_eq!(t.status(), TaskStatus::Done);
    }
}
