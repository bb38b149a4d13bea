//! The naive single-queue scheduler (§3.4.2, §5.2.2).
//!
//! All tasks created with `executeLater` — running and waiting alike — live
//! in one queue protected by one global lock. A task may be enabled only if
//! its effects conflict with no task ahead of it in the queue (so conflicting
//! tasks generally run in enqueue order); a task that a running task blocks
//! on is *prioritized* and then only has to be isolated from tasks that are
//! already enabled, not from earlier waiting tasks. This is the scheduler the
//! PPoPP 2013 evaluation used and the baseline the tree scheduler of
//! chapter 5 is measured against: its single lock and O(n) scans are exactly
//! the scalability bottleneck the tree removes.
//!
//! When a task finishes, every queued task whose effects interfere with the
//! finished task's (the §2.2 pairwise test) is evaluated again, in queue
//! order; a submission evaluates only the new task, since it only adds
//! constraints.

use crate::scheduler::{tasks_conflict, EnableFn, Scheduler, SchedulerDiagnostics};
use crate::task::{TaskRecord, TaskStatus};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use twe_effects::EffectSet;

/// The queue state behind the scheduler's single lock.
///
/// Tasks live in insertion-ordered `slots`; a completed task leaves a
/// tombstone (`None`) so the positions of everything behind it — which the
/// enablement rule's "ahead of" comparisons read — stay stable without an
/// O(queue) shift per completion, and the vector is compacted once it is
/// mostly dead (amortized O(1) per task).
struct QueueInner {
    slots: Vec<Option<Arc<TaskRecord>>>,
    /// task id → slot index of every live (non-tombstoned) task.
    pos_of: HashMap<u64, usize>,
    /// Live task count (`slots` minus tombstones).
    live: usize,
    /// Queued tasks re-evaluated by wake rounds
    /// ([`SchedulerDiagnostics::wake_rechecks`]).
    rechecks: u64,
}

impl QueueInner {
    fn push(&mut self, task: Arc<TaskRecord>) -> usize {
        let pos = self.slots.len();
        self.pos_of.insert(task.id, pos);
        self.slots.push(Some(task));
        self.live += 1;
        pos
    }

    /// Tombstones `task` if it is queued (spawned tasks never are — their
    /// completion still triggers a wake round, just no removal).
    fn tombstone(&mut self, task: &Arc<TaskRecord>) {
        if let Some(pos) = self.pos_of.remove(&task.id) {
            self.slots[pos] = None;
            self.live -= 1;
        }
    }

    /// Compacts the slot vector once more than half of it is tombstones.
    /// Relative order (and hence the FIFO rule) is preserved; only the
    /// absolute indices in `pos_of` are rebuilt.
    fn maybe_compact(&mut self) {
        if self.slots.len() < 64 || self.live * 2 >= self.slots.len() {
            return;
        }
        self.slots.retain(|s| s.is_some());
        self.pos_of.clear();
        for (pos, slot) in self.slots.iter().enumerate() {
            let task = slot.as_ref().expect("tombstones retained away");
            self.pos_of.insert(task.id, pos);
        }
    }

    /// The slot indices, in queue order, of every queued task whose
    /// enablement the completion of a task with `effects` could have
    /// changed: those whose effects interfere with `effects`.
    fn wake_candidate_slots(&self, effects: &EffectSet) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(pos, slot)| {
                let task = slot.as_ref()?;
                effects.interferes(&task.effects).then_some(pos)
            })
            .collect()
    }
}

/// The single-queue, single-lock scheduler.
pub struct NaiveScheduler {
    inner: Mutex<QueueInner>,
    enable: EnableFn,
}

impl NaiveScheduler {
    /// Creates a naive scheduler that enables tasks through `enable`.
    pub fn new(enable: EnableFn) -> Self {
        NaiveScheduler {
            inner: Mutex::new(QueueInner {
                slots: Vec::new(),
                pos_of: HashMap::new(),
                live: 0,
                rechecks: 0,
            }),
            enable,
        }
    }

    /// Can `task` (at slot `pos`) be enabled?
    ///
    /// A waiting task must be isolated from every task ahead of it (enabled
    /// or waiting), so conflicting tasks run in FIFO order; a prioritized
    /// task only has to be isolated from tasks that are already enabled.
    fn can_enable(slots: &[Option<Arc<TaskRecord>>], pos: usize, task: &Arc<TaskRecord>) -> bool {
        let prioritized = task.status() == TaskStatus::Prioritized;
        for (i, slot) in slots.iter().enumerate() {
            let Some(other) = slot else {
                continue;
            };
            if other.id == task.id {
                continue;
            }
            let other_status = other.status();
            if other_status == TaskStatus::Done {
                continue;
            }
            let other_enabled = other_status == TaskStatus::Enabled;
            let ahead = i < pos;
            let relevant = if prioritized {
                other_enabled
            } else {
                other_enabled || ahead
            };
            if relevant && tasks_conflict(other, task) {
                return false;
            }
        }
        true
    }

    /// Evaluates the task at slot `pos`, marking it `Enabled` at once if it
    /// passes (still under the caller's lock) and returning it so the
    /// enable callback can run outside the lock.
    fn evaluate(inner: &QueueInner, pos: usize) -> Option<Arc<TaskRecord>> {
        let task = inner.slots.get(pos)?.as_ref()?;
        let status = task.status();
        if status != TaskStatus::Waiting && status != TaskStatus::Prioritized {
            return None;
        }
        Self::can_enable(&inner.slots, pos, task).then(|| {
            task.sched.lock().status = TaskStatus::Enabled;
            task.clone()
        })
    }

    /// One enable round: evaluates the candidate slots in queue order and
    /// returns the tasks that passed. Marking each at once matters for
    /// *prioritized* candidates, which are checked against enabled tasks
    /// only: two prioritized waiters on one region must not both pass
    /// because neither was enabled when the round began. Enabling a task
    /// never *unblocks* further waiting tasks (it only adds constraints),
    /// so a single round suffices.
    fn run_enable_round(
        inner: &mut QueueInner,
        mut candidates: Vec<usize>,
    ) -> Vec<Arc<TaskRecord>> {
        candidates.sort_unstable();
        inner.rechecks += candidates.len() as u64;
        candidates
            .into_iter()
            .filter_map(|pos| Self::evaluate(inner, pos))
            .collect()
    }

    /// Sequential submission under one lock hold. A new task only adds
    /// constraints, so the sole candidate for enabling is the task itself;
    /// each member is pushed and evaluated before the next is pushed, which
    /// is exactly submitting them one by one.
    fn admit(&self, tasks: impl IntoIterator<Item = Arc<TaskRecord>>) {
        let to_enable = {
            let mut inner = self.inner.lock();
            let mut ready = Vec::new();
            for task in tasks {
                let pos = inner.push(task);
                ready.extend(Self::evaluate(&inner, pos));
            }
            ready
        };
        for task in to_enable {
            (self.enable)(task);
        }
    }
}

impl Scheduler for NaiveScheduler {
    fn submit(&self, task: Arc<TaskRecord>) {
        self.admit([task]);
    }

    fn submit_batch(&self, tasks: Vec<Arc<TaskRecord>>) {
        self.admit(tasks);
    }

    fn on_await(&self, _blocked: Option<&Arc<TaskRecord>>, target: &Arc<TaskRecord>) {
        // Prioritize the awaited task and everything it is transitively
        // blocked on, then recheck exactly that chain: the caller has
        // already recorded itself as the blocker, so both status changes
        // (waiting → prioritized) and newly applicable effect transfer are
        // confined to the chain's tasks. A blocker **cycle** (possible when
        // external threads await each other's targets) is broken
        // deterministically at the first revisited id — the `visited` set
        // makes the walk O(chain), where the historical discipline spun a
        // million hops before bailing and then paid O(chain) per queued
        // task for a `Vec::contains` candidate check.
        let mut chain = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut current = Some(target.clone());
        while let Some(task) = current {
            if !visited.insert(task.id) {
                break;
            }
            {
                let mut sched = task.sched.lock();
                if sched.status == TaskStatus::Waiting {
                    sched.status = TaskStatus::Prioritized;
                }
            }
            chain.push(task.id);
            current = task.blocker.lock().clone();
        }
        let to_enable = {
            let mut inner = self.inner.lock();
            let candidates: Vec<usize> = chain
                .iter()
                .filter_map(|id| inner.pos_of.get(id).copied())
                .collect();
            Self::run_enable_round(&mut inner, candidates)
        };
        for task in to_enable {
            (self.enable)(task);
        }
    }

    fn task_done(&self, task: &Arc<TaskRecord>) {
        // Only waiters whose effects interfere with the finished task's can
        // have been blocked by it (its spawned children's effects are
        // covered by its declared set, and inclusion is sound, so the filter
        // reaches every waiter they blocked too). The enablement rule
        // decides.
        let to_enable = {
            let mut inner = self.inner.lock();
            inner.tombstone(task);
            let candidates = inner.wake_candidate_slots(&task.effects);
            let ready = Self::run_enable_round(&mut inner, candidates);
            inner.maybe_compact();
            ready
        };
        for task in to_enable {
            (self.enable)(task);
        }
    }

    fn spawned_child_done(&self, parent: &Arc<TaskRecord>) {
        // Same covering argument as in `task_done`: a child's effects are
        // covered by the parent's declared effects, so filtering by the
        // parent's reaches every waiter the child could have blocked.
        let to_enable = {
            let mut inner = self.inner.lock();
            let candidates = inner.wake_candidate_slots(&parent.effects);
            Self::run_enable_round(&mut inner, candidates)
        };
        for task in to_enable {
            (self.enable)(task);
        }
    }

    fn diagnostics(&self) -> SchedulerDiagnostics {
        let inner = self.inner.lock();
        SchedulerDiagnostics {
            tree_nodes: 0,
            recorded_effects: inner.live,
            wake_rechecks: inner.rechecks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use twe_effects::EffectSet;

    fn task(id: u64, effects: &str) -> Arc<TaskRecord> {
        TaskRecord::new(id, format!("t{id}"), EffectSet::parse(effects), false)
    }

    fn collecting_scheduler() -> (Arc<Mutex<Vec<u64>>>, NaiveScheduler) {
        let enabled: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let e2 = enabled.clone();
        let sched = NaiveScheduler::new(Box::new(move |t| e2.lock().push(t.id)));
        (enabled, sched)
    }

    #[test]
    fn non_conflicting_tasks_enable_immediately() {
        let (enabled, sched) = collecting_scheduler();
        sched.submit(task(1, "writes A"));
        sched.submit(task(2, "writes B"));
        assert_eq!(&*enabled.lock(), &[1, 2]);
    }

    #[test]
    fn conflicting_task_waits_until_predecessor_done() {
        let (enabled, sched) = collecting_scheduler();
        let a = task(1, "writes A");
        let b = task(2, "writes A");
        sched.submit(a.clone());
        sched.submit(b.clone());
        assert_eq!(&*enabled.lock(), &[1]);
        assert_eq!(b.status(), TaskStatus::Waiting);
        a.mark_done();
        sched.task_done(&a);
        assert_eq!(&*enabled.lock(), &[1, 2]);
    }

    #[test]
    fn fifo_order_among_conflicting_waiters() {
        let (enabled, sched) = collecting_scheduler();
        let a = task(1, "writes A");
        let b = task(2, "writes A");
        let c = task(3, "writes A");
        sched.submit(a.clone());
        sched.submit(b.clone());
        sched.submit(c.clone());
        assert_eq!(&*enabled.lock(), &[1]);
        a.mark_done();
        sched.task_done(&a);
        // Only b should run; c still conflicts with the waiting/enabled b.
        assert_eq!(&*enabled.lock(), &[1, 2]);
        b.mark_done();
        sched.task_done(&b);
        assert_eq!(&*enabled.lock(), &[1, 2, 3]);
    }

    #[test]
    fn await_prioritizes_blocked_on_task_with_effect_transfer() {
        let (enabled, sched) = collecting_scheduler();
        let a = task(1, "writes X");
        let b = task(2, "writes X");
        sched.submit(a.clone());
        sched.submit(b.clone());
        assert_eq!(&*enabled.lock(), &[1]);
        // a (running) now blocks on b: record the blocker, then notify.
        *a.blocker.lock() = Some(b.clone());
        sched.on_await(Some(&a), &b);
        assert_eq!(&*enabled.lock(), &[1, 2]);
        assert_eq!(b.status(), TaskStatus::Enabled);
    }

    #[test]
    fn prioritized_task_skips_ahead_of_waiting_tasks() {
        let (enabled, sched) = collecting_scheduler();
        let a = task(1, "writes X");
        let w = task(2, "writes X, writes Y"); // waiting behind a
        let b = task(3, "writes Y");
        sched.submit(a.clone());
        sched.submit(w.clone());
        sched.submit(b.clone());
        // b conflicts with the earlier waiting task w, so it waits too.
        assert_eq!(&*enabled.lock(), &[1]);
        // a blocks on b -> b becomes prioritized and only needs
        // isolation from *enabled* tasks, so it can jump ahead of w.
        *a.blocker.lock() = Some(b.clone());
        sched.on_await(Some(&a), &b);
        assert_eq!(&*enabled.lock(), &[1, 3]);
    }

    #[test]
    fn on_await_breaks_blocker_two_cycle_deterministically() {
        // a and b block on each other (possible when two external threads
        // each await the other's target): the chain walk must terminate at
        // the first revisited id instead of spinning a million hops, and
        // both chain members must still be prioritized and rechecked.
        let (enabled, sched) = collecting_scheduler();
        let gate = task(1, "writes X, writes Y");
        let a = task(2, "writes X");
        let b = task(3, "writes Y");
        sched.submit(gate.clone());
        sched.submit(a.clone());
        sched.submit(b.clone());
        assert_eq!(&*enabled.lock(), &[1]);
        *a.blocker.lock() = Some(b.clone());
        *b.blocker.lock() = Some(a.clone());
        sched.on_await(None, &a);
        // The walk visited a, then b, then stopped. Both are prioritized,
        // but a conflicts with the enabled gate on X and b on Y, so both
        // stay parked until the gate completes.
        assert_eq!(a.status(), TaskStatus::Prioritized);
        assert_eq!(b.status(), TaskStatus::Prioritized);
        gate.mark_done();
        sched.task_done(&gate);
        assert_eq!(&*enabled.lock(), &[1, 2, 3]);
    }

    #[test]
    fn prioritized_waiters_on_one_region_are_enabled_one_at_a_time() {
        // Both waiters are prioritized (each is awaited, as a nested
        // `execute` does), so each only has to be isolated from *enabled*
        // tasks — including the other one, once it wins the round.
        let (enabled, sched) = collecting_scheduler();
        let t: Vec<_> = (1..=3).map(|i| task(i, "writes C:[0]")).collect();
        for x in &t {
            sched.submit(x.clone());
            sched.on_await(None, x);
        }
        t[0].mark_done();
        sched.task_done(&t[0]);
        assert_eq!(&*enabled.lock(), &[1, 2]);
        assert_eq!(t[2].status(), TaskStatus::Prioritized);
        t[1].mark_done();
        sched.task_done(&t[1]);
        assert_eq!(&*enabled.lock(), &[1, 2, 3]);
    }

    #[test]
    fn on_await_walks_long_blocker_chains_once() {
        // A 200-deep blocker chain: every member is prioritized in one
        // O(chain) walk (the historical discipline's `Vec::contains` made
        // this O(chain²) per recheck).
        let (_enabled, sched) = collecting_scheduler();
        let tasks: Vec<_> = (0..200)
            .map(|i| task(i + 10, &format!("writes C{i}")))
            .collect();
        let gate = task(1, {
            // One gate conflicting with every chain member keeps them all
            // waiting so the prioritization is observable.
            &(0..200)
                .map(|i| format!("writes C{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        });
        sched.submit(gate.clone());
        for t in &tasks {
            sched.submit(t.clone());
        }
        for w in tasks.windows(2) {
            *w[0].blocker.lock() = Some(w[1].clone());
        }
        sched.on_await(None, &tasks[0]);
        for t in &tasks {
            assert_eq!(t.status(), TaskStatus::Prioritized, "task {}", t.id);
        }
    }

    #[test]
    fn submit_batch_matches_sequential_submission_exactly() {
        // The same task shapes pushed one-by-one and as one batch must
        // produce the same enabled set and the same waiter statuses.
        let shapes = [
            "writes A",
            "writes A",
            "writes B, reads A",
            "reads C",
            "writes C:*",
            "reads C",
        ];
        let build = |base: u64| -> Vec<Arc<TaskRecord>> {
            shapes
                .iter()
                .enumerate()
                .map(|(i, s)| task(base + i as u64, s))
                .collect()
        };
        let (seq_enabled, seq_sched) = collecting_scheduler();
        let seq_tasks = build(0);
        for t in &seq_tasks {
            seq_sched.submit(t.clone());
        }
        let (batch_enabled, batch_sched) = collecting_scheduler();
        let batch_tasks = build(0);
        batch_sched.submit_batch(batch_tasks.clone());
        assert_eq!(&*seq_enabled.lock(), &*batch_enabled.lock());
        for (s, b) in seq_tasks.iter().zip(&batch_tasks) {
            assert_eq!(s.status(), b.status(), "task {}", s.id);
        }
        // Draining preserves the equivalence.
        for (s, b) in seq_tasks.iter().zip(&batch_tasks) {
            if s.status() == TaskStatus::Enabled {
                s.mark_done();
                seq_sched.task_done(s);
                b.mark_done();
                batch_sched.task_done(b);
            }
        }
        assert_eq!(&*seq_enabled.lock(), &*batch_enabled.lock());
    }

    #[test]
    fn batch_members_wait_behind_relevant_existing_tasks() {
        // A batch member must wait behind an existing task it conflicts
        // with, while its non-conflicting sibling is enabled.
        let (enabled, sched) = collecting_scheduler();
        let existing = task(1, "writes Shared");
        sched.submit(existing.clone());
        let hit = task(2, "reads Shared");
        let miss = task(3, "writes Elsewhere");
        sched.submit_batch(vec![hit.clone(), miss.clone()]);
        assert_eq!(&*enabled.lock(), &[1, 3]);
        assert_eq!(hit.status(), TaskStatus::Waiting);
        existing.mark_done();
        sched.task_done(&existing);
        assert_eq!(&*enabled.lock(), &[1, 3, 2]);
    }

    #[test]
    fn empty_and_singleton_batches_take_the_plain_submit_path() {
        let (enabled, sched) = collecting_scheduler();
        sched.submit_batch(Vec::new());
        assert!(enabled.lock().is_empty());
        let t = task(7, "writes A");
        sched.submit_batch(vec![t.clone()]);
        assert_eq!(&*enabled.lock(), &[7]);
        assert_eq!(t.status(), TaskStatus::Enabled);
    }

    #[test]
    fn callback_runs_for_every_enabled_task() {
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        let sched = NaiveScheduler::new(Box::new(move |_| {
            c2.fetch_add(1, Ordering::Relaxed);
        }));
        for i in 0..20 {
            sched.submit(task(i, &format!("writes R{i}")));
        }
        assert_eq!(count.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn any_completion_below_the_root_wakes_a_root_wildcard_waiter() {
        // A root-level wildcard waiter must be woken by a completion on any
        // region below the root.
        let (enabled, sched) = collecting_scheduler();
        let writer = task(1, "writes Data:Key");
        let sweep = task(2, "reads *");
        sched.submit(writer.clone());
        sched.submit(sweep.clone());
        assert_eq!(&*enabled.lock(), &[1]);
        assert_eq!(sweep.status(), TaskStatus::Waiting);
        writer.mark_done();
        sched.task_done(&writer);
        assert_eq!(&*enabled.lock(), &[1, 2]);
    }

    #[test]
    fn a_wildcard_below_a_region_and_a_point_under_it_wake_each_other() {
        // The completion of `A:*` must wake a waiter on a concrete region
        // under A, and the completion of `A:[3]` a waiting `A:[?]`.
        let (enabled, sched) = collecting_scheduler();
        let sweep = task(1, "writes A:*");
        let point = task(2, "writes A:B:C");
        sched.submit(sweep.clone());
        sched.submit(point.clone());
        assert_eq!(&*enabled.lock(), &[1]);
        sweep.mark_done();
        sched.task_done(&sweep);
        assert_eq!(&*enabled.lock(), &[1, 2]);

        let (enabled, sched) = collecting_scheduler();
        let point = task(1, "writes A:[3]");
        let sweep = task(2, "writes A:[?]");
        sched.submit(point.clone());
        sched.submit(sweep.clone());
        assert_eq!(&*enabled.lock(), &[1]);
        point.mark_done();
        sched.task_done(&point);
        assert_eq!(&*enabled.lock(), &[1, 2]);
    }

    #[test]
    fn a_completion_rechecks_only_the_waiters_it_interferes_with() {
        // Everything shares the regions `T` and `T:[1]`; only the keys
        // below tell the tasks apart.
        let (enabled, sched) = collecting_scheduler();
        let keys: Vec<_> = (1..=64)
            .map(|i| task(i, &format!("writes T:[1]:K:[{i}]")))
            .collect();
        for t in &keys {
            sched.submit(t.clone());
        }
        let holder = task(100, "writes T:[1]:K:[0]");
        let waiter = task(101, "writes T:[1]:K:[0]");
        sched.submit(holder.clone());
        sched.submit(waiter.clone());
        assert_eq!(enabled.lock().len(), 65);
        assert_eq!(waiter.status(), TaskStatus::Waiting);

        let before = sched.diagnostics().wake_rechecks;
        keys[0].mark_done();
        sched.task_done(&keys[0]);
        assert_eq!(sched.diagnostics().wake_rechecks, before);

        holder.mark_done();
        sched.task_done(&holder);
        assert_eq!(sched.diagnostics().wake_rechecks, before + 1);
        assert_eq!(waiter.status(), TaskStatus::Enabled);
    }

    #[test]
    fn tombstoned_queue_compacts_and_stays_fifo() {
        // Push enough conflicting pairs that completions leave many
        // tombstones; the compaction must preserve FIFO order among the
        // still-waiting tasks.
        let (enabled, sched) = collecting_scheduler();
        let first: Vec<_> = (0..100)
            .map(|i| task(i, &format!("writes K:[{}]", i)))
            .collect();
        let second: Vec<_> = (0..100)
            .map(|i| task(100 + i, &format!("writes K:[{}]", i)))
            .collect();
        for t in first.iter().chain(&second) {
            sched.submit(t.clone());
        }
        assert_eq!(enabled.lock().len(), 100, "one runner per key");
        for t in &first {
            t.mark_done();
            sched.task_done(t);
        }
        assert_eq!(enabled.lock().len(), 200, "each completion wakes its key");
        assert_eq!(sched.diagnostics().recorded_effects, 100);
        for t in &second {
            t.mark_done();
            sched.task_done(t);
        }
        assert_eq!(sched.diagnostics().recorded_effects, 0);
    }
}
