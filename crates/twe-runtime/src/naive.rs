//! The naive single-queue scheduler (§3.4.2, §5.2.2).
//!
//! All tasks created with `executeLater` — running and waiting alike — live
//! in one queue protected by one global lock. A task may be enabled only if
//! its effects conflict with no task ahead of it in the queue (so conflicting
//! tasks generally run in enqueue order); a task that a running task blocks
//! on is *prioritized* and then only has to be isolated from tasks that are
//! already enabled, not from earlier waiting tasks. This is the scheduler the
//! PPoPP 2013 evaluation used; its single lock and O(n) scans are exactly the
//! scalability bottleneck the tree scheduler of chapter 5 removes.
//!
//! # Interference-indexed wakeups
//!
//! The historical discipline re-ran the enablement test over *every* queued
//! waiter after each completion, which turns a deep open-loop backlog into a
//! quadratic grind: n completions × O(n) rescans. The default constructor
//! ([`NaiveScheduler::new`]) instead maintains a **waiter index** keyed by
//! the (depth-1, depth-2) anchor pairs of each task's effect-set summary
//! (see `twe_effects::EffectSet::anchors`), plus a bucket for tasks whose
//! sets carry a root-level wildcard. An event (completion, submission,
//! prioritization) consults only the buckets its own anchors hit — so it
//! visits genuinely-interfering waiters, not the whole queue — while the
//! decision procedure itself (`NaiveScheduler::can_enable` in spirit)
//! is unchanged and debug-asserted against on every sampled evaluation.
//!
//! **Bucket soundness.** Two effect sets can only interfere if (a) one of
//! them contains a root-level wildcard effect (`*`, `Root:[?]`), or (b) some
//! effect pair with a **write on at least one side** has *matching* anchor
//! pairs — equal pairs, or a below-anchor wildcard sentinel (`A:*`/`A:[?]`,
//! encoded as `(A, ROOT)`) on either side of a shared depth-1 group
//! (read/read pairs never interfere, whatever their anchors). Case (a) is
//! the wildcard bucket (and a wildcard-carrying event falls back to the
//! full scan). Case (b) splits by which side writes, so the index keeps two
//! bucket families — every task under all its anchor pairs, and again under
//! its *write* pairs only — and a probe for an event consults the
//! all-anchors family under the event's write pairs (pairs where the event
//! writes) and the write family under all the event's pairs (pairs where
//! the other side writes); within a family a pair reaches the exact
//! bucket, the group's sentinel bucket, and — when the probing pair *is*
//! the sentinel — the whole depth-1 group. A waiter found in none of the
//! consulted buckets therefore cannot interfere with the event's effects at
//! all, so its enablement cannot have changed and skipping it is exact, not
//! approximate — and a read-mostly workload probes small writer buckets
//! instead of its whole read population. (The consult may still return
//! *non*-conflicting tasks — same-anchor distinct-key pairs,
//! transfer-excused pairs — which the unchanged conflict test then
//! rejects.)
//!
//! [`NaiveScheduler::new_full_scan`] keeps the historical full-rescan
//! discipline alive as a differential-testing and benchmarking baseline.

use crate::scheduler::{tasks_conflict, Scheduler, SchedulerDiagnostics};
use crate::task::{TaskRecord, TaskStatus};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use twe_effects::{EffectSet, RplId};

/// Callback used to hand an enabled task to the execution substrate.
pub type EnableFn = Box<dyn Fn(Arc<TaskRecord>) + Send + Sync>;

/// One family of anchor buckets: a depth-1 anchor id maps to that group's
/// buckets, keyed by the depth-2 half of the pair; the [`RplId::ROOT`] key
/// holds the group's below-anchor wildcard sentinels (`A:*` / `A:[?]`
/// shapes — they may relate to anything in the group).
#[derive(Default)]
struct AnchorFamily {
    groups: HashMap<RplId, HashMap<RplId, Vec<u64>>>,
}

impl AnchorFamily {
    fn insert(&mut self, pairs: &[(RplId, RplId)], id: u64) {
        for &(a1, a2) in pairs {
            self.groups
                .entry(a1)
                .or_default()
                .entry(a2)
                .or_default()
                .push(id);
        }
    }

    fn remove(&mut self, pairs: &[(RplId, RplId)], id: u64) {
        fn drop_id(bucket: &mut Vec<u64>, id: u64) {
            if let Some(p) = bucket.iter().position(|&x| x == id) {
                bucket.swap_remove(p);
            }
        }
        for &(a1, a2) in pairs {
            if let Some(group) = self.groups.get_mut(&a1) {
                if let Some(bucket) = group.get_mut(&a2) {
                    drop_id(bucket, id);
                    if bucket.is_empty() {
                        group.remove(&a2);
                    }
                }
                if group.is_empty() {
                    self.groups.remove(&a1);
                }
            }
        }
    }

    /// Appends every id the buckets reachable from `pairs` hold: the exact
    /// pair's bucket, the group's sentinel bucket, and the whole depth-1
    /// group when the probing pair is itself the sentinel.
    fn candidates_into(&self, pairs: &[(RplId, RplId)], out: &mut Vec<u64>) {
        for &(a1, a2) in pairs {
            let Some(group) = self.groups.get(&a1) else {
                continue;
            };
            if a2 == RplId::ROOT {
                // The probing pair is the below-anchor sentinel (for the
                // `ROOT` group this is also the exact `(ROOT, ROOT)`
                // bucket): anything in the group may match it.
                for bucket in group.values() {
                    out.extend_from_slice(bucket);
                }
            } else {
                if let Some(bucket) = group.get(&a2) {
                    out.extend_from_slice(bucket);
                }
                if let Some(bucket) = group.get(&RplId::ROOT) {
                    out.extend_from_slice(bucket);
                }
            }
        }
    }
}

/// The interference index: queued task ids bucketed by the (depth-1,
/// depth-2) anchor pairs of their effect-set summaries, in **two
/// families** — `all` keyed by every anchor pair of the set
/// ([`EffectSet::anchors`]) and `write` keyed by the write effects' pairs
/// only ([`EffectSet::write_anchors`]).
///
/// Two families because interference needs a write on at least one side
/// (read/read pairs never conflict): a probe for "who can interfere with
/// effects E" consults the `all` family under E's *write* anchors (pairs
/// where E writes) and the `write` family under *all* of E's anchors
/// (pairs where the other side writes). A read-dominated workload thus
/// probes mostly small writer buckets instead of enumerating every
/// same-anchor reader — without the split, a popular region's bucket
/// holds the whole read population and every probe degenerates to a
/// group-wide scan.
///
/// `wildcard` holds tasks whose sets carry a root-level wildcard effect
/// and hence may relate to anything at all. A task with several anchor
/// pairs appears in several buckets; a pure task (no anchors, no
/// wildcard) appears in none — nothing can interfere with it and it can
/// block no one.
#[derive(Default)]
struct WaiterIndex {
    all: AnchorFamily,
    write: AnchorFamily,
    wildcard: Vec<u64>,
}

impl WaiterIndex {
    fn insert(&mut self, task: &Arc<TaskRecord>) {
        if task.effects.has_root_wildcard() {
            self.wildcard.push(task.id);
        }
        self.all.insert(task.effects.anchors(), task.id);
        self.write.insert(task.effects.write_anchors(), task.id);
    }

    fn remove(&mut self, task: &Arc<TaskRecord>) {
        if task.effects.has_root_wildcard() {
            if let Some(p) = self.wildcard.iter().position(|&x| x == task.id) {
                self.wildcard.swap_remove(p);
            }
        }
        self.all.remove(task.effects.anchors(), task.id);
        self.write.remove(task.effects.write_anchors(), task.id);
    }

    /// Appends every id that could interfere with `effects`: the `all`
    /// family under `effects`' write anchors, the `write` family under all
    /// of `effects`' anchors, plus the wildcard bucket. May contain
    /// duplicates; callers dedup or tolerate them. Callers handle the
    /// root-wildcard case (`effects.has_root_wildcard()`) themselves —
    /// such a probe relates to every queued task, not just the indexed
    /// buckets.
    fn candidates_into(&self, effects: &EffectSet, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.wildcard);
        let all_pairs = effects.anchors();
        let write_pairs = effects.write_anchors();
        if write_pairs.len() == all_pairs.len() {
            // Every anchor pair is a write pair (write pairs are a subset,
            // so equal length means equal sets): one probe of the `all`
            // family under them covers both directions and skips the
            // duplicate listing the two probes would otherwise produce.
            self.all.candidates_into(all_pairs, out);
        } else {
            self.all.candidates_into(write_pairs, out);
            self.write.candidates_into(all_pairs, out);
        }
    }
}

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
    /// The interference index; `None` selects the full-scan discipline.
    index: Option<WaiterIndex>,
    /// Total enablement-scan width (tasks examined across all enable
    /// rounds) — [`SchedulerDiagnostics::scan_work`].
    scan_work: u64,
    /// Queued tasks re-evaluated by wake rounds
    /// ([`SchedulerDiagnostics::wake_rechecks`]).
    rechecks: u64,
}

impl QueueInner {
    fn push(&mut self, task: Arc<TaskRecord>) -> usize {
        let pos = self.slots.len();
        self.pos_of.insert(task.id, pos);
        if let Some(index) = self.index.as_mut() {
            index.insert(&task);
        }
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
            if let Some(index) = self.index.as_mut() {
                index.remove(task);
            }
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

    /// The slot indices of every queued task whose enablement the
    /// completion (or submission) of a task with `effects` could have
    /// changed. Indexed mode consults the interference buckets (or every
    /// live slot for a root-wildcard event); full-scan mode walks the whole
    /// queue filtered by the effect-set summaries — the historical
    /// discipline.
    fn wake_candidate_slots(&self, effects: &EffectSet) -> Vec<usize> {
        match &self.index {
            Some(index) if !effects.has_root_wildcard() => {
                let mut ids = Vec::new();
                index.candidates_into(effects, &mut ids);
                ids.iter()
                    .filter_map(|id| self.pos_of.get(id).copied())
                    .collect()
            }
            _ => self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(pos, slot)| {
                    let task = slot.as_ref()?;
                    (!effects.certainly_non_interfering(&task.effects)).then_some(pos)
                })
                .collect(),
        }
    }
}

/// The single-queue, single-lock scheduler.
pub struct NaiveScheduler {
    inner: Mutex<QueueInner>,
    enable: EnableFn,
}

impl NaiveScheduler {
    /// Creates a naive scheduler with interference-indexed wakeups (the
    /// default) that enables tasks through `enable`.
    pub fn new(enable: EnableFn) -> Self {
        NaiveScheduler {
            inner: Mutex::new(QueueInner {
                slots: Vec::new(),
                pos_of: HashMap::new(),
                live: 0,
                index: Some(WaiterIndex::default()),
                scan_work: 0,
                rechecks: 0,
            }),
            enable,
        }
    }

    /// Creates a naive scheduler with the historical **full-scan** wakeup
    /// discipline: every event re-runs the enablement test over the whole
    /// queue (filtered only by the effect-set summaries). Scheduling
    /// decisions are identical to [`NaiveScheduler::new`] — the
    /// `naive_indexed_equals_full_scan` differential proptest drains both
    /// in lockstep — but each event costs O(queue). Kept as the
    /// differential-testing and benchmarking baseline.
    pub fn new_full_scan(enable: EnableFn) -> Self {
        NaiveScheduler {
            inner: Mutex::new(QueueInner {
                slots: Vec::new(),
                pos_of: HashMap::new(),
                live: 0,
                index: None,
                scan_work: 0,
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
    /// This full scan is the **correctness oracle**: the indexed fast path
    /// must agree with it and debug-asserts that it does.
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

    /// The indexed counterpart of [`NaiveScheduler::can_enable`]: the same
    /// rule, evaluated over only the tasks the interference index proves
    /// could conflict with `task` (see the module docs for why a task in no
    /// consulted bucket is exactly irrelevant, not just probably). An event
    /// whose own set carries a root-level wildcard falls back to the full
    /// scan. Debug builds re-run the oracle and assert agreement — always
    /// on small queues, sampled on deep ones so debug-profile saturation
    /// tests stay subquadratic.
    fn can_enable_indexed(
        inner: &QueueInner,
        index: &WaiterIndex,
        scratch: &mut Vec<u64>,
        work: &mut u64,
        pos: usize,
        task: &Arc<TaskRecord>,
    ) -> bool {
        if task.effects.has_root_wildcard() {
            *work += inner.slots.len() as u64;
            return Self::can_enable(&inner.slots, pos, task);
        }
        scratch.clear();
        index.candidates_into(&task.effects, scratch);
        *work += scratch.len() as u64;
        let prioritized = task.status() == TaskStatus::Prioritized;
        let mut decision = true;
        for &id in scratch.iter() {
            if id == task.id {
                continue;
            }
            let Some(&other_pos) = inner.pos_of.get(&id) else {
                continue;
            };
            let Some(other) = inner.slots[other_pos].as_ref() else {
                continue;
            };
            let other_status = other.status();
            if other_status == TaskStatus::Done {
                continue;
            }
            let other_enabled = other_status == TaskStatus::Enabled;
            let relevant = if prioritized {
                other_enabled
            } else {
                other_enabled || other_pos < pos
            };
            if relevant && tasks_conflict(other, task) {
                decision = false;
                break;
            }
        }
        // Debug-time tie to the canonical rule. One-directional on
        // purpose: a worker may flip another task to `Done` (outside this
        // lock) between our status read and the oracle's re-read, and
        // `Done` only *removes* conflicts — so `decision == false` with a
        // now-true oracle is a benign race, while `decision == true` with
        // a false oracle would mean the index missed a real conflict (the
        // soundness violation this assert exists to catch; no concurrent
        // transition can manufacture a conflict under this lock). The
        // race-free exact tie lives in the single-threaded differential
        // test `naive_indexed_equals_full_scan`. Sampled by task id on
        // deep queues so the debug-profile saturation stress is not
        // itself quadratic.
        if cfg!(debug_assertions) {
            let sampled = if inner.live <= 512 {
                true
            } else if inner.live <= 16_384 {
                task.id % 64 == 0
            } else {
                task.id % 1_024 == 0
            };
            if sampled && decision {
                debug_assert!(
                    Self::can_enable(&inner.slots, pos, task),
                    "indexed wakeup enabled task {} that can_enable rejects \
                     (the waiter index missed a conflict)",
                    task.id
                );
            }
        }
        decision
    }

    /// Evaluates the task at slot `pos`, marking it `Enabled` at once if it
    /// passes (still under the caller's lock) and returning it so the
    /// enable callback can run outside the lock. `scratch` and `work` are
    /// the caller's per-round candidate buffer and scan-width tally.
    fn evaluate(
        inner: &QueueInner,
        pos: usize,
        scratch: &mut Vec<u64>,
        work: &mut u64,
    ) -> Option<Arc<TaskRecord>> {
        let task = inner.slots.get(pos)?.clone()?;
        let status = task.status();
        if status != TaskStatus::Waiting && status != TaskStatus::Prioritized {
            return None;
        }
        let ok = match &inner.index {
            Some(index) => Self::can_enable_indexed(inner, index, scratch, work, pos, &task),
            None => {
                *work += inner.slots.len() as u64;
                Self::can_enable(&inner.slots, pos, &task)
            }
        };
        ok.then(|| {
            task.sched.lock().status = TaskStatus::Enabled;
            task
        })
    }

    /// One enable round: evaluates the candidate slots in queue order and
    /// returns the tasks that passed. Marking each at once matters for
    /// *prioritized* candidates, which are checked against enabled tasks
    /// only: two prioritized waiters on one region must not both pass
    /// because neither was enabled when the round began. Enabling a task
    /// never *unblocks* further waiting tasks (it only adds constraints),
    /// so a single round suffices — the historical argument, unchanged.
    fn run_enable_round(
        inner: &mut QueueInner,
        mut candidates: Vec<usize>,
    ) -> Vec<Arc<TaskRecord>> {
        candidates.sort_unstable();
        candidates.dedup();
        inner.rechecks += candidates.len() as u64;
        let (mut ready, mut scratch, mut work) = (Vec::new(), Vec::new(), 0u64);
        for pos in candidates {
            ready.extend(Self::evaluate(inner, pos, &mut scratch, &mut work));
        }
        inner.scan_work += work;
        ready
    }
    /// Sequential submission under one lock hold. A new task only adds
    /// constraints, so the sole candidate for enabling is the task itself;
    /// each member is pushed and evaluated before the next is pushed, so its
    /// bucket probe meets only the tasks ahead of it (pushing the whole
    /// batch first made member i probe all n members of its bucket, not the
    /// i ahead).
    fn admit(&self, tasks: impl IntoIterator<Item = Arc<TaskRecord>>) {
        let to_enable = {
            let mut inner = self.inner.lock();
            let (mut ready, mut scratch, mut work) = (Vec::new(), Vec::new(), 0u64);
            for task in tasks {
                let pos = inner.push(task);
                ready.extend(Self::evaluate(&inner, pos, &mut scratch, &mut work));
            }
            inner.scan_work += work;
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
        // covered by its declared set, so the index consult is conservative
        // for them too): indexed mode visits the finished task's buckets,
        // full-scan mode walks the queue under the per-set summary filter.
        // Either candidate set may include non-conflicting tasks; the
        // enablement rule still decides correctness.
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
        // covered by the parent's declared effects, so the parent's buckets
        // (or summary filter) reach every waiter the child could have
        // blocked.
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
            scan_work: inner.scan_work,
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

    fn collecting_full_scan() -> (Arc<Mutex<Vec<u64>>>, NaiveScheduler) {
        let enabled: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let e2 = enabled.clone();
        let sched = NaiveScheduler::new_full_scan(Box::new(move |t| e2.lock().push(t.id)));
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
        for (enabled, sched) in [collecting_scheduler(), collecting_full_scan()] {
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
    }

    #[test]
    fn fifo_order_among_conflicting_waiters() {
        for (enabled, sched) in [collecting_scheduler(), collecting_full_scan()] {
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
        for (enabled, sched) in [collecting_scheduler(), collecting_full_scan()] {
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
    }

    #[test]
    fn on_await_breaks_blocker_two_cycle_deterministically() {
        // a and b block on each other (possible when two external threads
        // each await the other's target): the chain walk must terminate at
        // the first revisited id instead of spinning a million hops, and
        // both chain members must still be prioritized and rechecked.
        for (enabled, sched) in [collecting_scheduler(), collecting_full_scan()] {
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
            // The cycle walk visited a then b then stopped; both are now
            // prioritized — and since neither conflicts with the *enabled*
            // gate task's… they do conflict (X and Y), so they stay parked
            // but prioritized rather than waiting.
            assert_eq!(a.status(), TaskStatus::Prioritized);
            assert_eq!(b.status(), TaskStatus::Prioritized);
            gate.mark_done();
            sched.task_done(&gate);
            assert_eq!(&*enabled.lock(), &[1, 2, 3]);
        }
    }

    #[test]
    fn prioritized_waiters_on_one_region_are_enabled_one_at_a_time() {
        // Both waiters are prioritized (each is awaited, as a nested
        // `execute` does), so each only has to be isolated from *enabled*
        // tasks — including the other one, once it wins the round.
        for (enabled, sched) in [collecting_scheduler(), collecting_full_scan()] {
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
        // produce the same enabled set and the same waiter statuses — in
        // both wakeup modes.
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
        for full_scan in [false, true] {
            let make = if full_scan {
                collecting_full_scan
            } else {
                collecting_scheduler
            };
            let (seq_enabled, seq_sched) = make();
            let seq_tasks = build(0);
            for t in &seq_tasks {
                seq_sched.submit(t.clone());
            }
            let (batch_enabled, batch_sched) = make();
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
    }

    #[test]
    fn batch_members_wait_behind_relevant_existing_tasks() {
        // The candidate consult must not skip an existing task that
        // genuinely conflicts with one member.
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
    fn wildcard_waiters_sit_in_the_wildcard_bucket() {
        // A root-level wildcard waiter must be woken by *any* completion,
        // even one whose anchors share no bucket with it.
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
    fn sentinel_pairs_wake_the_whole_depth1_group() {
        // `A:*` (sentinel pair) completion must wake a waiter anchored at a
        // concrete depth-2 pair under A, and vice versa.
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

    #[test]
    fn indexed_scan_work_stays_near_linear_on_disjoint_backlog() {
        // 2k pairwise-scoped tasks across 256 keys: indexed wake work must
        // stay within a small constant of the task count, where the full
        // scan's grows quadratically.
        let n = 2_048u64;
        let keys = 256u64;
        let build = |sched: &NaiveScheduler| {
            let tasks: Vec<_> = (0..n)
                .map(|i| task(i, &format!("writes K:[{}]", i % keys)))
                .collect();
            sched.submit_batch(tasks.clone());
            for t in &tasks {
                t.mark_done();
                sched.task_done(t);
            }
        };
        let (_, indexed) = collecting_scheduler();
        build(&indexed);
        let (_, full) = collecting_full_scan();
        build(&full);
        let per_event_indexed = indexed.diagnostics().scan_work / n;
        let per_event_full = full.diagnostics().scan_work / n;
        assert!(
            per_event_indexed <= 4 * (n / keys),
            "indexed per-event scan width {per_event_indexed} should be near the \
             per-key chain depth {}",
            n / keys
        );
        assert!(
            per_event_full >= n / 4,
            "full-scan per-event width {per_event_full} should be near the queue depth {n}"
        );
    }
}
