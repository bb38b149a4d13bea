//! The wake path (Figures 5.12, 5.13): who rechecks whom once a conflict is
//! gone. A record that cannot be enabled registers on the record in its way
//! ([`push_waiter`]); that record's completion rechecks the waiters it
//! holds, in order, until one of them is enabled or names the record it now
//! waits behind, and hands the rest of the line on to that record instead
//! of re-descending each (`hand_on`). ARCHITECTURE.md, "Wake path", states
//! the property this rests on; `audit.rs` checks it in debug builds.

use super::*;

/// Registers `waiter` on `on`'s waiter list. The list is conceptually a set
/// (Figure 5.12): an effect may be rechecked — and fail — many times while
/// the same conflict persists, and re-registering it each time would let the
/// list grow by a factor per recheck generation, which turns the fine-grained
/// contended case (e.g. the K-Means accumulate pattern) quadratic-or-worse.
///
/// Membership is the waiter's own mark, not a scan: `parked_on` names the
/// list it was last put on, and a mark that names `on` means "on `on`'s list,
/// or in a line taken from it whose taker has not come to this entry yet".
/// Whoever takes a list keeps that true (`recheck_waiters_of`): a record
/// that can still be registered on has the marks that name it cleared before
/// anything is pushed, a finished one may leave them. A mark that names
/// another list only costs a duplicate entry.
///
/// Entries are weak, and entries whose record has been dropped are pruned
/// whenever the list is about to grow: a waiter enabled through another
/// record's recheck has no back-pointer to remove itself from this list, so
/// a strong list on a long-lived effect would accumulate (and keep alive)
/// the records of every short task that ever waited on it.
pub(super) fn push_waiter(on: &EffectRecord, waiter: &Arc<EffectRecord>) {
    count!(WAITER_STEPS, 1);
    if on.uid != 0 && waiter.parked_on.swap(on.uid, Ordering::AcqRel) == on.uid {
        return;
    }
    let mut waiters = on.waiters.lock();
    if waiters.len() == waiters.capacity() {
        waiters.retain(|w| w.strong_count() > 0);
    }
    waiters.push(Arc::downgrade(waiter));
}

impl TreeScheduler {
    pub(super) fn lock_containing_node(&self, e: &Arc<EffectRecord>) -> NodeGuard {
        loop {
            // Records only move up, so one settling at the root is nowhere
            // else; a record in no node yet locks the root to find that out.
            let node = (e.prefix_depth() > 0)
                .then(|| e.node.lock().clone())
                .flatten();
            let guard = node.as_ref().unwrap_or(&self.root).lock_arc();
            if matches!(&*e.node.lock(), Some(n) if Arc::ptr_eq(n, NodeGuard::mutex(&guard))) {
                return guard;
            }
            // The effect is in no node yet (its admission has not got that
            // far) or has just moved up: yield rather than spin so the
            // admitting thread can finish on machines with few cores.
            std::thread::yield_now();
        }
    }

    /// Re-checks a record that could not previously be enabled from the
    /// locked node holding it (Figure 5.12, lines 14–30): it moves down its
    /// path from list to list, hand over hand — lock the child, release the
    /// parent — so a concurrent recheck always finds it, until `check_at`
    /// parks it behind a conflict or it reaches its settle node. Returns the
    /// record `e` now waits behind, `None` once enabled.
    fn descend(
        &self,
        mut guard: NodeGuard,
        e: &Arc<EffectRecord>,
        prio: bool,
    ) -> Option<Arc<EffectRecord>> {
        loop {
            if e.prefix_depth() == guard.depth {
                let blocker = self.settle(&mut guard, e, prio);
                self.hand_over(Some(guard));
                return blocker;
            }
            if let Some(blocker) = self.check_at(&mut guard, e, prio) {
                return Some(blocker);
            }
            remove_effect(&mut guard, e);
            let child_depth = guard.depth + 1;
            let child = guard
                .children
                .entry(e.prefix_path[child_depth])
                .or_insert_with(|| new_node(child_depth));
            let mut child_guard = child.lock_arc();
            add_effect(&mut child_guard, e);
            guard = child_guard;
        }
    }

    /// Re-checks all the effects of a task that could not previously be
    /// enabled (Figure 5.12, lines 1–13).
    pub(super) fn recheck_task(&self, task: &Arc<TaskRecord>) {
        let _serial = self.recheck_lock.lock();
        if task.is_done() || task.sched.lock().status >= TaskStatus::Enabled {
            return;
        }
        task.sched.lock().rechecking = true;
        for e in task.tree_records() {
            let guard = self.lock_containing_node(e);
            if !e.enabled.load(Ordering::Acquire) {
                self.descend(guard, e, true);
                if task.sched.lock().status >= TaskStatus::Enabled {
                    break;
                }
            }
        }
        task.sched.lock().rechecking = false;
    }

    /// Re-checks the waiters recorded on `e` after the conflict that made
    /// them wait has been resolved (used by task completion and spawned-child
    /// completion): in order, and only until one of them says whom the rest
    /// of the line waits for now.
    pub(super) fn recheck_waiters_of(&self, e: &Arc<EffectRecord>) {
        let mut line: Vec<Weak<EffectRecord>> = std::mem::take(&mut *e.waiters.lock());
        if line.is_empty() {
            return;
        }
        // A finished record is never registered on again. A parent whose
        // child finished is, at once, by the head of this very line: no mark
        // may go on saying "on `e`'s list" of the list just taken.
        let over = e.task.upgrade().map_or(true, |t| t.is_done());
        if !over {
            for waiter in line.iter().filter_map(Weak::upgrade) {
                let mark = &waiter.parked_on;
                let _ = mark.compare_exchange(e.uid, 0, Ordering::AcqRel, Ordering::Relaxed);
            }
        }
        let mut at = 0;
        while at < line.len() {
            let next = self.recheck_waiter(&line[at]);
            at += 1;
            if let Some(next) = next.filter(|_| at < line.len()) {
                self.hand_on(e, over, &next, &mut line, at);
            }
        }
    }

    /// Re-checks one waiter from the node it is parked at. Returns the
    /// record the waiters behind it most likely conflict with too: the
    /// waiter itself once enabled, else the record it parked behind.
    fn recheck_waiter(&self, waiter: &Weak<EffectRecord>) -> Option<Arc<EffectRecord>> {
        // Records of completed-and-dropped waiters simply vanish here.
        let waiter = waiter.upgrade()?;
        let waiter_task = waiter.task.upgrade()?;
        let status = waiter_task.status();
        if status == TaskStatus::Done {
            return None;
        }
        count!(WAKE_LOCKS, 1);
        let guard = self.lock_containing_node(&waiter);
        if waiter.enabled.load(Ordering::Acquire) {
            return None;
        }
        self.rechecks.fetch_add(1, Ordering::Relaxed);
        let prio = status == TaskStatus::Prioritized;
        let blocker = self.descend(guard, &waiter, prio);
        // Rechecking the single effect was not sufficient when a
        // prioritized task is still not enabled (some of its other
        // effects may have been disabled), or when the waiter is now
        // parked behind a task that is itself still waiting: nobody
        // may ever await either, and two such tasks can each hold
        // the effect the other waits for. Recheck the whole task,
        // which may take effects from tasks that are not enabled.
        let blocker_waits = (blocker.as_ref())
            .and_then(|b| b.task.upgrade())
            .is_some_and(|t| t.status() < TaskStatus::Enabled);
        if blocker_waits || (prio && waiter_task.status() == TaskStatus::Prioritized) {
            self.recheck_task(&waiter_task);
        }
        Some(blocker.unwrap_or(waiter))
    }

    /// Moves the waiters from `line[at]` on that conflict with `to` onto its
    /// list without a recheck of their own — no node lock, list scan and
    /// re-registration each — up to the first that does not, which is the
    /// next to be rechecked.
    ///
    /// Sound because of what a registration promises (ARCHITECTURE.md,
    /// "Wake path"): the record registered on is linked, enabled and
    /// conflicting, and it is one whose *task* is `Enabled` — it will run,
    /// finish and take its list — whenever the waiter was not rechecked
    /// itself. So `to`'s node is locked for the pushes (its completion
    /// unlinks it under that lock before it takes the list: linked now
    /// means the pushes are seen), and a `to` whose task still waits gets
    /// nothing: behind it a waiter needs the whole-task fallback of its own
    /// recheck.
    fn hand_on(
        &self,
        from: &EffectRecord,
        from_over: bool,
        to: &Arc<EffectRecord>,
        line: &mut Vec<Weak<EffectRecord>>,
        at: usize,
    ) {
        let enabled = |t: &Arc<TaskRecord>| t.status() == TaskStatus::Enabled;
        let Some(to_task) = to.task.upgrade().filter(enabled) else {
            return;
        };
        // A writer of the very region `from` was on conflicts with whatever
        // conflicted with `from`, unless it is blocked on the waiter's task
        // (effect transfer): the whole line goes over in one piece, its
        // marks untouched — they name `from`, which is harmless only once
        // `from` can never be registered on again.
        let whole = to.write && to.rpl == from.rpl && from_over && to_task.blocker.lock().is_none();
        let next = line[at].upgrade();
        if !whole && next.is_some_and(|w| !self.conflicts(to, &w)) {
            return;
        }
        count!(WAKE_LOCKS, 1);
        let guard = self.lock_containing_node(to);
        if linked_at(&guard, to).is_none() {
            return;
        }
        if whole {
            count!(WAITER_STEPS, 1);
            let rest = line.split_off(at);
            let mut waiters = to.waiters.lock();
            if waiters.is_empty() {
                *waiters = rest;
            } else {
                waiters.extend(rest);
            }
        } else {
            let mut end = at;
            while let Some(waiter) = line.get(end) {
                match waiter.upgrade() {
                    Some(w) if self.conflicts(to, &w) => push_waiter(to, &w),
                    Some(_) => break,
                    None => {} // completed and dropped: it just leaves the line
                }
                end += 1;
            }
            line.drain(at..end);
        }
        debug_assert!(
            to_task.status() >= TaskStatus::Enabled,
            "waiters handed on to record {:#x} of a task that still waits",
            to.uid
        );
        drop(guard);
    }
}
