//! The tree-based scheduler for tasks with hierarchical effects (chapter 5).
//!
//! The scheduler maintains a *scheduling tree* mirroring the RPL tree: each
//! node corresponds to a wildcard-free RPL and holds the effects whose RPLs
//! have that node's path as their maximal wildcard-free prefix (or that were
//! stopped higher up by a conflict). The two properties that make it scale:
//!
//! 1. an effect can only conflict with effects at the *same* node, at an
//!    *ancestor*, or (when it contains a wildcard) at a *descendant* — sibling
//!    subtrees never need to be compared;
//! 2. scheduling operations lock individual tree nodes hand-over-hand, so
//!    operations on disjoint subtrees proceed concurrently.
//!
//! The implementation follows Figures 5.3–5.14 closely: `insert`, `checkAt`,
//! `checkBelow`, `conflicts`, `blockedOn`, `enable`/`tryDisable`, `await`,
//! `recheckTask`/`recheckEffect`, `lockContainingNode`, and `taskDone`.
//!
//! # Subtree flags (summary-directed descent)
//!
//! Each node stores, next to every child pointer, two flags over that
//! child's **whole subtree**: `any` (some record below) and `writes` (some
//! write record below). The flags are *monotone stale supersets*: they are
//! set under the parent's lock whenever a record descends into the child
//! (batch/single insert, recheck move-down), records leaving the subtree do
//! not clear them, and only a full `check_below` walk of the child — which
//! learns the subtree's true content — or a prune rewrites them fresh.
//! Because every mutation that puts a record into a subtree happens while
//! the parent is locked, a reader holding the parent lock always sees a
//! superset of the subtree's records, so a *clear* flag is definitive and
//! lets the conflict walks skip whole subtrees without locking them:
//!
//! a **read** effect skips any child whose `writes` is clear (no write
//! record anywhere below — reads never conflict with reads), a **write**
//! effect any child whose `any` is clear (no record below).
//!
//! # Batch admission
//!
//! [`TreeScheduler::submit_batch`] admits a whole fan-out of tasks under a
//! single root descent: records are grouped per child as the descent forks,
//! so a shared region prefix (e.g. `Data` in a `writes Data:[i]` fan-out) is
//! locked and checked once per batch instead of once per task. At each node,
//! records that settle there are processed *before* records descending
//! further, which makes the batch observably equivalent to sequential
//! submission (see `insert`). A task of one record — and any record a batch
//! leaves alone in its group — needs no staging (`descend`): it walks hand
//! over hand down its own path, allocating nothing per level. A task of
//! several is a batch of one task: its admission has to be atomic against a
//! concurrent submitter (see `submit`).
//!
//! # Pruning
//!
//! Unlinking the node a finished task left vacant means locking its whole
//! path from the root, so the worker does not do it: `task_done` unlinks
//! the record under its one node lock and pushes the vacated path onto a
//! scheduler-level list. The **admitting** thread drains the list, at the
//! end of the admission that finds `PRUNE_BATCH` (64) paths pending: nodes are
//! allocated and freed by one thread, a node traffic came back to in the
//! meantime is found occupied and left alone, and a drain locks the nodes
//! its paths share once per chunk of `PRUNE_BATCH`, letting the root go in
//! between. The garbage is bounded — fewer than `PRUNE_BATCH` vacant paths
//! survive an admission and a completion can only vacate a node that was
//! live, so the tree never exceeds its peak of live nodes plus one batch
//! (a batch of N nobody follows: N vacant nodes until its last completion).
//! A completion that leaves the scheduler empty flushes a list of
//! `IDLE_PRUNE` or more itself (nobody may ever submit again), and
//! `region_retired` and `diagnostics` flush it, so "a drained
//! scheduler is a bare root" and "a recycled region id never meets its
//! previous era's node" stay observable. The list is a plain mutex, never
//! held with a node lock.
//!
//! # The root
//!
//! The root is an ordinary depth-0 node and every admission starts there.
//! Effects that settle at it — `*`, `Root:[?]`, `reads/writes Root` — and
//! descending records stopped by a conflict with one of them are its
//! records; first-level nodes are its children, created on first admission
//! and pruned once vacant like any other node. The exact records
//! (`reads Root`, `writes Root`) are invisible to passers-by: the region
//! `Root` is disjoint from every region below it, so a descending record
//! is checked against the covering class alone (see `NodeInner`) and a
//! `reads Root` fan-out, however wide, costs the admissions beneath it
//! nothing. Lock order everywhere is strictly downward from the root.

use crate::scheduler::{effects_conflict, EnableFn, Scheduler, SchedulerDiagnostics};
use crate::task::{TaskRecord, TaskStatus};
use parking_lot::{ArcMutexGuard, Mutex, RawMutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use twe_effects::idhash::IdHashMap;
use twe_effects::{Effect, EffectKind, Rpl, RplId};

/// One effect of one task, as tracked by the scheduler tree (Figure 5.3).
pub struct EffectRecord {
    /// True for a write effect.
    pub write: bool,
    /// The RPL the effect is on (interned; `Copy`).
    pub rpl: Rpl,
    /// The arena ids of the RPL's wildcard-free prefix truncated to every
    /// depth (`prefix_path[d]` is the ancestor at depth `d`); resolved once
    /// at record creation so tree descent never walks elements.
    pub prefix_path: &'static [RplId],
    /// The owning task (weak: the task owns its records).
    pub task: Weak<TaskRecord>,
    /// Names the record among all a scheduler ever sees: the owning task's
    /// id (unique per scheduler, as `conflicts` assumes) and the effect's
    /// position in its set; 0 where the two do not fit. What a waiter
    /// remembers of the record it is registered on — never an address,
    /// which a later record may get again.
    uid: u64,
    /// `uid` of the record whose waiter list this record was last put on
    /// and has not been taken off since (0: none): see [`push_waiter`].
    parked_on: AtomicU64,
    /// The tree node currently holding this effect.
    pub node: Mutex<Option<NodeRef>>,
    /// Back-index: this record's slot in its class list at `node`, which is
    /// what makes unlinking O(1). Read and written only under that node's
    /// lock (hence `Relaxed`).
    slot: AtomicUsize,
    /// Whether the effect is currently enabled. Flipped only under the lock
    /// of the node holding the record, which counts its enabled records.
    pub enabled: AtomicBool,
    /// Effects that are waiting because they conflict with this one.
    ///
    /// Entries are weak: a waiter that completes (or whose task record is
    /// dropped) while still registered here must not be kept alive by this
    /// list — with strong references, every record registered on a
    /// long-lived effect leaked until that effect finished.
    pub waiters: Mutex<Vec<Weak<EffectRecord>>>,
}

impl EffectRecord {
    fn new(task: &Arc<TaskRecord>, index: usize, effect: &Effect) -> Arc<Self> {
        let fits = task.id < 1 << 48 && index < u16::MAX as usize;
        Arc::new(EffectRecord {
            write: effect.is_write(),
            rpl: effect.rpl,
            prefix_path: effect.rpl.prefix_id_path(),
            task: Arc::downgrade(task),
            uid: if fits {
                task.id << 16 | (index as u64 + 1)
            } else {
                0
            },
            parked_on: AtomicU64::new(0),
            node: Mutex::new(None),
            slot: AtomicUsize::new(0),
            enabled: AtomicBool::new(false),
            waiters: Mutex::new(Vec::new()),
        })
    }

    /// Depth of the RPL's maximal wildcard-free prefix: the depth of the
    /// tree node this effect settles at.
    fn prefix_depth(&self) -> usize {
        self.prefix_path.len() - 1
    }

    /// The effect as a plain [`Effect`] value.
    pub fn as_effect(&self) -> Effect {
        Effect {
            kind: if self.write {
                EffectKind::Write
            } else {
                EffectKind::Read
            },
            rpl: self.rpl,
        }
    }

    /// Is the effect currently enabled (and its task not yet done)?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire) && self.task.upgrade().is_some_and(|t| !t.is_done())
    }
}

impl std::fmt::Debug for EffectRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} (enabled={})",
            if self.write { "writes" } else { "reads" },
            self.rpl,
            self.enabled.load(Ordering::Relaxed)
        )
    }
}

/// The per-effect records of one task ([`TaskRecord::tree_effects`]): almost
/// every task has exactly one, which then needs no vector.
pub enum TreeRecords {
    /// The record of a one-effect task.
    One([Arc<EffectRecord>; 1]),
    /// The records of any other task, in effect order.
    Many(Vec<Arc<EffectRecord>>),
}

impl std::ops::Deref for TreeRecords {
    type Target = [Arc<EffectRecord>];

    fn deref(&self) -> &Self::Target {
        match self {
            TreeRecords::One(one) => one,
            TreeRecords::Many(many) => many,
        }
    }
}

/// A child pointer plus the lazily-rewritten summary of the child's whole
/// subtree (module docs, "Subtree flags"). Stored *in the parent* so skip
/// decisions never have to lock the child. Both flags are monotone stale
/// supersets between rewrites: only a full walk or a prune may clear them.
struct ChildEntry {
    node: NodeRef,
    /// Some record may be in the subtree.
    any: bool,
    /// Some write record may be in the subtree.
    writes: bool,
}

impl ChildEntry {
    fn new(depth: usize) -> Self {
        ChildEntry {
            node: new_node(depth),
            any: false,
            writes: false,
        }
    }

    /// Records that a record is descending into (or settling in) this
    /// subtree. Must be called while the parent node is locked, *before*
    /// that lock is released, so readers of the entry always see a superset
    /// of the subtree's content.
    fn absorb(&mut self, e: &EffectRecord) {
        self.any = true;
        self.writes |= e.write;
    }
}

/// Class of a record whose region *is* its node's region: wildcard-free and
/// settled at its own depth (`reads Root` at the root).
const EXACT: usize = 0;
/// Class of every other record at a node: a wildcard settler (`P:*`,
/// `P:[?]`) or a deeper record parked here by a conflict.
const COVERING: usize = 1;

/// One class of a node's records, in arrival order. Unlinking leaves a
/// tombstone (`None`) instead of shifting the tail: a record leaves in O(1)
/// through its back-index ([`EffectRecord::slot`]), a walk that unlinks
/// mid-scan keeps its cursor, and the arrival order the first-conflict rule
/// depends on is never disturbed. A push squeezes the tombstones out once
/// they outnumber the live records (amortized O(1) per unlink).
#[derive(Default)]
struct RecordList {
    /// `(arrival stamp, record)`. Stamps are per node and increase across
    /// both classes, so a two-class walk merges them back into arrival order.
    slots: Vec<Option<(u64, Arc<EffectRecord>)>>,
    live: usize,
    /// Live write records: a read effect skips a class without any.
    writes: usize,
    /// Live records whose `enabled` flag is set, reads and writes apart
    /// (indexed by `write`): `check_at` looks for the ones its record can
    /// conflict with and at nothing once it has seen them all, however many
    /// parked records the class holds.
    enabled: [usize; 2],
}

impl RecordList {
    /// Enabled records here that a read (`write` false) or a write can
    /// conflict with: the enabled writes, and for a write the reads too.
    fn enabled_against(&self, write: bool) -> usize {
        self.enabled[1] + if write { self.enabled[0] } else { 0 }
    }
}

/// The contents of one scheduler-tree node (Figure 5.3).
///
/// Each node corresponds to a wildcard-free RPL, so children are keyed by
/// the child's interned [`RplId`] — one hash over a `u32` instead of an
/// element compare — and descent indexes the effect's precomputed prefix id
/// path.
///
/// The records are held in two classes, `EXACT` and `COVERING`, because
/// the RPL algebra separates them: distinct wildcard-free RPLs are disjoint,
/// so a record whose settle node lies *below* this one (passing through, or
/// parked here) never overlaps an exact record and is checked against the
/// covering class alone — no work at all under a `reads Root` fan-out,
/// however wide. A record settling here meets both classes, minus any class
/// without a write when it is itself a read; per-child subtree flags (see
/// `ChildEntry`) extend that write-count idea below the node.
#[derive(Default)]
pub struct NodeInner {
    depth: usize,
    /// The node's records by class, indexed by [`EXACT`] / [`COVERING`].
    records: [RecordList; 2],
    /// Arrival stamp of the newest record.
    stamp: u64,
    children: IdHashMap<RplId, ChildEntry>,
}

#[cfg(test)]
thread_local! {
    /// What the cost-shape tests count, per thread: records `check_at`
    /// examined, slots unlinking touched (compaction included).
    pub(crate) static EXAMINED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static UNLINK_STEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// ... and for the wake path: node locks it took, waiter-list entries
    /// it pushed, tested or moved (a splice is one step).
    static WAKE_LOCKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static WAITER_STEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Adds `n` to a cost-shape counter (tests only).
macro_rules! count {
    ($counter:ident, $n:expr) => {
        #[cfg(test)]
        $counter.with(|c| c.set(c.get() + $n));
    };
}

mod audit;
mod wake;
use wake::push_waiter;

impl NodeInner {
    fn class_of(&self, e: &EffectRecord) -> usize {
        if e.rpl.has_wildcard() || e.prefix_depth() != self.depth {
            COVERING
        } else {
            EXACT
        }
    }

    fn push_record(&mut self, e: Arc<EffectRecord>) {
        let class = self.class_of(&e);
        self.stamp += 1;
        let list = &mut self.records[class];
        if list.slots.len() >= 2 * list.live + 8 {
            #[cfg(test)]
            UNLINK_STEPS.with(|n| n.set(n.get() + list.slots.len()));
            list.slots.retain(Option::is_some);
            for (i, (_, r)) in list.slots.iter().flatten().enumerate() {
                r.slot.store(i, Ordering::Relaxed);
            }
        }
        e.slot.store(list.slots.len(), Ordering::Relaxed);
        list.live += 1;
        list.writes += usize::from(e.write);
        list.enabled[usize::from(e.write)] += usize::from(e.enabled.load(Ordering::Relaxed));
        list.slots.push(Some((self.stamp, e)));
    }

    /// Unlinks the live record in slot `i` of `class`.
    fn unlink(&mut self, class: usize, i: usize) -> Arc<EffectRecord> {
        #[cfg(test)]
        UNLINK_STEPS.with(|n| n.set(n.get() + 1));
        let list = &mut self.records[class];
        let (_, e) = list.slots[i].take().expect("unlink of a live slot");
        list.live -= 1;
        list.writes -= usize::from(e.write);
        list.enabled[usize::from(e.write)] -= usize::from(e.enabled.load(Ordering::Relaxed));
        debug_assert!(list.enabled[0] + list.enabled[1] <= list.live);
        if list.live == 0 {
            list.slots.clear();
        }
        e
    }

    /// Cursors for a conflict walk on behalf of `e`. A class it cannot
    /// conflict with starts exhausted: the exact class when `e` settles
    /// below this node (it denotes only deeper regions, disjoint from the
    /// node's own — on a descent that usually leaves no record at all),
    /// any class without a write when `e` is a read, and, for a walk that
    /// looks at `enabled_only`, any class without an enabled record `e`
    /// could conflict with: a key's parked writers cost the one that is
    /// rechecked nothing, and neither do the readers enabled before it cost
    /// the next reader anything.
    fn scan_for(&self, e: &EffectRecord, enabled_only: bool) -> [usize; 2] {
        let passing = e.prefix_depth() > self.depth;
        [EXACT, COVERING].map(|class| {
            let list = &self.records[class];
            if (class == EXACT && passing)
                || (!e.write && list.writes == 0)
                || (enabled_only && list.enabled_against(e.write) == 0)
            {
                usize::MAX
            } else {
                0
            }
        })
    }

    /// The live record in `slot` of `class`.
    fn record(&self, class: usize, slot: usize) -> &Arc<EffectRecord> {
        let slot = self.records[class].slots[slot].as_ref();
        &slot.expect("a live slot").1
    }

    /// The next live record in arrival order across both classes, as
    /// (class, slot). Unlinking it mid-walk leaves `cur` valid.
    fn next_record(&self, cur: &mut [usize; 2]) -> Option<(usize, usize)> {
        let mut heads = [None, None];
        for class in [EXACT, COVERING] {
            let slots = &self.records[class].slots;
            while let Some(slot) = slots.get(cur[class]) {
                if slot.is_some() {
                    heads[class] = slot.as_ref();
                    break;
                }
                cur[class] += 1;
            }
        }
        let class = match heads {
            [Some((exact, _)), Some((covering, _))] if covering < exact => COVERING,
            [Some(_), _] => EXACT,
            [None, Some(_)] => COVERING,
            [None, None] => return None,
        };
        cur[class] += 1;
        Some((class, cur[class] - 1))
    }

    fn live_records(&self) -> impl Iterator<Item = &Arc<EffectRecord>> {
        let slots = self.records.iter().flat_map(|list| &list.slots);
        slots.flatten().map(|(_, e)| e)
    }

    fn record_count(&self) -> usize {
        self.records[EXACT].live + self.records[COVERING].live
    }

    /// No records and no children: nothing a walk could find here.
    fn is_vacant(&self) -> bool {
        self.record_count() == 0 && self.children.is_empty()
    }

    /// The node's true subtree summary as far as this node can know it:
    /// exact for its own records, the (superset) child entries for
    /// everything deeper. Used to rewrite this node's entry in its parent
    /// after a full walk. Returns `(any, writes)`.
    fn fresh_summary(&self) -> (bool, bool) {
        let children = || self.children.values();
        let any = self.record_count() > 0 || children().any(|c| c.any);
        let writes = self.records.iter().any(|l| l.writes > 0) || children().any(|c| c.writes);
        (any, writes)
    }
}

/// A reference-counted, individually locked tree node.
pub type NodeRef = Arc<Mutex<NodeInner>>;
type NodeGuard = ArcMutexGuard<RawMutex, NodeInner>;

fn new_node(depth: usize) -> NodeRef {
    Arc::new(Mutex::new(NodeInner {
        depth,
        ..NodeInner::default()
    }))
}

fn add_effect(guard: &mut NodeGuard, e: &Arc<EffectRecord>) {
    guard.push_record(e.clone());
    *e.node.lock() = Some(NodeGuard::mutex(guard).clone());
}

/// Where `e` is linked in the locked node's lists, if it still is.
fn linked_at(guard: &NodeGuard, e: &Arc<EffectRecord>) -> Option<(usize, usize)> {
    let (class, i) = (guard.class_of(e), e.slot.load(Ordering::Relaxed));
    let slot = guard.records[class].slots.get(i);
    matches!(slot, Some(Some((_, x))) if Arc::ptr_eq(x, e)).then_some((class, i))
}

fn remove_effect(guard: &mut NodeGuard, e: &Arc<EffectRecord>) {
    if let Some((class, i)) = linked_at(guard, e) {
        guard.unlink(class, i);
    }
}

/// The tree-based scheduler.
pub struct TreeScheduler {
    /// The depth-0 node (module docs, "The root").
    root: NodeRef,
    /// Serialises whole-task rechecks (Figure 5.12): only one task at a time
    /// may have its effects rechecked, preventing two conflicting tasks from
    /// repeatedly disabling each other's effects without progress.
    recheck_lock: Mutex<()>,
    enable: EnableFn,
    /// Tasks submitted and not yet done (spawned tasks bypass the scheduler
    /// and are not counted): the completion that takes it to zero may prune
    /// (module docs, "Pruning").
    queued: AtomicUsize,
    /// Paths of the nodes finished tasks left vacant, waiting for the next
    /// drain (module docs, "Pruning").
    vacated: Mutex<Vec<&'static [RplId]>>,
    /// Waiters rechecked so far ([`SchedulerDiagnostics::wake_rechecks`]).
    rechecks: AtomicU64,
}

/// Pending vacated paths at which an admission flushes the list, and the
/// most one hold of the root prunes.
const PRUNE_BATCH: usize = 64;
/// ... at which the completion that leaves the scheduler empty does: steady
/// traffic keeps the list below this, so its workers never prune.
const IDLE_PRUNE: usize = 2 * PRUNE_BATCH;
/// What a debug build says when a conflict walk meets a record whose task
/// is gone: nothing would ever unlink it or recheck its waiters.
const OWNERSHIP: &str = "a submitted task was dropped before `task_done`: \
    the `Scheduler` ownership contract keeps it alive until then";

impl TreeScheduler {
    /// Creates a tree scheduler that enables tasks through `enable`.
    pub fn new(enable: EnableFn) -> Self {
        TreeScheduler {
            root: new_node(0),
            recheck_lock: Mutex::new(()),
            enable,
            queued: AtomicUsize::new(0),
            vacated: Mutex::new(Vec::new()),
            rechecks: AtomicU64::new(0),
        }
    }

    /// Sums `f` over every node of the tree, one node lock at a time: a racy
    /// snapshot under concurrent traffic, exact when the tree is quiescent.
    fn sum_nodes(node: &NodeRef, f: &impl Fn(&NodeInner) -> usize) -> usize {
        let guard = node.lock();
        let children: Vec<NodeRef> = guard.children.values().map(|c| c.node.clone()).collect();
        let here = f(&guard);
        drop(guard);
        here + children
            .iter()
            .map(|c| Self::sum_nodes(c, f))
            .sum::<usize>()
    }

    /// Builds and registers the per-effect tree records of a task being
    /// submitted, setting its disabled-effect count (shared by the single
    /// and batched admission paths). A pure task has none, needs no tree
    /// insertion and is enabled on the spot.
    fn register_records<'t>(&self, task: &'t Arc<TaskRecord>) -> &'t [Arc<EffectRecord>] {
        let records = match task.effects.effects() {
            [one] => TreeRecords::One([EffectRecord::new(task, 0, one)]),
            many => TreeRecords::Many(
                (many.iter().enumerate())
                    .map(|(i, e)| EffectRecord::new(task, i, e))
                    .collect(),
            ),
        };
        let run_now = {
            let mut s = task.sched.lock();
            s.disabled_effects = records.len();
            let pure = records.is_empty() && s.status < TaskStatus::Enabled;
            if pure {
                s.status = TaskStatus::Enabled;
            }
            pure
        };
        let _ = task.tree_effects.set(records);
        if run_now {
            (self.enable)(task.clone());
        }
        task.tree_records()
    }

    // ------------------------------------------------------------------
    // Enabling / disabling effects (Figure 5.10)
    // ------------------------------------------------------------------

    /// Enables `e`, a record of the locked node, and its task with it if
    /// that was its last disabled effect.
    fn enable_effect(&self, guard: &mut NodeGuard, e: &Arc<EffectRecord>) {
        if e.enabled.swap(true, Ordering::AcqRel) {
            return; // already enabled
        }
        let class = guard.class_of(e);
        guard.records[class].enabled[usize::from(e.write)] += 1;
        let Some(task) = e.task.upgrade() else { return };
        let submit = {
            let mut s = task.sched.lock();
            s.disabled_effects = s.disabled_effects.saturating_sub(1);
            let submit = s.disabled_effects == 0 && s.status < TaskStatus::Enabled;
            if submit {
                s.status = TaskStatus::Enabled;
            }
            submit
        };
        if submit {
            (self.enable)(task);
        }
    }

    /// Disables the record in slot `i` of `class` of the locked node if its
    /// task has not been enabled yet.
    fn try_disable(&self, guard: &mut NodeGuard, class: usize, i: usize) -> bool {
        let e = guard.record(class, i);
        let Some(task) = e.task.upgrade() else {
            return false;
        };
        let mut s = task.sched.lock();
        let can_disable = s.disabled_effects > 0 && !s.rechecking && s.status < TaskStatus::Enabled;
        if can_disable && e.enabled.swap(false, Ordering::AcqRel) {
            s.disabled_effects += 1;
            drop(s);
            let write = usize::from(e.write);
            guard.records[class].enabled[write] -= 1;
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Conflict checking (Figures 5.6, 5.7, 5.8)
    // ------------------------------------------------------------------

    /// Do the two effect records conflict (Figure 5.8)? `existing` is the
    /// record already in the tree, `new` the one being inserted or rechecked.
    /// Kind and region reject most pairs (read–read, disjoint) and cost no
    /// reference count; only a pair they leave looks at the tasks, through
    /// [`effects_conflict`].
    fn conflicts(&self, existing: &EffectRecord, new: &EffectRecord) -> bool {
        if (!existing.write && !new.write) || existing.rpl.disjoint(&new.rpl) {
            return false;
        }
        let (Some(existing_task), Some(new_task)) = (existing.task.upgrade(), new.task.upgrade())
        else {
            return false;
        };
        if existing_task.id == new_task.id || existing_task.is_done() {
            return false;
        }
        effects_conflict(
            &existing_task,
            &existing.as_effect(),
            &new_task,
            &new.as_effect(),
        )
    }

    /// Checks `e` against the enabled effects at the locked node (Figure 5.6).
    ///
    /// Like every conflict walk below, returns the record `e` now waits
    /// behind, `None` when nothing blocks it.
    fn check_at(
        &self,
        guard: &mut NodeGuard,
        e: &Arc<EffectRecord>,
        prio: bool,
    ) -> Option<Arc<EffectRecord>> {
        let mut cur = guard.scan_for(e, true);
        // Enabled records `e` could conflict with still ahead in the classes
        // being walked: the walk ends with the last of them, not with the
        // parked ones behind it.
        let mut ahead: usize = ([EXACT, COVERING].iter())
            .filter(|&&class| cur[class] == 0)
            .map(|&class| guard.records[class].enabled_against(e.write))
            .sum();
        while ahead > 0 {
            let Some((class, i)) = guard.next_record(&mut cur) else {
                break;
            };
            count!(EXAMINED, 1);
            let existing = guard.record(class, i);
            if Arc::ptr_eq(existing, e) {
                continue;
            }
            let enabled = existing.enabled.load(Ordering::Acquire);
            ahead -= usize::from(enabled && (e.write || existing.write));
            debug_assert!(existing.task.strong_count() > 0, "{OWNERSHIP}");
            if enabled && self.conflicts(existing, e) {
                if prio && self.try_disable(guard, class, i) {
                    push_waiter(e, guard.record(class, i));
                } else {
                    let existing = guard.record(class, i).clone();
                    push_waiter(&existing, e);
                    return Some(existing);
                }
            }
        }
        None
    }

    /// Checks `e` against the effects in the subtree below the locked
    /// `parent` guard (Figure 5.7). Conflicting effects that are not
    /// enabled (or can be disabled) are moved up to `ne`, the node
    /// containing `e`: `ne_guard`, or `parent_guard` itself when that is
    /// `None` (the top-level call).
    ///
    /// Three refinements over the plain Figure 5.7 walk:
    ///
    /// * **Subtree-flag skips** — the per-child subtree flags (module
    ///   docs) let the walk skip, *without locking the child*, any subtree
    ///   that provably holds nothing the effect can conflict with: a
    ///   write-free subtree for a read effect, an empty one for a write. A
    ///   fully walked child has its stale flags rewritten fresh on the way
    ///   out.
    /// * **Read-only node skip** — for a read effect, nodes holding no write
    ///   records are not scanned (reads never conflict with reads).
    /// * **Empty-leaf pruning** — a visited child left with no records and no
    ///   children is removed from its parent.
    fn check_below(
        &self,
        parent_guard: &mut NodeGuard,
        e: &Arc<EffectRecord>,
        mut ne_guard: Option<&mut NodeGuard>,
        prio: bool,
    ) -> Option<Arc<EffectRecord>> {
        if !e.rpl.has_wildcard() {
            // A wildcard-free RPL is disjoint from every RPL with a longer
            // wildcard-free prefix, so nothing below can conflict.
            return None;
        }
        // Walk the children in interned-id order, not map iteration order:
        // the walk stops at the *first* conflicting enabled record, and
        // which record a waiter parks behind must be reproducible — the
        // differential tests replay one batch through two scheduler
        // instances and compare the waiter graphs step for step.
        let mut keys: Vec<RplId> = parent_guard.children.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let Some(entry) = parent_guard.children.get(&key) else {
                continue;
            };
            // Subtree-flag skips: a clear flag is definitive because the
            // entry is a superset of the subtree's records for as long as
            // the parent lock is held (see `ChildEntry::absorb`).
            if !e.write && !entry.writes {
                // No write record anywhere in the subtree: a read effect
                // cannot conflict with anything down there.
                continue;
            }
            if e.write && !entry.any {
                // No linked record anywhere in the subtree, so nothing for a
                // write walk to conflict with or move up.
                continue;
            }
            let child = entry.node.clone();
            let mut cg = child.lock_arc();
            let blocker = {
                // The guard of `ne`, which receives the records moved up.
                let target: &mut NodeGuard = match ne_guard {
                    Some(ref mut g) => g,
                    None => parent_guard,
                };
                let mut blocker = None;
                let mut cur = cg.scan_for(e, false);
                while let Some((class, i)) = cg.next_record(&mut cur) {
                    let existing = cg.record(class, i);
                    debug_assert!(existing.task.strong_count() > 0, "{OWNERSHIP}");
                    if self.conflicts(existing, e) {
                        if !existing.enabled.load(Ordering::Acquire)
                            || (prio && self.try_disable(&mut cg, class, i))
                        {
                            // Move the (disabled) conflicting effect up to ne
                            // so that rechecking it later starts from a node
                            // where it will encounter `e`.
                            let existing = cg.unlink(class, i);
                            push_waiter(e, &existing);
                            add_effect(target, &existing);
                        } else {
                            let existing = cg.record(class, i).clone();
                            push_waiter(&existing, e);
                            blocker = Some(existing);
                            break;
                        }
                    }
                }
                if blocker.is_none() {
                    blocker = self.check_below(&mut cg, e, Some(target), prio);
                }
                blocker
            };
            if blocker.is_none() {
                // Lazy rebuild: the child was examined without an early
                // conflict exit, so rewrite its stale superset flags with
                // the node's freshest knowledge (exact for its own records,
                // superset entries for everything deeper). This is where
                // the walks clear the flags again.
                let (any, writes) = cg.fresh_summary();
                if let Some(entry) = parent_guard.children.get_mut(&key) {
                    (entry.any, entry.writes) = (any, writes);
                }
            }
            let prune = cg.is_vacant();
            drop(cg);
            if prune {
                // Safe under the parent lock: every descent into a child
                // happens while its parent is held, no record points at an
                // empty node, and the NodeRef itself is refcounted.
                parent_guard.children.remove(&key);
            }
            if blocker.is_some() {
                return blocker;
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Insertion (Figure 5.4)
    // ------------------------------------------------------------------

    /// Checks `e`, a record of the locked node — its settle node, that of
    /// its maximal wildcard-free prefix — against the node and the subtree
    /// below, and enables it if nothing blocks it.
    fn settle(
        &self,
        guard: &mut NodeGuard,
        e: &Arc<EffectRecord>,
        prio: bool,
    ) -> Option<Arc<EffectRecord>> {
        let blocker = self
            .check_at(guard, e, prio)
            .or_else(|| self.check_below(guard, e, None, prio));
        if blocker.is_none() {
            self.enable_effect(guard, e);
        }
        blocker
    }

    /// Walks one record down from the locked node to its settle node, hand
    /// over hand: lock the child, set the child entry's flags for the record
    /// under the parent lock, release the parent. At every
    /// node on the way `check_at` may park the record behind a conflict.
    /// Returns the record `e` now waits behind, `None` once enabled.
    ///
    /// Both the admission of one record (Figure 5.4; `linked` is false: the
    /// record joins only the node it stops at, and nothing is allocated on
    /// the way but a missing child) and the recheck of a record that could
    /// not previously be enabled (Figure 5.12, lines 14–30; `linked` is
    /// true: the record is in the locked node's list and moves from list to
    /// list, so a concurrent recheck always finds it).
    fn descend(
        &self,
        mut guard: NodeGuard,
        e: &Arc<EffectRecord>,
        linked: bool,
        prio: bool,
    ) -> Option<Arc<EffectRecord>> {
        loop {
            if e.prefix_depth() == guard.depth {
                if !linked {
                    add_effect(&mut guard, e);
                }
                return self.settle(&mut guard, e, prio);
            }
            if let Some(blocker) = self.check_at(&mut guard, e, prio) {
                if !linked {
                    add_effect(&mut guard, e); // parked on the way down
                }
                return Some(blocker);
            }
            // No conflict here and not yet at the settle node: one level down.
            if linked {
                remove_effect(&mut guard, e);
            }
            let child_depth = guard.depth + 1;
            let entry = guard
                .children
                .entry(e.prefix_path[child_depth])
                .or_insert_with(|| ChildEntry::new(child_depth));
            entry.absorb(e);
            let mut child_guard = entry.node.lock_arc();
            if linked {
                add_effect(&mut child_guard, e);
            }
            guard = child_guard;
        }
    }

    /// Inserts a group of effect records (possibly from many tasks of one
    /// batch) into the subtree rooted at the locked node; a batch admission
    /// is this call on the root. The slice is this call's scratch space: it
    /// comes back permuted.
    ///
    /// Records that settle **here** are processed before records descending
    /// further: a record that settles (and possibly enables) at this node
    /// must be visible to every deeper batch record's `check_at` on its way
    /// past, exactly as if it had been submitted first — without this
    /// ordering, a batch pairing `writes X:*` (settles at `X`) after
    /// `writes X:Y` (settles below) would let both enable, because each
    /// would run its checks before the other was present anywhere. With
    /// settle-first processing the batch is observably equivalent to
    /// sequential submission: for any conflicting pair, the deeper record
    /// always passes the shallower one's settle node after it was added,
    /// and same-depth pairs see each other in list order. (Within a single
    /// task the order is immaterial — a task never conflicts with itself.)
    fn insert(&self, mut guard: NodeGuard, records: &mut [Arc<EffectRecord>]) {
        let depth = guard.depth;
        for e in records.iter().filter(|e| e.prefix_depth() == depth) {
            add_effect(&mut guard, e);
            self.settle(&mut guard, e, false);
        }
        // The records that pass this node unhindered are compacted to the
        // front of the slice, in order; one a conflict stops parks here.
        let mut passing = 0;
        for i in 0..records.len() {
            let e = &records[i];
            if e.prefix_depth() == depth {
                continue;
            }
            match self.check_at(&mut guard, e, false) {
                Some(_) => add_effect(&mut guard, e),
                None => {
                    records.swap(passing, i);
                    passing += 1;
                }
            }
        }
        // Group them per child in place, no per-level vectors or maps: a
        // stable sort by next path component keeps each child's records in
        // wave order, and children are disjoint subtrees, so the order
        // *between* them decides nothing.
        let mut rest = &mut records[..passing];
        let next = |e: &Arc<EffectRecord>| e.prefix_path[depth + 1];
        rest.sort_by_key(next);
        // Hand-over-hand: set each group's child's subtree flags and lock
        // the child *before this node's lock is
        // released* (the publication invariant the skip rules rely on), then
        // continue in the children one by one.
        let mut locked: Vec<(NodeGuard, usize)> = Vec::new();
        let mut grouped = 0;
        while grouped < rest.len() {
            let key = next(&rest[grouped]);
            let entry = guard
                .children
                .entry(key)
                .or_insert_with(|| ChildEntry::new(depth + 1));
            let start = grouped;
            for e in rest[start..].iter().take_while(|e| next(e) == key) {
                entry.absorb(e);
                grouped += 1;
            }
            locked.push((entry.node.lock_arc(), grouped - start));
        }
        drop(guard);
        for (child_guard, len) in locked {
            let (group, tail) = rest.split_at_mut(len);
            rest = tail;
            // Staging pays only where records still share a prefix: a group
            // of one goes the rest of its way as a single-record descent.
            if let [e] = group {
                self.descend(child_guard, e, false, false);
            } else {
                self.insert(child_guard, group);
            }
        }
    }

    // ------------------------------------------------------------------
    // Admission and pruning
    // ------------------------------------------------------------------

    /// Flushes the vacated paths once `full` of them are pending.
    fn drain_if_full(&self, full: usize) {
        if self.vacated.lock().len() >= full {
            self.flush_vacated();
        }
    }

    /// Prunes the tree along every pending vacated path (module docs,
    /// "Pruning"). Every node on a path that is (or becomes) empty is
    /// unlinked from its parent and a surviving node's entry is rewritten
    /// with a fresh summary. A path whose node was readmitted to since (or
    /// is already gone) costs its descent and nothing else.
    ///
    /// Locking: called with no node lock held. The paths are walked in
    /// sorted order, `PRUNE_BATCH` per chain of guards, and the root is let
    /// go between chunks: a long list stalls no admission for longer than
    /// one batch. A chain only ever grows downward from a node it holds, so
    /// it cannot deadlock with concurrent traffic, and each parent-entry
    /// rewrite/removal happens while that parent's guard is still held —
    /// the discipline of `check_below`'s rebuild and prune steps.
    fn flush_vacated(&self) {
        let mut paths = {
            let mut pending = self.vacated.lock();
            if pending.is_empty() {
                return;
            }
            std::mem::replace(&mut *pending, Vec::with_capacity(PRUNE_BATCH))
        };
        paths.sort_unstable();
        // `guards[i]` holds the node of `held[i]` (`held` may run on past a
        // missing child); `guards[0]` is the root, which is never pruned.
        let mut guards = Vec::new();
        for chunk in paths.chunks(PRUNE_BATCH) {
            guards.push(self.root.lock_arc());
            let mut held: &[RplId] = &[];
            for &path in chunk {
                let shared = held.iter().zip(path).take_while(|(a, b)| a == b).count();
                Self::unwind(&mut guards, held, shared.max(1));
                for key in &path[guards.len()..] {
                    let Some(entry) = guards[guards.len() - 1].children.get(key) else {
                        break;
                    };
                    let child_guard = entry.node.lock_arc();
                    guards.push(child_guard);
                }
                held = path;
            }
            Self::unwind(&mut guards, held, 1);
            guards.clear();
        }
    }

    /// Releases the chain's guards down to its first `keep`, deepest first:
    /// each node is unlinked from its parent if vacant (which may in turn
    /// vacate the parent) or re-summarised there.
    fn unwind(guards: &mut Vec<NodeGuard>, held: &[RplId], keep: usize) {
        while guards.len() > keep {
            let guard = guards.pop().expect("deeper than `keep`");
            let summary = (!guard.is_vacant()).then(|| guard.fresh_summary());
            drop(guard);
            let key = held[guards.len()];
            let parent = guards.last_mut().expect("the root stays");
            let Some((any, writes)) = summary else {
                parent.children.remove(&key);
                continue;
            };
            if let Some(entry) = parent.children.get_mut(&key) {
                (entry.any, entry.writes) = (any, writes);
            }
        }
    }
}

impl Scheduler for TreeScheduler {
    fn submit(&self, task: Arc<TaskRecord>) {
        self.queued.fetch_add(1, Ordering::Relaxed);
        match self.register_records(&task) {
            [] => {}
            // One record — every service request — needs no staging.
            [e] => drop(self.descend(self.root.lock_arc(), e, false, false)),
            // Several must go in atomically: `insert` locks every child
            // before it releases a node, so two tasks are ordered alike at
            // every node they share. Record by record, `K:[0], K:[2]` and
            // `K:[2], K:[0]` could each park their second behind the other's
            // first, and without an awaiter nothing would recheck either.
            records => self.insert(self.root.lock_arc(), &mut records.to_vec()),
        }
        self.drain_if_full(PRUNE_BATCH);
    }

    fn submit_batch(&self, tasks: Vec<Arc<TaskRecord>>) {
        self.queued.fetch_add(tasks.len(), Ordering::Relaxed);
        // Register every task's records and admit the batch in sub-waves of
        // up to `CHUNK` records, each one `insert` at the root: shared region
        // prefixes are locked and checked once per sub-wave instead of once
        // per task. The chunking bounds the working set a wave streams
        // through — one huge wave touches every record once per level and
        // falls out of cache between levels. Sub-wave boundaries fall on
        // task boundaries, so the admission order is still
        // sequential-equivalent (a sequence of sequential-equivalent waves,
        // via the settle-first ordering of `insert`).
        const CHUNK: usize = 512;
        let mut wave: Vec<Arc<EffectRecord>> = Vec::new();
        for task in tasks {
            wave.extend_from_slice(self.register_records(&task));
            if wave.len() >= CHUNK {
                self.insert(self.root.lock_arc(), &mut wave);
                wave.clear();
            }
        }
        self.insert(self.root.lock_arc(), &mut wave);
        self.drain_if_full(PRUNE_BATCH);
    }

    fn on_await(&self, _blocked: Option<&Arc<TaskRecord>>, target: &Arc<TaskRecord>) {
        if target.is_done() {
            return;
        }
        {
            let mut s = target.sched.lock();
            if s.status == TaskStatus::Waiting {
                s.status = TaskStatus::Prioritized;
            }
        }
        // Walk the blocker chain starting from the target (Figure 5.11): the
        // fact that the caller is now blocked may allow tasks in the chain to
        // be enabled through effect transfer.
        let mut current = Some(target.clone());
        let mut hops = 0usize;
        while let Some(task) = current {
            let status = task.sched.lock().status;
            if status < TaskStatus::Enabled && !task.spawned {
                self.recheck_task(&task);
            }
            current = task.blocker.lock().clone();
            hops += 1;
            if hops > 1_000_000 {
                break;
            }
        }
    }

    fn task_done(&self, task: &Arc<TaskRecord>) {
        // Spawned tasks were never submitted, so they were never counted;
        // the guard keeps the gauge from underflowing.
        let last = !task.spawned && self.queued.fetch_sub(1, Ordering::Relaxed) == 1;
        // The runtime has already set the task's status to Done.
        for e in task.tree_records() {
            let mut guard = self.lock_containing_node(e);
            remove_effect(&mut guard, e);
            let vacated = (guard.depth > 0 && guard.is_vacant()).then_some(guard.depth);
            drop(guard);
            if let Some(depth) = vacated {
                // The finished task emptied this node; unlinking it is
                // left to the admitting side (module docs, "Pruning"). A
                // path pending twice is pruned once, so no dedup.
                self.vacated.lock().push(&e.prefix_path[..=depth]);
            }
        }
        for e in task.tree_records() {
            self.recheck_waiters_of(e);
        }
        if last {
            // Nobody may ever submit again, so an idle scheduler must not
            // sit on what a batch left behind; the list steady traffic
            // leaves is the next admission's.
            self.drain_if_full(IDLE_PRUNE);
        }
    }

    fn spawned_child_done(&self, parent: &Arc<TaskRecord>) {
        // A completed spawned child may have been the only thing keeping a
        // conflict alive (Figure 5.8 checks the spawned children of blocked
        // tasks), so recheck the waiters recorded on the parent's effects.
        for e in parent.tree_records() {
            self.recheck_waiters_of(e);
        }
    }

    fn region_retired(&self, region: RplId) {
        // No live task can still name the region (retire runs from
        // `DynCell::drop`, and live effects keep the cell alive through
        // their task), so every task that named it is done and the node is
        // vacant: it can be pruned before the epoch reclaimer hands the
        // id to a new cell. Cell effects are fully specified, so they settle
        // exactly at the region's own node — pruning the interned path
        // covers them, once the flush has pruned the sub-region nodes
        // (`cell:Key:[j]`) finished tasks vacated below it.
        self.vacated
            .lock()
            .push(twe_effects::arena::id_path(region));
        self.flush_vacated();
    }

    /// Flushes the pending prunes first, so a drained scheduler reports a
    /// bare root.
    fn diagnostics(&self) -> SchedulerDiagnostics {
        self.flush_vacated();
        SchedulerDiagnostics {
            tree_nodes: Self::sum_nodes(&self.root, &|_| 1),
            recorded_effects: Self::sum_nodes(&self.root, &NodeInner::record_count),
            wake_rechecks: self.rechecks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twe_effects::EffectSet;

    fn task(id: u64, effects: &str) -> Arc<TaskRecord> {
        TaskRecord::new(id, format!("t{id}"), EffectSet::parse(effects), false)
    }

    struct Harness {
        sched: TreeScheduler,
        enabled: Arc<Mutex<Vec<u64>>>,
    }

    fn harness() -> Harness {
        let enabled: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let e2 = enabled.clone();
        let sched = TreeScheduler::new(Box::new(move |t| e2.lock().push(t.id)));
        Harness { sched, enabled }
    }

    impl Harness {
        fn enabled_ids(&self) -> Vec<u64> {
            self.enabled.lock().clone()
        }
        fn finish(&self, t: &Arc<TaskRecord>) {
            t.mark_done();
            self.sched.task_done(t);
        }
    }

    #[test]
    fn disjoint_sibling_effects_enable_immediately() {
        let h = harness();
        h.sched.submit(task(1, "writes A"));
        h.sched.submit(task(2, "writes B"));
        h.sched.submit(task(3, "writes A:C"));
        assert_eq!(h.enabled_ids(), vec![1, 2, 3]);
    }

    #[test]
    fn conflicting_effects_wait_and_resume_on_completion() {
        let h = harness();
        let a = task(1, "writes A");
        let b = task(2, "writes A");
        h.sched.submit(a.clone());
        h.sched.submit(b.clone());
        assert_eq!(h.enabled_ids(), vec![1]);
        assert_eq!(b.status(), TaskStatus::Waiting);
        h.finish(&a);
        assert_eq!(h.enabled_ids(), vec![1, 2]);
        assert_eq!(b.status(), TaskStatus::Enabled);
    }

    #[test]
    fn read_read_sharing_is_allowed() {
        let h = harness();
        h.sched.submit(task(1, "reads A"));
        h.sched.submit(task(2, "reads A"));
        h.sched.submit(task(3, "reads Root"));
        assert_eq!(h.enabled_ids(), vec![1, 2, 3]);
    }

    #[test]
    fn wildcard_effect_waits_for_descendant_writers() {
        let h = harness();
        let worker = task(1, "writes A:B");
        let scribble = task(2, "writes A:*");
        h.sched.submit(worker.clone());
        h.sched.submit(scribble.clone());
        assert_eq!(h.enabled_ids(), vec![1]);
        h.finish(&worker);
        assert_eq!(h.enabled_ids(), vec![1, 2]);
    }

    #[test]
    fn descendant_writer_waits_for_wildcard_holder() {
        let h = harness();
        let scribble = task(1, "writes A:*");
        let worker = task(2, "writes A:B:C");
        h.sched.submit(scribble.clone());
        h.sched.submit(worker.clone());
        assert_eq!(h.enabled_ids(), vec![1]);
        h.finish(&scribble);
        assert_eq!(h.enabled_ids(), vec![1, 2]);
    }

    #[test]
    fn kmeans_pattern_accumulate_tasks_on_distinct_clusters_run_in_parallel() {
        let h = harness();
        // WorkTasks read Root; accumulate tasks write Root:[k].
        h.sched.submit(task(1, "reads Root"));
        h.sched.submit(task(2, "reads Root"));
        let acc5 = task(3, "reads Root, writes Root:[5]");
        let acc9 = task(4, "reads Root, writes Root:[9]");
        let acc5_again = task(5, "reads Root, writes Root:[5]");
        h.sched.submit(acc5.clone());
        h.sched.submit(acc9.clone());
        h.sched.submit(acc5_again.clone());
        // Distinct clusters run in parallel; a second task on cluster 5 waits.
        assert_eq!(h.enabled_ids(), vec![1, 2, 3, 4]);
        assert_eq!(acc5_again.status(), TaskStatus::Waiting);
        h.finish(&acc5);
        assert_eq!(h.enabled_ids(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn effect_transfer_when_blocked_enables_scribble() {
        // The §5.3.2 scenario: work (writes TF) blocks on scribble
        // (writes Root:*), whose effect conflicts with work's until the
        // blocking transfers it.
        let h = harness();
        let work = task(1, "writes TF");
        let scribble = task(2, "writes Root:*");
        h.sched.submit(work.clone());
        h.sched.submit(scribble.clone());
        assert_eq!(h.enabled_ids(), vec![1]);
        assert_eq!(scribble.status(), TaskStatus::Waiting);
        // work blocks on scribble.
        *work.blocker.lock() = Some(scribble.clone());
        h.sched.on_await(Some(&work), &scribble);
        assert_eq!(h.enabled_ids(), vec![1, 2]);
        assert_eq!(scribble.status(), TaskStatus::Enabled);
    }

    #[test]
    fn prioritized_task_can_disable_enabled_but_unstarted_effects() {
        let h = harness();
        // Task 1 runs. Task 2 (writes A, writes B) has A enabled but B blocked
        // by task 1, so it is not yet submitted. Task 3 (writes A) is awaited
        // by a running task, gets prioritized, and may steal A from task 2.
        let t1 = task(1, "writes B");
        let t2 = task(2, "writes A, writes B");
        let t3 = task(3, "writes A");
        h.sched.submit(t1.clone());
        h.sched.submit(t2.clone());
        assert_eq!(h.enabled_ids(), vec![1]);
        h.sched.submit(t3.clone());
        // t3 conflicts with t2's enabled (but unstarted) effect on A.
        assert_eq!(h.enabled_ids(), vec![1]);
        // A running task blocks on t3: prioritization lets it disable t2's A.
        let blocker_task = task(99, "writes C");
        h.sched.submit(blocker_task.clone());
        *blocker_task.blocker.lock() = Some(t3.clone());
        h.sched.on_await(Some(&blocker_task), &t3);
        assert!(h.enabled_ids().contains(&3));
        assert_eq!(t2.status(), TaskStatus::Waiting);
        // Everyone eventually runs once the others finish.
        h.finish(&t3);
        h.finish(&t1);
        assert!(h.enabled_ids().contains(&2));
    }

    #[test]
    fn many_tasks_on_distinct_index_regions_all_enable() {
        let h = harness();
        let tasks: Vec<_> = (0..64)
            .map(|i| task(i, &format!("writes Data:[{i}]")))
            .collect();
        for t in &tasks {
            h.sched.submit(t.clone());
        }
        assert_eq!(h.enabled_ids().len(), 64);
        for t in &tasks {
            h.finish(t);
        }
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn pure_task_enables_immediately() {
        let h = harness();
        h.sched.submit(task(1, ""));
        assert_eq!(h.enabled_ids(), vec![1]);
    }

    #[test]
    fn effects_are_removed_from_tree_on_completion() {
        let h = harness();
        let a = task(1, "writes A:B, reads C");
        h.sched.submit(a.clone());
        assert!(h.sched.diagnostics().recorded_effects >= 2);
        h.finish(&a);
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn completed_waiters_records_are_dropped_while_blocker_still_runs() {
        // Regression test for the waiter strong-reference leak: t3 waits
        // behind t2's enabled effect on A (registering itself on that
        // record's waiter list), is then enabled through prioritization, runs
        // and completes — all while t2 is still alive. Its effect records
        // must be freed as soon as its task record is dropped; with strong
        // waiter references they stayed alive until t2 eventually finished.
        let h = harness();
        let t1 = task(1, "writes B");
        let t2 = task(2, "writes A, writes B");
        let t3 = task(3, "writes A");
        h.sched.submit(t1.clone());
        h.sched.submit(t2.clone());
        h.sched.submit(t3.clone());
        assert_eq!(h.enabled_ids(), vec![1]);
        // A running task blocks on t3, prioritizing it; it steals A from t2.
        let blocker = task(99, "writes C");
        h.sched.submit(blocker.clone());
        *blocker.blocker.lock() = Some(t3.clone());
        h.sched.on_await(Some(&blocker), &t3);
        assert!(h.enabled_ids().contains(&3));
        // t3 completes and its record is dropped; t2 still waits on t1. The
        // runtime clears the blocker link once the join returns, so the test
        // does the same before dropping t3.
        h.finish(&t3);
        *blocker.blocker.lock() = None;
        let weak_records: Vec<std::sync::Weak<EffectRecord>> = t3
            .tree_effects
            .get()
            .unwrap()
            .iter()
            .map(Arc::downgrade)
            .collect();
        drop(t3);
        let leaked = weak_records
            .iter()
            .filter(|w| w.upgrade().is_some())
            .count();
        assert_eq!(
            leaked, 0,
            "effect records of a completed, dropped task must not be kept \
             alive by another record's waiter list"
        );
        // Drain the rest so the tree ends empty.
        h.finish(&blocker);
        h.finish(&t1);
        assert!(h.enabled_ids().contains(&2));
        h.finish(&t2);
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ownership contract")]
    fn a_walk_meeting_a_task_dropped_before_task_done_panics_in_debug_builds() {
        // t1 is dropped while enabled, breaking the `Scheduler` ownership
        // contract: nothing will ever unlink its record or recheck t2, parked
        // behind it. The next walk that examines the record says so.
        let h = harness();
        let t1 = task(1, "writes Hot");
        let t2 = task(2, "reads Hot");
        h.sched.submit(t1.clone());
        h.sched.submit(t2.clone());
        assert_eq!(t2.status(), TaskStatus::Waiting);
        drop(t1);
        h.sched.submit(task(3, "reads Hot:*"));
    }

    #[test]
    fn any_index_effect_conflicts_exactly_with_index_children() {
        let h = harness();
        let named = task(1, "writes Data:Meta");
        let idx = task(2, "writes Data:[7]");
        let deep = task(3, "writes Data:[9]:Sub");
        h.sched.submit(named.clone());
        h.sched.submit(idx.clone());
        h.sched.submit(deep.clone());
        assert_eq!(h.enabled_ids(), vec![1, 2, 3]);
        // `Data:[?]` conflicts with the index child [7] but with neither the
        // name child nor the deeper region.
        let qm = task(4, "writes Data:[?]");
        h.sched.submit(qm.clone());
        assert_eq!(qm.status(), TaskStatus::Waiting);
        h.finish(&named);
        h.finish(&deep);
        assert_eq!(qm.status(), TaskStatus::Waiting, "only Data:[7] blocks it");
        h.finish(&idx);
        assert_eq!(qm.status(), TaskStatus::Enabled);
        // And the reverse direction: an index child submitted while the
        // wildcard holder runs must wait.
        let late_idx = task(5, "writes Data:[12]");
        let late_name = task(6, "writes Data:Other");
        h.sched.submit(late_idx.clone());
        h.sched.submit(late_name.clone());
        assert_eq!(late_idx.status(), TaskStatus::Waiting);
        assert_eq!(late_name.status(), TaskStatus::Enabled);
        h.finish(&qm);
        assert_eq!(late_idx.status(), TaskStatus::Enabled);
    }

    #[test]
    fn dyncell_claims_schedule_through_the_tree() {
        // Chapter-7 reference regions are ordinary arena regions now, so
        // effects on them flow through the tree scheduler like any other.
        use crate::dynamics::DynCell;
        let h = harness();
        let a = DynCell::new(0u32);
        let b = DynCell::new(0u32);
        let t1 = TaskRecord::new(1, "t1", EffectSet::write(a.rpl()), false);
        let t2 = TaskRecord::new(2, "t2", EffectSet::write(b.rpl()), false);
        let t3 = TaskRecord::new(3, "t3", EffectSet::write(a.rpl()), false);
        h.sched.submit(t1.clone());
        h.sched.submit(t2.clone());
        h.sched.submit(t3.clone());
        // Distinct cells run in parallel; the same cell serializes.
        assert_eq!(h.enabled_ids(), vec![1, 2]);
        assert_eq!(t3.status(), TaskStatus::Waiting);
        // Static effects on ordinary regions are disjoint from every cell.
        let unrelated = task(4, "writes Data:[1]");
        h.sched.submit(unrelated.clone());
        assert_eq!(unrelated.status(), TaskStatus::Enabled);
        // A `__DynRegion:[?]` wildcard claim covers every cell at once.
        let all_cells = TaskRecord::new(
            5,
            "all-cells",
            EffectSet::write(Rpl::parse("__DynRegion:[?]")),
            false,
        );
        h.sched.submit(all_cells.clone());
        assert_eq!(all_cells.status(), TaskStatus::Waiting);
        h.finish(&t1);
        assert_eq!(t3.status(), TaskStatus::Enabled);
        h.finish(&t2);
        h.finish(&t3);
        assert_eq!(all_cells.status(), TaskStatus::Enabled);
        h.finish(&all_cells);
        h.finish(&unrelated);
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn batch_submit_is_equivalent_to_sequential_in_both_orders() {
        // The settle-first regression: a batch pairing a deep concrete
        // record with a shallower wildcard that overlaps it must serialize
        // the pair regardless of batch order — without settle-first
        // processing, the order [deep, wildcard] let both enable. The other
        // pairs put the conflict where the single-record descent takes over
        // from the staged insert: multi-effect tasks whose records settle at
        // different depths (conflicting at the deep one, then at the shallow
        // one), and a wildcard whose partner leaves the shared prefix as a
        // group of one.
        for (a, b) in [
            ("writes X:Y", "writes X:*"),
            ("writes X, reads X:Y:Z", "writes X:Y:Z, reads W"),
            ("reads X:Y:Z, writes X", "reads X, reads V:[1]"),
            ("writes X:Y:Z:[4]", "reads X:Y:*"),
        ] {
            for flip in [false, true] {
                let h = harness();
                let (a, b) = (task(1, a), task(2, b));
                let batch = if flip {
                    vec![a.clone(), b.clone()]
                } else {
                    vec![b.clone(), a.clone()]
                };
                h.sched.submit_batch(batch);
                let enabled = h.enabled_ids();
                assert_eq!(
                    enabled.len(),
                    1,
                    "exactly one of {a:?} and {b:?} may enable (flip={flip})"
                );
                let (first, second) = if enabled[0] == 1 { (&a, &b) } else { (&b, &a) };
                assert_eq!(second.status(), TaskStatus::Waiting);
                h.finish(first);
                assert_eq!(second.status(), TaskStatus::Enabled, "flip={flip}");
                h.finish(second);
                assert_eq!(h.sched.diagnostics().recorded_effects, 0);
            }
        }
    }

    #[test]
    fn groups_of_one_descend_alone_and_may_park_on_the_way() {
        // Both members of the batch leave the root as a group of one, so
        // each goes the rest of its way as a single-record descent: `Q`
        // settles and enables, `X:Y:Z` meets the holder's `X:*` at `X` and
        // parks there, two levels above its settle node, until the holder
        // is done.
        let h = harness();
        let holder = task(1, "writes X:*");
        let deep = task(2, "writes X:Y:Z");
        let other = task(3, "writes Q");
        let depth_of = |t: &Arc<TaskRecord>| {
            let node = t.tree_records()[0].node.lock().clone().unwrap();
            let depth = node.lock().depth;
            depth
        };
        h.sched.submit(holder.clone());
        h.sched.submit_batch(vec![deep.clone(), other.clone()]);
        assert_eq!(h.enabled_ids(), vec![1, 3]);
        assert_eq!(depth_of(&deep), 1, "parked at X");
        h.finish(&holder);
        assert_eq!(deep.status(), TaskStatus::Enabled);
        assert_eq!(depth_of(&deep), 3, "moved down to X:Y:Z");
        h.finish(&deep);
        h.finish(&other);
        assert_eq!(h.sched.diagnostics().tree_nodes, 1);
    }

    #[test]
    fn batch_submit_disjoint_fanout_enables_all_in_one_round() {
        let h = harness();
        let tasks: Vec<_> = (0..256)
            .map(|i| task(i, &format!("writes Grid:Tier:Data:[{i}]")))
            .collect();
        h.sched.submit_batch(tasks.clone());
        assert_eq!(h.enabled_ids().len(), 256);
        for t in &tasks {
            h.finish(t);
        }
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn batch_submit_conflicting_members_keep_fifo_order() {
        let h = harness();
        let a = task(1, "writes Hot");
        let b = task(2, "writes Hot");
        let c = task(3, "writes Cold");
        h.sched.submit_batch(vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(h.enabled_ids(), vec![1, 3]);
        assert_eq!(b.status(), TaskStatus::Waiting);
        h.finish(&a);
        assert_eq!(b.status(), TaskStatus::Enabled);
        h.finish(&b);
        h.finish(&c);
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn empty_and_singleton_batches_take_the_plain_submit_path() {
        let h = harness();
        h.sched.submit_batch(Vec::new());
        assert!(h.enabled_ids().is_empty());
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
        let t = task(1, "writes A, reads B");
        h.sched.submit_batch(vec![t.clone()]);
        assert_eq!(h.enabled_ids(), vec![1]);
        assert_eq!(h.sched.diagnostics().recorded_effects, 2);
        // A pure task in a batch enables immediately, like in `submit`.
        let pure = task(2, "");
        let busy = task(3, "writes A");
        h.sched.submit_batch(vec![pure.clone(), busy.clone()]);
        assert_eq!(pure.status(), TaskStatus::Enabled);
        assert_eq!(busy.status(), TaskStatus::Waiting);
        h.finish(&t);
        h.finish(&pure);
        h.finish(&busy);
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn stale_subtree_flags_never_hide_later_records() {
        // Rebuild staleness: a full wildcard walk rewrites the subtree
        // flags (possibly clearing them after churn); records inserted
        // *after* the rebuild must still be found by the next walk, because
        // the insert descent sets them again.
        let h = harness();
        let churn: Vec<_> = (0..32)
            .map(|i| task(i, &format!("writes Zone:[{i}]")))
            .collect();
        for t in &churn {
            h.sched.submit(t.clone());
        }
        for t in &churn {
            h.finish(t);
        }
        // Walk 1: clears the Zone subtree's flags (and prunes).
        let sweep1 = task(100, "writes Zone:*");
        h.sched.submit(sweep1.clone());
        assert_eq!(sweep1.status(), TaskStatus::Enabled);
        h.finish(&sweep1);
        // Fresh record below Zone, inserted after the rebuild…
        let worker = task(101, "writes Zone:[7]");
        h.sched.submit(worker.clone());
        assert_eq!(worker.status(), TaskStatus::Enabled);
        // …must block both a trailing-star and a `[?]` walk.
        let sweep2 = task(102, "writes Zone:*");
        let qm = task(103, "writes Zone:[?]");
        h.sched.submit(sweep2.clone());
        h.sched.submit(qm.clone());
        assert_eq!(sweep2.status(), TaskStatus::Waiting);
        assert_eq!(qm.status(), TaskStatus::Waiting);
        h.finish(&worker);
        assert_eq!(sweep2.status(), TaskStatus::Enabled);
        h.finish(&sweep2);
        assert_eq!(qm.status(), TaskStatus::Enabled);
        h.finish(&qm);
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn read_walks_skip_write_free_subtrees_but_not_writers() {
        // The `writes`-flag skip: a read wildcard over a subtree holding only
        // read records enables immediately; add one writer below and the
        // same walk must find it.
        let h = harness();
        let readers: Vec<_> = (0..8)
            .map(|i| task(i, &format!("reads Lib:[{i}]")))
            .collect();
        for t in &readers {
            h.sched.submit(t.clone());
        }
        let scan = task(50, "reads Lib:*");
        h.sched.submit(scan.clone());
        assert_eq!(scan.status(), TaskStatus::Enabled);
        h.finish(&scan);
        for t in &readers {
            h.finish(t);
        }
        // An enabled writer below must block the next read walk (its
        // insert descent set the `writes` flags again).
        let writer = task(51, "writes Lib:[3]");
        h.sched.submit(writer.clone());
        assert_eq!(writer.status(), TaskStatus::Enabled);
        let scan2 = task(52, "reads Lib:*");
        h.sched.submit(scan2.clone());
        assert_eq!(
            scan2.status(),
            TaskStatus::Waiting,
            "writer below must block the read walk"
        );
        h.finish(&writer);
        assert_eq!(scan2.status(), TaskStatus::Enabled);
        h.finish(&scan2);
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn any_index_walk_finds_index_children_and_passes_deeper_records() {
        // `P:[?]` walks every child below P: a record settled at an index
        // child blocks it, one settled deeper is disjoint from `P:[n]`.
        let h = harness();
        let deep = task(1, "writes Par:[3]:Sub:Leaf");
        let shallow = task(2, "writes Par:[4]");
        h.sched.submit(deep.clone());
        h.sched.submit(shallow.clone());
        let qm = task(3, "writes Par:[?]");
        h.sched.submit(qm.clone());
        // Only the record settled at the index child [4] blocks it.
        assert_eq!(qm.status(), TaskStatus::Waiting);
        h.finish(&shallow);
        assert_eq!(
            qm.status(),
            TaskStatus::Enabled,
            "deep record is disjoint from Par:[?]"
        );
        h.finish(&deep);
        h.finish(&qm);
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn batch_with_wildcards_preserves_isolation_under_drain() {
        // Mixed batch with wildcard, reader, and index-region tasks:
        // drain to completion, asserting the enable callback never sees two
        // conflicting tasks enabled at once.
        use std::sync::atomic::AtomicUsize;
        let active: Arc<Mutex<Vec<Arc<TaskRecord>>>> = Arc::new(Mutex::new(Vec::new()));
        let violations = Arc::new(AtomicUsize::new(0));
        let (a2, v2) = (active.clone(), violations.clone());
        let sched = TreeScheduler::new(Box::new(move |t| {
            let mut act = a2.lock();
            for other in act.iter() {
                if !other.is_done() && crate::scheduler::tasks_conflict(other, &t) {
                    v2.fetch_add(1, Ordering::Relaxed);
                }
            }
            act.push(t);
        }));
        let mut all = Vec::new();
        for round in 0..4u64 {
            let batch: Vec<_> = (0..24u64)
                .map(|i| {
                    let id = round * 100 + i;
                    let eff = match i % 4 {
                        0 => format!("writes Data:[{}]", i % 6),
                        1 => "reads Data".to_string(),
                        2 => "writes Data:*".to_string(),
                        _ => format!("writes Data:[{}]:Sub", i % 6),
                    };
                    TaskRecord::new(id, format!("t{id}"), EffectSet::parse(&eff), false)
                })
                .collect();
            all.extend(batch.iter().cloned());
            sched.submit_batch(batch);
        }
        let mut remaining = all;
        let mut rounds = 0;
        while !remaining.is_empty() {
            rounds += 1;
            assert!(rounds < 10_000, "stalled with {} tasks", remaining.len());
            let mut next = Vec::new();
            for t in remaining {
                if t.status() == TaskStatus::Enabled {
                    t.mark_done();
                    sched.task_done(&t);
                } else {
                    next.push(t);
                }
            }
            remaining = next;
        }
        assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "task isolation violated"
        );
        assert_eq!(sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn waiting_chain_unwinds_in_order() {
        let h = harness();
        let tasks: Vec<_> = (1..=5).map(|i| task(i, "writes Hot")).collect();
        for t in &tasks {
            h.sched.submit(t.clone());
        }
        assert_eq!(h.enabled_ids(), vec![1]);
        for (i, t) in tasks.iter().enumerate() {
            h.finish(t);
            let expect: Vec<u64> = (1..=(i as u64 + 2).min(5)).collect();
            assert_eq!(h.enabled_ids(), expect);
        }
    }

    #[test]
    fn concurrent_submissions_preserve_isolation() {
        use std::sync::atomic::AtomicUsize;
        // Stress: many threads submit tasks with random effects; an enable
        // callback verifies that no two concurrently-enabled tasks conflict.
        let active: Arc<Mutex<Vec<Arc<TaskRecord>>>> = Arc::new(Mutex::new(Vec::new()));
        let violations = Arc::new(AtomicUsize::new(0));
        let enabled_count = Arc::new(AtomicUsize::new(0));
        let (a2, v2, c2) = (active.clone(), violations.clone(), enabled_count.clone());
        let sched = Arc::new(TreeScheduler::new(Box::new(move |t| {
            let mut act = a2.lock();
            for other in act.iter() {
                if crate::scheduler::tasks_conflict(other, &t) && !other.is_done() {
                    v2.fetch_add(1, Ordering::Relaxed);
                }
            }
            act.push(t);
            c2.fetch_add(1, Ordering::Relaxed);
        })));

        let all: Arc<Mutex<Vec<Arc<TaskRecord>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for thread in 0..4u64 {
            let sched = sched.clone();
            let all = all.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let id = thread * 1000 + i;
                    let eff = match i % 4 {
                        0 => format!("writes Data:[{}]", i % 8),
                        1 => "reads Data".to_string(),
                        2 => format!("writes Other:[{}]", i % 3),
                        _ => "writes Data:*".to_string(),
                    };
                    let t = TaskRecord::new(id, format!("t{id}"), EffectSet::parse(&eff), false);
                    all.lock().push(t.clone());
                    sched.submit(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Drain: repeatedly finish enabled tasks until all have run.
        let mut remaining: Vec<Arc<TaskRecord>> = all.lock().clone();
        let mut rounds = 0;
        while !remaining.is_empty() {
            rounds += 1;
            assert!(
                rounds < 10_000,
                "scheduler stalled with {} tasks",
                remaining.len()
            );
            let mut next = Vec::new();
            for t in remaining {
                if t.status() == TaskStatus::Enabled {
                    t.mark_done();
                    sched.task_done(&t);
                } else {
                    next.push(t);
                }
            }
            remaining = next;
        }
        assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "task isolation violated"
        );
        assert_eq!(enabled_count.load(Ordering::Relaxed), 200);
        assert_eq!(sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn crossing_multi_effect_submitters_never_park_behind_each_other() {
        // A task's admission is atomic against a concurrent submitter: its
        // whole wave goes through one `insert`, which locks every child
        // before it releases the node, so two submitters are totally ordered
        // at every node they share. Admitting the records one descent at a
        // time instead lets `K:[0], K:[2]` and `K:[2], K:[0]` each enable
        // their first record and park their second behind the other's —
        // nothing ever completes, so nothing ever rechecks, and without an
        // awaiter both wait forever. Fire-and-forget here: no `on_await`.
        // (Unfixed, about one round in 120 stuck: 20 000 is ample.)
        let rounds = 20_000;
        let sched = TreeScheduler::new(Box::new(|_| {}));
        let barrier = std::sync::Barrier::new(2);
        let pairs: Vec<_> = (0..rounds)
            .map(|i| {
                let a = task(2 * i, "writes K:[0], writes K:[2]");
                let b = task(2 * i + 1, "writes K:[2], writes K:[0]");
                (a, b)
            })
            .collect();
        // Both threads walk every round (a panic between two barrier waits
        // would strand the other thread); the first stuck round is reported
        // at the end.
        let mut stuck = None;
        std::thread::scope(|s| {
            s.spawn(|| {
                for (_, b) in &pairs {
                    barrier.wait();
                    sched.submit(b.clone());
                    barrier.wait();
                    barrier.wait();
                }
            });
            for (round, (a, b)) in pairs.iter().enumerate() {
                barrier.wait();
                sched.submit(a.clone());
                barrier.wait();
                let first = if a.status() == TaskStatus::Enabled {
                    a
                } else {
                    b
                };
                let second = if a.status() == TaskStatus::Enabled {
                    b
                } else {
                    a
                };
                for t in [first, second] {
                    if t.status() != TaskStatus::Enabled {
                        stuck.get_or_insert((round, a.status(), b.status()));
                    }
                    t.mark_done();
                    sched.task_done(t);
                }
                barrier.wait();
            }
        });
        assert_eq!(stuck, None, "(round, A, B) with nobody to await either");
        assert_eq!(sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn root_settlers_win_over_grouped_records_in_both_orders() {
        // Settle-first at root level: a root-settling wildcard is admitted
        // (and enabled) before any first-level group of its wave, wherever
        // it sits in the batch, so every grouped record below it must wait.
        for sweeper_last in [false, true] {
            let h = harness();
            let sweeper = task(1000, "writes Root:*");
            let mut batch: Vec<_> = (0..64)
                .map(|i| task(i + 1, &format!("writes Root:[{}]", i % 8)))
                .collect();
            batch.insert(if sweeper_last { 64 } else { 0 }, sweeper.clone());
            h.sched.submit_batch(batch.clone());
            assert_eq!(sweeper.status(), TaskStatus::Enabled);
            for t in batch.iter().filter(|t| t.id != 1000) {
                assert_eq!(
                    t.status(),
                    TaskStatus::Waiting,
                    "records below an enabled root wildcard must wait"
                );
            }
            h.finish(&sweeper);
            // One task per `Root:[k]` runs, the rest queue behind it.
            assert_eq!(h.enabled_ids().len(), 1 + 8);
        }
    }

    #[test]
    fn index_traffic_stays_bounded_without_wildcard_walks() {
        // Pure index-region traffic, no wildcard effect ever submitted, one
        // request at a time: every completion vacates a fresh three-node
        // chain and leaves the scheduler empty. The drains alone must keep
        // the tree bounded (before PR 7 only wildcard walks pruned, so this
        // pattern grew one leaf chain per distinct index forever) — and
        // they are the admissions': steady traffic never leaves a
        // completion `IDLE_PRUNE` paths, so the worker prunes nothing.
        let h = harness();
        let mut peak = 0;
        for i in 0..1_000u64 {
            let t = task(i + 1, &format!("writes Data:[{i}]:Sub"));
            h.sched.submit(t.clone());
            assert_eq!(t.status(), TaskStatus::Enabled);
            h.finish(&t);
            let nodes = raw_nodes(&h.sched);
            assert!(
                nodes <= 2 + 2 * PRUNE_BATCH,
                "iteration {i}: {nodes} nodes for an empty scheduler"
            );
            peak = peak.max(nodes);
        }
        assert!(
            peak > 2 * (PRUNE_BATCH - 1),
            "pruned before the list filled"
        );
        assert_eq!(h.sched.diagnostics().tree_nodes, 1);
        assert_eq!(raw_nodes(&h.sched), 1, "`diagnostics` flushed the rest");
    }

    #[test]
    fn region_retired_prunes_the_region_node() {
        let h = harness();
        let cell = crate::DynCell::new(0u32);
        let t = task(1, &format!("writes {}", cell.rpl()));
        h.sched.submit(t.clone());
        assert_eq!(t.status(), TaskStatus::Enabled);
        h.finish(&t);
        // The finished task left the region's node vacant and its path
        // pending (`raw_nodes` does not flush); retiring the region prunes it.
        assert!(raw_nodes(&h.sched) > 1);
        h.sched.region_retired(cell.region_id());
        assert_eq!(raw_nodes(&h.sched), 1);
    }

    #[test]
    fn write_walk_skip_is_sound_with_waiting_records() {
        // A subtree holding only a *waiting* record must not be skipped by
        // the empty-subtree write skip: the trailing-star walk has to find t2
        // and park behind the subtree's conflict chain.
        let h = harness();
        let t1 = task(1, "writes X:[1]");
        let t2 = task(2, "writes X:[1]");
        let t3 = task(3, "writes X:*");
        h.sched.submit(t1.clone());
        h.sched.submit(t2.clone()); // parks behind t1
        h.sched.submit(t3.clone()); // must park, not enable
        assert_eq!(t1.status(), TaskStatus::Enabled);
        assert_eq!(t2.status(), TaskStatus::Waiting);
        assert_eq!(t3.status(), TaskStatus::Waiting);
        h.finish(&t1);
        assert_eq!(t2.status(), TaskStatus::Enabled);
        assert_eq!(
            t3.status(),
            TaskStatus::Waiting,
            "t3 overlaps t2 and must keep waiting"
        );
        h.finish(&t2);
        assert_eq!(t3.status(), TaskStatus::Enabled);
        assert_eq!(h.enabled_ids(), vec![1, 2, 3]);
    }

    #[test]
    fn write_walk_skips_empty_children_and_prunes_vacant_ones() {
        let h = harness();
        let vacant = twe_effects::Rpl::parse("X:[1]").prefix_id();
        let empty = twe_effects::Rpl::parse("X:[7]").prefix_id();
        // X:[1] is left vacant by a finished task, its path pending: its
        // subtree flags stay set.
        let t1 = task(1, "writes X:[1]");
        h.sched.submit(t1.clone());
        h.finish(&t1);
        // X:[7] is a child with clear subtree flags. No admission leaves
        // one behind (an emptied node is pruned), so it is linked by hand.
        let x = first_level_node(&h.sched, "X");
        x.lock().children.insert(empty, ChildEntry::new(2));
        let t2 = task(2, "writes X:*");
        h.sched.submit(t2.clone());
        assert_eq!(t2.status(), TaskStatus::Enabled);
        // Looked at before anything flushes the vacated paths (as
        // `diagnostics` does), so the walk did this: a visited child
        // that turns out vacant is unlinked; a skipped one is never locked,
        // so it is still there.
        let children = &x.lock().children;
        assert!(!children.contains_key(&vacant), "X:[1] visited and pruned");
        assert!(children.contains_key(&empty), "X:[7] skipped");
    }

    /// The first-level node `name` (it must exist).
    fn first_level_node(sched: &TreeScheduler, name: &str) -> NodeRef {
        let id = twe_effects::Rpl::parse(name).prefix_id_path()[1];
        let node = sched.root.lock().children[&id].node.clone();
        node
    }

    /// Nodes in the tree right now, pending prunes included
    /// ([`Scheduler::diagnostics`] flushes them first).
    fn raw_nodes(sched: &TreeScheduler) -> usize {
        TreeScheduler::sum_nodes(&sched.root, &|_| 1)
    }

    /// Live covering records at the root: wildcard settlers and the
    /// descending records a conflict parked there.
    fn covering_at_root(sched: &TreeScheduler) -> usize {
        sched.root.lock().records[COVERING].live
    }

    /// The k-means shape (Fig. 6.3) at width `n`: `n` enabled `reads Root`
    /// WorkTasks, then `n` nested `reads Root, writes Clusters:[k]`
    /// admissions over 40 clusters, then everything finished. Returns
    /// (records `check_at` examined during the nested admissions, unlink
    /// steps taken by the completions).
    fn kmeans_shape_costs(n: u64) -> (usize, usize) {
        let sched = TreeScheduler::new(Box::new(|_| {}));
        let work: Vec<_> = (0..n).map(|i| task(i, "reads Root")).collect();
        for t in &work {
            sched.submit(t.clone());
            assert_eq!(t.status(), TaskStatus::Enabled);
        }
        EXAMINED.with(|c| c.set(0));
        let nested: Vec<_> = (0..n)
            .map(|i| task(n + i, &format!("reads Root, writes Clusters:[{}]", i % 40)))
            .collect();
        for t in &nested {
            sched.submit(t.clone());
        }
        let examined = EXAMINED.with(|c| c.get());
        UNLINK_STEPS.with(|c| c.set(0));
        for t in nested.iter().chain(&work) {
            assert_eq!(t.status(), TaskStatus::Enabled, "FIFO per cluster");
            t.mark_done();
            sched.task_done(t);
        }
        assert_eq!(sched.diagnostics().recorded_effects, 0);
        (examined, UNLINK_STEPS.with(|c| c.get()))
    }

    #[test]
    fn reads_root_fanout_costs_nested_admissions_nothing() {
        // Counts, not timings. Each nested admission examines exactly one
        // record, the head of its cluster's queue — none when it is the head
        // itself (nothing enabled there to meet) — and none of the `n` exact
        // root records: passing the root, its `check_at` meets only the
        // empty covering class. Each of the 3n records then leaves in one
        // unlink step.
        for n in [1_000u64, 4_000] {
            let (examined, unlink_steps) = kmeans_shape_costs(n);
            assert_eq!(examined, n as usize - 40, "n = {n}");
            assert_eq!(unlink_steps, 3 * n as usize, "n = {n}");
        }
    }

    #[test]
    fn unlinked_slots_are_reclaimed_and_arrival_order_survives() {
        // A sliding window of four readers on X: 400 records come and go
        // through one list. The tombstones they leave must be squeezed out
        // (bounded list, amortized-constant unlink cost, back-indices still
        // right afterwards), and a writer must still queue behind the
        // readers in arrival order.
        let h = harness();
        UNLINK_STEPS.with(|c| c.set(0));
        let mut window = std::collections::VecDeque::new();
        for i in 0..400u64 {
            let t = task(i, "reads X");
            h.sched.submit(t.clone());
            window.push_back(t);
            if window.len() > 4 {
                h.finish(&window.pop_front().unwrap());
            }
            let slots = first_level_node(&h.sched, "X").lock().records[EXACT]
                .slots
                .len();
            assert!(slots <= 2 * 5 + 8, "{slots} slots for 5 live records");
        }
        let steps = UNLINK_STEPS.with(|c| c.get());
        assert!(steps <= 4 * 396, "{steps} steps for 396 unlinks");
        let writer = task(1_000, "writes X");
        h.sched.submit(writer.clone());
        for t in &window {
            assert_eq!(writer.status(), TaskStatus::Waiting);
            h.finish(t);
        }
        assert_eq!(writer.status(), TaskStatus::Enabled);
        h.finish(&writer);
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn exact_root_writer_does_not_stop_descending_writers() {
        // `writes Root` is the one region `Root`, disjoint from `A:[1]`.
        let h = harness();
        let root = task(1, "writes Root");
        let deep = task(2, "writes A:[1]");
        h.sched.submit(root.clone());
        h.sched.submit(deep.clone());
        assert_eq!(h.enabled_ids(), vec![1, 2]);
        assert_eq!(covering_at_root(&h.sched), 0, "nothing parked at the root");
        h.finish(&root);
        h.finish(&deep);
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn covering_root_records_stop_descending_writers_at_the_root() {
        for (cover, prey) in [
            ("writes Root:*", "writes A:[1]"),
            ("reads Root:[?]", "writes [3]"),
        ] {
            let h = harness();
            let settler = task(1, cover);
            let writer = task(2, prey);
            let writer_depth = || {
                let record = &writer.tree_effects.get().unwrap()[0];
                let node = record.node.lock().clone().unwrap();
                let depth = node.lock().depth;
                depth
            };
            h.sched.submit(settler.clone());
            assert_eq!(covering_at_root(&h.sched), 1, "{cover}");
            h.sched.submit(writer.clone());
            assert_eq!(
                writer.status(),
                TaskStatus::Waiting,
                "{prey} behind {cover}"
            );
            assert_eq!(covering_at_root(&h.sched), 2, "the writer is parked there");
            assert_eq!(writer_depth(), 0);
            h.finish(&settler);
            assert_eq!(writer.status(), TaskStatus::Enabled);
            assert_eq!(covering_at_root(&h.sched), 0);
            assert_eq!(
                writer_depth(),
                writer.tree_effects.get().unwrap()[0].prefix_depth()
            );
            h.finish(&writer);
            assert_eq!(h.sched.diagnostics().recorded_effects, 0);
        }
    }

    #[test]
    fn record_parked_at_an_ancestor_is_covering() {
        // t2 and t3 are parked at A (depth 1) by t1's `A:*`. Exact traffic
        // at A ignores them, but they still count among A's covering
        // records: once t1 is done t2 moves down and is enabled at A:B:C,
        // and t3, which conflicts with it, is handed on to t2's list where
        // it is — parked at the ancestor, disabled, in nobody's way — and
        // moves down at its own recheck, when t2 is done.
        let h = harness();
        let t1 = task(1, "writes A:*");
        let t2 = task(2, "writes A:B:C");
        let t3 = task(3, "writes A:B:C");
        let exact = task(4, "writes A");
        h.sched.submit(t1.clone());
        h.sched.submit(t2.clone());
        h.sched.submit(t3.clone());
        assert_eq!(h.enabled_ids(), vec![1]);
        let covering_at_a = || first_level_node(&h.sched, "A").lock().records[COVERING].live;
        assert_eq!(covering_at_a(), 3, "the settler and both parked writers");
        assert_eq!(
            covering_at_root(&h.sched),
            0,
            "parked at A, not at the root"
        );
        h.finish(&t1);
        assert_eq!(h.enabled_ids(), vec![1, 2]);
        assert_eq!(t3.status(), TaskStatus::Waiting, "t3 waits for t2");
        assert_eq!(covering_at_a(), 1, "t2 moved down, t3 was not rechecked");
        h.sched.assert_wake_invariant();
        h.sched.submit(exact.clone());
        assert_eq!(exact.status(), TaskStatus::Enabled, "`A` overlaps neither");
        h.finish(&t2);
        assert_eq!(t3.status(), TaskStatus::Enabled);
        assert_eq!(covering_at_a(), 0, "both moved down");
        h.finish(&t3);
        h.finish(&exact);
        assert_eq!(h.sched.diagnostics().tree_nodes, 1);
    }

    #[test]
    fn exact_read_and_write_at_one_node_still_serialize() {
        let h = harness();
        let w = task(1, "writes Root");
        let r = task(2, "reads Root");
        let w2 = task(3, "writes Root");
        h.sched.submit(w.clone());
        h.sched.submit(r.clone());
        h.sched.submit(w2.clone());
        assert_eq!(h.enabled_ids(), vec![1]);
        h.finish(&w);
        assert_eq!(h.enabled_ids(), vec![1, 2], "the read first: arrival order");
        h.finish(&r);
        assert_eq!(h.enabled_ids(), vec![1, 2, 3]);
        h.finish(&w2);
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    /// Pruning is deferred, bounded and sound, at the first level too. (The
    /// sharded root plane of PR 8 – PR 15 never unpublished a first-level
    /// route: a program that partitions the root by index kept one node per
    /// index ever seen.) 10 000 `writes [i]:X` with no wildcard ever, first
    /// per task with 100 in flight, then as one batch: the root never has
    /// more children than requests in flight plus one batch of vacated
    /// paths, and a drained scheduler is a bare root.
    #[test]
    fn vacated_paths_are_pruned_in_batches_and_rebuilt_on_readmission() {
        let h = harness();
        let first_level = |h: &Harness| h.sched.root.lock().children.len();
        let wave = |base: u64| -> Vec<_> {
            (0..10_000u64)
                .map(|i| task(base + i, &format!("writes [{i}]:X")))
                .collect()
        };
        let mut window = std::collections::VecDeque::new();
        let mut deferred = false;
        for t in wave(0) {
            h.sched.submit(t.clone());
            window.push_back(t);
            if window.len() > 100 {
                h.finish(&window.pop_front().unwrap());
            }
            let live = first_level(&h);
            assert!(live <= window.len() + PRUNE_BATCH, "{live} children");
            deferred |= live > window.len();
        }
        assert!(
            deferred,
            "a completion with requests in flight prunes nothing"
        );
        for t in &window {
            h.finish(t);
        }
        assert!(first_level(&h) < IDLE_PRUNE, "idle: less than a batch left");
        assert_eq!(h.sched.diagnostics().tree_nodes, 1);
        assert_eq!(first_level(&h), 0, "`diagnostics` flushed the rest");

        let batch = wave(10_000);
        h.sched.submit_batch(batch.clone());
        assert_eq!(h.enabled_ids().len(), 20_000);
        let (last, rest) = batch.split_last().unwrap();
        for t in rest {
            h.finish(t);
        }
        assert_eq!(first_level(&h), 10_000, "nobody admitted, nobody pruned");
        h.finish(last);
        assert_eq!(first_level(&h), 0, "the completion that emptied it drained");
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);

        // A node is readmitted to while its vacated path is still pending:
        // the drain must leave it alone, and a `writes *` sweeper must find
        // the record in it.
        let once = task(20_000, "writes [7]:X");
        h.sched.submit(once.clone());
        h.finish(&once);
        assert_eq!(raw_nodes(&h.sched), 3, "root, [7] and [7]:X, path pending");
        let again = task(20_001, "writes [7]:X");
        let sweeper = task(20_002, "writes *");
        h.sched.submit(again.clone());
        assert_eq!(again.status(), TaskStatus::Enabled);
        assert_eq!(
            h.sched.diagnostics().tree_nodes,
            3,
            "flushed around the live record"
        );
        h.sched.submit(sweeper.clone());
        assert_eq!(sweeper.status(), TaskStatus::Waiting, "found below [7]");
        h.finish(&again);
        assert_eq!(sweeper.status(), TaskStatus::Enabled);
        h.finish(&sweeper);
        assert_eq!(h.sched.diagnostics().tree_nodes, 1);
    }

    #[test]
    fn retiring_a_region_prunes_its_pending_vacated_subtree() {
        // Finished requests left `cell:Key:[j]` vacant and pending; nobody
        // admits again. Retirement must still leave no node of the region,
        // or a recycled id would meet its previous era's subtree.
        let h = harness();
        let cell = crate::DynCell::new(0u32);
        let keeper = task(100, "writes Other");
        h.sched.submit(keeper.clone());
        for j in 0..8 {
            let t = task(j, &format!("writes {}:Key:[{j}]", cell.rpl()));
            h.sched.submit(t.clone());
            h.finish(&t);
        }
        assert_eq!(
            raw_nodes(&h.sched),
            2 + 3 + 8,
            "root, Other; region, Key, [j]"
        );
        h.sched.region_retired(cell.region_id());
        assert_eq!(raw_nodes(&h.sched), 2, "root and Other");
        h.finish(&keeper);
        assert_eq!(h.sched.diagnostics().tree_nodes, 1);
    }
    /// What one completion cost the wake path, from the per-thread counters.
    #[derive(Debug, Default, Clone, Copy)]
    struct WakeCost {
        locks: usize,
        examined: usize,
        steps: usize,
    }

    fn finish_counting(h: &Harness, t: &Arc<TaskRecord>) -> WakeCost {
        for counter in [&WAKE_LOCKS, &EXAMINED, &WAITER_STEPS] {
            counter.with(|c| c.set(0));
        }
        h.finish(t);
        // The walker is linear in the tree: after every completion only
        // while that stays cheap, then on a sample.
        if h.sched.queued.load(Ordering::Relaxed) <= 256 || t.id % 256 == 0 {
            h.sched.assert_wake_invariant();
        }
        WakeCost {
            locks: WAKE_LOCKS.with(|c| c.get()),
            examined: EXAMINED.with(|c| c.get()),
            steps: WAITER_STEPS.with(|c| c.get()),
        }
    }

    #[test]
    fn a_writer_finishing_costs_the_same_behind_16_or_4096_parked_writers() {
        // Counts, not timings. N writers parked on one key behind the one
        // that runs: each completion rechecks the head of the line — whose
        // `check_at` skips the class of parked records, none enabled — and
        // hands the rest to it in one piece.
        for n in [16u64, 256, 4096] {
            let h = harness();
            let writers: Vec<_> = (0..=n).map(|i| task(i, "writes Hot:Key:[7]")).collect();
            for t in &writers {
                h.sched.submit(t.clone());
            }
            assert_eq!(h.enabled_ids(), vec![0]);
            let before = h.sched.diagnostics().wake_rechecks;
            for (i, t) in writers.iter().enumerate() {
                assert_eq!(t.status(), TaskStatus::Enabled, "n = {n}: writer {i}");
                let cost = finish_counting(&h, t);
                assert!(
                    cost.locks <= 2 && cost.examined <= 1 && cost.steps <= 1,
                    "n = {n}: completion {i} cost {cost:?}"
                );
            }
            assert_eq!(
                h.sched.diagnostics().wake_rechecks - before,
                n,
                "one recheck each"
            );
            assert_eq!(h.sched.diagnostics().recorded_effects, 0);
        }
    }

    #[test]
    fn a_scan_finishing_costs_what_the_writers_it_enables_cost() {
        // N writers of N keys parked at the tenant's node behind `reads
        // T:*`. Its completion enables them all: per record enabled one
        // recheck, one look at the next in line (no conflict: no lock), no
        // record examined at the tenant (nothing enabled there), and
        // nothing that grows with N.
        for n in [16u64, 256, 4096] {
            let h = harness();
            let scan = task(0, "reads Ten:*");
            h.sched.submit(scan.clone());
            let writers: Vec<_> = (1..=n)
                .map(|i| task(i, &format!("writes Ten:Key:[{i}]")))
                .collect();
            for t in &writers {
                h.sched.submit(t.clone());
            }
            assert_eq!(h.enabled_ids(), vec![0]);
            let cost = finish_counting(&h, &scan);
            assert_eq!(h.enabled_ids().len() as u64, n + 1, "n = {n}");
            let n = n as usize;
            assert!(
                cost.locks <= n + 1 && cost.examined <= n && cost.steps <= n,
                "n = {n}: the scan's completion cost {cost:?}"
            );
            for t in &writers {
                let cost = finish_counting(&h, t);
                assert_eq!(cost.locks + cost.examined + cost.steps, 0, "n = {n}");
            }
        }
    }

    #[test]
    fn same_key_writers_behind_a_scan_are_handed_on_one_test_each_then_in_one_piece() {
        // The scan's line is all one key: the first writer is enabled, the
        // others conflict with it and go onto its list with one test each
        // (region and kind of `T:*` promise nothing); from then on each
        // completion moves the line in one piece.
        let n = 512u64;
        let h = harness();
        let scan = task(0, "reads Ten:*");
        h.sched.submit(scan.clone());
        let writers: Vec<_> = (1..=n).map(|i| task(i, "writes Ten:Key:[3]")).collect();
        for t in &writers {
            h.sched.submit(t.clone());
        }
        let cost = finish_counting(&h, &scan);
        assert_eq!(h.enabled_ids(), vec![0, 1]);
        assert!(cost.locks == 2 && cost.steps <= n as usize, "{cost:?}");
        for (i, t) in writers.iter().enumerate() {
            assert_eq!(t.status(), TaskStatus::Enabled, "writer {i}");
            let cost = finish_counting(&h, t);
            assert!(cost.locks <= 2 && cost.steps <= 1, "writer {i}: {cost:?}");
        }
        assert_eq!(h.sched.diagnostics().wake_rechecks, n);
    }

    #[test]
    fn waiters_are_not_handed_to_a_record_whose_task_still_waits() {
        // t2 gets Y when t0 is done but still waits for X behind t1, so it
        // may never run (PR 13's cycle): the writers of Y in line behind it
        // must each be rechecked — the first takes Y back from t2 through
        // the whole-task fallback — and none may be moved onto t2's record
        // unexamined (a debug assertion where the hand-on pushes).
        let h = harness();
        let t0 = task(0, "writes Y");
        let t1 = task(1, "writes X");
        let t2 = task(2, "writes X, writes Y");
        let late: Vec<_> = (3..7).map(|i| task(i, "writes Y")).collect();
        let all: Vec<_> = [&t0, &t1, &t2].into_iter().chain(&late).collect();
        for t in &all {
            h.sched.submit((*t).clone());
        }
        assert_eq!(h.enabled_ids(), vec![0, 1]);
        let before = h.sched.diagnostics().wake_rechecks;
        h.finish(&t0);
        h.sched.assert_wake_invariant();
        assert_eq!(h.enabled_ids(), vec![0, 1, 3], "t3 took Y from t2");
        assert!(
            h.sched.diagnostics().wake_rechecks - before >= 3,
            "t2, t3 and t4 at least"
        );
        while let Some(next) = all.iter().find(|t| t.status() == TaskStatus::Enabled) {
            h.finish(next);
            h.sched.assert_wake_invariant();
        }
        assert!(all.iter().all(|t| t.is_done()), "{:?}", h.enabled_ids());
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }

    #[test]
    fn a_line_taken_from_a_record_that_still_blocks_goes_back_whole() {
        // `spawned_child_done` takes the lists of a parent that is still
        // running: the head of each line is rechecked, parks behind the
        // parent again and names it, so the rest is handed on to the very
        // record it was taken from — whose uid every mark in the line still
        // carries. A push that took such a mark for membership dropped all
        // but the head. Readers and writers, one key and a tenant scan.
        for (held, wanted) in [
            ("writes K", "writes K"),
            ("writes K", "reads K"),
            ("reads Ten:*", "writes Ten:Key:[3]"),
        ] {
            let h = harness();
            let parent = task(0, held);
            let line: Vec<_> = (1..=4).map(|i| task(i, wanted)).collect();
            h.sched.submit(parent.clone());
            for t in &line {
                h.sched.submit(t.clone());
            }
            assert_eq!(h.enabled_ids(), vec![0]);
            for _ in 0..3 {
                h.sched.spawned_child_done(&parent);
                h.sched.assert_wake_invariant();
                assert_eq!(h.enabled_ids(), vec![0], "{held} still blocks {wanted}");
            }
            h.finish(&parent);
            h.sched.assert_wake_invariant();
            while let Some(next) = line.iter().find(|t| t.status() == TaskStatus::Enabled) {
                h.finish(next);
                h.sched.assert_wake_invariant();
            }
            assert!(line.iter().all(|t| t.is_done()), "{:?}", h.enabled_ids());
            assert_eq!(h.sched.diagnostics().recorded_effects, 0);
        }
    }

    #[test]
    fn a_completion_racing_a_hand_on_onto_its_record_strands_nobody() {
        // Two enabled key writers X and Y, three `T:*` waiters registered on
        // X. X's completion rechecks the first, which names Y, and hands the
        // other two on to Y — while a second thread completes Y. Whichever
        // way the two interleave (Y still linked: its completion takes the
        // waiters it was handed; already unlinked: they are rechecked by X's
        // completion itself), all three must run; with the hand-on's node
        // lock or its linked check taken out, a round is left with a waiter
        // on a finished record's list.
        const ROUNDS: u64 = if cfg!(debug_assertions) {
            4_000
        } else {
            400_000
        };
        let h = Arc::new(harness());
        // Spun, not slept on: the two completions should start together.
        struct Step(AtomicUsize);
        impl Step {
            fn wait(&self, turn: usize) {
                self.0.fetch_add(1, Ordering::SeqCst);
                while self.0.load(Ordering::SeqCst) < 2 * turn {
                    std::hint::spin_loop();
                }
            }
        }
        let step = Arc::new(Step(AtomicUsize::new(0)));
        let pair: Arc<Mutex<Vec<Arc<TaskRecord>>>> = Arc::new(Mutex::new(Vec::new()));
        let other = {
            let (h, step, pair) = (h.clone(), step.clone(), pair.clone());
            std::thread::spawn(move || {
                for round in 0..ROUNDS as usize {
                    step.wait(2 * round + 1);
                    let y = pair.lock()[1].clone();
                    h.finish(&y);
                    step.wait(2 * round + 2);
                }
            })
        };
        for round in 0..ROUNDS {
            let id = round * 8;
            let x = task(id, "writes Race:Key:[1]");
            let y = task(id + 1, "writes Race:Key:[2]");
            h.sched.submit(x.clone());
            h.sched.submit(y.clone());
            // Readers all run at once afterwards, writers one after another.
            let kind = if round % 2 == 0 { "reads" } else { "writes" };
            let waiters: Vec<_> = (2..5)
                .map(|i| task(id + i, &format!("{kind} Race:*")))
                .collect();
            for t in &waiters {
                h.sched.submit(t.clone());
                assert_eq!(t.status(), TaskStatus::Waiting);
            }
            *pair.lock() = vec![x.clone(), y];
            step.wait(2 * round as usize + 1);
            h.finish(&x);
            step.wait(2 * round as usize + 2);
            for _ in 0..waiters.len() {
                let next = waiters.iter().find(|t| t.status() == TaskStatus::Enabled);
                let next = next.unwrap_or_else(|| panic!("round {round}: a waiter is stranded"));
                h.finish(next);
            }
            assert!(waiters.iter().all(|t| t.is_done()), "round {round}");
        }
        other.join().expect("the second completer");
        assert_eq!(h.sched.diagnostics().recorded_effects, 0);
    }
}
