//! Dynamic effects (chapter 7): references as regions, dynamic reference
//! sets, conflict detection, and abort/retry support.
//!
//! Some algorithms (Delaunay-style mesh refinement, graph algorithms) touch a
//! set of objects that can only be discovered *while the task runs*, so no
//! static effect summary short of "the whole data structure" covers them.
//! Chapter 7 extends TWE with *dynamic effects*: a task may add effects on
//! individual object references to its effect set as it executes; the runtime
//! detects conflicts between such dynamically-added effects and aborts and
//! retries one of the conflicting tasks.
//!
//! In this implementation every [`DynCell`] owns a *reference region*
//! interned into the global RPL arena as `Root:__DynRegion:[id]` (under the
//! reserved [`twe_effects::arena::dyn_region_root`]), so a dynamic region id
//! **is** an ordinary [`RplId`]: disjointness against any static effect is
//! the same O(1) id test the schedulers use everywhere else, a cell's region
//! can be named in a static [`twe_effects::EffectSet`] (via [`DynCell::rpl`])
//! and scheduled through the tree scheduler like any other region, and the
//! `__DynRegion` subtree is disjoint from every statically-declared region —
//! the same argument the paper uses for Java atomics (§5.5.4). Conflicts
//! between *claims* are only possible between dynamic effects on the same
//! cell, so each cell keeps its own claims, as the paper keeps a dynamic
//! effect set per object (§7.5), with the same abort-the-requester / retry
//! resolution (§7.2.4).
//!
//! A region lives exactly as long as its cell, as in the paper, where the
//! JVM collector is TWEJava's only reclaimer: the cell owns a
//! [`DynRegion`], and dropping the cell frees the id for a later cell under
//! a bumped generation ([`twe_effects::reclaim`]), so a workload churning
//! through millions of short-lived cells keeps a bounded arena footprint.
//! A task holds its claims' state, not the cell: a claim that outlives its
//! cell names state no later cell shares, and never delays the id's reuse.
//! See "Reclamation" in `ARCHITECTURE.md`.

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::Arc;
use twe_effects::arena::RplId;
use twe_effects::reclaim::DynRegion;
use twe_effects::Rpl;

/// Error returned when adding a dynamic effect conflicts with another task's
/// dynamic effects; the requesting task should abort and retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aborted;

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dynamic effect conflict: task aborted, retry")
    }
}

impl std::error::Error for Aborted {}

/// A shared object with its own unique *reference region*.
///
/// Tasks must acquire the region (via `TaskCtx::acquire_read` /
/// `TaskCtx::acquire_write`) before touching the data; the cell's claims
/// then guarantee that no two tasks with conflicting dynamic effects run
/// concurrently, whichever runtimes they run on. The inner `RwLock` keeps
/// the data memory-safe even if a buggy caller skips the acquire (in
/// TWEJava the static checker would reject such code; in Rust we fall back
/// to the lock): it can go only once access is checked against the task's
/// effects, which nothing does yet.
///
/// The reference region is a real arena region (`Root:__DynRegion:[id]`), so
/// [`DynCell::rpl`] can also be used to declare a *static* effect on the
/// cell and route it through the effect-aware schedulers.
pub struct DynCell<T> {
    /// Dropped with the cell, which frees the id for the next cell. Reaching
    /// the drop proves no task names this era: a task with a static effect
    /// on `rpl()` got the id from a cell its submitter keeps alive across
    /// the task, and a claim holds only `claims`.
    region: DynRegion,
    /// The tasks that hold dynamic effects on this cell. A claiming task
    /// keeps a clone until it releases.
    pub(crate) claims: Arc<Claims>,
    data: RwLock<T>,
}

impl<T> DynCell<T> {
    /// Wraps `value` in a new cell with a reference region of its own.
    pub fn new(value: T) -> Arc<Self> {
        Arc::new(DynCell {
            region: DynRegion::allocate(),
            claims: Arc::default(),
            data: RwLock::new(value),
        })
    }

    /// The interned id of this cell's reference region.
    ///
    /// The id is stable and arena-resolvable forever, but it names *this*
    /// cell only while the cell is alive: once the cell drops, a later cell
    /// may get the same id under a bumped [`DynCell::generation`].
    pub fn region_id(&self) -> RplId {
        self.region.id()
    }

    /// The era of this cell's region: `(region_id, generation)` is unique
    /// across the whole process lifetime even though `region_id` alone is
    /// not.
    pub fn generation(&self) -> u32 {
        self.region.generation()
    }

    /// The cell's reference region as an ordinary fully-specified RPL
    /// (`Root:__DynRegion:[id]`), usable in static effect declarations.
    ///
    /// **One discipline per cell:** a cell must be guarded either by
    /// dynamic claims (`acquire_read`/`acquire_write`, optimistic
    /// abort-and-retry) or by static effects on this RPL (pessimistic
    /// scheduling) — not both concurrently. The cell's claims and the
    /// schedulers do not check against each other (the paper likewise keeps
    /// the two conflict planes separate, §7.5), so a task holding a static
    /// effect on the cell is invisible to another task's `acquire_*` and
    /// vice versa; mixing the disciplines on one cell forfeits isolation
    /// for it. Nothing enforces the rule yet: a cell's discipline can be
    /// fixed only at its first checked access, and access is not checked.
    pub fn rpl(&self) -> Rpl {
        self.region.rpl()
    }

    /// Read access to the data (the caller should hold a read or write claim).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.data.read()
    }

    /// Write access to the data (the caller should hold a write claim).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.data.write()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for DynCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DynCell#{}g{}({:?})",
            self.region.id().index(),
            self.region.generation(),
            &*self.data.read()
        )
    }
}

/// The dynamic effects tasks hold on one cell.
#[derive(Default)]
pub(crate) struct Claims(Mutex<Holders>);

/// Who holds a claim: its runtime's id and its task's id. Task ids are
/// unique only within a runtime, and runtimes may share a cell.
pub(crate) type Holder = (u64, u64);

#[derive(Default)]
struct Holders {
    writer: Option<Holder>,
    readers: Vec<Holder>,
}

impl Claims {
    /// Adds a dynamic read (or, with `write`, write) effect for `task`.
    /// Fails if another task writes the cell or, for a write, reads it.
    pub(crate) fn acquire(&self, task: Holder, write: bool) -> Result<(), Aborted> {
        let mut holders = self.0.lock();
        let Holders { writer, readers } = &mut *holders;
        if writer.is_some_and(|owner| owner != task) {
            return Err(Aborted);
        }
        if write {
            if readers.iter().any(|&r| r != task) {
                return Err(Aborted);
            }
            *writer = Some(task);
            readers.clear();
        } else if *writer != Some(task) && !readers.contains(&task) {
            readers.push(task);
        }
        Ok(())
    }

    /// Drops every effect `task` holds here.
    pub(crate) fn release(&self, task: Holder) {
        let mut holders = self.0.lock();
        if holders.writer == Some(task) {
            holders.writer = None;
        }
        holders.readers.retain(|&r| r != task);
    }
}

/// Counters describing the dynamic-effect activity of a runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynamicStats {
    /// Successful dynamic-effect additions.
    pub acquires: u64,
    /// Conflicts detected (each causes the requesting task to abort).
    pub conflicts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Runtime, SchedulerKind};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};
    use twe_effects::{arena, EffectSet};

    #[test]
    fn readers_share_writers_exclude() {
        let (a, b) = (DynCell::new(()), DynCell::new(()));
        assert!(a.claims.acquire((0, 1), false).is_ok());
        assert!(a.claims.acquire((0, 2), false).is_ok());
        // A writer conflicts with the existing readers.
        assert_eq!(a.claims.acquire((0, 3), true), Err(Aborted));
        // Readers of a different cell are unaffected.
        assert!(b.claims.acquire((0, 3), true).is_ok());
        // And another task cannot read what task 3 writes.
        assert_eq!(b.claims.acquire((0, 1), false), Err(Aborted));
    }

    #[test]
    fn same_task_can_upgrade_and_reacquire() {
        let cell = DynCell::new(());
        let claims = &cell.claims;
        assert!(claims.acquire((0, 1), false).is_ok());
        assert!(claims.acquire((0, 1), true).is_ok());
        assert!(claims.acquire((0, 1), true).is_ok());
        assert!(claims.acquire((0, 1), false).is_ok());
        // Another task still conflicts.
        assert_eq!(claims.acquire((0, 2), false), Err(Aborted));
        // One release gives back all four.
        claims.release((0, 1));
        assert!(claims.acquire((0, 2), true).is_ok());
    }

    #[test]
    fn release_makes_region_available_again() {
        let cell = DynCell::new(());
        let claims = &cell.claims;
        assert!(claims.acquire((0, 1), true).is_ok());
        assert_eq!(claims.acquire((0, 2), true), Err(Aborted));
        claims.release((0, 1));
        assert!(claims.acquire((0, 2), true).is_ok());
        claims.release((0, 2));
        // A reader's release leaves the other readers' claims standing.
        assert!(claims.acquire((0, 1), false).is_ok());
        assert!(claims.acquire((0, 2), false).is_ok());
        claims.release((0, 1));
        assert_eq!(claims.acquire((0, 3), true), Err(Aborted));
        claims.release((0, 2));
        assert!(claims.acquire((0, 3), true).is_ok());
    }

    #[test]
    fn stats_count_acquires_and_conflicts() {
        let rt = Runtime::new(1, SchedulerKind::Tree);
        let (a, b) = (DynCell::new(0u32), DynCell::new(0u32));
        let rival = rt.run("claimer", EffectSet::pure(), move |ctx| {
            ctx.acquire_write(&a).unwrap();
            ctx.acquire_write(&b).unwrap();
            // An `execute` child is another task: it meets its caller's
            // claim.
            ctx.execute("rival", EffectSet::pure(), move |ctx| ctx.acquire_write(&a))
        });
        assert_eq!(rival, Err(Aborted));
        let stats = rt.stats().dynamic;
        assert_eq!(stats.acquires, 2);
        assert_eq!(stats.conflicts, 1);
    }

    #[test]
    fn a_task_of_another_runtime_with_the_same_id_neither_shares_nor_releases_a_claim() {
        let (a, b) = (
            Runtime::new(1, SchedulerKind::Tree),
            Runtime::new(1, SchedulerKind::Tree),
        );
        let cell = DynCell::new(0u32);
        let (stranger, next) = a.run("holder", EffectSet::pure(), move |ctx| {
            ctx.acquire_write(&cell).unwrap();
            let (holder, c) = (ctx.task_id(), cell.clone());
            let stranger = b.run("stranger", EffectSet::pure(), move |ctx| {
                assert_eq!(ctx.task_id(), holder, "both runtimes number from 1");
                ctx.acquire_write(&c)
            });
            // Runtime `b` has released whatever its task held.
            let next = ctx.execute("next", EffectSet::pure(), move |ctx| {
                ctx.acquire_write(&cell)
            });
            (stranger, next)
        });
        assert_eq!(next, Err(Aborted), "the holder still runs");
        assert_eq!(stranger, Err(Aborted));
    }

    #[test]
    fn dyncell_regions_are_unified_rpl_ids() {
        let a: Arc<DynCell<i32>> = DynCell::new(1);
        let b: Arc<DynCell<i32>> = DynCell::new(2);
        assert_ne!(a.region_id(), b.region_id());
        *a.write() += 10;
        assert_eq!(*a.read(), 11);
        assert_eq!(*b.read(), 2);
        // The reference region is a real arena region under __DynRegion…
        assert_eq!(arena::parent(a.region_id()), arena::dyn_region_root());
        assert!(a.rpl().is_fully_specified());
        assert_eq!(a.rpl().prefix_id(), a.region_id());
        // …so disjointness against static regions and other cells is the
        // ordinary O(1) conflict test.
        assert!(a.rpl().disjoint(&b.rpl()));
        assert!(!a.rpl().disjoint(&a.rpl()));
        assert!(a.rpl().disjoint(&Rpl::parse("Data:[3]")));
        // A `__DynRegion:[?]` wildcard claim overlaps every cell.
        let any_cell =
            Rpl::from_prefix_id(arena::dyn_region_root()).child(twe_effects::RplElement::AnyIndex);
        assert!(!any_cell.disjoint(&a.rpl()));
    }

    /// The next cell to get the freed `id`. Other tests allocate
    /// concurrently and may take it first, so every other cell is held
    /// until it comes back. A fresh id (generation 0) means the free list is
    /// empty and another test's cell holds ours: wait for that cell to drop.
    fn the_cell_that_gets(id: RplId) -> Arc<DynCell<()>> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut held = Vec::new();
        loop {
            let next = DynCell::new(());
            if next.region_id() == id {
                return next;
            }
            if next.generation() == 0 {
                assert!(
                    Instant::now() < deadline,
                    "the dropped cell's id never came back"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            held.push(next);
        }
    }

    #[test]
    fn dropping_a_cell_retires_its_region() {
        let cell = DynCell::new(());
        let (id, generation) = (cell.region_id(), cell.generation());
        drop(cell);
        // Its era is past ours (ours + 1 unless another cell had it
        // meanwhile).
        let back = the_cell_that_gets(id);
        assert!(
            back.generation() > generation,
            "drop must end the cell's era"
        );
    }

    #[test]
    fn a_recycled_id_starts_its_era_unclaimed() {
        let cell = DynCell::new(());
        cell.claims.acquire((0, 1), true).unwrap();
        // Task 1 still holds the claim when the cell drops.
        let (id, held) = (cell.region_id(), cell.claims.clone());
        drop(cell);
        let next = the_cell_that_gets(id);
        // The same id under the next era is another cell.
        assert!(next.claims.acquire((0, 2), true).is_ok());
        assert_eq!(held.acquire((0, 2), true), Err(Aborted));
    }

    #[test]
    fn concurrent_claims_never_grant_two_writers() {
        let cells: Arc<Vec<_>> = Arc::new((0..100).map(|_| DynCell::new(())).collect());
        let successes = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8u64)
            .map(|task| {
                let cells = cells.clone();
                let successes = successes.clone();
                std::thread::spawn(move || {
                    for cell in cells.iter() {
                        if cell.claims.acquire((0, task + 1), true).is_ok() {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Exactly one winner per cell.
        assert_eq!(successes.load(Ordering::Relaxed), 100);
    }
}
