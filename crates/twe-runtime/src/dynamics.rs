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
//! cell, and a claim table keyed by the cell's region performs exactly the
//! conflict check the paper's per-tree-node dynamic effect sets perform
//! (§7.5), with the same abort-the-requester / retry resolution (§7.2.4).
//!
//! A region lives exactly as long as its cell, as in the paper, where the
//! JVM collector is TWEJava's only reclaimer: the cell owns a
//! [`DynRegion`], and dropping the cell frees the id for a later cell under
//! a bumped generation ([`twe_effects::reclaim`]), so a workload churning
//! through millions of short-lived cells keeps a bounded arena footprint.
//! Claims are keyed by `(id, generation)`, so a claim a task still holds on
//! a dropped cell never meets the id's next era. See "Reclamation" in
//! `ARCHITECTURE.md`.

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// What a dynamic claim names: a cell's region id and the era (generation)
/// of that id the cell owns. The id alone is reused by later cells; the
/// pair names one cell for the life of the process.
pub type RegionEra = (RplId, u32);

/// A shared object with its own unique *reference region*.
///
/// Tasks must acquire the region (via `TaskCtx::acquire_read` /
/// `TaskCtx::acquire_write`) before touching the data; the claim table then
/// guarantees that no two tasks with conflicting dynamic effects run
/// concurrently. The inner `RwLock` keeps the data memory-safe even if a
/// buggy caller skips the acquire (in TWEJava the static checker would reject
/// such code; in Rust we fall back to the lock).
///
/// The reference region is a real arena region (`Root:__DynRegion:[id]`), so
/// [`DynCell::rpl`] can also be used to declare a *static* effect on the
/// cell and route it through the effect-aware schedulers.
pub struct DynCell<T> {
    /// Dropped with the cell, which frees the id for the next cell. Reaching
    /// the drop proves no task names this era: a task that claims the cell
    /// holds its `Arc`, and a task with a static effect on `rpl()` got the
    /// id from a cell its submitter keeps alive across the task.
    region: DynRegion,
    data: RwLock<T>,
}

impl<T> DynCell<T> {
    /// Wraps `value` in a new cell with a reference region of its own.
    pub fn new(value: T) -> Arc<Self> {
        Arc::new(DynCell {
            region: DynRegion::allocate(),
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
    /// scheduling) — not both concurrently. The claim table and the
    /// schedulers do not check against each other (the paper likewise keeps
    /// the two conflict planes separate, §7.5), so a task holding a static
    /// effect on the cell is invisible to another task's `acquire_*` and
    /// vice versa; mixing the disciplines on one cell forfeits isolation
    /// for it. Nothing enforces the rule yet: ROADMAP's "Dynamic effects
    /// live on their cell" item fixes a cell's discipline at its first
    /// checked access.
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

    /// What a claim on this cell is keyed by.
    pub(crate) fn era(&self) -> RegionEra {
        (self.region.id(), self.region.generation())
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

#[derive(Default, Debug)]
struct ClaimEntry {
    writer: Option<u64>,
    readers: Vec<u64>,
}

impl ClaimEntry {
    fn is_empty(&self) -> bool {
        self.writer.is_none() && self.readers.is_empty()
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

/// The table recording which task currently holds dynamic effects on which
/// cell, keyed by the cell's [`RegionEra`]. An entry lives while some task
/// holds a claim in it.
#[derive(Default)]
pub struct DynamicEffectTable {
    claims: Mutex<HashMap<RegionEra, ClaimEntry>>,
    acquires: AtomicU64,
    conflicts: AtomicU64,
}

impl DynamicEffectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a dynamic *read* effect on `region` for `task`.
    ///
    /// Fails (and counts a conflict) if another task holds a write claim.
    pub fn acquire_read(&self, task: u64, region: RegionEra) -> Result<(), Aborted> {
        let mut claims = self.claims.lock();
        let entry = claims.entry(region).or_default();
        match entry.writer {
            Some(owner) if owner != task => {
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                Err(Aborted)
            }
            _ => {
                if !entry.readers.contains(&task) {
                    entry.readers.push(task);
                }
                self.acquires.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    /// Adds a dynamic *write* effect on `region` for `task`.
    ///
    /// Fails (and counts a conflict) if another task holds any claim on it.
    pub fn acquire_write(&self, task: u64, region: RegionEra) -> Result<(), Aborted> {
        let mut claims = self.claims.lock();
        let entry = claims.entry(region).or_default();
        let other_writer = matches!(entry.writer, Some(owner) if owner != task);
        let other_reader = entry.readers.iter().any(|&r| r != task);
        if other_writer || other_reader {
            self.conflicts.fetch_add(1, Ordering::Relaxed);
            return Err(Aborted);
        }
        entry.writer = Some(task);
        entry.readers.retain(|&r| r != task);
        self.acquires.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Does `task` currently hold a claim (read or write) on `region`?
    pub fn holds(&self, task: u64, region: RegionEra) -> bool {
        self.claims
            .lock()
            .get(&region)
            .is_some_and(|e| e.writer == Some(task) || e.readers.contains(&task))
    }

    /// Releases every claim `task` holds on the given regions (called when a
    /// task completes, aborts, or retries).
    pub fn release_all(&self, task: u64, regions: &[RegionEra]) {
        let mut claims = self.claims.lock();
        for region in regions {
            if let Some(entry) = claims.get_mut(region) {
                if entry.writer == Some(task) {
                    entry.writer = None;
                }
                entry.readers.retain(|&r| r != task);
                if entry.is_empty() {
                    claims.remove(region);
                }
            }
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> DynamicStats {
        DynamicStats {
            acquires: self.acquires.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twe_effects::arena;

    /// A claim key per tag. The table never looks at what an id names, so
    /// these are static regions: taking ids off the free list here would
    /// hold them for the rest of the process, away from the tests that
    /// expect a freed id back.
    fn region(tag: i64) -> RegionEra {
        (Rpl::parse(&format!("ClaimTest:[{tag}]")).prefix_id(), 0)
    }

    #[test]
    fn readers_share_writers_exclude() {
        let table = DynamicEffectTable::new();
        assert!(table.acquire_read(1, region(100)).is_ok());
        assert!(table.acquire_read(2, region(100)).is_ok());
        // A writer conflicts with the existing readers.
        assert_eq!(table.acquire_write(3, region(100)), Err(Aborted));
        // Readers of a different region are unaffected.
        assert!(table.acquire_write(3, region(200)).is_ok());
        // And another task cannot read what task 3 writes.
        assert_eq!(table.acquire_read(1, region(200)), Err(Aborted));
    }

    #[test]
    fn same_task_can_upgrade_and_reacquire() {
        let table = DynamicEffectTable::new();
        assert!(table.acquire_read(1, region(7)).is_ok());
        assert!(table.acquire_write(1, region(7)).is_ok());
        assert!(table.acquire_write(1, region(7)).is_ok());
        assert!(table.acquire_read(1, region(7)).is_ok());
        assert!(table.holds(1, region(7)));
        // Another task still conflicts.
        assert_eq!(table.acquire_read(2, region(7)), Err(Aborted));
    }

    #[test]
    fn release_makes_region_available_again() {
        let table = DynamicEffectTable::new();
        assert!(table.acquire_write(1, region(42)).is_ok());
        assert_eq!(table.acquire_write(2, region(42)), Err(Aborted));
        table.release_all(1, &[region(42)]);
        assert!(!table.holds(1, region(42)));
        assert!(table.acquire_write(2, region(42)).is_ok());
    }

    #[test]
    fn stats_count_acquires_and_conflicts() {
        let table = DynamicEffectTable::new();
        table.acquire_write(1, region(301)).unwrap();
        table.acquire_write(1, region(302)).unwrap();
        let _ = table.acquire_write(2, region(301));
        let stats = table.stats();
        assert_eq!(stats.acquires, 2);
        assert_eq!(stats.conflicts, 1);
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

    #[test]
    fn dropping_a_cell_retires_its_region() {
        let cell: Arc<DynCell<i32>> = DynCell::new(7);
        let (id, generation) = (cell.region_id(), cell.generation());
        drop(cell);
        // The id is free again. Other tests allocate concurrently and may
        // take it first, so hold every other cell until it comes back; its
        // era is past ours (ours + 1 unless another cell had it meanwhile).
        // A fresh id (generation 0) means the free list is empty and another
        // test's cell holds ours: wait for that cell to drop.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut held = Vec::new();
        let back = loop {
            let next = DynCell::new(0);
            if next.region_id() == id {
                break next;
            }
            if next.generation() == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the dropped cell's id never came back"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            held.push(next);
        };
        assert!(
            back.generation() > generation,
            "drop must end the cell's era"
        );
    }

    #[test]
    fn a_recycled_id_starts_its_era_unclaimed() {
        let table = DynamicEffectTable::new();
        let (id, generation) = region(9_000);
        assert!(table.acquire_write(1, (id, generation)).is_ok());
        // The same id under the next era is another cell.
        assert!(table.acquire_write(2, (id, generation + 1)).is_ok());
        assert!(table.holds(1, (id, generation)));
        assert!(!table.holds(1, (id, generation + 1)));
    }

    #[test]
    fn concurrent_claims_never_grant_two_writers() {
        let table = Arc::new(DynamicEffectTable::new());
        let successes = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8u64)
            .map(|task| {
                let table = table.clone();
                let successes = successes.clone();
                std::thread::spawn(move || {
                    for r in 0..100i64 {
                        if table.acquire_write(task + 1, region(2_000 + r)).is_ok() {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Exactly one winner per region.
        assert_eq!(successes.load(Ordering::Relaxed), 100);
    }
}
