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
//! In this implementation every [`DynCell`] owns a fresh *reference region*
//! interned into the global RPL arena as `Root:__DynRegion:[id]` (under the
//! reserved [`twe_effects::arena::dyn_region_root`]), so a dynamic region id
//! **is** an ordinary [`RplId`]: disjointness against any static effect is
//! the same O(1) id test the schedulers use everywhere else, a cell's region
//! can be named in a static [`twe_effects::EffectSet`] (via [`DynCell::rpl`])
//! and scheduled through the tree scheduler like any other region, and the
//! `__DynRegion` subtree is disjoint from every statically-declared region —
//! the same argument the paper uses for Java atomics (§5.5.4). Conflicts
//! between *claims* are only possible between dynamic effects on the same
//! cell, and a sharded claim table keyed by the region id performs exactly
//! the conflict check the paper's per-tree-node dynamic effect sets perform
//! (§7.5), with the same abort-the-requester / retry resolution (§7.2.4).
//!
//! Reference regions are **recyclable**: cells allocate their region
//! through the process-global epoch reclaimer
//! ([`twe_effects::reclaim::global`]) and [`DynCell`]'s `Drop` retires it,
//! so a workload churning through millions of short-lived cells keeps a
//! bounded arena footprint instead of leaking one interned entry per cell.
//! Dropping also notifies live runtimes (claim-table entry dropped, tree
//! scheduler node pruned) before the id can start a new era. See the
//! reclamation contract in `ARCHITECTURE.md` and the pin/generation
//! discipline on [`DynCell::region_id`].

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use twe_effects::arena::RplId;
use twe_effects::reclaim::{self, DynRegion, Reclaimer};
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

/// Allocates a reference region `Root:__DynRegion:[n]` through the
/// process-global epoch reclaimer ([`twe_effects::reclaim::global`]).
///
/// The arena stays append-only, but the *logical* region is recyclable:
/// when the owning cell drops, [`DynCell`]'s `Drop` retires the region and
/// — once the epoch grace period has passed — a later cell reuses the same
/// interned id under a bumped generation. Steady-state arena footprint is
/// therefore bounded by the live-cell window, not by the total number of
/// cells ever created; `BENCH_reclaim.json` tracks this against the
/// pre-reclamation leak baseline.
fn fresh_dyn_region() -> DynRegion {
    reclaim::global().allocate()
}

/// A consumer of region-retired notifications (the runtime: it drops the
/// claim table's per-region state and lets the scheduler prune the
/// region's tree node). Registered weakly so dropped runtimes unregister
/// themselves.
pub(crate) trait RegionRetireSink: Send + Sync {
    /// `region` has been retired: no task's effect set can still name it.
    fn region_retired(&self, region: RplId);
}

fn retire_sinks() -> &'static Mutex<Vec<Weak<dyn RegionRetireSink>>> {
    static SINKS: OnceLock<Mutex<Vec<Weak<dyn RegionRetireSink>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a runtime for retire notifications (process-global, weak).
pub(crate) fn register_retire_sink(sink: Weak<dyn RegionRetireSink>) {
    let mut sinks = retire_sinks().lock();
    sinks.retain(|s| s.strong_count() > 0);
    sinks.push(sink);
}

/// Notifies every live runtime that `region` is retired. The sink list is
/// snapshotted first: sinks take scheduler locks, so none are held here.
fn notify_region_retired(region: RplId) {
    let live: Vec<Arc<dyn RegionRetireSink>> = {
        let sinks = retire_sinks().lock();
        sinks.iter().filter_map(Weak::upgrade).collect()
    };
    for sink in live {
        sink.region_retired(region);
    }
}

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
    region: DynRegion,
    data: RwLock<T>,
}

impl<T> DynCell<T> {
    /// Wraps `value` in a new cell with a fresh reference region.
    pub fn new(value: T) -> Arc<Self> {
        Arc::new(DynCell {
            region: fresh_dyn_region(),
            data: RwLock::new(value),
        })
    }

    /// The interned id of this cell's reference region.
    ///
    /// The id is stable and arena-resolvable forever, but it names *this*
    /// cell only while the cell is alive: after the cell drops, the epoch
    /// reclaimer may recycle the id for a new cell under a bumped
    /// generation ([`DynCell::generation`]). Code holding the cell's `Arc`
    /// may use the id freely; code stashing raw ids across the cell's
    /// lifetime must pin ([`twe_effects::reclaim::Reclaimer::pin`]) and
    /// generation-check instead.
    pub fn region_id(&self) -> RplId {
        self.region.id()
    }

    /// The era of this cell's region: recycling the id for a later cell
    /// bumps it, so `(region_id, generation)` is unique across the whole
    /// process lifetime even though `region_id` alone is not.
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
    /// for it. Nothing enforces the rule; ROADMAP parks a claim-table mode
    /// bit that would.
    pub fn rpl(&self) -> Rpl {
        Rpl::from_prefix_id(self.region.id())
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

impl<T> Drop for DynCell<T> {
    fn drop(&mut self) {
        // Reaching drop proves quiescence: under the one-discipline
        // contract every task naming this region — through a claim
        // (`acquire_*` holds the `Arc` via `TaskCtx`) or a static effect
        // on `rpl()` (the effect set names an id obtained from a live
        // cell the caller keeps alive across the task) — holds the cell,
        // so no live task's effect set can still name the region. Clear
        // the runtime state keyed on the id first (claim-table entry,
        // scheduler tree node), then hand the id to the epoch reclaimer;
        // only after the grace period can a new cell reuse it.
        notify_region_retired(self.region.id());
        reclaim::global().retire(self.region);
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
/// reference regions. Sharded by region id to keep the hot path scalable.
pub struct DynamicEffectTable {
    shards: Vec<Mutex<HashMap<RplId, ClaimEntry>>>,
    acquires: AtomicU64,
    conflicts: AtomicU64,
}

impl Default for DynamicEffectTable {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicEffectTable {
    /// Creates an empty table with a fixed shard count.
    pub fn new() -> Self {
        DynamicEffectTable {
            shards: (0..64).map(|_| Mutex::new(HashMap::new())).collect(),
            acquires: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
        }
    }

    fn shard(&self, region: RplId) -> &Mutex<HashMap<RplId, ClaimEntry>> {
        &self.shards[(region.index() as usize) % self.shards.len()]
    }

    /// Adds a dynamic *read* effect on `region` for `task`.
    ///
    /// Fails (and counts a conflict) if another task holds a write claim.
    ///
    /// The op runs under an epoch pin: callers reach here holding the
    /// cell's `Arc` (via `TaskCtx`), which already blocks retirement, but
    /// the pin makes the table robust on its own terms — the region
    /// cannot be recycled mid-operation even for a caller that passed a
    /// raw id, so the entry this claim lands in is never a new era's.
    pub fn acquire_read(&self, task: u64, region: RplId) -> Result<(), Aborted> {
        let _pin = reclaim::global().pin();
        let mut shard = self.shard(region).lock();
        let entry = shard.entry(region).or_default();
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
    ///
    /// Runs under an epoch pin, like [`DynamicEffectTable::acquire_read`].
    pub fn acquire_write(&self, task: u64, region: RplId) -> Result<(), Aborted> {
        let _pin = reclaim::global().pin();
        let mut shard = self.shard(region).lock();
        let entry = shard.entry(region).or_default();
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
    pub fn holds(&self, task: u64, region: RplId) -> bool {
        let shard = self.shard(region).lock();
        shard
            .get(&region)
            .map(|e| e.writer == Some(task) || e.readers.contains(&task))
            .unwrap_or(false)
    }

    /// Releases every claim `task` holds on the given regions (called when a
    /// task completes, aborts, or retries).
    pub fn release_all(&self, task: u64, regions: &[RplId]) {
        for &region in regions {
            let mut shard = self.shard(region).lock();
            if let Some(entry) = shard.get_mut(&region) {
                if entry.writer == Some(task) {
                    entry.writer = None;
                }
                entry.readers.retain(|&r| r != task);
                if entry.is_empty() {
                    shard.remove(&region);
                }
            }
        }
    }

    /// Drops all per-region state for a retired region.
    ///
    /// Called when the owning [`DynCell`] drops; at that point the
    /// one-discipline contract guarantees no task still holds a claim on
    /// it, so the entry (if any) records only stale bookkeeping. Removing
    /// it keeps the table's footprint proportional to *live* claimed
    /// regions even under cell churn, and guarantees a recycled id starts
    /// its next era with a clean entry.
    pub fn forget_region(&self, region: RplId) {
        self.shard(region).lock().remove(&region);
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

    /// A stable test region per tag, allocated through the real
    /// [`fresh_dyn_region`] path — the same allocator (and recycler)
    /// production cells use — instead of hand-minting `Index(1_000_000 +
    /// tag)` arena children behind the reclaimer's back. The handles are
    /// kept (never retired), so the ids can never be recycled out from
    /// under the claims these tests record.
    fn region(tag: i64) -> RplId {
        static REGIONS: OnceLock<Mutex<HashMap<i64, DynRegion>>> = OnceLock::new();
        let mut map = REGIONS.get_or_init(|| Mutex::new(HashMap::new())).lock();
        map.entry(tag).or_insert_with(fresh_dyn_region).id()
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
        let id = cell.region_id();
        let generation = cell.generation();
        assert_eq!(reclaim::global().generation_of(id), Some(generation));
        drop(cell);
        // Retire bumps the generation immediately; the id may since have
        // been recycled (and re-retired) by concurrent tests, so the era
        // is strictly past ours rather than exactly ours + 1.
        let now = reclaim::global()
            .generation_of(id)
            .expect("cell regions are reclaimer-tracked");
        assert!(now > generation, "drop must end the cell's era");
    }

    #[test]
    fn forget_region_clears_claims() {
        let table = DynamicEffectTable::new();
        let r = region(9_000);
        assert!(table.acquire_write(1, r).is_ok());
        assert!(table.holds(1, r));
        table.forget_region(r);
        assert!(!table.holds(1, r));
        // A recycled id starts its next era unclaimed.
        assert!(table.acquire_write(2, r).is_ok());
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
