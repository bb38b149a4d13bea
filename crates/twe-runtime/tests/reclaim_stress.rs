//! Reclamation stress: dynamic reference regions (`DynCell`) are created
//! and dropped at high rate while conflict walks run over the very subtree
//! being recycled, exercising the full PR-7 stack end to end:
//!
//! * `DynCell::drop` → retire-sink notifications (claim-table purge +
//!   tree prune) → epoch retire, racing wildcard sweepers whose
//!   `check_below` walks visit `__DynRegion` nodes as they disappear;
//! * id recycling under the epoch reclaimer: a recycled id must come back
//!   with a bumped generation (the stale-handle check fires) and must
//!   never alias the previous era's claims or tree state;
//! * bounded footprint: tens of thousands of create/drop cycles must not
//!   grow the interned arena or the scheduling tree monotonically.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use twe_effects::reclaim::{self, Reclaimer};
use twe_effects::{arena, EffectSet};
use twe_runtime::{DynCell, Runtime, SchedulerKind};

/// The tests of this binary all churn the **global** reclaimer and measure
/// global counters (arena length, mint/recycle stats), so they must not
/// interleave: a concurrent test's pins would stall recycling mid-
/// measurement and its allocations would steal recycled ids.
static SERIAL: Mutex<()> = Mutex::new(());

/// Writers churn cells (create → two conflicting tasks → drop) while
/// sweepers repeatedly claim the whole `__DynRegion` subtree, forcing
/// conflict walks over region nodes that are concurrently retired, pruned,
/// and recycled. Every task must still run exactly once.
#[test]
fn cell_churn_races_wildcard_conflict_walks() {
    let _serial = SERIAL.lock();
    const CHURNERS: usize = 3;
    const CYCLES: usize = 200;

    let rt = Arc::new(Runtime::new(4, SchedulerKind::Tree));
    let ran = Arc::new(AtomicUsize::new(0));
    let sweeps = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for _ in 0..CHURNERS {
            let rt = rt.clone();
            let ran = ran.clone();
            scope.spawn(move || {
                for i in 0..CYCLES {
                    let cell = DynCell::new(0u64);
                    let effects = EffectSet::parse(&format!("writes {}", cell.rpl()));
                    // Two conflicting writers on the same region: the
                    // second must park behind the first at the region's
                    // tree node, so finishing and dropping exercises both
                    // the waiter recheck and the retire prune on a node
                    // that just held a conflict chain.
                    let c1 = cell.clone();
                    let ran1 = ran.clone();
                    let f1 = rt.execute_later("churn-a", effects.clone(), move |ctx| {
                        ctx.acquire_write(&c1).expect("first era never aborts");
                        *c1.write() += 1;
                        ran1.fetch_add(1, Ordering::Relaxed);
                    });
                    let c2 = cell.clone();
                    let ran2 = ran.clone();
                    let f2 = rt.execute_later("churn-b", effects, move |ctx| {
                        ctx.acquire_write(&c2).expect("first era never aborts");
                        *c2.write() += 1;
                        ran2.fetch_add(1, Ordering::Relaxed);
                    });
                    f1.wait();
                    f2.wait();
                    assert_eq!(*cell.read(), 2, "cycle {i}: both writers ran");
                    drop(cell); // retire: claim purge, tree prune, epoch limbo
                }
            });
        }
        // Sweepers: `writes __DynRegion:*` conflicts with every live cell
        // task, so each sweep walks the region nodes of whatever cells
        // exist at that instant — racing their retirement.
        for _ in 0..2 {
            let rt = rt.clone();
            let sweeps = sweeps.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    let sweeps = sweeps.clone();
                    rt.run(
                        "dyn-sweeper",
                        EffectSet::parse("writes __DynRegion:*"),
                        move |_| {
                            sweeps.fetch_add(1, Ordering::Relaxed);
                        },
                    );
                }
            });
        }
    });

    assert_eq!(ran.load(Ordering::Relaxed), CHURNERS * CYCLES * 2);
    assert_eq!(sweeps.load(Ordering::Relaxed), 20);
}

/// A recycled id opens its new era with a bumped generation: the previous
/// era's `DynRegion` handle observes `is_current == false` (the stale-
/// handle generation check fires) and retiring through it is a no-op, so a
/// stale handle can never free the new era's slot out from under it.
#[test]
fn recycled_ids_bump_generation_and_never_alias() {
    let _serial = SERIAL.lock();
    let reclaimer = reclaim::global();
    let cell = DynCell::new(7u32);
    let id = cell.region_id();
    let generation = cell.generation();
    drop(cell);

    // Recycling is not instantaneous (the id sits in the limbo window for
    // two epoch advances) and the free list is a stack, so *hold* every
    // non-matching cell the loop allocates: each held cell removes one id
    // from circulation, which forces the allocator to dig down to the
    // target within a bounded number of tries.
    let mut held = Vec::new();
    let mut reused = None;
    for _ in 0..256 {
        let next = DynCell::new(0u32);
        if next.region_id() == id {
            reused = Some(next);
            break;
        }
        held.push(next);
    }
    let next = reused.expect("the retired id must eventually be recycled");
    assert!(
        next.generation() > generation,
        "the recycled era must carry a bumped generation \
         ({} -> {})",
        generation,
        next.generation()
    );
    // The old era's handle is stale: the generation check fires.
    assert_eq!(reclaimer.generation_of(id), Some(next.generation()));
    // And the new era is live and unaliased: its data is its own.
    *next.write() += 5;
    assert_eq!(*next.read(), 5);
}

/// Drop-count regression: ≥10k create/drop cycles with concurrent readers
/// must leave both the interned arena and the scheduling tree bounded —
/// the leak the epoch reclaimer exists to close (before PR 7 every cell
/// interned a fresh arena entry forever).
#[test]
fn churn_footprint_stays_bounded() {
    let _serial = SERIAL.lock();
    const CYCLES: usize = 10_000;

    let rt = Runtime::new(2, SchedulerKind::Tree);
    // Warm up: drain whatever earlier tests of this binary left in the
    // limbo window into the free list, then measure from here.
    for _ in 0..64 {
        drop(DynCell::new(0u8));
    }
    let arena_before = arena::len();
    let stats_before = reclaim::global().stats();

    for i in 0..CYCLES {
        let cell = DynCell::new(i as u64);
        rt.run(
            "footprint",
            EffectSet::parse(&format!("reads {}", cell.rpl())),
            {
                let cell = cell.clone();
                move |ctx| {
                    ctx.acquire_read(&cell).expect("never aborts");
                    assert_eq!(*cell.read(), i as u64);
                }
            },
        );
        drop(cell);
    }

    let stats = reclaim::global().stats();
    let minted = stats.minted - stats_before.minted;
    let recycled = stats.recycled - stats_before.recycled;
    let arena_growth = arena::len() - arena_before;
    assert_eq!(
        minted + recycled,
        CYCLES as u64,
        "every allocate is a mint or a recycle"
    );
    // Single-threaded churn with no long-lived pins recycles aggressively:
    // the arena may grow by the small live-window + limbo transient, never
    // linearly in CYCLES. (The bound is generous — the mechanism under
    // test fails by minting ~CYCLES entries.)
    assert!(
        minted <= 64 && arena_growth <= 64,
        "footprint must stay bounded: minted {minted}, arena grew {arena_growth}"
    );
}
