//! Recycling stress: dynamic reference regions (`DynCell`) are created and
//! dropped at high rate while conflict walks run over the very subtree
//! whose ids are being reused. A dropped cell's id goes straight back on
//! the free list; nothing else happens at the drop, so these tests check
//! what ownership alone has to guarantee:
//!
//! * a recycled id comes back with a bumped generation, and no id is ever
//!   held by two live cells at once;
//! * a dynamic claim that outlives its cell (the task dropped the cell's
//!   last handle before finishing) never meets the id's next era, because
//!   it holds the dropped cell's claim state, which no later cell shares;
//! * wildcard sweepers walking `__DynRegion` nodes race cells whose ids
//!   recycle, and every task still runs exactly once;
//! * bounded footprint: tens of thousands of create/drop cycles grow
//!   neither the interned arena nor the scheduling tree.

use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use twe_effects::{arena, EffectSet};
use twe_runtime::{DynCell, Runtime, SchedulerKind};

/// The tests of this binary share the process-global free list and measure
/// the global arena, so they must not interleave: a concurrent test's
/// allocations would take the ids they expect back and grow the arena
/// mid-measurement.
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
                    // tree node, so finishing exercises the waiter recheck,
                    // and the next cell may reuse the id while the node that
                    // just held the conflict chain is still pending a prune.
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
                    drop(cell); // frees the id for the next cycle's cell
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

/// A dropped cell's id is the next one out, under a bumped generation, and
/// the new era is a cell of its own.
#[test]
fn recycled_ids_bump_generation_and_never_alias() {
    let _serial = SERIAL.lock();
    let cell = DynCell::new(7u32);
    let (id, generation) = (cell.region_id(), cell.generation());
    let other = DynCell::new(0u32);
    assert_ne!(other.region_id(), id, "a live id is never handed out twice");
    drop(cell);
    // Nothing else in this binary allocates while `SERIAL` is held.
    let next = DynCell::new(0u32);
    assert_eq!(next.region_id(), id, "the freed id comes straight back");
    assert_eq!(next.generation(), generation + 1, "under the next era");
    *next.write() += 5;
    assert_eq!(*next.read(), 5, "the new era's data is its own");
}

/// Four threads each keep a window of live cells and churn through 5 000
/// create/drop cycles. A shared set holds the id of every live cell: an
/// insert that finds the id already there means two live cells share it.
/// Once the threads are joined, the arena has grown by at most the peak of
/// cells alive at once, not by the number created.
#[test]
fn concurrent_churn_never_aliases_and_stays_bounded() {
    let _serial = SERIAL.lock();
    const THREADS: usize = 4;
    const CYCLES: usize = 5_000;
    const WINDOW: usize = 8;

    let arena_before = arena::len();
    let live = Mutex::new(HashSet::new());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let mut mine = VecDeque::new();
                for _ in 0..CYCLES {
                    let cell = DynCell::new(0u8);
                    assert!(
                        live.lock().insert(cell.region_id()),
                        "two live cells hold {:?}",
                        cell.rpl()
                    );
                    mine.push_back(cell);
                    if mine.len() > WINDOW {
                        let old = mine.pop_front().expect("over the window");
                        // Out of the set before the drop frees the id.
                        live.lock().remove(&old.region_id());
                        drop(old);
                    }
                }
                for old in mine {
                    live.lock().remove(&old.region_id());
                }
            });
        }
    });
    let arena_growth = arena::len() - arena_before;
    assert!(
        arena_growth <= 64,
        "{} cells grew the arena by {arena_growth}",
        THREADS * CYCLES
    );
}

/// A retryable task claims a cell, drops the last handle to it and so frees
/// its id while still holding the claim, gets the same id back in a new
/// cell, and waits on a task that claims the new cell. The claim it still
/// holds names the old era only, so the waited-on task never aborts; keyed
/// by the id alone, that task would abort until its 1 000th attempt panics.
#[test]
fn a_claim_outliving_its_cell_never_aborts_the_next_era() {
    let _serial = SERIAL.lock();
    let rt = Arc::new(Runtime::new(2, SchedulerKind::Tree));
    let submitter = rt.clone();
    let outer = rt.execute_later_retry("outer", EffectSet::pure(), move |ctx| {
        let cell = DynCell::new(0u32);
        ctx.acquire_write(&cell)?;
        let id = cell.region_id();
        drop(cell);
        let next = DynCell::new(41u32);
        assert_eq!(next.region_id(), id, "the freed id comes straight back");
        let attempts = AtomicUsize::new(0);
        let inner = submitter.execute_later_retry("inner", EffectSet::pure(), move |ctx| {
            let attempt = attempts.fetch_add(1, Ordering::Relaxed);
            assert!(
                attempt < 1_000,
                "the next era's claim aborted {attempt} times"
            );
            ctx.acquire_write(&next)?;
            Ok(*next.read() + 1)
        });
        Ok(inner.get_value(ctx))
    });
    assert_eq!(outer.wait(), 42);
    assert_eq!(rt.stats().task_retries, 0);
}

/// Sequential churn through a runtime: 10 000 create/run/drop cycles reuse
/// a handful of ids, and leave neither the arena nor the scheduling tree
/// grown (before recycling, every cell interned a fresh arena entry
/// forever).
#[test]
fn churn_footprint_stays_bounded() {
    let _serial = SERIAL.lock();
    const CYCLES: usize = 10_000;

    let rt = Runtime::new(2, SchedulerKind::Tree);
    let arena_before = arena::len();
    let mut ids = HashSet::new();
    for i in 0..CYCLES {
        let cell = DynCell::new(i as u64);
        ids.insert(cell.region_id());
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

    let arena_growth = arena::len() - arena_before;
    // One cell alive at a time: the id it frees is the next cell's. (The
    // bounds are generous — a missing recycle mints ~CYCLES entries.)
    assert!(
        ids.len() <= 64 && arena_growth <= 64,
        "footprint must stay bounded: {} ids, arena grew {arena_growth}",
        ids.len()
    );
    assert_eq!(
        rt.stats().scheduler.tree_nodes,
        1,
        "a drained tree is a bare root"
    );
}
