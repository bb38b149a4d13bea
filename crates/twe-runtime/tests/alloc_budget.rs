//! Allocation budgets for the uncontended request path, counted, not timed.
//!
//! A staging `Vec` or a cloned record list on this path costs 60–100 ns that
//! no test notices and every request pays; here it is one allocation over
//! the bar. The allocator counts per thread and only while a measurement is
//! armed, so pool workers and the harness do not disturb the numbers. Run
//! with `--test-threads=1` all the same: the bars are about one submitter.
//! What a task allocates on every thread, from submit to done, is counted
//! by `twe-apps/tests/kmeans_alloc_budget.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use twe_effects::{Effect, EffectSet, Rpl};
use twe_runtime::scheduler::Scheduler;
use twe_runtime::tree::TreeScheduler;
use twe_runtime::{DynCell, Runtime, SchedulerKind, TaskCtx, TaskRecord};

struct Counting;

thread_local! {
    /// Allocations (and growing reallocations) made by this thread while
    /// armed; `None` when not measuring.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the calling thread makes inside `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    COUNT.with(|c| c.set(Some(0)));
    let result = f();
    let n = COUNT.with(|c| c.replace(None)).expect("armed above");
    (n, result)
}

const TENANTS: usize = 16;
const KEYS: usize = 1024;

/// `reads tenant:Key:[key]`, the benchmark's point read.
fn point_read(tenant: &DynCell<u32>, key: usize) -> EffectSet {
    EffectSet::read(tenant.rpl().child_name("Key").child_index(key as i64))
}

fn key_regions(tenants: &[Arc<DynCell<u32>>]) -> Vec<Rpl> {
    // Interned up front, as a service's key space is.
    (0..TENANTS * KEYS)
        .map(|i| {
            tenants[i % TENANTS]
                .rpl()
                .child_name("Key")
                .child_index((i / TENANTS) as i64)
        })
        .collect()
}

#[test]
fn small_effect_sets_build_and_clone_without_allocating() {
    let tenant = DynCell::new(0u32);
    let (a, b, c) = (
        tenant.rpl().child_name("Key").child_index(1),
        tenant.rpl().child_name("Key").child_index(2),
        tenant.rpl().child_name("Key").child_index(3),
    );
    let (n, sets) = allocations(|| {
        let read = EffectSet::read(a);
        let write = EffectSet::write(b);
        let two = EffectSet::from_effects([Effect::read(a), Effect::write(b)]);
        let clones = (read.clone(), write.clone(), two.clone());
        (read, write, two, clones)
    });
    assert_eq!(
        n, 0,
        "allocations building and cloning 1- and 2-effect sets"
    );
    let (read, write, two, (read2, write2, two2)) = sets;
    assert_eq!((read2, write2, &two2), (read, write, &two));
    assert_eq!(two.len(), 2);
    // A third effect spills to the heap and the set stays the same set.
    let (n, three) = allocations(|| {
        let mut three = two.clone();
        three.push(Effect::write(c));
        three
    });
    assert_eq!(n, 1, "a three-effect set spills once");
    assert_eq!(
        three,
        EffectSet::from_effects([Effect::read(a), Effect::write(b), Effect::write(c)])
    );
    assert_ne!(three, two);
    assert!(two.included_in(&three) && !three.included_in(&two));
    assert!(three.interferes(&EffectSet::read(c)) && !two.interferes(&EffectSet::read(c)));
    // The same on three different top-level regions: only the effect list
    // spills.
    let (a, b, c) = (
        Rpl::parse("SpillA"),
        Rpl::parse("SpillB"),
        Rpl::parse("SpillC"),
    );
    let two = EffectSet::from_effects([Effect::read(a), Effect::write(b)]);
    let (n, three) = allocations(|| {
        let mut three = two.clone();
        three.push(Effect::write(c));
        three
    });
    assert_eq!(n, 1, "a spilled set allocates once");
    assert_eq!(three.len(), 3);
}

#[test]
fn tree_submit_and_task_done_stay_within_their_allocation_budgets() {
    const REQUESTS: usize = 4096;
    let tenants: Vec<_> = (0..TENANTS).map(|_| DynCell::new(0u32)).collect();
    let regions = key_regions(&tenants);
    let sched = TreeScheduler::new(Box::new(|_| {}));
    // One long request per tenant keeps `__DynRegion`, the tenant's node and
    // its `Key` node in the tree, as steady traffic does.
    let pinned: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TaskRecord::new(i as u64, "", point_read(t, KEYS), false))
        .collect();
    for task in &pinned {
        sched.submit(task.clone());
    }
    let (mut submit, mut done) = (0, 0);
    for (i, region) in regions.iter().take(REQUESTS).enumerate() {
        let task = TaskRecord::new((TENANTS + i) as u64, "", EffectSet::read(*region), false);
        submit += allocations(|| sched.submit(task.clone())).0;
        task.mark_done();
        done += allocations(|| sched.task_done(&task)).0;
    }
    // The effect record (a one-effect task keeps its handle inline), the
    // leaf node and the leaf's record slots; a drain every 64th request adds
    // two.
    let per_submit = submit as f64 / REQUESTS as f64;
    let per_done = done as f64 / REQUESTS as f64;
    eprintln!("tree: {per_submit} allocations per submit, {per_done} per task_done");
    assert!(per_submit <= 3.5, "{per_submit} allocations per submit");
    assert!(per_done <= 0.01, "{per_done} allocations per task_done");
    for task in &pinned {
        task.mark_done();
        sched.task_done(task);
    }
    assert_eq!(sched.diagnostics().tree_nodes, 1);
}

#[test]
fn submit_all_of_one_stays_within_its_allocation_budget() {
    const REQUESTS: usize = 2048;
    for (kind, bar) in [(SchedulerKind::Tree, 6.5), (SchedulerKind::Naive, 3.5)] {
        let tenants: Vec<_> = (0..TENANTS).map(|_| DynCell::new(0u32)).collect();
        let regions = key_regions(&tenants);
        let rt = Runtime::new(1, kind);
        let mut total = 0;
        for region in regions.iter().take(REQUESTS) {
            let effects = EffectSet::read(*region);
            let (n, futures) = allocations(|| rt.submit_all([("", effects, |_: &TaskCtx<'_>| ())]));
            total += n;
            for future in futures {
                future.wait();
            }
        }
        // The task — record, result slot and body in one allocation, which
        // the pool queues as it is — and the returned `Vec`, plus the
        // scheduler's share (the tree's includes rebuilding the interior
        // nodes a drain pruned: one request at a time leaves them vacant).
        let per_request = total as f64 / REQUESTS as f64;
        eprintln!("{kind:?}: {per_request} allocations per submit_all of one");
        assert!(
            per_request <= bar,
            "{kind:?}: {per_request} allocations per submit_all of one"
        );
    }
}

#[test]
fn tree_submit_batch_stages_a_wave_in_place() {
    const WAVES: usize = 64;
    const WAVE: usize = 64;
    let tenants: Vec<_> = (0..TENANTS).map(|_| DynCell::new(0u32)).collect();
    let regions = key_regions(&tenants);
    let sched = TreeScheduler::new(Box::new(|_| {}));
    let mut total = 0;
    let mut previous: Vec<Arc<TaskRecord>> = Vec::new();
    // Keys scattered over the tenants, so the descent forks at `__DynRegion`
    // and again below each `Key`; one wave stays in flight behind the next.
    let mut state = 1u64;
    for w in 0..WAVES {
        let wave: Vec<_> = (0..WAVE)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let region = regions[(state >> 33) as usize % regions.len()];
                TaskRecord::new((w * WAVE + i) as u64, "", EffectSet::read(region), false)
            })
            .collect();
        let admitted = wave.clone();
        total += allocations(|| sched.submit_batch(admitted)).0;
        for task in previous.drain(..) {
            task.mark_done();
            sched.task_done(&task);
        }
        previous = wave;
    }
    // What a record needs on its own (see above) plus the wave's record
    // vector and a vector of child guards per fork into three or more
    // children (two stay inline): no per-level maps, no per-group vectors.
    let per_record = total as f64 / (WAVES * WAVE) as f64;
    eprintln!("tree: {per_record} allocations per record of a wave of {WAVE}");
    assert!(
        per_record <= 3.6,
        "{per_record} allocations per batched record"
    );
}

#[test]
fn a_wave_of_64_through_submit_all_stays_within_its_allocation_budget() {
    const WAVES: usize = 64;
    const WAVE: usize = 64;
    let tenants: Vec<_> = (0..TENANTS).map(|_| DynCell::new(0u32)).collect();
    let regions = key_regions(&tenants);
    let rt = Runtime::new(1, SchedulerKind::Tree);
    let mut total = 0;
    let mut state = 1u64;
    for _ in 0..WAVES {
        let wave: Vec<_> = (0..WAVE)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let region = regions[(state >> 33) as usize % regions.len()];
                ("", EffectSet::read(region), |_: &TaskCtx<'_>| ())
            })
            .collect();
        let (n, futures) = allocations(|| rt.submit_all(wave));
        total += n;
        for future in futures {
            future.wait();
        }
    }
    // Per task its one allocation and the tree's batched share; per wave the
    // returned futures and the record handles the scheduler takes.
    let per_task = total as f64 / (WAVES * WAVE) as f64;
    eprintln!("tree: {per_task} allocations per task of a submit_all of {WAVE}");
    assert!(per_task <= 6.0, "{per_task} allocations per batched task");
}

#[test]
fn claiming_cells_others_claimed_before_allocates_only_the_tasks_list() {
    const CELLS: usize = 16;
    let cells: Arc<Vec<_>> = Arc::new((0..CELLS).map(|_| DynCell::new(0u32)).collect());
    // Half of the cells read, half written.
    fn claim_all(ctx: &TaskCtx<'_>, cells: &[Arc<DynCell<u32>>]) {
        for (i, cell) in cells.iter().enumerate() {
            let claimed = if i % 2 == 0 {
                ctx.acquire_read(cell)
            } else {
                ctx.acquire_write(cell)
            };
            claimed.expect("no other task holds a claim");
        }
    }
    let rt = Runtime::new(1, SchedulerKind::Tree);
    for _ in 0..2 {
        let cells = cells.clone();
        rt.run("earlier", EffectSet::pure(), move |ctx| {
            claim_all(ctx, &cells)
        });
    }
    let n = rt.run("counted", EffectSet::pure(), move |ctx| {
        let (n, ()) = allocations(|| {
            claim_all(ctx, &cells);
            ctx.release_dynamic_effects();
        });
        n
    });
    // The task's list of held claims grows to 16 (three allocations); a
    // cell's claims keep the room earlier claimers left.
    eprintln!("{n} allocations claiming and releasing {CELLS} cells");
    assert!(
        n <= 4,
        "{n} allocations claiming and releasing {CELLS} cells"
    );
    assert_eq!(rt.stats().dynamic.acquires, 3 * CELLS as u64);
}
