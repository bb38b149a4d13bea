//! The allocation budget of a whole k-means task, counted across every
//! thread.
//!
//! `tests/alloc_budget.rs` in `twe-runtime` counts what one submitter
//! allocates. A task also allocates on the worker that runs it and on the
//! thread that completes it, so this binary counts process-wide, over whole
//! `run_twe` jobs at the `kmeans-batch` shape (Fig. 6.3: 2 000 points,
//! K = 40, one task per point, one worker). The counter is global, so this
//! binary holds one test: nothing else may allocate while it is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use twe_apps::kmeans::{generate, outputs_match, run_sequential, run_twe, KMeansConfig};
use twe_runtime::{Runtime, SchedulerKind};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicUsize = AtomicUsize::new(0);

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain atomics and never allocate.
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

#[test]
fn a_kmeans_job_allocates_at_most_two_and_a_half_times_per_task() {
    const JOBS: usize = 10;
    let input = generate(&KMeansConfig {
        n_clusters: 40,
        ..KMeansConfig::default()
    });
    assert_eq!(
        (input.config.n_points, input.config.points_per_task),
        (2_000, 1)
    );
    let expected = run_sequential(&input);
    // The thread that waits on a job helps run its tasks, up to ~170 nested
    // bodies deep (`RuntimeStats::peak_nesting`) and unbounded in general:
    // an unoptimized build gets a stack well above a test thread's default.
    let measure = move || {
        let rt = Runtime::new(1, SchedulerKind::Tree);
        // One untimed job interns the regions and starts the worker.
        assert!(outputs_match(&run_twe(&rt, &input), &expected));
        ARMED.store(true, Ordering::SeqCst);
        let outputs: Vec<_> = (0..JOBS).map(|_| run_twe(&rt, &input)).collect();
        ARMED.store(false, Ordering::SeqCst);
        for got in &outputs {
            assert!(outputs_match(got, &expected));
        }
        // A WorkTask and its nested accumulate per point.
        let tasks = JOBS * 2 * input.config.n_points;
        COUNT.load(Ordering::SeqCst) as f64 / tasks as f64
    };
    let handle = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(measure);
    let per_task = handle.unwrap().join().unwrap();
    // The record and one effect record per effect the tree registers: the
    // WorkTask's `reads Root` and the accumulate's `writes Clusters:[k]`,
    // whose `reads Root` its WorkTask holds for it. Record lists are inline,
    // and a cluster leaf is made once, not once per prune. The job's own
    // vectors amortise to a few hundredths.
    eprintln!("{per_task:.2} allocations per k-means task");
    assert!(
        per_task <= 2.5,
        "{per_task:.2} allocations per k-means task"
    );
}
