//! Layer replay: the head of the workload's own generated trace fed to one
//! layer's public API at a time, on the driver thread, so each layer's cost
//! is measured alone and a change to one layer can be told from its
//! neighbours.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use twe_effects::{arena, EffectSet, Rpl};
use twe_pool::ThreadPool;
use twe_runtime::naive::NaiveScheduler;
use twe_runtime::scheduler::Scheduler;
use twe_runtime::tree::TreeScheduler;
use twe_runtime::TaskRecord;

/// Operations of the trace a replay covers.
pub const REPLAY_OPS: usize = 100_000;
/// Submitted-and-not-done tasks the scheduler replay keeps, so later
/// submissions meet realistic conflicts. (Bounding the *enabled* tasks
/// instead lets parked ones pile up without limit on a contended trace.)
const WINDOW: usize = 64;
/// Effect texts parsed, and paths interned, by the effects replay.
pub const TEXTS: usize = 20_000;
const POOL_JOBS: u64 = 200_000;
const HANDOFFS: usize = 5_000;

/// One operation of the trace as the conflict plane sees it: its effect
/// set, and the region of its first effect for the pairwise RPL test.
pub struct ReplayOp {
    pub rpl: Rpl,
    pub effects: EffectSet,
}

type EnableFn = Box<dyn Fn(Arc<TaskRecord>) + Send + Sync>;

struct SchedCost {
    submit_ns: f64,
    done_ns: f64,
    /// Tasks not enabled inside their own submission; an exact count.
    deferred: u64,
}

#[derive(Default)]
struct Enabled {
    queue: VecDeque<Arc<TaskRecord>>,
    total: u64,
}

/// Drives a bare scheduler: submit in waves of `batch`, finish tasks in
/// enable order whenever more than [`WINDOW`] are in flight.
fn replay_scheduler(
    make: impl FnOnce(EnableFn) -> Box<dyn Scheduler>,
    ops: &[ReplayOp],
    batch: usize,
) -> SchedCost {
    let enabled = Arc::new(Mutex::new(Enabled::default()));
    let sink = enabled.clone();
    let sched = make(Box::new(move |task| {
        let mut e = sink.lock().expect("enable sink");
        e.queue.push_back(task);
        e.total += 1;
    }));
    // The scheduler holds tasks weakly, as the runtime's futures own them:
    // a parked task nobody else held would be swept, never enabled.
    let mut held: Vec<Option<Arc<TaskRecord>>> = vec![None; ops.len()];
    let (mut submit_ns, mut done_ns, mut deferred) = (0u128, 0u128, 0u64);
    let (mut submitted, mut done) = (0usize, 0usize);
    for chunk in ops.chunks(batch) {
        let mut records: Vec<Arc<TaskRecord>> = chunk
            .iter()
            .enumerate()
            .map(|(i, op)| {
                TaskRecord::new((submitted + i) as u64 + 1, "", op.effects.clone(), false)
            })
            .collect();
        for record in &records {
            held[record.id as usize - 1] = Some(record.clone());
        }
        submitted += chunk.len();
        let before = enabled.lock().expect("enable sink").total;
        let t = Instant::now();
        if batch == 1 {
            sched.submit(records.pop().expect("one record"));
        } else {
            sched.submit_batch(records);
        }
        submit_ns += t.elapsed().as_nanos();
        deferred += chunk.len() as u64 - (enabled.lock().expect("enable sink").total - before);
        let keep = if submitted == ops.len() { 0 } else { WINDOW };
        while submitted - done > keep {
            // Something in flight is always enabled: the oldest task waits
            // for nobody.
            let task = enabled
                .lock()
                .expect("enable sink")
                .queue
                .pop_front()
                .expect("in-flight tasks, none enabled");
            task.mark_done();
            let t = Instant::now();
            sched.task_done(&task);
            done_ns += t.elapsed().as_nanos();
            held[task.id as usize - 1] = None;
            done += 1;
        }
    }
    let n = ops.len() as f64;
    SchedCost {
        submit_ns: submit_ns as f64 / n,
        done_ns: done_ns as f64 / n,
        deferred,
    }
}

fn scheduler_metrics(ops: &[ReplayOp], out: &mut Vec<(&'static str, f64)>) {
    let n = ops.len() as f64;
    let tree = replay_scheduler(|e| Box::new(TreeScheduler::new(e)), ops, 1);
    let tree_batch = replay_scheduler(|e| Box::new(TreeScheduler::new(e)), ops, WINDOW);
    let naive = replay_scheduler(|e| Box::new(NaiveScheduler::new(e)), ops, 1);
    let naive_batch = replay_scheduler(|e| Box::new(NaiveScheduler::new(e)), ops, WINDOW);
    out.extend([
        ("sched.tree.submit_ns", tree.submit_ns),
        ("sched.tree.batch_submit_ns", tree_batch.submit_ns),
        ("sched.tree.done_ns", tree.done_ns),
        ("sched.tree.deferred_frac", tree.deferred as f64 / n),
        ("sched.naive.submit_ns", naive.submit_ns),
        ("sched.naive.batch_submit_ns", naive_batch.submit_ns),
        ("sched.naive.done_ns", naive.done_ns),
        ("sched.naive.deferred_frac", naive.deferred as f64 / n),
    ]);
}

/// Pairs of consecutive operations `certainly_non_interfering` settles.
fn summary_decided(ops: &[ReplayOp]) -> u64 {
    ops.windows(2)
        .filter(|w| w[0].effects.certainly_non_interfering(&w[1].effects))
        .count() as u64
}

fn per_item(start: Instant, items: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / items as f64
}

fn effects_metrics(ops: &[ReplayOp], texts: &[String], out: &mut Vec<(&'static str, f64)>) {
    let pairs = ops.len() - 1;
    let t = Instant::now();
    for w in ops.windows(2) {
        black_box(w[0].rpl.disjoint(black_box(&w[1].rpl)));
    }
    out.push(("effects.rpl_disjoint_ns", per_item(t, pairs)));
    let t = Instant::now();
    for w in ops.windows(2) {
        black_box(w[0].effects.non_interfering(black_box(&w[1].effects)));
    }
    out.push(("effects.set_interferes_ns", per_item(t, pairs)));
    out.push((
        "effects.summary_decided_frac",
        summary_decided(ops) as f64 / pairs as f64,
    ));

    let t = Instant::now();
    for text in texts {
        black_box(EffectSet::parse(black_box(text)));
    }
    out.push(("effects.parse_ns", per_item(t, texts.len())));

    // A never-seen three-deep subtree per path, as a fresh tenant's first
    // request interns one; then the same paths again, now all present.
    let base = Rpl::from_names(["BenchCold"]);
    let intern_all = || {
        let t = Instant::now();
        for i in 0..TEXTS as i64 {
            black_box(base.child_index(i).child_name("Key").child_index(i % 1024));
        }
        per_item(t, TEXTS)
    };
    let before = arena::len();
    out.push(("effects.intern_cold_ns", intern_all()));
    assert!(
        arena::len() - before >= 2 * TEXTS,
        "the cold pass found its paths already interned"
    );
    out.push(("effects.intern_warm_ns", intern_all()));
}

static JOBS_DONE: AtomicU64 = AtomicU64::new(0);
static JOB_STARTED_NS: AtomicU64 = AtomicU64::new(0);

fn pool_metrics(workers: usize, out: &mut Vec<(&'static str, f64)>) {
    let pool = ThreadPool::new(workers);
    JOBS_DONE.store(0, SeqCst);
    let t = Instant::now();
    for _ in 0..POOL_JOBS {
        pool.execute(Box::new(|| {
            JOBS_DONE.fetch_add(1, Relaxed);
        }));
    }
    out.push(("pool.execute_ns", per_item(t, POOL_JOBS as usize)));
    while JOBS_DONE.load(SeqCst) < POOL_JOBS {
        std::thread::yield_now();
    }
    out.push((
        "pool.jobs_per_s",
        POOL_JOBS as f64 / t.elapsed().as_secs_f64(),
    ));

    // One job at a time into an idle pool: execute() to the job's first
    // instruction.
    let epoch = Instant::now();
    let mut handoff = Vec::with_capacity(HANDOFFS);
    for _ in 0..HANDOFFS {
        JOB_STARTED_NS.store(0, SeqCst);
        let sent = epoch.elapsed().as_nanos() as u64;
        pool.execute(Box::new(move || {
            JOB_STARTED_NS.store((epoch.elapsed().as_nanos() as u64).max(1), SeqCst);
        }));
        let started = loop {
            match JOB_STARTED_NS.load(SeqCst) {
                0 => std::hint::spin_loop(),
                ns => break ns,
            }
        };
        handoff.push(started.saturating_sub(sent));
    }
    out.push((
        "pool.handoff_ns",
        crate::stats::quantile_of(&mut handoff, 0.5) as f64,
    ));
}

/// Replays `ops` (and the textual form of some of them) through every
/// layer and returns the per-layer metrics.
pub fn run(ops: &[ReplayOp], texts: &[String], workers: usize) -> Vec<(&'static str, f64)> {
    assert!(ops.len() >= 2 && !texts.is_empty());
    let mut out = Vec::new();
    effects_metrics(ops, &texts[..texts.len().min(TEXTS)], &mut out);
    scheduler_metrics(ops, &mut out);
    pool_metrics(workers, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_svc, SVC_CONTENDED, SVC_DISJOINT};
    use crate::svc::replay_ops;

    #[test]
    fn exact_counts_repeat_across_two_replays() {
        for spec in [SVC_DISJOINT, SVC_CONTENDED] {
            let trace = generate_svc(&spec, 4, 0.2);
            let (_cells, ops, _texts) = replay_ops(&spec, &trace);
            let tree = || replay_scheduler(|e| Box::new(TreeScheduler::new(e)), &ops, 1).deferred;
            let naive = || replay_scheduler(|e| Box::new(NaiveScheduler::new(e)), &ops, 1).deferred;
            assert_eq!(tree(), tree(), "{}", spec.name);
            assert_eq!(naive(), naive(), "{}", spec.name);
            assert_eq!(
                summary_decided(&ops),
                summary_decided(&ops),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn contended_trace_defers_and_disjoint_trace_does_not() {
        let deferred_frac = |spec| {
            let trace = generate_svc(&spec, 4, 0.2);
            let (_cells, ops, _texts) = replay_ops(&spec, &trace);
            replay_scheduler(|e| Box::new(TreeScheduler::new(e)), &ops, 1).deferred as f64
                / ops.len() as f64
        };
        assert!(deferred_frac(SVC_DISJOINT) < 0.02);
        assert!(deferred_frac(SVC_CONTENDED) > 0.20);
    }
}
