//! Differential tests for batched task admission (`Scheduler::submit_batch`)
//! on randomized effect sets.
//!
//! The naive scheduler's batch path must be **exactly** equivalent to
//! sequential submission in slice order (same enable log, same statuses, at
//! every drain step). The tree scheduler's batch path guarantees isolation
//! and progress under any admission order; it is checked invariant-style —
//! an instrumented enable callback asserts that no two conflicting tasks
//! are ever enabled concurrently, and a drain loop asserts every task
//! eventually runs — including after index-region churn has set and
//! rewritten the per-node subtree flags.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use twe_effects::EffectSet;
use twe_runtime::scheduler::{tasks_conflict, Scheduler};
use twe_runtime::task::{TaskRecord, TaskStatus};
use twe_runtime::{naive::NaiveScheduler, tree::TreeScheduler};

/// One randomly-shaped effect: an anchor, a depth, concrete / trailing-star
/// / trailing-`[?]` shape, and read-or-write kind. One draw in nine is a
/// *root-settling* shape — concrete `Root`, the global `*`, or `Root:[?]` —
/// so every differential below also exercises records settling at the root
/// (and their walk over every first-level subtree) against traffic
/// descending past it.
fn arb_effect_text() -> impl Strategy<Value = String> {
    (
        // anchor (3 = a root-index anchor `[i]`, the shape `Root:[?]`
        // denotes) / extra depth below it / tail shape (0 concrete name,
        // 1 index, 2 `*`, 3 `[?]`)
        (0..4u8, 0..3u8, 0..4u8),
        // read-or-write / index used by index anchors and tails
        (any::<bool>(), 0..4i64),
        // 0 = a root-settling shape instead of an anchored one
        0..9u8,
    )
        .prop_map(|((anchor, depth, shape), (write, index), sel)| {
            let kind = if write { "writes" } else { "reads" };
            if sel == 0 {
                return format!("{kind} {}", ["Root", "*", "Root:[?]", "*"][shape as usize]);
            }
            let mut path = vec![if anchor == 3 {
                format!("[{index}]")
            } else {
                ["PA", "PB", "PC"][anchor as usize].to_string()
            }];
            for level in 0..depth {
                path.push(format!("L{level}"));
            }
            match shape {
                0 => path.push("T".to_string()),
                1 => path.push(format!("[{index}]")),
                2 => path.push("*".to_string()),
                _ => path.push("[?]".to_string()),
            }
            format!("{kind} {}", path.join(":"))
        })
}

/// A batch of tasks, each with 1–3 effects.
fn arb_batch() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(proptest::collection::vec(arb_effect_text(), 1..4), 1..16)
}

fn make_tasks(batch: &[Vec<String>], id_base: u64) -> Vec<Arc<TaskRecord>> {
    batch
        .iter()
        .enumerate()
        .map(|(i, effects)| {
            TaskRecord::new(
                id_base + i as u64,
                format!("t{i}"),
                EffectSet::parse(&effects.join(", ")),
                false,
            )
        })
        .collect()
}

/// Collects the enable log of a scheduler under test.
fn log_and_scheduler<S>(
    make: impl FnOnce(Box<dyn Fn(Arc<TaskRecord>) + Send + Sync>) -> S,
) -> (Arc<Mutex<Vec<u64>>>, S) {
    let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let l2 = log.clone();
    let sched = make(Box::new(move |t| l2.lock().unwrap().push(t.id)));
    (log, sched)
}

/// Drains a scheduler to completion: repeatedly finishes the lowest-id
/// enabled task. When no task is enabled, emulates what every
/// `TaskFuture::wait` does in the real runtime — `on_await(None, target)`,
/// the prioritized recheck that resolves partial-enablement cycles between
/// multi-effect waiters by effect stealing. Panics if that still makes no
/// progress (a genuine stall). After every step the tree must satisfy the
/// property its wake path rests on (debug builds: the walker is debug-only).
fn drain(sched: &TreeScheduler, tasks: &[Arc<TaskRecord>]) {
    let mut remaining: Vec<Arc<TaskRecord>> = tasks.to_vec();
    let mut rounds = 0;
    while !remaining.is_empty() {
        rounds += 1;
        assert!(
            rounds < 100_000,
            "scheduler stalled with {} tasks: {:?}",
            remaining.len(),
            remaining
                .iter()
                .map(|t| (t.id, t.status(), t.effects.to_string()))
                .collect::<Vec<_>>()
        );
        let next = remaining
            .iter()
            .position(|t| t.status() == TaskStatus::Enabled);
        let pos = next.unwrap_or_else(|| {
            // Nothing enabled: an external waiter would now block on some
            // task's future, prioritizing it. Try each remaining task.
            for t in remaining.iter() {
                sched.on_await(None, t);
            }
            remaining
                .iter()
                .position(|t| t.status() == TaskStatus::Enabled)
                .unwrap_or_else(|| {
                    panic!(
                        "no enabled task even after prioritization, {} remain \
                         (progress violated): {:?}",
                        remaining.len(),
                        remaining
                            .iter()
                            .map(|t| (t.id, t.status(), t.effects.to_string()))
                            .collect::<Vec<_>>()
                    )
                })
        });
        let t = remaining.remove(pos);
        t.mark_done();
        sched.task_done(&t);
        sched.assert_wake_invariant();
    }
}

/// An enable callback that asserts task isolation against the currently
/// enabled-but-unfinished tasks.
fn isolation_checking_tree() -> (Arc<AtomicUsize>, TreeScheduler) {
    let active: Arc<Mutex<Vec<Arc<TaskRecord>>>> = Arc::new(Mutex::new(Vec::new()));
    let violations = Arc::new(AtomicUsize::new(0));
    let (a2, v2) = (active.clone(), violations.clone());
    let sched = TreeScheduler::new(Box::new(move |t| {
        let mut act = a2.lock().unwrap();
        act.retain(|other| !other.is_done());
        for other in act.iter() {
            if tasks_conflict(other, &t) {
                v2.fetch_add(1, Ordering::Relaxed);
            }
        }
        act.push(t);
    }));
    (violations, sched)
}

proptest! {
    /// Naive scheduler: batched admission is *exactly* sequential admission
    /// in slice order — identical enable log and identical per-task status
    /// after admission and after every drain step.
    #[test]
    fn naive_batched_equals_sequential(batch in arb_batch()) {
        let (seq_log, seq) = log_and_scheduler(NaiveScheduler::new);
        let seq_tasks = make_tasks(&batch, 0);
        for t in &seq_tasks {
            seq.submit(t.clone());
        }
        let (batch_log, batched) = log_and_scheduler(NaiveScheduler::new);
        let batch_tasks = make_tasks(&batch, 0);
        batched.submit_batch(batch_tasks.clone());
        prop_assert_eq!(&*seq_log.lock().unwrap(), &*batch_log.lock().unwrap());
        for (s, b) in seq_tasks.iter().zip(&batch_tasks) {
            prop_assert_eq!(s.status(), b.status(), "task {} after admission", s.id);
        }
        // Drain both in lockstep; the logs must stay identical.
        let mut remaining: Vec<(Arc<TaskRecord>, Arc<TaskRecord>)> =
            seq_tasks.into_iter().zip(batch_tasks).collect();
        let mut rounds = 0;
        while !remaining.is_empty() {
            rounds += 1;
            prop_assert!(rounds < 100_000, "stalled with {}", remaining.len());
            let pos = remaining
                .iter()
                .position(|(s, _)| s.status() == TaskStatus::Enabled)
                .expect("naive scheduler stalled");
            let (s, b) = remaining.remove(pos);
            prop_assert_eq!(b.status(), TaskStatus::Enabled);
            s.mark_done();
            seq.task_done(&s);
            b.mark_done();
            batched.task_done(&b);
            prop_assert_eq!(&*seq_log.lock().unwrap(), &*batch_log.lock().unwrap());
        }
    }

    /// Tree scheduler: batched admission preserves task isolation at every
    /// enable and drains to completion (every task eventually runs), on the
    /// same randomized batches the naive differential runs on.
    #[test]
    fn tree_batched_isolation_and_progress(batch in arb_batch()) {
        let (violations, sched) = isolation_checking_tree();
        let tasks = make_tasks(&batch, 0);
        sched.submit_batch(tasks.clone());
        drain(&sched, &tasks);
        prop_assert_eq!(violations.load(Ordering::Relaxed), 0, "isolation violated");
        prop_assert_eq!(sched.diagnostics().recorded_effects, 0);
    }

    /// Tree scheduler with stale subtree flags: run a churn phase (tasks
    /// admitted and finished, leaving rewritten or pruned flags), a wildcard
    /// sweep, then admit a random batch — the walk-directed skips must not
    /// hide any conflict introduced by the new batch.
    #[test]
    fn tree_batched_after_churn_isolation_holds(
        batch in arb_batch(),
        churn in proptest::collection::vec(0..6i64, 1..12),
    ) {
        let (violations, sched) = isolation_checking_tree();
        // Churn phase: index tasks under the same anchors the random batch
        // uses, finished immediately, then a sweeping wildcard walk that
        // rewrites (and prunes) the subtree flags.
        let churn_tasks: Vec<Arc<TaskRecord>> = churn
            .iter()
            .enumerate()
            .map(|(i, idx)| {
                TaskRecord::new(
                    1_000 + i as u64,
                    format!("churn{i}"),
                    EffectSet::parse(&format!("writes PA:[{idx}], reads PB:[{idx}]")),
                    false,
                )
            })
            .collect();
        sched.submit_batch(churn_tasks.clone());
        drain(&sched, &churn_tasks);
        let sweeps = make_tasks(
            &[vec!["writes PA:*".into()], vec!["writes PB:[?]".into()]].map(|v: Vec<String>| v),
            2_000,
        );
        for s in &sweeps {
            sched.submit(s.clone());
        }
        drain(&sched, &sweeps);
        // Random batch over the now-stale/rewritten flags.
        let tasks = make_tasks(&batch, 0);
        sched.submit_batch(tasks.clone());
        drain(&sched, &tasks);
        prop_assert_eq!(violations.load(Ordering::Relaxed), 0, "isolation violated");
        prop_assert_eq!(sched.diagnostics().recorded_effects, 0);
    }
}
