//! The runtime's statistics are per-thread counters summed on read, and
//! task ids come from per-thread blocks: four external submitters, tasks
//! that `execute` nested children and spawn, and retryable tasks that
//! abort, across both schedulers. Once every future is done, `stats()` must
//! equal the work done exactly, and no two tasks may share an id.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use twe_effects::EffectSet;
use twe_runtime::{Aborted, Runtime, SchedulerKind, TaskCtx, TaskFuture};

const SUBMITTERS: usize = 4;
/// Rounds per submitter; a round is one outer task (or a wave of them) and
/// one retryable task.
const ROUNDS: usize = 200;
/// A wave's length, for the submitters that use `submit_all`.
const WAVE: usize = 4;
/// Aborts per retryable task before it succeeds.
const ABORTS: u32 = 2;

type Ids = Arc<Mutex<Vec<u64>>>;

/// An outer task's body: it runs two nested `execute`s (the inner one
/// inside the outer one) and a spawned child it joins, and records every
/// task id it sees. Four tasks in all.
fn outer(ids: Ids, key: usize) -> impl FnOnce(&TaskCtx<'_>) + Send + 'static {
    move |ctx| {
        let inner_ids = ids.clone();
        ctx.execute("nested", EffectSet::parse("reads Shared"), move |ctx| {
            let id = ctx.task_id();
            let innermost = ctx.execute("innermost", EffectSet::parse("reads Shared"), |ctx| {
                ctx.task_id()
            });
            inner_ids.lock().unwrap().extend([id, innermost]);
        });
        let child = ctx.spawn(
            "child",
            EffectSet::parse(&format!("writes Keys:[{key}]")),
            |ctx| ctx.task_id(),
        );
        let child = child.join(ctx);
        ids.lock().unwrap().extend([ctx.task_id(), child]);
    }
}

fn submitter(rt: Arc<Runtime>, ids: Ids, t: usize) -> Vec<TaskFuture<()>> {
    let mut futures = Vec::new();
    for round in 0..ROUNDS {
        let key = |i: usize| (t * ROUNDS + round) * WAVE + i;
        let effects =
            |i: usize| EffectSet::parse(&format!("reads Shared, writes Keys:[{}]", key(i)));
        if t % 2 == 0 {
            futures.push(rt.execute_later("outer", effects(0), outer(ids.clone(), key(0))));
        } else {
            futures.extend(
                rt.submit_all((0..WAVE).map(|i| ("outer", effects(i), outer(ids.clone(), key(i))))),
            );
        }
        let tries = AtomicU32::new(0);
        let retry_ids = ids.clone();
        futures.push(rt.execute_later_retry(
            "retry",
            EffectSet::parse("writes Retried"),
            move |ctx| {
                if tries.fetch_add(1, Ordering::Relaxed) < ABORTS {
                    return Err(Aborted);
                }
                retry_ids.lock().unwrap().push(ctx.task_id());
                Ok(())
            },
        ));
    }
    futures
}

#[test]
fn stats_equal_the_work_done_and_task_ids_are_unique() {
    for kind in [SchedulerKind::Tree, SchedulerKind::Naive] {
        let rt = Arc::new(Runtime::new(2, kind));
        let ids: Ids = Arc::default();
        let threads: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let (rt, ids) = (rt.clone(), ids.clone());
                std::thread::spawn(move || {
                    for f in submitter(rt, ids, t) {
                        f.wait();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("submitter");
        }
        let outers = (SUBMITTERS / 2) * ROUNDS * (1 + WAVE);
        let retried = SUBMITTERS * ROUNDS;
        // Per outer task: itself, two `execute`s and a spawned child; only
        // the spawned child is not admitted.
        let (executed, admitted) = (4 * outers + retried, 3 * outers + retried);
        let stats = rt.stats();
        assert_eq!(stats.tasks_executed, executed as u64, "{kind:?}");
        assert_eq!(stats.admitted, admitted as u64, "{kind:?}");
        assert_eq!(
            stats.task_retries,
            u64::from(ABORTS) * retried as u64,
            "{kind:?}"
        );
        assert_eq!(stats.depth, 0, "{kind:?}");
        let ids = ids.lock().unwrap();
        assert_eq!(ids.len(), executed, "{kind:?}: every task recorded its id");
        let unique: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(
            unique.len(),
            ids.len(),
            "{kind:?}: a task id was handed out twice"
        );
        assert!(!unique.contains(&0), "{kind:?}: ids start at 1");
    }
}
