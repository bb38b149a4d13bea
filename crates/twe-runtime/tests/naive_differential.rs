//! Lockstep differentials of the tree scheduler against the single queue,
//! and saturation tests of the runtime's admission policies.
//!
//! The single queue (`NaiveScheduler`, §3.4.2) re-runs the enablement rule
//! over its whole queue, so it is the oracle here. The lockstep scripts run
//! the same steps through it and the tree and compare every task's status
//! after each step: the k-means shape of Fig. 6.3 — a `reads Root` fan-out
//! whose tasks each block on a nested `reads Root, writes Clusters:[k]`,
//! which the tree files apart from the records descending writers meet —
//! and the shapes where the tree's single-record descent takes over from
//! its batch insert.
//!
//! The saturation tier drives an open-loop submitter against one worker:
//! the bounded admission policies must keep it from building a backlog.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use twe_effects::EffectSet;
use twe_runtime::naive::NaiveScheduler;
use twe_runtime::scheduler::Scheduler;
use twe_runtime::task::{TaskRecord, TaskStatus};
use twe_runtime::tree::TreeScheduler;
use twe_runtime::{AdmissionPolicy, Runtime, SchedulerKind};

fn make_tasks(batch: &[Vec<String>]) -> Vec<Arc<TaskRecord>> {
    batch
        .iter()
        .enumerate()
        .map(|(i, effects)| {
            TaskRecord::new(
                i as u64,
                format!("t{i}"),
                EffectSet::parse(&effects.join(", ")),
                false,
            )
        })
        .collect()
}

/// A SplitMix64 stream from `state`.
fn splitmix64(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One scheduler's side of the k-means lockstep trace: its own copies of
/// the `M` WorkTasks, and the nested task each started WorkTask is blocked
/// on.
struct KmeansRun<'s> {
    name: &'static str,
    sched: &'s dyn Scheduler,
    work: Vec<Arc<TaskRecord>>,
    nested: Vec<Option<Arc<TaskRecord>>>,
}

impl<'s> KmeansRun<'s> {
    fn new(name: &'static str, work_tasks: usize, sched: &'s dyn Scheduler) -> Self {
        let work: Vec<_> = (0..work_tasks as u64)
            .map(|i| TaskRecord::new(i, "WorkTask", EffectSet::parse("reads Root"), false))
            .collect();
        sched.submit_batch(work.clone());
        let nested = vec![None; work_tasks];
        KmeansRun {
            name,
            sched,
            work,
            nested,
        }
    }

    /// WorkTask `i` runs: it submits its accumulate task and blocks on it,
    /// as `TaskCtx::execute` does.
    fn start(&mut self, i: usize, cluster: u64) {
        let effects = EffectSet::parse(&format!("reads Root, writes Clusters:[{cluster}]"));
        let nested = TaskRecord::new((self.work.len() + i) as u64, "accumulate", effects, false);
        self.sched.submit(nested.clone());
        *self.work[i].blocker.lock() = Some(nested.clone());
        self.sched.on_await(&nested);
        self.nested[i] = Some(nested);
    }

    /// WorkTask `i`'s accumulate task finishes, then the WorkTask itself.
    fn complete(&mut self, i: usize) {
        let nested = self.nested[i].take().expect("started");
        assert_eq!(
            nested.status(),
            TaskStatus::Enabled,
            "{}: nested {i}",
            self.name
        );
        nested.mark_done();
        self.sched.task_done(&nested);
        *self.work[i].blocker.lock() = None;
        self.work[i].mark_done();
        self.sched.task_done(&self.work[i]);
    }

    fn statuses(&self) -> Vec<TaskStatus> {
        let nested = self.nested.iter().flatten();
        self.work.iter().chain(nested).map(|t| t.status()).collect()
    }
}

/// The k-means shape in lockstep: `M` `reads Root` WorkTasks admitted as one
/// batch, then a seeded interleaving of "a WorkTask starts and blocks on its
/// nested `reads Root, writes Clusters:[k]`" and "an enabled nested task and
/// its WorkTask finish", at most 16 WorkTasks in flight over K = 3 clusters
/// so the clusters collide. After every step the naive scheduler and the
/// tree must agree on every live task's status, and the tree must satisfy
/// the property its wake path rests on (debug builds: the walker is
/// debug-only).
#[test]
fn kmeans_shape_tree_equals_naive_in_lockstep() {
    const M: usize = 120;
    const K: u64 = 3;
    const IN_FLIGHT: usize = 16;
    for seed in 1..=8u64 {
        let mut next = splitmix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let naive = NaiveScheduler::new(Box::new(|_| {}));
        let tree = TreeScheduler::new(Box::new(|_| {}));
        let mut runs = [
            KmeansRun::new("naive", M, &naive),
            KmeansRun::new("tree", M, &tree),
        ];
        let agree = |runs: &[KmeansRun; 2], step: &str| {
            assert_eq!(
                runs[0].statuses(),
                runs[1].statuses(),
                "seed {seed}: tree left naive after {step}"
            );
            tree.assert_wake_invariant();
            tree.assert_vacant_nodes_listed();
        };
        agree(&runs, "the fan-out");
        let mut started = 0usize;
        let mut in_flight: Vec<usize> = Vec::new();
        while started < M || !in_flight.is_empty() {
            let may_start = started < M && in_flight.len() < IN_FLIGHT;
            if may_start && (in_flight.is_empty() || next() % 2 == 0) {
                let cluster = next() % K;
                for run in &mut runs {
                    run.start(started, cluster);
                }
                in_flight.push(started);
                started += 1;
                agree(&runs, "a start");
            } else {
                let ready: Vec<usize> = (0..in_flight.len())
                    .filter(|&p| {
                        let nested = runs[0].nested[in_flight[p]].as_ref().unwrap();
                        nested.status() == TaskStatus::Enabled
                    })
                    .collect();
                assert!(!ready.is_empty(), "seed {seed}: naive stalled");
                let i = in_flight.swap_remove(ready[next() as usize % ready.len()]);
                for run in &mut runs {
                    run.complete(i);
                }
                agree(&runs, "a completion");
            }
        }
        for run in &runs {
            let d = run.sched.diagnostics();
            assert_eq!(d.recorded_effects, 0, "{}", run.name);
        }
    }
}

/// The shapes where the tree's single-record descent takes over from its
/// staged batch insert, in lockstep with the single queue: a multi-effect
/// task whose records settle at different depths (tasks 0 and 10), records
/// that park at an ancestor mid-descent (4 and 5 behind 3's `X:*`), and
/// batch members that leave a shared prefix as a group of one (7 at the
/// root, 9 below `P:Q`). The script avoids the one freedom a batch has —
/// which of two conflicting *members* goes first — so every way of
/// admitting it (as scripted, every batch member by member, every single
/// submission as a batch of one) must give the same statuses after every
/// step, on both schedulers.
#[test]
fn descent_shapes_tree_equals_naive_in_lockstep() {
    #[derive(Clone, Copy)]
    enum Step {
        Submit(&'static [usize]),
        Done(usize),
    }
    use Step::*;
    const EFFECTS: [&str; 11] = [
        "writes A, reads A:B:C",
        "writes A:B:C",
        "reads A",
        "writes X:*",
        "writes X:Y:Z",
        "reads X:Y",
        "writes P:Q:R:[1]",
        "writes S:[2]:U",
        "writes P:Q:R:[1]",
        "reads P:Q",
        "writes X:Y:Z, reads S:[2]:U",
    ];
    const SCRIPT: [Step; 18] = [
        Submit(&[0]),
        Submit(&[1]),
        Submit(&[2]),
        Submit(&[3]),
        Submit(&[4, 5]),
        Submit(&[6, 7, 8, 9]),
        Done(0),
        Done(3),
        Submit(&[10]),
        Done(4),
        Done(7),
        Done(10),
        Done(6),
        Done(1),
        Done(2),
        Done(5),
        Done(8),
        Done(9),
    ];
    #[derive(Clone, Copy, Debug)]
    enum Mode {
        Scripted,
        MemberByMember,
        AlwaysBatch,
    }
    let trace = |sched: &dyn Scheduler, audit: &dyn Fn(), mode: Mode| {
        let batch: Vec<Vec<String>> = EFFECTS.iter().map(|e| vec![e.to_string()]).collect();
        let tasks = make_tasks(&batch);
        let mut trace = Vec::new();
        for step in SCRIPT {
            match (step, mode) {
                (Submit(&[one]), Mode::Scripted) => sched.submit(tasks[one].clone()),
                (Submit(wave), Mode::MemberByMember) => {
                    wave.iter().for_each(|&i| sched.submit(tasks[i].clone()));
                }
                (Submit(wave), _) => {
                    sched.submit_batch(wave.iter().map(|&i| tasks[i].clone()).collect());
                }
                (Done(i), _) => {
                    assert_eq!(tasks[i].status(), TaskStatus::Enabled, "{mode:?}: task {i}");
                    tasks[i].mark_done();
                    sched.task_done(&tasks[i]);
                }
            }
            trace.push(tasks.iter().map(|t| t.status()).collect::<Vec<_>>());
            audit();
        }
        let d = sched.diagnostics();
        assert_eq!(d.recorded_effects, 0, "{mode:?}");
        trace
    };
    let naive = trace(
        &NaiveScheduler::new(Box::new(|_| {})),
        &|| {},
        Mode::Scripted,
    );
    // Not vacuous: 1, 2, 4, 5, 8 and 10 all had to wait.
    let waited = |i: usize| naive.iter().any(|s| s[i] == TaskStatus::Waiting);
    assert!([1, 2, 4, 5, 8, 10].into_iter().all(waited));
    for mode in [Mode::Scripted, Mode::MemberByMember, Mode::AlwaysBatch] {
        let tree = TreeScheduler::new(Box::new(|_| {}));
        let audit = || {
            tree.assert_wake_invariant();
            tree.assert_vacant_nodes_listed();
        };
        assert_eq!(
            trace(&tree, &audit, mode),
            naive,
            "tree ({mode:?}) left naive"
        );
    }
}

/// A three-task read/write cycle: T1 and T2 each get one read enabled at
/// submit (behind T0's reads) and park a write behind the other's read.
/// After T0 completes, some task must be enabled without anyone awaiting —
/// the single queue enables T1; the tree may pick either, but not neither.
#[test]
fn read_write_cycle_makes_progress_without_an_awaiter() {
    fn run(name: &str, batched: bool, sched: &dyn Scheduler) {
        let tasks = make_tasks(&[
            vec!["reads K:[2]".into(), "reads K:[0]".into()],
            vec!["writes K:[0]".into(), "reads K:[2]".into()],
            vec!["reads K:[0]".into(), "writes K:[2]".into()],
        ]);
        if batched {
            sched.submit_batch(tasks.clone());
        } else {
            tasks.iter().for_each(|t| sched.submit(t.clone()));
        }
        assert_eq!(tasks[0].status(), TaskStatus::Enabled, "{name}");
        // Drain in whatever order the scheduler enables: three completions.
        for round in 0..3 {
            let next = tasks.iter().find(|t| t.status() == TaskStatus::Enabled);
            let next = next.unwrap_or_else(|| {
                panic!("{name} (batched={batched}): nothing enabled in round {round}")
            });
            next.mark_done();
            sched.task_done(next);
        }
        assert_eq!(sched.diagnostics().recorded_effects, 0, "{name}");
    }
    for batched in [false, true] {
        run("naive", batched, &NaiveScheduler::new(Box::new(|_| {})));
        run("tree", batched, &TreeScheduler::new(Box::new(|_| {})));
    }
}

/// The same cycle at scale, through a `Runtime`: 4 000 fire-and-forget
/// tasks over 4 tenants x 16 keys, one in ten writing three keys at once.
/// Nobody awaits anything, so every task must be enabled by completions
/// alone (before the whole-task fallback of `recheck_waiters_of` this
/// stalled with hundreds of tasks parked).
#[test]
fn multi_key_writers_drain_without_awaiters() {
    const N: u64 = 4_000;
    // Seed 5 on one thread and seed 1 on two are the runs that stalled a
    // hand-on without its `Enabled` check and without its node lock.
    let runs = [1, 2, 4].into_iter().flat_map(|threads| {
        let wave = if threads == 1 { 1 } else { 64 };
        [1u64, 5, 11, 23].map(|seed| (threads, wave, seed))
    });
    for (threads, wave, seed) in runs {
        let mut next = splitmix64(seed);
        let key = |n: u64| format!("T{}:Key:[{}]", n % 4, (n / 4) % 16);
        let effects: Vec<EffectSet> = (0..N)
            .map(|_| {
                let (a, b, c) = (key(next()), key(next()), key(next()));
                EffectSet::parse(&match next() % 100 {
                    0..=9 => format!("writes {a}, writes {b}, writes {c}"),
                    10..=39 => format!("writes {a}"),
                    40..=49 => format!("reads T{}:*", next() % 4),
                    _ => format!("reads {a}"),
                })
            })
            .collect();
        let rt = Runtime::new(threads, SchedulerKind::Tree);
        let done = Arc::new(AtomicU64::new(0));
        for chunk in effects.chunks(wave) {
            rt.submit_all(chunk.iter().map(|e| {
                let done = done.clone();
                ("t", e.clone(), move |_: &twe_runtime::TaskCtx<'_>| {
                    done.fetch_add(1, Ordering::Relaxed);
                })
            }));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while done.load(Ordering::Relaxed) < N && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let done = done.load(Ordering::Relaxed);
        if done < N {
            // Dropping the runtime would wait on the stalled tasks.
            std::mem::forget(rt);
        }
        assert_eq!(done, N, "threads={threads} wave={wave} seed={seed}");
    }
}

/// Open-loop saturation against a one-worker runtime: a submitter far
/// outpacing the pool. BoundedBlock must hold the queue-depth gauge at the
/// cap — the submitter gets throttled, nothing is lost, and the backlog a
/// crash-vulnerable unbounded run would accumulate never forms.
#[test]
fn bounded_block_survives_open_loop_saturation() {
    const CAP: usize = 32;
    const TASKS: usize = 2_000;
    let rt = Runtime::builder()
        .threads(1)
        .scheduler(SchedulerKind::Naive)
        .admission_policy(AdmissionPolicy::BoundedBlock { max_queued: CAP })
        .build();
    let sum = Arc::new(AtomicU64::new(0));
    let mut futures = Vec::with_capacity(TASKS);
    for i in 0..TASKS {
        let sum = sum.clone();
        // Conflicting chains (64 keys) so the scheduler actually queues.
        futures.push(rt.execute_later(
            "sat",
            EffectSet::parse(&format!("writes S:[{}]", i % 64)),
            move |_| sum.fetch_add(1, Ordering::Relaxed),
        ));
    }
    for f in futures {
        f.wait();
    }
    let stats = rt.stats();
    assert_eq!(sum.load(Ordering::Relaxed), TASKS as u64);
    assert_eq!(stats.admitted, TASKS as u64);
    assert!(
        stats.peak_depth <= CAP,
        "block policy let the backlog reach {} (cap {CAP})",
        stats.peak_depth
    );
    assert_eq!(stats.depth, 0, "everything drained");
}
