//! Differential and saturation tests for the naive scheduler's
//! interference-indexed wakeups and the runtime's admission policies.
//!
//! The indexed scheduler (`NaiveScheduler::new`) must be **exactly**
//! equivalent to the full-scan discipline (`NaiveScheduler::new_full_scan`)
//! — same enable log, same per-task statuses, after admission and after
//! every drain step, on randomized mixed batches of concrete, trailing-`*`,
//! trailing-`[?]`, and root-wildcard effect shapes, with prioritized
//! rechecks (`on_await`) fired mid-drain. Both run single-threaded here, so
//! this is the race-free exact tie the sampled in-scheduler debug assert
//! cannot be (a concurrent `mark_done` makes the oracle drift benignly).
//!
//! A second lockstep tie runs the k-means shape of Fig. 6.3 — a `reads
//! Root` fan-out whose tasks each block on a nested `reads Root, writes
//! Clusters:[k]` — through the naive scheduler, the tree scheduler and the
//! tree's single-root baseline at once: the tree files the fan-out's
//! records apart from the ones descending writers meet, and must still
//! decide every step as the single queue does.
//!
//! The saturation tier then proves the point of the index: an unbounded
//! 100k-deep disjoint backlog drains with near-linear total wakeup work
//! (measured by the deterministic `scan_work` counter, not
//! wall-clock), and the bounded admission policies keep an open-loop
//! submitter from ever building such a backlog in the first place.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use twe_effects::EffectSet;
use twe_runtime::naive::NaiveScheduler;
use twe_runtime::scheduler::Scheduler;
use twe_runtime::task::{TaskRecord, TaskStatus};
use twe_runtime::tree::TreeScheduler;
use twe_runtime::{AdmissionPolicy, Runtime, SchedulerKind};

/// Same shape space as `batch_differential::arb_effect_text`: anchored
/// concrete / index / `*` / `[?]` tails plus occasional root-settling
/// shapes, so the wildcard bucket and the full-scan fallback both get
/// traffic.
fn arb_effect_text() -> impl Strategy<Value = String> {
    ((0..4u8, 0..3u8, 0..4u8), (any::<bool>(), 0..4i64), 0..9u8).prop_map(
        |((anchor, depth, shape), (write, index), sel)| {
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
        },
    )
}

fn arb_batch() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(proptest::collection::vec(arb_effect_text(), 1..4), 1..24)
}

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

fn log_and_scheduler<S>(
    make: impl FnOnce(Box<dyn Fn(Arc<TaskRecord>) + Send + Sync>) -> S,
) -> (Arc<Mutex<Vec<u64>>>, S) {
    let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let l2 = log.clone();
    let sched = make(Box::new(move |t| l2.lock().unwrap().push(t.id)));
    (log, sched)
}

proptest! {
    /// naive_indexed_equals_full_scan: the waiter index must never change
    /// *what* gets enabled or *when* — only how many queue slots each
    /// completion inspects. Lockstep drain with deterministic mid-drain
    /// `on_await` promotions (every third round prioritizes a rotating
    /// remaining task in both runs) so the Prioritized evaluation rule
    /// goes through the index too.
    #[test]
    fn naive_indexed_equals_full_scan(batch in arb_batch()) {
        let (full_log, full) = log_and_scheduler(NaiveScheduler::new_full_scan);
        let full_tasks = make_tasks(&batch);
        let (idx_log, indexed) = log_and_scheduler(NaiveScheduler::new);
        let idx_tasks = make_tasks(&batch);

        // Mixed admission: first half submitted one by one, second half as
        // one batch — both paths feed the same index.
        let half = full_tasks.len() / 2;
        for t in &full_tasks[..half] {
            full.submit(t.clone());
        }
        full.submit_batch(full_tasks[half..].to_vec());
        for t in &idx_tasks[..half] {
            indexed.submit(t.clone());
        }
        indexed.submit_batch(idx_tasks[half..].to_vec());

        prop_assert_eq!(
            &*full_log.lock().unwrap(),
            &*idx_log.lock().unwrap(),
            "enable logs after admission"
        );
        for (f, x) in full_tasks.iter().zip(&idx_tasks) {
            prop_assert_eq!(f.status(), x.status(), "task {} after admission", f.id);
        }

        let mut remaining: Vec<(Arc<TaskRecord>, Arc<TaskRecord>)> =
            full_tasks.into_iter().zip(idx_tasks).collect();
        let mut rounds = 0usize;
        while !remaining.is_empty() {
            rounds += 1;
            prop_assert!(rounds < 100_000, "stalled with {}", remaining.len());
            // Deterministic mid-drain prioritization: promote a rotating
            // waiter in both runs, like a TaskFuture::wait would.
            if rounds % 3 == 0 {
                let victim = rounds / 3 % remaining.len();
                let (f, x) = &remaining[victim];
                full.on_await(None, f);
                indexed.on_await(None, x);
                prop_assert_eq!(
                    &*full_log.lock().unwrap(),
                    &*idx_log.lock().unwrap(),
                    "enable logs after on_await"
                );
            }
            let next = remaining
                .iter()
                .position(|(f, _)| f.status() == TaskStatus::Enabled);
            let pos = match next {
                Some(pos) => pos,
                None => {
                    for (f, x) in remaining.iter() {
                        full.on_await(None, f);
                        indexed.on_await(None, x);
                    }
                    remaining
                        .iter()
                        .position(|(f, _)| f.status() == TaskStatus::Enabled)
                        .expect("full-scan naive scheduler stalled")
                }
            };
            let (f, x) = remaining.remove(pos);
            prop_assert_eq!(
                x.status(),
                TaskStatus::Enabled,
                "indexed run diverged on task {}",
                x.id
            );
            f.mark_done();
            full.task_done(&f);
            x.mark_done();
            indexed.task_done(&x);
            prop_assert_eq!(
                &*full_log.lock().unwrap(),
                &*idx_log.lock().unwrap(),
                "enable logs mid-drain"
            );
            for (f, x) in remaining.iter() {
                prop_assert_eq!(
                    f.status(),
                    x.status(),
                    "task {} mid-drain, batch {:?}",
                    f.id,
                    batch
                );
            }
        }
        prop_assert_eq!(full.diagnostics().recorded_effects, 0);
        prop_assert_eq!(indexed.diagnostics().recorded_effects, 0);
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
        self.sched.on_await(Some(&self.work[i]), &nested);
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
        let audit = || tree.assert_wake_invariant();
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

/// Drives a raw scheduler (no pool) through a deep disjoint backlog using
/// the enable log as the work queue, so the drain itself is O(total) and
/// the measurement isolates the scheduler's wakeup work.
fn drain_backlog(sched: &NaiveScheduler, ready: &Arc<Mutex<Vec<Arc<TaskRecord>>>>, total: usize) {
    let mut done = 0usize;
    while done < total {
        let next = ready.lock().unwrap().pop();
        let t = next.unwrap_or_else(|| panic!("stalled after {done}/{total}"));
        t.mark_done();
        sched.task_done(&t);
        done += 1;
    }
}

/// Submits an `n`-deep backlog of per-key conflict chains (`n / keys`
/// tasks per chain), drains it, and returns the average wakeup work per
/// completion from the deterministic `scan_work` counter.
fn backlog_per_event_work(n: usize, keys: usize) -> u64 {
    let ready: Arc<Mutex<Vec<Arc<TaskRecord>>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = ready.clone();
    let sched = NaiveScheduler::new(Box::new(move |t| r2.lock().unwrap().push(t)));
    let tasks: Vec<Arc<TaskRecord>> = (0..n)
        .map(|i| {
            TaskRecord::new(
                i as u64,
                format!("b{i}"),
                EffectSet::parse(&format!("writes K:[{}]", i % keys)),
                false,
            )
        })
        .collect();
    sched.submit_batch(tasks.clone());
    assert_eq!(sched.diagnostics().recorded_effects, n);
    drain_backlog(&sched, &ready, n);
    for t in &tasks {
        assert_eq!(t.status(), TaskStatus::Done);
    }
    let d = sched.diagnostics();
    assert_eq!(d.recorded_effects, 0);
    d.scan_work / n as u64
}

/// The saturation payoff: an indexed naive scheduler drains a 100k-deep
/// backlog of per-key conflict chains in total wakeup work linear-ish in
/// the drained tasks. Per completion the index touches only its key's
/// chain — O(chain) candidates, each evaluated against O(chain) indexed
/// peers — so per-event work depends on the chain length, **not** the
/// queue depth: growing the backlog 8x at fixed chain length must leave
/// per-event cost flat, where the full-scan discipline's grows with the
/// queue (pinned at smaller sizes by the in-crate test
/// `indexed_scan_work_stays_near_linear_on_disjoint_backlog`; full scan
/// at 100k would itself be the quadratic hours-long grind). Work is the
/// deterministic counter, so the assertion cannot flake on load.
#[test]
fn indexed_backlog_100k_drains_with_linear_scan_work() {
    // Same ~98-task chain length at both sizes; only the depth differs.
    let small = backlog_per_event_work(12_500, 128);
    let large = backlog_per_event_work(100_000, 1_024);
    assert!(
        large <= 2 * small + 64,
        "per-event wakeup work grew with queue depth: {large} slots/event at 100k \
         vs {small} at 12.5k — the index is no longer O(chain)"
    );
    // Absolute guard: far below any full-scan floor (~queue depth slots
    // per event at 100k).
    assert!(
        large < 12_500,
        "per-event work {large} is within full-scan territory"
    );
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
    assert_eq!(stats.shed, 0);
    assert!(
        stats.peak_depth <= CAP,
        "block policy let the backlog reach {} (cap {CAP})",
        stats.peak_depth
    );
    assert_eq!(stats.depth, 0, "everything drained");
}

/// The same saturation through BoundedShed: the wave tail the runtime
/// cannot hold is refused, and the accounting is exact — every submitted
/// request is either admitted (and completes) or counted shed, futures
/// align with the admitted prefix, and the gauge never passes the cap.
#[test]
fn bounded_shed_accounts_exactly_under_saturation() {
    const CAP: usize = 16;
    const WAVES: usize = 40;
    const WAVE: usize = 100;
    let rt = Runtime::builder()
        .threads(1)
        .scheduler(SchedulerKind::Naive)
        .admission_policy(AdmissionPolicy::BoundedShed { max_queued: CAP })
        .build();
    let mut admitted_futures = Vec::new();
    for w in 0..WAVES {
        let wave: Vec<_> = (0..WAVE)
            .map(|i| {
                let id = w * WAVE + i;
                (
                    format!("shed{id}"),
                    EffectSet::parse(&format!("writes S:[{}]", id % 8)),
                    move |_: &twe_runtime::TaskCtx<'_>| id as u64,
                )
            })
            .collect();
        let futures = rt.submit_all(wave);
        assert!(futures.len() <= WAVE);
        // Futures align positionally with the admitted wave prefix.
        for (i, f) in futures.iter().enumerate() {
            assert_eq!(f.record().name, format!("shed{}", w * WAVE + i));
        }
        admitted_futures.extend(futures);
    }
    let completed = admitted_futures.len() as u64;
    for f in admitted_futures {
        f.wait();
    }
    let stats = rt.stats();
    assert_eq!(stats.admitted, completed);
    assert_eq!(
        stats.admitted + stats.shed,
        (WAVES * WAVE) as u64,
        "every request is admitted or shed, none lost"
    );
    assert!(stats.shed > 0, "saturation at cap {CAP} must shed");
    assert!(
        stats.peak_depth <= CAP,
        "shed policy let the backlog reach {} (cap {CAP})",
        stats.peak_depth
    );
    assert_eq!(stats.depth, 0);
}
