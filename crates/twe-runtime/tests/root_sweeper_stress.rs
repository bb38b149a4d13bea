//! Root sweeper stress: first-level nodes are created and pruned under the
//! root lock while sweepers walk them. The root is an ordinary node
//! (tree.rs module docs, "The root"), so every admission, every prune of a
//! vacated first-level subtree and every root-settling wildcard's walk
//! meet at its lock. These tests race the three parties:
//!
//! * **first-level submitters** — threads admitting tenant-disjoint traffic,
//!   each under its own first-level child (named anchors and root-index
//!   regions, so both `*` and `Root:[?]` sweepers have prey), creating
//!   their first-level nodes on the way down and leaving them vacant, to
//!   be pruned by a later admission's drain of the vacated paths;
//! * **root sweepers** — `writes *` and `writes Root:[?]` tasks that settle
//!   at the root and walk its children in sorted order, parking
//!   concurrent descents behind them at the root;
//! * **recycled cell regions** — `DynCell`s dropped mid-traffic, whose ids
//!   the next cells get back while the previous era's vacated paths are
//!   still pending; admissions drain them (`flush_vacated`, guard chains
//!   from the root down) through the `__DynRegion` subtree while the same
//!   subtree admits the new cells' records.
//!
//! Every task must run exactly once; the enable callback path is the real
//! runtime's, so a lost wakeup or a walk that misses a freshly-created
//! first-level node deadlocks the test rather than merely skewing a counter.
//! Two fault-tier tests ride along: bodies panicking mid-wave, and the
//! runtime dropped under saturation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use twe_effects::EffectSet;
use twe_runtime::{AdmissionPolicy, DynCell, Runtime, SchedulerKind};

/// Tenant-disjoint submitters race `*` and `Root:[?]` sweepers: even
/// submitters use named anchors (`S{i}:…`, reachable only by `*`), odd ones
/// use root-index regions (`[{i}]:…`, reachable by both sweeper shapes).
/// New first-level nodes are linked under the root concurrently with
/// sweeper walks, and descents park at the root behind an enabled sweeper.
#[test]
fn first_level_submits_race_root_wildcard_sweepers() {
    const SUBMITTERS: usize = 4;
    const WAVES: usize = 6;
    const FANOUT: usize = 24;

    let rt = Arc::new(Runtime::new(4, SchedulerKind::Tree));
    let ran = Arc::new(AtomicUsize::new(0));
    let sweeps = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for s in 0..SUBMITTERS {
            let rt = rt.clone();
            let ran = ran.clone();
            scope.spawn(move || {
                for w in 0..WAVES {
                    let futures = rt.submit_all((0..FANOUT).map(|k| {
                        let ran = ran.clone();
                        // A fresh second-level partition per wave keeps the
                        // prune path busy under the root too.
                        let rpl = if s % 2 == 0 {
                            format!("S{s}:[{w}]:[{k}]")
                        } else {
                            format!("[{s}]:[{w}]:[{k}]")
                        };
                        (
                            format!("tenant-{s}-{w}-{k}"),
                            EffectSet::parse(&format!("writes {rpl}")),
                            move |_: &twe_runtime::TaskCtx<'_>| {
                                ran.fetch_add(1, Ordering::Relaxed);
                            },
                        )
                    }));
                    for f in &futures {
                        f.wait();
                    }
                }
            });
        }
        // Root sweepers: `*` overlaps every first-level subtree, `Root:[?]`
        // only the root-index ones — both settle at the root and walk its
        // children in sorted order.
        for shape in ["writes *", "writes Root:[?]"] {
            let rt = rt.clone();
            let sweeps = sweeps.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    let sweeps = sweeps.clone();
                    rt.run("sweeper", EffectSet::parse(shape), move |_| {
                        sweeps.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
    });

    assert_eq!(
        ran.load(Ordering::Relaxed),
        SUBMITTERS * WAVES * FANOUT,
        "every tenant task must run exactly once"
    );
    assert_eq!(sweeps.load(Ordering::Relaxed), 10);
}

/// `DynCell` churn races `__DynRegion` traffic and sweepers: churn threads
/// create cells, run a writing task on each, and drop the cell. Each drop
/// frees the id, so the next cell may be admitted to its vacant node — or
/// recreate it — while admissions prune vacated `__DynRegion` paths
/// (`flush_vacated`, root lock downward) and `__DynRegion:[?]` / `*`
/// sweepers walk the subtree.
#[test]
fn dyncell_retire_pruning_races_dynregion_traffic_and_sweepers() {
    const CHURNERS: usize = 3;
    const CYCLES: usize = 40;

    let rt = Arc::new(Runtime::new(4, SchedulerKind::Tree));
    let cell_runs = Arc::new(AtomicUsize::new(0));
    let tenant_runs = Arc::new(AtomicUsize::new(0));
    let sweeps = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for _ in 0..CHURNERS {
            let rt = rt.clone();
            let cell_runs = cell_runs.clone();
            scope.spawn(move || {
                for _ in 0..CYCLES {
                    let cell = DynCell::new(0u64);
                    let cell_runs = cell_runs.clone();
                    rt.run("cell-writer", EffectSet::write(cell.rpl()), move |_| {
                        cell_runs.fetch_add(1, Ordering::Relaxed);
                    });
                    // Dropping the last handle frees the id; its vacant
                    // node is pruned by some later admission.
                    drop(cell);
                }
            });
        }
        // A static-region submitter keeps an unrelated first-level subtree
        // hot so the sweepers always have more than one child to walk.
        {
            let rt = rt.clone();
            let tenant_runs = tenant_runs.clone();
            scope.spawn(move || {
                for w in 0..CYCLES {
                    let tenant_runs = tenant_runs.clone();
                    rt.run(
                        "tenant",
                        EffectSet::parse(&format!("writes Hot:[{w}]")),
                        move |_| {
                            tenant_runs.fetch_add(1, Ordering::Relaxed);
                        },
                    );
                }
            });
        }
        for shape in ["writes *", "writes __DynRegion:[?]"] {
            let rt = rt.clone();
            let sweeps = sweeps.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    let sweeps = sweeps.clone();
                    rt.run("dyn-sweeper", EffectSet::parse(shape), move |_| {
                        sweeps.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
    });

    assert_eq!(cell_runs.load(Ordering::Relaxed), CHURNERS * CYCLES);
    assert_eq!(tenant_runs.load(Ordering::Relaxed), CYCLES);
    assert_eq!(sweeps.load(Ordering::Relaxed), 10);
}

/// Fault tier: task bodies panic mid-wave with a root sweeper parked behind
/// the wave. 64 `writes T:[i]` tasks are admitted and held at a gate, a
/// `writes *` sweeper is submitted behind them, and the gate opens; every
/// eighth body panics. Every future must resolve (a value, or the body's
/// panic propagated to the waiter), the sweeper must run exactly once and
/// only after all 64 bodies, and the scheduler must end empty — a panicking
/// body releases its effects like any other completion.
#[test]
fn panics_mid_wave_release_the_parked_root_sweeper() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex};
    const WAVE: usize = 64;

    for kind in [SchedulerKind::Tree, SchedulerKind::Naive] {
        let rt = Runtime::new(2, kind);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let bodies_run = Arc::new(AtomicUsize::new(0));
        let sweeper_runs = Arc::new(AtomicUsize::new(0));

        let wave = rt.submit_all((0..WAVE).map(|i| {
            let gate = gate.clone();
            let bodies_run = bodies_run.clone();
            (
                format!("wave-{i}"),
                EffectSet::parse(&format!("writes T:[{i}]")),
                move |_: &twe_runtime::TaskCtx<'_>| {
                    let (open, opened) = &*gate;
                    let mut open = open.lock().unwrap();
                    while !*open {
                        open = opened.wait(open).unwrap();
                    }
                    drop(open);
                    bodies_run.fetch_add(1, Ordering::SeqCst);
                    assert!(i % 8 != 0, "deliberate failure in wave-{i}");
                    i
                },
            )
        }));
        let sweeper = {
            let (bodies_run, sweeper_runs) = (bodies_run.clone(), sweeper_runs.clone());
            rt.execute_later("sweeper", EffectSet::parse("writes *"), move |_| {
                sweeper_runs.fetch_add(1, Ordering::SeqCst);
                bodies_run.load(Ordering::SeqCst)
            })
        };
        assert_eq!(
            sweeper.record().status(),
            twe_runtime::task::TaskStatus::Waiting,
            "{kind:?}: the sweeper parks behind the gated wave"
        );
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();

        for (i, f) in wave.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f.wait())) {
                Ok(value) => assert_eq!((value, i % 8 != 0), (i, true), "{kind:?}"),
                Err(_) => assert_eq!(i % 8, 0, "{kind:?}: wave-{i} must not panic"),
            }
        }
        assert_eq!(
            sweeper.wait(),
            WAVE,
            "{kind:?}: sweeper ran before the wave finished"
        );
        assert_eq!(sweeper_runs.load(Ordering::SeqCst), 1, "{kind:?}");
        let stats = rt.stats();
        assert_eq!(
            (stats.depth, stats.scheduler.recorded_effects),
            (0, 0),
            "{kind:?}"
        );
    }
}

/// Fault tier: the runtime is dropped under saturation. 4 000
/// fire-and-forget tasks in waves of 8 over 4 tenants × 16 keys — single
/// writes, three-key writes, tenant scans and reads — with every future
/// dropped at once and the `Runtime` right after the last submit. A task
/// the scheduler still holds is kept alive by itself until it is enabled
/// (`TaskRecord::pending`) and by the pool's job until it is done, so every
/// body must run.
#[test]
fn dropping_a_saturated_runtime_loses_no_admitted_task() {
    const TASKS: usize = 4_000;
    const WAVE: usize = 8;

    for kind in [SchedulerKind::Tree, SchedulerKind::Naive] {
        for threads in [1, 2] {
            for policy in [
                AdmissionPolicy::Unbounded,
                AdmissionPolicy::BoundedBlock { max_queued: 64 },
            ] {
                let rt = Runtime::builder()
                    .threads(threads)
                    .scheduler(kind)
                    .admission_policy(policy)
                    .build();
                let ran = Arc::new(AtomicUsize::new(0));
                for wave in 0..TASKS / WAVE {
                    drop(rt.submit_all((0..WAVE).map(|i| {
                        let h = ((wave * WAVE + i) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        let (t, k) = (h >> 62, (h >> 52) % 16);
                        let effects = match (h >> 40) % 4 {
                            0 => format!("writes T{t}:[{k}]"),
                            1 => format!(
                                "writes T{t}:[{k}], writes T{t}:[{}], writes T{t}:[{}]",
                                (k + 5) % 16,
                                (k + 11) % 16
                            ),
                            2 => format!("reads T{t}:*"),
                            _ => format!("reads T{t}:[{k}]"),
                        };
                        let ran = ran.clone();
                        (
                            format!("fire-{wave}-{i}"),
                            EffectSet::parse(&effects),
                            move |_: &twe_runtime::TaskCtx<'_>| {
                                ran.fetch_add(1, Ordering::Relaxed);
                            },
                        )
                    })));
                }
                drop(rt);
                let deadline = Instant::now() + Duration::from_secs(20);
                while ran.load(Ordering::Relaxed) < TASKS && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let ran = ran.load(Ordering::Relaxed);
                assert_eq!(ran, TASKS, "{kind:?}, {threads} threads, {policy:?}");
            }
        }
    }
}
