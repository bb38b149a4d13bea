//! Cold-start stress: the tree scheduler's node-creation path sits behind
//! the arena's intern write side, so a burst of first-interns (fresh
//! `Cold:[i]:[j]` partitions submitted from several threads at once) races
//! both the arena's child-index lock and the scheduler's conflict walks.
//! These tests drive that combination end to end:
//!
//! * multi-threaded submitters cold-start fresh partitions (every effect
//!   RPL is a first-intern on the submitting thread) while wildcard
//!   sweepers force `check_below` conflict walks over the same subtrees as
//!   they appear;
//! * the sweep/prune walk interaction on freshly-interned subtrees: nodes
//!   created for brand-new regions must be prunable immediately after their
//!   records drain, and the walk must stay correct while still racing
//!   interners;
//! * wide batch admission racing execution: multi-group waves are admitted
//!   while the pool is executing earlier waves' tasks and wildcard sweepers
//!   claim whole anchors.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use twe_effects::EffectSet;
use twe_runtime::scheduler::Scheduler;
use twe_runtime::task::{TaskRecord, TaskStatus};
use twe_runtime::tree::TreeScheduler;
use twe_runtime::{Runtime, SchedulerKind};

/// Several submitter threads cold-start disjoint fresh partitions through
/// one shared runtime while a sweeper repeatedly claims the whole parent
/// region: every task must run exactly once and the counters must add up.
/// The effect sets are parsed (and their RPLs first-interned) on the
/// submitting threads, so admission races genuine concurrent interning.
#[test]
fn cold_start_interning_races_conflict_walks() {
    const SUBMITTERS: usize = 4;
    const WAVES: usize = 8;
    const FANOUT: usize = 32;

    let rt = Arc::new(Runtime::new(4, SchedulerKind::Tree));
    let done = Arc::new(AtomicUsize::new(0));
    let sweeps = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for s in 0..SUBMITTERS {
            let rt = rt.clone();
            let done = done.clone();
            scope.spawn(move || {
                for w in 0..WAVES {
                    // A fresh partition per (submitter, wave): every RPL
                    // below it is a first-intern performed right here.
                    let futures = rt.submit_all((0..FANOUT).map(|k| {
                        let done = done.clone();
                        (
                            format!("cold-{s}-{w}-{k}"),
                            EffectSet::parse(&format!(
                                "writes ColdStart:[{}]:[{k}]",
                                s * WAVES + w
                            )),
                            move |_: &twe_runtime::TaskCtx<'_>| {
                                done.fetch_add(1, Ordering::Relaxed);
                            },
                        )
                    }));
                    for f in &futures {
                        f.wait();
                    }
                }
            });
        }
        // Sweepers: wildcard walks over the whole partition root, forcing
        // conflict walks (and empty-leaf prunes) over subtrees whose nodes
        // are being created concurrently.
        for _ in 0..2 {
            let rt = rt.clone();
            let sweeps = sweeps.clone();
            scope.spawn(move || {
                for _ in 0..6 {
                    let sweeps = sweeps.clone();
                    rt.run(
                        "cold-sweeper",
                        EffectSet::parse("writes ColdStart:*"),
                        move |_| {
                            sweeps.fetch_add(1, Ordering::Relaxed);
                        },
                    );
                }
            });
        }
    });

    assert_eq!(
        done.load(Ordering::Relaxed),
        SUBMITTERS * WAVES * FANOUT,
        "every cold-start task must run exactly once"
    );
    assert_eq!(sweeps.load(Ordering::Relaxed), 12);
}

/// Wide batch admission races execution: each wave (128 records over 8
/// first-level anchors) is admitted while the pool is executing earlier
/// waves' tasks and sweepers repeatedly claim whole anchors, forcing
/// conflict walks over subtrees mid-admission. Every task must run exactly
/// once and the counters must add up.
#[test]
fn wide_batch_admission_races_execution_and_sweeps() {
    const SUBMITTERS: usize = 2;
    const WAVES: usize = 6;
    const ANCHORS: usize = 8;
    const PER_ANCHOR: usize = 16; // 128 records/wave

    let rt = Arc::new(Runtime::new(4, SchedulerKind::Tree));
    let ran = Arc::new(AtomicUsize::new(0));
    let sweeps = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for s in 0..SUBMITTERS {
            let rt = rt.clone();
            let ran = ran.clone();
            scope.spawn(move || {
                for w in 0..WAVES {
                    // One wave: a fresh index partition per (submitter,
                    // wave) under each of the 8 shared anchors, so the wave
                    // forks into 8 first-level groups at the root.
                    let futures = rt.submit_all((0..ANCHORS * PER_ANCHOR).map(|k| {
                        let ran = ran.clone();
                        (
                            format!("mixed-{s}-{w}-{k}"),
                            EffectSet::parse(&format!(
                                "writes Mixed{}:[{}]:[{}]",
                                k % ANCHORS,
                                s * WAVES + w,
                                k / ANCHORS
                            )),
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
        // Sweepers: whole-anchor wildcard claims that serialize against
        // every record a concurrent wave admits under that anchor.
        for a in 0..2 {
            let rt = rt.clone();
            let sweeps = sweeps.clone();
            scope.spawn(move || {
                for _ in 0..4 {
                    let sweeps = sweeps.clone();
                    rt.run(
                        "mixed-sweeper",
                        EffectSet::parse(&format!("writes Mixed{a}:*")),
                        move |_| {
                            sweeps.fetch_add(1, Ordering::Relaxed);
                        },
                    );
                }
            });
        }
    });

    assert_eq!(
        ran.load(Ordering::Relaxed),
        SUBMITTERS * WAVES * ANCHORS * PER_ANCHOR,
        "every batched task must run exactly once"
    );
    assert_eq!(sweeps.load(Ordering::Relaxed), 8);
}

/// Distinct submitters racing the *same* fresh paths must agree on the
/// canonical interned ids, and the resulting records must conflict exactly
/// as if interned sequentially (same region ⇒ serialized, sibling regions
/// ⇒ parallel) — the scheduler-level view of the one-winner intern race.
#[test]
fn racing_interns_of_one_partition_still_serialize_conflicts() {
    let enabled = Arc::new(AtomicUsize::new(0));
    let sched = {
        let enabled = enabled.clone();
        TreeScheduler::new(Box::new(move |_t| {
            enabled.fetch_add(1, Ordering::Relaxed);
        }))
    };

    // Race: several threads parse (and first-intern) the same fresh region
    // paths concurrently; each returns its parsed sets.
    let sets: Vec<Vec<EffectSet>> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                scope.spawn(|| {
                    (0..64)
                        .map(|k| EffectSet::parse(&format!("writes InternRace:[{}]", k % 16)))
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    // Canonical ids: identical paths parsed on different threads are the
    // same effect sets, pairwise.
    for row in &sets[1..] {
        assert_eq!(row, &sets[0], "racing interns must agree on ids");
    }

    // Scheduler view: same-index records serialize, distinct-index records
    // run in parallel — regardless of which thread won each intern race.
    let a = TaskRecord::new(1, "a", sets[0][0].clone(), false);
    let same = TaskRecord::new(2, "same", sets[1][16].clone(), false); // [0] again
    let sibling = TaskRecord::new(3, "sibling", sets[2][1].clone(), false); // [1]
    sched.submit(a.clone());
    sched.submit(same.clone());
    sched.submit(sibling.clone());
    assert_eq!(a.status(), TaskStatus::Enabled);
    assert_eq!(
        same.status(),
        TaskStatus::Waiting,
        "records on the same raced-in region must serialize"
    );
    assert_eq!(
        sibling.status(),
        TaskStatus::Enabled,
        "sibling regions interned by different threads must stay disjoint"
    );
    a.mark_done();
    sched.task_done(&a);
    assert_eq!(same.status(), TaskStatus::Enabled);
    for t in [&same, &sibling] {
        t.mark_done();
        sched.task_done(t);
    }
    assert_eq!(enabled.load(Ordering::Relaxed), 3);
}

/// Sweep/prune interaction on freshly-interned subtrees: a cold-started
/// partition leaves one scheduler node per fresh region; once its records
/// drain, a wildcard walk over the fresh subtree and the flushes of the
/// vacated paths must prune the empty leaves — while new sibling subtrees
/// are still being first-interned by other threads.
#[test]
fn sweep_and_prune_reclaim_freshly_interned_subtrees() {
    let sched = Arc::new(TreeScheduler::new(Box::new(|_t| {})));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Background interner: keeps creating brand-new sibling regions (fresh
    // first-intern traffic) while the main thread churns and prunes.
    let interner = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let _ = EffectSet::parse(&format!("writes FreshPrune:bg:[{i}]"));
                i += 1;
            }
        })
    };

    let baseline = sched.diagnostics().tree_nodes;
    for round in 0..4 {
        // Cold-start a fresh subtree: 48 new leaf regions nobody has ever
        // interned, plus records on them.
        let tasks: Vec<_> = (0..48)
            .map(|k| {
                TaskRecord::new(
                    round * 100 + k,
                    "fresh",
                    EffectSet::parse(&format!("writes FreshPrune:[{round}]:[{k}]")),
                    false,
                )
            })
            .collect();
        for t in &tasks {
            sched.submit(t.clone());
        }
        let grown = sched.diagnostics().tree_nodes;
        assert!(
            grown > baseline,
            "fresh subtrees must materialize as scheduler nodes"
        );
        for t in &tasks {
            t.mark_done();
            sched.task_done(t);
        }
        // The wildcard walk over the fresh subtree prunes the now-empty
        // leaves under it that no flush has reached yet.
        let sweeper = TaskRecord::new(
            round * 100 + 99,
            "sweeper",
            EffectSet::parse(&format!("writes FreshPrune:[{round}]:*")),
            false,
        );
        sched.submit(sweeper.clone());
        assert_eq!(
            sweeper.status(),
            TaskStatus::Enabled,
            "finished records must not block the sweeper"
        );
        sweeper.mark_done();
        sched.task_done(&sweeper);
        let sweeper2 = TaskRecord::new(
            round * 100 + 98,
            "sweeper2",
            EffectSet::parse(&format!("writes FreshPrune:[{round}]:*")),
            false,
        );
        sched.submit(sweeper2.clone());
        sweeper2.mark_done();
        sched.task_done(&sweeper2);
        assert_eq!(
            sched.diagnostics().recorded_effects,
            0,
            "round {round}: all records must drain"
        );
    }
    // After churn + walks, the per-round leaves must have been pruned: the
    // tree must not retain a node per fresh leaf region (4 rounds × 48
    // leaves would be ≥192 nodes if pruning failed).
    let after = sched.diagnostics().tree_nodes;
    assert!(
        after < baseline + 4 * 48 / 2,
        "empty fresh leaves must be pruned (baseline {baseline}, after {after})"
    );

    stop.store(true, Ordering::Relaxed);
    interner.join().unwrap();
}
