//! Tenant-lifecycle stress for the service workload: tenants are created
//! and retired at high rate *while* whole-plane scans run over the
//! `__DynRegion` subtree, exercising the whole retirement path — drain →
//! `DynCell::drop` → the id back on the free list → the next tenant gets
//! it, while the old era's vacant nodes wait for an admission's prune —
//! under concurrent conflict walks.
//!
//! Two properties are asserted:
//!
//! * **no aliasing**: a recycled region id never names two live tenants
//!   at once, and whenever an id comes back it carries a strictly newer
//!   generation than its previous era;
//! * **bounded footprint**: after the churn fully drains, the scheduler
//!   tree returns to its baseline shape (`tree_nodes` and recorded
//!   effect count as right after runtime construction) — the vacated
//!   nodes really are pruned, nothing leaks per churn cycle.

use std::collections::HashMap;
use std::sync::Mutex;
use twe_apps::service::{
    apply_trace, fresh_tenant, key_rpl, scan_rpl, sequential_trace, ServiceOp,
};
use twe_apps::util::SplitMix64;
use twe_effects::EffectSet;
use twe_runtime::scheduler::SchedulerDiagnostics;
use twe_runtime::{Runtime, SchedulerKind};

/// Asserts the scheduler's shape (tree nodes, recorded effects) is
/// `baseline`'s. Every task has been waited on, so it has left the tree;
/// the vacated paths its completion left pending are flushed by the
/// snapshot itself.
fn assert_returns_to_baseline(rt: &Runtime, baseline: SchedulerDiagnostics) {
    let shape = |d: SchedulerDiagnostics| (d.tree_nodes, d.recorded_effects);
    let diag = rt.stats().scheduler;
    assert_eq!(
        shape(diag),
        shape(baseline),
        "scheduler tree must return to its baseline shape after full drain"
    );
    assert_eq!(diag.recorded_effects, 0);
}

#[test]
fn churn_concurrent_with_scans_never_aliases_live_tenants() {
    const CHURNERS: usize = 3;
    const CYCLES: usize = 60;
    const KEYS: usize = 8;

    let rt = Runtime::new(4, SchedulerKind::Tree);
    let baseline = rt.stats().scheduler;

    // Region index → generation, for every currently-live tenant and for
    // the last era each index was ever seen with.
    let live: Mutex<HashMap<u32, u32>> = Mutex::new(HashMap::new());
    let history: Mutex<HashMap<u32, u32>> = Mutex::new(HashMap::new());

    std::thread::scope(|scope| {
        for c in 0..CHURNERS {
            let rt = &rt;
            let live = &live;
            let history = &history;
            scope.spawn(move || {
                for cycle in 0..CYCLES {
                    let cell = fresh_tenant(KEYS);
                    let id = cell.region_id().index();
                    let generation = cell.generation();
                    {
                        let mut live = live.lock().unwrap();
                        assert!(
                            !live.contains_key(&id),
                            "churner {c} cycle {cycle}: region {id} already names a live tenant"
                        );
                        live.insert(id, generation);
                    }
                    {
                        let mut history = history.lock().unwrap();
                        if let Some(&prev) = history.get(&id) {
                            assert!(
                                generation > prev,
                                "recycled region {id} came back with generation \
                                 {generation}, not newer than {prev}"
                            );
                        }
                        history.insert(id, generation);
                    }

                    // A tenant's worth of traffic: point writes on
                    // distinct keys plus a whole-tenant scan, so the
                    // retirement below prunes a subtree that really had
                    // per-key nodes and a settled wildcard.
                    // The writes are awaited before the scan is submitted:
                    // the tree scheduler does not promise that a later scan
                    // waits for a write a sweep has moved while it waited.
                    let mut writes = Vec::new();
                    for key in 0..4 {
                        let c2 = cell.clone();
                        writes.push(rt.execute_later(
                            "churn-write",
                            EffectSet::write(key_rpl(&cell, key)),
                            move |_| *c2.read()[key].get_mut() = key as u64 + 1,
                        ));
                    }
                    writes.into_iter().for_each(|f| f.wait());
                    let c2 = cell.clone();
                    let scanned: u64 = rt
                        .execute_later("churn-scan", EffectSet::read(scan_rpl(&cell)), move |_| {
                            c2.read().iter().map(|k| *k.get()).sum()
                        })
                        .wait();
                    assert_eq!(scanned, (1..=4).sum::<u64>(), "scan saw all its writes");

                    live.lock().unwrap().remove(&id);
                    drop(cell); // drain done: the id goes back on the free list
                }
            });
        }
        // Plane-wide sweepers: `reads __DynRegion:*` overlaps every live
        // tenant's writes, so each sweep's conflict walk visits tenant
        // nodes as they are concurrently created, pruned, and recycled.
        for _ in 0..2 {
            let rt = &rt;
            scope.spawn(move || {
                for _ in 0..40 {
                    rt.execute_later("sweep", EffectSet::parse("reads __DynRegion:*"), |_| 0u64)
                        .wait();
                }
            });
        }
    });

    assert_returns_to_baseline(&rt, baseline);
}

/// A fixed scan-heavy trace: 70 % point reads, 20 % point writes, 10 %
/// tenant scans over `tenants` x `keys`, with one tenant retired (round
/// robin) after every 100 requests.
fn scan_heavy_trace(requests: usize, tenants: usize, keys: usize) -> Vec<ServiceOp> {
    let mut rng = SplitMix64::new(7);
    let mut trace = Vec::new();
    for i in 0..requests {
        let tenant = rng.next_below(tenants as u64) as usize;
        let key = rng.next_below(keys as u64) as usize;
        trace.push(match rng.next_below(10) {
            0..=6 => ServiceOp::Read { tenant, key },
            7..=8 => ServiceOp::Write {
                tenant,
                key,
                value: rng.next_u64() >> 1,
            },
            _ => ServiceOp::Scan { tenant },
        });
        if (i + 1) % 100 == 0 {
            trace.push(ServiceOp::Retire {
                tenant: (i / 100) % tenants,
            });
        }
    }
    trace
}

#[test]
fn service_harness_churn_returns_tree_to_baseline() {
    // The same property through the service trace: a scan-heavy trace with
    // continuous tenant retirement must leave either scheduler exactly as
    // it found it once everything drains (`apply_trace` drops every
    // tenant's final cell when it returns).
    const TENANTS: usize = 4;
    const KEYS: usize = 16;
    let trace = scan_heavy_trace(600, TENANTS, KEYS);
    for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
        let rt = Runtime::new(2, kind);
        let baseline = rt.stats().scheduler;
        let outcome = apply_trace(&rt, TENANTS, KEYS, &trace);
        assert_eq!(outcome.results.len(), 600, "{kind:?}");
        if kind == SchedulerKind::Naive {
            assert_eq!(outcome, sequential_trace(TENANTS, KEYS, &trace));
        }
        assert_returns_to_baseline(&rt, baseline);
        // Every request was admitted, and the gauge moved and drained.
        let stats = rt.stats();
        assert_eq!((stats.admitted, stats.depth), (600, 0), "{kind:?}");
        assert!(stats.peak_depth > 0, "{kind:?}");
    }
}
