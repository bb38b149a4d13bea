//! Differential proptest for the service workload: a randomized trace of
//! point reads, point writes, tenant scans, and mid-trace tenant
//! retirements is pushed through both schedulers and compared against
//! sequential in-order execution ([`twe_apps::service::sequential_trace`]).
//!
//! What equality means differs per scheduler, and the split is the
//! guarantee under test:
//!
//! * **naive**: single-FIFO admission serializes conflicting requests in
//!   submission order, so the *entire* outcome — every read and scan
//!   result plus the final store — must equal the oracle;
//! * **tree**: the enable rule checks enabled records only (Figure 5.6),
//!   so a later request may pass a still-pending one and two same-key
//!   writes may run in either order (a parked task and a newly submitted
//!   one race for a region the moment its holder finishes). What must
//!   hold is what isolation gives: every write echoes its own value, every
//!   read returns a value its key held at some point, and each key's
//!   **final value is one of the writes of its tenant's last incarnation**
//!   (zero if there were none) — the same oracle the benchmark applies.

use proptest::prelude::*;
use std::collections::HashSet;
use twe_apps::service::{apply_trace, sequential_trace, ServiceOp};
use twe_runtime::{Runtime, SchedulerKind};

const TENANTS: usize = 3;
const KEYS: usize = 6;

/// One trace op: mostly requests, with retirements mixed in often enough
/// that most traces retire at least one tenant mid-stream.
fn arb_op() -> impl Strategy<Value = ServiceOp> {
    (
        (0..12u8, 0..TENANTS as u64),
        (0..KEYS as u64, 1..1_000_000u64),
    )
        .prop_map(|((kind, tenant), (key, value))| {
            let tenant = tenant as usize;
            let key = key as usize;
            match kind {
                0..=5 => ServiceOp::Read { tenant, key },
                6..=8 => ServiceOp::Write { tenant, key, value },
                9..=10 => ServiceOp::Scan { tenant },
                _ => ServiceOp::Retire { tenant },
            }
        })
}

fn arb_trace() -> impl Strategy<Value = Vec<ServiceOp>> {
    proptest::collection::vec(arb_op(), 0..60)
}

/// Values a read of `(tenant, key)` could legitimately observe under
/// isolation: zero (initial / post-retire) or any value some trace op
/// writes to that exact slot.
fn plausible_reads(trace: &[ServiceOp], tenant: usize, key: usize) -> HashSet<u64> {
    let mut set: HashSet<u64> = trace
        .iter()
        .filter_map(|op| match *op {
            ServiceOp::Write {
                tenant: t,
                key: k,
                value,
            } if t == tenant && k == key => Some(value),
            _ => None,
        })
        .collect();
    set.insert(0);
    set
}

/// Values `(tenant, key)` may legitimately end the trace with: the writes
/// to that slot after the tenant's last retirement (a retirement drains the
/// tenant's requests and installs a zeroed store), or zero if there are
/// none.
fn plausible_final(trace: &[ServiceOp], tenant: usize, key: usize) -> HashSet<u64> {
    let last_era = trace
        .iter()
        .rposition(|op| matches!(*op, ServiceOp::Retire { tenant: t } if t == tenant))
        .map_or(trace, |retire| &trace[retire + 1..]);
    let mut writes = plausible_reads(last_era, tenant, key);
    if writes.len() > 1 {
        writes.remove(&0);
    }
    writes
}

proptest! {
    /// service_equals_sequential: randomized service traces through both
    /// schedulers against the in-order oracle.
    #[test]
    fn service_equals_sequential(trace in arb_trace()) {
        let oracle = sequential_trace(TENANTS, KEYS, &trace);

        let rt = Runtime::new(2, SchedulerKind::Naive);
        let got = apply_trace(&rt, TENANTS, KEYS, &trace);
        prop_assert_eq!(&got.results, &oracle.results, "naive results");
        prop_assert_eq!(&got.final_state, &oracle.final_state, "naive final state");
        drop(rt);

        let rt = Runtime::new(2, SchedulerKind::Tree);
        let got = apply_trace(&rt, TENANTS, KEYS, &trace);
        for (tenant, keys) in got.final_state.iter().enumerate() {
            for (key, value) in keys.iter().enumerate() {
                prop_assert!(
                    plausible_final(&trace, tenant, key).contains(value),
                    "tree final state of t{}k{} is {}, not one of its last era's writes",
                    tenant, key, value
                );
            }
        }
        // Tree read results need not be the oracle's, but each must be a
        // value its key could actually hold; writes echo their own value.
        let mut results = got.results.iter();
        for op in trace.iter().filter(|op| !matches!(op, ServiceOp::Retire { .. })) {
            let r = *results.next().expect("one result per request");
            match *op {
                ServiceOp::Read { tenant, key } => {
                    prop_assert!(
                        plausible_reads(&trace, tenant, key).contains(&r),
                        "tree read of t{}k{} returned {} which was never written there",
                        tenant, key, r
                    );
                }
                ServiceOp::Write { value, .. } => prop_assert_eq!(r, value, "write echo"),
                ServiceOp::Scan { .. } => {} // sums of interleavings: unbounded set
                ServiceOp::Retire { .. } => unreachable!(),
            }
        }
        prop_assert!(results.next().is_none(), "result count matches request count");
    }
}
