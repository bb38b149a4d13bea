//! A multi-tenant keyed store whose every request is a task with effects,
//! and the sequential oracle it is checked against.
//!
//! The store is shared by a fixed number of tenant slots:
//!
//! * each tenant's state lives behind a [`DynCell`] whose reference
//!   region (`Root:__DynRegion:[n]`) roots that tenant's effect subtree;
//! * a **point read** of key `j` declares `reads <tenant>:Key:[j]`;
//! * a **point write** declares `writes <tenant>:Key:[j]`;
//! * a **tenant scan** declares `reads <tenant>:*` — a wildcard over the
//!   whole tenant subtree, conflicting with every concurrent write to
//!   that tenant but no other tenant's traffic;
//! * a **retire** replaces the slot's cell with a fresh one once its
//!   requests drained; dropping the old cell frees its region id, which a
//!   later tenant gets back under a new generation, and the nodes its
//!   requests vacated are pruned by a later admission.
//!
//! [`apply_trace`] runs a trace of such ops through a [`Runtime`] and
//! [`sequential_trace`] applies it in order to a plain model store; the
//! `service_differential` and `service_lifecycle` tests compare the two.
//! The benchmark's `svc-*` workloads (`benchmark/`) drive the same shape of
//! store open loop.

use crate::util::RegionCell;
use std::sync::Arc;
use std::time::Duration;
use twe_effects::{EffectSet, Rpl};
use twe_runtime::{DynCell, Runtime, TaskCtx, TaskFuture, TaskRecord};

/// One tenant's store: a fixed array of keyed slots. Per-key access is
/// synchronised *externally* by the effect system (each key is the
/// region `<tenant>:Key:[j]`), exactly like every other `RegionCell` use
/// in this crate; the surrounding `DynCell` provides the tenant's
/// reference region and its retirement path.
pub type TenantCell = Arc<DynCell<Vec<RegionCell<u64>>>>;

/// Creates a fresh tenant store with `keys` zeroed slots (and a fresh
/// reference region — retiring + recreating a tenant changes its region
/// id or generation, never silently aliases the old one).
pub fn fresh_tenant(keys: usize) -> TenantCell {
    DynCell::new((0..keys).map(|_| RegionCell::new(0)).collect())
}

/// The RPL a point op on `key` of this tenant declares:
/// `Root:__DynRegion:[n]:Key:[j]`.
pub fn key_rpl(cell: &DynCell<Vec<RegionCell<u64>>>, key: usize) -> Rpl {
    cell.rpl().child_name("Key").child_index(key as i64)
}

/// The RPL a tenant scan declares: `Root:__DynRegion:[n]:*`.
pub fn scan_rpl(cell: &DynCell<Vec<RegionCell<u64>>>) -> Rpl {
    cell.rpl().under_star()
}

/// One service request (or tenant-lifecycle event) against the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceOp {
    /// Point read of `key` in `tenant`'s store.
    Read {
        /// Tenant slot index.
        tenant: usize,
        /// Key index within the tenant.
        key: usize,
    },
    /// Point write of `value` to `key` in `tenant`'s store.
    Write {
        /// Tenant slot index.
        tenant: usize,
        /// Key index within the tenant.
        key: usize,
        /// Value written.
        value: u64,
    },
    /// Whole-tenant scan (sums every key).
    Scan {
        /// Tenant slot index.
        tenant: usize,
    },
    /// Retire `tenant`'s current store and replace it with a fresh one
    /// (fresh region, zeroed keys). Not a request — it returns no result —
    /// but drives the reclamation path.
    Retire {
        /// Tenant slot index.
        tenant: usize,
    },
}

impl ServiceOp {
    /// The tenant slot the op targets.
    pub fn tenant(&self) -> usize {
        match *self {
            ServiceOp::Read { tenant, .. }
            | ServiceOp::Write { tenant, .. }
            | ServiceOp::Scan { tenant }
            | ServiceOp::Retire { tenant } => tenant,
        }
    }
}

/// The body a request runs.
fn request_body(
    cell: TenantCell,
    op: ServiceOp,
) -> impl FnOnce(&TaskCtx<'_>) -> u64 + Send + 'static {
    move |_ctx| {
        // RwLock *read* access: concurrent requests to one tenant share
        // it freely; per-key exclusion is the scheduler's job.
        let data = cell.read();
        match op {
            ServiceOp::Read { key, .. } => *data[key].get(),
            ServiceOp::Write { key, value, .. } => {
                *data[key].get_mut() = value;
                value
            }
            ServiceOp::Scan { .. } => data.iter().fold(0u64, |acc, c| acc.wrapping_add(*c.get())),
            ServiceOp::Retire { .. } => unreachable!("retire is not a task"),
        }
    }
}

/// The effect set a request declares.
fn request_effects(cell: &DynCell<Vec<RegionCell<u64>>>, op: ServiceOp) -> EffectSet {
    match op {
        ServiceOp::Read { key, .. } => EffectSet::read(key_rpl(cell, key)),
        ServiceOp::Write { key, .. } => EffectSet::write(key_rpl(cell, key)),
        ServiceOp::Scan { .. } => EffectSet::read(scan_rpl(cell)),
        ServiceOp::Retire { .. } => unreachable!("retire is not a task"),
    }
}

/// The outcome of a service trace: what every request returned (in trace
/// order, retires excluded) and the final per-tenant, per-key store
/// contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceOutcome {
    /// Result of each non-retire op, in trace order.
    pub results: Vec<u64>,
    /// `final_state[tenant][key]` after the whole trace drained.
    pub final_state: Vec<Vec<u64>>,
}

/// Runs a service trace through `rt`, one `execute_later` per op **in
/// trace order**.
///
/// What the two schedulers promise differs, and the differential tests
/// assert exactly that split:
///
/// * the **naive** scheduler admits from one FIFO queue, so conflicting
///   requests execute in submission order and the whole
///   [`TraceOutcome`] — every read and scan result included — equals
///   [`sequential_trace`];
/// * the **tree** scheduler enables a task as soon as it interferes
///   with no *enabled* task (Figure 5.6 checks enabled records only),
///   so a later request may legitimately pass a still-pending one, and
///   two writes to one key may run in either order (a parked write and a
///   newly submitted one race for the region the moment its holder
///   finishes). Each key's final value is one of its own writes; neither
///   it nor the individual read/scan results need equal the oracle's.
///
/// A `Retire` op waits that tenant's outstanding requests, drops the
/// cell (freeing its region id for a later cell), and installs a fresh
/// zeroed store. Every tenant's last cell is dropped on return.
pub fn apply_trace(
    rt: &Runtime,
    tenants: usize,
    keys_per_tenant: usize,
    trace: &[ServiceOp],
) -> TraceOutcome {
    let mut slots: Vec<TenantCell> = (0..tenants)
        .map(|_| fresh_tenant(keys_per_tenant))
        .collect();
    let mut pending: Vec<Vec<Arc<TaskRecord>>> = vec![Vec::new(); tenants];
    let mut ordered: Vec<TaskFuture<u64>> = Vec::new();
    for (i, &op) in trace.iter().enumerate() {
        if let ServiceOp::Retire { tenant } = op {
            // Drain this tenant's outstanding requests before dropping
            // the cell (the `DynCell::drop` quiescence contract), then
            // install a fresh zeroed store under a fresh region.
            for rec in pending[tenant].drain(..) {
                while !rec.is_done() {
                    std::thread::sleep(Duration::from_micros(20));
                }
            }
            slots[tenant] = fresh_tenant(keys_per_tenant);
        } else {
            let tenant = op.tenant();
            let cell = &slots[tenant];
            let f = rt.execute_later(
                format!("trace{i}"),
                request_effects(cell, op),
                request_body(Arc::clone(cell), op),
            );
            pending[tenant].push(Arc::clone(f.record()));
            ordered.push(f);
        }
    }
    let results: Vec<u64> = ordered.iter().map(|f| f.wait()).collect();
    let final_state = slots
        .iter()
        .map(|cell| {
            let data = cell.read();
            data.iter().map(|c| *c.get()).collect()
        })
        .collect();
    TraceOutcome {
        results,
        final_state,
    }
}

/// The sequential oracle: applies the trace in order against a plain
/// model store. [`apply_trace`] on the naive scheduler must produce
/// exactly this outcome.
pub fn sequential_trace(
    tenants: usize,
    keys_per_tenant: usize,
    trace: &[ServiceOp],
) -> TraceOutcome {
    let mut state = vec![vec![0u64; keys_per_tenant]; tenants];
    let mut results = Vec::new();
    for &op in trace {
        match op {
            ServiceOp::Read { tenant, key } => results.push(state[tenant][key]),
            ServiceOp::Write { tenant, key, value } => {
                state[tenant][key] = value;
                results.push(value);
            }
            ServiceOp::Scan { tenant } => results.push(
                state[tenant]
                    .iter()
                    .fold(0u64, |acc, v| acc.wrapping_add(*v)),
            ),
            ServiceOp::Retire { tenant } => {
                state[tenant] = vec![0u64; keys_per_tenant];
            }
        }
    }
    TraceOutcome {
        results,
        final_state: state,
    }
}
