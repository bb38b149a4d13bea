//! A long-running multi-tenant keyed-store **service** workload.
//!
//! Every prior benchmark in this crate is throughput-shaped: spawn a DAG,
//! wait, measure elapsed. Real services built on a tasks-with-effects
//! runtime care about a different quantity — **per-request scheduling
//! latency** (how long a request waits for the scheduler to prove
//! isolation) — and that must be measured *open loop*: requests arrive on
//! a schedule fixed in advance, whether or not the system keeps up.
//! A closed-loop driver (submit, wait, submit) silently stops submitting
//! the moment the scheduler stalls, which is exactly the coordinated
//! omission bug that hides tail latency.
//!
//! The workload models a keyed store shared by `tenants` tenants:
//!
//! * each tenant's state lives behind a [`DynCell`] whose reference
//!   region (`Root:__DynRegion:[n]`) roots that tenant's effect subtree;
//! * a **point read** of key `j` declares `reads <tenant>:Key:[j]`;
//! * a **point write** declares `writes <tenant>:Key:[j]`;
//! * a **tenant scan** declares `reads <tenant>:*` — a wildcard over the
//!   whole tenant subtree, conflicting with every concurrent write to
//!   that tenant but no other tenant's traffic;
//! * tenants **retire** continuously: a retire replaces the slot's cell
//!   with a fresh one, and the old cell is dropped (on a dedicated
//!   retirer thread, once its in-flight requests drain), which routes
//!   through `DynCell::drop` → retire-sink pruning → the epoch
//!   reclaimer, so region ids are recycled *during* the run.
//!
//! The driver ([`run_service`]) is split so that no thread ever has two
//! jobs: a **submitter** walks the precomputed arrival schedule and
//! admits due requests in [`Runtime::submit_all`] waves — it never waits
//! on a completion; **reaper** threads wait the returned futures and
//! record submit→enable / submit→complete latencies into private
//! [`LatencyHistogram`]s (merged after the run — the timed path never
//! allocates and never touches shared state); a **retirer** thread owns
//! the drain-then-drop of retired tenant cells.
//!
//! The schedule itself ([`generate_schedule`]) is deterministic from the
//! seed — same seed, same arrivals, same op mix — and always encodes the
//! *requested* rate. If the machine cannot sustain it, the submitter
//! falls behind and the report shows `achieved_rate < requested_rate`;
//! the rate is never silently clamped.

use crate::hist::LatencyHistogram;
use crate::util::{RegionCell, SplitMix64};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use twe_effects::{EffectSet, Rpl};
use twe_runtime::{AdmissionPolicy, DynCell, Runtime, TaskCtx, TaskFuture, TaskRecord};

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

/// Operation mix in percent; the three fields must sum to 100.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpMix {
    /// Point reads (`reads Tenant:Key:[j]`).
    pub read_pct: u32,
    /// Point writes (`writes Tenant:Key:[j]`).
    pub write_pct: u32,
    /// Whole-tenant scans (`reads Tenant:*`).
    pub scan_pct: u32,
}

impl OpMix {
    /// 90% reads / 9% writes / 1% scans — a cache-ish read path.
    pub const READ_HEAVY: OpMix = OpMix {
        read_pct: 90,
        write_pct: 9,
        scan_pct: 1,
    };

    /// 70% reads / 20% writes / 10% scans — scans often enough that
    /// wildcard settling dominates the tail.
    pub const SCAN_HEAVY: OpMix = OpMix {
        read_pct: 70,
        write_pct: 20,
        scan_pct: 10,
    };

    /// A short label for reports ("read_heavy", "scan_heavy", or
    /// "r<..>w<..>s<..>").
    pub fn label(&self) -> String {
        if *self == Self::READ_HEAVY {
            "read_heavy".to_string()
        } else if *self == Self::SCAN_HEAVY {
            "scan_heavy".to_string()
        } else {
            format!("r{}w{}s{}", self.read_pct, self.write_pct, self.scan_pct)
        }
    }
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
    /// (fresh region, zeroed keys). Not a request — carries no latency
    /// sample — but drives the reclamation path.
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

/// A scheduled arrival: `op` becomes due `at_ns` nanoseconds after the
/// run starts. The schedule is open loop — `at_ns` never depends on how
/// fast earlier requests completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after run start at which the request arrives.
    pub at_ns: u64,
    /// The request.
    pub op: ServiceOp,
}

/// Configuration of one service run.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of concurrently live tenant slots.
    pub tenants: usize,
    /// Keys per tenant store.
    pub keys_per_tenant: usize,
    /// Total requests in the schedule (excluding retire events).
    pub requests: usize,
    /// Requested open-loop arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Operation mix.
    pub mix: OpMix,
    /// Seed for the deterministic arrival schedule.
    pub seed: u64,
    /// If `Some(n)`, after every `n` requests one tenant slot (round
    /// robin) is retired and replaced.
    pub retire_every: Option<usize>,
    /// Reaper threads waiting completions (each owns a private
    /// histogram; merged after the run).
    pub reapers: usize,
    /// Admission policy the service's runtime should be built with
    /// ([`build_runtime`] honours it): the **bounded-depth mode** caps the
    /// backlog by policy — block mode throttles the submitter to the
    /// service rate, shed mode refuses the part of each wave that does not
    /// fit — instead of by sizing the request count to the machine.
    pub policy: AdmissionPolicy,
}

impl ServiceConfig {
    /// A small smoke configuration used by tests and `--quick` mode.
    pub fn smoke(seed: u64) -> ServiceConfig {
        ServiceConfig {
            tenants: 4,
            keys_per_tenant: 32,
            requests: 800,
            rate_per_sec: 100_000.0,
            mix: OpMix::READ_HEAVY,
            seed,
            retire_every: Some(200),
            reapers: 2,
            policy: AdmissionPolicy::Unbounded,
        }
    }
}

/// Builds a runtime configured for this service: the given scheduler and
/// thread count, plus the config's [`AdmissionPolicy`].
pub fn build_runtime(
    cfg: &ServiceConfig,
    threads: usize,
    kind: twe_runtime::SchedulerKind,
) -> Runtime {
    Runtime::builder()
        .threads(threads)
        .scheduler(kind)
        .admission_policy(cfg.policy)
        .build()
}

/// Expands a config into its deterministic arrival schedule.
///
/// Inter-arrival times are exponential (Poisson arrivals) at the
/// *requested* rate: the schedule always spans ≈ `requests /
/// rate_per_sec` seconds of arrival time no matter what the machine can
/// sustain — feasibility shows up later, as `achieved_rate`, never as a
/// quietly stretched schedule. Same seed ⇒ byte-identical schedule.
pub fn generate_schedule(cfg: &ServiceConfig) -> Vec<Arrival> {
    assert!(cfg.tenants > 0 && cfg.keys_per_tenant > 0);
    assert_eq!(
        cfg.mix.read_pct + cfg.mix.write_pct + cfg.mix.scan_pct,
        100,
        "op mix must sum to 100"
    );
    let mut rng = SplitMix64::new(cfg.seed);
    let ns_per_arrival = 1e9 / cfg.rate_per_sec;
    let mut clock_ns = 0.0f64;
    let mut retire_rr = 0usize;
    let mut out = Vec::with_capacity(
        cfg.requests + cfg.requests / cfg.retire_every.unwrap_or(usize::MAX).max(1),
    );
    for i in 0..cfg.requests {
        // Inverse-transform sampling of the exponential distribution;
        // `1 - u` keeps the argument strictly positive.
        clock_ns += -(1.0 - rng.next_f64()).ln() * ns_per_arrival;
        let at_ns = clock_ns as u64;
        let tenant = rng.next_below(cfg.tenants as u64) as usize;
        let roll = rng.next_below(100) as u32;
        let op = if roll < cfg.mix.read_pct {
            ServiceOp::Read {
                tenant,
                key: rng.next_below(cfg.keys_per_tenant as u64) as usize,
            }
        } else if roll < cfg.mix.read_pct + cfg.mix.write_pct {
            ServiceOp::Write {
                tenant,
                key: rng.next_below(cfg.keys_per_tenant as u64) as usize,
                value: rng.next_u64() >> 1,
            }
        } else {
            ServiceOp::Scan { tenant }
        };
        out.push(Arrival { at_ns, op });
        if let Some(n) = cfg.retire_every {
            if n > 0 && (i + 1) % n == 0 {
                out.push(Arrival {
                    at_ns,
                    op: ServiceOp::Retire {
                        tenant: retire_rr % cfg.tenants,
                    },
                });
                retire_rr += 1;
            }
        }
    }
    out
}

/// What one service run measured.
#[derive(Clone)]
pub struct ServiceReport {
    /// The rate the schedule encoded (from the config, verbatim).
    pub requested_rate: f64,
    /// The rate the submitter actually sustained, computed from the
    /// probe's first and last submit stamps. Less than `requested_rate`
    /// whenever the machine falls behind; never clamped to it.
    pub achieved_rate: f64,
    /// Requests completed (every non-retire arrival, once drained).
    ///
    /// Under [`AdmissionPolicy::BoundedShed`] only admitted requests
    /// complete: `completed + shed` reconciles with the configured
    /// request count.
    pub completed: u64,
    /// Requests the admission policy refused during this run (always 0
    /// except under [`AdmissionPolicy::BoundedShed`]).
    pub shed: u64,
    /// Deepest the runtime's queue-depth gauge got during this run —
    /// the backlog the bounded policies cap. Measured from the runtime's
    /// admission stats, so a bounded run reports at most its cap.
    pub peak_queue_depth: usize,
    /// Tenant retire events processed.
    pub retired_tenants: usize,
    /// submit→enable latency (scheduler admission + conflict wait).
    pub enable: LatencyHistogram,
    /// submit→complete latency (admission + wait + execution).
    pub complete: LatencyHistogram,
    /// Wall-clock time of the whole run including drain.
    pub wall: Duration,
}

/// One submitted wave: the futures to reap, in submission order.
type Wave = Vec<TaskFuture<u64>>;

/// A retired tenant cell plus the in-flight records that may still name
/// its region; the retirer drops the cell only after they drain.
struct RetireJob {
    cell: TenantCell,
    pending: Vec<Arc<TaskRecord>>,
}

/// The closure type shared by all request kinds (so `submit_all` can
/// admit a mixed wave through a single generic instantiation).
fn request_body(
    cell: TenantCell,
    op: ServiceOp,
) -> impl FnOnce(&TaskCtx<'_>) -> u64 + Send + 'static {
    move |_ctx| {
        // RwLock *read* access: concurrent requests to one tenant share
        // it freely; per-key exclusion is the scheduler's job (that is
        // the point of the benchmark).
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

/// Runs the open-loop service workload on `rt` and reports latency
/// histograms. Enables the runtime's latency probe for the duration of
/// the run (restoring the previous setting afterwards).
pub fn run_service(rt: &Runtime, cfg: &ServiceConfig) -> ServiceReport {
    let schedule = generate_schedule(cfg);
    let probe_was = rt.latency_probe();
    rt.set_latency_probe(true);
    let stats_before = rt.admission_stats();

    let reapers = cfg.reapers.max(1);
    let retired_count = AtomicUsize::new(0);
    let started = Instant::now();

    // Per-reaper result: (enable hist, complete hist, first/last submit
    // stamp, completed count).
    struct Reap {
        enable: LatencyHistogram,
        complete: LatencyHistogram,
        first_submit: u64,
        last_submit: u64,
        completed: u64,
    }

    let reap_results: Vec<Reap> = std::thread::scope(|scope| {
        let (retire_tx, retire_rx) = mpsc::channel::<RetireJob>();
        let mut wave_txs = Vec::with_capacity(reapers);
        let mut reaper_handles = Vec::with_capacity(reapers);
        for _ in 0..reapers {
            let (tx, rx) = mpsc::channel::<Wave>();
            wave_txs.push(tx);
            reaper_handles.push(scope.spawn(move || {
                let mut r = Reap {
                    enable: LatencyHistogram::new(),
                    complete: LatencyHistogram::new(),
                    first_submit: u64::MAX,
                    last_submit: 0,
                    completed: 0,
                };
                while let Ok(wave) = rx.recv() {
                    for f in wave {
                        f.wait();
                        let rec = f.record();
                        // The timed path: loads + bucket increments on
                        // thread-private state, nothing else.
                        if let Some(d) = rec.submit_to_enable_ns() {
                            r.enable.record(d);
                        }
                        if let Some(d) = rec.submit_to_complete_ns() {
                            r.complete.record(d);
                        }
                        let s = rec.submitted_at_ns.load(Ordering::Relaxed);
                        if s != 0 {
                            r.first_submit = r.first_submit.min(s);
                            r.last_submit = r.last_submit.max(s);
                        }
                        r.completed += 1;
                    }
                }
                r
            }));
        }

        // Retirer: drain-then-drop. Dropping the cell is what fires
        // `DynCell::drop` → claim purge + tree prune + epoch retire, and
        // the drain first re-establishes the drop contract (no live task
        // still names the region).
        let retirer = {
            let retired_count = &retired_count;
            scope.spawn(move || {
                while let Ok(job) = retire_rx.recv() {
                    for rec in &job.pending {
                        while !rec.is_done() {
                            std::thread::sleep(Duration::from_micros(20));
                        }
                    }
                    drop(job.cell);
                    retired_count.fetch_add(1, Ordering::Relaxed);
                }
            })
        };

        // Submitter: a dedicated thread walking the schedule, admitting
        // due requests in `submit_all` waves. It never waits on a
        // completion — falling behind shows up as large waves and an
        // `achieved_rate` below the requested one, never as a stretched
        // schedule.
        let submitter = scope.spawn(move || {
            let mut slots: Vec<TenantCell> = (0..cfg.tenants)
                .map(|_| fresh_tenant(cfg.keys_per_tenant))
                .collect();
            let mut inflight: Vec<Vec<Arc<TaskRecord>>> = vec![Vec::new(); cfg.tenants];
            let mut wave = Vec::new();
            let mut wave_tenants: Vec<usize> = Vec::new();
            let mut next_reaper = 0usize;

            fn flush<F>(
                rt: &Runtime,
                wave: &mut Vec<(String, EffectSet, F)>,
                wave_tenants: &mut Vec<usize>,
                inflight: &mut [Vec<Arc<TaskRecord>>],
                wave_txs: &[mpsc::Sender<Wave>],
                next_reaper: &mut usize,
            ) where
                F: FnOnce(&TaskCtx<'_>) -> u64 + Send + 'static,
            {
                if wave.is_empty() {
                    return;
                }
                let futures = rt.submit_all(wave.drain(..));
                for (f, &t) in futures.iter().zip(wave_tenants.iter()) {
                    inflight[t].push(Arc::clone(f.record()));
                    // Bound the in-flight lists: drained records no
                    // longer gate retirement.
                    if inflight[t].len() > 256 {
                        inflight[t].retain(|r| !r.is_done());
                    }
                }
                wave_tenants.clear();
                wave_txs[*next_reaper % wave_txs.len()]
                    .send(futures)
                    .expect("reaper alive");
                *next_reaper += 1;
            }

            let mut idx = 0usize;
            while idx < schedule.len() {
                let now_ns = started.elapsed().as_nanos() as u64;
                let mut submitted_any = false;
                while idx < schedule.len() && schedule[idx].at_ns <= now_ns {
                    let op = schedule[idx].op;
                    idx += 1;
                    if let ServiceOp::Retire { tenant } = op {
                        // Old-cell requests already in the building wave
                        // must have their records tracked before the
                        // handoff — flush first.
                        flush(
                            rt,
                            &mut wave,
                            &mut wave_tenants,
                            &mut inflight,
                            &wave_txs,
                            &mut next_reaper,
                        );
                        let fresh = fresh_tenant(cfg.keys_per_tenant);
                        let old = std::mem::replace(&mut slots[tenant], fresh);
                        retire_tx
                            .send(RetireJob {
                                cell: old,
                                pending: std::mem::take(&mut inflight[tenant]),
                            })
                            .expect("retirer alive");
                    } else {
                        let tenant = op.tenant();
                        let cell = &slots[tenant];
                        wave.push((
                            format!("svc{idx}"),
                            request_effects(cell, op),
                            request_body(Arc::clone(cell), op),
                        ));
                        wave_tenants.push(tenant);
                        submitted_any = true;
                    }
                }
                flush(
                    rt,
                    &mut wave,
                    &mut wave_tenants,
                    &mut inflight,
                    &wave_txs,
                    &mut next_reaper,
                );
                if !submitted_any && idx < schedule.len() {
                    let wait_ns = schedule[idx]
                        .at_ns
                        .saturating_sub(started.elapsed().as_nanos() as u64);
                    if wait_ns > 1_000 {
                        std::thread::sleep(Duration::from_nanos(wait_ns.min(200_000)));
                    }
                }
            }
            // Close the channels: reapers finish their queues, the
            // retirer drains its backlog, everyone exits.
            drop(wave_txs);
            drop(retire_tx);
        });

        submitter.join().expect("submitter");
        retirer.join().expect("retirer");
        reaper_handles
            .into_iter()
            .map(|h| h.join().expect("reaper"))
            .collect()
    });

    rt.set_latency_probe(probe_was);

    let mut enable = LatencyHistogram::new();
    let mut complete = LatencyHistogram::new();
    let mut first = u64::MAX;
    let mut last = 0u64;
    let mut completed = 0u64;
    for r in &reap_results {
        enable.merge(&r.enable);
        complete.merge(&r.complete);
        first = first.min(r.first_submit);
        last = last.max(r.last_submit);
        completed += r.completed;
    }
    let span_secs = last.saturating_sub(first) as f64 / 1e9;
    let achieved_rate = if completed >= 2 && span_secs > 0.0 {
        (completed - 1) as f64 / span_secs
    } else {
        0.0
    };

    // Shed is a per-run delta; peak depth is monotonic per runtime, so a
    // report is per-run exact only on a runtime that ran nothing deeper
    // before (benches build one runtime per cell).
    let stats_after = rt.admission_stats();
    ServiceReport {
        requested_rate: cfg.rate_per_sec,
        achieved_rate,
        completed,
        shed: stats_after.shed - stats_before.shed,
        peak_queue_depth: stats_after.peak_depth,
        retired_tenants: retired_count.load(Ordering::Relaxed),
        enable,
        complete,
        wall: started.elapsed(),
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
/// cell (routing the region through the epoch reclaimer), and installs a
/// fresh zeroed store.
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
                &format!("trace{i}"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use twe_runtime::SchedulerKind;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = ServiceConfig::smoke(17);
        let a = generate_schedule(&cfg);
        let b = generate_schedule(&cfg);
        assert_eq!(a, b, "same seed must give an identical schedule");
        assert_eq!(
            a.iter()
                .filter(|x| !matches!(x.op, ServiceOp::Retire { .. }))
                .count(),
            cfg.requests
        );
        assert_eq!(
            a.iter()
                .filter(|x| matches!(x.op, ServiceOp::Retire { .. }))
                .count(),
            cfg.requests / cfg.retire_every.unwrap()
        );
        let mut other = cfg.clone();
        other.seed = 18;
        assert_ne!(
            a,
            generate_schedule(&other),
            "different seed, different schedule"
        );
        // Arrival times are sorted (open-loop schedules are walked in order).
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn schedule_encodes_requested_rate() {
        // The span of the schedule reflects the *requested* rate; an
        // exponential sum of n arrivals concentrates tightly around
        // n/rate, and doubling the rate must halve the span.
        let mut cfg = ServiceConfig::smoke(5);
        cfg.requests = 4_000;
        cfg.retire_every = None;
        cfg.rate_per_sec = 50_000.0;
        let span = generate_schedule(&cfg).last().unwrap().at_ns as f64;
        let expect = cfg.requests as f64 / cfg.rate_per_sec * 1e9;
        assert!(
            (span - expect).abs() < 0.2 * expect,
            "span {span} vs expected {expect}"
        );
        cfg.rate_per_sec *= 2.0;
        let span2 = generate_schedule(&cfg).last().unwrap().at_ns as f64;
        assert!(
            (span2 - expect / 2.0).abs() < 0.2 * (expect / 2.0),
            "doubling the rate must halve the span: {span2} vs {expect}"
        );
    }

    #[test]
    fn rate_accounting_is_honest_never_clamped() {
        // Ask for an absurd rate no machine sustains: the report must
        // keep the requested rate verbatim and show the lower achieved
        // rate, rather than clamping one to the other.
        let rt = Runtime::new(2, SchedulerKind::Tree);
        let mut cfg = ServiceConfig::smoke(3);
        cfg.requests = 500;
        cfg.rate_per_sec = 1e9;
        cfg.retire_every = None;
        let report = run_service(&rt, &cfg);
        assert_eq!(report.requested_rate, 1e9);
        assert_eq!(report.completed, 500);
        assert!(report.achieved_rate > 0.0);
        assert!(
            report.achieved_rate < report.requested_rate,
            "achieved {} must fall below an unsustainable request, not be clamped to it",
            report.achieved_rate
        );
    }

    #[test]
    fn service_smoke_runs_on_both_schedulers() {
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(2, kind);
            let cfg = ServiceConfig::smoke(11);
            let report = run_service(&rt, &cfg);
            assert_eq!(report.completed, cfg.requests as u64, "{kind:?}");
            assert_eq!(
                report.retired_tenants,
                cfg.requests / cfg.retire_every.unwrap(),
                "{kind:?}"
            );
            // Every completed request carries both latency samples, and
            // they are nonzero (the probe clock never returns 0).
            assert_eq!(report.enable.count(), report.completed, "{kind:?}");
            assert_eq!(report.complete.count(), report.completed, "{kind:?}");
            assert!(report.enable.min() > 0, "{kind:?}");
            // submit→complete dominates submit→enable pointwise, so
            // every quantile dominates too.
            assert!(
                report.complete.quantile(0.99) >= report.enable.quantile(0.99),
                "{kind:?}"
            );
            assert!(report.achieved_rate > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn bounded_policies_reconcile_service_accounting() {
        // Saturate a small runtime (rate far above capacity) under each
        // bounded policy: block must complete everything while holding
        // the backlog at the cap; shed must account every refused
        // request so `completed + shed == requests`.
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            for policy in [
                AdmissionPolicy::BoundedBlock { max_queued: 16 },
                AdmissionPolicy::BoundedShed { max_queued: 16 },
            ] {
                let mut cfg = ServiceConfig::smoke(7);
                cfg.requests = 600;
                cfg.rate_per_sec = 1e8;
                cfg.retire_every = None;
                cfg.policy = policy;
                let rt = build_runtime(&cfg, 2, kind);
                assert_eq!(rt.admission_policy(), policy);
                let report = run_service(&rt, &cfg);
                assert_eq!(
                    report.completed + report.shed,
                    cfg.requests as u64,
                    "{kind:?} {policy:?}"
                );
                assert!(
                    report.peak_queue_depth <= 16,
                    "{kind:?} {policy:?}: peak depth {} above the cap",
                    report.peak_queue_depth
                );
                match policy {
                    AdmissionPolicy::BoundedBlock { .. } => {
                        assert_eq!(report.shed, 0, "{kind:?}: block never sheds");
                        assert_eq!(report.completed, cfg.requests as u64, "{kind:?}");
                    }
                    AdmissionPolicy::BoundedShed { .. } => {
                        // At 100M req/s against a 2-thread pool the cap
                        // must overflow: an open-loop wave outruns the
                        // drain, so some tail gets refused.
                        assert!(report.shed > 0, "{kind:?}: saturation must shed");
                    }
                    AdmissionPolicy::Unbounded => unreachable!(),
                }
                // Histograms only count admitted requests.
                assert_eq!(report.complete.count(), report.completed, "{kind:?}");
            }
        }
    }

    #[test]
    fn unbounded_service_reports_zero_shed() {
        let rt = Runtime::new(2, SchedulerKind::Naive);
        let cfg = ServiceConfig::smoke(9);
        let report = run_service(&rt, &cfg);
        assert_eq!(report.shed, 0);
        assert_eq!(report.completed, cfg.requests as u64);
        assert!(report.peak_queue_depth > 0, "the gauge must have moved");
    }

    #[test]
    fn trace_matches_sequential_oracle_smoke() {
        // A quick fixed-seed differential check (the exhaustive version
        // is the `service_differential` proptest).
        let cfg = ServiceConfig {
            tenants: 3,
            keys_per_tenant: 8,
            requests: 120,
            rate_per_sec: 1e6,
            mix: OpMix::SCAN_HEAVY,
            seed: 23,
            retire_every: Some(40),
            reapers: 1,
            policy: AdmissionPolicy::Unbounded,
        };
        let trace: Vec<ServiceOp> = generate_schedule(&cfg).iter().map(|a| a.op).collect();
        let oracle = sequential_trace(cfg.tenants, cfg.keys_per_tenant, &trace);

        // Naive: FIFO admission makes the whole outcome sequential.
        let rt = Runtime::new(4, SchedulerKind::Naive);
        let got = apply_trace(&rt, cfg.tenants, cfg.keys_per_tenant, &trace);
        assert_eq!(got, oracle, "naive");

        // Tree: per-key final state is sequential (write order holds);
        // reads may pass pending writers, so results are not compared.
        let rt = Runtime::new(4, SchedulerKind::Tree);
        let got = apply_trace(&rt, cfg.tenants, cfg.keys_per_tenant, &trace);
        assert_eq!(got.final_state, oracle.final_state, "tree");
    }
}
