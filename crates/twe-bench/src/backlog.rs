//! Backlog microbenchmarks (`BENCH_backlog.json`): what a completion costs
//! behind a deep backlog, non-conflicting on the naive scheduler and
//! conflicting on both.
//!
//! **Conflicting mix** ([`run_conflicting_sweep`]). The benchmark's
//! `svc-contended` population — 4 tenants x 64 keys, Zipf(1.1) over both,
//! 60 % read / 30 % write / 10 % tenant scan — through a [`Runtime`], closed
//! loop in bursts of 64, a burst whenever it fits under the in-flight cap,
//! at caps of 64 to 4 096: per-request wall time and the scheduler's
//! `wake_rechecks` per completion, three repetitions each. A wake path that
//! rechecks every waiter of every completion grows with the *cube* of the
//! cap here (each of n completions rechecks O(n) waiters, each recheck
//! scanning O(n) records); the tree's hand-on keeps rechecks per completion
//! flat. The naive scheduler is the contrast column and is allowed to lose.
//!
//! **Naive chains.** The per-completion cost of the naive scheduler's wakeup
//! path as a function of backlog depth, for both wakeup disciplines:
//!
//! * **indexed** (`NaiveScheduler::new`) — completions consult only the
//!   waiter-index buckets their anchors hit, so per-completion cost tracks
//!   the *conflict chain length*, not the queue depth;
//! * **full_scan** (`NaiveScheduler::new_full_scan`) — the dissertation's
//!   literal discipline: every completion rescans the whole queue, so
//!   per-completion cost grows linearly with depth (and draining a backlog
//!   is quadratic).
//!
//! Each row drives a raw scheduler (no worker pool — the enable callback
//! is the work queue) through a `backlog`-deep batch of per-key write
//! chains (`writes K:[i % keys]`, keys scaled to keep chains ~8 long) and
//! reports nanoseconds per `task_done` plus the deterministic
//! `scan_work` counter. The scheduled-CI scaling bar reads the
//! indexed rows: `per_done_ns` at 64k backlog must stay within 8x its 4k
//! value — quadratic wakeups fail that by an order of magnitude. The
//! full-scan discipline is measured only at the smaller depths for the
//! contrast column; at 64k it would be the quadratic grind the index
//! exists to avoid.

use serde::Serialize;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use twe_apps::util::SplitMix64;
use twe_effects::{EffectSet, Rpl};
use twe_runtime::naive::NaiveScheduler;
use twe_runtime::scheduler::Scheduler;
use twe_runtime::task::TaskRecord;
use twe_runtime::{Runtime, SchedulerKind, TaskCtx};

/// Both halves of `BENCH_backlog.json`.
#[derive(Clone, Debug, Serialize)]
pub struct BacklogRecord {
    /// The conflicting mix through a `Runtime`, by scheduler and in-flight
    /// cap.
    pub conflicting_mix: Vec<ConflictingRow>,
    /// The naive scheduler's per-key write chains, by wakeup discipline and
    /// depth.
    pub naive_chains: Vec<BacklogRow>,
}

/// A value over the repetitions of one cell.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Spread {
    /// Smallest of the repetitions.
    pub min: f64,
    /// Their median.
    pub median: f64,
    /// Largest.
    pub max: f64,
}

impl Spread {
    fn of(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Spread {
            min: values[0],
            median: values[values.len() / 2],
            max: values[values.len() - 1],
        }
    }
}

/// One cell of the conflicting-mix sweep: `repetitions` runs.
#[derive(Clone, Debug, Serialize)]
pub struct ConflictingRow {
    /// `"tree"` or `"single-queue"`.
    pub scheduler: String,
    /// Requests the driver keeps in flight at most.
    pub in_flight: usize,
    /// Requests per repetition.
    pub requests: usize,
    /// Repetitions behind each min / median / max.
    pub repetitions: usize,
    /// Wall-clock nanoseconds per request, first submission to last
    /// completion.
    pub per_request_ns: Spread,
    /// [`twe_runtime::scheduler::SchedulerDiagnostics::wake_rechecks`] per
    /// completion.
    pub rechecks_per_done: Spread,
    /// Worker threads of the runtime (the driver is one more).
    pub workers: usize,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub host_cpus: usize,
}

/// In-flight caps of the conflicting-mix sweep.
pub const CONFLICTING_IN_FLIGHT: [usize; 7] = [64, 128, 256, 512, 1_024, 2_048, 4_096];
const TENANTS: usize = 4;
const KEYS: usize = 64;
const BURST: usize = 64;
const REPETITIONS: usize = 3;

/// Draws ranks with probability proportional to `rank^-1.1`.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n).map(|rank| {
            total += (rank as f64).powf(-1.1);
            total
        });
        Zipf(cumulative.collect())
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let at = rng.next_f64() * self.0[self.0.len() - 1];
        self.0.partition_point(|&c| c <= at).min(self.0.len() - 1)
    }
}

/// The `svc-contended` request mix over static regions, built up front so
/// that the driver can outrun the worker.
fn conflicting_requests(n: usize, seed: u64) -> Vec<EffectSet> {
    let mut rng = SplitMix64::new(seed);
    let (tenants, keys) = (Zipf::new(TENANTS), Zipf::new(KEYS));
    let regions: Vec<Rpl> = (0..TENANTS)
        .map(|t| Rpl::from_names([format!("BacklogTenant{t}").as_str()]))
        .collect();
    (0..n)
        .map(|_| {
            let roll = rng.next_below(100);
            let t = regions[tenants.sample(&mut rng)];
            let key = t
                .child_name("Key")
                .child_index(keys.sample(&mut rng) as i64);
            match roll {
                0..=59 => EffectSet::read(key),
                60..=89 => EffectSet::write(key),
                _ => EffectSet::read(t.under_star()),
            }
        })
        .collect()
}

/// One repetition: nanoseconds per request and rechecks per completion.
fn conflicting_run(kind: SchedulerKind, in_flight: usize, requests: usize) -> (f64, f64) {
    let rt = Runtime::new(workers(), kind);
    let mut waiting = conflicting_requests(requests, 1).into_iter();
    let mut flying = VecDeque::new();
    let started = Instant::now();
    while waiting.len() > 0 || !flying.is_empty() {
        if waiting.len() > 0 && flying.len() + BURST <= in_flight {
            let burst = waiting.by_ref().take(BURST);
            flying.extend(rt.submit_all(burst.map(|e| ("", e, |_: &TaskCtx<'_>| ()))));
        }
        // Never blocks, never helps: the workers do the completions.
        for _ in 0..flying.len() {
            let future = flying.pop_front().expect("length checked");
            if !future.is_done() {
                flying.push_back(future);
            }
        }
    }
    let per_request = (started.elapsed().as_nanos() / requests as u128) as f64;
    let rechecks = rt.stats().scheduler.wake_rechecks as f64 / requests as f64;
    (per_request, rechecks)
}

/// One core is the driver's, as in the benchmark.
fn workers() -> usize {
    host_cpus().saturating_sub(1).max(1)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs the conflicting-mix sweep on both schedulers. Quick mode stops at
/// 256 in flight with a quarter of the requests: enough for the push-CI
/// check that the tree's rechecks per completion do not grow with the cap.
pub fn run_conflicting_sweep(quick: bool) -> Vec<ConflictingRow> {
    let (caps, requests) = if quick {
        (&CONFLICTING_IN_FLIGHT[..3], 8_192)
    } else {
        (&CONFLICTING_IN_FLIGHT[..], 32_768)
    };
    let mut rows = Vec::new();
    for kind in [SchedulerKind::Tree, SchedulerKind::Naive] {
        for &in_flight in caps {
            eprintln!(
                "# backlog cell: conflicting mix, {}, {in_flight} in flight",
                kind.label()
            );
            let runs: Vec<(f64, f64)> = (0..REPETITIONS)
                .map(|_| conflicting_run(kind, in_flight, requests))
                .collect();
            rows.push(ConflictingRow {
                scheduler: kind.label().to_string(),
                in_flight,
                requests,
                repetitions: REPETITIONS,
                per_request_ns: Spread::of(runs.iter().map(|r| r.0).collect()),
                rechecks_per_done: Spread::of(runs.iter().map(|r| r.1).collect()),
                workers: workers(),
                host_cpus: host_cpus(),
            });
        }
    }
    rows
}

/// Pretty-prints the conflicting-mix rows.
pub fn print_conflicting_rows(rows: &[ConflictingRow]) {
    println!(
        "{:<13} {:>9} {:>30} {:>26}",
        "scheduler", "in flight", "ns/request (min med max)", "rechecks/done (min med max)"
    );
    for r in rows {
        let (ns, rechecks) = (r.per_request_ns, r.rechecks_per_done);
        println!(
            "{:<13} {:>9} {:>10} {:>9} {:>9} {:>10.2} {:>7.2} {:>7.2}",
            r.scheduler,
            r.in_flight,
            ns.min,
            ns.median,
            ns.max,
            rechecks.min,
            rechecks.median,
            rechecks.max
        );
    }
}

/// One row of `BENCH_backlog.json`.
#[derive(Clone, Debug, Serialize)]
pub struct BacklogRow {
    /// Wakeup discipline: `"indexed"` or `"full_scan"`.
    pub mode: String,
    /// Queue depth the drain starts from.
    pub backlog: usize,
    /// Distinct conflict keys (chain length = `backlog / keys`).
    pub keys: usize,
    /// Mean wall-clock nanoseconds per `task_done` over the whole drain.
    pub per_done_ns: u64,
    /// Mean `scan_work` units per completion (deterministic; the
    /// structural push-CI assertion uses this, not the timing).
    pub scan_work_per_done: u64,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub host_cpus: usize,
}

/// Backlog depths the indexed discipline is measured at.
pub const BACKLOG_DEPTHS_INDEXED: [usize; 3] = [4_096, 16_384, 65_536];

/// Backlog depths the full-scan contrast is measured at (stops before the
/// quadratic wall).
pub const BACKLOG_DEPTHS_FULL_SCAN: [usize; 2] = [4_096, 16_384];

fn measure(mode: &str, backlog: usize) -> BacklogRow {
    // Keys scale with depth so the chain length stays ~8: depth is the
    // variable under test, per-key contention is held fixed.
    let keys = (backlog / 8).max(1);
    let ready: Arc<Mutex<Vec<Arc<TaskRecord>>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = ready.clone();
    let enable: Box<dyn Fn(Arc<TaskRecord>) + Send + Sync> =
        Box::new(move |t| r2.lock().unwrap().push(t));
    let sched = match mode {
        "indexed" => NaiveScheduler::new(enable),
        "full_scan" => NaiveScheduler::new_full_scan(enable),
        _ => unreachable!("unknown mode {mode}"),
    };
    let tasks: Vec<Arc<TaskRecord>> = (0..backlog)
        .map(|i| {
            TaskRecord::new(
                i as u64,
                format!("b{i}"),
                EffectSet::parse(&format!("writes K:[{}]", i % keys)),
                false,
            )
        })
        .collect();
    sched.submit_batch(tasks);

    let started = Instant::now();
    let mut done = 0usize;
    while done < backlog {
        let next = ready.lock().unwrap().pop();
        let t = next.unwrap_or_else(|| panic!("backlog drain stalled at {done}/{backlog}"));
        t.mark_done();
        sched.task_done(&t);
        done += 1;
    }
    let elapsed = started.elapsed();

    BacklogRow {
        mode: mode.to_string(),
        backlog,
        keys,
        per_done_ns: (elapsed.as_nanos() / backlog as u128) as u64,
        scan_work_per_done: sched.diagnostics().scan_work / backlog as u64,
        host_cpus: host_cpus(),
    }
}

/// Runs the backlog sweep. Quick mode keeps the 4k cells (both modes) —
/// enough for the structural push-CI check that indexed scan work per
/// completion stays an order of magnitude under full scan's; the scheduled
/// 64k/4k ≤ 8x timing bar needs the full sweep.
pub fn run_backlog_bench(quick: bool) -> Vec<BacklogRow> {
    let mut rows = Vec::new();
    let indexed: &[usize] = if quick {
        &BACKLOG_DEPTHS_INDEXED[..1]
    } else {
        &BACKLOG_DEPTHS_INDEXED
    };
    let full: &[usize] = if quick {
        &BACKLOG_DEPTHS_FULL_SCAN[..1]
    } else {
        &BACKLOG_DEPTHS_FULL_SCAN
    };
    for &backlog in indexed {
        eprintln!("# backlog cell: indexed depth={backlog}");
        rows.push(measure("indexed", backlog));
    }
    for &backlog in full {
        eprintln!("# backlog cell: full_scan depth={backlog}");
        rows.push(measure("full_scan", backlog));
    }
    rows
}

/// Pretty-prints the backlog rows.
pub fn print_backlog_rows(rows: &[BacklogRow]) {
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>16}",
        "mode", "backlog", "keys", "per_done", "scan work/done"
    );
    for r in rows {
        println!(
            "{:<10} {:>8} {:>8} {:>10}ns {:>16}",
            r.mode, r.backlog, r.keys, r.per_done_ns, r.scan_work_per_done
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflicting_mix_drains_and_the_tree_rechecks_no_more_behind_a_deeper_backlog() {
        // Small and count-based: the mix parks tasks on both schedulers, and
        // on the tree what a completion rechecks does not depend on the cap.
        let requests = 4_096;
        let (_, shallow) = conflicting_run(SchedulerKind::Tree, 64, requests);
        let (_, deep) = conflicting_run(SchedulerKind::Tree, 512, requests);
        assert!(
            shallow > 0.1,
            "nothing parked: {shallow} rechecks per completion"
        );
        assert!(
            deep <= 1.5 * shallow + 0.25,
            "{deep} at 512 in flight, {shallow} at 64"
        );
        let (_, naive) = conflicting_run(SchedulerKind::Naive, 64, requests);
        assert!(
            naive > 0.1,
            "the single queue re-evaluated nothing: {naive}"
        );
    }

    #[test]
    fn backlog_rows_show_the_index_beating_full_scan() {
        // Small depths so the test stays quick even in debug; the
        // structural claim is scale-free: at equal depth the indexed
        // discipline's deterministic scan work per completion must sit
        // far below full scan's (which rescans the whole queue).
        let indexed = measure("indexed", 2_048);
        let full = measure("full_scan", 2_048);
        assert_eq!(indexed.backlog, full.backlog);
        assert!(indexed.scan_work_per_done > 0);
        assert!(
            indexed.scan_work_per_done * 8 < full.scan_work_per_done,
            "indexed {} vs full {} scan work per completion",
            indexed.scan_work_per_done,
            full.scan_work_per_done
        );
        // Chain length is fixed, so doubling the depth must not blow up
        // indexed per-completion scan work (allow 2x noise headroom).
        let deeper = measure("indexed", 4_096);
        assert!(
            deeper.scan_work_per_done <= indexed.scan_work_per_done * 2 + 64,
            "indexed scan work grew with depth: {} at 4k vs {} at 2k",
            deeper.scan_work_per_done,
            indexed.scan_work_per_done
        );
    }
}
