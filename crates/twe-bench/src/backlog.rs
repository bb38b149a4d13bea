//! The backlog microbenchmark (`BENCH_backlog.json`): what a completion
//! costs behind a deep conflicting backlog, on both schedulers.
//!
//! The benchmark's `svc-contended` population — 4 tenants x 64 keys,
//! Zipf(1.1) over both, 60 % read / 30 % write / 10 % tenant scan — goes
//! through a [`Runtime`] ([`run_conflicting_sweep`]), closed loop in bursts
//! of 64, a burst whenever it fits under the in-flight cap, at caps of 64
//! to 4 096: per-request wall time and the scheduler's `wake_rechecks` per
//! completion, three repetitions each. A wake path that rechecks every
//! waiter of every completion grows with the *cube* of the cap here (each
//! of n completions rechecks O(n) waiters, each recheck scanning O(n)
//! records); the tree's hand-on keeps rechecks per completion flat. The
//! single queue is the paper's baseline and the contrast column.

use serde::Serialize;
use std::collections::VecDeque;
use std::time::Instant;
use twe_apps::util::SplitMix64;
use twe_effects::{EffectSet, Rpl};
use twe_runtime::{Runtime, SchedulerKind, TaskCtx};

/// `BENCH_backlog.json`.
#[derive(Clone, Debug, Serialize)]
pub struct BacklogRecord {
    /// The conflicting mix through a `Runtime`, by scheduler and in-flight
    /// cap.
    pub conflicting_mix: Vec<ConflictingRow>,
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
}
