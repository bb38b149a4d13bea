//! Dynamic-region churn microbenchmark (`BENCH_reclaim.json`).
//!
//! Measures create/drop churn of dynamic reference regions — the workload a
//! fleet of short-lived `DynCell`s generates — against the two reclaimers
//! behind the `twe_effects::reclaim` module boundary:
//!
//! * **leak** — the pre-reclamation discipline: every region allocation
//!   interns a fresh arena id forever (`Reclaimer::retire` is a no-op), so
//!   the interned arena grows linearly with churn;
//! * **epoch** — the epoch/QSBR reclaimer: retired ids pass through a
//!   two-epoch limbo window and are then *recycled* (same interned id, new
//!   generation), so the arena footprint is bounded by the live window plus
//!   the limbo transient regardless of how long the churn runs.
//!
//! While `threads` churners allocate and retire regions as fast as they
//! can, two reader threads continuously pin, load the most recently
//! published region handle, and run real RPL relation walks over it
//! (`__DynRegion:*` vs the region, the region vs a static partition) — the
//! conflict-plane reads the pin protocol exists to protect. Readers also
//! verify the generation check on every walk: a handle observed stale under
//! the pin must never report current.
//!
//! Two numbers matter per row:
//!
//! * `epoch_vs_leak` — churn throughput of the epoch reclaimer relative to
//!   the leaking baseline at the same thread count. Reclamation pays CAS +
//!   limbo bookkeeping per cycle; the bar is that it stays within a small
//!   constant factor (CI enforces ≥ 0.8× on ≥ 4-CPU hosts).
//! * `epoch_arena_growth` vs `leak_arena_growth` — interned entries added
//!   during the run. The leak row grows by ~`total_cycles`; the epoch row
//!   must stay bounded (CI enforces an absolute ceiling) — the leak PR 7
//!   exists to close.

use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;
use twe_effects::reclaim::{DynRegion, Epoch, Leak, Reclaimer};
use twe_effects::{arena, Rpl, RplElement};

/// Runs `work(thread_index)` on `threads` threads released together by a
/// barrier, and returns the wall-clock span `max(end) − min(start)` over
/// the workers' *own* timestamps. Timing inside the workers keeps the span
/// honest even on an oversubscribed host, where the coordinating thread may
/// not be rescheduled until the workers have already finished (spawn cost
/// stays excluded: clocks start after the barrier).
fn timed_parallel(threads: usize, work: impl Fn(usize) + Sync) -> f64 {
    let barrier = Barrier::new(threads);
    let spans = parking_lot::Mutex::new(Vec::with_capacity(threads));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            let work = &work;
            let spans = &spans;
            scope.spawn(move || {
                barrier.wait();
                let start = Instant::now();
                work(t);
                let end = Instant::now();
                spans.lock().push((start, end));
            });
        }
    });
    let spans = spans.into_inner();
    let first = spans.iter().map(|(s, _)| *s).min().expect("no workers");
    let last = spans.iter().map(|(_, e)| *e).max().expect("no workers");
    last.duration_since(first).as_secs_f64()
}

/// One row of `BENCH_reclaim.json`: region churn throughput at one churn
/// thread count, epoch reclaimer vs leaking baseline, with arena-footprint
/// deltas for both.
#[derive(Clone, Debug, Serialize)]
pub struct ReclaimRow {
    /// Churn threads used for this row (reader threads are 2 extra, fixed).
    pub threads: usize,
    /// Allocate+retire cycles per churn thread.
    pub cycles_per_thread: usize,
    /// Total allocate+retire cycles of the row (`threads × cycles`).
    pub total_cycles: usize,
    /// Churn cycles per second through the leaking baseline (best round).
    pub leak_cycles_per_sec: f64,
    /// Churn cycles per second through the epoch reclaimer (best round).
    pub epoch_cycles_per_sec: f64,
    /// `epoch_cycles_per_sec / leak_cycles_per_sec` (same thread count).
    pub epoch_vs_leak: f64,
    /// Interned-arena entries added across **all** of the row's leak
    /// rounds: ~one per cycle (≈ `rounds × total_cycles`), the unbounded
    /// footprint the epoch reclaimer closes.
    pub leak_arena_growth: usize,
    /// Interned-arena entries added across all of the row's epoch rounds:
    /// bounded by the pin window + limbo transient (larger on 1-CPU hosts,
    /// where a descheduled pinned reader stalls recycling for a timeslice),
    /// never linear in the cycle count.
    pub epoch_arena_growth: usize,
    /// Fresh ids the epoch reclaimer minted during its rounds (its share of
    /// `epoch_arena_growth`).
    pub epoch_minted: u64,
    /// Retired ids the epoch reclaimer handed back out with a bumped
    /// generation during its rounds.
    pub epoch_recycled: u64,
    /// Relation walks the reader threads completed across both variants
    /// (sanity: the conflict plane was actually being read during churn).
    pub reader_walks: u64,
    /// `std::thread::available_parallelism()` of the measuring host; CI
    /// enforcement of the throughput bar is gated on it.
    pub host_cpus: usize,
}

/// Churn thread counts the reclaim bench sweeps.
pub const RECLAIM_THREADS: [usize; 3] = [1, 2, 4];

/// Reader threads running pinned conflict walks during every churn round.
const READERS: usize = 2;

/// One churn round against `reclaimer`: `threads` churners each run
/// `cycles` allocate→publish→retire cycles while [`READERS`] reader
/// threads pin and walk the published regions. Returns the churn span in
/// seconds (readers are untimed load) and the walks the readers completed.
fn churn_round(reclaimer: &impl Reclaimer, threads: usize, cycles: usize) -> (f64, u64) {
    let published: Vec<parking_lot::Mutex<Option<DynRegion>>> = (0..threads)
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    let stop = AtomicBool::new(false);
    let walks = std::sync::atomic::AtomicU64::new(0);
    let dyn_star = Rpl::new(vec![RplElement::name("__DynRegion"), RplElement::Star]);
    let partition = Rpl::parse("ReclaimBenchStatic:[7]");
    let mut secs = 0.0;
    std::thread::scope(|scope| {
        for r in 0..READERS {
            let published = &published;
            let stop = &stop;
            let walks = &walks;
            let reclaimer = &*reclaimer;
            let dyn_star = &dyn_star;
            let partition = &partition;
            scope.spawn(move || {
                let mut slot = r;
                while !stop.load(Ordering::Relaxed) {
                    slot = (slot + 1) % published.len();
                    let Some(region) = *published[slot].lock() else {
                        std::hint::spin_loop();
                        continue;
                    };
                    // The conflict-plane read the pin protocol protects:
                    // under the pin, a handle that passes the generation
                    // check names a region that cannot be recycled until
                    // the pin drops, so the relation walks below are
                    // era-consistent even though churners are retiring
                    // concurrently.
                    let pin = reclaimer.pin();
                    if reclaimer.is_current(region) {
                        let rpl = region.rpl();
                        assert!(
                            dyn_star.overlaps(&rpl),
                            "a region lives under __DynRegion:*"
                        );
                        assert!(
                            rpl.disjoint(partition),
                            "regions never alias static partitions"
                        );
                        walks.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(pin);
                }
            });
        }
        secs = timed_parallel(threads, |t| {
            for _ in 0..cycles {
                let region = reclaimer.allocate();
                *published[t].lock() = Some(region);
                reclaimer.retire(region);
            }
        });
        stop.store(true, Ordering::Relaxed);
    });
    (secs, walks.load(Ordering::Relaxed))
}

/// Best-of-`rounds` churn throughput (cycles/second) plus total reader
/// walks across the rounds.
fn best_of(reclaimer: &impl Reclaimer, threads: usize, cycles: usize, rounds: usize) -> (f64, u64) {
    let mut best = f64::MAX;
    let mut walks = 0u64;
    for _ in 0..rounds {
        let (secs, w) = churn_round(reclaimer, threads, cycles);
        best = best.min(secs);
        walks += w;
    }
    ((threads * cycles) as f64 / best.max(1e-12), walks)
}

/// Runs the region-churn sweep: one [`ReclaimRow`] per churn thread count
/// in [`RECLAIM_THREADS`], epoch reclaimer vs leaking baseline on identical
/// workloads. Even in quick mode every row's epoch side performs ≥ 100k
/// create+drop cycles in total across its rounds, the scale at which an
/// unbounded footprint is unmistakable.
pub fn run_reclaim_bench(quick: bool) -> Vec<ReclaimRow> {
    let (cycles, rounds) = if quick { (25_000, 4) } else { (100_000, 5) };
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for threads in RECLAIM_THREADS {
        // Fresh reclaimer instances per row: each row's stats and arena
        // growth are attributable to exactly this thread count. The leak
        // baseline runs first and its growth is measured around its own
        // rounds only (the epoch side's mints are a separate delta).
        let leak = Leak::new();
        let arena_before = arena::len();
        let (leak_cps, leak_walks) = best_of(&leak, threads, cycles, rounds);
        let leak_growth = arena::len() - arena_before;

        let epoch = Epoch::new();
        let arena_before = arena::len();
        let (epoch_cps, epoch_walks) = best_of(&epoch, threads, cycles, rounds);
        let epoch_growth = arena::len() - arena_before;
        let stats = epoch.stats();

        rows.push(ReclaimRow {
            threads,
            cycles_per_thread: cycles,
            total_cycles: threads * cycles,
            leak_cycles_per_sec: leak_cps,
            epoch_cycles_per_sec: epoch_cps,
            epoch_vs_leak: epoch_cps / leak_cps.max(1e-12),
            leak_arena_growth: leak_growth,
            epoch_arena_growth: epoch_growth,
            epoch_minted: stats.minted,
            epoch_recycled: stats.recycled,
            reader_walks: leak_walks + epoch_walks,
            host_cpus,
        });
    }
    rows
}

/// Pretty-prints the reclaim microbenchmark rows.
pub fn print_reclaim_rows(rows: &[ReclaimRow]) {
    println!(
        "{:<8} {:>12} {:>14} {:>14} {:>10} {:>12} {:>12} {:>10}",
        "threads",
        "cycles",
        "leak cyc/s",
        "epoch cyc/s",
        "vs leak",
        "leak growth",
        "epoch growth",
        "recycled"
    );
    for r in rows {
        println!(
            "{:<8} {:>12} {:>14.0} {:>14.0} {:>9.2}x {:>12} {:>12} {:>10}",
            r.threads,
            r.total_cycles,
            r.leak_cycles_per_sec,
            r.epoch_cycles_per_sec,
            r.epoch_vs_leak,
            r.leak_arena_growth,
            r.epoch_arena_growth,
            r.epoch_recycled
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaim_rows_show_bounded_epoch_and_unbounded_leak() {
        // A tiny sweep (not the quick-mode workload: CI's smoke step runs
        // that) — enough to pin the structural claims: the leak side grows
        // the arena by ~total cycles, the epoch side stays bounded, and
        // the readers actually walked.
        let threads = 2;
        let cycles = 2_000;
        let leak = Leak::new();
        let before = arena::len();
        let (leak_cps, _) = best_of(&leak, threads, cycles, 1);
        let leak_growth = arena::len() - before;
        assert!(leak_cps > 0.0);
        assert!(
            leak_growth >= threads * cycles,
            "the leaking baseline mints every allocation ({leak_growth})"
        );

        let epoch = Epoch::new();
        let (epoch_cps, _) = best_of(&epoch, threads, cycles, 1);
        assert!(epoch_cps > 0.0);
        let stats = epoch.stats();
        assert_eq!(stats.minted + stats.recycled, stats.allocated);
        // Boundedness, checked deterministically: during the timed round a
        // reader descheduled *while pinned* (likely when this binary's
        // other tests oversubscribe the host) may stall recycling for
        // whole timeslices, so the round's own mint count is noisy. With
        // the readers gone no pin can stall the epoch, so a follow-up
        // sequential churn must recycle essentially every cycle.
        let minted_before = epoch.stats().minted;
        for _ in 0..1_000 {
            let region = epoch.allocate();
            epoch.retire(region);
        }
        let follow_up_mints = epoch.stats().minted - minted_before;
        assert!(
            follow_up_mints <= 8,
            "unpinned churn must recycle, not mint ({follow_up_mints} mints in 1000 cycles)"
        );
    }
}
