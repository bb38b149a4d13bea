//! # twe-bench
//!
//! The benchmark harness that regenerates every figure of the Tasks With
//! Effects evaluation (chapter 6 and §7.6 of the paper). Each `fig_*`
//! function runs the corresponding benchmarks across a thread sweep and
//! returns a table of [`Row`]s; the `figures` binary prints them (and can
//! dump JSON/CSV).
//!
//! Absolute numbers will differ from the paper (different language, machine
//! and core count); the reproduction target is the *shape*: which variant
//! wins, how each scales with threads, where the naive single-queue
//! scheduler collapses under fine-grain tasks, and how contention (e.g. the
//! K sweep of Figure 6.3) changes the picture.

#![warn(missing_docs)]

pub mod backlog;
pub mod reclaim;

pub use backlog::{
    print_backlog_rows, print_conflicting_rows, run_backlog_bench, run_conflicting_sweep,
    BacklogRecord, BacklogRow, ConflictingRow, Spread, BACKLOG_DEPTHS_FULL_SCAN,
    BACKLOG_DEPTHS_INDEXED, CONFLICTING_IN_FLIGHT,
};
pub use reclaim::{print_reclaim_rows, run_reclaim_bench, ReclaimRow, RECLAIM_THREADS};

use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use twe_apps::{barneshut, coloring, fourwins, imageedit, kmeans, montecarlo, refine, ssca2, tsp};
use twe_effects::rpl::oracle;
use twe_effects::{Effect, EffectSet, Rpl, RplElement};
use twe_runtime::naive::NaiveScheduler;
use twe_runtime::scheduler::Scheduler;
use twe_runtime::task::TaskRecord;
use twe_runtime::tree::TreeScheduler;
use twe_runtime::{Runtime, SchedulerKind};

/// One measured data point of a figure.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Which figure the point belongs to (e.g. `"6.3"`).
    pub figure: String,
    /// Benchmark name (e.g. `"k-means"`).
    pub benchmark: String,
    /// Variant (e.g. `"twe-tree"`, `"twe-single-queue"`, `"sync"`, `"seq"`).
    pub variant: String,
    /// Worker thread count used.
    pub threads: usize,
    /// Extra parameter (e.g. `"K=1000"`), empty when not applicable.
    pub param: String,
    /// Wall-clock seconds of the measured phase.
    pub seconds: f64,
    /// Speedup relative to the benchmark's sequential baseline.
    pub speedup: f64,
    /// Auxiliary counter (task retries for the dynamic-effect benchmarks).
    pub aux: u64,
}

/// Thread counts the harness sweeps: powers of two up to the host's
/// available parallelism (the paper measured 1..80 on a 40-core machine).
pub fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut counts = vec![1usize];
    while *counts.last().unwrap() * 2 <= max {
        counts.push(counts.last().unwrap() * 2);
    }
    if *counts.last().unwrap() != max {
        counts.push(max);
    }
    counts
}

fn time<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn row(
    figure: &str,
    benchmark: &str,
    variant: &str,
    threads: usize,
    param: &str,
    seconds: f64,
    seq_seconds: f64,
) -> Row {
    Row {
        figure: figure.to_string(),
        benchmark: benchmark.to_string(),
        variant: variant.to_string(),
        threads,
        param: param.to_string(),
        seconds,
        speedup: if seconds > 0.0 {
            seq_seconds / seconds
        } else {
            0.0
        },
        aux: 0,
    }
}

/// Figure 6.1: parallel speedups of the three DPJ-ported benchmarks
/// (Barnes-Hut, Monte Carlo, K-Means) with the **naive** scheduler, compared
/// against a fork-join version with no run-time effect scheduling (the
/// stand-in for the DPJ comparator).
pub fn fig_6_1(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let threads = thread_counts();

    // Barnes-Hut.
    let bh_cfg = barneshut::BarnesHutConfig {
        n_bodies: if quick { 2_000 } else { 20_000 },
        chunks: 128,
        ..Default::default()
    };
    let bodies = barneshut::generate(&bh_cfg);
    let tree = barneshut::build_tree(&bodies);
    let (seq_s, _) = time(|| barneshut::run_sequential(&bh_cfg, &bodies, &tree));
    rows.push(row("6.1", "barnes-hut", "seq", 1, "", seq_s, seq_s));
    for &t in &threads {
        let rt = Runtime::new(t, SchedulerKind::Naive);
        let (s, _) = time(|| barneshut::run_twe(&rt, &bh_cfg, &bodies, &tree));
        rows.push(row(
            "6.1",
            "barnes-hut",
            "twe-single-queue",
            t,
            "",
            s,
            seq_s,
        ));
        let (s, _) = time(|| barneshut::run_forkjoin_baseline(t, &bh_cfg, &bodies, &tree));
        rows.push(row("6.1", "barnes-hut", "forkjoin(dpj)", t, "", s, seq_s));
    }

    // Monte Carlo.
    let mc_cfg = montecarlo::MonteCarloConfig {
        n_paths: if quick { 4_000 } else { 60_000 },
        n_steps: if quick { 60 } else { 200 },
        ..Default::default()
    };
    let (seq_s, _) = time(|| montecarlo::run_sequential(&mc_cfg));
    rows.push(row("6.1", "monte-carlo", "seq", 1, "", seq_s, seq_s));
    for &t in &threads {
        let rt = Runtime::new(t, SchedulerKind::Naive);
        let (s, _) = time(|| montecarlo::run_twe(&rt, &mc_cfg));
        rows.push(row(
            "6.1",
            "monte-carlo",
            "twe-single-queue",
            t,
            "",
            s,
            seq_s,
        ));
        let (s, _) = time(|| montecarlo::run_forkjoin_baseline(t, &mc_cfg));
        rows.push(row("6.1", "monte-carlo", "forkjoin(dpj)", t, "", s, seq_s));
    }

    // K-Means (K = 25000-equivalent, scaled).
    let km_cfg = kmeans::KMeansConfig {
        n_points: if quick { 2_000 } else { 50_000 },
        n_clusters: if quick { 512 } else { 25_000 },
        points_per_task: if quick { 4 } else { 1 },
        ..Default::default()
    };
    let input = kmeans::generate(&km_cfg);
    let (seq_s, _) = time(|| kmeans::run_sequential(&input));
    rows.push(row("6.1", "k-means", "seq", 1, "", seq_s, seq_s));
    for &t in &threads {
        let rt = Runtime::new(t, SchedulerKind::Naive);
        let (s, _) = time(|| kmeans::run_twe(&rt, &input));
        rows.push(row("6.1", "k-means", "twe-single-queue", t, "", s, seq_s));
        let (s, _) = time(|| kmeans::run_forkjoin_baseline(t, &input));
        rows.push(row("6.1", "k-means", "forkjoin(dpj)", t, "", s, seq_s));
    }
    rows
}

/// Figure 6.2: speedups of the two interactive applications' measured
/// computations (FourWins AI, ImageEdit edge detection and sharpening) with
/// the naive scheduler.
pub fn fig_6_2(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let threads = thread_counts();

    // FourWins AI.
    let fw_cfg = fourwins::FourWinsConfig {
        depth: if quick { 7 } else { 9 },
        parallel_depth: 2,
        ..Default::default()
    };
    let (seq_s, _) = time(|| fourwins::run_sequential(&fw_cfg));
    rows.push(row("6.2", "fourwins-ai", "seq", 1, "", seq_s, seq_s));
    for &t in &threads {
        let rt = Runtime::new(t, SchedulerKind::Naive);
        let (s, _) = time(|| fourwins::run_twe(&rt, &fw_cfg));
        rows.push(row(
            "6.2",
            "fourwins-ai",
            "twe-single-queue",
            t,
            "",
            s,
            seq_s,
        ));
    }

    // ImageEdit filters.
    for (name, filter) in [
        ("imageedit-edge-detect", imageedit::Filter::EdgeDetect),
        ("imageedit-sharpen", imageedit::Filter::Sharpen),
    ] {
        let cfg = imageedit::ImageEditConfig {
            width: if quick { 512 } else { 2048 },
            height: if quick { 512 } else { 2048 },
            blocks: 64,
            filter,
            seed: 11,
        };
        let img = imageedit::Image::synthetic(cfg.width, cfg.height, cfg.seed);
        let (seq_s, _) = time(|| imageedit::run_sequential(&cfg, &img));
        rows.push(row("6.2", name, "seq", 1, "", seq_s, seq_s));
        for &t in &threads {
            let rt = Runtime::new(t, SchedulerKind::Naive);
            let (s, _) = time(|| imageedit::run_twe(&rt, &cfg, &img));
            rows.push(row("6.2", name, "twe-single-queue", t, "", s, seq_s));
        }
    }
    rows
}

/// Figure 6.3: K-Means running time for K = 25000, 5000, 1000 with the tree
/// scheduler, the single-queue scheduler, and the `synchronized`-style
/// baseline.
pub fn fig_6_3(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let threads = thread_counts();
    let n_points = if quick { 4_000 } else { 50_000 };
    let cluster_counts: Vec<usize> = if quick {
        vec![2_000, 400, 80]
    } else {
        vec![25_000, 5_000, 1_000]
    };
    for k in cluster_counts {
        let cfg = kmeans::KMeansConfig {
            n_points,
            n_clusters: k,
            points_per_task: if quick { 4 } else { 1 },
            ..Default::default()
        };
        let input = kmeans::generate(&cfg);
        let param = format!("K={k}");
        let (seq_s, _) = time(|| kmeans::run_sequential(&input));
        rows.push(row("6.3", "k-means", "seq", 1, &param, seq_s, seq_s));
        for &t in &threads {
            for (variant, kind) in [
                ("twe-single-queue", SchedulerKind::Naive),
                ("twe-tree", SchedulerKind::Tree),
            ] {
                let rt = Runtime::new(t, kind);
                let (s, _) = time(|| kmeans::run_twe(&rt, &input));
                rows.push(row("6.3", "k-means", variant, t, &param, s, seq_s));
            }
            let (s, _) = time(|| kmeans::run_sync_baseline(t, &input));
            rows.push(row("6.3", "k-means", "sync", t, &param, s, seq_s));
        }
    }
    rows
}

/// Figure 6.4: SSCA2 (tree vs single-queue vs sync), TSP (tree vs
/// single-queue vs fork-join), and Barnes-Hut / Monte Carlo / FourWins with
/// the tree vs the single-queue scheduler.
pub fn fig_6_4(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let threads = thread_counts();

    // SSCA2.
    let ssca_cfg = ssca2::Ssca2Config {
        n_nodes: if quick { 2_000 } else { 20_000 },
        n_edges: if quick { 20_000 } else { 400_000 },
        edges_per_task: 4,
        ..Default::default()
    };
    let edges = ssca2::generate(&ssca_cfg);
    let (seq_s, _) = time(|| ssca2::run_sequential(&ssca_cfg, &edges));
    rows.push(row("6.4", "ssca2", "seq", 1, "", seq_s, seq_s));
    for &t in &threads {
        for (variant, kind) in [
            ("twe-single-queue", SchedulerKind::Naive),
            ("twe-tree", SchedulerKind::Tree),
        ] {
            let rt = Runtime::new(t, kind);
            let (s, _) = time(|| ssca2::run_twe(&rt, &ssca_cfg, &edges));
            rows.push(row("6.4", "ssca2", variant, t, "", s, seq_s));
        }
        let (s, _) = time(|| ssca2::run_sync_baseline(t, &ssca_cfg, &edges));
        rows.push(row("6.4", "ssca2", "sync", t, "", s, seq_s));
    }

    // TSP.
    let tsp_cfg = tsp::TspConfig {
        n_cities: if quick { 11 } else { 13 },
        cutoff: if quick { 3 } else { 4 },
        ..Default::default()
    };
    let dist = tsp::generate(&tsp_cfg);
    let (seq_s, _) = time(|| tsp::run_sequential(&dist));
    rows.push(row("6.4", "tsp", "seq", 1, "", seq_s, seq_s));
    for &t in &threads {
        for (variant, kind) in [
            ("twe-single-queue", SchedulerKind::Naive),
            ("twe-tree", SchedulerKind::Tree),
        ] {
            let rt = Runtime::new(t, kind);
            let (s, _) = time(|| tsp::run_twe(&rt, &tsp_cfg, &dist));
            rows.push(row("6.4", "tsp", variant, t, "", s, seq_s));
        }
        let (s, _) = time(|| tsp::run_forkjoin_baseline(t, &dist));
        rows.push(row("6.4", "tsp", "forkjoin", t, "", s, seq_s));
    }

    // Barnes-Hut, Monte Carlo, FourWins: tree vs single-queue.
    let bh_cfg = barneshut::BarnesHutConfig {
        n_bodies: if quick { 2_000 } else { 20_000 },
        chunks: 128,
        ..Default::default()
    };
    let bodies = barneshut::generate(&bh_cfg);
    let qtree = barneshut::build_tree(&bodies);
    let (bh_seq, _) = time(|| barneshut::run_sequential(&bh_cfg, &bodies, &qtree));
    rows.push(row("6.4", "barnes-hut", "seq", 1, "", bh_seq, bh_seq));

    let mc_cfg = montecarlo::MonteCarloConfig {
        n_paths: if quick { 4_000 } else { 60_000 },
        n_steps: if quick { 60 } else { 200 },
        ..Default::default()
    };
    let (mc_seq, _) = time(|| montecarlo::run_sequential(&mc_cfg));
    rows.push(row("6.4", "monte-carlo", "seq", 1, "", mc_seq, mc_seq));

    let fw_cfg = fourwins::FourWinsConfig {
        depth: if quick { 7 } else { 9 },
        parallel_depth: 2,
        ..Default::default()
    };
    let (fw_seq, _) = time(|| fourwins::run_sequential(&fw_cfg));
    rows.push(row("6.4", "fourwins-ai", "seq", 1, "", fw_seq, fw_seq));

    for &t in &threads {
        for (variant, kind) in [
            ("twe-single-queue", SchedulerKind::Naive),
            ("twe-tree", SchedulerKind::Tree),
        ] {
            let rt = Runtime::new(t, kind);
            let (s, _) = time(|| barneshut::run_twe(&rt, &bh_cfg, &bodies, &qtree));
            rows.push(row("6.4", "barnes-hut", variant, t, "", s, bh_seq));
            let rt = Runtime::new(t, kind);
            let (s, _) = time(|| montecarlo::run_twe(&rt, &mc_cfg));
            rows.push(row("6.4", "monte-carlo", variant, t, "", s, mc_seq));
            let rt = Runtime::new(t, kind);
            let (s, _) = time(|| fourwins::run_twe(&rt, &fw_cfg));
            rows.push(row("6.4", "fourwins-ai", variant, t, "", s, fw_seq));
        }
    }
    rows
}

/// §7.6 (reported here as "figure 7.1"): self-relative speedups and overheads
/// of the dynamic-effect benchmarks (Delaunay-style refinement and graph
/// colouring), plus the number of aborted attempts.
pub fn fig_7_1(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let threads = thread_counts();

    // Refinement.
    let refine_cfg = refine::RefineConfig {
        n_triangles: if quick { 5_000 } else { 100_000 },
        bad_fraction: 0.2,
        max_cavity: 6,
        ..Default::default()
    };
    let mesh = refine::generate(&refine_cfg);
    let (seq_s, _) = time(|| refine::run_sequential(&refine_cfg, &mesh));
    rows.push(row("7.1", "refine", "seq", 1, "", seq_s, seq_s));
    for &t in &threads {
        let mesh = refine::generate(&refine_cfg);
        let rt = Runtime::new(t, SchedulerKind::Tree);
        let (s, _) = time(|| refine::run_twe(&rt, &refine_cfg, &mesh));
        let mut r = row("7.1", "refine", "twe-dynamic", t, "", s, seq_s);
        r.aux = rt.stats().task_retries;
        rows.push(r);
        let mesh = refine::generate(&refine_cfg);
        let (s, _) = time(|| refine::run_coarse_baseline(t, &refine_cfg, &mesh));
        rows.push(row("7.1", "refine", "coarse-lock", t, "", s, seq_s));
    }

    // Colouring.
    let color_cfg = coloring::ColoringConfig {
        n_nodes: if quick { 5_000 } else { 100_000 },
        avg_degree: 8,
        ..Default::default()
    };
    let graph = coloring::generate(&color_cfg);
    let (seq_s, _) = time(|| coloring::run_sequential(&graph));
    rows.push(row("7.1", "coloring", "seq", 1, "", seq_s, seq_s));
    for &t in &threads {
        let graph = coloring::generate(&color_cfg);
        let rt = Runtime::new(t, SchedulerKind::Tree);
        let (s, _) = time(|| coloring::run_twe(&rt, &graph));
        let mut r = row("7.1", "coloring", "twe-dynamic", t, "", s, seq_s);
        r.aux = rt.stats().task_retries;
        rows.push(r);
        let graph = coloring::generate(&color_cfg);
        let (s, _) = time(|| coloring::run_lock_baseline(t, &graph));
        rows.push(row("7.1", "coloring", "per-node-lock", t, "", s, seq_s));
    }
    rows
}

/// One row of the RPL conflict-test microbenchmark (`BENCH_conflict.json`):
/// throughput of the interned id-based disjointness test against the
/// baseline it replaced, on same-shaped workloads.
#[derive(Clone, Debug, Serialize)]
pub struct ConflictRow {
    /// Workload shape:
    ///
    /// * `"concrete"` — fully-specified RPLs (the pure id-compare path);
    /// * `"wild-mix"` — every fourth RPL a wildcard cycling trailing-star /
    ///   trailing-`[?]` / mid-star (ancestor test, `[?]` shape test,
    ///   element-wise fallback);
    /// * `"anyindex"` — `P:[?]` against concrete index children (the
    ///   dedicated O(1) shape fast path);
    /// * `"set-disjoint"` — pairwise-disjoint `EffectSet`s (`depth` is the
    ///   per-set effect count): summary-filtered
    ///   `EffectSet::non_interfering` vs the plain all-pairs loop, both over
    ///   interned ids.
    pub shape: String,
    /// RPL depth of the workload (for `set-disjoint`: effects per set).
    pub depth: usize,
    /// Whether the workload contains wildcard RPLs.
    pub wildcard: bool,
    /// Conflict tests per second with the interned-id (for sets:
    /// summary-filtered) implementation.
    pub id_ops_per_sec: f64,
    /// Conflict tests per second with the baseline: the element-wise oracle
    /// for RPL rows, the all-pairs effect loop for set rows.
    pub elementwise_ops_per_sec: f64,
    /// `id_ops_per_sec / elementwise_ops_per_sec`.
    pub speedup: f64,
}

/// Builds the `n`-path conflict workload at the given depth. Concrete paths
/// share a long common prefix and end in a distinct index (the worst case
/// for the element-wise scan, and the shape fine-grained workloads produce).
/// With `wildcard`, every fourth path is a wildcard RPL cycling through the
/// three shapes the id-based implementation handles differently: a
/// trailing star at a varying truncation depth (the O(1) ancestor-test fast
/// path), a trailing `[?]` (the O(1) shape test against concrete and
/// trailing-wildcard partners), and a mid-path star (always the element-wise
/// fallback, as is a trailing `[?]` against it).
///
/// Shared by the `figures --fig conflict` throughput record and the
/// `conflict` criterion bench so the two always measure the same shapes.
pub fn conflict_paths(depth: usize, n: usize, wildcard: bool) -> Vec<Vec<RplElement>> {
    (0..n)
        .map(|i| {
            let mut path: Vec<RplElement> = Vec::with_capacity(depth);
            path.push(RplElement::name("Conflict"));
            if wildcard && i % 4 == 0 && depth > 1 {
                match (i / 4) % 3 {
                    1 if depth > 2 => {
                        // Trailing any-index.
                        for level in 1..depth - 1 {
                            path.push(RplElement::name(&format!("L{level}")));
                        }
                        path.push(RplElement::AnyIndex);
                    }
                    2 if depth > 2 => {
                        // Mid-path star with a distinct tail: the
                        // element-wise fallback. Exactly `depth` elements
                        // like every other shape, so the row's depth label
                        // stays truthful.
                        for level in 1..depth - 2 {
                            path.push(RplElement::name(&format!("L{level}")));
                        }
                        path.push(RplElement::Star);
                        path.push(RplElement::Index((i / 4) as i64));
                    }
                    _ => {
                        // Trailing star, prefix truncated at a varying depth.
                        let cut = 1 + (i / 12) % (depth - 1);
                        for level in 1..cut {
                            path.push(RplElement::name(&format!("L{level}")));
                        }
                        path.push(RplElement::Star);
                    }
                }
            } else {
                for level in 1..depth.saturating_sub(1) {
                    path.push(RplElement::name(&format!("L{level}")));
                }
                if depth > 1 {
                    path.push(RplElement::Index(i as i64));
                }
            }
            path
        })
        .collect()
}

/// Builds the `n`-path `P:[?]` workload at the given depth (≥ 2): every
/// other path is the trailing-any-index wildcard `P:[?]` over a shared
/// concrete prefix, the rest are concrete index children `P:[i]` — the
/// index-partitioned shape (`Data:[i]` workers vs a `Data:[?]` sweeper)
/// whose conflict test resolves through the dedicated O(1) parent-id +
/// last-element-kind check.
pub fn anyindex_paths(depth: usize, n: usize) -> Vec<Vec<RplElement>> {
    assert!(depth >= 2, "the P:[?] shape needs a parent and a tail");
    (0..n)
        .map(|i| {
            let mut path: Vec<RplElement> = Vec::with_capacity(depth);
            path.push(RplElement::name("AnyIdx"));
            for level in 1..depth - 1 {
                path.push(RplElement::name(&format!("L{level}")));
            }
            if i % 2 == 0 {
                path.push(RplElement::AnyIndex);
            } else {
                path.push(RplElement::Index(i as i64));
            }
            path
        })
        .collect()
}

/// Builds `n` pairwise anchor-disjoint effect sets of `set_size` effects
/// each: set `k`'s effects live under the top-level region `SetK`, so any
/// two sets are disjoint and the per-set summary rejects the pair in O(set)
/// where the all-pairs loop scans `set_size²` id pairs.
pub fn disjoint_effect_sets(n: usize, set_size: usize) -> Vec<EffectSet> {
    (0..n)
        .map(|k| {
            EffectSet::from_effects((0..set_size).map(|j| {
                let rpl = Rpl::new(vec![
                    RplElement::name(&format!("Set{k}")),
                    RplElement::Index(j as i64),
                ]);
                if j % 3 == 0 {
                    Effect::read(rpl)
                } else {
                    Effect::write(rpl)
                }
            }))
        })
        .collect()
}

/// The plain all-pairs set non-interference loop (what `EffectSet` did
/// before the per-set summaries): the baseline for the `set-disjoint` rows.
fn pairwise_non_interfering(a: &EffectSet, b: &EffectSet) -> bool {
    a.iter().all(|x| b.iter().all(|y| x.non_interfering(y)))
}

/// Runs 64×64 all-pairs sweeps of `test` until at least `min_seconds` of
/// wall clock have elapsed (with `batch` sweeps between clock reads), then
/// returns ops/second. The minimum window keeps the measurement robust to
/// scheduler noise on shared CI runners.
fn all_pairs_throughput(
    min_seconds: f64,
    batch: usize,
    mut test: impl FnMut(usize, usize) -> bool,
) -> f64 {
    let mut sweeps = 0u64;
    let mut sink = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..batch {
            for i in 0..64 {
                for j in 0..64 {
                    sink += u64::from(test(i, j));
                }
            }
        }
        sweeps += batch as u64;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_seconds {
            std::hint::black_box(sink);
            return (sweeps * 64 * 64) as f64 / elapsed.max(1e-12);
        }
    }
}

/// Measures an RPL workload: cross-checks the id-based disjointness against
/// the element-wise oracle (also warming the interner), then records
/// steady-state throughput of both.
fn conflict_row(
    shape: &str,
    depth: usize,
    wildcard: bool,
    paths: &[Vec<RplElement>],
    min_seconds: f64,
) -> ConflictRow {
    let rpls: Vec<Rpl> = paths.iter().map(|p| Rpl::new(p.clone())).collect();
    for (i, a) in paths.iter().enumerate() {
        for (j, b) in paths.iter().enumerate() {
            assert_eq!(
                rpls[i].disjoint(&rpls[j]),
                !oracle::overlaps(a, b),
                "id-based and element-wise disagree on {a:?} vs {b:?}"
            );
        }
    }
    let id_tp = all_pairs_throughput(min_seconds, 20, |i, j| rpls[i].disjoint(&rpls[j]));
    let el_tp = all_pairs_throughput(min_seconds, 20, |i, j| {
        !oracle::overlaps(&paths[i], &paths[j])
    });
    ConflictRow {
        shape: shape.to_string(),
        depth,
        wildcard,
        id_ops_per_sec: id_tp,
        elementwise_ops_per_sec: el_tp,
        speedup: id_tp / el_tp.max(1e-12),
    }
}

/// Measures conflict-test throughput on the workload shapes of the conflict
/// plane: the interned id-based implementation versus the element-wise
/// oracle it replaced (one row per depth × concrete/wildcard-mix, plus the
/// dedicated `P:[?]` shape rows), and summary-filtered set-level
/// non-interference versus the plain all-pairs loop (`set-disjoint` rows).
pub fn run_conflict_bench(quick: bool) -> Vec<ConflictRow> {
    let min_seconds = if quick { 0.12 } else { 0.6 };
    let mut rows = Vec::new();
    for depth in [2usize, 4, 6, 8] {
        for wildcard in [false, true] {
            let shape = if wildcard { "wild-mix" } else { "concrete" };
            let paths = conflict_paths(depth, 64, wildcard);
            rows.push(conflict_row(shape, depth, wildcard, &paths, min_seconds));
        }
    }
    // The `P:[?]` shape: wildcard rows that resolve entirely through the
    // O(1) parent-id check.
    for depth in [2usize, 4, 8] {
        let paths = anyindex_paths(depth, 64);
        rows.push(conflict_row("anyindex", depth, true, &paths, min_seconds));
    }
    // Set-level rows: summary rejection vs the all-pairs loop on disjoint
    // sets (both over interned ids; the summary's job is skipping pairs).
    for set_size in [4usize, 8] {
        let sets = disjoint_effect_sets(64, set_size);
        for (i, a) in sets.iter().enumerate() {
            for (j, b) in sets.iter().enumerate() {
                assert_eq!(
                    a.non_interfering(b),
                    pairwise_non_interfering(a, b),
                    "summary-filtered set test disagrees with all-pairs loop"
                );
                assert_eq!(
                    a.non_interfering(b),
                    i != j,
                    "distinct sets must be disjoint; a set self-interferes"
                );
            }
        }
        let id_tp = all_pairs_throughput(min_seconds, 20, |i, j| sets[i].non_interfering(&sets[j]));
        let el_tp = all_pairs_throughput(min_seconds, 20, |i, j| {
            pairwise_non_interfering(&sets[i], &sets[j])
        });
        rows.push(ConflictRow {
            shape: "set-disjoint".to_string(),
            depth: set_size,
            wildcard: false,
            id_ops_per_sec: id_tp,
            elementwise_ops_per_sec: el_tp,
            speedup: id_tp / el_tp.max(1e-12),
        });
    }
    rows
}

/// One row of the batched-admission microbenchmark (`BENCH_submit.json`):
/// scheduler admission throughput (tasks/second through `submit` /
/// `submit_batch`, execution excluded) for a disjoint fan-out wave, per-task
/// versus batched.
#[derive(Clone, Debug, Serialize)]
pub struct SubmitRow {
    /// Scheduler under test (`"tree"` / `"naive"`).
    pub scheduler: String,
    /// Tasks per admission wave (the fan-out width).
    pub fanout: usize,
    /// RPL depth of the wave's effects (`depth − 1` shared prefix elements
    /// plus a distinct trailing index). Per-task admission pays one lock +
    /// check per prefix level per task; the batch pays them once per wave,
    /// so the batched advantage grows with nesting depth.
    pub depth: usize,
    /// Admissions per second when each task is submitted individually
    /// (`Scheduler::submit`, one descent + one recheck round per task).
    pub per_task_ops_per_sec: f64,
    /// Admissions per second when the wave is submitted as one batch
    /// (`Scheduler::submit_batch`, one descent + one recheck round total).
    pub batched_ops_per_sec: f64,
    /// `batched_ops_per_sec / per_task_ops_per_sec`.
    pub speedup: f64,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub host_cpus: usize,
}

/// The fan-out widths the submit bench sweeps (the K-Means assign / image
/// block shapes: a wave of disjoint index-region tasks).
pub const SUBMIT_FANOUTS: [usize; 3] = [64, 512, 4096];

/// The RPL depths the submit bench sweeps: a flat partition (`Data:[i]`,
/// depth 2) and two nested hierarchies sharing 3 / 5 prefix elements.
pub const SUBMIT_DEPTHS: [usize; 3] = [2, 4, 6];

/// The disjoint effect `F1:…:F{depth−1}:[i]` used by the submit waves: a
/// shared `depth − 1`-element prefix with a distinct trailing index, the
/// shape where per-task admission re-locks and re-checks every interior
/// prefix node once per task.
fn submit_effect(depth: usize, i: usize) -> EffectSet {
    let mut path: Vec<String> = (1..depth).map(|level| format!("F{level}")).collect();
    path.push(format!("[{i}]"));
    EffectSet::parse(&format!("writes {}", path.join(":")))
}

/// Builds one admission wave of pairwise-disjoint tasks.
fn submit_wave(effects: &[EffectSet], first_id: u64) -> Vec<Arc<TaskRecord>> {
    effects
        .iter()
        .enumerate()
        .map(|(i, e)| TaskRecord::new(first_id + i as u64, "submit-bench", e.clone(), false))
        .collect()
}

/// Measures admission throughput (tasks/second) of one scheduler for
/// `fanout`-wide waves. Only the `submit`/`submit_batch` calls are timed;
/// task-record construction and the drain (`task_done`) between waves are
/// not. Runs until `min_seconds` of *timed* work have accumulated.
///
/// `enabled` is the scheduler's enable-callback counter; the waves are
/// pairwise disjoint, so *this* run must enable exactly what it admitted
/// (warm-up included) — asserted per run, so a batch path that silently
/// enabled nothing cannot publish a throughput number.
fn submit_throughput(
    sched: &dyn Scheduler,
    effects: &[EffectSet],
    batched: bool,
    min_seconds: f64,
    enabled: &std::sync::atomic::AtomicU64,
) -> f64 {
    let fanout = effects.len();
    let enabled_at_start = enabled.load(std::sync::atomic::Ordering::Relaxed);
    let mut next_id = 1u64;
    let mut admitted = 0u64;
    let mut elapsed = 0.0f64;
    // One untimed warm-up wave interns the RPLs and grows the tree/queue to
    // its steady shape.
    let warm = submit_wave(effects, next_id);
    next_id += fanout as u64;
    for t in &warm {
        sched.submit(t.clone());
    }
    for t in &warm {
        t.mark_done();
        sched.task_done(t);
    }
    while elapsed < min_seconds {
        let wave = submit_wave(effects, next_id);
        next_id += fanout as u64;
        let start = Instant::now();
        if batched {
            sched.submit_batch(wave.clone());
        } else {
            for t in &wave {
                sched.submit(t.clone());
            }
        }
        elapsed += start.elapsed().as_secs_f64();
        admitted += fanout as u64;
        for t in &wave {
            t.mark_done();
            sched.task_done(t);
        }
    }
    let enabled_here = enabled.load(std::sync::atomic::Ordering::Relaxed) - enabled_at_start;
    assert_eq!(
        enabled_here,
        admitted + fanout as u64,
        "disjoint waves must enable every admitted task (batched={batched})"
    );
    admitted as f64 / elapsed.max(1e-12)
}

/// Measures per-task vs batched admission throughput on both schedulers
/// across [`SUBMIT_FANOUTS`] (execution excluded: the enable callback is a
/// no-op and tasks are drained untimed between waves). Every admitted task
/// must come out `Enabled` — the waves are disjoint — which doubles as a
/// correctness check on the batch path.
pub fn run_submit_bench(quick: bool) -> Vec<SubmitRow> {
    let min_seconds = if quick { 0.08 } else { 0.4 };
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for (label, kind) in [
        ("tree", SchedulerKind::Tree),
        ("naive", SchedulerKind::Naive),
    ] {
        for fanout in SUBMIT_FANOUTS {
            for depth in SUBMIT_DEPTHS {
                let effects: Vec<EffectSet> =
                    (0..fanout).map(|i| submit_effect(depth, i)).collect();
                let enabled = Arc::new(std::sync::atomic::AtomicU64::new(0));
                let make = |enabled: Arc<std::sync::atomic::AtomicU64>| -> Box<dyn Scheduler> {
                    let enable: Box<dyn Fn(Arc<TaskRecord>) + Send + Sync> = Box::new(move |_t| {
                        enabled.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    });
                    match kind {
                        SchedulerKind::Tree => Box::new(TreeScheduler::new(enable)),
                        SchedulerKind::Naive => Box::new(NaiveScheduler::new(enable)),
                    }
                };
                let per_sched = make(enabled.clone());
                let per_task =
                    submit_throughput(per_sched.as_ref(), &effects, false, min_seconds, &enabled);
                let batch_sched = make(enabled.clone());
                let batched =
                    submit_throughput(batch_sched.as_ref(), &effects, true, min_seconds, &enabled);
                rows.push(SubmitRow {
                    scheduler: label.to_string(),
                    fanout,
                    depth,
                    per_task_ops_per_sec: per_task,
                    batched_ops_per_sec: batched,
                    speedup: batched / per_task.max(1e-12),
                    host_cpus,
                });
            }
        }
    }
    rows
}

/// Pretty-prints the submit microbenchmark rows.
pub fn print_submit_rows(rows: &[SubmitRow]) {
    println!(
        "{:<10} {:<8} {:<6} {:>18} {:>18} {:>9}",
        "scheduler", "fanout", "depth", "per-task ops/s", "batched ops/s", "speedup"
    );
    for r in rows {
        println!(
            "{:<10} {:<8} {:<6} {:>18.0} {:>18.0} {:>8.2}x",
            r.scheduler,
            r.fanout,
            r.depth,
            r.per_task_ops_per_sec,
            r.batched_ops_per_sec,
            r.speedup
        );
    }
}

/// Pretty-prints the conflict microbenchmark rows.
pub fn print_conflict_rows(rows: &[ConflictRow]) {
    println!(
        "{:<13} {:<6} {:<9} {:>16} {:>16} {:>9}",
        "shape", "depth", "wildcard", "id ops/s", "baseline ops/s", "speedup"
    );
    for r in rows {
        println!(
            "{:<13} {:<6} {:<9} {:>16.0} {:>16.0} {:>8.2}x",
            r.shape, r.depth, r.wildcard, r.id_ops_per_sec, r.elementwise_ops_per_sec, r.speedup
        );
    }
}

/// Runs the figures selected by `which` ("6.1", …, "7.1", or "all").
pub fn run_figures(which: &str, quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let want = |f: &str| which == "all" || which == f;
    if want("6.1") {
        rows.extend(fig_6_1(quick));
    }
    if want("6.2") {
        rows.extend(fig_6_2(quick));
    }
    if want("6.3") {
        rows.extend(fig_6_3(quick));
    }
    if want("6.4") {
        rows.extend(fig_6_4(quick));
    }
    if want("7.1") {
        rows.extend(fig_7_1(quick));
    }
    rows
}

/// Pretty-prints rows as the table the paper's figures plot.
pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<6} {:<22} {:<18} {:>7} {:<10} {:>10} {:>8} {:>8}",
        "figure", "benchmark", "variant", "threads", "param", "sec", "speedup", "aux"
    );
    for r in rows {
        println!(
            "{:<6} {:<22} {:<18} {:>7} {:<10} {:>10.4} {:>8.2} {:>8}",
            r.figure, r.benchmark, r.variant, r.threads, r.param, r.seconds, r.speedup, r.aux
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_start_at_one_and_are_increasing() {
        let counts = thread_counts();
        assert_eq!(counts[0], 1);
        assert!(counts.windows(2).all(|w| w[0] < w[1]) || counts.len() == 1);
    }

    #[test]
    fn row_speedup_is_relative_to_sequential() {
        let r = row("6.1", "x", "y", 2, "", 0.5, 1.0);
        assert!((r.speedup - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rows_serialize_to_json() {
        let r = row("6.3", "k-means", "twe-tree", 4, "K=1000", 0.25, 1.0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("k-means"));
        assert!(json.contains("\"threads\":4"));
    }

    #[test]
    fn anyindex_workload_has_the_advertised_shape() {
        let paths = anyindex_paths(4, 16);
        assert_eq!(paths.len(), 16);
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(p.len(), 4, "every path carries its full depth");
            let r = Rpl::new(p.clone());
            if i % 2 == 0 {
                assert!(r.is_parent_any_index(), "even paths are P:[?]");
            } else {
                assert!(r.is_fully_specified(), "odd paths are concrete");
            }
            // All tails hang off the same parent, so P:[?] overlaps every
            // concrete sibling.
            assert!(!Rpl::new(paths[0].clone()).disjoint(&r));
        }
    }

    #[test]
    fn disjoint_effect_sets_are_pairwise_disjoint_and_self_interfering() {
        let sets = disjoint_effect_sets(6, 8);
        for (i, a) in sets.iter().enumerate() {
            assert_eq!(a.len(), 8);
            for (j, b) in sets.iter().enumerate() {
                assert_eq!(a.non_interfering(b), i != j);
                assert_eq!(a.non_interfering(b), pairwise_non_interfering(a, b));
            }
            assert!(a.certainly_non_interfering(&sets[(i + 1) % sets.len()]));
        }
    }
}
