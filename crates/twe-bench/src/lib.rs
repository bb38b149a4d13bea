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

pub use backlog::{
    print_conflicting_rows, run_conflicting_sweep, BacklogRecord, ConflictingRow, Spread,
    CONFLICTING_IN_FLIGHT,
};

use serde::Serialize;
use std::time::Instant;
use twe_apps::{barneshut, coloring, fourwins, imageedit, kmeans, montecarlo, refine, ssca2, tsp};
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
}
