//! K-Means clustering (adapted from STAMP), the benchmark of Figure 5.1 and
//! of the evaluation Figures 6.1 and 6.3.
//!
//! One clustering step assigns every point to its nearest centre and
//! accumulates the point's features into that centre's accumulator. The
//! accumulation is the contended part: many points map to the same cluster,
//! so the update must be atomic. In the TWE version each point is processed
//! by a `WorkTask` (effect `reads Root`) that runs an `accumulate` task with
//! effect `reads Root, writes Clusters:[k]` — the scheduler serialises
//! accumulations on the same cluster and runs different clusters in
//! parallel. The smaller the number of clusters K, the higher the contention
//! (the K = 25000 / 5000 / 1000 sweep of Figure 6.3).

use crate::util::{chunk_ranges, RegionCell, SplitMix64};
use std::sync::Arc;
use std::thread;
use twe_effects::EffectSet;
use twe_runtime::Runtime;

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct KMeansConfig {
    /// Number of points.
    pub n_points: usize,
    /// Number of clusters (K).
    pub n_clusters: usize,
    /// Number of features per point.
    pub n_features: usize,
    /// RNG seed for the synthetic point cloud.
    pub seed: u64,
    /// Number of points processed per WorkTask (1 reproduces the paper's
    /// one-task-per-point structure; larger values coarsen the tasks).
    pub points_per_task: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            n_points: 2_000,
            n_clusters: 64,
            n_features: 8,
            seed: 12345,
            points_per_task: 1,
        }
    }
}

/// The synthetic input: points plus initial centres.
#[derive(Clone, Debug)]
pub struct KMeansInput {
    /// Flattened `n_points × n_features` coordinates.
    pub points: Vec<f32>,
    /// Flattened `n_clusters × n_features` initial centres.
    pub centers: Vec<f32>,
    /// The configuration that produced this input.
    pub config: KMeansConfig,
}

/// Result of one assignment + accumulation step.
#[derive(Clone, Debug, PartialEq)]
pub struct KMeansOutput {
    /// Number of points assigned to each cluster.
    pub counts: Vec<u64>,
    /// Per-cluster accumulated feature sums (flattened `K × n_features`).
    pub sums: Vec<f64>,
}

/// Generates a reproducible synthetic workload.
pub fn generate(config: &KMeansConfig) -> KMeansInput {
    let mut rng = SplitMix64::new(config.seed);
    let points: Vec<f32> = (0..config.n_points * config.n_features)
        .map(|_| rng.next_f64() as f32)
        .collect();
    let centers: Vec<f32> = (0..config.n_clusters * config.n_features)
        .map(|_| rng.next_f64() as f32)
        .collect();
    KMeansInput {
        points,
        centers,
        config: config.clone(),
    }
}

fn nearest_cluster(input: &KMeansInput, point: usize) -> usize {
    let nf = input.config.n_features;
    let p = &input.points[point * nf..(point + 1) * nf];
    let mut best = 0usize;
    let mut best_d = f32::MAX;
    for c in 0..input.config.n_clusters {
        let centre = &input.centers[c * nf..(c + 1) * nf];
        let mut d = 0.0f32;
        for f in 0..nf {
            let diff = p[f] - centre[f];
            d += diff * diff;
        }
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Reference sequential implementation (correctness oracle and speedup
/// baseline).
pub fn run_sequential(input: &KMeansInput) -> KMeansOutput {
    let k = input.config.n_clusters;
    let nf = input.config.n_features;
    let mut counts = vec![0u64; k];
    let mut sums = vec![0f64; k * nf];
    for p in 0..input.config.n_points {
        let c = nearest_cluster(input, p);
        counts[c] += 1;
        for f in 0..nf {
            sums[c * nf + f] += input.points[p * nf + f] as f64;
        }
    }
    KMeansOutput { counts, sums }
}

struct ClusterAccum {
    count: u64,
    sum: Vec<f64>,
}

/// One cluster of a TWE job: its accumulator and the effect of the
/// `accumulate` task that updates it.
struct Cluster {
    /// `reads Root, writes Clusters:[k]`, built once per job. A two-effect
    /// set holds its effects inline, so each point's task gets a copy
    /// without parsing or allocating. The calling WorkTask's `reads Root`
    /// holds the first effect for it, so the tree scheduler registers only
    /// `writes Clusters:[k]`: one record per accumulate, none at the root.
    accumulate: EffectSet,
    accum: RegionCell<ClusterAccum>,
}

/// The TWE implementation: per-point (or per-small-chunk) WorkTasks with
/// effect `reads Root`, each running an `accumulate` task with effect
/// `reads Root, writes Clusters:[k]` for its point's cluster. The job builds
/// the `reads Root` set and the K accumulate sets once; every task clones
/// one of them. The input and the accumulators share one `Arc`: each
/// WorkTask captures one handle to the job's data and lends it to each of
/// its accumulates in turn, which returns it as its value.
pub fn run_twe(rt: &Runtime, input: &KMeansInput) -> KMeansOutput {
    let k = input.config.n_clusters;
    let nf = input.config.n_features;
    let clusters: Vec<Cluster> = (0..k)
        .map(|c| Cluster {
            accumulate: EffectSet::parse(&format!("reads Root, writes Clusters:[{c}]")),
            accum: RegionCell::new(ClusterAccum {
                count: 0,
                sum: vec![0.0; nf],
            }),
        })
        .collect();
    let job = Arc::new((input.clone(), clusters));
    let work = EffectSet::parse("reads Root");

    let ranges = chunk_ranges(
        input.config.n_points,
        input
            .config
            .n_points
            .div_ceil(input.config.points_per_task.max(1)),
    );
    // The WorkTask fan-out is admitted as one batch: every task reads Root,
    // so per-task admission would pay one scheduler round per point chunk
    // for an identical footprint. Note for figure 6.3: batch admission
    // parks the whole fan-out in the scheduler up front, so on machines
    // where per-task submission used to interleave with execution (few
    // cores) every nested `accumulate` is admitted against the full
    // fan-out. Neither scheduler may pay for that per admission: the tree
    // holds the `reads Root` records as *exact* records of the root node,
    // which a descending `writes Clusters:[k]` never examines — before that
    // split each nested admission walked all of them, and a job's cost
    // grew with the square of the point count.
    let futures = rt.submit_all(ranges.into_iter().map(|range| {
        let job = job.clone();
        (
            "WorkTask",
            work.clone(),
            move |ctx: &twe_runtime::TaskCtx<'_>| {
                let mut job = job;
                for p in range.clone() {
                    let (input, clusters) = &*job;
                    let cluster = nearest_cluster(input, p);
                    let effects = clusters[cluster].accumulate.clone();
                    // The body of `accumulate` in Figure 5.1: an atomic task
                    // with a write effect on the cluster's region. It takes
                    // the WorkTask's handle to the job and gives it back.
                    job = ctx.execute("accumulate", effects, move |_| {
                        let (input, clusters) = &*job;
                        let acc = clusters[cluster].accum.get_mut();
                        acc.count += 1;
                        for f in 0..nf {
                            acc.sum[f] += input.points[p * nf + f] as f64;
                        }
                        job
                    });
                }
            },
        )
    }));
    for f in futures {
        f.wait();
    }

    let (_, clusters) =
        Arc::try_unwrap(job).unwrap_or_else(|_| panic!("accumulators still shared"));
    let mut counts = vec![0u64; k];
    let mut sums = vec![0f64; k * nf];
    for (c, cluster) in clusters.into_iter().enumerate() {
        let acc = cluster.accum.into_inner();
        counts[c] = acc.count;
        sums[c * nf..(c + 1) * nf].copy_from_slice(&acc.sum);
    }
    KMeansOutput { counts, sums }
}

/// The "sync" baseline of Figure 6.3: plain threads with one mutex per
/// cluster instead of TWE tasks for the reduction (the analogue of the Java
/// `synchronized` version, no safety guarantees).
pub fn run_sync_baseline(threads: usize, input: &KMeansInput) -> KMeansOutput {
    let k = input.config.n_clusters;
    let nf = input.config.n_features;
    let locks: Vec<parking_lot::Mutex<ClusterAccum>> = (0..k)
        .map(|_| {
            parking_lot::Mutex::new(ClusterAccum {
                count: 0,
                sum: vec![0.0; nf],
            })
        })
        .collect();
    let ranges = chunk_ranges(input.config.n_points, threads);
    thread::scope(|scope| {
        for range in ranges {
            let locks = &locks;
            scope.spawn(move || {
                for p in range {
                    let c = nearest_cluster(input, p);
                    let mut acc = locks[c].lock();
                    acc.count += 1;
                    for f in 0..nf {
                        acc.sum[f] += input.points[p * nf + f] as f64;
                    }
                }
            });
        }
    });
    let mut counts = vec![0u64; k];
    let mut sums = vec![0f64; k * nf];
    for (c, lock) in locks.into_iter().enumerate() {
        let acc = lock.into_inner();
        counts[c] = acc.count;
        sums[c * nf..(c + 1) * nf].copy_from_slice(&acc.sum);
    }
    KMeansOutput { counts, sums }
}

/// The fork-join baseline used as the "DPJ" comparator in Figure 6.1:
/// per-thread private accumulators merged at the end (no run-time effect
/// scheduling, no fine-grain reduction tasks).
pub fn run_forkjoin_baseline(threads: usize, input: &KMeansInput) -> KMeansOutput {
    let k = input.config.n_clusters;
    let nf = input.config.n_features;
    let ranges = chunk_ranges(input.config.n_points, threads);
    let partials: Vec<KMeansOutput> = thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                scope.spawn(move || {
                    let mut counts = vec![0u64; k];
                    let mut sums = vec![0f64; k * nf];
                    for p in range {
                        let c = nearest_cluster(input, p);
                        counts[c] += 1;
                        for f in 0..nf {
                            sums[c * nf + f] += input.points[p * nf + f] as f64;
                        }
                    }
                    KMeansOutput { counts, sums }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut counts = vec![0u64; k];
    let mut sums = vec![0f64; k * nf];
    for partial in partials {
        for (count, partial_count) in counts.iter_mut().zip(&partial.counts) {
            *count += partial_count;
        }
        for (sum, partial_sum) in sums.iter_mut().zip(&partial.sums) {
            *sum += partial_sum;
        }
    }
    KMeansOutput { counts, sums }
}

/// Checks two outputs for equality up to floating-point accumulation order.
pub fn outputs_match(a: &KMeansOutput, b: &KMeansOutput) -> bool {
    a.counts == b.counts
        && a.sums.len() == b.sums.len()
        && a.sums
            .iter()
            .zip(b.sums.iter())
            .all(|(x, y)| (x - y).abs() < 1e-6 * (1.0 + x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twe_runtime::SchedulerKind;

    fn small_config() -> KMeansConfig {
        KMeansConfig {
            n_points: 300,
            n_clusters: 10,
            n_features: 4,
            seed: 7,
            points_per_task: 5,
        }
    }

    #[test]
    fn twe_matches_sequential_on_both_schedulers() {
        let input = generate(&small_config());
        let expected = run_sequential(&input);
        for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
            let rt = Runtime::new(4, kind);
            let got = run_twe(&rt, &input);
            assert!(outputs_match(&got, &expected), "{kind:?}");
        }
    }

    #[test]
    fn one_task_per_point_at_the_benchmark_shape() {
        // The shape `kmeans-batch` drives (Fig. 6.3) on the scheduler it
        // drives it on: 2 000 `reads Root` WorkTasks in flight, each blocking
        // on one nested `execute`, 40 clusters to collide on.
        let input = generate(&KMeansConfig {
            n_clusters: 40,
            ..KMeansConfig::default()
        });
        assert_eq!(
            (input.config.n_points, input.config.points_per_task),
            (2_000, 1)
        );
        let expected = run_sequential(&input);
        let run = move || {
            for threads in [1, 2] {
                let rt = Runtime::new(threads, SchedulerKind::Tree);
                let got = run_twe(&rt, &input);
                assert!(outputs_match(&got, &expected), "{threads} threads");
                let peak = rt.stats().peak_nesting;
                eprintln!("{threads} thread(s): peak_nesting {peak}");
                assert!(peak < 500, "{threads} thread(s): {peak} bodies deep");
            }
        };
        // The waiting thread helps run WorkTasks, and an accumulate that has
        // to wait for its cluster helps in turn: 2–170 bodies deep over 40
        // runs, and nothing bounds it, so an unoptimized build gets a stack
        // well above a test thread's default.
        let handle = thread::Builder::new().stack_size(256 << 20).spawn(run);
        handle.unwrap().join().unwrap();
    }

    #[test]
    fn baselines_match_sequential() {
        let input = generate(&small_config());
        let expected = run_sequential(&input);
        assert!(outputs_match(&run_sync_baseline(4, &input), &expected));
        assert!(outputs_match(&run_forkjoin_baseline(4, &input), &expected));
    }

    #[test]
    fn high_contention_low_k_still_correct() {
        let mut config = small_config();
        config.n_clusters = 2; // every accumulate task hits one of two regions
        let input = generate(&config);
        let expected = run_sequential(&input);
        let rt = Runtime::new(4, SchedulerKind::Tree);
        assert!(outputs_match(&run_twe(&rt, &input), &expected));
    }

    #[test]
    fn all_points_are_assigned_exactly_once() {
        let input = generate(&small_config());
        let out = run_sequential(&input);
        assert_eq!(out.counts.iter().sum::<u64>(), input.config.n_points as u64);
    }
}
