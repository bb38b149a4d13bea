//! `kmeans-batch`: the paper's own headline application (Fig. 6.3), run
//! closed loop — one `twe_apps::kmeans::run_twe` job after another. The
//! job's task bodies belong to `twe-apps`, so the benchmark times whole
//! jobs and checks each result against `run_sequential`.

use crate::gen::{kmeans_config, Fnv, SplitMix64};
use crate::metrics::{Outcome, TraceFile};
use crate::replay::ReplayOp;
use crate::stats::quantile;
use crate::svc::Observe;
use std::time::Instant;
use twe_apps::kmeans::{generate, run_sequential, run_twe, KMeansInput, KMeansOutput};
use twe_effects::{arena, EffectSet, Rpl};
use twe_runtime::Runtime;

pub fn input(seed: u64) -> KMeansInput {
    generate(&kmeans_config(seed))
}

pub fn hash(input: &KMeansInput) -> u64 {
    let mut h = Fnv::new();
    for v in input.points.iter().chain(&input.centers) {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// `counts` exactly, `sums` to 1e-9 relative.
fn matches(got: &KMeansOutput, want: &KMeansOutput) -> bool {
    got.counts == want.counts
        && got.sums.len() == want.sums.len()
        && got
            .sums
            .iter()
            .zip(&want.sums)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * w.abs().max(1.0))
}

/// The effect declarations of one job, in submission order: a `reads Root`
/// WorkTask and its nested accumulate per point. Which cluster a point
/// falls in is `twe-apps`' business; the replay draws the clusters from
/// the sequential result's counts, shuffled by the seed.
pub fn replay_ops(input: &KMeansInput, seed: u64) -> (Vec<ReplayOp>, Vec<String>) {
    let counts = run_sequential(input).counts;
    let mut clusters: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &n)| vec![k; n as usize])
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..clusters.len()).rev() {
        clusters.swap(i, rng.below(i + 1));
    }
    let mut ops = Vec::new();
    let mut texts = Vec::new();
    // Ten jobs' worth, so the replay times tens of thousands of operations.
    for &k in clusters.iter().cycle().take(10 * clusters.len()) {
        let accumulate = format!("reads Root, writes Clusters:[{k}]");
        ops.push(ReplayOp {
            rpl: Rpl::root(),
            effects: EffectSet::parse("reads Root"),
        });
        ops.push(ReplayOp {
            rpl: Rpl::parse(&format!("Clusters:[{k}]")),
            effects: EffectSet::parse(&accumulate),
        });
        texts.push("reads Root".to_string());
        texts.push(accumulate);
    }
    (ops, texts)
}

/// `run_sequential` timed: the job's body work with no runtime under it.
pub fn sequential_ms(input: &KMeansInput) -> f64 {
    let mut ns: Vec<u64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(run_sequential(std::hint::black_box(input)));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    quantile(&ns, 0.5) as f64 / 1e6
}

pub fn run(
    input: &KMeansInput,
    seconds: f64,
    workers: usize,
    observe: Observe,
    started: Instant,
    setup_only: bool,
) -> Outcome {
    let rt = Runtime::builder().threads(workers).build();
    let expected = run_sequential(input);
    // One untimed job: interns the regions, starts the workers.
    let warm_ok = matches(&run_twe(&rt, input), &expected);
    let setup_s = started.elapsed().as_secs_f64();
    if setup_only {
        return Outcome {
            setup_s,
            ..Outcome::default()
        };
    }

    let tasks_per_job = 2 * input.config.n_points as u64;
    let arena_before = arena::len();
    let m0 = Instant::now();
    let mut jobs: Vec<(u64, u64)> = Vec::new(); // (start, end) ns since m0
    let mut wrong = u64::from(!warm_ok);
    while m0.elapsed().as_secs_f64() < seconds {
        let start = m0.elapsed().as_nanos() as u64;
        let got = run_twe(&rt, input);
        jobs.push((start, m0.elapsed().as_nanos() as u64));
        wrong += u64::from(!matches(&got, &expected));
    }
    let measured_s = m0.elapsed().as_secs_f64();
    let arena_growth = arena::len() - arena_before;

    let mut job_ns: Vec<u64> = jobs.iter().map(|(s, e)| e - s).collect();
    job_ns.sort_unstable();
    let iter_ms = quantile(&job_ns, 0.5) as f64 / 1e6;
    let mut metrics = vec![
        // Tasks per second of the median job: a stall of the host costs one
        // job, not a share of the whole run.
        ("throughput_ops_s", tasks_per_job as f64 / (iter_ms / 1e3)),
        ("latency_p50_us", quantile(&job_ns, 0.5) as f64 / 1e3),
        ("latency_p99_us", quantile(&job_ns, 0.99) as f64 / 1e3),
        ("effects.arena_growth_ids", arena_growth as f64),
        ("apps.kmeans_iter_ms", iter_ms),
    ];

    let mut trace_json = None;
    if observe == Observe::Traced {
        // Spans around whole jobs add nothing to a job's path, so the first
        // quarter's rate against the rest's is this host's noise floor.
        let split = jobs
            .partition_point(|&(start, _)| (start as f64) < seconds * 0.25e9)
            .clamp(1, jobs.len());
        let rate = |part: &[(u64, u64)]| match (part.first(), part.last()) {
            (Some(first), Some(last)) => part.len() as f64 / (last.1 - first.0) as f64,
            _ => f64::NAN,
        };
        if split < jobs.len() {
            metrics.push((
                "driver.trace_overhead_frac",
                rate(&jobs[split..]) / rate(&jobs[..split]) - 1.0,
            ));
        }
        let seq_ms = sequential_ms(input);
        metrics.push(("apps.kmeans_seq_ms", seq_ms));
        metrics.push(("apps.kmeans_overhead_x", iter_ms / seq_ms));
        let origin = m0.duration_since(started).as_nanos() as u64;
        let mut file = TraceFile::new(crate::gen::KMEANS_BATCH);
        for (i, (start, end)) in jobs.iter().enumerate() {
            file.span(
                Some(i as u64),
                "apps.kmeans_iter",
                origin + start,
                origin + end,
                None,
            );
        }
        trace_json = Some(file.finish());
    }

    Outcome {
        setup_s,
        measured_s,
        attempted: jobs.len() as u64 * tasks_per_job,
        failures: vec![("wrong_result_jobs_x_tasks", wrong * tasks_per_job)],
        samples: jobs.len(),
        metrics,
        trace_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_and_another_seed_another_input() {
        assert_eq!(hash(&input(3)), hash(&input(3)));
        assert_ne!(hash(&input(3)), hash(&input(4)));
    }

    #[test]
    fn a_wrong_result_fails_the_check() {
        let want = run_sequential(&input(3));
        assert!(matches(&want, &want));
        let mut off_by_one = want.clone();
        off_by_one.counts[0] += 1;
        assert!(!matches(&off_by_one, &want));
        let mut drifted = want.clone();
        drifted.sums[0] *= 1.0 + 1e-6;
        assert!(!matches(&drifted, &want));
    }

    #[test]
    fn a_short_run_is_correct_and_replayable() {
        let input = input(5);
        let out = run(&input, 0.2, 2, Observe::Traced, Instant::now(), false);
        assert_eq!(out.failed(), 0);
        assert!(out.attempted >= 4_000 && out.metric("apps.kmeans_overhead_x").is_some());
        let (ops, texts) = replay_ops(&input, 5);
        assert_eq!(ops.len(), 40_000);
        assert_eq!(texts.len(), ops.len());
    }
}
