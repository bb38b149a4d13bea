//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` repeats the driver-facing part; a self-test keeps the
//! two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which explain and never gate.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the runtime feels.
///
/// The bounds are what the 2-CPU reference host can resolve. It runs
/// everything 10 to 40 % slower for minutes at a time (and the tail of a
/// burst up to four times slower), so three of ten runs landing in such a
/// stretch put the quartile spread of any timing near a quarter of its
/// median; memory does not depend on the host's speed.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_ops_s", "ops/s", Higher, 0.25),
    e2e("sched_delay_p50_us", "us", Lower, 0.25),
    e2e("sched_delay_p99_us", "us", Lower, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p99_us", "us", Lower, 0.25),
    e2e("failed_frac", "ratio", Lower, 0.0),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// The end-to-end metrics `BENCHMARK.json` lists for the PR driver, which
/// wants every listed metric from every workload, none that can be 0, and
/// each steady over ten seeds. `failed_frac` reaches it as
/// `failed`/`attempted`; `sched_delay_*` cannot be stamped inside a k-means
/// job; the p99s did not stay within a quarter of their median whenever the
/// host had a slow stretch. `compare` judges all eight.
pub const DRIVER_END_TO_END: [&str; 4] = [
    "setup_s",
    "throughput_ops_s",
    "latency_p50_us",
    "peak_rss_mb",
];

/// Per-layer metrics, `<layer>.<metric>`. In the driver's result line a
/// metric of a layer the workload never calls reads 0.
pub const PER_LAYER: [MetricDef; 40] = [
    layer("effects.build_ns", "ns", Lower),
    layer("effects.parse_ns", "ns", Lower),
    layer("effects.intern_cold_ns", "ns", Lower),
    layer("effects.intern_warm_ns", "ns", Lower),
    layer("effects.rpl_disjoint_ns", "ns", Lower),
    layer("effects.set_interferes_ns", "ns", Lower),
    layer("effects.summary_decided_frac", "ratio", Higher),
    layer("effects.arena_growth_ids", "ids", Lower),
    layer("sched.tree.submit_ns", "ns", Lower),
    layer("sched.naive.submit_ns", "ns", Lower),
    layer("sched.tree.batch_submit_ns", "ns", Lower),
    layer("sched.naive.batch_submit_ns", "ns", Lower),
    layer("sched.tree.done_ns", "ns", Lower),
    layer("sched.naive.done_ns", "ns", Lower),
    layer("sched.tree.deferred_frac", "ratio", Lower),
    layer("sched.naive.deferred_frac", "ratio", Lower),
    layer("runtime.submit_ns", "ns", Lower),
    layer("runtime.wait_enable_p50_ns", "ns", Lower),
    layer("runtime.wait_enable_p99_ns", "ns", Lower),
    layer("runtime.overhead_ns", "ns", Lower),
    layer("runtime.drain_ms", "ms", Lower),
    layer("dyn.create_p50_ns", "ns", Lower),
    layer("dyn.create_p99_ns", "ns", Lower),
    layer("dyn.retire_p50_ns", "ns", Lower),
    layer("dyn.retire_p99_ns", "ns", Lower),
    layer("pool.execute_ns", "ns", Lower),
    layer("pool.handoff_ns", "ns", Lower),
    layer("pool.jobs_per_s", "jobs/s", Higher),
    layer("apps.body_ns", "ns", Lower),
    layer("apps.body_share", "ratio", Lower),
    layer("apps.kmeans_iter_ms", "ms", Lower),
    layer("apps.kmeans_seq_ms", "ms", Lower),
    layer("apps.kmeans_overhead_x", "ratio", Lower),
    layer("driver.lag_p99_us", "us", Lower),
    layer("driver.late_frac", "ratio", Lower),
    layer("driver.latency_p99_run_us", "us", Lower),
    layer("driver.latency_p999_us", "us", Lower),
    layer("driver.trace_overhead_frac", "ratio", Higher),
    layer("driver.span_sum_max_err", "ratio", Lower),
    layer("driver.retirements", "count", Higher),
];

pub fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// The trace file of a traced run: one record per span, times in
/// nanoseconds since the process started.
pub struct TraceFile(String);

impl TraceFile {
    pub fn new(workload: &str) -> Self {
        TraceFile(format!(
            "{{\"workload\":\"{workload}\",\"clock\":\"ns since process start\",\"spans\":["
        ))
    }

    pub fn span(
        &mut self,
        id: Option<u64>,
        name: &str,
        start: u64,
        end: u64,
        parent: Option<&str>,
    ) {
        let sep = if self.0.ends_with('[') { "" } else { "," };
        let id = id.map_or("null".to_string(), |i| i.to_string());
        let parent = parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        self.0.push_str(&format!(
            "{sep}\n{{\"id\":{id},\"name\":\"{name}\",\"start\":{start},\"end\":{end},\"parent\":{parent}}}"
        ));
    }

    pub fn finish(mut self) -> String {
        self.0.push_str("\n]}\n");
        self.0
    }
}

/// What one run of one workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Process start to the first timed operation.
    pub setup_s: f64,
    pub measured_s: f64,
    pub attempted: u64,
    /// Failed operations by cause.
    pub failures: Vec<(&'static str, u64)>,
    /// Exact samples behind the latency quantiles.
    pub samples: usize,
    pub metrics: Vec<(&'static str, f64)>,
    /// The trace file's text, in a traced run.
    pub trace_json: Option<String>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.failures.iter().map(|(_, n)| n).sum()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}
