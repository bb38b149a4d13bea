//! The repository's one benchmark. `run` generates each workload from the
//! seed, runs it against the runtime in a process of its own, checks the
//! outputs and prints every metric by name with its unit; `compare` sets
//! two sets of result files side by side. See `README.md` beside this
//! package for the workloads, the metrics and the rules.
//!
//! Every layer is measured from outside, through public functions only,
//! and only through the ones the README lists: later changes may not edit
//! this package, so it must not pin an accessor they want to delete.

mod compare;
mod gen;
mod json;
mod kmeans;
mod metrics;
mod replay;
mod stats;
mod svc;

use json::JsonExt;
use metrics::{Outcome, DRIVER_END_TO_END, PER_LAYER};
use serde::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use svc::{Declare, Observe};

/// Length of the measured phase when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 15;
const DEFAULT_SEED: u64 = 1;
/// Processes that set a workload up, the measuring one included;
/// `setup_s` is the median over them.
const SETUPS: usize = 5;

const USAGE: &str = "usage:
  twe-benchmark run [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
  twe-benchmark compare --base FILE FILE... --new FILE FILE...";

/// Where trace files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u32,
    traced: bool,
    smoke: bool,
    out: Option<String>,
    /// Set on the processes `run` starts: do one workload here and print
    /// its result as one JSON line.
    child: bool,
    setup_only: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: None,
        child: false,
        setup_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be 1 to 60".to_string());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => parsed.out = Some(value()?.clone()),
            "--smoke" => parsed.smoke = true,
            "--child" => parsed.child = true,
            "--setup-only" => parsed.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.smoke {
        parsed.seconds = 1;
    }
    if parsed.workload != "all" && !gen::WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; one of {:?} or all",
            parsed.workload,
            gen::WORKLOADS
        ));
    }
    Ok(parsed)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One driver thread plus the workers never exceed the host's CPUs.
fn workers() -> usize {
    host_cpus().saturating_sub(1).max(1)
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Runs one workload in this process and prints its result line.
fn child(args: &RunArgs, started: Instant) -> Result<(), String> {
    let seconds = f64::from(args.seconds);
    let observe = if args.traced {
        Observe::Traced
    } else {
        Observe::Plain
    };
    let workers = workers();
    let (hash, mut outcome, replay) = if let Some(spec) = gen::svc_spec(&args.workload) {
        let trace = gen::generate_svc(&spec, args.seed, seconds);
        let outcome = svc::run(
            &spec,
            &trace,
            seconds,
            workers,
            observe,
            Declare::Declared,
            started,
            args.setup_only,
        );
        let replay = args.traced.then(|| {
            let (_tenants, ops, texts) = svc::replay_ops(&spec, &trace);
            replay::run(&ops, &texts, workers)
        });
        (gen::hash_svc(&trace), outcome, replay)
    } else {
        let input = kmeans::input(args.seed);
        let outcome = kmeans::run(&input, seconds, workers, observe, started, args.setup_only);
        let replay = args.traced.then(|| {
            let (ops, texts) = kmeans::replay_ops(&input, args.seed);
            replay::run(&ops, &texts, workers)
        });
        (kmeans::hash(&input), outcome, replay)
    };
    if !args.traced && !args.setup_only {
        // Before anything else allocates: the workload's own high-water mark.
        outcome
            .metrics
            .extend(peak_rss_mb().map(|mb| ("peak_rss_mb", mb)));
    }
    if let Some(layers) = replay {
        outcome.metrics.extend(layers);
        if let (Some(submit), Some(bare)) = (
            outcome.metric("runtime.submit_ns"),
            outcome.metric("sched.tree.submit_ns"),
        ) {
            outcome.metrics.push(("runtime.overhead_ns", submit - bare));
        }
    }
    if let Some(text) = &outcome.trace_json {
        let dir = out_dir();
        let path = dir.join(format!("trace-{}.json", args.workload));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", json::render(&result_json(args, hash, &outcome)));
    Ok(())
}

fn result_json(args: &RunArgs, hash: u64, o: &Outcome) -> Json {
    let failed_frac = if o.attempted == 0 {
        0.0
    } else {
        o.failed() as f64 / o.attempted as f64
    };
    let metrics = [("setup_s", o.setup_s), ("failed_frac", failed_frac)]
        .into_iter()
        .filter(|_| !args.traced)
        .chain(o.metrics.iter().copied())
        .map(|(name, value)| {
            (
                name,
                json::object([
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(metrics::def(name).unit.into())),
                ]),
            )
        });
    json::object([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed.into())),
        ("seconds", Json::Int(args.seconds.into())),
        ("smoke", Json::Bool(args.smoke)),
        ("traced", Json::Bool(args.traced)),
        ("host_cpus", Json::Int(host_cpus() as i128)),
        ("workers", Json::Int(workers() as i128)),
        ("trace_hash", Json::Str(format!("{hash:016x}"))),
        ("measured_s", Json::Float(o.measured_s)),
        ("attempted", Json::Int(o.attempted.into())),
        ("failed", Json::Int(o.failed().into())),
        (
            "failures",
            json::object(
                o.failures
                    .iter()
                    .map(|&(cause, n)| (cause, Json::Int(n.into()))),
            ),
        ),
        ("samples", Json::Int(o.samples as i128)),
        ("metrics", json::object(metrics)),
    ])
}

/// Starts this program again for one workload and returns its result.
fn spawn_child(args: &RunArgs, workload: &str, setup_only: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--child", "--workload", workload])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if setup_only {
        cmd.arg("--setup-only");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload}: the workload's process ended with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(
        stdout
            .lines()
            .last()
            .ok_or(format!("{workload}: no result"))?,
    )
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn set_field(result: &mut Json, key: &str, value: Json) {
    if let Some(slot) = json::field_mut(result, key) {
        *slot = value;
    }
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs one workload: the set-up processes, then the measuring one.
fn run_workload(args: &RunArgs, workload: &str, commit: &str) -> Result<Json, String> {
    let mut setups = Vec::new();
    if !args.traced {
        for _ in 1..SETUPS {
            let result = spawn_child(args, workload, true)?;
            setups.push(
                metric_value(&result, "setup_s").ok_or("a set-up process reported no setup_s")?,
            );
        }
    }
    let mut result = spawn_child(args, workload, false)?;
    if let Some(own) = metric_value(&result, "setup_s") {
        setups.push(own);
        let median = Json::Float(stats::median(&setups));
        if let Some(metric) =
            json::field_mut(&mut result, "metrics").and_then(|m| json::field_mut(m, "setup_s"))
        {
            set_field(metric, "value", median);
        }
        let samples = setups.into_iter().map(Json::Float).collect();
        set_field(&mut result, "setup_samples_s", Json::Array(samples));
    }
    set_field(&mut result, "git_commit", Json::Str(commit.to_string()));
    Ok(result)
}

fn print_result(result: &Json) {
    let text = |key: &str| result.get(key).map(json::render).unwrap_or_default();
    println!(
        "{}  seed {}  {} s measured  {} workers of {} cpus  commit {}  trace_hash {}",
        text("workload").trim_matches('"'),
        text("seed"),
        text("measured_s"),
        text("workers"),
        text("host_cpus"),
        text("git_commit").trim_matches('"'),
        text("trace_hash").trim_matches('"'),
    );
    println!(
        "  attempted {}  failed {}  {}  samples {}",
        text("attempted"),
        text("failed"),
        text("failures"),
        text("samples")
    );
    for (name, metric) in result
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_default()
    {
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let unit = metric
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or_default();
        println!("  {name:<32} {value:>16.4} {unit}");
    }
}

/// The PR driver's result line: exactly the metrics `BENCHMARK.json`
/// lists for this kind of run.
fn driver_line(result: &Json, traced: bool) -> Result<String, String> {
    let names: Vec<&str> = if traced {
        PER_LAYER.iter().map(|d| d.name).collect()
    } else {
        DRIVER_END_TO_END.to_vec()
    };
    let mut metrics = Vec::new();
    for name in names {
        let value = match metric_value(result, name) {
            Some(v) => v,
            // A layer this workload never calls spent no time in it.
            None if traced => 0.0,
            None => return Err(format!("the run did not measure {name}")),
        };
        metrics.push((
            name,
            json::object([
                ("value", Json::Float(value)),
                ("unit", Json::Str(metrics::def(name).unit.into())),
            ]),
        ));
    }
    let failed = result
        .get("failed")
        .and_then(Json::as_f64)
        .ok_or("no failed count")?;
    Ok(json::render(&json::object([
        ("correct", Json::Bool(failed == 0.0)),
        (
            "attempted",
            result
                .get("attempted")
                .cloned()
                .ok_or("no attempted count")?,
        ),
        (
            "failed",
            result.get("failed").cloned().ok_or("no failed count")?,
        ),
        ("metrics", json::object(metrics)),
    ])))
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let commit = git_commit();
    let workloads: Vec<&str> = if args.workload == "all" {
        gen::WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for workload in workloads {
        let result = run_workload(args, workload, &commit)?;
        print_result(&result);
        if result.get("failed").and_then(Json::as_f64) != Some(0.0) {
            let failures = result.get("failures").map(json::render).unwrap_or_default();
            eprintln!("{workload}: operations failed: {failures}");
        }
        results.push(result);
    }
    let correct = results
        .iter()
        .all(|r| r.get("failed").and_then(Json::as_f64) == Some(0.0));
    if let Some(path) = &args.out {
        let doc = json::object([("results", Json::Array(results.clone()))]);
        std::fs::write(path, json::render_pretty(&doc) + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if let [only] = results.as_slice() {
        println!("{}", driver_line(only, args.traced)?);
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|a| {
            if a.child {
                child(&a, started).map(|()| true)
            } else {
                run(&a)
            }
        }),
        Some("compare") => {
            let rest = &args[1..];
            let base_at = rest.iter().position(|a| a == "--base");
            let new_at = rest.iter().position(|a| a == "--new");
            match (base_at, new_at) {
                (Some(0), Some(n)) if n > 1 => compare::run(&rest[1..n], &rest[n + 1..]),
                _ => Err(USAGE.to_string()),
            }
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            let items = doc.get(key).and_then(Json::as_array).unwrap();
            items
                .iter()
                .map(|i| i.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), gen::WORKLOADS);
        assert_eq!(names("end_to_end"), DRIVER_END_TO_END);
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(f64::from(DEFAULT_SECONDS))
        );
        for item in doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .chain(doc.get("per_layer").and_then(Json::as_array).unwrap())
        {
            let def = metrics::def(item.get("name").and_then(Json::as_str).unwrap());
            assert_eq!(
                item.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                item.get("better").and_then(Json::as_str),
                Some(def.better.label()),
                "{}",
                def.name
            );
            assert_eq!(
                item.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |args: &[&str]| parse_run_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        let ok = parse(&[
            "--workload",
            "svc-churn",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.traced),
            ("svc-churn", 7, 3, true)
        );
        assert_eq!(parse(&["--smoke"]).unwrap().seconds, 1);
        for bad in [
            &["--workload", "nope"][..],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--seed"],
            &["--rate", "5"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
