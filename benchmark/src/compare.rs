//! `compare`: two sets of result files side by side — each side's median
//! and quartiles per workload and end-to-end metric, the ratio with its
//! base, and a verdict.

use crate::json::{self, JsonExt};
use crate::metrics::{Better, END_TO_END};
use crate::stats::quartiles;
use serde::Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The new side's median is worse than the base's by more than the bound.
    Worse,
    /// Run-to-run spread is wider than the bound, or the load generator ran
    /// late: the row decides nothing.
    Unresolved,
}

/// One side's runs of one workload: values per metric, run by run.
#[derive(Default)]
struct Runs {
    values: BTreeMap<String, Vec<f64>>,
    late: bool,
}

type Side = BTreeMap<String, Runs>;

fn load(paths: &[String], seconds: &mut Option<f64>) -> Result<Side, String> {
    let mut side = Side::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let results = doc
            .get("results")
            .and_then(Json::as_array)
            .ok_or(format!("{path}: no \"results\" array"))?;
        for result in results {
            let field = |key: &str| {
                result
                    .get(key)
                    .ok_or(format!("{path}: a result lacks \"{key}\""))
            };
            if field("smoke")?.as_bool() != Some(false) {
                return Err(format!("{path}: smoke results are not measurements"));
            }
            let secs = field("seconds")?
                .as_f64()
                .ok_or(format!("{path}: bad \"seconds\""))?;
            if *seconds.get_or_insert(secs) != secs {
                return Err(format!(
                    "{path}: measured {secs} s, other files {} s",
                    seconds.unwrap()
                ));
            }
            let workload = field("workload")?
                .as_str()
                .ok_or(format!("{path}: bad \"workload\""))?;
            let runs = side.entry(workload.to_string()).or_default();
            for (name, metric) in field("metrics")?
                .as_object()
                .ok_or(format!("{path}: bad \"metrics\""))?
            {
                let value = metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("{path}: bad {name}"))?;
                runs.values.entry(name.clone()).or_default().push(value);
                runs.late |= name == "driver.late_frac" && value >= 0.01;
            }
        }
    }
    Ok(side)
}

/// The verdict on one metric given each side's `[q1, median, q3]`.
pub fn judge(better: Better, bound: f64, base: [f64; 3], new: [f64; 3], late: bool) -> Verdict {
    if bound == 0.0 {
        // Must stay 0: any failure on the new side is worse.
        return if new[2] > base[2] {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
    }
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
    let worsening = match better {
        Better::Lower => new[1] / base[1] - 1.0,
        Better::Higher => 1.0 - new[1] / base[1],
    };
    if late || spread(base) > bound || spread(new) > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the table; `Ok(true)` when no row is worse.
pub fn run(base_paths: &[String], new_paths: &[String]) -> Result<bool, String> {
    if base_paths.len() < 2 || new_paths.len() < 2 {
        return Err("compare needs two or more result files per side".to_string());
    }
    let mut seconds = None;
    let base = load(base_paths, &mut seconds)?;
    let new = load(new_paths, &mut seconds)?;
    println!(
        "{:<14} {:<20} {:>36} {:>36} {:>9}  verdict",
        "workload", "metric", "base q1 / median / q3", "new q1 / median / q3", "new/base"
    );
    let mut all_ok = true;
    for (workload, base_runs) in &base {
        let Some(new_runs) = new.get(workload) else {
            return Err(format!("{workload}: in the base files only"));
        };
        for def in &END_TO_END {
            let (Some(b), Some(n)) = (
                base_runs.values.get(def.name),
                new_runs.values.get(def.name),
            ) else {
                continue; // not a metric of this workload
            };
            if b.len() < 2 || n.len() < 2 {
                return Err(format!(
                    "{workload}: {} has fewer than two runs on a side",
                    def.name
                ));
            }
            let (bq, nq) = (quartiles(b), quartiles(n));
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let verdict = judge(def.better, bound, bq, nq, base_runs.late || new_runs.late);
            all_ok &= verdict != Verdict::Worse;
            let cell = |q: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", q[0], q[1], q[2]);
            let ratio = if bq[1] == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", nq[1] / bq[1])
            };
            println!(
                "{workload:<14} {:<20} {:>36} {:>36} {ratio:>9}  {} ({} is better, bound {bound}, {} vs {} runs, {})",
                def.name,
                cell(bq),
                cell(nq),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                def.better.label(),
                b.len(),
                n.len(),
                def.unit,
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_lateness() {
        let steady = [99.0, 100.0, 101.0];
        assert_eq!(
            judge(Better::Lower, 0.10, steady, [104.0, 105.0, 106.0], false),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.10, steady, [114.0, 115.0, 116.0], false),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.10, steady, [80.0, 81.0, 82.0], false),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.05, steady, [92.0, 93.0, 94.0], false),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, 0.05, steady, [109.0, 110.0, 111.0], false),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                Better::Lower,
                0.10,
                [90.0, 100.0, 110.0],
                [114.0, 115.0, 116.0],
                false
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, steady, [114.0, 115.0, 116.0], true),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.0, [0.0; 3], [0.0; 3], false),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.0, [0.0; 3], [0.0, 0.0, 1e-6], false),
            Verdict::Worse
        );
    }

    #[test]
    fn smoke_results_and_mixed_run_lengths_are_refused() {
        let dir = crate::out_dir().join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, smoke: bool, seconds: u32| {
            let path = dir.join(name);
            std::fs::write(
                &path,
                format!(
                    "{{\"results\":[{{\"workload\":\"w\",\"smoke\":{smoke},\"seconds\":{seconds},\
                     \"metrics\":{{\"throughput_ops_s\":{{\"value\":10.5,\"unit\":\"ops/s\"}}}}}}]}}"
                ),
            )
            .unwrap();
            path.to_string_lossy().into_owned()
        };
        let (a, b, smoke, short) = (
            write("a", false, 12),
            write("b", false, 12),
            write("s", true, 12),
            write("t", false, 1),
        );
        let pair = [a.clone(), b.clone()];
        assert_eq!(run(&pair, &pair), Ok(true));
        assert!(run(&pair, &[a.clone(), smoke])
            .unwrap_err()
            .contains("smoke"));
        assert!(run(&pair, &[a.clone(), short])
            .unwrap_err()
            .contains("measured"));
        assert!(run(&pair, &[a]).is_err(), "one file is not a set");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
