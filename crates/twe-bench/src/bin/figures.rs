//! Regenerates the tables behind every figure of the TWE evaluation.
//!
//! ```text
//! figures [--fig 6.1|6.2|6.3|6.4|7.1|backlog|all]
//!         [--quick] [--json out.json] [--backlog-json BENCH_backlog.json]
//! ```
//!
//! `--quick` shrinks the workloads so the whole sweep finishes in a couple of
//! minutes on a laptop; without it the workloads approximate the paper's
//! sizes (50 000-point K-Means, 2048×2048 images, 400 000-edge SSCA2, …).
//!
//! `--fig backlog` runs only the backlog microbenchmark: the
//! `svc-contended` population through a `Runtime` on both schedulers,
//! closed loop at 64 to 4 096 in flight, three repetitions — per-request
//! time and rechecks per completion (quick mode stops at 256).
//! `--backlog-json` writes it as `BENCH_backlog.json`, the input of the
//! scheduled-CI scaling bar (tree per-request time at 1 024 in flight
//! within 6x of 64).

use twe_bench::{
    print_conflicting_rows, print_rows, run_conflicting_sweep, run_figures, BacklogRecord,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut backlog_json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                which = args.get(i + 1).cloned().unwrap_or_else(|| "all".into());
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--json" => {
                json_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--backlog-json" => {
                backlog_json_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fig 6.1|6.2|6.3|6.4|7.1|backlog|all] \
                     [--quick] [--json out.json] [--backlog-json BENCH_backlog.json]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    // The microbench is opt-in (`--fig backlog` / `--backlog-json`) rather
    // than part of `all`, so figure sweeps and the microbench are never
    // silently paid for twice in one invocation.
    let run_backlog = which == "backlog" || backlog_json_path.is_some();
    if which == "backlog" {
        if json_path.is_some() {
            eprintln!(
                "# note: --json applies to figure rows and is ignored with --fig backlog; \
                 use --backlog-json for the microbench record"
            );
        }
    } else {
        eprintln!(
            "# regenerating figure(s) {which} ({} workloads), host parallelism = {}",
            if quick { "quick" } else { "full-size" },
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        );
        let rows = run_figures(&which, quick);
        print_rows(&rows);
        if let Some(path) = json_path {
            let json = serde_json::to_string_pretty(&rows).expect("serialize rows");
            std::fs::write(&path, json).expect("write JSON output");
            eprintln!("# wrote {path}");
        }
    }
    if run_backlog {
        eprintln!(
            "# backlog microbench ({} mode, host parallelism = {})",
            if quick { "quick" } else { "full" },
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        );
        let record = BacklogRecord {
            conflicting_mix: run_conflicting_sweep(quick),
        };
        print_conflicting_rows(&record.conflicting_mix);
        if let Some(path) = backlog_json_path {
            let json = serde_json::to_string_pretty(&record).expect("serialize backlog rows");
            std::fs::write(&path, json).expect("write backlog JSON output");
            eprintln!("# wrote {path}");
        }
    }
}
