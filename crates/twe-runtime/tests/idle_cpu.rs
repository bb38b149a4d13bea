//! An idle runtime must sleep, not poll: once its workers have lingered and
//! parked, they wait untimed until a wake, so an idle runtime uses no CPU
//! of its own.
//!
//! This is the one test of this binary on purpose: CPU time is read for the
//! whole process, so it must not share it with tests running in parallel.

#![cfg(target_os = "linux")]

use std::time::Duration;
use twe_effects::EffectSet;
use twe_runtime::{Runtime, SchedulerKind};

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds (`/proc/self/task/*/schedstat`, first field; `/proc/self/stat`
/// counts in 10 ms ticks, too coarse for a 1 ms bound). `None` where the
/// kernel does not export it.
fn process_cpu_ns() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

#[test]
fn idle_runtime_burns_under_1ms_cpu_per_300ms() {
    if process_cpu_ns().is_none() {
        eprintln!("skipped: no /proc/self/task/*/schedstat on this kernel");
        return;
    }
    let rt = Runtime::new(4, SchedulerKind::Tree);
    let futures = rt.submit_all((0..256).map(|i| {
        (
            format!("warm{i}"),
            EffectSet::parse(&format!("writes Idle:[{i}]")),
            move |_: &twe_runtime::TaskCtx<'_>| i,
        )
    }));
    for f in &futures {
        f.wait();
    }
    // Let the last lingerer give up and park.
    std::thread::sleep(Duration::from_millis(20));
    // Interference from the host only ever adds CPU time, so the quietest
    // of five windows is the runtime's own cost. What is left is the test
    // thread's own sleeps and reads of `/proc`.
    let quietest = (0..5)
        .map(|_| {
            let before = process_cpu_ns().expect("schedstat readable");
            std::thread::sleep(Duration::from_millis(300));
            process_cpu_ns().expect("schedstat readable") - before
        })
        .min()
        .expect("five windows");
    eprintln!(
        "an idle 4-worker runtime: {} µs of CPU in the quietest 300 ms",
        quietest / 1000
    );
    assert!(
        quietest < 1_000_000,
        "an idle 4-worker runtime used {} µs of CPU in 300 ms",
        quietest / 1000
    );
}
