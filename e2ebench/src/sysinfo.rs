//! Host facts for the results header and the two `/proc` readings the
//! metrics need.

use std::process::Command;

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// `(on-cpu ns, run-queue wait ns)` of the calling thread so far, from
/// `/proc/thread-self/schedstat`. The wait share over an interval says
/// how much a neighbour on this shared host took from the measurement.
pub fn schedstat() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Share of the interval between two [`schedstat`] readings the thread
/// spent runnable but waiting for a CPU.
pub fn runqueue_wait_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let run = after.0.saturating_sub(before.0) as f64;
    let wait = after.1.saturating_sub(before.1) as f64;
    if run + wait == 0.0 {
        0.0
    } else {
        wait / (run + wait)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

/// The commit the source was checked out from; "unknown" outside a git
/// repository (the driver's checkout is not one).
pub fn git_rev() -> String {
    first_line_of("git", &["rev-parse", "--short=12", "HEAD"])
}
