//! Process and host facts from `/proc` (Linux only; the workspace vendors
//! no libc, so there is no `getrusage`/`clock_gettime` to call).

use std::fs;

/// Kernel clock ticks per second as `/proc/*/stat` reports CPU time.
/// `USER_HZ` is 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

fn status_field(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Live threads in this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Open file descriptors in this process.
pub fn fds() -> u64 {
    fs::read_dir("/proc/self/fd").map_or(0, |d| d.count() as u64)
}

/// `(utime, stime)` in seconds from a `stat` file. The `comm` field may
/// hold spaces, so fields are counted from the last `)`.
fn stat_cpu(path: &str) -> Option<(f64, f64)> {
    let stat = fs::read_to_string(path).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After `comm`: state is field 3, utime 14, stime 15 (1-based).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / USER_HZ, stime / USER_HZ))
}

/// `(user, system)` CPU seconds of the whole process, exited threads
/// included. 10 ms resolution.
pub fn process_cpu() -> (f64, f64) {
    stat_cpu("/proc/self/stat").unwrap_or((0.0, 0.0))
}

/// CPU seconds the calling thread has run: nanosecond-resolution
/// `schedstat` where the kernel keeps it, else the 10 ms `stat` ticks.
pub fn thread_cpu_s() -> f64 {
    let sched = fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .filter(|&ns| ns > 0);
    match sched {
        Some(ns) => ns as f64 / 1e9,
        None => stat_cpu("/proc/thread-self/stat").map_or(0.0, |(u, s)| u + s),
    }
}

/// The 1-minute load average.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
