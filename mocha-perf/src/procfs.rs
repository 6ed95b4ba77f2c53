//! Process-level counters read from `/proc`, and the host description
//! stamped into every result file.

use std::fs;
use std::time::Duration;

/// A snapshot of what the kernel has charged this process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSnapshot {
    /// CPU time (user + system) summed over live threads.
    pub cpu: Duration,
    /// Voluntary plus involuntary context switches over live threads.
    pub ctx_switches: u64,
    /// Resident set size now, KiB.
    pub rss_kb: u64,
    /// Highest resident set size so far, KiB.
    pub peak_rss_kb: u64,
}

impl ProcSnapshot {
    /// Reads the counters. Threads that exited between two snapshots take
    /// their time with them; the runtime's threads live for a whole phase,
    /// so phase deltas are exact to the scheduler's nanosecond accounting.
    /// On a kernel without `schedstat` the CPU figure falls back to the
    /// 10 ms ticks of `/proc/self/stat`.
    pub fn take() -> ProcSnapshot {
        let mut snap = ProcSnapshot::default();
        let mut sched_ns: Option<u64> = Some(0);
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let dir = task.path();
                match fs::read_to_string(dir.join("schedstat"))
                    .ok()
                    .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                {
                    Some(ns) => sched_ns = sched_ns.map(|t| t + ns),
                    None => sched_ns = None,
                }
                if let Ok(status) = fs::read_to_string(dir.join("status")) {
                    snap.ctx_switches += field_kb(&status, "voluntary_ctxt_switches:")
                        + field_kb(&status, "nonvoluntary_ctxt_switches:");
                }
            }
        }
        snap.cpu = match sched_ns {
            Some(ns) if ns > 0 => Duration::from_nanos(ns),
            _ => stat_ticks().map_or(Duration::ZERO, |t| Duration::from_millis(t * 10)),
        };
        if let Ok(status) = fs::read_to_string("/proc/self/status") {
            snap.rss_kb = field_kb(&status, "VmRSS:");
            snap.peak_rss_kb = field_kb(&status, "VmHWM:");
        }
        snap
    }
}

/// The first integer after `key` in a `/proc/*/status`-style text.
fn field_kb(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// utime + stime of `/proc/self/stat`, in clock ticks (100 Hz on Linux).
fn stat_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after the ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Where and with what a result was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// `git rev-parse HEAD`, or "unknown" outside a git checkout.
    pub commit: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Cargo profile the harness itself was built with.
    pub profile: &'static str,
}

impl HostInfo {
    /// Gathers the description; anything unavailable reads "unknown".
    pub fn gather() -> HostInfo {
        let run = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
        };
        HostInfo {
            commit: run("git", &["rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            rustc: run("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let text = "Name:\tx\nVmHWM:\t    1788 kB\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(field_kb(text, "VmHWM:"), 1788);
        assert_eq!(field_kb(text, "voluntary_ctxt_switches:"), 12);
        assert_eq!(field_kb(text, "VmRSS:"), 0);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = ProcSnapshot::take();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = ProcSnapshot::take();
        assert!(after.cpu > before.cpu, "{before:?} -> {after:?}");
        assert!(after.peak_rss_kb >= after.rss_kb && after.rss_kb > 0);
    }
}
