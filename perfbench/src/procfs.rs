//! Readers for the Linux `/proc` files the benchmark measures with: process
//! CPU time and memory high-water marks, host steal time, and the CPUs this
//! process may run on.
//!
//! Every parser takes the file's text so it can be unit-tested; the
//! `read_*` wrappers do the I/O.

use std::path::Path;

use crate::Result;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times. Linux fixes this
/// `USER_HZ` at 100 for user space on every mainstream architecture.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` (clock ticks, every thread of the process) from the text
/// of `/proc/<pid>/stat`. The command name may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_whitespace();
    // After the name: state(3) ppid(4) … utime(14) stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field (such as `VmHWM` or `VmRSS`) of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// The number of CPUs in a kernel CPU list such as `0-3,5,7-8`.
pub fn parse_cpu_list(list: &str) -> Option<usize> {
    let mut total = 0;
    for part in list.trim().split(',').filter(|part| !part.is_empty()) {
        total += match part.split_once('-') {
            Some((low, high)) => {
                let (low, high): (usize, usize) = (low.parse().ok()?, high.parse().ok()?);
                high.checked_sub(low)? + 1
            }
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    (total > 0).then_some(total)
}

/// The aggregate `cpu` line of `/proc/stat`: total ticks and steal ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostTicks {
    /// Sum of every accounted state (user … steal; guest time is already
    /// inside user).
    pub total: u64,
    /// Ticks the hypervisor ran someone else while this guest wanted a CPU.
    pub steal: u64,
}

impl HostTicks {
    /// Steal as a percentage of the ticks between `earlier` and `self`.
    pub fn steal_pct_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu ` line of `/proc/stat`.
pub fn parse_host_ticks(stat: &str) -> Option<HostTicks> {
    let line = stat.lines().find(|line| line.starts_with("cpu "))?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<std::result::Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let accounted = values.get(..8)?;
    Some(HostTicks {
        total: accounted.iter().sum(),
        steal: *accounted.get(7)?,
    })
}

fn read(path: impl AsRef<Path>) -> Result<String> {
    let path = path.as_ref();
    std::fs::read_to_string(path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()).into())
}

/// CPU seconds (user + system, all threads) a process has used so far.
pub fn cpu_seconds(pid: u32) -> Result<f64> {
    let stat = read(format!("/proc/{pid}/stat"))?;
    let ticks = parse_cpu_ticks(&stat).ok_or_else(|| format!("unparsable /proc/{pid}/stat"))?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// The CPU nanoseconds a `/proc/<pid>/task/<tid>/schedstat` line reports
/// (its first field).
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// CPU seconds the calling thread has used so far, in nanoseconds
/// (`/proc/thread-self/schedstat`), for single-threaded passes. The kernel
/// brings the figure up to date at scheduler ticks, so it may lag by one.
pub fn thread_cpu_seconds() -> Result<f64> {
    let line = read("/proc/thread-self/schedstat")?;
    let ns = parse_schedstat_ns(&line).ok_or("unparsable /proc/thread-self/schedstat")?;
    Ok(ns as f64 / 1e9)
}

/// CPU seconds this process has used so far.
pub fn own_cpu_seconds() -> Result<f64> {
    cpu_seconds(std::process::id())
}

/// A process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64> {
    let status = read(format!("/proc/{pid}/status"))?;
    let kb = parse_status_kb(&status, "VmHWM")
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    Ok(kb as f64 / 1024.0)
}

/// Resets this process's `VmHWM` to its current RSS, so the next
/// [`peak_rss_mb`] reads the high-water mark of one phase.
pub fn reset_own_peak_rss() -> Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|error| format!("cannot reset VmHWM: {error}").into())
}

/// The host's aggregate CPU ticks now.
pub fn host_ticks() -> Result<HostTicks> {
    parse_host_ticks(&read("/proc/stat")?).ok_or_else(|| "unparsable /proc/stat".into())
}

/// How many CPUs this process may run on (what `nproc` prints).
pub fn allowed_cpus() -> Result<usize> {
    let status = read("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .and_then(parse_cpu_list)
        .ok_or_else(|| "no Cpus_allowed_list in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_gives_nanoseconds() {
        assert_eq!(parse_schedstat_ns("445639 72044 1\n"), Some(445_639));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
        let before = thread_cpu_seconds().unwrap();
        let started = std::time::Instant::now();
        let mut spin = 0u64;
        while started.elapsed() < std::time::Duration::from_millis(50) {
            spin = std::hint::black_box(spin.wrapping_add(1));
        }
        assert!(thread_cpu_seconds().unwrap() > before, "{spin}");
    }

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat =
            "4242 (serve (x) y) S 1 4242 4242 0 -1 4194560 812 0 0 0 1234 56 0 0 20 0 6 0 99 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(
            parse_cpu_ticks("4242 (serve) S 1 2"),
            None,
            "truncated line"
        );
        assert_eq!(parse_cpu_ticks("no parens here"), None);
    }

    #[test]
    fn status_fields_are_read_in_kb() {
        let status = "Name:\tserve\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1_000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(
            parse_status_kb("VmHWMX:\t5 kB\n", "VmHWM"),
            None,
            "prefix of a longer name"
        );
    }

    #[test]
    fn cpu_lists_count_ranges_and_singles() {
        assert_eq!(parse_cpu_list("0-1"), Some(2));
        assert_eq!(parse_cpu_list("0-3,5,7-8\n"), Some(7));
        assert_eq!(parse_cpu_list("\t4"), Some(1));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("3-1"), None, "descending range");
        assert_eq!(parse_cpu_list("x"), None);
    }

    #[test]
    fn host_ticks_and_steal_share() {
        let before = parse_host_ticks("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(
            before,
            HostTicks {
                total: 1_000,
                steal: 35
            }
        );
        let after = parse_host_ticks("cpu  150 0 70 1550 10 0 5 65 20 0\n").unwrap();
        assert_eq!(
            after,
            HostTicks {
                total: 1_850,
                steal: 65
            }
        );
        assert!((after.steal_pct_since(&before) - 100.0 * 30.0 / 850.0).abs() < 1e-9);
        assert_eq!(before.steal_pct_since(&before), 0.0, "no ticks elapsed");
        assert_eq!(parse_host_ticks("cpu0 1 2 3\n"), None, "no aggregate line");
        assert_eq!(parse_host_ticks("cpu  1 2 3\n"), None, "too few fields");
    }

    #[test]
    fn live_readers_work_on_this_process() {
        assert!(own_cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        assert!(allowed_cpus().unwrap() >= 1);
        let ticks = host_ticks().unwrap();
        assert!(ticks.total >= ticks.steal);
    }
}
