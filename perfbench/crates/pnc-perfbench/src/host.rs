//! Host-side readings: on-CPU and run-queue time from `/proc`, the
//! process's peak resident set, and a fixed probe kernel that shows
//! whether a slow run was a slow machine.

use std::fs;
use std::path::Path;

/// Scheduler time of a set of threads, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTime {
    /// Time spent running on a CPU.
    pub on_cpu_ns: u64,
    /// Time spent runnable but waiting on a run queue.
    pub runqueue_ns: u64,
}

impl SchedTime {
    /// Component-wise difference `self − earlier`, saturating at 0.
    pub fn since(self, earlier: SchedTime) -> SchedTime {
        SchedTime {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            runqueue_ns: self.runqueue_ns.saturating_sub(earlier.runqueue_ns),
        }
    }

    /// On-CPU time in seconds.
    pub fn on_cpu_seconds(self) -> f64 {
        self.on_cpu_ns as f64 * 1e-9
    }

    /// Run-queue wait in seconds.
    pub fn runqueue_seconds(self) -> f64 {
        self.runqueue_ns as f64 * 1e-9
    }
}

/// Parses one `schedstat` line: `<on-cpu ns> <run-queue ns> <slices>`.
pub fn parse_schedstat(text: &str) -> Option<SchedTime> {
    let mut fields = text.split_whitespace();
    let on_cpu_ns = fields.next()?.parse().ok()?;
    let runqueue_ns = fields.next()?.parse().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some(SchedTime {
        on_cpu_ns,
        runqueue_ns,
    })
}

/// Sums `schedstat` over every live thread of this process
/// (`/proc/self/task/*/schedstat`). The kernel updates these counters
/// at scheduler ticks, so a reading is exact to about one tick (a few
/// milliseconds): use it only for spans of seconds.
///
/// # Errors
///
/// Returns a description when `/proc` is unreadable or malformed.
pub fn process_sched_time() -> Result<SchedTime, String> {
    sched_time_under(Path::new("/proc/self/task"))
}

fn sched_time_under(task_dir: &Path) -> Result<SchedTime, String> {
    let entries =
        fs::read_dir(task_dir).map_err(|e| format!("cannot list {}: {e}", task_dir.display()))?;
    let mut total = SchedTime::default();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", task_dir.display()))?;
        let path = entry.path().join("schedstat");
        // A thread that exits between the listing and the read has no
        // file any more; it contributes nothing.
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let t = parse_schedstat(&text)
            .ok_or_else(|| format!("malformed {}: {text:?}", path.display()))?;
        total.on_cpu_ns += t.on_cpu_ns;
        total.runqueue_ns += t.runqueue_ns;
    }
    Ok(total)
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/*/status`,
/// returning mebibytes.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// The process's peak resident set so far, in mebibytes.
///
/// # Errors
///
/// Returns a description when `/proc/self/status` is unreadable or has
/// no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A fixed, benchmark-owned CPU kernel: a dependent chain of 2·10⁷
/// fused multiply-adds, 70–90 ms on a 2.1 GHz VM core. Its time moves
/// only with the machine, never with the program under test.
pub fn probe_kernel() -> f64 {
    let mut x = std::hint::black_box(0.5f64);
    for i in 0..20_000_000u32 {
        x = x.mul_add(0.999_999, f64::from(i & 7) * 1e-9);
    }
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_line_parses() {
        let t = parse_schedstat("1022719767 21856430 67\n").unwrap();
        assert_eq!(t.on_cpu_ns, 1_022_719_767);
        assert_eq!(t.runqueue_ns, 21_856_430);
    }

    #[test]
    fn malformed_schedstat_is_rejected() {
        assert!(parse_schedstat("").is_none());
        assert!(parse_schedstat("12 34").is_none());
        assert!(parse_schedstat("12 x 5").is_none());
        assert!(parse_schedstat("-1 2 3").is_none());
    }

    #[test]
    fn since_saturates() {
        let a = SchedTime {
            on_cpu_ns: 10,
            runqueue_ns: 5,
        };
        let b = SchedTime {
            on_cpu_ns: 30,
            runqueue_ns: 4,
        };
        let d = b.since(a);
        assert_eq!(d.on_cpu_ns, 20);
        assert_eq!(d.runqueue_ns, 0);
        assert!((d.on_cpu_seconds() - 2e-8).abs() < 1e-20);
    }

    #[test]
    fn live_readings_grow_with_work() {
        // Other test threads may exit between two process-wide readings,
        // so the growth check reads this thread alone.
        let own = || parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").unwrap());
        let before = own().unwrap();
        std::hint::black_box(probe_kernel());
        assert!(own().unwrap().since(before).on_cpu_ns > 0);
        assert!(process_sched_time().unwrap().on_cpu_ns > 0);
    }

    #[test]
    fn vm_hwm_parses_kib_to_mib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t12 kB\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
