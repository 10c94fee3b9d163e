//! OS counters of this process, read from `/proc/self`. The parsers
//! take the file text so tests can feed them fixtures.

use std::fs;

/// Kernel clock ticks per second for `utime`/`stime` in
/// `/proc/<pid>/stat`. `sysconf(_SC_CLK_TCK)` needs libc; the value is
/// 100 on every Linux configuration this benchmark targets.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) is parenthesised and may itself contain spaces
/// or parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// The numeric value of a `Key:   123 kB`-style line of
/// `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Voluntary + involuntary context switches of one task's `status`.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    Some(
        parse_status_field(status, "voluntary_ctxt_switches")?
            + parse_status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// One reading of the counters the `proc.*` metrics are built from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    pub cpu_seconds: f64,
    pub threads: u64,
    /// Summed over the tasks alive at the reading; a thread that exits
    /// between two readings takes its count with it.
    pub ctx_switches: u64,
    pub rss_bytes: u64,
    pub peak_rss_bytes: u64,
}

impl ProcSample {
    /// Reads `/proc/self`; `None` where it is absent or unreadable (the
    /// `proc.*` metrics are then reported as a violation, not as zeros).
    pub fn read() -> Option<ProcSample> {
        let stat = fs::read_to_string("/proc/self/stat").ok()?;
        let status = fs::read_to_string("/proc/self/status").ok()?;
        let mut ctx_switches = 0;
        for task in fs::read_dir("/proc/self/task").ok()? {
            // A task may exit between the listing and the read.
            let Ok(text) = fs::read_to_string(task.ok()?.path().join("status")) else {
                continue;
            };
            ctx_switches += parse_ctx_switches(&text).unwrap_or(0);
        }
        Some(ProcSample {
            cpu_seconds: parse_stat_cpu_seconds(&stat)?,
            threads: parse_status_field(&status, "Threads")?,
            ctx_switches,
            rss_bytes: parse_status_field(&status, "VmRSS")? * 1024,
            peak_rss_bytes: parse_status_field(&status, "VmHWM")? * 1024,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf (x) y) S 1 4242 4242 0 -1 4194304 1093 0 0 0 \
        731 269 0 0 20 0 17 0 1234567 1000000000 5000 18446744073709551615 \
        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tperf\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  250000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n\
        Threads:\t17\nvoluntary_ctxt_switches:\t1500\n\
        nonvoluntary_ctxt_switches:\t25\n";

    #[test]
    fn stat_cpu_time_survives_a_hostile_command_name() {
        // utime 731 + stime 269 ticks = 10 s at 100 Hz.
        assert_eq!(parse_stat_cpu_seconds(STAT), Some(10.0));
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        assert_eq!(parse_status_field(STATUS, "VmRSS"), Some(10240));
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(17));
        // A key that is a prefix of another line's key must not match it.
        assert_eq!(parse_status_field(STATUS, "Vm"), None);
        assert_eq!(parse_status_field(STATUS, "Missing"), None);
        assert_eq!(parse_ctx_switches(STATUS), Some(1525));
        assert_eq!(parse_ctx_switches("Threads:\t1\n"), None);
    }

    #[test]
    fn live_reading_is_plausible_on_linux() {
        if let Some(s) = ProcSample::read() {
            assert!(s.threads >= 1 && s.rss_bytes > 0 && s.peak_rss_bytes >= s.rss_bytes);
        }
    }
}
