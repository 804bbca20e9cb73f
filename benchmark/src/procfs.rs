//! What the operating system sees of this process: CPU time and page
//! faults from `/proc/self/stat`, peak resident set and context switches
//! from `/proc/self/status`.

/// Linux reports `utime`/`stime` in clock ticks; `USER_HZ` has been 100
/// on every supported architecture since 2.6.
const TICKS_PER_S: f64 = 100.0;

/// The fields of `/proc/self/stat` the harness reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stat {
    pub minor_faults: u64,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) may
/// hold spaces and parentheses, so fields are counted from the *last*
/// `)`.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state): minflt is field 10, utime 14,
    // stime 15.
    let f: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| f.get(n - 3)?.parse::<u64>().ok();
    Some(Stat {
        minor_faults: field(10)?,
        cpu_user_s: field(14)? as f64 / TICKS_PER_S,
        cpu_sys_s: field(15)? as f64 / TICKS_PER_S,
    })
}

/// The fields of `/proc/self/status` the harness reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Status {
    pub vm_hwm_kib: u64,
    pub voluntary_ctx_switches: u64,
}

/// Parses `/proc/<pid>/status` text.
pub fn parse_status(text: &str) -> Option<Status> {
    let value = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))?
            .split_whitespace()
            .next()?
            .parse::<u64>()
            .ok()
    };
    Some(Status {
        vm_hwm_kib: value("VmHWM:")?,
        voluntary_ctx_switches: value("voluntary_ctxt_switches:")?,
    })
}

/// Reads this process's counters (zeros off Linux, where `/proc` is
/// missing — every metric stays printable, and the harness says so).
pub fn read() -> (Stat, Status) {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default();
    let status = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status(&s))
        .unwrap_or_default();
    (stat, status)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a running harness; the command name is edited to hold
    // the characters that break naive whitespace splitting.
    const STAT: &str = "8943 (bench (v2) x) R 8939 8943 8939 0 -1 4194304 83121 0 7 0 1234 567 0 0 20 0 1 0 288404 2703360 287 18446744073709551615 94870601457664 94870601477545 140721972257424 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0 94870601493552 94870601495168 94870720565248 140721972262359 140721972262379 140721972262379 140721972264939 0\n";

    const STATUS: &str = "Name:\tbenchmark\nUmask:\t0022\nState:\tR (running)\nVmPeak:\t  301788 kB\nVmHWM:\t  213788 kB\nVmRSS:\t    1788 kB\nThreads:\t1\nvoluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let s = parse_stat(STAT).unwrap();
        assert_eq!(s.minor_faults, 83121);
        assert_eq!(s.cpu_user_s, 12.34);
        assert_eq!(s.cpu_sys_s, 5.67);
        assert!(parse_stat("garbage").is_none());
        assert!(parse_stat("1 (x) R 2 3").is_none());
    }

    #[test]
    fn status_reads_hwm_and_voluntary_switches_only() {
        let s = parse_status(STATUS).unwrap();
        assert_eq!(s.vm_hwm_kib, 213788);
        assert_eq!(s.voluntary_ctx_switches, 42);
        assert!(parse_status("VmHWM:\t12 kB\n").is_none());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_read_sees_this_process() {
        let (_, status) = read();
        assert!(status.vm_hwm_kib > 0);
    }
}
