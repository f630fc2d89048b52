//! Process accounting read from `/proc`: CPU time including reaped
//! children, peak resident memory, and the per-process CPU clock the
//! kernel micro-timings use.

use std::fs;

/// Parses the CPU ticks out of one `/proc/<pid>/stat` line:
/// `utime + stime + cutime + cstime` (fields 14–17), so the CPU of role
/// processes the launcher has already reaped is included.
///
/// The second field is the command name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// closing parenthesis.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields.get(11..15)?.iter().map(|f| f.parse::<u64>().ok()).sum()
}

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Scheduler ticks per second (`_SC_CLK_TCK`), the unit of
/// `/proc/<pid>/stat` times.
fn ticks_per_second() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` takes a plain integer and has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// CPU seconds consumed so far by this process and every child it has
/// waited for.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is unreadable: the benchmark only runs
/// on Linux and a run without CPU accounting is not a measurement.
pub fn cpu_seconds_with_children() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_ticks(&stat).expect("parse /proc/self/stat");
    ticks as f64 / ticks_per_second()
}

/// Peak resident set of this process in MB.
///
/// # Panics
///
/// Panics when `/proc/self/status` carries no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// This process's CPU clock in nanoseconds (all threads). Only advances
/// while the process runs, so a co-tenant's time slice does not inflate a
/// kernel timing the way wall clock does.
pub fn process_cpu_ns() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid out-pointer for the duration of the call and
    // the clock id is a Linux constant; the call only writes through `tp`.
    unsafe {
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts);
    }
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_hostile_command_names() {
        // comm "a b) (c" contains spaces and parentheses.
        let line = "1234 (a b) (c) S 1 1234 1234 0 -1 4194304 100 200 0 0 \
                    7 11 13 17 20 0 4 0 100 1000000 50 18446744073709551615";
        assert_eq!(parse_stat_ticks(line), Some(7 + 11 + 13 + 17));
        assert_eq!(parse_stat_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > before);
        assert!(cpu_seconds_with_children() >= 0.0);
    }
}
