//! Process-level cost readings from `/proc/self`: CPU time (the cost/energy
//! proxy) and peak resident set size.

use std::time::Duration;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux ABI; reading it properly needs `sysconf`, i.e. libc).
const USER_HZ: f64 = 100.0;

/// User + system CPU time this process (all threads) has consumed.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is unreadable or malformed: the benchmark
/// cannot report `cpu_ms_per_sample` without it.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    Duration::from_secs_f64((ticks() + ticks()) / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
///
/// # Panics
///
/// Panics if `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("status has a VmHWM line in kB");
    kib * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_cpu_time_is_monotonic() {
        let before = cpu_time();
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time() >= before);
    }
}
