//! Host probes: peak memory, CPU time, steal time and a calibration loop.
//!
//! The calibration loop and steal share are drift sentinels: they tell a
//! slow host from a slow change. They never rescale a metric — memory
//! noise on a shared host moves the serve path without moving an ALU loop.

use std::time::Instant;

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User plus system CPU time of this process so far, in milliseconds
/// (from `/proc/self/stat`, in 10 ms clock ticks).
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 * 10.0
}

/// Aggregate `(steal, total)` jiffies from the first line of `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let v: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().take(8).sum())
}

/// Steal share between two [`cpu_jiffies`] readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 * 100.0 / total as f64
}

/// Wall time of a fixed integer loop that stays in registers, in ms.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}
