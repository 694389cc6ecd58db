//! Process CPU time and peak memory from `/proc/self`.

/// Kernel clock ticks per second (`USER_HZ`; 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the `)`.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 =
        after.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / TICKS_PER_S
}

/// A `kB` field of `/proc/self/status`, in MiB (0 if missing).
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set size (`VmRSS`) in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_time_advances_and_rss_is_known() {
        let before = super::cpu_seconds();
        let mut x = 0u64;
        while super::cpu_seconds() - before < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(super::peak_rss_mib() > 1.0);
    }
}
