//! Process memory figures from `/proc/self/status` (Linux). Both read as
//! 0 where the file or the field is missing.

fn status_kib(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Current resident set size, in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// The process's resident-set high-water mark, in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:") * 1024
}
