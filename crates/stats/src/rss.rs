//! Process resident-set-size probes.
//!
//! The scale benchmarks gate on *deterministic* byte accounting (sum of
//! arena capacities), but record the operating system's view alongside
//! it so a budget regression that slips past the accounting — allocator
//! fragmentation, forgotten side structures — still shows up in the
//! recorded numbers. On Linux the probes read `/proc/self/status`
//! (`VmHWM` = peak RSS, `VmRSS` = current RSS); on other platforms they
//! return an honest `None` instead of a guess, and callers must degrade
//! gracefully (record `null`, skip RSS ceilings).

/// Peak resident set size of this process in bytes (`VmHWM`), or `None`
/// when the platform has no `/proc/self/status`.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kib("VmHWM:").map(|kib| kib * 1024)
}

/// Current resident set size of this process in bytes (`VmRSS`), or
/// `None` when the platform has no `/proc/self/status`.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_kib("VmRSS:").map(|kib| kib * 1024)
}

/// Resets the kernel's peak-RSS watermark to the current RSS by writing
/// `5` to `/proc/self/clear_refs`, so a subsequent [`peak_rss_bytes`]
/// reflects only allocations made after the reset (per-phase peaks).
/// Returns `false` when unsupported (non-Linux, restricted procfs) —
/// callers then fall back to whole-process peaks.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_os = "linux")]
    {
        std::fs::write("/proc/self/clear_refs", b"5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Parses a kB-denominated field out of `/proc/self/status`.
fn proc_status_kib(field: &str) -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with(field))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = field;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn linux_probes_report_plausible_values() {
        let peak = peak_rss_bytes().expect("Linux must expose VmHWM");
        let current = current_rss_bytes().expect("Linux must expose VmRSS");
        // A running test process occupies at least a few pages and less
        // than a terabyte; the peak can never undercut the present.
        assert!(current > 4096, "current RSS {current} implausibly small");
        assert!(peak >= current || reset_peak_rss(), "peak below current");
        assert!(peak < 1 << 40, "peak RSS {peak} implausibly large");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn allocation_moves_the_watermark() {
        reset_peak_rss();
        let before = peak_rss_bytes().unwrap();
        // Touch 64 MB so it is actually resident; `black_box` keeps the
        // optimizer from deleting an allocation nothing reads.
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        let after = peak_rss_bytes().unwrap();
        assert!(
            after >= before + (32 << 20),
            "watermark {before} -> {after} missed a 64 MB allocation"
        );
        drop(block);
    }

    #[test]
    #[cfg(not(target_os = "linux"))]
    fn other_platforms_are_honestly_none() {
        assert_eq!(peak_rss_bytes(), None);
        assert_eq!(current_rss_bytes(), None);
        assert!(!reset_peak_rss());
    }
}
