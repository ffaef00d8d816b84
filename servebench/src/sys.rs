//! What the benchmark asks of the operating system: the process CPU
//! clock, the host's CPU steal, and which CPUs threads may run on.
//!
//! Linux only, through the C library the standard library links anyway;
//! elsewhere the clock reads 0, steal is unknown and pinning does nothing.

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A CPU set of up to 1,024 CPUs, as `sched_{get,set}affinity` take it.
type CpuSet = [u64; 16];

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// CPU time of this process so far — every thread, live or exited — in
/// seconds, to the nanosecond (`CLOCK_PROCESS_CPUTIME_ID`; 0 where
/// unavailable). The kernel does not charge time the hypervisor stole
/// to the process, so CPU time swings less than wall time on a shared
/// host.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` that outlives
    // the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    0.0
}

/// The aggregate CPU time counters of `/proc/stat`, if readable.
pub fn cpu_times() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|v| v.parse().ok()).collect()
}

/// The share of the host's CPU time the hypervisor gave to other guests
/// (`steal` in `/proc/stat`) between two `cpu_times` readings.
pub fn steal_share(before: Option<Vec<u64>>, after: Option<Vec<u64>>) -> Option<f64> {
    let (before, after) = (before?, after?);
    let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    let total: u64 = delta.iter().sum();
    Some(*delta.get(7)? as f64 / total.max(1) as f64)
}

/// Moves a fixed set of threads between the CPUs the process started
/// with and the first of them alone.
pub struct Pin {
    tids: Vec<i32>,
    all: CpuSet,
    one: CpuSet,
}

impl Pin {
    /// The threads that exist now; the calling thread's CPU set.
    pub fn current_threads() -> Pin {
        let tids = std::fs::read_dir("/proc/self/task")
            .map(|dir| {
                dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let all = allowed_cpus();
        let mut one = [0; 16];
        if let Some((word, bits)) = all.iter().enumerate().find(|(_, w)| **w != 0) {
            one[word] = bits & bits.wrapping_neg();
        }
        Pin { tids, all, one }
    }

    /// Every thread of the set on the first CPU only.
    pub fn one(&self) {
        self.set(&self.one);
    }

    /// Every thread of the set back on all the CPUs it started with.
    pub fn all(&self) {
        self.set(&self.all);
    }

    fn set(&self, mask: &CpuSet) {
        if *mask == [0; 16] {
            return;
        }
        for &tid in &self.tids {
            set_affinity(tid, mask);
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn allowed_cpus() -> CpuSet {
    let mut mask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } < 0 {
        return [0; 16];
    }
    mask
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn allowed_cpus() -> CpuSet {
    [0; 16]
}

/// Sets one thread's CPU set; a thread that has exited is skipped.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn set_affinity(tid: i32, mask: &CpuSet) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask) };
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn set_affinity(_tid: i32, _mask: &CpuSet) {}
