//! Percentiles over latency samples, the process's CPU clock, and its peak resident set.

use std::os::raw::{c_int, c_long};

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between closest ranks.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// A `/proc/self/status` field in kB (`VmHWM` is the peak resident set, `VmRSS` the
/// current one); `None` off Linux.
pub fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, now: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// A point on the process's CPU clock: the CPU time of all its threads together.
///
/// The kernel charges a thread only for the time it really ran, so time the hypervisor
/// stole from a virtual CPU does not count, nor does time a thread spent blocked or
/// waiting to be scheduled. On a shared host that makes this clock far steadier than
/// wall time for work that keeps the CPU busy.
#[derive(Clone, Copy)]
pub struct CpuClock(f64);

impl CpuClock {
    pub fn now() -> CpuClock {
        let mut now = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `now` is a valid, writable timespec; the clock id is a constant the
        // kernel always accepts.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        CpuClock(now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9)
    }

    /// CPU seconds the process has run since `self`.
    pub fn elapsed_s(self) -> f64 {
        CpuClock::now().0 - self.0
    }

    pub fn elapsed_ms(self) -> f64 {
        self.elapsed_s() * 1e3
    }
}
