//! Host-speed calibration: a fixed reference kernel timed next to the measured work.
//!
//! On a shared host the same code can take nearly twice as long from one minute to the
//! next — another tenant on the sibling hyperthread, a busy memory bus — and the CPU
//! clock cannot see it: the time is really spent, just slower. The kernel below uses
//! only the standard library (hashing, allocation, ordered-map pointer chasing,
//! sorting: the mix the checker's search spends its time on), so it does a fixed amount
//! of work that no change to the rdms crates can make cheaper or dearer. It is run in
//! small slices between the measured operations; the measured CPU time divided by the
//! kernel's slowdown against [`REFERENCE_MS`] is what the same work would have taken on
//! the reference host. A change to the program moves the measured time and not the
//! kernel's, so it shows in full.

use crate::stats::{median, CpuClock};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

/// CPU milliseconds one kernel pass takes on the reference host (a 2-vCPU Xeon VM
/// while its host was quiet); every normalised time is expressed at this speed.
pub const REFERENCE_MS: f64 = 0.8;
/// A kernel pass is due after this many CPU milliseconds of measured work, so the
/// calibration follows the host's speed at a fine grain for a fixed share of the run.
const WORK_MS_PER_PASS: f64 = 15.0;

const KEYS: u64 = 1 << 12;
const STEPS: u64 = 2_500;

/// One pass of the kernel; returns a checksum so the work cannot be optimised away.
fn kernel() -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut ordered: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for step in 0..STEPS {
        let key = next() % KEYS;
        *counts.entry(key).or_default() += step;
        let row = ordered.entry(key ^ (step & 0xff)).or_default();
        if row.len() < 8 {
            row.push(step as u32);
        }
    }
    let mut keys: Vec<u64> = counts.iter().map(|(k, v)| k.wrapping_mul(*v)).collect();
    keys.sort_unstable();
    let rows: u64 = ordered.values().map(|row| row.len() as u64).sum();
    keys.iter()
        .step_by(97)
        .fold(rows, |acc, k| acc.rotate_left(5) ^ k)
}

/// The kernel's passes over one stretch of measured work (a round, a recovery).
pub struct Calibration {
    /// CPU milliseconds of each pass.
    passes_ms: Vec<f64>,
    /// Where on the CPU clock the measured work since the last pass began.
    since_pass: CpuClock,
}

impl Calibration {
    /// Starts with one pass, so even a stretch with no due pass has a reading.
    pub fn start() -> Calibration {
        let mut calibration = Calibration {
            passes_ms: Vec::new(),
            since_pass: CpuClock::now(),
        };
        calibration.pass();
        calibration
    }

    /// Runs one kernel pass and records its CPU time. The kernel runs once untimed
    /// first: the measured work leaves the caches and the allocator's free lists in its
    /// own state, and a cold pass would time that state, not the host.
    pub fn pass(&mut self) {
        black_box(kernel());
        let start = CpuClock::now();
        black_box(kernel());
        self.passes_ms.push(start.elapsed_ms());
        self.since_pass = CpuClock::now();
    }

    /// `n` passes back to back, around work too coarse for [`Calibration::tick`].
    pub fn passes(&mut self, n: usize) {
        for _ in 0..n {
            self.pass();
        }
    }

    /// Call between measured operations: runs a pass once enough work has gone by.
    pub fn tick(&mut self) {
        if self.since_pass.elapsed_ms() >= WORK_MS_PER_PASS {
            self.pass();
        }
    }

    /// CPU milliseconds spent in the kernel so far, to take out of a span's total.
    pub fn kernel_ms(&self) -> f64 {
        self.passes_ms.iter().sum()
    }

    /// How much slower than the reference host this stretch ran (2.0: half as fast):
    /// the median pass against [`REFERENCE_MS`], so a pass that took a page fault or
    /// an interrupt does not count.
    pub fn slowdown(&self) -> f64 {
        median(&self.passes_ms) / REFERENCE_MS
    }
}
