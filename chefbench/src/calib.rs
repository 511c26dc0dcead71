//! Machine-speed calibration.
//!
//! The machines this benchmark runs on are shared: the same fixed work
//! takes 20–40% longer for seconds to minutes at a time when neighbours
//! are busy, and that swamps any change worth detecting. Every timed
//! session and setup repetition is therefore paired with runs of a fixed
//! kernel that shares no code with chef, and end-to-end times are
//! reported in *reference seconds*: wall seconds scaled by how much
//! slower the kernel ran than on the reference machine. A change to chef
//! moves its own time and leaves the kernel's alone, so it still shows in
//! full; a slow machine moves both and cancels out.

use std::time::Instant;

/// Fastest kernel run on the reference machine (2-vCPU VM, release
/// build), in seconds. Fixed: it only sets the scale of reported times.
pub const REFERENCE_S: f64 = 0.0065;

/// Kernel runs per sample; the fastest counts, so a preempted run (or a
/// thread's first run, which faults its array in) does not read as a slow
/// machine.
const RUNS: usize = 3;

/// Elements the kernel sorts and hashes.
const LEN: usize = 200_000;

thread_local! {
    /// The kernel's array, allocated once per thread: a fresh allocation
    /// per run would time the kernel's page faults, whose cost depends on
    /// how the OS backs the pages rather than on the machine's speed.
    static BUF: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new(vec![0; LEN]);
}

/// The calibration kernel: sort, hash and fold a fixed pseudo-random
/// array — branchy, cache-heavy work like an interpreter's.
fn kernel() -> u64 {
    BUF.with(|buf| {
        let mut v = buf.borrow_mut();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for e in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *e = x;
        }
        v.sort_unstable();
        let mut buckets = std::collections::HashMap::new();
        for (i, &e) in v.iter().enumerate() {
            *buckets.entry(e % 4096).or_insert(0u64) += i as u64;
        }
        // Map iteration order varies between runs; the sum does not.
        buckets.values().fold(0u64, |a, &b| a.wrapping_add(b))
    })
}

/// The machine's current speed relative to the reference machine:
/// multiply wall seconds by it to get reference seconds.
pub fn speed() -> f64 {
    let fastest = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(kernel());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    REFERENCE_S / fastest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_speed_is_positive() {
        assert_eq!(kernel(), kernel());
        let s = speed();
        assert!(s.is_finite() && s > 0.0);
    }
}
