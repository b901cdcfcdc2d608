//! Host-drift calibration.
//!
//! This class of host drifts: the identical deterministic run has been seen
//! to take 3.97 s and 6.97 s within minutes (user CPU tracking wall, steal
//! flat), so raw times cannot repeat within a tenth. A fixed compute kernel
//! of about a millisecond, run every [`INTERVAL`] of wall time inside each
//! rep, tracks that drift: `speed_index` = pinned nominal slice time ÷ median
//! slice time, and every calibrated time is multiplied by it (rates are
//! divided by it). The slices' own time is excluded from every stopwatch.
//!
//! The median, not the mean: a millisecond slice that catches a preemption
//! reads several times too long, and over 100 reps the mean-based index left
//! a 47 % range in calibrated loop time where the median-based one left
//! 10 % (raw: 17 %; interquartile 7.5 % raw, 4.1 % calibrated). A pure
//! compute kernel tracked the drift better than a cache-walking or a
//! hash-map kernel did, alone or mixed in.
//!
//! **The kernel and its nominal are frozen.** Changing either rescales every
//! calibrated metric, so it is a change to the benchmark, never to the code
//! under test.

use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel iterations per slice.
const ITERS: u32 = 40_000;

/// Median slice time on the host the benchmark was defined on, at its usual
/// speed. Only ratios against it matter.
pub const NOMINAL_SLICE_NS: f64 = 850_000.0;

/// Wall time between slices.
pub const INTERVAL: Duration = Duration::from_millis(50);

/// One calibration slice: a fixed xorshift + `sin`/`sqrt` loop. Returns its
/// wall time.
pub fn slice() -> Duration {
    let t = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0.0f64;
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let f = (x >> 11) as f64 / (1u64 << 53) as f64;
        acc += (f * std::f64::consts::TAU).sin() + (f + 1.0).sqrt();
    }
    black_box(acc);
    t.elapsed()
}

/// Interleaves slices with a rep and accounts for the time they took.
pub struct Calibrator {
    next_due: Instant,
    slices_ns: Vec<f64>,
    excluded: Duration,
}

impl Calibrator {
    /// Starts with one slice, so even a rep shorter than [`INTERVAL`] has a
    /// speed index.
    pub fn start() -> Self {
        let mut c = Self {
            next_due: Instant::now(),
            slices_ns: Vec::new(),
            excluded: Duration::ZERO,
        };
        c.poll(Instant::now());
        c
    }

    /// Runs a slice if one is due at `now`. Returns the wall time consumed,
    /// which the caller must keep out of whatever stopwatch is running.
    pub fn poll(&mut self, now: Instant) -> Duration {
        if now < self.next_due {
            return Duration::ZERO;
        }
        let d = slice();
        self.slices_ns.push(d.as_nanos() as f64);
        let spent = now.elapsed();
        self.excluded += spent;
        self.next_due = now + spent + INTERVAL;
        spent
    }

    /// Total wall time spent in slices so far.
    pub fn excluded(&self) -> Duration {
        self.excluded
    }

    /// The rep's slice times, nanoseconds.
    pub fn into_slices(self) -> Vec<f64> {
        self.slices_ns
    }
}

/// Nominal slice time ÷ median slice time: below 1 on a host running slow.
pub fn speed_index(slices_ns: &[f64]) -> f64 {
    if slices_ns.is_empty() {
        return 1.0;
    }
    NOMINAL_SLICE_NS / stats::median(slices_ns)
}

/// A rep whose slices' interquartile range exceeds this share of their
/// median saw the host's speed move *during* the rep; its calibrated values
/// are flagged `noisy`.
pub const NOISY_IQR_SHARE: f64 = 0.15;

/// A duration (or any time-like cost) as it would read at nominal speed.
pub fn normalise_time(raw: f64, speed_index: f64) -> f64 {
    raw * speed_index
}

/// A rate as it would read at nominal speed.
pub fn normalise_rate(raw: f64, speed_index: f64) -> f64 {
    raw / speed_index
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normaliser_undoes_a_synthetic_slowdown() {
        // A host running 1.5× slow: slices take 1.5× nominal, the workload
        // takes 1.5× as long and completes 1/1.5 as many actions a second.
        let slices = vec![NOMINAL_SLICE_NS * 1.5; 8];
        let idx = speed_index(&slices);
        assert!((idx - 1.0 / 1.5).abs() < 1e-12);
        assert!((normalise_time(6.0, idx) - 4.0).abs() < 1e-12);
        assert!((normalise_rate(1000.0, idx) - 1500.0).abs() < 1e-9);
        assert_eq!(stats::iqr_share(&slices), 0.0);
        // One slice that caught a preemption does not move the index.
        let mut preempted = slices.clone();
        preempted[3] *= 6.0;
        assert_eq!(speed_index(&preempted), idx);
    }

    #[test]
    fn nominal_host_is_the_identity() {
        let idx = speed_index(&[NOMINAL_SLICE_NS; 3]);
        assert_eq!(normalise_time(2.5, idx), 2.5);
        assert_eq!(normalise_rate(2.5, idx), 2.5);
        assert_eq!(speed_index(&[]), 1.0);
    }

    #[test]
    fn calibrator_excludes_at_least_its_slices() {
        let mut c = Calibrator::start();
        assert_eq!(c.poll(Instant::now()), Duration::ZERO, "not due yet");
        let excluded = c.excluded();
        let slices = c.into_slices();
        assert_eq!(slices.len(), 1);
        assert!(excluded.as_nanos() as f64 >= slices[0]);
    }
}
