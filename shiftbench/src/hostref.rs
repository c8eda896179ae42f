//! Host memory-speed index: the drift correction of the host-time metrics.
//!
//! The host's speed drifts by up to 2× over phases of seconds to minutes,
//! with the same binary and input. A fixed reference kernel, random
//! read-modify-writes over an 8 MiB buffer (beyond the 2 MiB L2, like the
//! simulator's cache state), slows down with it: run between stepping
//! batches in one thread for 150 s, its 10 s window medians correlated with
//! 16-core SHIFT stepping at 0.94 and with 4-core baseline stepping at 0.97,
//! while an ALU loop, a pointer chase and a streaming sum correlated at
//! 0.4–0.7. Sampled from a second thread while the simulation ran, it
//! tracked less well, so the timed code calls [`HostIndex::sample`] between
//! its timed intervals, and each interval is scaled by
//! [`NOMINAL_NS_PER_UPDATE`] over the median kernel time of the samples
//! within [`WINDOW`] of it. The kernel is the benchmark's own code, so a
//! change to the simulator moves the corrected times as it moves the raw
//! ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::report::median;

/// Kernel ns per update that corrected times are normalised to (the
/// kernel's typical time on the 2-vCPU Xeon host the benchmark was built on).
pub const NOMINAL_NS_PER_UPDATE: f64 = 4.5;

/// Samples this close to an interval count toward its correction.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Buffer words: 8 MiB of `u64`.
const WORDS: usize = 1 << 20;

/// Updates per sample: about 5 ms.
const UPDATES: usize = 1 << 20;

/// A measured value with the interval it was measured over.
pub type Timed = (Instant, Instant, f64);

/// The raw values of timed measurements.
pub fn raw(timed: &[Timed]) -> Vec<f64> {
    timed.iter().map(|t| t.2).collect()
}

/// The reference kernel's buffer and its samples.
#[derive(Debug)]
pub struct HostIndex {
    buffer: Vec<u64>,
    x: u64,
    samples: Vec<(Instant, f64)>,
}

impl HostIndex {
    /// Allocates and touches the kernel's buffer; takes no sample.
    pub fn new() -> Self {
        let mut index = HostIndex {
            buffer: vec![0u64; WORDS],
            x: 0x9E37_79B9_7F4A_7C15,
            samples: Vec::new(),
        };
        index.kernel();
        index
    }

    /// Runs the kernel once, between timed intervals, and records its
    /// ns per update.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let ns = self.kernel();
        self.samples
            .push((start + (Instant::now() - start) / 2, ns));
    }

    fn kernel(&mut self) -> f64 {
        let start = Instant::now();
        let mask = self.buffer.len() - 1;
        for _ in 0..UPDATES {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let i = self.x as usize & mask;
            self.buffer[i] = self.buffer[i].wrapping_add(self.x);
        }
        black_box(&mut self.buffer);
        start.elapsed().as_nanos() as f64 / UPDATES as f64
    }

    /// The correction for a timed interval: nominal over the median kernel
    /// time of the samples within [`WINDOW`] of it; 1.0 if there are none.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| *at + WINDOW >= from && *at <= to + WINDOW)
            .map(|&(_, ns)| ns)
            .collect();
        if near.is_empty() {
            1.0
        } else {
            NOMINAL_NS_PER_UPDATE / median(&near)
        }
    }

    /// Each value scaled by the correction for its interval.
    pub fn corrected(&self, timed: &[Timed]) -> Vec<f64> {
        timed
            .iter()
            .map(|&(from, to, value)| value * self.factor(from, to))
            .collect()
    }

    /// Median kernel ns per update over every sample.
    pub fn median_ns(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_scale_nearby_intervals_only() {
        let mut index = HostIndex::new();
        let from = Instant::now();
        index.sample();
        index.sample();
        let to = Instant::now();
        let factor = index.factor(from, to);
        assert!(factor.is_finite() && factor > 0.0, "{factor}");
        assert_eq!(
            index.corrected(&[(from, to, 2.0)]),
            vec![2.0 * NOMINAL_NS_PER_UPDATE / index.median_ns()]
        );
        // An interval far from every sample is left as measured.
        let later = to + WINDOW * 3;
        assert_eq!(index.factor(later, later), 1.0);
    }
}
