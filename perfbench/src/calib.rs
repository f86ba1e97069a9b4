//! Calibrated time: wall time corrected for a busy neighbour on the host.
//!
//! On a host whose physical cores are shared with other guests, whatever
//! runs on the sibling hardware thread slows this benchmark's code by up to
//! 1.8x, for seconds to minutes at a time. A fixed probe — sorting the same
//! 4096 integers with the standard library's `sort_unstable` — slows in step
//! with it: over 0.9 s windows of the forward workload its duration and the
//! burst time correlate at 0.99. The probe runs only standard-library code,
//! so no change to the stack can make it faster or slower.
//!
//! The measured loops call the probe between operations, and every timed
//! metric is reported in calibrated time: an operation's wall time scaled by
//! [`PROBE_REFERENCE_NS`] over the probe's duration around it, raised to
//! [`SENSITIVITY`], that is, the time the operation would have taken had the
//! probe run at its reference speed. The raw wall-clock figures are printed
//! beside them.

use std::time::Instant;

use crate::util::{median, Rng};

/// Integers the probe sorts.
const PROBE_LEN: usize = 4096;
/// Probe duration calibrated time is scaled to: about its duration on an
/// idle core of the host the benchmark was sized on, so calibrated and
/// wall time agree there.
pub const PROBE_REFERENCE_NS: f64 = 60_000.0;
/// How much more the stack slows than the probe, in log terms: the slope
/// of log operation time over log probe time, fitted over 0.9 s windows of
/// one run, is 1.24 for forward bursts (r = 0.99) and 1.21 for sessions.
pub const SENSITIVITY: f64 = 1.2;
/// Probes on each side of a block whose median sets the block's scale, so
/// one probe that an interrupt hit does not skew its block.
const WINDOW: usize = 3;

/// Runs the probe and keeps a series of operation durations with the
/// probes taken between them.
pub struct Calibrator {
    data: Vec<u32>,
    scratch: Vec<u32>,
    /// Operations between two probes.
    every: usize,
    /// Probe durations, ns; probe `k` ran before operation `k * every`.
    probes: Vec<f64>,
    /// Wall time of each recorded operation, ns.
    ops: Vec<f64>,
}

impl Calibrator {
    /// A calibrator that probes once now and then after every `every`
    /// recorded operations.
    pub fn new(every: usize) -> Calibrator {
        let mut rng = Rng::new(0, 0xCA11);
        let data: Vec<u32> = (0..PROBE_LEN).map(|_| rng.next_u64() as u32).collect();
        let mut cal = Calibrator {
            scratch: data.clone(),
            data,
            every: every.max(1),
            probes: Vec::new(),
            ops: Vec::new(),
        };
        let first = cal.probe();
        cal.probes.push(first);
        cal
    }

    /// One probe run; its duration in ns.
    pub fn probe(&mut self) -> f64 {
        self.scratch.copy_from_slice(&self.data);
        let start = Instant::now();
        self.scratch.sort_unstable();
        std::hint::black_box(&self.scratch);
        start.elapsed().as_nanos() as f64
    }

    /// Median of `n` probes, ns.
    pub fn probe_median(&mut self, n: usize) -> f64 {
        let runs: Vec<f64> = (0..n.max(1)).map(|_| self.probe()).collect();
        median(&runs)
    }

    /// Records one operation's wall time; returns its index. Probes after
    /// every `every`-th operation.
    pub fn record(&mut self, ns: f64) -> usize {
        self.ops.push(ns);
        if self.ops.len().is_multiple_of(self.every) {
            let p = self.probe();
            self.probes.push(p);
        }
        self.ops.len() - 1
    }

    /// Scale from wall to calibrated time for operation `i`.
    pub fn scale(&self, i: usize) -> f64 {
        let block = i / self.every;
        let lo = block.saturating_sub(WINDOW - 1);
        let hi = (block + WINDOW + 1).min(self.probes.len());
        let lo = lo.min(hi.saturating_sub(1));
        factor(median(&self.probes[lo..hi]))
    }

    /// Calibrated duration of every recorded operation, ns, in order.
    pub fn calibrated(&self) -> Vec<f64> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, ns)| ns * self.scale(i))
            .collect()
    }

    /// Wall time of every recorded operation, ns, in order.
    pub fn wall(&self) -> &[f64] {
        &self.ops
    }

    /// Median probe duration over the run, µs.
    pub fn probe_p50_us(&self) -> f64 {
        median(&self.probes) / 1e3
    }
}

/// Scale from wall to calibrated time while the probe takes `probe_ns`.
pub fn factor(probe_ns: f64) -> f64 {
    (PROBE_REFERENCE_NS / probe_ns).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_probes_around_each_block() {
        let mut cal = Calibrator::new(2);
        for _ in 0..20 {
            cal.record(1000.0);
        }
        // Replace the measured probes: slow for the first half, at the
        // reference speed after it.
        let n = cal.probes.len();
        for (k, p) in cal.probes.iter_mut().enumerate() {
            *p = if k < n / 2 {
                2.0 * PROBE_REFERENCE_NS
            } else {
                PROBE_REFERENCE_NS
            };
        }
        let slow = 0.5f64.powf(SENSITIVITY);
        assert_eq!(cal.scale(0), slow);
        assert_eq!(cal.scale(19), 1.0);
        let c = cal.calibrated();
        assert_eq!(c.len(), 20);
        assert_eq!(c[0], 1000.0 * slow);
        assert_eq!(c[19], 1000.0);
        assert_eq!(cal.wall()[0], 1000.0);
    }
}
