//! Seeded input generation, sample statistics and the call timer the
//! traced passes use.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: every input of every workload derives from one of these,
/// seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream; `stream` separates the streams of
    /// one seed so adding a draw to one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` at least 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A Zipf-skewed rank in `0..n` with exponent `s` in `(0, 1)` (rank 0
    /// most popular), drawn by inverting the continuous approximation of
    /// the CDF, `P(rank < x) ~ ((x + 1)^(1 - s) - 1) / ((n + 1)^(1 - s) - 1)`.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        let e = 1.0 - s;
        let top = (n as f64 + 1.0).powf(e) - 1.0;
        let r = ((self.unit() * top + 1.0).powf(1.0 / e) - 1.0) as usize;
        r.min(n.saturating_sub(1))
    }

    /// `len` seeded payload bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`);
/// `0.0` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Times the benchmark's own calls into the stack's public functions.
///
/// Each call is recorded under a dotted `layer.call` name. Calls nest (a
/// `pan.connect` contains the `core.lookup` its transport makes), so every
/// record also charges its duration to the enclosing open call; a call's
/// self time is its duration minus that charged child time. Recording is
/// off until [`CallTimer::set_enabled`], so untraced operations pay one
/// branch per call.
#[derive(Default)]
pub struct CallTimer {
    enabled: Cell<bool>,
    /// Child time charged to each open call, innermost last.
    open: RefCell<Vec<f64>>,
    calls: RefCell<BTreeMap<&'static str, CallStats>>,
    /// Summed duration of the outermost calls: the time some layer
    /// claims. Wall time minus this is unattributed.
    top_level_ns: Cell<f64>,
}

/// Every duration recorded under one name, in nanoseconds.
#[derive(Default, Clone)]
pub struct CallStats {
    pub durations_ns: Vec<f64>,
    pub self_ns: Vec<f64>,
}

impl CallTimer {
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Runs `f`, recording its duration under `name` when enabled.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        self.open.borrow_mut().push(0.0);
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        let child = self.open.borrow_mut().pop().unwrap_or(0.0);
        let mut open = self.open.borrow_mut();
        match open.last_mut() {
            Some(parent) => *parent += ns,
            None => self.top_level_ns.set(self.top_level_ns.get() + ns),
        }
        let mut calls = self.calls.borrow_mut();
        let stats = calls.entry(name).or_default();
        stats.durations_ns.push(ns);
        stats.self_ns.push(ns - child);
        out
    }

    pub fn stats(&self, name: &str) -> CallStats {
        self.calls.borrow().get(name).cloned().unwrap_or_default()
    }

    pub fn top_level_ns(&self) -> f64 {
        self.top_level_ns.get()
    }

    /// Median duration of `name`, in microseconds.
    pub fn p50_us(&self, name: &str) -> f64 {
        median(&self.stats(name).durations_ns) / 1e3
    }

    /// 90th-percentile duration of `name`, in microseconds.
    pub fn p90_us(&self, name: &str) -> f64 {
        quantile(&self.stats(name).durations_ns, 0.9) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn equal_seeds_repeat() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let xc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut r = Rng::new(1, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| r.zipf(100, 0.5)).collect();
        assert!(draws.iter().all(|&d| d < 100));
        // With exponent 0.5 the top tenth holds about a quarter of the mass.
        let low = draws.iter().filter(|&&d| d < 10).count();
        assert!((2_000..3_000).contains(&low), "top tenth drew {low}");
    }

    #[test]
    fn nested_calls_split_self_time() {
        let t = CallTimer::default();
        t.set_enabled(true);
        t.time("outer", || t.time("inner", || std::hint::black_box(1)));
        let outer = t.stats("outer");
        let inner = t.stats("inner");
        assert_eq!(outer.durations_ns.len(), 1);
        assert!(outer.durations_ns[0] >= inner.durations_ns[0]);
        assert!((outer.self_ns[0] - (outer.durations_ns[0] - inner.durations_ns[0])).abs() < 1e-6);
        assert_eq!(t.top_level_ns(), outer.durations_ns[0]);
        t.set_enabled(false);
        t.time("outer", || ());
        assert_eq!(t.stats("outer").durations_ns.len(), 1);
    }
}
