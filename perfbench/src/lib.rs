//! End-to-end and per-layer benchmark of the SCIERA stack.
//!
//! Three closed-loop workloads drive the stack from outside, through the
//! public API only:
//!
//! - [`forward`]: frame templates for every ordered AS pair of the 36-AS
//!   deployment, pushed through the border routers in bursts.
//! - [`session`]: host sessions (attach, bind, connect, send, receive) on
//!   a synthetic 2000-AS topology with Zipf-skewed pair reuse.
//! - [`failover`]: long-lived flows on the deployment while a seeded
//!   schedule kills and restores links on their active paths.
//!
//! Every workload reports the same end-to-end metrics (`setup_s`,
//! `ops_per_s`, `latency_p90_us`, `goodput_gbps`), in calibrated time
//! ([`calib`]); the traced run ([`traced`]) times the benchmark's own calls
//! into each layer and reports per-layer figures for all three.

pub mod calib;
pub mod failover;
pub mod forward;
pub mod report;
pub mod session;
pub mod transport;
pub mod util;

use std::time::Instant;

use calib::Calibrator;
use report::Outcome;

/// The workloads, in the order the traced pass runs them.
pub const WORKLOADS: [&str; 3] = ["forward", "session", "failover"];

/// Sizing of one benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds of measured operations per workload pass.
    pub seconds: f64,
    /// Fewest set-up repetitions; `setup_s` is the median of all of them.
    pub setups: usize,
    /// Set-ups repeat until they have taken this many seconds in all (up
    /// to [`MAX_SETUPS`]), so a quick set-up is timed often enough for a
    /// steady median.
    pub setup_seconds: f64,
    /// AS count of the session workload's synthetic topology.
    pub session_ases: usize,
    /// Long-lived flows of the failover workload.
    pub flows: usize,
}

/// Most set-up repetitions in one pass.
pub const MAX_SETUPS: usize = 25;

impl Config {
    /// The configuration the benchmark runs.
    pub fn full(seed: u64, seconds: f64) -> Config {
        Config {
            seed,
            seconds,
            setups: 5,
            setup_seconds: 2.0,
            session_ases: 2000,
            flows: 32,
        }
    }

    /// A configuration small enough for a unit test.
    pub fn tiny(seed: u64) -> Config {
        Config {
            seed,
            seconds: 0.3,
            setups: 1,
            setup_seconds: 0.0,
            session_ases: 150,
            flows: 8,
        }
    }

    /// The traced run's share for one workload: a third of the seconds,
    /// one set-up (the traced run reports no `setup_s`).
    fn traced_share(&self) -> Config {
        Config {
            seconds: self.seconds / WORKLOADS.len() as f64,
            setups: 1,
            setup_seconds: 0.0,
            ..self.clone()
        }
    }
}

/// Times repeated set-ups against a [`Config`]'s repetition rule, each in
/// calibrated time from probes taken just before and after it.
pub struct SetupClock {
    times: Vec<f64>,
    wall: Vec<f64>,
    min: usize,
    budget: f64,
    cal: Calibrator,
    before: f64,
}

/// Probes on each side of a set-up.
const SETUP_PROBES: usize = 3;

impl SetupClock {
    pub fn new(cfg: &Config) -> SetupClock {
        SetupClock {
            times: Vec::new(),
            wall: Vec::new(),
            min: cfg.setups.max(1),
            budget: cfg.setup_seconds,
            cal: Calibrator::new(1),
            before: 0.0,
        }
    }

    /// Probes, then starts timing one set-up.
    pub fn begin(&mut self) -> Instant {
        self.before = self.cal.probe_median(SETUP_PROBES);
        Instant::now()
    }

    /// Ends the set-up timed since `start`; true once enough have run.
    pub fn end(&mut self, start: Instant) -> bool {
        let seconds = start.elapsed().as_secs_f64();
        let after = self.cal.probe_median(SETUP_PROBES);
        let probe = (self.before + after) / 2.0;
        self.times.push(seconds * calib::factor(probe));
        self.wall.push(seconds);
        let n = self.times.len();
        n >= MAX_SETUPS || (n >= self.min && self.wall.iter().sum::<f64>() >= self.budget)
    }

    /// Median set-up time, calibrated seconds.
    pub fn median(&self) -> f64 {
        util::median(&self.times)
    }

    /// Median set-up time, wall-clock seconds.
    pub fn wall_median(&self) -> f64 {
        util::median(&self.wall)
    }
}

/// Runs one untraced workload pass.
pub fn run(workload: &str, cfg: &Config) -> Option<Outcome> {
    match workload {
        "forward" => Some(forward::run(cfg, false)),
        "session" => Some(session::run(cfg, false)),
        "failover" => Some(failover::run(cfg, false)),
        _ => None,
    }
}

/// The traced run: the traced pass of every workload, each given a third
/// of the run's seconds, so every per-layer metric is measured on the
/// workload that exercises its layer.
pub fn traced(cfg: &Config) -> Outcome {
    let share = cfg.traced_share();
    let mut out = Outcome::default();
    out.absorb(forward::run(&share, true));
    out.absorb(session::run(&share, true));
    out.absorb(failover::run(&share, true));
    out
}

/// Builds with `build` as often as `cfg` asks, dropping each instance
/// before the next; returns the last instance and the clock that timed
/// the builds.
pub fn timed_setups<T>(cfg: &Config, mut build: impl FnMut() -> T) -> (T, SetupClock) {
    let mut clock = SetupClock::new(cfg);
    loop {
        let start = clock.begin();
        let built = build();
        if clock.end(start) {
            return (built, clock);
        }
    }
}

/// Calls `op` until `seconds` have elapsed (and at least `min_ops`
/// times); returns the number of calls.
pub fn run_for(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < min_ops || start.elapsed().as_secs_f64() < seconds {
        op(n);
        n += 1;
    }
    n
}
