//! The `session` workload: path lookup to first delivered datagram on a
//! synthetic 2000-AS topology.
//!
//! One session attaches a host in each of two leaf ASes, binds a
//! `PanSocket` on each, connects the client (the path lookup), sends one
//! datagram and receives it at the peer. About a third of sessions open a
//! leaf pair never used before (a first touch of the path cache); the
//! rest reuse an earlier pair, drawn with Zipf skew towards the oldest.
//!
//! The traced pass traces a seeded half of the sessions. Before a traced
//! session connects, it looks the pair up in the path database itself and
//! classifies that call as cold or warm by the cache counters.

use std::collections::HashSet;
use std::time::Instant;

use sciera::control::beacon::{BeaconConfig, BeaconEngine};
use sciera::prelude::*;
use sciera::topology::synth::{synthesize, SynthConfig};

use crate::calib::Calibrator;
use crate::report::Outcome;
use crate::transport::BenchTransport;
use crate::util::{median, quantile, ratio, CallTimer, Rng};
use crate::{run_for, timed_setups, Config};

/// Beacon retention per origin, as the scale sweep uses at N >= 1000.
const CANDIDATES: usize = 3;
/// Datagram payload, bytes.
const PAYLOAD: usize = 64;
/// The maximum path count `SciEraNetwork` asks its database for, so the
/// traced pre-lookup warms the entry the session's lookup reads.
const MAX_PATHS: usize = 200;
/// Share of sessions that open a new pair.
const NEW_PAIR_SHARE: f64 = 1.0 / 3.0;
/// Zipf exponent of pair reuse. Below 1, so reuse spreads over hundreds
/// of pairs rather than a seed-dependent handful, and the session
/// percentiles do not hinge on the cost of a few pairs.
const ZIPF_EXPONENT: f64 = 0.5;

fn network_config() -> NetworkConfig {
    NetworkConfig {
        candidates_per_origin: CANDIDATES,
        ..NetworkConfig::default()
    }
}

fn leaves_of(topo: &sciera::topology::links::BuiltTopology) -> Vec<IsdAsn> {
    let mut leaves: Vec<IsdAsn> = topo
        .graph
        .ases()
        .filter(|a| !a.core)
        .map(|a| a.ia)
        .collect();
    leaves.sort_unstable();
    leaves
}

fn setup(n: usize) -> (SciEraNetwork, Vec<IsdAsn>) {
    let topo = synthesize(&SynthConfig::sized(n));
    let leaves = leaves_of(&topo);
    (
        SciEraNetwork::build_from_topology(topo, network_config()),
        leaves,
    )
}

/// The set-up again, one stage at a time: topology synthesis, beaconing
/// alone over the same graph, and the whole network build (which beacons
/// again internally). Returns the network, the leaves and the three
/// stage times in milliseconds.
fn staged_setup(n: usize) -> (SciEraNetwork, Vec<IsdAsn>, [f64; 3]) {
    let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let topo = synthesize(&SynthConfig::sized(n));
    let synth_ms = ms(start);
    let start = Instant::now();
    let mut engine = BeaconEngine::new(
        &topo.graph,
        network_config().now_unix as u32,
        BeaconConfig {
            candidates_per_origin: CANDIDATES,
            ..BeaconConfig::default()
        },
    );
    engine.run().expect("synthetic topology beacons cleanly");
    let beacon_ms = ms(start);
    let leaves = leaves_of(&topo);
    let start = Instant::now();
    let net = SciEraNetwork::build_from_topology(topo, network_config());
    (net, leaves, [synth_ms, beacon_ms, ms(start)])
}

/// Seeded leaf pairs: a new pair with probability [`NEW_PAIR_SHARE`],
/// otherwise a Zipf-ranked earlier one.
struct PairStream {
    rng: Rng,
    leaves: Vec<IsdAsn>,
    used: Vec<(IsdAsn, IsdAsn)>,
    seen: HashSet<(IsdAsn, IsdAsn)>,
}

impl PairStream {
    fn new(seed: u64, leaves: Vec<IsdAsn>) -> PairStream {
        assert!(leaves.len() >= 2, "sessions need two leaf ASes");
        PairStream {
            rng: Rng::new(seed, 21),
            leaves,
            used: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// The next pair and whether it is new.
    fn next(&mut self) -> ((IsdAsn, IsdAsn), bool) {
        let fresh = self.used.is_empty() || self.rng.unit() < NEW_PAIR_SHARE;
        if !fresh || self.seen.len() == self.leaves.len() * (self.leaves.len() - 1) {
            return (
                self.used[self.rng.zipf(self.used.len(), ZIPF_EXPONENT)],
                false,
            );
        }
        loop {
            let a = self.leaves[self.rng.below(self.leaves.len())];
            let b = self.leaves[self.rng.below(self.leaves.len())];
            if a != b && self.seen.insert((a, b)) {
                self.used.push((a, b));
                return ((a, b), true);
            }
        }
    }
}

/// How one session ended.
enum Ended {
    Delivered,
    /// No datagram arrived (or the client could not connect).
    Missing,
    /// A datagram arrived with other contents, source or port.
    Altered,
}

/// One session: attach, bind, connect, send, receive.
fn session(
    net: &SciEraNetwork,
    timer: &CallTimer,
    (src, dst): (IsdAsn, IsdAsn),
    index: usize,
    payload: &[u8],
) -> Ended {
    let (a, b) = timer.time("core.attach", || {
        (
            net.attach_host(ScionAddr::new(src, HostAddr::v4(10, 1, 0, 1))),
            net.attach_host(ScionAddr::new(dst, HostAddr::v4(10, 2, 0, 1))),
        )
    });
    let sport = 40_000 + (index % 20_000) as u16;
    let dport = 8_000 + (index % 1_000) as u16;
    let mut client = timer.time("pan.bind", || {
        PanSocket::bind(a.addr, sport, BenchTransport::new(&a, None, timer))
    });
    let mut server = timer.time("pan.bind", || {
        PanSocket::bind(b.addr, dport, BenchTransport::new(&b, None, timer))
    });
    if timer
        .time("pan.connect", || client.connect(b.addr, dport))
        .is_err()
        || timer.time("pan.send", || client.send(payload)).is_err()
    {
        return Ended::Missing;
    }
    match timer.time("pan.recv", || server.poll_recv()) {
        Some((got, from, port)) if got == payload && from == a.addr && port == sport => {
            Ended::Delivered
        }
        Some(_) => Ended::Altered,
        None => Ended::Missing,
    }
}

/// Runs the workload; `traced` selects the traced pass.
pub fn run(cfg: &Config, traced: bool) -> Outcome {
    let ((net, leaves), setups, stages) = if traced {
        let (net, leaves, stages) = staged_setup(cfg.session_ases);
        ((net, leaves), None, Some(stages))
    } else {
        let (s, clock) = timed_setups(cfg, || setup(cfg.session_ases));
        (s, Some(clock), None)
    };
    let mut pairs = PairStream::new(cfg.seed, leaves);
    let mut coin = Rng::new(cfg.seed, 22);
    let timer = CallTimer::default();
    let pathdb = net.pathdb();
    let tele = net.telemetry();
    let (hits, misses) = (
        tele.counter("pathdb.cache.hit"),
        tele.counter("pathdb.cache.miss"),
    );
    let misses_before = misses.get();

    let mut out = Outcome::default();
    let (mut untraced_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let (mut cold_ns, mut warm_ns) = (Vec::new(), Vec::new());
    let (mut first_touches, mut altered, mut delivered) = (0u64, 0u64, 0u64);
    let mut cal = Calibrator::new(1);
    let start = Instant::now();
    let sessions = run_for(cfg.seconds, 10, |i| {
        let (pair, fresh) = pairs.next();
        first_touches += fresh as u64;
        let payload = Rng::new(cfg.seed, 23 + ((i as u64) << 8)).bytes(PAYLOAD);
        let trace = traced && coin.below(2) == 0;
        timer.set_enabled(trace);
        let begin = Instant::now();
        if trace {
            let m0 = misses.get();
            let h0 = hits.get();
            let t = Instant::now();
            timer.time("control.lookup", || pathdb.paths(pair.0, pair.1, MAX_PATHS));
            let ns = t.elapsed().as_nanos() as f64;
            match (misses.get() > m0, hits.get() > h0) {
                (true, _) => cold_ns.push(ns),
                (false, true) => warm_ns.push(ns),
                _ => {}
            }
        }
        let ended = session(&net, &timer, pair, i, &payload);
        let ns = begin.elapsed().as_nanos() as f64;
        timer.set_enabled(false);
        if trace {
            traced_ns.push(ns);
        } else {
            untraced_ns.push(ns);
        }
        cal.record(ns);
        match ended {
            Ended::Delivered => delivered += 1,
            Ended::Altered => {
                altered += 1;
                out.failed += 1;
            }
            // Lost only if the network had a path to offer.
            Ended::Missing => out.failed += u64::from(!net.paths(pair.0, pair.1).is_empty()),
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    out.attempted = sessions as u64;
    out.check(
        "session.datagram_intact",
        altered == 0,
        format!("{altered} of {sessions} sessions received another payload, source or port"),
    );

    if let Some([synth_ms, beacon_ms, build_ms]) = stages {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let traced_total: f64 = traced_ns.iter().sum();
        let pan_self_ns: f64 = ["pan.bind", "pan.connect", "pan.send", "pan.recv"]
            .iter()
            .map(|n| timer.stats(n).self_ns.iter().sum::<f64>())
            .sum();
        out.info("session.traced_sessions", traced_ns.len() as f64, "count");
        out.info("control.lookups_cold", cold_ns.len() as f64, "count");
        out.info("control.lookups_warm", warm_ns.len() as f64, "count");
        out.metric("topology.synth_ms", synth_ms, "ms");
        out.metric("control.beacon_ms", beacon_ms, "ms");
        out.metric("core.build_ms", build_ms, "ms");
        out.metric("control.lookup_cold_p50_us", median(&cold_ns) / 1e3, "us");
        out.metric(
            "control.lookup_cold_p90_us",
            quantile(&cold_ns, 0.9) / 1e3,
            "us",
        );
        out.metric("control.lookup_warm_p50_us", median(&warm_ns) / 1e3, "us");
        out.metric(
            "control.lookup_warm_p90_us",
            quantile(&warm_ns, 0.9) / 1e3,
            "us",
        );
        out.metric(
            "control.cache_hit_ratio",
            ratio(warm_ns.len() as u64, (warm_ns.len() + cold_ns.len()) as u64),
            "ratio",
        );
        out.info("control.first_touches", first_touches as f64, "count");
        out.metric("core.lookup_p50_us", timer.p50_us("core.lookup"), "us");
        out.metric("core.lookup_p90_us", timer.p90_us("core.lookup"), "us");
        out.metric("core.walk_us", timer.p50_us("core.walk"), "us");
        out.metric("core.attach_us", timer.p50_us("core.attach"), "us");
        out.metric("pan.connect_us", timer.p50_us("pan.connect"), "us");
        out.metric("pan.send_us", timer.p50_us("pan.send"), "us");
        out.metric("pan.recv_us", timer.p50_us("pan.recv"), "us");
        out.metric(
            "pan.self_us_per_session",
            pan_self_ns / traced_ns.len().max(1) as f64 / 1e3,
            "us",
        );
        out.metric(
            "session.unattributed_share",
            (traced_total - timer.top_level_ns()) / traced_total,
            "ratio",
        );
        out.metric(
            "session.trace_overhead",
            mean(&traced_ns) / mean(&untraced_ns),
            "ratio",
        );
        return out;
    }

    let setups = setups.expect("the untraced pass times its set-ups");
    let cal_ns = cal.calibrated();
    let cal_s = cal_ns.iter().sum::<f64>() / 1e9;
    let p50 = median(&cal_ns) / 1e3;
    let p90 = quantile(&cal_ns, 0.9) / 1e3;
    let per_s = sessions as f64 / cal_s;
    out.info("session_p50_ms", p50 / 1e3, "ms");
    out.info("session_p90_ms", p90 / 1e3, "ms");
    out.info("sessions_per_s", per_s, "1/s");
    out.info("session.sessions", sessions as f64, "count");
    out.info("session.first_touches", first_touches as f64, "count");
    out.info(
        "session.pathdb_misses",
        (misses.get() - misses_before) as f64,
        "count",
    );
    out.info("failed_ratio", ratio(out.failed, out.attempted), "ratio");
    out.info("calib.probe_p50_us", cal.probe_p50_us(), "us");
    out.info("wall.setup_s", setups.wall_median(), "s");
    out.info("wall.ops_per_s", sessions as f64 / elapsed, "1/s");
    out.info("wall.latency_p90_us", quantile(cal.wall(), 0.9) / 1e3, "us");
    out.metric("setup_s", setups.median(), "s");
    out.metric("ops_per_s", per_s, "1/s");
    out.metric("latency_p90_us", p90, "us");
    out.metric(
        "goodput_gbps",
        (delivered * PAYLOAD as u64 * 8) as f64 / cal_s / 1e9,
        "Gbit/s",
    );
    out
}
