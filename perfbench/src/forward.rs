//! The `forward` workload: raw forwarding on the 36-AS deployment.
//!
//! Set-up builds the deployment and one frame template per ordered AS
//! pair and payload size, plus a copy of each with one hop-field MAC bit
//! flipped. The measured loop pushes seeded bursts of [`BURST`] frames
//! through `SciEraNetwork::run_frame_load` (batch 32, batched pipeline),
//! alternating bursts of 8-byte and 1200-byte payloads so both phases
//! sample the same stretch of time. In every block of 32 frames exactly
//! one is a corrupted copy.
//!
//! The traced pass replays the same bursts through the data plane's
//! public calls (`BorderRouter::process_batch`, `IngressShards`,
//! `FramePool`, `BuiltTopology::link_index_of`) on routers keyed like the
//! network's, timing each call.

use std::collections::BTreeMap;
use std::time::Instant;

use sciera::core::network::FrameLoadReport;
use sciera::dataplane::dispatcher::{IngressShards, DEFAULT_SHARD_CAPACITY};
use sciera::dataplane::router::{BorderRouter, FrameDecision};
use sciera::netsim::FramePool;
use sciera::pan::socket::MAX_PAYLOAD;
use sciera::prelude::*;
use sciera::proto::packet::{DataPlanePath, ScionPacket};
use sciera::topology::links::BuiltTopology;

use crate::calib::Calibrator;
use crate::report::Outcome;
use crate::util::{median, quantile, ratio, Rng};
use crate::{run_for, timed_setups, Config};

/// Frames per `run_frame_load` call: one measured operation.
pub const BURST: usize = 1024;
/// Router batch size.
const BATCH: usize = 32;
/// One frame in every block of this many carries a corrupted MAC.
const FLIP_EVERY: usize = 32;
/// Distinct seeded bursts; the measured loop cycles through them.
const BURSTS: usize = 64;
/// Payload of the small-frame phase, bytes.
const SMALL_PAYLOAD: usize = 8;

type Templates = Vec<(IsdAsn, Vec<u8>)>;

struct Setup {
    net: SciEraNetwork,
    /// Valid templates for every pair, then the corrupted copies in the
    /// same order.
    small: Templates,
    large: Templates,
    pairs: usize,
}

/// Flips one seeded bit of one seeded hop field's MAC.
fn corrupt(frame: &[u8], draw: u64) -> Vec<u8> {
    let mut pkt = ScionPacket::decode(frame).expect("template decodes");
    let DataPlanePath::Scion(path) = &mut pkt.path else {
        panic!("inter-AS template carries a SCION path");
    };
    let hop = (draw % path.hops.len() as u64) as usize;
    let byte = ((draw >> 16) % 6) as usize;
    let bit = (draw >> 32) % 8;
    path.hops[hop].mac[byte] ^= 1 << bit;
    pkt.encode().expect("corrupted template encodes")
}

fn setup(seed: u64) -> Setup {
    let net = SciEraNetwork::build(NetworkConfig::default());
    let ases: Vec<IsdAsn> = net.secrets.keys().copied().collect();
    let small_payload = Rng::new(seed, 11).bytes(SMALL_PAYLOAD);
    let large_payload = Rng::new(seed, 12).bytes(MAX_PAYLOAD);
    let mut flips = Rng::new(seed, 13);
    let (mut small, mut large) = (Vec::new(), Vec::new());
    let (mut small_bad, mut large_bad) = (Vec::new(), Vec::new());
    for &src in &ases {
        for &dst in &ases {
            if src == dst {
                continue;
            }
            let (Some(s), Some(l)) = (
                net.frame_template(src, dst, &small_payload),
                net.frame_template(src, dst, &large_payload),
            ) else {
                continue;
            };
            let draw = flips.next_u64();
            small_bad.push((src, corrupt(&s.1, draw)));
            large_bad.push((src, corrupt(&l.1, draw)));
            small.push(s);
            large.push(l);
        }
    }
    let pairs = small.len();
    small.extend(small_bad);
    large.extend(large_bad);
    Setup {
        net,
        small,
        large,
        pairs,
    }
}

/// Seeded bursts of template indices: uniform pairs, one corrupted frame
/// at a seeded position in every block of [`FLIP_EVERY`].
fn bursts(seed: u64, pairs: usize) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed, 14);
    (0..BURSTS)
        .map(|_| {
            let mut burst = Vec::with_capacity(BURST);
            for _ in 0..BURST / FLIP_EVERY {
                let flip = rng.below(FLIP_EVERY);
                for j in 0..FLIP_EVERY {
                    let p = rng.below(pairs);
                    burst.push((if j == flip { p + pairs } else { p }) as u32);
                }
            }
            burst
        })
        .collect()
}

/// What one phase of bursts did.
#[derive(Default)]
struct Phase {
    /// Wall time of each `run_frame_load` call, ns.
    burst_ns: Vec<f64>,
    /// The same in calibrated time.
    cal_ns: Vec<f64>,
    injected: u64,
    delivered: u64,
    valid: u64,
    corrupted: u64,
    router_ops: u64,
    /// Sum over bursts of |delivered - valid|.
    mismatched: u64,
}

impl Phase {
    fn wall_s(&self) -> f64 {
        self.burst_ns.iter().sum::<f64>() / 1e9
    }

    fn cal_s(&self) -> f64 {
        self.cal_ns.iter().sum::<f64>() / 1e9
    }

    fn record(&mut self, burst: &[u32], pairs: usize, ns: f64, report: &FrameLoadReport) {
        let valid = valid_in(burst, pairs);
        self.burst_ns.push(ns);
        self.injected += report.injected;
        self.delivered += report.delivered;
        self.router_ops += report.router_ops;
        self.valid += valid;
        self.corrupted += burst.len() as u64 - valid;
        self.mismatched += report.delivered.abs_diff(valid);
    }
}

fn valid_in(burst: &[u32], pairs: usize) -> u64 {
    burst.iter().filter(|&&i| (i as usize) < pairs).count() as u64
}

/// The templates and the seeded burst of the `i`-th measured burst: small
/// and large frames alternate, so both phases sample the whole run.
fn nth<'a>(setup: &'a Setup, bursts: &'a [Vec<u32>], i: usize) -> (&'a Templates, &'a [u32]) {
    let templates = if i.is_multiple_of(2) {
        &setup.small
    } else {
        &setup.large
    };
    (templates, &bursts[(i / 2) % bursts.len()])
}

/// Runs bursts for `seconds`, probing after every small-large pair;
/// returns the small-frame and large-frame phases and the median probe
/// time in µs.
fn measure(setup: &Setup, bursts: &[Vec<u32>], seconds: f64) -> (Phase, Phase, f64) {
    let (mut small, mut large) = (Phase::default(), Phase::default());
    let mut cal = Calibrator::new(2);
    run_for(seconds, 16, |i| {
        let (templates, burst) = nth(setup, bursts, i);
        let start = Instant::now();
        let report = setup.net.run_frame_load(templates, burst, BATCH, true);
        let ns = start.elapsed().as_nanos() as f64;
        cal.record(ns);
        let phase = if i.is_multiple_of(2) {
            &mut small
        } else {
            &mut large
        };
        phase.record(burst, setup.pairs, ns, &report);
    });
    for (i, ns) in cal.calibrated().into_iter().enumerate() {
        let phase = if i.is_multiple_of(2) {
            &mut small
        } else {
            &mut large
        };
        phase.cal_ns.push(ns);
    }
    (small, large, cal.probe_p50_us())
}

/// Runs the workload; `traced` selects the traced pass.
pub fn run(cfg: &Config, traced: bool) -> Outcome {
    let (setup, setups) = timed_setups(cfg, || setup(cfg.seed));
    let bursts = bursts(cfg.seed, setup.pairs);
    let tele = setup.net.telemetry();
    let counters = Counters::read(&tele);

    let (small, large, probe_us) = measure(&setup, &bursts, cfg.seconds);

    let delta = Counters::read(&tele).minus(&counters);
    let corrupted = small.corrupted + large.corrupted;
    let mismatched = small.mismatched + large.mismatched;
    let mut out = Outcome {
        attempted: small.injected + large.injected,
        failed: mismatched + corrupted.saturating_sub(delta.bad_mac),
        ..Outcome::default()
    };
    out.check(
        "forward.delivered_equals_valid",
        mismatched == 0,
        format!(
            "delivered {} of {} valid frames",
            small.delivered + large.delivered,
            small.valid + large.valid
        ),
    );
    out.check(
        "forward.bad_mac_equals_corrupted",
        delta.bad_mac == corrupted,
        format!(
            "router.drop.bad_mac {} for {corrupted} corrupted frames",
            delta.bad_mac
        ),
    );

    if traced {
        traced_metrics(&setup, &bursts, &small, &large, &delta, &mut out);
        return out;
    }

    let small_fps = small.delivered as f64 / small.cal_s();
    let large_gbps = large.delivered as f64 * (MAX_PAYLOAD * 8) as f64 / large.cal_s() / 1e9;
    out.info("forward_small_mpps", small_fps / 1e6, "Mframes/s");
    out.info("forward_large_gbps", large_gbps, "Gbit/s");
    out.info(
        "forward.router_ops_per_s",
        small.router_ops as f64 / small.cal_s(),
        "1/s",
    );
    out.info("forward.pairs", setup.pairs as f64, "count");
    out.info(
        "forward.bursts",
        (small.burst_ns.len() + large.burst_ns.len()) as f64,
        "count",
    );
    out.info("forward.burst_p50_us", median(&small.cal_ns) / 1e3, "us");
    out.info("failed_ratio", ratio(out.failed, out.attempted), "ratio");
    out.info("calib.probe_p50_us", probe_us, "us");
    out.info("wall.setup_s", setups.wall_median(), "s");
    out.info(
        "wall.ops_per_s",
        small.delivered as f64 / small.wall_s(),
        "1/s",
    );
    out.info(
        "wall.latency_p90_us",
        quantile(&small.burst_ns, 0.9) / 1e3,
        "us",
    );
    out.info(
        "wall.goodput_gbps",
        large.delivered as f64 * (MAX_PAYLOAD * 8) as f64 / large.wall_s() / 1e9,
        "Gbit/s",
    );
    out.metric("setup_s", setups.median(), "s");
    out.metric("ops_per_s", small_fps, "1/s");
    out.metric("latency_p90_us", quantile(&small.cal_ns, 0.9) / 1e3, "us");
    out.metric("goodput_gbps", large_gbps, "Gbit/s");
    out
}

/// Network-wide counters the workload reads around its measured loop.
#[derive(Default)]
struct Counters {
    bad_mac: u64,
    maccache_hit: u64,
    maccache_miss: u64,
    fastpath_hit: u64,
    fastpath_fallback: u64,
    pool_hit: u64,
    pool_miss: u64,
}

impl Counters {
    fn read(tele: &Telemetry) -> Counters {
        let c = |name: &str| tele.counter(name).get();
        Counters {
            bad_mac: c("router.drop.bad_mac"),
            maccache_hit: c("router.maccache.hit"),
            maccache_miss: c("router.maccache.miss"),
            fastpath_hit: c("router.fastpath.hit"),
            fastpath_fallback: c("router.fastpath.fallback"),
            pool_hit: c("pool.frame.hit"),
            pool_miss: c("pool.frame.miss"),
        }
    }

    fn minus(&self, before: &Counters) -> Counters {
        Counters {
            bad_mac: self.bad_mac - before.bad_mac,
            maccache_hit: self.maccache_hit - before.maccache_hit,
            maccache_miss: self.maccache_miss - before.maccache_miss,
            fastpath_hit: self.fastpath_hit - before.fastpath_hit,
            fastpath_fallback: self.fastpath_fallback - before.fastpath_fallback,
            pool_hit: self.pool_hit - before.pool_hit,
            pool_miss: self.pool_miss - before.pool_miss,
        }
    }
}

/// Summed duration and count of one timed call site. The replay times
/// calls made once per frame, so it keeps sums, not the per-call samples
/// `CallTimer` keeps.
#[derive(Default)]
struct Acc {
    ns: f64,
    calls: u64,
}

fn timed<R>(acc: &mut Acc, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    acc.ns += start.elapsed().as_nanos() as f64;
    acc.calls += 1;
    out
}

#[derive(Default)]
struct ReplayTimes {
    router: Acc,
    enqueue: Acc,
    drain: Acc,
    link: Acc,
    pool: Acc,
    router_ops: u64,
    wall_ns: f64,
    mismatched: u64,
}

/// The data plane rebuilt from the network's public parts: one border
/// router per AS under the network's hop keys, and the same topology.
struct Replay {
    routers: BTreeMap<IsdAsn, BorderRouter>,
    topo: BuiltTopology,
    now: u64,
    tele: Telemetry,
}

impl Replay {
    fn new(net: &SciEraNetwork) -> Replay {
        let tele = Telemetry::quiet();
        let routers = net
            .secrets
            .iter()
            .map(|(ia, s)| {
                let mut r = BorderRouter::new(*ia, s.hop_key.clone());
                r.set_telemetry(tele.clone());
                (*ia, r)
            })
            .collect();
        Replay {
            routers,
            topo: build_control_graph(),
            now: net.now_unix(),
            tele,
        }
    }

    /// One burst through the same pipeline `run_frame_load` runs, every
    /// layer call timed. Returns the frames delivered.
    fn burst(&mut self, templates: &Templates, schedule: &[u32], t: &mut ReplayTimes) -> u64 {
        let start = Instant::now();
        let mut shards: IngressShards<(IsdAsn, u16)> = IngressShards::new(DEFAULT_SHARD_CAPACITY);
        shards.set_telemetry(&self.tele);
        let mut pool = FramePool::new(BATCH * 8);
        pool.set_telemetry(&self.tele);
        let mut wave: Vec<Vec<u8>> = Vec::with_capacity(BATCH);
        let target_in_flight = (BATCH * 4).min(DEFAULT_SHARD_CAPACITY / 2);
        let mut delivered = 0;
        let mut next = 0;
        loop {
            while next < schedule.len() && shards.queued() < target_in_flight {
                let (src, bytes) = &templates[schedule[next] as usize];
                next += 1;
                let mut buf = timed(&mut t.pool, || pool.alloc(bytes.len()));
                buf.extend_from_slice(bytes);
                timed(&mut t.enqueue, || shards.enqueue((*src, 0), buf));
            }
            let Some((ia, ingress)) = timed(&mut t.drain, || shards.drain_next(BATCH, &mut wave))
            else {
                break;
            };
            t.router_ops += wave.len() as u64;
            let router = self.routers.get_mut(&ia).expect("a router per AS");
            let now = self.now;
            let results = timed(&mut t.router, || {
                router.process_batch(&mut wave, ingress, now)
            });
            for (frame, res) in wave.drain(..).zip(results) {
                let link = match res {
                    Ok(FrameDecision::Forward { ifid }) => {
                        timed(&mut t.link, || self.topo.link_index_of(ia, ifid))
                    }
                    Ok(FrameDecision::Deliver) => {
                        delivered += 1;
                        None
                    }
                    Err(_) => None,
                };
                match link {
                    Some(li) => {
                        let l = &self.topo.links[li];
                        let key = if l.spec.a == ia {
                            (l.spec.b, l.ifid_b)
                        } else {
                            (l.spec.a, l.ifid_a)
                        };
                        timed(&mut t.enqueue, || shards.enqueue(key, frame));
                    }
                    None => timed(&mut t.pool, || pool.recycle(frame)),
                }
            }
        }
        t.wall_ns += start.elapsed().as_nanos() as f64;
        delivered
    }
}

fn traced_metrics(
    setup: &Setup,
    bursts: &[Vec<u32>],
    small: &Phase,
    large: &Phase,
    delta: &Counters,
    out: &mut Outcome,
) {
    let mut replay = Replay::new(&setup.net);
    let mut t = ReplayTimes::default();
    for i in 0..small.burst_ns.len() + large.burst_ns.len() {
        let (templates, burst) = nth(setup, bursts, i);
        let delivered = replay.burst(templates, burst, &mut t);
        t.mismatched += delivered.abs_diff(valid_in(burst, setup.pairs));
    }
    out.check(
        "forward.replay_delivers_valid",
        t.mismatched == 0,
        format!(
            "replay mismatched {} frames over {} router operations",
            t.mismatched, t.router_ops
        ),
    );
    let untraced_ns = (small.wall_s() + large.wall_s()) * 1e9;
    let timed_ns = t.router.ns + t.enqueue.ns + t.drain.ns + t.link.ns + t.pool.ns;
    let ops = t.router_ops as f64;
    out.info("forward.replay_ms", t.wall_ns / 1e6, "ms");
    out.info("forward.frame_load_ms", untraced_ns / 1e6, "ms");
    out.info("forward.router_ops", ops, "count");
    out.info(
        "dataplane.maccache_lookups",
        (delta.maccache_hit + delta.maccache_miss) as f64,
        "count",
    );
    out.info(
        "dataplane.fastpath_frames",
        (delta.fastpath_hit + delta.fastpath_fallback) as f64,
        "count",
    );
    out.info(
        "netsim.pool_allocs",
        (delta.pool_hit + delta.pool_miss) as f64,
        "count",
    );
    out.metric("dataplane.router_ns_per_frame", t.router.ns / ops, "ns");
    out.metric(
        "dataplane.dispatch_ns_per_frame",
        (t.enqueue.ns + t.drain.ns) / ops,
        "ns",
    );
    out.metric("netsim.pool_ns_per_frame", t.pool.ns / ops, "ns");
    out.metric(
        "topology.link_lookup_ns",
        t.link.ns / t.link.calls.max(1) as f64,
        "ns",
    );
    out.metric("topology.link_lookups", t.link.calls as f64, "count");
    out.metric(
        "dataplane.maccache_hit_ratio",
        ratio(delta.maccache_hit, delta.maccache_hit + delta.maccache_miss),
        "ratio",
    );
    out.metric(
        "dataplane.fastpath_fallback_ratio",
        ratio(
            delta.fastpath_fallback,
            delta.fastpath_hit + delta.fastpath_fallback,
        ),
        "ratio",
    );
    out.metric(
        "netsim.pool_hit_ratio",
        ratio(delta.pool_hit, delta.pool_hit + delta.pool_miss),
        "ratio",
    );
    out.metric(
        "forward.unattributed_share",
        (t.wall_ns - timed_ns) / t.wall_ns,
        "ratio",
    );
    out.metric("forward.trace_overhead", t.wall_ns / untraced_ns, "ratio");
}
