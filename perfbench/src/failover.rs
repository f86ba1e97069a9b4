//! The `failover` workload: link kill to traffic restored on the 36-AS
//! deployment.
//!
//! Long-lived flows run between AS pairs that have at least two paths.
//! Each client runs in daemon-dependent mode: its lookups go to a per-AS
//! `Daemon` whose provider is `SciEraNetwork::paths`, and every SCMP it
//! receives is handed to that daemon as well as to its socket.
//!
//! Each tick every flow sends one datagram and the peer receives it.
//! Every [`KILL_EVERY`] ticks a seeded flow loses a seeded link of its
//! active path (one that some other path of the flow avoids); the flow is
//! serviced at once, up to [`ATTEMPTS`] datagrams, until it delivers
//! again. The link comes back [`RESTORE_AFTER`] ticks later. Simulated
//! time advances a second every [`TICKS_PER_SECOND`] ticks, and every
//! [`PROBE_EVERY`] ticks the prober runs a round.
//!
//! A run is a fixed number of ticks, [`TICKS_PER_RUN_SECOND`] for each
//! second asked for, so the datagrams sent and lost are a function of the
//! seed and the length alone: two runs of one seed count the same failures.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use sciera::daemon::daemon::DaemonConfig;
use sciera::pan::PanError;
use sciera::prelude::*;
use sciera::proto::encap::UnderlayAddr;

use crate::calib::Calibrator;
use crate::report::Outcome;
use crate::transport::{BenchTransport, NetDaemon, NetProvider};
use crate::util::{median, quantile, ratio, CallTimer, Rng};
use crate::{Config, SetupClock};

/// Datagram payload, bytes.
const PAYLOAD: usize = 64;
/// Ticks per simulated second: each flow sends four datagrams a second.
const TICKS_PER_SECOND: usize = 4;
/// Ticks between link kills.
const KILL_EVERY: usize = 64;
/// Ticks a killed link stays down.
const RESTORE_AFTER: usize = 32;
/// Ticks between probe rounds.
const PROBE_EVERY: usize = 32;
/// Datagrams a killed flow may send before its kill chain counts as lost.
const ATTEMPTS: usize = 4;
/// Ticks per second of `--seconds`: about one wall-clock second of ticks
/// on the 2-core host the benchmark was sized on.
const TICKS_PER_RUN_SECOND: f64 = 1500.0;
/// A run stops early once it has taken this many times `--seconds`.
const OVERRUN: f64 = 4.0;
/// Ticks between calibration probes.
const CAL_EVERY: usize = 8;

/// A flow's endpoints and the links of every path it had at set-up.
struct FlowSpec {
    src: IsdAsn,
    dst: IsdAsn,
    link_sets: Vec<Vec<usize>>,
}

/// `n` pairs with at least two live paths, the middle one of each of `n`
/// strata of the eligible pairs ordered by path count and total path
/// length, in a seeded order (which sets each flow's ports and how often
/// the kill schedule picks it).
///
/// The pairs are the same for every seed: how many datagrams the daemon's
/// stale empty entries cost depends mostly on which pairs run, and with one
/// seeded pair per stratum delivered datagrams/s spread by 0.12 of its
/// median over five seeds (0.02 with these pairs).
fn choose_flows(net: &SciEraNetwork, seed: u64, n: usize) -> Vec<FlowSpec> {
    let ases: Vec<IsdAsn> = net.secrets.keys().copied().collect();
    let mut eligible = Vec::new();
    for &src in &ases {
        for &dst in &ases {
            if src == dst {
                continue;
            }
            let paths = net.paths(src, dst);
            if paths.len() >= 2 {
                let link_sets = paths.iter().map(|p| net.path_links(p)).collect();
                eligible.push(FlowSpec {
                    src,
                    dst,
                    link_sets,
                });
            }
        }
    }
    eligible.sort_by_key(|f| {
        (
            f.link_sets.len(),
            f.link_sets.iter().map(Vec::len).sum::<usize>(),
        )
    });
    let n = n.min(eligible.len());
    let picks: Vec<usize> = (0..n)
        .map(|i| (i * eligible.len() / n + (i + 1) * eligible.len() / n) / 2)
        .collect();
    let mut chosen: Vec<FlowSpec> = eligible
        .into_iter()
        .enumerate()
        .filter(|(i, _)| picks.contains(i))
        .map(|(_, f)| f)
        .collect();
    Rng::new(seed, 31).shuffle(&mut chosen);
    chosen
}

struct Flow<'a> {
    id: u64,
    client: PanSocket<BenchTransport<'a>>,
    server: PanSocket<BenchTransport<'a>>,
    src: ScionAddr,
    dst: ScionAddr,
    sport: u16,
    dport: u16,
    link_sets: Vec<Vec<usize>>,
    /// `ExternalInterfaceDown` notifications the client received.
    scmps: Rc<Cell<u64>>,
    seq: u64,
}

/// How one datagram ended.
#[derive(PartialEq)]
enum Step {
    Delivered,
    /// Lost, and the SCMP it triggered told the client why.
    Revealed,
    Lost,
    Altered,
}

/// Counts over the measured loop.
#[derive(Default)]
struct Tally {
    sent: u64,
    delivered: u64,
    revealed: u64,
    /// Datagrams lost while the flow had a live path.
    lost: u64,
    altered: u64,
    reconnects: u64,
    /// Connects that failed because the daemon answered with no path
    /// while the flow had a live one.
    empty_served: u64,
    kills: u64,
    chains_lost: u64,
    /// Restored flows whose new path still crossed the killed link.
    bad_restores: u64,
}

impl Flow<'_> {
    /// Whether some path the flow had at set-up avoids `down`.
    fn live(&self, down: Option<usize>) -> bool {
        down.is_none_or(|l| self.link_sets.iter().any(|s| !s.contains(&l)))
    }

    /// Sends one datagram and receives it at the peer; a client whose
    /// paths all died reconnects first. Consumes any SCMP the send
    /// triggered.
    fn step(&mut self, seed: u64, timer: &CallTimer, down: Option<usize>, t: &mut Tally) -> Step {
        let payload = Rng::new(seed, (1 << 60) | (self.id << 40) | self.seq).bytes(PAYLOAD);
        self.seq += 1;
        t.sent += 1;
        let scmps = self.scmps.get();
        let mut sent = timer.time("pan.send", || self.client.send(&payload));
        if matches!(sent, Err(PanError::NoUsablePath(_))) {
            t.reconnects += 1;
            sent = timer.time("pan.connect", || self.client.connect(self.dst, self.dport));
            match sent {
                Ok(()) => sent = timer.time("pan.send", || self.client.send(&payload)),
                Err(_) => t.empty_served += u64::from(self.live(down)),
            }
        }
        let got = match sent {
            Ok(()) => timer.time("pan.recv", || self.server.poll_recv()),
            Err(_) => None,
        };
        timer.time("pan.recv", || self.client.poll_recv());
        let step = match got {
            Some((p, from, port)) if p == payload && from == self.src && port == self.sport => {
                Step::Delivered
            }
            Some(_) => Step::Altered,
            None if self.scmps.get() > scmps => Step::Revealed,
            None => Step::Lost,
        };
        match step {
            Step::Delivered => t.delivered += 1,
            Step::Revealed => t.revealed += 1,
            Step::Lost => t.lost += u64::from(self.live(down)),
            Step::Altered => t.altered += 1,
        }
        step
    }
}

fn daemons_for<'a>(
    net: &'a SciEraNetwork,
    timer: &'a CallTimer,
    specs: &[FlowSpec],
) -> BTreeMap<IsdAsn, NetDaemon<'a>> {
    let mut daemons = BTreeMap::new();
    for spec in specs {
        daemons.entry(spec.src).or_insert_with(|| {
            let mut d = NetDaemon::new(
                spec.src,
                UnderlayAddr::new([10, 0, 0, 2], 30252),
                NetProvider { net, timer },
                DaemonConfig::default(),
            );
            d.set_telemetry(net.telemetry());
            d
        });
    }
    daemons
}

fn attach<'a>(
    net: &SciEraNetwork,
    daemons: &'a BTreeMap<IsdAsn, NetDaemon<'a>>,
    timer: &'a CallTimer,
    specs: Vec<FlowSpec>,
) -> Vec<Flow<'a>> {
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let host = |ia: IsdAsn, net_octet: u8| {
                net.attach_host(ScionAddr::new(
                    ia,
                    HostAddr::v4(10, net_octet, (i / 250) as u8, (i % 250) as u8 + 1),
                ))
            };
            let (c, s) = (host(spec.src, 3), host(spec.dst, 4));
            let (sport, dport) = (40_000 + i as u16, 9_000 + i as u16);
            let transport = BenchTransport::new(&c, Some(&daemons[&spec.src]), timer);
            let scmps = Rc::clone(&transport.scmps);
            let mut client = PanSocket::bind(c.addr, sport, transport);
            client
                .connect(s.addr, dport)
                .expect("flow pairs have live paths at set-up");
            net.register_probe_pair(spec.src, spec.dst);
            Flow {
                id: i as u64,
                client,
                server: PanSocket::bind(s.addr, dport, BenchTransport::new(&s, None, timer)),
                src: c.addr,
                dst: s.addr,
                sport,
                dport,
                link_sets: spec.link_sets,
                scmps,
                seq: 0,
            }
        })
        .collect()
}

/// Runs the workload; `traced` selects the traced pass.
pub fn run(cfg: &Config, traced: bool) -> Outcome {
    let timer = CallTimer::default();
    let mut clock = SetupClock::new(cfg);
    loop {
        let start = clock.begin();
        let net = SciEraNetwork::build(NetworkConfig::default());
        let specs = choose_flows(&net, cfg.seed, cfg.flows);
        let daemons = daemons_for(&net, &timer, &specs);
        let mut flows = attach(&net, &daemons, &timer, specs);
        if clock.end(start) {
            return measure(cfg, traced, &net, &daemons, &mut flows, &timer, &clock);
        }
    }
}

fn measure(
    cfg: &Config,
    traced: bool,
    net: &SciEraNetwork,
    daemons: &BTreeMap<IsdAsn, NetDaemon<'_>>,
    flows: &mut [Flow<'_>],
    timer: &CallTimer,
    setups: &SetupClock,
) -> Outcome {
    let mut kills = Rng::new(cfg.seed, 32);
    let mut coin = Rng::new(cfg.seed, 33);
    let tele = net.telemetry();
    let invalidations = || {
        tele.counter("pathdb.cache.invalidate").get()
            + tele.counter("daemon.paths_invalidated").get()
    };
    let daemon_lookups = || {
        daemons.values().fold((0, 0), |(h, m), d| {
            let s = d.stats();
            (h + s.hits, m + s.misses)
        })
    };
    let invalidations_before = invalidations();
    let (hits_before, misses_before) = daemon_lookups();
    let scmps_before: u64 = flows.iter().map(|f| f.scmps.get()).sum();

    let mut t = Tally::default();
    // (tick, wall ns) of every restored kill.
    let mut recoveries: Vec<(usize, f64)> = Vec::new();
    let mut cal = Calibrator::new(CAL_EVERY);
    let ticks = ((cfg.seconds * TICKS_PER_RUN_SECOND) as usize).max(2 * KILL_EVERY);
    let (mut untraced_ns, mut traced_ns) = (Vec::new(), Vec::new());
    // The killed link and the tick it comes back.
    let mut down: Option<(usize, usize)> = None;
    let start = Instant::now();
    let mut ran = 0;
    for tick in 0..ticks {
        if start.elapsed().as_secs_f64() > OVERRUN * cfg.seconds {
            break;
        }
        ran += 1;
        let trace = traced && coin.below(2) == 0;
        timer.set_enabled(trace);
        let begin = Instant::now();
        if let Some((link, until)) = down {
            if tick >= until {
                timer.time("core.set_link", || net.set_link_index(link, true));
                down = None;
            }
        }
        if tick % KILL_EVERY == 0 && down.is_none() {
            let victim = kills.below(flows.len());
            let pick = kills.next_u64() as usize;
            let flow = &mut flows[victim];
            let active = timer.time("pan.active", || flow.client.selector_mut().active());
            let candidates: Vec<usize> = match active {
                Ok(path) => timer
                    .time("core.path_links", || net.path_links(&path))
                    .into_iter()
                    .filter(|&l| flow.live(Some(l)))
                    .collect(),
                Err(_) => Vec::new(),
            };
            if !candidates.is_empty() {
                let link = candidates[pick % candidates.len()];
                let killed_at = Instant::now();
                timer.time("core.set_link", || net.set_link_index(link, false));
                down = Some((link, tick + RESTORE_AFTER));
                t.kills += 1;
                let restored = (0..ATTEMPTS)
                    .any(|_| flow.step(cfg.seed, timer, Some(link), &mut t) == Step::Delivered);
                if restored {
                    recoveries.push((tick, killed_at.elapsed().as_nanos() as f64));
                    let path = timer.time("pan.active", || flow.client.selector_mut().active());
                    let crosses = path.is_ok_and(|p| {
                        timer
                            .time("core.path_links", || net.path_links(&p))
                            .contains(&link)
                    });
                    t.bad_restores += u64::from(crosses);
                } else {
                    t.chains_lost += 1;
                }
            }
        }
        let link_down = down.map(|(l, _)| l);
        for flow in flows.iter_mut() {
            flow.step(cfg.seed, timer, link_down, &mut t);
        }
        if tick % TICKS_PER_SECOND == TICKS_PER_SECOND - 1 {
            timer.time("core.advance_time", || net.advance_time(1));
        }
        if tick % PROBE_EVERY == PROBE_EVERY / 2 {
            timer.time("orchestrator.probe_round", || net.probe_round());
        }
        let ns = begin.elapsed().as_nanos() as f64;
        timer.set_enabled(false);
        if trace {
            traced_ns.push(ns);
        } else {
            untraced_ns.push(ns);
        }
        cal.record(ns);
    }
    let elapsed = start.elapsed().as_secs_f64();
    if let Some((link, _)) = down {
        net.set_link_index(link, true);
    }

    let mut out = Outcome {
        attempted: t.sent + t.kills,
        failed: t.lost + t.altered + t.chains_lost,
        ..Outcome::default()
    };
    out.check(
        "failover.datagrams_intact",
        t.altered == 0,
        format!(
            "{} of {} datagrams arrived with another payload, source or port",
            t.altered, t.sent
        ),
    );
    out.check(
        "failover.restored_path_avoids_killed_link",
        t.bad_restores == 0,
        format!(
            "{} of {} restored flows still crossed the killed link",
            t.bad_restores,
            recoveries.len()
        ),
    );
    out.info("failover.ticks", ran as f64, "count");
    out.info(
        "failover.stopped_early",
        f64::from(u8::from(ran < ticks)),
        "count",
    );
    out.info("failover.kills", t.kills as f64, "count");
    out.info("failover.kills_not_restored", t.chains_lost as f64, "count");
    out.info("failover.datagrams_lost", t.lost as f64, "count");
    out.info("failover.datagrams_revealing", t.revealed as f64, "count");
    out.info("failover.empty_served", t.empty_served as f64, "count");
    out.info("failed_ratio", ratio(out.failed, out.attempted), "ratio");

    if traced {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let traced_total: f64 = traced_ns.iter().sum();
        let (hits, misses) = daemon_lookups();
        let (hits, misses) = (hits - hits_before, misses - misses_before);
        let scmps: u64 = flows.iter().map(|f| f.scmps.get()).sum::<u64>() - scmps_before;
        out.info("daemon.lookups", (hits + misses) as f64, "count");
        out.info("failover.traced_ticks", traced_ns.len() as f64, "count");
        out.metric("daemon.paths_us", timer.p50_us("daemon.paths"), "us");
        out.metric("daemon.hit_ratio", ratio(hits, hits + misses), "ratio");
        out.metric(
            "daemon.handle_scmp_us",
            timer.p50_us("daemon.handle_scmp"),
            "us",
        );
        out.metric("daemon.empty_served", t.empty_served as f64, "count");
        out.metric("pan.failovers", (scmps + t.reconnects) as f64, "count");
        out.metric(
            "orchestrator.probe_round_us",
            timer.p50_us("orchestrator.probe_round"),
            "us",
        );
        out.metric(
            "control.invalidations",
            (invalidations() - invalidations_before) as f64,
            "count",
        );
        out.metric(
            "failover.unattributed_share",
            (traced_total - timer.top_level_ns()) / traced_total,
            "ratio",
        );
        out.metric(
            "failover.trace_overhead",
            mean(&traced_ns) / mean(&untraced_ns),
            "ratio",
        );
        return out;
    }

    let cal_s = cal.calibrated().iter().sum::<f64>() / 1e9;
    let recover_ns: Vec<f64> = recoveries
        .iter()
        .map(|&(tick, ns)| ns * cal.scale(tick))
        .collect();
    let wall_recover_ns: Vec<f64> = recoveries.iter().map(|&(_, ns)| ns).collect();
    let per_s = t.delivered as f64 / cal_s;
    let p50 = median(&recover_ns) / 1e3;
    let p90 = quantile(&recover_ns, 0.9) / 1e3;
    out.info("failover_dgrams_per_s", per_s, "1/s");
    out.info("recover_p50_us", p50, "us");
    out.info("recover_p90_us", p90, "us");
    out.info("calib.probe_p50_us", cal.probe_p50_us(), "us");
    out.info("wall.setup_s", setups.wall_median(), "s");
    out.info("wall.ops_per_s", t.delivered as f64 / elapsed, "1/s");
    out.info(
        "wall.latency_p90_us",
        quantile(&wall_recover_ns, 0.9) / 1e3,
        "us",
    );
    out.metric("setup_s", setups.median(), "s");
    out.metric("ops_per_s", per_s, "1/s");
    out.metric("latency_p90_us", p90, "us");
    out.metric(
        "goodput_gbps",
        (t.delivered * PAYLOAD as u64 * 8) as f64 / cal_s / 1e9,
        "Gbit/s",
    );
    out
}
