//! Path lookup and caching.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use sciera_telemetry::{Counter, Event, Severity, Telemetry};
use scion_control::fullpath::FullPath;
use scion_proto::addr::IsdAsn;
use scion_proto::encap::UnderlayAddr;

/// Where the daemon gets raw paths from — in production, the AS control
/// service reached over the intra-AS network; in this reproduction, a
/// handle onto the control plane (`sciera-core` wires it to the segment
/// store + combinator).
pub trait PathProvider {
    /// Fetches (already combined) paths from `src` to `dst` at Unix `now`.
    fn fetch_paths(&self, src: IsdAsn, dst: IsdAsn, now: u64) -> Vec<FullPath>;
}

impl<F> PathProvider for F
where
    F: Fn(IsdAsn, IsdAsn, u64) -> Vec<FullPath>,
{
    fn fetch_paths(&self, src: IsdAsn, dst: IsdAsn, now: u64) -> Vec<FullPath> {
        self(src, dst, now)
    }
}

/// The memoized path database is a path provider: the handle is itself
/// the shared state, so daemons plugged into clones of it all hit one
/// combination cache, and a store mutation (generation bump) transparently
/// refreshes what they fetch. Lookups run against the published snapshot
/// and never contend with a concurrent writer publishing a new generation.
impl PathProvider for scion_control::epoch::EpochPathDb {
    fn fetch_paths(&self, src: IsdAsn, dst: IsdAsn, _now: u64) -> Vec<FullPath> {
        self.paths(src, dst, scion_control::combine::DEFAULT_MAX_PATHS)
    }
}

/// Daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Maximum cache age before a refetch, seconds. Production defaults to
    /// minutes; path expiry is enforced independently.
    pub cache_ttl: u64,
    /// Maximum number of destination entries kept.
    pub cache_capacity: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            cache_ttl: 300,
            cache_capacity: 1024,
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    paths: Vec<FullPath>,
    fetched_at: u64,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that required a control-plane fetch.
    pub misses: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
}

/// The end-host daemon.
pub struct Daemon<P: PathProvider> {
    /// The AS this host lives in.
    pub local_ia: IsdAsn,
    /// Control-service underlay address (served to applications).
    pub control_service: UnderlayAddr,
    provider: P,
    config: DaemonConfig,
    cache: Mutex<HashMap<IsdAsn, CacheEntry>>,
    stats: Mutex<CacheStats>,
    telemetry: Telemetry,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidated: Counter,
    /// Latest `now` seen by `paths()`, used to timestamp cache events.
    last_now: AtomicU64,
}

impl<P: PathProvider> Daemon<P> {
    /// Creates a daemon.
    pub fn new(
        local_ia: IsdAsn,
        control_service: UnderlayAddr,
        provider: P,
        config: DaemonConfig,
    ) -> Self {
        let telemetry = Telemetry::quiet();
        Daemon {
            local_ia,
            control_service,
            provider,
            config,
            cache: Mutex::new(HashMap::new()),
            stats: Mutex::new(CacheStats::default()),
            hits: telemetry.counter("daemon.cache_hits"),
            misses: telemetry.counter("daemon.cache_misses"),
            evictions: telemetry.counter("daemon.cache_evictions"),
            invalidated: telemetry.counter("daemon.paths_invalidated"),
            telemetry,
            last_now: AtomicU64::new(0),
        }
    }

    /// Re-registers the daemon's cache counters on a shared telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.hits = telemetry.counter("daemon.cache_hits");
        self.misses = telemetry.counter("daemon.cache_misses");
        self.evictions = telemetry.counter("daemon.cache_evictions");
        self.invalidated = telemetry.counter("daemon.paths_invalidated");
        self.telemetry = telemetry;
    }

    /// Returns usable (unexpired) paths to `dst`, consulting the cache
    /// first. An empty result is also cached (negative caching) until the
    /// TTL elapses, protecting the control plane from lookup storms for
    /// unreachable destinations.
    pub fn paths(&self, dst: IsdAsn, now: u64) -> Vec<FullPath> {
        if dst == self.local_ia {
            return Vec::new(); // AS-local traffic uses the empty path
        }
        self.last_now.fetch_max(now, Ordering::Relaxed);
        {
            let cache = self.cache.lock();
            if let Some(entry) = cache.get(&dst) {
                let fresh = now.saturating_sub(entry.fetched_at) < self.config.cache_ttl;
                if fresh {
                    let live: Vec<FullPath> = entry
                        .paths
                        .iter()
                        .filter(|p| p.expiry() > now)
                        .cloned()
                        .collect();
                    // Serve from cache unless everything expired early.
                    if !live.is_empty() || entry.paths.is_empty() {
                        self.stats.lock().hits += 1;
                        self.hits.inc();
                        return live;
                    }
                }
            }
        }
        self.stats.lock().misses += 1;
        self.misses.inc();
        let paths = self.provider.fetch_paths(self.local_ia, dst, now);
        let live: Vec<FullPath> = paths.iter().filter(|p| p.expiry() > now).cloned().collect();
        let mut cache = self.cache.lock();
        if cache.len() >= self.config.cache_capacity && !cache.contains_key(&dst) {
            // Evict the stalest entry.
            if let Some(victim) = cache
                .iter()
                .min_by_key(|(_, e)| e.fetched_at)
                .map(|(k, _)| *k)
            {
                cache.remove(&victim);
                self.stats.lock().evictions += 1;
                self.evictions.inc();
            }
        }
        cache.insert(
            dst,
            CacheEntry {
                paths: paths.clone(),
                fetched_at: now,
            },
        );
        live
    }

    /// Like [`Daemon::paths`], but returns the paths ranked by a
    /// caller-supplied score: `(bucket, cost)` ascending, ties broken by
    /// hop count then fingerprint, so the order is total and
    /// deterministic. This is the hook measurement-driven selection
    /// plugs into — `scion_pan`'s adaptive policies score each path from
    /// their rolling view of the path-dynamics dataset and the daemon
    /// serves them pre-ranked, cache semantics unchanged.
    pub fn paths_ranked<F>(&self, dst: IsdAsn, now: u64, score: F) -> Vec<FullPath>
    where
        F: Fn(&FullPath) -> (u8, f64),
    {
        let mut scored: Vec<((u8, f64, usize, String), FullPath)> = self
            .paths(dst, now)
            .into_iter()
            .map(|p| {
                let (bucket, cost) = score(&p);
                ((bucket, cost, p.len(), p.fingerprint()), p)
            })
            .collect();
        scored.sort_by(|(a, _), (b, _)| {
            a.0.cmp(&b.0)
                .then(a.1.partial_cmp(&b.1).unwrap_or(core::cmp::Ordering::Equal))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        scored.into_iter().map(|(_, p)| p).collect()
    }

    /// Drops all cached paths (on network migration, §4.2.1).
    pub fn flush_cache(&self) {
        self.cache.lock().clear();
    }

    /// Invalidate every cached path that traverses the given interface —
    /// the daemon-side reaction to an SCMP `ExternalInterfaceDown`.
    pub fn invalidate_interface(&self, ia: IsdAsn, ifid: u16) -> usize {
        let mut removed = 0;
        let mut cache = self.cache.lock();
        for entry in cache.values_mut() {
            let before = entry.paths.len();
            entry
                .paths
                .retain(|p| !p.interfaces().contains(&(ia, ifid)));
            removed += before - entry.paths.len();
        }
        drop(cache);
        self.invalidated.add(removed as u64);
        if removed > 0 && self.telemetry.enabled(Severity::Warn) {
            let at = self
                .last_now
                .load(Ordering::Relaxed)
                .saturating_mul(1_000_000_000);
            self.telemetry.emit(
                Event::new(
                    at,
                    self.local_ia.to_string(),
                    "daemon",
                    Severity::Warn,
                    "paths invalidated",
                )
                .field("ia", ia)
                .field("ifid", ifid)
                .field("removed", removed),
            );
        }
        removed
    }

    /// Reacts to an incoming SCMP error message: connectivity-down
    /// notifications invalidate every cached path over the dead interface,
    /// everything else (echo, traceroute) is not the daemon's business.
    /// Returns how many cached paths were dropped.
    pub fn handle_scmp(&self, msg: &scion_proto::scmp::ScmpMessage) -> usize {
        use scion_proto::scmp::ScmpMessage;
        match msg {
            ScmpMessage::ExternalInterfaceDown { ia, interface } => u16::try_from(*interface)
                .map(|ifid| self.invalidate_interface(*ia, ifid))
                .unwrap_or(0),
            ScmpMessage::InternalConnectivityDown {
                ia,
                ingress,
                egress,
            } => {
                let mut removed = 0;
                for ifid in [ingress, egress] {
                    if let Ok(ifid) = u16::try_from(*ifid) {
                        removed += self.invalidate_interface(*ia, ifid);
                    }
                }
                removed
            }
            _ => 0,
        }
    }

    /// Cache statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_control::fullpath::{PathHop, PathKind};
    use scion_proto::addr::ia;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fake_path(src: &str, mid: &str, dst: &str) -> FullPath {
        FullPath {
            src: ia(src),
            dst: ia(dst),
            kind: PathKind::SameCore,
            uses: Vec::new(),
            hops: vec![
                PathHop {
                    ia: ia(src),
                    ingress: 0,
                    egress: 1,
                },
                PathHop {
                    ia: ia(mid),
                    ingress: 2,
                    egress: 3,
                },
                PathHop {
                    ia: ia(dst),
                    ingress: 4,
                    egress: 0,
                },
            ],
        }
    }

    struct CountingProvider {
        calls: AtomicU64,
    }

    impl PathProvider for &CountingProvider {
        fn fetch_paths(&self, src: IsdAsn, dst: IsdAsn, _now: u64) -> Vec<FullPath> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if dst == ia("71-404") {
                return Vec::new();
            }
            vec![fake_path(&src.to_string(), "71-1", &dst.to_string())]
        }
    }

    fn daemon(provider: &CountingProvider) -> Daemon<&CountingProvider> {
        Daemon::new(
            ia("71-100"),
            UnderlayAddr::new([10, 0, 0, 2], 30252),
            provider,
            DaemonConfig {
                cache_ttl: 60,
                cache_capacity: 2,
            },
        )
    }

    #[test]
    fn cache_hit_avoids_refetch() {
        let p = CountingProvider {
            calls: AtomicU64::new(0),
        };
        let d = daemon(&p);
        // fake paths have no segments => expiry 0; use now=0? expiry()>now
        // fails for 0>0. Use uses=[] => expiry()==0, so pick now far below.
        // Instead verify the call-counting behaviour with an unreachable
        // dst (negative caching).
        assert!(d.paths(ia("71-404"), 100).is_empty());
        assert!(d.paths(ia("71-404"), 110).is_empty());
        assert_eq!(p.calls.load(Ordering::SeqCst), 1, "negative entry cached");
        assert_eq!(d.stats().hits, 1);
        assert_eq!(d.stats().misses, 1);
    }

    #[test]
    fn ttl_expiry_triggers_refetch() {
        let p = CountingProvider {
            calls: AtomicU64::new(0),
        };
        let d = daemon(&p);
        d.paths(ia("71-404"), 100);
        d.paths(ia("71-404"), 161); // ttl 60 exceeded
        assert_eq!(p.calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn local_as_needs_no_paths() {
        let p = CountingProvider {
            calls: AtomicU64::new(0),
        };
        let d = daemon(&p);
        assert!(d.paths(ia("71-100"), 0).is_empty());
        assert_eq!(p.calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn capacity_eviction() {
        let p = CountingProvider {
            calls: AtomicU64::new(0),
        };
        let d = daemon(&p); // capacity 2
        d.paths(ia("71-404"), 100);
        d.paths(ia("71-405"), 101);
        d.paths(ia("71-406"), 102); // evicts 71-404 (stalest)
        assert_eq!(d.stats().evictions, 1);
        d.paths(ia("71-404"), 103); // must refetch
        assert_eq!(p.calls.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn flush_cache_forces_refetch() {
        let p = CountingProvider {
            calls: AtomicU64::new(0),
        };
        let d = daemon(&p);
        d.paths(ia("71-404"), 100);
        d.flush_cache();
        d.paths(ia("71-404"), 101);
        assert_eq!(p.calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn interface_invalidation_removes_affected_paths() {
        // Provider returning paths with real hop interfaces; use a dst that
        // yields a path through 71-1 interface 2.
        let p = CountingProvider {
            calls: AtomicU64::new(0),
        };
        let d = Daemon::new(
            ia("71-100"),
            UnderlayAddr::new([10, 0, 0, 2], 30252),
            &p,
            DaemonConfig::default(),
        );
        // Prime the cache (paths expire at 0 but remain stored).
        d.paths(ia("71-200"), 0);
        let removed = d.invalidate_interface(ia("71-1"), 2);
        assert_eq!(removed, 1);
        let removed_again = d.invalidate_interface(ia("71-1"), 2);
        assert_eq!(removed_again, 0);
    }

    #[test]
    fn epoch_pathdb_serves_as_provider() {
        use scion_control::beacon::{BeaconConfig, BeaconEngine};
        use scion_control::epoch::EpochPathDb;
        use scion_control::graph::{ControlGraph, LinkType};

        let mut g = ControlGraph::new();
        g.add_as(ia("71-1"), true);
        g.add_as(ia("71-10"), false);
        g.add_as(ia("71-11"), false);
        g.connect(ia("71-1"), ia("71-10"), LinkType::Child).unwrap();
        g.connect(ia("71-1"), ia("71-11"), LinkType::Child).unwrap();
        let store = BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap();
        let db = EpochPathDb::new(store);

        let d = Daemon::new(
            ia("71-10"),
            UnderlayAddr::new([10, 0, 0, 2], 30252),
            db.clone(),
            DaemonConfig::default(),
        );
        let paths = d.paths(ia("71-11"), 1_700_000_100);
        assert!(!paths.is_empty(), "epoch provider yields paths");
        // A second daemon on a clone of the handle shares the same
        // snapshot cache — the clone IS the shared state.
        let d2 = Daemon::new(
            ia("71-10"),
            UnderlayAddr::new([10, 0, 0, 3], 30252),
            db.clone(),
            DaemonConfig::default(),
        );
        assert_eq!(d2.paths(ia("71-11"), 1_700_000_100), paths);
        assert!(db.cached_entries() >= 1);
    }

    #[test]
    fn paths_ranked_orders_by_score_then_hops_then_fingerprint() {
        use scion_control::beacon::{BeaconConfig, BeaconEngine};
        use scion_control::epoch::EpochPathDb;
        use scion_control::graph::{ControlGraph, LinkType};

        // Diamond: two cores, both parenting both leaves, so 71-10 → 71-11
        // has one path through each core.
        let mut g = ControlGraph::new();
        g.add_as(ia("71-1"), true);
        g.add_as(ia("71-2"), true);
        g.add_as(ia("71-10"), false);
        g.add_as(ia("71-11"), false);
        g.connect(ia("71-1"), ia("71-2"), LinkType::Core).unwrap();
        for leaf in ["71-10", "71-11"] {
            g.connect(ia("71-1"), ia(leaf), LinkType::Child).unwrap();
            g.connect(ia("71-2"), ia(leaf), LinkType::Child).unwrap();
        }
        let store = BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap();
        let db = EpochPathDb::new(store);
        let d = Daemon::new(
            ia("71-10"),
            UnderlayAddr::new([10, 0, 0, 2], 30252),
            db,
            DaemonConfig::default(),
        );
        let now = 1_700_000_100;
        let plain = d.paths(ia("71-11"), now);
        assert!(plain.len() >= 2, "diamond yields both paths");

        // A measurement-driven score: paths through 71-2 are "measured
        // fast", everything else lands in a worse bucket — regardless of
        // hop count.
        let through = |p: &FullPath, core: &str| p.ases().contains(&ia(core));
        let ranked = d.paths_ranked(ia("71-11"), now, |p| {
            if through(p, "71-2") {
                (0, 5.0)
            } else {
                (1, 1.0)
            }
        });
        assert_eq!(ranked.len(), plain.len(), "ranking only reorders");
        assert!(through(&ranked[0], "71-2"), "best bucket first");
        let split = ranked.iter().position(|p| !through(p, "71-2")).unwrap();
        assert!(
            ranked[split..].iter().all(|p| !through(p, "71-2")),
            "buckets stay contiguous"
        );
        // Constant score degrades to hops-then-fingerprint: deterministic.
        let tie = d.paths_ranked(ia("71-11"), now, |_| (0, 0.0));
        let again = d.paths_ranked(ia("71-11"), now, |_| (0, 0.0));
        assert_eq!(
            tie.iter().map(|p| p.fingerprint()).collect::<Vec<_>>(),
            again.iter().map(|p| p.fingerprint()).collect::<Vec<_>>()
        );
        for w in tie.windows(2) {
            assert!(w[0].len() <= w[1].len(), "ties fall back to hop count");
        }
    }

    #[test]
    fn handle_scmp_invalidates_on_connectivity_down() {
        use scion_proto::scmp::ScmpMessage;
        let p = CountingProvider {
            calls: AtomicU64::new(0),
        };
        let d = Daemon::new(
            ia("71-100"),
            UnderlayAddr::new([10, 0, 0, 2], 30252),
            &p,
            DaemonConfig::default(),
        );
        d.paths(ia("71-200"), 0);
        // Echoes are not the daemon's business.
        assert_eq!(
            d.handle_scmp(&ScmpMessage::EchoReply {
                id: 1,
                seq: 1,
                data: vec![]
            }),
            0
        );
        // The mid hop (71-1 ingress 2) dies: the cached path goes with it.
        assert_eq!(
            d.handle_scmp(&ScmpMessage::ExternalInterfaceDown {
                ia: ia("71-1"),
                interface: 2
            }),
            1
        );
        // Re-prime, then kill via internal-connectivity-down on the egress.
        d.flush_cache();
        d.paths(ia("71-200"), 1);
        assert_eq!(
            d.handle_scmp(&ScmpMessage::InternalConnectivityDown {
                ia: ia("71-1"),
                ingress: 9,
                egress: 3
            }),
            1
        );
        // An interface id beyond u16 can never match a simulated hop.
        assert_eq!(
            d.handle_scmp(&ScmpMessage::ExternalInterfaceDown {
                ia: ia("71-1"),
                interface: u64::from(u16::MAX) + 10
            }),
            0
        );
    }
}
