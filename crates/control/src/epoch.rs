//! Epoch-snapshot path database: the memoized control-plane fast path,
//! with concurrent lookups and no global lock.
//!
//! [`EpochPathDb`] owns a [`SegmentStore`] and a bounded, sharded LRU of
//! combined [`FullPath`] lists keyed on `(src, dst, policy fingerprint,
//! max_paths)`. The design splits the database into three
//! independently-locked parts:
//!
//! * **The published snapshot** — an `Arc<PathSnapshot>` holding an
//!   immutable [`SegmentStore`] plus the generation it was published at.
//!   Readers acquire it with one brief `RwLock` read (a pointer clone, no
//!   allocation) and then combine paths against it with **no locks held**:
//!   the snapshot can never change under them, so a reader can never
//!   observe a half-applied registration or invalidation — it sees the
//!   store exactly as generation *G* published it, or exactly as *G+1*
//!   did, never in between.
//! * **The writer master** — a `Mutex<SegmentStore>` only writers touch.
//!   [`mutate_store`](EpochPathDb::mutate_store) applies a batch of
//!   registrations/expiries/interface kills to the master and then
//!   *publishes*: clones the master (cheap — buckets hold `Arc` segment
//!   handles, so a clone copies pointers, not segment bodies) into a
//!   fresh snapshot and swaps the published pointer. Publish latency and
//!   count land in `pathdb.publish_ns` / `pathdb.publish.count`.
//! * **The sharded result cache** — warm lookups hash their key to one of
//!   `shards` independently-locked maps, so concurrent readers contend
//!   only on key collisions within a shard, never on the writer and never
//!   on each other across shards. A hit is: snapshot read-clone, one
//!   shard lock, one `Arc` path-list clone.
//!
//! Soundness rests on the store's generation counter:
//!
//! * Every store mutation (registration, expiry, interface invalidation)
//!   bumps [`SegmentStore::generation`], so a cached entry stamped with a
//!   different generation than the snapshot is *known possibly-stale* —
//!   there is no code path that changes store contents without moving
//!   the counter.
//! * A stale entry is not necessarily wrong: each entry also records the
//!   content fingerprint ([`SegmentStore::bucket_fingerprint`]) of every
//!   bucket its combination consulted (including empty buckets, whose
//!   emptiness decided the combination shape). If none of those
//!   fingerprints differ, the consulted contents are identical and the
//!   entry is revalidated in place — an unrelated mutation, or one that
//!   removed and then restored the same segments, costs a handful of map
//!   probes, not a recombination.
//! * If only *core* buckets moved and the raw per-pair output was
//!   retained, only the (up, down) pairs that consulted a changed core
//!   bucket are recombined via `combine_pair`; untouched pairs reuse
//!   their recorded raw paths and the shared finalize step reproduces the
//!   exact fresh result (same push order, same sort/dedup/truncate).
//! * Otherwise the entry is fully recombined — still through the single
//!   `combine_paths_recorded` code path, so memoized and fresh results
//!   are byte-for-byte identical by construction.
//! * Concurrency adds one rule: a cache entry always records the
//!   generation of the snapshot its paths were combined from, and install
//!   never lets an entry go backwards — a reader racing on an older
//!   snapshot cannot overwrite a newer entry. A served result therefore
//!   always equals a fresh `combine_paths` against the snapshot generation
//!   returned alongside it, which is exactly what the concurrency stress
//!   test asserts.
//!
//! Counters: `pathdb.cache.{hit,miss,evict,invalidate,revalidate,partial}`
//! plus the `store.generation` gauge, surfaced on the operator console's
//! `pathdb:` line and in the Prometheus exposition.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use sciera_telemetry::{Counter, Gauge, Histogram, Telemetry};
use scion_proto::addr::IsdAsn;

use crate::combine::{combine_pair, combine_paths_recorded, finalize, CombineRecord, PairRaw};
use crate::fullpath::FullPath;
use crate::policy::{policy_fingerprint, PathPolicy};
use crate::store::{BucketDep, SegmentStore};

/// Sizing knobs for the epoch database's sharded cache.
#[derive(Debug, Clone, Copy)]
pub struct EpochConfig {
    /// Number of independently-locked cache shards.
    pub shards: usize,
    /// Total cached entries across all shards (per-shard capacity is
    /// `capacity / shards`, at least 1).
    pub capacity: usize,
    /// Maximum raw per-pair paths retained per entry for incremental
    /// recombination; entries above this fall back to full recombination
    /// when invalidated (bounding memory, never correctness).
    pub raw_limit: usize,
    /// Admission control: cache-miss combinations in flight at once
    /// across all readers. `0` (the default) disables the gate. A bounded
    /// budget keeps a miss storm from convoying every reader thread into
    /// combine work at once — the daemon's overload answer is to queue
    /// briefly or shed, not to melt.
    pub max_inflight: usize,
    /// Admission control: queries allowed to queue for a combination
    /// permit before further ones shed (served an empty, uncached answer
    /// the client retries). Only meaningful when
    /// [`max_inflight`](Self::max_inflight) is non-zero.
    pub max_waiters: usize,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            shards: 16,
            capacity: 4096,
            raw_limit: 4096,
            max_inflight: 0,
            max_waiters: 64,
        }
    }
}

impl EpochConfig {
    /// Topology-proportional sizing: the warm working set of the scale
    /// observatory is one entry per queried (src, dst) pair and the pair
    /// pool grows linearly with the AS count, so the cache must too — the
    /// fixed 2048-entry cache is exactly what collapsed N=5000 to 946
    /// queries/sec. Eight entries per AS keeps the hit rate flat through
    /// the 100→5000 sweep while staying bounded.
    pub fn for_topology(n_ases: usize) -> Self {
        EpochConfig {
            capacity: (8 * n_ases).max(4096),
            ..Default::default()
        }
    }
}

/// An immutable store snapshot published at one generation. Readers hold
/// it by `Arc`; everything reachable from it is frozen.
pub struct PathSnapshot {
    store: SegmentStore,
    generation: u64,
    published_at: Instant,
}

impl PathSnapshot {
    /// The frozen store contents.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// The store generation this snapshot was published at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Time since this snapshot was published — the reader-visible
    /// staleness bound (a new publish replaces the pointer immediately;
    /// age only accrues on snapshots a reader is still holding).
    pub fn age(&self) -> std::time::Duration {
        self.published_at.elapsed()
    }
}

type CacheKey = (IsdAsn, IsdAsn, u64, usize);
/// Entry state carried out of the shard lock when an incremental
/// recombination is worth attempting.
type IncrState = (Vec<(BucketDep, u64)>, Vec<PairRaw>);

#[derive(Clone)]
struct Entry {
    /// Snapshot generation the paths were combined at (or last revalidated
    /// against). Monotone per key: install never moves it backwards.
    generation: u64,
    deps: Vec<(BucketDep, u64)>,
    paths: Arc<Vec<FullPath>>,
    raw: Option<Vec<PairRaw>>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// Metric handles, swapped atomically as a bundle by `set_telemetry` so
/// no lock is held while recording (every handle is an `Arc` of atomics).
struct Metrics {
    telemetry: Telemetry,
    hits: Counter,
    misses: Counter,
    evicts: Counter,
    invalidates: Counter,
    revalidates: Counter,
    partials: Counter,
    publishes: Counter,
    publish_ns: Histogram,
    generation_gauge: Gauge,
    combine_ns: Histogram,
    paths_combined: Counter,
    entries_gauge: Gauge,
    cache_bytes_gauge: Gauge,
    store_segments_gauge: Gauge,
    store_bytes_gauge: Gauge,
    shed: Counter,
    admission_waits: Counter,
    inflight_gauge: Gauge,
}

impl Metrics {
    fn new(telemetry: Telemetry) -> Self {
        Metrics {
            hits: telemetry.counter("pathdb.cache.hit"),
            misses: telemetry.counter("pathdb.cache.miss"),
            evicts: telemetry.counter("pathdb.cache.evict"),
            invalidates: telemetry.counter("pathdb.cache.invalidate"),
            revalidates: telemetry.counter("pathdb.cache.revalidate"),
            partials: telemetry.counter("pathdb.cache.partial"),
            publishes: telemetry.counter("pathdb.publish.count"),
            publish_ns: telemetry.histogram("pathdb.publish_ns"),
            generation_gauge: telemetry.gauge("store.generation"),
            combine_ns: telemetry.histogram("control.combine_ns"),
            paths_combined: telemetry.counter("control.paths_combined"),
            entries_gauge: telemetry.gauge("pathdb.cache.entries"),
            cache_bytes_gauge: telemetry.gauge("pathdb.cache.bytes"),
            store_segments_gauge: telemetry.gauge("store.segments"),
            store_bytes_gauge: telemetry.gauge("store.interned_bytes"),
            shed: telemetry.counter("pathdb.shed"),
            admission_waits: telemetry.counter("pathdb.admission.wait"),
            inflight_gauge: telemetry.gauge("pathdb.inflight"),
            telemetry,
        }
    }
}

/// The admission gate's shared state: combinations in flight and queries
/// queued for a permit. Guarded by a `std::sync` mutex + condvar pair
/// (waiters must block on a condition; the vendored `parking_lot` shim
/// has no condvar). The gate lock nests inside nothing — it is acquired
/// with no other database lock held.
#[derive(Default)]
struct GateState {
    inflight: usize,
    waiting: usize,
}

#[derive(Default)]
struct AdmissionGate {
    state: std::sync::Mutex<GateState>,
    cv: std::sync::Condvar,
}

/// RAII combination permit: releasing returns the budget slot and wakes
/// one queued waiter.
struct AdmissionPermit<'a> {
    db: &'a EpochPathDb,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let m = self.db.m();
        let gate = &self.db.inner.gate;
        let mut st = gate.state.lock().expect("admission gate poisoned");
        st.inflight -= 1;
        m.inflight_gauge.set(st.inflight as u64);
        gate.cv.notify_one();
    }
}

struct Inner {
    cfg: EpochConfig,
    published: RwLock<Arc<PathSnapshot>>,
    /// The writer's master store. Lock order (when nested): `master`
    /// before shard locks before `published`; metrics are never held
    /// across another lock (the `Arc<Metrics>` is cloned out first).
    master: Mutex<SegmentStore>,
    shards: Vec<Mutex<Shard>>,
    metrics: RwLock<Arc<Metrics>>,
    gate: AdmissionGate,
}

/// The epoch-snapshot path database. `Clone` is an `Arc` bump — clones
/// share the store, the cache and the metrics, so the handle itself is
/// what components pass around (no outer `Arc<Mutex<_>>`).
#[derive(Clone)]
pub struct EpochPathDb {
    inner: Arc<Inner>,
}

impl EpochPathDb {
    /// Wraps `store` with a default-sized cache.
    pub fn new(store: SegmentStore) -> Self {
        Self::with_config(store, EpochConfig::default())
    }

    /// Wraps `store` with explicit sizing.
    pub fn with_config(store: SegmentStore, cfg: EpochConfig) -> Self {
        let cfg = EpochConfig {
            shards: cfg.shards.max(1),
            capacity: cfg.capacity.max(1),
            raw_limit: cfg.raw_limit,
            max_inflight: cfg.max_inflight,
            max_waiters: cfg.max_waiters,
        };
        let metrics = Metrics::new(Telemetry::quiet());
        metrics.generation_gauge.set(store.generation());
        let snapshot = Arc::new(PathSnapshot {
            generation: store.generation(),
            store: store.clone(),
            published_at: Instant::now(),
        });
        EpochPathDb {
            inner: Arc::new(Inner {
                published: RwLock::new(snapshot),
                master: Mutex::new(store),
                shards: (0..cfg.shards)
                    .map(|_| Mutex::new(Shard::default()))
                    .collect(),
                metrics: RwLock::new(Arc::new(metrics)),
                gate: AdmissionGate::default(),
                cfg,
            }),
        }
    }

    /// Re-registers the database's metrics on a shared telemetry handle.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        let metrics = Metrics::new(telemetry);
        metrics
            .generation_gauge
            .set(self.inner.published.read().generation);
        *self.inner.metrics.write() = Arc::new(metrics);
    }

    /// The telemetry handle this database records into.
    pub fn telemetry(&self) -> Telemetry {
        self.m().telemetry.clone()
    }

    fn m(&self) -> Arc<Metrics> {
        self.inner.metrics.read().clone()
    }

    /// The currently-published snapshot: one brief read-lock, one `Arc`
    /// clone. Everything reachable from it is immutable.
    pub fn snapshot(&self) -> Arc<PathSnapshot> {
        self.inner.published.read().clone()
    }

    /// The published store generation.
    pub fn generation(&self) -> u64 {
        self.inner.published.read().generation
    }

    /// Applies a batch of mutations to the writer's master store, then
    /// publishes the result as a fresh snapshot. Returns the closure's
    /// result. Writers serialize on the master lock; readers are never
    /// blocked (they keep combining against the previous snapshot until
    /// the pointer swap).
    pub fn mutate_store<R>(&self, f: impl FnOnce(&mut SegmentStore) -> R) -> R {
        let m = self.m();
        let mut master = self.inner.master.lock();
        let r = f(&mut master);
        let start = Instant::now();
        let snapshot = Arc::new(PathSnapshot {
            generation: master.generation(),
            store: master.clone(),
            published_at: Instant::now(),
        });
        *self.inner.published.write() = snapshot;
        m.publishes.inc();
        m.publish_ns.record(start.elapsed().as_nanos() as f64);
        m.generation_gauge.set(master.generation());
        r
    }

    /// Drops every cached entry containing a path crossing interface
    /// `ifid` of `ia` — the SCMP `ExternalInterfaceDown` reaction. The
    /// store (and its generation) is untouched: the segments are still
    /// validly signed (liveness is the data plane's concern), so the next
    /// query recombines the same result from current contents. The sweep
    /// holds the master lock so it serializes with publishes, and visits every
    /// shard before returning — a lookup issued after this returns can
    /// only see swept shards. Returns how many entries were dropped.
    pub fn invalidate_paths_crossing(&self, ia: IsdAsn, ifid: u16) -> usize {
        let m = self.m();
        let _writer = self.inner.master.lock();
        let mut dropped = 0usize;
        for shard in &self.inner.shards {
            let mut s = shard.lock();
            let before = s.entries.len();
            s.entries
                .retain(|_, e| !e.paths.iter().any(|p| p.interfaces().contains(&(ia, ifid))));
            dropped += before - s.entries.len();
        }
        m.invalidates.add(dropped as u64);
        dropped
    }

    /// Memoized equivalent of
    /// [`combine_paths`](crate::combine::combine_paths) against the
    /// currently-published snapshot: byte-for-byte the same result.
    pub fn paths(&self, src: IsdAsn, dst: IsdAsn, max_paths: usize) -> Vec<FullPath> {
        self.query(src, dst, max_paths, None).0.as_ref().clone()
    }

    /// [`paths`](Self::paths) without the final copy: the shared path
    /// list straight from the cache (the warm fast path of the SLO
    /// harness), plus the snapshot generation it was served from.
    pub fn paths_with_generation(
        &self,
        src: IsdAsn,
        dst: IsdAsn,
        max_paths: usize,
    ) -> (Arc<Vec<FullPath>>, u64) {
        self.query(src, dst, max_paths, None)
    }

    /// Memoized combination followed by policy filtering; cached per
    /// policy fingerprint, so distinct policies never alias.
    pub fn paths_filtered(
        &self,
        src: IsdAsn,
        dst: IsdAsn,
        max_paths: usize,
        policy: &PathPolicy,
    ) -> Vec<FullPath> {
        self.query(src, dst, max_paths, Some(policy))
            .0
            .as_ref()
            .clone()
    }

    /// Pre-warms the cache for a batch of (src, dst) pairs against one
    /// snapshot, skipping pairs already warm at its generation. With the
    /// `parallel` feature the cache-miss combinations fan out over the
    /// worker pool (each pair is independent; results are installed in
    /// input order, so the cache contents equal the sequential run's).
    /// Returns how many pairs were combined.
    pub fn prefetch(&self, pairs: &[(IsdAsn, IsdAsn)], max_paths: usize) -> usize {
        let m = self.m();
        let snap = self.snapshot();
        let todo: Vec<(IsdAsn, IsdAsn)> = pairs
            .iter()
            .copied()
            .filter(|&(src, dst)| {
                let key = (src, dst, 0u64, max_paths);
                let shard = self.inner.shards[self.shard_of(&key)].lock();
                shard
                    .entries
                    .get(&key)
                    .is_none_or(|e| e.generation != snap.generation)
            })
            .collect();
        if todo.is_empty() {
            return 0;
        }
        let _prof = m.telemetry.prof_scope("pathdb.combine");
        let combine = |&(src, dst): &(IsdAsn, IsdAsn)| {
            combine_paths_recorded(&snap.store, src, dst, max_paths, true)
        };
        #[cfg(feature = "parallel")]
        let records: Vec<CombineRecord> = crate::pool::WorkerPool::default().map(&todo, combine);
        #[cfg(not(feature = "parallel"))]
        let records: Vec<CombineRecord> = todo.iter().map(combine).collect();
        let combined = todo.len();
        for (&(src, dst), record) in todo.iter().zip(records) {
            m.misses.inc();
            let key = (src, dst, 0u64, max_paths);
            let paths = self.install(&m, &snap, key, record, None);
            m.paths_combined.add(paths.len() as u64);
        }
        combined
    }

    /// Number of cached entries across all shards.
    pub fn cached_entries(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().entries.len())
            .sum()
    }

    /// Drops every cached entry (the big hammer; normal operation never
    /// needs it — generation checks handle staleness).
    pub fn flush(&self) {
        for shard in &self.inner.shards {
            shard.lock().entries.clear();
        }
    }

    /// Approximate resident bytes of the cache: finalized paths plus
    /// retained raw recombination state. Interned segment bodies are the
    /// store's (see [`SegmentStore::approx_bytes`]).
    pub fn approx_cache_bytes(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|shard| {
                let s = shard.lock();
                s.entries
                    .values()
                    .map(|e| {
                        std::mem::size_of::<Entry>()
                            + e.paths.iter().map(|p| p.approx_bytes()).sum::<usize>()
                            + e.raw.as_ref().map_or(0, |pairs| {
                                pairs
                                    .iter()
                                    .map(|pr| {
                                        std::mem::size_of_val(pr)
                                            + pr.paths
                                                .iter()
                                                .map(|p| p.approx_bytes())
                                                .sum::<usize>()
                                    })
                                    .sum()
                            })
                    })
                    .sum::<usize>()
            })
            .sum()
    }

    /// Refreshes the resource gauges (`pathdb.cache.entries/bytes`,
    /// `store.segments/interned_bytes`). O(cache + store) — meant for
    /// console renders and sweep snapshots, not the per-query hot path.
    pub fn record_resource_gauges(&self) {
        let m = self.m();
        let snap = self.snapshot();
        m.entries_gauge.set(self.cached_entries() as u64);
        m.cache_bytes_gauge.set(self.approx_cache_bytes() as u64);
        m.store_segments_gauge.set(snap.store.len() as u64);
        m.store_bytes_gauge.set(snap.store.approx_bytes() as u64);
    }

    /// Acquires a cache-miss combination permit. Returns `Ok(Some(_))`
    /// when admission is enabled and a budget slot was obtained (possibly
    /// after queueing on the condvar), `Ok(None)` when admission is
    /// disabled (`max_inflight == 0`), and `Err(())` when both the budget
    /// and the waiter queue are full — the caller sheds.
    fn admit(&self, m: &Metrics) -> Result<Option<AdmissionPermit<'_>>, ()> {
        let max = self.inner.cfg.max_inflight;
        if max == 0 {
            return Ok(None);
        }
        let gate = &self.inner.gate;
        let mut st = gate.state.lock().expect("admission gate poisoned");
        if st.inflight >= max {
            if st.waiting >= self.inner.cfg.max_waiters {
                return Err(());
            }
            st.waiting += 1;
            m.admission_waits.inc();
            while st.inflight >= max {
                st = gate.cv.wait(st).expect("admission gate poisoned");
            }
            st.waiting -= 1;
        }
        st.inflight += 1;
        m.inflight_gauge.set(st.inflight as u64);
        Ok(Some(AdmissionPermit { db: self }))
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.inner.shards.len()
    }

    fn query(
        &self,
        src: IsdAsn,
        dst: IsdAsn,
        max_paths: usize,
        policy: Option<&PathPolicy>,
    ) -> (Arc<Vec<FullPath>>, u64) {
        let m = self.m();
        let _prof = m.telemetry.prof_scope("pathdb.query");
        let start = Instant::now();
        let snap = self.snapshot();
        let gen = snap.generation;
        let fp = policy.map(policy_fingerprint).unwrap_or(0);
        let key = (src, dst, fp, max_paths);
        let idx = self.shard_of(&key);

        // Warm fast path plus staleness triage, all under one shard lock.
        // `incr` carries the (deps, raw) state out of the lock when an
        // incremental recombination is worth attempting.
        let mut incr: Option<IncrState> = None;
        {
            let mut shard = self.inner.shards[idx].lock();
            shard.tick += 1;
            let tick = shard.tick;
            if let Some(e) = shard.entries.get_mut(&key) {
                e.last_used = tick;
                if e.generation == gen {
                    m.hits.inc();
                    let paths = e.paths.clone();
                    drop(shard);
                    self.finish(&m, start, &paths);
                    return (paths, gen);
                }
                // Entry and snapshot are at different generations: if no
                // consulted bucket's content fingerprint differs between
                // them, the combination is identical at both — serve it,
                // and fast-forward the entry when the snapshot is the
                // newer side.
                let changed: Vec<BucketDep> = e
                    .deps
                    .iter()
                    .filter(|(dep, f)| snap.store.bucket_fingerprint(*dep) != *f)
                    .map(|(dep, _)| *dep)
                    .collect();
                if changed.is_empty() {
                    if gen > e.generation {
                        e.generation = gen;
                    }
                    m.hits.inc();
                    m.revalidates.inc();
                    let paths = e.paths.clone();
                    drop(shard);
                    self.finish(&m, start, &paths);
                    return (paths, gen);
                }
                m.invalidates.inc();
                let only_core = changed
                    .iter()
                    .all(|dep| matches!(dep, BucketDep::Core { .. }));
                if only_core {
                    if let Some(raw) = &e.raw {
                        incr = Some((e.deps.clone(), raw.clone()));
                    }
                }
            } else {
                m.misses.inc();
            }
        }

        // A combine is the expensive, unbounded part of a miss; it must
        // hold one of the bounded in-flight permits. When the budget and
        // the wait queue are both exhausted the query sheds: an empty,
        // *uncached* answer the client retries later, instead of another
        // thread piling onto combine work mid-storm. Warm hits above
        // never touch the gate.
        let _permit = match self.admit(&m) {
            Ok(p) => p,
            Err(()) => {
                m.shed.inc();
                return (Arc::new(Vec::new()), gen);
            }
        };

        // Combine against the snapshot with no locks held.
        let record = incr
            .and_then(|(deps, raw)| {
                let _c = m.telemetry.prof_scope("pathdb.recombine");
                let partial = incremental_recombine(&snap.store, src, dst, max_paths, &deps, &raw);
                if partial.is_some() {
                    m.partials.inc();
                }
                partial
            })
            .unwrap_or_else(|| {
                let _c = m.telemetry.prof_scope("pathdb.combine");
                combine_paths_recorded(&snap.store, src, dst, max_paths, true)
            });
        let paths = self.install(&m, &snap, key, record, policy);
        self.finish(&m, start, &paths);
        (paths, gen)
    }

    /// Installs a combination record produced against `snap`, applying the
    /// policy filter and the raw-retention bound. Never moves an entry
    /// backwards: if a concurrent reader already installed a result from
    /// a newer snapshot, that entry is kept and our (older, still
    /// internally-consistent) paths are only returned to the caller.
    fn install(
        &self,
        m: &Metrics,
        snap: &PathSnapshot,
        key: CacheKey,
        record: CombineRecord,
        policy: Option<&PathPolicy>,
    ) -> Arc<Vec<FullPath>> {
        let CombineRecord {
            mut paths,
            deps,
            raw,
        } = record;
        if let Some(p) = policy {
            p.filter(&mut paths);
        }
        let raw = raw.filter(|pairs| {
            pairs.iter().map(|p| p.paths.len()).sum::<usize>() <= self.inner.cfg.raw_limit
        });
        let deps: Vec<(BucketDep, u64)> = deps
            .into_iter()
            .map(|dep| (dep, snap.store.bucket_fingerprint(dep)))
            .collect();
        let paths = Arc::new(paths);
        let per_shard = (self.inner.cfg.capacity / self.inner.shards.len()).max(1);
        let mut shard = self.inner.shards[self.shard_of(&key)].lock();
        shard.tick += 1;
        let tick = shard.tick;
        if shard
            .entries
            .get(&key)
            .is_some_and(|e| e.generation > snap.generation)
        {
            return paths;
        }
        if !shard.entries.contains_key(&key) && shard.entries.len() >= per_shard {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                shard.entries.remove(&oldest);
                m.evicts.inc();
            }
        }
        shard.entries.insert(
            key,
            Entry {
                generation: snap.generation,
                deps,
                paths: paths.clone(),
                raw,
                last_used: tick,
            },
        );
        paths
    }

    fn finish(&self, m: &Metrics, start: Instant, paths: &[FullPath]) {
        m.combine_ns.record(start.elapsed().as_nanos() as f64);
        m.paths_combined.add(paths.len() as u64);
    }
}

/// Recombines only the (up, down) pairs whose consulted core bucket moved,
/// reusing recorded raw output for the rest. Returns `None` when the
/// recorded raw state doesn't line up with the current buckets (shape
/// change, missing pair) — the caller then recombines fully.
///
/// Precondition (checked by the caller): the entry's up/down bucket deps
/// are unchanged, so the current up/down buckets are exactly the ones the
/// raw output was recorded against, in the same order.
fn incremental_recombine(
    store: &SegmentStore,
    src: IsdAsn,
    dst: IsdAsn,
    max_paths: usize,
    old_deps: &[(BucketDep, u64)],
    old_raw: &[PairRaw],
) -> Option<CombineRecord> {
    let old_fps: BTreeMap<BucketDep, u64> = old_deps.iter().copied().collect();
    let mut old_idx: HashMap<([u8; 32], [u8; 32]), &PairRaw> = HashMap::new();
    for pr in old_raw {
        old_idx.insert((pr.up_id, pr.down_id), pr);
    }

    let src_ups = store.up_segment_handles(src);
    let dst_downs = store.up_segment_handles(dst);
    if src_ups.is_empty() || dst_downs.is_empty() {
        return None; // shape changed under us — recombine fully
    }

    let mut out: Vec<FullPath> = Vec::new();
    let mut deps: BTreeSet<BucketDep> = BTreeSet::new();
    deps.insert(BucketDep::UpDown(src));
    deps.insert(BucketDep::UpDown(dst));
    let mut pairs: Vec<PairRaw> = Vec::with_capacity(old_raw.len());

    for u in src_ups {
        for d in dst_downs {
            let reusable = old_idx.get(&(u.id(), d.id())).filter(|pr| {
                pr.core_dep.is_none_or(|dep| {
                    store.bucket_fingerprint(dep) == old_fps.get(&dep).copied().unwrap_or(0)
                })
            });
            if let Some(pr) = reusable {
                if let Some(dep) = pr.core_dep {
                    deps.insert(dep);
                }
                out.extend(pr.paths.iter().cloned());
                pairs.push((*pr).clone()); // Arc bump, not a deep path clone
            } else {
                let start = out.len();
                let core_dep = combine_pair(store, src, dst, u, d, &mut |p| {
                    if let Ok(p) = p {
                        out.push(p);
                    }
                });
                if let Some(dep) = core_dep {
                    deps.insert(dep);
                }
                pairs.push(PairRaw {
                    up_id: u.id(),
                    down_id: d.id(),
                    core_dep,
                    paths: std::sync::Arc::new(out[start..].to_vec()),
                });
            }
        }
    }

    Some(CombineRecord {
        paths: finalize(out, max_paths),
        deps: deps.into_iter().collect(),
        raw: Some(pairs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::{BeaconConfig, BeaconEngine};
    use crate::combine::combine_paths;
    use crate::graph::{ControlGraph, LinkType};
    use crate::policy::{Acl, HopPredicate, PathPolicy};
    use scion_proto::addr::ia;

    /// Three meshed cores, four leaves, plus a leaf peering link.
    fn mesh() -> SegmentStore {
        let mut g = ControlGraph::new();
        g.add_as(ia("71-1"), true);
        g.add_as(ia("71-2"), true);
        g.add_as(ia("71-3"), true);
        for (core, leaf) in [
            ("71-1", "71-10"),
            ("71-1", "71-11"),
            ("71-2", "71-20"),
            ("71-3", "71-30"),
        ] {
            g.add_as(ia(leaf), false);
            g.connect(ia(core), ia(leaf), LinkType::Child).unwrap();
        }
        g.connect(ia("71-1"), ia("71-2"), LinkType::Core).unwrap();
        g.connect(ia("71-2"), ia("71-3"), LinkType::Core).unwrap();
        g.connect(ia("71-1"), ia("71-3"), LinkType::Core).unwrap();
        g.connect(ia("71-10"), ia("71-20"), LinkType::Peer).unwrap();
        BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap()
    }

    fn assert_matches_fresh(db: &EpochPathDb, src: &str, dst: &str) {
        let memo = db.paths(ia(src), ia(dst), 100);
        let snap = db.snapshot();
        let fresh = combine_paths(snap.store(), ia(src), ia(dst), 100);
        assert_eq!(memo, fresh, "{src}->{dst} memoized != fresh");
    }

    #[test]
    fn warm_queries_hit_and_match_fresh() {
        let db = EpochPathDb::new(mesh());
        for _ in 0..3 {
            assert_matches_fresh(&db, "71-10", "71-20");
            assert_matches_fresh(&db, "71-10", "71-2");
            assert_matches_fresh(&db, "71-1", "71-3");
        }
        assert_eq!(db.cached_entries(), 3);
        let m = db.m();
        assert_eq!(m.misses.get(), 3);
        assert!(m.hits.get() >= 6, "hits: {}", m.hits.get());
        assert_eq!(m.invalidates.get(), 0);
    }

    #[test]
    fn store_mutation_republishes_and_changes_results() {
        let db = EpochPathDb::new(mesh());
        let before = db.paths(ia("71-10"), ia("71-20"), 100);
        assert!(!before.is_empty());
        let gen_before = db.generation();
        // Kill the interface core 71-2 uses toward leaf 71-20.
        let down = db.snapshot().store().up_segment_handles(ia("71-20"))[0].clone();
        let ifid = down.entries[0].hop.cons_egress;
        let killed = db.mutate_store(|s| s.invalidate_interface(ia("71-2"), ifid));
        assert!(killed > 0);
        assert!(db.generation() > gen_before, "mutation must publish");
        let after = db.paths(ia("71-10"), ia("71-20"), 100);
        let fresh = combine_paths(db.snapshot().store(), ia("71-10"), ia("71-20"), 100);
        assert_eq!(after, fresh);
        assert_ne!(before, after, "mutation must change the result");
        assert!(db.m().invalidates.get() >= 1);
    }

    #[test]
    fn unrelated_mutation_revalidates_without_recombination() {
        let db = EpochPathDb::new(mesh());
        db.paths(ia("71-10"), ia("71-20"), 100);
        // Mutate a bucket the 10->20 combination never consults.
        let seg30 = db.snapshot().store().up_segment_handles(ia("71-30"))[0].clone();
        let ifid = seg30.entries[0].hop.cons_egress;
        assert!(db.mutate_store(|s| s.invalidate_interface(ia("71-3"), ifid)) > 0);
        assert_matches_fresh(&db, "71-10", "71-20");
        let m = db.m();
        assert_eq!(m.revalidates.get(), 1);
        assert_eq!(m.invalidates.get(), 0);
    }

    #[test]
    fn old_snapshot_stays_readable_after_publish() {
        let db = EpochPathDb::new(mesh());
        let old = db.snapshot();
        let old_fresh = combine_paths(old.store(), ia("71-10"), ia("71-20"), 100);
        let down = db.snapshot().store().up_segment_handles(ia("71-20"))[0].clone();
        let ifid = down.entries[0].hop.cons_egress;
        db.mutate_store(|s| s.invalidate_interface(ia("71-2"), ifid));
        // The retained snapshot is frozen: same generation, same result.
        assert_eq!(
            combine_paths(old.store(), ia("71-10"), ia("71-20"), 100),
            old_fresh
        );
        assert!(db.generation() > old.generation());
    }

    #[test]
    fn install_never_moves_an_entry_backwards() {
        let db = EpochPathDb::new(mesh());
        let old = db.snapshot();
        // Publish a newer generation and warm the cache at it.
        let down = db.snapshot().store().up_segment_handles(ia("71-20"))[0].clone();
        let ifid = down.entries[0].hop.cons_egress;
        db.mutate_store(|s| s.invalidate_interface(ia("71-2"), ifid));
        let new_paths = db.paths(ia("71-10"), ia("71-20"), 100);
        // Simulate a straggler reader installing from the old snapshot.
        let record = combine_paths_recorded(old.store(), ia("71-10"), ia("71-20"), 100, true);
        let m = db.m();
        let served = db.install(&m, &old, (ia("71-10"), ia("71-20"), 0, 100), record, None);
        // The straggler gets its own (old-snapshot-consistent) result…
        assert_eq!(
            *served,
            combine_paths(old.store(), ia("71-10"), ia("71-20"), 100)
        );
        // …but the cache still serves the newer generation's paths.
        assert_eq!(db.paths(ia("71-10"), ia("71-20"), 100), new_paths);
    }

    #[test]
    fn crossing_invalidation_drops_only_affected_entries() {
        let db = EpochPathDb::new(mesh());
        let p1020 = db.paths(ia("71-10"), ia("71-20"), 100);
        db.paths(ia("71-10"), ia("71-30"), 100);
        assert_eq!(db.cached_entries(), 2);
        let (ia_down, ifid) = *p1020[0]
            .interfaces()
            .iter()
            .find(|(a, _)| *a == ia("71-20"))
            .unwrap();
        assert_eq!(db.invalidate_paths_crossing(ia_down, ifid), 1);
        assert_eq!(db.cached_entries(), 1);
        assert_eq!(db.invalidate_paths_crossing(ia("71-2"), 999), 0);
        assert_matches_fresh(&db, "71-10", "71-20");
    }

    #[test]
    fn policy_keys_do_not_alias() {
        let db = EpochPathDb::new(mesh());
        let deny_core2 = PathPolicy {
            acl: Acl::default().deny("71-2".parse::<HopPredicate>().unwrap()),
            ..Default::default()
        };
        let unfiltered = db.paths(ia("71-10"), ia("71-20"), 100);
        let filtered = db.paths_filtered(ia("71-10"), ia("71-20"), 100, &deny_core2);
        assert!(filtered.len() < unfiltered.len());
        let mut expect = combine_paths(db.snapshot().store(), ia("71-10"), ia("71-20"), 100);
        deny_core2.filter(&mut expect);
        assert_eq!(filtered, expect);
        // Warm repeat of both keys.
        assert_eq!(db.paths(ia("71-10"), ia("71-20"), 100), unfiltered);
        assert_eq!(
            db.paths_filtered(ia("71-10"), ia("71-20"), 100, &deny_core2),
            filtered
        );
    }

    #[test]
    fn eviction_bounds_each_shard() {
        let db = EpochPathDb::with_config(
            mesh(),
            EpochConfig {
                shards: 1,
                capacity: 2,
                ..Default::default()
            },
        );
        db.paths(ia("71-10"), ia("71-20"), 100);
        db.paths(ia("71-10"), ia("71-30"), 100);
        db.paths(ia("71-20"), ia("71-30"), 100);
        assert_eq!(db.cached_entries(), 2);
        assert_eq!(db.m().evicts.get(), 1);
        // Evicted key recombines and still matches fresh.
        assert_matches_fresh(&db, "71-10", "71-20");
    }

    #[test]
    fn admission_disabled_by_default_never_sheds() {
        let db = EpochPathDb::new(mesh());
        db.paths(ia("71-10"), ia("71-20"), 100);
        db.paths(ia("71-10"), ia("71-30"), 100);
        assert_eq!(db.m().shed.get(), 0);
        assert_eq!(db.m().admission_waits.get(), 0);
    }

    #[test]
    fn exhausted_budget_with_full_queue_sheds_without_caching() {
        let db = EpochPathDb::with_config(
            mesh(),
            EpochConfig {
                max_inflight: 1,
                max_waiters: 0,
                ..Default::default()
            },
        );
        // Hold the only permit, then query: budget exhausted and the
        // queue full, so the miss sheds an empty, uncached answer.
        let m = db.m();
        let permit = db.admit(&m).unwrap();
        assert!(permit.is_some());
        let (served, gen) = db.paths_with_generation(ia("71-10"), ia("71-20"), 100);
        assert!(served.is_empty(), "shed queries serve an empty answer");
        assert_eq!(gen, db.generation());
        assert_eq!(m.shed.get(), 1);
        assert_eq!(db.cached_entries(), 0, "shed results must not be cached");
        drop(permit);
        // With the permit returned, the same query combines and caches.
        assert!(!db.paths(ia("71-10"), ia("71-20"), 100).is_empty());
        assert_eq!(db.cached_entries(), 1);
        assert_eq!(m.shed.get(), 1);
    }

    #[test]
    fn waiters_queue_until_the_budget_frees() {
        let db = EpochPathDb::with_config(
            mesh(),
            EpochConfig {
                max_inflight: 1,
                max_waiters: 8,
                ..Default::default()
            },
        );
        let m = db.m();
        let permit = db.admit(&m).unwrap();
        let reader = {
            let db = db.clone();
            std::thread::spawn(move || db.paths(ia("71-10"), ia("71-20"), 100))
        };
        // The reader misses, reaches the gate, and queues.
        while m.admission_waits.get() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(permit);
        let paths = reader.join().unwrap();
        assert!(!paths.is_empty(), "queued query completes once admitted");
        assert_eq!(m.shed.get(), 0);
        assert_eq!(db.cached_entries(), 1);
    }

    #[test]
    fn prefetch_warms_the_cache_identically_to_queries() {
        let db = EpochPathDb::new(mesh());
        let pairs = [
            (ia("71-10"), ia("71-20")),
            (ia("71-10"), ia("71-30")),
            (ia("71-11"), ia("71-20")),
        ];
        assert_eq!(db.prefetch(&pairs, 100), 3);
        assert_eq!(db.cached_entries(), 3);
        // Re-prefetch at the same generation is a no-op.
        assert_eq!(db.prefetch(&pairs, 100), 0);
        for (src, dst) in pairs {
            let snap = db.snapshot();
            assert_eq!(
                db.paths(src, dst, 100),
                combine_paths(snap.store(), src, dst, 100)
            );
        }
    }

    #[test]
    fn incremental_recombination_still_fires_after_core_change() {
        let db = EpochPathDb::new(mesh());
        db.paths(ia("71-10"), ia("71-30"), 100);
        let seg = {
            use crate::segment::{AsSecrets, SegmentBuilder, SegmentType};
            let mut b = SegmentBuilder::originate(SegmentType::Core, 1_700_000_123, 7);
            b.extend(&AsSecrets::derive(ia("71-3")), 0, 91, &[]);
            b.extend(&AsSecrets::derive(ia("71-1")), 92, 0, &[]);
            b.finish()
        };
        db.mutate_store(|s| {
            s.register_core(seg);
        });
        let memo = db.paths(ia("71-10"), ia("71-30"), 100);
        assert_eq!(
            memo,
            combine_paths(db.snapshot().store(), ia("71-10"), ia("71-30"), 100)
        );
        let m = db.m();
        assert_eq!(m.invalidates.get(), 1);
        assert_eq!(m.partials.get(), 1, "expected incremental recombination");
    }
}
