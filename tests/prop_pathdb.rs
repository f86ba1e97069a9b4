//! Differential property tests for the memoized path database: under any
//! interleaving of segment registrations, link-kill invalidations, and
//! path queries on a random topology, [`EpochPathDb`] must return
//! byte-for-byte what the reference combinator `combine_paths` computes
//! fresh from the published snapshot, and what a mutex-guarded reference
//! that applies the same mutations to its own copy of the store serves.
//! This pins the generation-invalidation scheme (a stale cache hit shows
//! up as a divergence immediately after a mutation) and snapshot
//! publication (a mutation that never reaches the published snapshot
//! shows up against the independent store).

use std::collections::HashMap;
use std::sync::Mutex;

use proptest::prelude::*;

use sciera::control::beacon::{BeaconConfig, BeaconEngine};
use sciera::control::combine::combine_paths;
use sciera::control::epoch::EpochPathDb;
use sciera::control::fullpath::FullPath;
use sciera::control::graph::{ControlGraph, LinkType};
use sciera::control::segment::{PathSegment, SegmentType};
use sciera::control::store::SegmentStore;
use sciera::prelude::*;

/// A random two-tier topology: cores in a ring plus random extra core
/// links, leaves each multi-homed to 1–2 cores, optional peerings.
#[derive(Debug, Clone)]
struct RandomTopo {
    n_core: usize,
    n_leaf: usize,
    core_edges: Vec<(usize, usize)>,
    leaf_parents: Vec<Vec<usize>>,
    peerings: Vec<(usize, usize)>,
}

/// One step of the interleaved mutation/query schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Register the i-th segment of the rich pool into the store.
    Register(u8),
    /// Kill one interface (AS pick, interface pick) — removes every
    /// segment crossing it and bumps the generation.
    Kill(u8, u8),
    /// Query one ordered pair and compare against the reference.
    Query(u8, u8),
}

fn arb_topo() -> impl Strategy<Value = RandomTopo> {
    (2usize..5, 2usize..6).prop_flat_map(|(n_core, n_leaf)| {
        let core_edges = prop::collection::vec((0..n_core, 0..n_core), 0..n_core * 2);
        let leaf_parents =
            prop::collection::vec(prop::collection::vec(0..n_core, 1..3), n_leaf..=n_leaf);
        let peerings = prop::collection::vec((0..n_leaf, 0..n_leaf), 0..3);
        (Just((n_core, n_leaf)), core_edges, leaf_parents, peerings).prop_map(
            |((n_core, n_leaf), core_edges, leaf_parents, peerings)| RandomTopo {
                n_core,
                n_leaf,
                core_edges,
                leaf_parents,
                peerings,
            },
        )
    })
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(Op::Register),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Kill(a, b)),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Query(a, b)),
        ],
        1..32,
    )
}

fn core_ia(i: usize) -> IsdAsn {
    ia(&format!("71-{}", 100 + i))
}
fn leaf_ia(i: usize) -> IsdAsn {
    ia(&format!("71-{}", 300 + i))
}

fn build(t: &RandomTopo) -> Option<ControlGraph> {
    let mut g = ControlGraph::new();
    for i in 0..t.n_core {
        g.add_as(core_ia(i), true);
    }
    for i in 0..t.n_leaf {
        g.add_as(leaf_ia(i), false);
    }
    for i in 0..t.n_core.saturating_sub(1) {
        g.connect(core_ia(i), core_ia(i + 1), LinkType::Core).ok()?;
    }
    for &(a, b) in &t.core_edges {
        if a != b {
            g.connect(core_ia(a), core_ia(b), LinkType::Core).ok()?;
        }
    }
    for (l, parents) in t.leaf_parents.iter().enumerate() {
        for &p in parents {
            g.connect(core_ia(p), leaf_ia(l), LinkType::Child).ok()?;
        }
    }
    for &(a, b) in &t.peerings {
        if a != b {
            g.connect(leaf_ia(a), leaf_ia(b), LinkType::Peer).ok()?;
        }
    }
    g.validate().ok()?;
    Some(g)
}

/// Registers one pooled segment into a store.
fn register_into(store: &mut SegmentStore, seg: &PathSegment) {
    match seg.seg_type {
        SegmentType::Core => {
            store.register_core(seg.clone());
        }
        SegmentType::UpDown => {
            store.register_up_down(seg.clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The core differential property: memoized == fresh, always. Every
    /// query must equal `combine_paths` against the snapshot published
    /// after the preceding mutations, and after every mutation each pair
    /// queried so far (each cached entry) is re-checked, so a stale hit
    /// shows up at the first mutation that should have changed it. Built
    /// with the `parallel` feature
    /// the final prefetch fans combination over the worker pool, so
    /// running this test in every config pins the parallel path against
    /// the single-threaded combinator.
    #[test]
    fn pathdb_matches_reference_under_mutation(
        topo in arb_topo(),
        ops in arb_ops(),
        final_picks in prop::collection::vec((any::<u8>(), any::<u8>()), 4),
    ) {
        let Some(graph) = build(&topo) else {
            return Ok(()); // degenerate spec: nothing to check
        };
        // Sparse starting store; a richer beacon run provides the pool of
        // segments the Register ops add incrementally.
        let sparse = BeaconEngine::new(&graph, 1_700_000_000, BeaconConfig {
            candidates_per_origin: 2,
            ..Default::default()
        })
        .run()
        .expect("sparse beaconing converges");
        let rich = BeaconEngine::new(&graph, 1_700_000_000, BeaconConfig {
            candidates_per_origin: 8,
            ..Default::default()
        })
        .run()
        .expect("rich beaconing converges");
        let pool: Vec<PathSegment> = rich.all_segments().cloned().collect();
        prop_assume!(!pool.is_empty());

        let db = EpochPathDb::new(sparse);
        let all: Vec<IsdAsn> = graph.ases().map(|a| a.ia).collect();
        let mut queried: Vec<(IsdAsn, IsdAsn)> = Vec::new();

        for op in &ops {
            let mutated = match *op {
                Op::Register(i) => {
                    let seg = &pool[i as usize % pool.len()];
                    db.mutate_store(|s| register_into(s, seg));
                    true
                }
                Op::Kill(a, b) => {
                    let node = graph.as_node(all[a as usize % all.len()]).unwrap();
                    if !node.interfaces.is_empty() {
                        let ifid = node.interfaces[b as usize % node.interfaces.len()].id;
                        db.mutate_store(|s| s.invalidate_interface(node.ia, ifid));
                    }
                    true
                }
                Op::Query(s, d) => {
                    let (s, d) = (all[s as usize % all.len()], all[d as usize % all.len()]);
                    if s == d {
                        continue;
                    }
                    let memoized = db.paths(s, d, 64);
                    let fresh = combine_paths(db.snapshot().store(), s, d, 64);
                    prop_assert_eq!(memoized, fresh, "divergence for {}->{}", s, d);
                    if !queried.contains(&(s, d)) {
                        queried.push((s, d));
                    }
                    false
                }
            };
            if mutated {
                let snap = db.snapshot();
                for &(s, d) in &queried {
                    let memoized = db.paths(s, d, 64);
                    let fresh = combine_paths(snap.store(), s, d, 64);
                    prop_assert_eq!(memoized, fresh, "stale entry for {}->{}", s, d);
                }
            }
        }
        // Final sweep: warm the remaining pairs in one prefetch batch (the
        // worker-pool path under `parallel`), then check that repeated
        // queries (cache hits) are stable and still match fresh.
        let pairs: Vec<(IsdAsn, IsdAsn)> = final_picks
            .iter()
            .map(|&(s, d)| (all[s as usize % all.len()], all[d as usize % all.len()]))
            .filter(|(s, d)| s != d)
            .collect();
        db.prefetch(&pairs, 64);
        for &(s, d) in &pairs {
            let memoized = db.paths(s, d, 64);
            let again = db.paths(s, d, 64);
            prop_assert_eq!(&memoized, &again, "warm hit unstable for {}->{}", s, d);
            let fresh = combine_paths(db.snapshot().store(), s, d, 64);
            prop_assert_eq!(memoized, fresh, "final divergence for {}->{}", s, d);
        }
    }
}

/// The simplest correct memoized path database: one mutex over its own
/// store and a result map that every mutation clears wholesale. It shares
/// no cache, generation or snapshot code with [`EpochPathDb`].
struct MutexReference {
    inner: Mutex<(SegmentStore, HashMap<(IsdAsn, IsdAsn), Vec<FullPath>>)>,
}

impl MutexReference {
    fn new(store: SegmentStore) -> Self {
        MutexReference {
            inner: Mutex::new((store, HashMap::new())),
        }
    }

    fn mutate_store(&self, f: impl FnOnce(&mut SegmentStore)) {
        let mut guard = self.inner.lock().unwrap();
        f(&mut guard.0);
        guard.1.clear();
    }

    fn paths(&self, src: IsdAsn, dst: IsdAsn) -> Vec<FullPath> {
        let mut guard = self.inner.lock().unwrap();
        let (store, cache) = &mut *guard;
        cache
            .entry((src, dst))
            .or_insert_with(|| combine_paths(store, src, dst, 64))
            .clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The epoch-snapshot database must track the mutex reference exactly:
    /// under the same interleaving of registrations, kills and queries on
    /// stores that start identical, every [`EpochPathDb`] query equals both
    /// the fresh combinator against its own published snapshot AND the
    /// [`MutexReference`] answer, which is computed from a store the
    /// database never touches. Built with the `parallel` feature the
    /// epoch side fans prefetch combination over the worker pool, so
    /// running this test in every config pins the parallel path against
    /// the single-threaded reference.
    #[test]
    fn epoch_pathdb_matches_mutex_reference_under_mutation(
        topo in arb_topo(),
        ops in arb_ops(),
        final_picks in prop::collection::vec((any::<u8>(), any::<u8>()), 4),
    ) {
        let Some(graph) = build(&topo) else {
            return Ok(()); // degenerate spec: nothing to check
        };
        let sparse = BeaconEngine::new(&graph, 1_700_000_000, BeaconConfig {
            candidates_per_origin: 2,
            ..Default::default()
        })
        .run()
        .expect("sparse beaconing converges");
        let rich = BeaconEngine::new(&graph, 1_700_000_000, BeaconConfig {
            candidates_per_origin: 8,
            ..Default::default()
        })
        .run()
        .expect("rich beaconing converges");
        let pool: Vec<PathSegment> = rich.all_segments().cloned().collect();
        prop_assume!(!pool.is_empty());

        let edb = EpochPathDb::new(sparse.clone());
        let mref = MutexReference::new(sparse);
        let all: Vec<IsdAsn> = graph.ases().map(|a| a.ia).collect();

        for op in &ops {
            match *op {
                Op::Register(i) => {
                    let seg = &pool[i as usize % pool.len()];
                    edb.mutate_store(|s| register_into(s, seg));
                    mref.mutate_store(|s| register_into(s, seg));
                }
                Op::Kill(a, b) => {
                    let node = graph.as_node(all[a as usize % all.len()]).unwrap();
                    if !node.interfaces.is_empty() {
                        let ifid = node.interfaces[b as usize % node.interfaces.len()].id;
                        edb.mutate_store(|s| s.invalidate_interface(node.ia, ifid));
                        mref.mutate_store(|s| {
                            s.invalidate_interface(node.ia, ifid);
                        });
                    }
                }
                Op::Query(s, d) => {
                    let (s, d) = (all[s as usize % all.len()], all[d as usize % all.len()]);
                    if s == d {
                        continue;
                    }
                    let memoized = edb.paths(s, d, 64);
                    let snap = edb.snapshot();
                    let fresh = combine_paths(snap.store(), s, d, 64);
                    prop_assert_eq!(&memoized, &fresh, "epoch != fresh for {}->{}", s, d);
                    let mutex_ref = mref.paths(s, d);
                    prop_assert_eq!(memoized, mutex_ref, "epoch != mutex for {}->{}", s, d);
                }
            }
        }
        // Final prefetch sweep: warm the remaining pairs in one batch (the
        // worker-pool path under `parallel`), then compare each byte-for-byte
        // against the sequential mutex reference.
        let pairs: Vec<(IsdAsn, IsdAsn)> = final_picks
            .iter()
            .map(|&(s, d)| (all[s as usize % all.len()], all[d as usize % all.len()]))
            .filter(|(s, d)| s != d)
            .collect();
        edb.prefetch(&pairs, 64);
        for &(s, d) in &pairs {
            let memoized = edb.paths(s, d, 64);
            prop_assert_eq!(
                &memoized,
                &mref.paths(s, d),
                "prefetched epoch != mutex for {}->{}", s, d
            );
            let snap = edb.snapshot();
            prop_assert_eq!(
                memoized,
                combine_paths(snap.store(), s, d, 64),
                "prefetched epoch != fresh for {}->{}", s, d
            );
        }
    }
}

/// A store mutation must flush affected cached entries: after killing an
/// interface every path of a cached pair crosses, the next query reflects
/// the removal (and still matches the reference).
#[test]
fn store_mutation_flushes_affected_entries() {
    let mut g = ControlGraph::new();
    g.add_as(ia("71-100"), true);
    g.add_as(ia("71-101"), true);
    g.add_as(ia("71-300"), false);
    g.add_as(ia("71-301"), false);
    g.connect(ia("71-100"), ia("71-101"), LinkType::Core)
        .unwrap();
    // 71-300 is dual-homed; 71-301 hangs off 71-101 only.
    let (up_if, _) = g
        .connect(ia("71-100"), ia("71-300"), LinkType::Child)
        .unwrap();
    g.connect(ia("71-101"), ia("71-300"), LinkType::Child)
        .unwrap();
    g.connect(ia("71-101"), ia("71-301"), LinkType::Child)
        .unwrap();
    g.validate().unwrap();

    let store = BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default())
        .run()
        .unwrap();
    let db = EpochPathDb::new(store);

    let before = db.paths(ia("71-300"), ia("71-301"), 64);
    assert!(!before.is_empty(), "pair starts connected");
    let via_100: Vec<_> = before
        .iter()
        .filter(|p| p.interfaces().contains(&(ia("71-100"), up_if)))
        .collect();
    assert!(!via_100.is_empty(), "some path uses the 71-100 homing");

    // Kill 71-100's child interface toward 71-300: up segments through it
    // vanish from the store; the cached entry is generation-stale.
    let removed = db.mutate_store(|s| s.invalidate_interface(ia("71-100"), up_if));
    assert!(
        removed > 0,
        "segments crossing the killed interface removed"
    );

    let after = db.paths(ia("71-300"), ia("71-301"), 64);
    assert_eq!(
        after,
        combine_paths(db.snapshot().store(), ia("71-300"), ia("71-301"), 64),
        "post-mutation query must match the reference"
    );
    assert!(
        after
            .iter()
            .all(|p| !p.interfaces().contains(&(ia("71-100"), up_if))),
        "no surviving path crosses the killed interface"
    );
    assert!(
        !after.is_empty(),
        "the 71-101 homing keeps the pair connected"
    );
    assert_ne!(before, after, "the flushed entry was recombined");
}
