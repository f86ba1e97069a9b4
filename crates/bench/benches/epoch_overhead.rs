//! Interleaved A/B guard: single-threaded warm lookups through the
//! epoch-snapshot [`EpochPathDb`] must stay a small fraction of what a
//! fresh `combine_paths` costs for the same pairs — the oracle the
//! database memoizes. A warm hit pays a published-pointer read, a shard
//! hash, one shard lock and a path-list copy; this guard pins that
//! machinery well below the combination it replaces, so the memoization
//! never degrades into recombining on every lookup. Rounds interleave
//! (fresh, epoch, fresh, epoch, …) so frequency scaling and cache
//! pollution bias neither side.

use std::time::Instant;

use criterion::black_box;
use scion_control::beacon::{BeaconConfig, BeaconEngine};
use scion_control::combine::combine_paths;
use scion_control::epoch::{EpochConfig, EpochPathDb};
use scion_proto::addr::IsdAsn;

/// Warm-lookup / fresh-combine time ratio at or above which the guard
/// fails.
const MAX_RATIO: f64 = 0.05;
const ROUNDS: usize = 21;
const QUERIES_PER_ROUND: usize = 400;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn setup() -> (EpochPathDb, Vec<(IsdAsn, IsdAsn)>) {
    let built = sciera_topology::synth::synthesize(&sciera_topology::synth::SynthConfig::sized(60));
    let store = BeaconEngine::new(&built.graph, 1_700_000_000, BeaconConfig::default())
        .run()
        .expect("synthetic topology beacons");
    let db = EpochPathDb::with_config(store, EpochConfig::for_topology(60));

    let leaves: Vec<IsdAsn> = built
        .graph
        .ases()
        .filter(|a| !a.core)
        .map(|a| a.ia)
        .collect();
    let pairs: Vec<(IsdAsn, IsdAsn)> = leaves
        .iter()
        .zip(leaves.iter().rev())
        .filter(|(a, b)| a != b)
        .take(8)
        .map(|(a, b)| (*a, *b))
        .collect();
    (db, pairs)
}

fn time_fresh(db: &EpochPathDb, pairs: &[(IsdAsn, IsdAsn)]) -> f64 {
    let snap = db.snapshot();
    let start = Instant::now();
    for i in 0..QUERIES_PER_ROUND {
        let (src, dst) = pairs[i % pairs.len()];
        black_box(combine_paths(snap.store(), src, dst, 16));
    }
    start.elapsed().as_secs_f64()
}

fn time_epoch(db: &EpochPathDb, pairs: &[(IsdAsn, IsdAsn)]) -> f64 {
    let start = Instant::now();
    for i in 0..QUERIES_PER_ROUND {
        let (src, dst) = pairs[i % pairs.len()];
        black_box(db.paths(src, dst, 16));
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let (db, pairs) = setup();

    // Differential sanity before timing anything: identical answers.
    for &(s, d) in &pairs {
        assert_eq!(
            db.paths(s, d, 16),
            combine_paths(db.snapshot().store(), s, d, 16),
            "epoch database and fresh combination diverged for {s}->{d}"
        );
    }

    // Warm-up: cache fully hot, both code paths faulted in.
    time_fresh(&db, &pairs);
    time_epoch(&db, &pairs);

    let mut ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let f = time_fresh(&db, &pairs);
        let e = time_epoch(&db, &pairs);
        ratios.push(e / f);
    }
    let worst = ratios.iter().copied().fold(0.0, f64::max);
    let ratio = median(ratios);
    println!(
        "epoch_overhead: warm epoch / fresh combine A/B {ratio:.4} \
         (median of {ROUNDS} rounds, worst {worst:.4}, limit {MAX_RATIO})"
    );
    assert!(
        ratio < MAX_RATIO,
        "warm epoch lookups cost {ratio:.4}x of a fresh combine_paths — \
         the cache no longer saves the combination it memoizes"
    );
}
