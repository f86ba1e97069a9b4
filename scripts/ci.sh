#!/usr/bin/env bash
# Local CI gate: everything the repo requires before a merge.
# Usage: scripts/ci.sh   (run from anywhere; cds to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# Feature matrix: the trace feature must compile out cleanly everywhere
# (metrics stay, events vanish), and the telemetry crate's own tests must
# pass in both configurations.
echo "==> cargo build --workspace --no-default-features (trace compiled out)"
cargo build --workspace --no-default-features

echo "==> cargo test -q -p sciera-telemetry --no-default-features"
cargo test -q -p sciera-telemetry --no-default-features

# Scale-observatory matrix: the `profile` feature (off by default) must
# build through the facade's forwarding chain, and the telemetry crate's
# tests must pass with the profiler compiled in. (`--workspace` would
# fail here: member crates without a `profile` feature reject the flag,
# so the facade package drives the forwarding.)
echo "==> cargo build --features profile (profiler compiled in)"
cargo build --features profile

echo "==> cargo test -q -p sciera-telemetry --features profile"
cargo test -q -p sciera-telemetry --features profile

# The profiler attribution proptest must hold in all three configs: the
# default run is part of `cargo test -q` above.
echo "==> cargo test -q --test prop_profiler --features profile"
cargo test -q --test prop_profiler --features profile

echo "==> cargo test -q --test prop_profiler --no-default-features"
cargo test -q --test prop_profiler --no-default-features

# Parallel-control-plane matrix: the `parallel` feature (off by default;
# worker-pool beacon verification and prefetch combination) must build
# through the facade's forwarding chain and keep the control crate's own
# tests green with the pool engaged.
echo "==> cargo build --features parallel (worker pool compiled in)"
cargo build --features parallel

echo "==> cargo test -q -p scion-control --features parallel"
cargo test -q -p scion-control --features parallel

# The epoch-snapshot concurrency stress test (N readers + 1 writer, every
# result validated against the store generation it was served from) must
# hold in both configs; the default run is part of `cargo test -q` above.
echo "==> cargo test -q --test concurrency --features parallel"
cargo test -q --test concurrency --features parallel

# The differential fast-path proptest must hold in both feature configs.
echo "==> cargo test -q --test prop_fastpath --no-default-features"
cargo test -q --test prop_fastpath --no-default-features

# Same for the memoized path-database proptest (EpochPathDb against a
# fresh `combine_paths`): the default-features run is part of
# `cargo test -q` above, the parallel run pins the worker-pool prefetch
# byte-for-byte against the single-threaded combinator.
echo "==> cargo test -q --test prop_pathdb --no-default-features"
cargo test -q --test prop_pathdb --no-default-features

echo "==> cargo test -q --test prop_pathdb --features parallel"
cargo test -q --test prop_pathdb --features parallel

# And for the batched-pipeline differential proptest: the batch engine
# must match the sequential engine with tracing compiled out too.
echo "==> cargo test -q --test prop_batch --no-default-features"
cargo test -q --test prop_batch --no-default-features

# Parallel-propagation differential proptest: the compute-parallel /
# commit-sequential beaconing pipeline must be byte-for-byte invisible
# (segments, retained slots, rounds, counters) in every feature config.
# The default-features run is part of `cargo test -q` above.
echo "==> cargo test -q --test prop_propagate --no-default-features"
cargo test -q --test prop_propagate --no-default-features

echo "==> cargo test -q --test prop_propagate --features parallel"
cargo test -q --test prop_propagate --features parallel

# The path-dynamics dataset exporter proptest (JSONL round-trip, epoch
# monotonicity, churn/board 1:1, seeded byte-replay) must hold in both
# feature configs.
echo "==> cargo test -q --test prop_dynamics --no-default-features"
cargo test -q --test prop_dynamics --no-default-features

# Benchmarks must at least compile; the A/B harness is run manually.
echo "==> cargo bench --no-run"
cargo bench --no-run

# Profiler-off overhead guard: the disabled scale-observatory plumbing
# (a no-op ProfScope on the router batch path) must stay within
# measurement noise of the raw path.
echo "==> cargo bench -p sciera-bench --bench profiler_overhead"
cargo bench -p sciera-bench --bench profiler_overhead

# Path-database overhead guard: at K=1 (single-threaded mode) a warm
# EpochPathDb lookup — published-pointer read, shard hash, shard lock,
# path-list copy — must cost under 5% of the fresh `combine_paths` it
# memoizes (median of interleaved rounds).
echo "==> cargo bench -p sciera-bench --bench epoch_overhead"
cargo bench -p sciera-bench --bench epoch_overhead

# Parallel-propagation overhead guard: at N=100 (batches too small for
# the pool to win) the two-phase pipeline must stay within noise of the
# sequential walk, and its output must be byte-identical.
echo "==> cargo bench -p sciera-bench --bench propagate_overhead --features parallel"
cargo bench -p sciera-bench --bench propagate_overhead --features parallel

# Bounded smoke sweep: N=100 and N=1000 through the full scale pipeline
# (synthesis -> beaconing -> path database -> router load -> sim stage) with the
# profiler and the worker pool engaged, written to target/ so it never
# clobbers the committed BENCH_scale.json. At N=1000 the parallel
# pipeline must have dethroned `beacon.propagate` as the bottleneck —
# that regression is exactly what this PR's tentpole removed.
echo "==> scale_sweep smoke (N=100,1000; profile+parallel)"
# Absolute output path: cargo runs the bench binary from crates/bench.
SCIERA_SCALE_NS=100,1000 SCIERA_SCALE_OUT="$PWD/target/scale_smoke.json" \
    cargo bench -p sciera-bench --bench scale_sweep --features profile,parallel
test -s target/scale_smoke.json
if grep -q '"bottleneck": "beacon.propagate"' target/scale_smoke.json; then
    echo "scale smoke: beacon.propagate is a bottleneck again" >&2
    exit 1
fi

# Dynamics-campaign smoke: a short seeded campaign over a 40-AS synthetic
# deployment. The bench itself asserts schema validity and byte-for-byte
# seeded replay; outputs go to target/ so the committed
# BENCH_dynamics.json (full 200-epoch run) is never clobbered.
echo "==> dynamics_campaign smoke (24 epochs, 40 ASes)"
SCIERA_DYN_EPOCHS=24 SCIERA_DYN_ASES=40 SCIERA_DYN_PAIRS=3 \
    SCIERA_DYN_OUT="$PWD/target/dynamics_smoke" \
    SCIERA_DYN_BENCH_OUT="$PWD/target/dynamics_smoke/bench.json" \
    cargo bench -p sciera-bench --bench dynamics_campaign
test -s target/dynamics_smoke/paths.jsonl
test -s target/dynamics_smoke/events.jsonl
test -s target/dynamics_smoke/bench.json

# Rustdoc gate: every intra-doc link must resolve, so a doc reference to
# a deleted item fails here instead of rotting silently.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

# The dataplane and wire-format crates carry the forwarding hot path, the
# control crate the combination/beaconing hot path, netsim the frame
# pool + dispatch loop under the batched pipeline, and topology the
# synthetic-generator inner loops the scale sweep leans on: hold them to
# the allocation-hygiene lints as hard errors.
echo "==> cargo clippy -p scion-dataplane -p scion-proto -p scion-control -p netsim -p sciera-topology (hot-path lints)"
cargo clippy -p scion-dataplane -p scion-proto -p scion-control -p netsim -p sciera-topology -- \
    -D warnings -D clippy::redundant_clone -D clippy::needless_collect

echo "==> ci OK"
