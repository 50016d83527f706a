#!/usr/bin/env sh
# Offline CI gate: formatting, lints, rustdoc, release build, full test suite.
# The workspace has zero registry dependencies, so every step runs
# without network access.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc warnings are errors: an intra-doc link to a renamed or deleted
# item (or to a private one from public docs) fails the gate.
echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

# Analyze tier: metrics_lint serves the real service, scrapes /metrics,
# lints the exposition, and writes its diagnostics as a report fragment;
# cpq_analyze runs the pass registry (lock-order, atomics-pairing,
# panic-surface, blocking-section, plus the ported line checks) over the
# workspace source, merges the fragment, and archives one report. Any
# unwaived diagnostic fails the gate.
echo "==> metrics smoke (serve, scrape /metrics, exposition lint, core-series check)"
./target/release/metrics_lint

echo "==> cpq_analyze (multi-pass static analysis + metrics fragment -> analysis_report.json)"
ANALYZE_FLAGS="--merge target/metrics_report.json"
if [ "${1:-}" = "--full" ]; then
    # --full adds the stale-waiver audit and the whole-workspace
    # Relaxed-justification sweep.
    ANALYZE_FLAGS="$ANALYZE_FLAGS --stale --full-atomics"
fi
# shellcheck disable=SC2086  # ANALYZE_FLAGS is a flag list by construction
./target/release/cpq_analyze --root . --out target/analysis_report.json $ANALYZE_FLAGS

# Model-check smoke tier: the concurrency shim is compiled in scheduler mode
# (--cfg cpq_model) and the harnesses run exhaustive/bounded DFS on the small
# models plus 200 seeded PCT schedules on the contended ones. A separate
# target dir keeps both cfg caches warm across CI runs.
echo "==> model-check smoke tier (cfg cpq_model: exhaustive DFS + 200-seed PCT)"
model_test() {
    RUSTFLAGS="--cfg cpq_model" CARGO_TARGET_DIR=target/model \
        cargo test -q "$@"
}
model_test -p cpq-check
model_test -p cpq-service --test model_queue
model_test -p cpq-obs --test model_ring
model_test -p cpq-storage --test model_buffer
model_test -p cpq-storage --lib sched::
model_test -p cpq-core --lib model_tests
model_test -p cpq-shard --lib model_tests
# Sites #7 (epoch publish/reclaim) and #8 (WAL group commit), each with a
# pinned broken twin.
model_test -p cpq-live --lib model_tests

echo "==> bench_service --smoke --profile (service end-to-end + divergence + obs gate)"
./target/release/bench_service --smoke --profile \
    --out /tmp/BENCH_service_smoke.json --obs-out /tmp/BENCH_obs_smoke.json >/dev/null

echo "==> bench_parallel --smoke (parallel descent speedup + zero-divergence gate)"
./target/release/bench_parallel --smoke --out /tmp/BENCH_parallel_smoke.json >/dev/null

# Real files in the OS temp dir: scan gate (scheduler must beat the naive
# per-page path on wall time), K-CPQ prefetch-hit + coalesce gates, and
# the O_DIRECT probe (engaged, or buffered fallback latched — both pass;
# the filesystem decides).
echo "==> bench_io --smoke (I/O scheduler vs naive reads on real files)"
./target/release/bench_io --smoke --out /tmp/BENCH_io_smoke.json >/dev/null

echo "==> bench_parallel --smoke --disk real (real-file descent, zero-divergence gate)"
./target/release/bench_parallel --smoke --disk real \
    --out /tmp/BENCH_parallel_real_smoke.json >/dev/null

# Per-shard disk page files, wire codec armed on every subquery, and the
# bit-identical-vs-unsharded gate on every cell.
echo "==> bench_shard --smoke (scatter-gather K-CPQ, zero-divergence gate)"
./target/release/bench_shard --smoke --out /tmp/BENCH_shard_smoke.json >/dev/null

# Windowed/colored K-CPQ: every cell cross-checks HEAP vs STD bitwise, the
# whole smoke matrix is gated on the O(n²) brute-force oracle, and node
# accesses must shrink monotonically with the window on clustered data.
echo "==> bench_rcp --smoke (range-restricted/colored K-CPQ, oracle zero-divergence gate)"
./target/release/bench_rcp --smoke --out /tmp/BENCH_rcp_smoke.json >/dev/null

# Recovery smoke tier: the crash-injection harness truncates a real WAL at
# every record boundary (plus torn mid-record cuts) and asserts bit-identical
# K-CPQ answers after recovery; the live bench gates the continuous delta
# path at >=5x over per-step recomputation, bit-identity sampled.
echo "==> recovery smoke (crash at every WAL record boundary, bit-identical gate)"
cargo test --release -q -p cpq-live --test crash_recovery

echo "==> bench_live --smoke (continuous K-CPQ delta path >=5x + throughput x readers)"
./target/release/bench_live --smoke --out /tmp/BENCH_live_smoke.json >/dev/null

# The benchmark harness (its own workspace under kcpq-bench/, built into
# .bench_build/): tiny seeded runs of every workload, each answer checked,
# every listed metric measured, counts repeating per seed.
echo "==> kcpq-bench --self-test (benchmark harness build + tiny checked runs)"
python3 kcpq-bench/run.py --self-test

if [ "${1:-}" = "--full" ]; then
    echo "==> parallel stress: wide seed sweep (release, --include-ignored)"
    cargo test --release -p cpq-core --test parallel_stress -- --include-ignored

    echo "==> rcp parity: multi-seed randomized oracle sweep (release, --include-ignored)"
    cargo test --release -p cpq-core --test rcp_parity -- --include-ignored

    echo "==> model-check full tier: widened PCT sweep (2000 seeds, release)"
    model_full() {
        RUSTFLAGS="--cfg cpq_model" CARGO_TARGET_DIR=target/model \
            CPQ_MODEL_SEEDS=2000 cargo test --release -q "$@"
    }
    model_full -p cpq-obs --test model_ring pct_
    model_full -p cpq-storage --test model_buffer pct_failing
    model_full -p cpq-core --lib model_tests::pct_
fi

echo "==> CI green"
