#!/usr/bin/env python3
"""Builds and runs the K-CPQ benchmark (the `kcpq-bench` Rust package).

Run from the repository root:

    python3 kcpq-bench/run.py --workload heap-resident --seed 1 --seconds 10 --trace 0
    python3 kcpq-bench/run.py --all --seed 1 --seconds 10   # every workload, both runs
    python3 kcpq-bench/run.py --self-test                    # tiny runs that check the benchmark

A single run prints a table of every metric the binary measured and, as its
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
The metrics of that line are the ones listed below, which is also what
BENCHMARK.json holds: `--trace 0` gives the end-to-end metrics, `--trace 1`
the per-layer ones. The build goes to $CARGO_TARGET_DIR (default
`.bench_build`); scratch page files, WALs and the traced run's spans go under
it too.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIR = os.path.basename(HERE)

WORKLOADS = [
    ("heap-resident",
     "CPU path: core engine (candidate generation, leaf sweep, K-heap), rtree decode and the "
     "pool hit path do the work; the storage miss path does almost none"),
    ("cold-disk",
     "I/O path: pool misses, O(capacity) LRU evict scans, the page file and the I/O scheduler "
     "do the work, CPU kernels little; the paper's disk-access regime"),
    ("live-churn",
     "writes beside reads: WAL append and group commit, copy-on-write page turnover, epoch "
     "publish and reclaim, and continuous K-CPQ; a read gain that costs writers shows here"),
    ("rcp-scatter",
     "the only workload through the planner, constraint clipping, the scatter coordinator and "
     "the shard wire codec; its many short queries make admission-queue wait visible"),
]

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. The
# latency and throughput bounds sit at 0.25: on a shared 2-CPU machine whole
# runs swing by 15-20% when the host steals CPU.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p95_ms", "ms", "lower", 0.25),
    ("query_qps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("index_bytes_per_point", "B", "lower", 0.1),
]

PER_LAYER = [
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.queue_wait_p95_ms", "ms", "lower"),
    ("service.exec_p50_ms", "ms", "lower"),
    ("service.handoff_p50_us", "us", "lower"),
    ("service.shed_frac", "frac", "lower"),
    ("planner.plan_ns", "ns", "lower"),
    ("planner.choice.heap_frac", "frac", "higher"),
    ("planner.choice.exh_frac", "frac", "lower"),
    ("planner.choice.scatter_frac", "frac", "higher"),
    ("core.exec_ms", "ms", "lower"),
    ("core.gen_ms", "ms", "lower"),
    ("core.scan_ms", "ms", "lower"),
    ("core.self_ms", "ms", "lower"),
    ("core.node_pairs_per_query", "count", "lower"),
    ("core.pruned_frac", "frac", "higher"),
    ("core.dist_computations_per_query", "count", "lower"),
    ("core.kernel_early_out_frac", "frac", "higher"),
    ("core.sweep_skipped_per_query", "count", "higher"),
    ("core.queue_inserts_per_query", "count", "lower"),
    ("core.queue_peak", "count", "lower"),
    ("core.kheap_offer_ns", "ns", "lower"),
    ("geo.pt_dist2_ns", "ns", "lower"),
    ("geo.min_min_dist2_ns", "ns", "lower"),
    ("rtree.decode_leaf_ns", "ns", "lower"),
    ("rtree.decode_inner_ns", "ns", "lower"),
    ("rtree.read_node_hit_ns", "ns", "lower"),
    ("rtree.insert_us", "us", "lower"),
    ("rtree.pages", "count", "lower"),
    ("storage.pool.logical_reads_per_query", "count", "lower"),
    ("storage.pool.hit_rate", "frac", "higher"),
    ("storage.pool.misses_per_query", "count", "lower"),
    ("storage.pool.evictions_per_query", "count", "lower"),
    ("storage.pool.hit_ns", "ns", "lower"),
    ("storage.pool.miss_ns", "ns", "lower"),
    ("storage.policy.evict_ns", "ns", "lower"),
    ("storage.policy.on_hit_ns", "ns", "lower"),
    ("storage.file.reads_per_query", "count", "lower"),
    ("storage.file.read_us", "us", "lower"),
    ("storage.file.busy_ms_per_query", "ms", "lower"),
    ("storage.sched.demand_stall_ms_per_query", "ms", "lower"),
    ("storage.sched.coalesce_ratio", "ratio", "higher"),
    ("storage.sched.prefetch_hit_rate", "frac", "higher"),
    ("storage.sched.dedup_joins_per_query", "count", "higher"),
    ("live.wal.records_per_op", "count", "lower"),
    ("live.wal.bytes_per_op", "B", "lower"),
    ("live.wal.flushes_per_commit", "ratio", "lower"),
    ("live.wal.append_ns", "ns", "lower"),
    ("live.wal.commit_us", "us", "lower"),
    ("live.epoch.published_per_batch", "count", "lower"),
    ("live.epoch.retired_pages_per_op", "count", "lower"),
    ("live.page_writes_per_op", "count", "lower"),
    ("live.snapshot_ns", "ns", "lower"),
    ("live.checkpoints", "count", "lower"),
    ("shard.pairs_pruned_frac", "frac", "higher"),
    ("shard.subqueries_per_query", "count", "lower"),
    ("shard.bound_updates_per_query", "count", "higher"),
    ("shard.encode_ns", "ns", "lower"),
    ("shard.decode_ns", "ns", "lower"),
    ("bench.gen_lateness_p95_ms", "ms", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
    ("bench.residual_frac", "frac", "lower"),
    ("self.service_ms", "ms", "lower"),
    ("self.planner_ms", "ms", "lower"),
    ("self.core_ms", "ms", "lower"),
    ("self.storage_ms", "ms", "lower"),
    ("self.live_ms", "ms", "lower"),
    ("self.shard_ms", "ms", "lower"),
    ("self.geo_ms_est", "ms", "lower"),
    ("self.rtree_ms_est", "ms", "lower"),
    ("self.bench_ms", "ms", "lower"),
]

RUN_SECONDS = 10


def spec():
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", f"{DIR}/run.py"],
        "paths": [DIR],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "kcpq-bench")


def bench_args(args):
    t = target_dir()
    return args + ["--work-dir", os.path.join(t, "kcpq-work"),
                   "--spans-dir", os.path.join(t, "kcpq-spans")]


def run_capture(binary, args):
    """Runs the binary; returns (exit code, stdout lines)."""
    done = subprocess.run([binary] + bench_args(args), stdout=subprocess.PIPE,
                          text=True, timeout=600)
    return done.returncode, done.stdout.splitlines()


def raw_result(lines):
    """The binary's own result line, or None."""
    try:
        res = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return res if isinstance(res, dict) else None


def finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def pick(raw, trace):
    """The result line for one run: the metrics BENCHMARK.json names for
    `--trace <trace>`, picked from the binary's result `raw`. Returns
    (result, problems). Every end-to-end metric must be measured, with its
    unit, as a finite non-zero number; a per-layer metric a workload does not
    measure (a layer it does not run through) reads 0."""
    problems = []
    if set(raw) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(raw)}")
        return None, problems
    if not isinstance(raw["attempted"], int) or raw["attempted"] < 1:
        problems.append(f"attempted is {raw['attempted']}")
    measured = raw["metrics"]
    metrics = {}
    wanted = [(n, u) for n, u, *_ in (PER_LAYER if trace else END_TO_END)]
    for name, unit in wanted:
        m = measured.get(name)
        if m is None:
            if not trace:
                problems.append(f"{name} was not measured")
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if m.get("unit") != unit:
            problems.append(f"{name} has unit {m.get('unit')!r}, not {unit!r}")
        if not finite_number(m.get("value")):
            problems.append(f"{name} is {json.dumps(m.get('value'))}, not a finite number")
        elif not trace and m["value"] == 0:
            problems.append(f"{name} is 0")
        metrics[name] = {"value": m.get("value"), "unit": unit}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, problems


def run_one(binary, argv):
    """One run as the benchmark's command: the binary's table, then the
    result line. Exits non-zero without a result line if the binary failed
    to produce one or left out an end-to-end metric."""
    try:
        trace = int(argv[argv.index("--trace") + 1]) != 0
    except (ValueError, IndexError):
        trace = False
    code, lines = run_capture(binary, argv)
    raw = raw_result(lines)
    for line in lines[:-1] if raw is not None else lines:
        print(line)
    if raw is None:
        print(f"error: the benchmark printed no result (exit {code})", file=sys.stderr)
        return code or 1
    result, problems = pick(raw, trace)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return code or 1
    print(json.dumps(result), flush=True)
    return code


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag):
            return line[len(tag):].strip()
    return None


def self_test(binary):
    """Tiny runs of every workload: each run's result carries every metric
    of BENCHMARK.json with its unit, every end-to-end metric is measured and
    finite and non-zero, every per-layer metric is measured on some
    workload, the traced run's counts repeat exactly for a fixed seed, and
    another seed changes the inputs."""
    failures = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        if json.load(f) != spec():
            failures.append("BENCHMARK.json differs from run.py's lists (run --all)")
    layer_seen = set()

    def check(name, trace, seed):
        code, lines = run_capture(binary, ["--workload", name, "--seed", str(seed),
                                           "--seconds", "1", "--trace", str(trace),
                                           "--tiny"])
        where = f"{name} trace {trace} seed {seed}"
        raw = raw_result(lines)
        if code != 0 or raw is None:
            failures.append(f"{where}: exit {code}")
            return lines
        result, problems = pick(raw, trace)
        failures.extend(f"{where}: {p}" for p in problems)
        if result is None:
            return lines
        if not result["correct"] or result["failed"] != 0:
            failures.append(f"{where}: correct={result['correct']} failed={result['failed']}")
        if trace:
            layer_seen.update(n for n, *_ in PER_LAYER if n in raw["metrics"])
        return lines

    for name, _ in WORKLOADS:
        print(f"self-test: {name}", file=sys.stderr)
        first = check(name, 0, 7)
        other = check(name, 0, 8)
        if tagged(first, "# inputs") == tagged(other, "# inputs"):
            failures.append(f"{name}: seeds 7 and 8 generated the same inputs")
        a = tagged(check(name, 1, 7), "# counts")
        b = tagged(check(name, 1, 7), "# counts")
        if not a or a == "{}" or a != b:
            failures.append(f"{name}: traced counts do not repeat for one seed: {a} vs {b}")
    for n, *_ in PER_LAYER:
        if n not in layer_seen:
            failures.append(f"{n} is measured on no workload")
    for f in failures:
        print(f"self-test FAILED: {f}")
    print("self-test passed" if not failures else f"self-test: {len(failures)} failures")
    return 0 if not failures else 1


def write_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w") as f:
        json.dump(spec(), f, indent=2)
        f.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def main(argv):
    binary = build()
    if binary is None:
        return 1
    if argv == ["--self-test"]:
        return self_test(binary)
    if argv and argv[0] == "--all":
        rest = argv[1:]
        code = 0
        for name, _ in WORKLOADS:
            for trace in ("0", "1"):
                args = ["--workload", name, "--trace", trace] + rest
                if "--seconds" not in rest:
                    args += ["--seconds", str(RUN_SECONDS)]
                if "--seed" not in rest:
                    args += ["--seed", "1"]
                code |= run_one(binary, args)
        write_spec()
        return code
    return run_one(binary, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
