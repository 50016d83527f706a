//! Benchmark: spatially sharded scatter-gather K-CPQ vs the unsharded
//! engine.
//!
//! Each dataset is partitioned into `S` shards by STR tile, every shard
//! gets its **own disk page file** (OS temp dir) behind the I/O request
//! scheduler — the deployment layout the shard manifest describes — and
//! the query runs as scatter-gather: a worker pool drains a shard-pair
//! priority queue ordered by inter-shard `MINMINDIST` while a shared
//! global bound prunes whole shard pairs unopened. The harness sweeps
//!
//! * shards `S` ∈ {2, 4, 8},
//! * join kind ∈ {cross, self},
//! * `K` ∈ {1, 10, 1000},
//! * workloads: uniform⋈uniform, clustered⋈clustered, real⋈uniform
//!   (the paper's California-surrogate real data set),
//!
//! with `wire_codec` armed on every sharded run, so each subquery, bound
//! update, and partial result also round-trips the byte protocol.
//!
//! Every sharded cell is gated on **zero divergence** from its unsharded
//! twin: identical pair objects and bit-identical distances (engine work
//! counters legitimately differ — the traversals are per-shard). Any
//! mismatch aborts the run. In full mode the harness additionally asserts
//! that the clustered workload prunes the **majority** of its shard pairs
//! unopened — the headline claim of distribution-level branch-and-bound.
//!
//! Writes `BENCH_shard.json` (repo root by default).
//!
//! ```text
//! cargo run --release --bin bench_shard -- [--n 20000] [--workers 4] \
//!     [--out BENCH_shard.json] [--smoke]
//! ```

use cpq_bench::{
    build_sharded_disk, build_tree, configure_buffers, configure_sharded_buffers, real_dataset,
    Args,
};
use cpq_core::{k_closest_pairs, self_closest_pairs, Algorithm, CpqConfig, Query, QueryOutcome};
use cpq_datasets::{clustered, uniform, ClusterSpec, Dataset};
use cpq_shard::{execute_sharded, ShardConfig, ShardRun, ShardedTree};
use cpq_storage::SchedConfig;
use std::path::PathBuf;
use std::time::Instant;

/// One sharded replica pair (P and Q partitioned at the same `S`).
struct Replica {
    shards_requested: usize,
    p: ShardedTree<2>,
    q: ShardedTree<2>,
}

struct Cell {
    shards: usize,
    shards_built_p: usize,
    shards_built_q: usize,
    wall_ns: u64,
    disk_accesses: u64,
    run: ShardRun<2>,
}

/// Gate: the sharded result must be indistinguishable from the unsharded
/// one — same pairs, bit-identical distances. Stats are *not* compared:
/// per-shard traversals do different (smaller) amounts of node work.
fn gate(unsharded: &QueryOutcome<2>, sharded: &ShardRun<2>, label: &str) {
    assert!(sharded.completed, "{label}: sharded run did not complete");
    assert_eq!(
        unsharded.pairs.len(),
        sharded.outcome.pairs.len(),
        "{label}: result length"
    );
    for (i, (u, s)) in unsharded
        .pairs
        .iter()
        .zip(&sharded.outcome.pairs)
        .enumerate()
    {
        assert!(
            u.p.oid == s.p.oid
                && u.q.oid == s.q.oid
                && u.dist2.get().to_bits() == s.dist2.get().to_bits(),
            "{label}: pair #{i} diverged — ({},{}) vs ({},{})",
            u.p.oid,
            u.q.oid,
            s.p.oid,
            s.q.oid
        );
    }
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let n = args.get_usize("n", if smoke { 2_000 } else { 20_000 });
    let workers = args.get_usize("workers", 4);
    let out_path = args.get_str("out", "BENCH_shard.json");
    let shard_counts: &[usize] = if smoke { &[2, 4] } else { &[2, 4, 8] };
    let k_values: &[usize] = if smoke { &[1, 100] } else { &[1, 10, 1_000] };

    let workloads: Vec<(&str, Dataset, Dataset)> = if smoke {
        vec![("uniform", uniform(n, 1), uniform(n, 2))]
    } else {
        vec![
            ("uniform", uniform(n, 1), uniform(n, 2)),
            (
                "clustered",
                clustered(n, ClusterSpec::default(), 3),
                clustered(n, ClusterSpec::default(), 4),
            ),
            ("real", real_dataset(n as f64 / 62_556.0), uniform(n, 5)),
        ]
    };

    let cfg = CpqConfig::paper();
    let mut query_id = 0u64;
    let mut scratch: Vec<PathBuf> = Vec::new();
    let mut workload_json = Vec::new();
    // Clustered-workload shard-pair ledger for the majority-pruned gate.
    let (mut clustered_pruned, mut clustered_generated) = (0u64, 0u64);

    for (name, dp, dq) in &workloads {
        eprintln!(
            "building {name} trees ({} / {} points, per-shard disk page files)...",
            dp.len(),
            dq.len()
        );
        let tp = build_tree(dp).expect("unsharded tree");
        let tq = build_tree(dq).expect("unsharded tree");
        let mut replicas = Vec::new();
        for &s in shard_counts {
            let (p, mut paths) = build_sharded_disk(
                dp,
                &format!("shard-{name}-p{s}"),
                s,
                Some(SchedConfig::default()),
            )
            .expect("sharded tree");
            scratch.append(&mut paths);
            let (q, mut paths) = build_sharded_disk(
                dq,
                &format!("shard-{name}-q{s}"),
                s,
                Some(SchedConfig::default()),
            )
            .expect("sharded tree");
            scratch.append(&mut paths);
            replicas.push(Replica {
                shards_requested: s,
                p,
                q,
            });
        }

        let mut query_json = Vec::new();
        for kind in ["cross", "self"] {
            for &k in k_values {
                configure_buffers(&tp, &tq, 0);
                let start = Instant::now();
                let unsharded = if kind == "cross" {
                    k_closest_pairs(&tp, &tq, k, Algorithm::Heap, &cfg)
                } else {
                    self_closest_pairs(&tp, k, Algorithm::Heap, &cfg)
                }
                .expect("unsharded query");
                let baseline_ns = start.elapsed().as_nanos() as u64;
                let query = if kind == "cross" {
                    Query::cross(k, Algorithm::Heap, cfg)
                } else {
                    Query::self_join(k, Algorithm::Heap, cfg)
                };

                let mut cells: Vec<Cell> = Vec::new();
                for replica in &replicas {
                    configure_sharded_buffers(&replica.p, 0);
                    configure_sharded_buffers(&replica.q, 0);
                    query_id += 1;
                    let shard_cfg = ShardConfig {
                        workers,
                        wire_codec: true,
                        prefetch: true,
                        query_id,
                    };
                    let start = Instant::now();
                    let run = execute_sharded(&replica.p, &replica.q, &query, &shard_cfg, None)
                        .expect("sharded query");
                    let wall_ns = start.elapsed().as_nanos() as u64;
                    let label = format!("{name} {kind} k={k} S={}", replica.shards_requested);
                    gate(&unsharded, &run, &label);
                    let r = run.report;
                    assert_eq!(
                        r.pairs_opened + r.pairs_pruned,
                        r.pairs_generated,
                        "{label}: every shard pair accounted"
                    );
                    if *name == "clustered" {
                        clustered_pruned += r.pairs_pruned;
                        clustered_generated += r.pairs_generated;
                    }
                    eprintln!(
                        "  {label}: {:.1} ms, {}/{} shard pairs pruned, {} bound updates",
                        wall_ns as f64 / 1e6,
                        r.pairs_pruned,
                        r.pairs_generated,
                        r.bound_updates,
                    );
                    cells.push(Cell {
                        shards: replica.shards_requested,
                        shards_built_p: replica.p.shard_count(),
                        shards_built_q: replica.q.shard_count(),
                        wall_ns,
                        disk_accesses: run.outcome.stats.disk_accesses(),
                        run,
                    });
                }

                let runs = cells
                    .iter()
                    .map(|c| {
                        let r = c.run.report;
                        let prune_frac = r.pairs_pruned as f64 / r.pairs_generated.max(1) as f64;
                        format!(
                            concat!(
                                "{{ \"shards\": {}, \"shards_built_p\": {}, ",
                                "\"shards_built_q\": {}, \"wall_ns\": {}, ",
                                "\"disk_accesses\": {}, \"pairs_generated\": {}, ",
                                "\"pairs_pruned\": {}, \"pairs_opened\": {}, ",
                                "\"subqueries_completed\": {}, \"bound_updates\": {}, ",
                                "\"prune_frac\": {:.3}, \"mismatched_pairs\": 0 }}"
                            ),
                            c.shards,
                            c.shards_built_p,
                            c.shards_built_q,
                            c.wall_ns,
                            c.disk_accesses,
                            r.pairs_generated,
                            r.pairs_pruned,
                            r.pairs_opened,
                            r.subqueries_completed,
                            r.bound_updates,
                            prune_frac,
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",\n          ");
                query_json.push(format!(
                    concat!(
                        "{{\n        \"kind\": \"{kind}\",\n        \"k\": {k},\n",
                        "        \"baseline_wall_ns\": {base},\n",
                        "        \"runs\": [\n          {runs}\n        ]\n      }}"
                    ),
                    kind = kind,
                    k = k,
                    base = baseline_ns,
                    runs = runs,
                ));
            }
        }
        workload_json.push(format!(
            concat!(
                "{{\n",
                "      \"name\": \"{}\",\n",
                "      \"n_p\": {},\n",
                "      \"n_q\": {},\n",
                "      \"queries\": [\n      {}\n      ]\n",
                "    }}"
            ),
            name,
            dp.len(),
            dq.len(),
            query_json.join(",\n      "),
        ));
    }

    for path in &scratch {
        let _ = std::fs::remove_file(path);
    }

    let clustered_prune_frac = if clustered_generated > 0 {
        clustered_pruned as f64 / clustered_generated as f64
    } else {
        0.0
    };
    if !smoke {
        // The headline claim: on clustered data, distribution-level
        // branch-and-bound discards most of the quadratic shard-pair grid
        // without ever opening a subquery.
        assert!(
            clustered_prune_frac > 0.5,
            "clustered workload pruned only {clustered_pruned}/{clustered_generated} shard pairs"
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"shard\",\n",
            "  \"algorithm\": \"heap\",\n",
            "  \"workers\": {workers},\n",
            "  \"wire_codec\": true,\n",
            "  \"per_shard_disk_files\": true,\n",
            "  \"buffer_pages\": 0,\n",
            "  \"smoke\": {smoke},\n",
            "  \"zero_divergence\": true,\n",
            "  \"clustered_prune_frac\": {cpf:.3},\n",
            "  \"workloads\": [\n    {wl}\n  ]\n",
            "}}\n"
        ),
        workers = workers,
        smoke = smoke,
        cpf = clustered_prune_frac,
        wl = workload_json.join(",\n    "),
    );
    std::fs::write(&out_path, &json).expect("write JSON");
    eprintln!(
        "zero divergence across all cells; clustered prune fraction {clustered_prune_frac:.3}; wrote {out_path}"
    );
}
