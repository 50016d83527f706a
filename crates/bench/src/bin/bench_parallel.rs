//! Benchmark: intra-query parallel K-CPQ descent vs the sequential engine.
//!
//! The executor targets I/O-bound queries: page reads carry real latency
//! (disk, network storage), and speculative workers overlap many reads
//! where the sequential engine waits on each in turn. This harness
//! reproduces that regime with a
//! [`FailingPageFile`](cpq_storage::FailingPageFile) injecting a fixed
//! per-read sleep under unbuffered pools (the paper's zero-buffer
//! configuration), then sweeps threads × K × dataset:
//!
//! * threads ∈ {1, 2, 4, 8} (1 = the plain sequential engine),
//! * K ∈ {1, 100, 10000},
//! * workloads: uniform⋈uniform, clustered⋈clustered, real⋈uniform
//!   (the paper's California-surrogate real data set).
//!
//! Every parallel cell is gated on **zero divergence** from its sequential
//! twin: identical pair objects, bit-identical distances, identical disk
//! accesses. Any mismatch aborts the run — a benchmark of a wrong answer
//! is worthless.
//!
//! `--disk` picks the I/O regime and is recorded in the JSON:
//!
//! * `sim` (default): in-memory pages with an injected per-read sleep.
//!   Sleeps overlap perfectly across threads, so speedups routinely
//!   exceed the physical core count — they measure I/O overlap, not
//!   end-to-end wall time, and superlinear cells are labelled as such.
//! * `real`: insertion-built trees on actual disk files (OS temp dir),
//!   reopened cold behind the I/O request scheduler, no injected
//!   latency. Wall times are honest end-to-end numbers for this machine.
//!
//! Writes `BENCH_parallel.json` (repo root by default).
//!
//! ```text
//! cargo run --release --bin bench_parallel -- [--n 20000] [--latency-us 200] \
//!     [--disk sim|real] [--out BENCH_parallel.json] [--smoke]
//! ```

use cpq_bench::{build_tree_disk, build_tree_slow, real_dataset, scratch_file, Args};
use cpq_core::{k_closest_pairs, Algorithm, CpqConfig, QueryOutcome};
use cpq_datasets::{clustered, uniform, ClusterSpec, Dataset};
use cpq_rtree::RTree;
use cpq_storage::SchedConfig;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Cell {
    threads: usize,
    wall_ns: u64,
    disk_accesses: u64,
    speedup: f64,
}

fn measure(tp: &RTree<2>, tq: &RTree<2>, k: usize, threads: usize) -> (u64, QueryOutcome<2>) {
    // Unbuffered pools every run: each logical read pays the latency, and
    // the parallel ledger equals the sequential miss delta exactly.
    tp.pool().set_capacity(0);
    tq.pool().set_capacity(0);
    tp.pool().reset_stats();
    tq.pool().reset_stats();
    let cfg = CpqConfig::paper().with_parallelism(threads);
    let start = Instant::now();
    let outcome = k_closest_pairs(tp, tq, k, Algorithm::Heap, &cfg).expect("query");
    (start.elapsed().as_nanos() as u64, outcome)
}

fn gate(seq: &QueryOutcome<2>, par: &QueryOutcome<2>, label: &str) {
    assert_eq!(seq.pairs.len(), par.pairs.len(), "{label}: result length");
    for (i, (s, p)) in seq.pairs.iter().zip(&par.pairs).enumerate() {
        assert!(
            s.p.oid == p.p.oid
                && s.q.oid == p.q.oid
                && s.dist2.get().to_bits() == p.dist2.get().to_bits(),
            "{label}: pair #{i} diverged — ({},{}) vs ({},{})",
            s.p.oid,
            s.q.oid,
            p.p.oid,
            p.q.oid
        );
    }
    assert_eq!(seq.stats, par.stats, "{label}: work counters diverged");
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let n = args.get_usize("n", if smoke { 2_000 } else { 20_000 });
    let disk = args.get_str("disk", "sim");
    assert!(
        disk == "sim" || disk == "real",
        "--disk must be `sim` or `real`, got `{disk}`"
    );
    let real_disk = disk == "real";
    // Real-disk mode injects nothing: the file itself is the latency.
    let latency_us = if real_disk {
        0
    } else {
        args.get_usize("latency-us", if smoke { 100 } else { 200 }) as u64
    };
    let out_path = args.get_str("out", "BENCH_parallel.json");
    let thread_counts: &[usize] = if smoke { &[1, 8] } else { &[1, 2, 4, 8] };
    let k_values: &[usize] = if smoke { &[1, 100] } else { &[1, 100, 10_000] };

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

    let mut max_speedup_max_threads = 0.0f64;
    let mut workload_json = Vec::new();
    let mut scratch: Vec<PathBuf> = Vec::new();
    for (name, dp, dq) in &workloads {
        eprintln!(
            "building {name} trees ({} / {} points, disk={disk})...",
            dp.len(),
            dq.len()
        );
        let (tp, tq) = if real_disk {
            let path_p = scratch_file(&format!("par-{name}-p"));
            let path_q = scratch_file(&format!("par-{name}-q"));
            let tp = build_tree_disk(dp, &path_p, Some(SchedConfig::default())).expect("disk tree");
            let tq = build_tree_disk(dq, &path_q, Some(SchedConfig::default())).expect("disk tree");
            scratch.push(path_p);
            scratch.push(path_q);
            (tp, tq)
        } else {
            let (tp, cp) = build_tree_slow(dp).expect("slow tree");
            let (tq, cq) = build_tree_slow(dq).expect("slow tree");
            cp.slow_reads(Duration::from_micros(latency_us));
            cq.slow_reads(Duration::from_micros(latency_us));
            (tp, tq)
        };

        let mut series_json = Vec::new();
        for &k in k_values {
            let mut cells: Vec<Cell> = Vec::new();
            let mut reference: Option<QueryOutcome<2>> = None;
            for &threads in thread_counts {
                let (wall_ns, outcome) = measure(&tp, &tq, k, threads);
                match &reference {
                    None => reference = Some(outcome.clone()),
                    Some(seq) => gate(seq, &outcome, &format!("{name} k={k} t={threads}")),
                }
                let base_ns = cells.first().map_or(wall_ns, |c| c.wall_ns);
                let speedup = base_ns as f64 / wall_ns as f64;
                let label = if !real_disk && speedup > threads as f64 {
                    " [superlinear: simulated sleeps overlap perfectly; not a wall-time claim]"
                } else {
                    ""
                };
                eprintln!(
                    "  {name} k={k} threads={threads}: {:.1} ms ({speedup:.2}x, {} accesses){label}",
                    wall_ns as f64 / 1e6,
                    outcome.stats.disk_accesses(),
                );
                if threads == *thread_counts.last().unwrap() {
                    max_speedup_max_threads = max_speedup_max_threads.max(speedup);
                }
                cells.push(Cell {
                    threads,
                    wall_ns,
                    disk_accesses: outcome.stats.disk_accesses(),
                    speedup,
                });
            }
            let runs = cells
                .iter()
                .map(|c| {
                    format!(
                        concat!(
                            "{{ \"threads\": {}, \"wall_ns\": {}, ",
                            "\"disk_accesses\": {}, \"mismatched_pairs\": 0, ",
                            "\"speedup\": {:.3} }}"
                        ),
                        c.threads, c.wall_ns, c.disk_accesses, c.speedup
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n          ");
            series_json.push(format!(
                "{{\n        \"k\": {k},\n        \"runs\": [\n          {runs}\n        ]\n      }}"
            ));
        }
        workload_json.push(format!(
            concat!(
                "{{\n",
                "      \"name\": \"{}\",\n",
                "      \"n_p\": {},\n",
                "      \"n_q\": {},\n",
                "      \"series\": [\n      {}\n      ]\n",
                "    }}"
            ),
            name,
            dp.len(),
            dq.len(),
            series_json.join(",\n      "),
        ));
    }

    for path in &scratch {
        let _ = std::fs::remove_file(path);
    }

    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let speedup_note = if real_disk {
        "end-to-end wall time over real disk files behind the I/O request scheduler"
    } else {
        "simulated per-read sleeps overlap perfectly across threads; speedups can \
         exceed machine_cpus and are not end-to-end wall-time claims (see --disk real)"
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"parallel\",\n",
            "  \"algorithm\": \"heap\",\n",
            "  \"machine_cpus\": {cpus},\n",
            "  \"disk\": \"{disk}\",\n",
            "  \"read_latency_us\": {lat},\n",
            "  \"buffer_pages\": 0,\n",
            "  \"smoke\": {smoke},\n",
            "  \"zero_divergence\": true,\n",
            "  \"speedup_note\": \"{note}\",\n",
            "  \"max_speedup_at_{maxt}_threads\": {best:.3},\n",
            "  \"workloads\": [\n    {wl}\n  ]\n",
            "}}\n"
        ),
        cpus = cpus,
        disk = disk,
        lat = latency_us,
        smoke = smoke,
        note = speedup_note,
        maxt = thread_counts.last().unwrap(),
        best = max_speedup_max_threads,
        wl = workload_json.join(",\n    "),
    );
    std::fs::write(&out_path, &json).expect("write JSON");
    eprintln!(
        "zero divergence across all cells (disk={disk}); best speedup at {} threads: {:.2}x; wrote {out_path}",
        thread_counts.last().unwrap(),
        max_speedup_max_threads
    );
}
