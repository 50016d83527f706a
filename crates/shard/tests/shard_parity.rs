//! Bit-identical parity between sharded scatter-gather and the unsharded
//! engine.
//!
//! The sharding contract mirrors the parallel executor's: partitioning is
//! invisible. For every shard count, join kind, algorithm, and `K`, the
//! merged result pairs — objects *and* bitwise distance — must equal the
//! unsharded run's. Engine work counters legitimately differ (each shard
//! descends its own small tree), so the gate compares pairs only.
//!
//! The tie-storm cases are the sharded-merge half of the canonical-order
//! story: duplicate points produce duplicate distances everywhere (across
//! shard boundaries included), so the merge and the off-diagonal
//! orientation rule are exercised exactly where a non-canonical
//! implementation would diverge.

use cpq_core::{
    k_closest_pairs, self_closest_pairs, Algorithm, CancelToken, CpqConfig, PairResult, Query,
};
use cpq_datasets::{clustered, uniform, ClusterSpec, Dataset};
use cpq_geo::Point2;
use cpq_rng::Rng;
use cpq_rtree::RTreeParams;
use cpq_shard::{execute_sharded, ShardConfig, ShardedTree};
use cpq_storage::{BufferPool, MemPageFile};

const ALL: [Algorithm; 5] = [
    Algorithm::Naive,
    Algorithm::Exhaustive,
    Algorithm::Simple,
    Algorithm::SortedDistances,
    Algorithm::Heap,
];

fn pool() -> BufferPool {
    BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 0)
}

fn build_unsharded(objects: &[(Point2, u64)]) -> cpq_rtree::RTree<2> {
    let mut tree = cpq_rtree::RTree::new(pool(), RTreeParams::paper()).unwrap();
    for &(p, oid) in objects {
        tree.insert(p, oid).unwrap();
    }
    tree
}

fn build_sharded(name: &str, objects: &[(Point2, u64)], shards: usize) -> ShardedTree<2> {
    ShardedTree::build(name, objects, shards, RTreeParams::paper(), None, |_| {
        pool()
    })
    .unwrap()
}

/// A duplicate-point tie storm (same construction as the parallel parity
/// suite): few distinct sites, many copies, ties everywhere.
fn tie_storm(n: usize, distinct: usize, seed: u64) -> Vec<(Point2, u64)> {
    let mut rng = Rng::seed_from_u64(seed);
    let sites: Vec<Point2> = (0..distinct)
        .map(|_| {
            Point2::from([
                (rng.random_range(0..20u32) as f64) * 5.0,
                (rng.random_range(0..20u32) as f64) * 5.0,
            ])
        })
        .collect();
    (0..n)
        .map(|i| (sites[rng.random_range(0..sites.len())], i as u64))
        .collect()
}

fn assert_pairs_bitwise(seq: &[PairResult<2>], sharded: &[PairResult<2>], label: &str) {
    assert_eq!(seq.len(), sharded.len(), "{label}: result length");
    for (i, (s, h)) in seq.iter().zip(sharded).enumerate() {
        assert_eq!(
            (s.p.oid, s.q.oid),
            (h.p.oid, h.q.oid),
            "{label}: pair #{i} objects"
        );
        assert_eq!(
            s.dist2.get().to_bits(),
            h.dist2.get().to_bits(),
            "{label}: pair #{i} distance bits"
        );
    }
}

/// Gates one configuration: sharded (wire codec on, so every subquery and
/// partial crosses the byte protocol) against the unsharded engine.
fn assert_parity(
    p: &[(Point2, u64)],
    q: Option<&[(Point2, u64)]>,
    shards: usize,
    k: usize,
    workers: usize,
    label: &str,
) {
    let cfg = CpqConfig::paper();
    let shard_cfg = ShardConfig {
        workers,
        wire_codec: true,
        ..ShardConfig::default()
    };
    let tp = build_unsharded(p);
    let sp = build_sharded("p", p, shards);
    let (tq, sq) = match q {
        Some(q) => (
            Some(build_unsharded(q)),
            Some(build_sharded("q", q, shards)),
        ),
        None => (None, None),
    };
    for alg in ALL {
        let (seq, run) = match (&tq, &sq) {
            (Some(tq), Some(sq)) => (
                k_closest_pairs(&tp, tq, k, alg, &cfg).unwrap(),
                execute_sharded(&sp, sq, &Query::cross(k, alg, cfg), &shard_cfg, None).unwrap(),
            ),
            _ => (
                self_closest_pairs(&tp, k, alg, &cfg).unwrap(),
                execute_sharded(&sp, &sp, &Query::self_join(k, alg, cfg), &shard_cfg, None)
                    .unwrap(),
            ),
        };
        let label = format!("{label} {} S={shards} k={k} w={workers}", alg.label());
        assert!(run.completed, "{label}: sharded run completed");
        assert_pairs_bitwise(&seq.pairs, &run.outcome.pairs, &label);
        assert_eq!(
            run.report.pairs_opened + run.report.pairs_pruned,
            run.report.pairs_generated,
            "{label}: every shard pair opened or pruned"
        );
    }
}

#[test]
fn cross_join_parity_uniform() {
    let p = uniform(500, 11).indexed();
    let q = uniform(400, 12).indexed();
    for shards in [1usize, 2, 4] {
        for k in [1usize, 10, 1000] {
            assert_parity(&p, Some(&q), shards, k, 4, "uniform-cross");
        }
    }
}

#[test]
fn cross_join_parity_clustered() {
    let p = clustered(500, ClusterSpec::default(), 13).indexed();
    let q = uniform(400, 14).indexed();
    for shards in [2usize, 4] {
        for k in [1usize, 10, 1000] {
            assert_parity(&p, Some(&q), shards, k, 4, "clustered-cross");
        }
    }
}

#[test]
fn self_join_parity_uniform() {
    let p = uniform(450, 15).indexed();
    for shards in [1usize, 2, 4] {
        for k in [1usize, 10, 1000] {
            assert_parity(&p, None, shards, k, 4, "uniform-self");
        }
    }
}

#[test]
fn tie_storm_parity_cross_and_self() {
    let p = tie_storm(400, 30, 16);
    let q = tie_storm(400, 30, 17);
    for shards in [2usize, 4, 8] {
        for k in [1usize, 10, 1000] {
            assert_parity(&p, Some(&q), shards, k, 4, "tie-storm-cross");
            assert_parity(&p, None, shards, k, 4, "tie-storm-self");
        }
    }
}

#[test]
fn single_worker_and_many_workers_agree() {
    let p = uniform(300, 18).indexed();
    let q = uniform(300, 19).indexed();
    for workers in [1usize, 8] {
        assert_parity(&p, Some(&q), 4, 25, workers, "worker-count");
    }
}

#[test]
fn k_exceeding_pair_count_returns_everything() {
    let p = uniform(12, 20).indexed();
    let q = uniform(9, 21).indexed();
    let cfg = CpqConfig::paper();
    let seq = k_closest_pairs(
        &build_unsharded(&p),
        &build_unsharded(&q),
        10_000,
        Algorithm::Heap,
        &cfg,
    )
    .unwrap();
    assert_eq!(seq.pairs.len(), 12 * 9);
    let run = execute_sharded(
        &build_sharded("p", &p, 3),
        &build_sharded("q", &q, 3),
        &Query::cross(10_000, Algorithm::Heap, cfg),
        &ShardConfig::default(),
        None,
    )
    .unwrap();
    assert_pairs_bitwise(&seq.pairs, &run.outcome.pairs, "k-exhaustive");
}

#[test]
fn degenerate_inputs_return_empty_complete_runs() {
    let p = uniform(50, 22).indexed();
    let sp = build_sharded("p", &p, 2);
    let empty = build_sharded("empty", &[], 2);
    let cfg = CpqConfig::paper();
    let shard_cfg = ShardConfig::default();

    let query = Query::cross(5, Algorithm::Heap, cfg);
    let run = execute_sharded(&sp, &empty, &query, &shard_cfg, None).unwrap();
    assert!(run.completed && run.outcome.pairs.is_empty());
    assert_eq!(run.report, Default::default());

    let query = Query::self_join(0, Algorithm::Heap, cfg);
    let run = execute_sharded(&sp, &sp, &query, &shard_cfg, None).unwrap();
    assert!(run.completed && run.outcome.pairs.is_empty());
}

#[test]
fn cancelled_runs_report_incomplete() {
    let p = uniform(400, 23).indexed();
    let q = uniform(400, 24).indexed();
    let cancel = CancelToken::new();
    cancel.cancel();
    let run = execute_sharded(
        &build_sharded("p", &p, 4),
        &build_sharded("q", &q, 4),
        &Query::cross(50, Algorithm::Heap, CpqConfig::paper()),
        &ShardConfig::default(),
        Some(&cancel),
    )
    .unwrap();
    assert!(!run.completed, "pre-cancelled run must report incomplete");
}

#[test]
fn separated_clusters_prune_most_shard_pairs() {
    // Two tight, well-separated blobs per dataset: the closest pair lives
    // inside one shard pair, and the planner's MINMINDIST ordering lets
    // the bound from that pair prune the far combinations unopened.
    let tight = ClusterSpec {
        clusters: 4,
        spread: 0.005,
        noise: 0.0,
        ..ClusterSpec::default()
    };
    let p: Vec<(Point2, u64)> = clustered(600, tight, 25).indexed();
    let q: Vec<(Point2, u64)> = clustered(600, tight, 25).indexed();
    let run = execute_sharded(
        &build_sharded("p", &p, 8),
        &build_sharded("q", &q, 8),
        &Query::cross(1, Algorithm::Heap, CpqConfig::paper()),
        &ShardConfig {
            workers: 1,
            ..ShardConfig::default()
        },
        None,
    )
    .unwrap();
    assert!(run.completed);
    assert!(
        run.report.pairs_pruned > 0,
        "expected pruned shard pairs, report: {:?}",
        run.report
    );
    assert!(run.report.bound_updates > 0, "bound must propagate");
}

/// The same datasets sharded differently must agree with each other (a
/// cheap consistency triangle on top of the unsharded gates).
#[test]
fn different_shard_counts_agree_with_each_other() {
    let d: Dataset = clustered(500, ClusterSpec::default(), 26);
    let objects = d.indexed();
    let cfg = CpqConfig::paper();
    let shard_cfg = ShardConfig::default();
    let query = Query::self_join(40, Algorithm::SortedDistances, cfg);
    let two = build_sharded("d", &objects, 2);
    let base = execute_sharded(&two, &two, &query, &shard_cfg, None).unwrap();
    for shards in [3usize, 5, 8] {
        let many = build_sharded("d", &objects, shards);
        let other = execute_sharded(&many, &many, &query, &shard_cfg, None).unwrap();
        assert_pairs_bitwise(
            &base.outcome.pairs,
            &other.outcome.pairs,
            &format!("S=2 vs S={shards}"),
        );
    }
}

#[test]
fn asymmetric_self_join_window_fails_before_planning() {
    let sp = build_sharded("p", &uniform(200, 27).indexed(), 4);
    let lopsided = cpq_core::Constraint::windows(
        Some(cpq_geo::Rect::from_corners([0.0, 0.0], [500.0, 500.0])),
        None,
    );
    let query = Query::self_join(5, Algorithm::Heap, CpqConfig::paper()).with_constraint(lopsided);
    match execute_sharded(&sp, &sp, &query, &ShardConfig::default(), None) {
        Err(cpq_shard::ShardError::Tree(cpq_rtree::RTreeError::InvalidQuery(msg))) => {
            assert!(msg.contains("symmetric"), "{msg}")
        }
        Err(e) => panic!("expected InvalidQuery, got {e}"),
        Ok(_) => panic!("asymmetric self-join window accepted"),
    }
}
