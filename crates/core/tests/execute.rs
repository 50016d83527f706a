//! The one executor's dispatch rules, checked through [`execute`].
//!
//! * A scatter context forces the sequential engine: with a shared bound
//!   at `+∞` (prunes nothing) and `orient_by_oid = false`, a scatter run
//!   asking for `parallelism = 4` must equal the plain sequential run in
//!   pairs *and* the full [`CpqStats`]. The configs use plane-sweep leaf
//!   scanning, under which the parallel executor's `dist_computations`
//!   differ from the sequential engine's, so a scatter run that went
//!   parallel would show.
//! * An asymmetric self-join window is a typed error, raised before any
//!   page is read — also on empty trees and at `K = 0`.
//! * A self-join runs over `tree_p` alone.

use cpq_core::{
    execute, self_closest_pairs, self_closest_pairs_constrained, Algorithm, Constraint, CpqConfig,
    ExecCtx, NullProbe, Query, QueryRun, SharedBound,
};
use cpq_datasets::uniform;
use cpq_geo::{Point2, Rect2};
use cpq_rtree::{RTree, RTreeError, RTreeParams};
use cpq_storage::{BufferPool, MemPageFile};

/// An unbuffered tree (the paper's zero-buffer configuration): every run
/// pays the same misses, so `disk_accesses` compare across runs.
fn build(points: &[Point2]) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 0);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    for (i, &p) in points.iter().enumerate() {
        tree.insert(p, i as u64).unwrap();
    }
    tree
}

fn plain(tp: &RTree<2>, tq: &RTree<2>, query: &Query<2>) -> QueryRun<2> {
    execute(tp, tq, query, ExecCtx::new(&mut NullProbe)).unwrap()
}

fn assert_same_run(want: &QueryRun<2>, got: &QueryRun<2>, label: &str) {
    assert!(want.completed && got.completed, "{label}: both complete");
    assert_eq!(want.outcome.stats, got.outcome.stats, "{label}: CpqStats");
    let key = |r: &QueryRun<2>| -> Vec<(u64, u64, u64)> {
        r.outcome
            .pairs
            .iter()
            .map(|p| (p.dist2.get().to_bits(), p.p.oid, p.q.oid))
            .collect()
    };
    assert_eq!(key(want), key(got), "{label}: pairs");
}

#[test]
fn scatter_forces_sequential_whatever_the_parallelism() {
    let tp = build(&uniform(1500, 31).points);
    let tq = build(&uniform(1200, 32).points);
    let sequential = CpqConfig::default();
    let asks_parallel = CpqConfig::default().with_parallelism(4);
    for algorithm in Algorithm::EVALUATED {
        for k in [1usize, 10, 100] {
            for query in [
                Query::cross(k, algorithm, sequential),
                Query::self_join(k, algorithm, sequential),
            ] {
                let label = format!("{} {} k={k}", algorithm.label(), query.kind.label());
                let want = plain(&tp, &tq, &query);
                let bound = SharedBound::new();
                let scattered = Query {
                    config: asks_parallel,
                    ..query
                };
                let got = execute(
                    &tp,
                    &tq,
                    &scattered,
                    ExecCtx::new(&mut NullProbe).with_scatter(&bound, false),
                )
                .unwrap();
                assert_same_run(&want, &got, &label);
            }
        }
    }
}

#[test]
fn asymmetric_self_join_window_is_rejected_before_any_read() {
    let tp = build(&uniform(300, 33).points);
    let empty = build(&[]);
    let lopsided = Constraint::windows(Some(Rect2::from_corners([0.0, 0.0], [500.0, 500.0])), None);
    let is_invalid = |r: Result<QueryRun<2>, RTreeError>| match r {
        Err(RTreeError::InvalidQuery(msg)) => assert!(msg.contains("symmetric"), "{msg}"),
        other => panic!("expected InvalidQuery, got {other:?}"),
    };
    for (tree, k) in [(&tp, 5usize), (&tp, 0), (&empty, 5)] {
        let query =
            Query::self_join(k, Algorithm::Heap, CpqConfig::paper()).with_constraint(lopsided);
        let misses = tree.pool().buffer_stats().misses;
        is_invalid(execute(tree, tree, &query, ExecCtx::new(&mut NullProbe)));
        assert_eq!(tree.pool().buffer_stats().misses, misses, "no page read");
    }
    // The fixed-shape entry point reports the same typed error.
    match self_closest_pairs_constrained(&tp, 5, Algorithm::Heap, &CpqConfig::paper(), lopsided) {
        Err(RTreeError::InvalidQuery(msg)) => assert!(msg.contains("symmetric"), "{msg}"),
        other => panic!("expected InvalidQuery, got {other:?}"),
    }
    // The same windows are a valid cross query.
    let cross = Query::cross(5, Algorithm::Heap, CpqConfig::paper()).with_constraint(lopsided);
    assert!(plain(&tp, &tp, &cross).completed);
}

#[test]
fn self_join_reads_tree_p_only() {
    let tp = build(&uniform(400, 34).points);
    let other = build(&uniform(50, 35).points);
    let want = self_closest_pairs(&tp, 20, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    let got = plain(
        &tp,
        &other,
        &Query::self_join(20, Algorithm::Heap, CpqConfig::paper()),
    );
    assert_same_run(
        &QueryRun {
            outcome: want,
            completed: true,
        },
        &got,
        "self-join ignores tree_q",
    );
}
