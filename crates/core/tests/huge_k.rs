//! K arrives from requests and may be far larger than the number of pairs
//! that exist. `K = 10^11` used to abort the process (the K-heap reserved
//! `K + 1` slots up front) and `K = usize::MAX` wrapped `K + 1` to zero;
//! both must simply return every pair.

use cpq_core::brute::{k_closest_pairs_brute, self_k_closest_pairs_brute};
use cpq_core::{
    k_closest_pairs, k_closest_pairs_incremental, self_closest_pairs, Algorithm, CpqConfig,
    IncrementalConfig,
};
use cpq_datasets::uniform;
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{BufferPool, MemPageFile};

const HUGE: [usize; 2] = [100_000_000_000, usize::MAX];
const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Naive,
    Algorithm::Exhaustive,
    Algorithm::Simple,
    Algorithm::SortedDistances,
    Algorithm::Heap,
];

fn build(points: &[(cpq_geo::Point2, u64)]) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 64);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    for &(p, oid) in points {
        tree.insert(p, oid).unwrap();
    }
    tree
}

#[test]
fn huge_k_returns_every_pair() {
    let (p, q) = (uniform(100, 71).indexed(), uniform(100, 72).indexed());
    let (tp, tq) = (build(&p), build(&q));
    let all = k_closest_pairs_brute(&p, &q, usize::MAX);
    let all_self = self_k_closest_pairs_brute(&p, usize::MAX);
    assert_eq!((all.len(), all_self.len()), (100 * 100, 100 * 99 / 2));
    for k in HUGE {
        for alg in ALGORITHMS {
            for threads in [0, 2] {
                let cfg = CpqConfig::paper().with_parallelism(threads);
                let out = k_closest_pairs(&tp, &tq, k, alg, &cfg).unwrap();
                let got: Vec<_> = out.pairs.iter().map(|r| r.sort_key()).collect();
                let want: Vec<_> = all.iter().map(|r| r.sort_key()).collect();
                assert_eq!(got, want, "cross {} k={k} threads={threads}", alg.label());
                let out = self_closest_pairs(&tp, k, alg, &cfg).unwrap();
                assert_eq!(
                    out.pairs.len(),
                    all_self.len(),
                    "self {} k={k}",
                    alg.label()
                );
            }
        }
        let out = k_closest_pairs_incremental(&tp, &tq, k, &IncrementalConfig::default()).unwrap();
        assert_eq!(out.pairs.len(), all.len(), "incremental k={k}");
        assert_eq!(tp.knn(&cpq_geo::Point([0.0, 0.0]), k).unwrap().len(), 100);
    }
}
