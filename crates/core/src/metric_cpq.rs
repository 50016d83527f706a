//! K-CPQ under arbitrary Minkowski metrics — making Section 2.1's remark
//! ("the presented methods can be easily adapted to any Minkowski metric")
//! concrete.
//!
//! A best-first (HEAP-style) traversal where every bound is the chosen
//! metric's box-to-box minimum distance. The `MINMAXDIST`/`MAXMAXDIST`
//! accelerations are L₂-specific in this codebase, so pruning here uses the
//! K-heap threshold alone — exactly the "simple modification" of
//! Section 3.8, which is correct under any metric.

use crate::types::CpqStats;
use cpq_geo::minkowski::Minkowski;
use cpq_geo::{Point, SpatialObject};
use cpq_rtree::{LeafEntry, Node, RTree, RTreeResult};
use cpq_storage::PageId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One result pair under a Minkowski metric (non-squared distance).
#[derive(Debug, Clone, Copy)]
pub struct MetricPair<const D: usize, O: SpatialObject<D> = Point<D>> {
    /// Object from the first set.
    pub p: LeafEntry<D, O>,
    /// Object from the second set.
    pub q: LeafEntry<D, O>,
    /// Distance under the query's metric.
    pub distance: f64,
}

/// Result of a metric K-CPQ.
#[derive(Debug, Clone)]
pub struct MetricOutcome<const D: usize, O: SpatialObject<D> = Point<D>> {
    /// Pairs sorted by ascending metric distance.
    pub pairs: Vec<MetricPair<D, O>>,
    /// Work counters.
    pub stats: CpqStats,
}

struct QItem {
    bound: f64,
    seq: u64,
    page_p: PageId,
    page_q: PageId,
}

impl PartialEq for QItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QItem {}
impl PartialOrd for QItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A max-heap of the best K distances with their pairs.
struct MetricKHeap<const D: usize, O: SpatialObject<D>> {
    k: usize,
    heap: BinaryHeap<HeapPair<D, O>>,
}

struct HeapPair<const D: usize, O: SpatialObject<D>>(MetricPair<D, O>);
impl<const D: usize, O: SpatialObject<D>> PartialEq for HeapPair<D, O> {
    fn eq(&self, other: &Self) -> bool {
        self.0.distance.total_cmp(&other.0.distance) == Ordering::Equal
    }
}
impl<const D: usize, O: SpatialObject<D>> Eq for HeapPair<D, O> {}
impl<const D: usize, O: SpatialObject<D>> PartialOrd for HeapPair<D, O> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize, O: SpatialObject<D>> Ord for HeapPair<D, O> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.distance.total_cmp(&other.0.distance)
    }
}

impl<const D: usize, O: SpatialObject<D>> MetricKHeap<D, O> {
    fn threshold(&self) -> f64 {
        if self.heap.len() >= self.k {
            // analyze: allow(panic-path) — guarded by the length check above.
            self.heap.peek().expect("non-empty").0.distance
        } else {
            f64::INFINITY
        }
    }
    fn offer(&mut self, pair: MetricPair<D, O>) {
        if self.heap.len() < self.k {
            self.heap.push(HeapPair(pair));
        } else if pair.distance < self.threshold() {
            self.heap.pop();
            self.heap.push(HeapPair(pair));
        }
    }
}

/// Finds the `K` closest pairs under `metric` (`L_1`, `L_2`, general `L_p`
/// or `L_∞`), by a best-first traversal with K-heap pruning.
///
/// Distances between extended objects follow MBR semantics (the metric's
/// box-to-box minimum), exact for points.
pub fn k_closest_pairs_metric<const D: usize, O: SpatialObject<D>>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    k: usize,
    metric: Minkowski,
) -> RTreeResult<MetricOutcome<D, O>> {
    let misses_before = (
        tree_p.pool().buffer_stats().misses,
        tree_q.pool().buffer_stats().misses,
    );
    let mut stats = CpqStats::default();
    let mut kheap = MetricKHeap::<D, O> {
        k: k.max(1),
        heap: BinaryHeap::new(),
    };
    if k == 0 || tree_p.is_empty() || tree_q.is_empty() {
        return Ok(MetricOutcome {
            pairs: Vec::new(),
            stats,
        });
    }

    let mut queue: BinaryHeap<Reverse<QItem>> = BinaryHeap::new();
    let mut seq = 0u64;
    queue.push(Reverse(QItem {
        bound: 0.0,
        seq,
        page_p: tree_p.root(),
        page_q: tree_q.root(),
    }));

    while let Some(Reverse(item)) = queue.pop() {
        if item.bound > kheap.threshold() {
            break;
        }
        let np = tree_p.read_shared(item.page_p)?;
        let nq = tree_q.read_shared(item.page_q)?;
        stats.node_pairs_processed += 1;
        match (np.node(), nq.node()) {
            (Node::Leaf(ps), Node::Leaf(qs)) => {
                for ep in ps {
                    for eq in qs {
                        stats.dist_computations += 1;
                        let d = metric.min_min_dist(&ep.mbr(), &eq.mbr());
                        kheap.offer(MetricPair {
                            p: *ep,
                            q: *eq,
                            distance: d,
                        });
                    }
                }
            }
            _ => {
                // Descend the non-leaf side(s) in lockstep where possible
                // (fix-at-root style simplification: descend the higher
                // level; both when equal).
                let descend_p = !np.is_leaf() && (nq.is_leaf() || np.level() >= nq.level());
                let descend_q = !nq.is_leaf() && (np.is_leaf() || nq.level() >= np.level());
                let sides_p: Vec<(PageId, cpq_geo::Rect<D>)> = if descend_p {
                    np.inner_entries()
                        .iter()
                        .map(|e| (e.child, e.mbr))
                        .collect()
                } else {
                    // analyze: allow(panic-path) — visited nodes are never empty (the
                    // tree stores none).
                    vec![(item.page_p, np.mbr().expect("non-empty"))]
                };
                let sides_q: Vec<(PageId, cpq_geo::Rect<D>)> = if descend_q {
                    nq.inner_entries()
                        .iter()
                        .map(|e| (e.child, e.mbr))
                        .collect()
                } else {
                    // analyze: allow(panic-path) — same non-empty-node invariant as above.
                    vec![(item.page_q, nq.mbr().expect("non-empty"))]
                };
                for &(pp, ref mp) in &sides_p {
                    for &(pq, ref mq) in &sides_q {
                        let bound = metric.min_min_dist(mp, mq);
                        if bound > kheap.threshold() {
                            stats.pairs_pruned += 1;
                            continue;
                        }
                        seq += 1;
                        queue.push(Reverse(QItem {
                            bound,
                            seq,
                            page_p: pp,
                            page_q: pq,
                        }));
                        stats.queue_inserts += 1;
                        stats.queue_peak = stats.queue_peak.max(queue.len());
                    }
                }
            }
        }
    }

    let mut pairs: Vec<MetricPair<D, O>> = kheap.heap.into_iter().map(|h| h.0).collect();
    pairs.sort_by(|a, b| a.distance.total_cmp(&b.distance));
    stats.disk_accesses_p = tree_p.pool().buffer_stats().misses - misses_before.0;
    stats.disk_accesses_q = tree_q.pool().buffer_stats().misses - misses_before.1;
    Ok(MetricOutcome { pairs, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_rng::Rng;
    use cpq_rtree::RTreeParams;
    use cpq_storage::{BufferPool, MemPageFile};

    fn tree_and_points(n: usize, seed: u64) -> (RTree<2>, Vec<Point<2>>) {
        let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 64);
        let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        let pts: Vec<Point<2>> = (0..n)
            .map(|_| Point([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]))
            .collect();
        for (i, &p) in pts.iter().enumerate() {
            tree.insert(p, i as u64).unwrap();
        }
        (tree, pts)
    }

    fn brute(metric: Minkowski, ps: &[Point<2>], qs: &[Point<2>], k: usize) -> Vec<f64> {
        let mut all: Vec<f64> = ps
            .iter()
            .flat_map(|p| qs.iter().map(move |q| metric.pt_dist(p, q)))
            .collect();
        all.sort_by(f64::total_cmp);
        all.truncate(k);
        all
    }

    #[test]
    fn matches_brute_force_under_each_metric() {
        let (tp, ps) = tree_and_points(300, 1);
        let (tq, qs) = tree_and_points(250, 2);
        for metric in [
            Minkowski::L1,
            Minkowski::L2,
            Minkowski::Lp(3.0),
            Minkowski::LInf,
        ] {
            for k in [1usize, 7, 30] {
                let out = k_closest_pairs_metric(&tp, &tq, k, metric).unwrap();
                let expected = brute(metric, &ps, &qs, k);
                assert_eq!(out.pairs.len(), expected.len());
                for (i, (g, e)) in out.pairs.iter().zip(&expected).enumerate() {
                    assert!(
                        (g.distance - e).abs() < 1e-9,
                        "{metric:?} k={k} pair {i}: {} vs {e}",
                        g.distance
                    );
                }
            }
        }
    }

    #[test]
    fn l2_agrees_with_the_main_euclidean_path() {
        let (tp, _) = tree_and_points(200, 3);
        let (tq, _) = tree_and_points(200, 4);
        let metric_out = k_closest_pairs_metric(&tp, &tq, 9, Minkowski::L2).unwrap();
        let euclid = crate::k_closest_pairs(
            &tp,
            &tq,
            9,
            crate::Algorithm::Heap,
            &crate::CpqConfig::paper(),
        )
        .unwrap();
        for (a, b) in metric_out.pairs.iter().zip(&euclid.pairs) {
            assert!((a.distance - b.distance()).abs() < 1e-9);
        }
    }

    #[test]
    fn different_metrics_can_give_different_winners() {
        // Construct sets where the L1 and LInf closest pairs differ.
        let pool = || BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 16);
        let mut tp = RTree::new(pool(), RTreeParams::paper()).unwrap();
        let mut tq = RTree::new(pool(), RTreeParams::paper()).unwrap();
        tp.insert(Point([0.0, 0.0]), 0).unwrap();
        // q0: dx=3, dy=3  -> L1 = 6, LInf = 3
        // q1: dx=5, dy=0  -> L1 = 5, LInf = 5
        tq.insert(Point([3.0, 3.0]), 0).unwrap();
        tq.insert(Point([5.0, 0.0]), 1).unwrap();
        let l1 = k_closest_pairs_metric(&tp, &tq, 1, Minkowski::L1).unwrap();
        let linf = k_closest_pairs_metric(&tp, &tq, 1, Minkowski::LInf).unwrap();
        assert_eq!(l1.pairs[0].q.oid, 1, "L1 picks the axis-aligned point");
        assert_eq!(linf.pairs[0].q.oid, 0, "LInf picks the diagonal point");
    }

    #[test]
    fn empty_and_k_zero() {
        let (tp, _) = tree_and_points(20, 5);
        let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 8);
        let empty: RTree<2> = RTree::new(pool, RTreeParams::paper()).unwrap();
        assert!(k_closest_pairs_metric(&tp, &empty, 3, Minkowski::L1)
            .unwrap()
            .pairs
            .is_empty());
        assert!(k_closest_pairs_metric(&tp, &tp, 0, Minkowski::L1)
            .unwrap()
            .pairs
            .is_empty());
    }
}
