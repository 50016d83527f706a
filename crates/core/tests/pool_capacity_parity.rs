//! Decoded nodes cached in buffer frames, with their lazily computed leaf
//! orders, are a pure CPU optimization: across pool capacities — none, a
//! few frames that keep evicting (and re-decoding), and room for both
//! trees — and across a cold run and a warm rerun that reuses every cached
//! decode and order, HEAP and STD must return the brute-force oracle's
//! pairs bit for bit and do exactly the same work. Only the disk accesses
//! may differ between capacities, and those must be the pool's misses over
//! an unchanged number of logical reads.

use cpq_core::brute::{k_closest_pairs_brute, self_k_closest_pairs_brute};
use cpq_core::{
    k_closest_pairs, self_closest_pairs, Algorithm, CpqConfig, CpqStats, LeafScan, PairResult,
    QueryOutcome,
};
use cpq_datasets::{uniform, uniform_grid, Dataset, WORKSPACE_SIDE};
use cpq_geo::Point2;
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{BufferPool, MemPageFile};

/// More frames than both trees have pages.
const RESIDENT: usize = 4096;
const CAPACITIES: [usize; 3] = [0, 8, RESIDENT];
const ALGORITHMS: [Algorithm; 2] = [Algorithm::SortedDistances, Algorithm::Heap];
const KS: [usize; 3] = [1, 10, 100];

fn build(d: &Dataset) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), RESIDENT);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    for (p, oid) in d.indexed() {
        tree.insert(p, oid).unwrap();
    }
    tree
}

fn config() -> CpqConfig {
    CpqConfig {
        leaf_scan: LeafScan::PlaneSweep,
        ..CpqConfig::paper()
    }
}

/// The counters that must not depend on the pool: everything but the
/// disk accesses.
fn work(s: &CpqStats) -> CpqStats {
    CpqStats {
        disk_accesses_p: 0,
        disk_accesses_q: 0,
        ..*s
    }
}

fn assert_pairs(got: &[PairResult<2>], want: &[PairResult<2>], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: result count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.p.oid == w.p.oid
                && g.q.oid == w.q.oid
                && g.dist2.get().to_bits() == w.dist2.get().to_bits(),
            "{label}: pair {i}: got ({}, {}, {}), oracle ({}, {}, {})",
            g.p.oid,
            g.q.oid,
            g.dist2.get(),
            w.p.oid,
            w.q.oid,
            w.dist2.get()
        );
    }
}

/// Runs `query` cold and warm at every capacity and checks both runs
/// against the oracle and against the first configuration's work.
fn check(
    trees: &[&RTree<2>],
    oracle: &[PairResult<2>],
    label: &str,
    query: impl Fn() -> QueryOutcome<2>,
) {
    let logical = || -> u64 {
        trees
            .iter()
            .map(|t| t.pool().buffer_stats().logical_reads)
            .sum()
    };
    let mut reference: Option<(CpqStats, u64)> = None;
    for cap in CAPACITIES {
        for t in trees {
            t.pool().set_capacity(cap);
        }
        for run in ["cold", "warm"] {
            let label = format!("{label} cap={cap} {run}");
            let before = logical();
            let out = query();
            let reads = logical() - before;
            assert_pairs(&out.pairs, oracle, &label);
            let (want_work, want_reads) = *reference.get_or_insert((work(&out.stats), reads));
            assert_eq!(work(&out.stats), want_work, "{label}: work counters");
            assert_eq!(reads, want_reads, "{label}: logical reads");
            if cap == 0 {
                assert_eq!(
                    out.stats.disk_accesses(),
                    reads,
                    "{label}: every read misses"
                );
            }
            if cap == RESIDENT && run == "warm" {
                assert_eq!(out.stats.disk_accesses(), 0, "{label}: resident rerun");
            }
        }
    }
}

fn check_cross(p: &Dataset, q: &Dataset, label: &str) {
    let (tp, tq) = (build(p), build(q));
    for k in KS {
        let oracle = k_closest_pairs_brute(&p.indexed(), &q.indexed(), k);
        for alg in ALGORITHMS {
            let label = format!("{label} cross {} k={k}", alg.label());
            check(&[&tp, &tq], &oracle, &label, || {
                k_closest_pairs(&tp, &tq, k, alg, &config()).unwrap()
            });
        }
    }
}

fn check_self(d: &Dataset, label: &str) {
    let tree = build(d);
    for k in KS {
        let oracle = self_k_closest_pairs_brute(&d.indexed(), k);
        for alg in ALGORITHMS {
            let label = format!("{label} self {} k={k}", alg.label());
            check(&[&tree], &oracle, &label, || {
                self_closest_pairs(&tree, k, alg, &config()).unwrap()
            });
        }
    }
}

/// A coarse grid: many points share coordinates, so the result boundary,
/// the leaf orders and the HEAP queue keys are all full of exact ties.
fn tie_storm(n: usize, seed: u64) -> Dataset {
    uniform_grid(n, seed, WORKSPACE_SIDE / 9.0)
}

#[test]
fn tie_storm_cross_joins_match_across_pool_capacities() {
    check_cross(&tie_storm(400, 31), &tie_storm(350, 32), "grid");
}

#[test]
fn tie_storm_self_joins_match_across_pool_capacities() {
    check_self(&tie_storm(400, 33), "grid");
}

#[test]
fn uniform_joins_match_across_pool_capacities() {
    check_cross(&uniform(500, 34), &uniform(450, 35), "uniform");
    check_self(&uniform(500, 36), "uniform");
}

#[test]
fn duplicate_points_match_across_pool_capacities() {
    // Every point twice: identical coordinates under distinct oids, so
    // zero-distance pairs fill the whole result.
    let mut d = uniform(200, 37);
    let copy: Vec<Point2> = d.points.clone();
    d.points.extend(copy);
    check_self(&d, "duplicated");
    check_cross(&d, &uniform(300, 38), "duplicated");
}
