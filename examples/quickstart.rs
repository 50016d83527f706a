//! Quickstart: index two point sets in R*-trees and find their closest
//! pairs.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cpq::core::{k_closest_pairs, Algorithm, CpqConfig};
use cpq::datasets::uniform;
use cpq::geo::Point;
use cpq::rtree::{RTree, RTreeParams};
use cpq::storage::{BufferPool, MemPageFile, DEFAULT_PAGE_SIZE};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two data sets: P and Q, 10,000 uniform points each, in overlapping
    // workspaces.
    let p = uniform(10_000, 42);
    let q = uniform(10_000, 43);

    // Each set gets its own R*-tree over a paged store (1 KiB pages — the
    // paper's configuration, giving node capacity M = 21).
    let build = |points: &[Point<2>]| -> Result<RTree<2>, Box<dyn std::error::Error>> {
        let pool = BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), 64);
        let mut tree = RTree::new(pool, RTreeParams::paper())?;
        for (i, &pt) in points.iter().enumerate() {
            tree.insert(pt, i as u64)?;
        }
        Ok(tree)
    };
    let tree_p = build(&p.points)?;
    let tree_q = build(&q.points)?;
    println!(
        "built trees: |P| = {} (height {}), |Q| = {} (height {})",
        tree_p.len(),
        tree_p.height(),
        tree_q.len(),
        tree_q.height()
    );

    // The single closest pair (1-CPQ: K = 1, which enables the MINMAXDIST
    // bound), using the paper's best all-round algorithm.
    let out = k_closest_pairs(&tree_p, &tree_q, 1, Algorithm::Heap, &CpqConfig::paper())?;
    let best = out.best().expect("non-empty data sets");
    println!(
        "closest pair: P#{} {:?} <-> Q#{} {:?}, distance {:.4}",
        best.p.oid,
        best.p.point().coords(),
        best.q.oid,
        best.q.point().coords(),
        best.distance()
    );
    println!(
        "  cost: {} disk accesses, {} node pairs, {} point distances",
        out.stats.disk_accesses(),
        out.stats.node_pairs_processed,
        out.stats.dist_computations
    );

    // The 10 closest pairs (K-CPQ).
    let out = k_closest_pairs(&tree_p, &tree_q, 10, Algorithm::Heap, &CpqConfig::paper())?;
    println!("\n10 closest pairs:");
    for (i, pair) in out.pairs.iter().enumerate() {
        println!(
            "  {:>2}. P#{:<6} <-> Q#{:<6} distance {:.4}",
            i + 1,
            pair.p.oid,
            pair.q.oid,
            pair.distance()
        );
    }
    Ok(())
}
