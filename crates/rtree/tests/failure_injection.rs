//! Failure injection: corrupted pages and freed pages must propagate as
//! `Err` through every query path — never a panic, never silent garbage.

use cpq_geo::Point;
use cpq_rng::Rng;
use cpq_rtree::{RTree, RTreeError, RTreeParams};
use cpq_storage::{BufferPool, MemPageFile, PageId};

fn build(n: usize, seed: u64) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 0);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..n as u64 {
        tree.insert(
            Point([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]),
            i,
        )
        .unwrap();
    }
    tree
}

/// Overwrites one page with garbage directly through the pool.
fn corrupt_page(tree: &RTree<2>, id: PageId, pattern: u8) {
    let garbage = vec![pattern; tree.pool().page_size()];
    tree.pool().write_page(id, &garbage).unwrap();
}

#[test]
fn corrupted_root_fails_queries_cleanly() {
    let tree = build(500, 1);
    corrupt_page(&tree, tree.root(), 0xFF);
    let err = tree.knn(&Point([50.0, 50.0]), 3).unwrap_err();
    assert!(matches!(err, RTreeError::CorruptNode { .. }), "got {err}");
    assert!(tree
        .range_query(&cpq_geo::Rect::from_corners([0.0, 0.0], [10.0, 10.0]))
        .is_err());
    assert!(tree.all_objects().is_err());
    assert!(tree.validate().is_err());
}

#[test]
fn corrupted_interior_page_detected_during_traversal() {
    let tree = build(2000, 2);
    assert!(tree.height() >= 3);
    // Corrupt some non-root page (page ids are dense; skip the root).
    let victim = (0..tree.pool().num_pages())
        .map(PageId)
        .find(|&p| p != tree.root())
        .unwrap();
    corrupt_page(&tree, victim, 0xAB);
    // A full scan must hit it and report, not panic.
    let result = tree.all_objects();
    assert!(result.is_err(), "full scan must detect the corrupt page");
}

#[test]
fn zeroed_page_decodes_as_empty_leaf_and_validator_objects() {
    // An all-zero page happens to decode as a level-0 leaf with 0 entries —
    // plausible-looking garbage. The validator must still flag the tree
    // because parent MBRs/cardinalities no longer match.
    let tree = build(2000, 3);
    let victim = (0..tree.pool().num_pages())
        .map(PageId)
        .find(|&p| p != tree.root())
        .unwrap();
    corrupt_page(&tree, victim, 0x00);
    // An Err is also acceptable: the structural walk failed outright.
    if let Ok(report) = tree.validate() {
        assert!(
            !report.is_valid(),
            "validator must flag a zeroed page; got a clean report"
        );
    }
}

#[test]
fn freed_page_read_is_an_error() {
    let tree = build(100, 4);
    // Free a page behind the tree's back.
    let victim = (0..tree.pool().num_pages())
        .map(PageId)
        .find(|&p| p != tree.root())
        .unwrap();
    tree.pool().free_page(victim).unwrap();
    let result = tree.all_objects();
    assert!(result.is_err(), "reading a freed page must fail");
}

#[test]
fn cpq_over_corrupted_tree_reports_error() {
    // The closest-pair algorithms sit on top of read_node; corruption below
    // must surface through their Result, not panic.
    use cpq_storage::DEFAULT_PAGE_SIZE;
    let _ = DEFAULT_PAGE_SIZE;
    let ta = build(800, 5);
    let tb = build(800, 6);
    let victim = (0..tb.pool().num_pages())
        .map(PageId)
        .find(|&p| p != tb.root())
        .unwrap();
    corrupt_page(&tb, victim, 0xEE);
    // Run through the rtree-level scan that the CPQ engine uses; the engine
    // itself is exercised in cpq-core's failure tests.
    assert!(tb.all_objects().is_err());
    assert!(ta.all_objects().is_ok(), "untouched tree keeps working");
}

#[test]
fn corrupt_page_counts_its_miss_then_fails_the_shared_read() {
    // A resident pool: the corrupt page is read (a miss, then a hit), and
    // each read is accounted before decoding fails; nothing is cached for
    // it, and a rewrite with a valid node reads back fine.
    let tree = build(300, 7);
    tree.pool().set_capacity(64);
    let victim = (0..tree.pool().num_pages())
        .map(PageId)
        .find(|&p| p != tree.root())
        .unwrap();
    let good = tree.read_node(victim).unwrap();
    let good_bytes = tree.pool().read_page(victim).unwrap().to_vec();
    corrupt_page(&tree, victim, 0xFF);
    tree.pool().clear();
    tree.pool().reset_stats();
    for _ in 0..2 {
        let err = tree.read_shared(victim).unwrap_err();
        assert!(matches!(err, RTreeError::CorruptNode { page, .. } if page == victim));
    }
    let s = tree.pool().buffer_stats();
    assert_eq!((s.logical_reads, s.misses, s.hits), (2, 1, 1));
    assert_eq!(tree.pool().io_stats().reads, 1);

    tree.pool().write_page(victim, &good_bytes).unwrap();
    assert_eq!(*tree.read_shared(victim).unwrap().node(), good);
}
