//! The Heap algorithm (Section 3.5): the iterative, non-recursive variant.
//!
//! A global min-heap keyed by `MINMINDIST` holds pairs of nodes awaiting
//! processing. Unlike the incremental algorithms of Hjaltason & Samet, the
//! heap stores **only node/node pairs** — never node/object or object/object
//! items — which keeps it small enough to live entirely in main memory
//! (Section 3.9). Ties of `MINMINDIST` are resolved by the configured
//! strategy T1–T5, then FIFO. Queue items are 32 bytes of integer keys, and
//! the queue's storage is reused across the runs of one thread.

use crate::engine::{spec_page, Ctx};
use cpq_geo::SpatialObject;
use cpq_obs::{Probe, ProbeSide};
use cpq_rtree::{DecodedNode, RTreeResult};
use cpq_storage::PageId;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A node pair queued for processing: 32 bytes of integer keys.
///
/// The derived order compares `minmin`, then `tie`, then `seq` — exactly
/// the order of `(MINMINDIST, tie key, FIFO)` under `f64::total_cmp`, since
/// [`total_order_bits`] maps `total_cmp` onto unsigned integer order. `seq`
/// is unique, so `pages` never decides a comparison.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct HeapItem {
    minmin: u64,
    tie: u64,
    seq: u64,
    /// `page_p` in the high half, `page_q` in the low half.
    pages: u64,
}

/// Maps an `f64` to a `u64` whose unsigned order is the `f64`'s
/// `total_cmp` order (flip every bit of a negative, only the sign bit of a
/// non-negative value).
#[inline]
fn total_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Largest queue storage (in items, 32 MiB) a thread keeps between runs;
/// a run that grew past it frees its storage instead.
const MAX_RETAINED_ITEMS: usize = 1 << 20;

thread_local! {
    /// The queue storage of the last HEAP run on this thread, kept so the
    /// next run starts with the capacity the previous one grew to (service
    /// workers run query after query). A nested run on the same thread
    /// finds it taken and starts empty.
    static QUEUE: RefCell<Vec<Reverse<HeapItem>>> = const { RefCell::new(Vec::new()) };
}

/// Runs the Heap algorithm starting from the two root nodes (already read by
/// the caller, which also charged those two page accesses).
pub(crate) fn heap_run<const D: usize, O: SpatialObject<D>, P: Probe>(
    ctx: &mut Ctx<'_, D, O, P>,
    root_p: &DecodedNode<D, O>,
    root_q: &DecodedNode<D, O>,
) -> RTreeResult<()> {
    let mut storage = QUEUE.with(|q| std::mem::take(&mut *q.borrow_mut()));
    storage.clear();
    let mut heap = BinaryHeap::from(storage);
    let result = heap_loop(ctx, root_p, root_q, &mut heap);
    let mut storage = heap.into_vec();
    if storage.capacity() <= MAX_RETAINED_ITEMS {
        storage.clear();
        QUEUE.with(|q| *q.borrow_mut() = storage);
    }
    result
}

fn heap_loop<const D: usize, O: SpatialObject<D>, P: Probe>(
    ctx: &mut Ctx<'_, D, O, P>,
    root_p: &DecodedNode<D, O>,
    root_q: &DecodedNode<D, O>,
    heap: &mut BinaryHeap<Reverse<HeapItem>>,
) -> RTreeResult<()> {
    let mut seq = 0u64;

    // CP2 on the root pair seeds the heap with its surviving candidates.
    process_pair(
        ctx,
        root_p,
        ctx.tp.root(),
        root_q,
        ctx.tq.root(),
        heap,
        &mut seq,
    )?;

    while let Some(Reverse(item)) = heap.pop() {
        // CP5: stop when the closest remaining pair cannot beat T.
        if item.minmin > total_order_bits(ctx.t().get()) {
            break;
        }
        let page_p = PageId((item.pages >> 32) as u32);
        let page_q = PageId(item.pages as u32);
        let np = ctx.read_side(ProbeSide::P, page_p)?;
        let nq = ctx.read_side(ProbeSide::Q, page_q)?;
        process_pair(ctx, &np, page_p, &nq, page_q, heap, &mut seq)?;
    }
    Ok(())
}

/// CP2/CP3 of the Heap algorithm on one node pair: scan leaves, or generate
/// candidates, tighten bounds, and push survivors (`Stay` sides keep the
/// current page id — the node will simply be re-read when the pair is
/// popped, which is exactly the I/O a paged implementation performs).
#[allow(clippy::too_many_arguments)]
fn process_pair<const D: usize, O: SpatialObject<D>, P: Probe>(
    ctx: &mut Ctx<'_, D, O, P>,
    np: &DecodedNode<D, O>,
    page_p: PageId,
    nq: &DecodedNode<D, O>,
    page_q: PageId,
    heap: &mut BinaryHeap<Reverse<HeapItem>>,
    seq: &mut u64,
) -> RTreeResult<()> {
    ctx.check_cancel()?;
    ctx.stats.node_pairs_processed += 1;
    if np.is_leaf() && nq.is_leaf() {
        ctx.scan_leaves_at(np, nq, page_p, page_q);
        return Ok(());
    }
    let mut cands = ctx.take_cands();
    ctx.gen_cands_at(np, nq, page_p, page_q, true, &mut cands);
    ctx.apply_bounds(&cands);
    for c in cands.drain(..) {
        if c.minmin > ctx.t() {
            ctx.stats.pairs_pruned += 1;
            continue;
        }
        let next_p = spec_page(&c.p, page_p);
        let next_q = spec_page(&c.q, page_q);
        let tie_key = ctx
            .cfg
            .tie
            .key(&c.mbr_p, &c.mbr_q, ctx.root_area_p, ctx.root_area_q);
        *seq += 1;
        heap.push(Reverse(HeapItem {
            minmin: total_order_bits(c.minmin.get()),
            tie: total_order_bits(tie_key),
            seq: *seq,
            pages: (u64::from(next_p.0) << 32) | u64::from(next_q.0),
        }));
        ctx.stats.queue_inserts += 1;
        ctx.stats.queue_peak = ctx.stats.queue_peak.max(heap.len());
    }
    ctx.return_cands(cands);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_bits_matches_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::INFINITY,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
        assert_eq!(std::mem::size_of::<Reverse<HeapItem>>(), 32);
    }
}
