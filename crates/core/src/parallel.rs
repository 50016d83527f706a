//! Intra-query parallel K-CPQ execution: a deterministic sequential driver
//! plus speculative worker threads sharing a global bound.
//!
//! # The speculative-oracle model
//!
//! Parallelizing the paper's algorithms naively — splitting the node-pair
//! frontier across threads — makes results depend on interleaving: the
//! threshold `T` tightens in a different order, so different candidates are
//! pruned and different (tie-breaking) pairs can be retained. This module
//! takes a different route that keeps results **bit-identical** to the
//! sequential engine by construction:
//!
//! * The **driver** (the thread that called the query) runs the *unchanged*
//!   sequential control flow of whichever algorithm was requested — same
//!   traversal, same pruning decisions, same K-heap, same counters.
//! * `N - 1` **workers** race ahead of the driver. They pop node pairs in
//!   best-first `MINMINDIST` order from sharded work-stealing queues,
//!   fetch and decode the nodes (warming a shared node cache), precompute
//!   candidate lists at `T = ∞` for inner pairs and task-local top-K offer
//!   lists for leaf pairs (a shared pair cache), and enqueue the children
//!   of admitted candidates — skipping any whose `MINMINDIST` exceeds the
//!   shared **global bound**, an `AtomicU64` holding the bit pattern of an
//!   `f64` that every thread monotonically tightens by CAS.
//! * The driver *consults* those caches at its three expensive points
//!   (node reads, candidate generation, leaf scans) and falls back to
//!   computing inline on a miss. Because a cache hit returns exactly what
//!   the driver would have computed (see the determinism argument in
//!   `DESIGN.md` §11), speculation changes wall-clock time and nothing
//!   else.
//!
//! Speculation is therefore *performance-only*: a skipped task, a lost
//! steal race, or an aborted worker can never change the answer, only how
//! much of the work the driver has to redo itself. Cancellation keeps the
//! sequential semantics (the driver polls its token once per node pair, so
//! a timed-out partial answer is an exact sequential prefix), and a storage
//! error observed by *any* thread fails the query with exactly that error.
//!
//! # Memory ordering
//!
//! The shared bound and all counters use `Relaxed` operations: the bound is
//! a performance hint whose staleness only costs redundant speculation
//! (monotonicity is enforced by the CAS loop, not by ordering), and the
//! counters are read only after the workers are joined. The caches and
//! queues live behind `Mutex`es, whose lock/unlock pairs provide all the
//! happens-before edges correctness needs. `shutdown` uses
//! `Release`/`Acquire` so a parked worker that observes it also observes
//! the final queue state.

use crate::bound::SharedBound;
use crate::cancel::CancelToken;
use crate::engine::{descend_sides, spec_page, Cand};
use crate::kheap::KHeap;
use crate::query::{run_leader, ExecCtx, Query};
use crate::spec::Constraint;
use crate::types::{PairResult, QueryRun};
use cpq_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use cpq_check::sync::{Arc, Condvar, Mutex};
use cpq_geo::{min_min_dist2, Dist2, SpatialObject};
use cpq_obs::{ParallelReport, Probe, ProbeSide};
use cpq_rng::Rng;
use cpq_rtree::{DecodedNode, RTree, RTreeError, RTreeResult};
use cpq_storage::PageId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// One speculation request: a node pair to prefetch and precompute,
/// prioritized by `MINMINDIST`.
///
/// The distance is kept as raw `f64` bits: IEEE-754 ordering agrees with
/// numeric ordering for non-negative finite values, so the derived
/// lexicographic `Ord` pops pairs in ascending-distance order (page ids
/// break exact ties deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SpecReq {
    minmin_bits: u64,
    page_p: u32,
    page_q: u32,
}

/// What a speculative task produced for one node pair.
pub(crate) enum TaskOut<const D: usize, O: SpatialObject<D>> {
    /// Inner pair: the full candidate list generated at `T = ∞` (no
    /// pruning), in the driver's generation order, with every `MINMINDIST`
    /// computed by the full kernel — the driver filters it by its live
    /// threshold, which reproduces the sequential result exactly.
    Inner(Vec<Cand<D>>),
    /// Leaf pair: the task-local top-K offers (in canonical order) plus the
    /// number of kernel invocations a brute-force scan performs. Replaying
    /// the offers into the driver's global K-heap is lossless (see
    /// `Ctx::scan_leaves_at`).
    Leaf {
        /// Task-local K best pairs, sorted by the canonical order.
        offers: Vec<PairResult<D, O>>,
        /// Brute-force kernel invocations for the pair (after the self-join
        /// orientation filter).
        dists: u64,
    },
}

/// Timing and counting for one worker thread's lifetime.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerStats {
    tasks: u64,
    busy_ns: u64,
}

#[inline]
fn pair_key(p: u32, q: u32) -> u64 {
    ((p as u64) << 32) | q as u64
}

/// Shared state of one parallel query: queues, caches, the global bound,
/// error/abort/shutdown flags, and speculation counters.
///
/// Created per query by [`run_parallel`] and borrowed by the driver's `Ctx`
/// (`Ctx::par`) and every worker for the duration of the run.
pub(crate) struct SpecRuntime<const D: usize, O: SpatialObject<D>> {
    /// Sharded speculation queues (one per worker): a min-heap of pending
    /// requests each. Pushes round-robin across shards; worker `w` pops its
    /// own shard first and steals from the others when it runs dry.
    shards: Vec<Mutex<BinaryHeap<Reverse<SpecReq>>>>,
    /// Pairs ever claimed for execution (superset of the pair-cache keys).
    /// Claiming before executing makes task execution exactly-once and
    /// lets pushes drop requests that are already in flight.
    claimed: Mutex<HashSet<u64>>,
    /// Decoded-node caches, one per side (a self-join populates both with
    /// the same tree's nodes; the duplication is harmless).
    nodes_p: Mutex<HashMap<u32, Arc<DecodedNode<D, O>>>>,
    nodes_q: Mutex<HashMap<u32, Arc<DecodedNode<D, O>>>>,
    /// Finished speculative tasks by pair key.
    pairs: Mutex<HashMap<u64, Arc<TaskOut<D, O>>>>,
    /// The shared global bound (see [`crate::SharedBound`]): an upper bound
    /// on the K-th result distance, monotonically tightened by CAS.
    /// Every published value is a genuine upper bound — the driver's live
    /// threshold `T`, or a worker's task-local K-th-best leaf distance —
    /// so a request skipped for exceeding it can never contain a result
    /// pair, making the skip performance-only.
    bound: SharedBound,
    /// Set by [`shutdown`](Self::shutdown) when the driver is done.
    shutdown: AtomicBool,
    /// Set when any worker observes an error: everyone winds down early.
    abort: AtomicBool,
    /// First error observed by a worker; the driver surfaces it via
    /// [`check_error`](Self::check_error) or at teardown.
    error: Mutex<Option<RTreeError>>,
    /// Park/wake for idle workers. Workers re-check the queues on every
    /// wake and time out periodically, so a lost notification costs at
    /// most one timeout interval, never a deadlock.
    idle: Mutex<()>,
    wake: Condvar,
    /// Round-robin cursor for the push side.
    push_cursor: AtomicU64,
    k: usize,
    self_join: bool,
    /// The query's result-pair constraint. Workers must replicate the
    /// driver's filtering exactly — the leaf-pair admission test and the
    /// candidate-side window clipping — or their cached work products
    /// would diverge from what the driver computes inline on a miss.
    constraint: Constraint<D>,
    height: crate::HeightStrategy,
    yield_seed: Option<u64>,
    // Speculation counters (Relaxed; read after the workers are joined).
    tasks_speculated: AtomicU64,
    cache_hits: AtomicU64,
    steals: AtomicU64,
    steal_misses: AtomicU64,
}

impl<const D: usize, O: SpatialObject<D>> SpecRuntime<D, O> {
    fn new(workers: usize, query: &Query<D>) -> Self {
        SpecRuntime {
            shards: (0..workers.max(1))
                .map(|_| Mutex::new(BinaryHeap::new()))
                .collect(),
            claimed: Mutex::new(HashSet::new()),
            nodes_p: Mutex::new(HashMap::new()),
            nodes_q: Mutex::new(HashMap::new()),
            pairs: Mutex::new(HashMap::new()),
            bound: SharedBound::new(),
            shutdown: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            error: Mutex::new(None),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            push_cursor: AtomicU64::new(0),
            k: query.k.max(1),
            self_join: query.is_self_join(),
            constraint: query.constraint,
            height: query.config.height,
            yield_seed: query.config.parallel_yield_seed,
            tasks_speculated: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            steal_misses: AtomicU64::new(0),
        }
    }

    /// The shared bound as a distance value.
    #[inline]
    fn bound_d2(&self) -> f64 {
        self.bound.get_d2()
    }

    /// Monotonically tightens the shared bound to `min(bound, d2)` (CAS
    /// min; see [`SharedBound::tighten`]).
    fn tighten(&self, d2: f64) {
        self.bound.tighten(d2);
    }

    /// Publishes the driver's live threshold `T` (an upper bound on the
    /// K-th result distance whenever it is finite).
    #[inline]
    pub(crate) fn publish_threshold(&self, t: Dist2) {
        self.bound.publish_threshold(t);
    }

    /// Surfaces the first worker-observed error into the driver, once.
    #[inline]
    pub(crate) fn check_error(&self) -> RTreeResult<()> {
        // ordering: Relaxed — advisory early-out; the error itself is
        // transferred under the `error` mutex, which provides the edge.
        if self.abort.load(Ordering::Relaxed) {
            if let Some(e) = self.error.lock().expect("error slot poisoned").take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Driver-side node-cache lookup.
    pub(crate) fn cached_node(
        &self,
        side: ProbeSide,
        page: PageId,
    ) -> Option<Arc<DecodedNode<D, O>>> {
        self.node_map(side)
            .lock()
            .expect("node cache poisoned")
            .get(&page.0)
            .cloned()
    }

    /// Inserts a node the driver had to read itself.
    pub(crate) fn insert_node(&self, side: ProbeSide, page: PageId, node: Arc<DecodedNode<D, O>>) {
        self.node_map(side)
            .lock()
            .expect("node cache poisoned")
            .insert(page.0, node);
    }

    fn node_map(&self, side: ProbeSide) -> &Mutex<HashMap<u32, Arc<DecodedNode<D, O>>>> {
        match side {
            ProbeSide::P => &self.nodes_p,
            ProbeSide::Q => &self.nodes_q,
        }
    }

    /// Driver-side pair-cache lookup (counts a speculation cache hit).
    pub(crate) fn cached_pair(&self, page_p: PageId, page_q: PageId) -> Option<Arc<TaskOut<D, O>>> {
        let hit = self
            .pairs
            .lock()
            .expect("pair cache poisoned")
            .get(&pair_key(page_p.0, page_q.0))
            .cloned();
        if hit.is_some() {
            // ordering: Relaxed — counter read after worker join.
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Enqueues a node pair for speculation unless the shared bound already
    /// rules it out or it was claimed before.
    pub(crate) fn push_spec(&self, minmin: Dist2, page_p: PageId, page_q: PageId) {
        if minmin.get() > self.bound_d2() {
            return; // performance-only skip: cannot contain a result pair
        }
        if self
            .claimed
            .lock()
            .expect("claimed set poisoned")
            .contains(&pair_key(page_p.0, page_q.0))
        {
            return;
        }
        // ordering: Relaxed — round-robin cursor; any distribution of
        // pushes across shards is correct, balance is best-effort.
        let shard = (self.push_cursor.fetch_add(1, Ordering::Relaxed) as usize) % self.shards.len();
        self.shards[shard]
            .lock()
            .expect("spec shard poisoned")
            .push(Reverse(SpecReq {
                minmin_bits: minmin.get().to_bits(),
                page_p: page_p.0,
                page_q: page_q.0,
            }));
        self.wake.notify_one();
    }

    /// Pops the best pending request, own shard first, then stealing.
    fn pop_spec(&self, worker: usize) -> Option<SpecReq> {
        let n = self.shards.len();
        for i in 0..n {
            let shard = (worker + i) % n;
            let popped = self.shards[shard]
                .lock()
                .expect("spec shard poisoned")
                .pop();
            if let Some(Reverse(req)) = popped {
                if i > 0 {
                    // ordering: Relaxed — counter read after worker join.
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(req);
            }
        }
        if n > 1 {
            // ordering: Relaxed — counter read after worker join.
            self.steal_misses.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Tells the workers the driver is done; they drain out and exit.
    fn shutdown(&self) {
        // ordering: Release — pairs with the workers' Acquire loads so a
        // worker observing shutdown also observes the final queue state
        // (module docs, "Memory ordering").
        self.shutdown.store(true, Ordering::Release);
        let _guard = self.idle.lock().expect("idle lock poisoned");
        self.wake.notify_all();
    }
}

/// One worker thread: pop best-first, claim, execute, push children.
fn worker_loop<const D: usize, O: SpatialObject<D>>(
    rt: &SpecRuntime<D, O>,
    worker: usize,
    tp: &RTree<D, O>,
    tq: &RTree<D, O>,
    cancel: Option<&CancelToken>,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut rng = rt.yield_seed.map(|seed| {
        Rng::seed_from_u64(seed.wrapping_add((worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    });
    let mut maybe_yield = move || {
        if let Some(rng) = rng.as_mut() {
            if rng.random_bool(0.25) {
                std::thread::yield_now();
            }
        }
    };
    loop {
        // ordering: Acquire on `shutdown` (pairs with `shutdown`'s Release
        // so the final queue state is visible); Relaxed on `abort` (the
        // error rides the `error` mutex, the flag is only an early-out).
        if rt.shutdown.load(Ordering::Acquire) || rt.abort.load(Ordering::Relaxed) {
            break;
        }
        if cancel.is_some_and(|token| token.is_cancelled()) {
            break;
        }
        let Some(req) = rt.pop_spec(worker) else {
            let guard = rt.idle.lock().expect("idle lock poisoned");
            // ordering: Acquire/Relaxed — same pair as the loop head; the
            // re-check under the idle lock closes the park/notify race.
            if rt.shutdown.load(Ordering::Acquire) || rt.abort.load(Ordering::Relaxed) {
                break;
            }
            drop(
                rt.wake
                    .wait_timeout(guard, Duration::from_micros(200))
                    .expect("idle wait poisoned"),
            );
            continue;
        };
        maybe_yield();
        // Claim: first worker in wins; stale duplicates (the same pair can
        // be generated from two different parents) are dropped here.
        if !rt
            .claimed
            .lock()
            .expect("claimed set poisoned")
            .insert(pair_key(req.page_p, req.page_q))
        {
            continue;
        }
        if f64::from_bits(req.minmin_bits) > rt.bound_d2() {
            continue; // the bound tightened past it while queued
        }
        let started = Instant::now();
        match exec_task(rt, req, tp, tq) {
            Ok(()) => {}
            Err(e) => {
                // First error wins; everyone winds down. Workers never
                // panic — a failed speculative read is an ordinary result.
                let mut slot = rt.error.lock().expect("error slot poisoned");
                if slot.is_none() {
                    *slot = Some(e);
                }
                drop(slot);
                // ordering: Relaxed — the mutex release above already
                // published the error; the flag is only an early-out hint.
                rt.abort.store(true, Ordering::Relaxed);
                break;
            }
        }
        maybe_yield();
        stats.busy_ns += started.elapsed().as_nanos() as u64;
        stats.tasks += 1;
        // ordering: Relaxed — counter read after worker join.
        rt.tasks_speculated.fetch_add(1, Ordering::Relaxed);
    }
    stats
}

/// Fetches a node for a worker, through the shared cache.
fn worker_node<const D: usize, O: SpatialObject<D>>(
    rt: &SpecRuntime<D, O>,
    side: ProbeSide,
    tree: &RTree<D, O>,
    page: u32,
) -> RTreeResult<Arc<DecodedNode<D, O>>> {
    if let Some(node) = rt.cached_node(side, PageId(page)) {
        return Ok(node);
    }
    let node = tree.read_shared(PageId(page))?;
    rt.insert_node(side, PageId(page), node.clone());
    Ok(node)
}

/// Executes one speculative task: fetch both nodes, precompute the pair's
/// work product, cache it, and enqueue admitted children.
fn exec_task<const D: usize, O: SpatialObject<D>>(
    rt: &SpecRuntime<D, O>,
    req: SpecReq,
    tp: &RTree<D, O>,
    tq: &RTree<D, O>,
) -> RTreeResult<()> {
    // Fetch both nodes; when both miss on one shared tree (self-join) a
    // single batched pool round-trip (`get_many`) serves them together.
    let cached_p = rt.cached_node(ProbeSide::P, PageId(req.page_p));
    let cached_q = rt.cached_node(ProbeSide::Q, PageId(req.page_q));
    let (np, nq) = match (cached_p, cached_q) {
        (Some(p), Some(q)) => (p, q),
        (None, None) if std::ptr::eq(tp, tq) => {
            let mut nodes = tp.read_nodes(&[PageId(req.page_p), PageId(req.page_q)])?;
            // analyze: allow(panic-path) — read_nodes returns exactly one node
            // per requested id (two here).
            let q = nodes.pop().expect("two nodes");
            // analyze: allow(panic-path) — second of the two nodes read above.
            let p = nodes.pop().expect("two nodes");
            rt.insert_node(ProbeSide::P, PageId(req.page_p), p.clone());
            rt.insert_node(ProbeSide::Q, PageId(req.page_q), q.clone());
            (p, q)
        }
        (p, q) => {
            let p = match p {
                Some(p) => p,
                None => worker_node(rt, ProbeSide::P, tp, req.page_p)?,
            };
            let q = match q {
                Some(q) => q,
                None => worker_node(rt, ProbeSide::Q, tq, req.page_q)?,
            };
            (p, q)
        }
    };

    let key = pair_key(req.page_p, req.page_q);
    if np.is_leaf() && nq.is_leaf() {
        // Leaf pair: brute-force scan into a task-local K-heap. The local
        // top-K is lossless for the driver's global heap, and the local
        // K-th best (over real point pairs) is a valid global upper bound.
        let mut heap: KHeap<D, O> = KHeap::new(rt.k);
        let mut dists = 0u64;
        for ep in np.leaf_entries() {
            for eq in nq.leaf_entries() {
                if rt.self_join && ep.oid >= eq.oid {
                    continue;
                }
                if !rt
                    .constraint
                    .admits_pair(&ep.mbr(), ep.oid, &eq.mbr(), eq.oid)
                {
                    continue; // mirror the driver: filtered before the kernel
                }
                dists += 1;
                heap.offer(PairResult::new(*ep, *eq));
            }
        }
        let local_t = heap.threshold();
        if !local_t.is_infinite() {
            rt.tighten(local_t.get());
        }
        let offers = heap.into_sorted();
        rt.pairs
            .lock()
            .expect("pair cache poisoned")
            .insert(key, Arc::new(TaskOut::Leaf { offers, dists }));
    } else {
        // Inner pair: generate the full candidate list at `T = ∞`,
        // mirroring `Ctx::gen_cands` (same side construction, same cross
        // order, same full-precision kernel) so the driver's filtered view
        // is bit-identical to what it would have generated itself.
        let cands = gen_cands_full(&np, &nq, rt.height, &rt.constraint);
        let mut hint_p: Vec<PageId> = Vec::new();
        let mut hint_q: Vec<PageId> = Vec::new();
        for c in &cands {
            let pp = spec_page(&c.p, PageId(req.page_p));
            let pq = spec_page(&c.q, PageId(req.page_q));
            rt.push_spec(c.minmin, pp, pq);
            // The oracle knows these child pages are likely next: hand
            // them to the I/O scheduler as low-priority hints (no-op on
            // unscheduled pools). Pages this runtime already decoded are
            // skipped; the scheduler dedups the rest against its own
            // queues and in-flight reads.
            if pp != PageId(req.page_p) && rt.cached_node(ProbeSide::P, pp).is_none() {
                hint_p.push(pp);
            }
            if pq != PageId(req.page_q) && rt.cached_node(ProbeSide::Q, pq).is_none() {
                hint_q.push(pq);
            }
        }
        if !hint_p.is_empty() {
            hint_p.sort_unstable();
            hint_p.dedup();
            tp.prefetch(&hint_p);
        }
        if !hint_q.is_empty() {
            hint_q.sort_unstable();
            hint_q.dedup();
            tq.prefetch(&hint_q);
        }
        rt.pairs
            .lock()
            .expect("pair cache poisoned")
            .insert(key, Arc::new(TaskOut::Inner(cands)));
    }
    Ok(())
}

/// Worker-side replica of candidate generation at `T = ∞` (no pruning, no
/// stats): the same side construction and cross-product order as
/// `Ctx::gen_cands`, with every `MINMINDIST` computed by the full kernel.
fn gen_cands_full<const D: usize, O: SpatialObject<D>>(
    np: &DecodedNode<D, O>,
    nq: &DecodedNode<D, O>,
    height: crate::HeightStrategy,
    constraint: &Constraint<D>,
) -> Vec<Cand<D>> {
    use crate::engine::Descend;
    let (descend_p, descend_q) =
        descend_sides(np.is_leaf(), nq.is_leaf(), np.level(), nq.level(), height);
    // analyze: allow(panic-path) — visited nodes are never empty (the
    // tree stores none).
    let whole_p = (np.mbr().expect("non-empty node"), np.subtree_count());
    // analyze: allow(panic-path) — same non-empty-node invariant as above.
    let whole_q = (nq.mbr().expect("non-empty node"), nq.subtree_count());
    // Window clipping mirrors `Ctx::gen_cands` exactly: clipped MBRs are
    // what gets scored and stored, and sides whose MBR misses the window
    // are dropped silently on both paths.
    let mut sides_p: Vec<(Descend<D>, cpq_geo::Rect<D>, u64)> = Vec::new();
    let mut sides_q: Vec<(Descend<D>, cpq_geo::Rect<D>, u64)> = Vec::new();
    if descend_p {
        sides_p.extend(np.inner_entries().iter().filter_map(|e| {
            let mbr = constraint.clip_p(&e.mbr)?;
            Some((Descend::Down(*e), mbr, e.count))
        }));
    } else if let Some(mbr) = constraint.clip_p(&whole_p.0) {
        sides_p.push((Descend::Stay, mbr, whole_p.1));
    }
    if descend_q {
        sides_q.extend(nq.inner_entries().iter().filter_map(|e| {
            let mbr = constraint.clip_q(&e.mbr)?;
            Some((Descend::Down(*e), mbr, e.count))
        }));
    } else if let Some(mbr) = constraint.clip_q(&whole_q.0) {
        sides_q.push((Descend::Stay, mbr, whole_q.1));
    }
    let mut out = Vec::with_capacity(sides_p.len() * sides_q.len());
    for (dp, mbr_p, count_p) in &sides_p {
        for (dq, mbr_q, count_q) in &sides_q {
            out.push(Cand {
                p: *dp,
                q: *dq,
                mbr_p: *mbr_p,
                mbr_q: *mbr_q,
                count_p: *count_p,
                count_q: *count_q,
                minmin: min_min_dist2(mbr_p, mbr_q),
            });
        }
    }
    out
}

/// Runs one query in parallel mode: spawns the workers, runs the unchanged
/// sequential driver against the speculation runtime, tears everything
/// down, and surfaces any worker-observed error.
pub(crate) fn run_parallel<const D: usize, O: SpatialObject<D>, P: Probe>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    query: &Query<D>,
    ctx: ExecCtx<'_, P>,
    misses_before: (u64, u64),
) -> RTreeResult<QueryRun<D, O>> {
    let ExecCtx { cancel, probe, .. } = ctx;
    let workers = query.config.parallelism.saturating_sub(1);
    let runtime: SpecRuntime<D, O> = SpecRuntime::new(workers, query);

    let (leader, worker_stats) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let rt = &runtime;
                scope.spawn(move || worker_loop(rt, w, tree_p, tree_q, cancel))
            })
            .collect();
        let leader = run_leader(
            tree_p,
            tree_q,
            query,
            ExecCtx {
                cancel,
                probe: &mut *probe,
                scatter: None,
            },
            Some(&runtime),
            misses_before,
        );
        runtime.shutdown();
        let worker_stats: Vec<WorkerStats> = handles
            .into_iter()
            // analyze: allow(panic-path) — a panicking worker is a bug; propagate
            // the panic rather than fabricate stats.
            .map(|h| h.join().expect("worker threads never panic"))
            .collect();
        (leader, worker_stats)
    });

    if P::ENABLED {
        // ordering: Relaxed — all counters are read after the workers were
        // joined; the joins provide the happens-before edges.
        let tasks = runtime.tasks_speculated.load(Ordering::Relaxed);
        let cache_hits = runtime.cache_hits.load(Ordering::Relaxed);
        let steals = runtime.steals.load(Ordering::Relaxed);
        let steal_misses = runtime.steal_misses.load(Ordering::Relaxed);
        let bound_updates = runtime.bound.updates();
        probe.parallel_exec(&ParallelReport {
            workers: workers as u64,
            tasks,
            cache_hits,
            steals,
            steal_misses,
            bound_updates,
            worker_busy_ns: worker_stats.iter().map(|s| s.busy_ns).collect(),
        });
    }

    // A storage error observed by a speculative worker fails the query even
    // when the driver never needed the failing page itself: exactly one
    // error surfaces, and reruns on the same trees start clean.
    let run = leader?;
    if let Some(e) = runtime.error.lock().expect("error slot poisoned").take() {
        return Err(e);
    }
    Ok(run)
}

/// Model-checked harnesses for the speculation protocol (compiled only
/// under `RUSTFLAGS="--cfg cpq_model"`).
///
/// `run_parallel` itself spawns scoped threads, which the model scheduler
/// cannot register (see `cpq_check::thread`), so these harnesses drive the
/// protocol pieces of [`SpecRuntime`] directly — the shared-bound CAS, the
/// claim set, and the shard/steal queues — with modeled threads, which is
/// where all the cross-thread state of a parallel query lives.
#[cfg(all(test, cpq_model))]
mod model_tests {
    use super::*;
    use cpq_check::thread;
    use cpq_check::{model, model_dfs, model_pct, DfsOptions, PctOptions};
    use cpq_geo::Point;

    type Rt = SpecRuntime<2, Point<2>>;

    fn runtime(workers: usize) -> Arc<Rt> {
        Arc::new(SpecRuntime::new(
            workers,
            &Query::cross(1, crate::Algorithm::Heap, crate::CpqConfig::default()),
        ))
    }

    #[test]
    fn dfs_bound_is_monotone_and_reaches_the_min() {
        let report = model(|| {
            let rt = runtime(1);
            let tighteners: Vec<_> = [4.0f64, 1.0f64]
                .into_iter()
                .map(|d2| {
                    let rt = Arc::clone(&rt);
                    thread::spawn(move || rt.tighten(d2))
                })
                .collect();
            // A racing reader: two successive observations of the bound
            // must never move upward, whatever the CAS interleaving.
            let first = rt.bound_d2();
            let second = rt.bound_d2();
            assert!(second <= first, "bound widened: {first} -> {second}");
            for t in tighteners {
                t.join().expect("tightener");
            }
            assert_eq!(rt.bound_d2(), 1.0, "the bound settles at the minimum");
        });
        assert!(report.complete, "the DFS must exhaust the interleavings");
        assert!(report.schedules > 1, "explored {}", report.schedules);
    }

    #[test]
    fn dfs_claim_protocol_executes_each_pair_once() {
        // The same pair is enqueued twice (as happens when two parents
        // generate it); two racing workers pop and claim. Exactly one
        // claim may win per pair — a double execution would double-count
        // speculation and double-insert into the pair cache.
        //
        // Preemption-bounded (CHESS-style): the two workers' shard-lock
        // loops make the unbounded tree blow past the schedule cap.
        let report = model_dfs(DfsOptions::smoke(), || {
            let rt = runtime(2);
            rt.push_spec(Dist2::new(1.0), PageId(3), PageId(4));
            rt.push_spec(Dist2::new(1.0), PageId(3), PageId(4));
            let executed = Arc::new(Mutex::new(Vec::new()));
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let rt = Arc::clone(&rt);
                    let executed = Arc::clone(&executed);
                    thread::spawn(move || {
                        while let Some(req) = rt.pop_spec(w) {
                            let fresh = rt
                                .claimed
                                .lock()
                                .expect("claimed set poisoned")
                                .insert(pair_key(req.page_p, req.page_q));
                            if fresh {
                                executed
                                    .lock()
                                    .expect("model lock")
                                    .push(pair_key(req.page_p, req.page_q));
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("worker");
            }
            let executed = executed.lock().expect("model lock");
            assert_eq!(
                executed.as_slice(),
                &[pair_key(3, 4)],
                "a pair queued twice executes exactly once"
            );
        });
        assert!(report.complete);
    }

    #[test]
    fn pct_steal_protocol_loses_no_request() {
        // Four requests round-robined across two shards, two workers
        // popping own-shard-first and stealing: across 200 seeded
        // schedules every request is executed exactly once, whichever
        // worker wins each race.
        let opts = PctOptions::from_env();
        let want = opts.seeds.end - opts.seeds.start;
        let n = model_pct(opts, || {
            let rt = runtime(2);
            for p in 0..4u32 {
                rt.push_spec(Dist2::new(1.0 + f64::from(p)), PageId(p), PageId(p + 10));
            }
            let executed = Arc::new(Mutex::new(Vec::new()));
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let rt = Arc::clone(&rt);
                    let executed = Arc::clone(&executed);
                    thread::spawn(move || {
                        while let Some(req) = rt.pop_spec(w) {
                            let fresh = rt
                                .claimed
                                .lock()
                                .expect("claimed set poisoned")
                                .insert(pair_key(req.page_p, req.page_q));
                            if fresh {
                                executed
                                    .lock()
                                    .expect("model lock")
                                    .push(pair_key(req.page_p, req.page_q));
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("worker");
            }
            let mut executed = executed.lock().expect("model lock").clone();
            executed.sort_unstable();
            let expect: Vec<u64> = (0..4u32).map(|p| pair_key(p, p + 10)).collect();
            assert_eq!(executed, expect, "every request executed exactly once");
        });
        assert_eq!(n, want);
    }
}
