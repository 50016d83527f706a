//! The query value and its one executor.
//!
//! A [`Query`] says what is asked: join kind, K, algorithm, result-pair
//! constraint and engine configuration. An [`ExecCtx`] says how one run of
//! it is steered and observed: an optional cancel token, the probe, and an
//! optional scatter context. [`execute`] is the only place that validates a
//! query, takes the buffer-miss baseline, returns early on `K = 0` or an
//! empty tree, and chooses between the sequential driver, the parallel
//! executor (`parallelism > 1`) and a scatter subquery (always sequential).
//! The public entry points of this crate, the shard coordinator, the
//! service worker and continuous K-CPQ all run through it.

use crate::api::Algorithm;
use crate::bound::SharedBound;
use crate::cancel::CancelToken;
use crate::config::CpqConfig;
use crate::engine::{Ctx, ScatterCtx};
use crate::heap_alg::heap_run;
use crate::parallel::{run_parallel, SpecRuntime};
use crate::recursive::{exhaustive, naive, simple, sorted};
use crate::spec::Constraint;
use crate::types::{CpqStats, QueryOutcome, QueryRun};
use cpq_geo::SpatialObject;
use cpq_obs::{Probe, ProbeSide};
use cpq_rtree::{RTree, RTreeError, RTreeResult};

/// Which join shape a query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// K closest pairs between two trees `P` and `Q`.
    Cross,
    /// K closest pairs **within** one tree (Self-CPQ; distinct objects,
    /// each unordered pair once, reported with `p.oid < q.oid`).
    SelfJoin,
}

impl QueryKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            QueryKind::Cross => "cross",
            QueryKind::SelfJoin => "self",
        }
    }
}

/// One K-CPQ described as a value: what is asked, independent of how the
/// run is cancelled, observed or sharded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query<const D: usize> {
    /// Cross-tree query or self-join.
    pub kind: QueryKind,
    /// Number of closest pairs requested (`1` enables the 1-CP special
    /// case of Inequality 2).
    pub k: usize,
    /// Which of the paper's algorithms runs the query.
    pub algorithm: Algorithm,
    /// The result-pair constraint (windows / colored; may be inactive).
    /// Self-joins require a symmetric one ([`Constraint::is_symmetric`]).
    pub constraint: Constraint<D>,
    /// Engine configuration, including intra-query parallelism.
    pub config: CpqConfig,
}

impl<const D: usize> Query<D> {
    /// An unconstrained cross-tree K-CPQ.
    pub fn cross(k: usize, algorithm: Algorithm, config: CpqConfig) -> Self {
        Query {
            kind: QueryKind::Cross,
            k,
            algorithm,
            constraint: Constraint::none(),
            config,
        }
    }

    /// An unconstrained self-join K-CPQ.
    pub fn self_join(k: usize, algorithm: Algorithm, config: CpqConfig) -> Self {
        Query {
            kind: QueryKind::SelfJoin,
            ..Self::cross(k, algorithm, config)
        }
    }

    /// This query under the given result-pair constraint.
    pub fn with_constraint(mut self, constraint: Constraint<D>) -> Self {
        self.constraint = constraint;
        self
    }

    /// `true` for a self-join.
    pub fn is_self_join(&self) -> bool {
        self.kind == QueryKind::SelfJoin
    }

    /// Checks the query's contracts, returning
    /// [`RTreeError::InvalidQuery`] on the first one broken.
    ///
    /// A self-join constraint must be symmetric (`window_p == window_q`):
    /// an unordered pair has no stable side assignment, so per-side windows
    /// would make the result depend on the internal `p.oid < q.oid`
    /// orientation.
    pub fn validate(&self) -> RTreeResult<()> {
        if self.is_self_join() && !self.constraint.is_symmetric() {
            return Err(RTreeError::InvalidQuery(
                "self-join constraints must use one symmetric window".into(),
            ));
        }
        Ok(())
    }
}

/// How one run of a [`Query`] is steered and observed.
///
/// * **Cancel token** — polled once per node-pair visit. When it trips, the
///   run stops within one node visit and returns the K-heap's contents so
///   far with [`QueryRun::completed`]` = false`: a best-effort partial
///   answer, never an error. Without a token, or with one that never
///   trips, results and work counters are those of an uncancellable run.
/// * **Probe** — per-node-access, per-leaf-scan and per-phase callbacks
///   (see [`Probe`]). [`cpq_obs::NullProbe`] compiles every call site
///   away; [`cpq_obs::ProfileProbe`] accumulates a
///   [`cpq_obs::QueryProfile`]. Instrumentation observes, it never steers.
/// * **Scatter context** — marks the run as one shard-pair subquery of a
///   sharded query (see [`with_scatter`](Self::with_scatter)).
pub struct ExecCtx<'a, P: Probe> {
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) probe: &'a mut P,
    pub(crate) scatter: Option<ScatterCtx<'a>>,
}

impl<'a, P: Probe> ExecCtx<'a, P> {
    /// An uncancellable, unsharded run reporting to `probe`.
    pub fn new(probe: &'a mut P) -> Self {
        ExecCtx {
            cancel: None,
            probe,
            scatter: None,
        }
    }

    /// This context with a cooperative cancel token (a deadline, or an
    /// explicit [`CancelToken::cancel`]).
    pub fn with_cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// This context as **one scatter-gather subquery** of a sharded query.
    ///
    /// `bound` is the cross-shard global bound: it joins the engine's
    /// effective threshold `T` as an extra pruning term, and the subquery
    /// publishes its own live `T` back whenever it tightens. Pruning
    /// against it is strict (`> T`), so with a bound that stays at `+∞` the
    /// result is identical to the plain run; with a live bound, only pairs
    /// that cannot belong to the *global* top-K are dropped.
    ///
    /// `orient_by_oid` canonicalizes every retained pair to
    /// `p.oid < q.oid` — required by the off-diagonal subqueries of a
    /// sharded self-join, where the global canonical order does not know
    /// which shard a point came from.
    ///
    /// Scatter subqueries always run the sequential engine and ignore
    /// `config.parallelism`: the coordinator's worker pool is the
    /// parallelism, and the speculative workers' task-local heaps do not
    /// apply the orientation rule.
    pub fn with_scatter(mut self, bound: &'a SharedBound, orient_by_oid: bool) -> Self {
        self.scatter = Some(ScatterCtx {
            bound,
            orient: orient_by_oid,
        });
        self
    }
}

/// Runs `query` over `tree_p` and `tree_q` — the one executor behind every
/// non-incremental K-CPQ entry point.
///
/// A self-join runs over `tree_p` alone; `tree_q` is ignored. Returns
/// pairs sorted by the canonical `(dist2, p.oid, q.oid)` order (fewer than
/// K when fewer pairs qualify) with the run's work counters, including the
/// paper's disk-access metric. Fails with [`RTreeError::InvalidQuery`]
/// when [`Query::validate`] does, before any page is read.
pub fn execute<const D: usize, O: SpatialObject<D>, P: Probe>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    query: &Query<D>,
    ctx: ExecCtx<'_, P>,
) -> RTreeResult<QueryRun<D, O>> {
    query.validate()?;
    let tree_q = if query.is_self_join() { tree_p } else { tree_q };
    let misses_before = (
        tree_p.pool().buffer_stats().misses,
        tree_q.pool().buffer_stats().misses,
    );
    if query.k == 0 || tree_p.is_empty() || tree_q.is_empty() {
        return Ok(QueryRun {
            outcome: QueryOutcome {
                pairs: Vec::new(),
                stats: CpqStats::default(),
            },
            completed: true,
        });
    }
    if ctx.scatter.is_none() && query.config.parallelism > 1 {
        // Intra-query parallel mode: the same driver (`run_leader`) plus
        // speculative workers. Results are bit-identical (see `parallel`).
        return run_parallel(tree_p, tree_q, query, ctx, misses_before);
    }
    run_leader(tree_p, tree_q, query, ctx, None, misses_before)
}

/// The driver: the sequential control flow shared verbatim by sequential
/// runs (`par = None`) and the parallel executor's leader thread
/// (`par = Some`), which is what guarantees the two modes traverse, prune,
/// and retain identically.
pub(crate) fn run_leader<const D: usize, O: SpatialObject<D>, P: Probe>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    query: &Query<D>,
    ctx: ExecCtx<'_, P>,
    par: Option<&SpecRuntime<D, O>>,
    misses_before: (u64, u64),
) -> RTreeResult<QueryRun<D, O>> {
    let mut ctx = Ctx::new(tree_p, tree_q, query, ctx, par);

    // A token that is already tripped (deadline expired while queued) stops
    // the run before it pays for the two root reads.
    if ctx.check_cancel().is_err() {
        return Ok(QueryRun {
            outcome: ctx.finish(misses_before),
            completed: false,
        });
    }

    // CP1: start from the two roots (one page access each; for a self-join
    // the second read hits the same pool).
    let (page_p, page_q) = (tree_p.root(), tree_q.root());
    let root_p = ctx.read_side(ProbeSide::P, page_p)?;
    let root_q = ctx.read_side(ProbeSide::Q, page_q)?;
    // analyze: allow(panic-path) — empty trees returned early in `execute`,
    // so both roots have MBRs.
    ctx.root_area_p = root_p.mbr().expect("non-empty root").area();
    // analyze: allow(panic-path) — same non-empty-root invariant as above.
    ctx.root_area_q = root_q.mbr().expect("non-empty root").area();
    if let Some(rt) = par {
        // Seed speculation with the root pair so the workers start
        // descending immediately.
        rt.push_spec(cpq_geo::Dist2::ZERO, page_p, page_q);
    }

    let completed = match match query.algorithm {
        Algorithm::Naive => naive(&mut ctx, &root_p, &root_q, page_p, page_q),
        Algorithm::Exhaustive => exhaustive(&mut ctx, &root_p, &root_q, page_p, page_q),
        Algorithm::Simple => simple(&mut ctx, &root_p, &root_q, page_p, page_q),
        Algorithm::SortedDistances => sorted(&mut ctx, &root_p, &root_q, page_p, page_q),
        Algorithm::Heap => heap_run(&mut ctx, &root_p, &root_q),
    } {
        Ok(()) => true,
        Err(RTreeError::Cancelled) => false,
        Err(e) => return Err(e),
    };
    Ok(QueryRun {
        outcome: ctx.finish(misses_before),
        completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_geo::Rect;

    #[test]
    fn asymmetric_self_join_window_is_a_typed_error() {
        let w = Rect::from_corners([0.0, 0.0], [1.0, 1.0]);
        let lopsided = Constraint::windows(Some(w), None);
        let q = Query::<2>::self_join(3, Algorithm::Heap, CpqConfig::default());
        assert!(q.validate().is_ok());
        match q.with_constraint(lopsided).validate() {
            Err(RTreeError::InvalidQuery(msg)) => assert!(msg.contains("symmetric"), "{msg}"),
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
        // The same windows are fine on a cross query.
        let cross = Query::<2>::cross(3, Algorithm::Heap, CpqConfig::default());
        assert!(cross.with_constraint(lopsided).validate().is_ok());
    }
}
