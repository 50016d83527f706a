//! The paper's algorithms and the fixed-shape entry points over them.
//!
//! Each function here is a one-expression forward to [`execute`]: it
//! builds the [`Query`] its name describes and runs it.

use crate::cancel::CancelToken;
use crate::config::CpqConfig;
use crate::query::{execute, ExecCtx, Query};
use crate::spec::Constraint;
use crate::types::{QueryOutcome, QueryRun};
use cpq_geo::SpatialObject;
use cpq_obs::{NullProbe, Probe};
use cpq_rtree::{RTree, RTreeResult};

/// The five algorithms of the paper (Sections 3.1–3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Recursive, no pruning at all (Section 3.1). Exponentially expensive;
    /// included for completeness and testing only.
    Naive,
    /// EXH — recursive with `MINMINDIST ≤ T` pruning (Section 3.2).
    Exhaustive,
    /// SIM — EXH plus eager `T` tightening via Inequality 2 (Section 3.3).
    Simple,
    /// STD — SIM plus ascending-MINMINDIST candidate ordering (Section 3.4).
    SortedDistances,
    /// HEAP — the iterative variant driven by a global min-heap
    /// (Section 3.5).
    Heap,
}

impl Algorithm {
    /// The four algorithms the paper evaluates (Naive is excluded there
    /// too, Section 4).
    pub const EVALUATED: [Algorithm; 4] = [
        Algorithm::Exhaustive,
        Algorithm::Simple,
        Algorithm::SortedDistances,
        Algorithm::Heap,
    ];

    /// Short label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Naive => "NAIVE",
            Algorithm::Exhaustive => "EXH",
            Algorithm::Simple => "SIM",
            Algorithm::SortedDistances => "STD",
            Algorithm::Heap => "HEAP",
        }
    }
}

/// Finds the `K` closest pairs between the points of `tree_p` and `tree_q`.
///
/// Returns pairs sorted by ascending distance (fewer than `K` when
/// `K > |P| · |Q|`). Work counters, including the paper's disk-access
/// metric, are in [`QueryOutcome::stats`].
///
/// `K = 1` automatically enables the 1-CP special case: the `MINMAXDIST`
/// bound of Inequality 2 (Sections 3.3–3.5).
pub fn k_closest_pairs<const D: usize, O: SpatialObject<D>>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
) -> RTreeResult<QueryOutcome<D, O>> {
    execute(
        tree_p,
        tree_q,
        &Query::cross(k, algorithm, *config),
        ExecCtx::new(&mut NullProbe),
    )
    .map(|run| run.outcome)
}

/// [`k_closest_pairs`] under a result-pair [`Constraint`]: range-restricted
/// (windowed) and/or colored K-CPQ.
///
/// Only pairs admitted by the constraint are returned — each side's point
/// inside its window (boundary-inclusive; extended objects must fit
/// entirely), and under the colored filter the two oids must carry distinct
/// colors. Results are bit-identical to filtering the brute-force pair
/// enumeration by the same predicate and keeping the K smallest under the
/// canonical `(dist2, oid, oid)` order. An inactive constraint makes this
/// exactly [`k_closest_pairs`], work counters included.
pub fn k_closest_pairs_constrained<const D: usize, O: SpatialObject<D>>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    constraint: Constraint<D>,
) -> RTreeResult<QueryOutcome<D, O>> {
    execute(
        tree_p,
        tree_q,
        &Query::cross(k, algorithm, *config).with_constraint(constraint),
        ExecCtx::new(&mut NullProbe),
    )
    .map(|run| run.outcome)
}

/// [`k_closest_pairs_constrained`] with a [`CancelToken`] and a
/// caller-supplied [`Probe`] (semantics as in [`ExecCtx`]).
#[allow(clippy::too_many_arguments)]
pub fn k_closest_pairs_constrained_instrumented<const D: usize, O: SpatialObject<D>, P: Probe>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    constraint: Constraint<D>,
    cancel: &CancelToken,
    probe: &mut P,
) -> RTreeResult<QueryRun<D, O>> {
    execute(
        tree_p,
        tree_q,
        &Query::cross(k, algorithm, *config).with_constraint(constraint),
        ExecCtx::new(probe).with_cancel(cancel),
    )
}

/// [`k_closest_pairs`] under a cooperative [`CancelToken`] with a
/// caller-supplied [`Probe`]: the instrumented entry point.
///
/// The probe receives per-node-access, per-leaf-scan, and per-phase
/// callbacks during the run (see [`cpq_obs::Probe`]); pass a
/// [`cpq_obs::ProfileProbe`] to accumulate a full
/// [`cpq_obs::QueryProfile`]. Results and work counters are identical to
/// the uninstrumented entry points — instrumentation observes, it never
/// steers. A tripped token returns a partial answer with
/// [`QueryRun::completed`]` = false` (see [`ExecCtx`]).
pub fn k_closest_pairs_instrumented<const D: usize, O: SpatialObject<D>, P: Probe>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    cancel: &CancelToken,
    probe: &mut P,
) -> RTreeResult<QueryRun<D, O>> {
    execute(
        tree_p,
        tree_q,
        &Query::cross(k, algorithm, *config),
        ExecCtx::new(probe).with_cancel(cancel),
    )
}

/// Self-CPQ (Section 6, future work): the `K` closest pairs **within** one
/// data set, pairing distinct points only and counting each unordered pair
/// once (results have `p.oid < q.oid`).
pub fn self_closest_pairs<const D: usize, O: SpatialObject<D>>(
    tree: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
) -> RTreeResult<QueryOutcome<D, O>> {
    execute(
        tree,
        tree,
        &Query::self_join(k, algorithm, *config),
        ExecCtx::new(&mut NullProbe),
    )
    .map(|run| run.outcome)
}

/// [`self_closest_pairs`] under a result-pair [`Constraint`]: self-RCP
/// (both points of each pair inside one window) and/or colored self-join.
///
/// Self-join constraints must be **symmetric** (`window_p == window_q`);
/// an asymmetric one fails with [`RTreeError::InvalidQuery`]
/// (see [`Query::validate`]). Use [`Constraint::window`] (one rectangle
/// for both sides) or [`Constraint::colored`].
///
/// [`RTreeError::InvalidQuery`]: cpq_rtree::RTreeError::InvalidQuery
pub fn self_closest_pairs_constrained<const D: usize, O: SpatialObject<D>>(
    tree: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    constraint: Constraint<D>,
) -> RTreeResult<QueryOutcome<D, O>> {
    execute(
        tree,
        tree,
        &Query::self_join(k, algorithm, *config).with_constraint(constraint),
        ExecCtx::new(&mut NullProbe),
    )
    .map(|run| run.outcome)
}

/// [`self_closest_pairs_constrained`] with a [`CancelToken`] and a
/// caller-supplied [`Probe`] (semantics as in [`ExecCtx`]).
pub fn self_closest_pairs_constrained_instrumented<
    const D: usize,
    O: SpatialObject<D>,
    P: Probe,
>(
    tree: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    constraint: Constraint<D>,
    cancel: &CancelToken,
    probe: &mut P,
) -> RTreeResult<QueryRun<D, O>> {
    execute(
        tree,
        tree,
        &Query::self_join(k, algorithm, *config).with_constraint(constraint),
        ExecCtx::new(probe).with_cancel(cancel),
    )
}

/// [`self_closest_pairs`] under a cooperative [`CancelToken`] with a
/// caller-supplied [`Probe`]; semantics as in
/// [`k_closest_pairs_instrumented`].
pub fn self_closest_pairs_instrumented<const D: usize, O: SpatialObject<D>, P: Probe>(
    tree: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    cancel: &CancelToken,
    probe: &mut P,
) -> RTreeResult<QueryRun<D, O>> {
    execute(
        tree,
        tree,
        &Query::self_join(k, algorithm, *config),
        ExecCtx::new(probe).with_cancel(cancel),
    )
}
