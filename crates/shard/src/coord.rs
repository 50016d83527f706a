//! The scatter-gather coordinator: plans shard pairs, fans them out to a
//! worker pool, gathers and merges the partial top-K lists.
//!
//! The run is the paper's branch-and-bound loop one level up. Planning
//! computes every shard pair's inter-shard `MINMINDIST` from the manifest
//! MBRs; dispatch ([`Scatter`]) hands pairs out best-first and prunes the
//! tail once the best remaining separation exceeds the shared bound;
//! every subquery is an ordinary sequential [`cpq_core::execute`] run
//! that consumes and publishes that bound
//! ([`ExecCtx::with_scatter`](cpq_core::ExecCtx::with_scatter)); the
//! gather step merges by the canonical total order ([`merge_top_k`]), so
//! the final top-K is bit-identical to the unsharded engine.
//!
//! With `ShardConfig::wire_codec` enabled, every subquery and partial
//! result — plus a [`BoundUpdate`] per finished subquery — is round-tripped
//! through the [`proto`](crate::proto) byte codec and the worker runs the
//! query of the *decoded* message ([`ShardSubquery::query`]), proving the
//! wire protocol carries everything a remote shard server would need.

use crate::build::ShardedTree;
use crate::merge::merge_top_k;
use crate::proto::{BoundUpdate, PartialResult, ProtoError, ShardSubquery, WirePair};
use crate::scatter::{Scatter, Task};
use cpq_core::{
    execute, Algorithm, CancelToken, Constraint, CpqConfig, CpqStats, ExecCtx, NullProbe,
    PairResult, Query, QueryKind, QueryOutcome, QueryRun,
};
use cpq_geo::{min_min_dist2, SpatialObject};
use cpq_rtree::RTreeError;
use std::fmt;

/// Knobs of one sharded query run (independent of the engine-level
/// [`CpqConfig`], which configures each subquery).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker threads draining the shard-pair queue. `0` is treated as `1`
    /// (the coordinator always runs subqueries on dedicated threads).
    pub workers: usize,
    /// Round-trip every subquery, bound update, and partial result through
    /// the byte codec and run from the decoded message — the in-process
    /// proof that the wire protocol is complete.
    pub wire_codec: bool,
    /// Issue asynchronous root-page prefetch hints for the next pending
    /// shard pair while the current one runs (a no-op on memory pools).
    pub prefetch: bool,
    /// Query id stamped on protocol messages (diagnostics / correlation).
    pub query_id: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 4,
            wire_codec: false,
            prefetch: true,
            query_id: 0,
        }
    }
}

/// Shard-level work counters of one sharded run — the scatter analogue of
/// the engine's [`CpqStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard pairs generated at planning time.
    pub pairs_generated: u64,
    /// Shard pairs pruned unopened (`MINMINDIST > bound`).
    pub pairs_pruned: u64,
    /// Shard pairs actually opened as subqueries.
    pub pairs_opened: u64,
    /// Opened subqueries that ran to completion.
    pub subqueries_completed: u64,
    /// Successful tightenings of the cross-shard
    /// [`SharedBound`](cpq_core::SharedBound).
    pub bound_updates: u64,
}

/// Outcome of a sharded K-CPQ: the merged pairs and counters.
#[derive(Debug, Clone)]
pub struct ShardRun<const D: usize, O: SpatialObject<D> = cpq_geo::Point<D>> {
    /// Merged result pairs (canonical order) and summed engine counters
    /// across all opened subqueries (`queue_peak` is the max, not a sum).
    pub outcome: QueryOutcome<D, O>,
    /// `true` when every generated shard pair was opened or pruned and
    /// every opened subquery finished; `false` when the cancel token
    /// tripped first (the pairs are then a valid partial answer).
    pub completed: bool,
    /// Shard-level counters.
    pub report: ShardReport,
}

/// Errors of a sharded run: an invalid query, a storage/tree failure inside
/// a subquery, or a codec failure in `wire_codec` mode.
#[derive(Debug)]
pub enum ShardError {
    /// The query failed validation ([`RTreeError::InvalidQuery`]), or a
    /// subquery's tree raised an error (exactly one surfaces).
    Tree(RTreeError),
    /// A protocol message failed to round-trip through the codec.
    Proto(ProtoError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Tree(e) => write!(f, "sharded query failed: {e}"),
            ShardError::Proto(e) => write!(f, "shard protocol error: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<RTreeError> for ShardError {
    fn from(e: RTreeError) -> Self {
        ShardError::Tree(e)
    }
}

impl From<ProtoError> for ShardError {
    fn from(e: ProtoError) -> Self {
        ShardError::Proto(e)
    }
}

/// Runs `query` scatter-gather across all shard pairs of two sharded
/// datasets — the sharded counterpart of [`cpq_core::execute`], and
/// bit-identical to it over the unsharded datasets.
///
/// A self-join runs over `p` alone; `q` is ignored. Shard pairs whose
/// window-clipped manifest MBRs cannot contain a qualifying pair are
/// skipped at planning time. Every subquery runs the sequential engine
/// (`query.config.parallelism` is ignored; `shard.workers` is the
/// fan-out). Fails before planning when [`Query::validate`] does.
pub fn execute_sharded<const D: usize, O: SpatialObject<D>>(
    p: &ShardedTree<D, O>,
    q: &ShardedTree<D, O>,
    query: &Query<D>,
    shard: &ShardConfig,
    cancel: Option<&CancelToken>,
) -> Result<ShardRun<D, O>, ShardError> {
    query.validate()?;
    let q = if query.is_self_join() { p } else { q };
    if query.k == 0 || p.is_empty() || q.is_empty() {
        return Ok(ShardRun {
            outcome: QueryOutcome {
                pairs: Vec::new(),
                stats: CpqStats::default(),
            },
            completed: true,
            report: ShardReport::default(),
        });
    }

    let owned_cancel;
    let cancel = match cancel {
        Some(c) => c,
        None => {
            owned_cancel = CancelToken::new();
            &owned_cancel
        }
    };

    let scatter = Scatter::new(plan(p, q, query.is_self_join(), &query.constraint));
    let workers = shard.workers.max(1);
    let outs: Vec<WorkerOut<D, O>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let sc = &scatter;
                scope.spawn(move || worker_run(sc, p, q, query, shard, cancel))
            })
            .collect();
        handles
            .into_iter()
            // analyze: allow(panic-path) — a panicking worker is a bug; propagate
            // the panic rather than fabricate a result.
            .map(|h| h.join().expect("shard workers never panic"))
            .collect()
    });

    let mut stats = CpqStats::default();
    let mut subqueries_completed = 0;
    let mut completed = true;
    let mut partials = Vec::new();
    for mut out in outs {
        if let Some(e) = out.error {
            return Err(e);
        }
        sum_stats(&mut stats, &out.stats);
        subqueries_completed += out.subqueries_completed;
        completed &= out.all_completed;
        partials.append(&mut out.partials);
    }

    let counts = scatter.counts();
    // A cancelled run may leave tasks neither opened nor pruned; a
    // finished one accounts for every generated pair.
    completed &= counts.opened + counts.pruned == counts.generated;
    let pairs = merge_top_k(partials, query.k);
    Ok(ShardRun {
        outcome: QueryOutcome { pairs, stats },
        completed,
        report: ShardReport {
            pairs_generated: counts.generated,
            pairs_pruned: counts.pruned,
            pairs_opened: counts.opened,
            subqueries_completed,
            bound_updates: scatter.bound.updates(),
        },
    })
}

/// Constrained K closest pairs between two sharded datasets: only pairs
/// admitted by `constraint` (windows and/or colored) qualify.
/// Bit-identical to [`cpq_core::k_closest_pairs_constrained`] over the
/// unsharded datasets; a forward to [`execute_sharded`].
#[allow(clippy::too_many_arguments)]
pub fn k_closest_pairs_sharded_constrained<const D: usize, O: SpatialObject<D>>(
    p: &ShardedTree<D, O>,
    q: &ShardedTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    shard: &ShardConfig,
    constraint: Constraint<D>,
    cancel: Option<&CancelToken>,
) -> Result<ShardRun<D, O>, ShardError> {
    execute_sharded(
        p,
        q,
        &Query::cross(k, algorithm, *config).with_constraint(constraint),
        shard,
        cancel,
    )
}

/// Constrained K closest pairs within one sharded dataset (self-join,
/// `p.oid < q.oid`); a forward to [`execute_sharded`]. The constraint must
/// be symmetric (`window_p == window_q`), or the run fails with
/// [`RTreeError::InvalidQuery`].
pub fn self_closest_pairs_sharded_constrained<const D: usize, O: SpatialObject<D>>(
    t: &ShardedTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    shard: &ShardConfig,
    constraint: Constraint<D>,
    cancel: Option<&CancelToken>,
) -> Result<ShardRun<D, O>, ShardError> {
    execute_sharded(
        t,
        t,
        &Query::self_join(k, algorithm, *config).with_constraint(constraint),
        shard,
        cancel,
    )
}

/// Plans the shard-pair task set from the two manifests.
///
/// Cross queries enumerate the full grid. Self-joins enumerate the
/// diagonal (each shard self-joined) plus each unordered off-diagonal pair
/// once, run as an oriented cross query: the engine canonicalizes every
/// retained pair to `p.oid < q.oid`, which is exactly the orientation the
/// unsharded self-join produces (see [`crate::merge`] for why that matters
/// under distance ties).
fn plan<const D: usize, O: SpatialObject<D>>(
    p: &ShardedTree<D, O>,
    q: &ShardedTree<D, O>,
    self_join: bool,
    constraint: &Constraint<D>,
) -> Vec<Task> {
    let mut tasks = Vec::new();
    for mp in &p.manifest().shards {
        // Windows prune at planning time too: a shard whose MBR misses its
        // side's window holds no qualifying points, so every pair it is on
        // can be skipped unopened; surviving pairs are prioritized by the
        // MINMINDIST of the *clipped* MBRs (a tighter, still-exact lower
        // bound — same argument as the engine's candidate clipping).
        let Some(mbr_p) = constraint.clip_p(&mp.mbr()) else {
            continue;
        };
        for mq in &q.manifest().shards {
            if self_join && mq.id < mp.id {
                continue;
            }
            let Some(mbr_q) = constraint.clip_q(&mq.mbr()) else {
                continue;
            };
            let diagonal = self_join && mp.id == mq.id;
            let minmin = if diagonal {
                0.0
            } else {
                min_min_dist2(&mbr_p, &mbr_q).get()
            };
            tasks.push(Task {
                minmin_bits: minmin.to_bits(),
                shard_p: mp.id,
                shard_q: mq.id,
                self_join: diagonal,
                orient: self_join && !diagonal,
            });
        }
    }
    tasks
}

/// What one worker thread hands back at join time. Workers share only the
/// [`Scatter`] (queue + bound); results, stats, and errors travel through
/// the join handle, so the gather step needs no further synchronization.
struct WorkerOut<const D: usize, O: SpatialObject<D>> {
    partials: Vec<Vec<PairResult<D, O>>>,
    stats: CpqStats,
    subqueries_completed: u64,
    all_completed: bool,
    error: Option<ShardError>,
}

fn sum_stats(acc: &mut CpqStats, s: &CpqStats) {
    acc.disk_accesses_p += s.disk_accesses_p;
    acc.disk_accesses_q += s.disk_accesses_q;
    acc.node_pairs_processed += s.node_pairs_processed;
    acc.pairs_pruned += s.pairs_pruned;
    acc.dist_computations += s.dist_computations;
    acc.queue_inserts += s.queue_inserts;
    acc.queue_peak = acc.queue_peak.max(s.queue_peak);
}

/// One worker: drain the dispatcher, run each claimed shard pair as an
/// engine subquery against the shared bound, keep the partial top-K lists.
fn worker_run<const D: usize, O: SpatialObject<D>>(
    sc: &Scatter,
    p: &ShardedTree<D, O>,
    q: &ShardedTree<D, O>,
    query: &Query<D>,
    shard: &ShardConfig,
    cancel: &CancelToken,
) -> WorkerOut<D, O> {
    let mut out = WorkerOut {
        partials: Vec::new(),
        stats: CpqStats::default(),
        subqueries_completed: 0,
        all_completed: true,
        error: None,
    };
    while let Some(task) = sc.next() {
        if shard.prefetch {
            if let Some((np, nq)) = sc.peek_next() {
                p.prefetch_roots(&[np]);
                q.prefetch_roots(&[nq]);
            }
        }
        let run = match run_task(sc, p, q, query, shard, cancel, task) {
            Ok(run) => run,
            Err(e) => {
                out.error = Some(e);
                out.all_completed = false;
                sc.cancel();
                break;
            }
        };
        sum_stats(&mut out.stats, &run.outcome.stats);
        out.partials.push(run.outcome.pairs);
        if run.completed {
            out.subqueries_completed += 1;
        } else {
            // The cancel token tripped inside the subquery; stop dispatch
            // and keep whatever partials exist.
            out.all_completed = false;
            sc.cancel();
            break;
        }
    }
    if cancel.is_cancelled() {
        out.all_completed = false;
    }
    out
}

/// Runs one claimed shard pair, round-tripping the protocol messages when
/// `wire_codec` is on (the subquery then runs the query of the *decoded*
/// message; the decoded partial is checked for fidelity against the
/// in-memory pairs, which keep their geometry for the merge).
fn run_task<const D: usize, O: SpatialObject<D>>(
    sc: &Scatter,
    p: &ShardedTree<D, O>,
    q: &ShardedTree<D, O>,
    query: &Query<D>,
    shard: &ShardConfig,
    cancel: &CancelToken,
    task: Task,
) -> Result<QueryRun<D, O>, ShardError> {
    // A diagonal task is a self-join of one shard; every other task of a
    // sharded self-join is an oriented cross query.
    let sub = Query {
        kind: if task.self_join {
            QueryKind::SelfJoin
        } else {
            QueryKind::Cross
        },
        ..*query
    };
    let msg = ShardSubquery {
        query_id: shard.query_id,
        shard_p: task.shard_p,
        shard_q: task.shard_q,
        orient_by_oid: task.orient,
        minmin_bits: task.minmin_bits,
        ..ShardSubquery::from_query(&sub)
    };
    let (msg, sub) = if shard.wire_codec {
        // Run from the *decoded* frame: the proof the wire carries K, the
        // algorithm, the join kind, the windows and the colored flag
        // faithfully. The engine configuration is the shard's own.
        let decoded = ShardSubquery::decode(&msg.encode())?;
        let sub = Query {
            config: query.config,
            ..decoded.query()?
        };
        (decoded, sub)
    } else {
        (msg, sub)
    };
    let (shard_p, shard_q) = (msg.shard_p, msg.shard_q);
    let run = execute(
        p.shard(shard_p as usize),
        q.shard(shard_q as usize),
        &sub,
        ExecCtx::new(&mut NullProbe)
            .with_cancel(cancel)
            .with_scatter(&sc.bound, msg.orient_by_oid),
    )?;

    if shard.wire_codec {
        // A remote shard server would ship exactly these two messages
        // back; prove they survive the codec and carry the run faithfully.
        let partial = PartialResult {
            query_id: shard.query_id,
            shard_p,
            shard_q,
            completed: run.completed,
            pairs: run
                .outcome
                .pairs
                .iter()
                .map(|pr| WirePair {
                    p_oid: pr.p.oid,
                    q_oid: pr.q.oid,
                    dist2_bits: pr.dist2.get().to_bits(),
                })
                .collect(),
        };
        let decoded = PartialResult::decode(&partial.encode())?;
        if decoded != partial {
            return Err(ShardError::Proto(ProtoError::Truncated));
        }
        let update = BoundUpdate {
            query_id: shard.query_id,
            bound_bits: sc.bound.get_d2().to_bits(),
        };
        let decoded = BoundUpdate::decode(&update.encode())?;
        // Re-applying the round-tripped bound is a no-op tighten (the
        // CAS-min ignores values at or above the current bound).
        sc.bound.tighten(f64::from_bits(decoded.bound_bits));
    }
    Ok(run)
}
