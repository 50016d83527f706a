//! `rcp-scatter`: range closest-pair queries through a shard-aware
//! service (`CpqService::start_sharded`, STR shards, `max_shards = 2`),
//! driven open-loop at a fixed rate below capacity.

use crate::common::*;
use crate::ledger::{self, Ledger};
use crate::trace::{self, StorageProbe};
use cpq_core::brute::{k_closest_pairs_brute_constrained, self_k_closest_pairs_brute_constrained};
use cpq_core::{
    k_closest_pairs_constrained, k_closest_pairs_constrained_instrumented,
    self_closest_pairs_constrained, self_closest_pairs_constrained_instrumented, Algorithm,
    CancelToken, Constraint,
};
use cpq_geo::Rect;
use cpq_rng::Rng;
use cpq_rtree::RTreeParams;
use cpq_service::{
    CpqService, QueryKind, QueryRequest, QueryResponse, ServiceConfig, ShardConfig, ShardedPair,
    ShardedTree, TreePair,
};
use cpq_shard::{
    k_closest_pairs_sharded_constrained, self_closest_pairs_sharded_constrained, PartialResult,
    ShardReport, ShardSubquery, WirePair,
};
use cpq_storage::{MemPageFile, PageFile, DEFAULT_PAGE_SIZE};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Spatial shards per dataset.
const SHARDS: usize = 8;
/// The service's scatter fan-out ceiling.
const MAX_SHARDS: usize = 2;
/// Frames per classic-tree pool and per shard pool.
const CLASSIC_FRAMES: usize = 512;
const SHARD_FRAMES: usize = 64;
/// Largest `|P ∩ W| · |Q ∩ W|` the O(n²) oracle checks.
const ORACLE_PAIRS: usize = 100_000;

struct Rcp {
    req: QueryRequest,
    expected: Vec<Pair>,
}

struct Setup {
    p: Tree,
    q: Tree,
    sharded: ShardedPair<2>,
    reqs: Vec<Rcp>,
    points: Vec<(Pt, u64)>,
    q_points: Vec<(Pt, u64)>,
    inputs: u64,
    oracle_checked: usize,
    oracle_diverged: usize,
}

fn mem_pool(frames: usize, probe: Option<&Arc<StorageProbe>>) -> cpq_storage::BufferPool {
    pool(
        Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)) as Box<dyn PageFile>,
        frames,
        probe,
    )
}

fn shard(name: &str, points: &[(Pt, u64)], probe: Option<&Arc<StorageProbe>>) -> ShardedTree<2> {
    ShardedTree::build(name, points, SHARDS, RTreeParams::paper(), None, |_| {
        mem_pool(SHARD_FRAMES, probe)
    })
    .expect("build shards")
}

/// Pairs every request asks for.
const K: usize = 10;
/// Windows in the request mix.
const WINDOWS: usize = 512;

/// The request mix, all range-restricted. Window sides run over a fixed
/// grid from 5% to 35% of the workspace side (selectivities from 0.25% to
/// 12%), at seeded positions; each window goes to one of four request
/// shapes in turn: planned plain, planned colored or self-join, and
/// explicit `with_scatter(2)` plain or colored. The fixed grid keeps the
/// mix's cost from hinging on where a few windows fall.
fn requests(seed: u64) -> Vec<QueryRequest> {
    let mut rng = Rng::seed_from_u64(seed);
    let side = cpq_datasets::WORKSPACE_SIDE;
    (0..WINDOWS)
        .map(|i| {
            // Consecutive requests step through the size grid by a stride
            // coprime with its length, so any stretch of the run mixes sizes.
            let step = (i * 197) % WINDOWS;
            let frac = 0.05 + 0.3 * (step as f64 + 0.5) / WINDOWS as f64;
            let w = frac * side;
            let x = rng.random_range(0.0..side - w);
            let y = rng.random_range(0.0..side - w);
            let window = Constraint::window(Rect::from_corners([x, y], [x + w, y + w]));
            let scatter = QueryRequest::cross(K, Algorithm::Heap).with_scatter(MAX_SHARDS);
            match i % 8 {
                0 | 2 | 4 => QueryRequest::planned_cross(K).with_constraint(window),
                1 => QueryRequest::planned_cross(K).with_constraint(window.with_colored()),
                3 => QueryRequest::planned_self(K).with_constraint(window),
                5 | 7 => scatter.with_constraint(window),
                _ => scatter.with_constraint(window.with_colored()),
            }
        })
        .collect()
}

/// P: 64 Gaussian clusters of equal population (σ = 2% of the side, as
/// dense as the surrogate's) centred on a jittered 8 × 8 grid, plus 5%
/// uniform noise; colors round-robin over 4. Clusters at random centres
/// with skewed populations make where the biggest ones land, not the code
/// under test, decide the mix's latency; on a jittered grid every seed's
/// windows meet the same density field.
fn grid_clustered(n: usize, seed: u64) -> Vec<(Pt, u64)> {
    let mut rng = Rng::seed_from_u64(seed);
    let side = cpq_datasets::WORKSPACE_SIDE;
    let cell = side / 8.0;
    let centers: Vec<(f64, f64)> = (0..64)
        .map(|i| {
            let cx = ((i % 8) as f64 + rng.random_range(0.25..0.75)) * cell;
            let cy = ((i / 8) as f64 + rng.random_range(0.25..0.75)) * cell;
            (cx, cy)
        })
        .collect();
    let sigma = 0.02 * side;
    let mut points = Vec::with_capacity(n);
    while points.len() < n {
        let (x, y) = if rng.random_bool(0.05) {
            (rng.random_range(0.0..side), rng.random_range(0.0..side))
        } else {
            let (cx, cy) = centers[rng.random_range(0..centers.len())];
            // Box-Muller.
            let r = (-2.0 * rng.random_range(f64::EPSILON..1.0).ln()).sqrt() * sigma;
            let t = 2.0 * std::f64::consts::PI * rng.random_range(0.0..1.0);
            (cx + r * t.cos(), cy + r * t.sin())
        };
        if (0.0..=side).contains(&x) && (0.0..=side).contains(&y) {
            points.push(Pt::new([x, y]));
        }
    }
    points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, cpq_geo::pack_color(i as u64, (i % 4) as u16)))
        .collect()
}

/// A short label for a request's class in the per-class table.
fn class_of(req: &QueryRequest) -> String {
    let con = req.constraint;
    let mut out = String::from(if req.planned { "planned" } else { "scatter" });
    out.push_str(if req.kind == QueryKind::SelfJoin {
        " self"
    } else {
        " cross"
    });
    out.push_str(&format!(" k={}", req.k));
    if let Some(w) = con.window_p {
        let frac = (w.hi().coord(0) - w.lo().coord(0)) / cpq_datasets::WORKSPACE_SIDE;
        let bucket = match frac {
            f if f < 0.15 => "window <0.15",
            f if f < 0.3 => "window 0.15-0.3",
            _ => "window >=0.3",
        };
        out.push(' ');
        out.push_str(bucket);
    }
    if con.colored {
        out.push_str(" colored");
    }
    out
}

fn inside(points: &[(Pt, u64)], w: Option<Rect<2>>) -> Vec<(Pt, u64)> {
    points
        .iter()
        .filter(|(p, _)| w.is_none_or(|w| w.contains_point(p)))
        .copied()
        .collect()
}

fn setup(cfg: &RunCfg, probe: Option<&Arc<StorageProbe>>) -> Setup {
    let n = cfg.size(40_000, 1500);
    let ps = grid_clustered(n, cfg.sub_seed(8));
    let qs = cpq_datasets::uniform(n, cfg.sub_seed(9)).colored_indexed(4);
    let req_seed = cfg.sub_seed(10);
    let mut digest = Digest::new();
    digest.points(&ps);
    digest.points(&qs);
    digest.u64(req_seed);
    let p = insert_all(mem_pool(CLASSIC_FRAMES, probe), &ps);
    let q = insert_all(mem_pool(CLASSIC_FRAMES, probe), &qs);
    let sharded = ShardedPair {
        p: shard("P", &ps, probe),
        q: shard("Q", &qs, probe),
    };
    let ecfg = engine_cfg();
    let (mut oracle_checked, mut oracle_diverged) = (0, 0);
    let reqs = requests(req_seed)
        .into_iter()
        .map(|req| {
            let con = req.constraint;
            let (expected, oracle) = match req.kind {
                QueryKind::Cross => {
                    let pw = inside(&ps, con.window_p);
                    let qw = inside(&qs, con.window_q);
                    let run =
                        k_closest_pairs_constrained(&p, &q, req.k, Algorithm::Heap, &ecfg, con);
                    let small = con.window_p.is_some() && pw.len() * qw.len() <= ORACLE_PAIRS;
                    (
                        run.expect("reference query").pairs,
                        small.then(|| k_closest_pairs_brute_constrained(&pw, &qw, req.k, &con)),
                    )
                }
                QueryKind::SelfJoin => {
                    let pw = inside(&ps, con.window_p);
                    let run =
                        self_closest_pairs_constrained(&p, req.k, Algorithm::Heap, &ecfg, con);
                    let small = pw.len() * pw.len() / 2 <= ORACLE_PAIRS;
                    (
                        run.expect("reference query").pairs,
                        small.then(|| self_k_closest_pairs_brute_constrained(&pw, req.k, &con)),
                    )
                }
            };
            if let Some(brute) = oracle {
                oracle_checked += 1;
                oracle_diverged += usize::from(!same_pairs(&expected, &brute));
            }
            Rcp { req, expected }
        })
        .collect();
    Setup {
        p,
        q,
        sharded,
        reqs,
        points: ps,
        q_points: qs,
        inputs: digest.0,
        oracle_checked,
        oracle_diverged,
    }
}

/// Requests per second the open loop sends: below the two workers'
/// capacity on this mix, so the queue stays short.
const RATE: f64 = 100.0;

pub fn run(cfg: &RunCfg) -> Report {
    let mut r = Report::new();
    let probe = cfg.trace.then(StorageProbe::new);
    let (s, setup_s) = timed_setup(cfg.setup_reps(3), |_| setup(cfg, probe.as_ref()));
    r.set("setup_s", setup_s, "s");
    let Setup {
        p,
        q,
        sharded,
        reqs,
        points,
        q_points,
        inputs,
        oracle_checked,
        oracle_diverged,
    } = s;
    r.inputs = inputs;
    if oracle_diverged > 0 {
        r.problem(format!(
            "rcp-scatter: {oracle_diverged} references disagree with the O(n^2) oracle"
        ));
    }
    let shard_pages: u32 = [&sharded.p, &sharded.q]
        .iter()
        .flat_map(|t| t.shards())
        .map(|t| t.pool().num_pages())
        .sum();
    let pages = (p.pool().num_pages() + q.pool().num_pages() + shard_pages) as f64;
    let indexed = (p.len() + q.len()) as f64;
    r.tables.push(format!(
        "# rcp-scatter: {} requests in the mix, {oracle_checked} checked against the O(n^2) oracle",
        reqs.len()
    ));
    let svc: CpqService<2> = CpqService::start_sharded(
        TreePair::new(p, q),
        sharded,
        ServiceConfig {
            workers: 2,
            max_shards: MAX_SHARDS,
            cpq: engine_cfg(),
            ..ServiceConfig::default()
        },
    );
    let trees = svc.trees().expect("static service");
    let seq = AtomicU64::new(0);
    let next = |i: u64| {
        let c = (i % reqs.len() as u64) as usize;
        (c, reqs[c].req)
    };
    let check = |c: usize, resp: &QueryResponse<2>| same_pairs(&resp.pairs, &reqs[c].expected);
    for (c, x) in reqs.iter().enumerate() {
        let resp = svc.execute(x.req).expect("warm-up admitted");
        if !check(c, &resp) {
            r.problem(format!("rcp-scatter: warm-up answer {c} diverged"));
        }
    }
    r.set("peak_rss_mb", peak_rss_mb(), "MB");

    if let Some(probe) = &probe {
        // The service owns its shards, so the serial path scatters over a
        // second, identically built pair.
        let serial_shards = ShardedPair {
            p: shard("P", &points, Some(probe)),
            q: shard("Q", &q_points, Some(probe)),
        };
        let serial = serial_path(&mut r, cfg, probe, trees, &serial_shards, &reqs);

        let (mut untraced, mut traced) = (Window::default(), Window::default());
        alternate(cfg.seconds, |on, secs| {
            let w = open_loop(&svc, RATE, secs, &seq, &next, &check);
            if on {
                traced.absorb(w)
            } else {
                untraced.absorb(w)
            }
        });
        for w in [&untraced, &traced] {
            r.attempted += w.attempted();
            r.failed += w.failed();
            if w.divergent() > 0 {
                r.problem(format!("rcp-scatter: {} divergent answers", w.divergent()));
            }
        }
        service_report(&mut r, &traced);
        r.set(
            "bench.gen_lateness_p95_ms",
            ledger::percentile(&traced.lateness_ms, 0.95),
            "ms",
        );

        let mut ledger = Ledger::default();
        common_ledger(
            &mut ledger,
            &[&trees.p, &trees.q],
            &points,
            Some(probe),
            cfg.tiny,
        );
        let shapes: Vec<_> = reqs
            .iter()
            .map(|x| (x.req.k, x.req.kind, x.req.constraint))
            .collect();
        planner_ledger(
            &mut ledger,
            &trees.p,
            &trees.q,
            &shapes,
            MAX_SHARDS,
            cfg.tiny,
        );
        codec_ledger(&mut ledger, &reqs, cfg.tiny);
        serial.core.report(&mut r, &ledger);
        ledger_metrics(&mut r, &ledger);
        r.set(
            "rtree.pages",
            (trees.p.pool().num_pages() + trees.q.pool().num_pages()) as f64,
            "count",
        );
        finish_trace(&mut r, cfg, "rcp-scatter", &serial, &untraced, &traced);
    } else {
        let slices: Vec<Window> = (0..SLICES)
            .map(|_| open_loop(&svc, RATE, cfg.seconds / SLICES as f64, &seq, &next, &check))
            .collect();
        set_query_metrics(&mut r, &slices);
        let mut w = Window::default();
        for s in slices {
            w.absorb(s);
        }
        r.attempted = w.attempted();
        r.failed = w.failed();
        if w.divergent() > 0 {
            r.problem(format!("rcp-scatter: {} divergent answers", w.divergent()));
        }
        r.set("disk_accesses_per_query", w.disk_per_query(), "count");
        r.tables.extend(w.per_class(|t| class_of(&reqs[t].req)));
        r.tables.push(format!(
            "# rcp-scatter: {} requests open-loop at {}/s in {:.2}s, {} failed, generator lateness p95 {:.3} ms",
            w.attempted(),
            RATE,
            w.elapsed_s,
            w.failed(),
            ledger::percentile(&w.lateness_ms, 0.95)
        ));
    }
    r.set(
        "index_bytes_per_point",
        pages * DEFAULT_PAGE_SIZE as f64 / indexed,
        "B",
    );
    r
}

/// Traced serial path: each request on this thread, planned by the public
/// `plan()` and run through the instrumented classic engine or the
/// scatter coordinator (one shard worker, wire codec armed).
fn serial_path(
    r: &mut Report,
    cfg: &RunCfg,
    probe: &Arc<StorageProbe>,
    trees: &TreePair<2>,
    shards: &ShardedPair<2>,
    reqs: &[Rcp],
) -> Serial {
    let ecfg = engine_cfg();
    let stats_p = trees.p.level_stats().expect("level stats of P");
    let stats_q = trees.q.level_stats().expect("level stats of Q");
    let inputs = cpq_service::PlannerInputs {
        n_p: trees.p.len(),
        n_q: trees.q.len(),
        workspace_p: trees.p.root_mbr().expect("root of P"),
        workspace_q: trees.q.root_mbr().expect("root of Q"),
        stats_p: Some(&stats_p),
        stats_q: Some(&stats_q),
        max_parallelism: 1,
        shards: MAX_SHARDS,
    };
    let mut pools = vec![trees.p.pool(), trees.q.pool()];
    for t in [&shards.p, &shards.q] {
        pools.extend(t.shards().iter().map(|s| s.pool()));
    }
    let pool_before = PoolTotals::of(&pools);
    let file_before = probe.totals();
    let mut core = CoreTotals::default();
    let mut report = ShardReport::default();
    let (mut scatter_queries, mut planned, mut heap, mut exh, mut scattered) = (0u64, 0, 0, 0, 0);
    let (mut dist, mut node_pairs) = (0u64, 0u64);
    let mut residual = (0u64, 0u64);
    let rounds = if cfg.tiny { 1 } else { 2 };
    let wall = trace::now_ns();
    trace::set_enabled(true);
    let mut id = 0;
    for _ in 0..rounds {
        for x in reqs {
            id += 1;
            trace::begin_request(id);
            let req = x.req;
            let con = req.constraint;
            let (algorithm, scatter) = if req.planned {
                let plan = trace::span("planner.plan", || {
                    cpq_service::plan(&inputs, req.k, req.kind, &con)
                });
                planned += 1;
                heap += u64::from(plan.algorithm == Algorithm::Heap);
                exh += u64::from(plan.algorithm == Algorithm::Exhaustive);
                scattered += u64::from(plan.scatter > 0);
                (plan.algorithm, plan.scatter)
            } else {
                (req.algorithm, req.scatter.unwrap_or(0))
            };
            let pairs = if scatter.min(MAX_SHARDS) >= 1 {
                let sc = ShardConfig {
                    workers: 1,
                    wire_codec: true,
                    prefetch: true,
                    query_id: id,
                };
                let (run, _) = trace::exec_span("shard.scatter", Some(probe), &[], || {
                    let run = match req.kind {
                        QueryKind::Cross => k_closest_pairs_sharded_constrained(
                            &shards.p, &shards.q, req.k, algorithm, &ecfg, &sc, con, None,
                        ),
                        QueryKind::SelfJoin => self_closest_pairs_sharded_constrained(
                            &shards.p, req.k, algorithm, &ecfg, &sc, con, None,
                        ),
                    };
                    (run, 0, 0, 0, 0)
                });
                let run = run.expect("traced scatter query");
                scatter_queries += 1;
                report.pairs_generated += run.report.pairs_generated;
                report.pairs_pruned += run.report.pairs_pruned;
                report.pairs_opened += run.report.pairs_opened;
                report.bound_updates += run.report.bound_updates;
                dist += run.outcome.stats.dist_computations;
                node_pairs += run.outcome.stats.node_pairs_processed;
                run.outcome.pairs
            } else {
                let ((run, profile), timing) =
                    trace::exec_span("core.exec", Some(probe), &pools[..2], || {
                        let mut sp = SpanProbe::default();
                        let cancel = CancelToken::new();
                        let run = match req.kind {
                            QueryKind::Cross => k_closest_pairs_constrained_instrumented(
                                &trees.p, &trees.q, req.k, algorithm, &ecfg, con, &cancel, &mut sp,
                            ),
                            QueryKind::SelfJoin => self_closest_pairs_constrained_instrumented(
                                &trees.p, req.k, algorithm, &ecfg, con, &cancel, &mut sp,
                            ),
                        };
                        let ph = sp.phases();
                        ((run, sp.inner.profile), ph.0, ph.1, ph.2, ph.3)
                    });
                let run = run.expect("traced classic query");
                core.add(&timing, &run.outcome.stats, &profile);
                residual.0 += timing.self_ns();
                residual.1 += timing.exec_ns;
                dist += run.outcome.stats.dist_computations;
                node_pairs += run.outcome.stats.node_pairs_processed;
                run.outcome.pairs
            };
            if !same_pairs(&pairs, &x.expected) {
                r.problem(format!(
                    "rcp-scatter: traced request {id} diverged from its reference"
                ));
            }
        }
    }
    trace::set_enabled(false);
    let wall_ns = trace::now_ns() - wall;
    let pool_d = PoolTotals::of(&pools).since(&pool_before);
    pool_d.report(r, id);
    file_report(r, &file_before, &probe.totals(), id);
    let planned_f = planned.max(1) as f64;
    r.set("planner.choice.heap_frac", heap as f64 / planned_f, "frac");
    r.set("planner.choice.exh_frac", exh as f64 / planned_f, "frac");
    r.set(
        "planner.choice.scatter_frac",
        scattered as f64 / planned_f,
        "frac",
    );
    let sq = scatter_queries.max(1) as f64;
    r.set(
        "shard.pairs_pruned_frac",
        report.pairs_pruned as f64 / report.pairs_generated.max(1) as f64,
        "frac",
    );
    r.set(
        "shard.subqueries_per_query",
        report.pairs_opened as f64 / sq,
        "count",
    );
    r.set(
        "shard.bound_updates_per_query",
        report.bound_updates as f64 / sq,
        "count",
    );
    r.set(
        "bench.residual_frac",
        residual.0 as f64 / residual.1.max(1) as f64,
        "frac",
    );
    r.counts = vec![
        ("disk_accesses", pool_d.misses),
        ("dist_computations", dist),
        ("node_pairs", node_pairs),
        ("shard_pairs_pruned", report.pairs_pruned),
    ];
    Serial {
        core,
        requests: id,
        wall_ns,
    }
}

/// `ShardSubquery` and `PartialResult` encode and decode on the messages
/// this workload's requests produce: one subquery per request, and its
/// reference answer as the partial result.
fn codec_ledger(ledger: &mut Ledger, reqs: &[Rcp], tiny: bool) {
    let subs: Vec<ShardSubquery<2>> = reqs
        .iter()
        .enumerate()
        .map(|(i, x)| ShardSubquery {
            query_id: i as u64,
            shard_p: 0,
            shard_q: 1,
            k: x.req.k as u64,
            algorithm: cpq_shard::proto::algorithm_code(x.req.algorithm),
            self_join: x.req.kind == QueryKind::SelfJoin,
            orient_by_oid: false,
            minmin_bits: 0,
            window_p: x.req.constraint.window_p,
            window_q: x.req.constraint.window_q,
            colored: x.req.constraint.colored,
        })
        .collect();
    let partials: Vec<PartialResult> = reqs
        .iter()
        .enumerate()
        .map(|(i, x)| PartialResult {
            query_id: i as u64,
            shard_p: 0,
            shard_q: 1,
            completed: true,
            pairs: x
                .expected
                .iter()
                .map(|p| WirePair {
                    p_oid: p.p.oid,
                    q_oid: p.q.oid,
                    dist2_bits: p.dist2.get().to_bits(),
                })
                .collect(),
        })
        .collect();
    let bytes: Vec<(Vec<u8>, Vec<u8>)> = subs
        .iter()
        .zip(&partials)
        .map(|(s, p)| (s.encode(), p.encode()))
        .collect();
    let n = subs.len();
    let reps = if tiny { 8 } else { 64 };
    // Even calls handle a subquery, odd calls a partial result.
    ledger.add(
        "shard",
        "ShardSubquery/PartialResult::encode",
        "shard.encode_ns",
        "ns",
        ledger::per_op(reps * 64, 64, |i| {
            let m = (i / 2) % n;
            if i % 2 == 0 {
                std::hint::black_box(subs[m].encode());
            } else {
                std::hint::black_box(partials[m].encode());
            }
        }),
    );
    ledger.add(
        "shard",
        "ShardSubquery/PartialResult::decode",
        "shard.decode_ns",
        "ns",
        ledger::per_op(reps * 64, 64, |i| {
            let m = (i / 2) % n;
            if i % 2 == 0 {
                std::hint::black_box(ShardSubquery::<2>::decode(&bytes[m].0).expect("decode"));
            } else {
                std::hint::black_box(PartialResult::decode(&bytes[m].1).expect("decode"));
            }
        }),
    );
}
