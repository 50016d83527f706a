//! The two static-service workloads: `heap-resident` (the CPU path, both
//! trees resident in memory) and `cold-disk` (the I/O path, real page
//! files behind the I/O scheduler with pools of 1/16 of the pages).

use crate::common::*;
use crate::ledger::Ledger;
use crate::trace::{self, StorageProbe};
use cpq_core::{
    k_closest_pairs, k_closest_pairs_instrumented, self_closest_pairs,
    self_closest_pairs_instrumented, Algorithm, CancelToken,
};
use cpq_service::{CpqService, QueryKind, QueryRequest, QueryResponse, ServiceConfig, TreePair};
use cpq_storage::{DiskPageFile, MemPageFile, PageFile, DEFAULT_PAGE_SIZE};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

struct Combo {
    algorithm: Algorithm,
    k: usize,
    kind: QueryKind,
    expected: Vec<Pair>,
}

impl Combo {
    fn request(&self) -> QueryRequest {
        match self.kind {
            QueryKind::Cross => QueryRequest::cross(self.k, self.algorithm),
            QueryKind::SelfJoin => QueryRequest::self_join(self.k, self.algorithm),
        }
    }
}

struct Setup {
    p: Tree,
    q: Tree,
    combos: Vec<Combo>,
    points: Vec<(Pt, u64)>,
    inputs: u64,
    files: TempFiles,
}

fn mix(cold: bool) -> Vec<(Algorithm, usize, QueryKind)> {
    let mut out = Vec::new();
    if cold {
        for a in Algorithm::EVALUATED {
            for k in [1, 100] {
                out.push((a, k, QueryKind::Cross));
            }
        }
    } else {
        for a in [Algorithm::Heap, Algorithm::SortedDistances] {
            for k in [1, 100] {
                for kind in [QueryKind::Cross, QueryKind::SelfJoin] {
                    out.push((a, k, kind));
                }
            }
        }
    }
    out
}

/// Frames per pool on `heap-resident`: more than both trees' pages.
const RESIDENT_FRAMES: usize = 1 << 15;

/// Builds a tree on a fresh disk page file, syncs it, and reopens the
/// file cold behind the I/O scheduler with `pages / 16` frames. Reads
/// are buffered: O_DIRECT reads would time the machine's shared disk,
/// whose latency swings with other tenants' load.
fn disk_tree(
    points: &[(Pt, u64)],
    path: &std::path::Path,
    probe: Option<&Arc<StorageProbe>>,
) -> Tree {
    let file = DiskPageFile::create(path, DEFAULT_PAGE_SIZE).expect("create page file");
    let built = insert_all(pool(Box::new(file), 512, None), points);
    built.pool().sync().expect("sync page file");
    let descriptor = built.descriptor();
    let pages = built.pool().num_pages() as usize;
    drop(built);
    let mut file = DiskPageFile::open(path).expect("reopen page file");
    file.reset_stats();
    let frames = (pages / 16).max(4);
    let pool = sched_pool(Box::new(file) as Box<dyn PageFile>, frames, probe);
    Tree::from_descriptor(pool, cpq_rtree::RTreeParams::paper(), descriptor).expect("reattach tree")
}

fn setup(cfg: &RunCfg, cold: bool, probe: Option<&Arc<StorageProbe>>, rep: usize) -> Setup {
    let mut digest = Digest::new();
    let (ps, qs, p, q, files) = if cold {
        let n = cfg.size(10_000, 2000);
        let ps = clustered_points(n, cfg.sub_seed(3), 1);
        let qs = uniform_points(n, cfg.sub_seed(4));
        std::fs::create_dir_all(&cfg.work).expect("create work dir");
        let fp = cfg.work.join(format!("cold-{rep}-p.pages"));
        let fq = cfg.work.join(format!("cold-{rep}-q.pages"));
        let p = disk_tree(&ps, &fp, probe);
        let q = disk_tree(&qs, &fq, probe);
        (ps, qs, p, q, TempFiles(vec![fp, fq]))
    } else {
        let n = cfg.size(100_000, 3000);
        let ps = uniform_points(n, cfg.sub_seed(1));
        let qs = uniform_points(n, cfg.sub_seed(2));
        let mem = || Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)) as Box<dyn PageFile>;
        let p = insert_all(pool(mem(), RESIDENT_FRAMES, probe), &ps);
        let q = insert_all(pool(mem(), RESIDENT_FRAMES, probe), &qs);
        (ps, qs, p, q, TempFiles(Vec::new()))
    };
    digest.points(&ps);
    digest.points(&qs);
    let ecfg = engine_cfg();
    let combos = mix(cold)
        .into_iter()
        .map(|(algorithm, k, kind)| {
            let expected = match kind {
                QueryKind::Cross => k_closest_pairs(&p, &q, k, algorithm, &ecfg),
                QueryKind::SelfJoin => self_closest_pairs(&p, k, algorithm, &ecfg),
            }
            .expect("reference query")
            .pairs;
            Combo {
                algorithm,
                k,
                kind,
                expected,
            }
        })
        .collect();
    Setup {
        p,
        q,
        combos,
        points: ps,
        inputs: digest.0,
        files,
    }
}

/// Traced serial path: each combo on this thread through the instrumented
/// entry point, from a known pool state, so its counts repeat exactly.
fn serial_path(
    r: &mut Report,
    cfg: &RunCfg,
    cold: bool,
    probe: &Arc<StorageProbe>,
    trees: &TreePair<2>,
    combos: &[Combo],
) -> Serial {
    if cold {
        for t in [&trees.p, &trees.q] {
            t.pool().set_capacity(t.pool().capacity());
        }
    }
    let pools = [trees.p.pool(), trees.q.pool()];
    let pool_before = PoolTotals::of(&pools);
    let sched_before = sched_totals(&pools);
    let file_before = probe.totals();
    let rounds = if cfg.tiny { 1 } else { 2 };
    let ecfg = engine_cfg();
    let mut core = CoreTotals::default();
    let mut residual = (0u64, 0u64);
    let wall = trace::now_ns();
    trace::set_enabled(true);
    let mut id = 0;
    for _ in 0..rounds {
        for c in combos {
            id += 1;
            trace::begin_request(id);
            let ((run, profile), timing) =
                trace::exec_span("core.exec", Some(probe), &pools, || {
                    let mut sp = SpanProbe::default();
                    let cancel = CancelToken::new();
                    let run = match c.kind {
                        QueryKind::Cross => k_closest_pairs_instrumented(
                            &trees.p,
                            &trees.q,
                            c.k,
                            c.algorithm,
                            &ecfg,
                            &cancel,
                            &mut sp,
                        ),
                        QueryKind::SelfJoin => self_closest_pairs_instrumented(
                            &trees.p,
                            c.k,
                            c.algorithm,
                            &ecfg,
                            &cancel,
                            &mut sp,
                        ),
                    };
                    let ph = sp.phases();
                    ((run, sp.inner.profile), ph.0, ph.1, ph.2, ph.3)
                });
            let run = run.expect("traced query");
            if !same_pairs(&run.outcome.pairs, &c.expected) {
                r.problem(format!(
                    "traced {} k={} {} diverged from its reference",
                    c.algorithm.label(),
                    c.k,
                    c.kind.label()
                ));
            }
            core.add(&timing, &run.outcome.stats, &profile);
            // heap-resident reports the residual of the ROADMAP reference
            // query (HEAP, K=100, cross) alone.
            let reference =
                c.algorithm == Algorithm::Heap && c.k == 100 && c.kind == QueryKind::Cross;
            if cold || reference {
                residual.0 += timing.self_ns();
                residual.1 += timing.exec_ns;
            }
        }
    }
    trace::set_enabled(false);
    let wall_ns = trace::now_ns() - wall;
    let pool_d = PoolTotals::of(&pools).since(&pool_before);
    pool_d.report(r, id);
    sched_report(r, &sched_before, &sched_totals(&pools), id);
    file_report(r, &file_before, &probe.totals(), id);
    r.set(
        "bench.residual_frac",
        residual.0 as f64 / residual.1.max(1) as f64,
        "frac",
    );
    r.counts = vec![
        ("disk_accesses", pool_d.misses),
        ("dist_computations", core.dist),
        ("node_pairs", core.node_pairs),
    ];
    Serial {
        core,
        requests: id,
        wall_ns,
    }
}

pub fn run(cfg: &RunCfg, cold: bool) -> Report {
    let name = if cold { "cold-disk" } else { "heap-resident" };
    let mut r = Report::new();
    let probe = cfg.trace.then(StorageProbe::new);
    // cold-disk's set-up is short and syncs its page files: more reps.
    let reps = cfg.setup_reps(if cold { 5 } else { 3 });
    let (s, setup_s) = timed_setup(reps, |rep| setup(cfg, cold, probe.as_ref(), rep));
    r.set("setup_s", setup_s, "s");
    let Setup {
        p,
        q,
        combos,
        points,
        inputs,
        files: _files,
    } = s;
    r.inputs = inputs;
    let indexed = (p.len() + q.len()) as f64;
    let pages = (p.pool().num_pages() + q.pool().num_pages()) as f64;
    r.set(
        "index_bytes_per_point",
        pages * DEFAULT_PAGE_SIZE as f64 / indexed,
        "B",
    );
    let svc: CpqService<2> = CpqService::start(
        TreePair::new(p, q),
        ServiceConfig {
            workers: 2,
            cpq: engine_cfg(),
            ..ServiceConfig::default()
        },
    );
    let trees = svc.trees().expect("static service");
    let seq = AtomicU64::new(0);
    let next = |i: u64| {
        let c = (i % combos.len() as u64) as usize;
        (c, combos[c].request())
    };
    let check = |c: usize, resp: &QueryResponse<2>| same_pairs(&resp.pairs, &combos[c].expected);

    // The serial path runs first, while the pool state is still known.
    let serial = probe
        .as_ref()
        .map(|probe| serial_path(&mut r, cfg, cold, probe, trees, &combos));

    // Warm-up through the service: on heap-resident this is what makes
    // both trees resident; on cold-disk it brings the pools to steady state.
    for (c, combo) in combos.iter().enumerate() {
        let resp = svc.execute(combo.request()).expect("warm-up admitted");
        if !check(c, &resp) {
            r.problem(format!("{name}: warm-up answer diverged"));
        }
    }
    r.set("peak_rss_mb", peak_rss_mb(), "MB");

    let pools = [trees.p.pool(), trees.q.pool()];
    if let (Some(probe), Some(serial)) = (&probe, serial) {
        let (mut untraced, mut traced) = (Window::default(), Window::default());
        alternate(cfg.seconds, |on, secs| {
            let w = closed_loop(&svc, 2, secs, &seq, &next, &check);
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
                r.problem(format!("{name}: {} divergent answers", w.divergent()));
            }
        }
        service_report(&mut r, &traced);
        let mut ledger = Ledger::default();
        common_ledger(
            &mut ledger,
            &[&trees.p, &trees.q],
            &points,
            Some(probe),
            cfg.tiny,
        );
        let requests: Vec<_> = combos
            .iter()
            .map(|c| (c.k, c.kind, cpq_core::Constraint::none()))
            .collect();
        planner_ledger(&mut ledger, &trees.p, &trees.q, &requests, 0, cfg.tiny);
        serial.core.report(&mut r, &ledger);
        ledger_metrics(&mut r, &ledger);
        r.set("rtree.pages", pages, "count");
        finish_trace(&mut r, cfg, name, &serial, &untraced, &traced);
    } else {
        let before = PoolTotals::of(&pools);
        let w = closed_loop(&svc, 2, cfg.seconds, &seq, &next, &check);
        let misses = PoolTotals::of(&pools).since(&before).misses;
        r.attempted = w.attempted();
        r.failed = w.failed();
        if w.divergent() > 0 {
            r.problem(format!("{name}: {} divergent answers", w.divergent()));
        }
        if !cold && misses > 0 {
            r.problem(format!(
                "{name}: {misses} pool misses in the measured window (trees not resident)"
            ));
        }
        // Closed loops over 100 ms queries yield too few samples for
        // slicing; the whole window is one slice.
        set_query_metrics(&mut r, std::slice::from_ref(&w));
        r.set(
            "disk_accesses_per_query",
            misses as f64 / w.completed().max(1) as f64,
            "count",
        );
        r.tables.push(format!(
            "# {name}: {} queries closed-loop x2 clients in {:.2}s, {} failed",
            w.attempted(),
            w.elapsed_s,
            w.failed()
        ));
        r.tables.extend(w.per_class(|t| {
            let c = &combos[t];
            format!("{} k={} {}", c.algorithm.label(), c.k, c.kind.label())
        }));
    }
    r
}
