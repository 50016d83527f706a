//! `live-churn`: a durable live set served by `CpqService::start_live`,
//! one writer applying insert/delete batches while one reader runs
//! HEAP K=10 cross queries, with continuous K-CPQ (`watch(10)`) on.

use crate::common::*;
use crate::ledger::{self, Ledger};
use crate::trace;
use cpq_core::{k_closest_pairs, k_closest_pairs_instrumented, Algorithm, CancelToken};
use cpq_live::{LiveConfig, LiveSet, RecordBody, Side, UpdateOp, Wal, WalConfig};
use cpq_rng::Rng;
use cpq_rtree::RTreeParams;
use cpq_service::{CpqService, QueryRequest, QueryResponse, ServiceConfig};
use cpq_storage::{DiskPageFile, PageFile, DEFAULT_PAGE_SIZE};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// Operations per `apply_updates` batch.
const BATCH: usize = 16;
/// Pairs the reader and the watcher ask for.
const K: usize = 10;
/// Batches applied before anything is measured.
const WARMUP_BATCHES: usize = 40;

/// The flush policy, the same on every run: fsync on every commit, and
/// the default sharp checkpoint every 64 operations. The pools hold every
/// page: with the default 256 frames, reader misses queue behind each
/// checkpoint's data-file fsync and the read tail measures the machine's
/// shared disk.
fn live_cfg() -> LiveConfig {
    LiveConfig {
        wal: WalConfig { sync: true },
        capacity: 4096,
        ..LiveConfig::default()
    }
}

/// The writer's view of the data: which points are alive on each side,
/// and the seeded stream of updates.
struct Churn {
    rng: Rng,
    alive: [Vec<(Pt, u64)>; 2],
    next_oid: u64,
}

impl Churn {
    /// The next batch: about 55% inserts of fresh points, 45% deletes of
    /// live ones, on a random side each.
    fn batch(&mut self) -> Vec<UpdateOp<2>> {
        (0..BATCH)
            .map(|_| {
                let s = self.rng.random_range(0..2usize);
                let side = if s == 0 { Side::P } else { Side::Q };
                if self.rng.random_bool(0.55) || self.alive[s].len() < 2 {
                    let w = cpq_datasets::WORKSPACE_SIDE;
                    let object =
                        Pt::new([self.rng.random_range(0.0..w), self.rng.random_range(0.0..w)]);
                    let oid = self.next_oid;
                    self.next_oid += 1;
                    self.alive[s].push((object, oid));
                    UpdateOp::Insert { side, object, oid }
                } else {
                    let i = self.rng.random_range(0..self.alive[s].len());
                    let (object, oid) = self.alive[s].swap_remove(i);
                    UpdateOp::Delete { side, object, oid }
                }
            })
            .collect()
    }
}

struct Setup {
    live: LiveSet<2>,
    churn: Churn,
    inputs: u64,
    dir: TempFiles,
}

fn setup(cfg: &RunCfg, rep: usize) -> Setup {
    let dir = cfg.work.join(format!("live-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    // Loading commits every insert, and each checkpoint syncs the data
    // file; under fsync the set-up time would be the shared disk's. Load
    // without fsync and with one checkpoint at the end, then reopen
    // through recovery under the measured flush policy.
    let load_cfg = LiveConfig {
        wal: WalConfig { sync: false },
        checkpoint_every: u64::MAX,
        ..live_cfg()
    };
    let loading = LiveSet::create(&dir, RTreeParams::paper(), &load_cfg).expect("create live set");
    let n = cfg.size(4000, 200);
    let ps = uniform_points(n, cfg.sub_seed(5));
    let qs: Vec<(Pt, u64)> = uniform_points(n, cfg.sub_seed(6))
        .into_iter()
        .map(|(p, oid)| (p, oid + n as u64))
        .collect();
    let mut digest = Digest::new();
    digest.points(&ps);
    digest.points(&qs);
    let ops: Vec<UpdateOp<2>> = ps
        .iter()
        .map(|&(object, oid)| UpdateOp::Insert {
            side: Side::P,
            object,
            oid,
        })
        .chain(qs.iter().map(|&(object, oid)| UpdateOp::Insert {
            side: Side::Q,
            object,
            oid,
        }))
        .collect();
    for chunk in ops.chunks(256) {
        loading.apply(chunk).expect("initial load");
    }
    loading.p().checkpoint().expect("checkpoint P");
    loading.q().checkpoint().expect("checkpoint Q");
    drop(loading);
    let reopen = |side: &str| {
        cpq_live::recover::<2, Pt>(&dir.join(side), RTreeParams::paper(), &live_cfg())
            .expect("reopen the loaded tree")
            .0
    };
    let live = LiveSet::from_trees(reopen("p"), reopen("q"));
    live.watch(K).expect("install the watcher");
    let seed = cfg.sub_seed(7);
    digest.u64(seed);
    Setup {
        live,
        churn: Churn {
            rng: Rng::seed_from_u64(seed),
            alive: [ps, qs],
            next_oid: 2 * n as u64,
        },
        inputs: digest.0,
        dir: TempFiles(vec![dir]),
    }
}

/// What the writer measured.
#[derive(Debug, Default)]
struct Updates {
    ops: u64,
    batches: u64,
    failed: u64,
    batch_ms: Vec<f64>,
    elapsed_s: f64,
}

impl Updates {
    fn absorb(&mut self, other: Updates) {
        self.ops += other.ops;
        self.batches += other.batches;
        self.failed += other.failed;
        self.batch_ms.extend(other.batch_ms);
        self.elapsed_s += other.elapsed_s;
    }
}

/// One slice of churn: the writer applies batches and one reader runs
/// closed-loop queries until `secs` pass.
fn churn_window(
    svc: &CpqService<2>,
    churn: &mut Churn,
    secs: f64,
    next: &(impl Fn(u64) -> (usize, QueryRequest) + Sync),
    check: &(impl Fn(usize, &QueryResponse<2>) -> bool + Sync),
) -> (Window, Updates) {
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut u = Updates::default();
            let start = Instant::now();
            let deadline = start + Duration::from_secs_f64(secs);
            while Instant::now() < deadline {
                let batch = churn.batch();
                let t = Instant::now();
                let ok = svc.apply_updates(&batch).is_ok();
                u.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
                u.batches += 1;
                if ok {
                    u.ops += batch.len() as u64;
                } else {
                    u.failed += 1;
                }
            }
            u.elapsed_s = start.elapsed().as_secs_f64();
            u
        });
        let w = closed_loop(svc, 1, secs, &AtomicU64::new(0), next, check);
        (w, writer.join().expect("writer thread panicked"))
    })
}

/// Write-path counters of both live trees, for before/after deltas.
#[derive(Debug, Default, Clone, Copy)]
struct LiveTotals {
    wal_records: u64,
    wal_bytes: u64,
    commits: u64,
    flushes: u64,
    epochs: u64,
    retired: u64,
    checkpoints: u64,
    page_writes: u64,
}

impl LiveTotals {
    fn of(live: &LiveSet<2>) -> Self {
        let (p, q) = live.stats();
        let mut t = LiveTotals::default();
        for s in [&p, &q] {
            let w = s.wal.unwrap_or_default();
            t.wal_records += w.records;
            t.wal_bytes += w.bytes;
            t.commits += w.commits;
            t.flushes += w.flushes;
            t.epochs += s.epoch.epoch;
            t.retired += s.epoch.pages_retired;
            t.checkpoints += s.checkpoints;
        }
        t.page_writes =
            live.p().pool().buffer_stats().writes + live.q().pool().buffer_stats().writes;
        t
    }

    fn since(&self, b: &LiveTotals) -> LiveTotals {
        LiveTotals {
            wal_records: self.wal_records - b.wal_records,
            wal_bytes: self.wal_bytes - b.wal_bytes,
            commits: self.commits - b.commits,
            flushes: self.flushes - b.flushes,
            epochs: self.epochs - b.epochs,
            retired: self.retired - b.retired,
            checkpoints: self.checkpoints - b.checkpoints,
            page_writes: self.page_writes - b.page_writes,
        }
    }
}

/// Traced serial path: one batch and one read in turn on this thread,
/// from the deterministic post-set-up state, so its counts repeat
/// exactly. Returns the WAL records per operation too, for the ledger.
fn serial_path(
    r: &mut Report,
    cfg: &RunCfg,
    svc: &CpqService<2>,
    live: &LiveSet<2>,
    churn: &mut Churn,
) -> (Serial, f64) {
    let rounds = if cfg.tiny { 4 } else { 24 };
    let ecfg = engine_cfg();
    let before = LiveTotals::of(live);
    let pools = [live.p().pool(), live.q().pool()];
    let mut core = CoreTotals::default();
    let mut reads = PoolTotals::default();
    let mut residual = (0u64, 0u64);
    let mut ops = 0u64;
    let wall = trace::now_ns();
    trace::set_enabled(true);
    for round in 0..rounds {
        trace::begin_request(2 * round + 1);
        let batch = churn.batch();
        ops += batch.len() as u64;
        if let Err(e) = trace::span("live.apply", || svc.apply_updates(&batch)) {
            r.problem(format!("live-churn: traced batch failed: {e}"));
        }
        trace::begin_request(2 * round + 2);
        let (sp, sq) = trace::span("live.snapshot", || {
            (live.p().snapshot(), live.q().snapshot())
        });
        let (sp, sq) = (sp.expect("snapshot P"), sq.expect("snapshot Q"));
        let pool_before = PoolTotals::of(&pools);
        let ((run, profile), timing) = trace::exec_span("core.exec", None, &[], || {
            let mut probe = SpanProbe::default();
            let run = k_closest_pairs_instrumented(
                sp.tree(),
                sq.tree(),
                K,
                Algorithm::Heap,
                &ecfg,
                &CancelToken::new(),
                &mut probe,
            );
            let ph = probe.phases();
            ((run, probe.inner.profile), ph.0, ph.1, ph.2, ph.3)
        });
        reads.add(&PoolTotals::of(&pools).since(&pool_before));
        let run = run.expect("traced live query");
        core.add(&timing, &run.outcome.stats, &profile);
        residual.0 += timing.self_ns();
        residual.1 += timing.exec_ns;
    }
    trace::set_enabled(false);
    let wall_ns = trace::now_ns() - wall;
    let d = LiveTotals::of(live).since(&before);
    let per_op = |v: u64| v as f64 / ops.max(1) as f64;
    r.set("live.wal.records_per_op", per_op(d.wal_records), "count");
    r.set("live.wal.bytes_per_op", per_op(d.wal_bytes), "B");
    r.set(
        "live.wal.flushes_per_commit",
        d.flushes as f64 / d.commits.max(1) as f64,
        "ratio",
    );
    r.set(
        "live.epoch.published_per_batch",
        d.epochs as f64 / rounds as f64,
        "count",
    );
    r.set(
        "live.epoch.retired_pages_per_op",
        per_op(d.retired),
        "count",
    );
    r.set("live.checkpoints", d.checkpoints as f64, "count");
    r.set("live.page_writes_per_op", per_op(d.page_writes), "count");
    reads.report(r, rounds);
    r.set(
        "bench.residual_frac",
        residual.0 as f64 / residual.1.max(1) as f64,
        "frac",
    );
    r.counts = vec![
        ("disk_accesses", reads.misses),
        ("dist_computations", core.dist),
        ("node_pairs", core.node_pairs),
        ("wal_records", d.wal_records),
        ("wal_bytes", d.wal_bytes),
    ];
    let serial = Serial {
        core,
        requests: 2 * rounds,
        wall_ns,
    };
    (serial, per_op(d.wal_records))
}

/// Copies the live directory, scrambles every data page written after
/// the last checkpoint (the bytes a crash may lose: only the WAL was
/// flushed for them), recovers both trees, and returns their K-CPQ.
fn recovered_answer(dir: &Path, copy: &Path) -> Result<Vec<Pair>, String> {
    let _ = std::fs::remove_dir_all(copy);
    copy_dir(dir, copy).map_err(|e| format!("copy live dir: {e}"))?;
    let mut trees = Vec::new();
    for side in ["p", "q"] {
        let side_dir = copy.join(side);
        let scans = cpq_live::wal::scan_log(&side_dir.join(cpq_live::tree::WAL_DIR))
            .map_err(|e| format!("scan wal: {e}"))?;
        let mut file = DiskPageFile::open(side_dir.join(cpq_live::tree::DATA_FILE))
            .map_err(|e| format!("open data file: {e}"))?;
        let garbage = vec![0xA5u8; DEFAULT_PAGE_SIZE];
        for scan in &scans {
            for (_, rec) in &scan.records {
                if let RecordBody::PageWrite { page, .. } = rec.body {
                    // A page freed since cannot be written; nothing to lose.
                    let _ = file.write(cpq_storage::PageId(page), &garbage);
                }
            }
        }
        file.sync()
            .map_err(|e| format!("sync scrambled file: {e}"))?;
        drop(file);
        let (tree, _) = cpq_live::recover::<2, Pt>(&side_dir, RTreeParams::paper(), &live_cfg())
            .map_err(|e| format!("recover {side}: {e}"))?;
        trees.push(tree);
    }
    let q = trees.pop().expect("q tree");
    let p = trees.pop().expect("p tree");
    let set = LiveSet::from_trees(p, q);
    let (sp, sq) = (
        set.p().snapshot().map_err(|e| e.to_string())?,
        set.q().snapshot().map_err(|e| e.to_string())?,
    );
    k_closest_pairs(sp.tree(), sq.tree(), K, Algorithm::Heap, &engine_cfg())
        .map(|o| o.pairs)
        .map_err(|e| e.to_string())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut r = Report::new();
    let (s, setup_s) = timed_setup(cfg.setup_reps(7), |rep| setup(cfg, rep));
    r.set("setup_s", setup_s, "s");
    let Setup {
        live,
        mut churn,
        inputs,
        dir,
    } = s;
    r.inputs = inputs;
    let svc: CpqService<2> = CpqService::start_live(
        live,
        ServiceConfig {
            workers: 2,
            cpq: engine_cfg(),
            ..ServiceConfig::default()
        },
    );
    let live = svc.live().expect("live service");
    // Warm-up: a fixed prefix of the churn, applied before anything is
    // measured, so checkpoints and page turnover have started.
    for _ in 0..WARMUP_BATCHES {
        if let Err(e) = svc.apply_updates(&churn.batch()) {
            r.problem(format!("live-churn: warm-up batch failed: {e}"));
        }
    }
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    let points = (live.p().len() + live.q().len()) as f64;
    let pages = (live.p().pool().num_pages() + live.q().pool().num_pages()) as f64;
    r.set(
        "index_bytes_per_point",
        pages * DEFAULT_PAGE_SIZE as f64 / points,
        "B",
    );
    let next = |_: u64| (0, QueryRequest::cross(K, Algorithm::Heap));
    // Each read sees some committed epoch, so it is checked for shape
    // here; the exact answer is checked at the end against the watcher,
    // a fresh recomputation, and recovery.
    let check = |_: usize, resp: &QueryResponse<2>| {
        resp.pairs.len() == K && resp.pairs.windows(2).all(|w| w[0].dist2 <= w[1].dist2)
    };

    if cfg.trace {
        let (serial, records_per_op) = serial_path(&mut r, cfg, &svc, live, &mut churn);
        let (mut untraced, mut traced) = (Window::default(), Window::default());
        alternate(cfg.seconds, |on, secs| {
            let (w, u) = churn_window(&svc, &mut churn, secs, &next, &check);
            r.attempted += u.batches;
            r.failed += u.failed;
            if on {
                traced.absorb(w)
            } else {
                untraced.absorb(w)
            }
        });
        for w in [&untraced, &traced] {
            r.attempted += w.attempted();
            r.failed += w.failed();
        }
        service_report(&mut r, &traced);

        let mut ledger = Ledger::default();
        let (sp, sq) = (
            live.p().snapshot().expect("snapshot P"),
            live.q().snapshot().expect("snapshot Q"),
        );
        live_ledger(&mut ledger, cfg, live, records_per_op);
        common_ledger(
            &mut ledger,
            &[sp.tree(), sq.tree()],
            &churn.alive[0],
            None,
            cfg.tiny,
        );
        planner_ledger(
            &mut ledger,
            sp.tree(),
            sq.tree(),
            &[(
                K,
                cpq_service::QueryKind::Cross,
                cpq_core::Constraint::none(),
            )],
            0,
            cfg.tiny,
        );
        drop((sp, sq));
        serial.core.report(&mut r, &ledger);
        ledger_metrics(&mut r, &ledger);
        r.set(
            "rtree.pages",
            (live.p().pool().num_pages() + live.q().pool().num_pages()) as f64,
            "count",
        );
        finish_trace(&mut r, cfg, "live-churn", &serial, &untraced, &traced);
    } else {
        let mut slices = Vec::new();
        let mut u = Updates::default();
        for _ in 0..SLICES {
            let (w, slice) =
                churn_window(&svc, &mut churn, cfg.seconds / SLICES as f64, &next, &check);
            slices.push(w);
            u.absorb(slice);
        }
        set_query_metrics(&mut r, &slices);
        let mut w = Window::default();
        for s in slices {
            w.absorb(s);
        }
        r.attempted = w.attempted() + u.batches;
        r.failed = w.failed() + u.failed;
        r.set("disk_accesses_per_query", w.disk_per_query(), "count");
        r.set("update_ops_per_s", u.ops as f64 / u.elapsed_s, "1/s");
        let batch = |q| ledger::percentile(&u.batch_ms, q);
        r.set("update_batch_p50_ms", batch(0.5), "ms");
        r.set("update_batch_p95_ms", batch(0.95), "ms");
        r.tables.push(format!(
            "# live-churn: {} reads and {} batches of {BATCH} ops in {:.2}s, {} failed",
            w.attempted(),
            u.batches,
            w.elapsed_s,
            r.failed
        ));
    }

    // The end-of-run gate: the watcher equals a recomputation on fresh
    // snapshots, and recovery from the flushed bytes gives it back.
    let watched = live.watched_pairs().unwrap_or_default();
    let fresh = {
        let (sp, sq) = (
            live.p().snapshot().expect("snapshot P"),
            live.q().snapshot().expect("snapshot Q"),
        );
        k_closest_pairs(sp.tree(), sq.tree(), K, Algorithm::Heap, &engine_cfg())
            .expect("recompute")
            .pairs
    };
    if !same_pairs(&watched, &fresh) {
        r.problem("live-churn: watched_pairs() differs from a fresh recomputation".into());
    }
    let live_dir = &dir.0[0];
    match recovered_answer(live_dir, &cfg.work.join("live-recovered")) {
        Ok(rec) if same_pairs(&rec, &watched) => {}
        Ok(_) => r.problem("live-churn: recovered trees give a different answer".into()),
        Err(e) => r.problem(format!("live-churn: recovery failed: {e}")),
    }
    drop(svc);
    r
}

/// `LiveTree::snapshot`, and `Wal::append` + `commit` on a WAL in the
/// workload's directory with the same `sync` setting, replaying the
/// per-operation record mix the traced path measured.
fn live_ledger(ledger: &mut Ledger, cfg: &RunCfg, live: &LiveSet<2>, records_per_op: f64) {
    let reps = if cfg.tiny { 8 } else { 64 };
    ledger.add(
        "live",
        "LiveTree::snapshot (+drop)",
        "live.snapshot_ns",
        "ns",
        ledger::per_op(reps * 64, 64, |_| {
            std::hint::black_box(live.p().snapshot().expect("snapshot"));
        }),
    );
    let dir = cfg.work.join("ledger-wal");
    let _ = std::fs::remove_dir_all(&dir);
    let wal = Wal::create(&dir, live_cfg().wal).expect("ledger wal");
    let image = live
        .p()
        .pool()
        .read_page(cpq_storage::PageId(0))
        .map(|b| b.to_vec())
        .unwrap_or_else(|_| vec![0; DEFAULT_PAGE_SIZE]);
    // OpBegin + page writes + Commit, as the traced path logged them.
    let writes = (records_per_op.round() as usize).saturating_sub(2).max(1);
    let ops = if cfg.tiny { 20 } else { 200 };
    let mut append = Vec::new();
    let mut commit = Vec::new();
    for op_id in 0..ops as u64 {
        let t = Instant::now();
        wal.append(&RecordBody::OpBegin {
            op_id,
            op: cpq_live::OpKind::Insert,
            side: 0,
            oid: op_id,
            obj: vec![0; 16],
        });
        for w in 0..writes {
            wal.append(&RecordBody::PageWrite {
                op_id,
                page: w as u32,
                image: image.clone(),
            });
        }
        let lsn = wal.append(&RecordBody::Commit {
            op_id,
            root: 0,
            height: 1,
            len: op_id,
        });
        append.push(t.elapsed().as_nanos() as f64 / (writes + 2) as f64);
        let t = Instant::now();
        wal.commit(lsn).expect("ledger commit");
        commit.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    ledger.add(
        "live",
        "Wal::append",
        "live.wal.append_ns",
        "ns",
        ledger::summarize(append),
    );
    ledger.add(
        "live",
        "Wal::commit (sync)",
        "live.wal.commit_us",
        "us",
        ledger::summarize(commit),
    );
}
