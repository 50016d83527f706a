//! Pieces every workload shares: inputs, tree building, load loops, the
//! report, and the engine probe of the traced run.

use crate::ledger::{self, percentile_sorted, Ledger};
use crate::trace::{self, StorageProbe, TracedFile, TracedPolicy};
use cpq_core::{CpqConfig, LeafScan, PairResult, Probe, ProbeSide, ProfileProbe, QueryProfile};
use cpq_geo::{min_min_dist2, pt_dist2, Point, Rect};
use cpq_rtree::{LeafEntry, RTree, RTreeParams};
use cpq_service::{CpqService, QueryRequest, QueryResponse, QueryStatus};
use cpq_storage::{BufferPool, LruPolicy, PageFile, PageId, ReplacementPolicy};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub type Pt = Point<2>;
pub type Tree = RTree<2>;
pub type Pair = PairResult<2>;

/// Run-wide settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `true` for the self-test's tiny inputs.
    pub tiny: bool,
    /// Scratch directory for page files and WALs (inside the checkout).
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub spans: PathBuf,
}

impl RunCfg {
    /// `full` at normal scale, `tiny` in the self-test.
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            full
        }
    }

    /// Full set-ups in this run: `full` on an untraced run at normal
    /// scale, where `setup_s` is their median, else one.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.trace || self.tiny {
            1
        } else {
            full
        }
    }

    /// A seed for one named input stream of this run.
    pub fn sub_seed(&self, stream: u64) -> u64 {
        let mut s = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        cpq_rng::splitmix64(&mut s)
    }
}

/// The engine configuration every workload uses: the paper's algorithms
/// with the plane-sweep leaf scan (the ROADMAP reference query's setting).
pub fn engine_cfg() -> CpqConfig {
    CpqConfig {
        leaf_scan: LeafScan::PlaneSweep,
        ..CpqConfig::paper()
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub tables: Vec<String>,
    /// Counts of the traced run that repeat exactly for a fixed seed.
    pub counts: Vec<(&'static str, u64)>,
    /// Fingerprint of the generated inputs.
    pub inputs: u64,
    pub problems: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    pub fn problem(&mut self, msg: String) {
        self.correct = false;
        self.problems.push(msg);
    }
}

/// FNV-1a over the bit patterns of the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    pub fn points(&mut self, pts: &[(Pt, u64)]) {
        for (p, oid) in pts {
            self.u64(p.coord(0).to_bits());
            self.u64(p.coord(1).to_bits());
            self.u64(*oid);
        }
    }
}

pub fn uniform_points(n: usize, seed: u64) -> Vec<(Pt, u64)> {
    cpq_datasets::uniform(n, seed).indexed()
}

pub fn clustered_points(n: usize, seed: u64, colors: u16) -> Vec<(Pt, u64)> {
    let ds = cpq_datasets::clustered(n, cpq_datasets::ClusterSpec::default(), seed);
    ds.colored_indexed(colors)
}

/// A pool over `file` with the paper's LRU policy, decorated when the
/// traced run passes a probe.
pub fn pool(
    file: Box<dyn PageFile>,
    capacity: usize,
    probe: Option<&Arc<StorageProbe>>,
) -> BufferPool {
    let (file, policy) = decorate(file, probe);
    BufferPool::new(file, capacity, policy)
}

/// A scheduled (I/O-scheduler) pool, decorated likewise.
pub fn sched_pool(
    file: Box<dyn PageFile>,
    capacity: usize,
    probe: Option<&Arc<StorageProbe>>,
) -> BufferPool {
    let (file, policy) = decorate(file, probe);
    BufferPool::new_scheduled(file, capacity, policy, cpq_storage::SchedConfig::default())
}

fn decorate(
    file: Box<dyn PageFile>,
    probe: Option<&Arc<StorageProbe>>,
) -> (Box<dyn PageFile>, Box<dyn ReplacementPolicy>) {
    let lru: Box<dyn ReplacementPolicy> = Box::new(LruPolicy::new());
    match probe {
        Some(p) => (
            Box::new(TracedFile::new(file, Arc::clone(p))),
            Box::new(TracedPolicy::new(lru, Arc::clone(p))),
        ),
        None => (file, lru),
    }
}

/// Inserts `points` into a fresh paper-parameter tree over `pool`.
pub fn insert_all(pool: BufferPool, points: &[(Pt, u64)]) -> Tree {
    let mut tree = RTree::new(pool, RTreeParams::paper()).expect("paper params fit the page");
    for &(p, oid) in points {
        tree.insert(p, oid).expect("insert into a fresh tree");
    }
    tree
}

/// Bit-identical comparison of two answers.
pub fn same_pairs(got: &[Pair], want: &[Pair]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.p.oid == w.p.oid
                && g.q.oid == w.q.oid
                && g.dist2.get().to_bits() == w.dist2.get().to_bits()
        })
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Runs `setup` `reps` times, keeping the last result; returns it with
/// the median set-up time in seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    for rep in 0..reps.max(1) {
        // Drop the previous set-up first so two never coexist.
        drop(last.take());
        let t = Instant::now();
        let built = setup(rep);
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (
        last.expect("at least one set-up"),
        ledger::percentile(&times, 0.5),
    )
}

/// How one query ended, from the client's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Divergent,
    Failed,
    Shed,
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Which request of the workload's mix this was.
    pub tag: usize,
    pub client_ms: f64,
    pub queue_ms: f64,
    pub exec_ms: f64,
    pub handoff_us: f64,
    pub outcome: Outcome,
    /// Pool misses the response reports for this query.
    pub disk: u64,
}

/// Everything a load window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
    /// Open loop only: how late the generator sent each request.
    pub lateness_ms: Vec<f64>,
}

impl Window {
    pub fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.elapsed_s += other.elapsed_s;
        self.lateness_ms.extend(other.lateness_ms);
    }
    pub fn disk_per_query(&self) -> f64 {
        let ok = self.samples.iter().filter(|s| s.outcome == Outcome::Ok);
        ok.map(|s| s.disk).sum::<u64>() as f64 / self.completed().max(1) as f64
    }
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }
    pub fn failed(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.outcome != Outcome::Ok)
            .count() as u64
    }
    pub fn divergent(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.outcome == Outcome::Divergent)
            .count() as u64
    }
    pub fn completed(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .count() as u64
    }
    fn sorted(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .map(f)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
    pub fn client_pct(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted(|s| s.client_ms), q)
    }
    pub fn client_mean(&self) -> f64 {
        let v = self.sorted(|s| s.client_ms);
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }
    pub fn queue_pct(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted(|s| s.queue_ms), q)
    }
    pub fn exec_pct(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted(|s| s.exec_ms), q)
    }
    pub fn handoff_pct(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted(|s| s.handoff_us), q)
    }
    /// One line per class of the mix (`label` maps a tag to its class):
    /// count, p50 and p95 client latency.
    pub fn per_class(&self, label: impl Fn(usize) -> String) -> Vec<String> {
        let mut classes: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in self.samples.iter().filter(|s| s.outcome == Outcome::Ok) {
            classes.entry(label(s.tag)).or_default().push(s.client_ms);
        }
        classes
            .into_iter()
            .map(|(class, mut v)| {
                v.sort_by(f64::total_cmp);
                format!(
                    "#   {:<40} n={:<5} p50 {:>9.3} ms  p95 {:>9.3} ms",
                    class,
                    v.len(),
                    percentile_sorted(&v, 0.5),
                    percentile_sorted(&v, 0.95)
                )
            })
            .collect()
    }
    pub fn shed_frac(&self) -> f64 {
        let shed = self
            .samples
            .iter()
            .filter(|s| s.outcome == Outcome::Shed)
            .count();
        shed as f64 / self.samples.len().max(1) as f64
    }
}

/// Classifies one response; `check` says whether a completed answer is
/// correct.
fn sample_of(
    tag: usize,
    resp: &QueryResponse<2>,
    client: Duration,
    check: &(impl Fn(usize, &QueryResponse<2>) -> bool + Sync),
) -> Sample {
    let outcome = match resp.status {
        QueryStatus::Completed if check(tag, resp) => Outcome::Ok,
        QueryStatus::Completed => Outcome::Divergent,
        _ => Outcome::Failed,
    };
    Sample {
        tag,
        client_ms: client.as_secs_f64() * 1e3,
        queue_ms: resp.queue_wait.as_secs_f64() * 1e3,
        exec_ms: resp.exec.as_secs_f64() * 1e3,
        handoff_us: client.saturating_sub(resp.latency).as_secs_f64() * 1e6,
        outcome,
        disk: resp.stats.disk_accesses(),
    }
}

/// Records the service-path spans of one traced request.
fn trace_call(resp: &QueryResponse<2>, start_ns: u64, end_ns: u64) {
    if !trace::enabled() {
        return;
    }
    let req = SERVICE_REQ_BASE + resp.id;
    let id = trace::record_span("service.call", req, start_ns, end_ns);
    trace::record_aggregate(id, req, "worker.exec", 1, resp.exec.as_nanos() as u64);
}

/// Slices an untraced open-loop or reader window is measured in.
pub const SLICES: usize = 5;

/// Sets `query_p50_ms`, `query_p95_ms` and `query_qps` from a window
/// measured as consecutive slices: each is the median of the slices' own
/// figures, so a burst of machine noise in one slice does not move it.
pub fn set_query_metrics(r: &mut Report, slices: &[Window]) {
    let median = |f: &dyn Fn(&Window) -> f64| {
        ledger::percentile(&slices.iter().map(f).collect::<Vec<_>>(), 0.5)
    };
    r.set("query_p50_ms", median(&|w| w.client_pct(0.5)), "ms");
    r.set("query_p95_ms", median(&|w| w.client_pct(0.95)), "ms");
    r.set(
        "query_qps",
        median(&|w| w.completed() as f64 / w.elapsed_s),
        "1/s",
    );
    if slices.len() > 1 {
        let list = |f: &dyn Fn(&Window) -> f64| {
            let v: Vec<String> = slices.iter().map(|w| format!("{:.3}", f(w))).collect();
            v.join(" ")
        };
        r.tables.push(format!(
            "# slices: p50 ms [{}]  p95 ms [{}]",
            list(&|w| w.client_pct(0.5)),
            list(&|w| w.client_pct(0.95))
        ));
    }
}

/// Splits `secs` into alternating tracing-off and tracing-on slices, so
/// both service windows see the same data and cache state on average.
/// `f(traced, slice_secs)` runs one slice.
pub fn alternate(secs: f64, mut f: impl FnMut(bool, f64)) {
    const SLICES: usize = 4;
    for i in 0..2 * SLICES {
        let traced = i % 2 == 1;
        trace::set_enabled(traced);
        f(traced, secs / (2 * SLICES) as f64);
    }
    trace::set_enabled(false);
}

/// Request ids of service-path spans start here; the serial traced path
/// numbers its requests from 1.
pub const SERVICE_REQ_BASE: u64 = 1 << 40;

/// Closed loop: `clients` threads, each submit-and-wait, for `secs`.
/// `next(i)` gives the i-th request of the run, `i` drawn from `seq`
/// (shared by every window of a run, so the mix continues where the last
/// window stopped), with a tag naming it; `check(tag, response)` verifies
/// a completed answer.
pub fn closed_loop(
    svc: &CpqService<2>,
    clients: usize,
    secs: f64,
    seq: &AtomicU64,
    next: &(impl Fn(u64) -> (usize, QueryRequest) + Sync),
    check: &(impl Fn(usize, &QueryResponse<2>) -> bool + Sync),
) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut local = Vec::new();
                while Instant::now() < deadline {
                    let i = seq.fetch_add(1, Ordering::Relaxed);
                    let (tag, req) = next(i);
                    let t0 = Instant::now();
                    let t0_ns = trace::now_ns();
                    match svc.submit(req) {
                        Err(_) => local.push(Sample {
                            tag,
                            client_ms: 0.0,
                            queue_ms: 0.0,
                            exec_ms: 0.0,
                            handoff_us: 0.0,
                            outcome: Outcome::Shed,
                            disk: 0,
                        }),
                        Ok(ticket) => {
                            let resp = ticket.wait();
                            let client = t0.elapsed();
                            trace_call(&resp, t0_ns, trace::now_ns());
                            local.push(sample_of(tag, &resp, client, check));
                        }
                    }
                }
                samples.lock().expect("samples poisoned").extend(local);
            });
        }
    });
    Window {
        samples: samples.into_inner().expect("samples poisoned"),
        elapsed_s: start.elapsed().as_secs_f64(),
        lateness_ms: Vec::new(),
    }
}

/// Waiter threads of [`open_loop`]. The service runs two workers and
/// dispatches in arrival order, so two waiters taking tickets in turn are
/// never both blocked while a later request has already been answered.
const WAITERS: usize = 2;

/// Open loop: the calling thread sends request `i` at `i / rate` seconds
/// whether or not earlier ones finished; [`WAITERS`] threads take the
/// tickets in turn and collect the answers. Latency counts from each
/// request's due time to the moment its response reaches a waiter. `seq`
/// numbers the requests as in [`closed_loop`].
pub fn open_loop(
    svc: &CpqService<2>,
    rate: f64,
    secs: f64,
    seq: &AtomicU64,
    next: &(impl Fn(u64) -> (usize, QueryRequest) + Sync),
    check: &(impl Fn(usize, &QueryResponse<2>) -> bool + Sync),
) -> Window {
    let total = (rate * secs).floor().max(1.0) as u64;
    let (tx, rx) = std::sync::mpsc::channel();
    let rx = Mutex::new(rx);
    let start = Instant::now();
    let mut lateness = Vec::new();
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..WAITERS {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    // The lock is held only while taking the next ticket.
                    let taken = rx.lock().expect("ticket queue poisoned").recv();
                    let Ok((tag, due, submitted, t0_ns, ticket)) = taken else {
                        break;
                    };
                    let ticket: cpq_service::QueryTicket<2> = ticket;
                    let resp = ticket.wait();
                    let due: Instant = due;
                    let arrived = Instant::now();
                    trace_call(&resp, t0_ns, trace::now_ns());
                    let mut sample = sample_of(tag, &resp, arrived - submitted, check);
                    sample.client_ms = (arrived - due).as_secs_f64() * 1e3;
                    local.push(sample);
                }
                samples.lock().expect("samples poisoned").extend(local);
            });
        }
        for i in 0..total {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let (tag, req) = next(seq.fetch_add(1, Ordering::Relaxed));
            let submitted = Instant::now();
            lateness.push(submitted.duration_since(due).as_secs_f64() * 1e3);
            let t0_ns = trace::now_ns();
            match svc.submit(req) {
                Ok(ticket) => tx
                    .send((tag, due, submitted, t0_ns, ticket))
                    .expect("waiter threads alive"),
                Err(_) => samples.lock().expect("samples poisoned").push(Sample {
                    tag,
                    client_ms: 0.0,
                    queue_ms: 0.0,
                    exec_ms: 0.0,
                    handoff_us: 0.0,
                    outcome: Outcome::Shed,
                    disk: 0,
                }),
            }
        }
        drop(tx);
    });
    Window {
        samples: samples.into_inner().expect("samples poisoned"),
        elapsed_s: start.elapsed().as_secs_f64(),
        lateness_ms: lateness,
    }
}

/// The engine probe of the traced serial path: a [`ProfileProbe`] that
/// also counts its phase callbacks.
#[derive(Debug, Default)]
pub struct SpanProbe {
    pub inner: ProfileProbe,
    pub gen_calls: u64,
    pub scan_calls: u64,
}

impl Probe for SpanProbe {
    fn node_access(&mut self, side: ProbeSide, level: u8) {
        self.inner.node_access(side, level);
    }
    fn leaf_scan(&mut self, dist: u64, early: u64, skipped: u64, elapsed_ns: u64) {
        self.scan_calls += 1;
        self.inner.leaf_scan(dist, early, skipped, elapsed_ns);
    }
    fn gen_phase(&mut self, elapsed_ns: u64) {
        self.gen_calls += 1;
        self.inner.gen_phase(elapsed_ns);
    }
}

impl SpanProbe {
    /// The `(gen calls, gen ns, scan calls, scan ns)` phase totals.
    pub fn phases(&self) -> (u64, u64, u64, u64) {
        let p = &self.inner.profile;
        (self.gen_calls, p.gen_ns, self.scan_calls, p.scan_ns)
    }
}

/// Accumulated engine work of the traced serial path.
#[derive(Debug, Default, Clone)]
pub struct CoreTotals {
    pub queries: u64,
    pub exec_ns: u64,
    pub gen_ns: u64,
    pub scan_ns: u64,
    pub storage_ns: u64,
    pub node_pairs: u64,
    pub pruned: u64,
    pub dist: u64,
    pub early_outs: u64,
    pub sweep_skipped: u64,
    pub queue_inserts: u64,
    pub queue_peak: u64,
    pub leaf_accesses: u64,
    pub inner_accesses: u64,
}

impl CoreTotals {
    pub fn add(&mut self, t: &trace::ExecTiming, stats: &cpq_core::CpqStats, prof: &QueryProfile) {
        self.queries += 1;
        self.exec_ns += t.exec_ns;
        self.gen_ns += t.gen_ns;
        self.scan_ns += t.scan_ns;
        self.storage_ns += t.storage_ns;
        self.node_pairs += stats.node_pairs_processed;
        self.pruned += stats.pairs_pruned;
        self.dist += stats.dist_computations;
        self.early_outs += prof.kernel_early_outs;
        self.sweep_skipped += prof.sweep_pairs_skipped;
        self.queue_inserts += stats.queue_inserts;
        self.queue_peak = self.queue_peak.max(stats.queue_peak as u64);
        for side in [&prof.node_accesses_p, &prof.node_accesses_q] {
            for (level, n) in side.iter().enumerate() {
                if level == 0 {
                    self.leaf_accesses += n;
                } else {
                    self.inner_accesses += n;
                }
            }
        }
    }

    /// Sets the `core.*` metrics, and the geo and rtree self-time
    /// estimates from the ledger.
    pub fn report(&self, r: &mut Report, ledger: &Ledger) {
        let q = self.queries.max(1) as f64;
        let ms = |ns: u64| ns as f64 / 1e6 / q;
        r.set("core.exec_ms", ms(self.exec_ns), "ms");
        r.set("core.gen_ms", ms(self.gen_ns), "ms");
        r.set("core.scan_ms", ms(self.scan_ns), "ms");
        let self_ns = self
            .exec_ns
            .saturating_sub(self.gen_ns + self.scan_ns + self.storage_ns);
        r.set("core.self_ms", ms(self_ns), "ms");
        r.set(
            "core.node_pairs_per_query",
            self.node_pairs as f64 / q,
            "count",
        );
        let seen = (self.pruned + self.node_pairs).max(1) as f64;
        r.set("core.pruned_frac", self.pruned as f64 / seen, "frac");
        r.set(
            "core.dist_computations_per_query",
            self.dist as f64 / q,
            "count",
        );
        r.set(
            "core.kernel_early_out_frac",
            self.early_outs as f64 / self.dist.max(1) as f64,
            "frac",
        );
        r.set(
            "core.sweep_skipped_per_query",
            self.sweep_skipped as f64 / q,
            "count",
        );
        r.set(
            "core.queue_inserts_per_query",
            self.queue_inserts as f64 / q,
            "count",
        );
        r.set("core.queue_peak", self.queue_peak as f64, "count");
        // Geo and rtree run inside the engine with no boundary visible
        // from outside it: their self time is the ledger's ns/op times
        // the engine's own call counts (kernel calls approximated by
        // distance computations and pairs scored).
        let med = |m: &str| ledger.median_of(m).unwrap_or(0.0);
        let geo_ns = med("geo.pt_dist2_ns") * self.dist as f64
            + med("geo.min_min_dist2_ns") * (self.pruned + self.node_pairs) as f64;
        r.set("self.geo_ms_est", geo_ns / 1e6 / q, "ms");
        let rtree_ns = med("rtree.decode_leaf_ns") * self.leaf_accesses as f64
            + med("rtree.decode_inner_ns") * self.inner_accesses as f64;
        r.set("self.rtree_ms_est", rtree_ns / 1e6 / q, "ms");
    }
}

/// Every page of `tree` with its level (0 = leaf), root first.
pub fn tree_pages(tree: &Tree) -> Vec<(PageId, u8)> {
    let mut out = Vec::new();
    if tree.is_empty() {
        return out;
    }
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        let node = tree.read_node(id).expect("read a tree page");
        out.push((id, node.level()));
        if !node.is_leaf() {
            stack.extend(node.inner_entries().iter().map(|e| e.child));
        }
    }
    out
}

/// The ledger rows shared by every workload: geo kernels, node reads and
/// decode, pool hits and misses, the replacement policy, `KHeap::offer`
/// and R*-tree insertion, replayed on the workload's own data.
pub fn common_ledger(
    ledger: &mut Ledger,
    trees: &[&Tree],
    points: &[(Pt, u64)],
    probe: Option<&Arc<StorageProbe>>,
    tiny: bool,
) {
    let reps = if tiny { 8 } else { 64 };
    // geo: point pairs from the data, and MBR pairs from inner entries.
    let n = points.len();
    let pts: Vec<(Pt, Pt)> = (0..4096)
        .map(|i| (points[(i * 7919) % n].0, points[(i * 104_729 + 17) % n].0))
        .collect();
    ledger.add(
        "geo",
        "pt_dist2",
        "geo.pt_dist2_ns",
        "ns",
        ledger::per_op(reps * 1024, 1024, |i| {
            let (a, b) = &pts[i % pts.len()];
            std::hint::black_box(pt_dist2(a, b));
        }),
    );
    let mut rects: Vec<Rect<2>> = Vec::new();
    let mut leaves: Vec<(usize, PageId)> = Vec::new();
    let mut inners: Vec<(usize, PageId)> = Vec::new();
    for (ti, t) in trees.iter().enumerate() {
        for (id, level) in tree_pages(t) {
            if level == 0 {
                leaves.push((ti, id));
            } else {
                inners.push((ti, id));
                let node = t.read_node(id).expect("read an inner page");
                rects.extend(node.inner_entries().iter().map(|e| e.mbr));
            }
        }
    }
    let rect_pairs: Vec<(Rect<2>, Rect<2>)> = (0..4096)
        .map(|i| {
            (
                rects[(i * 31) % rects.len()],
                rects[(i * 7919 + 3) % rects.len()],
            )
        })
        .collect();
    ledger.add(
        "geo",
        "min_min_dist2",
        "geo.min_min_dist2_ns",
        "ns",
        ledger::per_op(reps * 1024, 1024, |i| {
            let (a, b) = &rect_pairs[i % rect_pairs.len()];
            std::hint::black_box(min_min_dist2(a, b));
        }),
    );

    // rtree + storage hit path: a resident set of at most a quarter of
    // the smallest pool, read through BufferPool::read_page and
    // RTree::read_node in alternating batches; the difference is decode.
    let cap = trees.iter().map(|t| t.pool().capacity()).min().unwrap_or(0);
    let set_len = (cap / 4).clamp(1, 256);
    let pick = |pages: &[(usize, PageId)]| -> Vec<(usize, PageId)> {
        let step = (pages.len() / set_len).max(1);
        pages.iter().step_by(step).take(set_len).copied().collect()
    };
    let mut hit_ns = Vec::new();
    let mut node_ns = Vec::new();
    for (metric, set) in [
        ("rtree.decode_leaf_ns", pick(&leaves)),
        ("rtree.decode_inner_ns", pick(&inners)),
    ] {
        if set.is_empty() || cap == 0 {
            ledger.add(
                "rtree",
                metric_call(metric),
                metric,
                "ns",
                Default::default(),
            );
            continue;
        }
        for &(ti, id) in &set {
            trees[ti].read_node(id).expect("fault in a ledger page");
        }
        let mut decode = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            for &(ti, id) in &set {
                std::hint::black_box(trees[ti].pool().read_page(id).expect("hit"));
            }
            let page = t.elapsed().as_nanos() as f64 / set.len() as f64;
            let t = Instant::now();
            for &(ti, id) in &set {
                std::hint::black_box(trees[ti].read_node(id).expect("hit"));
            }
            let node = t.elapsed().as_nanos() as f64 / set.len() as f64;
            hit_ns.push(page);
            node_ns.push(node);
            decode.push((node - page).max(0.0));
        }
        ledger.add(
            "rtree",
            metric_call(metric),
            metric,
            "ns",
            ledger::summarize(decode),
        );
    }
    ledger.add(
        "rtree",
        "RTree::read_node (hit)",
        "rtree.read_node_hit_ns",
        "ns",
        ledger::summarize(node_ns),
    );
    ledger.add(
        "storage",
        "BufferPool::read_page (hit)",
        "storage.pool.hit_ns",
        "ns",
        ledger::summarize(hit_ns),
    );

    // Miss path: cleared pools, each page read once. Tracing is on so the
    // file decorator also times these physical reads.
    let was = trace::enabled();
    trace::set_enabled(probe.is_some());
    let mut miss = Vec::new();
    let all: Vec<(usize, PageId)> = leaves.iter().chain(&inners).copied().collect();
    let miss_reps = if tiny { 4 } else { 16 };
    let batch = 64.min(all.len().max(1));
    for r in 0..miss_reps {
        for t in trees {
            t.pool().clear();
        }
        let off = (r * batch * 13) % all.len().max(1);
        let t = Instant::now();
        for j in 0..batch {
            let (ti, id) = all[(off + j * 37) % all.len()];
            std::hint::black_box(trees[ti].pool().read_page(id).expect("miss read"));
        }
        miss.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    trace::set_enabled(was);
    ledger.add(
        "storage",
        "BufferPool::read_page (miss)",
        "storage.pool.miss_ns",
        "ns",
        ledger::summarize(miss),
    );

    if let Some(probe) = probe {
        policy_ledger(ledger, probe);
        let samples = probe.read_samples.lock().expect("read samples poisoned");
        ledger.add(
            "storage",
            "PageFile::read (decorator)",
            "storage.file.read_us",
            "us",
            ledger::summarize(samples.iter().map(|&ns| ns as f64 / 1e3).collect()),
        );
    }

    // KHeap::offer on pairs of the workload's points, K = 100.
    let offers: Vec<Pair> = (0..8192)
        .map(|i| {
            let (a, oa) = points[(i * 7919) % n];
            let (b, ob) = points[(i * 104_729 + 5) % n];
            PairResult::new(LeafEntry::new(a, oa), LeafEntry::new(b, ob))
        })
        .collect();
    let mut samples = Vec::new();
    for r in 0..reps {
        let mut heap = cpq_core::KHeap::<2>::new(100);
        let base = (r * 1024) % offers.len();
        let t = Instant::now();
        for j in 0..1024 {
            std::hint::black_box(heap.offer(offers[(base + j) % offers.len()]));
        }
        samples.push(t.elapsed().as_nanos() as f64 / 1024.0);
    }
    ledger.add(
        "core",
        "KHeap::offer (K=100)",
        "core.kheap_offer_ns",
        "ns",
        ledger::summarize(samples),
    );

    // R*-tree insertion of the workload's points into a fresh tree.
    let m = points.len().min(if tiny { 500 } else { 4000 });
    let mut tree = RTree::<2>::new(
        BufferPool::with_lru(
            Box::new(cpq_storage::MemPageFile::new(
                cpq_storage::DEFAULT_PAGE_SIZE,
            )),
            512,
        ),
        RTreeParams::paper(),
    )
    .expect("paper params fit the page");
    let mut samples = Vec::new();
    for chunk in points[..m].chunks(100) {
        let t = Instant::now();
        for &(p, oid) in chunk {
            tree.insert(p, oid).expect("insert");
        }
        samples.push(t.elapsed().as_nanos() as f64 / 1e3 / chunk.len() as f64);
    }
    ledger.add(
        "rtree",
        "RTree::insert",
        "rtree.insert_us",
        "us",
        ledger::summarize(samples),
    );
}

fn metric_call(metric: &str) -> &'static str {
    if metric.contains("leaf") {
        "decode_node (leaf) = read_node - read_page"
    } else {
        "decode_node (inner) = read_node - read_page"
    }
}

/// Replays the recorded policy calls through a fresh LRU policy: runs of
/// consecutive hits are timed as batches, each eviction on its own.
fn policy_ledger(ledger: &mut Ledger, probe: &StorageProbe) {
    let log = probe
        .policy_log
        .lock()
        .expect("policy log poisoned")
        .clone();
    let cap = probe.policy_capacity.load(Ordering::Relaxed) as usize;
    let mut hits = Vec::new();
    let mut evicts = Vec::new();
    if cap > 0 && !log.is_empty() {
        let mut policy = LruPolicy::new();
        policy.resize(cap);
        let pinned = vec![false; cap];
        let mut i = 0;
        while i < log.len() {
            let op = log[i] >> 30;
            let frame = (log[i] & 0x3FFF_FFFF) as usize % cap;
            if op == trace::OP_HIT {
                // A run of consecutive hits, cut at 1024 calls per sample.
                let mut j = i;
                while j < log.len() && j - i < 1024 && log[j] >> 30 == trace::OP_HIT {
                    j += 1;
                }
                let t = Instant::now();
                for &e in &log[i..j] {
                    policy.on_hit((e & 0x3FFF_FFFF) as usize % cap);
                }
                if j - i >= 16 {
                    hits.push(t.elapsed().as_nanos() as f64 / (j - i) as f64);
                }
                i = j;
                continue;
            }
            match op {
                trace::OP_INSERT => policy.on_insert(frame),
                trace::OP_EVICT => {
                    let t = Instant::now();
                    std::hint::black_box(policy.evict(&pinned));
                    evicts.push(t.elapsed().as_nanos() as f64);
                }
                _ => policy.on_remove(frame),
            }
            i += 1;
        }
    }
    ledger.add(
        "storage",
        "LruPolicy::on_hit (replay)",
        "storage.policy.on_hit_ns",
        "ns",
        ledger::summarize(hits),
    );
    ledger.add(
        "storage",
        "LruPolicy::evict (replay)",
        "storage.policy.evict_ns",
        "ns",
        ledger::summarize(evicts),
    );
}

/// Copies the ledger medians into the report under their metric names.
pub fn ledger_metrics(r: &mut Report, ledger: &Ledger) {
    for row in &ledger.rows {
        r.set(row.metric, row.summary.median, row.unit);
    }
    r.tables
        .push("# layer ledger (ns/op replayed on this workload's inputs)".into());
    r.tables.extend(ledger.table());
}

/// Pool counters of the traced serial path, per query.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolTotals {
    pub logical: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writes: u64,
}

impl PoolTotals {
    pub fn of(pools: &[&BufferPool]) -> Self {
        let mut t = PoolTotals::default();
        for p in pools {
            let (b, _) = p.stats_snapshot();
            t.logical += b.logical_reads;
            t.hits += b.hits;
            t.misses += b.misses;
            t.evictions += b.evictions;
            t.writes += b.writes;
        }
        t
    }

    pub fn add(&mut self, d: &PoolTotals) {
        self.logical += d.logical;
        self.hits += d.hits;
        self.misses += d.misses;
        self.evictions += d.evictions;
        self.writes += d.writes;
    }

    pub fn since(&self, before: &PoolTotals) -> PoolTotals {
        PoolTotals {
            logical: self.logical - before.logical,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            writes: self.writes - before.writes,
        }
    }

    pub fn report(&self, r: &mut Report, queries: u64) {
        let q = queries.max(1) as f64;
        r.set(
            "storage.pool.logical_reads_per_query",
            self.logical as f64 / q,
            "count",
        );
        r.set(
            "storage.pool.hit_rate",
            self.hits as f64 / self.logical.max(1) as f64,
            "frac",
        );
        r.set(
            "storage.pool.misses_per_query",
            self.misses as f64 / q,
            "count",
        );
        r.set(
            "storage.pool.evictions_per_query",
            self.evictions as f64 / q,
            "count",
        );
    }
}

/// Scheduler counters summed over pools.
pub fn sched_totals(pools: &[&BufferPool]) -> cpq_storage::SchedStats {
    let mut t = cpq_storage::SchedStats::default();
    for p in pools {
        if let Some(s) = p.sched_stats() {
            t.demand_reads += s.demand_reads;
            t.demand_stall_ns += s.demand_stall_ns;
            t.physical_pages += s.physical_pages;
            t.physical_batches += s.physical_batches;
            t.prefetch_issued += s.prefetch_issued;
            t.prefetch_hits += s.prefetch_hits;
            t.dedup_joins += s.dedup_joins;
        }
    }
    t
}

/// Sets the scheduler metrics from a before/after pair.
pub fn sched_report(
    r: &mut Report,
    before: &cpq_storage::SchedStats,
    after: &cpq_storage::SchedStats,
    queries: u64,
) {
    let q = queries.max(1) as f64;
    let d = cpq_storage::SchedStats {
        demand_reads: after.demand_reads - before.demand_reads,
        demand_stall_ns: after.demand_stall_ns - before.demand_stall_ns,
        physical_pages: after.physical_pages - before.physical_pages,
        physical_batches: after.physical_batches - before.physical_batches,
        prefetch_issued: after.prefetch_issued - before.prefetch_issued,
        prefetch_hits: after.prefetch_hits - before.prefetch_hits,
        dedup_joins: after.dedup_joins - before.dedup_joins,
        ..Default::default()
    };
    r.set(
        "storage.sched.demand_stall_ms_per_query",
        d.demand_stall_ns as f64 / 1e6 / q,
        "ms",
    );
    r.set("storage.sched.coalesce_ratio", d.coalesce_ratio(), "ratio");
    r.set(
        "storage.sched.prefetch_hit_rate",
        d.prefetch_hit_rate(),
        "frac",
    );
    r.set(
        "storage.sched.dedup_joins_per_query",
        d.dedup_joins as f64 / q,
        "count",
    );
}

/// Sets the file-decorator metrics from a before/after pair.
pub fn file_report(
    r: &mut Report,
    before: &trace::StorageTotals,
    after: &trace::StorageTotals,
    queries: u64,
) {
    let d = after.since(before);
    let q = queries.max(1) as f64;
    r.set(
        "storage.file.reads_per_query",
        d.file_pages as f64 / q,
        "count",
    );
    r.set(
        "storage.file.busy_ms_per_query",
        d.file_ns as f64 / 1e6 / q,
        "ms",
    );
}

/// Sets the `service.*` metrics and `self.service_ms` from a traced
/// service-path window.
pub fn service_report(r: &mut Report, w: &Window) {
    r.set("service.queue_wait_p50_ms", w.queue_pct(0.5), "ms");
    r.set("service.queue_wait_p95_ms", w.queue_pct(0.95), "ms");
    r.set("service.exec_p50_ms", w.exec_pct(0.5), "ms");
    r.set("service.handoff_p50_us", w.handoff_pct(0.5), "us");
    r.set("service.shed_frac", w.shed_frac(), "frac");
}

/// What a workload's traced serial path leaves for the closing steps.
#[derive(Debug, Default)]
pub struct Serial {
    /// Engine work of the serial path's classic-engine queries.
    pub core: CoreTotals,
    /// Requests the serial path ran (queries and update batches).
    pub requests: u64,
    /// Wall time of the whole serial path.
    pub wall_ns: u64,
}

/// The traced run's closing step: layer self times from the recorded
/// spans, the overhead of tracing, and the span file.
pub fn finish_trace(
    r: &mut Report,
    cfg: &RunCfg,
    workload: &str,
    serial: &Serial,
    untraced: &Window,
    traced: &Window,
) {
    let (serial_requests, traced_wall_ns) = (serial.requests, serial.wall_ns);
    let (spans, aggs, dropped) = trace::drain();
    let (serial_spans, service_spans): (Vec<_>, Vec<_>) =
        spans.into_iter().partition(|s| s.req < SERVICE_REQ_BASE);
    let (serial_aggs, service_aggs): (Vec<_>, Vec<_>) =
        aggs.into_iter().partition(|a| a.req < SERVICE_REQ_BASE);
    let q = serial_requests.max(1) as f64;
    let serial = trace::layer_self_ns(&serial_spans, &serial_aggs);
    let get = |name: &str| {
        serial
            .iter()
            .find(|(l, _)| l == name)
            .map(|(_, ns)| *ns)
            .unwrap_or(0)
    };
    for (layer, metric) in [
        ("planner", "self.planner_ms"),
        ("core", "self.core_ms"),
        ("storage", "self.storage_ms"),
        ("live", "self.live_ms"),
        ("shard", "self.shard_ms"),
    ] {
        r.set(metric, get(layer) as f64 / 1e6 / q, "ms");
    }
    let covered: u64 = serial.iter().map(|(_, ns)| ns).sum();
    r.set(
        "self.bench_ms",
        traced_wall_ns.saturating_sub(covered) as f64 / 1e6 / q,
        "ms",
    );
    let service = trace::layer_self_ns(&service_spans, &service_aggs);
    let service_ns = service
        .iter()
        .find(|(l, _)| l == "service")
        .map(|(_, ns)| *ns)
        .unwrap_or(0);
    let calls = service_spans.len().max(1) as f64;
    r.set("self.service_ms", service_ns as f64 / 1e6 / calls, "ms");
    let base = untraced.client_mean();
    let overhead = if base > 0.0 {
        traced.client_mean() / base - 1.0
    } else {
        0.0
    };
    r.set("bench.trace_overhead_frac", overhead, "frac");
    let path = cfg
        .spans
        .join(format!("spans-{workload}-seed{}.jsonl", cfg.seed));
    let all_spans: Vec<_> = serial_spans.into_iter().chain(service_spans).collect();
    let all_aggs: Vec<_> = serial_aggs.into_iter().chain(service_aggs).collect();
    match trace::write_jsonl(&path, &all_spans, &all_aggs) {
        Ok(()) => r.tables.push(format!(
            "# spans: {} spans, {} aggregates, {} dropped -> {}",
            all_spans.len(),
            all_aggs.len(),
            dropped,
            path.display()
        )),
        Err(e) => r.tables.push(format!("# spans not written: {e}")),
    }
    let mut line = String::from("# layer self time per traced request (ms):");
    for (layer, ns) in &serial {
        line.push_str(&format!(" {layer}={:.3}", *ns as f64 / 1e6 / q));
    }
    line.push_str(&format!(
        " | service={:.3}",
        service_ns as f64 / 1e6 / calls
    ));
    r.tables.push(line);
}

/// Files removed when the owning set-up is dropped.
#[derive(Debug, Default)]
pub struct TempFiles(pub Vec<PathBuf>);

impl Drop for TempFiles {
    fn drop(&mut self) {
        for f in &self.0 {
            let _ = std::fs::remove_file(f);
            let _ = std::fs::remove_dir_all(f);
        }
    }
}

/// `plan()` ns/op, replaying the workload's query shapes over planner
/// inputs gathered from the trees as the service gathers them.
pub fn planner_ledger(
    ledger: &mut Ledger,
    p: &Tree,
    q: &Tree,
    requests: &[(usize, cpq_service::QueryKind, cpq_core::Constraint<2>)],
    shards: usize,
    tiny: bool,
) {
    let stats_p = p.level_stats().expect("level stats of P");
    let stats_q = q.level_stats().expect("level stats of Q");
    let inputs = cpq_service::PlannerInputs {
        n_p: p.len(),
        n_q: q.len(),
        workspace_p: p.root_mbr().expect("root of P"),
        workspace_q: q.root_mbr().expect("root of Q"),
        stats_p: Some(&stats_p),
        stats_q: Some(&stats_q),
        max_parallelism: 1,
        shards,
    };
    let reps = if tiny { 8 } else { 64 };
    ledger.add(
        "planner",
        "plan()",
        "planner.plan_ns",
        "ns",
        ledger::per_op(reps * 256, 256, |i| {
            let (k, kind, con) = &requests[i % requests.len()];
            std::hint::black_box(cpq_service::plan(&inputs, *k, *kind, con));
        }),
    );
}
