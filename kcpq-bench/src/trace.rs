//! The traced run's instruments: an in-memory span recorder, and two
//! decorators over the storage crate's public `PageFile` and
//! `ReplacementPolicy` traits that time and count every physical read and
//! every `on_hit` / `evict`.
//!
//! Tracing is switched by one global flag. The untraced run never builds
//! the decorators; the traced run builds them and turns the flag on only
//! around the windows it measures, so the same service can also run a
//! tracing-off window for the overhead comparison.

use cpq_storage::{BufferPool, IoStats, PageFile, PageId, ReplacementPolicy, StorageResult};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static CUR_REQ: AtomicU64 = AtomicU64::new(0);
static CUR_PARENT: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static STATE: Mutex<Recorded> = Mutex::new(Recorded {
    spans: Vec::new(),
    aggs: Vec::new(),
    dropped: 0,
});

/// Spans kept in memory; later spans are counted but not stored.
const MAX_SPANS: usize = 200_000;
/// Samples kept per timing series (file reads, policy op log).
const MAX_SAMPLES: usize = 1 << 20;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Time spent in many short calls under one parent span, recorded as a
/// total (timing each call as its own span would cost more than the call).
#[derive(Debug, Clone)]
pub struct Aggregate {
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
}

struct Recorded {
    spans: Vec<Span>,
    aggs: Vec<Aggregate>,
    dropped: u64,
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// Starts a new request: later spans carry its id.
pub fn begin_request(req: u64) {
    CUR_REQ.store(req, Ordering::Relaxed);
    CUR_PARENT.store(0, Ordering::Relaxed);
}

fn push_span(span: Span) {
    let mut st = STATE.lock().expect("span recorder poisoned");
    if st.spans.len() < MAX_SPANS {
        st.spans.push(span);
    } else {
        st.dropped += 1;
    }
}

/// Runs `f` inside a span named `name`, nested under the current parent.
/// A no-op wrapper while tracing is off.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CUR_PARENT.swap(id, Ordering::Relaxed);
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    CUR_PARENT.store(parent, Ordering::Relaxed);
    push_span(Span {
        id,
        parent,
        req: CUR_REQ.load(Ordering::Relaxed),
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Records a span whose interval was measured elsewhere (a client thread
/// of the service path), at top level under request `req`.
pub fn record_span(name: &'static str, req: u64, start_ns: u64, end_ns: u64) -> u64 {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push_span(Span {
        id,
        parent: 0,
        req,
        name,
        start_ns,
        end_ns,
    });
    id
}

/// Records an aggregate child of span `parent`.
pub fn record_aggregate(parent: u64, req: u64, name: &'static str, count: u64, total_ns: u64) {
    if count == 0 && total_ns == 0 {
        return;
    }
    STATE
        .lock()
        .expect("span recorder poisoned")
        .aggs
        .push(Aggregate {
            parent,
            req,
            name,
            count,
            total_ns,
        });
}

/// The id of the innermost open span (0 at top level).
pub fn current_parent() -> u64 {
    CUR_PARENT.load(Ordering::Relaxed)
}

pub fn current_request() -> u64 {
    CUR_REQ.load(Ordering::Relaxed)
}

/// Takes everything recorded so far.
pub fn drain() -> (Vec<Span>, Vec<Aggregate>, u64) {
    let mut st = STATE.lock().expect("span recorder poisoned");
    let spans = std::mem::take(&mut st.spans);
    let aggs = std::mem::take(&mut st.aggs);
    let dropped = std::mem::replace(&mut st.dropped, 0);
    (spans, aggs, dropped)
}

/// Writes spans and aggregates as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span], aggs: &[Aggregate]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
        )?;
    }
    for a in aggs {
        writeln!(
            out,
            "{{\"aggregate\":\"{}\",\"parent\":{},\"req\":{},\"count\":{},\"total_ns\":{}}}",
            a.name, a.parent, a.req, a.count, a.total_ns
        )?;
    }
    out.flush()
}

/// Totals the storage decorators accumulate while tracing is on.
#[derive(Debug, Default)]
pub struct StorageCounters {
    pub file_calls: AtomicU64,
    pub file_pages: AtomicU64,
    pub file_ns: AtomicU64,
    pub hits: AtomicU64,
    pub hit_ns: AtomicU64,
    pub evicts: AtomicU64,
    pub evict_ns: AtomicU64,
}

/// A plain copy of [`StorageCounters`], for before/after deltas.
#[derive(Debug, Default, Clone, Copy)]
pub struct StorageTotals {
    pub file_calls: u64,
    pub file_pages: u64,
    pub file_ns: u64,
    pub hits: u64,
    pub hit_ns: u64,
    pub evicts: u64,
    pub evict_ns: u64,
}

impl StorageTotals {
    pub fn since(&self, before: &StorageTotals) -> StorageTotals {
        StorageTotals {
            file_calls: self.file_calls - before.file_calls,
            file_pages: self.file_pages - before.file_pages,
            file_ns: self.file_ns - before.file_ns,
            hits: self.hits - before.hits,
            hit_ns: self.hit_ns - before.hit_ns,
            evicts: self.evicts - before.evicts,
            evict_ns: self.evict_ns - before.evict_ns,
        }
    }
}

/// Counters and samples shared by every decorator of one workload.
#[derive(Debug, Default)]
pub struct StorageProbe {
    pub counters: StorageCounters,
    /// Per-call physical read time, nanoseconds per page.
    pub read_samples: Mutex<Vec<u64>>,
    /// Every policy call in order, for the ledger's replay: the op in the
    /// top two bits, the frame below.
    pub policy_log: Mutex<Vec<u32>>,
    /// Largest frame capacity any decorated policy was sized to.
    pub policy_capacity: AtomicU64,
}

pub const OP_HIT: u32 = 0;
pub const OP_INSERT: u32 = 1;
pub const OP_EVICT: u32 = 2;
pub const OP_REMOVE: u32 = 3;

impl StorageProbe {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub fn totals(&self) -> StorageTotals {
        let c = &self.counters;
        StorageTotals {
            file_calls: c.file_calls.load(Ordering::Relaxed),
            file_pages: c.file_pages.load(Ordering::Relaxed),
            file_ns: c.file_ns.load(Ordering::Relaxed),
            hits: c.hits.load(Ordering::Relaxed),
            hit_ns: c.hit_ns.load(Ordering::Relaxed),
            evicts: c.evicts.load(Ordering::Relaxed),
            evict_ns: c.evict_ns.load(Ordering::Relaxed),
        }
    }

    fn log_policy(&self, op: u32, frame: usize) {
        let mut log = self.policy_log.lock().expect("policy log poisoned");
        if log.len() < MAX_SAMPLES {
            log.push(op << 30 | (frame as u32 & 0x3FFF_FFFF));
        }
    }

    fn note_read(&self, pages: u64, ns: u64) {
        let c = &self.counters;
        c.file_calls.fetch_add(1, Ordering::Relaxed);
        c.file_pages.fetch_add(pages, Ordering::Relaxed);
        c.file_ns.fetch_add(ns, Ordering::Relaxed);
        let mut s = self.read_samples.lock().expect("read samples poisoned");
        if s.len() < MAX_SAMPLES {
            s.push(ns / pages.max(1));
        }
    }
}

/// A `PageFile` that times and counts every physical read of `inner`.
pub struct TracedFile {
    inner: Box<dyn PageFile>,
    probe: Arc<StorageProbe>,
}

impl TracedFile {
    pub fn new(inner: Box<dyn PageFile>, probe: Arc<StorageProbe>) -> Self {
        TracedFile { inner, probe }
    }
}

impl PageFile for TracedFile {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }
    fn allocate(&mut self) -> StorageResult<PageId> {
        self.inner.allocate()
    }
    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        if !enabled() {
            return self.inner.read(id, buf);
        }
        let t = Instant::now();
        let r = self.inner.read(id, buf);
        self.probe.note_read(1, t.elapsed().as_nanos() as u64);
        r
    }
    fn read_run(&self, first: PageId, n: usize, buf: &mut [u8]) -> StorageResult<()> {
        if !enabled() {
            return self.inner.read_run(first, n, buf);
        }
        let t = Instant::now();
        let r = self.inner.read_run(first, n, buf);
        self.probe
            .note_read(n as u64, t.elapsed().as_nanos() as u64);
        r
    }
    fn write(&mut self, id: PageId, data: &[u8]) -> StorageResult<()> {
        self.inner.write(id, data)
    }
    fn free(&mut self, id: PageId) -> StorageResult<()> {
        self.inner.free(id)
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn sync(&mut self) -> StorageResult<()> {
        self.inner.sync()
    }
}

/// A `ReplacementPolicy` that times `on_hit` and `evict` of `inner` and
/// logs every call for the ledger's replay.
pub struct TracedPolicy {
    inner: Box<dyn ReplacementPolicy>,
    probe: Arc<StorageProbe>,
}

impl TracedPolicy {
    pub fn new(inner: Box<dyn ReplacementPolicy>, probe: Arc<StorageProbe>) -> Self {
        TracedPolicy { inner, probe }
    }
}

impl ReplacementPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn resize(&mut self, capacity: usize) {
        self.probe
            .policy_capacity
            .fetch_max(capacity as u64, Ordering::Relaxed);
        self.inner.resize(capacity)
    }
    fn on_hit(&mut self, frame: usize) {
        if !enabled() {
            return self.inner.on_hit(frame);
        }
        let t = Instant::now();
        self.inner.on_hit(frame);
        let ns = t.elapsed().as_nanos() as u64;
        let c = &self.probe.counters;
        c.hits.fetch_add(1, Ordering::Relaxed);
        c.hit_ns.fetch_add(ns, Ordering::Relaxed);
        self.probe.log_policy(OP_HIT, frame);
    }
    fn on_insert(&mut self, frame: usize) {
        self.inner.on_insert(frame);
        if enabled() {
            self.probe.log_policy(OP_INSERT, frame);
        }
    }
    fn evict(&mut self, pinned: &[bool]) -> usize {
        if !enabled() {
            return self.inner.evict(pinned);
        }
        let t = Instant::now();
        let victim = self.inner.evict(pinned);
        let ns = t.elapsed().as_nanos() as u64;
        let c = &self.probe.counters;
        c.evicts.fetch_add(1, Ordering::Relaxed);
        c.evict_ns.fetch_add(ns, Ordering::Relaxed);
        self.probe.log_policy(OP_EVICT, victim);
        victim
    }
    fn on_remove(&mut self, frame: usize) {
        self.inner.on_remove(frame);
        if enabled() {
            self.probe.log_policy(OP_REMOVE, frame);
        }
    }
}

/// Runs one engine call as a span named `name` and records its
/// children: the probe's candidate-generation and leaf-scan phases, and
/// the storage time meanwhile. On a scheduled pool (`pools` with an I/O
/// scheduler) the engine thread blocks on the scheduler while an I/O
/// thread reads, so the scheduler's demand stall is the storage child;
/// otherwise the file decorator's read time is. Returns the call's result
/// and the span's duration with the covered (child) time.
pub fn exec_span<R>(
    name: &'static str,
    probe: Option<&StorageProbe>,
    pools: &[&BufferPool],
    f: impl FnOnce() -> (R, u64, u64, u64, u64),
) -> (R, ExecTiming) {
    let stall = || {
        pools
            .iter()
            .filter_map(|p| p.sched_stats())
            .fold((0, 0), |(n, ns), s| {
                (n + s.demand_reads, ns + s.demand_stall_ns)
            })
    };
    let before = probe.map(|p| p.totals()).unwrap_or_default();
    let stall_before = stall();
    let req = current_request();
    let start = now_ns();
    let mut inner_id = 0;
    let (out, gen_n, gen_ns, scan_n, scan_ns) = span(name, || {
        inner_id = current_parent();
        f()
    });
    let exec_ns = now_ns() - start;
    let d = probe.map(|p| p.totals().since(&before)).unwrap_or_default();
    let (reads, stall_ns) = {
        let after = stall();
        (after.0 - stall_before.0, after.1 - stall_before.1)
    };
    let (io_name, io_n, io_ns) = if stall_ns > 0 {
        ("storage.sched.stall", reads, stall_ns)
    } else {
        ("storage.file.read", d.file_calls, d.file_ns)
    };
    record_aggregate(inner_id, req, "core.gen", gen_n, gen_ns);
    record_aggregate(inner_id, req, "core.scan", scan_n, scan_ns);
    record_aggregate(inner_id, req, io_name, io_n, io_ns);
    let policy_ns = d.hit_ns + d.evict_ns;
    record_aggregate(
        inner_id,
        req,
        "storage.policy",
        d.hits + d.evicts,
        policy_ns,
    );
    let timing = ExecTiming {
        exec_ns,
        gen_ns,
        scan_ns,
        storage_ns: io_ns + policy_ns,
    };
    (out, timing)
}

/// Where one traced engine call spent its time.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecTiming {
    pub exec_ns: u64,
    pub gen_ns: u64,
    pub scan_ns: u64,
    pub storage_ns: u64,
}

impl ExecTiming {
    /// Exec time no child span or profile phase covers.
    pub fn self_ns(&self) -> u64 {
        self.exec_ns
            .saturating_sub(self.gen_ns + self.scan_ns + self.storage_ns)
    }
}

/// Self time per layer (the name before the first `.`), in nanoseconds:
/// each span's duration minus its child spans and aggregates.
pub fn layer_self_ns(spans: &[Span], aggs: &[Aggregate]) -> Vec<(String, u64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut child: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    for a in aggs {
        if a.parent != 0 {
            *child.entry(a.parent).or_default() += a.total_ns;
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = child.get(&s.id).copied().unwrap_or(0);
        *out.entry(layer_of(s.name)).or_default() += dur.saturating_sub(covered);
    }
    for a in aggs {
        *out.entry(layer_of(a.name)).or_default() += a.total_ns;
    }
    out.into_iter().collect()
}

fn layer_of(name: &str) -> String {
    name.split('.').next().unwrap_or(name).to_string()
}
