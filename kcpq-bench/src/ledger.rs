//! The layer ledger: ns/op of single public calls, replayed on the
//! workload's own inputs, reported as median and quartiles over batches.

use std::hint::black_box;
use std::time::Instant;

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

pub fn summarize(mut xs: Vec<f64>) -> Summary {
    xs.sort_by(f64::total_cmp);
    Summary {
        median: percentile_sorted(&xs, 0.5),
        q1: percentile_sorted(&xs, 0.25),
        q3: percentile_sorted(&xs, 0.75),
        n: xs.len(),
    }
}

/// Times `ops` calls of `f(i)` in batches of `batch`; one ns/op sample
/// per batch.
pub fn per_op(ops: usize, batch: usize, mut f: impl FnMut(usize)) -> Summary {
    let batch = batch.max(1);
    let mut samples = Vec::with_capacity(ops / batch + 1);
    let mut i = 0;
    while i < ops {
        let n = batch.min(ops - i);
        let t = Instant::now();
        for j in i..i + n {
            f(black_box(j));
        }
        samples.push(t.elapsed().as_nanos() as f64 / n as f64);
        i += n;
    }
    summarize(samples)
}

/// One ledger row: a public call, its unit, and its timing.
#[derive(Debug, Clone)]
pub struct Row {
    pub layer: &'static str,
    pub call: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// The ledger of one workload, printed as a phase table.
#[derive(Debug, Default)]
pub struct Ledger {
    pub rows: Vec<Row>,
}

impl Ledger {
    pub fn add(
        &mut self,
        layer: &'static str,
        call: &'static str,
        metric: &'static str,
        unit: &'static str,
        summary: Summary,
    ) {
        self.rows.push(Row {
            layer,
            call,
            metric,
            unit,
            summary,
        });
    }

    pub fn median_of(&self, metric: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.summary.median)
    }

    pub fn table(&self) -> Vec<String> {
        let mut out = vec![format!(
            "{:<9} {:<34} {:>12} {:>12} {:>12} {:>8}  unit",
            "layer", "call", "median", "q1", "q3", "samples"
        )];
        for r in &self.rows {
            out.push(format!(
                "{:<9} {:<34} {:>12.1} {:>12.1} {:>12.1} {:>8}  {}",
                r.layer, r.call, r.summary.median, r.summary.q1, r.summary.q3, r.summary.n, r.unit
            ));
        }
        out
    }
}
