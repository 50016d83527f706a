//! One benchmark for the K-CPQ stack.
//!
//! Each workload builds its data from `--seed`, serves it through the
//! public `CpqService` API, checks every answer, and prints its metrics.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced serial path, a tracing-off and a traced
//! service window, and the layer ledger, and prints the per-layer metrics.
//! The binary prints every metric it measured; `run.py` holds the list of
//! metrics `BENCHMARK.json` names and picks them from this output.
//!
//! ```text
//! kcpq-bench --workload <heap-resident|cold-disk|live-churn|rcp-scatter>
//!            --seed <n> --seconds <s> --trace <0|1> [--tiny]
//!            [--work-dir DIR] [--spans-dir DIR]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! with `null` for a value that is not a finite number.

mod common;
mod ledger;
mod live_wl;
mod rcp_wl;
mod static_wl;
mod trace;

use common::{Report, RunCfg};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["heap-resident", "cold-disk", "live-churn", "rcp-scatter"];

struct Args {
    workload: String,
    cfg: RunCfg,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut work = PathBuf::from(".bench_build/kcpq-work");
    let mut spans = PathBuf::from(".bench_build/kcpq-spans");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => seed = Some(parse::<u64>("--seed", &value("--seed")?)?),
            "--seconds" => seconds = Some(parse::<f64>("--seconds", &value("--seconds")?)?),
            "--trace" => trace = Some(parse::<u8>("--trace", &value("--trace")?)? != 0),
            "--tiny" => tiny = true,
            "--work-dir" => work = PathBuf::from(value("--work-dir")?),
            "--spans-dir" => spans = PathBuf::from(value("--spans-dir")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    // Each process gets its own scratch directory.
    let work = work.join(format!("{}-{}", workload, std::process::id()));
    Ok(Args {
        cfg: RunCfg {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            tiny,
            work,
            spans,
        },
        workload,
    })
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got {v:?}"))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    eprintln!(
        "kcpq-bench: workload {} seed {} for {}s, trace {}{}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.tiny { " (tiny)" } else { "" }
    );
    let mut r: Report = match args.workload.as_str() {
        "heap-resident" => static_wl::run(cfg, false),
        "cold-disk" => static_wl::run(cfg, true),
        "live-churn" => live_wl::run(cfg),
        _ => rcp_wl::run(cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    r.set("peak_rss_end_mb", common::peak_rss_mb(), "MB");
    r.set("failed_frac", r.failed as f64 / r.attempted as f64, "frac");

    for line in &r.tables {
        println!("{line}");
    }
    for p in &r.problems {
        println!("# CHECK FAILED: {p}");
    }
    let run = if cfg.trace { "traced" } else { "untraced" };
    println!("# metrics of {} ({run} run)", args.workload);
    for (name, (v, unit)) in &r.metrics {
        println!("{name:<44} {v:>16.6} {unit}");
    }
    let counts: Vec<String> = r
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("# counts {{{}}}", counts.join(", "));
    println!("# inputs {:016x}", r.inputs);

    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
