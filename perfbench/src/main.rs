//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload farm_run --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Prints a human-readable report, then as
//! its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `perfbench/README.md`.

mod exec;
mod gen;
mod layers;
mod run;
mod spans;
mod stats;

use run::{Params, Workload};
use stats::{valid_name, Metric};
use std::path::{Path, PathBuf};

/// Where traces are written and evicted sessions are parked, relative to
/// the repository root the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 20.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; expected one of {names:?}")
    })?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn print_report(args: &Args, clients: usize, out: &run::Outcome) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} clients={clients} git_rev={} profile={} peak_rss_source=/proc/self/status:VmHWM",
        std::thread::available_parallelism().map_or(0, usize::from),
        git_rev(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "{:<40} {:>16} {:<14} {:<7} {:>7}",
        "metric", "value", "unit", "better", "n"
    );
    for m in &out.metrics {
        println!(
            "{:<40} {:>16.6} {:<14} {:<7} {:>7}",
            m.name,
            m.value,
            m.unit,
            m.better.word(),
            m.samples
        );
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<40} {:>16.6} {:<14} {:<7} {:>7}",
        "fail_ratio", fail_ratio, "ratio", "lower", out.attempted
    );
    for f in out.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
}

fn result_line(out: &run::Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m: &Metric| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main_inner() -> Result<(), String> {
    let args = parse_args()?;
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let clients = args.workload.clients(workers);
    let work_dir = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
        clients,
        workers,
    };
    let result = run::run(args.workload, &params);
    let _ = std::fs::remove_dir_all(&work_dir);
    let out = result?;

    for m in &out.metrics {
        if !valid_name(&m.name) || !m.value.is_finite() {
            return Err(format!(
                "metric {} = {} cannot be reported",
                m.name, m.value
            ));
        }
    }
    print_report(&args, clients, &out);
    if args.trace {
        let recorders: Vec<&spans::Spans> = out.spans.iter().collect();
        let path = Path::new(OUT_DIR).join(format!(
            "perfbench-{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ));
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        std::fs::write(&path, spans::chrome_trace(&recorders).to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }
    println!("{}", result_line(&out));
    Ok(())
}

fn main() {
    if let Err(e) = main_inner() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
