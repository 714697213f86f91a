//! The Prom benchmark: end-to-end and per-layer metrics of the
//! deployment-time judge on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk-judge|serve-casemix|online-recalibrate|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` before timing starts. With
//! `--trace 0` the run measures the end-to-end metrics; with `--trace 1`
//! it records spans around the benchmark's calls into each layer and
//! reports the per-layer metrics plus the tracing overhead. Every run
//! checks the program's outputs and exits non-zero when a check fails.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Results (stamped with the host) and spans are written under
//! `$CARGO_TARGET_DIR/perfbench-out/` (default `perfbench/target/`).
//! See `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod bulk;
mod closed;
mod fixtures;
mod layers;
mod online;
mod serve;
mod speed;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::Instant;

use trace::Tracer;
use util::{host_stamp, json_str, peak_rss_mb, Metric, Outcome};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["bulk-judge", "serve-casemix", "online-recalibrate"];

/// The metrics every untraced run reports (`end_to_end` in BENCHMARK.json).
const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "throughput_sps", "latency_p50_ms"];

/// The metrics every traced run reports (`per_layer` in BENCHMARK.json).
const PER_LAYER: [&str; 26] = [
    "scoring.distance_ns_per_sample",
    "scoring.select_ns_per_sample",
    "scoring.pvalue_ns_per_sample",
    "scoring.distances_per_sample",
    "scoring.kept_per_sample",
    "committee.vote_ns_per_sample",
    "committee.flatten_ns_per_sample",
    "predictor.judge_ns_per_sample",
    "predictor.unattributed_ns_per_sample",
    "predictor.allocs_per_sample",
    "incremental.select_ns_per_window",
    "naive_cp.judge_ns_per_sample",
    "calibration.absorb_ns_per_record",
    "calibration.replace_ns_per_record",
    "calibration.evict_ns_per_record",
    "pool.map_ns_per_sample",
    "pool.busy_ratio",
    "pool.jobs",
    "pipeline.ingest_ns_per_sample",
    "pipeline.window_ns",
    "pipeline.window_wait_ms_p50",
    "pipeline.window_judge_ms_p50",
    "pipeline.relabel_selected",
    "pipeline.calibration_size_final",
    "alloc.per_sample",
    "trace.overhead_ratio",
];

const USAGE: &str =
    "usage: perfbench --workload <bulk-judge|serve-casemix|online-recalibrate|all> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("{flag}: `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Appends the end-to-end metrics a workload measured (peak RSS is added
/// when the run ends).
pub fn end_to_end(out: &mut Outcome, setup_s: f64, throughput_sps: f64, latency_p50_ms: f64) {
    out.end_to_end.extend([
        Metric { name: "setup_s", value: setup_s, unit: "s" },
        Metric { name: "throughput_sps", value: throughput_sps, unit: "1/s" },
        Metric { name: "latency_p50_ms", value: latency_p50_ms, unit: "ms" },
    ]);
}

/// Appends the detection quality of the Prom committee over a run (printed,
/// not gated: it depends on the seed's inputs).
pub fn quality_metrics(out: &mut Outcome, cell: &prom_eval::drift::CellResult) {
    out.extra.extend([
        Metric { name: "drift_f1", value: cell.quality.f1, unit: "ratio" },
        Metric { name: "clean_reject_rate", value: cell.clean_reject_rate, unit: "ratio" },
        Metric {
            name: "detection_lag_windows",
            value: cell.lag.mean().unwrap_or(f64::NAN),
            unit: "windows",
        },
    ]);
}

/// The pipeline-level per-layer figures of a traced run.
pub struct PipelineLayer {
    pub ingest_ns_per_sample: f64,
    pub window_ns: f64,
    pub wait_ms_p50: f64,
    pub judge_ms_p50: f64,
    pub relabel_selected: usize,
    pub calibration_size_final: usize,
    pub allocs_per_sample: f64,
    pub overhead_ratio: f64,
}

pub fn pipeline_layer(out: &mut Outcome, p: &PipelineLayer) {
    out.per_layer.extend([
        Metric { name: "pipeline.ingest_ns_per_sample", value: p.ingest_ns_per_sample, unit: "ns" },
        Metric { name: "pipeline.window_ns", value: p.window_ns, unit: "ns" },
        Metric { name: "pipeline.window_wait_ms_p50", value: p.wait_ms_p50, unit: "ms" },
        Metric { name: "pipeline.window_judge_ms_p50", value: p.judge_ms_p50, unit: "ms" },
        Metric {
            name: "pipeline.relabel_selected",
            value: p.relabel_selected as f64,
            unit: "count",
        },
        Metric {
            name: "pipeline.calibration_size_final",
            value: p.calibration_size_final as f64,
            unit: "count",
        },
        Metric { name: "alloc.per_sample", value: p.allocs_per_sample, unit: "count" },
        Metric { name: "trace.overhead_ratio", value: p.overhead_ratio, unit: "ratio" },
    ]);
}

/// Where results and spans go: inside the build directory, so a run
/// writes nothing else into the checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-out")
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(m.name), m.value, json_str(m.unit))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Runs one workload and prints its report. Returns the contract line.
fn run_one(workload: &str, args: &Args, host: &str) -> (bool, String) {
    let started = Instant::now();
    let mut tracer = Tracer::new(args.trace);
    let mut out = match workload {
        "bulk-judge" => bulk::run(args.seed, args.seconds, &mut tracer),
        "serve-casemix" => serve::run(args.seed, args.seconds, &mut tracer),
        "online-recalibrate" => online::run(args.seed, args.seconds, &mut tracer),
        other => unreachable!("workload `{other}` was validated"),
    };
    out.end_to_end.push(Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MB" });

    let (names, measured): (&[&str], &[Metric]) =
        if args.trace { (&PER_LAYER, &out.per_layer) } else { (&END_TO_END, &out.end_to_end) };
    let mut contract = Vec::with_capacity(names.len());
    for name in names {
        match measured.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => contract.push(m),
            Some(m) => out.failures.push(format!("{name} is not a finite number ({})", m.value)),
            None => out.failures.push(format!("{name} was not measured")),
        }
    }

    println!(
        "== {workload} (seed {}, {} s, trace {})",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let sections =
        [("end-to-end", &out.end_to_end), ("per-layer", &out.per_layer), ("workload", &out.extra)];
    for (title, list) in sections {
        for m in list.iter() {
            println!("{title:>10}  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    for (name, t) in tracer.summary() {
        println!(
            "{:>10}  {name:<40} {:>9} spans {:>12.3} ms total {:>12.3} ms self",
            "span",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    println!(
        "{:>10}  attempted {} failed {} in {:.1} s",
        "run",
        out.attempted,
        out.failed,
        started.elapsed().as_secs_f64()
    );
    for failure in &out.failures {
        eprintln!("perfbench: check failed: {failure}");
    }

    let dir = out_dir();
    let tag = format!("{workload}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let header = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"host\":{host}}}",
        json_str(workload),
        args.seed,
        args.seconds
    );
    if args.trace {
        let path = dir.join(format!("spans-{tag}.jsonl"));
        if let Err(err) = tracer.write_jsonl(&path, &header) {
            eprintln!("perfbench: cannot write {}: {err}", path.display());
        }
    }
    let all: Vec<&Metric> = out.end_to_end.iter().chain(&out.per_layer).chain(&out.extra).collect();
    let result = format!(
        "{{\"run\":{header},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}\n",
        out.failures.is_empty(),
        out.attempted,
        out.failed,
        metrics_json(&all)
    );
    let path = dir.join(format!("result-{tag}.json"));
    if let Err(err) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, result)) {
        eprintln!("perfbench: cannot write {}: {err}", path.display());
    }

    let correct = out.failures.is_empty();
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&contract)
    );
    (correct, line)
}

fn main() {
    let args = parse_args().unwrap_or_else(|err| {
        eprintln!("perfbench: {err}\n{USAGE}");
        std::process::exit(2);
    });
    let host = host_stamp();
    println!("host {host}");
    let workloads: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut all_correct = true;
    let mut last = String::new();
    for workload in workloads {
        let (correct, line) = run_one(workload, &args, &host);
        all_correct &= correct;
        last = line;
    }
    if args.workload == "all" {
        // Several workloads have no single contract line: report the
        // verdict only.
        last = format!("{{\"correct\":{all_correct}}}");
    }
    println!("{last}");
    if !all_correct {
        std::process::exit(1);
    }
}
