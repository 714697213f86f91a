//! Production-shaped load harness: replays parameterized mixed-workload
//! traffic through [`ServingFrontEnd::serve_multi`] with live metrics.
//!
//! Two case studies (heterogeneous mapping + thread coarsening) are fitted
//! once, then served *concurrently* — each through its own front-end with a
//! hot detector (the full Prom committee) and a cold one (naive CP) judging
//! the same stream. Producers submit in open-loop bursts and draw each
//! sample from the in-distribution or the drifted pool according to a
//! drift *schedule* (`--drift-schedule abrupt|gradual|recurring`, backed by
//! the seeded `prom_eval::drift` generator), so the harness exercises
//! exactly the regime the serving layer is built for: bursty arrivals, a
//! bounded admission queue that sheds, and detectors that must detect —
//! and on recurring schedules *re*-detect — drift while traffic runs.
//!
//! The hot detector's detection lag (windows from a scheduled onset to the
//! first majority-reject window) is measured per workload and exported as
//! the `prom_pipeline_detection_lag_windows` gauge, so it lands in the
//! periodic JSONL snapshots and the final Prometheus dump alongside the
//! serving counters.
//!
//! While traffic runs, a snapshot thread appends one registry JSONL line per
//! interval (`--jsonl`), and the final state is dumped as Prometheus text.
//! The headline scalars — mean ns/sample and merged p99 judgement latency —
//! go through [`criterion::emit_gate_metric`] so `scripts/perf_gate.sh`
//! regression-tests serving throughput and tail latency alongside the bench
//! medians.
//!
//! Run with:
//! `cargo run --release -p prom-bench --bin loadgen -- [--samples N] ...`

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::emit_gate_metric;
use prom_baselines::NaiveCp;
use prom_bench::header;
use prom_core::detector::Sample;
use prom_core::pipeline::PipelineConfig;
use prom_core::serving::{ServingConfig, ServingFrontEnd, ServingHandle, SubmitError};
use prom_core::{
    DetectionLagTracker, LatencyHistogram, MetricsRegistry, MetricsSink, DETECTION_LAG_GAUGE,
    DETECTION_LAG_HELP,
};
use prom_eval::drift::Schedule;
use prom_eval::registry::{models_for, CaseId};
use prom_eval::scenario::{deployment_samples, fit_scenario};
use prom_eval::suite::SuiteScale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USAGE: &str = "usage: loadgen [flags]

  --samples <n>       total samples across all workloads (default 1000000)
  --producers <n>     producer threads per workload (default 4)
  --queue <n>         admission queue capacity (default 256)
  --window <n>        pipeline window size (default 1024)
  --drift-schedule <s>  drift timeline: abrupt | gradual | recurring
                      (default abrupt)
  --drift-at <f64>    stream fraction where drift starts — the abrupt
                      switch point or the gradual ramp start (default 0.5)
  --drift-len <f64>   gradual ramp length as a stream fraction
                      (default 0.25)
  --drift-period <f64>  recurring period as a stream fraction
                      (default 0.25)
  --drift-duty <f64>  drifted tail fraction of each recurring period,
                      in (0, 1] (default 0.375)
  --burst <n>         open-loop burst size, 0 = no pacing (default 512)
  --jsonl <path>      append periodic registry snapshots as JSONL lines
  --snapshot-ms <n>   snapshot interval in milliseconds (default 200)
  --quick             smoke-run scale (small fits; default samples 40000)
  --seed <n>          base seed for fitting (default 0)";

/// The drift timeline shape producers follow (`--drift-schedule`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum ScheduleKind {
    Abrupt,
    Gradual,
    Recurring,
}

impl ScheduleKind {
    fn parse(raw: &str) -> Result<Self, String> {
        match raw {
            "abrupt" => Ok(Self::Abrupt),
            "gradual" => Ok(Self::Gradual),
            "recurring" => Ok(Self::Recurring),
            other => {
                Err(format!("--drift-schedule must be abrupt, gradual or recurring, got `{other}`"))
            }
        }
    }
}

struct Args {
    samples: usize,
    producers: usize,
    queue: usize,
    window: usize,
    schedule: ScheduleKind,
    drift_at: f64,
    drift_len: f64,
    drift_period: f64,
    drift_duty: f64,
    burst: usize,
    jsonl: Option<String>,
    snapshot_ms: u64,
    quick: bool,
    seed: u64,
}

impl Args {
    /// The fraction-space schedule resolved to `n` concrete positions
    /// (producer-local or case-global; both scale linearly).
    fn schedule_over(&self, n: usize) -> Schedule {
        let at = (n as f64 * self.drift_at).floor() as usize;
        match self.schedule {
            ScheduleKind::Abrupt => Schedule::Abrupt { at },
            ScheduleKind::Gradual => Schedule::Gradual {
                start: at,
                len: ((n as f64 * self.drift_len).floor() as usize).max(1),
            },
            ScheduleKind::Recurring => Schedule::Recurring {
                period: ((n as f64 * self.drift_period).floor() as usize).max(1),
                duty: self.drift_duty,
            },
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        samples: 0, // resolved after --quick is known
        producers: 4,
        queue: 256,
        window: 1024,
        schedule: ScheduleKind::Abrupt,
        drift_at: 0.5,
        drift_len: 0.25,
        drift_period: 0.25,
        drift_duty: 0.375,
        burst: 512,
        jsonl: None,
        snapshot_ms: 200,
        quick: false,
        seed: 0,
    };
    let mut samples: Option<usize> = None;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    let value = |v: Option<&String>, flag: &str| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--samples" => samples = Some(parse(&value(iter.next(), arg)?, arg)?),
            "--producers" => args.producers = parse(&value(iter.next(), arg)?, arg)?,
            "--queue" => args.queue = parse(&value(iter.next(), arg)?, arg)?,
            "--window" => args.window = parse(&value(iter.next(), arg)?, arg)?,
            "--drift-schedule" => args.schedule = ScheduleKind::parse(&value(iter.next(), arg)?)?,
            "--drift-at" => args.drift_at = parse(&value(iter.next(), arg)?, arg)?,
            "--drift-len" => args.drift_len = parse(&value(iter.next(), arg)?, arg)?,
            "--drift-period" => args.drift_period = parse(&value(iter.next(), arg)?, arg)?,
            "--drift-duty" => args.drift_duty = parse(&value(iter.next(), arg)?, arg)?,
            "--burst" => args.burst = parse(&value(iter.next(), arg)?, arg)?,
            "--jsonl" => args.jsonl = Some(value(iter.next(), arg)?),
            "--snapshot-ms" => args.snapshot_ms = parse(&value(iter.next(), arg)?, arg)?,
            "--quick" => args.quick = true,
            "--seed" => args.seed = parse(&value(iter.next(), arg)?, arg)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    args.samples = samples.unwrap_or(if args.quick { 40_000 } else { 1_000_000 });
    if args.producers == 0 || args.queue == 0 || args.window == 0 {
        return Err("--producers, --queue and --window must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&args.drift_at) {
        return Err(format!("--drift-at must be in [0, 1], got {}", args.drift_at));
    }
    for (flag, v) in [("--drift-len", args.drift_len), ("--drift-period", args.drift_period)] {
        if !(v > 0.0 && v <= 1.0) {
            return Err(format!("{flag} must be in (0, 1], got {v}"));
        }
    }
    if !(args.drift_duty > 0.0 && args.drift_duty <= 1.0) {
        return Err(format!("--drift-duty must be in (0, 1], got {}", args.drift_duty));
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

/// One fitted workload: sample pools plus hot and cold detectors.
struct Workload {
    name: &'static str,
    iid: Vec<Sample>,
    drift: Vec<Sample>,
    hot: prom_core::PromClassifier,
    cold: NaiveCp,
}

fn fit_workload(case: CaseId, name: &'static str, scale: &SuiteScale) -> Workload {
    let model = models_for(case)[0];
    let fitted = fit_scenario(&scale.scenario(case, model));
    Workload {
        name,
        iid: deployment_samples(&fitted.model, &fitted.data.iid_test),
        drift: deployment_samples(&fitted.model, &fitted.data.drift_test),
        hot: fitted.prom,
        cold: NaiveCp::new(&fitted.records, 0.1),
    }
}

/// One producer's open-loop stream: each position draws from the i.i.d.
/// or the drifted pool with probability equal to the schedule's intensity
/// there (an abrupt schedule reproduces the classic hard switch; a
/// gradual ramp mixes the pools proportionally; recurring alternates).
/// Submits in bursts with a yield between bursts, shedding (and
/// retrying) on a full queue.
fn produce(
    handle: &ServingHandle<'_>,
    wl: &Workload,
    base: usize,
    count: usize,
    schedule: &Schedule,
    seed: u64,
    burst: usize,
) -> u64 {
    let mut sheds = 0u64;
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..count {
        let t = schedule.intensity(i);
        let drifted = t > 0.0 && (t >= 1.0 || rng.gen::<f64>() < t);
        let pool = if drifted { &wl.drift } else { &wl.iid };
        let mut sample = pool[(base + i) % pool.len()].clone();
        loop {
            match handle.try_submit(sample) {
                Ok(()) => break,
                Err(SubmitError::Full(back)) => {
                    sheds += 1;
                    sample = back;
                    std::thread::yield_now();
                }
                Err(SubmitError::Closed(_)) => unreachable!("collator alive until we return"),
            }
        }
        if burst > 0 && (i + 1) % burst == 0 {
            std::thread::yield_now();
        }
    }
    sheds
}

struct CaseOutcome {
    name: &'static str,
    admitted: u64,
    sheds: u64,
    judged: usize,
    hot_rejects: usize,
    cold_rejects: usize,
    /// Hot-detector lags (windows) at each detected scheduled onset.
    lags: Vec<usize>,
    /// Scheduled drift onsets in the case's window stream.
    onsets: usize,
    latency: LatencyHistogram,
    elapsed: Duration,
}

/// Serves one workload's full stream through its own front-end, all
/// producers racing, and reduces the outcome to the report row —
/// including the hot detector's detection lag against the scheduled
/// onsets, mirrored into the workload's lag gauge.
fn serve_case(wl: &Workload, args: &Args, sink: MetricsSink) -> CaseOutcome {
    let per_producer = args.samples / 2 / args.producers;
    let schedule = args.schedule_over(per_producer);
    let lag_gauge = sink.gauge(DETECTION_LAG_GAUGE, DETECTION_LAG_HELP, &[]);
    let front = ServingFrontEnd::new(ServingConfig {
        pipeline: PipelineConfig { window: args.window, ..Default::default() },
        queue: args.queue,
        record_admitted: false,
        metrics: Some(sink),
    });
    let t0 = Instant::now();
    let (sheds, outcome) = front.serve_multi(vec![&wl.hot, &wl.cold], |handle| {
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..args.producers)
                .map(|p| {
                    let handle = handle.clone();
                    let schedule = &schedule;
                    s.spawn(move || {
                        produce(
                            &handle,
                            wl,
                            p * per_producer,
                            per_producer,
                            schedule,
                            args.seed ^ (0x9e37_79b9 + p as u64),
                            args.burst,
                        )
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("producer ok")).sum::<u64>()
        })
    });
    let elapsed = t0.elapsed();
    let mut rejects = [0usize; 2];
    for multi in &outcome.reports {
        for (d, report) in multi.reports.iter().enumerate() {
            rejects[d] += report.judgements.iter().filter(|j| !j.accepted).count();
        }
    }

    // Lag accounting: producers interleave roughly round-robin, so the
    // fraction-space schedule maps onto the admitted stream at case
    // scale. Window-level onsets are exact for the fractions' window
    // multiples and off by at most one window otherwise.
    let case_schedule = args.schedule_over(per_producer * args.producers);
    let mut onset_windows: Vec<usize> = case_schedule
        .onsets(per_producer * args.producers)
        .into_iter()
        .map(|pos| pos / args.window)
        .collect();
    onset_windows.dedup();
    let mut tracker = DetectionLagTracker::new(0.5).with_gauge(lag_gauge);
    let mut next = 0;
    for multi in &outcome.reports {
        while next < onset_windows.len() && onset_windows[next] <= multi.index {
            tracker.arm(onset_windows[next]);
            next += 1;
        }
        let hot = &multi.reports[0];
        tracker.observe(multi.index, hot.flagged.len(), hot.judgements.len());
    }

    CaseOutcome {
        name: wl.name,
        admitted: outcome.admitted,
        sheds,
        judged: outcome.judged,
        hot_rejects: rejects[0],
        cold_rejects: rejects[1],
        lags: tracker.lags().to_vec(),
        onsets: onset_windows.len(),
        latency: outcome.latency,
        elapsed,
    }
}

/// Appends one registry snapshot line per interval until `done`, plus a
/// final line after the traffic drains. Returns the number of lines.
fn snapshot_loop(
    registry: &MetricsRegistry,
    path: &str,
    interval: Duration,
    done: &AtomicBool,
) -> u64 {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|err| panic!("cannot open --jsonl {path}: {err}"));
    let mut lines = 0u64;
    loop {
        let finished = done.load(Ordering::Acquire);
        writeln!(file, "{}", registry.to_jsonl()).expect("snapshot write");
        lines += 1;
        if finished {
            return lines;
        }
        std::thread::sleep(interval);
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|err| {
        eprintln!("loadgen: {err}\n\n{USAGE}");
        std::process::exit(2);
    });
    let scale = if args.quick { SuiteScale::quick() } else { SuiteScale::default() };
    let scale = SuiteScale { seed: args.seed, ..scale };

    header("Load harness: mixed-workload serving with live metrics");
    let schedule_desc = match args.schedule {
        ScheduleKind::Abrupt => format!("abrupt at {:.0}%", 100.0 * args.drift_at),
        ScheduleKind::Gradual => format!(
            "gradual from {:.0}% over {:.0}%",
            100.0 * args.drift_at,
            100.0 * args.drift_len
        ),
        ScheduleKind::Recurring => format!(
            "recurring period {:.0}% duty {:.0}%",
            100.0 * args.drift_period,
            100.0 * args.drift_duty
        ),
    };
    println!(
        "{} samples total, {} producers/workload, queue {}, window {}, drift {}, burst {}\n",
        args.samples, args.producers, args.queue, args.window, schedule_desc, args.burst
    );

    let workloads = [
        fit_workload(CaseId::Devmap, "devmap", &scale),
        fit_workload(CaseId::Coarsening, "coarsening", &scale),
    ];
    let registry = Arc::new(MetricsRegistry::new());
    let done = AtomicBool::new(false);
    let snapshot_lines = AtomicU64::new(0);

    let t0 = Instant::now();
    let outcomes: Vec<CaseOutcome> = std::thread::scope(|s| {
        if let Some(path) = &args.jsonl {
            let registry = &registry;
            let done = &done;
            let lines = &snapshot_lines;
            let interval = Duration::from_millis(args.snapshot_ms);
            s.spawn(move || {
                lines.store(snapshot_loop(registry, path, interval, done), Ordering::Release);
            });
        }
        let threads: Vec<_> = workloads
            .iter()
            .map(|wl| {
                let sink = MetricsSink::new(Arc::clone(&registry)).with_label("workload", wl.name);
                s.spawn(|| serve_case(wl, &args, sink))
            })
            .collect();
        let outcomes = threads.into_iter().map(|t| t.join().expect("case ok")).collect();
        done.store(true, Ordering::Release);
        outcomes
    });
    let wall = t0.elapsed();

    println!(
        "{:<12} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "workload",
        "admitted",
        "shed",
        "p50",
        "p99",
        "p99.9",
        "hot rej",
        "cold rej",
        "lag",
        "ksamp/s"
    );
    let us = |ns: u64| {
        if ns >= 10_000_000 {
            format!("{:.1}ms", ns as f64 / 1e6)
        } else {
            format!("{:.1}us", ns as f64 / 1e3)
        }
    };
    let mut merged = LatencyHistogram::new();
    let mut total_judged = 0usize;
    for c in &outcomes {
        let summary = c.latency.summary();
        let rate = |r: usize| format!("{:.1}%", 100.0 * r as f64 / c.judged.max(1) as f64);
        let lag = if c.lags.is_empty() {
            format!("—/{}", c.onsets)
        } else {
            let mean = c.lags.iter().sum::<usize>() as f64 / c.lags.len() as f64;
            format!("{mean:.1}w×{}/{}", c.lags.len(), c.onsets)
        };
        println!(
            "{:<12} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8.0}",
            c.name,
            c.admitted,
            c.sheds,
            us(summary.p50_ns),
            us(summary.p99_ns),
            us(summary.p999_ns),
            rate(c.hot_rejects),
            rate(c.cold_rejects),
            lag,
            c.judged as f64 / c.elapsed.as_secs_f64() / 1e3,
        );
        assert_eq!(c.judged as u64, c.admitted, "every admitted sample judged");
        merged.merge(&c.latency);
        total_judged += c.judged;
    }
    let mean_ns = wall.as_nanos() as f64 / total_judged.max(1) as f64;
    let p99_ns = merged.summary().p99_ns;
    println!(
        "\ntotal: {total_judged} samples in {:.2}s wall ({:.0} ns/sample, merged p99 {})",
        wall.as_secs_f64(),
        mean_ns,
        us(p99_ns),
    );
    if args.jsonl.is_some() {
        println!("snapshots: {} JSONL lines", snapshot_lines.load(Ordering::Acquire));
    }

    println!("\n--- final registry (Prometheus text) ---");
    print!("{}", registry.render_prometheus());

    emit_gate_metric("loadgen/mixed/mean_ns_per_sample", mean_ns);
    emit_gate_metric("loadgen/mixed/p99_ns", p99_ns as f64);
}
