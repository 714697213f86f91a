//! `serve-casemix`: requests reach `ServingFrontEnd::serve_multi` over the
//! Prom committee and the naive-CP cold detector, with a live
//! `MetricsSink`, 64-sample windows, no shard pool and a bounded admission
//! queue.
//!
//! Both detectors are fitted with `fit_scenario` on C3 (heterogeneous
//! device mapping: 45 calibration records, dim 23, 2 classes). The
//! calibration set is below `min_full_size`, so there is no Eq. 1
//! partition and judging is cheap: time goes to admission, window fill,
//! the collator, report assembly and metrics. One producer thread sends
//! each phase's requests — the i.i.d. pool first, then the drift pool:
//!
//! * `low`: open loop at 2,000 requests/s through `try_submit`;
//! * `high`: open loop at 100,000 requests/s through `try_submit`;
//! * `saturated`: closed loop through the blocking `submit`.
//!
//! Open-loop requests are paced from one thread and timed from when each
//! was due, so a stall also counts against the requests queued behind it;
//! a shed request is a failure. A judged request's completion is the
//! moment the pipeline's judged counter (read from the live registry)
//! covers it, observed by the producer while it waits for the next due
//! time. `latency_p50_ms` is the `high` phase's; `throughput_sps` is the
//! saturated phase's judged samples per second of collator CPU time (see
//! [`Saturated::throughput`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prom_baselines::NaiveCp;
use prom_core::calibration::CalibrationRecord;
use prom_core::detector::{DriftDetector, Sample};
use prom_core::metrics::{Counter, MetricsRegistry, MetricsSink};
use prom_core::pipeline::{
    MultiPipeline, MultiReport, PipelineConfig, PipelineStats, WindowReport,
};
use prom_core::serving::{ServingConfig, ServingFrontEnd, ServingOutcome, SubmitError};
use prom_core::PromClassifier;
use prom_eval::drift::{
    score_cell, CellResult, DriftAnnotation, DriftPhase, DriftStream, Schedule, ShiftKind,
};
use prom_eval::registry::{models_for, CaseId};
use prom_eval::scenario::{deployment_samples, fit_scenario, FittedScenario};
use prom_eval::suite::SuiteScale;

use crate::alloc::allocations;
use crate::layers::{probe, FoldPolicy, ProbeInput};
use crate::speed::HostSpeed;
use crate::trace::Tracer;
use crate::util::{
    median, ms, ns, percentile, ratio, segmented_percentile, Digest, Metric, Outcome, SplitMix,
};
use crate::{end_to_end, pipeline_layer, quality_metrics, PipelineLayer};

const WINDOW: usize = 64;
const QUEUE: usize = 8192;
const LOW_RATE: f64 = 2_000.0;
const HIGH_RATE: f64 = 100_000.0;
const SETUP_REPS: usize = 3;
/// A phase whose generator ran late (p99) by more than this share of the
/// phase's latency p99 is invalid and run again: the regression bound of
/// the latency metrics. Both p99s are medians over `LATENCY_SEGMENT`
/// segments, so one burst of interference does not void a phase.
const LATE_BOUND: f64 = 0.25;
const PHASE_ATTEMPTS: usize = 3;
/// Saturated traffic alternates between the pools every this many
/// requests.
const SAT_SWITCH: usize = 8192;
/// The saturated phase sends a fixed number of requests: this rate times
/// its share of `--seconds` (close to what the collator sustains).
const SAT_NOMINAL_RATE: f64 = 400_000.0;
/// The fitted model and detectors are the deployed system, the same for
/// every run; `--seed` draws the traffic.
const FIT_SEED: u64 = 0;
const PROBE_WINDOWS: usize = 256;
/// Saturated-phase submits between judged-counter readings.
const RATE_EVERY: usize = 4096;
/// Requests per high-phase latency segment (the reported percentiles are
/// medians over segments).
const LATENCY_SEGMENT: usize = 25_000;
/// The serving front-end's collator thread, by its thread name.
const COLLATOR: &str = "prom-collator";
/// Longest wait for the collator to judge the admitted requests.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Requests carry their pool in the top bit of a code.
const DRIFT_BIT: u32 = 1 << 31;

fn config() -> PipelineConfig {
    PipelineConfig { window: WINDOW, shards: 1, ..PipelineConfig::default() }
}

struct Fixture {
    prom: PromClassifier,
    cold: NaiveCp,
    /// `[i.i.d., drift]` request pools and their ground-truth labels.
    pools: [Vec<Sample>; 2],
    labels: [Vec<usize>; 2],
    records: Vec<CalibrationRecord>,
}

impl Fixture {
    fn fit(seed: u64) -> Self {
        let scale = SuiteScale { seed, ..SuiteScale::default() };
        let FittedScenario { data, model, records, prom, .. } =
            fit_scenario(&scale.scenario(CaseId::Devmap, models_for(CaseId::Devmap)[0]));
        let pools = [
            deployment_samples(&model, &data.iid_test),
            deployment_samples(&model, &data.drift_test),
        ];
        let labels = [
            data.iid_test.iter().map(|s| s.label).collect(),
            data.drift_test.iter().map(|s| s.label).collect(),
        ];
        let cold = NaiveCp::new(&records, prom.config().epsilon);
        Self { prom, cold, pools, labels, records }
    }

    fn detectors(&self) -> Vec<&dyn DriftDetector> {
        vec![&self.prom, &self.cold]
    }

    fn pool(code: u32) -> usize {
        usize::from(code & DRIFT_BIT != 0)
    }

    fn sample(&self, code: u32) -> Sample {
        self.pools[Self::pool(code)][(code & !DRIFT_BIT) as usize].clone()
    }

    fn label(&self, code: u32) -> usize {
        self.labels[Self::pool(code)][(code & !DRIFT_BIT) as usize]
    }

    /// `n` request codes, switching pools every `switch` requests.
    fn traffic(&self, rng: &mut SplitMix, n: usize, switch: usize) -> Vec<u32> {
        (0..n)
            .map(|i| {
                let pool = (i / switch) % 2;
                let index = rng.below(self.pools[pool].len()) as u32;
                if pool == 1 {
                    index | DRIFT_BIT
                } else {
                    index
                }
            })
            .collect()
    }
}

/// A fresh registry and the serving front-end publishing into it.
fn front_end() -> (Arc<MetricsRegistry>, MetricsSink, ServingFrontEnd) {
    let registry = Arc::new(MetricsRegistry::new());
    let sink = MetricsSink::new(Arc::clone(&registry)).with_label("workload", "serve-casemix");
    let front = ServingFrontEnd::new(ServingConfig {
        pipeline: config(),
        queue: QUEUE,
        record_admitted: false,
        metrics: Some(sink.clone()),
    });
    (registry, sink, front)
}

/// One open-loop phase.
struct Open {
    outcome: ServingOutcome<MultiReport>,
    registry: Arc<MetricsRegistry>,
    /// Request codes in admission order.
    admitted: Vec<u32>,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_ns: Vec<f64>,
    shed: u64,
}

impl Open {
    /// Generator lateness and latency, both p99 in ms.
    fn lateness(&self) -> (f64, f64) {
        (
            segmented_percentile(&self.late_ms, LATENCY_SEGMENT, 0.99),
            segmented_percentile(&self.latency_ms, LATENCY_SEGMENT, 0.99),
        )
    }

    fn valid(&self) -> bool {
        let (late, latency) = self.lateness();
        late <= LATE_BOUND * latency
    }
}

/// The live judged counter of the last detector: a window is complete
/// once every detector has judged it.
fn judged_counter(sink: &MetricsSink, fx: &Fixture) -> Arc<Counter> {
    sink.counter(
        "prom_pipeline_judged_total",
        "Samples judged by this detector",
        &[("detector", fx.cold.name())],
    )
}

fn open_phase(fx: &Fixture, codes: &[u32], rate: f64, tracer: &mut Tracer) -> Open {
    let (registry, sink, front) = front_end();
    let judged = judged_counter(&sink, fx);
    let n = codes.len();
    let t0 = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let ((admitted_at, mut done, late_ms, submit_ns, shed), outcome) =
        front.serve_multi(fx.detectors(), |handle| {
            let mut admitted_at: Vec<usize> = Vec::with_capacity(n);
            let mut done: Vec<Instant> = Vec::with_capacity(n);
            let mut late_ms = Vec::with_capacity(n);
            let mut submit_ns = Vec::with_capacity(n);
            let mut shed = 0u64;
            let observe = |done: &mut Vec<Instant>, now: Instant| {
                let count = judged.get() as usize;
                while done.len() < count {
                    done.push(now);
                }
            };
            tracer.enter("serving.open_phase");
            for (i, &code) in codes.iter().enumerate() {
                let due_at = due(i);
                loop {
                    let now = Instant::now();
                    observe(&mut done, now);
                    if now >= due_at {
                        break;
                    }
                    std::hint::spin_loop();
                }
                let sample = fx.sample(code);
                let t = Instant::now();
                match handle.try_submit(sample) {
                    Ok(()) => admitted_at.push(i),
                    Err(SubmitError::Full(_)) => shed += 1,
                    Err(SubmitError::Closed(_)) => panic!("the collator stopped while serving"),
                }
                let end = Instant::now();
                tracer.record("serving.try_submit", t, end);
                late_ms.push(ms(t.saturating_duration_since(due_at)));
                submit_ns.push(ns(end - t));
            }
            // Wait until every full window is judged; a partial tail left
            // by sheds is judged by the final flush.
            let full = admitted_at.len() / WINDOW * WINDOW;
            let limit = Instant::now() + DRAIN_LIMIT;
            while done.len() < full && Instant::now() < limit {
                observe(&mut done, Instant::now());
                std::hint::spin_loop();
            }
            tracer.exit();
            (admitted_at, done, late_ms, submit_ns, shed)
        });
    let end = Instant::now();
    while done.len() < admitted_at.len() {
        done.push(end);
    }
    let latency_ms = admitted_at.iter().zip(&done).map(|(&i, &at)| ms(at - due(i))).collect();
    let admitted = admitted_at.iter().map(|&i| codes[i]).collect();
    Open { outcome, registry, admitted, latency_ms, late_ms, submit_ns, shed }
}

/// Runs an open-loop phase until its generator kept up, at most
/// `PHASE_ATTEMPTS` times. Returns the phase and the attempts it took.
fn paced_phase(
    fx: &Fixture,
    codes: &[u32],
    rate: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    name: &str,
) -> (Open, usize) {
    for attempt in 1..=PHASE_ATTEMPTS {
        let phase = open_phase(fx, codes, rate, tracer);
        if phase.valid() || attempt == PHASE_ATTEMPTS {
            out.check(phase.valid(), || {
                let (late, latency) = phase.lateness();
                format!(
                    "the {name} phase's generator fell behind in {attempt} attempts \
                     (late p99 {late:.3} ms, latency p99 {latency:.3} ms): run invalid"
                )
            });
            return (phase, attempt);
        }
    }
    unreachable!("the last attempt returns")
}

/// The saturated phase: every request submitted through the blocking
/// `submit`, as fast as the queue admits them.
struct Saturated {
    outcome: ServingOutcome<MultiReport>,
    /// Judged samples per second between consecutive counter readings.
    rates: Vec<f64>,
    /// The host's speed at each counter reading (see `speed`).
    speed: Vec<f64>,
    /// On-CPU time of the collator thread over the phase, when readable.
    collator_cpu_s: Option<f64>,
    allocs: u64,
}

impl Saturated {
    /// Judged samples per second of collator CPU time, at the reference
    /// host speed: the capacity of the serving path, which runs entirely
    /// on the collator (admission hand-off, window fill, judging, report
    /// assembly, metrics). The wall-clock rate also depends on how fast
    /// the host wakes the two threads at every hand-off, which swung by a
    /// quarter between runs on a shared two-vCPU host; it is reported as
    /// `saturated_wall_sps`. The host speed is measured on the producer's
    /// thread; scaling by it still cut the spread over seeds from 0.077 to
    /// 0.050 on the reference host.
    fn throughput(&self) -> f64 {
        self.raw_throughput() / median(&self.speed)
    }

    /// As [`Saturated::throughput`], at the host's own speed.
    fn raw_throughput(&self) -> f64 {
        self.collator_cpu_s.map_or(0.0, |s| ratio(self.outcome.judged as f64, s))
    }
}

fn saturated(fx: &Fixture, codes: &[u32], host: &mut HostSpeed, tracer: &mut Tracer) -> Saturated {
    let (_registry, sink, front) = front_end();
    let judged = judged_counter(&sink, fx);
    let allocs_before = allocations();
    let traced = tracer.on();
    let ((rates, speed, collator_cpu_s), outcome) = front.serve_multi(fx.detectors(), |handle| {
        tracer.enter("serving.saturated_phase");
        let collator = find_thread(COLLATOR);
        let cpu_before = collator.as_deref().and_then(cpu_ns);
        let mut rates = Vec::new();
        let mut speed = Vec::new();
        let mut last = (Instant::now(), 0u64);
        for (n, &code) in codes.iter().enumerate() {
            if n % RATE_EVERY == 0 {
                speed.push(host.factor());
                let now = (Instant::now(), judged.get());
                if now.1 > last.1 {
                    rates.push((now.1 - last.1) as f64 / (now.0 - last.0).as_secs_f64());
                    last = now;
                }
            }
            let sample = fx.sample(code);
            if traced {
                let t = Instant::now();
                handle.submit(sample).expect("the collator outlives the producer");
                tracer.record("serving.submit", t, Instant::now());
            } else {
                handle.submit(sample).expect("the collator outlives the producer");
            }
        }
        // Every request fills whole windows, so all are judged without
        // the final flush; the collator then idles until the handle drops.
        let limit = Instant::now() + DRAIN_LIMIT;
        while (judged.get() as usize) < codes.len() && Instant::now() < limit {
            std::hint::spin_loop();
        }
        let cpu_after = collator.as_deref().and_then(cpu_ns);
        tracer.exit();
        let cpu_s = cpu_before.zip(cpu_after).map(|(a, b)| b.saturating_sub(a) as f64 / 1e9);
        (rates, speed, cpu_s)
    });
    Saturated { outcome, rates, speed, collator_cpu_s, allocs: allocations() - allocs_before }
}

/// The `/proc` directory of this process's thread named `name`, waiting
/// up to a second for a just-spawned thread to take its name.
fn find_thread(name: &str) -> Option<PathBuf> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
            let dir = task.path();
            if std::fs::read_to_string(dir.join("comm")).is_ok_and(|c| c.trim() == name) {
                return Some(dir);
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::yield_now();
    }
}

/// On-CPU nanoseconds of the thread whose `/proc` directory is `dir`.
fn cpu_ns(dir: &Path) -> Option<u64> {
    std::fs::read_to_string(dir.join("schedstat")).ok()?.split_whitespace().next()?.parse().ok()
}

fn multi_digest(r: &MultiReport) -> u64 {
    let mut d = Digest::default();
    d.word(r.index as u64);
    d.word(r.start as u64);
    r.reports.iter().for_each(|w| d.report(w));
    d.finish()
}

/// Timings of a synchronous replay.
#[derive(Default)]
struct Replay {
    ingest_ns: f64,
    ingest_pushes: u64,
    window_ns: f64,
    windows: u64,
}

/// Checks a served phase: every admitted request judged exactly once in
/// reports that tile the admission order, and reports equal to a
/// synchronous `MultiPipeline` replay of that order.
fn check_phase(
    fx: &Fixture,
    name: &str,
    admitted: &[u32],
    outcome: &ServingOutcome<MultiReport>,
    replay: &mut Replay,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    out.check(
        outcome.judged == admitted.len() && outcome.admitted == admitted.len() as u64,
        || {
            format!(
                "{name}: {} requests admitted by the producer, {} by the queue, {} judged",
                admitted.len(),
                outcome.admitted,
                outcome.judged
            )
        },
    );
    let mut start = 0;
    for (k, r) in outcome.reports.iter().enumerate() {
        let len = r.reports[0].judgements.len();
        let last = k + 1 == outcome.reports.len();
        let tiled = r.start == start
            && (len == WINDOW || (last && len > 0))
            && r.reports.iter().all(|w| w.start == start && w.judgements.len() == len);
        out.check(tiled, || format!("{name}: window {k} does not tile the admission order"));
        start += len;
    }

    tracer.enter("serving.replay");
    let mut pipeline = MultiPipeline::new(fx.detectors(), config());
    let mut served = outcome.reports.iter();
    let mut mismatch = 0usize;
    let mut compare = |r: &MultiReport| {
        if served.next().is_none_or(|s| multi_digest(s) != multi_digest(r)) {
            mismatch += 1;
        }
    };
    for &code in admitted {
        let sample = fx.sample(code);
        let t = Instant::now();
        let report = pipeline.push(sample);
        let end = Instant::now();
        if let Some(r) = report {
            tracer.record("pipeline.push_window", t, end);
            replay.window_ns += ns(end - t);
            replay.windows += 1;
            compare(&r);
        } else {
            tracer.record("pipeline.push", t, end);
            replay.ingest_ns += ns(end - t);
            replay.ingest_pushes += 1;
        }
    }
    while let Some(r) = pipeline.flush() {
        compare(&r);
    }
    tracer.exit();
    out.check(mismatch == 0 && served.next().is_none(), || {
        format!("{name}: served reports differ from the synchronous replay ({mismatch} windows)")
    });
}

/// Detection quality of the Prom committee over a phase, scoring the
/// drift pool as drifted.
fn quality(admitted: &[u32], reports: &[MultiReport]) -> CellResult {
    let annotations: Vec<DriftAnnotation> = admitted
        .iter()
        .map(|&c| {
            let drifted = c & DRIFT_BIT != 0;
            DriftAnnotation {
                drifted,
                intensity: f64::from(u8::from(drifted)),
                phases: u64::from(drifted),
            }
        })
        .collect();
    let stream = DriftStream { samples: Vec::new(), labels: Vec::new(), annotations };
    let prom: Vec<&WindowReport> = reports.iter().map(|r| &r.reports[0]).collect();
    let phase = DriftPhase {
        kind: ShiftKind::Translate,
        schedule: Schedule::Abrupt { at: admitted.len() / 2 },
        magnitude: 1.0,
    };
    let onsets = stream.onset_windows(WINDOW);
    score_cell("PROM".into(), phase, &stream, &prom, &onsets, 0.5, PipelineStats::default(), 0)
}

/// Rounds a request count to whole windows (at least two).
fn whole_windows(count: f64) -> usize {
    ((count / WINDOW as f64).round() as usize).max(2) * WINDOW
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Set-up times at the reference host speed (see `speed`).
    let mut host = HostSpeed::new();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        let speed = host.factor();
        let t = Instant::now();
        let fx = Fixture::fit(FIT_SEED);
        drop(front_end());
        setup.push(t.elapsed().as_secs_f64() * speed);
        fixture = Some(fx);
    }
    let fx = fixture.expect("at least one set-up");

    let traced = tracer.on();
    // Share of `seconds` per phase: untraced runs measure low, high and
    // saturated; traced runs add a traced saturated phase and the probes.
    let (low_s, high_s, sat_s) = if traced { (0.1, 0.2, 0.2) } else { (0.2, 0.5, 0.3) };
    let mut rng = SplitMix::new(seed);
    let low_n = whole_windows(LOW_RATE * low_s * seconds);
    let high_n = whole_windows(HIGH_RATE * high_s * seconds);
    let low_codes = fx.traffic(&mut rng, low_n, low_n / 2);
    let high_codes = fx.traffic(&mut rng, high_n, high_n / 2);
    let sat_n = whole_windows(SAT_NOMINAL_RATE * sat_s * seconds);
    let sat_codes = fx.traffic(&mut rng, sat_n, SAT_SWITCH);

    let (low, low_attempts) = paced_phase(&fx, &low_codes, LOW_RATE, tracer, &mut out, "low");
    let (high, high_attempts) = paced_phase(&fx, &high_codes, HIGH_RATE, tracer, &mut out, "high");
    let sat = saturated(&fx, &sat_codes, &mut host, &mut Tracer::new(false));

    let mut replay = Replay::default();
    for (name, admitted, outcome) in [
        ("low", &low.admitted, &low.outcome),
        ("high", &high.admitted, &high.outcome),
        ("saturated", &sat_codes, &sat.outcome),
    ] {
        check_phase(&fx, name, admitted, outcome, &mut replay, tracer, &mut out);
    }

    let shed = low.shed + high.shed;
    out.attempted = (low_n + high_n + sat_n) as u64;
    out.failed = shed;
    let throughput = sat.throughput();
    let cell = quality(&high.admitted, &high.outcome.reports);
    let high_p50 = segmented_percentile(&high.latency_ms, LATENCY_SEGMENT, 0.5);
    let high_p90 = segmented_percentile(&high.latency_ms, LATENCY_SEGMENT, 0.9);
    let high_p99 = segmented_percentile(&high.latency_ms, LATENCY_SEGMENT, 0.99);
    end_to_end(&mut out, median(&setup), throughput, high_p50);
    quality_metrics(&mut out, &cell);
    out.check(sat.collator_cpu_s.is_some(), || "cannot read the collator's CPU time".into());

    let judge = high
        .registry
        .histogram(
            "prom_serving_window_judge_ns",
            "Collator time in the pipeline call that produced a window report",
            &[("workload", "serve-casemix")],
        )
        .snapshot();
    let judge_ms_p50 = judge.percentile_ns(0.5) as f64 / 1e6;
    let wait_ms_p50 = high_p50 - judge_ms_p50;
    out.extra.extend([
        Metric { name: "latency_p50_ms.low", value: percentile(&low.latency_ms, 0.5), unit: "ms" },
        Metric { name: "latency_p99_ms.low", value: percentile(&low.latency_ms, 0.99), unit: "ms" },
        Metric { name: "latency_p50_ms.high", value: high_p50, unit: "ms" },
        Metric { name: "latency_p90_ms.high", value: high_p90, unit: "ms" },
        Metric { name: "latency_p99_ms.high", value: high_p99, unit: "ms" },
        Metric { name: "saturated_wall_sps", value: median(&sat.rates), unit: "1/s" },
        Metric { name: "throughput_raw_sps", value: sat.raw_throughput(), unit: "1/s" },
        Metric { name: "host_speed", value: median(&sat.speed), unit: "ratio" },
        Metric {
            name: "shed_ratio",
            value: ratio(shed as f64, (low_n + high_n) as f64),
            unit: "ratio",
        },
        Metric {
            name: "serving.submit_ns_p99",
            value: percentile(&high.submit_ns, 0.99),
            unit: "ns",
        },
        Metric {
            name: "serving.admitted",
            value: (low.outcome.admitted + high.outcome.admitted + sat.outcome.admitted) as f64,
            unit: "count",
        },
        Metric { name: "serving.shed", value: shed as f64, unit: "count" },
        Metric { name: "serving.window_judge_ms_p50", value: judge_ms_p50, unit: "ms" },
        Metric { name: "serving.window_wait_ms_p50", value: wait_ms_p50, unit: "ms" },
        Metric { name: "loadgen.late_p99_ms", value: percentile(&high.late_ms, 0.99), unit: "ms" },
        Metric {
            name: "loadgen.late_p99_ms.low",
            value: percentile(&low.late_ms, 0.99),
            unit: "ms",
        },
        Metric {
            name: "loadgen.attempts",
            value: (low_attempts + high_attempts) as f64,
            unit: "count",
        },
    ]);

    if traced {
        let traced_sat = saturated(&fx, &sat_codes, &mut host, tracer);
        let traced_throughput = traced_sat.throughput();
        pipeline_layer(
            &mut out,
            &PipelineLayer {
                ingest_ns_per_sample: ratio(replay.ingest_ns, replay.ingest_pushes as f64),
                window_ns: ratio(replay.window_ns, replay.windows as f64),
                wait_ms_p50,
                judge_ms_p50,
                relabel_selected: high
                    .outcome
                    .reports
                    .iter()
                    .map(|r| r.reports[0].relabel.len())
                    .sum(),
                calibration_size_final: fx.prom.calibration_len(),
                allocs_per_sample: ratio(sat.allocs as f64, sat.outcome.judged as f64),
                overhead_ratio: ratio(traced_throughput, throughput),
            },
        );
        let picks: Vec<(Sample, usize)> = high
            .outcome
            .reports
            .iter()
            .flat_map(|r| r.reports[0].relabel.iter().copied())
            .map(|g| (fx.sample(high.admitted[g]), fx.label(high.admitted[g])))
            .collect();
        let probe_samples: Vec<Sample> = (0..PROBE_WINDOWS)
            .flat_map(|_| {
                let k = rng.below(high.admitted.len() / WINDOW);
                high.admitted[k * WINDOW..(k + 1) * WINDOW].iter().map(|&c| fx.sample(c))
            })
            .collect();
        let input = ProbeInput {
            detector: &fx.prom,
            records: &fx.records,
            windows: probe_samples.chunks(WINDOW).collect(),
            picks: &picks,
            fold: FoldPolicy::half_of(picks.len(), seed, fx.records.len()),
        };
        probe(&input, tracer, &mut out);
    }
    out
}
