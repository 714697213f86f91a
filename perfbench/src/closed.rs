//! The closed-loop caller shared by `bulk-judge` and
//! `online-recalibrate`: one thread pushes samples into a
//! `DeploymentPipeline` as fast as the pipeline returns, timing every
//! push.
//!
//! A run repeats identical passes over one stream, so each window and
//! each sample position recurs once per pass with the same work. The
//! reported throughput and latency take, per position, the best of the
//! run's passes: interference from other tenants of a shared host comes
//! in bursts, and a burst then slows one pass at that position instead of
//! the run's figure. Slower stretches that outlast a pass are taken out by
//! scaling every window to the reference host's speed, measured right
//! after it (see `speed`); on the reference host this cut the spread of
//! throughput over seeds from 0.19 to 0.06 (bulk-judge) and from 0.12 to
//! 0.07 (online-recalibrate), where one median speed per pass cut it to
//! 0.09 and 0.12.

use std::time::Instant;

use prom_core::detector::Sample;
use prom_core::pipeline::{DeploymentPipeline, PipelineStats, WindowReport};
use prom_eval::drift::score_cell;

use crate::fixtures::DriftCase;
use crate::speed::HostSpeed;
use crate::trace::Tracer;
use crate::util::{median, ms, ns, percentile, ratio, Metric, Outcome};
use crate::{end_to_end, quality_metrics, PipelineLayer};

/// Per-push timings of a closed-loop run.
pub struct PushRecorder {
    /// Push → report latency of every judged sample at the reference host
    /// speed, ms.
    pub latency_ms: Vec<f64>,
    /// Time each sample waited for its window to start judging, ms.
    pub wait_ms: Vec<f64>,
    /// Duration of every report-producing push (the window judge), ms.
    pub judge_ms: Vec<f64>,
    /// Total time and count of pushes that returned no report.
    pub ingest_ns: f64,
    pub ingest_pushes: u64,
    /// Total time of report-producing pushes.
    pub window_ns: f64,
    /// Samples judged, and passes pushed.
    pub judged: u64,
    passes: usize,
    /// Every window's length, its time from the previous report (or the
    /// start of its pass) to its own in seconds, and the host's speed
    /// measured right after it.
    window_len: Vec<usize>,
    window_s: Vec<f64>,
    speed: Vec<f64>,
    host: HostSpeed,
    /// Buffered push start times of the current window.
    pending: Vec<Instant>,
    last_report: Option<Instant>,
}

/// Per position of `values` (laid out as `passes` equal runs), the least
/// value over the passes.
fn best_per_position(values: &[f64], passes: usize) -> Vec<f64> {
    let per_pass = values.len() / passes.max(1);
    (0..per_pass)
        .map(|i| (0..passes).map(|p| values[p * per_pass + i]).fold(f64::INFINITY, f64::min))
        .collect()
}

impl PushRecorder {
    pub fn new() -> Self {
        Self {
            latency_ms: Vec::new(),
            wait_ms: Vec::new(),
            judge_ms: Vec::new(),
            ingest_ns: 0.0,
            ingest_pushes: 0,
            window_ns: 0.0,
            judged: 0,
            passes: 0,
            window_len: Vec::new(),
            window_s: Vec::new(),
            speed: Vec::new(),
            host: HostSpeed::new(),
            pending: Vec::new(),
            last_report: None,
        }
    }

    /// Samples per second of one pass whose every window takes its best
    /// time over the run's passes, at the reference host speed.
    pub fn throughput(&self) -> f64 {
        let scaled: Vec<f64> = self.window_s.iter().zip(&self.speed).map(|(t, f)| t * f).collect();
        self.pass_rate(&scaled)
    }

    /// As [`PushRecorder::throughput`], at the host's own speed.
    pub fn raw_throughput(&self) -> f64 {
        self.pass_rate(&self.window_s)
    }

    /// The median host speed over the run's windows (1 = reference host).
    pub fn host_speed(&self) -> f64 {
        median(&self.speed)
    }

    fn pass_rate(&self, window_s: &[f64]) -> f64 {
        let per_pass = window_s.len() / self.passes.max(1);
        let samples: usize = self.window_len[..per_pass].iter().sum();
        ratio(samples as f64, best_per_position(window_s, self.passes).iter().sum())
    }

    /// The `q` percentile over sample positions of each position's best
    /// push → report latency over the run's passes, at the reference host
    /// speed.
    pub fn latency_p(&self, q: f64) -> f64 {
        percentile(&best_per_position(&self.latency_ms, self.passes), q)
    }

    /// Folds a report-producing push at `[t, end)` into the window stats.
    fn settle(&mut self, report: &WindowReport, t: Instant, end: Instant) {
        // Between windows, outside every measured interval.
        let speed = self.host.factor();
        self.window_ns += ns(end - t);
        self.judge_ms.push(ms(end - t));
        for &at in &self.pending {
            self.latency_ms.push(ms(end - at) * speed);
            self.wait_ms.push(ms(t - at));
        }
        let len = report.judgements.len();
        let last = self.last_report.unwrap_or(t);
        self.window_len.push(len);
        self.window_s.push((end - last).as_secs_f64());
        self.speed.push(speed);
        self.last_report = Some(Instant::now());
        self.judged += len as u64;
        self.pending.clear();
    }
}

/// Pushes one pass of `samples` (cloned, in order) through `pipeline`,
/// then flushes when `flush` is set, returning every report. Spans: one
/// per push.
pub fn push_all(
    pipeline: &mut DeploymentPipeline<'_>,
    samples: &[Sample],
    flush: bool,
    rec: &mut PushRecorder,
    tracer: &mut Tracer,
) -> Vec<WindowReport> {
    let mut reports = Vec::new();
    rec.passes += 1;
    rec.last_report = Some(Instant::now());
    for s in samples {
        let sample = s.clone();
        let t = Instant::now();
        rec.pending.push(t);
        let report = pipeline.push(sample);
        let end = Instant::now();
        match report {
            None => {
                tracer.record("pipeline.push", t, end);
                rec.ingest_ns += ns(end - t);
                rec.ingest_pushes += 1;
            }
            Some(report) => {
                tracer.record("pipeline.push_window", t, end);
                rec.settle(&report, t, end);
                reports.push(report);
            }
        }
    }
    if flush {
        loop {
            let t = Instant::now();
            let Some(report) = pipeline.flush() else { break };
            let end = Instant::now();
            tracer.record("pipeline.flush", t, end);
            rec.settle(&report, t, end);
            reports.push(report);
        }
    }
    reports
}

/// Checks that `reports` tile the stream from `start`: consecutive,
/// gap-free, every window `window` samples long except a final short one,
/// so every pushed sample is judged exactly once. Returns the next start.
pub fn check_tiling(
    reports: &[WindowReport],
    mut start: usize,
    window: usize,
    out: &mut Outcome,
) -> usize {
    for (k, r) in reports.iter().enumerate() {
        let len = r.judgements.len();
        let last = k + 1 == reports.len();
        out.check(r.start == start && (len == window || (last && len > 0 && len < window)), || {
            format!("window {} covers [{}, +{len}) but {start} was due", r.index, r.start)
        });
        out.check(r.flagged.windows(2).all(|w| w[0] < w[1]), || {
            format!("window {} flags are not ascending", r.index)
        });
        out.check(r.flagged.iter().all(|&g| g >= r.start && g < r.start + len), || {
            format!("window {} flags a sample outside itself", r.index)
        });
        start += len;
    }
    start
}

/// Reports a closed-loop run over a drift case: the end-to-end metrics,
/// the tail latencies, and the detection quality of its `first` pass.
pub fn report(
    out: &mut Outcome,
    setup: &[f64],
    rec: &PushRecorder,
    case: &DriftCase,
    first: &[WindowReport],
    window: usize,
) {
    end_to_end(out, median(setup), rec.throughput(), rec.latency_p(0.5));
    for (name, q) in [("latency_p90_ms", 0.9), ("latency_p99_ms", 0.99)] {
        out.extra.push(Metric { name, value: rec.latency_p(q), unit: "ms" });
    }
    out.extra.extend([
        Metric { name: "throughput_raw_sps", value: rec.raw_throughput(), unit: "1/s" },
        Metric { name: "host_speed", value: rec.host_speed(), unit: "ratio" },
    ]);
    let refs: Vec<&WindowReport> = first.iter().collect();
    let onsets = case.stream.onset_windows(window);
    let stats = PipelineStats::default();
    let cell = score_cell("PROM".into(), case.phase, &case.stream, &refs, &onsets, 0.5, stats, 0);
    quality_metrics(out, &cell);
}

/// The pipeline-level per-layer figures of a traced drive, beside the
/// untraced one it is compared with.
pub fn pipeline_figures(
    traced: &PushRecorder,
    untraced: &PushRecorder,
    untraced_allocs: u64,
    first: &[WindowReport],
    calibration_size_final: usize,
) -> PipelineLayer {
    PipelineLayer {
        ingest_ns_per_sample: ratio(traced.ingest_ns, traced.ingest_pushes as f64),
        window_ns: ratio(traced.window_ns, traced.judge_ms.len() as f64),
        wait_ms_p50: median(&traced.wait_ms),
        judge_ms_p50: median(&traced.judge_ms),
        relabel_selected: first.iter().map(|r| r.relabel.len()).sum(),
        calibration_size_final,
        allocs_per_sample: ratio(untraced_allocs as f64, untraced.judged as f64),
        overhead_ratio: ratio(traced.throughput(), untraced.throughput()),
    }
}
