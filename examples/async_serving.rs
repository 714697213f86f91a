//! Async serving: four producer threads race one deployment stream
//! through a bounded admission queue into a two-detector judge, with
//! per-sample latency SLOs as the headline output.
//!
//! Run with: `cargo run --release --example async_serving [n_samples]`
//! (default 80,000 — half stable, half drifted).
//!
//! The flow:
//! 1. fit a **hot** detector (the full Prom committee — expensive,
//!    thorough) and a **cold** one (naive CP — a cheap score-table
//!    lookup) from the same calibration split, served side by side from
//!    one ingest pass by a [`MultiPipeline`];
//! 2. serve two phases through one [`ServingFrontEnd`]: an
//!    in-distribution warm-up, then the same traffic with drift injected
//!    — each phase is 4 producer threads submitting with
//!    [`ServingHandle::try_submit`] and bounded retry, so a congested
//!    queue *sheds* (counted) instead of blocking the producers;
//! 3. each phase reports its own latency histogram: p50/p99/p999 of
//!    admission-to-judgement time on a monotonic clock, next to the
//!    per-detector reject rates — the two quantities a deployment SLO is
//!    written against.
//!
//! Determinism note: with four racing producers the admission order is
//! scheduler-dependent, but everything after admission is the ordinary
//! pipeline — `tests/serving_equivalence.rs` proves the reports are
//! bit-identical to a synchronous replay of whatever order was admitted.

use prom::baselines::NaiveCp;
use prom::core::calibration::CalibrationRecord;
use prom::core::committee::PromConfig;
use prom::core::detector::{DriftDetector, Sample};
use prom::core::pipeline::{MultiReport, PipelineConfig};
use prom::core::predictor::PromClassifier;
use prom::core::serving::{ServingConfig, ServingFrontEnd, ServingHandle, SubmitError};

const N_CLASSES: usize = 3;
const DIM: usize = 8;
const WINDOW: usize = 2048;
const PRODUCERS: usize = 4;
const QUEUE: usize = 64;

/// Deterministic synthetic sample `i`: three class clusters, optionally
/// shifted (drift) with degraded confidence.
fn sample_at(i: usize, drifted: bool) -> Sample {
    let label = i % N_CLASSES;
    let shift = if drifted { 16.0 } else { 0.0 };
    let jitter = |k: usize| ((i * 31 + k * 17) % 97) as f64 / 97.0 - 0.5;
    let embedding: Vec<f64> =
        (0..DIM).map(|d| (label * d) as f64 * 0.7 + shift + jitter(d)).collect();
    let conf = if drifted { 0.38 + 0.1 * jitter(DIM) } else { 0.75 + 0.2 * jitter(DIM) };
    let mut probs = vec![(1.0 - conf) / (N_CLASSES - 1) as f64; N_CLASSES];
    probs[label] = conf;
    Sample::new(embedding, probs)
}

/// Submits one producer's chunk through the load-shedding path: try,
/// and on a full queue yield and retry with the same sample. Returns
/// (admitted, shed attempts).
fn produce_chunk(
    handle: &ServingHandle<'_>,
    base: usize,
    count: usize,
    drifted: bool,
) -> (u64, u64) {
    let mut admitted = 0u64;
    let mut sheds = 0u64;
    for i in 0..count {
        let mut sample = sample_at(base + i, drifted);
        loop {
            match handle.try_submit(sample) {
                Ok(()) => {
                    admitted += 1;
                    break;
                }
                Err(SubmitError::Full(back)) => {
                    // Shed: the queue is at capacity behind a judging
                    // window. A real producer would drop or hedge; this
                    // one retries the same sample after yielding.
                    sheds += 1;
                    sample = back;
                    std::thread::yield_now();
                }
                Err(SubmitError::Closed(_)) => unreachable!("collator alive until we return"),
            }
        }
    }
    (admitted, sheds)
}

/// Serves one phase: 4 producers × `per_producer` samples, returning the
/// outcome plus total shed attempts.
fn serve_phase(
    front: &ServingFrontEnd,
    detectors: Vec<&dyn DriftDetector>,
    per_producer: usize,
    drifted: bool,
) -> (u64, prom::core::serving::ServingOutcome<MultiReport>) {
    front.serve_multi(detectors, |handle| {
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let handle = handle.clone();
                    s.spawn(move || produce_chunk(&handle, p * per_producer, per_producer, drifted))
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("producer ok")).map(|(_, s)| s).sum()
        })
    })
}

fn main() {
    let total: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse().expect("n_samples must be a positive integer"))
        .unwrap_or(80_000);
    let per_phase = total / 2;
    let per_producer = per_phase / PRODUCERS;

    // Design-time split, in-distribution only.
    let records: Vec<CalibrationRecord> = (0..600)
        .map(|i| {
            let s = sample_at(i * 7, false);
            CalibrationRecord::new(s.embedding, s.outputs, i * 7 % N_CLASSES)
        })
        .collect();
    let hot = PromClassifier::new(records.clone(), PromConfig::default())
        .expect("valid calibration records");
    let cold = NaiveCp::new(&records, 0.1);

    let front = ServingFrontEnd::new(ServingConfig {
        pipeline: PipelineConfig { window: WINDOW, ..Default::default() },
        queue: QUEUE,
        record_admitted: false,
        metrics: None,
    });
    println!(
        "serving 2 phases x {per_phase} samples from {PRODUCERS} producers \
         (queue {QUEUE}, window {WINDOW}, detectors: prom hot + naive-cp cold)\n"
    );

    println!(
        "{:<10} {:>9} {:>7} {:>9} {:>9} {:>9} {:>11} {:>11}",
        "phase", "admitted", "shed", "p50", "p99", "p99.9", "hot rej", "cold rej"
    );
    for (name, drifted) in [("stable", false), ("drifted", true)] {
        let (sheds, outcome) = serve_phase(&front, vec![&hot, &cold], per_producer, drifted);
        let summary = outcome.latency.summary();
        let us = |ns: u64| {
            if ns >= 10_000_000 {
                format!("{:.1}ms", ns as f64 / 1e6)
            } else {
                format!("{:.1}us", ns as f64 / 1e3)
            }
        };
        // Per-detector reject rates over this phase's windows.
        let mut rejects = [0usize; 2];
        for multi in &outcome.reports {
            for (d, report) in multi.reports.iter().enumerate() {
                rejects[d] += report.judgements.iter().filter(|j| !j.accepted).count();
            }
        }
        let rate = |r: usize| format!("{:.1}%", 100.0 * r as f64 / outcome.judged.max(1) as f64);
        println!(
            "{:<10} {:>9} {:>7} {:>9} {:>9} {:>9} {:>11} {:>11}",
            name,
            outcome.admitted,
            sheds,
            us(summary.p50_ns),
            us(summary.p99_ns),
            us(summary.p999_ns),
            rate(rejects[0]),
            rate(rejects[1]),
        );
        assert_eq!(outcome.judged as u64, outcome.admitted, "every admitted sample judged");
        assert_eq!(outcome.rejected, sheds, "the front-end counted the same sheds");
    }

    println!(
        "\np50/p99/p99.9 are admission-to-judgement latency (queue wait + window fill + \
         judging);\nshed = try_submit attempts bounced by the full {QUEUE}-slot queue \
         (retried until admitted);\nthe hot committee flags the drifted phase, the cold \
         table mostly follows — same stream,\nsame single ingest pass."
    );
}
