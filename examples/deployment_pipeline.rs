//! Deployment at scale: stream ~1M synthetic samples through the sharded
//! [`DeploymentPipeline`] with the paper's Sec. 5.4 incremental loop closed
//! **in-pipeline**.
//!
//! Run with: `cargo run --release --example deployment_pipeline [n_samples]`
//! (default 1,000,000).
//!
//! The flow:
//! 1. build a Prom detector from an in-distribution calibration set;
//! 2. stream everything through **one online pipeline** under
//!    `CalibrationPolicy::Reservoir`: every window is judged by the
//!    shard pool (scoped threads, each shard reusing one scratch for the
//!    whole run) inside the `push` that fills it — its
//!    budgeted relabel picks are labeled by the oracle (the "ask an expert" step), and the picks are folded
//!    straight into the detector's live calibration set by incremental
//!    insert/replace — no full recalibration rebuild anywhere;
//! 3. drift begins 40% into the stream (mid phase 1); the detector adapts
//!    as it streams, so phase 2 (the fully drifted half) runs against an
//!    already-updated calibration set;
//! 4. the reservoir caps online growth, so the calibration size — and with
//!    it the per-window judging cost — plateaus instead of growing with
//!    the stream: the periodic `calibration/throughput` lines stay flat
//!    once the cap is reached. (The previous caller-driven version of this
//!    example rebuilt the full calibration set between phases and phase-2
//!    throughput dropped as the set grew — that slowdown is what the cap
//!    removes.)
//!
//! Samples are generated on the fly: the pipeline only ever buffers one
//! window, so the 1M-sample stream needs no 1M-sample allocation.

use std::time::Instant;

use prom::core::calibration::CalibrationRecord;
use prom::core::committee::PromConfig;
use prom::core::detector::{DriftDetector, Sample, Truth};
use prom::core::pipeline::{
    available_shards, CalibrationPolicy, DeploymentPipeline, PipelineConfig,
};
use prom::core::pool::ShardPool;
use prom::core::predictor::PromClassifier;

const N_CLASSES: usize = 3;
const DIM: usize = 8;
const WINDOW: usize = 8192;
/// Online calibration records the reservoir keeps live at most.
const RESERVOIR_CAP: usize = 1024;

/// Deterministic synthetic deployment sample `i` of `total`: three class
/// clusters whose embedding distribution shifts after 40% of the stream
/// (the "new era"), with confidence degrading on drifted inputs.
fn sample_at(i: usize, total: usize) -> (Sample, usize) {
    let label = i % N_CLASSES;
    // 40% through the stream; `total / 5 * 2` stays overflow-free for the
    // usize::MAX sentinel the calibration generator passes.
    let drifted = i >= total / 5 * 2;
    let shift = if drifted { 18.0 } else { 0.0 };
    // Cheap deterministic jitter (no RNG state to share across phases).
    let jitter = |k: usize| ((i * 31 + k * 17) % 97) as f64 / 97.0 - 0.5;
    let embedding: Vec<f64> =
        (0..DIM).map(|d| (label * d) as f64 * 0.3 + shift + jitter(d)).collect();
    let conf = if drifted { 0.36 + 0.12 * jitter(11).abs() } else { 0.62 + 0.3 * jitter(13).abs() };
    let mut probs = vec![(1.0 - conf) / (N_CLASSES - 1) as f64; N_CLASSES];
    probs[label] = conf;
    (Sample::new(embedding, probs), label)
}

fn calibration_records(n: usize) -> Vec<CalibrationRecord> {
    (0..n)
        .map(|i| {
            // Calibration mirrors the pre-drift regime. The stride must be
            // coprime with N_CLASSES so every class is represented (a
            // stride of 3 silently produced an all-label-0 set).
            let (s, label) = sample_at(i * 7, usize::MAX);
            CalibrationRecord::new(s.embedding, s.outputs, label)
        })
        .collect()
}

/// Per-phase accumulation: judged samples, rejected samples, seconds.
#[derive(Default, Clone, Copy)]
struct PhaseTotals {
    judged: usize,
    rejected: usize,
    secs: f64,
}

fn main() {
    let total: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse().expect("n_samples must be an unsigned integer"))
        .unwrap_or(1_000_000);
    let half = total / 2;
    println!(
        "streaming {total} samples in {WINDOW}-sample windows across {} shards, \
         online reservoir cap {RESERVOIR_CAP}",
        available_shards()
    );

    let records = calibration_records(300);
    // A frozen twin for the closing comparison: same design-time records,
    // never updated.
    let frozen =
        PromClassifier::new(records.clone(), PromConfig::default()).expect("valid calibration");
    let mut prom = PromClassifier::new(records, PromConfig::default()).expect("valid calibration");
    let base = prom.calibration_len();

    // One online pipeline over the whole stream: the Sec. 5.4 loop closes
    // per window, with the sample generator's true label as the expert.
    let mut phases = [PhaseTotals::default(); 2];
    let mut pipeline = DeploymentPipeline::online(
        &mut prom,
        PipelineConfig {
            window: WINDOW,
            shards: available_shards(),
            policy: CalibrationPolicy::Reservoir { cap: RESERVOIR_CAP, seed: 0 },
            ..Default::default()
        },
        |global, _s| Some(Truth::Label(sample_at(global, total).1)),
    );

    let mut window_clock = Instant::now();
    let account = |report: &prom::core::pipeline::WindowReport,
                   phases: &mut [PhaseTotals; 2],
                   window_clock: &mut Instant| {
        let secs = window_clock.elapsed().as_secs_f64();
        *window_clock = Instant::now();
        let phase = usize::from(report.start >= half);
        phases[phase].judged += report.judgements.len();
        phases[phase].rejected += report.flagged.len();
        phases[phase].secs += secs;
        if report.index.is_multiple_of(8) {
            println!(
                "  window {:>4}  calibration {:>5}  {:>9.0} samples/s  reject {:>5.1}%  \
                 absorbed {:>2}",
                report.index,
                report.calibration_size.unwrap_or(0),
                report.judgements.len() as f64 / secs,
                100.0 * report.flagged.len() as f64 / report.judgements.len() as f64,
                report.absorbed,
            );
        }
    };
    for i in 0..total {
        if let Some(report) = pipeline.push(sample_at(i, total).0) {
            account(&report, &mut phases, &mut window_clock);
        }
    }
    // The partial tail window.
    if let Some(report) = pipeline.flush() {
        account(&report, &mut phases, &mut window_clock);
    }
    let stats = pipeline.stats();
    drop(pipeline);

    for (phase, totals) in phases.iter().enumerate() {
        if totals.judged == 0 {
            continue;
        }
        println!(
            "phase {}: {} judged in {:.2}s ({:.0} samples/s), reject rate {:.1}%",
            phase + 1,
            totals.judged,
            totals.secs,
            totals.judged as f64 / totals.secs,
            100.0 * totals.rejected as f64 / totals.judged as f64,
        );
    }
    println!(
        "online loop: {} relabels selected, {} absorbed, calibration {} -> {} \
         (capped at {} + {RESERVOIR_CAP})",
        stats.relabel_selected,
        stats.absorbed,
        base,
        prom.calibration_len(),
        base,
    );

    // The payoff: on a fully drifted probe window the adapted detector
    // trusts the model again, while the frozen twin still rejects en masse.
    let probe: Vec<Sample> =
        (0..WINDOW).map(|i| sample_at(total.saturating_sub(WINDOW) + i, total).0).collect();
    let reject_rate = |det: &dyn DriftDetector| {
        let js = det.judge_batch(&probe);
        100.0 * js.iter().filter(|j| !j.accepted).count() as f64 / js.len() as f64
    };
    println!(
        "drifted probe window: frozen detector rejects {:.1}%, online-recalibrated {:.1}%",
        reject_rate(&frozen),
        reject_rate(&prom),
    );

    // Sanity: sharded and sequential judging agree bit-for-bit.
    let det: &dyn DriftDetector = &prom;
    assert_eq!(
        ShardPool::new(available_shards()).judge(det, &probe),
        det.judge_batch(&probe),
        "parallel judging must be bit-identical to sequential"
    );
    println!("parallel == sequential on a {WINDOW}-sample probe window ✓");
}
