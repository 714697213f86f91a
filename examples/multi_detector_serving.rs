//! Multi-detector serving: judge ONE deployment stream with four drift
//! detectors side by side — the paper's detector comparison (Fig. 10) in
//! production shape.
//!
//! Run with: `cargo run --release --example multi_detector_serving [n_samples]`
//! (default 200,000).
//!
//! The flow:
//! 1. fit Prom, naive CP, TESSERACT-style, and RISE-style detectors from
//!    one in-distribution calibration split;
//! 2. stream everything through **one online [`MultiPipeline`]**: each
//!    window is ingested once and fanned out to all four detectors as
//!    independent jobs on one shared shard pool — before this mode,
//!    comparing N detectors meant replaying the stream N times and
//!    re-paying the shared feature/forward pass each replay;
//! 3. the relabeling budget is **shared** (`.shared_budget(0)` — Prom is
//!    the selector) under `SelectionPolicy::CredibilityRank`: each
//!    window's expert-label budget goes to Prom's lowest-credibility
//!    rejects, and every detector absorbs the *same* oracle labels into
//!    its live calibration set (`CalibrationPolicy::Reservoir`), so the
//!    comparison stays honest — the detectors differ in how they judge,
//!    never in what ground truth they were fed;
//! 4. drift begins halfway through; the per-phase reject rates show each
//!    detector's response to the same era change, from the same single
//!    pass.

use std::time::Instant;

use prom::baselines::tesseract::LabeledOutcome;
use prom::baselines::{NaiveCp, Rise, Tesseract};
use prom::core::calibration::CalibrationRecord;
use prom::core::committee::PromConfig;
use prom::core::detector::{DriftDetector, Sample, Truth};
use prom::core::pipeline::{CalibrationPolicy, MultiPipeline, PipelineConfig, SelectionPolicy};
use prom::core::predictor::PromClassifier;

const N_CLASSES: usize = 3;
const DIM: usize = 8;
const WINDOW: usize = 4096;
const RESERVOIR_CAP: usize = 512;

/// Deterministic synthetic deployment sample `i` of `total`: three class
/// clusters whose embedding distribution shifts after 50% of the stream,
/// with confidence degrading on drifted inputs.
fn sample_at(i: usize, total: usize) -> (Sample, usize) {
    let label = i % N_CLASSES;
    let drifted = i >= total / 2;
    let shift = if drifted { 16.0 } else { 0.0 };
    // Cheap deterministic jitter (no RNG state to share across phases).
    let jitter = |k: usize| ((i * 31 + k * 17) % 97) as f64 / 97.0 - 0.5;
    let embedding: Vec<f64> =
        (0..DIM).map(|d| (label * d) as f64 * 0.7 + shift + jitter(d)).collect();
    let conf = if drifted { 0.38 + 0.1 * jitter(DIM) } else { 0.75 + 0.2 * jitter(DIM) };
    let mut probs = vec![(1.0 - conf) / (N_CLASSES - 1) as f64; N_CLASSES];
    probs[label] = conf;
    (Sample::new(embedding, probs), label)
}

fn main() {
    let total: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse().expect("n_samples must be a positive integer"))
        .unwrap_or(200_000);

    // Design-time split: in-distribution records (the usize::MAX sentinel
    // keeps the generator in the pre-drift era) and validation outcomes
    // for the tuned baselines.
    let records: Vec<CalibrationRecord> = (0..600)
        .map(|i| {
            let (s, label) = sample_at(i * 7, usize::MAX);
            CalibrationRecord::new(s.embedding, s.outputs, label)
        })
        .collect();
    let validation: Vec<LabeledOutcome> = (0..400)
        .map(|i| {
            let (s, _) = sample_at(i * 11 + 3, usize::MAX);
            LabeledOutcome { probs: s.outputs, correct: i % 8 != 0 }
        })
        .collect();

    let mut prom = PromClassifier::new(records.clone(), PromConfig::default())
        .expect("valid calibration records");
    let mut naive = NaiveCp::new(&records, 0.1);
    let mut tesseract = Tesseract::fit(&records, &validation, N_CLASSES);
    let mut rise = Rise::fit(&records, &validation, 0.1);
    let detectors: Vec<&mut dyn DriftDetector> =
        vec![&mut prom, &mut naive, &mut tesseract, &mut rise];
    let n_detectors = detectors.len();

    // ONE pipeline serving all four detectors: Prom (index 0) selects the
    // relabel picks by lowest credibility; every detector absorbs the
    // same oracle labels under its own capped reservoir.
    let mut pipeline = MultiPipeline::online(
        detectors,
        PipelineConfig {
            window: WINDOW,
            selection: SelectionPolicy::CredibilityRank,
            policy: CalibrationPolicy::Reservoir { cap: RESERVOIR_CAP, seed: 0 },
            ..Default::default()
        },
        move |global, _s| Some(Truth::Label(sample_at(global, total).1)),
    )
    .shared_budget(0);

    println!(
        "serving {total} samples to {n_detectors} detectors in one pass \
         (window {WINDOW}, shared credibility-ranked budget, reservoir cap {RESERVOIR_CAP})"
    );

    // Per-detector, per-phase reject counts (phase 1: in-distribution,
    // phase 2: drifted).
    let mut rejects = vec![[0usize; 2]; n_detectors];
    let mut judged = [0usize; 2];
    let mut tally = |reports: &prom::core::pipeline::MultiReport| {
        for (d, report) in reports.reports.iter().enumerate() {
            for (i, j) in report.judgements.iter().enumerate() {
                let phase = usize::from(report.start + i >= total / 2);
                rejects[d][phase] += usize::from(!j.accepted);
                if d == 0 {
                    judged[phase] += 1;
                }
            }
        }
    };

    let started = Instant::now();
    for i in 0..total {
        if let Some(reports) = pipeline.push(sample_at(i, total).0) {
            tally(&reports);
        }
    }
    if let Some(reports) = pipeline.flush() {
        tally(&reports);
    }
    let elapsed = started.elapsed();

    let names = pipeline.names();
    let stats = pipeline.stats();
    drop(pipeline);

    println!(
        "done in {:.2}s ({:.0} samples/s/detector, {:.0} judgements/s total)\n",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64(),
        (total * n_detectors) as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>12}",
        "detector", "rejects pre", "rejects post", "absorbed", "judged"
    );
    for (d, name) in names.iter().enumerate() {
        println!(
            "{:<12} {:>13.1}% {:>13.1}% {:>10} {:>12}",
            name,
            100.0 * rejects[d][0] as f64 / judged[0].max(1) as f64,
            100.0 * rejects[d][1] as f64 / judged[1].max(1) as f64,
            stats[d].absorbed,
            stats[d].judged,
        );
    }
    println!("\nevery detector judged the same {} samples from one ingest pass;", stats[0].judged);
    println!(
        "the shared budget labeled {} samples total (Prom's lowest-credibility picks),",
        stats[0].relabel_selected
    );
    println!("and each detector absorbed the same labels into its own reservoir.");
}
