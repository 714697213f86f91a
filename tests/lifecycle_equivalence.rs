//! Calibration-lifecycle equivalence: a deployment pipeline snapshotted
//! mid-stream, squeezed through JSON, and restored onto a freshly built
//! detector must continue **bit-identically** to the run that was never
//! interrupted — same window reports (judgements, flags, relabel picks,
//! absorption counts), same lifetime stats, and the same final calibration
//! state down to the last bit of every stored score.
//!
//! The matrix covers all five detectors (`PromClassifier`,
//! `PromRegressor`, `NaiveCp`, `Tesseract`, `Rise`) under frozen and
//! reservoir calibration policies, with snapshots cut both mid-window
//! (partial ingest buffer in flight) and exactly on a window boundary,
//! and with sliding-window base eviction both off and on — eviction is
//! the case the old cached-offset slot translation got wrong, so the
//! matrix deliberately crosses it with reservoir replacement.
//!
//! A committed golden fixture (`tests/fixtures/golden_snapshot.json`)
//! pins the serialized format: the replay test restores those exact bytes
//! and must still reproduce the uninterrupted run, so an incompatible
//! format change fails CI instead of silently orphaning saved state.

use prom::baselines::tesseract::{LabeledOutcome, Tesseract};
use prom::baselines::{NaiveCp, Rise};
use prom::core::calibration::CalibrationRecord;
use prom::core::committee::PromConfig;
use prom::core::detector::{DriftDetector, Sample, Truth};
use prom::core::incremental::RelabelBudget;
use prom::core::pipeline::{
    BaseEviction, CalibrationPolicy, DeploymentPipeline, PipelineConfig, PipelineStats,
    WindowReport,
};
use prom::core::predictor::PromClassifier;
use prom::core::regression::{ClusterChoice, PromRegressor, PromRegressorConfig, RegressionRecord};
use prom::ml::rng::{gaussian_with, rng_from_seed};
use rand::Rng;
use serde::Value;

/// Three-cluster classification calibration records with imperfect,
/// varied confidence (drawn deterministically from `seed`).
fn classification_records(n: usize, seed: u64) -> Vec<CalibrationRecord> {
    let mut rng = rng_from_seed(seed);
    (0..n)
        .map(|i| {
            let label = i % 3;
            let centre = label as f64 * 4.0;
            let embedding =
                vec![gaussian_with(&mut rng, centre, 1.0), gaussian_with(&mut rng, -centre, 1.0)];
            let conf: f64 = rng.gen_range(0.5..0.95);
            let mut probs = vec![(1.0 - conf) / 2.0; 3];
            probs[label] = conf;
            CalibrationRecord::new(embedding, probs, label)
        })
        .collect()
}

/// A classification deployment stream that drifts away from the
/// calibration clusters and loses confidence, so windows actually flag
/// rejects and the online policies actually absorb.
fn classification_stream(n: usize, seed: u64) -> Vec<Sample> {
    let mut rng = rng_from_seed(seed);
    (0..n)
        .map(|i| {
            let label = i % 3;
            let drift = i as f64 * 0.15;
            let centre = label as f64 * 4.0 + drift;
            let embedding =
                vec![gaussian_with(&mut rng, centre, 1.0), gaussian_with(&mut rng, -centre, 1.0)];
            let conf: f64 = rng.gen_range(0.35..0.9);
            let mut probs = vec![(1.0 - conf) / 2.0; 3];
            probs[label] = conf;
            Sample::new(embedding, probs)
        })
        .collect()
}

/// Regression calibration records on y = x0 + x1 with mild noise.
fn regression_records(n: usize, seed: u64) -> Vec<RegressionRecord> {
    let mut rng = rng_from_seed(seed);
    (0..n)
        .map(|_| {
            let x0 = rng.gen_range(-2.0..2.0);
            let x1 = rng.gen_range(-2.0..2.0);
            let target = x0 + x1;
            RegressionRecord::new(vec![x0, x1], target + gaussian_with(&mut rng, 0.0, 0.3), target)
        })
        .collect()
}

/// A regression stream whose inputs (and prediction errors) drift, so the
/// regressor rejects and relabels along the way.
fn regression_stream(n: usize, seed: u64) -> Vec<Sample> {
    let mut rng = rng_from_seed(seed);
    (0..n)
        .map(|i| {
            let drift = i as f64 * 0.12;
            let x0 = rng.gen_range(-2.0..2.0) + drift;
            let x1 = rng.gen_range(-2.0..2.0);
            let prediction = x0 + x1 + gaussian_with(&mut rng, 0.0, 0.2) + drift;
            Sample::regression(vec![x0, x1], prediction)
        })
        .collect()
}

/// The deterministic expert for classification streams: labels by stream
/// position, matching how [`classification_stream`] assigns classes.
fn label_oracle(global: usize, _sample: &Sample) -> Option<Truth> {
    Some(Truth::Label(global % 3))
}

/// The deterministic expert for regression streams: the true target is
/// the noiseless y = x0 + x1.
fn target_oracle(_global: usize, sample: &Sample) -> Option<Truth> {
    Some(Truth::Target(sample.embedding[0] + sample.embedding[1]))
}

/// Probe inputs for final-state comparison via `judge_one`.
fn classification_probes() -> Vec<(Vec<f64>, Vec<f64>)> {
    vec![
        (vec![0.1, -0.2], vec![0.8, 0.1, 0.1]),
        (vec![4.2, -3.8], vec![0.1, 0.75, 0.15]),
        (vec![30.0, -30.0], vec![0.4, 0.3, 0.3]),
        (vec![1.0, 1.0], vec![0.34, 0.33, 0.33]),
    ]
}

fn regression_probes() -> Vec<(Vec<f64>, Vec<f64>)> {
    vec![
        (vec![0.5, 0.5], vec![1.0]),
        (vec![1.5, -0.5], vec![1.2]),
        (vec![20.0, 0.3], vec![35.0]),
        (vec![-1.0, -1.0], vec![-2.1]),
    ]
}

/// Runs `stream` through one uninterrupted online pipeline and one that is
/// snapshotted after `cut` pushes, JSON round-tripped, and restored onto a
/// *fresh* detector from `make` — then asserts reports, stats, final
/// portable state, and post-run judgements are all identical.
fn assert_resumes_bit_identically(
    make: &dyn Fn() -> Box<dyn DriftDetector>,
    oracle: fn(usize, &Sample) -> Option<Truth>,
    probes: &[(Vec<f64>, Vec<f64>)],
    stream: &[Sample],
    config: PipelineConfig,
    cut: usize,
    context: &str,
) {
    // The reference: one pipeline over the whole stream, never paused.
    let mut reference_det = make();
    let (expected_reports, expected_stats) = {
        let mut pipeline = DeploymentPipeline::online(reference_det.as_mut(), config, oracle);
        let mut reports = pipeline.extend(stream.iter().cloned());
        while let Some(report) = pipeline.flush() {
            reports.push(report);
        }
        (reports, pipeline.stats())
    };

    // The interrupted run: push `cut` samples, snapshot, drop everything.
    let mut first_det = make();
    let mut reports;
    let value = {
        let mut pipeline = DeploymentPipeline::online(first_det.as_mut(), config, oracle);
        reports = pipeline.extend(stream[..cut].iter().cloned());
        pipeline.snapshot().unwrap_or_else(|e| panic!("{context}: snapshot must succeed, got {e}"))
    };
    drop(first_det);

    // Through JSON and back — the exact save/load path a deployment uses.
    let json = serde::to_json_string(&value);
    let value: Value = serde::from_json_str(&json)
        .unwrap_or_else(|e| panic!("{context}: snapshot JSON must round-trip, got {e}"));

    // Restore onto a detector freshly built from the design-time records
    // (the state a new process starts from) and finish the stream.
    let mut resumed_det = make();
    let resumed_stats = {
        let mut pipeline =
            DeploymentPipeline::restore_online(resumed_det.as_mut(), config, oracle, &value)
                .unwrap_or_else(|e| panic!("{context}: restore must succeed, got {e}"));
        reports.extend(pipeline.extend(stream[cut..].iter().cloned()));
        while let Some(report) = pipeline.flush() {
            reports.push(report);
        }
        pipeline.stats()
    };

    assert_eq!(resumed_stats, expected_stats, "{context}: lifetime stats diverge");
    assert_eq!(reports.len(), expected_reports.len(), "{context}: report counts diverge");
    for (report, expected) in reports.iter().zip(&expected_reports) {
        let window = format!("{context}: window {}", expected.index);
        assert_eq!((report.index, report.start), (expected.index, expected.start), "{window}");
        assert_eq!(report.judgements, expected.judgements, "{window}: judgements diverge");
        assert_eq!(report.flagged, expected.flagged, "{window}: flags diverge");
        assert_eq!(report.relabel, expected.relabel, "{window}: relabel picks diverge");
        assert_eq!(report.absorbed, expected.absorbed, "{window}: absorption diverges");
        assert_eq!(
            report.calibration_size, expected.calibration_size,
            "{window}: calibration sizes diverge"
        );
    }

    // The final calibration state is identical down to every stored bit:
    // the portable snapshots (which embed every record, score, and frozen
    // artifact through the lossless f64 writer) print identically.
    let resumed_state = resumed_det.snapshot_state();
    let expected_state = reference_det.snapshot_state();
    match (resumed_state, expected_state) {
        (Some(a), Some(b)) => assert_eq!(
            serde::to_json_string(&a),
            serde::to_json_string(&b),
            "{context}: final calibration states diverge"
        ),
        (a, b) => assert_eq!(a.is_some(), b.is_some(), "{context}: snapshot support diverges"),
    }

    // And future judgements agree on fresh probes.
    for (embedding, outputs) in probes {
        assert_eq!(
            resumed_det.judge_one(embedding, outputs),
            reference_det.judge_one(embedding, outputs),
            "{context}: post-run judgements diverge on {embedding:?}"
        );
    }
}

/// The shared policy × cut-point × eviction matrix. `window` is 8, so cut
/// 21 leaves 5 samples buffered mid-window and cut 24 lands exactly on a
/// window boundary.
fn lifecycle_matrix(
    make: &dyn Fn() -> Box<dyn DriftDetector>,
    oracle: fn(usize, &Sample) -> Option<Truth>,
    probes: &[(Vec<f64>, Vec<f64>)],
    stream: &[Sample],
    min_base: usize,
    detector: &str,
) {
    let base = PipelineConfig {
        window: 8,
        shards: 2,
        budget: RelabelBudget { fraction: 1.0, min_count: 1 },
        ..Default::default()
    };
    let policies = [
        ("frozen", CalibrationPolicy::Frozen, BaseEviction::Keep),
        ("reservoir", CalibrationPolicy::Reservoir { cap: 4, seed: 23 }, BaseEviction::Keep),
        (
            "reservoir+eviction",
            CalibrationPolicy::Reservoir { cap: 4, seed: 23 },
            BaseEviction::SlidingWindow { per_absorb: 1, min_base },
        ),
    ];
    for (policy_name, policy, eviction) in policies {
        for cut in [21, 24] {
            let config = PipelineConfig { policy, eviction, ..base };
            let context = format!("{detector} / {policy_name} / cut {cut}");
            assert_resumes_bit_identically(make, oracle, probes, stream, config, cut, &context);
        }
    }
}

#[test]
fn prom_classifier_resumes_bit_identically() {
    let records = classification_records(90, 1);
    let stream = classification_stream(44, 2);
    let make = move || -> Box<dyn DriftDetector> {
        Box::new(PromClassifier::new(records.clone(), PromConfig::default()).unwrap())
    };
    lifecycle_matrix(&make, label_oracle, &classification_probes(), &stream, 80, "PromClassifier");
}

#[test]
fn prom_regressor_resumes_bit_identically() {
    let records = regression_records(120, 3);
    let stream = regression_stream(44, 4);
    let config = PromRegressorConfig { clusters: ClusterChoice::Fixed(4), ..Default::default() };
    let make = move || -> Box<dyn DriftDetector> {
        Box::new(PromRegressor::new(records.clone(), config.clone()).unwrap())
    };
    lifecycle_matrix(&make, target_oracle, &regression_probes(), &stream, 110, "PromRegressor");
}

#[test]
fn naive_cp_resumes_bit_identically() {
    let records = classification_records(80, 5);
    let stream = classification_stream(44, 6);
    let make = move || -> Box<dyn DriftDetector> { Box::new(NaiveCp::new(&records, 0.1)) };
    lifecycle_matrix(&make, label_oracle, &classification_probes(), &stream, 70, "NaiveCp");
}

#[test]
fn tesseract_resumes_bit_identically() {
    let records = classification_records(80, 7);
    let validation: Vec<LabeledOutcome> = (0..60)
        .map(|i| {
            let conf = 0.6 + 0.35 * ((i * 5 % 11) as f64 / 11.0);
            if i % 4 == 0 {
                LabeledOutcome { probs: vec![0.52, 0.26, 0.22], correct: false }
            } else {
                LabeledOutcome {
                    probs: vec![conf, (1.0 - conf) / 2.0, (1.0 - conf) / 2.0],
                    correct: true,
                }
            }
        })
        .collect();
    let stream = classification_stream(44, 8);
    let make =
        move || -> Box<dyn DriftDetector> { Box::new(Tesseract::fit(&records, &validation, 3)) };
    lifecycle_matrix(&make, label_oracle, &classification_probes(), &stream, 70, "Tesseract");
}

#[test]
fn rise_resumes_bit_identically() {
    let records = classification_records(80, 9);
    let validation: Vec<LabeledOutcome> = (0..60)
        .map(|i| {
            let conf = 0.6 + 0.35 * ((i * 3 % 13) as f64 / 13.0);
            LabeledOutcome {
                probs: vec![conf, (1.0 - conf) / 2.0, (1.0 - conf) / 2.0],
                correct: i % 4 != 0,
            }
        })
        .collect();
    let stream = classification_stream(44, 10);
    let make =
        move || -> Box<dyn DriftDetector> { Box::new(Rise::fit(&records, &validation, 0.1)) };
    lifecycle_matrix(&make, label_oracle, &classification_probes(), &stream, 70, "Rise");
}

#[test]
fn pipeline_eviction_matches_a_from_scratch_refit_on_survivors() {
    // Drive an online pipeline with sliding-window eviction, record every
    // relabel the oracle answers, then refit a second classifier from
    // scratch on exactly the surviving window — the retained base suffix
    // plus the absorbs in arrival order. Their p-values must match bit
    // for bit: eviction changes *which* records judge, never how.
    let base = classification_records(90, 11);
    let stream = classification_stream(44, 12);
    let config = PipelineConfig {
        window: 8,
        shards: 1,
        budget: RelabelBudget { fraction: 1.0, min_count: 1 },
        policy: CalibrationPolicy::GrowUnbounded,
        eviction: BaseEviction::SlidingWindow { per_absorb: 2, min_base: 40 },
        ..Default::default()
    };
    let mut detector = PromClassifier::new(base.clone(), PromConfig::default()).unwrap();
    let absorbed: std::sync::Mutex<Vec<CalibrationRecord>> = std::sync::Mutex::new(Vec::new());
    {
        let mut pipeline =
            DeploymentPipeline::online(&mut detector, config, |global, sample: &Sample| {
                let label = global % 3;
                absorbed.lock().unwrap().push(CalibrationRecord::new(
                    sample.embedding.clone(),
                    sample.outputs.clone(),
                    label,
                ));
                Some(Truth::Label(label))
            });
        let mut reports = pipeline.extend(stream.iter().cloned());
        while let Some(report) = pipeline.flush() {
            reports.push(report);
        }
        let total_absorbed: usize = reports.iter().map(|r| r.absorbed).sum();
        assert!(total_absorbed > 0, "the drifting stream must absorb something");
        assert_eq!(
            total_absorbed,
            absorbed.lock().unwrap().len(),
            "GrowUnbounded absorbs every answered pick on a clean stream"
        );
    }

    let evicted = base.len() - detector.base_record_len();
    assert!(evicted > 0, "eviction must have fired");
    let mut survivors = base[evicted..].to_vec();
    survivors.extend(absorbed.into_inner().unwrap());
    let refit = PromClassifier::new(survivors, PromConfig::default()).unwrap();

    for (embedding, probs) in classification_probes() {
        let lived = detector.expert_p_values(&embedding, &probs);
        let refitted = refit.expert_p_values(&embedding, &probs);
        for (expert, (a, b)) in lived.iter().zip(refitted.iter()).enumerate() {
            let bits_a: Vec<u64> = a.iter().map(|p| p.to_bits()).collect();
            let bits_b: Vec<u64> = b.iter().map(|p| p.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "expert {expert} p-values diverge on {embedding:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Golden snapshot fixture: the committed bytes of a mid-stream snapshot.
// Restoring them must keep reproducing the uninterrupted run, so any
// format change that would orphan previously saved state fails here.
// ---------------------------------------------------------------------------

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_snapshot.json");
/// Pushes before the golden snapshot was taken: 3 full windows judged,
/// 5 samples buffered mid-window.
const GOLDEN_CUT: usize = 29;

/// The fixed scenario the golden fixture freezes: a `PromClassifier`
/// under reservoir calibration with sliding-window base eviction.
fn golden_scenario() -> (Vec<CalibrationRecord>, Vec<Sample>, PipelineConfig) {
    let records = classification_records(80, 41);
    let stream = classification_stream(60, 43);
    let config = PipelineConfig {
        window: 8,
        shards: 1,
        budget: RelabelBudget { fraction: 1.0, min_count: 1 },
        policy: CalibrationPolicy::Reservoir { cap: 5, seed: 17 },
        eviction: BaseEviction::SlidingWindow { per_absorb: 1, min_base: 60 },
        ..Default::default()
    };
    (records, stream, config)
}

#[test]
fn golden_snapshot_restores_and_replays_bit_identically() {
    let (records, stream, config) = golden_scenario();
    let json = std::fs::read_to_string(GOLDEN_PATH).expect(
        "tests/fixtures/golden_snapshot.json is committed; regenerate with the ignored test",
    );
    let value: Value = serde::from_json_str(&json).expect("the golden fixture parses");

    // The expected tail: the same scenario never interrupted.
    let mut reference_det = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
    let (expected_reports, expected_stats) = {
        let mut pipeline = DeploymentPipeline::online(&mut reference_det, config, label_oracle);
        let mut reports = pipeline.extend(stream.iter().cloned());
        while let Some(report) = pipeline.flush() {
            reports.push(report);
        }
        (reports, pipeline.stats())
    };

    // Restore the committed bytes onto a fresh design-time detector and
    // replay the rest of the stream.
    let mut restored_det = PromClassifier::new(records, PromConfig::default()).unwrap();
    let (tail_reports, tail_stats): (Vec<WindowReport>, PipelineStats) = {
        let mut pipeline =
            DeploymentPipeline::restore_online(&mut restored_det, config, label_oracle, &value)
                .expect(
                    "the golden fixture must keep restoring — this failure means the \
                         snapshot format changed incompatibly",
                );
        let mut reports = pipeline.extend(stream[GOLDEN_CUT..].iter().cloned());
        while let Some(report) = pipeline.flush() {
            reports.push(report);
        }
        (reports, pipeline.stats())
    };

    assert_eq!(tail_stats, expected_stats, "lifetime stats diverge from the golden run");
    let already_reported = GOLDEN_CUT / config.window;
    assert_eq!(tail_reports.len(), expected_reports.len() - already_reported);
    for (report, expected) in tail_reports.iter().zip(&expected_reports[already_reported..]) {
        assert_eq!((report.index, report.start), (expected.index, expected.start));
        assert_eq!(report.judgements, expected.judgements, "window {}", expected.index);
        assert_eq!(report.flagged, expected.flagged, "window {}", expected.index);
        assert_eq!(report.relabel, expected.relabel, "window {}", expected.index);
        assert_eq!(report.absorbed, expected.absorbed, "window {}", expected.index);
    }
    assert_eq!(
        serde::to_json_string(&restored_det.snapshot_state().unwrap()),
        serde::to_json_string(&reference_det.snapshot_state().unwrap()),
        "final calibration states diverge from the golden run"
    );
}

/// Regenerates the golden fixture. Run manually after an *intentional*
/// format change (and say so in the commit):
///
/// ```text
/// cargo test --test lifecycle_equivalence regenerate_golden_snapshot -- --ignored
/// ```
#[test]
#[ignore = "writes tests/fixtures/golden_snapshot.json; run on intentional format changes"]
fn regenerate_golden_snapshot() {
    let (records, stream, config) = golden_scenario();
    let mut detector = PromClassifier::new(records, PromConfig::default()).unwrap();
    let mut pipeline = DeploymentPipeline::online(&mut detector, config, label_oracle);
    pipeline.extend(stream[..GOLDEN_CUT].iter().cloned());
    let value = pipeline.snapshot().expect("the golden pipeline snapshots");
    drop(pipeline);
    std::fs::write(GOLDEN_PATH, serde::to_json_string(&value) + "\n")
        .expect("fixture directory exists");
}
