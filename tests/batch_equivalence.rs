//! Batch/single/parallel equivalence: for every detector in the workspace —
//! `PromClassifier`, `PromRegressor`, and the three prior-work baselines —
//! `judge_batch` must return **bit-identical** judgements to looping
//! `judge_one` over the same stream, and sharded parallel judging
//! (`prom::core::pool::ShardPool`) must return bit-identical
//! judgements to sequential `judge_batch` for every shard count. The
//! batched and parallel paths exist purely to amortize and parallelize
//! per-call work; they must never change a decision.
//!
//! CI additionally runs this file with `--test-threads=1`, so a
//! shard-order bug cannot hide behind test-runner parallelism.

use prom::baselines::tesseract::LabeledOutcome;
use prom::baselines::{NaiveCp, Rise, Tesseract};
use prom::core::calibration::CalibrationRecord;
use prom::core::committee::PromConfig;
use prom::core::detector::{DriftDetector, Judgement, Sample};
use prom::core::pool::ShardPool;
use prom::core::predictor::PromClassifier;
use prom::core::regression::{ClusterChoice, PromRegressor, PromRegressorConfig, RegressionRecord};
use prom::ml::rng::{gaussian_with, rng_from_seed};
use rand::Rng;

/// A classification calibration set: three drifting clusters with varied,
/// imperfect model confidence.
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
            let assigned = if rng.gen_range(0.0..1.0) < 0.05 { (label + 1) % 3 } else { label };
            probs[assigned] = conf;
            CalibrationRecord::new(embedding, probs, label)
        })
        .collect()
}

/// A classification deployment stream mixing in-distribution and drifted
/// inputs.
fn classification_stream(n: usize, seed: u64) -> Vec<Sample> {
    let mut rng = rng_from_seed(seed ^ 0xbeef);
    (0..n)
        .map(|i| {
            let drifted = i % 4 == 0;
            let shift = if drifted { 400.0 } else { 0.0 };
            let label = i % 3;
            let centre = label as f64 * 4.0 + shift;
            let embedding =
                vec![gaussian_with(&mut rng, centre, 1.0), gaussian_with(&mut rng, -centre, 1.0)];
            let conf: f64 =
                if drifted { rng.gen_range(0.34..0.45) } else { rng.gen_range(0.55..0.95) };
            let mut probs = vec![(1.0 - conf) / 2.0; 3];
            probs[label] = conf;
            Sample::new(embedding, probs)
        })
        .collect()
}

fn assert_batch_equivalence(detector: &dyn DriftDetector, stream: &[Sample]) {
    let batched = detector.judge_batch(stream);
    let looped: Vec<Judgement> =
        stream.iter().map(|s| detector.judge_one(&s.embedding, &s.outputs)).collect();
    assert_eq!(batched.len(), looped.len(), "{}: length mismatch", detector.name());
    for (i, (b, l)) in batched.iter().zip(looped.iter()).enumerate() {
        assert_eq!(b, l, "{}: judgement {i} diverges between batch and loop", detector.name());
    }
    // The stream must exercise both outcomes, or equivalence is vacuous.
    assert!(batched.iter().any(|j| j.accepted), "{}: nothing accepted", detector.name());
    assert!(batched.iter().any(|j| !j.accepted), "{}: nothing rejected", detector.name());
}

/// Shard counts the parallel-equivalence tests sweep: degenerate, small,
/// coprime-to-window, and whatever the pipeline itself would pick.
fn shard_counts() -> [usize; 4] {
    [1, 2, 7, prom::core::pipeline::available_shards()]
}

fn assert_parallel_equivalence(detector: &dyn DriftDetector, stream: &[Sample]) {
    let sequential = detector.judge_batch(stream);
    for shards in shard_counts() {
        let pool = ShardPool::new(shards);
        let parallel = pool.judge(detector, stream);
        assert_eq!(
            parallel,
            sequential,
            "{}: sharded judging diverges from sequential at {shards} shards",
            detector.name()
        );
        // Empty and single-sample windows must also hold.
        assert!(pool.judge(detector, &[]).is_empty(), "{}", detector.name());
        assert_eq!(
            pool.judge(detector, &stream[..1]),
            sequential[..1],
            "{}: single-sample window diverges at {shards} shards",
            detector.name()
        );
    }
}

#[test]
fn classifier_batch_equals_looped_small_calibration() {
    // Below min_full_size: the whole calibration set is selected.
    let prom = PromClassifier::new(classification_records(90, 1), PromConfig::default()).unwrap();
    assert_batch_equivalence(&prom, &classification_stream(60, 1));
}

#[test]
fn classifier_batch_equals_looped_large_calibration() {
    // Above min_full_size: the nearest-fraction partition runs per sample.
    let prom = PromClassifier::new(classification_records(400, 2), PromConfig::default()).unwrap();
    assert_batch_equivalence(&prom, &classification_stream(60, 2));
}

#[test]
fn regressor_batch_equals_looped() {
    let mut rng = rng_from_seed(3);
    let records: Vec<RegressionRecord> = (0..250)
        .map(|_| {
            let x0 = rng.gen_range(-2.0..2.0);
            let x1 = rng.gen_range(-2.0..2.0);
            let target = x0 + x1;
            RegressionRecord::new(vec![x0, x1], target + gaussian_with(&mut rng, 0.0, 0.3), target)
        })
        .collect();
    let prom = PromRegressor::new(
        records,
        PromRegressorConfig { clusters: ClusterChoice::Fixed(4), ..Default::default() },
    )
    .unwrap();
    let stream: Vec<Sample> = (0..80)
        .map(|i| {
            let drifted = i % 3 == 0;
            let x0 = (i as f64 / 20.0) - 2.0 + if drifted { 25.0 } else { 0.0 };
            let prediction = x0 + 0.3 + if drifted { 10.0 } else { 0.0 };
            Sample::regression(vec![x0, 0.3], prediction)
        })
        .collect();
    assert_batch_equivalence(&prom, &stream);
}

#[test]
fn baselines_batch_equals_looped() {
    let records = classification_records(120, 4);
    let stream = classification_stream(80, 4);
    let validation: Vec<LabeledOutcome> = classification_stream(120, 5)
        .iter()
        .enumerate()
        .map(|(i, s)| LabeledOutcome { probs: s.outputs.clone(), correct: i % 4 != 0 })
        .collect();

    let naive = NaiveCp::new(&records, 0.1);
    assert_batch_equivalence(&naive, &stream);

    let tesseract = Tesseract::fit(&records, &validation, 3);
    assert_batch_equivalence(&tesseract, &stream);

    let rise = Rise::fit(&records, &validation, 0.1);
    assert_batch_equivalence(&rise, &stream);
}

#[test]
fn all_five_detectors_judge_identically_across_shard_counts() {
    let records = classification_records(400, 8);
    let stream = classification_stream(83, 8); // odd length: ragged shards
    let validation: Vec<LabeledOutcome> = classification_stream(120, 9)
        .iter()
        .enumerate()
        .map(|(i, s)| LabeledOutcome { probs: s.outputs.clone(), correct: i % 4 != 0 })
        .collect();

    let prom = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
    assert_parallel_equivalence(&prom, &stream);

    let small = PromClassifier::new(classification_records(90, 8), PromConfig::default()).unwrap();
    assert_parallel_equivalence(&small, &stream); // keep-everything selection

    assert_parallel_equivalence(&NaiveCp::new(&records, 0.1), &stream);
    assert_parallel_equivalence(&Tesseract::fit(&records, &validation, 3), &stream);
    assert_parallel_equivalence(&Rise::fit(&records, &validation, 0.1), &stream);

    let mut rng = rng_from_seed(10);
    let reg_records: Vec<RegressionRecord> = (0..250)
        .map(|_| {
            let x0 = rng.gen_range(-2.0..2.0);
            let x1 = rng.gen_range(-2.0..2.0);
            let target = x0 + x1;
            RegressionRecord::new(vec![x0, x1], target + gaussian_with(&mut rng, 0.0, 0.3), target)
        })
        .collect();
    let regressor = PromRegressor::new(
        reg_records,
        PromRegressorConfig { clusters: ClusterChoice::Fixed(4), ..Default::default() },
    )
    .unwrap();
    let reg_stream: Vec<Sample> = (0..83)
        .map(|i| {
            let drifted = i % 3 == 0;
            let x0 = (i as f64 / 20.0) - 2.0 + if drifted { 25.0 } else { 0.0 };
            Sample::regression(vec![x0, 0.3], x0 + 0.3 + if drifted { 10.0 } else { 0.0 })
        })
        .collect();
    assert_parallel_equivalence(&regressor, &reg_stream);
}

#[test]
fn rich_judgements_are_bitwise_identical_across_shards() {
    // The flat `Judgement` carries no floats; assert the full per-expert
    // credibility/confidence bits survive sharding on the rich path the
    // eval harness uses (`ShardPool::map` over `PromClassifier::judge_batch`).
    let prom = PromClassifier::new(classification_records(400, 11), PromConfig::default()).unwrap();
    let stream = classification_stream(61, 11);
    let sequential = prom.judge_batch(&stream);
    for shards in shard_counts() {
        let parallel = ShardPool::new(shards).map(&stream, |chunk, _| prom.judge_batch(chunk));
        assert_eq!(parallel.len(), sequential.len());
        for (i, (p, s)) in parallel.iter().zip(sequential.iter()).enumerate() {
            assert_eq!(p.accepted, s.accepted, "sample {i}, {shards} shards");
            assert_eq!(p.reject_votes, s.reject_votes, "sample {i}, {shards} shards");
            for (vp, vs) in p.verdicts.iter().zip(s.verdicts.iter()) {
                assert_eq!(
                    vp.credibility.to_bits(),
                    vs.credibility.to_bits(),
                    "sample {i}, {shards} shards"
                );
                assert_eq!(
                    vp.confidence.to_bits(),
                    vs.confidence.to_bits(),
                    "sample {i}, {shards} shards"
                );
                assert_eq!(vp.prediction_set_size, vs.prediction_set_size);
            }
        }
    }
}

#[test]
fn every_detector_is_uniformly_drivable_as_a_trait_object() {
    // The prom-eval harness pattern: heterogeneous detectors, one stream.
    let records = classification_records(150, 6);
    let stream = classification_stream(50, 6);
    let validation: Vec<LabeledOutcome> = classification_stream(100, 7)
        .iter()
        .enumerate()
        .map(|(i, s)| LabeledOutcome { probs: s.outputs.clone(), correct: i % 5 != 0 })
        .collect();

    let prom = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
    let naive = NaiveCp::new(&records, 0.1);
    let tesseract = Tesseract::fit(&records, &validation, 3);
    let rise = Rise::fit(&records, &validation, 0.1);
    let detectors: Vec<&dyn DriftDetector> = vec![&prom, &naive, &tesseract, &rise];

    let names: Vec<&str> = detectors.iter().map(|d| d.name()).collect();
    assert_eq!(names, vec!["PROM", "MAPIE-PUNCC", "TESSERACT", "RISE"]);
    for det in detectors {
        let judgements = det.judge_batch(&stream);
        assert_eq!(judgements.len(), stream.len());
        let reject_rate =
            judgements.iter().filter(|j| !j.accepted).count() as f64 / judgements.len() as f64;
        assert!(
            reject_rate < 1.0,
            "{}: rejected everything on a mostly in-distribution stream",
            det.name()
        );
    }
}
