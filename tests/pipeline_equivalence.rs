//! Pipeline equivalence: the shard executor
//! (`prom::core::pool::ShardPool`) and the sharded `DeploymentPipeline`
//! built on it exist purely to parallelize work — they must never change
//! an output. This tier proves,
//! for every detector in the workspace and across shard counts
//! {1, 2, 7, #cpus}:
//!
//! * **pool == sequential**, bit-for-bit, on the flat `Judgement` path
//!   (sequential `judge_batch` is the reference) and on the rich
//!   `PromJudgement` path (per-expert credibility/confidence bits);
//! * **windowed reports are mode-independent**: a pooled
//!   `DeploymentPipeline` produces byte-identical
//!   `WindowReport`s — judgements, flagged/relabel indices, absorption
//!   counts, calibration sizes — to the inline sequential pipeline,
//!   ragged final window included;
//! * **online mode is mode-independent too**: under
//!   `CalibrationPolicy::Reservoir { cap, seed }` the reports *and the
//!   detector's post-run live calibration set* come out bit-identical,
//!   for every detector's incremental absorb/replace path;
//! * **panic hygiene**: a panicking judgement inside a shard surfaces on
//!   the caller thread (no hang, no half-judged window corrupting later
//!   ones, the pool still usable);
//! * **(proptest)** arbitrarily interleaved `push`/`flush` at any shard
//!   count judges every pushed sample exactly once, in input order;
//! * **multi-detector fan-out changes nothing**: a `MultiPipeline` over N
//!   detectors produces, per detector, byte-identical reports — and, in
//!   online mode, bit-identical post-run calibration sets — to N
//!   independent single-detector pipelines over the same stream, for both
//!   selection policies, frozen and reservoir-online, pooled, ragged
//!   tails included;
//! * **selection policies are what they claim**:
//!   `SelectionPolicy::RejectVote` reproduces the PR 2–4 pipeline exactly
//!   (manual `judge_batch` + `select_flagged` reference), and
//!   `CredibilityRank` picks exactly what `select_for_relabeling` ranks
//!   over the window's rich judgements, flags and judgements unchanged.
//!
//! CI additionally runs this file with `--test-threads=1`, so a
//! stitch-order bug cannot hide behind test-runner parallelism.

use std::panic::AssertUnwindSafe;

use proptest::prelude::*;

use prom::baselines::tesseract::LabeledOutcome;
use prom::baselines::{NaiveCp, Rise, Tesseract};
use prom::core::calibration::CalibrationRecord;
use prom::core::committee::PromConfig;
use prom::core::detector::{DriftDetector, Judgement, Sample, Truth};
use prom::core::incremental::{select_flagged, select_for_relabeling, RelabelBudget};
use prom::core::pipeline::{
    available_shards, CalibrationPolicy, DeploymentPipeline, MultiPipeline, MultiReport,
    PipelineConfig, SelectionPolicy, WindowReport,
};
use prom::core::pool::ShardPool;
use prom::core::predictor::PromClassifier;
use prom::core::regression::{ClusterChoice, PromRegressor, PromRegressorConfig, RegressionRecord};
use prom::core::scoring::ScoreTable;
use prom::ml::rng::{gaussian_with, rng_from_seed};
use rand::Rng;

/// Shard counts the equivalence sweep covers: degenerate, small,
/// coprime-to-window, and whatever the pipeline itself would pick.
fn shard_counts() -> [usize; 4] {
    [1, 2, 7, available_shards()]
}

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

fn validation_outcomes(seed: u64) -> Vec<LabeledOutcome> {
    classification_stream(120, seed)
        .iter()
        .enumerate()
        .map(|(i, s)| LabeledOutcome { probs: s.outputs.clone(), correct: i % 4 != 0 })
        .collect()
}

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

fn regression_stream(n: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let drifted = i % 3 == 0;
            let x0 = (i as f64 / 20.0) - 2.0 + if drifted { 25.0 } else { 0.0 };
            Sample::regression(vec![x0, 0.3], x0 + 0.3 + if drifted { 10.0 } else { 0.0 })
        })
        .collect()
}

/// pool == sequential, for one detector and stream.
fn assert_pool_equivalence(detector: &dyn DriftDetector, stream: &[Sample]) {
    let sequential = detector.judge_batch(stream);
    assert!(sequential.iter().any(|j| j.accepted), "{}: nothing accepted", detector.name());
    assert!(sequential.iter().any(|j| !j.accepted), "{}: nothing rejected", detector.name());
    for shards in shard_counts() {
        let fresh = ShardPool::new(shards).judge(detector, stream);
        assert_eq!(
            fresh,
            sequential,
            "{}: fresh pool diverges at {shards} shards",
            detector.name()
        );
        let pool = ShardPool::new(shards);
        // Twice through the same pool: per-shard scratches carry state
        // between windows only if a bug lets them.
        for round in 0..2 {
            assert_eq!(
                pool.judge(detector, stream),
                sequential,
                "{}: pool diverges at {shards} workers (round {round})",
                detector.name()
            );
        }
        assert!(pool.judge(detector, &[]).is_empty(), "{}", detector.name());
        assert_eq!(
            pool.judge(detector, &stream[..1]),
            sequential[..1],
            "{}: single-sample window diverges at {shards} workers",
            detector.name()
        );
    }
}

#[test]
fn all_five_detectors_judge_identically_on_pool_scoped_and_sequential() {
    let records = classification_records(400, 8);
    let stream = classification_stream(83, 8); // odd length: ragged shards
    let validation = validation_outcomes(9);

    let prom = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
    assert_pool_equivalence(&prom, &stream);

    // Keep-everything selection mode too.
    let small = PromClassifier::new(classification_records(90, 8), PromConfig::default()).unwrap();
    assert_pool_equivalence(&small, &stream);

    assert_pool_equivalence(&NaiveCp::new(&records, 0.1), &stream);
    assert_pool_equivalence(&Tesseract::fit(&records, &validation, 3), &stream);
    assert_pool_equivalence(&Rise::fit(&records, &validation, 0.1), &stream);

    let regressor = PromRegressor::new(
        regression_records(250, 10),
        PromRegressorConfig { clusters: ClusterChoice::Fixed(4), ..Default::default() },
    )
    .unwrap();
    assert_pool_equivalence(&regressor, &regression_stream(83));
}

#[test]
fn rich_judgements_are_bitwise_identical_on_the_pool() {
    let prom = PromClassifier::new(classification_records(400, 11), PromConfig::default()).unwrap();
    let stream = classification_stream(61, 11);
    let sequential = prom.judge_batch(&stream);
    for shards in shard_counts() {
        let pool = ShardPool::new(shards);
        let pooled = pool.judge_rich(&prom, &stream).expect("classifier judges rich");
        assert_eq!(pooled.len(), sequential.len());
        for (i, (p, s)) in pooled.iter().zip(sequential.iter()).enumerate() {
            assert_eq!(p.accepted, s.accepted, "sample {i}, {shards} workers");
            assert_eq!(p.reject_votes, s.reject_votes, "sample {i}, {shards} workers");
            for (vp, vs) in p.verdicts.iter().zip(s.verdicts.iter()) {
                assert_eq!(vp.credibility.to_bits(), vs.credibility.to_bits(), "sample {i}");
                assert_eq!(vp.confidence.to_bits(), vs.confidence.to_bits(), "sample {i}");
                assert_eq!(vp.prediction_set_size, vs.prediction_set_size, "sample {i}");
            }
        }
    }

    // The regressor's rich path shards identically too.
    let regressor = PromRegressor::new(
        regression_records(200, 12),
        PromRegressorConfig { clusters: ClusterChoice::Fixed(3), ..Default::default() },
    )
    .unwrap();
    let stream = regression_stream(45);
    let sequential = regressor.judge_batch(&stream);
    let pool = ShardPool::new(7);
    let pooled = pool.judge_rich(&regressor, &stream).expect("regressor judges rich");
    for (i, (p, s)) in pooled.iter().zip(sequential.iter()).enumerate() {
        assert_eq!(p.accepted, s.accepted, "sample {i}");
        for (vp, vs) in p.verdicts.iter().zip(s.verdicts.iter()) {
            assert_eq!(vp.credibility.to_bits(), vs.credibility.to_bits(), "sample {i}");
        }
    }

    // Single-function detectors have no rich form — the pool says so
    // instead of fabricating one.
    let naive = NaiveCp::new(&classification_records(60, 13), 0.1);
    assert!(pool.judge_rich(&naive, &stream[..0]).is_none());
}

/// Every report field the pipeline promises to keep deterministic.
fn assert_reports_identical(reference: &[WindowReport], candidate: &[WindowReport], context: &str) {
    assert_eq!(reference.len(), candidate.len(), "{context}: window counts diverge");
    for (a, b) in reference.iter().zip(candidate.iter()) {
        assert_eq!(a.index, b.index, "{context}: window index");
        assert_eq!(a.start, b.start, "{context}: window start");
        assert_eq!(a.judgements, b.judgements, "{context}: judgements, window {}", a.index);
        assert_eq!(a.flagged, b.flagged, "{context}: flagged, window {}", a.index);
        assert_eq!(a.relabel, b.relabel, "{context}: relabel, window {}", a.index);
        assert_eq!(a.absorbed, b.absorbed, "{context}: absorbed, window {}", a.index);
        assert_eq!(
            a.calibration_size, b.calibration_size,
            "{context}: calibration size, window {}",
            a.index
        );
    }
}

/// Runs a frozen pipeline over the stream in the given mode and returns
/// every report, tail included.
fn run_frozen(
    detector: &dyn DriftDetector,
    stream: &[Sample],
    window: usize,
    shards: usize,
) -> (Vec<WindowReport>, usize) {
    let mut pipeline =
        DeploymentPipeline::new(detector, PipelineConfig { window, shards, ..Default::default() });
    let mut reports = pipeline.extend(stream.iter().cloned());
    while let Some(report) = pipeline.flush() {
        reports.push(report);
    }
    let judged = pipeline.stats().judged;
    (reports, judged)
}

#[test]
fn frozen_pipeline_reports_are_identical_across_execution_modes() {
    let records = classification_records(300, 21);
    let stream = classification_stream(101, 21); // 101 % 16 != 0: ragged tail
    let validation = validation_outcomes(22);
    let prom = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
    let naive = NaiveCp::new(&records, 0.1);
    let tesseract = Tesseract::fit(&records, &validation, 3);
    let rise = Rise::fit(&records, &validation, 0.1);
    let detectors: Vec<&dyn DriftDetector> = vec![&prom, &naive, &tesseract, &rise];

    for detector in detectors {
        let (reference, judged) = run_frozen(detector, &stream, 16, 1);
        assert_eq!(judged, stream.len());
        for shards in shard_counts() {
            let (candidate, judged) = run_frozen(detector, &stream, 16, shards);
            assert_eq!(judged, stream.len());
            assert_reports_identical(
                &reference,
                &candidate,
                &format!("{} shards={shards}", detector.name()),
            );
        }
    }

    // The regressor streams through the same windows.
    let regressor = PromRegressor::new(
        regression_records(250, 23),
        PromRegressorConfig { clusters: ClusterChoice::Fixed(4), ..Default::default() },
    )
    .unwrap();
    let stream = regression_stream(77);
    let (reference, _) = run_frozen(&regressor, &stream, 16, 1);
    for shards in shard_counts() {
        let (candidate, _) = run_frozen(&regressor, &stream, 16, shards);
        assert_reports_identical(&reference, &candidate, &format!("regressor shards={shards}"));
    }
}

/// Runs an online classification pipeline (reservoir policy) in the given
/// mode over a freshly built detector, returning the reports; the caller
/// inspects the mutated detector afterwards.
fn run_online(
    detector: &mut dyn DriftDetector,
    stream: &[Sample],
    shards: usize,
) -> Vec<WindowReport> {
    let mut pipeline = DeploymentPipeline::online(
        detector,
        PipelineConfig {
            window: 16,
            shards,
            budget: prom::core::incremental::RelabelBudget { fraction: 1.0, min_count: 1 },
            policy: CalibrationPolicy::Reservoir { cap: 9, seed: 7 },
            ..Default::default()
        },
        |global, _s| Some(Truth::Label(global % 3)),
    );
    let mut reports = pipeline.extend(stream.iter().cloned());
    while let Some(report) = pipeline.flush() {
        reports.push(report);
    }
    reports
}

fn assert_score_tables_identical(a: &ScoreTable, b: &ScoreTable, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: table sizes diverge");
    assert_eq!(a.n_labels(), b.n_labels(), "{context}: label counts diverge");
    for label in 0..a.n_labels() {
        let bits_a: Vec<u64> = a.scores(label).iter().map(|s| s.to_bits()).collect();
        let bits_b: Vec<u64> = b.scores(label).iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "{context}: label {label} buckets diverge");
    }
}

#[test]
fn online_reservoir_absorption_is_identical_across_modes_for_the_classifier() {
    let records = classification_records(120, 31);
    let stream = classification_stream(130, 31);
    let probes = classification_stream(20, 32);

    let mut reference = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
    let reference_reports = run_online(&mut reference, &stream, 1);
    assert!(
        reference_reports.iter().map(|r| r.absorbed).sum::<usize>() > 9,
        "the stream must absorb past the reservoir cap to exercise replacement"
    );

    for shards in [2, 7, available_shards()] {
        let mut candidate = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
        let candidate_reports = run_online(&mut candidate, &stream, shards);
        let context = format!("classifier shards={shards}");
        assert_reports_identical(&reference_reports, &candidate_reports, &context);

        // The live calibration set itself ended up bit-identical: same
        // size, same per-expert p-values everywhere.
        assert_eq!(reference.calibration_len(), candidate.calibration_len(), "{context}");
        for probe in &probes {
            let pa = reference.expert_p_values(&probe.embedding, &probe.outputs);
            let pb = candidate.expert_p_values(&probe.embedding, &probe.outputs);
            for (ea, eb) in pa.iter().zip(pb.iter()) {
                let bits_a: Vec<u64> = ea.iter().map(|p| p.to_bits()).collect();
                let bits_b: Vec<u64> = eb.iter().map(|p| p.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "{context}: post-run p-values diverge");
            }
        }
    }
}

#[test]
fn online_reservoir_absorption_is_identical_across_modes_for_table_baselines() {
    let records = classification_records(100, 41);
    let stream = classification_stream(140, 41);
    let validation = validation_outcomes(42);

    // NaiveCp.
    let mut reference = NaiveCp::new(&records, 0.1);
    let reference_reports = run_online(&mut reference, &stream, 1);
    assert!(reference_reports.iter().map(|r| r.absorbed).sum::<usize>() > 9);
    for shards in [2, 7, available_shards()] {
        let mut candidate = NaiveCp::new(&records, 0.1);
        let candidate_reports = run_online(&mut candidate, &stream, shards);
        let context = format!("naive-cp shards={shards}");
        assert_reports_identical(&reference_reports, &candidate_reports, &context);
        assert_score_tables_identical(reference.score_table(), candidate.score_table(), &context);
    }

    // Tesseract.
    let mut reference = Tesseract::fit(&records, &validation, 3);
    let reference_reports = run_online(&mut reference, &stream, 1);
    assert!(reference_reports.iter().map(|r| r.absorbed).sum::<usize>() > 9);
    for shards in [2, available_shards()] {
        let mut candidate = Tesseract::fit(&records, &validation, 3);
        let candidate_reports = run_online(&mut candidate, &stream, shards);
        let context = format!("tesseract shards={shards}");
        assert_reports_identical(&reference_reports, &candidate_reports, &context);
        assert_score_tables_identical(reference.score_table(), candidate.score_table(), &context);
        assert_eq!(reference.thresholds(), candidate.thresholds(), "{context}");
    }

    // Rise.
    let mut reference = Rise::fit(&records, &validation, 0.1);
    let reference_reports = run_online(&mut reference, &stream, 1);
    for shards in [2, available_shards()] {
        let mut candidate = Rise::fit(&records, &validation, 0.1);
        let candidate_reports = run_online(&mut candidate, &stream, shards);
        let context = format!("rise shards={shards}");
        assert_reports_identical(&reference_reports, &candidate_reports, &context);
        assert_score_tables_identical(reference.score_table(), candidate.score_table(), &context);
    }
}

#[test]
fn online_reservoir_absorption_is_identical_across_modes_for_the_regressor() {
    let records = regression_records(150, 51);
    let stream = regression_stream(120);
    let probes = regression_stream(25);
    let config = PromRegressorConfig { clusters: ClusterChoice::Fixed(4), ..Default::default() };

    let run = |detector: &mut PromRegressor, shards: usize| {
        let mut pipeline = DeploymentPipeline::online(
            detector,
            PipelineConfig {
                window: 16,
                shards,
                budget: prom::core::incremental::RelabelBudget { fraction: 1.0, min_count: 1 },
                policy: CalibrationPolicy::Reservoir { cap: 9, seed: 3 },
                ..Default::default()
            },
            // The expert measures the true target of the drifted stream.
            |global, s: &Sample| Some(Truth::Target(s.embedding[0] + 0.3 + global as f64 * 1e-3)),
        );
        let mut reports = pipeline.extend(stream.iter().cloned());
        while let Some(report) = pipeline.flush() {
            reports.push(report);
        }
        reports
    };

    let mut reference = PromRegressor::new(records.clone(), config.clone()).unwrap();
    let reference_reports = run(&mut reference, 1);
    assert!(reference_reports.iter().map(|r| r.absorbed).sum::<usize>() > 9);

    for shards in [2, available_shards()] {
        let mut candidate = PromRegressor::new(records.clone(), config.clone()).unwrap();
        let candidate_reports = run(&mut candidate, shards);
        let context = format!("regressor shards={shards}");
        assert_reports_identical(&reference_reports, &candidate_reports, &context);
        assert_eq!(reference.calibration_len(), candidate.calibration_len(), "{context}");
        let ja = reference.judge_batch(&probes);
        let jb = candidate.judge_batch(&probes);
        for (i, (a, b)) in ja.iter().zip(jb.iter()).enumerate() {
            assert_eq!(a.accepted, b.accepted, "{context}: probe {i}");
            for (va, vb) in a.verdicts.iter().zip(b.verdicts.iter()) {
                assert_eq!(
                    va.credibility.to_bits(),
                    vb.credibility.to_bits(),
                    "{context}: probe {i}"
                );
            }
        }
    }
}

/// Judges like a threshold detector but panics on a poisoned embedding —
/// the pill for the panic-hygiene assertions.
struct Poisonable;

impl DriftDetector for Poisonable {
    fn name(&self) -> &'static str {
        "poisonable"
    }

    fn judge_one(&self, embedding: &[f64], outputs: &[f64]) -> Judgement {
        assert!(embedding[0].is_finite(), "poison pill reached the judge");
        Judgement::single(outputs[0] < 0.5)
    }
}

fn plain_stream(n: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let conf = 0.2 + 0.6 * ((i % 7) as f64 / 6.0);
            Sample::new(vec![i as f64], vec![conf, 1.0 - conf])
        })
        .collect()
}

#[test]
fn shard_worker_panic_surfaces_on_the_caller_without_deadlock_or_poison() {
    let det = Poisonable;
    let pool = ShardPool::new(4);
    let mut poisoned = plain_stream(23);
    poisoned[11].embedding[0] = f64::INFINITY;

    let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.judge(&det, &poisoned)))
        .expect_err("a poisoned window must surface the worker panic on the caller");
    let message = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(message.contains("poison pill"), "unexpected panic payload: {message}");

    // The pool survives: every shard still judges, and the next
    // window's results are bit-identical to sequential judging.
    let clean = plain_stream(31);
    for _ in 0..3 {
        assert_eq!(pool.judge(&det, &clean), det.judge_batch(&clean));
    }
}

#[test]
fn pipeline_survives_a_panicking_window_and_keeps_judging() {
    let det = Poisonable;
    let mut pipeline = DeploymentPipeline::new(
        &det,
        PipelineConfig { window: 8, shards: 3, ..Default::default() },
    );
    let mut stream = plain_stream(8);
    stream[3].embedding[0] = f64::NAN;
    let last = stream.pop().expect("eight samples");
    for s in stream {
        assert!(pipeline.push(s).is_none(), "window 0 is still filling");
    }
    // Judging the poisoned window re-raises the worker panic here, on
    // the caller thread — not a hang, not a truncated report.
    let err = std::panic::catch_unwind(AssertUnwindSafe(|| pipeline.push(last)))
        .expect_err("the push that fills the window must surface the shard panic");
    drop(err);

    // The pipeline (and its pool) remain usable: later windows report
    // exactly like a fresh sequential pipeline, with monotone indices.
    let clean = plain_stream(16);
    let reports = pipeline.extend(clean.iter().cloned());
    let mut reports = reports;
    while let Some(report) = pipeline.flush() {
        reports.push(report);
    }
    assert_eq!(reports.len(), 2);
    let judgements: Vec<Judgement> =
        reports.iter().flat_map(|r| r.judgements.iter().cloned()).collect();
    assert_eq!(judgements, det.judge_batch(&clean));
    assert!(reports[1].start > reports[0].start, "stream indices stay monotone");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// At any shard count, any interleaving of `push` and `flush` judges
    /// every pushed sample exactly once, in input order, across
    /// contiguous windows.
    #[test]
    fn interleaved_push_flush_judges_every_sample_exactly_once_in_order(
        ops in proptest::collection::vec(0u8..8, 1..120),
        window in 1usize..7,
        shards in 1usize..5,
    ) {
        let det = Poisonable;
        let mut pipeline = DeploymentPipeline::new(
            &det,
            PipelineConfig { window, shards, ..Default::default() },
        );
        let mut pushed: Vec<Sample> = Vec::new();
        let mut reports: Vec<WindowReport> = Vec::new();
        for &op in &ops {
            if op < 6 {
                // Push a fresh deterministic sample.
                let i = pushed.len();
                let conf = 0.2 + 0.6 * ((i % 7) as f64 / 6.0);
                let sample = Sample::new(vec![i as f64], vec![conf, 1.0 - conf]);
                pushed.push(sample.clone());
                reports.extend(pipeline.push(sample));
            } else {
                // Mid-stream flush: judges the partial buffer, if any, as
                // its own window.
                reports.extend(pipeline.flush());
            }
        }
        while let Some(report) = pipeline.flush() {
            reports.push(report);
        }
        prop_assert_eq!(pipeline.stats().judged, pushed.len());
        prop_assert_eq!(pipeline.pending(), 0);

        // Reports cover the stream contiguously, in order…
        let mut next = 0usize;
        for (i, report) in reports.iter().enumerate() {
            prop_assert_eq!(report.index, i);
            prop_assert_eq!(report.start, next);
            next += report.judgements.len();
        }
        prop_assert_eq!(next, pushed.len());

        // …and the concatenated judgements equal one sequential batch
        // over everything pushed (per-sample purity makes windowing
        // irrelevant).
        let stitched: Vec<Judgement> =
            reports.iter().flat_map(|r| r.judgements.iter().cloned()).collect();
        prop_assert_eq!(stitched, det.judge_batch(&pushed));
    }
}

// ---------------------------------------------------------------------------
// Multi-detector fan-out tier: MultiPipeline == N independent pipelines.
// ---------------------------------------------------------------------------

/// Runs one frozen single-detector pipeline over the stream (tail
/// included) and returns every report.
fn run_single(
    detector: &dyn DriftDetector,
    stream: &[Sample],
    config: PipelineConfig,
) -> Vec<WindowReport> {
    let mut pipeline = DeploymentPipeline::new(detector, config);
    let mut reports = pipeline.extend(stream.iter().cloned());
    while let Some(report) = pipeline.flush() {
        reports.push(report);
    }
    reports
}

/// Runs one frozen multi-detector pipeline over the stream (tail
/// included) and returns every window's report set.
fn run_multi(
    detectors: Vec<&dyn DriftDetector>,
    stream: &[Sample],
    config: PipelineConfig,
) -> Vec<MultiReport> {
    let mut pipeline = MultiPipeline::new(detectors, config);
    let mut reports = pipeline.extend(stream.iter().cloned());
    while let Some(report) = pipeline.flush() {
        reports.push(report);
    }
    reports
}

/// Per-detector slice of a multi run: window reports of detector `d`.
fn detector_reports(multi: &[MultiReport], d: usize) -> Vec<WindowReport> {
    multi.iter().map(|m| m.reports[d].clone()).collect()
}

#[test]
fn multi_pipeline_matches_independent_pipelines_for_all_detectors_frozen() {
    let records = classification_records(300, 61);
    let stream = classification_stream(101, 61); // 101 % 16 != 0: ragged tail
    let validation = validation_outcomes(62);
    let prom = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
    let naive = NaiveCp::new(&records, 0.1);
    let tesseract = Tesseract::fit(&records, &validation, 3);
    let rise = Rise::fit(&records, &validation, 0.1);
    let detectors: Vec<&dyn DriftDetector> = vec![&prom, &naive, &tesseract, &rise];

    for selection in [SelectionPolicy::RejectVote, SelectionPolicy::CredibilityRank] {
        for shards in [1, 7, 2, available_shards()] {
            let config = PipelineConfig { window: 16, shards, selection, ..Default::default() };
            let multi = run_multi(detectors.clone(), &stream, config);
            assert_eq!(multi.len(), stream.len().div_ceil(16));
            for (d, detector) in detectors.iter().enumerate() {
                let context =
                    format!("{} d={d} sel={selection:?} shards={shards}", detector.name());
                let single = run_single(*detector, &stream, config);
                assert_reports_identical(&single, &detector_reports(&multi, d), &context);
            }
        }
    }
}

#[test]
fn multi_pipeline_matches_independent_pipelines_for_the_regressor() {
    let records = regression_records(200, 63);
    let stream = regression_stream(77);
    let config = PromRegressorConfig { clusters: ClusterChoice::Fixed(4), ..Default::default() };
    let a = PromRegressor::new(records.clone(), config.clone()).unwrap();
    let b = PromRegressor::new(
        records,
        PromRegressorConfig { clusters: ClusterChoice::Fixed(2), ..config },
    )
    .unwrap();
    let detectors: Vec<&dyn DriftDetector> = vec![&a, &b];
    for selection in [SelectionPolicy::RejectVote, SelectionPolicy::CredibilityRank] {
        let pipeline_config =
            PipelineConfig { window: 16, shards: 7, selection, ..Default::default() };
        let multi = run_multi(detectors.clone(), &stream, pipeline_config);
        for (d, detector) in detectors.iter().enumerate() {
            let single = run_single(*detector, &stream, pipeline_config);
            let context = format!("regressor d={d} sel={selection:?}");
            assert_reports_identical(&single, &detector_reports(&multi, d), &context);
        }
    }
}

/// Runs an online reservoir pipeline (single) for one detector — the
/// reference the multi-detector online runs are compared against.
fn run_single_online(
    detector: &mut dyn DriftDetector,
    stream: &[Sample],
    selection: SelectionPolicy,
) -> Vec<WindowReport> {
    let mut pipeline = DeploymentPipeline::online(
        detector,
        PipelineConfig {
            window: 16,
            shards: 2,
            budget: RelabelBudget { fraction: 1.0, min_count: 1 },
            selection,
            policy: CalibrationPolicy::Reservoir { cap: 9, seed: 7 },
            ..Default::default()
        },
        |global, _s| Some(Truth::Label(global % 3)),
    );
    let mut reports = pipeline.extend(stream.iter().cloned());
    while let Some(report) = pipeline.flush() {
        reports.push(report);
    }
    reports
}

#[test]
fn multi_pipeline_online_reservoir_matches_independent_pipelines() {
    let records = classification_records(120, 71);
    let stream = classification_stream(140, 71);
    let validation = validation_outcomes(72);
    let probes = classification_stream(20, 73);

    for selection in [SelectionPolicy::RejectVote, SelectionPolicy::CredibilityRank] {
        // Independent single-detector references, each over a fresh
        // detector.
        let mut prom_ref = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
        let mut naive_ref = NaiveCp::new(&records, 0.1);
        let mut tess_ref = Tesseract::fit(&records, &validation, 3);
        let prom_reports = run_single_online(&mut prom_ref, &stream, selection);
        let naive_reports = run_single_online(&mut naive_ref, &stream, selection);
        let tess_reports = run_single_online(&mut tess_ref, &stream, selection);
        assert!(
            prom_reports.iter().map(|r| r.absorbed).sum::<usize>() > 9,
            "the stream must absorb past the reservoir cap to exercise replacement"
        );

        // The same three detectors, rebuilt fresh, served by ONE
        // multi-detector pipeline over the same stream.
        let mut prom = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
        let mut naive = NaiveCp::new(&records, 0.1);
        let mut tess = Tesseract::fit(&records, &validation, 3);
        let mut multi = MultiPipeline::online(
            vec![&mut prom, &mut naive, &mut tess],
            PipelineConfig {
                window: 16,
                shards: 2,
                budget: RelabelBudget { fraction: 1.0, min_count: 1 },
                selection,
                policy: CalibrationPolicy::Reservoir { cap: 9, seed: 7 },
                ..Default::default()
            },
            |global, _s| Some(Truth::Label(global % 3)),
        );
        let mut reports = multi.extend(stream.iter().cloned());
        while let Some(report) = multi.flush() {
            reports.push(report);
        }
        drop(multi);

        let context = format!("multi-online sel={selection:?}");
        assert_reports_identical(&prom_reports, &detector_reports(&reports, 0), &context);
        assert_reports_identical(&naive_reports, &detector_reports(&reports, 1), &context);
        assert_reports_identical(&tess_reports, &detector_reports(&reports, 2), &context);

        // The live calibration state ended up bit-identical per detector.
        assert_eq!(prom_ref.calibration_len(), prom.calibration_len(), "{context}");
        for probe in &probes {
            let pa = prom_ref.expert_p_values(&probe.embedding, &probe.outputs);
            let pb = prom.expert_p_values(&probe.embedding, &probe.outputs);
            for (ea, eb) in pa.iter().zip(pb.iter()) {
                let bits_a: Vec<u64> = ea.iter().map(|p| p.to_bits()).collect();
                let bits_b: Vec<u64> = eb.iter().map(|p| p.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "{context}: post-run p-values diverge");
            }
        }
        assert_score_tables_identical(naive_ref.score_table(), naive.score_table(), &context);
        assert_score_tables_identical(tess_ref.score_table(), tess.score_table(), &context);
    }
}

#[test]
fn reject_vote_selection_is_the_pr2_reference_and_credibility_rank_is_ranked() {
    let prom = PromClassifier::new(classification_records(300, 81), PromConfig::default()).unwrap();
    let stream = classification_stream(90, 81);
    let budget = RelabelBudget { fraction: 0.5, min_count: 1 };

    // RejectVote ≡ the PR 2–4 pipeline: manual judge_batch +
    // select_flagged over each window is the committed reference.
    let config = PipelineConfig { window: 16, shards: 2, budget, ..Default::default() };
    assert_eq!(config.selection, SelectionPolicy::RejectVote, "RejectVote is the default");
    for report in run_single(&prom, &stream, config) {
        let window = &stream[report.start..report.start + report.judgements.len()];
        let judgements = DriftDetector::judge_batch(&prom, window);
        let expected: Vec<usize> =
            select_flagged(&judgements, budget).into_iter().map(|i| report.start + i).collect();
        assert_eq!(report.judgements, judgements, "window {}", report.index);
        assert_eq!(report.relabel, expected, "window {}", report.index);
    }

    // CredibilityRank picks exactly what select_for_relabeling ranks over
    // the window's rich judgements — flags and flat judgements unchanged.
    let rich_config = PipelineConfig { selection: SelectionPolicy::CredibilityRank, ..config };
    for (a, b) in
        run_single(&prom, &stream, config).iter().zip(run_single(&prom, &stream, rich_config))
    {
        let window = &stream[b.start..b.start + b.judgements.len()];
        let rich = PromClassifier::judge_batch(&prom, window);
        let expected: Vec<usize> =
            select_for_relabeling(&rich, budget).into_iter().map(|i| b.start + i).collect();
        assert_eq!(a.judgements, b.judgements, "window {}", b.index);
        assert_eq!(a.flagged, b.flagged, "window {}", b.index);
        assert_eq!(b.relabel, expected, "window {}", b.index);
    }
}

#[test]
fn multi_shared_budget_absorbs_identically_across_execution_modes() {
    let records = classification_records(100, 91);
    let stream = classification_stream(120, 91);

    let run = |shards: usize| {
        let mut prom_a = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
        let mut prom_b = PromClassifier::new(
            records.clone(),
            PromConfig { epsilon: 0.2, ..PromConfig::default() },
        )
        .unwrap();
        let mut multi = MultiPipeline::online(
            vec![&mut prom_a, &mut prom_b],
            PipelineConfig {
                window: 16,
                shards,
                budget: RelabelBudget { fraction: 0.5, min_count: 1 },
                selection: SelectionPolicy::CredibilityRank,
                policy: CalibrationPolicy::Reservoir { cap: 9, seed: 5 },
                ..Default::default()
            },
            |global, _s| Some(Truth::Label(global % 3)),
        )
        .shared_budget(0);
        let mut reports = multi.extend(stream.iter().cloned());
        while let Some(report) = multi.flush() {
            reports.push(report);
        }
        drop(multi);
        (reports, prom_a.calibration_len(), prom_b.calibration_len())
    };

    let (reference, ref_a, ref_b) = run(1);
    // The shared pick set is detector 0's selection, mirrored into every
    // detector's report.
    let mut any_picks = false;
    for multi in &reference {
        let [a, b] = &multi.reports[..] else { panic!("two detectors") };
        assert_eq!(a.relabel, b.relabel, "window {}", multi.index);
        any_picks |= !a.relabel.is_empty();
        for pick in &b.relabel {
            assert!(
                a.flagged.contains(pick),
                "shared picks come from the selector's flags (window {})",
                multi.index
            );
        }
    }
    assert!(any_picks, "the stream must select something");

    // And the whole shared-budget run is execution-mode independent.
    for shards in [7, 2, available_shards()] {
        let (candidate, cand_a, cand_b) = run(shards);
        let context = format!("shared-budget shards={shards}");
        assert_eq!(reference.len(), candidate.len(), "{context}");
        for (r, c) in reference.iter().zip(candidate.iter()) {
            for (d, (a, b)) in r.reports.iter().zip(c.reports.iter()).enumerate() {
                assert_reports_identical(
                    std::slice::from_ref(a),
                    std::slice::from_ref(b),
                    &format!("{context} d={d}"),
                );
            }
        }
        assert_eq!((ref_a, ref_b), (cand_a, cand_b), "{context}");
    }
}
