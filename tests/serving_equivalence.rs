//! Serving-front-end equivalence: the concurrent ingest path
//! (`prom::core::serving::ServingFrontEnd` — N producer threads racing
//! into a bounded admission queue, one collator driving the pipeline)
//! exists purely to change *when* samples arrive, never *what* is
//! reported. With more than one producer the admission order is whatever
//! the threads raced to; everything after admission must be
//! deterministic. This tier holds the front-end to that:
//!
//! * **replay equivalence, frozen**: capturing the admitted order
//!   (`ServingConfig::record_admitted`) and replaying it through a
//!   synchronous `push`/`flush` `DeploymentPipeline` reproduces the
//!   served reports byte for byte — judgements, flags, relabel picks,
//!   window indices — for 1, 2 and `available_shards()` producers, for
//!   the real committee classifier and a table baseline;
//! * **single-producer determinism**: with one producer the admitted
//!   order IS the submission order, so the whole front-end is
//!   deterministic end-to-end against the plain synchronous loop;
//! * **replay equivalence, online**: under
//!   `CalibrationPolicy::Reservoir` the served reports *and the
//!   detector's post-run live calibration state* (per-expert p-value
//!   bits for the classifier, score-table bits for the baseline) come
//!   out bit-identical to a synchronous online replay of the admitted
//!   order, across producer counts;
//! * **multi-detector serving**: `serve_multi` over N detectors replays
//!   bit-identically through a synchronous `MultiPipeline`, per
//!   detector;
//! * **(proptest)** for arbitrary window/queue/producer/stream-length
//!   combinations, every submitted sample is judged exactly once, the
//!   reports tile the admitted order contiguously, and the stitched
//!   judgements equal one synchronous batch over the admitted order.
//!
//! CI additionally runs this file with `--test-threads=1`, so a
//! stitch-order or settle-order bug cannot hide behind test-runner
//! parallelism.

use proptest::prelude::*;

use prom::baselines::NaiveCp;
use prom::core::calibration::CalibrationRecord;
use prom::core::committee::PromConfig;
use prom::core::detector::{DriftDetector, Judgement, Sample, Truth};
use prom::core::incremental::RelabelBudget;
use prom::core::pipeline::{
    available_shards, CalibrationPolicy, DeploymentPipeline, MultiPipeline, MultiReport,
    PipelineConfig, WindowReport,
};
use prom::core::predictor::PromClassifier;
use prom::core::scoring::ScoreTable;
use prom::core::serving::{ServingConfig, ServingFrontEnd, ServingHandle, ServingOutcome};
use prom::ml::rng::{gaussian_with, rng_from_seed};
use rand::Rng;

/// Producer counts the sweep covers: sequential, minimal race, and one
/// thread per shard the machine would use.
fn producer_counts() -> [usize; 3] {
    [1, 2, available_shards().max(3)]
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

/// Every report field the serving front-end promises to keep
/// deterministic.
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

fn assert_score_tables_identical(a: &ScoreTable, b: &ScoreTable, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: table sizes diverge");
    assert_eq!(a.n_labels(), b.n_labels(), "{context}: label counts diverge");
    for label in 0..a.n_labels() {
        let bits_a: Vec<u64> = a.scores(label).iter().map(|s| s.to_bits()).collect();
        let bits_b: Vec<u64> = b.scores(label).iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "{context}: label {label} buckets diverge");
    }
}

/// The admitted IDs (the first embedding coordinate — every helper
/// stream makes it unique) must be a permutation of the submitted ones:
/// nothing lost, nothing duplicated, whatever the race.
fn assert_admitted_is_a_permutation(admitted: &[Sample], submitted: &[Sample], context: &str) {
    assert_eq!(admitted.len(), submitted.len(), "{context}: admitted count diverges");
    let mut got: Vec<u64> = admitted.iter().map(|s| s.embedding[0].to_bits()).collect();
    let mut want: Vec<u64> = submitted.iter().map(|s| s.embedding[0].to_bits()).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{context}: admitted set is not a permutation of the submitted set");
}

/// Splits the stream into `producers` contiguous chunks and races one
/// thread per chunk through the handle; each producer preserves its own
/// chunk's order (the channel is per-sender FIFO), the interleaving is
/// the scheduler's.
fn race_producers(handle: ServingHandle<'_>, stream: &[Sample], producers: usize) {
    let chunk = stream.len().div_ceil(producers);
    std::thread::scope(|s| {
        for part in stream.chunks(chunk.max(1)) {
            let handle = handle.clone();
            s.spawn(move || {
                for sample in part {
                    handle.submit(sample.clone()).expect("collator alive");
                }
            });
        }
    });
}

/// Replays a recorded admission order through a synchronous frozen
/// pipeline, tail included.
fn replay_frozen(
    detector: &dyn DriftDetector,
    admitted: &[Sample],
    config: PipelineConfig,
) -> Vec<WindowReport> {
    let mut pipeline = DeploymentPipeline::new(detector, config);
    let mut reports = pipeline.extend(admitted.iter().cloned());
    while let Some(report) = pipeline.flush() {
        reports.push(report);
    }
    reports
}

/// Sanity common to every outcome: nothing shed (these tests only use
/// the blocking path), every admitted sample judged and latency-stamped.
fn assert_outcome_accounted<R>(outcome: &ServingOutcome<R>, total: usize, context: &str) {
    assert_eq!(outcome.admitted as usize, total, "{context}: admitted");
    assert_eq!(outcome.rejected, 0, "{context}: blocking submits never shed");
    assert_eq!(outcome.judged, total, "{context}: judged");
    assert_eq!(outcome.latency.count() as usize, total, "{context}: latency stamps");
    let summary = outcome.latency.summary();
    assert!(summary.p50_ns <= summary.p99_ns, "{context}: p50 above p99");
    assert!(summary.p99_ns <= summary.p999_ns, "{context}: p99 above p999");
    assert!(summary.p999_ns <= summary.max_ns, "{context}: p999 above the max");
}

#[test]
fn frozen_serving_replays_bit_identically_across_producer_counts() {
    let records = classification_records(300, 201);
    let stream = classification_stream(101, 201); // 101 % 16 != 0: ragged tail
    let prom = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
    let naive = NaiveCp::new(&records, 0.1);
    let detectors: Vec<&dyn DriftDetector> = vec![&prom, &naive];

    for detector in detectors {
        for producers in producer_counts() {
            let config = PipelineConfig { window: 16, shards: 2, ..Default::default() };
            let front = ServingFrontEnd::new(ServingConfig {
                pipeline: config,
                queue: 8, // smaller than the stream: exercises backpressure
                record_admitted: true,
                metrics: None,
            });
            let ((), outcome) =
                front.serve(detector, |handle| race_producers(handle, &stream, producers));
            let context = format!("{} producers={producers}", detector.name());
            assert_outcome_accounted(&outcome, stream.len(), &context);
            assert_admitted_is_a_permutation(&outcome.admitted_samples, &stream, &context);
            if producers == 1 {
                // One producer: the admitted order IS the submission
                // order — the front-end is deterministic end-to-end.
                let sync = replay_frozen(detector, &stream, config);
                assert_reports_identical(&sync, &outcome.reports, &context);
            }
            let replayed = replay_frozen(detector, &outcome.admitted_samples, config);
            assert_reports_identical(&replayed, &outcome.reports, &context);
        }
    }
}

/// Replays a recorded admission order through a synchronous *online*
/// pipeline over a fresh detector, tail included.
fn replay_online(
    detector: &mut dyn DriftDetector,
    admitted: &[Sample],
    config: PipelineConfig,
) -> Vec<WindowReport> {
    let mut pipeline =
        DeploymentPipeline::online(detector, config, |global, _s| Some(Truth::Label(global % 3)));
    let mut reports = pipeline.extend(admitted.iter().cloned());
    while let Some(report) = pipeline.flush() {
        reports.push(report);
    }
    reports
}

#[test]
fn online_reservoir_serving_replays_reports_and_calibration_bit_identically() {
    let records = classification_records(120, 211);
    let stream = classification_stream(130, 211);
    let probes = classification_stream(20, 212);
    let config = PipelineConfig {
        window: 16,
        shards: 2,
        budget: RelabelBudget { fraction: 1.0, min_count: 1 },
        policy: CalibrationPolicy::Reservoir { cap: 9, seed: 7 },
        ..Default::default()
    };

    for producers in producer_counts() {
        let context = format!("online classifier producers={producers}");

        // Serve with a fresh classifier, producers racing.
        let mut served = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: config,
            queue: 8,
            record_admitted: true,
            metrics: None,
        });
        let ((), outcome) = front.serve_online(
            &mut served,
            |global, _s| Some(Truth::Label(global % 3)),
            |handle| race_producers(handle, &stream, producers),
        );
        assert_outcome_accounted(&outcome, stream.len(), &context);
        assert_admitted_is_a_permutation(&outcome.admitted_samples, &stream, &context);
        assert!(
            outcome.reports.iter().map(|r| r.absorbed).sum::<usize>() > 9,
            "{context}: the stream must absorb past the reservoir cap to exercise replacement"
        );

        // Replay the admitted order synchronously over a second fresh
        // classifier: reports AND the live calibration state must agree
        // to the bit.
        let mut replayed = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
        let replay_reports = replay_online(&mut replayed, &outcome.admitted_samples, config);
        assert_reports_identical(&replay_reports, &outcome.reports, &context);
        assert_eq!(served.calibration_len(), replayed.calibration_len(), "{context}");
        for probe in &probes {
            let pa = served.expert_p_values(&probe.embedding, &probe.outputs);
            let pb = replayed.expert_p_values(&probe.embedding, &probe.outputs);
            for (ea, eb) in pa.iter().zip(pb.iter()) {
                let bits_a: Vec<u64> = ea.iter().map(|p| p.to_bits()).collect();
                let bits_b: Vec<u64> = eb.iter().map(|p| p.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "{context}: post-run p-values diverge");
            }
        }
    }

    // The table baseline's whole score table agrees to the bit too.
    for producers in [2, available_shards().max(3)] {
        let context = format!("online naive-cp producers={producers}");
        let mut served = NaiveCp::new(&records, 0.1);
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: config,
            queue: 8,
            record_admitted: true,
            metrics: None,
        });
        let ((), outcome) = front.serve_online(
            &mut served,
            |global, _s| Some(Truth::Label(global % 3)),
            |handle| race_producers(handle, &stream, producers),
        );
        assert_outcome_accounted(&outcome, stream.len(), &context);
        let mut replayed = NaiveCp::new(&records, 0.1);
        let replay_reports = replay_online(&mut replayed, &outcome.admitted_samples, config);
        assert_reports_identical(&replay_reports, &outcome.reports, &context);
        assert_score_tables_identical(served.score_table(), replayed.score_table(), &context);
    }
}

#[test]
fn multi_detector_serving_replays_bit_identically() {
    let records = classification_records(200, 221);
    let stream = classification_stream(90, 221);
    let prom = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
    let naive = NaiveCp::new(&records, 0.1);
    let config = PipelineConfig { window: 16, shards: 2, ..Default::default() };

    for producers in producer_counts() {
        let context = format!("multi producers={producers}");
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: config,
            queue: 8,
            record_admitted: true,
            metrics: None,
        });
        let ((), outcome) = front
            .serve_multi(vec![&prom, &naive], |handle| race_producers(handle, &stream, producers));
        assert_outcome_accounted(&outcome, stream.len(), &context);
        assert_admitted_is_a_permutation(&outcome.admitted_samples, &stream, &context);

        // Synchronous MultiPipeline replay of the admitted order.
        let mut sync = MultiPipeline::new(vec![&prom, &naive], config);
        let mut replayed: Vec<MultiReport> = sync.extend(outcome.admitted_samples.iter().cloned());
        while let Some(report) = sync.flush() {
            replayed.push(report);
        }
        assert_eq!(replayed.len(), outcome.reports.len(), "{context}: window counts diverge");
        for d in 0..2 {
            let served: Vec<WindowReport> =
                outcome.reports.iter().map(|m| m.reports[d].clone()).collect();
            let replay: Vec<WindowReport> = replayed.iter().map(|m| m.reports[d].clone()).collect();
            assert_reports_identical(&replay, &served, &format!("{context} d={d}"));
        }
    }
}

/// Judges on a pure per-sample rule — cheap enough for the proptest
/// sweep, deterministic per sample so any admission order replays.
struct Threshold;

impl DriftDetector for Threshold {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn judge_one(&self, _embedding: &[f64], outputs: &[f64]) -> Judgement {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For arbitrary window/queue/producer/stream-length combinations,
    /// every submitted sample is judged exactly once, the reports tile
    /// the admitted order contiguously, and the stitched judgements
    /// equal one synchronous batch over the admitted order.
    #[test]
    fn arbitrary_serving_shapes_judge_every_sample_exactly_once(
        n in 0usize..90,
        window in 1usize..7,
        queue in 1usize..9,
        producers in 1usize..4,
        shards in 1usize..4,
    ) {
        let det = Threshold;
        let stream = plain_stream(n);
        let config = PipelineConfig { window, shards, ..Default::default() };
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: config,
            queue,
            record_admitted: true,
            metrics: None,
        });
        let ((), outcome) =
            front.serve(&det, |handle| race_producers(handle, &stream, producers));

        prop_assert_eq!(outcome.admitted as usize, n);
        prop_assert_eq!(outcome.judged, n);
        prop_assert_eq!(outcome.latency.count() as usize, n);
        prop_assert_eq!(outcome.admitted_samples.len(), n);

        // Exactly once: admitted IDs are a permutation of 0..n.
        let mut ids: Vec<i64> =
            outcome.admitted_samples.iter().map(|s| s.embedding[0] as i64).collect();
        ids.sort_unstable();
        let expected: Vec<i64> = (0..n as i64).collect();
        prop_assert_eq!(ids, expected);

        // Reports tile the admitted order contiguously, in window order…
        let mut next = 0usize;
        for (i, report) in outcome.reports.iter().enumerate() {
            prop_assert_eq!(report.index, i);
            prop_assert_eq!(report.start, next);
            next += report.judgements.len();
        }
        prop_assert_eq!(next, n);

        // …and stitch to one synchronous batch over the admitted order.
        let stitched: Vec<Judgement> =
            outcome.reports.iter().flat_map(|r| r.judgements.iter().cloned()).collect();
        prop_assert_eq!(stitched, det.judge_batch(&outcome.admitted_samples));
    }
}
