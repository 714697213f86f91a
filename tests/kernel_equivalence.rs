//! Kernel equivalence: the hardware-fast distance kernel (lane-grouped
//! calibration store, blocked multi-query squared-distance pass,
//! `select_nth_unstable` partition of the kept set, insertion-select k-NN)
//! exists purely to make judging faster — it must never change an output
//! bit. This tier proves, end to end:
//!
//! * **p-values are bit-identical to the scalar reference** — the retained
//!   `select_weighted_subset` full-sort path plus the shared `p_values`
//!   arithmetic — for every `ScoringKernel` selection regime
//!   (keep-everything, partition at keep n/2 and at keep n/10) across
//!   calibration sizes {1, 7, 1000} × embedding dims {1, 3, 17}, on
//!   in-distribution, drifted, exact-duplicate, and NaN test embeddings
//!   (the NaN → +inf distance rule must survive squared-distance space);
//! * **judgements follow**: every `PromClassifier::judge` equals
//!   re-thresholding the reference p-values;
//! * **incremental state keeps the invariant**: after `insert_record` /
//!   `replace_record_at` (including duplicate embeddings), the optimized
//!   lane-grouped store still reproduces the reference bit-for-bit;
//! * **k-NN is order-identical**: `k_nearest` / `k_nearest_flat` equal a
//!   full-sort reference under the canonical `(d², index)` key, duplicate
//!   distances and NaN rows included;
//! * **all five detectors are deterministic through the new kernel**:
//!   `judge_batch` equals a per-sample `judge_one` loop and two identical
//!   constructions agree bit-for-bit;
//! * **the fused fan-out changes nothing**: `MultiPipeline::fanout` over N
//!   threshold configurations reports bit-identically to N standalone
//!   `PromClassifier`s judging the same stream;
//! * **(proptest)** duplicate-heavy integer-grid embeddings — maximal tie
//!   mass at the keep boundary — and NaN probes never separate the
//!   optimized paths from the reference.

use proptest::prelude::*;

use prom::baselines::tesseract::LabeledOutcome;
use prom::baselines::{NaiveCp, Rise, Tesseract};
use prom::core::calibration::{select_weighted_subset, CalibrationRecord, SelectionConfig};
use prom::core::committee::PromConfig;
use prom::core::detector::{DriftDetector, Sample};
use prom::core::nonconformity::default_committee;
use prom::core::pipeline::{MultiPipeline, PipelineConfig};
use prom::core::predictor::PromClassifier;
use prom::core::pvalue::{p_values, ScoredSample};
use prom::core::regression::{ClusterChoice, PromRegressor, PromRegressorConfig, RegressionRecord};
use prom::ml::knn::{k_nearest, k_nearest_flat};
use prom::ml::matrix::{argmax, l2_distance_sq};

const SIZES: [usize; 3] = [1, 7, 1000];
const DIMS: [usize; 3] = [1, 3, 17];

/// One configuration per `ScoringKernel` selection regime at n = 1000:
/// keep-everything (n < min_full_size), and the `select_nth_unstable`
/// partition at keep = n/2 and at keep = n/10. The `pruned` row keeps its
/// name from the norm-bound pruned scan that once ran at small keep
/// fractions; the partition path now runs there too.
fn path_configs() -> [(&'static str, PromConfig); 3] {
    let base = PromConfig { tau: 10.0, ..PromConfig::default() };
    [
        ("all-kept", PromConfig { min_full_size: 1_000_000, ..base.clone() }),
        ("partition", PromConfig { selection_fraction: 0.5, min_full_size: 1, ..base.clone() }),
        ("pruned", PromConfig { selection_fraction: 0.1, min_full_size: 1, ..base }),
    ]
}

/// Three-cluster calibration set with exact-duplicate embeddings (every
/// fifth record repeats its predecessor, seeding duplicate distances at
/// every selection boundary) and imperfect model confidence.
fn records(n: usize, dim: usize) -> Vec<CalibrationRecord> {
    let mut out: Vec<CalibrationRecord> = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % 3;
        let embedding: Vec<f64> = if i % 5 == 4 {
            out[i - 1].embedding.clone()
        } else {
            (0..dim).map(|d| label as f64 * 4.0 + ((i * 31 + d * 7) as f64 * 0.37).sin()).collect()
        };
        let conf = 0.55 + 0.4 * ((i * 13 % 23) as f64 / 23.0);
        let assigned = if i % 9 == 4 { (label + 1) % 3 } else { label };
        let mut probs = vec![(1.0 - conf) / 2.0; 3];
        probs[assigned] = conf;
        out.push(CalibrationRecord::new(embedding, probs, label));
    }
    out
}

/// Test embeddings covering each equivalence-relevant regime: a probe
/// equal to a calibration embedding (distance-0 ties), an in-distribution
/// probe, a drifted probe, and a NaN probe.
fn probes(records: &[CalibrationRecord], dim: usize) -> Vec<Vec<f64>> {
    let mut nan_probe = vec![0.5; dim];
    nan_probe[0] = f64::NAN;
    vec![
        records[0].embedding.clone(),
        (0..dim).map(|d| 4.0 + (d as f64 * 0.11).cos() * 0.3).collect(),
        vec![300.0; dim],
        nan_probe,
    ]
}

/// The scalar reference: full-sort subset selection
/// (`select_weighted_subset`, the documented reference path) feeding the
/// shared weighted p-value arithmetic — no lane-grouped store, no blocked
/// distance pass, no partition.
fn reference_p_values(
    records: &[CalibrationRecord],
    config: &PromConfig,
    embedding: &[f64],
    probs: &[f64],
) -> Vec<Vec<f64>> {
    let rows: Vec<Vec<f64>> = records.iter().map(|r| r.embedding.clone()).collect();
    let selection = select_weighted_subset(
        &rows,
        embedding,
        &SelectionConfig {
            fraction: config.selection_fraction,
            min_full_size: config.min_full_size,
            tau: config.tau,
        },
    );
    default_committee()
        .iter()
        .map(|expert| {
            let samples: Vec<ScoredSample> = selection
                .iter()
                .map(|s| ScoredSample {
                    label: records[s.index].label,
                    adjusted_score: s.weight
                        * expert.score(&records[s.index].probs, records[s.index].label),
                })
                .collect();
            let test_scores: Vec<f64> = (0..probs.len()).map(|y| expert.score(probs, y)).collect();
            p_values(&samples, &test_scores)
        })
        .collect()
}

fn assert_p_value_bits_eq(optimized: &[Vec<f64>], reference: &[Vec<f64>], context: &str) {
    assert_eq!(optimized.len(), reference.len(), "{context}: expert counts diverge");
    for (e, (po, pr)) in optimized.iter().zip(reference).enumerate() {
        assert_eq!(po.len(), pr.len(), "{context}: label counts diverge, expert {e}");
        for (y, (o, r)) in po.iter().zip(pr).enumerate() {
            assert_eq!(
                o.to_bits(),
                r.to_bits(),
                "{context}: p-value bits diverge, expert {e} label {y} ({o} vs {r})"
            );
        }
    }
}

/// Runs the full p-value + judgement equivalence check for one classifier
/// against the scalar reference over `records`.
fn assert_classifier_matches_reference(
    prom: &PromClassifier,
    records: &[CalibrationRecord],
    config: &PromConfig,
    dim: usize,
    context: &str,
) {
    let probs_cases = [vec![0.8, 0.1, 0.1], vec![0.34, 0.33, 0.33]];
    for (p, probe) in probes(records, dim).iter().enumerate() {
        for probs in &probs_cases {
            let reference = reference_p_values(records, config, probe, probs);
            let optimized = prom.expert_p_values(probe, probs);
            assert_p_value_bits_eq(&optimized, &reference, &format!("{context}, probe {p}"));
            assert_eq!(
                prom.judge(probe, probs),
                prom.judgement_from_p_values(&reference, argmax(probs), config),
                "{context}, probe {p}: judgement diverges from re-thresholded reference"
            );
        }
    }
}

#[test]
fn classifier_p_values_match_scalar_reference_across_sizes_dims_and_paths() {
    for size in SIZES {
        for dim in DIMS {
            let records = records(size, dim);
            for (path, config) in path_configs() {
                let prom = PromClassifier::new(records.clone(), config.clone()).unwrap();
                assert_classifier_matches_reference(
                    &prom,
                    &records,
                    &config,
                    dim,
                    &format!("n={size} dim={dim} path={path}"),
                );
            }
        }
    }
}

#[test]
fn post_insert_and_replace_state_still_matches_the_reference() {
    for dim in DIMS {
        let (path, config) = path_configs()[2].clone(); // keep n/10: edits move the boundary
        let mut prom = PromClassifier::new(records(120, dim), config.clone()).unwrap();
        // Grow through the incremental path, duplicates included.
        for record in records(160, dim).into_iter().skip(120) {
            prom.insert_record(record).unwrap();
        }
        // Replace across the store: a far record (leaving the kept set),
        // an exact duplicate of a neighbour, and a boundary slot.
        let far = CalibrationRecord::new(vec![250.0; dim], vec![0.2, 0.7, 0.1], 1);
        prom.replace_record_at(7, far).unwrap();
        let duplicate = prom.records()[62].clone();
        prom.replace_record_at(63, duplicate).unwrap();
        let last = prom.records().len() - 1;
        let swap = prom.records()[0].clone();
        prom.replace_record_at(last, swap).unwrap();
        // The reference is rebuilt from the classifier's own live records,
        // so any stale store lane, label, or score shows up.
        let live: Vec<CalibrationRecord> = prom.records().to_vec();
        assert_classifier_matches_reference(
            &prom,
            &live,
            &config,
            dim,
            &format!("post-edit dim={dim} path={path}"),
        );
    }
}

/// Full-sort k-NN reference under the canonical `(d², index)` key.
fn reference_knn(rows: &[Vec<f64>], query: &[f64], k: usize) -> Vec<usize> {
    let mut dist: Vec<(f64, usize)> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let d2 = l2_distance_sq(row, query);
            (if d2.is_nan() { f64::INFINITY } else { d2 }, i)
        })
        .collect();
    dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    dist.into_iter().take(k).map(|(_, i)| i).collect()
}

#[test]
fn k_nearest_orderings_match_the_full_sort_reference() {
    for size in SIZES {
        for dim in DIMS {
            let mut rows: Vec<Vec<f64>> =
                records(size, dim).into_iter().map(|r| r.embedding).collect();
            if size > 2 {
                rows[size / 2] = vec![f64::NAN; dim]; // NaN row sorts last, stably
            }
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            for query in probes(&records(size, dim), dim) {
                for k in [1, 3, size, size + 5] {
                    let reference = reference_knn(&rows, &query, k);
                    assert_eq!(
                        k_nearest(&rows, &query, k),
                        reference,
                        "k_nearest diverges: n={size} dim={dim} k={k}"
                    );
                    assert_eq!(
                        k_nearest_flat(&flat, dim, &query, k),
                        reference,
                        "k_nearest_flat diverges: n={size} dim={dim} k={k}"
                    );
                }
            }
        }
    }
}

fn classification_stream(n: usize, dim: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let drifted = i % 4 == 0;
            let shift = if drifted { 400.0 } else { 0.0 };
            let label = i % 3;
            let embedding: Vec<f64> = if i % 6 == 5 {
                vec![f64::NAN; dim] // the +inf rule must hold end to end
            } else {
                (0..dim)
                    .map(|d| label as f64 * 4.0 + shift + ((i * 17 + d * 3) as f64 * 0.29).sin())
                    .collect()
            };
            let conf = if drifted { 0.4 } else { 0.55 + 0.4 * ((i * 13 % 23) as f64 / 23.0) };
            let mut probs = vec![(1.0 - conf) / 2.0; 3];
            probs[label] = conf;
            Sample::new(embedding, probs)
        })
        .collect()
}

/// `judge_batch` == per-sample `judge_one` loop, and two identical
/// constructions agree — for one detector and stream.
fn assert_deterministic(a: &dyn DriftDetector, b: &dyn DriftDetector, stream: &[Sample]) {
    let batch = a.judge_batch(stream);
    let looped: Vec<_> = stream.iter().map(|s| a.judge_one(&s.embedding, &s.outputs)).collect();
    assert_eq!(batch, looped, "{}: batch vs looped", a.name());
    assert_eq!(batch, b.judge_batch(stream), "{}: twin construction diverges", a.name());
}

#[test]
fn all_five_detectors_judge_deterministically_through_the_new_kernel() {
    for size in [7, 1000] {
        for dim in DIMS {
            let records = records(size, dim);
            let stream = classification_stream(61, dim);
            let config = path_configs()[2].1.clone();

            let prom_a = PromClassifier::new(records.clone(), config.clone()).unwrap();
            let prom_b = PromClassifier::new(records.clone(), config).unwrap();
            assert_deterministic(&prom_a, &prom_b, &stream);

            assert_deterministic(
                &NaiveCp::new(&records, 0.1),
                &NaiveCp::new(&records, 0.1),
                &stream,
            );

            let validation: Vec<LabeledOutcome> = stream
                .iter()
                .enumerate()
                .map(|(i, s)| LabeledOutcome { probs: s.outputs.clone(), correct: i % 4 != 0 })
                .collect();
            assert_deterministic(
                &Tesseract::fit(&records, &validation, 3),
                &Tesseract::fit(&records, &validation, 3),
                &stream,
            );
            assert_deterministic(
                &Rise::fit(&records, &validation, 0.1),
                &Rise::fit(&records, &validation, 0.1),
                &stream,
            );

            let reg_records: Vec<RegressionRecord> = (0..size.max(6))
                .map(|i| {
                    let x: Vec<f64> =
                        (0..dim).map(|d| ((i * 7 + d) as f64 * 0.13).sin() * 2.0).collect();
                    let target = x.iter().sum::<f64>();
                    RegressionRecord::new(x, target + ((i as f64) * 0.41).cos() * 0.3, target)
                })
                .collect();
            let reg_config =
                PromRegressorConfig { clusters: ClusterChoice::Fixed(3), ..Default::default() };
            let reg_stream: Vec<Sample> = (0..41)
                .map(|i| {
                    let x: Vec<f64> =
                        (0..dim).map(|d| ((i * 5 + d) as f64 * 0.17).sin() * 2.0).collect();
                    let y = x.iter().sum::<f64>() + if i % 3 == 0 { 10.0 } else { 0.0 };
                    Sample::regression(x, y)
                })
                .collect();
            assert_deterministic(
                &PromRegressor::new(reg_records.clone(), reg_config.clone()).unwrap(),
                &PromRegressor::new(reg_records, reg_config).unwrap(),
                &reg_stream,
            );
        }
    }
}

#[test]
fn fused_fanout_reports_match_standalone_classifiers() {
    let records = records(160, 3);
    let configs: Vec<PromConfig> = [0.02, 0.1, 0.3]
        .iter()
        .map(|&eps| PromConfig { epsilon: eps, ..path_configs()[2].1.clone() })
        .collect();
    let base = PromClassifier::new(records.clone(), configs[1].clone()).unwrap();
    let standalone: Vec<PromClassifier> =
        configs.iter().map(|c| PromClassifier::new(records.clone(), c.clone()).unwrap()).collect();
    let stream = classification_stream(47, 3);

    let pipeline_config = PipelineConfig { window: 9, shards: 2, ..Default::default() };
    let run = |mut p: MultiPipeline<'_>| {
        let mut reports = p.extend(stream.iter().cloned());
        while let Some(r) = p.flush() {
            reports.push(r);
        }
        reports
    };
    let fused = run(MultiPipeline::fanout(&base, configs.clone(), pipeline_config).unwrap());
    let refs: Vec<&dyn DriftDetector> =
        standalone.iter().map(|d| d as &dyn DriftDetector).collect();
    let independent = run(MultiPipeline::new(refs, pipeline_config));
    assert_eq!(fused.len(), independent.len());
    for (f, ind) in fused.iter().zip(&independent) {
        for (fr, ir) in f.reports.iter().zip(&ind.reports) {
            assert_eq!(fr.judgements, ir.judgements);
            assert_eq!(fr.flagged, ir.flagged);
            assert_eq!(fr.relabel, ir.relabel);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Integer-grid embeddings make almost every distance a duplicate, so
    /// the keep boundary of every selection regime lands on a tie class —
    /// exactly where `(d², index)` tie-breaking must agree between the
    /// partition (at every keep fraction) and the full-sort reference. A quarter of the cases probe with a NaN coordinate.
    #[test]
    fn kernel_paths_match_reference_under_duplicate_ties_and_nan(
        grid in proptest::collection::vec((0usize..3, 0i32..4), 4..48),
        dim in 1usize..5,
        probe_val in 0i32..4,
        nan_case in 0usize..4,
    ) {
        let records: Vec<CalibrationRecord> = grid
            .iter()
            .enumerate()
            .map(|(i, &(label, g))| {
                let conf = 0.55 + 0.4 * ((i % 7) as f64 / 7.0);
                let mut probs = vec![(1.0 - conf) / 2.0; 3];
                probs[label] = conf;
                CalibrationRecord::new(vec![f64::from(g); dim], probs, label)
            })
            .collect();
        let mut probe = vec![f64::from(probe_val); dim];
        if nan_case == 0 {
            probe[0] = f64::NAN;
        }
        let probs = vec![0.5, 0.3, 0.2];
        for (path, config) in path_configs() {
            let prom = PromClassifier::new(records.clone(), config.clone()).unwrap();
            let optimized = prom.expert_p_values(&probe, &probs);
            let reference = reference_p_values(&records, &config, &probe, &probs);
            for (po, pr) in optimized.iter().zip(&reference) {
                for (o, r) in po.iter().zip(pr) {
                    prop_assert_eq!(o.to_bits(), r.to_bits(), "path {}", path);
                }
            }
            let judged = prom.judge(&probe, &probs);
            let rethresholded =
                prom.judgement_from_p_values(&reference, argmax(&probs), &config);
            prop_assert_eq!(judged, rethresholded, "path {}", path);
        }
    }
}
