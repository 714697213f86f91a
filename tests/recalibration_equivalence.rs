//! Incremental-recalibration equivalence: growing a calibration set by
//! insert-only updates must be **bit-identical** — in p-values and
//! therefore in every judgement — to refitting the detector from scratch
//! over the same records, for `PromClassifier`, `PromRegressor`, and
//! `Rise`. Incremental growth exists purely to make the Sec. 5.4 online
//! loop affordable (`O(log n)` per record instead of a rebuild,
//! `benches/recalibration.rs`); it must never change a decision.
//!
//! Also covered: duplicate scores at the insert boundary, rejection of
//! NaN / out-of-range inputs matching refit behavior, and in-place record
//! replacement (the reservoir eviction path) matching a substituted
//! rebuild.

use proptest::prelude::*;

use prom::baselines::tesseract::{LabeledOutcome, Tesseract};
use prom::baselines::{NaiveCp, Rise};
use prom::core::calibration::CalibrationRecord;
use prom::core::committee::PromConfig;
use prom::core::detector::{DriftDetector, Relabeled, Sample};
use prom::core::nonconformity::Lac;
use prom::core::predictor::PromClassifier;
use prom::core::regression::{ClusterChoice, PromRegressor, PromRegressorConfig, RegressionRecord};
use prom::core::scoring::ScoreTable;
use prom::ml::rng::{gaussian_with, rng_from_seed};
use rand::Rng;

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
            let assigned = if rng.gen_range(0.0..1.0) < 0.06 { (label + 1) % 3 } else { label };
            probs[assigned] = conf;
            CalibrationRecord::new(embedding, probs, label)
        })
        .collect()
}

/// Probe inputs spanning in-distribution, drifted, flat-confidence, and
/// NaN-embedding cases.
fn classification_probes() -> Vec<(Vec<f64>, Vec<f64>)> {
    vec![
        (vec![0.1, -0.2], vec![0.8, 0.1, 0.1]),
        (vec![4.2, -3.8], vec![0.1, 0.75, 0.15]),
        (vec![300.0, -300.0], vec![0.4, 0.3, 0.3]),
        (vec![1.0, 1.0], vec![0.34, 0.33, 0.33]),
        (vec![f64::NAN, 0.0], vec![0.7, 0.2, 0.1]),
    ]
}

/// Asserts two classifiers produce bit-identical per-expert p-values and
/// equal judgements on every probe.
fn assert_classifiers_bit_identical(a: &PromClassifier, b: &PromClassifier, context: &str) {
    assert_eq!(a.calibration_len(), b.calibration_len(), "{context}: sizes diverge");
    for (embedding, probs) in classification_probes() {
        let pa = a.expert_p_values(&embedding, &probs);
        let pb = b.expert_p_values(&embedding, &probs);
        for (expert, (ea, eb)) in pa.iter().zip(pb.iter()).enumerate() {
            let bits_a: Vec<u64> = ea.iter().map(|p| p.to_bits()).collect();
            let bits_b: Vec<u64> = eb.iter().map(|p| p.to_bits()).collect();
            assert_eq!(
                bits_a, bits_b,
                "{context}: expert {expert} p-values diverge on probe {embedding:?}"
            );
        }
        let ja = a.judge(&embedding, &probs);
        let jb = b.judge(&embedding, &probs);
        assert_eq!(ja.accepted, jb.accepted, "{context}: acceptance diverges");
        assert_eq!(ja.reject_votes, jb.reject_votes, "{context}: votes diverge");
    }
}

#[test]
fn classifier_insert_is_bit_identical_to_full_recalibrate() {
    // Cover both selection modes: keep-everything (below min_full_size)
    // and nearest-fraction partitioning (above it).
    for (base_n, extra_n, seed) in [(80, 40, 1), (300, 150, 2)] {
        let base = classification_records(base_n, seed);
        let extra = classification_records(extra_n, seed ^ 0xabc);

        let mut grown = PromClassifier::new(base.clone(), PromConfig::default()).unwrap();
        for record in &extra {
            grown.insert_record(record.clone()).expect("valid record");
        }

        let mut all = base;
        all.extend(extra);
        let refit = PromClassifier::new(all, PromConfig::default()).unwrap();

        assert_classifiers_bit_identical(&grown, &refit, &format!("base {base_n}"));
    }
}

#[test]
fn classifier_absorb_relabeled_matches_recalibrate_and_skips_invalid() {
    let base = classification_records(100, 7);
    let extra = classification_records(30, 8);

    // Interleave valid relabels with ones absorb must skip: a NaN
    // embedding, an out-of-range label, and a regression-truth mismatch.
    let mut batch: Vec<Relabeled> = Vec::new();
    for (i, r) in extra.iter().enumerate() {
        batch.push(Relabeled::labeled(Sample::new(r.embedding.clone(), r.probs.clone()), r.label));
        match i % 3 {
            0 => batch
                .push(Relabeled::labeled(Sample::new(vec![f64::NAN, 1.0], vec![0.5, 0.3, 0.2]), 0)),
            1 => batch.push(Relabeled::labeled(
                Sample::new(vec![0.0, 0.0], vec![0.5, 0.3, 0.2]),
                9, // out of range for 3 classes
            )),
            _ => batch.push(Relabeled::measured(
                Sample::new(vec![0.0, 0.0], vec![0.5, 0.3, 0.2]),
                1.5, // regression truth offered to a classifier
            )),
        }
    }
    // A NaN probability vector would score NaN under every expert and
    // poison the label's p-value denominators forever; it must be skipped.
    batch.push(Relabeled::labeled(Sample::new(vec![0.0, 0.0], vec![f64::NAN, 0.3, 0.2]), 0));

    let mut grown = PromClassifier::new(base.clone(), PromConfig::default()).unwrap();
    let absorbed = grown.absorb_relabeled(&batch);
    assert_eq!(absorbed, extra.len(), "exactly the valid relabels are absorbed");

    let mut all = base;
    all.extend(extra);
    let refit = PromClassifier::new(all, PromConfig::default()).unwrap();
    assert_classifiers_bit_identical(&grown, &refit, "absorb_relabeled");
}

#[test]
fn classifier_replace_matches_rebuild_with_substituted_record() {
    // The reservoir eviction path: replacing record `i` in place must be
    // bit-identical to a refit whose record list has the substitution at
    // the same position (indices are the tie-breaking identity).
    let base = classification_records(120, 11);
    let replacement = &classification_records(1, 99)[0];
    for index in [0, 60, 119] {
        let mut replaced = PromClassifier::new(base.clone(), PromConfig::default()).unwrap();
        replaced.replace_record_at(index, replacement.clone()).expect("valid replacement");

        let mut substituted = base.clone();
        substituted[index] = replacement.clone();
        let refit = PromClassifier::new(substituted, PromConfig::default()).unwrap();
        assert_classifiers_bit_identical(&replaced, &refit, &format!("replace at {index}"));
    }
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

#[test]
fn regressor_insert_is_bit_identical_to_frozen_cluster_refit() {
    let base = regression_records(150, 3);
    let extra = regression_records(70, 4);
    let config = PromRegressorConfig { clusters: ClusterChoice::Fixed(4), ..Default::default() };

    let mut grown = PromRegressor::new(base.clone(), config.clone()).unwrap();
    for record in &extra {
        grown.insert_record(record.clone()).expect("valid record");
    }

    let mut refit = PromRegressor::new(base.clone(), config).unwrap();
    let mut all = base;
    all.extend(extra);
    refit.recalibrate_frozen_clusters(all).expect("valid records");

    assert_eq!(grown.calibration_len(), refit.calibration_len());
    assert_eq!(grown.n_clusters(), refit.n_clusters(), "the pseudo-label model is frozen");
    let probes: Vec<Sample> = (0..40)
        .map(|i| {
            let drifted = i % 5 == 0;
            let x0 = (i as f64 / 10.0) - 2.0 + if drifted { 25.0 } else { 0.0 };
            Sample::regression(vec![x0, 0.3], x0 + 0.3 + if drifted { 10.0 } else { 0.0 })
        })
        .collect();
    let ja = grown.judge_batch(&probes);
    let jb = refit.judge_batch(&probes);
    for (i, (a, b)) in ja.iter().zip(jb.iter()).enumerate() {
        assert_eq!(a.accepted, b.accepted, "probe {i}");
        assert_eq!(a.reject_votes, b.reject_votes, "probe {i}");
        for (va, vb) in a.verdicts.iter().zip(b.verdicts.iter()) {
            assert_eq!(va.credibility.to_bits(), vb.credibility.to_bits(), "probe {i}");
            assert_eq!(va.confidence.to_bits(), vb.confidence.to_bits(), "probe {i}");
        }
    }
}

#[test]
fn regressor_absorb_relabeled_skips_invalid_truths() {
    let base = regression_records(80, 5);
    let config = PromRegressorConfig { clusters: ClusterChoice::Fixed(3), ..Default::default() };
    let mut prom = PromRegressor::new(base, config).unwrap();
    let before = prom.calibration_len();

    let batch = vec![
        Relabeled::measured(Sample::regression(vec![0.5, 0.5], 1.1), 1.0), // valid
        Relabeled::measured(Sample::regression(vec![0.5, 0.5], 1.1), f64::INFINITY),
        Relabeled::measured(Sample::regression(vec![f64::NAN, 0.5], 1.1), 1.0),
        Relabeled::labeled(Sample::regression(vec![0.5, 0.5], 1.1), 1), // classifier truth
        Relabeled::measured(Sample::new(vec![0.5, 0.5], vec![1.0, 0.2]), 1.0), // 2 outputs
    ];
    assert_eq!(prom.absorb_relabeled(&batch), 1, "only the valid relabel is absorbed");
    assert_eq!(prom.calibration_len(), before + 1);
}

#[test]
fn rise_insert_is_bit_identical_to_from_records_refit() {
    let base = classification_records(90, 21);
    let extra = classification_records(45, 22);
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

    let mut rise = Rise::fit(&base, &validation, 0.1);
    for record in &extra {
        assert!(rise.insert_record(record), "valid record must be absorbed");
    }

    let mut all = base;
    all.extend(extra);
    let refit_table = ScoreTable::from_records(&all, &Lac, 3);

    let grown_table = rise.score_table();
    assert_eq!(grown_table.len(), refit_table.len());
    for label in 0..3 {
        let grown_bits: Vec<u64> = grown_table.scores(label).iter().map(|s| s.to_bits()).collect();
        let refit_bits: Vec<u64> = refit_table.scores(label).iter().map(|s| s.to_bits()).collect();
        assert_eq!(grown_bits, refit_bits, "label {label} score buckets diverge");
    }
    // P-values over a dense probe grid (including exact inserted scores,
    // where the >= tie rule bites) are bit-identical too.
    for label in 0..3 {
        for &test in refit_table.scores(label).iter().chain([0.0, 0.5, 1.0, 1.5].iter()) {
            assert_eq!(
                grown_table.p_value(label, test).to_bits(),
                refit_table.p_value(label, test).to_bits(),
                "label {label}, test score {test}"
            );
        }
    }
}

#[test]
fn rise_absorb_and_replace_keep_judgements_defined() {
    let base = classification_records(60, 31);
    let validation: Vec<LabeledOutcome> = (0..40)
        .map(|i| LabeledOutcome {
            probs: if i % 3 == 0 { vec![0.4, 0.3, 0.3] } else { vec![0.8, 0.1, 0.1] },
            correct: i % 3 != 0,
        })
        .collect();
    let mut rise = Rise::fit(&base, &validation, 0.1);
    let base_size = rise.calibration_size().unwrap();

    let sample = Sample::new(vec![0.0, 0.0], vec![0.7, 0.2, 0.1]);
    let absorbed = rise.absorb_relabeled(&[
        Relabeled::labeled(sample.clone(), 0),
        Relabeled::labeled(sample.clone(), 9), // out of range: skipped
        Relabeled::measured(sample.clone(), 0.5), // wrong truth kind: skipped
    ]);
    assert_eq!(absorbed, 1);
    assert_eq!(rise.calibration_size(), Some(base_size + 1));

    // Replace the absorbed slot (index base_size) and check the table
    // neither grows nor loses records; base records are not evictable.
    let replacement = Relabeled::labeled(Sample::new(vec![1.0, 1.0], vec![0.2, 0.7, 0.1]), 1);
    assert!(rise.replace_record(base_size, &replacement));
    assert_eq!(rise.calibration_size(), Some(base_size + 1));
    assert!(!rise.replace_record(0, &replacement), "design-time records are not evictable");
    assert!(!rise.replace_record(base_size + 5, &replacement), "empty slots are not evictable");
    let judgement = rise.judge_one(&[0.0, 0.0], &[0.6, 0.3, 0.1]);
    assert_eq!(judgement.n_experts, 1);
}

/// Compares two pre-sorted score tables bit-for-bit, bucket-for-bucket.
fn assert_tables_bit_identical(
    grown: &ScoreTable,
    refit: &ScoreTable,
    n_labels: usize,
    context: &str,
) {
    assert_eq!(grown.len(), refit.len(), "{context}: table sizes diverge");
    for label in 0..n_labels {
        let grown_bits: Vec<u64> = grown.scores(label).iter().map(|s| s.to_bits()).collect();
        let refit_bits: Vec<u64> = refit.scores(label).iter().map(|s| s.to_bits()).collect();
        assert_eq!(grown_bits, refit_bits, "{context}: label {label} buckets diverge");
    }
    // And the p-values they imply agree bit-for-bit on a dense grid that
    // includes the exact stored scores (where the >= tie rule bites).
    for label in 0..n_labels {
        for &test in refit.scores(label).iter().chain([0.0, 0.25, 0.5, 1.0, 1.5].iter()) {
            assert_eq!(
                grown.p_value(label, test).to_bits(),
                refit.p_value(label, test).to_bits(),
                "{context}: label {label}, test score {test}"
            );
        }
    }
}

/// The relabel batch every baseline test feeds: `extra` as valid picks,
/// interleaved with relabels absorb must skip (out-of-range label, NaN
/// embedding, regression truth).
fn relabel_batch_with_invalid(extra: &[CalibrationRecord]) -> Vec<Relabeled> {
    let mut batch: Vec<Relabeled> = Vec::new();
    for (i, r) in extra.iter().enumerate() {
        batch.push(Relabeled::labeled(Sample::new(r.embedding.clone(), r.probs.clone()), r.label));
        match i % 3 {
            0 => {
                batch.push(Relabeled::labeled(Sample::new(vec![0.0, 0.0], vec![0.5, 0.3, 0.2]), 9))
            }
            1 => batch
                .push(Relabeled::labeled(Sample::new(vec![f64::NAN, 1.0], vec![0.5, 0.3, 0.2]), 0)),
            _ => batch
                .push(Relabeled::measured(Sample::new(vec![0.0, 0.0], vec![0.5, 0.3, 0.2]), 1.5)),
        }
    }
    batch
}

#[test]
fn naive_cp_absorb_is_bit_identical_to_refit_and_replace_matches_substitution() {
    let base = classification_records(90, 61);
    let extra = classification_records(40, 62);
    let batch = relabel_batch_with_invalid(&extra);

    let mut grown = NaiveCp::new(&base, 0.1);
    assert_eq!(grown.absorb_relabeled(&batch), extra.len(), "only valid relabels absorb");
    assert_eq!(grown.calibration_size(), Some(base.len() + extra.len()));

    let mut all = base.clone();
    all.extend(extra.iter().cloned());
    let refit = NaiveCp::new(&all, 0.1);
    assert_tables_bit_identical(grown.score_table(), refit.score_table(), 3, "naive-cp grow");
    for conf in [0.4, 0.55, 0.7, 0.85, 0.99] {
        let probs = [conf, (1.0 - conf) / 2.0, (1.0 - conf) / 2.0];
        assert_eq!(
            grown.credibility(&probs).to_bits(),
            refit.credibility(&probs).to_bits(),
            "conf {conf}"
        );
    }

    // The reservoir eviction path: replacing absorbed slot `s` must be
    // bit-identical to a refit whose record list substitutes that slot.
    let replacement = &classification_records(1, 99)[0];
    let replacement_relabel = Relabeled::labeled(
        Sample::new(replacement.embedding.clone(), replacement.probs.clone()),
        replacement.label,
    );
    for slot in [0, extra.len() / 2, extra.len() - 1] {
        assert!(
            grown.replace_record(base.len() + slot, &replacement_relabel),
            "valid online slot {slot} must be replaceable"
        );
        all[base.len() + slot] = replacement.clone();
        let refit = NaiveCp::new(&all, 0.1);
        assert_tables_bit_identical(
            grown.score_table(),
            refit.score_table(),
            3,
            &format!("naive-cp replace at slot {slot}"),
        );
    }
    assert!(
        !grown.replace_record(0, &replacement_relabel),
        "design-time records are not evictable"
    );
    assert!(
        !grown.replace_record(base.len() + extra.len() + 4, &replacement_relabel),
        "empty slots are not evictable"
    );
    assert_eq!(
        grown.calibration_size(),
        Some(base.len() + extra.len()),
        "replacement neither grows nor shrinks the live set"
    );
}

#[test]
fn rise_absorbs_exactly_the_valid_relabels_and_matches_refit() {
    let base = classification_records(90, 81);
    let extra = classification_records(36, 82);
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

    let mut grown = Rise::fit(&base, &validation, 0.1);
    let batch = relabel_batch_with_invalid(&extra);
    // can_absorb screens exactly what absorb_relabeled accepts: the NaN
    // embedding is refused like the out-of-range label and the regression
    // truth.
    let screened: Vec<bool> = batch.iter().map(|r| grown.can_absorb(r)).collect();
    assert_eq!(screened.iter().filter(|&&ok| ok).count(), extra.len());
    for (r, ok) in batch.iter().zip(&screened) {
        assert_eq!(grown.absorb_relabeled(std::slice::from_ref(r)) == 1, *ok);
    }
    assert_eq!(grown.calibration_size(), Some(base.len() + extra.len()));

    let mut all = base;
    all.extend(extra);
    let refit_table = ScoreTable::from_records(&all, &Lac, 3);
    assert_tables_bit_identical(grown.score_table(), &refit_table, 3, "rise grow");
}

#[test]
fn tesseract_absorb_is_bit_identical_to_refit_with_frozen_thresholds() {
    let base = classification_records(100, 71);
    let extra = classification_records(35, 72);
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

    let mut grown = Tesseract::fit(&base, &validation, 3);
    let tuned = grown.thresholds().to_vec();
    let batch = relabel_batch_with_invalid(&extra);
    for r in &batch[..extra.len().min(4)] {
        // can_absorb screens exactly what absorb_relabeled accepts.
        assert_eq!(grown.can_absorb(r), grown.absorb_relabeled(std::slice::from_ref(r)) == 1);
    }
    let already = grown.calibration_size().unwrap() - base.len();
    let absorbed = grown.absorb_relabeled(&batch[already * 2..]);
    assert_eq!(already + absorbed, extra.len(), "exactly the valid relabels absorb");
    assert_eq!(grown.calibration_size(), Some(base.len() + extra.len()));
    assert_eq!(
        grown.thresholds(),
        &tuned[..],
        "per-class thresholds are design-time artifacts and stay frozen"
    );

    // The grown conformal table equals a from-scratch refit over the same
    // records…
    let mut all = base.clone();
    all.extend(extra.iter().cloned());
    let refit_table = ScoreTable::from_records(&all, &Lac, 3);
    assert_tables_bit_identical(grown.score_table(), &refit_table, 3, "tesseract grow");

    // …and the eviction path matches a substituted rebuild, exactly like
    // the other table baselines.
    let replacement = &classification_records(1, 98)[0];
    let replacement_relabel = Relabeled::labeled(
        Sample::new(replacement.embedding.clone(), replacement.probs.clone()),
        replacement.label,
    );
    assert!(grown.replace_record(base.len(), &replacement_relabel));
    all[base.len()] = replacement.clone();
    let refit_table = ScoreTable::from_records(&all, &Lac, 3);
    assert_tables_bit_identical(grown.score_table(), &refit_table, 3, "tesseract replace");
    assert!(!grown.replace_record(0, &replacement_relabel), "base records are not evictable");

    // Judgements flow through the grown table: both detectors agree on a
    // probe sweep (thresholds are identical by construction).
    let twin = {
        let mut t = Tesseract::fit(&base, &validation, 3);
        let valid: Vec<Relabeled> = all[base.len()..]
            .iter()
            .map(|r| Relabeled::labeled(Sample::new(r.embedding.clone(), r.probs.clone()), r.label))
            .collect();
        assert_eq!(t.absorb_relabeled(&valid), valid.len());
        t
    };
    for conf in [0.4, 0.55, 0.7, 0.85, 0.99] {
        let probs = [conf, (1.0 - conf) / 2.0, (1.0 - conf) / 2.0];
        assert_eq!(grown.judge_one(&[0.0, 0.0], &probs), twin.judge_one(&[0.0, 0.0], &probs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary label/score multisets — drawn from a small discrete
    /// score alphabet so duplicate scores are common — and an arbitrary
    /// base/extra split, insert-only growth equals a from-scratch refit
    /// bit-for-bit, bucket-for-bucket.
    #[test]
    fn score_table_growth_equals_refit_for_arbitrary_splits(
        pairs in proptest::collection::vec((0usize..4, 0u8..12), 1..80),
        split_numerator in 0u8..=100,
    ) {
        let labels: Vec<usize> = pairs.iter().map(|&(l, _)| l).collect();
        // Quantized scores force duplicates; include negative zero's
        // neighborhood via an offset.
        let scores: Vec<f64> = pairs.iter().map(|&(_, q)| (q as f64 - 2.0) * 0.25).collect();
        let split = labels.len() * split_numerator as usize / 100;

        let mut grown = ScoreTable::new(&labels[..split], &scores[..split], 4);
        grown.insert_scores(&labels[split..], &scores[split..]);
        let refit = ScoreTable::new(&labels, &scores, 4);

        prop_assert_eq!(grown.len(), refit.len());
        for label in 0..4 {
            let g: Vec<u64> = grown.scores(label).iter().map(|s| s.to_bits()).collect();
            let r: Vec<u64> = refit.scores(label).iter().map(|s| s.to_bits()).collect();
            prop_assert_eq!(g, r, "label {} buckets diverge", label);
        }
        // And the p-values they imply agree bit-for-bit on a probe grid.
        for label in 0..4 {
            for probe in [-0.6, -0.25, 0.0, 0.1, 0.25, 1.0, 2.6] {
                prop_assert_eq!(
                    grown.p_value(label, probe).to_bits(),
                    refit.p_value(label, probe).to_bits(),
                    "label {}, probe {}", label, probe
                );
            }
        }
    }

    /// Classifier-level spot check over arbitrary split points: inserting
    /// the tail of a record list one-by-one matches recalibrating with the
    /// whole list, judgement-for-judgement.
    #[test]
    fn classifier_growth_equals_recalibrate_for_arbitrary_splits(
        n_extra in 1usize..30,
        seed in 0u64..500,
    ) {
        let base = classification_records(60, seed);
        let extra = classification_records(n_extra, seed ^ 0x5eed);

        let mut grown = PromClassifier::new(base.clone(), PromConfig::default()).unwrap();
        for record in &extra {
            grown.insert_record(record.clone()).expect("valid record");
        }
        let mut all = base;
        all.extend(extra);
        let refit = PromClassifier::new(all, PromConfig::default()).unwrap();

        for (embedding, probs) in classification_probes() {
            let pa = grown.expert_p_values(&embedding, &probs);
            let pb = refit.expert_p_values(&embedding, &probs);
            for (ea, eb) in pa.iter().zip(pb.iter()) {
                let bits_a: Vec<u64> = ea.iter().map(|p| p.to_bits()).collect();
                let bits_b: Vec<u64> = eb.iter().map(|p| p.to_bits()).collect();
                prop_assert_eq!(bits_a, bits_b);
            }
        }
    }
}
