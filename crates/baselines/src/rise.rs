//! A RISE-style detector (Zhai et al., MobiCom '21).
//!
//! RISE computes a credibility and a confidence score from a single
//! nonconformity function over the full calibration set, then — unlike
//! Prom's model-free thresholding — trains a supervised classifier (an SVM)
//! on those two scores to decide whether a prediction should be trusted.
//! The paper notes RISE "struggles with uneven data or tasks with many
//! labels"; the trained decision boundary inherits whatever bias the
//! validation data has. Score features come from the pre-sorted
//! [`ScoreTable`], one binary search per candidate label.

use prom_core::calibration::CalibrationRecord;
use prom_core::nonconformity::{Lac, Nonconformity};
use prom_core::scoring::{JudgeScratch, ScoreTable};
use prom_ml::data::Dataset;
use prom_ml::svm::{LinearSvm, LinearSvmSnapshot, SvmConfig};
use prom_ml::traits::Classifier;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::ledger::{BaselineKind, Entry, Ledger, Ledgered};
use crate::tesseract::LabeledOutcome;

/// The RISE-style detector.
pub type Rise = Ledgered<ScoreSvm>;

/// The RISE part of [`Rise`]: the SVM trained on score features, a
/// design-time artifact that stays frozen while the conformal score
/// population grows, and the ε of the prediction-set-size feature.
pub struct ScoreSvm {
    svm: LinearSvm,
    epsilon: f64,
}

impl Rise {
    /// Builds the detector: computes (credibility, confidence) for each
    /// validation outcome and trains the SVM to separate correct from
    /// incorrect predictions in that 2-D score space.
    ///
    /// # Panics
    ///
    /// Panics on empty calibration/validation data or if the validation
    /// set has only one outcome class.
    pub fn fit(records: &[CalibrationRecord], validation: &[LabeledOutcome], epsilon: f64) -> Self {
        assert!(!records.is_empty(), "empty calibration set");
        assert!(!validation.is_empty(), "empty validation set");
        Self::build(records, records[0].probs.len(), |table| ScoreSvm {
            svm: train_svm(table, validation, epsilon),
            epsilon,
        })
    }

    /// Inserts one calibration record into the pre-sorted score table
    /// incrementally (`O(log n + shift)`, no refit) — the grown table is
    /// bit-identical to `ScoreTable::from_records` over the same records.
    /// The SVM decision boundary is a *design-time* artifact tuned on
    /// validation outcomes and stays frozen; only the conformal score
    /// population grows. Returns `false` (skipping the record) when it
    /// fails the entry rule every relabel passes: a label out of range of
    /// its outputs or the table, a NaN embedding, or a NaN LAC score.
    pub fn insert_record(&mut self, record: &CalibrationRecord) -> bool {
        self.absorb(self.entry(record.label, &record.probs, &record.embedding))
    }
}

/// Trains the SVM on the score features of the validation outcomes,
/// labelled 1 ("should reject") where the model was wrong.
fn train_svm(table: &ScoreTable, validation: &[LabeledOutcome], epsilon: f64) -> LinearSvm {
    let mut scratch = JudgeScratch::new();
    let mut x = Vec::with_capacity(validation.len());
    let mut y = Vec::with_capacity(validation.len());
    for v in validation {
        x.push(score_features(table, &v.probs, epsilon, &mut scratch).to_vec());
        y.push(usize::from(!v.correct));
    }
    assert!(
        y.contains(&0) && y.contains(&1),
        "validation needs both correct and incorrect outcomes"
    );
    // Mispredictions are the minority class on in-distribution
    // validation data; oversample them so the SVM does not collapse to
    // "never reject".
    let minority = y.iter().filter(|&&c| c == 1).count();
    let majority = y.len() - minority;
    if minority > 0 && majority > minority {
        let copies = (majority / minority).min(20);
        let extra: Vec<(Vec<f64>, usize)> =
            x.iter().zip(y.iter()).filter(|(_, &c)| c == 1).map(|(f, &c)| (f.clone(), c)).collect();
        for _ in 1..copies {
            for (f, c) in &extra {
                x.push(f.clone());
                y.push(*c);
            }
        }
    }
    LinearSvm::fit(&Dataset::new(x, y), SvmConfig::default())
}

/// The score vector RISE feeds its SVM: credibility (p-value of the
/// predicted label), confidence (1 - the runner-up p-value), and the
/// prediction-set size as an auxiliary signal. The scratch's
/// `test_scores`/`p_values` buffers are reused, so a window — or every
/// window a pool shard judges — computes them without per-sample
/// allocation.
///
/// # Panics
///
/// Panics when `probs` has a different length than the table's labels.
fn score_features(
    table: &ScoreTable,
    probs: &[f64],
    epsilon: f64,
    scratch: &mut JudgeScratch,
) -> [f64; 3] {
    let predicted = prom_ml::matrix::argmax(probs);
    scratch.test_scores.clear();
    scratch.test_scores.extend((0..probs.len()).map(|y| Lac.score(probs, y)));
    table.p_values_into(&scratch.test_scores, &mut scratch.p_values);
    let p_values = &scratch.p_values;
    let credibility = p_values[predicted];
    let runner_up = p_values
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != predicted)
        .map(|(_, &p)| p)
        .fold(0.0f64, f64::max);
    let confidence = 1.0 - runner_up;
    let set_size = p_values.iter().filter(|&&p| p > epsilon).count() as f64;
    [credibility, confidence, set_size]
}

/// The portable state of a [`Rise`]: ε, both score ledgers, and the
/// **frozen trained SVM** — the one fitted artifact a reconstruction would
/// have to re-train, so the snapshot embeds its exact weights
/// ([`LinearSvmSnapshot`]) and restore brings the decision boundary back
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RiseSnapshot {
    detector: String,
    epsilon: f64,
    n_labels: usize,
    base: Vec<Entry>,
    absorbed: Vec<Entry>,
    svm: LinearSvmSnapshot,
}

impl BaselineKind for ScoreSvm {
    const NAME: &'static str = "RISE";
    const SNAPSHOT_TAG: &'static str = "rise";

    /// A sample whose output length differs from the table's label count
    /// has no score features, so it is rejected.
    fn rejects(&self, table: &ScoreTable, outputs: &[f64], scratch: &mut JudgeScratch) -> bool {
        outputs.len() != table.n_labels()
            || self.svm.predict(&score_features(table, outputs, self.epsilon, scratch)) == 1
    }

    fn snapshot(&self, ledger: Ledger) -> Value {
        let Ledger { detector, n_labels, base, absorbed } = ledger;
        let (epsilon, svm) = (self.epsilon, self.svm.snapshot());
        RiseSnapshot { detector, epsilon, n_labels, base, absorbed, svm }.to_value()
    }

    fn restore(state: &Value) -> Result<(Ledger, Self), DeError> {
        let RiseSnapshot { detector, epsilon, n_labels, base, absorbed, svm } =
            RiseSnapshot::from_value(state)?;
        if !(0.0..1.0).contains(&epsilon) {
            return Err(DeError::custom("snapshot epsilon out of [0, 1)"));
        }
        // Pre-validate the SVM snapshot's shape so `LinearSvm::restore`
        // (which asserts on design-time bugs) cannot panic on a corrupt
        // *runtime* input.
        if svm.n_classes < 2
            || svm.machines.len() != svm.n_classes
            || svm.machines.iter().any(|m| m.w.len() != svm.machines[0].w.len())
        {
            return Err(DeError::custom("snapshot SVM has an inconsistent shape"));
        }
        let kind = Self { svm: LinearSvm::restore(&svm), epsilon };
        Ok((Ledger { detector, n_labels, base, absorbed }, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prom_core::detector::DriftDetector;

    fn records() -> Vec<CalibrationRecord> {
        (0..80)
            .map(|i| {
                let label = i % 2;
                let conf = 0.65 + 0.3 * ((i * 7 % 13) as f64 / 13.0);
                let probs =
                    if label == 0 { vec![conf, 1.0 - conf] } else { vec![1.0 - conf, conf] };
                CalibrationRecord::new(vec![i as f64], probs, label)
            })
            .collect()
    }

    fn validation() -> Vec<LabeledOutcome> {
        let mut v = Vec::new();
        for i in 0..60 {
            let conf = 0.65 + 0.3 * ((i * 5 % 11) as f64 / 11.0);
            v.push(LabeledOutcome { probs: vec![conf, 1.0 - conf], correct: true });
            v.push(LabeledOutcome { probs: vec![0.53, 0.47], correct: false });
        }
        v
    }

    #[test]
    fn learns_to_separate_score_space() {
        let rise = Rise::fit(&records(), &validation(), 0.1);
        assert!(!rise.rejects(&[0.0], &[0.88, 0.12]), "confident prediction rejected");
        assert!(rise.rejects(&[0.0], &[0.52, 0.48]), "uncertain prediction accepted");
    }

    #[test]
    fn snapshot_restore_revives_the_frozen_svm_bit_for_bit() {
        use prom_core::detector::{Relabeled, Sample};
        let mut rise = Rise::fit(&records(), &validation(), 0.1);
        let batch: Vec<Relabeled> = (0..4)
            .map(|i| {
                let conf = 0.6 + 0.08 * i as f64;
                Relabeled::labeled(Sample::new(vec![i as f64], vec![conf, 1.0 - conf]), 0)
            })
            .collect();
        assert_eq!(rise.absorb_relabeled(&batch), 4);
        assert!(rise.evict_oldest_base());

        let json = serde::to_json_string(&rise.snapshot_state().unwrap());
        let state: serde::Value = serde::from_json_str(&json).unwrap();
        let mut restored = Rise::fit(&records(), &validation(), 0.1);
        restored.restore_state(&state).unwrap();

        assert_eq!(restored.base_len(), rise.base_len());
        assert_eq!(restored.score_table().sorted_buckets(), rise.score_table().sorted_buckets());
        // The judgement path exercises both the rebuilt table and the
        // restored SVM decision boundary.
        for conf in [0.5, 0.55, 0.62, 0.7, 0.85, 0.99] {
            let probs = [conf, 1.0 - conf];
            assert_eq!(restored.judge_one(&[0.0], &probs), rise.judge_one(&[0.0], &probs));
        }
        // A malformed SVM snapshot must error, not panic.
        let mut bad = RiseSnapshot::from_value(&state).unwrap();
        bad.svm.machines.pop();
        assert!(restored.restore_state(&bad.to_value()).is_err());
    }

    #[test]
    fn insert_record_skips_records_the_entry_rule_refuses_without_panicking() {
        let mut rise = Rise::fit(&records(), &validation(), 0.1);
        let size = rise.calibration_size();
        // A label past the record's own outputs (and the table's labels)
        // cannot be scored; a NaN embedding is refused like a relabel's.
        let out_of_range =
            CalibrationRecord { embedding: vec![0.0], probs: vec![0.6, 0.4], label: 2 };
        let nan_embedding =
            CalibrationRecord { embedding: vec![f64::NAN], probs: vec![0.6, 0.4], label: 0 };
        assert!(!rise.insert_record(&out_of_range));
        assert!(!rise.insert_record(&nan_embedding));
        assert_eq!(rise.calibration_size(), size, "a skipped record changes nothing");
        assert!(rise.insert_record(&CalibrationRecord::new(vec![0.0], vec![0.6, 0.4], 0)));
        assert_eq!(rise.calibration_size(), size.map(|n| n + 1));
    }

    #[test]
    #[should_panic(expected = "both correct and incorrect")]
    fn one_sided_validation_panics() {
        let one_sided: Vec<LabeledOutcome> =
            (0..10).map(|_| LabeledOutcome { probs: vec![0.9, 0.1], correct: true }).collect();
        let _ = Rise::fit(&records(), &one_sided, 0.1);
    }
}
