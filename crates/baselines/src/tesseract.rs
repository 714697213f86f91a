//! A TESSERACT-style conformal evaluator (Pendlebury et al., USENIX
//! Security '19).
//!
//! Like naive CP it uses the full calibration set and one nonconformity
//! function, but rejection thresholds are **per class** and tuned on a
//! validation split with known prediction correctness, maximizing the F1
//! score of misprediction detection. P-values come from the pre-sorted
//! [`ScoreTable`], both during threshold tuning and at deployment.

use prom_core::calibration::CalibrationRecord;
use prom_core::scoring::{JudgeScratch, ScoreTable};
use prom_ml::metrics::BinaryConfusion;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::ledger::{BaselineKind, Entry, Ledger, Ledgered};

/// A validation observation: the model's probability vector and whether its
/// prediction was correct.
#[derive(Debug, Clone)]
pub struct LabeledOutcome {
    /// Model probability vector.
    pub probs: Vec<f64>,
    /// Whether the model's argmax prediction was correct.
    pub correct: bool,
}

/// The TESSERACT-style detector.
pub type Tesseract = Ledgered<ClassThresholds>;

/// The TESSERACT part of [`Tesseract`]: per-class p-value thresholds, a
/// design-time artifact tuned on validation outcomes that stays frozen
/// while the conformal score population adapts.
pub struct ClassThresholds {
    thresholds: Vec<f64>,
}

impl Tesseract {
    /// Builds the detector and tunes per-class thresholds on the validation
    /// outcomes.
    ///
    /// # Panics
    ///
    /// Panics on empty calibration or validation data.
    pub fn fit(
        records: &[CalibrationRecord],
        validation: &[LabeledOutcome],
        n_classes: usize,
    ) -> Self {
        assert!(!records.is_empty(), "empty calibration set");
        assert!(!validation.is_empty(), "empty validation set");
        Self::build(records, n_classes, |table| ClassThresholds {
            thresholds: tune_thresholds(table, validation, n_classes),
        })
    }

    /// The tuned per-class thresholds.
    pub fn thresholds(&self) -> &[f64] {
        &self.kind().thresholds
    }
}

/// Tunes each class's threshold independently over a p-value grid,
/// maximizing the class-local detection F1.
fn tune_thresholds(
    table: &ScoreTable,
    validation: &[LabeledOutcome],
    n_classes: usize,
) -> Vec<f64> {
    // Precompute validation p-values once.
    let val: Vec<(usize, f64, bool)> = validation
        .iter()
        .map(|v| {
            let predicted = prom_ml::matrix::argmax(&v.probs);
            let p = crate::lac_credibility(table, &v.probs, predicted);
            (predicted, p, v.correct)
        })
        .collect();

    let grid = [0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5];
    let mut thresholds = vec![0.1; n_classes];
    for (class, threshold) in thresholds.iter_mut().enumerate() {
        let class_val: Vec<&(usize, f64, bool)> =
            val.iter().filter(|(c, _, _)| *c == class).collect();
        if class_val.is_empty() {
            continue;
        }
        let mut best = (0.1, -1.0);
        for &t in &grid {
            let mut confusion = BinaryConfusion::default();
            for &&(_, p, correct) in &class_val {
                confusion.record(p < t, !correct);
            }
            let f1 = confusion.f1();
            if f1 > best.1 {
                best = (t, f1);
            }
        }
        *threshold = best.0;
    }
    thresholds
}

/// The portable state of a [`Tesseract`]: the tuned per-class thresholds
/// (a frozen design-time artifact a reconstruction would have to re-tune
/// on validation data) plus both score ledgers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TesseractSnapshot {
    detector: String,
    n_labels: usize,
    thresholds: Vec<f64>,
    base: Vec<Entry>,
    absorbed: Vec<Entry>,
}

impl BaselineKind for ClassThresholds {
    const NAME: &'static str = "TESSERACT";
    const SNAPSHOT_TAG: &'static str = "tesseract";

    fn rejects(&self, table: &ScoreTable, outputs: &[f64], _: &mut JudgeScratch) -> bool {
        let predicted = prom_ml::matrix::argmax(outputs);
        let p = crate::lac_credibility(table, outputs, predicted);
        p < self.thresholds.get(predicted).copied().unwrap_or(0.1)
    }

    fn snapshot(&self, ledger: Ledger) -> Value {
        let Ledger { detector, n_labels, base, absorbed } = ledger;
        let thresholds = self.thresholds.clone();
        TesseractSnapshot { detector, n_labels, thresholds, base, absorbed }.to_value()
    }

    fn restore(state: &Value) -> Result<(Ledger, Self), DeError> {
        let TesseractSnapshot { detector, n_labels, thresholds, base, absorbed } =
            TesseractSnapshot::from_value(state)?;
        if thresholds.len() != n_labels {
            return Err(DeError::custom(format!(
                "snapshot has {} thresholds for {n_labels} labels",
                thresholds.len()
            )));
        }
        if thresholds.iter().any(|t| !t.is_finite()) {
            return Err(DeError::custom("snapshot threshold is not finite"));
        }
        Ok((Ledger { detector, n_labels, base, absorbed }, Self { thresholds }))
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
        for i in 0..40 {
            let conf = 0.65 + 0.3 * ((i * 5 % 11) as f64 / 11.0);
            v.push(LabeledOutcome { probs: vec![conf, 1.0 - conf], correct: true });
            v.push(LabeledOutcome { probs: vec![0.52, 0.48], correct: false });
        }
        v
    }

    #[test]
    fn tuned_detector_separates_validation_like_cases() {
        let t = Tesseract::fit(&records(), &validation(), 2);
        assert!(!t.rejects(&[0.0], &[0.85, 0.15]), "confident prediction rejected");
        assert!(t.rejects(&[0.0], &[0.52, 0.48]), "uncertain prediction accepted");
    }

    #[test]
    fn thresholds_are_per_class() {
        let t = Tesseract::fit(&records(), &validation(), 2);
        assert_eq!(t.thresholds().len(), 2);
        for &thr in t.thresholds() {
            assert!((0.0..=0.5).contains(&thr));
        }
    }

    #[test]
    fn snapshot_restore_carries_thresholds_and_ledgers() {
        use prom_core::detector::{Relabeled, Sample};
        let mut t = Tesseract::fit(&records(), &validation(), 2);
        let batch: Vec<Relabeled> = (0..3)
            .map(|i| {
                let conf = 0.6 + 0.1 * i as f64;
                Relabeled::labeled(Sample::new(vec![i as f64], vec![1.0 - conf, conf]), 1)
            })
            .collect();
        assert_eq!(t.absorb_relabeled(&batch), 3);
        assert!(t.evict_oldest_base());

        let json = serde::to_json_string(&t.snapshot_state().unwrap());
        let state: Value = serde::from_json_str(&json).unwrap();
        let mut restored = Tesseract::fit(&records(), &validation(), 2);
        restored.restore_state(&state).unwrap();

        assert_eq!(restored.base_len(), t.base_len());
        assert_eq!(restored.thresholds(), t.thresholds());
        assert_eq!(restored.score_table().sorted_buckets(), t.score_table().sorted_buckets());
        for conf in [0.5, 0.62, 0.7, 0.85] {
            let probs = [conf, 1.0 - conf];
            assert_eq!(restored.judge_one(&[0.0], &probs), t.judge_one(&[0.0], &probs));
        }
        // Threshold/label count mismatch must be rejected.
        let mut bad = TesseractSnapshot::from_value(&state).unwrap();
        bad.thresholds.pop();
        assert!(restored.restore_state(&bad.to_value()).is_err());
    }

    #[test]
    #[should_panic(expected = "empty validation set")]
    fn empty_validation_panics() {
        let _ = Tesseract::fit(&records(), &[], 2);
    }
}
