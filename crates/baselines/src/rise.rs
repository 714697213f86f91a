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
use prom_core::detector::{DriftDetector, Judgement, Relabeled, Truth};
use prom_core::nonconformity::{Lac, Nonconformity};
use prom_core::scoring::ScoreTable;
use prom_ml::data::Dataset;
use prom_ml::svm::{LinearSvm, LinearSvmSnapshot, SvmConfig};
use prom_ml::traits::Classifier;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::ledger;
use crate::tesseract::LabeledOutcome;

/// The RISE-style detector.
pub struct Rise {
    table: ScoreTable,
    svm: LinearSvm,
    epsilon: f64,
    /// `(label, score)` of each design-time base record still live, oldest
    /// first — shrunk from the front by `evict_oldest_base`. Records at
    /// indices below `base.len()` are never evicted by the online
    /// reservoir.
    base: Vec<(usize, f64)>,
    /// `(label, score)` of each record absorbed online, in absorb order —
    /// the bookkeeping `replace_record` needs to evict a reservoir slot
    /// from the pre-sorted table.
    absorbed: Vec<(usize, f64)>,
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
        let table = ScoreTable::from_records(records, &Lac, records[0].probs.len());

        let mut x = Vec::with_capacity(validation.len());
        let mut y = Vec::with_capacity(validation.len());
        for v in validation {
            x.push(score_features(&table, &v.probs, epsilon));
            // Class 1 = "should reject" (the model was wrong).
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
            let extra: Vec<(Vec<f64>, usize)> = x
                .iter()
                .zip(y.iter())
                .filter(|(_, &c)| c == 1)
                .map(|(f, &c)| (f.clone(), c))
                .collect();
            for _ in 1..copies {
                for (f, c) in &extra {
                    x.push(f.clone());
                    y.push(*c);
                }
            }
        }
        let svm = LinearSvm::fit(&Dataset::new(x, y), SvmConfig::default());
        Self { table, svm, epsilon, base: ledger::base_entries(records), absorbed: Vec::new() }
    }

    /// Inserts one calibration record into the pre-sorted score table
    /// incrementally (`O(log n + shift)`, no refit) — the grown table is
    /// bit-identical to `ScoreTable::from_records` over the same records.
    /// The SVM decision boundary is a *design-time* artifact tuned on
    /// validation outcomes and stays frozen; only the conformal score
    /// population grows. Returns `false` (skipping the record) when its
    /// label is out of the table's range or its LAC score is NaN.
    pub fn insert_record(&mut self, record: &CalibrationRecord) -> bool {
        let score = Lac.score(&record.probs, record.label);
        if record.label >= self.table.n_labels() || score.is_nan() {
            return false;
        }
        self.insert_scored(record.label, score);
        true
    }

    /// The one insert+bookkeeping pair every online path shares: the
    /// absorbed-slot ledger must stay bit-exactly in sync with the live
    /// table for `replace_record` eviction to find what it removes.
    fn insert_scored(&mut self, label: usize, score: f64) {
        self.table.insert(label, score);
        self.absorbed.push((label, score));
    }

    /// Borrows the live conformal score table (the incremental-equivalence
    /// tests compare it bit-for-bit against a from-scratch refit).
    pub fn score_table(&self) -> &ScoreTable {
        &self.table
    }

    /// A relabeled deployment sample viewed as a calibration record, when
    /// valid for this table.
    fn record_from_relabeled(&self, r: &Relabeled) -> Option<(usize, f64)> {
        let Truth::Label(label) = r.truth else {
            return None;
        };
        if label >= r.sample.outputs.len() || label >= self.table.n_labels() {
            return None;
        }
        let score = Lac.score(&r.sample.outputs, label);
        (!score.is_nan()).then_some((label, score))
    }
}

/// Snapshot tag distinguishing RISE snapshots from other detectors'.
const RISE_SNAPSHOT_TAG: &str = "rise";

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
    base: Vec<(usize, f64)>,
    absorbed: Vec<(usize, f64)>,
    svm: LinearSvmSnapshot,
}

/// The score vector RISE feeds its SVM, written into `features`:
/// credibility (p-value of the predicted label), confidence (1 - the
/// runner-up p-value), and the prediction-set size as an auxiliary signal.
/// `test_scores` and `p_values` are reusable work buffers (a batched
/// deployment window — or every window a pool shard judges —
/// computes per-sample features without per-sample allocation).
fn score_features_into(
    table: &ScoreTable,
    probs: &[f64],
    epsilon: f64,
    test_scores: &mut Vec<f64>,
    p_values: &mut Vec<f64>,
    features: &mut Vec<f64>,
) {
    let predicted = prom_ml::matrix::argmax(probs);
    test_scores.clear();
    test_scores.extend((0..probs.len()).map(|y| Lac.score(probs, y)));
    table.p_values_into(test_scores, p_values);
    let credibility = p_values[predicted];
    let runner_up = p_values
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != predicted)
        .map(|(_, &p)| p)
        .fold(0.0f64, f64::max);
    let confidence = 1.0 - runner_up;
    let set_size = p_values.iter().filter(|&&p| p > epsilon).count() as f64;
    features.clear();
    features.extend_from_slice(&[credibility, confidence, set_size]);
}

/// One-shot form of [`score_features_into`] for the fitting path.
fn score_features(table: &ScoreTable, probs: &[f64], epsilon: f64) -> Vec<f64> {
    let (mut test_scores, mut p_values) = (Vec::new(), Vec::new());
    let mut features = Vec::with_capacity(3);
    score_features_into(table, probs, epsilon, &mut test_scores, &mut p_values, &mut features);
    features
}

impl DriftDetector for Rise {
    fn name(&self) -> &'static str {
        "RISE"
    }

    fn judge_one(&self, _embedding: &[f64], outputs: &[f64]) -> Judgement {
        let features = score_features(&self.table, outputs, self.epsilon);
        Judgement::single(self.svm.predict(&features) == 1)
    }

    /// Batched override: identical judgements to the looped path, but one
    /// set of score buffers is reused across the whole window — the only
    /// baseline where per-judgement allocation is worth amortizing
    /// (`NaiveCp` and `Tesseract` judge with a single allocation-free
    /// binary search each).
    fn judge_batch(&self, samples: &[prom_core::detector::Sample]) -> Vec<Judgement> {
        let mut scratch = prom_core::scoring::JudgeScratch::new();
        self.judge_batch_scratch(samples, &mut scratch)
    }

    /// Pool entry point: the batched path over the shard's reused
    /// scratch — its `test_scores`/`p_values` buffers carry the score
    /// features, so a shard never re-grows them between windows.
    /// Bit-identical to `judge_batch`.
    fn judge_batch_scratch(
        &self,
        samples: &[prom_core::detector::Sample],
        scratch: &mut prom_core::scoring::JudgeScratch,
    ) -> Vec<Judgement> {
        let mut features = Vec::with_capacity(3);
        // Lift the buffers out so the borrows stay disjoint.
        let mut test_scores = std::mem::take(&mut scratch.test_scores);
        let mut p_values = std::mem::take(&mut scratch.p_values);
        let judgements = samples
            .iter()
            .map(|s| {
                score_features_into(
                    &self.table,
                    &s.outputs,
                    self.epsilon,
                    &mut test_scores,
                    &mut p_values,
                    &mut features,
                );
                Judgement::single(self.svm.predict(&features) == 1)
            })
            .collect();
        scratch.test_scores = test_scores;
        scratch.p_values = p_values;
        judgements
    }

    fn calibration_size(&self) -> Option<usize> {
        Some(self.table.len())
    }

    fn can_absorb(&self, r: &Relabeled) -> bool {
        self.record_from_relabeled(r).is_some()
    }

    /// Incremental override: each valid relabel's LAC score is inserted
    /// into the pre-sorted table in place (see [`Rise::insert_record`]).
    fn absorb_relabeled(&mut self, batch: &[Relabeled]) -> usize {
        let mut absorbed = 0;
        for r in batch {
            if let Some((label, score)) = self.record_from_relabeled(r) {
                self.insert_scored(label, score);
                absorbed += 1;
            }
        }
        absorbed
    }

    /// Evicts the online record at `index` (indices below the design-time
    /// base are never evicted) and inserts `r` in its slot: one
    /// binary-search removal plus one binary-search insert.
    fn replace_record(&mut self, index: usize, r: &Relabeled) -> bool {
        let Some(slot) = index.checked_sub(self.base.len()) else {
            return false;
        };
        if slot >= self.absorbed.len() {
            return false;
        }
        let Some((label, score)) = self.record_from_relabeled(r) else {
            return false;
        };
        let (old_label, old_score) = self.absorbed[slot];
        let removed = self.table.remove(old_label, old_score);
        debug_assert!(removed, "absorbed bookkeeping must track the live table");
        self.table.insert(label, score);
        self.absorbed[slot] = (label, score);
        true
    }

    fn base_len(&self) -> Option<usize> {
        Some(self.base.len())
    }

    fn evict_oldest_base(&mut self) -> bool {
        ledger::evict_oldest(&mut self.base, &mut self.table)
    }

    fn snapshot_state(&self) -> Option<Value> {
        Some(
            RiseSnapshot {
                detector: RISE_SNAPSHOT_TAG.to_string(),
                epsilon: self.epsilon,
                n_labels: self.table.n_labels(),
                base: self.base.clone(),
                absorbed: self.absorbed.clone(),
                svm: self.svm.snapshot(),
            }
            .to_value(),
        )
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let snap = RiseSnapshot::from_value(state)?;
        if snap.detector != RISE_SNAPSHOT_TAG {
            return Err(DeError::custom(format!(
                "snapshot is for detector kind {:?}, expected {RISE_SNAPSHOT_TAG:?}",
                snap.detector
            )));
        }
        if snap.n_labels != self.table.n_labels() {
            return Err(DeError::custom(format!(
                "snapshot has {} labels, detector has {}",
                snap.n_labels,
                self.table.n_labels()
            )));
        }
        if !(0.0..1.0).contains(&snap.epsilon) {
            return Err(DeError::custom("snapshot epsilon out of [0, 1)"));
        }
        if snap.base.is_empty() && snap.absorbed.is_empty() {
            return Err(DeError::custom("snapshot has no calibration entries"));
        }
        ledger::validate_entries("base", &snap.base, snap.n_labels)?;
        ledger::validate_entries("absorbed", &snap.absorbed, snap.n_labels)?;
        // Pre-validate the SVM snapshot's shape so `LinearSvm::restore`
        // (which asserts on design-time bugs) cannot panic on a corrupt
        // *runtime* input.
        if snap.svm.n_classes < 2
            || snap.svm.machines.len() != snap.svm.n_classes
            || snap.svm.machines.iter().any(|m| m.w.len() != snap.svm.machines[0].w.len())
        {
            return Err(DeError::custom("snapshot SVM has an inconsistent shape"));
        }
        self.svm = LinearSvm::restore(&snap.svm);
        self.table = ledger::rebuild_table(&snap.base, &snap.absorbed, snap.n_labels);
        self.epsilon = snap.epsilon;
        self.base = snap.base;
        self.absorbed = snap.absorbed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    #[should_panic(expected = "both correct and incorrect")]
    fn one_sided_validation_panics() {
        let one_sided: Vec<LabeledOutcome> =
            (0..10).map(|_| LabeledOutcome { probs: vec![0.9, 0.1], correct: true }).collect();
        let _ = Rise::fit(&records(), &one_sided, 0.1);
    }
}
