//! Naive split conformal prediction (the MAPIE / PUNCC style of Fig. 10).
//!
//! Uses the entire calibration set (no adaptive selection, no distance
//! weighting) and a single LAC nonconformity function; a prediction is
//! rejected when the p-value of its predicted label is below ε. The
//! calibration scores live in a [`ScoreTable`] pre-sorted per label, so
//! each judgement costs one binary search.

use prom_core::calibration::CalibrationRecord;
use prom_core::scoring::{JudgeScratch, ScoreTable};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::ledger::{BaselineKind, Entry, Ledger, Ledgered};

/// A plain split-CP misprediction detector.
pub type NaiveCp = Ledgered<SplitCp>;

/// The naive split-CP part of [`NaiveCp`]: reject below ε.
pub struct SplitCp {
    epsilon: f64,
}

impl NaiveCp {
    /// Builds the detector from calibration records.
    ///
    /// # Panics
    ///
    /// Panics on an empty calibration set or ε outside `[0, 1)`.
    pub fn new(records: &[CalibrationRecord], epsilon: f64) -> Self {
        assert!(!records.is_empty(), "empty calibration set");
        assert!((0.0..1.0).contains(&epsilon), "epsilon out of range");
        Self::build(records, records[0].probs.len(), |_| SplitCp { epsilon })
    }

    /// The p-value of the predicted (argmax) label; a label never seen in
    /// calibration offers no evidence of conformity (p = 0).
    pub fn credibility(&self, probs: &[f64]) -> f64 {
        crate::lac_credibility(self.score_table(), probs, prom_ml::matrix::argmax(probs))
    }
}

/// The portable state of a [`NaiveCp`]: ε plus both score ledgers. The
/// live table is exactly the multiset `base ++ absorbed`, so the ledgers
/// are the complete state — restore rebuilds the table from them,
/// bit-identical to the incrementally grown original.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct NaiveCpSnapshot {
    detector: String,
    epsilon: f64,
    n_labels: usize,
    base: Vec<Entry>,
    absorbed: Vec<Entry>,
}

impl BaselineKind for SplitCp {
    const NAME: &'static str = "MAPIE-PUNCC";
    const SNAPSHOT_TAG: &'static str = "naive-cp";

    fn rejects(&self, table: &ScoreTable, outputs: &[f64], _: &mut JudgeScratch) -> bool {
        crate::lac_credibility(table, outputs, prom_ml::matrix::argmax(outputs)) < self.epsilon
    }

    fn snapshot(&self, ledger: Ledger) -> Value {
        let Ledger { detector, n_labels, base, absorbed } = ledger;
        NaiveCpSnapshot { detector, epsilon: self.epsilon, n_labels, base, absorbed }.to_value()
    }

    fn restore(state: &Value) -> Result<(Ledger, Self), DeError> {
        let NaiveCpSnapshot { detector, epsilon, n_labels, base, absorbed } =
            NaiveCpSnapshot::from_value(state)?;
        if !(0.0..1.0).contains(&epsilon) {
            return Err(DeError::custom("snapshot epsilon out of [0, 1)"));
        }
        Ok((Ledger { detector, n_labels, base, absorbed }, Self { epsilon }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prom_core::detector::{DriftDetector, Relabeled, Truth};
    use prom_core::nonconformity::Lac;

    fn records() -> Vec<CalibrationRecord> {
        (0..60)
            .map(|i| {
                let label = i % 2;
                let conf = 0.65 + 0.3 * ((i * 7 % 13) as f64 / 13.0);
                let probs =
                    if label == 0 { vec![conf, 1.0 - conf] } else { vec![1.0 - conf, conf] };
                CalibrationRecord::new(vec![i as f64], probs, label)
            })
            .collect()
    }

    #[test]
    fn accepts_typical_confidences() {
        let cp = NaiveCp::new(&records(), 0.1);
        assert!(!cp.rejects(&[0.0], &[0.8, 0.2]));
    }

    #[test]
    fn rejects_flat_probabilities() {
        // A maximally uncertain prediction has higher LAC nonconformity
        // than every calibration score (all conf >= 0.65).
        let cp = NaiveCp::new(&records(), 0.1);
        assert!(cp.rejects(&[0.0], &[0.51, 0.49]));
    }

    #[test]
    fn credibility_is_monotone_in_confidence() {
        let cp = NaiveCp::new(&records(), 0.1);
        assert!(cp.credibility(&[0.9, 0.1]) >= cp.credibility(&[0.7, 0.3]));
        assert!(cp.credibility(&[0.7, 0.3]) >= cp.credibility(&[0.55, 0.45]));
    }

    #[test]
    fn sorted_table_matches_linear_scan_reference() {
        use prom_core::nonconformity::Nonconformity;
        use prom_core::pvalue::{p_value_for_label, ScoredSample};
        let recs = records();
        let cp = NaiveCp::new(&recs, 0.1);
        let samples: Vec<ScoredSample> = recs
            .iter()
            .map(|r| ScoredSample { label: r.label, adjusted_score: Lac.score(&r.probs, r.label) })
            .collect();
        for conf in [0.5, 0.62, 0.7, 0.85, 0.99] {
            let probs = [conf, 1.0 - conf];
            let predicted = prom_ml::matrix::argmax(&probs);
            let reference = p_value_for_label(&samples, predicted, Lac.score(&probs, predicted));
            assert_eq!(cp.credibility(&probs), reference, "conf {conf}");
        }
    }

    #[test]
    #[should_panic(expected = "empty calibration set")]
    fn empty_records_panic() {
        let _ = NaiveCp::new(&[], 0.1);
    }

    #[test]
    fn snapshot_restore_and_eviction_are_bit_exact() {
        use prom_core::detector::Sample;
        let recs = records();
        let mut cp = NaiveCp::new(&recs, 0.1);
        let batch: Vec<Relabeled> = (0..5)
            .map(|i| {
                let conf = 0.58 + 0.07 * i as f64;
                Relabeled::labeled(Sample::new(vec![i as f64], vec![1.0 - conf, conf]), 1)
            })
            .collect();
        assert_eq!(cp.absorb_relabeled(&batch), 5);
        assert!(cp.evict_oldest_base());
        assert!(cp.evict_oldest_base());
        assert_eq!(cp.base_len(), Some(recs.len() - 2));

        // Eviction == from-scratch fit on the surviving window.
        let mut survivors = recs[2..].to_vec();
        survivors.extend(batch.iter().map(|r| {
            CalibrationRecord::new(
                r.sample.embedding.clone(),
                r.sample.outputs.clone(),
                match r.truth {
                    Truth::Label(l) => l,
                    Truth::Target(_) => unreachable!(),
                },
            )
        }));
        let refit = NaiveCp::new(&survivors, 0.1);
        assert_eq!(cp.score_table().sorted_buckets(), refit.score_table().sorted_buckets());

        // Snapshot -> JSON -> restore onto a fresh detector.
        let json = serde::to_json_string(&cp.snapshot_state().unwrap());
        let state: Value = serde::from_json_str(&json).unwrap();
        let mut restored = NaiveCp::new(&recs, 0.1);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.base_len(), Some(recs.len() - 2));
        assert_eq!(restored.score_table().sorted_buckets(), cp.score_table().sorted_buckets());
        for conf in [0.5, 0.62, 0.7, 0.85, 0.99] {
            let probs = [conf, 1.0 - conf];
            assert_eq!(restored.credibility(&probs).to_bits(), cp.credibility(&probs).to_bits());
        }
        // A corrupt snapshot errors and leaves the detector untouched.
        let mut bad = NaiveCpSnapshot::from_value(&state).unwrap();
        bad.base[0].0 = 9;
        assert!(restored.restore_state(&bad.to_value()).is_err());
        assert_eq!(restored.score_table().sorted_buckets(), cp.score_table().sorted_buckets());
    }

    #[test]
    fn absorb_grows_table_identically_to_refit_and_skips_invalid() {
        use prom_core::detector::Sample;
        let recs = records();
        let mut cp = NaiveCp::new(&recs, 0.1);
        let extra: Vec<CalibrationRecord> = (0..20)
            .map(|i| {
                let conf = 0.55 + 0.4 * ((i * 3 % 7) as f64 / 7.0);
                CalibrationRecord::new(vec![i as f64, 1.0], vec![1.0 - conf, conf], 1)
            })
            .collect();
        let batch: Vec<Relabeled> = extra
            .iter()
            .map(|r| Relabeled::labeled(Sample::new(r.embedding.clone(), r.probs.clone()), r.label))
            // Invalid relabels absorb must skip: out-of-range label, NaN
            // embedding, regression truth.
            .chain([
                Relabeled::labeled(Sample::new(vec![0.0], vec![0.6, 0.4]), 5),
                Relabeled::labeled(Sample::new(vec![f64::NAN], vec![0.6, 0.4]), 0),
                Relabeled::measured(Sample::new(vec![0.0], vec![0.6, 0.4]), 0.5),
            ])
            .collect();
        assert!(batch.iter().take(extra.len()).all(|r| cp.can_absorb(r)));
        assert!(batch.iter().skip(extra.len()).all(|r| !cp.can_absorb(r)));
        assert_eq!(cp.absorb_relabeled(&batch), extra.len());
        assert_eq!(cp.calibration_size(), Some(recs.len() + extra.len()));

        let mut all = recs.clone();
        all.extend(extra);
        let refit = NaiveCp::new(&all, 0.1);
        for conf in [0.5, 0.62, 0.7, 0.85, 0.99] {
            let probs = [conf, 1.0 - conf];
            assert_eq!(
                cp.credibility(&probs).to_bits(),
                refit.credibility(&probs).to_bits(),
                "conf {conf}"
            );
        }
    }
}
