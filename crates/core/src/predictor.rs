//! [`PromClassifier`]: the deployment-time wrapper for classification
//! models.

use prom_ml::traits::Classifier;

use crate::calibrated::{Calibrated, DetectorKind};
use crate::calibration::CalibrationRecord;
use crate::committee::{PromConfig, PromJudgement};
use crate::detector::{DriftDetector, Judgement, Relabeled, Sample, Truth};
use crate::nonconformity::{default_committee, Nonconformity};
use crate::scoring::{JudgeScratch, ScoringKernel};
use crate::PromError;
use serde::{DeError, Deserialize, Serialize, Value};

/// Drift detector for a deployed probabilistic classifier.
///
/// Construct once at design time from a calibration set (held out from the
/// model's training data), then call [`PromClassifier::judge`] on every
/// deployment-time prediction — or [`Calibrated::judge_batch`] on a
/// window of predictions, which reuses one scoring scratch buffer across
/// the whole window. The wrapper never touches the underlying model: it
/// only consumes embeddings and probability vectors, mirroring the paper's
/// `pybind11` integration note.
pub type PromClassifier = Calibrated<Classification>;

/// The classification part of [`PromClassifier`]: records calibrate under
/// their true label, scored by each [`Nonconformity`] expert.
pub struct Classification {
    experts: Vec<Box<dyn Nonconformity>>,
}

impl DetectorKind for Classification {
    type Record = CalibrationRecord;

    const SNAPSHOT_TAG: &'static str = "prom-classifier";

    fn embedding(record: &CalibrationRecord) -> &[f64] {
        &record.embedding
    }

    fn record_output_len(record: &CalibrationRecord) -> usize {
        record.probs.len()
    }

    /// [`CalibrationRecord::validate`], plus a NaN-free probability
    /// vector: a NaN output gives NaN expert scores, which count in every
    /// p-value denominator of their label but never in a numerator.
    fn validate(record: &CalibrationRecord) -> Result<(), String> {
        record.validate()?;
        if record.probs.iter().any(|p| p.is_nan()) {
            return Err("NaN in probability vector".into());
        }
        Ok(())
    }

    fn from_relabeled(r: &Relabeled) -> Option<CalibrationRecord> {
        let Truth::Label(label) = r.truth else {
            return None;
        };
        Some(CalibrationRecord {
            embedding: r.sample.embedding.clone(),
            probs: r.sample.outputs.clone(),
            label,
        })
    }

    fn expert_names(&self) -> impl ExactSizeIterator<Item = &'static str> + '_ {
        self.experts.iter().map(|e| e.name())
    }

    fn n_labels(&self, output_len: usize) -> usize {
        output_len
    }

    fn output_len(&self, kernel: &ScoringKernel) -> usize {
        kernel.n_labels()
    }

    fn label(&self, record: &CalibrationRecord) -> usize {
        record.label
    }

    fn score(&self, expert: usize, record: &CalibrationRecord) -> f64 {
        self.experts[expert].score(&record.probs, record.label)
    }

    fn test_scores(
        &self,
        _records: &[CalibrationRecord],
        kernel: &ScoringKernel,
        probs: &[f64],
        scratch: &mut JudgeScratch,
    ) -> usize {
        let n_classes = kernel.n_labels();
        assert_eq!(probs.len(), n_classes, "class-count mismatch");
        scratch.test_scores.clear();
        for expert in &self.experts {
            scratch.test_scores.extend((0..n_classes).map(|y| expert.score(probs, y)));
        }
        prom_ml::matrix::argmax(probs)
    }

    fn snapshot(core: &PromClassifier) -> Value {
        ClassifierSnapshot {
            detector: Self::SNAPSHOT_TAG.to_string(),
            expert_names: core.expert_names().into_iter().map(String::from).collect(),
            n_classes: core.n_classes(),
            base_len: core.base_record_len(),
            records: core.records().to_vec(),
        }
        .to_value()
    }

    /// Restores a classifier snapshot onto an identically configured
    /// detector by rebuilding from its records — a pure function of
    /// (records, experts, selection config), so bit-identical to the
    /// snapshotted original's incrementally grown state.
    fn restore(core: &mut PromClassifier, state: &Value) -> Result<(), DeError> {
        let snap = ClassifierSnapshot::from_value(state)?;
        if snap.n_classes != core.n_classes() {
            return Err(DeError::custom(format!(
                "snapshot has {} classes, detector has {}",
                snap.n_classes,
                core.n_classes()
            )));
        }
        core.restore_snapshot(
            &snap.detector,
            &snap.expert_names,
            snap.base_len,
            snap.records,
            |_, _| Ok(()),
        )
    }
}

impl PromClassifier {
    /// Builds a detector with the paper's default expert committee
    /// (LAC, Top-K, APS, RAPS).
    ///
    /// # Errors
    ///
    /// Returns [`PromError`] if the calibration set is empty, holds an
    /// invalid record or records of different shapes, or the configuration
    /// is out of range.
    pub fn new(records: Vec<CalibrationRecord>, config: PromConfig) -> Result<Self, PromError> {
        Self::with_experts(records, default_committee(), config)
    }

    /// Builds a detector with a custom expert committee (e.g. a single
    /// function for the Fig. 11 ablation).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PromClassifier::new`], plus an empty committee.
    pub fn with_experts(
        records: Vec<CalibrationRecord>,
        experts: Vec<Box<dyn Nonconformity>>,
        config: PromConfig,
    ) -> Result<Self, PromError> {
        Self::build(records, config, |_| Ok(Classification { experts }))
    }

    /// Convenience constructor: runs `model` over the calibration inputs to
    /// extract embeddings and probability vectors.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PromClassifier::new`].
    pub fn from_model<X, M: Classifier<X>>(
        model: &M,
        inputs: &[X],
        labels: &[usize],
        config: PromConfig,
    ) -> Result<Self, PromError> {
        assert_eq!(inputs.len(), labels.len(), "input/label length mismatch");
        let records = inputs
            .iter()
            .zip(labels.iter())
            .map(|(x, &y)| CalibrationRecord::new(model.embed(x), model.predict_proba(x), y))
            .collect();
        Self::new(records, config)
    }

    /// Judges one deployment-time prediction: `embedding` and `probs` are
    /// the underlying model's embedding and probability vector for the test
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `probs` has a different number of classes than the
    /// calibration records or `embedding` has the wrong dimension.
    pub fn judge(&self, embedding: &[f64], probs: &[f64]) -> PromJudgement {
        self.judge_with(embedding, probs, self.config())
    }

    /// Judges a window once and re-thresholds it under every configuration:
    /// one Eq. 1 selection and one committee p-value pass per *sample*,
    /// then `configs.len()` cheap committee votes — the shared-embedding
    /// fan-out behind `MultiPipeline::fanout`. Returns one judgement vector
    /// per configuration (`result[c][s]`), each **bit-identical** to
    /// `judge_batch_with(samples, &configs[c])`: p-values depend only on
    /// the calibration set and the stored *selection* parameters, never on
    /// the ε/confidence thresholds being fanned out (the same invariant the
    /// grid search relies on), so fusing the kernel work changes no bits.
    ///
    /// # Panics
    ///
    /// Panics on a class-count or embedding-dimension mismatch in any
    /// sample.
    pub fn judge_batch_fanout_scratch(
        &self,
        samples: &[Sample],
        configs: &[PromConfig],
        scratch: &mut JudgeScratch,
    ) -> Vec<Vec<PromJudgement>> {
        let mut out: Vec<Vec<PromJudgement>> =
            (0..configs.len()).map(|_| Vec::with_capacity(samples.len())).collect();
        let queries: Vec<&[f64]> = samples.iter().map(|s| s.embedding.as_slice()).collect();
        self.kernel().select_each(&queries, scratch, |i, scratch| {
            let predicted = self.committee_p_values(&samples[i].outputs, scratch);
            for (config, judged) in configs.iter().zip(out.iter_mut()) {
                let rows = scratch.p_values.chunks_exact(self.n_classes());
                judged.push(self.vote(rows, predicted, config));
            }
        });
        out
    }

    /// Per-expert p-values for every candidate label (`result[e][y]`).
    ///
    /// This is the raw statistical assessment behind [`PromClassifier::judge`];
    /// the tuning module reuses it to sweep thresholds without recomputing
    /// distances.
    ///
    /// # Panics
    ///
    /// Panics if `probs` has a different number of classes than the
    /// calibration records or `embedding` has the wrong dimension.
    pub fn expert_p_values(&self, embedding: &[f64], probs: &[f64]) -> Vec<Vec<f64>> {
        let mut scratch = JudgeScratch::new();
        self.kernel().select(embedding, &mut scratch);
        self.committee_p_values(probs, &mut scratch);
        scratch.p_values.chunks_exact(self.n_classes()).map(<[f64]>::to_vec).collect()
    }

    /// Re-thresholds precomputed per-expert p-values (from
    /// [`PromClassifier::expert_p_values`]) under `config`: the committee
    /// vote without the conformal kernel, so ε/confidence sweeps pay the
    /// distance and p-value work once per sample instead of once per grid
    /// point. Returns the same judgement as
    /// [`Calibrated::judge_with`] on the sample the p-values came from.
    pub fn judgement_from_p_values(
        &self,
        p_values: &[Vec<f64>],
        predicted: usize,
        config: &PromConfig,
    ) -> PromJudgement {
        assert_eq!(p_values.len(), self.kind().experts.len(), "expert-count mismatch");
        self.vote(p_values.iter().map(Vec::as_slice), predicted, config)
    }

    /// The prediction set (labels with p-value above ε) of the *first*
    /// expert — the set used for coverage assessment (Eq. 3).
    pub fn prediction_set(&self, embedding: &[f64], probs: &[f64]) -> Vec<usize> {
        let mut scratch = JudgeScratch::new();
        self.kernel().select(embedding, &mut scratch);
        let expert = &self.kind().experts[0];
        scratch.test_scores.extend((0..self.n_classes()).map(|y| expert.score(probs, y)));
        self.kernel().p_values_into(0, &mut scratch);
        scratch
            .p_values
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > self.config().epsilon)
            .map(|(y, _)| y)
            .collect()
    }

    /// Replaces the calibration set (used after incremental retraining, when
    /// the model and its calibration data are refreshed together). The
    /// from-records rebuild that every incremental edit is bit-identical
    /// to.
    ///
    /// # Errors
    ///
    /// Returns [`PromError`], leaving the detector unchanged, if the set is
    /// empty or a record is invalid or shaped unlike the live set.
    pub fn recalibrate(&mut self, records: Vec<CalibrationRecord>) -> Result<(), PromError> {
        self.rebuild(records)
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.output_len()
    }
}

/// The portable state of a [`PromClassifier`]: the calibration records in
/// order plus the live base/online split. The expert committee is a set of
/// function objects, so the snapshot carries its *names* purely as a
/// compatibility check — restore targets an identically configured
/// detector and rebuilds scores from the records (a pure function of
/// records and experts, so the rebuild is bit-identical to the original's
/// incremental growth).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ClassifierSnapshot {
    detector: String,
    expert_names: Vec<String>,
    n_classes: usize,
    base_len: usize,
    records: Vec<CalibrationRecord>,
}

/// A borrowed, threshold-only view of a shared [`PromClassifier`]: judges
/// with the base detector's calibration set, experts, and *selection*
/// parameters, but its own ε / confidence / committee thresholds.
///
/// This is what lets `MultiPipeline::fanout` serve N detector
/// configurations from ONE model and ONE conformal kernel pass per sample
/// (via [`PromClassifier::judge_batch_fanout_scratch`]): each registered
/// "detector" is just a re-thresholding of the shared p-values. The view is
/// **frozen** — it borrows the base immutably, so the online-calibration
/// hooks keep their default no-op behaviour (`absorb_relabeled` returns 0).
///
/// Judgements are bit-identical to a standalone `PromClassifier` built with
/// the same calibration records and this view's thresholds (provided the
/// selection parameters match the base's — they come from the base).
pub struct PromThresholdView<'a> {
    base: &'a PromClassifier,
    config: PromConfig,
}

impl<'a> PromThresholdView<'a> {
    /// Wraps `base` with alternative threshold parameters. The selection
    /// parameters inside `config` are ignored — the base's kernel already
    /// fixed them.
    ///
    /// # Errors
    ///
    /// Returns [`PromError::InvalidConfig`] if `config` fails validation.
    pub fn new(base: &'a PromClassifier, config: PromConfig) -> Result<Self, PromError> {
        config.validate().map_err(|detail| PromError::InvalidConfig { detail })?;
        Ok(Self { base, config })
    }

    /// The view's threshold configuration.
    pub fn config(&self) -> &PromConfig {
        &self.config
    }

    /// The shared base detector.
    pub fn base(&self) -> &PromClassifier {
        self.base
    }
}

impl DriftDetector for PromThresholdView<'_> {
    fn name(&self) -> &'static str {
        "PROM-view"
    }

    fn judge_one(&self, embedding: &[f64], outputs: &[f64]) -> Judgement {
        Judgement::from(self.base.judge_with(embedding, outputs, &self.config))
    }

    fn judge_batch(&self, samples: &[Sample]) -> Vec<Judgement> {
        self.base.judge_batch_with(samples, &self.config).into_iter().map(Judgement::from).collect()
    }

    fn judge_batch_scratch(
        &self,
        samples: &[Sample],
        scratch: &mut JudgeScratch,
    ) -> Vec<Judgement> {
        self.base
            .judge_batch_scratch(samples, &self.config, scratch)
            .into_iter()
            .map(Judgement::from)
            .collect()
    }

    fn judge_batch_rich_scratch(
        &self,
        samples: &[Sample],
        scratch: &mut JudgeScratch,
    ) -> Option<Vec<PromJudgement>> {
        Some(self.base.judge_batch_scratch(samples, &self.config, scratch))
    }

    fn calibration_size(&self) -> Option<usize> {
        Some(self.base.calibration_len())
    }
    // `absorb_relabeled` / `can_absorb` / `replace_record` keep their
    // frozen defaults: the view cannot mutate the shared base.
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calibration set with two clusters and *realistic* model outputs:
    /// confidence varies sample-to-sample and ~15% of predictions are wrong,
    /// as any real calibration set would have. (With perfectly constant,
    /// perfectly correct probabilities, rank-based nonconformity degenerates
    /// — faithful to the method, but not a useful test fixture.)
    fn toy_records(n: usize) -> Vec<CalibrationRecord> {
        (0..n)
            .map(|i| {
                let label = i % 2;
                let base = if label == 0 { 0.0 } else { 6.0 };
                let jitter = ((i * 37 % 100) as f64 / 100.0 - 0.5) * 0.8;
                let conf = 0.6 + 0.38 * ((i * 13 % 23) as f64 / 23.0);
                let wrong = i % 7 == 3; // ~15% calibration mispredictions
                let p_true = if wrong { 1.0 - conf } else { conf };
                let probs = if label == 0 {
                    vec![p_true, 1.0 - p_true]
                } else {
                    vec![1.0 - p_true, p_true]
                };
                CalibrationRecord::new(vec![base + jitter, base - jitter], probs, label)
            })
            .collect()
    }

    #[test]
    fn accepts_most_in_distribution_predictions() {
        let prom = PromClassifier::new(toy_records(80), PromConfig::default()).unwrap();
        // Draw test samples from the same distribution as calibration.
        let mut accepted = 0;
        let total = 40;
        for i in 0..total {
            let jitter = ((i * 41 % 100) as f64 / 100.0 - 0.5) * 0.8;
            let conf = 0.6 + 0.38 * ((i * 17 % 23) as f64 / 23.0);
            let j = prom.judge(&[jitter, -jitter], &[conf, 1.0 - conf]);
            accepted += usize::from(j.accepted);
        }
        let rate = accepted as f64 / total as f64;
        assert!(rate > 0.7, "in-distribution acceptance rate too low: {rate}");
    }

    #[test]
    fn rejects_far_out_of_distribution_inputs() {
        let prom = PromClassifier::new(toy_records(60), PromConfig::default()).unwrap();
        // Far embedding + flat probabilities: both scores collapse.
        let j = prom.judge(&[500.0, -500.0], &[0.51, 0.49]);
        assert!(!j.accepted, "drifted prediction should be rejected: {j:?}");
        assert!(j.reject_votes >= 2);
    }

    #[test]
    fn judgement_has_one_verdict_per_expert() {
        let prom = PromClassifier::new(toy_records(40), PromConfig::default()).unwrap();
        let j = prom.judge(&[0.0, 0.0], &[0.9, 0.1]);
        assert_eq!(j.verdicts.len(), 4);
        let names: Vec<&str> = j.verdicts.iter().map(|v| v.expert.as_str()).collect();
        assert_eq!(names, vec!["LAC", "Top-K", "APS", "RAPS"]);
    }

    #[test]
    fn rethresholding_cached_p_values_matches_judge_with() {
        let prom = PromClassifier::new(toy_records(60), PromConfig::default()).unwrap();
        let cases = [(vec![0.1, -0.1], vec![0.85, 0.15]), (vec![500.0, -500.0], vec![0.51, 0.49])];
        for (embedding, probs) in &cases {
            let ps = prom.expert_p_values(embedding, probs);
            let predicted = prom_ml::matrix::argmax(probs);
            for eps in [0.02, 0.1, 0.3] {
                let cfg = PromConfig { epsilon: eps, ..PromConfig::default() };
                assert_eq!(
                    prom.judgement_from_p_values(&ps, predicted, &cfg),
                    prom.judge_with(embedding, probs, &cfg),
                    "eps {eps}"
                );
            }
        }
    }

    #[test]
    fn fanout_batch_is_bit_identical_to_independent_judging() {
        let prom = PromClassifier::new(toy_records(60), PromConfig::default()).unwrap();
        let samples: Vec<Sample> = (0..12)
            .map(|i| {
                let jitter = ((i * 41 % 100) as f64 / 100.0 - 0.5) * 0.8;
                let conf = 0.6 + 0.38 * ((i * 17 % 23) as f64 / 23.0);
                // Mix in-distribution samples with drifted ones.
                let emb =
                    if i % 4 == 0 { vec![300.0 + jitter, -300.0] } else { vec![jitter, -jitter] };
                Sample::new(emb, vec![conf, 1.0 - conf])
            })
            .collect();
        let configs: Vec<PromConfig> = [0.02, 0.1, 0.3]
            .iter()
            .map(|&eps| PromConfig { epsilon: eps, ..PromConfig::default() })
            .collect();
        let mut scratch = JudgeScratch::default();
        let fanned = prom.judge_batch_fanout_scratch(&samples, &configs, &mut scratch);
        assert_eq!(fanned.len(), configs.len());
        for (c, config) in configs.iter().enumerate() {
            assert_eq!(
                fanned[c],
                prom.judge_batch_with(&samples, config),
                "fanout output diverged from independent judging at config {c}"
            );
        }
    }

    #[test]
    fn threshold_view_matches_standalone_detector() {
        let records = toy_records(60);
        let strict = PromConfig { epsilon: 0.02, ..PromConfig::default() };
        let base = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
        let standalone = PromClassifier::new(records, strict.clone()).unwrap();
        let view = PromThresholdView::new(&base, strict).unwrap();
        let samples: Vec<Sample> = (0..8)
            .map(|i| {
                let jitter = ((i * 29 % 100) as f64 / 100.0 - 0.5) * 0.8;
                Sample::new(vec![jitter, -jitter], vec![0.8, 0.2])
            })
            .collect();
        let mut scratch = JudgeScratch::default();
        let standalone_flat: Vec<Judgement> =
            standalone.judge_batch(&samples).into_iter().map(Judgement::from).collect();
        assert_eq!(DriftDetector::judge_batch(&view, &samples), standalone_flat);
        assert_eq!(
            view.judge_batch_rich_scratch(&samples, &mut scratch).unwrap(),
            standalone.judge_batch_rich_scratch(&samples, &mut scratch).unwrap(),
        );
        assert_eq!(view.calibration_size(), Some(base.calibration_len()));
        // The view is frozen: online-calibration hooks stay no-ops.
        assert!(
            !view.can_absorb(&Relabeled::labeled(Sample::new(vec![0.0, 0.0], vec![0.5, 0.5]), 0))
        );
    }

    #[test]
    fn empty_calibration_is_an_error() {
        assert_eq!(
            PromClassifier::new(vec![], PromConfig::default()).err(),
            Some(PromError::EmptyCalibration)
        );
    }

    #[test]
    fn inconsistent_records_are_an_error() {
        let mut records = toy_records(10);
        records.push(CalibrationRecord::new(vec![0.0], vec![0.5, 0.5], 0));
        assert!(matches!(
            PromClassifier::new(records, PromConfig::default()),
            Err(PromError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn invalid_config_is_an_error() {
        let cfg = PromConfig { epsilon: 2.0, ..Default::default() };
        assert!(matches!(
            PromClassifier::new(toy_records(10), cfg),
            Err(PromError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn recalibrate_swaps_records() {
        let mut prom = PromClassifier::new(toy_records(20), PromConfig::default()).unwrap();
        assert_eq!(prom.calibration_len(), 20);
        prom.recalibrate(toy_records(30)).unwrap();
        assert_eq!(prom.calibration_len(), 30);
        assert_eq!(prom.expert_names().len(), 4);
    }

    #[test]
    fn prediction_set_contains_true_label_for_typical_inputs() {
        let prom = PromClassifier::new(toy_records(80), PromConfig::default()).unwrap();
        let set = prom.prediction_set(&[0.1, 0.1], &[0.9, 0.1]);
        assert!(set.contains(&0), "typical class-0 input must have 0 in its set: {set:?}");
    }

    #[test]
    fn from_model_extracts_records() {
        struct Stub;
        impl Classifier<Vec<f64>> for Stub {
            fn n_classes(&self) -> usize {
                2
            }
            fn predict_proba(&self, x: &Vec<f64>) -> Vec<f64> {
                if x[0] < 3.0 {
                    vec![0.9, 0.1]
                } else {
                    vec![0.1, 0.9]
                }
            }
            fn embed(&self, x: &Vec<f64>) -> Vec<f64> {
                x.clone()
            }
        }
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 2) as f64 * 6.0]).collect();
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let prom =
            PromClassifier::from_model(&Stub, &inputs, &labels, PromConfig::default()).unwrap();
        assert_eq!(prom.calibration_len(), 20);
        assert!(prom.judge(&[0.0], &[0.9, 0.1]).accepted);
    }

    #[test]
    fn judge_batch_matches_looped_judge_exactly() {
        // Cover both selection modes: small set (all kept, no sort) and a
        // large set (nearest-fraction sort).
        for n in [60, 400] {
            let prom = PromClassifier::new(toy_records(n), PromConfig::default()).unwrap();
            let samples: Vec<Sample> = (0..30)
                .map(|i| {
                    let x = (i as f64 * 0.7) - 5.0;
                    let conf = 0.5 + 0.49 * ((i * 11 % 17) as f64 / 17.0);
                    Sample::new(vec![x, -x], vec![conf, 1.0 - conf])
                })
                .collect();
            let batched = prom.judge_batch(&samples);
            for (s, b) in samples.iter().zip(batched.iter()) {
                let single = prom.judge(&s.embedding, &s.outputs);
                assert_eq!(single.accepted, b.accepted);
                assert_eq!(single.reject_votes, b.reject_votes);
                for (vs, vb) in single.verdicts.iter().zip(b.verdicts.iter()) {
                    assert_eq!(vs.credibility.to_bits(), vb.credibility.to_bits());
                    assert_eq!(vs.confidence.to_bits(), vb.confidence.to_bits());
                    assert_eq!(vs.prediction_set_size, vb.prediction_set_size);
                }
            }
        }
    }

    #[test]
    fn nan_inputs_produce_defined_judgements_not_panics() {
        let prom = PromClassifier::new(toy_records(60), PromConfig::default()).unwrap();
        // NaN embedding: every Eq. 1 weight collapses to 0 and every test
        // score here is strictly positive, so nothing conforms and the
        // committee rejects.
        let j = prom.judge(&[f64::NAN, 0.0], &[0.8, 0.2]);
        assert!(!j.accepted, "NaN embedding must be rejected, got {j:?}");
        // NaN probability vector: the judgement is *defined* (no panic) —
        // experts whose test score turns NaN see p = 0 on the predicted
        // label (a NaN output conforms to nothing) and vote reject; experts
        // whose scores stay finite may still vote accept.
        let j = prom.judge(&[0.1, -0.1], &[f64::NAN, 0.2]);
        assert_eq!(j.verdicts.len(), 4, "judgement must be fully formed");
        let lac = &j.verdicts[0];
        assert_eq!(lac.credibility, 0.0, "NaN LAC score must conform to nothing");
        assert!(lac.reject);
    }

    /// Per-expert p-value bits for a spread of probes — the detector's
    /// complete statistical output, used to prove bit-identity.
    fn probe_bits(prom: &PromClassifier) -> Vec<Vec<u64>> {
        (0..6)
            .map(|i| {
                let x = (i as f64) * 1.7 - 4.0;
                prom.expert_p_values(&[x, -x], &[0.7, 0.3])
                    .iter()
                    .flat_map(|ps| ps.iter().map(|p| p.to_bits()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut original = PromClassifier::new(toy_records(50), PromConfig::default()).unwrap();
        // Absorb online records so the base/online split is non-trivial.
        let relabels: Vec<Relabeled> = (0..4)
            .map(|i| {
                let x = i as f64 * 0.3;
                Relabeled::labeled(Sample::new(vec![x, -x], vec![0.8, 0.2]), 0)
            })
            .collect();
        assert_eq!(original.absorb_relabeled(&relabels), 4);
        assert!(original.evict_oldest_base_record());
        assert_eq!(original.base_record_len(), 49);
        assert_eq!(original.calibration_len(), 53);

        // Snapshot -> JSON text -> fresh identically configured detector.
        let json = serde::to_json_string(&original.snapshot_state().unwrap());
        let state: Value = serde::from_json_str(&json).unwrap();
        let mut restored = PromClassifier::new(toy_records(50), PromConfig::default()).unwrap();
        restored.restore_state(&state).unwrap();

        assert_eq!(restored.base_record_len(), 49, "base/online split must survive");
        assert_eq!(restored.calibration_len(), 53);
        assert_eq!(probe_bits(&restored), probe_bits(&original), "p-value bits diverged");
        // And both continue identically after further absorbs.
        let more = Relabeled::labeled(Sample::new(vec![0.5, -0.5], vec![0.6, 0.4]), 1);
        assert_eq!(original.absorb_relabeled(std::slice::from_ref(&more)), 1);
        assert_eq!(restored.absorb_relabeled(&[more]), 1);
        assert_eq!(probe_bits(&restored), probe_bits(&original));
    }

    #[test]
    fn eviction_matches_a_from_scratch_refit() {
        let records = toy_records(40);
        let mut evicted = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
        for _ in 0..3 {
            assert!(evicted.evict_oldest_base_record());
        }
        let refit = PromClassifier::new(records[3..].to_vec(), PromConfig::default()).unwrap();
        assert_eq!(evicted.base_record_len(), 37);
        assert_eq!(evicted.calibration_len(), 37);
        assert_eq!(probe_bits(&evicted), probe_bits(&refit), "eviction must equal a refit");
    }

    #[test]
    fn eviction_stops_at_an_empty_base_or_singleton_set() {
        let mut prom = PromClassifier::new(toy_records(2), PromConfig::default()).unwrap();
        assert!(prom.evict_oldest_base_record());
        assert!(!prom.evict_oldest_base_record(), "must not empty the calibration set");
        assert_eq!(prom.calibration_len(), 1);
    }

    #[test]
    fn incompatible_snapshots_are_rejected_without_mutation() {
        let mut prom = PromClassifier::new(toy_records(30), PromConfig::default()).unwrap();
        let before = probe_bits(&prom);
        // Wrong detector kind.
        let mut snap = ClassifierSnapshot {
            detector: "someone-else".to_string(),
            expert_names: prom.expert_names().iter().map(|n| n.to_string()).collect(),
            n_classes: 2,
            base_len: 30,
            records: toy_records(30),
        };
        assert!(prom.restore_state(&snap.to_value()).is_err());
        // Mismatched committee.
        snap.detector = Classification::SNAPSHOT_TAG.to_string();
        snap.expert_names = vec!["LAC".to_string()];
        assert!(prom.restore_state(&snap.to_value()).is_err());
        // base_len beyond the record count.
        snap.expert_names = prom.expert_names().iter().map(|n| n.to_string()).collect();
        snap.base_len = 31;
        assert!(prom.restore_state(&snap.to_value()).is_err());
        // Corrupt record (NaN embedding, built without `new`'s checks).
        snap.base_len = 30;
        snap.records[4].embedding[0] = f64::NAN;
        assert!(prom.restore_state(&snap.to_value()).is_err());
        assert_eq!(probe_bits(&prom), before, "rejected restores must not mutate");
    }

    #[test]
    fn trait_object_judgement_mirrors_inherent_judge() {
        let prom = PromClassifier::new(toy_records(50), PromConfig::default()).unwrap();
        let det: &dyn DriftDetector = &prom;
        assert_eq!(det.name(), "PROM");
        let rich = prom.judge(&[0.2, -0.2], &[0.8, 0.2]);
        let flat = det.judge_one(&[0.2, -0.2], &[0.8, 0.2]);
        assert_eq!(flat.accepted, rich.accepted);
        assert_eq!(flat.reject_votes, rich.reject_votes);
        assert_eq!(flat.n_experts, 4);
    }
}
