//! [`PromClassifier`]: the deployment-time wrapper for classification
//! models.

use prom_ml::traits::Classifier;

use crate::calibration::{CalibrationRecord, SelectionConfig};
use crate::committee::{
    committee_accepts, verdict_from_p_values, ExpertVerdict, PromConfig, PromJudgement,
};
use crate::detector::{DriftDetector, Judgement, Relabeled, Sample};
use crate::nonconformity::{default_committee, Nonconformity};
use crate::scoring::{JudgeScratch, ScoringKernel};
use crate::PromError;
use serde::{DeError, Deserialize, Serialize, Value};

/// Drift detector for a deployed probabilistic classifier.
///
/// Construct once at design time from a calibration set (held out from the
/// model's training data), then call [`PromClassifier::judge`] on every
/// deployment-time prediction — or [`PromClassifier::judge_batch`] on a
/// window of predictions, which reuses one scoring scratch buffer across
/// the whole window. The wrapper never touches the underlying model: it
/// only consumes embeddings and probability vectors, mirroring the paper's
/// `pybind11` integration note.
pub struct PromClassifier {
    records: Vec<CalibrationRecord>,
    experts: Vec<Box<dyn Nonconformity>>,
    /// The shared scoring kernel: calibration embeddings, labels, and
    /// every expert's scores precomputed offline (Sec. 4.1.1).
    kernel: ScoringKernel,
    config: PromConfig,
    n_classes: usize,
    /// How many of the leading `records` are design-time base records.
    /// Online absorbs append *after* this prefix; sliding-window eviction
    /// shrinks it from the front. Reservoir slot `s` therefore addresses
    /// record `base_len + s`, read live (never cached by callers).
    base_len: usize,
}

impl PromClassifier {
    /// Builds a detector with the paper's default expert committee
    /// (LAC, Top-K, APS, RAPS).
    ///
    /// # Errors
    ///
    /// Returns [`PromError`] if the calibration set is empty or
    /// inconsistent, or the configuration is out of range.
    pub fn new(records: Vec<CalibrationRecord>, config: PromConfig) -> Result<Self, PromError> {
        Self::with_experts(records, default_committee(), config)
    }

    /// Builds a detector with a custom expert committee (e.g. a single
    /// function for the Fig. 11 ablation).
    ///
    /// # Errors
    ///
    /// Returns [`PromError`] if the calibration set is empty or
    /// inconsistent, the committee is empty, or the configuration is out of
    /// range.
    pub fn with_experts(
        records: Vec<CalibrationRecord>,
        experts: Vec<Box<dyn Nonconformity>>,
        config: PromConfig,
    ) -> Result<Self, PromError> {
        if records.is_empty() {
            return Err(PromError::EmptyCalibration);
        }
        if experts.is_empty() {
            return Err(PromError::InvalidConfig { detail: "empty expert committee".into() });
        }
        config.validate().map_err(|detail| PromError::InvalidConfig { detail })?;
        let emb_dim = records[0].embedding.len();
        let n_classes = records[0].probs.len();
        for (i, r) in records.iter().enumerate() {
            if r.embedding.len() != emb_dim {
                return Err(PromError::DimensionMismatch {
                    detail: format!(
                        "record {i} embedding has length {}, expected {emb_dim}",
                        r.embedding.len()
                    ),
                });
            }
            if r.probs.len() != n_classes {
                return Err(PromError::DimensionMismatch {
                    detail: format!(
                        "record {i} has {} classes, expected {n_classes}",
                        r.probs.len()
                    ),
                });
            }
        }
        let cal_scores = experts
            .iter()
            .map(|e| records.iter().map(|r| e.score(&r.probs, r.label)).collect())
            .collect();
        let kernel = ScoringKernel::new(
            records.iter().map(|r| r.embedding.clone()).collect(),
            records.iter().map(|r| r.label).collect(),
            n_classes,
            cal_scores,
            SelectionConfig {
                fraction: config.selection_fraction,
                min_full_size: config.min_full_size,
                tau: config.tau,
            },
        );
        let base_len = records.len();
        Ok(Self { records, experts, kernel, config, n_classes, base_len })
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
        self.judge_with(embedding, probs, &self.config)
    }

    /// Like [`PromClassifier::judge`], but with threshold parameters taken
    /// from `config` instead of the stored configuration. Selection
    /// parameters (`tau`, fraction, min size) still come from the stored
    /// configuration, so grid search over ε / confidence thresholds does not
    /// redo the calibration work.
    pub fn judge_with(
        &self,
        embedding: &[f64],
        probs: &[f64],
        config: &PromConfig,
    ) -> PromJudgement {
        let mut scratch = JudgeScratch::new();
        self.kernel.select(embedding, &mut scratch);
        self.judge_selected(probs, config, &mut scratch)
    }

    /// Judges a window of predictions, reusing one scratch buffer for the
    /// whole window — the batched hot path behind
    /// [`DriftDetector::judge_batch`]. Returns the same judgements as
    /// calling [`PromClassifier::judge`] per sample.
    ///
    /// # Panics
    ///
    /// Panics on a class-count or embedding-dimension mismatch in any
    /// sample.
    pub fn judge_batch(&self, samples: &[Sample]) -> Vec<PromJudgement> {
        self.judge_batch_with(samples, &self.config)
    }

    /// Like [`PromClassifier::judge_batch`], but with threshold parameters
    /// from `config` (see [`PromClassifier::judge_with`]) — the batched
    /// form behind ε/confidence sweeps.
    pub fn judge_batch_with(&self, samples: &[Sample], config: &PromConfig) -> Vec<PromJudgement> {
        let mut scratch = JudgeScratch::new();
        self.judge_batch_scratch(samples, config, &mut scratch)
    }

    /// The shard entry point of the parallel deployment pipeline: judges a
    /// window with a **caller-owned** scratch, so a pool shard can
    /// reuse one [`JudgeScratch`] (which is `Send`) across every window
    /// it judges instead of re-growing buffers per window. Judgements are
    /// identical to [`PromClassifier::judge_batch_with`] — the scratch is
    /// stateless between samples, and the window is selected in blocks of
    /// `QUERY_BLOCK` samples (`ScoringKernel::select_each`).
    pub fn judge_batch_scratch(
        &self,
        samples: &[Sample],
        config: &PromConfig,
        scratch: &mut JudgeScratch,
    ) -> Vec<PromJudgement> {
        let queries: Vec<&[f64]> = samples.iter().map(|s| s.embedding.as_slice()).collect();
        let mut out = Vec::with_capacity(samples.len());
        self.kernel.select_each(&queries, scratch, |i, scratch| {
            out.push(self.judge_selected(&samples[i].outputs, config, scratch));
        });
        out
    }

    /// Scores and votes the sample whose Eq. 1 selection is already in
    /// `scratch` — the tail shared by the single-sample and batched paths.
    fn judge_selected(
        &self,
        probs: &[f64],
        config: &PromConfig,
        scratch: &mut JudgeScratch,
    ) -> PromJudgement {
        self.committee_p_values(probs, scratch);
        let predicted = prom_ml::matrix::argmax(probs);
        let verdicts: Vec<ExpertVerdict> = self
            .experts
            .iter()
            .zip(scratch.p_values.chunks_exact(self.n_classes))
            .map(|(expert, ps)| verdict_from_p_values(expert.name(), ps, predicted, config))
            .collect();
        let (accepted, reject_votes) = committee_accepts(&verdicts);
        PromJudgement { accepted, reject_votes, verdicts }
    }

    /// Every expert's p-values for `probs` over the selection already in
    /// `scratch`: fills the `E × L` test scores, then runs
    /// [`ScoringKernel::p_values_all`] into `scratch.p_values`.
    fn committee_p_values(&self, probs: &[f64], scratch: &mut JudgeScratch) {
        assert_eq!(probs.len(), self.n_classes, "class-count mismatch");
        scratch.test_scores.clear();
        for expert in &self.experts {
            scratch.test_scores.extend((0..self.n_classes).map(|y| expert.score(probs, y)));
        }
        self.kernel.p_values_all(scratch);
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
        self.kernel.select_each(&queries, scratch, |i, scratch| {
            self.fanout_selected(&samples[i], configs, scratch, &mut out);
        });
        out
    }

    /// Scores the sample whose Eq. 1 selection is already in `scratch` once
    /// for the whole committee and re-thresholds it under every fanned-out
    /// configuration, appending one judgement per configuration to `out`.
    fn fanout_selected(
        &self,
        s: &Sample,
        configs: &[PromConfig],
        scratch: &mut JudgeScratch,
        out: &mut [Vec<PromJudgement>],
    ) {
        self.committee_p_values(&s.outputs, scratch);
        let predicted = prom_ml::matrix::argmax(&s.outputs);
        let mut verdicts: Vec<Vec<ExpertVerdict>> =
            (0..configs.len()).map(|_| Vec::with_capacity(self.experts.len())).collect();
        for (expert, ps) in self.experts.iter().zip(scratch.p_values.chunks_exact(self.n_classes)) {
            for (config, per_config) in configs.iter().zip(verdicts.iter_mut()) {
                per_config.push(verdict_from_p_values(expert.name(), ps, predicted, config));
            }
        }
        for (per_config, judged) in verdicts.into_iter().zip(out.iter_mut()) {
            let (accepted, reject_votes) = committee_accepts(&per_config);
            judged.push(PromJudgement { accepted, reject_votes, verdicts: per_config });
        }
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
        assert_eq!(probs.len(), self.n_classes, "class-count mismatch");
        let mut scratch = JudgeScratch::new();
        self.kernel.select(embedding, &mut scratch);
        self.committee_p_values(probs, &mut scratch);
        scratch.p_values.chunks_exact(self.n_classes).map(<[f64]>::to_vec).collect()
    }

    /// Re-thresholds precomputed per-expert p-values (from
    /// [`PromClassifier::expert_p_values`]) under `config`: the committee
    /// vote without the conformal kernel, so ε/confidence sweeps pay the
    /// distance and p-value work once per sample instead of once per grid
    /// point. Returns the same judgement as
    /// [`PromClassifier::judge_with`] on the sample the p-values came from.
    pub fn judgement_from_p_values(
        &self,
        p_values: &[Vec<f64>],
        predicted: usize,
        config: &PromConfig,
    ) -> PromJudgement {
        assert_eq!(p_values.len(), self.experts.len(), "expert-count mismatch");
        let verdicts: Vec<ExpertVerdict> = self
            .experts
            .iter()
            .zip(p_values.iter())
            .map(|(expert, ps)| verdict_from_p_values(expert.name(), ps, predicted, config))
            .collect();
        let (accepted, reject_votes) = committee_accepts(&verdicts);
        PromJudgement { accepted, reject_votes, verdicts }
    }

    /// The prediction set (labels with p-value above ε) of the *first*
    /// expert — the set used for coverage assessment (Eq. 3).
    pub fn prediction_set(&self, embedding: &[f64], probs: &[f64]) -> Vec<usize> {
        let mut scratch = JudgeScratch::new();
        self.kernel.select(embedding, &mut scratch);
        let expert = &self.experts[0];
        scratch.test_scores.extend((0..self.n_classes).map(|y| expert.score(probs, y)));
        self.kernel.p_values_into(0, &mut scratch);
        scratch
            .p_values
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > self.config.epsilon)
            .map(|(y, _)| y)
            .collect()
    }

    /// Replaces the calibration set (used after incremental retraining, when
    /// the model and its calibration data are refreshed together).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PromClassifier::new`].
    pub fn recalibrate(&mut self, records: Vec<CalibrationRecord>) -> Result<(), PromError> {
        let experts = std::mem::take(&mut self.experts);
        let rebuilt = Self::with_experts(records, experts, self.config.clone())?;
        *self = rebuilt;
        Ok(())
    }

    /// Validates that `record` is shaped like the live calibration set.
    fn check_record(&self, record: &CalibrationRecord) -> Result<(), PromError> {
        if record.embedding.len() != self.records[0].embedding.len() {
            return Err(PromError::DimensionMismatch {
                detail: format!(
                    "inserted embedding has length {}, expected {}",
                    record.embedding.len(),
                    self.records[0].embedding.len()
                ),
            });
        }
        if record.probs.len() != self.n_classes {
            return Err(PromError::DimensionMismatch {
                detail: format!(
                    "inserted record has {} classes, expected {}",
                    record.probs.len(),
                    self.n_classes
                ),
            });
        }
        Ok(())
    }

    /// Grows the calibration set by one record **without a rebuild**: only
    /// the new record's per-expert scores are computed and the scoring
    /// kernel is appended in place — `O(experts)` per insert instead of
    /// [`PromClassifier::recalibrate`]'s `O(n · experts)` refit. Judgements
    /// afterwards are **bit-identical** to recalibrating with the same
    /// record appended (`tests/recalibration_equivalence.rs`); this is the
    /// fast path behind [`DriftDetector::absorb_relabeled`].
    ///
    /// # Errors
    ///
    /// Returns [`PromError::DimensionMismatch`] if the record's embedding
    /// or probability vector disagrees with the live calibration set.
    pub fn insert_record(&mut self, record: CalibrationRecord) -> Result<(), PromError> {
        self.check_record(&record)?;
        let scores: Vec<f64> =
            self.experts.iter().map(|e| e.score(&record.probs, record.label)).collect();
        self.kernel.insert(record.embedding.clone(), record.label, &scores);
        self.records.push(record);
        Ok(())
    }

    /// Replaces calibration record `index` in place (`O(experts)`, no
    /// rebuild) — the eviction path of a capped reservoir calibration set.
    ///
    /// # Errors
    ///
    /// Returns [`PromError`] on an out-of-range index or a record that
    /// fails [`PromClassifier::insert_record`]'s validation.
    pub fn replace_record_at(
        &mut self,
        index: usize,
        record: CalibrationRecord,
    ) -> Result<(), PromError> {
        if index >= self.records.len() {
            return Err(PromError::InvalidConfig {
                detail: format!(
                    "record index {index} out of range for {} records",
                    self.records.len()
                ),
            });
        }
        self.check_record(&record)?;
        let scores: Vec<f64> =
            self.experts.iter().map(|e| e.score(&record.probs, record.label)).collect();
        self.kernel.replace(index, record.embedding.clone(), record.label, &scores);
        self.records[index] = record;
        Ok(())
    }

    /// Converts a relabeled deployment sample into a calibration record,
    /// skipping anything the serving path may hand over that calibration
    /// validation would reject: mismatched truth kind, out-of-range label,
    /// NaN embedding, or a NaN probability vector — a NaN output would
    /// produce NaN expert scores that count in every p-value denominator
    /// but never the numerator, silently poisoning the label forever.
    fn record_from_relabeled(&self, r: &Relabeled) -> Option<CalibrationRecord> {
        let crate::detector::Truth::Label(label) = r.truth else {
            return None;
        };
        if label >= r.sample.outputs.len()
            || r.sample.embedding.iter().any(|v| v.is_nan())
            || r.sample.outputs.iter().any(|v| v.is_nan())
        {
            return None;
        }
        Some(CalibrationRecord::new(r.sample.embedding.clone(), r.sample.outputs.clone(), label))
    }

    /// Number of calibration records.
    pub fn calibration_len(&self) -> usize {
        self.records.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The active configuration.
    pub fn config(&self) -> &PromConfig {
        &self.config
    }

    /// Borrow the calibration records (used by the assessment module).
    pub fn records(&self) -> &[CalibrationRecord] {
        &self.records
    }

    /// Names of the experts on the committee.
    pub fn expert_names(&self) -> Vec<&'static str> {
        self.experts.iter().map(|e| e.name()).collect()
    }

    /// Number of design-time base records still live (see
    /// [`DriftDetector::base_len`]). Construction and
    /// [`PromClassifier::recalibrate`] treat the whole calibration set as
    /// base; online absorbs append after it; eviction shrinks it.
    pub fn base_record_len(&self) -> usize {
        self.base_len
    }

    /// Retires the oldest design-time base record — the sliding-window
    /// eviction path that lets online absorbs displace stale design-time
    /// calibration. Both the record list and the scoring kernel shift down
    /// by one, so the surviving state is **bit-identical** to a
    /// from-scratch fit on the surviving records ([`ScoringKernel::remove`]
    /// preserves score-bucket contents and `(distance, index)` tie-break
    /// order). Returns `false` when no base records remain or eviction
    /// would empty the calibration set.
    pub fn evict_oldest_base_record(&mut self) -> bool {
        if self.base_len == 0 || self.records.len() <= 1 {
            return false;
        }
        self.records.remove(0);
        self.kernel.remove(0);
        self.base_len -= 1;
        true
    }
}

/// Snapshot tag distinguishing classifier snapshots from other detectors'.
const CLASSIFIER_SNAPSHOT_TAG: &str = "prom-classifier";

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

impl DriftDetector for PromClassifier {
    fn name(&self) -> &'static str {
        "PROM"
    }

    fn judge_one(&self, embedding: &[f64], outputs: &[f64]) -> Judgement {
        Judgement::from(self.judge(embedding, outputs))
    }

    fn judge_batch(&self, samples: &[Sample]) -> Vec<Judgement> {
        self.judge_batch(samples).into_iter().map(Judgement::from).collect()
    }

    /// Pool entry point: judge with the shard's reused scratch under
    /// the stored configuration. Bit-identical to `judge_batch`.
    fn judge_batch_scratch(
        &self,
        samples: &[Sample],
        scratch: &mut JudgeScratch,
    ) -> Vec<Judgement> {
        self.judge_batch_scratch(samples, &self.config, scratch)
            .into_iter()
            .map(Judgement::from)
            .collect()
    }

    /// Rich pool entry point: the same batched kernel, keeping the full
    /// per-expert verdicts.
    fn judge_batch_rich_scratch(
        &self,
        samples: &[Sample],
        scratch: &mut JudgeScratch,
    ) -> Option<Vec<PromJudgement>> {
        Some(self.judge_batch_scratch(samples, &self.config, scratch))
    }

    fn calibration_size(&self) -> Option<usize> {
        Some(self.records.len())
    }

    /// Incremental override: each valid relabel is folded in via
    /// [`PromClassifier::insert_record`] — bit-identical in judgement to a
    /// full `recalibrate` with the same records appended, at `O(experts)`
    /// per record instead of a rebuild. Invalid relabels are skipped.
    fn absorb_relabeled(&mut self, batch: &[Relabeled]) -> usize {
        batch
            .iter()
            .filter(|r| {
                self.record_from_relabeled(r)
                    .is_some_and(|record| self.insert_record(record).is_ok())
            })
            .count()
    }

    fn can_absorb(&self, r: &Relabeled) -> bool {
        self.record_from_relabeled(r).is_some_and(|record| self.check_record(&record).is_ok())
    }

    fn replace_record(&mut self, index: usize, r: &Relabeled) -> bool {
        self.record_from_relabeled(r)
            .is_some_and(|record| self.replace_record_at(index, record).is_ok())
    }

    fn base_len(&self) -> Option<usize> {
        Some(self.base_len)
    }

    fn evict_oldest_base(&mut self) -> bool {
        self.evict_oldest_base_record()
    }

    fn snapshot_state(&self) -> Option<Value> {
        Some(
            ClassifierSnapshot {
                detector: CLASSIFIER_SNAPSHOT_TAG.to_string(),
                expert_names: self.expert_names().iter().map(|n| n.to_string()).collect(),
                n_classes: self.n_classes,
                base_len: self.base_len,
                records: self.records.clone(),
            }
            .to_value(),
        )
    }

    /// Restores a classifier snapshot onto an identically configured
    /// detector. Everything a rebuild could trip over is validated *before*
    /// any mutation, so a rejected snapshot leaves the detector untouched;
    /// the rebuild itself goes through [`PromClassifier::recalibrate`],
    /// whose kernel is a pure function of (records, experts, selection
    /// config) — bit-identical to the snapshotted original's incrementally
    /// grown state (`tests/recalibration_equivalence.rs`).
    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let snap = ClassifierSnapshot::from_value(state)?;
        if snap.detector != CLASSIFIER_SNAPSHOT_TAG {
            return Err(DeError::custom(format!(
                "snapshot is for detector kind {:?}, expected {CLASSIFIER_SNAPSHOT_TAG:?}",
                snap.detector
            )));
        }
        let live_names: Vec<String> = self.expert_names().iter().map(|n| n.to_string()).collect();
        if snap.expert_names != live_names {
            return Err(DeError::custom(format!(
                "snapshot expert committee {:?} does not match live committee {live_names:?}",
                snap.expert_names
            )));
        }
        if snap.n_classes != self.n_classes {
            return Err(DeError::custom(format!(
                "snapshot has {} classes, detector has {}",
                snap.n_classes, self.n_classes
            )));
        }
        if snap.records.is_empty() {
            return Err(DeError::custom("snapshot has no calibration records"));
        }
        if snap.base_len > snap.records.len() {
            return Err(DeError::custom(format!(
                "snapshot base_len {} exceeds its {} records",
                snap.base_len,
                snap.records.len()
            )));
        }
        let emb_dim = self.records[0].embedding.len();
        for (i, r) in snap.records.iter().enumerate() {
            r.validate().map_err(|why| DeError::custom(format!("snapshot record {i}: {why}")))?;
            if r.embedding.len() != emb_dim {
                return Err(DeError::custom(format!(
                    "snapshot record {i} embedding has length {}, detector expects {emb_dim}",
                    r.embedding.len()
                )));
            }
            if r.probs.len() != self.n_classes {
                return Err(DeError::custom(format!(
                    "snapshot record {i} has {} classes, detector expects {}",
                    r.probs.len(),
                    self.n_classes
                )));
            }
        }
        let base_len = snap.base_len;
        self.recalibrate(snap.records)
            .map_err(|e| DeError::custom(format!("snapshot calibration rejected: {e}")))?;
        self.base_len = base_len;
        Ok(())
    }
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
        snap.detector = CLASSIFIER_SNAPSHOT_TAG.to_string();
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
