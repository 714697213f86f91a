//! [`Calibrated`]: the one calibrated-detector core behind
//! [`PromClassifier`] and [`PromRegressor`].
//!
//! Both detectors run the same conformal method: Eq. 1 selection of the
//! nearest calibration records, Eq. 2 p-values per expert and label, and
//! the committee vote. They differ only in how a record gets its label and
//! scores (the true label for classification; a frozen k-means
//! pseudo-label and residual scores for regression, Sec. 5.1) and how a
//! test sample gets its test scores. [`DetectorKind`] holds exactly that
//! difference. Everything else lives here once: the record store, the
//! single record check, the lifecycle (insert, replace, evict, rebuild),
//! the shared snapshot checks and the window judge.
//!
//! The from-records rebuild (behind [`PromClassifier::recalibrate`] and
//! [`PromRegressor::recalibrate_frozen_clusters`]) is the bit-identity
//! reference of the lifecycle: every incremental insert, replacement,
//! eviction and snapshot restore leaves a detector whose judgements equal
//! a rebuild over the same records, bit for bit.
//!
//! [`PromClassifier`]: crate::predictor::PromClassifier
//! [`PromRegressor`]: crate::regression::PromRegressor
//! [`PromClassifier::recalibrate`]: crate::predictor::PromClassifier::recalibrate
//! [`PromRegressor::recalibrate_frozen_clusters`]:
//! crate::regression::PromRegressor::recalibrate_frozen_clusters

use crate::calibration::SelectionConfig;
use crate::committee::{
    committee_accepts, verdict_from_p_values, ExpertVerdict, PromConfig, PromJudgement,
};
use crate::detector::{DriftDetector, Judgement, Relabeled, Sample};
use crate::scoring::{JudgeScratch, ScoringKernel};
use crate::PromError;
use serde::{DeError, Value};

/// What differs between the classification and the regression detector.
/// [`Calibrated`] takes it as a type parameter, so every call into it is
/// dispatched statically.
pub trait DetectorKind: Send + Sync + Sized {
    /// One calibration record.
    type Record: Clone + Send + Sync;

    /// The `detector` tag of this kind's snapshots.
    const SNAPSHOT_TAG: &'static str;

    /// The record's embedding.
    fn embedding(record: &Self::Record) -> &[f64];

    /// How many model outputs the record carries: its class count, or 1
    /// for a scalar prediction.
    fn record_output_len(record: &Self::Record) -> usize;

    /// The record's own validity, independent of any detector.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for a record that cannot calibrate.
    fn validate(record: &Self::Record) -> Result<(), String>;

    /// Converts a relabeled deployment sample into a record, or `None`
    /// when its truth or output shape belongs to the other kind. Validity
    /// is left to the record check.
    fn from_relabeled(r: &Relabeled) -> Option<Self::Record>;

    /// Names of the committee's experts, in committee order.
    fn expert_names(&self) -> impl ExactSizeIterator<Item = &'static str> + '_;

    /// How many labels Eq. 2 conditions on, for records with `output_len`
    /// outputs: the class count, or the pseudo-label cluster count.
    fn n_labels(&self, output_len: usize) -> usize;

    /// The output length of every record and sample `kernel`'s detector
    /// takes.
    fn output_len(&self, kernel: &ScoringKernel) -> usize;

    /// The label the record calibrates under.
    fn label(&self, record: &Self::Record) -> usize;

    /// Expert `expert`'s nonconformity score of the record.
    fn score(&self, expert: usize, record: &Self::Record) -> f64;

    /// Fills `scratch.test_scores` with the `E × L` test scores of a
    /// sample whose Eq. 1 selection is already in `scratch`, and returns
    /// the label whose p-value is its credibility.
    ///
    /// # Panics
    ///
    /// Panics when `outputs` has the wrong length.
    fn test_scores(
        &self,
        records: &[Self::Record],
        kernel: &ScoringKernel,
        outputs: &[f64],
        scratch: &mut JudgeScratch,
    ) -> usize;

    /// The detector's portable state (see [`DriftDetector::snapshot_state`]).
    fn snapshot(core: &Calibrated<Self>) -> Value;

    /// Restores a snapshot (see [`DriftDetector::restore_state`]); the
    /// checks and the rebuild every kind shares run in the core.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`], leaving `core` unchanged, on a snapshot that
    /// does not fit it.
    fn restore(core: &mut Calibrated<Self>, state: &Value) -> Result<(), DeError>;
}

/// A calibrated conformal detector: calibration records, the scoring
/// kernel built from them, the configuration, and the base/online split,
/// over the task-specific part `K`.
pub struct Calibrated<K: DetectorKind> {
    kind: K,
    records: Vec<K::Record>,
    /// The shared scoring kernel: calibration embeddings, labels, and
    /// every expert's scores precomputed offline (Sec. 4.1.1).
    kernel: ScoringKernel,
    config: PromConfig,
    /// How many of the leading `records` are design-time base records.
    /// Online absorbs append *after* this prefix; sliding-window eviction
    /// shrinks it from the front. Reservoir slot `s` therefore addresses
    /// record `base_len + s`, read live (never cached by callers).
    base_len: usize,
}

/// The single record check: the record's own validity, then its shape
/// against the detector's `dim`-long embeddings and `outputs` outputs.
fn check<K: DetectorKind>(record: &K::Record, dim: usize, outputs: usize) -> Result<(), PromError> {
    K::validate(record).map_err(|detail| PromError::InvalidRecord { detail })?;
    let len = K::embedding(record).len();
    if len != dim {
        return Err(PromError::DimensionMismatch {
            detail: format!("embedding has length {len}, expected {dim}"),
        });
    }
    let len = K::record_output_len(record);
    if len != outputs {
        return Err(PromError::DimensionMismatch {
            detail: format!("record has {len} outputs, expected {outputs}"),
        });
    }
    Ok(())
}

/// [`check`] over a whole record set, naming the first failing record.
fn check_all<K: DetectorKind>(
    records: &[K::Record],
    dim: usize,
    outputs: usize,
) -> Result<(), PromError> {
    if records.is_empty() {
        return Err(PromError::EmptyCalibration);
    }
    for (i, record) in records.iter().enumerate() {
        check::<K>(record, dim, outputs).map_err(|e| match e {
            PromError::InvalidRecord { detail } => {
                PromError::InvalidRecord { detail: format!("record {i}: {detail}") }
            }
            PromError::DimensionMismatch { detail } => {
                PromError::DimensionMismatch { detail: format!("record {i}: {detail}") }
            }
            other => other,
        })?;
    }
    Ok(())
}

/// Builds the scoring kernel over `records`: each record's label and
/// expert scores from `kind`, under `config`'s selection parameters.
fn kernel_for<K: DetectorKind>(
    kind: &K,
    records: &[K::Record],
    n_labels: usize,
    config: &PromConfig,
) -> ScoringKernel {
    let cal_scores = (0..kind.expert_names().len())
        .map(|e| records.iter().map(|r| kind.score(e, r)).collect())
        .collect();
    ScoringKernel::new(
        records.iter().map(|r| K::embedding(r).to_vec()).collect(),
        records.iter().map(|r| kind.label(r)).collect(),
        n_labels,
        cal_scores,
        SelectionConfig {
            fraction: config.selection_fraction,
            min_full_size: config.min_full_size,
            tau: config.tau,
        },
    )
}

impl<K: DetectorKind> Calibrated<K> {
    /// Construction: checks `config` and every record (non-empty, each
    /// valid and shaped like the first), fits the kind over the records,
    /// and builds the kernel. The whole set starts as the base.
    pub(crate) fn build(
        records: Vec<K::Record>,
        config: PromConfig,
        fit: impl FnOnce(&[K::Record]) -> Result<K, PromError>,
    ) -> Result<Self, PromError> {
        config.validate().map_err(|detail| PromError::InvalidConfig { detail })?;
        let first = records.first().ok_or(PromError::EmptyCalibration)?;
        let outputs = K::record_output_len(first);
        check_all::<K>(&records, K::embedding(first).len(), outputs)?;
        let kind = fit(&records)?;
        if kind.expert_names().len() == 0 {
            return Err(PromError::InvalidConfig { detail: "empty expert committee".into() });
        }
        let kernel = kernel_for(&kind, &records, kind.n_labels(outputs), &config);
        Ok(Self { kind, base_len: records.len(), records, kernel, config })
    }

    /// Rebuilds the detector from `records` with its kind unchanged: the
    /// from-records reference that every incremental edit is bit-identical
    /// to. The whole set becomes the base.
    ///
    /// # Errors
    ///
    /// Returns [`PromError`], leaving the detector unchanged, on an empty
    /// set or a record that fails the record check.
    pub(crate) fn rebuild(&mut self, records: Vec<K::Record>) -> Result<(), PromError> {
        self.rebuild_with(records, |_, _| Ok(()))
    }

    /// [`Calibrated::rebuild`] after `refit` updates the kind from the
    /// checked records. `refit` must leave the kind unchanged when it
    /// fails.
    pub(crate) fn rebuild_with(
        &mut self,
        records: Vec<K::Record>,
        refit: impl FnOnce(&mut K, &[K::Record]) -> Result<(), PromError>,
    ) -> Result<(), PromError> {
        let outputs = self.output_len();
        check_all::<K>(&records, self.embedding_dim(), outputs)?;
        refit(&mut self.kind, &records)?;
        self.kernel = kernel_for(&self.kind, &records, self.kind.n_labels(outputs), &self.config);
        self.base_len = records.len();
        self.records = records;
        Ok(())
    }

    /// Validates that `record` can join the live calibration set: the
    /// record's own validity and the detector's input shape.
    fn check_record(&self, record: &K::Record) -> Result<(), PromError> {
        check::<K>(record, self.embedding_dim(), self.output_len())
    }

    /// The per-expert scores `record` calibrates under.
    fn scores(&self, record: &K::Record) -> Vec<f64> {
        (0..self.kernel.n_experts()).map(|e| self.kind.score(e, record)).collect()
    }

    /// Grows the calibration set by one record **without a rebuild**: only
    /// the new record's per-expert scores are computed and the scoring
    /// kernel is appended in place — `O(experts)` per insert instead of a
    /// rebuild's `O(n · experts)`. Judgements afterwards are
    /// **bit-identical** to rebuilding with the same record appended
    /// (`tests/recalibration_equivalence.rs`); this is the fast path
    /// behind [`DriftDetector::absorb_relabeled`].
    ///
    /// # Errors
    ///
    /// Returns [`PromError::InvalidRecord`] for a record that fails its
    /// own validation, or [`PromError::DimensionMismatch`] for one shaped
    /// unlike the live calibration set.
    pub fn insert_record(&mut self, record: K::Record) -> Result<(), PromError> {
        self.check_record(&record)?;
        let label = self.kind.label(&record);
        self.kernel.insert(K::embedding(&record).to_vec(), label, &self.scores(&record));
        self.records.push(record);
        Ok(())
    }

    /// Replaces calibration record `index` in place (`O(experts)`, no
    /// rebuild) — the eviction path of a capped reservoir calibration set.
    ///
    /// # Errors
    ///
    /// Returns [`PromError`] on an out-of-range index or a record that
    /// fails [`Calibrated::insert_record`]'s check.
    pub fn replace_record_at(&mut self, index: usize, record: K::Record) -> Result<(), PromError> {
        if index >= self.records.len() {
            return Err(PromError::InvalidConfig {
                detail: format!(
                    "record index {index} out of range for {} records",
                    self.records.len()
                ),
            });
        }
        self.check_record(&record)?;
        let label = self.kind.label(&record);
        self.kernel.replace(index, K::embedding(&record).to_vec(), label, &self.scores(&record));
        self.records[index] = record;
        Ok(())
    }

    /// Retires the oldest design-time base record — the sliding-window
    /// eviction path that lets online absorbs displace stale design-time
    /// calibration. Both the record list and the scoring kernel shift down
    /// by one, so the surviving state is **bit-identical** to a rebuild on
    /// the surviving records ([`ScoringKernel::remove`] preserves the
    /// `(distance, index)` tie-break order). Returns `false` when no base
    /// records remain or eviction would empty the calibration set.
    pub fn evict_oldest_base_record(&mut self) -> bool {
        if self.base_len == 0 || self.records.len() <= 1 {
            return false;
        }
        self.records.remove(0);
        self.kernel.remove(0);
        self.base_len -= 1;
        true
    }

    /// Number of calibration records.
    pub fn calibration_len(&self) -> usize {
        self.records.len()
    }

    /// Number of design-time base records still live (see
    /// [`DriftDetector::base_len`]). Construction and rebuilds treat the
    /// whole calibration set as base; online absorbs append after it;
    /// eviction shrinks it.
    pub fn base_record_len(&self) -> usize {
        self.base_len
    }

    /// Borrow the calibration records, base prefix first.
    pub fn records(&self) -> &[K::Record] {
        &self.records
    }

    /// The active configuration.
    pub fn config(&self) -> &PromConfig {
        &self.config
    }

    /// Names of the experts on the committee.
    pub fn expert_names(&self) -> Vec<&'static str> {
        self.kind.expert_names().collect()
    }

    /// Length of every embedding the detector takes.
    pub fn embedding_dim(&self) -> usize {
        self.kernel.dim()
    }

    /// Length of every model-output vector the detector takes: the class
    /// count for a classifier, 1 for a regressor.
    pub fn output_len(&self) -> usize {
        self.kind.output_len(&self.kernel)
    }

    /// The task-specific part.
    pub(crate) fn kind(&self) -> &K {
        &self.kind
    }

    /// The scoring kernel over the calibration records.
    pub(crate) fn kernel(&self) -> &ScoringKernel {
        &self.kernel
    }

    /// Judges one deployment-time prediction with threshold parameters
    /// from `config` instead of the stored configuration. Selection
    /// parameters (`tau`, fraction, min size) still come from the stored
    /// configuration, so a grid search over ε / confidence thresholds does
    /// not redo the calibration work.
    ///
    /// # Panics
    ///
    /// Panics on an embedding-dimension or output-length mismatch.
    pub fn judge_with(
        &self,
        embedding: &[f64],
        outputs: &[f64],
        config: &PromConfig,
    ) -> PromJudgement {
        let mut scratch = JudgeScratch::new();
        self.kernel.select(embedding, &mut scratch);
        self.judge_selected(outputs, config, &mut scratch)
    }

    /// Judges a window of predictions, reusing one scratch buffer for the
    /// whole window. Returns the same judgements as judging each sample
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics on an embedding-dimension or output-length mismatch in any
    /// sample.
    pub fn judge_batch(&self, samples: &[Sample]) -> Vec<PromJudgement> {
        self.judge_batch_with(samples, &self.config)
    }

    /// Like [`Calibrated::judge_batch`], but with threshold parameters
    /// from `config` (see [`Calibrated::judge_with`]) — the batched form
    /// behind ε/confidence sweeps.
    pub fn judge_batch_with(&self, samples: &[Sample], config: &PromConfig) -> Vec<PromJudgement> {
        self.judge_batch_scratch(samples, config, &mut JudgeScratch::new())
    }

    /// The window judge, and the shard entry point of the parallel
    /// deployment pipeline: judges a window with a **caller-owned**
    /// scratch, so a pool shard can reuse one [`JudgeScratch`] (which is
    /// `Send`) across every window it judges instead of re-growing buffers
    /// per window. The window is selected in blocks of `QUERY_BLOCK`
    /// samples (`ScoringKernel::select_each`); judgements are identical to
    /// [`Calibrated::judge_batch_with`], since the scratch is stateless
    /// between samples.
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
    /// `scratch` — the tail of every judging path.
    fn judge_selected(
        &self,
        outputs: &[f64],
        config: &PromConfig,
        scratch: &mut JudgeScratch,
    ) -> PromJudgement {
        let predicted = self.committee_p_values(outputs, scratch);
        self.vote(scratch.p_values.chunks_exact(self.kernel.n_labels()), predicted, config)
    }

    /// Every expert's p-values for `outputs` over the selection already in
    /// `scratch`: fills the `E × L` test scores, then runs
    /// [`ScoringKernel::p_values_all`] into `scratch.p_values`. Returns
    /// the label whose p-value is the credibility.
    pub(crate) fn committee_p_values(&self, outputs: &[f64], scratch: &mut JudgeScratch) -> usize {
        let predicted = self.kind.test_scores(&self.records, &self.kernel, outputs, scratch);
        self.kernel.p_values_all(scratch);
        predicted
    }

    /// The committee vote over one row of per-label p-values per expert,
    /// in committee order.
    pub(crate) fn vote<'a>(
        &self,
        rows: impl Iterator<Item = &'a [f64]>,
        predicted: usize,
        config: &PromConfig,
    ) -> PromJudgement {
        let verdicts: Vec<ExpertVerdict> = self
            .kind
            .expert_names()
            .zip(rows)
            .map(|(name, ps)| verdict_from_p_values(name, ps, predicted, config))
            .collect();
        let (accepted, reject_votes) = committee_accepts(&verdicts);
        PromJudgement { accepted, reject_votes, verdicts }
    }

    /// The shared part of every restore: checks the snapshot's tag, expert
    /// committee and base/online split against this detector, then
    /// rebuilds from `records` after `refit` installs the snapshot's
    /// frozen artifacts into the kind. Every record passes the record
    /// check before anything changes, so a rejected snapshot leaves the
    /// detector untouched, and the rebuild makes the restored detector
    /// bit-identical to the snapshotted one.
    pub(crate) fn restore_snapshot(
        &mut self,
        detector: &str,
        expert_names: &[String],
        base_len: usize,
        records: Vec<K::Record>,
        refit: impl FnOnce(&mut K, &[K::Record]) -> Result<(), PromError>,
    ) -> Result<(), DeError> {
        if detector != K::SNAPSHOT_TAG {
            return Err(DeError::custom(format!(
                "snapshot is for detector kind {detector:?}, expected {:?}",
                K::SNAPSHOT_TAG
            )));
        }
        if !expert_names.iter().map(String::as_str).eq(self.kind.expert_names()) {
            return Err(DeError::custom(format!(
                "snapshot expert committee {expert_names:?} does not match live committee {:?}",
                self.expert_names()
            )));
        }
        if base_len > records.len() {
            return Err(DeError::custom(format!(
                "snapshot base_len {base_len} exceeds its {} records",
                records.len()
            )));
        }
        self.rebuild_with(records, refit)
            .map_err(|e| DeError::custom(format!("snapshot calibration rejected: {e}")))?;
        self.base_len = base_len;
        Ok(())
    }
}

impl<K: DetectorKind> DriftDetector for Calibrated<K> {
    fn name(&self) -> &'static str {
        "PROM"
    }

    fn judge_one(&self, embedding: &[f64], outputs: &[f64]) -> Judgement {
        Judgement::from(self.judge_with(embedding, outputs, &self.config))
    }

    fn judge_batch(&self, samples: &[Sample]) -> Vec<Judgement> {
        self.judge_batch(samples).into_iter().map(Judgement::from).collect()
    }

    /// Pool entry point: judge with the shard's reused scratch under the
    /// stored configuration. Bit-identical to `judge_batch`.
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

    /// Rich pool entry point: the same window judge, keeping the full
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

    /// Incremental override: each relabel that passes the record check is
    /// folded in via [`Calibrated::insert_record`] — bit-identical in
    /// judgement to a rebuild with the same records appended, at
    /// `O(experts)` per record. Invalid relabels are skipped.
    fn absorb_relabeled(&mut self, batch: &[Relabeled]) -> usize {
        batch
            .iter()
            .filter(|r| {
                K::from_relabeled(r).is_some_and(|record| self.insert_record(record).is_ok())
            })
            .count()
    }

    fn can_absorb(&self, r: &Relabeled) -> bool {
        K::from_relabeled(r).is_some_and(|record| self.check_record(&record).is_ok())
    }

    fn replace_record(&mut self, index: usize, r: &Relabeled) -> bool {
        K::from_relabeled(r).is_some_and(|record| self.replace_record_at(index, record).is_ok())
    }

    fn base_len(&self) -> Option<usize> {
        Some(self.base_len)
    }

    fn evict_oldest_base(&mut self) -> bool {
        self.evict_oldest_base_record()
    }

    fn snapshot_state(&self) -> Option<Value> {
        Some(K::snapshot(self))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        K::restore(self, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::CalibrationRecord;
    use crate::predictor::PromClassifier;
    use crate::regression::{ClusterChoice, PromRegressor, PromRegressorConfig, RegressionRecord};
    use serde::Serialize;

    fn class_records(n: usize) -> Vec<CalibrationRecord> {
        (0..n)
            .map(|i| {
                let label = i % 2;
                let x = label as f64 * 6.0 + ((i * 37 % 100) as f64 / 100.0 - 0.5);
                let conf = 0.6 + 0.38 * ((i * 13 % 23) as f64 / 23.0);
                let probs =
                    if label == 0 { vec![conf, 1.0 - conf] } else { vec![1.0 - conf, conf] };
                CalibrationRecord::new(vec![x, -x], probs, label)
            })
            .collect()
    }

    fn reg_records(n: usize) -> Vec<RegressionRecord> {
        (0..n)
            .map(|i| {
                let x = (i % 2) as f64 * 10.0 + (i as f64 * 0.37).sin() * 0.5;
                RegressionRecord::new(
                    vec![x, x * 0.5],
                    2.0 * x + (i as f64 * 0.91).cos() * 0.1,
                    2.0 * x,
                )
            })
            .collect()
    }

    /// The record bookkeeping plus every verdict's credibility and
    /// confidence bits on `samples`: the detector's complete output.
    fn probe_bits<K: DetectorKind>(core: &Calibrated<K>, samples: &[Sample]) -> Vec<u64> {
        let mut bits = vec![core.calibration_len() as u64, core.base_record_len() as u64];
        for judgement in core.judge_batch(samples) {
            for v in &judgement.verdicts {
                bits.extend([v.credibility.to_bits(), v.confidence.to_bits()]);
            }
        }
        bits
    }

    /// Every path that adds records — construct, insert, replace, rebuild
    /// and restore — returns `Err` on each `bad` record and leaves `core`
    /// unchanged; a set of nothing but records with empty embeddings is
    /// rejected too.
    fn rejects_on_every_path<K: DetectorKind>(
        mut core: Calibrated<K>,
        good: &[K::Record],
        bad: &[K::Record],
        samples: &[Sample],
        build: impl Fn(Vec<K::Record>) -> Result<Calibrated<K>, PromError>,
    ) where
        K::Record: Serialize,
    {
        let before = probe_bits(&core, samples);
        let snapshot = core.snapshot_state().expect("both kinds snapshot");
        for (i, record) in bad.iter().enumerate() {
            let mut with_bad = good.to_vec();
            with_bad.push(record.clone());
            assert!(build(with_bad.clone()).is_err(), "case {i}: construct");
            assert!(core.insert_record(record.clone()).is_err(), "case {i}: insert");
            assert!(core.replace_record_at(0, record.clone()).is_err(), "case {i}: replace");
            assert!(core.rebuild(with_bad.clone()).is_err(), "case {i}: rebuild");
            let mut state = snapshot.clone();
            let Value::Object(map) = &mut state else { panic!("snapshots are objects") };
            map.insert("records".into(), with_bad.to_value());
            assert!(core.restore_state(&state).is_err(), "case {i}: restore");
            assert_eq!(probe_bits(&core, samples), before, "case {i} changed the detector");
        }
    }

    #[test]
    fn every_record_path_rejects_invalid_records_without_change() {
        let good = class_records(40);
        let bad = [
            // Label out of range for the two classes.
            CalibrationRecord { embedding: vec![0.0, 0.0], probs: vec![0.5, 0.5], label: 2 },
            CalibrationRecord { embedding: vec![], probs: vec![0.5, 0.5], label: 0 },
            CalibrationRecord { embedding: vec![f64::NAN, 0.0], probs: vec![0.5, 0.5], label: 0 },
            CalibrationRecord { embedding: vec![0.0, 0.0], probs: vec![f64::NAN, 0.5], label: 0 },
            CalibrationRecord { embedding: vec![0.0], probs: vec![0.5, 0.5], label: 0 },
        ];
        let empty = vec![bad[1].clone(); 3];
        let config = PromConfig::default();
        assert!(PromClassifier::new(empty, config.clone()).is_err(), "all-empty embeddings");
        let samples: Vec<Sample> = (0..6)
            .map(|i| {
                let x = i as f64 * 1.7 - 4.0;
                Sample::new(vec![x, -x], vec![0.7, 0.3])
            })
            .collect();
        let build = |records| PromClassifier::new(records, config.clone());
        rejects_on_every_path(build(good.clone()).unwrap(), &good, &bad, &samples, build);

        let good = reg_records(40);
        let at = |prediction, target| RegressionRecord {
            embedding: vec![0.1, 0.05],
            prediction,
            target,
        };
        let bad = [
            at(f64::NAN, 0.2),
            at(f64::INFINITY, 0.2),
            at(0.2, f64::NEG_INFINITY),
            RegressionRecord { embedding: vec![], prediction: 0.2, target: 0.2 },
            RegressionRecord { embedding: vec![0.1, f64::NAN], prediction: 0.2, target: 0.2 },
            RegressionRecord { embedding: vec![0.1], prediction: 0.2, target: 0.2 },
        ];
        let config =
            PromRegressorConfig { clusters: ClusterChoice::Fixed(2), ..Default::default() };
        let empty = vec![bad[3].clone(); 3];
        assert!(PromRegressor::new(empty, config.clone()).is_err(), "all-empty embeddings");
        let samples: Vec<Sample> = (0..6)
            .map(|i| {
                let x = i as f64 * 1.3 - 1.0;
                Sample::regression(vec![x, x * 0.5], 2.0 * x + 0.05)
            })
            .collect();
        let build = |records| PromRegressor::new(records, config.clone());
        rejects_on_every_path(build(good.clone()).unwrap(), &good, &bad, &samples, build);
    }
}
