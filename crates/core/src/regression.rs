//! Conformal drift detection for regression models (Sec. 5.1 of the paper).
//!
//! Regression has no labels to condition Eq. 2 on, so Prom manufactures
//! them: the calibration set is clustered with k-means (K chosen by the gap
//! statistic over 2..=20) and every sample's pseudo-label is its cluster.
//! At deployment the ground truth is unknown, so it is approximated by the
//! mean target of the k nearest calibration samples (k = 3), and the
//! nonconformity is the residual between the model's prediction and that
//! proxy.

use prom_ml::cluster::{gap_statistic_k, KMeans};

use crate::calibration::SelectionConfig;
use crate::committee::{
    committee_accepts, verdict_from_p_values, ExpertVerdict, PromConfig, PromJudgement,
};
use crate::detector::{DriftDetector, Judgement, Relabeled, Sample};
use crate::scoring::{JudgeScratch, ScoringKernel};
use crate::PromError;
use serde::{DeError, Deserialize, Serialize, Value};

/// One regression calibration sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionRecord {
    /// Feature-space embedding of the input.
    pub embedding: Vec<f64>,
    /// The model's prediction for the input.
    pub prediction: f64,
    /// Ground-truth target.
    pub target: f64,
}

impl RegressionRecord {
    /// Creates a record.
    ///
    /// # Panics
    ///
    /// Panics on an empty embedding, a NaN embedding coordinate, or
    /// non-finite prediction/target. Calibration is a design-time step, so
    /// corrupt records fail loudly here; only *test* embeddings get the
    /// scoring kernel's NaN-tolerant treatment.
    pub fn new(embedding: Vec<f64>, prediction: f64, target: f64) -> Self {
        assert!(!embedding.is_empty(), "empty embedding");
        assert!(embedding.iter().all(|v| !v.is_nan()), "NaN in calibration embedding");
        assert!(prediction.is_finite() && target.is_finite(), "non-finite record");
        Self { embedding, prediction, target }
    }

    /// The fallible twin of [`RegressionRecord::new`]'s validation, for
    /// records arriving from a deserialized snapshot (whose field-by-field
    /// construction bypasses `new`).
    pub fn validate(&self) -> Result<(), String> {
        if self.embedding.is_empty() {
            return Err("empty embedding".into());
        }
        if self.embedding.iter().any(|v| v.is_nan()) {
            return Err("NaN in calibration embedding".into());
        }
        if !self.prediction.is_finite() || !self.target.is_finite() {
            return Err("non-finite record".into());
        }
        Ok(())
    }
}

/// A regression nonconformity measure over a (prediction, target) pair.
///
/// `scale` is a robust residual scale computed on the calibration set,
/// letting normalized measures compare residuals across tasks.
pub trait RegressionNonconformity: Send + Sync {
    /// Short human-readable name.
    fn name(&self) -> &'static str;

    /// Nonconformity score; larger means stranger.
    fn score(&self, prediction: f64, target: f64, scale: f64) -> f64;
}

/// `|prediction - target|`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AbsoluteResidual;

impl RegressionNonconformity for AbsoluteResidual {
    fn name(&self) -> &'static str {
        "AbsRes"
    }

    fn score(&self, prediction: f64, target: f64, _scale: f64) -> f64 {
        (prediction - target).abs()
    }
}

/// `(prediction - target)^2`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SquaredResidual;

impl RegressionNonconformity for SquaredResidual {
    fn name(&self) -> &'static str {
        "SqRes"
    }

    fn score(&self, prediction: f64, target: f64, _scale: f64) -> f64 {
        (prediction - target) * (prediction - target)
    }
}

/// `|prediction - target| / scale` — residual in units of the calibration
/// set's typical residual.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizedResidual;

impl RegressionNonconformity for NormalizedResidual {
    fn name(&self) -> &'static str {
        "NormRes"
    }

    fn score(&self, prediction: f64, target: f64, scale: f64) -> f64 {
        (prediction - target).abs() / scale.max(1e-12)
    }
}

/// `|prediction - target| / (|target| + 1)` — relative error, robust near
/// zero targets.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelativeResidual;

impl RegressionNonconformity for RelativeResidual {
    fn name(&self) -> &'static str {
        "RelRes"
    }

    fn score(&self, prediction: f64, target: f64, _scale: f64) -> f64 {
        (prediction - target).abs() / (target.abs() + 1.0)
    }
}

/// The default regression committee: absolute, squared, normalized, and
/// relative residuals.
pub fn default_regression_committee() -> Vec<Box<dyn RegressionNonconformity>> {
    vec![
        Box::new(AbsoluteResidual),
        Box::new(SquaredResidual),
        Box::new(NormalizedResidual),
        Box::new(RelativeResidual),
    ]
}

/// How the number of pseudo-label clusters is chosen.
#[derive(Debug, Clone, Copy)]
pub enum ClusterChoice {
    /// Gap statistic over the inclusive range (paper default: 2..=20).
    GapStatistic {
        /// Smallest K considered.
        min_k: usize,
        /// Largest K considered.
        max_k: usize,
    },
    /// A fixed K (used by the Fig. 13(b) sensitivity sweep).
    Fixed(usize),
}

impl Default for ClusterChoice {
    fn default() -> Self {
        ClusterChoice::GapStatistic { min_k: 2, max_k: 20 }
    }
}

/// Configuration of [`PromRegressor`].
#[derive(Debug, Clone)]
pub struct PromRegressorConfig {
    /// The shared thresholds and selection parameters.
    pub prom: PromConfig,
    /// Number of neighbours used for the ground-truth proxy (paper: 3).
    pub knn_k: usize,
    /// Cluster-count selection strategy.
    pub clusters: ClusterChoice,
    /// Seed for k-means and the gap statistic.
    pub seed: u64,
}

impl Default for PromRegressorConfig {
    fn default() -> Self {
        Self { prom: PromConfig::default(), knn_k: 3, clusters: ClusterChoice::default(), seed: 0 }
    }
}

/// Drift detector for a deployed regression model.
pub struct PromRegressor {
    records: Vec<RegressionRecord>,
    kmeans: KMeans,
    experts: Vec<Box<dyn RegressionNonconformity>>,
    /// The shared scoring kernel over pseudo-label clusters: calibration
    /// embeddings, cluster labels, and every expert's residual scores.
    kernel: ScoringKernel,
    residual_scale: f64,
    config: PromRegressorConfig,
    /// How many of the leading `records` are design-time base records (see
    /// [`PromClassifier::base_record_len`] — same base/online layout).
    ///
    /// [`PromClassifier::base_record_len`]:
    /// crate::predictor::PromClassifier::base_record_len
    base_len: usize,
}

impl PromRegressor {
    /// Builds a detector with the default residual committee.
    ///
    /// # Errors
    ///
    /// Returns [`PromError`] on an empty or inconsistent calibration set or
    /// invalid configuration.
    pub fn new(
        records: Vec<RegressionRecord>,
        config: PromRegressorConfig,
    ) -> Result<Self, PromError> {
        Self::with_experts(records, default_regression_committee(), config)
    }

    /// Builds a detector with a custom residual committee.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PromRegressor::new`].
    pub fn with_experts(
        records: Vec<RegressionRecord>,
        experts: Vec<Box<dyn RegressionNonconformity>>,
        config: PromRegressorConfig,
    ) -> Result<Self, PromError> {
        if records.is_empty() {
            return Err(PromError::EmptyCalibration);
        }
        if experts.is_empty() {
            return Err(PromError::InvalidConfig { detail: "empty expert committee".into() });
        }
        if config.knn_k == 0 {
            return Err(PromError::InvalidConfig { detail: "knn_k must be >= 1".into() });
        }
        config.prom.validate().map_err(|detail| PromError::InvalidConfig { detail })?;
        let emb_dim = records[0].embedding.len();
        if let Some((i, r)) = records.iter().enumerate().find(|(_, r)| r.embedding.len() != emb_dim)
        {
            return Err(PromError::DimensionMismatch {
                detail: format!(
                    "record {i} embedding has length {}, expected {emb_dim}",
                    r.embedding.len()
                ),
            });
        }

        let embeddings: Vec<Vec<f64>> = records.iter().map(|r| r.embedding.clone()).collect();
        let k = match config.clusters {
            ClusterChoice::Fixed(k) => {
                if k == 0 {
                    return Err(PromError::InvalidConfig {
                        detail: "cluster count must be >= 1".into(),
                    });
                }
                k.min(records.len())
            }
            ClusterChoice::GapStatistic { min_k, max_k } => {
                if min_k == 0 || max_k < min_k {
                    return Err(PromError::InvalidConfig {
                        detail: format!("bad gap-statistic range {min_k}..={max_k}"),
                    });
                }
                gap_statistic_k(&embeddings, min_k..=max_k.min(records.len()), 3, config.seed)
            }
        };
        let kmeans = KMeans::fit(&embeddings, k, config.seed);
        let cluster_labels: Vec<usize> = embeddings.iter().map(|e| kmeans.assign(e)).collect();

        let residual_scale = records.iter().map(|r| (r.prediction - r.target).abs()).sum::<f64>()
            / records.len() as f64;
        let cal_scores: Vec<Vec<f64>> = experts
            .iter()
            .map(|e| {
                records.iter().map(|r| e.score(r.prediction, r.target, residual_scale)).collect()
            })
            .collect();
        let kernel = ScoringKernel::new(
            embeddings,
            cluster_labels,
            kmeans.k(),
            cal_scores,
            SelectionConfig {
                fraction: config.prom.selection_fraction,
                min_full_size: config.prom.min_full_size,
                tau: config.prom.tau,
            },
        );
        let base_len = records.len();
        Ok(Self { records, kmeans, experts, kernel, residual_scale, config, base_len })
    }

    /// Approximates the deployment-time ground truth of a test input as the
    /// mean target of its `knn_k` nearest calibration samples (Sec. 5.1.1).
    pub fn approximate_target(&self, embedding: &[f64]) -> f64 {
        let mut neighbours = Vec::new();
        self.kernel.k_nearest(
            embedding,
            self.config.knn_k,
            &mut JudgeScratch::new(),
            &mut neighbours,
        );
        neighbours.iter().map(|&i| self.records[i].target).sum::<f64>() / neighbours.len() as f64
    }

    /// Judges one deployment-time regression prediction.
    ///
    /// # Panics
    ///
    /// Panics on an embedding-dimension mismatch.
    pub fn judge(&self, embedding: &[f64], prediction: f64) -> PromJudgement {
        let mut scratch = JudgeScratch::new();
        let mut neighbours = Vec::new();
        self.kernel.select(embedding, &mut scratch);
        self.judge_selected(prediction, &mut scratch, &mut neighbours)
    }

    /// Judges a window of predictions (`outputs[0]` of each sample is the
    /// model's scalar estimate), reusing one scratch buffer for the whole
    /// window. Returns the same judgements as calling
    /// [`PromRegressor::judge`] per sample.
    ///
    /// # Panics
    ///
    /// Panics on an embedding-dimension mismatch or a sample whose
    /// `outputs` is not a single element.
    pub fn judge_batch(&self, samples: &[Sample]) -> Vec<PromJudgement> {
        let mut scratch = JudgeScratch::new();
        self.judge_batch_scratch(samples, &mut scratch)
    }

    /// The shard entry point of the parallel deployment pipeline (the
    /// regression twin of [`PromClassifier::judge_batch_scratch`]): judges
    /// a window with one caller-owned scratch — whose `neighbours` field
    /// doubles as the k-NN buffer — so a pool shard reuses one `Send`
    /// scratch across every window it judges. The window is selected in
    /// blocks of `QUERY_BLOCK` samples (`ScoringKernel::select_each`).
    /// Judgements are identical to [`PromRegressor::judge_batch`].
    ///
    /// [`PromClassifier::judge_batch_scratch`]:
    /// crate::predictor::PromClassifier::judge_batch_scratch
    ///
    /// # Panics
    ///
    /// Same conditions as [`PromRegressor::judge_batch`].
    pub fn judge_batch_scratch(
        &self,
        samples: &[Sample],
        scratch: &mut JudgeScratch,
    ) -> Vec<PromJudgement> {
        // The neighbour buffer rides in the scratch but is borrowed
        // alongside it, so lift it out for the window.
        let mut neighbours = std::mem::take(&mut scratch.neighbours);
        let queries: Vec<&[f64]> = samples.iter().map(|s| s.embedding.as_slice()).collect();
        let mut judgements = Vec::with_capacity(samples.len());
        self.kernel.select_each(&queries, scratch, |i, scratch| {
            let outputs = &samples[i].outputs;
            assert_eq!(outputs.len(), 1, "regression samples carry a single prediction in outputs");
            judgements.push(self.judge_selected(outputs[0], scratch, &mut neighbours));
        });
        scratch.neighbours = neighbours;
        judgements
    }

    /// Judges the sample whose Eq. 1 selection is already in `scratch` —
    /// the tail shared by the single-sample and batched paths. The
    /// selection's distances are reused for the k-NN ground-truth proxy
    /// and the pseudo-label assignment instead of being recomputed.
    fn judge_selected(
        &self,
        prediction: f64,
        scratch: &mut JudgeScratch,
        neighbours: &mut Vec<usize>,
    ) -> PromJudgement {
        // Ground-truth proxy: mean target of the knn_k nearest calibration
        // samples (Sec. 5.1.1), from the selection's own distance pass.
        self.kernel.nearest(scratch, self.config.knn_k, neighbours);
        let proxy_target = neighbours.iter().map(|&i| self.records[i].target).sum::<f64>()
            / neighbours.len() as f64;
        // Pseudo-label of the test input: the cluster of its nearest
        // calibration sample (Sec. 5.1.2).
        let assigned = self.kernel.labels()[neighbours[0]];
        let n_clusters = self.kmeans.k();

        // The residual score does not depend on the candidate cluster, but
        // the per-cluster calibration populations do: each expert's row of
        // the `E × L` test scores repeats one value.
        scratch.test_scores.clear();
        for expert in &self.experts {
            let test_score = expert.score(prediction, proxy_target, self.residual_scale);
            scratch.test_scores.extend(std::iter::repeat_n(test_score, n_clusters));
        }
        self.kernel.p_values_all(scratch);
        let verdicts: Vec<ExpertVerdict> = self
            .experts
            .iter()
            .zip(scratch.p_values.chunks_exact(n_clusters))
            .map(|(expert, ps)| {
                verdict_from_p_values(expert.name(), ps, assigned, &self.config.prom)
            })
            .collect();
        let (accepted, reject_votes) = committee_accepts(&verdicts);
        PromJudgement { accepted, reject_votes, verdicts }
    }

    /// Replaces the calibration set (after incremental retraining).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PromRegressor::new`].
    pub fn recalibrate(&mut self, records: Vec<RegressionRecord>) -> Result<(), PromError> {
        let experts = std::mem::take(&mut self.experts);
        let rebuilt = Self::with_experts(records, experts, self.config.clone())?;
        *self = rebuilt;
        Ok(())
    }

    /// Validates that `record` is shaped like the live calibration set.
    fn check_record(&self, record: &RegressionRecord) -> Result<(), PromError> {
        if record.embedding.len() != self.records[0].embedding.len() {
            return Err(PromError::DimensionMismatch {
                detail: format!(
                    "inserted embedding has length {}, expected {}",
                    record.embedding.len(),
                    self.records[0].embedding.len()
                ),
            });
        }
        Ok(())
    }

    /// The (pseudo-label, per-expert scores) a record calibrates under,
    /// given the frozen design-time cluster model and residual scale.
    fn score_record(&self, record: &RegressionRecord) -> (usize, Vec<f64>) {
        let label = self.kmeans.assign(&record.embedding);
        let scores = self
            .experts
            .iter()
            .map(|e| e.score(record.prediction, record.target, self.residual_scale))
            .collect();
        (label, scores)
    }

    /// Grows the calibration set by one record **without a rebuild**,
    /// keeping the design-time pseudo-label model frozen: the record is
    /// assigned to its nearest existing cluster, scored by every residual
    /// expert under the frozen residual scale, and appended to the scoring
    /// kernel in place. Judgements afterwards are **bit-identical** to
    /// [`PromRegressor::recalibrate_frozen_clusters`] over the same records
    /// (`tests/recalibration_equivalence.rs`).
    ///
    /// Clustering (and the residual scale) are *design-time* artifacts: the
    /// Sec. 5.4 loop folds relabeled samples into the calibration set, it
    /// does not re-derive the pseudo-label space — use the full
    /// [`PromRegressor::recalibrate`] when the model itself is retrained.
    ///
    /// # Errors
    ///
    /// Returns [`PromError::DimensionMismatch`] on an embedding-length
    /// mismatch.
    pub fn insert_record(&mut self, record: RegressionRecord) -> Result<(), PromError> {
        self.check_record(&record)?;
        let (label, scores) = self.score_record(&record);
        self.kernel.insert(record.embedding.clone(), label, &scores);
        self.records.push(record);
        Ok(())
    }

    /// Replaces calibration record `index` in place (no rebuild), under the
    /// same frozen-model semantics as [`PromRegressor::insert_record`] —
    /// the eviction path of a capped reservoir calibration set.
    ///
    /// # Errors
    ///
    /// Returns [`PromError`] on an out-of-range index or an
    /// embedding-length mismatch.
    pub fn replace_record_at(
        &mut self,
        index: usize,
        record: RegressionRecord,
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
        let (label, scores) = self.score_record(&record);
        self.kernel.replace(index, record.embedding.clone(), label, &scores);
        self.records[index] = record;
        Ok(())
    }

    /// Rebuilds the score tables from scratch over `records` while keeping
    /// the design-time pseudo-label model (cluster centroids and count) and
    /// residual scale — the full-refit **reference** for the incremental
    /// [`PromRegressor::insert_record`] path, and the recalibration to use
    /// when the calibration set changes wholesale but the underlying model
    /// (and therefore its embedding space) has not been retrained.
    ///
    /// # Errors
    ///
    /// Returns [`PromError`] on an empty record set or inconsistent
    /// embedding dimensions.
    pub fn recalibrate_frozen_clusters(
        &mut self,
        records: Vec<RegressionRecord>,
    ) -> Result<(), PromError> {
        if records.is_empty() {
            return Err(PromError::EmptyCalibration);
        }
        let emb_dim = self.records[0].embedding.len();
        if let Some((i, r)) = records.iter().enumerate().find(|(_, r)| r.embedding.len() != emb_dim)
        {
            return Err(PromError::DimensionMismatch {
                detail: format!(
                    "record {i} embedding has length {}, expected {emb_dim}",
                    r.embedding.len()
                ),
            });
        }
        let embeddings: Vec<Vec<f64>> = records.iter().map(|r| r.embedding.clone()).collect();
        let labels: Vec<usize> = embeddings.iter().map(|e| self.kmeans.assign(e)).collect();
        let cal_scores: Vec<Vec<f64>> = self
            .experts
            .iter()
            .map(|e| {
                records
                    .iter()
                    .map(|r| e.score(r.prediction, r.target, self.residual_scale))
                    .collect()
            })
            .collect();
        self.kernel = ScoringKernel::new(
            embeddings,
            labels,
            self.kmeans.k(),
            cal_scores,
            SelectionConfig {
                fraction: self.config.prom.selection_fraction,
                min_full_size: self.config.prom.min_full_size,
                tau: self.config.prom.tau,
            },
        );
        self.base_len = records.len();
        self.records = records;
        Ok(())
    }

    /// Converts a relabeled deployment sample into a regression record,
    /// skipping anything calibration validation would reject.
    fn record_from_relabeled(&self, r: &Relabeled) -> Option<RegressionRecord> {
        let crate::detector::Truth::Target(target) = r.truth else {
            return None;
        };
        let &[prediction] = &r.sample.outputs[..] else {
            return None;
        };
        if !target.is_finite()
            || !prediction.is_finite()
            || r.sample.embedding.iter().any(|v| v.is_nan())
        {
            return None;
        }
        Some(RegressionRecord::new(r.sample.embedding.clone(), prediction, target))
    }

    /// Number of pseudo-label clusters in use.
    pub fn n_clusters(&self) -> usize {
        self.kmeans.k()
    }

    /// Number of calibration records.
    pub fn calibration_len(&self) -> usize {
        self.records.len()
    }

    /// The robust residual scale of the calibration set.
    pub fn residual_scale(&self) -> f64 {
        self.residual_scale
    }

    /// Names of the residual experts on the committee.
    pub fn expert_names(&self) -> Vec<&'static str> {
        self.experts.iter().map(|e| e.name()).collect()
    }

    /// Number of design-time base records still live (see
    /// [`DriftDetector::base_len`]).
    pub fn base_record_len(&self) -> usize {
        self.base_len
    }

    /// Retires the oldest design-time base record: records and kernel shift
    /// down one, leaving state bit-identical to
    /// [`PromRegressor::recalibrate_frozen_clusters`] over the surviving
    /// records. Returns `false` when no base records remain or eviction
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

/// Snapshot tag distinguishing regressor snapshots from other detectors'.
const REGRESSOR_SNAPSHOT_TAG: &str = "prom-regressor";

/// The portable state of a [`PromRegressor`]: the calibration records in
/// order, the base/online split, and the **frozen design-time artifacts** a
/// reconstruction would otherwise re-derive non-deterministically — the
/// k-means centroids (pseudo-label space) and the residual scale. Residual
/// experts are function objects; their names travel as a compatibility
/// check only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RegressorSnapshot {
    detector: String,
    expert_names: Vec<String>,
    base_len: usize,
    centroids: Vec<Vec<f64>>,
    residual_scale: f64,
    records: Vec<RegressionRecord>,
}

impl DriftDetector for PromRegressor {
    fn name(&self) -> &'static str {
        "PROM"
    }

    /// `outputs` must be a single-element slice holding the model's scalar
    /// prediction (see [`Sample::regression`]).
    fn judge_one(&self, embedding: &[f64], outputs: &[f64]) -> Judgement {
        assert_eq!(outputs.len(), 1, "regression samples carry a single prediction in outputs");
        Judgement::from(self.judge(embedding, outputs[0]))
    }

    fn judge_batch(&self, samples: &[Sample]) -> Vec<Judgement> {
        self.judge_batch(samples).into_iter().map(Judgement::from).collect()
    }

    /// Pool entry point: judge with the shard's reused scratch (its
    /// `neighbours` field carries the k-NN buffer). Bit-identical to
    /// `judge_batch`.
    fn judge_batch_scratch(
        &self,
        samples: &[Sample],
        scratch: &mut JudgeScratch,
    ) -> Vec<Judgement> {
        self.judge_batch_scratch(samples, scratch).into_iter().map(Judgement::from).collect()
    }

    /// Rich pool entry point: the same batched kernel, keeping the full
    /// per-expert verdicts.
    fn judge_batch_rich_scratch(
        &self,
        samples: &[Sample],
        scratch: &mut JudgeScratch,
    ) -> Option<Vec<PromJudgement>> {
        Some(self.judge_batch_scratch(samples, scratch))
    }

    fn calibration_size(&self) -> Option<usize> {
        Some(self.records.len())
    }

    /// Incremental override: each valid relabel is folded in via
    /// [`PromRegressor::insert_record`] under the frozen design-time
    /// pseudo-label model — bit-identical in judgement to
    /// [`PromRegressor::recalibrate_frozen_clusters`] over the same
    /// records. Invalid relabels are skipped.
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
            RegressorSnapshot {
                detector: REGRESSOR_SNAPSHOT_TAG.to_string(),
                expert_names: self.expert_names().iter().map(|n| n.to_string()).collect(),
                base_len: self.base_len,
                centroids: self.kmeans.centroids().to_vec(),
                residual_scale: self.residual_scale,
                records: self.records.clone(),
            }
            .to_value(),
        )
    }

    /// Restores a regressor snapshot onto an identically configured
    /// detector: the frozen pseudo-label model comes back via
    /// [`KMeans::from_centroids`] (assignments are pure functions of
    /// centroid values), the residual scale is taken verbatim, and the
    /// score tables are rebuilt through
    /// [`PromRegressor::recalibrate_frozen_clusters`] — together
    /// bit-identical to the snapshotted original. Everything is validated
    /// before any mutation, so a rejected snapshot leaves the detector
    /// untouched.
    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let snap = RegressorSnapshot::from_value(state)?;
        if snap.detector != REGRESSOR_SNAPSHOT_TAG {
            return Err(DeError::custom(format!(
                "snapshot is for detector kind {:?}, expected {REGRESSOR_SNAPSHOT_TAG:?}",
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
        if !snap.residual_scale.is_finite() {
            return Err(DeError::custom("snapshot residual scale is not finite"));
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
        }
        if snap.centroids.is_empty() {
            return Err(DeError::custom("snapshot has no cluster centroids"));
        }
        for (i, c) in snap.centroids.iter().enumerate() {
            if c.len() != emb_dim {
                return Err(DeError::custom(format!(
                    "snapshot centroid {i} has dimension {}, detector expects {emb_dim}",
                    c.len()
                )));
            }
            if c.iter().any(|v| v.is_nan()) {
                return Err(DeError::custom(format!("snapshot centroid {i} contains NaN")));
            }
        }
        let base_len = snap.base_len;
        self.kmeans = KMeans::from_centroids(snap.centroids);
        self.residual_scale = snap.residual_scale;
        self.recalibrate_frozen_clusters(snap.records)
            .map_err(|e| DeError::custom(format!("snapshot calibration rejected: {e}")))?;
        self.base_len = base_len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calibration set: y = 2x over two separated input clusters, with an
    /// accurate model (prediction ≈ target).
    fn records(n: usize) -> Vec<RegressionRecord> {
        (0..n)
            .map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 10.0 };
                let x = base + (i as f64 * 0.37).sin() * 0.5;
                let target = 2.0 * x;
                let prediction = target + (i as f64 * 0.91).cos() * 0.1;
                RegressionRecord::new(vec![x, x * 0.5], prediction, target)
            })
            .collect()
    }

    fn config_fixed(k: usize) -> PromRegressorConfig {
        PromRegressorConfig { clusters: ClusterChoice::Fixed(k), ..Default::default() }
    }

    #[test]
    fn accepts_accurate_in_distribution_predictions() {
        let prom = PromRegressor::new(records(80), config_fixed(2)).unwrap();
        // In-distribution input near x = 0, prediction close to 2x = 0.2.
        let j = prom.judge(&[0.1, 0.05], 0.2);
        assert!(j.accepted, "accurate prediction should be accepted: {j:?}");
    }

    #[test]
    fn rejects_wildly_wrong_predictions() {
        let prom = PromRegressor::new(records(80), config_fixed(2)).unwrap();
        // Same input, but the model predicts 50 instead of ~0.2: the
        // residual against the k-NN proxy is enormous.
        let j = prom.judge(&[0.1, 0.05], 50.0);
        assert!(!j.accepted, "wrong prediction should be rejected: {j:?}");
    }

    #[test]
    fn proxy_target_matches_local_mean() {
        let prom = PromRegressor::new(records(40), config_fixed(2)).unwrap();
        let approx = prom.approximate_target(&[0.0, 0.0]);
        assert!(approx.abs() < 1.5, "proxy should be near 0 for the x=0 cluster: {approx}");
        let approx_far = prom.approximate_target(&[10.0, 5.0]);
        assert!((approx_far - 20.0).abs() < 1.5, "proxy should be near 20: {approx_far}");
    }

    #[test]
    fn gap_statistic_discovers_two_clusters() {
        let cfg = PromRegressorConfig {
            clusters: ClusterChoice::GapStatistic { min_k: 2, max_k: 8 },
            ..Default::default()
        };
        let prom = PromRegressor::new(records(80), cfg).unwrap();
        assert!((2..=4).contains(&prom.n_clusters()), "found {}", prom.n_clusters());
    }

    #[test]
    fn default_committee_has_four_residual_experts() {
        let prom = PromRegressor::new(records(30), config_fixed(2)).unwrap();
        let j = prom.judge(&[0.0, 0.0], 0.0);
        assert_eq!(j.verdicts.len(), 4);
    }

    #[test]
    fn empty_records_error() {
        assert_eq!(
            PromRegressor::new(vec![], PromRegressorConfig::default()).err(),
            Some(PromError::EmptyCalibration)
        );
    }

    #[test]
    fn invalid_cluster_range_error() {
        let cfg = PromRegressorConfig {
            clusters: ClusterChoice::GapStatistic { min_k: 5, max_k: 2 },
            ..Default::default()
        };
        assert!(matches!(
            PromRegressor::new(records(10), cfg),
            Err(PromError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn recalibrate_replaces_data() {
        let mut prom = PromRegressor::new(records(30), config_fixed(2)).unwrap();
        prom.recalibrate(records(50)).unwrap();
        assert_eq!(prom.calibration_len(), 50);
    }

    #[test]
    fn judge_batch_matches_looped_judge_exactly() {
        let prom = PromRegressor::new(records(80), config_fixed(3)).unwrap();
        let samples: Vec<Sample> = (0..25)
            .map(|i| {
                let x = (i as f64) * 0.6 - 2.0;
                Sample::regression(vec![x, x * 0.5], 2.0 * x + (i as f64 * 0.3).sin())
            })
            .collect();
        let batched = prom.judge_batch(&samples);
        for (s, b) in samples.iter().zip(batched.iter()) {
            let single = prom.judge(&s.embedding, s.outputs[0]);
            assert_eq!(single.accepted, b.accepted);
            assert_eq!(single.reject_votes, b.reject_votes);
            for (vs, vb) in single.verdicts.iter().zip(b.verdicts.iter()) {
                assert_eq!(vs.credibility.to_bits(), vb.credibility.to_bits());
                assert_eq!(vs.prediction_set_size, vb.prediction_set_size);
            }
        }
    }

    #[test]
    fn trait_object_judgement_mirrors_inherent_judge() {
        let prom = PromRegressor::new(records(40), config_fixed(2)).unwrap();
        let det: &dyn DriftDetector = &prom;
        let flat = det.judge_one(&[0.1, 0.05], &[0.2]);
        let rich = prom.judge(&[0.1, 0.05], 0.2);
        assert_eq!(flat.accepted, rich.accepted);
        assert_eq!(flat.n_experts, 4);
    }

    #[test]
    #[should_panic(expected = "NaN in calibration embedding")]
    fn nan_calibration_embedding_fails_at_construction() {
        let _ = RegressionRecord::new(vec![f64::NAN], 1.0, 1.0);
    }

    #[test]
    fn nan_embedding_produces_a_defined_judgement() {
        let prom = PromRegressor::new(records(80), config_fixed(2)).unwrap();
        // All distances collapse to +inf: the k-NN proxy falls back to the
        // lowest-index records and every weight is 0, so the judgement is
        // defined (and, with positive residual scores, a rejection).
        let j = prom.judge(&[f64::NAN, f64::NAN], 1.0);
        assert!(!j.accepted, "NaN embedding must be rejected, got {j:?}");
    }

    /// Committee verdict bits (credibility + confidence per expert) for a
    /// spread of probes — the regressor's complete statistical output.
    fn probe_bits(prom: &PromRegressor) -> Vec<Vec<u64>> {
        (0..6)
            .map(|i| {
                let x = (i as f64) * 1.3 - 1.0;
                prom.judge(&[x, x * 0.5], 2.0 * x + 0.05)
                    .verdicts
                    .iter()
                    .flat_map(|v| [v.credibility.to_bits(), v.confidence.to_bits()])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut original = PromRegressor::new(records(60), config_fixed(2)).unwrap();
        let relabels: Vec<Relabeled> = (0..4)
            .map(|i| {
                let x = i as f64 * 0.2 + 0.1;
                Relabeled::measured(Sample::regression(vec![x, x * 0.5], 2.0 * x + 0.02), 2.0 * x)
            })
            .collect();
        assert_eq!(original.absorb_relabeled(&relabels), 4);
        assert!(original.evict_oldest_base_record());
        assert_eq!(original.base_record_len(), 59);

        let json = serde::to_json_string(&original.snapshot_state().unwrap());
        let state: Value = serde::from_json_str(&json).unwrap();
        let mut restored = PromRegressor::new(records(60), config_fixed(2)).unwrap();
        restored.restore_state(&state).unwrap();

        assert_eq!(restored.base_record_len(), 59);
        assert_eq!(restored.calibration_len(), 63);
        assert_eq!(restored.residual_scale().to_bits(), original.residual_scale().to_bits());
        assert_eq!(probe_bits(&restored), probe_bits(&original), "verdict bits diverged");
        // Continuation stays locked: one more absorb on each side.
        let more = Relabeled::measured(Sample::regression(vec![0.4, 0.2], 0.85), 0.8);
        assert_eq!(original.absorb_relabeled(std::slice::from_ref(&more)), 1);
        assert_eq!(restored.absorb_relabeled(&[more]), 1);
        assert_eq!(probe_bits(&restored), probe_bits(&original));
    }

    #[test]
    fn eviction_matches_a_frozen_cluster_refit() {
        let recs = records(50);
        let mut evicted = PromRegressor::new(recs.clone(), config_fixed(2)).unwrap();
        for _ in 0..4 {
            assert!(evicted.evict_oldest_base_record());
        }
        // The reference: the same detector refit over the surviving window
        // under its frozen design-time clusters and residual scale.
        let mut refit = PromRegressor::new(recs.clone(), config_fixed(2)).unwrap();
        refit.recalibrate_frozen_clusters(recs[4..].to_vec()).unwrap();
        assert_eq!(evicted.base_record_len(), 46);
        assert_eq!(probe_bits(&evicted), probe_bits(&refit), "eviction must equal a refit");
    }

    #[test]
    fn incompatible_regressor_snapshots_are_rejected_without_mutation() {
        let mut prom = PromRegressor::new(records(30), config_fixed(2)).unwrap();
        let before = probe_bits(&prom);
        let good = prom.snapshot_state().unwrap();
        let mut snap = RegressorSnapshot::from_value(&good).unwrap();
        snap.detector = "prom-classifier".to_string();
        assert!(prom.restore_state(&snap.to_value()).is_err(), "wrong detector kind");
        snap = RegressorSnapshot::from_value(&good).unwrap();
        snap.centroids[0][0] = f64::NAN;
        assert!(prom.restore_state(&snap.to_value()).is_err(), "NaN centroid");
        snap = RegressorSnapshot::from_value(&good).unwrap();
        snap.records[2].target = f64::INFINITY;
        assert!(prom.restore_state(&snap.to_value()).is_err(), "non-finite record");
        assert_eq!(probe_bits(&prom), before, "rejected restores must not mutate");
        // The untouched snapshot still restores cleanly.
        prom.restore_state(&good).unwrap();
        assert_eq!(probe_bits(&prom), before);
    }

    #[test]
    fn residual_experts_scale_sanely() {
        let scale = 2.0;
        assert!((AbsoluteResidual.score(3.0, 1.0, scale) - 2.0).abs() < 1e-12);
        assert!((SquaredResidual.score(3.0, 1.0, scale) - 4.0).abs() < 1e-12);
        assert!((NormalizedResidual.score(3.0, 1.0, scale) - 1.0).abs() < 1e-12);
        assert!((RelativeResidual.score(3.0, 1.0, scale) - 1.0).abs() < 1e-12);
    }
}
