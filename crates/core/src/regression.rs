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

use crate::calibrated::{Calibrated, DetectorKind};
use crate::committee::{PromConfig, PromJudgement};
use crate::detector::{Relabeled, Truth};
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
pub type PromRegressor = Calibrated<Regression>;

/// The regression part of [`PromRegressor`]: records calibrate under the
/// pseudo-label of a frozen design-time k-means model, scored by each
/// [`RegressionNonconformity`] expert under a frozen residual scale; test
/// samples are scored against a k-NN ground-truth proxy.
pub struct Regression {
    experts: Vec<Box<dyn RegressionNonconformity>>,
    kmeans: KMeans,
    residual_scale: f64,
    knn_k: usize,
    clusters: ClusterChoice,
    seed: u64,
}

/// Fits the design-time pseudo-label model and residual scale over
/// `records`: k-means with K from `clusters`, and the mean absolute
/// residual.
fn fit_clusters(
    records: &[RegressionRecord],
    clusters: ClusterChoice,
    seed: u64,
) -> Result<(KMeans, f64), PromError> {
    let embeddings: Vec<Vec<f64>> = records.iter().map(|r| r.embedding.clone()).collect();
    let k = match clusters {
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
            gap_statistic_k(&embeddings, min_k..=max_k.min(records.len()), 3, seed)
        }
    };
    let kmeans = KMeans::fit(&embeddings, k, seed);
    let residual_scale =
        records.iter().map(|r| (r.prediction - r.target).abs()).sum::<f64>() / records.len() as f64;
    Ok((kmeans, residual_scale))
}

impl DetectorKind for Regression {
    type Record = RegressionRecord;

    const SNAPSHOT_TAG: &'static str = "prom-regressor";

    fn embedding(record: &RegressionRecord) -> &[f64] {
        &record.embedding
    }

    fn record_output_len(_record: &RegressionRecord) -> usize {
        1
    }

    fn validate(record: &RegressionRecord) -> Result<(), String> {
        record.validate()
    }

    fn from_relabeled(r: &Relabeled) -> Option<RegressionRecord> {
        let Truth::Target(target) = r.truth else {
            return None;
        };
        let &[prediction] = &r.sample.outputs[..] else {
            return None;
        };
        Some(RegressionRecord { embedding: r.sample.embedding.clone(), prediction, target })
    }

    fn expert_names(&self) -> impl ExactSizeIterator<Item = &'static str> + '_ {
        self.experts.iter().map(|e| e.name())
    }

    fn n_labels(&self, _output_len: usize) -> usize {
        self.kmeans.k()
    }

    fn output_len(&self, _kernel: &ScoringKernel) -> usize {
        1
    }

    /// The record's pseudo-label under the frozen cluster model.
    fn label(&self, record: &RegressionRecord) -> usize {
        self.kmeans.assign(&record.embedding)
    }

    /// The record's residual score under the frozen residual scale.
    fn score(&self, expert: usize, record: &RegressionRecord) -> f64 {
        self.experts[expert].score(record.prediction, record.target, self.residual_scale)
    }

    /// Reuses the selection's distances for the k-NN ground-truth proxy
    /// and the pseudo-label assignment instead of recomputing them.
    fn test_scores(
        &self,
        records: &[RegressionRecord],
        kernel: &ScoringKernel,
        outputs: &[f64],
        scratch: &mut JudgeScratch,
    ) -> usize {
        assert_eq!(outputs.len(), 1, "regression samples carry a single prediction in outputs");
        // Ground-truth proxy: mean target of the knn_k nearest calibration
        // samples (Sec. 5.1.1). The neighbour buffer rides in the scratch
        // but is borrowed alongside it, so lift it out meanwhile.
        let mut neighbours = std::mem::take(&mut scratch.neighbours);
        kernel.nearest(scratch, self.knn_k, &mut neighbours);
        let proxy_target =
            neighbours.iter().map(|&i| records[i].target).sum::<f64>() / neighbours.len() as f64;
        // Pseudo-label of the test input: the cluster of its nearest
        // calibration sample (Sec. 5.1.2).
        let assigned = kernel.labels()[neighbours[0]];
        scratch.neighbours = neighbours;
        // The residual score does not depend on the candidate cluster, but
        // the per-cluster calibration populations do: each expert's row of
        // the `E × L` test scores repeats one value.
        scratch.test_scores.clear();
        for expert in &self.experts {
            let test_score = expert.score(outputs[0], proxy_target, self.residual_scale);
            scratch.test_scores.extend(std::iter::repeat_n(test_score, kernel.n_labels()));
        }
        assigned
    }

    fn snapshot(core: &PromRegressor) -> Value {
        RegressorSnapshot {
            detector: Self::SNAPSHOT_TAG.to_string(),
            expert_names: core.expert_names().into_iter().map(String::from).collect(),
            base_len: core.base_record_len(),
            centroids: core.kind().kmeans.centroids().to_vec(),
            residual_scale: core.kind().residual_scale,
            records: core.records().to_vec(),
        }
        .to_value()
    }

    /// Restores a regressor snapshot onto an identically configured
    /// detector: the frozen pseudo-label model comes back via
    /// [`KMeans::from_centroids`] (assignments are pure functions of
    /// centroid values), the residual scale is taken verbatim, and the
    /// score tables are rebuilt from the records — together bit-identical
    /// to the snapshotted original.
    fn restore(core: &mut PromRegressor, state: &Value) -> Result<(), DeError> {
        let snap = RegressorSnapshot::from_value(state)?;
        if !snap.residual_scale.is_finite() {
            return Err(DeError::custom("snapshot residual scale is not finite"));
        }
        if snap.centroids.is_empty() {
            return Err(DeError::custom("snapshot has no cluster centroids"));
        }
        let dim = core.embedding_dim();
        for (i, c) in snap.centroids.iter().enumerate() {
            if c.len() != dim {
                return Err(DeError::custom(format!(
                    "snapshot centroid {i} has dimension {}, detector expects {dim}",
                    c.len()
                )));
            }
            if c.iter().any(|v| v.is_nan()) {
                return Err(DeError::custom(format!("snapshot centroid {i} contains NaN")));
            }
        }
        let RegressorSnapshot {
            detector,
            expert_names,
            base_len,
            centroids,
            residual_scale,
            records,
        } = snap;
        core.restore_snapshot(&detector, &expert_names, base_len, records, |kind, _| {
            kind.kmeans = KMeans::from_centroids(centroids);
            kind.residual_scale = residual_scale;
            Ok(())
        })
    }
}

impl PromRegressor {
    /// Builds a detector with the default residual committee.
    ///
    /// # Errors
    ///
    /// Returns [`PromError`] on an empty calibration set, an invalid
    /// record, records of different shapes, or an invalid configuration.
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
    /// Same conditions as [`PromRegressor::new`], plus an empty committee.
    pub fn with_experts(
        records: Vec<RegressionRecord>,
        experts: Vec<Box<dyn RegressionNonconformity>>,
        config: PromRegressorConfig,
    ) -> Result<Self, PromError> {
        if config.knn_k == 0 {
            return Err(PromError::InvalidConfig { detail: "knn_k must be >= 1".into() });
        }
        let PromRegressorConfig { prom, knn_k, clusters, seed } = config;
        Self::build(records, prom, |records| {
            let (kmeans, residual_scale) = fit_clusters(records, clusters, seed)?;
            Ok(Regression { experts, kmeans, residual_scale, knn_k, clusters, seed })
        })
    }

    /// Approximates the deployment-time ground truth of a test input as the
    /// mean target of its `knn_k` nearest calibration samples (Sec. 5.1.1).
    pub fn approximate_target(&self, embedding: &[f64]) -> f64 {
        let mut neighbours = Vec::new();
        self.kernel().k_nearest(
            embedding,
            self.kind().knn_k,
            &mut JudgeScratch::new(),
            &mut neighbours,
        );
        let records = self.records();
        neighbours.iter().map(|&i| records[i].target).sum::<f64>() / neighbours.len() as f64
    }

    /// Judges one deployment-time regression prediction.
    ///
    /// # Panics
    ///
    /// Panics on an embedding-dimension mismatch.
    pub fn judge(&self, embedding: &[f64], prediction: f64) -> PromJudgement {
        self.judge_with(embedding, &[prediction], self.config())
    }

    /// Replaces the calibration set after the model is retrained: refits
    /// the pseudo-label model and residual scale over `records`, then
    /// rebuilds like [`PromRegressor::recalibrate_frozen_clusters`].
    ///
    /// # Errors
    ///
    /// Returns [`PromError`], leaving the detector unchanged, if the set is
    /// empty or a record is invalid or shaped unlike the live set.
    pub fn recalibrate(&mut self, records: Vec<RegressionRecord>) -> Result<(), PromError> {
        self.rebuild_with(records, |kind, records| {
            (kind.kmeans, kind.residual_scale) = fit_clusters(records, kind.clusters, kind.seed)?;
            Ok(())
        })
    }

    /// Rebuilds the score tables from scratch over `records` while keeping
    /// the design-time pseudo-label model (cluster centroids and count) and
    /// residual scale — the full-refit **reference** for the incremental
    /// [`Calibrated::insert_record`] path, and the recalibration to use
    /// when the calibration set changes wholesale but the underlying model
    /// (and therefore its embedding space) has not been retrained.
    ///
    /// Clustering (and the residual scale) are *design-time* artifacts:
    /// the Sec. 5.4 loop folds relabeled samples into the calibration set
    /// under them, it does not re-derive the pseudo-label space.
    ///
    /// # Errors
    ///
    /// Returns [`PromError`], leaving the detector unchanged, if the set is
    /// empty or a record is invalid or shaped unlike the live set.
    pub fn recalibrate_frozen_clusters(
        &mut self,
        records: Vec<RegressionRecord>,
    ) -> Result<(), PromError> {
        self.rebuild(records)
    }

    /// Number of pseudo-label clusters in use.
    pub fn n_clusters(&self) -> usize {
        self.kind().kmeans.k()
    }

    /// The robust residual scale of the calibration set.
    pub fn residual_scale(&self) -> f64 {
        self.kind().residual_scale
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DriftDetector, Sample};

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
