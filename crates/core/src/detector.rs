//! The first-class deployment interface: [`DriftDetector`], the trait every
//! drift/misprediction detector in the workspace implements.
//!
//! The Prom paper's evaluation (Figs. 10 and 12) drives Prom itself and the
//! prior-work detectors (naive CP, TESSERACT-style, RISE-style) through one
//! common deployment loop: a stream of model outputs arrives, each must be
//! judged accept/reject, and the judging overhead must stay negligible next
//! to the model's own inference. This module is that loop's contract:
//!
//! * [`Sample`] — one deployment-time observation (the underlying model's
//!   embedding plus its output vector);
//! * [`Judgement`] — a detector's decision, comparable across detectors;
//! * [`DriftDetector`] — per-sample [`DriftDetector::judge_one`] plus a
//!   batched [`DriftDetector::judge_batch`] entry point that detectors
//!   override to amortize per-call work (buffer reuse, shared selection)
//!   across a window of samples.
//!
//! `prom_core`'s own [`crate::predictor::PromClassifier`] and
//! [`crate::regression::PromRegressor`] implement the trait, as do the
//! `prom-baselines` detectors; the `prom-eval` harness consumes detectors
//! only as `&dyn DriftDetector`.

use crate::committee::PromJudgement;
use crate::scoring::JudgeScratch;
use serde::{DeError, Deserialize, Serialize, Value};

/// One deployment-time observation handed to a detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// The underlying model's embedding of the input.
    pub embedding: Vec<f64>,
    /// The model's output vector: the class-probability vector for
    /// classifiers, or a single-element slice holding the scalar prediction
    /// for regressors.
    pub outputs: Vec<f64>,
}

impl Sample {
    /// Creates a sample.
    ///
    /// # Panics
    ///
    /// Panics if either vector is empty.
    pub fn new(embedding: Vec<f64>, outputs: Vec<f64>) -> Self {
        assert!(!embedding.is_empty(), "empty embedding");
        assert!(!outputs.is_empty(), "empty model output");
        Self { embedding, outputs }
    }

    /// A regression sample: the model's embedding and scalar prediction.
    pub fn regression(embedding: Vec<f64>, prediction: f64) -> Self {
        Self::new(embedding, vec![prediction])
    }
}

/// A detector's decision on one sample, in a form comparable across
/// detectors (Prom's committee and the single-function baselines alike).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Judgement {
    /// `true` if the detector trusts the underlying model's prediction.
    pub accepted: bool,
    /// How many of the detector's experts voted to reject (0 or 1 for
    /// single-function detectors).
    pub reject_votes: usize,
    /// Committee size (1 for single-function detectors).
    pub n_experts: usize,
}

impl Judgement {
    /// The judgement of a single-function detector.
    pub fn single(rejects: bool) -> Self {
        Self { accepted: !rejects, reject_votes: usize::from(rejects), n_experts: 1 }
    }
}

impl From<&crate::committee::PromJudgement> for Judgement {
    /// Flattens Prom's rich committee judgement to the detector-agnostic
    /// form (dropping the per-expert verdicts).
    fn from(j: &crate::committee::PromJudgement) -> Self {
        Self { accepted: j.accepted, reject_votes: j.reject_votes, n_experts: j.verdicts.len() }
    }
}

impl From<crate::committee::PromJudgement> for Judgement {
    fn from(j: crate::committee::PromJudgement) -> Self {
        Self::from(&j)
    }
}

/// The expert-provided ground truth for a relabeled deployment sample —
/// the "ask an expert" answer the Sec. 5.4 online loop folds back into the
/// calibration set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Truth {
    /// A class label (classification detectors).
    Label(usize),
    /// A regression target (regression detectors).
    Target(f64),
}

/// One relabeled deployment sample: the sample exactly as it was judged,
/// plus its expert-provided ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Relabeled {
    /// The sample as it appeared on the deployment stream.
    pub sample: Sample,
    /// The expert's ground truth for it.
    pub truth: Truth,
}

impl Relabeled {
    /// A relabeled classification sample.
    pub fn labeled(sample: Sample, label: usize) -> Self {
        Self { sample, truth: Truth::Label(label) }
    }

    /// A relabeled regression sample.
    pub fn measured(sample: Sample, target: f64) -> Self {
        Self { sample, truth: Truth::Target(target) }
    }
}

/// A deployment-time drift/misprediction detector: decides whether to
/// trust an underlying model's prediction given the model's embedding and
/// output vector for the input.
pub trait DriftDetector: Send + Sync {
    /// Short display name for reports.
    fn name(&self) -> &'static str;

    /// Judges one prediction. `outputs` is the probability vector for
    /// classification detectors and a one-element prediction slice for
    /// regression detectors.
    fn judge_one(&self, embedding: &[f64], outputs: &[f64]) -> Judgement;

    /// Judges a window of predictions.
    ///
    /// Equivalent to calling [`DriftDetector::judge_one`] per sample (the
    /// default does exactly that); implementations override it to amortize
    /// per-call work — scratch-buffer reuse, shared calibration lookups —
    /// across the batch. Overrides must return **identical** judgements to
    /// the looped path.
    fn judge_batch(&self, samples: &[Sample]) -> Vec<Judgement> {
        samples.iter().map(|s| self.judge_one(&s.embedding, &s.outputs)).collect()
    }

    /// Judges a window with a **caller-owned** scratch — the trait-level
    /// entry point of the shard executor (`prom_core::pool::ShardPool`),
    /// which owns one [`JudgeScratch`] per shard and reuses it across
    /// every window instead of re-growing buffers per window.
    ///
    /// The default ignores the scratch and delegates to
    /// [`DriftDetector::judge_batch`] (correct for detectors whose judging
    /// is allocation-free anyway, like the binary-search baselines).
    /// Overrides must return judgements **bit-identical** to `judge_batch`
    /// — the scratch is stateless between samples and between windows, so
    /// buffer reuse is an implementation detail, never a behaviour change
    /// (`tests/pipeline_equivalence.rs`).
    fn judge_batch_scratch(
        &self,
        samples: &[Sample],
        scratch: &mut JudgeScratch,
    ) -> Vec<Judgement> {
        let _ = scratch;
        self.judge_batch(samples)
    }

    /// The rich twin of [`DriftDetector::judge_batch_scratch`]: judges a
    /// window keeping the full per-expert committee detail, for detectors
    /// that have one. Returns `None` for single-function detectors (the
    /// flat [`Judgement`] already carries everything they produce) —
    /// support is a property of the detector, so the answer is the same
    /// for every window, empty ones included.
    ///
    /// The pool's shards drive either form through the same per-shard
    /// scratch, and the rich form lets deployment callers rank relabels
    /// by credibility instead of reject-vote fraction.
    fn judge_batch_rich_scratch(
        &self,
        samples: &[Sample],
        scratch: &mut JudgeScratch,
    ) -> Option<Vec<PromJudgement>> {
        let _ = (samples, scratch);
        None
    }

    /// `true` if the detector would reject (flag) this prediction.
    fn rejects(&self, embedding: &[f64], outputs: &[f64]) -> bool {
        !self.judge_one(embedding, outputs).accepted
    }

    /// Number of live calibration records, when the detector exposes one
    /// (`None` for detectors without an inspectable calibration set).
    fn calibration_size(&self) -> Option<usize> {
        None
    }

    /// Folds expert-relabeled samples into the live calibration set —
    /// the detector-side half of the Sec. 5.4 online recalibration loop —
    /// returning how many were absorbed.
    ///
    /// The default absorbs nothing: a detector without an online update
    /// path simply stays frozen, which is always *correct* (the
    /// [`CalibrationPolicy::Frozen`] behavior), just not adaptive. A
    /// detector whose only update path is a full `recalibrate`-style
    /// rebuild may implement this by rebuilding with the relabels appended;
    /// `PromClassifier`, `PromRegressor`, and the baselines override it
    /// with **incremental inserts** that are bit-identical in judgement to
    /// that full rebuild at `O(log n)` instead of `O(n log n)` per record
    /// (proven by `tests/recalibration_equivalence.rs`).
    ///
    /// Relabels arrive from the serving path, so implementations must
    /// *skip* samples that fail calibration validation (NaN embeddings,
    /// out-of-range labels, a mismatched [`Truth`] kind, non-finite
    /// targets) rather than panic; skipped samples do not count toward the
    /// returned total.
    ///
    /// [`CalibrationPolicy::Frozen`]: crate::pipeline::CalibrationPolicy
    fn absorb_relabeled(&mut self, batch: &[Relabeled]) -> usize {
        let _ = batch;
        0
    }

    /// Whether `r` would pass [`DriftDetector::absorb_relabeled`]'s
    /// validation, without absorbing it. The online pipeline screens every
    /// relabel pick with this *before* committing reservoir bookkeeping —
    /// otherwise an invalid pick whose reservoir decision is "skip" would
    /// silently count toward the sampled stream length and bias the
    /// reservoir against later valid picks. The default mirrors the
    /// default `absorb_relabeled`: a detector that absorbs nothing can
    /// absorb nothing.
    fn can_absorb(&self, r: &Relabeled) -> bool {
        let _ = r;
        false
    }

    /// Replaces the live calibration record at `index` (a record index as
    /// counted by [`DriftDetector::calibration_size`]) with `r` — the
    /// eviction path of a capped reservoir calibration set. Returns `false`
    /// (leaving the calibration set unchanged) when the detector does not
    /// support in-place replacement, the index is out of range, or `r`
    /// fails the same validation as [`DriftDetector::absorb_relabeled`].
    fn replace_record(&mut self, index: usize, r: &Relabeled) -> bool {
        let _ = (index, r);
        false
    }

    /// Number of **design-time base records** still live in the calibration
    /// set, when the detector tracks the base/online split (`None`
    /// otherwise). Online absorbs land *after* the base prefix, so a
    /// reservoir slot `s` always addresses record `base_len() + s` — and
    /// because eviction shrinks the base prefix over time, callers must read
    /// this *live* rather than cache the detector's construction-time
    /// calibration size (the bug `replace_online_slot` exists to prevent).
    fn base_len(&self) -> Option<usize> {
        None
    }

    /// Replaces the online record occupying reservoir slot `slot` (the
    /// `slot`-th record *after* the design-time base prefix) with `r`.
    /// This is the index-translation the online pipeline must use for
    /// reservoir replacements: it reads [`DriftDetector::base_len`] at call
    /// time, so it stays correct after base eviction or a snapshot restore
    /// shifts the prefix. Returns `false` when the detector does not track
    /// the split or the translated index fails
    /// [`DriftDetector::replace_record`].
    fn replace_online_slot(&mut self, slot: usize, r: &Relabeled) -> bool {
        match self.base_len() {
            Some(base) => self.replace_record(base + slot, r),
            None => false,
        }
    }

    /// Retires the **oldest design-time base record** from the calibration
    /// set — the sliding-window eviction path that lets online absorbs
    /// gradually displace stale design-time calibration. Returns `false`
    /// (leaving the set unchanged) when the detector does not support
    /// eviction, has no base records left, or eviction would empty the
    /// calibration set entirely. After a successful eviction the surviving
    /// calibration state must be **bit-identical** to a from-scratch fit on
    /// the surviving records (`tests/lifecycle_equivalence.rs`).
    fn evict_oldest_base(&mut self) -> bool {
        false
    }

    /// The detector's complete portable state as a serializable
    /// [`Value`] tree, or `None` for detectors without snapshot support.
    /// The snapshot must capture everything [`DriftDetector::restore_state`]
    /// needs to resume **bit-identically**: calibration records in order,
    /// the live base/online split, and any frozen fitted artifacts
    /// (centroids, SVM weights, thresholds) that a reconstruction would
    /// otherwise re-derive non-deterministically.
    fn snapshot_state(&self) -> Option<Value> {
        None
    }

    /// Restores state captured by [`DriftDetector::snapshot_state`] onto an
    /// identically configured detector, replacing its live calibration
    /// wholesale. After a successful restore the detector's judgements,
    /// p-value bits, and calibration bookkeeping must be indistinguishable
    /// from the snapshotted original. Errors (leaving the detector
    /// unchanged) on a snapshot from a different detector kind, a
    /// structurally incompatible configuration, or corrupt record data.
    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let _ = state;
        Err(DeError::custom("this detector does not support snapshot/restore"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A detector that rejects non-positive first outputs.
    struct SignDetector;

    impl DriftDetector for SignDetector {
        fn name(&self) -> &'static str {
            "sign"
        }

        fn judge_one(&self, _embedding: &[f64], outputs: &[f64]) -> Judgement {
            Judgement::single(outputs[0] <= 0.0)
        }
    }

    #[test]
    fn default_batch_matches_looped_single_calls() {
        let det = SignDetector;
        let samples: Vec<Sample> =
            (0..10).map(|i| Sample::new(vec![i as f64], vec![i as f64 - 5.0])).collect();
        let batched = det.judge_batch(&samples);
        let looped: Vec<Judgement> =
            samples.iter().map(|s| det.judge_one(&s.embedding, &s.outputs)).collect();
        assert_eq!(batched, looped);
    }

    #[test]
    fn rejects_inverts_acceptance() {
        let det = SignDetector;
        assert!(det.rejects(&[0.0], &[-1.0]));
        assert!(!det.rejects(&[0.0], &[1.0]));
    }

    #[test]
    fn single_judgement_shape() {
        assert_eq!(
            Judgement::single(true),
            Judgement { accepted: false, reject_votes: 1, n_experts: 1 }
        );
        assert_eq!(
            Judgement::single(false),
            Judgement { accepted: true, reject_votes: 0, n_experts: 1 }
        );
    }

    #[test]
    fn regression_sample_wraps_prediction() {
        let s = Sample::regression(vec![1.0, 2.0], 0.75);
        assert_eq!(s.outputs, vec![0.75]);
    }

    #[test]
    #[should_panic(expected = "empty model output")]
    fn empty_outputs_panic() {
        let _ = Sample::new(vec![1.0], vec![]);
    }

    #[test]
    fn detectors_are_object_safe() {
        let det = SignDetector;
        let dyn_det: &dyn DriftDetector = &det;
        let js = dyn_det.judge_batch(&[Sample::new(vec![0.0], vec![1.0])]);
        assert_eq!(js.len(), 1);
        assert!(js[0].accepted);
    }

    #[test]
    fn default_online_calibration_is_a_frozen_noop() {
        let mut det = SignDetector;
        assert_eq!(det.calibration_size(), None);
        let batch = vec![Relabeled::labeled(Sample::new(vec![0.0], vec![1.0]), 0); 3];
        assert_eq!(det.absorb_relabeled(&batch), 0, "default detector absorbs nothing");
        assert!(!det.can_absorb(&batch[0]), "can_absorb must mirror the default absorb");
        assert!(!det.replace_record(0, &batch[0]), "default detector replaces nothing");
    }

    #[test]
    fn default_lifecycle_surface_is_inert() {
        let mut det = SignDetector;
        let r = Relabeled::labeled(Sample::new(vec![0.0], vec![1.0]), 0);
        assert_eq!(det.base_len(), None, "default detector tracks no base prefix");
        assert!(!det.replace_online_slot(0, &r), "no base prefix means no slot translation");
        assert!(!det.evict_oldest_base(), "default detector evicts nothing");
        assert!(det.snapshot_state().is_none(), "default detector has no snapshot");
        let err = det.restore_state(&Value::Null).unwrap_err();
        assert!(err.to_string().contains("does not support snapshot/restore"), "{err}");
    }

    /// A detector that records replace_record calls, to pin down the
    /// default slot translation in `replace_online_slot`.
    struct SlotProbe {
        base: usize,
        last_index: std::sync::Mutex<Option<usize>>,
    }

    impl DriftDetector for SlotProbe {
        fn name(&self) -> &'static str {
            "slot-probe"
        }

        fn judge_one(&self, _embedding: &[f64], _outputs: &[f64]) -> Judgement {
            Judgement::single(false)
        }

        fn base_len(&self) -> Option<usize> {
            Some(self.base)
        }

        fn replace_record(&mut self, index: usize, _r: &Relabeled) -> bool {
            *self.last_index.lock().unwrap() = Some(index);
            true
        }
    }

    #[test]
    fn default_slot_translation_reads_base_len_live() {
        let mut det = SlotProbe { base: 7, last_index: std::sync::Mutex::new(None) };
        let r = Relabeled::labeled(Sample::new(vec![0.0], vec![1.0]), 0);
        assert!(det.replace_online_slot(3, &r));
        assert_eq!(*det.last_index.lock().unwrap(), Some(10), "slot 3 after a 7-record base");
        det.base = 5; // eviction shrank the base prefix
        assert!(det.replace_online_slot(3, &r));
        assert_eq!(
            *det.last_index.lock().unwrap(),
            Some(8),
            "translation must track live base_len"
        );
    }

    #[test]
    fn relabeled_constructors_wrap_truth() {
        let s = Sample::new(vec![1.0], vec![0.5, 0.5]);
        assert_eq!(Relabeled::labeled(s.clone(), 1).truth, Truth::Label(1));
        assert_eq!(Relabeled::measured(s, 0.25).truth, Truth::Target(0.25));
    }
}
