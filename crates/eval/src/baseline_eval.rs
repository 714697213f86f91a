//! Prom vs prior-work detectors on identical scenarios (Fig. 10).
//!
//! All detectors share one trained underlying model and one calibration
//! split; TESSERACT and RISE additionally receive the design-time (i.i.d.)
//! test outcomes as their validation data for threshold/SVM tuning. Every
//! method — Prom included — is driven uniformly as a
//! [`&dyn DriftDetector`](DriftDetector) over one shared deployment
//! [`Sample`] stream through the batched [`DriftDetector::judge_batch`]
//! path: the underlying model runs **once** per test input, not once per
//! detector.

use prom_baselines::tesseract::LabeledOutcome;
use prom_baselines::{NaiveCp, Rise, Tesseract};
use prom_core::detector::{DriftDetector, Sample, Truth};
use prom_core::pipeline::{
    available_shards, CalibrationPolicy, DeploymentPipeline, MultiPipeline, MultiReport,
    PipelineConfig,
};
use prom_core::pool::ShardPool;
use prom_ml::metrics::BinaryConfusion;

use crate::report::DetectionStats;
use crate::scenario::{
    deployment_samples, fit_scenario, is_misprediction, misprediction_flags, ScenarioConfig,
};

/// Detection quality of every method on one scenario.
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// Case-study display name.
    pub case_name: &'static str,
    /// Model display name.
    pub model_name: &'static str,
    /// `(detector name, stats)` per method, Prom included.
    pub methods: Vec<(String, DetectionStats)>,
}

/// Judges the shared stream with one detector — on a [`ShardPool`],
/// one scratch per shard (bit-identical to a single sequential `judge_batch`, see
/// `prom_core::pool`; the stream is already materialized, so the windowed
/// `push`/`flush` front-end and its per-sample clones would be pure
/// overhead here) — and scores the reject decisions against misprediction
/// truth.
pub fn evaluate_detector(
    detector: &dyn DriftDetector,
    stream: &[Sample],
    mispredicted: &[bool],
) -> DetectionStats {
    evaluate_detector_on(&ShardPool::with_available_parallelism(), detector, stream, mispredicted)
}

/// [`evaluate_detector`] on a caller-provided pool — the single-detector
/// form for callers that already own a pool. Loops scoring several
/// detectors over one stream should prefer [`evaluate_detectors`], which
/// fans the stream out to all of them in one pass.
pub fn evaluate_detector_on(
    pool: &ShardPool,
    detector: &dyn DriftDetector,
    stream: &[Sample],
    mispredicted: &[bool],
) -> DetectionStats {
    let judgements = pool.judge(detector, stream);
    let mut confusion = BinaryConfusion::default();
    for (j, &wrong) in judgements.iter().zip(mispredicted.iter()) {
        confusion.record(!j.accepted, wrong);
    }
    DetectionStats::from_confusion(&confusion)
}

/// Judges the shared stream with **every** detector at once — one
/// [`MultiPipeline`] fan-out over one shard pool, each window ingested
/// once — and scores each detector's reject decisions against
/// misprediction truth. This replaces the detector-by-detector judging
/// loop the detector-quality figures used to run (N passes over the
/// stream): one pass now serves all N detectors. Per-detector judgements
/// are bit-identical to [`evaluate_detector`] over the same stream
/// (`tests/pipeline_equivalence.rs`), so adopting the fan-out changes
/// figure throughput, never figures.
pub fn evaluate_detectors(
    detectors: &[&dyn DriftDetector],
    stream: &[Sample],
    mispredicted: &[bool],
) -> Vec<DetectionStats> {
    assert_eq!(stream.len(), mispredicted.len(), "one misprediction flag per stream sample");
    let mut pipeline = MultiPipeline::new(
        detectors.to_vec(),
        PipelineConfig { window: 4096, shards: available_shards(), ..Default::default() },
    );
    let mut confusions = vec![BinaryConfusion::default(); detectors.len()];
    let mut record = |multi: &MultiReport| {
        for (confusion, report) in confusions.iter_mut().zip(multi.reports.iter()) {
            for (j, &wrong) in report.judgements.iter().zip(&mispredicted[report.start..]) {
                confusion.record(!j.accepted, wrong);
            }
        }
    };
    for multi in pipeline.extend(stream.iter().cloned()) {
        record(&multi);
    }
    if let Some(multi) = pipeline.flush() {
        record(&multi);
    }
    drop(pipeline);
    confusions.iter().map(DetectionStats::from_confusion).collect()
}

/// What an online-policy evaluation produced, alongside the detection
/// quality: how much the calibration set moved.
#[derive(Debug, Clone)]
pub struct OnlineEvalResult {
    /// Detection quality of the reject decisions over the whole stream.
    pub detection: DetectionStats,
    /// Relabeled samples folded into the detector across the run.
    pub absorbed: usize,
    /// The detector's live calibration size after the run, when exposed.
    pub calibration_size: Option<usize>,
}

/// The *online* twin of [`evaluate_detector`]: drives the stream through a
/// windowed [`DeploymentPipeline`] under `policy`, folding each window's
/// budget-selected relabels back into the detector with `oracle_labels`
/// playing the expert (`oracle_labels[i]` is stream sample `i`'s ground
/// truth). Under [`CalibrationPolicy::Frozen`] the reject decisions are
/// identical to [`evaluate_detector`]'s; under the growing policies the
/// detector adapts mid-stream, which is the paper's Sec. 5.4 deployment
/// mode.
pub fn evaluate_detector_online(
    detector: &mut dyn DriftDetector,
    stream: &[Sample],
    mispredicted: &[bool],
    oracle_labels: &[usize],
    policy: CalibrationPolicy,
    window: usize,
) -> OnlineEvalResult {
    assert_eq!(stream.len(), oracle_labels.len(), "one oracle label per stream sample");
    assert_eq!(stream.len(), mispredicted.len(), "one misprediction flag per stream sample");
    let mut pipeline = DeploymentPipeline::online(
        detector,
        PipelineConfig { window, shards: available_shards(), policy, ..Default::default() },
        |global, _s| Some(Truth::Label(oracle_labels[global])),
    );
    let mut reports = pipeline.extend(stream.iter().cloned());
    reports.extend(pipeline.flush());
    let stats = pipeline.stats();
    drop(pipeline);

    let mut confusion = BinaryConfusion::default();
    for (j, &wrong) in reports.iter().flat_map(|r| r.judgements.iter()).zip(mispredicted.iter()) {
        confusion.record(!j.accepted, wrong);
    }
    OnlineEvalResult {
        detection: DetectionStats::from_confusion(&confusion),
        absorbed: stats.absorbed,
        calibration_size: reports.last().and_then(|r| r.calibration_size),
    }
}

/// Runs Prom and all three baselines on one scenario.
pub fn compare_detectors(config: &ScenarioConfig) -> BaselineComparison {
    let fitted = fit_scenario(config);

    // Validation outcomes for the tuned baselines: the design-time test
    // set, where correctness is known without any drift leakage.
    let validation: Vec<LabeledOutcome> = fitted
        .data
        .iid_test
        .iter()
        .map(|s| {
            let probs = fitted.model.predict_proba(s);
            let pred = prom_ml::matrix::argmax(&probs);
            LabeledOutcome { probs, correct: !is_misprediction(s, pred) }
        })
        .collect();
    let has_both = validation.iter().any(|v| v.correct) && validation.iter().any(|v| !v.correct);

    // One shared deployment stream: each drift-test input is embedded and
    // classified exactly once, for every detector.
    let stream = deployment_samples(&fitted.model, &fitted.data.drift_test);
    let mispredicted = misprediction_flags(&fitted.data.drift_test, &stream);

    let naive = NaiveCp::new(&fitted.records, fitted.prom_config.epsilon);
    let tesseract = Tesseract::fit(&fitted.records, &validation, fitted.data.n_classes);
    let rise =
        has_both.then(|| Rise::fit(&fitted.records, &validation, fitted.prom_config.epsilon));

    let mut detectors: Vec<&dyn DriftDetector> = vec![&fitted.prom, &naive, &tesseract];
    if let Some(rise) = rise.as_ref() {
        detectors.push(rise);
    }

    // One multi-detector pipeline for the whole comparison: every
    // detector judges the shared stream in one fan-out pass on the same
    // shard pool (the stream is ingested once, not once per detector).
    let names: Vec<String> = detectors.iter().map(|d| d.name().to_string()).collect();
    let stats = evaluate_detectors(&detectors, &stream, &mispredicted);
    let methods = names.into_iter().zip(stats).collect();

    BaselineComparison {
        case_name: config.case.name(),
        model_name: config.model.paper_name,
        methods,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Arch, TrainBudget};
    use crate::registry::{CaseId, CaseScale, ModelSpec};

    #[test]
    fn all_detectors_produce_stats_on_devmap() {
        let config = ScenarioConfig {
            scale: CaseScale { data_scale: 0.12, seed: 5 },
            budget: TrainBudget { epochs_scale: 0.2, seed: 5 },
            ..ScenarioConfig::new(CaseId::Devmap, ModelSpec { paper_name: "test", arch: Arch::Mlp })
        };
        let cmp = compare_detectors(&config);
        assert!(cmp.methods.len() >= 3, "expected Prom + at least 2 baselines");
        let names: Vec<&str> = cmp.methods.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"PROM"));
        assert!(names.contains(&"MAPIE-PUNCC"));
        assert!(names.contains(&"TESSERACT"));
        for (name, stats) in &cmp.methods {
            assert!(stats.n > 0, "{name} evaluated nothing");
        }
    }

    #[test]
    fn detectors_share_one_stream_and_stats_line_up() {
        let config = ScenarioConfig {
            scale: CaseScale { data_scale: 0.12, seed: 2 },
            budget: TrainBudget { epochs_scale: 0.2, seed: 2 },
            ..ScenarioConfig::new(
                CaseId::Coarsening,
                ModelSpec { paper_name: "test", arch: Arch::Mlp },
            )
        };
        let cmp = compare_detectors(&config);
        // Every method judged the same number of samples.
        let n = cmp.methods[0].1.n;
        assert!(cmp.methods.iter().all(|(_, s)| s.n == n), "stream sizes diverge: {cmp:?}");
    }
}
