//! Whole-evaluation orchestration: runs every (case, model) scenario of
//! Table 1, the ablations, and the sensitivity sweeps — in parallel across
//! scenarios — and aggregates them the way the paper's figures do.

use std::panic::resume_unwind;

use prom_core::nonconformity;
use prom_core::predictor::PromClassifier;
use prom_ml::data::SeqDataset;
use prom_ml::lstm::{Lstm, LstmConfig};
use prom_ml::metrics::{BinaryConfusion, ConfusionMatrix};
use prom_workloads::vulnerability;

use prom_core::detector::DriftDetector;

#[cfg(test)]
use crate::baseline_eval::evaluate_detector;
use crate::baseline_eval::{
    compare_detectors, evaluate_detector_online, evaluate_detectors, BaselineComparison,
    OnlineEvalResult,
};
use crate::codegen_eval::{run_codegen, CodegenConfig, CodegenResult};
use crate::models::TrainBudget;
use crate::registry::{models_for, CaseId, CaseScale};
use crate::report::DetectionStats;
use crate::scenario::{
    deployment_samples, fit_scenario, misprediction_flags, run_scenario, ScenarioConfig,
    ScenarioResult,
};

/// Global scale of an evaluation run: 1.0 reproduces the full experiment;
/// smaller values give fast smoke runs with the same code paths.
#[derive(Debug, Clone, Copy)]
pub struct SuiteScale {
    /// Multiplier on dataset sizes.
    pub data: f64,
    /// Multiplier on training epochs.
    pub epochs: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for SuiteScale {
    fn default() -> Self {
        Self { data: 1.0, epochs: 1.0, seed: 0 }
    }
}

impl SuiteScale {
    /// A fast smoke-run scale.
    pub fn quick() -> Self {
        Self { data: 0.25, epochs: 0.3, seed: 0 }
    }

    /// The scenario configuration for one (case, model) pair.
    pub fn scenario(&self, case: CaseId, model: crate::registry::ModelSpec) -> ScenarioConfig {
        ScenarioConfig {
            scale: CaseScale { data_scale: self.data, seed: self.seed },
            budget: TrainBudget { epochs_scale: self.epochs, seed: self.seed },
            ..ScenarioConfig::new(case, model)
        }
    }

    /// The C5 configuration.
    pub fn codegen(&self) -> CodegenConfig {
        let full = CodegenConfig::default();
        CodegenConfig {
            train_tasks: ((full.train_tasks as f64 * self.data).round() as usize).max(4),
            records_per_task: ((full.records_per_task as f64 * self.data.max(0.4)).round()
                as usize)
                .max(10),
            variant_tasks: ((full.variant_tasks as f64 * self.data).round() as usize).max(3),
            variant_records: ((full.variant_records as f64 * self.data.max(0.4)).round() as usize)
                .max(10),
            epochs: ((full.epochs as f64 * self.epochs).round() as usize).max(3),
            seed: self.seed,
            ..full
        }
    }
}

/// Runs all 12 classification scenarios of Table 1 (C1–C4 × their models)
/// in parallel threads.
pub fn run_all_classification(scale: SuiteScale) -> Vec<ScenarioResult> {
    each_classification_scenario(scale, run_scenario)
}

/// Runs `run` on every classification scenario of Table 1, one thread
/// per scenario, and returns the results in scenario order. A panicking
/// scenario resurfaces on the caller with its own payload.
fn each_classification_scenario<R: Send>(
    scale: SuiteScale,
    run: fn(&ScenarioConfig) -> R,
) -> Vec<R> {
    let jobs: Vec<ScenarioConfig> = CaseId::CLASSIFICATION
        .into_iter()
        .flat_map(|case| models_for(case).into_iter().map(move |model| scale.scenario(case, model)))
        .collect();
    std::thread::scope(|s| {
        let threads: Vec<_> = jobs.iter().map(|job| s.spawn(move || run(job))).collect();
        threads.into_iter().map(|t| t.join().unwrap_or_else(|panic| resume_unwind(panic))).collect()
    })
}

/// Runs the C5 regression experiment.
pub fn run_codegen_suite(scale: SuiteScale) -> CodegenResult {
    run_codegen(&scale.codegen())
}

/// Fig. 10: Prom vs baselines on every classification scenario, in
/// parallel.
pub fn run_baseline_suite(scale: SuiteScale) -> Vec<BaselineComparison> {
    each_classification_scenario(scale, compare_detectors)
}

/// Fig. 11: detection quality of each single nonconformity function vs the
/// full Prom committee, on one (case, model) scenario.
///
/// Every variant is driven as a [`DriftDetector`] over one shared
/// deployment stream (the model runs once per test input, not once per
/// committee variant).
pub fn run_ncm_ablation(config: &ScenarioConfig) -> Vec<(String, DetectionStats)> {
    let fitted = fit_scenario(config);
    let stream = deployment_samples(&fitted.model, &fitted.data.drift_test);
    let mispredicted = misprediction_flags(&fitted.data.drift_test, &stream);

    let single_expert: Vec<(String, PromClassifier)> = ["LAC", "Top-K", "APS", "RAPS"]
        .into_iter()
        .map(|name| {
            let expert = nonconformity::by_name(name).expect("known NCM");
            let prom = PromClassifier::with_experts(
                fitted.records.clone(),
                vec![expert],
                fitted.prom_config.clone(),
            )
            .expect("valid single-expert committee");
            (name.to_string(), prom)
        })
        .collect();

    // One multi-detector fan-out for the whole ablation: every committee
    // variant judges the shared stream in one pass on the same shard pool
    // (the stream is ingested once, not once per variant).
    let (names, detectors): (Vec<String>, Vec<&dyn DriftDetector>) = single_expert
        .iter()
        .map(|(name, prom)| (name.clone(), prom as &dyn DriftDetector))
        .chain(std::iter::once(("PROM".to_string(), &fitted.prom as &dyn DriftDetector)))
        .unzip();
    names.into_iter().zip(evaluate_detectors(&detectors, &stream, &mispredicted)).collect()
}

/// The in-pipeline online-recalibration ablation: Prom's detection quality
/// on one scenario's drift stream under each
/// [`CalibrationPolicy`](prom_core::pipeline::CalibrationPolicy), with
/// the drift samples' ground-truth labels playing the relabeling expert.
/// One model and one fitted detector configuration are shared; each policy
/// gets its own fresh detector clone of the calibration records, so the
/// policies are compared like-for-like.
pub fn run_online_ablation(
    config: &ScenarioConfig,
    policies: &[(&str, prom_core::pipeline::CalibrationPolicy)],
    window: usize,
) -> Vec<(String, OnlineEvalResult)> {
    let fitted = fit_scenario(config);
    let stream = deployment_samples(&fitted.model, &fitted.data.drift_test);
    let mispredicted = misprediction_flags(&fitted.data.drift_test, &stream);
    let oracle_labels: Vec<usize> = fitted.data.drift_test.iter().map(|s| s.label).collect();

    policies
        .iter()
        .map(|(name, policy)| {
            let mut prom = PromClassifier::new(fitted.records.clone(), fitted.prom_config.clone())
                .expect("fitted records are valid");
            let result = evaluate_detector_online(
                &mut prom,
                &stream,
                &mispredicted,
                &oracle_labels,
                *policy,
                window,
            );
            (name.to_string(), result)
        })
        .collect()
}

/// Fig. 1(a): trains the Vulde-style Bi-LSTM on the earliest era bucket and
/// reports its F1 on every bucket, reproducing the motivation experiment.
pub fn run_motivation(scale: SuiteScale) -> Vec<(String, f64)> {
    let per_era = ((110.0 * scale.data).round() as usize).max(10);
    let buckets = vulnerability::era_buckets(per_era, scale.seed);

    // Train on the first bucket (years 2012–2014), as in Fig. 1(a).
    let train_samples = &buckets[0].1;
    let seqs: Vec<Vec<usize>> = train_samples.iter().map(|s| s.tokens.clone()).collect();
    let labels: Vec<usize> = train_samples.iter().map(|s| s.label).collect();
    let data = SeqDataset::new(seqs, labels, vulnerability::VOCAB);
    let model = Lstm::fit(
        &data,
        LstmConfig {
            bidirectional: true,
            epochs: ((16.0 * scale.epochs).round() as usize).max(3),
            seed: scale.seed,
            ..Default::default()
        },
    );

    buckets
        .iter()
        .map(|(name, samples)| {
            let pred: Vec<usize> = samples
                .iter()
                .map(|s| prom_ml::traits::Classifier::predict(&model, &s.tokens[..]))
                .collect();
            let truth: Vec<usize> = samples.iter().map(|s| s.label).collect();
            let f1 = ConfusionMatrix::new(2, &pred, &truth)
                .recall(1)
                .and_then(|r| {
                    ConfusionMatrix::new(2, &pred, &truth).precision(1).map(|p| {
                        if p + r == 0.0 {
                            0.0
                        } else {
                            2.0 * p * r / (p + r)
                        }
                    })
                })
                .unwrap_or(0.0);
            (name.clone(), f1)
        })
        .collect()
}

/// Fig. 13(d): coverage deviations per case (mean across that case's
/// models), pulled from scenario results.
pub fn coverage_deviations(results: &[ScenarioResult]) -> Vec<(String, f64)> {
    let mut by_case: Vec<(String, Vec<f64>)> = Vec::new();
    for r in results {
        if r.coverage_deviation.is_nan() {
            continue;
        }
        match by_case.iter_mut().find(|(c, _)| c == r.case_name) {
            Some((_, v)) => v.push(r.coverage_deviation),
            None => by_case.push((r.case_name.to_string(), vec![r.coverage_deviation])),
        }
    }
    by_case
        .into_iter()
        .map(|(c, v)| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            (c, mean)
        })
        .collect()
}

/// Table 2: the paper's headline aggregate over all scenarios.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Mean design-time perf-to-oracle over optimization scenarios.
    pub perf_training: f64,
    /// Mean deployment perf-to-oracle (native).
    pub perf_deploy: f64,
    /// Mean deployment perf-to-oracle after Prom incremental learning.
    pub perf_prom: f64,
    /// Pooled detection accuracy.
    pub accuracy: f64,
    /// Pooled detection precision.
    pub precision: f64,
    /// Pooled detection recall.
    pub recall: f64,
    /// Pooled detection F1.
    pub f1: f64,
}

/// Pools detection confusion counts exactly: the aggregate's tp/fp/tn/fn
/// are the integer sums of the per-scenario counts.
pub fn pool_detection<'a>(stats: impl IntoIterator<Item = &'a DetectionStats>) -> BinaryConfusion {
    let mut pooled = BinaryConfusion::default();
    for d in stats {
        let c = d.confusion();
        pooled.tp += c.tp;
        pooled.fp += c.fp;
        pooled.tn += c.tn;
        pooled.fn_ += c.fn_;
    }
    pooled
}

/// Aggregates scenario results into the Table 2 row.
pub fn summarize(results: &[ScenarioResult]) -> Summary {
    let perf: Vec<(f64, f64, f64)> = results
        .iter()
        .filter_map(|r| match (&r.design.perf, &r.deploy.perf, &r.prom_deploy.perf) {
            (Some(d), Some(x), Some(p)) => Some((d.mean, x.mean, p.mean)),
            _ => None,
        })
        .collect();
    let mean = |f: &dyn Fn(&(f64, f64, f64)) -> f64| -> f64 {
        if perf.is_empty() {
            return f64::NAN;
        }
        perf.iter().map(f).sum::<f64>() / perf.len() as f64
    };
    // Pool detection confusion counts across scenarios — exactly, from the
    // integer counts each DetectionStats carries (reconstructing them from
    // `recall * n` / `fpr * negatives` floats drifted counts by ±1).
    let pooled = pool_detection(results.iter().map(|r| &r.detection));
    Summary {
        perf_training: mean(&|t| t.0),
        perf_deploy: mean(&|t| t.1),
        perf_prom: mean(&|t| t.2),
        accuracy: pooled.accuracy(),
        precision: pooled.precision(),
        recall: pooled.recall(),
        f1: pooled.f1(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Arch;
    use crate::registry::ModelSpec;

    fn tiny() -> SuiteScale {
        SuiteScale { data: 0.1, epochs: 0.15, seed: 2 }
    }

    #[test]
    fn scenario_threads_return_results_in_table_order() {
        // Earlier scenarios finish last, so completion order is reversed.
        let got = each_classification_scenario(tiny(), |job| {
            let position = CaseId::CLASSIFICATION.iter().position(|&c| c == job.case).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10 * (4 - position as u64)));
            (job.case, job.model.paper_name)
        });
        let expected: Vec<_> = CaseId::CLASSIFICATION
            .into_iter()
            .flat_map(|case| models_for(case).into_iter().map(move |m| (case, m.paper_name)))
            .collect();
        assert_eq!(got.len(), 12);
        assert_eq!(got, expected);
    }

    #[test]
    fn motivation_f1_declines_over_eras() {
        let curve = run_motivation(SuiteScale { data: 0.5, epochs: 0.6, seed: 0 });
        assert_eq!(curve.len(), 5);
        let first = curve[0].1;
        let last = curve[4].1;
        assert!(first > 0.7, "design-era F1 too low: {first}");
        assert!(
            last < first - 0.2,
            "F1 should decline substantially across eras: {first} -> {last}"
        );
    }

    #[test]
    fn ncm_ablation_reports_five_methods() {
        let cfg =
            tiny().scenario(CaseId::Devmap, ModelSpec { paper_name: "test", arch: Arch::Mlp });
        let rows = run_ncm_ablation(&cfg);
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["LAC", "Top-K", "APS", "RAPS", "PROM"]);
    }

    #[test]
    fn detection_pooling_is_exact_integer_aggregation() {
        // Two confusions whose rates are not exactly representable: the old
        // rate-times-total reconstruction drifted these by ±1.
        let mut a = BinaryConfusion::default();
        for (fired, real) in
            [(true, true), (true, true), (false, true), (true, false), (false, false)]
        {
            a.record(fired, real);
        }
        let mut b = BinaryConfusion::default();
        for (fired, real) in [(true, true), (false, true), (false, true), (false, false)] {
            b.record(fired, real);
        }
        let stats = [DetectionStats::from_confusion(&a), DetectionStats::from_confusion(&b)];
        let pooled = pool_detection(stats.iter());
        assert_eq!(
            pooled,
            BinaryConfusion {
                tp: a.tp + b.tp,
                fp: a.fp + b.fp,
                tn: a.tn + b.tn,
                fn_: a.fn_ + b.fn_
            },
            "pooled counts must be the exact integer sums"
        );
        assert_eq!(pooled.total(), a.total() + b.total());
    }

    #[test]
    fn online_ablation_frozen_matches_offline_and_policies_stay_capped() {
        use prom_core::pipeline::CalibrationPolicy;
        let cfg =
            tiny().scenario(CaseId::Devmap, ModelSpec { paper_name: "test", arch: Arch::Mlp });
        let cap = 40;
        let rows = run_online_ablation(
            &cfg,
            &[
                ("frozen", CalibrationPolicy::Frozen),
                ("grow", CalibrationPolicy::GrowUnbounded),
                ("reservoir", CalibrationPolicy::Reservoir { cap, seed: 1 }),
            ],
            64,
        );
        assert_eq!(rows.len(), 3);
        let frozen = &rows[0].1;
        let grow = &rows[1].1;
        let reservoir = &rows[2].1;

        // Frozen online == the plain offline evaluation, sample counts and
        // confusion alike.
        let fitted = fit_scenario(&cfg);
        let stream = deployment_samples(&fitted.model, &fitted.data.drift_test);
        let mispredicted = misprediction_flags(&fitted.data.drift_test, &stream);
        let offline = evaluate_detector(&fitted.prom, &stream, &mispredicted);
        assert_eq!(frozen.detection.confusion(), offline.confusion());
        assert_eq!(frozen.absorbed, 0);

        // Growing policies actually absorb, and the reservoir stays capped.
        assert!(grow.absorbed > 0, "drift stream must produce relabels");
        let base = fitted.records.len();
        assert_eq!(grow.calibration_size, Some(base + grow.absorbed));
        let reservoir_size = reservoir.calibration_size.expect("Prom exposes its size");
        assert!(
            reservoir_size <= base + cap,
            "reservoir must cap online growth: {reservoir_size} > {base} + {cap}"
        );
    }

    #[test]
    fn summary_pools_detection_counts() {
        let cfg =
            tiny().scenario(CaseId::Coarsening, ModelSpec { paper_name: "test", arch: Arch::Mlp });
        let r = run_scenario(&cfg);
        let s = summarize(&[r]);
        assert!((0.0..=1.0).contains(&s.accuracy));
        assert!(s.perf_training.is_finite());
    }
}
