//! Multi-detector serving throughput: one `MultiPipeline` fanning a
//! 100k-sample stream out to N detectors on one shard pool, vs the only
//! previous way to compare N detectors in production shape — replaying
//! the stream through N independent single-detector pipelines. Per
//! detector the two produce bit-identical reports
//! (`tests/pipeline_equivalence.rs`); the delta measured here is the
//! N−1 redundant stream replays (ingest, window assembly, per-sample
//! clones) the fan-out eliminates, plus the better pool utilization of
//! interleaving heterogeneous detectors' jobs. In a real deployment the
//! replay would additionally re-pay the underlying model's forward pass
//! per detector, so the measured gap is a *lower bound* on the win.

use criterion::{criterion_group, criterion_main, Criterion};

use prom_baselines::tesseract::LabeledOutcome;
use prom_baselines::{NaiveCp, Tesseract};
use prom_core::calibration::CalibrationRecord;
use prom_core::committee::PromConfig;
use prom_core::detector::{DriftDetector, Sample};
use prom_core::pipeline::{DeploymentPipeline, MultiPipeline, PipelineConfig};
use prom_core::predictor::PromClassifier;
use prom_ml::rng::{gaussian_with, rng_from_seed};
use rand::Rng;

const STREAM_LEN: usize = 100_000;
const N_CLASSES: usize = 4;
const DIM: usize = 8;
const WINDOW: usize = 8192;

fn calibration(n: usize) -> Vec<CalibrationRecord> {
    let mut rng = rng_from_seed(41);
    (0..n)
        .map(|i| {
            let label = i % N_CLASSES;
            let embedding: Vec<f64> =
                (0..DIM).map(|d| gaussian_with(&mut rng, (label * d) as f64 * 0.2, 1.0)).collect();
            let conf = 0.5 + 0.45 * ((i * 13 % 17) as f64 / 17.0);
            let mut probs = vec![(1.0 - conf) / (N_CLASSES - 1) as f64; N_CLASSES];
            probs[label] = conf;
            CalibrationRecord::new(embedding, probs, label)
        })
        .collect()
}

fn stream(n: usize) -> Vec<Sample> {
    let mut rng = rng_from_seed(43);
    (0..n)
        .map(|i| {
            let label = i % N_CLASSES;
            let drifted = i % 5 == 0;
            let shift = if drifted { 30.0 } else { 0.0 };
            let embedding: Vec<f64> = (0..DIM)
                .map(|d| gaussian_with(&mut rng, (label * d) as f64 * 0.2 + shift, 1.2))
                .collect();
            let conf: f64 =
                if drifted { rng.gen_range(0.3..0.5) } else { rng.gen_range(0.5..0.95) };
            let mut probs = vec![(1.0 - conf) / (N_CLASSES - 1) as f64; N_CLASSES];
            probs[label] = conf;
            Sample::new(embedding, probs)
        })
        .collect()
}

/// N-detector fan-out vs N sequential stream replays, both windowed and
/// judging on a shard pool. The
/// acceptance gate for the fan-out is `fanout_3x` beating `replay_3x`.
fn bench_multi_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_pipeline");
    group.sample_size(10);

    let records = calibration(256);
    let samples = stream(STREAM_LEN);
    // Validation outcomes for TESSERACT's threshold tuning: design-time
    // shaped confidences with a ~20% error rate.
    let validation: Vec<LabeledOutcome> = samples[..512]
        .iter()
        .enumerate()
        .map(|(i, s)| LabeledOutcome { probs: s.outputs.clone(), correct: i % 5 != 0 })
        .collect();

    let prom = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
    let naive = NaiveCp::new(&records, 0.1);
    let tesseract = Tesseract::fit(&records, &validation, N_CLASSES);
    let detectors: Vec<&dyn DriftDetector> = vec![&prom, &naive, &tesseract];
    let config = PipelineConfig { window: WINDOW, ..Default::default() };

    // The pre-fan-out shape: comparing N detectors on one stream means N
    // full replays — each pipeline ingests (and clones) every sample
    // again and judges it on its own freshly spawned pool.
    group.bench_function("replay_3x_100k", |b| {
        b.iter(|| {
            let mut rejected = 0usize;
            for det in &detectors {
                let mut pipeline = DeploymentPipeline::new(*det, config);
                for report in pipeline.extend(samples.iter().cloned()) {
                    rejected += report.flagged.len();
                }
                while let Some(report) = pipeline.flush() {
                    rejected += report.flagged.len();
                }
            }
            std::hint::black_box(rejected)
        })
    });

    // The fan-out: one ingest pass, every window judged once per detector
    // as independent jobs on one shared pool.
    group.bench_function("fanout_3x_100k", |b| {
        b.iter(|| {
            let mut pipeline = MultiPipeline::new(detectors.clone(), config);
            let mut rejected = 0usize;
            for multi in pipeline.extend(samples.iter().cloned()) {
                rejected += multi.reports.iter().map(|r| r.flagged.len()).sum::<usize>();
            }
            while let Some(multi) = pipeline.flush() {
                rejected += multi.reports.iter().map(|r| r.flagged.len()).sum::<usize>();
            }
            std::hint::black_box(rejected)
        })
    });

    // Three Prom threshold variants as the detector set — the common
    // "compare ε settings in production shape" case, where every
    // registered detector wraps the SAME conformal kernel.
    let prom_configs: Vec<PromConfig> = [0.02, 0.1, 0.3]
        .iter()
        .map(|&eps| PromConfig { epsilon: eps, ..PromConfig::default() })
        .collect();
    let standalone: Vec<PromClassifier> = prom_configs
        .iter()
        .map(|c| PromClassifier::new(records.clone(), c.clone()).unwrap())
        .collect();

    // Independent fan-out: N standalone classifiers, so every sample pays
    // N subset selections and N p-value passes.
    group.bench_function("prom_fanout_3x_100k", |b| {
        b.iter(|| {
            let dets: Vec<&dyn DriftDetector> =
                standalone.iter().map(|d| d as &dyn DriftDetector).collect();
            let mut pipeline = MultiPipeline::new(dets, config);
            let mut rejected = 0usize;
            for multi in pipeline.extend(samples.iter().cloned()) {
                rejected += multi.reports.iter().map(|r| r.flagged.len()).sum::<usize>();
            }
            while let Some(multi) = pipeline.flush() {
                rejected += multi.reports.iter().map(|r| r.flagged.len()).sum::<usize>();
            }
            std::hint::black_box(rejected)
        })
    });

    // Fused fan-out (`MultiPipeline::fanout`): one subset selection and
    // one p-value pass per (sample, expert), re-thresholded N times —
    // bit-identical reports (`tests/kernel_equivalence.rs`) at roughly
    // 1/N the kernel work.
    group.bench_function("prom_fused_3x_100k", |b| {
        b.iter(|| {
            let mut pipeline = MultiPipeline::fanout(&prom, prom_configs.clone(), config).unwrap();
            let mut rejected = 0usize;
            for multi in pipeline.extend(samples.iter().cloned()) {
                rejected += multi.reports.iter().map(|r| r.flagged.len()).sum::<usize>();
            }
            while let Some(multi) = pipeline.flush() {
                rejected += multi.reports.iter().map(|r| r.flagged.len()).sum::<usize>();
            }
            std::hint::black_box(rejected)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_multi_pipeline);
criterion_main!(benches);
