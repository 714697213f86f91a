//! Deployment-pipeline throughput benchmarks: `ShardPool` judging vs
//! sequential `judge_batch` on a 100k-sample stream (the heavy-traffic
//! scale of the ROADMAP north star). The parallel and sequential paths
//! return bit-identical judgements (`tests/batch_equivalence.rs`); the
//! delta measured here is pure wall-clock throughput.

use criterion::{criterion_group, criterion_main, Criterion};

use prom_core::calibration::CalibrationRecord;
use prom_core::committee::PromConfig;
use prom_core::detector::{DriftDetector, Sample};
use prom_core::pipeline::{available_shards, DeploymentPipeline, PipelineConfig};
use prom_core::pool::ShardPool;
use prom_core::predictor::PromClassifier;
use prom_ml::rng::{gaussian_with, rng_from_seed};
use rand::Rng;

const STREAM_LEN: usize = 100_000;
const N_CLASSES: usize = 4;
const DIM: usize = 8;

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

/// Sequential `judge_batch` vs sharded judging on the same 100k stream:
/// the acceptance gate of PR 2 is parallel beating sequential on ≥2 cores.
fn bench_par_vs_seq(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_vs_seq");
    group.sample_size(10);
    let prom = PromClassifier::new(calibration(256), PromConfig::default()).unwrap();
    let det: &dyn DriftDetector = &prom;
    let samples = stream(STREAM_LEN);

    group.bench_function("sequential_100k", |b| {
        b.iter(|| {
            let judgements = det.judge_batch(&samples);
            std::hint::black_box(judgements.iter().filter(|j| !j.accepted).count())
        })
    });
    let mut shard_counts = vec![2];
    if available_shards() > 2 {
        shard_counts.push(available_shards());
    }
    for shards in shard_counts {
        let pool = ShardPool::new(shards);
        group.bench_function(format!("sharded_{shards}_100k"), |b| {
            b.iter(|| {
                let judgements = pool.judge(det, &samples);
                std::hint::black_box(judgements.iter().filter(|j| !j.accepted).count())
            })
        });
    }
    group.finish();
}

/// The shard executor's per-window cost: the 100k stream judged window by
/// window through one `available_shards()`-way pool, at windows from 64
/// to 8192 samples, beside one sequential `judge_batch` over the stream.
/// Every window spawns its scoped threads afresh, so the small windows
/// show what that costs (`tests/pipeline_equivalence.rs` proves the
/// results bit-identical).
fn bench_pool_windows(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_windows");
    group.sample_size(10);
    let prom = PromClassifier::new(calibration(256), PromConfig::default()).unwrap();
    let det: &dyn DriftDetector = &prom;
    let samples = stream(STREAM_LEN);

    group.bench_function("sequential_100k", |b| {
        b.iter(|| {
            let judgements = det.judge_batch(&samples);
            std::hint::black_box(judgements.iter().filter(|j| !j.accepted).count())
        })
    });
    let pool = ShardPool::new(available_shards());
    for window in [64, 256, 1024, 8192] {
        group.bench_function(format!("pool_{window}_100k"), |b| {
            b.iter(|| {
                let mut rejected = 0usize;
                for chunk in samples.chunks(window) {
                    let judgements = pool.judge(det, chunk);
                    rejected += judgements.iter().filter(|j| !j.accepted).count();
                }
                std::hint::black_box(rejected)
            })
        });
    }
    group.finish();
}

/// The full streaming front-end at scale: windowed push/flush over the
/// 100k stream, including per-window relabel selection and report
/// assembly — what a serving loop actually pays per window.
fn bench_stream_100k(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_100k");
    group.sample_size(10);
    let prom = PromClassifier::new(calibration(256), PromConfig::default()).unwrap();
    let samples = stream(STREAM_LEN);

    group.bench_function("windowed_pipeline", |b| {
        b.iter(|| {
            let mut pipeline = DeploymentPipeline::new(
                &prom,
                PipelineConfig { window: 8192, ..Default::default() },
            );
            let mut rejected = 0usize;
            for report in pipeline.extend(samples.iter().cloned()) {
                rejected += report.flagged.len();
            }
            if let Some(report) = pipeline.flush() {
                rejected += report.flagged.len();
            }
            std::hint::black_box(rejected)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_par_vs_seq, bench_pool_windows, bench_stream_100k);
criterion_main!(benches);
