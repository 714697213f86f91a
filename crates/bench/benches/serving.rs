//! Serving-front-end benchmarks: the concurrent admission path (4
//! producer threads racing a 100k stream through a bounded queue into
//! the pipeline-driving collator) against the synchronous push/flush
//! loop over the same stream. The two produce bit-identical reports for
//! any given admission order (`tests/serving_equivalence.rs`); the delta
//! measured here is the cost of the queue hop and the win of overlapping
//! production with judging.
//!
//! Besides the throughput numbers, one instrumented serve run publishes
//! the per-sample judgement-latency percentiles (p50/p99/p999 of the
//! serving histogram) as scalar gate metrics — that is what arms the
//! perf gate's tail-latency check for the serving path.

use criterion::{criterion_group, criterion_main, emit_gate_metric, Criterion};

use prom_core::calibration::CalibrationRecord;
use prom_core::committee::PromConfig;
use prom_core::detector::Sample;
use prom_core::pipeline::{available_shards, DeploymentPipeline, PipelineConfig};
use prom_core::predictor::PromClassifier;
use prom_core::serving::{ServingConfig, ServingFrontEnd, ServingHandle};
use prom_ml::rng::{gaussian_with, rng_from_seed};
use rand::Rng;

const STREAM_LEN: usize = 100_000;
const PRODUCERS: usize = 4;
const WINDOW: usize = 4096;
const N_CLASSES: usize = 4;
const DIM: usize = 8;

fn calibration(n: usize) -> Vec<CalibrationRecord> {
    let mut rng = rng_from_seed(71);
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
    let mut rng = rng_from_seed(73);
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

/// The pipeline every variant runs behind: full shard fan-out, each
/// window judged synchronously by the push that fills it.
fn pipeline_config() -> PipelineConfig {
    PipelineConfig { window: WINDOW, shards: available_shards(), ..Default::default() }
}

/// Races the stream through the handle in `PRODUCERS` contiguous chunks.
fn produce(handle: ServingHandle<'_>, samples: &[Sample]) {
    let chunk = samples.len().div_ceil(PRODUCERS);
    std::thread::scope(|s| {
        for part in samples.chunks(chunk) {
            let handle = handle.clone();
            s.spawn(move || {
                for sample in part {
                    handle.submit(sample.clone()).expect("collator alive");
                }
            });
        }
    });
}

/// Synchronous push/flush vs the 4-producer front-end on the same 100k
/// stream, then one instrumented run to publish the latency SLOs.
fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    let prom = PromClassifier::new(calibration(256), PromConfig::default()).unwrap();
    let samples = stream(STREAM_LEN);

    group.bench_function("sync_100k", |b| {
        b.iter(|| {
            let mut pipeline = DeploymentPipeline::new(&prom, pipeline_config());
            let mut flagged = 0usize;
            for report in pipeline.extend(samples.iter().cloned()) {
                flagged += report.flagged.len();
            }
            while let Some(report) = pipeline.flush() {
                flagged += report.flagged.len();
            }
            std::hint::black_box(flagged)
        })
    });

    let front = ServingFrontEnd::new(ServingConfig {
        pipeline: pipeline_config(),
        queue: 1024,
        record_admitted: false,
        metrics: None,
    });
    group.bench_function("4x100k", |b| {
        b.iter(|| {
            let ((), outcome) = front.serve(&prom, |handle| produce(handle, &samples));
            assert_eq!(outcome.judged, samples.len());
            std::hint::black_box(outcome.reports.len())
        })
    });
    group.finish();

    // One instrumented run outside the timing loop: per-sample judgement
    // latency (admission to window report) as gate scalars. These ids
    // join the medians in CRITERION_MEDIAN_JSONL, so a committed
    // baseline holds the serving tail to the same 25% tolerance as the
    // throughput numbers.
    let ((), outcome) = front.serve(&prom, |handle| produce(handle, &samples));
    let summary = outcome.latency.summary();
    emit_gate_metric("serving/4x100k/p50_ns", summary.p50_ns as f64);
    emit_gate_metric("serving/4x100k/p99_ns", summary.p99_ns as f64);
    emit_gate_metric("serving/4x100k/p999_ns", summary.p999_ns as f64);
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
