//! `online-recalibrate`: one closed-loop caller pushes a drifting stream
//! through `DeploymentPipeline::online` — credibility-ranked relabel
//! selection through the rich per-expert path, a 1024-record reservoir,
//! sliding-window base eviction, and a ground-truth oracle answering from
//! the stream's labels.
//!
//! It is the only workload that writes calibration state (absorb, replace
//! and evict in the scoring kernel) beside the reads; the calibration set
//! grows from 256 base records to about 1.1k during each episode. The
//! loop runs whole episodes — a fresh detector over the same seeded
//! stream — so every episode does identical work and must report the
//! same digest.

use std::time::Instant;

use prom_core::detector::Truth;
use prom_core::pipeline::{
    BaseEviction, CalibrationPolicy, DeploymentPipeline, PipelineConfig, SelectionPolicy,
    WindowReport,
};
use prom_core::PromClassifier;

use crate::alloc::allocations;
use crate::closed::{check_tiling, pipeline_figures, push_all, report, PushRecorder};
use crate::fixtures::{drift_case, picks_from, DriftCase, DriftShape};
use crate::layers::{fold_picks, probe, FoldPolicy, ProbeInput};
use crate::pipeline_layer;
use crate::speed::HostSpeed;
use crate::trace::Tracer;
use crate::util::{ratio, Digest, Metric, Outcome, SplitMix};

const WINDOW: usize = 256;
/// One shard: see `bulk::SHARDS`.
const SHARDS: usize = 1;
const CAP: usize = 1024;
const EVICTION: BaseEviction = BaseEviction::SlidingWindow { per_absorb: 1, min_base: 64 };
/// Samples per episode: 512 windows, four recurring drift bursts.
const EPISODE: usize = 512 * WINDOW;
const SHAPE: DriftShape = DriftShape {
    dim: 16,
    per_class: 32,
    len: EPISODE,
    period: EPISODE / 4,
    magnitude: 4.0,
    tau: 35.0,
};
const SETUP_REPS: usize = 9;
/// Judged samples per second this workload sustains on a 2-vCPU Xeon
/// host; sizes the work of a run to `--seconds`.
const NOMINAL_RATE: f64 = 60_000.0;
const PROBE_WINDOWS: usize = 32;

fn config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        window: WINDOW,
        shards: SHARDS,
        selection: SelectionPolicy::CredibilityRank,
        policy: CalibrationPolicy::Reservoir { cap: CAP, seed },
        eviction: EVICTION,
        ..PipelineConfig::default()
    }
}

struct Drive {
    rec: PushRecorder,
    /// The first episode's reports.
    first: Vec<WindowReport>,
    allocs: u64,
}

/// Runs `episodes` whole episodes.
fn drive(
    case: &DriftCase,
    seed: u64,
    episodes: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Drive {
    let samples = &case.stream.samples;
    let labels = &case.stream.labels;
    let mut rec = PushRecorder::new();
    let mut first = Vec::new();
    let mut first_digest = 0;
    let allocs_before = allocations();
    for episode in 0..episodes {
        let mut detector = PromClassifier::new(case.records.clone(), case.config.clone())
            .expect("fixture records are valid");
        let mut pipeline = DeploymentPipeline::online(&mut detector, config(seed), |i, _| {
            Some(Truth::Label(labels[i]))
        });
        tracer.enter("online.episode");
        let reports = push_all(&mut pipeline, samples, true, &mut rec, tracer);
        tracer.exit();
        drop(pipeline);
        check_tiling(&reports, 0, WINDOW, out);
        out.check(
            reports.iter().map(|r| r.judgements.len()).sum::<usize>() == samples.len(),
            || format!("episode {episode} judged a different number of samples than it pushed"),
        );
        let mut digest = Digest::default();
        reports.iter().for_each(|r| digest.report(r));
        if episode == 0 {
            first_digest = digest.finish();
            first = reports;
        } else {
            out.check(digest.finish() == first_digest, || {
                format!("same-seed episode {episode} produced a different report digest")
            });
        }
    }
    Drive { rec, first, allocs: allocations() - allocs_before }
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Set-up times at the reference host speed (see `speed`).
    let mut host = HostSpeed::new();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        let speed = host.factor();
        let t = Instant::now();
        let case = drift_case(&SHAPE, seed);
        let mut detector = PromClassifier::new(case.records.clone(), case.config.clone())
            .expect("fixture records are valid");
        drop(DeploymentPipeline::online(&mut detector, config(seed), |_, _| None));
        setup.push(t.elapsed().as_secs_f64() * speed);
        fixture = Some(case);
    }
    let case = fixture.expect("at least one set-up");

    // Warm-up, untimed: the first eight windows of an episode.
    let mut detector = PromClassifier::new(case.records.clone(), case.config.clone())
        .expect("fixture records are valid");
    let labels = &case.stream.labels;
    let mut warm = DeploymentPipeline::online(&mut detector, config(seed), |i, _| {
        Some(Truth::Label(labels[i]))
    });
    warm.extend(case.stream.samples[..8 * WINDOW].iter().cloned());
    drop(warm);

    let traced = tracer.on();
    // A fixed amount of work sized to `seconds` at the nominal rate; a
    // traced run splits its time between an untraced and a traced drive
    // and the probes.
    let episodes = (seconds * NOMINAL_RATE / EPISODE as f64).round().max(1.0) as usize;
    let episodes = if traced { episodes.div_ceil(3) } else { episodes };
    let run = drive(&case, seed, episodes, &mut Tracer::new(false), &mut out);
    out.attempted = run.rec.judged;

    // Replaying the first episode's picks through the same reservoir and
    // eviction rules must rebuild the calibration set the pipeline ended
    // with.
    let picks = picks_from(
        run.first.iter().flat_map(|r| r.relabel.iter().copied()),
        &case.stream.samples,
        &case.stream.labels,
    );
    let policy = FoldPolicy { cap: CAP, seed, eviction: EVICTION };
    let fold = fold_picks(&case.records, &case.config, &picks, &policy, &mut Tracer::new(false));
    let final_size = run.first.last().and_then(|r| r.calibration_size).unwrap_or(0);
    out.check(fold.detector.calibration_len() == final_size, || {
        format!(
            "replayed fold ends with {} calibration records, the pipeline with {final_size}",
            fold.detector.calibration_len()
        )
    });

    report(&mut out, &setup, &run.rec, &case, &run.first, WINDOW);
    let selected: usize = run.first.iter().map(|r| r.relabel.len()).sum();
    let absorbed: usize = run.first.iter().map(|r| r.absorbed).sum();
    let replaced: usize = run.first.iter().map(|r| r.replaced).sum();
    out.extra.extend([
        Metric { name: "pipeline.absorbed", value: absorbed as f64, unit: "count" },
        Metric { name: "pipeline.replaced", value: replaced as f64, unit: "count" },
        Metric {
            name: "pipeline.absorb_ratio",
            value: ratio(absorbed as f64, selected as f64),
            unit: "ratio",
        },
    ]);

    if traced {
        let traced_run = drive(&case, seed, episodes, tracer, &mut out);
        let figures =
            pipeline_figures(&traced_run.rec, &run.rec, run.allocs, &run.first, final_size);
        pipeline_layer(&mut out, &figures);
        let mut rng = SplitMix::new(seed);
        let windows = (0..PROBE_WINDOWS)
            .map(|_| {
                let k = rng.below(EPISODE / WINDOW);
                &case.stream.samples[k * WINDOW..(k + 1) * WINDOW]
            })
            .collect();
        let input = ProbeInput {
            detector: &fold.detector,
            records: &case.records,
            windows,
            picks: &picks,
            fold: policy,
        };
        probe(&input, tracer, &mut out);
    }
    out
}
