//! `bulk-judge`: one closed-loop caller pushes a drifting stream through a
//! frozen one-shard `DeploymentPipeline` with 1024-sample windows.
//!
//! The calibration set (8 classes × dim 64 × 512 per class = 4096
//! records) is above `min_full_size`, so every judgement runs the Eq. 1
//! partition: almost all time is in `scoring` and `pool`, while serving
//! and the relabel fold are bypassed.

use std::time::Instant;

use prom_core::pipeline::{DeploymentPipeline, PipelineConfig, WindowReport};
use prom_core::{PromClassifier, ShardPool};

use crate::alloc::allocations;
use crate::closed::{check_tiling, pipeline_figures, push_all, report, PushRecorder};
use crate::fixtures::{drift_case, picks_from, DriftCase, DriftShape};
use crate::layers::{probe, FoldPolicy, ProbeInput};
use crate::pipeline_layer;
use crate::speed::HostSpeed;
use crate::trace::Tracer;
use crate::util::{Digest, Outcome, SplitMix};

const SHAPE: DriftShape = DriftShape {
    dim: 64,
    per_class: 512,
    len: 16 * WINDOW,
    period: 8 * WINDOW,
    magnitude: 6.0,
    tau: 50.0,
};
const WINDOW: usize = 1024;
/// One shard, judging on the caller thread: on a two-vCPU host the
/// speed-up of two shard workers varies from run to run (1.15× to 1.85×
/// measured on the same inputs), which no bound can absorb; the pool is
/// measured instead by the traced run's two-worker replica.
const SHARDS: usize = 1;
const SETUP_REPS: usize = 9;
/// Judged samples per second this workload sustains on a 2-vCPU Xeon
/// host; sizes the work of a run to `--seconds`.
const NOMINAL_RATE: f64 = 8_000.0;
/// Windows re-judged on a two-worker pool as the pooled-judging check.
const CHECK_WINDOWS: usize = 3;
/// Windows each per-layer probe judges.
const PROBE_WINDOWS: usize = 4;

fn config() -> PipelineConfig {
    PipelineConfig { window: WINDOW, shards: SHARDS, ..PipelineConfig::default() }
}

/// One closed-loop run: `passes` full passes over the stream.
struct Drive {
    rec: PushRecorder,
    /// The first pass's reports (global indices = stream positions).
    first: Vec<WindowReport>,
    allocs: u64,
}

fn drive(
    prom: &PromClassifier,
    case: &DriftCase,
    passes: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Drive {
    let samples = &case.stream.samples;
    let mut pipeline = DeploymentPipeline::new(prom, config());
    let mut rec = PushRecorder::new();
    let mut first: Vec<WindowReport> = Vec::new();
    let mut first_digests: Vec<u64> = Vec::new();
    let allocs_before = allocations();
    let mut start = 0;
    for pass in 0..passes {
        tracer.enter("bulk.pass");
        let reports = push_all(&mut pipeline, samples, false, &mut rec, tracer);
        tracer.exit();
        start = check_tiling(&reports, start, WINDOW, out);
        for (k, r) in reports.iter().enumerate() {
            let digest = content_digest(r);
            if pass == 0 {
                first_digests.push(digest);
            } else {
                out.check(digest == first_digests[k], || {
                    format!("pass {pass} window {k} judged differently from pass 0")
                });
            }
        }
        if pass == 0 {
            first = reports;
        }
    }
    out.check(pipeline.flush().is_none(), || "a partial window was left buffered".into());
    Drive { rec, first, allocs: allocations() - allocs_before }
}

/// Digest of a window's contents relative to its start, so the same
/// window position compares equal across passes.
fn content_digest(r: &WindowReport) -> u64 {
    let mut d = Digest::default();
    for j in &r.judgements {
        d.word(u64::from(j.accepted));
        d.word(j.reject_votes as u64);
    }
    for &g in r.flagged.iter().chain(&r.relabel) {
        d.word((g - r.start) as u64);
    }
    d.finish()
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
        let prom = PromClassifier::new(case.records.clone(), case.config.clone())
            .expect("fixture records are valid");
        drop(DeploymentPipeline::new(&prom, config()));
        setup.push(t.elapsed().as_secs_f64() * speed);
        fixture = Some((case, prom));
    }
    let (case, prom) = fixture.expect("at least one set-up");

    // Warm-up, untimed: judge two windows.
    let mut warm = DeploymentPipeline::new(&prom, config());
    warm.extend(case.stream.samples[..2 * WINDOW].iter().cloned());
    drop(warm);

    let traced = tracer.on();
    // A fixed amount of work sized to `seconds` at the nominal rate; a
    // traced run splits its time between an untraced and a traced drive
    // and the probes.
    let passes = (seconds * NOMINAL_RATE / SHAPE.len as f64).round().max(1.0) as usize;
    let passes = if traced { passes.div_ceil(3) } else { passes };
    let run = drive(&prom, &case, passes, &mut Tracer::new(false), &mut out);
    out.attempted = run.rec.judged;

    // Judgements pooled over two shard workers must equal the pipeline's
    // sequential ones on sampled windows.
    let mut rng = SplitMix::new(seed);
    let pool = ShardPool::new(2);
    for _ in 0..CHECK_WINDOWS {
        let r = &run.first[rng.below(run.first.len())];
        let window = &case.stream.samples[r.start..r.start + r.judgements.len()];
        out.check(pool.judge(&prom, window) == r.judgements, || {
            format!("pooled window {} differs from sequential judge_batch", r.index)
        });
    }
    drop(pool);

    report(&mut out, &setup, &run.rec, &case, &run.first, WINDOW);

    if traced {
        let traced_run = drive(&prom, &case, passes, tracer, &mut out);
        let figures = pipeline_figures(
            &traced_run.rec,
            &run.rec,
            run.allocs,
            &run.first,
            prom.calibration_len(),
        );
        pipeline_layer(&mut out, &figures);
        let picks = picks_from(
            run.first.iter().flat_map(|r| r.relabel.iter().copied()),
            &case.stream.samples,
            &case.stream.labels,
        );
        let windows = (0..PROBE_WINDOWS)
            .map(|_| {
                let k = rng.below(SHAPE.len / WINDOW);
                &case.stream.samples[k * WINDOW..(k + 1) * WINDOW]
            })
            .collect();
        let input = ProbeInput {
            detector: &prom,
            records: &case.records,
            windows,
            picks: &picks,
            fold: FoldPolicy::half_of(picks.len(), seed, case.records.len()),
        };
        probe(&input, tracer, &mut out);
    }
    out
}
