//! Per-layer probes shared by every workload's traced run.
//!
//! Each probe does a fixed amount of work on the workload's own detector,
//! calibration set and stream, inside spans recorded around the
//! benchmark's calls into one layer's public functions:
//!
//! * `scoring` / `committee`: a replica [`ScoringKernel`] rebuilt from the
//!   detector's live records, driven stage by stage exactly as
//!   `PromClassifier::judge_batch_scratch` drives its own kernel (blocks of
//!   eight queries, one Eq. 1 selection and one p-value pass per expert per
//!   sample, then the committee vote). The replica's judgements must equal
//!   the detector's, so the stage times describe the real computation.
//! * `predictor`: the detector's own batched judge, plus its flattening.
//! * `incremental`: `select_for_relabeling` over each judged window.
//! * `naive_cp`: the cold detector fitted on the same calibration records.
//! * `calibration`: the run's relabel picks folded into a fresh copy of the
//!   detector through the online pipeline's reservoir and eviction rules.
//! * `pool`: a two-worker `ShardPool` mapping the detector over the windows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use prom_baselines::NaiveCp;
use prom_core::calibration::{
    CalibrationRecord, ReservoirCalibration, ReservoirDecision, SelectionConfig,
};
use prom_core::committee::{committee_accepts, verdict_from_p_values, PromJudgement};
use prom_core::detector::{DriftDetector, Judgement, Relabeled, Sample};
use prom_core::incremental::{select_for_relabeling, RelabelBudget};
use prom_core::nonconformity::default_committee;
use prom_core::pipeline::BaseEviction;
use prom_core::scoring::{JudgeScratch, ScoringKernel};
use prom_core::{PromClassifier, PromConfig, ShardPool};

use crate::alloc::allocations;
use crate::trace::Tracer;
use crate::util::{ns, ratio, Metric, Outcome};

/// Queries per blocked distance pass — the value `PromClassifier` uses.
const QUERY_BLOCK: usize = 8;

/// Workers of the replica pool: one per vCPU of the two-vCPU reference
/// host.
const POOL_WORKERS: usize = 2;

/// How the calibration replay maintains the reservoir.
pub struct FoldPolicy {
    pub cap: usize,
    pub seed: u64,
    pub eviction: BaseEviction,
}

impl FoldPolicy {
    /// The replay rule of a frozen workload, whose pipeline never folds:
    /// a reservoir holding half the picks (at most 1024), so the replay
    /// both appends and replaces, and a base that slides down to half its
    /// size.
    pub fn half_of(picks: usize, seed: u64, base: usize) -> Self {
        Self {
            cap: (picks / 2).clamp(1, 1024),
            seed,
            eviction: BaseEviction::SlidingWindow { per_absorb: 1, min_base: base / 2 },
        }
    }
}

/// Result of folding picks into a detector copy.
pub struct Fold {
    pub detector: PromClassifier,
    pub absorbs: (u64, f64),
    pub replaces: (u64, f64),
    pub evicts: (u64, f64),
}

/// Folds `picks` into a detector built from `records`, exactly as an
/// online pipeline with a `Reservoir` policy and `policy.eviction` does,
/// timing each absorb, replace and eviction (count, total ns).
pub fn fold_picks(
    records: &[CalibrationRecord],
    config: &PromConfig,
    picks: &[(Sample, usize)],
    policy: &FoldPolicy,
    tracer: &mut Tracer,
) -> Fold {
    let mut detector =
        PromClassifier::new(records.to_vec(), config.clone()).expect("fixture records are valid");
    let mut reservoir = ReservoirCalibration::new(policy.cap, policy.seed);
    let (mut absorbs, mut replaces, mut evicts) = ((0u64, 0.0), (0u64, 0.0), (0u64, 0.0));
    tracer.enter("calibration.fold");
    for (sample, label) in picks {
        let item = Relabeled::labeled(sample.clone(), *label);
        if !detector.can_absorb(&item) {
            continue;
        }
        let folded = match reservoir.offer() {
            decision @ ReservoirDecision::Appended(_) => {
                let t = Instant::now();
                let ok = detector.absorb_relabeled(std::slice::from_ref(&item)) == 1;
                let end = Instant::now();
                tracer.record("calibration.absorb", t, end);
                absorbs.0 += 1;
                absorbs.1 += ns(end - t);
                if !ok {
                    reservoir.retract(decision);
                }
                ok
            }
            decision @ ReservoirDecision::Replaced(slot) => {
                let t = Instant::now();
                let ok = detector.replace_online_slot(slot, &item);
                let end = Instant::now();
                tracer.record("calibration.replace", t, end);
                replaces.0 += 1;
                replaces.1 += ns(end - t);
                if !ok {
                    reservoir.retract(decision);
                }
                ok
            }
            ReservoirDecision::Skipped => false,
        };
        if let (true, BaseEviction::SlidingWindow { per_absorb, min_base }) =
            (folded, policy.eviction)
        {
            for _ in 0..per_absorb {
                if detector.base_len().is_none_or(|base| base <= min_base) {
                    break;
                }
                let t = Instant::now();
                let ok = detector.evict_oldest_base();
                let end = Instant::now();
                tracer.record("calibration.evict", t, end);
                evicts.0 += 1;
                evicts.1 += ns(end - t);
                if !ok {
                    break;
                }
            }
        }
    }
    tracer.exit();
    Fold { detector, absorbs, replaces, evicts }
}

/// Everything the probes run on.
pub struct ProbeInput<'a> {
    /// The detector whose layers are measured.
    pub detector: &'a PromClassifier,
    /// Calibration records the cold detector and the fold start from.
    pub records: &'a [CalibrationRecord],
    /// The fixed windows every probe judges.
    pub windows: Vec<&'a [Sample]>,
    /// The run's relabel picks with their ground-truth labels.
    pub picks: &'a [(Sample, usize)],
    /// Reservoir and eviction rules of the fold replay.
    pub fold: FoldPolicy,
}

/// Runs every probe and appends its per-layer metrics to `out`.
pub fn probe(input: &ProbeInput<'_>, tracer: &mut Tracer, out: &mut Outcome) {
    let detector = input.detector;
    let config = detector.config().clone();
    let samples: usize = input.windows.iter().map(|w| w.len()).sum();
    let per_sample = |total_ns: f64| ratio(total_ns, samples as f64);

    // predictor: the detector's own batched judge and its flattening,
    // alternating window by window with the stage-by-stage replica
    // (scoring + committee) so both see the same machine conditions.
    tracer.enter("predictor.probe");
    let mut replica = Replica::new(detector, &config);
    let mut scratch = JudgeScratch::new();
    let (mut judge_ns, mut flatten_ns, mut judge_allocs) = (0.0, 0.0, 0);
    let mut mismatches = 0;
    let mut rich: Vec<Vec<PromJudgement>> = Vec::with_capacity(input.windows.len());
    for window in &input.windows {
        let allocs_before = allocations();
        let t = Instant::now();
        let judged = detector.judge_batch_scratch(window, &config, &mut scratch);
        let end = Instant::now();
        judge_allocs += allocations() - allocs_before;
        tracer.record("predictor.judge_batch", t, end);
        judge_ns += ns(end - t);

        let t = Instant::now();
        let flat: Vec<Judgement> = judged.iter().map(Judgement::from).collect();
        let end = Instant::now();
        std::hint::black_box(flat);
        tracer.record("committee.flatten", t, end);
        flatten_ns += ns(end - t);

        tracer.enter("scoring.replica");
        let replayed = replica.judge(window, tracer);
        tracer.exit();
        mismatches += replayed.iter().zip(&judged).filter(|(a, b)| a != b).count();
        rich.push(judged);
    }
    tracer.exit();
    out.check(mismatches == 0, || {
        format!("replica scoring kernel disagrees with the detector on {mismatches} samples")
    });
    let stages = &replica.stages;

    // incremental: relabel selection over each judged window.
    tracer.enter("incremental.probe");
    let mut select_ns = 0.0;
    for judged in &rich {
        let t = Instant::now();
        let picked = select_for_relabeling(judged, RelabelBudget::default());
        let end = Instant::now();
        std::hint::black_box(picked);
        tracer.record("incremental.select_for_relabeling", t, end);
        select_ns += ns(end - t);
    }
    tracer.exit();

    // naive_cp: the cold detector on the same records and windows.
    tracer.enter("naive_cp.probe");
    let cold = NaiveCp::new(input.records, config.epsilon);
    let mut cold_ns = 0.0;
    for window in &input.windows {
        let t = Instant::now();
        let judged = cold.judge_batch(window);
        let end = Instant::now();
        std::hint::black_box(judged);
        tracer.record("naive_cp.judge_batch", t, end);
        cold_ns += ns(end - t);
    }
    tracer.exit();

    // calibration: the run's picks folded into a fresh copy.
    let fold = fold_picks(input.records, &config, input.picks, &input.fold, tracer);

    // pool: a replica ShardPool mapping the detector over the windows.
    tracer.enter("pool.probe");
    let pool = ShardPool::new(POOL_WORKERS);
    let busy_ns = AtomicU64::new(0);
    let jobs = AtomicU64::new(0);
    let mut map_ns = 0.0;
    for window in &input.windows {
        let t = Instant::now();
        let judged = pool.map(window, |shard, scratch| {
            let start = Instant::now();
            let out = detector.judge_batch_scratch(shard, &config, scratch);
            let busy = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            busy_ns.fetch_add(busy, Ordering::Relaxed);
            jobs.fetch_add(1, Ordering::Relaxed);
            out
        });
        let end = Instant::now();
        std::hint::black_box(judged);
        tracer.record("pool.map", t, end);
        map_ns += ns(end - t);
    }
    drop(pool);
    tracer.exit();

    let stage_sum = stages.distance_ns + stages.select_ns + stages.pvalue_ns + stages.vote_ns;
    let m = &mut out.per_layer;
    m.push(Metric {
        name: "scoring.distance_ns_per_sample",
        value: per_sample(stages.distance_ns),
        unit: "ns",
    });
    m.push(Metric {
        name: "scoring.select_ns_per_sample",
        value: per_sample(stages.select_ns),
        unit: "ns",
    });
    m.push(Metric {
        name: "scoring.pvalue_ns_per_sample",
        value: per_sample(stages.pvalue_ns),
        unit: "ns",
    });
    m.push(Metric {
        name: "scoring.distances_per_sample",
        value: stages.distances_per_sample,
        unit: "count",
    });
    m.push(Metric {
        name: "scoring.kept_per_sample",
        value: stages.kept_per_sample,
        unit: "count",
    });
    m.push(Metric {
        name: "committee.vote_ns_per_sample",
        value: per_sample(stages.vote_ns),
        unit: "ns",
    });
    m.push(Metric {
        name: "committee.flatten_ns_per_sample",
        value: per_sample(flatten_ns),
        unit: "ns",
    });
    m.push(Metric {
        name: "predictor.judge_ns_per_sample",
        value: per_sample(judge_ns),
        unit: "ns",
    });
    m.push(Metric {
        name: "predictor.unattributed_ns_per_sample",
        value: per_sample(judge_ns - stage_sum),
        unit: "ns",
    });
    m.push(Metric {
        name: "predictor.allocs_per_sample",
        value: ratio(judge_allocs as f64, samples as f64),
        unit: "count",
    });
    m.push(Metric {
        name: "incremental.select_ns_per_window",
        value: ratio(select_ns, rich.len() as f64),
        unit: "ns",
    });
    m.push(Metric { name: "naive_cp.judge_ns_per_sample", value: per_sample(cold_ns), unit: "ns" });
    let per_op = |(count, total): (u64, f64)| ratio(total, count as f64);
    m.push(Metric {
        name: "calibration.absorb_ns_per_record",
        value: per_op(fold.absorbs),
        unit: "ns",
    });
    m.push(Metric {
        name: "calibration.replace_ns_per_record",
        value: per_op(fold.replaces),
        unit: "ns",
    });
    m.push(Metric {
        name: "calibration.evict_ns_per_record",
        value: per_op(fold.evicts),
        unit: "ns",
    });
    m.push(Metric { name: "pool.map_ns_per_sample", value: per_sample(map_ns), unit: "ns" });
    m.push(Metric {
        name: "pool.busy_ratio",
        value: ratio(busy_ns.into_inner() as f64, map_ns * POOL_WORKERS as f64),
        unit: "ratio",
    });
    m.push(Metric { name: "pool.jobs", value: jobs.into_inner() as f64, unit: "count" });
    out.check(fold.absorbs.0 > 0 && fold.replaces.0 > 0 && fold.evicts.0 > 0, || {
        format!(
            "calibration replay must absorb, replace and evict (got {} / {} / {})",
            fold.absorbs.0, fold.replaces.0, fold.evicts.0
        )
    });
}

/// Stage totals of the replica kernel.
#[derive(Default)]
struct Stages {
    distance_ns: f64,
    select_ns: f64,
    pvalue_ns: f64,
    vote_ns: f64,
    distances_per_sample: f64,
    kept_per_sample: f64,
}

/// A replica of a detector's scoring kernel, driven stage by stage.
struct Replica<'a> {
    kernel: ScoringKernel,
    experts: Vec<Box<dyn prom_core::nonconformity::Nonconformity>>,
    config: &'a PromConfig,
    n_classes: usize,
    pruned: bool,
    scratch: JudgeScratch,
    p_values: Vec<Vec<f64>>,
    stages: Stages,
}

impl<'a> Replica<'a> {
    /// Rebuilds `detector`'s kernel from its live records, in order.
    fn new(detector: &PromClassifier, config: &'a PromConfig) -> Self {
        let records = detector.records();
        let experts = default_committee();
        let n_classes = detector.n_classes();
        let kernel = ScoringKernel::new(
            records.iter().map(|r| r.embedding.clone()).collect(),
            records.iter().map(|r| r.label).collect(),
            n_classes,
            experts
                .iter()
                .map(|e| records.iter().map(|r| e.score(&r.probs, r.label)).collect())
                .collect(),
            SelectionConfig {
                fraction: config.selection_fraction,
                min_full_size: config.min_full_size,
                tau: config.tau,
            },
        );
        let n = kernel.n_records();
        let keep = if n < config.min_full_size {
            n
        } else {
            ((n as f64 * config.selection_fraction).round() as usize).clamp(1, n)
        };
        let pruned = kernel.uses_pruned_path();
        let stages = Stages {
            distances_per_sample: if pruned { 0.0 } else { n as f64 },
            kept_per_sample: keep as f64,
            ..Stages::default()
        };
        let p_values = vec![Vec::new(); experts.len()];
        Self {
            kernel,
            experts,
            config,
            n_classes,
            pruned,
            scratch: JudgeScratch::new(),
            p_values,
            stages,
        }
    }

    /// Judges one window, timing the distance pass, the Eq. 1 selection,
    /// the per-expert p-values and the committee vote separately.
    fn judge(&mut self, window: &[Sample], tracer: &mut Tracer) -> Vec<PromJudgement> {
        let Self { kernel, experts, config, n_classes, scratch, p_values, stages, .. } = self;
        let blocked = !self.pruned && window.len() > 1;
        let mut judged = Vec::with_capacity(window.len());
        for chunk in window.chunks(QUERY_BLOCK) {
            if blocked {
                let queries: Vec<&[f64]> = chunk.iter().map(|s| s.embedding.as_slice()).collect();
                let t = Instant::now();
                kernel.distance_block(&queries, scratch);
                let end = Instant::now();
                tracer.record("scoring.distance_block", t, end);
                stages.distance_ns += ns(end - t);
            }
            for (j, s) in chunk.iter().enumerate() {
                let t0 = Instant::now();
                if blocked {
                    kernel.select_from_block(j, &s.embedding, scratch);
                } else {
                    kernel.select(&s.embedding, scratch);
                }
                let t1 = Instant::now();
                for (e, expert) in experts.iter().enumerate() {
                    scratch.test_scores.clear();
                    scratch
                        .test_scores
                        .extend((0..*n_classes).map(|y| expert.score(&s.outputs, y)));
                    kernel.p_values_into(e, scratch);
                    p_values[e].clear();
                    p_values[e].extend_from_slice(&scratch.p_values);
                }
                let t2 = Instant::now();
                let predicted = prom_ml::matrix::argmax(&s.outputs);
                let verdicts: Vec<_> = experts
                    .iter()
                    .zip(p_values.iter())
                    .map(|(expert, ps)| verdict_from_p_values(expert.name(), ps, predicted, config))
                    .collect();
                let (accepted, reject_votes) = committee_accepts(&verdicts);
                let t3 = Instant::now();
                tracer.record("scoring.select", t0, t1);
                tracer.record("scoring.p_values", t1, t2);
                tracer.record("committee.vote", t2, t3);
                stages.select_ns += ns(t1 - t0);
                stages.pvalue_ns += ns(t2 - t1);
                stages.vote_ns += ns(t3 - t2);
                judged.push(PromJudgement { accepted, reject_votes, verdicts });
            }
        }
        judged
    }
}
