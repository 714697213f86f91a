//! Property-based tests (proptest) on the core invariants of the
//! conformal-prediction machinery, the ML substrate, and the workload
//! generators.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use prom::core::calibration::{select_weighted_subset, SelectionConfig};
use prom::core::committee::confidence_score;
use prom::core::detector::{DriftDetector, Judgement, Relabeled, Sample, Truth};
use prom::core::incremental::RelabelBudget;
use prom::core::nonconformity::default_committee;
use prom::core::pipeline::{CalibrationPolicy, DeploymentPipeline, PipelineConfig};
use prom::core::pvalue::{p_value_for_label, ScoredSample};
use prom::ml::activations::softmax;
use prom::ml::cluster::KMeans;
use prom::ml::matrix::{argmax, l2_distance, Matrix};
use prom::ml::metrics::BinaryConfusion;

/// A random probability vector of 2..=8 classes.
fn probs_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..10.0, 2..=8)
        .prop_map(|raw| softmax(&raw.iter().map(|x| x.ln()).collect::<Vec<_>>()))
}

fn scored_samples() -> impl Strategy<Value = Vec<ScoredSample>> {
    proptest::collection::vec((0usize..4, 0.0f64..2.0), 1..60).prop_map(|v| {
        v.into_iter()
            .map(|(label, adjusted_score)| ScoredSample { label, adjusted_score })
            .collect()
    })
}

proptest! {
    /// Eq. 2 p-values are probabilities.
    #[test]
    fn p_values_are_in_unit_interval(
        samples in scored_samples(),
        label in 0usize..4,
        score in -1.0f64..3.0,
    ) {
        let p = p_value_for_label(&samples, label, score);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    /// Eq. 2 p-values never increase as the test sample gets stranger.
    #[test]
    fn p_values_are_monotone_in_strangeness(
        samples in scored_samples(),
        label in 0usize..4,
        a in 0.0f64..2.0,
        delta in 0.0f64..2.0,
    ) {
        let p_low = p_value_for_label(&samples, label, a);
        let p_high = p_value_for_label(&samples, label, a + delta);
        prop_assert!(p_high <= p_low + 1e-12);
    }

    /// Every nonconformity function scores the argmax label no higher than
    /// the least likely label.
    #[test]
    fn nonconformity_prefers_likely_labels(probs in probs_strategy()) {
        let best = argmax(&probs);
        let worst = probs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        for f in default_committee() {
            prop_assert!(
                f.score(&probs, best) <= f.score(&probs, worst) + 1e-12,
                "{} not monotone", f.name()
            );
        }
    }

    /// Selection weights are in (0, 1], decay with distance, and the subset
    /// honours the configured fraction.
    #[test]
    fn selection_weights_bounded_and_sorted(
        n in 2usize..300,
        fraction in 0.1f64..1.0,
        tau in 0.5f64..100.0,
    ) {
        let embeddings: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.37]).collect();
        let cfg = SelectionConfig { fraction, min_full_size: 50, tau };
        let sel = select_weighted_subset(&embeddings, &[0.0], &cfg);
        prop_assert!(!sel.is_empty());
        if n >= 50 {
            let expect = ((n as f64 * fraction).round() as usize).clamp(1, n);
            prop_assert_eq!(sel.len(), expect);
        } else {
            prop_assert_eq!(sel.len(), n);
        }
        for pair in sel.windows(2) {
            prop_assert!(pair[0].weight >= pair[1].weight);
        }
        prop_assert!(sel.iter().all(|s| s.weight > 0.0 && s.weight <= 1.0));
    }

    /// Confidence peaks at singleton prediction sets and decays with |set|.
    #[test]
    fn confidence_peaks_at_one(size in 0usize..12, c in 0.5f64..6.0) {
        let at_one = confidence_score(1, c);
        prop_assert!((at_one - 1.0).abs() < 1e-12);
        prop_assert!(confidence_score(size, c) <= at_one);
        if size >= 1 {
            prop_assert!(confidence_score(size + 1, c) <= confidence_score(size, c) + 1e-12);
        }
    }

    /// Matrix transpose round-trips and matmul agrees with its fused
    /// transpose variants.
    #[test]
    fn matrix_algebra_identities(
        rows in 1usize..6,
        cols in 1usize..6,
        inner in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = prom::ml::rng::rng_from_seed(seed);
        let a = prom::ml::rng::xavier_matrix(&mut rng, rows, inner);
        let b = prom::ml::rng::xavier_matrix(&mut rng, cols, inner);
        let direct = a.matmul_transpose_b(&b);
        let explicit = a.matmul(&b.transpose());
        for i in 0..rows {
            for j in 0..cols {
                prop_assert!((direct[(i, j)] - explicit[(i, j)]).abs() < 1e-9);
            }
        }
        let t: Matrix = a.transpose().transpose();
        prop_assert_eq!(t, a);
    }

    /// Softmax output is a probability distribution for any finite logits.
    #[test]
    fn softmax_is_distribution(logits in proptest::collection::vec(-50.0f64..50.0, 1..10)) {
        let p = softmax(&logits);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// K-means assignments always pick the nearest centroid.
    #[test]
    fn kmeans_assignment_consistency(
        n in 4usize..60,
        k in 1usize..6,
        seed in 0u64..500,
    ) {
        let mut rng = prom::ml::rng::rng_from_seed(seed);
        let points: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![
                prom::ml::rng::gaussian(&mut rng) * 3.0,
                prom::ml::rng::gaussian(&mut rng) * 3.0,
            ])
            .collect();
        let model = KMeans::fit(&points, k, seed);
        for p in &points {
            let a = model.assign(p);
            let d = l2_distance(&model.centroids()[a], p);
            for c in model.centroids() {
                prop_assert!(d <= l2_distance(c, p) + 1e-9);
            }
        }
    }

    /// Detection-metric identities: F1 is the harmonic mean; rates are
    /// complements.
    #[test]
    fn confusion_metric_identities(
        tp in 0usize..50, fp in 0usize..50, tn in 0usize..50, fn_ in 0usize..50,
    ) {
        let c = BinaryConfusion { tp, fp, tn, fn_ };
        if tp + fp > 0 && tp + fn_ > 0 && c.precision() + c.recall() > 0.0 {
            let f1 = 2.0 * c.precision() * c.recall() / (c.precision() + c.recall());
            prop_assert!((c.f1() - f1).abs() < 1e-12);
        }
        if fn_ + tp > 0 {
            prop_assert!((c.recall() + c.false_negative_rate() - 1.0).abs() < 1e-12);
        }
        prop_assert!(c.accuracy() <= 1.0);
    }
}

/// A cheap deterministic detector for pipeline accounting properties:
/// rejects when the first output falls below 0.55, with a vote count
/// derived from the embedding so relabel ranking has structure.
struct ThresholdCommittee;

impl DriftDetector for ThresholdCommittee {
    fn name(&self) -> &'static str {
        "threshold-committee"
    }

    fn judge_one(&self, embedding: &[f64], outputs: &[f64]) -> Judgement {
        let rejects = outputs[0] < 0.55;
        Judgement {
            accepted: !rejects,
            reject_votes: if rejects { 1 + (embedding[0] as usize % 4) } else { 0 },
            n_experts: 4,
        }
    }
}

fn pipeline_sample(i: usize) -> Sample {
    let conf = 0.3 + 0.65 * ((i % 11) as f64 / 10.0);
    Sample::new(vec![i as f64], vec![conf, 1.0 - conf])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// DeploymentPipeline window accounting: every pushed sample is judged
    /// exactly once, in push order, across any (window, shards, budget)
    /// configuration; flagged/relabel indices are in-window globals and the
    /// relabel pick honours the budget.
    #[test]
    fn pipeline_judges_every_pushed_sample_exactly_once_in_order(
        n in 0usize..200,
        window in 1usize..64,
        shards in 0usize..9,
        fraction in 0.01f64..1.0,
    ) {
        let det = ThresholdCommittee;
        let stream: Vec<Sample> = (0..n).map(pipeline_sample).collect();
        let budget = RelabelBudget { fraction, min_count: 1 };
        let mut pipeline =
            DeploymentPipeline::new(
                &det,
                PipelineConfig { window, shards, budget, ..Default::default() },
            );

        let mut reports = pipeline.extend(stream.iter().cloned());
        reports.extend(pipeline.flush());
        prop_assert!(pipeline.flush().is_none(), "flush must be idempotent");

        let mut covered = 0usize;
        for (w, report) in reports.iter().enumerate() {
            prop_assert_eq!(report.index, w);
            prop_assert_eq!(report.start, covered, "windows must be contiguous");
            let len = report.judgements.len();
            prop_assert!(len == window || (w + 1 == reports.len() && len >= 1));
            covered += len;

            let end = report.start + len;
            prop_assert!(
                report.flagged.windows(2).all(|p| p[0] < p[1]),
                "flagged indices must be strictly ascending"
            );
            prop_assert!(report.flagged.iter().all(|&i| i >= report.start && i < end));
            prop_assert!(report.relabel.iter().all(|i| report.flagged.contains(i)));
            prop_assert_eq!(report.relabel.len(), budget.allowance(report.flagged.len()));
        }
        prop_assert_eq!(covered, n, "every pushed sample judged exactly once");

        // Reassembled judgements equal one sequential batch, in order.
        let rebuilt: Vec<Judgement> =
            reports.iter().flat_map(|r| r.judgements.clone()).collect();
        prop_assert_eq!(rebuilt, det.judge_batch(&stream));

        let stats = pipeline.stats();
        prop_assert_eq!(stats.pushed, n);
        prop_assert_eq!(stats.judged, n);
        prop_assert_eq!(stats.windows, reports.len());
        prop_assert_eq!(
            stats.rejected,
            reports.iter().map(|r| r.flagged.len()).sum::<usize>()
        );
    }
}

/// A [`ThresholdCommittee`]-style detector with a live calibration store,
/// so pipeline-level calibration policies can be property-tested without
/// the cost of a real conformal detector.
struct AbsorbingCommittee {
    base: usize,
    online: Vec<Relabeled>,
}

impl DriftDetector for AbsorbingCommittee {
    fn name(&self) -> &'static str {
        "absorbing-committee"
    }

    fn judge_one(&self, embedding: &[f64], outputs: &[f64]) -> Judgement {
        let rejects = outputs[0] < 0.55;
        Judgement {
            accepted: !rejects,
            reject_votes: if rejects { 1 + (embedding[0] as usize % 4) } else { 0 },
            n_experts: 4,
        }
    }

    fn calibration_size(&self) -> Option<usize> {
        Some(self.base + self.online.len())
    }

    fn can_absorb(&self, _r: &Relabeled) -> bool {
        true
    }

    fn absorb_relabeled(&mut self, batch: &[Relabeled]) -> usize {
        self.online.extend(batch.iter().cloned());
        batch.len()
    }

    fn replace_record(&mut self, index: usize, r: &Relabeled) -> bool {
        let Some(slot) = index.checked_sub(self.base) else { return false };
        if slot >= self.online.len() {
            return false;
        }
        self.online[slot] = r.clone();
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Online-pipeline calibration policies: under `Reservoir{cap}` the
    /// online calibration set never exceeds `cap` (for any stream length,
    /// window, budget, or seed), replacements only ever touch online
    /// slots, the same seed reproduces the identical fold run-to-run, and
    /// `Frozen` behaves exactly like the shared-reference PR 2 pipeline.
    #[test]
    fn reservoir_policy_caps_online_growth_and_is_seed_deterministic(
        n in 0usize..250,
        window in 1usize..48,
        cap in 1usize..12,
        seed in 0u64..1000,
        fraction in 0.05f64..1.0,
        base in 0usize..30,
    ) {
        let budget = RelabelBudget { fraction, min_count: 1 };
        let run = || {
            let mut det = AbsorbingCommittee { base, online: Vec::new() };
            let mut pipeline = DeploymentPipeline::online(
                &mut det,
                PipelineConfig {
                    window,
                    shards: 2,
                    budget,
                    policy: CalibrationPolicy::Reservoir { cap, seed },
                    ..Default::default()
                },
                |global, _s| Some(Truth::Label(global)),
            );
            let mut reports = pipeline.extend((0..n).map(pipeline_sample));
            reports.extend(pipeline.flush());
            let stats = pipeline.stats();
            drop(pipeline);
            (reports, stats, det.online)
        };
        let (reports, stats, online) = run();

        // The cap binds at every window boundary, not just at the end.
        for report in &reports {
            prop_assert!(report.calibration_size.unwrap() <= base + cap);
            prop_assert!(report.absorbed <= report.relabel.len());
        }
        prop_assert!(online.len() <= cap);
        prop_assert_eq!(
            stats.absorbed,
            reports.iter().map(|r| r.absorbed).sum::<usize>()
        );
        prop_assert!(stats.absorbed <= stats.relabel_selected);
        // Every live record is a genuinely selected pick, labeled by the
        // oracle for its own global index.
        let selected: Vec<usize> =
            reports.iter().flat_map(|r| r.relabel.iter().copied()).collect();
        for r in &online {
            let Truth::Label(global) = r.truth else {
                return Err(TestCaseError::fail("truth kind changed in flight"));
            };
            prop_assert!(selected.contains(&global));
        }

        // Determinism: the same seed over the same stream folds the same.
        let (reports2, stats2, online2) = run();
        prop_assert_eq!(stats, stats2);
        prop_assert_eq!(online.len(), online2.len());
        for (a, b) in online.iter().zip(online2.iter()) {
            prop_assert_eq!(a, b);
        }
        for (a, b) in reports.iter().zip(reports2.iter()) {
            prop_assert_eq!(&a.judgements, &b.judgements);
            prop_assert_eq!(&a.relabel, &b.relabel);
            prop_assert_eq!(a.absorbed, b.absorbed);
            prop_assert_eq!(a.calibration_size, b.calibration_size);
        }
    }

    /// `CalibrationPolicy::Frozen` — through either constructor — matches
    /// the PR 2 shared pipeline exactly: same judgements, same reports,
    /// untouched calibration set, zero absorption.
    #[test]
    fn frozen_policy_matches_pr2_pipeline_exactly(
        n in 0usize..160,
        window in 1usize..32,
        fraction in 0.05f64..1.0,
    ) {
        let budget = RelabelBudget { fraction, min_count: 1 };
        let shared_det = ThresholdCommittee;
        let mut shared = DeploymentPipeline::new(
            &shared_det,
            PipelineConfig { window, shards: 2, budget, ..Default::default() },
        );
        let mut shared_reports = shared.extend((0..n).map(pipeline_sample));
        shared_reports.extend(shared.flush());

        let mut online_det = AbsorbingCommittee { base: 5, online: Vec::new() };
        let mut online = DeploymentPipeline::online(
            &mut online_det,
            PipelineConfig { window, shards: 2, budget, ..Default::default() },
            |_, _| -> Option<Truth> {
                panic!("a frozen pipeline must never consult the oracle")
            },
        );
        let mut online_reports = online.extend((0..n).map(pipeline_sample));
        online_reports.extend(online.flush());
        let online_stats = online.stats();
        drop(online);

        prop_assert!(online_det.online.is_empty(), "frozen must not absorb");
        prop_assert_eq!(online_stats.absorbed, 0);
        prop_assert_eq!(shared_reports.len(), online_reports.len());
        for (s, o) in shared_reports.iter().zip(online_reports.iter()) {
            prop_assert_eq!(&s.judgements, &o.judgements);
            prop_assert_eq!(&s.flagged, &o.flagged);
            prop_assert_eq!(&s.relabel, &o.relabel);
            prop_assert_eq!(o.absorbed, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Workload generators are deterministic in their seed and produce
    /// valid oracle labels, for arbitrary seeds.
    #[test]
    fn coarsening_generator_is_seed_deterministic(seed in 0u64..200) {
        use prom::workloads::coarsening::{generate, CoarseningConfig};
        let cfg = CoarseningConfig { kernels_per_suite: 4, seed, ..Default::default() };
        let a = generate(&cfg);
        let b = generate(&cfg);
        prop_assert_eq!(a.train.len(), b.train.len());
        for (x, y) in a.train.iter().zip(b.train.iter()) {
            prop_assert_eq!(&x.features, &y.features);
            prop_assert_eq!(x.label, y.label);
        }
    }

    /// Schedule efficiencies stay in (0, 1] over the whole knob space.
    #[test]
    fn codegen_efficiency_bounded(seed in 0u64..500) {
        use prom::workloads::codegen::{
            efficiency, sample_schedule, sample_workload, BertVariant, CpuTarget,
        };
        let mut rng = prom::ml::rng::rng_from_seed(seed);
        let cpu = CpuTarget::default();
        for variant in BertVariant::ALL {
            let w = sample_workload(variant, &mut rng);
            let s = sample_schedule(&mut rng);
            let e = efficiency(&w, &s, &cpu);
            prop_assert!(e > 0.0 && e <= 1.0, "{variant:?}: {e}");
        }
    }
}

// --- Metrics histogram bucket math --------------------------------------
//
// `bucket_index`/`bucket_upper_edge` underpin both the single-writer
// `LatencyHistogram` and the sharded concurrent `Histogram`; a hole or an
// overlap in the bucket lattice silently corrupts every reported
// percentile, so the inverse pair is pinned down property-style here.

mod metrics_buckets {
    use super::*;
    use prom::core::metrics::{bucket_index, bucket_upper_edge, BUCKETS, SUB_BUCKETS};

    /// All magnitudes of u64, not just the uniform draw's huge ones:
    /// shifting a raw word right by 0..=63 bits covers every octave.
    fn all_magnitudes() -> impl Strategy<Value = u64> {
        (0u64..=u64::MAX, 0u32..64).prop_map(|(raw, shift)| raw >> shift)
    }

    proptest! {
        /// Bucket assignment never decreases as the value grows, and the
        /// index stays in range.
        #[test]
        fn bucket_index_is_monotone(a in all_magnitudes(), b in all_magnitudes()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bucket_index(lo) <= bucket_index(hi));
            prop_assert!(bucket_index(hi) < BUCKETS);
        }

        /// `bucket_upper_edge` is a *tight* inverse: every value sits at or
        /// below its own bucket's edge and strictly above the previous
        /// bucket's, so buckets neither overlap nor leave gaps.
        #[test]
        fn bucket_upper_edge_is_a_tight_inverse(ns in all_magnitudes()) {
            let index = bucket_index(ns);
            prop_assert!(ns <= bucket_upper_edge(index));
            if index > 0 {
                prop_assert!(ns > bucket_upper_edge(index - 1));
            }
        }

        /// Every edge maps back to its own bucket, and the next value up
        /// crosses into the next bucket (strict growth at every edge).
        #[test]
        fn every_edge_is_the_last_value_of_its_bucket(index in 0usize..BUCKETS) {
            let edge = bucket_upper_edge(index);
            prop_assert_eq!(bucket_index(edge), index);
            if edge < u64::MAX {
                prop_assert_eq!(bucket_index(edge + 1), index + 1);
            }
        }
    }

    /// The wrapping-shift formula lands the last bucket exactly on
    /// `u64::MAX` — the documented edge case of the encoding.
    #[test]
    fn top_bucket_edge_wraps_to_u64_max() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_edge(BUCKETS - 1), u64::MAX);
    }

    /// The identity/log switchover at `SUB_BUCKETS` is seamless: unit
    /// buckets below, and the first log bucket picks up right after.
    #[test]
    fn sub_bucket_boundary_is_continuous() {
        for ns in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(ns), ns as usize, "values below SUB_BUCKETS are exact");
            assert_eq!(bucket_upper_edge(ns as usize), ns);
        }
        assert_eq!(bucket_index(SUB_BUCKETS), SUB_BUCKETS as usize);
        assert_eq!(bucket_index(2 * SUB_BUCKETS - 1), 2 * SUB_BUCKETS as usize - 1);
    }
}

// --- Drift-scenario annotations -----------------------------------------
//
// The scenario generator's annotations are the ground truth every lag and
// quality number in the drift matrix is scored against; a malformed
// annotation silently corrupts the whole stress tier, so the schedule
// algebra is pinned down over its full parameter space here.

mod drift_annotations {
    use super::*;
    use prom::eval::drift::{synthetic_base, DriftScenario, Schedule, ShiftKind};

    fn schedules() -> impl Strategy<Value = Schedule> {
        prop_oneof![
            (0usize..300).prop_map(|at| Schedule::Abrupt { at }),
            (0usize..300, 1usize..200).prop_map(|(start, len)| Schedule::Gradual { start, len }),
            (1usize..200, 0.01f64..=1.0)
                .prop_map(|(period, duty)| Schedule::Recurring { period, duty }),
        ]
    }

    fn kinds() -> impl Strategy<Value = ShiftKind> {
        prop_oneof![
            Just(ShiftKind::Translate),
            Just(ShiftKind::Scale),
            Just(ShiftKind::Rotate),
            Just(ShiftKind::LabelShift { target: 0 }),
            Just(ShiftKind::Adversarial),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Annotations are well-formed for arbitrary single phases: drift
        /// is flagged exactly while the schedule is active (and only for a
        /// real magnitude), and the intensity is a unit-interval value
        /// that is positive precisely on drifted samples.
        #[test]
        fn annotations_are_well_formed(
            kind in kinds(),
            schedule in schedules(),
            magnitude in prop_oneof![Just(0.0f64), 0.1f64..4.0],
            seed in 0u64..100,
            n in 1usize..300,
        ) {
            let (base, _) = synthetic_base(2, 3, 4, 1);
            let stream = DriftScenario::single(kind, schedule, magnitude, seed)
                .generate(&base, n);
            prop_assert_eq!(stream.len(), n);
            for (i, ann) in stream.annotations.iter().enumerate() {
                let active = schedule.active(i) && magnitude > 0.0;
                prop_assert_eq!(ann.drifted, active, "position {}", i);
                prop_assert_eq!(ann.phases != 0, active, "mask at {}", i);
                prop_assert!((0.0..=1.0).contains(&ann.intensity), "intensity at {}", i);
                prop_assert_eq!(ann.intensity > 0.0, active, "intensity sign at {}", i);
                prop_assert!(
                    (ann.intensity - schedule.intensity(i) * f64::from(u8::from(magnitude > 0.0)))
                        .abs() == 0.0,
                    "intensity value at {}", i
                );
            }
        }

        /// Recurring schedules tile exactly: position `i` is active iff it
        /// falls in the final `duty_len` slots of its period, for every
        /// `(period, duty)` in the domain.
        #[test]
        fn recurring_schedules_tile_exactly(
            period in 1usize..200,
            duty in 0.01f64..=1.0,
            n in 1usize..400,
        ) {
            let schedule = Schedule::Recurring { period, duty };
            let burst = Schedule::duty_len(period, duty);
            prop_assert!((1..=period).contains(&burst));
            for i in 0..n {
                prop_assert_eq!(
                    schedule.active(i),
                    i % period >= period - burst,
                    "period {} duty {} burst {} at {}", period, duty, burst, i
                );
            }
        }

        /// Gradual intensities ramp monotonically from 0 before the start
        /// to a plateau of exactly 1 once the ramp completes.
        #[test]
        fn gradual_intensity_ramps_monotonically(
            start in 0usize..200,
            len in 1usize..150,
        ) {
            let schedule = Schedule::Gradual { start, len };
            let mut prev = 0.0f64;
            for i in 0..start + len + 50 {
                let t = schedule.intensity(i);
                prop_assert!((0.0..=1.0).contains(&t));
                prop_assert!(t >= prev, "ramp must not decrease at {}", i);
                if i < start {
                    prop_assert_eq!(t, 0.0);
                } else if i >= start + len - 1 {
                    prop_assert_eq!(t, 1.0, "plateau from {} on", start + len - 1);
                }
                prev = t;
            }
        }

        /// The generator is a pure function of `(base, phases, seed)`:
        /// arbitrary parameters replay to bit-identical labels and
        /// annotations.
        #[test]
        fn generation_replays_identically(
            kind in kinds(),
            schedule in schedules(),
            magnitude in 0.0f64..4.0,
            seed in 0u64..100,
        ) {
            let (base, _) = synthetic_base(2, 3, 4, 1);
            let run = || DriftScenario::single(kind, schedule, magnitude, seed)
                .generate(&base, 128);
            let (a, b) = (run(), run());
            prop_assert_eq!(&a.labels, &b.labels);
            prop_assert_eq!(&a.annotations, &b.annotations);
            for (x, y) in a.samples.iter().zip(&b.samples) {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&x.embedding), bits(&y.embedding));
            }
        }
    }
}

// --- Snapshot restore totality ------------------------------------------
//
// A snapshot is read back from bytes the process did not write itself, so
// the one restore path both Prom detectors share must be total: no edit of
// a real snapshot's JSON may panic it, and a rejected snapshot must leave
// the detector exactly as it was.

mod snapshot_restore {
    use super::*;
    use prom::baselines::tesseract::LabeledOutcome;
    use prom::baselines::{NaiveCp, Rise, Tesseract};
    use prom::core::calibration::CalibrationRecord;
    use prom::core::committee::PromConfig;
    use prom::core::predictor::PromClassifier;
    use prom::core::regression::{
        ClusterChoice, PromRegressor, PromRegressorConfig, RegressionRecord,
    };
    use serde::Value;

    /// Short numbers keep the snapshot's labels, counts and structure a
    /// large share of its bytes, so edits reach the record checks often.
    fn class_records() -> Vec<CalibrationRecord> {
        (0..12)
            .map(|i| {
                let label = i % 3;
                let mut probs = vec![0.25; 3];
                probs[label] = 0.5;
                CalibrationRecord::new(vec![(i % 5) as f64, label as f64], probs, label)
            })
            .collect()
    }

    fn classifier() -> PromClassifier {
        PromClassifier::new(class_records(), PromConfig::default()).expect("valid records")
    }

    /// Validation outcomes of both kinds, so RISE can train its SVM.
    fn validation() -> Vec<LabeledOutcome> {
        (0..6)
            .map(|i| {
                let probs = if i % 2 == 0 { vec![0.5, 0.25, 0.25] } else { vec![0.4, 0.35, 0.25] };
                LabeledOutcome { probs, correct: i % 2 == 0 }
            })
            .collect()
    }

    /// The three baselines, on the classifier's records.
    fn baselines() -> [Box<dyn DriftDetector>; 3] {
        let records = class_records();
        [
            Box::new(NaiveCp::new(&records, 0.1)),
            Box::new(Tesseract::fit(&records, &validation(), 3)),
            Box::new(Rise::fit(&records, &validation(), 0.1)),
        ]
    }

    fn regressor() -> PromRegressor {
        let records = (0..12)
            .map(|i| {
                let x = ((i % 2) * 8 + i % 3) as f64;
                RegressionRecord::new(vec![x, 1.0], 2.0 * x + 0.5, 2.0 * x)
            })
            .collect();
        let config =
            PromRegressorConfig { clusters: ClusterChoice::Fixed(2), ..Default::default() };
        PromRegressor::new(records, config).expect("valid records")
    }

    /// The JSON snapshot of `detector` after two absorbs and one base
    /// eviction, so the base/online split is not trivial.
    fn grown_snapshot(detector: &mut dyn DriftDetector, relabels: &[Relabeled]) -> String {
        assert_eq!(detector.absorb_relabeled(relabels), relabels.len());
        assert!(detector.evict_oldest_base());
        serde::to_json_string(&detector.snapshot_state().expect("detector snapshots"))
    }

    /// Bytes an edit writes: digits most often, so that most edited
    /// snapshots still parse and reach the detector's own checks.
    const PALETTE: &[u8] = b"0123456789012345678-.e,:[]{}\"n ";

    /// `json` after one edit at the non-whitespace byte at relative
    /// position `at`: cut there, that byte deleted, or that byte replaced
    /// by `PALETTE[byte]`. Snapshots print ASCII, so every edit leaves
    /// valid UTF-8.
    fn corrupt(json: &str, edit: usize, at: f64, byte: usize) -> String {
        let mut bytes = json.as_bytes().to_vec();
        let solid: Vec<usize> =
            (0..bytes.len()).filter(|&i| !bytes[i].is_ascii_whitespace()).collect();
        let at = solid[((solid.len() as f64 * at) as usize).min(solid.len() - 1)];
        match edit {
            0 => bytes.truncate(at),
            1 => {
                bytes.remove(at);
            }
            _ => bytes[at] = PALETTE[byte],
        }
        String::from_utf8(bytes).expect("snapshots print ASCII")
    }

    /// Restores `text` onto `detector`; on any error, the detector's own
    /// snapshot must print the same bytes as before.
    fn restore_is_total(detector: &mut dyn DriftDetector, text: &str) -> Result<(), TestCaseError> {
        let before = serde::to_json_string(&detector.snapshot_state().expect("detector snapshots"));
        let restored =
            serde::from_json_str::<Value>(text).and_then(|state| detector.restore_state(&state));
        if restored.is_err() {
            let after =
                serde::to_json_string(&detector.snapshot_state().expect("detector snapshots"));
            prop_assert!(after == before, "a rejected restore changed the detector");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Truncated, byte-deleted and byte-replaced snapshots of both
        /// Prom detector kinds and the three baselines never panic the
        /// restore, and a rejected one changes nothing.
        #[test]
        fn corrupt_snapshots_never_panic_and_rejections_change_nothing(
            edit in 0usize..3,
            at in 0.0f64..1.0,
            byte in 0usize..PALETTE.len(),
        ) {
            let relabels: Vec<Relabeled> = (0..2)
                .map(|i| Relabeled::labeled(Sample::new(vec![i as f64, 0.5], vec![0.25, 0.5, 0.25]), 1))
                .collect();
            let json = grown_snapshot(&mut classifier(), &relabels);
            restore_is_total(&mut classifier(), &corrupt(&json, edit, at, byte))?;
            for (mut grown, mut fresh) in baselines().into_iter().zip(baselines()) {
                let json = grown_snapshot(&mut *grown, &relabels);
                restore_is_total(&mut *fresh, &corrupt(&json, edit, at, byte))?;
            }

            let relabels: Vec<Relabeled> = (0..2)
                .map(|i| Relabeled::measured(Sample::regression(vec![i as f64, 1.0], 1.5), 1.0))
                .collect();
            let json = grown_snapshot(&mut regressor(), &relabels);
            restore_is_total(&mut regressor(), &corrupt(&json, edit, at, byte))?;
        }
    }
}
