//! The sharded, thread-parallel deployment pipeline (the serving-path
//! counterpart of the paper's Figs. 10/12 deployment loop).
//!
//! [`DriftDetector::judge_batch`] amortizes per-call work across a window,
//! but still runs on one core. At the traffic rates the ROADMAP targets the
//! judging itself becomes the bottleneck, so this module adds the layer
//! above the batch API:
//!
//! * [`crate::pool::ShardPool`] — the execution layer: each window is
//!   split into contiguous chunks judged in parallel on scoped threads,
//!   each chunk with one reusable per-shard `JudgeScratch`; results are
//!   stitched in input order, so pooled judging is **bit-identical** to a
//!   single sequential `judge_batch` call (`tests/pipeline_equivalence.rs`
//!   proves pool == sequential for all five detectors).
//! * [`MultiPipeline`] — the one window engine: `push` samples as they
//!   arrive into one stream fanned out to N ≥ 1 registered detectors, and
//!   every full window is judged (inline on the caller, or on one shared
//!   pool), its rejects are ranked under a [`SelectionPolicy`]
//!   (reject-vote fraction, or lowest credibility through the rich
//!   per-expert path), the [`RelabelBudget`] picks the slice worth
//!   ground-truth labels, and an optional window hook hands the reports
//!   plus the window's samples to the caller. Every detector reports
//!   exactly what a single-detector pipeline would have (optionally under
//!   one shared relabeling budget, [`BudgetSharing::Shared`], for honest
//!   same-stream detector comparison). Every window is judged to
//!   completion by the `push` that fills it (`flush` judges the tail), so
//!   a report always describes the window its call just closed.
//! * [`DeploymentPipeline`] — the single-detector view: one engine over
//!   one detector, reporting that detector's [`WindowReport`] per window.
//! * **In-pipeline online recalibration** — a pipeline built with
//!   [`DeploymentPipeline::online`] closes the paper's Sec. 5.4 loop
//!   *inside* the pipeline: each window's budget-selected relabels are
//!   handed to the caller's label oracle (the "ask an expert" step) and
//!   folded straight into the detector's live calibration set under a
//!   [`CalibrationPolicy`] — growing it without bound, capping it with a
//!   seeded [`ReservoirCalibration`], or leaving it frozen (exactly the
//!   caller-driven PR 2 behavior). Folding uses the detectors' incremental
//!   `absorb_relabeled` / `replace_record` overrides, so no window pays a
//!   full recalibration rebuild (see `benches/recalibration.rs`).

use std::sync::Arc;

use crate::calibration::{ReservoirCalibration, ReservoirDecision, ReservoirSnapshot};
use crate::committee::{PromConfig, PromJudgement};
use crate::detector::{DriftDetector, Judgement, Relabeled, Sample, Truth};
use crate::incremental::{select_flagged, select_for_relabeling, RelabelBudget};
use crate::metrics::{Counter, Gauge, MetricsSink};
use crate::pool::ShardPool;
use crate::predictor::{PromClassifier, PromThresholdView};
use crate::scoring::JudgeScratch;
use crate::PromError;
use serde::{DeError, Deserialize, Serialize, Value};

/// The panic message of a detector whose rich-judgement support changed
/// between windows — which the [`DriftDetector`] contract forbids.
const RICH_IS_GLOBAL: &str = "rich-judgement support is a detector-global property";

/// The shard count matching this machine's available parallelism (1 when
/// it cannot be queried).
pub fn available_shards() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How an *online* pipeline maintains the detector's live calibration set
/// as windows complete — the in-pipeline half of the paper's Sec. 5.4
/// online recalibration loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CalibrationPolicy {
    /// Never touch the calibration set: judging behaves exactly like a
    /// pipeline built with [`DeploymentPipeline::new`] (the PR 2
    /// caller-driven behavior, asserted by `tests/properties.rs`).
    #[default]
    Frozen,
    /// Absorb every successfully labeled relabel pick; the live set grows
    /// without bound. Simple and maximally adaptive, but per-judgement cost
    /// grows with the stream — prefer [`CalibrationPolicy::Reservoir`] on
    /// long streams.
    GrowUnbounded,
    /// Keep at most `cap` *online* records, chosen by seeded, deterministic
    /// reservoir sampling ([`ReservoirCalibration`]) over every relabel
    /// offered: the design-time base set stays intact, online growth stops
    /// at `cap`, and once full each new relabel evicts a uniformly chosen
    /// online record in place — so memory and per-sample judging cost stay
    /// bounded on unbounded streams.
    Reservoir {
        /// Maximum number of online (absorbed) calibration records.
        cap: usize,
        /// Seed of the deterministic sampler: the same seed over the same
        /// stream reproduces identical window reports run-to-run.
        seed: u64,
    },
}

/// How an *online* pipeline retires **design-time base records** as online
/// relabels are absorbed — the sliding-window half of deployment-time
/// calibration maintenance. The [`CalibrationPolicy`] bounds *online*
/// growth; this policy bounds how long the *design-time* records linger
/// once fresher evidence replaces them.
///
/// Eviction runs through [`DriftDetector::evict_oldest_base`], which is
/// bit-identical to a from-scratch fit on the surviving records (see the
/// detector-level eviction tests), so turning it on changes *which*
/// records judge future windows, never the arithmetic that judges them.
/// Detectors that do not support base eviction (no `base_len`) simply
/// ignore the policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BaseEviction {
    /// Never retire design-time records (the behavior of every pipeline
    /// built before this policy existed).
    #[default]
    Keep,
    /// Count-decayed sliding window: each successfully absorbed relabel
    /// retires up to `per_absorb` of the oldest surviving design-time
    /// records, but never shrinks the base below `min_base` records — the
    /// calibration set slides from "all design-time" toward "mostly
    /// online" exactly as fast as online evidence actually arrives, and
    /// stalls (keeping the base intact) when no relabels are absorbed.
    SlidingWindow {
        /// Oldest base records retired per absorbed relabel.
        per_absorb: usize,
        /// Design-time records the window never evicts past.
        min_base: usize,
    },
}

/// How a pipeline ranks a window's rejected samples when picking the
/// slice worth ground-truth labels (the [`RelabelBudget`] slice).
///
/// ```
/// use prom_core::pipeline::{PipelineConfig, SelectionPolicy};
///
/// // The default is the bit-compatible reject-vote ranking…
/// assert_eq!(PipelineConfig::default().selection, SelectionPolicy::RejectVote);
/// // …and credibility ranking is an opt-in config switch.
/// let config = PipelineConfig {
///     selection: SelectionPolicy::CredibilityRank,
///     ..Default::default()
/// };
/// assert_eq!(config.selection, SelectionPolicy::CredibilityRank);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Rank flagged samples by reject-vote fraction over the flat
    /// [`Judgement`]s, most votes first, ties broken by stream order
    /// ([`select_flagged`]) — the PR 2 pipeline behaviour, bit-compatible
    /// with every pipeline built before this policy existed.
    #[default]
    RejectVote,
    /// Judge each window through the **rich** per-expert path
    /// ([`DriftDetector::judge_batch_rich_scratch`]) and rank flagged
    /// samples by *lowest mean credibility* first
    /// ([`select_for_relabeling`]) — the Prom drift signal of the source
    /// paper, which separates "rejected by many experts" from "rejected
    /// *far* from the calibration distribution". Detectors without a rich
    /// path (the single-function baselines) fall back to
    /// [`SelectionPolicy::RejectVote`] per detector; the flat judgements
    /// in the window reports are identical either way (flattening the
    /// rich judgement is exactly `judge_batch`'s own definition), so
    /// switching the policy changes *which* rejects are relabeled, never
    /// what is judged or flagged.
    CredibilityRank,
}

/// Configuration of a [`DeploymentPipeline`] or [`MultiPipeline`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Samples per window: a full window is judged and reported as one
    /// unit. Must be at least 1.
    pub window: usize,
    /// Shards judging each window. At 2 or more the pipeline owns a
    /// [`ShardPool`] and the push that fills a window waits while scoped
    /// threads judge its chunks; 0 and 1 both mean judging on the caller
    /// thread, with no extra thread at all.
    pub shards: usize,
    /// Relabeling budget applied to each window's rejects.
    pub budget: RelabelBudget,
    /// How relabel candidates are ranked within the budget.
    pub selection: SelectionPolicy,
    /// How the detector's calibration set is maintained across windows.
    /// Anything but [`CalibrationPolicy::Frozen`] requires the pipeline to
    /// own exclusive access to the detector — see
    /// [`DeploymentPipeline::online`].
    pub policy: CalibrationPolicy,
    /// How design-time base records are retired as online relabels are
    /// absorbed (ignored under [`CalibrationPolicy::Frozen`], which never
    /// absorbs).
    pub eviction: BaseEviction,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            window: 1024,
            shards: available_shards(),
            budget: RelabelBudget::default(),
            selection: SelectionPolicy::RejectVote,
            policy: CalibrationPolicy::Frozen,
            eviction: BaseEviction::Keep,
        }
    }
}

/// Running totals of a pipeline's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Samples pushed so far (judged or still buffered).
    pub pushed: usize,
    /// Samples judged so far.
    pub judged: usize,
    /// Windows emitted so far.
    pub windows: usize,
    /// Judged samples the detector rejected.
    pub rejected: usize,
    /// Rejected samples selected for relabeling across all windows.
    pub relabel_selected: usize,
    /// Relabeled samples folded into the detector's calibration set by the
    /// online policy (appends plus reservoir replacements; always 0 under
    /// [`CalibrationPolicy::Frozen`]).
    pub absorbed: usize,
}

/// What one judged window produced. All indices are **global stream
/// positions** (the i-th pushed sample has index i), so reports compose
/// across windows.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// 0-based window number.
    pub index: usize,
    /// Global index of the window's first sample.
    pub start: usize,
    /// One judgement per sample of the window, in push order.
    pub judgements: Vec<Judgement>,
    /// Global indices the detector rejected, ascending.
    pub flagged: Vec<usize>,
    /// Global indices selected for relabeling, most drifted first as
    /// ranked by the pipeline's [`SelectionPolicy`], bounded by the
    /// [`RelabelBudget`]; always a subset of `flagged` (or, in a
    /// [`MultiPipeline`] under [`BudgetSharing::Shared`], the shared pick
    /// set — a subset of the *selector* detector's flags).
    pub relabel: Vec<usize>,
    /// How many of this window's relabel picks the online policy folded
    /// into the detector's calibration set (0 under
    /// [`CalibrationPolicy::Frozen`] or when no oracle answered).
    pub absorbed: usize,
    /// How many of this window's absorbed relabels **replaced** an
    /// existing reservoir slot rather than appending a new record —
    /// always `<= absorbed`, and 0 unless the pipeline runs
    /// [`CalibrationPolicy::Reservoir`] with a full reservoir. Summed
    /// across windows this is the *reservoir churn*: the slot-replacement
    /// rate that tells recurring-drift stress tests whether the sampler
    /// is converging (Algorithm R replaces ever more rarely as the
    /// stream grows) or thrashing its calibration set.
    pub replaced: usize,
    /// The detector's live calibration size after this window's folding,
    /// when the detector exposes one ([`DriftDetector::calibration_size`]).
    pub calibration_size: Option<usize>,
}

/// The caller-supplied expert labeler of an online pipeline: given a
/// relabel pick (its global stream index and the sample), returns the
/// ground truth, or `None` when no expert answer is available — an
/// unanswered pick is simply not folded in.
pub type LabelOracle<'a> = Box<dyn FnMut(usize, &Sample) -> Option<Truth> + Send + 'a>;

/// Shared (frozen), exclusive (online), or pipeline-owned (the fused
/// fan-out's threshold views) access to a pipeline's detector.
enum DetectorHandle<'a> {
    Shared(&'a dyn DriftDetector),
    Exclusive(&'a mut dyn DriftDetector),
    /// A detector the pipeline owns outright — [`MultiPipeline::fanout`]
    /// builds one [`PromThresholdView`] per served configuration. Owned
    /// detectors are frozen: the online fold only mutates `Exclusive`
    /// handles.
    Owned(Box<dyn DriftDetector + 'a>),
}

impl DetectorHandle<'_> {
    fn get(&self) -> &dyn DriftDetector {
        match self {
            DetectorHandle::Shared(d) => *d,
            DetectorHandle::Exclusive(d) => &**d,
            DetectorHandle::Owned(d) => &**d,
        }
    }
}

/// One judged window, in whichever form the selection policy asked for:
/// flat detector-agnostic judgements, or the rich per-expert committee
/// detail that credibility ranking consumes.
enum Judged {
    Flat(Vec<Judgement>),
    Rich(Vec<PromJudgement>),
}

impl Judged {
    /// Global indices of the window's rejected samples, ascending.
    fn flagged(&self, start: usize) -> Vec<usize> {
        fn collect<'j>(accepted: impl Iterator<Item = &'j bool>, start: usize) -> Vec<usize> {
            accepted
                .enumerate()
                .filter(|(_, accepted)| !**accepted)
                .map(|(i, _)| start + i)
                .collect()
        }
        match self {
            Judged::Flat(js) => collect(js.iter().map(|j| &j.accepted), start),
            Judged::Rich(js) => collect(js.iter().map(|j| &j.accepted), start),
        }
    }

    /// Budget-bounded relabel selection, as **window-local** indices:
    /// reject-vote ranking on the flat form, lowest-credibility-first on
    /// the rich form.
    fn select(&self, budget: RelabelBudget) -> Vec<usize> {
        match self {
            Judged::Flat(js) => select_flagged(js, budget),
            Judged::Rich(js) => select_for_relabeling(js, budget),
        }
    }

    /// The window's flat judgements (rich windows flatten per expert
    /// exactly like [`DriftDetector::judge_batch`] does, so reports are
    /// identical across selection policies).
    fn into_flat(self) -> Vec<Judgement> {
        match self {
            Judged::Flat(js) => js,
            Judged::Rich(js) => js.into_iter().map(Judgement::from).collect(),
        }
    }
}

/// Everything one detector carries through a pipeline's lifetime: its
/// handle, its judging mode, its reservoir bookkeeping, and its stats.
/// [`MultiPipeline`] owns N ≥ 1 and drives them over one shared sample
/// stream.
struct DetectorState<'a> {
    detector: DetectorHandle<'a>,
    /// Judge windows through the rich per-expert path
    /// ([`SelectionPolicy::CredibilityRank`] on a detector that has one).
    rich: bool,
    reservoir: Option<ReservoirCalibration>,
    stats: PipelineStats,
    /// Lifetime reservoir churn: absorbed relabels that *replaced* a
    /// slot instead of appending. Kept outside [`PipelineStats`] so the
    /// committed snapshot format stays unchanged — churn is a live
    /// diagnostic, not resumable state (it restarts at 0 after
    /// [`DeploymentPipeline::restore`]).
    churn: usize,
    /// Live per-detector metrics, `None` unless a sink was attached —
    /// the zero-cost-when-unregistered contract.
    instruments: Option<DetectorInstruments>,
}

/// The live per-detector time series, labeled `detector=<name>` on top
/// of the sink's base labels. Updated once per window in
/// [`DetectorState::finish_window`] — never per sample.
struct DetectorInstruments {
    /// `prom_pipeline_judged_total`.
    judged: Arc<Counter>,
    /// `prom_pipeline_rejected_total` — drift-flagged samples.
    rejected: Arc<Counter>,
    /// `prom_pipeline_relabel_selected_total` — relabel-budget spend.
    relabel_selected: Arc<Counter>,
    /// `prom_pipeline_absorbed_total` — relabels folded into calibration.
    absorbed: Arc<Counter>,
    /// `prom_pipeline_reservoir_replaced_total` — reservoir slot churn.
    reservoir_replaced: Arc<Counter>,
    /// `prom_pipeline_calibration_size` — live calibration-set size.
    calibration_size: Arc<Gauge>,
}

impl DetectorInstruments {
    fn resolve(sink: &MetricsSink, detector: &'static str) -> Self {
        let labels = &[("detector", detector)][..];
        Self {
            judged: sink.counter(
                "prom_pipeline_judged_total",
                "Samples judged by this detector",
                labels,
            ),
            rejected: sink.counter(
                "prom_pipeline_rejected_total",
                "Samples flagged as drifting by this detector",
                labels,
            ),
            relabel_selected: sink.counter(
                "prom_pipeline_relabel_selected_total",
                "Relabel-budget picks (budget spend) for this detector",
                labels,
            ),
            absorbed: sink.counter(
                "prom_pipeline_absorbed_total",
                "Relabeled samples folded into this detector's calibration set",
                labels,
            ),
            reservoir_replaced: sink.counter(
                "prom_pipeline_reservoir_replaced_total",
                "Absorbed relabels that replaced an existing reservoir slot (churn)",
                labels,
            ),
            calibration_size: sink.gauge(
                "prom_pipeline_calibration_size",
                "Live calibration-set size of this detector (-1 when not exposed)",
                labels,
            ),
        }
    }
}

impl<'a> DetectorState<'a> {
    fn new(detector: DetectorHandle<'a>, config: &PipelineConfig) -> Self {
        // Rich support is detector-global, so probe it once with an empty
        // window; detectors without a rich path fall back to flat
        // reject-vote selection.
        let rich = config.selection == SelectionPolicy::CredibilityRank
            && detector.get().judge_batch_rich_scratch(&[], &mut JudgeScratch::new()).is_some();
        let reservoir = match config.policy {
            CalibrationPolicy::Reservoir { cap, seed } => {
                Some(ReservoirCalibration::new(cap, seed))
            }
            _ => None,
        };
        Self {
            detector,
            rich,
            reservoir,
            stats: PipelineStats::default(),
            churn: 0,
            instruments: None,
        }
    }

    /// Resolves this detector's live time series out of `sink`, labeled
    /// by the detector's name.
    fn attach_metrics(&mut self, sink: &MetricsSink) {
        self.instruments = Some(DetectorInstruments::resolve(sink, self.detector.get().name()));
    }

    /// The per-window bookkeeping every execution mode shares:
    /// global-index flagging, budgeted relabel selection (or the shared
    /// multi-detector selection when `shared_relabel` overrides it),
    /// online folding, and stats. Runs strictly in window order on the
    /// caller thread, so every output is deterministic regardless of how
    /// (or whether) the judging was parallelized.
    fn finish_window(
        &mut self,
        samples: &[Sample],
        judged: Judged,
        start: usize,
        config: &PipelineConfig,
        oracle: Option<&mut LabelOracle<'_>>,
        shared_relabel: Option<&[usize]>,
    ) -> WindowReport {
        let flagged = judged.flagged(start);
        let relabel: Vec<usize> = match shared_relabel {
            Some(picks) => picks.to_vec(),
            None => judged.select(config.budget).into_iter().map(|i| start + i).collect(),
        };

        let (absorbed, replaced) = self.fold_relabels(samples, start, &relabel, config, oracle);

        let judgements = judged.into_flat();
        self.stats.judged += judgements.len();
        self.stats.windows += 1;
        self.stats.rejected += flagged.len();
        self.stats.relabel_selected += relabel.len();
        self.stats.absorbed += absorbed;
        self.churn += replaced;
        let calibration_size = self.detector.get().calibration_size();
        if let Some(live) = &self.instruments {
            live.judged.add(judgements.len() as u64);
            live.rejected.add(flagged.len() as u64);
            live.relabel_selected.add(relabel.len() as u64);
            live.absorbed.add(absorbed as u64);
            live.reservoir_replaced.add(replaced as u64);
            live.calibration_size
                .set(calibration_size.map_or(-1, |n| i64::try_from(n).unwrap_or(i64::MAX)));
        }
        WindowReport {
            index: self.stats.windows - 1,
            start,
            judgements,
            flagged,
            relabel,
            absorbed,
            replaced,
            calibration_size,
        }
    }

    /// Folds this window's relabel picks into the detector under the
    /// configured [`CalibrationPolicy`], returning `(absorbed, replaced)`:
    /// how many were absorbed (appended or reservoir-replaced) and how
    /// many of those were reservoir slot *replacements* (the churn
    /// component). Judging already happened, so the fold affects the
    /// *next* window onward — the same ordering as the caller-driven loop
    /// it replaces.
    fn fold_relabels(
        &mut self,
        samples: &[Sample],
        start: usize,
        relabel: &[usize],
        config: &PipelineConfig,
        oracle: Option<&mut LabelOracle<'_>>,
    ) -> (usize, usize) {
        if config.policy == CalibrationPolicy::Frozen || relabel.is_empty() {
            return (0, 0);
        }
        let (Some(oracle), DetectorHandle::Exclusive(detector)) = (oracle, &mut self.detector)
        else {
            return (0, 0);
        };
        let mut absorbed = 0;
        let mut replaced = 0;
        for &global in relabel {
            let sample = &samples[global - start];
            let Some(truth) = oracle(global, sample) else {
                continue;
            };
            let item = Relabeled { sample: sample.clone(), truth };
            match self.reservoir.as_mut() {
                // Unbounded growth: append every labeled pick.
                None => {
                    if detector.absorb_relabeled(std::slice::from_ref(&item)) == 1 {
                        absorbed += 1;
                        evict_for_absorb(&mut **detector, config.eviction);
                    }
                }
                // Screen before offering: an invalid pick must not count
                // toward the reservoir's sampled stream length (a "skip"
                // decision would never reach the detector, so it could
                // never be retracted and would bias the sample).
                Some(_) if !detector.can_absorb(&item) => {}
                Some(reservoir) => match reservoir.offer() {
                    decision @ ReservoirDecision::Appended(_) => {
                        if detector.absorb_relabeled(std::slice::from_ref(&item)) == 1 {
                            absorbed += 1;
                            evict_for_absorb(&mut **detector, config.eviction);
                        } else {
                            // The detector rejected the record (failed
                            // validation): free the slot it was promised.
                            reservoir.retract(decision);
                        }
                    }
                    decision @ ReservoirDecision::Replaced(slot) => {
                        // The slot-to-record translation reads the
                        // detector's *live* base length
                        // ([`DriftDetector::replace_online_slot`]), so it
                        // stays correct after base eviction shrinks the
                        // prefix or a snapshot restore rebuilds the
                        // detector — the pipeline no longer caches the
                        // construction-time value.
                        if detector.replace_online_slot(slot, &item) {
                            absorbed += 1;
                            replaced += 1;
                            evict_for_absorb(&mut **detector, config.eviction);
                        } else {
                            reservoir.retract(decision);
                        }
                    }
                    ReservoirDecision::Skipped => {}
                },
            }
        }
        (absorbed, replaced)
    }
}

/// Applies the configured [`BaseEviction`] after one successfully absorbed
/// relabel: retires up to `per_absorb` of the oldest design-time base
/// records, stopping at `min_base` — or as soon as the detector refuses
/// (no base records left, or eviction would empty its calibration set).
/// Detectors without a base/online split ([`DriftDetector::base_len`]
/// `None`) ignore the policy entirely.
fn evict_for_absorb(detector: &mut dyn DriftDetector, eviction: BaseEviction) {
    let BaseEviction::SlidingWindow { per_absorb, min_base } = eviction else {
        return;
    };
    for _ in 0..per_absorb {
        match detector.base_len() {
            Some(base) if base > min_base => {
                if !detector.evict_oldest_base() {
                    return;
                }
            }
            _ => return,
        }
    }
}

/// The format tag every [`DeploymentPipeline::snapshot`] value carries.
const PIPELINE_SNAPSHOT_TAG: &str = "deployment-pipeline";

/// Everything a [`DeploymentPipeline`] needs to resume bit-identically in
/// a later process: the detector's portable state, the reservoir sampler's
/// exact position, the partial ingest buffer, and the stream counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PipelineSnapshot {
    /// Format tag ([`PIPELINE_SNAPSHOT_TAG`]).
    pipeline: String,
    /// Window size the stream was cut into — restoring under a different
    /// window would shift every future report boundary, so it must match.
    window: usize,
    /// The detector's portable state ([`DriftDetector::snapshot_state`]),
    /// embedded verbatim; absent only for frozen pipelines over detectors
    /// without snapshot support (whose calibration the pipeline never
    /// touched).
    detector: Option<Value>,
    /// The reservoir sampler mid-stream (seen count, fill level, RNG
    /// position), present exactly under [`CalibrationPolicy::Reservoir`].
    reservoir: Option<ReservoirSnapshot>,
    /// Samples pushed but not yet judged (the partial window).
    buffer: Vec<Sample>,
    /// Global index of the first sample of the next window.
    next_start: usize,
    /// Lifetime totals at snapshot time (drives report numbering).
    stats: PipelineStats,
}

/// Validates a decoded [`PipelineSnapshot`] against the restoring
/// configuration before any state is touched: a corrupt or mismatched
/// snapshot must error, never panic or half-restore.
fn validate_pipeline_snapshot(
    snap: &PipelineSnapshot,
    config: &PipelineConfig,
) -> Result<(), DeError> {
    if snap.pipeline != PIPELINE_SNAPSHOT_TAG {
        return Err(DeError::custom(format!(
            "expected a '{PIPELINE_SNAPSHOT_TAG}' snapshot, found '{}'",
            snap.pipeline
        )));
    }
    if snap.window != config.window {
        return Err(DeError::custom(format!(
            "snapshot was cut into windows of {} but the restoring config asks for {} — \
             restoring across window sizes would shift every report boundary",
            snap.window, config.window
        )));
    }
    if snap.buffer.len() >= config.window {
        return Err(DeError::custom(format!(
            "snapshot buffers {} samples but a window holds {} — a full window would \
             already have been judged",
            snap.buffer.len(),
            config.window
        )));
    }
    for (i, sample) in snap.buffer.iter().enumerate() {
        if sample.embedding.is_empty() || sample.outputs.is_empty() {
            return Err(DeError::custom(format!(
                "snapshot buffer sample {i} has an empty embedding or output vector"
            )));
        }
    }
    if snap.stats.pushed != snap.next_start + snap.buffer.len() {
        return Err(DeError::custom(format!(
            "inconsistent snapshot counters: {} pushed, but {} submitted plus {} buffered",
            snap.stats.pushed,
            snap.next_start,
            snap.buffer.len()
        )));
    }
    match (config.policy, &snap.reservoir) {
        (CalibrationPolicy::Reservoir { cap, .. }, Some(reservoir)) => {
            if reservoir.cap != cap {
                return Err(DeError::custom(format!(
                    "snapshot reservoir capacity {} does not match the configured {cap}",
                    reservoir.cap
                )));
            }
            if reservoir.cap == 0
                || reservoir.len > reservoir.cap
                || reservoir.len as u64 > reservoir.seen
            {
                return Err(DeError::custom("malformed reservoir snapshot"));
            }
            Ok(())
        }
        (CalibrationPolicy::Reservoir { .. }, None) => Err(DeError::custom(
            "the config asks for reservoir calibration but the snapshot has no reservoir state",
        )),
        (_, Some(_)) => Err(DeError::custom(
            "the snapshot carries reservoir state but the config policy is not Reservoir",
        )),
        (_, None) => Ok(()),
    }
}

/// A streaming deployment front-end over any [`DriftDetector`]: buffers
/// pushed samples into fixed-size windows, judges each window (inline, or
/// on shard threads — bit-identical to sequential judging), and applies
/// the relabeling budget per window.
///
/// This is the single-detector view of the one window engine: it holds a
/// [`MultiPipeline`] over exactly one detector and unwraps that
/// detector's [`WindowReport`] from every [`MultiReport`], so both
/// front-ends share one buffer, pool and per-window bookkeeping.
///
/// ```
/// use prom_core::detector::{DriftDetector, Judgement, Sample};
/// use prom_core::pipeline::{DeploymentPipeline, PipelineConfig};
///
/// struct Flat;
/// impl DriftDetector for Flat {
///     fn name(&self) -> &'static str {
///         "flat"
///     }
///     fn judge_one(&self, _e: &[f64], outputs: &[f64]) -> Judgement {
///         Judgement::single(outputs[0] < 0.6)
///     }
/// }
///
/// let det = Flat;
/// let mut pipeline = DeploymentPipeline::new(
///     &det,
///     PipelineConfig { window: 2, shards: 2, ..Default::default() },
/// );
/// assert!(pipeline.push(Sample::new(vec![0.0], vec![0.9, 0.1])).is_none());
/// let report = pipeline.push(Sample::new(vec![1.0], vec![0.5, 0.5])).unwrap();
/// assert_eq!(report.flagged, vec![1]);
/// assert!(pipeline.flush().is_none(), "nothing left buffered");
/// ```
pub struct DeploymentPipeline<'a> {
    engine: MultiPipeline<'a>,
}

impl<'a> DeploymentPipeline<'a> {
    /// Creates a *frozen* pipeline over `detector`: the calibration set is
    /// never touched, so shared access suffices.
    ///
    /// # Panics
    ///
    /// Panics if `config.window` is 0, or if `config.policy` is not
    /// [`CalibrationPolicy::Frozen`] — an online policy needs exclusive
    /// detector access and a label oracle; use
    /// [`DeploymentPipeline::online`].
    pub fn new(detector: &'a dyn DriftDetector, config: PipelineConfig) -> Self {
        assert!(
            config.policy == CalibrationPolicy::Frozen,
            "an online calibration policy needs DeploymentPipeline::online \
             (exclusive detector access and a label oracle)"
        );
        Self { engine: MultiPipeline::build(vec![DetectorHandle::Shared(detector)], config, None) }
    }

    /// Creates an *online* pipeline: each window's budget-selected relabel
    /// picks are labeled by `oracle` and folded into `detector`'s live
    /// calibration set under `config.policy`, closing the Sec. 5.4 online
    /// recalibration loop in-pipeline. With
    /// [`CalibrationPolicy::Frozen`] the pipeline behaves exactly like
    /// [`DeploymentPipeline::new`] (and never calls the oracle).
    ///
    /// # Panics
    ///
    /// Panics if `config.window` is 0, or if a
    /// [`CalibrationPolicy::Reservoir`] capacity is 0.
    pub fn online(
        detector: &'a mut dyn DriftDetector,
        config: PipelineConfig,
        oracle: impl FnMut(usize, &Sample) -> Option<Truth> + Send + 'a,
    ) -> Self {
        Self { engine: MultiPipeline::online(vec![detector], config, oracle) }
    }

    /// Installs the per-window hook (replacing any previous one): it
    /// receives each report together with the window's samples
    /// (`samples[i]` is global index `report.start + i`), so the caller
    /// can queue the `relabel` picks for ground-truth labeling and
    /// recalibrate the detector between streams.
    #[must_use]
    pub fn on_window(mut self, mut hook: impl FnMut(&WindowReport, &[Sample]) + Send + 'a) -> Self {
        self.engine = self.engine.on_window(move |multi, samples| hook(&multi.reports[0], samples));
        self
    }

    /// Publishes this pipeline's per-detector counters (judged /
    /// rejected / relabel-budget spend / absorbed, live calibration-set
    /// size) and the shard pool's job counters into `sink`'s registry,
    /// labeled `detector=<name>`. Without this call no instrument is
    /// resolved and the per-window bookkeeping skips metrics entirely.
    #[must_use]
    pub fn with_metrics(mut self, sink: &MetricsSink) -> Self {
        self.engine = self.engine.with_metrics(sink);
        self
    }

    /// Pushes one sample; the push that completes a window judges it to
    /// completion inside the call and returns its report.
    pub fn push(&mut self, sample: Sample) -> Option<WindowReport> {
        self.engine.push(sample).map(MultiReport::into_single)
    }

    /// Pushes every sample of `stream`, collecting the reports of all
    /// windows completed along the way.
    pub fn extend(&mut self, stream: impl IntoIterator<Item = Sample>) -> Vec<WindowReport> {
        stream.into_iter().filter_map(|s| self.push(s)).collect()
    }

    /// Judges whatever is buffered as a final (possibly short) window and
    /// returns its report — see [`MultiPipeline::flush`]. With nothing
    /// buffered, `flush` is a documented no-op returning `None`: it judges
    /// nothing, reports nothing, calls no hook, and leaves every counter
    /// untouched, so defensive double-flushing is always safe.
    pub fn flush(&mut self) -> Option<WindowReport> {
        self.engine.flush().map(MultiReport::into_single)
    }

    /// Samples accepted by `push` but not yet reported: the partial ingest
    /// buffer.
    pub fn pending(&self) -> usize {
        self.engine.pending()
    }

    /// Lifetime totals.
    pub fn stats(&self) -> PipelineStats {
        self.state().stats
    }

    /// Lifetime reservoir churn: how many absorbed relabels *replaced*
    /// an existing reservoir slot instead of appending (the sum of
    /// [`WindowReport::replaced`] over every window reported so far).
    /// Always 0 unless the pipeline runs
    /// [`CalibrationPolicy::Reservoir`]. Not part of
    /// [`DeploymentPipeline::snapshot`] — a restored pipeline restarts
    /// its churn count at 0.
    pub fn reservoir_churn(&self) -> usize {
        self.state().churn
    }

    /// The one detector's state inside the engine.
    fn state(&self) -> &DetectorState<'a> {
        &self.engine.states[0]
    }

    /// Captures everything this pipeline needs to resume **bit-identically**
    /// in a later process: the detector's portable state
    /// ([`DriftDetector::snapshot_state`]), the reservoir sampler's exact
    /// mid-stream position, the partial ingest buffer, and the stream
    /// counters. Every full window was judged by the push that filled it,
    /// so a snapshot never captures a half-judged window.
    ///
    /// Feed the value to [`DeploymentPipeline::restore_online`] (or
    /// [`DeploymentPipeline::restore`] for frozen pipelines) to resume;
    /// `serde::to_json_string` / `serde::from_json_str` round-trip it
    /// losslessly, so the snapshot survives a trip through a file.
    ///
    /// # Errors
    ///
    /// Errors when the pipeline runs an online (mutating) calibration
    /// policy over a detector that exposes no portable state — resuming
    /// such a pipeline elsewhere could not reproduce its absorbed records.
    pub fn snapshot(&self) -> Result<Value, DeError> {
        let state = self.state();
        let detector = state.detector.get().snapshot_state();
        if self.engine.config.policy != CalibrationPolicy::Frozen && detector.is_none() {
            return Err(DeError::custom(format!(
                "detector '{}' exposes no portable state, so this online pipeline \
                 cannot be snapshotted",
                state.detector.get().name()
            )));
        }
        let snap = PipelineSnapshot {
            pipeline: PIPELINE_SNAPSHOT_TAG.to_string(),
            window: self.engine.config.window,
            detector,
            reservoir: state.reservoir.as_ref().map(ReservoirCalibration::snapshot),
            buffer: self.engine.buffer.clone(),
            next_start: self.engine.next_start,
            stats: state.stats,
        };
        Ok(snap.to_value())
    }

    /// Rebuilds an *online* pipeline from a [`DeploymentPipeline::snapshot`]
    /// value: restores the detector's calibration state, revives the
    /// reservoir sampler at its exact RNG position, and resumes the stream
    /// counters — pushing the rest of the stream then yields reports
    /// bit-identical to the uninterrupted run
    /// (`tests/lifecycle_equivalence.rs`).
    ///
    /// `config` must match the snapshotted pipeline where bits depend on
    /// it: same `window`, same calibration policy family, same reservoir
    /// capacity. (A [`CalibrationPolicy::Reservoir`] seed is superseded by
    /// the snapshot's saved RNG position — the sampler resumes mid-stream,
    /// it does not restart.) The shard count may differ freely: it never
    /// changes report contents.
    ///
    /// # Errors
    ///
    /// Errors — without touching `detector` — when the value is not a
    /// pipeline snapshot, is internally inconsistent, or does not match
    /// `config`; and propagates [`DriftDetector::restore_state`] errors
    /// (which likewise leave the detector unchanged).
    ///
    /// # Panics
    ///
    /// Panics where [`DeploymentPipeline::online`] does (zero window,
    /// zero reservoir capacity).
    pub fn restore_online(
        detector: &'a mut dyn DriftDetector,
        config: PipelineConfig,
        oracle: impl FnMut(usize, &Sample) -> Option<Truth> + Send + 'a,
        state: &Value,
    ) -> Result<Self, DeError> {
        let snap = PipelineSnapshot::from_value(state)?;
        validate_pipeline_snapshot(&snap, &config)?;
        if let Some(detector_state) = &snap.detector {
            detector.restore_state(detector_state)?;
        }
        let mut pipeline = Self::online(detector, config, oracle);
        pipeline.resume(snap);
        Ok(pipeline)
    }

    /// Rebuilds a *frozen* pipeline from a [`DeploymentPipeline::snapshot`]
    /// value. A frozen pipeline never mutates its detector, so the caller
    /// supplies the same (externally owned) detector and only the stream
    /// position is restored: the partial buffer, the window counters, and
    /// the lifetime stats. The snapshot's embedded detector state, if any,
    /// is ignored.
    ///
    /// # Errors
    ///
    /// Errors when the value is not a pipeline snapshot, does not match
    /// `config`, or `config.policy` is not [`CalibrationPolicy::Frozen`]
    /// (use [`DeploymentPipeline::restore_online`]).
    pub fn restore(
        detector: &'a dyn DriftDetector,
        config: PipelineConfig,
        state: &Value,
    ) -> Result<Self, DeError> {
        if config.policy != CalibrationPolicy::Frozen {
            return Err(DeError::custom(
                "an online calibration policy needs DeploymentPipeline::restore_online \
                 (exclusive detector access and a label oracle)",
            ));
        }
        let snap = PipelineSnapshot::from_value(state)?;
        validate_pipeline_snapshot(&snap, &config)?;
        let mut pipeline = Self::new(detector, config);
        pipeline.resume(snap);
        Ok(pipeline)
    }

    /// Installs a validated snapshot's stream position into a freshly built
    /// pipeline (the shared tail of both restore constructors).
    fn resume(&mut self, snap: PipelineSnapshot) {
        let engine = &mut self.engine;
        engine.buffer = snap.buffer;
        engine.next_start = snap.next_start;
        let state = &mut engine.states[0];
        state.reservoir = snap.reservoir.as_ref().map(ReservoirCalibration::restore);
        state.stats = snap.stats;
    }
}

/// How a [`MultiPipeline`] spends its relabeling budget across the
/// detectors it serves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BudgetSharing {
    /// Every detector selects (and, online, absorbs) its **own** relabel
    /// picks from its own judgements — exactly what N independent
    /// single-detector pipelines would do, which is why this mode is
    /// bit-identical to them (`tests/pipeline_equivalence.rs`). The
    /// labeling cost is up to N × the per-window budget.
    #[default]
    PerDetector,
    /// One selection per window, made from the designated detector's
    /// judgements under the pipeline's [`SelectionPolicy`], and offered
    /// to **every** detector's calibration policy: the stream pays one
    /// relabeling budget total, and each detector absorbs the same
    /// expert labels — the honest same-stream comparison mode, where
    /// detectors differ only in how they judge, never in what ground
    /// truth they were fed.
    Shared {
        /// Index (registration order) of the detector whose judgements
        /// drive the shared selection.
        selector: usize,
    },
}

/// What one judged window produced across every detector of a
/// [`MultiPipeline`]: the shared window geometry plus one full
/// [`WindowReport`] per detector, in registration order. Each
/// per-detector report is exactly what a single-detector
/// [`DeploymentPipeline`] over the same stream would have produced
/// (under [`BudgetSharing::PerDetector`]).
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// 0-based window number.
    pub index: usize,
    /// Global index of the window's first sample.
    pub start: usize,
    /// One report per registered detector, in registration order.
    pub reports: Vec<WindowReport>,
}

impl MultiReport {
    /// The only per-detector report of a single-detector window.
    pub(crate) fn into_single(self) -> WindowReport {
        debug_assert_eq!(self.reports.len(), 1, "a single-detector window carries one report");
        self.reports.into_iter().next().expect("every window reports its detector")
    }
}

/// The multi-detector window hook: each [`MultiReport`] together with the
/// window's samples (`samples[i]` is global index `report.start + i`).
pub type MultiWindowHook<'a> = Box<dyn FnMut(&MultiReport, &[Sample]) + Send + 'a>;

/// A streaming deployment front-end that serves **N ≥ 1 detectors over one
/// sample stream** — the one window engine behind every pipeline
/// ([`DeploymentPipeline`] is its single-detector view). Each window is
/// ingested once and judged for every registered detector — inline on
/// the caller thread, or as independent jobs on one shared [`ShardPool`]
/// — so comparing detectors in production shape no longer means
/// replaying the stream (and re-paying the underlying model's forward
/// pass) once per detector.
///
/// Reports are bit-identical per detector to N independent
/// single-detector pipelines over the same stream — judgements,
/// flagged/relabel indices, online absorption, post-run calibration sets
/// — in every execution mode (`tests/pipeline_equivalence.rs`), provided
/// the label oracle is a pure function of `(global index, sample)`.
///
/// A pool is built only when `shards ≥ 2`. Otherwise every window is
/// judged inline with one scratch owned by the pipeline — no extra
/// thread, no cross-thread handoff. Either way the push that fills a
/// window returns that window's reports.
///
/// ```
/// use prom_core::detector::{DriftDetector, Judgement, Sample};
/// use prom_core::pipeline::{MultiPipeline, PipelineConfig};
///
/// struct Threshold(f64);
/// impl DriftDetector for Threshold {
///     fn name(&self) -> &'static str {
///         "threshold"
///     }
///     fn judge_one(&self, _e: &[f64], outputs: &[f64]) -> Judgement {
///         Judgement::single(outputs[0] < self.0)
///     }
/// }
///
/// let (strict, lax) = (Threshold(0.8), Threshold(0.3));
/// let mut pipeline = MultiPipeline::new(
///     vec![&strict, &lax],
///     PipelineConfig { window: 2, shards: 2, ..Default::default() },
/// );
/// assert!(pipeline.push(Sample::new(vec![0.0], vec![0.5, 0.5])).is_none());
/// let multi = pipeline.push(Sample::new(vec![1.0], vec![0.9, 0.1])).unwrap();
/// // One report per detector over the SAME two samples:
/// assert_eq!(multi.reports.len(), 2);
/// assert_eq!(multi.reports[0].flagged, vec![0], "strict flags the 0.5");
/// assert!(multi.reports[1].flagged.is_empty(), "lax accepts both");
/// assert!(pipeline.flush().is_none(), "nothing left buffered");
/// ```
pub struct MultiPipeline<'a> {
    /// The shared shard executor (absent when every window is
    /// judged inline on the caller thread).
    pool: Option<ShardPool>,
    states: Vec<DetectorState<'a>>,
    config: PipelineConfig,
    sharing: BudgetSharing,
    buffer: Vec<Sample>,
    /// Global index of the first sample of the next window to be judged.
    next_start: usize,
    hook: Option<MultiWindowHook<'a>>,
    oracle: Option<LabelOracle<'a>>,
    /// The fused fan-out engine, when this pipeline was built with
    /// [`MultiPipeline::fanout`]: windows are judged through ONE kernel
    /// pass per sample and re-thresholded per served configuration,
    /// instead of one independent full judging job per detector.
    fused: Option<FusedFanout<'a>>,
    /// The caller-side scratch for inline (pool-less) judging.
    scratch: JudgeScratch,
}

/// The shared-kernel engine behind [`MultiPipeline::fanout`].
struct FusedFanout<'a> {
    base: &'a PromClassifier,
    /// One threshold configuration per registered detector, in
    /// registration order.
    configs: Vec<PromConfig>,
}

/// Judges `shard` once per sample through the shared kernel and returns
/// **sample-major** rows (`rows[s][c]` = sample `s` under configuration
/// `c`) — the shape [`ShardPool::map`] stitching needs (one element per
/// input sample).
fn fanout_rows(
    base: &PromClassifier,
    configs: &[PromConfig],
    shard: &[Sample],
    scratch: &mut JudgeScratch,
) -> Vec<Vec<PromJudgement>> {
    let per_config = base.judge_batch_fanout_scratch(shard, configs, scratch);
    let mut rows: Vec<Vec<PromJudgement>> =
        (0..shard.len()).map(|_| Vec::with_capacity(configs.len())).collect();
    for column in per_config {
        for (row, judgement) in rows.iter_mut().zip(column) {
            row.push(judgement);
        }
    }
    rows
}

/// Transposes stitched sample-major fan-out rows back into one column per
/// served configuration (see [`fanout_judged`]).
fn split_fanout(rows: Vec<Vec<PromJudgement>>, states: &[DetectorState<'_>]) -> Vec<Judged> {
    let mut columns: Vec<Vec<PromJudgement>> =
        (0..states.len()).map(|_| Vec::with_capacity(rows.len())).collect();
    for row in rows {
        debug_assert_eq!(row.len(), states.len(), "one judgement per served configuration");
        for (column, judgement) in columns.iter_mut().zip(row) {
            column.push(judgement);
        }
    }
    fanout_judged(columns, states)
}

/// One [`Judged`] window per detector from its fan-out column, in the
/// form each detector's selection policy picked at construction (rich, or
/// flattened exactly like [`DriftDetector::judge_batch`] flattens).
fn fanout_judged(columns: Vec<Vec<PromJudgement>>, states: &[DetectorState<'_>]) -> Vec<Judged> {
    columns
        .into_iter()
        .zip(states)
        .map(|(column, state)| {
            if state.rich {
                Judged::Rich(column)
            } else {
                Judged::Flat(column.into_iter().map(Judgement::from).collect())
            }
        })
        .collect()
}

impl<'a> MultiPipeline<'a> {
    /// Creates a *frozen* multi-detector pipeline: no calibration set is
    /// ever touched, so shared access suffices.
    ///
    /// # Panics
    ///
    /// Panics if `detectors` is empty, if `config.window` is 0, or if
    /// `config.policy` is not [`CalibrationPolicy::Frozen`] — an online
    /// policy needs exclusive detector access and a label oracle; use
    /// [`MultiPipeline::online`].
    pub fn new(detectors: Vec<&'a dyn DriftDetector>, config: PipelineConfig) -> Self {
        assert!(
            config.policy == CalibrationPolicy::Frozen,
            "an online calibration policy needs MultiPipeline::online \
             (exclusive detector access and a label oracle)"
        );
        Self::build(detectors.into_iter().map(DetectorHandle::Shared).collect(), config, None)
    }

    /// Creates an *online* multi-detector pipeline: each window's relabel
    /// picks are labeled by `oracle` and folded into every detector's
    /// live calibration set under `config.policy` — per-detector picks by
    /// default, or one shared pick set via
    /// [`MultiPipeline::shared_budget`].
    ///
    /// For the per-detector reports to match N independent
    /// single-detector pipelines bit-for-bit, `oracle` must be a pure
    /// function of its arguments (the same `(global, sample)` query can
    /// be asked once per detector).
    ///
    /// # Panics
    ///
    /// Panics if `detectors` is empty, if `config.window` is 0, or if a
    /// [`CalibrationPolicy::Reservoir`] capacity is 0.
    pub fn online(
        detectors: Vec<&'a mut dyn DriftDetector>,
        config: PipelineConfig,
        oracle: impl FnMut(usize, &Sample) -> Option<Truth> + Send + 'a,
    ) -> Self {
        Self::build(
            detectors.into_iter().map(DetectorHandle::Exclusive).collect(),
            config,
            Some(Box::new(oracle)),
        )
    }

    /// Creates a **fused** frozen multi-detector pipeline: `configs.len()`
    /// detectors, each a [`PromThresholdView`] of `base` with its own
    /// ε / confidence / committee thresholds, served from **one conformal
    /// kernel pass per sample**. Where [`MultiPipeline::new`] over N
    /// independent `PromClassifier`s pays N subset selections and N
    /// p-value passes per sample, the fused form pays one selection and
    /// one p-value pass per (sample, expert) and re-thresholds N times —
    /// thresholding is arithmetic on four floats, so fan-out is nearly
    /// free (`benches/multi_pipeline.rs`).
    ///
    /// Reports are bit-identical to [`MultiPipeline::new`] over N
    /// standalone `PromClassifier`s built from the same calibration
    /// records with the same selection parameters
    /// (`tests/kernel_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`PromError::InvalidConfig`] if any served configuration
    /// fails validation.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, if `config.window` is 0, or if
    /// `config.policy` is not [`CalibrationPolicy::Frozen`] (threshold
    /// views borrow `base` immutably and cannot absorb relabels).
    pub fn fanout(
        base: &'a PromClassifier,
        configs: Vec<PromConfig>,
        config: PipelineConfig,
    ) -> Result<Self, PromError> {
        assert!(
            config.policy == CalibrationPolicy::Frozen,
            "a fused fan-out serves frozen threshold views; online \
             calibration needs MultiPipeline::online over exclusive detectors"
        );
        let handles = configs
            .iter()
            .map(|c| {
                PromThresholdView::new(base, c.clone())
                    .map(|view| DetectorHandle::Owned(Box::new(view)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut built = Self::build(handles, config, None);
        built.fused = Some(FusedFanout { base, configs });
        Ok(built)
    }

    fn build(
        handles: Vec<DetectorHandle<'a>>,
        config: PipelineConfig,
        oracle: Option<LabelOracle<'a>>,
    ) -> Self {
        assert!(!handles.is_empty(), "a multi-detector pipeline needs at least one detector");
        assert!(config.window >= 1, "pipeline window must hold at least one sample");
        let states = handles.into_iter().map(|h| DetectorState::new(h, &config)).collect();
        Self {
            pool: (config.shards >= 2).then(|| ShardPool::new(config.shards)),
            states,
            config,
            sharing: BudgetSharing::PerDetector,
            buffer: Vec::with_capacity(config.window),
            next_start: 0,
            hook: None,
            oracle,
            fused: None,
            scratch: JudgeScratch::new(),
        }
    }

    /// Switches the pipeline to [`BudgetSharing::Shared`]: one relabel
    /// selection per window, made from detector `selector`'s judgements,
    /// absorbed by every detector.
    ///
    /// # Panics
    ///
    /// Panics if `selector` is not a registered detector index.
    #[must_use]
    pub fn shared_budget(mut self, selector: usize) -> Self {
        assert!(
            selector < self.states.len(),
            "shared-budget selector {selector} out of range ({} detectors)",
            self.states.len()
        );
        self.sharing = BudgetSharing::Shared { selector };
        self
    }

    /// Installs the per-window hook (replacing any previous one).
    #[must_use]
    pub fn on_window(mut self, hook: impl FnMut(&MultiReport, &[Sample]) + Send + 'a) -> Self {
        self.hook = Some(Box::new(hook));
        self
    }

    /// Publishes every detector's per-window counters and the shared
    /// pool's job counters (when a pool exists) into `sink`'s registry,
    /// one `detector=<name>` label per registered detector. See
    /// [`DeploymentPipeline::with_metrics`].
    #[must_use]
    pub fn with_metrics(mut self, sink: &MetricsSink) -> Self {
        for state in &mut self.states {
            state.attach_metrics(sink);
        }
        if let Some(pool) = &self.pool {
            pool.attach_metrics(sink);
        }
        self
    }

    /// Number of registered detectors.
    pub fn detectors(&self) -> usize {
        self.states.len()
    }

    /// Detector display names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.states.iter().map(|s| s.detector.get().name()).collect()
    }

    /// Pushes one sample; the push that fills a window judges it to
    /// completion for every detector and returns its per-detector
    /// reports.
    pub fn push(&mut self, sample: Sample) -> Option<MultiReport> {
        self.buffer.push(sample);
        for state in &mut self.states {
            state.stats.pushed += 1;
        }
        (self.buffer.len() >= self.config.window).then(|| self.emit())
    }

    /// Pushes every sample of `stream`, collecting the reports of all
    /// windows completed along the way.
    pub fn extend(&mut self, stream: impl IntoIterator<Item = Sample>) -> Vec<MultiReport> {
        stream.into_iter().filter_map(|s| self.push(s)).collect()
    }

    /// Judges whatever is buffered as a final (possibly short) window and
    /// returns its report-set, per-detector reports in registration
    /// order. With nothing buffered, `flush` is a documented no-op:
    /// judges nothing, reports nothing, calls no hook, leaves every
    /// counter untouched.
    pub fn flush(&mut self) -> Option<MultiReport> {
        (!self.buffer.is_empty()).then(|| self.emit())
    }

    /// Samples accepted by `push` but not yet reported (the partial
    /// ingest buffer).
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Lifetime totals, one per detector in registration order. Each
    /// entry is exactly what the corresponding single-detector pipeline's
    /// [`DeploymentPipeline::stats`] would report.
    pub fn stats(&self) -> Vec<PipelineStats> {
        self.states.iter().map(|s| s.stats).collect()
    }

    /// Lifetime reservoir churn per detector, in registration order —
    /// see [`DeploymentPipeline::reservoir_churn`].
    pub fn reservoir_churn(&self) -> Vec<usize> {
        self.states.iter().map(|s| s.churn).collect()
    }

    /// Judges the buffered window to completion for every detector and
    /// reports it.
    fn emit(&mut self) -> MultiReport {
        let samples = std::mem::take(&mut self.buffer);
        let start = self.next_start;
        self.next_start += samples.len();
        let judged = judge_window(
            &self.states,
            self.fused.as_ref(),
            self.pool.as_ref(),
            &mut self.scratch,
            &samples,
        );
        let report = self.finish_window(&samples, judged, start);
        // Recycle the window's allocation as the next ingest buffer.
        let mut samples = samples;
        samples.clear();
        self.buffer = samples;
        report
    }

    /// The per-window bookkeeping fan-in: shared-budget selection (when
    /// configured), then every detector's flagging / selection / folding
    /// / stats, in registration order, strictly on the caller thread —
    /// plus the caller's hook.
    fn finish_window(
        &mut self,
        samples: &[Sample],
        judged: Vec<Judged>,
        start: usize,
    ) -> MultiReport {
        // Shared-budget mode: one selection per window, from the
        // designated detector's judgements (computed before any folding,
        // exactly like the per-detector selections).
        let shared: Option<Vec<usize>> = match self.sharing {
            BudgetSharing::PerDetector => None,
            BudgetSharing::Shared { selector } => Some(
                judged[selector]
                    .select(self.config.budget)
                    .into_iter()
                    .map(|i| start + i)
                    .collect(),
            ),
        };
        // Every detector reports every window, so any detector's window
        // count is the pipeline's.
        let index = self.states[0].stats.windows;
        let config = &self.config;
        let oracle = &mut self.oracle;
        let reports: Vec<WindowReport> = self
            .states
            .iter_mut()
            .zip(judged)
            .map(|(state, judged)| {
                state.finish_window(
                    samples,
                    judged,
                    start,
                    config,
                    oracle.as_mut(),
                    shared.as_deref(),
                )
            })
            .collect();
        let report = MultiReport { index, start, reports };
        if let Some(hook) = self.hook.as_mut() {
            hook(&report, samples);
        }
        report
    }
}

/// Judges a window to completion for every detector, in the form each
/// detector's selection policy picked at construction: on the caller
/// thread with the pipeline's one scratch, or split across `pool`'s
/// shards, which [`ShardPool::map`] stitches back bit-identically.
fn judge_window(
    states: &[DetectorState<'_>],
    fused: Option<&FusedFanout<'_>>,
    pool: Option<&ShardPool>,
    scratch: &mut JudgeScratch,
    samples: &[Sample],
) -> Vec<Judged> {
    if let Some(fused) = fused {
        let FusedFanout { base, configs } = fused;
        return match pool {
            Some(pool) => split_fanout(
                pool.map(samples, |shard, scratch| fanout_rows(base, configs, shard, scratch)),
                states,
            ),
            None => {
                fanout_judged(base.judge_batch_fanout_scratch(samples, configs, scratch), states)
            }
        };
    }
    states
        .iter()
        .map(|state| {
            let detector = state.detector.get();
            if state.rich {
                Judged::Rich(map_window(pool, scratch, samples, |shard, scratch| {
                    detector.judge_batch_rich_scratch(shard, scratch).expect(RICH_IS_GLOBAL)
                }))
            } else {
                Judged::Flat(map_window(pool, scratch, samples, |shard, scratch| {
                    detector.judge_batch_scratch(shard, scratch)
                }))
            }
        })
        .collect()
}

/// Runs one window through `f`: across `pool`'s shards when there is a
/// pool, else directly with the caller's scratch.
fn map_window<T: Send>(
    pool: Option<&ShardPool>,
    scratch: &mut JudgeScratch,
    samples: &[Sample],
    f: impl Fn(&[Sample], &mut JudgeScratch) -> Vec<T> + Sync,
) -> Vec<T> {
    match pool {
        Some(pool) => pool.map(samples, f),
        None => f(samples, scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rejects samples whose first output is below 0.5.
    struct Threshold;

    impl DriftDetector for Threshold {
        fn name(&self) -> &'static str {
            "threshold"
        }

        fn judge_one(&self, _embedding: &[f64], outputs: &[f64]) -> Judgement {
            Judgement::single(outputs[0] < 0.5)
        }
    }

    fn stream(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let conf = 0.2 + 0.6 * ((i % 7) as f64 / 6.0);
                Sample::new(vec![i as f64], vec![conf, 1.0 - conf])
            })
            .collect()
    }

    #[test]
    fn pipeline_emits_full_windows_and_flushes_the_tail() {
        let det = Threshold;
        let mut pipeline = DeploymentPipeline::new(
            &det,
            PipelineConfig { window: 10, shards: 3, ..Default::default() },
        );
        let reports = pipeline.extend(stream(25));
        assert_eq!(reports.len(), 2);
        assert_eq!(pipeline.pending(), 5);
        let tail = pipeline.flush().expect("tail window");
        assert_eq!(tail.index, 2);
        assert_eq!(tail.start, 20);
        assert_eq!(tail.judgements.len(), 5);
        assert!(pipeline.flush().is_none());

        let stats = pipeline.stats();
        assert_eq!(stats.pushed, 25);
        assert_eq!(stats.judged, 25);
        assert_eq!(stats.windows, 3);
    }

    #[test]
    fn pipeline_judgements_match_one_sequential_batch() {
        let det = Threshold;
        let samples = stream(47);
        let mut pipeline = DeploymentPipeline::new(
            &det,
            PipelineConfig { window: 8, shards: 4, ..Default::default() },
        );
        let mut windowed = Vec::new();
        for r in pipeline.extend(samples.iter().cloned()) {
            windowed.extend(r.judgements);
        }
        if let Some(r) = pipeline.flush() {
            windowed.extend(r.judgements);
        }
        assert_eq!(windowed, det.judge_batch(&samples));
    }

    #[test]
    fn window_reports_use_global_indices_and_budgeted_selection() {
        let det = Threshold;
        // Window of 4 with conf pattern: indices 0,7,14,... rejected.
        let budget = RelabelBudget { fraction: 0.5, min_count: 1 };
        let mut pipeline = DeploymentPipeline::new(
            &det,
            PipelineConfig { window: 4, shards: 2, budget, ..Default::default() },
        );
        let reports = pipeline.extend(stream(8));
        assert_eq!(reports.len(), 2);
        for report in &reports {
            assert!(report.flagged.iter().all(|&i| i >= report.start && i < report.start + 4));
            assert!(report.relabel.iter().all(|i| report.flagged.contains(i)));
            assert_eq!(report.relabel.len(), budget.allowance(report.flagged.len()));
        }
        // Sample 7 (conf 0.2) is rejected and lands in the second window.
        assert!(reports[1].flagged.contains(&7));
    }

    #[test]
    fn window_hook_sees_every_window_with_its_samples() {
        let det = Threshold;
        let mut seen: Vec<(usize, usize, f64)> = Vec::new();
        let mut pipeline = DeploymentPipeline::new(
            &det,
            PipelineConfig { window: 5, shards: 2, ..Default::default() },
        )
        .on_window(|report, samples| {
            seen.push((report.index, samples.len(), samples[0].embedding[0]));
        });
        pipeline.extend(stream(12));
        pipeline.flush();
        drop(pipeline);
        assert_eq!(seen, vec![(0, 5, 0.0), (1, 5, 5.0), (2, 2, 10.0)]);
    }

    #[test]
    fn flush_after_a_full_drain_is_a_noop_in_both_modes() {
        let det = Threshold;
        // Inline (1 shard) and pooled (2 shards) judging.
        for shards in [1, 2] {
            let hook_calls = std::sync::atomic::AtomicUsize::new(0);
            let mut pipeline = DeploymentPipeline::new(
                &det,
                PipelineConfig { window: 5, shards, ..Default::default() },
            )
            .on_window(|_, _| {
                hook_calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
            pipeline.extend(stream(13));
            while pipeline.flush().is_some() {}
            let drained = pipeline.stats();
            assert_eq!(drained.judged, 13, "shards {shards}");
            assert_eq!(drained.windows, 3, "shards {shards}");
            assert_eq!(hook_calls.load(std::sync::atomic::Ordering::SeqCst), 3, "shards {shards}");

            // The documented no-op: an empty partial window means flush
            // judges nothing, reports nothing, calls no hook, and leaves
            // every counter untouched — however often it is called.
            for _ in 0..3 {
                assert!(pipeline.flush().is_none(), "shards {shards}");
            }
            assert_eq!(pipeline.stats(), drained, "shards {shards}");
            assert_eq!(hook_calls.load(std::sync::atomic::Ordering::SeqCst), 3, "shards {shards}");
            drop(pipeline);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_window_panics() {
        let det = Threshold;
        let _ = DeploymentPipeline::new(
            &det,
            PipelineConfig { window: 0, shards: 1, ..Default::default() },
        );
    }

    /// A detector with a live calibration store, for online-policy tests:
    /// judges like [`Threshold`] and records every absorb/replace.
    struct Absorbing {
        base: usize,
        online: Vec<Relabeled>,
    }

    impl Absorbing {
        fn new(base: usize) -> Self {
            Self { base, online: Vec::new() }
        }
    }

    impl DriftDetector for Absorbing {
        fn name(&self) -> &'static str {
            "absorbing"
        }

        fn judge_one(&self, _embedding: &[f64], outputs: &[f64]) -> Judgement {
            Judgement::single(outputs[0] < 0.5)
        }

        fn calibration_size(&self) -> Option<usize> {
            Some(self.base + self.online.len())
        }

        fn can_absorb(&self, r: &Relabeled) -> bool {
            r.sample.embedding.iter().all(|v| !v.is_nan())
        }

        fn absorb_relabeled(&mut self, batch: &[Relabeled]) -> usize {
            // Skip NaN embeddings, like the real detectors.
            let valid: Vec<Relabeled> =
                batch.iter().filter(|r| self.can_absorb(r)).cloned().collect();
            let n = valid.len();
            self.online.extend(valid);
            n
        }

        fn replace_record(&mut self, index: usize, r: &Relabeled) -> bool {
            let Some(slot) = index.checked_sub(self.base) else {
                return false;
            };
            if slot >= self.online.len() || r.sample.embedding.iter().any(|v| v.is_nan()) {
                return false;
            }
            self.online[slot] = r.clone();
            true
        }

        fn base_len(&self) -> Option<usize> {
            Some(self.base)
        }

        fn evict_oldest_base(&mut self) -> bool {
            if self.base == 0 || self.base + self.online.len() <= 1 {
                return false;
            }
            self.base -= 1;
            true
        }
    }

    #[test]
    fn online_grow_unbounded_folds_every_labeled_pick() {
        let mut det = Absorbing::new(10);
        let mut pipeline = DeploymentPipeline::online(
            &mut det,
            PipelineConfig {
                window: 5,
                shards: 2,
                policy: CalibrationPolicy::GrowUnbounded,
                ..Default::default()
            },
            |global, _s| Some(Truth::Label(global % 2)),
        );
        let mut reports = pipeline.extend(stream(23));
        reports.extend(pipeline.flush());
        let stats = pipeline.stats();
        drop(pipeline);

        let selected: usize = reports.iter().map(|r| r.relabel.len()).sum();
        assert!(selected > 0, "the stream must flag something");
        assert_eq!(stats.absorbed, selected, "every labeled pick is absorbed");
        assert_eq!(det.online.len(), selected);
        for report in &reports {
            assert_eq!(report.absorbed, report.relabel.len());
        }
        // The last report sees the fully grown set.
        assert_eq!(reports.last().unwrap().calibration_size, Some(10 + selected));
        // Absorbed samples carry the oracle's truth for their global index.
        for (r, report_global) in
            det.online.iter().zip(reports.iter().flat_map(|r| r.relabel.iter()))
        {
            assert_eq!(r.truth, Truth::Label(report_global % 2));
        }
    }

    #[test]
    fn online_reservoir_caps_growth_and_replaces_in_place() {
        let cap = 3;
        let mut det = Absorbing::new(7);
        let mut pipeline = DeploymentPipeline::online(
            &mut det,
            PipelineConfig {
                window: 4,
                shards: 1,
                budget: RelabelBudget { fraction: 1.0, min_count: 1 },
                policy: CalibrationPolicy::Reservoir { cap, seed: 11 },
                ..Default::default()
            },
            |global, _s| Some(Truth::Label(global)),
        );
        let mut reports = pipeline.extend(stream(60));
        reports.extend(pipeline.flush());
        let stats = pipeline.stats();
        drop(pipeline);

        assert!(det.online.len() <= cap, "online growth must stay within cap");
        assert!(
            stats.relabel_selected > cap,
            "the stream must offer more relabels than the cap to exercise eviction"
        );
        assert!(
            stats.absorbed > det.online.len(),
            "replacements count as absorbed beyond the live slots"
        );
        for report in &reports {
            assert!(report.calibration_size.unwrap() <= 7 + cap);
        }
    }

    #[test]
    fn online_reservoir_is_deterministic_per_seed() {
        let run = |seed: u64| -> (Vec<usize>, Vec<usize>) {
            let mut det = Absorbing::new(5);
            let mut pipeline = DeploymentPipeline::online(
                &mut det,
                PipelineConfig {
                    window: 6,
                    shards: 2,
                    budget: RelabelBudget { fraction: 1.0, min_count: 1 },
                    policy: CalibrationPolicy::Reservoir { cap: 4, seed },
                    ..Default::default()
                },
                |global, _s| Some(Truth::Label(global)),
            );
            let mut reports = pipeline.extend(stream(90));
            reports.extend(pipeline.flush());
            drop(pipeline);
            let absorbed_per_window = reports.iter().map(|r| r.absorbed).collect();
            let live: Vec<usize> = det
                .online
                .iter()
                .map(|r| match r.truth {
                    Truth::Label(g) => g,
                    Truth::Target(_) => unreachable!(),
                })
                .collect();
            (absorbed_per_window, live)
        };
        assert_eq!(run(3), run(3), "same seed, same stream: identical folding");
    }

    #[test]
    fn online_frozen_matches_shared_pipeline_and_never_calls_the_oracle() {
        let det = Threshold;
        let mut frozen = DeploymentPipeline::new(
            &det,
            PipelineConfig { window: 6, shards: 2, ..Default::default() },
        );
        let mut frozen_reports = frozen.extend(stream(40));
        frozen_reports.extend(frozen.flush());

        let mut absorbing = Absorbing::new(3);
        let mut online = DeploymentPipeline::online(
            &mut absorbing,
            PipelineConfig { window: 6, shards: 2, ..Default::default() },
            |_, _| panic!("a frozen online pipeline must never consult the oracle"),
        );
        let mut online_reports = online.extend(stream(40));
        online_reports.extend(online.flush());
        let stats = online.stats();
        drop(online);

        assert_eq!(stats.absorbed, 0);
        assert!(absorbing.online.is_empty(), "frozen must not touch the calibration set");
        assert_eq!(frozen_reports.len(), online_reports.len());
        for (f, o) in frozen_reports.iter().zip(online_reports.iter()) {
            assert_eq!(f.judgements, o.judgements);
            assert_eq!(f.flagged, o.flagged);
            assert_eq!(f.relabel, o.relabel);
            assert_eq!(o.absorbed, 0);
        }
    }

    /// A rich-path detector for selection-policy tests: rejects first
    /// outputs below 0.5, and reports the first output itself as every
    /// expert's credibility (so credibility ranking picks the *lowest*
    /// first outputs while reject-vote ranking falls back to stream
    /// order).
    struct RichThreshold;

    impl DriftDetector for RichThreshold {
        fn name(&self) -> &'static str {
            "rich-threshold"
        }

        fn judge_one(&self, embedding: &[f64], outputs: &[f64]) -> Judgement {
            Judgement::from(self.rich_one(embedding, outputs))
        }

        fn judge_batch_rich_scratch(
            &self,
            samples: &[Sample],
            _scratch: &mut JudgeScratch,
        ) -> Option<Vec<PromJudgement>> {
            Some(samples.iter().map(|s| self.rich_one(&s.embedding, &s.outputs)).collect())
        }
    }

    impl RichThreshold {
        fn rich_one(&self, _embedding: &[f64], outputs: &[f64]) -> PromJudgement {
            let reject = outputs[0] < 0.5;
            PromJudgement {
                accepted: !reject,
                reject_votes: usize::from(reject),
                verdicts: vec![crate::committee::ExpertVerdict {
                    expert: "unit".into(),
                    credibility: outputs[0],
                    confidence: 1.0,
                    prediction_set_size: 1,
                    reject,
                }],
            }
        }
    }

    #[test]
    fn credibility_rank_selects_lowest_credibility_rejects() {
        let det = RichThreshold;
        // Rejected confidences, in stream order: 0.4, 0.1, 0.3.
        let samples = [
            Sample::new(vec![0.0], vec![0.4, 0.6]),
            Sample::new(vec![1.0], vec![0.9, 0.1]),
            Sample::new(vec![2.0], vec![0.1, 0.9]),
            Sample::new(vec![3.0], vec![0.3, 0.7]),
        ];
        // 3 flagged × 0.5, ceiled: 2 picks.
        let budget = RelabelBudget { fraction: 0.5, min_count: 1 };
        let run = |selection: SelectionPolicy| {
            let mut pipeline = DeploymentPipeline::new(
                &det,
                PipelineConfig { window: 4, shards: 2, budget, selection, ..Default::default() },
            );
            let mut reports = pipeline.extend(samples.iter().cloned());
            reports.extend(pipeline.flush());
            reports.remove(0)
        };

        let by_votes = run(SelectionPolicy::RejectVote);
        let by_credibility = run(SelectionPolicy::CredibilityRank);
        // Same judgements, same flags — flattening the rich judgement is
        // judge_batch's own definition.
        assert_eq!(by_votes.judgements, by_credibility.judgements);
        assert_eq!(by_votes.flagged, by_credibility.flagged);
        assert_eq!(by_votes.flagged, vec![0, 2, 3]);
        // Reject-vote: equal vote fractions, ties by stream order.
        assert_eq!(by_votes.relabel, vec![0, 2]);
        // Credibility: most drifted (lowest credibility) first.
        assert_eq!(by_credibility.relabel, vec![2, 3]);
    }

    #[test]
    fn credibility_rank_falls_back_to_reject_vote_without_a_rich_path() {
        let det = Threshold;
        let run = |selection: SelectionPolicy| {
            let mut pipeline = DeploymentPipeline::new(
                &det,
                PipelineConfig { window: 5, shards: 2, selection, ..Default::default() },
            );
            let mut reports = pipeline.extend(stream(23));
            reports.extend(pipeline.flush());
            reports
        };
        let votes = run(SelectionPolicy::RejectVote);
        let credibility = run(SelectionPolicy::CredibilityRank);
        assert_eq!(votes.len(), credibility.len());
        for (a, b) in votes.iter().zip(credibility.iter()) {
            assert_eq!(a.judgements, b.judgements);
            assert_eq!(a.relabel, b.relabel, "no rich path: selection must fall back");
        }
    }

    #[test]
    fn multi_pipeline_reports_match_independent_single_pipelines() {
        let strict = Threshold;
        let rich = RichThreshold;
        let config = PipelineConfig { window: 6, shards: 2, ..Default::default() };
        let single = |det: &dyn DriftDetector| {
            let mut pipeline = DeploymentPipeline::new(det, config);
            let mut reports = pipeline.extend(stream(40));
            while let Some(r) = pipeline.flush() {
                reports.push(r);
            }
            (reports, pipeline.stats())
        };
        let (strict_reports, strict_stats) = single(&strict);
        let (rich_reports, rich_stats) = single(&rich);

        let mut multi = MultiPipeline::new(vec![&strict, &rich], config);
        let mut reports = multi.extend(stream(40));
        while let Some(r) = multi.flush() {
            reports.push(r);
        }
        assert_eq!(multi.names(), vec!["threshold", "rich-threshold"]);
        assert_eq!(reports.len(), strict_reports.len());
        for (w, multi_report) in reports.iter().enumerate() {
            for (single_report, multi_detector_report) in
                [&strict_reports[w], &rich_reports[w]].into_iter().zip(multi_report.reports.iter())
            {
                assert_eq!(multi_report.index, single_report.index);
                assert_eq!(multi_report.start, single_report.start);
                assert_eq!(single_report.judgements, multi_detector_report.judgements);
                assert_eq!(single_report.flagged, multi_detector_report.flagged);
                assert_eq!(single_report.relabel, multi_detector_report.relabel);
            }
        }
        assert_eq!(multi.stats(), vec![strict_stats, rich_stats]);
    }

    #[test]
    fn multi_shared_budget_feeds_every_detector_the_selectors_picks() {
        let mut a = Absorbing::new(3);
        let mut b = Absorbing::new(8);
        let mut pipeline = MultiPipeline::online(
            vec![&mut a, &mut b],
            PipelineConfig {
                window: 5,
                shards: 2,
                policy: CalibrationPolicy::GrowUnbounded,
                ..Default::default()
            },
            |global, _s| Some(Truth::Label(global)),
        )
        .shared_budget(0);
        let mut reports = pipeline.extend(stream(25));
        while let Some(r) = pipeline.flush() {
            reports.push(r);
        }
        drop(pipeline);

        let mut selected = 0usize;
        for multi in &reports {
            let [ra, rb] = &multi.reports[..] else { panic!("two detectors") };
            assert_eq!(ra.relabel, rb.relabel, "shared budget: one pick set per window");
            assert_eq!(ra.absorbed, rb.absorbed);
            selected += ra.relabel.len();
        }
        assert!(selected > 0, "the stream must flag something");
        // Both detectors absorbed the same oracle labels, in the same order.
        assert_eq!(a.online.len(), selected);
        let labels = |d: &Absorbing| d.online.iter().map(|r| r.truth).collect::<Vec<_>>();
        assert_eq!(labels(&a), labels(&b));
    }

    #[test]
    #[should_panic(expected = "at least one detector")]
    fn multi_pipeline_rejects_zero_detectors() {
        let _ = MultiPipeline::new(Vec::new(), PipelineConfig::default());
    }

    #[test]
    #[should_panic(expected = "selector 2 out of range")]
    fn multi_pipeline_rejects_out_of_range_selector() {
        let det = Threshold;
        let _ = MultiPipeline::new(vec![&det, &det], PipelineConfig::default()).shared_budget(2);
    }

    #[test]
    fn online_skips_unlabeled_and_invalid_picks_without_slot_leaks() {
        // The oracle answers only even indices, and every answered sample
        // at index divisible by 4 carries a NaN embedding the detector
        // must reject: neither may leak a reservoir slot.
        let cap = 2;
        let mut det = Absorbing::new(0);
        let mut samples = stream(24);
        for (i, s) in samples.iter_mut().enumerate() {
            if i % 4 == 0 {
                s.embedding[0] = f64::NAN;
            }
        }
        let mut pipeline = DeploymentPipeline::online(
            &mut det,
            PipelineConfig {
                window: 4,
                shards: 1,
                budget: RelabelBudget { fraction: 1.0, min_count: 1 },
                policy: CalibrationPolicy::Reservoir { cap, seed: 5 },
                ..Default::default()
            },
            |global, _s| (global % 2 == 0).then_some(Truth::Label(global)),
        );
        let mut reports = pipeline.extend(samples);
        reports.extend(pipeline.flush());
        let stats = pipeline.stats();
        drop(pipeline);

        assert!(det.online.len() <= cap);
        for r in &det.online {
            assert!(
                r.sample.embedding.iter().all(|v| !v.is_nan()),
                "a NaN-embedding pick must never occupy a slot"
            );
            let Truth::Label(g) = r.truth else { unreachable!() };
            assert_eq!(g % 2, 0, "only oracle-answered picks are live");
        }
        assert!(stats.absorbed <= stats.relabel_selected);
    }

    /// Calibration fixture for fused fan-out tests (mirrors the predictor
    /// tests' two-cluster records with realistic outputs).
    fn prom_records(n: usize) -> Vec<crate::calibration::CalibrationRecord> {
        (0..n)
            .map(|i| {
                let label = i % 2;
                let base = if label == 0 { 0.0 } else { 6.0 };
                let jitter = ((i * 37 % 100) as f64 / 100.0 - 0.5) * 0.8;
                let conf = 0.6 + 0.38 * ((i * 13 % 23) as f64 / 23.0);
                let p_true = if i % 7 == 3 { 1.0 - conf } else { conf };
                let probs = if label == 0 {
                    vec![p_true, 1.0 - p_true]
                } else {
                    vec![1.0 - p_true, p_true]
                };
                crate::calibration::CalibrationRecord::new(
                    vec![base + jitter, base - jitter],
                    probs,
                    label,
                )
            })
            .collect()
    }

    /// Deployment stream mixing in-distribution and drifted samples.
    fn prom_stream(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let jitter = ((i * 41 % 100) as f64 / 100.0 - 0.5) * 0.8;
                let conf = 0.6 + 0.38 * ((i * 17 % 23) as f64 / 23.0);
                let emb =
                    if i % 5 == 0 { vec![200.0 + jitter, -200.0] } else { vec![jitter, -jitter] };
                Sample::new(emb, vec![conf, 1.0 - conf])
            })
            .collect()
    }

    #[test]
    fn fused_fanout_matches_independent_multi_pipeline() {
        let records = prom_records(60);
        let configs: Vec<PromConfig> = [0.02, 0.1, 0.3]
            .iter()
            .map(|&eps| PromConfig { epsilon: eps, ..PromConfig::default() })
            .collect();
        let base = PromClassifier::new(records.clone(), PromConfig::default()).unwrap();
        let standalone: Vec<PromClassifier> = configs
            .iter()
            .map(|c| PromClassifier::new(records.clone(), c.clone()).unwrap())
            .collect();

        let run = |mut p: MultiPipeline<'_>| -> Vec<MultiReport> {
            let mut reports = p.extend(prom_stream(33));
            while let Some(r) = p.flush() {
                reports.push(r);
            }
            reports
        };
        let refs: Vec<&dyn DriftDetector> =
            standalone.iter().map(|d| d as &dyn DriftDetector).collect();
        for (shards, selection) in [
            (1, SelectionPolicy::RejectVote),
            (2, SelectionPolicy::RejectVote),
            (2, SelectionPolicy::CredibilityRank),
        ] {
            let pc = PipelineConfig {
                window: 7,
                shards,
                selection,
                budget: RelabelBudget { fraction: 0.5, min_count: 1 },
                ..Default::default()
            };
            let fused = run(MultiPipeline::fanout(&base, configs.clone(), pc).unwrap());
            let independent = run(MultiPipeline::new(refs.clone(), pc));
            let mode = format!("shards {shards} {selection:?}");
            assert_eq!(fused.len(), independent.len(), "{mode}");
            for (f, ind) in fused.iter().zip(&independent) {
                assert_eq!((f.index, f.start), (ind.index, ind.start), "{mode}");
                assert_eq!(f.reports.len(), ind.reports.len(), "{mode}");
                for (fr, ir) in f.reports.iter().zip(&ind.reports) {
                    assert_eq!(fr.judgements, ir.judgements, "judgements diverged: {mode}");
                    assert_eq!(fr.flagged, ir.flagged, "flagged diverged: {mode}");
                    assert_eq!(fr.relabel, ir.relabel, "relabel picks diverged: {mode}");
                }
            }
        }
    }

    #[test]
    fn fanout_rejects_invalid_configs() {
        let base = PromClassifier::new(prom_records(20), PromConfig::default()).unwrap();
        let bad = PromConfig { epsilon: 7.0, ..PromConfig::default() };
        assert!(MultiPipeline::fanout(&base, vec![bad], PipelineConfig::default()).is_err());
    }

    #[test]
    fn sliding_window_eviction_retires_base_as_relabels_absorb() {
        let mut det = Absorbing::new(10);
        let mut pipeline = DeploymentPipeline::online(
            &mut det,
            PipelineConfig {
                window: 5,
                shards: 1,
                budget: RelabelBudget { fraction: 1.0, min_count: 1 },
                policy: CalibrationPolicy::GrowUnbounded,
                eviction: BaseEviction::SlidingWindow { per_absorb: 2, min_base: 4 },
                ..Default::default()
            },
            |global, _s| Some(Truth::Label(global % 2)),
        );
        let mut reports = pipeline.extend(stream(30));
        reports.extend(pipeline.flush());
        let stats = pipeline.stats();
        drop(pipeline);

        assert!(stats.absorbed > 0, "the stream must absorb something to drive eviction");
        assert_eq!(det.online.len(), stats.absorbed);
        // Two oldest base records retire per absorb, decaying toward (and
        // never past) the configured floor.
        assert_eq!(det.base, 10usize.saturating_sub(2 * stats.absorbed).max(4));
    }

    #[test]
    fn reservoir_slot_translation_survives_base_eviction() {
        // Regression: the pipeline used to cache the detector's base length
        // at construction, so once eviction (or a restore) changed it,
        // every reservoir replacement addressed records at the stale offset
        // and silently failed. The translation now reads the live value
        // (`DriftDetector::replace_online_slot`).
        let cap = 3;
        let mut det = Absorbing::new(12);
        let mut pipeline = DeploymentPipeline::online(
            &mut det,
            PipelineConfig {
                window: 4,
                shards: 1,
                budget: RelabelBudget { fraction: 1.0, min_count: 1 },
                policy: CalibrationPolicy::Reservoir { cap, seed: 11 },
                eviction: BaseEviction::SlidingWindow { per_absorb: 1, min_base: 0 },
                ..Default::default()
            },
            |global, _s| Some(Truth::Label(global)),
        );
        let mut reports = pipeline.extend(stream(80));
        reports.extend(pipeline.flush());
        let stats = pipeline.stats();
        drop(pipeline);

        assert!(det.base < 12, "absorbs must have retired base records");
        assert!(det.online.len() <= cap, "online growth must stay within cap");
        // The first `cap` absorbs are appends (each evicting one base
        // record), so any absorb beyond that is a replacement that landed
        // *after* the base shrank — exactly what the stale cache broke.
        assert!(
            stats.absorbed > cap,
            "replacements must keep landing after the base shrinks (absorbed {})",
            stats.absorbed
        );
        // Every live online record is the sample the oracle labeled: slot
        // translation never overwrote the wrong record.
        for r in &det.online {
            assert_eq!(r.truth, Truth::Label(r.sample.embedding[0] as usize));
        }
    }

    #[test]
    fn frozen_snapshot_restore_resumes_bit_identically() {
        let det = Threshold;
        let config = PipelineConfig { window: 5, shards: 2, ..Default::default() };
        let samples = stream(23);

        // Uninterrupted reference over the whole stream.
        let mut reference = DeploymentPipeline::new(&det, config);
        let mut expected = reference.extend(samples.iter().cloned());
        expected.extend(reference.flush());
        let expected_stats = reference.stats();
        drop(reference);

        // Interrupted run: snapshot after 13 pushes (2 full windows judged,
        // 3 samples buffered), squeeze the state through JSON, restore.
        let mut first = DeploymentPipeline::new(&det, config);
        let mut reports = first.extend(samples[..13].iter().cloned());
        let value = first.snapshot().expect("frozen pipelines always snapshot");
        drop(first);

        let json = serde::to_json_string(&value);
        let value: Value = serde::from_json_str(&json).expect("snapshot JSON round-trips");
        let mut resumed =
            DeploymentPipeline::restore(&det, config, &value).expect("matching restore");
        assert_eq!(resumed.pending(), 3, "the partial buffer survives the trip");
        reports.extend(resumed.extend(samples[13..].iter().cloned()));
        reports.extend(resumed.flush());
        let stats = resumed.stats();
        drop(resumed);

        assert_eq!(stats, expected_stats);
        assert_eq!(reports.len(), expected.len());
        for (r, e) in reports.iter().zip(&expected) {
            assert_eq!((r.index, r.start), (e.index, e.start));
            assert_eq!(r.judgements, e.judgements);
            assert_eq!(r.flagged, e.flagged);
            assert_eq!(r.relabel, e.relabel);
        }
    }

    #[test]
    fn mismatched_pipeline_snapshots_are_rejected() {
        let det = Threshold;
        let config = PipelineConfig { window: 5, shards: 1, ..Default::default() };
        let mut pipeline = DeploymentPipeline::new(&det, config);
        pipeline.extend(stream(8));
        let value = pipeline.snapshot().unwrap();
        drop(pipeline);

        // A different window size would shift every report boundary.
        let narrow = PipelineConfig { window: 4, ..config };
        assert!(DeploymentPipeline::restore(&det, narrow, &value).is_err());

        // An online policy must go through `restore_online`.
        let online = PipelineConfig { policy: CalibrationPolicy::GrowUnbounded, ..config };
        assert!(DeploymentPipeline::restore(&det, online, &value).is_err());

        // A reservoir config needs reservoir state in the snapshot.
        let mut absorbing = Absorbing::new(4);
        let reservoir =
            PipelineConfig { policy: CalibrationPolicy::Reservoir { cap: 2, seed: 3 }, ..config };
        assert!(DeploymentPipeline::restore_online(&mut absorbing, reservoir, |_, _| None, &value)
            .is_err());

        // Tampered counters are caught before any state is touched.
        let mut snap = PipelineSnapshot::from_value(&value).unwrap();
        snap.stats.pushed += 1;
        assert!(DeploymentPipeline::restore(&det, config, &snap.to_value()).is_err());

        // A foreign tag is rejected outright.
        let mut snap = PipelineSnapshot::from_value(&value).unwrap();
        snap.pipeline = "torch-checkpoint".to_string();
        assert!(DeploymentPipeline::restore(&det, config, &snap.to_value()).is_err());
    }

    #[test]
    fn online_snapshot_needs_a_portable_detector() {
        // `Absorbing` has live calibration state but no
        // `snapshot_state` — an online pipeline over it must refuse to
        // snapshot rather than silently drop its absorbed records.
        let mut det = Absorbing::new(6);
        let mut pipeline = DeploymentPipeline::online(
            &mut det,
            PipelineConfig {
                window: 4,
                shards: 1,
                policy: CalibrationPolicy::GrowUnbounded,
                ..Default::default()
            },
            |_, _| Some(Truth::Label(0)),
        );
        pipeline.extend(stream(4));
        assert!(pipeline.snapshot().is_err(), "no portable detector state to capture");
    }
}
