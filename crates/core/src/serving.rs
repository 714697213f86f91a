//! The concurrent serving front-end: many producers, bounded admission,
//! latency SLOs.
//!
//! The deployment pipeline ([`MultiPipeline`], and its single-detector
//! view [`DeploymentPipeline`](crate::pipeline::DeploymentPipeline)) is a
//! single-caller `push`/`flush` loop: one thread owns the pipeline and
//! feeds it. A deployed judge serves many request threads at once, and
//! the quantity that decides whether it is usable there is not
//! throughput but **tail latency** — how long the slowest admitted
//! sample waits for its judgement. This module adds that serving shape
//! without giving up one bit of the repo's determinism:
//!
//! * **Producers** get a cloneable [`ServingHandle`] and submit samples
//!   from any number of threads. Admission is a private *bounded* queue
//!   with many producers and one consumer (a `Mutex<VecDeque>` plus two
//!   condvars): [`ServingHandle::submit`] blocks when the queue is full
//!   (backpressure), and [`ServingHandle::try_submit`] fails fast with
//!   the sample back — load shedding, counted per front-end in
//!   [`ServingOutcome::rejected`].
//! * **One collator thread** drains the queue in arrival order and drives
//!   one [`MultiPipeline`] exactly as a synchronous caller would: windows
//!   form serving-side, in admission order, and the push that fills a
//!   window judges it before the collator dequeues the next sample.
//!   Everything downstream — shard fan-out, relabel selection, online
//!   calibration folding — is the ordinary pipeline machinery. The
//!   single-detector entry points unwrap each window's only report.
//! * **Latency** is recorded per sample on a monotonic clock
//!   ([`std::time::Instant`]): stamped at **admission** — inside the
//!   queue-slot handoff, after any backpressure wait — settled when the
//!   sample's window has been judged, accumulated into a
//!   log-bucketed [`LatencyHistogram`] (≈3% relative error) whose
//!   p50/p99/p999 are first-class outputs next to the reports.
//! * **Live metrics** are optional: attach a
//!   [`MetricsSink`] via
//!   [`ServingConfig::metrics`] and the front-end publishes admission /
//!   shed counters, the queue depth, and latency histograms into the
//!   sink's [`MetricsRegistry`](crate::metrics::MetricsRegistry) while
//!   serving; leave it `None` and no instrument is even resolved.
//!
//! # Determinism under concurrency
//!
//! With more than one producer the *admission order* is whatever the
//! threads raced to — that is inherent to concurrent ingest, not a
//! weakness of this module. Everything **after** admission is
//! deterministic: the collator is the only pipeline caller, so the
//! report sequence is exactly what a synchronous `push`/`flush` loop
//! over the admitted order would produce, bit for bit — p-value bits,
//! relabel picks, post-run calibration state. `tests/serving_equivalence.rs`
//! proves it by capturing the admitted order
//! ([`ServingConfig::record_admitted`]) and replaying it through the
//! synchronous pipeline. With a single producer the admitted order is
//! the submission order, so the whole front-end is deterministic
//! end-to-end.

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::detector::{DriftDetector, Sample, Truth};
use crate::metrics::{Counter, Gauge, Histogram, MetricsSink};
use crate::pipeline::{MultiPipeline, MultiReport, PipelineConfig, WindowReport};
use queue::{Queue, Receiver, Sender, TrySendError};

pub use crate::metrics::{LatencyHistogram, LatencySummary};

/// Configuration of a [`ServingFrontEnd`].
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// The pipeline behind the admission queue — window size, shards,
    /// relabel budget, selection and calibration policies all apply
    /// unchanged.
    pub pipeline: PipelineConfig,
    /// Admission queue capacity in samples — must be at least 1
    /// ([`ServingFrontEnd::new`] rejects 0 outright rather than silently
    /// substituting a different capacity). This is the backpressure
    /// bound: a full queue blocks [`ServingHandle::submit`] and rejects
    /// [`ServingHandle::try_submit`]. Deeper queues absorb burstier
    /// arrivals at the price of worse tail latency for the samples
    /// queued behind the burst.
    pub queue: usize,
    /// Keep a copy of every admitted sample, in admission order, in
    /// [`ServingOutcome::admitted_samples`]. This is the determinism
    /// hook: replaying that order through a synchronous pipeline must
    /// reproduce the reports bit for bit (`tests/serving_equivalence.rs`
    /// holds the front-end to it). Off by default — it clones every
    /// sample.
    pub record_admitted: bool,
    /// Publish live serving metrics (admitted/shed counters, queue
    /// depth, latency histograms, per-detector pipeline counters) into
    /// this sink's registry while serving. `None` (the default) resolves
    /// no instruments at all — the hot paths don't even load an atomic.
    pub metrics: Option<MetricsSink>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            queue: 4096,
            record_admitted: false,
            metrics: None,
        }
    }
}

/// Why a submission failed.
#[derive(Debug)]
pub enum SubmitError {
    /// The admission queue is at capacity ([`ServingHandle::try_submit`]
    /// only); the sample comes back. Counted in
    /// [`ServingOutcome::rejected`].
    Full(Sample),
    /// The collator is gone (it panicked; the panic resurfaces when the
    /// serve call returns). The sample comes back.
    Closed(Sample),
}

impl SubmitError {
    /// The sample that was not admitted.
    pub fn into_sample(self) -> Sample {
        match self {
            SubmitError::Full(sample) | SubmitError::Closed(sample) => sample,
        }
    }
}

/// A producer's handle into a running serve call: cloneable and
/// shareable across threads (`Send + Sync`), valid only inside the
/// `produce` closure it was passed to — the handle's lifetime parameter
/// keeps it from outliving the front-end's counters.
///
/// Dropping every handle (ending `produce`) is the shutdown signal: the
/// collator drains what was admitted, flushes the pipeline tail, and the
/// serve call returns.
#[derive(Clone)]
pub struct ServingHandle<'env> {
    queue: Sender<'env, Submission>,
    admitted: &'env AtomicU64,
    rejected: &'env AtomicU64,
    instruments: Option<&'env ServingInstruments>,
}

impl ServingHandle<'_> {
    /// Submits one sample, blocking while the admission queue is full —
    /// the backpressure path. The latency clock starts at **admission**:
    /// the stamp is taken inside the queue-slot handoff, after any
    /// backpressure wait, so time spent blocked on a full queue is
    /// (deliberately) not counted against the judge; time spent queued
    /// is.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] with the sample back when the collator is
    /// gone.
    pub fn submit(&self, sample: Sample) -> Result<(), SubmitError> {
        // `send_with` runs the constructor only once a slot is free, so
        // the stamp cannot predate admission by more than the enqueue
        // itself (the pre-fix `send(Submission { at: Instant::now(), .. })`
        // charged the whole backpressure stall to judgement latency).
        self.queue
            .send_with(|| Submission { sample, at: Instant::now() })
            .map(|()| self.count_admission())
            .map_err(|submission| SubmitError::Closed(submission.sample))
    }

    /// Submits one sample without blocking — the load-shedding path.
    /// (No stamping subtlety here: a non-blocking admission *is* the
    /// call, so the clock starts now.)
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] with the sample back when the queue is at
    /// capacity (counted in [`ServingOutcome::rejected`]);
    /// [`SubmitError::Closed`] when the collator is gone.
    pub fn try_submit(&self, sample: Sample) -> Result<(), SubmitError> {
        match self.queue.try_send(Submission { sample, at: Instant::now() }) {
            Ok(()) => {
                self.count_admission();
                Ok(())
            }
            Err(TrySendError::Full(submission)) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                if let Some(live) = self.instruments {
                    live.shed.inc();
                }
                Err(SubmitError::Full(submission.sample))
            }
            Err(TrySendError::Closed(submission)) => Err(SubmitError::Closed(submission.sample)),
        }
    }

    /// Counts one admitted sample, in the outcome and in the live metrics.
    fn count_admission(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(live) = self.instruments {
            live.admitted.inc();
            live.queue_depth.inc();
        }
    }
}

/// One admitted sample with its admission timestamp (the latency clock).
struct Submission {
    sample: Sample,
    at: Instant,
}

/// The serving-level instruments, resolved once per serve call when a
/// [`MetricsSink`] is configured. `None` everywhere otherwise — that
/// absence is the zero-cost-when-unregistered contract.
struct ServingInstruments {
    /// `prom_serving_admitted_total`.
    admitted: Arc<Counter>,
    /// `prom_serving_shed_total`.
    shed: Arc<Counter>,
    /// `prom_serving_queue_depth` — incremented at admission, decremented
    /// when the collator dequeues; racy by nature (a metric).
    queue_depth: Arc<Gauge>,
    /// `prom_serving_judgement_latency_ns` — the same quantity as
    /// [`ServingOutcome::latency`], live.
    latency: Arc<Histogram>,
    /// `prom_serving_window_judge_ns` — collator time inside the
    /// pipeline call that judged a window and produced its report.
    window_judge: Arc<Histogram>,
}

impl ServingInstruments {
    fn resolve(sink: &MetricsSink) -> Self {
        Self {
            admitted: sink.counter(
                "prom_serving_admitted_total",
                "Samples admitted through the queue",
                &[],
            ),
            shed: sink.counter(
                "prom_serving_shed_total",
                "try_submit samples shed on a full queue",
                &[],
            ),
            queue_depth: sink.gauge(
                "prom_serving_queue_depth",
                "Admission queue depth (racy snapshot)",
                &[],
            ),
            latency: sink.histogram(
                "prom_serving_judgement_latency_ns",
                "Per-sample judgement latency, admission to window-report collection",
                &[],
            ),
            window_judge: sink.histogram(
                "prom_serving_window_judge_ns",
                "Collator time in the pipeline call that produced a window report",
                &[],
            ),
        }
    }
}

/// Everything one serve call produced.
#[derive(Debug)]
pub struct ServingOutcome<R> {
    /// Every window report, strictly in window order — exactly the
    /// sequence a synchronous `push`/`flush` loop over the admitted
    /// order produces.
    pub reports: Vec<R>,
    /// Per-sample judgement latency (admission to window-report
    /// collection), monotonic clock.
    pub latency: LatencyHistogram,
    /// Samples admitted through the queue.
    pub admitted: u64,
    /// [`ServingHandle::try_submit`] calls shed on a full queue.
    pub rejected: u64,
    /// Samples judged and reported (equals `admitted` after the drain).
    pub judged: usize,
    /// Wall-clock time of the whole serve call, producers included.
    pub elapsed: Duration,
    /// The admitted samples in admission order, when
    /// [`ServingConfig::record_admitted`] asked for them (empty
    /// otherwise) — replay these synchronously to reproduce `reports`
    /// bit for bit.
    pub admitted_samples: Vec<Sample>,
}

/// The concurrent serving front-end: producers on one side of a bounded
/// admission queue, a pipeline-driving collator on the other, latency
/// percentiles as first-class output. See the module docs for the model.
///
/// ```
/// use prom_core::detector::{DriftDetector, Judgement, Sample};
/// use prom_core::pipeline::PipelineConfig;
/// use prom_core::serving::{ServingConfig, ServingFrontEnd};
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
/// let front = ServingFrontEnd::new(ServingConfig {
///     pipeline: PipelineConfig { window: 4, shards: 2, ..Default::default() },
///     queue: 64,
///     ..Default::default()
/// });
/// let det = Flat;
/// // Two producer threads race 20 samples each into the queue.
/// let (_, outcome) = front.serve(&det, |handle| {
///     std::thread::scope(|s| {
///         for t in 0..2 {
///             let handle = handle.clone();
///             s.spawn(move || {
///                 for i in 0..20 {
///                     let x = f64::from(t * 100 + i);
///                     handle.submit(Sample::new(vec![x], vec![0.9, 0.1])).unwrap();
///                 }
///             });
///         }
///     });
/// });
/// assert_eq!(outcome.judged, 40);
/// assert_eq!(outcome.reports.len(), 10, "40 samples / window 4");
/// assert!(outcome.latency.percentile_ns(0.99) >= outcome.latency.percentile_ns(0.50));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServingFrontEnd {
    config: ServingConfig,
}

impl ServingFrontEnd {
    /// A front-end with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when `config.queue` is 0: a zero-capacity admission queue
    /// would be a rendezvous channel, which this front-end does not
    /// support (and silently substituting capacity 1 would misrepresent
    /// the caller's backpressure bound).
    pub fn new(config: ServingConfig) -> Self {
        assert!(
            config.queue >= 1,
            "ServingConfig::queue must be at least 1 (got 0): the admission queue \
             needs capacity to hold a sample"
        );
        Self { config }
    }

    /// The configuration this front-end serves with.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Serves a *frozen* single-detector pipeline: runs `produce` with a
    /// cloneable [`ServingHandle`], drives a pipeline over `detector`
    /// (the engine behind
    /// [`DeploymentPipeline::new`](crate::pipeline::DeploymentPipeline::new))
    /// from the admitted stream, and returns `produce`'s value alongside
    /// the [`ServingOutcome`]. Returns when `produce` has returned **and**
    /// every admitted sample has been judged (the tail is flushed).
    ///
    /// # Panics
    ///
    /// Re-raises a collator panic (a detector panic while judging) on
    /// this thread; panics on an invalid pipeline configuration, like
    /// the pipeline constructors do.
    pub fn serve<P>(
        &self,
        detector: &dyn DriftDetector,
        produce: impl for<'env> FnOnce(ServingHandle<'env>) -> P,
    ) -> (P, ServingOutcome<WindowReport>) {
        let pipeline = MultiPipeline::new(vec![detector], self.config.pipeline);
        self.run(pipeline, produce, MultiReport::into_single)
    }

    /// Serves an *online* single-detector pipeline (the engine behind
    /// [`DeploymentPipeline::online`](crate::pipeline::DeploymentPipeline::online)):
    /// relabel picks are labeled by `oracle` on the collator thread and
    /// folded into the detector's calibration set between windows,
    /// exactly as in the synchronous pipeline.
    ///
    /// # Panics
    ///
    /// See [`ServingFrontEnd::serve`].
    pub fn serve_online<'a, P>(
        &self,
        detector: &'a mut dyn DriftDetector,
        oracle: impl FnMut(usize, &Sample) -> Option<Truth> + Send + 'a,
        produce: impl for<'env> FnOnce(ServingHandle<'env>) -> P,
    ) -> (P, ServingOutcome<WindowReport>) {
        let pipeline = MultiPipeline::online(vec![detector], self.config.pipeline, oracle);
        self.run(pipeline, produce, MultiReport::into_single)
    }

    /// Serves a *frozen* multi-detector pipeline ([`MultiPipeline::new`]):
    /// every admitted sample is judged by every detector, one
    /// [`MultiReport`] per window.
    ///
    /// # Panics
    ///
    /// See [`ServingFrontEnd::serve`].
    pub fn serve_multi<P>(
        &self,
        detectors: Vec<&dyn DriftDetector>,
        produce: impl for<'env> FnOnce(ServingHandle<'env>) -> P,
    ) -> (P, ServingOutcome<MultiReport>) {
        let pipeline = MultiPipeline::new(detectors, self.config.pipeline);
        self.run(pipeline, produce, std::convert::identity)
    }

    /// The one serving loop behind every typed entry point: attach the
    /// metrics sink, spawn the collator, hand `produce` its handle, join,
    /// stitch the outcome. `report` maps each window's [`MultiReport`] to
    /// the entry point's report type.
    fn run<R: Send, P>(
        &self,
        pipeline: MultiPipeline<'_>,
        produce: impl for<'env> FnOnce(ServingHandle<'env>) -> P,
        report: fn(MultiReport) -> R,
    ) -> (P, ServingOutcome<R>) {
        let pipeline = match &self.config.metrics {
            Some(sink) => pipeline.with_metrics(sink),
            None => pipeline,
        };
        let queue = Queue::new(self.config.queue);
        let (queue_tx, queue_rx) = queue.split();
        let admitted = AtomicU64::new(0);
        let rejected = AtomicU64::new(0);
        let record_admitted = self.config.record_admitted;
        let instruments = self.config.metrics.as_ref().map(ServingInstruments::resolve);
        let begin = Instant::now();
        let (produced, collated) = std::thread::scope(|s| {
            let live = instruments.as_ref();
            let collator = std::thread::Builder::new()
                .name("prom-collator".into())
                .spawn_scoped(s, move || {
                    collate(pipeline, report, &queue_rx, record_admitted, live)
                })
                .expect("spawn collator thread");
            let handle = ServingHandle {
                queue: queue_tx,
                admitted: &admitted,
                rejected: &rejected,
                instruments: instruments.as_ref(),
            };
            // `produce` consumes the handle; when it returns, every
            // clone its producer threads made is gone too (the handle
            // cannot escape the closure), so the collator sees the last
            // sender go and drains. If `produce` panics, unwinding
            // drops the handle and the collator still shuts down cleanly
            // before the scope re-raises.
            let produced = produce(handle);
            let collated = match collator.join() {
                Ok(collated) => collated,
                // A detector panic on the collator belongs to the
                // caller, same as in the synchronous pipeline.
                Err(payload) => resume_unwind(payload),
            };
            (produced, collated)
        });
        let Collated { reports, latency, judged, admitted_samples } = collated;
        let outcome = ServingOutcome {
            reports,
            latency,
            admitted: admitted.into_inner(),
            rejected: rejected.into_inner(),
            judged,
            elapsed: begin.elapsed(),
            admitted_samples,
        };
        (produced, outcome)
    }
}

/// What the collator thread hands back at shutdown.
struct Collated<R> {
    reports: Vec<R>,
    latency: LatencyHistogram,
    judged: usize,
    admitted_samples: Vec<Sample>,
}

/// The collator loop: drain the admission queue in arrival order into
/// the pipeline, settle each report's latencies, map it through `report`,
/// flush the tail once every producer handle is gone.
fn collate<R>(
    mut pipeline: MultiPipeline<'_>,
    report: fn(MultiReport) -> R,
    queue: &Receiver<'_, Submission>,
    record_admitted: bool,
    instruments: Option<&ServingInstruments>,
) -> Collated<R> {
    let mut reports = Vec::new();
    let mut latency = LatencyHistogram::new();
    // Admission timestamps of samples pushed but not yet reported; the
    // pipeline reports whole windows in push order, so settling is
    // always a pop of the oldest `window_len` stamps.
    let mut unsettled: VecDeque<Instant> = VecDeque::new();
    let mut admitted_samples = Vec::new();
    let mut judged = 0usize;
    let settle = |multi: &MultiReport,
                  unsettled: &mut VecDeque<Instant>,
                  latency: &mut LatencyHistogram,
                  judged: &mut usize| {
        let now = Instant::now();
        // Every detector judges every sample of the window; any report's
        // judgement count is the window length.
        let settled = multi.reports.first().map_or(0, |r| r.judgements.len());
        for _ in 0..settled {
            let at = unsettled.pop_front().expect("every judged sample has an admission stamp");
            let waited = now.saturating_duration_since(at);
            latency.record(waited);
            if let Some(live) = instruments {
                live.latency.record(waited);
            }
        }
        *judged += settled;
    };
    while let Some(Submission { sample, at }) = queue.recv() {
        if let Some(live) = instruments {
            live.queue_depth.dec();
        }
        if record_admitted {
            admitted_samples.push(sample.clone());
        }
        unsettled.push_back(at);
        // Stamp the pipeline call only when instrumented: the
        // report-producing push is the window-judge latency.
        let pushed_at = instruments.map(|_| Instant::now());
        if let Some(multi) = pipeline.push(sample) {
            if let (Some(live), Some(at)) = (instruments, pushed_at) {
                live.window_judge.record(at.elapsed());
            }
            settle(&multi, &mut unsettled, &mut latency, &mut judged);
            reports.push(report(multi));
        }
    }
    // Every producer handle is gone: judge the partial tail.
    let flushed_at = instruments.map(|_| Instant::now());
    if let Some(multi) = pipeline.flush() {
        if let (Some(live), Some(at)) = (instruments, flushed_at) {
            live.window_judge.record(at.elapsed());
        }
        settle(&multi, &mut unsettled, &mut latency, &mut judged);
        reports.push(report(multi));
    }
    debug_assert!(unsettled.is_empty(), "flush must settle every admitted sample");
    Collated { reports, latency, judged, admitted_samples }
}

/// The admission queue: bounded, many producers, one consumer.
///
/// A `Mutex<VecDeque>` with two condvars, holding only what serving
/// calls. [`Sender`]s (one per [`ServingHandle`] clone) enqueue through
/// [`Sender::send_with`] or [`Sender::try_send`]; the one [`Receiver`],
/// the collator, dequeues in arrival order and closes the queue when it
/// drops, so no producer stays parked on a dead collator. A condvar is
/// signalled only when a thread is parked on it, by waiter counts kept
/// under the lock: an unconditional `notify_one` is a futex syscall per
/// sample on both sides of the queue.
mod queue {
    use std::collections::VecDeque;
    use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

    /// Why [`Sender::try_send`] failed; the value comes back.
    pub(super) enum TrySendError<T> {
        /// The queue is at capacity.
        Full(T),
        /// The receiver is gone.
        Closed(T),
    }

    /// The shared queue; [`Queue::split`] hands out its two ends.
    pub(super) struct Queue<T> {
        state: Mutex<State<T>>,
        /// The receiver parks here while the queue is empty.
        not_empty: Condvar,
        /// Senders park here while the queue is full.
        not_full: Condvar,
        capacity: usize,
    }

    /// Everything behind the lock.
    struct State<T> {
        /// Grows on demand; never preallocated to the capacity.
        items: VecDeque<T>,
        /// Live senders: once the last one drops, `recv` drains and ends.
        senders: usize,
        /// The receiver dropped: every send fails from now on.
        closed: bool,
        /// Senders parked on `not_full`.
        parked_senders: usize,
        /// Whether the receiver is parked on `not_empty`.
        receiver_parked: bool,
    }

    impl<T> Queue<T> {
        /// An empty queue that holds at most `capacity` values.
        ///
        /// # Panics
        ///
        /// Panics when `capacity` is 0: a sender could never enqueue.
        pub(super) fn new(capacity: usize) -> Self {
            assert!(capacity >= 1, "an admission queue needs room for one value");
            let state = State {
                items: VecDeque::new(),
                senders: 1,
                closed: false,
                parked_senders: 0,
                receiver_parked: false,
            };
            Self {
                state: Mutex::new(state),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                capacity,
            }
        }

        /// The first sender and the only receiver. Call once per queue.
        pub(super) fn split(&self) -> (Sender<'_, T>, Receiver<'_, T>) {
            (Sender(self), Receiver(self))
        }

        /// Locks the state. A poisoned lock is taken anyway: the only code
        /// that can panic under it is `send_with`'s `make`, which runs
        /// before the state changes.
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Enqueues under the held lock, then wakes the receiver if it is
        /// parked.
        fn push(&self, mut state: MutexGuard<'_, State<T>>, value: T) {
            state.items.push_back(value);
            if state.receiver_parked {
                drop(state);
                self.not_empty.notify_one();
            }
        }
    }

    /// A producer's end. Cloning adds a sender; dropping the last one
    /// ends the receiver's `recv` once the queue is drained.
    pub(super) struct Sender<'q, T>(&'q Queue<T>);

    impl<T> Clone for Sender<'_, T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Self(self.0)
        }
    }

    impl<T> Drop for Sender<'_, T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.senders -= 1;
            if state.senders == 0 && state.receiver_parked {
                drop(state);
                self.0.not_empty.notify_one();
            }
        }
    }

    impl<T> Sender<'_, T> {
        /// Enqueues the value `make` builds, parking while the queue is
        /// full. `make` runs under the lock once a slot is free, so a
        /// timestamp it takes leaves out the wait for that slot.
        ///
        /// # Errors
        ///
        /// The value `make` builds, when the receiver is gone. That is
        /// checked before and after every wait, so a sender never parks
        /// on a closed queue.
        pub(super) fn send_with(&self, make: impl FnOnce() -> T) -> Result<(), T> {
            let queue = self.0;
            let mut state = queue.lock();
            loop {
                if state.closed {
                    drop(state);
                    return Err(make());
                }
                if state.items.len() < queue.capacity {
                    queue.push(state, make());
                    return Ok(());
                }
                state.parked_senders += 1;
                state = queue.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
                state.parked_senders -= 1;
            }
        }

        /// Enqueues `value` without parking.
        ///
        /// # Errors
        ///
        /// [`TrySendError::Closed`] when the receiver is gone, else
        /// [`TrySendError::Full`] when the queue is at capacity.
        pub(super) fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let state = self.0.lock();
            if state.closed {
                Err(TrySendError::Closed(value))
            } else if state.items.len() >= self.0.capacity {
                Err(TrySendError::Full(value))
            } else {
                self.0.push(state, value);
                Ok(())
            }
        }
    }

    /// The consumer's end. Dropping it closes the queue and wakes every
    /// parked sender.
    pub(super) struct Receiver<'q, T>(&'q Queue<T>);

    impl<T> Drop for Receiver<'_, T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.closed = true;
            if state.parked_senders > 0 {
                drop(state);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> Receiver<'_, T> {
        /// Dequeues the oldest value, parking while the queue is empty;
        /// `None` once every sender is gone and the queue is drained.
        pub(super) fn recv(&self) -> Option<T> {
            let queue = self.0;
            let mut state = queue.lock();
            loop {
                if let Some(value) = state.items.pop_front() {
                    if state.parked_senders > 0 {
                        drop(state);
                        queue.not_full.notify_one();
                    }
                    return Some(value);
                }
                if state.senders == 0 {
                    return None;
                }
                state.receiver_parked = true;
                state = queue.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner);
                state.receiver_parked = false;
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::{Queue, TrySendError};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::thread::{scope, sleep};
        use std::time::{Duration, Instant};

        #[test]
        fn delivers_in_order_across_threads() {
            // 100 values through 4 slots: the sender parks on the full
            // queue while the receiver drains it.
            let queue = Queue::new(4);
            let (tx, rx) = queue.split();
            let got = scope(|s| {
                s.spawn(move || (0..100).for_each(|i| tx.send_with(|| i).expect("receiver alive")));
                std::iter::from_fn(|| rx.recv()).collect::<Vec<i32>>()
            });
            assert_eq!(got, (0..100).collect::<Vec<_>>());
            assert!(rx.recv().is_none(), "ended after every sender dropped");
        }

        #[test]
        fn send_with_builds_the_value_only_at_enqueue_time() {
            let queue = Queue::new(1);
            let (tx, rx) = queue.split();
            tx.send_with(Instant::now).unwrap();
            // The queue is full: a parked send_with must not run `make`
            // until a slot frees, so its stamp postdates the drain.
            let made = AtomicBool::new(false);
            scope(|s| {
                s.spawn(|| {
                    tx.send_with(|| {
                        made.store(true, Ordering::SeqCst);
                        Instant::now()
                    })
                    .unwrap();
                });
                sleep(Duration::from_millis(50));
                assert!(!made.load(Ordering::SeqCst), "make ran while the queue was full");
                let drain_at = Instant::now();
                rx.recv().unwrap();
                let stamped = rx.recv().unwrap();
                assert!(
                    stamped >= drain_at,
                    "the stamp must be taken at enqueue, not before the wait"
                );
            });
        }

        #[test]
        fn send_with_returns_the_built_value_on_close() {
            let queue = Queue::new(1);
            let (tx, rx) = queue.split();
            drop(rx);
            assert_eq!(tx.send_with(|| 42).unwrap_err(), 42);
        }

        #[test]
        fn try_send_reports_full_at_capacity() {
            let queue = Queue::new(2);
            let (tx, rx) = queue.split();
            assert!(tx.try_send(1).is_ok());
            assert!(tx.try_send(2).is_ok());
            assert!(
                matches!(tx.try_send(3), Err(TrySendError::Full(3))),
                "the third value hits the capacity bound and comes back"
            );
            // Draining one slot reopens admission.
            assert_eq!(rx.recv(), Some(1));
            assert!(tx.try_send(3).is_ok());
            assert_eq!(rx.recv(), Some(2));
            assert_eq!(rx.recv(), Some(3), "FIFO order across the refill");
        }

        #[test]
        fn a_parked_send_completes_once_a_slot_frees() {
            let queue = Queue::new(1);
            let (tx, rx) = queue.split();
            tx.send_with(|| 1).unwrap();
            scope(|s| {
                s.spawn(move || tx.send_with(|| 2).unwrap());
                // Give the sender time to park on the full queue.
                sleep(Duration::from_millis(20));
                assert_eq!(rx.recv(), Some(1));
                assert_eq!(rx.recv(), Some(2), "the parked send completes after the drain");
                assert_eq!(rx.recv(), None);
            });
        }

        #[test]
        fn sends_to_a_closed_queue_fail_even_when_it_is_full() {
            let queue = Queue::new(1);
            let (tx, rx) = queue.split();
            tx.send_with(|| 1).unwrap();
            drop(rx);
            // Both forms fail with the value back; neither parks.
            assert!(matches!(tx.try_send(2), Err(TrySendError::Closed(2))));
            assert_eq!(tx.send_with(|| 3).unwrap_err(), 3);
        }

        #[test]
        fn closing_wakes_every_parked_sender() {
            let queue = Queue::new(1);
            let (tx, rx) = queue.split();
            tx.send_with(|| 0).unwrap();
            scope(|s| {
                let parked: Vec<_> = (1..=3)
                    .map(|i| {
                        let tx = tx.clone();
                        s.spawn(move || tx.send_with(|| i))
                    })
                    .collect();
                sleep(Duration::from_millis(20));
                drop(rx);
                let mut refused: Vec<i32> =
                    parked.into_iter().map(|t| t.join().unwrap().unwrap_err()).collect();
                refused.sort_unstable();
                assert_eq!(refused, [1, 2, 3], "every parked sender gets its value back");
            });
        }

        #[test]
        fn a_parked_receiver_ends_when_the_last_sender_drops() {
            let queue = Queue::<u8>::new(1);
            let (tx, rx) = queue.split();
            let tx2 = tx.clone();
            scope(|s| {
                let receiver = s.spawn(move || rx.recv());
                sleep(Duration::from_millis(20));
                drop(tx);
                sleep(Duration::from_millis(20));
                drop(tx2);
                assert_eq!(receiver.join().unwrap(), None);
            });
        }

        #[test]
        fn many_producers_deliver_every_value_once_in_producer_order() {
            // Producers interleave arbitrarily, but each producer's values
            // arrive exactly once and never reorder among themselves.
            let queue = Queue::new(4);
            let (tx, rx) = queue.split();
            let got = scope(|s| {
                for p in 0..3u32 {
                    let tx = tx.clone();
                    s.spawn(move || (0..200).for_each(|i| tx.send_with(|| (p, i)).unwrap()));
                }
                drop(tx);
                std::iter::from_fn(|| rx.recv()).collect::<Vec<(u32, u32)>>()
            });
            assert_eq!(got.len(), 600);
            for p in 0..3 {
                let seq: Vec<u32> = got.iter().filter(|(q, _)| *q == p).map(|&(_, i)| i).collect();
                assert_eq!(seq, (0..200).collect::<Vec<_>>(), "producer {p} order");
            }
        }

        #[test]
        #[should_panic(expected = "needs room for one value")]
        fn zero_capacity_is_rejected() {
            let _ = Queue::<u8>::new(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Judgement;
    use crate::pipeline::DeploymentPipeline;

    /// Accepts first outputs >= 0.5; optionally dawdles per sample so
    /// tests can congest the admission queue deterministically.
    struct Slowpoke {
        delay: Duration,
    }

    impl DriftDetector for Slowpoke {
        fn name(&self) -> &'static str {
            "slowpoke"
        }

        fn judge_one(&self, _embedding: &[f64], outputs: &[f64]) -> Judgement {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            Judgement::single(outputs[0] < 0.5)
        }
    }

    fn sample(i: usize) -> Sample {
        let conf = 0.2 + 0.6 * ((i % 7) as f64 / 6.0);
        Sample::new(vec![i as f64], vec![conf, 1.0 - conf])
    }

    #[test]
    fn single_producer_reports_match_the_synchronous_pipeline() {
        let det = Slowpoke { delay: Duration::ZERO };
        let config = PipelineConfig { window: 8, shards: 2, ..Default::default() };
        let mut sync = DeploymentPipeline::new(&det, config);
        let mut expected = sync.extend((0..45).map(sample));
        while let Some(report) = sync.flush() {
            expected.push(report);
        }

        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: config,
            queue: 16,
            record_admitted: false,
            metrics: None,
        });
        let (submitted, outcome) = front.serve(&det, |handle| {
            for i in 0..45 {
                handle.submit(sample(i)).expect("collator alive");
            }
            45
        });
        assert_eq!(submitted, 45);
        assert_eq!(outcome.admitted, 45);
        assert_eq!(outcome.rejected, 0);
        assert_eq!(outcome.judged, 45);
        assert_eq!(outcome.latency.count(), 45);
        assert_eq!(outcome.reports.len(), expected.len());
        for (served, sync) in outcome.reports.iter().zip(&expected) {
            assert_eq!(served.index, sync.index);
            assert_eq!(served.start, sync.start);
            assert_eq!(served.judgements, sync.judgements);
            assert_eq!(served.flagged, sync.flagged);
            assert_eq!(served.relabel, sync.relabel);
        }
    }

    #[test]
    fn concurrent_producers_judge_every_admitted_sample_exactly_once() {
        let det = Slowpoke { delay: Duration::ZERO };
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: PipelineConfig { window: 16, shards: 2, ..Default::default() },
            queue: 8,
            record_admitted: true,
            metrics: None,
        });
        let producers = 4;
        let per_producer = 100;
        let ((), outcome) = front.serve(&det, |handle| {
            std::thread::scope(|s| {
                for p in 0..producers {
                    let handle = handle.clone();
                    s.spawn(move || {
                        for i in 0..per_producer {
                            handle.submit(sample(p * 1000 + i)).expect("collator alive");
                        }
                    });
                }
            });
        });
        let total = (producers * per_producer) as u64;
        assert_eq!(outcome.admitted, total);
        assert_eq!(outcome.judged as u64, total);
        assert_eq!(outcome.latency.count(), total);
        assert_eq!(outcome.admitted_samples.len() as u64, total);
        // Every submitted sample arrived exactly once, whatever the
        // interleaving.
        let mut ids: Vec<i64> =
            outcome.admitted_samples.iter().map(|s| s.embedding[0] as i64).collect();
        ids.sort_unstable();
        let mut expected: Vec<i64> = (0..producers)
            .flat_map(|p| (0..per_producer).map(move |i| (p * 1000 + i) as i64))
            .collect();
        expected.sort_unstable();
        assert_eq!(ids, expected);
        // Reports cover the admitted order window by window.
        let report_total: usize = outcome.reports.iter().map(|r| r.judgements.len()).sum();
        assert_eq!(report_total as u64, total);
    }

    #[test]
    fn try_submit_sheds_load_on_a_congested_queue() {
        // A dawdling detector with a tiny queue: once a window is judging,
        // the queue backs up and try_submit must start bouncing.
        let det = Slowpoke { delay: Duration::from_millis(5) };
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: PipelineConfig { window: 2, shards: 1, ..Default::default() },
            queue: 1,
            record_admitted: false,
            metrics: None,
        });
        let (sheds, outcome) = front.serve(&det, |handle| {
            let mut sheds = 0u64;
            let mut admitted = 0;
            // Cap the attempts so a pathological scheduler cannot hang
            // the test; normally a handful of windows suffices.
            for i in 0..10_000 {
                match handle.try_submit(sample(i)) {
                    Ok(()) => admitted += 1,
                    Err(SubmitError::Full(_)) => sheds += 1,
                    Err(SubmitError::Closed(_)) => unreachable!("collator died"),
                }
                if sheds >= 3 && admitted >= 4 {
                    break;
                }
            }
            sheds
        });
        assert!(sheds >= 3, "a 1-deep queue behind a dawdling judge must shed");
        assert_eq!(outcome.rejected, sheds);
        assert_eq!(outcome.judged as u64, outcome.admitted);
    }

    #[test]
    fn backpressure_stall_is_not_charged_to_judgement_latency() {
        use std::sync::atomic::AtomicBool;

        /// Stalls 200 ms judging its first sample only, so the queue
        /// backs up exactly once, deterministically.
        struct FirstSampleStall {
            fired: AtomicBool,
        }
        impl DriftDetector for FirstSampleStall {
            fn name(&self) -> &'static str {
                "first-sample-stall"
            }
            fn judge_one(&self, _e: &[f64], outputs: &[f64]) -> Judgement {
                if !self.fired.swap(true, Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(200));
                }
                Judgement::single(outputs[0] < 0.5)
            }
        }

        let det = FirstSampleStall { fired: AtomicBool::new(false) };
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: PipelineConfig { window: 1, shards: 1, ..Default::default() },
            queue: 1,
            ..Default::default()
        });
        // Timeline: s0 is admitted and judged (200 ms stall); s1 fills
        // the 1-deep queue meanwhile; s2's submit *blocks* for ~the whole
        // stall before its slot frees. Stamped at admission, s2's
        // latency is microseconds. Stamped at the submit call (the
        // pre-fix code), all three samples read ~200 ms and the minimum
        // below explodes — this test fails under the old stamping.
        let ((), outcome) = front.serve(&det, |handle| {
            for i in 0..3 {
                handle.submit(sample(i)).expect("collator alive");
            }
        });
        assert_eq!(outcome.judged, 3);
        assert!(
            outcome.latency.min_ns() < 100_000_000,
            "min latency {} ns: the backpressure stall was charged to the judge",
            outcome.latency.min_ns()
        );
        // The stalled window itself is still honestly slow.
        assert!(outcome.latency.max_ns() >= 200_000_000, "the stalled window must still show");
    }

    #[test]
    #[should_panic(expected = "ServingConfig::queue must be at least 1")]
    fn zero_queue_capacity_is_rejected_at_construction() {
        let _ = ServingFrontEnd::new(ServingConfig { queue: 0, ..Default::default() });
    }

    #[test]
    fn one_deep_queue_boundary_still_serves_everything() {
        let det = Slowpoke { delay: Duration::ZERO };
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: PipelineConfig { window: 4, shards: 1, ..Default::default() },
            queue: 1,
            ..Default::default()
        });
        let ((), outcome) = front.serve(&det, |handle| {
            for i in 0..17 {
                handle.submit(sample(i)).expect("collator alive");
            }
        });
        assert_eq!(outcome.admitted, 17);
        assert_eq!(outcome.judged, 17);
        assert_eq!(outcome.latency.count(), 17);
    }

    #[test]
    fn live_metrics_mirror_the_outcome() {
        use crate::metrics::{MetricsRegistry, MetricsSink};
        use std::sync::Arc;

        let registry = Arc::new(MetricsRegistry::new());
        let det = Slowpoke { delay: Duration::ZERO };
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: PipelineConfig { window: 8, shards: 2, ..Default::default() },
            queue: 16,
            metrics: Some(MetricsSink::new(Arc::clone(&registry)).with_label("workload", "test")),
            ..Default::default()
        });
        let ((), outcome) = front.serve(&det, |handle| {
            for i in 0..45 {
                handle.submit(sample(i)).expect("collator alive");
            }
        });
        assert_eq!(outcome.judged, 45);
        let labels = &[("workload", "test")][..];
        let admitted = registry.counter("prom_serving_admitted_total", "", labels);
        assert_eq!(admitted.get(), 45);
        let depth = registry.gauge("prom_serving_queue_depth", "", labels);
        assert_eq!(depth.get(), 0, "every admission was dequeued");
        let latency = registry.histogram("prom_serving_judgement_latency_ns", "", labels);
        assert_eq!(latency.snapshot().summary(), outcome.latency.summary());
        let windows = registry.histogram("prom_serving_window_judge_ns", "", labels);
        assert_eq!(windows.snapshot().count(), outcome.reports.len() as u64);
        // Per-detector pipeline counters rode along via with_metrics.
        let judged = registry.counter(
            "prom_pipeline_judged_total",
            "",
            &[("workload", "test"), ("detector", "slowpoke")],
        );
        assert_eq!(judged.get(), 45);
    }

    #[test]
    fn serve_multi_reports_every_detector_per_window() {
        let hot = Slowpoke { delay: Duration::ZERO };
        let cold = Slowpoke { delay: Duration::ZERO };
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: PipelineConfig { window: 4, shards: 2, ..Default::default() },
            queue: 32,
            record_admitted: false,
            metrics: None,
        });
        let ((), outcome) = front.serve_multi(vec![&hot, &cold], |handle| {
            for i in 0..10 {
                handle.submit(sample(i)).expect("collator alive");
            }
        });
        assert_eq!(outcome.judged, 10);
        assert_eq!(outcome.reports.len(), 3, "two full windows plus the tail");
        for multi in &outcome.reports {
            assert_eq!(multi.reports.len(), 2, "one report per detector");
        }
        assert_eq!(outcome.latency.count(), 10);
    }

    #[test]
    fn collator_panic_resurfaces_on_the_caller() {
        struct Grenade;
        impl DriftDetector for Grenade {
            fn name(&self) -> &'static str {
                "grenade"
            }
            fn judge_one(&self, _e: &[f64], _o: &[f64]) -> Judgement {
                panic!("boom: detector panicked while judging");
            }
        }
        let det = Grenade;
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: PipelineConfig { window: 1, shards: 1, ..Default::default() },
            queue: 4,
            record_admitted: false,
            metrics: None,
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            front.serve(&det, |handle| {
                // The collator dies on the first sample; later submits
                // may see Closed, which is fine — we only care that the
                // panic reaches this caller.
                for i in 0..4 {
                    let _ = handle.submit(sample(i));
                }
            })
        }))
        .expect_err("the detector panic must resurface");
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(message.contains("boom"), "unexpected payload: {message}");
    }

    #[test]
    fn a_producer_parked_on_a_full_queue_gets_closed_when_the_collator_panics() {
        /// Stalls on its first judgement and then panics, so the producer
        /// fills the 1-deep queue and parks before the collator dies.
        struct SlowGrenade;
        impl DriftDetector for SlowGrenade {
            fn name(&self) -> &'static str {
                "slow-grenade"
            }
            fn judge_one(&self, _e: &[f64], _o: &[f64]) -> Judgement {
                std::thread::sleep(Duration::from_millis(200));
                panic!("boom: detector panicked after a stall");
            }
        }
        let front = ServingFrontEnd::new(ServingConfig {
            pipeline: PipelineConfig { window: 1, shards: 1, ..Default::default() },
            queue: 1,
            ..Default::default()
        });
        // Serve on a watcher thread, so that a producer left parked fails
        // the test instead of hanging it.
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                front.serve(&SlowGrenade, |handle| {
                    // s0 is judging, s1 fills the queue, s2 parks.
                    for i in 0..8 {
                        if let Err(err) = handle.submit(sample(i)) {
                            closed_tx.send((i, err)).unwrap();
                            return;
                        }
                    }
                })
            }));
            let payload = served.expect_err("the detector panic must resurface");
            let message = payload.downcast_ref::<&str>().map(|s| (*s).to_string());
            done_tx.send(message.or_else(|| payload.downcast_ref::<String>().cloned())).unwrap();
        });
        let message = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the serve call hung: a producer stayed parked after the collator panicked");
        assert!(message.unwrap_or_default().contains("boom"));
        let (index, err) = closed_rx.recv().expect("a submit must have failed");
        assert_eq!(index, 2, "the submit parked behind the full queue is the one refused");
        let SubmitError::Closed(refused) = err else { panic!("expected Closed, got {err:?}") };
        assert_eq!(refused.embedding, sample(2).embedding, "the sample comes back");
    }
}
