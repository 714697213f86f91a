//! The persistent shard-worker pool behind the deployment pipeline.
//!
//! PR 2's `map_sharded` spawned fresh scoped threads — and fresh
//! [`JudgeScratch`] buffers — for every window it judged. At the window
//! rates the ROADMAP targets that is thread churn plus per-window buffer
//! regrowth on the hottest path in the system. This module replaces the
//! per-window spawns with a [`ShardPool`]: `n` long-lived worker threads,
//! each owning **one** scratch that it reuses across every window it ever
//! judges, fed over `crossbeam::channel` queues.
//!
//! # Determinism
//!
//! A window is split into at most `n` contiguous chunks (the same
//! `div_ceil` chunking as `map_sharded`), the chunks go into one shared
//! MPMC job queue that every worker pulls from, and results are stitched
//! back **in chunk order** through per-chunk output slots. Judging is
//! per-sample pure and the scratch is stateless between samples, so the
//! stitched output is bit-identical to one sequential `judge_batch` call
//! — which worker judged which chunk, and in what real-time order the
//! chunks finished, never matters (`tests/pipeline_equivalence.rs` proves
//! pool == scoped threads == sequential for every detector).
//!
//! # Concurrent callers
//!
//! The pool is `Sync` and every entry point takes `&self`, so several
//! producer threads may map windows through one pool at once. All jobs
//! flow through the one shared queue: when one caller's window is down
//! to a single straggler chunk, the workers that finished early pull
//! another caller's chunks instead of idling. Each call drains its own
//! completion channel, so concurrent windows never observe each other's
//! results.
//!
//! # Panic hygiene
//!
//! Workers run every job inside `catch_unwind` and always report
//! completion, payload attached, so a panicking judgement can neither
//! deadlock the channels nor kill the worker: the panic is re-raised on
//! the **caller** thread (after all of the window's jobs have drained, so
//! no borrow is still live on a worker) and the pool remains fully usable
//! for the next window.
//!
//! # Safety model
//!
//! Jobs reference caller data (`&F`, the window's samples, per-chunk
//! output slots) across a channel, which requires erasing lifetimes.
//! [`ShardPool::map`] is the only place that happens, and it is
//! synchronous: on every path — normal, panicking job, dead worker — it
//! receives one completion message per dispatched job before it returns
//! or unwinds, so no job outlives the borrows it holds.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::detector::{DriftDetector, Judgement, Sample};
use crate::scoring::JudgeScratch;

/// What a panicking shard job left behind.
type PanicPayload = Box<dyn Any + Send + 'static>;

/// One type-erased shard job: a monomorphized trampoline plus the raw
/// pointers it reinterprets. The trampoline is a plain `fn` pointer, so
/// the job type never mentions the (possibly non-`'static`) closure or
/// result types it operates on.
struct RawJob {
    /// `run(f, shard_ptr, shard_len, out, scratch)`.
    ///
    /// # Safety
    ///
    /// `f` must point at a live `F`, `out` at a live `Option<Vec<T>>`,
    /// and `shard_ptr..shard_ptr+shard_len` at live `Sample`s, for the
    /// types this trampoline was monomorphized over — upheld by the
    /// completion-before-return discipline in the module docs.
    run: unsafe fn(*const (), *const Sample, usize, *mut (), &mut JudgeScratch),
    f: *const (),
    shard_ptr: *const Sample,
    shard_len: usize,
    out: *mut (),
    done: Sender<Result<(), PanicPayload>>,
}

// SAFETY: the raw pointers target data the submitting thread keeps alive
// and does not touch until every job's completion message has been
// received; the channel hand-off synchronizes the writes (mpsc send/recv
// is release/acquire).
unsafe impl Send for RawJob {}

/// The monomorphized trampoline: runs `f` over the shard and stores the
/// result in the output slot.
///
/// # Safety
///
/// See [`RawJob::run`].
unsafe fn run_shard<T, F>(
    f: *const (),
    shard_ptr: *const Sample,
    shard_len: usize,
    out: *mut (),
    scratch: &mut JudgeScratch,
) where
    F: Fn(&[Sample], &mut JudgeScratch) -> Vec<T>,
{
    let f = &*(f as *const F);
    let shard = std::slice::from_raw_parts(shard_ptr, shard_len);
    let result = f(shard, scratch);
    assert_eq!(result.len(), shard.len(), "judge closure must return one result per sample");
    *(out as *mut Option<Vec<T>>) = Some(result);
}

/// A pool of persistent shard-worker threads, each owning one reusable
/// [`JudgeScratch`], all pulling from one shared job queue.
///
/// Build it once (per pipeline, per evaluation run, …) and judge any
/// number of windows through it; see the module docs for the determinism
/// and panic-hygiene guarantees. The pool is `Sync` and every entry point
/// takes `&self`, so any number of threads may map windows through it
/// concurrently.
pub struct ShardPool {
    /// The shared job queue's send side; every worker holds a cloned
    /// receiver. Swapped for a closed dummy on drop to end the workers.
    injector: Sender<RawJob>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// The caller-side scratch for single-chunk synchronous calls: when a
    /// window would occupy only one worker anyway, dispatching it buys no
    /// parallelism and costs a cross-thread handoff (ruinous on a 1-CPU
    /// host, where it turns a pure function call into a thread ping-pong),
    /// so [`ShardPool::map`] runs it inline with this long-lived scratch
    /// instead. Same computation, same scratch reuse, zero handoff.
    inline_scratch: std::sync::Mutex<JudgeScratch>,
    /// Live dispatch counters, set at most once by
    /// [`ShardPool::attach_metrics`]; absent on an un-instrumented pool,
    /// where [`ShardPool::dispatch`] skips metrics entirely.
    instruments: std::sync::OnceLock<PoolInstruments>,
}

/// The pool's live time series: how many windows were fanned out and how
/// many shard jobs they became (jobs / windows ≈ effective fan-out).
struct PoolInstruments {
    /// `prom_pool_windows_total` — dispatched (multi-chunk) windows.
    windows: std::sync::Arc<crate::metrics::Counter>,
    /// `prom_pool_jobs_total` — shard jobs sent to the workers.
    jobs: std::sync::Arc<crate::metrics::Counter>,
}

impl ShardPool {
    /// Spawns a pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let (injector, jobs) = unbounded::<RawJob>();
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = jobs.clone();
                std::thread::Builder::new()
                    .name(format!("prom-shard-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn shard worker")
            })
            .collect();
        Self {
            injector,
            workers,
            inline_scratch: std::sync::Mutex::new(JudgeScratch::new()),
            instruments: std::sync::OnceLock::new(),
        }
    }

    /// Publishes this pool's dispatch counters
    /// (`prom_pool_windows_total`, `prom_pool_jobs_total`) into `sink`'s
    /// registry. First attachment wins; later calls are no-ops (the pool
    /// is shared by every detector of a fan-out, which all offer the
    /// same sink).
    pub fn attach_metrics(&self, sink: &crate::metrics::MetricsSink) {
        let _ = self.instruments.get_or_init(|| PoolInstruments {
            windows: sink.counter(
                "prom_pool_windows_total",
                "Windows fanned out to the shard workers",
                &[],
            ),
            jobs: sink.counter(
                "prom_pool_jobs_total",
                "Shard jobs dispatched to the worker queue",
                &[],
            ),
        });
    }

    /// A pool sized to this machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        Self::new(crate::pipeline::available_shards())
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Splits `samples` into at most `workers()` contiguous chunks, runs
    /// `f` over each chunk on its worker (with that worker's long-lived
    /// scratch), and stitches the results back in input order — the
    /// pool-backed equivalent of `pipeline::map_sharded`, equal to
    /// `f(samples, &mut scratch)` element-for-element.
    ///
    /// # Panics
    ///
    /// Re-raises (on this thread) the panic of any shard job, after all
    /// of the window's jobs have drained; panics if `f` returns a
    /// different number of results than it was given samples.
    pub fn map<T, F>(&self, samples: &[Sample], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&[Sample], &mut JudgeScratch) -> Vec<T> + Sync,
    {
        if samples.is_empty() {
            return Vec::new();
        }
        let chunk = samples.len().div_ceil(self.workers.len().min(samples.len()));
        // The ceil division can need fewer chunks than workers; the output
        // slots and the completion drain are sized by the real count.
        let chunks = samples.len().div_ceil(chunk);
        if chunks == 1 {
            // One chunk = no parallelism to gain: run inline with the
            // pool's caller-side scratch (see `inline_scratch`). A prior
            // panic may have poisoned the mutex; the scratch needs no
            // repair (every judge path clears before reading), so take it
            // anyway.
            let mut scratch =
                self.inline_scratch.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            let out = f(samples, &mut scratch);
            assert_eq!(out.len(), samples.len(), "judge closure must return one result per sample");
            return out;
        }
        let mut outputs: Vec<Option<Vec<T>>> = Vec::new();
        outputs.resize_with(chunks, || None);
        let (done_tx, done_rx) = unbounded();
        // Chunk `i` writes output slot `i`, whichever worker pulls it.
        // The drain below keeps `f`, `samples` and `outputs` alive and
        // untouched until every job has completed (module docs).
        let f_ptr: *const () = std::ptr::from_ref(&f).cast();
        for (shard, slot) in samples.chunks(chunk).zip(&mut outputs) {
            let job = RawJob {
                run: run_shard::<T, F>,
                f: f_ptr,
                shard_ptr: shard.as_ptr(),
                shard_len: shard.len(),
                out: std::ptr::from_mut(slot).cast(),
                done: done_tx.clone(),
            };
            self.injector.send(job).expect("shard workers hung up");
        }
        if let Some(live) = self.instruments.get() {
            live.windows.inc();
            live.jobs.add(chunks as u64);
        }
        drop(done_tx);
        let panic = drain(&done_rx, chunks);
        // Every job has completed: the borrows of `f`, `samples`, and
        // `outputs` have ended, so unwinding (or returning) is safe.
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        let mut stitched = Vec::with_capacity(samples.len());
        for slot in &mut outputs {
            stitched.extend(slot.take().expect("completed job must have written its slot"));
        }
        stitched
    }

    /// Judges a window through the trait-level batched API
    /// ([`DriftDetector::judge_batch_scratch`]) on the pool's workers.
    /// Bit-identical to `detector.judge_batch(samples)`.
    ///
    /// # Panics
    ///
    /// Re-raises any shard job's panic on this thread (see
    /// [`ShardPool::map`]).
    pub fn judge(&self, detector: &dyn DriftDetector, samples: &[Sample]) -> Vec<Judgement> {
        self.map(samples, |shard, scratch| detector.judge_batch_scratch(shard, scratch))
    }

    /// Judges a window keeping the rich per-expert committee detail
    /// ([`DriftDetector::judge_batch_rich_scratch`]), or `None` for a
    /// detector without one. Bit-identical to the sequential rich batch.
    ///
    /// # Panics
    ///
    /// Re-raises any shard job's panic on this thread (see
    /// [`ShardPool::map`]).
    pub fn judge_rich(
        &self,
        detector: &dyn DriftDetector,
        samples: &[Sample],
    ) -> Option<Vec<crate::committee::PromJudgement>> {
        // Rich support is detector-global; probe it without judging.
        detector.judge_batch_rich_scratch(&[], &mut JudgeScratch::new())?;
        Some(self.map(samples, |shard, scratch| {
            detector
                .judge_batch_rich_scratch(shard, scratch)
                .expect("rich-judgement support is a detector-global property")
        }))
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Dropping the only real injector sender disconnects the shared
        // queue, which ends every worker loop once the queue drains; the
        // dummy replacement is wired to nothing.
        let (closed, _) = unbounded();
        self.injector = closed;
        for thread in self.workers.drain(..) {
            // A worker never panics (jobs run under catch_unwind); if one
            // somehow did, dropping the pool must not double-panic.
            let _ = thread.join();
        }
    }
}

/// Receives `jobs` completion messages, returning the first panic payload
/// (if any). A disconnect — a worker thread vanished mid-window, which
/// catch_unwind should make impossible — is converted into a payload too,
/// so callers can never deadlock waiting on a dead worker.
fn drain(done_rx: &Receiver<Result<(), PanicPayload>>, jobs: usize) -> Option<PanicPayload> {
    let mut panic: Option<PanicPayload> = None;
    for _ in 0..jobs {
        match done_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(payload)) => {
                panic.get_or_insert(payload);
            }
            Err(_) => {
                panic.get_or_insert_with(|| Box::new("shard worker disconnected mid-window"));
                // Queued jobs on a dead worker were dropped with their
                // `done` senders; further receives would also disconnect
                // immediately. Nothing is still running.
                break;
            }
        }
    }
    panic
}

/// The worker loop: one long-lived scratch, jobs until the pool hangs up.
fn worker_loop(jobs: &Receiver<RawJob>) {
    let mut scratch = JudgeScratch::new();
    while let Ok(job) = jobs.recv() {
        // SAFETY: the submitting thread keeps the job's referents alive
        // until it has received this job's completion message (module
        // docs); the trampoline's type contract is upheld at job
        // construction.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe {
            (job.run)(job.f, job.shard_ptr, job.shard_len, job.out, &mut scratch)
        }));
        // Completion must be reported even for panicked jobs, or the
        // caller would deadlock; the scratch needs no repair — every
        // judge path clears the buffers it uses before reading them.
        let _ = job.done.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Judgement;

    /// Rejects first outputs below 0.5; panics on a negative embedding
    /// (the poison pill for the panic-hygiene tests).
    struct Trip;

    impl DriftDetector for Trip {
        fn name(&self) -> &'static str {
            "trip"
        }

        fn judge_one(&self, embedding: &[f64], outputs: &[f64]) -> Judgement {
            assert!(embedding[0] >= 0.0, "poison sample tripped the detector");
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
    fn pool_judging_matches_sequential_for_any_worker_count() {
        let det = Trip;
        let samples = stream(53);
        let sequential = det.judge_batch(&samples);
        for workers in [1, 2, 3, 7, 16] {
            let pool = ShardPool::new(workers);
            assert_eq!(pool.judge(&det, &samples), sequential, "{workers} workers");
            assert_eq!(pool.judge(&det, &samples), sequential, "{workers} workers, reused");
        }
    }

    #[test]
    fn pool_handles_degenerate_windows() {
        let det = Trip;
        let pool = ShardPool::new(4);
        assert!(pool.judge(&det, &[]).is_empty());
        let one = stream(1);
        assert_eq!(pool.judge(&det, &one), det.judge_batch(&one));
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = ShardPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.judge(&Trip, &stream(5)).len(), 5);
    }

    #[test]
    fn map_preserves_input_order() {
        let pool = ShardPool::new(3);
        let samples = stream(100);
        let ids =
            pool.map(&samples, |shard, _| shard.iter().map(|s| s.embedding[0] as usize).collect());
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_surfaces_on_caller_and_pool_survives() {
        let det = Trip;
        let pool = ShardPool::new(3);
        let mut poisoned = stream(9);
        poisoned[4].embedding[0] = -1.0;

        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.judge(&det, &poisoned)))
            .expect_err("the poison sample must panic the judge call");
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(message.contains("poison sample"), "unexpected payload: {message}");

        // No deadlock, no dead worker, no half-judged leftovers: the same
        // pool judges the next (clean) window correctly.
        let clean = stream(11);
        assert_eq!(pool.judge(&det, &clean), det.judge_batch(&clean));
    }

    #[test]
    fn concurrent_producers_share_one_pool_without_crosstalk() {
        // Many threads submitting windows through `&pool` at once: each
        // caller must get exactly its own window's results, bit-identical
        // to sequential, no matter how the shared queue interleaves the
        // chunks.
        let det = Trip;
        let pool = ShardPool::new(3);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for p in 0..8usize {
                let pool = &pool;
                let det = &det;
                handles.push(s.spawn(move || {
                    let samples = stream(31 + p * 7);
                    for _ in 0..10 {
                        assert_eq!(pool.judge(det, &samples), det.judge_batch(&samples));
                    }
                }));
            }
            for h in handles {
                h.join().expect("producer thread");
            }
        });
    }
}
