//! The shard executor behind the deployment pipeline.
//!
//! A [`ShardPool`] splits a window into at most `n` contiguous chunks and
//! judges them in parallel on scoped threads ([`std::thread::scope`]), one
//! call at a time: every chunk is judged, and every thread joined, before
//! [`ShardPool::map`] returns. The pool owns **one** [`JudgeScratch`] per
//! shard; chunk `i` of every window judges with scratch `i`, so buffers
//! are reused across windows instead of regrown per window.
//!
//! # Determinism
//!
//! Chunks are contiguous (`div_ceil` chunking) and their results are
//! stitched back **in chunk order**. Judging is per-sample pure and the
//! scratch is stateless between samples, so the stitched output is
//! bit-identical to one sequential `judge_batch` call — which thread
//! finished first never matters (`tests/pipeline_equivalence.rs` proves
//! pool == sequential for every detector).
//!
//! # Panic hygiene
//!
//! Chunk 0 runs on the caller under `catch_unwind`; chunks 1.. run on
//! scoped threads whose handles are all joined. Once every chunk has
//! finished, the panic of the **lowest-index** panicking chunk is
//! re-raised on the caller with its original payload. A panic poisons
//! that chunk's scratch lock; the next call takes the scratch anyway,
//! since every judge path clears its buffers before reading them, so the
//! pool stays fully usable.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::detector::{DriftDetector, Judgement, Sample};
use crate::metrics::{Counter, MetricsSink};
use crate::scoring::JudgeScratch;

/// A shard executor: one reusable [`JudgeScratch`] per shard, windows
/// judged in parallel on scoped threads.
///
/// Build it once (per pipeline, per evaluation run, …) and judge any
/// number of windows through it; see the module docs for the determinism
/// and panic-hygiene guarantees. The pool is `Sync` and every entry point
/// takes `&self`; concurrent callers serialize per chunk on that chunk's
/// scratch lock.
pub struct ShardPool {
    /// One scratch per shard; chunk `i` of a window judges with
    /// `scratches[i]`.
    scratches: Vec<Mutex<JudgeScratch>>,
    /// Live dispatch counters, set at most once by
    /// [`ShardPool::attach_metrics`]; absent on an un-instrumented pool.
    instruments: OnceLock<PoolInstruments>,
}

/// The pool's live time series: how many windows were split and how many
/// shard jobs they became (jobs / windows ≈ effective fan-out).
struct PoolInstruments {
    /// `prom_pool_windows_total` — multi-chunk windows.
    windows: Arc<Counter>,
    /// `prom_pool_jobs_total` — chunks of those windows.
    jobs: Arc<Counter>,
}

impl ShardPool {
    /// A pool of `workers` shards (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            scratches: (0..workers.max(1)).map(|_| Mutex::new(JudgeScratch::new())).collect(),
            instruments: OnceLock::new(),
        }
    }

    /// Publishes this pool's dispatch counters
    /// (`prom_pool_windows_total`, `prom_pool_jobs_total`) into `sink`'s
    /// registry. First attachment wins; later calls are no-ops (the pool
    /// is shared by every detector of a fan-out, which all offer the
    /// same sink).
    pub fn attach_metrics(&self, sink: &MetricsSink) {
        let _ = self.instruments.get_or_init(|| PoolInstruments {
            windows: sink.counter(
                "prom_pool_windows_total",
                "Windows split across shard threads",
                &[],
            ),
            jobs: sink.counter("prom_pool_jobs_total", "Shard jobs run for split windows", &[]),
        });
    }

    /// A pool sized to this machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        Self::new(crate::pipeline::available_shards())
    }

    /// Number of shards.
    pub fn workers(&self) -> usize {
        self.scratches.len()
    }

    /// Splits `samples` into at most `workers()` contiguous chunks, runs
    /// `f` over each chunk with that shard's scratch (chunk 0 on this
    /// thread, the rest on scoped threads), and stitches the results back
    /// in input order — equal to `f(samples, &mut scratch)`
    /// element-for-element.
    ///
    /// # Panics
    ///
    /// Re-raises, once every chunk has finished, the panic of the
    /// lowest-index panicking chunk; panics if `f` returns a different
    /// number of results than it was given samples.
    pub fn map<T, F>(&self, samples: &[Sample], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&[Sample], &mut JudgeScratch) -> Vec<T> + Sync,
    {
        if samples.is_empty() {
            return Vec::new();
        }
        let chunk = samples.len().div_ceil(self.workers().min(samples.len()));
        let run = |i: usize, shard: &[Sample]| {
            let mut scratch = self.scratches[i].lock().unwrap_or_else(PoisonError::into_inner);
            let out = f(shard, &mut scratch);
            assert_eq!(out.len(), shard.len(), "judge closure must return one result per sample");
            out
        };
        if chunk == samples.len() {
            // One chunk: nothing to run in parallel.
            return run(0, samples);
        }
        let mut shards = samples.chunks(chunk);
        let first = shards.next().expect("a non-empty window has a first chunk");
        if let Some(live) = self.instruments.get() {
            live.windows.inc();
            live.jobs.add(samples.len().div_ceil(chunk) as u64);
        }
        let results = std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = shards
                .enumerate()
                .map(|(i, shard)| scope.spawn(move || run(i + 1, shard)))
                .collect();
            let first = catch_unwind(AssertUnwindSafe(|| run(0, first)));
            std::iter::once(first).chain(handles.into_iter().map(|h| h.join())).collect::<Vec<_>>()
        });
        let mut stitched = Vec::with_capacity(samples.len());
        for result in results {
            match result {
                Ok(part) => stitched.extend(part),
                Err(payload) => resume_unwind(payload),
            }
        }
        stitched
    }

    /// Judges a window through the trait-level batched API
    /// ([`DriftDetector::judge_batch_scratch`]) across the pool's shards.
    /// Bit-identical to `detector.judge_batch(samples)`.
    ///
    /// # Panics
    ///
    /// Re-raises a panicking chunk's panic on this thread (see
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
    /// Re-raises a panicking chunk's panic on this thread (see
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Judgement;

    /// Rejects first outputs below 0.5; panics on a negative embedding
    /// (the poison pill for the panic-hygiene tests), naming the sample.
    struct Trip;

    impl DriftDetector for Trip {
        fn name(&self) -> &'static str {
            "trip"
        }

        fn judge_one(&self, embedding: &[f64], outputs: &[f64]) -> Judgement {
            assert!(embedding[0] >= 0.0, "poison sample {} tripped the detector", embedding[1]);
            Judgement::single(outputs[0] < 0.5)
        }
    }

    fn stream(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let conf = 0.2 + 0.6 * ((i % 7) as f64 / 6.0);
                Sample::new(vec![i as f64, i as f64], vec![conf, 1.0 - conf])
            })
            .collect()
    }

    fn panic_message(err: &(dyn std::any::Any + Send)) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn pool_judging_matches_sequential_for_any_worker_count() {
        let det = Trip;
        let samples = stream(53);
        let sequential = det.judge_batch(&samples);
        for workers in [0, 1, 2, 3, 7, 16, 64, 1000] {
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
    fn short_judge_window_results_panic() {
        // One chunk (inline) and three chunks (caller + scoped threads).
        for workers in [1, 3] {
            let pool = ShardPool::new(workers);
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map(&stream(4), |_, _| vec![0usize])
            }))
            .expect_err("a short result must panic");
            let message = panic_message(&*err);
            assert!(message.contains("one result per sample"), "{workers} workers: {message}");
        }
    }

    #[test]
    fn worker_panic_surfaces_on_caller_and_pool_survives() {
        // Three workers over nine samples: chunks [0, 3), [3, 6), [6, 9).
        // Poison in chunk 0 (the caller thread), in the last chunk, and in
        // chunks 0 and 2 at once; the lowest chunk's payload must win.
        let det = Trip;
        for (poison, lowest, tripped) in
            [(&[1][..], 1, &[0][..]), (&[7], 7, &[2]), (&[7, 1], 1, &[0, 2])]
        {
            let pool = ShardPool::new(3);
            let mut poisoned = stream(9);
            for &i in poison {
                poisoned[i].embedding[0] = -1.0;
            }
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.judge(&det, &poisoned)))
                .expect_err("the poison sample must panic the judge call");
            let message = panic_message(&*err);
            assert!(
                message.contains(&format!("poison sample {lowest} tripped")),
                "poison at {poison:?}: unexpected payload: {message}"
            );
            let poisoned_locks: Vec<usize> =
                (0..3).filter(|&i| pool.scratches[i].is_poisoned()).collect();
            assert_eq!(poisoned_locks, tripped, "poison at {poison:?}");

            // No deadlock, no half-judged leftovers: the same pool, its
            // scratch locks poisoned, judges the next (clean) window
            // correctly.
            let clean = stream(11);
            assert_eq!(pool.judge(&det, &clean), det.judge_batch(&clean), "poison at {poison:?}");
        }
    }

    #[test]
    fn concurrent_producers_share_one_pool_without_crosstalk() {
        // Many threads submitting windows through `&pool` at once: each
        // caller must get exactly its own window's results, bit-identical
        // to sequential, however the callers interleave on the per-chunk
        // scratch locks.
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
