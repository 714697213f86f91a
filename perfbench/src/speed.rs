//! Host-speed tracking.
//!
//! Other tenants of a shared host slow every instruction the benchmark
//! runs — a busy sibling hyperthread, a lower shared clock, a contended
//! cache — by up to a third, for minutes at a time; the judging thread's
//! CPU time grows with its wall time, so neither filters it out. A fixed
//! reference computation, owned by the benchmark and timed between units
//! of work, measures the host's speed at that moment, and the time-based
//! end-to-end figures are scaled to the reference host's speed. A slower
//! hour then does not read as a regression, while a change to the code
//! under test moves the figures as before. The kernel and `NOMINAL_S` must
//! not change once baselines are recorded.

use std::time::Instant;

use crate::util::SplitMix;

/// The kernel's time on the unloaded reference host (Intel Xeon, 2 vCPUs).
const NOMINAL_S: f64 = 40e-6;
const ROWS: usize = 512;
const DIM: usize = 32;
const QUERIES: usize = 4;
/// Kernel passes per measurement; the fastest counts.
const REPS: usize = 3;

/// The reference kernel: squared distances from 4 queries to 512 rows of
/// 32 values, each followed by a median partition — the same kind of work
/// as a judgement, in a 128 KiB working set.
pub struct HostSpeed {
    rows: Vec<f64>,
    queries: Vec<f64>,
    dist: Vec<(f64, u32)>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut rng = SplitMix::new(0x0ef);
        let mut draw = |n: usize| -> Vec<f64> {
            (0..n).map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64).collect()
        };
        let rows = draw(ROWS * DIM);
        let queries = draw(QUERIES * DIM);
        Self { rows, queries, dist: Vec::with_capacity(ROWS) }
    }

    /// The host's speed now relative to the reference host: below 1 when
    /// slower. Multiply a time by it, or divide a rate by it, to express
    /// the figure at the reference speed.
    pub fn factor(&mut self) -> f64 {
        let best = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.pass());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        NOMINAL_S / best
    }

    fn pass(&mut self) -> f64 {
        let mut acc = 0.0;
        for q in self.queries.chunks_exact(DIM) {
            self.dist.clear();
            for (i, row) in self.rows.chunks_exact(DIM).enumerate() {
                let d: f64 = row.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                self.dist.push((d, i as u32));
            }
            self.dist.select_nth_unstable_by(ROWS / 2, |a, b| a.0.total_cmp(&b.0));
            acc += self.dist[ROWS / 2].0;
        }
        acc
    }
}
