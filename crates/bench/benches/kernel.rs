//! Distance-kernel microbenchmarks: the lane-grouped / chunked-accumulation
//! scoring kernel against the seed-shaped scalar baseline it replaced
//! (row-per-`Vec` store, strictly sequential accumulation, one `sqrt` per
//! record). All optimized paths are proven bit-identical to the scalar
//! reference (`tests/kernel_equivalence.rs`); this harness measures what
//! that equivalence buys:
//!
//! * `distance_scalar/*` vs `distance_soa/*` — the single-query
//!   calibration distance pass at 1k/10k/100k records × 8/64 dims;
//! * `distance_scalar_8q/*` vs `distance_block_8q/*` — the same pass in
//!   the batched serving shape (8 window samples per store stream, as
//!   `judge_batch` runs it); the blocked pass is `l2_distances_sq_lanes`
//!   over the lane-grouped store `ScoringKernel` keeps;
//! * `knn/*` — `ScoringKernel::k_nearest` (one-query block pass +
//!   insertion select) over the same stores;
//! * `select/*` — the end-to-end `ScoringKernel::select` (a one-query
//!   block pass + partition) plus the Eq. 2 p-value pass it feeds, at
//!   100k records, keeping 50% and 10%;
//! * `p_values/*` — the Eq. 2 pass alone for a 4-expert committee over
//!   one fixed selection (4096 × 64, keep 50%): four single-expert
//!   `p_values_into` calls against one fused `p_values_all`.

use criterion::{criterion_group, criterion_main, Criterion};

use prom_core::calibration::SelectionConfig;
use prom_core::scoring::{JudgeScratch, ScoringKernel};
use prom_ml::matrix::{l2_distance_sq, l2_distances_sq_lanes, lane_groups};

const SIZES: [(usize, &str); 3] = [(1_000, "1k"), (10_000, "10k"), (100_000, "100k")];
const DIMS: [usize; 2] = [8, 64];

/// Deterministic clustered embeddings, row `i` at `store[i*dim..]`.
fn store(n: usize, dim: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n * dim);
    for i in 0..n {
        let centre = (i % 4) as f64 * 3.0;
        out.extend((0..dim).map(|d| centre + ((i * 31 + d * 7) as f64 * 0.37).sin()));
    }
    out
}

fn query(dim: usize) -> Vec<f64> {
    (0..dim).map(|d| 3.0 + (d as f64 * 0.11).cos() * 0.4).collect()
}

/// The seed kernel's distance: strictly sequential accumulation and a
/// `sqrt` per record, over a row-per-`Vec` store — kept here as the
/// measured baseline the SoA pass is gated against.
fn scalar_distance(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc.sqrt()
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group.sample_size(10);

    for (n, tag) in SIZES {
        for dim in DIMS {
            let flat = store(n, dim);
            let rows: Vec<Vec<f64>> = flat.chunks_exact(dim).map(<[f64]>::to_vec).collect();
            let q = query(dim);
            // Both passes fill a distance buffer, exactly like the kernel
            // fills `scratch.dist` — accumulating into one running sum
            // instead would serialize every record behind a loop-carried
            // FP add and measure that chain, not the distance pass.
            let mut out = vec![0.0f64; n];

            group.bench_function(format!("distance_scalar/{tag}x{dim}"), |b| {
                b.iter(|| {
                    for (o, row) in out.iter_mut().zip(&rows) {
                        *o = scalar_distance(row, &q);
                    }
                    std::hint::black_box(&mut out);
                })
            });

            group.bench_function(format!("distance_soa/{tag}x{dim}"), |b| {
                b.iter(|| {
                    for (o, row) in out.iter_mut().zip(flat.chunks_exact(dim)) {
                        *o = l2_distance_sq(row, &q);
                    }
                    std::hint::black_box(&mut out);
                })
            });

            // The batched serving shape: a block of 8 window samples
            // judged against the same store. The scalar baseline streams
            // the store once per query (the only option with per-query
            // passes); the blocked pass streams the lane-grouped store
            // once per block (`l2_distances_sq_lanes`) — the single-query
            // passes above are memory-bound at 100k, so the headroom is in
            // store-traffic amortization and in running records across
            // the vector lanes.
            let queries: Vec<f64> = (0..8)
                .flat_map(|j| {
                    let mut one = query(dim);
                    for (d, x) in one.iter_mut().enumerate() {
                        *x += ((j * 5 + d) as f64 * 0.21).sin();
                    }
                    one
                })
                .collect();
            let mut out8 = vec![0.0f64; 8 * n];

            group.bench_function(format!("distance_scalar_8q/{tag}x{dim}"), |b| {
                b.iter(|| {
                    for (j, one) in queries.chunks_exact(dim).enumerate() {
                        for (o, row) in out8[j * n..(j + 1) * n].iter_mut().zip(&rows) {
                            *o = scalar_distance(row, one);
                        }
                    }
                    std::hint::black_box(&mut out8);
                })
            });

            let lanes = lane_groups(&flat, dim);
            group.bench_function(format!("distance_block_8q/{tag}x{dim}"), |b| {
                b.iter(|| {
                    l2_distances_sq_lanes(&lanes, dim, n, &queries, &mut out8);
                    std::hint::black_box(&mut out8);
                })
            });

            let kernel =
                ScoringKernel::new(rows, vec![0; n], 1, Vec::new(), SelectionConfig::default());
            let mut scratch = JudgeScratch::new();
            let mut neighbours = Vec::new();
            group.bench_function(format!("knn/{tag}x{dim}"), |b| {
                b.iter(|| {
                    kernel.k_nearest(&q, 3, &mut scratch, &mut neighbours);
                    std::hint::black_box(&mut neighbours);
                })
            });
        }
    }

    // End-to-end subset selection at 100k × 8 through the one selection
    // engine (one-query block pass, then select_nth over all distances),
    // keeping 50% and 10%. The keep-10% id keeps its old `pruned_` name
    // so the recorded baselines still match it.
    let (n, dim) = (100_000, 8);
    let flat = store(n, dim);
    let q = query(dim);
    let labels: Vec<usize> = (0..n).map(|i| i % 4).collect();
    let scores: Vec<f64> = (0..n).map(|i| 0.1 + ((i * 13 % 97) as f64 / 97.0)).collect();
    for (name, fraction) in [("partition_50pct", 0.5), ("pruned_10pct", 0.1)] {
        let kernel = ScoringKernel::new(
            flat.chunks_exact(dim).map(<[f64]>::to_vec).collect(),
            labels.clone(),
            4,
            vec![scores.clone()],
            SelectionConfig { fraction, min_full_size: 1, tau: 500.0 },
        );
        let mut scratch = JudgeScratch::new();
        group.bench_function(format!("select/{name}_100kx8"), |b| {
            b.iter(|| {
                kernel.select(&q, &mut scratch);
                scratch.test_scores.clear();
                scratch.test_scores.extend_from_slice(&[0.3, 0.5, 0.7, 0.9]);
                kernel.p_values_into(0, &mut scratch);
                std::hint::black_box(scratch.p_values[0])
            })
        });
    }

    // The committee p-value pass after one selection: a 4-expert kernel
    // at 4096 × 64, keep 50% (the bulk-judge shape), 8 labels.
    let (n, dim, n_labels, n_experts) = (4096, 64, 8, 4);
    let flat = store(n, dim);
    let kernel = ScoringKernel::new(
        flat.chunks_exact(dim).map(<[f64]>::to_vec).collect(),
        (0..n).map(|i| i % n_labels).collect(),
        n_labels,
        (0..n_experts)
            .map(|e| (0..n).map(|i| 0.1 + ((i * (13 + e) % 97) as f64 / 97.0)).collect())
            .collect(),
        SelectionConfig { fraction: 0.5, min_full_size: 1, tau: 50.0 },
    );
    let mut scratch = JudgeScratch::new();
    kernel.select(&query(dim), &mut scratch);
    let tests: Vec<f64> =
        (0..n_experts * n_labels).map(|k| 0.05 + (k as f64 * 0.37).sin().abs() * 0.5).collect();
    group.bench_function("p_values/per_expert_4x4096x64", |b| {
        b.iter(|| {
            for (e, row) in tests.chunks_exact(n_labels).enumerate() {
                scratch.test_scores.clear();
                scratch.test_scores.extend_from_slice(row);
                kernel.p_values_into(e, &mut scratch);
                std::hint::black_box(&scratch.p_values);
            }
        })
    });
    group.bench_function("p_values/all_4x4096x64", |b| {
        b.iter(|| {
            scratch.test_scores.clear();
            scratch.test_scores.extend_from_slice(&tests);
            kernel.p_values_all(&mut scratch);
            std::hint::black_box(&scratch.p_values);
        })
    });

    group.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
