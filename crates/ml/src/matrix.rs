//! Dense row-major `f64` matrices and the vector helpers used across the
//! crate.
//!
//! This is intentionally a minimal BLAS-free implementation: the models in
//! this crate are small (tens of thousands of parameters), so a cache-aware
//! `ikj` matrix multiply is more than fast enough.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use prom_ml::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot build a matrix from zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds for {} rows", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds for {} rows", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} * {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product `self * other^T` without materializing the transpose.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_transpose_b shape mismatch: {:?} * {:?}^T",
            self.shape(),
            other.shape()
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                out[(i, j)] = dot(a_row, other.row(j));
            }
        }
        out
    }

    /// Matrix product `self^T * other` without materializing the transpose.
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            other.rows,
            "transpose_a_matmul shape mismatch: {:?}^T * {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec shape mismatch");
        (0..self.rows).map(|i| dot(self.row(i), v)).collect()
    }

    /// Vector–matrix product `v * self` (i.e. `self^T * v`).
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "vecmat shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &m) in out.iter_mut().zip(self.row(i)) {
                *o += vi * m;
            }
        }
        out
    }

    /// In-place element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f64) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place multiplication of every element by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Resets every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }

    /// Returns a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(other.data.iter()).map(|(a, b)| a * b).collect(),
        }
    }

    /// Outer product of two vectors: `a b^T`.
    pub fn outer(a: &[f64], b: &[f64]) -> Matrix {
        let mut out = Matrix::zeros(a.len(), b.len());
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                out[(i, j)] = ai * bj;
            }
        }
        out
    }

    /// In-place `self += alpha * a b^T` without allocating the outer product.
    pub fn add_outer(&mut self, a: &[f64], b: &[f64], alpha: f64) {
        assert_eq!(self.rows, a.len(), "add_outer row mismatch");
        assert_eq!(self.cols, b.len(), "add_outer col mismatch");
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0.0 {
                continue;
            }
            let row = self.row_mut(i);
            for (r, &bj) in row.iter_mut().zip(b.iter()) {
                *r += alpha * ai * bj;
            }
        }
    }

    /// Sum over rows, producing a length-`cols` vector.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(i)) {
                *o += x;
            }
        }
        out
    }

    /// Mean over rows, producing a length-`cols` vector.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has zero rows.
    pub fn col_means(&self) -> Vec<f64> {
        assert!(self.rows > 0, "col_means of an empty matrix");
        let mut out = self.col_sums();
        let inv = 1.0 / self.rows as f64;
        out.iter_mut().for_each(|x| *x *= inv);
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Clips every element into `[-limit, limit]` (gradient clipping).
    pub fn clip(&mut self, limit: f64) {
        for a in self.data.iter_mut() {
            *a = a.clamp(-limit, limit);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics on length mismatch (debug builds assert; release relies on zip).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Number of independent accumulators in [`l2_distance_sq`] /
/// [`l2_norm_sq`]. The accumulators carry no dependency on each other, so
/// the compiler vectorizes the fixed-width inner loop: on the default
/// x86-64 target (SSE2, 128-bit registers) the four `f64` lanes occupy two
/// registers; a build for an AVX2 target level fits them in one 256-bit
/// register. The summation order — and so every result bit — is the same
/// either way.
pub const L2_LANES: usize = 4;

/// Records per group of a lane-grouped embedding store (see
/// [`l2_distances_sq_lanes`]).
pub const LANE_GROUP: usize = 8;

/// **Squared** Euclidean (l2) distance between two equal-length slices,
/// accumulated in [`L2_LANES`] independent lanes.
///
/// This is the one canonical distance summation of the workspace: every
/// distance the system compares — kernel selection, k-NN, k-means, τ
/// calibration — goes through this function (or [`l2_distance`], which is
/// exactly `l2_distance_sq(..).sqrt()`), so two code paths computing the
/// distance between the same pair of slices always agree **bit for bit**.
///
/// The chunked accumulation order (`(acc0+acc1) + (acc2+acc3) + tail`) is
/// part of that contract: it generally differs in the last ulps from a
/// sequential left-to-right sum for `len >= L2_LANES` (floating-point
/// addition is not associative) and is bit-identical to it below that —
/// see the reordering caveat tests. What is *invariant* under the
/// reordering: every partial sum is non-negative, the result is NaN iff
/// some coordinate pair produces one, and overflow saturates to `+inf`
/// (squared distances overflow for norms ≳ 1.3e154 — callers comparing
/// squared distances inherit `+inf` ties there, resolved by index as
/// everywhere else).
#[inline]
pub fn l2_distance_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "l2_distance_sq length mismatch");
    // chunks_exact + fixed-size array views: same lane/op sequence as the
    // obvious indexed loop (so identical bits), but the compiler sees every
    // access is in bounds and vectorizes without checks.
    let chunks = a.len() / L2_LANES;
    let mut acc = [0.0f64; L2_LANES];
    for (ra, rb) in a.chunks_exact(L2_LANES).zip(b.chunks_exact(L2_LANES)) {
        let ra: &[f64; L2_LANES] = ra.try_into().unwrap();
        let rb: &[f64; L2_LANES] = rb.try_into().unwrap();
        for l in 0..L2_LANES {
            let d = ra[l] - rb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in a[L2_LANES * chunks..].iter().zip(&b[L2_LANES * chunks..]) {
        let d = x - y;
        tail += d * d;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Euclidean (l2) distance between two equal-length slices — exactly
/// [`l2_distance_sq`]`.sqrt()`, sharing its summation order (and caveats).
#[inline]
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    l2_distance_sq(a, b).sqrt()
}

/// [`l2_distance_sq`] with partial-distance early exit: returns `None` as
/// soon as the partial sum already reaches `bound`, `Some(d²)` otherwise —
/// where the `Some` value is **bit-identical** to `l2_distance_sq(a, b)`.
///
/// Element `d` of `a` is read at `a[d * stride]`: stride 1 is a contiguous
/// row, stride [`LANE_GROUP`] one record's lane of a lane-grouped store
/// (pass the group sliced from the record's lane offset).
///
/// Soundness of the exit: every term is non-negative, IEEE round-to-nearest
/// addition of a non-negative value never decreases a sum
/// (`fl(s + t) >= s` for `t >= 0`), and the lane combine is monotone in
/// each argument — so every partial combined sum is `<=` the final one, and
/// `partial >= bound` proves `final >= bound`. The exit checks only *read*
/// the accumulators (every survivor runs the exact same sequence of
/// additions as the unbounded kernel), which is what keeps survivors
/// bit-identical. A NaN partial compares false against any bound, so NaN
/// inputs never exit early and surface as `Some(NaN)` exactly like the
/// unbounded kernel.
///
/// # Panics
///
/// Panics if `a` is too short to hold `b.len()` elements at `stride`.
#[inline]
pub fn l2_distance_sq_bounded(a: &[f64], stride: usize, b: &[f64], bound: f64) -> Option<f64> {
    let Some(last) = b.len().checked_sub(1) else {
        return Some(0.0);
    };
    // Cut `a` at the last element read, so the compiler can drop the
    // per-element bounds checks.
    let a = &a[..last * stride + 1];
    let mut acc = [0.0f64; L2_LANES];
    let mut chunks = b.chunks_exact(L2_LANES);
    for (c, rb) in chunks.by_ref().enumerate() {
        let rb: &[f64; L2_LANES] = rb.try_into().unwrap();
        for l in 0..L2_LANES {
            let d = a[(c * L2_LANES + l) * stride] - rb[l];
            acc[l] += d * d;
        }
        // Check every 4 chunks (16 elements) — often enough to save work on
        // far records, rare enough not to tax the inner loop.
        if c % 4 == 3 && (acc[0] + acc[1]) + (acc[2] + acc[3]) >= bound {
            return None;
        }
    }
    let mut tail = 0.0f64;
    for (d, y) in b.iter().enumerate().skip(b.len() - chunks.remainder().len()) {
        let x = a[d * stride] - y;
        tail += x * x;
    }
    Some((acc[0] + acc[1]) + (acc[2] + acc[3]) + tail)
}

/// Offset of value `d` of record `i` in a lane-grouped store of dimension
/// `dim`: group `i / LANE_GROUP` holds its [`LANE_GROUP`] records
/// dimension-major, so the value sits at
/// `((i / LANE_GROUP) · dim + d) · LANE_GROUP + i % LANE_GROUP`.
#[inline]
pub fn lane_offset(i: usize, d: usize, dim: usize) -> usize {
    ((i / LANE_GROUP) * dim + d) * LANE_GROUP + i % LANE_GROUP
}

/// Regroups a row-major store (`n × dim`) into the lane-grouped layout of
/// [`l2_distances_sq_lanes`], zero-padding the last group.
///
/// # Panics
///
/// Panics if `dim == 0` or `rows` is not a multiple of `dim`.
pub fn lane_groups(rows: &[f64], dim: usize) -> Vec<f64> {
    assert!(dim > 0 && rows.len().is_multiple_of(dim), "rows are not n x dim");
    let n = rows.len() / dim;
    let mut lanes = vec![0.0; n.div_ceil(LANE_GROUP) * dim * LANE_GROUP];
    for (i, row) in rows.chunks_exact(dim).enumerate() {
        for (d, &x) in row.iter().enumerate() {
            lanes[lane_offset(i, d, dim)] = x;
        }
    }
    lanes
}

/// Squared distances from every record of a lane-grouped store to every
/// row of the row-major `queries` block (`q × dim`), written query-major to
/// `out[j * n + i]` for record `i` and query `j`.
///
/// The store holds `n` records in groups of [`LANE_GROUP`]: value `d` of
/// record `i` sits at [`lane_offset`]`(i, d, dim)`, and the lanes past `n`
/// in the last group are padding (never written to `out`). Records, not
/// dimensions, run across the vector lanes: each step broadcasts one query
/// value against the same dimension of eight records, so no pair needs a
/// horizontal combine or a reload of its query.
///
/// Every record still runs exactly the op sequence of
/// [`l2_distance_sq`]`(row, query)` — `x = e[d] − q[d]`, `acc[d mod 4] +=
/// x·x` over the whole chunks in ascending `d`, then the tail, then
/// `(acc0 + acc1) + (acc2 + acc3) + tail` — so every value is
/// **bit-identical** to the per-pair kernel. The four accumulator sets run
/// one after another ("lane-major"): each set only ever sees its own
/// dimensions in ascending order, so the order of the sets changes no bit
/// while only one set of eight accumulators is live at a time.
///
/// # Panics
///
/// Panics if `dim == 0`, `lanes` is not `⌈n / LANE_GROUP⌉` groups of `dim
/// × LANE_GROUP` values, `queries` is not a multiple of `dim`, or `out` is
/// not exactly `n * q` long.
pub fn l2_distances_sq_lanes(
    lanes: &[f64],
    dim: usize,
    n: usize,
    queries: &[f64],
    out: &mut [f64],
) {
    assert!(dim > 0, "l2_distances_sq_lanes needs dim >= 1");
    assert_eq!(lanes.len(), n.div_ceil(LANE_GROUP) * dim * LANE_GROUP, "lane store is not n x dim");
    assert!(queries.len().is_multiple_of(dim), "query-block length not a multiple of dim");
    assert_eq!(out.len(), n * (queries.len() / dim), "output length mismatch");
    // Dispatch the common power-of-two dims to a const-generic pass: with
    // the dimension known at compile time the per-group loops have
    // constant bounds and unroll. Every arm runs the same op sequence, so
    // bits are unchanged — unrolling is scheduling, not arithmetic.
    match dim {
        4 => lanes_pass_const::<4>(lanes, n, queries, out),
        8 => lanes_pass_const::<8>(lanes, n, queries, out),
        16 => lanes_pass_const::<16>(lanes, n, queries, out),
        32 => lanes_pass_const::<32>(lanes, n, queries, out),
        64 => lanes_pass_const::<64>(lanes, n, queries, out),
        _ => lanes_pass(lanes, dim, n, queries, out),
    }
}

/// [`l2_distances_sq_lanes`] with the dimension as a compile-time constant.
fn lanes_pass_const<const D: usize>(lanes: &[f64], n: usize, queries: &[f64], out: &mut [f64]) {
    lanes_pass(lanes, D, n, queries, out);
}

/// Store elements per tile of the lane pass: 2048 × 8 bytes = 16KB, half a
/// typical 32KB L1d, leaving room for the query block and outputs.
const TILE_ELEMS: usize = 2048;

/// The body of [`l2_distances_sq_lanes`]: the store is read in tiles of
/// whole groups, and each tile serves every query of the block while it
/// is L1-resident, writing one sequential output run per query.
#[inline(always)]
fn lanes_pass(lanes: &[f64], dim: usize, n: usize, queries: &[f64], out: &mut [f64]) {
    let group_len = dim * LANE_GROUP;
    let tile_groups = (TILE_ELEMS / group_len).max(1);
    let mut group_out = [0.0f64; LANE_GROUP];
    for (t, tile) in lanes.chunks(tile_groups * group_len).enumerate() {
        for (j, query) in queries.chunks_exact(dim).enumerate() {
            for (g, group) in tile.chunks_exact(group_len).enumerate() {
                let base = (t * tile_groups + g) * LANE_GROUP;
                let valid = (n - base).min(LANE_GROUP);
                lane_group_pass(group, &query[..dim], dim, &mut group_out);
                let dst = &mut out[j * n + base..j * n + base + valid];
                if valid == LANE_GROUP {
                    // A whole group: a constant-length store, not a
                    // `memcpy` call.
                    let dst: &mut [f64; LANE_GROUP] = dst.try_into().unwrap();
                    *dst = group_out;
                } else {
                    dst.copy_from_slice(&group_out[..valid]);
                }
            }
        }
    }
}

/// Squared distances from the [`LANE_GROUP`] records of one group to
/// `query`, in the op sequence of [`l2_distance_sq`] per record.
#[inline(always)]
fn lane_group_pass(group: &[f64], query: &[f64], dim: usize, out: &mut [f64; LANE_GROUP]) {
    let group = &group[..dim * LANE_GROUP];
    let whole = dim - dim % L2_LANES;
    // One accumulator per record over `dims`, in ascending order.
    let sum = |dims: std::iter::StepBy<std::ops::Range<usize>>| {
        let mut acc = [0.0f64; LANE_GROUP];
        for d in dims {
            let q = query[d];
            let e: &[f64; LANE_GROUP] =
                group[d * LANE_GROUP..(d + 1) * LANE_GROUP].try_into().unwrap();
            for r in 0..LANE_GROUP {
                let x = e[r] - q;
                acc[r] += x * x;
            }
        }
        acc
    };
    // Set `l` takes dims `l, l + 4, l + 8, …` of the whole chunks.
    let set = |l: usize| sum((l..whole).step_by(L2_LANES));
    let sets = [set(0), set(1), set(2), set(3)];
    let tail = sum((whole..dim).step_by(1));
    for (r, o) in out.iter_mut().enumerate() {
        *o = (sets[0][r] + sets[1][r]) + (sets[2][r] + sets[3][r]) + tail[r];
    }
}

/// **Squared** l2 norm of a slice, accumulated exactly like
/// [`l2_distance_sq`] against an implicit zero vector.
#[inline]
pub fn l2_norm_sq(a: &[f64]) -> f64 {
    let chunks = a.len() / L2_LANES;
    let mut acc = [0.0f64; L2_LANES];
    for ra in a.chunks_exact(L2_LANES) {
        let ra: &[f64; L2_LANES] = ra.try_into().unwrap();
        for l in 0..L2_LANES {
            acc[l] += ra[l] * ra[l];
        }
    }
    let mut tail = 0.0f64;
    for x in &a[L2_LANES * chunks..] {
        tail += x * x;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// l2 norm of a slice — exactly [`l2_norm_sq`]`.sqrt()`.
#[inline]
pub fn l2_norm(a: &[f64]) -> f64 {
    l2_norm_sq(a).sqrt()
}

/// In-place `a += alpha * b` for slices.
#[inline]
pub fn axpy(a: &mut [f64], b: &[f64], alpha: f64) {
    debug_assert_eq!(a.len(), b.len(), "axpy length mismatch");
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x += alpha * y;
    }
}

/// Index of the maximum element (first one wins ties).
///
/// # Panics
///
/// Panics on an empty slice.
#[inline]
pub fn argmax(a: &[f64]) -> usize {
    assert!(!a.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &x) in a.iter().enumerate() {
        if x > a[best] {
            best = i;
        }
    }
    best
}

/// Index of the minimum element (first one wins ties).
///
/// # Panics
///
/// Panics on an empty slice.
#[inline]
pub fn argmin(a: &[f64]) -> usize {
    assert!(!a.is_empty(), "argmin of empty slice");
    let mut best = 0;
    for (i, &x) in a.iter().enumerate() {
        if x < a[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i3), a);
        let i2 = Matrix::identity(2);
        assert_eq!(i2.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_transpose_b_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0, 9.0], vec![1.0, 0.5, -1.0]]);
        assert_eq!(a.matmul_transpose_b(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_a_matmul_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 1.0], vec![2.0, 3.0]]);
        assert_eq!(a.transpose_a_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_is_involutive() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn outer_product() {
        let m = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(m, Matrix::from_rows(&[vec![3.0, 4.0], vec![6.0, 8.0]]));
    }

    #[test]
    fn add_outer_matches_outer() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0], 2.0);
        let mut expect = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0]);
        expect.scale(2.0);
        assert_eq!(m, expect);
    }

    #[test]
    fn col_sums_and_means() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
        assert_eq!(a.col_means(), vec![2.0, 3.0]);
    }

    #[test]
    fn argmax_argmin_first_tie_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmin(&[4.0, 0.0, 0.0, 2.0]), 1);
    }

    #[test]
    fn clip_bounds_values() {
        let mut m = Matrix::from_rows(&[vec![-10.0, 0.5], vec![3.0, -0.2]]);
        m.clip(1.0);
        assert_eq!(m, Matrix::from_rows(&[vec![-1.0, 0.5], vec![1.0, -0.2]]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn l2_distance_triangle_inequality_spot_check() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        let c = [6.0, 8.0];
        assert!((l2_distance(&a, &b) - 5.0).abs() < 1e-12);
        assert!(l2_distance(&a, &c) <= l2_distance(&a, &b) + l2_distance(&b, &c) + 1e-12);
    }

    /// Sequential left-to-right reference sum — what `l2_distance` computed
    /// before the chunked kernel. Used to pin the reordering caveat.
    fn sequential_distance_sq(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
    }

    #[test]
    fn l2_distance_is_exactly_sqrt_of_l2_distance_sq() {
        let a: Vec<f64> = (0..17).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let b: Vec<f64> = (0..17).map(|i| (i as f64 * 1.3).cos() * 2.0).collect();
        assert_eq!(l2_distance(&a, &b).to_bits(), l2_distance_sq(&a, &b).sqrt().to_bits());
        assert_eq!(l2_norm(&a).to_bits(), l2_norm_sq(&a).sqrt().to_bits());
    }

    /// Below `L2_LANES` elements the chunked kernel degenerates to the
    /// sequential tail loop, so its bits match the old left-to-right sum
    /// exactly — the workspace's dim-1/dim-3 fixtures are bit-stable across
    /// the kernel swap.
    #[test]
    fn chunked_sum_matches_sequential_below_lane_width() {
        for dim in 1..L2_LANES {
            let a: Vec<f64> = (0..dim).map(|i| (i as f64 + 0.1) * 1.7).collect();
            let b: Vec<f64> = (0..dim).map(|i| (i as f64 - 0.3) * 0.9).collect();
            assert_eq!(
                l2_distance_sq(&a, &b).to_bits(),
                sequential_distance_sq(&a, &b).to_bits(),
                "dim {dim} must be bit-identical to the sequential sum"
            );
        }
    }

    /// The documented caveat, pinned so it cannot silently change: at
    /// `len >= L2_LANES` the chunked combine is a *different* (equally
    /// valid) rounding of the same exact sum. A deterministic family of
    /// inputs must contain at least one last-ulp divergence — proof that
    /// bit-equivalence claims about the kernel swap must come from sharing
    /// one summation, not from float algebra. (Each individual divergence
    /// is within a few ulps; the test also pins that.)
    #[test]
    fn chunked_sum_reordering_caveat_witness() {
        let mut witnessed = false;
        for len in L2_LANES..40 {
            let a: Vec<f64> = (0..len).map(|i| 0.1 * (i as f64 * 0.73).sin()).collect();
            let b: Vec<f64> = (0..len).map(|i| 0.2 * (i as f64 * 1.31).cos()).collect();
            let chunked = l2_distance_sq(&a, &b);
            let sequential = sequential_distance_sq(&a, &b);
            let ulps = (chunked.to_bits() as i64 - sequential.to_bits() as i64).unsigned_abs();
            assert!(ulps <= 8, "len {len}: {ulps} ulps apart — more than reassociation explains");
            witnessed |= ulps > 0;
        }
        assert!(
            witnessed,
            "witness regressed: chunked and sequential sums agree bit-for-bit on the whole \
             family; the caveat docs (and this pin) need re-examination"
        );
    }

    #[test]
    fn bounded_distance_survivors_are_bit_identical_and_exits_are_sound() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.31).sin() * 4.0).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 0.17).cos() * 3.0).collect();
        let exact = l2_distance_sq(&a, &b);
        // A bound above the distance must survive with identical bits.
        let survived = l2_distance_sq_bounded(&a, 1, &b, exact * 2.0).expect("under the bound");
        assert_eq!(survived.to_bits(), exact.to_bits());
        // A bound the partial sum reaches must exit; one it never reaches
        // (inf) must not.
        assert_eq!(l2_distance_sq_bounded(&a, 1, &b, exact * 0.25), None);
        assert_eq!(
            l2_distance_sq_bounded(&a, 1, &b, f64::INFINITY).map(f64::to_bits),
            Some(exact.to_bits())
        );
        // NaN never exits early: it surfaces like the unbounded kernel.
        let nan = vec![f64::NAN; 37];
        assert!(l2_distance_sq_bounded(&nan, 1, &b, 0.0).expect("NaN must not exit").is_nan());
        // A record's lane of a lane-grouped store, read at stride
        // LANE_GROUP, runs the same op sequence as its contiguous row.
        let mut rows = vec![0.0; 3 * 37];
        rows[37..74].copy_from_slice(&a);
        let lanes = lane_groups(&rows, 37);
        let lane = &lanes[lane_offset(1, 0, 37)..];
        let survived = l2_distance_sq_bounded(lane, LANE_GROUP, &b, exact * 2.0);
        assert_eq!(survived.map(f64::to_bits), Some(exact.to_bits()));
        assert_eq!(l2_distance_sq_bounded(lane, LANE_GROUP, &b, exact * 0.25), None);
    }

    /// Rows whose coordinates mix ordinary values with NaN, ±inf and
    /// 1e200 (which overflows when squared), seeded per `(n, dim)`.
    fn hostile_rows(n: usize, dim: usize, salt: f64) -> Vec<f64> {
        (0..n * dim)
            .map(|k| match (k * 7 + dim) % 53 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 1.0e200,
                _ => ((k as f64 + salt) * 0.23).sin() * 5.0,
            })
            .collect()
    }

    #[test]
    fn lane_pass_is_bit_identical_to_the_per_pair_kernel() {
        // Every dim 1..=70 covers the tail-only dims, all five
        // const-dispatched arms and the runtime path; the sizes cover a
        // partial single group, an exact group, one record past a group
        // and many groups; 1-, 3- and 8-query blocks cover the block
        // shapes the judging paths use.
        for dim in 1..=70 {
            for n in [1, 7, 8, 9, 45, 1000] {
                let rows = hostile_rows(n, dim, 0.0);
                let lanes = lane_groups(&rows, dim);
                for q in [1, 3, 8] {
                    let queries = hostile_rows(q, dim, 0.5);
                    // Pre-filled with a sentinel: a padded lane reaching an
                    // output would overwrite a neighbouring record's slot
                    // or leave the sentinel in place.
                    let mut out = vec![-1.0; n * q];
                    l2_distances_sq_lanes(&lanes, dim, n, &queries, &mut out);
                    for (j, query) in queries.chunks_exact(dim).enumerate() {
                        for (i, row) in rows.chunks_exact(dim).enumerate() {
                            let (got, want) = (out[j * n + i], l2_distance_sq(row, query));
                            // Rust leaves a NaN result's sign and payload
                            // unspecified (the optimizer may commute an
                            // add), so NaN matches NaN; every other value
                            // must match bit for bit.
                            assert!(
                                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                                "dim {dim}, n {n}, q {q}, record {i}, query {j}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_groups_zero_pad_the_last_group() {
        let rows: Vec<f64> = (1..=9 * 3).map(f64::from).collect();
        let lanes = lane_groups(&rows, 3);
        assert_eq!(lanes.len(), 2 * 3 * LANE_GROUP);
        for (i, row) in rows.chunks_exact(3).enumerate() {
            for (d, &x) in row.iter().enumerate() {
                assert_eq!(lanes[lane_offset(i, d, 3)], x);
            }
        }
        for i in 9..2 * LANE_GROUP {
            for d in 0..3 {
                assert_eq!(lanes[lane_offset(i, d, 3)].to_bits(), 0.0f64.to_bits());
            }
        }
    }

    #[test]
    fn distance_sq_nan_and_overflow_semantics() {
        assert!(l2_distance_sq(&[f64::NAN, 0.0], &[0.0, 0.0]).is_nan());
        // inf - inf inside the kernel is NaN, not inf.
        assert!(l2_distance_sq(&[f64::INFINITY], &[f64::INFINITY]).is_nan());
        // Squared distances overflow to +inf for norms ~> 1.3e154.
        assert_eq!(l2_distance_sq(&[1.0e200], &[0.0]), f64::INFINITY);
        assert_eq!(l2_norm_sq(&[1.0e200]), f64::INFINITY);
    }
}
