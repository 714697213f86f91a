//! k-nearest-neighbour classification and regression.
//!
//! The regressor implements the ground-truth proxy of Sec. 5.1.1: during
//! deployment the true value of a test sample is approximated by averaging
//! its k nearest calibration samples (k = 3 in the paper).

use crate::matrix::l2_distance_sq;
use crate::traits::{Classifier, Regressor};

/// Returns the indices of the `k` nearest rows of `points` to `query`,
/// ordered from nearest to farthest.
///
/// A NaN distance (a NaN coordinate, or `inf - inf` from overflowed
/// features — which yields a *negative-sign* NaN that `total_cmp` alone
/// would rank first) is treated as **infinitely far**, so degenerate rows
/// are only ever picked once every finite distance is exhausted — the
/// lookup stays defined instead of panicking on deployment inputs.
///
/// Internally this ranks by **squared** distance (monotone in distance, so
/// the ordering is unchanged; ties — duplicate distances — break by row
/// index, ascending, exactly as the previous full-sort implementation did)
/// and only partitions the k nearest out with `select_nth_unstable_by`
/// before sorting that prefix: O(n + k log k) instead of O(n log n).
///
/// # Panics
///
/// Panics if `points` is empty or `k == 0`.
pub fn k_nearest(points: &[Vec<f64>], query: &[f64], k: usize) -> Vec<usize> {
    assert!(!points.is_empty(), "k_nearest over empty points");
    let dist: Vec<(f64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let d2 = l2_distance_sq(p, query);
            (if d2.is_nan() { f64::INFINITY } else { d2 }, i)
        })
        .collect();
    k_smallest_indices(dist, k)
}

/// [`k_nearest`] over a contiguous row-major store of `n` rows of `dim`
/// values each — identical ordering, tie-break, and NaN semantics.
///
/// # Panics
///
/// Panics if the store is empty, `store.len()` is not a multiple of a
/// non-zero `dim` (matching `query.len()`), or `k == 0`.
pub fn k_nearest_flat(store: &[f64], dim: usize, query: &[f64], k: usize) -> Vec<usize> {
    assert!(!store.is_empty(), "k_nearest over empty points");
    assert!(dim > 0 && store.len().is_multiple_of(dim), "store is not n x dim");
    assert_eq!(dim, query.len(), "query/store dim mismatch");
    let dist: Vec<(f64, usize)> = store
        .chunks_exact(dim)
        .enumerate()
        .map(|(i, p)| {
            let d2 = l2_distance_sq(p, query);
            (if d2.is_nan() { f64::INFINITY } else { d2 }, i)
        })
        .collect();
    k_smallest_indices(dist, k)
}

/// Shared tail of the `k_nearest` variants: the `k` smallest `(distance²,
/// index)` pairs under lexicographic `(total_cmp, index)` order, returned
/// as indices nearest-first.
fn k_smallest_indices(mut dist: Vec<(f64, usize)>, k: usize) -> Vec<usize> {
    assert!(k > 0, "k_nearest needs k >= 1");
    let k = k.min(dist.len());
    // `select_nth_unstable_by` shuffles equal keys arbitrarily, so the
    // index is part of the comparison key — that is what keeps duplicate
    // distances deterministically index-ordered (and bit-identical to the
    // stable full sort this replaces).
    let key = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    if k < dist.len() {
        dist.select_nth_unstable_by(k - 1, key);
    }
    let prefix = &mut dist[..k];
    prefix.sort_unstable_by(key);
    prefix.iter().map(|&(_, i)| i).collect()
}

/// A k-NN classifier with distance-vote probabilities.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    n_classes: usize,
    x: Vec<Vec<f64>>,
    y: Vec<usize>,
}

impl KnnClassifier {
    /// Stores the training data.
    ///
    /// # Panics
    ///
    /// Panics on empty data, `k == 0`, or feature/label mismatch.
    pub fn fit(x: Vec<Vec<f64>>, y: Vec<usize>, k: usize) -> Self {
        assert!(!x.is_empty(), "k-NN needs training data");
        assert!(k > 0, "k-NN needs k >= 1");
        assert_eq!(x.len(), y.len(), "feature/label mismatch");
        let n_classes = y.iter().copied().max().expect("non-empty labels") + 1;
        Self { k, n_classes, x, y }
    }

    /// Adds labeled samples (incremental learning is trivial for k-NN).
    pub fn absorb(&mut self, x: &[Vec<f64>], y: &[usize]) {
        assert_eq!(x.len(), y.len(), "feature/label mismatch");
        self.x.extend_from_slice(x);
        self.y.extend_from_slice(y);
        if let Some(max) = y.iter().copied().max() {
            self.n_classes = self.n_classes.max(max + 1);
        }
    }
}

impl Classifier<[f64]> for KnnClassifier {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let neighbours = k_nearest(&self.x, x, self.k);
        let mut votes = vec![0.0; self.n_classes];
        for &i in &neighbours {
            votes[self.y[i]] += 1.0;
        }
        let total: f64 = votes.iter().sum();
        votes.iter_mut().for_each(|v| *v /= total);
        votes
    }

    fn embed(&self, x: &[f64]) -> Vec<f64> {
        x.to_vec()
    }
}

/// A k-NN regressor (mean of the k nearest targets).
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
}

impl KnnRegressor {
    /// Stores the training data.
    ///
    /// # Panics
    ///
    /// Panics on empty data, `k == 0`, or feature/target mismatch.
    pub fn fit(x: Vec<Vec<f64>>, y: Vec<f64>, k: usize) -> Self {
        assert!(!x.is_empty(), "k-NN needs training data");
        assert!(k > 0, "k-NN needs k >= 1");
        assert_eq!(x.len(), y.len(), "feature/target mismatch");
        Self { k, x, y }
    }
}

impl Regressor<[f64]> for KnnRegressor {
    fn predict(&self, x: &[f64]) -> f64 {
        let neighbours = k_nearest(&self.x, x, self.k);
        neighbours.iter().map(|&i| self.y[i]).sum::<f64>() / neighbours.len() as f64
    }

    fn embed(&self, x: &[f64]) -> Vec<f64> {
        x.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_nearest_orders_by_distance() {
        let pts = vec![vec![0.0], vec![10.0], vec![1.0], vec![5.0]];
        assert_eq!(k_nearest(&pts, &[0.4], 3), vec![0, 2, 3]);
    }

    #[test]
    fn k_nearest_caps_k_at_population() {
        let pts = vec![vec![0.0], vec![1.0]];
        assert_eq!(k_nearest(&pts, &[0.0], 10).len(), 2);
    }

    /// Duplicate distances must come back in ascending index order — the
    /// tie-break the stable full sort used to give for free, now carried
    /// by the explicit `(distance², index)` comparison key (the unstable
    /// partition would otherwise shuffle equal keys arbitrarily). The
    /// boundary case matters most: ties straddling the k-th position.
    #[test]
    fn k_nearest_breaks_duplicate_distances_by_index() {
        // Indices 1, 2, 4 are all at distance 1; index 3 is at 0.
        let pts = vec![vec![5.0], vec![1.0], vec![1.0], vec![0.0], vec![1.0]];
        assert_eq!(k_nearest(&pts, &[0.0], 5), vec![3, 1, 2, 4, 0]);
        // k = 2 cuts *through* the tie group: lowest index wins the slot.
        assert_eq!(k_nearest(&pts, &[0.0], 2), vec![3, 1]);
        assert_eq!(k_nearest(&pts, &[0.0], 3), vec![3, 1, 2]);
    }

    #[test]
    fn k_nearest_flat_matches_row_variant() {
        let pts: Vec<Vec<f64>> =
            (0..13).map(|i| (0..3).map(|j| ((i * 7 + j * 3) % 5) as f64).collect()).collect();
        let flat: Vec<f64> = pts.iter().flatten().copied().collect();
        let query = [1.0, 2.0, 0.5];
        for k in [1, 3, 13] {
            assert_eq!(k_nearest(&pts, &query, k), k_nearest_flat(&flat, 3, &query, k));
        }
        // NaN rows demote identically through the flat path.
        let nan_pts = vec![vec![f64::NAN], vec![10.0], vec![1.0]];
        let nan_flat = [f64::NAN, 10.0, 1.0];
        assert_eq!(k_nearest(&nan_pts, &[0.0], 3), k_nearest_flat(&nan_flat, 1, &[0.0], 3));
    }

    #[test]
    fn k_nearest_orders_nan_rows_last_instead_of_panicking() {
        let pts = vec![vec![f64::NAN], vec![10.0], vec![1.0]];
        assert_eq!(k_nearest(&pts, &[0.0], 2), vec![2, 1], "NaN row must never be nearest");
        // Only when k exhausts the well-defined rows does the NaN row appear.
        assert_eq!(k_nearest(&pts, &[0.0], 3), vec![2, 1, 0]);
        // Negative-sign NaN (what `inf - inf` produces at runtime) is the
        // trap: raw total_cmp ranks it FIRST, so the is_nan -> +inf
        // mapping must demote it behind every finite row.
        let negative_nan = vec![vec![-f64::NAN], vec![10.0], vec![1.0]];
        assert_eq!(
            k_nearest(&negative_nan, &[0.0], 2),
            vec![2, 1],
            "a negative-NaN distance must never be nearest"
        );
    }

    #[test]
    fn classifier_majority_vote() {
        let x = vec![vec![0.0], vec![0.1], vec![0.2], vec![5.0]];
        let y = vec![0, 0, 1, 1];
        let knn = KnnClassifier::fit(x, y, 3);
        assert_eq!(knn.predict(&[0.05]), 0);
        let p = knn.predict_proba(&[0.05]);
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_extends_training_set() {
        let mut knn = KnnClassifier::fit(vec![vec![0.0]], vec![0], 1);
        knn.absorb(&[vec![10.0]], &[2]);
        assert_eq!(knn.n_classes(), 3);
        assert_eq!(knn.predict(&[9.0]), 2);
    }

    #[test]
    fn regressor_averages_neighbours() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![100.0]];
        let y = vec![0.0, 1.0, 2.0, 100.0];
        let knn = KnnRegressor::fit(x, y, 3);
        assert!((Regressor::predict(&knn, &[1.0][..]) - 1.0).abs() < 1e-12);
    }
}
