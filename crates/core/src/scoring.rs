//! The shared scoring kernel behind every conformal judgement.
//!
//! Before this module existed, each detector re-derived the same machinery
//! per judgement: the classifier and regressor each re-sorted the
//! calibration set by distance and re-allocated per-expert score vectors on
//! **every** `judge` call, and the baselines re-scanned the full calibration
//! set linearly per p-value. This module centralizes that work in two
//! structures built for the batched deployment loop:
//!
//! * [`ScoreTable`] — per-label calibration score tables, **pre-sorted once
//!   at construction**, giving `O(log n)` unweighted p-values by binary
//!   search (the full-set path used by naive CP, TESSERACT, and RISE);
//! * [`ScoringKernel`] + [`JudgeScratch`] — the Eq. 1/Eq. 2 weighted path
//!   used by Prom itself: one distance pass per test sample into a
//!   **reusable scratch buffer**, selection without a sort when the whole
//!   calibration set is kept, and per-expert p-values computed from a
//!   label-grouped view in `O(S + L)` per expert instead of `O(S · L)`.
//!
//! `judge` and `judge_batch` run the exact same kernel code — the batched
//! path only reuses one [`JudgeScratch`] across samples — so batched and
//! looped judgements are bit-identical by construction.

use crate::calibration::{CalibrationRecord, SelectionConfig};
use crate::nonconformity::Nonconformity;
use prom_ml::matrix::{
    l2_distance_sq_bounded, l2_distances_sq_lanes, l2_norm_sq, lane_offset, LANE_GROUP,
};

/// Per-label calibration nonconformity scores, sorted ascending at
/// construction for binary-search p-values.
///
/// This is the unweighted (full calibration set, no Eq. 1 selection)
/// conformal machinery shared by the prior-work baselines: the p-value of a
/// test score under label `y` is the fraction of label-`y` calibration
/// scores at least as large.
#[derive(Debug, Clone)]
pub struct ScoreTable {
    per_label: Vec<Vec<f64>>,
}

impl ScoreTable {
    /// Builds the table from parallel `labels` / `scores` arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays disagree in length, a label is out of range, or
    /// a score is NaN.
    pub fn new(labels: &[usize], scores: &[f64], n_labels: usize) -> Self {
        assert_eq!(labels.len(), scores.len(), "label/score length mismatch");
        let mut per_label = vec![Vec::new(); n_labels];
        for (&label, &score) in labels.iter().zip(scores.iter()) {
            assert!(label < n_labels, "label {label} out of range for {n_labels} labels");
            assert!(!score.is_nan(), "NaN calibration score");
            per_label[label].push(score);
        }
        for bucket in &mut per_label {
            // Scores were asserted non-NaN above; `total_cmp` keeps the
            // sort total-order-safe regardless.
            bucket.sort_unstable_by(f64::total_cmp);
        }
        Self { per_label }
    }

    /// Builds the table from calibration records scored at their true
    /// labels under `ncm` — the construction every unweighted baseline
    /// shares. The table covers at least `min_labels` labels, widened to
    /// the largest calibration label if records exceed it.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ScoreTable::new`].
    pub fn from_records(
        records: &[CalibrationRecord],
        ncm: &dyn Nonconformity,
        min_labels: usize,
    ) -> Self {
        let labels: Vec<usize> = records.iter().map(|r| r.label).collect();
        let scores: Vec<f64> = records.iter().map(|r| ncm.score(&r.probs, r.label)).collect();
        let n_labels = min_labels.max(labels.iter().map(|&l| l + 1).max().unwrap_or(0));
        Self::new(&labels, &scores, n_labels)
    }

    /// Rebuilds a table directly from per-label sorted score buckets — the
    /// snapshot-restore constructor. The buckets must be exactly what
    /// [`ScoreTable::scores`] returned on the table that was snapshotted;
    /// restoring them verbatim reproduces that table bit-for-bit (the
    /// p-value pass reads nothing but these buckets).
    ///
    /// # Panics
    ///
    /// Panics if a bucket contains NaN or is not sorted by `total_cmp` —
    /// a corrupt or hand-edited snapshot fails loudly rather than silently
    /// skewing every future p-value.
    pub fn from_sorted_buckets(per_label: Vec<Vec<f64>>) -> Self {
        for (label, bucket) in per_label.iter().enumerate() {
            assert!(
                bucket.iter().all(|s| !s.is_nan()),
                "NaN calibration score in restored bucket {label}"
            );
            assert!(
                bucket.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
                "restored bucket {label} is not sorted"
            );
        }
        Self { per_label }
    }

    /// Clones every per-label sorted bucket — the snapshot-side twin of
    /// [`ScoreTable::from_sorted_buckets`].
    pub fn sorted_buckets(&self) -> Vec<Vec<f64>> {
        self.per_label.clone()
    }

    /// Number of labels.
    pub fn n_labels(&self) -> usize {
        self.per_label.len()
    }

    /// Total number of calibration scores across all labels.
    pub fn len(&self) -> usize {
        self.per_label.iter().map(Vec::len).sum()
    }

    /// Whether the table holds no calibration scores.
    pub fn is_empty(&self) -> bool {
        self.per_label.iter().all(Vec::is_empty)
    }

    /// The sorted calibration scores of `label` (empty for a label with no
    /// samples, including one beyond the table's range).
    pub fn scores(&self, label: usize) -> &[f64] {
        self.per_label.get(label).map_or(&[], Vec::as_slice)
    }

    /// Inserts one calibration score, maintaining the pre-sorted per-label
    /// invariant: a binary search finds the insertion point, so one insert
    /// costs `O(log n + shift)` instead of the `O(n log n)` full refit.
    /// Because the buckets are totally ordered by `total_cmp`, the grown
    /// table is **bit-identical** to one rebuilt from scratch over the same
    /// score multiset (`tests/recalibration_equivalence.rs`), duplicates
    /// included.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ScoreTable::new`]: an out-of-range label or a
    /// NaN score. The insert boundary is a *recalibration-time* step, so
    /// corrupt inputs fail as loudly here as they do at construction;
    /// callers folding serving-path relabels in must validate first (see
    /// `DriftDetector::absorb_relabeled`).
    pub fn insert(&mut self, label: usize, score: f64) {
        let n_labels = self.per_label.len();
        assert!(label < n_labels, "label {label} out of range for {n_labels} labels");
        assert!(!score.is_nan(), "NaN calibration score");
        let bucket = &mut self.per_label[label];
        let pos = bucket.partition_point(|s| s.total_cmp(&score).is_lt());
        bucket.insert(pos, score);
    }

    /// Inserts parallel `labels` / `scores` arrays — the batched form of
    /// [`ScoreTable::insert`] used when a window's relabels are folded in
    /// together.
    ///
    /// # Panics
    ///
    /// Panics if the arrays disagree in length, plus the per-insert
    /// conditions of [`ScoreTable::insert`].
    pub fn insert_scores(&mut self, labels: &[usize], scores: &[f64]) {
        assert_eq!(labels.len(), scores.len(), "label/score length mismatch");
        for (&label, &score) in labels.iter().zip(scores.iter()) {
            self.insert(label, score);
        }
    }

    /// Inserts one calibration record scored at its true label under `ncm`
    /// — the incremental twin of [`ScoreTable::from_records`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`ScoreTable::insert`]. Unlike `from_records`,
    /// inserting never widens the table: a record labeled beyond
    /// [`ScoreTable::n_labels`] panics.
    pub fn insert_record(&mut self, record: &CalibrationRecord, ncm: &dyn Nonconformity) {
        self.insert(record.label, ncm.score(&record.probs, record.label));
    }

    /// Removes one occurrence of `score` (matched bit-exactly via
    /// `total_cmp`) from `label`'s bucket — the eviction half of a capped
    /// reservoir calibration set. Returns `false` (and leaves the table
    /// unchanged) when the label is out of range or the score is absent.
    pub fn remove(&mut self, label: usize, score: f64) -> bool {
        let Some(bucket) = self.per_label.get_mut(label) else {
            return false;
        };
        let pos = bucket.partition_point(|s| s.total_cmp(&score).is_lt());
        if bucket.get(pos).is_some_and(|s| s.total_cmp(&score).is_eq()) {
            bucket.remove(pos);
            true
        } else {
            false
        }
    }

    /// The Eq. 2 p-value of `test_score` under `label`: the fraction of
    /// label-`label` calibration scores `>= test_score`. Returns 0 for a
    /// label with no calibration samples — including one beyond the table's
    /// range (no evidence of conformity either way).
    pub fn p_value(&self, label: usize, test_score: f64) -> f64 {
        let Some(bucket) = self.per_label.get(label) else {
            return 0.0;
        };
        // A NaN test score (degenerate model output) conforms to nothing:
        // `partition_point` below would count every calibration score as
        // "at least as strange" and silently accept it.
        if bucket.is_empty() || test_score.is_nan() {
            return 0.0;
        }
        // First index whose score is >= test_score; everything from there on
        // counts as "at least as strange".
        let at_least = bucket.len() - bucket.partition_point(|&s| s < test_score);
        at_least as f64 / bucket.len() as f64
    }

    /// P-values for every label given per-label test scores
    /// (`test_scores[y]` is the test nonconformity assuming label `y`).
    pub fn p_values(&self, test_scores: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.p_values_into(test_scores, &mut out);
        out
    }

    /// [`ScoreTable::p_values`] into a caller-owned buffer — the
    /// batched-deployment form, letting a `judge_batch` override reuse one
    /// output vector across a whole window instead of allocating per
    /// sample.
    pub fn p_values_into(&self, test_scores: &[f64], out: &mut Vec<f64>) {
        assert_eq!(test_scores.len(), self.n_labels(), "test-score length mismatch");
        out.clear();
        out.extend(test_scores.iter().enumerate().map(|(y, &t)| self.p_value(y, t)));
    }
}

/// Reusable per-stream scratch space for the weighted scoring kernel.
///
/// Allocate once (per deployment stream, thread, or batch) and pass to
/// every [`ScoringKernel::select`] / [`ScoringKernel::p_values_into`] call;
/// all interior vectors are recycled, so a long `judge_batch` performs no
/// per-sample allocation.
#[derive(Debug, Default)]
pub struct JudgeScratch {
    /// (squared distance, record index); after [`ScoringKernel::select`]
    /// this holds every calibration record on the partition path, or only
    /// the kept subset (partition-scrambled) on the pruned path.
    dist: Vec<(f64, u32)>,
    /// Query-major squared-distance block (`queries × n_records`) filled by
    /// [`ScoringKernel::distance_block`] for the batched judging paths.
    block: Vec<f64>,
    /// The query block gathered contiguously for the blocked distance pass.
    block_queries: Vec<f64>,
    /// The test embedding last passed to [`ScoringKernel::select`] — kept
    /// for [`ScoringKernel::nearest`]'s rare `k > keep` fallback, which
    /// must recompute distances the pruned path never materialized.
    query: Vec<f64>,
    /// (record index, Eq. 1 weight) of the selected subset.
    selected: Vec<(u32, f64)>,
    /// Positions into `selected`, grouped by calibration label.
    by_label: Vec<Vec<u32>>,
    /// Per-label test nonconformity scores; filled by the caller before
    /// [`ScoringKernel::p_values_into`].
    pub test_scores: Vec<f64>,
    /// Per-label p-values; output of [`ScoringKernel::p_values_into`].
    pub p_values: Vec<f64>,
    /// k-NN record indices; output of [`ScoringKernel::nearest`]. Carried
    /// here so the one scratch a persistent shard worker owns covers the
    /// regression path's neighbour buffer too.
    pub neighbours: Vec<usize>,
}

impl JudgeScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The weighted conformal scoring kernel of Prom's hot path: Eq. 1
/// distance-weighted subset selection plus Eq. 2 per-label p-values for any
/// number of nonconformity experts.
///
/// Built once at detector construction; immutable afterwards, so it is
/// freely shared across threads while each stream judges with its own
/// [`JudgeScratch`].
///
/// Calibration embeddings live in one lane-grouped store, not a
/// `Vec<Vec<f64>>`: group `g` holds records `8g..8g+8` dimension-major, so
/// value `d` of record `8g + r` sits at `(g·dim + d)·8 + r`, and the last
/// group is zero-padded. Every distance pass — the hot loop of every
/// judgement — runs [`l2_distances_sq_lanes`] over it, which puts records
/// across the vector lanes and streams the store sequentially; each value
/// is bit-identical to the per-pair `prom_ml::matrix::l2_distance_sq`.
/// Per-record l2 norms are precomputed alongside (and maintained by
/// [`ScoringKernel::insert`] / [`ScoringKernel::replace`] /
/// [`ScoringKernel::remove`]) to power the triangle-inequality pruning
/// bound of the selective path.
#[derive(Debug)]
pub struct ScoringKernel {
    /// Lane-grouped embedding store: value `d` of record `i` sits at
    /// `lane_offset(i, d, dim)`; lanes past `n_records()` are zero.
    lanes: Vec<f64>,
    /// Embedding dimensionality (fixed at construction).
    dim: usize,
    /// Per-record l2 norms `‖e_i‖`, for the `|‖e‖ − ‖q‖|` lower bound.
    norms: Vec<f64>,
    labels: Vec<usize>,
    n_labels: usize,
    /// `cal_scores[e][i]`: expert `e`'s nonconformity of calibration record
    /// `i` at its true label, precomputed offline.
    cal_scores: Vec<Vec<f64>>,
    selection: SelectionConfig,
}

impl ScoringKernel {
    /// Builds the kernel.
    ///
    /// # Panics
    ///
    /// Panics on empty calibration data, ragged score tables, or an
    /// out-of-range label.
    pub fn new(
        embeddings: Vec<Vec<f64>>,
        labels: Vec<usize>,
        n_labels: usize,
        cal_scores: Vec<Vec<f64>>,
        selection: SelectionConfig,
    ) -> Self {
        assert!(!embeddings.is_empty(), "empty calibration set");
        assert_eq!(embeddings.len(), labels.len(), "embedding/label length mismatch");
        assert!(labels.iter().all(|&l| l < n_labels), "label out of range");
        for scores in &cal_scores {
            assert_eq!(scores.len(), embeddings.len(), "ragged expert score table");
        }
        let dim = embeddings[0].len();
        assert!(dim > 0, "empty calibration embedding");
        let mut lanes = vec![0.0; embeddings.len().div_ceil(LANE_GROUP) * dim * LANE_GROUP];
        for (i, e) in embeddings.iter().enumerate() {
            assert_eq!(e.len(), dim, "embedding length mismatch");
            for (d, &x) in e.iter().enumerate() {
                lanes[lane_offset(i, d, dim)] = x;
            }
        }
        let norms = embeddings.iter().map(|e| l2_norm_sq(e).sqrt()).collect();
        Self { lanes, dim, norms, labels, n_labels, cal_scores, selection }
    }

    /// Number of calibration records.
    pub fn n_records(&self) -> usize {
        self.labels.len()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of labels (classes or pseudo-label clusters).
    pub fn n_labels(&self) -> usize {
        self.n_labels
    }

    /// Number of experts whose score tables the kernel holds.
    pub fn n_experts(&self) -> usize {
        self.cal_scores.len()
    }

    /// Copies calibration embedding `index` out of the lane-grouped store.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn embedding(&self, index: usize) -> Vec<f64> {
        assert!(index < self.labels.len(), "record index {index} out of range");
        (0..self.dim).map(|d| self.lanes[lane_offset(index, d, self.dim)]).collect()
    }

    /// Writes `embedding` into record `index`'s lane — `O(dim)` strided
    /// stores.
    fn write_lane(&mut self, index: usize, embedding: &[f64]) {
        for (d, &x) in embedding.iter().enumerate() {
            self.lanes[lane_offset(index, d, self.dim)] = x;
        }
    }

    /// Borrows the calibration labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Appends one calibration record: its embedding, (pseudo-)label, and
    /// one precomputed nonconformity score per expert. `O(dim)` amortized —
    /// the kernel keeps no distance-dependent state, so growth needs no
    /// refit, and judgements afterwards are **bit-identical** to a kernel
    /// rebuilt from scratch with the record appended to the same
    /// construction order (`select` breaks distance ties by record index,
    /// which appending preserves).
    ///
    /// # Panics
    ///
    /// Panics on an embedding-length mismatch, an out-of-range label, or a
    /// score count that disagrees with [`ScoringKernel::n_experts`].
    pub fn insert(&mut self, embedding: Vec<f64>, label: usize, scores: &[f64]) {
        assert_eq!(embedding.len(), self.dim, "embedding length mismatch on insert");
        assert!(label < self.n_labels, "label {label} out of range for {} labels", self.n_labels);
        assert_eq!(scores.len(), self.cal_scores.len(), "one score per expert required");
        for (table, &score) in self.cal_scores.iter_mut().zip(scores.iter()) {
            table.push(score);
        }
        self.norms.push(l2_norm_sq(&embedding).sqrt());
        let index = self.labels.len();
        if index.is_multiple_of(LANE_GROUP) {
            self.lanes.resize(self.lanes.len() + self.dim * LANE_GROUP, 0.0);
        }
        self.write_lane(index, &embedding);
        self.labels.push(label);
    }

    /// Overwrites calibration record `index` in place — the `O(dim)`
    /// eviction path of a capped reservoir calibration set. The record
    /// keeps its index, so tie-breaking stays well-defined.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ScoringKernel::insert`], plus an out-of-range
    /// `index`.
    pub fn replace(&mut self, index: usize, embedding: Vec<f64>, label: usize, scores: &[f64]) {
        assert!(index < self.labels.len(), "record index {index} out of range");
        assert_eq!(embedding.len(), self.dim, "embedding length mismatch on replace");
        assert!(label < self.n_labels, "label {label} out of range for {} labels", self.n_labels);
        assert_eq!(scores.len(), self.cal_scores.len(), "one score per expert required");
        for (table, &score) in self.cal_scores.iter_mut().zip(scores.iter()) {
            table[index] = score;
        }
        self.norms[index] = l2_norm_sq(&embedding).sqrt();
        self.write_lane(index, &embedding);
        self.labels[index] = label;
    }

    /// Removes calibration record `index`, shifting every later record down
    /// one slot — the eviction path of sliding-window base retirement.
    ///
    /// The shift is what makes eviction *bit-equivalent to a from-scratch
    /// refit* on the surviving records: `select` breaks distance ties by
    /// record index, and after the shift the surviving records hold exactly
    /// the indices they would get if a fresh kernel were built from the
    /// surviving sequence in order. `O(n · dim)` (every later lane moves
    /// down one slot, a short in-row move per group row plus one carried
    /// value from the next group), which eviction amortizes over a full
    /// absorb window. The vacated last lane is zeroed, and a group left
    /// empty is dropped, so the store equals a from-scratch rebuild.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range `index`, or when the kernel holds a single
    /// record (an empty kernel cannot judge; construction rejects it too).
    pub fn remove(&mut self, index: usize) {
        let n = self.labels.len();
        assert!(index < n, "record index {index} out of range");
        assert!(n > 1, "cannot remove the last calibration record");
        for table in &mut self.cal_scores {
            table.remove(index);
        }
        self.norms.remove(index);
        self.labels.remove(index);
        // Every row (one dimension of one group) from `index`'s group on
        // moves its lanes down one slot and takes the same dimension's
        // first lane from the next group; the last group takes a zero.
        let group_len = self.dim * LANE_GROUP;
        let first_group = (index / LANE_GROUP) * group_len..(index / LANE_GROUP + 1) * group_len;
        for row in (first_group.start..self.lanes.len()).step_by(LANE_GROUP) {
            let carry = self.lanes.get(row + group_len).copied().unwrap_or(0.0);
            let lanes = &mut self.lanes[row..row + LANE_GROUP];
            if first_group.contains(&row) {
                lanes.copy_within(index % LANE_GROUP + 1.., index % LANE_GROUP);
            } else {
                // A constant-length move, which compiles to plain loads
                // and stores instead of a `memmove` call per row.
                lanes.copy_within(1.., 0);
            }
            lanes[LANE_GROUP - 1] = carry;
        }
        self.lanes.truncate((n - 1).div_ceil(LANE_GROUP) * group_len);
    }

    /// Borrows expert `expert`'s precomputed nonconformity scores, one per
    /// calibration record in store order.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range expert index.
    pub fn expert_scores(&self, expert: usize) -> &[f64] {
        &self.cal_scores[expert]
    }

    /// Runs the Eq. 1 selection for one test embedding into `scratch`:
    /// computes calibration distances (one streaming pass over the
    /// lane-grouped store, reused buffer), keeps the nearest fraction per
    /// [`SelectionConfig`], weights the kept records by `exp(-d / tau)`,
    /// and groups them by label for the p-value pass.
    ///
    /// Distances are compared as **squared** distances throughout — the
    /// square root is a monotone bijection on `[0, +inf]`, and every
    /// comparison breaks ties by record index, so the kept *set* is
    /// identical to comparing true distances; `sqrt` is taken once per
    /// *kept* record, exactly where the Eq. 1 weight needs it, so weight
    /// bits match the scalar reference (`calibration::select_weighted_subset`)
    /// which shares the same distance summation.
    ///
    /// When the whole calibration set is kept (small sets, or
    /// `fraction = 1`), the distance sort is skipped entirely — p-values
    /// are counts, so selection order is irrelevant. A selective pass picks
    /// between an O(n) partition and, when `keep` is small relative to `n`,
    /// a filtered scan that prunes provably-too-far records via the
    /// precomputed norms (`|‖e‖ − ‖q‖| > threshold` triangle inequality)
    /// and partial-distance early exit — both produce the same kept set
    /// bit-for-bit (`tests/kernel_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics on an embedding-length mismatch (one check per call — the
    /// store is uniform by construction).
    pub fn select(&self, test_embedding: &[f64], scratch: &mut JudgeScratch) {
        assert_eq!(self.dim, test_embedding.len(), "embedding length mismatch");
        let keep = self.keep_count();
        // Keep the query: `nearest` may need distances the pruned path
        // never materialized.
        scratch.query.clear();
        scratch.query.extend_from_slice(test_embedding);
        scratch.dist.clear();
        if self.uses_pruned_path() {
            self.select_pruned(test_embedding, keep, scratch);
        } else {
            scratch.dist.extend(self.distances(test_embedding));
            partition_kept(&mut scratch.dist, keep);
        }
        self.finish_selection(keep, scratch);
    }

    /// `(d², index)` for every record against `query`, one [`BATCH`] of
    /// records per lane pass, with a NaN distance ranked as `+inf`
    /// ([`nan_to_inf`]).
    fn distances<'a>(&'a self, query: &'a [f64]) -> impl Iterator<Item = (f64, u32)> + 'a {
        (0..self.labels.len().div_ceil(BATCH)).flat_map(move |b| {
            let mut d2 = [0.0f64; BATCH];
            let valid = self.batch_distances(b, query, &mut d2);
            (0..valid).map(move |r| (nan_to_inf(d2[r]), (b * BATCH + r) as u32))
        })
    }

    /// Squared distances from records `b · BATCH..` (at most [`BATCH`]) to
    /// `query` into `out`, by one lane pass; returns how many records.
    fn batch_distances(&self, b: usize, query: &[f64], out: &mut [f64; BATCH]) -> usize {
        let base = b * BATCH;
        let valid = (self.labels.len() - base).min(BATCH);
        let end = (base + valid).div_ceil(LANE_GROUP) * LANE_GROUP;
        let lanes = &self.lanes[base * self.dim..end * self.dim];
        l2_distances_sq_lanes(lanes, self.dim, valid, query, &mut out[..valid]);
        valid
    }

    /// How many records the Eq. 1 selection keeps for the current
    /// calibration size and [`SelectionConfig`].
    fn keep_count(&self) -> usize {
        let n = self.labels.len();
        if n < self.selection.min_full_size {
            n
        } else {
            ((n as f64 * self.selection.fraction).round() as usize).clamp(1, n)
        }
    }

    /// Whether [`ScoringKernel::select`] takes the norm-pruned filtered
    /// scan instead of the full-pass partition. The filtered scan wins only
    /// when few records are kept (its candidate-buffer maintenance is
    /// overhead the partition does not pay, and a loose threshold prunes
    /// nothing near `fraction = 0.5`); `keep * 4 <= n` reserves it for
    /// genuinely selective configurations.
    ///
    /// Public as a capability probe: the blocked batch-judging paths
    /// precompute full distance rows, which would waste exactly the work
    /// the pruned path exists to skip.
    pub fn uses_pruned_path(&self) -> bool {
        let keep = self.keep_count();
        keep < self.labels.len() && keep * 4 <= self.labels.len()
    }

    /// Weights the kept prefix of `scratch.dist` and groups it by label —
    /// the shared tail of every selection path. `sqrt` happens here, once
    /// per *kept* record, exactly where the Eq. 1 weight needs it.
    fn finish_selection(&self, keep: usize, scratch: &mut JudgeScratch) {
        scratch.selected.clear();
        scratch.selected.extend(
            scratch.dist[..keep]
                .iter()
                .map(|&(d2, i)| (i, (-d2.sqrt() / self.selection.tau).exp())),
        );

        scratch.by_label.resize_with(self.n_labels, Vec::new);
        for bucket in &mut scratch.by_label {
            bucket.clear();
        }
        for (pos, &(record, _)) in scratch.selected.iter().enumerate() {
            scratch.by_label[self.labels[record as usize]].push(pos as u32);
        }
    }

    /// Fills `scratch` with the squared-distance block for a batch of
    /// queries: `queries.len()` rows of `n_records()` raw squared distances
    /// each, computed by one streaming pass over the lane-grouped store
    /// ([`l2_distances_sq_lanes`]) instead of one full stream per query.
    /// Pair with [`ScoringKernel::select_from_block`] per query. Only
    /// worthwhile on the partition path (check
    /// [`ScoringKernel::uses_pruned_path`] first — the pruned path exists
    /// to *skip* most of these distances).
    ///
    /// # Panics
    ///
    /// Panics on an embedding-length mismatch in any query.
    pub fn distance_block(&self, queries: &[&[f64]], scratch: &mut JudgeScratch) {
        scratch.block_queries.clear();
        for query in queries {
            assert_eq!(self.dim, query.len(), "embedding length mismatch");
            scratch.block_queries.extend_from_slice(query);
        }
        scratch.block.clear();
        let n = self.labels.len();
        scratch.block.resize(n * queries.len(), 0.0);
        l2_distances_sq_lanes(&self.lanes, self.dim, n, &scratch.block_queries, &mut scratch.block);
    }

    /// Runs the Eq. 1 selection for query `j` of the block last passed to
    /// [`ScoringKernel::distance_block`], **bit-identical** to
    /// [`ScoringKernel::select`] on the same embedding: the lane pass gives
    /// each record the same bits with one query or eight, and the NaN
    /// mapping, partition and weighting are `select`'s own.
    ///
    /// # Panics
    ///
    /// Panics if the block row `j` is out of range or `test_embedding`
    /// has the wrong dimension.
    pub fn select_from_block(&self, j: usize, test_embedding: &[f64], scratch: &mut JudgeScratch) {
        assert_eq!(self.dim, test_embedding.len(), "embedding length mismatch");
        let n = self.labels.len();
        let keep = self.keep_count();
        scratch.query.clear();
        scratch.query.extend_from_slice(test_embedding);
        scratch.dist.clear();
        let row = &scratch.block[j * n..(j + 1) * n];
        scratch.dist.extend(row.iter().enumerate().map(|(i, &d2)| (nan_to_inf(d2), i as u32)));
        partition_kept(&mut scratch.dist, keep);
        self.finish_selection(keep, scratch);
    }

    /// The pruned selective pass: a filtered scan over the records that
    /// keeps a small candidate buffer and a provable upper bound `est` on the
    /// final selection threshold (the `keep`-th lexicographically-smallest
    /// `(d², index)`). Records provably beyond `est` are skipped — by the
    /// norm bound without reading their embedding at all, or by
    /// partial-distance early exit — and the buffer is re-partitioned and
    /// truncated back to `keep` entries (tightening `est`) every time it
    /// doubles, so maintenance stays O(1) amortized per accepted candidate
    /// with none of the pointer-chasing churn of a binary heap. Leaves
    /// exactly the kept set in `scratch.dist` (partition order — callers
    /// treat it as a set).
    ///
    /// Exactness argument, in three parts. (1) *`est` never undershoots*:
    /// `est` is always the `keep`-th smallest `(d², index)` over some
    /// sub-multiset of the true distance multiset (the candidates seen so
    /// far), and a k-th order statistic over a sub-multiset is `>=` the
    /// k-th over the whole — so `est >= t²`, the final threshold, at every
    /// step; skips prove `d² > est >= t²` (strictly, so boundary ties are
    /// never skipped), truncations drop only entries lexicographically
    /// beyond `est`'s pair, and therefore every true member survives to the
    /// final partition, which equals the full-pass partition bit for bit.
    /// (2) *Norm bound*: exact math gives `d(e, q) >= |‖e‖ − ‖q‖|`; the
    /// computed norms and the subtraction carry rounding error, so the
    /// bound is deflated by a conservative slack (a few ulps of
    /// `‖e‖ + ‖q‖`, scaled by dim) before squaring, and the squared bound
    /// is deflated again before comparing — only records *strictly,
    /// provably* beyond `est` are skipped. NaN/overflowed norms make the
    /// comparison false, disabling the prune rather than mis-pruning.
    /// (3) *Early exit* is sound and non-perturbing per
    /// [`l2_distance_sq_bounded`]'s contract (here reading the record's
    /// lane at stride [`LANE_GROUP`]); the bound passed is `est`'s upward
    /// neighbour, so an exit proves `d² > est` even at exact ties, and
    /// survivors carry bit-identical sums.
    fn select_pruned(&self, test_embedding: &[f64], keep: usize, scratch: &mut JudgeScratch) {
        let q_norm = l2_norm_sq(test_embedding).sqrt();
        let norm_slack = 4.0 * self.dim as f64 * f64::EPSILON;
        let square_slack = 1.0 - 32.0 * self.dim as f64 * f64::EPSILON;
        let lex = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let cand = &mut scratch.dist;
        let cap = 2 * keep;
        let mut est = f64::INFINITY;
        let group_len = self.dim * LANE_GROUP;
        // The lane pass's output for batch `computed`, while `est` is inf.
        let mut batch_d2 = [0.0f64; BATCH];
        let mut computed = None;
        for (i, &norm) in self.norms.iter().enumerate() {
            let lower = (norm - q_norm).abs() - (norm + q_norm) * norm_slack;
            if lower > 0.0 && lower * lower * square_slack > est {
                continue;
            }
            let d2 = if est.is_finite() {
                let g = i / LANE_GROUP;
                let lane = &self.lanes[g * group_len + i % LANE_GROUP..(g + 1) * group_len];
                match l2_distance_sq_bounded(lane, LANE_GROUP, test_embedding, next_up(est)) {
                    Some(d2) => d2,
                    None => continue,
                }
            } else {
                // Warm-up, before the buffer first fills, computes every
                // record, so run the lane pass once per batch. (`est` can
                // stay inf past warm-up only if every candidate distance
                // is inf — NaN/overflow queries — where the bounded kernel
                // could exit on records the tie rule keeps.)
                if computed != Some(i / BATCH) {
                    self.batch_distances(i / BATCH, test_embedding, &mut batch_d2);
                    computed = Some(i / BATCH);
                }
                batch_d2[i % BATCH]
            };
            let d2 = nan_to_inf(d2);
            if d2 > est {
                continue;
            }
            cand.push((d2, i as u32));
            if cand.len() == cap {
                cand.select_nth_unstable_by(keep - 1, lex);
                cand.truncate(keep);
                est = cand[keep - 1].0;
            }
        }
        if cand.len() > keep {
            cand.select_nth_unstable_by(keep - 1, lex);
            cand.truncate(keep);
        }
    }

    /// The `k` nearest calibration records to the embedding last passed to
    /// [`ScoringKernel::select`], nearest first (the k-NN ground-truth
    /// proxy reuses the selection's distance pass instead of recomputing
    /// it). Same order as [`ScoringKernel::k_nearest`] on that embedding.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or [`ScoringKernel::select`] has not run.
    pub fn nearest(&self, scratch: &JudgeScratch, k: usize, out: &mut Vec<usize>) {
        assert!(k > 0, "nearest needs k >= 1");
        assert!(!scratch.dist.is_empty(), "select() must run before nearest()");
        let n = self.labels.len();
        let k = k.min(n);
        let kept = scratch.selected.len();
        if k <= kept {
            // The kept subset holds the `keep` globally-nearest records
            // (every select path guarantees it), so its k smallest are the
            // global k smallest. On the partition path `dist` may hold all
            // n records with the kept ones in the prefix; on the pruned
            // path it holds exactly the kept set.
            k_smallest_into(scratch.dist[..kept].iter().copied(), k, out);
        } else if scratch.dist.len() == n {
            // k exceeds the kept subset but the partition path left every
            // record's distance in the buffer.
            k_smallest_into(scratch.dist.iter().copied(), k, out);
        } else {
            // Pruned path with k > keep (knn_k beyond the selection size —
            // degenerate configurations only): the skipped distances were
            // never materialized, so recompute the full pass against the
            // stashed query. Same kernel, same NaN rule — bit-identical to
            // what the partition path's buffer would have held.
            self.k_nearest(&scratch.query, k, out);
        }
    }

    /// The `k` nearest calibration records to `query`, nearest first, ties
    /// broken by record index and a NaN distance ranked as `+inf` — the
    /// order of `prom_ml::knn::k_nearest` over the same rows.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `query` has the wrong dimension.
    pub fn k_nearest(&self, query: &[f64], k: usize, out: &mut Vec<usize>) {
        assert!(k > 0, "k_nearest needs k >= 1");
        assert_eq!(self.dim, query.len(), "embedding length mismatch");
        k_smallest_into(self.distances(query), k.min(self.labels.len()), out);
    }

    /// Eq. 2 p-values for expert `expert` over the selection in `scratch`,
    /// reading per-label test scores from `scratch.test_scores` and writing
    /// per-label p-values to `scratch.p_values`.
    ///
    /// For each label `y`, the p-value is the fraction of *selected*
    /// label-`y` calibration records whose weight-adjusted score
    /// `w_i * a_i` is `>= test_scores[y]`; labels absent from the selection
    /// get 0. One scan over the selection per expert, not per label.
    ///
    /// # Panics
    ///
    /// Panics if `expert` is out of range or `scratch.test_scores` has the
    /// wrong length.
    pub fn p_values_into(&self, expert: usize, scratch: &mut JudgeScratch) {
        let scores = &self.cal_scores[expert];
        assert_eq!(scratch.test_scores.len(), self.n_labels, "test-score length mismatch");
        scratch.p_values.clear();
        for (label, bucket) in scratch.by_label.iter().enumerate() {
            if bucket.is_empty() {
                scratch.p_values.push(0.0);
                continue;
            }
            let test = scratch.test_scores[label];
            let at_least = bucket
                .iter()
                .filter(|&&pos| {
                    let (record, weight) = scratch.selected[pos as usize];
                    weight * scores[record as usize] >= test
                })
                .count();
            scratch.p_values.push(at_least as f64 / bucket.len() as f64);
        }
    }
}

/// Moves the `keep` lexicographically-smallest `(d², index)` pairs to the
/// front of `dist`. P-values are counts over the selected *set* — order
/// within it is irrelevant — so an O(n) partition replaces a full sort.
/// Ties break by record index so the kept set is well-defined even with
/// duplicate embeddings at the boundary.
fn partition_kept(dist: &mut [(f64, u32)], keep: usize) {
    if keep < dist.len() {
        dist.select_nth_unstable_by(keep - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }
}

/// Insertion-selects the `k` lexicographically-smallest `(d², index)` pairs
/// from `candidates` (any order) into `out`, nearest first. Ties break by
/// record index — the same rule as `prom_ml::knn::k_nearest` — so the
/// result does not depend on the candidate order (which is
/// partition-scrambled). k is tiny on this path (the paper uses k = 3), so an
/// insertion select beats a partition.
fn k_smallest_into(candidates: impl Iterator<Item = (f64, u32)>, k: usize, out: &mut Vec<usize>) {
    let mut best: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
    for (d, i) in candidates {
        let pos = best.partition_point(|&(bd, bi)| bd < d || (bd == d && bi < i));
        if pos < k {
            best.insert(pos, (d, i));
            best.truncate(k);
        }
    }
    out.clear();
    out.extend(best.iter().map(|&(_, i)| i as usize));
}

/// Records per lane pass on the single-query paths: eight groups, enough to
/// amortize the call, small enough for a stack buffer.
const BATCH: usize = 8 * LANE_GROUP;

/// A NaN squared distance (the *test* embedding diverged — calibration
/// embeddings are validated NaN-free at record construction) means the pair
/// conforms to nothing: treat it as infinitely far, so its Eq. 1 weight is
/// exactly 0 and the judgement stays *defined* instead of panicking in the
/// serving path. Every strictly positive test score then gets p = 0; a test
/// score of exactly 0 (a maximally conforming output) still ties as
/// `0 >= 0`, matching the reference path's tie rule.
fn nan_to_inf(d2: f64) -> f64 {
    if d2.is_nan() {
        f64::INFINITY
    } else {
        d2
    }
}

/// The smallest `f64` strictly greater than `x`, for finite `x >= 0` —
/// the early-exit bound of the pruned scan, which must prove *strict*
/// `d² > est` so records tying the threshold exactly are never skipped.
/// (Squared distances are non-negative, so the bit-increment form is
/// exact; `+0.0` maps to the smallest subnormal.)
fn next_up(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x >= 0.0);
    f64::from_bits(x.to_bits() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvalue::{p_value_for_label, ScoredSample};

    #[test]
    fn score_table_matches_linear_scan() {
        let labels = [0, 0, 0, 0, 1, 1, 2];
        let scores = [0.1, 0.4, 0.2, 0.3, 0.9, 0.5, 0.7];
        let table = ScoreTable::new(&labels, &scores, 4);
        let samples: Vec<ScoredSample> = labels
            .iter()
            .zip(scores.iter())
            .map(|(&label, &adjusted_score)| ScoredSample { label, adjusted_score })
            .collect();
        for label in 0..4 {
            for test in [-1.0, 0.0, 0.15, 0.2, 0.35, 0.5, 0.9, 2.0] {
                assert_eq!(
                    table.p_value(label, test),
                    p_value_for_label(&samples, label, test),
                    "label {label}, test {test}"
                );
            }
        }
    }

    #[test]
    fn score_table_ties_count_as_at_least() {
        let table = ScoreTable::new(&[0, 0], &[0.5, 0.5], 1);
        assert_eq!(table.p_value(0, 0.5), 1.0);
        assert_eq!(table.p_value(0, 0.5 + 1e-12), 0.0);
    }

    #[test]
    fn score_table_nan_test_score_rejects() {
        // Matches the pre-kernel linear scan: `score >= NaN` held for no
        // calibration sample, so a NaN model output got p = 0 (rejected).
        let table = ScoreTable::new(&[0, 0], &[0.2, 0.8], 1);
        assert_eq!(table.p_value(0, f64::NAN), 0.0);
        assert_eq!(
            table.p_value(0, f64::NAN),
            p_value_for_label(
                &[
                    ScoredSample { label: 0, adjusted_score: 0.2 },
                    ScoredSample { label: 0, adjusted_score: 0.8 }
                ],
                0,
                f64::NAN
            )
        );
    }

    #[test]
    fn score_table_out_of_range_label_rejects() {
        let table = ScoreTable::new(&[0], &[0.5], 1);
        assert_eq!(table.p_value(7, 0.0), 0.0);
    }

    #[test]
    fn score_table_vector_form() {
        let table = ScoreTable::new(&[0, 1], &[0.2, 0.8], 2);
        assert_eq!(table.p_values(&[0.1, 0.9]), vec![1.0, 0.0]);
    }

    #[test]
    fn insert_grows_bit_identically_to_rebuild() {
        let base_labels = [0, 1, 0, 2, 1];
        let base_scores = [0.4, 0.9, 0.1, 0.5, 0.2];
        // Duplicates (0.4 twice), boundary values, and a -0.0/+0.0 pair —
        // the orderings where a sloppy insert would diverge from a sort.
        let extra_labels = [0, 0, 1, 2, 0, 0];
        let extra_scores = [0.4, -0.0, 0.0, 0.5, 2.0, -1.0];

        let mut grown = ScoreTable::new(&base_labels, &base_scores, 3);
        grown.insert_scores(&extra_labels, &extra_scores);

        let all_labels: Vec<usize> =
            base_labels.iter().chain(extra_labels.iter()).copied().collect();
        let all_scores: Vec<f64> = base_scores.iter().chain(extra_scores.iter()).copied().collect();
        let rebuilt = ScoreTable::new(&all_labels, &all_scores, 3);

        assert_eq!(grown.len(), rebuilt.len());
        for label in 0..3 {
            let g: Vec<u64> = grown.scores(label).iter().map(|s| s.to_bits()).collect();
            let r: Vec<u64> = rebuilt.scores(label).iter().map(|s| s.to_bits()).collect();
            assert_eq!(g, r, "label {label} buckets must match bit-for-bit");
        }
    }

    #[test]
    fn remove_evicts_exactly_one_occurrence() {
        let mut table = ScoreTable::new(&[0, 0, 0], &[0.5, 0.5, 0.2], 1);
        assert!(table.remove(0, 0.5));
        assert_eq!(table.scores(0), &[0.2, 0.5]);
        assert!(!table.remove(0, 0.7), "absent score must not remove anything");
        assert!(!table.remove(5, 0.5), "out-of-range label must not panic");
        assert!(!table.remove(0, f64::NAN), "NaN matches nothing");
        assert_eq!(table.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_label_panics_like_new() {
        let mut table = ScoreTable::new(&[0], &[0.5], 1);
        table.insert(1, 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN calibration score")]
    fn insert_nan_score_panics_like_new() {
        let mut table = ScoreTable::new(&[0], &[0.5], 1);
        table.insert(0, f64::NAN);
    }

    #[test]
    fn insert_record_scores_at_true_label() {
        use crate::nonconformity::Lac;
        let record = CalibrationRecord::new(vec![0.0], vec![0.3, 0.7], 1);
        let mut grown = ScoreTable::new(&[], &[], 2);
        grown.insert_record(&record, &Lac);
        let rebuilt = ScoreTable::from_records(&[record], &Lac, 2);
        for label in 0..2 {
            assert_eq!(grown.scores(label), rebuilt.scores(label));
        }
    }

    #[test]
    fn sorted_buckets_round_trip_restores_the_table_bit_for_bit() {
        let table = ScoreTable::new(&[0, 0, 1, 2, 0, 1], &[0.5, -0.0, 0.9, 0.1, 0.5, 1e-300], 4);
        let restored = ScoreTable::from_sorted_buckets(table.sorted_buckets());
        assert_eq!(restored.n_labels(), table.n_labels());
        for label in 0..table.n_labels() {
            let got: Vec<u64> = restored.scores(label).iter().map(|s| s.to_bits()).collect();
            let want: Vec<u64> = table.scores(label).iter().map(|s| s.to_bits()).collect();
            assert_eq!(got, want, "label {label}");
        }
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn unsorted_restored_bucket_panics() {
        let _ = ScoreTable::from_sorted_buckets(vec![vec![0.9, 0.1]]);
    }

    fn kernel_fixture(n: usize, min_full_size: usize) -> ScoringKernel {
        let embeddings: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.5]).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let scores: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let scores2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos().abs()).collect();
        ScoringKernel::new(
            embeddings,
            labels,
            3,
            vec![scores, scores2],
            SelectionConfig { fraction: 0.5, min_full_size, tau: 10.0 },
        )
    }

    /// The kernel's calibration embeddings, read back row by row.
    fn rows(kernel: &ScoringKernel) -> Vec<Vec<f64>> {
        (0..kernel.n_records()).map(|i| kernel.embedding(i)).collect()
    }

    /// Reference implementation: the old per-judgement path (allocate,
    /// sort, linear scans) via `calibration::select_weighted_subset` +
    /// `pvalue::p_values`.
    fn reference_p_values(
        kernel: &ScoringKernel,
        expert: usize,
        test: &[f64],
        ts: &[f64],
    ) -> Vec<f64> {
        let selection =
            crate::calibration::select_weighted_subset(&rows(kernel), test, &kernel.selection);
        let samples: Vec<ScoredSample> = selection
            .iter()
            .map(|s| ScoredSample {
                label: kernel.labels()[s.index],
                adjusted_score: s.weight * kernel.cal_scores[expert][s.index],
            })
            .collect();
        crate::pvalue::p_values(&samples, ts)
    }

    #[test]
    fn kernel_matches_reference_when_all_records_kept() {
        let kernel = kernel_fixture(40, 200); // 40 < 200: everything selected
        let mut scratch = JudgeScratch::new();
        for probe in [0.0, 3.3, 19.0] {
            kernel.select(&[probe], &mut scratch);
            for expert in 0..kernel.n_experts() {
                scratch.test_scores.clear();
                scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
                kernel.p_values_into(expert, &mut scratch);
                let reference = reference_p_values(&kernel, expert, &[probe], &[0.2, 0.5, 0.8]);
                assert_eq!(scratch.p_values, reference, "probe {probe}, expert {expert}");
            }
        }
    }

    #[test]
    fn kernel_matches_reference_with_nearest_fraction_selection() {
        let kernel = kernel_fixture(300, 200); // 300 >= 200: keep nearest 50%
        let mut scratch = JudgeScratch::new();
        for probe in [0.0, 40.0, 150.0] {
            kernel.select(&[probe], &mut scratch);
            assert_eq!(scratch.selected.len(), 150);
            for expert in 0..kernel.n_experts() {
                scratch.test_scores.clear();
                scratch.test_scores.extend_from_slice(&[0.1, 0.4, 0.9]);
                kernel.p_values_into(expert, &mut scratch);
                let reference = reference_p_values(&kernel, expert, &[probe], &[0.1, 0.4, 0.9]);
                assert_eq!(scratch.p_values, reference, "probe {probe}, expert {expert}");
            }
        }
    }

    #[test]
    fn remove_matches_a_from_scratch_rebuild_bit_for_bit() {
        let n = 60;
        let embeddings: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.5]).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let s0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let s1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos().abs()).collect();
        let selection = SelectionConfig { fraction: 0.5, min_full_size: 10, tau: 10.0 };

        let mut evicted = ScoringKernel::new(
            embeddings.clone(),
            labels.clone(),
            3,
            vec![s0.clone(), s1.clone()],
            selection.clone(),
        );
        // Front, middle, and (shifted) back — indices valid at each step.
        evicted.remove(0);
        evicted.remove(20);
        evicted.remove(evicted.n_records() - 1);

        let keep = |v: &[f64], drop: &[usize]| -> Vec<f64> {
            v.iter().enumerate().filter(|(i, _)| !drop.contains(i)).map(|(_, &x)| x).collect()
        };
        // Original indices of the three removals above.
        let dropped = [0usize, 21, 59];
        let rebuilt = ScoringKernel::new(
            embeddings
                .iter()
                .enumerate()
                .filter(|(i, _)| !dropped.contains(i))
                .map(|(_, e)| e.clone())
                .collect(),
            labels
                .iter()
                .enumerate()
                .filter(|(i, _)| !dropped.contains(i))
                .map(|(_, &l)| l)
                .collect(),
            3,
            vec![keep(&s0, &dropped), keep(&s1, &dropped)],
            selection,
        );

        assert_eq!(evicted.n_records(), rebuilt.n_records());
        assert_eq!(evicted.labels(), rebuilt.labels());
        let bits = |k: &ScoringKernel| -> Vec<Vec<u64>> {
            rows(k).iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&evicted), bits(&rebuilt), "stores must match bit-for-bit after the shift");

        let mut scratch_e = JudgeScratch::new();
        let mut scratch_r = JudgeScratch::new();
        for probe in [0.0, 10.2, 29.5] {
            evicted.select(&[probe], &mut scratch_e);
            rebuilt.select(&[probe], &mut scratch_r);
            for expert in 0..2 {
                for scratch in [&mut scratch_e, &mut scratch_r] {
                    scratch.test_scores.clear();
                    scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
                }
                evicted.p_values_into(expert, &mut scratch_e);
                rebuilt.p_values_into(expert, &mut scratch_r);
                let got: Vec<u64> = scratch_e.p_values.iter().map(|p| p.to_bits()).collect();
                let want: Vec<u64> = scratch_r.p_values.iter().map(|p| p.to_bits()).collect();
                assert_eq!(got, want, "probe {probe}, expert {expert}");
            }
        }
    }

    #[test]
    fn edit_sequence_matches_a_from_scratch_kernel_bit_for_bit() {
        // A seeded mix of inserts, replaces and removes across lane-group
        // boundaries, checked after every step against a fresh kernel over
        // the surviving rows: the lane store itself (padding included),
        // then select + p-values on the partition (fraction 0.5) and the
        // pruned (fraction 0.1) paths.
        use rand::{Rng, SeedableRng};
        for (dim, fraction) in [(1, 0.5), (5, 0.1), (16, 0.5), (16, 0.1)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(dim as u64);
            let selection = SelectionConfig { fraction, min_full_size: 1, tau: 10.0 };
            let row = |rng: &mut rand::rngs::StdRng| -> Vec<f64> {
                (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect()
            };
            let mut embeddings: Vec<Vec<f64>> = (0..30).map(|_| row(&mut rng)).collect();
            let mut labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
            let mut scores: Vec<f64> = (0..30).map(|i| (i as f64 * 0.37).sin().abs()).collect();
            let mut kernel = ScoringKernel::new(
                embeddings.clone(),
                labels.clone(),
                3,
                vec![scores.clone()],
                selection.clone(),
            );
            for step in 0..60 {
                let n = embeddings.len();
                let e = row(&mut rng);
                let (label, score) = (rng.gen_range(0..3), rng.gen_range(0.0..1.0));
                match rng.gen_range(0..3) {
                    0 => {
                        kernel.insert(e.clone(), label, &[score]);
                        embeddings.push(e);
                        labels.push(label);
                        scores.push(score);
                    }
                    1 => {
                        let i = rng.gen_range(0..n);
                        kernel.replace(i, e.clone(), label, &[score]);
                        (embeddings[i], labels[i], scores[i]) = (e, label, score);
                    }
                    _ if n > 1 => {
                        let i = rng.gen_range(0..n);
                        kernel.remove(i);
                        embeddings.remove(i);
                        labels.remove(i);
                        scores.remove(i);
                    }
                    _ => {}
                }
                let fresh = ScoringKernel::new(
                    embeddings.clone(),
                    labels.clone(),
                    3,
                    vec![scores.clone()],
                    selection.clone(),
                );
                let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
                assert_eq!(bits(&kernel.lanes), bits(&fresh.lanes), "dim {dim}, step {step}");
                assert_eq!(bits(&kernel.norms), bits(&fresh.norms), "dim {dim}, step {step}");
                let mut sk = JudgeScratch::new();
                let mut sf = JudgeScratch::new();
                for _ in 0..3 {
                    let probe = row(&mut rng);
                    kernel.select(&probe, &mut sk);
                    fresh.select(&probe, &mut sf);
                    let selected = |s: &JudgeScratch| -> Vec<(u32, u64)> {
                        let mut v: Vec<(u32, u64)> =
                            s.selected.iter().map(|&(i, w)| (i, w.to_bits())).collect();
                        v.sort_unstable();
                        v
                    };
                    assert_eq!(selected(&sk), selected(&sf), "dim {dim}, step {step}");
                    for scratch in [&mut sk, &mut sf] {
                        scratch.test_scores.clear();
                        scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
                    }
                    kernel.p_values_into(0, &mut sk);
                    fresh.p_values_into(0, &mut sf);
                    assert_eq!(bits(&sk.p_values), bits(&sf.p_values), "dim {dim}, step {step}");
                }
            }
        }
    }

    #[test]
    fn k_nearest_matches_the_flat_knn_helper() {
        for dim in [1, 3, 8, 17] {
            let kernel = pruned_fixture(45, dim, 0.5);
            let flat: Vec<f64> = rows(&kernel).concat();
            let mut out = Vec::new();
            for base in [0.0, 4.5, 11.2, f64::NAN] {
                let query: Vec<f64> = (0..dim).map(|j| base + j as f64 * 0.01).collect();
                for k in [1, 3, 45, 60] {
                    kernel.k_nearest(&query, k, &mut out);
                    let expect = prom_ml::knn::k_nearest_flat(&flat, dim, &query, k);
                    assert_eq!(out, expect, "dim {dim}, base {base}, k {k}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot remove the last")]
    fn removing_the_last_record_panics() {
        let mut kernel = ScoringKernel::new(
            vec![vec![1.0]],
            vec![0],
            1,
            vec![vec![0.5]],
            SelectionConfig::default(),
        );
        kernel.remove(0);
    }

    /// A fixture whose selection fraction engages the pruned filtered-scan
    /// path (`keep * 4 <= n`), with duplicate embeddings so boundary ties
    /// are exercised.
    fn pruned_fixture(n: usize, dim: usize, fraction: f64) -> ScoringKernel {
        let embeddings: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                // Every 5th record duplicates its predecessor's embedding.
                let base = if i % 5 == 4 { i - 1 } else { i };
                (0..dim).map(|j| (base as f64 * 0.5) + (j as f64 * 0.01)).collect()
            })
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let scores: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        ScoringKernel::new(
            embeddings,
            labels,
            3,
            vec![scores],
            SelectionConfig { fraction, min_full_size: 1, tau: 10.0 },
        )
    }

    #[test]
    fn pruned_path_matches_reference_bit_for_bit() {
        for dim in [1, 8, 17] {
            let kernel = pruned_fixture(120, dim, 0.1); // keep = 12, 12*4 <= 120
            let mut scratch = JudgeScratch::new();
            for probe_base in [0.0, 11.7, 60.0, 1.0e7] {
                let probe: Vec<f64> = (0..dim).map(|j| probe_base + j as f64 * 0.01).collect();
                kernel.select(&probe, &mut scratch);
                assert_eq!(scratch.selected.len(), 12, "pruned path must keep exactly `keep`");
                scratch.test_scores.clear();
                scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
                kernel.p_values_into(0, &mut scratch);
                let reference = reference_p_values(&kernel, 0, &probe, &[0.2, 0.5, 0.8]);
                let got: Vec<u64> = scratch.p_values.iter().map(|p| p.to_bits()).collect();
                let want: Vec<u64> = reference.iter().map(|p| p.to_bits()).collect();
                assert_eq!(got, want, "dim {dim}, probe {probe_base}");
            }
        }
    }

    #[test]
    fn blocked_selection_is_bit_identical_to_single_query_select() {
        // Partition configs only — the blocked pass is gated off the
        // pruned path by callers via `uses_pruned_path`.
        for fraction in [0.5, 1.0] {
            let kernel = pruned_fixture(60, 4, fraction);
            assert!(!kernel.uses_pruned_path());
            let queries: Vec<Vec<f64>> = vec![
                vec![0.0, 0.01, 0.02, 0.03],
                vec![14.5, 14.51, 14.52, 14.53],
                kernel.embedding(10),
                vec![f64::NAN, 0.0, 0.0, 0.0],
            ];
            let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
            let mut blocked = JudgeScratch::new();
            kernel.distance_block(&refs, &mut blocked);
            let mut single = JudgeScratch::new();
            for (j, query) in queries.iter().enumerate() {
                kernel.select_from_block(j, query, &mut blocked);
                kernel.select(query, &mut single);
                let got: Vec<(u32, u64)> =
                    blocked.selected.iter().map(|&(i, w)| (i, w.to_bits())).collect();
                let want: Vec<(u32, u64)> =
                    single.selected.iter().map(|&(i, w)| (i, w.to_bits())).collect();
                assert_eq!(got, want, "fraction {fraction}, query {j}");
                assert_eq!(blocked.by_label, single.by_label, "fraction {fraction}, query {j}");
            }
        }
    }

    #[test]
    fn pruned_and_partition_paths_keep_the_same_set() {
        // Same records, two configs straddling the `keep * 4 <= n`
        // threshold at the same keep count: fraction 0.1 of 120 (pruned)
        // vs the same 12 records under a kernel sliced to engage the
        // partition (compare selected sets + weights via p-value bits and
        // the selected-index sets directly).
        let pruned = pruned_fixture(120, 3, 0.1);
        let mut sp = JudgeScratch::new();
        pruned.select(&[7.0, 7.01, 7.02], &mut sp);
        let mut from_pruned: Vec<u32> = sp.selected.iter().map(|&(i, _)| i).collect();
        from_pruned.sort_unstable();
        // Reference kept set via the scalar path.
        let reference = crate::calibration::select_weighted_subset(
            &rows(&pruned),
            &[7.0, 7.01, 7.02],
            &pruned.selection,
        );
        let mut from_reference: Vec<u32> = reference.iter().map(|s| s.index as u32).collect();
        from_reference.sort_unstable();
        assert_eq!(from_pruned, from_reference);
    }

    #[test]
    fn nearest_recomputes_when_k_exceeds_pruned_keep() {
        let kernel = pruned_fixture(120, 2, 0.05); // keep = 6
        let mut scratch = JudgeScratch::new();
        let mut out = Vec::new();
        kernel.select(&[30.0, 30.01], &mut scratch);
        assert_eq!(scratch.selected.len(), 6);
        assert_eq!(scratch.dist.len(), 6, "pruned path materializes only the kept set");
        // k = 10 > keep = 6: the fallback must recompute and agree with the
        // flat k-NN helper over the full store.
        let flat: Vec<f64> = rows(&kernel).concat();
        kernel.nearest(&scratch, 10, &mut out);
        let expect = prom_ml::knn::k_nearest_flat(&flat, kernel.dim(), &[30.0, 30.01], 10);
        assert_eq!(out, expect);
        // And k <= keep stays on the kept subset with identical results.
        kernel.nearest(&scratch, 3, &mut out);
        let expect = prom_ml::knn::k_nearest_flat(&flat, kernel.dim(), &[30.0, 30.01], 3);
        assert_eq!(out, expect);
    }

    #[test]
    fn replace_maintains_norms_for_the_pruning_bound() {
        let mut kernel = pruned_fixture(120, 2, 0.1);
        // Move record 7 far away; a stale norm would let the pruning bound
        // wrongly skip (or keep) it.
        kernel.replace(7, vec![500.0, 500.0], 0, &[0.3]);
        assert_eq!(kernel.norms[7], prom_ml::matrix::l2_norm(&[500.0, 500.0]));
        let mut scratch = JudgeScratch::new();
        kernel.select(&[500.0, 500.0], &mut scratch);
        assert!(
            scratch.selected.iter().any(|&(i, _)| i == 7),
            "the relocated record is now nearest and must be kept"
        );
        let reference = reference_p_values(&kernel, 0, &[500.0, 500.0], &[0.2, 0.5, 0.8]);
        scratch.test_scores.clear();
        scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
        kernel.p_values_into(0, &mut scratch);
        assert_eq!(scratch.p_values, reference);
    }

    #[test]
    fn scratch_reuse_is_stateless_across_samples() {
        let kernel = kernel_fixture(120, 50);
        let mut reused = JudgeScratch::new();
        for probe in [0.0, 17.0, 3.0, 55.0, 17.0] {
            kernel.select(&[probe], &mut reused);
            reused.test_scores.clear();
            reused.test_scores.extend_from_slice(&[0.3, 0.3, 0.3]);
            kernel.p_values_into(0, &mut reused);
            let from_reused = reused.p_values.clone();

            let mut fresh = JudgeScratch::new();
            kernel.select(&[probe], &mut fresh);
            fresh.test_scores.extend_from_slice(&[0.3, 0.3, 0.3]);
            kernel.p_values_into(0, &mut fresh);
            assert_eq!(from_reused, fresh.p_values, "probe {probe}");
        }
    }

    #[test]
    fn nearest_agrees_with_knn_helper_in_both_selection_modes() {
        for min_full in [10, 1000] {
            let kernel = kernel_fixture(60, min_full);
            let mut scratch = JudgeScratch::new();
            let mut out = Vec::new();
            for probe in [0.0, 7.2, 29.9] {
                kernel.select(&[probe], &mut scratch);
                kernel.nearest(&scratch, 3, &mut out);
                let flat: Vec<f64> = rows(&kernel).concat();
                let expect = prom_ml::knn::k_nearest_flat(&flat, kernel.dim(), &[probe], 3);
                assert_eq!(out, expect, "probe {probe}, min_full {min_full}");
            }
        }
    }

    #[test]
    fn nan_embedding_yields_zero_weights_and_zero_p_values() {
        // A NaN test embedding makes every distance NaN; the kernel maps
        // them to +inf, so every Eq. 1 weight is exactly 0 and positive
        // test scores get p = 0 on every label — a defined rejection, not
        // a panic, on both selection paths.
        for min_full in [200, 5] {
            let kernel = kernel_fixture(10, min_full);
            let mut scratch = JudgeScratch::new();
            kernel.select(&[f64::NAN], &mut scratch);
            assert!(scratch.selected.iter().all(|&(_, w)| w == 0.0), "min_full {min_full}");
            scratch.test_scores.clear();
            scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
            kernel.p_values_into(0, &mut scratch);
            assert!(scratch.p_values.iter().all(|&p| p == 0.0), "min_full {min_full}");
        }
    }

    #[test]
    fn scratch_is_send_for_shard_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<JudgeScratch>();
    }

    #[test]
    fn from_records_widens_to_largest_label() {
        use crate::nonconformity::Lac;
        let records = vec![
            CalibrationRecord::new(vec![0.0], vec![0.7, 0.3], 0),
            CalibrationRecord::new(vec![1.0], vec![0.2, 0.8], 1),
        ];
        // min_labels below the data's own range widens to cover label 1…
        let table = ScoreTable::from_records(&records, &Lac, 1);
        assert_eq!(table.n_labels(), 2);
        // …and above it wins outright.
        let table = ScoreTable::from_records(&records, &Lac, 5);
        assert_eq!(table.n_labels(), 5);
        assert_eq!(table.p_value(4, 0.0), 0.0);
    }

    #[test]
    fn kernel_insert_matches_rebuilt_kernel_on_both_selection_paths() {
        // Grow a kernel record-by-record and compare every p-value against
        // a kernel constructed from scratch with the same record order, in
        // both the keep-everything and nearest-fraction selection modes.
        for min_full in [1000, 20] {
            let full = kernel_fixture(60, min_full);
            let mut grown = kernel_fixture(40, min_full);
            for i in 40..60 {
                let scores: Vec<f64> =
                    (0..full.n_experts()).map(|e| full.cal_scores[e][i]).collect();
                grown.insert(full.embedding(i), full.labels()[i], &scores);
            }
            assert_eq!(grown.n_records(), full.n_records());
            let mut sa = JudgeScratch::new();
            let mut sb = JudgeScratch::new();
            for probe in [0.0, 3.3, 19.0, 29.5] {
                grown.select(&[probe], &mut sa);
                full.select(&[probe], &mut sb);
                for expert in 0..full.n_experts() {
                    for scratch in [&mut sa, &mut sb] {
                        scratch.test_scores.clear();
                        scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
                    }
                    grown.p_values_into(expert, &mut sa);
                    full.p_values_into(expert, &mut sb);
                    let a: Vec<u64> = sa.p_values.iter().map(|p| p.to_bits()).collect();
                    let b: Vec<u64> = sb.p_values.iter().map(|p| p.to_bits()).collect();
                    assert_eq!(a, b, "probe {probe}, expert {expert}, min_full {min_full}");
                }
            }
        }
    }

    #[test]
    fn kernel_replace_overwrites_in_place() {
        let mut kernel = kernel_fixture(10, 1000);
        kernel.replace(3, vec![99.0], 2, &[0.11, 0.22]);
        assert_eq!(kernel.embedding(3), &[99.0]);
        assert_eq!(kernel.labels()[3], 2);
        assert_eq!(kernel.cal_scores[0][3], 0.11);
        assert_eq!(kernel.cal_scores[1][3], 0.22);
        assert_eq!(kernel.n_records(), 10, "replace must not grow the kernel");
    }

    #[test]
    #[should_panic(expected = "one score per expert")]
    fn kernel_insert_rejects_ragged_scores() {
        let mut kernel = kernel_fixture(10, 1000);
        kernel.insert(vec![0.0], 0, &[0.5]);
    }

    #[test]
    fn unselected_labels_get_zero_p_value() {
        // All label-2 records are far away; with aggressive selection they
        // drop out and label 2's p-value must be 0.
        let embeddings: Vec<Vec<f64>> =
            (0..200).map(|i| vec![if i % 3 == 2 { 1.0e6 } else { i as f64 }]).collect();
        let labels: Vec<usize> = (0..200).map(|i| i % 3).collect();
        let scores = vec![0.5; 200];
        let kernel = ScoringKernel::new(
            embeddings,
            labels,
            3,
            vec![scores],
            SelectionConfig { fraction: 0.25, min_full_size: 10, tau: 100.0 },
        );
        let mut scratch = JudgeScratch::new();
        kernel.select(&[0.0], &mut scratch);
        scratch.test_scores.extend_from_slice(&[0.0, 0.0, 0.0]);
        kernel.p_values_into(0, &mut scratch);
        assert_eq!(scratch.p_values[2], 0.0);
        assert!(scratch.p_values[0] > 0.0);
    }
}
