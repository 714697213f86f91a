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
//!   used by Prom itself: one blocked distance pass per `QUERY_BLOCK`
//!   test samples into a **reusable scratch buffer**, an `O(n)` partition
//!   for the kept set (none when the whole calibration set is kept), and
//!   the p-values of all `E` experts computed in one `O(S · E + L)` pass
//!   over the kept set, sorted into label runs, instead of `O(S · L)` per
//!   expert.
//!
//! Every selection runs one engine: [`ScoringKernel::distance_block`]
//! followed by [`ScoringKernel::select_from_block`]. A single query is a
//! one-query block, and the lane pass gives each record the same bits
//! with one query or eight, so `judge` and `judge_batch` are
//! bit-identical by construction.

use crate::calibration::{CalibrationRecord, SelectionConfig};
use crate::nonconformity::Nonconformity;
use prom_ml::matrix::{l2_distances_sq_lanes, lane_offset, LANE_GROUP};

/// Queries per blocked distance pass in the batched judging paths: the
/// whole query block must stay cache-resident while the calibration store
/// streams past it once, and eight queries already cut the store traffic
/// 8× — wider blocks buy little and cost query-block locality.
pub(crate) const QUERY_BLOCK: usize = 8;

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
/// every [`ScoringKernel::select`] / [`ScoringKernel::p_values_all`] call;
/// all interior vectors are recycled, so a long `judge_batch` performs no
/// per-sample allocation.
///
/// `test_scores` and `p_values` are expert-major `E × L` tables for
/// [`ScoringKernel::p_values_all`] (`E` experts, `L` labels): entry
/// `e · L + y` belongs to expert `e` and label `y`, so expert `e`'s row is
/// `[e · L, (e + 1) · L)`. The single-expert reader
/// [`ScoringKernel::p_values_into`] uses one row of `L`.
#[derive(Debug, Default)]
pub struct JudgeScratch {
    /// (squared distance, record index) of every calibration record after
    /// a selection, the kept ones partitioned to the front; NaN distances
    /// are stored as `+inf`. [`ScoringKernel::nearest`] reads it.
    dist: Vec<(f64, u32)>,
    /// Query-major squared-distance block (`queries × n_records`) filled by
    /// [`ScoringKernel::distance_block`].
    block: Vec<f64>,
    /// The query block gathered contiguously for the blocked distance pass.
    block_queries: Vec<f64>,
    /// (record index, Eq. 1 weight) of the selected subset, sorted by
    /// calibration label into contiguous runs: label `y`'s kept records
    /// are `selected[label_ends[y - 1]..label_ends[y]]` (from 0 for
    /// `y = 0`).
    selected: Vec<(u32, f64)>,
    /// Each label's run end in `selected`. The counting sort also uses it
    /// as the fill cursor: it holds run starts before the scatter and run
    /// ends after it.
    label_ends: Vec<u32>,
    /// Test nonconformity scores, `E × L` expert-major (`L` for
    /// [`ScoringKernel::p_values_into`]); filled by the caller.
    pub test_scores: Vec<f64>,
    /// P-values in the shape of `test_scores`; output of
    /// [`ScoringKernel::p_values_all`] / [`ScoringKernel::p_values_into`].
    pub p_values: Vec<f64>,
    /// k-NN record indices; output of [`ScoringKernel::nearest`]. Carried
    /// here so the one scratch a pool shard owns covers the
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
/// distance-weighted subset selection plus Eq. 2 per-label p-values for
/// every nonconformity expert of a committee in one pass.
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
/// The store is the kernel's only distance-related state, so
/// [`ScoringKernel::insert`] / [`ScoringKernel::replace`] /
/// [`ScoringKernel::remove`] edit it and nothing else.
///
/// Calibration scores live in one record-major store: expert `e`'s score
/// of record `i` sits at `i · E + e`, so one kept record's whole committee
/// row is a single short load. [`ScoringKernel::select`] leaves the kept
/// set sorted by label into contiguous runs, and
/// [`ScoringKernel::p_values_all`] walks those runs once for all experts.
#[derive(Debug)]
pub struct ScoringKernel {
    /// Lane-grouped embedding store: value `d` of record `i` sits at
    /// `lane_offset(i, d, dim)`; lanes past `n_records()` are zero.
    lanes: Vec<f64>,
    /// Embedding dimensionality (fixed at construction).
    dim: usize,
    labels: Vec<usize>,
    n_labels: usize,
    /// Number of experts `E`.
    n_experts: usize,
    /// `scores[i · E + e]`: expert `e`'s nonconformity of calibration
    /// record `i` at its true label, precomputed offline (record-major).
    scores: Vec<f64>,
    selection: SelectionConfig,
}

impl ScoringKernel {
    /// Builds the kernel. `cal_scores[e][i]` is expert `e`'s score of
    /// record `i`; it is transposed once, in `O(n · E)`, into the
    /// record-major store.
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
        let n_experts = cal_scores.len();
        let mut scores = Vec::with_capacity(labels.len() * n_experts);
        for i in 0..labels.len() {
            scores.extend(cal_scores.iter().map(|table| table[i]));
        }
        Self { lanes, dim, labels, n_labels, n_experts, scores, selection }
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

    /// Number of experts `E`: the kernel holds `E` scores per record.
    pub fn n_experts(&self) -> usize {
        self.n_experts
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
        assert_eq!(scores.len(), self.n_experts, "one score per expert required");
        self.scores.extend_from_slice(scores);
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
        assert_eq!(scores.len(), self.n_experts, "one score per expert required");
        self.scores[index * self.n_experts..(index + 1) * self.n_experts].copy_from_slice(scores);
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
        self.scores.drain(index * self.n_experts..(index + 1) * self.n_experts);
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

    /// Runs the Eq. 1 selection for one test embedding into `scratch`: a
    /// one-query [`ScoringKernel::distance_block`] followed by
    /// [`ScoringKernel::select_from_block`], the same engine every batched
    /// path runs, so one query and a block of eight keep the same records
    /// with the same weight bits.
    ///
    /// # Panics
    ///
    /// Panics on an embedding-length mismatch (one check per call — the
    /// store is uniform by construction).
    pub fn select(&self, test_embedding: &[f64], scratch: &mut JudgeScratch) {
        self.distance_block(&[test_embedding], scratch);
        self.select_from_block(0, test_embedding, scratch);
    }

    /// Runs the Eq. 1 selection for every query in turn, in chunks of
    /// [`QUERY_BLOCK`]: one [`ScoringKernel::distance_block`] per chunk,
    /// then [`ScoringKernel::select_from_block`] per query, after which
    /// `each` gets the query's index in `queries` and the scratch holding
    /// its selection — the loop of every batched judging path.
    ///
    /// # Panics
    ///
    /// Panics on an embedding-length mismatch in any query.
    pub(crate) fn select_each(
        &self,
        queries: &[&[f64]],
        scratch: &mut JudgeScratch,
        mut each: impl FnMut(usize, &mut JudgeScratch),
    ) {
        for (c, chunk) in queries.chunks(QUERY_BLOCK).enumerate() {
            self.distance_block(chunk, scratch);
            for (j, query) in chunk.iter().enumerate() {
                self.select_from_block(j, query, scratch);
                each(c * QUERY_BLOCK + j, scratch);
            }
        }
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

    /// Always `false`: the norm-pruned selection scan this reported is
    /// gone, and every selection computes all `n` distances and partitions
    /// them. Kept only so existing callers still build; it will be removed.
    pub fn uses_pruned_path(&self) -> bool {
        false
    }

    /// Weights the kept prefix of `scratch.dist` and counting-sorts it by
    /// label into `scratch.selected`, recording each label's run end in
    /// `scratch.label_ends` — the tail of [`ScoringKernel::select_from_block`].
    /// `sqrt` happens here, once per *kept* record, exactly where the Eq. 1
    /// weight needs it. Order within a run is irrelevant: p-values are
    /// counts over the kept set.
    fn finish_selection(&self, keep: usize, scratch: &mut JudgeScratch) {
        let kept = &scratch.dist[..keep];
        let ends = &mut scratch.label_ends;
        ends.clear();
        ends.resize(self.n_labels, 0);
        for &(_, i) in kept {
            ends[self.labels[i as usize]] += 1;
        }
        // Counts to run starts: the fill cursor of the scatter below,
        // which leaves every cursor at its run's end.
        let mut start = 0;
        for slot in ends.iter_mut() {
            (*slot, start) = (start, start + *slot);
        }
        scratch.selected.clear();
        scratch.selected.resize(keep, (0, 0.0));
        for &(d2, i) in kept {
            let cursor = &mut ends[self.labels[i as usize]];
            scratch.selected[*cursor as usize] = (i, (-d2.sqrt() / self.selection.tau).exp());
            *cursor += 1;
        }
    }

    /// Fills `scratch` with the squared-distance block for a batch of
    /// queries: `queries.len()` rows of `n_records()` raw squared distances
    /// each, computed by one streaming pass over the lane-grouped store
    /// ([`l2_distances_sq_lanes`]) instead of one full stream per query.
    /// Pair with [`ScoringKernel::select_from_block`] per query.
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
    /// [`ScoringKernel::distance_block`] — the one selection engine: keeps
    /// the nearest fraction per [`SelectionConfig`] by an `O(n)` partition,
    /// weights the kept records by `exp(-d / tau)`, and sorts them into
    /// label runs for the p-value pass. The lane pass gives each record
    /// the same bits with one query or eight, so the result does not depend
    /// on the block's size or on `j`.
    ///
    /// Distances are compared as **squared** distances throughout — the
    /// square root is a monotone bijection on `[0, +inf]`, and every
    /// comparison breaks ties by record index, so the kept *set* is
    /// identical to comparing true distances; `sqrt` is taken once per
    /// *kept* record, exactly where the Eq. 1 weight needs it, so weight
    /// bits match the scalar reference (`calibration::select_weighted_subset`)
    /// which shares the same distance summation. When the whole calibration
    /// set is kept (small sets, or `fraction = 1`), the partition is
    /// skipped — p-values are counts, so selection order is irrelevant.
    ///
    /// # Panics
    ///
    /// Panics if the block row `j` is out of range or `test_embedding`
    /// has the wrong dimension.
    pub fn select_from_block(&self, j: usize, test_embedding: &[f64], scratch: &mut JudgeScratch) {
        assert_eq!(self.dim, test_embedding.len(), "embedding length mismatch");
        let n = self.labels.len();
        let keep = self.keep_count();
        scratch.dist.clear();
        scratch.dist.extend(ranked(&scratch.block[j * n..(j + 1) * n]));
        partition_kept(&mut scratch.dist, keep);
        self.finish_selection(keep, scratch);
    }

    /// The `k` nearest calibration records to the embedding of the last
    /// selection in `scratch`, nearest first (the k-NN ground-truth proxy
    /// reuses the selection's distances instead of recomputing them). Same
    /// order as [`ScoringKernel::k_nearest`] on that embedding.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or no selection has run on `scratch`.
    pub fn nearest(&self, scratch: &JudgeScratch, k: usize, out: &mut Vec<usize>) {
        assert!(k > 0, "nearest needs k >= 1");
        assert!(!scratch.dist.is_empty(), "select() must run before nearest()");
        let k = k.min(self.labels.len());
        // The kept prefix holds the `keep` globally-nearest records, so
        // when it covers `k` its k smallest are the global k smallest;
        // otherwise every record's distance is still in the buffer.
        let kept = scratch.selected.len();
        let candidates = if k <= kept { &scratch.dist[..kept] } else { &scratch.dist[..] };
        k_smallest_into(candidates.iter().copied(), k, out);
    }

    /// The `k` nearest calibration records to `query`, nearest first, ties
    /// broken by record index and a NaN distance ranked as `+inf` — the
    /// order of `prom_ml::knn::k_nearest` over the same rows. Runs a
    /// one-query [`ScoringKernel::distance_block`] in `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `query` has the wrong dimension.
    pub fn k_nearest(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut JudgeScratch,
        out: &mut Vec<usize>,
    ) {
        assert!(k > 0, "k_nearest needs k >= 1");
        self.distance_block(&[query], scratch);
        k_smallest_into(ranked(&scratch.block), k.min(self.labels.len()), out);
    }

    /// Eq. 2 p-values of every expert over the selection in `scratch`, in
    /// one pass: reads the `E × L` expert-major test scores from
    /// `scratch.test_scores` and writes the `E × L` p-values to
    /// `scratch.p_values` (see [`JudgeScratch`]).
    ///
    /// For expert `e` and label `y`, the p-value is the fraction of
    /// *selected* label-`y` calibration records whose weight-adjusted
    /// score `w_i * a_i` is `>= test_scores[e · L + y]`; labels absent from
    /// the selection get 0. Each kept record's committee row is loaded
    /// once, and its `E` comparisons run in registers. Row `e` equals
    /// [`ScoringKernel::p_values_into`] for expert `e` bit for bit: both
    /// count the same comparisons over the same label runs.
    ///
    /// # Panics
    ///
    /// Panics if `scratch.test_scores` has the wrong length or
    /// [`ScoringKernel::select`] has not run.
    pub fn p_values_all(&self, scratch: &mut JudgeScratch) {
        let (n_experts, n_labels) = (self.n_experts, self.n_labels);
        assert_eq!(scratch.test_scores.len(), n_experts * n_labels, "test-score length mismatch");
        assert_eq!(scratch.label_ends.len(), n_labels, "select() must run before p-values");
        scratch.p_values.clear();
        scratch.p_values.resize(n_experts * n_labels, 0.0);
        let JudgeScratch { selected, label_ends, test_scores, p_values, .. } = scratch;
        // The committee sizes the workspace builds run the fused body at
        // their own width: 4 (the default committees) here, and 1 (the
        // single-expert ablation) as the one iteration of the fallback,
        // which runs any other size one expert at a time.
        match n_experts {
            4 => self.count_runs::<4>(0, selected, label_ends, test_scores, p_values),
            _ => {
                for (e, (tests, out)) in test_scores
                    .chunks_exact(n_labels)
                    .zip(p_values.chunks_exact_mut(n_labels))
                    .enumerate()
                {
                    self.count_runs::<1>(e, selected, label_ends, tests, out);
                }
            }
        }
    }

    /// Eq. 2 p-values of expert `expert` alone: reads the `L` per-label
    /// test scores from `scratch.test_scores` and writes `L` p-values to
    /// `scratch.p_values`. The single-expert reader of the same store and
    /// label runs as [`ScoringKernel::p_values_all`], whose row `expert`
    /// it equals bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `expert` is out of range, `scratch.test_scores` has the
    /// wrong length, or [`ScoringKernel::select`] has not run.
    pub fn p_values_into(&self, expert: usize, scratch: &mut JudgeScratch) {
        assert!(expert < self.n_experts, "expert {expert} out of range");
        assert_eq!(scratch.test_scores.len(), self.n_labels, "test-score length mismatch");
        assert_eq!(scratch.label_ends.len(), self.n_labels, "select() must run before p-values");
        scratch.p_values.clear();
        scratch.p_values.resize(self.n_labels, 0.0);
        let JudgeScratch { selected, label_ends, test_scores, p_values, .. } = scratch;
        self.count_runs::<1>(expert, selected, label_ends, test_scores, p_values);
    }

    /// The Eq. 2 count for `W` consecutive experts from `first`, over the
    /// label runs `selected` / `label_ends` of one selection: per run, the
    /// share of kept records with `weight * score >= test`. Reads `tests`
    /// and writes `out` as `W × L` expert-major tables; an empty run gives
    /// 0, and a NaN test score matches nothing. The one body of every
    /// p-value pass — `W` is a constant, so each kept record's `W`-wide
    /// score row is one load and its `W` compares stay in registers.
    fn count_runs<const W: usize>(
        &self,
        first: usize,
        selected: &[(u32, f64)],
        label_ends: &[u32],
        tests: &[f64],
        out: &mut [f64],
    ) {
        let n_labels = label_ends.len();
        let mut start = 0;
        for (label, &end) in label_ends.iter().enumerate() {
            let run = &selected[start as usize..end as usize];
            start = end;
            let test: [f64; W] = std::array::from_fn(|w| tests[w * n_labels + label]);
            let mut at_least = [0usize; W];
            for &(record, weight) in run {
                let row = record as usize * self.n_experts + first;
                let row: &[f64; W] = self.scores[row..row + W].try_into().expect("W scores");
                for w in 0..W {
                    at_least[w] += usize::from(weight * row[w] >= test[w]);
                }
            }
            for w in 0..W {
                out[w * n_labels + label] =
                    if run.is_empty() { 0.0 } else { at_least[w] as f64 / run.len() as f64 };
            }
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

/// `(d², index)` for every record of one distance-block row, in record
/// order. A NaN squared distance (the *test* embedding diverged —
/// calibration embeddings are validated NaN-free at record construction)
/// means the pair conforms to nothing: it is ranked as `+inf`, so its Eq. 1
/// weight is exactly 0 and the judgement stays *defined* instead of
/// panicking in the serving path. Every strictly positive test score then
/// gets p = 0; a test score of exactly 0 (a maximally conforming output)
/// still ties as `0 >= 0`, matching the reference path's tie rule.
fn ranked(row: &[f64]) -> impl Iterator<Item = (f64, u32)> + '_ {
    row.iter().enumerate().map(|(i, &d2)| (if d2.is_nan() { f64::INFINITY } else { d2 }, i as u32))
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

    /// Expert `expert`'s stored score of calibration record `record`.
    fn score_of(kernel: &ScoringKernel, record: usize, expert: usize) -> f64 {
        kernel.scores[record * kernel.n_experts() + expert]
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
                adjusted_score: s.weight * score_of(kernel, s.index, expert),
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
        // the record-major score store, then select + every expert's
        // p-values at fractions 0.5 and 0.1. Three experts with different scores, so a
        // stride or offset slip in the score store's edits shows.
        use rand::{Rng, SeedableRng};
        const EXPERTS: usize = 3;
        for (dim, fraction) in [(1, 0.5), (5, 0.1), (16, 0.5), (16, 0.1)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(dim as u64);
            let selection = SelectionConfig { fraction, min_full_size: 1, tau: 10.0 };
            let row = |rng: &mut rand::rngs::StdRng| -> Vec<f64> {
                (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect()
            };
            let mut embeddings: Vec<Vec<f64>> = (0..30).map(|_| row(&mut rng)).collect();
            let mut labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
            // `scores[e][i]`: expert-major, as `ScoringKernel::new` takes it.
            let mut scores: Vec<Vec<f64>> = (0..EXPERTS)
                .map(|e| (0..30).map(|i| (i as f64 * (0.37 + e as f64)).sin().abs()).collect())
                .collect();
            let mut kernel = ScoringKernel::new(
                embeddings.clone(),
                labels.clone(),
                3,
                scores.clone(),
                selection.clone(),
            );
            for step in 0..60 {
                let n = embeddings.len();
                let e = row(&mut rng);
                let label = rng.gen_range(0..3);
                let record: [f64; EXPERTS] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
                match rng.gen_range(0..3) {
                    0 => {
                        kernel.insert(e.clone(), label, &record);
                        embeddings.push(e);
                        labels.push(label);
                        for (table, &score) in scores.iter_mut().zip(&record) {
                            table.push(score);
                        }
                    }
                    1 => {
                        let i = rng.gen_range(0..n);
                        kernel.replace(i, e.clone(), label, &record);
                        (embeddings[i], labels[i]) = (e, label);
                        for (table, &score) in scores.iter_mut().zip(&record) {
                            table[i] = score;
                        }
                    }
                    _ if n > 1 => {
                        let i = rng.gen_range(0..n);
                        kernel.remove(i);
                        embeddings.remove(i);
                        labels.remove(i);
                        for table in &mut scores {
                            table.remove(i);
                        }
                    }
                    _ => {}
                }
                let fresh = ScoringKernel::new(
                    embeddings.clone(),
                    labels.clone(),
                    3,
                    scores.clone(),
                    selection.clone(),
                );
                let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
                assert_eq!(bits(&kernel.lanes), bits(&fresh.lanes), "dim {dim}, step {step}");
                assert_eq!(bits(&kernel.scores), bits(&fresh.scores), "dim {dim}, step {step}");
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
                        for _ in 0..EXPERTS {
                            scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
                        }
                    }
                    kernel.p_values_all(&mut sk);
                    fresh.p_values_all(&mut sf);
                    assert_eq!(bits(&sk.p_values), bits(&sf.p_values), "dim {dim}, step {step}");
                }
            }
        }
    }

    #[test]
    fn committee_pass_matches_each_single_expert_reader_and_the_reference() {
        // Committees of 1 and 4 experts take the widths `p_values_all`
        // dispatches on; 3 and 5 take the per-expert fallback. Label 3
        // has no records (an empty run on every selection), and label 2
        // sits far away, so the fraction-0.5 and fraction-0.1 selections
        // near the origin keep none of it.
        let n = 120;
        let embeddings: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let x = if i % 3 == 2 { 1.0e3 + i as f64 } else { i as f64 * 0.5 };
                vec![x, x * 0.25]
            })
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let n_labels = 4;
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        for n_experts in [1, 3, 4, 5] {
            let cal_scores: Vec<Vec<f64>> = (0..n_experts)
                .map(|e| {
                    (0..n).map(|i| (i as f64 * (0.37 + 0.21 * e as f64)).sin().abs()).collect()
                })
                .collect();
            // (fraction, min_full_size): keep-all, then keep 50% and 10%.
            for (fraction, min_full_size) in [(0.5, 1000), (0.5, 10), (0.1, 10)] {
                let kernel = ScoringKernel::new(
                    embeddings.clone(),
                    labels.clone(),
                    n_labels,
                    cal_scores.clone(),
                    SelectionConfig { fraction, min_full_size, tau: 10.0 },
                );
                let mut scratch = JudgeScratch::new();
                // The last probe is a NaN embedding: every weight is 0.
                for probe in [[0.0, 0.0], [11.3, 2.9], [f64::NAN, 0.0]] {
                    kernel.select(&probe, &mut scratch);
                    // Expert `e`'s row: a NaN test score on label 1 for
                    // even experts, an exact 0 on label 2 (ties a zero
                    // weight), and distinct positive scores elsewhere.
                    let tests: Vec<Vec<f64>> = (0..n_experts)
                        .map(|e| {
                            let nan_or = |x: f64| if e % 2 == 0 { f64::NAN } else { x };
                            vec![0.05 + 0.1 * e as f64, nan_or(0.3), 0.0, 0.4]
                        })
                        .collect();
                    scratch.test_scores = tests.concat();
                    kernel.p_values_all(&mut scratch);
                    let all = scratch.p_values.clone();
                    assert_eq!(all.len(), n_experts * n_labels);
                    let case = format!("{n_experts} experts, fraction {fraction}, min_full {min_full_size}, probe {probe:?}");
                    for (e, ts) in tests.iter().enumerate() {
                        let row = &all[e * n_labels..(e + 1) * n_labels];
                        scratch.test_scores.clone_from(ts);
                        kernel.p_values_into(e, &mut scratch);
                        assert_eq!(bits(&scratch.p_values), bits(row), "{case}, expert {e}");
                        let reference = reference_p_values(&kernel, e, &probe, ts);
                        assert_eq!(bits(row), bits(&reference), "{case}, expert {e}");
                        assert_eq!(row[3], 0.0, "empty run, {case}, expert {e}");
                        if e % 2 == 0 {
                            assert_eq!(row[1], 0.0, "NaN test score, {case}, expert {e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn k_nearest_matches_the_flat_knn_helper() {
        for dim in [1, 3, 8, 17] {
            let kernel = tie_fixture(45, dim, 0.5);
            let flat: Vec<f64> = rows(&kernel).concat();
            let mut scratch = JudgeScratch::new();
            let mut out = Vec::new();
            for base in [0.0, 4.5, 11.2, f64::NAN] {
                let query: Vec<f64> = (0..dim).map(|j| base + j as f64 * 0.01).collect();
                for k in [1, 3, 45, 60] {
                    kernel.k_nearest(&query, k, &mut scratch, &mut out);
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

    /// A fixture with duplicate embeddings, so selections cut through
    /// distance ties at the keep boundary: every 5th record duplicates its
    /// predecessor's embedding. Two experts with different scores.
    fn tie_fixture(n: usize, dim: usize, fraction: f64) -> ScoringKernel {
        let embeddings: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let base = if i % 5 == 4 { i - 1 } else { i };
                (0..dim).map(|j| (base as f64 * 0.5) + (j as f64 * 0.01)).collect()
            })
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let scores: Vec<Vec<f64>> = [0.37, 0.11]
            .iter()
            .map(|f| (0..n).map(|i| (i as f64 * f).sin().abs()).collect())
            .collect();
        ScoringKernel::new(
            embeddings,
            labels,
            3,
            scores,
            SelectionConfig { fraction, min_full_size: 1, tau: 10.0 },
        )
    }

    #[test]
    fn small_fraction_selection_matches_reference_bit_for_bit() {
        // Keep 10% of 120 records: the kept index set and the p-value bits
        // equal the scalar reference's (full sort, ties by index).
        for dim in [1, 3, 8, 17] {
            let kernel = tie_fixture(120, dim, 0.1); // keep = 12
            let mut scratch = JudgeScratch::new();
            for probe_base in [0.0, 7.0, 11.7, 60.0, 1.0e7] {
                let probe: Vec<f64> = (0..dim).map(|j| probe_base + j as f64 * 0.01).collect();
                kernel.select(&probe, &mut scratch);
                assert_eq!(scratch.selected.len(), 12, "the selection must keep exactly `keep`");
                let mut kept: Vec<usize> =
                    scratch.selected.iter().map(|&(i, _)| i as usize).collect();
                kept.sort_unstable();
                let reference = crate::calibration::select_weighted_subset(
                    &rows(&kernel),
                    &probe,
                    &kernel.selection,
                );
                let mut want: Vec<usize> = reference.iter().map(|s| s.index).collect();
                want.sort_unstable();
                assert_eq!(kept, want, "dim {dim}, probe {probe_base}");
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
    fn select_is_a_one_query_block_bit_for_bit() {
        // `select` against `distance_block` over four queries plus
        // `select_from_block`: the kept (record, weight) pairs, the label
        // runs and every expert's p-values, at keep fractions from 5% to
        // all. The query at record 10's embedding puts records 8 and 9
        // (duplicates) at the keep-3 boundary; the last query is NaN.
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let pairs = |s: &JudgeScratch| -> Vec<(u32, u64)> {
            s.selected.iter().map(|&(i, w)| (i, w.to_bits())).collect()
        };
        let mut boundary_ties = 0;
        for dim in [1, 4] {
            for fraction in [0.05, 0.1, 0.25, 0.5, 1.0] {
                let kernel = tie_fixture(60, dim, fraction);
                let flat: Vec<f64> = rows(&kernel).concat();
                let queries: Vec<Vec<f64>> = vec![
                    (0..dim).map(|j| j as f64 * 0.01).collect(),
                    (0..dim).map(|j| 14.5 + j as f64 * 0.01).collect(),
                    kernel.embedding(10),
                    (0..dim).map(|j| if j == 0 { f64::NAN } else { 0.0 }).collect(),
                ];
                let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
                let mut blocked = JudgeScratch::new();
                kernel.distance_block(&refs, &mut blocked);
                let mut single = JudgeScratch::new();
                for (j, query) in queries.iter().enumerate() {
                    let case = format!("dim {dim}, fraction {fraction}, query {j}");
                    kernel.select_from_block(j, query, &mut blocked);
                    kernel.select(query, &mut single);
                    assert_eq!(pairs(&blocked), pairs(&single), "{case}");
                    assert_eq!(blocked.label_ends, single.label_ends, "{case}");
                    for scratch in [&mut blocked, &mut single] {
                        scratch.test_scores.clear();
                        scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8, 0.1, 0.4, 0.0]);
                        kernel.p_values_all(scratch);
                    }
                    assert_eq!(bits(&blocked.p_values), bits(&single.p_values), "{case}");
                    let keep = single.selected.len();
                    let boundary = single.dist[..keep].iter().map(|d| d.0).fold(0.0, f64::max);
                    if boundary.is_finite() && single.dist[keep..].iter().any(|d| d.0 == boundary) {
                        boundary_ties += 1;
                    }
                    // k past the kept set reads every record's distance.
                    let mut out = Vec::new();
                    let k = (keep + 3).min(60);
                    kernel.nearest(&single, k, &mut out);
                    assert_eq!(out, prom_ml::knn::k_nearest_flat(&flat, dim, query, k), "{case}");
                }
            }
        }
        assert!(boundary_ties > 0, "the fixture must put ties at a keep boundary");
    }

    #[test]
    fn nearest_reads_every_distance_when_k_exceeds_keep() {
        let kernel = tie_fixture(120, 2, 0.05); // keep = 6
        let mut scratch = JudgeScratch::new();
        let mut out = Vec::new();
        kernel.select(&[30.0, 30.01], &mut scratch);
        assert_eq!(scratch.selected.len(), 6);
        assert_eq!(scratch.dist.len(), 120, "the selection keeps every record's distance");
        // k = 10 > keep = 6 reads past the kept prefix and agrees with the
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
    fn replace_moves_a_record_into_a_small_fraction_selection() {
        let mut kernel = tie_fixture(120, 2, 0.1);
        // Move record 7 far away, next to the query: it must now be kept.
        kernel.replace(7, vec![500.0, 500.0], 0, &[0.3, 0.6]);
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
                    (0..full.n_experts()).map(|e| score_of(&full, i, e)).collect();
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
        assert_eq!(score_of(&kernel, 3, 0), 0.11);
        assert_eq!(score_of(&kernel, 3, 1), 0.22);
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
