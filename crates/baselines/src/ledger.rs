//! [`Ledgered`]: the one core behind the single-function baselines.
//!
//! `NaiveCp`, `Tesseract` and `Rise` all judge against one LAC
//! [`ScoreTable`] and run the same online-calibration lifecycle as Prom:
//! absorb, reservoir replacement, base eviction, snapshot/restore. They
//! differ only in the judge and the frozen design-time artifact it reads
//! (ε, per-class thresholds, or a trained SVM); [`BaselineKind`] holds
//! exactly that. Everything else lives here once: the relabel → entry
//! rule, every lifecycle body and the shared snapshot checks.
//!
//! The table only holds per-label `(label, score)` multisets — the sorted
//! buckets forget which entry came from which record. Base eviction and
//! snapshot/restore both need that provenance back, so the core carries
//! two ledgers: the design-time **base** entries still live (oldest
//! first) and the online **absorbed** entries in absorb order. The live
//! table is always exactly the multiset `base ++ absorbed`, which is what
//! makes a ledger-driven rebuild ([`ScoreTable::new`]) bit-identical to the
//! incrementally grown original, and an oldest-base removal bit-identical
//! to a from-scratch fit on the surviving window.

use prom_core::calibration::CalibrationRecord;
use prom_core::detector::{DriftDetector, Judgement, Relabeled, Sample, Truth};
use prom_core::nonconformity::{Lac, Nonconformity};
use prom_core::scoring::{JudgeScratch, ScoreTable};
use serde::{DeError, Value};

/// One ledgered calibration entry: `(label, LAC score)`.
pub type Entry = (usize, f64);

/// The part of every baseline snapshot the core owns: the kind's tag, the
/// table's label count and both ledgers.
pub struct Ledger {
    /// The snapshot's `detector` tag.
    pub detector: String,
    /// Labels in the score table.
    pub n_labels: usize,
    /// The live design-time entries, oldest first.
    pub base: Vec<Entry>,
    /// The online entries, in absorb order.
    pub absorbed: Vec<Entry>,
}

/// What differs between the baselines. [`Ledgered`] takes it as a type
/// parameter, so every call into it is dispatched statically.
pub trait BaselineKind: Send + Sync + Sized {
    /// Display name for reports.
    const NAME: &'static str;

    /// The `detector` tag of this kind's snapshots.
    const SNAPSHOT_TAG: &'static str;

    /// Whether to reject a prediction with model outputs `outputs`, judged
    /// against the live `table`. `scratch` holds reusable buffers for
    /// kinds that need them; it carries nothing between calls.
    fn rejects(&self, table: &ScoreTable, outputs: &[f64], scratch: &mut JudgeScratch) -> bool;

    /// The kind's snapshot: `ledger` plus the frozen artifact, in the
    /// kind's own field order (the order is the format).
    fn snapshot(&self, ledger: Ledger) -> Value;

    /// Parses a snapshot into its ledger and the frozen artifact, checking
    /// the artifact; the core checks the ledger.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] on a snapshot of another shape or an invalid
    /// artifact.
    fn restore(state: &Value) -> Result<(Ledger, Self), DeError>;
}

/// A single-function conformal baseline: the live LAC score table, its
/// base and absorbed ledgers, and the kind-specific judge `K`.
pub struct Ledgered<K: BaselineKind> {
    kind: K,
    table: ScoreTable,
    /// `(label, score)` of each design-time base record still live, oldest
    /// first — shrunk from the front by `evict_oldest_base`. The online
    /// reservoir never evicts these, so the live base length is the slot
    /// offset for `replace_record`.
    base: Vec<Entry>,
    /// `(label, score)` of each record absorbed online, in absorb order —
    /// the bookkeeping `replace_record` needs to evict a reservoir slot
    /// from the pre-sorted table.
    absorbed: Vec<Entry>,
}

impl<K: BaselineKind> Ledgered<K> {
    /// Scores `records` into the base ledger and a table of at least
    /// `min_labels` labels — bit-identical to `ScoreTable::from_records`
    /// under LAC — then fits the kind against that table.
    pub(crate) fn build(
        records: &[CalibrationRecord],
        min_labels: usize,
        fit: impl FnOnce(&ScoreTable) -> K,
    ) -> Self {
        let base: Vec<Entry> =
            records.iter().map(|r| (r.label, Lac.score(&r.probs, r.label))).collect();
        let n_labels = base.iter().map(|&(label, _)| label + 1).fold(min_labels, usize::max);
        let table = rebuild_table(&base, &[], n_labels);
        Self { kind: fit(&table), table, base, absorbed: Vec::new() }
    }

    /// The kind-specific part.
    pub(crate) fn kind(&self) -> &K {
        &self.kind
    }

    /// Borrows the live conformal score table (the incremental-equivalence
    /// tests compare it bit-for-bit against a from-scratch refit). Its
    /// `n_labels()` is the output length every judged sample should have.
    pub fn score_table(&self) -> &ScoreTable {
        &self.table
    }

    /// The one entry rule: `(label, LAC score)` when `label` is in range
    /// of both the outputs and the table, the embedding is NaN-free and
    /// the score is not NaN.
    pub(crate) fn entry(&self, label: usize, outputs: &[f64], embedding: &[f64]) -> Option<Entry> {
        if label >= outputs.len()
            || label >= self.table.n_labels()
            || embedding.iter().any(|v| v.is_nan())
        {
            return None;
        }
        let score = Lac.score(outputs, label);
        (!score.is_nan()).then_some((label, score))
    }

    /// The entry of a relabel with a class-label truth.
    fn relabeled_entry(&self, r: &Relabeled) -> Option<Entry> {
        let Truth::Label(label) = r.truth else {
            return None;
        };
        self.entry(label, &r.sample.outputs, &r.sample.embedding)
    }

    /// Grows the table and the absorbed ledger by `entry`, if any.
    pub(crate) fn absorb(&mut self, entry: Option<Entry>) -> bool {
        let Some((label, score)) = entry else {
            return false;
        };
        self.table.insert(label, score);
        self.absorbed.push((label, score));
        true
    }
}

/// Validates snapshot ledger entries against a table shape: every label in
/// range, every score NaN-free ([`ScoreTable::new`] would panic on either,
/// and a corrupt snapshot must error, not panic).
fn validate_entries(which: &str, entries: &[Entry], n_labels: usize) -> Result<(), DeError> {
    for (i, &(label, score)) in entries.iter().enumerate() {
        if label >= n_labels {
            return Err(DeError::custom(format!(
                "snapshot {which} entry {i} has label {label}, table holds {n_labels} labels"
            )));
        }
        if score.is_nan() {
            return Err(DeError::custom(format!("snapshot {which} entry {i} has a NaN score")));
        }
    }
    Ok(())
}

/// Rebuilds the live score table from its ledgers: the sorted multiset of
/// `base ++ absorbed`, bit-identical to the incrementally grown original
/// (inserts and removals preserve sorted-multiset equality with a rebuild;
/// `tests/recalibration_equivalence.rs`).
fn rebuild_table(base: &[Entry], absorbed: &[Entry], n_labels: usize) -> ScoreTable {
    let labels: Vec<usize> = base.iter().chain(absorbed).map(|&(label, _)| label).collect();
    let scores: Vec<f64> = base.iter().chain(absorbed).map(|&(_, score)| score).collect();
    ScoreTable::new(&labels, &scores, n_labels)
}

impl<K: BaselineKind> DriftDetector for Ledgered<K> {
    fn name(&self) -> &'static str {
        K::NAME
    }

    fn judge_one(&self, _embedding: &[f64], outputs: &[f64]) -> Judgement {
        Judgement::single(self.kind.rejects(&self.table, outputs, &mut JudgeScratch::new()))
    }

    fn judge_batch(&self, samples: &[Sample]) -> Vec<Judgement> {
        self.judge_batch_scratch(samples, &mut JudgeScratch::new())
    }

    /// Pool entry point: the shard's reused scratch carries the kind's
    /// buffers across windows. Bit-identical to `judge_batch`.
    fn judge_batch_scratch(
        &self,
        samples: &[Sample],
        scratch: &mut JudgeScratch,
    ) -> Vec<Judgement> {
        samples
            .iter()
            .map(|s| Judgement::single(self.kind.rejects(&self.table, &s.outputs, scratch)))
            .collect()
    }

    fn calibration_size(&self) -> Option<usize> {
        Some(self.table.len())
    }

    fn can_absorb(&self, r: &Relabeled) -> bool {
        self.relabeled_entry(r).is_some()
    }

    /// Incremental override: each valid relabel grows the pre-sorted table
    /// in place via [`ScoreTable::insert`] — bit-identical to a refit over
    /// the same records — and is ledgered so the reservoir's eviction path
    /// ([`DriftDetector::replace_record`]) can find it later.
    fn absorb_relabeled(&mut self, batch: &[Relabeled]) -> usize {
        batch.iter().filter(|r| self.absorb(self.relabeled_entry(r))).count()
    }

    /// Evicts the online record at `index` (indices below the design-time
    /// base are never evicted) and inserts `r` in its slot: one
    /// binary-search removal plus one binary-search insert.
    fn replace_record(&mut self, index: usize, r: &Relabeled) -> bool {
        let Some(slot) = index.checked_sub(self.base.len()).filter(|&s| s < self.absorbed.len())
        else {
            return false;
        };
        let Some((label, score)) = self.relabeled_entry(r) else {
            return false;
        };
        let (old_label, old_score) = std::mem::replace(&mut self.absorbed[slot], (label, score));
        let removed = self.table.remove(old_label, old_score);
        debug_assert!(removed, "absorbed ledger must track the live table");
        self.table.insert(label, score);
        true
    }

    fn base_len(&self) -> Option<usize> {
        Some(self.base.len())
    }

    /// Retires the oldest base entry from both the ledger and the live
    /// table. Refuses when no base entries remain or eviction would empty
    /// the table (a detector must always have at least one calibration
    /// score to judge against).
    fn evict_oldest_base(&mut self) -> bool {
        if self.base.is_empty() || self.table.len() <= 1 {
            return false;
        }
        let (label, score) = self.base.remove(0);
        let removed = self.table.remove(label, score);
        debug_assert!(removed, "base ledger must track the live table");
        true
    }

    fn snapshot_state(&self) -> Option<Value> {
        Some(self.kind.snapshot(Ledger {
            detector: K::SNAPSHOT_TAG.to_string(),
            n_labels: self.table.n_labels(),
            base: self.base.clone(),
            absorbed: self.absorbed.clone(),
        }))
    }

    /// Checks the kind's artifact, then the shared part — tag, label
    /// count, non-empty, every entry — before anything changes, and
    /// rebuilds the table from the ledgers.
    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let (ledger, kind) = K::restore(state)?;
        if ledger.detector != K::SNAPSHOT_TAG {
            return Err(DeError::custom(format!(
                "snapshot is for detector kind {:?}, expected {:?}",
                ledger.detector,
                K::SNAPSHOT_TAG
            )));
        }
        if ledger.n_labels != self.table.n_labels() {
            return Err(DeError::custom(format!(
                "snapshot has {} labels, detector has {}",
                ledger.n_labels,
                self.table.n_labels()
            )));
        }
        if ledger.base.is_empty() && ledger.absorbed.is_empty() {
            return Err(DeError::custom("snapshot has no calibration entries"));
        }
        validate_entries("base", &ledger.base, ledger.n_labels)?;
        validate_entries("absorbed", &ledger.absorbed, ledger.n_labels)?;
        self.table = rebuild_table(&ledger.base, &ledger.absorbed, ledger.n_labels);
        self.kind = kind;
        self.base = ledger.base;
        self.absorbed = ledger.absorbed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tesseract::LabeledOutcome;
    use crate::{NaiveCp, Rise, Tesseract};
    use prom_core::pool::ShardPool;

    fn records() -> Vec<CalibrationRecord> {
        (0..40)
            .map(|i| {
                let label = i % 2;
                let conf = 0.65 + 0.3 * ((i * 7 % 13) as f64 / 13.0);
                let probs =
                    if label == 0 { vec![conf, 1.0 - conf] } else { vec![1.0 - conf, conf] };
                CalibrationRecord::new(vec![i as f64], probs, label)
            })
            .collect()
    }

    fn validation() -> Vec<LabeledOutcome> {
        (0..40)
            .map(|i| {
                let conf = 0.65 + 0.3 * ((i * 5 % 11) as f64 / 11.0);
                let probs = if i % 2 == 0 { vec![conf, 1.0 - conf] } else { vec![0.52, 0.48] };
                LabeledOutcome { probs, correct: i % 2 == 0 }
            })
            .collect()
    }

    #[test]
    fn samples_of_the_wrong_output_length_get_a_verdict_on_every_judge_path() {
        let detectors: [Box<dyn DriftDetector>; 3] = [
            Box::new(NaiveCp::new(&records(), 0.1)),
            Box::new(Tesseract::fit(&records(), &validation(), 2)),
            Box::new(Rise::fit(&records(), &validation(), 0.1)),
        ];
        // The tables hold two labels; these samples carry three outputs
        // (the argmax past the table too) and one.
        let samples = vec![
            Sample::new(vec![0.0], vec![0.9, 0.1]),
            Sample::new(vec![0.0], vec![0.5, 0.3, 0.2]),
            Sample::new(vec![0.0], vec![0.1, 0.2, 0.7]),
            Sample::new(vec![0.0], vec![1.0]),
        ];
        let pool = ShardPool::new(2);
        for detector in &detectors {
            let looped: Vec<Judgement> =
                samples.iter().map(|s| detector.judge_one(&s.embedding, &s.outputs)).collect();
            assert_eq!(detector.judge_batch(&samples), looped, "{}", detector.name());
            let pooled =
                pool.map(&samples, |shard, scratch| detector.judge_batch_scratch(shard, scratch));
            assert_eq!(pooled, looped, "{}", detector.name());
            if detector.name() == "RISE" {
                assert!(
                    looped[1..].iter().all(|j| !j.accepted),
                    "RISE rejects what it cannot score"
                );
            }
        }
    }
}
