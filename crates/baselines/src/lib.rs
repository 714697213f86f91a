//! # `prom-baselines` — drift-detection baselines for the Fig. 10 comparison
//!
//! The Prom paper compares against three families of prior work:
//!
//! * [`naive_cp::NaiveCp`] — a plain split-conformal detector in the style
//!   of the MAPIE and PUNCC libraries: full calibration set, a single LAC
//!   nonconformity function, no distance weighting, reject when the p-value
//!   of the predicted label falls below ε.
//! * [`tesseract::Tesseract`] — a TESSERACT-style conformal evaluator
//!   (Pendlebury et al., USENIX Security '19): single nonconformity
//!   function with **per-class rejection thresholds** tuned on a validation
//!   split to maximize misprediction-detection F1.
//! * [`rise::Rise`] — a RISE-style detector (Zhai et al., MobiCom '21):
//!   credibility/confidence scores from a single nonconformity function feed
//!   a **trained SVM** that classifies predictions as trustworthy or not.
//!
//! All three are one generic type, [`ledger::Ledgered`], over the part
//! that differs ([`ledger::BaselineKind`]: the name, the judge and the
//! frozen artifact — ε, the thresholds or the SVM). The core owns the
//! [`prom_core::scoring::ScoreTable`], the per-label LAC score table
//! pre-sorted at construction (so every full-set p-value is a binary search
//! rather than a linear scan), with its base and absorbed ledgers, and
//! implements [`prom_core::detector::DriftDetector`] once — the same
//! deployment interface as Prom itself, with the same online-calibration
//! lifecycle (absorb, reservoir replacement, base eviction,
//! snapshot/restore).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod ledger;
pub mod naive_cp;
pub mod rise;
pub mod tesseract;

// The deployment interface lived here before it was promoted into
// `prom_core` as the workspace-wide detector API; re-exported for
// compatibility and convenience.
pub use prom_core::detector::{DriftDetector, Judgement, Sample};

pub use naive_cp::NaiveCp;
pub use rise::Rise;
pub use tesseract::Tesseract;

/// LAC credibility shared by the single-function baselines: the p-value of
/// `predicted` under the full-calibration-set score table. A label never
/// seen in calibration offers no evidence of conformity (p = 0).
pub(crate) fn lac_credibility(
    table: &prom_core::scoring::ScoreTable,
    probs: &[f64],
    predicted: usize,
) -> f64 {
    use prom_core::nonconformity::{Lac, Nonconformity};
    table.p_value(predicted, Lac.score(probs, predicted))
}
