//! # `prom-core` — the Prom conformal-prediction engine
//!
//! A Rust reproduction of **Prom** (*Enhancing Deployment-Time Predictive
//! Model Robustness for Code Analysis and Optimization*, CGO 2025): a
//! deployment-time wrapper that flags predictions of an already-trained ML
//! model that are likely to be wrong because the test input has *drifted*
//! away from the training distribution.
//!
//! ## How it works
//!
//! At design time, a slice of the training data is held out as a
//! **calibration set** ([`calibration::CalibrationRecord`]). For every
//! deployment-time prediction, Prom:
//!
//! 1. adaptively selects the calibration samples nearest to the test input
//!    in the model's embedding space and weights their nonconformity scores
//!    by `exp(-distance / tau)` (Eq. 1 of the paper);
//! 2. computes a **p-value** for every candidate label (Eq. 2) under each of
//!    several [`nonconformity`] functions (LAC, Top-K, APS, RAPS);
//! 3. derives a **credibility** score (the p-value of the predicted label)
//!    and a **confidence** score (a Gaussian of the prediction-set size);
//! 4. lets each nonconformity function vote accept/reject and takes the
//!    majority ([`committee`]).
//!
//! Regression models are supported by clustering the calibration set into
//! pseudo-classes (k-means + gap statistic) and approximating deployment
//! ground truth with a k-NN proxy ([`regression`]).
//!
//! ## Quick start
//!
//! ```
//! use prom_core::calibration::CalibrationRecord;
//! use prom_core::committee::PromConfig;
//! use prom_core::predictor::PromClassifier;
//!
//! // A 2-class toy calibration set: embeddings cluster around (0,0) for
//! // class 0 and (5,5) for class 1, with realistic confidence spread.
//! let mut records = Vec::new();
//! for i in 0..60 {
//!     let (label, base) = if i % 2 == 0 { (0, 0.0) } else { (1, 5.0) };
//!     let jitter = (i as f64 * 0.13).sin() * 0.3;
//!     let conf = 0.7 + 0.03 * ((i % 8) as f64);
//!     let probs = if label == 0 {
//!         vec![conf, 1.0 - conf]
//!     } else {
//!         vec![1.0 - conf, conf]
//!     };
//!     records.push(CalibrationRecord::new(
//!         vec![base + jitter, base - jitter],
//!         probs,
//!         label,
//!     ));
//! }
//! let prom = PromClassifier::new(records, PromConfig::default()).unwrap();
//!
//! // An in-distribution input is accepted…
//! let ok = prom.judge(&[0.1, -0.1], &[0.85, 0.15]);
//! assert!(ok.accepted);
//! // …while a far-away, low-confidence input is rejected as drifting.
//! let drifted = prom.judge(&[400.0, -400.0], &[0.55, 0.45]);
//! assert!(!drifted.accepted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assessment;
pub mod calibrated;
pub mod calibration;
pub mod committee;
pub mod detector;
pub mod incremental;
pub mod metrics;
pub mod nonconformity;
pub mod pipeline;
pub mod pool;
pub mod predictor;
pub mod pvalue;
pub mod regression;
pub mod scoring;
pub mod serving;
pub mod tuning;

pub use calibration::{CalibrationRecord, ReservoirCalibration};
pub use committee::{PromConfig, PromJudgement};
pub use detector::{DriftDetector, Judgement, Relabeled, Sample, Truth};
pub use metrics::{
    Counter, DetectionLagTracker, Gauge, Histogram, LatencyHistogram, LatencySummary,
    MetricsRegistry, MetricsSink, DETECTION_LAG_GAUGE, DETECTION_LAG_HELP,
};
pub use pipeline::{
    BudgetSharing, CalibrationPolicy, DeploymentPipeline, MultiPipeline, MultiReport,
    PipelineConfig, SelectionPolicy,
};
pub use pool::ShardPool;
pub use predictor::PromClassifier;
pub use regression::PromRegressor;
pub use serving::{ServingConfig, ServingFrontEnd, ServingHandle, ServingOutcome};

/// Errors produced when constructing or using a Prom predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PromError {
    /// The calibration set is empty or otherwise unusable.
    EmptyCalibration,
    /// Calibration records disagree on embedding or probability dimensions.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A configuration value is out of its legal range.
    InvalidConfig {
        /// Human-readable description of the offending parameter.
        detail: String,
    },
    /// A calibration record fails its own validation (empty or NaN
    /// embedding, out-of-range label, non-finite output or target).
    InvalidRecord {
        /// Human-readable description of the fault.
        detail: String,
    },
}

impl std::fmt::Display for PromError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromError::EmptyCalibration => write!(f, "calibration set is empty"),
            PromError::DimensionMismatch { detail } => {
                write!(f, "calibration dimension mismatch: {detail}")
            }
            PromError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
            PromError::InvalidRecord { detail } => {
                write!(f, "invalid calibration record: {detail}")
            }
        }
    }
}

impl std::error::Error for PromError {}
