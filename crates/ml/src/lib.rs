//! # `prom-ml` — a from-scratch ML substrate for the Prom reproduction
//!
//! The Prom paper (CGO 2025) wraps *existing* supervised models built with
//! PyTorch / scikit-learn / TensorFlow. Since no mature Rust equivalents are
//! available offline, this crate implements the required substrate from
//! scratch:
//!
//! * dense linear algebra on [`matrix::Matrix`];
//! * classic models: [`linear::LogisticRegression`], [`svm::LinearSvm`],
//!   [`tree::DecisionTree`], [`boosting::GradientBoostingClassifier`] /
//!   [`boosting::GradientBoostingRegressor`], [`knn::KnnClassifier`] /
//!   [`knn::KnnRegressor`];
//! * small neural networks trained with hand-written backprop:
//!   [`mlp::Mlp`], [`lstm::Lstm`] (uni- and bidirectional),
//!   [`transformer::Transformer`] (a "mini-BERT" block), and
//!   [`gnn::Gnn`] for program graphs;
//! * [`cluster::KMeans`] and the gap statistic used by Prom's regression
//!   conformal predictor;
//! * dataset handling, metrics, and optimizers shared by all of the above.
//!
//! Everything is deterministic given a seed, uses `f64` throughout, and is
//! deliberately small: model quality only needs to be good enough that a
//! model trained on one data distribution is *accurate in-distribution and
//! degrades out-of-distribution* — the phenomenon Prom detects.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activations;
pub mod boosting;
pub mod cluster;
pub mod data;
pub mod gnn;
pub mod knn;
pub mod linear;
pub mod lstm;
pub mod matrix;
pub mod metrics;
pub mod mlp;
pub mod optim;
pub mod rng;
pub mod svm;
pub mod traits;
pub mod transformer;
pub mod tree;

pub use matrix::Matrix;
pub use traits::{Classifier, Regressor};
