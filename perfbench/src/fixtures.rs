//! Seeded workload inputs. Everything here runs before timing starts; the
//! same seed always yields the same inputs.

use prom_core::calibration::CalibrationRecord;
use prom_core::detector::Sample;
use prom_core::PromConfig;
use prom_eval::drift::{
    synthetic_base, DriftPhase, DriftScenario, DriftStream, Schedule, ShiftKind,
};

/// Classes of the synthetic fixture.
const CLASSES: usize = 8;

/// A synthetic calibration set plus an annotated drifting stream over it.
pub struct DriftCase {
    pub records: Vec<CalibrationRecord>,
    pub stream: DriftStream,
    pub phase: DriftPhase,
    pub config: PromConfig,
}

/// Shape of a [`DriftCase`].
pub struct DriftShape {
    pub dim: usize,
    pub per_class: usize,
    /// Stream length in samples.
    pub len: usize,
    /// Period of the recurring translation (half of each period drifts).
    pub period: usize,
    /// Translation size in per-dimension standard deviations.
    pub magnitude: f64,
    /// Eq. 1 temperature, set at the fixture's distance scale.
    pub tau: f64,
}

/// The calibration set and base pool are the deployed system, the same
/// for every run (as the fitted model of `serve-casemix` is); the seed
/// draws the drift: its direction and per-sample draws.
const BASE_SEED: u64 = 0;

/// `synthetic_base` calibration records plus a recurring `Translate`
/// stream, drawn from `seed`, cycled over the matching base pool.
pub fn drift_case(shape: &DriftShape, seed: u64) -> DriftCase {
    let (base, records) = synthetic_base(CLASSES, shape.dim, shape.per_class, BASE_SEED);
    let phase = DriftPhase {
        kind: ShiftKind::Translate,
        schedule: Schedule::Recurring { period: shape.period, duty: 0.5 },
        magnitude: shape.magnitude,
    };
    let stream = DriftScenario { phases: vec![phase], seed }.generate(&base, shape.len);
    DriftCase {
        records,
        stream,
        phase,
        config: PromConfig { tau: shape.tau, ..PromConfig::default() },
    }
}

/// Labelled picks `(sample, label)` taken from a stream by global index.
pub fn picks_from(
    indices: impl IntoIterator<Item = usize>,
    samples: &[Sample],
    labels: &[usize],
) -> Vec<(Sample, usize)> {
    indices.into_iter().map(|i| (samples[i].clone(), labels[i])).collect()
}
