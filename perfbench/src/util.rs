//! Small shared pieces: order statistics, report digests, seeded draws,
//! the host stamp, and the metric records every workload returns.

use std::time::Duration;

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`), 0 for an empty
/// slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median, over consecutive segments of `segment` values (a shorter
/// tail segment is dropped unless it is the only one), of each segment's
/// `q` percentile. A burst of interference then moves one segment's
/// figure instead of the whole run's.
pub fn segmented_percentile(values: &[f64], segment: usize, q: f64) -> f64 {
    let per_segment: Vec<f64> = values
        .chunks(segment.max(1))
        .filter(|c| c.len() == segment || values.len() < segment)
        .map(|c| percentile(c, q))
        .collect();
    median(&per_segment)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: a tiny seeded generator for the benchmark's own draws
/// (which windows to re-check, which pool sample a request carries).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_cafe_f00d_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over a stream of words: a report digest for same-seed and
/// replay comparisons.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn report(&mut self, r: &prom_core::pipeline::WindowReport) {
        self.word(r.index as u64);
        self.word(r.start as u64);
        for j in &r.judgements {
            self.word(u64::from(j.accepted));
            self.word(j.reject_votes as u64);
            self.word(j.n_experts as u64);
        }
        for list in [&r.flagged, &r.relabel] {
            self.word(list.len() as u64);
            for &i in list {
                self.word(i as u64);
            }
        }
        self.word(r.absorbed as u64);
        self.word(r.replaced as u64);
        self.word(r.calibration_size.map_or(u64::MAX, |n| n as u64));
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host a result was measured on, as a JSON object: results from
/// different hosts must never be compared.
pub fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"kernel\":{},\"profile\":\"{profile}\",\"arch\":\"{}\"}}",
        json_str(&cpu),
        json_str(&kernel),
        std::env::consts::ARCH
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Samples (requests) the measured loops attempted.
    pub attempted: u64,
    /// Attempts that failed (shed requests).
    pub failed: u64,
    /// The end-to-end metrics (the untraced run's contract).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (the traced run's contract).
    pub per_layer: Vec<Metric>,
    /// Workload-specific figures printed beside the contract metrics.
    pub extra: Vec<Metric>,
    /// Failed correctness checks; any entry fails the run.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}
