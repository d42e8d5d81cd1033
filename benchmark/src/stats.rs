//! Medians, the tail-percentile rule, and the quartile spread the
//! acceptance check uses.

/// Median of `values` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller reports a measured section,
/// and an empty one is a bug in the benchmark, not a result.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * p / 100.0).round() as usize]
}

/// The percentiles a report may name, highest first, each with the
/// share of the sample that lies beyond it in parts per thousand
/// (integers, so "exactly ten beyond" is decided exactly).
const TAIL_CANDIDATES: [(f64, usize); 4] = [(99.9, 1), (99.0, 10), (90.0, 100), (50.0, 500)];

/// A tail latency with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile this is (50, 90, 99 or 99.9).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// The highest percentile with at least ten samples beyond it — the
/// only tail a sample of this size supports. Falls back to the median
/// for fewer than twenty samples.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let supported = TAIL_CANDIDATES
        .into_iter()
        .find(|(_, beyond_per_mille)| n * beyond_per_mille >= 10_000)
        .map_or(50.0, |(p, _)| p);
    Tail {
        percentile: supported,
        value: percentile(values, supported),
        samples: n,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method) — the acceptance check is stated in those
/// terms, so the arithmetic is reproduced rather than approximated.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}
