//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the printed values by any script.

/// Median, quartiles and sample count of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        let median = median_sorted(&sorted)?;
        let (q1, q3) = match quartiles_sorted(&sorted) {
            Some([q1, _, q3]) => (q1, q3),
            None => (median, median),
        };
        Some(Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(s: &[f64]) -> Option<f64> {
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The median of `samples` (mean of the middle two for an even count).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    median_sorted(&sorted(samples))
}

/// The three cut points of `statistics.quantiles(samples, n=4)`;
/// `None` for fewer than two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    quartiles_sorted(&sorted(samples))
}

fn quartiles_sorted(s: &[f64]) -> Option<[f64; 3]> {
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Whether the `pct`-th percentile of `n` pooled samples has at least
/// ten samples beyond it — the condition for reporting it at all.
#[must_use]
pub fn tail_resolved(n: usize, pct: u32) -> bool {
    n * (100 - pct.min(100) as usize) / 100 >= 10
}

/// The `pct`-th percentile by the same exclusive interpolation as
/// [`quartiles`]: position `pct/100 · (n + 1)`, clamped to the sample
/// range. `None` for no samples.
#[must_use]
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        1 => Some(s[0]),
        _ => {
            let h = f64::from(pct) / 100.0 * (n + 1) as f64;
            let h = h.clamp(1.0, n as f64);
            let lo = h.floor() as usize;
            if lo >= n {
                return Some(s[n - 1]);
            }
            let frac = h - lo as f64;
            Some(s[lo - 1] + (s[lo] - s[lo - 1]) * frac)
        }
    }
}
