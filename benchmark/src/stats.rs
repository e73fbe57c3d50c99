//! Order statistics over timing samples, always paired with the sample
//! count they rest on.

use std::time::Instant;

/// The median of `samples` (mean of the two middle values for an even
/// count) and the sample count; `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    let value = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    Some((value, sorted.len()))
}

/// The `p`-th percentile (nearest rank, `0 < p <= 100`) and how many
/// samples lie strictly beyond it — a tail percentile only means
/// something with enough samples past it, so the count travels with it.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let index = rank.clamp(1, sorted.len()) - 1;
    Some((sorted[index], sorted.len() - 1 - index))
}

/// Distance between the first and third quartile as a share of the
/// median, computed the way Python's `statistics.quantiles(v, n=4)`
/// does (exclusive method) — the spread `compare` prints.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |k: usize| {
        // position k·(n+1)/4 on a 1-based scale, linearly interpolated
        let scaled = k * (n + 1);
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = scaled as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    let (med, _) = median(&sorted)?;
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med)
}

/// Call `f` repeatedly for about `budget_s` seconds (at least 3 calls)
/// and return the median seconds per call with the call count. Used by
/// the kernel probes.
pub fn time_calls(budget_s: f64, mut f: impl FnMut()) -> (f64, usize) {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples).expect("at least three samples")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_reports_value_and_count() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some((3.0, 1)));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some((3.0, 3)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some((2.5, 4)));
    }

    #[test]
    fn percentile_counts_the_samples_beyond_it() {
        let samples: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Some((108.0, 12)));
        assert_eq!(percentile(&samples, 100.0), Some((120.0, 0)));
        assert_eq!(percentile(&[7.0], 90.0), Some((7.0, 0)));
        assert_eq!(percentile(&[], 90.0), None);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&samples).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[1.0]), None);
    }

    #[test]
    fn time_calls_runs_at_least_three_times() {
        let mut calls = 0;
        let (_, n) = time_calls(0.0, || calls += 1);
        assert_eq!((calls, n), (3, 3));
    }
}
