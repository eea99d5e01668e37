//! Sample statistics the benchmark reports.

/// Samples that must lie beyond a reported percentile. A percentile with
/// fewer samples past it describes a handful of ops, not a tail.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in `0..1`) of `samples`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it.
///
/// The nearest-rank value is the `ceil(p * n)`-th smallest sample, so
/// `n - ceil(p * n)` samples lie beyond it: p90 needs 100 samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Fewest samples for which [`percentile`] reports `p`.
#[cfg(test)]
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0.0; n], p).is_some())
        .unwrap()
}

/// Median of `samples` (mean of the middle pair for even counts); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // 100 samples: the 90th is reported and 10 lie beyond it.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(1000), 0.9), Some(900.0));
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let mut v: Vec<f64> = (1..=200).map(|x| x as f64).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
