//! Order statistics of a run's per-op latencies.

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` of `sorted` (ascending), refused unless
/// at least [`MIN_BEYOND`] samples lie beyond it — so p90 needs at
/// least 100 samples.
pub fn percentile(sorted: &[f64], p: u32) -> Result<f64, String> {
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100).max(1);
    if n < rank || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it; {MIN_BEYOND} are needed",
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

/// The highest whole percentile of `n` samples with at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn highest_percentile(n: usize) -> Option<u32> {
    (1..100).rev().find(|&p| {
        n >= MIN_BEYOND && {
            let rank = (p as usize * n).div_ceil(100);
            n - rank >= MIN_BEYOND
        }
    })
}

/// Harrell–Davis estimate of quantile `p` (0 < p < 1) over a fixed,
/// fully enumerated set (the codesign sweep's design points): a
/// Beta-weighted mean of all order statistics. Every run measures the
/// same items, so a single order statistic would carry one item's noise;
/// the weighted mean spreads it over the items near the quantile.
pub fn harrell_davis(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    // Midpoint-rule integral of the Beta(a, b) density over each
    // order statistic's slice of [0, 1]; normalised below.
    const STEPS: usize = 256;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            (0..STEPS)
                .map(|k| {
                    let x = (i as f64 + (k as f64 + 0.5) / STEPS as f64) / n as f64;
                    x.powf(a - 1.0) * (1.0 - x).powf(b - 1.0)
                })
                .sum()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    weights.iter().zip(sorted).map(|(w, x)| w * x).sum::<f64>() / total
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(percentile(&ramp(100), 90), Ok(90.0));
        assert!(percentile(&ramp(99), 90).is_err());
        assert_eq!(percentile(&ramp(20), 50), Ok(10.0));
        assert!(percentile(&ramp(19), 50).is_err());
    }

    #[test]
    fn highest_percentile_keeps_ten_beyond() {
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(200), Some(95));
        assert_eq!(highest_percentile(1000), Some(99));
        assert_eq!(highest_percentile(50), Some(80));
        assert_eq!(highest_percentile(10), None);
        for n in 11..400 {
            let p = highest_percentile(n).unwrap();
            let sorted = ramp(n);
            assert!(percentile(&sorted, p).is_ok(), "n={n} p={p}");
            assert!(
                p == 99 || percentile(&sorted, p + 1).is_err(),
                "n={n} p={p}"
            );
        }
    }

    #[test]
    fn harrell_davis_weights_the_items_near_the_quantile() {
        let fifteen = ramp(15);
        assert!(
            (harrell_davis(&fifteen, 0.5) - 8.0).abs() < 1e-9,
            "symmetric"
        );
        let p90 = harrell_davis(&fifteen, 0.9);
        assert!(p90 > 13.0 && p90 < 15.0, "{p90}");
        assert!(
            (harrell_davis(&[5.0; 15], 0.9) - 5.0).abs() < 1e-9,
            "constant"
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
