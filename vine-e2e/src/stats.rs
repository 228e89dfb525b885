//! Order statistics over timing samples.

/// Percentiles the benchmark may report for a tail, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Samples a phase must collect so that p99 has ten samples beyond it.
pub const MIN_TAIL_SAMPLES: usize = 1000;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly above its rank.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n - nearest_rank(n, *p) >= TAIL_MIN_BEYOND)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // the epsilon keeps exact ranks such as 99.9% of 10,000 from rounding
    // up past their integer
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Percentile `p` of `samples` by nearest rank; sorts in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    samples[nearest_rank(samples.len(), p) - 1]
}

/// Median (the 50th percentile by nearest rank).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The p99 of a latency phase, refusing it when fewer samples than the
/// tail rule allows were taken.
pub fn p99(samples: &mut [f64]) -> Result<f64, String> {
    match tail_percentile(samples.len()) {
        Some(p) if p >= 99.0 => Ok(percentile(samples, 99.0)),
        _ => Err(format!(
            "{} latency samples cannot support p99 (need {MIN_TAIL_SAMPLES})",
            samples.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // the pick is the highest admissible one, with ten beyond it
        for n in 1..20_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - nearest_rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
                if let Some(higher) = TAIL_LADDER.iter().rev().find(|q| **q > p) {
                    assert!(n - nearest_rank(n, *higher) < TAIL_MIN_BEYOND, "n={n}");
                }
            }
        }
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(median(&mut v), 500.0);
        assert_eq!(p99(&mut v), Ok(990.0));
        let mut short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(p99(&mut short).is_err());
    }
}
