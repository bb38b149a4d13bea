//! Exact order statistics. Every reported timing is a value that was
//! measured, not a histogram bucket, so two runs never read the same by
//! construction of the arithmetic.

/// Nearest-rank quantile of an ascending slice: the smallest element with
/// at least `q` of the samples at or below it.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns its nearest-rank quantile.
pub fn quantile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    quantile(samples, q)
}

/// Median of a small set of floats (mean of the middle pair when even).
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

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), so `compare` judges spread exactly as the PR driver does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: sort, then count how many samples lie at or below.
    fn oracle(samples: &[u64], q: f64) -> u64 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        *s.iter()
            .find(|&&x| s.iter().filter(|&&y| y <= x).count() as f64 >= q * s.len() as f64)
            .unwrap()
    }

    #[test]
    fn quantile_matches_sorted_vector_oracle() {
        let mut state = 7u64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let samples: Vec<u64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 40
                })
                .collect();
            for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    quantile_of(&mut samples.clone(), q),
                    oracle(&samples, q),
                    "n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
