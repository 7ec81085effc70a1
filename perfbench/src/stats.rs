//! Sample statistics shared by every workload: medians, quartiles, the
//! tail-percentile rule and the run-to-run spread.
//!
//! The quartile and median definitions are Python's
//! `statistics.quantiles(values, n=4)` (the default `exclusive` method)
//! and `statistics.median`, so a spread computed here equals the one a
//! reader computes from the printed results with the standard library.

/// Percentiles the tail rule may pick, highest first, in tenths of a
/// percent so ranks are computed in exact integer arithmetic.
const TAIL_LADDER_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a percentile must leave beyond it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as `statistics.median`: the middle sample, or the mean of the
/// two middle samples. `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The median of each non-empty group, averaged over those groups: a
/// median of samples drawn from several sources (CPUs) that weighs each
/// source equally, whatever its sample count. `None` when every group is
/// empty.
pub fn mean_of_medians(groups: &[Vec<f64>]) -> Option<f64> {
    let medians: Vec<f64> = groups.iter().filter_map(|g| median(g)).collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

/// Quartiles `[q1, q2, q3]` as `statistics.quantiles(values, n=4)`.
/// `None` with fewer than two samples (Python raises there).
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let (ld, n) = (len as i64, 4i64);
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
        (lo * (n - delta) as f64 + hi * delta as f64) / n as f64
    };
    Some([q(1), q(2), q(3)])
}

/// Run-to-run spread: the distance between the first and third quartile
/// as a share of the median. `None` with fewer than two samples or a
/// zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The highest percentile of [`TAIL_LADDER_PERMILLE`] that leaves at least ten
/// samples beyond it, with its nearest-rank value. Falls back to the
/// median (labelled 50) when fewer than twenty samples exist, since no
/// percentile then qualifies. `None` for an empty slice.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    for permille in TAIL_LADDER_PERMILLE {
        let rank = nearest_rank(permille, n);
        if n - rank >= TAIL_MIN_BEYOND {
            return Some((permille as f64 / 10.0, v[rank - 1]));
        }
    }
    Some((50.0, median(&v)?))
}

/// 1-based nearest rank of a percentile among `n` samples:
/// `ceil(permille · n / 1000)`, at least 1.
fn nearest_rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// A metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter
/// or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values from Python 3.11 `statistics.quantiles(d, n=4)`
    // and `statistics.median(d)`.
    #[test]
    fn quartiles_match_python_statistics() {
        let cases: [(&[f64], [f64; 3], f64); 5] = [
            (&[1.0, 2.0], [0.75, 1.5, 2.25], 1.5),
            (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0], 2.0),
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                [2.75, 5.5, 8.25],
                5.5,
            ),
            (
                &[5.5, 1.25, 9.0, 3.0, 7.75, 2.5, 4.0],
                [2.5, 4.0, 7.75],
                4.0,
            ),
            (&[10.0, 10.0, 10.0, 10.0], [10.0, 10.0, 10.0], 10.0),
        ];
        for (data, q, m) in cases {
            assert_eq!(quartiles(data), Some(q), "{data:?}");
            assert_eq!(median(data), Some(m), "{data:?}");
        }
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_of_medians_weighs_each_group_equally() {
        // Medians 2 and 10: the fast group's extra samples do not pull
        // the figure toward it.
        let groups = vec![vec![1.0, 2.0, 3.0, 2.0, 2.0], vec![10.0], vec![]];
        assert_eq!(mean_of_medians(&groups), Some(6.0));
        assert_eq!(mean_of_medians(&[vec![4.0, 6.0]]), Some(5.0));
        assert_eq!(mean_of_medians(&[vec![], vec![]]), None);
        assert_eq!(mean_of_medians(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(&[5.5, 1.25, 9.0, 3.0, 7.75, 2.5, 4.0]), Some(1.3125));
        assert_eq!(spread(&[10.0, 10.0, 10.0, 10.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(spread(&[4.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 leaves exactly 10 beyond it.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 leaves 9, so p95 (rank 950) is the tail.
        assert_eq!(tail(&ramp(999)), Some((95.0, 950.0)));
        // 10 000 samples: p99.9 leaves exactly 10.
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 20 samples: only the median leaves 10 beyond it.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // Fewer than 20: no percentile qualifies; the median stands in.
        assert_eq!(tail(&ramp(5)), Some((50.0, 3.0)));
        assert_eq!(tail(&[]), None);
        // Order of the input does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), Some((90.0, 90.0)));
    }

    #[test]
    fn names_and_units_follow_the_result_format() {
        for ok in ["setup_s", "core.conv1.host_stage_ms", "a", "9-x.y_z"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "q\"uote",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "uJ", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per image", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
