//! Order statistics: percentiles of latency samples, medians over
//! segments, and the quartile spread the acceptance rule is stated in.

/// Nearest-rank-on-a-line percentile of an ascending-sorted slice, with
/// linear interpolation between neighbours so a timing keeps its digits.
/// Empty input has no percentile; callers gate on sample counts first.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// acceptance rule for this benchmark is written in those terms, so the
/// benchmark's own spread must be the same statistic. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The quartile on the better side of `values`: the third for a quantity
/// where higher is better, the first where lower is. Interference on a
/// shared box only ever slows a segment down — a neighbour's burst, a busy
/// disk — so what the system itself does is estimated by a good segment,
/// not the middle one; a quartile rather than the extreme, so that one
/// lucky segment does not set the value either. A run reads clean as long
/// as a good third of its segments are.
pub fn better_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    percentile(&sorted(values), if higher_is_better { 75.0 } else { 25.0 })
}

/// Inter-quartile distance as a share of the median (0 when it cannot be
/// formed: fewer than two values or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1).abs() / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!((percentile(&v, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile(&v, 95.0) - 95.05).abs() < 1e-9);
    }

    #[test]
    fn median_of_segments_is_order_free() {
        assert_eq!(median(&[5200.0, 4800.0, 5000.0]), 5000.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow segment must not move the reported value.
        assert_eq!(median(&[5000.0, 5010.0, 2000.0, 5020.0, 4990.0]), 5000.0);
    }

    #[test]
    fn better_quartile_shrugs_off_slow_segments_and_one_lucky_one() {
        // Eight segments, five of them slowed by a neighbour, one lucky.
        let tps = [
            9_000.0, 8_800.0, 11_000.0, 11_100.0, 8_500.0, 9_100.0, 12_500.0, 8_900.0,
        ];
        let got = better_quartile(&tps, true);
        assert!((10_000.0..11_100.0).contains(&got), "{got}");
        assert_eq!(median(&tps), 9_050.0);
        let p50 = [200.0, 160.0, 161.0, 205.0, 210.0, 120.0, 207.0, 202.0];
        let got = better_quartile(&p50, false);
        assert!((160.0..=180.0).contains(&got), "{got}");
        assert_eq!(better_quartile(&[5.0], true), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[40.0, 10.0, 80.0, 20.0]), Some((12.5, 70.0)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[3.0]), None);
        assert!((spread(&[40.0, 10.0, 80.0, 20.0]) - 57.5 / 30.0).abs() < 1e-12);
    }
}
