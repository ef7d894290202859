//! The benchmark's statistics: medians, quartiles, guarded
//! percentiles, and the ABBA paired ratio.

/// Median of `v` (mean of the middle two for even lengths); `None` when
/// empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the "exclusive" method — the
/// same cut points as Python's `statistics.quantiles(v, n=4)`. Needs
/// at least two values.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 100) by nearest rank, refused
/// (`None`) unless at least [`MIN_BEYOND`] samples lie beyond it — a
/// tail read off fewer points is noise.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

/// The ABBA paired ratio of `b` over `a`.
///
/// `rounds[r]` holds the per-op cost of `a` and of `b` in round `r`;
/// rounds alternate the order in which the configurations ran (A then
/// B, then B then A, …). Each consecutive pair of rounds gives one
/// ratio of summed costs, in which a linear drift of the host cancels;
/// the result is the median of those ratios. `None` with fewer than two
/// rounds or a zero denominator.
pub fn abba_ratio(rounds: &[(f64, f64)]) -> Option<f64> {
    median(&abba_pair_ratios(rounds))
}

/// The per-pair ratios [`abba_ratio`] takes the median of.
pub fn abba_pair_ratios(rounds: &[(f64, f64)]) -> Vec<f64> {
    rounds
        .chunks_exact(2)
        .filter_map(|p| {
            let a = p[0].0 + p[1].0;
            let b = p[0].1 + p[1].1;
            (a > 0.0).then(|| b / a)
        })
        .collect()
}

/// The ABBA paired difference `b - a` (median over round pairs of the
/// pair means), the marginal cost of one ladder rung over the rung
/// below it.
pub fn abba_diff(rounds: &[(f64, f64)]) -> Option<f64> {
    let diffs: Vec<f64> = rounds
        .chunks_exact(2)
        .map(|p| (p[0].1 + p[1].1 - p[0].0 - p[1].0) / 2.0)
        .collect();
    median(&diffs)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond it.
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // p99 would leave one: refused.
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v[..15], 50.0), None, "8 ranks up, 7 beyond");
    }

    /// Per-op costs of A and B over rounds run A B | B A | …, where the
    /// cost in time slot `s` is `drift(s, base)`.
    fn abba_rounds(n: u32, drift: impl Fn(u32, f64) -> f64) -> Vec<(f64, f64)> {
        (0..n)
            .map(|r| {
                let (a, b) = if r % 2 == 0 {
                    (2 * r, 2 * r + 1)
                } else {
                    (2 * r + 1, 2 * r)
                };
                (drift(a, 100.0), drift(b, 150.0))
            })
            .collect()
    }

    #[test]
    fn abba_ratio_cancels_linear_drift() {
        // The host slows by 5% of the base cost per slot.
        let rounds = abba_rounds(4, |slot, base| base * (1.0 + 0.05 * f64::from(slot)));
        let naive = rounds[0].1 / rounds[0].0;
        assert!(
            (naive - 1.5).abs() > 0.05,
            "one round alone is biased: {naive}"
        );
        let paired = abba_ratio(&rounds).unwrap();
        assert!((paired - 1.5).abs() < 1e-9, "{paired}");
        assert_eq!(abba_ratio(&rounds[..1]), None);
        assert_eq!(abba_ratio(&[(0.0, 1.0), (0.0, 1.0)]), None);
    }

    #[test]
    fn abba_diff_cancels_additive_drift() {
        let rounds = abba_rounds(6, |slot, base| base + 10.0 * f64::from(slot));
        assert_eq!(abba_diff(&rounds), Some(50.0));
    }

    #[test]
    fn abba_ratio_takes_median_over_pairs() {
        let rounds = [
            (1.0, 2.0),
            (1.0, 2.0),
            (1.0, 3.0),
            (1.0, 3.0),
            (1.0, 10.0),
            (1.0, 10.0),
        ];
        assert_eq!(abba_ratio(&rounds), Some(3.0));
    }
}
