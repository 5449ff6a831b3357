//! The benchmark's own arithmetic: order statistics, self time, and units.
//!
//! Kept free of any program type so the rules the reports rest on are
//! tested on their own (`cargo test --manifest-path perfbench/Cargo.toml`).

/// Fewest samples that must lie beyond a named percentile before it may be
/// reported: a tail estimated from fewer points is noise.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count); `None`
/// when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie strictly above its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The `q`-quantile when the sample leaves [`MIN_BEYOND`] points beyond
/// it; otherwise the highest of p95, p90, p75 and the median that does
/// (noted on stderr), so a short run never reports an unsupported tail.
pub fn tail(samples: &[f64], q: f64) -> f64 {
    for p in [q, 0.95, 0.90, 0.75] {
        if let Some(v) = percentile(samples, p) {
            if p != q {
                eprintln!(
                    "note: {} samples support only p{:.0}",
                    samples.len(),
                    p * 100.0
                );
            }
            return v;
        }
    }
    median(samples).unwrap_or(0.0)
}

/// The lower quartile of `stat` over `n` equal consecutive slices of
/// `samples` (the best slice when `n < 4`, the whole sample when `n == 1`):
/// a burst of CPU stolen by a neighbour on a shared host moves only the
/// slices it hit, and no single lucky slice decides the figure.
pub fn low_slice(samples: &[f64], n: usize, stat: impl Fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let len = samples.len() / n.max(1);
    if len == 0 {
        return None;
    }
    let mut per_slice: Vec<f64> = (0..n)
        .filter_map(|i| stat(&samples[i * len..(i + 1) * len]))
        .collect();
    per_slice.sort_by(f64::total_cmp);
    per_slice.get(per_slice.len() / 4).copied()
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Mean of the last quarter of `series` over the mean of its first quarter:
/// how an operation's cost moves as the stream it feeds ages.
pub fn age_ratio(series: &[f64]) -> Option<f64> {
    let q = series.len() / 4;
    if q == 0 {
        return None;
    }
    let first = mean(&series[..q])?;
    let last = mean(&series[series.len() - q..])?;
    (first > 0.0).then(|| last / first)
}

/// A parent span split into its children and its own remainder.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfSplit {
    /// Parent time not covered by any child; never negative.
    pub self_time: f64,
    /// Child times, scaled down together when they overlap or run in
    /// parallel so that their sum never exceeds the parent.
    pub children: Vec<f64>,
}

/// Splits `parent` into `children` plus self time. Child durations come
/// from obs histogram deltas, which can nest inside one another or run on
/// several pool threads at once; when they sum past the parent they are
/// scaled by a common factor, so shares stay comparable and self time is
/// zero rather than negative.
pub fn self_split(parent: f64, children: &[f64]) -> SelfSplit {
    let parent = parent.max(0.0);
    let kids: Vec<f64> = children.iter().map(|c| c.max(0.0)).collect();
    let sum: f64 = kids.iter().sum();
    if sum <= parent {
        return SelfSplit {
            self_time: parent - sum,
            children: kids,
        };
    }
    let scale = parent / sum;
    SelfSplit {
        self_time: 0.0,
        children: kids.iter().map(|c| c * scale).collect(),
    }
}

/// Megabytes (10⁶ bytes) per second.
pub fn mb_per_s(bytes: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        bytes / 1e6 / seconds
    } else {
        0.0
    }
}

/// `total` spread over `rounds` (0 when no round ran).
pub fn per_round(total: f64, rounds: f64) -> f64 {
    if rounds > 0.0 {
        total / rounds
    } else {
        0.0
    }
}

/// Nanoseconds to milliseconds.
pub fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so the helpers must sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly 10 above rank 990.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // One sample fewer leaves only 9 beyond: refused.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p90 needs 100 samples; p50 needs 20.
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.90), None);
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.50), None);
    }

    #[test]
    fn tail_falls_back_to_a_supported_quantile() {
        assert_eq!(tail(&ramp(1000), 0.99), 990.0);
        // 200 samples cannot carry p99 but can carry p95.
        assert_eq!(tail(&ramp(200), 0.99), 190.0);
        assert_eq!(tail(&ramp(5), 0.99), 3.0);
    }

    #[test]
    fn low_slice_ignores_a_burst() {
        let mut s = vec![1.0; 40];
        for v in &mut s[10..20] {
            *v = 9.0;
        }
        assert_eq!(low_slice(&s, 4, median), Some(1.0));
        assert_eq!(low_slice(&s, 1, mean), Some(3.0));
        assert_eq!(low_slice(&s[..3], 4, median), None);
        // Eight slices costing 1..=8: the lower quartile, not the minimum.
        let ramp: Vec<f64> = (1..=8).flat_map(|v| [v as f64; 5]).collect();
        assert_eq!(low_slice(&ramp, 8, median), Some(3.0));
        assert_eq!(low_slice(&ramp[..10], 2, median), Some(1.0));
    }

    #[test]
    fn percentile_rejects_degenerate_quantiles() {
        assert_eq!(percentile(&ramp(1000), 0.0), None);
        assert_eq!(percentile(&ramp(1000), 1.0), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn age_ratio_compares_last_and_first_quarters() {
        let flat = vec![2.0; 16];
        assert_eq!(age_ratio(&flat), Some(1.0));
        let growing: Vec<f64> = (1..=16).map(|i| i as f64).collect();
        // First quarter mean 2.5, last quarter mean 14.5.
        assert_eq!(age_ratio(&growing), Some(14.5 / 2.5));
        assert_eq!(age_ratio(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn self_time_is_never_negative_and_children_fit_the_parent() {
        let cases: [(f64, &[f64]); 5] = [
            (10.0, &[2.0, 3.0]),
            (10.0, &[6.0, 7.0]),
            (0.0, &[1.0]),
            (5.0, &[]),
            (4.0, &[-1.0, 2.0]),
        ];
        for (parent, kids) in cases {
            let s = self_split(parent, kids);
            assert!(s.self_time >= 0.0, "{parent} {kids:?}: {s:?}");
            let sum: f64 = s.children.iter().sum();
            assert!(sum <= parent + 1e-12, "{parent} {kids:?}: {s:?}");
            assert!(
                (s.self_time + sum - parent.max(0.0)).abs() < 1e-9 || sum == 0.0 && parent == 0.0
            );
            assert!(s.children.iter().all(|c| *c >= 0.0));
        }
        let s = self_split(10.0, &[2.0, 3.0]);
        assert_eq!(s.self_time, 5.0);
        assert_eq!(s.children, vec![2.0, 3.0]);
        // Overlapping children are scaled, keeping their 6:7 proportion.
        let s = self_split(10.0, &[6.0, 7.0]);
        assert_eq!(s.self_time, 0.0);
        assert!((s.children[0] / s.children[1] - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn units() {
        // 8 MB of f64 output in half a second.
        assert_eq!(mb_per_s(8_000_000.0, 0.5), 16.0);
        assert_eq!(mb_per_s(1.0, 0.0), 0.0);
        assert_eq!(per_round(1_200.0, 480.0), 2.5);
        assert_eq!(per_round(3.0, 0.0), 0.0);
        assert_eq!(ns_to_ms(2_500_000.0), 2.5);
    }
}
