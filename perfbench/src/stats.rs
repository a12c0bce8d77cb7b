//! The arithmetic behind every reported figure: medians, tail percentiles
//! under the ten-samples-beyond rule, span self time, and the per-layer
//! times derived from the program's own counters.

/// Samples that must rank strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median of integer samples, as `f64`.
pub fn median_u64(xs: &[u64]) -> Option<f64> {
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// A tail percentile as actually reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at (may be below the one asked for).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// The `pct`th percentile of `xs` by nearest rank, lowered until at least
/// [`MIN_BEYOND`] samples rank strictly beyond it. `None` when there are
/// too few samples for any percentile to have that many beyond it.
///
/// A p95 therefore needs at least 200 samples; with 100 the rule reports
/// the p90.
pub fn tail(xs: &[f64], pct: u32) -> Option<Tail> {
    let n = xs.len();
    if n <= MIN_BEYOND || pct == 0 || pct > 100 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank, 1-based, in integers so 95% of 200 is exactly 190.
    let nearest = (pct as usize * n).div_ceil(100);
    let rank = nearest.clamp(1, n - MIN_BEYOND);
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
    })
}

/// Nanoseconds of the span `[start, end)` that none of `children` covers.
/// Children are clipped to the span and overlapping children count once.
pub fn self_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Scan time spent outside the counting kernel and the staging decoder:
/// the executor's per-node selection, gather and transpose.
pub fn dispatch_ns(scan_ns: u64, validate_ns: u64, accumulate_ns: u64, decode_ns: u64) -> u64 {
    scan_ns.saturating_sub(
        validate_ns
            .saturating_add(accumulate_ns)
            .saturating_add(decode_ns),
    )
}

/// Time of one `process_next_batch` call outside its counting scans:
/// scheduling, staging set-up and session bookkeeping.
pub fn plan_ns(batch_span_ns: u64, scan_ns: u64) -> u64 {
    batch_span_ns.saturating_sub(scan_ns)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_u64(&[7, 9]), Some(8.0));
    }

    #[test]
    fn p95_of_200_leaves_exactly_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs, 95).unwrap();
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn too_few_samples_lower_the_percentile() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs, 95).unwrap();
        assert_eq!(t.value, 90.0, "p95 of 100 has only 5 beyond; p90 has 10");
        assert_eq!(t.percentile, 90.0);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven, 99).unwrap().value, 0.0);
        assert_eq!(tail(&eleven[..10], 50), None);
    }

    #[test]
    fn enough_samples_keep_the_asked_percentile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 95).unwrap();
        assert_eq!((t.percentile, t.value), (95.0, 950.0));
        assert_eq!(tail(&xs, 50).unwrap().value, 500.0);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        assert_eq!(self_ns(0, 100, &[]), 100);
        assert_eq!(self_ns(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_ns(0, 100, &[(10, 40), (20, 50)]), 60);
        // Nested child inside another child adds nothing.
        assert_eq!(self_ns(0, 100, &[(10, 60), (20, 30)]), 50);
        // Children reaching outside the span are clipped to it.
        assert_eq!(self_ns(50, 100, &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_ns(0, 100, &[(0, 100)]), 0);
    }

    #[test]
    fn derived_layer_times() {
        assert_eq!(dispatch_ns(1_000, 100, 200, 300), 400);
        assert_eq!(dispatch_ns(100, 100, 200, 0), 0, "saturates, never wraps");
        assert_eq!(plan_ns(5_000, 4_200), 800);
        assert_eq!(plan_ns(10, 20), 0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
