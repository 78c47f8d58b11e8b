//! Order statistics used by every workload.

/// Nearest-rank percentile `p` (0–100) of `sorted`, with the number of
/// samples strictly beyond it; `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    // the epsilon keeps float noise in p·n/100 (99.9 · 10 000) from
    // rounding an exact rank up by one
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// The median (nearest rank) of unsorted values; 0 when empty.
pub fn p50(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0).map_or(0.0, |(x, _)| x)
}

/// Percentiles a tail report may use, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail rule: the highest percentile (of [`TAIL_CANDIDATES`]) that
/// has at least ten samples beyond it, as `(percentile, value)`. A sample
/// too small for even the median yields the maximum, labelled 100.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let last = *sorted.last()?;
    for p in TAIL_CANDIDATES {
        if let Some((v, beyond)) = nearest_rank(sorted, p) {
            if beyond >= 10 {
                return Some((p, v));
            }
        }
    }
    Some((100.0, last))
}

/// p99 when the sample supports it (at least ten samples beyond), else
/// the highest percentile it does support. Returns `(percentile, value)`.
pub fn p99_or_supported(sorted: &[f64]) -> Option<(f64, f64)> {
    let (p, v) = supported_tail(sorted)?;
    if p >= 99.0 {
        nearest_rank(sorted, 99.0).map(|(v, _)| (99.0, v))
    } else {
        Some((p, v))
    }
}

/// Measure of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// that its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

/// The median of a log₂-bucketed histogram delta, interpolated linearly
/// inside the bucket that holds it. `buckets` are `(inclusive upper
/// bound, count)` ascending, as `mix_obs` exports them.
pub fn hist_p50(buckets: &[(u64, u64)]) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let target = (total as f64 / 2.0).ceil();
    let mut seen = 0u64;
    for &(le, n) in buckets {
        if n == 0 {
            continue;
        }
        if (seen + n) as f64 >= target {
            let hi = if le == u64::MAX {
                u64::MAX as f64
            } else {
                le as f64
            };
            let lo = if le == 0 {
                0.0
            } else {
                ((le as f64) + 1.0) / 2.0
            };
            let frac = (target - seen as f64) / n as f64;
            return lo + (hi - lo) * frac;
        }
        seen += n;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly ten beyond
        assert_eq!(p99_or_supported(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: rank 990 leaves nine, so p95 is the highest
        // supported percentile
        assert_eq!(p99_or_supported(&ramp(999)), Some((95.0, 950.0)));
        // 200 samples: p95 has exactly ten beyond
        assert_eq!(supported_tail(&ramp(200)), Some((95.0, 190.0)));
        // a 5000-sample run supports p99.9 (five beyond) not, p99 yes
        assert_eq!(supported_tail(&ramp(5000)), Some((99.0, 4950.0)));
        assert_eq!(supported_tail(&ramp(10_000)), Some((99.9, 9990.0)));
        // tiny samples fall back to the maximum
        assert_eq!(supported_tail(&ramp(12)), Some((100.0, 12.0)));
        assert_eq!(supported_tail(&[]), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(p50(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(p50(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(p50(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // parent [0,100): children overlap each other and stick out
        let kids = [(10, 30), (20, 40), (90, 120)];
        assert_eq!(covered(0, 100, &kids), 30 + 10);
        assert_eq!(self_time(0, 100, &kids), 60);
        // nested grandchildren do not count twice: only direct children
        // are passed, and a child fully covering the parent leaves zero
        assert_eq!(self_time(5, 15, &[(0, 20)]), 0);
        assert_eq!(self_time(0, 50, &[]), 50);
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // op [0,1000) → parse [0,100), query [100,1000)
        // query → fetch a [200,700), fetch b [300,900) (parallel)
        // fetch b → handle [400,800) → source [450,600)
        let op = (0, 1000);
        let parse = (0, 100);
        let query = (100, 1000);
        let (fa, fb) = ((200, 700), (300, 900));
        let handle = (400, 800);
        let source = (450, 600);
        assert_eq!(self_time(op.0, op.1, &[parse, query]), 0);
        assert_eq!(self_time(query.0, query.1, &[fa, fb]), 100 + 100);
        assert_eq!(self_time(fb.0, fb.1, &[handle]), 200);
        assert_eq!(self_time(handle.0, handle.1, &[source]), 250);
        // the blocking path op = parse + query.self + union(fetches)
        let fetch_union = covered(query.0, query.1, &[fa, fb]);
        assert_eq!(100 + 200 + fetch_union, 1000);
    }

    #[test]
    fn histogram_median_interpolates_inside_its_bucket() {
        // mix_obs buckets: 4 samples in [512, 1023], 4 in [1024, 2047]
        let b = [(1023, 4), (2047, 4)];
        let m = hist_p50(&b);
        assert!((512.0..=1023.0).contains(&m), "{m}");
        assert_eq!(hist_p50(&[]), 0.0);
    }
}
