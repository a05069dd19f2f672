//! Order statistics for the report: medians, nearest-rank percentiles,
//! and the tail rule — the highest percentile that still has at least
//! ten samples beyond it.

/// Percentiles the tail rule tries, lowest first.
const LADDER: [f64; 10] = [
    50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99, 99.999,
];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_SUPPORT: usize = 10;

/// Stand-in value of a sample that never completed (an unserved op): it
/// sorts beyond every served sample, so it counts against every
/// percentile.
pub const UNSERVED: u64 = u64::MAX;

/// Median of `values` (mean of the two middle values for an even count,
/// as Python's `statistics.median`). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// 1-based nearest rank of percentile `p` (0–100] among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p`-th percentile of an ascending sample.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(p, sorted.len()) - 1])
}

/// A tail percentile chosen by the ten-samples-beyond rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 99.0).
    pub percentile: f64,
    /// Its nearest-rank value; [`UNSERVED`] when it falls on an op that
    /// never completed.
    pub value: u64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples ranked beyond the percentile.
    pub beyond: usize,
}

/// The highest percentile of [`LADDER`] with at least
/// [`TAIL_SUPPORT`] samples ranked beyond it, over an ascending sample.
/// `None` when even the median lacks that support (fewer than 20
/// samples).
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    LADDER
        .iter()
        .rev()
        .map(|&p| (p, rank(p, n)))
        .find(|&(_, r)| n >= r + TAIL_SUPPORT)
        .map(|(p, r)| Tail {
            percentile: p,
            value: sorted[r - 1],
            samples: n,
            beyond: n - r,
        })
}

/// Latency samples over ops *requested*: the completed ops' latencies
/// plus one [`UNSERVED`] entry per op that never completed, ascending.
pub fn over_requested(mut served: Vec<u64>, requested: u64) -> Vec<u64> {
    let missing = requested.saturating_sub(served.len() as u64);
    served.extend((0..missing).map(|_| UNSERVED));
    served.sort_unstable();
    served
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        // p90 has exactly ten samples beyond it, p95 only five.
        let t = tail(&v).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90, 10, 100)
        );

        let v: Vec<u64> = (1..=1000).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990, 10));

        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(tail(&v).unwrap().percentile, 50.0);
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(tail(&v), None, "the median has only nine beyond it");
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn unserved_ops_count_beyond_every_percentile() {
        // 90 served at latency 5, 10 never served.
        let v = over_requested(vec![5; 90], 100);
        assert_eq!(v.len(), 100);
        assert_eq!(percentile(&v, 90.0), Some(5));
        assert_eq!(percentile(&v, 91.0), Some(UNSERVED));
        // With 20 unserved, the tail lands on an unserved op.
        let v = over_requested(vec![5; 80], 100);
        assert_eq!(tail(&v).unwrap().value, UNSERVED);
        assert_eq!(percentile(&v, 50.0), Some(5));
    }
}
